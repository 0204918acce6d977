"""False-discovery and power metrics over rejection histories.

SupFDR over an infinite stream is estimated by the running-max FDP at the
simulated horizon, which lower-bounds the theoretical supremum.  FDR at a
stopping time is the FDP at the time a ``StoppingRule`` picks from the
rejection counts alone.  Power is the expected proportion of non-nulls rejected.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .core import InputError, RejectionSet, distinct_sorted


@dataclass(frozen=True)
class GroundTruth:
    """Per-index null labels: labels[i-1] is True iff hypothesis i is null."""

    labels: tuple

    @classmethod
    def from_nulls(cls, nulls, n: int) -> "GroundTruth":
        nulls = list(nulls)
        bad = next((i for i in nulls if not 1 <= i <= n), None)
        if bad is not None:
            raise InputError(f"null index {bad} outside 1..{n}")
        nulls = set(nulls)
        return cls(tuple(i in nulls for i in range(1, n + 1)))

    def is_null(self, i: int) -> bool:
        if not (1 <= i <= len(self.labels)):
            raise InputError(f"index {i} not covered by ground truth")
        return bool(self.labels[i - 1])

    @cached_property
    def _null_mask(self) -> np.ndarray:
        return np.array(self.labels, dtype=bool)

    def nulls_at(self, indices) -> np.ndarray:
        """``is_null`` of each 1-based index as a boolean array, from one
        mask built per truth."""
        idx = np.asarray(indices, dtype=np.int64)
        n = len(self.labels)
        if idx.size and (idx.min() < 1 or idx.max() > n):
            bad = idx[(idx < 1) | (idx > n)][0]
            raise InputError(f"index {bad} not covered by ground truth")
        return self._null_mask[idx - 1]

    @property
    def n_nulls(self) -> int:
        return sum(self.labels)

    @property
    def n_nonnulls(self) -> int:
        return len(self.labels) - self.n_nulls


def _count(name: str, value) -> int:
    """value as an int >= 1, numpy's integers too; an InputError naming the
    field otherwise: 2.5 and NaN are not integers."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InputError(f"{name}={value!r} must be an integer") from None
    if value < 1:
        raise InputError(f"{name}={value} must be >= 1")
    return value


def _indices(rejections):
    """The sorted indices of a RejectionSet, or of an iterable of indices,
    which must be distinct: an index given twice would count twice."""
    if isinstance(rejections, RejectionSet):
        return rejections.indices
    return distinct_sorted(rejections)


def fdp(rejections, truth: GroundTruth) -> float:
    """False discovery proportion |R cap I_0| / (|R| v 1)."""
    indices = _indices(rejections)
    if not indices:
        return 0.0
    false = int(np.count_nonzero(truth.nulls_at(indices)))
    return false / len(indices)


def power(rejections, truth: GroundTruth) -> float:
    """Proportion of non-null hypotheses rejected."""
    indices = _indices(rejections)
    denom = max(1, truth.n_nonnulls)
    true_pos = len(indices) - int(np.count_nonzero(truth.nulls_at(indices)))
    return true_pos / denom


def rejection_counts(rejection_times: dict, n: int) -> np.ndarray:
    """|R_t| for t = 1..n from the first-rejection times of an ARC run.

    Nestedness makes the rejection history equivalent to the map
    index -> first rejection time, so |R_t| is the number of times <= t.
    """
    times = np.fromiter(rejection_times.values(), dtype=np.int64,
                        count=len(rejection_times))
    if times.size and not (1 <= times.min() and times.max() <= n):
        bad = times[(times < 1) | (times > n)][0]
        raise InputError(f"rejection time {bad} outside 1..{n}")
    return _counts(times, 1, n)[0]


def _counts(slots: np.ndarray, rows: int, n: int) -> np.ndarray:
    """rows x n counts: entry (r, t - 1) counts the slots r (n + 1) + time
    with time <= t, for times within 1..n."""
    per_t = np.bincount(slots, minlength=rows * (n + 1)).reshape(rows, n + 1)
    return np.cumsum(per_t[:, 1:], axis=1)


def cell_estimates(rejection_times, nulls: np.ndarray, K: int | None = None,
                   stopping_rule: StoppingRule | None = None) -> dict:
    """Monte-Carlo (mean, se) estimates over m runs of one procedure, with
    se = sample sd / sqrt(m): fdr_at_T, sup_fdr (running-max FDP), power,
    and on request sup_fdr_K (running max up to time K) and stop_fdr (FDP
    at the time ``stopping_rule`` picks).  rejection_times[i] is run i's map
    index -> first rejection time and nulls[i] its null mask, a boolean
    m x n array; one bincount and cumsum count all and null rejections up
    to each t."""
    nulls = np.asarray(nulls)
    if nulls.ndim != 2 or nulls.dtype != bool:
        raise InputError(f"null masks of shape {nulls.shape} and dtype {nulls.dtype}: "
                         "expected a 2-D boolean array")
    m, n = nulls.shape
    if len(rejection_times) != m:
        raise InputError(f"{len(rejection_times)} runs for {m} null masks")
    if m < 2:
        raise InputError("need at least 2 trials for standard errors")
    if K is not None:
        K = _count("K", K)
    sizes = np.fromiter(map(len, rejection_times), dtype=np.int64, count=m)
    total = int(sizes.sum())
    indices = np.fromiter(chain.from_iterable(rejection_times), dtype=np.int64,
                          count=total)
    times = np.fromiter(chain.from_iterable(rt.values() for rt in rejection_times),
                        dtype=np.int64, count=total)
    if total and not (1 <= min(times.min(), indices.min())
                      and max(times.max(), indices.max()) <= n):
        raise InputError(f"rejection index or time outside 1..{n}")
    run = np.repeat(np.arange(m), sizes)
    null = nulls[run, indices - 1]
    slot = run * (n + 1) + times
    false = _counts(slot[null], m, n)
    totals = _counts(slot, m, n)
    paths = false / np.maximum(totals, 1)
    powers = (sizes - false[:, -1]) / np.maximum(1, n - np.count_nonzero(nulls, axis=1))
    out = {"fdr_at_T": _mean_se(paths[:, -1]),
           "sup_fdr": _mean_se(paths.max(axis=1)),
           "power": _mean_se(powers)}
    if K is not None:
        out["sup_fdr_K"] = _mean_se(paths[:, :K].max(axis=1))
    if stopping_rule is not None:
        out["stop_fdr"] = _mean_se(paths[np.arange(m), stopping_rule.stop_times(totals) - 1])
    return out


def _mean_se(xs) -> tuple:
    """Mean and standard error sd / sqrt(m) of m values."""
    xs = np.array(xs, dtype=float)
    return float(xs.mean()), float(xs.std(ddof=1) / math.sqrt(len(xs)))


class StoppingRule:
    """A stopping time as a function of the observable history only.

    Rules see the m x n rejection counts |R_t| of m runs, never the ground
    truth; ``stop_times`` returns one 1-based time in 1..n per run.
    """

    def __init__(self, fn, name: str):
        self._fn = fn
        self.name = name

    @classmethod
    def fixed_time(cls, T: int) -> "StoppingRule":
        T = _count("T", T)
        return cls(lambda counts: np.full(len(counts), min(T, counts.shape[1])),
                   f"fixed_time({T})")

    @classmethod
    def time_of_jth_rejection(cls, j: int) -> "StoppingRule":
        """First t with |R_t| >= j; the horizon if never reached."""
        j = _count("j", j)

        def fn(counts):
            hit = counts >= j
            return np.where(hit.any(1), hit.argmax(1) + 1, counts.shape[1])

        return cls(fn, f"time_of_jth_rejection({j})")

    def stop_times(self, counts) -> np.ndarray:
        return self._fn(np.asarray(counts))
