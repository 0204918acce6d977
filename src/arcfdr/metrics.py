"""False-discovery and power metrics over rejection histories.

SupFDR over an infinite stream is estimated by the running-max FDP at the
simulated horizon, which lower-bounds the theoretical supremum.  Power is the
expected proportion of non-nulls rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .core import InputError, RejectionSet


@dataclass(frozen=True)
class GroundTruth:
    """Per-index null labels: labels[i-1] is True iff hypothesis i is null."""

    labels: tuple

    @classmethod
    def from_nulls(cls, nulls, n: int) -> "GroundTruth":
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


def fdp(rejections, truth: GroundTruth) -> float:
    """False discovery proportion |R cap I_0| / (|R| v 1)."""
    indices = rejections.indices if isinstance(rejections, RejectionSet) else tuple(rejections)
    if not indices:
        return 0.0
    false = int(np.count_nonzero(truth.nulls_at(indices)))
    return false / len(indices)


def power(rejections, truth: GroundTruth) -> float:
    """Proportion of non-null hypotheses rejected."""
    indices = rejections.indices if isinstance(rejections, RejectionSet) else tuple(rejections)
    denom = max(1, truth.n_nonnulls)
    true_pos = len(indices) - int(np.count_nonzero(truth.nulls_at(indices)))
    return true_pos / denom


@dataclass
class FdpPath:
    """FDP_t for t = 1..n, with its running maximum."""

    values: np.ndarray
    sup_fdp: float = field(init=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.size and (self.values.min() < 0.0 or self.values.max() > 1.0):
            raise InputError("FDP values outside [0, 1]")
        self.sup_fdp = float(self.values.max()) if self.values.size else 0.0

    def sup_upto(self, K: int) -> float:
        if K < 1:
            raise InputError(f"K={K} must be >= 1")
        return float(self.values[: K].max()) if self.values.size else 0.0

    def at(self, t: int) -> float:
        if not (1 <= t <= self.values.size):
            raise InputError(f"t={t} outside 1..{self.values.size}")
        return float(self.values[t - 1])


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
    return _counts(times, n)


def _counts(times: np.ndarray, n: int) -> np.ndarray:
    """#{times <= t} for t = 1..n, for times within 1..n."""
    return np.cumsum(np.bincount(times, minlength=n + 1)[1:])


def fdp_path_from_rejection_times(rejection_times: dict, truth: GroundTruth,
                                  n: int) -> FdpPath:
    """FDP path of an ARC run from its first-rejection times: the counts of
    all rejections and of null rejections up to each t."""
    totals = rejection_counts(rejection_times, n)
    count = len(rejection_times)
    nulls = truth.nulls_at(np.fromiter(rejection_times, dtype=np.int64, count=count))
    times = np.fromiter(rejection_times.values(), dtype=np.int64, count=count)
    return FdpPath(_counts(times[nulls], n) / np.maximum(totals, 1))


def cell_estimates(rejection_times, nulls: np.ndarray) -> dict:
    """``estimate_metrics`` of the FDP paths and powers of m runs of one
    procedure, from 2-D arrays: rejection_times[i] is run i's map
    index -> first rejection time and nulls[i] its null mask (m x n).

    One bincount and cumsum give every run's counts of all and of null
    rejections up to each t, so each path and power equals the one of
    ``fdp_path_from_rejection_times`` and ``power`` bit for bit."""
    m, n = nulls.shape
    if len(rejection_times) != m:
        raise InputError(f"{len(rejection_times)} runs for {m} null masks")
    if m < 2:
        raise InputError("need at least 2 trials for standard errors")
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

    def counts(at):
        per_t = np.bincount(at, minlength=m * (n + 1)).reshape(m, n + 1)
        return np.cumsum(per_t[:, 1:], axis=1)

    false = counts(slot[null])
    paths = false / np.maximum(counts(slot), 1)
    powers = (sizes - false[:, -1]) / np.maximum(1, n - np.count_nonzero(nulls, axis=1))
    return {"fdr_at_T": _mean_se(paths[:, -1]),
            "sup_fdr": _mean_se(paths.max(axis=1)),
            "power": _mean_se(powers)}


def _mean_se(xs) -> tuple:
    """Mean and standard error sd / sqrt(m) of m values."""
    xs = np.array(xs, dtype=float)
    return float(xs.mean()), float(xs.std(ddof=1) / math.sqrt(len(xs)))


class StoppingRule:
    """A stopping time as a function of the observable history only.

    Rules see per-step rejection counts (and optionally scores), never the
    ground truth; they return a 1-based time in 1..n.
    """

    def __init__(self, fn, name: str):
        self._fn = fn
        self.name = name

    @classmethod
    def fixed_time(cls, T: int) -> "StoppingRule":
        if T < 1:
            raise InputError(f"T={T} must be >= 1")
        return cls(lambda counts: min(T, len(counts)), f"fixed_time({T})")

    @classmethod
    def time_of_jth_rejection(cls, j: int) -> "StoppingRule":
        """First t with |R_t| >= j; the horizon if never reached."""
        if j < 1:
            raise InputError(f"j={j} must be >= 1")

        def fn(counts):
            hit = np.nonzero(np.asarray(counts) >= j)[0]
            return int(hit[0]) + 1 if hit.size else len(counts)

        return cls(fn, f"time_of_jth_rejection({j})")

    def stop_time(self, rejection_counts) -> int:
        return self._fn(rejection_counts)


def estimate_metrics(fdp_paths, power_values=None, K: int | None = None,
                     stopping_rule: StoppingRule | None = None,
                     rejection_counts=None) -> dict:
    """Monte-Carlo estimates across trials, each with a standard error.

    Returns fdr_at_T (final-time FDP mean), sup_fdr (running-max FDP mean),
    optionally sup_fdr_K, stop_fdr for a supplied rule, and power.  Values are
    (mean, se) pairs with se = sample sd / sqrt(m).
    """
    paths = list(fdp_paths)
    m = len(paths)
    if m < 2:
        raise InputError("need at least 2 trials for standard errors")
    power_values, rejection_counts = (
        None if xs is None else list(xs) for xs in (power_values, rejection_counts))
    for label, xs in (("power_values", power_values), ("rejection_counts", rejection_counts)):
        if xs is not None and len(xs) != m:
            raise InputError(f"{len(xs)} {label} for {m} FDP paths")

    out = {
        "fdr_at_T": _mean_se([p.values[-1] if p.values.size else 0.0 for p in paths]),
        "sup_fdr": _mean_se([p.sup_fdp for p in paths]),
    }
    if K is not None:
        out["sup_fdr_K"] = _mean_se([p.sup_upto(K) for p in paths])
    if stopping_rule is not None:
        if rejection_counts is None:
            raise InputError("stop_fdr needs per-trial rejection counts")
        stops = [stopping_rule.stop_time(c) for c in rejection_counts]
        out["stop_fdr"] = _mean_se([p.at(t) for p, t in zip(paths, stops)])
    if power_values is not None:
        out["power"] = _mean_se(power_values)
    return out
