"""Shared domain types: scores, weight sequences, rejection sets, self-consistency."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import islice
from typing import Sequence

import numpy as np

WEIGHT_SUM_SLACK = 1e-12
NEED_CAP = 1e15  # a candidate k above this is reported as no need at all


class InputError(ValueError):
    """Invalid scores, weights, or candidate sets."""


class ConfigError(ValueError):
    """Invalid procedure or experiment configuration."""


class ScoreKind(Enum):
    P_VALUE = "p"
    E_VALUE = "e"


@dataclass(frozen=True)
class Score:
    """A single test statistic: a p-value in [0, 1] or an e-value in [0, +inf]."""

    value: float
    kind: ScoreKind

    def __post_init__(self):
        validate_score_value(self.value, self.kind)


def validate_score_value(value: float, kind: ScoreKind) -> float:
    """Range-check a raw score; raises InputError instead of clamping."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise InputError(f"score {value!r} is not a number") from None
    if math.isnan(value):
        raise InputError(f"score is NaN ({kind.value}-value)")
    if kind is ScoreKind.P_VALUE:
        if not (0.0 <= value <= 1.0):
            raise InputError(f"p-value {value!r} outside [0, 1]")
    else:
        if value < 0.0:
            raise InputError(f"e-value {value!r} is negative")
    return value


def score_values(scores, kind: ScoreKind, t: int = 0) -> np.ndarray:
    """Validate a batch of scores at once: raw floats, Scores or any iterable
    of them, as a float array.  An error names the first bad score by its
    position in ``scores`` and by its index, t + 1 for ``scores[0]``."""
    items = scores if isinstance(scores, (np.ndarray, list, tuple)) else list(scores)
    try:
        values = np.asarray(items, dtype=float)
    except (TypeError, ValueError):  # Scores, or something float() rejects
        values = None
    if values is None:
        values = np.empty(len(items))
        for i, s in enumerate(items):
            try:
                values[i] = score_value(s, kind)
            except InputError as exc:
                raise InputError(f"scores[{i}] (t={t + i + 1}): {exc}") from None
        return values
    if values.ndim != 1:
        raise InputError(f"scores of shape {values.shape}: expected one dimension")
    if kind is ScoreKind.P_VALUE:
        bad = ~((values >= 0.0) & (values <= 1.0))
    else:
        bad = ~(values >= 0.0)
    if bad.any():
        i = int(bad.argmax())
        try:
            validate_score_value(values[i], kind)
        except InputError as exc:
            raise InputError(f"scores[{i}] (t={t + i + 1}): {exc}") from None
    return values


# read as a module name on every step: an enum member lookup costs more
# than the rest of the fast path below
_P_VALUE = ScoreKind.P_VALUE


def score_value(score, kind: ScoreKind) -> float:
    """Accept a raw float or a Score; enforce the stream's kind.

    A Python float in range is returned as it is, at once; NaN fails the
    range test.  Everything else goes through ``validate_score_value``, so
    the value, its type and every error message are the same either way."""
    if type(score) is float and 0.0 <= score <= (1.0 if kind is _P_VALUE else math.inf):
        return score
    if isinstance(score, Score):
        if score.kind is not kind:
            raise InputError(
                f"{score.kind.value}-value fed to a {kind.value}-value procedure"
            )
        return score.value
    return validate_score_value(score, kind)


class WeightSequence:
    """Nonnegative per-hypothesis weights gamma_1, gamma_2, ... with sum <= 1.

    Three constructions: an explicit finite list (zero beyond its end), the
    geometric sequence gamma_t = q^(t-1) * (1 - q), and uniform weights 1/K on
    the first K hypotheses.
    """

    def __init__(self, description: str, **params):
        self.description = description
        self._params = params
        if description == "explicit":
            weights = [float(w) for w in params["weights"]]
            if any(w < 0 or math.isnan(w) for w in weights):
                raise InputError("explicit weights must be nonnegative")
            total = math.fsum(weights)
            if total > 1.0 + WEIGHT_SUM_SLACK:
                raise InputError(f"explicit weights sum to {total} > 1")
            self._weights = weights
            # suffix[t] = sum of weights strictly after position t (1-based)
            suffix = [0.0] * (len(weights) + 1)
            for i in range(len(weights) - 1, -1, -1):
                suffix[i] = suffix[i + 1] + weights[i]
            self._suffix = suffix
            self._gamma_max = max(weights) if weights else 0.0
            self._support = sum(1 for w in weights if w > 0.0)
        elif description == "geometric":
            q = float(params["q"])
            if not (0.0 < q < 1.0):
                raise InputError(f"geometric parameter q={q} outside (0, 1)")
            self._q = q
            self._gamma_max = 1.0 - q
            self._support = math.inf
        elif description == "uniform_finite":
            try:  # any integer, numpy's too, but not 2.9 read as 2
                K = operator.index(params["K"])
            except TypeError:
                raise InputError(f"uniform horizon K={params['K']!r} must be an integer") from None
            if K < 1:
                raise InputError(f"uniform horizon K={K} must be >= 1")
            self._K = K
            self._gamma_max = 1.0 / K
            self._support = K
        else:
            raise ConfigError(f"unknown weight description {description!r}")

    @classmethod
    def explicit(cls, weights: Sequence[float]) -> "WeightSequence":
        return cls("explicit", weights=list(weights))

    @classmethod
    def geometric(cls, q: float) -> "WeightSequence":
        return cls("geometric", q=q)

    @classmethod
    def uniform_finite(cls, K: int) -> "WeightSequence":
        return cls("uniform_finite", K=K)

    def gamma(self, t: int) -> float:
        """Weight of hypothesis t (1-based)."""
        if t < 1:
            raise InputError(f"index t={t} must be >= 1")
        if self.description == "explicit":
            return self._weights[t - 1] if t <= len(self._weights) else 0.0
        if self.description == "geometric":
            return self._q ** (t - 1) * (1.0 - self._q)
        return 1.0 / self._K if t <= self._K else 0.0

    def gammas(self, t: int, n: int) -> np.ndarray:
        """gamma_t, ..., gamma_{t+n-1} as a float array, equal to ``gamma``
        bit for bit."""
        if t < 1:
            raise InputError(f"index t={t} must be >= 1")
        out = np.zeros(n)
        if self.description == "explicit":
            part = self._weights[t - 1:t - 1 + n]
            out[:len(part)] = part
        elif self.description == "geometric":
            # Python's pow: numpy's power can differ from gamma in the last ulp
            q = self._q
            out[:] = [q ** (i - 1) * (1.0 - q) for i in range(t, t + n)]
        else:
            out[:max(0, self._K - t + 1)] = 1.0 / self._K
        return out

    def tail_mass(self, t: int) -> float:
        """Sum of gamma_i over i > t, in closed form."""
        if t < 0:
            raise InputError(f"t={t} must be >= 0")
        if self.description == "explicit":
            return self._suffix[min(t, len(self._weights))]
        if self.description == "geometric":
            return self._q ** t
        return max(0, self._K - t) / self._K

    @property
    def gamma_max(self) -> float:
        """Supremum of gamma_i over the whole (possibly infinite) sequence."""
        return self._gamma_max

    @property
    def support_size(self) -> float:
        """Number of positive weights: K for uniform, the count of positive
        entries for explicit, inf for geometric."""
        return self._support

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self._params.items())
        return f"WeightSequence.{self.description}({args})"


class RejectionSet:
    """The rejected indices at a given step as first-rejection times: R_t is
    the first |R_t| entries of that dict, all at times <= t.  Built from
    distinct indices in any order, which are range-checked, or in O(1) from
    a procedure's rejection times with ``view``; both give the same set.
    The size is fixed when the set is built; ``indices`` sorts on first read.
    """

    def __init__(self, indices, time: int):
        order = distinct_sorted(indices)
        if order and (order[0] < 1 or order[-1] > time):
            raise InputError("rejection set contains an index beyond its time")
        self._times, self._size, self.time = dict.fromkeys(order, time), len(order), time

    @classmethod
    def view(cls, times: dict, time: int) -> "RejectionSet":
        """R_time from first-rejection times in rejection order, in O(1) and
        without the range check: the first len(times) entries of such a dict
        are all at times <= time."""
        view = object.__new__(cls)
        view._times, view._size, view.time = times, len(times), time
        return view

    @cached_property
    def indices(self) -> tuple:
        return tuple(sorted(islice(self._times, self._size)))

    def __contains__(self, i: int) -> bool:
        return self._times.get(i, math.inf) <= self.time

    def __len__(self) -> int:
        return self._size

    def __eq__(self, other) -> bool:
        if not isinstance(other, RejectionSet):
            return NotImplemented
        return self.time == other.time and self.indices == other.indices

    def __hash__(self) -> int:
        return hash((self.indices, self.time))


def distinct_sorted(indices) -> list:
    """The indices in increasing order; an index given twice is an InputError."""
    order = sorted(indices)
    if len(set(order)) < len(order):
        twice = next(i for i, j in zip(order, order[1:]) if i == j)
        raise InputError(f"index {twice} is given twice")
    return order


def harmonic_number(K: int) -> float:
    """The K-th harmonic number, sum of 1/i for i = 1..K."""
    if K < 1:
        raise InputError(f"K={K} must be a positive integer")
    return math.fsum(1.0 / i for i in range(1, K + 1))


def minimal_k_evalue(e: float, alpha: float, gamma: float) -> float:
    """Smallest integer k >= 1 with e >= 1/(k * alpha * gamma), or inf if none.

    Exact at grid boundaries: the candidate from the float division is
    corrected with direct threshold comparisons.
    """
    if gamma <= 0.0 or e <= 0.0:
        return math.inf
    if math.isinf(e):
        return 1
    ag = alpha * gamma
    denom = ag * e
    if denom <= 0.0:  # product underflow for subnormal e
        return math.inf
    kf = 1.0 / denom
    if not kf <= NEED_CAP:  # NaN too
        return math.inf
    k = max(1, math.ceil(kf))
    while k > 1 and e >= 1.0 / ((k - 1) * ag):
        k -= 1
    while e < 1.0 / (k * ag):
        k += 1
    return k


def minimal_k_pvalue(p: float, alpha: float, gamma: float) -> float:
    """Smallest integer k >= 1 with p <= k * alpha * gamma, or inf if none."""
    if gamma <= 0.0:
        # weight zero carries no error budget: never rejected, even at p = 0
        return math.inf
    ag = alpha * gamma
    if ag == 0.0:
        # alpha * gamma underflowed: every threshold k * ag is 0
        return 1 if p == 0.0 else math.inf
    kf = p / ag
    if not kf <= NEED_CAP:  # NaN too
        return math.inf
    k = max(1, math.ceil(kf))
    while k > 1 and p <= (k - 1) * ag:
        k -= 1
    while p > k * ag:
        k += 1
    return k


def needs(values, kind: ScoreKind, alpha: float, gammas) -> np.ndarray:
    """``minimal_k_evalue`` / ``minimal_k_pvalue`` of every score at its
    weight, bit for bit, as a float array of the scores' shape with inf for
    no need.  The weights broadcast against the scores: one per score, one
    for all, or one per column of a 2-D array of streams.

    The float candidate is corrected by the scalar routines' own threshold
    comparisons, repeated until no element moves: the thresholds are
    monotone in k, so both arrive at the smallest qualifying k.
    """
    v = np.asarray(values, dtype=float)
    shape = v.shape
    g = np.asarray(gammas, dtype=float)
    if g.shape != shape:
        g = np.broadcast_to(g, shape)
    v, g = v.ravel(), g.ravel()
    k = np.full(v.shape, math.inf)
    # e = inf, or p = 0, clears k = 1 at any positive weight, also where
    # alpha * gamma underflows to 0 and the quotient below is nan
    extreme = (v == (math.inf if kind is ScoreKind.E_VALUE else 0.0)) & (g > 0.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore", under="ignore"):
        ag = alpha * g
        # no need where the scalar routines return inf early: the quotient
        # is inf or nan for e = 0, gamma = 0 or an underflowing product; it
        # is 0 only for the extreme scores above, and a negative score is
        # not a score
        kf = 1.0 / (ag * v) if kind is ScoreKind.E_VALUE else v / ag
        at = np.flatnonzero((kf > 0.0) & (kf <= NEED_CAP))
        v, ag = v[at], ag[at]
        if kind is ScoreKind.E_VALUE:
            qualifies = lambda k: v >= 1.0 / (k * ag)  # noqa: E731
        else:
            qualifies = lambda k: v <= k * ag  # noqa: E731
        k[at] = _least_k(np.maximum(1.0, np.ceil(kf[at])), qualifies)
    k[extreme] = 1.0
    return k.reshape(shape)


def _least_k(k, qualifies) -> np.ndarray:
    """The smallest k >= 1 where ``qualifies`` (monotone in k) holds, from a
    candidate k near it: step down while k - 1 qualifies, then up while k
    does not, as the scalar routines do."""
    while True:
        down = (k > 1.0) & qualifies(k - 1.0)
        if not down.any():
            break
        k -= down
    while True:
        up = ~qualifies(k)
        if not up.any():
            return k
        k += up


def is_self_consistent(candidate, scores, weights: WeightSequence, alpha: float,
                       kind: ScoreKind | None = None) -> bool:
    """Whether every index in the candidate set clears the threshold implied
    by the set's own size: E_t >= 1/(alpha * gamma_t * |R|) for e-values,
    P_t <= alpha * gamma_t * |R| for p-values, that is, whether its need is
    at most |R|.  The empty set passes.

    Scores may be Score instances (kind inferred) or raw floats with an
    explicit kind.
    """
    if not (0.0 < alpha <= 1.0):
        raise ConfigError(f"alpha={alpha} outside (0, 1]")
    candidate = sorted(set(candidate))
    if not candidate:
        return True
    kinds = {s.kind for s in scores if isinstance(s, Score)}
    if kind is not None:
        kinds.add(kind)
    if len(kinds) > 1:
        raise InputError("mixed score kinds in one stream")
    if not kinds:
        raise InputError("pass Score instances or an explicit kind")
    kind = kinds.pop()
    values = [score_value(s, kind) for s in scores]
    n = len(values)
    if candidate[0] < 1 or candidate[-1] > n:
        raise InputError(f"candidate index out of range 1..{n}")
    # needs() compares with the same products alpha * gamma_t * |R|, and a
    # need is at most |R| iff the score clears the threshold at |R|
    gammas = [weights.gamma(t) for t in candidate]
    need = needs([values[t - 1] for t in candidate], kind, alpha, gammas)
    return bool((need <= len(candidate)).all())

