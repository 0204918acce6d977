"""Streaming state machines for the e-value procedures: online e-BH, e-LOND,
and e-TOAD with decision deadlines.

All procedures accept one score per step and maintain nested rejection sets.
Rejections are recorded as first-rejection times so that full streams can be
processed without materializing a set per step; ``step`` additionally returns
the explicit current :class:`~arcfdr.core.RejectionSet`.  The step-up engine
``_KStarStepUp`` under every step-up procedure, e- and p-value, is here too.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from heapq import heappop, heappush

from .core import (
    ConfigError,
    InputError,
    RejectionSet,
    ScoreKind,
    WeightSequence,
    minimal_k_evalue,
    minimal_k_pvalue,
    score_value,
)


class DeadlineSchedule:
    """Per-hypothesis decision deadlines d_t >= t (possibly +inf)."""

    def __init__(self, deadline_fn):
        self._fn = deadline_fn

    @classmethod
    def unbounded(cls) -> "DeadlineSchedule":
        return cls(lambda t: math.inf)

    @classmethod
    def immediate(cls) -> "DeadlineSchedule":
        return cls(lambda t: t)

    @classmethod
    def explicit(cls, deadlines) -> "DeadlineSchedule":
        ds = list(deadlines)
        return cls(lambda t: ds[t - 1] if t <= len(ds) else math.inf)

    def deadline(self, t: int) -> float:
        d = self._fn(t)
        if d < t:
            raise ConfigError(f"deadline d_{t}={d} is before arrival time {t}")
        return d


class StreamProcedure:
    """Common stream state: k* path and first-rejection times."""

    kind: ScoreKind

    def __init__(self, weights: WeightSequence, alpha: float):
        if not (0.0 < alpha <= 1.0):
            raise ConfigError(f"alpha={alpha} outside (0, 1]")
        self.weights = weights
        self.alpha = alpha
        self.t = 0
        self.k_star = 0
        self.kstar_path: list[int] = []  # kstar_path[t-1] = k*_t
        self.rejection_times: dict[int, int] = {}
        self._rejected_sorted: list[int] = []
        self._rejected_tuple: tuple | None = ()  # None: rebuild from the list
        self._last_new: tuple = ()

    def _advance(self, value: float, t: int) -> list:
        """Process the raw score of hypothesis t; return the indices it newly
        rejects.  Raises before changing any state."""
        raise NotImplementedError

    def _feed(self, score) -> list:
        """Advance one step and keep the books: rejection times, the sorted
        rejections, and k*_t = |R_t|, which holds for every procedure here."""
        t = self.t + 1
        new = self._advance(score_value(score, self.kind), t)
        self.t = t
        if new:
            for i in new:
                self.rejection_times[i] = t
                insort(self._rejected_sorted, i)
            self._rejected_tuple = None
            self.k_star = len(self.rejection_times)
        self.kstar_path.append(self.k_star)
        return new

    def step(self, score) -> RejectionSet:
        """Feed one score, returning the current rejection set."""
        self._last_new = tuple(sorted(self._feed(score)))
        return self.rejection_set()

    def run(self, scores) -> "StreamProcedure":
        """Feed a whole stream without materializing per-step sets."""
        new = None
        for s in scores:
            new = self._feed(s)
        if new is not None:
            self._last_new = tuple(sorted(new))
        return self

    def rejection_set(self) -> RejectionSet:
        if self._rejected_tuple is None:
            self._rejected_tuple = tuple(self._rejected_sorted)
        return RejectionSet(self._rejected_tuple, self.t)

    @property
    def newly_rejected(self) -> tuple:
        """Indices first rejected by the most recent score."""
        return self._last_new


class _KStarStepUp(StreamProcedure):
    """The step-up engine under every step-up procedure.

    Each hypothesis j has an integer "need": the smallest candidate set size k
    at which its score clears the threshold, and a decision deadline d_j
    (``deadlines``; None means d_j = inf).  At time t a hypothesis is counted
    if it is rejected, or if it is not rejected and still active (d_j >= t);
    count(k) = #{counted j : need_j <= k} and k*_t = max{k : count(k) >= k}.
    A hypothesis past its deadline and not rejected is a frozen acceptance: it
    leaves the count for good.  A rejection stays counted, so k*_t = |R_t|.

    The satisfying set can have gaps, so the max is found by iterating
    k <- count(k) downward from the number of counted needs: any valid
    k' <= k also satisfies k' <= count(k'), hence k' <= count(k), and the
    iteration cannot skip past the max fixpoint.  k* is nondecreasing in t,
    which bounds the descent from below.  Pending hypotheses (counted, not
    rejected) are kept sorted by need and popped once need <= k*; a heap of
    their finite deadlines drops them when they expire.

    A subclass supplies ``_need``, which the engine calls once per step before
    anything else.  A subclass whose keys are not integer needs (Storey's
    ratios) also sets ``_bound``.
    """

    # None: a key qualifies at set size k when it is at most k.  Otherwise a
    # method k -> the largest key that qualifies at k; None spares the
    # integer procedures a call per bisection.
    _bound = None

    def __init__(self, weights, alpha):
        super().__init__(weights, alpha)
        self.deadlines: DeadlineSchedule | None = None
        self._counted: list = []       # sorted needs of counted hypotheses
        self._pending_needs: list = []  # sorted needs of pending hypotheses
        self._pending: list[int] = []   # their indices, in the same order
        self._expiry: list = []         # heap of (d_j, j, need_j), pending j

    def _need(self, value: float, t: int) -> float:
        raise NotImplementedError

    def _expire(self, t: int):
        """Drop pending hypotheses whose deadline is before t."""
        expiry, counted = self._expiry, self._counted
        needs, pending = self._pending_needs, self._pending
        while expiry and expiry[0][0] < t:
            _, j, need = heappop(expiry)
            if j in self.rejection_times:
                continue
            del counted[bisect_left(counted, need)]
            # equal needs are ordered by index
            pos = bisect_left(pending, j, bisect_left(needs, need), bisect_right(needs, need))
            del needs[pos]
            del pending[pos]

    def _advance(self, value: float, t: int) -> list:
        need = self._need(value, t)
        deadline = None if self.deadlines is None else self.deadlines.deadline(t)
        if self._expiry:
            self._expire(t)
        counted, needs = self._counted, self._pending_needs
        k_star = self.k_star
        bound_of = self._bound
        bound = k_star if bound_of is None else bound_of(k_star)
        newly = []
        if need != math.inf:
            insort(counted, need)
            if need <= bound:
                newly = [t]
            else:
                pos = bisect_right(needs, need)
                needs.insert(pos, need)
                self._pending.insert(pos, t)
                if deadline is not None and deadline != math.inf:
                    heappush(self._expiry, (deadline, t, need))
        k = len(counted)
        while k > k_star:
            b = k if bound_of is None else bound_of(k)
            c = bisect_right(counted, b)
            if c >= k:
                bound = b
                break
            k = c
        if needs and needs[0] <= bound:
            pos = bisect_right(needs, bound)
            newly += self._pending[:pos]
            del needs[:pos]
            del self._pending[:pos]
        return newly


class _LondRule(StreamProcedure):
    """The closed-form LOND rule: H_t is rejected on arrival iff its need is
    at most |R_{t-1}| + 1, and never later.  This is the step-up engine with
    d_t = t, where count(k) is |R_{t-1}| plus H_t if need_t <= k, without its
    lists.  A subclass supplies ``_need``, the one of its step-up sibling.
    """

    def _advance(self, value: float, t: int) -> list:
        return [t] if self._need(value, t) <= len(self.rejection_times) + 1 else []


class OnlineEBH(_KStarStepUp):
    """Online e-BH: the step-up extension of e-BH to weighted streams.

    Rejects R_t = {i <= t : E_i >= 1/(k*_t * alpha * gamma_i)} where k*_t is
    the largest k in {1..t} such that at least k e-values clear 1/(k alpha
    gamma_j).  Controls SupFDR at level alpha under arbitrary dependence.
    """

    kind = ScoreKind.E_VALUE

    def _need(self, value, t):
        return minimal_k_evalue(value, self.alpha, self.weights.gamma(t))


class ELond(_LondRule):
    """e-LOND: fully online, rejects H_t iff E_t >= 1/(alpha gamma_t (|R_{t-1}| + 1))."""

    kind = ScoreKind.E_VALUE
    _need = OnlineEBH._need


class EToad(OnlineEBH):
    """e-TOAD: online e-BH with decision deadlines.

    At step t the active set is C_t = {i <= t : d_i >= t}.  Decisions for
    hypotheses past their deadline are frozen; the step-up search runs over
    the active set on top of the frozen rejection count.  Recovers online
    e-BH for d_t = inf and e-LOND for d_t = t.
    """

    def __init__(self, weights, alpha, deadlines: DeadlineSchedule):
        super().__init__(weights, alpha)
        self.deadlines = deadlines


class _KStarStepUpP(_KStarStepUp):
    kind = ScoreKind.P_VALUE

    def _need(self, value, t):
        return minimal_k_pvalue(value, self.alpha, self.weights.gamma(t))
