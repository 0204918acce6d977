"""Streaming state machines for the e-value procedures: online e-BH, e-LOND,
and e-TOAD with decision deadlines.

All procedures accept one score per step and maintain nested rejection sets.
The first-rejection times are the one record of the rejections: a dict in
rejection order, of which R_t is the first |R_t| entries.  ``step`` returns
the current :class:`~arcfdr.core.RejectionSet` as an O(1) view of that
dict, which sorts its indices only when they are read.  The step-up engine
``_KStarStepUp`` under every step-up procedure, e- and p-value, is here too.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from heapq import heappop, heappush
from itertools import takewhile

import numpy as np

from .core import (
    ConfigError,
    InputError,
    RejectionSet,
    ScoreKind,
    WeightSequence,
    minimal_k_evalue,
    minimal_k_pvalue,
    needs,
    score_value,
    score_values,
)
from .metrics import rejection_counts

_view = RejectionSet.view  # bound once: every step builds R_t with it


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
        if not d >= t:  # NaN too: at the top of the expiry heap it blocks every later expiry
            raise ConfigError(f"deadline d_{t}={d} is not at or after arrival time {t}")
        return d


class StreamProcedure:
    """Common stream state: t and the first-rejection times, from which the
    rejection sets, k*_t = |R_t|, the k* path and the newest rejections are
    read."""

    kind: ScoreKind

    def __init__(self, weights: WeightSequence, alpha: float):
        if not (0.0 < alpha <= 1.0):
            raise ConfigError(f"alpha={alpha} outside (0, 1]")
        self.weights = weights
        self.alpha = alpha
        self.t = 0
        self.rejection_times: dict[int, int] = {}

    def _need(self, value: float, t: int):
        """The key that ``_place`` decides on for the raw score of hypothesis
        t: the need of a need-based procedure, the score itself otherwise."""
        return value

    def _needs(self, values, t: int):
        """``_need`` of values[i] at index t + i for every i at once, as an
        array: the scores themselves unless a subclass keys them otherwise."""
        return values

    def _place(self, need, t: int):
        """Process the key of hypothesis t and book the indices it newly
        rejects in the rejection times, at time t and in time order, after
        every read of R_{t-1}.  Raises before changing any state."""
        raise NotImplementedError

    @property
    def k_star(self) -> int:
        """k*_t = |R_t|, which holds for every procedure here."""
        return len(self.rejection_times)

    @property
    def kstar_path(self) -> list:
        """k*_1, ..., k*_t as a list of ints, counted from the rejection
        times on each read."""
        return rejection_counts(self.rejection_times, self.t).tolist()

    def step(self, score) -> RejectionSet:
        """Feed one score, returning the current rejection set: validate the
        score, key it, place the key (which books what it newly rejects) and
        return R_t as an O(1) view."""
        t = self.t + 1
        self._place(self._need(score_value(score, self.kind), t), t)
        self.t = t
        return _view(self.rejection_times, t)

    def run(self, scores) -> "StreamProcedure":
        """Feed a whole stream without materializing per-step sets.

        The scores are validated and their keys computed first, all at once,
        so a bad score raises before any state changes.  The result equals
        one ``step`` per score."""
        values = score_values(scores, self.kind, self.t)
        if len(values):
            self._run(self._needs(values, self.t + 1), self.t + 1)
        return self

    def _run(self, keys, t0: int):
        """One step per key (an array) from t0 on."""
        for t, key in enumerate(keys.tolist(), t0):
            self._place(key, t)
            self.t = t

    def rejection_set(self) -> RejectionSet:
        """R_t in O(1): a view of the rejection times up to their size now."""
        return _view(self.rejection_times, self.t)

    @property
    def newly_rejected(self) -> tuple:
        """Indices first rejected by the most recent score, sorted: the
        entries of the rejection times at time t, which are the last ones."""
        times, t = self.rejection_times, self.t
        return tuple(sorted(takewhile(lambda i: times[i] == t, reversed(times))))


class _KStarStepUp(StreamProcedure):
    """The step-up engine under every step-up procedure.

    Each hypothesis j has an integer "need": the smallest candidate set size k
    at which its score clears the threshold, and a decision deadline d_j
    (``deadlines``; d_j = inf without one).  At time t a hypothesis is counted
    if it is rejected, or if it is not rejected and still active (d_j >= t);
    count(k) = #{counted j : need_j <= k} and k*_t = max{k : count(k) >= k}.
    A hypothesis past its deadline and not rejected is a frozen acceptance: it
    leaves the count for good.  A rejection stays counted, so k*_t = |R_t|.

    The search reads count(k) only for k > k*_{t-1}, and every rejected key
    qualifies there: an integer need is at most the k* it was rejected at,
    and Storey's ratio at most that k* over a pi0_hat that never increases
    since.  So count(k) = |R| + #{pending j : need_j within bound(k)}, and
    the needs of rejected hypotheses are not stored.

    The satisfying set can have gaps, so the max is found by iterating
    k <- count(k) downward from N, the number of counted hypotheses: any valid
    k' <= k also satisfies k' <= count(k'), hence k' <= count(k), and the
    iteration cannot skip past the max fixpoint.  k* is nondecreasing in t,
    which bounds the descent from below.  After a search no k in (k*, N]
    qualifies, and count(k) can only grow where a need <= k enters the
    pending list, so the engine keeps a mark below which that still holds
    and stops the next descent there.  Storey's keys qualify at a bound that
    moves with pi0_hat, so its search always descends to k*.

    The search reads count(k) only for k <= N, and N grows by at most one
    per step and never exceeds the number of positive weights (the support).
    So hypothesis t can qualify before its deadline only if need_t <= min(
    support, N_t + d_t - t), its reach; a need beyond reach is not stored at
    all and only counts in N until its deadline.  This assumes, as every
    subclass here does, that a need is finite only when gamma_t > 0.  A need
    within reach but above N waits in a min-heap of (need, j, d_j) and is
    drained into the pending list once N reaches it; the drain runs before
    every search against N itself, waiting entries included, and drops an
    entry past its deadline.  Pending hypotheses (drained or stored on
    arrival, not rejected) are kept sorted by need, equal needs by index,
    and popped once need <= k*.  A heap of finite deadlines takes expiring
    hypotheses out of N, and out of the pending list when they are there.

    A step that stores no need within reach of N thus costs O(log n): heap
    operations and one binary search at k = N.  Each need enters the pending
    list at most once, paying a memmove over the pending needs within reach
    of N only, and the descent after it stops at its need.

    A subclass supplies ``_need``, which is called once per step before
    ``_place``, and ``_needs``, the keys of a whole ``run()`` at once.  A
    subclass whose keys are not integer needs (Storey's ratios) also sets
    ``_bound``; its keys are not integer sizes, so its cap is inf and, as
    it has no deadlines, every key is within reach.
    """

    # None: a key qualifies at set size k when it is at most k.  Otherwise a
    # method k -> the largest key that qualifies at k; None spares the
    # integer procedures a call per bisection.
    _bound = None

    def __init__(self, weights, alpha):
        super().__init__(weights, alpha)
        self.deadlines: DeadlineSchedule | None = None
        self._count = 0                 # N: number of counted hypotheses
        self._clear = 0                 # no k in (k*, _clear] qualifies; integer needs
        self._cap = weights.support_size if self._bound is None else math.inf
        self._pending_needs: list = []  # sorted needs of pending hypotheses
        self._pending: list[int] = []   # their indices, in the same order
        self._waiting: list = []        # heap of (need_j, j, d_j): need above N when pushed
        self._expiry: list = []         # heap of (d_j, j, need_j), j not rejected on arrival

    def _need(self, value: float, t: int) -> float:
        raise NotImplementedError

    def _expire(self, t: int):
        """Take the unrejected hypotheses whose deadline is before t out of
        the count, and out of the pending list if they are there."""
        expiry = self._expiry
        needs, pending = self._pending_needs, self._pending
        while expiry and expiry[0][0] < t:
            _, j, need = heappop(expiry)
            if j in self.rejection_times:
                continue
            self._count -= 1
            lo = bisect_left(needs, need)
            hi = bisect_right(needs, need, lo)
            pos = bisect_left(pending, j, lo, hi)
            if pos < hi and pending[pos] == j:
                del needs[pos]
                del pending[pos]

    def _drain(self, top, t: int):
        """Move waiting needs at most ``top`` into the pending list, dropping
        those whose deadline is before t.  The heap pops equal needs by
        index, and every waiting j is older than any list entry of its need,
        so the list stays ordered by index within a need."""
        waiting = self._waiting
        needs, pending = self._pending_needs, self._pending
        while waiting and waiting[0][0] <= top:
            need, j, deadline = heappop(waiting)
            if deadline < t:
                continue
            if need <= self._clear:  # the heap pops the smallest first
                self._clear = need - 1
            pos = bisect_right(needs, need)
            needs.insert(pos, need)
            pending.insert(pos, j)

    def _place(self, need, t: int):
        deadline = math.inf if self.deadlines is None else self.deadlines.deadline(t)
        if self._expiry:
            self._expire(t)
        times = self.rejection_times
        k_star = len(times)  # k*_{t-1}, read before t is booked
        bound_of = self._bound
        bound = k_star if bound_of is None else bound_of(k_star)
        if need != math.inf:
            self._count += 1
            if need <= bound:
                self._clear = k_star
                times[t] = t
            else:
                # its reach, min(support, N + d_t - t)
                if need <= self._cap and need <= self._count + deadline - t:
                    heappush(self._waiting, (need, t, deadline))
                if deadline != math.inf:
                    heappush(self._expiry, (deadline, t, need))
        k = self._count
        b = k if bound_of is None else bound_of(k)
        if self._waiting and self._waiting[0][0] <= b:
            self._drain(b, t)
        needs = self._pending_needs
        rejected = len(times)  # each qualifies at every k searched
        # every k in (k*, clear] is known not to satisfy count(k) >= k
        lo = k_star if bound_of is not None else max(k_star, self._clear)
        while k > lo:
            c = rejected + bisect_right(needs, b)
            if c >= k:
                bound = b
                break
            k = c
            b = k if bound_of is None else bound_of(k)
        self._clear = self._count
        if needs and needs[0] <= bound:
            pos = bisect_right(needs, bound)
            for j in self._pending[:pos]:  # after the arrival, in need order
                times[j] = t
            del needs[:pos]
            del self._pending[:pos]

    def _run(self, keys, t0: int):
        """``StreamProcedure._run`` where a deadline-free engine on integer
        needs only counts the arrivals out of reach.

        N never exceeds N0 + len(keys) during the call, N0 the count before
        it, and a need qualifies at most at N, so an arrival whose need
        exceeds that horizon is not rejected in this call.  If every waiting
        need also exceeds the new N, ``_place`` would only count it, push it
        to the waiting heap and set the mark ``_clear`` to N: no k in
        (k*, N] qualifies before it (the mark's invariant), and the new N
        brings no need into the pending list.  So just that is done, without
        the search; the need goes on the heap at once, where nothing pops
        it in the call, as no drain reaches past N.  An infinite need
        changes nothing.

        Only an engine with deadlines takes the step-by-step path (Storey's
        ratio keys have their own ``_run``).  It reads every deadline of the
        call once before the first ``_place``, so that a bad one raises
        before any state changes."""
        if self.deadlines is not None:
            for t in range(t0, t0 + len(keys)):
                self.deadlines.deadline(t)
            super()._run(keys, t0)
            return
        count = self._count
        horizon = count + len(keys)
        waiting, cap, t = self._waiting, self._cap, t0 - 1
        for key in keys.tolist():
            t += 1
            if key > horizon:
                if key == math.inf:
                    continue
                if not waiting or waiting[0][0] > count + 1:
                    count += 1
                    if key <= cap:
                        heappush(waiting, (key, t, math.inf))
                    continue
            self._count = self._clear = count
            self._place(key, t)
            count = self._count
        self.t = t
        self._count = self._clear = count


class _LondRule(StreamProcedure):
    """The closed-form LOND rule: H_t is rejected on arrival iff its need is
    at most |R_{t-1}| + 1, and never later.  This is the step-up engine with
    d_t = t, where count(k) is |R_{t-1}| plus H_t if need_t <= k, without its
    lists.  A subclass supplies ``_need`` and ``_needs``, the ones of its
    step-up sibling.
    """

    def _place(self, need, t: int):
        if need <= len(self.rejection_times) + 1:
            self.rejection_times[t] = t

    def _run(self, keys, t0: int):
        """A need above |R| + len(keys), |R| before the call, is never within
        |R_{t-1}| + 1 during the call, so only the other arrivals are
        placed."""
        reach = np.flatnonzero(keys <= len(self.rejection_times) + len(keys))
        for i, key in zip(reach.tolist(), keys[reach].tolist()):
            self._place(key, t0 + i)
        self.t = t0 + len(keys) - 1


class OnlineEBH(_KStarStepUp):
    """Online e-BH: the step-up extension of e-BH to weighted streams.

    Rejects R_t = {i <= t : E_i >= 1/(k*_t * alpha * gamma_i)} where k*_t is
    the largest k in {1..t} such that at least k e-values clear 1/(k alpha
    gamma_j).  Controls SupFDR at level alpha under arbitrary dependence.
    """

    kind = ScoreKind.E_VALUE

    def _need(self, value, t):
        return minimal_k_evalue(value, self.alpha, self.weights.gamma(t))

    def _needs(self, values, t):
        return needs(values, self.kind, self.alpha, self.weights.gammas(t, len(values)))


class ELond(_LondRule):
    """e-LOND: fully online, rejects H_t iff E_t >= 1/(alpha gamma_t (|R_{t-1}| + 1))."""

    kind = ScoreKind.E_VALUE
    _need = OnlineEBH._need
    _needs = OnlineEBH._needs


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

    _needs = OnlineEBH._needs
