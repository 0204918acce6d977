"""Every step-up procedure against the per-t definitional reference.

The reference (oracles.step_up_reference) rescans every active hypothesis at
every k and every t, so it shares nothing with the incremental engine but the
threshold definitions.  Streams mix explicit random deadlines (d_t = t
included), explicit, uniform and geometric weights (zero and underflowing
weights included), scores exactly on the grid 1/(k alpha gamma) or
k alpha gamma, and the extreme scores e = inf / 0 and p = 0 / 1.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from arcfdr.core import RejectionSet, ScoreKind, WeightSequence, minimal_k_evalue
from arcfdr.e_procedures import DeadlineSchedule, ELond, EToad, OnlineEBH
from arcfdr.oracles import step_up_reference
from arcfdr.p_procedures import (
    Lond,
    OnlineBH,
    OnlineBR,
    OnlineStoreyBH,
    RLond,
    ShapeFunction,
    Toad,
)

SHAPES = (ShapeFunction.identity(), ShapeFunction.by(4),
          ShapeFunction.custom({1.0: 0.3, 3.0: 0.5, 7.0: 0.2}))


# q = 1e-30 underflows gamma_t to 0 from t = 12 on; with q = 1e-19,
# gamma_18 = 1e-323 > 0 while alpha * gamma_18 underflows to 0 (alpha <= 0.2)
GEOMETRIC_QS = (0.5, 0.9, 1e-30, 1e-19)


@st.composite
def streams(draw, kind):
    """(alpha, w, weights, deadlines, scores) with n <= 18, where w is the
    WeightSequence and weights lists its gamma_1..gamma_n.  Weights are
    explicit (a few values, zeros included), uniform over K below or above n
    (so the engine's cap on the count binds or not), or geometric down to
    underflow.  Small k and mostly tie scores make equal needs common, so
    that several pending hypotheses can qualify jointly just as one of them
    expires."""
    alpha = draw(st.sampled_from([0.05, 0.2, 0.5]))
    family = draw(st.sampled_from(["explicit", "uniform", "geometric"]))
    n = draw(st.integers(1, 18))
    if family == "explicit":
        w = WeightSequence.explicit(
            [draw(st.sampled_from([0.0, 1.0 / n, 0.5 / n])) for _ in range(n)])
    elif family == "uniform":
        w = WeightSequence.uniform_finite(draw(st.integers(1, n + 3)))
    else:
        q = draw(st.sampled_from(GEOMETRIC_QS))
        if q == 1e-19:
            n = 18
        w = WeightSequence.geometric(q)
    weights = [w.gamma(t) for t in range(1, n + 1)]
    deadlines = [t + draw(st.sampled_from([0, 0, 1, 3, math.inf])) for t in range(1, n + 1)]
    scores = []
    for g in weights:
        k = draw(st.integers(1, 3))
        if kind == "e":
            tie = 1.0 / (k * (alpha * g)) if k * (alpha * g) > 0 else 1.0
            scores.append(draw(st.one_of(
                st.sampled_from([tie, tie, tie, math.inf, 0.0]),
                st.floats(0.0, 1e4, allow_nan=False))))
        else:
            tie = min(1.0, k * (alpha * g))
            scores.append(draw(st.one_of(
                st.sampled_from([tie, tie, tie, 0.0, 1.0]), st.floats(0.0, 1.0))))
    return alpha, w, weights, deadlines, scores


def e_qualifies(scores, weights, alpha):
    def qualifies(t, i, k):
        g = weights[i - 1]
        kag = k * (alpha * g)
        if kag == 0.0:  # an underflowed threshold 1/0 is +inf: only e = inf clears it
            return g > 0.0 and scores[i - 1] == math.inf
        return scores[i - 1] >= 1.0 / kag
    return qualifies


def p_qualifies(scores, weights, alpha, beta_of=lambda i: SHAPES[0]):
    def qualifies(t, i, k):
        g = weights[i - 1]
        return g > 0.0 and scores[i - 1] <= alpha * g * beta_of(i).beta(k)
    return qualifies


def storey_qualifies(scores, w, alpha, lam):
    """Storey's ratio form: P_i <= lambda and P_i / (alpha gamma_i) <= k / pi0_hat_t,
    with pi0_hat_t the running minimum of its formula (nonincreasing in t).
    When alpha gamma_i underflows to 0, only P_i = 0 qualifies."""
    pi0, over = [math.inf], 0.0
    for t, p in enumerate(scores, start=1):
        if p > lam:
            over += w.gamma(t)
        pi0.append(min(pi0[-1], (w.gamma_max + over + w.tail_mass(t)) / (1.0 - lam)))
    del pi0[0]

    def qualifies(t, i, k):
        g, p = w.gamma(i), scores[i - 1]
        if not (g > 0.0 and p <= lam):
            return False
        ag = alpha * g
        return p == 0.0 if ag == 0.0 else p / ag <= k / pi0[t - 1]
    return qualifies


def assert_matches_reference(proc, scores, deadlines, qualifies):
    # each returned set is a snapshot: it is read only after the whole stream
    sets = [proc.step(x) for x in scores]
    ref_times, ref_path = step_up_reference(deadlines, qualifies)
    assert proc.rejection_times == ref_times
    assert proc.kstar_path == ref_path
    for t, got in enumerate(sets, start=1):
        ref = tuple(sorted(i for i, s in ref_times.items() if s <= t))
        assert len(got) == len(ref) == proc.kstar_path[t - 1]  # k*_t = |R_t|
        assert got.indices == ref
        assert [i for i in range(1, len(scores) + 1) if i in got] == list(ref)
        assert got == RejectionSet(ref, t)


@given(streams("e"))
@settings(max_examples=300, deadline=None)
def test_online_ebh_and_etoad(stream):
    alpha, w, weights, deadlines, e = stream
    qualifies = e_qualifies(e, weights, alpha)
    assert_matches_reference(OnlineEBH(w, alpha), e, [math.inf] * len(e), qualifies)
    assert_matches_reference(EToad(w, alpha, DeadlineSchedule.explicit(deadlines)),
                             e, deadlines, qualifies)


@given(streams("p"))
@settings(max_examples=300, deadline=None)
def test_online_bh_br_and_storey(stream):
    alpha, w, weights, deadlines, p = stream
    unbounded = [math.inf] * len(p)
    assert_matches_reference(OnlineBH(w, alpha), p, unbounded,
                             p_qualifies(p, weights, alpha))
    assert_matches_reference(OnlineBR(w, alpha, SHAPES[1]), p, unbounded,
                             p_qualifies(p, weights, alpha, lambda i: SHAPES[1]))

    for lam in (0.5, 0.8):
        assert_matches_reference(OnlineStoreyBH(w, alpha, lam), p, unbounded,
                                 storey_qualifies(p, w, alpha, lam))


@given(streams("p"), st.sampled_from(SHAPES))
@settings(max_examples=300, deadline=None)
def test_toad_single_shape(stream, beta):
    alpha, w, weights, deadlines, p = stream
    assert_matches_reference(Toad(w, alpha, DeadlineSchedule.explicit(deadlines), beta),
                             p, deadlines, p_qualifies(p, weights, alpha, lambda i: beta))


@given(streams("p"))
@settings(max_examples=300, deadline=None)
def test_toad_per_index_shapes(stream):
    alpha, w, weights, deadlines, p = stream
    beta_of = lambda i: SHAPES[i % 3]  # noqa: E731
    assert_matches_reference(Toad(w, alpha, DeadlineSchedule.explicit(deadlines), beta_of),
                             p, deadlines, p_qualifies(p, weights, alpha, beta_of))


@given(streams("e"), streams("p"))
@settings(max_examples=300, deadline=None)
def test_lond_family_is_step_up_with_immediate_deadlines(e_stream, p_stream):
    alpha, w, weights, _, e = e_stream
    immediate = list(range(1, len(e) + 1))
    assert_matches_reference(ELond(w, alpha), e, immediate, e_qualifies(e, weights, alpha))

    alpha, w, weights, _, p = p_stream
    immediate = list(range(1, len(p) + 1))
    assert_matches_reference(Lond(w, alpha), p, immediate, p_qualifies(p, weights, alpha))
    for beta in SHAPES:
        assert_matches_reference(RLond(w, alpha, beta), p, immediate,
                                 p_qualifies(p, weights, alpha, lambda i: beta))


def test_joint_rejection_at_immediate_deadline():
    # H_1 and H_2 each need k = 2 and both expire at once (d_t = t for H_2):
    # they qualify jointly at t = 2, so both are rejected before H_2 freezes
    alpha, g = 0.2, 0.25
    w = WeightSequence.explicit([g] * 4)
    e = [1.0 / (2 * (alpha * g))] * 2
    toad = EToad(w, alpha, DeadlineSchedule.explicit([2, 2]))
    assert toad.step(e[0]).indices == ()
    assert toad.step(e[1]).indices == (1, 2)
    assert toad.kstar_path == [0, 2]


def test_storey_ratio_tie_at_three():
    # three ratios exactly at 3 / pi0_hat_3, where 3 * (1 / pi0_hat_3) rounds
    # below 3 / pi0_hat_3: the tie counts, so all three go at t = 3
    K, alpha, lam = 10, 0.1, 0.5  # no P_t > lambda: pi0_hat_t is the formula
    w = WeightSequence.uniform_finite(K)
    ag = alpha * w.gamma(1)
    pi0 = (w.gamma_max + w.tail_mass(3)) / (1.0 - lam)
    target = 3 / pi0
    assert 3 * (1.0 / pi0) < target
    x = target * ag
    tie = next(y for y in (x, math.nextafter(x, 0.0), math.nextafter(x, 1.0))
               if y / ag == target)
    proc = OnlineStoreyBH(w, alpha, lam).run([tie] * 3)
    assert proc.rejection_times == {1: 3, 2: 3, 3: 3}
    assert proc.kstar_path == [0, 0, 3]


def e_with_need(k, alpha, g):
    """An e-value whose need is exactly k at weight g."""
    e = 1.0 / (k * (alpha * g))
    assert minimal_k_evalue(e, alpha, g) == k
    return e


def test_waiting_needs_drain_once_the_count_reaches_them():
    # three needs of 3: the first two wait above the count N = 1, 2 and are
    # drained at t = 3, where N = 3 admits all three at once
    alpha, g = 0.2, 0.25
    proc = OnlineEBH(WeightSequence.explicit([g] * 4), alpha)
    e = e_with_need(3, alpha, g)
    proc.step(e)
    proc.step(e)
    assert sorted(proc._waiting) == [(3, 1, math.inf), (3, 2, math.inf)]
    assert proc._pending_needs == [] and proc.k_star == 0
    assert proc.step(e).indices == (1, 2, 3)
    assert proc._waiting == [] and proc._count == 3


def test_waiting_need_expires_before_it_is_drained():
    # H_1 (need 2, d_1 = 2) is within reach when pushed, but H_2 (e = 0) has
    # no need and N stalls at 1, so H_1 expires at t = 3 while still
    # waiting; its entry is dropped when H_3 and H_4 drain at t = 4
    alpha, g = 0.2, 0.25
    e = e_with_need(2, alpha, g)
    proc = EToad(WeightSequence.explicit([g] * 4), alpha,
                 DeadlineSchedule.explicit([2, math.inf, math.inf, math.inf]))
    proc.step(e)
    assert proc._count == 1 and proc._waiting == [(2, 1, 2)]
    proc.step(0.0)
    assert proc._count == 1 and proc._waiting == [(2, 1, 2)]
    proc.step(e)
    assert proc._count == 1 and sorted(proc._waiting) == [(2, 1, 2), (2, 3, math.inf)]
    assert proc.step(e).indices == (3, 4)
    assert proc._count == 2 and proc._waiting == [] and proc._pending == []
    assert 1 not in proc.rejection_times


def test_a_need_at_its_reach_is_stored_and_rejected_at_its_deadline():
    # H_1's need of 3 is exactly N_1 + d_1 - 1 = 1 + 3 - 1: it waits, and
    # N reaches 3 at t = d_1, where H_1..H_3 qualify together.  A need of 4
    # at the same deadline is beyond reach and is not stored
    alpha, g = 0.2, 0.125
    e = e_with_need(3, alpha, g)
    w = WeightSequence.explicit([g] * 4)
    proc = EToad(w, alpha, DeadlineSchedule.explicit([3, math.inf, math.inf]))
    proc.step(e)
    assert proc._waiting == [(3, 1, 3)]
    proc.step(e)
    assert proc.step(e).indices == (1, 2, 3)
    assert proc.rejection_times == {1: 3, 2: 3, 3: 3}
    beyond = EToad(w, alpha, DeadlineSchedule.explicit([3, math.inf, math.inf]))
    beyond.step(e_with_need(4, alpha, g))
    assert beyond._count == 1 and beyond._waiting == []


def test_rejection_on_arrival_reopens_the_search():
    # after t = 3, k* = 1 and count(3) = 2 (needs 1, 3; need 5 waits): no k in
    # (1, 3] qualifies.  H_4's need of 1 is rejected on arrival and lifts
    # count(3) to 3, so H_2 goes at t = 4 too
    alpha, g = 0.2, 0.125
    proc = OnlineEBH(WeightSequence.explicit([g] * 8), alpha)
    proc.run([e_with_need(k, alpha, g) for k in (1, 3, 5, 1)])
    assert proc.rejection_times == {1: 1, 2: 4, 4: 4}
    assert proc.kstar_path == [1, 1, 1, 3]


def test_need_above_the_cap_only_counts_until_its_deadline():
    # uniform weights over K = 2 cap the count at 2, so H_1's need of 3 is
    # never stored: it counts in N until d_1 = 2 and then leaves
    alpha, K = 0.2, 2
    w = WeightSequence.uniform_finite(K)
    proc = EToad(w, alpha, DeadlineSchedule.explicit([2, math.inf, math.inf]))
    proc.step(e_with_need(3, alpha, w.gamma(1)))
    assert proc._count == 1 and proc._waiting == []
    assert proc._pending_needs == [] and proc.k_star == 0
    proc.step(e_with_need(2, alpha, w.gamma(2)))
    assert proc._count == 2 and proc._pending == [2]
    proc.step(math.inf)  # gamma_3 = 0: never counted
    assert proc._count == 1 and proc._expiry == [] and proc.rejection_times == {}


def test_need_at_the_cap_qualifies():
    alpha, K = 0.05, 3
    w = WeightSequence.uniform_finite(K)
    e = e_with_need(K, alpha, w.gamma(1))
    proc = OnlineEBH(w, alpha).run([e] * K)
    assert proc.rejection_times == {1: 3, 2: 3, 3: 3}


def test_sorted_lists_hold_only_needs_within_the_count():
    # a long uniform-weight stream: needs above the count N wait in the heap
    # or, above the cap K = n, are not stored, so the lists stay short
    n, alpha = 20000, 0.05
    rng = np.random.default_rng(3)
    z = rng.standard_normal(n) + 3.0 * (rng.random(n) < 0.05)
    e = np.exp(3.0 * z - 4.5)
    proc = OnlineEBH(WeightSequence.uniform_finite(n), alpha)
    for chunk in np.split(e, 4):
        proc.run(chunk)
        N = proc._count
        assert proc.k_star <= N
        assert all(need <= N for need in proc._pending_needs)
        assert all(need > N for need, _, _ in proc._waiting)
        if proc.t < n:
            assert proc._waiting
    # most e-values need more than K = n rejections and were never stored
    assert proc.k_star > 0 and proc.k_star + len(proc._pending_needs) < N // 10


def peak_waiting(cls):
    """cls, whose instances record the largest waiting heap after any step."""
    class Probe(cls):
        peak = 0

        def _place(self, need, t):
            super()._place(need, t)
            self.peak = max(self.peak, len(self._waiting))
    return Probe


@pytest.mark.parametrize("make", [
    lambda n, dl: peak_waiting(EToad)(WeightSequence.geometric(0.9999), 0.05, dl),
    lambda n, dl: peak_waiting(Toad)(WeightSequence.uniform_finite(n), 0.05, dl,
                                     ShapeFunction.identity()),
], ids=["etoad-geometric", "toad-uniform"])
def test_a_windowed_stream_keeps_a_short_waiting_heap(make):
    # d_t = t + 50: a need beyond N_t + 50 can never qualify and is not
    # stored, and an expired waiting entry is dropped at the drain, so the
    # heap does not grow with the stream (it held one entry per hypothesis
    # when only the support capped the needs)
    n = 20000
    rng = np.random.default_rng(3)
    z = rng.standard_normal(n) + 3.0 * (rng.random(n) < 0.05)
    proc = make(n, DeadlineSchedule(lambda t: t + 50))
    scores = np.exp(3.0 * z - 4.5) if proc.kind is ScoreKind.E_VALUE else ndtr(-z)
    for chunk in np.split(scores, n // 500):
        proc.run(chunk)
    assert proc.t == n and proc.k_star > 0
    assert proc.peak <= 150
