"""Every step-up procedure against the per-t definitional reference.

The reference (oracles.step_up_reference) rescans every active hypothesis at
every k and every t, so it shares nothing with the incremental engine but the
threshold definitions.  Streams mix explicit random deadlines (d_t = t
included), zero weights, scores exactly on the grid 1/(k alpha gamma) or
k alpha gamma, and the extreme scores e = inf / 0 and p = 0 / 1.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from arcfdr.core import WeightSequence
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


@st.composite
def streams(draw, kind):
    """(alpha, weights, deadlines, scores) with n <= 18.  Few weight values,
    small k and mostly tie scores make equal needs common, so that several
    pending hypotheses can qualify jointly just as one of them expires."""
    n = draw(st.integers(1, 18))
    alpha = draw(st.sampled_from([0.05, 0.2, 0.5]))
    weights = [draw(st.sampled_from([0.0, 1.0 / n, 0.5 / n])) for _ in range(n)]
    deadlines = [t + draw(st.sampled_from([0, 0, 1, 3, math.inf])) for t in range(1, n + 1)]
    scores = []
    for g in weights:
        k = draw(st.integers(1, 3))
        if kind == "e":
            tie = 1.0 / (k * (alpha * g)) if g > 0 else 1.0
            scores.append(draw(st.one_of(
                st.sampled_from([tie, tie, tie, math.inf, 0.0]),
                st.floats(0.0, 1e4, allow_nan=False))))
        else:
            tie = min(1.0, k * (alpha * g))
            scores.append(draw(st.one_of(
                st.sampled_from([tie, tie, tie, 0.0, 1.0]), st.floats(0.0, 1.0))))
    return alpha, weights, deadlines, scores


def e_qualifies(scores, weights, alpha):
    def qualifies(t, i, k):
        g = weights[i - 1]
        return g > 0.0 and scores[i - 1] >= 1.0 / (k * (alpha * g))
    return qualifies


def p_qualifies(scores, weights, alpha, beta_of=lambda i: SHAPES[0]):
    def qualifies(t, i, k):
        g = weights[i - 1]
        return g > 0.0 and scores[i - 1] <= alpha * g * beta_of(i).beta(k)
    return qualifies


def storey_qualifies(scores, weights, alpha, lam):
    """Storey's ratio form: P_i <= lambda and P_i / (alpha gamma_i) <= k / pi0_hat_t,
    with pi0_hat_t the running minimum of its formula (nonincreasing in t)."""
    w = WeightSequence.explicit(weights)
    pi0, over = [math.inf], 0.0
    for t, p in enumerate(scores, start=1):
        if p > lam:
            over += weights[t - 1]
        pi0.append(min(pi0[-1], (w.gamma_max + over + w.tail_mass(t)) / (1.0 - lam)))
    del pi0[0]

    def qualifies(t, i, k):
        g, p = weights[i - 1], scores[i - 1]
        return g > 0.0 and p <= lam and p / (alpha * g) <= k / pi0[t - 1]
    return qualifies


def assert_matches_reference(proc, scores, deadlines, qualifies):
    sets = [proc.step(x).indices for x in scores]
    ref_times, ref_path = step_up_reference(deadlines, qualifies)
    assert proc.rejection_times == ref_times
    assert proc.kstar_path == ref_path
    for t, got in enumerate(sets, start=1):
        assert got == tuple(sorted(i for i, s in ref_times.items() if s <= t))
        assert len(got) == proc.kstar_path[t - 1]  # k*_t = |R_t|


@given(streams("e"))
@settings(max_examples=300, deadline=None)
def test_online_ebh_and_etoad(stream):
    alpha, weights, deadlines, e = stream
    w = WeightSequence.explicit(weights)
    qualifies = e_qualifies(e, weights, alpha)
    assert_matches_reference(OnlineEBH(w, alpha), e, [math.inf] * len(e), qualifies)
    assert_matches_reference(EToad(w, alpha, DeadlineSchedule.explicit(deadlines)),
                             e, deadlines, qualifies)


@given(streams("p"))
@settings(max_examples=300, deadline=None)
def test_online_bh_br_and_storey(stream):
    alpha, weights, deadlines, p = stream
    w = WeightSequence.explicit(weights)
    unbounded = [math.inf] * len(p)
    assert_matches_reference(OnlineBH(w, alpha), p, unbounded,
                             p_qualifies(p, weights, alpha))
    assert_matches_reference(OnlineBR(w, alpha, SHAPES[1]), p, unbounded,
                             p_qualifies(p, weights, alpha, lambda i: SHAPES[1]))

    for lam in (0.5, 0.8):
        assert_matches_reference(OnlineStoreyBH(w, alpha, lam), p, unbounded,
                                 storey_qualifies(p, weights, alpha, lam))


@given(streams("p"), st.sampled_from(SHAPES))
@settings(max_examples=300, deadline=None)
def test_toad_single_shape(stream, beta):
    alpha, weights, deadlines, p = stream
    w = WeightSequence.explicit(weights)
    assert_matches_reference(Toad(w, alpha, DeadlineSchedule.explicit(deadlines), beta),
                             p, deadlines, p_qualifies(p, weights, alpha, lambda i: beta))


@given(streams("p"))
@settings(max_examples=300, deadline=None)
def test_toad_per_index_shapes(stream):
    alpha, weights, deadlines, p = stream
    w = WeightSequence.explicit(weights)
    beta_of = lambda i: SHAPES[i % 3]  # noqa: E731
    assert_matches_reference(Toad(w, alpha, DeadlineSchedule.explicit(deadlines), beta_of),
                             p, deadlines, p_qualifies(p, weights, alpha, beta_of))


@given(streams("e"), streams("p"))
@settings(max_examples=300, deadline=None)
def test_lond_family_is_step_up_with_immediate_deadlines(e_stream, p_stream):
    alpha, weights, _, e = e_stream
    w, immediate = WeightSequence.explicit(weights), list(range(1, len(e) + 1))
    assert_matches_reference(ELond(w, alpha), e, immediate, e_qualifies(e, weights, alpha))

    alpha, weights, _, p = p_stream
    w, immediate = WeightSequence.explicit(weights), list(range(1, len(p) + 1))
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
