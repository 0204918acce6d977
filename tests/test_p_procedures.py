import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arcfdr.core import (
    ConfigError,
    ScoreKind,
    WeightSequence,
    harmonic_number,
    is_self_consistent,
)
from arcfdr.e_procedures import DeadlineSchedule
from arcfdr.oracles import lord_levels, offline_bh, offline_storey_bh, saffron_levels
from arcfdr.p_procedures import (
    Lond,
    Lord,
    OnlineBH,
    OnlineBR,
    OnlineStoreyBH,
    RLond,
    Saffron,
    ShapeFunction,
    Toad,
)


def paths(proc, scores):
    return [set(proc.step(s).indices) for s in scores]


class TestShapeFunction:
    def test_identity(self):
        b = ShapeFunction.identity()
        assert b.beta(3) == 3.0 and b.beta(0) == 0.0

    def test_by(self):
        b = ShapeFunction.by(3)
        ell = harmonic_number(3)
        assert b.beta(2) == pytest.approx(2 / ell)
        assert b.beta(5) == pytest.approx(3 / ell)  # plateau beyond K
        assert b.beta_sup == pytest.approx(3 / ell)

    def test_custom(self):
        b = ShapeFunction.custom({1.0: 0.5, 4.0: 0.5})
        assert b.beta(1) == 0.5
        assert b.beta(3) == 0.5
        assert b.beta(4) == 2.5

    @pytest.mark.parametrize("K", [2.5, 4.0, np.float64(3.0)])
    def test_by_refuses_a_non_integer_horizon(self, K):
        # int() would read 2.5 as 2 without a word
        with pytest.raises(ConfigError, match=re.escape(f"K={K!r} must be an integer")):
            ShapeFunction.by(K)

    def test_by_takes_a_numpy_integer(self):
        b = ShapeFunction.by(np.int64(3))
        assert b.beta(5) == ShapeFunction.by(3).beta(5) == 3 / harmonic_number(3)

    def test_custom_mass_over_one(self):
        with pytest.raises(ConfigError):
            ShapeFunction.custom({1.0: 0.7, 2.0: 0.7})

    def test_bad_shapes(self):
        with pytest.raises(ConfigError, match="K=0 must be >= 1"):
            ShapeFunction.by(0)
        for measure in ({0.0: 0.5}, {1.0: -0.1}):
            with pytest.raises(ConfigError, match="positive support and nonnegative mass"):
                ShapeFunction.custom(measure)

    @pytest.mark.parametrize("measure", [{math.inf: 0.5}, {math.nan: 0.5}, {1.0: math.nan},
                                         {1.0: math.inf}, {1.0: 0.3, 2.0: math.nan}])
    def test_custom_measure_not_finite(self, measure):
        # {inf: 0.5} left beta_sup inf and minimal_k doubling its bracket
        # forever; {1.0: nan} left beta_sup nan and a procedure that never
        # rejects.  minimal_k is not called: it need not return on such a shape
        with pytest.raises(ConfigError, match="both finite"):
            ShapeFunction.custom(measure)
        with pytest.raises(ConfigError, match="unknown shape variant 'bh'"):
            ShapeFunction("bh")

    def test_identity_has_no_plateau(self):
        assert ShapeFunction.identity().beta_sup == math.inf

    def test_minimal_k_matches_scan(self):
        b = ShapeFunction.by(50)
        for p in (0.0001, 0.003, 0.02, 0.5):
            got = b.minimal_k(p, 0.1, 0.05)
            want = math.inf
            for k in range(1, 200):
                if p <= 0.1 * 0.05 * b.beta(k):
                    want = k
                    break
            assert got == want


class TestOnlineBH:
    def test_hand_example(self):
        w = WeightSequence.uniform_finite(3)
        proc = OnlineBH(w, 0.3)
        seen = paths(proc, [0.05, 0.5, 0.09])
        assert seen[-1] == {1, 3} and proc.k_star == 2

    def test_all_ones_never_reject(self):
        proc = OnlineBH(WeightSequence.geometric(0.9), 0.5)
        assert paths(proc, [1.0] * 20) == [set()] * 20

    def test_matches_offline_bh(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            K = int(rng.integers(1, 30))
            p = rng.random(K)
            w = WeightSequence.uniform_finite(K)
            on = set(OnlineBH(w, 0.2).run(p).rejection_set().indices)
            assert on == offline_bh(p, 0.2)

    def test_self_consistent_and_maximal(self):
        rng = np.random.default_rng(4)
        w = WeightSequence.uniform_finite(8)
        for _ in range(20):
            p = list(rng.random(8) * 0.4)
            proc = OnlineBH(w, 0.3).run(p)
            got = set(proc.rejection_set().indices)
            assert is_self_consistent(got, p, w, 0.3, kind=ScoreKind.P_VALUE)
            best = 0
            for r in range(1, 9):
                for comb in itertools.combinations(range(1, 9), r):
                    if is_self_consistent(comb, p, w, 0.3, kind=ScoreKind.P_VALUE):
                        best = max(best, len(comb))
            assert len(got) == best


class TestLond:
    def test_base_case(self):
        w = WeightSequence.explicit([1 / 3, 1 / 3])
        proc = Lond(w, 0.3)
        assert set(proc.step(0.3 * (1 / 3)).indices) == {1}

    def test_hand_example(self):
        w = WeightSequence.explicit([1 / 3, 1 / 3])
        proc = Lond(w, 0.3)
        seen = paths(proc, [0.05, 0.21])
        assert seen == [{1}, {1}]

    def test_dominated_by_obh(self):
        rng = np.random.default_rng(6)
        w = WeightSequence.geometric(0.95)
        p = rng.random(300) * 0.3
        lond, obh = Lond(w, 0.1), OnlineBH(w, 0.1)
        for x in p:
            assert set(lond.step(float(x)).indices) <= set(obh.step(float(x)).indices)


def test_lond_and_obh_with_underflowing_alpha_gamma():
    # geometric(0.5) weights are subnormal past t ~ 1022, alpha * gamma_t is 0
    # from t = 1071 and gamma_t is 0 from t = 1075: p = 0 is rejected while
    # gamma_t > 0, even where alpha * gamma_t is 0
    w = WeightSequence.geometric(0.5)
    p = [0.0 if t in (1060, 1071, 1074, 1078) else 0.3 for t in range(1, 1081)]
    for proc in (Lond(w, 0.05), OnlineBH(w, 0.05)):
        assert set(proc.run(p).rejection_times) == {1060, 1071, 1074}


class TestRLond:
    def test_identity_is_lond(self):
        rng = np.random.default_rng(8)
        w = WeightSequence.geometric(0.9)
        p = rng.random(150) * 0.2
        a = RLond(w, 0.1, ShapeFunction.identity())
        b = Lond(w, 0.1)
        for x in p:
            assert set(a.step(float(x)).indices) == set(b.step(float(x)).indices)

    def test_by_shrinks_thresholds(self):
        w = WeightSequence.uniform_finite(3)
        # first threshold: alpha gamma beta(1) = 0.3 * (1/3) * (6/11)
        lvl = (0.3 * (1 / 3)) * (1 / harmonic_number(3))
        assert RLond(w, 0.3, ShapeFunction.by(3)).step(lvl).indices == (1,)
        above = math.nextafter(lvl, 1.0)
        assert RLond(w, 0.3, ShapeFunction.by(3)).step(above).indices == ()

    def test_subset_of_obr(self):
        rng = np.random.default_rng(13)
        w = WeightSequence.geometric(0.9)
        beta = ShapeFunction.by(100)
        p = rng.random(200) * 0.2
        a, b = RLond(w, 0.2, beta), OnlineBR(w, 0.2, beta)
        for x in p:
            assert set(a.step(float(x)).indices) <= set(b.step(float(x)).indices)


class TestOnlineBR:
    def test_identity_is_obh(self):
        rng = np.random.default_rng(14)
        w = WeightSequence.geometric(0.9)
        p = rng.random(150)
        a = OnlineBR(w, 0.2, ShapeFunction.identity())
        b = OnlineBH(w, 0.2)
        for x in p:
            assert set(a.step(float(x)).indices) == set(b.step(float(x)).indices)

    def test_by_at_inflated_level_matches_bh(self):
        # BY(K) at level alpha * ell_K rejects the same as online BH at alpha
        rng = np.random.default_rng(15)
        K = 20
        ell = harmonic_number(K)
        w = WeightSequence.uniform_finite(K)
        for _ in range(50):
            p = rng.random(K) * 0.5
            br = OnlineBR(w, min(1.0, 0.04 * ell), ShapeFunction.by(K)).run(p)
            bh = OnlineBH(w, 0.04).run(p)
            assert set(br.rejection_set().indices) == set(bh.rejection_set().indices)


class TestToad:
    def test_unbounded_identity_is_obh(self):
        rng = np.random.default_rng(16)
        w = WeightSequence.geometric(0.9)
        p = rng.random(100)
        a = Toad(w, 0.2, DeadlineSchedule.unbounded(), ShapeFunction.identity())
        b = OnlineBH(w, 0.2)
        for x in p:
            assert set(a.step(float(x)).indices) == set(b.step(float(x)).indices)

    def test_immediate_is_rlond(self):
        rng = np.random.default_rng(17)
        w = WeightSequence.geometric(0.9)
        beta = ShapeFunction.by(50)
        p = rng.random(100) * 0.3
        a = Toad(w, 0.2, DeadlineSchedule.immediate(), beta)
        b = RLond(w, 0.2, beta)
        for x in p:
            assert set(a.step(float(x)).indices) == set(b.step(float(x)).indices)

    def test_frozen_decision(self):
        w = WeightSequence.uniform_finite(3)
        alpha = 0.3
        gamma = 1 / 3
        p1 = 2 * (alpha * gamma)   # needs k = 2
        tiny = alpha * gamma / 2.0  # needs k = 1
        toad = Toad(w, alpha, DeadlineSchedule.explicit([1, math.inf, math.inf]),
                    ShapeFunction.identity())
        assert set(toad.step(p1).indices) == set()
        assert set(toad.step(tiny).indices) == {2}
        assert set(toad.step(tiny).indices) == {2, 3}  # H_1 stays frozen
        bh = OnlineBH(w, alpha).run([p1, tiny, tiny])
        assert set(bh.rejection_set().indices) == {1, 2, 3}


class TestOnlineStoreyBH:
    def test_lambda_validation(self):
        w = WeightSequence.geometric(0.9)
        with pytest.raises(ConfigError):
            OnlineStoreyBH(w, 0.1, lam=0.05)
        with pytest.raises(ConfigError):
            OnlineStoreyBH(w, 0.1, lam=1.0)

    def test_pi0_hand_example(self):
        w = WeightSequence.geometric(0.5)
        proc = OnlineStoreyBH(w, 0.1, lam=0.5)
        proc.step(0.9)
        assert proc.pi0_hat == pytest.approx(3.0)

    def test_pi0_nonincreasing(self):
        rng = np.random.default_rng(19)
        proc = OnlineStoreyBH(WeightSequence.geometric(0.95), 0.05, 0.5)
        prev = math.inf
        for x in rng.random(300):
            proc.step(float(x))
            assert proc.pi0_hat <= prev + 1e-15
            prev = proc.pi0_hat

    def test_pi0_exactly_nonincreasing(self):
        # the masses over and under lambda are rounded separately, so the
        # formula alone rises by an ulp on some steps
        rng = np.random.default_rng(29)
        proc = OnlineStoreyBH(WeightSequence.uniform_finite(300), 0.05, 0.5)
        prev = math.inf
        for x in rng.random(300):
            proc.step(float(x))
            assert proc.pi0_hat <= prev
            prev = proc.pi0_hat

    def test_matches_offline_storey(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            K = int(rng.integers(1, 30))
            p = rng.random(K)
            w = WeightSequence.uniform_finite(K)
            on = set(OnlineStoreyBH(w, 0.2, 0.5).run(p).rejection_set().indices)
            assert on == offline_storey_bh(p, 0.2, 0.5)

    def test_nested(self):
        rng = np.random.default_rng(21)
        proc = OnlineStoreyBH(WeightSequence.geometric(0.95), 0.1, 0.5)
        prev = set()
        for x in rng.random(300):
            cur = set(proc.step(float(x)).indices)
            assert prev <= cur
            prev = cur

    def test_all_zero_weights(self):
        # pi0_hat is 0; no hypothesis carries weight, so none is a candidate
        proc = OnlineStoreyBH(WeightSequence.explicit([0.0, 0.0]), 0.05, 0.5)
        assert proc.run([0.0, 0.9]).rejection_set().indices == ()
        assert proc.kstar_path == [0, 0]

    def test_underflowing_alpha_gamma(self):
        # alpha * gamma_t is 0 from t = 1071 while gamma_t > 0 up to t = 1074:
        # as in minimal_k_pvalue, the ratio key is 0 for p = 0 and inf otherwise
        w = WeightSequence.geometric(0.5)
        p = [0.0 if t in (1060, 1071, 1074, 1078) else 0.3 for t in range(1, 1081)]
        assert set(OnlineStoreyBH(w, 0.05).run(p).rejection_times) == {1060, 1071, 1074}
        proc = OnlineStoreyBH(w, 0.05).run([0.01] * 1080)
        assert proc.rejection_times == {1: 1, 2: 2, 3: 3, 4: 4}

    def test_all_above_lambda_no_boost(self):
        # pi0_hat >= 1 keeps Storey thresholds at or below plain BH's
        rng = np.random.default_rng(22)
        w = WeightSequence.geometric(0.9)
        p = 0.5 + 0.5 * rng.random(100)
        sbh = OnlineStoreyBH(w, 0.1, 0.4)
        bh = OnlineBH(w, 0.1)
        for x in p:
            assert set(sbh.step(float(x)).indices) <= set(bh.step(float(x)).indices)


class TestLord:
    def test_w0_validation(self):
        w = WeightSequence.geometric(0.9)
        with pytest.raises(ConfigError):
            Lord(w, 0.05, w0=0.06)
        with pytest.raises(ConfigError):
            Lord(w, 0.05, w0=0.0)

    def test_first_level(self):
        w = WeightSequence.geometric(0.9)
        proc = Lord(w, 0.05)
        proc.step(0.5)
        assert proc.levels[0] == pytest.approx(0.05 / 2.0 * w.gamma(1))

    def test_condition_every_step(self):
        rng = np.random.default_rng(23)
        proc = Lord(WeightSequence.geometric(0.99), 0.05)
        for x in rng.random(500) * rng.choice([1.0, 0.01], 500):
            proc.step(float(min(x, 1.0)))
            assert proc.condition_slack() >= -1e-12

    def test_geometric_fast_path_matches_generic(self):
        rng = np.random.default_rng(24)
        p = rng.random(300) * rng.choice([1.0, 0.002], 300)
        fast = Lord(WeightSequence.geometric(0.97), 0.05)
        # explicit weights disable the O(1) recursion; same gamma values
        gammas = [0.97 ** (t - 1) * (1.0 - 0.97) for t in range(1, 301)]
        slow = Lord(WeightSequence.explicit(gammas), 0.05)
        for x in p:
            a = set(fast.step(float(min(x, 1.0))).indices)
            b = set(slow.step(float(min(x, 1.0))).indices)
            assert a == b
        np.testing.assert_allclose(fast.levels, slow.levels, rtol=1e-12, atol=1e-15)


class TestSaffron:
    def test_condition_every_step(self):
        rng = np.random.default_rng(25)
        proc = Saffron(WeightSequence.geometric(0.99), 0.05, lam=0.5)
        for x in rng.random(500) * rng.choice([1.0, 0.01], 500):
            proc.step(float(min(x, 1.0)))
            assert proc.condition_slack() >= -1e-12

    def test_all_above_lambda_only_initial_wealth(self):
        # no candidates: every level is w0 * gamma_{t - 0} (capped at lambda)
        w = WeightSequence.geometric(0.9)
        proc = Saffron(w, 0.1, lam=0.5)
        for t, x in enumerate([0.9, 0.8, 0.7, 0.95], start=1):
            proc.step(x)
            assert proc.levels[t - 1] == pytest.approx(
                min(0.5, proc.w0 * w.gamma(t)))

    def test_candidate_discount_by_hand(self):
        # explicit weights take the generic level; w0 = 0.125 and the first-
        # rejection share is 0.25 - 0.125.  tau_1 = 1, then a candidate at t=2
        # that is not rejected, so C_{1,3} = C_{1,4} = 1 and C_{0,t} = 2 from t=3
        w = WeightSequence.explicit([0.4, 0.3, 0.2, 0.1])
        proc = Saffron(w, 0.5, lam=0.5)
        for x in (0.01, 0.3, 0.9, 0.9):
            proc.step(x)
        assert proc.rejection_times == {1: 1}
        # t=2: 0.125 * gamma_1 + 0.125 * gamma_{2-1-0}; t=3: gamma_1 + gamma_{3-1-1};
        # t=4: gamma_2 + gamma_{4-1-1}
        assert proc.levels == pytest.approx([0.05, 0.1, 0.1, 0.075], rel=1e-12)

    def test_geometric_fast_path_matches_generic(self):
        rng = np.random.default_rng(26)
        p = rng.random(300) * rng.choice([1.0, 0.002], 300)
        fast = Saffron(WeightSequence.geometric(0.97), 0.05, lam=0.5)
        gammas = [0.97 ** (t - 1) * (1.0 - 0.97) for t in range(1, 301)]
        slow = Saffron(WeightSequence.explicit(gammas), 0.05, lam=0.5)
        for x in p:
            a = set(fast.step(float(min(x, 1.0))).indices)
            b = set(slow.step(float(min(x, 1.0))).indices)
            assert a == b
        np.testing.assert_allclose(fast.levels, slow.levels, rtol=1e-12, atol=1e-15)

    def test_lambda_validation(self):
        w = WeightSequence.geometric(0.9)
        with pytest.raises(ConfigError):
            Saffron(w, 0.1, lam=1.0)

    def test_w0_validation(self):
        # the initial wealth is at most (1 - lambda) * alpha = 0.05
        w = WeightSequence.geometric(0.9)
        assert Saffron(w, 0.1, lam=0.5, w0=0.05).w0 == 0.05
        with pytest.raises(ConfigError, match="w0=0.06 outside"):
            Saffron(w, 0.1, lam=0.5, w0=0.06)


@st.composite
def alpha_spending_streams(draw):
    """(alpha, weights, p) with n <= 30.  Geometric weights take the O(1)
    recursions of LORD and SAFFRON, explicit ones (zeros included) the
    generic rescans.  Many small p-values make several rejections common,
    and p = lambda tests the candidate boundary."""
    alpha = draw(st.sampled_from([0.05, 0.2, 0.5]))
    n = draw(st.integers(1, 30))
    if draw(st.booleans()):
        weights = WeightSequence.geometric(draw(st.sampled_from([0.5, 0.9, 0.99])))
    else:
        weights = WeightSequence.explicit(
            [draw(st.sampled_from([0.0, 1.0 / n, 0.5 / n, 0.1 / n])) for _ in range(n)])
    p = draw(st.lists(st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 0.05),
                                st.sampled_from([0.0, 0.25, 0.5, 0.8, 1.0])),
                      min_size=n, max_size=n))
    return alpha, weights, p


def assert_matches_levels(proc, p, ref_levels, ref_times):
    """Levels within rounding of the formula, and the same rejections, at
    every t.  The recursions round differently from the formula, so a
    p-value within that rounding of its level could go either way."""
    assume(not any(0.0 < abs(x - lv) <= 1e-9 * lv for x, lv in zip(p, ref_levels)))
    for t, x in enumerate(p, start=1):
        proc.step(x)
        assert math.isclose(proc.levels[t - 1], ref_levels[t - 1], rel_tol=1e-9)
        assert proc.rejection_times == {i: s for i, s in ref_times.items() if s <= t}


@given(alpha_spending_streams(), st.sampled_from([None, 0.1, 1.0]))
@settings(max_examples=300, deadline=None)
def test_lord_matches_its_formula(stream, w0_share):
    alpha, w, p = stream
    w0 = None if w0_share is None else w0_share * alpha
    assert_matches_levels(Lord(w, alpha, w0), p, *lord_levels(p, w, alpha, w0))


@given(alpha_spending_streams(), st.sampled_from([0.25, 0.5, 0.8]),
       st.sampled_from([None, 0.1, 1.0]))
@settings(max_examples=300, deadline=None)
def test_saffron_matches_its_formula(stream, lam, w0_share):
    alpha, w, p = stream
    w0 = None if w0_share is None else w0_share * (1.0 - lam) * alpha
    assert_matches_levels(Saffron(w, alpha, lam, w0), p,
                          *saffron_levels(p, w, alpha, lam, w0))


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40),
       st.sampled_from([0.05, 0.2, 0.5]))
@settings(max_examples=100)
def test_arc_nestedness_property(pvals, alpha):
    w = WeightSequence.geometric(0.9)
    for proc in (OnlineBH(w, alpha), OnlineStoreyBH(w, alpha, 0.5),
                 OnlineBR(w, alpha, ShapeFunction.by(40)),
                 Lond(w, alpha), Lord(w, alpha), Saffron(w, alpha)):
        prev = set()
        for x in pvals:
            cur = set(proc.step(x).indices)
            assert prev <= cur
            prev = cur
