import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from arcfdr.boosting import (
    B_MAX,
    BoostCurve,
    BoostTable,
    GaussianLRModel,
    NonincreasingTransform,
    SolverError,
    TruncationSpec,
    TruncationVariant,
    check_transform_condition,
    expected_truncated_value,
    solve_boost_factor,
    solve_boost_factors,
    truncate,
)
from arcfdr.core import ConfigError, InputError
from arcfdr.oracles import expected_truncated_reference
from arcfdr.p_procedures import ShapeFunction

ALPHA, GAMMA = 0.05, 0.01
AG = ALPHA * GAMMA  # grid values 2000 / k


def spec(variant, **kw):
    return TruncationSpec(variant, ALPHA, GAMMA, **kw)


class TestTruncate:
    def test_full_examples(self):
        full = spec(TruncationVariant.FULL)
        assert truncate(full, 1999.0) == pytest.approx(1000.0)
        assert truncate(full, math.inf) == pytest.approx(2000.0)
        assert truncate(full, 0.0) == 0.0

    def test_local_cap(self):
        local = spec(TruncationVariant.LOCAL, lag_kstar=2)
        assert truncate(local, math.inf) == pytest.approx(2000.0 / 3.0)
        assert truncate(local, 2500.0) == pytest.approx(2000.0 / 3.0)
        assert truncate(local, 100.0) == pytest.approx(100.0)

    def test_plus_vs_minus_below_cutoff(self):
        below = 2000.0 / 11.0  # just under the s=10 grid floor 200
        plus = spec(TruncationVariant.PLUS, s=10)
        minus = spec(TruncationVariant.MINUS, s=10)
        assert truncate(plus, below) == pytest.approx(below)
        assert truncate(minus, below) == 0.0
        # at or above the floor both agree with full truncation
        assert truncate(plus, 210.0) == truncate(minus, 210.0) == pytest.approx(200.0)

    @pytest.mark.parametrize("variant, kw", [
        (TruncationVariant.FULL, {}), (TruncationVariant.PLUS, {"s": 10}),
        (TruncationVariant.MINUS, {"s": 10}), (TruncationVariant.PRDS, {"s": 10}),
        (TruncationVariant.TOAD, {"d": 10})])
    def test_lag_only_on_local_variants(self, variant, kw):
        # truncate would cap at the lag while the expected value ignores it
        with pytest.raises(ConfigError, match="lag_kstar"):
            spec(variant, lag_kstar=2, **kw)

    def test_toad_equals_minus_at_deadline(self):
        toad = spec(TruncationVariant.TOAD, d=7)
        minus = spec(TruncationVariant.MINUS, s=7)
        x = np.array([0.0, 5.0, 2000.0 / 8.0, 2000.0 / 7.0, 1999.0, math.inf])
        np.testing.assert_array_equal(truncate(toad, x), truncate(minus, x))

    def test_grid_boundary_exact(self):
        full = spec(TruncationVariant.FULL)
        for k in (1, 2, 7, 1000, 123456):
            x = 1.0 / (k * AG)
            assert truncate(full, x) == x

    def test_array_and_scalar(self):
        full = spec(TruncationVariant.FULL)
        out = truncate(full, np.array([1999.0, math.inf]))
        assert out.shape == (2,)
        assert isinstance(truncate(full, 1999.0), float)

    def test_zero_gamma_is_zero(self):
        z = TruncationSpec(TruncationVariant.FULL, 0.05, 0.0)
        assert truncate(z, math.inf) == 0.0

    def test_negative_input(self):
        with pytest.raises(InputError):
            truncate(spec(TruncationVariant.FULL), -1.0)

    @pytest.mark.parametrize("variant, kw", [
        (TruncationVariant.FULL, {}), (TruncationVariant.LOCAL, {"lag_kstar": 3}),
        (TruncationVariant.MINUS, {"s": 10}), (TruncationVariant.LOCAL_PLUS,
                                               {"s": 10, "lag_kstar": 3})])
    def test_underflowing_weight_is_zero_weight(self, variant, kw):
        # alpha * gamma underflows to 0: the same output as gamma = 0, and
        # no division by zero or numpy warning on the way
        sub = TruncationSpec(variant, 0.05, 5e-324, **kw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert truncate(sub, 2.0) == 0.0
            np.testing.assert_array_equal(
                truncate(sub, np.array([0.0, 2.0, 1e300, math.inf])), np.zeros(4))
            if math.isfinite(sub.cutoff_s):
                assert expected_truncated_value(GaussianLRModel(3.0), sub, 2.0) == 0.0

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            spec(TruncationVariant.PLUS)  # missing s
        with pytest.raises(ConfigError):
            spec(TruncationVariant.LOCAL)  # missing lag_kstar
        with pytest.raises(ConfigError):
            spec(TruncationVariant.TOAD)  # missing d
        with pytest.raises(ConfigError):
            TruncationSpec(TruncationVariant.FULL, 0.0, 0.01)

    # NaN passes a `field < bound` check: a NaN s would act as no cutoff
    # (truncate would give 1e-9 for 1e-9, not 0), a NaN lag_kstar a NaN value
    @pytest.mark.parametrize("variant, field", [
        (TruncationVariant.MINUS, "s"),
        (TruncationVariant.LOCAL, "lag_kstar"),
        (TruncationVariant.TOAD, "d"),
    ])
    def test_nan_field_refused(self, variant, field):
        with pytest.raises(ConfigError, match=f"{field} >= .*nan"):
            spec(variant, **{field: math.nan})

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_non_finite_gamma(self, gamma):
        with pytest.raises(ConfigError, match="gamma"):
            TruncationSpec(TruncationVariant.MINUS, 0.05, gamma, s=10)

    @given(st.floats(min_value=1e-3, max_value=1e9), st.integers(1, 50),
           st.integers(0, 20))
    @settings(max_examples=300)
    def test_dominance_and_idempotence(self, x, s, k0):
        full = spec(TruncationVariant.FULL)
        plus = spec(TruncationVariant.PLUS, s=s)
        minus = spec(TruncationVariant.MINUS, s=s)
        local = spec(TruncationVariant.LOCAL, lag_kstar=k0)
        tf = truncate(full, x)
        assert tf <= x
        assert truncate(minus, x) <= tf
        assert truncate(plus, x) <= x
        assert truncate(local, x) <= min(tf, 1.0 / ((k0 + 1) * AG))
        # full and minus are idempotent
        assert truncate(full, tf) == tf
        tm = truncate(minus, x)
        assert truncate(minus, tm) == tm


class TestExpectedValue:
    def test_monte_carlo_agreement(self):
        model = GaussianLRModel(3.0)
        rng = np.random.default_rng(42)
        e = model.evalue(rng.standard_normal(10 ** 6))
        for sp in (spec(TruncationVariant.MINUS, s=10),
                   spec(TruncationVariant.PLUS, s=100),
                   spec(TruncationVariant.LOCAL_MINUS, s=100, lag_kstar=2),
                   spec(TruncationVariant.LOCAL_PLUS, s=100, lag_kstar=10)):
            b = solve_boost_factor(model, sp)
            vals = truncate(sp, b * e)
            mean, se = vals.mean(), vals.std(ddof=1) / math.sqrt(len(vals))
            closed = expected_truncated_value(model, sp, b)
            assert abs(mean - closed) <= 3.0 * se
            assert mean <= 1.0 + 3.0 * se  # the validity requirement

    def test_minus_plus_passthrough_identity(self):
        model = GaussianLRModel(3.0)
        for b in (1.0, 1.5, 3.0):
            for s in (10, 100):
                ev_plus = expected_truncated_value(
                    model, spec(TruncationVariant.PLUS, s=s), b)
                ev_minus = expected_truncated_value(
                    model, spec(TruncationVariant.MINUS, s=s), b)
                d = model.delta
                pass_through = b * ndtr(-d / 2.0 - math.log(s * AG * b) / d)
                assert ev_plus - ev_minus == pytest.approx(pass_through, rel=1e-12)

    def test_monotone_in_b(self):
        model = GaussianLRModel(3.0)
        sp = spec(TruncationVariant.MINUS, s=50)
        vals = [expected_truncated_value(model, sp, b) for b in (0.5, 1.0, 2.0, 4.0)]
        assert vals == sorted(vals)

    def test_zero_b(self):
        model = GaussianLRModel(3.0)
        assert expected_truncated_value(model, spec(TruncationVariant.MINUS, s=5), 0.0) == 0.0

    def test_nan_b(self):
        with pytest.raises(InputError):
            expected_truncated_value(GaussianLRModel(3.0),
                                     spec(TruncationVariant.MINUS, s=5), math.nan)

    @pytest.mark.parametrize("sp", [
        spec(TruncationVariant.PLUS, s=10), spec(TruncationVariant.MINUS, s=10),
        spec(TruncationVariant.LOCAL_PLUS, s=10, lag_kstar=3),
        spec(TruncationVariant.LOCAL_MINUS, s=10, lag_kstar=3),
        spec(TruncationVariant.TOAD, d=7), spec(TruncationVariant.PRDS, s=10)])
    def test_infinite_b_is_the_limit(self, sp):
        # the Plus pass-through term u * Phi(a) tends to 0, not inf * 0 = nan
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            value = expected_truncated_value(GaussianLRModel(3.0), sp, math.inf)
        assert value == pytest.approx(truncate(sp, math.inf), rel=1e-12)

    @pytest.mark.parametrize("delta", [math.inf, -math.inf, math.nan, 0.0])
    def test_delta_positive_and_finite(self, delta):
        with pytest.raises(ConfigError, match="delta"):
            GaussianLRModel(delta)

    def test_full_needs_cutoff(self):
        with pytest.raises(ConfigError):
            expected_truncated_value(GaussianLRModel(3.0),
                                     spec(TruncationVariant.FULL), 1.0)


class TestSolver:
    # reference boost factors for delta = 3, alpha = 0.05, gamma = 0.01
    GOLDEN = [
        (TruncationVariant.PLUS, dict(s=10), 1.165, 0.005),
        (TruncationVariant.PLUS, dict(s=100), 1.174, 0.005),
        (TruncationVariant.MINUS, dict(s=10), 3.071, 0.01),
        (TruncationVariant.MINUS, dict(s=100), 1.730, 0.01),
        (TruncationVariant.LOCAL_PLUS, dict(s=100, lag_kstar=2), 1.265, 0.01),
        (TruncationVariant.LOCAL_PLUS, dict(s=100, lag_kstar=10), 1.541, 0.01),
        (TruncationVariant.LOCAL_MINUS, dict(s=100, lag_kstar=2), 1.940, 0.01),
        (TruncationVariant.LOCAL_MINUS, dict(s=100, lag_kstar=10), 2.639, 0.01),
    ]

    def test_golden_factors(self):
        model = GaussianLRModel(3.0)
        for variant, kw, want, tol in self.GOLDEN:
            b = solve_boost_factor(model, spec(variant, **kw))
            assert b == pytest.approx(want, abs=tol), (variant, kw)

    def test_residual_small(self):
        model = GaussianLRModel(3.0)
        for variant, kw, _, _ in self.GOLDEN:
            sp = spec(variant, **kw)
            b = solve_boost_factor(model, sp)
            assert abs(expected_truncated_reference(model, sp, b) - 1.0) <= 1e-6

    def test_plus_monotone_in_s(self):
        model = GaussianLRModel(3.0)
        bs = [solve_boost_factor(model, spec(TruncationVariant.PLUS, s=s))
              for s in (5, 10, 50, 100)]
        assert bs == sorted(bs)

    def test_minus_decreasing_in_s(self):
        model = GaussianLRModel(3.0)
        bs = [solve_boost_factor(model, spec(TruncationVariant.MINUS, s=s))
              for s in (5, 10, 50, 100)]
        assert bs == sorted(bs, reverse=True)

    def test_local_minus_increasing_in_lag(self):
        model = GaussianLRModel(3.0)
        bs = [solve_boost_factor(
            model, spec(TruncationVariant.LOCAL_MINUS, s=100, lag_kstar=k0))
            for k0 in (0, 2, 5, 10)]
        assert bs == sorted(bs)

    def test_at_least_one(self):
        model = GaussianLRModel(3.0)
        for variant, kw, _, _ in self.GOLDEN:
            assert solve_boost_factor(model, spec(variant, **kw)) >= 1.0

    def test_zero_gamma_raises(self):
        sp = TruncationSpec(TruncationVariant.MINUS, 0.05, 0.0, s=10)
        with pytest.raises(SolverError):
            solve_boost_factor(GaussianLRModel(3.0), sp)

    def test_prds_boost(self):
        model = GaussianLRModel(3.0)
        sp = spec(TruncationVariant.PRDS, s=100)
        b = solve_boost_factor(model, sp)
        assert b >= 1.0
        assert expected_truncated_reference(model, sp, b) == pytest.approx(1.0, abs=1e-6)


CLOSED_FORM = (TruncationVariant.PLUS, TruncationVariant.MINUS,
               TruncationVariant.LOCAL_PLUS, TruncationVariant.LOCAL_MINUS,
               TruncationVariant.TOAD, TruncationVariant.PRDS)


@st.composite
def boost_configs(draw):
    variant = draw(st.sampled_from(CLOSED_FORM))
    s = draw(st.integers(1, 300))
    k0 = draw(st.integers(0, s - 1))
    delta = draw(st.floats(0.2, 6.0))
    alpha = draw(st.floats(0.01, 0.5))
    gammas = draw(st.lists(st.floats(-6.0, -0.5).map(lambda x: 10.0 ** x),
                           min_size=1, max_size=4))
    return variant, s, k0, delta, alpha, gammas


def boost_spec(variant, s, lag, alpha, gamma):
    if variant is TruncationVariant.TOAD:
        return TruncationSpec(variant, alpha, gamma, d=s)
    return TruncationSpec(variant, alpha, gamma, s=s, lag_kstar=lag)


class TestSolverProperties:
    """Each factor checked against the bracket sum of
    oracles.expected_truncated_reference, independent of the solver's curve."""

    @given(boost_configs())
    @settings(max_examples=200, deadline=None)
    def test_root_of_closed_form(self, config):
        variant, s, k0, delta, alpha, gammas = config
        local = variant in (TruncationVariant.LOCAL_PLUS, TruncationVariant.LOCAL_MINUS)
        lag = k0 if local else None
        model = GaussianLRModel(delta)
        singles = []
        for gamma in gammas:
            sp = boost_spec(variant, s, lag, alpha, gamma)
            try:
                b = solve_boost_factor(model, sp)
            except SolverError:
                assert expected_truncated_reference(model, sp, B_MAX) < 1.0
                singles.append(None)
                continue
            singles.append(b)
            assert b >= 1.0
            if b == 1.0:
                # no boosting: E_null[T(E)] >= 1, or a root within 1e-11 of 1
                assert expected_truncated_reference(model, sp, 1.0) >= 1.0 - 1e-6
                continue
            assert abs(expected_truncated_reference(model, sp, b) - 1.0) <= 1e-6
            assert expected_truncated_reference(model, sp, b * (1.0 - 1e-6)) < 1.0
        args = (model, variant, alpha, gammas, s, lag)
        if None in singles:
            with pytest.raises(SolverError):
                solve_boost_factors(*args)
        else:
            np.testing.assert_array_equal(solve_boost_factors(*args), singles)

    @pytest.mark.parametrize("variant", [TruncationVariant.FULL, TruncationVariant.LOCAL])
    def test_no_closed_form(self, variant):
        sp = spec(variant, lag_kstar=2) if variant is TruncationVariant.LOCAL else spec(variant)
        with pytest.raises(ConfigError):
            solve_boost_factor(GaussianLRModel(3.0), sp)
        with pytest.raises(ConfigError):
            solve_boost_factors(GaussianLRModel(3.0), variant, ALPHA, [GAMMA], 100,
                                lag_kstar=2)

    def test_bad_arguments(self):
        model = GaussianLRModel(3.0)
        with pytest.raises(ConfigError, match="needs a cutoff s >= 1"):
            solve_boost_factors(model, TruncationVariant.MINUS, ALPHA, [GAMMA], s=0)
        with pytest.raises(ConfigError, match="local_plus needs s >= lag_kstar"):
            solve_boost_factors(model, TruncationVariant.LOCAL_PLUS, ALPHA, [GAMMA],
                                s=10, lag_kstar=10)
        with pytest.raises(ConfigError, match="b_max=0.5 is below 1"):
            solve_boost_factors(model, TruncationVariant.MINUS, ALPHA, [GAMMA], s=10,
                                b_max=0.5)

    @pytest.mark.parametrize("variant", [TruncationVariant.PLUS, TruncationVariant.MINUS,
                                         TruncationVariant.PRDS])
    def test_lag_only_on_local_variants(self, variant):
        # as TruncationSpec does: a lag would be ignored on these variants
        with pytest.raises(ConfigError, match="takes no lag_kstar"):
            solve_boost_factors(GaussianLRModel(3.0), variant, ALPHA, [GAMMA], 100,
                                lag_kstar=5)

    @pytest.mark.parametrize("variant", [TruncationVariant.MINUS,
                                         TruncationVariant.LOCAL_MINUS,
                                         TruncationVariant.PRDS])
    @pytest.mark.parametrize("s", [math.nan, math.inf, 2.5])
    def test_cutoff_is_an_integer(self, variant, s):
        lag = 0 if variant is TruncationVariant.LOCAL_MINUS else None
        model = GaussianLRModel(3.0)
        with pytest.raises(ConfigError, match=r"integer cutoff s, got s="):
            solve_boost_factors(model, variant, ALPHA, [GAMMA], s, lag_kstar=lag)
        with pytest.raises(ConfigError, match=r"integer cutoff s, got s="):
            BoostCurve(3.0, variant, s, lag)
        np.testing.assert_array_equal(
            solve_boost_factors(model, variant, ALPHA, [GAMMA], np.int64(100), lag_kstar=lag),
            solve_boost_factors(model, variant, ALPHA, [GAMMA], 100, lag_kstar=lag))

    def test_no_root_below_b_max(self):
        # a narrow null leaves the minus cutoff out of reach for any b <= 10
        model = GaussianLRModel(0.5)
        sp = spec(TruncationVariant.MINUS, s=5)
        assert expected_truncated_reference(model, sp, 10.0) < 1.0
        with pytest.raises(SolverError):
            solve_boost_factor(model, sp, b_max=10.0)

    @pytest.mark.parametrize("delta, s", [(3.5, 200), (1.0, 37), (4.5, 1000)])
    def test_one_lag_per_target_equals_per_lag_solves(self, delta, s):
        # lags 0, s - 1 and at or above s (every bracket capped), in one call
        model = GaussianLRModel(delta)
        gammas = 0.01 * 0.99 ** np.arange(0, s, max(1, s // 20))
        lags = [0, 1, 7, s - 1, s, s + 5]
        variant = TruncationVariant.LOCAL_MINUS
        singles = [solve_boost_factors(model, variant, 0.05, gammas, s, lag_kstar=k0)
                   for k0 in lags]
        order = np.random.default_rng(s).permutation(len(lags) * len(gammas))
        y, k = np.tile(gammas, len(lags))[order], np.repeat(lags, len(gammas))[order]
        joint = np.empty(len(order))
        joint[order] = solve_boost_factors(model, variant, 0.05, y, s, lag_kstar=k)
        np.testing.assert_allclose(joint, np.concatenate(singles), rtol=1e-10, atol=0)
        # a target's factor does not depend on its company
        np.testing.assert_array_equal(joint, np.concatenate(singles))

    def test_one_lag_per_target_at_b_one(self):
        # a weight so small that E_null[T(E)] = 1 in floating point: b = 1 at
        # every lag, settled by the first evaluation
        model = GaussianLRModel(1.0)
        b = solve_boost_factors(model, TruncationVariant.LOCAL_PLUS, 0.05,
                                [1e-9, 1e-9, 1e-9, 0.01], 5, lag_kstar=[0, 2, 4, 2])
        assert b[:3].tolist() == [1.0, 1.0, 1.0] and b[3] > 1.0
        single = solve_boost_factors(model, TruncationVariant.LOCAL_PLUS, 0.05,
                                     [0.01], 5, lag_kstar=2)
        assert b[3] == single[0]

    def test_one_lag_per_target_raises_for_any_target(self):
        # delta = 0.5 and b <= 10 reach the root at lags 0 and 4, not at 9
        model = GaussianLRModel(0.5)
        args = (model, TruncationVariant.LOCAL_MINUS, 1.0)
        for k0 in (0, 4):
            assert solve_boost_factors(*args, [0.1], 5, lag_kstar=k0, b_max=10.0) > 1.0
        with pytest.raises(SolverError):
            solve_boost_factors(*args, [0.1], 5, lag_kstar=9, b_max=10.0)
        with pytest.raises(SolverError):
            solve_boost_factors(*args, [0.1, 0.1, 0.1], 5, lag_kstar=[0, 9, 4],
                                b_max=10.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_non_finite_weights(self, gamma):
        with pytest.raises(ConfigError, match="finite"):
            solve_boost_factors(GaussianLRModel(3.0), TruncationVariant.MINUS, ALPHA,
                                [GAMMA, gamma], 100)

    @given(boost_configs(), st.floats(1.0, B_MAX))
    @settings(max_examples=200, deadline=None)
    def test_library_formula_matches_reference(self, config, b):
        # Abel sums on BoostCurve against the bracket sum: within 8.5e-8
        # relative (1.8e-9 absolute at the solved factors), plus the
        # reference's own rounding: each tail is one ndtr, good to a few eps
        # of itself, and a bracket weights the difference of two tails by up
        # to 1/(alpha gamma)
        variant, s, k0, delta, alpha, gammas = config
        local = variant in (TruncationVariant.LOCAL_PLUS, TruncationVariant.LOCAL_MINUS)
        model = GaussianLRModel(delta)
        for gamma in gammas:
            sp = boost_spec(variant, s, k0 if local else None, alpha, gamma)
            atol = max(2e-9, 4.0 * np.finfo(float).eps / (alpha * gamma))
            assert expected_truncated_value(model, sp, b) == pytest.approx(
                expected_truncated_reference(model, sp, b), rel=1e-7, abs=atol)

    @pytest.mark.parametrize("gamma", [1e-10, 1e-12, 1e-14, 1e-16])
    @pytest.mark.parametrize("variant, lag", [(TruncationVariant.MINUS, None),
                                              (TruncationVariant.LOCAL_MINUS, 60)])
    def test_reference_at_tiny_weights(self, variant, lag, gamma):
        # the bracket sum weights each tail by up to 1/(alpha gamma), 2e17 at
        # gamma 1e-16: a tail formed as 1 - ndtr(x) has an absolute error of
        # a few eps, which that weight blows up, and ndtr(-x) keeps each tail
        # to a few eps of itself
        model = GaussianLRModel(3.5)
        sp = TruncationSpec(variant, ALPHA, gamma, s=5000, lag_kstar=lag)
        b = solve_boost_factor(model, sp)
        assert abs(expected_truncated_reference(model, sp, b) - 1.0) <= 1e-12

    def test_lags_match_the_targets(self):
        model = GaussianLRModel(3.0)
        with pytest.raises(ConfigError):
            solve_boost_factors(model, TruncationVariant.LOCAL_MINUS, ALPHA,
                                [GAMMA, GAMMA], 100, lag_kstar=[1, 2, 3])
        with pytest.raises(ConfigError):
            solve_boost_factors(model, TruncationVariant.LOCAL_MINUS, ALPHA,
                                [GAMMA, GAMMA], 100, lag_kstar=[1, -1])

    def test_local_minus_cap_above_cutoff(self):
        # k0 + 1 > s caps every bracket at 1/((k0+1) ag)
        model = GaussianLRModel(3.0)
        sp = spec(TruncationVariant.LOCAL_MINUS, s=5, lag_kstar=9)
        b = solve_boost_factor(model, sp)
        assert abs(expected_truncated_reference(model, sp, b) - 1.0) <= 1e-6


GEOMETRIC = 0.01 * 0.99 ** np.arange(1000)  # gamma_t of geometric q = 0.99
LAGS = (0, 3, 17, 60)


def lagged(variant, n):
    """Weights gamma_1..gamma_n and their lags: the four lags of LAGS for
    the local variants, one call for all of them, and none otherwise."""
    if variant in (TruncationVariant.LOCAL_MINUS, TruncationVariant.LOCAL_PLUS):
        return np.tile(GEOMETRIC[:n], len(LAGS)), np.repeat(LAGS, n)
    return GEOMETRIC[:n], None


def bisect_roots(curve, y, b_max=B_MAX):
    """The roots of G(v) = y on a BoostCurve by bisection to a bracket of
    1e-14 in v, as factors: the upper end of each bracket, 1 where
    G(log y) >= y already."""
    ly = np.log(y)
    lo, hi = ly.copy(), ly + math.log(b_max)
    which = np.arange(len(y))
    g_lo, _ = curve(lo, which)
    hi[g_lo >= y] = ly[g_lo >= y]
    for _ in range(200):
        if np.all(hi - lo <= 1e-14):
            break
        mid = 0.5 * (lo + hi)
        g, _ = curve(mid, which)
        up = g < y
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return np.exp(hi - ly)


@pytest.mark.parametrize("delta", [1.0, 3.5])
@pytest.mark.parametrize("n", [200, 1000])
def test_plus_and_minus_are_local_at_lag_zero(delta, n):
    """At k0 = 0 the lag cap 1/(alpha gamma) is the top of the grid, so plus
    and minus boosting are local_plus and local_minus at lag 0, bit for bit,
    with one lag for all targets or one per target."""
    model = GaussianLRModel(delta)
    for variant, local in ((TruncationVariant.PLUS, TruncationVariant.LOCAL_PLUS),
                           (TruncationVariant.MINUS, TruncationVariant.LOCAL_MINUS)):
        b = solve_boost_factors(model, variant, ALPHA, GEOMETRIC[:n], n)
        for lag in (0, np.zeros(n, dtype=np.int64)):
            np.testing.assert_array_equal(
                solve_boost_factors(model, local, ALPHA, GEOMETRIC[:n], n, lag_kstar=lag), b)


class TestOneEvaluation:
    """The cutoff variants find each root on the degree-7 Hermite
    interpolant of G on its cell of the table, with no exact evaluation,
    wherever the bound on its remainder is below 1e-9 of the target and the
    cell ends below b_max; any other target takes exact evaluations.  PRDS
    has its root in closed form, so its first exact evaluation, for the
    residual check, is its last."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        """A counter of the points at which BoostCurve is evaluated."""
        count = [0]
        call = BoostCurve.__call__

        def counted(curve, v, which=None):
            count[0] += len(v)
            return call(curve, v, which)

        monkeypatch.setattr(BoostCurve, "__call__", counted)
        return count

    @pytest.mark.parametrize("n", [200, 1000])
    @pytest.mark.parametrize("delta", [1.0, 2.0, 3.5, 4.5])
    @pytest.mark.parametrize("variant", [TruncationVariant.MINUS,
                                         TruncationVariant.LOCAL_MINUS,
                                         TruncationVariant.PLUS,
                                         TruncationVariant.LOCAL_PLUS,
                                         TruncationVariant.PRDS])
    def test_one_exact_evaluation_per_target(self, evaluations, variant, delta, n):
        gammas, lags = lagged(variant, n)
        solve_boost_factors(GaussianLRModel(delta), variant, ALPHA, gammas, n, lag_kstar=lags)
        if variant is TruncationVariant.PRDS:
            assert evaluations[0] <= 1.02 * len(gammas)
            return
        assert evaluations[0] == 0
        # every remainder bound, even on a cell as high as b_max, is below
        # 1e-10 of its target
        y = ALPHA * gammas
        curve = BoostCurve(delta, variant, n, lags)
        bound = curve.remainder_bound(curve.lags[curve.column], np.log(y * B_MAX))
        assert np.all(bound < 1e-10 * y)

    def test_large_remainder_bound_takes_exact_evaluations(self, evaluations):
        # at delta 1 and s 1000 the bound of a minus target is 1.25e-18, so
        # weights below about 2.5e-8 take the exact path
        model, variant, n = GaussianLRModel(1.0), TruncationVariant.MINUS, 1000
        for gamma, exact in [(1e-9, True), (1e-8, True), (1e-7, False), (0.01, False)]:
            evaluations[0] = 0
            b = solve_boost_factors(model, variant, ALPHA, [gamma], n)
            assert (evaluations[0] > 0) == exact, gamma
            want = bisect_roots(BoostCurve(1.0, variant, n), np.array([ALPHA * gamma]))
            np.testing.assert_allclose(b, want, rtol=2e-11, atol=0)
            sp = TruncationSpec(variant, ALPHA, gamma, s=n)
            assert abs(expected_truncated_reference(model, sp, b[0]) - 1.0) <= 1e-9

    @pytest.mark.parametrize("delta", [1.0, 2.0, 3.5, 4.5])
    @pytest.mark.parametrize("variant", [TruncationVariant.PLUS, TruncationVariant.MINUS,
                                         TruncationVariant.LOCAL_PLUS,
                                         TruncationVariant.LOCAL_MINUS,
                                         TruncationVariant.PRDS])
    def test_factors_match_bisection_and_reference(self, variant, delta):
        n = 200
        model = GaussianLRModel(delta)
        gammas, lags = lagged(variant, n)
        b = solve_boost_factors(model, variant, ALPHA, gammas, n, lag_kstar=lags)
        want = bisect_roots(BoostCurve(delta, variant, n, lags), ALPHA * gammas)
        np.testing.assert_allclose(b, want, rtol=2e-11, atol=0)
        for i in range(0, len(b), 7):
            lag = None if lags is None else int(lags[i])
            sp = TruncationSpec(variant, ALPHA, gammas[i], s=n, lag_kstar=lag)
            assert abs(expected_truncated_reference(model, sp, b[i]) - 1.0) <= 1e-9

    def test_start_rows_kept_on_the_table(self):
        # later calls add the start rows they miss, below and above the kept
        # ones, and a factor does not depend on the rows left by earlier calls
        model, variant, n = GaussianLRModel(3.5), TruncationVariant.LOCAL_MINUS, 200
        table = BoostTable(3.5, n)
        calls = [(GEOMETRIC[:20], 3), (GEOMETRIC[100:120], 17), (GEOMETRIC[:20], 60)]
        factors, spans = [], []
        for gammas, k0 in calls:
            factors.append(solve_boost_factors(model, variant, ALPHA, gammas, n,
                                               lag_kstar=k0, table=table))
            spans.append((table.v[0], table.v[-1]))
        (lo0, hi0), (lo1, hi1), (lo2, hi2) = spans
        assert lo1 < lo0 and hi1 == hi0 and lo2 == lo1 and hi2 > hi1
        kept = table.v
        np.testing.assert_array_equal(kept, np.arange(lo2 * 32, hi2 * 32 + 1) / 32)
        for b, (gammas, k0) in zip(factors, calls):
            alone = solve_boost_factors(model, variant, ALPHA, gammas, n, lag_kstar=k0)
            np.testing.assert_array_equal(b, alone)

    def test_no_targets(self):
        b = solve_boost_factors(GaussianLRModel(3.5), TruncationVariant.MINUS, 0.05, [], 10)
        assert b.dtype == float and b.shape == (0,)


class TestTransforms:
    def test_reciprocal_roundtrip(self):
        psi = NonincreasingTransform.reciprocal()
        assert psi.psi(0.5) == 2.0
        assert psi.psi(0.0) == math.inf
        assert psi.psi_inverse(4.0) == 0.25
        assert psi.psi_inverse(0.5) == 1.0

    def test_zero_transform(self):
        psi = NonincreasingTransform.zero()
        assert psi.psi(0.5) == 0.0
        assert psi.psi(0.0) == math.inf
        assert psi.psi_inverse(5.0) == 0.0

    def test_inverse_from_psi_bisection(self):
        direct = NonincreasingTransform(psi=lambda u: math.inf if u == 0.0 else 1.0 / u)
        for x in (0.5, 1.0, 2.0, 10.0, 1e4):
            want = 1.0 if x <= 1.0 else 1.0 / x
            assert direct.psi_inverse(x) == pytest.approx(want, rel=1e-9)

    def test_psi_from_inverse_bisection(self):
        inv_only = NonincreasingTransform(
            psi_inverse=lambda x: 1.0 if x <= 1.0 else 1.0 / x)
        for u in (0.1, 0.5, 0.9):
            assert inv_only.psi(u) == pytest.approx(1.0 / u, rel=1e-9)

    def test_needs_something(self):
        with pytest.raises(ConfigError):
            NonincreasingTransform()

    def test_reciprocal_prds_condition(self):
        res = check_transform_condition(NonincreasingTransform.reciprocal(),
                                        ALPHA, GAMMA, mode="prds")
        assert res.passed is True
        assert res.value == pytest.approx(1.0)

    def test_reciprocal_arbitrary_fails(self):
        # the series sum_k (1/k) * (1 - (k-1)/k) = sum 1/k^2 scaled ... for
        # reciprocal psi_inv(x(k)) = k * alpha * gamma, increments alpha*gamma,
        # each term x(k) * ag = 1/k: the harmonic series diverges past 1
        res = check_transform_condition(NonincreasingTransform.reciprocal(),
                                        ALPHA, GAMMA, mode="arbitrary", k_max=100)
        assert res.passed is False

    def test_zero_arbitrary_passes(self):
        res = check_transform_condition(NonincreasingTransform.zero(),
                                        0.5, 0.5, mode="arbitrary")
        assert res.passed is True
        assert res.value == 0.0

    def test_shape_transform_series_value(self):
        # psi_inv(1/(k ag)) = ag * beta(k): the series telescopes to
        # sum_k (beta(k) - beta(k-1)) / k; for a point mass 0.5 at 1 this is 0.5
        beta = ShapeFunction.custom({1.0: 0.5})
        psi = NonincreasingTransform.from_shape_function(beta, 0.5, 0.5)
        res = check_transform_condition(psi, 0.5, 0.5, mode="arbitrary")
        assert res.passed is True
        assert res.value == pytest.approx(0.5, rel=1e-9)

    def test_by_shape_toad_series_is_one(self):
        # BY(K) increments 1/ell_K over k = 1..K: the deadline-d = K series is
        # exactly (1/ell_K) * sum_{k<=K} 1/k = 1
        beta = ShapeFunction.by(5)
        psi = NonincreasingTransform.from_shape_function(beta, 0.1, 0.2)
        res = check_transform_condition(psi, 0.1, 0.2, mode="toad", d=5)
        assert res.tail_bound == 0.0
        assert res.value == pytest.approx(1.0, rel=1e-12)

    def test_prds_sup_of_exactly_one_passes(self):
        # at alpha gamma = 1 the reciprocal transform's sup over k <= 3 is
        # exactly 1, the bound itself, and the tail bound x(4) = 0.25 is
        # below 1: a sup equal to 1 passes, it is not a failure
        psi = NonincreasingTransform.reciprocal()
        res = check_transform_condition(psi, 1.0, 1.0, mode="prds", k_max=3)
        assert res.passed is True

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            check_transform_condition(NonincreasingTransform.zero(), 0.1, 0.1,
                                      mode="nope")

    def test_bad_arguments(self):
        with pytest.raises(ConfigError, match="needs alpha \\* gamma > 0"):
            NonincreasingTransform.from_shape_function(ShapeFunction.identity(), 0.1, 0.0)
        psi = NonincreasingTransform.reciprocal()
        with pytest.raises(InputError, match="u=1.5 outside"):
            psi.psi(1.5)
        with pytest.raises(InputError, match="x=-1.0 is negative"):
            psi.psi_inverse(-1.0)
        with pytest.raises(ConfigError, match="alpha=0.0 outside"):
            check_transform_condition(psi, 0.0, GAMMA)
        with pytest.raises(ConfigError, match="gamma=0.0 must be positive"):
            check_transform_condition(psi, ALPHA, 0.0)
        with pytest.raises(ConfigError, match="toad mode needs a deadline"):
            check_transform_condition(psi, ALPHA, GAMMA, mode="toad")

    @pytest.mark.parametrize("d", [math.inf, math.nan])
    def test_toad_mode_refuses_a_deadline_that_is_not_finite(self, d):
        # int(d) raised OverflowError for inf and ValueError for nan
        with pytest.raises(ConfigError, match=f"d={d}"):
            check_transform_condition(NonincreasingTransform.reciprocal(), ALPHA, GAMMA,
                                      mode="toad", d=d)

    def test_psi_from_an_inverse_at_the_ends(self):
        # psi(0) = inf; an inverse that is 1 everywhere has psi = inf on [0, 1]
        inv_only = NonincreasingTransform(psi_inverse=lambda x: 1.0)
        assert inv_only.psi(0.0) == math.inf and inv_only.psi(0.5) == math.inf
        shape = NonincreasingTransform.from_shape_function(ShapeFunction.by(3), 0.1, 0.2)
        assert shape.psi_inverse(0.0) == 1.0

    def test_prds_condition_fails(self):
        # psi_inverse = 1 puts x_1 * 1 = 1 / (alpha gamma) > 1 into the sup
        res = check_transform_condition(
            NonincreasingTransform(psi_inverse=lambda x: 1.0), ALPHA, GAMMA, mode="prds")
        assert res.passed is False and not res
        assert res.value == pytest.approx(1.0 / AG)

    def test_indeterminate_within_k_max(self):
        # sup and series stay at 0, but the tail bound x_{k_max + 1} is far
        # above 1 at alpha gamma = 5e-4 and k_max = 10
        zero = NonincreasingTransform.zero()
        for mode in ("prds", "arbitrary"):
            res = check_transform_condition(zero, ALPHA, GAMMA, mode=mode, k_max=10)
            assert res.passed is None and not res, mode
            assert res.value == 0.0 and res.tail_bound > 1.0
