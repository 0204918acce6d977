import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcfdr.core import (
    ConfigError,
    InputError,
    RejectionSet,
    Score,
    ScoreKind,
    WeightSequence,
    harmonic_number,
    is_self_consistent,
    minimal_k_evalue,
    minimal_k_pvalue,
    score_value,
    validate_score_value,
)
from arcfdr.e_procedures import OnlineEBH
from arcfdr.p_procedures import Lond, Lord, OnlineBH


class TestScore:
    def test_valid_pvalue(self):
        assert Score(0.5, ScoreKind.P_VALUE).value == 0.5

    def test_pvalue_bounds(self):
        Score(0.0, ScoreKind.P_VALUE)
        Score(1.0, ScoreKind.P_VALUE)
        with pytest.raises(InputError):
            Score(1.5, ScoreKind.P_VALUE)
        with pytest.raises(InputError):
            Score(-0.1, ScoreKind.P_VALUE)

    def test_evalue_range(self):
        Score(0.0, ScoreKind.E_VALUE)
        Score(math.inf, ScoreKind.E_VALUE)
        with pytest.raises(InputError):
            Score(-1.0, ScoreKind.E_VALUE)

    def test_nan_rejected(self):
        with pytest.raises(InputError):
            Score(math.nan, ScoreKind.P_VALUE)


def _outcome(fn, x, kind):
    """What fn(x, kind) gives: the value with its type and the sign of a
    zero, or the InputError message."""
    try:
        v = fn(x, kind)
    except InputError as exc:
        return str(exc)
    return type(v), v, math.copysign(1.0, v)


class TestScoreValue:
    """``score_value`` returns an in-range float at once and sends all else
    to ``validate_score_value``: either way the outcome must be the same."""

    INPUTS = [math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1.0,
              math.nextafter(1.0, 2.0), np.float64(0.3), np.float64("nan"), 1, True,
              "0.5", None]

    @pytest.mark.parametrize("kind", list(ScoreKind))
    @pytest.mark.parametrize("x", INPUTS, ids=repr)
    def test_equals_validation(self, x, kind):
        assert _outcome(score_value, x, kind) == _outcome(validate_score_value, x, kind)

    @settings(max_examples=500, deadline=None)
    @given(st.floats(), st.sampled_from(list(ScoreKind)))
    def test_equals_validation_on_all_floats(self, x, kind):
        assert _outcome(score_value, x, kind) == _outcome(validate_score_value, x, kind)

    @pytest.mark.parametrize("kind", list(ScoreKind))
    def test_scores_of_both_kinds(self, kind):
        for s in (Score(0.5, ScoreKind.P_VALUE), Score(2.0, ScoreKind.E_VALUE)):
            if s.kind is kind:
                assert _outcome(score_value, s, kind) == (float, s.value, 1.0)
            else:
                with pytest.raises(InputError, match="fed to a"):
                    score_value(s, kind)


class TestWeightSequence:
    def test_geometric(self):
        w = WeightSequence.geometric(0.5)
        assert w.gamma(1) == 0.5
        assert w.gamma(2) == 0.25
        assert w.tail_mass(0) == 1.0
        assert w.tail_mass(2) == 0.25
        assert w.gamma_max == 0.5
        assert w.support_size == math.inf

    def test_uniform(self):
        w = WeightSequence.uniform_finite(4)
        assert w.gamma(4) == 0.25
        assert w.gamma(5) == 0.0
        assert w.tail_mass(1) == 0.75
        assert w.gamma_max == 0.25
        assert w.support_size == 4

    def test_explicit(self):
        w = WeightSequence.explicit([0.5, 0.3])
        assert w.gamma(2) == 0.3
        assert w.gamma(3) == 0.0
        assert w.tail_mass(1) == 0.3
        assert w.gamma_max == 0.5
        assert w.support_size == 2
        assert WeightSequence.explicit([0.0, 0.5, 0.0]).support_size == 1

    def test_sum_over_one_rejected(self):
        with pytest.raises(InputError):
            WeightSequence.explicit([0.7, 0.7])

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            WeightSequence.explicit([0.5, -0.1])

    def test_bad_q(self):
        with pytest.raises(InputError):
            WeightSequence.geometric(1.0)

    @pytest.mark.parametrize("K", [2.9, 3.0, np.float64(2.0), "3"])
    def test_uniform_refuses_a_non_integer_horizon(self, K):
        # int() would read 2.9 as 2 without a word
        with pytest.raises(InputError, match=re.escape(f"K={K!r} must be an integer")):
            WeightSequence.uniform_finite(K)

    def test_uniform_takes_a_numpy_integer(self):
        w = WeightSequence.uniform_finite(np.int64(4))
        assert w.support_size == 4 and type(w.support_size) is int
        assert w.gamma(4) == 0.25 and w.gamma(5) == 0.0

    def test_bad_arguments(self):
        with pytest.raises(InputError, match="K=0 must be >= 1"):
            WeightSequence.uniform_finite(0)
        with pytest.raises(ConfigError, match="unknown weight description 'harmonic'"):
            WeightSequence("harmonic")
        w = WeightSequence.geometric(0.5)
        with pytest.raises(InputError, match="t=0 must be >= 1"):
            w.gamma(0)
        with pytest.raises(InputError, match="t=-1 must be >= 0"):
            w.tail_mass(-1)

    def test_repr_names_the_construction(self):
        assert repr(WeightSequence.geometric(0.5)) == "WeightSequence.geometric(q=0.5)"
        assert repr(WeightSequence.uniform_finite(3)) == "WeightSequence.uniform_finite(K=3)"
        assert (repr(WeightSequence.explicit([0.5, 0.25]))
                == "WeightSequence.explicit(weights=[0.5, 0.25])")

    @given(st.floats(min_value=0.01, max_value=0.99), st.integers(1, 200))
    def test_geometric_tail_matches_sum(self, q, t):
        w = WeightSequence.geometric(q)
        direct = sum(w.gamma(i) for i in range(t + 1, t + 3000))
        assert w.tail_mass(t) == pytest.approx(direct, rel=1e-6, abs=1e-12)


class TestHarmonic:
    def test_k1(self):
        assert harmonic_number(1) == 1.0

    def test_k3(self):
        assert harmonic_number(3) == pytest.approx(11.0 / 6.0, abs=1e-15)

    def test_k1000_reference(self):
        # compensated summation oracle, summed smallest-first
        ref = math.fsum(1.0 / i for i in range(1000, 0, -1))
        assert abs(harmonic_number(1000) - ref) < 1e-9

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            harmonic_number(0)

    @given(st.integers(1, 500))
    def test_log_bounds(self, K):
        h = harmonic_number(K)
        assert math.log(K) < h <= math.log(K) + 1.0


class TestMinimalK:
    def test_evalue_boundary_exact(self):
        # e exactly at the k=3 grid value must report 3, weak inequality;
        # the grid is 1/(k * (alpha*gamma)) with alpha*gamma formed first
        alpha, gamma = 0.05, 0.01
        e = 1.0 / (3 * (alpha * gamma))
        assert minimal_k_evalue(e, alpha, gamma) == 3

    def test_pvalue_boundary_exact(self):
        alpha, gamma = 0.3, 1.0 / 3.0
        assert minimal_k_pvalue(2 * alpha * gamma, alpha, gamma) == 2

    def test_zero_gamma(self):
        assert minimal_k_evalue(10.0, 0.1, 0.0) == math.inf
        # weight 0 carries no error budget, even for p = 0
        assert minimal_k_pvalue(0.0, 0.1, 0.0) == math.inf

    def test_underflowing_alpha_gamma(self):
        # gamma > 0 but alpha * gamma rounds to 0: only p = 0 clears k * 0
        assert 0.05 * 5e-324 == 0.0
        assert minimal_k_pvalue(0.0, 0.05, 5e-324) == 1
        assert minimal_k_pvalue(1e-300, 0.05, 5e-324) == math.inf
        assert minimal_k_evalue(1e300, 0.05, 5e-324) == math.inf
        assert minimal_k_evalue(math.inf, 0.05, 5e-324) == 1

    def test_infinite_evalue(self):
        assert minimal_k_evalue(math.inf, 0.1, 0.5) == 1

    def test_tiny_evalue(self):
        assert minimal_k_evalue(1e-300, 0.1, 0.5) == math.inf

    @given(st.floats(min_value=1e-6, max_value=1e6),
           st.floats(min_value=0.01, max_value=1.0),
           st.floats(min_value=1e-4, max_value=1.0))
    @settings(max_examples=300)
    def test_evalue_is_minimal(self, e, alpha, gamma):
        k = minimal_k_evalue(e, alpha, gamma)
        ag = alpha * gamma
        if k is not math.inf:
            assert e >= 1.0 / (k * ag)
            if k > 1:
                assert e < 1.0 / ((k - 1) * ag)

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.01, max_value=1.0),
           st.floats(min_value=1e-4, max_value=1.0))
    @settings(max_examples=300)
    def test_pvalue_is_minimal(self, p, alpha, gamma):
        k = minimal_k_pvalue(p, alpha, gamma)
        ag = alpha * gamma  # thresholds are k * (alpha*gamma) throughout
        if k is not math.inf:
            assert p <= k * ag
            if k > 1:
                assert p > (k - 1) * ag


class TestRejectionSet:
    def test_contains_len(self):
        r = RejectionSet((1, 3), 4)
        assert 1 in r and 3 in r and 2 not in r
        assert len(r) == 2

    def test_index_beyond_time(self):
        with pytest.raises(InputError):
            RejectionSet((5,), 4)

    def test_unsorted_index_beyond_time(self):
        with pytest.raises(InputError):
            RejectionSet((1, 5, 2), 4)

    def test_index_below_one(self):
        with pytest.raises(InputError):
            RejectionSet((0,), 4)

    def test_equality_and_hash(self):
        r = RejectionSet((1, 3), 4)
        assert r != (1, 3) and r != {1, 3}
        assert r == RejectionSet((1, 3), 4) and r != RejectionSet((1, 3), 5)
        assert hash(r) == hash(RejectionSet((1, 3), 4))
        assert len({r, RejectionSet((1, 3), 4), RejectionSet((1,), 4)}) == 2

    def test_order_of_the_indices_does_not_matter(self):
        r = RejectionSet((3, 1), 4)
        assert r == RejectionSet((1, 3), 4) and hash(r) == hash(RejectionSet((1, 3), 4))
        assert r.indices == (1, 3) and len(r) == 2
        # OnlineBH rejects 3, then 2, at t = 3: its view is the set {2, 3}
        proc = OnlineBH(WeightSequence.uniform_finite(10), 0.2)
        for p in (0.3, 0.04, 0.001):
            view = proc.step(p)
        assert list(proc.rejection_times) == [3, 2]
        for indices in ((3, 2), (2, 3)):
            got = RejectionSet(indices, 3)
            assert got == view and hash(got) == hash(view) and got.indices == (2, 3)

    def test_index_given_twice(self):
        with pytest.raises(InputError, match="index 1 is given twice"):
            RejectionSet((1, 1), 3)
        with pytest.raises(InputError, match="index 2 is given twice"):
            RejectionSet((3, 2, 1, 2), 3)

    @pytest.mark.parametrize("cls", [OnlineBH, Lond, Lord])
    def test_procedure_set_equals_tuple_set(self, cls):
        # OnlineBH rejects 2 after 3 at t = 3: its record is not sorted
        p = [0.3, 0.04, 0.001, 0.5, 0.02, 0.0005, 0.8, 0.03, 0.0001, 0.6]
        proc = cls(WeightSequence.uniform_finite(10), 0.2)
        for x in p:
            proc.step(x)
            assert proc.rejection_set() == RejectionSet(
                tuple(sorted(proc.rejection_times)), proc.t)
        assert len(proc.rejection_set()) == (6 if cls is OnlineBH else 5)

    def test_empty_at_time_zero(self):
        r = RejectionSet((), 0)
        assert len(r) == 0 and 1 not in r

    def test_step_set_is_fixed_at_its_time(self):
        # OnlineBH rejects 2 after 3 at t = 3, and more after each set is
        # returned; no set's indices are read before the last step
        p = [0.3, 0.04, 0.001, 0.5, 0.02, 0.0005, 0.8, 0.03, 0.0001, 0.6]
        proc = OnlineBH(WeightSequence.uniform_finite(10), 0.2)
        steps = []
        for x in p:
            r = proc.step(x)
            seen = set(proc.rejection_times)
            steps.append((r, len(seen), [i in seen for i in range(12)], sorted(seen)))
        assert proc.k_star == 6
        for r, size, member, indices in steps:
            assert len(r) == size
            assert [i in r for i in range(12)] == member
            assert r.indices == tuple(indices)

    def test_newly_rejected_of_a_step(self):
        # gamma 1/3, alpha 0.5: the needs are 3, 2 and 1, so the third
        # arrival rejects all three, popping them as [3, 2, 1]
        proc = OnlineEBH(WeightSequence.uniform_finite(3), 0.5)
        for e in (2.0, 3.0):
            proc.step(e)
            assert proc.newly_rejected == ()
        proc.step(6.0)
        assert proc.newly_rejected == (1, 2, 3)


class TestSelfConsistency:
    def test_empty_true(self):
        assert is_self_consistent([], [0.5], WeightSequence.uniform_finite(1), 0.1,
                                  kind=ScoreKind.P_VALUE)

    def test_pvalue_example(self):
        w = WeightSequence.uniform_finite(3)
        p = [Score(x, ScoreKind.P_VALUE) for x in (0.05, 0.5, 0.09)]
        assert is_self_consistent({1, 3}, p, w, 0.3)

    def test_evalue_example(self):
        w = WeightSequence.uniform_finite(3)
        e = [Score(x, ScoreKind.E_VALUE) for x in (50.0, 1.0, 2.0)]
        assert not is_self_consistent({1, 2}, e, w, 0.1)

    def test_out_of_range(self):
        w = WeightSequence.uniform_finite(2)
        with pytest.raises(InputError):
            is_self_consistent({3}, [0.1, 0.1], w, 0.1, kind=ScoreKind.P_VALUE)

    def test_bad_alpha(self):
        with pytest.raises(ConfigError):
            is_self_consistent([], [], WeightSequence.uniform_finite(1), 0.0,
                               kind=ScoreKind.P_VALUE)

    def test_score_kinds(self):
        w = WeightSequence.uniform_finite(2)
        mixed = [Score(0.1, ScoreKind.P_VALUE), Score(2.0, ScoreKind.E_VALUE)]
        with pytest.raises(InputError, match="mixed score kinds"):
            is_self_consistent({1}, mixed, w, 0.1)
        with pytest.raises(InputError, match="mixed score kinds"):
            is_self_consistent({1}, mixed[:1], w, 0.1, kind=ScoreKind.E_VALUE)
        with pytest.raises(InputError, match="explicit kind"):
            is_self_consistent({1}, [0.1, 0.2], w, 0.1)

    @pytest.mark.parametrize("kind, scores", [(ScoreKind.P_VALUE, [0.0, 0.0]),
                                              (ScoreKind.E_VALUE, [math.inf, math.inf])])
    def test_zero_weight_member_fails(self, kind, scores):
        # the most extreme score does not clear a threshold at gamma = 0
        w = WeightSequence.explicit([0.5, 0.0])
        assert is_self_consistent({1}, scores, w, 0.1, kind=kind)
        assert not is_self_consistent({1, 2}, scores, w, 0.1, kind=kind)

    def test_underflowing_alpha_gamma(self):
        # alpha * gamma_2 underflows to 0; e = inf still clears it, as in
        # OnlineEBH, which rejects both
        w = WeightSequence.explicit([0.5, 5e-324])
        e = [100.0, math.inf]
        proc = OnlineEBH(w, 0.05).run(e)
        assert proc.rejection_set().indices == (1, 2)
        assert is_self_consistent((1, 2), e, w, 0.05, kind=ScoreKind.E_VALUE)
        assert not is_self_consistent((1, 2), [100.0, 1e300], w, 0.05,
                                      kind=ScoreKind.E_VALUE)
        assert is_self_consistent((1, 2), [0.0, 0.0], w, 0.05, kind=ScoreKind.P_VALUE)
        assert not is_self_consistent((1, 2), [0.0, 1e-300], w, 0.05,
                                      kind=ScoreKind.P_VALUE)

    @given(st.sampled_from(list(ScoreKind)), st.floats(0.01, 1.0),
           st.lists(st.tuples(st.sampled_from([0.0, 5e-324, 1e-310, 1e-3, 0.1]),
                              st.floats(0.0, 1.0), st.floats(1.0, 1e6), st.booleans()),
                    min_size=1, max_size=8),
           st.data())
    @settings(max_examples=300)
    def test_matches_the_threshold_definition(self, kind, alpha, hyps, data):
        # hypothesis i: weight, p-value, e-value, and whether its score is
        # the extreme one (p = 0, e = inf)
        n = len(hyps)
        w = WeightSequence.explicit([g for g, _, _, _ in hyps])
        if kind is ScoreKind.P_VALUE:
            scores = [0.0 if extreme else p for _, p, _, extreme in hyps]
        else:
            scores = [math.inf if extreme else e for _, _, e, extreme in hyps]
        candidate = data.draw(st.sets(st.integers(1, n)))
        r = len(candidate)

        def clears(t):
            level = alpha * w.gamma(t) * r
            if w.gamma(t) <= 0.0:
                return False
            if kind is ScoreKind.P_VALUE:
                return scores[t - 1] <= level
            return scores[t - 1] >= (math.inf if level == 0.0 else 1.0 / level)

        assert is_self_consistent(candidate, scores, w, alpha, kind=kind) == all(
            clears(t) for t in candidate)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
           st.floats(min_value=0.05, max_value=0.5))
    @settings(max_examples=200)
    def test_monotone_in_alpha(self, p, alpha):
        w = WeightSequence.uniform_finite(len(p))
        candidate = [i + 1 for i in range(len(p)) if i % 2 == 0]
        lo = is_self_consistent(candidate, p, w, alpha, kind=ScoreKind.P_VALUE)
        hi = is_self_consistent(candidate, p, w, min(1.0, 2 * alpha),
                                kind=ScoreKind.P_VALUE)
        if lo:
            assert hi
