import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arcfdr.core import ConfigError, InputError, ScoreKind, WeightSequence
from arcfdr.e_procedures import OnlineEBH
from arcfdr.metrics import GroundTruth, fdp
from arcfdr.boosting import GaussianLRModel, TruncationSpec, TruncationVariant
from arcfdr.oracles import (
    boosted_reference,
    expected_truncated_reference,
    max_self_consistent_fdp,
    offline_bh,
    offline_ebh,
    offline_storey_bh,
    weighted_bh,
    weighted_simes,
)


class TestOfflineBH:
    def test_single(self):
        assert offline_bh([0.01], 0.05) == {1}
        assert offline_bh([0.06], 0.05) == set()

    def test_hand_example(self):
        assert offline_bh([0.05, 0.5, 0.09], 0.3) == {1, 3}

    def test_boundary_weak_inequality(self):
        # P_(2) exactly at 2 alpha / K counts
        assert offline_bh([2 * 0.3 / 3, 0.3 / 3, 0.9], 0.3) == {1, 2}


class TestOfflineEBH:
    def test_hand_example(self):
        assert offline_ebh([10.0, 30.0], 0.1) == {1, 2}

    def test_threshold_ties_included(self):
        # both e-values sit exactly at K/(2 alpha): k* = 2, both rejected
        e = [2 / (2 * 0.1)] * 2
        assert offline_ebh(e, 0.1) == {1, 2}

    def test_none(self):
        assert offline_ebh([1.0, 1.0, 1.0], 0.05) == set()


class TestOfflineStorey:
    def test_pi0_example(self):
        # K=2, lambda=0.5, one p above lambda: pi0_hat = (1 + 1)/(0.5 * 2) = 2
        got = offline_storey_bh([0.6, 0.01], 0.2, 0.5)
        # threshold for k=1: min(0.2/(2*2), 0.5) = 0.05 >= 0.01
        assert got == {2}

    def test_lambda_validated(self):
        with pytest.raises(ConfigError):
            offline_storey_bh([0.5], 0.2, 0.1)

    def test_adaptive_beats_bh_under_signal(self):
        rng = np.random.default_rng(41)
        p = np.concatenate([rng.random(20) * 1e-4, rng.random(20)])
        bh = offline_bh(p, 0.1)
        storey = offline_storey_bh(p, 0.1, 0.5)
        assert bh <= storey


class TestWeightedSimes:
    def test_uniform_reduces_to_classical(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            K = int(rng.integers(1, 12))
            p = sorted(rng.random(K))
            classical = min(min(K * p[j] / (j + 1) for j in range(K)), 1.0)
            got = weighted_simes(p, [1.0 / K] * K)
            assert got == pytest.approx(classical, abs=1e-15)

    def test_hand_example(self):
        # weights (0.5, 0.5), p = (0.04, 0.5): ratios (0.08, 1.0),
        # min(1 * 0.08 / 1, 1 * 1.0 / 2) = 0.08
        assert weighted_simes([0.04, 0.5], [0.5, 0.5]) == pytest.approx(0.08)

    def test_capped_at_one(self):
        assert weighted_simes([1.0, 1.0], [0.5, 0.5]) == 1.0

    def test_all_zero_weights(self):
        with pytest.raises(InputError):
            weighted_simes([0.5], [0.0])

    def test_zero_weight_index_ignored(self):
        # an index with weight 0 can never help
        a = weighted_simes([0.01, 0.5], [0.5, 0.0])
        b = weighted_simes([0.01], [0.5])
        assert a == pytest.approx(b)


class TestSimesBHEquivalence:
    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1,
                    max_size=10),
           st.floats(min_value=0.01, max_value=0.5), st.integers(0, 1000))
    @settings(max_examples=200)
    def test_simes_rejects_iff_bh_nonempty(self, p, alpha, wseed):
        rng = np.random.default_rng(wseed)
        w = rng.random(len(p)) + 0.01
        simes = weighted_simes(p, w)
        bh = weighted_bh(p, w, alpha)
        # exact float ties at the boundary depend on association order; the
        # equivalence is about continuous instances, where ties have measure 0
        assume(abs(simes - alpha) > 1e-9)
        assert (simes <= alpha) == (len(bh) >= 1)


class TestInputErrors:
    def test_weighted_procedures(self):
        with pytest.raises(InputError, match="weights are all zero"):
            weighted_bh([0.1, 0.2], [0.0, 0.0], 0.1)
        with pytest.raises(InputError, match="lengths differ"):
            weighted_bh([0.1, 0.2], [0.5], 0.1)
        with pytest.raises(InputError, match="lengths differ"):
            weighted_simes([0.1, 0.2], [0.5])
        with pytest.raises(InputError, match="lengths differ"):
            max_self_consistent_fdp([1.0, 1.0], [0.5], 0.1,
                                    GroundTruth.from_nulls(set(), 2), ScoreKind.E_VALUE)

    def test_boosted_reference_batches_divide_n(self):
        with pytest.raises(InputError, match="n=3 not divisible by batch_size=2"):
            boosted_reference([1.0] * 3, [0.1] * 3, 0.1, TruncationVariant.LOCAL_MINUS,
                              lambda start, k0: [1.0] * 2, batch_size=2)

    def test_expected_truncated_reference(self):
        model = GaussianLRModel(3.0)
        minus = TruncationSpec(TruncationVariant.MINUS, 0.05, 0.01, s=10)
        with pytest.raises(InputError, match="b=-1.0 is negative"):
            expected_truncated_reference(model, minus, -1.0)
        assert expected_truncated_reference(model, minus, 0.0) == 0.0
        full = TruncationSpec(TruncationVariant.FULL, 0.05, 0.01)
        with pytest.raises(ConfigError, match="no closed form for variant full"):
            expected_truncated_reference(model, full, 1.0)
        # TruncationSpec itself does not compare the lag with s
        local_plus = TruncationSpec(TruncationVariant.LOCAL_PLUS, 0.05, 0.01, s=5,
                                    lag_kstar=5)
        with pytest.raises(ConfigError, match="local_plus needs s >= lag_kstar"):
            expected_truncated_reference(model, local_plus, 1.0)


class TestMaxSelfConsistentFdp:
    def test_cap_refused(self):
        with pytest.raises(InputError):
            max_self_consistent_fdp([1.0] * 21, [0.01] * 21, 0.1,
                                    GroundTruth.from_nulls(set(), 21),
                                    ScoreKind.E_VALUE)

    def test_no_rejections_possible(self):
        truth = GroundTruth.from_nulls({1, 2}, 2)
        got = max_self_consistent_fdp([1.0, 1.0], [0.5, 0.5], 0.05, truth,
                                      ScoreKind.E_VALUE)
        assert got == 0.0

    def test_hand_example(self):
        # needs: e = (20, 5, 40) at alpha=0.1, gamma=1/3 -> (2, 6, 1); sets
        # {3} and {1, 3} are self-consistent; null = {1} gives max FDP 1/2
        truth = GroundTruth.from_nulls({1}, 3)
        got = max_self_consistent_fdp([20.0, 5.0, 40.0], [1 / 3] * 3, 0.1,
                                      truth, ScoreKind.E_VALUE)
        assert got == pytest.approx(0.5)

    def test_dominates_any_arc_fdp(self):
        rng = np.random.default_rng(47)
        w = WeightSequence.uniform_finite(10)
        for _ in range(30):
            e = list(np.exp(2.5 * rng.standard_normal(10) - 2.0))
            truth = GroundTruth(tuple(bool(b) for b in rng.random(10) < 0.6))
            cap = max_self_consistent_fdp(e, [w.gamma(t) for t in range(1, 11)],
                                          0.2, truth, ScoreKind.E_VALUE)
            run = OnlineEBH(w, 0.2).run(e)
            assert fdp(run.rejection_set(), truth) <= cap + 1e-12

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(48)
        for _ in range(20):
            e = list(np.exp(2.0 * rng.standard_normal(8)))
            truth = GroundTruth(tuple(bool(b) for b in rng.random(8) < 0.5))
            lo = max_self_consistent_fdp(e, [0.125] * 8, 0.05, truth,
                                         ScoreKind.E_VALUE)
            hi = max_self_consistent_fdp(e, [0.125] * 8, 0.2, truth,
                                         ScoreKind.E_VALUE)
            assert lo <= hi + 1e-12

    def test_pvalue_kind(self):
        truth = GroundTruth.from_nulls({2}, 2)
        got = max_self_consistent_fdp([0.04, 0.9], [0.5, 0.5], 0.1, truth,
                                      ScoreKind.P_VALUE)
        assert got == 0.0  # only {1} is self-consistent and 1 is non-null


class TestOnlineOfflineAgreement:
    def test_ebh_uniform_weights(self):
        rng = np.random.default_rng(49)
        for _ in range(100):
            K = int(rng.integers(1, 25))
            e = list(np.exp(2.5 * rng.standard_normal(K)))
            w = WeightSequence.uniform_finite(K)
            run = OnlineEBH(w, 0.1).run(e)
            assert set(run.rejection_set().indices) == offline_ebh(e, 0.1)
