import numpy as np
import pytest

from arcfdr.core import InputError, RejectionSet, WeightSequence
from arcfdr.e_procedures import OnlineEBH
from arcfdr.metrics import (
    GroundTruth,
    StoppingRule,
    cell_estimates,
    fdp,
    power,
    rejection_counts,
)
from arcfdr.oracles import cell_estimates_reference


class TestGroundTruth:
    def test_from_nulls(self):
        t = GroundTruth.from_nulls({2, 4}, 4)
        assert t.is_null(2) and t.is_null(4)
        assert not t.is_null(1) and not t.is_null(3)
        assert t.n_nulls == 2 and t.n_nonnulls == 2

    def test_out_of_range(self):
        t = GroundTruth.from_nulls({1}, 2)
        with pytest.raises(InputError):
            t.is_null(3)

    @pytest.mark.parametrize("nulls, bad", [({0, 5, 2}, 0), ([2, 4, 1], 4), ([-1], -1)])
    def test_null_index_outside_the_stream(self, nulls, bad):
        with pytest.raises(InputError, match=f"null index {bad} outside 1..3"):
            GroundTruth.from_nulls(nulls, 3)


class TestNullMask:
    def test_nulls_at_reads_is_null(self):
        t = GroundTruth.from_nulls({2, 4, 5}, 6)
        idx = [5, 1, 2, 6, 2]
        assert t.nulls_at(idx).tolist() == [t.is_null(i) for i in idx]
        assert t.nulls_at([]).tolist() == []
        for bad in ([3, 7], [0], [2, -1]):
            with pytest.raises(InputError, match=f"index {bad[-1]} not covered"):
                t.nulls_at(bad)

    def test_metrics_match_a_per_index_count(self, monkeypatch):
        rng = np.random.default_rng(5)
        labels = tuple(bool(b) for b in rng.random(60) < 0.7)
        truth = GroundTruth(labels)
        times = {int(i): int(rng.integers(i, 61)) for i in rng.choice(np.arange(1, 61), 25, replace=False)}
        want_path = []
        for t in range(1, 61):
            rejected = [i for i, s in times.items() if s <= t]
            want_path.append(sum(labels[i - 1] for i in rejected) / max(1, len(rejected)))
        want_power = sum(not labels[i - 1] for i in times) / (60 - sum(labels))

        def no_per_index(self, i):
            raise AssertionError("is_null read per index")

        monkeypatch.setattr(GroundTruth, "is_null", no_per_index)
        assert [fdp([i for i, s in times.items() if s <= t], truth)
                for t in range(1, 61)] == want_path
        assert power(sorted(times), truth) == want_power
        assert fdp(sorted(times), truth) == want_path[-1]

    def test_index_beyond_the_truth(self):
        truth = GroundTruth.from_nulls({1}, 3)
        with pytest.raises(InputError, match="index 4 not covered"):
            fdp([1, 4], truth)
        with pytest.raises(InputError, match="index 4 not covered"):
            power([1, 4], truth)


class TestRejectionCounts:
    def test_counts_by_time(self):
        assert rejection_counts({2: 1, 1: 3, 4: 3}, 4).tolist() == [1, 1, 3, 3]
        assert rejection_counts({}, 2).tolist() == [0, 0]

    @pytest.mark.parametrize("times, bad", [({1: 1, 2: 5}, 5), ({1: 0}, 0)])
    def test_time_outside_the_stream(self, times, bad):
        with pytest.raises(InputError, match=f"rejection time {bad} outside 1..4"):
            rejection_counts(times, 4)


class TestFdpPower:
    def test_empty_rejections(self):
        t = GroundTruth.from_nulls({1}, 3)
        assert fdp([], t) == 0.0

    def test_one_false_of_three(self):
        t = GroundTruth.from_nulls({2}, 3)
        assert fdp([1, 2, 3], t) == pytest.approx(1.0 / 3.0)

    def test_all_null(self):
        t = GroundTruth.from_nulls({1, 2}, 2)
        assert fdp([1, 2], t) == 1.0

    def test_accepts_rejection_set(self):
        t = GroundTruth.from_nulls({2}, 3)
        assert fdp(RejectionSet((1, 2), 3), t) == 0.5

    def test_power(self):
        t = GroundTruth.from_nulls({2}, 4)  # non-nulls 1, 3, 4
        assert power([1, 2], t) == pytest.approx(1.0 / 3.0)
        assert power([], t) == 0.0

    def test_index_given_twice(self):
        t = GroundTruth((False, True, True))
        with pytest.raises(InputError, match="index 1 is given twice"):
            power((1, 1), t)
        with pytest.raises(InputError, match="index 2 is given twice"):
            fdp((1, 2, 2), t)
        assert power((1,), t) == 1.0 and fdp((1, 2), t) == 0.5

    def test_power_no_nonnulls(self):
        t = GroundTruth.from_nulls({1, 2}, 2)
        assert power([], t) == 0.0  # 0/1 convention, no division by zero


class TestStoppingRule:
    def test_fixed_time(self):
        rule = StoppingRule.fixed_time(5)
        assert rule.stop_times([[0, 0, 1, 1, 2, 2, 3], [0] * 7]).tolist() == [5, 5]
        assert rule.stop_times([[0, 0]]).tolist() == [2]  # capped at the horizon

    def test_jth_rejection(self):
        rule = StoppingRule.time_of_jth_rejection(2)
        assert rule.stop_times([[0, 1, 1, 2, 3], [2, 2, 2, 2, 2]]).tolist() == [4, 1]
        assert rule.stop_times([[0, 1, 1]]).tolist() == [3]  # never reached: the horizon

    def test_validation(self):
        with pytest.raises(InputError, match="T=0"):
            StoppingRule.fixed_time(0)
        with pytest.raises(InputError, match="j=0"):
            StoppingRule.time_of_jth_rejection(0)


class TestCellEstimates:
    def runs(self, m=6, n=30, seed=0):
        rng = np.random.default_rng(seed)
        nulls = rng.random((m, n)) < 0.6
        times = []
        for _ in range(m):
            rejected = rng.choice(n, size=rng.integers(0, n // 2), replace=False) + 1
            times.append({int(i): int(rng.integers(i, n + 1)) for i in rejected})
        return times, nulls

    def test_two_runs_by_hand(self):
        # run 0: index 1 (null) at t=2, index 3 at t=3 -> FDP 0, 1, 1/2, 1/2
        # run 1: index 1 at t=1, index 2 (null) at t=4 -> FDP 0, 0, 0, 1/2
        nulls = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=bool)
        times = [{1: 2, 3: 3}, {1: 1, 2: 4}]
        out = cell_estimates(times, nulls, K=2, stopping_rule=StoppingRule.fixed_time(3))
        assert out["fdr_at_T"][0] == 0.5 and out["fdr_at_T"][1] == 0.0
        assert out["sup_fdr"][0] == 0.75
        assert out["sup_fdr_K"][0] == 0.5
        assert cell_estimates(times, nulls, K=1)["sup_fdr_K"] == (0.0, 0.0)
        assert out["stop_fdr"][0] == 0.25
        assert out["power"][0] == pytest.approx(1.0 / 3.0)
        for rule, want in ((StoppingRule.fixed_time(9), 0.5),  # capped at t=4
                           (StoppingRule.time_of_jth_rejection(2), 0.5),
                           (StoppingRule.time_of_jth_rejection(3), 0.5)):  # the horizon
            assert cell_estimates(times, nulls, stopping_rule=rule)["stop_fdr"][0] == want

    def test_returns_the_extras_only_on_request(self):
        times, nulls = self.runs()
        assert set(cell_estimates(times, nulls)) == {"fdr_at_T", "sup_fdr", "power"}
        out = cell_estimates(times, nulls, K=3, stopping_rule=StoppingRule.fixed_time(3))
        assert set(out) == {"fdr_at_T", "sup_fdr", "power", "sup_fdr_K", "stop_fdr"}
        for mean, se in out.values():
            assert se >= 0.0

    EXTRAS = [{}, {"K": 5, "stopping_rule": StoppingRule.time_of_jth_rejection(3)},
              {"K": 40, "stopping_rule": StoppingRule.fixed_time(12)},
              {"K": 1, "stopping_rule": StoppingRule.time_of_jth_rejection(1)}]

    def test_equals_per_run_estimates_bit_for_bit(self):
        for seed in range(30):
            times, nulls = self.runs(seed=seed)
            truths = [GroundTruth(tuple(bool(v) for v in row)) for row in nulls]
            for extras in self.EXTRAS:
                assert cell_estimates(times, nulls, **extras) == cell_estimates_reference(
                    times, truths, nulls.shape[1], **extras)

    def test_matches_stepwise_recomputation(self):
        # e-values of mean 1 under the null, large under the alternative
        rng = np.random.default_rng(31)
        w = WeightSequence.geometric(0.99)
        n, m = 200, 4
        nulls = rng.random((m, n)) < 0.8
        scores = np.exp(3.0 * rng.standard_normal((m, n)) - 4.5 + 9.0 * ~nulls)
        times = [OnlineEBH(w, 0.5).run([float(e) for e in row]).rejection_times
                 for row in scores]
        truths = [GroundTruth(tuple(bool(v) for v in row)) for row in nulls]
        assert min(map(len, times)) >= 3
        for extras in self.EXTRAS:
            assert cell_estimates(times, nulls, **extras) == cell_estimates_reference(
                times, truths, n, **extras)

    def test_sup_dominates_stop(self):
        times, nulls = self.runs(m=20, n=50, seed=33)
        for rule in (StoppingRule.time_of_jth_rejection(3), StoppingRule.fixed_time(20)):
            out = cell_estimates(times, nulls, stopping_rule=rule)
            assert out["sup_fdr"][0] >= out["stop_fdr"][0]

    def test_nulls_are_a_boolean_matrix(self):
        times = [{1: 2, 3: 3}, {1: 1, 2: 4}]
        mask = [[True, False, False, False], [False, True, False, False]]
        assert cell_estimates(times, mask) == cell_estimates(times, np.array(mask))
        # a 0/1 mask would index the runs' rows by its values
        for nulls in (np.array(mask, dtype=int), [[1, 0, 0, 0], [0, 1, 0, 0]],
                      np.array(mask[0]), np.array([mask])):
            with pytest.raises(InputError, match="expected a 2-D boolean array"):
                cell_estimates(times, nulls)

    def test_checks_its_input(self):
        times, nulls = self.runs()
        with pytest.raises(InputError, match="at least 2 trials"):
            cell_estimates(times[:1], nulls[:1])  # one trial has no standard error
        with pytest.raises(InputError):
            cell_estimates(times[:-1], nulls)
        with pytest.raises(InputError):
            cell_estimates([{1: 31}] + times[1:], nulls)
        for K in (0, -1):
            with pytest.raises(InputError, match=f"K={K} must be >= 1"):
                cell_estimates(times, nulls, K=K)
