import numpy as np
import pytest

from arcfdr.core import InputError, RejectionSet, WeightSequence
from arcfdr.e_procedures import OnlineEBH
from arcfdr.metrics import (
    FdpPath,
    GroundTruth,
    StoppingRule,
    cell_estimates,
    estimate_metrics,
    fdp,
    fdp_path_from_rejection_times,
    power,
)


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
        assert fdp_path_from_rejection_times(times, truth, 60).values.tolist() == want_path
        assert power(sorted(times), truth) == want_power
        assert fdp(sorted(times), truth) == want_path[-1]

    def test_index_beyond_the_truth(self):
        truth = GroundTruth.from_nulls({1}, 3)
        with pytest.raises(InputError, match="index 4 not covered"):
            fdp_path_from_rejection_times({1: 1, 4: 4}, truth, 4)
        with pytest.raises(InputError, match="index 4 not covered"):
            power([1, 4], truth)


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

    def test_power_no_nonnulls(self):
        t = GroundTruth.from_nulls({1, 2}, 2)
        assert power([], t) == 0.0  # 0/1 convention, no division by zero


class TestFdpPath:
    def test_sup_and_at(self):
        p = FdpPath([0.0, 0.5, 0.25])
        assert p.sup_fdp == 0.5
        assert p.sup_upto(1) == 0.0
        assert p.at(2) == 0.5

    def test_range_validated(self):
        with pytest.raises(InputError):
            FdpPath([0.0, 1.5])

    @pytest.mark.parametrize("t", [0, -1, 4])
    def test_at_outside_horizon_rejected(self, t):
        # no wrap-around: at(0) and at(-1) would read the end of the path
        with pytest.raises(InputError, match=f"t={t} outside 1..3"):
            FdpPath([0.0, 0.5, 0.25]).at(t)

    def test_from_rejection_times(self):
        # rejections: index 1 at t=2 (null), index 3 at t=3 (non-null)
        truth = GroundTruth.from_nulls({1}, 4)
        path = fdp_path_from_rejection_times({1: 2, 3: 3}, truth, 4)
        np.testing.assert_allclose(path.values, [0.0, 1.0, 0.5, 0.5])
        assert path.sup_fdp == 1.0

    def test_matches_stepwise_recomputation(self):
        rng = np.random.default_rng(31)
        w = WeightSequence.geometric(0.9)
        n = 200
        scores = np.exp(3.0 * rng.standard_normal(n) - 2.0)
        proc = OnlineEBH(w, 0.1).run([float(e) for e in scores])
        truth = GroundTruth(tuple(bool(b) for b in rng.random(n) < 0.8))
        fast = fdp_path_from_rejection_times(proc.rejection_times, truth, n)
        slow = []
        for t in range(1, n + 1):
            rej = [i for i, ti in proc.rejection_times.items() if ti <= t]
            slow.append(fdp(rej, truth))
        np.testing.assert_allclose(fast.values, slow)


class TestStoppingRule:
    def test_fixed_time(self):
        rule = StoppingRule.fixed_time(5)
        assert rule.stop_time([0, 0, 1, 1, 2, 2, 3]) == 5
        assert rule.stop_time([0, 0]) == 2  # capped at the horizon

    def test_jth_rejection(self):
        rule = StoppingRule.time_of_jth_rejection(2)
        assert rule.stop_time([0, 1, 1, 2, 3]) == 4
        assert rule.stop_time([0, 1, 1]) == 3  # never reached: the horizon

    def test_validation(self):
        with pytest.raises(InputError):
            StoppingRule.fixed_time(0)
        with pytest.raises(InputError):
            StoppingRule.time_of_jth_rejection(0)


class TestEstimateMetrics:
    def _paths(self):
        return [FdpPath([0.0, 0.5, 0.25]), FdpPath([0.0, 0.0, 0.5])]

    def test_means(self):
        out = estimate_metrics(self._paths(), power_values=[0.4, 0.6], K=2)
        assert out["fdr_at_T"][0] == pytest.approx((0.25 + 0.5) / 2)
        assert out["sup_fdr"][0] == pytest.approx(0.5)
        assert out["sup_fdr_K"][0] == pytest.approx(0.25)
        assert out["power"][0] == pytest.approx(0.5)
        for mean, se in out.values():
            assert se >= 0.0

    def test_sup_dominates_stop(self):
        rng = np.random.default_rng(33)
        paths = [FdpPath(np.minimum(1.0, np.abs(rng.random(50)))) for _ in range(20)]
        counts = [np.cumsum(rng.random(50) < 0.2) for _ in range(20)]
        rule = StoppingRule.time_of_jth_rejection(3)
        out = estimate_metrics(paths, stopping_rule=rule, rejection_counts=counts)
        assert out["sup_fdr"][0] >= out["stop_fdr"][0]

    def test_needs_two_trials(self):
        with pytest.raises(InputError):
            estimate_metrics([FdpPath([0.1])])

    def test_stop_needs_counts(self):
        with pytest.raises(InputError):
            estimate_metrics(self._paths(), stopping_rule=StoppingRule.fixed_time(1))

    def test_per_trial_lists_match_paths(self):
        paths = self._paths() + [FdpPath([0.0, 0.0, 0.0])]
        rule = StoppingRule.fixed_time(2)
        with pytest.raises(InputError, match="1 rejection_counts for 3 FDP paths"):
            estimate_metrics(paths, stopping_rule=rule, rejection_counts=[[0, 1, 1]])
        with pytest.raises(InputError, match="2 power_values for 3 FDP paths"):
            estimate_metrics(paths, power_values=[0.4, 0.6])
        out = estimate_metrics(paths, power_values=iter([0.4, 0.6, 0.5]),
                               stopping_rule=rule,
                               rejection_counts=[[0, 1, 1]] * 3)
        assert out["stop_fdr"][0] == pytest.approx(0.5 / 3)
        assert out["power"][0] == pytest.approx(0.5)


class TestCellEstimates:
    def runs(self, m=6, n=30, seed=0):
        rng = np.random.default_rng(seed)
        nulls = rng.random((m, n)) < 0.6
        times = []
        for _ in range(m):
            rejected = rng.choice(n, size=rng.integers(0, n // 2), replace=False) + 1
            times.append({int(i): int(rng.integers(i, n + 1)) for i in rejected})
        return times, nulls

    def test_equals_per_run_estimates_bit_for_bit(self):
        for seed in range(5):
            times, nulls = self.runs(seed=seed)
            truths = [GroundTruth(tuple(bool(v) for v in row)) for row in nulls]
            n = nulls.shape[1]
            paths = [fdp_path_from_rejection_times(rt, tr, n)
                     for rt, tr in zip(times, truths)]
            powers = [power(tuple(sorted(rt)), tr) for rt, tr in zip(times, truths)]
            assert cell_estimates(times, nulls) == estimate_metrics(
                paths, power_values=powers)

    def test_checks_its_input(self):
        times, nulls = self.runs()
        with pytest.raises(InputError):
            cell_estimates(times[:1], nulls[:1])  # one trial has no standard error
        with pytest.raises(InputError):
            cell_estimates(times[:-1], nulls)
        with pytest.raises(InputError):
            cell_estimates([{1: 31}] + times[1:], nulls)
