import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcfdr.core import (
    ConfigError,
    InputError,
    Score,
    ScoreKind,
    WeightSequence,
    is_self_consistent,
)
from arcfdr.e_procedures import DeadlineSchedule, ELond, EToad, OnlineEBH


def run_paths(proc, scores):
    """Feed one by one, returning the list of per-step rejection index sets."""
    return [set(proc.step(s).indices) for s in scores]


class TestOnlineEBH:
    def test_boundary_equality_rejects(self):
        w = WeightSequence.uniform_finite(1)
        proc = OnlineEBH(w, 0.1)
        r = proc.step(1.0 / (0.1 * 1.0))
        assert set(r.indices) == {1} and proc.k_star == 1

    def test_hand_example(self):
        w = WeightSequence.explicit([0.5, 0.5])
        proc = OnlineEBH(w, 0.1)
        assert set(proc.step(10.0).indices) == set()
        r = proc.step(30.0)
        assert set(r.indices) == {1, 2} and proc.k_star == 2
        assert set(proc.newly_rejected) == {1, 2}

    def test_run_sets_newly_rejected(self):
        proc = OnlineEBH(WeightSequence.uniform_finite(3), 0.5).run([100.0] * 3)
        assert proc.newly_rejected == (3,)
        proc = OnlineEBH(WeightSequence.explicit([0.5, 0.5]), 0.1)
        proc.step(10.0)
        assert proc.run([30.0]).newly_rejected == (1, 2)  # joint rejection
        proc.run([0.0])
        assert proc.newly_rejected == ()  # not the earlier step's
        proc.run([])
        assert proc.newly_rejected == ()

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5, math.nan])
    def test_alpha_outside_the_unit_interval(self, alpha):
        with pytest.raises(ConfigError, match="outside \\(0, 1\\]"):
            OnlineEBH(WeightSequence.geometric(0.9), alpha)

    def test_kind_enforced(self):
        proc = OnlineEBH(WeightSequence.geometric(0.9), 0.1)
        with pytest.raises(InputError):
            proc.step(Score(0.5, ScoreKind.P_VALUE))
        with pytest.raises(InputError):
            proc.step(-1.0)

    def test_infinite_evalue(self):
        proc = OnlineEBH(WeightSequence.geometric(0.9), 0.1)
        assert set(proc.step(math.inf).indices) == {1}

    def test_rejection_count_equals_kstar(self):
        rng = np.random.default_rng(5)
        proc = OnlineEBH(WeightSequence.geometric(0.95), 0.1)
        for e in np.exp(2.0 * rng.standard_normal(300) - 2.0):
            r = proc.step(float(e))
            assert len(r) == proc.k_star

    def test_kstar_gap_jump(self):
        # needs (3, 3, 3): no k in {1, 2} works, k = 3 does; the step-up
        # must find the max fixpoint, not the smallest
        w = WeightSequence.uniform_finite(3)
        e = 1.0 / (3 * (0.1 * (1 / 3)))  # need exactly 3 at alpha=0.1, gamma=1/3
        proc = OnlineEBH(w, 0.1)
        paths = run_paths(proc, [e, e, e])
        assert paths == [set(), set(), {1, 2, 3}]
        assert proc.kstar_path == [0, 0, 3]

    def test_nested_and_self_consistent(self):
        rng = np.random.default_rng(7)
        w = WeightSequence.geometric(0.9)
        proc = OnlineEBH(w, 0.1)
        scores = list(np.exp(3.0 * rng.standard_normal(100) - 4.5))
        prev = set()
        for t, e in enumerate(scores, start=1):
            cur = set(proc.step(float(e)).indices)
            assert prev <= cur
            assert is_self_consistent(cur, scores[:t], w, 0.1, kind=ScoreKind.E_VALUE)
            prev = cur

    def test_maximality_small_streams(self):
        # R_t is the largest self-consistent subset, by exhaustive enumeration
        rng = np.random.default_rng(11)
        w = WeightSequence.uniform_finite(8)
        for _ in range(30):
            scores = list(np.exp(2.5 * rng.standard_normal(8) - 3.125))
            proc = OnlineEBH(w, 0.2).run(scores)
            got = set(proc.rejection_set().indices)
            best = set()
            for r in range(1, 9):
                for comb in itertools.combinations(range(1, 9), r):
                    if is_self_consistent(comb, scores, w, 0.2,
                                          kind=ScoreKind.E_VALUE):
                        if len(comb) > len(best):
                            best = set(comb)
            assert len(got) == len(best) and got == (best if best else got)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=2,
                    max_size=15),
           st.integers(0, 14), st.floats(min_value=1.1, max_value=10.0))
    @settings(max_examples=100)
    def test_monotone_in_scores(self, evalues, which, factor):
        which = which % len(evalues)
        w = WeightSequence.geometric(0.8)
        base = OnlineEBH(w, 0.1)
        base_paths = run_paths(base, evalues)
        raised = list(evalues)
        raised[which] *= factor
        up = OnlineEBH(w, 0.1)
        up_paths = run_paths(up, raised)
        for b, u in zip(base_paths, up_paths):
            assert b <= u


class TestELond:
    def test_boundary(self):
        w = WeightSequence.uniform_finite(1)
        proc = ELond(w, 0.1)
        assert set(proc.step(1.0 / 0.1).indices) == {1}

    def test_hand_example(self):
        w = WeightSequence.explicit([0.5, 0.5])
        proc = ELond(w, 0.1)
        assert set(proc.step(10.0).indices) == set()
        assert set(proc.step(30.0).indices) == {2}

    def test_irreversible(self):
        w = WeightSequence.geometric(0.5)
        proc = ELond(w, 0.1)
        seen = [set(proc.step(e).indices) for e in (1.0, 1e6, 1e6, 0.0)]
        for a, b in zip(seen, seen[1:]):
            assert a <= b

    def test_dominated_by_oebh(self):
        rng = np.random.default_rng(3)
        w = WeightSequence.geometric(0.9)
        scores = list(np.exp(3.0 * rng.standard_normal(200) - 4.5))
        lond = ELond(w, 0.1)
        ebh = OnlineEBH(w, 0.1)
        for e in scores:
            rl = set(lond.step(float(e)).indices)
            rb = set(ebh.step(float(e)).indices)
            assert rl <= rb


class TestEToad:
    def test_unbounded_matches_oebh(self):
        rng = np.random.default_rng(9)
        w = WeightSequence.geometric(0.9)
        scores = list(np.exp(3.0 * rng.standard_normal(120) - 4.5))
        toad = EToad(w, 0.1, DeadlineSchedule.unbounded())
        ebh = OnlineEBH(w, 0.1)
        for e in scores:
            assert set(toad.step(float(e)).indices) == set(ebh.step(float(e)).indices)

    def test_immediate_matches_elond(self):
        rng = np.random.default_rng(10)
        w = WeightSequence.geometric(0.9)
        scores = list(np.exp(3.0 * rng.standard_normal(120) - 4.5))
        toad = EToad(w, 0.1, DeadlineSchedule.immediate())
        lond = ELond(w, 0.1)
        for e in scores:
            assert set(toad.step(float(e)).indices) == set(lond.step(float(e)).indices)

    def test_frozen_decision_not_resurrected(self):
        # d = (1, inf, inf): H_1 needs k >= 2 but freezes at t=1 with k* <= 1,
        # so later k* growth cannot resurrect it
        w = WeightSequence.uniform_finite(3)
        alpha = 0.1
        e1 = 1.0 / (2 * alpha * (1 / 3))  # need exactly 2
        big = 1.0 / (alpha * (1 / 3))     # need 1
        toad = EToad(w, alpha, DeadlineSchedule.explicit([1, math.inf, math.inf]))
        assert set(toad.step(e1).indices) == set()
        assert set(toad.step(big).indices) == {2}
        r3 = set(toad.step(big).indices)
        assert 1 not in r3 and r3 == {2, 3}
        # the unbounded-deadline run would have rejected index 1 here
        ebh = OnlineEBH(w, alpha).run([e1, big, big])
        assert set(ebh.rejection_set().indices) == {1, 2, 3}

    def test_nested(self):
        rng = np.random.default_rng(12)
        w = WeightSequence.geometric(0.9)
        toad = EToad(w, 0.1, DeadlineSchedule.explicit(
            [t + 5 for t in range(1, 101)]))
        prev = set()
        for e in np.exp(3.0 * rng.standard_normal(100) - 4.5):
            cur = set(toad.step(float(e)).indices)
            assert prev <= cur
            prev = cur

    def test_deadline_before_arrival_rejected(self):
        sched = DeadlineSchedule.explicit([0])
        toad = EToad(WeightSequence.geometric(0.9), 0.1, sched)
        with pytest.raises(Exception):
            toad.step(1.0)

    def test_nan_deadline_refused(self):
        # a NaN d_1 would sit on top of the expiry heap and hold back every
        # later expiry: d_2 and d_3 would be rejected at t = 4, past them
        sched = DeadlineSchedule.explicit([math.nan, 2, 3, 4, 5, 6])
        toad = EToad(WeightSequence.uniform_finite(6), 0.5, sched)
        with pytest.raises(ConfigError, match=r"d_1=nan"):
            toad.run([1, 4, 4, 4, 4, 4])
        assert toad.t == 0 and toad.rejection_times == {}
        with pytest.raises(ConfigError, match=r"d_1=nan"):
            toad.step(1.0)


class TestDerivedHistory:
    """k* and the k* path are read from the rejection times, not stored."""

    def test_read_only(self):
        proc = OnlineEBH(WeightSequence.uniform_finite(3), 0.5).run([100.0])
        with pytest.raises(AttributeError):
            proc.k_star = 5
        with pytest.raises(AttributeError):
            proc.kstar_path = [5]
        assert proc.k_star == 1 and proc.kstar_path == [1]

    def test_path_is_json_ints(self):
        e = 1.0 / (3 * (0.1 * (1 / 3)))  # need exactly 3
        proc = OnlineEBH(WeightSequence.uniform_finite(3), 0.1).run([e] * 3)
        assert json.dumps(proc.kstar_path) == "[0, 0, 3]"
        assert json.dumps(OnlineEBH(WeightSequence.uniform_finite(3), 0.1).kstar_path) == "[]"

    def test_path_continues_across_runs(self):
        rng = np.random.default_rng(13)
        w = WeightSequence.geometric(0.99)
        z = rng.standard_normal(300) + 4.0 * (rng.random(300) < 0.2)
        e = list(np.exp(4.0 * z - 8.0))
        a, b = e[:150], e[150:]
        deadlines = DeadlineSchedule.explicit([t + 7 for t in range(1, 301)])
        whole, split = EToad(w, 0.2, deadlines), EToad(w, 0.2, deadlines)
        whole.run(a + b)
        split.run(a).run(b)
        assert split.kstar_path == whole.kstar_path
        assert split.rejection_times == whole.rejection_times
        assert split.k_star == whole.kstar_path[-1] > 0
