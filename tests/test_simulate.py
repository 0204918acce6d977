import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcfdr import simulate
from arcfdr.boosting import GaussianLRModel, TruncationVariant, solve_boost_factors
from arcfdr.core import ConfigError, WeightSequence
from arcfdr.e_procedures import ELond, OnlineEBH
from arcfdr.oracles import boosted_reference
from arcfdr.p_procedures import (Lond, Lord, OnlineBH, OnlineBR, OnlineStoreyBH,
                                 RLond, Saffron, ShapeFunction)
from arcfdr.simulate import (
    ALL_PROCEDURES,
    AdversarialConfig,
    E_PROCEDURES,
    GaussianSetupConfig,
    P_PROCEDURES,
    ProcedureRun,
    generate_adversarial_trial,
    generate_gaussian_trial,
    run_adversarial,
    run_experiment,
    run_trials,
    trial_rng,
)


class TestConfigValidation:
    def test_defaults_valid(self):
        cfg = GaussianSetupConfig()
        assert cfg.n == 1000 and cfg.batch_size == 20

    def test_batch_divides_n(self):
        with pytest.raises(ConfigError):
            GaussianSetupConfig(n=1000, batch_size=7)

    def test_pi_a_range(self):
        with pytest.raises(ConfigError):
            GaussianSetupConfig(pi_a=0.0)

    def test_rho_range(self):
        with pytest.raises(ConfigError):
            GaussianSetupConfig(rho=1.0)

    def test_sizes_and_signal(self):
        for kw in (dict(n=0), dict(m=0)):
            with pytest.raises(ConfigError, match="n and m must be positive"):
                GaussianSetupConfig(**kw)
        with pytest.raises(ConfigError, match="mu_a=0 must be positive"):
            GaussianSetupConfig(mu_a=0)


class TestGenerator:
    def test_shapes_and_ranges(self):
        cfg = GaussianSetupConfig(n=200, batch_size=10, seed=5)
        tr = generate_gaussian_trial(cfg, trial_rng(cfg.seed, 0))
        assert tr.z.shape == tr.x.shape == tr.evalues.shape == tr.pvalues.shape == (200,)
        assert np.all(tr.pvalues >= 0) and np.all(tr.pvalues <= 1)
        assert np.all(tr.evalues >= 0)
        assert len(tr.truth.labels) == 200

    def test_reproducible(self):
        cfg = GaussianSetupConfig(n=100, batch_size=20, seed=11)
        a = generate_gaussian_trial(cfg, trial_rng(cfg.seed, 3))
        b = generate_gaussian_trial(cfg, trial_rng(cfg.seed, 3))
        np.testing.assert_array_equal(a.z, b.z)
        np.testing.assert_array_equal(a.pvalues, b.pvalues)
        assert a.truth.labels == b.truth.labels

    def test_trials_differ(self):
        cfg = GaussianSetupConfig(n=100, batch_size=20, seed=11)
        a = generate_gaussian_trial(cfg, trial_rng(cfg.seed, 0))
        b = generate_gaussian_trial(cfg, trial_rng(cfg.seed, 1))
        assert not np.array_equal(a.z, b.z)

    def test_within_batch_correlation(self):
        cfg = GaussianSetupConfig(n=1000, batch_size=20, rho=0.5, seed=7)
        pairs = []
        for i in range(200):
            z = generate_gaussian_trial(cfg, trial_rng(cfg.seed, i)).z
            zb = z.reshape(-1, cfg.batch_size)
            pairs.append(np.mean(zb[:, 0] * zb[:, 1]))  # E = rho for pairs in batch
        mean = float(np.mean(pairs))
        se = float(np.std(pairs, ddof=1) / math.sqrt(len(pairs)))
        assert abs(mean - 0.5) <= 3.0 * se

    def test_no_correlation_at_batch_one(self):
        cfg = GaussianSetupConfig(n=1000, batch_size=1, rho=0.5, seed=8)
        pairs = []
        for i in range(200):
            z = generate_gaussian_trial(cfg, trial_rng(cfg.seed, i)).z
            pairs.append(np.mean(z[::2][:500] * z[1::2][:500]))
        mean = float(np.mean(pairs))
        se = float(np.std(pairs, ddof=1) / math.sqrt(len(pairs)))
        assert abs(mean) <= 3.0 * se

    def test_null_evalue_mean_one(self):
        cfg = GaussianSetupConfig(n=1000, batch_size=20, mu_a=3.5, seed=9)
        vals = []
        for i in range(100):
            tr = generate_gaussian_trial(cfg, trial_rng(cfg.seed, i))
            nulls = np.array([tr.truth.is_null(t) for t in range(1, cfg.n + 1)])
            vals.append(float(tr.evalues[nulls].mean()))
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        assert abs(mean - 1.0) <= 4.0 * se

    def test_p_from_z_ignores_signal(self):
        from scipy.special import ndtr
        cfg = GaussianSetupConfig(n=100, batch_size=20, p_from_z=True, seed=10)
        tr = generate_gaussian_trial(cfg, trial_rng(cfg.seed, 0))
        np.testing.assert_allclose(tr.pvalues, ndtr(-tr.z))


class TestRunTrials:
    def test_unknown_procedure(self):
        cfg = GaussianSetupConfig(n=100, batch_size=20, m=2)
        with pytest.raises(ConfigError):
            run_trials(cfg, ["nope"])

    def test_roster_complete(self):
        assert set(E_PROCEDURES) | set(P_PROCEDURES) == set(ALL_PROCEDURES)
        assert len(ALL_PROCEDURES) == 12

    def test_runs_reproducible(self):
        cfg = GaussianSetupConfig(n=200, batch_size=20, m=3, seed=12)
        a, _ = run_trials(cfg, ["oe-bh", "obh"])
        b, _ = run_trials(cfg, ["oe-bh", "obh"])
        for name in ("oe-bh", "obh"):
            for ra, rb in zip(a[name], b[name]):
                assert ra.rejection_times == rb.rejection_times
                assert ra.kstar_path == rb.kstar_path

    def test_boost_dominates_base(self):
        cache = {}
        cfg = GaussianSetupConfig(n=200, batch_size=20, m=3, pi_a=0.3, seed=13)
        runs, _ = run_trials(cfg, ["oe-bh", "oe-bh-boost"], cache=cache)
        for base, boost in zip(runs["oe-bh"], runs["oe-bh-boost"]):
            assert set(base.rejection_times) <= set(boost.rejection_times)

    def test_shared_cache_skips_the_solver(self, monkeypatch):
        names = ["oe-bh-boost", "oe-bh-boost-minus", "oe-bh-boost-local"]
        cfg = GaussianSetupConfig(n=200, batch_size=20, m=3, pi_a=0.3, seed=16)
        cache = {}
        first, _ = run_trials(cfg, names, cache=cache)
        # the local runs reach the same batch at different lags k0, and the
        # cache must keep them apart: runs on it match uncached runs
        assert first == run_trials(cfg, names)[0]

        def no_solve(*args, **kwargs):
            raise AssertionError("solver called on a warm cache")

        monkeypatch.setattr(simulate, "solve_boost_factors", no_solve)
        second, _ = run_trials(cfg, names, cache=cache)
        assert second == first

    def test_cache_holds_one_entry_per_batch_and_lag(self, monkeypatch):
        solves = []
        solve = simulate.solve_boost_factors
        monkeypatch.setattr(simulate, "solve_boost_factors",
                            lambda *a, **k: solves.append((a[1], a[3], k["lag_kstar"]))
                            or solve(*a, **k))
        cfg = GaussianSetupConfig(n=200, batch_size=20, m=4, seed=17)
        cache = {}
        run_experiment(cfg, ALL_PROCEDURES, pi_as=[0.1, 0.3], cache=cache)
        # one table, one solve of all 200 weights per boosting of one batch
        # of 1..n (plus and minus), and one read-only entry per (batch, lag)
        # of the local runs; every solve is of a local variant
        assert {v for v, _, _ in solves} <= {TruncationVariant.LOCAL_PLUS,
                                             TruncationVariant.LOCAL_MINUS}
        factors = {k: v for k, v in cache.items() if isinstance(v, np.ndarray)}
        assert len(cache) == len(factors) + 1
        assert not any(b.flags.writeable for b in factors.values())
        local = [k for k in factors if k[6] == cfg.batch_size]
        assert len(factors) == len(local) + 2
        assert all(len(factors[k]) == 20 for k in local)
        whole = [k for k in factors if k[6] == cfg.n]
        assert sorted(k[0].value for k in whole) == ["local_minus", "local_plus"]
        assert all(k[5] == 1 and k[7] == 0 and len(factors[k]) == 200 for k in whole)
        # a batched solve has at most m * batch_size = 80 targets, so the
        # 200-target solves are those of one batch of 1..n, each at lag 0
        assert [len(g) for _, g, _ in solves if len(g) == cfg.n] == [200, 200]
        assert all(np.all(lag == 0) for _, g, lag in solves if len(g) == cfg.n)
        # each (batch, lag) solved once, and at most one local solve per
        # (cell, batch): its misses at every lag of the batch together
        local_solves = [(g, lag) for _, g, lag in solves if len(g) != cfg.n]
        assert sum(len(lag) for _, lag in local_solves) == 20 * len(local)
        batches = [float(g[0]) for g, _ in local_solves]
        assert max(batches.count(b) for b in batches) <= 2
        assert len(local_solves) <= 2 * cfg.n // cfg.batch_size
        for g, lag in local_solves:
            lags = np.unique(lag)
            assert len(lag) == 20 * len(lags)
            assert all(np.sum(lag == k0) == 20 for k0 in lags)

    def test_one_batch_of_local_boosting_is_minus_boosting(self):
        # at batch_size = n every run's one lag is k* = 0, whose cap is the
        # top of the grid
        names = ["oe-bh-boost-minus", "oe-bh-boost-local"]
        for n, pi_a in ((200, 0.3), (400, 0.7)):
            cfg = GaussianSetupConfig(n=n, batch_size=n, m=4, pi_a=pi_a, seed=23)
            runs, _ = run_trials(cfg, names)
            for minus, local in zip(runs["oe-bh-boost-minus"], runs["oe-bh-boost-local"]):
                assert local.rejection_times == minus.rejection_times
                assert local.kstar_path == minus.kstar_path
            assert any(run.rejection_times for run in runs["oe-bh-boost-local"])

    def test_one_weights_array_per_run_trials_call(self, monkeypatch):
        calls = []
        gammas = WeightSequence.gammas
        monkeypatch.setattr(WeightSequence, "gammas",
                            lambda self, t, n: calls.append((t, n)) or gammas(self, t, n))
        cfg = GaussianSetupConfig(n=200, batch_size=20, m=3, pi_a=0.3, seed=19)
        run_trials(cfg, ALL_PROCEDURES)
        assert calls == [(1, 200)]
        calls.clear()
        run_experiment(cfg, ALL_PROCEDURES, pi_as=[0.1, 0.3])
        assert calls == [(1, 200)] * 2

    def test_no_cache_shares_one_dict_per_call(self, monkeypatch):
        solves = []
        solve = simulate.solve_boost_factors
        monkeypatch.setattr(simulate, "solve_boost_factors",
                            lambda *a, **k: solves.append(1) or solve(*a, **k))
        cfg = GaussianSetupConfig(n=100, batch_size=20, m=3, pi_a=0.3, seed=18)
        names = ["oe-bh-boost", "oe-bh-boost-local"]
        for call in (run_trials, run_experiment):
            solves.clear()
            cold = call(cfg, names, cache={})
            with_cache = len(solves)
            solves.clear()
            assert call(cfg, names) == cold
            assert len(solves) == with_cache

    def test_procedure_run_derives_its_path(self):
        run = ProcedureRun("obh", 5, {2: 2, 4: 4, 1: 4})
        assert run.kstar_path == [0, 1, 1, 3, 3]
        assert json.dumps(run.kstar_path) == "[0, 1, 1, 3, 3]"
        assert run.rejection_counts().tolist() == run.kstar_path
        with pytest.raises(AttributeError):
            run.kstar_path = []

    def test_rejection_counts_monotone(self):
        cfg = GaussianSetupConfig(n=200, batch_size=20, m=2, pi_a=0.3, seed=14)
        runs, _ = run_trials(cfg, ["osbh"])
        counts = runs["osbh"][0].rejection_counts()
        assert counts.shape == (200,)
        assert np.all(np.diff(counts) >= 0)

    def test_experiment_rows_schema(self):
        cfg = GaussianSetupConfig(n=100, batch_size=20, m=3, seed=15)
        rows = run_experiment(cfg, ["lond"], pi_as=[0.2, 0.4])
        assert len(rows) == 2 * 3  # two pi_a values, three metrics
        for row in rows:
            assert set(row) == {"procedure", "pi_a", "mu_a", "q", "alpha",
                                "metric", "value", "stderr", "n", "m", "seed"}
        assert {r["pi_a"] for r in rows} == {0.2, 0.4}
        assert {r["metric"] for r in rows} == {"power", "fdr", "sup_fdr"}

    def test_empty_roster(self):
        cfg = GaussianSetupConfig(n=100, batch_size=20, m=2)
        with pytest.raises(ConfigError):
            run_experiment(cfg, [])

    def test_one_trial_fails_before_any_trial_runs(self, monkeypatch):
        calls = []
        monkeypatch.setattr(simulate, "run_trials", lambda *a, **k: calls.append(a))
        cfg = GaussianSetupConfig(n=100, batch_size=20, m=1)
        with pytest.raises(ConfigError, match="m=1"):
            run_experiment(cfg, ["lond"])
        assert calls == []


class TestAdversarial:
    def test_hand_example(self):
        # K0=1, P=0.001, K=100, alpha=0.05: ceil(100*0.001/0.05) = 2, j*=1,
        # K1* = 2 - 1 = 1
        cfg = AdversarialConfig(K0=1, alpha=0.05, K=100)

        class FixedRng:
            def random(self, k):
                return np.array([0.001])

        tr = generate_adversarial_trial(cfg, FixedRng())
        assert tr.k1_star == 1
        assert tr.stop_time == 2
        assert tr.feasible
        np.testing.assert_array_equal(tr.pvalues, [0.001, 0.0])
        assert tr.truth.is_null(1) and not tr.truth.is_null(2)

    def test_infeasible_flagged(self):
        # a tiny null p-value forces K1* beyond the K - K0 budget
        cfg = AdversarialConfig(K0=1, alpha=0.05, K=2)

        class FixedRng:
            def random(self, k):
                return np.array([0.01])

        tr = generate_adversarial_trial(cfg, FixedRng())
        # ceil(2 * 0.01 / 0.05) = 1 -> K1* = 0: feasible here
        assert tr.feasible

    def test_reproducible(self):
        cfg = AdversarialConfig(K0=50, alpha=0.1, m=20, seed=3)
        a = run_adversarial(cfg)
        b = run_adversarial(cfg)
        assert a["mean_fdp"] == b["mean_fdp"]
        np.testing.assert_array_equal(a["fdps"], b["fdps"])

    def test_fdp_exceeds_alpha(self):
        # the construction is designed to push FDP well above alpha
        cfg = AdversarialConfig(K0=200, alpha=0.05, m=100, seed=4)
        out = run_adversarial(cfg)
        assert out["mean_fdp"] > cfg.alpha
        assert out["n_trials"] + out["n_infeasible"] == cfg.m

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            AdversarialConfig(K0=0, alpha=0.05)
        with pytest.raises(ConfigError):
            AdversarialConfig(K0=10, alpha=0.05, K=5)
        with pytest.raises(ConfigError, match="alpha=1 outside"):
            AdversarialConfig(K0=10, alpha=1)

    def test_every_trial_infeasible(self):
        # K = K0 leaves no room for non-nulls, and at alpha = 0.01 no trial
        # of five nulls has its sharpest stop at k1* = 0
        cfg = AdversarialConfig(K0=5, alpha=0.01, m=5, K=5)
        assert not any(generate_adversarial_trial(cfg, trial_rng(cfg.seed, i)).feasible
                       for i in range(cfg.m))
        with pytest.raises(ConfigError, match="all trials infeasible"):
            run_adversarial(cfg)


# Rejection times {index: time} and k* jumps {t: k*_t} of the boosted runs of
# run_trials(GaussianSetupConfig(n=200, m=5, seed=7), ...), trial by trial, as
# recorded before the boosting solver was vectorized.
BOOSTED_RUNS = {
    "oe-bh-boost": [
        ({2: 2, 103: 103, 111: 111, 191: 191},
         {2: 1, 103: 2, 111: 3, 191: 4}),
        ({23: 23, 52: 123, 112: 112, 123: 123, 129: 136, 136: 136},
         {23: 1, 112: 2, 123: 4, 136: 6}),
        ({21: 42, 26: 138, 35: 153, 42: 42, 138: 138, 153: 153, 170: 170, 183: 183,
          188: 190, 190: 190},
         {42: 2, 138: 4, 153: 6, 170: 7, 183: 8, 190: 10}),
        ({26: 26, 35: 103, 50: 50, 54: 54, 103: 103, 123: 123},
         {26: 1, 50: 2, 54: 3, 103: 5, 123: 6}),
        ({25: 66, 34: 66, 59: 81, 66: 66, 72: 81, 76: 76, 81: 81, 163: 163, 199: 199,
          200: 200},
         {66: 3, 76: 4, 81: 7, 163: 8, 199: 9, 200: 10}),
    ],
    "oe-bh-boost-minus": [
        ({2: 2, 103: 103, 111: 111, 191: 191},
         {2: 1, 103: 2, 111: 3, 191: 4}),
        ({23: 23, 52: 123, 59: 136, 112: 112, 123: 123, 129: 129, 136: 136},
         {23: 1, 112: 2, 123: 4, 129: 5, 136: 7}),
        ({21: 21, 26: 138, 35: 138, 42: 42, 132: 190, 138: 138, 153: 153, 170: 170,
          183: 183, 188: 188, 190: 190},
         {21: 1, 42: 2, 138: 5, 153: 6, 170: 7, 183: 8, 188: 9, 190: 11}),
        ({26: 26, 35: 54, 50: 50, 54: 54, 103: 103, 123: 123, 175: 175},
         {26: 1, 50: 2, 54: 4, 103: 5, 123: 6, 175: 7}),
        ({25: 25, 34: 66, 59: 72, 66: 66, 72: 72, 75: 199, 76: 76, 81: 81, 99: 163,
          145: 199, 163: 163, 199: 199, 200: 200},
         {25: 1, 66: 3, 72: 5, 76: 6, 81: 7, 163: 9, 199: 12, 200: 13}),
    ],
    "oe-bh-boost-local": [
        ({2: 2, 103: 103, 111: 111, 191: 191},
         {2: 1, 103: 2, 111: 3, 191: 4}),
        ({23: 23, 50: 136, 52: 112, 59: 129, 112: 112, 123: 123, 129: 129, 136: 136},
         {23: 1, 112: 3, 123: 4, 129: 6, 136: 8}),
        ({21: 21, 26: 138, 35: 138, 42: 42, 89: 190, 132: 188, 138: 138, 153: 153,
          170: 170, 172: 190, 183: 183, 188: 188, 190: 190},
         {21: 1, 42: 2, 138: 5, 153: 6, 170: 7, 183: 8, 188: 10, 190: 13}),
        ({26: 26, 35: 54, 50: 50, 54: 54, 103: 103, 123: 123, 175: 175},
         {26: 1, 50: 2, 54: 4, 103: 5, 123: 6, 175: 7}),
        ({25: 25, 34: 66, 59: 72, 66: 66, 72: 72, 75: 163, 76: 76, 81: 81, 99: 99,
          139: 163, 145: 145, 163: 163, 199: 199, 200: 200},
         {25: 1, 66: 3, 72: 5, 76: 6, 81: 7, 99: 8, 145: 9, 163: 12, 199: 13, 200: 14}),
    ],
}


def test_boosted_runs_pinned():
    """A solver change that flips one boosted decision fails here."""
    cfg = GaussianSetupConfig(n=200, m=5, seed=7)
    runs, _ = run_trials(cfg, list(BOOSTED_RUNS))
    for name, pinned in BOOSTED_RUNS.items():
        for i, (run, (times, jumps)) in enumerate(zip(runs[name], pinned)):
            path, k = [], 0
            for t in range(1, cfg.n + 1):
                k = jumps.get(t, k)
                path.append(k)
            assert run.rejection_times == times, (name, i)
            assert run.kstar_path == path, (name, i)


def per_trial_run(name, cfg, trial, solved):
    """One procedure on one trial through run(), with its own factor solves
    (one lag per call, memoized in ``solved``)."""
    weights = WeightSequence.geometric(cfg.q)
    alpha, n = cfg.alpha, cfg.n
    model = GaussianLRModel(cfg.mu_a)
    e, p = trial.evalues, trial.pvalues
    by = ShapeFunction.by(n)
    if name == "oe-bh-boost-local":
        proc, bsz = OnlineEBH(weights, alpha), cfg.batch_size
        for start in range(0, n, bsz):
            key = (start, proc.k_star)
            if key not in solved:
                solved[key] = solve_boost_factors(
                    model, TruncationVariant.LOCAL_MINUS, alpha,
                    weights.gammas(start + 1, bsz), n, lag_kstar=proc.k_star)
            proc.run(solved[key] * e[start:start + bsz])
        return proc
    if name in ("oe-bh-boost", "oe-bh-boost-minus"):
        variant = (TruncationVariant.PLUS if name == "oe-bh-boost"
                   else TruncationVariant.MINUS)
        if variant not in solved:
            solved[variant] = solve_boost_factors(model, variant, alpha,
                                                  weights.gammas(1, n), n)
        return OnlineEBH(weights, alpha).run(solved[variant] * e)
    make = {"oe-bh": lambda: OnlineEBH(weights, alpha).run(e),
            "e-lond": lambda: ELond(weights, alpha).run(e),
            "obh": lambda: OnlineBH(weights, alpha).run(p),
            "lond": lambda: Lond(weights, alpha).run(p),
            "r-lond": lambda: RLond(weights, alpha, by).run(p),
            "obr": lambda: OnlineBR(weights, alpha, by).run(p),
            "osbh": lambda: OnlineStoreyBH(weights, alpha, cfg.lam).run(p),
            "lord": lambda: Lord(weights, alpha).run(p),
            "saffron": lambda: Saffron(weights, alpha, cfg.lam).run(p)}
    return make[name]()


@pytest.mark.parametrize("seed", [1, 7, 11])
@pytest.mark.parametrize("pi_a", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("n", [200, 1000])
def test_procedure_major_equals_per_trial_runs(seed, pi_a, n):
    """run_trials runs each procedure over a cell's trials at once, and
    boost-local solves in lockstep across them; each run equals the same
    procedure's run() on its trial alone.  Below n = 1000 the whole roster
    is checked, at n = 1000 boost-local."""
    names = list(ALL_PROCEDURES) if n == 200 else ["oe-bh-boost-local"]
    cfg = GaussianSetupConfig(n=n, m=3, pi_a=pi_a, seed=seed)
    runs, truths = run_trials(cfg, names)
    solved = {}
    for i in range(cfg.m):
        trial = generate_gaussian_trial(cfg, trial_rng(cfg.seed, i))
        assert truths[i] == trial.truth
        for name in names:
            want = per_trial_run(name, cfg, trial, solved)
            assert runs[name][i].rejection_times == want.rejection_times, (name, i)


BOOSTED_VARIANTS = {"oe-bh-boost": TruncationVariant.PLUS,
                    "oe-bh-boost-minus": TruncationVariant.MINUS,
                    "oe-bh-boost-local": TruncationVariant.LOCAL_MINUS}


@given(st.integers(0, 2 ** 32 - 1), st.floats(0.05, 0.95), st.floats(2.0, 5.0))
@settings(max_examples=20, deadline=None)
def test_boosted_runs_equal_their_definition(seed, pi_a, mu_a):
    """The boosted runs feed b_t E_t to online e-BH, without truncation or
    the lag cap; at every t they equal e-BH on the truncated values."""
    cfg = GaussianSetupConfig(n=40, m=2, batch_size=10, pi_a=pi_a, mu_a=mu_a,
                              seed=seed)
    cache = {}
    runs, _ = run_trials(cfg, list(BOOSTED_VARIANTS), cache=cache)
    trials = [generate_gaussian_trial(cfg, trial_rng(cfg.seed, i)) for i in range(cfg.m)]
    cell = simulate._Cell(cfg, trials, cache)
    gammas = cell.gammas
    # the harness runs plus and minus boosting as local_plus and local_minus
    # in one batch of 1..n, at lag 0
    local = {TruncationVariant.PLUS: TruncationVariant.LOCAL_PLUS,
             TruncationVariant.MINUS: TruncationVariant.LOCAL_MINUS}

    def batched(start, k0):
        return cell.boost_factors(TruncationVariant.LOCAL_MINUS, start, cfg.batch_size,
                                  [k0])[k0]

    def whole(variant):
        return lambda start, k0: cell.boost_factors(local[variant], 0, cfg.n, [0])[0]

    for i, trial in enumerate(trials):
        e = trial.evalues
        for name, variant in BOOSTED_VARIANTS.items():
            if variant is TruncationVariant.LOCAL_MINUS:
                factors, batch = batched, cfg.batch_size
            else:
                factors, batch = whole(variant), None
            times, path = boosted_reference(e, gammas, cfg.alpha, variant, factors, batch)
            assert runs[name][i].rejection_times == times, (name, i)
            assert runs[name][i].kstar_path == path, (name, i)
