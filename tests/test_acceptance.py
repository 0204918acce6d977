"""Acceptance gate: ten end-to-end criteria, one printed pass/fail line each.

Shared Monte-Carlo grids are computed once in module-scoped fixtures; every
criterion prints `CRITERION <n> PASS/FAIL: ...` directly to the terminal so
the verdicts survive output capture.
"""

import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from arcfdr.boosting import GaussianLRModel, TruncationSpec, TruncationVariant, solve_boost_factor
from arcfdr.core import (
    ScoreKind,
    WeightSequence,
    minimal_k_evalue,
    minimal_k_pvalue,
)
from arcfdr.e_procedures import OnlineEBH
from arcfdr.metrics import (
    GroundTruth,
    StoppingRule,
    cell_estimates,
    fdp,
    power,
)
from arcfdr.oracles import (
    max_self_consistent_fdp,
    offline_bh,
    offline_ebh,
    offline_storey_bh,
    weighted_bh,
    weighted_simes,
)
from arcfdr.p_procedures import OnlineBH, OnlineStoreyBH
from arcfdr.simulate import (
    AdversarialConfig,
    GaussianSetupConfig,
    generate_gaussian_trial,
    run_adversarial,
    run_trials,
    trial_rng,
)

PI_GRID = [round(0.1 * i, 1) for i in range(1, 10)]


_CAPSYS = None


@pytest.fixture(autouse=True)
def _expose_capsys(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def report(num: int, ok: bool, detail: str):
    line = f"CRITERION {num} {'PASS' if ok else 'FAIL'}: {detail}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def solver_cache():
    return {}


@pytest.fixture(scope="module")
def s6_default(solver_cache):
    """The default batch-correlated setup, the boosted runs too."""
    cfg = GaussianSetupConfig()  # n=1000, m=100, mu=3.5, b=20, q=0.99, a=0.05
    t0 = time.perf_counter()
    runs, truths = run_trials(cfg, ["oe-bh", "e-lond", "obh", "lond", "obr", "r-lond",
                                    "oe-bh-boost", "oe-bh-boost-minus", "oe-bh-boost-local"],
                              cache=solver_cache)
    return cfg, runs, truths, time.perf_counter() - t0


@pytest.fixture(scope="module")
def s6_independent():
    """Same setup with batch size 1: independent p-values."""
    cfg = GaussianSetupConfig(batch_size=1)
    t0 = time.perf_counter()
    runs, truths = run_trials(cfg, ["obh", "osbh", "lord", "saffron"])
    return cfg, runs, truths, time.perf_counter() - t0


@pytest.fixture(scope="module")
def power_grid(solver_cache):
    """Power runs over pi_A in {0.1..0.9} x mu_A in {3.5, 4.5}."""
    out = {}
    for mu in (3.5, 4.5):
        for pi in PI_GRID:
            cfg = GaussianSetupConfig(mu_a=mu, pi_a=pi)
            runs, truths = run_trials(
                cfg, ["oe-bh", "e-lond", "oe-bh-boost", "oe-bh-boost-local"],
                cache=solver_cache)
            powers = {name: np.array([power(r.final_rejections, tr)
                                      for r, tr in zip(rs, truths)])
                      for name, rs in runs.items()}
            out[(mu, pi)] = (runs, powers)
    return out


def _dominates(sup: dict, sub: dict) -> bool:
    """R_t(sub) subset of R_t(sup) at every t, via first-rejection times."""
    return all(i in sup and sup[i] <= t for i, t in sub.items())


def test_criterion_1_offline_equivalence():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    mismatches = 0
    checked = 0
    for K in (5, 50, 500):
        weights = WeightSequence.uniform_finite(K)
        for _ in range(1000):
            p = rng.random(K)
            e = np.exp(2.5 * rng.standard_normal(K) - 3.125)
            pairs = (
                (set(OnlineBH(weights, 0.1).run(p).rejection_set().indices),
                 offline_bh(p, 0.1)),
                (set(OnlineEBH(weights, 0.1).run(e).rejection_set().indices),
                 offline_ebh(e, 0.1)),
                (set(OnlineStoreyBH(weights, 0.1, 0.5).run(p).rejection_set().indices),
                 offline_storey_bh(p, 0.1, 0.5)),
            )
            mismatches += sum(1 for online, offline in pairs if online != offline)
            checked += len(pairs)
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    report(1, ok, f"offline equivalence, {checked} comparisons, "
                  f"{mismatches} mismatches, {elapsed:.1f}s (< 10s)")


def test_criterion_2_domination(s6_default):
    _, runs, _, _ = s6_default
    violations = 0
    for eb, el, pb, pl in zip(runs["oe-bh"], runs["e-lond"],
                              runs["obh"], runs["lond"]):
        if not _dominates(eb.rejection_times, el.rejection_times):
            violations += 1
        if not _dominates(pb.rejection_times, pl.rejection_times):
            violations += 1
    report(2, violations == 0,
           f"e-LOND within oe-BH and LOND within oBH at every t of "
           f"{len(runs['oe-bh'])} runs, {violations} violations")


def test_criterion_3_nested_self_consistent(s6_default):
    cfg, runs, _, _ = s6_default
    bad_nested = bad_sc = 0
    for i in range(cfg.m):
        trial = generate_gaussian_trial(cfg, trial_rng(cfg.seed, i))
        gammas = cfg.q ** (np.arange(cfg.n)) * (1.0 - cfg.q)
        for name in ("oe-bh", "e-lond", "obh", "lond"):
            ks = runs[name][i].kstar_path
            if any(a > b for a, b in zip(ks, ks[1:])):
                bad_nested += 1
        # self-consistency of the step-up runs: |R_t| = k*_t at every t, and
        # every rejected index clears the threshold of the k* at its rejection
        # time (k* nondecreasing then extends this to all later t)
        for name, values, need_fn in (("oe-bh", trial.evalues, minimal_k_evalue),
                                      ("obh", trial.pvalues, minimal_k_pvalue)):
            run = runs[name][i]
            counts = run.rejection_counts()
            path = run.kstar_path  # counted on each read, so read it once
            if not np.array_equal(counts, np.asarray(path)):
                bad_sc += 1
                continue
            for idx, t in run.rejection_times.items():
                need = need_fn(float(values[idx - 1]), cfg.alpha,
                               float(gammas[idx - 1]))
                if not need <= path[t - 1]:
                    bad_sc += 1
                    break
    ok = bad_nested == 0 and bad_sc == 0
    report(3, ok, f"nestedness and per-step self-consistency over {cfg.m} runs, "
                  f"{bad_nested} nestedness / {bad_sc} consistency violations")


def test_criterion_4_golden_boost_factors():
    golden = [
        (TruncationVariant.PLUS, 10, None, 1.165, 0.005),
        (TruncationVariant.PLUS, 100, None, 1.174, 0.005),
        (TruncationVariant.MINUS, 10, None, 3.071, 0.01),
        (TruncationVariant.MINUS, 100, None, 1.730, 0.01),
        (TruncationVariant.LOCAL_PLUS, 100, 2, 1.265, 0.01),
        (TruncationVariant.LOCAL_PLUS, 100, 10, 1.541, 0.01),
        (TruncationVariant.LOCAL_MINUS, 100, 2, 1.940, 0.01),
        (TruncationVariant.LOCAL_MINUS, 100, 10, 2.639, 0.01),
    ]
    model = GaussianLRModel(3.0)
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for variant, s, lag, want, tol in golden:
        spec = TruncationSpec(variant, 0.05, 0.01, s=s, lag_kstar=lag)
        b = solve_boost_factor(model, spec)
        worst = max(worst, abs(b - want) / tol)
        ok = ok and abs(b - want) <= tol
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(4, ok, f"8 reference boosting factors within tolerance "
                  f"(worst {worst:.2f}x tol), {elapsed * 1000:.0f}ms (< 1s)")


def test_criterion_5_fdr_bounds(s6_default, s6_independent):
    cfg, runs, truths, t_dep = s6_default
    cfg_ind, runs_ind, truths_ind, t_ind = s6_independent

    def estimates(rs, trs):
        """cell_estimates with FDR at tau_10 and tau_20, the times of the
        10th and 20th rejection, on the null mask run_experiment builds."""
        nulls = np.array([tr.labels for tr in trs], dtype=bool)
        times = [r.rejection_times for r in rs]
        return [cell_estimates(times, nulls,
                               stopping_rule=StoppingRule.time_of_jth_rejection(j))
                for j in (10, 20)]

    e_est = estimates(runs["oe-bh"], truths)
    p_est = estimates(runs_ind["obh"], truths_ind)
    # the rest of the default run: the batch-correlated setup is PRDS, and
    # e-LOND, the boosted runs (valid e-values), and oBR and r-LOND with
    # their BY shape, hold under arbitrary dependence
    dep_est = [(label, estimates(runs[name], truths))
               for label, name in (("oBH", "obh"), ("e-LOND", "e-lond"), ("LOND", "lond"),
                                   ("oBR", "obr"), ("r-LOND", "r-lond"),
                                   ("plus-boost", "oe-bh-boost"),
                                   ("minus-boost", "oe-bh-boost-minus"),
                                   ("boost-local", "oe-bh-boost-local"))]
    # Storey-BH, LORD and SAFFRON need independence: the batch-1 run
    ind_est = [(f"{label}, indep", estimates(runs_ind[name], truths_ind))
               for label, name in (("oSBH", "osbh"), ("LORD", "lord"), ("SAFFRON", "saffron"))]
    e_mean, e_se = e_est[0]["sup_fdr"]
    p_mean, p_se = p_est[0]["sup_fdr"]
    e_bound = 0.05
    p_bound = 0.05 * (1.0 + math.log(20.0))
    stops = [(label, j, *est["stop_fdr"])
             for label, ests in (("oe-BH", e_est), *dep_est, ("oBH, indep", p_est), *ind_est)
             for j, est in zip((10, 20), ests)]
    elapsed = t_dep + t_ind
    ok = (e_mean <= e_bound + 3 * e_se and p_mean <= p_bound + 3 * p_se
          and all(mean <= cfg.alpha + 3 * se for _, _, mean, se in stops)
          and elapsed < 120.0)
    stop_text = ", ".join(f"FDR_tau{j}({label})={mean:.4f} <= {cfg.alpha}+3*{se:.4f}"
                          for label, j, mean, se in stops)
    report(5, ok, f"SupFDR(oe-BH)={e_mean:.4f} <= {e_bound}+3*{e_se:.4f}, "
                  f"SupFDR(oBH, indep)={p_mean:.4f} <= {p_bound:.4f}+3*{p_se:.4f}, "
                  f"{stop_text}, {elapsed:.0f}s (< 120s)")


def test_criterion_6_power_ordering(power_grid):
    superset_violations = 0
    local_fails = []
    for (mu, pi), (runs, powers) in power_grid.items():
        for base, boost in zip(runs["oe-bh"], runs["oe-bh-boost"]):
            if not _dominates(boost.rejection_times, base.rejection_times):
                superset_violations += 1
        for lond, ebh in zip(runs["e-lond"], runs["oe-bh"]):
            if not _dominates(ebh.rejection_times, lond.rejection_times):
                superset_violations += 1
        diff = powers["oe-bh-boost-local"] - powers["oe-bh-boost"]
        se = float(diff.std(ddof=1) / math.sqrt(len(diff)))
        if float(diff.mean()) < -2.0 * se:
            local_fails.append((mu, pi, float(diff.mean()), se))
    ok = superset_violations == 0 and not local_fails
    report(6, ok, f"power ordering over {len(power_grid)} (mu, pi) cells: "
                  f"plus-boost and oe-BH supersets exact ({superset_violations} "
                  f"violations), local >= plus-boost - 2 SE "
                  f"({len(local_fails)} failures)")


def test_criterion_7_lord_proximity():
    worst = 0.0
    for pi in PI_GRID:
        cfg_bh = GaussianSetupConfig(pi_a=pi, q=0.999)
        cfg_lord = GaussianSetupConfig(pi_a=pi, q=0.99)
        runs_bh, truths_bh = run_trials(cfg_bh, ["obh"])
        runs_lord, truths_lord = run_trials(cfg_lord, ["lord"])
        p_bh = float(np.mean([power(r.final_rejections, tr)
                              for r, tr in zip(runs_bh["obh"], truths_bh)]))
        p_lord = float(np.mean([power(r.final_rejections, tr)
                                for r, tr in zip(runs_lord["lord"], truths_lord)]))
        worst = max(worst, abs(p_bh - p_lord))
    ok = worst <= 0.03
    report(7, ok, f"|power(oBH, q=0.999) - power(LORD, q=0.99)| <= 0.03 at "
                  f"every pi_A (worst {worst:.4f})")


def test_criterion_8_simes_bh_equivalence():
    rng = np.random.default_rng(8)
    mismatches = 0
    for _ in range(10 ** 4):
        K = int(rng.integers(1, 51))
        p = rng.random(K)
        w = rng.random(K) + 1e-3
        alpha = float(rng.uniform(0.01, 0.5))
        simes = weighted_simes(p, w)
        bh = weighted_bh(p, w, alpha)
        if (simes <= alpha) != (len(bh) >= 1):
            mismatches += 1
    report(8, mismatches == 0,
           f"weighted Simes <= alpha iff weighted BH rejects, 10^4 instances, "
           f"{mismatches} mismatches")


def test_criterion_9_adversarial_sharpness():
    ratios = {}
    for alpha in (0.1, 0.05, 0.01):
        res = run_adversarial(AdversarialConfig(K0=1000, alpha=alpha, m=500))
        ratios[alpha] = res["mean_fdp"] / alpha
    increasing = ratios[0.1] < ratios[0.05] < ratios[0.01]
    ok = ratios[0.01] >= 2.0 and increasing
    report(9, ok, f"adversarial FDP/alpha ratios {ratios[0.1]:.2f} (a=0.1) < "
                  f"{ratios[0.05]:.2f} (a=0.05) < {ratios[0.01]:.2f} (a=0.01), "
                  f"ratio at 0.01 >= 2")


def test_criterion_10_small_instance_supremum():
    rng = np.random.default_rng(10)
    K, alpha, delta, shift = 12, 0.3, 2.0, 2.0
    weights = WeightSequence.uniform_finite(K)
    glist = [1.0 / K] * K
    cap_violations = 0
    diffs = []
    for _ in range(200):
        signal = rng.random(K) < 0.5
        z = rng.standard_normal(K) + shift * signal
        e = np.exp(delta * z - delta ** 2 / 2.0)
        from scipy.special import ndtr
        p = ndtr(-z)
        truth = GroundTruth(tuple(bool(b) for b in ~signal))
        cap_e = max_self_consistent_fdp(e, glist, alpha, truth, ScoreKind.E_VALUE)
        cap_p = max_self_consistent_fdp(p, glist, alpha, truth, ScoreKind.P_VALUE)
        run_e = OnlineEBH(weights, alpha).run(e)
        run_p = OnlineBH(weights, alpha).run(p)
        if fdp(run_e.rejection_set(), truth) > cap_e + 1e-12:
            cap_violations += 1
        if fdp(run_p.rejection_set(), truth) > cap_p + 1e-12:
            cap_violations += 1
        pi0 = truth.n_nulls / K
        diffs.append(cap_e - pi0 * alpha)
    diffs = np.asarray(diffs)
    se = float(diffs.std(ddof=1) / math.sqrt(len(diffs)))
    mean_ok = float(diffs.mean()) <= 3.0 * se
    ok = cap_violations == 0 and mean_ok
    report(10, ok, f"FDP never exceeds the enumerated supremum "
                   f"({cap_violations} violations); mean(sup - pi0*alpha)="
                   f"{diffs.mean():.4f} <= 3*{se:.4f}")
