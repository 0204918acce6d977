"""Monte-Carlo harness: Gaussian batch-correlated data generator, adversarial
sharpness construction, the procedure roster, and the experiment runner.

Reproducibility: each trial draws from its own counter-based Philox substream
derived from (seed, trial index), so results are bit-identical regardless of
how trials are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .boosting import BoostTable, GaussianLRModel, TruncationVariant, solve_boost_factors
from .core import ConfigError, ScoreKind, WeightSequence, needs
from .e_procedures import ELond, OnlineEBH
from .metrics import GroundTruth, cell_estimates, rejection_counts
from .normal import ndtr
from .p_procedures import (
    Lond,
    Lord,
    OnlineBH,
    OnlineBR,
    OnlineStoreyBH,
    RLond,
    Saffron,
    ShapeFunction,
)

E_PROCEDURES = ("oe-bh", "e-lond", "oe-bh-boost", "oe-bh-boost-minus",
                "oe-bh-boost-local")
P_PROCEDURES = ("obh", "lond", "r-lond", "obr", "osbh", "lord", "saffron")
ALL_PROCEDURES = E_PROCEDURES + P_PROCEDURES

# the boosted procedures: the variant of their factors, and whether they
# run in batches of batch_size (else in one batch of all n)
_BOOSTS = {"oe-bh-boost": (TruncationVariant.LOCAL_PLUS, False),
           "oe-bh-boost-minus": (TruncationVariant.LOCAL_MINUS, False),
           "oe-bh-boost-local": (TruncationVariant.LOCAL_MINUS, True)}


@dataclass(frozen=True)
class GaussianSetupConfig:
    """Batch-correlated Gaussian testing setup.

    Each trial draws n standard normals Z in batches of size batch_size with
    within-batch correlation rho (independent across batches), signals
    Pi ~ Bernoulli(pi_a), test statistics X = Z + mu_a * Pi, likelihood-ratio
    e-values exp(mu_a * X - mu_a^2 / 2), and p-values Phi(-X).  Setting
    p_from_z uses Phi(-Z) instead (no signal reaches the p-values then).
    """

    n: int = 1000
    m: int = 100
    mu_a: float = 3.5
    pi_a: float = 0.1
    batch_size: int = 20
    rho: float = 0.5
    q: float = 0.99
    alpha: float = 0.05
    lam: float = 0.5
    seed: int = 0
    p_from_z: bool = False

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ConfigError("n and m must be positive")
        if not (0.0 < self.pi_a < 1.0):
            raise ConfigError(f"pi_a={self.pi_a} outside (0, 1)")
        if self.batch_size < 1 or self.n % self.batch_size != 0:
            raise ConfigError(
                f"n={self.n} not divisible by batch_size={self.batch_size}")
        if not (0.0 <= self.rho < 1.0):
            raise ConfigError(f"rho={self.rho} outside [0, 1)")
        mu = float(self.mu_a)
        if not (mu > 0.0 and math.isfinite(mu * mu)):  # the e-values read mu_a^2
            raise ConfigError(f"mu_a={self.mu_a} must be positive with a finite square")


@dataclass(frozen=True)
class GaussianTrial:
    z: np.ndarray
    x: np.ndarray
    evalues: np.ndarray
    pvalues: np.ndarray
    truth: GroundTruth


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based substream for one trial; independent of scheduling."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return np.random.Generator(np.random.Philox(ss))


def _draw(cfg: GaussianSetupConfig, rng: np.random.Generator):
    """One trial's statistics z and x and its ground truth."""
    n, b = cfg.n, cfg.batch_size
    n_batches = n // b
    # equicorrelated batches by a shared factor: same law as a Cholesky draw
    w = rng.standard_normal(n_batches)
    xi = rng.standard_normal(n)
    z = math.sqrt(cfg.rho) * np.repeat(w, b) + math.sqrt(1.0 - cfg.rho) * xi
    pi = rng.random(n) < cfg.pi_a
    return z, z + cfg.mu_a * pi, GroundTruth(tuple(bool(v) for v in ~pi))


def _score(cfg: GaussianSetupConfig, z: np.ndarray, x: np.ndarray):
    """The e-values and p-values of statistics of any shape, one trial or a
    cell's m x n, by one exp and one Phi: each value depends on its own
    statistic alone, so a trial's scores are the same either way."""
    evalues = np.exp(cfg.mu_a * x - cfg.mu_a ** 2 / 2.0)
    return evalues, ndtr(-(z if cfg.p_from_z else x))


def generate_gaussian_trial(cfg: GaussianSetupConfig, rng: np.random.Generator) -> GaussianTrial:
    z, x, truth = _draw(cfg, rng)
    return GaussianTrial(z, x, *_score(cfg, z, x), truth)


@dataclass
class ProcedureRun:
    """One procedure's full history on one trial."""

    name: str
    n: int
    rejection_times: dict

    def rejection_counts(self) -> np.ndarray:
        """|R_t| for t = 1..n, which is the k* path for every procedure."""
        return rejection_counts(self.rejection_times, self.n)

    @property
    def kstar_path(self) -> list:
        """k*_1, ..., k*_n as a list of ints, counted on each read."""
        return self.rejection_counts().tolist()

    @property
    def final_rejections(self) -> tuple:
        return tuple(sorted(self.rejection_times))


# step-up and LOND procedures that read a need, by the needs they read
_NEED_RULES = {"oe-bh": (OnlineEBH, "e"), "e-lond": (ELond, "e"),
               "obh": (OnlineBH, "p"), "lond": (Lond, "p"),
               "obr": (OnlineBR, "by"), "r-lond": (RLond, "by")}
# procedures whose levels move with the stream: fed their p-values
_STREAM_RULES = {"lord": lambda w, cfg: Lord(w, cfg.alpha),
                 "saffron": lambda w, cfg: Saffron(w, cfg.alpha, cfg.lam)}


class _Cell:
    """The m trials of one configuration, as m x n arrays of scores (one row
    per trial), with the configuration's one weight sequence and one array
    of its weights gamma_1..gamma_n."""

    def __init__(self, cfg: GaussianSetupConfig, evalues: np.ndarray,
                 pvalues: np.ndarray, cache: dict):
        self.cfg, self.cache = cfg, cache
        self.weights = WeightSequence.geometric(cfg.q)
        self.gammas = self.weights.gammas(1, cfg.n)
        self.evalues, self.pvalues = evalues, pvalues
        self._needs = {}

    def needs(self, key: str) -> np.ndarray:
        """The needs of every trial's scores, computed once per cell for
        the procedures that share them."""
        if key not in self._needs:
            cfg, g = self.cfg, self.gammas
            if key == "e":
                self._needs[key] = needs(self.evalues, ScoreKind.E_VALUE, cfg.alpha, g)
            elif key == "p":
                self._needs[key] = needs(self.pvalues, ScoreKind.P_VALUE, cfg.alpha, g)
            else:
                self._needs[key] = ShapeFunction.by(cfg.n).needs(self.pvalues, cfg.alpha, g)
        return self._needs[key]

    def boost_factors(self, variant: TruncationVariant, start: int, size: int,
                      lags) -> dict:
        """{k0: b_t for t = start+1 .. start+size at lag k0} for every k0 in
        lags, for a local variant at the cutoff s = n.  Each (variant,
        batch, lag) is one read-only cache entry, and the misses are solved
        in one call with one lag per target, on the cache's one BoostTable
        of (mu_a, n): its rows depend only on delta and s."""
        cfg, cache = self.cfg, self.cache
        keys = {k0: (variant, cfg.mu_a, cfg.alpha, cfg.q, cfg.n, start + 1, size, k0)
                for k0 in lags}
        miss = [k0 for k0, key in keys.items() if key not in cache]
        if miss:
            table_key = ("boost-table", cfg.mu_a, cfg.n)
            if table_key not in cache:
                cache[table_key] = BoostTable(cfg.mu_a, cfg.n)
            b = solve_boost_factors(GaussianLRModel(cfg.mu_a), variant, cfg.alpha,
                                    np.tile(self.gammas[start:start + size], len(miss)),
                                    cfg.n, lag_kstar=np.repeat(miss, size),
                                    table=cache[table_key])
            b.flags.writeable = False
            for i, k0 in enumerate(miss):
                cache[keys[k0]] = b[i * size:(i + 1) * size]
        return {k0: cache[key] for k0, key in keys.items()}


def _run_procedure(name: str, cell: _Cell) -> list:
    """One procedure's ProcedureRun on every trial of a cell.  Each trial's
    keys go straight to ``_run``: the scores come from the generator, so
    there is nothing to validate."""
    cfg, weights = cell.cfg, cell.weights
    alpha, n = cfg.alpha, cfg.n
    rows, extra = cell.pvalues, {}
    if name in _NEED_RULES:
        rule, key = _NEED_RULES[name]
        args = (ShapeFunction.by(n),) if key == "by" else ()
        procs, rows = [rule(weights, alpha, *args) for _ in rows], cell.needs(key)
    elif name in _BOOSTS:
        procs, rows = _run_boosted(cell, *_BOOSTS[name]), ()  # fed batch by batch there
    elif name == "osbh":
        # the batch path of run(), with the weights' tail masses computed once
        procs = [OnlineStoreyBH(weights, alpha, cfg.lam) for _ in rows]
        extra = {"gammas": cell.gammas,
                 "tails": np.array([weights.tail_mass(t) for t in range(1, n + 1)])}
    else:
        procs = [_STREAM_RULES[name](weights, cfg) for _ in rows]
    for proc, row in zip(procs, rows):
        proc._run(row, 1, **extra)
    return [ProcedureRun(name, n, proc.rejection_times) for proc in procs]


def _run_boosted(cell: _Cell, variant: TruncationVariant, batched: bool) -> list:
    """Boosted online e-BH on every trial of a cell, batch by batch in
    lockstep, fed b_t E_t without truncation: in batches of batch_size, or
    in one batch of all n.

    Every boosted run is local boosting at the cutoff s = n.  The lag is
    L_t = (t-1) mod size, so k0 = k*_{t-L_t-1} is each run's own k* at the
    end of the previous batch, and the cap 1/((k0+1) alpha gamma_t) at
    k0 = 0 is the top of the grid: plus and minus boosting are local_plus
    and local_minus in one batch of 1..n, where every run starts at k0 = 0.
    A batch's factors at every trial's lag come from one lookup, and its
    needs from one call over all trials.

    Feeding b_t E_t is exact.  plus: the pass-through region sits below
    every rejection threshold.  minus: truncation only zeroes values whose
    need exceeds n >= k*_t and moves the rest down to a grid value of the
    same need, so it changes no decision.  The lag cap only raises needs
    <= k0 to k0 + 1; as k0 <= k*_{t-1}, such a hypothesis is rejected on
    arrival either way, and needs below k*_t are never read again."""
    cfg, gammas = cell.cfg, cell.gammas
    size = cfg.batch_size if batched else cfg.n
    procs = [OnlineEBH(cell.weights, cfg.alpha) for _ in range(cfg.m)]
    for start in range(0, cfg.n, size):
        lags = [proc.k_star for proc in procs]
        factors = cell.boost_factors(variant, start, size, lags)
        b = np.array([factors[k0] for k0 in lags])
        keys = needs(b * cell.evalues[:, start:start + size], ScoreKind.E_VALUE,
                     cfg.alpha, gammas[start:start + size])
        for proc, row in zip(procs, keys):
            proc._run(row, start + 1)
    return procs


def run_trials(cfg: GaussianSetupConfig, procedures, cache: dict | None = None):
    """Run each procedure on m freshly generated trials.

    The cell's trials are drawn first, each on its own substream, and
    scored together; then each procedure runs over all of them.  Returns
    (runs, truths):
    runs[name][i] is the ProcedureRun of trial i, truths[i] its ground truth.
    Boost factors are memoized in ``cache``, or in one dict for the whole
    call when none is passed.
    """
    cache = {} if cache is None else cache
    procedures = list(procedures)
    unknown = [p for p in procedures if p not in ALL_PROCEDURES]
    if unknown:
        raise ConfigError(f"unknown procedures: {unknown}")
    z, x, truths = zip(*(_draw(cfg, trial_rng(cfg.seed, i)) for i in range(cfg.m)))
    cell = _Cell(cfg, *_score(cfg, np.array(z), np.array(x)), cache)
    runs = {name: _run_procedure(name, cell) for name in procedures}
    return runs, list(truths)


def run_experiment(cfg: GaussianSetupConfig, procedures, pi_as=None,
                   cache: dict | None = None):
    """Tidy result rows (power, FDR, SupFDR with SEs) per procedure and pi_A.
    Without a ``cache``, one dict serves every pi_A of the call."""
    cache = {} if cache is None else cache
    pi_as = [cfg.pi_a] if pi_as is None else list(pi_as)
    if not list(procedures):
        raise ConfigError("empty procedure roster")
    if cfg.m < 2:
        raise ConfigError(f"m={cfg.m}: need at least 2 trials for standard errors")
    rows = []
    for pi_a in pi_as:
        sub = replace(cfg, pi_a=pi_a)
        runs, truths = run_trials(sub, procedures, cache=cache)
        nulls = np.array([truth.labels for truth in truths], dtype=bool)
        for name in procedures:
            est = cell_estimates([r.rejection_times for r in runs[name]], nulls)
            for metric, key in (("power", "power"), ("fdr", "fdr_at_T"),
                                ("sup_fdr", "sup_fdr")):
                value, se = est[key]
                rows.append({
                    "procedure": name, "pi_a": pi_a, "mu_a": sub.mu_a,
                    "q": sub.q, "alpha": sub.alpha, "metric": metric,
                    "value": value, "stderr": se, "n": sub.n, "m": sub.m,
                    "seed": sub.seed,
                })
    return rows


@dataclass(frozen=True)
class AdversarialConfig:
    """Sharpness construction: K0 i.i.d. uniform nulls followed by K_1^*
    perfectly significant non-nulls, stopped at a time chosen from the null
    p-values alone.
    """

    K0: int
    alpha: float
    m: int = 500
    seed: int = 0
    K: int | None = None  # total hypotheses; defaults to 2 * K0

    def __post_init__(self):
        if self.K0 < 1:
            raise ConfigError("K0 must be positive")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError(f"alpha={self.alpha} outside (0, 1)")
        if self.K is not None and self.K < self.K0:
            raise ConfigError("K must be at least K0")

    @property
    def total(self) -> int:
        return 2 * self.K0 if self.K is None else self.K


@dataclass(frozen=True)
class AdversarialTrial:
    pvalues: np.ndarray   # the observed stream, length stop_time
    truth: GroundTruth
    stop_time: int
    feasible: bool
    k1_star: int


def generate_adversarial_trial(cfg: AdversarialConfig, rng: np.random.Generator) -> AdversarialTrial:
    K, K0 = cfg.total, cfg.K0
    nulls = rng.random(K0)
    p_sorted = np.sort(nulls)
    js = np.arange(1, K0 + 1)
    denom = np.ceil(K * p_sorted / cfg.alpha)
    ratios = js / np.maximum(denom, 1.0)
    j_star = int(np.argmax(ratios)) + 1
    k1_star = max(int(denom[j_star - 1]) - j_star, 0)
    feasible = k1_star <= K - K0
    stop_time = K0 + k1_star
    pvalues = np.concatenate([nulls, np.zeros(k1_star)])
    truth = GroundTruth(tuple(i <= K0 for i in range(1, stop_time + 1)))
    return AdversarialTrial(pvalues, truth, stop_time, feasible, k1_star)


def run_adversarial(cfg: AdversarialConfig) -> dict:
    """Mean FDP of online BH (uniform weights over K) at the constructed
    stopping time, over m trials; infeasible trials are excluded and counted.
    """
    from .metrics import fdp

    weights = WeightSequence.uniform_finite(cfg.total)
    fdps = []
    infeasible = 0
    for i in range(cfg.m):
        trial = generate_adversarial_trial(cfg, trial_rng(cfg.seed, i))
        if not trial.feasible:
            infeasible += 1
            continue
        proc = OnlineBH(weights, cfg.alpha).run(trial.pvalues)
        fdps.append(fdp(proc.rejection_set(), trial.truth))
    fdps = np.asarray(fdps)
    if fdps.size == 0:
        raise ConfigError("all trials infeasible")
    return {
        "mean_fdp": float(fdps.mean()),
        "se": float(fdps.std(ddof=1) / math.sqrt(fdps.size)) if fdps.size > 1 else 0.0,
        "n_trials": int(fdps.size),
        "n_infeasible": infeasible,
        "fdps": fdps,
    }
