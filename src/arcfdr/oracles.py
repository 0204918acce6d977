"""Brute-force reference implementations, independent of the streaming code.

All oracles follow the sort-based textbook definitions so that agreement with
the incremental step-up machinery is a genuine cross-check.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ConfigError, InputError
from .metrics import GroundTruth, fdp, power

ENUMERATION_CAP = 20  # exhaustive 2^K search refuses above this


def offline_bh(p, alpha: float) -> set:
    """Classical BH: k* = max{k : P_(k) <= k alpha / K}, reject the k* smallest."""
    p = list(p)
    K = len(p)
    order = sorted(range(K), key=lambda i: p[i])
    k_star = 0
    for k in range(1, K + 1):
        if p[order[k - 1]] <= k * alpha / K:
            k_star = k
    return {order[j] + 1 for j in range(k_star)}


def offline_ebh(e, alpha: float) -> set:
    """e-BH: k* = max{k : #{j : E_j >= K/(k alpha)} >= k}, rejects the
    hypotheses with the k* largest e-values (ties included by threshold).
    """
    e = list(e)
    K = len(e)
    desc = sorted(e, reverse=True)
    k_star = 0
    for k in range(1, K + 1):
        if desc[k - 1] >= K / (k * alpha):
            k_star = k
    if k_star == 0:
        return set()
    thresh = K / (k_star * alpha)
    return {i + 1 for i in range(K) if e[i] >= thresh}


def offline_storey_bh(p, alpha: float, lam: float) -> set:
    """Storey-BH with pi0_hat = (1 + #{P_i > lambda}) / ((1-lambda) K) and
    thresholds min(k alpha / (K pi0_hat), lambda).
    """
    if not (alpha <= lam < 1.0):
        raise ConfigError(f"lambda={lam} outside [alpha, 1)")
    p = list(p)
    K = len(p)
    pi0 = (1 + sum(1 for x in p if x > lam)) / ((1.0 - lam) * K)
    order = sorted(range(K), key=lambda i: p[i])
    k_star = 0
    for k in range(1, K + 1):
        if p[order[k - 1]] <= min(k * alpha / (K * pi0), lam):
            k_star = k
    return {order[j] + 1 for j in range(k_star)}


def weighted_bh(p, weights, alpha: float) -> set:
    """Weighted BH: step-up on ratios P_i / (gamma_i / pi0) against k alpha,
    with the weights normalized by their total mass pi0 (so they sum to 1).
    """
    p = list(p)
    pi0 = math.fsum(float(x) for x in weights)
    if pi0 <= 0.0:
        raise InputError("weights are all zero")
    w = [float(x) / pi0 for x in weights]
    if len(p) != len(w):
        raise InputError("scores and weights lengths differ")
    ratios = [p[i] / w[i] if w[i] > 0 else math.inf for i in range(len(p))]
    order = sorted(range(len(p)), key=lambda i: ratios[i])
    k_star = 0
    for k in range(1, len(p) + 1):
        if ratios[order[k - 1]] <= k * alpha:
            k_star = k
    return {order[j] + 1 for j in range(k_star)}


def weighted_simes(p, weights) -> float:
    """Weighted Simes p-value min_j P_(j) / (j gamma_(j) / pi0), sorting
    jointly by P/gamma and normalizing the weights by their total mass pi0.
    """
    p = list(p)
    w = [float(x) for x in weights]
    if len(p) != len(w):
        raise InputError("scores and weights lengths differ")
    pi0 = math.fsum(w)
    if pi0 <= 0.0:
        raise InputError("weights are all zero")
    ratios = sorted(p[i] / w[i] if w[i] > 0 else math.inf for i in range(len(p)))
    best = math.inf
    for j, r in enumerate(ratios, start=1):
        best = min(best, pi0 * r / j)
    return min(best, 1.0) if best < math.inf else 1.0


def step_up_reference(deadlines, qualifies):
    """Rejection times and k* path of a step-up procedure with decision
    deadlines, by full scan at every t (the definition of e-TOAD and TOAD).

    deadlines[i-1] is d_i >= i (math.inf for none); the stream has
    len(deadlines) steps.  qualifies(t, i, k) says whether hypothesis i clears
    its threshold at candidate set size k at time t.  At step t the active set
    is C_t = {i <= t : d_i >= t} and base = |R_{t-1} - C_t| counts frozen
    rejections; k*_t = base + max{k : #{i in C_t : qualifies(t, i, base + k)} >= k},
    and every active i that qualifies at k*_t is rejected.  Unbounded deadlines
    give online (e-)BH, BR and Storey-BH; d_t = t gives (e-)LOND.
    """
    rejection_times: dict[int, int] = {}
    kstar_path: list[int] = []
    for t in range(1, len(deadlines) + 1):
        base = sum(1 for i in rejection_times if deadlines[i - 1] < t)
        active = [i for i in range(1, t + 1) if deadlines[i - 1] >= t]
        k_active = 0
        for k in range(1, len(active) + 1):
            if sum(1 for i in active if qualifies(t, i, base + k)) >= k:
                k_active = k
        k_star = base + k_active
        kstar_path.append(k_star)
        for i in active:
            if k_star and i not in rejection_times and qualifies(t, i, k_star):
                rejection_times[i] = t
    return rejection_times, kstar_path


def boosted_reference(evalues, gammas, alpha: float, variant, factors,
                      batch_size: int | None = None):
    """Rejection times and k* path of boosted online e-BH by its definition:
    online e-BH on T_t(b_t E_t), with T_t applied literally by
    ``boosting.truncate`` at weight gamma_t and cutoff s = n, n the number of
    e-values, and the step-up search of ``step_up_reference``.

    Without a batch_size the variant is a global one and factors(0, None)
    gives b_1..b_n.  With one, the variant is a local one: hypothesis t is
    capped at the lag k0 = k*_{t-L_t-1}, L_t = (t-1) mod batch_size, read
    from this reference's own k* path, and factors(start, k0) gives b_t for
    the batch t = start+1 .. start+batch_size.
    """
    from .boosting import TruncationSpec, truncate

    e = [float(x) for x in evalues]
    g = [float(x) for x in gammas]
    n = len(e)
    x: list[float] = []  # T_t(b_t E_t), one batch at a time

    def qualifies(t, i, k):
        return x[i - 1] >= 1.0 / (k * (alpha * g[i - 1]))

    def extend(start, b, lag):
        for j, bt in enumerate(b):
            t = start + j + 1
            spec = TruncationSpec(variant, alpha, g[t - 1], s=n, lag_kstar=lag)
            x.append(truncate(spec, float(bt) * e[t - 1]))

    if batch_size is None:
        extend(0, factors(0, None), None)
        return step_up_reference([math.inf] * n, qualifies)
    if n % batch_size:
        raise InputError(f"n={n} not divisible by batch_size={batch_size}")
    times, path = {}, []
    for start in range(0, n, batch_size):
        k0 = path[-1] if path else 0
        extend(start, factors(start, k0), k0)
        times, path = step_up_reference([math.inf] * len(x), qualifies)
    return times, path


def expected_truncated_reference(model, spec, b: float) -> float:
    """E_null[T(b * E)] for the cutoff variants by the bracket sum, the
    reference for ``boosting.expected_truncated_value`` and its solver.

    Each bracket probability P(1/(k ag) <= bE < 1/((k-1) ag)), a difference
    of the tails Phi(log(k ag b)/delta - delta/2), is weighted by the
    grid value 1/(k ag), capped at 1/((k0+1) ag) for the Local variants;
    the Plus variants add the pass-through term E[bE 1{bE < 1/(s ag)}].
    PRDS instead evaluates the criterion sup_k P(bE >= 1/(k ag)) / (k ag).
    Its tails are scipy's Phi, independent of the solver's.
    """
    from scipy.special import ndtr

    from .boosting import TruncationVariant as V

    if b < 0.0:
        raise InputError(f"b={b} is negative")
    if spec.gamma == 0.0 or b == 0.0:
        return 0.0
    v, s, k0 = spec.variant, spec.cutoff_s, spec.lag_kstar
    if v in (V.FULL, V.LOCAL) or not math.isfinite(s):
        raise ConfigError(f"no closed form for variant {v.value}")
    s, ag, d = int(s), spec.alpha * spec.gamma, model.delta
    ks = np.arange(1, s + 1, dtype=float)
    tails = ndtr(np.log(ks * ag * b) / d - d / 2.0)  # P(bE >= 1/(k ag))
    if v is V.PRDS:
        return float(np.max(tails / (ks * ag)))
    values = 1.0 / (ks * ag)
    if k0 is not None:
        values = np.minimum(values, 1.0 / ((k0 + 1) * ag))
    total = float(np.sum(np.diff(tails, prepend=0.0) * values))
    if v in (V.PLUS, V.LOCAL_PLUS):
        if k0 is not None and k0 + 1 > s:
            raise ConfigError("local_plus needs s >= lag_kstar + 1")
        # E[bE 1{bE < 1/(s ag)}] = b * Phi(-d/2 - log(s ag b)/d)
        total += b * float(ndtr(-d / 2.0 - math.log(s * ag * b) / d))
    return total


def lord_levels(p, weights, alpha: float, w0: float | None = None):
    """LORD levels and rejection times from the formula of ``Lord``,

        alpha_t = gamma_t w0 + (alpha - w0) gamma_{t - tau_1} 1{tau_1 < t}
                  + alpha sum_{j >= 2, tau_j < t} gamma_{t - tau_j},

    rescanning the rejection times tau_j at every t; H_t is rejected iff
    P_t <= alpha_t.  weights is a WeightSequence, w0 defaults to alpha / 2.
    Returns (levels, rejection_times).
    """
    w0 = alpha / 2.0 if w0 is None else w0
    p = [float(x) for x in p]
    levels: list[float] = []
    for t in range(1, len(p) + 1):
        tau = [i for i in range(1, t) if p[i - 1] <= levels[i - 1]]
        level = weights.gamma(t) * w0
        if tau:
            level += (alpha - w0) * weights.gamma(t - tau[0])
            level += alpha * math.fsum(weights.gamma(t - s) for s in tau[1:])
        levels.append(level)
    return levels, {t: t for t in range(1, len(p) + 1) if p[t - 1] <= levels[t - 1]}


def saffron_levels(p, weights, alpha: float, lam: float = 0.5,
                   w0: float | None = None):
    """SAFFRON levels and rejection times from the formula of ``Saffron``,

        alpha_t = min(lambda, w0 gamma_{t - C_{0,t}}
                      + ((1-lambda) alpha - w0) gamma_{t - tau_1 - C_{1,t}} 1{tau_1 < t}
                      + (1-lambda) alpha sum_{j>=2, tau_j < t} gamma_{t - tau_j - C_{j,t}}),

    with tau_0 = 0 and C_{j,t} the number of candidates (P_i <= lambda) with
    tau_j < i < t, both rescanned at every t; H_t is rejected iff
    P_t <= alpha_t.  weights is a WeightSequence, w0 defaults to
    (1 - lambda) alpha / 2.  Returns (levels, rejection_times).
    """
    cap = (1.0 - lam) * alpha
    w0 = cap / 2.0 if w0 is None else w0
    p = [float(x) for x in p]
    levels: list[float] = []
    for t in range(1, len(p) + 1):
        candidates = [i for i in range(1, t) if p[i - 1] <= lam]
        tau = [i for i in range(1, t) if p[i - 1] <= levels[i - 1]]

        def gamma_after(start):
            return weights.gamma(t - start - sum(1 for i in candidates if i > start))

        raw = w0 * gamma_after(0)
        if tau:
            raw += (cap - w0) * gamma_after(tau[0])
            raw += cap * math.fsum(gamma_after(s) for s in tau[1:])
        levels.append(min(lam, raw))
    return levels, {t: t for t in range(1, len(p) + 1) if p[t - 1] <= levels[t - 1]}


def max_self_consistent_fdp(scores, weights, alpha: float, truth: GroundTruth,
                            kind) -> float:
    """Max FDP over all self-consistent subsets, by exhaustive enumeration.

    A subset S is self-consistent iff every i in S clears the threshold
    implied by |S|; with the per-index integer need (smallest qualifying set
    size) this is all need_i <= |S|.
    """
    from .core import ScoreKind, minimal_k_evalue, minimal_k_pvalue

    values = [float(x) for x in scores]
    K = len(values)
    if K > ENUMERATION_CAP:
        raise InputError(f"K={K} exceeds enumeration cap {ENUMERATION_CAP}")
    if len(weights) != K:
        raise InputError("scores and weights lengths differ")
    need_fn = minimal_k_evalue if kind is ScoreKind.E_VALUE else minimal_k_pvalue
    needs = [need_fn(values[i], alpha, weights[i]) for i in range(K)]

    # allowed_mask[r] = bitmask of indices usable in a set of size r
    allowed = [0] * (K + 1)
    for r in range(1, K + 1):
        allowed[r] = sum(1 << i for i in range(K) if needs[i] <= r)

    null_mask = sum(1 << i for i in range(K) if truth.is_null(i + 1))
    best = 0.0
    for mask in range(1, 1 << K):
        r = mask.bit_count()
        if mask & ~allowed[r]:
            continue
        best = max(best, (mask & null_mask).bit_count() / r)
        if best == 1.0:
            break
    return best


def cell_estimates_reference(rejection_times, truths, n: int, K=None,
                             stopping_rule=None) -> dict:
    """``metrics.cell_estimates`` by brute force: for each run and each t,
    R_t is rebuilt from the first-rejection times and read by ``fdp``; power
    is ``power`` of R_n.  Means and standard errors sd / sqrt(m)."""
    sets = [[[i for i, s in rt.items() if s <= t] for t in range(1, n + 1)]
            for rt in rejection_times]
    paths = [[fdp(r, truth) for r in rs] for rs, truth in zip(sets, truths)]

    def mean_se(xs):
        xs = np.array(xs, dtype=float)
        return float(xs.mean()), float(xs.std(ddof=1) / math.sqrt(len(xs)))

    out = {"fdr_at_T": mean_se([p[-1] for p in paths]),
           "sup_fdr": mean_se([max(p) for p in paths]),
           "power": mean_se([power(rs[-1], tr) for rs, tr in zip(sets, truths)])}
    if K is not None:
        out["sup_fdr_K"] = mean_se([max(p[:K]) for p in paths])
    if stopping_rule is not None:
        stops = stopping_rule.stop_times([[len(r) for r in rs] for rs in sets])
        out["stop_fdr"] = mean_se([p[t - 1] for p, t in zip(paths, stops)])
    return out
