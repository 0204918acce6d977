"""Streaming state machines for the p-value procedures: online BH, LOND,
r-LOND, online BR, TOAD, online Storey-BH, and the LORD / SAFFRON baselines.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .core import (
    ConfigError,
    InputError,
    ScoreKind,
    WeightSequence,
    _least_k,
    harmonic_number,
    minimal_k_pvalue,
    needs,
)
from .e_procedures import DeadlineSchedule, StreamProcedure, _KStarStepUpP, _LondRule


class ShapeFunction:
    """Reshaping beta(k) of rejection thresholds for arbitrary dependence.

    beta(k) = integral of x over (0, k] under a probability measure nu;
    nondecreasing with beta(0) = 0.  Identity recovers the unreshaped
    procedure; BY(K) uses beta(k) = min(k, K) / ell_K.
    """

    def __init__(self, variant: str, **params):
        self.variant = variant
        if variant == "identity":
            pass
        elif variant == "by":
            try:  # any integer, numpy's too, but not 2.5 read as 2
                K = operator.index(params["K"])
            except TypeError:
                raise ConfigError(f"BY horizon K={params['K']!r} must be an integer") from None
            if K < 1:
                raise ConfigError(f"BY horizon K={K} must be >= 1")
            self._K = K
            self._ell = harmonic_number(K)
        elif variant == "custom":
            # discrete measure: {support point x > 0: mass}
            measure = {float(x): float(m) for x, m in params["measure"].items()}
            # NaN fails both tests; an infinite point or mass would leave
            # beta_sup inf or nan, and minimal_k would search without end
            if not all(0 < x < math.inf and 0 <= m < math.inf for x, m in measure.items()):
                raise ConfigError(
                    "measure needs positive support and nonnegative mass, both finite")
            total = math.fsum(measure.values())
            if total > 1.0 + 1e-12:
                raise ConfigError(f"measure mass {total} exceeds 1")
            self._points = sorted(measure.items())
        else:
            raise ConfigError(f"unknown shape variant {variant!r}")

    @classmethod
    def identity(cls) -> "ShapeFunction":
        return cls("identity")

    @classmethod
    def by(cls, K: int) -> "ShapeFunction":
        return cls("by", K=K)

    @classmethod
    def custom(cls, measure: dict) -> "ShapeFunction":
        return cls("custom", measure=measure)

    def beta(self, k: float) -> float:
        if k <= 0:
            return 0.0
        if self.variant == "identity":
            return float(k)
        if self.variant == "by":
            return min(k, self._K) / self._ell
        return math.fsum(x * m for x, m in self._points if x <= k)

    @property
    def beta_sup(self) -> float:
        """Limit of beta(k) as k -> inf."""
        if self.variant == "identity":
            return math.inf
        if self.variant == "by":
            return self._K / self._ell
        return math.fsum(x * m for x, m in self._points)

    def minimal_k(self, p: float, alpha: float, gamma: float) -> float:
        """Smallest k >= 1 with p <= alpha * gamma * beta(k), or inf."""
        if gamma <= 0.0:
            return math.inf
        if self.variant == "identity":
            return minimal_k_pvalue(p, alpha, gamma)
        ag = alpha * gamma
        if not p <= ag * self.beta_sup:  # NaN too
            return math.inf
        lo, hi = 1, 1
        while p > ag * self.beta(hi):
            lo = hi + 1
            hi *= 2
        while lo < hi:
            mid = (lo + hi) // 2
            if p <= ag * self.beta(mid):
                hi = mid
            else:
                lo = mid + 1
        return lo

    def needs(self, values, alpha: float, gammas):
        """``minimal_k`` of every p-value at its weight, bit for bit, as a
        float array of the p-values' shape (the weights broadcast as in
        ``core.needs``).  A custom shape is searched score by score."""
        if self.variant == "identity":
            return needs(values, ScoreKind.P_VALUE, alpha, gammas)
        p = np.asarray(values, dtype=float)
        shape = p.shape
        g = np.asarray(gammas, dtype=float)
        if g.shape != shape:
            g = np.broadcast_to(g, shape)
        p, g = p.ravel(), g.ravel()
        if self.variant == "custom":
            k = [self.minimal_k(pi, alpha, gi) for pi, gi in zip(p.tolist(), g.tolist())]
            return np.array(k, dtype=float).reshape(shape)
        K, ell = self._K, self._ell
        k = np.full(p.shape, math.inf)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ag = alpha * g
            at = np.flatnonzero((g > 0.0) & (p <= ag * self.beta_sup))
            p, ag = p[at], ag[at]
            # beta(K) = beta_sup, so k = K qualifies and bounds the candidate;
            # fmax takes 1 where p = ag = 0
            kc = np.fmin(np.fmax(np.ceil(p * ell / ag), 1.0), K)
            k[at] = _least_k(kc, lambda kc: p <= ag * (np.minimum(kc, K) / ell))
        return k.reshape(shape)


class OnlineBH(_KStarStepUpP):
    """Online BH: rejects R_t = {i <= t : P_i <= k*_t * alpha * gamma_i} with
    the step-up k*_t.  With uniform weights over K it equals offline BH at
    time K.  Controls OnlineFDR under PRDS.
    """


class OnlineBR(_KStarStepUpP):
    """Online BR: online-BH-style step-up with reshaped thresholds
    alpha gamma_j beta(k).  beta = identity recovers online BH.
    """

    def __init__(self, weights, alpha, beta: ShapeFunction):
        super().__init__(weights, alpha)
        self.beta = beta

    def _need(self, value, t):
        return self.beta.minimal_k(value, self.alpha, self.weights.gamma(t))

    def _needs(self, values, t):
        return self.beta.needs(values, self.alpha, self.weights.gammas(t, len(values)))


class Lond(_LondRule):
    """LOND: fully online, rejects H_t iff P_t <= alpha gamma_t (|R_{t-1}| + 1)."""

    kind = ScoreKind.P_VALUE
    _need = OnlineBH._need
    _needs = OnlineBH._needs


class RLond(Lond):
    """Reshaped LOND: threshold alpha gamma_t beta(|R_{t-1}| + 1)."""

    _need = OnlineBR._need
    _needs = OnlineBR._needs

    def __init__(self, weights, alpha, beta: ShapeFunction):
        super().__init__(weights, alpha)
        self.beta = beta


class Toad(_KStarStepUpP):
    """TOAD: online BR with decision deadlines and per-hypothesis shape
    functions.  d_t = inf with identity beta recovers online BH; d_t = t
    recovers r-LOND.
    """

    def __init__(self, weights, alpha, deadlines: DeadlineSchedule, beta):
        super().__init__(weights, alpha)
        self.deadlines = deadlines
        # beta: a single ShapeFunction or a callable index -> ShapeFunction
        self._beta_of = beta if callable(beta) else (lambda t: beta)
        self._shape = None if callable(beta) else beta

    def _need(self, value, t):
        return self._beta_of(t).minimal_k(value, self.alpha, self.weights.gamma(t))

    def _needs(self, values, t):
        if self._shape is None:  # one shape per index: searched score by score
            return np.array([self._need(v, t + i) for i, v in enumerate(values.tolist())], float)
        return self._shape.needs(values, self.alpha, self.weights.gammas(t, len(values)))


class OnlineStoreyBH(_KStarStepUpP):
    """Online Storey-BH: online BH with the adaptive null-mass estimate

        pi0_hat_t = (gamma_max + sum_{i<=t} gamma_i 1{P_i > lambda}
                     + sum_{i>t} gamma_i) / (1 - lambda)

    and thresholds min(k alpha gamma_i / pi0_hat_t, lambda).  pi0_hat is
    nonincreasing in t, so thresholds only grow and the rejection sets are
    nested.  With uniform weights over K it recovers offline Storey-BH at
    time K.

    On the step-up engine a candidate (P <= lambda, gamma > 0) is keyed by
    its ratio P / (alpha gamma), which qualifies at k iff it is at most
    k / pi0_hat_t; other hypotheses are never counted.
    """

    def __init__(self, weights, alpha, lam: float = 0.5):
        super().__init__(weights, alpha)
        if not (alpha <= lam < 1.0):
            raise ConfigError(f"lambda={lam} outside [alpha, 1)")
        self.lam = lam
        # the constant terms of pi0_hat, read once instead of on every step
        self._gamma_max = weights.gamma_max
        self._one_minus_lam = 1.0 - lam
        self._over_lambda_mass = 0.0
        self.pi0_hat = math.inf

    def _need(self, value, t):
        # the engine asks for the need first, so pi0_hat_t is set before the search
        g = self.weights.gamma(t)
        if value > self.lam:
            self._over_lambda_mass += g
        # the two masses are rounded separately, so the formula can rise by an
        # ulp when P_t > lambda; the min keeps pi0_hat, and so k*, monotone
        self.pi0_hat = min(self.pi0_hat, (
            self._gamma_max + self._over_lambda_mass + self.weights.tail_mass(t)
        ) / self._one_minus_lam)
        if value <= self.lam and g > 0.0:
            ag = self.alpha * g
            if ag == 0.0:
                # alpha * gamma underflowed, as in minimal_k_pvalue
                return 0.0 if value == 0.0 else math.inf
            return value / ag
        return math.inf

    # the p-values themselves: their keys come with the pi0_hat path, in _run
    _needs = StreamProcedure._needs

    def _path(self, values, t0: int, gammas=None, tails=None):
        """The keys of values[i] at index t0 + i and pi0_hat_{t0+i}, as
        vectors equal to ``_need``'s bit for bit: the over-lambda mass adds
        up in ``_need``'s order from its current value, and pi0_hat is the
        running minimum from its current value.  gammas[i] and tails[i] are
        gamma(t0 + i) and tail_mass(t0 + i), computed here unless the caller
        has them.  Leaves the over-lambda mass at its value after the last
        score."""
        w, lam, n = self.weights, self.lam, len(values)
        g = w.gammas(t0, n) if gammas is None else gammas
        if tails is None:
            tails = np.array([w.tail_mass(t) for t in range(t0, t0 + n)])
        over = np.where(values > lam, g, 0.0)
        mass = np.add.accumulate(np.concatenate(([self._over_lambda_mass], over)))[1:]
        self._over_lambda_mass = float(mass[-1])
        pi0 = (w.gamma_max + mass + tails) / (1.0 - lam)
        pi0 = np.minimum.accumulate(np.concatenate(([self.pi0_hat], pi0)))[1:]
        keys = np.full(n, math.inf)
        ag = self.alpha * g
        cand = (values <= lam) & (g > 0.0)
        # alpha * gamma underflowed, as in minimal_k_pvalue
        keys[cand & (ag == 0.0) & (values == 0.0)] = 0.0
        at = cand & (ag > 0.0)
        with np.errstate(over="ignore"):
            keys[at] = values[at] / ag[at]
        return keys, pi0

    def _run(self, values, t0: int, gammas=None, tails=None):
        """``run()`` hands over the validated p-values: their keys and the
        pi0_hat path come from ``_path`` as vectors, and pi0_hat is set from
        the path before each ``_place``, so each step equals ``step()``'s.
        ``gammas`` and ``tails`` go to ``_path``."""
        keys, pi0 = self._path(values, t0, gammas, tails)
        for t, key, pi0_t in zip(range(t0, t0 + len(keys)), keys.tolist(), pi0.tolist()):
            self.pi0_hat = pi0_t
            self._place(key, t)
            self.t = t

    def _bound(self, k):
        # pi0_hat is 0 only when every weight is 0, and then no key is counted
        return k / self.pi0_hat if self.pi0_hat else math.inf


class Lord(StreamProcedure):
    """LORD (the generalized ++ variant) with gamma-sequence spending.

    alpha_t = gamma_t * w0 + (alpha - w0) * gamma_{t - tau_1} * 1{tau_1 < t}
              + alpha * sum_{j >= 2, tau_j < t} gamma_{t - tau_j},

    where tau_j is the time of the j-th rejection and w0 <= alpha is the
    initial wealth (default alpha / 2, the usual even split between initial
    wealth and the first-rejection bonus).  These levels satisfy
    sum_{i<=t} alpha_i <= alpha * (|R_t| v 1) at every t.
    """

    kind = ScoreKind.P_VALUE

    def __init__(self, weights, alpha, w0: float | None = None):
        super().__init__(weights, alpha)
        self.w0 = alpha / 2.0 if w0 is None else float(w0)
        if not (0.0 < self.w0 <= alpha):
            raise ConfigError(f"w0={self.w0} outside (0, alpha]")
        self.levels: list[float] = []
        self.spent = 0.0
        # geometric weights admit an O(1) recursion for the spending sums
        self._geom_q = weights._q if weights.description == "geometric" else None
        self._sum_first = 0.0   # gamma_{t - tau_1}
        self._sum_rest = 0.0    # sum_{j>=2} gamma_{t - tau_j}

    def _level(self, t: int) -> float:
        if self._geom_q is not None:
            first, rest = self._sum_first, self._sum_rest
        else:
            tau = iter(self.rejection_times)  # LORD rejects on arrival only
            first = self.weights.gamma(t - next(tau)) if self.rejection_times else 0.0
            rest = math.fsum(self.weights.gamma(t - tau_j) for tau_j in tau)
        return self.weights.gamma(t) * self.w0 + (self.alpha - self.w0) * first + self.alpha * rest

    def _place(self, value, t):
        if self._geom_q is not None:
            q = self._geom_q
            self._sum_first *= q
            self._sum_rest *= q
            if t - 1 in self.rejection_times:
                g1 = self.weights.gamma(1)
                if len(self.rejection_times) == 1:
                    self._sum_first += g1
                else:
                    self._sum_rest += g1
        level = self._level(t)
        self.levels.append(level)
        self.spent += level
        if value <= level:
            self.rejection_times[t] = t

    def condition_slack(self) -> float:
        """alpha * (|R_t| v 1) - sum_{i<=t} alpha_i; nonnegative when valid."""
        return self.alpha * max(1, len(self.rejection_times)) - self.spent


class Saffron(StreamProcedure):
    """SAFFRON with candidate threshold lambda and gamma-sequence spending.

    alpha_t = min(lambda, w0 gamma_{t - C_{0,t}}
                  + ((1-lambda) alpha - w0) gamma_{t - tau_1 - C_{1,t}} 1{tau_1 < t}
                  + (1-lambda) alpha sum_{j>=2, tau_j < t} gamma_{t - tau_j - C_{j,t}}),

    where C_{j,t} counts candidates (P_i <= lambda) strictly between tau_j and
    t.  With w0 <= (1-lambda) alpha the levels satisfy
    sum_{i<=t} alpha_i 1{P_i > lambda} / (1-lambda) <= alpha * (|R_t| v 1).
    """

    kind = ScoreKind.P_VALUE

    def __init__(self, weights, alpha, lam: float = 0.5, w0: float | None = None):
        super().__init__(weights, alpha)
        if not (0.0 < lam < 1.0):
            raise ConfigError(f"lambda={lam} outside (0, 1)")
        self.lam = lam
        cap = (1.0 - lam) * alpha
        self.w0 = cap / 2.0 if w0 is None else float(w0)
        if not (0.0 < self.w0 <= cap):
            raise ConfigError(f"w0={self.w0} outside (0, (1-lambda)*alpha]")
        self._cand_total = 0  # candidates so far
        self._cand_at: list[int] = []  # the candidate total at each tau_j
        self.levels: list[float] = []
        self.discounted_spend = 0.0  # sum alpha_i 1{P_i > lambda} / (1 - lambda)
        self._geom_q = weights._q if weights.description == "geometric" else None
        self._sum_w0 = weights.gamma(1)  # gamma_{t - C_{0,t}} for geometric
        self._sum_first = 0.0
        self._sum_rest = 0.0

    def _level(self, t: int) -> float:
        if self._geom_q is not None:
            base, first, rest = self._sum_w0, self._sum_first, self._sum_rest
        else:
            total = self._cand_total
            base = self.weights.gamma(t - total)
            first = rest = 0.0
            # SAFFRON rejects on arrival only: the keys are the tau_j, in order
            for j, tau in enumerate(self.rejection_times):
                g = self.weights.gamma(t - tau - (total - self._cand_at[j]))  # C_{j,t}
                if j == 0:
                    first = g
                else:
                    rest += g
        raw = (self.w0 * base
               + ((1.0 - self.lam) * self.alpha - self.w0) * first
               + (1.0 - self.lam) * self.alpha * rest)
        return min(self.lam, raw)

    def _place(self, value, t):
        level = self._level(t)
        self.levels.append(level)
        if value > self.lam:
            self.discounted_spend += level / (1.0 - self.lam)
        rejected = value <= level
        is_candidate = value <= self.lam
        if is_candidate:
            self._cand_total += 1
        if rejected:
            # a rejected p is a candidate, so the total already counts tau_j
            self._cand_at.append(self._cand_total)
        if self._geom_q is not None:
            # indices t - tau_j - C_{j,t} advance only on non-candidate steps
            q = self._geom_q
            if not is_candidate:
                self._sum_w0 *= q
                self._sum_first *= q
                self._sum_rest *= q
            if rejected:
                g1 = self.weights.gamma(1)
                # t is booked below, so the times hold tau_j < t
                if not self.rejection_times:
                    self._sum_first += g1
                else:
                    self._sum_rest += g1
        if rejected:
            self.rejection_times[t] = t

    def condition_slack(self) -> float:
        """alpha * (|R_t| v 1) - sum alpha_i 1{P_i > lambda}/(1-lambda)."""
        return self.alpha * max(1, len(self.rejection_times)) - self.discounted_spend
