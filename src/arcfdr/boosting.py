"""Truncation functions, boosting-factor solver for Gaussian likelihood-ratio
e-values, p-to-e transforms, and SupFDR/OnlineFDR condition checks.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import ndtr, ndtri

from .core import ConfigError, InputError, ScoreKind, needs


class SolverError(RuntimeError):
    """No boosting factor exists in the search bracket."""


class TruncationVariant(Enum):
    FULL = "full"                # T_t
    PLUS = "plus"                # ^+T_t^s: passes x through below the cutoff
    MINUS = "minus"              # ^-T_t^s: zero below the cutoff
    LOCAL = "local"              # min(T_t(x), 1/((k0+1) alpha gamma))
    LOCAL_PLUS = "local_plus"
    LOCAL_MINUS = "local_minus"
    TOAD = "toad"                # minus-style cutoff at the deadline d
    PRDS = "prds"                # T_t pointwise; sup-probability criterion


@dataclass(frozen=True)
class TruncationSpec:
    """Parameters of a truncation function on the grid {1/(k alpha gamma)}."""

    variant: TruncationVariant
    alpha: float
    gamma: float
    s: int | None = None          # series cutoff for Plus/Minus/LocalX/PRDS
    lag_kstar: int | None = None  # k*_{t - L_t - 1} for the Local variants
    d: float | None = None        # decision deadline for Toad

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigError(f"alpha={self.alpha} outside (0, 1]")
        if not 0.0 <= self.gamma < math.inf:
            raise ConfigError(f"gamma={self.gamma} is negative or not finite")
        v = self.variant
        if v in (TruncationVariant.PLUS, TruncationVariant.MINUS,
                 TruncationVariant.LOCAL_PLUS, TruncationVariant.LOCAL_MINUS):
            if self.s is None or not self.s >= 1:  # NaN too
                raise ConfigError(f"{v.value} needs a cutoff s >= 1, got s={self.s}")
        if v in (TruncationVariant.LOCAL, TruncationVariant.LOCAL_PLUS,
                 TruncationVariant.LOCAL_MINUS):
            if self.lag_kstar is None or not self.lag_kstar >= 0:  # NaN too
                raise ConfigError(f"{v.value} needs lag_kstar >= 0, got {self.lag_kstar}")
        elif self.lag_kstar is not None:
            raise ConfigError(f"{v.value} takes no lag_kstar (local variants only)")
        if v is TruncationVariant.TOAD:
            if self.d is None or not self.d >= 1:  # NaN too
                raise ConfigError(f"toad needs a deadline d >= 1, got d={self.d}")

    @property
    def cutoff_s(self) -> float:
        """Effective series cutoff (the deadline for Toad, +inf for Full)."""
        if self.variant is TruncationVariant.TOAD:
            return self.d
        if self.s is not None:
            return self.s
        return math.inf


def truncate(spec: TruncationSpec, x):
    """Evaluate the truncation function at x (scalar or array, +inf allowed)."""
    scalar = np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0.0) or np.any(np.isnan(x)):
        raise InputError("truncation input must be nonnegative")
    ag = spec.alpha * spec.gamma
    if ag == 0.0:
        # gamma = 0, or alpha * gamma underflows: the grid {1/(k ag)} is out
        # of reach, and the convention 0 * inf = 0 gives 0 everywhere
        out = np.zeros_like(x)
        return float(out[0]) if scalar else out

    k = needs(x, ScoreKind.E_VALUE, spec.alpha, spec.gamma)  # inf at x = 0
    far = np.flatnonzero(np.isinf(k) & (x > 0.0))
    if far.size:
        # x below 1/(1e15 ag), where needs() reports none, still has a grid
        # value: the ceil candidate after two correction passes
        xf = x[far]
        with np.errstate(divide="ignore", over="ignore"):
            kf = np.maximum(1.0, np.ceil(1.0 / (ag * xf)))
            for _ in range(2):
                kf += 1.0 / (kf * ag) > xf
                kf -= (kf > 1.0) & (1.0 / (np.maximum(kf - 1.0, 1.0) * ag) <= xf)
        k[far] = kf
    out = np.zeros_like(x)
    hit = x > 0.0
    out[hit] = 1.0 / (k[hit] * ag)

    s = spec.cutoff_s
    if math.isfinite(s):
        below = k > s  # x below the smallest retained grid value 1/(s*ag)
        if spec.variant in (TruncationVariant.PLUS, TruncationVariant.LOCAL_PLUS):
            out[below] = x[below]
        else:
            out[below] = 0.0
    if spec.lag_kstar is not None:
        out = np.minimum(out, 1.0 / ((spec.lag_kstar + 1) * ag))
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class GaussianLRModel:
    """Likelihood-ratio e-value E = exp(delta * Z - delta^2 / 2) for a mean
    shift delta; under the null (Z standard normal) E has mean 1.
    """

    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta < math.inf:
            raise ConfigError(f"delta={self.delta} must be positive and finite")

    def evalue(self, z):
        return np.exp(self.delta * np.asarray(z, dtype=float) - self.delta ** 2 / 2.0)


B_MAX = 1e6             # default upper limit of a boosting factor
_ROW_STEP = 1.0 / 32    # spacing of a BoostTable's rows in v = log u
_ROWS_ABOVE = 32        # rows a solve first wants above its largest log y
_POLISH_STEPS = 60      # bisection halves a 1/32-wide bracket to 1e-13 in 39,
                        # and a cell to 1e-13 of its width in 44
_CHUNK_TERMS = 1 << 14  # (target, k) terms per array of an exact evaluation
_NEWTON_DONE = 1e-11    # |Newton step| in v: the point is that close to the root
_BISECT_DONE = 1e-13    # bracket width in v at which bisection stops
_CELL_DONE = 1e-13      # |Newton step| on a cell's interpolant, in cell widths
_CERTIFIED = 1e-9       # the interpolant decides where its remainder bound is below this * y
_RESIDUAL_MAX = 1e-6    # |E_null[T(bE)] - 1| allowed at a returned factor
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# max over z of |He_i(z) phi(z)|, i = 0..7, rounded up: the i+1-th derivative
# of Phi is (-1)^i He_i phi
_HE_PHI_MAX = (0.3989423, 0.2419708, 0.3989423, 0.5505879,
               1.1968269, 2.3071060, 5.9841343, 14.1779772)
# the two-point Hermite remainder of degree 7 is G^(8) (t(1-t))^4 h^8 / 8!
# at t in [0, 1] on a cell of width h, at most G^(8) h^8 / (8! 256)
_REMAINDER = _ROW_STEP ** 8 / (40320.0 * 256.0)
# c_4..c_7 of that interpolant from the residues r_0..r_3 of its upper end
_HERMITE_HIGH = ((35.0, -15.0, 5.0, -1.0), (-84.0, 39.0, -14.0, 3.0),
                 (70.0, -34.0, 13.0, -3.0), (-20.0, 10.0, -4.0, 1.0))


class BoostTable:
    """Rows v = i/32, i = first, first + 1, ..., of v = log(alpha gamma b),
    of the null tail probabilities T_k(v) = P(bE >= 1/(k alpha gamma)),
    k = 1..s, for one (delta, s): the Abel-weighted suffix sums of T_k and
    of its first three derivatives in v, those four of T_s, and those four
    of the Plus pass-through term.

    T_k depends on b and on the weight only through v, so one table per
    (delta, s) brackets the root of every target alpha*gamma_t, for every
    cutoff variant and every lag k0, and holds G and its first three
    derivatives at its rows.  It starts empty, and solve_boost_factors adds
    the rows its brackets need.  A row depends only on its v, so rows can
    be added at either end and each is computed once per table.
    """

    def __init__(self, delta: float, s: int):
        self.delta, self.s, self.first = delta, s, 0
        self._set(self._rows(0, -1))

    def _rows(self, lo: int, hi: int) -> dict:
        delta, s = self.delta, self.s
        v = np.arange(lo, hi + 1) * _ROW_STEP
        logk = np.log(np.arange(1, s + 1, dtype=float))
        z = (logk + v[:, None]) / delta - delta / 2.0
        dens = np.exp(-0.5 * z * z) * (_INV_SQRT_2PI / delta)
        # T_k and its derivatives phi/delta, -z phi/delta^2, (z^2 - 1) phi/delta^3
        tails = np.stack([ndtr(z), dens, -z * dens / delta,
                          (z * z - 1.0) * dens / (delta * delta)], axis=1)
        w = _abel_weights(1, s, s)
        # P = u Phi(a) and Q = u phi(a), a = -delta/2 - (log s + v)/delta:
        # P' = P - Q/delta and Q' = Q (1 + a/delta)
        u = np.exp(v)
        a = -delta / 2.0 - (logk[-1] + v) / delta
        p = u * ndtr(a)
        q = u * np.exp(-0.5 * a * a) * _INV_SQRT_2PI
        r = 1.0 + a / delta
        dp = p - q / delta
        d2p = dp - q * r / delta
        d3p = d2p - q * (r * r - 1.0 / (delta * delta)) / delta
        return {"v": v,
                # suffix[:, i, m-1] = sum_{k >= m} w_k d^i T_k/dv^i: the
                # minus-type sum of every k0 and its derivatives
                "suffix": _suffix_sums(tails * w),
                "tail_last": tails[:, :, -1],
                "pass_through": np.stack([p, dp, d2p, d3p], axis=1)}

    def _set(self, rows: dict):
        for name, value in rows.items():
            setattr(self, name, value)

    @property
    def last(self) -> int:
        return self.first + len(self.v) - 1

    def extend(self, lo: int, hi: int):
        """Add the rows from lo to hi that are missing, and any between
        them and the kept ones."""
        if not len(self.v):
            self.first = lo
        elif lo >= self.first and hi <= self.last:
            return
        lo, last = min(lo, self.first), self.last
        parts = (self._rows(lo, self.first - 1), vars(self),
                 self._rows(last + 1, max(hi, last)))
        self.first = lo
        self._set({name: np.concatenate([p[name] for p in parts]) for name in parts[0]})


def _suffix_sums(x: np.ndarray) -> np.ndarray:
    """out[..., j] = sum of x[..., j:] along the last axis."""
    return np.cumsum(x[..., ::-1], axis=-1)[..., ::-1]


def _abel_weights(m: int, s: int, last: int) -> np.ndarray:
    """Weights of T_k, k = m..s, in the Abel-summed bracket sum: 1/(k(k+1))
    below s and 1/last at k = s."""
    ks = np.arange(m, s + 1, dtype=float)
    w = 1.0 / (ks * (ks + 1.0))
    w[-1] = 1.0 / last
    return w


class BoostCurve:
    """G(v) = alpha*gamma*E_null[T(bE)] at v = log(alpha*gamma*b), for one
    (variant, s, delta) and a lag k0 per target (or one for all).

    With u = alpha*gamma*b the tails are T_k = Phi((log k + v)/delta - delta/2),
    free of t, and Abel summation turns the bracket sum of every cutoff
    variant into G = sum_{k=m}^{s-1} T_k/(k(k+1)) + T_s/max(s, k0+1) with
    m = min(k0+1, s) (k0 = 0 without a lag).  The Plus variants add the
    pass-through term u * Phi(-delta/2 - (log s + v)/delta); PRDS is instead
    G = max_k T_k/k.  Every G is nondecreasing in v, and the boosting factor
    of weight gamma is the root of G(v) = alpha*gamma.
    """

    def __init__(self, delta: float, variant: TruncationVariant, s: int,
                 lag_kstar=None):
        if variant in (TruncationVariant.FULL, TruncationVariant.LOCAL):
            raise ConfigError(f"no closed form for variant {variant.value}")
        try:  # any integer, numpy's too, but not 2.5 read as 2
            s = operator.index(s)
        except TypeError:
            raise ConfigError(f"{variant.value} needs an integer cutoff s, got s={s!r}") from None
        if s < 1:
            raise ConfigError(f"{variant.value} needs a cutoff s >= 1, got s={s}")
        local = variant in (TruncationVariant.LOCAL_PLUS, TruncationVariant.LOCAL_MINUS)
        if not local and lag_kstar is not None:
            raise ConfigError(f"{variant.value} takes no lag_kstar (local variants only)")
        if not local:
            k0 = np.zeros(1, dtype=np.int64)
        elif lag_kstar is None or np.any(np.asarray(lag_kstar) < 0):
            raise ConfigError(f"{variant.value} needs lag_kstar >= 0")
        else:
            k0 = np.atleast_1d(np.asarray(lag_kstar, dtype=np.int64))
        if variant is TruncationVariant.LOCAL_PLUS and np.any(k0 + 1 > s):
            raise ConfigError("local_plus needs s >= lag_kstar + 1")
        self.delta, self.s = delta, s
        self.prds = variant is TruncationVariant.PRDS
        self.plus = variant in (TruncationVariant.PLUS, TruncationVariant.LOCAL_PLUS)
        # the distinct lags, and the one of each target (or one for all)
        self.lags, self.column = np.unique(k0, return_inverse=True)
        self.logk = np.log(np.arange(1, s + 1, dtype=float))
        self._terms = {}

    def _terms_of(self, k0: int):
        """log k and the weight of T_k for the terms k = m..s of lag k0."""
        if k0 not in self._terms:
            s = self.s
            if self.prds:
                self._terms[k0] = self.logk, 1.0 / np.arange(1, s + 1, dtype=float)
            else:
                m = min(k0 + 1, s)
                self._terms[k0] = self.logk[m - 1:], _abel_weights(m, s, max(s, k0 + 1))
        return self._terms[k0]

    def __call__(self, v: np.ndarray, which=None):
        """G and dG/dv at each v[i] on the curve of target which[i] (dG is
        None for PRDS, whose G is a max).

        Targets are evaluated lag by lag, in chunks of about 16k terms, with
        row sums, not a matrix product: a target's G does not depend on which
        other targets or lags share the call."""
        d = self.delta
        v = np.asarray(v, dtype=float)
        g = np.empty(len(v))
        dg = None if self.prds else np.empty(len(v))
        if len(self.lags) == 1:
            groups = [(0, np.arange(len(v)))]
        else:
            column = self.column[which]
            groups = [(u, np.flatnonzero(column == u)) for u in np.unique(column)]
        for u, rows in groups:
            logk, w = self._terms_of(int(self.lags[u]))
            step = max(1, _CHUNK_TERMS // len(w))
            for c in range(0, len(rows), step):
                r = rows[c:c + step]
                z = (logk + v[r, None]) / d - d / 2.0
                if self.prds:
                    g[r] = np.max(ndtr(z) * w, axis=1)
                    continue
                g[r] = np.sum(ndtr(z) * w, axis=1)
                dg[r] = np.sum(np.exp(-0.5 * z * z) * w, axis=1) * (_INV_SQRT_2PI / d)
        if self.plus:
            a = -d / 2.0 - (self.logk[-1] + v) / d
            u = np.exp(v)
            pass_through = u * ndtr(a)
            g = g + pass_through
            dg = dg + pass_through - u * np.exp(-0.5 * a * a) * (_INV_SQRT_2PI / d)
        return g, dg

    def on_grid(self, rows: BoostTable):
        """G and its first three derivatives in v at a table's rows, from
        their suffix sums, for the cutoff variants but PRDS: shape (rows,
        4, lags), one column per distinct lag, the one of target i being
        column[i].  Lag k0 reads suffix column m = k0 + 1 and corrects the
        weight of T_s."""
        k0 = self.lags
        m = np.minimum(k0 + 1, self.s)
        corr = 1.0 / np.maximum(self.s, k0 + 1) - 1.0 / self.s
        col = rows.suffix[:, :, m - 1] + rows.tail_last[:, :, None] * corr
        if self.plus:
            col = col + rows.pass_through[:, :, None]
        return col

    def remainder_bound(self, k0: np.ndarray, v_hi: np.ndarray) -> np.ndarray:
        """A bound on |G - p| over a cell of the rows below v_hi, p the
        degree-7 Hermite interpolant there, for the cutoff variants but
        PRDS.  The 8th derivative of T_k is at most max|He_7 phi|/delta^8,
        and the weights of lag k0 sum to at most 1/m, m = min(k0 + 1, s);
        by Leibniz, that of the pass-through term u Phi(a), a' = -1/delta,
        is at most e^v (1 + sum_{i=1..8} C(8, i) max|He_(i-1) phi|/delta^i)."""
        d = self.delta
        g8 = _HE_PHI_MAX[7] / (np.minimum(k0 + 1, self.s) * d ** 8)
        if self.plus:
            g8 = g8 + np.exp(v_hi) * (1.0 + sum(math.comb(8, i) * _HE_PHI_MAX[i - 1] / d ** i
                                                for i in range(1, 9)))
        return g8 * _REMAINDER

    def prds_roots(self, y: np.ndarray) -> np.ndarray:
        """The root of G(v) = y[i] for PRDS in closed form.  G = max_k
        Phi(z_k(v))/k reaches y first where one k with k*y < 1 has
        Phi(z_k(v)) = k*y, so the root is the least such v over k,
        delta*(ndtri(k*y) + delta/2) - log k; inf where no k has k*y < 1."""
        d, ks = self.delta, np.arange(1, self.s + 1, dtype=float)
        out = np.empty(len(y))
        step = max(1, _CHUNK_TERMS // self.s)
        for c in range(0, len(y), step):
            ky = y[c:c + step, None] * ks
            # ndtri(1) = inf stands for every k with k*y >= 1
            at = d * (ndtri(np.minimum(ky, 1.0)) + d / 2.0) - self.logk
            out[c:c + step] = np.min(at, axis=1)
        return out


def _hermite(lower, upper):
    """Coefficients c_0..c_7, lowest first, in t = (v - v_lo)/h on cells
    [v_lo, v_lo + h] of the rows, of the degree-7 polynomials that match G
    and its first three derivatives in v at both ends (lower and upper:
    those four at each end, one array of cells each)."""
    scale = (1.0, _ROW_STEP, _ROW_STEP ** 2 / 2.0, _ROW_STEP ** 3 / 6.0)
    c = [g * f for g, f in zip(lower, scale)]
    d = [g * f for g, f in zip(upper, scale)]
    # p^(i)(1)/i! = sum_k C(k, i) c_k: what c_4..c_7 must add to c_0..c_3 there
    r = (d[0] - (c[0] + c[1] + c[2] + c[3]), d[1] - (c[1] + 2.0 * c[2] + 3.0 * c[3]),
         d[2] - (c[2] + 3.0 * c[3]), d[3] - c[3])
    high = [a0 * r[0] + a1 * r[1] + a2 * r[2] + a3 * r[3] for a0, a1, a2, a3 in _HERMITE_HIGH]
    return np.array(c + high)


def _horner(c, t):
    """p(t) and dp/dt of the polynomials with coefficients c, lowest first."""
    p, dp = c[-1], np.zeros_like(t)
    for ck in c[-2::-1]:
        dp = dp * t + p
        p = p * t + ck
    return p, dp


def _cell_roots(coef, y, start, lo, hi):
    """A root of p(t) = y on each cell by Newton from start, safeguarded by
    bisection in [lo, hi], where p(lo) < y <= p(hi); it ends where the next
    step is at most 1e-13 of the cell.  Returns the last point at which p
    was evaluated, and p - y there."""
    t = start
    for i in range(_POLISH_STEPS):
        f, df = _horner(coef, t)
        f = f - y
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / df
        # tested before the safeguard: at the root Newton's next point is
        # on the bracket's end, where the safeguard would bisect.  A point
        # that is done stays, and gives the same step again
        done = np.abs(step) <= _CELL_DONE
        if np.all(done) or i == _POLISH_STEPS - 1:
            break
        low = f < 0.0
        lo, hi = np.where(low, t, lo), np.where(low, hi, t)
        nxt = t - step
        t = np.where(done, t, np.where((nxt > lo) & (nxt < hi), nxt, 0.5 * (lo + hi)))
    return t, f


def _brackets(curve: BoostCurve, table: BoostTable, c, y):
    """The bracket of each target y on curve column c: the first table row
    with G >= y, G made nondecreasing (len(table.v) where no row has), and
    G and its first three derivatives at the table's rows."""
    grid = curve.on_grid(table)
    rising = np.maximum.accumulate(grid[:, 0], axis=0)
    j = np.empty(len(y), dtype=np.int64)
    for u in range(grid.shape[2]):
        at = c == u
        j[at] = np.searchsorted(rising[:, u], y[at])
    return j, grid


def _polish(curve: BoostCurve, y, ly, v_top, which, top, below, start, first, b_max):
    """Roots of G(v) = y by a safeguarded Newton iteration in log G on exact
    evaluations of G, all pending targets at once, in [below, top] clipped
    to [log y, log(y b_max)], from start, or from log y where first, so that
    one evaluation also settles E_null[T(E)] >= 1; which are the targets'
    indices on the curve.  Returns each root at the last point its G was
    evaluated, and the residual G/y - 1 there (0 at b = 1)."""
    hi = np.clip(top, ly, v_top)
    clipped = np.flatnonzero(top > v_top)
    if len(clipped):
        g_top, _ = curve(v_top[clipped], which[clipped])
        if np.any(g_top < y[clipped]):
            raise SolverError(f"no root in [1, {b_max}]")
    lo = np.where(first, ly, below)
    v = np.where(first, ly, np.clip(start, lo, hi))
    v_out, g_out = np.empty(len(y)), np.empty(len(y))
    at_one = np.zeros(len(y), dtype=bool)
    pending = np.arange(len(y))
    for step in range(_POLISH_STEPS):
        vp, yp = v[pending], y[pending]
        g, dg = curve(vp, which[pending])
        v_out[pending], g_out[pending] = vp, g
        if step == 0:
            at_one[pending] = first & (g >= yp)
        up = g < yp
        lo[pending] = lo_p = np.where(up, vp, lo[pending])
        hi[pending] = hi_p = np.where(up, hi[pending], vp)
        nxt = 0.5 * (lo_p + hi_p)
        done = at_one[pending] | (hi_p - lo_p <= _BISECT_DONE)
        if dg is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = vp + (ly[pending] - np.log(g)) * g / dg
            ok = (newton >= lo_p) & (newton <= hi_p)
            nxt = np.where(ok, newton, nxt)
            done |= ok & (np.abs(newton - vp) <= _NEWTON_DONE)
        v[pending] = nxt
        pending = pending[~done]
        if not len(pending):
            break
    return v_out, np.where(at_one, 0.0, g_out / y - 1.0)


def solve_boost_factors(model: GaussianLRModel, variant: TruncationVariant,
                        alpha: float, gammas, s: int, lag_kstar=None,
                        b_max: float = B_MAX, table: BoostTable | None = None) -> np.ndarray:
    """Largest valid boosting factors b_t, E_null[T_t(b_t E)] = 1, for many
    weights gamma_t of one (variant, s, delta), solved together; the local
    variants take one lag k0 for all targets, or one per target.

    Each factor is the root of G(v) = alpha*gamma_t on the t-free curve of
    BoostCurve, so b_t = exp(v_t)/(alpha*gamma_t).  A BoostTable of the
    model's (delta, s), the one passed in or a new one, brackets every root
    in one cell of its rows, and adds them only as far as the brackets
    need.  The root is that of the degree-7 Hermite interpolant p of G on
    the cell, from G and its first three derivatives at both rows, where
    BoostCurve.remainder_bound, the bound on |G - p|, is below 1e-9 of the
    target; p also settles b = 1 where the cell reaches below log y (b = 1
    where p(log y) is within that bound of the target or above).  A target
    whose bound is larger, or whose cell reaches above log(y b_max), takes
    exact evaluations of G instead, in a safeguarded Newton iteration from
    the interpolant's root; one of them, at log(y b_max), decides whether G
    reaches the target below b_max.  PRDS has its root in closed form,
    needs no table, and takes one exact evaluation, for the residual check.
    b_t = 1 where E_null[T_t(E)] >= 1 already.  A target's factor does not
    depend on which other targets or lags share the call, nor on the rows
    left on the table by earlier calls.  Raises ConfigError for a
    non-finite weight, a cutoff s that is not an integer >= 1 or a lag on
    a variant that is not local, and SolverError for a zero weight, for no
    root in [1, b_max], or for a residual |E_null[T_t(b_t E)] - 1| above
    1e-6: for a factor from the interpolant, |p - y|/y plus the bound, else
    from the last exact evaluation.  The former is at most about 1e-9, so it
    checks p against its own bound only: that the table's rows and p are G
    and its interpolant rests on the tests against bisection on exact
    evaluations.
    """
    if b_max < 1.0:
        raise ConfigError(f"b_max={b_max} is below 1")
    curve = BoostCurve(model.delta, variant, s, lag_kstar)
    y = alpha * np.atleast_1d(np.asarray(gammas, dtype=float))
    if len(curve.column) not in (1, len(y)):
        raise ConfigError(f"{len(curve.column)} lags for {len(y)} weights")
    if not np.all(np.isfinite(y)):
        raise ConfigError("weights must be finite")
    if np.any(y <= 0.0):
        raise SolverError("gamma = 0: truncation is identically 0, no root")
    if not len(y):
        return np.empty(0)
    ly = np.log(y)
    v_top = ly + math.log(b_max)
    # b = exp(v - log y), and residual bounds |G(v)/y - 1|
    v, residual = ly.copy(), np.zeros(len(y))
    if curve.prds:
        # the root itself: a bracket of width 0, which one evaluation ends
        exact = np.arange(len(y))
        top = curve.prds_roots(y)
        below = start = np.clip(top, ly, v_top)
        first = top <= ly
    else:
        if table is None or (table.delta, table.s) != (model.delta, curve.s):
            table = BoostTable(model.delta, curve.s)
        c = np.broadcast_to(curve.column, y.shape)
        # rows from just below the least log y up, doubling the span above
        # the largest log y until every target has its bracket, or until
        # the rows reach the largest log(y b_max)
        bottom = math.ceil(ly.min() / _ROW_STEP) - 1
        highest = math.floor(ly.max() / _ROW_STEP)
        cap = math.ceil(v_top.max() / _ROW_STEP)
        above = _ROWS_ABOVE
        while True:
            table.extend(bottom, min(highest + above, cap))
            j, grid = _brackets(curve, table, c, y)
            if np.all(j < len(table.v)) or table.last >= cap:
                break
            above *= 2
        top, below = table.v[np.minimum(j, len(table.v) - 1)], table.v[np.maximum(j - 1, 0)]
        # b = 1 where a row at or below log y reaches y; no root where none
        # up to a row at or above log(y b_max) does
        at_one = (j == 0) | (top <= ly)
        if np.any((j == len(table.v)) | (~at_one & (v_top <= below))):
            raise SolverError(f"no root in [1, {b_max}]")
        cell = np.flatnonzero(~at_one)
        jc, cc = j[cell], c[cell]
        coef = _hermite(grid[jc - 1, :, cc].T, grid[jc, :, cc].T)
        bound = curve.remainder_bound(curve.lags[cc], top[cell])
        yc, low = y[cell], below[cell]
        t_ly = np.clip((ly[cell] - low) / _ROW_STEP, 0.0, 1.0)
        p_ly, _ = _horner(coef, t_ly)
        certified = bound < _CERTIFIED * yc
        # where the cell reaches below log y and p(log y) is within the
        # bound of y or above, b = 1 passes the residual check
        one = certified & (low < ly[cell]) & (p_ly + bound >= yc)
        # a cell reaching above log(y b_max) leaves b_max to the exact
        # evaluation at log(y b_max) in _polish
        exact_cell = ~one & (~certified | (v_top[cell] < top[cell]))
        g_lo, g_hi = coef[0], grid[jc, 0, cc]
        t, f = _cell_roots(coef, yc, np.clip((yc - g_lo) / (g_hi - g_lo), t_ly, 1.0),
                           t_ly, np.ones(len(cell)))
        root = ~one & ~exact_cell
        v[cell[root]] = np.clip(low[root] + t[root] * _ROW_STEP,
                                ly[cell[root]], v_top[cell[root]])
        residual[cell[root]] = (np.abs(f[root]) + bound[root]) / yc[root]
        residual[cell[one]] = np.maximum(yc[one] - p_ly[one] + bound[one], 0.0) / yc[one]
        exact = cell[exact_cell]
        start = low + t * _ROW_STEP
        top, below, start = top[exact], below[exact], start[exact_cell]
        first = below < ly[exact]
    if len(exact):
        v[exact], residual[exact] = _polish(curve, y[exact], ly[exact], v_top[exact], exact,
                                            top, below, start, first, b_max)

    b = np.exp(v - ly)
    worst = int(np.argmax(np.abs(residual)))
    if not abs(residual[worst]) <= _RESIDUAL_MAX:
        raise SolverError(f"residual {residual[worst]:.3e} exceeds "
                          f"{_RESIDUAL_MAX} at b={b[worst]}")
    return b


def _curve_args(spec: TruncationSpec):
    """The (variant, s, lag) of the BoostCurve of a spec with a cutoff."""
    s = spec.cutoff_s
    if not math.isfinite(s):
        raise ConfigError(f"no closed form for variant {spec.variant.value} without a cutoff")
    return spec.variant, int(s), spec.lag_kstar


def expected_truncated_value(model: GaussianLRModel, spec: TruncationSpec, b: float) -> float:
    """E_null[T(b * E)] for the cutoff variants: G(log(alpha gamma b)) /
    (alpha gamma) on the BoostCurve of the spec, the curve the solver finds
    its roots on.  For PRDS this is the criterion sup_k P(bE >= 1/(k ag)) /
    (k ag).  0 for b = 0 or a weight alpha*gamma of 0; at b = inf the
    curve's limit T(inf), where the Plus pass-through term tends to 0.
    """
    if not b >= 0.0:
        raise InputError(f"b={b} is not a nonnegative number")
    ag = spec.alpha * spec.gamma
    if ag == 0.0 or b == 0.0:
        return 0.0
    variant, s, lag = _curve_args(spec)
    if b == math.inf:
        return truncate(spec, math.inf)
    g, _ = BoostCurve(model.delta, variant, s, lag)(np.array([math.log(ag) + math.log(b)]))
    return float(g[0]) / ag


def solve_boost_factor(model: GaussianLRModel, spec: TruncationSpec,
                       b_max: float = B_MAX) -> float:
    """Largest valid boosting factor: the b >= 1 with E_null[T(b*E)] = 1.

    A one-target call of solve_boost_factors: 1 when E_null[T(E)] >= 1
    already, SolverError for gamma = 0, for no root in [1, b_max] or for a
    residual above 1e-6.
    """
    variant, s, lag = _curve_args(spec)
    b = solve_boost_factors(model, variant, spec.alpha, [spec.gamma], s,
                            lag_kstar=lag, b_max=b_max)
    return float(b[0])


class NonincreasingTransform:
    """A nonincreasing left-continuous psi: [0,1] -> [0,inf] with psi(0) = inf,
    used to turn p-values into e-value-like statistics, together with its
    generalized inverse psi_inverse(x) = max{u in [0,1] : psi(u) >= x}.
    """

    def __init__(self, psi=None, psi_inverse=None, name: str = "custom"):
        if psi is None and psi_inverse is None:
            raise ConfigError("provide psi, psi_inverse, or both")
        self._psi = psi
        self._psi_inverse = psi_inverse
        self.name = name

    @classmethod
    def reciprocal(cls) -> "NonincreasingTransform":
        """psi(u) = 1/u, the calibrator-free p-to-e map."""
        return cls(
            psi=lambda u: math.inf if u == 0.0 else 1.0 / u,
            psi_inverse=lambda x: 1.0 if x <= 1.0 else 1.0 / x,
            name="reciprocal",
        )

    @classmethod
    def zero(cls) -> "NonincreasingTransform":
        """psi = 0 on (0, 1] with psi(0) = inf; the degenerate transform."""
        return cls(
            psi=lambda u: math.inf if u == 0.0 else 0.0,
            psi_inverse=lambda x: 1.0 if x <= 0.0 else 0.0,
            name="zero",
        )

    @classmethod
    def from_shape_function(cls, beta, alpha: float, gamma: float) -> "NonincreasingTransform":
        """Transform with psi_inverse(1/(k alpha gamma)) = alpha gamma beta(k),
        which makes online e-BH on psi(P) behave like a reshaped step-up.
        """
        ag = alpha * gamma
        if ag <= 0.0:
            raise ConfigError("needs alpha * gamma > 0")

        def psi_inverse(x):
            if x <= 0.0:
                return 1.0
            return min(1.0, ag * beta.beta(1.0 / (ag * x)))

        return cls(psi_inverse=psi_inverse, name=f"shape[{beta.variant}]")

    def psi(self, u: float) -> float:
        if not (0.0 <= u <= 1.0):
            raise InputError(f"u={u} outside [0, 1]")
        if self._psi is not None:
            return self._psi(u)
        if u == 0.0:
            return math.inf
        # generalized inverse of the inverse: sup{x : psi_inverse(x) >= u}
        lo, hi = 0.0, 1.0
        while self._psi_inverse(hi) >= u:
            lo = hi
            hi *= 2.0
            if hi > 1e300:
                return math.inf
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self._psi_inverse(mid) >= u:
                lo = mid
            else:
                hi = mid
        return lo

    def psi_inverse(self, x: float) -> float:
        if x < 0.0:
            raise InputError(f"x={x} is negative")
        if self._psi_inverse is not None:
            return self._psi_inverse(x)
        # max{u in [0,1] : psi(u) >= x}; psi left-continuous nonincreasing
        if self._psi(1.0) >= x:
            return 1.0
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self._psi(mid) >= x:
                lo = mid
            else:
                hi = mid
        return lo


@dataclass(frozen=True)
class TransformConditionResult:
    passed: bool | None  # None = indeterminate within k_max
    value: float
    tail_bound: float
    mode: str

    def __bool__(self):
        return self.passed is True


def check_transform_condition(psi: NonincreasingTransform, alpha: float, gamma: float,
                              mode: str = "arbitrary", d: float | None = None,
                              k_max: int = 10000) -> TransformConditionResult:
    """Check the validity condition for online e-BH applied to psi(P_t).

    arbitrary: sum_k (1/(k a g)) * (psi_inv(1/(k a g)) - psi_inv(1/((k-1) a g))) <= 1
    prds:      sup_k (1/(k a g)) * psi_inv(1/(k a g)) <= 1
    toad:      the arbitrary-mode series truncated exactly at k = d.

    The infinite series/sup is evaluated up to k_max with a tail bound from
    psi_inverse being nonincreasing; if the tail bound cannot settle pass or
    fail the result is indeterminate (passed = None).
    """
    if not (0.0 < alpha <= 1.0):
        raise ConfigError(f"alpha={alpha} outside (0, 1]")
    if gamma <= 0.0:
        raise ConfigError(f"gamma={gamma} must be positive")
    ag = alpha * gamma
    x = lambda k: 1.0 / (k * ag)

    if mode == "prds":
        sup = 0.0
        for k in range(1, k_max + 1):
            sup = max(sup, x(k) * psi.psi_inverse(x(k)))
        tail = x(k_max + 1)  # each remaining term is at most x_k <= x_{k_max+1}
        if sup > 1.0:
            return TransformConditionResult(False, sup, tail, mode)
        if max(sup, tail) <= 1.0:
            return TransformConditionResult(True, sup, tail, mode)
        return TransformConditionResult(None, sup, tail, mode)

    if mode == "toad":
        if d is None or not 1 <= d < math.inf:  # NaN too
            raise ConfigError(f"toad mode needs a deadline 1 <= d < inf, got d={d}"
                              " (d = inf is the arbitrary mode)")
        k_top = int(d)
        exact = True  # the series terminates at the deadline
    elif mode == "arbitrary":
        k_top = k_max
        exact = False
    else:
        raise ConfigError(f"unknown mode {mode!r}")

    total = 0.0
    prev = psi.psi_inverse(math.inf)  # psi_inv at x_0 = 1/(0 * a g) = inf
    for k in range(1, k_top + 1):
        cur = psi.psi_inverse(x(k))
        total += x(k) * (cur - prev)
        prev = cur
    if exact:
        tail = 0.0
    else:
        tail = x(k_top + 1) * (1.0 - prev)  # remaining increments sum to <= 1 - prev
    if total > 1.0:
        return TransformConditionResult(False, total, tail, mode)
    if total + tail <= 1.0:
        return TransformConditionResult(True, total, tail, mode)
    return TransformConditionResult(None, total, tail, mode)
