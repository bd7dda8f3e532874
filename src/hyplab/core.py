"""Hyperbolic-space primitives: parameters, measures, weights.

Everything is a pure function of its arguments.  The Green's-function
weight ``W`` is evaluated through a cancellation-free reformulation (see
:class:`GreenWeight`): the naive difference of p-th powers loses all digits
once the two terms agree to within machine epsilon, which already happens
around geodesic radius 20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import QuadratureError, geometric_splits, integrate_intervals

__all__ = [
    "HypothesisError",
    "Params",
    "GreenWeight",
    "weight_hp",
    "hp_base",
    "weight_v",
    "geodesic_distance",
    "h_func",
    "coth",
    "coth_minus_inv",
    "log_sinh",
    "sinh_pow",
]


class HypothesisError(ValueError):
    """Parameters violate the hypotheses of the requested statement."""


@dataclass(frozen=True)
class Params:
    """Dimension/exponent pair (N, p) with derived quantities.

    ``p_prime`` is the conjugate exponent p/(p-1) and ``lambda_p`` the
    sharp Poincare constant ((N-1)/p)**p.  The flag ``hardy_hypothesis`` is
    recomputed on access: p >= 2 and N >= 1 + p(p-1), the hypothesis under
    which the Hardy-improved inequalities hold.
    """

    N: int
    p: float

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 2:
            raise HypothesisError(f"N must be an integer >= 2, got {self.N!r}")
        if not (self.p > 1.0) or not math.isfinite(self.p):
            raise HypothesisError(f"p must be a finite real > 1, got {self.p!r}")

    @property
    def p_prime(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def lambda_p(self) -> float:
        return ((self.N - 1) / self.p) ** self.p

    @property
    def hardy_hypothesis(self) -> bool:
        return self.p >= 2.0 and self.N >= 1.0 + self.p * (self.p - 1.0)

    @property
    def sinh_exponent(self) -> float:
        """Green's function integrand exponent (N-1)/(p-1)."""
        return (self.N - 1) / (self.p - 1.0)


# ---------------------------------------------------------------------------
# Stable elementary helpers.
# ---------------------------------------------------------------------------


def coth(r):
    r = np.asarray(r, dtype=float)
    out = 1.0 / np.tanh(r)
    return out if out.ndim else float(out)


_COTH_SERIES = (1.0 / 3.0, -1.0 / 45.0, 2.0 / 945.0, -1.0 / 4725.0)


def coth_minus_inv(r):
    """coth(r) - 1/r without cancellation near r = 0.

    Below r = 1e-3 the two O(1/r) terms agree to ~7 digits; the Taylor
    series r/3 - r^3/45 + 2 r^5/945 - r^7/4725 is exact to double
    precision there.  The series is evaluated on those nodes only.
    """
    r = np.asarray(r, dtype=float)
    small = np.abs(r) < 1e-3
    rb = np.where(small, 1.0, r)
    out = 1.0 / np.tanh(rb) - 1.0 / rb
    if small.any():
        out, rs = np.asarray(out), r[small]
        r2 = rs * rs
        out[small] = rs * (
            _COTH_SERIES[0]
            + r2 * (_COTH_SERIES[1] + r2 * (_COTH_SERIES[2] + r2 * _COTH_SERIES[3]))
        )
    return out if out.ndim else float(out)


def log_sinh(s):
    """log(sinh s) for s > 0, stable for both tiny and huge s."""
    s = np.asarray(s, dtype=float)
    small = s < 1e-2
    sb = np.where(small, 1.0, s)
    out = sb + np.log1p(-np.exp(-2.0 * sb)) - math.log(2.0)
    if small.any():
        out, ss = np.asarray(out), s[small]
        s2 = ss * ss
        # log(sinh s / s) = log(1 + s^2/6 + s^4/120 + ...)
        out[small] = np.log(ss) + np.log1p(s2 / 6.0 * (1.0 + s2 / 20.0 * (1.0 + s2 / 42.0)))
    return out if out.ndim else float(out)


def sinh_pow(r, m: float):
    """(sinh r)**m evaluated in log space; series-based below r = 1e-3."""
    r = np.asarray(r, dtype=float)
    positive = (r > 0.0).all()
    out = np.exp(m * log_sinh(r if positive else np.maximum(r, 5e-324)))
    if not positive:
        out = np.where(r == 0.0, 0.0 if m > 0 else np.inf, out)
    return out if out.ndim else float(out)


def acosh1p(z):
    """arcosh(1 + z) for z >= 0, accurate for small z."""
    z = np.asarray(z, dtype=float)
    out = np.log1p(z + np.sqrt(z * (z + 2.0)))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Green's function of the hyperbolic p-Laplacian and the weight W.
# ---------------------------------------------------------------------------


# Smallest radius whose tail integrals are summed as series; below it they
# are integrated up to it.  Large alpha raises it (see GreenWeight).
_R_STAR = 0.1
# Mean index of the series terms at r*: it bounds the number of terms
# summed there and keeps every partial sum below e^40.
_MEAN_TERM = 40.0
# Series bands [r* 2^j, r* 2^(j+1)), the last one open; a band sums the
# number of terms its lower end needs.
_BANDS = 10
# Elements of the largest temporary array in GreenWeight._series.
_BLOCK = 2**14
# Truncation bound of each series, relative to its sum.
_TAIL = 2.0**-64
# Relative tolerance of the integrals below r*.
_QUAD_TOL = 1e-13
_EPS = float(np.finfo(float).eps)
# The least subnormal, which bounds the absolute rounding of a subnormal result.
_ETA = 2.0**-1074
# Smallest radius at which W is evaluated: the prefactor, up to 2/(1-x) ~ 1/r,
# of the integrands below r* overflows below r = 5.6e-309.
_R_MIN = 1e-308


def _series_terms(beta: float, x: float) -> int:
    """Terms n after which sum_{k>=n} (beta)_k/k! y^k/(c+k) is at most
    _TAIL times the whole sum, for every c > 0 and every 0 <= y <= x.

    (beta)_k/k! x^k (1-x)^beta is the negative binomial law NB(beta, x) of
    mean mu = beta x/(1-x).  For n > mu the rest is at most
    P(K >= n) (1-x)^-beta/(c+n) and, by Jensen, the sum at least
    (1-x)^-beta/(c+mu), so the ratio is at most P(K >= n).  Chernoff's
    bound P(K >= n) <= ((1-x)(n+beta)/beta)^beta (x(n+beta)/n)^n
    decreases in n > mu and grows with x and with beta.
    """
    if x == 0.0:
        return 1
    target = math.log(_TAIL)

    def log_bound(n):
        return (beta * math.log((1.0 - x) * (n + beta) / beta)
                + n * math.log(x * (n + beta) / n))

    lo = math.floor(beta * x / (1.0 - x))
    hi = lo + 1
    while log_bound(hi) > target:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if log_bound(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def _radii(radii) -> np.ndarray:
    """The radii as a 1-D float array; each must be positive and finite."""
    r = np.asarray(radii, dtype=float).ravel()
    if not np.all((r > 0.0) & np.isfinite(r)):
        bad = r[~((r > 0.0) & np.isfinite(r))][0]
        raise ValueError(f"radius must be positive and finite, got {bad}")
    return r


class GreenWeight:
    """Evaluator of the Green's-function weight W for one (N, p).

    W(r) = ((p-1)/p)^p |G'/G|^p - Lambda_p.  Writing
    Z = (p-1)/(N-1) * |G'|/G = 1 + zeta, the identity
    (N-1) G(r) = (p-1) * alpha * int_r^inf (sinh s)^(-alpha-1) cosh s ds
    turns the numerator of zeta into a difference-free integral:

        zeta(r) = int_r^inf (sinh s)^(-alpha-1) e^{-s} ds
                  / int_r^inf (sinh s)^(-alpha) ds  > 0,

    and W = Lambda_p * ((1+zeta)^p - 1) = Lambda_p * expm1(p * log1p(zeta)).
    This is positive by construction and keeps full relative accuracy at
    large r, where zeta ~ c e^{-2r} and the naive difference of p-th
    powers is pure rounding noise.

    With x = e^{-2r}, both tails are incomplete beta functions, that is
    series of positive terms (DLMF 8.17.7, 15.2.1):

        J(beta, gamma; r) = 2 e^{alpha r} int_r^inf e^{-gamma s} (1-e^{-2s})^{-beta} ds
                          = x^{(gamma-alpha)/2} sum_k (beta)_k/k! x^k / (gamma/2 + k),

    the denominator is 2^{alpha-1} e^{-alpha r} J(alpha, alpha), and
    zeta = 2 J(alpha+1, alpha+2) / J(alpha, alpha).  Nothing underflows at
    large r, where the bare numerator decays like e^{-(alpha+2) r}.  From
    r* = max(0.1, log(1 + alpha/40)/2) on, each series is summed from its
    highest power down, to a number of terms fixed per band of radii, all
    of a band's radii in a few array passes; its error bound adds the
    truncation and the rounding of the positive terms.
    Below r*, J(r) = e^{alpha (r-r*)} J(r*) plus the integral from r to r*,
    all of a call's radii in one lockstep pass of the adaptive engine; both
    tails are taken there times (1-x)^kappa, kappa = max(alpha-1, 0), which
    keeps them in the double range down to r = 1e-308 for every alpha and
    leaves zeta as it is.
    Every value and error bound is thus a pure function of (N, p, r),
    bit for bit the same whatever other radii share the call.
    """

    def __init__(self, params: Params):
        self.params = params
        a = self.alpha = params.sinh_exponent
        self.r_star = max(_R_STAR, 0.5 * math.log1p(a / _MEAN_TERM))
        self._edges = self.r_star * 2.0 ** np.arange(_BANDS)
        # The two series, J(alpha, alpha) and J(alpha+1, alpha+2).  The
        # second needs at least as many terms, so its count serves both.
        self._beta = np.array([a, a + 1.0])
        self._c = np.array([a / 2.0, a / 2.0 + 1.0])
        self._terms = np.array([_series_terms(a + 1.0, x)
                                for x in np.exp(-2.0 * self._edges).tolist()])
        # Term k of both series at r*, (beta)_k/k! x*^k/(c+k): each is at
        # most the sum J(r*) <= e^40 (1-x*)^-1/c, so none overflows.
        self._x_star = math.exp(-2.0 * self.r_star)
        k = np.arange(self._terms[0], dtype=float)[:, None]
        steps = self._x_star * (self._beta + k[:-1]) / (k[:-1] + 1.0)
        terms = np.cumprod(np.vstack([np.ones((1, 2)), steps]), axis=0)
        self._coef = terms / (self._c + k)
        # Below r* both rows carry (1-x)^kappa, which cancels the growth of
        # J ~ r^(1-alpha)/(alpha-1) as r -> 0; kappa - alpha is exact.
        self._kappa = max(a - 1.0, 0.0)
        # Both rows of J(r*), the start of every integral below r*
        self._j_star, self._err_star = self._series(np.array([self.r_star]))

    # -- the two tail integrals ------------------------------------------
    def _series(self, r: np.ndarray):
        """Both rows of J and their error bounds at radii r >= r*.

        The terms at r* times the powers of y = x/x*.  The radii of a band
        share its count n; in blocks of at most _BLOCK elements one
        multiply.accumulate forms 1, y, ..., y^(n-1), each term is its
        coefficient times its power, and one add.reduce over the outer
        axis, which numpy takes row by row, sums the terms from the
        highest power down, strictly in sequence.  Term k thus
        takes k - 1 roundings in y^k, one in the product and k + 1 in the
        sum, the 2k + 1 of Horner's rule, and each radius gets the sum it
        gets alone, whatever block it shares.
        """
        x = np.exp(-2.0 * r)
        y = x / self._x_star
        band = np.searchsorted(self._edges, r, side="right") - 1
        s = np.empty((2, r.size))
        for j in np.flatnonzero(np.bincount(band, minlength=_BANDS)).tolist():
            n = int(self._terms[j])
            coef = self._coef[n - 1::-1, :, None]
            cols = np.flatnonzero(band == j)
            width = max(1, _BLOCK // (2 * n))
            for lo in range(0, cols.size, width):
                block = cols[lo:lo + width]
                powers = np.empty((n, block.size))
                powers[0] = 1.0
                powers[1:] = y[block]
                np.multiply.accumulate(powers, axis=0, out=powers)
                terms = coef * powers[::-1, None, :]
                s[:, block] = np.add.reduce(terms, axis=0)
        # Term k of a sum carries a relative error below (8k + 4) eps, the
        # rounding of x^k included, and sum_k k t_k/(c+k) = sum_k t_k - c s,
        # where sum_k t_k <= (1-x)^-beta.
        beta, c = self._beta[:, None], self._c[:, None]
        total = np.exp(-beta * np.log1p(-x))
        err = _EPS * (8.0 * (total - c * s) + 4.0 * s) + _TAIL * s
        # Beyond r ~ 354, x and the second row are subnormal: each is off by
        # up to 2^-1075 in absolute terms, which no relative term covers.
        floor = _ETA * (s[1] + 1.0)
        s[1] *= x
        err[1] = x * err[1] + 3.0 * _EPS * s[1] + floor
        return s, err

    def _below(self, r: np.ndarray):
        """Both rows of (1-x)^kappa J and their error bounds at radii r < r*.

        With x = e^{-2r} and d = s - r, row (beta, gamma) is e^{alpha (r-r*)}
        (1-x)^kappa J(r*) plus the integral from r to r* of 2 (1-x)^(kappa-alpha)
        e^{(alpha-gamma) r - gamma d} (1 + (1-e^{-2d})/(e^{2r}-1))^(-beta), the
        second row's integral divided by (1-x) once more.  The prefactor is
        2/(1-x) ~ 1/r for alpha >= 1, where at small r both rows are about
        1/alpha before that division, and less for alpha < 1, so nothing
        leaves the double range for r >= _R_MIN.
        Bound: 1-x is 1 ulp off, so a direct power (1-x)^q is good to
        |q| + 1 ulps; the lead term is good to 2 |alpha (r-r*)| + kappa + 4
        ulps, the exponential and two products included, and the integrals
        to 3 ulps (prefactor, product) and 2 more for the second division.
        """
        a, m = self.alpha, r.size
        beta = np.repeat(self._beta, m)
        gamma = np.repeat(2.0 * self._c, m)
        one_mx = -np.expm1(-2.0 * r)
        scale = np.tile(2.0 * one_mx ** (self._kappa - a), 2)
        tilt = np.concatenate([np.zeros(m), -2.0 * r])
        lows = np.tile(r, 2)
        inv = np.tile(1.0 / np.expm1(2.0 * r), 2)

        def f(s, owner):
            d = s - lows[owner]
            return scale[owner] * np.exp(
                tilt[owner] - gamma[owner] * d
                - beta[owner] * np.log1p(-np.expm1(-2.0 * d) * inv[owner]))

        results = integrate_intervals(
            f, lows.tolist(), [self.r_star] * lows.size, 0.0, rel_tol=_QUAD_TOL,
            breakpoints=[geometric_splits(lo, self.r_star, min(lo, 1.0 / a))
                         for lo in lows.tolist()],
        )
        vals = np.array([res.value for res in results]).reshape(2, m)
        errs = np.array([res.error_estimate for res in results]).reshape(2, m)
        vals[1] /= one_mx
        errs[1] /= one_mx
        expo = a * (r - self.r_star)
        factor = np.exp(expo) * one_mx ** self._kappa
        lead = factor * self._j_star
        k = lead + vals
        err = (factor * self._err_star
               + (2.0 * np.abs(expo) + self._kappa + 4.0) * _EPS * lead
               + errs + np.array([[3.0], [5.0]]) * _EPS * vals)
        return k, err + 2.0 * _EPS * k

    def _tails(self, r: np.ndarray):
        """Both rows of J and their error bounds at the radii r (see
        :func:`_radii`), below r* times (1-x)^kappa, which leaves their
        ratio as it is."""
        j, err = np.empty((2, r.size)), np.empty((2, r.size))
        high = r >= self.r_star
        j[:, high], err[:, high] = self._series(r[high])
        if not high.all():
            j[:, ~high], err[:, ~high] = self._below(r[~high])
        return j, err

    def _zeta(self, radii) -> tuple[np.ndarray, np.ndarray]:
        """zeta and its error bound at every radius; both +inf below
        r = _R_MIN, where W ~ ((N-p)/p)^p r^-p exceeds the double range
        for all but p within about 1e-3 of 1."""
        r = _radii(radii)
        z, dz = np.full(r.size, np.inf), np.full(r.size, np.inf)
        live = r >= _R_MIN
        # the denominator is at least about 2/alpha above r* and about
        # 1/alpha below it, so the ratio never divides by 0
        (den, num), (den_err, num_err) = self._tails(r[live])
        z[live] = 2.0 * num / den
        dz[live] = (2.0 * num_err + z[live] * den_err) / den + 2.0 * _EPS * z[live]
        return z, dz

    def green(self, r: float) -> tuple[float, float]:
        """G_p(r) = int_r^inf (sinh s)^(-alpha) ds and an absolute error bound.

        The normalization is fixed to 1: only G'/G enters the weight W.
        Raises :class:`QuadratureError` where G exceeds the double range.
        """
        j, err = self._tails(_radii([r]))
        a = self.alpha
        # the rows below r* carry the factor (1-x)^kappa
        log_1mx = math.log(-math.expm1(-2.0 * r)) if r < self.r_star else 0.0
        log_scale = (a - 1.0) * math.log(2.0) - a * r - self._kappa * log_1mx
        try:
            scale = math.exp(log_scale)
        except OverflowError:
            raise QuadratureError(f"G({r}) exceeds the double range") from None
        g = float(j[0, 0]) * scale
        size = (2.0 + abs(a - 1.0) * math.log(2.0) + a * r
                + self._kappa * (2.0 - 3.0 * log_1mx))
        return g, float(err[0, 0]) * scale + _EPS * size * g

    def w(self, r: float) -> tuple[float, float]:
        """W(r) and an absolute error bound."""
        val, err = self.w_array([r])
        return float(val[0]), float(err[0])

    def w_array(self, radii) -> tuple[np.ndarray, np.ndarray]:
        """W and its absolute error bound at every radius; both +inf where
        W exceeds the double range, and where zeta is +inf (r < _R_MIN),
        where +inf means no finite bound."""
        z, dz = self._zeta(radii)
        lam = self.params.lambda_p
        p = self.params.p
        y = p * np.log1p(z)
        with np.errstate(over="ignore", invalid="ignore"):
            grow = np.expm1(y)
            val = lam * grow
            # the error of zeta times dW/dzeta, plus the rounding of Lambda_p,
            # log1p, expm1 and the products, where subnormal at most _ETA each
            err = (lam * p * (1.0 + z) ** (p - 1.0) * dz + (5.0 + p + 2.0 * y) * _EPS * val
                   + _ETA * (1.0 + lam * (1.0 + 3.0 * p)))
            over = np.isinf(grow)
            if over.any():
                # expm1 overflows beyond y ~ 709.8, though a small Lambda_p
                # may bring W back into range: there W = exp(y + log Lambda_p),
                # short by Lambda_p.  Its error adds the absolute errors of y,
                # log Lambda_p and the sum to the relative ones of exp and zeta.
                log_lam = p * math.log((self.params.N - 1) / p)
                zo, yo = z[over], y[over]
                t = yo + log_lam
                val[over] = np.exp(t)
                err[over] = np.where(np.isinf(zo), np.inf, val[over] * (
                    p * dz[over] / (1.0 + zo)
                    + (2.0 + p + 2.0 * yo + 2.0 * abs(log_lam) + np.abs(t)) * _EPS)
                    + lam + _ETA)
        return val, err


# ---------------------------------------------------------------------------
# The bounded weight H_p and the shape function h.
# ---------------------------------------------------------------------------


def hp_base(params: Params, r):
    """coth r - ((p-1)/(N-1))/r, the base of H_p.

    Assembled as (coth r - 1/r) + (1 - (p-1)/(N-1))/r so the two O(1/r)
    pieces never meet; positive for all r > 0 whenever p - 1 <= N - 1.
    """
    r = np.asarray(r, dtype=float)
    c = 1.0 - (params.p - 1.0) / (params.N - 1.0)
    out = coth_minus_inv(r) + c / r
    return out if out.ndim else float(out)


def weight_hp(params: Params, r):
    """H_p(r) = (coth r - ((p-1)/(N-1))/r)**(p-2).

    For p = 2 the exponent vanishes and the value is exactly 1 by branch
    (the degenerate case of the weighted inequality).  Raises
    :class:`HypothesisError` when the base is nonpositive, which signals
    parameters outside p - 1 <= N - 1.
    """
    if params.p < 2.0:
        raise HypothesisError(f"weight H_p needs p >= 2, got p={params.p}")
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0.0):
        raise ValueError("H_p needs r > 0")
    if params.p == 2.0:
        out = np.ones_like(r_arr)
        return out if out.ndim else 1.0
    base = np.asarray(hp_base(params, r_arr))
    if np.any(base <= 0.0):
        raise HypothesisError(
            f"H_p base nonpositive at some r (N={params.N}, p={params.p}); "
            "parameters violate p - 1 <= N - 1"
        )
    out = base ** (params.p - 2.0)
    return out if out.ndim else float(out)


def h_func(params: Params, r):
    """h(r) = -(N-1) r^2 + (p-1) sinh^2 r (sign gives the slope of H_p).

    Once sinh^2 r overflows, h is +inf: only its sign carries meaning.
    """
    r = np.asarray(r, dtype=float)
    with np.errstate(over="ignore"):
        out = -(params.N - 1) * r * r + (params.p - 1.0) * np.sinh(r) ** 2
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Half-space weight V and geodesic distance from the base point (0, 1).
# ---------------------------------------------------------------------------


def weight_v(x1: float, y: float) -> float:
    """Bounded weight y / sqrt(y^2 + x1^2) in (0, 1] at the point (x1, y);
    equals 1 iff x1 = 0."""
    if not (y > 0.0):
        raise ValueError(f"y must be positive, got {y}")
    # not np.hypot, which differs from it in the last bit at some points
    return y / math.hypot(y, x1)


def geodesic_distance(x1: float, rho: float, y: float) -> float:
    """Geodesic distance from the point (x1, rho, y) to the base point
    (x=0, y=1).

    cosh(r) = 1 + ((y-1)^2 + x1^2 + rho^2) / (2y); evaluated through
    arcosh(1 + z) = log1p(z + sqrt(z(z+2))) for accuracy near the pole.
    """
    if not (y > 0.0):
        raise ValueError(f"y must be positive, got {y}")
    if rho < 0.0:
        raise ValueError(f"rho must be nonnegative, got {rho}")
    z = ((y - 1.0) ** 2 + x1 ** 2 + rho ** 2) / (2.0 * y)
    return acosh1p(z)
