"""Hyperbolic-space primitives: parameters, measures, weights.

Everything is a pure function of its arguments.  The Green's-function
weight ``W`` is evaluated through a cancellation-free reformulation (see
:func:`weight_w`): the naive difference of p-th powers loses all digits
once the two terms agree to within machine epsilon, which already happens
around geodesic radius 20.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadrature import (
    _XGK,
    QuadratureError,
    _panel_estimates,
    geometric_splits,
    integrate_interval,
    integrate_intervals,
)

__all__ = [
    "HypothesisError",
    "Params",
    "HalfSpacePoint",
    "lambda_p",
    "GreenWeight",
    "green_weight_for",
    "weight_w",
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


@dataclass(frozen=True)
class HalfSpacePoint:
    """Point of the upper half-space reduced to (x1, rho, y).

    ``rho`` is the radius of the horizontal coordinates orthogonal to x1;
    it is identically 0 when N = 2.
    """

    x1: float
    rho: float = 0.0
    y: float = 1.0

    def __post_init__(self):
        if not (self.y > 0.0):
            raise ValueError(f"y must be positive, got {self.y}")
        if self.rho < 0.0:
            raise ValueError(f"rho must be nonnegative, got {self.rho}")


def lambda_p(params: Params) -> float:
    """Sharp Poincare constant ((N-1)/p)**p."""
    return params.lambda_p


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
    precision there.
    """
    r = np.asarray(r, dtype=float)
    small = np.abs(r) < 1e-3
    rs = np.where(small, r, 1.0)
    r2 = rs * rs
    series = rs * (
        _COTH_SERIES[0]
        + r2 * (_COTH_SERIES[1] + r2 * (_COTH_SERIES[2] + r2 * _COTH_SERIES[3]))
    )
    rb = np.where(small, 1.0, r)
    direct = 1.0 / np.tanh(rb) - 1.0 / rb
    out = np.where(small, series, direct)
    return out if out.ndim else float(out)


def log_sinh(s):
    """log(sinh s) for s > 0, stable for both tiny and huge s."""
    s = np.asarray(s, dtype=float)
    small = s < 1e-2
    ss = np.where(small, s, 1.0)
    s2 = ss * ss
    # log(sinh s / s) = log(1 + s^2/6 + s^4/120 + ...)
    series = np.log(ss) + np.log1p(s2 / 6.0 * (1.0 + s2 / 20.0 * (1.0 + s2 / 42.0)))
    sb = np.where(small, 1.0, s)
    direct = sb + np.log1p(-np.exp(-2.0 * sb)) - math.log(2.0)
    out = np.where(small, series, direct)
    return out if out.ndim else float(out)


def sinh_pow(r, m: float):
    """(sinh r)**m evaluated in log space; series-based below r = 1e-3."""
    r = np.asarray(r, dtype=float)
    out = np.exp(m * log_sinh(np.maximum(r, 5e-324)))
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


class GreenWeight:
    """Memoized evaluator of the Green's-function weight W for one (N, p).

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

    Both tail integrals are stored with e^{-alpha r} factored out,
    J(r) = e^{alpha r} int_r^inf f, so neither underflows at large r (the
    numerator alone decays like e^{-(alpha+2) r}).  Each call fills all
    of its new radii at once: every radius is chained onto its successor
    (the next larger cached or new radius) through
    J(r) = e^{alpha (r-a)} J(a) + int_r^a e^{alpha r} f, and the gaps are
    integrated with one vectorized GK15 panel each; only gaps that panel
    does not settle fall back to the adaptive engine.  The cache is
    guarded by a lock so evaluators can be shared across threads.
    """

    def __init__(self, params: Params, node_tol: float = 1e-12):
        self.params = params
        self.alpha = params.sinh_exponent
        self.node_tol = node_tol
        # Per integral: sorted radii, J at each, and its error bound.
        empty = (np.empty(0), np.empty(0), np.empty(0))
        self._anchors = {"num": empty, "den": empty}
        self._lock = threading.Lock()

    # -- the two tail integrals ------------------------------------------
    def _log_integrand(self, which: str, s):
        if which == "den":
            return -self.alpha * log_sinh(s)
        return -(self.alpha + 1.0) * log_sinh(s) - s

    def _scaled_integrand(self, which: str, r: float) -> Callable:
        """s -> e^{alpha r} f(s), the integrand of J(r)."""
        shift = self.alpha * r

        def f(s):
            return np.exp(shift + self._log_integrand(which, np.asarray(s, dtype=float)))

        return f

    def _tail(self, which: str, r: float) -> tuple[float, float]:
        """J(r) to relative node_tol, with an absolute error bound.

        The truncation point is analytic: the integrand decays at least
        like e^{-alpha s}, so T = r + (log(1/node_tol) + 5)/alpha caps the
        dropped tail at ~node_tol relative; the analytic bound on the
        dropped tail still enters the error estimate.
        """
        alpha = self.alpha
        T = r + (math.log(1.0 / self.node_tol) + 5.0) / alpha + 1.0
        # sinh(s) >= sinh(T) e^{s-T} for s >= T bounds the dropped tail.
        if which == "den":
            log_bound = -alpha * log_sinh(T) - math.log(alpha)
        else:
            log_bound = -(alpha + 1.0) * log_sinh(T) - T - math.log(alpha + 2.0)
        res = integrate_interval(
            self._scaled_integrand(which, r), r, T, 0.0, rel_tol=self.node_tol,
            breakpoints=geometric_splits(r, T, max(min(r, 1.0), 1e-8)),
            max_subdivisions=20000,
        )
        return res.value, res.error_estimate + math.exp(alpha * r + log_bound)

    def _segments(self, which: str, lo: np.ndarray, hi: np.ndarray):
        """int_lo^hi e^{alpha lo} f(s) ds per gap, with error bounds.

        A gap no wider than its first geometric mark is one GK15 panel,
        the seed panel the adaptive engine would start from; all of these
        are evaluated in one integrand call and accepted on the engine's
        own test |K15 - G7| <= node_tol |segment|.  The rest go through
        one lockstep pass of the engine.
        """
        # Geometric marks from lo: commensurate with both the power
        # steepness near small lo and the exponential decay.
        scale = np.maximum(np.minimum(lo, 1.0), 1e-8)
        vals = np.empty(lo.size)
        errs = np.empty(lo.size)
        todo = ~(hi <= lo + scale)
        one = np.flatnonzero(~todo)
        if one.size:
            half = 0.5 * (hi[one] - lo[one])
            nodes = (0.5 * (lo[one] + hi[one]))[:, None] + half[:, None] * _XGK
            fv = np.exp(self.alpha * lo[one][:, None] + self._log_integrand(which, nodes))
            if not np.all(np.isfinite(fv)):
                bad = nodes[~np.isfinite(fv)][0]
                raise QuadratureError(f"integrand not finite at x={bad!r}")
            v, e = _panel_estimates(fv, half)
            vals[one], errs[one] = v, e
            todo[one[e > self.node_tol * np.abs(v)]] = True
        rest = np.flatnonzero(todo)
        if rest.size:
            shift = self.alpha * lo[rest]
            results = integrate_intervals(
                lambda s, owner: np.exp(shift[owner] + self._log_integrand(which, s)),
                lo[rest].tolist(), hi[rest].tolist(), 0.0,
                breakpoints=[geometric_splits(a, b, c) for a, b, c in zip(
                    lo[rest].tolist(), hi[rest].tolist(), scale[rest].tolist())],
                max_subdivisions=20000, rel_tol=self.node_tol,
            )
            vals[rest] = [res.value for res in results]
            errs[rest] = [res.error_estimate for res in results]
        return vals, errs

    def _fill(self, which: str, radii) -> tuple[np.ndarray, np.ndarray]:
        """J(r) and its error bound at every radius, caching the new ones."""
        r = np.asarray(radii, dtype=float).ravel()
        if not np.all((r > 0.0) & np.isfinite(r)):
            bad = r[~((r > 0.0) & np.isfinite(r))][0]
            raise ValueError(f"radius must be positive and finite, got {bad}")
        with self._lock:
            keys, vals, errs = self._anchors[which]
            new = np.unique(r)
            pos = np.searchsorted(keys, new)
            nxt = np.append(keys, np.inf)[pos]  # smallest cached radius >= new
            fresh = nxt != new
            if fresh.any():
                new, pos, nxt = new[fresh], pos[fresh], nxt[fresh]
                j_new, e_new = self._chain(
                    which, new, nxt, np.append(vals, 0.0)[pos], np.append(errs, 0.0)[pos]
                )
                keys = np.insert(keys, pos, new)
                vals = np.insert(vals, pos, j_new)
                errs = np.insert(errs, pos, e_new)
                self._anchors[which] = (keys, vals, errs)
            idx = np.searchsorted(keys, r)
            return vals[idx], errs[idx]

    def _chain(self, which, new, nxt, nxt_val, nxt_err):
        """J and its error at the sorted new radii ``new``, given the next
        cached radius above each (inf if none) and J and its error there."""
        # The successor of new[i] is new[i+1] unless a cached radius lies
        # between them; the largest new radius may have none.
        after = np.append(new[1:], np.inf)
        succ = np.minimum(nxt, after)
        has_succ = np.isfinite(succ)
        seg = np.zeros(new.size)
        seg_err = np.zeros(new.size)
        seg[has_succ], seg_err[has_succ] = self._segments(which, new[has_succ], succ[has_succ])
        decay = np.exp(self.alpha * (new - succ))
        from_new = (after < nxt).tolist()
        tail_only = (~has_succ).tolist()
        seg_l, seg_err_l, decay_l = seg.tolist(), seg_err.tolist(), decay.tolist()
        nxt_val, nxt_err = nxt_val.tolist(), nxt_err.tolist()
        j_out, e_out = [0.0] * new.size, [0.0] * new.size
        base = base_err = 0.0
        for i in range(new.size - 1, -1, -1):
            if tail_only[i]:
                base, base_err = self._tail(which, float(new[i]))
            else:
                if not from_new[i]:
                    base, base_err = nxt_val[i], nxt_err[i]
                c = decay_l[i]
                base, base_err = c * base + seg_l[i], c * base_err + seg_err_l[i]
            j_out[i], e_out[i] = base, base_err
        return j_out, e_out

    def _zeta(self, radii) -> tuple[np.ndarray, np.ndarray]:
        num, num_err = self._fill("num", radii)
        den, den_err = self._fill("den", radii)
        z = num / den
        return z, (num_err + z * den_err) / den

    def zeta(self, r: float) -> tuple[float, float]:
        """zeta(r) > 0 and an absolute error bound."""
        z, dz = self._zeta([r])
        return float(z[0]), float(dz[0])

    def green(self, r: float) -> tuple[float, float]:
        """G_p(r) = int_r^inf (sinh s)^(-alpha) ds and an absolute error bound.

        The normalization is fixed to 1: only G'/G enters the weight W.
        """
        j, err = self._fill("den", [r])
        scale = math.exp(-self.alpha * r)
        return float(j[0]) * scale, float(err[0]) * scale

    def w(self, r: float) -> tuple[float, float]:
        """W(r) and an absolute error bound."""
        val, err = self.w_array([r])
        return float(val[0]), float(err[0])

    def w_array(self, radii) -> tuple[np.ndarray, np.ndarray]:
        """W and its absolute error bound at every radius, in one fill."""
        z, dz = self._zeta(radii)
        lam = self.params.lambda_p
        p = self.params.p
        val = lam * np.expm1(p * np.log1p(z))
        deriv = lam * p * (1.0 + z) ** (p - 1.0)
        return val, deriv * dz


_WEIGHT_CACHE: dict[tuple[int, float], GreenWeight] = {}
_WEIGHT_CACHE_LOCK = threading.Lock()


def green_weight_for(params: Params) -> GreenWeight:
    """Shared memoized W evaluator for (N, p)."""
    key = (params.N, params.p)
    with _WEIGHT_CACHE_LOCK:
        ev = _WEIGHT_CACHE.get(key)
        if ev is None:
            ev = GreenWeight(params)
            _WEIGHT_CACHE[key] = ev
        return ev


def weight_w(params: Params, r: float, tol: float = 1e-10) -> float:
    """The improved-Poincare weight W(r); strictly positive for r > 0."""
    val, err = green_weight_for(params).w(r)
    if err > tol * max(1.0, abs(val)):
        raise QuadratureError(
            f"W({r}) error bound {err:.3e} exceeds tol {tol:.3e}"
        )
    return val


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
    """h(r) = -(N-1) r^2 + (p-1) sinh^2 r (sign gives the slope of H_p)."""
    r = np.asarray(r, dtype=float)
    out = -(params.N - 1) * r * r + (params.p - 1.0) * np.sinh(r) ** 2
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Half-space weight V and geodesic distance from the base point (0, 1).
# ---------------------------------------------------------------------------


def weight_v(pt: HalfSpacePoint) -> float:
    """Bounded weight y / sqrt(y^2 + x1^2) in (0, 1]; equals 1 iff x1 = 0."""
    return pt.y / math.hypot(pt.y, pt.x1)


def geodesic_distance(pt: HalfSpacePoint) -> float:
    """Geodesic distance to the base point (x=0, y=1).

    cosh(r) = 1 + ((y-1)^2 + x1^2 + rho^2) / (2y); evaluated through
    arcosh(1 + z) = log1p(z + sqrt(z(z+2))) for accuracy near the pole.
    """
    z = ((pt.y - 1.0) ** 2 + pt.x1 ** 2 + pt.rho ** 2) / (2.0 * pt.y)
    return acosh1p(z)
