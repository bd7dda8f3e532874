"""Assembly of the concrete integrals: radial energies and weighted
masses against the hyperbolic volume element, 1D Hardy quotient pieces,
and reduced half-space integrals.

Radial integrals carry the volume element (sinh r)^(N-1) but never the
surface-area constant |S^{N-1}|: every inequality verified here is
1-homogeneous in that constant (checked for the uncertainty-principle
product, which is homogeneous of degree p on both sides), so it is
cancelled symbolically to avoid large-N overflow.

All ``tol`` parameters in this module are RELATIVE: hyperbolic volume
integrals easily reach 1e40 and beyond, so an absolute target would be
meaningless.  Reported error estimates remain absolute bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Params, coth, green_weight_for, sinh_pow, weight_hp
from .quadrature import (
    NonIntegrableSingularity,
    QuadResult,
    geometric_splits,
    integrate_cells,
    integrate_interval,
    power_singular_integral,
)
from .testfun import RadialTestFunction, make_ueps

__all__ = [
    "radial_energy",
    "radial_weighted_mass",
    "hardy1d_energy",
    "hardy1d_mass",
    "HalfSpaceIntegrand",
    "halfspace_integral",
    "ueps_energy_mass",
    "WEIGHT_TAGS",
]

WEIGHT_TAGS = ("1/r^p", "1/sinh^p", "W", "Hp", "r^pprime")


def _finite_support(u: RadialTestFunction) -> tuple[float, float]:
    lo, hi = u.support
    if math.isinf(hi):
        raise ValueError("radial integrals need a compact support")
    return lo, hi


def _interior_breakpoints(u: RadialTestFunction, lo: float, hi: float):
    return tuple(b for b in u.breakpoints if lo < b < hi)


def radial_energy(
    params: Params, u: RadialTestFunction, tol: float = 1e-10
) -> tuple[QuadResult, QuadResult]:
    """(E_p, M_p): p-energy and p-mass against (sinh r)^(N-1) dr.

    E_p = int |u'|^p (sinh r)^(N-1) dr,  M_p = int |u|^p (sinh r)^(N-1) dr
    over the support of u, panels split exactly at the breakpoints.
    """
    lo, hi = _finite_support(u)
    p, m = params.p, params.N - 1

    def e_int(r):
        return np.abs(u.derivative(r)) ** p * sinh_pow(r, m)

    def m_int(r):
        return np.abs(u.value(r)) ** p * sinh_pow(r, m)

    bps = _interior_breakpoints(u, lo, hi)
    if lo == 0.0 and u.origin_power is not None:
        # |u'|^p ~ r^((lam-1)p); with the volume weight the total power at
        # the origin is (lam-1)p + N-1, possibly in (-1, 0): split the pure
        # power off analytically on the first piece.
        b1 = min(u.breakpoints) if u.breakpoints else hi
        lam = u.origin_power
        ep_first = _power_piece(e_int, (lam - 1.0) * p + m, b1, tol / 2)
        mp_first = _power_piece(m_int, lam * p + m, b1, tol / 2)
        ep_rest = integrate_interval(
            e_int, b1, hi, 0.0, rel_tol=tol / 2, breakpoints=bps, vectorized=True
        ) if b1 < hi else QuadResult(0.0, 0.0, 0)
        mp_rest = integrate_interval(
            m_int, b1, hi, 0.0, rel_tol=tol / 2, breakpoints=bps, vectorized=True
        ) if b1 < hi else QuadResult(0.0, 0.0, 0)
        return ep_first + ep_rest, mp_first + mp_rest
    ep = integrate_interval(
        e_int, lo, hi, 0.0, rel_tol=tol, breakpoints=bps, vectorized=True,
        singular_left=(lo == 0.0),
    )
    mp = integrate_interval(
        m_int, lo, hi, 0.0, rel_tol=tol, breakpoints=bps, vectorized=True,
    )
    return ep, mp


def _power_piece(f: Callable, total_power: float, b: float, tol: float) -> QuadResult:
    """int_0^b f dr when f(r) ~ C r^total_power at the origin."""
    if total_power <= -1.0:
        raise NonIntegrableSingularity(
            f"integrand power {total_power} at the origin is not integrable"
        )

    def g(r):
        r = np.asarray(r, dtype=float)
        rs = np.where(r == 0.0, 1.0, r)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vals = f(rs) * rs ** (-total_power)
        # limit value fills r = 0 (f carries the exact power there)
        return np.where(r == 0.0, _origin_limit(f, total_power), vals)

    return power_singular_integral(
        g, total_power + 1.0, b, 0.0, vectorized=True, rel_tol=tol
    )


def _origin_limit(f: Callable, total_power: float) -> float:
    r = np.array([1e-8, 1e-7, 1e-6])
    vals = f(r) * r ** (-total_power)
    return float(vals[0])


def radial_weighted_mass(
    params: Params,
    u: RadialTestFunction,
    weight: str,
    tol: float = 1e-10,
) -> QuadResult:
    """int |u|^p w(r) (sinh r)^(N-1) dr for a named weight w.

    Weights: "1/r^p", "1/sinh^p", "W" (Green's-function weight), "Hp",
    "r^pprime".  For supports touching the origin the weight 1/r^p needs
    p < N when u is bounded near 0 (otherwise the singularity is not
    integrable and :class:`NonIntegrableSingularity` is raised); profiles
    with a declared origin power are split analytically.
    """
    if weight not in WEIGHT_TAGS:
        raise ValueError(f"unknown weight {weight!r}; expected one of {WEIGHT_TAGS}")
    lo, hi = _finite_support(u)
    p, m = params.p, params.N - 1
    extra_rel = 0.0

    if weight == "1/r^p":
        def w_fun(r):
            return r ** (-p)
        w_power = -p
    elif weight == "1/sinh^p":
        def w_fun(r):
            return sinh_pow(r, -p)
        w_power = -p
    elif weight == "r^pprime":
        pp = params.p_prime
        def w_fun(r):
            return r ** pp
        w_power = pp
    elif weight == "Hp":
        def w_fun(r):
            return weight_hp(params, r)
        w_power = -(p - 2.0)
    else:  # W
        if lo <= 0.0:
            raise NonIntegrableSingularity(
                "weight W on a support touching the origin is not handled; "
                "use supports with r_lo > 0"
            )
        ev = green_weight_for(params)
        max_rel = 0.0

        def w_fun(r):
            nonlocal max_rel
            vals, errs = ev.w_array(np.atleast_1d(r))
            max_rel = max(max_rel, float(np.max(errs / np.maximum(vals, 5e-324))))
            return vals

        w_power = 0.0

    def integrand(r):
        return np.abs(u.value(r)) ** p * w_fun(r) * sinh_pow(r, m)

    bps = _interior_breakpoints(u, lo, hi)
    if lo == 0.0:
        lam = u.origin_power
        if lam is None:
            lam = 0.0 if float(u.value(np.array([0.0]))[0]) != 0.0 else None
        if lam is None:
            # u vanishes to all orders at 0 (mollifier-type): regular.
            res = integrate_interval(
                integrand, lo, hi, 0.0, rel_tol=tol, breakpoints=bps,
                singular_left=True, vectorized=True,
            )
        else:
            total = lam * p + w_power + m
            b1 = min(u.breakpoints) if u.breakpoints else hi
            first = _power_piece(integrand, total, b1, tol / 2)
            rest = integrate_interval(
                integrand, b1, hi, 0.0, rel_tol=tol / 2, breakpoints=bps,
                vectorized=True
            ) if b1 < hi else QuadResult(0.0, 0.0, 0)
            res = first + rest
    else:
        res = integrate_interval(
            integrand, lo, hi, 0.0, rel_tol=tol, breakpoints=bps, vectorized=True
        )
    if weight == "W" and max_rel > 0.0:
        res = QuadResult(
            res.value,
            res.error_estimate + max_rel * abs(res.value),
            res.subdivisions,
            res.truncation_point,
        )
    return res


# ---------------------------------------------------------------------------
# 1D Hardy quotient pieces (Lebesgue measure on (0, inf), no volume weight).
# ---------------------------------------------------------------------------


def hardy1d_energy(
    p: float, l: float, v: RadialTestFunction, tol: float = 1e-10
) -> QuadResult:
    """int |v|^(p-l) (coth r)^(p-l) |v'|^l dr over the support of v."""
    if not (1.0 < l <= p):
        raise ValueError(f"need 1 < l <= p, got l={l}, p={p}")
    lo, hi = _finite_support(v)

    def integrand(r):
        vv = np.abs(v.value(r))
        dv = np.abs(v.derivative(r))
        # (|v| coth r)^(p-l) |v'|^l with 0^0 := 1 when l == p
        if l == p:
            return dv ** p
        return (vv * coth(np.maximum(r, 5e-324))) ** (p - l) * dv ** l

    bps = _interior_breakpoints(v, lo, hi)
    if lo == 0.0 and v.origin_power is not None:
        lam = v.origin_power
        total = lam * (p - l) - (p - l) + (lam - 1.0) * l  # (r coth r)~1 at 0
        b1 = min(v.breakpoints) if v.breakpoints else hi
        first = _power_piece(integrand, total, b1, tol / 2)
        rest = integrate_interval(
            integrand, b1, hi, 0.0, rel_tol=tol / 2, breakpoints=bps,
            vectorized=True
        ) if b1 < hi else QuadResult(0.0, 0.0, 0)
        return first + rest
    return integrate_interval(
        integrand, lo, hi, 0.0, rel_tol=tol, breakpoints=bps, vectorized=True,
        singular_left=(lo == 0.0),
    )


def hardy1d_mass(p: float, v: RadialTestFunction, tol: float = 1e-10) -> QuadResult:
    """int |v|^p / r^p dr over the support of v."""
    lo, hi = _finite_support(v)

    def integrand(r):
        return np.abs(v.value(r)) ** p * r ** (-p)

    bps = _interior_breakpoints(v, lo, hi)
    if lo == 0.0:
        lam = v.origin_power
        if lam is None:
            if float(v.value(np.array([0.0]))[0]) == 0.0:
                # vanishes to all orders (mollifier-type): graded panels
                return integrate_interval(
                    integrand, lo, hi, 0.0, rel_tol=tol, breakpoints=bps,
                    singular_left=True, vectorized=True,
                )
            raise NonIntegrableSingularity(
                "1/r^p mass at the origin needs a declared origin power"
            )
        total = lam * p - p
        b1 = min(v.breakpoints) if v.breakpoints else hi
        first = _power_piece(integrand, total, b1, tol / 2)
        rest = integrate_interval(
            integrand, b1, hi, 0.0, rel_tol=tol / 2, breakpoints=bps,
            vectorized=True
        ) if b1 < hi else QuadResult(0.0, 0.0, 0)
        return first + rest
    return integrate_interval(
        integrand, lo, hi, 0.0, rel_tol=tol, breakpoints=bps, vectorized=True
    )


# ---------------------------------------------------------------------------
# Half-space integrals reduced to (x1, rho, y).
# ---------------------------------------------------------------------------


def sphere_area(k: int) -> float:
    """Surface measure of the unit k-sphere in R^(k+1); omega_0 = 2."""
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


@dataclass(frozen=True)
class HalfSpaceIntegrand:
    """Volume integrand on the half-space, reduced to (x1, rho, y).

    ``func`` (and ``sheared_log``) must be elementwise: the cubature calls
    them on per-axis node arrays that broadcast against each other, not
    on full grids, and takes anything that broadcasts to their common
    shape.  For compact integrands set ``support``
    to the box ((x1_lo, x1_hi), (rho_lo, rho_hi), (y_lo, y_hi)).  For the
    decaying family set ``envelope_sigma``/``envelope_const`` so that
    |func| <= const * (y / A)^sigma / y^N with A = (1+y)^2 + x1^2 + rho^2;
    the truncation bounds of :func:`halfspace_integral` are derived from
    that envelope.  ``sheared_log``, when given, evaluates
    func((1+y) v, (1+y) w, y) * (1+y)^(N-1) * y from (v, w, log y)
    without forming y-powers that would over/underflow; the enveloped
    integration path runs on these sheared coordinates, where the
    envelope separates.  ``depends_reduced`` declares that the function
    really is a function of (x1, rho, y) only.
    """

    func: Callable
    support: tuple | None = None
    even_in_x1: bool = False
    envelope_sigma: float | None = None
    envelope_const: float = 1.0
    sheared_log: Callable | None = None
    depends_reduced: bool = True


def halfspace_integral(
    params: Params, f: HalfSpaceIntegrand, tol: float = 1e-8
) -> QuadResult:
    """int f(x1, rho, y) * omega_{N-3} rho^(N-3) dx1 drho dy.

    For N = 2 the rho dimension is absent; for N = 3 the rho integral runs
    over the two half-lines (factor omega_0 = 2).  Compact supports are
    integrated directly; integrands with a declared power envelope use the
    sheared coordinates x = (1+y) v and a logarithmic vertical axis, with
    analytic tail bounds folded into the error estimate.
    """
    if not f.depends_reduced:
        raise ValueError(
            "integrand must depend only on the reduced coordinates (x1, rho, y)"
        )
    if f.support is not None:
        return _halfspace_compact(params, f, tol)
    if f.envelope_sigma is None:
        raise ValueError("unbounded integrand requires a decay envelope")
    return _halfspace_enveloped(params, f, tol)


def _halfspace_compact(params: Params, f: HalfSpaceIntegrand, tol: float) -> QuadResult:
    (x1l, x1h), (rl, rh), (yl, yh) = f.support
    if yl <= 0.0:
        raise ValueError("compact support must satisfy y > 0")
    N = params.N
    if N == 2:
        def g(x1, y):
            return f.func(x1, np.zeros_like(x1), y)
        return integrate_cells(g, [(x1l, x1h), (yl, yh)], 0.0, rel_tol=tol)
    area = sphere_area(N - 3)

    def g(x1, rho, y):
        rr = rho ** (N - 3) if N > 3 else np.ones_like(rho)
        return f.func(x1, rho, y) * area * rr

    return integrate_cells(
        g, [(x1l, x1h), (max(rl, 0.0), rh), (yl, yh)], 0.0, rel_tol=tol,
        max_cells=20000,
    )


def _v_total(N: int, sigma: float) -> float:
    """Exact integral of (1 + |v|^2)^-sigma over the sheared x-plane."""
    if N == 2:
        return math.sqrt(math.pi) * math.gamma(sigma - 0.5) / math.gamma(sigma)
    return math.pi / (sigma - 1.0)


def envelope_total(N: int, sigma: float, const: float) -> float:
    """Analytic bound on the whole enveloped integral (sets error scales)."""
    y_total = math.gamma(sigma - (N - 1)) * math.gamma(sigma) / math.gamma(
        2.0 * sigma - (N - 1)
    )
    return const * y_total * _v_total(N, sigma)


def _angular_splits() -> list[float]:
    """Seed marks on [0, pi/2): graded toward the compactified infinity."""
    marks = [0.4, 0.8, 1.2]
    gap = 0.2
    while gap > 1e-6:
        marks.append(math.pi / 2.0 - gap)
        gap *= 0.25
    return sorted(marks)


def _halfspace_enveloped(params: Params, f: HalfSpaceIntegrand, tol: float) -> QuadResult:
    """Enveloped integration in sheared-angular-logarithmic coordinates.

    x = (1+y) v with v = tan(theta) compactifies the horizontal plane
    exactly (power tails become cos^(2 sigma - 2) theta near pi/2, no
    truncation error); the vertical axis splits at y = 1 into two
    logarithmic branches y = exp(+-tau) whose truncation at analytic
    tail bounds ~ e^(-eps tau) / e^(-sigma tau) enters the error
    estimate.  The tolerance ``tol`` is absolute.
    """
    N, sigma, C = params.N, f.envelope_sigma, f.envelope_const
    if N not in (2, 3):
        raise ValueError("enveloped half-space integration implemented for N in {2, 3}")
    eps = sigma - (N - 1)
    if eps <= 0:
        raise ValueError("envelope must have sigma > N - 1")
    budget = tol / 4.0
    vtot = _v_total(N, sigma)

    sheared = f.sheared_log
    if sheared is None:
        def sheared(v, w, logy):
            y = np.exp(logy)
            s = 1.0 + y
            return f.func(s * v, s * w, y) * s ** (N - 1) * y

    # vertical truncations (tau = -log y below 1, +log y above 1)
    T_lo = max(8.0, math.log(max(C * vtot / (eps * budget), 2.0)) / eps)
    lo_tail = C * vtot * math.exp(-eps * T_lo) / eps
    T_up = max(8.0, math.log(max(C * vtot / (sigma * budget), 2.0)) / sigma)
    up_tail = C * vtot * math.exp(-sigma * T_up) / sigma

    mult = 2.0 if f.even_in_x1 else 1.0
    if N == 3:
        mult *= sphere_area(0)  # the two rho half-lines
    half_pi = math.pi / 2.0
    cell_tol = tol / 4.0  # per branch
    results = []
    for sign in (-1.0, +1.0):
        T = T_lo if sign < 0 else T_up
        tau_splits = geometric_splits(0.0, T, 1.0)

        if N == 2:
            def g(th, tau, _sign=sign):
                v = np.tan(th)
                return mult * sheared(v, np.zeros_like(v), _sign * tau) / np.cos(th) ** 2

            box = [(0.0 if f.even_in_x1 else -half_pi, half_pi), (0.0, T)]
            splits = [_angular_splits(), tau_splits]
        else:
            def g(th1, th2, tau, _sign=sign):
                v = np.tan(th1)
                w = np.tan(th2)
                return (
                    mult
                    * sheared(v, w, _sign * tau)
                    / (np.cos(th1) ** 2 * np.cos(th2) ** 2)
                )

            box = [
                (0.0 if f.even_in_x1 else -half_pi, half_pi),
                (0.0, half_pi),
                (0.0, T),
            ]
            splits = [_angular_splits(), _angular_splits(), tau_splits]
        results.append(
            integrate_cells(g, box, cell_tol, initial_splits=splits,
                            max_cells=40000)
        )

    total = results[0] + results[1]
    return QuadResult(
        total.value,
        total.error_estimate + lo_tail + up_tail,
        total.subdivisions,
        truncation_point=max(T_lo, T_up),
    )


def _log1p_exp(logy):
    """log(1 + e^logy), stable for any logy."""
    return np.where(logy > 36.0, logy, np.log1p(np.exp(np.minimum(logy, 36.0))))


def ueps_energy_mass(
    params: Params, eps: float, tol: float = 1e-6
) -> tuple[QuadResult, QuadResult]:
    """Hyperbolic p-energy and p-mass of the near-extremal family.

    Energy integrand |grad u|^p y^(p-N), mass integrand |u|^p y^(-N); both
    are bounded by (k^p resp. 1) times the envelope (y/A)^sigma / y^N with
    A = (1+y)^2 + |x|^2, so the enveloped half-space path applies to each.
    In sheared coordinates the mass integrand times the Jacobian is
    exactly e^(eps log y) (1+y)^(N-1-2 sigma) (1+|v|^2)^(-sigma), and the
    energy adds the gradient factor (1 - 4y/A)^(p/2) <= 1; both forms are
    evaluated in log space so the e^(-eps tau) tail (tau up to ~16/eps)
    never under- or overflows.  ``tol`` is relative to the analytic
    envelope bound of each integral.
    """
    u = make_ueps(params, eps)
    N, p = params.N, params.p
    k = (N - 1 + eps) / p
    sigma = N - 1 + eps

    def mass_f(x1, rho, y):
        return u.value(x1, rho, y) ** p / y**N

    def energy_f(x1, rho, y):
        return u.gradient_norm(x1, rho, y) ** p * y ** (p - N)

    def mass_sheared(v, w, logy):
        S = 1.0 + v * v + w * w
        return np.exp(eps * logy + (N - 1 - 2 * sigma) * _log1p_exp(logy)) * S**-sigma

    def energy_sheared(v, w, logy):
        S = 1.0 + v * v + w * w
        grad2 = 1.0 - np.exp(math.log(4.0) + logy - 2.0 * _log1p_exp(logy)) / S
        return k**p * np.maximum(grad2, 0.0) ** (p / 2.0) * mass_sheared(v, w, logy)

    mass_scale = envelope_total(N, sigma, 1.0)
    mass = halfspace_integral(
        params,
        HalfSpaceIntegrand(mass_f, even_in_x1=True, envelope_sigma=sigma,
                           envelope_const=1.0, sheared_log=mass_sheared),
        tol * mass_scale,
    )
    energy_scale = envelope_total(N, sigma, k**p)
    energy = halfspace_integral(
        params,
        HalfSpaceIntegrand(energy_f, even_in_x1=True, envelope_sigma=sigma,
                           envelope_const=k**p, sheared_log=energy_sheared),
        tol * energy_scale,
    )
    return energy, mass
