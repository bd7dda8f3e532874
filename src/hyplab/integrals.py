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
from typing import Callable

import numpy as np

from .core import GreenWeight, Params, coth, sinh_pow, weight_hp
from .quadrature import (
    NonIntegrableSingularity,
    QuadResult,
    geometric_splits,
    integrate_cell_components,
    integrate_interval,
    integrate_intervals,
    power_singular_integral,
)
from .testfun import RadialTestFunction, mollifier_derivative, mollifier_value

__all__ = [
    "RADIAL_TERMS",
    "radial_battery",
    "radial_energy",
    "radial_weighted_mass",
    "hardy1d_energy",
    "hardy1d_mass",
    "factor_integrals",
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


# Term names of a radial battery: the p-energy E and p-mass M, one
# weighted mass per weight tag, and the two 1D Hardy pieces.
RADIAL_TERMS = ("E", "M") + WEIGHT_TAGS + ("hardy1d_energy", "hardy1d_mass")


def radial_battery(
    params: Params,
    funcs,
    terms,
    tol: float = 1e-10,
    l: float | None = None,
) -> list[dict[str, QuadResult]]:
    """The named terms of every profile in ``funcs`` from one pass.

    Terms (see :data:`RADIAL_TERMS`): "E" and "M" as in
    :func:`radial_energy`, a weight tag as in :func:`radial_weighted_mass`,
    "hardy1d_energy" with exponent ``l`` and "hardy1d_mass" as in
    :func:`hardy1d_energy` and :func:`hardy1d_mass`; those two read only
    p of ``params``.  Each integral is set up, integrated and refined as
    the one-profile function sets it up, and gives the same result bit for
    bit.  A term whose support starts at 0 and whose profile
    declares an origin power goes through :func:`_origin_split` on its
    own; every other integral is one integral of a single
    :func:`~hyplab.quadrature.integrate_intervals` pass.  There the
    integrals run term by term, so each term's nodes form one slice of
    every integrand call, and the volume element and each weight are
    evaluated once per call.  ``tol`` is relative.  Returns one dict per
    profile, from term name to result.
    """
    for name in terms:
        if name not in RADIAL_TERMS:
            raise ValueError(f"unknown term {name!r}; expected one of {RADIAL_TERMS}")
    p, m = params.p, params.N - 1
    if "hardy1d_energy" in terms and not (l is not None and 1.0 < l <= p):
        raise ValueError(f"need 1 < l <= p, got l={l}, p={p}")
    value, derivative = _profile_evaluators(funcs)
    w_eval = GreenWeight(params) if "W" in terms else None
    radial = any(name not in ("hardy1d_energy", "hardy1d_mass") for name in terms)

    def term_values(name, r, idx, vol, owner=None, max_rel=None):
        """Integrand of term ``name`` at nodes r of the profiles idx."""
        if name == "E":
            return np.abs(derivative(r, idx)) ** p * vol
        if name == "hardy1d_energy":
            dv = np.abs(derivative(r, idx))
            # (|v| coth r)^(p-l) |v'|^l with 0^0 := 1 when l == p
            if l == p:
                return dv**p
            vv = np.abs(value(r, idx))
            return (vv * coth(np.maximum(r, 5e-324))) ** (p - l) * dv**l
        up = np.abs(value(r, idx)) ** p
        if name == "M":
            return up * vol
        if name == "hardy1d_mass":
            return up * r ** (-p)
        if name == "W":
            w, errs = w_eval.w_array(r)
            np.maximum.at(max_rel, owner, errs / np.maximum(w, 5e-324))
        else:
            w = _weight(params, name, r)
        return up * w * vol

    out = [{} for _ in funcs]
    lows, highs, flags, bps, where = [], [], [], [], []
    term_starts = []
    for name in terms:
        term_starts.append(len(where))
        for i, u in enumerate(funcs):
            lo, hi = _finite_support(u)
            b = _interior_breakpoints(u, lo, hi)
            singular, power = _term_setup(params, name, u, lo, l)
            if power is None:
                lows.append(lo)
                highs.append(hi)
                flags.append(singular)
                bps.append(b)
                where.append((i, name))
                continue

            def f(r, _name=name, _i=i):
                vol = sinh_pow(r, m) if radial else None
                return term_values(_name, r, np.full(np.shape(r), _i), vol)

            out[i][name] = _origin_split(f, power, u, hi, b, tol)
    term_starts.append(len(where))
    if not where:
        return out
    fn_of = np.array([i for i, _ in where])
    max_rel = np.zeros(len(where))

    def integrand(x, owner):
        vals = np.empty_like(x)
        vol = sinh_pow(x, m) if radial else None
        cuts = np.searchsorted(owner, term_starts).tolist()
        for name, s, e in zip(terms, cuts[:-1], cuts[1:]):
            if s < e:
                vals[s:e] = term_values(
                    name, x[s:e], fn_of[owner[s:e]],
                    None if vol is None else vol[s:e], owner[s:e], max_rel,
                )
        return vals

    results = integrate_intervals(
        integrand, lows, highs, 0.0, singular_left=flags, breakpoints=bps,
        rel_tol=tol,
    )
    for k, ((i, name), res) in enumerate(zip(where, results)):
        if max_rel[k] > 0.0:
            res = QuadResult(res.value, res.error_estimate + max_rel[k] * abs(res.value),
                             res.subdivisions, res.truncation_point)
        out[i][name] = res
    return out


def _profile_evaluators(funcs):
    """(value, derivative) of the profiles ``funcs`` as functions of
    (r, idx), idx naming the profile of each node in nondecreasing order.

    Mollifier bumps are evaluated in one call with per-node parameters;
    other profiles are called once per run of equal idx.
    """
    if all(u.bump is not None for u in funcs):
        mids = np.array([u.bump[0] for u in funcs])
        halfs = np.array([u.bump[1] for u in funcs])
        return (lambda r, idx: mollifier_value(r, mids[idx], halfs[idx]),
                lambda r, idx: mollifier_derivative(r, mids[idx], halfs[idx]))

    values = [u.value for u in funcs]
    derivatives = [u.derivative for u in funcs]
    return (lambda r, idx: _per_run(values, r, idx),
            lambda r, idx: _per_run(derivatives, r, idx))


def _per_run(calls, x, idx):
    """calls[idx[s]](x[s:e]) on every run s:e of equal idx, as one array."""
    out = np.empty_like(x)
    cuts = (np.flatnonzero(np.diff(idx)) + 1).tolist()
    for s, e in zip([0] + cuts, cuts + [len(x)]):
        out[s:e] = calls[idx[s]](x[s:e])
    return out


def _weight(params: Params, tag: str, r):
    """The weight ``tag`` of :data:`WEIGHT_TAGS` other than W, at r."""
    p = params.p
    if tag == "1/r^p":
        return r ** (-p)
    if tag == "1/sinh^p":
        return sinh_pow(r, -p)
    if tag == "r^pprime":
        return r ** params.p_prime
    return weight_hp(params, r)


def _weight_power(params: Params, tag: str) -> float:
    """Power of the weight ``tag`` at the origin."""
    p = params.p
    return {"1/r^p": -p, "1/sinh^p": -p, "r^pprime": params.p_prime,
            "Hp": -(p - 2.0), "W": 0.0}[tag]


def _term_setup(params: Params, name: str, u: RadialTestFunction, lo: float,
                l: float | None) -> tuple[bool, float | None]:
    """(singular_left, origin power) of one term's integral on [lo, hi].

    The power is None unless the term is split at the origin by
    :func:`_origin_split`, where it is the power of the whole integrand.
    """
    p, m = params.p, params.N - 1
    lam = u.origin_power if lo == 0.0 else None
    if name == "E":
        # |u'|^p ~ r^((lam-1)p); with the volume weight the total power at
        # the origin is (lam-1)p + N-1, possibly in (-1, 0)
        return lo == 0.0, None if lam is None else (lam - 1.0) * p + m
    if name == "M":
        return False, None if lam is None else lam * p + m
    if name == "hardy1d_energy":
        if lam is None:
            return lo == 0.0, None
        return False, lam * (p - l) - (p - l) + (lam - 1.0) * l  # (r coth r)~1 at 0
    if name == "W" and lo <= 0.0:
        raise NonIntegrableSingularity(
            "weight W on a support touching the origin is not handled; "
            "use supports with r_lo > 0"
        )
    if lo > 0.0:
        return False, None
    if lam is None and float(u.value(np.array([0.0]))[0]) != 0.0:
        if name == "hardy1d_mass":
            raise NonIntegrableSingularity(
                "1/r^p mass at the origin needs a declared origin power"
            )
        lam = 0.0
    if lam is None:
        # u vanishes to all orders at 0 (mollifier-type): graded panels
        return True, None
    if name == "hardy1d_mass":
        return False, lam * p - p
    return False, lam * p + _weight_power(params, name) + m


def radial_energy(
    params: Params, u: RadialTestFunction, tol: float = 1e-10
) -> tuple[QuadResult, QuadResult]:
    """(E_p, M_p): p-energy and p-mass against (sinh r)^(N-1) dr.

    E_p = int |u'|^p (sinh r)^(N-1) dr,  M_p = int |u|^p (sinh r)^(N-1) dr
    over the support of u, panels split exactly at the breakpoints.
    """
    terms = radial_battery(params, [u], ("E", "M"), tol)[0]
    return terms["E"], terms["M"]


def _origin_split(
    f: Callable, total_power: float, u: RadialTestFunction, hi: float,
    bps: tuple, tol: float,
) -> QuadResult:
    """int_0^hi f dr when f(r) ~ C r^total_power at the origin.

    On the first piece [0, b1], b1 the smallest breakpoint of ``u``, the
    pure power is split off analytically with C taken at r = 1e-8; the
    rest runs on the ordinary panels.  Each piece gets half of the
    relative ``tol``.
    """
    if total_power <= -1.0:
        raise NonIntegrableSingularity(
            f"integrand power {total_power} at the origin is not integrable"
        )

    def g(r):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return f(r) * r ** (-total_power)

    b1 = min(u.breakpoints) if u.breakpoints else hi
    first = power_singular_integral(
        g, total_power + 1.0, b1, 0.0,
        g_at_zero=float(g(np.array([1e-8]))[0]), rel_tol=tol / 2,
    )
    if b1 >= hi:
        return first
    return first + integrate_interval(
        f, b1, hi, 0.0, rel_tol=tol / 2, breakpoints=bps
    )


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
    return radial_battery(params, [u], (weight,), tol)[0][weight]


# ---------------------------------------------------------------------------
# 1D Hardy quotient pieces (Lebesgue measure on (0, inf), no volume weight).
# ---------------------------------------------------------------------------


def hardy1d_energy(
    p: float, l: float, v: RadialTestFunction, tol: float = 1e-10
) -> QuadResult:
    """int |v|^(p-l) (coth r)^(p-l) |v'|^l dr over the support of v."""
    # the 1D pieces read p only; N = 2 is a placeholder
    return radial_battery(Params(2, p), [v], ("hardy1d_energy",), tol, l)[0][
        "hardy1d_energy"]


def hardy1d_mass(p: float, v: RadialTestFunction, tol: float = 1e-10) -> QuadResult:
    """int |v|^p / r^p dr over the support of v."""
    return radial_battery(Params(2, p), [v], ("hardy1d_mass",), tol)[0]["hardy1d_mass"]


# ---------------------------------------------------------------------------
# Half-space integrals reduced to (x1, rho, y).
# ---------------------------------------------------------------------------


def sphere_area(k: int) -> float:
    """Surface measure of the unit k-sphere in R^(k+1); omega_0 = 2."""
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


def factor_integrals(funcs, supports, tol: float = 1e-8) -> list[QuadResult]:
    """int f over [lo, hi] for each f of ``funcs`` and (lo, hi) of
    ``supports``, to the relative ``tol``, in one lockstep
    :func:`~hyplab.quadrature.integrate_intervals` pass.

    These are the 1-D factors of separable half-space integrals: each f
    is elementwise, and every integrand call evaluates each f once, on
    its own nodes.
    """
    lows, highs = zip(*supports)
    return integrate_intervals(lambda x, owner: _per_run(funcs, x, owner),
                               lows, highs, 0.0, rel_tol=tol)


def halfspace_integral(
    params: Params, funcs, support: tuple, tol: float = 1e-8
) -> list[QuadResult]:
    """int f(x1, rho, y) * omega_{N-3} rho^(N-3) dx1 drho dy over the box
    for each f of ``funcs``, in one cubature pass.

    Each f must be elementwise: the cubature calls it on per-axis node
    arrays that broadcast against each other, not on full grids, and
    takes anything that broadcasts to their common shape.  ``support`` is
    the compact box ((x1_lo, x1_hi), (rho_lo, rho_hi), (y_lo, y_hi)).
    For N = 2 the rho dimension is absent; for N = 3 the rho integral runs
    over the two half-lines (factor omega_0 = 2).  The seed cells are
    evaluated once for all of ``funcs``, and each result, refined to the
    relative ``tol``, is bit for bit that of a call with its f alone.  The
    decaying near-extremal family is integrated by :func:`ueps_energy_mass`.
    """
    (x1l, x1h), (rl, rh), (yl, yh) = support
    if yl <= 0.0:
        raise ValueError("compact support must satisfy y > 0")
    N = params.N
    if N == 2:
        box = [(x1l, x1h), (yl, yh)]
    else:
        box = [(x1l, x1h), (max(rl, 0.0), rh), (yl, yh)]
        area = sphere_area(N - 3)

    def g(*axes, component):
        picked = funcs if component is None else funcs[component:component + 1]
        if N == 2:
            x1, y = axes
            return tuple(f(x1, np.zeros_like(x1), y) for f in picked)
        x1, rho, y = axes
        rr = rho ** (N - 3) if N > 3 else np.ones_like(rho)
        return tuple(f(x1, rho, y) * area * rr for f in picked)

    return integrate_cell_components(
        g, box, [0.0] * len(funcs), max_cells=6000 if N == 2 else 20000,
        rel_tols=[tol] * len(funcs),
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


def _log1p_exp(logy):
    """log(1 + e^logy), stable for any logy."""
    return np.where(logy > 36.0, logy, np.log1p(np.exp(np.minimum(logy, 36.0))))


def ueps_energy_mass(
    params: Params, eps: float, tol: float = 1e-6
) -> tuple[QuadResult, QuadResult]:
    """Hyperbolic p-energy and p-mass of the near-extremal family.

    Energy integrand |grad u|^p y^(p-N), mass integrand |u|^p y^(-N); both
    are bounded by (k^p resp. 1) times the envelope (y/A)^sigma / y^N with
    A = (1+y)^2 + |x|^2.  They are integrated in sheared-angular-
    logarithmic coordinates: x = (1+y) v with v = tan(theta) compactifies
    the horizontal plane exactly (power tails become cos^(2 sigma - 2)
    theta near pi/2, no truncation error), and the vertical axis splits
    at y = 1 into two logarithmic branches y = exp(+-tau), truncated where
    the analytic tail bounds ~ e^(-eps tau) / e^(-sigma tau) fall below
    the budget; the tails enter the error estimates.

    There the mass integrand times the Jacobian is exactly the product of
    an angular factor jac (1+|v|^2)^(-sigma) and a vertical factor
    e^(eps log y) (1+y)^(N-1-2 sigma), and the energy multiplies it by
    k^p G^(p/2) with the gradient factor G = 1 - 4y/A <= 1, where
    4y/A = 4y (1+y)^(-2) / (1+|v|^2).  The vertical factors are evaluated
    in log space, so the e^(-eps tau) tail (tau up to ~16/eps) never
    under- or overflows.  Each branch is one cubature of both components;
    the truncations, boxes and seed cells are the same for both because
    the constant k^p cancels against the energy's scale.  ``tol`` is
    relative to the analytic envelope bound of each integral.
    """
    N, p = params.N, params.p
    if N not in (2, 3):
        raise ValueError("the near-extremal family is integrated for N in {2, 3}")
    if not (eps > 0.0):
        raise ValueError(f"need eps > 0, got {eps}")
    k = (N - 1 + eps) / p
    kp = k**p
    sigma = N - 1 + eps
    vtot = _v_total(N, sigma)
    # absolute tolerances; a quarter of each goes to each tail and branch
    mass_tol = tol * envelope_total(N, sigma, 1.0)
    energy_tol = tol * envelope_total(N, sigma, kp)

    # vertical truncations (tau = -log y below 1, +log y above 1)
    budget = mass_tol / 4.0
    T_lo = max(8.0, math.log(max(vtot / (eps * budget), 2.0)) / eps)
    lo_tail = vtot * math.exp(-eps * T_lo) / eps
    T_up = max(8.0, math.log(max(vtot / (sigma * budget), 2.0)) / sigma)
    up_tail = vtot * math.exp(-sigma * T_up) / sigma

    # even in x1; for N = 3 also the two rho half-lines
    mult = 2.0 if N == 2 else 2.0 * sphere_area(0)
    half_pi = math.pi / 2.0
    log4 = math.log(4.0)
    c = kp ** (2.0 / p)  # (c G)^(p/2) = k^p G^(p/2)
    vert_power = N - 1 - 2 * sigma
    mass = energy = QuadResult(0.0, 0.0, 0)
    for sign in (-1.0, +1.0):
        T = T_lo if sign < 0 else T_up

        def g(*axes, component, _sign=sign):
            *thetas, tau = axes
            cells = tau.shape[0]
            S, jac = 1.0, mult
            for th in thetas:
                v = np.tan(th)
                S = S + v * v
                jac = jac / np.cos(th) ** 2
            # angular factors (cells, 15^(N-1)), vertical ones (cells, 15)
            inv_S = (1.0 / S).reshape(cells, -1)
            ang = (jac * S**-sigma).reshape(cells, -1)
            logy = _sign * tau.reshape(cells, 15)
            log1p_y = _log1p_exp(logy)
            vert = np.exp(eps * logy + vert_power * log1p_y)
            full = (cells,) + (15,) * len(axes)
            m = np.einsum("ka,kb->kab", ang, vert)
            if component == 0:
                return (m.reshape(full),)
            # c 4y/(1+y)^2 <= c and 1/S <= 1 keep c G = c - c 4y/A >= 0
            # in floating point, so no clamp is needed on the full grid
            c_4y = c * np.minimum(np.exp(log4 + logy - 2.0 * log1p_y), 1.0)
            e = np.einsum("ka,kb->kab", inv_S, c_4y)
            np.subtract(c, e, out=e)
            np.power(e, p / 2.0, out=e)
            e *= m
            if component == 1:
                return (e.reshape(full),)
            # mass first: components refine in order, as when the mass
            # was integrated before the energy
            return m.reshape(full), e.reshape(full)

        box = [(0.0, half_pi)] * (N - 1) + [(0.0, T)]
        splits = [_angular_splits()] * (N - 1) + [geometric_splits(0.0, T, 1.0)]
        m_res, e_res = integrate_cell_components(
            g, box, [mass_tol / 4.0, energy_tol / 4.0], initial_splits=splits,
            max_cells=40000,
        )
        mass, energy = mass + m_res, energy + e_res

    def with_tails(res, const):
        return QuadResult(
            res.value,
            res.error_estimate + const * lo_tail + const * up_tail,
            res.subdivisions,
            truncation_point=max(T_lo, T_up),
        )

    return with_tails(energy, kp), with_tails(mass, 1.0)
