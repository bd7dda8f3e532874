"""Assembly of the concrete integrals: radial energies and weighted
masses against the hyperbolic volume element, 1D Hardy quotient pieces,
and the half-space terms of separable products.

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
import sys
from fractions import Fraction

import numpy as np

from .core import GreenWeight, Params, coth, log_sinh, sinh_pow, weight_hp
from .quadrature import (
    NonIntegrableSingularity,
    QuadResult,
    _per_run,
    integrate_cells,
    integrate_intervals,
    power_singular_integrals,
)
from .testfun import RadialTestFunction, mollifier_derivative, mollifier_value

__all__ = [
    "RADIAL_TERMS",
    "radial_battery",
    "radial_energy",
    "radial_weighted_mass",
    "hardy1d_energy",
    "hardy1d_mass",
    "halfspace_battery",
    "halfspace_integral",
    "ueps_energy_mass",
    "ueps_energy_masses",
    "WEIGHT_TAGS",
]

WEIGHT_TAGS = ("1/r^p", "1/sinh^p", "W", "Hp", "r^pprime")


def _finite_support(u: RadialTestFunction) -> tuple[float, float]:
    lo, hi = u.support
    if math.isinf(hi):
        raise ValueError("radial integrals need a compact support")
    return lo, hi


# Term names of a radial battery: the p-energy E and p-mass M, one
# weighted mass per weight tag, and the two 1D Hardy pieces, the only
# terms without the volume element.
_HARDY1D_TERMS = ("hardy1d_energy", "hardy1d_mass")
RADIAL_TERMS = ("E", "M") + WEIGHT_TAGS + _HARDY1D_TERMS


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
    bit.  One table declares each term: its integrand and its power at
    r = 0, both before the volume element (sinh r)^(N-1), which is
    multiplied in, and its power added, in one place for every term but
    the 1D pieces.  A term whose support starts at 0 and whose profile
    declares an origin power f ~ C r^s is split at b1, the profile's
    smallest breakpoint: on [0, b1] the pure power is split off
    analytically, and the rest runs on the ordinary panels of [b1, hi];
    each piece gets half of ``tol``.  The heads of all such terms are one
    :func:`~hyplab.quadrature.power_singular_integrals` call, which takes
    each head's C and rejects a power that is not integrable; every other
    integral, tails included, is one integral of a single
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
    radial = any(name not in _HARDY1D_TERMS for name in terms)

    def mass(weight, weight_power):
        """|u|^p times ``weight``(r, owner), whose power at 0 is
        ``weight_power``(p, p')."""
        return (lambda r, idx, owner: np.abs(value(r, idx)) ** p * weight(r, owner),
                lambda lam, p, l, q: lam * p + weight_power(p, q))

    def green(r, owner):
        w, errs = w_eval.w_array(r)
        np.maximum.at(max_rel, owner, errs / np.maximum(w, 5e-324))
        return w

    def hardy1d_energy(r, idx, owner):
        dv = np.abs(derivative(r, idx))
        # (|v| coth r)^(p-l) |v'|^l with 0^0 := 1 when l == p
        if l == p:
            return dv**p
        vv = np.abs(value(r, idx))
        return (vv * coth(np.maximum(r, 5e-324))) ** (p - l) * dv**l

    # Each term's integrand at nodes r of the profiles idx (owner names the
    # integral of each node in the battery's pass), and that integrand's
    # power at r = 0 for a profile ~ r^lam, as a function of (lam, p, l, p')
    # that takes doubles or exact Fractions alike.  Both are taken before
    # the volume element (sinh r)^m, which every term but the 1D pieces
    # carries.
    table = {
        "E": (lambda r, idx, owner: np.abs(derivative(r, idx)) ** p,
              lambda lam, p, l, q: (lam - 1) * p),
        "M": (lambda r, idx, owner: np.abs(value(r, idx)) ** p,
              lambda lam, p, l, q: lam * p),
        "1/r^p": mass(lambda r, owner: r ** (-p), lambda p, q: -p),
        "1/sinh^p": mass(lambda r, owner: sinh_pow(r, -p), lambda p, q: -p),
        "W": mass(green, lambda p, q: 0),
        "Hp": mass(lambda r, owner: weight_hp(params, r), lambda p, q: -(p - 2)),
        "r^pprime": mass(lambda r, owner: r ** params.p_prime, lambda p, q: q),
        # (r coth r) ~ 1 at 0
        "hardy1d_energy": (hardy1d_energy,
                           lambda lam, p, l, q: lam * (p - l) - (p - l) + (lam - 1) * l),
        "hardy1d_mass": mass(lambda r, owner: r ** (-p), lambda p, q: -p),
    }

    def origin_factor(name, i, power):
        """The integrand of term ``name`` of profile i over r^power, with
        ``power`` taken before the volume element, which enters as
        (sinh r / r)^m: near r = b1 e^-45, (sinh r)^m alone underflows
        where r^-power overflows."""
        f = table[name][0]

        def g(r):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                vals = f(r, np.full(np.shape(r), i), None) * r ** (-power)
                if name not in _HARDY1D_TERMS:
                    vals = vals * np.exp(m * (log_sinh(r) - np.log(r)))
                return vals

        return g

    out = [{} for _ in funcs]
    heads = {}  # (i, name) -> (g, whole power + 1, b1) of the terms split at the origin
    lows, highs, bps, rel_tols, where = [], [], [], [], []
    term_starts = []
    for name in terms:
        term_starts.append(len(where))
        for i, u in enumerate(funcs):
            lo, hi = _finite_support(u)
            lam = _origin_power(name, u, lo)
            rel_tol = tol
            if lam is not None:
                args = (lam, p, l, params.p_prime)
                power = table[name][1](*args)
                # the whole power, exact for the doubles it is formed from:
                # in doubles its sum cancels, as a p - p + 1 does for
                # a = (p - 1 + delta) / p and small delta
                whole = table[name][1](*(None if x is None else Fraction(x) for x in args))
                if name not in _HARDY1D_TERMS:
                    whole += m
                lo = min(u.breakpoints) if u.breakpoints else hi
                heads[i, name] = (origin_factor(name, i, power), float(whole + 1), lo)
                if lo >= hi:
                    continue
                rel_tol = tol / 2
            lows.append(lo)
            highs.append(hi)
            bps.append(u.breakpoints)
            rel_tols.append(rel_tol)
            where.append((i, name))
    term_starts.append(len(where))
    if heads:
        gs, deltas, b1s = zip(*heads.values())
        firsts = power_singular_integrals(gs, deltas, b1s, tol / 2)
        for (i, name), first in zip(heads, firsts):
            out[i][name] = first
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
                vals[s:e] = table[name][0](x[s:e], fn_of[owner[s:e]], owner[s:e])
                if name not in _HARDY1D_TERMS:
                    vals[s:e] *= vol[s:e]
        return vals

    results = integrate_intervals(
        integrand, lows, highs, 0.0, breakpoints=bps, rel_tol=rel_tols,
    )
    for k, ((i, name), res) in enumerate(zip(where, results)):
        if max_rel[k] > 0.0:
            res = QuadResult(res.value, res.error_estimate + max_rel[k] * abs(res.value),
                             res.subdivisions)
        # a tail adds to its origin head
        out[i][name] = out[i][name] + res if (i, name) in heads else res
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


def _origin_power(name: str, u: RadialTestFunction, lo: float) -> float | None:
    """The power lam of a profile u ~ C r^lam that term ``name`` splits off
    at the origin on [lo, hi], or None where it is not split.

    Only a support that starts at 0 is split (see :func:`radial_battery`).
    A profile that vanishes to all orders at 0 (mollifier-type) is not
    split: its integrand is smooth there.
    """
    if name == "W" and lo <= 0.0:
        raise NonIntegrableSingularity(
            "weight W on a support touching the origin is not handled; "
            "use supports with r_lo > 0"
        )
    if lo > 0.0:
        return None
    lam = u.origin_power
    # a mass of a profile with u(0) != 0 carries its weight's power
    if (lam is None and name not in ("E", "M", "hardy1d_energy")
            and float(u.value(np.array([0.0]))[0]) != 0.0):
        if name == "hardy1d_mass":
            raise NonIntegrableSingularity(
                "1/r^p mass at the origin needs a declared origin power"
            )
        lam = 0.0
    return lam


def radial_energy(
    params: Params, u: RadialTestFunction, tol: float = 1e-10
) -> tuple[QuadResult, QuadResult]:
    """(E_p, M_p): p-energy and p-mass against (sinh r)^(N-1) dr.

    E_p = int |u'|^p (sinh r)^(N-1) dr,  M_p = int |u|^p (sinh r)^(N-1) dr
    over the support of u, panels split exactly at the breakpoints.
    """
    terms = radial_battery(params, [u], ("E", "M"), tol)[0]
    return terms["E"], terms["M"]


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


def _ramp_constant(p: float, l: float) -> float:
    """c(p, l) = int_1^2 ((2 - r) coth r)^(p-l) dr of the ramp piece."""

    def ramp(r):
        if l == p:
            return np.ones_like(r)
        return (2.0 - r) ** (p - l) * coth(r) ** (p - l)

    return integrate_intervals(lambda r, owner: ramp(r), [1.0], [2.0], 1e-12)[0].value


# ---------------------------------------------------------------------------
# Half-space integrals reduced to (x1, rho, y).
# ---------------------------------------------------------------------------


def sphere_area(k: int) -> float:
    """Surface measure of the unit k-sphere in R^(k+1); omega_0 = 2."""
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


def _rho_measure(N: int, rho):
    """omega_{N-3} rho^(N-3), the measure of the rho axis (2 at N = 3)."""
    return sphere_area(N - 3) * rho ** (N - 3)


def halfspace_battery(params: Params, funcs, tol: float) -> list[dict[str, QuadResult]]:
    """The energy "E", mass "M" and V-mass "V" of every product
    u = phi(x1) psi(rho) chi(y) of ``funcs``, each to the relative ``tol``.

    Both half-space kinds read these terms: with |grad_H u| = y |grad u|
    and dv = y^-N dx, the energy int |grad u|^p y^(p-N), the mass
    int |u|^p y^-N and the V-mass int |u|^p y^(1-N) / |(x1, y)| over the
    box.  The mass is a product of 1-D integrals, one per factor, the
    V-mass an (x1, y) integral times the rho factor, and at p = 2 the
    energy a sum of three such products, one per term of |grad u|^2.  The
    1-D factors of all products run in one lockstep pass, each refined as
    it is alone, to tol / n with n the factors of its product (2 without
    psi), and the (x1, y) integral stands for two of them, so a term's
    relative error, the sum of its factors', stays within tol.  Only the
    energy at p != 2 is a cubature of the whole box (:func:`halfspace_integral`).
    """
    products = [_product(params, u, tol) for u in funcs]
    pieces = [(f, lo, hi, factor_tol) for factors, factor_tol, _ in products
              for (lo, hi), f in factors.values()]
    calls, lows, highs, rel_tols = zip(*pieces) if pieces else [()] * 4
    results = iter(integrate_intervals(lambda x, owner: _per_run(calls, x, owner),
                                       lows, highs, 0.0, rel_tol=rel_tols))
    # zip takes each product's names first, so it draws only their results
    return [terms(dict(zip(factors, results))) for factors, _, terms in products]


def _product(params: Params, u, tol: float):
    """(factors, factor_tol, terms) of the product u: its 1-D factors by
    name, each its support and integrand, their relative tolerance, and the
    function that makes its terms from their integrals."""
    N, p = params.N, params.p
    phi, psi, chi = u.phi, u.psi, u.chi
    factor_tol = tol / (2 if psi is None else 3)
    factors = {
        "phi": (phi.support, lambda x1: np.abs(phi.value(x1)) ** p),
        "chi": (chi.support, lambda y: np.abs(chi.value(y)) ** p / y**N),
    }
    if psi is not None:
        factors["psi"] = (psi.support,
                          lambda rho: _rho_measure(N, rho) * np.abs(psi.value(rho)) ** p)
    if p == 2.0:
        factors["dphi"] = (phi.support, lambda x1: phi.derivative(x1) ** 2)
        # chi_e is the y factor of the phi' and psi' terms
        factors["chi_e"] = (chi.support, lambda y: chi.value(y) ** 2 * y ** (p - N))
        factors["dchi_e"] = (chi.support, lambda y: chi.derivative(y) ** 2 * y ** (p - N))
        if psi is not None:
            factors["dpsi"] = (psi.support,
                               lambda rho: _rho_measure(N, rho) * psi.derivative(rho) ** 2)

    def v_f(x1, y):
        return (np.abs(phi.value(x1)) ** p
                * (np.abs(chi.value(y)) ** p / y ** (N - 1))
                / np.sqrt(y * y + x1 * x1))

    def e_f(x1, rho, y):
        # |grad u|^2 = (phi'^2 psi^2 + phi^2 psi'^2) chi^2 + phi^2 psi^2 chi'^2
        # from each factor's squares on its own axis; only the last two
        # products, the sum, the power and the weight run on every node
        px, dx = phi.value_and_derivative(x1)
        px2, dx2 = px * px, dx * dx
        if psi is None:
            a, b = dx2, px2
        else:
            pr, dr = psi.value_and_derivative(rho)
            pr2 = pr * pr
            a, b = dx2 * pr2 + px2 * (dr * dr), px2 * pr2
        py, dy = chi.value_and_derivative(y)
        s = a * (py * py)
        s += b * (dy * dy)
        s **= 0.5 * p
        s *= y ** (p - N)
        return s

    def terms(t):
        # without psi its factor is exactly 1 and its derivative's exactly 0
        t.setdefault("psi", QuadResult(1.0, 0.0, 0))
        t.setdefault("dpsi", QuadResult(0.0, 0.0, 0))
        mass = t["phi"] * t["psi"] * t["chi"]
        v_plane = integrate_cells(v_f, [phi.support, chi.support], 0.0,
                                  rel_tol=2.0 * factor_tol)
        if p == 2.0:
            energy = (t["dphi"] * t["psi"] * t["chi_e"] + t["phi"] * t["dpsi"] * t["chi_e"]
                      + t["phi"] * t["psi"] * t["dchi_e"])
        else:
            energy = halfspace_integral(params, e_f, u.support, tol)
        return {"E": energy, "M": mass, "V": v_plane * t["psi"]}

    return factors, factor_tol, terms


def halfspace_integral(
    params: Params, f, support: tuple, tol: float = 1e-8
) -> QuadResult:
    """int f(x1, rho, y) * omega_{N-3} rho^(N-3) dx1 drho dy over the box,
    to the relative ``tol``.

    ``f`` must be elementwise: the cubature calls it on per-axis node
    arrays that broadcast against each other, not on full grids, and
    takes anything that broadcasts to their common shape.  ``support`` is
    the compact box ((x1_lo, x1_hi), (rho_lo, rho_hi), (y_lo, y_hi)).
    For N = 2 the rho dimension is absent.  The decaying near-extremal
    family is integrated by :func:`ueps_energy_mass`.
    """
    (x1l, x1h), (rl, rh), (yl, yh) = support
    if yl <= 0.0:
        raise ValueError("compact support must satisfy y > 0")
    N = params.N
    if N == 2:
        box = [(x1l, x1h), (yl, yh)]
    else:
        box = [(x1l, x1h), (max(rl, 0.0), rh), (yl, yh)]

    def g(*axes):
        if N == 2:
            x1, y = axes
            return f(x1, np.zeros_like(x1), y)
        x1, rho, y = axes
        # one multiply of f's result, which may be shared or read-only
        return f(x1, rho, y) * _rho_measure(N, rho)

    return integrate_cells(g, box, 0.0, rel_tol=tol)


# Relative rounding of the family's closed-form parts, which no quadrature
# estimate counts: the constant c alone is off by up to 16 ulps against
# mpmath for N <= 170, and at N = 2 the mass is all closed form.
_FAMILY_ROUNDING = 64 * 2.0**-52


def ueps_energy_mass(
    params: Params, eps: float, tol: float = 1e-6
) -> tuple[QuadResult, QuadResult]:
    """Hyperbolic p-energy and p-mass of the near-extremal family.

    The family U = (y/A)^k, with A = (1+y)^2 + |x|^2 and
    k = (N-1+eps)/p, is radial about (0, 1): with r the geodesic distance
    to that point, U = (4 cosh^2(r/2))^(-k) and |grad U| = k U tanh(r/2).
    In t = tanh^2(r/2), with sigma = N-1+eps and
    c = omega_{N-1} 2^(N-1-2 sigma), the mass is c B(N/2) and the energy
    c k^p B((N+p)/2), where B(a) = int_0^1 t^(a-1) (1-t)^(eps-1) dt.
    Each B is one power-singular integral in s = 1 - t, which splits the
    s^(eps-1) endpoint off exactly, so eps down to 1e-3 and below costs no
    truncation.  ``tol`` is relative, and each error estimate adds
    :data:`_FAMILY_ROUNDING` relative.  An eps whose constant c or c k^p
    leaves the range of normal doubles (large eps, or N above about 340)
    raises ValueError.  The one-eps case of
    :func:`ueps_energy_masses`.
    """
    return ueps_energy_masses(params, [eps], tol)[0]


def ueps_energy_masses(
    params: Params, schedule, tol: float = 1e-6
) -> list[tuple[QuadResult, QuadResult]]:
    """(energy, mass) of :func:`ueps_energy_mass` for every eps of
    ``schedule``, its 2 len(schedule) Beta integrals in one
    :func:`~hyplab.quadrature.power_singular_integrals` pass; each pair is
    bit for bit the one-eps result.
    """
    N, p = params.N, params.p
    consts, gs, deltas = [], [], []
    for eps in schedule:
        if not (eps > 0.0):
            raise ValueError(f"need eps > 0, got {eps}")
        k = (N - 1 + eps) / p
        sigma = N - 1 + eps
        try:
            c = sphere_area(N - 1) * 2.0 ** (N - 1 - 2 * sigma)
            c_energy = c * k**p
        except OverflowError:  # from the Gamma function or from k**p
            c = c_energy = math.inf
        if not (sys.float_info.min <= min(c, c_energy) and max(c, c_energy) < math.inf):
            raise ValueError(f"eps={eps}: the family's constant leaves the double range")
        for const, a in ((c_energy, (N + p) / 2.0), (c, N / 2.0)):
            consts.append(const)
            gs.append(lambda s, _a=a: (1.0 - s) ** (_a - 1.0))
            deltas.append(eps)
    betas = power_singular_integrals(gs, deltas, [1.0] * len(gs), tol)
    terms = []
    for const, b in zip(consts, betas):
        res = const * b
        terms.append(res + QuadResult(0.0, _FAMILY_ROUNDING * abs(res.value), 0))
    return list(zip(terms[::2], terms[1::2]))
