"""Inequality verifiers.

Each supported inequality is a fixed LHS/RHS recipe written in
:class:`~hyplab.quadrature.QuadResult` arithmetic, which carries the
quadrature error of every term; a report holds both sides, the slack, and
the error of both sides.  The pass criterion is always
``slack >= -quad_error``: the inequalities are exact theorems, so only
integration error may push the slack negative.

Also here: the proof-step checkers (the scalar convexity bound, the
cosh/sinh positivity profile, the supersolution identities) and the
sharpness scans driving the near-extremal families.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import c_np
from .core import HypothesisError, Params, log_sinh
from .integrals import _ramp_constant, halfspace_battery, radial_battery, ueps_energy_masses
from .quadrature import QuadResult
from .rp import solve_rp
from .testfun import (
    HalfSpaceFunction,
    RadialTestFunction,
    make_bump,
    make_veps,
    mollifier_derivative,
    mollifier_value,
    mollifier_value_and_derivative,
)

__all__ = [
    "InequalityKind",
    "InequalityReport",
    "SupportViolation",
    "verify",
    "sharpness_scan",
    "check_pconvexity",
    "check_ftilde",
    "supersolution_residual",
    "batch_verify",
    "reports",
    "random_bump",
    "random_halfspace_product",
]


class SupportViolation(ValueError):
    """Test-function support violates the inequality's domain."""


class InequalityKind(str, enum.Enum):
    """Tags of the supported inequalities; the recipe of each kind is its
    entry in ``_RECIPES``."""

    PGAP = "pgap"                  # p-Poincare gap, sharp constant Lambda_p
    GREEN_WEIGHT = "green-weight"  # Green's-function weight W improvement
    BOUNDED_V = "bounded-v"        # bounded weight V improvement (hyperbolic form)
    HARDY = "hardy"                # Hardy 1/r^p improvement
    UNCERTAINTY = "uncertainty"    # uncertainty principle for the shifted form
    HP_WEIGHTED = "hp-weighted"    # H_p-weighted form with two remainders
    MAZYA = "mazya"                # BOUNDED_V in Euclidean terms, weighted by y^(p-N)
    BALL = "ball"                  # Hardy improvement on the critical ball
    HARDY1D = "hardy1d"            # sharp 1D weighted Hardy inequality


@dataclass(frozen=True)
class InequalityReport:
    kind: InequalityKind
    N: int
    p: float
    test_function: str
    lhs: float
    rhs: float
    quad_error: float
    l: float | None = None

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs

    @property
    def passed(self) -> bool:
        return self.slack >= -self.quad_error

    def as_row(self) -> dict:
        return {
            "kind": self.kind.value,
            "N": self.N,
            "p": self.p,
            "l": self.l if self.l is not None else "",
            "test_function": self.test_function,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "quad_error": self.quad_error,
            "passed": self.passed,
        }


def hardy_constant(params: Params) -> float:
    """(p-1)((N-1)/p)^(p-2)((p-1)/p)^2, the 1/r^p improvement constant."""
    N, p = params.N, params.p
    return (p - 1.0) * ((N - 1) / p) ** (p - 2.0) * ((p - 1.0) / p) ** 2


def ball_constants(params: Params) -> tuple[float, float]:
    """Constants of the two remainders in the H_p-weighted inequality."""
    N, p = params.N, params.p
    c_r = (p - 1.0) ** (p - 1.0) * (N * (p - 2.0) + 1.0) / p**p
    c_sinh = (N - 1) * (N - 1 - p * (p - 1.0)) * (p - 1.0) ** (p - 2.0) / p**p
    return c_r, c_sinh


# The kinds proved under p >= 2 and N >= 1 + p(p-1).
_HARDY_HYPOTHESIS_KINDS = (
    InequalityKind.HARDY,
    InequalityKind.UNCERTAINTY,
    InequalityKind.HP_WEIGHTED,
    InequalityKind.BALL,
)


def _require_hypothesis(kind: InequalityKind, params: Params) -> None:
    if kind in _HARDY_HYPOTHESIS_KINDS and not params.hardy_hypothesis:
        raise HypothesisError(
            f"{kind.value} requires p >= 2 and N >= 1 + p(p-1); "
            f"got N={params.N}, p={params.p}"
        )


def verify(
    kind: InequalityKind,
    params: Params,
    u,
    tol: float = 1e-9,
    l: float | None = None,
) -> InequalityReport:
    """Assemble and check one inequality instance: :func:`reports` on the
    one test function ``u``."""
    return reports(kind, params, [u], tol, l)[0]


def _report(kind, params, u, lhs, rhs, l=None) -> InequalityReport:
    """Report of lhs >= rhs; the quadrature error is that of both sides."""
    return InequalityReport(
        kind, params.N, params.p, u.label, lhs.value, rhs.value,
        lhs.error_estimate + rhs.error_estimate, l=l,
    )


def _gap(params, t, mass="M"):
    """E - Lambda_p * mass, the gap above the sharp Poincare constant."""
    return t["E"] - params.lambda_p * t[mass]


def _ball_rhs(params, t):
    """c_r * (1/r^p mass) + c_sinh * (1/sinh^p mass), the two remainders."""
    c_r, c_sinh = ball_constants(params)
    return c_r * t["1/r^p"] + c_sinh * t["1/sinh^p"]


# The lhs and rhs of the half-space kinds, which differ only in their tag:
# the energy gap above Lambda_p and ((N-1)/p)^(p-2) C(N, p) times the V-mass.
_HALFSPACE_RECIPE = (
    ("E", "M", "V"),
    lambda params, t, l: (_gap(params, t),
                          ((params.N - 1) / params.p) ** (params.p - 2.0)
                          * c_np(params).value * t["V"]))

# The recipe of each kind: the terms it reads, and its (lhs, rhs) from those
# terms t, where l is the exponent of the 1D Hardy kind.  A half-space
# kind's terms are the energy, mass and V-mass of
# :func:`~hyplab.integrals.halfspace_battery`, every other kind's are radial
# battery terms.
_RECIPES = {
    InequalityKind.PGAP: (
        ("E", "M"),
        lambda params, t, l: (t["E"], params.lambda_p * t["M"])),
    InequalityKind.GREEN_WEIGHT: (
        ("E", "M", "W"),
        lambda params, t, l: (_gap(params, t), t["W"])),
    InequalityKind.HARDY: (
        ("E", "M", "1/r^p"),
        lambda params, t, l: (_gap(params, t), hardy_constant(params) * t["1/r^p"])),
    # product form: (gap) * (r^{p'} mass)^(p/p') >= c * (mass)^p
    InequalityKind.UNCERTAINTY: (
        ("E", "M", "r^pprime"),
        lambda params, t, l: (_gap(params, t) * t["r^pprime"] ** (params.p / params.p_prime),
                              hardy_constant(params) * t["M"] ** params.p)),
    InequalityKind.HP_WEIGHTED: (
        ("E", "Hp", "1/r^p", "1/sinh^p"),
        lambda params, t, l: (_gap(params, t, "Hp"), _ball_rhs(params, t))),
    InequalityKind.BALL: (
        ("E", "M", "1/r^p", "1/sinh^p"),
        lambda params, t, l: (_gap(params, t), _ball_rhs(params, t))),
    InequalityKind.HARDY1D: (
        ("hardy1d_energy", "hardy1d_mass"),
        lambda params, t, l: (t["hardy1d_energy"],
                              ((params.p - 1.0) / params.p) ** l * t["hardy1d_mass"])),
    InequalityKind.BOUNDED_V: _HALFSPACE_RECIPE,
    InequalityKind.MAZYA: _HALFSPACE_RECIPE,
}
_HALFSPACE_KINDS = (InequalityKind.BOUNDED_V, InequalityKind.MAZYA)


def _ball_radius(kind: InequalityKind, params: Params) -> float | None:
    """r_p when the kind restricts supports to the critical ball, else None."""
    if kind is InequalityKind.BALL and params.p > 2.0:
        return solve_rp(params).root
    return None


def _check_ball_support(u, rp: float | None) -> None:
    if rp is not None and not (u.support[1] <= rp):
        raise SupportViolation(
            f"support [{u.support[0]:g}, {u.support[1]:g}] must sit "
            f"inside the ball of radius r_p = {rp:.6g}"
        )


def _hardy1d_exponent(params: Params, l: float | None) -> float:
    l_eff = params.p if l is None else float(l)
    if not (1.0 < l_eff <= params.p):
        raise HypothesisError(f"hardy1d requires 1 < l <= p, got l={l_eff}")
    return l_eff


def reports(
    kind: InequalityKind,
    params: Params,
    funcs,
    tol: float = 1e-9,
    l: float | None = None,
    rp: float | None = None,
) -> list[InequalityReport]:
    """Reports of one kind for many test functions, each from the kind's
    entry in ``_RECIPES``.

    The test functions are :class:`RadialTestFunction` profiles for the
    radial kinds and the 1D Hardy kind, whose terms all come from one
    :func:`~hyplab.integrals.radial_battery` call, and
    :class:`HalfSpaceFunction` products for the half-space kinds, whose
    terms all come from one :func:`~hyplab.integrals.halfspace_battery`
    call.  ``l`` is the exponent of the 1D Hardy kind (defaults to p;
    ignored by the other kinds).  ``rp`` is the critical radius r_p of the
    ball kind if the caller has it.
    """
    kind = InequalityKind(kind)
    family, cls = (("half-space", HalfSpaceFunction) if kind in _HALFSPACE_KINDS
                   else ("radial", RadialTestFunction))
    if not all(isinstance(u, cls) for u in funcs):
        raise TypeError(f"{kind.value} needs a {family} test function")
    _require_hypothesis(kind, params)
    l = _hardy1d_exponent(params, l) if kind is InequalityKind.HARDY1D else None
    if rp is None:
        rp = _ball_radius(kind, params)
    for u in funcs:
        _check_ball_support(u, rp)
    names, sides = _RECIPES[kind]
    if cls is HalfSpaceFunction:
        terms = halfspace_battery(params, funcs, tol)
    else:
        terms = radial_battery(params, funcs, names, tol, l)
    return [_report(kind, params, u, *sides(params, t, l), l=l)
            for u, t in zip(funcs, terms)]


# ---------------------------------------------------------------------------
# Sharpness scans.
# ---------------------------------------------------------------------------


def sharpness_scan(
    kind: InequalityKind,
    params: Params,
    schedule,
    tol: float = 1e-5,
    l: float | None = None,
) -> list[dict]:
    """Quotients of the near-extremal families along a shrinking schedule.

    PGAP: for each eps, the hyperbolic p-energy / p-mass quotient of the
    half-space family, bracketed by [Lambda_p, ((N-1+eps)/p)^p]; its rows
    carry an empty delta.
    HARDY1D: for each (eps, delta), the weighted quotient of the
    four-piece profile, with the matching analytic upper bound
    ((p-1+delta)/p)^l (cosh eps)^(p-l) + c delta eps^(p-1) where c is the
    ramp-piece constant computed by quadrature.
    """
    kind = InequalityKind(kind)
    if kind is InequalityKind.PGAP:
        eps_list = [float(e) for e in schedule]
        if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
            raise ValueError("schedule must be strictly decreasing")
        terms = ueps_energy_masses(params, eps_list, tol)
        return [_scan_row(eps, "", energy / mass, params.lambda_p,
                          ((params.N - 1 + eps) / params.p) ** params.p)
                for eps, (energy, mass) in zip(eps_list, terms)]
    if kind is InequalityKind.HARDY1D:
        p = params.p
        l_eff = _hardy1d_exponent(params, l)
        pairs = [(float(e), float(d)) for e, d in schedule]
        if any(
            (e2 >= e1 or d2 > d1)
            for (e1, d1), (e2, d2) in zip(pairs, pairs[1:])
        ):
            raise ValueError("schedule must be strictly decreasing")
        funcs = [make_veps(p, eps, delta) for eps, delta in pairs]
        terms = radial_battery(params, funcs, _RECIPES[kind][0], tol, l_eff)
        c = _ramp_constant(p, l_eff)
        return [_scan_row(eps, delta, t["hardy1d_energy"] / t["hardy1d_mass"],
                          ((p - 1.0) / p) ** l_eff,
                          (((p - 1.0 + delta) / p) ** l_eff * math.cosh(eps) ** (p - l_eff)
                           + c * delta * eps ** (p - 1.0)))
                for (eps, delta), t in zip(pairs, terms)]
    raise ValueError(f"sharpness scans exist for pgap and hardy1d, not {kind.value}")


def _scan_row(eps, delta, q: QuadResult, lower: float, upper: float) -> dict:
    """Row of a sharpness scan: the quotient q with its error and bracket."""
    return {"eps": eps, "delta": delta, "quotient": q.value,
            "quad_error": q.error_estimate, "lower": lower, "upper": upper}


# ---------------------------------------------------------------------------
# Proof-step checkers.
# ---------------------------------------------------------------------------


def check_pconvexity(p: float, xi: float, eta: float) -> float:
    """Slack of the scalar convexity bound used in the radial proofs.

    (xi - eta)^p + p xi^(p-1) eta - xi^p  >=
        max{(p-1) eta^2 xi^(p-2), |eta|^p}          if p >= 2,
        p(p-1)/2 * eta^2 / (xi + |eta|)^(2-p)        if 1 <= p <= 2,
    for xi >= 0 and xi - eta >= 0.  The LHS is assembled in the scaled
    form xi^p (expm1(p log1p(-t)) + p t), t = eta/xi, which keeps the
    O(t^2) cancellation exact to machine precision.
    """
    if p < 1.0:
        raise ValueError(f"need p >= 1, got {p}")
    if xi < 0.0 or xi - eta < 0.0:
        raise ValueError("need xi >= 0 and xi - eta >= 0")
    if eta == 0.0:
        return 0.0
    # Scale the larger of xi, |eta| out of both sides so every
    # intermediate is O(1) times scale^p and the near-equality
    # cancellations happen between O(1) quantities.
    if abs(eta) <= xi:
        t = eta / xi  # in [-1, 1]
        lhs_s = (p - 1.0) if t == 1.0 else math.expm1(p * math.log1p(-t)) + p * t
        if p >= 2.0:
            rhs_s = max((p - 1.0) * t * t, abs(t) ** p)
        else:
            rhs_s = 0.5 * p * (p - 1.0) * t * t / (1.0 + abs(t)) ** (2.0 - p)
        return xi**p * (lhs_s - rhs_s)
    # here eta < -xi <= 0: scale by |eta|, u = xi/|eta| in [0, 1)
    u = xi / abs(eta)
    lhs_s = (1.0 + u) ** p - u ** (p - 1.0) * (u + p)
    if p >= 2.0:
        first = (p - 1.0) * (u ** (p - 2.0) if (u > 0.0 or p == 2.0) else 0.0)
        rhs_s = max(first, 1.0)
    else:
        rhs_s = 0.5 * p * (p - 1.0) / (1.0 + u) ** (2.0 - p)
    return abs(eta) ** p * (lhs_s - rhs_s)


def check_ftilde(params: Params, r_grid) -> float:
    """min over the grid of (N-1)cosh^p r - (N-1)sinh^p r - p(p-1)cosh^(p-2) r.

    Assembled as cosh^(p-2) r [(N-1) cosh^2 r (1 - tanh^p r) - p(p-1)]
    with 1 - tanh^p r = -expm1(p log tanh r), which survives the large-r
    cancellation.  Nonnegative on (0, inf) exactly when N >= 1 + p(p-1).
    """
    r = np.asarray(r_grid, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("grid must lie in (0, inf)")
    N, p = params.N, params.p
    # log(tanh r) = log1p(-2/(e^{2r}+1)) never rounds to 0 for r <= 350
    log_tanh = np.log1p(-2.0 / (np.exp(2.0 * r) + 1.0))
    one_minus_tanh_p = -np.expm1(p * log_tanh)
    vals = np.cosh(r) ** (p - 2.0) * (
        (N - 1) * np.cosh(r) ** 2 * one_minus_tanh_p - p * (p - 1.0)
    )
    return float(np.min(vals))


def _gtilde(params: Params, r):
    r = np.asarray(r, dtype=float)
    N, p = params.N, params.p
    return np.exp((p - 1.0) / p * np.log(r) - (N - 1) / p * log_sinh(r))


def _gtilde_prime_closed(params: Params, r: float) -> float:
    N, p = params.N, params.p
    return (
        -(1.0 / p)
        * ((N - 1) / math.tanh(r) - (p - 1.0) / r)
        * float(_gtilde(params, r))
    )


def _lp_rhs_closed(params: Params, r: float) -> float:
    N, p = params.N, params.p
    g = float(_gtilde(params, r))
    bracket = (
        ((N - 1) / p) ** 2
        + (p - 1.0) ** 2 / (p * p * r * r)
        + (p - 1.0) * (p - 2.0) * (N - 1) / (p * p) / (r * math.tanh(r))
        + (N - 1) * (N - 1 - p * (p - 1.0)) / (p * p * math.sinh(r) ** 2)
    )
    return -bracket * g


_FD_STEP = 1e-5  # step of the supersolution check's first differences


def supersolution_residual(params: Params, r: float) -> tuple[float, float]:
    """(identity_residual, derivative_residual) of the supersolution profile.

    The profile (r/sinh r)^((N-1)/p) r^((p-N)/p) satisfies a first-order
    closed form for its derivative and a closed form for its radial
    p-Laplacian precursor L g = (p-1) g'' + (N-1) coth r g'.  Both are
    checked against Richardson-extrapolated central differences of step
    ``_FD_STEP``; relative residuals are returned.  Warns if halving the
    step moves the FD value by more than 10x the expected truncation
    tolerance.
    """
    if not (_FD_STEP < 0.25 * r):
        raise ValueError(f"need r > 4 * {_FD_STEP:g} for the finite differences, got r={r}")
    g = lambda x: float(_gtilde(params, x))

    def d1(h):
        return (g(r + h) - g(r - h)) / (2.0 * h)

    def d2(h):
        return (g(r + h) - 2.0 * g(r) + g(r - h)) / (h * h)

    h = _FD_STEP
    d1_r = (4.0 * d1(h / 2.0) - d1(h)) / 3.0
    # second differences divide rounding error by h^2; eps^(1/6) r is the
    # optimal step for the Richardson-extrapolated rule
    h2 = max(h, 2.5e-3 * r)
    d2_r = (4.0 * d2(h2 / 2.0) - d2(h2)) / 3.0
    if abs(d1(h) - d1(h / 2.0)) > 10.0 * 1e-6 * max(1.0, abs(d1_r)):
        warnings.warn(
            f"finite-difference step {h} looks too large at r={r}",
            RuntimeWarning,
            stacklevel=2,
        )
    closed_d1 = _gtilde_prime_closed(params, r)
    derivative_residual = abs(d1_r - closed_d1) / abs(closed_d1)
    N, p = params.N, params.p
    lp_fd = (p - 1.0) * d2_r + (N - 1) / math.tanh(r) * d1_r
    rhs = _lp_rhs_closed(params, r)
    identity_residual = abs(lp_fd - rhs) / abs(rhs)
    return identity_residual, derivative_residual


# ---------------------------------------------------------------------------
# Seeded random families and batch verification.
# ---------------------------------------------------------------------------


def random_bump(
    rng: np.random.Generator, allow_origin: bool = False
) -> RadialTestFunction:
    """Mollifier bump with support drawn log-uniformly inside [0.1, 20]."""
    r_lo = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
    width = math.exp(rng.uniform(math.log(0.2), math.log(min(10.0, 20.0 - r_lo))))
    r_hi = min(r_lo + width, 20.0)
    if allow_origin and rng.uniform() < 0.2:
        r_lo = 0.0
    return make_bump(r_lo, r_hi)


def random_halfspace_product(
    rng: np.random.Generator, N: int
) -> HalfSpaceFunction:
    """Separable compact product bump phi(x1) psi(rho) chi(y), y-support > 0."""
    x_lo = rng.uniform(-3.0, 0.5)
    x_hi = x_lo + rng.uniform(0.8, 3.0)
    y_lo = rng.uniform(0.25, 1.2)
    y_hi = y_lo + rng.uniform(0.6, 2.5)
    rho_hi = rng.uniform(0.8, 2.5) if N >= 3 else 1.0
    bump = make_bump(0.0, x_hi - x_lo)
    chi = make_bump(y_lo, y_hi)
    # phi is the bump on [0, x_hi - x_lo] moved to [x_lo, x_hi]; psi is
    # even, so its factor runs over rho >= 0; for N = 2 there is no rho
    phi = RadialTestFunction(
        lambda x1: bump.value(x1 - x_lo), lambda x1: bump.derivative(x1 - x_lo),
        (x_lo, x_hi), breakpoints=(x_lo, x_hi), label="phi",
        value_and_derivative=lambda x1: bump.value_and_derivative(x1 - x_lo),
    )
    psi = RadialTestFunction(
        lambda rho: mollifier_value(rho, 0.0, rho_hi),
        lambda rho: mollifier_derivative(rho, 0.0, rho_hi),
        (0.0, rho_hi), breakpoints=(0.0, rho_hi), label="psi",
        value_and_derivative=lambda rho: mollifier_value_and_derivative(rho, 0.0, rho_hi),
    ) if N >= 3 else None
    return HalfSpaceFunction(
        phi, psi, chi,
        label=f"product[{x_lo:.3g},{x_hi:.3g}]x[0,{rho_hi:.3g}]x[{y_lo:.3g},{y_hi:.3g}]",
    )


def _trial_function(
    kind: InequalityKind,
    params: Params,
    seed: int,
    index: int,
    allow_origin: bool = False,
    rp: float | None = None,
) -> RadialTestFunction | HalfSpaceFunction:
    """Test function of trial ``index``: a half-space product for the
    half-space kinds, else a radial profile; ``rp`` is r_p for the ball
    kind (solved here when not given)."""
    rng = np.random.default_rng([seed, index])
    if kind in _HALFSPACE_KINDS:
        return random_halfspace_product(rng, params.N)
    if kind is InequalityKind.BALL and params.p > 2.0:
        if rp is None:
            rp = solve_rp(params).root
        r_lo = rng.uniform(0.03, 0.4) * rp
        r_hi = r_lo + rng.uniform(0.1, 0.55) * rp
        r_hi = min(r_hi, 0.98 * rp)
        return make_bump(r_lo, r_hi)
    return random_bump(rng, allow_origin=allow_origin)


def batch_verify(
    kind: InequalityKind,
    params_grid,
    trials: int,
    seed: int,
    tol: float = 1e-9,
    l: float | None = None,
    allow_origin: bool = False,
) -> list[InequalityReport]:
    """Seeded battery of verifications, ordered by trial index.

    Trials round-robin over ``params_grid``, and trial ``index`` draws its
    test function from default_rng([seed, index]).  The trials of one
    grid point run as one :func:`reports` call.
    ``allow_origin`` lets a fraction of radial supports touch r = 0; it is
    rejected for the Green's-function weight, whose node evaluation needs
    r_lo > 0.
    """
    kind = InequalityKind(kind)
    if allow_origin and kind is InequalityKind.GREEN_WEIGHT:
        raise HypothesisError(
            "supports touching the origin are not allowed for the "
            "Green's-function weight battery"
        )
    grid = list(params_grid)
    out = [None] * trials
    for g, params in enumerate(grid):
        indices = range(g, trials, len(grid))
        if not indices:
            continue
        _require_hypothesis(kind, params)
        rp = _ball_radius(kind, params)
        funcs = [_trial_function(kind, params, seed, i, allow_origin, rp)
                 for i in indices]
        out[g::len(grid)] = reports(kind, params, funcs, tol, l=l, rp=rp)
    return out
