"""Test-function families: radial bumps, the 1D Hardy extremal profiles,
and the half-space products of three 1-D profiles.

All constructors return immutable function objects carrying analytic
derivatives, their breakpoint list (so quadrature panels can split there
exactly) and, where relevant, the power behaviour at the origin that the
singular-integral machinery needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "RadialTestFunction",
    "HalfSpaceFunction",
    "make_bump",
    "mollifier_value",
    "mollifier_derivative",
    "mollifier_value_and_derivative",
    "make_veps",
]


@dataclass(frozen=True)
class RadialTestFunction:
    """Compactly supported (or decaying) radial profile with derivative.

    ``origin_power`` is the exponent lam with u(r) ~ c r^lam
    as r -> 0+ when the support starts at 0; quadrature against singular
    weights splits that pure power off analytically.  ``bump`` is the
    (center, half-width) of a mollifier bump, whose value and derivative
    are :func:`mollifier_value` and :func:`mollifier_derivative` at those
    parameters, so that a battery can evaluate many bumps in one call.
    ``value_and_derivative``, when given, returns (value, derivative) at r
    from one evaluation, equal to the two separate calls, for callers
    that need both at the same nodes.
    """

    value: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]
    breakpoints: tuple[float, ...] = ()
    origin_power: float | None = None
    label: str = "radial"
    bump: tuple[float, float] | None = None
    value_and_derivative: Callable[[np.ndarray], tuple] | None = None

    def __call__(self, r):
        return self.value(np.asarray(r, dtype=float))


@dataclass(frozen=True)
class HalfSpaceFunction:
    """Product u = phi(x1) psi(rho) chi(y) on the upper half-space reduced
    to (x1, rho, y).

    Each factor is a 1-D profile with its derivative and its
    ``value_and_derivative``; psi is None when u does not depend on rho
    (N = 2).
    """

    phi: RadialTestFunction
    psi: RadialTestFunction | None
    chi: RadialTestFunction
    label: str = "halfspace"

    @property
    def support(self) -> tuple[tuple[float, float], tuple[float, float], tuple[float, float]]:
        """The box ((x1_lo, x1_hi), (rho_lo, rho_hi), (y_lo, y_hi)) of the
        factors' supports, with rho in [0, 1] when there is no psi."""
        rho = (0.0, 1.0) if self.psi is None else self.psi.support
        return self.phi.support, rho, self.chi.support

    def value(self, x1, rho, y):
        """u(x1, rho, y)."""
        pr = self.psi.value(rho) if self.psi is not None else 1.0
        return self.phi.value(x1) * pr * self.chi.value(y)

    def gradient_norm(self, x1, rho, y):
        """|grad u| in flat coordinates."""
        px, dx = self.phi.value_and_derivative(x1)
        pr, dr = self.psi.value_and_derivative(rho) if self.psi is not None else (1.0, 0.0)
        py, dy = self.chi.value_and_derivative(y)
        return np.sqrt(
            (dx * pr * py) ** 2 + (px * dr * py) ** 2 + (px * pr * dy) ** 2
        )


def mollifier_value(r, mid, half):
    """exp(-1/(1-t^2)) inside |t| < 1 and 0 outside, t = (r - mid) / half.

    ``mid`` and ``half`` are numbers or arrays that broadcast against r.
    """
    r = np.asarray(r, dtype=float)
    t = (r - mid) / half
    inside = np.abs(t) < 1.0
    if inside.all():
        return np.asarray(np.exp(-1.0 / (1.0 - t * t)))
    ts = np.where(inside, t, 0.0)
    return np.where(inside, np.exp(-1.0 / (1.0 - ts * ts)), 0.0)


def mollifier_derivative(r, mid, half):
    """d/dr of :func:`mollifier_value`."""
    return mollifier_value_and_derivative(r, mid, half)[1]


def mollifier_value_and_derivative(r, mid, half):
    """(:func:`mollifier_value`, :func:`mollifier_derivative`) at r from one
    t, one support mask and one exponential, for callers that need both
    at the same nodes."""
    r = np.asarray(r, dtype=float)
    t = (r - mid) / half
    inside = np.abs(t) < 1.0
    whole = inside.all()
    ts = t if whole else np.where(inside, t, 0.0)
    om = 1.0 - ts * ts
    e = np.exp(-1.0 / om)
    d = e * (-2.0 * ts / om**2) / half
    if whole:
        return np.asarray(e), np.asarray(d)
    return np.where(inside, e, 0.0), np.where(inside, d, 0.0)


def make_bump(r_lo: float, r_hi: float) -> RadialTestFunction:
    """Mollifier bump supported on [r_lo, r_hi].

    exp(-1/(1-t^2)) in the normalized coordinate
    t = (2r - (r_lo + r_hi)) / (r_hi - r_lo), a C-infinity function whose
    center value is exp(-1).
    """
    if not (0.0 <= r_lo < r_hi < math.inf):
        raise ValueError(f"need 0 <= r_lo < r_hi < inf, got [{r_lo}, {r_hi}]")
    mid = 0.5 * (r_lo + r_hi)
    half = 0.5 * (r_hi - r_lo)
    return RadialTestFunction(
        lambda r: mollifier_value(r, mid, half),
        lambda r: mollifier_derivative(r, mid, half),
        (r_lo, r_hi), breakpoints=(r_lo, r_hi),
        label=f"mollifier[{r_lo:g},{r_hi:g}]", bump=(mid, half),
        value_and_derivative=lambda r: mollifier_value_and_derivative(r, mid, half),
    )


def make_veps(p: float, eps: float, delta: float) -> RadialTestFunction:
    """Extremal family for the sharp 1D weighted Hardy inequality.

    Four pieces: r^a on (0, eps) with a = (p-1+delta)/p, the constant
    eps^a on [eps, 1), the linear ramp eps^a (2 - r) on [1, 2), and 0
    beyond.  Exactly two kinks carry nonzero one-sided derivatives
    (r = eps and r = 1); the profile is in W^{1,p}(0, inf).
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"need 0 < eps < 1, got {eps}")
    if not (delta > 0.0):
        raise ValueError(f"need delta > 0, got {delta}")
    if not (p > 1.0):
        raise ValueError(f"need p > 1, got {p}")
    a = (p - 1.0 + delta) / p
    cap = eps**a

    def value(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        m1 = (r > 0.0) & (r < eps)
        m2 = (r >= eps) & (r < 1.0)
        m3 = (r >= 1.0) & (r < 2.0)
        out[m1] = r[m1] ** a
        out[m2] = cap
        out[m3] = cap * (2.0 - r[m3])
        return out

    def derivative(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        m1 = (r > 0.0) & (r < eps)
        m3 = (r >= 1.0) & (r < 2.0)
        out[m1] = a * r[m1] ** (a - 1.0)
        out[m3] = -cap
        return out

    return RadialTestFunction(
        value, derivative, (0.0, 2.0),
        breakpoints=(eps, 1.0, 2.0),
        origin_power=a,
        label=f"veps[p={p:g},eps={eps:g},delta={delta:g}]",
    )
