"""Root-finding and shape analysis for the bounded weight H_p.

Two radii control the shape of H_p:

* r0, the unique sign change of h(r) = -(N-1) r^2 + (p-1) sinh^2 r, where
  the base of H_p stops decreasing and starts climbing back toward 1;
* r_p, the unique solution of coth r - 1 - (p-1)/((N-1) r) = 0, where H_p
  crosses the level 1.  By convention r_2 = +infinity (the weight is
  identically 1 and the crossing never happens).

Both are solved by bisection to a narrow bracket followed by a Newton
polish with analytic derivatives, falling back to plain bisection if a
Newton step leaves the bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .core import HypothesisError, Params, coth_minus_inv, h_func

__all__ = [
    "RootResult",
    "solve_r0",
    "solve_rp",
    "rp_scan_N",
    "rp_scan_p",
    "rp_equation",
    "max_admissible_p",
]

RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class RootResult:
    """A bracketed root with residual and iteration count.

    ``residual`` is |equation(root)| for the normalized equation the
    solver ran on: coth r - 1 - (p-1)/((N-1) r) for r_p, and
    h(r)/(N-1) = -r^2 + ((p-1)/(N-1)) sinh^2 r for r0 (the normalization
    keeps the residual scale O(1) for all N).
    """

    root: float
    residual: float
    bracket: tuple[float, float]
    iterations: int

    def __post_init__(self):
        if not (self.root > 0.0):
            raise ValueError("root must be positive")
        if self.residual > RESIDUAL_TOL:
            raise ValueError(
                f"residual {self.residual:.3e} exceeds {RESIDUAL_TOL:.0e}"
            )
        lo, hi = self.bracket
        if not (lo < self.root < hi):
            raise ValueError("root must lie strictly inside its bracket")


def _bisect_newton(
    f: Callable[[float], float],
    df: Callable[[float], float],
    lo: float,
    hi: float,
) -> tuple[float, int]:
    """Bisection to a bracket of width 1e-6, then Newton polish inside it."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo, 0
    if fhi == 0.0:
        return hi, 0
    if flo * fhi > 0.0:
        raise HypothesisError(f"no sign change on [{lo}, {hi}]")
    it = 0
    while hi - lo > 1e-6:
        it += 1
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid, it
        if flo * fm < 0.0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    x = 0.5 * (lo + hi)
    for _ in range(60):
        it += 1
        fx = f(x)
        if fx == 0.0:
            return x, it
        d = df(x)
        if d == 0.0:
            break
        step = fx / d
        x_new = x - step
        if not (lo < x_new < hi):
            # Newton escaped the bracket: fall back to a bisection step.
            if flo * fx < 0.0:
                hi, fhi = x, fx
            else:
                lo, flo = x, fx
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) < 1e-16 * max(1.0, abs(x)):
            return x_new, it
        x = x_new
    return x, it


def rp_equation(params: Params, r: float) -> float:
    """coth r - 1 - (p-1)/((N-1) r), assembled without 1/r cancellation."""
    c = (params.p - 1.0) / (params.N - 1.0)
    return coth_minus_inv(r) - 1.0 + (1.0 - c) / r


def _h_normalized(params: Params, r: float) -> float:
    return -r * r + (params.p - 1.0) / (params.N - 1.0) * math.sinh(r) ** 2


def solve_r0(params: Params) -> RootResult:
    """Unique sign change of h on (0, inf); needs p > 2 and N > p.

    h is negative on (0, r0) and positive after (h''(0) = -2(N-p) < 0 and
    the sinh^2 term eventually dominates).  The upper bracket doubles
    until h turns positive.
    """
    if not (params.p > 2.0):
        raise HypothesisError(f"solve_r0 needs p > 2, got p={params.p}")
    if not (params.N > params.p):
        raise HypothesisError(
            f"solve_r0 needs N > p (got N={params.N}, p={params.p}): "
            "h has no sign change otherwise"
        )
    f = lambda r: _h_normalized(params, r)
    df = lambda r: -2.0 * r + (params.p - 1.0) / (params.N - 1.0) * math.sinh(2.0 * r)
    hi = 1.0
    while f(hi) <= 0.0:
        hi *= 2.0
        if hi > 1e6:  # sinh^2 dominates long before this
            raise HypothesisError("h never turned positive; bad parameters")
    lo = 1e-8
    root, it = _bisect_newton(f, df, lo, hi)
    return RootResult(root, abs(f(root)), (lo, hi), it)


def solve_rp(params: Params) -> RootResult | None:
    """Critical radius where H_p crosses 1; None encodes +infinity at p = 2.

    Requires p >= 2 and N >= 1 + p(p-1).  For p > 2 the root is unique and
    lies strictly below r0.
    """
    if not params.hardy_hypothesis:
        raise HypothesisError(
            f"solve_rp needs p >= 2 and N >= 1 + p(p-1); got N={params.N}, "
            f"p={params.p}"
        )
    if params.p == 2.0:
        return None  # the ball is the whole space
    r0 = solve_r0(params).root
    f = lambda r: rp_equation(params, r)
    c = (params.p - 1.0) / (params.N - 1.0)
    df = lambda r: -1.0 / math.sinh(r) ** 2 + c / (r * r)
    lo = 1e-8
    root, it = _bisect_newton(f, df, lo, r0)
    return RootResult(root, abs(f(root)), (lo, r0), it)


def max_admissible_p(N: int) -> float:
    """Largest p with N >= 1 + p(p-1), i.e. (1 + sqrt(4N-3)) / 2."""
    return 0.5 * (1.0 + math.sqrt(4.0 * N - 3.0))


def _implicit_dN(params: Params, rp: float) -> float:
    h = h_func(params, rp)
    return -(params.p - 1.0) * rp * math.sinh(rp) ** 2 / ((params.N - 1) * h)


def _implicit_dp(params: Params, rp: float) -> float:
    # Differentiating coth r - 1 - (p-1)/((N-1) r) = 0 in p gives
    # dr/dp = r sinh^2 r / h(r) (negative, since h(r_p) < 0); note the
    # often-quoted variant with an extra 1/(N-1) fails the finite
    # difference check by exactly that factor.
    return rp * math.sinh(rp) ** 2 / h_func(params, rp)


def rp_scan_N(p: float, n_lo: int, n_hi: int) -> list[dict]:
    """Table of (N, r_p) for fixed p > 2 over N in [n_lo, n_hi].

    Every N must satisfy N >= 1 + p(p-1).  Rows carry the implicit
    N-derivative -(p-1) r sinh^2 r / ((N-1) h(r)), which is positive since
    h(r_p) < 0; the scan asserts the strict increase.
    """
    if not (p > 2.0):
        raise HypothesisError("rp_scan_N needs p > 2")
    if n_lo < 1 + p * (p - 1.0):
        raise HypothesisError(
            f"N range must start at >= 1 + p(p-1) = {1 + p * (p - 1.0):g}"
        )
    if n_hi < n_lo:
        raise ValueError(f"N range is empty: the last N, {n_hi}, is below the first, {n_lo}")
    rows = []
    prev = None
    for N in range(n_lo, n_hi + 1):
        pr = Params(N, p)
        rp = solve_rp(pr).root
        rows.append({"N": N, "r_p": rp, "d_rp_dN": _implicit_dN(pr, rp)})
        if prev is not None and not (rp > prev):
            raise AssertionError(f"r_p failed to increase at N={N}")
        prev = rp
    return rows


def rp_scan_p(N: int, p_values: list[float]) -> list[dict]:
    """Table of (p, r_p) for fixed N over decreasing-admissible p > 2.

    Refuses any p outside (2, (1 + sqrt(4N-3))/2]: the monotonicity
    statement is proved only there and the scan does not extrapolate.
    """
    if N <= 3:
        raise HypothesisError("rp_scan_p needs N > 3")
    p_max = max_admissible_p(N)
    rows = []
    prev_p, prev_rp = None, None
    for p in p_values:
        if not (2.0 < p <= p_max):
            raise HypothesisError(
                f"p={p} outside the admissible interval (2, {p_max:g}]"
            )
        pr = Params(N, float(p))
        rp = solve_rp(pr).root
        rows.append({"p": float(p), "r_p": rp, "d_rp_dp": _implicit_dp(pr, rp)})
        if prev_p is not None and p > prev_p and not (rp < prev_rp):
            raise AssertionError(f"r_p failed to decrease at p={p}")
        prev_p, prev_rp = p, rp
    return rows
