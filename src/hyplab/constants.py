"""Closed-form constants of the half-space remainder inequality and the
brute-force oracles for the underlying one-dimensional maximizations.

The remainder constant C(N, p) comes from maximizing one of two rational
functions of a vector-field parameter a in [0, 1]:

    mu1(a) = a / (1 + (a/M)(1 + (N-1) a / (2(p-1))))       (1 < p <= 2)
    mu2(a) = a / (1 + 2(N-1) a (1 + (N-1) a / p))          (p > 2)

with C(N, p) = (N-1)/p times the maximum.  For p <= 2, M is itself the
maximum over c in [0, 1] of

    f(c) = c (1 - c(N-1)/2) - c^2 (2-c)^2 q_{p'/2} (2-p)(N-1) / (2p).

``c_np`` returns the tabulated case values (exact for p > 2, explicit
lower bounds for p <= 2); ``brute_force_cnp`` maximizes the mu functions
directly and is the oracle the tabulated values are checked against.

The N = 2 refinements: the tabulated closed forms returned by ``c_2p``
are the published simplifications.  Direct maximization shows they
overstate the optimum of mu1: they correspond to replacing the exact
maximum value M / (1 + sqrt(2(N-1)M/(p-1))) by
M / (1 + sqrt(M/(2(p-1)))).  ``c_2p_direct`` evaluates the exact closed
form of the mu1 maximum for the same branch-wise M; the discrepancy is
covered by regression tests rather than silently papered over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Params

__all__ = [
    "CNPResult",
    "q_b",
    "check_ni",
    "c_np",
    "c_2p",
    "c_2p_direct",
    "brute_force_cnp",
    "golden_max",
    "mu1",
    "mu2",
    "f_small_p",
    "delta_small_p",
]

_GR = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi


def q_b(b: float) -> float:
    """Piecewise constant of the quadratic lower bound for 1-(1-s)^b.

    Equals 1 on [1, 2] and b/2 on (0, 1) and (2, inf).
    """
    if b <= 0.0:
        raise ValueError(f"need b > 0, got {b}")
    return 1.0 if 1.0 <= b <= 2.0 else 0.5 * b


def check_ni(b: float, s: float) -> float:
    """Slack of 1 - (1-s)^b >= b s - q_b (b-1) s^2 on s in [0, 1]."""
    if not (0.0 <= s <= 1.0):
        raise ValueError(f"need s in [0, 1], got {s}")
    lhs = -math.expm1(b * math.log1p(-s)) if s < 1.0 else 1.0
    rhs = b * s - q_b(b) * (b - 1.0) * s * s
    return lhs - rhs


def delta_small_p(p: float) -> float:
    """delta = q_{p'/2} (2-p)/p, the coupling in the p <= 2 route."""
    pp = p / (p - 1.0)
    return q_b(0.5 * pp) * (2.0 - p) / p


def f_small_p(c: float, N: int, p: float) -> float:
    """The c-profile whose maximum M feeds mu1 (p <= 2)."""
    d = delta_small_p(p) * (N - 1) / 2.0
    return c * (1.0 - 0.5 * c * (N - 1)) - c * c * (2.0 - c) ** 2 * d


def mu1(a: float, N: int, p: float, M: float) -> float:
    return a / (1.0 + (a / M) * (1.0 + (N - 1) * a / (2.0 * (p - 1.0))))


def mu2(a: float, N: int, p: float) -> float:
    return a / (1.0 + 2.0 * (N - 1) * a * (1.0 + (N - 1) * a / p))


def golden_max(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi] to argument tolerance 1e-12."""
    a, b = lo, hi
    c = b - _GR * (b - a)
    d = a + _GR * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-12:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GR * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GR * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


@dataclass(frozen=True)
class CNPResult:
    """A remainder constant with its provenance.

    kind is "exact" for the two p > 2 cases and the N = 2 refinements,
    "lowerBound" for the explicit p <= 2 bounds.  ``optimizer_arg`` is the
    maximizing a (p > 2) or the recorded branch maximum M (N = 2).
    """

    value: float
    kind: str
    case_label: str
    optimizer_arg: float | None = None

    def __post_init__(self):
        if not (self.value > 0.0):
            raise ValueError("constant must be positive")
        if self.kind not in ("exact", "lowerBound"):
            raise ValueError(f"bad kind {self.kind!r}")


def c_np(params: Params) -> CNPResult:
    """Tabulated C(N, p): exact value for p > 2, explicit bound for p <= 2.

    Boundaries p = 4/3 and p = 2 belong to the left case, as printed.
    """
    N, p = params.N, params.p
    pp = params.p_prime
    if p <= 4.0 / 3.0:
        return CNPResult(1.0 / (4.0 * pp), "lowerBound", "p<=4/3")
    if p <= 2.0:
        val = 1.0 / (2.0 * (8.0 - 3.0 * p) + 2.0 * math.sqrt(pp * (8.0 - 3.0 * p)))
        return CNPResult(val, "lowerBound", "4/3<p<=2")
    if p <= 2.0 * (N - 1) ** 2:
        a0 = math.sqrt(p / 2.0) / (N - 1)
        val = 1.0 / (math.sqrt(2.0) * (math.sqrt(2.0) * p + 2.0 * math.sqrt(p)))
        return CNPResult(val, "exact", "2<p<=2(N-1)^2", optimizer_arg=a0)
    val = 1.0 / (p / (N - 1) + 2.0 * p + 2.0 * (N - 1))
    return CNPResult(val, "exact", "p>2(N-1)^2", optimizer_arg=1.0)


def _m_branch_n2(p: float) -> tuple[float, float]:
    """(M, delta) for the N = 2 refinement branches."""
    d = delta_small_p(p)
    if p >= 4.0 / 3.0:
        return (1.0 - d) / 2.0, d  # f maximized at c = 1
    return 1.0 / (8.0 * d), d  # f maximized at c0 = 1 - sqrt(1 - 1/(2 delta))


def c_2p(p: float) -> CNPResult:
    """Tabulated N = 2 refinement of C(2, p) for 1 < p < 2.

    Returns the published closed forms
        (1/p') sqrt(2) / (sqrt(2) p + sqrt(p))        for 4/3 <= p < 2,
        (1/p') / (2(2-p) + sqrt(2-p))                 for 1 < p < 4/3,
    with the branch maximum M recorded in ``optimizer_arg``.  These forms
    exceed the direct mu1 maximum (see :func:`c_2p_direct`); the
    discrepancy is asserted in the test suite.
    """
    if not (1.0 < p < 2.0):
        raise ValueError(f"N = 2 refinement needs 1 < p < 2, got {p}")
    pp = p / (p - 1.0)
    M, _ = _m_branch_n2(p)
    if p >= 4.0 / 3.0:
        val = (1.0 / pp) * math.sqrt(2.0) / (math.sqrt(2.0) * p + math.sqrt(p))
    else:
        val = (1.0 / pp) / (2.0 * (2.0 - p) + math.sqrt(2.0 - p))
    return CNPResult(val, "exact", "N=2-refined", optimizer_arg=M)


def c_2p_direct(p: float) -> CNPResult:
    """Exact mu1 maximum at N = 2 with the branch-wise M of ``c_2p``.

    C = (1/p) * M / (1 + sqrt(2 M / (p - 1))), the closed form of
    (N-1)/p * max mu1 specialized to N = 2; matches brute_force_cnp to
    solver precision.
    """
    if not (1.0 < p < 2.0):
        raise ValueError(f"N = 2 refinement needs 1 < p < 2, got {p}")
    M, _ = _m_branch_n2(p)
    val = (1.0 / p) * M / (1.0 + math.sqrt(2.0 * M / (p - 1.0)))
    return CNPResult(val, "exact", "N=2-refined", optimizer_arg=M)


def brute_force_cnp(params: Params) -> float:
    """Direct maximization of the mu functions; oracle for the tabulated values.

    For p <= 2: a grid of 2000 steps plus golden-section polish locates
    M = max f(c) on [0, 1], then mu1 is maximized the same way; for p > 2,
    mu2 is maximized directly.  Returns (N-1)/p times the maximum.
    """
    return (params.N - 1) / params.p * _mu_max(params)


def _mu_max(params: Params) -> float:
    """Maximum on [0, 1] of mu1 (M solved first) for p <= 2, of mu2 above."""
    N, p = params.N, params.p
    if p <= 2.0:
        M = _grid_golden_max(lambda c: f_small_p(c, N, p))
        return _grid_golden_max(lambda a: mu1(a, N, p, M))
    return _grid_golden_max(lambda a: mu2(a, N, p))


def _grid_golden_max(f) -> float:
    """Maximum of f on [0, 1]: the best grid point, polished by golden section."""
    n = 2000  # grid steps
    i = max(range(n + 1), key=lambda j: f(j / n))
    lo = max(0.0, (i - 1) / n)
    hi = min(1.0, (i + 1) / n)
    _, val = golden_max(f, lo, hi)
    # the endpoints can carry the maximum when the polish window clips
    return max(val, f(0.0), f(1.0), f(i / n))
