"""Checks of the program's outputs against computations made apart from it.

Nothing here imports ``hyplab``.  Integrals over a test function's support
are recomputed with a composite Gauss-Legendre rule at two resolutions
(the difference is the oracle's error); the tail integrals of the weight W
with scipy's ``quad`` (QUADPACK) and mpmath.  The inequality sides are
assembled from their definitions; the seeded test functions are rebuilt
from the same numpy draws the batteries make, and each rebuilt label must
match the report's label before it is used.

``check_round`` returns, per operation, a list of problems; a problem is
``(text, known)`` where ``known`` marks the one fault the benchmark keeps
on purpose: W underflowing to 0 near r = 100 for (N, p) = (4, 1.5).
"""

from __future__ import annotations

import csv
import functools
import io
import math

import mpmath as mp
import numpy as np
from scipy import integrate, optimize

ROUND = 1e-13  # relative allowance for rounding in the program and the oracle
WEIGHTS_SAMPLE = 6  # radii per weights table recomputed with mpmath


def parse_csv(text: str) -> list[dict]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty report")
    header = rows[0]
    out = []
    for r in rows[1:]:
        row = {}
        for c, v in zip(header, r):
            if v in ("true", "false"):
                row[c] = v == "true"
            elif v == "":
                row[c] = None
            else:
                try:
                    row[c] = float(v)
                except ValueError:
                    row[c] = v
        out.append(row)
    return out


_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)


def gauss_legendre(f, lo, hi, mid=None, panels=16):
    """int_lo^hi f at ``panels`` and 2 ``panels`` equal panels; (value, |difference|).

    ``f`` takes an array.  Panels are graded geometrically toward ``mid``,
    where |u'|^p with non-integer p has a kink.
    """
    def rule(k):
        edges = set(np.linspace(lo, hi, k + 1))
        if mid is not None and lo < mid < hi:
            edges.add(mid)
            for j in range(1, 7):
                edges |= {e for e in (mid - (hi - lo) / k * 4.0**-j,
                                      mid + (hi - lo) / k * 4.0**-j) if lo < e < hi}
        e = np.array(sorted(edges))
        a, b = e[:-1], e[1:]
        x = 0.5 * (a + b) + 0.5 * (b - a) * _GL_X[:, None]
        return float(np.sum(_GL_W[:, None] * f(x) * 0.5 * (b - a)))

    coarse, fine = rule(panels), rule(2 * panels)
    return fine, abs(fine - coarse)


def _close(a, b, tol):
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# Test functions rebuilt from the batteries' seeded draws.
# ---------------------------------------------------------------------------


class Mollifier:
    """exp(-1/(1-t^2)) in t = (r - mid)/half on [lo, hi], with derivative."""

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi
        self.mid, self.half = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def _t(self, r):
        t = (np.asarray(r, dtype=float) - self.mid) / self.half
        inside = np.abs(t) < 1.0
        return np.where(inside, t, 0.0), inside

    def value(self, r):
        t, inside = self._t(r)
        return np.where(inside, np.exp(-1.0 / (1.0 - t * t)), 0.0)

    def derivative(self, r):
        t, inside = self._t(r)
        om = 1.0 - t * t
        return np.where(inside, np.exp(-1.0 / om) * (-2.0 * t / om**2) / self.half, 0.0)


def rp_root(N, p):
    """r_p: coth r - 1 = (p-1)/((N-1) r), i.e. 2r/expm1(2r) = (p-1)/(N-1)."""
    c = (p - 1.0) / (N - 1.0)
    return optimize.brentq(lambda r: 2.0 * r / math.expm1(2.0 * r) - c,
                           1e-9, 200.0, xtol=1e-15, rtol=1e-15, maxiter=500)


def r0_root(N, p):
    """r0: (p-1) sinh^2 r = (N-1) r^2, i.e. sinh r / r = sqrt((N-1)/(p-1))."""
    target = math.sqrt((N - 1.0) / (p - 1.0))
    return optimize.brentq(lambda r: math.sinh(r) / r - target,
                           1e-9, 50.0, xtol=1e-15, rtol=1e-15, maxiter=500)


def bump_support(kind, N, p, seed, index, allow_origin):
    rng = np.random.default_rng([seed, index])
    if kind == "ball" and p > 2.0:
        rp = rp_root(N, p)
        r_lo = rng.uniform(0.03, 0.4) * rp
        r_hi = min(r_lo + rng.uniform(0.1, 0.55) * rp, 0.98 * rp)
        return r_lo, r_hi
    r_min, r_max = 0.1, 20.0
    r_lo = math.exp(rng.uniform(math.log(r_min), math.log(r_max / 2.0)))
    width = math.exp(rng.uniform(math.log(0.2), math.log(min(10.0, r_max - r_lo))))
    r_hi = min(r_lo + width, r_max)
    if allow_origin and rng.uniform() < 0.2:
        r_lo = 0.0
    return r_lo, r_hi


def product_box(N, seed, index):
    rng = np.random.default_rng([seed, index])
    x_lo = rng.uniform(-3.0, 0.5)
    x_hi = x_lo + rng.uniform(0.8, 3.0)
    y_lo = rng.uniform(0.25, 1.2)
    y_hi = y_lo + rng.uniform(0.6, 2.5)
    rho_hi = rng.uniform(0.8, 2.5) if N >= 3 else 1.0
    label = (f"product[{x_lo:.3g},{x_hi:.3g}]x[0,{rho_hi:.3g}]"
             f"x[{y_lo:.3g},{y_hi:.3g}]")
    return (x_lo, x_hi), rho_hi, (y_lo, y_hi), label


# ---------------------------------------------------------------------------
# The weight W, apart from the program.
# ---------------------------------------------------------------------------


def w_float(N, p, r):
    """W(r) in double precision with the decay e^{-alpha r} factored out.

    zeta = num/den = 2 e^{-2r} I(alpha+1, alpha+2) / I(alpha, alpha) with
    I(b, g) = int_0^inf e^{-g t} (1 - e^{-2(r+t)})^{-b} dt, and
    W = Lambda_p expm1(p log1p(zeta)).  Returns (W, relative error).
    """
    alpha = (N - 1.0) / (p - 1.0)

    def tail(beta, gamma):
        return integrate.quad(
            lambda t: math.exp(-gamma * t - beta * math.log(-math.expm1(-2.0 * (r + t)))),
            0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)

    i_num, e_num = tail(alpha + 1.0, alpha + 2.0)
    i_den, e_den = tail(alpha, alpha)
    zeta = 2.0 * math.exp(-2.0 * r) * i_num / i_den
    lam = ((N - 1.0) / p) ** p
    rel = e_num / i_num + e_den / i_den + 4e-16
    return lam * math.expm1(p * math.log1p(zeta)), rel * p + ROUND


@functools.lru_cache(maxsize=None)  # the tables repeat every round
def w_mpmath(N, p, r):
    """W(r) at 30 digits, from the same factored tail integrals as ``w_float``."""
    with mp.workdps(30):
        alpha = mp.mpf(N - 1) / (mp.mpf(p) - 1)
        r = mp.mpf(r)

        def tail(beta, gamma):
            return mp.quad(lambda t: mp.exp(-gamma * t) * (-mp.expm1(-2 * (r + t))) ** (-beta),
                           [0, 1, 4, 16, 64, mp.inf])

        zeta = 2 * mp.exp(-2 * r) * tail(alpha + 1, alpha + 2) / tail(alpha, alpha)
        lam = (mp.mpf(N - 1) / p) ** p
        return float(lam * mp.expm1(p * mp.log1p(zeta)))


# ---------------------------------------------------------------------------
# Radial inequality sides, assembled from their definitions.
# ---------------------------------------------------------------------------


def _hardy_c(N, p):
    return (p - 1.0) * ((N - 1) / p) ** (p - 2.0) * ((p - 1.0) / p) ** 2


def _ball_c(N, p):
    c_r = (p - 1.0) ** (p - 1.0) * (N * (p - 2.0) + 1.0) / p**p
    c_s = (N - 1) * (N - 1 - p * (p - 1.0)) * (p - 1.0) ** (p - 2.0) / p**p
    return c_r, c_s


def radial_sides(kind, N, p, lo, hi, l=None):
    """(lhs, rhs, lhs_err, rhs_err) of one radial instance on a mollifier."""
    u = Mollifier(lo, hi)
    lam = ((N - 1) / p) ** p
    m = N - 1

    def integral(f):
        return gauss_legendre(f, lo, hi, mid=u.mid)

    def mass(w):
        return integral(lambda r: np.abs(u.value(r)) ** p * w(r) * np.sinh(r) ** m)

    if kind == "hardy1d":
        l = p if l is None else l
        sharp = ((p - 1.0) / p) ** l
        e, ee = integral(lambda r: (np.abs(u.value(r)) / np.tanh(r)) ** (p - l)
                         * np.abs(u.derivative(r)) ** l)
        ms, me = integral(lambda r: np.abs(u.value(r)) ** p * r ** (-p))
        return e, sharp * ms, ee + ROUND * e, sharp * (me + ROUND * ms)
    E, Ee = integral(lambda r: np.abs(u.derivative(r)) ** p * np.sinh(r) ** m)
    M, Me = mass(lambda r: 1.0)
    gap, gap_e = E - lam * M, Ee + lam * Me + ROUND * (E + lam * M)
    if kind == "pgap":
        return E, lam * M, Ee + ROUND * E, lam * (Me + ROUND * M)
    if kind == "green-weight":
        w_rel = [0.0]

        def w_nodes(r):
            vals = np.empty(r.shape)
            for idx, x in np.ndenumerate(r):
                vals[idx], rel = w_float(N, p, float(x))
                w_rel[0] = max(w_rel[0], rel)
            return vals

        W, We = gauss_legendre(lambda r: np.abs(u.value(r)) ** p * w_nodes(r) * np.sinh(r) ** m,
                               lo, hi, panels=8)
        return gap, W, gap_e, We + w_rel[0] * W
    if kind == "hardy":
        c = _hardy_c(N, p)
        H, He = mass(lambda r: r ** (-p))
        return gap, c * H, gap_e, c * (He + ROUND * H)
    if kind == "uncertainty":
        c = _hardy_c(N, p)
        expo = p - 1.0  # p / p'
        R, Re = mass(lambda r: r ** (p / (p - 1.0)))
        lhs = gap * R**expo
        lhs_e = gap_e * R**expo + abs(gap) * expo * R ** (expo - 1.0) * Re
        rhs = c * M**p
        return lhs, rhs, lhs_e + ROUND * abs(lhs), c * p * M ** (p - 1.0) * Me + ROUND * rhs
    c_r, c_s = _ball_c(N, p)
    Rm, Rme = mass(lambda r: r ** (-p))
    Sm, Sme = mass(lambda r: np.sinh(r) ** (-p))
    rhs = c_r * Rm + c_s * Sm
    rhs_e = abs(c_r) * Rme + abs(c_s) * Sme + ROUND * (abs(c_r * Rm) + abs(c_s * Sm))
    if kind == "ball":
        return gap, rhs, gap_e, rhs_e
    if kind == "hp-weighted":
        cc = (p - 1.0) / (N - 1.0)
        Hm, Hme = mass(lambda r: (1.0 / np.tanh(r) - cc / r) ** (p - 2.0))
        return (E - lam * Hm, rhs, Ee + lam * Hme + ROUND * (E + lam * Hm), rhs_e)
    raise ValueError(f"no oracle for kind {kind!r}")


# ---------------------------------------------------------------------------
# Per-command checks.
# ---------------------------------------------------------------------------


def _report_rows(op, rc, rows, problems):
    if rc != 0:
        problems.append(f"exit code {rc}")
    if len(rows) != op["trials"]:
        problems.append(f"{len(rows)} rows for {op['trials']} trials")
    l_expect = op["l"] if op["l"] is not None else (op["p"] if op["kind"] == "hardy1d" else None)
    for i, row in enumerate(rows):
        if (row["kind"], row["N"], row["p"], row["l"]) != (op["kind"], op["N"], op["p"], l_expect):
            problems.append(f"row {i}: echoes {row['kind']} N={row['N']} p={row['p']} l={row['l']}")
        if row["slack"] != row["lhs"] - row["rhs"]:
            problems.append(f"row {i}: slack != lhs - rhs")
        if row["passed"] != (row["slack"] >= -row["quad_error"]) or not row["passed"]:
            problems.append(f"row {i}: an instance of a theorem did not pass: {row}")


def _against(row, lhs, rhs, lhs_e, rhs_e, what, problems):
    qe = row["quad_error"]
    for side, ref, err in (("lhs", lhs, lhs_e), ("rhs", rhs, rhs_e)):
        if not _close(row[side], ref, qe + err):
            problems.append(
                f"{what}: {side} {row[side]!r} vs oracle {ref!r} "
                f"(|diff| {abs(row[side] - ref):.3e} > quad_error {qe:.3e} + {err:.3e})")


def check_radial_verify(op, rc, rows):
    """Structural checks on every row; one row per command recomputed."""
    problems = []
    _report_rows(op, rc, rows, problems)
    if len(rows) != op["trials"]:
        return problems
    i = op["seed"] % op["trials"]
    lo, hi = bump_support(op["kind"], op["N"], op["p"], op["seed"], i, op["allow_origin"])
    label = f"mollifier[{lo:g},{hi:g}]"
    if rows[i]["test_function"] != label:
        return problems + [f"row {i}: test function {rows[i]['test_function']} "
                           f"is not the rebuilt draw {label}"]
    lhs, rhs, le, re_ = radial_sides(op["kind"], op["N"], op["p"], lo, hi, op["l"])
    _against(rows[i], lhs, rhs, le, re_, f"row {i}", problems)
    return problems


def _product_lhs(N, box_x, rho_hi, box_y):
    """Energy - Lambda mass at p = 2 as products of 1-D mollifier integrals.

    u = phi(x1) psi(rho) chi(y); at p = 2 the Maz'ya form integrates
    |grad u|^2 y^(2-N) and u^2 y^(-N), with rho over (-rho_hi, rho_hi) when
    N = 3 and psi = 1 when N = 2.  Returns (lhs, oracle error).
    """
    phi, chi = Mollifier(0.0, box_x[1] - box_x[0]), Mollifier(*box_y)

    def sq(f, lo, hi, k=0):
        return gauss_legendre(lambda x: f(x) ** 2 * x ** (-k), lo, hi)

    a0, a1 = sq(phi.value, phi.lo, phi.hi), sq(phi.derivative, phi.lo, phi.hi)
    if N == 2:
        r0, r1 = (1.0, 0.0), (0.0, 0.0)
    else:
        psi = Mollifier(-rho_hi, rho_hi)
        r0 = tuple(2.0 * v for v in sq(psi.value, 0.0, rho_hi))
        r1 = tuple(2.0 * v for v in sq(psi.derivative, 0.0, rho_hi))
    c0, c1 = sq(chi.value, *box_y, N - 2), sq(chi.derivative, *box_y, N - 2)
    cm = sq(chi.value, *box_y, N)
    lam = ((N - 1) / 2.0) ** 2
    energy = a1[0] * r0[0] * c0[0] + a0[0] * r1[0] * c0[0] + a0[0] * r0[0] * c1[0]
    mass = a0[0] * r0[0] * cm[0]
    rel = sum(e / v for v, e in (a0, a1, r0, c0, c1, cm) if v) + (r1[1] / r1[0] if r1[0] else 0.0)
    return energy - lam * mass, (rel + ROUND) * (energy + lam * mass)


def check_halfspace_verify(op, rc, rows):
    problems = []
    _report_rows(op, rc, rows, problems)
    for i, row in enumerate(rows):
        box_x, rho_hi, box_y, label = product_box(op["N"], op["seed"], i)
        if row["test_function"] != label:
            problems.append(f"row {i}: test function {row['test_function']} "
                            f"is not the rebuilt draw {label}")
            continue
        if op["p"] == 2.0:
            lhs, err = _product_lhs(op["N"], box_x, rho_hi, box_y)
            if not _close(row["lhs"], lhs, row["quad_error"] + err):
                problems.append(f"row {i}: lhs {row['lhs']!r} vs product oracle {lhs!r} "
                                f"beyond quad_error {row['quad_error']:.3e}")
    return problems


def check_halfspace_pair(hyp_rows, maz_rows):
    """The hyperbolic and Maz'ya forms of one test function must agree."""
    problems = []
    for i, (h, m) in enumerate(zip(hyp_rows, maz_rows)):
        qe = h["quad_error"] + m["quad_error"]
        for side in ("lhs", "rhs"):
            if not _close(h[side], m[side], qe + ROUND * abs(h[side])):
                problems.append(f"row {i}: {side} of the two forms differ by "
                                f"{abs(h[side] - m[side]):.3e} > {qe:.3e}")
    return problems


def check_weights(op, rc, rows):
    N, p = op["N"], op["p"]
    problems = []
    if rc != 0:
        problems.append((f"exit code {rc}", False))
    n = len(rows)
    sample = {round(k * (n - 1) / (WEIGHTS_SAMPLE - 1)) for k in range(WEIGHTS_SAMPLE)}
    cc = (p - 1.0) / (N - 1.0)
    for i, row in enumerate(rows):
        r, W, We = row["r"], row["W"], row["W_err"]
        underflow = W == 0.0 and r > 90.0
        if not W > 0.0:
            problems.append((f"r={r!r}: W = {W!r}, not > 0", underflow))
        if i in sample:
            ref = w_mpmath(N, p, r)
            if not _close(W, ref, We + ROUND * ref):
                problems.append((f"r={r!r}: W {W!r} vs mpmath {ref!r} beyond W_err "
                                 f"{We!r}", underflow))
        h = -(N - 1) * r * r + (p - 1.0) * math.sinh(r) ** 2
        if not _close(row["h"], h, ROUND * ((N - 1) * r * r + (p - 1.0) * math.sinh(r) ** 2)):
            problems.append((f"r={r!r}: h {row['h']!r} vs {h!r}", False))
        if not _close(row["V_geodesic"], 1.0 / math.cosh(r), ROUND / math.cosh(r)):
            problems.append((f"r={r!r}: V {row['V_geodesic']!r} vs sech r", False))
        if p >= 2.0:
            hp = (1.0 / math.tanh(r) - cc / r) ** (p - 2.0)
            if not _close(row["Hp"], hp, 1e-12 * hp):
                problems.append((f"r={r!r}: Hp {row['Hp']!r} vs {hp!r}", False))
    return problems


def _hardy1d_upper(p, l, eps, delta):
    c, _ = integrate.quad(lambda r: ((2.0 - r) / math.tanh(r)) ** (p - l), 1.0, 2.0,
                          epsabs=0.0, epsrel=1e-13)
    return ((p - 1.0 + delta) / p) ** l * math.cosh(eps) ** (p - l) + c * delta * eps ** (p - 1.0)


def check_sharpness(op, rc, rows):
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    N, p = op["N"], op["p"]
    if op["kind"] == "pgap":
        lam = ((N - 1) / p) ** p
        if [row["eps"] for row in rows] != list(op["schedule"]):
            problems.append("schedule not echoed")
            return problems
        for row in rows:
            eps, q, qe = row["eps"], row["quotient"], row["quad_error"]
            upper = ((N - 1 + eps) / p) ** p
            if not (_close(row["lower"], lam, ROUND * lam) and _close(row["upper"], upper, ROUND * upper)):
                problems.append(f"eps={eps}: bracket columns are not [Lambda_p, ((N-1+eps)/p)^p]")
            if not (lam - qe <= q <= upper + qe):
                problems.append(f"eps={eps}: quotient {q!r} outside [{lam}, {upper}]")
        qs = [row["quotient"] for row in rows]
        if not all(a > b for a, b in zip(qs, qs[1:])):
            problems.append(f"quotients do not decrease: {qs}")
        if abs(qs[-1] - lam) > 0.01 * lam:
            problems.append(f"quotient {qs[-1]!r} not within 1% of Lambda_p = {lam}")
        return problems
    l = op["l"]
    sharp = ((p - 1.0) / p) ** l
    upper = _hardy1d_upper(p, l, op["eps"], op["delta"])
    if len(rows) != 1:
        return problems + [f"{len(rows)} rows for one (eps, delta)"]
    row = rows[0]
    q, qe = row["quotient"], row["quad_error"]
    if not _close(row["lower"], sharp, ROUND * sharp):
        problems.append(f"lower {row['lower']!r} is not ((p-1)/p)^l = {sharp!r}")
    if not _close(row["upper"], upper, 1e-10 * upper):
        problems.append(f"upper {row['upper']!r} vs oracle {upper!r}")
    if not (sharp - qe <= q <= upper + qe):
        problems.append(f"quotient {q!r} outside [{sharp}, {upper}]")
    if abs(q - sharp) > 0.02 * sharp:
        problems.append(f"quotient {q!r} not within 2% of ((p-1)/p)^l = {sharp}")
    return problems


def _cnp_optimum(N, p):
    """(N-1)/p times the maximum of mu1 (p <= 2) or mu2 (p > 2) on [0, 1]."""
    def argmax(f):
        res = optimize.minimize_scalar(lambda x: -f(x), bounds=(0.0, 1.0),
                                       method="bounded", options={"xatol": 1e-12})
        return max(f(res.x), f(0.0), f(1.0))

    if p > 2.0:
        best = argmax(lambda a: a / (1.0 + 2.0 * (N - 1) * a * (1.0 + (N - 1) * a / p)))
    else:
        b = 0.5 * p / (p - 1.0)
        q = 1.0 if 1.0 <= b <= 2.0 else 0.5 * b
        d = q * (2.0 - p) / p * (N - 1) / 2.0
        M = argmax(lambda c: c * (1.0 - 0.5 * c * (N - 1)) - c * c * (2.0 - c) ** 2 * d)
        best = argmax(lambda a: a / (1.0 + (a / M) * (1.0 + (N - 1) * a / (2.0 * (p - 1.0)))))
    return (N - 1) / p * best


def check_scalar(op, rc, rows):
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    cmd, N, p = op["cmd"], op["N"], op["p"]
    c = (p - 1.0) / (N - 1.0)
    if cmd == "constants":
        byname = {row["name"]: row for row in rows}
        lam = ((N - 1) / p) ** p
        if not _close(byname["lambda_p"]["value"], lam, ROUND * lam):
            problems.append("lambda_p is not ((N-1)/p)^p")
        opt = _cnp_optimum(N, p)
        cnp = byname["C_np"]["value"]
        if p > 2.0 and not _close(cnp, opt, 1e-9):
            problems.append(f"C_np {cnp!r} vs optimum {opt!r}")
        if p <= 2.0 and not cnp <= opt + 1e-9:
            problems.append(f"lower bound C_np {cnp!r} above the optimum {opt!r}")
        if not _close(byname["brute_force_cnp"]["value"], opt, 1e-8):
            problems.append(f"brute force {byname['brute_force_cnp']['value']!r} vs optimum {opt!r}")
    elif cmd == "rp":
        roots = {"r_p": rp_root(N, p)}
        if p > 2.0:
            roots["r0"] = r0_root(N, p)
        if sorted(row["name"] for row in rows) != sorted(roots):
            problems.append(f"rows {[row['name'] for row in rows]}")
        for row in rows:
            ref = roots.get(row["name"])
            if ref is not None and not _close(row["root"], ref, 1e-12 * ref):
                problems.append(f"{row['name']} {row['root']!r} vs {ref!r}")
    elif cmd == "rp-scan":
        axis = op["argv"][op["argv"].index("--scan-axis") + 1]
        if axis == "N":
            ns = list(range(N, 41))
            roots = [rp_root(n, p) for n in ns]
            if [row["value"] for row in rows] != [float(n) for n in ns]:
                return problems + ["N axis not echoed"]
            for i, (row, ref) in enumerate(zip(rows, roots)):
                if not _close(row["r_p"], ref, 1e-12 * ref):
                    problems.append(f"N={ns[i]}: r_p {row['r_p']!r} vs {ref!r}")
                if 0 < i < len(rows) - 1:
                    fd = (roots[i + 1] - roots[i - 1]) / 2.0
                    if not _close(row["slope_formula"], fd, 0.05 * abs(fd)):
                        problems.append(f"N={ns[i]}: slope {row['slope_formula']!r} vs FD {fd!r}")
        else:
            for row in rows:
                pp = row["value"]
                ref = rp_root(N, pp)
                if not _close(row["r_p"], ref, 1e-12 * ref):
                    problems.append(f"p={pp}: r_p {row['r_p']!r} vs {ref!r}")
                h = 0.01
                hi = pp + h if pp + h <= 0.5 * (1.0 + math.sqrt(4.0 * N - 3.0)) else pp
                fd = (rp_root(N, hi) - rp_root(N, pp - h)) / (hi - pp + h)
                if not _close(row["slope_formula"], fd, 0.05 * abs(fd)):
                    problems.append(f"p={pp}: slope {row['slope_formula']!r} vs FD {fd!r}")
        vals = [row["r_p"] for row in rows]
        step = (lambda a, b: b > a) if axis == "N" else (lambda a, b: b < a)
        if not all(step(a, b) for a, b in zip(vals, vals[1:])):
            problems.append("r_p is not monotone along the scan")
    elif cmd == "figure1":
        rp = rp_root(N, p)
        if not any(abs(row["r"] - rp) < 1e-12 for row in rows):
            problems.append("no marker row at r_p")
        if len(rows) != 1501:
            problems.append(f"{len(rows)} rows, expected 1500 plus the marker")
        for row in rows:
            r = row["r"]
            hp = (1.0 / math.tanh(r) - c / r) ** (p - 2.0)
            if not _close(row["Hp"], hp, 1e-12 * hp):
                problems.append(f"r={r!r}: Hp {row['Hp']!r} vs {hp!r}")
            if row["is_ge_one"] != (row["Hp"] >= 1.0):
                problems.append(f"r={r!r}: is_ge_one inconsistent")
            if abs(r - rp) > 1e-9 and row["is_ge_one"] != (r < rp):
                problems.append(f"r={r!r}: is_ge_one on the wrong side of r_p")
    elif cmd == "proofcheck":
        for row in rows:
            if not row["passed"]:
                problems.append(f"{row['check']} did not pass")
        prof = next(row for row in rows if row["check"] == "positivity_profile")
        ref = _ftilde_min(N, p)
        if not _close(prof["value"], ref, 1e-9 * max(1.0, abs(ref))):
            problems.append(f"positivity profile {prof['value']!r} vs {ref!r}")
    return problems


def _ftilde_min(N, p):
    """min over geomspace(1e-4, 20, 400) of (N-1)(cosh^p - sinh^p) - p(p-1)cosh^(p-2)."""
    with mp.workdps(40):
        vals = [
            (N - 1) * (mp.cosh(r) ** p - mp.sinh(r) ** p) - p * (p - 1) * mp.cosh(r) ** (p - 2)
            for r in map(mp.mpf, np.geomspace(1e-4, 20.0, 400))
        ]
        return float(min(vals))


# ---------------------------------------------------------------------------
# One round.
# ---------------------------------------------------------------------------


def check_round(ops, results):
    """Problems per operation: a list of (text, known) for each op."""
    out = []
    parsed = []
    for op, res in zip(ops, results):
        try:
            rows = parse_csv(res["out"]) if res["out"] else []
        except ValueError as exc:
            out.append([(f"unreadable report: {exc}; stderr: {res['err'][-300:]}", False)])
            parsed.append(None)
            continue
        parsed.append(rows)
        if res["rc"] != 0 and not rows:
            out.append([(f"exit code {res['rc']}: {res['err'][-300:]}", False)])
            continue
        try:
            if op["cmd"] == "weights":
                probs = check_weights(op, res["rc"], rows)
            else:
                if op["cmd"] == "verify" and op["kind"] in ("bounded-v", "mazya"):
                    p = check_halfspace_verify(op, res["rc"], rows)
                elif op["cmd"] == "verify":
                    p = check_radial_verify(op, res["rc"], rows)
                elif op["cmd"] == "sharpness":
                    p = check_sharpness(op, res["rc"], rows)
                else:
                    p = check_scalar(op, res["rc"], rows)
                probs = [(text, False) for text in p]
        except Exception as exc:  # a report the checks cannot read fails its op
            probs = [(f"check raised {exc!r}", False)]
        out.append(probs)
    for i, op in enumerate(ops):
        if op.get("kind") == "mazya" and i > 0 and ops[i - 1].get("kind") == "bounded-v":
            if parsed[i] and parsed[i - 1]:
                out[i] += [(t, False) for t in check_halfspace_pair(parsed[i - 1], parsed[i])]
    return out
