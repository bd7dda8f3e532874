"""Acceptance suite: one test (or a small group) per criterion.

Every criterion runs at its stated tolerance; a PASS/FAIL line per
criterion is printed in the terminal summary (see conftest).

Three sub-checks are implemented faithfully and are expected to FAIL;
each failure is a reproducible numerical finding about the tabulated
source material, not an implementation defect (details in the
docstrings and in the failure messages):

* criterion 5, last clause: the tabulated N = 2 closed forms exceed the
  brute-force optimum of their own defining maximization by ~37%;
* criterion 6, last clause: at r = 1e-3 the N < p weight scaling is
  still 5.3% away from its r -> 0 constant (it converges like
  6 sqrt(r) / G(0), i.e. only below r ~ 4e-5);
* criterion 9, tail clause: 1 - H_p(15) = 2(p-1)/((N-1) * 15) + O(1/15^2)
  = 0.033 for (13, 4); the weight approaches 1 only algebraically, so a
  1e-3 window at r = 15 is unreachable.
"""

import math
import time

import numpy as np
import pytest

from hyplab.cli import main as cli_main
from hyplab.constants import brute_force_cnp, c_2p, c_np, check_ni
from hyplab.core import GreenWeight, Params, weight_hp
from hyplab.integrals import halfspace_integral
from hyplab.report import parse
from hyplab.rp import rp_scan_N, rp_scan_p, solve_r0, solve_rp
from hyplab.verify import (
    InequalityKind,
    batch_verify,
    check_ftilde,
    check_pconvexity,
    random_halfspace_product,
    sharpness_scan,
    supersolution_residual,
)

# ---------------------------------------------------------------------------
# Criterion 1: Poincare sharpness via the half-space family.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("N,p", [(2, 2.0), (3, 2.0), (3, 3.0)])
def test_c1_poincare_sharpness(N, p):
    t0 = time.time()
    params = Params(N, p)
    lam = params.lambda_p
    rows = sharpness_scan(
        InequalityKind.PGAP, params, [1e-1, 1e-2, 1e-3], tol=1e-5
    )
    quotients = [r["quotient"] for r in rows]
    for r in rows:
        upper = ((N - 1 + r["eps"]) / p) ** p
        assert lam - r["quad_error"] <= r["quotient"] <= upper + r["quad_error"]
    assert quotients[0] > quotients[1] > quotients[2], "not decreasing"
    assert abs(quotients[2] - lam) <= 0.01 * lam, "not within 1% at eps=1e-3"
    assert time.time() - t0 <= 60.0


# ---------------------------------------------------------------------------
# Criterion 2: 1D Hardy sharpness via the four-piece profile.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("l_sel", ["2", "p"])
def test_c2_hardy1d_sharpness(p, l_sel):
    t0 = time.time()
    l = 2.0 if l_sel == "2" else p
    params = Params(3, p)
    rows = sharpness_scan(
        InequalityKind.HARDY1D, params, [(1e-3, 1e-3)], tol=1e-9, l=l
    )
    row = rows[0]
    sharp = ((p - 1.0) / p) ** l
    assert row["quotient"] <= row["upper"] + row["quad_error"]
    assert row["quotient"] >= sharp - row["quad_error"]
    assert abs(row["quotient"] - sharp) <= 0.02 * sharp
    assert time.time() - t0 <= 10.0


# ---------------------------------------------------------------------------
# Criterion 3: inequality batteries, 100 seeded trials per kind.
# ---------------------------------------------------------------------------

_BATTERY_GRIDS = {
    InequalityKind.PGAP: [(2, 2.0), (3, 2.0), (13, 4.0), (4, 1.5), (3, 3.0)],
    InequalityKind.GREEN_WEIGHT: [(3, 2.0), (5, 2.0), (13, 4.0), (2, 3.0), (4, 1.5)],
    InequalityKind.HARDY: [(3, 2.0), (13, 4.0), (8, 2.5), (10, 3.0)],
    InequalityKind.UNCERTAINTY: [(3, 2.0), (13, 4.0), (8, 2.5), (10, 3.0)],
    InequalityKind.HP_WEIGHTED: [(3, 2.0), (13, 4.0), (8, 2.5), (10, 3.0)],
    InequalityKind.BALL: [(13, 4.0), (8, 2.5), (3, 2.0)],
}


@pytest.mark.parametrize("kind", list(_BATTERY_GRIDS))
def test_c3_inequality_battery(kind):
    t0 = time.time()
    grid = [Params(N, p) for N, p in _BATTERY_GRIDS[kind]]
    reports = batch_verify(kind, grid, 100, seed=20240611, tol=1e-9)
    failures = [r for r in reports if not r.passed]
    assert len(reports) == 100
    assert not failures, f"{len(failures)} failing reports: {failures[:3]}"
    assert time.time() - t0 <= 300.0


def test_c3_hardy1d_battery():
    t0 = time.time()
    grid_lp = [Params(3, 2.0), Params(13, 4.0), Params(2, 1.5)]
    reports = batch_verify(InequalityKind.HARDY1D, grid_lp, 50, seed=7, tol=1e-9)
    grid_l2 = [Params(3, 2.0), Params(13, 4.0)]
    reports += batch_verify(
        InequalityKind.HARDY1D, grid_l2, 50, seed=8, tol=1e-9, l=2.0
    )
    assert len(reports) == 100
    assert all(r.passed for r in reports)
    assert time.time() - t0 <= 300.0


# ---------------------------------------------------------------------------
# Criterion 4: half-space battery, checked against whole-box cubatures.
# ---------------------------------------------------------------------------


def _c4_box_sides(params, u, tol):
    """(lhs, rhs) of the half-space inequality from whole-box cubatures of
    its hyperbolic integrands, built from u.value and u.gradient_norm alone:
    |grad_H u|^p = (y |grad u|)^p, |u|^p and V |u|^p against dv = y^-N dx."""
    N, p = params.N, params.p

    def box(f):
        return halfspace_integral(params, f, u.support, tol)

    def mass(x1, rho, y):
        return np.abs(u.value(x1, rho, y)) ** p * y ** (-N)

    energy = box(lambda x1, rho, y: (y * u.gradient_norm(x1, rho, y)) ** p * y ** (-N))
    v_mass = box(lambda x1, rho, y: y / np.hypot(x1, y) * mass(x1, rho, y))
    const = ((N - 1) / p) ** (p - 2.0) * c_np(params).value
    return energy - params.lambda_p * box(mass), const * v_mass


def test_c4_halfspace_battery():
    # Both kinds read one assembly of the energy, mass and V-mass, from the
    # factors of the product u.  Each report's lhs and rhs are checked
    # against the same sides from independent whole-box cubatures, within
    # the sum of both error estimates.  At p != 2 the assembly's energy is
    # itself a whole-box cubature that refines the same cells as the
    # reference, and at N = 2 so is the V-mass's (x1, y) cubature; there
    # the check tests the integrand, not the engine.
    t0 = time.time()
    for N in (2, 3):
        for p in (1.5, 2.0, 3.0):
            params = Params(N, p)
            hyp, maz = (batch_verify(kind, [params], 25, seed=99, tol=1e-6)
                        for kind in (InequalityKind.BOUNDED_V, InequalityKind.MAZYA))
            for i, (r_hyp, r_maz) in enumerate(zip(hyp, maz)):
                assert r_hyp.passed and r_maz.passed, (N, p)
                # trial i of the battery draws u from default_rng([seed, i])
                u = random_halfspace_product(np.random.default_rng([99, i]), N)
                lhs, rhs = _c4_box_sides(params, u, 1e-6)
                for rep in (r_hyp, r_maz):
                    assert rep.test_function == u.label
                    assert abs(rep.lhs - lhs.value) <= (
                        rep.quad_error + lhs.error_estimate), (N, p, i)
                    assert abs(rep.rhs - rhs.value) <= (
                        rep.quad_error + rhs.error_estimate), (N, p, i)
    assert time.time() - t0 <= 300.0


# ---------------------------------------------------------------------------
# Criterion 5: constants cross-check.
# ---------------------------------------------------------------------------


def test_c5_brute_force_matches_exact_values_p_gt_2():
    t0 = time.time()
    rng = np.random.default_rng(31415)
    points = [(int(N), float(p)) for N, p in zip(
        rng.integers(2, 20, 20), rng.uniform(2.001, 12.0, 20)
    )]
    for N, p in points:
        pr = Params(N, p)
        assert brute_force_cnp(pr) == pytest.approx(
            c_np(pr).value, abs=1e-8
        ), (N, p)
    assert time.time() - t0 <= 30.0


def test_c5_brute_force_dominates_lower_bounds_p_le_2():
    t0 = time.time()
    rng = np.random.default_rng(27182)
    points = [(int(N), float(p)) for N, p in zip(
        rng.integers(2, 20, 20), rng.uniform(1.05, 2.0, 20)
    )]
    for N, p in points:
        pr = Params(N, p)
        assert brute_force_cnp(pr) >= c_np(pr).value - 1e-8, (N, p)
    assert time.time() - t0 <= 30.0


def test_c5_n2_tabulated_closed_forms():
    """EXPECTED FAILURE: the tabulated N = 2 refinements are not the optimum.

    The checker maximizes mu1(a) = a/(1 + (a/M)(1 + a/(2(p-1)))) with the
    branch-wise M; its exact value is (1/p) M / (1 + sqrt(2M/(p-1))).
    The tabulated closed forms correspond to (1/p) M / (1 + sqrt(M/(2(p-1))))
    and therefore exceed the direct optimum by ~37% (0.14088 vs 0.10313 at
    p = 1.5; 0.08453 vs 0.06188 at p = 1.25).  The 1e-8 match asserted
    here cannot hold; see c_2p_direct for the consistent closed form.
    """
    for p in (1.25, 1.5):
        bf = brute_force_cnp(Params(2, p))
        tab = c_2p(p).value
        assert bf == pytest.approx(tab, abs=1e-8), (
            f"p={p}: brute-force optimum {bf:.12f} vs tabulated {tab:.12f} "
            f"(ratio {tab / bf:.4f})"
        )


# ---------------------------------------------------------------------------
# Criterion 6: asymptotics of the Green's-function weight.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("N,p", [(5, 2.0), (6, 3.0)])
def test_c6_weight_asymptotics_n_gt_p(N, p):
    t0 = time.time()
    pr = Params(N, p)
    ev = GreenWeight(pr)
    w_small, _ = ev.w(1e-3)
    target0 = ((N - p) / p) ** p
    assert abs(w_small * (1e-3) ** p - target0) <= 0.01 * target0
    w_large, _ = ev.w(20.0)
    target_inf = pr.lambda_p * (N - 1) * p / (2.0 * (N - 1 + 2.0 * (p - 1.0)))
    assert abs(w_large * math.sinh(20.0) ** 2 - target_inf) <= 0.01 * target_inf
    assert time.time() - t0 <= 60.0


def test_c6_weight_asymptotics_n_lt_p():
    """EXPECTED FAILURE: the N < p scaling has not converged at r = 1e-3.

    W(r) r^(p(N-1)/(p-1)) = C(p,N) (G(0)/G(r))^p (1 + O(r^2)) and
    G(0) - G(r) ~ 2 sqrt(r) for (N, p) = (2, 3), so the relative deviation
    at r = 1e-3 is ~ 3 * 2 sqrt(r)/G(0) = 5.3%, far above the 1% demanded
    here; the scaling enters the 1% window only below r ~ 4e-5 (checked in
    the companion test).
    """
    pr = Params(2, 3.0)
    ev = GreenWeight(pr)
    # C(p, N) by quadrature: G evaluated essentially at 0 plus the exact
    # missing head integral int_0^{1e-12} s^(-1/2) ds = 2e-6
    g0 = ev.green(1e-12)[0] + 2.0 * math.sqrt(1e-12)
    C = ((pr.p - 1.0) / pr.p) ** pr.p * g0 ** (-pr.p)
    w, _ = ev.w(1e-3)
    scaled = w * (1e-3) ** (pr.p * (pr.N - 1) / (pr.p - 1.0))
    assert abs(scaled - C) <= 0.01 * C, (
        f"deviation {(scaled - C) / C:.4%} at r=1e-3 exceeds 1% "
        f"(scaled={scaled:.8g}, C={C:.8g})"
    )


def test_c6_weight_n_lt_p_limit_is_correct():
    # companion check: the same scaling does converge, just deeper in
    pr = Params(2, 3.0)
    ev = GreenWeight(pr)
    g0 = ev.green(1e-12)[0] + 2.0 * math.sqrt(1e-12)
    C = ((pr.p - 1.0) / pr.p) ** pr.p * g0 ** (-pr.p)
    w, _ = ev.w(1e-5)
    scaled = w * (1e-5) ** 1.5
    assert abs(scaled - C) <= 0.01 * C


# ---------------------------------------------------------------------------
# Criterion 7: critical-radius suite.
# ---------------------------------------------------------------------------


def test_c7_rp_suite():
    t0 = time.time()
    pr = Params(13, 4.0)
    rp = solve_rp(pr)
    r0 = solve_r0(pr)
    assert rp.residual <= 1e-12
    assert r0.residual <= 1e-12
    assert weight_hp(pr, rp.root) == pytest.approx(1.0, abs=1e-10)
    assert rp.root < r0.root

    rows = rp_scan_N(4.0, 13, 40)
    vals = [r["r_p"] for r in rows]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    for i in range(1, len(rows) - 1):
        fd = (rows[i + 1]["r_p"] - rows[i - 1]["r_p"]) / 2.0
        assert fd == pytest.approx(rows[i]["d_rp_dN"], rel=0.05)

    rows = rp_scan_p(13, [2.5, 3.0, 3.5, 4.0])
    vals = [r["r_p"] for r in rows]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    h = 0.01
    for row in rows:
        p = row["p"]
        up = solve_rp(Params(13, p + h)).root if p + h <= 4.0 else None
        dn = solve_rp(Params(13, p - h)).root
        fd = ((up - dn) / (2 * h)) if up is not None else (row["r_p"] - dn) / h
        assert fd == pytest.approx(row["d_rp_dp"], rel=0.05)
    assert time.time() - t0 <= 30.0


# ---------------------------------------------------------------------------
# Criterion 8: proof-step suite.
# ---------------------------------------------------------------------------


def test_c8_proof_steps():
    t0 = time.time()
    rng = np.random.default_rng(1618)

    worst_ni = min(
        check_ni(float(b), float(s))
        for b, s in zip(rng.uniform(1e-6, 10.0, 10_000), rng.uniform(0.0, 1.0, 10_000))
    )
    assert worst_ni >= -1e-14

    worst_pc = 0.0
    for p, xi, u in zip(
        rng.uniform(1.0, 4.0, 10_000),
        rng.uniform(0.0, 2.0, 10_000),
        rng.uniform(0.0, 1.0, 10_000),
    ):
        eta = xi - u * (xi + 2.0)  # admissible: eta <= xi, eta >= -2
        worst_pc = min(worst_pc, check_pconvexity(float(p), float(xi), float(eta)))
    assert worst_pc >= -1e-14

    grid = np.geomspace(1e-5, 25.0, 600)
    # nonnegative under the dimension hypothesis (floating floor for the
    # boundary cases, where the profile is identically zero)
    for N, p in [(3, 2.0), (13, 4.0), (8, 2.0), (21, 4.0)]:
        assert check_ftilde(Params(N, p), grid) >= -1e-13, (N, p)
    assert check_ftilde(Params(6, 3.0), grid) < 0.0

    for r in np.random.default_rng(55).uniform(0.1, 10.0, 16):
        ident, deriv = supersolution_residual(Params(13, 4.0), float(r))
        assert ident < 1e-6 and deriv < 1e-6
    assert time.time() - t0 <= 30.0


# ---------------------------------------------------------------------------
# Criterion 9: the H_p curve.
# ---------------------------------------------------------------------------


def test_c9_figure_curve_shape(tmp_path):
    t0 = time.time()
    out = tmp_path / "curve.csv"
    rc = cli_main([
        "figure1", "--N", "13", "--p", "4", "--points", "1500",
        "--format", "csv", "--output", str(out),
    ])
    assert rc == 0
    payload = parse(out.read_text(), "csv")["payload"]
    rp = solve_rp(Params(13, 4.0)).root
    assert any(abs(row["r"] - rp) < 1e-12 for row in payload)  # marker row
    for row in payload:
        assert row["is_ge_one"] == (row["Hp"] >= 1.0)
        assert (row["Hp"] >= 1.0) == (row["r"] <= rp + 1e-12)
    assert time.time() - t0 <= 5.0


def test_c9_tail_level_at_r15():
    """EXPECTED FAILURE: H_p(15) is 3.3e-2 away from 1, not 1e-3.

    1 - H_p(r) = (p-2)(p-1)/((N-1) r) + O(1/r^2): the convergence to 1 is
    algebraic (the 1/r term of the base survives), so at r = 15 the gap is
    2 * 3/(12 * 15) = 1/30.  A 1e-3 window would need r ~ 500.
    """
    hp15 = weight_hp(Params(13, 4.0), 15.0)
    assert abs(hp15 - 1.0) <= 1e-3, (
        f"|H_p(15) - 1| = {abs(hp15 - 1.0):.4e}; the gap decays like "
        f"0.5/r and equals 1/30 at r = 15"
    )


def test_c9_tail_approaches_one_algebraically():
    # companion check: the tail does go to 1 from below at the 0.5/r rate
    pr = Params(13, 4.0)
    for r in (15.0, 150.0, 1500.0):
        gap = 1.0 - weight_hp(pr, r)
        assert gap > 0.0
        assert gap == pytest.approx(0.5 / r, rel=0.05)
