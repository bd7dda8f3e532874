"""Critical-radius solvers and monotonicity scans."""

import numpy as np
import pytest

from hyplab.core import HypothesisError, Params, weight_hp
from hyplab.rp import (
    RootResult,
    max_admissible_p,
    rp_equation,
    rp_scan_N,
    rp_scan_p,
    solve_r0,
    solve_rp,
)


class TestSolveR0:
    def test_value_13_4(self):
        # h = 0 iff sinh r = 2r here; bisection oracle gives 2.177318...
        res = solve_r0(Params(13, 4.0))
        assert res.root == pytest.approx(2.1773189849653067, abs=1e-10)
        assert res.residual <= 1e-12

    def test_sign_pattern(self):
        pr = Params(13, 4.0)
        from hyplab.core import h_func

        r0 = solve_r0(pr).root
        assert h_func(pr, r0 / 2) < 0
        assert h_func(pr, 2 * r0) > 0

    def test_rejects_N_le_p(self):
        with pytest.raises(HypothesisError):
            solve_r0(Params(3, 3.0))

    def test_bisection_oracle_agreement(self):
        # plain bisection on the unnormalized h as an independent check
        pr = Params(8, 2.5)
        from hyplab.core import h_func

        lo, hi = 1e-6, 8.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if h_func(pr, mid) < 0:
                lo = mid
            else:
                hi = mid
        assert solve_r0(pr).root == pytest.approx(0.5 * (lo + hi), abs=1e-10)


class TestSolveRp:
    def test_p2_sentinel(self):
        assert solve_rp(Params(5, 2.0)) is None
        assert solve_rp(Params(3, 2.0)) is None

    def test_crossing_value(self):
        res = solve_rp(Params(13, 4.0))
        assert res.root == pytest.approx(1.1683314911315266, abs=1e-10)
        assert res.residual <= 1e-12
        assert weight_hp(Params(13, 4.0), res.root) == pytest.approx(1.0, abs=1e-10)

    def test_below_r0(self):
        for N, p in [(13, 4.0), (8, 3.0), (20, 3.5)]:
            rp = solve_rp(Params(N, p)).root
            r0 = solve_r0(Params(N, p)).root
            assert rp < r0

    def test_reproducible_from_perturbed_bracket(self):
        pr = Params(13, 4.0)
        root = solve_rp(pr).root
        # re-solve with a hand bisection from a different bracket
        lo, hi = 0.5, 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if rp_equation(pr, mid) > 0:
                lo = mid
            else:
                hi = mid
        assert root == pytest.approx(0.5 * (lo + hi), abs=1e-10)

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisError):
            solve_rp(Params(12, 4.0))
        with pytest.raises(HypothesisError):
            solve_rp(Params(5, 1.5))

    def test_weight_level_set(self):
        # H_p >= 1 exactly up to r_p, < 1 after (dense grid)
        pr = Params(13, 4.0)
        rp = solve_rp(pr).root
        grid = np.linspace(1e-3, 12.0, 3000)
        hp = np.asarray(weight_hp(pr, grid))
        assert np.all((hp >= 1.0) == (grid <= rp))


class TestScans:
    def test_scan_N_strictly_increasing(self):
        rows = rp_scan_N(4.0, 13, 22)
        vals = [r["r_p"] for r in rows]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(r["d_rp_dN"] > 0 for r in rows)

    def test_scan_N_large_dimension_grows(self):
        small = solve_rp(Params(13, 4.0)).root
        large = solve_rp(Params(10_000, 4.0)).root
        assert large > small + 2.0

    def test_scan_N_rejects_below_threshold(self):
        with pytest.raises(HypothesisError):
            rp_scan_N(4.0, 12, 20)

    def test_scan_N_rejects_empty_range(self):
        # an empty table used to fail later, as "payload must be non-empty"
        with pytest.raises(ValueError, match="the last N, 10, is below the first, 13"):
            rp_scan_N(4.0, 13, 10)

    def test_scan_p_strictly_decreasing(self):
        rows = rp_scan_p(13, [2.5, 3.0, 3.5, 4.0])
        vals = [r["r_p"] for r in rows]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(r["d_rp_dp"] < 0 for r in rows)

    def test_admissible_interval_endpoint(self):
        # (1+sqrt(4N-3))/2 solves N = 1 + p(p-1): admissible inclusively
        assert max_admissible_p(13) == pytest.approx(4.0, abs=1e-14)
        rows = rp_scan_p(13, [3.9, 4.0])
        assert len(rows) == 2

    def test_scan_p_refuses_extrapolation(self):
        with pytest.raises(HypothesisError):
            rp_scan_p(13, [4.1])
        with pytest.raises(HypothesisError):
            rp_scan_p(13, [2.0])
        with pytest.raises(HypothesisError):
            rp_scan_p(3, [2.5])

    def test_fd_slope_matches_implicit_formula(self):
        # N-slope by centered differences over integer steps vs formula
        rows = rp_scan_N(4.0, 13, 16)
        for i in (1, 2):
            fd = (rows[i + 1]["r_p"] - rows[i - 1]["r_p"]) / 2.0
            assert fd == pytest.approx(rows[i]["d_rp_dN"], rel=0.05)
        rows = rp_scan_p(13, [2.9, 3.0, 3.1])
        fd = (rows[2]["r_p"] - rows[0]["r_p"]) / 0.2
        assert fd == pytest.approx(rows[1]["d_rp_dp"], rel=0.05)


class TestRootResult:
    def test_contract_enforced(self):
        with pytest.raises(ValueError):
            RootResult(1.0, 1e-6, (0.5, 2.0), 3)  # residual too large
        with pytest.raises(ValueError):
            RootResult(3.0, 0.0, (0.5, 2.0), 3)  # outside bracket
