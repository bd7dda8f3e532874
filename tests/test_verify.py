"""Inequality verifiers, proof-step checkers, sharpness scans."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyplab.core import HypothesisError, Params
from hyplab.integrals import halfspace_battery, halfspace_integral
from hyplab.quadrature import QuadResult
from hyplab.testfun import make_bump
from hyplab.verify import (
    InequalityKind,
    SupportViolation,
    _trial_function,
    ball_constants,
    batch_verify,
    check_ftilde,
    check_pconvexity,
    hardy_constant,
    random_halfspace_product,
    reports,
    sharpness_scan,
    supersolution_residual,
    verify,
)


class TestVerifyRadial:
    def test_pgap_passes_with_positive_slack(self):
        rep = verify(InequalityKind.PGAP, Params(3, 2.0), make_bump(1.0, 3.0), 1e-10)
        assert rep.passed and rep.slack > 0

    def test_hardy_constant_at_p2(self):
        # (p-1)((N-1)/p)^(p-2)((p-1)/p)^2 = 1/4 at p = 2, any N
        assert hardy_constant(Params(4, 2.0)) == pytest.approx(0.25, abs=0)
        assert hardy_constant(Params(9, 2.0)) == pytest.approx(0.25, abs=0)

    def test_all_radial_kinds_pass(self):
        pr = Params(3, 2.0)
        u = make_bump(0.8, 2.5)
        for kind in (
            InequalityKind.PGAP,
            InequalityKind.GREEN_WEIGHT,
            InequalityKind.HARDY,
            InequalityKind.UNCERTAINTY,
            InequalityKind.HP_WEIGHTED,
            InequalityKind.BALL,
        ):
            rep = verify(kind, pr, u, 1e-10)
            assert rep.passed, kind

    def test_quotient_scale_invariance(self):
        pr = Params(3, 3.0)
        u = make_bump(1.0, 2.0)
        from hyplab.integrals import radial_energy

        ep1, mp1 = radial_energy(pr, u, 1e-12)
        c = 17.0
        cu = type(u)(
            value=lambda r: c * u.value(r),
            derivative=lambda r: c * u.derivative(r),
            support=u.support,
            breakpoints=u.breakpoints,
        )
        ep2, mp2 = radial_energy(pr, cu, 1e-12)
        q1 = ep1.value / mp1.value
        q2 = ep2.value / mp2.value
        assert q2 == pytest.approx(q1, rel=1e-12)

    def test_hypothesis_violations_named(self):
        with pytest.raises(HypothesisError):
            verify(InequalityKind.HARDY, Params(2, 1.5), make_bump(1.0, 2.0), 1e-9)
        with pytest.raises(HypothesisError):
            verify(InequalityKind.HP_WEIGHTED, Params(12, 4.0), make_bump(1.0, 2.0), 1e-9)

    def test_ball_support_violation(self):
        pr = Params(13, 4.0)  # r_p ~ 1.168
        with pytest.raises(SupportViolation):
            verify(InequalityKind.BALL, pr, make_bump(0.5, 2.0), 1e-9)

    def test_ball_p2_whole_space(self):
        # r_2 = +infinity: no support restriction at p = 2
        rep = verify(InequalityKind.BALL, Params(3, 2.0), make_bump(5.0, 9.0), 1e-9)
        assert rep.passed

    def test_hardy1d_l_equals_p_classical(self):
        pr = Params(3, 2.0)
        rep = verify(InequalityKind.HARDY1D, pr, make_bump(0.5, 2.0), 1e-10)
        assert rep.l == pr.p and rep.passed

    def test_hardy1d_rejects_bad_l(self):
        with pytest.raises(HypothesisError):
            verify(InequalityKind.HARDY1D, Params(3, 2.0), make_bump(1.0, 2.0),
                   1e-9, l=1.0)

    def test_hp_weighted_reduces_to_hardy_at_p2(self):
        # H_2 = 1 and the constants coincide: identical lhs, first rhs
        # term matches, extra sinh remainder is the only difference
        pr = Params(4, 2.0)
        u = make_bump(0.6, 1.8)
        r25 = verify(InequalityKind.HARDY, pr, u, 1e-11)
        r29 = verify(InequalityKind.HP_WEIGHTED, pr, u, 1e-11)
        assert r29.lhs == pytest.approx(r25.lhs, rel=1e-10)
        assert r29.rhs > r25.rhs  # strictly, by the sinh^-p remainder
        from hyplab.integrals import radial_weighted_mass

        extra = (4 - 1) * (4 - 1 - 2) / 2.0**2 * radial_weighted_mass(
            pr, u, "1/sinh^p", 1e-11
        ).value
        assert r29.rhs - r25.rhs == pytest.approx(extra, rel=1e-8)

    def test_wrong_function_type_rejected(self):
        u = random_halfspace_product(np.random.default_rng(0), 2)
        with pytest.raises(TypeError):
            verify(InequalityKind.PGAP, Params(2, 2.0), u, 1e-9)
        with pytest.raises(TypeError):
            verify(InequalityKind.BOUNDED_V, Params(2, 2.0), make_bump(1.0, 2.0), 1e-9)


# the package exports the function verify under the module's name
verify_module = importlib.import_module("hyplab.verify")


class TestRecipesMatchHandPropagation:
    """The QuadResult recipes against the hand-written error formulas they
    replaced, on the same integrals.  Both sides are equal; quad_error
    differs only in how products and sums are associated, which moves it
    by a few ulps at most."""

    WEIGHTS = ("r^pprime", "Hp", "1/r^p", "1/sinh^p")

    @staticmethod
    def _term(rng):
        value = float(np.exp(rng.uniform(-3.0, 12.0)))
        return QuadResult(value, value * float(np.exp(rng.uniform(-30.0, -12.0))), 7)

    def _cases(self, monkeypatch, kind, params):
        rng = np.random.default_rng(2024)
        terms = {}
        monkeypatch.setattr(
            verify_module, "radial_battery",
            lambda params, funcs, names, tol, l: [{name: terms[name] for name in names}])
        for _ in range(200):
            terms.update((name, self._term(rng)) for name in ("E", "M") + self.WEIGHTS)
            rep = verify(kind, params, make_bump(1.0, 2.0), 1e-10)
            yield rep, {k: (t.value, t.error_estimate) for k, t in terms.items()}

    @staticmethod
    def _assert_matches(rep, lhs, rhs, err):
        assert (rep.lhs, rep.rhs) == (lhs, rhs)
        assert abs(rep.quad_error - err) <= 4 * math.ulp(err)

    def test_uncertainty(self, monkeypatch):
        params = Params(8, 2.5)
        lam, p, c = params.lambda_p, params.p, hardy_constant(params)
        expo = p / params.p_prime
        for rep, t in self._cases(monkeypatch, InequalityKind.UNCERTAINTY, params):
            (ev, ee), (mv, me), (rv, re) = t["E"], t["M"], t["r^pprime"]
            gap, gap_err = ev - lam * mv, ee + lam * me
            err = (
                gap_err * rv**expo
                + abs(gap) * expo * rv ** (expo - 1.0) * re
                + c * p * mv ** (p - 1.0) * me
            )
            self._assert_matches(rep, gap * rv**expo, c * mv**p, err)

    def test_hp_weighted(self, monkeypatch):
        params = Params(10, 3.0)
        lam = params.lambda_p
        c_r, c_sinh = ball_constants(params)
        for rep, t in self._cases(monkeypatch, InequalityKind.HP_WEIGHTED, params):
            (ev, ee), (hv, he) = t["E"], t["Hp"]
            (rv, re), (sv, se) = t["1/r^p"], t["1/sinh^p"]
            err = ee + lam * he + c_r * re + c_sinh * se
            self._assert_matches(rep, ev - lam * hv, c_r * rv + c_sinh * sv, err)


class TestVerifyHalfSpace:
    def test_pair_agreement(self):
        # the two kinds read the same three integrals from one assembly, so
        # their reports of one seed differ only in the kind
        for N, p in [(2, 1.5), (3, 2.0), (3, 3.0)]:
            hyp, maz = (batch_verify(kind, [Params(N, p)], 3, seed=5, tol=1e-6)
                        for kind in (InequalityKind.BOUNDED_V, InequalityKind.MAZYA))
            for r_hyp, r_maz in zip(hyp, maz):
                assert r_hyp.passed and r_maz.passed
                assert (r_maz.lhs, r_maz.rhs, r_maz.quad_error) == (
                    r_hyp.lhs, r_hyp.rhs, r_hyp.quad_error)

    # (N, p): the (dimension, cells) of each cell call of the three reports
    # of seed 5, in order: each report's V-mass (x1, y) pass, then at
    # p != 2 its energy's box cubature; pinned, so a change in the split
    # order or the stop rule moves them
    CELLS = {
        (2, 2.0): [(2, 53), (2, 55), (2, 55)],
        (3, 2.0): [(2, 57), (2, 57), (2, 57)],
        (2, 3.0): [(2, 47), (2, 91), (2, 47), (2, 93), (2, 47), (2, 93)],
        # the energy's 3-D cells, as in the former pass of all three terms
        (3, 3.0): [(2, 51), (3, 229), (2, 47), (3, 241), (2, 47), (3, 257)],
    }
    # 1-D factors of a report, all of a battery's in one interval pass: phi,
    # chi's mass factor and psi for N = 3; at p = 2 also phi', chi's two
    # energy factors and psi'
    FACTORS = {(2, 2.0): 5, (3, 2.0): 7, (2, 3.0): 2, (3, 3.0): 3}

    @pytest.mark.parametrize("N, p", list(CELLS))
    @pytest.mark.parametrize("kind", [InequalityKind.BOUNDED_V, InequalityKind.MAZYA])
    def test_work_counts_per_report(self, monkeypatch, kind, N, p):
        integrals = importlib.import_module("hyplab.integrals")
        cells, passes = [], []
        cubature = integrals.integrate_cells
        intervals = integrals.integrate_intervals

        def counted_cells(f, box, *args, **kwargs):
            result = cubature(f, box, *args, **kwargs)
            cells.append((len(box), result.subdivisions))
            return result

        def counted_intervals(f, a, *args, **kwargs):
            passes.append(len(a))
            return intervals(f, a, *args, **kwargs)

        monkeypatch.setattr(integrals, "integrate_cells", counted_cells)
        monkeypatch.setattr(integrals, "integrate_intervals", counted_intervals)
        reps = batch_verify(kind, [Params(N, p)], 3, seed=5, tol=1e-6)
        assert all(r.passed for r in reps)
        assert cells == self.CELLS[(N, p)]
        assert passes == [3 * self.FACTORS[(N, p)]]

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_declared_factors_make_the_product(self, N):
        # u = phi psi chi and |grad u|^2 = phi'^2 psi^2 chi^2
        # + phi^2 psi'^2 chi^2 + phi^2 psi^2 chi'^2, as the factored terms use
        u = random_halfspace_product(np.random.default_rng([16, N]), N)
        phi, psi, chi = u.phi, u.psi, u.chi
        assert (psi is None) == (N == 2)
        assert (phi.support, chi.support) == (u.support[0], u.support[2])
        rng = np.random.default_rng(N)
        x1, rho, y = (rng.uniform(lo, hi, 200) for lo, hi in u.support)
        pv, dp = (1.0, 0.0) if psi is None else (psi.value(rho), psi.derivative(rho))
        assert np.array_equal(u.value(x1, rho, y), phi.value(x1) * pv * chi.value(y))
        grad2 = ((phi.derivative(x1) * pv * chi.value(y)) ** 2
                 + (phi.value(x1) * dp * chi.value(y)) ** 2
                 + (phi.value(x1) * pv * chi.derivative(y)) ** 2)
        np.testing.assert_allclose(u.gradient_norm(x1, rho, y) ** 2, grad2,
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_factored_terms_match_box_cubature(self, N, p):
        # the mass, the V-mass and the p = 2 energy from the factors against
        # one cubature of the full integrands over the box (2-D at N = 2);
        # N = 4 and 5 carry the rho^(N-3) factor
        params = Params(N, p)
        u = random_halfspace_product(np.random.default_rng([16, N]), N)

        def mass(x1, rho, y):
            return np.abs(u.value(x1, rho, y)) ** p * y ** (-N)

        def v_mass(x1, rho, y):
            return y / np.sqrt(y * y + x1 * x1) * mass(x1, rho, y)

        def energy(x1, rho, y):
            return u.gradient_norm(x1, rho, y) ** 2 * y ** (2 - N)

        funcs = [mass, v_mass] + ([energy] if p == 2.0 else [])
        box = [halfspace_integral(params, f, u.support, 1e-7) for f in funcs]
        t = halfspace_battery(params, [u], 1e-7)[0]
        e, m, v = t["E"], t["M"], t["V"]
        for ref, term in zip(box, (m, v, e)):
            assert abs(term.value - ref.value) <= (
                term.error_estimate + ref.error_estimate)

    @staticmethod
    def _energy_forms(u, N, p):
        # the energy integrand through u.gradient_norm, in the hyperbolic
        # form |grad_H u|^p y^-N and in the Euclidean form |grad u|^p y^(p-N)
        return [
            lambda x1, rho, y: (y * u.gradient_norm(x1, rho, y)) ** p * y ** (-N),
            lambda x1, rho, y: u.gradient_norm(x1, rho, y) ** p * y ** (p - N),
        ]

    @pytest.mark.parametrize("p", [1.5, 2.5, 3.0])
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_energy_off_p2_is_the_box_cubature(self, N, p):
        # the factored integrand refines the same cells as the cubature of
        # either form's gradient_norm integrand; they differ only by rounding
        params = Params(N, p)
        u = random_halfspace_product(np.random.default_rng([16, N]), N)
        energy = halfspace_battery(params, [u], 1e-6)[0]["E"]
        for e_f in self._energy_forms(u, N, p):
            ref = halfspace_integral(params, e_f, u.support, 1e-6)
            assert energy.subdivisions == ref.subdivisions
            assert abs(energy.value - ref.value) <= 1e-15 * abs(ref.value)
            assert abs(energy.error_estimate - ref.error_estimate) <= (
                1e-9 * ref.error_estimate)

    @pytest.mark.parametrize("p", [1.5, 2.5, 3.0])
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_energy_integrand_at_nodes(self, monkeypatch, N, p):
        # the integrand the energy cubature receives, at random nodes of the
        # box, against (y |grad u|)^p y^-N and |grad u|^p y^(p-N)
        params = Params(N, p)
        u = random_halfspace_product(np.random.default_rng([19, N]), N)
        rng = np.random.default_rng([N, int(2 * p)])
        x1, rho, y = (rng.uniform(lo, hi, 40) for lo, hi in u.support)
        seen = []
        monkeypatch.setattr(importlib.import_module("hyplab.integrals"), "halfspace_integral",
                            lambda params, f, support, tol: seen.append(f))
        halfspace_battery(params, [u], 1e-6)
        got = seen[0](x1[:, None, None], rho[None, :, None], y[None, None, :])
        for e_f in self._energy_forms(u, N, p):
            ref = e_f(x1[:, None, None], rho[None, :, None], y[None, None, :])
            assert ref.shape == got.shape and (ref > 0.0).any()
            # a subnormal value near the support's edge has no relative precision
            np.testing.assert_allclose(got, ref, rtol=1e-14, atol=np.finfo(float).tiny)


class TestBatch:
    def test_halfspace_battery_equals_one_trial_verify(self):
        # two products per grid point share each battery's one 1-D pass;
        # (4, 3) adds the rho^(N-3) weight and the p != 2 cubature
        grid = [Params(3, 2.0), Params(2, 3.0), Params(4, 3.0)]
        for kind in (InequalityKind.BOUNDED_V, InequalityKind.MAZYA):
            reps = batch_verify(kind, grid, 6, seed=9, tol=1e-6)
            expected = [
                verify(kind, grid[i % 3],
                       random_halfspace_product(np.random.default_rng([9, i]),
                                                grid[i % 3].N),
                       1e-6)
                for i in range(6)
            ]
            assert [r.N for r in reps] == [3, 2, 4, 3, 2, 4]
            assert reps == expected

    def test_deterministic_under_seed(self):
        a = batch_verify(InequalityKind.PGAP, [Params(3, 2.0)], 6, seed=7, tol=1e-9)
        b = batch_verify(InequalityKind.PGAP, [Params(3, 2.0)], 6, seed=7, tol=1e-9)
        assert [r.lhs for r in a] == [r.lhs for r in b]
        c = batch_verify(InequalityKind.PGAP, [Params(3, 2.0)], 6, seed=8, tol=1e-9)
        assert [r.lhs for r in a] != [r.lhs for r in c]

    def test_round_robin_over_grid(self):
        grid = [Params(3, 2.0), Params(13, 4.0)]
        reps = batch_verify(InequalityKind.PGAP, grid, 4, seed=1, tol=1e-9)
        assert [r.N for r in reps] == [3, 13, 3, 13]

    def test_battery_reports_equal_one_trial_verify(self):
        for kind in (InequalityKind.HARDY, InequalityKind.UNCERTAINTY,
                     InequalityKind.BALL, InequalityKind.HARDY1D):
            params = Params(8, 2.5)
            reps = batch_verify(kind, [params], 5, seed=2, tol=1e-10)
            funcs = [_trial_function(kind, params, 2, i) for i in range(5)]
            assert [verify(kind, params, u, 1e-10) for u in funcs] == reps
            assert reports(kind, params, funcs, 1e-10) == reps

    def test_ball_radius_solved_once_per_battery(self, monkeypatch):
        verify_module = importlib.import_module("hyplab.verify")
        calls = []
        solve = verify_module.solve_rp

        def counted(params):
            calls.append(params)
            return solve(params)

        monkeypatch.setattr(verify_module, "solve_rp", counted)
        reps = batch_verify(InequalityKind.BALL, [Params(13, 4.0)], 6, seed=5,
                            tol=1e-10)
        assert len(calls) == 1 and all(r.passed for r in reps)

    def test_peak_allocation_of_a_40_trial_battery(self):
        # The battery's integrals are in flight together, their panels the
        # rows of one array; at most quadrature._INTERVAL_WINDOW at a time.
        # Measured: 0.73 MiB (0.66 MiB with a heap per integral and a
        # window of 32, 0.08 MiB when the integrals ran one at a time); the
        # 1 MiB bound leaves about 25% for platform differences.
        import tracemalloc

        batch_verify(InequalityKind.HP_WEIGHTED, [Params(3, 2.0)], 2, seed=11,
                     tol=1e-10, allow_origin=True)
        tracemalloc.start()
        try:
            batch_verify(InequalityKind.HP_WEIGHTED, [Params(3, 2.0)], 40, seed=11,
                         tol=1e-10, allow_origin=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    def test_engine_work_of_a_40_trial_battery(self, monkeypatch):
        # Exact counts of the 1-D engine's work on one fixed battery: a
        # change that makes a round cheaper must split the same panels.
        integrals = importlib.import_module("hyplab.integrals")
        intervals = integrals.integrate_intervals
        nodes, panels = [], []

        def counted(f, *args, **kwargs):
            def g(x, owner):
                nodes.append(x.size)
                return f(x, owner)

            results = intervals(g, *args, **kwargs)
            panels.extend(res.subdivisions for res in results)
            return results

        monkeypatch.setattr(integrals, "integrate_intervals", counted)
        reps = batch_verify(InequalityKind.HP_WEIGHTED, [Params(3, 2.0)], 40, seed=11,
                            tol=1e-10, allow_origin=True)
        assert all(r.passed for r in reps)
        assert (len(nodes), sum(nodes), sum(panels)) == (38, 122_400, 8_160)
        assert sum(nodes) == 15 * sum(panels)

    @pytest.mark.parametrize("kind, params", [
        (InequalityKind.PGAP, Params(13, 4.0)),
        (InequalityKind.HARDY, Params(13, 4.0)),
        (InequalityKind.HP_WEIGHTED, Params(3, 2.0)),
    ], ids=["pgap", "hardy", "hp-weighted"])
    def test_origin_trials_within_quad_error(self, kind, params):
        # A bump whose support starts at r = 0 runs on plain panels from
        # the origin; its reports at the CLI default tol stay within their
        # quad_error of a tol 1e-13 rerun (measured: at most 4.6e-4 of it).
        trials, seed = 20, 23
        origin = [i for i in range(trials)
                  if _trial_function(kind, params, seed, i, True).support[0] == 0.0]
        assert origin
        reps = batch_verify(kind, [params], trials, seed, tol=1e-10, allow_origin=True)
        refs = batch_verify(kind, [params], trials, seed, tol=1e-13, allow_origin=True)
        for i in origin:
            rep, ref = reps[i], refs[i]
            assert abs(rep.lhs - ref.lhs) + abs(rep.rhs - ref.rhs) <= rep.quad_error


class TestSharpnessScan:
    def test_pgap_brackets_and_trend(self):
        pr = Params(2, 2.0)
        rows = sharpness_scan(InequalityKind.PGAP, pr, [1e-1, 1e-2], tol=1e-5)
        qs = [r["quotient"] for r in rows]
        assert qs[0] > qs[1]
        for row in rows:
            assert row["lower"] - row["quad_error"] <= row["quotient"]
            assert row["quotient"] <= row["upper"] + row["quad_error"]
        # exact closed form at N = p = 2: quotient = (1 + eps) Lambda_p
        assert qs[0] == pytest.approx(0.275, rel=1e-4)

    def test_hardy1d_brackets(self):
        pr = Params(3, 3.0)
        rows = sharpness_scan(
            InequalityKind.HARDY1D, pr, [(1e-2, 1e-2), (1e-3, 1e-3)], tol=1e-9, l=2.0
        )
        for row in rows:
            assert row["lower"] - row["quad_error"] <= row["quotient"]
            assert row["quotient"] <= row["upper"] + row["quad_error"]
        assert rows[0]["quotient"] > rows[1]["quotient"]

    def test_pgap_scan_is_one_pass_of_its_single_eps_calls(self, monkeypatch):
        integrals = importlib.import_module("hyplab.integrals")
        quadrature = importlib.import_module("hyplab.quadrature")
        pr, schedule, tol = Params(3, 3.0), [1e-1, 1e-2, 1e-3], 1e-5
        singles = [integrals.ueps_energy_mass(pr, eps, tol) for eps in schedule]
        calls = []
        intervals = quadrature.integrate_intervals

        def counted(f, a, *args, **kwargs):
            calls.append(len(a))
            return intervals(f, a, *args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate_intervals", counted)
        rows = sharpness_scan(InequalityKind.PGAP, pr, schedule, tol)
        assert calls == [2 * len(schedule)]
        for row, (energy, mass) in zip(rows, singles):
            q = energy / mass
            assert (row["quotient"], row["quad_error"]) == (q.value, q.error_estimate)
        assert integrals.ueps_energy_masses(pr, schedule, tol) == singles

    @pytest.mark.parametrize("schedule", [
        [(1e-1, 1e-3)], [(0.3, 1e-3), (1e-1, 1e-3), (1e-2, 1e-3)]], ids=["1", "3"])
    def test_hardy1d_scan_is_three_passes(self, monkeypatch, schedule):
        # the origin-power heads of every entry's two terms in one pass,
        # their tails on [eps, 2] in the battery's one pass, then the
        # ramp constant
        integrals = importlib.import_module("hyplab.integrals")
        quadrature = importlib.import_module("hyplab.quadrature")
        calls = []
        intervals = quadrature.integrate_intervals

        def counted(f, a, *args, **kwargs):
            calls.append(len(a))
            return intervals(f, a, *args, **kwargs)

        for module in (quadrature, integrals):
            monkeypatch.setattr(module, "integrate_intervals", counted)
        rows = sharpness_scan(InequalityKind.HARDY1D, Params(13, 4.0), schedule, 1e-10)
        assert len(rows) == len(schedule)
        assert calls == [2 * len(schedule), 2 * len(schedule), 1]

    def test_rejects_nondecreasing_schedule(self):
        with pytest.raises(ValueError):
            sharpness_scan(InequalityKind.PGAP, Params(2, 2.0), [1e-2, 1e-1], 1e-4)


class TestPConvexity:
    def test_p2_equality_case(self):
        assert check_pconvexity(2.0, 2.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_p3_example(self):
        # LHS = 1 + 12 - 8 = 5, RHS = max{4, 1} = 4
        assert check_pconvexity(3.0, 2.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_subquadratic_example(self):
        # 0.5^1.5 + 0.75 - 1 vs (1/2)(1.5)(0.5)(0.25)/1.5^0.5
        assert check_pconvexity(1.5, 1.0, 0.5) == pytest.approx(
            0.02700683613129941, rel=1e-12
        )

    def test_degenerate_corner(self):
        assert check_pconvexity(2.5, 0.0, -1.0) >= 0.0
        assert check_pconvexity(2.5, 0.0, 0.0) == 0.0

    @given(
        st.floats(min_value=1.0, max_value=4.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    @settings(max_examples=2000)
    def test_nonnegative_on_admissible_domain(self, p, xi, eta):
        eta = min(eta, xi)
        assert check_pconvexity(p, xi, eta) >= -1e-14

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            check_pconvexity(2.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            check_pconvexity(0.5, 1.0, 0.5)


class TestPositivityProfile:
    def test_limit_at_zero(self):
        # F(0+) = (N-1) - p(p-1)
        val = check_ftilde(Params(8, 2.0), [1e-9])
        assert val == pytest.approx(8 - 1 - 2, rel=1e-6)

    def test_boundary_case_identically_zero(self):
        # N = 3, p = 2 sits exactly on N = 1 + p(p-1): profile vanishes
        grid = np.geomspace(1e-5, 30, 500)
        assert abs(check_ftilde(Params(3, 2.0), grid)) < 1e-12

    def test_negative_below_threshold(self):
        grid = np.geomspace(1e-5, 10, 500)
        assert check_ftilde(Params(6, 3.0), grid) < 0

    def test_nonnegative_above_threshold(self):
        grid = np.geomspace(1e-5, 20, 500)
        assert check_ftilde(Params(13, 4.0), grid) >= -1e-14
        assert check_ftilde(Params(20, 4.0), grid) > 0


class TestSupersolution:
    def test_derivative_residual_example(self):
        ident, deriv = supersolution_residual(Params(13, 4.0), 1.0)
        assert deriv < 1e-8
        assert ident < 1e-6

    def test_sixteen_random_radii(self):
        rng = np.random.default_rng(123)
        for r in rng.uniform(0.1, 10.0, 16):
            ident, deriv = supersolution_residual(Params(13, 4.0), float(r))
            assert ident < 1e-6 and deriv < 1e-6

    def test_p2_reduction_structure(self):
        # at p = 2 the closed form reduces to
        # -(Lambda_2 + (1/4) r^-2 + (N-1)(N-3)/4 sinh^-2 r) g
        from hyplab.verify import _gtilde, _lp_rhs_closed

        pr = Params(5, 2.0)
        r = 1.3
        g = float(_gtilde(pr, r))
        lam2 = ((5 - 1) / 2.0) ** 2
        expected = -(lam2 + 0.25 / r**2 + (5 - 1) * (5 - 3) / 4.0 / math.sinh(r) ** 2) * g
        assert _lp_rhs_closed(pr, r) == pytest.approx(expected, rel=1e-13)

    def test_step_validation(self):
        # the step, 1e-5, must stay below r / 4
        for r in (4e-5, 1e-6, 0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="finite differences"):
                supersolution_residual(Params(13, 4.0), r)
