"""Quadrature engine tests against closed-form oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hyplab import quadrature
from hyplab.quadrature import (
    NonIntegrableSingularity,
    QuadratureError,
    QuadResult,
    ToleranceNotAchieved,
    integrate_cells,
    integrate_interval,
    integrate_intervals,
    power_singular_integral,
    power_singular_integrals,
)


def test_constant_one():
    r = integrate_interval(lambda x: np.ones_like(x), 0.0, 1.0, 1e-12)
    assert abs(r.value - 1.0) <= r.error_estimate + 1e-15


def test_inverse_sinh_squared():
    # antiderivative of (sinh s)^-2 is -coth s
    r = integrate_interval(lambda s: np.sinh(s) ** -2.0, 1.0, 2.0, 1e-12)
    exact = 1.0 / math.tanh(1.0) - 1.0 / math.tanh(2.0)
    assert exact == pytest.approx(0.2757205647717833, abs=1e-12)
    assert abs(r.value - exact) <= max(r.error_estimate, 1e-14)


def test_sinh_volume_element():
    r = integrate_interval(np.sinh, 0.0, 1.0, 1e-12)
    assert abs(r.value - (math.cosh(1.0) - 1.0)) < 1e-13
    assert r.value == pytest.approx(0.5430806348152437, abs=1e-12)


def test_linearity_within_summed_errors():
    f = lambda x: np.exp(-x)
    g = lambda x: np.cos(x)
    a, b = 0.0, 3.0
    rf = integrate_interval(f, a, b, 1e-11)
    rg = integrate_interval(g, a, b, 1e-11)
    rc = integrate_interval(
        lambda x: 2.5 * f(x) - 1.5 * g(x), a, b, 1e-11
    )
    lhs = rc.value
    rhs = 2.5 * rf.value - 1.5 * rg.value
    assert abs(lhs - rhs) <= rc.error_estimate + 2.5 * rf.error_estimate + 1.5 * rg.error_estimate + 1e-14


def test_refinement_tightens_toward_oracle():
    # halving the tolerance never worsens the error beyond the floating floor
    f = lambda x: np.sqrt(x) * np.exp(x)
    # the exact split of x^(1.5-1) e^x, 1.8e-15 from mpmath
    oracle = power_singular_integral(np.exp, 1.5, 1.0, 1e-14).value
    prev = None
    for tol in (1e-4, 1e-6, 1e-8, 1e-10):
        r = integrate_interval(f, 0.0, 1.0, tol)
        err = abs(r.value - oracle)
        assert err <= r.error_estimate + 1e-14
        if prev is not None:
            assert err <= prev + 64 * np.finfo(float).eps
        prev = err


def test_error_estimate_bounds_true_error():
    f = lambda x: np.sin(7 * x) ** 2 / (1 + x * x)
    exact = integrate_interval(f, 0.0, 4.0, 1e-14)
    r = integrate_interval(f, 0.0, 4.0, 1e-6)
    assert abs(r.value - exact.value) <= r.error_estimate + 1e-13


def test_budget_exhaustion_carries_best_value(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 40)
    f = lambda x: 1.0 / np.sqrt(np.abs(x - 0.31831) + 1e-300)
    with pytest.raises(ToleranceNotAchieved) as exc:
        integrate_interval(f, 0.0, 1.0, 1e-13)
    best = exc.value.result
    assert best.error_estimate > 1e-13
    assert best.value > 0


def test_breakpoints_split_kinks_exactly():
    f = lambda x: np.abs(x - 0.5)
    r = integrate_interval(f, 0.0, 1.0, 1e-14, breakpoints=[0.5])
    assert abs(r.value - 0.25) < 1e-14


@pytest.mark.parametrize("weights, degree, bound", [
    (quadrature._WGK, 22, 1e-14),  # K15: 6.0e-15 at k = 0
    (quadrature._WG, 13, 2e-15),   # G7: 1.15e-15 at k = 12
], ids=["K15", "G7"])
def test_gk15_table_integrates_monomials(weights, degree, bound):
    # the literal 15-digit table at 40 digits: each rule integrates x^k on
    # [-1, 1] exactly up to its degree, so what is left is the table's
    # rounding
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        nodes = [mp.mpf(x) for x in quadrature._XGK.tolist()]
        for k in range(degree + 1):
            exact = mp.mpf(2) / (k + 1) if k % 2 == 0 else mp.mpf(0)
            rule = mp.fsum(mp.mpf(w) * x**k for w, x in zip(weights.tolist(), nodes))
            assert abs(rule - exact) <= bound, k


class TestLockstep:
    """K integrals in one lockstep pass against their one-integral calls."""

    @staticmethod
    def _family(seed, K):
        """K random integrands with supports and breakpoints."""
        rng = np.random.default_rng(seed)
        lo = np.where(rng.uniform(size=K) < 0.3, 0.0, rng.uniform(0.0, 2.0, K))
        hi = lo + rng.uniform(0.1, 6.0, K)
        power = rng.uniform(0.2, 2.5, K)
        freq = rng.uniform(0.5, 9.0, K)
        scale = np.exp(rng.uniform(-20.0, 20.0, K))
        bps = [tuple(np.sort(rng.uniform(a, b, rng.integers(0, 3))))
               for a, b in zip(lo, hi)]

        def f(x, owner):
            return scale[owner] * x ** power[owner] * (2.0 + np.sin(freq[owner] * x))

        def alone(k):
            return integrate_interval(lambda x: f(x, np.full(x.shape, k)),
                                      lo[k], hi[k], 0.0, breakpoints=bps[k],
                                      rel_tol=1e-11)

        def together(ks):
            return integrate_intervals(
                lambda x, owner: f(x, np.asarray(ks)[owner]), lo[ks], hi[ks], 0.0,
                breakpoints=[bps[k] for k in ks], rel_tol=1e-11)

        return alone, together

    def test_each_integral_equals_its_single_call(self, monkeypatch):
        K = 40
        alone, together = self._family(1, K)
        singles = [alone(k) for k in range(K)]
        assert len({r.subdivisions for r in singles}) > 5  # refined unequally
        # value, error and subdivisions, bit for bit
        assert together(list(range(K))) == singles
        # chunk boundaries inside an integral's panels, a narrow window
        monkeypatch.setattr(quadrature, "_INTERVAL_CHUNK_NODES", 15 * 7)
        monkeypatch.setattr(quadrature, "_INTERVAL_WINDOW", 3)
        assert together(list(range(K))) == singles

    def test_results_do_not_depend_on_batch_mates(self):
        K = 24
        alone, together = self._family(2, K)
        full = together(list(range(K)))
        rng = np.random.default_rng(3)
        for _ in range(3):
            ks = rng.permutation(K)[: rng.integers(1, K)].tolist()
            assert together(ks) == [full[k] for k in ks]

    def test_per_integral_tol(self):
        # one absolute tol per integral, each met as in its single call
        K = 12
        rng = np.random.default_rng(5)
        freq = rng.uniform(0.5, 9.0, K)
        tols = (10.0 ** rng.uniform(-13.0, -3.0, K)).tolist()

        def f(x, owner):
            return np.exp(np.sin(freq[owner] * x))

        singles = [integrate_interval(lambda x, k=k: f(x, np.full(x.shape, k)),
                                      0.0, 5.0, tols[k]) for k in range(K)]
        assert len({r.subdivisions for r in singles}) > 3
        together = integrate_intervals(f, [0.0] * K, [5.0] * K, tols)
        assert together == singles
        assert all(r.error_estimate <= t for r, t in zip(together, tols))
        # a number is the same tol for every integral
        assert integrate_intervals(f, [0.0] * K, [5.0] * K, tols[0]) == \
            integrate_intervals(f, [0.0] * K, [5.0] * K, [tols[0]] * K)
        # and one rel_tol per integral likewise
        rel_tols = (10.0 ** rng.uniform(-13.0, -3.0, K)).tolist()
        singles = [integrate_interval(lambda x, k=k: f(x, np.full(x.shape, k)),
                                      0.0, 5.0, 0.0, rel_tol=rel_tols[k])
                   for k in range(K)]
        assert len({r.subdivisions for r in singles}) > 3
        together = integrate_intervals(f, [0.0] * K, [5.0] * K, 0.0, rel_tol=rel_tols)
        assert together == singles
        assert all(r.error_estimate <= t * abs(r.value) for r, t in zip(together, rel_tols))
        assert integrate_intervals(f, [0.0] * K, [5.0] * K, 0.0, rel_tol=rel_tols[0]) == \
            integrate_intervals(f, [0.0] * K, [5.0] * K, 0.0, rel_tol=[rel_tols[0]] * K)

    def test_panel_sums_do_not_depend_on_the_round(self):
        # each panel's (value, error), evaluated alone as its own integral
        # and in one round with the panels of 29 other integrals, one of
        # which is not finite; the scales span e^-20 to e^20
        rng = np.random.default_rng(4)
        K, bad = 30, 7
        scale = np.exp(rng.uniform(-20.0, 20.0, K))
        freq = rng.uniform(0.5, 9.0, K)
        lows = [rng.uniform(-2.0, 2.0, n) for n in rng.integers(1, 60, K)]
        highs = [lo + rng.uniform(1e-3, 3.0, lo.size) for lo in lows]

        def f(x, owner):
            out = scale[owner] * np.exp(np.sin(freq[owner] * x)) * (1.5 + np.cos(x))
            return np.where((owner == bad) & (x > 0.0), np.inf, out)

        owner = np.repeat(np.arange(K), [lo.size for lo in lows])
        values, errors, bad_x = quadrature._panel_sums(
            f, np.concatenate(lows), np.concatenate(highs), owner)
        failing = ~np.isnan(bad_x)
        assert set(owner[failing].tolist()) == {bad}
        assert (bad_x[failing] > 0.0).all()
        for k in set(range(K)) - {bad}:
            alone = [quadrature._panel_sums(lambda x, owner: f(x, owner + k),
                                            np.array([lo]), np.array([hi]),
                                            np.zeros(1, dtype=int))[:2]
                     for lo, hi in zip(lows[k].tolist(), highs[k].tolist())]
            mine = owner == k
            assert list(zip(values[mine].tolist(), errors[mine].tolist())) == [
                (v[0], e[0]) for v, e in alone]

    def test_calls_are_chunked_to_the_node_cap(self):
        sizes = []

        def f(x, owner):
            sizes.append(x.size)
            return np.exp(-x) * (1.0 + owner)

        # 16 seed panels per integral, so the first round of 64 integrals
        # holds 1,024 panels, four full calls
        K = 64
        res = integrate_intervals(f, [0.0] * K, [1.0] * K, 0.0,
                                  breakpoints=[np.linspace(0.0, 1.0, 17)[1:-1]] * K,
                                  rel_tol=1e-12)
        assert max(sizes) == quadrature._INTERVAL_CHUNK_NODES
        assert all(s % 15 == 0 for s in sizes)
        assert res[5].value == pytest.approx(6.0 * (1.0 - math.exp(-1.0)), rel=1e-13)

    def test_panels_at_the_width_floor_end_the_refinement(self):
        # a jump on [1, 1 + 64 ulp] at tol 0: every panel is halved down to
        # one ulp, where its midpoint rounds onto an end; it is kept, its
        # error still counts, and the integral ends with nothing to split.
        # Pinned, alone and in lockstep with two smooth integrals that are
        # still refining when it reaches the floor.
        ulp = math.ulp(1.0)
        a, b, c = 1.0, 1.0 + 64 * ulp, 1.0 + 21 * ulp

        def jump(x):
            return np.where(x > c, 1.0, 0.0)

        pin = QuadResult(9.547918011776321e-15, 3.392101892450351e-29, 97)
        assert integrate_interval(jump, a, b, 0.0) == pin
        owners = []

        def f(x, owner):
            owners.append(set(owner.tolist()))
            return np.where(owner == 1, jump(x), np.exp(np.sin(9.0 * x)))

        res = integrate_intervals(f, [0.0, a, 0.0], [3.0, b, 5.0], 0.0,
                                  rel_tol=[1e-13, 0.0, 1e-13])
        assert res[1] == pin
        assert [r.subdivisions for r in res] == [63, 97, 111]
        assert owners[-1] == {1, 2}

    def test_every_call_sees_owner_nondecreasing(self, monkeypatch):
        # radial_battery's integrand cuts a call into terms by
        # np.searchsorted(owner, ...), so the engine promises owner sorted
        # in every call: across chunk boundaries, rounds and a window that
        # starts integrals as others finish
        monkeypatch.setattr(quadrature, "_INTERVAL_CHUNK_NODES", 15 * 7)
        monkeypatch.setattr(quadrature, "_INTERVAL_WINDOW", 3)
        K = 12
        freq = np.random.default_rng(6).uniform(0.5, 9.0, K)
        owners = []

        def f(x, owner):
            owners.append(owner)
            return np.exp(np.sin(freq[owner] * x))

        integrate_intervals(f, [0.0] * K, [5.0] * K, 0.0, rel_tol=1e-12)
        assert len(owners) > 20
        assert sum(len(set(o.tolist())) > 1 for o in owners) > 10
        assert all((np.diff(o) >= 0).all() for o in owners)

    def test_tolerance_not_achieved_carries_failing_integral(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 40)

        def pole(x):
            return 1.0 / np.sqrt(np.abs(x - 0.31831) + 1e-300)

        def f(x, owner):
            return np.where(owner % 2 == 1, pole(x), np.exp(x))

        with pytest.raises(ToleranceNotAchieved) as alone:
            integrate_interval(pole, 0.0, 1.0, 1e-13)
        with pytest.raises(ToleranceNotAchieved) as together:
            integrate_intervals(f, [0.0] * 4, [1.0] * 4, 1e-13)
        # the first failing integral is reported: index 1 of 1 and 3
        assert together.value.result == alone.value.result
        assert str(together.value) == str(alone.value)

    def test_non_finite_integrand_fails_its_integral(self):
        def f(x, owner):
            return np.where((owner == 2) & (x > 0.5), np.inf, x)

        with pytest.raises(QuadratureError, match="not finite") as exc:
            integrate_intervals(f, [0.0] * 4, [1.0] * 4, 1e-12)
        assert not isinstance(exc.value, ToleranceNotAchieved)
        with pytest.raises(ValueError, match="a < b"):
            integrate_intervals(f, [0.0, 1.0], [1.0, 1.0], 1e-12)

        # integral 2 meets NaN, or +inf and -inf in one panel, whose K15 sum
        # is then NaN; it fails alone, and its batch-mates refine to the
        # end, on the nodes they take when it is finite
        def counted(bad):
            nodes = np.zeros(4, dtype=int)

            def f(x, owner):
                np.add.at(nodes, owner, 1)
                out = np.exp(np.sin(9.0 * x))
                return out if bad is None else np.where((owner == 2) & (x > 0.5),
                                                        bad(x), out)

            return f, nodes

        f, clean = counted(None)
        integrate_intervals(f, [0.0] * 4, [1.0] * 4, 1e-12)
        assert clean.min() > 15
        for bad in (lambda x: np.nan, lambda x: np.where(x < 0.75, np.inf, -np.inf)):
            f, nodes = counted(bad)
            with pytest.raises(QuadratureError, match="not finite") as exc:
                integrate_intervals(f, [0.0] * 4, [1.0] * 4, 1e-12)
            assert not isinstance(exc.value, ToleranceNotAchieved)
            assert nodes[2] == 15
            assert np.array_equal(np.delete(nodes, 2), np.delete(clean, 2))

    def test_window_is_refilled_after_failures(self, monkeypatch):
        # two integrals in flight of 7: integral 1 meets NaN after a few
        # rounds and integral 4 exhausts the panel budget, and the integrals
        # that start in their place refine as in a clean run
        monkeypatch.setattr(quadrature, "_INTERVAL_WINDOW", 2)
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 40)
        K = 7
        freq = 1.0 + np.arange(K)

        def counted(broken):
            nodes = np.zeros(K, dtype=int)

            def f(x, owner):
                np.add.at(nodes, owner, 1)
                out = np.exp(np.sin(freq[owner] * x))
                if broken:
                    # a kink at 0.5 draws the refinement to it
                    kink = np.sqrt(np.abs(x - 0.5))
                    hole = (owner == 1) & (x > 0.5) & (x < 0.501)
                    out = np.where((owner == 1) | (owner == 4), kink, out)
                    out[hole] = np.nan
                return out

            return f, nodes

        f, clean = counted(False)
        integrate_intervals(f, [0.0] * K, [1.0] * K, 1e-12)
        f, nodes = counted(True)
        with pytest.raises(QuadratureError, match="not finite") as exc:
            integrate_intervals(f, [0.0] * K, [1.0] * K, 1e-12)
        assert not isinstance(exc.value, ToleranceNotAchieved)
        assert nodes[1] > 15
        assert nodes[4] >= 15 * 40
        others = [0, 2, 3, 5, 6]
        assert np.array_equal(nodes[others], clean[others])
        assert integrate_intervals(f, [], [], 1e-12) == []


class TestPowerSingular:
    def test_pure_power_exact(self):
        # int_0^1 r^(delta-1) dr = 1/delta, for delta down to 1e-3
        for delta in (0.5, 0.05, 1e-3):
            r = power_singular_integral(lambda x: np.ones_like(x), delta, 1.0, 1e-12)
            assert r.value == pytest.approx(1.0 / delta, rel=1e-11)

    def test_power_times_smooth(self):
        # int_0^1 r^(delta-1) e^r dr via series oracle sum 1/(k!(delta+k))
        delta = 1e-3
        oracle = sum(1.0 / (math.factorial(k) * (delta + k)) for k in range(40))
        r = power_singular_integral(np.exp, delta, 1.0, 1e-12)
        assert r.value == pytest.approx(oracle, rel=1e-10)

    def test_rejects_nonintegrable(self):
        with pytest.raises(NonIntegrableSingularity):
            power_singular_integral(np.exp, -0.2, 1.0, 1e-8)

    @staticmethod
    def _split_alone(g, delta, b, rel_tol):
        # the exact split of power_singular_integral through integrate_interval,
        # with C = 2 g(h) - g(2h) at h = 1e-8 b, whose error
        # |2 g(h) - 3 g(2h) + g(4h)| / 3 the estimate counts b^delta / delta times
        g_h, g_2h, g_4h = g(np.array([1e-8, 2e-8, 4e-8]) * b)
        c = float(2.0 * g_h - g_2h)
        c_err = float(abs(2.0 * g_h - 3.0 * g_2h + g_4h)) / 3.0
        lead = c * b**delta / delta

        def rest(t):
            return b**delta * np.exp(-delta * t) * (g(b * np.exp(-t)) - c)

        r = integrate_interval(rest, 0.0, 45.0, rel_tol * abs(lead), rel_tol=rel_tol)
        tail = abs(float(rest(np.array([45.0]))[0])) / (1.0 + delta)
        return QuadResult(lead + r.value, r.error_estimate + tail + c_err * b**delta / delta,
                          r.subdivisions)

    def test_batch_equals_single_calls(self):
        # scalar exponents 0.5 and 2 take numpy's sqrt and square paths,
        # which a batch keeps by calling each g on its own nodes
        cases = [
            (lambda s: (1.0 - s) ** 0.5, 0.1, 1.0),
            (lambda s: (1.0 - s) ** 2.0, 1e-3, 1.0),
            (np.exp, 0.3, 2.0),
            (lambda s: np.cos(s) ** 1.5, 0.7, 0.5),
        ]
        gs, deltas, bs = map(list, zip(*cases))
        for rel_tol in (1e-11, 1e-9, 1e-6):
            singles = [self._split_alone(g, d, b, rel_tol) for g, d, b in cases]
            assert [power_singular_integral(g, d, b, rel_tol)
                    for g, d, b in cases] == singles
            assert power_singular_integrals(gs, deltas, bs, rel_tol) == singles

    def test_graded_panels_cannot_do_this(self):
        # documents why the substitution exists: with delta = 1e-3 the
        # graded-panel route misses >2% of the mass below any cutoff
        delta = 1e-3
        cutoff_mass = (1e-12) ** delta / delta
        assert cutoff_mass / (1.0 / delta) > 0.97


def _reference_cell(f, los, his):
    """Per-cell tensor GK15 on meshgrid arrays, contracted one axis at a time."""
    d = len(los)
    axes = [0.5 * (lo + hi) + 0.5 * (hi - lo) * quadrature._XGK
            for lo, hi in zip(los, his)]
    vals = f(*np.meshgrid(*axes, indexing="ij"))
    scale = np.prod([0.5 * (hi - lo) for lo, hi in zip(los, his)])
    full = vals
    for _ in range(d):
        full = np.tensordot(full, quadrature._WGK, axes=([0], [0]))
    k15 = float(full) * scale
    errors = []
    for axis in range(d):
        reduced = vals
        for j in range(d):
            weights = quadrature._WG if j == axis else quadrature._WGK
            reduced = np.tensordot(reduced, weights, axes=([0], [0]))
        errors.append(abs(float(reduced) * scale - k15))
    return k15, sum(errors), int(np.argmax(errors))


_CELL_INTEGRANDS = {
    1: lambda x: np.exp(np.sin(3 * x)),
    2: lambda x, y: np.cos(x * y) * np.exp(x - y * y),
    3: lambda x, y, z: np.exp(-x * x) / (1.0 + (y - z) ** 2 + x * z),
}


class TestCells:
    def test_2d_product(self):
        r = integrate_cells(
            lambda x, y: np.sin(x) * np.cos(y), [(0.0, 1.0), (0.0, 2.0)], 1e-12
        )
        exact = (1 - math.cos(1.0)) * math.sin(2.0)
        assert abs(r.value - exact) <= r.error_estimate + 1e-14

    def test_3d_gaussian(self):
        r = integrate_cells(
            lambda x, y, z: np.exp(-x * x - y * y - z * z),
            [(-5.5, 5.5), (-5.5, 5.5), (-5.5, 5.5)],
            1e-9,
        )
        assert r.value == pytest.approx(math.pi**1.5, abs=1e-8)

    def test_rejects_bad_box(self):
        with pytest.raises(ValueError):
            integrate_cells(lambda x, y: x + y, [(0.0, 1.0), (2.0, 2.0)], 1e-8)

    @pytest.mark.parametrize("d", [1, 4])
    def test_rejects_dimensions_other_than_2_and_3(self, d):
        # one axis has the 1-D engine; four have no budget
        with pytest.raises(ValueError, match=f"dimensions 2 and 3, got {d}"):
            integrate_cells(lambda *xs: 1.0, [(0.0, 1.0)] * d, 1e-8)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_batched_rule_matches_per_cell_reference(self, d):
        rng = np.random.default_rng(d)
        los = rng.uniform(-1.0, 0.5, (7, d))
        his = los + rng.uniform(0.1, 1.5, (7, d))
        f = _CELL_INTEGRANDS[d]
        values, errors, worst = quadrature._cell_rule(f, los, his)
        for i in range(len(los)):
            k15, err, ax = _reference_cell(f, los[i], his[i])
            assert values[i] == pytest.approx(k15, rel=1e-13, abs=0.0)
            assert errors[i] == pytest.approx(err, rel=1e-9, abs=1e-14 * abs(k15))
            assert worst[i] == ax

    def test_scalar_and_one_axis_integrands(self):
        r = integrate_cells(lambda x, y, z: 2.0, [(0.0, 1.0), (0.0, 2.0), (0.0, 3.0)],
                            1e-12)
        assert r.value == pytest.approx(12.0, rel=1e-14)
        r = integrate_cells(lambda x, y: np.exp(y), [(0.0, 3.0), (0.0, 1.0)], 1e-12)
        assert r.value == pytest.approx(3.0 * (math.e - 1.0), rel=1e-13)
        r = integrate_cells(lambda x, y, z: np.cos(x), [(0.0, 1.0), (0.0, 2.0),
                                                      (0.0, 0.5)], 1e-12)
        assert r.value == pytest.approx(math.sin(1.0), rel=1e-13)

    def test_non_finite_value_in_a_batch_raises(self):
        # the pole lies beyond every node of the box, so it is met in a
        # round of several children, and the whole round fails
        for bad in (np.inf, np.nan):
            sizes = []

            def f(x, y):
                sizes.append(x.shape[0])
                peak = 1.0 / (1e-3 + (1.0 - x) ** 2 + (1.0 - y) ** 2)
                return np.where((x > 0.999) & (y > 0.999), bad, peak)

            with pytest.raises(QuadratureError, match="not finite"):
                integrate_cells(f, [(0.0, 1.0), (0.0, 1.0)], 1e-8)
            assert sizes[0] == 1 and sizes[-1] > 2

    @pytest.mark.parametrize("bad", [0, 1])
    def test_non_finite_value_in_any_component_raises(self, bad):
        # the integrand is a product of two one-axis components, returned
        # unbroadcast; a pole in either one must fail the call
        good = lambda t: 1.0 + t
        pole = lambda t: np.where(t > 0.8, np.nan if bad else np.inf, t)
        fx, fy = (pole, good) if bad == 0 else (good, pole)

        with pytest.raises(QuadratureError, match="not finite"):
            integrate_cells(lambda x, y: fx(x) * fy(y), [(0.0, 1.0), (0.0, 1.0)], 1e-8)

    def test_budget_exhaustion_carries_best_value(self, monkeypatch):
        monkeypatch.setitem(quadrature._MAX_CELLS, 2, 30)
        f = lambda x, y: 1.0 / np.sqrt(np.abs(x - 0.31831) + np.abs(y - 0.4142) + 1e-300)
        with pytest.raises(ToleranceNotAchieved) as exc:
            integrate_cells(f, [(0.0, 1.0), (0.0, 1.0)], 1e-13)
        best = exc.value.result
        assert best.subdivisions >= 30
        assert best.error_estimate > 1e-13
        assert best.value > 0

    _BOX = [(0.0, 1.0), (0.0, 2.0), (-1.0, 1.0)]

    @staticmethod
    def _smooth(x, y, z):
        return np.exp(-x * y) * np.cos(z)

    @staticmethod
    def _peaked(x, y, z):
        return 1.0 / (0.02 + (x - 0.3) ** 2 + (y - 1.0) ** 2 + z * z)

    @pytest.mark.parametrize("d, chunk_nodes", [
        (3, quadrature._CELL_CHUNK_NODES), (2, 11 * 15**2),
    ])
    def test_rounds_fill_at_most_one_chunk(self, monkeypatch, d, chunk_nodes):
        monkeypatch.setattr(quadrature, "_CELL_CHUNK_NODES", chunk_nodes)
        chunk = chunk_nodes // 15**d
        sizes = []
        peaked = lambda *xs: 1.0 / (0.02 + sum((x - 0.3) ** 2 for x in xs))

        def f(*xs):
            sizes.append(xs[0].shape[0])
            return peaked(*xs)

        r = integrate_cells(f, [(0.0, 1.0)] * d, 1e-12)
        # the box, then one call per round, each evaluating every child once
        assert sizes[0] == 1
        sizes = sizes[1:]
        assert sum(sizes) == r.subdivisions - 1
        # a large excess fills whole rounds: as many pairs of children as
        # one chunk holds, never more
        assert max(sizes) == 2 * (chunk // 2)

    @pytest.mark.parametrize("budget", [30, 31, 101, 400])
    def test_budget_bounds_every_round(self, monkeypatch, budget):
        monkeypatch.setitem(quadrature._MAX_CELLS, 2, budget)
        f = lambda x, y: 1.0 / np.sqrt(np.abs(x - 0.31831) + np.abs(y - 0.4142) + 1e-300)
        with pytest.raises(ToleranceNotAchieved) as exc:
            integrate_cells(f, [(0.0, 1.0), (0.0, 1.0)], 1e-13)
        best = exc.value.result
        # one seed cell, two children per split: the budget is met or
        # passed by one, never by a whole round
        assert budget <= best.subdivisions <= budget + 1
        assert best.subdivisions % 2 == 1
        assert math.isfinite(best.value) and best.error_estimate > 1e-13

    def test_cells_at_the_width_floor_end_the_refinement(self):
        # x spans one ulp, so no split on it moves its midpoint off an end:
        # the box keeps its value and its error, and with nothing left to
        # split the result is returned as it stands
        box = [(1.0, math.nextafter(1.0, 2.0)), (0.0, 1.0)]
        step = lambda x, y: np.where(x >= 1.0, 1.0 + y * y, y * y)
        seed = integrate_cells(step, box, math.inf)
        assert seed.error_estimate > 0.0
        r = integrate_cells(step, box, 0.0)
        assert r == seed

    def test_refinement_cell_counts(self):
        # pinned: a change in the split order or the stop rule moves them
        r = integrate_cells(self._peaked, self._BOX, 1e-9)
        assert r.subdivisions == 235
        r = integrate_cells(lambda x, y, z: np.exp(-x * x - y * y - z * z),
                            [(-5.5, 5.5)] * 3, 1e-9)
        assert r.subdivisions == 395

    # (integrand, box, tol, rel_tol, value, error, cells), value and error
    # as float.hex: the engine's results bit for bit, as the sums of the
    # tensor rule's matmul give them on the host that pinned them (see
    # ROADMAP item 12); a change in the split order, the stop rule or the
    # sums moves them
    _PINNED = {
        "2d tol": (lambda x, y: 1.0 / (0.01 + (x - 0.3) ** 2 + (y - 0.7) ** 2),
                   [(0.0, 1.0), (0.0, 1.0)], 1e-9, 0.0,
                   "0x1.42c67c1272379p+3", "0x1.f63b460000000p-31", 67),
        "2d rel_tol": (lambda x, y: np.cos(7.0 * x) * np.exp(y) + x * y,
                       [(-1.0, 2.0), (0.5, 1.5)], 0.0, 1e-11,
                       "0x1.15599c96f13a1p+1", "0x1.5e80000000000p-42", 15),
        "3d tol": (lambda x, y, z: 1.0 / (0.02 + (x - 0.3) ** 2 + (y - 1.0) ** 2 + z * z),
                   [(0.0, 1.0), (0.0, 2.0), (-1.0, 1.0)], 1e-9, 0.0,
                   "0x1.14a545150165ap+3", "0x1.0cac380000000p-30", 235),
        "3d rel_tol": (lambda x, y, z: (np.exp(-x * x - 2.0 * y * y - z * z)
                                        * (1.0 + 0.5 * np.sin(3.0 * z))),
                       [(-5.5, 5.5)] * 3, 0.0, 1e-8,
                       "0x1.f7fccdff343dbp+1", "0x1.484e88434779ap-25", 269),
        # x spans one ulp: the cells split on y until each one's worst axis
        # is x, at the width floor, and the result is returned as it stands
        "width floor": (lambda x, y: (np.where(x >= 1.0, 1.0 + y * y, y * y)
                                      + 1e3 / (0.01 + (y - 0.4) ** 2)),
                        [(1.0, math.nextafter(1.0, 2.0)), (0.0, 1.0)], 0.0, 1e-6,
                        "0x1.aacef1e541eccp-38", "0x1.76ebb33958000p-57", 9),
    }

    @pytest.mark.parametrize("case", list(_PINNED))
    def test_pinned_results(self, case):
        f, box, tol, rel_tol, value, error, cells = self._PINNED[case]
        r = integrate_cells(f, box, tol, rel_tol)
        assert (r.value.hex(), r.error_estimate.hex(), r.subdivisions) == (
            value, error, cells)

    def test_pinned_tolerance_not_achieved(self, monkeypatch):
        monkeypatch.setitem(quadrature._MAX_CELLS, 2, 400)
        f = lambda x, y: 1.0 / np.sqrt(np.abs(x - 0.31831) + np.abs(y - 0.4142) + 1e-300)
        with pytest.raises(ToleranceNotAchieved) as exc:
            integrate_cells(f, [(0.0, 1.0), (0.0, 1.0)], 1e-13)
        best = exc.value.result
        assert (best.value.hex(), best.error_estimate.hex(), best.subdivisions) == (
            "0x1.8733da5e12d6fp+0", "0x1.d8e3c7b0ab8fcp-15", 401)

    def test_fixed_point_is_exact(self):
        # every double, subnormals and both zeros included, as an exact
        # integer in units of 2**-1074
        rng = np.random.default_rng(11)
        xs = rng.standard_normal(300) * 2.0 ** rng.integers(-1074, 1000, 300)
        xs = xs.tolist() + [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                            1.7976931348623157e308, 1.0, 0.1]
        for x in xs:
            assert quadrature._fixed(x) == Fraction(x) * 2**1074, x

    def test_seed_stop_agrees_with_exact_integer_sum(self, monkeypatch):
        # the stop test reads the exact sum, rounded once; the reference is
        # the exact rational sum, rounded once by Fraction's float(), and
        # fsum is correctly rounded too, so both give the same double even
        # with heavy cancellation
        rng = np.random.default_rng(5)
        xs = rng.standard_normal(400) * 10.0 ** rng.integers(-300, 300, 400)
        xs = np.concatenate([xs, -xs[:200], [1e-300, 5e-324]])
        assert math.fsum(xs) == float(sum(map(Fraction, xs.tolist())))
        # cell values of both signs, up to 1.5e17, that nearly cancel: the
        # result is the exact sum over the unsplit cells, rounded once
        cells = []
        rule = quadrature._cell_rule

        def recording(f, los, his):
            out = rule(f, los, his)
            cells.extend(zip(map(tuple, los.tolist()), map(tuple, his.tolist()),
                             out[0].tolist(), out[1].tolist()))
            return out

        monkeypatch.setattr(quadrature, "_cell_rule", recording)
        monkeypatch.setitem(quadrature._MAX_CELLS, 2, 1001)
        # constant in y, so a cell may also be split on y
        wave = lambda x, y: 1e20 * np.sin(400.0 * np.pi * x) + x
        with pytest.raises(ToleranceNotAchieved) as exc:
            integrate_cells(wave, [(0.0, 1.0), (0.0, 1.0)], 0.0)
        r = exc.value.result
        split = {(lo, hi) for lo, hi, _, _ in cells
                 for lo2, hi2, _, _ in cells
                 if (lo2, hi2) != (lo, hi)
                 and all(a <= a2 and b2 <= b for a, b, a2, b2 in zip(lo, hi, lo2, hi2))}
        leaves = [c for c in cells if c[:2] not in split]
        # every cell made is counted, and each split makes two
        assert len(cells) == r.subdivisions == 2 * len(leaves) - 1
        for got, k in ((r.value, 2), (r.error_estimate, 3)):
            assert got == float(sum(Fraction(c[k]) for c in leaves))
        assert abs(r.value - 0.5) <= r.error_estimate
        monkeypatch.undo()
        # a tolerance equal to the box's error stops on the box; the next
        # double below it splits
        monkeypatch.setitem(quadrature._MAX_CELLS, 3, 3)
        for f in (self._smooth, self._peaked):
            seed = integrate_cells(f, self._BOX, math.inf)
            assert seed.subdivisions == 1
            assert integrate_cells(f, self._BOX, seed.error_estimate) == seed
            try:
                refined = integrate_cells(
                    f, self._BOX, math.nextafter(seed.error_estimate, 0.0))
            except ToleranceNotAchieved as exc:
                refined = exc.result
            assert refined.subdivisions == 3


def test_quadresult_validates_error_sign():
    with pytest.raises(ValueError):
        QuadResult(1.0, -1e-3, 1)


class TestQuadResultAlgebra:
    """Each operator against its explicit first-order error formula."""

    A = QuadResult(-3.0, 0.1, 4)
    B = QuadResult(2.5, 0.05, 5)

    @staticmethod
    def _fields(r):
        return (r.value, r.error_estimate, r.subdivisions)

    def test_sum_and_difference(self):
        a, b = self.A, self.B
        assert self._fields(a + b) == (-0.5, 0.1 + 0.05, 9)
        assert self._fields(a - b) == (-5.5, 0.1 + 0.05, 9)
        assert self._fields(b - a) == (5.5, 0.05 + 0.1, 9)

    @pytest.mark.parametrize("c", [-2.5, 0.0, 3.0, np.float64(-1.75)])
    def test_scalar_multiple(self, c):
        b = self.B
        expected = (c * 2.5, abs(c) * 0.05, 5)
        assert self._fields(c * b) == expected
        assert self._fields(b * c) == expected
        assert isinstance(c * b, QuadResult)

    def test_product(self):
        a, b = self.A, self.B
        expected = (-3.0 * 2.5, 0.1 * 2.5 + 3.0 * 0.05, 9)
        assert self._fields(a * b) == expected
        assert self._fields(b * a) == (-7.5, 0.05 * 3.0 + 2.5 * 0.1, 9)

    def test_quotient(self):
        a, b = self.A, self.B
        q = -3.0 / 2.5
        assert self._fields(a / b) == (q, (0.1 + abs(q) * 0.05) / 2.5, 9)
        q = 2.5 / -3.0
        assert self._fields(b / a) == (q, (0.05 + abs(q) * 0.1) / 3.0, 9)

    @pytest.mark.parametrize("s", [0.4, -1.5, 2.0, 3.5])
    def test_power(self, s):
        b = self.B
        expected = (2.5**s, abs(s) * 2.5 ** (s - 1.0) * 0.05, 5)
        assert self._fields(b**s) == expected

    def test_overflow_raises_quadrature_error(self):
        # not a bare OverflowError from float ** and not an inf result
        big = QuadResult(1e200, 1e190, 1)
        for op in (lambda: big**2.0, lambda: big * big, lambda: 1e200 * big,
                   lambda: big / QuadResult(1e-200, 0.0, 1)):
            with pytest.raises(QuadratureError, match="not finite"):
                op()

    def test_first_order_bound(self):
        # a value moved by its error moves the result by at most the
        # propagated error, up to second-order terms
        a, b = QuadResult(1.3, 1e-6, 1), QuadResult(0.8, 2e-6, 1)
        for f in (lambda x, y: x * y, lambda x, y: x / y,
                  lambda x, y: x - 2.0 * y, lambda x, y: x**2.5):
            bound = f(a, b).error_estimate
            for da in (-1, 1):
                for db in (-1, 1):
                    moved = f(QuadResult(1.3 + da * 1e-6, 0.0, 1),
                              QuadResult(0.8 + db * 2e-6, 0.0, 1)).value
                    assert abs(moved - f(a, b).value) <= bound * (1 + 1e-5)
