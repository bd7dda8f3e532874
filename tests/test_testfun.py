"""Test-function constructors: values, derivatives, supports."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from hyplab.core import Params
from hyplab.testfun import (
    make_bump,
    make_veps,
    mollifier_derivative,
    mollifier_value,
    mollifier_value_and_derivative,
)


def check_derivative(u, rng: np.random.Generator, n: int = 32,
                     rel_tol: float = 1e-6) -> None:
    """Central finite-difference check of u.derivative away from kinks."""
    lo, hi = u.support
    hi_eff = min(hi, lo + 50.0) if math.isinf(hi) else hi
    pts = rng.uniform(lo, hi_eff, size=4 * n)
    guard = 1e-3 * (hi_eff - lo)
    for b in (lo, hi_eff, *u.breakpoints):
        pts = pts[np.abs(pts - b) > guard]
    pts = pts[:n]
    h = 1e-6 * (hi_eff - lo)
    fd = (u.value(pts + h) - u.value(pts - h)) / (2.0 * h)
    an = u.derivative(pts)
    scale = np.maximum(np.abs(an), 1e-3 * np.max(np.abs(an) + 1e-300))
    bad = np.abs(fd - an) > rel_tol * np.maximum(scale, 1e-12)
    if np.any(bad):
        worst = pts[bad][0]
        raise AssertionError(
            f"derivative inconsistent at r={worst}: fd={fd[bad][0]} "
            f"analytic={an[bad][0]}"
        )


def check_gradient(u, rng: np.random.Generator, n: int = 32,
                   rel_tol: float = 1e-5) -> None:
    """Finite-difference check of u.gradient_norm against u.value at random
    points of a fixed box of the half-space."""
    x1 = rng.uniform(-2.0, 2.0, n)
    rho = rng.uniform(0.1, 2.0, n)
    y = rng.uniform(0.3, 3.0, n)
    h = 1e-6
    gx = (u.value(x1 + h, rho, y) - u.value(x1 - h, rho, y)) / (2 * h)
    gr = (u.value(x1, rho + h, y) - u.value(x1, rho - h, y)) / (2 * h)
    gy = (u.value(x1, rho, y + h) - u.value(x1, rho, y - h)) / (2 * h)
    fd = np.sqrt(gx**2 + gr**2 + gy**2)
    an = np.asarray(u.gradient_norm(x1, rho, y), dtype=float)
    scale = np.maximum(np.abs(an), 1e-6 * (np.max(np.abs(an)) + 1e-300))
    bad = np.abs(fd - an) > rel_tol * np.maximum(scale, 1e-10)
    if np.any(bad):
        i = int(np.argmax(np.abs(fd - an)))
        raise AssertionError(
            f"gradient norm inconsistent at ({x1[i]}, {rho[i]}, {y[i]}): "
            f"fd={fd[i]} analytic={an[i]}"
        )


class TestMollifierBump:
    def test_center_value(self):
        u = make_bump(1.0, 3.0)
        assert float(u(2.0)) == pytest.approx(0.36787944117144233, rel=1e-15)

    def test_vanishes_at_endpoints_and_outside(self):
        u = make_bump(1.0, 3.0)
        assert float(u(1.0)) == 0.0
        assert float(u(3.0)) == 0.0
        assert float(u(0.5)) == 0.0
        assert float(u(3.5)) == 0.0

    def test_derivative_zero_at_center(self):
        u = make_bump(0.3, 1.7)
        assert float(u.derivative(np.array([1.0]))[0]) == 0.0

    def test_fd_consistency(self):
        u = make_bump(0.5, 4.0)
        check_derivative(u, np.random.default_rng(42))

    def test_elementwise(self):
        # value and derivative give each node the same bits alone (a
        # number, a 0-d array, a length-1 array) as in a mixed array, whose
        # nodes outside the support take the masked branch; a 0-d input
        # gives 0-d arrays, for scalar and per-node (mid, half)
        r = np.array([0.5, 1.0, 1.0 + 1e-12, 1.3, 2.0, 2.7, 3.0 - 1e-12, 3.0, 3.5])
        mids, halfs = np.full(r.shape, 2.0), np.linspace(0.9, 1.1, r.size)

        def both(x, mid, half):
            return (mollifier_value(x, mid, half),
                    *mollifier_value_and_derivative(x, mid, half))

        for mid, half in ((2.0, 1.0), (mids, halfs)):
            mixed = both(r, mid, half)
            for i, x in enumerate(r.tolist()):
                m, h = (mid, half) if np.ndim(mid) == 0 else (mid[i], half[i])
                for arg in (x, np.array(x), np.array([x])):
                    got = both(arg, m, h)
                    assert all(type(g) is np.ndarray and g.shape == np.shape(arg)
                               for g in got)
                    assert [g.item() for g in got] == [a[i] for a in mixed]
                    assert [np.signbit(g).item() for g in got] == \
                        [np.signbit(a[i]) for a in mixed]

    def test_value_and_derivative_in_one_pass(self):
        # inside the support, on its ends, one ulp either side of them and
        # outside, for scalar and per-node (mid, half)
        ends = [1.0, 3.0]
        r = np.concatenate([
            np.linspace(0.0, 4.0, 41), ends,
            [math.nextafter(e, d) for e in ends for d in (0.0, 4.0)],
        ])
        mids = np.full(r.shape, 2.0)
        halfs = np.where(r < 2.5, 1.0, 0.75)
        for mid, half in ((2.0, 1.0), (mids, halfs)):
            value, derivative = mollifier_value_and_derivative(r, mid, half)
            assert np.array_equal(value, mollifier_value(r, mid, half))
            assert np.array_equal(derivative, mollifier_derivative(r, mid, half))
            t = (r - mid) / half
            inside = np.abs(t) < 1.0
            assert inside.any() and not inside.all()
            # d/dr exp(-1/(1-t^2)) = exp(-1/(1-t^2)) (-2t / (1-t^2)^2) / half
            ti = t[inside]
            hi = np.broadcast_to(half, r.shape)[inside]
            expected = (np.exp(-1.0 / (1.0 - ti**2)) * -2.0 * ti
                        / (1.0 - ti**2) ** 2 / hi)
            np.testing.assert_allclose(derivative[inside], expected,
                                       rtol=1e-13, atol=0.0)
            assert not derivative[~inside].any()

    def test_rejects_bad_support(self):
        with pytest.raises(ValueError):
            make_bump(2.0, 1.0)
        with pytest.raises(ValueError):
            make_bump(0.0, math.inf)


class TestHardyProfile:
    def test_branch_values(self):
        p, eps, delta = 3.0, 0.25, 0.1
        v = make_veps(p, eps, delta)
        a = (p - 1.0 + delta) / p
        assert float(v(eps / 2)) == pytest.approx((eps / 2) ** a, rel=1e-15)
        assert float(v(0.5)) == pytest.approx(eps**a, rel=1e-15)
        assert float(v.derivative(np.array([0.5]))[0]) == 0.0
        assert float(v(1.5)) == pytest.approx(eps**a * 0.5, rel=1e-15)
        assert float(v(2.0)) == 0.0
        assert float(v(5.0)) == 0.0

    def test_two_kinks_with_derivative_jumps(self):
        v = make_veps(2.0, 0.3, 0.05)
        d = v.derivative
        # jump at eps and at 1; continuous ramp slope on (1, 2)
        assert float(d(np.array([0.299]))[0]) > 0
        assert float(d(np.array([0.301]))[0]) == 0.0
        assert float(d(np.array([1.5]))[0]) == pytest.approx(
            -(0.3 ** ((2 - 1 + 0.05) / 2)), rel=1e-15
        )

    def test_fd_consistency_away_from_kinks(self):
        v = make_veps(2.5, 0.4, 0.2)
        check_derivative(v, np.random.default_rng(7))

    def test_origin_power_metadata(self):
        p, eps, delta = 2.0, 0.5, 1e-3
        v = make_veps(p, eps, delta)
        assert v.origin_power == pytest.approx((p - 1 + delta) / p)
        assert v.support == (0.0, 2.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_veps(2.0, 1.5, 0.1)
        with pytest.raises(ValueError):
            make_veps(2.0, 0.5, 0.0)


class TestPoincareFamily:
    """The near-extremal family U = (y/A)^k, A = (1+y)^2 + |x|^2,
    k = (N-1+eps)/p, that the pgap scan integrates in closed form, and its
    flat gradient norm k U sqrt(1 - 4y/A) / y.  It is not a product of
    one-variable factors, so ``family`` returns it as a plain object with
    ``value`` and ``gradient_norm``."""

    @staticmethod
    def family(pr, eps):
        k = (pr.N - 1 + eps) / pr.p

        def value(x1, rho, y):
            return (y / ((1.0 + y) ** 2 + x1 * x1 + rho * rho)) ** k

        def gradient_norm(x1, rho, y):
            A = (1.0 + y) ** 2 + x1 * x1 + rho * rho
            return k * value(x1, rho, y) * np.sqrt(np.maximum(0.0, 1.0 - 4.0 * y / A)) / y

        return SimpleNamespace(value=value, gradient_norm=gradient_norm), k

    def test_value_at_base(self):
        u, k = self.family(Params(3, 2.0), 0.1)
        assert float(u.value(0.0, 0.0, 1.0)) == pytest.approx(0.25**k, rel=1e-15)

    def test_gradient_fd_consistency(self):
        u, _ = self.family(Params(3, 3.0), 0.05)
        check_gradient(u, np.random.default_rng(3))

    def test_gradient_factor_at_most_one(self):
        u, k = self.family(Params(2, 2.0), 0.2)
        rng = np.random.default_rng(11)
        x1 = rng.uniform(-5, 5, 100)
        y = rng.uniform(0.05, 5, 100)
        lhs = u.gradient_norm(x1, np.zeros_like(x1), y)
        bound = k * u.value(x1, 0.0, y) / y
        assert np.all(lhs <= bound * (1 + 1e-12))

    def test_radial_identity(self):
        # U depends on the point only through the geodesic distance:
        # U = (4 cosh^2(r/2))^(-k) = (2 (1 + cosh r))^(-k)
        u, k = self.family(Params(3, 2.5), 0.3)
        from hyplab.core import geodesic_distance

        rng = np.random.default_rng(5)
        for _ in range(50):
            x1 = rng.uniform(-4, 4)
            rho = rng.uniform(0, 4)
            y = rng.uniform(0.1, 6)
            r = geodesic_distance(x1, rho, y)
            expected = (2.0 * (1.0 + math.cosh(r))) ** (-k)
            assert float(u.value(x1, rho, y)) == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonpositive_eps(self):
        from hyplab.integrals import ueps_energy_mass

        with pytest.raises(ValueError):
            ueps_energy_mass(Params(2, 2.0), 0.0)
