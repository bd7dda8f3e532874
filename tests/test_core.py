"""Hyperbolic primitives: parameters, Green's function, weights."""

import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyplab import core
from hyplab.core import (
    GreenWeight,
    HypothesisError,
    Params,
    coth_minus_inv,
    geodesic_distance,
    h_func,
    hp_base,
    log_sinh,
    sinh_pow,
    weight_hp,
    weight_v,
)
from hyplab.quadrature import QuadratureError


class TestParams:
    def test_conjugate_exponent_identity(self):
        for N, p in [(2, 2.0), (13, 4.0), (5, 1.2), (3, 7.5)]:
            pr = Params(N, p)
            assert abs(1.0 / pr.p + 1.0 / pr.p_prime - 1.0) < 1e-14
            assert pr.lambda_p > 0

    def test_hypothesis_flag_is_recomputed(self):
        assert Params(13, 4.0).hardy_hypothesis
        assert Params(3, 2.0).hardy_hypothesis      # boundary N = 1 + p(p-1)
        assert not Params(12, 4.0).hardy_hypothesis
        assert not Params(13, 1.5).hardy_hypothesis  # p < 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(HypothesisError):
            Params(1, 2.0)
        with pytest.raises(HypothesisError):
            Params(3, 1.0)
        with pytest.raises(HypothesisError):
            Params(3, math.inf)


class TestLambdaP:
    def test_examples(self):
        assert Params(4, 3.0).lambda_p == pytest.approx(1.0, abs=0)
        assert Params(13, 4.0).lambda_p == pytest.approx(81.0, abs=1e-12)
        assert Params(2, 2.0).lambda_p == pytest.approx(0.25, abs=0)


class TestStableHelpers:
    def test_coth_minus_inv_series_joins_direct(self):
        for r in (1e-6, 1e-4, 9.99e-4, 1.01e-3, 0.1, 2.0):
            direct = 1.0 / math.tanh(max(r, 1e-3)) - 1.0 / max(r, 1e-3)
            val = coth_minus_inv(r)
            if r > 1e-3:
                assert val == pytest.approx(direct, rel=1e-13)
            else:
                assert val == pytest.approx(r / 3.0 - r**3 / 45.0, rel=1e-10)
            assert val > 0

    @given(st.floats(min_value=1e-8, max_value=30.0))
    def test_coth_exceeds_inverse(self, r):
        assert coth_minus_inv(r) > 0.0

    def test_log_sinh_small_and_large(self):
        assert log_sinh(1e-4) == pytest.approx(math.log(math.sinh(1e-4)), rel=1e-13)
        assert log_sinh(300.0) == pytest.approx(300.0 - math.log(2.0), rel=1e-15)

    @pytest.mark.parametrize("f", [log_sinh, coth_minus_inv,
                                   lambda r: sinh_pow(r, 2.0),
                                   lambda r: sinh_pow(r, -2.5)],
                             ids=["log_sinh", "coth_minus_inv", "sinh_pow2", "sinh_pow-2.5"])
    def test_elementwise(self, f):
        # each node gets the same bits alone (a number, a 0-d array, a
        # length-1 array) as in a mixed array, where nodes below the series
        # cuts (1e-2, 1e-3) and r = 0 take the masked branch
        nodes = [0.0, 1e-100, 1e-8, 5e-4, 9.99e-4, 1e-3, 5e-3, 9.99e-3, 1e-2,
                 0.3, 2.0, 40.0, 200.0]
        # log_sinh(0) = -inf, sinh_pow(0, -2.5) = +inf
        with np.errstate(divide="ignore", over="ignore"):
            mixed = f(np.array(nodes))
            alone = [f(r) for r in nodes]
            zero_d = [f(np.array(r)) for r in nodes]
            length_1 = [f(np.array([r]))[0] for r in nodes]
        for got in (alone, zero_d, length_1):
            assert np.array(got).tobytes() == mixed.tobytes()
        assert all(type(v) is float for v in alone + zero_d)

    def test_sinh_pow_series_region(self):
        # relative error of the series-evaluated volume weight < 1e-10
        for r in (1e-5, 5e-4, 1e-3):
            for m in (1, 2, 12):
                exact = math.sinh(r) ** m
                assert sinh_pow(r, m) == pytest.approx(exact, rel=1e-12)


class TestGreenFunction:
    def test_closed_form_oracle_n2_p2(self):
        # G(r) = log(coth(r/2)) for N = 2, p = 2
        g, err = GreenWeight(Params(2, 2.0)).green(1.0)
        exact = math.log(1.0 / math.tanh(0.5))
        assert exact == pytest.approx(0.7719368329053048, abs=1e-15)
        assert abs(g - exact) <= err + 1e-13

    def test_strictly_decreasing(self):
        ev = GreenWeight(Params(3, 2.5))
        vals = [ev.green(r)[0] for r in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_upper_bound_chain(self):
        # G_p(r) < (p-1)/(N-1) (sinh r)^(-(N-1)/(p-1))
        for N, p, r in [(3, 2.0, 0.7), (13, 4.0, 1.3), (2, 3.0, 2.0)]:
            pr = Params(N, p)
            g, _ = GreenWeight(pr).green(r)
            bound = (p - 1.0) / (N - 1) * math.sinh(r) ** (-pr.sinh_exponent)
            assert g < bound

    def test_vanishing_tail(self):
        assert GreenWeight(Params(3, 2.0)).green(25.0)[0] < 1e-9

    def test_overflow_raises(self):
        # G(r) ~ r^(1-alpha) / (alpha-1) with alpha = 20000 exceeds 1e308 at
        # r = 0.01, while zeta, the ratio W needs, stays finite there
        ev = GreenWeight(Params(3, 1.0001))
        with pytest.raises(QuadratureError):
            ev.green(0.01)
        assert math.isfinite(ev.w_array([0.01])[0][0])


class TestWeightW:
    def test_positive_everywhere(self):
        for N, p in [(2, 2.0), (5, 2.0), (13, 4.0), (2, 3.0), (4, 1.5)]:
            ev = GreenWeight(Params(N, p))
            for r in (1e-3, 0.1, 1.0, 5.0, 20.0, 35.0):
                w, err = ev.w(r)
                assert w > 0.0, (N, p, r)
                assert err < 0.01 * w

    def test_matches_direct_formula_at_moderate_radius(self):
        # same value through the naive |G'/G| route (normalization-free)
        pr = Params(5, 2.0)
        r = 1.0
        g, _ = GreenWeight(pr).green(r)
        direct = ((pr.p - 1.0) / pr.p) ** pr.p * (
            math.sinh(r) ** (-pr.sinh_exponent) / g
        ) ** pr.p - pr.lambda_p
        w, err = GreenWeight(pr).w(r)
        assert err <= 1e-10 * max(1.0, w)
        assert w == pytest.approx(direct, rel=1e-9)

    def test_small_r_power_regime(self):
        # W(r) r^p -> ((N-p)/p)^p for N > p
        pr = Params(5, 2.0)
        w, err = GreenWeight(pr).w(1e-4)
        assert err <= 1e-10 * max(1.0, w)
        assert w * 1e-8 == pytest.approx(2.25, rel=1e-4)

    def test_large_r_regime(self):
        # W(r) sinh^2 r -> Lambda_p (N-1) p / (2 (N-1+2(p-1)))
        pr = Params(5, 2.0)
        w, err = GreenWeight(pr).w(20.0)
        assert err <= 1e-10 * max(1.0, w)
        target = pr.lambda_p * 4 * 2 / (2 * (4 + 2))
        assert w * math.sinh(20.0) ** 2 == pytest.approx(target, rel=1e-10)

    def test_no_underflow_at_large_radius(self):
        # The numerator tail of zeta is about e^(-8r) here; unscaled it
        # underflows near r = 94 and W would read 0.
        ref = float(_w_quadrature(4, 1.5, 100.0))
        w, err = GreenWeight(Params(4, 1.5)).w(100.0)
        assert w > 0.0
        assert abs(w - ref) <= err

    def test_finite_error_where_the_numerator_underflows(self):
        # e^(-2r) underflows near r = 372, and W with it; the bound stays
        # a number rather than 0/0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, err = GreenWeight(Params(4, 1.5)).w_array([300.0, 400.0])
        assert w[0] > 0.0 and w[1] >= 0.0
        assert np.all(np.isfinite(err))

    @pytest.mark.parametrize("N,p", [(2, 1.5), (3, 2.0), (40, 1.1), (13, 4.0),
                                     (2, 1.001)])
    def test_power_law_down_to_the_double_range(self, N, p):
        # W r^p -> ((N-p)/p)^p as r -> 0, exact to rounding below 1e-150;
        # both tails stay in the double range down to r = 1e-308, and
        # where W exceeds it W and W_err read +inf, with no warning
        radii = [1e-150, 1e-160, 1e-200, 1e-250, 1e-290, 1e-306, 5e-308, 2e-308,
                 1e-308, 1e-310, 5e-324]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, err = GreenWeight(Params(N, p)).w_array(radii)
        for r, wi, ei in zip(radii, w.tolist(), err.tolist()):
            log_w = p * math.log((N - p) / p) - p * math.log(r)
            if log_w > math.log(sys.float_info.max):
                assert wi == ei == math.inf
            else:
                law = math.exp(log_w)
                assert abs(wi - law) <= ei + 4e-16 * law and ei < 1e-12 * wi

    def test_no_finite_bound_where_zeta_is_infinite(self):
        # Lambda_p = 500^-500 underflows to 0.  At 1e-308 expm1 overflows
        # and W, about e^-2397, reads 0; below _R_MIN zeta is +inf and W
        # and W_err read +inf, no finite bound, rather than 0 * inf = NaN.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, err = GreenWeight(Params(2, 500.0)).w_array([1e-308, 5e-309])
        assert w[0] == 0.0 and 0.0 < err[0] < 1e-300
        assert w[1] == err[1] == math.inf

    @pytest.mark.parametrize("N,p", [(3, 2.0), (13, 4.0), (4, 1.5), (2, 3.0)])
    def test_batched_fill_is_order_independent(self, N, p):
        # W and W_err are pure functions of (N, p, r): bit for bit the same
        # alone, in any batch, in any order and from any instance
        radii = [1e-300, 1e-200, 1e-160, 0.003, 0.05, 0.0999, 0.1, 0.4, 0.41, 1.0,
                 2.5, 7.0, 19.0, 60.0]
        one_by_one = GreenWeight(Params(N, p))
        ref = [one_by_one.w(r) for r in radii]

        rng = np.random.default_rng(11)
        shuffled = rng.permutation(radii + radii[::3])
        w, err = GreenWeight(Params(N, p)).w_array(shuffled)
        assert [(wi, ei) for wi, ei in zip(w.tolist(), err.tolist())] == [
            ref[radii.index(r)] for r in shuffled]

        ev = GreenWeight(Params(N, p))
        ev.w_array(radii[::2])
        w, err = ev.w_array(radii)
        assert list(zip(w.tolist(), err.tolist())) == ref
        for r, (w0, e0) in zip(radii, ref):
            assert ev.w_array([r, 0.07, 33.0])[0][0] == w0
            assert ev.w_array([0.07, r, 33.0])[1][1] == e0

    @pytest.mark.parametrize("N,p", [(5, 2.0), (13, 4.0), (40, 1.1)])
    def test_blocks_leave_each_radius_as_alone(self, monkeypatch, N, p):
        # W stays a pure function of (N, p, r) when a band's 7 radii are
        # split into blocks of 3, 3 and 1, each band in turn
        ev = GreenWeight(Params(N, p))
        radii = (ev.r_star * 2.0 ** np.arange(10)[:, None]
                 * np.linspace(1.0, 1.99, 7)).ravel()
        ref = [ev.w(r) for r in radii.tolist()]
        for block in sorted({2 * int(n) * 3 for n in ev._terms}):
            monkeypatch.setattr(core, "_BLOCK", block)
            w, err = GreenWeight(Params(N, p)).w_array(radii)
            assert list(zip(w.tolist(), err.tolist())) == ref

    def test_scalar_calls_equal_the_array_call(self):
        ev = GreenWeight(Params(5, 2.0))
        w_arr, _ = ev.w_array([0.5, 1.0, 2.0])
        assert ev.w(1.0)[0] == w_arr[1]
        z = float(ev._zeta([1.0])[0][0])
        assert ev.params.lambda_p * math.expm1(2.0 * math.log1p(z)) == pytest.approx(
            w_arr[1], rel=1e-15
        )
        g, g_err = ev.green(3.0)
        assert 0.0 < g_err < 1e-9 * g

    @pytest.mark.parametrize("N,p", [(3, 2.0), (5, 2.0), (13, 4.0), (4, 1.5)])
    def test_weights_table_positive_to_r_100(self, N, p):
        radii = np.geomspace(0.05, 100.0, 400)
        w, err = GreenWeight(Params(N, p)).w_array(radii)
        assert np.all(w > 0.0)
        assert np.all(err < 1e-6 * w)

    def test_concurrent_fills_agree(self):
        radii = np.geomspace(0.01, 50.0, 300)
        ref, ref_err = GreenWeight(Params(5, 2.0)).w_array(radii)
        ev = GreenWeight(Params(5, 2.0))
        rng = np.random.default_rng(3)
        parts = [rng.permutation(radii)[:120] for _ in range(6)]
        out = [None] * len(parts)

        def work(i):
            out[i] = ev.w_array(parts[i])

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(parts))]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for part, (w, err) in zip(parts, out):
            i = np.searchsorted(radii, part)
            assert np.array_equal(w, ref[i]) and np.array_equal(err, ref_err[i])

    def test_rejects_nonpositive_radius(self):
        ev = GreenWeight(Params(3, 2.0))
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                ev.w_array([1.0, bad])


def _series_rows(N, p, r, dps=30):
    """The two rows of GreenWeight._series at ``dps`` digits from mpmath's
    hyp2f1, apart from the program: 2F1(a/2, a; a/2+1; x) / (a/2) and
    x 2F1(a/2+1, a+1; a/2+2; x) / (a/2+1), with a = (N-1)/(p-1) and
    x = e^{-2r}."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        a = mp.mpf(N - 1) / (mp.mpf(p) - 1)
        x = mp.exp(-2 * mp.mpf(r))
        return (mp.hyp2f1(a / 2, a, a / 2 + 1, x, maxterms=10**6) / (a / 2),
                x * mp.hyp2f1(a / 2 + 1, a + 1, a / 2 + 2, x, maxterms=10**6)
                / (a / 2 + 1))


def _w_hypergeometric(N, p, r, dps=30):
    """W(r) at ``dps`` digits from the rows of :func:`_series_rows`, whose
    ratio gives zeta = 2 row1 / row0."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        den, num = _series_rows(N, p, r, dps)
        return (mp.mpf(N - 1) / p) ** p * mp.expm1(p * mp.log1p(2 * num / den))


def _w_quadrature(N, p, r):
    """W(r) at 30 digits from the two tail integrals, by mpmath quadrature."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        a = mp.mpf(N - 1) / (mp.mpf(p) - 1)
        r = mp.mpf(r)

        def tail(beta, gamma):
            # e^{gamma r} 2^-beta int_r^inf (sinh s)^-beta e^{(beta-gamma) s} ds
            return mp.quad(lambda t: mp.exp(-gamma * t) * (-mp.expm1(-2 * (r + t))) ** (-beta),
                           [0, 1 / gamma, 1, 4, 16, 64, mp.inf])

        zeta = 2 * mp.exp(-2 * r) * tail(a + 1, a + 2) / tail(a, a)
        return (mp.mpf(N - 1) / p) ** p * mp.expm1(p * mp.log1p(zeta))


_ORACLE_RADII = (0.05, 0.1, 0.3, 1.0, 5.0, 40.0, 63.3, 100.0, 250.0)


def _band_edges():
    """r* 2^j and r* 2^(j+1) (1 - 1e-12) for j = 0..9: the first and the
    last radius of each series band, where its term count is tightest."""
    for N, p in [(2, 3.0), (3, 2.0), (13, 4.0), (4, 1.5), (40, 1.1)]:
        r_star = GreenWeight(Params(N, p)).r_star
        for j in range(10):
            yield N, p, r_star * 2.0**j
            yield N, p, r_star * 2.0 ** (j + 1) * (1.0 - 1e-12)


def _assert_bounded(value, ref, bound):
    """|value - ref| <= bound, also where x = e^{-2r} is subnormal or 0."""
    assert abs(value - ref) <= bound, (float(abs(value - ref) / bound), bound)


_ORACLE_POINTS = [
    (N, p, r)
    for N, p in [(3, 2.0), (5, 2.0), (13, 4.0), (2, 3.0), (4, 1.5), (40, 2.0),
                 (40, 1.1), (2, 1.01)]
    for r in _ORACLE_RADII
] + [
    # large alpha at radii below r*, where the bare tails overflow
    (40, 1.1, 0.01), (200, 2.0, 0.01), (2, 1.001, 0.01), (2, 1.001, 1.0),
    (100, 1.01, 0.01), (100, 1.01, 1.5), (3, 1.0001, 0.01), (3, 1.0001, 1.0),
    (3, 1.0001, 3.0),
    # x = e^{-2r} subnormal; W underflows to 0 at r = 372
    (40, 1.1, 355.0), (40, 1.1, 360.0), (40, 1.1, 372.0),
]
# the seam between the integrals below r* and the series from it on; r*/2
# is already a point where r* = 0.1
_ORACLE_POINTS += [
    seam for seam in (
        (N, p, GreenWeight(Params(N, p)).r_star * f)
        for N, p in [(2, 3.0), (3, 2.0), (13, 4.0), (4, 1.5), (40, 1.1), (2, 1.01),
                     (200, 2.0)]
        for f in (1.0 - 1e-12, 0.5, 0.1))
    if seam not in _ORACLE_POINTS]


class TestWeightWOracle:
    """|W - W_mpmath| <= W_err: the reported error is a bound."""

    @pytest.mark.parametrize("N,p,r", _ORACLE_POINTS + [
        edge for edge in _band_edges() if edge not in _ORACLE_POINTS])
    def test_error_bounds_the_error(self, N, p, r):
        w, err = GreenWeight(Params(N, p)).w(r)
        _assert_bounded(w, _w_hypergeometric(N, p, r), err)

    @pytest.mark.parametrize("r", [1e-303, 1e-305])
    def test_error_bounds_the_error_where_expm1_overflows(self, r):
        # p log1p(zeta) is 711 and 716 at (2, 50), beyond expm1's range,
        # while Lambda_p = 1.1e-85 keeps W near 1e224; 1 - x = 2r needs
        # 30 digits past its leading 300 zeros
        w, err = GreenWeight(Params(2, 50.0)).w(r)
        assert math.isfinite(w)
        _assert_bounded(w, _w_hypergeometric(2, 50.0, r, dps=340), err)

    @pytest.mark.parametrize("N,p,r", list(_band_edges()))
    def test_series_rows_within_their_bounds(self, N, p, r):
        # W is the ratio of the two rows, so errors of the two could cancel
        # there; each row must lie within its own bound
        rows, errs = GreenWeight(Params(N, p))._series(np.array([r]))
        for row, ref, err in zip(rows[:, 0].tolist(), _series_rows(N, p, r),
                                 errs[:, 0].tolist()):
            _assert_bounded(row, ref, err)

    @pytest.mark.parametrize("N,p,r", [(5, 2.0, 0.05), (40, 1.1, 0.3), (2, 3.0, 63.3)])
    def test_oracles_agree(self, N, p, r):
        hyp, quad = _w_hypergeometric(N, p, r), _w_quadrature(N, p, r)
        assert abs(hyp - quad) <= 1e-25 * hyp


class TestWeightHp:
    def test_p2_exactly_one(self):
        for N in (2, 5, 40):
            for r in (1e-8, 1.0, 200.0):
                assert weight_hp(Params(N, 2.0), r) == 1.0

    def test_small_r_scaling(self):
        # H_p(r) r^(p-2) -> ((N-p)/(N-1))^(p-2)
        pr = Params(13, 4.0)
        r = 1e-5
        target = ((13 - 4) / 12) ** 2
        assert weight_hp(pr, r) * r**2 == pytest.approx(target, rel=1e-4)

    def test_approaches_one_from_below(self):
        pr = Params(13, 4.0)
        vals = [weight_hp(pr, r) for r in (30.0, 60.0, 120.0)]
        assert all(v < 1.0 for v in vals)
        assert vals[0] < vals[1] < vals[2]

    def test_rejects_p_below_two(self):
        with pytest.raises(HypothesisError):
            weight_hp(Params(3, 1.5), 1.0)

    def test_base_positive_under_hypothesis(self):
        pr = Params(13, 4.0)
        r = np.geomspace(1e-6, 50, 200)
        assert np.all(np.asarray(hp_base(pr, r)) > 0)


class TestWeightV:
    def test_examples(self):
        assert weight_v(0.0, 1.0) == 1.0
        assert weight_v(2.0, 2.0) == pytest.approx(
            1.0 / math.sqrt(2.0), rel=1e-15
        )

    @given(
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=1e-3, max_value=50),
    )
    def test_range(self, x1, y):
        v = weight_v(x1, y)
        assert 0.0 < v <= 1.0
        if abs(x1) > 1e-6 * y:
            assert v < 1.0

    def test_constant_along_rays(self):
        # on x1 = k y the value is 1/sqrt(1+k^2), independent of y
        for alpha in (0.3, 0.8, 1.0):
            k = math.sqrt((1 - alpha**2) / alpha**2) if alpha < 1 else 0.0
            vals = [weight_v(k * y, y) for y in (0.5, 3.0, 40.0)]
            assert all(v == pytest.approx(alpha, rel=1e-12) for v in vals)

    def test_exponential_decay_constant_along_horizontal_lines(self):
        # V e^{r/2} -> sqrt(beta) along y = beta (e^r ~ 2 cosh r; the
        # commonly quoted sqrt(beta/2) corresponds to e^r ~ cosh r)
        for beta in (0.5, 2.0):
            r = geodesic_distance(1e8, 0.0, beta)
            assert weight_v(1e8, beta) * math.exp(r / 2.0) == pytest.approx(
                math.sqrt(beta), rel=1e-6
            )

    def test_rejects_points_off_the_half_space(self):
        for y in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="y must be positive"):
                weight_v(1.0, y)


class TestGeodesicDistance:
    def test_rejects_points_off_the_half_space(self):
        for y in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="y must be positive"):
                geodesic_distance(1.0, 0.5, y)
        with pytest.raises(ValueError, match="rho must be nonnegative"):
            geodesic_distance(1.0, -0.5, 1.0)

    def test_base_point(self):
        assert geodesic_distance(0.0, 0.0, 1.0) == 0.0

    def test_vertical_unit_distance(self):
        assert geodesic_distance(0.0, 0.0, math.e) == pytest.approx(
            1.0, rel=1e-14
        )

    def test_small_distance_accuracy(self):
        # arcosh(1+z) loses half the digits if assembled naively
        assert geodesic_distance(1e-8, 0.0, 1.0) == pytest.approx(1e-8, rel=1e-6)

    @given(
        st.floats(min_value=-20, max_value=20),
        st.floats(min_value=0, max_value=20),
        st.floats(min_value=1e-2, max_value=50),
    )
    @settings(max_examples=200)
    def test_nonnegative(self, x1, rho, y):
        assert geodesic_distance(x1, rho, y) >= 0.0


class TestShapeFunction:
    def test_small_r_curvature(self):
        # h(r)/r^2 -> -(N-p)
        pr = Params(13, 4.0)
        assert h_func(pr, 1e-6) / 1e-12 == pytest.approx(-9.0, rel=1e-6)

    def test_value_at_one(self):
        # -12 + 3 sinh^2(1)
        assert h_func(Params(13, 4.0), 1.0) == pytest.approx(
            -7.856706463374554, rel=1e-14
        )

    def test_single_sign_change(self):
        pr = Params(13, 4.0)
        r = np.linspace(1e-3, 10, 4000)
        signs = np.sign(h_func(pr, r))
        flips = np.count_nonzero(np.diff(signs))
        assert flips == 1
        assert signs[0] < 0 and signs[-1] > 0

    def test_positive_for_large_r(self):
        assert h_func(Params(13, 4.0), 8.0) > 0
