"""Remainder-constant machinery: cases, bounds, brute-force oracles."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyplab.constants import (
    brute_force_cnp,
    c_2p,
    c_2p_direct,
    c_np,
    check_ni,
    delta_small_p,
    f_small_p,
    golden_max,
    mu1,
    mu2,
    q_b,
)
from hyplab.core import Params


def cnp_lower_bound(params):
    """The explicit p <= 2 lower bound gamma(1/(2 beta (1+4 delta)))."""
    p = params.p
    d = delta_small_p(p)
    return (1.0 / (2.0 * p * (1.0 + 4.0 * d))
            / (1.0 + ((p - 1.0) * (1.0 + 4.0 * d)) ** -0.5))


class TestQb:
    def test_cases(self):
        assert q_b(1.5) == 1.0
        assert q_b(3.0) == 1.5
        assert q_b(0.5) == 0.25
        assert q_b(1.0) == 1.0
        assert q_b(2.0) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            q_b(0.0)


class TestQuadraticBound:
    def test_endpoints(self):
        assert check_ni(3.7, 0.0) == 0.0
        assert check_ni(3.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_equality_at_b_two(self):
        for s in (0.1, 0.5, 0.9):
            assert abs(check_ni(2.0, s)) < 1e-15

    @given(
        st.floats(min_value=1e-3, max_value=10.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=2000)
    def test_nonnegative(self, b, s):
        assert check_ni(b, s) >= -1e-14


class TestTabulatedCnp:
    def test_case_one(self):
        r = c_np(Params(5, 1.2))
        assert r.value == pytest.approx(1.0 / 24.0, rel=1e-15)
        assert r.kind == "lowerBound" and r.case_label == "p<=4/3"

    def test_case_two(self):
        p = 1.75
        r = c_np(Params(4, p))
        pp = p / (p - 1)
        expected = 1.0 / (2 * (8 - 3 * p) + 2 * math.sqrt(pp * (8 - 3 * p)))
        assert r.value == pytest.approx(expected, rel=1e-15)
        assert r.kind == "lowerBound"

    def test_case_three(self):
        r = c_np(Params(13, 4.0))
        assert r.value == pytest.approx(1.0 / (8.0 + 4.0 * math.sqrt(2.0)), rel=1e-14)
        assert r.kind == "exact"
        assert r.optimizer_arg == pytest.approx(math.sqrt(2.0) / 12.0, rel=1e-14)

    def test_case_four(self):
        r = c_np(Params(2, 3.0))
        assert r.value == pytest.approx(1.0 / 11.0, rel=1e-15)
        assert r.kind == "exact" and r.optimizer_arg == 1.0

    def test_boundaries_belong_left(self):
        assert c_np(Params(5, 4.0 / 3.0)).case_label == "p<=4/3"
        assert c_np(Params(5, 2.0)).case_label == "4/3<p<=2"
        # p = 2(N-1)^2 belongs to the bounded-maximizer case
        assert c_np(Params(2, 2.0)).case_label == "4/3<p<=2"
        assert c_np(Params(3, 8.0)).case_label == "2<p<=2(N-1)^2"


class TestBruteForce:
    def test_matches_exact_cases(self):
        for N, p in [(13, 4.0), (2, 3.0), (3, 9.0), (2, 2.5), (4, 17.0)]:
            bf = brute_force_cnp(Params(N, p))
            assert bf == pytest.approx(c_np(Params(N, p)).value, abs=1e-10)

    def test_dominates_lower_bounds(self):
        for N, p in [(2, 1.5), (5, 1.2), (3, 1.8), (4, 2.0), (2, 1.25)]:
            bf = brute_force_cnp(Params(N, p))
            assert bf >= c_np(Params(N, p)).value - 1e-8
            assert bf >= cnp_lower_bound(Params(N, p)) - 1e-8

    def test_maximizer_locations_match_closed_forms(self):
        # a0 = sqrt(2(p-1)M/(N-1)) for p <= 2; (1/(N-1)) sqrt(p/2) clipped;
        # mu1 and mu2 are unimodal on [0, 1], so golden section finds them
        for N, p in [(2, 1.5), (2, 1.25), (3, 1.7)]:
            M, _ = golden_max(lambda c: f_small_p(c, N, p), 0.0, 1.0)
            M = f_small_p(M, N, p)
            a0 = math.sqrt(2 * (p - 1) * M / (N - 1))
            a, _ = golden_max(lambda a: mu1(a, N, p, M), 0.0, 1.0)
            assert a == pytest.approx(a0, abs=1e-6)
        for N, p in [(13, 4.0), (2, 3.0)]:
            a0 = min(1.0, math.sqrt(p / 2.0) / (N - 1))
            a, _ = golden_max(lambda a: mu2(a, N, p), 0.0, 1.0)
            assert a == pytest.approx(a0, abs=1e-6)

    def test_m_bound(self):
        # the profile maximum M never exceeds 1/2
        for N, p in [(2, 1.5), (2, 1.25), (3, 1.9), (7, 1.1)]:
            _, M = golden_max(lambda c: f_small_p(c, N, p), 0.0, 1.0)
            M = max(M, f_small_p(1.0, N, p))
            assert M <= 0.5 + 1e-12


class TestN2Refinement:
    def test_tabulated_closed_forms(self):
        # frozen from the printed formulas:
        # (1/p') sqrt2/(sqrt2 p + sqrt p) and (1/p')/(2(2-p)+sqrt(2-p))
        assert c_2p(1.5).value == pytest.approx(0.14088324360345808, rel=1e-13, abs=0)
        assert c_2p(1.25).value == pytest.approx(0.08452994616207485, rel=1e-13, abs=0)
        for p in (1.1, 1.25, 1.4, 1.7, 1.9):
            assert c_2p(p).value < 0.5

    def test_branch_maxima(self):
        # M = (1-delta)/2 on [4/3, 2); M = 1/(8 delta) on (1, 4/3)
        r = c_2p(1.5)
        assert r.optimizer_arg == pytest.approx((1 - 1 / 3) / 2, rel=1e-14)
        r = c_2p(1.25)
        assert r.optimizer_arg == pytest.approx(1.0 / 6.0, rel=1e-14)
        # and those maxima agree with direct maximization of the profile
        for p in (1.5, 1.25):
            _, M = golden_max(lambda c: f_small_p(c, 2, p), 0.0, 1.0)
            M = max(M, f_small_p(1.0, 2, p))
            assert M == pytest.approx(c_2p(p).optimizer_arg, abs=1e-10)

    def test_direct_value_matches_brute_force(self):
        # the exact closed form of the direct maximization route
        for p in (1.5, 1.25, 1.9, 1.05):
            direct = c_2p_direct(p).value
            bf = brute_force_cnp(Params(2, p))
            assert bf == pytest.approx(direct, abs=1e-10)

    def test_tabulated_forms_overstate_direct_optimum(self):
        # regression pin for a known discrepancy: the printed N = 2 closed
        # forms exceed the optimum of the defining maximization by ~37%
        # (they replace sqrt(2M/(p-1)) with sqrt(M/(2(p-1))) in the
        # denominator).  Both are kept; this documents which is which.
        for p in (1.25, 1.5):
            tab = c_2p(p).value
            direct = c_2p_direct(p).value
            assert tab > direct * 1.2
        assert c_2p_direct(1.5).value == pytest.approx(0.10313369225283435, rel=1e-12, abs=0)
        assert c_2p_direct(1.25).value == pytest.approx(0.06188021535170061, rel=1e-12, abs=0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            c_2p(2.0)
        with pytest.raises(ValueError):
            c_2p(1.0)


class TestDeltaRoute:
    def test_delta_definition_covers_both_subcases(self):
        # q_{p'/2} = 1 for 4/3 <= p <= 2 and p'/4 for p < 4/3
        assert delta_small_p(1.5) == pytest.approx(1.0 / 3.0, rel=1e-15)
        p = 1.25
        pp = p / (p - 1)
        assert delta_small_p(p) == pytest.approx((pp / 4) * (2 - p) / p, rel=1e-15)

    def test_lower_bound_specializations(self):
        # at p <= 4/3 the generic bound reduces to 1/(4 p')
        for p in (1.2, 4.0 / 3.0):
            pr = Params(6, p)
            assert cnp_lower_bound(pr) == pytest.approx(
                1.0 / (4.0 * pr.p_prime), rel=1e-13
            )
        # at 4/3 < p <= 2 it reduces to the 8-3p form
        for p in (1.5, 1.9, 2.0):
            pr = Params(6, p)
            pp = pr.p_prime
            expected = 1.0 / (2 * (8 - 3 * p) + 2 * math.sqrt(pp * (8 - 3 * p)))
            assert cnp_lower_bound(pr) == pytest.approx(expected, rel=1e-13)


def test_golden_max_quadratic():
    x, v = golden_max(lambda t: -(t - 0.37) ** 2, 0.0, 1.0)
    assert x == pytest.approx(0.37, abs=1e-10)
    assert v == pytest.approx(0.0, abs=1e-18)
