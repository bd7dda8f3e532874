"""Radial and half-space integral assembly against independent oracles."""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from hyplab import integrals
from hyplab.core import Params
from hyplab.integrals import (
    halfspace_battery,
    halfspace_integral,
    hardy1d_energy,
    hardy1d_mass,
    radial_battery,
    radial_energy,
    radial_weighted_mass,
    ueps_energy_mass,
    ueps_energy_masses,
)
from hyplab.quadrature import (
    NonIntegrableSingularity,
    integrate_interval,
    integrate_intervals,
    power_singular_integral,
    power_singular_integrals,
)
from hyplab.testfun import RadialTestFunction, make_bump, make_veps
from hyplab.verify import random_halfspace_product


def _tent(r_lo, r_hi):
    """The piecewise-linear hat on [r_lo, r_hi] with peak 1, kinked at
    its ends and its middle."""
    mid, half = 0.5 * (r_lo + r_hi), 0.5 * (r_hi - r_lo)
    return RadialTestFunction(
        lambda r: np.maximum(0.0, 1.0 - np.abs(r - mid) / half),
        lambda r: np.where(np.abs(r - mid) < half, -np.sign(r - mid) / half, 0.0),
        (r_lo, r_hi), breakpoints=(r_lo, mid, r_hi), label=f"tent[{r_lo:g},{r_hi:g}]",
    )


class TestRadialEnergy:
    def test_zero_function(self):

        u = make_bump(1.0, 2.0)
        zero = type(u)(
            value=lambda r: np.zeros_like(r),
            derivative=lambda r: np.zeros_like(r),
            support=(1.0, 2.0),
        )
        ep, mp = radial_energy(Params(3, 2.0), zero, 1e-10)
        assert ep.value == 0.0 and mp.value == 0.0

    def test_homogeneity_under_scaling(self):
        pr = Params(4, 2.5)
        u = make_bump(0.5, 2.5)
        c = 3.7
        cu = type(u)(
            value=lambda r: c * u.value(r),
            derivative=lambda r: c * u.derivative(r),
            support=u.support,
            breakpoints=u.breakpoints,
        )
        ep1, mp1 = radial_energy(pr, u, 1e-11)
        ep2, mp2 = radial_energy(pr, cu, 1e-11)
        assert ep2.value == pytest.approx(c**pr.p * ep1.value, rel=1e-9)
        assert mp2.value == pytest.approx(c**pr.p * mp1.value, rel=1e-9)

    def test_tent_mass_closed_form(self):
        # N = 2, p = 2, tent on [1, 3]:
        # int_1^3 (1-|r-2|)^2 sinh r dr = 2 cosh 3 - 4 sinh 2 - 2 cosh 1
        pr = Params(2, 2.0)
        u = _tent(1.0, 3.0)
        _, mp = radial_energy(pr, u, 1e-12)
        exact = 2 * math.cosh(3.0) - 4 * math.sinh(2.0) - 2 * math.cosh(1.0)
        assert mp.value == pytest.approx(exact, rel=1e-11)
        assert abs(mp.value - exact) <= mp.error_estimate + 1e-12 * abs(exact)

    def test_large_dimension_no_overflow(self):
        pr = Params(13, 4.0)
        u = make_bump(15.0, 20.0)
        ep, mp = radial_energy(pr, u, 1e-9)
        assert math.isfinite(ep.value) and ep.value > 0
        assert mp.value > 1e80  # sinh(20)^12-scale volume


class TestWeightedMass:
    def test_weight_bounds_on_support(self):
        pr = Params(3, 2.0)
        u = make_bump(1.0, 2.0)
        _, mp = radial_energy(pr, u, 1e-11)
        w = radial_weighted_mass(pr, u, "1/r^p", 1e-11)
        assert 2.0**-pr.p * mp.value <= w.value <= mp.value

    def test_sinh_weight_below_r_weight(self):
        pr = Params(4, 3.0)
        u = make_bump(0.7, 1.9)
        wr = radial_weighted_mass(pr, u, "1/r^p", 1e-11)
        ws = radial_weighted_mass(pr, u, "1/sinh^p", 1e-11)
        assert ws.value < wr.value

    def test_hp_weight_at_p2_equals_plain_mass(self):
        pr = Params(5, 2.0)
        u = make_bump(0.4, 1.4)
        _, mp = radial_energy(pr, u, 1e-11)
        wh = radial_weighted_mass(pr, u, "Hp", 1e-11)
        assert wh.value == pytest.approx(mp.value, rel=1e-10)

    def test_nonintegrable_origin_rejected(self):
        # bounded profile at r = 0 with p >= N: 1/r^p mass diverges
        pr = Params(2, 2.0)
        u = make_veps(2.0, 0.5, 1e-3)
        const_at_zero = type(u)(
            value=lambda r: np.where(r < 2.0, 1.0, 0.0),
            derivative=lambda r: np.zeros_like(r),
            support=(0.0, 2.0),
            breakpoints=(2.0,),
            origin_power=0.0,
        )
        with pytest.raises(NonIntegrableSingularity):
            radial_weighted_mass(pr, const_at_zero, "1/r^p", 1e-9)
        undeclared = type(u)(const_at_zero.value, const_at_zero.derivative,
                             (0.0, 2.0), breakpoints=(2.0,))
        with pytest.raises(NonIntegrableSingularity, match="declared origin power"):
            hardy1d_mass(2.0, undeclared, 1e-9)

    def test_green_weight_mass_positive(self):
        pr = Params(5, 2.0)
        u = make_bump(0.5, 3.0)
        w = radial_weighted_mass(pr, u, "W", 1e-9)
        assert w.value > 0
        assert w.error_estimate < 1e-6 * w.value

    def test_unknown_weight_rejected(self):
        with pytest.raises(ValueError):
            radial_weighted_mass(Params(3, 2.0), make_bump(1.0, 2.0), "bogus", 1e-9)


class TestOriginSplit:
    """Exact floats of the origin-power split on a four-piece profile.

    make_veps declares origin_power, so every integral below splits the
    pure power off analytically on [0, eps]; the mollifier batteries never
    reach that path.  The pins were taken before the four copies of the
    split became one helper, and retaken when the panel contraction became
    independent of the other panels of a round: the values moved by at
    most one ulp, the errors by up to 0.4%, no panel count changed.  The
    errors of the four radial pins were retaken again when the heads came
    to take the volume element as (sinh r / r)^m: they moved by up to
    2.5%, and no value or panel count moved.  The hardy1d mass was retaken
    when the heads' exponent came to be formed exactly: its value moved
    by 2.5e-15 relative, its error and panel count held.  All six errors
    were retaken when the heads' C came to be extrapolated from r = 1e-8 b1
    and 2e-8 b1 instead of sampled at r = 1e-8: they moved by up to 1.8%,
    the 1/sinh^p mass and the hardy1d energy moved by one ulp, and no
    panel count moved.  All six errors were retaken again when each head's
    estimate came to count the error of its C: they rose by up to 5.4%, and
    no value or panel count moved.
    """

    P = Params(4, 3.0)
    V = make_veps(3.0, 0.1, 0.05)

    @staticmethod
    def _pinned(res, value, error, subdivisions):
        assert (res.value, res.error_estimate, res.subdivisions) == (
            value, error, subdivisions)

    def test_radial_energy(self):
        ep, mp = radial_energy(self.P, self.V, 1e-10)
        self._pinned(ep, 0.12759880553956215, 3.5827676485326527e-14, 49)
        self._pinned(mp, 0.012281726912820898, 1.9803706991718562e-16, 69)

    @pytest.mark.parametrize("weight, value, error, subdivisions", [
        ("1/r^p", 0.014577419050146766, 2.295781251800273e-14, 49),
        ("1/sinh^p", 0.010541599210876983, 4.082196532848191e-17, 3),
    ], ids=["1/r^p", "1/sinh^p"])
    def test_radial_weighted_mass(self, weight, value, error, subdivisions):
        res = radial_weighted_mass(self.P, self.V, weight, 1e-10)
        self._pinned(res, value, error, subdivisions)

    def test_hardy1d_pieces(self):
        self._pinned(hardy1d_energy(3.0, 2.0, self.V, 1e-10),
                     8.329179372148166, 1.6485312939596439e-13, 37)
        self._pinned(hardy1d_mass(3.0, self.V, 1e-10),
                     18.26760402402224, 2.0271336746844275e-12, 47)


class TestHardyBatteryPins:
    """Exact floats of every integral of a 12-trial hardy battery.

    The supports are the draws of ``hyplab verify --kind hardy --N 3 --p 2
    --trials 12 --seed 7 --allow-origin``; three of them touch the origin,
    where the bump vanishes to all orders and every term runs on plain
    panels from r = 0.  Each row is the support and (value, error,
    subdivisions) of the energy, the mass and the 1/r^p mass at tol
    1e-10, taken before the battery's integrals shared one pass and
    retaken, as the origin-split pins were, for the row-independent panel
    contraction (errors moved by up to 0.8%), the three origin rows
    retaken when they moved onto plain panels, and all retaken when each
    integral came to sum its panels left to right, not in heap order
    (values and errors moved by at most 6.7e-16 relative, no panel count
    moved).
    """

    P = Params(3, 2.0)
    PINS = [
        ((1.7790613846114538, 8.46818668152584),
         (52504.116388760354, 1.987061257520644e-08, 63),
         (24825.03198307816, 1.4983271118420891e-07, 47),
         (544.2567221487934, 2.1792673021938853e-09, 47)),
        ((0.0, 3.779498116991762),
         (16.551538258763582, 2.644688825943967e-12, 63),
         (5.7197742024525535, 8.311632603585069e-12, 47),
         (0.9955070143265591, 6.329850604941317e-13, 47)),
        ((0.3597001048292168, 1.5008213751390578),
         (1.1966369724577566, 7.254651673616818e-14, 63),
         (0.09661304257947059, 2.7970274980634952e-14, 47),
         (0.10226162363314521, 1.9113792624754643e-14, 47)),
        ((8.9138866539394, 15.280129458845076),
         (49249765227.685844, 0.017052597911007307, 63),
         (22816030162.39875, 0.1197799905603869, 47),
         (122167405.8500414, 0.00052443867160774, 47)),
        ((0.2564112340700344, 0.8737554812961645),
         (0.5717553900660227, 2.873716752644714e-14, 63),
         (0.015350073434490566, 3.465724221422477e-15, 47),
         (0.04583415628405725, 7.869061023627955e-15, 47)),
        ((0.10914529074779511, 2.822598671565221),
         (4.571440360314494, 5.11019581138435e-13, 63),
         (1.1807579493089881, 9.225509566611513e-13, 47),
         (0.4017954406645866, 1.3659351329037464e-13, 47)),
        ((0.9335352712675737, 2.977276807922933),
         (10.569827933555162, 8.949531706248124e-13, 63),
         (2.0769938438256506, 9.949758078855811e-13, 47),
         (0.4662380078401648, 1.2997133134852076e-13, 47)),
        ((0.21721800362126437, 0.5344217180007585),
         (0.4210998527081344, 1.8921549066070293e-14, 63),
         (0.0032035508795134567, 6.255233375736961e-16, 47),
         (0.02214308303066037, 3.721292802167513e-15, 47)),
        ((0.0, 4.620592889151479),
         (58.13955598847511, 1.210940155285576e-11, 63),
         (22.955390893526737, 5.24321253871037e-11, 47),
         (2.405962765752131, 2.6091508981383486e-12, 47)),
        ((3.526758640484116, 12.407667434991469),
         (62951852.44208699, 4.1787717208773096e-05, 63),
         (33021717.83713499, 0.0004656258383945408, 47),
         (299192.7472023965, 3.1493483042482683e-06, 47)),
        ((0.0, 5.336759196748777),
         (175.20263794962923, 4.526313166879527e-11, 63),
         (74.79806381797327, 2.4457423074343575e-10, 47),
         (5.4407549248685605, 9.069498683192279e-12, 47)),
        ((0.20773112199473528, 1.5802281734529628),
         (1.0493698317110156, 7.219585082775943e-14, 63),
         (0.11045010672565342, 3.85874660129349e-14, 47),
         (0.12132310720606587, 2.3748234679315107e-14, 47)),
    ]

    @staticmethod
    def _fields(res):
        return (res.value, res.error_estimate, res.subdivisions)

    def test_supports_are_the_battery_draws(self):
        from hyplab.verify import InequalityKind, _trial_function

        for i, (support, *_) in enumerate(self.PINS):
            assert _trial_function(
                InequalityKind.HARDY, self.P, 7, i, True).support == support

    def test_one_function_calls(self):
        for support, e_pin, m_pin, r_pin in self.PINS:
            u = make_bump(*support)
            ep, mp = radial_energy(self.P, u, 1e-10)
            rp = radial_weighted_mass(self.P, u, "1/r^p", 1e-10)
            assert [self._fields(ep), self._fields(mp), self._fields(rp)] == [
                e_pin, m_pin, r_pin]

    def test_one_battery_pass(self):
        funcs = [make_bump(*support) for support, *_ in self.PINS]
        terms = radial_battery(self.P, funcs, ("E", "M", "1/r^p"), 1e-10)
        for t, (_, e_pin, m_pin, r_pin) in zip(terms, self.PINS):
            assert [self._fields(t["E"]), self._fields(t["M"]),
                    self._fields(t["1/r^p"])] == [e_pin, m_pin, r_pin]


class TestRadialBattery:
    """A battery pass against the one-function calls, term by term."""

    P = Params(10, 3.0)
    FUNCS = [
        make_bump(0.0, 1.7),                # at the origin, no split
        make_veps(3.0, 0.1, 0.05),          # declared origin power: split
        _tent(0.4, 2.5),                    # not a mollifier: called per run
        make_bump(2.0, 6.5),
        make_bump(0.3, 0.9),
    ]

    def test_radial_terms(self):
        weights = ("1/r^p", "1/sinh^p", "Hp", "r^pprime")
        terms = radial_battery(self.P, self.FUNCS, ("E", "M") + weights, 1e-10)
        for u, t in zip(self.FUNCS, terms):
            assert (t["E"], t["M"]) == radial_energy(self.P, u, 1e-10)
            for w in weights:
                assert t[w] == radial_weighted_mass(self.P, u, w, 1e-10)

    def test_green_weight_term(self):
        # W is a pure function of the radius, so the W mass of a battery
        # equals the one-profile call; the first support reaches below r*
        funcs = [make_bump(0.05, 0.6), *self.FUNCS[2:]]
        terms = radial_battery(self.P, funcs, ("W",), 1e-10)
        for u, t in zip(funcs, terms):
            assert t["W"] == radial_weighted_mass(self.P, u, "W", 1e-10)

    def test_bumps_evaluated_together_equal_profiles_called_one_by_one(self):
        funcs = [self.FUNCS[0], *self.FUNCS[3:]]
        plain = [type(u)(u.value, u.derivative, u.support, u.breakpoints)
                 for u in funcs]
        assert all(u.bump is not None for u in funcs)
        assert (radial_battery(self.P, plain, ("E", "M"), 1e-10)
                == radial_battery(self.P, funcs, ("E", "M"), 1e-10))

    @pytest.mark.parametrize("l", [2.0, 3.0])
    def test_hardy1d_terms(self, l):
        terms = radial_battery(self.P, self.FUNCS, ("hardy1d_energy", "hardy1d_mass"),
                               1e-10, l=l)
        for u, t in zip(self.FUNCS, terms):
            assert t["hardy1d_energy"] == hardy1d_energy(3.0, l, u, 1e-10)
            assert t["hardy1d_mass"] == hardy1d_mass(3.0, u, 1e-10)

    def test_rejects_unknown_terms_and_bad_exponent(self):
        with pytest.raises(ValueError, match="unknown term"):
            radial_battery(self.P, self.FUNCS, ("E", "energy"), 1e-10)
        with pytest.raises(ValueError, match="1 < l <= p"):
            radial_battery(self.P, self.FUNCS, ("hardy1d_energy",), 1e-10, l=3.5)
        with pytest.raises(NonIntegrableSingularity):
            radial_battery(self.P, self.FUNCS, ("W",), 1e-10)


class TestRadialOracle:
    """Every radial battery term of a mollifier bump, and every volume term
    of a profile split at the origin, against an mpmath quadrature at 30
    digits: |value - oracle| <= error_estimate."""

    # (N, p, lo, hi): p near 1 at small r, a support at the origin with
    # H_p defined, large N at the origin, and a wide support
    CASES = [
        (2, 1.1, 0.1, 0.6),
        (13, 4.0, 0.0, 2.0),
        (40, 1.5, 0.0, 2.0),
        (3, 2.0, 1.0, 15.0),
    ]

    @staticmethod
    def _weights(mp, params):
        """The mass weights of the battery as mpmath functions of r."""
        N, p = params.N, mp.mpf(params.p)
        return {
            "M": lambda r: 1,
            "1/r^p": lambda r: r ** -p,
            "1/sinh^p": lambda r: mp.sinh(r) ** -p,
            "r^pprime": lambda r: r ** mp.mpf(params.p_prime),
            "Hp": lambda r: (mp.coth(r) - (p - 1) / ((N - 1) * r)) ** (p - 2),
        }

    @classmethod
    def _oracle(cls, params, lo, hi, name):
        """The term ``name`` of the bump on [lo, hi], split at its midpoint."""
        mp = pytest.importorskip("mpmath")
        N = params.N
        with mp.workdps(30):
            p = mp.mpf(params.p)
            mid, half = (mp.mpf(lo) + hi) / 2, (mp.mpf(hi) - lo) / 2
            weights = cls._weights(mp, params)

            def f(r):
                t = (r - mid) / half
                s = 1 - t * t
                u = mp.exp(-1 / s)
                if name == "E":  # u' = -2t / (1 - t^2)^2 u / half
                    return abs(2 * t / (s * s) * u / half) ** p * mp.sinh(r) ** (N - 1)
                return u ** p * weights[name](r) * mp.sinh(r) ** (N - 1)

            return mp.quad(f, [lo, mid, hi])

    @pytest.mark.parametrize("N, p, lo, hi", CASES)
    def test_error_bounds_the_error(self, N, p, lo, hi):
        params = Params(N, p)
        names = ("E", "M", "1/r^p", "1/sinh^p", "r^pprime")
        if 2.0 <= p <= N:  # where H_p is defined
            names += ("Hp",)
        oracle = {name: self._oracle(params, lo, hi, name) for name in names}
        for tol in (1e-6, 1e-10):
            terms = radial_battery(params, [make_bump(lo, hi)], names, tol)[0]
            for name in names:
                term = terms[name]
                assert abs(term.value - float(oracle[name])) <= term.error_estimate, (
                    name, tol)

    @classmethod
    def _veps_oracle(cls, params, eps, delta, name):
        """The term ``name`` of make_veps(p, eps, delta), piece by piece.

        On [0, eps], where u = r^a, r = eps t^q turns the integrand
        ~ r^(delta-1) or milder into a smooth one in t; a plain quadrature
        in r gives 17.481 for int_0^0.1 r^-0.95 dr, whose value is 17.825.
        """
        mp = pytest.importorskip("mpmath")
        N, q = params.N, 400
        with mp.workdps(30):
            p, eps, delta = mp.mpf(params.p), mp.mpf(eps), mp.mpf(delta)
            a = (p - 1 + delta) / p
            cap = eps**a
            weights = cls._weights(mp, params)

            def f(r, u, du):
                if name == "E":
                    return abs(du) ** p * mp.sinh(r) ** (N - 1)
                return abs(u) ** p * weights[name](r) * mp.sinh(r) ** (N - 1)

            def head(t):
                r = eps * t**q
                return f(r, r**a, a * r ** (a - 1)) * eps * q * t ** (q - 1)

            return (mp.quad(head, [0, 1])
                    + mp.quad(lambda r: f(r, cap, 0), [eps, 1])
                    + mp.quad(lambda r: f(r, cap * (2 - r), -cap), [1, 2]))

    @pytest.mark.parametrize("N, p, eps, delta", [
        (4, 3.0, 0.1, 0.05),
        (2, 1.5, 0.3, 0.2),
        (13, 4.0, 0.05, 0.01),
        (40, 1.5, 0.1, 0.05),
    ])
    def test_split_heads(self, N, p, eps, delta):
        """Every volume term of make_veps, split at the origin.

        The two 1D Hardy pieces are left out for rounding alone: their
        heads' error estimates count none (ROADMAP item 4), and at tol
        1e-10 the l = p energy of make_veps(3, 0.1, 0.05) is 5.6e-16 from
        its closed form against an estimate of 3.9e-16.
        """
        params = Params(N, p)
        names = ("E", "M", "1/r^p", "1/sinh^p", "r^pprime")
        if 2.0 <= p <= N:  # where H_p is defined
            names += ("Hp",)
        oracle = {name: self._veps_oracle(params, eps, delta, name) for name in names}
        for tol in (1e-6, 1e-10):
            terms = radial_battery(params, [make_veps(p, eps, delta)], names, tol)[0]
            for name in names:
                term = terms[name]
                assert abs(term.value - float(oracle[name])) <= term.error_estimate, (
                    name, tol)


class TestHardy1D:
    def test_profile_mass_exact_first_piece(self):
        # int_0^eps r^{delta-1} dr = eps^delta/delta dominates for small eps
        p, eps, delta = 2.0, 1e-2, 1e-3
        v = make_veps(p, eps, delta)
        rhs = hardy1d_mass(p, v, 1e-10)
        first = eps**delta / delta
        a = (p - 1 + delta) / p
        middle = eps ** (a * p) * (eps ** (1.0 - p) - 1.0) / (p - 1.0)
        # the [1, 2) ramp piece is O(eps^(p-1+delta)); bounded crudely by
        # eps^(a p) * int_1^2 (2-r)^p dr
        ramp_bound = eps ** (a * p) / (p + 1.0)
        assert rhs.value > first
        assert first + middle <= rhs.value <= first + middle + ramp_bound + 1e-9

    def test_mass_head_exponent_is_exact(self):
        # the head of r^a on [0, eps] is eps^s / s with s = a p - p + 1 for
        # the double a; formed in doubles, s cancels, and at delta = 1e-3
        # its rounding alone puts the mass 1.1e-13 relative off.  The
        # error estimate counts no rounding, so only the distance is
        # checked (ROADMAP item 4)
        mp = pytest.importorskip("mpmath")
        p, eps, delta = 3.0, 1e-3, 1e-3
        got = radial_battery(Params(2, p), [make_veps(p, eps, delta)], ("hardy1d_mass",),
                             1e-10)[0]["hardy1d_mass"].value
        a = (p - 1.0 + delta) / p  # the profile's exponent as built
        s = Fraction(a) * Fraction(p) - Fraction(p) + 1
        with mp.workdps(40):
            s = mp.mpf(s.numerator) / s.denominator
            P, cap = mp.mpf(p), mp.mpf(eps**a)
            ref = (mp.mpf(eps) ** s / s
                   + cap**P * (mp.mpf(eps) ** (1 - P) - 1) / (P - 1)
                   + cap**P * mp.quad(lambda r: (2 - r) ** P / r**P, [1, 2]))
            assert abs(got - ref) <= 1e-14 * ref

    @staticmethod
    def _head_profile(a):
        """u = r^a (1 + r) on (0, 1) and 2 (2 - r) on [1, 2), with the
        origin power a: its heads' g = C + O(r) is not constant."""

        def value(r):
            return np.where(r < 1.0, r**a * (1.0 + r), np.where(r < 2.0, 2.0 * (2.0 - r), 0.0))

        def derivative(r):
            with np.errstate(divide="ignore"):
                head = r ** (a - 1.0) * (a + (a + 1.0) * r)
            return np.where(r < 1.0, head, np.where(r < 2.0, -2.0, 0.0))

        return RadialTestFunction(value, derivative, (0.0, 2.0), breakpoints=(1.0, 2.0),
                                  origin_power=a)

    @pytest.mark.parametrize("delta", [0.05, 1e-3])
    def test_error_bounds_the_error_where_the_head_is_not_a_pure_power(self, delta):
        # item 4(b) of the ROADMAP: C sampled at r = 1e-8 left the heads
        # 21 to 1000 times their estimates off.  The closed forms take the
        # exponents exactly from the double a: on (0, 1) the mass is
        # sum_k C(3,k) r^(s+k-1) with s = 3a - 2, and the energy at l = p
        # sum_k C(3,k) a^(3-k) (a+1)^k r^(s'+k-1) with s' = 3(a - 1) + 1
        p = 3.0
        a = (p - 1.0 + delta) / p
        u = self._head_profile(a)
        A = Fraction(a)
        s, s_e = 3 * A - 2, 3 * (A - 1) + 1
        mass = (float(sum(Fraction(math.comb(3, k)) / (s + k) for k in range(4)))
                + 48.0 * math.log(2.0) - 32.0)
        energy = float(sum(math.comb(3, k) * A ** (3 - k) * (A + 1) ** k / (s_e + k)
                           for k in range(4))) + 8.0
        for res, exact in ((hardy1d_mass(p, u, 1e-10), mass),
                           (hardy1d_energy(p, p, u, 1e-10), energy)):
            assert abs(res.value - exact) <= res.error_estimate, (res, exact)

    def test_head_constant_is_not_read_at_the_origin(self):
        # make_veps masks its derivative to 0 at r = 0, where the l = p
        # energy's head g = |v'|^3 r^(-3(a-1)) tends to a^3; a C read at 0
        # gave 5.0881 +- 0.029.  Its estimate, 3.6e-16, counts no rounding
        # and lies below the value's ulp (ROADMAP item 4), so only the
        # distance is checked
        p, eps, delta = 3.0, 0.1, 0.05
        v = make_veps(p, eps, delta)
        a = (p - 1.0 + delta) / p
        s = float(3 * (Fraction(a) - 1) + 1)
        res = power_singular_integral(
            lambda r: np.abs(v.derivative(r)) ** 3 * r ** (-3.0 * (a - 1.0)), s, eps, 1e-10)
        exact = a**3 * eps**s / s
        assert abs(res.value - exact) <= 1e-14 * exact

    def test_l_equals_p_is_plain_derivative_energy(self):
        p = 3.0
        v = make_bump(0.5, 2.0)
        lhs = hardy1d_energy(p, p, v, 1e-11)
        from hyplab.quadrature import integrate_interval

        direct = integrate_interval(
            lambda r: np.abs(v.derivative(r)) ** p, 0.5, 2.0, 0.0, rel_tol=1e-11,
        )
        assert lhs.value == pytest.approx(direct.value, rel=1e-9)

    def test_finite_mixed_energies(self):
        # finite for every 1 < l <= p (profile stays in the admissible class)
        p = 3.0
        v = make_veps(p, 0.3, 0.05)
        for l in (1.5, 2.0, 3.0):
            e = hardy1d_energy(p, l, v, 1e-9)
            assert math.isfinite(e.value) and e.value > 0


class TestHalfSpace:
    def test_indicator_n2(self):
        r = halfspace_integral(
            Params(2, 2.0), lambda x1, rho, y: np.ones_like(x1),
            ((0.0, 1.0), (0.0, 1.0), (1.0, 2.0)), 1e-10,
        )
        assert r.value == pytest.approx(1.0, abs=1e-9)

    def test_gaussian_n3_tensor_oracle(self):
        # oracle: product of 1D integrals, pi^(3/2) (1 + erf 1)/2
        r = halfspace_integral(
            Params(3, 2.0),
            lambda x1, rho, y: np.exp(-x1 * x1 - rho * rho - (y - 1.0) ** 2),
            ((-6.0, 6.0), (0.0, 6.0), (1e-9, 8.0)), 1e-8,
        )
        exact = math.pi**1.5 * (1.0 + math.erf(1.0)) / 2.0
        assert r.value == pytest.approx(exact, rel=1e-7)

    def test_rho_factor_n4(self):
        # omega_1 rho integrand: volume of unit box times 2 pi int rho drho
        r = halfspace_integral(
            Params(4, 2.0), lambda x1, rho, y: np.ones_like(x1),
            ((0.0, 1.0), (0.0, 1.0), (1.0, 2.0)), 1e-9,
        )
        assert r.value == pytest.approx(2.0 * math.pi * 0.5, rel=1e-8)

    def test_mass_of_decaying_family_matches_beta_closed_form(self):
        # Beta oracle at 40 digits: with sigma = N - 1 + eps, k = sigma / p and
        # c = omega_{N-1} 2^(N-1-2 sigma), the mass is c B(N/2, eps) and the
        # energy c k^p B((N+p)/2, eps); each lies within its error estimate.
        # Measured worst |value - oracle| / estimate: 0.44, the energy at
        # (40, 1.1), eps = 0.01, tol 1e-12, where g''(0) ~ 363 gives the
        # head's C an error that its estimate counts.
        mp = pytest.importorskip("mpmath")
        cases = [((2, 2.0), 0.1, 1e-6), ((2, 2.0), 1e-3, 1e-6), ((3, 3.0), 1e-2, 1e-6)]
        cases += itertools.product(
            [(2, 2.0), (3, 2.0), (3, 3.0), (13, 4.0), (2, 1.5), (40, 1.1)],
            [0.1, 0.01, 0.001], [1e-5, 1e-8, 1e-10, 1e-12])
        for (N, p), eps, tol in cases:
            energy, mass = ueps_energy_mass(Params(N, p), eps, tol)
            with mp.workdps(40):
                n, sigma = mp.mpf(N), N - 1 + mp.mpf(eps)
                c = 2 * mp.pi ** (n / 2) / mp.gamma(n / 2) * 2 ** (n - 1 - 2 * sigma)
                exact_m = c * mp.beta(n / 2, eps)
                exact_e = c * (sigma / p) ** p * mp.beta((n + p) / 2, eps)
                for res, exact in ((energy, exact_e), (mass, exact_m)):
                    assert abs(res.value - exact) <= res.error_estimate, (N, p, eps, tol)

    @pytest.mark.parametrize("eps, tol, panels", [
        (0.1, 1e-5, [15, 79]),
        (0.01, 1e-5, [7, 47]),
        (0.001, 1e-5, [7, 7]),
        (0.1, 1e-10, [31, 255]),
    ])
    def test_near_extremal_panel_counts(self, monkeypatch, eps, tol, panels):
        # [energy, mass] panels at (3, 3): one power-singular integral each,
        # B(3) for the energy and B(3/2) for the mass, in one batched call;
        # the mass's (1 - s)^(1/2) endpoint takes the refinement
        seen = []

        def recording(*args, **kwargs):
            results = power_singular_integrals(*args, **kwargs)
            seen.append([r.subdivisions for r in results])
            return results

        monkeypatch.setattr(integrals, "power_singular_integrals", recording)
        energy, mass = ueps_energy_mass(Params(3, 3.0), eps, tol)
        assert seen == [panels]
        assert [energy.subdivisions, mass.subdivisions] == panels

    @pytest.mark.parametrize("N, p, tol", [(2, 2.0, 1e-5), (3, 3.0, 1e-10),
                                           (7, 1.5, 1e-8), (13, 4.0, 1e-5)])
    def test_schedule_equals_its_single_eps_calls(self, N, p, tol):
        # value, error and subdivisions, bit for bit
        schedule = [0.3, 0.1, 0.01, 0.001]
        singles = [ueps_energy_mass(Params(N, p), eps, tol) for eps in schedule]
        assert ueps_energy_masses(Params(N, p), schedule, tol) == singles
        assert ueps_energy_masses(Params(N, p), schedule[::-1], tol) == singles[::-1]

    def test_quotient_matches_radial_oracle(self):
        # the family is radial about (0, 1): t = tanh^2(r/2) turns the energy
        # and the mass into Beta integrals, so with k = (N-1+eps)/p
        # q = k^p G((N+p)/2) G(N/2+eps) / (G(N/2) G((N+p)/2+eps))
        for N, p, eps, tol in itertools.product(
                (2, 3, 4, 7, 13), (1.5, 2.0, 3.0, 4.0), (0.1, 0.01, 0.001),
                (1e-5, 1e-10)):
            energy, mass = ueps_energy_mass(Params(N, p), eps, tol)
            q = energy / mass
            k = (N - 1 + eps) / p
            exact = k**p * math.exp(
                math.lgamma((N + p) / 2) + math.lgamma(N / 2 + eps)
                - math.lgamma(N / 2) - math.lgamma((N + p) / 2 + eps))
            assert abs(q.value - exact) <= q.error_estimate, (N, p, eps, tol)

    @pytest.mark.parametrize("N, eps", [(3, 1e300), (3, 600.0), (400, 0.1)])
    def test_rejects_eps_whose_constant_leaves_the_double_range(self, N, eps):
        # c k^p overflows at eps = 1e300, c = omega 2^(N-1-2 sigma)
        # underflows at eps = 600, and omega_399's Gamma(200) overflows;
        # each ended in an OverflowError or a 0/0 quotient
        with pytest.raises(ValueError, match=re.escape(f"eps={eps}: ")):
            ueps_energy_masses(Params(N, 2.0), [eps], 1e-5)


class TestVMassOracle:
    """The half-space V-mass against nested 1-D passes (ROADMAP item 15).

    The oracle never touches the cell engine: an outer 1-D pass over y
    evaluates each batch of y nodes with one inner lockstep pass over x1,
    one integral per node, and the rho factor is one more 1-D integral.
    """

    @staticmethod
    def _oracle(params, u, rel_tol):
        N, p = params.N, params.p
        phi, psi, chi = u.phi, u.psi, u.chi
        (x_lo, x_hi), (y_lo, y_hi) = phi.support, chi.support

        def outer(y):
            # the inner errors add at most rel_tol / 2 of the plane integral
            inner = integrate_intervals(
                lambda x1, owner: np.abs(phi.value(x1)) ** p / np.hypot(x1, y[owner]),
                [x_lo] * len(y), [x_hi] * len(y), 0.0, rel_tol=rel_tol / 2)
            return (np.array([r.value for r in inner])
                    * np.abs(chi.value(y)) ** p / y ** (N - 1))

        plane = integrate_interval(outer, y_lo, y_hi, 0.0, rel_tol=rel_tol / 2).value
        if psi is None:
            return plane
        rho = integrate_interval(
            lambda r: integrals.sphere_area(N - 3) * r ** (N - 3) * np.abs(psi.value(r)) ** p,
            *psi.support, 0.0, rel_tol=rel_tol).value
        return plane * rho

    def test_c4_draws_within_the_estimate(self):
        # every draw of c4's batteries (seed 99, 25 trials per (N, p)) at
        # tol 1e-6, against the oracle at relative 1e-10.  Measured worst
        # |V - oracle| / estimate: 0.254, at (2, 3), trial 3.  At tol 1e-9
        # the estimate under-bounds one draw's error 4.94 times (item 15),
        # so that tolerance is not asserted.
        worst = 0.0
        for N in (2, 3):
            for p in (1.5, 2.0, 3.0):
                params = Params(N, p)
                us = [random_halfspace_product(np.random.default_rng([99, i]), N)
                      for i in range(25)]
                for i, (u, t) in enumerate(zip(us, halfspace_battery(params, us, 1e-6))):
                    v = t["V"]
                    oracle = self._oracle(params, u, 1e-10)
                    assert abs(v.value - oracle) <= v.error_estimate, (N, p, i)
                    worst = max(worst, abs(v.value - oracle) / v.error_estimate)
        assert worst > 0.1  # the check is not vacuous
