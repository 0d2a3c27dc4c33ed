"""Characteristic-function constructors and the difference algebra."""

import math

import numpy as np
import pytest

from cfmoments import charfn as cf
from cfmoments.convolution import leibniz_difference
from cfmoments.errors import DomainError
from cfmoments.measures import DiscreteMeasure, lacunary_measure


def builtin_transforms():
    rng = np.random.default_rng(2024)
    return [
        cf.make_gaussian(1.0, 1),
        cf.make_gaussian(0.5, 3),
        cf.make_stable(0.7, 1.0, 2),
        cf.make_linnik(1.5, 2.0, 1),
        cf.make_point_mass([1.3]),
        cf.make_empirical(rng.normal(size=17)),
        cf.make_product(cf.make_gaussian(1.0, 1), cf.make_point_mass([0.5])),
        cf.make_schoenberg(
            DiscreteMeasure(np.array([[1.0], [4.0]]), np.array([0.5, 0.5])), 2.0, 1
        ),
        cf.make_mixture([cf.make_gaussian(1.0, 1), cf.make_stable(1.0, 1.0, 1)], [0.3, 0.7]),
    ]


class TestInvariants:
    @pytest.mark.parametrize("phi", builtin_transforms(), ids=lambda p: p.label[:34])
    def test_normalization_modulus_hermitian(self, phi):
        assert phi.evaluate(np.zeros(phi.dim)) == 1.0 + 0.0j
        rng = np.random.default_rng(7)
        pts = rng.normal(scale=3.0, size=(64, phi.dim))
        vals = phi.evaluate(pts)
        assert np.abs(vals).max() <= 1.0 + 1e-12
        conj = phi.evaluate(-pts)
        assert np.abs(vals - np.conj(conj)).max() < 1e-13

    @pytest.mark.parametrize("phi", builtin_transforms(), ids=lambda p: p.label[:34])
    def test_real_flag_and_radial_profile(self, phi):
        rng = np.random.default_rng(11)
        pts = rng.normal(scale=2.0, size=(48, phi.dim))
        vals = phi.evaluate(pts)
        if phi.is_real:
            assert np.abs(vals.imag).max() <= 1e-14
        if phi.is_radial:
            r = np.sqrt((pts**2).sum(axis=1))
            assert np.abs(vals - phi.profile(r)).max() <= 1e-14


class TestConstructors:
    def test_gaussian_values(self):
        g = cf.make_gaussian(1.0, 1)
        assert g.evaluate(1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
        g3 = cf.make_gaussian(2.0, 3)
        assert g3.evaluate([0.0, 1.0, 0.0]) == pytest.approx(math.exp(-2.0), rel=1e-15)
        with pytest.raises(DomainError):
            cf.make_gaussian(0.0, 1)

    def test_stable_values(self):
        s = cf.make_stable(1.0, 1.0, 1)
        assert s.evaluate(2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
        # the Gaussian is the p = 2 stable law, bitwise, plus its derivative oracle
        for t, d in ((1.0, 1), (0.7, 3)):
            s2, g = cf.make_stable(2.0, t, d), cf.make_gaussian(t, d)
            pts = np.random.default_rng(d).normal(scale=2.0, size=(25, d))
            r = np.linspace(0.0, 6.0, 25)
            assert np.array_equal(s2.minus_one(pts), g.minus_one(pts))
            assert np.array_equal(s2.radial_minus_one(r), g.radial_minus_one(r))
            assert np.array_equal(s2.envelope(r), g.envelope(r))
            for field in ("exponents", "coeffs", "errors"):
                assert np.array_equal(getattr(s2.series(), field), getattr(g.series(), field))
            for a in (0.5, 1.3, 3.7):
                assert s2.analytic_moment(a) == g.analytic_moment(a)
            assert s2.derivative is None and g.derivative is not None
            assert g.label == f"gaussian(t={t:g}, d={d})"
        assert g.derivative((1, 0, 0), np.zeros((1, 3)))[0] == 0.0
        assert g.derivative((2, 0, 0), np.zeros((1, 3)))[0] == pytest.approx(-1.4, rel=1e-15)
        s3 = cf.make_stable(0.5, 1.0, 3)
        assert s3.evaluate([0.0, 0.0, 4.0]) == pytest.approx(math.exp(-2.0), rel=1e-15)
        with pytest.raises(DomainError):
            cf.make_stable(2.5, 1.0, 1)

    def test_linnik_values(self):
        l = cf.make_linnik(1.0, 1.0, 1)
        assert l.evaluate(0.0) == 1.0
        assert l.evaluate(1.0) == pytest.approx(0.5, rel=1e-15)

    def test_point_mass(self):
        pm0 = cf.make_point_mass([0.0])
        assert pm0.evaluate(3.0) == 1.0
        pm = cf.make_point_mass([1.0])
        assert pm.evaluate(math.pi) == pytest.approx(-1.0, rel=1e-14)
        rng = np.random.default_rng(3)
        xs = rng.normal(size=7)
        assert np.abs(np.abs(pm.evaluate(xs)) - 1.0).max() < 1e-14

    def test_empirical_single_and_pair(self):
        a = 0.8
        one = cf.make_empirical([a])
        pm = cf.make_point_mass([a])
        xs = np.linspace(-3, 3, 13)
        assert np.abs(one.evaluate(xs) - pm.evaluate(xs)).max() < 1e-15
        pair = cf.make_empirical([a, -a])
        vals = pair.evaluate(xs)
        assert np.abs(vals - np.cos(xs * a)).max() < 1e-15
        assert np.abs(vals.imag).max() < 1e-16
        with pytest.raises(DomainError):
            cf.make_empirical(np.zeros((0, 1)))

    def test_empirical_matches_direct_summation(self):
        rng = np.random.default_rng(100)
        xs = rng.normal(size=100)
        e = cf.make_empirical(xs)
        xi = 0.3
        direct = np.mean(np.exp(-1j * xi * xs))
        assert abs(e.evaluate(xi) - direct) < 1e-15

    def test_empirical_moment_oracle_exact(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(size=(40, 2))
        e = cf.make_empirical(xs)
        for a in (0.5, 1.0, 1.7):
            brute = np.mean(np.sqrt((xs**2).sum(axis=1)) ** a)
            assert e.analytic_moment(a) == pytest.approx(brute, rel=1e-15)

    def test_product_rules(self):
        g1, g2 = cf.make_gaussian(1.0, 1), cf.make_gaussian(2.0, 1)
        prod = cf.make_product(g1, g2)
        xs = np.linspace(-3, 3, 11)
        assert np.abs(prod.evaluate(xs) - cf.make_gaussian(3.0, 1).evaluate(xs)).max() < 1e-15
        one = cf.make_point_mass([0.0])
        same = cf.make_product(g1, one)
        assert np.abs(same.evaluate(xs) - g1.evaluate(xs)).max() < 1e-15
        pa, pb = cf.make_point_mass([0.7]), cf.make_point_mass([0.5])
        pab = cf.make_product(pa, pb)
        assert np.abs(pab.evaluate(xs) - cf.make_point_mass([1.2]).evaluate(xs)).max() < 1e-14
        assert pab.atoms.size == 1
        with pytest.raises(DomainError):
            cf.make_product(g1, cf.make_gaussian(1.0, 2))

    def test_product_radial_atomic_form(self):
        g, s = cf.make_gaussian(0.5, 2), cf.make_stable(1.5, 0.3, 2)
        pm = cf.make_point_mass([0.6, -0.8])
        for prod in (cf.make_product(g, pm), cf.make_product(pm, g)):
            form = prod.radial_atomic
            assert form.atoms is pm.atoms
            assert form.radial_minus_one is g.radial_minus_one
        nested = cf.make_product(s, cf.make_product(pm, g))
        xs = np.random.default_rng(2).normal(size=(40, 2))
        r = np.sqrt((xs**2).sum(axis=1))
        form_values = (1.0 + nested.radial_atomic.radial_minus_one(r)) * pm.evaluate(xs)
        assert np.abs(form_values - nested.evaluate(xs)).max() < 1e-15
        # radial products and products of atomic laws keep no form
        assert cf.make_product(g, cf.make_point_mass([0.0, 0.0])).radial_atomic is None
        assert cf.make_product(g, s).radial_atomic is None
        assert cf.make_product(pm, pm).radial_atomic is None

    def test_schoenberg(self):
        nu = DiscreteMeasure(np.array([[1.0]]), np.array([1.0]))
        s = cf.make_schoenberg(nu, 1.5, 2)
        st = cf.make_stable(1.5, 1.0, 2)
        pts = np.random.default_rng(1).normal(size=(9, 2))
        assert np.abs(s.evaluate(pts) - st.evaluate(pts)).max() < 1e-15
        nu2 = DiscreteMeasure(np.array([[1.0], [4.0]]), np.array([0.5, 0.5]))
        s2 = cf.make_schoenberg(nu2, 2.0, 1)
        assert s2.evaluate(1.0) == pytest.approx((math.exp(-1) + math.exp(-4)) / 2, rel=1e-15)
        with pytest.raises(DomainError):
            cf.make_schoenberg(DiscreteMeasure(np.array([[-1.0]]), np.array([1.0])), 1.0, 1)

    @pytest.mark.parametrize("p, d", [(1.5, 2), (2.0, 1)])
    def test_schoenberg_is_a_mixture_of_stable_laws(self, p, d):
        from cfmoments import closed_forms
        from cfmoments.moment_engine import even_order_moment

        # a mixing atom at zero is the unit point mass at the origin
        nu = DiscreteMeasure(np.array([[0.5], [0.0], [2.0]]), np.array([0.2, 0.5, 0.3]))
        s = cf.make_schoenberg(nu, p, d)
        hand = cf.make_mixture([cf.make_stable(p, 0.5, d), cf.make_point_mass(np.zeros(d)),
                                cf.make_stable(p, 2.0, d)], nu.weights)
        assert s.label == f"schoenberg(p={p:g}, atoms=3, d={d})"
        pts = np.random.default_rng(4).normal(scale=2.0, size=(25, d))
        r = np.linspace(0.0, 6.0, 25)
        assert np.array_equal(s.minus_one(pts), hand.minus_one(pts))
        assert np.array_equal(s.radial_minus_one(r), hand.radial_minus_one(r))
        assert np.isrealobj(s.radial_minus_one(r))
        assert np.array_equal(s.envelope(r), hand.envelope(r))
        for field in ("exponents", "coeffs", "errors"):
            assert np.array_equal(getattr(s.series(), field), getattr(hand.series(), field))
        assert s.tail_limit == nu.weights[1]
        assert s.is_radial and s.is_real and s.atoms is None
        for a in (0.3, 0.9, 1.4):
            exact = closed_forms.schoenberg_moment(nu.points[:, 0], nu.weights, p, a, d)
            assert s.analytic_moment(a) == hand.analytic_moment(a)
            assert abs(s.analytic_moment(a) - exact) <= 4.0 * np.spacing(exact)
        if p == 2.0:
            # the zero atom adds no second moment: 2 t d per Gaussian part
            got = even_order_moment(s, 2).value
            assert got == pytest.approx(2.0 * d * (0.2 * 0.5 + 0.3 * 2.0), rel=1e-15)

    def test_schoenberg_at_zero_alone_is_the_origin_mass(self):
        s = cf.make_schoenberg(DiscreteMeasure(np.array([[0.0]]), np.array([1.0])), 1.5, 2)
        assert s.atoms is not None and s.atoms.size == 1 and s.tail_limit == 1.0
        assert np.array_equal(s.minus_one(np.ones((3, 2))), np.zeros(3))
        assert s.analytic_moment(0.7) == 0.0

    def test_mixture_weight_validation(self):
        with pytest.raises(DomainError):
            cf.make_mixture([cf.make_gaussian(1.0, 1)], [0.5])

    def test_scaled(self):
        g = cf.make_gaussian(1.0, 1)
        sc = cf.make_scaled(g, 2.0)
        xs = np.linspace(-2, 2, 9)
        assert np.abs(sc.evaluate(xs) - g.evaluate(2 * xs)).max() < 1e-15
        assert sc.analytic_moment(0.7) == pytest.approx(2**0.7 * g.analytic_moment(0.7), rel=1e-14)


class TestIteratedDifference:
    def test_annihilates_constants(self):
        one = cf.make_point_mass([0.0])
        for k in (1, 2, 3, 5):
            assert cf.iterated_difference(one, 0.7, k) == 0.0

    def test_gaussian_three_term(self):
        g = cf.make_gaussian(1.0, 1)
        got = cf.iterated_difference(g, 1.0, 2)
        expected = math.exp(-4.0) - 2.0 * math.exp(-1.0) + 1.0
        assert got.real == pytest.approx(expected, rel=1e-14)
        assert got.real == pytest.approx(0.282557, abs=5e-7)

    def test_point_mass_power_identity(self):
        a = 1.7
        pm = cf.make_point_mass([a])
        for k in (1, 2, 3, 4):
            for xi in (0.3, 0.9, 2.1):
                got = cf.iterated_difference(pm, xi, k)
                expected = (np.exp(-1j * xi * a) - 1.0) ** k
                assert abs(got - expected) < 1e-14

    def test_real_part_commutes(self):
        rng = np.random.default_rng(8)
        e = cf.make_empirical(rng.normal(size=9) + 0.5)
        for k in (1, 2, 3):
            xi = 0.77
            assert cf.real_part_difference(e, xi, k) == pytest.approx(
                cf.iterated_difference(e, xi, k).real, rel=1e-15
            )

    def test_real_part_for_real_transform(self):
        g = cf.make_gaussian(1.0, 1)
        assert cf.real_part_difference(g, 0.9, 2) == cf.iterated_difference(g, 0.9, 2).real

    def test_point_mass_first_difference(self):
        a = 1.1
        pm = cf.make_point_mass([a])
        xi = 0.6
        assert cf.real_part_difference(pm, xi, 1) == pytest.approx(
            math.cos(xi * a) - 1.0, rel=1e-14
        )

    def test_asymmetric_two_atom_direct(self):
        atoms = np.array([0.9, -2.3])
        e = cf.make_empirical(atoms)
        for k in (1, 2, 3):
            xi = 0.41
            direct = sum(
                math.comb(k, m) * (-1) ** (k - m) * np.mean(np.cos(m * xi * atoms))
                for m in range(k + 1)
            )
            assert cf.real_part_difference(e, xi, k) == pytest.approx(direct, rel=1e-12)

    def test_leibniz_equality_against_product(self):
        # identity owned by the convolution module, exercised on transforms here
        rng = np.random.default_rng(17)
        pairs = [
            (cf.make_gaussian(1.0, 1), cf.make_gaussian(2.0, 1)),
            (cf.make_stable(1.0, 1.0, 1), cf.make_gaussian(0.5, 1)),
            (cf.make_point_mass([0.8]), cf.make_empirical(rng.normal(size=5))),
        ]
        for phi, psi in pairs:
            prod = cf.make_product(phi, psi)
            for k in (1, 2, 3, 4):
                xi = float(rng.uniform(0.2, 2.0))
                lhs = leibniz_difference(phi, psi, xi, k)
                rhs = cf.iterated_difference(prod, xi, k)
                assert abs(lhs - rhs) < 1e-13, (phi.label, psi.label, k)


class TestMeasures:
    def test_lacunary_single_atom(self):
        m = lacunary_measure(1.0, 1)
        assert m.size == 1
        assert m.points[0, 0] == 2.0
        assert m.weights[0] == 1.0

    def test_lacunary_three_atoms(self):
        m = lacunary_measure(1.0, 3)
        raw = np.array([1 / 2, 1 / 16, 1 / 72])
        assert np.abs(m.weights - raw / raw.sum()).max() < 1e-15

    def test_lacunary_moment_growth(self):
        beta = 1.5
        vals = [lacunary_measure(1.0, K).moment(beta) for K in (4, 8, 12)]
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] / vals[1] > 1.3

    def test_weights_sum_to_one(self):
        m = DiscreteMeasure(np.array([[1.0], [2.0]]), np.array([3.0, 1.0]))
        assert math.fsum(m.weights) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(DomainError):
            DiscreteMeasure(np.array([[1.0]]), np.array([-1.0]))

    def test_convolve_atoms(self):
        a = DiscreteMeasure(np.array([[1.0], [2.0]]))
        b = DiscreteMeasure(np.array([[10.0], [20.0]]))
        c = a.convolve(b)
        assert sorted(c.points[:, 0]) == [11.0, 12.0, 21.0, 22.0]


class TestOriginSeries:
    """The sphere mean of ``phi - 1`` as a power series at the origin,
    one law per source against an mpmath Taylor expansion."""

    T = 0.7

    @staticmethod
    def _taylor(f, order):
        """Taylor coefficients 0..order of f at 0, in 50-digit arithmetic."""
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        return [float(c) for c in mpmath.taylor(f, 0, order)]

    @staticmethod
    def _check(series, exponents, ref):
        got = series.coeffs
        assert np.array_equal(series.exponents, np.asarray(exponents, dtype=float))
        ref = np.asarray(ref)
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref) + 1e-300)
        assert np.all(np.abs(got - ref) <= series.errors + 2e-16 * np.abs(ref))

    def _even(self, f):
        """Coefficients of r**2 .. r**24 of an even function of r."""
        c = self._taylor(f, 24)
        return 2.0 * np.arange(1, 13), [c[2 * j] for j in range(1, 13)]

    def test_gaussian(self):
        mpmath = pytest.importorskip("mpmath")
        e, ref = self._even(lambda r: mpmath.exp(-self.T * r**2) - 1)
        self._check(cf.make_gaussian(self.T, 2).series(), e, ref)

    @pytest.mark.parametrize("p", [0.7, 1.5])
    def test_stable_in_powers_of_r_to_the_p(self, p):
        mpmath = pytest.importorskip("mpmath")
        n = int(24 / p)
        c = self._taylor(lambda s: mpmath.exp(-self.T * s) - 1, n)
        self._check(cf.make_stable(p, self.T, 1).series(), p * np.arange(1, n + 1), c[1:])

    @pytest.mark.parametrize("beta", [2.0, 3.5])
    def test_linnik(self, beta):
        mpmath = pytest.importorskip("mpmath")
        e, ref = self._even(lambda r: (1 + r**2) ** (-beta) - 1)
        self._check(cf.make_linnik(2.0, beta, 3).series(), e, ref)

    def test_schoenberg_mixing_atom_at_zero_adds_nothing(self):
        mpmath = pytest.importorskip("mpmath")
        mixing = DiscreteMeasure(np.array([[0.0], [0.5], [2.0]]), np.array([0.2, 0.5, 0.3]))
        e, ref = self._even(lambda r: 0.5 * mpmath.exp(-0.5 * r**2)
                            + 0.3 * mpmath.exp(-2.0 * r**2) - 0.8)
        self._check(cf.make_schoenberg(mixing, 2.0, 1).series(), e, ref)

    @pytest.mark.parametrize("d", [1, 2])
    def test_atoms_all_at_the_origin_have_the_empty_series(self, d):
        # the transform is the constant 1: no term, not twelve zero ones
        s = cf.make_point_mass(np.zeros(d)).series()
        assert s.exponents.size == s.coeffs.size == s.errors.size == 0

    def test_schoenberg_mixing_atom_at_zero_adds_no_rounding(self):
        from cfmoments.moment_engine import even_order_moment

        mixing = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.3, 0.7]))
        phi = cf.make_schoenberg(mixing, 2.0, 1)
        alone = cf._weighted_union([0.7], [cf.make_stable(2.0, 1.0, 1).series()])
        got = phi.series()
        for a, b in ((got.exponents, alone.exponents), (got.coeffs, alone.coeffs),
                     (got.errors, alone.errors)):
            assert np.array_equal(a, b)
        # the value is the one the twelve zero terms gave; its bar was
        # 9.33e-16 with one merged rounding per exponent, and is 7.77e-16
        res = even_order_moment(phi, 2)
        assert res.value == 1.4
        assert res.error_estimate < 8e-16

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_atoms(self, d):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(60 + d)
        pts = rng.normal(scale=0.8, size=(7, d))
        pts[0] = 0.0
        w = rng.uniform(0.5, 1.5, 7)
        measure = DiscreteMeasure(pts, w)
        rho = [mpmath.mpf(float(x)) for x in measure.radii()]
        kernel = {1: mpmath.cos, 2: lambda u: mpmath.besselj(0, u),
                  3: lambda u: mpmath.sinc(u)}[d]
        e, ref = self._even(lambda r: mpmath.fsum(
            mpmath.mpf(float(wj)) * kernel(r * rj) for wj, rj in zip(measure.weights, rho)) - 1)
        self._check(cf.make_discrete(measure).series(), e, ref)

    def test_product_of_two_atomic_laws(self):
        a = cf.make_empirical(np.array([[0.3], [-1.1]]))
        b = cf.make_point_mass([0.6])
        got = cf.make_product(a, b).series()
        ref = cf.make_discrete(a.atoms.convolve(b.atoms)).series()
        assert np.allclose(got.coeffs, ref.coeffs, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_radial_atomic_heat_flow(self, d):
        from cfmoments.heat import evolve

        mpmath = pytest.importorskip("mpmath")
        a = np.array([0.6, -0.5, 0.3][:d])
        rho = mpmath.mpf(float(np.linalg.norm(a)))
        kernel = {1: mpmath.cos, 2: lambda u: mpmath.besselj(0, u),
                  3: lambda u: mpmath.sinc(u)}[d]
        e, ref = self._even(lambda r: mpmath.exp(-self.T * r**2) * kernel(r * rho) - 1)
        ev = evolve(cf.make_point_mass(a), 2.0, self.T)
        assert ev.radial_atomic is not None
        self._check(ev.series(), e, ref)

    def test_radial_times_radial(self):
        mpmath = pytest.importorskip("mpmath")
        e, ref = self._even(lambda r: mpmath.exp(-self.T * r**2) * (1 + r**2) ** -1.5 - 1)
        self._check(cf.make_product(cf.make_gaussian(self.T, 2),
                                    cf.make_linnik(2.0, 1.5, 2)).series(), e, ref)

    def test_scaled(self):
        mpmath = pytest.importorskip("mpmath")
        e, ref = self._even(lambda r: (1 + (1.7 * r) ** 2) ** -2.5 - 1)
        self._check(cf.make_scaled(cf.make_linnik(2.0, 2.5, 1), 1.7).series(), e, ref)

    def test_mixture_merges_equal_exponents(self):
        mpmath = pytest.importorskip("mpmath")
        mix = cf.make_mixture([cf.make_gaussian(self.T, 1), cf.make_linnik(2.0, 1.5, 1)],
                              [0.4, 0.6])
        e, ref = self._even(lambda r: 0.4 * mpmath.exp(-self.T * r**2)
                            + 0.6 * (1 + r**2) ** -1.5 - 1)
        self._check(mix.series(), e, ref)
        union = cf.make_mixture([cf.make_gaussian(1.0, 1), cf.make_stable(1.5, 1.0, 1)],
                                [0.5, 0.5]).series()
        assert np.all(np.diff(union.exponents) > 0)
        assert union.coefficient(1.5) == (-0.5, union.errors[0])
        assert union.coefficient(2.0)[0] == -0.5

    def test_transforms_without_a_series(self):
        from cfmoments.heat import evolve

        g = cf.make_gaussian(1.0, 2)
        custom = cf.CharFn(dim=2, minus_one=g.minus_one, is_radial=True, is_real=True,
                           radial_minus_one=g.radial_minus_one)
        flow = evolve(cf.make_point_mass([0.3, 0.4]), 2.0, 0.5)
        pm = cf.make_point_mass([1.0, 0.0])
        # a flow times an atomic law is a form on the convolved atoms
        assert cf.make_product(flow, pm).series() is not None
        # a mixture of flows has no normal form: a non-radial product with it has no series
        mix = cf.make_mixture([flow, evolve(pm, 2.0, 0.5)], [0.5, 0.5])
        assert mix.series() is not None and cf.normal_form(mix) is None
        assert cf.make_product(mix, pm).series() is None
        assert custom.series() is None
        assert cf.make_product(custom, g).series() is None
        assert cf.make_mixture([custom, g], [0.5, 0.5]).series() is None
        assert cf.make_scaled(custom, 2.0).series() is None

    def test_built_on_first_read_and_kept(self):
        measure = DiscreteMeasure(np.random.default_rng(3).normal(size=(50, 2)))
        phi = cf.make_product(cf.make_discrete(measure), cf.make_gaussian(0.5, 2))
        assert measure._even_moments is None
        series = phi.series()
        assert measure._even_moments is not None
        assert phi.series() is series
