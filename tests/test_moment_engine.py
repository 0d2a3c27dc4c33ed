"""The difference-integral moment engine against its closed-form oracles."""

import math
import warnings

import numpy as np
import pytest

from cfmoments import charfn as cf
from cfmoments import closed_forms as cfo
from cfmoments import moment_engine as me
from cfmoments.errors import DivergenceSuspectedError, DomainError
from cfmoments.quadrature import (
    ChebyshevBlocks,
    QuadratureSpec,
    adaptive_panel_integral,
    oscillatory_breakpoints,
)
from cfmoments.specfun import gamma, power_difference_sum


class TestSelectOrder:
    def test_small_fractional(self):
        assert me.select_difference_order(0.5) == (1, "M13")

    def test_odd_integer(self):
        assert me.select_difference_order(3.0) == (3, "M13")

    def test_even_integer(self):
        assert me.select_difference_order(2.0) == (None, "even-series")

    def test_larger_fractional(self):
        assert me.select_difference_order(2.5) == (3, "M13")

    def test_complex_preference(self):
        assert me.select_difference_order(2.5, prefer_real=False) == (3, "M12")
        assert me.select_difference_order(1.5, prefer_real=False) == (2, "M12")

    def test_positive_order_required(self):
        with pytest.raises(DomainError):
            me.select_difference_order(0.0)


class TestAbsoluteMoment:
    def test_gaussian_first_moment(self):
        res = me.absolute_moment(cf.make_gaussian(1.0, 1), 1.0)
        assert res.value == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-9)
        assert res.value == pytest.approx(1.1283791671, abs=1e-9)
        assert res.formula == "M13" and res.k_used == 1

    def test_cauchy_half_moment(self):
        res = me.absolute_moment(cf.make_stable(1.0, 1.0, 1), 0.5)
        assert res.value == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_point_mass(self):
        res = me.absolute_moment(cf.make_point_mass([1.7]), 0.8)
        assert res.value == pytest.approx(1.7**0.8, rel=1e-9)

    def test_empirical_quadrature_vs_exact(self):
        rng = np.random.default_rng(1234)
        xs = rng.normal(size=50)
        e = cf.make_empirical(xs)
        for a in (0.5, 0.7):
            res = me.absolute_moment(e, a)
            brute = float(np.mean(np.abs(xs) ** a))
            assert res.value == pytest.approx(brute, rel=1e-3)
            exact = me.absolute_moment(e, a, method="exact")
            assert exact.formula == "discrete-exact"
            assert exact.value == pytest.approx(brute, rel=1e-14)

    def test_value_nonnegative_and_error_reported(self):
        res = me.absolute_moment(cf.make_linnik(1.5, 1.0, 2), 0.9)
        assert res.value >= 0.0
        assert res.error_estimate >= 0.0

    def test_even_integer_routes_to_limit(self):
        res = me.absolute_moment(cf.make_gaussian(1.0, 1), 2.0)
        assert res.formula == "even-series"
        assert res.value == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bars_cover_near_even_integers(self, d):
        g = cf.make_gaussian(0.7, d)
        for alpha in (1.9, 1.999, 1.9999, 2.0001, 2.001, 2.01):
            res = me.absolute_moment(g, alpha, k=3)
            exact = cfo.stable_moment(2.0, alpha, d) * 0.7 ** (alpha / 2)
            assert abs(res.value - exact) <= res.error_estimate, alpha

    def test_bar_carries_the_constant_rounding(self, monkeypatch):
        from cfmoments.specfun import power_difference_condition

        # an exact integral leaves only the constant's rounding in the bar:
        # (4 kappa + 8) units of 2**-53, kappa the power sum's cancellation
        monkeypatch.setattr(me, "_signed_integral", lambda phi, k, alpha, spec, part: (
            complex(3.0 / me.moment_constant(k, alpha, 1)), 0.0, {"imag_residual": 0.0}))
        g = cf.make_gaussian(0.7, 1)
        for alpha, k in ((2.000001, 7), (4.0001, 7), (2.5, 3), (0.5, 1)):
            res = me.absolute_moment(g, alpha, k=k)
            kappa = power_difference_condition(k, alpha)
            assert res.error_estimate == (4.0 * kappa + 8.0) * 2.0**-53 * res.value, alpha
        assert power_difference_condition(7, 4.0001) > 1e4

    def test_guard_band_reroutes_complex_formula(self):
        g = cf.make_gaussian(1.0, 1)
        res = me.absolute_moment(g, 1.0 + 5e-7, k=2, formula="M12")
        assert res.diagnostics.get("rerouted")
        assert res.formula == "M13"
        expected = 2.0 ** (1.0 + 5e-7) * gamma((2.0 + 5e-7) / 2) / gamma(0.5)
        assert res.value == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("alpha, k, formula", [
        (0.5, 2, "bogus"), (0.5, None, "bogus"), (0.5, 1, "m13"), (2.0, None, "bogus"),
        (0.5, None, "even-series"), (1.5, 1, "even-series"),
    ])
    def test_unknown_formula_raises(self, alpha, k, formula):
        # M12 and M13 at any order, even-series at even-integer orders only
        with pytest.raises(DomainError):
            me.absolute_moment(cf.make_gaussian(1.0, 1), alpha, k=k, formula=formula)

    def test_dimension_limit_nonradial(self):
        pm = cf.make_point_mass([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            me.absolute_moment(pm, 0.5)

    def test_exact_method_requires_oracle(self):
        profile = cf.make_gaussian(1.0, 1)
        semi = cf.CharFn(
            dim=1, minus_one=profile.minus_one, is_radial=True, is_real=True,
            radial_minus_one=profile.radial_minus_one, envelope=profile.envelope,
        )
        with pytest.raises(DomainError):
            me.absolute_moment(semi, 0.5, method="exact")


class TestOracleAgreement:
    """Engine vs closed forms across the parameter grid."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.5, 2.5, 3.0])
    def test_gaussian_grid(self, d, alpha):
        res = me.absolute_moment(cf.make_gaussian(1.0, d), alpha)
        assert res.value == pytest.approx(cfo.stable_moment(2.0, alpha, d), rel=1e-6)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("p", [0.7, 1.0, 1.5])
    def test_stable_grid(self, d, p):
        for frac in (0.4, 0.8):
            alpha = frac * p
            res = me.absolute_moment(cf.make_stable(p, 1.0, d), alpha)
            assert res.value == pytest.approx(cfo.stable_moment(p, alpha, d), rel=1e-6)

    @pytest.mark.parametrize(
        "p,beta,alpha",
        [(1.0, 1.0, 0.5), (1.5, 2.0, 0.9), (2.0, 1.5, 2.5), (0.8, 3.0, 0.5), (2.0, 1.0, 3.0)],
    )
    def test_linnik_grid(self, p, beta, alpha):
        res = me.absolute_moment(cf.make_linnik(p, beta, 1), alpha)
        assert res.value == pytest.approx(cfo.linnik_moment(p, beta, alpha, 1), rel=1e-6)

    def test_linnik_plane_and_space(self):
        for d in (2, 3):
            res = me.absolute_moment(cf.make_linnik(1.5, 2.0, d), 0.9)
            assert res.value == pytest.approx(cfo.linnik_moment(1.5, 2.0, 0.9, d), rel=1e-6)

    def test_schoenberg_mixture_engine(self):
        from cfmoments.measures import DiscreteMeasure

        nu = DiscreteMeasure(np.array([[0.5], [2.0]]), np.array([0.25, 0.75]))
        phi = cf.make_schoenberg(nu, 1.5, 2)
        res = me.absolute_moment(phi, 0.8)
        expected = cfo.schoenberg_moment([0.5, 2.0], [0.25, 0.75], 1.5, 0.8, 2)
        assert res.value == pytest.approx(expected, rel=1e-6)

    def test_schoenberg_with_origin_component(self):
        from cfmoments.measures import DiscreteMeasure

        # a zero mixing atom contributes a unit point mass at the origin
        nu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.3, 0.7]))
        phi = cf.make_schoenberg(nu, 2.0, 1)
        assert phi.tail_limit == pytest.approx(0.3)
        res = me.absolute_moment(phi, 1.0)
        expected = 0.7 * cfo.stable_moment(2.0, 1.0, 1)
        assert res.value == pytest.approx(expected, rel=1e-6)

    def test_mixture_engine(self):
        mix = cf.make_mixture(
            [cf.make_gaussian(1.0, 1), cf.make_linnik(2.0, 1.0, 1)], [0.4, 0.6]
        )
        res = me.absolute_moment(mix, 1.3)
        expected = 0.4 * cfo.stable_moment(2.0, 1.3, 1) + 0.6 * cfo.linnik_moment(2.0, 1.0, 1.3)
        assert res.value == pytest.approx(expected, rel=1e-6)

    def test_scaled_stable(self):
        res = me.absolute_moment(cf.make_stable(1.5, 2.0, 2), 0.8)
        expected = cfo.stable_moment(1.5, 0.8, 2) * 2.0 ** (0.8 / 1.5)
        assert res.value == pytest.approx(expected, rel=1e-7)

    def test_near_edge_softer_tolerance(self):
        p = 0.7
        alpha = p - 0.05
        res = me.absolute_moment(cf.make_stable(p, 1.0, 1), alpha)
        assert res.value == pytest.approx(cfo.stable_moment(p, alpha, 1), rel=1e-4)


class TestFormulaeConsistency:
    @pytest.mark.parametrize("phi,k,alpha", [
        (cf.make_gaussian(1.0, 1), 1, 0.5),
        (cf.make_gaussian(1.0, 1), 3, 0.5),
        (cf.make_gaussian(1.0, 1), 3, 2.5),
        (cf.make_gaussian(0.5, 2), 3, 2.5),
        (cf.make_linnik(1.5, 2.0, 1), 1, 0.5),
        (cf.make_linnik(1.5, 2.0, 1), 3, 0.5),
        (cf.make_linnik(1.5, 2.0, 1), 3, 1.2),
    ], ids=["g-1-05", "g-3-05", "g-3-25", "g2d-3-25", "l-1-05", "l-3-05", "l-3-12"])
    def test_complex_real_coincidence(self, phi, k, alpha):
        # both formulas where both hypotheses hold (non-integer alpha < k)
        r13 = me.absolute_moment(phi, alpha, k=k, formula="M13")
        if alpha < k:
            r12 = me.absolute_moment(phi, alpha, k=k, formula="M12")
            assert r12.value == pytest.approx(r13.value, rel=1e-8)
        else:
            assert r13.value > 0.0

    def test_k_invariance(self):
        g = cf.make_gaussian(1.0, 2)
        r1 = me.absolute_moment(g, 0.5, k=1, formula="M13")
        r3 = me.absolute_moment(g, 0.5, k=3, formula="M13")
        assert r1.value == pytest.approx(r3.value, rel=1e-6)
        l = cf.make_linnik(2.0, 1.0, 1)
        r1 = me.absolute_moment(l, 1.3, k=1, formula="M13")
        r3 = me.absolute_moment(l, 1.3, k=3, formula="M13")
        assert r1.value == pytest.approx(r3.value, rel=1e-6)

    def test_scaling_law(self):
        g = cf.make_gaussian(1.0, 1)
        for c in (0.5, 2.0, 5.0):
            sc = cf.make_scaled(g, c)
            lhs = me.absolute_moment(sc, 0.7).value
            rhs = c**0.7 * me.absolute_moment(g, 0.7).value
            assert lhs == pytest.approx(rhs, rel=1e-8)

    @pytest.mark.parametrize("phi,top", [
        (cf.make_gaussian(1.0, 1), 3.5),
        (cf.make_linnik(2.0, 1.5, 1), 3.5),
    ], ids=["gaussian", "linnik"])
    def test_order_monotonicity(self, phi, top):
        orders = [0.3, 0.7, 1.3, 1.9, 2.7, top]
        vals = [me.absolute_moment(phi, a).value ** (1.0 / a) for a in orders]
        for lo, hi in zip(vals[:-1], vals[1:]):
            assert lo <= hi * (1.0 + 1e-9)

    def test_order_continuity(self):
        g = cf.make_gaussian(1.0, 1)
        base = me.absolute_moment(g, 1.5).value
        diffs = [
            abs(me.absolute_moment(g, 1.5 - eps).value - base)
            for eps in (1e-1, 1e-2, 1e-3)
        ]
        assert diffs[0] > diffs[1] > diffs[2]


class TestEvenOrder:
    def test_gaussian_variance(self):
        res = me.even_order_moment(cf.make_gaussian(1.0, 1), 2)
        assert res.value == pytest.approx(2.0, rel=1e-12)
        assert res.formula == "even-series"

    def test_point_mass_square(self):
        res = me.even_order_moment(cf.make_point_mass([1.5]), 2)
        assert res.value == pytest.approx(2.25, rel=1e-12)

    def test_gaussian_fourth_order(self):
        res = me.even_order_moment(cf.make_gaussian(1.0, 1), 4)
        assert res.value == pytest.approx(12.0, rel=1e-12)

    def test_linnik_p2(self):
        res = me.even_order_moment(cf.make_linnik(2.0, 2.0, 1), 2)
        assert res.value == pytest.approx(cfo.linnik_moment(2.0, 2.0, 2.0), rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            me.even_order_moment(cf.make_gaussian(1.0, 1), 3)


def _noncentral_gaussian_moment(t, atoms, weights, alpha):
    """E|a + Z|**alpha for Z ~ N(0, 2t I), averaged over weighted atoms a:
    ``(4t)**(alpha/2) Gamma((d+alpha)/2) / Gamma(d/2) 1F1(-alpha/2; d/2; -|a|**2/(4t))``."""
    from scipy.special import hyp1f1

    pts = np.atleast_2d(np.asarray(atoms, dtype=float))
    d = pts.shape[1]
    base = (4.0 * t) ** (alpha / 2.0) * gamma((d + alpha) / 2.0) / gamma(d / 2.0)
    per_atom = base * hyp1f1(-alpha / 2.0, d / 2.0, -(pts**2).sum(axis=1) / (4.0 * t))
    return math.fsum(np.asarray(weights, dtype=float) * per_atom)


class TestEvenSeries:
    """Even orders read from one coefficient of the origin series."""

    ORDERS = (2, 4, 6, 8, 10)

    @staticmethod
    def _check(phi, order, exact):
        res = me.even_order_moment(phi, order)
        assert res.formula == "even-series" and res.k_used is None
        err = abs(res.value - exact)
        assert err <= 1e-12 * exact, (phi.label, order, err / exact)
        assert err <= res.error_estimate + 1e-15 * exact
        return res

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gaussian(self, d):
        g = cf.make_gaussian(0.7, d)
        for order in self.ORDERS:
            res = self._check(g, order, cfo.stable_moment(2.0, order, d) * 0.7 ** (order / 2))
            assert res.diagnostics["exponent"] == order
            j = order // 2
            assert res.diagnostics["coefficient"] == pytest.approx((-0.7) ** j / math.factorial(j))
            assert res.diagnostics["kappa"] * res.value == pytest.approx(
                res.diagnostics["coefficient"], rel=1e-15)

    @pytest.mark.parametrize("beta", [2.0, 3.5])
    @pytest.mark.parametrize("d", [1, 3])
    def test_linnik_p2(self, d, beta):
        phi = cf.make_linnik(2.0, beta, d)
        for order in self.ORDERS:
            self._check(phi, order, cfo.linnik_moment(2.0, beta, order, d))

    def test_schoenberg_p2(self):
        from cfmoments.measures import DiscreteMeasure

        t, w = np.array([0.0, 0.5, 2.0]), np.array([0.2, 0.5, 0.3])
        phi = cf.make_schoenberg(DiscreteMeasure(t[:, None], w), 2.0, 2)
        for order in self.ORDERS:
            self._check(phi, order, cfo.schoenberg_moment(t, w, 2.0, order, 2))

    def test_mixture_and_scaling(self):
        mix = cf.make_mixture([cf.make_gaussian(0.7, 2), cf.make_linnik(2.0, 3.5, 2)],
                              [0.25, 0.75])
        scaled = cf.make_scaled(cf.make_linnik(2.0, 3.5, 3), 1.7)
        for order in self.ORDERS:
            self._check(mix, order, 0.25 * cfo.stable_moment(2.0, order, 2) * 0.7 ** (order / 2)
                        + 0.75 * cfo.linnik_moment(2.0, 3.5, order, 2))
            self._check(scaled, order, 1.7**order * cfo.linnik_moment(2.0, 3.5, order, 3))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_atom_sum(self, d):
        e = cf.make_empirical(np.random.default_rng(70 + d).normal(size=(40, d)))
        for order in self.ORDERS:
            self._check(e, order, e.atoms.moment(order))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_heat_flow_of_atoms(self, d):
        from cfmoments.heat import evolve

        t = 0.5
        point = np.array([0.8, -0.3, 0.4][:d])
        sample = np.random.default_rng(80 + d).normal(scale=0.7, size=(20, d))
        for atoms in (point[None, :], sample):
            ev = evolve(cf.make_empirical(atoms), 2.0, t)
            for order in self.ORDERS:
                self._check(ev, order, _noncentral_gaussian_moment(
                    t, atoms, np.full(len(atoms), 1.0 / len(atoms)), order))

    def test_even_order_through_absolute_moment(self):
        res = me.absolute_moment(cf.make_gaussian(0.7, 1), 6.0)
        assert res.formula == "even-series"
        assert res.value == pytest.approx(cfo.stable_moment(2.0, 6.0, 1) * 0.7**3, rel=1e-12)
        named = me.absolute_moment(cf.make_gaussian(0.7, 1), 6.0, formula="even-series")
        assert named.value == res.value

    def test_point_mass_at_the_origin(self):
        res = me.even_order_moment(cf.make_point_mass([0.0, 0.0]), 4)
        assert res.value == 0.0 and res.formula == "even-series"

    @pytest.mark.parametrize("phi", [
        cf.make_stable(1.5, 1.0, 1),
        cf.make_linnik(1.5, 2.0, 2),
        cf.make_mixture([cf.make_gaussian(1.0, 1), cf.make_stable(1.9, 1.0, 1)], [0.5, 0.5]),
    ], ids=lambda p: p.label[:30])
    def test_divergent_formula_laws(self, phi):
        for order in (2, 4):
            with pytest.raises(DivergenceSuspectedError):
                me.even_order_moment(phi, order)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_divergent_heat_flow(self, d):
        from cfmoments.heat import evolve

        ev = evolve(cf.make_point_mass(np.full(d, 0.5)), 1.5, 0.5)
        with pytest.raises(DivergenceSuspectedError):
            me.even_order_moment(ev, 2)

    def test_negative_quotient_raises(self):
        import dataclasses

        from cfmoments.charfn import OriginSeries

        g = cf.make_gaussian(1.0, 1)
        wrong = OriginSeries(np.array([2.0]), np.array([0.5]), np.array([0.0]))
        phi = dataclasses.replace(g, origin_series=lambda: wrong)
        with pytest.raises(DivergenceSuspectedError):
            me.even_order_moment(phi, 2)

    def test_orders_past_the_series(self):
        g = cf.make_gaussian(1.0, 1)
        assert me.even_order_moment(g, 24).formula == "even-series"
        with pytest.raises(DomainError):
            me.even_order_moment(g, 26)

    def test_transforms_without_a_series_raise(self):
        import dataclasses

        from cfmoments.heat import evolve

        a, b = np.array([0.8]), np.array([-0.3])
        # a flow times an atomic law is the flow of the convolved atoms
        phi = cf.make_product(evolve(cf.make_point_mass(a), 2.0, 0.5), cf.make_point_mass(b))
        self._check(phi, 2, float((a + b) @ (a + b)) + 1.0)
        bare = dataclasses.replace(cf.make_gaussian(1.0, 1), origin_series=None)
        for order in (2, 12):
            with pytest.raises(DomainError, match="origin_series"):
                me.even_order_moment(bare, order)
        with pytest.raises(DomainError, match="origin_series"):
            me.absolute_moment(bare, 2.0)


class TestDivergenceDetection:
    def test_cauchy_above_order_one(self):
        with pytest.raises(DivergenceSuspectedError):
            me.absolute_moment(cf.make_stable(1.0, 1.0, 1), 1.5)

    def test_stable_at_its_exponent(self):
        with pytest.raises(DivergenceSuspectedError):
            me.absolute_moment(cf.make_stable(0.7, 1.0, 1), 0.71)

    def test_convolution_gains_no_order(self):
        conv = cf.make_product(cf.make_stable(1.0, 1.0, 1), cf.make_gaussian(1.0, 1))
        with pytest.raises(DivergenceSuspectedError):
            me.absolute_moment(conv, 1.5)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_heat_flow_at_its_exponent(self, d):
        # the origin refits run under the rule of the first fit: a coherent
        # slope at the order raises wherever the descent meets it
        from cfmoments.heat import evolve

        ev = evolve(cf.make_point_mass(np.eye(d)[0]), 1.5, 0.5)
        with pytest.raises(DivergenceSuspectedError):
            me.absolute_moment(ev, 1.5)

    @pytest.mark.parametrize("d,alpha,expected", [
        (1, 1.3, 2.4945076668920536), (1, 1.45, 7.067087533237762),
        (2, 1.3, 3.8228638856975157), (2, 1.45, 12.020733658890206),
        (3, 1.3, 4.9404350435895), (3, 1.45, 16.33875167676528),
    ])
    def test_heat_flow_below_its_exponent(self, d, alpha, expected):
        from cfmoments.heat import evolve

        ev = evolve(cf.make_point_mass(np.eye(d)[0]), 1.5, 0.5)
        assert me.absolute_moment(ev, alpha).value == pytest.approx(expected, rel=1e-12)


class TestRadialIntegral:
    def test_flat_profile_is_zero(self):
        val = me.radial_difference_integral(lambda r: np.ones_like(r), 2, 0.5)
        assert val == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p,alpha", [(1.0, 0.5), (0.7, 0.4), (2.0, 1.3)])
    def test_first_difference_closed_form(self, p, alpha):
        got = me.radial_difference_integral(
            lambda r: np.exp(-(r**p)), 1, alpha,
            minus_one=lambda r: np.expm1(-(r**p)),
            envelope=lambda r: np.exp(-(np.asarray(r, dtype=float) ** p)),
        )
        expected = -gamma(1.0 - alpha / p) / alpha
        assert got == pytest.approx(expected, rel=1e-8)

    def test_gaussian_profile_k3_closed_form(self):
        alpha = 2.5
        got = me.radial_difference_integral(
            lambda r: np.exp(-(r**2)), 3, alpha,
            minus_one=lambda r: np.expm1(-(r**2)),
            envelope=lambda r: np.exp(-(np.asarray(r, dtype=float) ** 2)),
        )
        expected = -math.pi * power_difference_sum(3, alpha) / (
            2.0 * math.sin(math.pi * alpha / 2.0) * gamma(1.0 + alpha / 2.0)
        )
        assert got == pytest.approx(expected, rel=1e-8)

    def test_plain_profile_without_helpers(self):
        got = me.radial_difference_integral(lambda r: np.exp(-(r**2)), 1, 0.5)
        assert got == pytest.approx(-gamma(0.75) / 0.5, rel=1e-7)


class TestFulldimIntegral:
    def test_radial_agreement(self):
        g = cf.make_gaussian(1.0, 2)
        full, err, diag = me.fulldim_difference_integral(g, 1, 0.5)
        profile = me.difference_profile(g, k=1, spec=QuadratureSpec(), part="real",
                                        magnitude=False)
        radial, rerr, _ = profile.integrate(0.5, QuadratureSpec())
        assert full.real == pytest.approx(profile.angular * radial.real, rel=1e-9)
        assert abs(full.imag) <= 1e-9 * (1.0 + abs(full.real))

    def test_empirical_plane(self):
        rng = np.random.default_rng(77)
        xs = rng.normal(size=(10, 2))
        e = cf.make_empirical(xs)
        res = me.absolute_moment(e, 0.5, k=1)
        brute = float(np.mean(np.sqrt((xs**2).sum(1)) ** 0.5))
        assert res.value == pytest.approx(brute, rel=1e-2)

    def test_empirical_plane_with_small_radius_atom(self):
        # an atom close to the origin forces the Bessel tail bridge
        xs = np.array([[0.04, 0.03], [1.2, -0.5], [-2.0, 0.7], [0.6, 1.4]])
        e = cf.make_empirical(xs)
        res = me.absolute_moment(e, 0.8)
        brute = float(np.mean(np.sqrt((xs**2).sum(1)) ** 0.8))
        assert res.value == pytest.approx(brute, rel=3e-3)

    def test_shifted_gaussian_vs_monte_carlo(self):
        sg = cf.make_product(cf.make_gaussian(1.0, 2), cf.make_point_mass([1.0, 0.0]))
        res = me.absolute_moment(sg, 0.5, k=1, formula="M12")
        rng = np.random.default_rng(4242)
        pts = rng.normal(scale=math.sqrt(2.0), size=(1_000_000, 2)) + np.array([1.0, 0.0])
        vals = np.sqrt((pts**2).sum(1)) ** 0.5
        est, se = float(vals.mean()), float(vals.std() / math.sqrt(len(vals)))
        assert abs(res.value - est) < 3.0 * se


class TestOctaveIncrements:
    def test_last_two_extension_chunks(self):
        # the membership cutoff check reads these instead of integrating
        # octaves of its own
        spec = QuadratureSpec()
        e = cf.make_empirical(np.random.default_rng(5).normal(size=100))
        profile = me.difference_profile(e, k=2, spec=spec, part="complex", magnitude=True)
        _, _, diag = profile.integrate(1.5, spec)
        R = diag["tail_start"]
        expected = []
        for lo, hi in ((R / 4.0, R / 2.0), (R / 2.0, R)):
            bp = oscillatory_breakpoints(lo, hi, profile.freq, per_octave=3)
            v, _, _, _ = adaptive_panel_integral(
                profile.integrand(1.5), bp, spec.rel_tol, spec.abs_tol, spec.max_panels
            )
            expected.append(float(np.real(v)))
        assert diag["octave_increments"] == expected

    def test_empty_without_extension(self):
        spec = QuadratureSpec()
        g = cf.make_gaussian(1.0, 1)
        profile = me.difference_profile(g, k=1, spec=spec, part="real", magnitude=True)
        _, _, diag = profile.integrate(0.5, spec)
        assert diag["octave_increments"] == []


class TestBatchedAtomicTail:
    Y = np.concatenate([
        np.geomspace(1e-3, 200.0, 61),
        [5.0, 5.0, np.nextafter(5.0, 6.0), 31.999999, 32.0, 32.0000001, 40.0, 40.0],
    ])
    # size of the kernel times u**(-1-alpha) at the limit
    AMPLITUDE = {
        "cos": lambda y: np.ones_like(y),
        "sinc": lambda y: 1.0 / y,
        "j0": lambda y: np.minimum(1.0, np.sqrt(2.0 / (np.pi * y))),
    }

    @pytest.mark.parametrize("alpha", [0.3, 1.5, 2.5, 4.5])
    @pytest.mark.parametrize("kernel", ["cos", "j0", "sinc"])
    def test_kernel_tail_array_matches_scalar_calls(self, kernel, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            val, err = me._kernel_tail(kernel, self.Y, alpha)
            scalar = [me._kernel_tail(kernel, float(y), alpha) for y in self.Y]
        ref = np.array([v for v, _ in scalar])
        scale = np.maximum(np.abs(ref), self.Y ** (-1.0 - alpha) * self.AMPLITUDE[kernel](self.Y))
        assert val.shape == err.shape == self.Y.shape
        assert np.all(np.abs(val - ref) <= 1e-14 * scale)
        assert np.all(err > 0.0)

    def test_scalar_in_scalar_out(self):
        for kernel in ("cos", "j0", "sinc"):
            val, err = me._kernel_tail(kernel, 3.0, 1.5)
            assert np.ndim(val) == 0 and np.ndim(err) == 0

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5])
    def test_close_matches_per_atom_sum(self, d, alpha):
        rng = np.random.default_rng(d)
        pts = rng.normal(size=(50, d)) * np.exp(rng.normal(size=(50, 1)))
        spec = QuadratureSpec()
        k, _ = me.select_difference_order(alpha)
        profile = me.difference_profile(cf.make_empirical(pts), k=k, spec=spec,
                                        part="real", magnitude=False)
        tail = profile.tail
        assert isinstance(tail, me.AtomicTail)
        for R in (0.5, 8.0, 64.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                _, val, err = tail.close(profile, alpha, R)
            ref = ref_err = mag = 0.0
            for m in range(1, k + 1):
                for rho, w in zip(tail.radii, tail.weights):
                    t, te = me._kernel_tail(tail.kernel, float(m * R * rho), alpha)
                    ref += tail.coeffs[m] * (m * rho) ** alpha * w * t
                    ref_err += abs(tail.coeffs[m]) * (m * rho) ** alpha * w * te
                    mag += abs(tail.coeffs[m] * (m * rho) ** alpha * w * t)
            # the atoms' tails cancel, so the gap is measured against the sum
            # of the terms' magnitudes
            assert abs(val - ref) <= 1e-13 * mag
            assert abs(val - ref) <= err
            # the shared grid's panels are no wider than a lone limit's, so
            # their Kronrod estimates may come out slightly smaller
            assert err >= 0.99 * ref_err

    def test_close_without_atoms_off_the_origin(self):
        phi = cf.make_empirical(np.zeros((3, 2)))
        spec = QuadratureSpec()
        profile = me.difference_profile(phi, k=1, spec=spec, part="real", magnitude=False)
        const, val, err = profile.tail.close(profile, 0.5, 8.0)
        assert const == 0.0 and val == 0.0 and err == 0.0

    def test_sin_series_tail_matches_per_term_sum(self):
        from cfmoments.quadrature import trig_tail_integral

        tail = me.SinSeriesTail(1.3)
        alpha, R = 0.5, 8.0
        _, val, err = tail.close(None, alpha, R)
        ref = (4.0 / math.pi) * R ** (-alpha) / alpha
        for n in range(1, 65):
            t, _ = trig_tail_integral(n * 1.3 * R, alpha)
            ref -= (8.0 / math.pi) * (n * 1.3) ** alpha * t / (4.0 * n**2 - 1.0)
        assert abs(val - ref) <= 1e-13 * abs(ref)
        assert err > 0.0


def _sweep_laws():
    """The atomic laws of the tail-start sweep, built on first use."""
    from cfmoments import mc_oracle

    rng = np.random.default_rng
    return {
        **{f"gaussian-d{d}-n300": lambda d=d: mc_oracle.sample_gaussian(1.0, d, 300, d).points
           for d in (1, 2, 3)},
        "stable1.5-n1000": lambda: mc_oracle.sample_stable_1d(1.5, 1000, 1).points,
        "lacunary-12": None,
        "origin3-plus-50-scaled-30": lambda: np.concatenate(
            [np.zeros((3, 1)), 30.0 * rng(2).normal(size=(50, 1))]),
        "50-scaled-1e-3": lambda: 1e-3 * rng(20).normal(size=(50, 1)),
    }


# For k >= 3 the series branch of the atomic reduction sums each m apart and
# then combines over m, so terms of size z**2 cancel down to z**(k+1); on
# these atoms the head reads a slope of 2 and raises, although the law has
# every moment
_SMALL_ATOMS_RAISE = pytest.mark.xfail(
    strict=True, raises=DivergenceSuspectedError,
    reason="the atomic series cancels across m for k >= 3",
)
_SWEEP_CASES = [
    pytest.param(name, alpha, id=f"{name}-a{alpha:g}",
                 marks=_SMALL_ATOMS_RAISE if name == "50-scaled-1e-3" and alpha > 4 else ())
    for name in _sweep_laws()
    for alpha in (0.3, 0.5, 0.9, 1.5, 1.9, 2.5, 3.5, 4.5)
] + [pytest.param("50-scaled-1e-3", 5.5, id="50-scaled-1e-3-a5.5", marks=_SMALL_ATOMS_RAISE)]


class TestAtomicTailStart:
    """The exact atomic tail takes over at r_split; every other tail at
    8 r_split."""

    @pytest.mark.parametrize("name,alpha", _SWEEP_CASES)
    def test_bar_covers_the_atom_sum(self, name, alpha):
        draw = _sweep_laws()[name]
        phi = (cf.make_discrete(cf.lacunary_measure(1.0, 12)) if draw is None
               else cf.make_empirical(draw()))
        res = me.absolute_moment(phi, alpha)
        assert res.diagnostics["tail_start"] == QuadratureSpec().r_split
        assert abs(res.value - phi.atoms.moment(alpha)) <= res.error_estimate

    def test_r_split_moves_the_start(self):
        phi = cf.make_empirical(np.random.default_rng(1).normal(size=(50, 1)))
        res = me.absolute_moment(phi, 1.5, QuadratureSpec(r_split=0.5))
        assert res.diagnostics["tail_start"] == 0.5
        assert abs(res.value - phi.atoms.moment(1.5)) <= res.error_estimate

    def test_other_tails_keep_eight_r_split(self):
        spec = QuadratureSpec()
        lac = cf.make_discrete(cf.lacunary_measure(1.0, 12))
        profile = me.difference_profile(lac, k=2, spec=spec, part="complex", magnitude=True)
        assert isinstance(profile.tail, me.WindowMeanTail)
        assert profile.tail.start(spec) == 8.0 * spec.r_split
        res = me.absolute_moment(cf.make_gaussian(1.0, 1), 1.5)
        assert res.diagnostics["tail_start"] == 8.0 * spec.r_split
        assert me.SinSeriesTail(1.3).start(spec) == 8.0 * spec.r_split

    def test_lacunary_signed_pass_panels(self):
        # the membership call's signed pass; it ran 20874 panels on (a, 8]
        lac = cf.make_discrete(cf.lacunary_measure(1.0, 12))
        res = me.absolute_moment(lac, 1.5, k=2, formula="M12")
        assert res.diagnostics["n_panels"] <= 3000
        assert abs(res.value - lac.atoms.moment(1.5)) <= res.error_estimate


class TestKernelMinusOne:
    @pytest.mark.parametrize("kernel", ["cos", "j0", "sinc"])
    def test_split_branches_bit_identical(self, kernel):
        from scipy.special import j0

        rng = np.random.default_rng(5)
        y = np.concatenate([[0.0, 0.0999999, 0.1, 0.9999999, 1.0], rng.exponential(1.0, 500),
                            rng.exponential(1e-2, 498), [1e6, 1e300]]).reshape(5, 3, 67)
        # the reference evaluates both branches everywhere; its unused
        # series overflows at y = 1e300
        with np.errstate(over="ignore", invalid="ignore"):
            y2 = y * y
            if kernel == "cos":
                ref = -2.0 * np.sin(y / 2.0) ** 2
            elif kernel == "j0":
                series = -y2 / 4.0 + y2 * y2 * (1.0 / 64.0 + y2 * (
                    -1.0 / 2304.0 + y2 * (1.0 / 147456.0 + y2 * (
                        -1.0 / 14745600.0 + y2 * (1.0 / 2123366400.0 + y2 * (
                            -1.0 / 416179814400.0 + y2 * (1.0 / 106542032486400.0 + y2 * (
                                -1.0 / 34519618525593600.0
                                + y2 * (1.0 / 13807847410237440000.0)))))))))
                ref = np.where(y < 1.0, series, j0(np.minimum(y, 1e300)) - 1.0)
            else:
                series = -y2 / 6.0 + y2 * y2 * (1.0 / 120.0 + y2 * (
                    -1.0 / 5040.0 + y2 * (1.0 / 362880.0 + y2 * (
                        -1.0 / 39916800.0 + y2 * (1.0 / 6227020800.0 + y2 * (
                            -1.0 / 1307674368000.0 + y2 * (1.0 / 355687428096000.0 + y2 * (
                                -1.0 / 121645100408832000.0
                                + y2 * (1.0 / 51090942171709440000.0)))))))))
                safe = np.where(y == 0.0, 1.0, y)
                ref = np.where(y < 1.0, series, np.sin(safe) / safe - 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = me._kernel_minus_one(kernel, y)
        assert out.shape == y.shape
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("kernel", ["j0", "sinc"])
    def test_series_within_two_ulp(self, kernel):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.prec = 120
        rng = np.random.default_rng(6)
        y = np.concatenate([np.geomspace(1e-8, 1.0, 300, endpoint=False), [0.0999999, 0.9999999],
                            np.exp(rng.uniform(math.log(1e-8), math.log(1.0), 1000))])
        out = me._kernel_minus_one(kernel, y)
        for yi, oi in zip(y, out):
            x = mpmath.mpf(float(yi))
            ref = mpmath.besselj(0, x) - 1 if kernel == "j0" else mpmath.sin(x) / x - 1
            assert abs(mpmath.mpf(float(oi)) - ref) <= 2 * np.spacing(abs(float(ref)))


def _two_node_D(coeffs, phi, psi, r, part, magnitude):
    """The d = 1 sphere rule with both nodes, +1 and -1: signed means
    combined per m, magnitudes taken per node before the mean."""
    node_w = np.array([1.0, 1.0])
    acc = np.zeros((r.size, 2) if magnitude else r.size, dtype=complex)
    for m in range(1, coeffs.size):
        vals = np.stack([np.asarray(phi.minus_one((u * m * r)[:, None])) for u in (1.0, -1.0)],
                        axis=1)
        if psi is not None:
            vals = vals - np.stack([np.asarray(psi.minus_one((u * m * r)[:, None]))
                                    for u in (1.0, -1.0)], axis=1)
        if magnitude:
            acc += coeffs[m] * vals
        else:
            acc = acc + coeffs[m] * (vals @ node_w)
    if magnitude:
        return (me._reduce_part(acc, part, True) @ node_w) / 2.0
    acc /= 2.0
    return me._reduce_part(acc, part, False)


def _table_floor(laws, s):
    """The floor of :class:`TestRayTable` at the arguments s, over the
    atoms of ``laws``: 1e-14 of the summed weights beyond four times the
    rounding of the phases ``s x_j``."""
    w = np.abs(np.concatenate([f.atoms.weights for f in laws]))
    x = np.concatenate([f.atoms.radii() for f in laws])
    return 1e-14 * w.sum() + 2.0 * np.finfo(float).eps * s * (w * x).sum()


def _profile_floor(coeffs, laws, r):
    """That floor carried through ``sum_m c_m (phi - psi)(m r)``."""
    return sum(abs(coeffs[m]) * _table_floor(laws, m * r) for m in range(1, coeffs.size))


def _reads_blocks(phi, psi=None):
    """Whether the d = 1 plane-wave reader of ``phi - psi`` reads a radius
    far past its first block from Chebyshev blocks: the laws' own
    transforms are then never called."""
    import dataclasses

    calls = []

    def counted(f):
        def minus_one(pts):
            calls.append(pts.shape[0])
            return f.minus_one(pts)
        return dataclasses.replace(f, minus_one=minus_one)

    laws = [f for f in (phi, psi) if f is not None]
    far = 100.0 * 8.0 / max(np.abs(f.atoms.points).max() for f in laws)
    read = me._plane_wave_reader(counted(phi), None if psi is None else counted(psi),
                                 me._EvalCounts())
    read(np.array([far]), False)
    return calls == []


class TestOneRayFold:
    R = np.concatenate([np.geomspace(1e-5, 200.0, 397), [1.0, 2.0, 3.5]])

    def _profiles(self, n_a, n_b):
        from cfmoments.heat import evolve

        rng = np.random.default_rng(11)
        e50 = cf.make_empirical(rng.normal(size=50))
        a = cf.make_empirical(rng.normal(size=n_a))
        b = cf.make_empirical(rng.normal(0.3, 1.2, size=n_b))
        return {
            "signed-evolve": (evolve(e50, 1.5, 0.5), None, 1, "real", False),
            "magnitude-pair": (a, b, 1, "complex", True),
            "membership-k2": (a, None, 2, "complex", True),
        }

    @pytest.mark.parametrize("name", ["signed-evolve", "magnitude-pair", "membership-k2"])
    def test_equals_two_node_rule(self, name):
        # laws read directly: a form, or a plane-wave sum of no more atoms
        # than a read from blocks costs, one law's or a pair's
        n = ChebyshevBlocks.READ_COST
        sizes = (n // 2, n - n // 2) if name == "magnitude-pair" else (n, n - 1)
        phi, psi, k, part, magnitude = self._profiles(*sizes)[name]
        spec = QuadratureSpec()
        profile = me.difference_profile(phi, psi, k=k, spec=spec, part=part, magnitude=magnitude)
        coeffs = me.binomial_difference_coefficients(k)
        ref = _two_node_D(coeffs, phi, psi, self.R, part, magnitude)
        got = profile.D(self.R)
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)
        # one kernel per atom of each law, at every radius and m
        atoms = sum(me._evaluated_atoms(f) for f in (phi, psi) if f is not None)
        assert profile.counts.kernel_evals == self.R.size * k * atoms

    @pytest.mark.parametrize("name", ["magnitude-pair", "membership-k2"])
    def test_table_laws_match_two_node_rule(self, name):
        phi, psi, k, part, magnitude = self._profiles(40, 30)[name]
        laws = [f for f in (phi, psi) if f is not None]
        assert _reads_blocks(phi, psi)
        profile = me.difference_profile(phi, psi, k=k, spec=QuadratureSpec(), part=part,
                                        magnitude=magnitude)
        coeffs = me.binomial_difference_coefficients(k)
        ref = _two_node_D(coeffs, phi, psi, self.R, part, magnitude)
        got = profile.D(self.R)
        assert got.dtype == ref.dtype
        assert np.all(np.abs(got - ref) <= _profile_floor(coeffs, laws, self.R))
        # the blocks charge less than one kernel per atom and radius
        atoms = sum(f.atoms.size for f in laws)
        assert profile.counts.kernel_evals < self.R.size * k * atoms

    def test_second_evaluation_reuses_blocks(self):
        import dataclasses

        calls = []

        def counted(phi):
            def minus_one(pts):
                calls.append(pts.shape[0])
                return phi.minus_one(pts)
            return dataclasses.replace(phi, minus_one=minus_one)

        rng = np.random.default_rng(12)
        a = counted(cf.make_empirical(rng.normal(size=100)))
        b = counted(cf.make_empirical(rng.normal(size=100)))
        profile = me.difference_profile(a, b, k=1, spec=QuadratureSpec(), part="complex",
                                        magnitude=True)
        # every radius past the first block of both tables: the blocks are
        # built from the atoms, and no radius is evaluated directly
        r = np.linspace(40.0, 300.0, 3000)
        first = profile.D(r)
        built = profile.counts.kernel_evals
        assert built > 0
        assert calls == []
        # the second evaluation only reads the built blocks
        assert np.array_equal(profile.D(r), first)
        assert profile.counts.kernel_evals == built + r.size * ChebyshevBlocks.READ_COST
        assert calls == []

    def test_table_cost_counts_blocks_and_direct_points(self):
        phi = cf.make_empirical(np.random.default_rng(15).normal(size=100))
        counts = me._EvalCounts()
        evaluate = me._mean_terms(np.array([0.0, 1.0]), me._plane_wave_reader(phi, None, counts),
                                  None, "complex", True)
        width = 8.0 / np.abs(phi.atoms.points).max()
        blocks = set()
        n_direct = n_read = 0
        for s in (np.geomspace(1e-6, 60.0, 500), np.linspace(0.0, 400.0, 801),
                  np.array([0.5 * width]), np.linspace(100.0, 500.0, 33)):
            evaluate(s, False)
            blocks.update(np.floor(s[s >= width] / width).astype(int).tolist())
            n_direct += int(np.count_nonzero(s < width))
            n_read += int(np.count_nonzero(s >= width))
        # one complex exponential per atom builds a block, a radius below
        # the first block costs one kernel per atom, and a read from the
        # blocks READ_COST
        assert blocks
        assert counts.kernel_evals == ((len(blocks) + n_direct) * 100
                                       + n_read * ChebyshevBlocks.READ_COST)

    def test_lacunary_12_reads_blocks(self):
        lac = cf.make_discrete(cf.lacunary_measure(1.0, 12))
        # far radii are read from blocks, one complex exponential per atom
        # and block built and READ_COST per value
        counts = me._EvalCounts()
        s = np.linspace(100.0, 400.0, 50)
        width = 8.0 / np.abs(lac.atoms.points).max()
        blocks = np.unique(np.floor(s / width))
        assert blocks.min() >= 1
        got, terms = me._plane_wave_reader(lac, None, counts)(s, False)
        assert terms is None
        assert np.all(np.abs(got - lac.minus_one(s[:, None])) <= _table_floor([lac], s))
        assert counts.kernel_evals == blocks.size * 12 + s.size * ChebyshevBlocks.READ_COST
        profile = me.difference_profile(lac, k=2, spec=QuadratureSpec(), part="complex",
                                        magnitude=True)
        coeffs = me.binomial_difference_coefficients(2)
        ref = _two_node_D(coeffs, lac, None, self.R, "complex", True)
        assert np.all(np.abs(profile.D(self.R) - ref) <= _profile_floor(coeffs, [lac], self.R))

    def test_atoms_all_at_origin(self):
        # sixty samples at 0 are a radial law with tau = 0: its atoms add
        # nothing to a plane-wave sum, so the ray reads that law directly,
        # and against a non-radial sample only the sample's atoms are summed
        from cfmoments.metrics import integral_distance

        zeros = cf.make_empirical(np.zeros(60))
        counts = me._EvalCounts()
        s = np.linspace(100.0, 400.0, 50)
        got = me._plane_wave_reader(zeros, None, counts)(s, False)[0]
        assert np.array_equal(got, zeros.minus_one(s[:, None]))
        assert counts.kernel_evals == s.size * 60
        x = cf.make_empirical(np.random.default_rng(5).normal(size=60))
        got = integral_distance(zeros, x, 0.5)
        ref = integral_distance(cf.make_point_mass(0.0), x, 0.5)
        assert np.isfinite(got.value)
        assert got.value == ref.value

    def test_two_sample_distance_cost(self):
        from cfmoments.metrics import integral_distance

        rng = np.random.default_rng(13)
        a = cf.make_empirical(rng.normal(size=100))
        b = cf.make_empirical(rng.normal(size=100))
        d = integral_distance(a, b, 0.5).grid_report
        # the two-node rule costs two nodes times both atom sets per radius
        assert 0 < d["kernel_evals"] * 10 <= d["points"] * 2 * 200


class TestRayTable:
    """The engine's Chebyshev blocks of atomic transforms against direct
    evaluation."""

    # windows across [0, 4096]: the direct region below the first block,
    # the first blocks, and far blocks up to the end of the range
    S = np.concatenate([np.linspace(c, c + 4.0, 300) for c in (0.0, 3.0, 30.0, 300.0,
                                                                1000.0, 2500.0, 4092.0)])

    @staticmethod
    def _atom_sets():
        from cfmoments import mc_oracle

        rng = np.random.default_rng(7)
        x = rng.uniform(-2.0, 2.0, 60)
        w = np.full(60, 0.5 / 59)
        w[np.argmax(np.abs(x))] = 0.5  # half the weight on the fastest atom
        return {
            "gaussian-n1000": cf.make_empirical(mc_oracle.sample_gaussian(1.0, 1, 1000, 3).points),
            "stable1.5-n1000": cf.make_empirical(mc_oracle.sample_stable_1d(1.5, 1000, 3).points),
            "worst-60": cf.make_discrete(cf.DiscreteMeasure(x.reshape(-1, 1), w)),
        }

    @pytest.mark.parametrize("name", ["gaussian-n1000", "stable1.5-n1000", "worst-60"])
    def test_matches_direct_evaluation(self, name):
        phi = self._atom_sets()[name]
        counts = me._EvalCounts()
        got = me._plane_wave_reader(phi, None, counts)(self.S, False)[0]
        # read from blocks: cheaper than one kernel per atom and point
        assert 0 < counts.kernel_evals < self.S.size * phi.atoms.size
        direct = np.concatenate([phi.minus_one(c[:, None]) for c in np.split(self.S, 7)])
        w = np.abs(phi.atoms.weights)
        # rounding the phases s * x_j moves the direct value by up to
        # eps/2 * s * sum |w_j x_j|, and the table's nodes carry the same
        # rounding: beyond four times that floor the table may add only
        # 1e-14 of the summed weights
        floor = 0.5 * np.finfo(float).eps * self.S * (w * phi.atoms.radii()).sum()
        assert np.all(np.abs(got - direct) <= 1e-14 * w.sum() + 4.0 * floor)


class TestPairTable:
    """A d = 1 pair of atomic laws that would each get a ray table is read
    from one table of their difference."""

    @staticmethod
    def _pairs():
        rng = np.random.default_rng(17)
        worst = TestRayTable._atom_sets()["worst-60"]
        return {
            "n100-n100": (cf.make_empirical(rng.normal(size=100)),
                          cf.make_empirical(rng.normal(size=100))),
            "n100-n300": (cf.make_empirical(rng.normal(size=100)),
                          cf.make_empirical(rng.normal(0.2, 1.1, size=300))),
            "n1000-worst60": (TestRayTable._atom_sets()["gaussian-n1000"], worst),
        }

    @staticmethod
    def _width(phi, psi):
        return 8.0 / max(np.abs(f.atoms.points).max() for f in (phi, psi))

    @pytest.mark.parametrize("name", ["n100-n100", "n100-n300", "n1000-worst60"])
    def test_matches_direct_evaluation(self, name):
        phi, psi = self._pairs()[name]
        counts = me._EvalCounts()
        got = me._plane_wave_reader(phi, psi, counts)(TestRayTable.S, False)[0]
        n = phi.atoms.size + psi.atoms.size
        assert 0 < counts.kernel_evals < TestRayTable.S.size * n
        direct = np.concatenate([phi.minus_one(c[:, None]) - psi.minus_one(c[:, None])
                                 for c in np.split(TestRayTable.S, 7)])
        # the floor of TestRayTable over the atoms of both laws
        w = np.concatenate([phi.atoms.weights, psi.atoms.weights])
        x = np.concatenate([phi.atoms.radii(), psi.atoms.radii()])
        floor = 0.5 * np.finfo(float).eps * TestRayTable.S * (w * x).sum()
        assert np.all(np.abs(got - direct) <= 1e-14 * w.sum() + 4.0 * floor)

    def test_argument_orders_agree(self):
        from cfmoments.metrics import integral_distance

        phi, psi = self._pairs()["n100-n300"]
        ab, ba = integral_distance(phi, psi, 0.5), integral_distance(psi, phi, 0.5)
        assert ab.value == pytest.approx(ba.value, rel=1e-13)
        assert ab.grid_report["n_panels"] == ba.grid_report["n_panels"]

    def test_cost_counts_blocks_and_direct_points(self):
        phi, psi = self._pairs()["n100-n300"]
        profile = me.difference_profile(phi, psi, k=2, spec=QuadratureSpec(), part="complex",
                                        magnitude=True)
        width = self._width(phi, psi)
        blocks = set()
        n_direct = n_read = 0
        for r in (np.geomspace(1e-6, 60.0, 500), np.linspace(0.0, 400.0, 801),
                  np.array([0.25 * width]), np.linspace(100.0, 500.0, 33)):
            profile.D(r)
            for m in (1, 2):
                s = m * r
                blocks.update(np.floor(s[s >= width] / width).astype(int).tolist())
                n_direct += int(np.count_nonzero(s < width))
                n_read += int(np.count_nonzero(s >= width))
        # a block costs one complex exponential per atom of either law, a
        # radius below the first block one kernel per atom of each, and a
        # read of the difference from the blocks READ_COST
        assert blocks
        assert profile.counts.kernel_evals == ((len(blocks) + n_direct) * 400
                                               + n_read * ChebyshevBlocks.READ_COST)

    @pytest.mark.parametrize("part", ["real", "complex"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_term_sums_equal_two_reader_route(self, k, part):
        phi, psi = self._pairs()["n100-n300"]
        profile = me.difference_profile(phi, psi, k=k, spec=QuadratureSpec(), part=part,
                                        magnitude=True)
        counts = me._EvalCounts()
        two = me._mean_terms(me.binomial_difference_coefficients(k),
                             me._minus(me._plane_wave_reader(phi, None, counts),
                                       me._plane_wave_reader(psi, None, counts)),
                             None, part, True)
        # the radii of the origin head and its noise probe, below the first
        # block at every m
        r = np.geomspace(1e-9, 0.99 * self._width(phi, psi) / k, 60)
        D, terms = profile.evaluate(r, True)
        ref, ref_terms = two(r, True)
        assert np.array_equal(terms, ref_terms)
        assert np.array_equal(D, ref)
        assert np.array_equal(profile.D(r), ref)

    def test_second_read_builds_nothing(self):
        import dataclasses

        calls = []

        def counted(phi):
            def minus_one(pts):
                calls.append(pts.shape[0])
                return phi.minus_one(pts)
            return dataclasses.replace(phi, minus_one=minus_one)

        phi, psi = (counted(f) for f in self._pairs()["n100-n300"])
        profile = me.difference_profile(phi, psi, k=1, spec=QuadratureSpec(), part="complex",
                                        magnitude=True)
        r = np.linspace(40.0, 300.0, 3000)
        reads = r.size * ChebyshevBlocks.READ_COST
        first = profile.D(r)
        built = profile.counts.kernel_evals
        assert built > reads and (built - reads) % 400 == 0
        assert calls == []
        assert np.array_equal(profile.D(r), first)
        assert profile.counts.kernel_evals == built + reads
        assert calls == []


class TestPairRule:
    """The d = 1 atomic laws of a profile are one plane-wave sum over their
    atoms, read from one table of ``n`` atoms when ``n`` is above
    ``ChebyshevBlocks.READ_COST`` (``n`` per block built, ``READ_COST`` per
    value read) and directly otherwise (one kernel per atom and point);
    the term magnitudes always come from the laws' direct reads."""

    READ = ChebyshevBlocks.READ_COST

    @staticmethod
    def _law(n, seed):
        return cf.make_empirical(np.random.default_rng(seed).normal(size=n))

    @pytest.mark.parametrize("n_phi, n_psi", [(3, 4), (3, 3), (5, 100), (100, 5)])
    def test_one_sum_read_by_cost(self, n_phi, n_psi):
        phi, psi = self._law(n_phi, 80), self._law(n_psi, 81)
        n = n_phi + n_psi
        tabled = n > self.READ
        assert _reads_blocks(phi, psi) == tabled
        width = 8.0 / max(np.abs(f.atoms.points).max() for f in (phi, psi))
        s = width * np.linspace(1.5, 40.0, 300)
        counts = me._EvalCounts()
        read = me._plane_wave_reader(phi, psi, counts)
        got, terms = read(s, False)
        assert terms is None
        a, b = phi.minus_one(s[:, None]), psi.minus_one(s[:, None])
        if tabled:
            # one table of all n atoms, at the width of the faster law
            blocks = np.unique(np.floor(s / width)).size
            assert counts.kernel_evals == blocks * n + s.size * self.READ
            assert np.all(np.abs(got - (a - b)) <= _table_floor([phi, psi], s))
        else:
            assert counts.kernel_evals == s.size * n
            assert np.array_equal(got, a - b)
        counts.kernel_evals = 0
        vals, terms = read(s, True)
        assert np.array_equal(vals, a - b)
        assert np.array_equal(terms, np.abs(a) + np.abs(b))
        assert counts.kernel_evals == s.size * n

    def test_atoms_at_the_origin_stay_out_of_the_sum(self):
        # four atoms off the origin and three at it: a sum of four atoms,
        # read directly at all seven per point; with three more off the
        # origin, a table of seven, whose blocks cost seven each
        law = cf.make_empirical(np.concatenate([np.zeros(3), self._law(4, 82).atoms.points[:, 0]]))
        other = self._law(3, 83)
        assert not _reads_blocks(law)
        assert _reads_blocks(law, other)
        width = 8.0 / max(np.abs(f.atoms.points).max() for f in (law, other))
        s = width * np.linspace(1.5, 40.0, 300)
        counts = me._EvalCounts()
        me._plane_wave_reader(law, other, counts)(s, False)
        blocks = np.unique(np.floor(s / width)).size
        assert counts.kernel_evals == blocks * 7 + s.size * self.READ

    def test_argument_orders_agree(self):
        from cfmoments.metrics import integral_distance

        phi, psi = self._law(5, 84), self._law(100, 85)
        ab, ba = integral_distance(phi, psi, 0.5), integral_distance(psi, phi, 0.5)
        assert ab.value == pytest.approx(ba.value, rel=1e-13)
        assert ab.grid_report["n_panels"] == ba.grid_report["n_panels"]


class TestReaderCost:
    """The d = 1 ray reads an atomic law from Chebyshev blocks exactly when
    that charges less than reading it directly, at one kernel evaluation
    per atom and point: with more than ``ChebyshevBlocks.READ_COST``
    atoms."""

    READ = ChebyshevBlocks.READ_COST

    @staticmethod
    def _law(n):
        return cf.make_empirical(np.random.default_rng(70 + n).normal(size=n))

    @staticmethod
    def _blocks(law, s):
        """The blocks that the arguments s land in, and how many of s are
        read from them."""
        width = 8.0 / np.abs(law.atoms.points).max()
        read = s[s >= width]
        return np.unique(np.floor(read / width)).size, read.size

    def test_threshold(self):
        s = np.linspace(0.0, 300.0, 70)
        n = self.READ
        law = self._law(n)
        counts = me._EvalCounts()
        assert not _reads_blocks(law)
        got = me._plane_wave_reader(law, None, counts)(s, False)[0]
        assert np.array_equal(got, law.minus_one(s[:, None]))
        assert counts.kernel_evals == s.size * n
        law = self._law(n + 1)
        counts = me._EvalCounts()
        assert _reads_blocks(law)
        got = me._plane_wave_reader(law, None, counts)(s, False)[0]
        assert np.all(np.abs(got - law.minus_one(s[:, None])) <= _table_floor([law], s))
        blocks, read = self._blocks(law, s)
        assert 0 < read < s.size
        assert counts.kernel_evals == (blocks + s.size - read) * (n + 1) + read * self.READ

    def test_second_read_adds_read_cost_only(self):
        import dataclasses

        calls = []
        law = self._law(self.READ + 1)

        def minus_one(pts):
            calls.append(pts.shape[0])
            return law.minus_one(pts)

        counts = me._EvalCounts()
        read = me._plane_wave_reader(dataclasses.replace(law, minus_one=minus_one), None, counts)
        s = np.linspace(40.0, 300.0, 500)
        first = read(s, False)[0]
        built = counts.kernel_evals
        assert built == self._blocks(law, s)[0] * law.atoms.size + s.size * self.READ
        assert np.array_equal(read(s, False)[0], first)
        assert counts.kernel_evals == built + s.size * self.READ
        assert calls == []

    @staticmethod
    def _membership_radii(law):
        """The radii of a k = 2 membership magnitude pass over ``law``, in
        its batches, with the flag asking for the terms' magnitudes."""
        import dataclasses

        spec = QuadratureSpec()
        profile = me.difference_profile(law, k=2, spec=spec, part="complex", magnitude=True)
        seen = []

        def evaluate(r, with_magnitude):
            seen.append((r.copy(), with_magnitude))
            return profile.evaluate(r, with_magnitude)

        dataclasses.replace(profile, evaluate=evaluate).integrate(1.5, spec, slope_margin=0.05)
        return seen

    @staticmethod
    def _charge(law, seen):
        profile = me.difference_profile(law, k=2, spec=QuadratureSpec(), part="complex",
                                        magnitude=True)
        for r, with_magnitude in seen:
            profile.evaluate(r, with_magnitude)
        return profile.counts.kernel_evals

    @pytest.mark.parametrize("n", [2, 4, 6, 7, 12, 20, 48])
    def test_chosen_route_charges_least(self, n, monkeypatch):
        law = self._law(n)
        seen = self._membership_radii(law)
        chosen = self._charge(law, seen)
        tabled = n > self.READ
        assert _reads_blocks(law) == tabled
        if tabled:
            monkeypatch.setattr(ChebyshevBlocks, "READ_COST", n)
            assert not _reads_blocks(law)
            other = self._charge(law, seen)
        else:
            # the blocks' charge at READ_COST 0 and 1 gives the number of
            # values read, to be charged at the real READ_COST
            monkeypatch.setattr(ChebyshevBlocks, "READ_COST", 0)
            assert _reads_blocks(law)
            free = self._charge(law, seen)
            monkeypatch.setattr(ChebyshevBlocks, "READ_COST", 1)
            reads = self._charge(law, seen) - free
            assert reads > 0
            other = free + reads * self.READ
        assert chosen <= other

    def test_lacunary_12_membership_agrees(self, monkeypatch):
        from cfmoments.metrics import membership

        lac = cf.make_discrete(cf.lacunary_measure(1.0, 12))
        table = membership(lac, 1.5, 2)
        monkeypatch.setattr(ChebyshevBlocks, "READ_COST", 12)
        direct = membership(lac, 1.5, 2)
        assert table.classification == direct.classification == "finite"
        assert table.integral_value == pytest.approx(direct.integral_value, rel=1e-12)

    def test_small_time_check_agrees(self, monkeypatch):
        from cfmoments import mc_oracle
        from cfmoments.heat import small_time_check

        e20 = cf.make_empirical(mc_oracle.sample_gaussian(0.5, 1, 20, 41).points)
        table = small_time_check(e20, 2.0, 0.01, 0.5)
        monkeypatch.setattr(ChebyshevBlocks, "READ_COST", 20)
        direct = small_time_check(e20, 2.0, 0.01, 0.5)
        assert table[0] == pytest.approx(direct[0], rel=1e-12)
        assert table[1] == direct[1]


class TestHeadRoundingBar:
    """The origin head's bar carries the rounding of D at the model's
    anchor, four ulp of the terms' magnitudes there, which the probes at
    power-of-two ratios scale exactly and so do not show."""

    def test_seed_19_sample(self):
        from cfmoments import mc_oracle

        # the n = 1000 Gaussian set of the benchmark's samples workload at
        # seed 19: a base draw scaled by 1 + 1e-3 z.  Its k = 3 terms cancel
        # from 2.3e-7 to 1.7e-15 at the anchor, and the head model missed
        # by 4.3e-13 under a bar of 2.2e-13 without that rounding
        base = mc_oracle.sample_gaussian(1.0, 1, 1000, 2015 * 7919 + 1).points
        z = mc_oracle.sample_gaussian(0.5, 1, 1000, 19 * 7919 + 1).points
        pts = base * (1.0 + 1e-3 * z)
        res = me.absolute_moment(cf.make_empirical(pts), 2.5)
        exact = cf.DiscreteMeasure(pts).moment(2.5)
        assert abs(res.value - exact) <= res.error_estimate


class TestFactorCharge:
    """A factor is charged one kernel evaluation per atom of its normal
    form, a radial x atomic form included."""

    SPEC = QuadratureSpec(sphere_order=8)

    @pytest.mark.parametrize("d", [1, 2])
    def test_form_against_point_mass(self, d):
        from cfmoments.heat import evolve

        rng = np.random.default_rng(60 + d)
        flow = evolve(cf.make_empirical(rng.normal(size=(20, d))), 2.0, 0.5)
        point = cf.make_point_mass(np.full(d, 0.3))
        profile = me.difference_profile(flow, point, k=1, spec=self.SPEC, part="complex",
                                        magnitude=True)
        r = np.geomspace(1e-3, 40.0, 37)
        profile.D(r)
        nodes = 1 if d == 1 else self.SPEC.sphere_order
        assert profile.counts.kernel_evals == profile.counts.points * nodes * (20 + 1)

    def test_form_on_the_ray_is_read_directly(self):
        from cfmoments.heat import evolve

        # more atoms than a table takes, but a form: evaluated directly
        flow = evolve(cf.make_empirical(np.random.default_rng(63).normal(size=60)), 2.0, 0.5)
        profile = me.difference_profile(flow, k=1, spec=self.SPEC, part="complex", magnitude=True)
        s = np.linspace(0.0, 300.0, 70)
        assert np.array_equal(profile.D(s), np.abs(flow.minus_one(s[:, None])))
        assert profile.counts.kernel_evals == s.size * 60


class TestEvaluatorCounts:
    def test_atomic_moment(self):
        import dataclasses

        e = cf.make_empirical(np.random.default_rng(14).normal(size=40))
        spec = QuadratureSpec()
        built = me.difference_profile(e, k=3, spec=spec, part="real", magnitude=False)
        # the moments of the series cost one kernel per atom, at build time
        assert built.counts.kernel_evals == 40
        seen = []

        def recording(r, with_magnitude):
            seen.append(np.outer(r, [1, 2, 3]))
            return built.evaluate(r, with_magnitude)

        profile = dataclasses.replace(built, evaluate=recording)
        _, _, diag = profile.integrate(2.5, spec)
        assert diag["points"] == sum(mr.shape[0] for mr in seen) > 0
        # per m and radius: one read from the series, or one per atom
        series = np.concatenate([mr.ravel() for mr in seen]) * e.atoms.radii().max() <= 0.5
        assert 0 < np.count_nonzero(series) < series.size
        assert diag["kernel_evals"] == np.count_nonzero(series) + 40 * np.count_nonzero(~series)
        assert profile.counts.kernel_evals == 40 + diag["kernel_evals"]

    def test_radial_moment(self):
        g = cf.make_gaussian(1.0, 2)
        res = me.absolute_moment(g, 0.5)
        assert res.diagnostics["kernel_evals"] == res.diagnostics["points"] * 1

    def test_counts_per_pass(self):
        # a second pass over the same profile reports its own cost only
        g = cf.make_gaussian(1.0, 1)
        spec = QuadratureSpec()
        profile = me.difference_profile(g, k=1, spec=spec, part="real", magnitude=True)
        _, _, first = profile.integrate(0.5, spec)
        _, _, second = profile.integrate(0.5, spec)
        assert first["points"] == second["points"] > 0
        assert profile.counts.points == 2 * first["points"]


class TestRadialAtomicReduction:
    """Signed moments of radial x atomic products in d = 2, 3, reduced over
    the atoms, against the sphere rule and the Gaussian closed form."""

    @staticmethod
    def _laws(d):
        rng = np.random.default_rng(20 + d)
        a = rng.normal(size=d)
        pts = rng.normal(scale=0.7, size=(20, d))
        pts[0] = 0.0  # an atom at the origin
        return {"point": cf.make_point_mass(a / np.linalg.norm(a)),
                "sample20": cf.make_empirical(pts)}

    @staticmethod
    def _sphere_rule(phi):
        import dataclasses

        return dataclasses.replace(phi, radial_atomic=None)

    # the order-1.5 moment of the p = 1.5 flow is infinite
    @pytest.mark.parametrize("p, alpha", [(2.0, 0.5), (2.0, 1.5), (1.5, 0.5)])
    @pytest.mark.parametrize("law", ["point", "sample20"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_sphere_rule(self, d, law, p, alpha):
        from cfmoments.heat import evolve

        ev = evolve(self._laws(d)[law], p, 0.5)
        assert ev.radial_atomic is not None
        got = me.absolute_moment(ev, alpha)
        ref = me.absolute_moment(self._sphere_rule(ev), alpha)
        assert got.value == pytest.approx(ref.value, rel=1e-9)
        assert got.diagnostics["n_panels"] == ref.diagnostics["n_panels"]
        assert got.diagnostics["tail_start"] == ref.diagnostics["tail_start"]

    def test_shifted_gaussian_complex_formula(self):
        sg = cf.make_product(cf.make_gaussian(1.0, 2), cf.make_point_mass([1.0, 0.0]))
        got = me.absolute_moment(sg, 0.5, k=1, formula="M12")
        ref = me.absolute_moment(self._sphere_rule(sg), 0.5, k=1, formula="M12")
        assert got.value == pytest.approx(ref.value, rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    @pytest.mark.parametrize("d", [2, 3])
    def test_gaussian_closed_form(self, d, alpha):
        # E|a + Z|^alpha for Z ~ N(0, 2t I)
        from scipy.special import hyp1f1

        t = 0.5
        a = np.array([0.6, -0.8, 0.0][:d]) * 1.3
        ev = cf.make_product(cf.make_gaussian(t, d), cf.make_point_mass(a))
        exact = ((4.0 * t) ** (alpha / 2.0) * gamma((d + alpha) / 2.0) / gamma(d / 2.0)
                 * hyp1f1(-alpha / 2.0, d / 2.0, -(a @ a) / (4.0 * t)))
        res = me.absolute_moment(ev, alpha)
        err = abs(res.value - exact)
        assert err <= 1e-12 * exact
        assert err <= res.error_estimate + 1e-14 * exact

    def test_argument_orders_bit_identical(self):
        g = cf.make_stable(1.5, 0.5, 3)
        pm = cf.make_point_mass([0.3, -0.4, 0.8])
        left = me.absolute_moment(cf.make_product(g, pm), 0.5)
        right = me.absolute_moment(cf.make_product(pm, g), 0.5)
        assert left.value == right.value
        assert left.error_estimate == right.error_estimate

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_evolve_twice(self, p):
        from cfmoments.heat import evolve

        pm = cf.make_point_mass([0.5, 0.5, -0.2])
        twice = evolve(evolve(pm, p, 0.4), p, 0.8)
        assert twice.radial_atomic is not None
        once = evolve(pm, p, 1.2)
        got = me.absolute_moment(twice, 0.5).value
        assert got == pytest.approx(me.absolute_moment(once, 0.5).value, rel=1e-12)

    def test_kernel_evals(self):
        ev = cf.make_product(cf.make_gaussian(0.5, 3), cf.make_point_mass([0.0, 0.6, 0.8]))
        res = me.absolute_moment(ev, 1.5)
        diag = res.diagnostics
        assert 0 < diag["kernel_evals"] <= 2 * res.k_used * diag["points"]


class TestSharedAtomPair:
    """Pairs whose transforms share their atoms, each a radial x atomic
    form or the plain atomic law: one factored reader ``(g_phi - g_psi)
    (1 + A)`` against the route that reads the two transforms apart."""

    SPEC = QuadratureSpec(sphere_order=8)
    R = np.concatenate([np.geomspace(0.5, 30.0, 41), [1.0, 2.5]])
    N_ATOMS = 12

    @classmethod
    def _pairs(cls, d):
        from cfmoments.heat import evolve

        rng = np.random.default_rng(40 + d)
        mu = cf.make_empirical(rng.normal(scale=0.7, size=(cls.N_ATOMS, d)))
        # a copy of the datum built apart: equal atoms, not one object
        copy = cf.make_empirical(mu.atoms.points.copy())
        return {
            "flow-datum": (evolve(mu, 2.0, 0.5), copy),
            "twice-datum": (evolve(evolve(mu, 1.5, 0.3), 2.0, 0.2), mu),
            "two-flows": (evolve(mu, 2.0, 0.5), evolve(copy, 1.5, 0.2)),
        }

    def _reference(self, phi, psi, k, part, magnitude):
        """The two-reader profile with the forms stripped, and the
        difference-first mean of the same readers: its D and term sums."""
        import dataclasses

        phi, psi = (dataclasses.replace(f, radial_atomic=None) for f in (phi, psi))
        two = me.difference_profile(phi, psi, k=k, spec=self.SPEC, part=part,
                                    magnitude=magnitude)
        counts = me._EvalCounts()
        nodes, rule = me._angular_rule(phi.dim, self.SPEC)

        def read(chi):
            if nodes is None and chi.atoms is not None:
                return me._plane_wave_reader(chi, None, counts)
            return me._node_reader(chi.minus_one, me._evaluated_atoms(chi), nodes, counts)

        read_phi, read_psi = read(phi), read(psi)

        def difference(s, with_magnitude):
            return me._read(read_phi(s, False)[0] - read_psi(s, False)[0], with_magnitude)

        hand = me._mean_terms(me.binomial_difference_coefficients(k), difference, rule, part,
                              magnitude)
        return two, hand

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("pair", ["flow-datum", "twice-datum", "two-flows"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_two_reader_route(self, d, pair, k):
        eps = np.finfo(float).eps
        phi, psi = self._pairs(d)[pair]
        for part in ("real", "complex"):
            for magnitude in (False, True):
                for a, b in ((phi, psi), (psi, phi)):
                    got = me.difference_profile(a, b, k=k, spec=self.SPEC, part=part,
                                                magnitude=magnitude)
                    two, hand = self._reference(a, b, k, part, magnitude)
                    D, terms = got.evaluate(self.R, True)
                    # the term magnitudes of the two-reader route come from
                    # direct reads, its D from the readers' own route
                    ref, scale = two.D(self.R), two.evaluate(self.R, True)[1]
                    hand_D, hand_terms = hand(self.R, True)
                    assert D.dtype == ref.dtype
                    assert np.array_equal(hand_D, ref)
                    # the two-reader route rounds on the scale of its
                    # terms, |phi - 1| + |psi - 1|
                    assert np.all(np.abs(D - ref) <= 4.0 * eps * scale), (part, magnitude)
                    assert np.all(np.abs(terms - hand_terms) <= 4.0 * eps * scale)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_reads_the_atoms_once(self, d):
        import dataclasses

        def unread(pts):
            raise AssertionError("the product's minus_one was read")

        nodes = 1 if d == 1 else self.SPEC.sphere_order ** (d - 1)
        k = 3
        for phi, psi in self._pairs(d).values():
            calls = []

            def counted(f):
                if f.radial_atomic is not None:
                    return dataclasses.replace(f, minus_one=unread)

                def minus_one(pts):
                    calls.append(pts.shape[0])
                    return f.minus_one(pts)
                return dataclasses.replace(f, minus_one=minus_one)

            profile = me.difference_profile(counted(phi), counted(psi), k=k, spec=self.SPEC,
                                            part="complex", magnitude=True)
            profile.D(self.R)
            if d > 1:
                # a plain datum is read once per m, at every radius and node
                if psi.radial_atomic is None:
                    assert calls == [self.R.size * nodes] * k
                # one kernel per atom and node for A, one per radius for g
                assert profile.counts.kernel_evals == self.R.size * k * (self.N_ATOMS * nodes + 1)
                continue
            # on the d = 1 ray A is read from blocks, which a datum's own
            # minus_one serves only below the first block: n per block
            # built and per radius below it, READ_COST per value read from
            # the blocks, and one per radius for g
            atoms = cf.normal_form(psi)[1]
            assert _reads_blocks(cf.make_discrete(atoms))
            width = 8.0 / np.abs(atoms.points).max()
            s = np.outer(np.arange(1, k + 1), self.R)
            below = np.count_nonzero(s < width, axis=1)
            if psi.radial_atomic is None:
                assert calls == [int(b) for b in below if b]
            blocks = np.unique(np.floor(s[s >= width] / width)).size
            assert profile.counts.kernel_evals == (
                (blocks + below.sum()) * self.N_ATOMS
                + (s.size - below.sum()) * ChebyshevBlocks.READ_COST + s.size)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_one_atom_pair_is_translation_invariant(self, d):
        from cfmoments.heat import evolve
        from cfmoments.metrics import integral_distance
        from cfmoments.specfun import difference_integral_constant

        p, t, alpha = 2.0, 0.5, 0.5
        a = np.array([0.6, -0.5, 0.3][:d]) * 1.7
        origin = cf.make_point_mass(np.zeros(d))
        ref = integral_distance(evolve(origin, p, t), origin, alpha)
        exact = (cf.make_stable(p, t, d).analytic_moment(alpha)
                 * abs(difference_integral_constant(1, alpha, d)))
        assert ref.value == pytest.approx(exact, rel=1e-6)
        for phi, psi in ((evolve(cf.make_point_mass(a), p, t), cf.make_point_mass(a)),
                         (evolve(evolve(cf.make_point_mass(a), p, 0.2), p, 0.3),
                          cf.make_point_mass(a))):
            for x, y in ((phi, psi), (psi, phi)):
                got = integral_distance(x, y, alpha)
                assert got.value == pytest.approx(ref.value, rel=1e-10)
                assert got.value == pytest.approx(exact, rel=1e-6)
                assert got.grid_report["integral_error"] <= 1e-8 * exact


def _sphere_D(coeffs, phi, psi, d, order, r, part, magnitude):
    """The sphere rule node by node: signed means combined per m,
    magnitudes taken per node before the mean; also the terms' magnitude
    mean."""
    from cfmoments.quadrature import sphere_rule
    from cfmoments.specfun import sphere_area

    nodes, node_w = sphere_rule(d, order)
    area = sphere_area(d)
    acc = np.zeros((r.size, node_w.size) if magnitude else r.size, dtype=complex)
    terms = 0.0
    for m in range(1, coeffs.size):
        pts = ((m * r)[:, None, None] * nodes[None, :, :]).reshape(-1, d)
        vals = np.asarray(phi.minus_one(pts)).reshape(r.size, -1)
        amp = np.abs(vals)
        if psi is not None:
            other = np.asarray(psi.minus_one(pts)).reshape(r.size, -1)
            amp = amp + np.abs(other)
            vals = vals - other
        if magnitude:
            acc += coeffs[m] * vals
        else:
            acc = acc + coeffs[m] * (vals @ node_w)
        terms = terms + abs(coeffs[m]) * (amp @ node_w)
    if magnitude:
        return (me._reduce_part(acc, part, True) @ node_w) / area, terms / area
    acc /= area
    return me._reduce_part(acc, part, False), terms / area


class TestNormalFormProducts:
    """Products and scalings of laws ``(1 + g)(1 + A)`` carry the form of
    the law they equal by the convolution theorem: the same moments, the
    same cost and the same even orders as that law built directly."""

    T = 0.5

    @classmethod
    def _cases(cls, d):
        from cfmoments.cli import build_measure
        from cfmoments.heat import evolve

        rng = np.random.default_rng(90 + d)
        mu = cf.make_empirical(rng.normal(scale=0.7, size=(5, d)))
        nu = cf.make_empirical(rng.normal(scale=0.7, size=(3, d)))
        a, b = (rng.normal(scale=0.7, size=d) for _ in range(2))
        t = cls.T

        def flow(law, tt=t):
            return evolve(law, 2.0, tt)

        def direct(first, second, tt=t):
            return flow(cf.make_discrete(first.atoms.convolve(second.atoms)), tt)

        gauss = {"family": "gaussian", "t": t, "d": d}
        # (product, the law built directly, that law's flow time)
        return {
            "form-atomic": (cf.make_product(flow(mu), nu), direct(mu, nu), t),
            "atomic-form": (cf.make_product(nu, flow(mu)), direct(nu, mu), t),
            "form-form": (cf.make_product(flow(mu, 0.2), flow(nu, 0.3)), direct(mu, nu), t),
            "scaled": (cf.make_scaled(flow(mu), 1.7),
                       flow(cf.make_discrete(mu.atoms.scaled(1.7)), t * 1.7**2), t * 1.7**2),
            "cli-product": (
                build_measure({"family": "product", "factors": [
                    {"family": "point_mass", "point": a.tolist()}, gauss,
                    {"family": "point_mass", "point": b.tolist()}]}),
                flow(cf.make_point_mass(a + b)), t),
        }

    CASES = ["form-atomic", "atomic-form", "form-form", "scaled", "cli-product"]

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_fractional_orders(self, d, case):
        phi, law, _ = self._cases(d)[case]
        assert phi.radial_atomic is not None
        for alpha in (0.5, 1.5):
            got, ref = me.absolute_moment(phi, alpha), me.absolute_moment(law, alpha)
            assert got.value == pytest.approx(ref.value, rel=1e-12), alpha
            if d > 1:
                assert got.diagnostics["kernel_evals"] == ref.diagnostics["kernel_evals"]

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_even_orders(self, d, case):
        phi, law, t = self._cases(d)[case]
        atoms = law.radial_atomic.atoms
        for order in (2, 4):
            exact = _noncentral_gaussian_moment(t, atoms.points, atoms.weights, order)
            res = TestEvenSeries._check(phi, order, exact)
            assert res.value == pytest.approx(me.even_order_moment(law, order).value, rel=1e-12)


class TestNodeBatches:
    """A sphere-rule mean reads at most ``_NODE_BATCH`` radius x node x atom
    products at once, counting the atoms of the factors' normal forms."""

    SPEC = QuadratureSpec(sphere_order=8)  # 64 nodes in d = 3
    R = np.geomspace(0.1, 20.0, 10)

    def test_chunks_of_a_fake_reader(self, monkeypatch):
        _, rule = me._angular_rule(3, self.SPEC)
        seen = []

        def reader(s, with_magnitude):
            seen.append(s.size)
            return me._read(np.exp(1j * np.outer(s, np.arange(64) / 64.0)) - 1.0, with_magnitude)

        def mean():
            seen.clear()
            evaluate = me._mean_terms(me.binomial_difference_coefficients(2), reader, rule,
                                      "complex", True, atoms=10)
            D, terms = evaluate(self.R, True)
            return D, terms, list(seen)

        whole, whole_terms, calls = mean()
        assert calls == [10, 10]
        monkeypatch.setattr(me, "_NODE_BATCH", 3 * 64 * 10)
        chunked, chunked_terms, calls = mean()
        # three radii per chunk, each read at m = 1 and 2
        assert calls == [3, 3, 3, 3, 3, 3, 1, 1]
        eps = np.finfo(float).eps
        assert np.all(np.abs(chunked - whole) <= 4 * eps * whole)
        assert np.all(np.abs(chunked_terms - whole_terms) <= 4 * eps * whole_terms)

    def test_a_form_counts_its_atoms(self, monkeypatch):
        import dataclasses

        from cfmoments.heat import evolve

        rng = np.random.default_rng(7)
        flow = evolve(cf.make_empirical(rng.normal(size=(10, 3))), 2.0, 0.5)
        other = cf.make_empirical(rng.normal(size=(4, 3)))
        seen = []

        def record(pts):
            seen.append(pts.shape[0])
            return flow.minus_one(pts)

        # the recorder keeps the flow's form: ten atoms, charged ten
        phi = dataclasses.replace(flow, minus_one=record)

        def profile():
            seen.clear()
            prof = me.difference_profile(phi, other, k=1, spec=self.SPEC, part="complex",
                                         magnitude=True)
            return prof.D(self.R), prof.counts.kernel_evals, list(seen)

        whole, evals, calls = profile()
        assert calls == [10 * 64]
        monkeypatch.setattr(me, "_NODE_BATCH", 3 * 64 * 10)
        chunked, chunked_evals, calls = profile()
        assert calls == [3 * 64, 3 * 64, 3 * 64, 64]
        assert chunked_evals == evals
        eps = np.finfo(float).eps
        assert np.all(np.abs(chunked - whole) <= 4 * eps * whole)


class TestSphereRuleProfile:
    """Profiles of non-radial transforms in d = 2, 3 against the sphere
    rule evaluated node by node."""

    R = np.concatenate([np.geomspace(1e-4, 50.0, 61), [1.0, 2.5]])
    SPEC = QuadratureSpec(sphere_order=12)

    @staticmethod
    def _laws(d):
        import dataclasses

        rng = np.random.default_rng(30 + d)
        shifted = cf.make_product(cf.make_gaussian(0.5, d), cf.make_point_mass(rng.normal(size=d)))
        return {
            # without its radial x atomic form the product takes the sphere rule
            "shifted": dataclasses.replace(shifted, radial_atomic=None),
            "stable": cf.make_stable(1.5, 0.7, d),
            "sample": cf.make_empirical(rng.normal(size=(15, d))),
        }

    @pytest.mark.parametrize("part", ["real", "complex"])
    @pytest.mark.parametrize("magnitude", [False, True])
    @pytest.mark.parametrize("pair", [False, True])
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_per_node_rule(self, d, pair, magnitude, part):
        laws = self._laws(d)
        phi = laws["shifted"]
        psi = laws["sample" if magnitude else "stable"] if pair else None
        k = 2
        profile = me.difference_profile(phi, psi, k=k, spec=self.SPEC, part=part,
                                        magnitude=magnitude)
        ref, ref_terms = _sphere_D(me.binomial_difference_coefficients(k), phi, psi, d,
                                   self.SPEC.sphere_order, self.R, part, magnitude)
        got, terms = profile.evaluate(self.R, True)
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)
        assert np.array_equal(terms, ref_terms)
        assert np.array_equal(profile.D(self.R), ref)

    def test_charges_nodes_times_factor_cost(self):
        laws = self._laws(2)
        profile = me.difference_profile(laws["shifted"], laws["sample"], k=3, spec=self.SPEC,
                                        part="complex", magnitude=True)
        profile.D(self.R)
        nodes = self.SPEC.sphere_order
        # one kernel for the formula product, one per atom for the sample
        assert profile.counts.kernel_evals == self.R.size * 3 * nodes * (1 + 15)


class TestAtomicEvaluator:
    """The atomic reduction against a per-atom sum in exact rounding."""

    R = np.concatenate([[0.0], np.geomspace(1e-6, 300.0, 80)])

    @staticmethod
    def _atoms(d):
        from cfmoments.measures import DiscreteMeasure

        rng = np.random.default_rng(40 + d)
        pts = rng.normal(size=(25, d)) * np.exp(rng.normal(size=(25, 1)))
        pts[3] = 0.0  # an atom at the origin
        w = rng.uniform(0.5, 1.5, 25)
        return DiscreteMeasure(pts, w / w.sum())

    @pytest.mark.parametrize("radial", [False, True])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_per_atom_fsum(self, d, k, radial):
        atoms = self._atoms(d)
        coeffs = me.binomial_difference_coefficients(k)
        g = cf.make_gaussian(0.5, d).radial_minus_one if radial else None
        counts = me._EvalCounts()
        evaluate = me._atomic_terms(atoms, coeffs, counts, g)[0]
        got, terms = evaluate(self.R, True)
        rho = atoms.radii()
        pos = rho > 0.0
        n = np.count_nonzero(pos)
        # one kernel per atom off the origin for the moments, then per m and
        # radius one read from the series, or one per atom summed directly,
        # and one for g
        series = np.outer(self.R, np.arange(1, k + 1)) * rho.max() <= 0.5
        assert 0 < np.count_nonzero(series) < series.size
        assert counts.kernel_evals == (n + np.count_nonzero(series) + n * np.count_nonzero(~series)
                                       + radial * series.size)
        kernel = {1: "cos", 2: "j0", 3: "sinc"}[d]
        for i, r in enumerate(self.R):
            items = []
            for m in range(1, k + 1):
                mr = r * m
                kv = me._kernel_minus_one(kernel, mr * rho[pos])
                gm = float(g(np.array([mr]))[0]) if radial else 0.0
                for kj, wj in zip(kv, atoms.weights[pos]):
                    items += [coeffs[m] * wj * kj, coeffs[m] * gm * wj * kj]
                items += [coeffs[m] * gm * wj for wj in atoms.weights]
            ref = math.fsum(items)
            assert abs(got[i] - ref) <= 1e-15 * terms[i]
        assert got[0] == 0.0
        assert np.array_equal(evaluate(self.R, False)[0], got)


class TestAtomicSeries:
    """The atomic reduction's Taylor series of the kernel sum
    ``s(y) = sum_j w_j (K(y rho_j) - 1)``, read where ``y rho_max <= 1/2``."""

    KERNELS = {1: "cos", 2: "j0", 3: "sinc"}

    @staticmethod
    def _atoms(d, n=30, spread=1.0):
        from cfmoments.measures import DiscreteMeasure

        rng = np.random.default_rng(50 + d)
        pts = rng.normal(size=(n, d)) * np.exp(spread * rng.normal(size=(n, 1)))
        w = rng.uniform(0.5, 1.5, n)
        return DiscreteMeasure(pts, w / w.sum())

    @staticmethod
    def _kernel_sum(atoms, r):
        """``D`` and the term magnitudes of k = 1, where D is s itself."""
        counts = me._EvalCounts()
        evaluate = me._atomic_terms(atoms, me.binomial_difference_coefficients(1), counts)[0]
        D, terms = evaluate(np.asarray(r, dtype=float), True)
        return D, terms, counts

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_series_against_exact_atom_sum(self, d):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.prec = 160
        atoms = self._atoms(d)
        rho = atoms.radii()
        z = np.concatenate([[0.0], np.geomspace(1e-8, 0.5, 120)])
        s, terms, counts = self._kernel_sum(atoms, z / rho.max())
        assert counts.kernel_evals == rho.size + z.size  # every radius from the series
        kernel = {1: mpmath.cos, 2: lambda u: mpmath.besselj(0, u),
                  3: lambda u: mpmath.sin(u) / u}[d]
        for zi, si in zip(z / rho.max(), s):
            y = mpmath.mpf(float(zi))
            ref = mpmath.fsum(mpmath.mpf(float(wj)) * (kernel(y * mpmath.mpf(float(rj))) - 1)
                              for wj, rj in zip(atoms.weights, rho)) if zi else 0
            assert abs(mpmath.mpf(float(si)) - ref) <= 4 * np.finfo(float).eps * abs(ref)
        assert np.array_equal(terms, -s)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_both_sides_of_the_cut(self, d):
        atoms = self._atoms(d)
        rho = atoms.radii()
        cut = 0.5 / rho.max()
        r = cut * np.array([0.99, 1.0 - 1e-15, 1.0 + 1e-15, 1.01])
        s, terms, counts = self._kernel_sum(atoms, r)
        # two radii from the series, two summed over the atoms
        assert counts.kernel_evals == rho.size + 2 + 2 * rho.size
        direct = me._kernel_minus_one(self.KERNELS[d], r[:, None] * rho[None, :]) @ atoms.weights
        assert np.all(np.abs(s - direct) <= 2e-15 * np.abs(direct))
        assert s[1] == pytest.approx(s[2], rel=1e-14)
        assert np.array_equal(terms, -s)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_atoms_all_at_the_origin(self, d):
        from cfmoments.measures import DiscreteMeasure

        atoms = DiscreteMeasure(np.zeros((3, d)), np.array([0.2, 0.3, 0.5]))
        r = np.concatenate([[0.0], np.geomspace(1e-6, 1e4, 40)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            s, terms, counts = self._kernel_sum(atoms, r)
        assert np.all(s == 0.0) and np.all(terms == 0.0)
        assert counts.kernel_evals == r.size

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_one_atom(self, d):
        from cfmoments.measures import DiscreteMeasure

        point = np.full((1, d), 0.7)
        atoms = DiscreteMeasure(point, np.array([1.0]))
        rho = atoms.radii()
        r = np.concatenate([[0.0], np.geomspace(1e-8, 0.5, 60) / rho[0],
                            np.geomspace(0.6, 50.0, 20) / rho[0]])
        s, terms, _ = self._kernel_sum(atoms, r)
        ref = me._kernel_minus_one(self.KERNELS[d], r * rho[0])
        assert np.all(np.abs(s - ref) <= 2 * np.spacing(np.abs(ref)))
        assert np.array_equal(terms, -s)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_wide_radii_do_not_overflow(self, d):
        # stable-law radii: unscaled, rho**16 of the largest atom overflows
        atoms = self._atoms(d, n=40, spread=60.0)
        rho = atoms.radii()
        assert rho.max() > 1e20 and rho.min() < 1e-20
        r = np.concatenate([[0.0], np.geomspace(1e-4, 1e4, 41) / rho.max()])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            s, terms, _ = self._kernel_sum(atoms, r)
        assert np.all(np.isfinite(s))
        kv = me._kernel_minus_one(self.KERNELS[d], r[:, None] * rho[None, :])
        for si, row in zip(s, kv):
            ref = math.fsum(row * atoms.weights)
            assert abs(si - ref) <= 1e-15 * abs(ref)

    @pytest.mark.parametrize("kernel", ["cos", "j0", "sinc"])
    def test_kernel_minus_one_is_never_positive(self, kernel):
        y = np.concatenate([[0.0, 5e-324, 1e-300], np.geomspace(1e-12, 1e12, 20001),
                            np.linspace(0.9, 1.1, 2001), np.linspace(0.0, 40.0, 40001),
                            [1e100, 1e300]])
        assert np.all(me._kernel_minus_one(kernel, y) <= 0.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_magnitude_is_minus_s_on_the_direct_path(self, d):
        atoms = self._atoms(d)
        rho = atoms.radii()
        r = np.geomspace(0.6, 300.0, 50) / rho.max()
        s, terms, counts = self._kernel_sum(atoms, r)
        assert counts.kernel_evals == rho.size + r.size * rho.size  # no radius from the series
        kv = me._kernel_minus_one(self.KERNELS[d], r[:, None] * rho[None, :])
        assert np.array_equal(s, kv @ atoms.weights)
        assert np.array_equal(terms, np.abs(kv) @ atoms.weights)


class TestBesselTail:
    """The kernel tails ``int_y^inf u**(-1-alpha) K(u) du`` of d = 1, 2, 3
    atoms: a bridge up to max(32, 4 (1 + alpha)), then the asymptotic
    series, Hankel's expansion for J0."""

    # lower limits m R rho of the atomic tail (R = r_split = 1 and beyond),
    # on both sides of the bridge's end; 252.17 sits near a zero of the J0
    # tail's phase at alpha = 4.5, where its value is 1/28 of its envelope
    Y = [0.05, 0.3, 0.5, 3.0, 16.0, 31.999, 32.0, 40.0, 100.0, 200.0, 252.17, 1e3, 1e4]

    @staticmethod
    def _reference(kernel, y, alpha):
        """The tail in closed form.  J0: the Mellin transform of J0,
        continued analytically to ``2**mu Gamma((1+mu)/2) / Gamma((1-mu)/2)``
        at ``mu = -1 - alpha``, less ``int_0^y`` from the antiderivative
        ``u**(mu+1) / (mu+1) 1F2((mu+1)/2; 1, (mu+3)/2; -u**2/4)``.  cos and
        sinc: ``int_y^inf u**(-1-a) exp(iu) du = y**-a E_(1+a)(-iy)``, the
        generalized exponential integral, at ``a = alpha`` and ``alpha + 1``."""
        mpmath = pytest.importorskip("mpmath")
        # the two J0 parts cancel by up to 24 digits at y = 1e4
        mpmath.mp.dps = 60
        y, a = mpmath.mpf(y), mpmath.mpf(alpha)
        if kernel == "cos":
            return float(mpmath.re(y ** (-a) * mpmath.expint(1 + a, -1j * y)))
        if kernel == "sinc":
            return float(mpmath.im(y ** (-a - 1) * mpmath.expint(2 + a, -1j * y)))
        mellin = 2 ** (-1 - a) * mpmath.gamma(-a / 2) / mpmath.gamma(1 + a / 2)
        return float(mellin + y ** (-a) / a * mpmath.hyp1f2(-a / 2, 1, 1 - a / 2, -y**2 / 4))

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5, 4.5])
    def test_against_mpmath(self, alpha):
        for kernel in ("cos", "j0", "sinc"):
            val, err = me._kernel_tail(kernel, np.array(self.Y), alpha)
            for y, v, e in zip(self.Y, val, err):
                ref = self._reference(kernel, y, alpha)
                # the bound covers truncation and rounding
                assert abs(v - ref) <= e, (kernel, y, v, ref, e)
                if kernel == "j0":
                    # the bridge's absolute tolerance is 1e-15 (the leading
                    # asymptotic term alone left 2.9e-6 at alpha = 0.5)
                    assert abs(v - ref) <= 2e-15 + 1e-15 * abs(ref)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_plane_sample_moments(self, seed):
        from cfmoments.mc_oracle import sample_gaussian

        e = cf.make_empirical(sample_gaussian(1.0, 2, 300, seed).points)
        for alpha in (0.5, 1.5, 2.5):
            res = me.absolute_moment(e, alpha)
            exact = e.atoms.moment(alpha)
            err = abs(res.value - exact)
            assert err <= res.error_estimate
            # at order 2.5 the origin head, not the tail, leaves up to
            # ~2.4e-12 here, as it does in d = 1 and 3
            assert err <= (1e-12 if alpha < 2 else 1e-11) * exact, (alpha, err / exact)
