"""Diffusion evolution, moment propagation and decay rates."""

import math

import numpy as np
import pytest

from cfmoments import charfn as cf
from cfmoments import closed_forms as cfo
from cfmoments import heat as ht
from cfmoments.errors import DomainError
from cfmoments.specfun import gamma

DELTA = cf.make_point_mass([0.0])


class TestEvolve:
    def test_fundamental_solution(self):
        for p, t in [(1.0, 2.0), (1.5, 0.3), (2.0, 1.0)]:
            ev = ht.evolve(DELTA, p, t)
            st = cf.make_stable(p, t, 1)
            xs = np.linspace(-4, 4, 17)
            assert np.abs(ev.evaluate(xs) - st.evaluate(xs)).max() < 1e-15

    def test_gaussian_semigroup_under_p2(self):
        ev = ht.evolve(cf.make_gaussian(0.7, 1), 2.0, 1.3)
        xs = np.linspace(-4, 4, 17)
        assert np.abs(ev.evaluate(xs) - cf.make_gaussian(2.0, 1).evaluate(xs)).max() < 1e-14

    def test_semigroup_composition(self):
        g = cf.make_gaussian(0.5, 2)
        for p in (1.0, 1.5, 2.0):
            e1 = ht.evolve(ht.evolve(g, p, 0.4), p, 0.8)
            e2 = ht.evolve(g, p, 1.2)
            rng = np.random.default_rng(2)
            pts = rng.normal(size=(25, 2)) * 2.0
            assert np.abs(e1.evaluate(pts) - e2.evaluate(pts)).max() < 1e-14

    def test_modulus_never_exceeds_datum(self):
        rng = np.random.default_rng(12)
        initial = cf.make_empirical(rng.normal(size=9))
        ev = ht.evolve(initial, 1.5, 0.7)
        pts = rng.normal(scale=2.0, size=(64, 1))
        assert np.all(
            np.abs(ev.evaluate(pts)) <= np.abs(initial.evaluate(pts)) + 1e-15
        )

    def test_zero_time_is_identity(self):
        g = cf.make_gaussian(1.0, 1)
        assert ht.evolve(g, 1.5, 0.0) is g

    def test_range(self):
        with pytest.raises(DomainError):
            ht.evolve(DELTA, 2.5, 1.0)
        with pytest.raises(DomainError):
            ht.evolve(DELTA, 1.0, -0.1)


class TestMomentPropagation:
    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    def test_point_source_scaling(self, t):
        p, alpha = 1.5, 0.7
        res, bound, ok = ht.moment_propagation_check(DELTA, p, t, alpha)
        expected = t ** (alpha / p) * cfo.stable_moment(p, alpha, 1)
        assert res.value == pytest.approx(expected, rel=1e-6)
        assert ok  # zero-moment datum: cap not informative but not violated

    def test_gaussian_variance_addition(self):
        res, bound, ok = ht.moment_propagation_check(cf.make_gaussian(1.0, 1), 2.0, 3.0, 1.0)
        expected = cfo.stable_moment(2.0, 1.0, 1) * (1.0 + 3.0) ** 0.5
        assert res.value == pytest.approx(expected, rel=1e-8)
        assert ok

    def test_zero_time_returns_datum_moment(self):
        g = cf.make_gaussian(1.0, 1)
        res, bound, ok = ht.moment_propagation_check(g, 2.0, 0.0, 1.0)
        assert res.value == pytest.approx(g.analytic_moment(1.0), rel=1e-9)
        assert bound == pytest.approx(g.analytic_moment(1.0), rel=1e-12)


class TestSupDistance:
    def test_identical_data_vanish(self):
        g = cf.make_gaussian(1.0, 1)
        assert ht.derivative_sup_distance(g, g, 2.0, 1.0, 0) < 1e-14

    def test_heat_kernel_sharpness(self):
        # solution from a point source: sup equals the bound exactly
        for t in (1.0, 2.0, 4.0, 8.0):
            measured = ht.derivative_sup_distance(DELTA, None, 2.0, t, 0)
            bound = ht.sup_decay_constant(0, 2.0, 1) * t**-0.5
            assert measured == pytest.approx((4.0 * math.pi * t) ** -0.5, abs=1e-9)
            assert measured == pytest.approx(bound, abs=1e-9)

    def test_cauchy_diffusion_sharpness(self):
        # the p = 1 point-source solution peaks at 1/(pi t): the uniform
        # bound constant is attained there as well
        for t in (1.0, 4.0):
            m = ht.derivative_sup_distance(DELTA, None, 1.0, t, 0)
            assert m == pytest.approx(1.0 / (math.pi * t), abs=1e-9)
            assert m == pytest.approx(ht.sup_decay_constant(0, 1.0, 1) / t, abs=1e-9)

    def test_gaussian_difference_closed_form(self):
        measured = ht.derivative_sup_distance(DELTA, cf.make_point_mass([1.0]), 2.0, 1.0, 0)
        from scipy.optimize import minimize_scalar

        f = lambda x: -abs(math.exp(-(x**2) / 4) - math.exp(-((x - 1.0) ** 2) / 4))
        opt = minimize_scalar(f, bounds=(-3.0, 4.0), method="bounded",
                              options={"xatol": 1e-12})
        oracle = -opt.fun / math.sqrt(4.0 * math.pi)
        assert measured == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("t", [1.0, 2.0, 4.0, 8.0])
    def test_uniform_bound_for_pairs(self, t):
        from cfmoments.metrics import sup_distance

        pm = cf.make_point_mass([1.0])
        measured = ht.derivative_sup_distance(DELTA, pm, 2.0, t, 0)
        dinf = sup_distance(DELTA, pm).value
        assert measured <= ht.sup_decay_constant(0, 2.0, 1) * t**-0.5 * dinf * (1 + 1e-9)

    @staticmethod
    def _per_x_reference(phi, p, t, sigma, x_grid):
        # the inversion as one exp(i x xi) row per x, grid argmax refined once
        from cfmoments.quadrature import fixed_panel_nodes, oscillatory_breakpoints

        L = ht._inversion_cutoff(p, t)
        xi, w = fixed_panel_nodes(oscillatory_breakpoints(
            1e-9, L, max(np.abs(x_grid).max(), phi.osc_scale), per_octave=3))
        vals = (np.asarray(phi.minus_one(xi.reshape(-1, 1))) + 1.0) \
            * np.exp(-t * xi**p) * (1j * xi) ** sigma * w

        def inversion(xs):
            return np.abs(np.real(np.exp(1j * np.outer(xs, xi)) @ vals)) / math.pi

        out = inversion(x_grid)
        i = int(np.argmax(out))
        best = float(out[i])
        if 0 < i < x_grid.size - 1:
            y0, y1, y2 = out[i - 1], out[i], out[i + 1]
            denom = y0 - 2.0 * y1 + y2
            if denom < 0.0:
                x_ref = x_grid[i] + 0.5 * (y0 - y2) / denom * (x_grid[i + 1] - x_grid[i])
                best = max(best, float(inversion(np.array([x_ref]))[0]))
        return best

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("sigma", [0, 1])
    def test_inversion_matches_per_x_reference(self, p, sigma):
        t = 1.0
        default = np.linspace(-8.0, 8.0, 513)  # the default window at t = 1
        user = np.sort(np.random.default_rng(4).uniform(-3.0, 3.0, 200))
        for x_grid in (None, user):
            got = ht.derivative_sup_distance(DELTA, None, p, t, sigma, x_grid=x_grid)
            ref = self._per_x_reference(DELTA, p, t, sigma, default if x_grid is None else user)
            assert abs(got - ref) <= 1e-13 * ref

    def test_rejects_empty_or_nonfinite_grid(self):
        for x_grid in ([], np.array([0.0, np.nan, 1.0]), [0.0, np.inf]):
            with pytest.raises(DomainError):
                ht.derivative_sup_distance(DELTA, None, 2.0, 1.0, 0, x_grid=x_grid)

    def test_dimension_restriction(self):
        g2 = cf.make_gaussian(1.0, 2)
        with pytest.raises(DomainError):
            ht.derivative_sup_distance(g2, g2, 2.0, 1.0, 0)


class TestDecayRate:
    def test_identical_data_report_zeros(self):
        g = cf.make_gaussian(1.0, 1)
        rep = ht.decay_rate_check(g, g, 2.0, 0.5, times=(4.0, 16.0))
        assert max(rep.measured_sup) < 1e-13
        assert rep.distance == 0.0

    def test_bound_and_rate_fit(self):
        # pair whose transform difference has exponent just above alpha, so
        # the stated rate describes the measured decay within tolerance
        st = cf.make_stable(0.55, 1.0, 1)
        rep = ht.decay_rate_check(st, DELTA, 2.0, 0.5, 0, times=(4.0, 8.0, 16.0, 32.0, 64.0))
        for m, b in zip(rep.measured_sup, rep.bounds):
            assert m <= b * (1.0 + 1e-9)
        assert rep.fitted_rate == pytest.approx(rep.rate_bound, abs=0.05)

    def test_range(self):
        with pytest.raises(DomainError):
            ht.decay_rate_check(DELTA, DELTA, 2.0, 1.2)


class TestSmallTime:
    def test_zero_time(self):
        rho, bound = ht.small_time_check(DELTA, 2.0, 0.0, 0.5)
        assert rho == 0.0 and bound == 0.0

    @pytest.mark.parametrize("t", [0.02, 0.01])
    def test_point_source_equality_case(self, t):
        rho, bound = ht.small_time_check(DELTA, 2.0, t, 0.5)
        expected = 2.0 * t**0.25 * gamma(0.75) / 0.5
        assert rho == pytest.approx(expected, rel=1e-6)
        assert rho == pytest.approx(bound, rel=1e-6)

    def test_halving_ratio(self):
        p, alpha = 2.0, 0.5
        r1, _ = ht.small_time_check(DELTA, p, 0.02, alpha)
        r2, _ = ht.small_time_check(DELTA, p, 0.01, alpha)
        assert r2 / r1 == pytest.approx(2.0 ** (-alpha / p), rel=1e-3)

    def test_slope_fit(self):
        p, alpha = 1.5, 0.4
        ts = np.array([0.02, 0.01, 0.005, 0.0025])
        rhos = [ht.small_time_check(DELTA, p, float(t), alpha)[0] for t in ts]
        slope = float(np.polyfit(np.log(ts), np.log(rhos), 1)[0])
        assert slope == pytest.approx(alpha / p, abs=0.02)

    def test_decreasing_in_time(self):
        g = cf.make_gaussian(1.0, 1)
        rhos = [ht.small_time_check(g, 2.0, t, 0.5)[0] for t in (0.04, 0.02, 0.01)]
        assert rhos[0] > rhos[1] > rhos[2]

    def test_range(self):
        with pytest.raises(DomainError):
            ht.small_time_check(DELTA, 1.5, 0.1, 1.2)
