"""Transform metrics, seminorms, membership classification."""

import math

import numpy as np
import pytest

from cfmoments import charfn as cf
from cfmoments import closed_forms as cfo
from cfmoments import metrics as mt
from cfmoments import moment_engine as me
from cfmoments.errors import DivergenceSuspectedError, DomainError
from cfmoments.quadrature import QuadratureSpec
from cfmoments.specfun import gamma

# frozen one-dimensional oracles
DBETA_GAUSS_DELTA = 0.6381726863389515   # max_r (1 - exp(-r^2)) / r, golden-section
RHO_POINT_MASSES = 9.971862490487326     # atoms 0.7 and -0.4, order 0.5
DERIV_POINT_MASS = 26.89211327835567     # atom 2.0, first derivative, gamma 0.5

DELTA = cf.make_point_mass([0.0])


class TestSupDistance:
    def test_identical_is_zero(self):
        g = cf.make_gaussian(1.0, 1)
        assert mt.sup_distance(g, g).value == 0.0

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_gaussian_vs_delta_saturates(self, t):
        r = mt.sup_distance(cf.make_gaussian(t, 1), DELTA)
        assert r.value >= 0.999
        assert r.value <= 1.0 + 1e-12

    def test_upper_bound_two(self):
        r = mt.sup_distance(cf.make_point_mass([2.0]), cf.make_point_mass([-1.0]))
        assert r.value <= 2.0 + 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DomainError):
            mt.sup_distance(cf.make_gaussian(1.0, 1), cf.make_gaussian(1.0, 2))


class TestHolderDistance:
    def test_identical_is_zero(self):
        g = cf.make_gaussian(1.0, 1)
        assert mt.holder_distance(g, g, 1.0).value == 0.0

    def test_gaussian_delta_oracle(self):
        r = mt.holder_distance(cf.make_gaussian(1.0, 1), DELTA, 1.0)
        assert r.value == pytest.approx(DBETA_GAUSS_DELTA, rel=1e-4)
        assert r.value <= DBETA_GAUSS_DELTA * (1.0 + 1e-9)  # grid never exceeds the sup
        assert r.grid_report["refined_gain"] >= 0.0  # refinement only raises the estimate

    def test_point_masses_dense_scan(self):
        a, b, beta = 0.9, -0.3, 0.7
        r = mt.holder_distance(cf.make_point_mass([a]), cf.make_point_mass([b]), beta)
        rs = np.geomspace(1e-6, 1e6, 300001)
        brute = float((np.abs(np.exp(-1j * rs * a) - np.exp(-1j * rs * b)) / rs**beta).max())
        assert r.value == pytest.approx(brute, rel=1e-4)

    def test_beta_range(self):
        g = cf.make_gaussian(1.0, 1)
        for beta in (0.0, 2.0, 2.5, -0.5):
            with pytest.raises(DomainError):
                mt.holder_distance(g, DELTA, beta)

    def test_holder_seminorm_is_distance_to_one(self):
        g = cf.make_gaussian(1.0, 1)
        assert mt.holder_seminorm(g, 1.0) == pytest.approx(
            mt.holder_distance(g, DELTA, 1.0).value, rel=1e-12
        )
        assert mt.holder_seminorm(DELTA, 0.5) == 0.0


class TestDifferenceSeminorm:
    def test_identical_is_zero(self):
        g = cf.make_gaussian(1.0, 1)
        assert mt.difference_seminorm(g, g, 0.7, 1).value == 0.0

    @pytest.mark.parametrize("t,alpha", [(1.0, 0.5), (1.0, 1.3), (2.0, 0.7), (0.5, 1.8)])
    def test_gaussian_delta_closed_form(self, t, alpha):
        r = mt.difference_seminorm(cf.make_gaussian(t, 1), DELTA, alpha, 1)
        expected = 2.0 * t ** (alpha / 2.0) * gamma(1.0 - alpha / 2.0) / alpha
        assert r.value == pytest.approx(expected, rel=1e-6)

    def test_triangle_inequality_structure(self):
        t1, t2, alpha = 1.0, 2.0, 0.5
        d12 = mt.difference_seminorm(
            cf.make_gaussian(t1, 1), cf.make_gaussian(t2, 1), alpha, 1
        ).value
        d1 = mt.difference_seminorm(cf.make_gaussian(t1, 1), DELTA, alpha, 1).value
        d2 = mt.difference_seminorm(cf.make_gaussian(t2, 1), DELTA, alpha, 1).value
        assert 0.0 < d12 <= d1 + d2 + 1e-9

    def test_real_part_variant_on_real_transforms(self):
        g1, g2 = cf.make_gaussian(1.0, 1), cf.make_gaussian(2.0, 1)
        plain = mt.difference_seminorm(g1, g2, 0.5, 1).value
        realv = mt.difference_seminorm(g1, g2, 0.5, 1, real_part=True).value
        assert realv == pytest.approx(plain, rel=1e-9)

    def test_divergence_flagged(self):
        cauchy = cf.make_stable(1.0, 1.0, 1)
        with pytest.raises(DivergenceSuspectedError):
            mt.difference_seminorm(cauchy, DELTA, 1.5, 1)


class TestIntegralDistance:
    def test_equals_first_difference_seminorm(self):
        pairs = [
            (cf.make_gaussian(1.0, 1), DELTA, 0.5),
            (cf.make_gaussian(1.0, 1), cf.make_gaussian(2.0, 1), 0.7),
            (cf.make_linnik(1.0, 1.0, 1), DELTA, 0.4),
        ]
        for phi, psi, a in pairs:
            lhs = mt.integral_distance(phi, psi, a).value
            rhs = mt.difference_seminorm(phi, psi, a, 1).value
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_range(self):
        with pytest.raises(DomainError):
            mt.integral_distance(cf.make_gaussian(1.0, 1), DELTA, 1.2)

    def test_gaussian_delta_equality_case(self):
        for t, a in [(1.0, 0.5), (0.3, 0.7)]:
            r = mt.integral_distance(cf.make_gaussian(t, 1), DELTA, a)
            expected = 2.0 * t ** (a / 2.0) * gamma(1.0 - a / 2.0) / a
            assert r.value == pytest.approx(expected, rel=1e-6)

    def test_point_mass_pair_oracle(self):
        r = mt.integral_distance(cf.make_point_mass([0.7]), cf.make_point_mass([-0.4]), 0.5)
        assert r.value == pytest.approx(RHO_POINT_MASSES, rel=1e-6)

    @pytest.mark.parametrize("c,alpha", [(1.3, 0.5), (0.7, 0.3), (2.0, 0.8)])
    def test_two_atom_window_tail_against_sin_series(self, c, alpha):
        # by linearity rho(delta0/2 + delta_c/2, delta0) = rho(delta_c, delta0)/2:
        # the left side closes its tail with the |D| window mean, the right
        # side with the exact |sin| series
        atom = cf.make_point_mass([c])
        mix = cf.make_mixture([DELTA, atom], np.array([0.5, 0.5]))
        lhs = mt.integral_distance(mix, DELTA, alpha)
        rhs = mt.integral_distance(atom, DELTA, alpha)
        bar = lhs.grid_report["integral_error"] + 0.5 * rhs.grid_report["integral_error"]
        assert abs(lhs.value - 0.5 * rhs.value) <= bar

    def test_plane_point_mass_reduces_to_line(self):
        # in d = 2 the pair runs the sphere rule with |.| per node; the angle
        # integrates out as int |cos|**alpha over the circle, which leaves
        # the d = 1 distance times sqrt(pi) G((1+a)/2) / G((2+a)/2)
        c, alpha = 1.3, 0.5
        plane = mt.integral_distance(
            cf.make_point_mass([c, 0.0]), cf.make_point_mass([0.0, 0.0]), alpha
        )
        line = mt.integral_distance(cf.make_point_mass([c]), DELTA, alpha)
        factor = math.sqrt(math.pi) * gamma((1.0 + alpha) / 2.0) / gamma((2.0 + alpha) / 2.0)
        bar = plane.grid_report["integral_error"] + factor * line.grid_report["integral_error"]
        assert abs(plane.value - factor * line.value) <= bar


class TestCompositeMetrics:
    G1 = cf.make_gaussian(1.0, 1)
    G2 = cf.make_gaussian(2.0, 1)

    def test_zero_on_identical(self):
        for kind, beta in (("D", None), ("F", 0.5), ("G", None), ("H", 0.5)):
            r = mt.composite_metric(kind, self.G1, self.G1, 0.5, beta, 1)
            assert r.value == 0.0

    def test_components_match_standalone(self):
        r = mt.composite_metric("F", self.G1, self.G2, 0.5, 0.5, 1)
        db = mt.holder_distance(self.G1, self.G2, 0.5).value
        sn = mt.difference_seminorm(self.G1, self.G2, 0.5, 1).value
        assert r.sup_component == pytest.approx(db, rel=1e-12)
        assert r.integral_component == pytest.approx(sn, rel=1e-12)
        assert r.value == pytest.approx(db + sn, rel=1e-12)

    def test_real_variant_coincides_for_symmetric(self):
        f = mt.composite_metric("F", self.G1, self.G2, 0.5, 0.5, 1)
        h = mt.composite_metric("H", self.G1, self.G2, 0.5, 0.5, 1)
        assert h.value == pytest.approx(f.value, rel=1e-9)

    def test_parameter_ranges(self):
        with pytest.raises(DomainError):
            mt.composite_metric("F", self.G1, self.G2, 0.5, 0.8, 1)  # beta > alpha
        with pytest.raises(DomainError):
            mt.composite_metric("H", self.G1, self.G2, 0.5, None, 1)
        with pytest.raises(DomainError):
            mt.composite_metric("X", self.G1, self.G2, 0.5, 0.5, 1)

    def test_symmetry_and_triangle(self):
        trio = [self.G1, self.G2, cf.make_linnik(1.5, 1.0, 1)]
        for kind, beta in (("D", None), ("F", 0.4), ("G", None), ("H", 0.4)):
            d = {}
            for i, a in enumerate(trio):
                for j, b in enumerate(trio):
                    if i < j:
                        d[i, j] = mt.composite_metric(kind, a, b, 0.45, beta, 1).value
                        rev = mt.composite_metric(kind, b, a, 0.45, beta, 1).value
                        assert rev == pytest.approx(d[i, j], rel=1e-9)
            assert d[0, 1] <= d[0, 2] + d[1, 2] + 1e-9
            assert d[0, 2] <= d[0, 1] + d[1, 2] + 1e-9
            assert d[1, 2] <= d[0, 1] + d[0, 2] + 1e-9

    def test_fatou_stability(self):
        target = cf.make_gaussian(1.0, 1)
        vals = [
            mt.difference_seminorm(cf.make_gaussian(1.0 + 1.0 / n, 1), target, 0.5, 1).value
            for n in (2, 4, 8, 16)
        ]
        assert vals[0] > vals[1] > vals[2] > vals[3]


class TestDifferenceHolderSup:
    @pytest.mark.parametrize("phi", [cf.make_gaussian(1.0, 1), cf.make_linnik(2.0, 1.0, 1)],
                             ids=["gaussian", "linnik"])
    @pytest.mark.parametrize("k,beta", [(1, 0.5), (2, 1.3), (3, 0.8)])
    def test_moment_bound(self, phi, k, beta):
        sup = mt.difference_holder_sup(phi, k, beta)
        bound = 2.0 ** (k - beta) * phi.analytic_moment(beta)
        assert sup <= bound * (1.0 + 1e-9)

    def test_constant_transform_is_zero(self):
        assert mt.difference_holder_sup(DELTA, 2, 1.0) == 0.0

    @pytest.mark.parametrize("phi", [cf.make_gaussian(1.0, 1), cf.make_linnik(2.0, 1.0, 1)],
                             ids=["gaussian", "linnik"])
    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.9])
    def test_first_difference_is_holder_seminorm(self, phi, beta):
        # one grid and one refine pass: the k = 1 difference is phi - 1
        assert mt.difference_holder_sup(phi, 1, beta) == mt.holder_seminorm(phi, beta)


class TestMembership:
    def test_gaussian_finite_all_orders(self):
        g = cf.make_gaussian(1.0, 1)
        for alpha, k in ((0.5, 1), (1.5, 2), (2.5, 3)):
            rep = mt.membership(g, alpha, k)
            assert rep.classification == "finite", (alpha, k)
            assert rep.integral_value > 0.0

    def test_cauchy_even_order_inconsistency(self):
        rep = mt.membership(cf.make_stable(1.0, 1.0, 1), 1.5, 2)
        assert rep.classification == "divergence-suspected"
        assert "inconsisten" in rep.details.get("reason", "")

    def test_cauchy_odd_order_slope(self):
        rep = mt.membership(cf.make_stable(1.0, 1.0, 1), 1.5, 1)
        assert rep.classification == "divergence-suspected"
        assert rep.origin_slope is not None and rep.origin_slope <= 1.55

    def test_cauchy_higher_odd_orders_also_flagged(self):
        # the k >= 3 difference integrals of the Cauchy transform are finite
        # at order 1.5 even though the moment diverges; the sign-consistency
        # signal is what catches it (deep-probe cancellation must not crash)
        for k in (3, 5):
            rep = mt.membership(cf.make_stable(1.0, 1.0, 1), 1.5, k)
            assert rep.classification == "divergence-suspected", k

    def test_cauchy_low_order_finite(self):
        rep = mt.membership(cf.make_stable(1.0, 1.0, 1), 0.5, 1)
        assert rep.classification == "finite"

    def test_deep_cancellation_does_not_masquerade_as_divergence(self):
        # the k = 3 difference of a narrow Gaussian reaches the evaluator's
        # cancellation floor well above the head tolerance; the descent must
        # stop at the noise boundary instead of reading the noise envelope
        # as an origin exponent
        rep = mt.membership(cf.make_gaussian(0.7132206794326172, 1), 2.65015587847253, 3)
        assert rep.classification == "finite"
        assert rep.origin_slope == pytest.approx(4.0, abs=1e-3)

    def test_linnik_high_order_finite(self):
        # the k = 5 magnitude reaches the cancellation floor inside the
        # origin cut; that floor is not an origin exponent
        rep = mt.membership(cf.make_linnik(2.0, 2.5, 1), 3.5, 5)
        assert rep.classification == "finite"
        assert rep.details["implied_moment"] == pytest.approx(
            cfo.linnik_moment(2.0, 2.5, 3.5, 1), rel=1e-6
        )

    def test_gaussian_k7_finite(self):
        # only the verdict: the k = 7 head itself still sits at the noise floor
        rep = mt.membership(cf.make_gaussian(0.7, 1), 6.5, 7)
        assert rep.classification == "finite"

    def test_lacunary_growth_beyond_order(self):
        vals = []
        for K in (4, 8, 12):
            lac = cf.make_discrete(cf.lacunary_measure(1.0, K), label=f"lac{K}")
            rep = mt.membership(lac, 1.5, 2)
            vals.append(rep.integral_value)
        assert vals[0] < vals[1] < vals[2]
        increments = np.diff(vals)
        assert increments[1] > increments[0]  # no sign of stabilizing


class TestDerivativeSeminorm:
    def test_zero_order_reduces_to_distance(self):
        g = cf.make_gaussian(1.0, 1)
        lhs = mt.derivative_seminorm(g, (0,), 0.5)
        rhs = mt.integral_distance(g, DELTA, 0.5).value
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_missing_oracle(self):
        with pytest.raises(DomainError):
            mt.derivative_seminorm(cf.make_stable(1.5, 1.0, 1), (1,), 0.5)

    def test_point_mass_oracle(self):
        pm = cf.make_point_mass([2.0])
        got = mt.derivative_seminorm(pm, (1,), 0.5)
        assert got == pytest.approx(DERIV_POINT_MASS, rel=1e-6)

    @pytest.mark.parametrize("phi,sigma", [
        (cf.make_gaussian(1.0, 1), (1,)),
        (cf.make_gaussian(1.0, 1), (2,)),
        (cf.make_point_mass([2.0]), (1,)),
        (cf.make_empirical(np.random.default_rng(3).normal(size=(20, 1))), (1,)),
    ], ids=["gaussian-1", "gaussian-2", "point-mass", "sample20"])
    def test_one_ray_matches_two_nodes(self, phi, sigma):
        # for a real measure |d^s phi(-xi) - d^s phi(0)| = |d^s phi(xi) -
        # d^s phi(0)|, so the ray alone carries the mean over the nodes +1, -1
        spec = QuadratureSpec()
        profile = me.derivative_profile(phi, sigma, spec=spec)
        base = complex(np.asarray(phi.derivative(sigma, np.zeros((1, 1))))[0])

        def two_nodes(r, with_magnitude):
            vals = np.abs(np.asarray(phi.derivative(sigma, np.concatenate([r, -r])[:, None])) - base)
            return 0.5 * (vals[:r.size] + vals[r.size:]), None

        ref = me.DifferenceProfile(two_nodes, profile.angular, profile.freq, magnitude=True,
                                   tail=profile.tail)
        want = profile.angular * float(np.real(ref.integrate(0.5, spec)[0]))
        assert mt.derivative_seminorm(phi, sigma, 0.5) == pytest.approx(want, rel=1e-10)
        # one derivative evaluation per radius, costed one per atom
        _, _, diag = profile.integrate(0.5, spec)
        cost = phi.atoms.size if phi.atoms is not None else 1
        assert diag["kernel_evals"] == diag["points"] * cost

    def test_gaussian_second_derivative_equivalence(self):
        # the two-sided comparability with the order-(m+1) seminorm: both
        # functionals scale together across the family, ratio bounded by
        # the explicit constant (2m+1) d^m on one side
        m, gam = 2, 0.5
        alpha = m + gam
        upper_const = (2 * m + 1) * 1**m
        ratios = []
        for t in (0.5, 1.0, 2.0):
            g = cf.make_gaussian(t, 1)
            deriv = mt.derivative_seminorm(g, (m,), gam)
            semi = mt.difference_seminorm(g, DELTA, alpha, m + 1).value
            assert semi <= upper_const * deriv * (1.0 + 1e-9)
            ratios.append(semi / deriv)
        assert max(ratios) / min(ratios) < 1.5  # comparable across the family
