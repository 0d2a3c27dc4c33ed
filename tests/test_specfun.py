"""Gamma machinery, alternating sums, and the closed-form constants."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfmoments import specfun as sf
from cfmoments.errors import DomainError

# frozen from an arbitrary-precision product/series evaluation
GAMMA_3_7 = 4.170651783796603165
MELLIN_05 = 2.363271801207354703
MELLIN_M05 = 1.772453850905516027
I_2_07 = 1.4570757861536125292


class TestGamma:
    def test_half_integer(self):
        assert sf.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_factorial(self):
        assert sf.gamma(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_high_precision_oracle(self):
        assert sf.gamma(3.7) == pytest.approx(GAMMA_3_7, rel=1e-12)

    def test_pole_errors(self):
        for x in (0.0, -1.0, -2.0, -7.0):
            with pytest.raises(DomainError):
                sf.gamma(x)

    def test_recurrence_grid(self):
        xs = np.linspace(0.1, 49.0, 1201)
        worst = max(
            abs(sf.gamma(x + 1.0) - x * sf.gamma(x)) / abs(sf.gamma(x + 1.0))
            for x in xs
        )
        assert worst < 1e-12

    def test_reflection_grid(self):
        xs = np.linspace(0.01, 0.99, 197)
        for x in xs:
            lhs = sf.gamma(1.0 - x) * sf.gamma(x) * math.sin(math.pi * x)
            assert lhs == pytest.approx(math.pi, rel=1e-12)

    def test_duplication_grid(self):
        xs = np.linspace(0.1, 20.0, 241)
        for x in xs:
            lhs = sf.gamma(x) * sf.gamma(x + 0.5)
            rhs = 2.0 ** (1.0 - 2.0 * x) * math.sqrt(math.pi) * sf.gamma(2.0 * x)
            assert lhs == pytest.approx(rhs, rel=1e-11)

    @given(st.floats(0.2, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_recurrence_property(self, x):
        assert sf.gamma(x + 1.0) == pytest.approx(x * sf.gamma(x), rel=1e-12)


class TestPowerDifferenceSum:
    def test_interior_integers_vanish(self):
        assert sf.power_difference_sum(2, 1.0) == 0.0
        for k in range(2, 8):
            for n in range(1, k):
                assert sf.power_difference_sum(k, float(n)) == 0.0

    def test_factorial_at_k(self):
        assert sf.power_difference_sum(3, 3.0) == pytest.approx(6.0, rel=1e-14)
        for k in range(1, 9):
            assert sf.power_difference_sum(k, float(k)) == pytest.approx(
                math.factorial(k), rel=1e-12
            )

    def test_single_term(self):
        assert sf.power_difference_sum(1, 0.5) == 1.0

    def test_order_cap(self):
        with pytest.raises(DomainError):
            sf.power_difference_sum(13, 0.5)

    @given(
        st.integers(1, 8),
        st.floats(0.05, 11.0).filter(lambda a: abs(a - round(a)) > 1e-3),
    )
    @settings(max_examples=80, deadline=None)
    def test_nonzero_off_integers(self, k, alpha):
        assert sf.power_difference_sum(k, alpha) != 0.0

    @pytest.mark.parametrize("n", [1, 2])
    def test_near_interior_integers(self, n):
        # the sum vanishes at n, so each term must keep its own accuracy
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for delta in (-1e-1, -1e-3, -1e-6, -1e-9, 1e-9, 1e-6, 1e-3, 1e-1):
            alpha = n + delta
            ref = sum(math.comb(3, m) * (-1) ** (3 - m) * mpmath.mpf(m) ** mpmath.mpf(alpha)
                      for m in range(1, 4))
            got = sf.power_difference_sum(3, alpha)
            assert abs(got - ref) <= 4e-15 * abs(ref), (alpha, float(abs(got / ref - 1)))

    def test_mean_value_theta_in_unit_interval(self):
        for k in (1, 2, 3, 4, 5):
            for alpha in (0.3, 0.8, 1.4, 2.6, 3.3, 5.7, 7.2):
                if abs(alpha - round(alpha)) < 1e-9 or (alpha < k and alpha == int(alpha)):
                    continue
                if alpha <= k - 1 + 1e-9 and abs(alpha - round(alpha)) < 1e-9:
                    continue
                theta = sf.mean_value_theta(k, alpha)
                assert 0.0 < theta < 1.0, (k, alpha, theta)


class TestConstants:
    def test_moment_constant_k1_alpha1(self):
        assert sf.moment_constant(1, 1.0, 1) == pytest.approx(-1.0 / math.pi, rel=1e-14)

    def test_moment_constant_k1_alpha_half(self):
        expected = -math.sin(math.pi / 4) * sf.gamma(1.5) / math.pi
        assert sf.moment_constant(1, 0.5, 1) == pytest.approx(expected, rel=1e-13)
        assert sf.moment_constant(1, 0.5, 1) == pytest.approx(-0.19947114020071634, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sf.moment_constant(2, 1.0, 1)  # alternating sum vanishes
        with pytest.raises(DomainError):
            sf.moment_constant(3, 2.0, 1)  # even integer order

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_moment_constant_near_even_integers(self, d):
        # sin(alpha pi / 2) vanishes there, and so does the power sum below
        # k; what is left is the sum's own cancellation, growing with k
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for k, n in ((3, 2), (5, 2), (5, 4)):
            for delta in (-1e-2, -1e-4, -1e-6, 1e-6, 1e-4, 1e-2):
                a = mpmath.mpf(n + delta)
                s = sum(math.comb(k, m) * (-1) ** (k - m) * mpmath.mpf(m) ** a
                        for m in range(1, k + 1))
                ref = -(mpmath.sin(a * mpmath.pi / 2) * mpmath.gamma(a + 1)
                        * mpmath.gamma((a + d) / 2)
                        / (mpmath.pi ** (mpmath.mpf(d + 1) / 2) * s * mpmath.gamma((a + 1) / 2)))
                got = sf.moment_constant(k, n + delta, d)
                assert abs(got - ref) <= 1e-13 * abs(ref), (k, n + delta, float(abs(got / ref - 1)))

    @pytest.mark.parametrize("d", [1, 3])
    def test_moment_constant_within_its_rounding_bar(self, d):
        # the bar that absolute_moment adds for the constant: (4 kappa + 8)
        # units of 2**-53, kappa the power sum's cancellation over its terms
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for k in (3, 5, 7):
            for n in (2, 4, 6):
                for delta in (-1e-2, -1e-4, -1e-6, 1e-6, 1e-4, 1e-2):
                    alpha = n + delta
                    a = mpmath.mpf(alpha)
                    s = sum(math.comb(k, m) * (-1) ** (k - m) * mpmath.mpf(m) ** a
                            for m in range(1, k + 1))
                    ref = -(mpmath.sin(a * mpmath.pi / 2) * mpmath.gamma(a + 1)
                            * mpmath.gamma((a + d) / 2)
                            / (mpmath.pi ** (mpmath.mpf(d + 1) / 2) * s
                               * mpmath.gamma((a + 1) / 2)))
                    kappa = sf.power_difference_condition(k, alpha)
                    bar = (4.0 * kappa + 8.0) * 2.0**-53 * abs(float(ref))
                    err = float(abs(sf.moment_constant(k, alpha, d) - ref))
                    assert err <= bar, (k, alpha, err / bar)

    def test_power_difference_condition(self):
        # positive terms cancel nothing; near an interior integer they do
        assert sf.power_difference_condition(1, 0.5) == 1.0
        assert sf.power_difference_condition(7, 4.0001) > 1e4
        for k, alpha in ((3, 2.5), (7, 2.000001), (5, 6.01)):
            terms = [math.comb(k, m) * (-1) ** (k - m) * m**alpha for m in range(1, k + 1)]
            assert sf.power_difference_condition(k, alpha) >= 1.0
            assert sf.power_difference_sum(k, alpha) == pytest.approx(math.fsum(terms), rel=1e-6)

    def test_reciprocal_pair(self):
        assert sf.difference_integral_constant(1, 1.0, 1) == pytest.approx(-math.pi, rel=1e-14)
        rec = sf.difference_integral_constant(1, 0.5, 1)
        assert rec == pytest.approx(1.0 / sf.moment_constant(1, 0.5, 1), rel=1e-13)
        assert math.isfinite(sf.difference_integral_constant(3, 3.0, 2))
        assert sf.difference_integral_constant(3, 3.0, 2) != 0.0

    def test_reciprocal_invariant_grid(self):
        for k in (1, 2, 3, 4, 5):
            for d in (1, 2, 3):
                for alpha in np.arange(0.1, k + (0.9 if k % 2 else -0.1), 0.2):
                    if abs(alpha - round(alpha)) < 0.05:
                        continue
                    prod = sf.moment_constant(k, alpha, d) * sf.difference_integral_constant(k, alpha, d)
                    assert prod == pytest.approx(1.0, rel=1e-12), (k, alpha, d)


class TestKernelIntegral:
    def test_exact_values(self):
        assert sf.cosine_difference_integral(1, 1.0) == pytest.approx(-math.pi, abs=1e-12)
        assert sf.cosine_difference_integral(3, 3.0) == pytest.approx(math.pi, abs=1e-12)
        assert sf.cosine_difference_integral(5, 5.0) == pytest.approx(-math.pi, abs=1e-12)

    def test_interior_integers_vanish(self):
        assert sf.cosine_difference_integral(3, 2.0) == 0.0
        assert sf.cosine_difference_integral(4, 3.0) == 0.0

    def test_oracle_value(self):
        assert sf.cosine_difference_integral(2, 0.7) == pytest.approx(I_2_07, rel=1e-13)

    def test_range_errors(self):
        with pytest.raises(DomainError):
            sf.cosine_difference_integral(2, 2.0)   # even k needs alpha < k
        with pytest.raises(DomainError):
            sf.cosine_difference_integral(3, 4.0)   # odd k needs alpha < k+1
        with pytest.raises(DomainError):
            sf.cosine_difference_integral(1, -0.5)

    def test_kernel_bound_pointwise(self):
        rs = np.geomspace(1e-3, 50.0, 400)
        for k in (1, 3, 5):
            vals = np.abs(sf.cosine_difference_kernel(k, rs))
            bound = sf.cosine_difference_kernel_bound(k, rs)
            assert np.all(vals <= bound * (1.0 + 1e-12)), k
        for k in (2, 4):
            vals = np.abs(sf.cosine_difference_kernel(k, rs))
            bound = sf.cosine_difference_kernel_bound(k, rs)
            assert np.all(vals <= bound * (1.0 + 1e-12)), k

    def test_kernel_matches_direct_expansion(self):
        rs = np.linspace(0.1, 20.0, 57)
        for k in (1, 2, 3, 4, 5):
            direct = (np.exp(-1j * rs) - 1) ** k + (np.exp(1j * rs) - 1) ** k
            stable = sf.cosine_difference_kernel(k, rs)
            assert np.abs(direct.real - stable).max() < 1e-11


class TestMellin:
    def test_limit_value(self):
        assert sf.sin_squared_mellin(0.0) == math.pi / 2.0

    def test_quadrature_oracle_values(self):
        assert sf.sin_squared_mellin(0.5) == pytest.approx(MELLIN_05, rel=1e-13)
        assert sf.sin_squared_mellin(-0.5) == pytest.approx(MELLIN_M05, rel=1e-13)

    def test_range(self):
        for bad in (-1.0, 1.0, 1.5):
            with pytest.raises(DomainError):
                sf.sin_squared_mellin(bad)


class TestSphereArea:
    def test_values(self):
        assert sf.sphere_area(1) == 2.0
        assert sf.sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert sf.sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-14)


class TestPlaneWaveMeanDenominator:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_kernel_series(self, d):
        # (2l)! for cos, 4**l (l!)**2 for J0, (2l + 1)! for sinc, each held
        # exactly in a float: the denominators of the engine's kernel series
        from cfmoments.moment_engine import _kernel_denominators

        closed = {1: lambda l: math.factorial(2 * l),
                  2: lambda l: 4**l * math.factorial(l) ** 2,
                  3: lambda l: math.factorial(2 * l + 1)}[d]
        den = _kernel_denominators(d)
        for l in range(1, 11):
            assert sf.plane_wave_mean_denominator(l, d) == closed(l)
            assert float(sf.plane_wave_mean_denominator(l, d)) == float(closed(l)) == den[l - 1]


class TestTrigPowerTail:
    @pytest.mark.parametrize("y,alpha", [(40.0, 0.5), (32.0, 1.5), (80.0, 2.5), (25.0, 0.3)])
    def test_against_fourier_quadrature(self, y, alpha):
        from scipy.integrate import quad

        got, bound = sf.trig_power_tail(y, alpha)
        oc, _ = quad(lambda u: u ** (-1 - alpha), y, np.inf, weight="cos", wvar=1.0)
        os_, _ = quad(lambda u: u ** (-1 - alpha), y, np.inf, weight="sin", wvar=1.0)
        assert got.real == pytest.approx(oc, abs=5e-10)
        assert got.imag == pytest.approx(os_, abs=5e-10)


class TestTrigPowerTailArray:
    Y = np.concatenate([
        np.geomspace(1e-3, 200.0, 61),
        [5.0, 5.0, np.nextafter(5.0, 6.0), 31.999999, 32.0, 32.0000001, 40.0, 40.0],
    ])

    @pytest.mark.parametrize("alpha", [0.3, 1.5, 2.5])
    def test_array_matches_scalar_calls(self, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            val, bound = sf.trig_power_tail(self.Y, alpha)
            scalar = [sf.trig_power_tail(float(y), alpha) for y in self.Y]
        ref = np.array([v for v, _ in scalar])
        ref_bound = np.array([b for _, b in scalar])
        assert val.shape == bound.shape == self.Y.shape
        np.testing.assert_allclose(val, ref, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(bound, ref_bound, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 1.5, 2.5, 6.0])
    def test_few_starts_match_array_path(self, alpha):
        # one to three starts take the per-start path, more the array path
        y = np.concatenate([self.Y, np.geomspace(200.0, 2000.0, 7)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            val, bound = sf.trig_power_tail(y, alpha)
            for n in (1, 2, 3):
                for i in range(0, y.size - n + 1, n):
                    v, b = sf.trig_power_tail(y[i:i + n], alpha)
                    for got, ref in ((v.real, val[i:i + n].real), (v.imag, val[i:i + n].imag),
                                     (b, bound[i:i + n])):
                        assert np.all(np.abs(got - ref) <= np.spacing(np.abs(ref)))

    def test_scalar_in_scalar_out(self):
        val, bound = sf.trig_power_tail(40.0, 0.5)
        assert isinstance(val, complex) and isinstance(bound, float)

    def test_shape_and_domain(self):
        val, bound = sf.trig_power_tail(np.full((2, 3), 50.0), 1.5)
        assert val.shape == bound.shape == (2, 3)
        assert sf.trig_power_tail(np.array([]), 1.5)[0].size == 0
        with pytest.raises(DomainError):
            sf.trig_power_tail(np.array([40.0, 0.0]), 0.5)
