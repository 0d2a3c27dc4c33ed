"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
line per criterion.  Runtime budgets are asserted where stated.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from cfmoments import charfn as cf
from cfmoments import closed_forms as cfo
from cfmoments import convolution as cv
from cfmoments import heat as ht
from cfmoments import mc_oracle as mc
from cfmoments import metrics as mt
from cfmoments import moment_engine as me
from cfmoments import specfun as sf
from cfmoments.errors import DivergenceSuspectedError

DELTA = cf.make_point_mass([0.0])


def report(name, detail=""):
    print(f"PASS {name}" + (f"  [{detail}]" if detail else ""))


def kernel_integral_oracle(k, alpha):
    """Independent quadrature of the defining oscillatory integral.

    QUADPACK adaptive head above a small cutoff (with the kernel's leading
    power closing the head below it) plus Fourier-weighted tails for each
    cosine component and the exact constant part.
    """
    cut = 1e-6
    y0 = 12.0 * math.pi

    def f(r):
        return r ** (-1.0 - alpha) * float(sf.cosine_difference_kernel(k, np.array([r]))[0])

    # log substitution below 1 turns the algebraic endpoint into a smooth
    # exponential, which the adaptive rule integrates without extrapolation
    def f_log(s):
        r = math.exp(s)
        return math.exp(-alpha * s) * float(sf.cosine_difference_kernel(k, np.array([r]))[0])

    head_lo, _ = quad(f_log, math.log(cut), 0.0, limit=400)
    breaks = np.arange(math.pi, y0, math.pi)
    head_hi, _ = quad(f, 1.0, y0, limit=900, points=breaks)
    head = head_lo + head_hi
    if k % 2 == 0:
        below = (-1.0) ** (k // 2) * 2.0 * cut ** (k - alpha) / (k - alpha)
    else:
        below = (-1.0) ** ((k + 1) // 2) * k * cut ** (k + 1 - alpha) / (k + 1 - alpha)
    coeffs = sf.binomial_difference_coefficients(k)
    tail = 2.0 * coeffs[0] * y0 ** (-alpha) / alpha
    for m in range(1, k + 1):
        # the Fourier-weighted rule integrates cos(m r) in the r variable
        t, _ = quad(lambda r: r ** (-1.0 - alpha), y0, np.inf, weight="cos", wvar=float(m))
        tail += 2.0 * coeffs[m] * t
    return head + below + tail


def test_criterion_01_constant_suite():
    start = time.monotonic()
    assert sf.cosine_difference_integral(1, 1.0) == pytest.approx(-math.pi, abs=1e-10)
    assert sf.cosine_difference_integral(3, 3.0) == pytest.approx(math.pi, abs=1e-10)
    checked = 0
    worst = 0.0
    for k in range(1, 6):
        upper = k + 1 if k % 2 == 1 else k
        for tenth in range(1, 10 * upper):
            alpha = tenth / 10.0
            if alpha >= upper:
                continue
            if min(abs(alpha - n) for n in range(0, upper + 1)) <= 0.05:
                continue
            got = sf.cosine_difference_integral(k, alpha)
            oracle = kernel_integral_oracle(k, alpha)
            worst = max(worst, abs(got - oracle))
            assert got == pytest.approx(oracle, abs=1e-7), (k, alpha)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    assert checked >= 140
    report("criterion 1: constant suite",
           f"{checked} grid points, worst abs dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_engine_vs_closed_forms():
    start = time.monotonic()
    worst = 0.0
    for d in (1, 2, 3):
        g = cf.make_gaussian(1.0, d)
        for alpha in (0.3, 0.5, 1.0, 1.5, 2.5, 3.0):
            got = me.absolute_moment(g, alpha).value
            expected = cfo.stable_moment(2.0, alpha, d)
            worst = max(worst, abs(got / expected - 1.0))
            assert got == pytest.approx(expected, rel=1e-6), ("gauss", d, alpha)
    for p in (0.7, 1.0, 1.5):
        for d in (1, 2, 3):
            s = cf.make_stable(p, 1.0, d)
            for alpha in (0.4 * p, 0.8 * p):
                got = me.absolute_moment(s, alpha).value
                expected = cfo.stable_moment(p, alpha, d)
                worst = max(worst, abs(got / expected - 1.0))
                assert got == pytest.approx(expected, rel=1e-6), ("stable", p, d, alpha)
    for (p, beta, alpha) in [(1.0, 1.0, 0.5), (1.5, 2.0, 0.9), (2.0, 1.5, 2.5),
                             (0.8, 3.0, 0.5), (2.0, 1.0, 3.0)]:
        got = me.absolute_moment(cf.make_linnik(p, beta, 1), alpha).value
        expected = cfo.linnik_moment(p, beta, alpha, 1)
        worst = max(worst, abs(got / expected - 1.0))
        assert got == pytest.approx(expected, rel=1e-6), ("linnik", p, beta, alpha)
    cauchy = me.absolute_moment(cf.make_stable(1.0, 1.0, 1), 0.5).value
    assert cauchy == pytest.approx(math.sqrt(2.0), rel=1e-6)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report("criterion 2: engine vs closed forms",
           f"worst rel dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_formula_coincidence_and_k_invariance():
    for phi, label in [(cf.make_gaussian(1.0, 1), "gaussian"),
                       (cf.make_linnik(1.5, 2.0, 1), "linnik")]:
        for k in (1, 3):
            for alpha in (0.45, 0.85):
                if not alpha < k:
                    continue
                r12 = me.absolute_moment(phi, alpha, k=k, formula="M12").value
                r13 = me.absolute_moment(phi, alpha, k=k, formula="M13").value
                assert r12 == pytest.approx(r13, rel=1e-8), (label, k, alpha)
        a = me.absolute_moment(phi, 0.6, k=1, formula="M13")
        b = me.absolute_moment(phi, 0.6, k=3, formula="M13")
        assert a.value == pytest.approx(b.value, rel=1e-6), label
    report("criterion 3: formula coincidence and k-invariance")


def test_criterion_04_even_order_limit():
    res = me.even_order_moment(cf.make_gaussian(1.0, 1), 2)
    assert res.formula == "even-series"
    assert res.value == pytest.approx(2.0, rel=1e-12)
    report("criterion 4: even-order limit", f"value {res.value:.8f}")


def test_criterion_05_empirical_exactness():
    rng = np.random.default_rng(1234)
    xs = rng.normal(size=50)
    e = cf.make_empirical(xs)
    for alpha in (0.5, 0.7):
        brute = float(np.mean(np.abs(xs) ** alpha))
        quadrature = me.absolute_moment(e, alpha)
        assert quadrature.formula in ("M13", "M12")
        assert quadrature.value == pytest.approx(brute, rel=1e-3), alpha
        exact = me.absolute_moment(e, alpha, method="exact")
        assert exact.formula == "discrete-exact"
        assert exact.value == pytest.approx(brute, rel=1e-14)
    report("criterion 5: empirical moment exactness")


def test_criterion_06_membership_classifier():
    g = cf.make_gaussian(1.0, 1)
    for alpha, k in ((0.5, 1), (1.5, 2), (2.5, 3)):
        assert mt.membership(g, alpha, k).classification == "finite", (alpha, k)
    cauchy = cf.make_stable(1.0, 1.0, 1)
    assert mt.membership(cauchy, 1.5, 2).classification == "divergence-suspected"
    integrals = []
    for K in (4, 8, 12):
        lac = cf.make_discrete(cf.lacunary_measure(1.0, K), label=f"lacunary-{K}")
        rep = mt.membership(lac, 1.5, 2)
        integrals.append(rep.integral_value)
    assert integrals[0] < integrals[1] < integrals[2]
    inc = np.diff(integrals)
    assert inc[1] > inc[0]
    report("criterion 6: membership classifier",
           f"lacunary integrals {['%.1f' % v for v in integrals]}")


def test_criterion_07_metric_identities():
    pairs = [
        (cf.make_gaussian(1.0, 1), DELTA, 0.5),
        (cf.make_gaussian(2.0, 1), cf.make_gaussian(1.0, 1), 0.7),
        (cf.make_linnik(1.0, 1.0, 1), DELTA, 0.4),
    ]
    for phi, psi, alpha in pairs:
        rho = mt.integral_distance(phi, psi, alpha).value
        semi = mt.difference_seminorm(phi, psi, alpha, 1).value
        assert rho == pytest.approx(semi, rel=1e-12)
    for t, alpha in ((1.0, 0.5), (2.0, 0.7), (0.5, 0.3)):
        rho = mt.integral_distance(cf.make_gaussian(t, 1), DELTA, alpha).value
        expected = 2.0 * t ** (alpha / 2.0) * sf.gamma(1.0 - alpha / 2.0) / alpha
        assert rho == pytest.approx(expected, rel=1e-6), (t, alpha)
    for t in (0.1, 1.0, 10.0):
        assert mt.sup_distance(cf.make_gaussian(t, 1), DELTA).value >= 0.999
    report("criterion 7: metric identities")


def test_criterion_08_heat_suite():
    g = cf.make_gaussian(0.5, 1)
    for p in (1.0, 2.0):
        e1 = ht.evolve(ht.evolve(g, p, 0.4), p, 0.8)
        e2 = ht.evolve(g, p, 1.2)
        pts = np.linspace(-5.0, 5.0, 41)
        assert np.abs(e1.evaluate(pts) - e2.evaluate(pts)).max() < 1e-14

    for t in (0.25, 1.0, 4.0):
        res, _, _ = ht.moment_propagation_check(DELTA, 1.5, t, 0.7)
        expected = t ** (0.7 / 1.5) * cfo.stable_moment(1.5, 0.7, 1)
        assert res.value == pytest.approx(expected, rel=1e-6), t

    for t in (1.0, 4.0):
        measured = ht.derivative_sup_distance(DELTA, None, 2.0, t, 0)
        assert measured == pytest.approx((4.0 * math.pi * t) ** -0.5, abs=1e-9)
        assert measured == pytest.approx(ht.sup_decay_constant(0, 2.0, 1) * t**-0.5, abs=1e-9)

    rep = ht.decay_rate_check(cf.make_stable(0.55, 1.0, 1), DELTA, 2.0, 0.5, 0,
                              times=(4.0, 8.0, 16.0, 32.0, 64.0))
    for m, b in zip(rep.measured_sup, rep.bounds):
        assert m <= b * (1.0 + 1e-9)
    assert rep.fitted_rate == pytest.approx(-(0.5 + 1.0) / 2.0, abs=0.05)

    ts = np.array([0.02, 0.01, 0.005, 0.0025])
    rhos = [ht.small_time_check(DELTA, 2.0, float(t), 0.5)[0] for t in ts]
    slope = float(np.polyfit(np.log(ts), np.log(rhos), 1)[0])
    assert slope == pytest.approx(0.25, abs=0.02)
    report("criterion 8: heat suite",
           f"rate fit {rep.fitted_rate:.3f} vs -0.75, small-time slope {slope:.4f}")


def test_criterion_09_convolution():
    rng = np.random.default_rng(31)
    pairs = [
        (cf.make_gaussian(1.0, 1), cf.make_gaussian(2.0, 1)),
        (cf.make_empirical(rng.normal(size=6)), cf.make_point_mass([1.3])),
        (cf.make_linnik(1.5, 1.0, 1), cf.make_stable(1.0, 1.0, 1)),
    ]
    for phi, psi in pairs:
        prod = cf.make_product(phi, psi)
        for k in range(1, 6):
            xi = float(rng.uniform(0.2, 2.0))
            lhs = cv.leibniz_difference(phi, psi, xi, k)
            rhs = cf.iterated_difference(prod, xi, k)
            assert abs(lhs - rhs) < 1e-12, (phi.label, psi.label, k)

    xs, ys = rng.normal(size=20), rng.normal(size=20)
    got = cv.convolution_moment(cf.make_empirical(xs), cf.make_empirical(ys), 0.7)
    brute = float(np.mean([abs(a + b) ** 0.7 for a in xs for b in ys]))
    assert got.value == pytest.approx(brute, rel=1e-3)

    with pytest.raises(DivergenceSuspectedError):
        cv.convolution_moment(cf.make_stable(1.0, 1.0, 1), cf.make_gaussian(1.0, 1), 1.5)
    report("criterion 9: convolution")


def test_criterion_10_monte_carlo_cross_checks():
    start = time.monotonic()
    n = 1_000_000
    cases = [
        (cf.make_gaussian(1.0, 1), mc.sample_gaussian(1.0, 1, n, 101), (1.0, 2.5)),
        (cf.make_stable(1.0, 1.0, 1), mc.sample_isotropic_cauchy(1, n, 102), (0.2, 0.4)),
        (cf.make_stable(1.5, 1.0, 1), mc.sample_stable_1d(1.5, n, 103), (0.4, 0.7)),
        (cf.make_linnik(1.0, 1.0, 1), mc.sample_linnik_1d(1.0, 1.0, n, 104), (0.2, 0.4)),
    ]
    for phi, samples, orders in cases:
        for alpha in orders:
            engine = me.absolute_moment(phi, alpha).value
            est, se = mc.mc_moment(samples, alpha)
            assert abs(engine - est) <= 3.0 * se, (phi.label, alpha, engine, est, se)
    elapsed = time.monotonic() - start
    assert elapsed < 180.0
    report("criterion 10: Monte-Carlo cross-checks", f"{elapsed:.1f}s")


def test_criterion_11_density_tail_constant():
    for (p, d) in ((1.0, 1), (1.0, 2)):
        const = cfo.stable_tail_constant(p, d)
        val = 80.0 ** (d + p) * cfo.stable_density(p, 80.0, d)
        assert abs(val - const) / const < 0.10, (p, d)
    report("criterion 11: density tail constant")
