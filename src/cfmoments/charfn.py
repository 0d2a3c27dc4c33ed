"""Characteristic functions: representation, constructors and difference algebra.

A :class:`CharFn` bundles a vectorized evaluator with the structural facts
the integrators exploit: radial symmetry, an accurate ``phi - 1``
evaluator (the difference integrands live entirely on that scale, and
computing ``phi(xi) - 1`` by subtraction loses everything near the
origin), a decreasing modulus envelope for decaying transforms, the exact
atom list for finitely supported measures, and optional analytic
derivative / moment oracles.  It also records whether the transform is
real (``is_real``), which no integrator reads.  Products and scalings of
radial and atomic laws keep the normal form ``(1 + g)(1 + A)``
(:func:`normal_form`), so the moment engine can average them over spheres
exactly.  Constructor outputs also carry the power series of their sphere
mean minus one at the origin (:class:`OriginSeries`), built on first use,
from which the moment engine reads even-order moments.

Evaluators are pure and never mutate; instances are safe to share across
threads and to evaluate in parallel panels.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import closed_forms
from .errors import DomainError
from .measures import DiscreteMeasure, lacunary_measure
from .specfun import (
    MAX_DIFFERENCE_ORDER,
    binomial_difference_coefficients,
    plane_wave_mean_denominator,
)

__all__ = [
    "CharFn",
    "make_gaussian",
    "make_stable",
    "make_linnik",
    "make_point_mass",
    "make_empirical",
    "make_discrete",
    "make_schoenberg",
    "make_product",
    "make_mixture",
    "make_scaled",
    "normal_form",
    "iterated_difference",
    "real_part_difference",
    "lacunary_measure",
    "DiscreteMeasure",
    "OriginSeries",
]

# origin series keep the terms up to this exponent
_EXPONENT_CAP = 2.0 * MAX_DIFFERENCE_ORDER
# unit roundoff: one rounding moves a value by at most this share of it
_ULP = 2.0**-53
# exponents this close (relative) are one exponent
_EXPONENT_TOL = 1e-12


@dataclass(frozen=True)
class OriginSeries:
    """The sphere mean of ``phi - 1`` as a power series at the origin,
    ``mean_w phi(r w) - 1 = sum_i coeffs[i] r**exponents[i]``, kept up to
    exponent ``2 MAX_DIFFERENCE_ORDER``.

    ``exponents`` are sorted and distinct; ``errors[i]`` bounds the
    rounding of ``coeffs[i]``.  The series says nothing about how far from
    the origin it converges.
    """

    exponents: np.ndarray
    coeffs: np.ndarray
    errors: np.ndarray

    def coefficient(self, e: float) -> tuple[float, float]:
        """``(b, rounding bound)`` of the term at exponent e; zero where
        the series has none."""
        at = np.flatnonzero(np.abs(self.exponents - e) <= _EXPONENT_TOL * max(1.0, e))
        if at.size == 0:
            return 0.0, 0.0
        return float(self.coeffs[at[0]]), float(self.errors[at[0]])


def _series(exponents, coeffs, errors) -> OriginSeries:
    """An :class:`OriginSeries` from terms in any order: terms above the
    cap are dropped and terms at one exponent summed, each sum's rounding
    joining its bound."""
    e = np.asarray(exponents, dtype=float)
    keep = e <= _EXPONENT_CAP * (1.0 + _EXPONENT_TOL)
    order = np.argsort(e[keep], kind="stable")
    e = e[keep][order]
    b = np.asarray(coeffs, dtype=float)[keep][order]
    err = np.asarray(errors, dtype=float)[keep][order]
    if e.size == 0:
        return OriginSeries(e, b, err)
    first = np.concatenate([[True], np.diff(e) > _EXPONENT_TOL * np.maximum(1.0, e[1:])])
    group = np.cumsum(first) - 1
    n = int(first.sum())
    sums = np.zeros(n)
    np.add.at(sums, group, b)
    bound = np.zeros(n)
    np.add.at(bound, group, err)
    mags = np.zeros(n)
    np.add.at(mags, group, np.abs(b))
    bound += (np.bincount(group, minlength=n) - 1) * _ULP * mags
    return OriginSeries(e[first], sums, bound)


def _weighted_union(weights, parts) -> OriginSeries:
    """The series of ``sum_i w_i S_i`` from one or more parts' series;
    each scaled coefficient rounds once."""
    return _series(
        np.concatenate([s.exponents for s in parts]),
        np.concatenate([wi * s.coeffs for wi, s in zip(weights, parts)]),
        np.concatenate([wi * s.errors + _ULP * np.abs(wi * s.coeffs)
                        for wi, s in zip(weights, parts)]),
    )


def _multiples(p):
    """The indices j >= 1 of the exponents ``p j`` up to the cap."""
    return np.arange(1, int(_EXPONENT_CAP / p * (1.0 + _EXPONENT_TOL)) + 1)


def _exp_terms(t, p):
    """``exp(-t r**p) - 1 = sum_{j>=1} (-t)**j / j! r**(p j)`` up to the cap.

    Each coefficient is the last one times ``-t / j``, two roundings per
    step, so the j-th is within ``2 j`` roundings of its value.
    """
    j = _multiples(p)
    with np.errstate(over="ignore"):
        b = np.cumprod(-t / j)
    return p * j, b, 2.0 * j * _ULP * np.abs(b)


def _atomic_series(measure: DiscreteMeasure) -> OriginSeries:
    """``b_l = kappa_l m_2l`` at exponent 2l, for the atoms' even moments
    ``m_2l`` and the Taylor coefficients ``kappa_l = (-1)**l / D_l`` of the
    sphere mean of a plane wave.

    Each scaled moment sums n positive terms, each within 2l + 1 roundings;
    scaling back, the product and the quotient add three more, and a
    denominator above 2**53 one.
    """
    rho_max, M = measure.scaled_even_moments()
    l = np.arange(1, M.size + 1)
    den = np.array([float(plane_wave_mean_denominator(int(i), measure.dim)) for i in l])
    with np.errstate(over="ignore"):
        b = (-1.0) ** l * (rho_max ** (2 * l) * M) / den
    n = np.count_nonzero(measure.radii())
    return _series(2.0 * l, b, (n + 2 * l + 5) * _ULP * np.abs(b))


def _product_series(a: OriginSeries, b: OriginSeries) -> OriginSeries:
    """``(1 + A)(1 + B) - 1 = A + B + AB``: the Cauchy product of two
    series, with the rounding of each product in its bound."""
    prod = np.outer(a.coeffs, b.coeffs)
    perr = (np.outer(a.errors, np.abs(b.coeffs)) + np.outer(np.abs(a.coeffs), b.errors)
            + np.outer(a.errors, b.errors) + _ULP * np.abs(prod))
    exps = np.add.outer(a.exponents, b.exponents)
    return _series(np.concatenate([a.exponents, b.exponents, exps.ravel()]),
                   np.concatenate([a.coeffs, b.coeffs, prod.ravel()]),
                   np.concatenate([a.errors, b.errors, perr.ravel()]))


@dataclass(frozen=True)
class RadialAtomic:
    """The form ``phi(xi) = (1 + g(|xi|)) sum_j w_j exp(-i xi . x_j)``: a
    radial transform ``radial``, whose profile minus one is g, times the
    transform of the finitely supported measure ``atoms``.  The radial
    factor brings its envelope and limit along with g."""

    radial: "CharFn"
    atoms: DiscreteMeasure

    @property
    def radial_minus_one(self) -> Callable[[np.ndarray], np.ndarray]:
        """g, the radial factor's profile minus one."""
        return self.radial.radial_minus_one


@dataclass(frozen=True)
class CharFn:
    """An evaluable characteristic function on R^d with metadata.

    ``minus_one`` maps an (n, d) array of points to ``phi(xi) - 1`` with
    full accuracy near the origin.  ``envelope``, when present, is a
    decreasing bound on ``sup_{|xi|=r} |phi(xi) - tail_limit|``; transforms
    of finitely supported measures carry ``atoms`` instead.  A non-radial
    transform with a radial factor (the heat flow of a point mass or a
    sample, and products and scalings of it) carries ``radial_atomic``, its
    :class:`RadialAtomic` form, next to its ``minus_one``.

    ``origin_series``, when present, builds the :class:`OriginSeries` of
    the sphere mean of ``phi - 1`` on its first call and keeps it, so a
    transform costs nothing more to construct; :meth:`series` reads it.
    Every ``make_*`` output whose parts carry one carries one, except a
    product of two non-radial factors of which one has no normal form.
    """

    dim: int
    minus_one: Callable[[np.ndarray], np.ndarray]
    is_radial: bool
    is_real: bool
    label: str = "charfn"
    radial_minus_one: Optional[Callable[[np.ndarray], np.ndarray]] = None
    envelope: Optional[Callable[[np.ndarray], np.ndarray]] = None
    tail_limit: float = 0.0
    atoms: Optional[DiscreteMeasure] = None
    derivative: Optional[Callable[[tuple, np.ndarray], np.ndarray]] = None
    analytic_moment: Optional[Callable[[float], float]] = None
    osc_scale: float = 0.0
    radial_atomic: Optional[RadialAtomic] = None
    origin_series: Optional[Callable[[], OriginSeries]] = None

    def series(self) -> OriginSeries | None:
        """The origin series, built on the first read; None if there is none."""
        return None if self.origin_series is None else self.origin_series()

    def _points(self, xi) -> tuple[np.ndarray, bool]:
        pts = np.asarray(xi, dtype=float)
        scalar = pts.ndim == 0
        if scalar:
            if self.dim != 1:
                raise DomainError(f"scalar argument for a dimension-{self.dim} transform")
            pts = pts.reshape(1, 1)
        elif pts.ndim == 1:
            if self.dim == 1:
                pts = pts.reshape(-1, 1)
            elif pts.size == self.dim:
                pts = pts.reshape(1, self.dim)
                scalar = True
            else:
                raise DomainError("point dimension mismatch")
        elif pts.ndim == 2:
            if pts.shape[1] != self.dim:
                raise DomainError("point dimension mismatch")
        else:
            raise DomainError("points must be scalar, vector or (n, d) array")
        return pts, scalar

    def __call__(self, xi):
        return self.evaluate(xi)

    def evaluate(self, xi):
        """phi(xi); accepts a scalar (d=1), a point, or an (n, d) batch."""
        pts, scalar = self._points(xi)
        vals = 1.0 + np.asarray(self.minus_one(pts))
        return complex(vals[0]) if scalar else vals

    def profile_minus_one(self, r):
        """Radial profile minus one; defined only for radial transforms."""
        if not self.is_radial or self.radial_minus_one is None:
            raise DomainError(f"{self.label} is not radial")
        return self.radial_minus_one(np.asarray(r, dtype=float))

    def profile(self, r):
        return 1.0 + np.asarray(self.profile_minus_one(r))


def _radial_charfn(dim, profile_m1, label, *, envelope, analytic_moment, origin_series):
    def minus_one(pts):
        r = np.sqrt((pts**2).sum(axis=1))
        return profile_m1(r)

    return CharFn(
        dim=dim,
        minus_one=minus_one,
        is_radial=True,
        is_real=True,
        label=label,
        radial_minus_one=profile_m1,
        envelope=envelope,
        analytic_moment=analytic_moment,
        origin_series=origin_series,
    )


def make_gaussian(t: float, d: int = 1) -> CharFn:
    """Transform ``exp(-t |xi|**2)`` (the N(0, 2t I) law).

    The p = 2 case of :func:`make_stable`, whose profile, envelope, origin
    series and moment oracle it shares, with the Gaussian's derivative
    oracle added.
    """
    def deriv(sigma, pts):
        return _separable_derivative(pts, sigma, _gaussian_factor_derivs(t))

    return dataclasses.replace(make_stable(2.0, t, d), derivative=deriv,
                               label=f"gaussian(t={t:g}, d={d})")


def make_stable(p: float, t: float = 1.0, d: int = 1) -> CharFn:
    """Transform ``exp(-t |xi|**p)`` for 0 < p <= 2.

    Positive definite exactly in that exponent range; :func:`make_gaussian`
    is the p = 2 case.
    """
    if not 0.0 < p <= 2.0:
        raise DomainError(f"exponent p={p} outside (0, 2]")
    if t <= 0:
        raise DomainError("scale t must be positive")
    if d < 1:
        raise DomainError("dimension must be >= 1")

    def profile_m1(r):
        return np.expm1(-t * r**p)

    def analytic_moment(a):
        return closed_forms.stable_moment(p, a, d) * t ** (a / p)

    return _radial_charfn(
        d,
        profile_m1,
        f"stable(p={p:g}, t={t:g}, d={d})",
        envelope=lambda r: np.exp(-t * np.asarray(r, dtype=float) ** p),
        analytic_moment=analytic_moment,
        origin_series=functools.cache(lambda: _series(*_exp_terms(t, p))),
    )


def make_linnik(p: float, beta: float, d: int = 1) -> CharFn:
    """Transform ``(1 + |xi|**p)**-beta`` (gamma mixture of the stable family).

    The order-delta Mittag-Leffler law at time t is the special case
    ``p = delta, beta = t`` of the same formula, so no separate evaluator
    exists for it.
    """
    if not 0.0 < p <= 2.0:
        raise DomainError(f"exponent p={p} outside (0, 2]")
    if beta <= 0:
        raise DomainError("beta must be positive")
    if d < 1:
        raise DomainError("dimension must be >= 1")

    def profile_m1(r):
        return np.expm1(-beta * np.log1p(r**p))

    def series():
        # binom(-beta, j) = (-1)**j beta (beta + 1) ... (beta + j - 1) / j!,
        # each from the last by a sum, a quotient and a product
        j = _multiples(p)
        with np.errstate(over="ignore"):
            b = np.cumprod(-(beta + (j - 1.0)) / j)
        return _series(p * j, b, 3.0 * j * _ULP * np.abs(b))

    return _radial_charfn(
        d,
        profile_m1,
        f"linnik(p={p:g}, beta={beta:g}, d={d})",
        envelope=lambda r: (1.0 + np.asarray(r, dtype=float) ** p) ** (-beta),
        analytic_moment=lambda a: closed_forms.linnik_moment(p, beta, a, d),
        origin_series=functools.cache(series),
    )


def make_discrete(measure: DiscreteMeasure, *, label: str = "discrete") -> CharFn:
    """Transform of a finitely supported measure, atoms carried exactly;
    flagged real and radial only when every atom sits at the origin."""
    pts_T = measure.points.T  # (d, n)
    w = measure.weights

    def minus_one(pts):
        theta = pts @ pts_T  # (npts, natoms)
        re = -2.0 * np.sin(theta / 2.0) ** 2
        im = -np.sin(theta)
        return (re @ w) + 1j * (im @ w)

    def deriv(sigma, pts):
        sigma = _normalize_sigma(sigma, measure.dim)
        mono = np.prod((-1j * measure.points) ** np.asarray(sigma)[None, :], axis=1)
        phase = np.exp(-1j * (pts @ pts_T))
        return phase @ (w * mono)

    def analytic_moment(a):
        return measure.moment(a)

    origin = bool(np.all(measure.points == 0.0))
    return CharFn(
        dim=measure.dim,
        minus_one=minus_one,
        is_radial=origin,
        is_real=origin,
        label=label,
        radial_minus_one=(lambda r: np.zeros_like(np.asarray(r, dtype=float))) if origin else None,
        envelope=(lambda r: np.zeros_like(np.asarray(r, dtype=float))) if origin else None,
        tail_limit=1.0 if origin else 0.0,
        atoms=measure,
        derivative=deriv,
        analytic_moment=analytic_moment,
        osc_scale=float(measure.radii().max()),
        origin_series=functools.cache(lambda: _atomic_series(measure)),
    )


def make_point_mass(a) -> CharFn:
    """Transform ``exp(-i xi . a)`` of the unit mass at point a."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    return make_discrete(
        DiscreteMeasure(a.reshape(1, -1), np.array([1.0])),
        label=f"point_mass({np.array2string(a, precision=6)})",
    )


def make_empirical(samples) -> CharFn:
    """Empirical transform ``(1/n) sum exp(-i xi . X_j)`` of a sample set."""
    pts = np.asarray(samples, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise DomainError("need a non-empty (n, d) sample array")
    return make_discrete(
        DiscreteMeasure(pts), label=f"empirical(n={pts.shape[0]}, d={pts.shape[1]})"
    )


def make_schoenberg(mixing: DiscreteMeasure, p: float, d: int = 1) -> CharFn:
    """Discrete scale mixture ``sum w_i exp(-t_i |xi|**p)``.

    ``mixing`` must be supported on [0, inf).  The transform is the
    :func:`make_mixture` of the stable laws ``make_stable(p, t_i, d)``
    with the mixing weights; a mixing atom at zero contributes the unit
    point mass at the origin, the constant 1, which shows up as the
    transform's limit at infinity rather than in the decaying envelope.
    """
    if not 0.0 < p <= 2.0:
        raise DomainError(f"exponent p={p} outside (0, 2]")
    if mixing.dim != 1:
        raise DomainError("mixing measure must live on the half line")
    t = mixing.points[:, 0]
    if np.any(t < 0.0):
        raise DomainError("mixing atoms must be nonnegative")
    parts = [make_stable(p, ti, d) if ti > 0.0 else make_point_mass(np.zeros(d)) for ti in t]
    return dataclasses.replace(make_mixture(parts, mixing.weights),
                               label=f"schoenberg(p={p:g}, atoms={len(t)}, d={d})")


def normal_form(phi: CharFn) -> tuple[CharFn | None, DiscreteMeasure | None] | None:
    """The normal form ``(1 + g)(1 + A)`` as ``(radial factor or None, atoms or
    None)``: ``(None, A)`` for an atomic law, ``(g, None)`` for another radial
    law, None for a non-radial one without ``radial_atomic`` (a mixture of forms)."""
    if phi.atoms is not None:
        return None, phi.atoms
    if phi.radial_atomic is not None:
        return phi.radial_atomic.radial, phi.radial_atomic.atoms
    if phi.is_radial and phi.radial_minus_one is not None:
        return phi, None
    return None


def make_product(phi: CharFn, psi: CharFn) -> CharFn:
    """Pointwise product of transforms: the transform of the convolution.

    Factors with normal forms give the product its own by the convolution
    theorem, ``(1 + g)(1 + A) (1 + h)(1 + B) = (1 + g)(1 + h) (1 + A * B)``:
    an atomic law without a radial factor, else a non-radial product keeps
    ``radial_atomic``, with the radial and atomic series' Cauchy product.
    """
    if phi.dim != psi.dim:
        raise DomainError("dimension mismatch in product")
    radial = phi.is_radial and psi.is_radial
    radial_m1 = None
    if radial:
        radial_m1 = _product_minus_one(phi.radial_minus_one, psi.radial_minus_one)
    envelope, tail_limit = _product_envelope(phi, psi)
    atoms = form = series = analytic = None
    osc_scale = phi.osc_scale + psi.osc_scale
    forms = normal_form(phi), normal_form(psi)
    if None not in forms:
        (g, a), (h, b) = forms
        c = b if a is None else a if b is None else a.convolve(b)
        if g is None and h is None:
            atoms = c
        elif not radial:
            form = RadialAtomic(h if g is None else g if h is None else make_product(g, h), c)
            # the frequency of the law built from the form directly
            osc_scale = form.radial.osc_scale + float(c.radii().max())
    if atoms is not None:
        analytic = atoms.moment
        series = functools.cache(lambda: _atomic_series(atoms))
    elif form is not None and form.radial.origin_series is not None:
        series = functools.cache(
            lambda: _product_series(form.radial.series(), _atomic_series(form.atoms)))
    elif ((phi.is_radial or psi.is_radial) and phi.origin_series is not None
          and psi.origin_series is not None):
        series = functools.cache(lambda: _product_series(phi.series(), psi.series()))
    return CharFn(
        dim=phi.dim,
        minus_one=_product_minus_one(phi.minus_one, psi.minus_one),
        is_radial=radial,
        is_real=phi.is_real and psi.is_real,
        label=f"({phi.label})*({psi.label})",
        radial_minus_one=radial_m1,
        envelope=envelope,
        tail_limit=tail_limit,
        atoms=atoms,
        derivative=None,
        analytic_moment=analytic,
        osc_scale=osc_scale,
        radial_atomic=form,
        origin_series=series,
    )


def _product_minus_one(f, g):
    """``(1 + f)(1 + g) - 1`` from two minus-one evaluators, summed so
    that no 1 is added and cancelled."""
    def minus_one(x):
        a = np.asarray(f(x))
        b = np.asarray(g(x))
        return a * b + a + b
    return minus_one


def _product_envelope(phi, psi):
    """Envelope of |phi psi - L1 L2| from the factor envelopes.

    ``|phi psi - L1 L2| <= L1 env2 + L2 env1 + env1 env2``; a factor without
    an envelope still has modulus at most one, which keeps the product
    envelope valid whenever the other factor decays to zero.
    """
    e1, l1 = phi.envelope, phi.tail_limit
    e2, l2 = psi.envelope, psi.tail_limit
    if e1 is not None and e2 is not None:
        def env(r):
            a = np.asarray(e1(r), dtype=float)
            b = np.asarray(e2(r), dtype=float)
            return l1 * b + l2 * a + a * b

        return env, l1 * l2
    if e1 is not None and l1 == 0.0:
        return (lambda r: np.asarray(e1(r), dtype=float)), 0.0
    if e2 is not None and l2 == 0.0:
        return (lambda r: np.asarray(e2(r), dtype=float)), 0.0
    return None, 0.0


def _weighted_sum(w, fns):
    """``x -> sum_i w_i f_i(x)``, summed in the order of the parts."""
    def total(x):
        acc = w[0] * np.asarray(fns[0](x))
        for wi, f in zip(w[1:], fns[1:]):
            acc = acc + wi * np.asarray(f(x))
        return acc
    return total


def make_mixture(components, weights) -> CharFn:
    """Convex combination of transforms: the transform of the mixture law.

    ``phi - 1``, the radial profile minus one (when every component is
    radial) and the envelope (when every component has one) are the
    weighted sums of the components' own, and so are the limit at
    infinity, the moment oracle and the origin series.  An atomic law
    results when every component is atomic.  :func:`make_schoenberg` is
    this mixture of stable laws.
    """
    comps = list(components)
    w = np.asarray(weights, dtype=float)
    if len(comps) != w.size or len(comps) == 0:
        raise DomainError("components and weights must match and be non-empty")
    if np.any(w <= 0.0) or abs(math.fsum(w) - 1.0) > 1e-12:
        raise DomainError("mixture weights must be positive and sum to 1")
    d = comps[0].dim
    if any(c.dim != d for c in comps):
        raise DomainError("dimension mismatch in mixture")

    radial = all(c.is_radial for c in comps)
    radial_m1 = None
    if radial:
        radial_m1 = _weighted_sum(w, [c.radial_minus_one for c in comps])
    envelope = None
    tail_limit = 0.0
    if all(c.envelope is not None for c in comps):
        tail_limit = float(np.dot(w, [c.tail_limit for c in comps]))
        envelope = _weighted_sum(w, [c.envelope for c in comps])

    atoms = None
    if all(c.atoms is not None for c in comps):
        pts = np.vstack([c.atoms.points for c in comps])
        ws = np.concatenate([wi * c.atoms.weights for wi, c in zip(w, comps)])
        atoms = DiscreteMeasure(pts, ws)
    analytic = None
    if all(c.analytic_moment is not None for c in comps):
        def analytic(a):
            return float(np.dot(w, [c.analytic_moment(a) for c in comps]))

    series = None
    if all(c.origin_series is not None for c in comps):
        series = functools.cache(lambda: _weighted_union(w, [c.series() for c in comps]))

    return CharFn(
        dim=d,
        minus_one=_weighted_sum(w, [c.minus_one for c in comps]),
        is_radial=radial,
        is_real=all(c.is_real for c in comps),
        label="mixture(" + ", ".join(c.label for c in comps) + ")",
        radial_minus_one=radial_m1,
        envelope=envelope,
        tail_limit=tail_limit,
        atoms=atoms,
        analytic_moment=analytic,
        osc_scale=max(c.osc_scale for c in comps),
        origin_series=series,
    )


def make_scaled(phi: CharFn, c: float) -> CharFn:
    """Transform of the measure scaled by c: ``xi -> phi(c xi)``; a
    :class:`RadialAtomic` form scales both of its parts."""
    if c <= 0:
        raise DomainError("scale must be positive")

    def minus_one(pts):
        return phi.minus_one(pts * c)

    radial_m1 = None
    if phi.is_radial:
        def radial_m1(r):
            return phi.radial_minus_one(np.asarray(r, dtype=float) * c)

    envelope = None
    if phi.envelope is not None:
        def envelope(r):
            return phi.envelope(np.asarray(r, dtype=float) * c)

    analytic = None
    if phi.analytic_moment is not None:
        def analytic(a):
            return c**a * phi.analytic_moment(a)

    series = None
    if phi.origin_series is not None:
        def series():
            s = phi.series()
            with np.errstate(over="ignore"):
                scale = c**s.exponents
            b = s.coeffs * scale
            return OriginSeries(s.exponents, b, s.errors * scale + 3.0 * _ULP * np.abs(b))
        series = functools.cache(series)

    form = phi.radial_atomic
    return CharFn(
        dim=phi.dim,
        minus_one=minus_one,
        is_radial=phi.is_radial,
        is_real=phi.is_real,
        label=f"scaled({phi.label}, c={c:g})",
        radial_minus_one=radial_m1,
        envelope=envelope,
        tail_limit=phi.tail_limit,
        atoms=None if phi.atoms is None else phi.atoms.scaled(c),
        analytic_moment=analytic,
        osc_scale=c * phi.osc_scale,
        radial_atomic=None if form is None else RadialAtomic(make_scaled(form.radial, c),
                                                             form.atoms.scaled(c)),
        origin_series=series,
    )


def iterated_difference(phi: CharFn, xi, k: int, base=None):
    """k-fold forward difference of phi with increment xi, at ``base``.

    ``sum_m binom(k,m) (-1)**(k-m) phi(base + m xi)`` including the m = 0
    term; at the origin this is the transform of ``(exp(-i xi.v) - 1)**k``.
    Terms are combined with compensated summation.
    """
    coeffs = binomial_difference_coefficients(k)
    xi_pt = np.atleast_1d(np.asarray(xi, dtype=float)).reshape(-1)
    if xi_pt.size != phi.dim:
        raise DomainError("increment dimension mismatch")
    if base is None:
        base_pt = np.zeros(phi.dim)
    else:
        base_pt = np.atleast_1d(np.asarray(base, dtype=float)).reshape(-1)
    pts = base_pt[None, :] + np.arange(k + 1)[:, None] * xi_pt[None, :]
    vals = 1.0 + np.asarray(phi.minus_one(pts))
    re = math.fsum(coeffs * vals.real)
    im = math.fsum(coeffs * vals.imag)
    return complex(re, im)


def real_part_difference(phi: CharFn, xi, k: int) -> float:
    """k-fold difference of Re(phi) at the origin.

    Differencing commutes with the real part, so this is exactly the real
    part of :func:`iterated_difference`.
    """
    return iterated_difference(phi, xi, k).real


def _normalize_sigma(sigma, dim):
    if isinstance(sigma, (int, np.integer)):
        if dim != 1:
            raise DomainError("scalar derivative order needs dimension 1")
        sigma = (int(sigma),)
    sigma = tuple(int(s) for s in sigma)
    if len(sigma) != dim or any(s < 0 for s in sigma):
        raise DomainError("derivative multi-index must be nonnegative of length d")
    return sigma


def _gaussian_factor_derivs(t):
    """Per-coordinate derivative polynomials of exp(-t x**2)."""
    from numpy.polynomial import polynomial as P

    def factor(order, x):
        # p_{m+1} = p_m' - 2 t x p_m, starting from p_0 = 1
        coeffs = np.array([1.0])
        for _ in range(order):
            dcoeffs = P.polyder(coeffs) if coeffs.size > 1 else np.array([0.0])
            shifted = np.concatenate([[0.0], -2.0 * t * coeffs])
            n = max(dcoeffs.size, shifted.size)
            coeffs = np.zeros(n)
            coeffs[: dcoeffs.size] += dcoeffs
            coeffs[: shifted.size] += shifted
        return P.polyval(x, coeffs) * np.exp(-t * x**2)

    return factor


def _separable_derivative(pts, sigma, factor):
    """Derivative of a coordinate-separable transform via per-axis factors."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    sigma = _normalize_sigma(sigma, pts.shape[1])
    acc = np.ones(pts.shape[0], dtype=complex)
    for axis, order in enumerate(sigma):
        acc = acc * factor(order, pts[:, axis])
    return acc
