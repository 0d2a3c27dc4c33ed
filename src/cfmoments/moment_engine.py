"""Absolute moments from characteristic functions via iterated differences.

The moment of order alpha is a normalizing constant times the integral of
``Delta_xi^k phi(0) / |xi|^(d+alpha)`` over R^d.  Every difference integral
of the package (moments, seminorms, membership) is built by one builder,
:func:`difference_profile`, and the derivative seminorm's
:func:`derivative_profile` reuses its angular loop, geometry and node
readers.  The builder reduces the
integrand to a one-dimensional :class:`DifferenceProfile` ``D(r)`` by one
of two evaluators.  Signed differences of a finitely supported measure
reduce exactly over its atoms, whose sphere means are the kernels cos, J0
and sinc of ``m r |x_j|``; so do those of radial x atomic forms in
dimensions two and three (heat flows of atoms, and their products and
scalings), times a radial factor ``1 + g(m r)``.  Where every kernel
argument is at most 1/2, the atom sum is read from an eight-term Taylor
series in the atoms' even moments instead.  Everything else is one loop over
the difference terms, the angular mean of ``(phi - psi)(m r u)`` over a
rule of nodes u, fed by factor readers that each charge their own cost:
the radial profile of a radially symmetric transform on one node, a
sphere product rule in dimensions two and three, and in dimension one a
single ray, since the transform of a real measure takes conjugate values
at the nodes +1 and -1.  A pair of transforms that share their atoms,
each a radial x atomic product ``(1 + g) (1 + A)`` or the atomic law
itself (g = 0), such as a heat flow and its datum, is one factor
``(g_phi - g_psi) (1 + A)``: the atoms are read once, and the radial
difference at each radius.  Every reader returns its values and, when
asked, the magnitudes of its terms.  Along the ray, the atomic laws of a
profile (``phi`` alone, or ``phi`` and ``psi`` when both are atomic) are
one plane-wave sum over their atoms, the weights of ``psi`` negated; a sum
of more atoms than one Clenshaw read costs (``ChebyshevBlocks.READ_COST``,
six kernel evaluations) is read from lazily built Chebyshev blocks
(:class:`~cfmoments.quadrature.ChebyshevBlocks`), summed by Clenshaw's
recurrence, that the profile keeps for its lifetime, each built from the
sum's atoms at one complex exponential per atom, and any other directly.

The integral of ``r**(-1-alpha) D(r)`` is then taken in three regions: an
analytic power-law head below the origin cut (the difference vanishes like
``r**p_hat`` there and the fitted model integrates exactly, with geometric
descent until the model's share is negligible), adaptive Gauss-Kronrod
panels in the middle, and a tail beyond them.  The profile carries one of
five tail strategies, each of which integrates the limit of D in closed
form and treats the remainder its own way: a decay-envelope bound,
integration-by-parts asymptotics of the atoms' kernels (one bridge grid
shared by every atom, read at each atom's lower limit), the |D| window
mean for atom pairs, a stabilized window around a known or estimated
limit, or the exact Fourier series of |sin| for a pair of single atoms.
Each strategy states the radius from which it may take over, and the mid
panels end there, or at 64 times the origin cut if that is farther: the
exact atomic tail of a signed atomic pass at ``r_split``, every other tail
at ``8 r_split``, from where a bounded tail may push them farther out.
Each pass reports its cost with its diagnostics: the radii at which D was
evaluated (``points``) and the kernel evaluations behind them
(``kernel_evals``: one per atom of the factor's normal form, or one for
a formula, and point evaluated directly, one per atom of a plane-wave sum
and built Chebyshev block, ``READ_COST`` per value read from built
blocks, one per radius for the radial factor of a shared-atom pair, and
one per atomic kernel sum read from its series, whose moments cost one per
atom when the profile is built).

Even-integer orders take no difference integral: :func:`even_order_moment`
reads the moment from one coefficient of the transform's origin series.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy.special import j0 as _bessel_j0

from .charfn import CharFn, make_discrete, normal_form
from .errors import DivergenceSuspectedError, DomainError, QuadratureError
from .quadrature import (
    _TAIL_ROUNDING,
    ChebyshevBlocks,
    QuadratureSpec,
    adaptive_panel_integral,
    bridged_tail,
    geometric_breakpoints,
    origin_power_model,
    oscillatory_breakpoints,
    sphere_rule,
    trig_tail_integral,
)
from .specfun import (
    MAX_DIFFERENCE_ORDER,
    binomial_difference_coefficients,
    moment_constant,
    plane_wave_mean_denominator,
    power_difference_condition,
    power_difference_sum,
    sphere_area,
)

__all__ = [
    "MomentResult",
    "select_difference_order",
    "absolute_moment",
    "even_order_moment",
    "radial_difference_integral",
    "fulldim_difference_integral",
    "DifferenceProfile",
    "difference_profile",
    "derivative_profile",
]

_INT_TOL = 1e-9
_GUARD_BAND = 1e-6
_SLOPE_MARGIN = 1e-3
# radius x node x atom products per read of a sphere-rule mean (32 MiB a float array)
_NODE_BATCH = 2**22


@dataclass
class MomentResult:
    """Computed absolute moment with provenance.

    ``formula`` records which evaluation route produced the value:
    the complex difference formula (M12), the real-part formula (M13), an
    even order read from the origin series (even-series), an exact atom
    sum, or an analytic oracle.
    """

    value: float
    error_estimate: float
    formula: str
    k_used: int | None
    diagnostics: dict = field(default_factory=dict)


def _is_near_integer(alpha, tol=_INT_TOL):
    return abs(alpha - round(alpha)) <= tol


def select_difference_order(alpha: float, prefer_real: bool = True):
    """Choose the difference order k and formula for a moment of order alpha.

    Non-integer orders take the smallest odd k with ``alpha < k + 1`` under
    the real-part formula, which also covers odd-integer orders through
    ``alpha = k``.  Even-integer orders route to :func:`even_order_moment`
    (``'even-series'``).  With ``prefer_real=False`` a non-integer order may
    instead use the complex formula at ``k = floor(alpha) + 1``.
    """
    if alpha <= 0:
        raise DomainError("order alpha must be positive")
    if _is_near_integer(alpha):
        n = round(alpha)
        if n % 2 == 0:
            return None, "even-series"
        return n, "M13"
    if not prefer_real:
        return math.floor(alpha) + 1, "M12"
    k = 1
    while alpha >= k + 1:
        k += 2
    return k, "M13"


# the atomic reduction reads a kernel sum from its first terms wherever
# every argument is at most the cut
_SERIES_CUT = 0.5
_SERIES_TERMS = 8


@functools.cache
def _kernel_denominators(d):
    """The D_l of the kernel minus one in dimension d, the series ``sum_l
    (-y**2)**l / D_l``, for l = 1..10: each D_l
    (:func:`~cfmoments.specfun.plane_wave_mean_denominator`) is an integer
    held exactly in a float."""
    return np.array([plane_wave_mean_denominator(l, d) for l in range(1, 11)], dtype=float)


def _horner(coeffs, x):
    """``sum_l coeffs[l] x**l`` for l >= 0, in Horner form."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = c + x * acc
    return acc


def _kernel_minus_one(kernel, y):
    """Angular-mean kernel minus one, cancellation-free for small y.

    The kernels are the sphere means of a plane wave: cos in d = 1, the
    order-zero Bessel function in d = 2, the sine cardinal in d = 3.  The
    small-y series and the closed form each run only where they are used.
    Every value is at most zero, as the kernels are at most one.
    """
    if kernel == "cos":
        return -2.0 * np.sin(y / 2.0) ** 2
    if kernel not in ("j0", "sinc"):
        raise DomainError(f"unknown kernel {kernel}")
    out = np.empty_like(y)
    small = y < 1.0
    large = y[~small]
    # ten terms, through y**20 (the first omitted one is below 1e-21
    # relative at y = 1), in Horner form after the leading term; that term
    # is one division, not a product with a rounded 1/6, which keeps the
    # sum within 2 ulp; the rest is summed in powers of -y**2.  Above y = 1
    # the closed forms lose under three bits to the subtraction of one.
    if small.any():
        y2 = y[small] ** 2
        den = _kernel_denominators(2 if kernel == "j0" else 3)
        out[small] = -y2 / den[0] + y2 * y2 * _horner(1.0 / den[1:], -y2)
    if kernel == "j0":
        out[~small] = _bessel_j0(np.minimum(large, 1e300)) - 1.0
    else:
        out[~small] = np.sin(large) / large - 1.0
    return out


# Hankel's expansion of J0 (DLMF 10.17.1; Watson, Bessel Functions, 7.21):
# J0(u) = Re[sqrt(2/(pi u)) exp(i (u - pi/4)) sum_k i**k a_k u**-k], with
# a_k = (-1)**k 1**2 3**2 ... (2k - 1)**2 / (k! 8**k); the tail takes the
# first _HANKEL_TERMS terms, and a_K of the first omitted one bounds the rest
_HANKEL_TERMS = 8
_HANKEL_A = np.array([(-1) ** k * math.prod((2 * i - 1) ** 2 for i in range(1, k + 1))
                      / (math.factorial(k) * 8**k) for k in range(_HANKEL_TERMS + 1)])
# the integration-by-parts series keep at most this many terms, as in
# specfun.trig_power_tail
_TAIL_SERIES_TERMS = 200


def _j0_tail_asymptotic(y, alpha):
    """``int_y^inf u**(-1-alpha) J0(u) du`` for ``y >= max(32, 4 (1 +
    alpha))``, from Hankel's expansion.

    Term k of the expansion is ``A_k u**(-1-nu_k) exp(iu)`` with
    ``nu_k = alpha + 1/2 + k``, whose tail integration by parts unrolls
    into ``exp(iy) sum_j c_j(nu_k) y**(-nu_k-j)`` with ``c_0 = i`` and
    ``c_(j+1) = -i (nu_k + j) c_j`` (as in
    :func:`~cfmoments.specfun.trig_power_tail`).  Collecting the powers of
    y gives one series, ``sum_n C_n y**(-nu_0-n)``, summed per limit
    while the sum ``D_n y**(-nu_0-n)`` of its parts' magnitudes decreases,
    and cut at the smallest one or below 1e-16 of the sum; that last
    magnitude bounds every part's remainder together; far coefficients may
    overflow, and a term that is not finite stops the sum.  For real u the
    expansion's own remainder after K terms is below ``sqrt(2/(pi u))
    (|a_K| u**-K + |a_(K+1)| u**-(K+1))``, which is below ``|a_K| u**-K``
    once u >= 32, and integrates to ``|a_K| y**(-alpha-K-1/2) / (alpha + K
    + 1/2)``.  The rounding of the sum and of its phase adds the tails'
    eight ulp of ``sum_n D_n y**(-nu_0-n)``, which the value itself can
    fall far below near a zero of its phase.
    """
    y = np.asarray(y, dtype=float)
    flat = y.ravel()
    K, N = _HANKEL_TERMS, _TAIL_SERIES_TERMS
    nu0 = 1.5 + alpha
    amp = (math.sqrt(2.0 / math.pi) * _HANKEL_A[:K] * 1j ** np.arange(K)
           * complex(math.sqrt(0.5), -math.sqrt(0.5)))
    acc = np.zeros(flat.size, dtype=complex)
    bound = np.zeros(flat.size)
    total = np.zeros(flat.size)
    prev = np.full(flat.size, math.inf)
    live = np.arange(flat.size)
    with np.errstate(over="ignore", invalid="ignore"):
        # c_j(nu_k) = i (-i)**j (nu_k)_j, row k; the powers n = k + j collected
        rising = np.cumprod(np.concatenate(
            [np.ones((K, 1)), nu0 + np.arange(K)[:, None] + np.arange(N - 1)[None, :]],
            axis=1), axis=1)
        phase = 1j * (-1j) ** np.arange(N)
        C = np.zeros(N, dtype=complex)
        D = np.zeros(N)
        for k in range(K):
            C[k:] += amp[k] * phase[:N - k] * rising[k, :N - k]
            D[k:] += abs(amp[k]) * rising[k, :N - k]
        for n in range(N):
            if live.size == 0:
                break
            power = flat[live] ** (-nu0 - n)
            mag = D[n] * power
            falling = mag < prev[live]
            live, power, mag = live[falling], power[falling], mag[falling]
            acc[live] += C[n] * power
            bound[live] = mag
            total[live] += mag
            prev[live] = mag
            live = live[mag >= 1e-16 * np.maximum(np.abs(acc[live]), 1e-300)]
    nu = alpha + 0.5 + K
    val = np.real(np.exp(1j * flat) * acc).reshape(y.shape)
    err = (bound + abs(_HANKEL_A[K]) * flat ** (-nu) / nu
           + _TAIL_ROUNDING * total).reshape(y.shape)
    return val, err


def _kernel_tail(kernel, y, alpha):
    """``int_y^inf u**(-1-alpha) K(u) du`` with an error bound, for every
    lower limit in ``y`` at once."""
    if kernel == "cos":
        return trig_tail_integral(y, alpha, "cos")
    if kernel == "sinc":
        # sin(u)/u lowers the power by one
        return trig_tail_integral(y, alpha + 1.0, "sin")
    if kernel == "j0":
        return bridged_tail(
            lambda u: u ** (-1.0 - alpha) * _bessel_j0(u),
            lambda x: _j0_tail_asymptotic(x, alpha),
            y, max(32.0, 4.0 * (1.0 + alpha)),
            per_octave=4, rel_tol=1e-12, abs_tol=1e-15, max_panels=1024,
        )
    raise DomainError(f"unknown kernel {kernel}")


# Tail strategies.  Beyond the radius R where the mid panels stop,
# ``int_R^inf r**(-1-alpha) D(r) dr`` splits into the limit of D, which
# integrates in closed form, and a remainder.  ``start`` is the least R at
# which the strategy may take over: 8 r_split, except for the exact atomic
# tail, which holds from any radius and starts at r_split.  ``bound`` is the
# remainder's size at R, which drives the extension of the mid panels;
# ``close`` returns (constant part, remainder, remainder error).  A strategy
# whose remainder is evaluated rather than bounded reports a zero bound, so
# R never moves.


@dataclass(frozen=True)
class EnvelopeTail:
    """Remainder bounded through the transforms' decay envelopes."""

    limit: float
    coeffs: np.ndarray
    envelopes: tuple

    def start(self, spec):
        return 8.0 * spec.r_split

    def bound(self, profile, alpha, R):
        total = 0.0
        for m in range(1, self.coeffs.size):
            r = np.array([m * R])
            env = sum(float(np.asarray(e(r)).ravel()[0]) for e in self.envelopes)
            total += abs(self.coeffs[m]) * env * (m * R) ** (-alpha) / alpha
        return total

    def close(self, profile, alpha, R):
        return self.limit * R ** (-alpha) / alpha, 0.0, self.bound(profile, alpha, R)


@dataclass(frozen=True)
class AtomicTail:
    """Integration-by-parts asymptotics of the oscillating kernels of a
    finitely supported measure, bridged for all atoms on one shared grid."""

    limit: float
    coeffs: np.ndarray
    radii: np.ndarray
    weights: np.ndarray
    kernel: str

    def start(self, spec):
        # the per-atom tails are exact from any radius; their cancellation
        # against the constant part grows only like R**-alpha as R falls
        return spec.r_split

    def bound(self, profile, alpha, R):
        return 0.0

    def close(self, profile, alpha, R):
        ms = np.arange(1, self.coeffs.size)[:, None]
        t, te = _kernel_tail(self.kernel, ms * R * self.radii, alpha)
        scale = (ms * self.radii) ** alpha * self.weights
        val = self.coeffs[1:] @ (scale * t).sum(axis=1)
        err = np.abs(self.coeffs[1:]) @ (scale * te).sum(axis=1)
        return self.limit * R ** (-alpha) / alpha, float(val), float(err)


@dataclass(frozen=True)
class StabilizedTail:
    """Remainder bounded by the spread of D around its limit over a far
    window; a ``limit`` of None is estimated as the mean of a farther one."""

    limit: float | None

    def start(self, spec):
        return 8.0 * spec.r_split

    def _limit(self, profile, R):
        if self.limit is not None:
            return self.limit
        vals = np.asarray(profile.D(R * np.linspace(0.85, 1.0, 24)))
        return float(np.real(vals).mean())

    def bound(self, profile, alpha, R):
        vals = np.asarray(profile.D(R * np.linspace(0.55, 1.0, 16)))
        resid = np.abs(vals - self._limit(profile, R))
        return float(resid.max()) * R ** (-alpha) / alpha

    def close(self, profile, alpha, R):
        const = self._limit(profile, R) * R ** (-alpha) / alpha
        return const, 0.0, self.bound(profile, alpha, R)


@dataclass(frozen=True)
class WindowMeanTail(StabilizedTail):
    """Window mean of the almost-periodic |difference| of atom pairs times
    the power tail; the window spread feeds the error bar."""

    def close(self, profile, alpha, R):
        resid = np.abs(np.asarray(profile.D(R * np.linspace(0.5, 1.0, 128)))) - self.limit
        mean = float(resid.mean())
        spread = float(resid.std()) / math.sqrt(2.0) + 0.05 * abs(mean)
        scale = R ** (-alpha) / alpha
        const = self.limit * R ** (-alpha) / alpha
        return const, mean * scale, (spread + 0.1 * np.abs(resid).max()) * scale


@dataclass(frozen=True)
class SinSeriesTail:
    """``D = amp * 2|sin(c r / 2)|``, integrated through the Fourier series
    of |sin|; the limit is part of the series."""

    c: float
    amp: float = 1.0

    def start(self, spec):
        # the truncation of the 64-term series grows like (c R)**-1 R**-alpha
        return 8.0 * spec.r_split

    def bound(self, profile, alpha, R):
        return 0.0

    def close(self, profile, alpha, R):
        c = self.c
        n = np.arange(1, 65)
        t, te = trig_tail_integral(n * c * R, alpha)
        w = (8.0 / math.pi) * (n * c) ** alpha / (4.0 * n**2 - 1.0)
        val = (4.0 / math.pi) * R ** (-alpha) / alpha - w @ t
        err = w @ te + (16.0 / math.pi) / max(c * R, 1e-300) * R ** (-alpha) / (8.0 * n.size**2)
        return 0.0, self.amp * val, self.amp * err


@dataclass
class _EvalCounts:
    """Evaluator cost of a profile: radii at which D was evaluated, and
    kernel evaluations.  Each factor reader charges its own: one per point
    of a radial profile, one per atom of the factor's normal form (one for
    a formula) and point or sphere node evaluated directly, one per atom
    of a d = 1 plane-wave sum, one law's or a pair's, for each Chebyshev
    block of its table (one complex exponential per atom builds a block),
    and ``ChebyshevBlocks.READ_COST`` per value read from built blocks.  The
    atomic reduction charges one per atom for the even moments of its
    series, once, when it is built; then, per m and radius, one for a
    kernel sum read from the series or one per atom off the origin for a
    sum taken directly, and one more for a radial factor."""

    points: int = 0
    kernel_evals: int = 0


@dataclass(frozen=True)
class DifferenceProfile:
    """The one-dimensional integrand of a difference integral, with its tail.

    ``D(r)`` is the angular mean of the k-fold difference at radius r, or of
    its absolute value when ``magnitude`` is set (then D is nonnegative).
    The difference integral is ``angular`` times the integral of
    ``r**(-1-alpha) D(r)`` over (0, inf).  ``evaluate(r, with_magnitude)``
    returns D and, when asked, the sum of the term magnitudes, which bounds
    the cancellation scale of D (None when the evaluator has no terms to
    sum); ``freq`` is the oscillation frequency of D that panels must
    resolve, and ``tail`` one of the tail strategies above.  ``counts``
    accumulates the evaluator's cost over the profile's lifetime.
    """

    evaluate: Callable
    angular: float
    freq: float
    magnitude: bool
    tail: object
    counts: _EvalCounts = field(default_factory=_EvalCounts, compare=False, kw_only=True)

    def _evaluate(self, r, with_magnitude):
        self.counts.points += r.size
        return self.evaluate(r, with_magnitude)

    def D(self, r):
        return self._evaluate(np.asarray(r, dtype=float), False)[0]

    def integrand(self, alpha):
        """``r**(-1-alpha) D(r)``, the integrand of every region."""
        def f(r):
            return r ** (-1.0 - alpha) * self.D(r)
        return f

    def origin_cut(self, spec: QuadratureSpec) -> float:
        """Matching point of the origin model, inside the first oscillation."""
        if self.freq > 0.0:
            return min(spec.origin_cut, 0.25 / self.freq)
        return spec.origin_cut

    def noise_limited(self, r) -> bool:
        """Whether rounding in the terms rivals D at r."""
        d_here, terms = self._evaluate(np.array([r]), True)
        if terms is None:
            return False
        d_here = abs(d_here[0])
        return d_here <= 0.0 or 2e-16 * terms[0] > 1e-4 * d_here

    def integrate(self, alpha: float, spec: QuadratureSpec, *, slope_margin=_SLOPE_MARGIN):
        """``(value, error, diagnostics)`` without the angular factor."""
        return _difference_integral(self, alpha, spec, slope_margin=slope_margin)


def _reduce_part(acc, part, magnitude):
    vals = np.real(acc) if part == "real" else acc
    return np.abs(vals) if magnitude else vals


def _mean_terms(coeffs, read, rule, part, magnitude, atoms=1):
    """Evaluator of the angular mean of ``sum_m c_m F(m r)``.

    ``read`` is the factor reader of F, the profile's difference minus
    one (``phi - psi``, or ``phi - 1`` alone): ``read(s, with_magnitude)``
    returns F at the radii s times every node of ``rule`` and, when asked,
    the magnitudes of its terms, ``|phi - 1| + |psi - 1|`` for a
    difference read apart (:func:`_minus`), else None, and charges its own
    kernel evaluations.  ``rule`` is None for one node, which serves the
    radial profile and the d = 1 ray, or the sphere rule's ``(weights,
    area)``.  Signed terms are combined per m, and on one node the signed
    mean is the real part: the d = 1 nodes +1 and -1 carry conjugate
    values, since ``phi(-s) = conj phi(s)`` for a real measure.  With
    ``magnitude`` the absolute value is taken per node, before the mean.
    On the sphere rule, chunks of the radii bound the readers' arrays to
    ``_NODE_BATCH`` radius x node x ``atoms`` products, ``atoms`` per point.
    """
    node_w, area = (None, None) if rule is None else rule

    def terms_at(r, with_magnitude):
        acc = terms = 0.0
        for m in range(1, coeffs.size):
            vals, amp = read(m * r, with_magnitude)
            if not magnitude:
                vals = vals.real if rule is None else vals @ node_w
            acc = acc + coeffs[m] * vals
            if with_magnitude:
                terms = terms + abs(coeffs[m]) * (amp if rule is None else amp @ node_w)
        if rule is None:
            return _reduce_part(acc, part, magnitude), terms if with_magnitude else None
        if magnitude:
            D = _reduce_part(acc, part, True) @ node_w / area
        else:
            D = _reduce_part(acc / area, part, False)
        return D, terms / area if with_magnitude else None

    if rule is None:
        return terms_at
    rows = max(1, _NODE_BATCH // (node_w.size * atoms))

    def evaluate(r, with_magnitude):
        chunks = np.split(r, np.arange(rows, r.size, rows))
        D, terms = zip(*(terms_at(c, with_magnitude) for c in chunks))
        return np.concatenate(D), np.concatenate(terms) if with_magnitude else None

    return evaluate


def _read(vals, with_magnitude):
    """A reader's return: the values and, when asked, their magnitudes."""
    return vals, np.abs(vals) if with_magnitude else None


def _minus(f, h):
    """Reader of ``f - h`` for two readers: the terms' magnitudes add."""
    def read(s, with_magnitude):
        a, a_mag = f(s, with_magnitude)
        b, b_mag = h(s, with_magnitude)
        return a - b, a_mag + b_mag if with_magnitude else None
    return read


def _radial_reader(g, counts):
    """Radial profile minus one at the radii s, one kernel evaluation each."""
    def read(s, with_magnitude):
        counts.kernel_evals += s.size
        return _read(np.asarray(g(s)), with_magnitude)
    return read


def _angular_rule(d: int, spec: QuadratureSpec):
    """Nodes and rule of the angular mean of a non-radial factor: the d = 1
    ray (both None), or the sphere product rule's nodes and ``(weights,
    area)`` in dimensions two and three."""
    if d == 1:
        return None, None
    if d > 3:
        raise DomainError(f"non-radial transforms are limited to dimension 3 (got d={d})")
    nodes, node_w = sphere_rule(d, spec.sphere_order)
    return nodes, (node_w, sphere_area(d))


def _evaluated_atoms(phi: CharFn) -> int:
    """Kernel evaluations per point of ``phi``: the atoms of its normal
    form, one per atom, or one for a formula.

    A product of atomic laws counts its n m convolved atoms although it
    evaluates its two factors (n + m), and a radial x atomic form counts
    its n atoms and not its radial factor; in a shared-atom pair those
    atoms are read once and the radial difference is charged apart
    (:func:`_shared_reader`).  The same count is the cost per point of a
    direct read, which :func:`_plane_wave_reader` weighs against a read
    from Chebyshev blocks.
    """
    form = normal_form(phi)
    return 1 if form is None or form[1] is None else form[1].size


def _node_reader(fn, cost, nodes, counts):
    """``fn`` at every radius in s times every node, one row per radius, or
    at the radii themselves on the d = 1 ray (``nodes`` None), charged
    ``cost`` per point."""
    def read(s, with_magnitude):
        if nodes is None:
            counts.kernel_evals += s.size * cost
            return _read(np.asarray(fn(s[:, None])), with_magnitude)
        pts = (s[:, None, None] * nodes[None, :, :]).reshape(-1, nodes.shape[1])
        counts.kernel_evals += pts.shape[0] * cost
        return _read(np.asarray(fn(pts)).reshape(s.size, -1), with_magnitude)
    return read


def _plane_wave_reader(phi: CharFn, psi: CharFn | None, counts):
    """Reader of ``phi - psi`` (``phi - 1`` for psi None) along the
    positive axis of d = 1, for s >= 0, where both are atomic laws.

    The two laws are one plane-wave sum ``sum_j w_j (exp(-i x_j s) - 1)``
    over their atoms, the weights of ``psi`` negated, entire of exponential
    type tau = max |x_j|; an atom at the origin adds ``exp(0) - 1 = 0`` and
    stays out of the sum.  A sum of more atoms than
    ``ChebyshevBlocks.READ_COST``, the charge of one read from blocks, is
    read from Chebyshev blocks built from its atoms as queries land and
    kept for the reader's lifetime; the blocks' builds need no share in
    the choice (see :class:`~cfmoments.quadrature.ChebyshevBlocks`).  Each
    block costs one complex exponential per atom of the sum, and each value
    read from the blocks ``READ_COST``.  Any other sum, and every radius
    below the first block, where the origin descent and its noise probe
    live, is read from the laws directly, at ``_evaluated_atoms`` per law
    and point, and so are the term magnitudes ``|phi - 1| + |psi - 1|``.
    """
    laws = (phi,) if psi is None else (phi, psi)
    direct = [_node_reader(f.minus_one, _evaluated_atoms(f), None, counts) for f in laws]
    direct = direct[0] if psi is None else _minus(*direct)
    freqs = np.concatenate([-f.atoms.points[:, 0] for f in laws])
    amps = np.concatenate([sign * f.atoms.weights for f, sign in zip(laws, (1.0, -1.0))])
    off = freqs != 0.0
    n = int(np.count_nonzero(off))
    if n <= ChebyshevBlocks.READ_COST:
        return direct
    table = ChebyshevBlocks(lambda s: direct(s, False)[0], freqs[off], amps[off])

    def read(s, with_magnitude):
        if with_magnitude:
            return direct(s, True)
        before = (table.blocks_built, table.values_read)
        vals = table(s)
        counts.kernel_evals += ((table.blocks_built - before[0]) * n
                                + (table.values_read - before[1]) * table.READ_COST)
        return vals, None
    return read


def _atomic_terms(atoms, coeffs, counts, g=None):
    """Evaluator, frequency and tail over the atom radii: the sphere mean
    of each plane wave is the kernel K(m r rho), so no angular rule is
    needed.

    A radial factor ``g`` (profile minus one) makes the transform
    ``(1 + g(|xi|)) sum_j w_j exp(-i xi . x_j)``, whose sphere mean is
    exact too, ``(1 + g(m r)) sum_j w_j K(m r rho_j)``; it is summed as
    ``g (K - 1) + g + (K - 1)`` per atom, which vanishes at r = 0 term by
    term, and ``g=None`` is the case g = 0.

    The kernel sum ``s(y) = sum_j w_j (K(y rho_j) - 1)`` is entire in y.
    Where every argument is small, ``z = y rho_max <= 1/2``, it is read
    from its Taylor series ``sum_l kappa_l M_l z**(2l)`` over l = 1..8,
    with the kernel's coefficients kappa_l and the atoms' scaled even
    moments ``M_l = sum_j w_j (rho_j / rho_max)**(2l)``: positive terms
    that no atom radius can overflow, taken once per measure
    (:meth:`DiscreteMeasure.scaled_even_moments`, shared with the
    transform's origin series).  There the
    terms alternate with ratio at most z**2 / 12, and the first omitted
    one is below 5e-21 of the leading one; a call leaves out the terms
    below 2**-60 of the leading one at its largest z, most of them deep in
    the origin head.  Larger arguments sum the
    kernels atom by atom.  The weights are positive and ``K - 1 <= 0``,
    so ``-s`` is the sum of the terms' magnitudes.  The moments cost one
    kernel evaluation per atom, charged to every evaluator built on them; each
    point then costs one per m read from the series, one per atom off the
    origin and m summed directly, and one per m for ``g``.
    The returned frequency and tail are the atomic law's alone; a caller
    with a radial factor uses the product's own.
    """
    kernel = {1: "cos", 2: "j0", 3: "sinc"}.get(atoms.dim)
    if kernel is None:
        raise DomainError("atomic reduction supports d <= 3 only")
    rho = atoms.radii()
    pos = rho > 0.0
    w_origin = float(atoms.weights[~pos].sum())
    radii = rho[pos]
    weights = atoms.weights[pos]
    w_total = float(atoms.weights.sum())
    k = coeffs.size - 1
    ms = np.arange(1, k + 1)
    rho_max, moments = atoms.scaled_even_moments()
    counts.kernel_evals += radii.size
    den = _kernel_denominators(atoms.dim)[:_SERIES_TERMS]
    # the series in powers of -z**2
    series = moments[:_SERIES_TERMS] / den
    # as M_l <= M_1, the term of z**(2l + 2) is below 2**-60 of the leading
    # one wherever z**2 is below the l-th of these
    needed = (2.0**-60 * den[1:] / den[0]) ** (1.0 / np.arange(1, _SERIES_TERMS))

    def evaluate(r, with_magnitude):
        mr = r[:, None] * ms[None, :]
        z = mr * rho_max
        near = z <= _SERIES_CUT
        n_near = np.count_nonzero(near)
        # an empty branch is skipped: on a few radii its numpy calls
        # would cost more than the kernels themselves
        s = np.empty_like(mr)
        if n_near:
            z2 = z[near] ** 2
            used = series[:1 + np.count_nonzero(needed < z2.max())]
            s[near] = -z2 * _horner(used, -z2)
        if n_near < mr.size:
            far = ~near
            # K - 1 per atom keeps the origin cancellation exact
            s[far] = _kernel_minus_one(kernel, mr[far][:, None] * radii[None, :]) @ weights
        counts.kernel_evals += n_near + (mr.size - n_near) * radii.size + (g is not None) * mr.size
        gv = 0.0 if g is None else np.asarray(g(mr.ravel())).reshape(mr.shape)
        D = (gv * s + gv * w_total + s) @ coeffs[1:]
        if not with_magnitude:
            return D, None
        t = -s
        ga = np.abs(gv)
        return D, (ga * t + ga * w_total + t) @ np.abs(coeffs[1:])

    freq = k * rho_max
    tail = AtomicTail(coeffs[0] * (1.0 - w_origin), coeffs, radii, weights, kernel)
    return evaluate, freq, tail


def _shared_atoms(phi, psi):
    """The atoms that ``phi`` and ``psi`` share, each a normal form ``(1 +
    g)(1 + A)``, at least one with a radial factor g; None for any other
    pair.  Atoms are shared when their points and weights are equal,
    whether or not they are one object."""
    forms = (None,) if psi is None else (normal_form(phi), normal_form(psi))
    if None in forms:
        return None
    (g, a), (h, b) = forms
    if a is None or b is None or (g is None and h is None):
        return None
    if np.array_equal(a.points, b.points) and np.array_equal(a.weights, b.weights):
        return a
    return None


def _shared_reader(phi, psi, atoms, read, counts):
    """``(phi - psi)(s) = (g_phi - g_psi)(|s|) (1 + A(s))`` for a pair that
    shares the atoms of ``A = sum_j w_j exp(-i s . x_j) - 1``.

    ``read`` is the pair's reader of a non-radial factor; it reads A once,
    from the pair's plain atomic law or, for two radial x atomic forms, one
    built on the shared atoms.  The radial difference is read at the radii
    s, one kernel evaluation each, and broadcast over the sphere nodes, so
    a point costs one per atom and node plus one: n + 1 on the d = 1 ray,
    read directly.  The pair is one term, whose magnitude is its own.
    """
    radials = [normal_form(f)[0] for f in (phi, psi)]
    plain = psi if radials[1] is None else phi if radials[0] is None else None
    read_atoms = read(plain or make_discrete(atoms))

    def g(s):
        g_phi, g_psi = (0.0 if f is None else np.asarray(f.radial_minus_one(s)) for f in radials)
        return g_phi - g_psi

    read_g = _radial_reader(g, counts)

    def read_pair(s, with_magnitude):
        a = read_atoms(s, False)[0]
        gv = read_g(s, False)[0]
        return _read((gv if a.ndim == 1 else gv[:, None]) * (1.0 + a), with_magnitude)
    return read_pair


def _single_atom_gap(factors, k):
    """Distance c of two unit atoms in d = 1 (one factor: the other sits at
    the origin), where ``|Delta(phi - psi)| = 2|sin(c r / 2)|`` for k = 1."""
    if k != 1 or factors[0].dim != 1 or any(
        f.atoms is None or f.atoms.size != 1 for f in factors
    ):
        return None
    points = [float(f.atoms.points[0, 0]) for f in factors]
    c = abs(points[0] - (points[1] if len(points) == 2 else 0.0))
    return c if c != 0.0 else None


def _profile_tail(phi, psi, coeffs, part, magnitude):
    factors = [phi] if psi is None else [phi, psi]
    gap = _single_atom_gap(factors, coeffs.size - 1)
    if magnitude and part == "complex" and gap is not None:
        return SinSeriesTail(gap)
    enveloped = all(f.envelope is not None for f in factors)
    if magnitude and not enveloped:
        # no known limit for |difference|: the tail measures D itself
        if all(f.atoms is not None for f in factors):
            return WindowMeanTail(0.0)
        return StabilizedTail(0.0)
    # differences annihilate constants: only the transforms' limits remain
    l_psi = 1.0 if psi is None else psi.tail_limit
    limit = -coeffs[0] * (phi.tail_limit - l_psi)
    if magnitude:
        limit = abs(limit)
    if not enveloped:
        return StabilizedTail(limit)
    return EnvelopeTail(limit, coeffs, tuple(f.envelope for f in factors))


def difference_profile(phi: CharFn, psi: CharFn | None = None, *, k: int,
                       spec: QuadratureSpec, part: str, magnitude: bool) -> DifferenceProfile:
    """The profile ``D(r)`` of ``Delta_xi^k (phi - psi)(0)`` and its tail rule.

    ``psi=None`` means the constant transform 1, which differences
    annihilate: D is then the difference of ``phi`` alone.  ``part`` is
    ``'real'`` (real part of the difference) or ``'complex'``.  With
    ``magnitude`` the absolute value is taken inside the angular mean,
    which makes D the integrand of the seminorms and of membership.

    Radial transforms reduce to their profile; signed differences of
    finitely supported measures reduce exactly over the atoms, and so do
    those of radial x atomic products (``phi.radial_atomic``) in
    dimensions two and three, with the product's own tail; everything else
    uses the sphere product rule up to dimension three, folded onto one
    ray in dimension one.  A pair that shares its atoms (equal points and
    weights), each a radial x atomic product or the atomic law itself,
    takes one factor ``(g_phi - g_psi) (1 + A)`` on that geometry, for
    every k, part and magnitude, with the pair's usual tail; the atoms are
    read once, at one per atom and node, and the radial difference at one
    per radius, where reading the two transforms apart would read the
    atoms twice.  In dimension one the atomic laws of the profile, ``phi``
    alone or ``phi`` and ``psi`` when both are atomic, are one plane-wave
    sum, read by the reader that charges less
    (:func:`_plane_wave_reader`).  On a single atom, the
    complex magnitude of the first difference is ``|g_phi - g_psi|`` at
    every node, which is the pair of the radial factors alone: that pair's
    profile is returned, with their envelopes and limits.
    """
    if part not in ("real", "complex"):
        raise DomainError(f"part must be 'real' or 'complex', not {part!r}")
    coeffs = binomial_difference_coefficients(k)
    d = phi.dim
    if psi is not None and psi.dim != d:
        raise DomainError("dimension mismatch")
    counts = _EvalCounts()
    signed_alone = not magnitude and psi is None
    if signed_alone and phi.atoms is not None:
        evaluate, freq, tail = _atomic_terms(phi.atoms, coeffs, counts)
        return DifferenceProfile(evaluate, sphere_area(d), float(freq), magnitude=False,
                                 tail=tail, counts=counts)
    shared = _shared_atoms(phi, psi)
    if shared is not None and shared.size == 1 and k == 1 and magnitude and part == "complex":
        # |(g_phi - g_psi)(r) exp(-i xi . x)| = |g_phi - g_psi|(r): the pair
        # of the radial factors alone, with their envelopes and limits
        radials = [f.radial_atomic.radial for f in (phi, psi) if f.radial_atomic is not None]
        return difference_profile(*radials, k=k, spec=spec, part=part, magnitude=True)
    if signed_alone and phi.radial_atomic is not None and d in (2, 3):
        form = phi.radial_atomic
        evaluate = _atomic_terms(form.atoms, coeffs, counts, form.radial_minus_one)[0]
    else:
        if phi.is_radial and (psi is None or psi.is_radial):
            rule, ray = None, False

            def read(chi):
                return _radial_reader(chi.radial_minus_one, counts)
        else:
            nodes, rule = _angular_rule(d, spec)
            ray = nodes is None

            def read(chi):
                if ray and chi.atoms is not None:
                    return _plane_wave_reader(chi, None, counts)
                return _node_reader(chi.minus_one, _evaluated_atoms(chi), nodes, counts)
        if shared is not None:
            f = _shared_reader(phi, psi, shared, read, counts)
        elif ray and psi is not None and phi.atoms is not None and psi.atoms is not None:
            f = _plane_wave_reader(phi, psi, counts)
        else:
            f = read(phi) if psi is None else _minus(read(phi), read(psi))
        evaluate = _mean_terms(coeffs, f, rule, part, magnitude,
                               max(_evaluated_atoms(c) for c in (phi, psi) if c is not None))
    freq = k * (phi.osc_scale + (0.0 if psi is None else psi.osc_scale))
    tail = _profile_tail(phi, psi, coeffs, part, magnitude)
    return DifferenceProfile(evaluate, sphere_area(d), float(freq), magnitude=magnitude,
                             tail=tail, counts=counts)


def derivative_profile(phi: CharFn, sigma: tuple, *, spec: QuadratureSpec) -> DifferenceProfile:
    """The profile ``D(r)``, the angular mean of ``|partial^sigma phi(xi) -
    partial^sigma phi(0)|``, and its tail rule.

    ``phi`` must carry a derivative oracle.  The angular mean takes the
    geometry of :func:`difference_profile` for a non-radial factor: the
    sphere product rule in dimensions two and three, and in dimension one
    a single ray, since ``partial^sigma phi(-xi) - partial^sigma phi(0)``
    is ``(-1)**|sigma|`` times the conjugate of its value at xi for a real
    measure.  The derivative reader charges ``_evaluated_atoms`` per point.
    """
    d = phi.dim
    base = complex(np.asarray(phi.derivative(sigma, np.zeros((1, d))))[0])
    counts = _EvalCounts()
    nodes, rule = _angular_rule(d, spec)
    read = _node_reader(lambda pts: np.asarray(phi.derivative(sigma, pts)) - base,
                        _evaluated_atoms(phi), nodes, counts)
    evaluate = _mean_terms(binomial_difference_coefficients(1), read, rule, "complex", True,
                           _evaluated_atoms(phi))
    tail = StabilizedTail(abs(base))
    gap = _single_atom_gap([phi], 1)
    if gap is not None:
        # one atom at distance c: the difference is c**|sigma| 2|sin(c xi / 2)|
        tail = SinSeriesTail(gap, gap ** sum(sigma))
    return DifferenceProfile(evaluate, sphere_area(d), float(phi.osc_scale), magnitude=True,
                             tail=tail, counts=counts)


def _origin_descent(profile: DifferenceProfile, a: float, alpha: float,
                    spec: QuadratureSpec, *, slope_margin):
    """Head integral over (0, a]: geometric panels plus a power-law model.

    The fitted model ``D(r) ~ D(x) (r/x)**slope`` is exact only to its
    next-order correction, so panels descend below the anchor until the
    model's remaining share is negligible or the evaluator's cancellation
    noise takes over; by then the corrections have died out as well and
    the model closes the integral with a tight error bar.  Every fit, the
    first and each refit, raises :class:`DivergenceSuspectedError` on a
    coherent slope at or below ``alpha + slope_margin``.

    The closing model's bar also carries the rounding of D at its anchor
    x, four ulp of the terms' magnitudes there (from the model's own probe)
    integrated as the model integrates D, ``4 eps terms(x) x**-alpha /
    (slope - alpha)``: where the k terms cancel far below their size, that
    rounding scales as the model does at the probes' power-of-two ratios,
    so the spread of the fitted slopes does not show it.
    """
    def fit(x):
        probes = []

        def D(r):
            vals, terms = profile._evaluate(r, True)
            probes.append(terms)
            return vals

        om = origin_power_model(D, x, alpha, slope_margin=slope_margin,
                                abs_mode=profile.magnitude)
        if om.slope is None or om.slope <= alpha or probes[0] is None:
            return om, 0.0
        return om, 4.0 * 2.0**-53 * float(probes[0][0]) * x ** (-alpha) / (om.slope - alpha)

    om, rounding = fit(a)
    tol_head = max(spec.abs_tol, spec.rel_tol * abs(om.contribution)) / 8.0
    integrand = profile.integrand(alpha)

    head = 0.0
    head_err = 0.0
    x = a
    octaves = 0
    while abs(om.contribution) > tol_head and octaves < 256:
        batch = min(4, 256 - octaves)
        lo = x * 0.5**batch
        # the deepest refit probe sits at lo/8; stop while it is still clean
        if profile.noise_limited(lo / 8.0):
            break  # model at x stays the best available closure of (0, x]
        bp = geometric_breakpoints(lo, x, per_octave=2)
        val, err, _, _ = adaptive_panel_integral(
            integrand, bp, spec.rel_tol, spec.abs_tol, 256
        )
        head += val
        head_err += err
        x = lo
        octaves += batch
        om, rounding = fit(x)
    return head + om.contribution, head_err + om.error + rounding, om.slope, octaves


def _difference_integral(profile: DifferenceProfile, alpha: float,
                         spec: QuadratureSpec, *, slope_margin=_SLOPE_MARGIN):
    """Integrate ``r**(-1-alpha) D(r)`` over (0, inf) for a profile.

    Returns ``(value, error, diagnostics)`` on the bare scale (the caller
    multiplies by the angular factor).  The diagnostics count this pass's
    cost: ``points``, the radii at which D was evaluated, and
    ``kernel_evals``, the kernel evaluations behind them.
    """
    counts = profile.counts
    start = (counts.points, counts.kernel_evals)

    def cost():
        return {"points": counts.points - start[0],
                "kernel_evals": counts.kernel_evals - start[1]}

    a = profile.origin_cut(spec)
    head_val, head_err, slope, octaves = _origin_descent(
        profile, a, alpha, spec, slope_margin=slope_margin
    )
    if not np.isfinite(head_err):
        return math.nan, math.inf, {"origin_slope": slope, "diverged": True, **cost()}

    integrand = profile.integrand(alpha)
    tail = profile.tail
    r_mid = max(tail.start(spec), 64.0 * a)
    bp = oscillatory_breakpoints(a, r_mid, profile.freq, per_octave=3)
    mid_val, mid_err, n_panels, converged = adaptive_panel_integral(
        integrand, bp, spec.rel_tol, spec.abs_tol, spec.max_panels
    )

    R = r_mid
    scale = abs(head_val) + abs(mid_val) + spec.abs_tol
    increments = []
    while True:
        tol = max(spec.abs_tol, spec.rel_tol * scale) / 4.0
        if tail.bound(profile, alpha, R) <= tol or len(increments) >= 64 or n_panels >= spec.max_panels:
            break
        if profile.freq > 0.0 and R * profile.freq > 3.0 * spec.max_panels:
            break  # resolving further octaves would blow the panel budget
        chunk_bp = oscillatory_breakpoints(R, 2.0 * R, profile.freq, per_octave=3)
        chunk, chunk_err, chunk_panels, _ = adaptive_panel_integral(
            integrand, chunk_bp, spec.rel_tol, spec.abs_tol, spec.max_panels
        )
        mid_val += chunk
        mid_err += chunk_err
        n_panels += chunk_panels
        R *= 2.0
        scale = abs(head_val) + abs(mid_val) + spec.abs_tol
        increments.append(float(np.real(chunk)))

    const_tail, rem_val, rem_err = tail.close(profile, alpha, R)
    value = head_val + mid_val + const_tail + rem_val
    error = head_err + mid_err + rem_err
    diagnostics = {
        "n_panels": n_panels,
        "origin_slope": slope,
        "origin_value": head_val,
        "origin_octaves": octaves,
        "tail_start": R,
        "tail_value": const_tail + rem_val,
        "tail_error": rem_err,
        "panels_converged": converged,
        # the last two octaves before R, [R/4, R/2] and [R/2, R]
        "octave_increments": increments[-2:] if len(increments) >= 2 else [],
        **cost(),
    }
    return value, error, diagnostics


def radial_difference_integral(F, k: int, alpha: float, d: int = 1,
                               spec: QuadratureSpec | None = None, *,
                               minus_one=None, envelope=None) -> float:
    """``int_0^inf r**(-1-alpha) Delta_r^k(F)(0) dr`` for a radial profile F.

    ``F(0)`` must equal 1.  The sphere-area factor of the full-space
    reduction is not included.  Supplying ``minus_one`` (an accurate
    ``F - 1``) avoids cancellation near the origin; ``envelope`` enables
    the analytic tail bound, otherwise the tail is stabilized numerically.
    """
    spec = spec or QuadratureSpec()
    if d < 1:
        raise DomainError("dimension must be >= 1")
    g = minus_one
    if g is None:
        def g(r):
            return np.asarray(F(np.asarray(r, dtype=float))) - 1.0

    coeffs = binomial_difference_coefficients(k)
    counts = _EvalCounts()
    profile = DifferenceProfile(
        _mean_terms(coeffs, _radial_reader(g, counts), None, "complex", False),
        angular=1.0,
        freq=0.0,
        magnitude=False,
        # without a decay envelope the profile's limit is unknown and the
        # tail constant gets estimated from a far window instead
        tail=(StabilizedTail(None) if envelope is None
              else EnvelopeTail(coeffs[0], coeffs, (envelope,))),
        counts=counts,
    )
    value, error, diag = profile.integrate(alpha, spec)
    if not diag.get("panels_converged", True) and error > 10 * max(
        spec.abs_tol, spec.rel_tol * abs(value)
    ):
        raise QuadratureError(
            f"radial difference integral did not stabilize within "
            f"{spec.max_panels} panels (error {error:.2e})"
        )
    return float(np.real(value))


def fulldim_difference_integral(phi: CharFn, k: int, alpha: float,
                                spec: QuadratureSpec | None = None):
    """``int_{R^d} Delta_xi^k(phi)(0) / |xi|**(d+alpha) dxi`` for d <= 3.

    Adaptive panels in the radius over the angular mean that
    :func:`difference_profile` builds: exact for radial transforms, atomic
    measures and radial x atomic products, a sphere rule in the angles
    otherwise.
    The result of a valid transform is real up to quadrature error; the
    imaginary residual is reported in the diagnostics.
    """
    return _signed_integral(phi, k, alpha, spec or QuadratureSpec(), "complex")


def _signed_integral(phi, k, alpha, spec, part):
    """The full-space integral of the signed profile of ``part``, with its
    error and diagnostics, which hold the imaginary residual."""
    profile = difference_profile(phi, k=k, spec=spec, part=part, magnitude=False)
    value, error, diag = profile.integrate(alpha, spec)
    full = profile.angular * value
    diag["imag_residual"] = abs(np.imag(full))
    return complex(full), profile.angular * error, diag


def _validated_order(phi, alpha, k, formula):
    """Validate or repair a (k, formula) request against the hypotheses."""
    rerouted = False
    if formula == "M12":
        if _is_near_integer(alpha, _GUARD_BAND) and alpha < k:
            # the alternating sum degenerates on the complex formula there;
            # the default odd-order selection stays well conditioned
            k, formula = select_difference_order(alpha)
            rerouted = True
        elif not alpha < k:
            raise DomainError(
                f"complex difference formula needs alpha < k (alpha={alpha}, k={k})"
            )
    if formula == "M13":
        if k % 2 == 0:
            raise DomainError("real-part difference formula needs odd k")
        at_k = _is_near_integer(alpha) and round(alpha) == k
        if not (at_k or (not _is_near_integer(alpha) and alpha < k + 1)):
            raise DomainError(
                f"real-part formula needs non-integer alpha < k+1 or alpha = k "
                f"(alpha={alpha}, k={k})"
            )
    return k, formula, rerouted


def absolute_moment(phi: CharFn, alpha: float, spec: QuadratureSpec | None = None,
                    *, k: int | None = None, formula: str | None = None,
                    method: str = "auto") -> MomentResult:
    """Absolute moment of order alpha of the measure behind ``phi``.

    Even-integer orders route to :func:`even_order_moment`.  ``formula``
    may name the route: ``'M12'`` or ``'M13'``, or ``'even-series'`` at an
    even-integer order; any other name raises :class:`DomainError`.
    ``method`` may force the exact atom sum or analytic oracle
    (``'exact'``) instead of quadrature.  Raises
    :class:`DivergenceSuspectedError` when the difference integral behaves
    like that of a measure without a finite moment of this order.
    """
    spec = spec or QuadratureSpec()
    if alpha <= 0:
        raise DomainError("order alpha must be positive")
    even = _is_near_integer(alpha, _GUARD_BAND) and round(alpha) % 2 == 0
    if formula not in ((None, "even-series") if even else (None, "M12", "M13")):
        raise DomainError(
            f"formula {formula!r} does not apply at order {alpha}: orders at (or within the "
            "guard band of) an even integer are outside the difference formulas' hypotheses "
            "and take even-series (even_order_moment), every other order M12 or M13")
    if method not in ("auto", "quadrature", "exact"):
        raise DomainError("method must be auto, quadrature or exact")
    if method == "exact":
        if phi.atoms is not None:
            return MomentResult(phi.atoms.moment(alpha), 0.0, "discrete-exact", None)
        if phi.analytic_moment is not None:
            return MomentResult(float(phi.analytic_moment(alpha)), 0.0,
                                "analytic-oracle", None)
        raise DomainError(f"{phi.label} carries no exact moment oracle")
    if even:
        return even_order_moment(phi, round(alpha))
    if k is None and formula is None:
        k, formula = select_difference_order(alpha)
    elif formula is None:
        formula = "M13" if k % 2 == 1 else "M12"
    elif k is None:
        k, formula = select_difference_order(alpha, prefer_real=formula != "M12")
    k, formula, rerouted = _validated_order(phi, alpha, k, formula)

    A = moment_constant(k, alpha, phi.dim)
    J, err, diag = _signed_integral(phi, k, alpha, spec,
                                    "complex" if formula == "M12" else "real")
    value = A * J.real
    # the constant's rounding, in units of 2**-53: four per term of the
    # power sum, magnified by the sum's cancellation kappa, and eight for
    # the rest of the constant and the product
    kappa = power_difference_condition(k, alpha)
    error = abs(A) * (err + diag["imag_residual"]) + (4.0 * kappa + 8.0) * 2.0**-53 * abs(value)
    if rerouted:
        diag["rerouted"] = True
    diag["normalizing_constant"] = A
    diag["power_sum"] = power_difference_sum(k, alpha)
    if value < -(5.0 * error + 1e-12):
        raise DivergenceSuspectedError(
            f"difference formula produced a negative moment ({value:.3e}); "
            f"the measure is most likely outside the order-{alpha:g} class",
            alpha=alpha,
        )
    return MomentResult(max(value, 0.0), error, formula, k, diag)


def even_order_moment(phi: CharFn, order: int) -> MomentResult:
    """Even-integer moments ``E|X|**order``, one coefficient of the origin
    series (:meth:`CharFn.series`, route ``'even-series'``).

    The sphere mean of ``exp(-i xi . x)`` is ``sum_l kappa_l (r |x|)**(2l)``
    with ``kappa_l = (-1)**l / D_l``
    (:func:`~cfmoments.specfun.plane_wave_mean_denominator`), so the sphere
    mean of ``phi - 1`` is ``sum_l kappa_l E|X|**(2l) r**(2l)`` and
    ``E|X|**(2j) = b_j / kappa_j`` for the coefficient ``b_j`` of
    ``r**(2j)``.  The error estimate is the coefficient's rounding bound
    carried through the quotient; the diagnostics hold the exponent, b_j
    and kappa_j.  A nonzero term at an exponent below ``2j`` that is not an
    even integer (a stable or Linnik law, or a heat flow, with p < 2) means
    the moment is infinite and raises :class:`DivergenceSuspectedError`, as
    does a negative quotient.  Orders up to ``2 MAX_DIFFERENCE_ORDER``, the
    series' last exponent, are supported; a transform without a series
    raises :class:`DomainError`.
    """
    if order <= 0 or order % 2 != 0:
        raise DomainError("order must be a positive even integer")
    series = phi.series()
    if series is None:
        raise DomainError(
            f"{phi.label} carries no origin series, so its even-order moments are "
            f"not available; build the CharFn with origin_series"
        )
    if order > 2 * MAX_DIFFERENCE_ORDER:
        raise DomainError(
            f"origin series hold orders up to {2 * MAX_DIFFERENCE_ORDER}"
        )
    j = order // 2
    below = (series.exponents < order - _INT_TOL) & (series.coeffs != 0.0)
    odd = np.abs(series.exponents / 2.0 - np.round(series.exponents / 2.0)) > _INT_TOL
    if np.any(below & odd):
        e = float(series.exponents[np.flatnonzero(below & odd)[0]])
        raise DivergenceSuspectedError(
            f"the origin series of {phi.label} has a term in r**{e:g}: its moments "
            f"of order above {e:g} are infinite",
            alpha=float(order),
        )
    b, b_err = series.coefficient(float(order))
    den = plane_wave_mean_denominator(j, phi.dim)
    value = (-1) ** j * b * den
    # float(den) and the product each round once
    error = b_err * den + 2.0 * 2.0**-53 * abs(value)
    if not math.isfinite(value) or value < 0.0:
        raise DivergenceSuspectedError(
            f"the origin series of {phi.label} gives the order-{order} moment "
            f"{value:.3e}, which no law has",
            alpha=float(order),
        )
    return MomentResult(value, error, "even-series", None,
                        {"exponent": order, "coefficient": b, "kappa": (-1) ** j / den})
