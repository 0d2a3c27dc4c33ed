"""Adaptive panel quadrature and the singular-endpoint machinery.

The difference integrals all have the shape ``int_0^inf r**(-1-alpha) D(r) dr``
with ``D`` vanishing like a power at the origin and approaching a constant
plus a decaying or oscillating remainder at infinity.  This module provides
the pieces the engine composes:

* a vectorized Gauss-Kronrod 7/15 panel integrator with bisection refinement,
* a near-origin power-law model that integrates the singular head
  analytically from a fitted local exponent,
* breakpoint planners for geometric and oscillation-resolving panels,
* the product rule over the unit sphere that reduces non-radial integrands,
* separable plane-wave sums on a grid of starts plus offsets, one matrix
  product in place of one exponential per term and point,
* a lazily built piecewise-Chebyshev table of a plane-wave sum, built
  from its amplitudes and read by Clenshaw's recurrence instead of
  evaluation,
* the hybrid evaluator for oscillatory power tails, which closes the tails
  of many lower limits from one shared bridge grid.

Panels are summed in breakpoint order, so results do not depend on the
refinement schedule, up to the last bits of batched transform evaluation:
BLAS matrix-vector kernels round the trailing rows of a batch differently
(measured up to 6.7e-16 on atomic transforms), so a panel's values can
depend at rounding level on which panels share its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceSuspectedError, DomainError, QuadratureError
from .specfun import trig_power_tail

__all__ = [
    "QuadratureSpec",
    "OriginModel",
    "adaptive_panel_integral",
    "bridged_tail",
    "fixed_panel_nodes",
    "origin_power_model",
    "geometric_breakpoints",
    "oscillatory_breakpoints",
    "sphere_rule",
    "trig_tail_integral",
]

# Gauss-Kronrod 7/15 nodes and weights on [-1, 1] (QUADPACK dqk15 constants).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])        # 15 nodes, ascending
_WK = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WG_FULL = np.zeros(15)
_WG_FULL[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])  # Gauss nodes at odd slots


@dataclass
class QuadratureSpec:
    """Tolerances and budgets for the difference integrals.

    ``r_split`` sets where the mid panels of a difference integral end and
    its tail takes over: at ``r_split`` for the exact atomic tail of a
    signed atomic pass, at ``8 r_split`` for every other tail (or at 64
    times the origin cut, if that is farther).  ``origin_cut`` is the
    matching point of the analytic origin model.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_panels: int = 4096
    sphere_order: int = 64
    r_split: float = 1.0
    origin_cut: float = 1e-4

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise DomainError("quadrature tolerances must be positive")
        if not all(isinstance(n, (int, np.integer)) for n in (self.max_panels, self.sphere_order)):
            raise DomainError("max_panels and sphere_order must be integers")
        if self.max_panels < 16:
            raise DomainError("max_panels must be at least 16")
        if self.sphere_order < 2:
            raise DomainError("sphere_order must be at least 2")
        if self.r_split <= 0 or self.origin_cut <= 0:
            raise DomainError("r_split and origin_cut must be positive")


def _gk_batch(f, lo, hi):
    """Gauss-Kronrod 7/15 on a batch of panels: (values, error estimates)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = mid[:, None] + half[:, None] * _NODES[None, :]
    vals = np.asarray(f(pts.ravel())).reshape(pts.shape)
    ik = (vals * _WK[None, :]).sum(axis=1) * half
    ig = (vals * _WG_FULL[None, :]).sum(axis=1) * half
    diff = np.abs(ik - ig)
    mean = ik / (hi - lo + 1e-300)
    resasc = (np.abs(vals - mean[:, None]) * _WK[None, :]).sum(axis=1) * np.abs(half)
    with np.errstate(divide="ignore", invalid="ignore"):
        # clip before the power: a panel one ulp wide can have resasc = 0
        # and a rounding-level diff, whose ratio to 1e-300 overflows **1.5
        sharp = resasc * np.minimum(
            1.0, 200.0 * diff / np.maximum(resasc, 1e-300)
        ) ** 1.5
    err = np.where(resasc > 0.0, sharp, diff)
    return ik, err


def _refined_panels(f, breakpoints, rel_tol, abs_tol, max_panels):
    """Bisection refinement of the ``breakpoints`` panels of ``f``.

    The worst panels are bisected in batches until the summed error
    estimate meets the tolerance or the panel budget runs out.  Returns the
    final panels' ``(lo, values, errors)`` in breakpoint order; every
    distinct breakpoint stays a panel start.
    """
    bp = np.unique(np.asarray(breakpoints, dtype=float))
    if bp.size < 2:
        raise DomainError("need at least two distinct breakpoints")
    lo = bp[:-1].copy()
    hi = bp[1:].copy()
    vals, errs = _gk_batch(f, lo, hi)
    while True:
        total = vals.sum()
        err_total = errs.sum()
        tol = max(abs_tol, rel_tol * abs(total))
        if err_total <= tol or lo.size >= max_panels:
            break
        budget = max_panels - lo.size
        n_split = min(max(8, lo.size // 4), budget)
        candidates = np.argsort(errs)[-n_split:]
        wide_enough = (hi[candidates] - lo[candidates]) > 1e-14 * (
            np.abs(lo[candidates]) + np.abs(hi[candidates])
        )
        significant = errs[candidates] > 0.125 * tol / max(lo.size, 1)
        worst = candidates[wide_enough & significant]
        if worst.size == 0:
            break
        mid = 0.5 * (lo[worst] + hi[worst])
        batch_lo = np.concatenate([lo[worst], mid])
        batch_hi = np.concatenate([mid, hi[worst]])
        new_vals, new_errs = _gk_batch(f, batch_lo, batch_hi)
        m = worst.size
        vals[worst] = new_vals[:m]
        errs[worst] = new_errs[:m]
        hi[worst] = mid
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([hi, batch_hi[m:]])
        vals = np.concatenate([vals, new_vals[m:]])
        errs = np.concatenate([errs, new_errs[m:]])
    order = np.argsort(lo, kind="stable")
    return lo[order], vals[order], errs[order]


def adaptive_panel_integral(f, breakpoints, rel_tol, abs_tol, max_panels):
    """Adaptively integrate ``f`` over consecutive ``breakpoints`` panels.

    ``f`` must accept a flat numpy array and return values of matching
    shape (complex allowed).  The worst panels are bisected in batches
    until the summed error estimate meets the tolerance or the panel
    budget runs out.  Returns ``(value, error, n_panels, converged)``.
    """
    lo, vals, errs = _refined_panels(f, breakpoints, rel_tol, abs_tol, max_panels)
    total = vals.sum()
    err_total = float(errs.sum())
    converged = err_total <= max(abs_tol, rel_tol * abs(total)) * (1.0 + 1e-9)
    return total, err_total, int(lo.size), bool(converged)


def fixed_panel_nodes(breakpoints):
    """Kronrod nodes and weights of the composite panels, flattened.

    For integrands that must be evaluated once against many outer points
    (Fourier inversion), a fixed rule beats adaptivity.
    """
    bp = np.asarray(breakpoints, dtype=float)
    lo, hi = bp[:-1], bp[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
    w = (np.broadcast_to(_WK, (lo.size, 15)) * half[:, None]).ravel()
    return pts, w


def geometric_breakpoints(a, b, per_octave=2):
    """Log-spaced breakpoints from a to b."""
    if not 0 < a < b:
        raise DomainError("need 0 < a < b")
    n = max(2, int(math.ceil(per_octave * math.log2(b / a))) + 1)
    return np.geomspace(a, b, n)


_MAX_BREAKPOINTS = 2_000_000


def oscillatory_breakpoints(a, b, freq, per_octave=2, max_width_factor=0.5):
    """Geometric breakpoints whose width also resolves oscillation ``freq``.

    Width is capped at ``max_width_factor * 2 pi / freq`` so a 15-point
    panel never sees more than about half a wavelength.
    """
    if not 0 < a < b:
        raise DomainError("need 0 < a < b")
    if freq <= 0:
        return geometric_breakpoints(a, b, per_octave)
    cap = max_width_factor * 2.0 * math.pi / freq
    grow = 2.0 ** (1.0 / per_octave) - 1.0
    pts = [a]
    x = a
    while x < b and x * grow < cap:
        x = min(b, x + max(x * grow, 1e-300))
        pts.append(x)
        if len(pts) > _MAX_BREAKPOINTS:
            raise QuadratureError("oscillatory breakpoint plan exploded")
    # past the crossover every width is the cap: a cumulative sum adds the
    # steps one after another, as a loop would, and the run is cut at b; a
    # run that rounding keeps short of b continues from its last point
    runs = [np.asarray(pts)]
    count = len(pts)
    step = max(cap, 1e-300)
    while x < b:
        n = min(math.ceil(min((b - x) / step, _MAX_BREAKPOINTS)) + 2, _MAX_BREAKPOINTS - count)
        if n <= 0:
            raise QuadratureError("oscillatory breakpoint plan exploded")
        run = np.cumsum(np.concatenate(([x], np.full(n, step))))[1:]
        end = int(np.searchsorted(run, b))
        if end < n:
            run = run[:end + 1]
            run[end] = b
        runs.append(run)
        count += run.size
        x = run[-1]
    return np.concatenate(runs)


def sphere_rule(d: int, order: int):
    """Nodes (n, d) and weights summing to the sphere area."""
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if d == 2:
        t, w = np.polynomial.legendre.leggauss(order)
        theta = (t + 1.0) * math.pi
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return nodes, w * math.pi
    if d == 3:
        u, wu = np.polynomial.legendre.leggauss(order)
        n_phi = max(8, order)
        phi = 2.0 * math.pi * (np.arange(n_phi) + 0.5) / n_phi
        su = np.sqrt(1.0 - u**2)
        nodes = np.stack(
            [
                np.outer(su, np.cos(phi)).ravel(),
                np.outer(su, np.sin(phi)).ravel(),
                np.repeat(u, n_phi),
            ],
            axis=1,
        )
        weights = np.repeat(wu, n_phi) * (2.0 * math.pi / n_phi)
        return nodes, weights
    raise DomainError("product quadrature supports d <= 3 only")


@dataclass
class OriginModel:
    """Fitted power behaviour of a difference at the origin."""

    contribution: complex
    error: float
    slope: float | None


def origin_power_model(
    D,
    a: float,
    alpha: float,
    *,
    slope_margin: float = 1e-3,
    abs_mode: bool = False,
) -> OriginModel:
    """Integrate ``r**(-1-alpha) D(r)`` over (0, a] via a local power fit.

    Samples ``D`` at ``a, a/2, a/4, a/8``, takes the log2 slope of the
    magnitudes, and extends ``D(r) ~ D(a) (r/a)**slope`` down to zero,
    which integrates to ``D(a) a**(-alpha) / (slope - alpha)``.  A coherent
    slope at or below ``alpha + slope_margin`` means the head integral
    cannot converge and raises :class:`DivergenceSuspectedError`; an
    incoherent probe only widens the error bar.  The bar also carries the
    model's integral of 5e-15 times the largest probe, the assumed relative
    accuracy of the ``D`` evaluator.
    """
    rs = a * 0.5 ** np.arange(4)
    vals = np.asarray(D(rs))
    mags = np.abs(vals)
    anchor = float(mags[0]) if abs_mode else complex(vals[0])
    if mags.max() == 0.0:
        # identically vanishing difference (equal transforms)
        return OriginModel(0.0, 0.0, None)
    if np.any(mags <= 0.0):
        # cancellation noise flushed a probe to zero: no usable exponent
        # at this depth, only a wide bar from the largest probe
        return OriginModel(0.0, float(10.0 * mags.max() * a ** (-alpha)), None)
    s = np.log2(mags[:-1] / mags[1:])
    slope = float(s[-1])
    spread = float(np.max(np.abs(s - slope)))
    coherent = spread <= 0.25
    if slope <= alpha + slope_margin and coherent:
        raise DivergenceSuspectedError(
            f"difference grows like r**{slope:.4f} at the origin; the "
            f"integral against r**(-1-{alpha:g}) has no finite head there",
            slope=slope,
            alpha=alpha,
        )
    if slope <= alpha:
        # incoherent probe with no usable exponent: no model value, wide bar
        return OriginModel(0.0, float(10.0 * mags.max() * a ** (-alpha)), slope)
    denom = slope - alpha
    contribution = anchor * a ** (-alpha) / denom
    rel_err = min(1.0, spread / denom + spread)
    error = abs(contribution) * rel_err + 5e-15 * mags.max() * a ** (-alpha) / denom
    return OriginModel(contribution, float(error), slope)


# rounding of a tail, relative to the summed magnitudes of its parts: eight
# ulp, where the tails of cos, sin and J0 were measured to need up to 2.5
_TAIL_ROUNDING = 8 * 2.0**-52


def bridged_tail(f, series, y, y0, *, per_octave, rel_tol, abs_tol, max_panels):
    """``int_y^inf f(u) du`` for every lower limit in the array ``y``.

    ``series(x)`` returns the asymptotic (value, bound) arrays of the tail
    from x >= ``y0`` on.  Limits at or above ``y0`` take the series
    directly.  The limits below it share one bridge integral of ``f`` over
    [min y, y0]: the oscillation plan merged with the limits themselves,
    refined once, with ``max_panels`` of headroom beyond the merged panels.
    Each limit reads its value and error from the reverse cumulative sums
    of the panels above it and adds the series at ``y0``; its error adds
    the rounding of that sum, eight ulp of the summed magnitudes of the
    parts.  A scalar ``y`` returns scalars.
    """
    y = np.asarray(y, dtype=float)
    flat = y.ravel()
    if np.any(flat <= 0.0):
        raise DomainError("tail start must be positive")
    # every limit below y0 shares the series at y0: evaluate each value once
    starts, inverse = np.unique(np.maximum(flat, y0), return_inverse=True)
    val, err = series(starts)
    val, err, mags = val[inverse], err[inverse], np.abs(val[inverse])
    below = flat < y0
    if below.any():
        lows = flat[below]
        plan = oscillatory_breakpoints(lows.min(), y0, 1.0, per_octave=per_octave)
        lo, vals, errs = _refined_panels(
            f, np.concatenate([plan, lows]), rel_tol, abs_tol, max_panels + lows.size
        )
        at = np.searchsorted(lo, lows)
        val[below] += np.cumsum(vals[::-1])[::-1][at]
        err[below] += np.cumsum(errs[::-1])[::-1][at]
        mags[below] += np.cumsum(np.abs(vals[::-1]))[::-1][at]
    err = err + _TAIL_ROUNDING * mags
    if y.ndim == 0:
        return val[0], float(err[0])
    return val.reshape(y.shape), err.reshape(y.shape)


def plane_wave_grid(freqs, amps, starts, left):
    """``S[o, b] = sum_n amps_n exp(i freqs_n (starts_b + offsets_o))``.

    The phases factor, ``exp(i f (s + o)) = exp(i f o) exp(i f s)``, so the
    grid is one matrix product of ``left = exp(i outer(offsets, freqs))``
    with ``amps[:, None] * exp(i outer(freqs, starts))``: ``len(freqs)``
    times ``len(starts) + len(offsets)`` complex exponentials in place of
    one per term and grid point (the separation behind the nonuniform FFT;
    Dutt & Rokhlin, SISC 1993).  Rounding the two phases moves a term's
    phase by up to ``eps |freqs_n| (|starts_b| + |offsets_o|)``, which is
    what rounding ``freqs_n (starts_b + offsets_o)`` costs when starts and
    offsets share a sign.  A caller that meets the same offsets and
    frequencies again may keep ``left``, or a fixed matrix M times it, and
    gets ``M @ S``.
    """
    return left @ (np.asarray(amps)[:, None] * np.exp(1j * np.outer(freqs, starts)))


class ChebyshevBlocks:
    """Lazily built piecewise-Chebyshev table of a plane-wave sum on [0, inf).

    The table holds ``F(s) = sum_n amps_n (exp(i freqs_n s) - 1)``, entire
    of exponential type ``tau = max |freqs_n|`` > 0, such as the transform
    minus one of the atoms ``x_j`` with weights ``w_j`` (``freqs = -x``,
    ``amps = w``), or the difference of two such transforms (the atoms of
    both, the second's weights negated); ``f`` evaluates the same function
    directly.  Block j >= 1 covers ``[j width, (j+1) width]`` with ``width
    = 8 / tau``.  A query
    fills every block it lands in that is not built yet, in batches of at
    most one block per ``DEGREE + 1`` query points and of at most
    ``_BUDGET`` terms times blocks, from the amplitudes:
    :func:`plane_wave_grid` with the new blocks' starts and the offsets of
    the ``DEGREE + 1`` Chebyshev-Lobatto nodes gives the node values, and
    the table keeps the type-I DCT of the offsets factor, so each block
    costs one complex exponential per term and a matrix product, and its
    Chebyshev coefficients come out directly (the sum of the amplitudes
    is taken off the constant one).  Each block's coefficients are one
    complex column of the store, and an integer array maps a block to its
    column.  Each point gathers its block's column once and sums it by
    Clenshaw's recurrence in its local coordinate.  Arguments below
    ``width`` (the first block) go to ``f`` directly.  ``blocks_built``
    counts the blocks built so far, and ``values_read`` the arguments
    read from blocks.

    The kept offsets factor holds ``DEGREE + 1`` complex numbers per term,
    whatever is queried: 40 MB for 1e5 atoms, and 400 MB for the 1e6
    convolved atoms of a product of two 1000-atom laws.  The map from
    blocks to columns holds one integer per block up to the farthest one
    queried.

    At degree 24 and ``tau * width / 2 = 4`` the first dropped Chebyshev
    coefficient of ``exp(i tau s)`` is ``2 J_25(4)`` = 4e-18, so the table
    is accurate to rounding: about 5e-15 of the sum of the amplitudes
    (measured on ``exp(-i s) - 1``), beyond the rounding of the phases
    ``freqs_n s`` that direct evaluation shares.

    ``READ_COST`` is the cost of one read from built blocks in kernel
    evaluations, the unit in which a direct read of an n-term sum costs n,
    so blocks pay for sums of more than ``READ_COST`` terms.  Measured on
    a 2-core Intel Xeon with one BLAS thread, a direct read took 30-50 ns
    per term and point, and a Clenshaw read 250-280 ns per point, flat in
    the number of terms; whole membership passes ran 1.2-1.3 times as long
    from blocks as directly at five atoms, and 0.8-0.9 times at six.
    Building a block costs one complex exponential per term, n, and needs
    no share in that rule: panels of a difference integral are at most
    half a wave of its frequency ``k tau`` wide, with 15 Kronrod nodes
    each, so at every ``s = m r`` with m <= k a block of width ``8 / tau``
    holds at least ``8 / pi`` panels, about 38 points, and adds at most
    n/38 per point.
    """

    DEGREE = 24
    READ_COST = 6
    _HALF_PHASE = 4.0
    _CHUNK = 4096
    _BUDGET = 1 << 20  # terms times blocks in one build batch

    def __init__(self, f, freqs, amps):
        self._freqs = np.asarray(freqs, dtype=float)
        self._amps = np.asarray(amps, dtype=float)
        tau = float(np.abs(self._freqs).max())
        if not (tau > 0.0 and math.isfinite(tau)):
            raise DomainError("exponential type must be positive and finite")
        self.f = f
        self.width = 2.0 * self._HALF_PHASE / tau
        n = self.DEGREE
        k = np.arange(n + 1)
        # type-I DCT from node values to Chebyshev coefficients; the end
        # nodes and the first and last coefficients carry half weight
        dct = np.cos(math.pi * np.outer(k, k) / n) * (2.0 / n)
        dct[:, [0, -1]] *= 0.5
        dct[[0, -1], :] *= 0.5
        nodes = 0.5 * (1.0 + np.cos(math.pi * k / n))
        self._left = dct @ np.exp(1j * np.outer(self.width * nodes, self._freqs))
        self.blocks_built = 0
        self.values_read = 0
        # block index -> column of its coefficients, -1 while not built; the
        # map grows to the farthest block queried, the store doubles when full
        self._column = np.full(16, -1, dtype=np.intp)
        self._coef = np.empty((n + 1, 16), dtype=complex)

    def _build(self, blocks):
        coef = plane_wave_grid(self._freqs, self._amps, blocks * self.width, self._left)
        coef[0] -= self._amps.sum()
        first = self.blocks_built
        if first + blocks.size > self._coef.shape[1]:
            grown = np.empty((self.DEGREE + 1, 2 * (first + blocks.size)), dtype=complex)
            grown[:, :first] = self._coef[:, :first]
            self._coef = grown
        self._coef[:, first:first + blocks.size] = coef
        self._column[blocks] = np.arange(first, first + blocks.size)
        self.blocks_built = first + blocks.size

    def _clenshaw(self, column, x):
        """``sum_n c_n T_n(x)`` with the coefficients ``c`` of the blocks in
        ``column``, by Clenshaw's recurrence, a chunk of points at a time so
        that the gathered columns stay small.  As x is real, the recurrence
        runs on the interleaved real and imaginary parts."""
        out = np.empty(x.size, dtype=complex)
        flat = out.view(float)
        x = np.repeat(x, 2)
        n = self.DEGREE
        for lo in range(0, column.size, self._CHUNK):
            c = np.take(self._coef, column[lo:lo + self._CHUNK], axis=1).view(float)
            xc = x[2 * lo:2 * (lo + self._CHUNK)]
            x2 = 2.0 * xc
            b1, b2 = c[n], 0.0
            for j in range(n - 1, 0, -1):
                b1, b2 = c[j] + x2 * b1 - b2, b1
            flat[2 * lo:2 * lo + c.shape[1]] = c[0] + xc * b1 - b2
        return out

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        block = np.floor(s / self.width).astype(np.intp)
        direct = block < 1
        if direct.all():
            return np.asarray(self.f(s))
        out = np.empty(s.shape, dtype=complex)
        if direct.any():
            out[direct] = self.f(s[direct])
        tabled = ~direct
        block = block[tabled]
        self.values_read += block.size
        top = int(block.max())
        if top >= self._column.size:
            reach = np.full(max(top + 1, 2 * self._column.size), -1, dtype=np.intp)
            reach[:self._column.size] = self._column
            self._column = reach
        new = np.unique(block[self._column[block] < 0])
        per_call = max(1, min(s.size // (self.DEGREE + 1), self._BUDGET // self._amps.size))
        for start in range(0, new.size, per_call):
            self._build(new[start:start + per_call])
        # local coordinate in [-1, 1]; the nodes run from +1 down to -1
        x = 2.0 * (s[tabled] - block * self.width) / self.width - 1.0
        out[tabled] = self._clenshaw(self._column[block], x)
        return out


def trig_tail_integral(y, alpha: float, kind: str = "exp", bridge_to: float = 32.0):
    """``int_y^inf u**(-1-alpha) exp(iu) du`` and its cos/sin parts.

    ``y`` is a lower limit or an array of them.  Above ``bridge_to`` the
    integration-by-parts asymptotics apply directly; below, the gap up to
    the asymptotic regime is closed by one oscillation-aware panel
    quadrature shared by all limits (:func:`bridged_tail`).  Returns
    ``(value, error_bound)``, scalars for a scalar ``y``.
    """
    val, err = bridged_tail(
        lambda u: u ** (-1.0 - alpha) * np.exp(1j * u),
        lambda x: trig_power_tail(x, alpha),
        y, max(bridge_to, 4.0 * (1.0 + alpha)),
        per_octave=6, rel_tol=1e-13, abs_tol=1e-16, max_panels=1024,
    )
    if kind == "cos":
        return np.real(val), err
    if kind == "sin":
        return np.imag(val), err
    return val, err
