"""Transform-side evolution under fractional diffusion and its decay checks.

Diffusion with exponent p multiplies the transform by ``exp(-t |xi|**p)``,
so evolution, moment propagation, and distance decay all live naturally on
the transform side.  Physical-space quantities (sup-norm distances between
solutions, decay-rate fits) are restricted to dimension one, where the
inversion integral truncates cleanly under the diffusion factor.  The
inversion is a sum of plane waves in x over fixed frequency nodes, so a
uniform x grid is evaluated as one separable matrix product
(:func:`~cfmoments.quadrature.plane_wave_grid`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .charfn import CharFn, make_product, make_stable
from .errors import DomainError
from .metrics import integral_distance
from .moment_engine import MomentResult, absolute_moment
from .quadrature import (
    QuadratureSpec,
    fixed_panel_nodes,
    oscillatory_breakpoints,
    plane_wave_grid,
)
from .specfun import gamma

__all__ = [
    "evolve",
    "moment_propagation_check",
    "derivative_sup_distance",
    "decay_rate_check",
    "small_time_check",
    "sup_decay_constant",
    "refined_decay_constant",
    "DecayReport",
]


def evolve(initial: CharFn, p: float, t: float) -> CharFn:
    """Transform of the diffusion solution at time t from the given datum."""
    if not 0.0 < p <= 2.0:
        raise DomainError(f"diffusion exponent p={p} outside (0, 2]")
    if t < 0.0:
        raise DomainError("time must be nonnegative")
    if t == 0.0:
        return initial
    return make_product(initial, make_stable(p, t, initial.dim))


def sup_decay_constant(sigma_order: int, p: float, d: int) -> float:
    """Constant of the uniform derivative bound
    ``2 Gamma((d+|sigma|)/p) / (p (4 pi)**(d/2) Gamma(d/2))``."""
    return (
        2.0
        * gamma((d + sigma_order) / p)
        / (p * (4.0 * math.pi) ** (d / 2.0) * gamma(d / 2.0))
    )


def refined_decay_constant(sigma_order: int, p: float, alpha: float, d: int) -> float:
    """Optimal constant of the moment-weighted decay bound:
    ``(2 pi)**-d ((alpha+d+|sigma|)/(e p))**((alpha+d+|sigma|)/p)``."""
    expo = (alpha + d + sigma_order) / p
    return (2.0 * math.pi) ** (-d) * ((alpha + d + sigma_order) / (math.e * p)) ** expo


def moment_propagation_check(initial: CharFn, p: float, t: float, alpha: float,
                             spec: QuadratureSpec | None = None, *,
                             ratio_cap: float = 10.0):
    """Moment of the evolved law against ``(1+t)**(alpha/p)`` times the datum's.

    Returns ``(MomentResult, bound_core, ok)`` where ``bound_core`` is the
    constant-free product; the inequality's constant is not explicit, so
    ``ok`` only records whether the observed ratio stays under ``ratio_cap``
    (a calibration cap, reported, never asserted as sharp).
    """
    spec = spec or QuadratureSpec()
    res = absolute_moment(evolve(initial, p, t), alpha, spec)
    if initial.analytic_moment is not None:
        m0 = float(initial.analytic_moment(alpha))
    elif initial.atoms is not None:
        m0 = initial.atoms.moment(alpha)
    else:
        m0 = absolute_moment(initial, alpha, spec).value
    bound_core = (1.0 + t) ** (alpha / p) * m0
    if bound_core > 0.0:
        ok = res.value / bound_core <= ratio_cap
    else:
        # a zero-moment datum (a point mass at the origin) makes the
        # moment-relative bound uninformative rather than violated
        ok = True
    return res, bound_core, bool(ok)


def _inversion_cutoff(p: float, t: float, tol: float = 1e-10):
    """Frequency cutoff L with ``exp(-t L**p)``-weighted remainder below tol."""
    L = 1.0
    for _ in range(400):
        if math.exp(-t * L**p) * max(L, 1.0) ** 3 < tol:
            break
        L *= 1.25
    return L


def derivative_sup_distance(phi_a: CharFn, phi_b: CharFn | None, p: float, t: float,
                            sigma: int = 0, x_grid=None,
                            spec: QuadratureSpec | None = None) -> float:
    """Max over x of |d^sigma/dx^sigma (f - g)(x, t)| for d = 1 solutions.

    Fourier inversion evaluated by quadrature on a frequency window whose
    diffusion-weighted remainder is below 1e-10; ``phi_b=None`` compares
    against the zero function (the solution's own size).  The x grid
    defaults to 513 uniform points on a symmetric window scaled by the
    diffusion length; a given grid must be non-empty and finite.  Every x
    is inverted against one batch of frequency nodes by
    :func:`~cfmoments.quadrature.plane_wave_grid`: the default grid is
    split as ``x0 + dx (B b + c)`` with B about its square root, so the
    phases cost (513 / B + B) exponentials per node, and a given grid or
    the refined argmax pays one per point and node.
    """
    if phi_a.dim != 1 or (phi_b is not None and phi_b.dim != 1):
        raise DomainError("physical-space distances are implemented for d = 1")
    if t <= 0.0:
        raise DomainError("need t > 0")
    spec = spec or QuadratureSpec()
    L = _inversion_cutoff(p, t)
    if x_grid is None:
        width = 8.0 * t ** (1.0 / p) + 4.0 * (phi_a.osc_scale + (phi_b.osc_scale if phi_b else 0.0))
        n = 513
        step = 2.0 * width / (n - 1)
        block = math.isqrt(n - 1) + 1
        starts = -width + step * block * np.arange(-(-n // block))
        offsets = step * np.arange(block)
        x_grid = np.linspace(-width, width, n)
    else:
        x_grid = np.asarray(x_grid, dtype=float)
        if x_grid.size == 0:
            raise DomainError("x_grid is empty")
        if not np.all(np.isfinite(x_grid)):
            raise DomainError("x_grid must be finite")
        starts, offsets = x_grid, np.zeros(1)

    # fixed composite Kronrod panels: one evaluation batch serves every x
    freq = max(np.abs(x_grid).max(), phi_a.osc_scale + (phi_b.osc_scale if phi_b else 0.0))
    bp = oscillatory_breakpoints(1e-9, L, freq, per_octave=3)
    xi, w = fixed_panel_nodes(bp)

    pts = xi.reshape(-1, 1)
    vals = np.asarray(phi_a.minus_one(pts)) + 1.0
    if phi_b is not None:
        vals = vals - (np.asarray(phi_b.minus_one(pts)) + 1.0)
    vals = vals * np.exp(-t * xi**p) * (1j * xi) ** sigma * w

    def inversion(starts, offsets):
        # f(x) = (1/pi) Re int_0^inf e^{i x xi} (...) dxi by Hermitian symmetry;
        # the grid's columns are the starts, so x runs along its transpose
        grid = plane_wave_grid(xi, vals, starts, np.exp(1j * np.outer(offsets, xi)))
        return np.abs(grid.real.T.ravel()) / math.pi

    out = inversion(starts, offsets)[:x_grid.size]
    i = int(np.argmax(out))
    best = float(out[i])
    if 0 < i < x_grid.size - 1:
        # one parabolic refinement of the grid argmax
        y0, y1, y2 = out[i - 1], out[i], out[i + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom < 0.0:
            shift = 0.5 * (y0 - y2) / denom
            x_ref = x_grid[i] + shift * (x_grid[i + 1] - x_grid[i])
            best = max(best, float(inversion(np.array([x_ref]), np.zeros(1))[0]))
    return best


@dataclass
class DecayReport:
    """Measured sup-norm decay against the moment-weighted bound."""

    sigma: int
    times: list
    measured_sup: list
    bounds: list
    fitted_rate: float
    rate_bound: float
    distance: float
    details: dict = field(default_factory=dict)


def decay_rate_check(phi_a: CharFn, phi_b: CharFn, p: float, alpha: float,
                     sigma: int = 0, times=(4.0, 8.0, 16.0, 32.0, 64.0),
                     spec: QuadratureSpec | None = None) -> DecayReport:
    """Fit the decay rate of the solution sup-distance and check the bound.

    The bound is ``A t**(-(alpha+d+sigma)/p) rho`` with rho the integral
    distance of the initial data and A the optimal constant; the fitted
    log-log slope of the measured sups accompanies the bound's exponent.
    Initial data must be one-dimensional with finite alpha-moments,
    0 < alpha < 1.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    spec = spec or QuadratureSpec()
    rho = integral_distance(phi_a, phi_b, alpha, spec).value
    const = refined_decay_constant(sigma, p, alpha, 1)
    times = [float(t) for t in times]
    measured = []
    bounds = []
    for t in times:
        measured.append(derivative_sup_distance(phi_a, phi_b, p, t, sigma, spec=spec))
        bounds.append(const * t ** (-(alpha + 1.0 + sigma) / p) * rho)
    finite = [(t, m) for t, m in zip(times, measured) if m > 0.0]
    if len(finite) >= 2:
        lt = np.log([t for t, _ in finite])
        lm = np.log([m for _, m in finite])
        fitted = float(np.polyfit(lt, lm, 1)[0])
    else:
        fitted = 0.0
    return DecayReport(
        sigma=sigma,
        times=times,
        measured_sup=measured,
        bounds=bounds,
        fitted_rate=fitted,
        rate_bound=-(alpha + 1.0 + sigma) / p,
        distance=rho,
        details={"constant": const},
    )


def small_time_check(initial: CharFn, p: float, t: float, alpha: float,
                     spec: QuadratureSpec | None = None):
    """Integral distance between the evolved and initial law, with its bound.

    The bound is ``(2 pi**(d/2) Gamma(1-alpha/p) / (alpha Gamma(d/2)))
    t**(alpha/p)`` times the sup of the initial transform, which is
    ``|phi(0)| = 1`` for every characteristic function.  Returns ``(rho,
    bound)``.
    """
    d = initial.dim
    limit = min(1.0, p) if p < 2.0 else 1.0
    if not 0.0 < alpha < limit:
        raise DomainError(f"alpha must lie in (0, {limit}) for p={p}")
    if t < 0.0:
        raise DomainError("time must be nonnegative")
    if t == 0.0:
        return 0.0, 0.0
    spec = spec or QuadratureSpec()
    rho = integral_distance(evolve(initial, p, t), initial, alpha, spec).value
    bound = (
        2.0
        * math.pi ** (d / 2.0)
        * gamma(1.0 - alpha / p)
        / (alpha * gamma(d / 2.0))
        * t ** (alpha / p)
    )
    return rho, bound
