"""Transform-side probability metrics, seminorms and the membership classifier.

Sup-type quantities (uniform distance, Holder-weighted distance, the
difference Holder sup) are grid suprema over logarithmic radii times sphere
directions with one local refinement pass; true suprema over R^d are not
computable and every result carries its grid report so callers can
tighten.  Integral-type seminorms and membership take their integrand from
the moment engine's
:func:`~cfmoments.moment_engine.difference_profile` with the absolute value
taken inside the angular mean, and the derivative seminorm from its
:func:`~cfmoments.moment_engine.derivative_profile`, the same angular mean
over a derivative reader; all of them share the engine's head, panels and
tail strategies.  The membership classifier combines three signals, all
read from the engine's own pass and its diagnostics: the exponent of the
origin head model, stabilization of the last octaves the mid panels added
before the tail, and sign consistency of the implied moment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charfn import CharFn, make_point_mass
from .errors import DivergenceSuspectedError, DomainError
from .moment_engine import absolute_moment, derivative_profile, difference_profile
from .quadrature import QuadratureSpec, sphere_rule
from .specfun import binomial_difference_coefficients, difference_integral_constant

__all__ = [
    "GridSpec",
    "MetricResult",
    "MembershipReport",
    "sup_distance",
    "holder_distance",
    "holder_seminorm",
    "difference_holder_sup",
    "difference_seminorm",
    "integral_distance",
    "composite_metric",
    "membership",
    "derivative_seminorm",
]

_ONE = {}


def _const_one(d):
    if d not in _ONE:
        _ONE[d] = make_point_mass(np.zeros(d))
    return _ONE[d]


@dataclass
class GridSpec:
    """Evaluation grid for sup-type metrics."""

    n_radial: int = 96
    r_min: float = 1e-6
    r_max: float = 1e6
    sphere_order: int = 32
    refine_nodes: int = 32

    def __post_init__(self):
        if not 0 < self.r_min < self.r_max:
            raise DomainError("need 0 < r_min < r_max")
        if self.n_radial < 8 or self.refine_nodes < 4:
            raise DomainError("grid too coarse")


@dataclass
class MetricResult:
    """Metric value with its component breakdown and grid diagnostics."""

    value: float
    sup_component: float = 0.0
    integral_component: float = 0.0
    grid_report: dict = field(default_factory=dict)


@dataclass
class MembershipReport:
    """Classification of a transform against a finite-moment class."""

    classification: str            # finite | divergence-suspected
    integral_value: float | None
    origin_slope: float | None     # exponent of the engine's origin head model
    tail_contribution: float | None
    details: dict = field(default_factory=dict)


def _pair_magnitude(phi, psi):
    """``|phi - psi|`` at an array of points."""
    def magnitude(pts):
        return np.abs(np.asarray(phi.minus_one(pts)) - np.asarray(psi.minus_one(pts)))
    return magnitude


def _grid_sup(magnitude, d, weight_exponent, grid):
    """Sup of ``magnitude / r**weight_exponent`` over the grid of radii
    times directions in R^d, refined once around the best grid point."""
    radii = np.geomspace(grid.r_min, grid.r_max, grid.n_radial)
    nodes, _ = sphere_rule(d, grid.sphere_order) if d > 1 else (np.array([[1.0]]), None)
    best = -1.0
    best_r_idx = 0
    best_node = nodes[0]
    for node in nodes:
        pts = radii[:, None] * node[None, :]
        vals = magnitude(pts) / radii**weight_exponent
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            best_r_idx = i
            best_node = node
    lo = radii[max(best_r_idx - 1, 0)]
    hi = radii[min(best_r_idx + 1, radii.size - 1)]
    fine = np.geomspace(lo, hi, grid.refine_nodes)
    pts = fine[:, None] * best_node[None, :]
    vals = magnitude(pts) / fine**weight_exponent
    refined = float(vals.max())
    i_fine = int(np.argmax(vals))
    report = {
        "n_radial": grid.n_radial,
        "n_angular": len(nodes),
        "refine_nodes": grid.refine_nodes,
        "argmax_radius": float(fine[i_fine]) if refined >= best else float(radii[best_r_idx]),
        "refined_gain": max(refined - best, 0.0),
    }
    return max(best, refined), report


def sup_distance(phi: CharFn, psi: CharFn, grid: GridSpec | None = None) -> MetricResult:
    """Uniform distance ``sup |phi - psi|`` over the evaluation grid."""
    if phi.dim != psi.dim:
        raise DomainError("dimension mismatch")
    grid = grid or GridSpec()
    val, report = _grid_sup(_pair_magnitude(phi, psi), phi.dim, 0.0, grid)
    return MetricResult(val, sup_component=val, grid_report=report)


def holder_distance(phi: CharFn, psi: CharFn, beta: float,
                    grid: GridSpec | None = None) -> MetricResult:
    """Weighted sup ``sup |phi - psi| / |xi|**beta`` for 0 < beta < 2.

    At beta >= 2 only the constant transform keeps the functional finite
    (the weighted class degenerates to a singleton), so that range errors.
    """
    if phi.dim != psi.dim:
        raise DomainError("dimension mismatch")
    if not 0.0 < beta < 2.0:
        raise DomainError(
            f"beta={beta} outside (0, 2): the weighted sup class degenerates "
            "at beta >= 2"
        )
    grid = grid or GridSpec()
    val, report = _grid_sup(_pair_magnitude(phi, psi), phi.dim, beta, grid)
    return MetricResult(val, sup_component=val, grid_report=report)


def holder_seminorm(phi: CharFn, beta: float, grid: GridSpec | None = None) -> float:
    """``sup |Delta_xi phi(0)| / |xi|**beta`` (distance to the constant 1)."""
    return holder_distance(phi, _const_one(phi.dim), beta, grid).value


def difference_holder_sup(phi: CharFn, k: int, beta: float,
                          grid: GridSpec | None = None) -> float:
    """Grid sup of ``|Delta_xi^k phi(0)| / |xi|**beta``, refined once as
    :func:`holder_distance` is."""
    if not 0.0 < beta <= k:
        raise DomainError("need 0 < beta <= k")
    coeffs = binomial_difference_coefficients(k)

    def magnitude(pts):
        return np.abs(sum(coeffs[m] * np.asarray(phi.minus_one(m * pts)) for m in range(1, k + 1)))

    return _grid_sup(magnitude, phi.dim, beta, grid or GridSpec())[0]


def difference_seminorm(phi: CharFn, psi: CharFn, alpha: float, k: int,
                        spec: QuadratureSpec | None = None, *,
                        real_part: bool = False) -> MetricResult:
    """``int |Delta_xi^k (phi - psi)(0)| / |xi|**(d+alpha) dxi``.

    A pseudo-metric: it vanishes whenever the transforms agree.  With
    ``real_part=True`` the difference of the real parts is used instead.
    Raises :class:`DivergenceSuspectedError` when the integrand's origin
    growth cannot support the weight.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    if k < 1:
        raise DomainError("k must be at least 1")
    spec = spec or QuadratureSpec()
    profile = difference_profile(phi, psi, k=k, spec=spec,
                                 part="real" if real_part else "complex", magnitude=True)
    value, error, diag = profile.integrate(alpha, spec)
    total = profile.angular * float(np.real(value))
    diag["integral_error"] = profile.angular * error
    return MetricResult(
        max(total, 0.0),
        integral_component=max(total, 0.0),
        grid_report=diag,
    )


def integral_distance(phi: CharFn, psi: CharFn, alpha: float,
                      spec: QuadratureSpec | None = None) -> MetricResult:
    """``int |phi - psi| / |xi|**(d+alpha) dxi`` for 0 < alpha < 1.

    Exactly the first-difference seminorm: the k = 1 difference of a
    transform pair at the origin is the pair difference itself.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("integral distance requires 0 < alpha < 1")
    return difference_seminorm(phi, psi, alpha, 1, spec)


_COMPOSITE_KINDS = ("D", "F", "G", "H")


def composite_metric(kind: str, phi: CharFn, psi: CharFn, alpha: float,
                     beta: float | None = None, k: int = 1,
                     spec: QuadratureSpec | None = None,
                     grid: GridSpec | None = None) -> MetricResult:
    """The four composite metrics: a sup part plus a difference seminorm.

    ``D``: uniform + seminorm; ``F``: Holder + seminorm; ``G``: uniform +
    real-part seminorm; ``H``: Holder + real-part seminorm.  The Holder
    variants require ``0 < beta <= min(alpha, 1)``; the real-part variants
    at integer ``alpha = k`` require odd k.
    """
    if kind not in _COMPOSITE_KINDS:
        raise DomainError(f"kind must be one of {_COMPOSITE_KINDS}")
    if kind in ("F", "H"):
        if beta is None or not 0.0 < beta <= min(alpha, 1.0):
            raise DomainError(
                f"kind {kind} requires 0 < beta <= min(alpha, 1); got beta={beta}"
            )
    real_part = kind in ("G", "H")
    if real_part and abs(alpha - round(alpha)) < 1e-9 and round(alpha) == k and k % 2 == 0:
        raise DomainError("integer alpha = k in a real-part metric needs odd k")
    if kind in ("D", "G"):
        sup = sup_distance(phi, psi, grid)
    else:
        sup = holder_distance(phi, psi, beta, grid)
    semi = difference_seminorm(phi, psi, alpha, k, spec, real_part=real_part)
    report = {"sup": sup.grid_report, "seminorm": semi.grid_report}
    return MetricResult(
        sup.value + semi.value,
        sup_component=sup.value,
        integral_component=semi.value,
        grid_report=report,
    )


def membership(phi: CharFn, alpha: float, k: int,
               spec: QuadratureSpec | None = None) -> MembershipReport:
    """Classify whether the difference integral marks a finite alpha-moment.

    All three signals come from the engine's one pass over the magnitude
    profile: the exponent of its origin head model (a slope at most
    ``alpha + 0.05`` means the head diverges), stabilization of the last two
    octaves its mid panels added before the tail (empty when the tail bound
    or the panel budget stopped the extension earlier), and sign
    consistency of the moment implied by the signed formula.  Numeric
    classification is inherently heuristic; the verdict says "suspected",
    not "proved".
    """
    spec = spec or QuadratureSpec()
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    profile = difference_profile(phi, k=k, spec=spec,
                                 part="real" if k % 2 == 1 else "complex", magnitude=True)
    details = {"slope_margin": 0.05}
    try:
        value, error, diag = profile.integrate(alpha, spec, slope_margin=0.05)
    except DivergenceSuspectedError as exc:
        return MembershipReport(
            "divergence-suspected", None, exc.slope, None,
            {**details, "reason": str(exc)},
        )
    slope = diag["origin_slope"]
    if not np.isfinite(error):
        return MembershipReport(
            "divergence-suspected", None, slope, None,
            {**details, "reason": "difference integral did not resolve numerically"},
        )
    integral_value = profile.angular * float(np.real(value))
    tail_contribution = profile.angular * diag["tail_value"]

    # stabilization over the engine's last two octaves before the tail
    increments = diag["octave_increments"]
    details["cutoff_increments"] = increments
    if increments and increments[1] > 1.05 * increments[0] + spec.abs_tol:
        return MembershipReport(
            "divergence-suspected", None, slope, tail_contribution,
            {**details, "reason": "truncated integral keeps growing"},
        )

    # sign consistency of the implied moment
    formula = "M13" if k % 2 == 1 else "M12"
    try:
        mom = absolute_moment(phi, alpha, spec, k=k, formula=formula)
        details["implied_moment"] = mom.value
        details["moment_upper_bound"] = integral_value / abs(
            difference_integral_constant(k, alpha, phi.dim)
        )
    except DivergenceSuspectedError as exc:
        return MembershipReport(
            "divergence-suspected", integral_value, slope, tail_contribution,
            {**details, "reason": f"signed formula inconsistent: {exc}"},
        )
    return MembershipReport("finite", integral_value, slope, tail_contribution, details)


def derivative_seminorm(phi: CharFn, sigma, gamma: float,
                        spec: QuadratureSpec | None = None) -> float:
    """``int |partial^sigma phi(xi) - partial^sigma phi(0)| / |xi|**(d+gamma) dxi``.

    Requires the transform to expose an analytic derivative oracle.  The
    order-zero case reduces to the first-difference integral distance.
    """
    if not 0.0 < gamma < 1.0:
        raise DomainError("gamma must lie in (0, 1)")
    spec = spec or QuadratureSpec()
    if isinstance(sigma, (int, np.integer)):
        sigma = (int(sigma),)
    sigma = tuple(int(s) for s in sigma)
    if all(s == 0 for s in sigma):
        return integral_distance(phi, _const_one(phi.dim), gamma, spec).value
    if phi.derivative is None:
        raise DomainError(f"{phi.label} carries no derivative oracle")
    profile = derivative_profile(phi, sigma, spec=spec)
    value, error, diag = profile.integrate(gamma, spec)
    return max(profile.angular * float(np.real(value)), 0.0)
