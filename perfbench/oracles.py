"""Independent oracles and the per-op verdict.

Each timed op returns a result that one of the checks below judges against
a value the engine did not compute: a closed-form moment, an exact atom
sum, the non-central Gaussian moment, the rho identity, an expected
membership verdict, or a stated tolerance of the acceptance suite.  Ops
with no closed form are judged only on whether they raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as sp_gamma
from scipy.special import hyp1f1

# Relative rounding allowed to a closed-form oracle itself (gamma, 1F1,
# fsum of atoms) before a result's error bar counts as missed.
ORACLE_EPS = 1e-14


@dataclass
class Verdict:
    """Outcome of one op against its oracle."""

    ok: bool
    reason: str = ""
    oracle: str = ""
    value: object = None
    error_estimate: float | None = None
    true_error: float | None = None
    rel_error: float | None = None
    bar_miss: bool = False


def gaussian_moment(t: float, d: int, alpha: float) -> float:
    """E|X|^alpha for X ~ N(0, 2t I_d), the law with transform exp(-t|xi|^2)."""
    return (4.0 * t) ** (alpha / 2.0) * sp_gamma((d + alpha) / 2.0) / sp_gamma(d / 2.0)


def noncentral_gaussian_moment(t: float, atoms, weights, alpha: float) -> float:
    """E|a + Z|^alpha for Z ~ N(0, 2t I_d), averaged over weighted atoms a.

    ``(4t)^(alpha/2) Gamma((d+alpha)/2)/Gamma(d/2) 1F1(-alpha/2; d/2; -|a|^2/(4t))``:
    the alpha-moment of ``evolve(atoms, p=2, t)``.
    """
    pts = np.atleast_2d(np.asarray(atoms, dtype=float))
    d = pts.shape[1]
    r2 = (pts**2).sum(axis=1)
    per_atom = gaussian_moment(t, d, alpha) * hyp1f1(-alpha / 2.0, d / 2.0, -r2 / (4.0 * t))
    return math.fsum(np.asarray(weights, dtype=float) * per_atom)


def rho_identity(moment: float, alpha: float, d: int, difference_integral_constant) -> float:
    """rho(phi, delta_0) = M_alpha |C(1, alpha, d)| for a real symmetric law, 0 < alpha < 1."""
    return moment * abs(difference_integral_constant(1, alpha, d))


def _error_of(result):
    est = getattr(result, "error_estimate", None)
    if est is None:
        report = getattr(result, "grid_report", None) or {}
        est = report.get("integral_error")
    return est


def close_to(oracle: float, rel: float, kind: str, pick=None):
    """Value within ``rel`` of the oracle; a reported error bar must cover the error.

    ``pick`` selects the judged object from the op's return value (a
    ``MomentResult`` out of a tuple, a component of a composite metric, a
    CLI report row).
    """
    def check(result):
        obj = pick(result) if pick else result
        if isinstance(obj, dict):
            value, est = float(obj["value"]), obj.get("error_estimate")
        elif hasattr(obj, "value"):
            value, est = float(obj.value), _error_of(obj)
        else:
            value, est = float(obj), None
        err = abs(value - oracle)
        v = Verdict(True, oracle=kind, value=value, error_estimate=est, true_error=err,
                    rel_error=err / abs(oracle) if oracle else err)
        if not err <= rel * abs(oracle):
            v.ok, v.reason = False, f"off by {err:.3g} (tolerance {rel:g} relative)"
        if est is not None and err > est + ORACLE_EPS * abs(oracle):
            v.bar_miss = True
        return v
    return check


def verdict_is(expected: str):
    def check(report):
        got = report.classification
        v = Verdict(got == expected, oracle="verdict", value=got)
        if not v.ok:
            v.reason = f"classified {got!r}, expected {expected!r}"
        return v
    return check


def no_exception(result):
    """For ops with no closed form: returning at all is the pass condition."""
    value = getattr(result, "value", result)
    if isinstance(value, tuple):
        value = value[0]
    try:
        value = float(value)
    except (TypeError, ValueError):
        value = None
    return Verdict(True, oracle="no-exception", value=value, error_estimate=_error_of(result))


def predicate(kind: str, test, describe):
    """A boolean property of the result, named ``kind``."""
    def check(result):
        ok = bool(test(result))
        return Verdict(ok, reason="" if ok else describe(result), oracle=kind,
                       value=describe(result))
    return check
