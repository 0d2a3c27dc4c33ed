"""Batch command-line driver.

Each subcommand reads a JSON task config, builds the measures it names,
dispatches to the engines and writes a report (JSON or CSV).  Reports echo
the library version, a hash of the canonical config, and the difference
order / formula decisions so results can be audited against the moment
formulas' hypotheses.  Exit status: 0 on success, 2 on config errors
(every config problem surfaces as a ``DomainError`` where the config is
read), 3 on computation errors and on any other exception a computation
lets escape; failures emit a machine-readable error object.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from importlib import metadata

import numpy as np

from . import charfn, convolution, heat, mc_oracle, metrics, specfun
from .errors import DivergenceSuspectedError, DomainError, QuadratureError
from .measures import DiscreteMeasure, lacunary_measure
from .moment_engine import absolute_moment
from .quadrature import QuadratureSpec, adaptive_panel_integral, trig_tail_integral

_TASKS = ("moment", "metric", "membership", "heat", "convolve", "verify", "sample")


def _version():
    try:
        return metadata.version("cfmoments")
    except metadata.PackageNotFoundError:
        return "unknown"


def _config_hash(config) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


_REQUIRED = object()


def _field(obj, key, convert=None, default=_REQUIRED):
    """One config field, converted; a missing (or null) or malformed field
    is a config error (``DomainError``), never a stray ``KeyError``."""
    if obj.get(key) is None:
        if default is _REQUIRED:
            raise DomainError(f"config is missing {key!r}")
        return default
    try:
        return obj[key] if convert is None else convert(obj[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"config field {key!r}: {exc}") from exc


def _integer(v):
    """An integral JSON number; bools and fractions are refused, not cut."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"expected an integer, got {v!r}")
    if not float(v).is_integer():
        raise ValueError(f"expected an integer, got {v!r}")
    return int(v)


def _real(v):
    """A finite JSON number; bools, strings and non-finite values are
    refused, not read as numbers."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"expected a number, got {v!r}")
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {v!r}")
    return float(v)


def _float_list(v):
    return [_real(x) for x in (v if isinstance(v, list) else [v])]


def _floats(v):
    return np.array(_float_list(v))


def _object(v):
    if not isinstance(v, dict):
        raise TypeError("expected a JSON object")
    return v


def build_measure(spec_dict) -> charfn.CharFn:
    """Construct a transform from a declarative measure description."""
    if not isinstance(spec_dict, dict) or "family" not in spec_dict:
        raise DomainError("measure spec must be an object with a 'family' key")
    fam = spec_dict["family"]
    d = _field(spec_dict, "d", _integer, 1)
    if fam == "gaussian":
        return charfn.make_gaussian(_field(spec_dict, "t", _real, 1.0), d)
    if fam == "stable":
        return charfn.make_stable(
            _field(spec_dict, "p", _real), _field(spec_dict, "t", _real, 1.0), d
        )
    if fam == "linnik":
        return charfn.make_linnik(_field(spec_dict, "p", _real),
                                  _field(spec_dict, "beta", _real), d)
    if fam == "point_mass":
        return charfn.make_point_mass(_field(spec_dict, "point", _floats))
    if fam == "schoenberg":
        mixing = _field(spec_dict, "mixing", _object)
        measure = DiscreteMeasure(
            _field(mixing, "atoms", _floats).reshape(-1, 1),
            _field(mixing, "weights", _floats),
        )
        return charfn.make_schoenberg(measure, _field(spec_dict, "p", _real), d)
    if fam == "empirical":
        try:
            pts = mc_oracle.load_samples_csv(_field(spec_dict, "samples", str))
        except OSError as exc:
            raise DomainError(f"cannot read samples: {exc}") from exc
        return charfn.make_empirical(pts)
    if fam == "pathological":
        m = lacunary_measure(
            _field(spec_dict, "alpha", _real), _field(spec_dict, "terms", _integer, 8), d
        )
        return charfn.make_discrete(m, label=f"pathological(K={m.size})")
    if fam == "product":
        factors = [build_measure(s) for s in _field(spec_dict, "factors", list)]
        if len(factors) < 2:
            raise DomainError("product needs at least two factors")
        out = factors[0]
        for f in factors[1:]:
            out = charfn.make_product(out, f)
        return out
    if fam == "mixture":
        comps = [build_measure(s) for s in _field(spec_dict, "components", list)]
        return charfn.make_mixture(comps, _field(spec_dict, "weights", _floats))
    raise DomainError(f"unknown measure family {fam!r}")


def build_quadrature(config, tol_override=None) -> QuadratureSpec:
    q = dict(_field(config, "quadrature", _object, {}))
    if tol_override is not None:
        q["rel_tol"] = tol_override
    for key in ("rel_tol", "abs_tol", "r_split", "origin_cut"):
        if key in q:
            q[key] = _field(q, key, _real)
    try:
        return QuadratureSpec(**q)
    except TypeError as exc:
        # unknown keys, or values that do not compare as numbers
        raise DomainError(f"quadrature: {exc}") from exc


def _constants_row(k, alpha, d):
    row = {}
    if k is None:
        return row
    try:
        row["power_sum"] = specfun.power_difference_sum(k, alpha)
        row["normalizing_constant"] = specfun.moment_constant(k, alpha, d)
    except DomainError:
        pass
    try:
        row["kernel_integral"] = specfun.cosine_difference_integral(k, alpha)
    except DomainError:
        pass
    return row


def run_moment(config, spec, seed):
    phi = build_measure(_field(config, "measure"))
    alpha = _field(config, "alpha", _real)
    res = absolute_moment(
        phi,
        alpha,
        spec,
        k=_field(config, "k", _integer, None),
        formula=config.get("formula"),
        method=config.get("method", "auto"),
    )
    row = {
        "measure": phi.label,
        "alpha": alpha,
        "value": res.value,
        "error_estimate": res.error_estimate,
        "formula": res.formula,
        "k": res.k_used,
    }
    row.update(_constants_row(res.k_used, alpha, phi.dim))
    return [row]


def run_metric(config, spec, seed):
    kind = _field(config, "kind", str)
    a = build_measure(_field(config, "a"))
    b = build_measure(_field(config, "b"))
    k = _field(config, "k", _integer, 1)
    if kind == "d_inf":
        r = metrics.sup_distance(a, b)
    elif kind == "d_beta":
        r = metrics.holder_distance(a, b, _field(config, "beta", _real))
    elif kind == "seminorm":
        r = metrics.difference_seminorm(a, b, _field(config, "alpha", _real), k, spec)
    elif kind == "rho":
        r = metrics.integral_distance(a, b, _field(config, "alpha", _real), spec)
    else:
        # composite kinds; composite_metric rejects unknown ones
        r = metrics.composite_metric(
            kind, a, b, _field(config, "alpha", _real),
            _field(config, "beta", _real, None), k, spec,
        )
    return [{
        "kind": kind,
        "a": a.label,
        "b": b.label,
        "value": r.value,
        "sup_component": r.sup_component,
        "integral_component": r.integral_component,
        "k": k,
        "alpha": config.get("alpha"),
        "beta": config.get("beta"),
    }]


def run_membership(config, spec, seed):
    phi = build_measure(_field(config, "measure"))
    alpha = _field(config, "alpha", _real)
    k = _field(config, "k", _integer, 1)
    rep = metrics.membership(phi, alpha, k, spec)
    row = {
        "measure": phi.label,
        "alpha": alpha,
        "k": k,
        "classification": rep.classification,
        "integral_value": rep.integral_value,
        "origin_slope": rep.origin_slope,
        "tail_contribution": rep.tail_contribution,
        "reason": rep.details.get("reason"),
    }
    row.update(_constants_row(k, alpha, phi.dim))
    return [row]


def run_heat(config, spec, seed):
    check = _field(config, "check", str, "moment")
    initial = build_measure(_field(config, "initial"))
    p = _field(config, "p", _real)
    alpha = _field(config, "alpha", _real, 0.5)
    if check == "moment":
        rows = []
        for t in _field(config, "t", _float_list):
            res, bound, ok = heat.moment_propagation_check(initial, p, t, alpha, spec)
            rows.append({
                "check": check, "t": t, "alpha": alpha, "p": p,
                "moment": res.value, "error_estimate": res.error_estimate,
                "bound_core": bound, "within_cap": ok,
            })
        return rows
    if check == "decay":
        other = build_measure(_field(config, "b"))
        sigma = _field(config, "sigma", _integer, 0)
        times = _field(config, "t", _float_list, [4.0, 8.0, 16.0, 32.0, 64.0])
        rep = heat.decay_rate_check(initial, other, p, alpha, sigma, times, spec)
        return [{
            "check": check, "p": p, "alpha": alpha, "sigma": sigma,
            "times": rep.times, "measured_sup": rep.measured_sup,
            "bounds": rep.bounds, "fitted_rate": rep.fitted_rate,
            "rate_bound": rep.rate_bound, "distance": rep.distance,
        }]
    if check == "small-time":
        rows = []
        for t in _field(config, "t", _float_list):
            rho, bound = heat.small_time_check(initial, p, t, alpha, spec)
            rows.append({
                "check": check, "t": t, "alpha": alpha, "p": p,
                "distance": rho, "bound": bound,
            })
        return rows
    raise DomainError(f"unknown heat check {check!r}")


def run_convolve(config, spec, seed):
    a = build_measure(_field(config, "a"))
    b = build_measure(_field(config, "b"))
    alpha = _field(config, "alpha", _real)
    beta = _field(config, "beta", _real)
    rep = convolution.convolution_bound_report(a, b, alpha, beta, spec)
    return [{
        "a": a.label, "b": b.label, "alpha": alpha, "beta": beta,
        "gamma": rep.gamma, "moment": rep.lhs, "rhs_core": rep.rhs_core,
        "ratio": rep.ratio,
    }]


def run_sample(config, spec, seed):
    fam = _field(config, "family", str)
    n = _field(config, "n", _integer)
    use_seed = _field(config, "seed", _integer, seed if seed is not None else 0)
    if fam == "gaussian":
        s = mc_oracle.sample_gaussian(
            _field(config, "t", _real, 1.0), _field(config, "d", _integer, 1), n, use_seed
        )
    elif fam == "cauchy":
        s = mc_oracle.sample_isotropic_cauchy(_field(config, "d", _integer, 1), n, use_seed)
    elif fam == "stable":
        s = mc_oracle.sample_stable_1d(_field(config, "p", _real), n, use_seed)
    elif fam == "linnik":
        s = mc_oracle.sample_linnik_1d(
            _field(config, "p", _real), _field(config, "beta", _real), n, use_seed
        )
    else:
        raise DomainError(f"unknown sample family {fam!r}")
    out_csv = config.get("out_csv")
    if out_csv:
        try:
            mc_oracle.save_samples_csv(out_csv, s.points)
        except OSError as exc:
            raise DomainError(f"cannot write samples: {exc}") from exc
    est, se = mc_oracle.mc_moment(s, _field(config, "alpha", _real, 1.0))
    return [{
        "family": s.family, "n": n, "seed": use_seed, "csv": out_csv,
        "alpha": config.get("alpha", 1.0), "mc_moment": est, "stderr": se,
    }]


def _kernel_integral_quadrature(k, alpha):
    """Independent panel quadrature of the oscillatory kernel integral."""
    from .quadrature import oscillatory_breakpoints
    from .specfun import binomial_difference_coefficients, cosine_difference_kernel

    def f(r):
        return r ** (-1.0 - alpha) * cosine_difference_kernel(k, r)

    cut = 1e-6
    y0 = 12.0 * math.pi
    bp = oscillatory_breakpoints(cut, y0, float(k), per_octave=4)
    head, _, _, _ = adaptive_panel_integral(f, bp, 1e-12, 1e-14, 4096)
    # leading kernel behaviour closes the head below the cutoff:
    # ~ 2 (-1)^(k/2) r**k for even k, ~ k (-1)^((k+1)/2) r**(k+1) for odd k
    if k % 2 == 0:
        below = (-1.0) ** (k // 2) * 2.0 * cut ** (k - alpha) / (k - alpha)
    else:
        below = (-1.0) ** ((k + 1) // 2) * k * cut ** (k + 1 - alpha) / (k + 1 - alpha)
    coeffs = binomial_difference_coefficients(k)
    m = np.arange(1, k + 1)
    t, _ = trig_tail_integral(m * y0, alpha, "cos")
    tail = 2.0 * coeffs[0] * y0 ** (-alpha) / alpha + 2.0 * (coeffs[1:] * m**alpha) @ t
    return float(np.real(head)) + below + tail


def run_verify(config, spec, seed):
    """Fast invariant table over the library's cross-checkable identities."""
    rows = []

    def check(name, lhs, rhs, tol):
        err = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        rows.append({
            "check": name, "value": lhs, "reference": rhs,
            "rel_error": err, "tol": tol,
            "status": "pass" if err <= tol else "FAIL",
        })

    check("gamma_half", specfun.gamma(0.5), math.sqrt(math.pi), 1e-14)
    check("gamma_recurrence_7.3", specfun.gamma(8.3), 7.3 * specfun.gamma(7.3), 1e-13)
    check(
        "gamma_reflection_0.3",
        specfun.gamma(0.3) * specfun.gamma(0.7) * math.sin(0.3 * math.pi),
        math.pi,
        1e-13,
    )
    check("power_sum_zero", specfun.power_difference_sum(4, 2.0) + 1.0, 1.0, 1e-14)
    check("power_sum_factorial", specfun.power_difference_sum(3, 3.0), 6.0, 1e-14)
    for (kk, aa, dd) in [(1, 0.5, 1), (3, 2.5, 2), (2, 1.5, 3)]:
        check(
            f"reciprocal_constants_k{kk}_a{aa}_d{dd}",
            specfun.moment_constant(kk, aa, dd)
            * specfun.difference_integral_constant(kk, aa, dd),
            1.0,
            1e-12,
        )
    for (kk, aa) in [(1, 0.5), (2, 0.7), (3, 2.5)]:
        check(
            f"kernel_integral_k{kk}_a{aa}",
            _kernel_integral_quadrature(kk, aa),
            specfun.cosine_difference_integral(kk, aa),
            1e-7,
        )
    g = charfn.make_gaussian(1.0, 1)
    check(
        "moment_gaussian_a1",
        absolute_moment(g, 1.0, spec).value,
        2.0 / math.sqrt(math.pi),
        1e-8,
    )
    check(
        "moment_cauchy_a05",
        absolute_moment(charfn.make_stable(1.0, 1.0, 1), 0.5, spec).value,
        math.sqrt(2.0),
        1e-8,
    )
    xi = 0.83
    lhs = convolution.leibniz_difference(g, charfn.make_gaussian(2.0, 1), xi, 3)
    rhs = charfn.iterated_difference(
        charfn.make_product(g, charfn.make_gaussian(2.0, 1)), xi, 3
    )
    check("leibniz_k3", abs(lhs - rhs) + 1.0, 1.0, 1e-12)
    ev1 = heat.evolve(heat.evolve(g, 2.0, 0.3), 2.0, 0.7)
    ev2 = heat.evolve(g, 2.0, 1.0)
    pts = np.linspace(-4, 4, 17).reshape(-1, 1)
    check(
        "heat_semigroup",
        float(np.abs(ev1.evaluate(pts) - ev2.evaluate(pts)).max()) + 1.0,
        1.0,
        1e-14,
    )
    delta = charfn.make_point_mass([0.0])
    check(
        "rho_equals_seminorm_k1",
        metrics.integral_distance(g, delta, 0.5, spec).value,
        metrics.difference_seminorm(g, delta, 0.5, 1, spec).value,
        1e-12,
    )
    return rows


_RUNNERS = {
    "moment": run_moment,
    "metric": run_metric,
    "membership": run_membership,
    "heat": run_heat,
    "convolve": run_convolve,
    "sample": run_sample,
    "verify": run_verify,
}


def _emit(report, out, fmt):
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True, default=_json_default) + "\n"
    else:
        buf = io.StringIO()
        rows = report["rows"]
        keys = sorted({k for row in rows for k in row})
        writer = csv.DictWriter(buf, fieldnames=["task", "config_hash", "version"] + keys)
        writer.writeheader()
        for row in rows:
            flat = {
                k: json.dumps(v, default=_json_default) if isinstance(v, (list, dict)) else v
                for k, v in row.items()
            }
            writer.writerow({
                "task": report["task"],
                "config_hash": report["config_hash"],
                "version": report["version"],
                **flat,
            })
        text = buf.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_default(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"not JSON serializable: {type(v)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cfmoments",
        description="Moments and metrics of probability laws from their transforms",
    )
    parser.add_argument("task", choices=_TASKS)
    parser.add_argument("--config", help="path to the JSON task config")
    parser.add_argument("--out", help="report output path (default stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None,
                        help="override the quadrature relative tolerance")
    args = parser.parse_args(argv)

    try:
        if args.config:
            with open(args.config) as fh:
                config = json.load(fh)
        elif args.task == "verify":
            config = {}
        else:
            raise DomainError(f"task {args.task!r} requires --config")
        if not isinstance(config, dict):
            raise DomainError("the task config must be a JSON object")
    except (OSError, json.JSONDecodeError, DomainError) as exc:
        _emit_error("config", f"{exc}", args)
        return 2

    try:
        spec = build_quadrature(config, args.tol)
        rows = _RUNNERS[args.task](config, spec, args.seed)
    except DomainError as exc:
        _emit_error("config", f"{type(exc).__name__}: {exc}", args)
        return 2
    except (DivergenceSuspectedError, QuadratureError, ArithmeticError) as exc:
        _emit_error("computation", f"{type(exc).__name__}: {exc}", args)
        return 3
    except (KeyError, TypeError, ValueError) as exc:
        # config problems are DomainErrors by now: anything else is a bug
        _emit_error("internal", f"{type(exc).__name__}: {exc}", args)
        return 3

    report = {
        "version": _version(),
        "task": args.task,
        "config_hash": _config_hash(config),
        "seed": args.seed,
        "rows": rows,
    }
    try:
        _emit(report, args.out, args.format)
    except OSError as exc:
        _emit_error("config", f"cannot write the report: {exc}", args)
        return 2
    if args.task == "verify" and any(r["status"] != "pass" for r in rows):
        return 1
    return 0


def _emit_error(kind, message, args):
    obj = {"error": {"type": kind, "message": message, "task": args.task}}
    sys.stdout.write(json.dumps(obj) + "\n")


if __name__ == "__main__":
    sys.exit(main())
