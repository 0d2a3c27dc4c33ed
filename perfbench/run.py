"""cfmoments benchmark: seeded workloads, oracle-checked timings, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload smooth --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

One process, one client, closed loop: each op is issued only after the
previous one returns.  A run repeats whole passes over the workload's ops
until ``--seconds`` have elapsed (always at least one pass), so every run
times the same mix; short ops may be called several times per pass.  BLAS
is pinned to one thread.  README.md in this directory defines every metric.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` first repeats the
untraced loop, then runs it again with the span wrappers of ``spans.py``
installed and prints the per-layer metrics.  The last line of standard
output is one JSON object; a fuller record of the run, stamped with the
versions and the commit, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 5

# Printed and recorded, but not declared in BENCHMARK.json: both read 0 on
# `samples` and `heat`, and a declared end-to-end metric must never be 0.
UNDECLARED_UNITS = {"failed_frac": "fraction", "bar_misses": "count"}


def declared_metrics(trace):
    """Names and units of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def import_package():
    """Import cfmoments from this checkout's ``src``, never from elsewhere."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import cfmoments
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import cfmoments from {SRC}: {exc}")
    if SRC.resolve() not in Path(cfmoments.__file__).resolve().parents:
        sys.exit(f"perfbench: cfmoments came from {cfmoments.__file__}, not {SRC}")
    return cfmoments


# ------------------------------------------------------------------ loop


class OpRecord:
    """Latencies and the (deterministic) verdict of one op over a run."""

    def __init__(self, op):
        self.op = op
        self.latencies: list[float] = []
        self.verdict = None
        self.result = None


def call_and_check(op):
    """Time one call; judge it outside the timed region."""
    from oracles import Verdict

    start = time.perf_counter()
    try:
        result = op.call()
        error = None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        result, error = None, exc
    elapsed = time.perf_counter() - start
    if error is not None:
        verdict = Verdict(False, f"{type(error).__name__}: {error}"[:200], oracle="raised")
    else:
        try:
            verdict = op.check(result)
        except Exception as exc:
            verdict = Verdict(False, f"check failed: {type(exc).__name__}: {exc}"[:200])
    return elapsed, result, verdict


def schedule(ops):
    """One pass: every op once in order, with the extra calls of repeated
    ops spread evenly between them, so a short op's median covers the whole
    pass rather than one burst of the machine's load."""
    extra = [op for r in range(1, max(op.repeat for op in ops))
             for op in ops if op.repeat > r]
    plan = []
    for i, op in enumerate(ops):
        plan.append(op)
        plan += extra[i * len(extra) // len(ops):(i + 1) * len(extra) // len(ops)]
    return plan


def run_loop(ops, seconds):
    """Whole passes over ``ops`` until ``seconds`` have elapsed."""
    records = {op.id: OpRecord(op) for op in ops}
    plan = schedule(ops)
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for op in plan:
            elapsed, result, verdict = call_and_check(op)
            rec = records[op.id]
            rec.latencies.append(elapsed)
            if rec.verdict is None:
                rec.verdict, rec.result = verdict, result
        passes += 1
    check_mirrors(records)
    return records, passes


def check_mirrors(records):
    """rho(a, b) and rho(b, a) must agree within the reported integral error."""
    for rec in records.values():
        other = records.get(rec.op.mirror_of) if rec.op.mirror_of else None
        if other is None or not (rec.verdict.ok and other.verdict.ok):
            continue
        va, vb = rec.verdict.value, other.verdict.value
        bar = max(rec.verdict.error_estimate or 0.0, other.verdict.error_estimate or 0.0)
        rec.verdict.oracle = other.verdict.oracle = "symmetry"
        if abs(va - vb) > bar:
            for r in (rec, other):
                r.verdict.ok = False
                r.verdict.reason = f"rho(a,b)={va!r} vs rho(b,a)={vb!r}, bar {bar:.3g}"


def percentile_tail(latencies, passes):
    """Highest percentile with at least ten calls of each pass beyond it:
    (value, pct, n) over every call of the run.

    With N calls per pass the percentile is 100 (N - 10) / N, so it is fixed
    by the op mix; over P passes the value has 10 P calls beyond it.  On a
    one-pass run that is the highest percentile with ten calls beyond it.
    """
    xs = sorted(latencies)
    n = len(xs)
    per_pass = n // passes
    if per_pass <= 10:
        return xs[-1], 100.0, n
    return xs[n - 10 * passes - 1], 100.0 * (per_pass - 10) / per_pass, n


def end_to_end(records, passes, setup_s):
    """The end-to-end metrics of one run.

    Throughput and the medians take every op once, at its median latency,
    so neither the number of passes nor an op's calls per pass weigh in;
    the tail is taken over every call.
    """
    from workloads import KINDS

    op_ms = {rec.op.id: statistics.median(rec.latencies) * 1e3 for rec in records.values()}
    attempted = sum(len(r.latencies) for r in records.values())
    failed_all = sum(len(r.latencies) for r in records.values() if not r.verdict.ok)
    bar_misses = sum(1 for r in records.values() if r.verdict.bar_miss)  # distinct results
    tail, pct, n = percentile_tail(
        [1e3 * x for r in records.values() for x in r.latencies], passes)
    m = {
        "solves_per_s": len(op_ms) / (sum(op_ms.values()) / 1e3),
        "latency_p50_ms": statistics.median(op_ms.values()),
        "latency_tail_ms": tail,
    }
    for kind in KINDS:
        xs = [op_ms[r.op.id] for r in records.values() if r.op.kind == kind]
        m[f"{kind}_p50_ms"] = statistics.median(xs) if xs else math.nan
    m["failed_frac"] = failed_all / attempted
    m["bar_misses"] = bar_misses
    m["setup_s"] = setup_s
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m, {"tail_percentile": pct, "tail_samples": n}


# A ledger op whose relative error grows past this factor of the recorded
# one fails worse than it did; below it the change is rounding.
WORSE_FACTOR = 1.25


def ledger_breach(rec, workload):
    """Why an op's outcome is outside the ledgers of workloads.py, or None."""
    from workloads import KNOWN_BAR_MISSES, KNOWN_DEFECTS

    v = rec.verdict
    if v.bar_miss and rec.op.id not in KNOWN_BAR_MISSES[workload]:
        return f"bar miss: error {v.true_error:.3g} over estimate {v.error_estimate:.3g}"
    if v.ok:
        return None
    defect = KNOWN_DEFECTS[workload].get(rec.op.id)
    if defect is None:
        return v.reason
    raised = v.oracle == "raised"
    if defect.raised is not None:
        if not (raised and v.reason.startswith(defect.raised + ":")):
            return f"{v.reason}; was {defect.raised}"
    elif raised or v.rel_error is None:
        return f"{v.reason}; was relative error {defect.rel_error:.3g}"
    elif v.rel_error > WORSE_FACTOR * defect.rel_error:
        return f"relative error {v.rel_error:.3g}, was {defect.rel_error:.3g}"
    return None


def unexpected_failures(records, workload):
    """Ops that fail outside the ledgers, with the reason."""
    reasons = {op_id: ledger_breach(rec, workload) for op_id, rec in sorted(records.items())}
    return {op_id: why for op_id, why in reasons.items() if why is not None}


# ----------------------------------------------------------------- setup


def setup_probe(workload):
    """Child process: import, measure construction and one warm-up call per kind."""
    import_package()
    imported = time.perf_counter()
    import tempfile

    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(dir=RESULTS) as workdir:
        start = time.perf_counter()
        for op in WORKLOADS[workload][1](lambda phi: phi, workdir):
            call_and_check(op)
        warm = time.perf_counter() - start
    print(json.dumps({"setup_s": (imported - T_START) + warm}))


def measure_setup(workload):
    """Median over fresh processes, so the import is cold each time."""
    values = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload],
            capture_output=True, text=True, timeout=150, cwd=ROOT, check=True,
        )
        values.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(values), values


# ----------------------------------------------------------------- trace


def diagnostics_of(result):
    """The engine's public per-result diagnostics, wherever the result holds them."""
    if isinstance(result, tuple) and result:
        result = result[0]
    diag = getattr(result, "diagnostics", None) or getattr(result, "grid_report", None)
    if isinstance(diag, dict) and "seminorm" in diag:
        diag = diag["seminorm"]
    return diag if isinstance(diag, dict) else {}


def per_layer(tracer, records, passes, overhead):
    st, calls, counts = tracer.self_time, tracer.calls, tracer.counts
    diag_sum = {"head_octaves": 0, "mid_panels": 0, "tail_starts": 0.0}
    for rec in records.values():
        diag = diagnostics_of(rec.result)
        n = len(rec.latencies)
        diag_sum["head_octaves"] += n * diag.get("origin_octaves", 0)
        diag_sum["mid_panels"] += n * diag.get("n_panels", 0)
        # octaves up to the radius where the tail starts: each extension of
        # the mid region doubles it
        if "tail_start" in diag:
            diag_sum["tail_starts"] += n * math.log2(diag["tail_start"])
    points = counts.get("quadrature.points", 0.0)
    raw = {
        "charfn.eval_calls": calls.get("charfn.eval", 0),
        "charfn.eval_points": counts.get("charfn.eval_points", 0.0),
        "charfn.eval_self_s": st.get("charfn.eval", 0.0),
        "moment_engine.assembly_self_s": st.get("moment_engine.assembly", 0.0),
        "moment_engine.self_s": st.get("moment_engine.public", 0.0),
        "moment_engine.head_octaves": diag_sum["head_octaves"],
        "moment_engine.mid_panels": diag_sum["mid_panels"],
        "moment_engine.tail_starts": diag_sum["tail_starts"],
        "quadrature.panel_calls": counts.get("quadrature.panel_calls", 0.0),
        "quadrature.panels": counts.get("quadrature.final_panels", 0.0),
        "quadrature.points": points,
        "quadrature.self_s": st.get("quadrature.panels", 0.0)
        + st.get("quadrature.inner_integrand", 0.0) + st.get("quadrature.fixed_nodes", 0.0),
        "quadrature.unconverged": counts.get("quadrature.unconverged", 0.0),
        "quadrature.origin_fits": counts.get("quadrature.origin_fits", 0.0),
        "quadrature.origin_self_s": st.get("quadrature.origin", 0.0),
        "quadrature.trig_tail_calls": calls.get("quadrature.trig_tail", 0),
        "quadrature.trig_tail_self_s": st.get("quadrature.trig_tail", 0.0),
        "specfun.trig_power_tail_calls": calls.get("specfun.trig_power_tail", 0),
        "metrics.self_s": st.get("metrics.public", 0.0),
        "heat.self_s": st.get("heat.public", 0.0),
        "heat.inversion_points": counts.get("heat.inversion_points", 0.0),
        "cli.self_s": st.get("cli.main", 0.0),
    }
    out = {k: v / passes for k, v in raw.items()}
    out["quadrature.kept_point_ratio"] = (
        15.0 * counts.get("quadrature.final_panels", 0.0) / points if points else 0.0
    )
    out["trace.overhead_frac"] = overhead
    return out


# ----------------------------------------------------------------- stamp


def stamp(workload, seed, trace):
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "cfmoments").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, else the pinned setting."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def op_rows(records, workload):
    from workloads import KNOWN_BAR_MISSES, KNOWN_DEFECTS

    rows = []
    for rec in records.values():
        v = rec.verdict
        defect = KNOWN_DEFECTS[workload].get(rec.op.id)
        rows.append({
            "id": rec.op.id,
            "kind": rec.op.kind,
            "calls": len(rec.latencies),
            "median_ms": statistics.median(rec.latencies) * 1e3,
            "latencies_ms": [x * 1e3 for x in rec.latencies],
            "value": v.value if isinstance(v.value, (int, float, str, type(None))) else str(v.value),
            "error_estimate": v.error_estimate,
            "true_error": v.true_error,
            "rel_error": v.rel_error,
            "oracle": v.oracle,
            "ok": v.ok,
            "bar_miss": v.bar_miss,
            "reason": v.reason,
            "known_defect": vars(defect) if defect else None,
            "known_bar_miss": rec.op.id in KNOWN_BAR_MISSES[workload],
            "ledger_breach": ledger_breach(rec, workload),
        })
    return rows


# ------------------------------------------------------------------ main


def build(workload, seed, wrap, workdir):
    from workloads import WORKLOADS

    make, warmup = WORKLOADS[workload]
    return make(seed, wrap, workdir), warmup(wrap, workdir)


def bench(args):
    workdir = RESULTS / f"work-{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    identity = lambda phi: phi  # noqa: E731
    setup_values = []
    if not args.trace:
        setup_s, setup_values = measure_setup(args.workload)

    ops, warm = build(args.workload, args.seed, identity, str(workdir))
    for op in warm:
        call_and_check(op)
    records, passes = run_loop(ops, args.seconds)
    record = {"stamp": stamp(args.workload, args.seed, args.trace), "passes": passes}

    if args.trace:
        from spans import Tracer

        untraced_sps = end_to_end(records, passes, 0.0)[0]["solves_per_s"]
        tracer = Tracer()
        tracer.install()
        try:
            ops, _ = build(args.workload, args.seed, tracer.wrap_charfn, str(workdir))
            records, passes = run_loop(ops, args.seconds)
        finally:
            tracer.restore()
        traced_sps = end_to_end(records, passes, 0.0)[0]["solves_per_s"]
        metrics = per_layer(tracer, records, passes, untraced_sps / traced_sps - 1.0)
        spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.npz"
        tracer.write(spans_path)
        record.update(traced_passes=passes, spans=spans_path.name, spans_recorded=len(tracer.span_start))
    else:
        metrics, tail_info = end_to_end(records, passes, setup_s)
        record.update(tail_info, setup_probes_s=setup_values)

    unexpected = unexpected_failures(records, args.workload)
    attempted = sum(len(r.latencies) for r in records.values())
    failed = sum(len(records[i].latencies) for i in unexpected)
    record.update(metrics=metrics, unexpected_failures=unexpected,
                  ops=op_rows(records, args.workload))
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1, default=float)

    declared = declared_metrics(args.trace)
    units = {**UNDECLARED_UNITS, **declared}
    for name, value in metrics.items():
        extra = ""
        if name == "latency_tail_ms":
            extra = f"  (p{record['tail_percentile']:.1f} of {record['tail_samples']} calls)"
        print(f"{args.workload:8s} {name:32s} {value:14.6g} {units[name]}{extra}")
    for op_id, reason in unexpected.items():
        print(f"UNEXPECTED FAILURE {op_id}: {reason}")
    print(f"{args.workload:8s} passes {passes}, record {out_path.relative_to(ROOT)}")

    summary = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": unit}
                    for k, unit in declared.items()},
    }
    print(json.dumps(summary))


def self_check():
    """Oracle sanity checks and the expected set of failing ops, one pass each."""
    import tempfile

    import numpy as np

    import cfmoments as cfm
    from cfmoments import mc_oracle, metrics, specfun
    from oracles import gaussian_moment, noncentral_gaussian_moment, rho_identity
    from workloads import KNOWN_DEFECTS, WORKLOADS

    problems = []
    # 1F1 heat oracle against Monte Carlo at 1e5 draws
    t = 0.5
    for d, a in ((1, [0.9]), (2, [0.6, -0.8]), (3, [0.3, 1.1, -0.4])):
        for alpha in (0.5, 1.5):
            z = mc_oracle.sample_gaussian(t, d, 100_000, 17 + d)
            moved = mc_oracle.SampleSet(z.points + np.asarray(a), z.seed, z.family)
            est, se = mc_oracle.mc_moment(moved, alpha)
            exact = noncentral_gaussian_moment(t, [a], [1.0], alpha)
            ok = abs(est - exact) <= 3.0 * se
            print(f"1F1 vs MC  d={d} alpha={alpha}: {exact:.10g} vs {est:.10g} +- {se:.2g}"
                  f"  {'ok' if ok else 'FAIL'}")
            if not ok:
                problems.append(f"1F1 d={d} alpha={alpha}")
    # rho identity against the engine
    cases = [(cfm.make_gaussian(1.0, d), 0.5, gaussian_moment(1.0, d, 0.5)) for d in (1, 2, 3)]
    cases += [(cfm.make_stable(1.5, 1.0, 2), 0.7, cfm.closed_forms.stable_moment(1.5, 0.7, 2)),
              (cfm.make_linnik(1.0, 1.0, 1), 0.4, cfm.closed_forms.linnik_moment(1.0, 1.0, 0.4, 1))]
    for phi, alpha, moment in cases:
        delta = cfm.make_point_mass(np.zeros(phi.dim))
        engine = metrics.integral_distance(phi, delta, alpha).value
        identity = rho_identity(moment, alpha, phi.dim, specfun.difference_integral_constant)
        ok = abs(engine - identity) <= 1e-8 * identity
        print(f"rho identity {phi.label} alpha={alpha}: {identity:.12g} vs engine {engine:.12g}"
              f"  {'ok' if ok else 'FAIL'}")
        if not ok:
            problems.append(f"rho {phi.label}")
    # one pass per workload reproduces exactly the ledger of failing ops, no
    # ledger op fails worse than recorded, and bar misses stay in their ledger
    with tempfile.TemporaryDirectory(dir=RESULTS) as workdir:
        for name, (make, _) in WORKLOADS.items():
            ops = make(0, lambda phi: phi, workdir)
            records, _ = run_loop(ops, 0.0)
            failing = {r.op.id for r in records.values() if not r.verdict.ok}
            expected = set(KNOWN_DEFECTS[name])
            misses = {r.op.id for r in records.values() if r.verdict.bar_miss}
            breaches = unexpected_failures(records, name)
            print(f"{name}: {len(ops)} ops, {len(failing)} failing, {len(misses)} bar misses")
            for op_id in sorted(failing | expected | misses):
                if op_id not in records:
                    tag, reason = "MISMATCH", "not in workload"
                else:
                    bad = (op_id in failing) != (op_id in expected) or op_id in breaches
                    tag = "MISMATCH" if bad else "ok"
                    reason = breaches.get(op_id) or records[op_id].verdict.reason or "bar miss"
                print(f"  {tag:8s} {op_id}: {reason}")
            if failing != expected:
                problems.append(f"{name} failing set differs from the ledger")
            if breaches:
                problems.append(f"{name} fails outside its ledgers")
    print("self-check " + ("passed" if not problems else "FAILED: " + "; ".join(problems)))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("smooth", "samples", "heat"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    RESULTS.mkdir(exist_ok=True)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    import_package()
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    bench(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
