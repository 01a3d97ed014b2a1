"""Benchmark of nlrecover: end-to-end metrics per workload, and a traced run
for the per-layer metrics.

    python3 perfbench/run.py --workload mask_rtr --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from `src/`. Each
workload is a fixed list of instances (see workloads.py). `--seed` shuffles
the order in which they are solved. An untraced run (`--trace 0`) solves them
one at a time, cycling through the list, until `--seconds` have passed and
every instance was solved at least once, and reports the end-to-end metrics
(set-up and solve times also scaled to a nominal host speed, see
REF_NOMINAL_S). A traced run (`--trace 1`) solves the list once untraced and once with every
layer span installed, checks that both passes give the same solver outcomes,
and reports the per-layer metrics. Each run prints a report, then one JSON
line with the metrics named in BENCHMARK.json. The exit code is 0 only if
every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy is first imported: at this benchmark's
# sizes it was faster than two on a 2-core box (see README.md), and it keeps
# the order of the arithmetic, so repeated solves give identical results.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3  # set-ups per instance in an untraced run; their median is reported
FEAS_TOL = 1e-9  # ||A(X) - b|| <= FEAS_TOL (1 + ||b||) on constrained solves
MONO_TOL = 1e-12  # f_{k+1} <= f_k + MONO_TOL (1 + |f_k|) along every trace
# A shared host's speed drifts by up to 40% between phases of tens of
# seconds, which moves every wall time alike. setup_s and solve_s therefore
# scale each solve's wall times by REF_NOMINAL_S over the mean time of a
# reference kernel run just before and just after it; the raw wall times are
# reported as setup_wall_s and solve_wall_s.
REF_NOMINAL_S = 0.006  # the reference kernel, run between solves, on a 2-core Xeon VM
UNITS = {
    "setup_s": "s", "solve_s": "s", "setup_wall_s": "s", "solve_wall_s": "s",
    "success_frac": "ratio", "rmse_median": "rmse", "fail_frac": "ratio",
    "unconverged_frac": "ratio", "peak_rss_mb": "MB",
}


_clock = time.perf_counter


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="workload name, or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import nlrecover from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "nlrecover" / "__init__.py").is_file():
        raise ImportError(f"no nlrecover package under {src}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    import nlrecover

    if Path(nlrecover.__file__).resolve().parent != (src / "nlrecover").resolve():
        raise ImportError(f"nlrecover was imported from {nlrecover.__file__}, not {src}")


# ---------------------------------------------------------------------------
# one instance
# ---------------------------------------------------------------------------


def check_records(records) -> list[str]:
    """Invariants every solver call must satisfy; returns the failures."""
    import numpy as np

    failed = []
    for j, rec in enumerate(records):
        if not np.isfinite(rec.f_final):
            failed.append(f"call {j} ({rec.solver}): final f is not finite")
        f_vals = [r.f for r in rec.trace.records]
        for k, (f1, f2) in enumerate(zip(f_vals, f_vals[1:])):
            if f2 > f1 + MONO_TOL * (1 + abs(f1)):
                failed.append(f"call {j} ({rec.solver}): f rose at k={k + 1}: {f1!r} -> {f2!r}")
                break
        if rec.obj.constrained:
            meas = rec.obj.measurement
            resid = float(np.linalg.norm(meas.residual(rec.point.x)))
            tol = FEAS_TOL * (1 + float(np.linalg.norm(meas.b)))
            if not resid <= tol:
                failed.append(f"call {j} ({rec.solver}): ||A(X)-b|| = {resid:.3e} > {tol:.3e}")
    return failed


def run_instance(wl, key, log, setup_repeats=SETUP_REPEATS, tracer=None) -> dict:
    """Set up and solve one instance; with a tracer, only set-up and solve
    are traced, not the checks."""
    if tracer is not None:
        tracer.install()
    try:
        setup_s = []
        for _ in range(setup_repeats):
            t0 = _clock()
            inst = wl.setup(key)
            setup_s.append(_clock() - t0)
        first = len(log.records)
        error = None
        t0 = _clock()
        try:
            outcome = wl.solve(inst)
        except Exception as exc:  # reported as a failed instance, never dropped
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        solve_s = _clock() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_s = statistics.median(setup_s)
    if wl.setup_in_solve:
        solve_s -= setup_s
    records = log.records[first:]
    del log.records[first:]  # keep no solver state across instances
    invariant_fails = check_records(records)
    if error is not None:
        invariant_fails.append(f"raised {error}")
    return {
        "key": key,
        "setup_s": setup_s,
        "solve_s": solve_s,
        "outcome": outcome,
        "invariant_fails": invariant_fails,
        "calls": [r.outcome() for r in records],
        "trace_records": records if tracer is not None else None,
    }


def describe_instance(wl, row) -> list[str]:
    key, out = row["key"], row["outcome"]
    statuses = " ".join(f"{c[1]}({c[2]}/{c[3]})" for c in row["calls"])
    lines = [f"# {wl.name} key={key} setup {row['setup_s']:.4f} s "
             f"solve {row['solve_s']:.3f} s calls(status(outer/inner)): {statuses}"]
    if out is not None:
        lines.append(f"#   ok accuracy: {out.detail}" if out.accurate
                     else f"CHECK FAIL {wl.name} key={key}: accuracy: {out.detail}")
    lines += [f"CHECK FAIL {wl.name} key={key}: {msg}" for msg in row["invariant_fails"]]
    return lines


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def environment(seed: int, keys) -> list[str]:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return [
        f"# env cpu: {cpu}; nproc: {len(os.sched_getaffinity(0))}; "
        f"platform: {platform.platform()}",
        f"# env blas: {blas}; threads pinned to {BLAS_THREADS} (OPENBLAS/OMP/MKL_NUM_THREADS): "
        "one thread solved mask_rtr's first four instances in 5.5 s against 6.3 s with two "
        "on a 2-core Xeon, and keeps the arithmetic order fixed",
        f"# env python {platform.python_version()}; numpy {np.__version__}; "
        f"scipy {scipy.__version__}; commit {git_commit()}",
        f"# env seed {seed}; instance keys {list(keys)}",
    ]


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def status_histogram(calls) -> dict:
    hist = {"grad_tol": 0, "max_iter": 0, "stalled": 0}
    for c in calls:
        hist[c[1]] = hist.get(c[1], 0) + 1
    return hist


def status_lines(wl, rows) -> list[str]:
    calls = [c for row in rows for c in row["calls"]]
    lines = [f"# status histogram ({len(calls)} solver calls): "
             + " ".join(f"{k}={v}" for k, v in status_histogram(calls).items())]
    if wl.name == "noise_ladder":
        from workloads import LADDER

        lam = LADDER["lam0"]
        for j in range(LADDER["steps"]):
            rung = [row["calls"][j] for row in rows if len(row["calls"]) > j]
            hist = " ".join(f"{k}={v}" for k, v in status_histogram(rung).items() if v)
            iters = ",".join(f"{c[2]}/{c[3]}" for c in rung)
            lines.append(f"#   rung {j:2d} lambda={lam:.0e}: {hist} (outer/inner {iters})")
            lam *= LADDER["factor"]
    return lines


def first_solves(rows) -> list[dict]:
    """One row per instance: its first solve (repeats are deterministic)."""
    seen = {}
    for row in rows:
        seen.setdefault(row["key"], row)
    return list(seen.values())


def per_instance_mean(rows, field) -> float:
    """Mean over the instances of each instance's median time in the run."""
    samples = {}
    for row in rows:
        samples.setdefault(row["key"], []).append(row[field])
    return statistics.fmean(statistics.median(v) for v in samples.values())


def reference_kernel():
    """A fixed mix of work that does not touch nlrecover, shaped like the
    solvers' own: small GEMMs, matrix-vector products, and small-array numpy
    calls in a Python loop. Returns a function that times one run of it; run
    between solves, it meets the caches as the solves do."""
    import numpy as np

    rng = np.random.default_rng(0)
    gemm, gemv = rng.standard_normal((150, 150)), rng.standard_normal((360, 400))
    vec, small = rng.standard_normal(400), rng.standard_normal((10, 40))

    def timed() -> float:
        t0 = _clock()
        for _ in range(10):
            gemm @ gemm
        for _ in range(50):
            gemv @ vec
        y = small
        for _ in range(500):
            y = 0.5 * (y + small) - 0.1 * small
            float(np.vdot(y, small))
        return _clock() - t0

    return timed


def end_to_end(rows, log) -> dict:
    firsts = first_solves(rows)
    calls = [c for row in firsts for c in row["calls"]]
    ok = [row["outcome"] is not None and row["outcome"].accurate and not row["invariant_fails"]
          for row in firsts]
    rmses = [row["outcome"].rmse for row in firsts if row["outcome"] is not None]
    return {
        "setup_s": per_instance_mean(rows, "setup_scaled_s"),
        "solve_s": per_instance_mean(rows, "solve_scaled_s"),
        "setup_wall_s": per_instance_mean(rows, "setup_s"),
        "solve_wall_s": per_instance_mean(rows, "solve_s"),
        "success_frac": sum(ok) / len(firsts),
        "rmse_median": statistics.median(rmses) if rmses else float("nan"),
        "fail_frac": log.failed / max(log.attempted, 1),
        "unconverged_frac": sum(c[1] in ("max_iter", "stalled") for c in calls) / max(len(calls), 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


LAYER_SPAN_METRICS = (
    "lifting.kernel", "lifting.grad", "lifting.hess_build", "lifting.hess_apply",
    "objective.cost", "objective.rgrad", "objective.hess_build", "objective.hess_apply",
    "manifold.meas_apply", "manifold.meas_adjoint", "manifold.meas_project",
    "manifold.retract", "manifold.tangent_arith", "solvers.tcg", "solvers.armijo",
    "solvers.svd_exact", "solvers.svd_rand", "synth.kmeans",
)


def per_layer(tracer, records, overhead_s: float) -> tuple[dict, set]:
    """Per-layer metrics of the traced pass and the names that do not apply
    to this workload (a zero denominator or a layer it never calls)."""
    from nlrecover.solvers import RtrConfig

    calls, self_s, n = tracer.calls, tracer.self_s, tracer.counts
    outer = sum(r.outer for r in records)
    rho_prime = RtrConfig().rho_prime
    rhos = [rec.rho for r in records for rec in r.trace.records if rec.rho is not None]
    inner = n["solvers.tcg.inner_iters"]
    na = set()

    def ratio(name, num, den):
        if den == 0:
            na.add(name)
            return 0.0
        return num / den

    m = {}
    for span in LAYER_SPAN_METRICS:
        m[f"{span}.calls"] = calls[span]
        m[f"{span}.self_s"] = self_s[span]
        if calls[span] == 0:
            na.update((f"{span}.calls", f"{span}.self_s"))

    def span_time(name, span):
        if calls[span] == 0:
            na.add(name)
        return self_s[span]

    m["lifting.hess_apply.gflops"] = ratio(
        "lifting.hess_apply.gflops", n["lifting.hess_apply.flops"] / 1e9,
        self_s["lifting.hess_apply"])
    m["objective.kernel_builds_per_iter"] = ratio(
        "objective.kernel_builds_per_iter", calls["lifting.kernel"], outer)
    m["manifold.meas_build_s"] = span_time("manifold.meas_build_s", "manifold.meas_build")
    m["solvers.loop.self_s"] = span_time("solvers.loop.self_s", "solvers.loop")
    m["solvers.outer_iters"] = outer
    m["solvers.accept_frac"] = ratio(
        "solvers.accept_frac", sum(r > rho_prime for r in rhos), outer if rhos else 0)
    for status in ("grad_tol", "max_iter", "stalled"):
        m[f"solvers.status.{status}"] = sum(r.status == status for r in records)
    m["solvers.tcg.inner_iters"] = int(inner)
    if calls["solvers.tcg"] == 0:
        na.add("solvers.tcg.inner_iters")
    m["solvers.tcg.boundary_frac"] = ratio(
        "solvers.tcg.boundary_frac", n["solvers.tcg.boundary"], calls["solvers.tcg"])
    m["solvers.tcg.cap_frac"] = ratio(
        "solvers.tcg.cap_frac", n["solvers.tcg.cap"], calls["solvers.tcg"])
    m["solvers.hv_per_inner"] = ratio(
        "solvers.hv_per_inner", calls["objective.hess_apply"], inner)
    m["solvers.armijo.evals_per_call"] = ratio(
        "solvers.armijo.evals_per_call", n["solvers.armijo.evals"], calls["solvers.armijo"])
    m["synth.gen_s"] = span_time("synth.gen_s", "synth.gen")
    m["synth.rank_s"] = span_time("synth.rank_s", "synth.rank")
    m["cli.self_s"] = span_time("cli.self_s", "cli")
    m["tracing.overhead_s"] = overhead_s
    return m, na


def metric_line(name, value, unit, note="") -> str:
    return f"metric {name} {value!r} {unit}{note}"


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def solve_order(wl, seed) -> list:
    import numpy as np

    order = np.random.default_rng(seed).permutation(len(wl.keys))
    return [wl.keys[i] for i in order]


def untraced_run(wl, seed, seconds, log, bench) -> tuple[list[str], dict, bool]:
    order = solve_order(wl, seed)
    reference = reference_kernel()
    deadline = _clock() + seconds
    rows, lines = [], []
    before = reference()
    while len(rows) < len(order) or _clock() < deadline:
        row = run_instance(wl, order[len(rows) % len(order)], log)
        after = reference()
        row["scale"] = REF_NOMINAL_S / ((before + after) / 2)
        row["setup_scaled_s"] = row["setup_s"] * row["scale"]
        row["solve_scaled_s"] = row["solve_s"] * row["scale"]
        before = after
        rows.append(row)
        lines += describe_instance(wl, row)
    firsts = first_solves(rows)
    lines += status_lines(wl, firsts)
    metrics = end_to_end(rows, log)
    correct = not any(row["invariant_fails"] for row in rows)
    lines += environment(seed, order)
    lines.append(f"# {len(rows)} solves of {len(order)} instances; times are the mean over the "
                 f"instances of each one's median ({SETUP_REPEATS} set-ups per solve)")
    scales = [row["scale"] for row in rows]
    lines.append(f"# host speed: setup_s and solve_s scale each solve's wall times by "
                 f"{REF_NOMINAL_S * 1e3:g} ms over the reference kernel's time around it; "
                 f"scale factors {min(scales):.3f} to {max(scales):.3f}, "
                 f"median {statistics.median(scales):.3f}")
    for name, value in metrics.items():
        lines.append(metric_line(name, value, UNITS[name]))
    wanted = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    result = {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()}
    return lines, result, correct


def traced_run(wl, seed, log, bench) -> tuple[list[str], dict, bool]:
    from tracing import Tracer

    order = solve_order(wl, seed)
    ref = [run_instance(wl, key, log, setup_repeats=1) for key in order]
    tracer = Tracer()
    traced = [run_instance(wl, key, log, setup_repeats=1, tracer=tracer) for key in order]
    lines, correct = [], True
    for row in ref + traced:
        lines += describe_instance(wl, row)
        correct = correct and not row["invariant_fails"]
    same = [a["calls"] == b["calls"] for a, b in zip(ref, traced)]
    for a, b, ok in zip(ref, traced, same):
        if not ok:
            lines.append(f"CHECK FAIL {wl.name} key={a['key']}: traced solver outcomes differ: "
                         f"untraced {a['calls']} traced {b['calls']}")
    for span in wl.exercises:
        if tracer.calls[span] == 0:
            correct = False
            lines.append(f"CHECK FAIL {wl.name}: layer span {span} recorded no calls")
    correct = correct and all(same)
    ref_solve = sum(r["solve_s"] for r in ref)
    traced_solve = sum(r["solve_s"] for r in traced)
    records = [rec for row in traced for rec in row["trace_records"]]
    metrics, na = per_layer(tracer, records, traced_solve - ref_solve)
    lines += status_lines(wl, traced)
    lines += environment(seed, order)
    lines.append(f"# traced one pass over {len(order)} instances; solver outcomes (status, "
                 f"outer and inner iterations, final f) identical to the untraced pass: "
                 f"{all(same)}")
    lines.append(f"# tracing overhead: solve_s summed over the pass {ref_solve:.4f} s untraced, "
                 f"{traced_solve:.4f} s traced, {traced_solve - ref_solve:+.4f} s "
                 f"({(traced_solve / ref_solve - 1) * 100:+.1f}%)")
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name, value in metrics.items():
        lines.append(metric_line(name, value, units.get(name, "?"),
                                 "  (n/a for this workload)" if name in na else ""))
    result = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    return lines, result, correct


def run_one(args) -> int:
    bench = load_benchmark()
    import_package()
    from tracing import SolverLog
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)} or 'all'",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    log = SolverLog()
    log.install()
    try:
        if args.trace:
            lines, metrics, correct = traced_run(wl, args.seed, log, bench)
        else:
            lines, metrics, correct = untraced_run(wl, args.seed, args.seconds, log, bench)
    finally:
        log.uninstall()
    for msg in log.errors:
        lines.append(f"CHECK FAIL {wl.name}: solver raised {msg}")
    correct = correct and log.failed == 0
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": max(log.attempted, 1),
                      "failed": log.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own process so that peak memory
    is per workload."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        print(f"## workload {name}", flush=True)
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.workload == "all":
            import_package()
            return run_all(args)
        return run_one(args)
    except (ImportError, OSError) as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
