"""Solve the four benchmark workloads and a set of larger mask instances on
one checkout and keep what every solver call returned, so that two
checkouts can be compared bit for bit:

    python tools/solver_traces.py <checkout-dir> <out-file>
    python tools/solver_traces.py <other-checkout-dir> <other-out-file>
    python tools/solver_traces.py --compare <out-file> <other-out-file>

A run imports `nlrecover` from <checkout-dir>/src and the workloads from
<checkout-dir>/perfbench/workloads.py (read only), with one BLAS thread. It
builds and solves every instance of WORKLOADS once, in the listed order, and
then the set `mask_rtr_400`: keys (0..4, 0) of mask recovery at s = 400
columns, built by that file's `_uos_mask_setup(200)` and solved by its
`_solve_rtr`, where the trust region's status (`grad_tol` or `stalled`)
turns on its rho test at roundoff. It writes one JSON line per
`rtr_solve` or `altmin_solve` call: the workload (or set), the
instance key, the call's index within the instance's solve, the solver, the
trace status, every trace record, and SHA-256 hashes of the returned X and
subspace basis. A `cli._snap_columns` call (the clustering pipeline's column
snap) is a line of its own, with its X and basis hashes and no records.
Floats are written as Python prints them, which reads back to the same bits.
A run takes about 8 s on one core of a 2-core Xeon VM, half of it the
s = 400 set.

--compare reports each workload as identical or names the first call and
field that differ (a missing call included), and exits 1 when any differs.
After the first difference it lists every field that differs in the calls
both dumps hold: a call field (status, x, u, ...) with the number of calls,
and a trace-record field with the number of records (compared position by
position) and, for floats, the largest relative difference
|a - b| / max(|a|, |b|), which is inf where only one side is finite.
Then it prints each dump's totals over the workload's calls: the trace
records, the summed `inner_iters` and `hess_calls`, and the histogram of
statuses, so that a cut in inner steps reads directly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path

WORKLOADS = ("mask_rtr", "dense_penalty", "cluster_gauss", "altmin_mask")
MASK_RTR_400_KEYS = tuple((j, 0) for j in range(5))
SOLVERS = ("rtr_solve", "altmin_solve")


def _digest(a) -> str:
    return f"{a.shape}:{hashlib.sha256(a.tobytes()).hexdigest()}"


def call_line(workload: str, key, index: int, solver: str, point, trace=None) -> str:
    """The JSON line of one solver call, or of a snap (no trace); a numpy
    scalar is written as the Python number it holds."""
    entry = {"workload": workload, "key": list(key), "call": index, "solver": solver,
             "x": _digest(point.x), "u": _digest(point.u.basis)}
    if trace is not None:
        entry |= {"status": trace.status, "records": [dataclasses.asdict(r) for r in trace.records]}
    return json.dumps(entry, default=lambda value: value.item())


def dump(root: Path, out: Path) -> int:
    """Solve every instance of WORKLOADS from the checkout at root and write
    its solver calls to out; the number of calls."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import nlrecover

    if Path(nlrecover.__file__).resolve().parent != src / "nlrecover":
        raise ImportError(f"nlrecover was imported from {nlrecover.__file__}, not {src}")

    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look it up
    spec.loader.exec_module(workloads)

    calls = []  # (solver, point, trace or None) of the instance being solved

    def logged(name, fn):
        def wrapper(*args, **kwargs):
            point, trace = fn(*args, **kwargs)
            calls.append((name, point, trace))
            return point, trace
        return wrapper

    def logged_snap(*args, **kwargs):
        point = snap(*args, **kwargs)
        calls.append(("_snap_columns", point, None))
        return point

    # every module of the package that binds a solver by name calls it there
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "nlrecover"]
    for name in SOLVERS:
        original = getattr(nlrecover.solvers, name)
        wrapped = logged(name, original)
        for module in modules:
            if getattr(module, name, None) is original:
                setattr(module, name, wrapped)
    snap, nlrecover.cli._snap_columns = nlrecover.cli._snap_columns, logged_snap

    sets = [(w.name, w.keys, w.setup, w.solve) for w in map(workloads.WORKLOADS.get, WORKLOADS)]
    sets.append(("mask_rtr_400", MASK_RTR_400_KEYS, workloads._uos_mask_setup(200),
                 workloads._solve_rtr))
    n_calls = 0
    with out.open("w") as fh:
        for wname, keys, setup, solve in sets:
            for key in keys:
                calls.clear()
                solve(setup(key))
                for i, (solver, point, trace) in enumerate(calls):
                    fh.write(call_line(wname, key, i, solver, point, trace) + "\n")
                n_calls += len(calls)
            print(f"{wname}: {len(keys)} instances solved")
    return n_calls


def _calls(path: Path) -> dict:
    """The JSON lines of a dump keyed by (workload, key, call), in order."""
    entries = (json.loads(line) for line in path.read_text().splitlines())
    return {(e["workload"], tuple(e["key"]), e["call"]): e for e in entries}


def _first_difference(a: dict | None, b: dict | None) -> str | None:
    """The first field of two entries that differs, by its JSON text (so a
    NaN equals a NaN), with the index of the record for `records`."""
    if a is None or b is None:
        return "missing"
    for field in sorted(a.keys() | b.keys()):
        va, vb = a.get(field), b.get(field)
        if json.dumps(va) == json.dumps(vb):
            continue
        if field == "records" and isinstance(va, list) and isinstance(vb, list):
            for i, (ra, rb) in enumerate(zip(va, vb)):
                if json.dumps(ra) != json.dumps(rb):
                    return f"records[{i}]"
            return f"records (length {len(va)} vs {len(vb)})"
        return field
    return None


def _relative(va, vb) -> float:
    """|a - b| / max(|a|, |b|) of two differing numbers or Nones: inf unless
    both are finite numbers, and 0 for 0.0 against -0.0."""
    if va is None or vb is None or not (math.isfinite(va) and math.isfinite(vb)):
        return math.inf
    scale = max(abs(va), abs(vb))
    return abs(va - vb) / scale if scale else 0.0


def _field_differences(pairs) -> list[str]:
    """One line per field that differs over the (entry, entry) pairs: call
    fields by the calls, record fields by the records that differ, with the
    largest relative difference where either side is a float."""
    calls, records, largest = Counter(), Counter(), {}
    for a, b in pairs:
        for field in sorted(a.keys() | b.keys()):
            if field != "records" and json.dumps(a.get(field)) != json.dumps(b.get(field)):
                calls[field] += 1
        for ra, rb in zip(a.get("records", []), b.get("records", [])):
            for field in sorted(ra.keys() | rb.keys()):
                va, vb = ra.get(field), rb.get(field)
                if json.dumps(va) == json.dumps(vb):
                    continue
                records[field] += 1
                if isinstance(va, float) or isinstance(vb, float):
                    largest[field] = max(largest.get(field, 0.0), _relative(va, vb))
    lines = [f"  {field}: differs in {n} call{'s' if n > 1 else ''}" for field, n in calls.items()]
    for field, n in records.items():
        line = f"  {field}: differs in {n} record{'s' if n > 1 else ''}"
        if field in largest:
            line += f", largest relative difference {largest[field]:.3g}"
        lines.append(line)
    return lines


def _totals(entries) -> str:
    """The records, summed inner_iters and hess_calls and the status
    histogram of a workload's calls (a snap has no records or status)."""
    records = [r for e in entries for r in e.get("records", [])]
    statuses = Counter(e["status"] for e in entries if "status" in e)
    histogram = ", ".join(f"{s} {n}" for s, n in sorted(statuses.items()))
    return (f"{len(records)} records, inner_iters {sum(r.get('inner_iters') or 0 for r in records)}, "
            f"hess_calls {sum(r.get('hess_calls') or 0 for r in records)}, status {histogram}")


def compare(path_a: Path, path_b: Path) -> int:
    """Report every workload of two dumps; the number of workloads with a
    call that differs."""
    calls_a, calls_b = _calls(path_a), _calls(path_b)
    failed = 0
    for wname in sorted({k[0] for k in calls_a.keys() | calls_b.keys()}):
        keys = sorted(k for k in calls_a.keys() | calls_b.keys() if k[0] == wname)
        diffs = [(k, d) for k in keys
                 if (d := _first_difference(calls_a.get(k), calls_b.get(k))) is not None]
        if diffs:
            (_, key, call), field = diffs[0]
            print(f"{wname}: {len(diffs)} of {len(keys)} calls differ; first: instance "
                  f"{list(key)} call {call}: {field}")
            pairs = [(calls_a[k], calls_b[k]) for k, _ in diffs if k in calls_a and k in calls_b]
            for line in _field_differences(pairs):
                print(line)
            for side, calls in (("first", calls_a), ("second", calls_b)):
                print(f"  {side} dump: {_totals([calls[k] for k in keys if k in calls])}")
            failed += 1
        else:
            print(f"{wname}: {len(keys)} calls identical")
    return failed


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(1 if compare(Path(sys.argv[2]), Path(sys.argv[3])) else 0)
    if len(sys.argv) != 3:
        sys.exit("usage: python tools/solver_traces.py <checkout-dir> <out-file>\n"
                 "       python tools/solver_traces.py --compare <out-file> <other-out-file>")
    # one BLAS thread, set before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    print(f"{dump(Path(sys.argv[1]), Path(sys.argv[2]))} solver and snap calls written")
