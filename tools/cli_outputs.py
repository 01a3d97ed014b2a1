"""Run a fixed set of CLI experiments on one source tree and keep every
output, so that two trees can be compared byte for byte:

    python tools/cli_outputs.py <src-dir> <out-dir>
    python tools/cli_outputs.py <other-src-dir> <other-out-dir>
    python tools/cli_outputs.py --compare <out-dir> <other-out-dir>

Each run calls `python -m nlrecover.cli` with PYTHONPATH=<src-dir> and one
BLAS thread, at --jobs 1 for the commands that take it, and with the
environment's warning settings (the CLI keeps numpy's RuntimeWarnings off
stderr itself, so a warning line that shows up is a difference), and writes
into <out-dir>/<run>/: the command's output files, its config
(config.json), and its stdout, stderr and exit code (stdout.txt,
stderr.txt, exit_code.txt). The runs in ERRORS exit 2: two get a flag their
command does not take, so the set covers the stderr of a flag error, and
two give a sweep a bad last cell, so it covers a config error that a sweep
finds past its first cell. `recover_overflow`, `recover_rank_overflow` and
`recover_noise_overflow` exit 3: the measurements of the first overflow the
lifting, the offset of the second overflows the kernel that rank "auto"
counts, and the noise of the third overflows the measurements themselves,
so the set covers a numerical failure in the solve and two in the set-up.
Every other run exits 0; `recover_max_iter` is cut at a budget that one
trial reaches right after a rejected step, so the set covers a solve that
ends `max_iter`, and `recover_dense` solves under hard dense measurement
constraints, so the set covers the projection onto null(A) (`noise` only
penalizes the misfit). The whole set takes well under a minute on one core.

--compare reports each run as identical (every file byte for byte), as
differing in numbers only (the files match once each number is read as a
float; the largest relative difference |a - b| / max(|a|, |b|) is given per
file), or as differing in text (anything else, a missing file included), so
a change at roundoff can be told from a real one. Below that line it names,
for each differing CSV file whose header both sides share, every differing
column by its header: with the number of rows it differs in and, where its
cells differ in numbers only, their largest relative difference, or else
its first FIRST_ROWS text cells as `row: cell -> cell` (rows counted from 0
below the header, a blank cell shown as ''); and a differing row count. It
exits 1 when a run differs in text.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

RECOVER = {
    "data": {"kind": "uos", "n": 6, "k": 2, "dim": 1, "pts_per": 8},
    "sensing": {"kind": "mask", "delta": 0.8},
    "lifting": {"kind": "monomial_kernel", "degree": 2, "offset": 1.0},
    "rank": "auto",
    "solver": "rtr2",
    "solver_options": {"eps_g": 1e-6, "max_iter": 200},
    "trials": 2,
    "seed": 0,
}
ALTMIN_OPTIONS = {"eps_x": 1e-5, "eps_u": 1e-5, "max_outer": 30, "max_inner": 30}
SIMPLE_OPTIONS = {"eps_x": 1e-5, "eps_u": 1e-5, "max_outer": 30}  # simple fixes max_inner = 1
NOISE = {
    "data": {"kind": "uos", "n": 5, "k": 2, "dim": 1, "pts_per": 6},
    "sensing": {"kind": "dense", "m": 50, "noise_sigma": 1e-3},
    "solver_options": {"eps_g": 1e-6, "max_iter": 120},
    "lambda_schedule": {"lambda0": 1e-4, "factor": 10.0, "steps": 6},
    "seed": 0,
}
RANK_SWEEP = {k: v for k, v in RECOVER.items() if k != "rank"}  # rank-sweep sets the rank
CLUSTER = {
    "data": {"kind": "clusters", "n": 4, "k": 2, "pts_per": 8},
    "sensing": {"kind": "mask", "delta": 0.8},
    "trials": 2,
    "seed": 1,
}

# run name -> (command, config); check has no config
RUNS = {
    "recover_rtr2": ("recover", RECOVER),
    "recover_rtr1": ("recover", dict(RECOVER, solver="rtr1")),
    "recover_max_iter": ("recover", dict(RECOVER, solver_options={"eps_g": 1e-6, "max_iter": 4})),
    "recover_overflow": ("recover", dict(
        RECOVER, sensing={"kind": "dense", "m": 40, "noise_sigma": 1e77}, trials=1)),
    "recover_rank_overflow": ("recover", dict(
        RECOVER, lifting={"kind": "monomial_kernel", "degree": 2, "offset": 1e300}, trials=1)),
    "recover_noise_overflow": ("recover", dict(
        RECOVER, sensing={"kind": "dense", "m": 70, "noise_sigma": 1e308}, trials=1)),
    "recover_dense": ("recover", dict(RECOVER, sensing={"kind": "dense", "m": 70})),
    **{f"recover_{solver}": ("recover", dict(RECOVER, solver=solver, solver_options=ALTMIN_OPTIONS))
       for solver in ("altmin1", "altmin2")},
    "recover_simple": ("recover", dict(RECOVER, solver="simple", solver_options=SIMPLE_OPTIONS)),
    "recover_features_restarts": ("recover", dict(
        RECOVER, lifting={"kind": "monomial_features", "degree": 2}, restarts=2)),
    # altmin on the other liftings: the X-only Hessian and the fixed-subspace
    # cost read the features' and the Gaussian kernel's lifted point
    "recover_altmin2_features": ("recover", dict(
        RECOVER, solver="altmin2", solver_options=ALTMIN_OPTIONS,
        lifting={"kind": "monomial_features", "degree": 2})),
    "recover_altmin1_gaussian": ("recover", dict(
        CLUSTER, solver="altmin1", solver_options=ALTMIN_OPTIONS,
        lifting={"kind": "gaussian_kernel", "sigma": 2.5})),
    "phase": ("phase", dict(RECOVER, grid={"deltas": [0.7, 0.9], "param": "k", "values": [1, 2]})),
    "noise": ("noise", NOISE),
    "noise_flag_error": ("noise", NOISE),
    "cluster": ("cluster", CLUSTER),
    "cluster_flag_error": ("cluster", CLUSTER),
    "rank-sweep": ("rank-sweep", dict(RANK_SWEEP, rank_offsets=[-1, 0, 1], trials=1)),
    "phase_bad_value": ("phase", dict(RECOVER, grid={"deltas": [0.7, 0.9], "param": "k",
                                                     "values": [1, 2, "x"]})),
    "rank_sweep_bad_rank": ("rank-sweep", dict(RANK_SWEEP, ranks=[3, 4, 500])),
    "check": ("check", None),
}
# runs that exit 2, and the flags they get besides their config: a flag the
# command does not take, or none for a config whose last sweep cell is bad
ERRORS = {"noise_flag_error": ["--trials", "3"], "cluster_flag_error": ["--solver", "rtr2"],
          "phase_bad_value": [], "rank_sweep_bad_rank": []}
# the exit code of each run that does not exit 0
EXIT_CODES = {**dict.fromkeys(ERRORS, 2),
              **dict.fromkeys(("recover_overflow", "recover_rank_overflow", "recover_noise_overflow"), 3)}


def run_all(src: Path, out: Path) -> int:
    """Run every entry of RUNS; the number of runs that did not exit as
    expected (EXIT_CODES, 0 for the others)."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    failed = 0
    for name, (command, cfg) in RUNS.items():
        run_dir = out / name
        run_dir.mkdir(parents=True, exist_ok=True)
        args = [sys.executable, "-m", "nlrecover.cli", command]
        if cfg is not None:
            (run_dir / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
            args += ["--config", str(run_dir / "config.json"), "--out", str(run_dir)]
            if "trials" in cfg:  # the commands that read trials take --jobs
                args += ["--jobs", "1"]
        args += ERRORS.get(name, [])
        proc = subprocess.run(args, env=env, capture_output=True, text=True)
        (run_dir / "stdout.txt").write_text(proc.stdout)
        (run_dir / "stderr.txt").write_text(proc.stderr)
        (run_dir / "exit_code.txt").write_text(f"{proc.returncode}\n")
        print(f"{name}: exit {proc.returncode}")
        failed += proc.returncode != EXIT_CODES.get(name, 0)
    return failed


# a decimal number as Python prints it; the text between numbers must match
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def numeric_difference(a: str, b: str) -> float | None:
    """The largest relative difference between the numbers of two texts that
    match apart from their numbers; None when the rest of the text differs."""
    if NUMBER.split(a) != NUMBER.split(b):
        return None
    worst = 0.0
    for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
        fx, fy = float(x), float(y)
        if fx != fy:
            worst = max(worst, abs(fx - fy) / max(abs(fx), abs(fy)))
    return worst


# the number of cells that differ in text shown per CSV column
FIRST_ROWS = 3


def column_differences(rows_a: list, rows_b: list) -> list[tuple[str, int, float | None, list]]:
    """(column, rows, largest relative difference, text cells) for each column
    that differs between the rows of two CSV texts with the same header (the
    first row), in header order, over the rows both texts have. rows counts
    the cells that differ; the largest relative difference is over those
    that differ in numbers only (None when none do), and text cells lists
    the others as (row, cell_a, cell_b), the row counted from 0 below the
    header."""
    counts, largest, cells = {}, {}, {}
    for i, (row_a, row_b) in enumerate(zip(rows_a[1:], rows_b[1:])):
        for j, (cell_a, cell_b) in enumerate(zip(row_a, row_b)):
            if cell_a != cell_b:
                counts[j] = counts.get(j, 0) + 1
                diff = numeric_difference(cell_a, cell_b)
                if diff is None:
                    cells.setdefault(j, []).append((i, cell_a, cell_b))
                else:
                    largest[j] = max(largest.get(j, 0.0), diff)
    return [(rows_a[0][j], counts[j], largest.get(j), cells.get(j, [])) for j in sorted(counts)]


def csv_report(name: str, a: str, b: str) -> list[str]:
    """One line per differing column of two CSV texts, and one for a
    differing row count; none when their headers differ."""
    rows_a, rows_b = list(csv.reader(io.StringIO(a))), list(csv.reader(io.StringIO(b)))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        return []
    lines = []
    for column, n, largest, cells in column_differences(rows_a, rows_b):
        rows = f"{n} row{'s' if n > 1 else ''}"
        if cells:
            shown = [f"{i}: " + " -> ".join(cell or "''" for cell in pair)
                     for i, *pair in cells[:FIRST_ROWS]]
            if len(cells) > FIRST_ROWS:
                shown.append("...")
            lines.append(f"  {name} {column}: {rows} ({', '.join(shown)})")
        else:
            lines.append(f"  {name} {column}: differs in {rows}, "
                         f"largest relative difference {largest:.3g}")
    if len(rows_a) != len(rows_b):
        lines.append(f"  {name}: {len(rows_a) - 1} rows -> {len(rows_b) - 1} rows")
    return lines


def compare(out_a: Path, out_b: Path) -> int:
    """Report every run of two output directories; the number of runs that
    differ in text."""
    failed = 0
    for name in sorted({p.name for p in out_a.iterdir()} | {p.name for p in out_b.iterdir()}):
        run_a, run_b = out_a / name, out_b / name
        files = sorted({p.name for d in (run_a, run_b) if d.is_dir() for p in d.iterdir()})
        numeric, columns, text = {}, [], []
        for f in files:
            fa, fb = run_a / f, run_b / f
            if not (fa.is_file() and fb.is_file()):
                text.append(f"{f} (missing)")
            elif fa.read_bytes() != fb.read_bytes():
                a, b = fa.read_text(), fb.read_text()
                diff = numeric_difference(a, b)
                if diff is None:
                    text.append(f)
                else:
                    numeric[f] = diff
                if f.endswith(".csv"):
                    columns += csv_report(f, a, b)
        if text:
            print(f"{name}: text differs: {', '.join(text)}")
            failed += 1
        elif numeric:
            print(f"{name}: numbers only: " + ", ".join(
                f"{f} max rel diff {d:.2e}" for f, d in numeric.items()))
        else:
            print(f"{name}: identical")
        for line in columns:
            print(line)
    return failed


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(1 if compare(Path(sys.argv[2]), Path(sys.argv[3])) else 0)
    if len(sys.argv) != 3:
        sys.exit("usage: python tools/cli_outputs.py <src-dir> <out-dir>\n"
                 "       python tools/cli_outputs.py --compare <out-dir> <other-out-dir>")
    sys.exit(1 if run_all(Path(sys.argv[1]), Path(sys.argv[2])) else 0)
