"""Run a fixed set of CLI experiments on one source tree and keep every
output, so that two trees can be compared byte for byte:

    python tools/cli_outputs.py <src-dir> <out-dir>
    python tools/cli_outputs.py <other-src-dir> <other-out-dir>
    diff -r <out-dir> <other-out-dir>

Each run calls `python -m nlrecover.cli` with PYTHONPATH=<src-dir> and one
BLAS thread, at --jobs 1 for the commands that take it, and writes into
<out-dir>/<run>/: the command's output files, its config (config.json),
and its stdout, stderr and exit code (stdout.txt, stderr.txt, exit_code.txt).
The runs in ERRORS exit 2: two get a flag their command does not take, so
the set covers the stderr of a flag error, and two give a sweep a bad last
cell, so it covers a config error that a sweep finds past its first cell.
The whole set takes well under a minute on one core.
"""

from __future__ import annotations

import json
import os
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
    **{f"recover_{solver}": ("recover", dict(RECOVER, solver=solver, solver_options=ALTMIN_OPTIONS))
       for solver in ("altmin1", "altmin2")},
    "recover_simple": ("recover", dict(RECOVER, solver="simple", solver_options=SIMPLE_OPTIONS)),
    "recover_features_restarts": ("recover", dict(
        RECOVER, lifting={"kind": "monomial_features", "degree": 2}, restarts=2)),
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


def run_all(src: Path, out: Path) -> int:
    """Run every entry of RUNS; the number of runs that did not exit as
    expected (2 for ERRORS, 0 for the others)."""
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
        failed += proc.returncode != (2 if name in ERRORS else 0)
    return failed


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tools/cli_outputs.py <src-dir> <out-dir>")
    sys.exit(1 if run_all(Path(sys.argv[1]), Path(sys.argv[2])) else 0)
