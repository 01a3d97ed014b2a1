"""Experiment harness: single recoveries, phase-transition sweeps, noise
continuation, clustering with missing data, and rank-misestimation sweeps.

Every run is driven by a JSON config and a base seed; per-trial seeds are
derived deterministically, so results are reproducible regardless of the
number of worker processes. Outputs are CSV files with a fixed column order
(floats printed with 17 significant digits) plus a summary.json.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
import typing
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np

from .lifting import LiftingSpec, kernel_tail_argmin
from .manifold import DegenerateRetractionError, ProductPoint
from .objective import Objective, fd_check
from .solvers import (
    TRACE_COLUMNS,
    AltminConfig,
    NumericalError,
    RtrConfig,
    altmin_solve,
    default_init,
    fit_subspace,
    rtr_solve,
    rtr_solve_restarts,
    truncated_svd,
)
from .synth import (
    ClusterSpec,
    RECOVERY_RMSE_THRESHOLD,
    UosSpec,
    cluster_assign,
    gen_clusters,
    gen_entry_mask,
    gen_gaussian_sensing,
    gen_uos,
    numerical_rank,
    rand_index,
    rmse,
)

# each solver name: its config class and the fields the name fixes (solver_options
# sets only the others); with one inner step, both schedules take it iff ||grad_X|| > eps_x
SOLVERS = {
    "rtr1": (RtrConfig, {"use_hessian": False}),
    "rtr2": (RtrConfig, {"use_hessian": True}),
    "altmin1": (AltminConfig, {"inner": "gradient", "exact_svd": False}),
    "altmin2": (AltminConfig, {"inner": "trust_region", "exact_svd": False}),
    "simple": (AltminConfig, {"inner": "gradient", "max_inner": 1, "exact_svd": True, "schedule": "greedy"}),
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_OUTPUT = 4


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _require(section: dict, key: str, where: str):
    if key not in _object(section, where):
        raise ConfigError(f"missing field '{key}' in {where}")
    return section[key]


def _number(value, kind: type, field: str):
    """The config value as kind (int or float) when it is a JSON number of
    that kind: an integer for int, any number but NaN for float (Infinity is
    one). A string, a boolean, NaN or, for int, a fraction is a ConfigError
    naming the field, so "0.8" or 6.7 is not silently read as 0.8 or 6."""
    what = "an integer" if kind is int else "a number"
    json_kinds = (int,) if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, json_kinds) or value != value:  # NaN
        raise ConfigError(f"field '{field}' must be {what}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an integer too large for a float
        raise ConfigError(f"field '{field}' must be {what}, got {value!r}") from None


def _list(value, field: str) -> list:
    """The config value itself when it is a non-empty list; a ConfigError
    naming the field otherwise (every list of a config is a sweep, and an
    empty one would solve nothing)."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"field '{field}' must be a list of at least one value, got {value!r}")
    return value


def _object(value, field: str) -> dict:
    """The config value itself when it is a JSON object; a ConfigError naming
    the field otherwise."""
    if not isinstance(value, dict):
        raise ConfigError(f"field '{field}' must be an object, got {value!r}")
    return value


def _known(section, keys, where: str = "") -> dict:
    """The config value itself when it is a JSON object and each of its keys
    is one of keys; a ConfigError naming the field or the first other key
    ('<where>.<key>', or the bare key at the top level) otherwise."""
    prefix = f"{where}." if where else ""
    for key in _object(section, where):
        if key not in keys:
            raise ConfigError(f"unknown field '{prefix}{key}'")
    return section


def _typed(value, hint, field: str):
    """The config value read as the type hint of its dataclass field: a JSON
    number for float, a JSON integer for int, a JSON boolean for bool (so the
    string "false" is not read as true) and a list of JSON integers for a
    tuple of int. Other values are left for the dataclass to reject."""
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list) or any(isinstance(v, bool) or not isinstance(v, int) for v in value):
            raise ConfigError(f"field '{field}' must be a list of integers, got {value!r}")
        return tuple(value)
    kinds = typing.get_args(hint) or (hint,)
    if bool in kinds:
        if not isinstance(value, bool):
            raise ConfigError(f"field '{field}' must be true or false, got {value!r}")
        return value
    if int in kinds or float in kinds:
        return _number(value, int if int in kinds else float, field)
    return value


@contextlib.contextmanager
def _reading(section: str):
    """A TypeError or ValueError (ConfigError included) of the block as one
    ConfigError 'bad <section>: ...'."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {section}: {exc}") from exc


def _build(config_cls, section, where: str, **given):
    """config_cls(**given, **section) with each value of the JSON object
    section (at where) typed by its field (`_typed`); every other field keeps
    its dataclass default. A key that names no field or one of given, a
    missing field, a mistyped value and a value the dataclass rejects are
    each one ConfigError 'bad <top-level section>: ...'."""
    hints = typing.get_type_hints(config_cls)
    settable = {f.name for f in fields(config_cls)} - given.keys()
    with _reading(where.split(".")[0]):
        for key, value in _known(section, settable, where).items():
            given[key] = _typed(value, hints[key], f"{where}.{key}")
        return config_cls(**given)


def parse_data_spec(cfg: dict):
    data = _require(cfg, "data", "config")
    kind = _require(data, "kind", "data")
    section = {key: value for key, value in data.items() if key != "kind"}
    if kind == "uos":
        section.setdefault("k", 1)
        if "dims" not in section:  # "dim": one dimension shared by the k subspaces
            with _reading("data"):
                section["dims"] = [_number(section.pop("dim", 2), int, "data.dim")]
        return _build(UosSpec, section, "data")
    if kind == "clusters":
        return _build(ClusterSpec, section, "data")
    raise ConfigError(f"unknown data kind {kind!r} (expected 'uos' or 'clusters')")


def parse_lifting(cfg: dict, data_spec) -> LiftingSpec:
    """Lifting from the config, or routed by the data structure: algebraic
    (union-of-subspaces) data gets the monomial kernel, clusters the Gaussian.
    The section sets only the parameters its kind reads (LiftingSpec.PARAMS)."""
    lift = cfg.get("lifting")
    if lift is None:
        kind = "gaussian_kernel" if isinstance(data_spec, ClusterSpec) else "monomial_kernel"
        return LiftingSpec(kind, data_spec.n)
    _require(lift, "kind", "lifting")
    spec = _build(LiftingSpec, lift, "lifting", n=data_spec.n)
    with _reading("lifting"):
        _known(lift, ("kind", *LiftingSpec.PARAMS[spec.kind]), "lifting")
    return spec


def parse_solver_name(cfg: dict, override: str | None) -> str:
    name = override or cfg.get("solver", "rtr2")
    if name not in SOLVERS:
        raise ConfigError(f"unknown solver {name!r} (expected one of {tuple(SOLVERS)})")
    return name


def build_solver_configs(cfg: dict, name: str):
    """The config of solver name: the fields it fixes, and the others from
    the config's solver_options (a fixed field there is an unknown field)."""
    config_cls, fixed = SOLVERS[name]
    return _build(config_cls, _object(cfg.get("solver_options", {}), "solver_options"), "solver_options",
                  **fixed)


def generate_data(data_spec, rng) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(data_spec, ClusterSpec):
        return gen_clusters(data_spec, rng)
    return gen_uos(data_spec, rng)


def build_sensing(cfg: dict, target: np.ndarray, rng, per_column: bool = False):
    """(measurement, clean measurements b) of the config's sensing section.
    per_column is the mask sampling mode when the section does not name one."""
    sensing = _require(cfg, "sensing", "config")
    kind = _require(sensing, "kind", "sensing")
    if kind == "mask":
        _known(sensing, ("kind", "delta", "per_column"), "sensing")
        delta = _number(_require(sensing, "delta", "sensing"), float, "sensing.delta")
        per_column = _typed(sensing.get("per_column", per_column), bool, "sensing.per_column")
        with _reading("sensing spec"):
            meas = gen_entry_mask(target, delta, rng, per_column=per_column)
        return meas, meas.b.copy()
    if kind == "dense":
        _known(sensing, ("kind", "m", "noise_sigma"), "sensing")
        m = _number(_require(sensing, "m", "sensing"), int, "sensing.m")
        if not 1 <= m <= target.size:
            # above n*s no exact solution to start from, for the constrained
            # and the penalized forms alike (default_init needs one)
            raise ConfigError(f"dense sensing needs 1 <= m <= n*s = {target.size}, got m={m}")
        sigma = _number(sensing.get("noise_sigma", 0.0), float, "sensing.noise_sigma")
        with _reading("sensing spec"):
            return gen_gaussian_sensing(target, m, rng, sigma)
    raise ConfigError(f"unknown sensing kind {kind!r} (expected 'mask' or 'dense')")


def resolve_rank(cfg: dict, lifting: LiftingSpec, data_spec, target: np.ndarray) -> int:
    """'auto' uses the observed lifted rank: numerical rank of the kernel at
    1e-8 for monomial liftings, the cluster count for the Gaussian kernel."""
    rank = cfg.get("rank", "auto")
    if rank != "auto":
        return _number(rank, int, "rank")
    if lifting.kind == "gaussian_kernel":
        return int(data_spec.k)
    return numerical_rank(lifting.kernel(target), 1e-8)


def build_objective(lifting: LiftingSpec, rank: int, meas, penalty: float | None = None) -> Objective:
    try:
        return Objective(lifting=lifting, rank_r=rank, measurement=meas, penalty_lambda=penalty)
    except ValueError as exc:
        raise ConfigError(f"bad objective: {exc}") from exc


def solve(obj: Objective, z0: ProductPoint, name: str, solver_cfg, rng, truth=None):
    if SOLVERS[name][0] is RtrConfig:
        return rtr_solve(obj, z0, solver_cfg, truth=truth)
    return altmin_solve(obj, z0, solver_cfg, rng=rng, truth=truth)


# ---------------------------------------------------------------------------
# single trial
# ---------------------------------------------------------------------------


def _instance(cfg: dict, seed_key: tuple):
    """(rng, data spec, target, labels, lifting, rank) of one trial. The rng
    of the seed key has drawn the data and draws the measurements next;
    lifting and rank draw nothing."""
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    data_spec = parse_data_spec(cfg)
    target, labels = generate_data(data_spec, rng)
    lifting = parse_lifting(cfg, data_spec)
    return rng, data_spec, target, labels, lifting, resolve_rank(cfg, lifting, data_spec, target)


def parse_start(cfg: dict, solver_name: str) -> int:
    """The restarts of a recovery trial: 1, or the config's count for the
    trust-region solvers, the only ones that restart."""
    if "restarts" not in cfg:
        return 1
    if SOLVERS[solver_name][0] is not RtrConfig:
        raise ConfigError(f"field 'restarts' applies to solvers rtr1 and rtr2 only, not {solver_name!r}")
    restarts = _number(cfg["restarts"], int, "restarts")
    if restarts < 1:
        raise ConfigError(f"field 'restarts' must be >= 1, got {restarts}")
    return restarts


def _trial_problem(cfg: dict, seed_key: tuple, solver_name: str):
    """(restarts, rng, target, objective, solver config) of one recovery
    trial; building them checks every config field the trial reads."""
    restarts = parse_start(cfg, solver_name)
    rng, _, target, _, lifting, rank = _instance(cfg, seed_key)
    meas, _ = build_sensing(cfg, target, rng)
    return restarts, rng, target, build_objective(lifting, rank, meas), build_solver_configs(cfg, solver_name)


def run_trial(cfg: dict, seed_key: tuple, solver_name: str) -> dict:
    """Generate one instance, solve it, return the per-trial record (and the
    trace under key 'trace')."""
    restarts, rng, target, obj, solver_cfg = _trial_problem(cfg, seed_key, solver_name)
    if restarts > 1:
        z, trace = rtr_solve_restarts(obj, solver_cfg, rng, n_starts=restarts, truth=target)
    else:
        z, trace = solve(obj, default_init(obj), solver_name, solver_cfg, rng, truth=target)
    err = rmse(z.x, target)
    return {
        "rmse": err,
        "success": int(err <= RECOVERY_RMSE_THRESHOLD),
        "f_final": trace.final.f,
        "gnorm_x": trace.final.gnorm_x,
        "gnorm_u": trace.final.gnorm_u,
        "iters": trace.final.k,
        "status": trace.status,
        "rank": obj.rank_r,
        "trace": trace,
    }


def _run_trials(run, cfg: dict, seed: int, trials: int, jobs: int, *args) -> list[dict]:
    """[run(cfg, (seed, t), *args) for t in range(trials)], in jobs worker
    processes when jobs > 1; the seed keys make the results independent of
    the worker count."""
    columns = ([cfg] * trials, [(seed, t) for t in range(trials)], *([a] * trials for a in args))
    if jobs == 1:
        return list(map(run, *columns))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(run, *columns))


def _trial_tables(seed: int, rows: list[dict]) -> dict:
    """trials.csv, one line per trial with the keys of its record but the
    trace, in record order, and the trial's trace as trace_<t>.csv."""
    columns = [key for key in rows[0] if key != "trace"]
    tables = {"trials.csv": (["trial", "seed", *columns],
                             [[t, seed, *map(row.get, columns)] for t, row in enumerate(rows)])}
    for t, row in enumerate(rows):
        tables[f"trace_{t}.csv"] = (TRACE_COLUMNS, [[getattr(r, c) for c in TRACE_COLUMNS]
                                                    for r in row["trace"].records])
    return tables


def _sweep(cells: list[tuple], solver: str, trials: int, jobs: int) -> list[float]:
    """The success fraction of each (config, seed) cell. The first trial
    problem of every cell is built, and so checked, before any cell is solved."""
    for sub_cfg, cell_seed in cells:
        _trial_problem(sub_cfg, (cell_seed, 0), solver)
    return [float(np.mean([row["success"] for row in _run_trials(run_trial, *cell, trials, jobs, solver)]))
            for cell in cells]


# ---------------------------------------------------------------------------
# subcommands: each returns (solver name, {file name: (header, rows)}, aggregates)
# ---------------------------------------------------------------------------


def cmd_recover(cfg: dict, seed: int, solver: str, trials: int, jobs: int) -> tuple:
    rows = _run_trials(run_trial, cfg, seed, trials, jobs, solver)
    aggregates = {
        "trials": trials,
        "success_fraction": float(np.mean([r["success"] for r in rows])),
        "rmse_mean": float(np.mean([r["rmse"] for r in rows])),
        "rmse_median": float(np.median([r["rmse"] for r in rows])),
    }
    return solver, _trial_tables(seed, rows), aggregates


SWEEP_PARAMS = ("k", "pts_per", "n", "dim", "sigma_c")  # the data fields phase may sweep


def cmd_phase(cfg: dict, seed: int, solver: str, trials: int, jobs: int) -> tuple:
    grid = _known(_require(cfg, "grid", "config"), ("deltas", "param", "values"), "grid")
    deltas = [_number(d, float, "grid.deltas")
              for d in _list(_require(grid, "deltas", "grid"), "grid.deltas")]
    param = grid.get("param", "k")
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"unknown sweep parameter {param!r}")
    values = _list(_require(grid, "values", "grid"), "grid.values")
    # each cell puts its delta into the config's own mask section (per_column kept)
    sensing = _object(cfg.get("sensing", {}), "sensing")
    cells = []
    for vi, val in enumerate(values):
        for di, delta in enumerate(deltas):
            sub_cfg = json.loads(json.dumps(cfg))
            data = _object(sub_cfg.setdefault("data", {}), "data")
            data[param] = val  # typed by parse_data_spec
            if param == "dim":
                data.pop("dims", None)
            sub_cfg["sensing"] = {**sensing, "kind": "mask", "delta": delta}
            cells.append((sub_cfg, _cell_seed(seed, vi, di)))
    fracs = iter(_sweep(cells, solver, trials, jobs))
    rows = [[val, *(next(fracs) for _ in deltas)] for val in values]
    aggregates = {"param": param, "values": list(values), "deltas": deltas, "trials_per_cell": trials}
    return solver, {"heatmap.csv": ([f"{param}\\delta"] + [f"{d:g}" for d in deltas], rows)}, aggregates


def _cell_seed(seed: int, vi: int, di: int) -> int:
    return seed * 1_000_003 + vi * 1009 + di


def cmd_noise(cfg: dict, seed: int) -> tuple:
    sched = _known(cfg.get("lambda_schedule", {}), ("lambda0", "factor", "steps"), "lambda_schedule")
    lam0 = _number(sched.get("lambda0", 1e-6), float, "lambda_schedule.lambda0")
    factor = _number(sched.get("factor", 10.0), float, "lambda_schedule.factor")
    steps = _number(sched.get("steps", 12), int, "lambda_schedule.steps")
    report = run_lambda_continuation(cfg, seed, lam0, factor, steps, "rtr2")
    ladder = report["ladder"]  # one row per rung, "selected" 0 or 1
    table = (list(ladder[0]), [list(r.values()) for r in ladder])
    return "rtr2", {"lambda_ladder.csv": table}, report["summary"]


def run_lambda_continuation(cfg: dict, seed: int, lam0: float, factor: float, steps: int, solver: str) -> dict:
    """Solve the penalized problem along an increasing lambda ladder with warm
    starts; select lambda* minimizing the lifted residual on the plateau of
    the noisy misfit. The ladder starts at lam0 > 0 and grows by factor > 1,
    and solver names a trust region (rtr1 or rtr2)."""
    if SOLVERS.get(solver, (None,))[0] is not RtrConfig:
        raise ConfigError(f"noise continuation needs a trust-region solver (rtr1 or rtr2), got {solver!r}")
    if not lam0 > 0:
        raise ConfigError(f"field 'lambda_schedule.lambda0' must be > 0, got {lam0}")
    if not factor > 1:
        raise ConfigError(f"field 'lambda_schedule.factor' must be > 1, got {factor}")
    if steps < 1:
        raise ConfigError(f"field 'lambda_schedule.steps' must be >= 1, got {steps}")
    rng, _, target, _, lifting, rank = _instance(cfg, (seed, 0))
    if _require(_require(cfg, "sensing", "config"), "kind", "sensing") != "dense":
        raise ConfigError("noise continuation requires dense sensing")
    meas, b_clean = build_sensing(cfg, target, rng)
    solver_cfg = build_solver_configs(cfg, solver)

    lam = lam0
    z = None
    ladder = []
    for _ in range(steps):
        obj = build_objective(lifting, rank, meas, penalty=lam)
        # warm start at the previous solution
        z, trace = rtr_solve(obj, default_init(obj) if z is None else z, solver_cfg, truth=target)
        ax = meas.apply(z.x)
        ladder.append({
            "lambda": lam,
            "misfit_noisy": float(np.linalg.norm(ax - meas.b)),
            "misfit_clean": float(np.linalg.norm(ax - b_clean)),
            "err_fro": float(np.linalg.norm(z.x - target)),
            "lifted_residual": math.sqrt(max(obj.lifted_residual(z), 0.0)),
            "iters": trace.final.k,
            "selected": 0,
            "status": trace.status,
            "hess_calls": sum(n or 0 for n in trace.column("hess_calls")),
        })
        lam *= factor

    best = select_lambda([r["misfit_noisy"] for r in ladder],
                         [r["lifted_residual"] for r in ladder])
    ladder[best]["selected"] = 1
    chosen = ladder[best]
    summary = {
        "lambda_star": chosen["lambda"],
        "misfit_noisy": chosen["misfit_noisy"],
        "misfit_clean": chosen["misfit_clean"],
        "err_fro": chosen["err_fro"],
        "noise_floor": float(np.linalg.norm(meas.b - b_clean)),
        "target_misfit": float(np.linalg.norm(meas.apply(target) - meas.b)),
    }
    return {"ladder": ladder, "summary": summary}


# consecutive noisy misfits within this factor of each other count as flat
PLATEAU_FLAT_FACTOR = 1.25


def select_lambda(misfits: list[float], lifted: list[float]) -> int:
    """Index of the best lambda on the ladder.

    The noisy misfit falls as lambda grows, flattens once the solution sits at
    the noise floor, then falls steadily again as the noise gets overfit. The
    plateau of interest is the last flat stretch before that final decay;
    within it (and its trailing point) the lifted residual picks the winner.
    """
    n = len(misfits)
    if n == 1:
        return 0
    flat = [j for j in range(n - 1) if misfits[j] <= PLATEAU_FLAT_FACTOR * misfits[j + 1]]
    runs: list[list[int]] = []
    for j in flat:
        if runs and j == runs[-1][-1] + 1:
            runs[-1].append(j)
        else:
            runs.append([j])
    if not runs:
        return int(np.argmin(lifted))
    plateau = runs[-1] + [runs[-1][-1] + 1]
    return min(plateau, key=lambda i: lifted[i])


SIGMA_LADDER = (4.0, 2.0, 1.414, 1.0)  # kernel-width continuation multipliers
CLUSTER_MAX_ITER = 200  # trust-region iterations per solve of the clustering pipeline


def cluster_complete(meas, k: int, sigma: float, rng: np.random.Generator):
    """Complete a clustered matrix with the Gaussian-kernel objective.

    The plain objective at the target width has poor basins of attraction
    from the zero-filled start, so the solve anneals the kernel width down a
    short ladder with warm starts, then tries snapping each partially
    observed column onto the estimated cluster centers (kept only on cost
    decrease), and polishes at the target width. The reported trace is the
    final polish on the target objective.
    """
    z = None
    for mult in SIGMA_LADDER:
        # the widest rung comes first, so a width whose square overflows is
        # rejected, like a bad rank, before any solve
        with _reading(f"lifting at width {mult} x sigma"):
            lifting = LiftingSpec.gaussian(meas.n, sigma * mult)
        obj = build_objective(lifting, k, meas)
        z = default_init(obj) if z is None else fit_subspace(obj, z.x)
        z, trace = rtr_solve(obj, z, RtrConfig(eps_g=1e-6, max_iter=CLUSTER_MAX_ITER))
    z_snap = _snap_columns(obj, z, k, rng)
    z_snap, trace_snap = rtr_solve(obj, z_snap, RtrConfig(eps_g=1e-6, max_iter=CLUSTER_MAX_ITER))
    if trace_snap.final.f < trace.final.f:  # the costs at z_snap and z
        return z_snap, trace_snap
    return z, trace


def _snap_columns(obj: Objective, z: ProductPoint, k: int, rng: np.random.Generator) -> ProductPoint:
    """Greedy block move: re-fill each partially observed column from each
    estimated cluster center (of the clusters that have members) and keep
    the variant of lowest cost with the subspace re-fitted, which is the
    spectral tail of its kernel (the first of equal costs).

    A candidate changes one column j of X, so its kernel is the current one
    with row and column j replaced. X's kernel is built once; for each
    column, one cross-kernel evaluation K(C, [X | C]) of the candidate
    columns C gives all their kernels, and `kernel_tail_argmin` picks the
    least by certified Rayleigh-Ritz bounds, falling back on exact
    eigenvalues only where the bounds cannot decide. Its warm start is the
    leading eigenspace of X's kernel (one eigh), then each column's Ritz
    basis of the kernel it kept."""
    labels = cluster_assign(z.x, k, rng)
    centers = np.stack([z.x[:, labels == j].mean(axis=1) for j in np.unique(labels)], axis=1)
    x = z.x.copy()
    s, n_cands = x.shape[1], centers.shape[1]
    mask = obj.measurement.mask
    kern = obj.lifting.kernel(x)
    basis = np.linalg.eigh(kern)[1][:, -obj.rank_r:]
    for j in np.argsort(mask.sum(axis=0)):
        missing = ~mask[:, j]
        if not missing.any():
            continue
        cands = np.repeat(x[:, j:j + 1], n_cands, axis=1)
        cands[missing] = centers[missing]
        cross = obj.lifting.kernel(cands, np.hstack([x, cands]))
        stack = np.repeat(kern[None], n_cands, axis=0)
        stack[:, j, :] = cross[:, :s]
        stack[:, :, j] = cross[:, :s]
        stack[:, j, j] = np.diagonal(cross[:, s:])
        best, basis = kernel_tail_argmin(stack, obj.rank_r, basis)
        x[:, j] = cands[:, best]
        kern = stack[best]
    return fit_subspace(obj, x)


def run_cluster_trial(cfg: dict, seed_key: tuple) -> dict:
    """One clustering-with-missing-data trial: complete, cluster, score."""
    rng, data_spec, target, labels, lifting, rank = _instance(cfg, seed_key)
    if not isinstance(data_spec, ClusterSpec):
        raise ConfigError("the cluster command requires data of kind 'clusters'")
    if lifting.kind != "gaussian_kernel":
        raise ConfigError("clustered data routes to the Gaussian kernel")
    if _require(_require(cfg, "sensing", "config"), "kind", "sensing") != "mask":
        raise ConfigError("the cluster command requires mask sensing")
    meas, _ = build_sensing(cfg, target, rng, per_column=True)
    z, trace = cluster_complete(meas, rank, lifting.sigma, rng)
    pred = cluster_assign(z.x, data_spec.k, rng)
    ri = rand_index(labels, pred)
    return {
        "rand_index": ri,
        "cluster_success": int(ri == 1.0),
        "rmse": rmse(z.x, target),
        "f_final": trace.final.f,
        "gnorm_x": trace.final.gnorm_x,
        "iters": trace.final.k,
        "status": trace.status,
        "trace": trace,
    }


def cmd_cluster(cfg: dict, seed: int, trials: int, jobs: int) -> tuple:
    rows = _run_trials(run_cluster_trial, cfg, seed, trials, jobs)
    aggregates = {
        "trials": trials,
        "cluster_success_fraction": float(np.mean([r["cluster_success"] for r in rows])),
        "rand_index_mean": float(np.mean([r["rand_index"] for r in rows])),
        "rmse_mean": float(np.mean([r["rmse"] for r in rows])),
    }
    return "rtr2", _trial_tables(seed, rows), aggregates  # cluster_complete's solver


def cmd_rank_sweep(cfg: dict, seed: int, solver: str, trials: int, jobs: int) -> tuple:
    if "ranks" in cfg:
        if "rank_offsets" in cfg:
            raise ConfigError("field 'rank_offsets' does not apply when 'ranks' is given")
        ranks = [_number(r, int, "ranks") for r in _list(cfg["ranks"], "ranks")]
        if any(r < 1 for r in ranks):
            raise ConfigError(f"field 'ranks' must be >= 1, got {min(ranks)}")
    # the lifted rank of a target drawn from the sweep's own key
    *_, true_rank = _instance(dict(cfg, rank="auto"), (seed, 987))
    if "ranks" not in cfg:
        offsets = _list(cfg.get("rank_offsets", list(range(-2, 5))), "rank_offsets")
        # an offset that lands below rank 1 is skipped
        ranks = [r for r in (true_rank + _number(o, int, "rank_offsets") for o in offsets) if r >= 1]
        if not ranks:
            raise ConfigError(f"field 'rank_offsets' leaves no rank >= 1 (the true rank is {true_rank})")
    fracs = _sweep([(dict(cfg, rank=r), _cell_seed(seed, ri, 0)) for ri, r in enumerate(ranks)],
                   solver, trials, jobs)
    rows = [[r, int(r == true_rank), frac] for r, frac in zip(ranks, fracs)]
    aggregates = {"true_rank": true_rank, "ranks": ranks, "fractions": fracs}
    return solver, {"rank_sweep.csv": (["rank", "is_true_rank", "success_fraction"], rows)}, aggregates


def cmd_check(seed: int) -> int:
    """Derivative and geometry self-check; prints one PASS/FAIL line per item."""
    from . import manifold as mf

    rng = np.random.default_rng(seed)
    results = []

    spec = UosSpec(n=5, k=2, dims=(2, 2), pts_per=6)
    target, _ = gen_uos(spec, rng)
    meas = gen_entry_mask(target, 0.7, rng)

    for label, lifting in (
        ("monomial_kernel_d2", LiftingSpec.monomial(5, 2)),
        ("gaussian_kernel", LiftingSpec.gaussian(5, 2.0)),
        ("monomial_features_d2", LiftingSpec.monomials(5, 2)),
    ):
        obj = build_objective(lifting, 4, meas)
        amb = obj.grassmann_ambient()
        u_rand = truncated_svd(rng.standard_normal((amb, amb)), obj.rank_r)
        z = ProductPoint(default_init(obj).x, u_rand)
        report = fd_check(obj, z, tol=1e-5, rng=rng, n_dirs=5)
        results.append((f"fd_check[{label}]", report.passed,
                        f"grad_err={report.grad_error:.2e} hess_err={report.hess_error:.2e}"))

    u = truncated_svd(rng.standard_normal((6, 5)), 2)
    t = mf.grass_project(u, rng.standard_normal((6, 2)))
    ortho = float(np.linalg.norm(u.basis.T @ t))
    results.append(("grassmann_projection_horizontal", ortho < 1e-10, f"defect={ortho:.2e}"))
    again = mf.grass_project(u, t)
    idem = float(np.linalg.norm(again - t))
    results.append(("grassmann_projection_idempotent", idem < 1e-12, f"defect={idem:.2e}"))
    d0 = mf.grass_distance(mf.grass_retract(u, 0.0 * t), u)
    results.append(("grassmann_retract_zero", d0 < 1e-12, f"dist={d0:.2e}"))
    x0 = mf.meas_feasible_point(meas)
    res = float(np.linalg.norm(meas.residual(x0)))
    results.append(("measurement_feasible_point", res < 1e-10 * (1 + np.linalg.norm(meas.b)),
                    f"residual={res:.2e}"))

    all_ok = True
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
        all_ok = all_ok and ok
    return EXIT_OK if all_ok else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


# each command's runner and the top-level keys it reads (rank-sweep sets "rank");
# after cfg and seed, a runner reading "solver" takes the solver name, then one
# reading "trials" takes trials and jobs
_SOLVE_KEYS = ("data", "sensing", "lifting", "solver", "solver_options", "seed")
COMMANDS = {
    "recover": (cmd_recover, _SOLVE_KEYS + ("rank", "trials", "restarts")),
    "phase": (cmd_phase, _SOLVE_KEYS + ("rank", "trials", "restarts", "grid")),
    "noise": (cmd_noise, ("data", "sensing", "lifting", "solver_options", "seed", "rank",
                          "lambda_schedule")),
    "cluster": (cmd_cluster, ("data", "sensing", "lifting", "seed", "rank", "trials")),
    "rank-sweep": (cmd_rank_sweep, _SOLVE_KEYS + ("trials", "restarts", "ranks", "rank_offsets")),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one stderr line, like config
    errors; subparsers are made of this class too."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nlrecover",
        description="Nonlinear matrix recovery experiments (recovery, phase sweeps, "
        "noise continuation, clustering, rank sweeps).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="base seed (overrides config)")
        if "trials" in keys:
            p.add_argument("--trials", type=int, default=None, help="trials per cell (overrides config)")
            p.add_argument("--jobs", type=int, default=1, help="worker processes (1 = bit-exact)")
        p.add_argument("--out", required=True, help="output directory")
        if "solver" in keys:
            p.add_argument("--solver", choices=SOLVERS, default=None)
    p = sub.add_parser("check")
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # numpy's RuntimeWarnings (overflow, invalid value) would print their
    # own stderr lines ahead of the one line a failure prints; the worker
    # processes of --jobs are forked inside, and so inherit the filter
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return _run_command(args)


def _run_command(args) -> int:
    run, keys = COMMANDS.get(args.command, (None, ()))
    try:
        cfg = {} if args.command == "check" else _known(load_config(args.config), keys)
        seed = args.seed if args.seed is not None else _number(cfg.get("seed", 0), int, "seed")
        if seed < 0:
            raise ConfigError(f"field 'seed' must be >= 0, got {seed}")
        if args.command == "check":
            return cmd_check(seed)
        counts = ()
        if "trials" in keys:
            trials = args.trials if args.trials is not None else _number(cfg.get("trials", 1), int, "trials")
            if trials < 1:
                raise ConfigError("trials must be >= 1")
            if args.jobs < 1:
                raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
            counts = (trials, args.jobs)
        name = (parse_solver_name(cfg, args.solver),) if "solver" in keys else ()
        # --out is made only once the run succeeds, under its nearest existing ancestor
        out_dir = Path(args.out)
        ancestor = next(p for p in (out_dir, *out_dir.parents) if p.exists())
        if not (ancestor.is_dir() and os.access(ancestor, os.W_OK | os.X_OK)):
            raise ConfigError(f"--out {args.out} cannot be written: {ancestor} is not a writable directory")
        solver, tables, aggregates = run(cfg, seed, *name, *counts)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, DegenerateRetractionError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    summary = dict(command=args.command, solver=solver, seed=seed, config=cfg, aggregates=aggregates)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for file_name, (header, rows) in tables.items():
            _write_csv(out_dir / file_name, header, rows)
        (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        # the files written before the failure stay; summary.json is last
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
