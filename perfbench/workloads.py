"""The benchmark workloads: how each instance is built, solved and scored.

A workload is a fixed list of instance keys, chosen in advance with the CLI's
(seed, trial) convention and built through numpy's SeedSequence as the CLI
builds its trials; failing instances stay in the list. Every call goes
through a module attribute of `nlrecover` at call time, so the wrappers of
`tracing` see it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import nlrecover as nl
from nlrecover import cli
from nlrecover.synth import RECOVERY_RMSE_THRESHOLD


@dataclass
class Outcome:
    """Accuracy of one solved instance; `accurate` is its workload check."""

    rmse: float
    accurate: bool
    detail: str


@dataclass(frozen=True)
class Workload:
    name: str
    keys: tuple  # the instances, as SeedSequence keys
    setup: Callable  # key -> instance
    solve: Callable  # instance -> Outcome
    exercises: tuple  # spans that must record calls in the traced run
    setup_in_solve: bool = False  # the solve repeats the set-up; subtract it


def _rng(key):
    return np.random.default_rng(np.random.SeedSequence(key))


# --- uniform entry mask over a union of subspaces, monomial kernel d=2 -----


def _uos_mask_setup(pts_per: int):
    def setup(key):
        rng = _rng(key)
        target, _ = nl.gen_uos(nl.UosSpec(n=15, k=2, dims=(2, 2), pts_per=pts_per), rng)
        meas = nl.gen_entry_mask(target, 0.6, rng)
        lifting = nl.LiftingSpec.monomial(15, 2, 1.0)
        rank = nl.numerical_rank(lifting.kernel(target), 1e-8)
        obj = nl.Objective(lifting=lifting, rank_r=rank, measurement=meas)
        return {"obj": obj, "z0": nl.default_init(obj), "target": target, "rng": rng}

    return setup


def _recovery(point, target) -> Outcome:
    err = nl.rmse(point.x, target)
    return Outcome(err, err <= RECOVERY_RMSE_THRESHOLD,
                   f"rmse {err:.3e} (threshold {RECOVERY_RMSE_THRESHOLD:g})")


def _solve_rtr(inst) -> Outcome:
    z, _ = nl.rtr_solve(inst["obj"], inst["z0"], nl.RtrConfig(eps_g=1e-6, max_iter=500),
                        truth=inst["target"])
    return _recovery(z, inst["target"])


ALTMIN1 = cli.build_solver_configs({}, "altmin1")
# altmin1 cut from 200 to 20 outer rounds: a full solve takes 10 to 15 s
ALTMIN1_SHORT = replace(ALTMIN1, max_outer=20)


def _solve_altmin(inst) -> Outcome:
    z, _ = nl.altmin_solve(inst["obj"], inst["z0"], ALTMIN1, rng=inst["rng"],
                           truth=inst["target"])
    return _recovery(z, inst["target"])


def _solve_altmin_short(inst) -> Outcome:
    """20 rounds do not recover the matrix; the check is that the error fell
    below that of the starting point."""
    target = inst["target"]
    start = nl.rmse(inst["z0"].x, target)
    z, _ = nl.altmin_solve(inst["obj"], inst["z0"], ALTMIN1_SHORT, rng=inst["rng"],
                           truth=target)
    err = nl.rmse(z.x, target)
    return Outcome(err, err < start, f"rmse {err:.3e} below the start's {start:.3e}")


# --- criterion-6 clustering pipeline, Gaussian kernel ----------------------

CLUSTERS = nl.ClusterSpec(n=5, k=3, pts_per=20, sigma_c=0.5)
CLUSTER_SIGMA = 2.5


def _cluster_setup(key):
    rng = _rng(key)
    target, labels = nl.gen_clusters(CLUSTERS, rng)
    meas = nl.gen_entry_mask(target, 0.6, rng, per_column=True)
    return {"meas": meas, "target": target, "labels": labels, "rng": rng}


def _solve_cluster(inst) -> Outcome:
    rng = inst["rng"]
    z, _ = cli.cluster_complete(inst["meas"], CLUSTERS.k, CLUSTER_SIGMA, rng)
    pred = nl.cluster_assign(z.x, CLUSTERS.k, rng)
    ri = nl.rand_index(inst["labels"], pred)
    return Outcome(nl.rmse(z.x, inst["target"]), ri == 1.0, f"rand index {ri:.4f} (want 1.0)")


# --- criterion-7 noise study at sigma = 1e-3 -------------------------------

NOISE_CFG = {
    "data": {"kind": "uos", "n": 10, "k": 2, "dim": 2, "pts_per": 20},
    "sensing": {"kind": "dense", "m": 360, "noise_sigma": 1e-3},
    "lifting": {"kind": "monomial_kernel", "degree": 2, "offset": 1.0},
    "rank": "auto",
    "solver_options": {"eps_g": 1e-6, "max_iter": 300},
}
LADDER = {"lam0": 1e-6, "factor": 10.0, "steps": 12}
NOISE_RTR = nl.RtrConfig(eps_g=1e-6, max_iter=300)
PENALTY = 1e-2  # lambda* of the ladder on most instances
NOISE_ERR_TARGET = 8e-3  # the paper's error at sigma = 1e-3
NOISE_ERR_BAND = (NOISE_ERR_TARGET / 3, NOISE_ERR_TARGET * 3)
NOISE_RATIO_BAND = (0.2, 0.8)  # clean misfit / noisy misfit


def _noise_setup(key):
    """The set-up steps of run_lambda_continuation, in its order."""
    rng = _rng(key)
    spec = cli.parse_data_spec(NOISE_CFG)
    target, _ = cli.generate_data(spec, rng)
    meas, b_clean = cli.build_sensing(NOISE_CFG, target, rng)
    lifting = cli.parse_lifting(NOISE_CFG, spec)
    rank = cli.resolve_rank(NOISE_CFG, lifting, spec, target)
    z0 = nl.default_init(cli.build_objective(lifting, rank, meas))
    return {"key": key, "target": target, "meas": meas, "b_clean": b_clean,
            "lifting": lifting, "rank": rank, "z0": z0}


def _dense_penalty_setup(key):
    inst = _noise_setup(key)
    inst["obj"] = cli.build_objective(inst["lifting"], inst["rank"], inst["meas"],
                                      penalty=PENALTY)
    return inst


def _criterion7_bands(err_fro, misfit_clean, misfit_noisy, target, prefix="") -> Outcome:
    ratio = misfit_clean / misfit_noisy
    err_ok = NOISE_ERR_BAND[0] <= err_fro <= NOISE_ERR_BAND[1]
    ratio_ok = NOISE_RATIO_BAND[0] <= ratio <= NOISE_RATIO_BAND[1]
    detail = (f"{prefix}err_fro {err_fro:.3e} in [{NOISE_ERR_BAND[0]:.2e}, "
              f"{NOISE_ERR_BAND[1]:.2e}]: {err_ok}; clean/noisy misfit {ratio:.4f} in "
              f"{list(NOISE_RATIO_BAND)}: {ratio_ok}")
    return Outcome(err_fro / math.sqrt(target.size), err_ok and ratio_ok, detail)


def _solve_dense_penalty(inst) -> Outcome:
    z, _ = nl.rtr_solve(inst["obj"], inst["z0"], NOISE_RTR, truth=inst["target"])
    meas = inst["meas"]
    ax = meas.apply(z.x)
    return _criterion7_bands(float(np.linalg.norm(z.x - inst["target"])),
                             float(np.linalg.norm(ax - inst["b_clean"])),
                             float(np.linalg.norm(ax - meas.b)), inst["target"])


def _solve_noise(inst) -> Outcome:
    # run_lambda_continuation builds its instance from the key (seed, 0)
    rep = cli.run_lambda_continuation(NOISE_CFG, inst["key"][0], LADDER["lam0"],
                                      LADDER["factor"], LADDER["steps"], "rtr2")
    s = rep["summary"]
    return _criterion7_bands(s["err_fro"], s["misfit_clean"], s["misfit_noisy"],
                             inst["target"], prefix=f"lambda* {s['lambda_star']:.0e} ")


# The first four are the workloads of BENCHMARK.json: a pass over the list
# takes 3 to 11 s, so a run repeats it. The last two are the paper-sized noise
# ladder and alternating minimization, 10 to 30 s per solve, run on request.
# perfbench/README.md has the measurements behind the sizes.
WORKLOADS = {
    w.name: w
    for w in (
        # s=180: the Hessian product's s x s GEMMs dominate the solve
        Workload(
            "mask_rtr", tuple((j, 0) for j in range(8)), _uos_mask_setup(90), _solve_rtr,
            exercises=("lifting.kernel", "lifting.hess_build", "lifting.hess_apply",
                       "objective.cost", "objective.rgrad", "objective.hess_apply",
                       "manifold.meas_project", "manifold.retract", "manifold.tangent_arith",
                       "manifold.meas_build", "solvers.tcg", "solvers.svd_exact",
                       "synth.gen", "synth.rank"),
        ),
        # one penalized solve of the criterion-7 instance at lambda = 1e-2:
        # dense A apply and adjoint, tangent arithmetic and tCG on tiny matrices
        Workload(
            "dense_penalty", tuple((j, 0) for j in range(12)), _dense_penalty_setup,
            _solve_dense_penalty,
            exercises=("lifting.kernel", "lifting.hess_build", "lifting.hess_apply",
                       "objective.hess_apply", "manifold.meas_apply", "manifold.meas_adjoint",
                       "manifold.retract", "manifold.tangent_arith", "manifold.meas_build",
                       "solvers.tcg", "solvers.svd_exact", "synth.gen", "synth.rank"),
        ),
        # criterion 6: the only Gaussian-kernel path, its finite-difference
        # Hessian, many exact SVDs and k-means
        Workload(
            "cluster_gauss", tuple((0, t) for t in range(10)), _cluster_setup, _solve_cluster,
            exercises=("lifting.kernel", "lifting.grad", "objective.cost",
                       "objective.hess_apply", "solvers.tcg", "solvers.svd_exact",
                       "synth.kmeans", "synth.gen", "manifold.meas_build", "cli"),
        ),
        # the CLI's altmin1 at s=40 for 20 rounds: no Hessian, cost-only Armijo
        # evaluations at trial points and the randomized SVD
        Workload(
            "altmin_mask", tuple((j, 0) for j in range(8)), _uos_mask_setup(20),
            _solve_altmin_short,
            exercises=("lifting.kernel", "lifting.grad", "objective.cost", "objective.rgrad",
                       "manifold.meas_project", "manifold.meas_build", "solvers.armijo",
                       "solvers.svd_exact", "solvers.svd_rand", "synth.gen"),
        ),
        # criterion 7 at sigma = 1e-3, the whole ladder, with its max_iter rung
        Workload(
            "noise_ladder", ((0, 0),), _noise_setup, _solve_noise, setup_in_solve=True,
            exercises=("lifting.kernel", "lifting.hess_apply", "objective.hess_apply",
                       "manifold.meas_apply", "manifold.meas_adjoint", "manifold.retract",
                       "manifold.tangent_arith", "manifold.meas_build", "solvers.tcg",
                       "solvers.svd_exact", "synth.gen", "synth.rank", "cli"),
        ),
        # the CLI's altmin1 at s=40 to the end; it stalls (criterion 5)
        Workload(
            "altmin_full", ((0, 0),), _uos_mask_setup(20), _solve_altmin,
            exercises=("lifting.kernel", "lifting.grad", "objective.cost", "objective.rgrad",
                       "manifold.meas_project", "manifold.meas_build", "solvers.armijo",
                       "solvers.svd_exact", "solvers.svd_rand", "synth.gen"),
        ),
    )
}
