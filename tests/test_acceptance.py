"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
inline; every stated tolerance and runtime budget is asserted.
"""

import math
import time
from dataclasses import replace

import numpy as np

from nlrecover.cli import build_solver_configs, run_cluster_trial, run_lambda_continuation
from nlrecover.lifting import (
    LiftingSpec,
    feature_residual_cost,
    kernel_trace_cost,
    monomial_features,
    monomial_kernel,
)
from nlrecover.manifold import (
    GrassmannPoint,
    MeasurementSubspace,
    ProductPoint,
    grass_distance,
    product_inner,
)
from nlrecover.objective import Objective, fd_check
from nlrecover.solvers import (
    AltminConfig,
    RtrConfig,
    altmin_solve,
    default_init,
    randomized_svd,
    rtr_solve,
    rtr_solve_restarts,
    svd_policy,
    truncated_svd,
)
from nlrecover.synth import UosSpec, gen_entry_mask, gen_uos, numerical_rank, rmse


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def random_basis(rng, p, r):
    q, _ = np.linalg.qr(rng.standard_normal((p, r)))
    return q


def masked_instance(rng, lifting, n=4, s=8, r=2, delta=0.6):
    target = rng.standard_normal((n, s))
    mask = rng.random((n, s)) < delta
    mask[0, 0] = True
    meas = MeasurementSubspace.from_mask(mask, target)
    obj = Objective(lifting=lifting, rank_r=r, measurement=meas)
    z0 = default_init(obj)
    u = GrassmannPoint(random_basis(rng, obj.grassmann_ambient(), r))
    return obj, ProductPoint(z0.x, u)


def uos_instance(seed_key, n=15, k=2, dim=2, pts_per=20, delta=0.6, d=2):
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    target, _ = gen_uos(UosSpec(n=n, k=k, dims=(dim,) * k, pts_per=pts_per), rng)
    lifting = LiftingSpec.monomial(n, d)
    rank = numerical_rank(lifting.kernel(target), 1e-8)
    meas = gen_entry_mask(target, delta, rng)
    return Objective(lifting=lifting, rank_r=rank, measurement=meas), target


def test_criterion_1_derivative_correctness():
    t0 = time.time()
    rng = np.random.default_rng(100)
    worst_grad = 0.0
    worst_hess = 0.0
    worst_sym = 0.0
    kinds = [LiftingSpec.monomial(4, d) for d in (1, 2, 3)]
    kinds.append(LiftingSpec.gaussian(4, 1.8))
    for lifting in kinds:
        for _ in range(20):
            obj, z = masked_instance(rng, lifting)
            rep = fd_check(obj, z, tol=1e-5, rng=rng, n_dirs=2)
            worst_grad = max(worst_grad, rep.grad_error)
            worst_hess = max(worst_hess, rep.hess_error)
            xi = obj.random_tangent(z, rng)
            zeta = obj.random_tangent(z, rng)
            a = product_inner(xi, obj.rhess_operator(z)(zeta))
            b = product_inner(zeta, obj.rhess_operator(z)(xi))
            worst_sym = max(worst_sym, abs(a - b) / (1 + abs(a) + abs(b)))
    elapsed = time.time() - t0
    ok = worst_grad <= 1e-5 and worst_hess <= 1e-4 and worst_sym <= 1e-8 and elapsed < 30
    assert report(
        "criterion-1 derivatives",
        ok,
        f"grad={worst_grad:.2e}<=1e-5 hess={worst_hess:.2e}<=1e-4 "
        f"sym={worst_sym:.2e}<=1e-8 {elapsed:.1f}s<30s",
    )


def test_criterion_2_trace_kernel_identity():
    t0 = time.time()
    rng = np.random.default_rng(200)
    worst = 0.0
    for n, d, s in ((2, 1, 10), (3, 2, 20), (4, 2, 40), (4, 1, 30)):
        for _ in range(5):
            x = rng.standard_normal((n, s))
            phi = monomial_features(x, d)
            gram = phi.T @ phi
            w = random_basis(rng, s, min(3, s - 1))
            lhs = feature_residual_cost(phi.T, w)
            rhs = kernel_trace_cost(gram, w)
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-12))
            # optimal subspaces on both sides agree with the singular tail
            r = min(4, min(phi.shape) - 1)
            sv = np.linalg.svd(phi, compute_uv=False)
            tail = float(np.sum(sv[r:] ** 2))
            u_opt = truncated_svd(phi, r)
            w_opt = truncated_svd(gram, r)
            lhs_opt = feature_residual_cost(phi, u_opt.basis)
            rhs_opt = kernel_trace_cost(gram, w_opt.basis)
            scale = max(tail, 1e-9 * sv[0] ** 2)
            worst = max(worst, abs(lhs_opt - tail) / scale, abs(rhs_opt - tail) / scale)
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 5
    assert report(
        "criterion-2 trace-kernel identity",
        ok,
        f"max rel discrepancy {worst:.2e}<=1e-9, {elapsed:.1f}s<5s",
    )


def test_criterion_3_rank_facts():
    t0 = time.time()
    rng = np.random.default_rng(300)
    target, _ = gen_uos(UosSpec(n=15, k=4, dims=(2, 2, 2, 2), pts_per=38), rng)
    target = target[:, :150]  # exactly 150 points across the union
    ranks = {d: numerical_rank(monomial_kernel(target, target, d, 1.0), 1e-8) for d in (1, 2, 3)}
    phi_rank = numerical_rank(monomial_features(target, 2), 1e-8)
    elapsed = time.time() - t0
    ok = ranks == {1: 9, 2: 21, 3: 37} and phi_rank <= 24 and elapsed < 60
    assert report(
        "criterion-3 rank facts",
        ok,
        f"kernel ranks {ranks[1]}/{ranks[2]}/{ranks[3]} (want 9/21/37), "
        f"rank(features,d=2)={phi_rank}<=24, {elapsed:.1f}s<60s",
    )


def test_criterion_4_recovery_end_to_end():
    t0 = time.time()
    successes = 0
    for t in range(10):
        obj, target = uos_instance((4, t))
        z, trace = rtr_solve(obj, default_init(obj), RtrConfig(eps_g=1e-6, max_iter=500), truth=target)
        gnorm = math.hypot(trace.final.gnorm_x, trace.final.gnorm_u)
        if rmse(z.x, target) <= 1e-3 and gnorm <= 1e-6 and trace.final.k < 500:
            successes += 1
    elapsed = time.time() - t0
    ok = successes >= 8 and elapsed < 600
    assert report(
        "criterion-4 recovery",
        ok,
        f"{successes}/10 seeds with rmse<=1e-3 and grad<=1e-6, {elapsed:.1f}s<600s",
    )


def test_criterion_5_solver_comparison_shape():
    obj, target = uos_instance((5, 0), n=8, pts_per=12, delta=0.7)
    # first-order alternation plateaus short of the trust-region tolerance
    z_a, tr_a = altmin_solve(
        obj, default_init(obj),
        AltminConfig(eps_x=1e-10, eps_u=1e-10, schedule="adaptive",
                     max_outer=3000, max_inner=60),
        rng=np.random.default_rng(0),
    )
    plateau = math.hypot(tr_a.final.gnorm_x, tr_a.final.gnorm_u)
    altmin_ok = tr_a.status in ("stalled", "max_iter") and 1e-8 <= plateau <= 1e-6

    z_r, tr_r = rtr_solve(obj, default_init(obj), RtrConfig(eps_g=1e-6, max_iter=500))
    gnorms = [math.hypot(r.gnorm_x, r.gnorm_u) for r in tr_r.records]
    accepted = [k for k, r in enumerate(tr_r.records[:-1]) if r.rho is not None and r.rho > 0.1]
    ratios = [gnorms[k + 1] / gnorms[k] ** 2 for k in accepted[-3:]]
    rtr_ok = (
        tr_r.status == "grad_tol"
        and gnorms[-1] <= 1e-6
        and len(ratios) == 3
        and all(r <= 1e8 for r in ratios)
    )
    ok = altmin_ok and rtr_ok
    assert report(
        "criterion-5 solver comparison",
        ok,
        f"altmin plateau {plateau:.2e} in [1e-8,1e-6] ({tr_a.status}); "
        f"rtr terminal {gnorms[-1]:.2e}<=1e-6, superlinear ratios "
        + "/".join(f"{r:.1e}" for r in ratios),
    )


def test_criterion_6_clustering_with_missing_data():
    t0 = time.time()
    cfg = {
        "data": {"kind": "clusters", "n": 5, "k": 3, "pts_per": 20, "sigma_c": 0.5},
        "sensing": {"kind": "mask", "delta": 0.6},
        "lifting": {"kind": "gaussian_kernel", "sigma": 2.5},
        "rank": "auto",
    }
    successes = sum(run_cluster_trial(cfg, (0, t))["cluster_success"] for t in range(10))
    elapsed = time.time() - t0
    ok = successes >= 8 and elapsed < 300
    assert report(
        "criterion-6 clustering",
        ok,
        f"rand-index-1.0 in {successes}/10 seeds, {elapsed:.1f}s<300s",
    )


def test_criterion_7_noise_study():
    t0 = time.time()
    paper_err = {1e-2: 8e-2, 1e-3: 8e-3, 1e-4: 9e-4}
    details = []
    ok = True
    for sigma, target_err in paper_err.items():
        cfg = {
            "data": {"kind": "uos", "n": 10, "k": 2, "dim": 2, "pts_per": 20},
            "sensing": {"kind": "dense", "m": 360, "noise_sigma": sigma},
            "lifting": {"kind": "monomial_kernel", "degree": 2, "offset": 1.0},
            "rank": "auto",
            "solver_options": {"eps_g": 1e-6, "max_iter": 300},
        }
        rep = run_lambda_continuation(cfg, seed=0, lam0=1e-6, factor=10.0, steps=12, solver="rtr2")
        s = rep["summary"]
        ratio = s["misfit_clean"] / s["misfit_noisy"]
        err_ok = target_err / 3 <= s["err_fro"] <= target_err * 3
        ratio_ok = 0.4 / 2 <= ratio <= 0.4 * 2
        ok = ok and err_ok and ratio_ok
        details.append(f"sigma={sigma:.0e}: err={s['err_fro']:.2e} ratio={ratio:.2f}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 600
    assert report(
        "criterion-7 noise study",
        ok,
        "; ".join(details) + f"; {elapsed:.0f}s<600s",
    )


def test_criterion_8_descent_and_feasibility_invariants():
    obj, target = uos_instance((8, 0), n=8, pts_per=12, delta=0.7)
    b_norm = np.linalg.norm(obj.measurement.b)
    worst_feas = [0.0]

    def audit(z):
        worst_feas[0] = max(worst_feas[0], float(np.linalg.norm(obj.measurement.residual(z.x))))

    _, tr_r = rtr_solve(obj, default_init(obj), RtrConfig(eps_g=1e-6, max_iter=300), on_iterate=audit)
    _, tr_a = altmin_solve(
        obj, default_init(obj),
        AltminConfig(eps_x=1e-5, eps_u=1e-5, max_outer=200, max_inner=80),
        rng=np.random.default_rng(0), on_iterate=audit,
    )
    simple = replace(build_solver_configs({}, "simple"), eps_x=1e-5, max_outer=500)
    _, tr_s = altmin_solve(obj, default_init(obj), simple, on_iterate=audit)

    feas_ok = worst_feas[0] <= 1e-9 * (1 + b_norm)
    monotone_ok = True
    for trace in (tr_r, tr_a, tr_s):
        f_vals = [r.f for r in trace.records]
        monotone_ok = monotone_ok and all(
            f2 <= f1 + 1e-12 * (1 + abs(f1)) for f1, f2 in zip(f_vals, f_vals[1:])
        )
    armijo_ok = True
    beta = 1e-4
    for trace in (tr_a, tr_s):
        for r1, r2 in zip(trace.records, trace.records[1:]):
            if r1.step is None:
                continue
            bound = r1.f - beta * r1.step * r1.gnorm_x**2
            armijo_ok = armijo_ok and r2.f <= bound + 1e-10 * (1 + abs(r1.f))
    ok = feas_ok and monotone_ok and armijo_ok
    assert report(
        "criterion-8 invariants",
        ok,
        f"feasibility {worst_feas[0]:.2e}<={1e-9 * (1 + b_norm):.2e}, "
        f"monotone={monotone_ok}, armijo-decrease={armijo_ok}",
    )


def test_criterion_9_svd_machinery():
    rng = np.random.default_rng(900)
    # Eckart-Young residual against a full-SVD oracle
    y = rng.standard_normal((20, 30))
    r = 4
    u = truncated_svd(y, r)
    resid = np.linalg.norm(y - u.basis @ (u.basis.T @ y)) ** 2
    sv = np.linalg.svd(y, compute_uv=False)
    optimal = float(np.sum(sv[r:] ** 2))
    eckart_ok = abs(resid - optimal) <= 1e-10 * max(1.0, optimal)
    # randomized range finder on exactly rank-r input
    y_low = rng.standard_normal((18, r)) @ rng.standard_normal((r, 22))
    dist = grass_distance(truncated_svd(y_low, r), randomized_svd(y_low, r, 10, 1, rng))
    rand_ok = dist <= 1e-8
    # policy boundaries route exactly as specified
    tau1, tau2 = 1e-3, 1e-1
    policy_ok = (
        svd_policy(0.5, tau1, tau2) == "exact"
        and svd_policy(tau2, tau1, tau2) == "rand_power"
        and svd_policy(5e-2, tau1, tau2) == "rand_power"
        and svd_policy(tau1, tau1, tau2) == "rand_plain"
        and svd_policy(1e-4, tau1, tau2) == "rand_plain"
    )
    ok = eckart_ok and rand_ok and policy_ok
    assert report(
        "criterion-9 svd machinery",
        ok,
        f"eckart-young defect {abs(resid - optimal):.2e}, randomized dist {dist:.2e}<=1e-8, "
        f"policy routing {'exact' if policy_ok else 'broken'}",
    )


def test_criterion_10_rank_misestimation():
    t0 = time.time()
    true_rank = None
    fractions = {}
    for offset in range(-2, 5):
        succ = 0
        for t in range(3):
            rng = np.random.default_rng(np.random.SeedSequence((10, t)))
            target, _ = gen_uos(UosSpec(n=15, k=2, dims=(2, 2), pts_per=20), rng)
            lifting = LiftingSpec.monomial(15, 2)
            if true_rank is None:
                true_rank = numerical_rank(lifting.kernel(target), 1e-8)
            meas = gen_entry_mask(target, 0.6, rng)
            obj = Objective(lifting=lifting, rank_r=true_rank + offset, measurement=meas)
            z, _ = rtr_solve_restarts(
                obj, RtrConfig(eps_g=1e-6, max_iter=400), rng, n_starts=3, truth=target
            )
            succ += rmse(z.x, target) <= 1e-3
        fractions[true_rank + offset] = succ / 3.0
    at_true = fractions[true_rank]
    below_zero = all(fractions[r] == 0.0 for r in fractions if r < true_rank)
    maximal = all(at_true >= v for v in fractions.values())
    elapsed = time.time() - t0
    ok = below_zero and maximal and at_true > 0
    assert report(
        "criterion-10 rank misestimation",
        ok,
        f"true rank {true_rank}; fractions {fractions}; {elapsed:.0f}s",
    )
