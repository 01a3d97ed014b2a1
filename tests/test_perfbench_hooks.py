"""The benchmark under perfbench/ patches and calls nlrecover by name from
outside the package; a rename or deletion in src/ must fail here, not in a
traced benchmark run."""

import ast
import importlib
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nlrecover
import nlrecover.cli
import nlrecover.lifting
import nlrecover.manifold
import nlrecover.objective
import nlrecover.solvers
import nlrecover.synth

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def load_tracing(monkeypatch):
    return load_perfbench(monkeypatch, "tracing")


def test_every_traced_target_resolves(monkeypatch):
    tracing = load_tracing(monkeypatch)
    targets = [t for pairs in tracing.LAYER_SPANS.values() for t in pairs]
    targets += [target for target, _, _ in tracing.OPERATOR_SPANS.values()]
    targets += [("solvers", name) for name in ("tcg_subproblem", "armijo")]
    targets += [("solvers", name) for name in tracing.SolverLog.SOLVERS]
    assert len(targets) >= 36
    for module, attr in targets:
        _, _, raw = tracing._resolve(module, attr)
        assert callable(raw) or isinstance(raw, classmethod), (module, attr)


def test_workload_names_exist():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in ("nl", "cli")
    }
    owners = {"nl": nlrecover, "cli": nlrecover.cli}
    assert used
    missing = [f"{owner}.{attr}" for owner, attr in sorted(used)
               if not hasattr(owners[owner], attr)]
    assert not missing


def test_run_imports_exist():
    # run.py imports from nlrecover inside its functions and reads the
    # trust region's acceptance threshold from a default RtrConfig
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nlrecover")
               for alias in node.names]
    assert ("nlrecover.solvers", "RtrConfig") in imports
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert not missing
    rho_prime = nlrecover.solvers.RtrConfig().rho_prime
    assert isinstance(rho_prime, float) and 0.0 < rho_prime < 0.25


def test_tcg_wrapper_runs_the_real_subproblem(monkeypatch):
    # the traced run binds tcg_subproblem's arguments by name and unpacks its
    # (step, hit_boundary, iterations) result
    tracing = load_tracing(monkeypatch)
    tcg = nlrecover.solvers.tcg_subproblem
    tracer = tracing.Tracer()
    traced = tracer._tcg(tcg)
    h_mat = np.diag([1.0, 2.0, 3.0])
    args = (np.ones(3), lambda v: h_mat @ v, 1.0, nlrecover.solvers.TcgConfig(),
            lambda a, b: float(a @ b), 3)
    expect = tcg(*args)
    for kwargs in ({}, {"path": {}}):
        eta, on_boundary, iters = traced(*args, **kwargs)
        assert np.array_equal(eta, expect[0]) and (on_boundary, iters) == expect[1:]
    assert tracer.calls["solvers.tcg"] == 2
    assert tracer.counts["solvers.tcg.inner_iters"] == 2 * expect[2]
    assert tracer.counts["solvers.tcg.boundary"] == 2 * expect[1]


def test_monomial_hess_wrapper_keeps_the_product(monkeypatch):
    # the traced run wraps monomial_hess_operator and binds its (x_mat, w,
    # d, c) arguments to count the flops of each product it returns
    tracing = load_tracing(monkeypatch)
    (module, attr), apply_span, flops_of = tracing.OPERATOR_SPANS["lifting.hess_build"]
    factory = getattr(importlib.import_module(f"nlrecover.{module}"), attr)
    assert factory is nlrecover.lifting.monomial_hess_operator
    tracer = tracing.Tracer()
    traced = tracer._operator_factory("lifting.hess_build", apply_span, flops_of, factory)
    rng = np.random.default_rng(7)
    n, s, r = 3, 9, 2
    for d in (1, 2, 3):
        x = rng.standard_normal((n, s))
        w, _ = np.linalg.qr(rng.standard_normal((s, r)))
        plain, counted = factory(x, w, d, 1.0), traced(x, w, d=d, c=1.0)
        for args in ((rng.standard_normal((n, s)), rng.standard_normal((s, r))),
                     (rng.standard_normal((n, s)),)):
            expect, got = plain(*args), counted(*args)
            if len(args) == 1:
                expect, got = (expect,), (got,)
            assert all(np.array_equal(g, e) for g, e in zip(got, expect, strict=True))
    assert tracer.calls["lifting.hess_build"] == 3
    assert tracer.calls[apply_span] == 6
    assert tracer.counts[f"{apply_span}.flops"] > 0


def test_armijo_wrapper_counts_every_trial(monkeypatch):
    # the traced run counts each evaluation of f_along, the first trial
    # included, and passes the arguments and the (alpha, f(alpha)) result
    tracing = load_tracing(monkeypatch)
    armijo = nlrecover.solvers.armijo
    tracer = tracing.Tracer()
    traced = tracer._armijo(armijo)
    f_along = lambda a: 0.5 * (1.0 - a) ** 2
    for first, evals in ((0.9, 1), (3.0, 3), (None, 2)):
        assert traced(f_along, 0.5, -1.0, first=first) == armijo(f_along, 0.5, -1.0, first=first)
        assert tracer.counts["solvers.armijo.evals"] == evals
        tracer.counts.clear()
    assert tracer.calls["solvers.armijo"] == 3


def traced_pass(tracing, wl, key):
    """The traced benchmark run on one instance: solved untraced, then with
    every span installed. Returns the untraced and traced solver outcomes and
    the tracer."""
    log, tracer = tracing.SolverLog(), tracing.Tracer()
    log.install()
    try:
        wl.solve(wl.setup(key))
        n_untraced = len(log.records)
        tracer.install()
        try:
            wl.solve(wl.setup(key))
        finally:
            tracer.uninstall()
    finally:
        log.uninstall()
    outcomes = [rec.outcome() for rec in log.records]
    return outcomes[:n_untraced], outcomes[n_untraced:], tracer


def test_altmin_mask_traced_pass_gate(monkeypatch):
    # the traced benchmark run's gate on one altmin_mask instance cut to two
    # rounds: every span the workload exercises records calls, and the
    # solver outcome is the same with and without the spans
    tracing = load_tracing(monkeypatch)
    workloads = load_perfbench(monkeypatch, "workloads")
    monkeypatch.setattr(workloads, "ALTMIN1_SHORT", replace(workloads.ALTMIN1_SHORT, max_outer=2))
    wl = workloads.WORKLOADS["altmin_mask"]
    (untraced,), (traced,), tracer = traced_pass(tracing, wl, wl.keys[0])
    assert untraced == traced
    assert untraced[:3] == ("altmin_solve", "max_iter", 3)
    assert [span for span in wl.exercises if tracer.calls[span] == 0] == []


@pytest.mark.parametrize("name", ["mask_rtr", "dense_penalty", "cluster_gauss"])
def test_rtr_traced_pass_gate(name, monkeypatch):
    # the same gate on the first instance of each trust-region workload: a
    # change to src/ that leaves a span the workload exercises without calls,
    # or that moves a solver outcome under the spans, fails here
    tracing = load_tracing(monkeypatch)
    workloads = load_perfbench(monkeypatch, "workloads")
    wl = workloads.WORKLOADS[name]
    untraced, traced, tracer = traced_pass(tracing, wl, wl.keys[0])
    assert untraced and untraced == traced
    assert {outcome[0] for outcome in untraced} == {"rtr_solve"}
    assert [span for span in wl.exercises if tracer.calls[span] == 0] == []
