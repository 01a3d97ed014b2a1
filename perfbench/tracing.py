"""Spans and solver-call records, installed on `nlrecover` from outside.

`Patcher.replace` swaps a function for a wrapper at every attribute of every
loaded `nlrecover` module or class that refers to it, so calls through any
import site (`nlrecover.cli.truncated_svd`, `nlrecover.objective.meas_project`,
...) reach the wrapper. `Patcher.restore` puts the original objects back.

`SolverLog` records every `rtr_solve` / `altmin_solve` call (status, outer and
inner iterations, final f, the returned point) and is on in every run.
`Tracer` times the public functions of each layer; it is on only in the
traced pass. A span's self time is its time minus the time covered by the
spans it causes.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# span name -> the (module, attribute) pairs it times; "Class.method" names a
# method, patched on the class
LAYER_SPANS = {
    "lifting.kernel": [("lifting", "monomial_kernel"), ("lifting", "gaussian_kernel")],
    "lifting.grad": [("lifting", "monomial_grad_x"), ("lifting", "gaussian_grad_x"),
                     ("lifting", "lift_grad_w"), ("lifting", "monomial_features_vjp")],
    "objective.cost": [("objective", "Objective.cost")],
    "objective.rgrad": [("objective", "Objective.rgrad")],
    "manifold.meas_apply": [("manifold", "MeasurementSubspace.apply")],
    "manifold.meas_adjoint": [("manifold", "MeasurementSubspace.adjoint")],
    "manifold.meas_project": [("manifold", "meas_project")],
    "manifold.retract": [("manifold", "grass_retract")],
    "manifold.tangent_arith": [("manifold", "ProductTangent.__add__"),
                               ("manifold", "ProductTangent.__sub__"),
                               ("manifold", "ProductTangent.__neg__"),
                               ("manifold", "ProductTangent.__mul__")],
    "manifold.meas_build": [("manifold", "MeasurementSubspace.from_mask"),
                            ("manifold", "MeasurementSubspace.from_dense")],
    "solvers.svd_exact": [("solvers", "truncated_svd")],
    "solvers.svd_rand": [("solvers", "randomized_svd")],
    "solvers.loop": [("solvers", "rtr_solve"), ("solvers", "altmin_solve")],
    "synth.gen": [("synth", "gen_uos"), ("synth", "gen_clusters"),
                  ("synth", "gen_entry_mask"), ("synth", "gen_gaussian_sensing")],
    "synth.rank": [("synth", "numerical_rank")],
    "synth.kmeans": [("synth", "cluster_assign")],
    "cli": [("cli", "run_lambda_continuation"), ("cli", "cluster_complete")],
}


def _monomial_hess_flops(x_mat, w, d, c) -> float:
    """Floating-point operations of one product with the monomial Hessian
    operator, computed from the shapes: nine GEMMs (2mnk each) plus six
    elementwise s x s passes."""
    n, s = x_mat.shape
    r = (w.basis if hasattr(w, "basis") else w).shape[1]
    gemm = 2 * (2 * n * s * s) + 2 * (2 * r * s * s) + 3 * (2 * n * s * s) + 2 * (2 * r * s * s)
    if d < 2:
        gemm -= 2 * n * s * s
    return float(gemm + 6 * s * s)


# operator factories: the factory call is one span, every product with the
# operator it returns is another; flops_of(factory args) counts one product
OPERATOR_SPANS = {
    "lifting.hess_build": (("lifting", "monomial_hess_operator"), "lifting.hess_apply",
                           _monomial_hess_flops),
    "objective.hess_build": (("objective", "Objective.rhess_operator"), "objective.hess_apply",
                             None),
}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "nlrecover" or name.startswith("nlrecover."))]


def _resolve(module: str, attr: str):
    """(owner, attribute name, current raw value) of a module function or a
    class method."""
    owner = sys.modules[f"nlrecover.{module}"]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, raw


class Patcher:
    """Replaces objects at every site that refers to them; undoes it all."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, module: str, attr: str, make_wrapper) -> None:
        owner, name, raw = _resolve(module, attr)
        if isinstance(raw, classmethod):
            new = classmethod(make_wrapper(raw.__func__))
        else:
            new = make_wrapper(raw)
        if isinstance(owner, type):
            # a class is one object shared by every importer; cover aliases
            # such as __rmul__ = __mul__
            sites = [(owner, k) for k, v in list(owner.__dict__.items()) if v is raw]
        else:
            sites = [(mod, k) for mod in _package_modules()
                     for k, v in list(vars(mod).items()) if v is raw]
        for site, key in sites:
            self._undo.append((site, key, raw))
            setattr(site, key, new)

    def restore(self) -> None:
        for site, key, raw in reversed(self._undo):
            setattr(site, key, raw)
        self._undo.clear()


@dataclass
class SolveRecord:
    """One solver call as the caller saw it."""

    solver: str
    obj: object
    point: object
    trace: object
    status: str
    outer: int
    inner: int
    f_final: float

    def outcome(self) -> tuple:
        """What the traced pass must reproduce exactly."""
        return (self.solver, self.status, self.outer, self.inner, self.f_final)


class SolverLog:
    """Records every rtr_solve / altmin_solve call made through the package."""

    SOLVERS = ("rtr_solve", "altmin_solve")

    def __init__(self):
        self.records: list[SolveRecord] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._patcher = Patcher()

    def install(self) -> None:
        for name in self.SOLVERS:
            self._patcher.replace("solvers", name, lambda fn, name=name: self._wrap(name, fn))

    def uninstall(self) -> None:
        self._patcher.restore()

    def _wrap(self, name, fn):
        def logged(obj, *args, **kwargs):
            self.attempted += 1
            try:
                point, trace = fn(obj, *args, **kwargs)
            except Exception as exc:
                self.failed += 1
                self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
                raise
            inner = sum(r.inner_iters or 0 for r in trace.records)
            self.records.append(SolveRecord(
                name, obj, point, trace, trace.status, len(trace.records), inner,
                trace.final.f))
            return point, trace

        return logged


class Tracer:
    """Per-span call counts and self times, plus counters read from the
    arguments and return values of tCG, Armijo and the Hessian products."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[float] = []  # child time of every open span
        self._patcher = Patcher()

    def install(self) -> None:
        for span, targets in LAYER_SPANS.items():
            for module, attr in targets:
                self._patcher.replace(module, attr, lambda fn, span=span: self.span(span, fn))
        for span, ((module, attr), apply_span, flops_of) in OPERATOR_SPANS.items():
            self._patcher.replace(
                module, attr,
                lambda fn, span=span, apply_span=apply_span, flops_of=flops_of:
                    self._operator_factory(span, apply_span, flops_of, fn))
        self._patcher.replace("solvers", "tcg_subproblem", self._tcg)
        self._patcher.replace("solvers", "armijo", self._armijo)

    def uninstall(self) -> None:
        self._patcher.restore()

    def span(self, name: str, fn):
        clock = time.perf_counter
        stack = self._open
        calls, self_s = self.calls, self.self_s

        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                calls[name] += 1
                self_s[name] += dt - stack.pop()
                if stack:
                    stack[-1] += dt

        return timed

    def _operator_factory(self, span: str, apply_span: str, flops_of, factory):
        build = self.span(span, factory)
        counts = self.counts

        def traced_build(*args, **kwargs):
            op = build(*args, **kwargs)
            if flops_of is None:
                return self.span(apply_span, op)
            flops = flops_of(*args, **kwargs)

            def counted(*a, **kw):
                counts[f"{apply_span}.flops"] += flops
                return op(*a, **kw)

            return self.span(apply_span, counted)

        return traced_build

    def _tcg(self, fn):
        sig = inspect.signature(fn)
        timed = self.span("solvers.tcg", fn)
        counts = self.counts

        def traced(*args, **kwargs):
            _, on_boundary, iters = out = timed(*args, **kwargs)
            bound = sig.bind(*args, **kwargs).arguments
            cap = bound["cfg"].max_inner if bound["cfg"].max_inner is not None else bound["dim"]
            counts["solvers.tcg.inner_iters"] += iters
            counts["solvers.tcg.boundary"] += bool(on_boundary)
            counts["solvers.tcg.cap"] += iters == cap
            return out

        return traced

    def _armijo(self, fn):
        counts = self.counts

        def counting(f_along, *args, **kwargs):
            def f(alpha):
                counts["solvers.armijo.evals"] += 1
                return f_along(alpha)

            return fn(f, *args, **kwargs)

        return self.span("solvers.armijo", counting)

