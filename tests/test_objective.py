import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nlrecover.lifting
from nlrecover.lifting import (
    LiftingSpec,
    feature_residual_cost,
    gaussian_grad_x,
    gaussian_kernel,
    kernel_tail_cost,
    kernel_trace_cost,
    monomial_features,
    monomial_features_vjp,
    monomial_kernel,
)
from nlrecover.manifold import (
    GrassmannPoint,
    MeasurementSubspace,
    ProductPoint,
    ProductTangent,
    grass_project,
    meas_project,
    product_inner,
    product_norm,
    product_retract,
)
from nlrecover.objective import Objective, fd_check
from nlrecover.solvers import default_init, truncated_svd, x_factor_problem

from conftest import small_dense_objective, small_masked_objective

KINDS = ["monomial_kernel", "gaussian_kernel", "monomial_features"]


def random_basis(rng, p, r):
    q, _ = np.linalg.qr(rng.standard_normal((p, r)))
    return q


class TestCost:
    def test_zero_at_exact_low_rank(self, rng):
        # rank-deficient data with the matching leading subspace: cost vanishes
        obj, _ = small_masked_objective(seed=1)
        x = np.zeros((4, 8))
        x[:2] = rng.standard_normal((2, 8))
        k = obj.lifting.kernel(x)
        rk = int(np.linalg.matrix_rank(k))
        assert rk < k.shape[0]
        obj2 = Objective(lifting=obj.lifting, rank_r=rk, measurement=obj.measurement)
        val = obj2.cost(ProductPoint(x, truncated_svd(k, rk)))
        assert abs(val) <= 1e-10 * max(1.0, np.trace(k))

    def test_trailing_eigenvalue_example(self):
        # kernel diag(3,2,1), r=2, W = (e1,e2): cost equals the tail value 1
        w = GrassmannPoint(np.eye(3)[:, :2])
        assert kernel_trace_cost(np.diag([3.0, 2.0, 1.0]), w.basis) == pytest.approx(1.0)

    def test_trace_kernel_identity_matched_gram(self, rng):
        # Frobenius residual on rows of Phi equals the kernel-trace value with
        # the matched Gram K = Phi^T Phi, for arbitrary W
        for n, d, s in ((3, 2, 12), (4, 2, 20), (2, 1, 8)):
            x = rng.standard_normal((n, s))
            phi = monomial_features(x, d)
            k = phi.T @ phi
            w = random_basis(rng, s, 3)
            lhs = feature_residual_cost(phi.T, w)  # rows of Phi projected
            rhs = kernel_trace_cost(k, w)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("kind", ["monomial_kernel", "gaussian_kernel"])
    def test_tail_cost_is_cost_at_refit_subspace(self, kind, rng):
        # the snap score of the clustering pipeline: no W is formed
        for seed in range(5):
            obj, _ = small_masked_objective(kind=kind, seed=seed)
            x = default_init(obj).x + obj.random_tangent(default_init(obj), rng).dx
            k = obj.lifting.lift(x).lifted
            refit = obj.cost(ProductPoint(x, truncated_svd(k, obj.rank_r)))
            assert kernel_tail_cost(k, obj.rank_r) == pytest.approx(refit, rel=1e-12)

    def test_penalized_equals_constrained_when_feasible(self):
        obj, target = small_masked_objective(seed=2)
        pen = Objective(
            lifting=obj.lifting,
            rank_r=obj.rank_r,
            measurement=obj.measurement,
            penalty_lambda=1e8,
        )
        z = default_init(obj)  # feasible X: penalty term is exactly zero
        assert pen.cost(z) == pytest.approx(obj.cost(z), rel=1e-12)

    def test_nonnegative(self, rng):
        obj, _ = small_masked_objective(seed=3)
        z = default_init(obj)
        k = obj.lifting.kernel(z.x)
        assert obj.cost(z) >= -1e-10 * np.trace(k)

    def test_rank_bounds(self):
        obj, _ = small_masked_objective(seed=0)
        with pytest.raises(ValueError):
            Objective(lifting=obj.lifting, rank_r=0, measurement=obj.measurement)
        with pytest.raises(ValueError):
            # ambient of the kernel form is the column count s = 8
            Objective(lifting=obj.lifting, rank_r=8, measurement=obj.measurement)

    @pytest.mark.parametrize("penalty", [0.0, -1.0, float("nan")])
    def test_penalty_must_be_positive(self, penalty):
        obj, _ = small_masked_objective(seed=0)
        with pytest.raises(ValueError, match="penalty lambda must be positive"):
            Objective(lifting=obj.lifting, rank_r=obj.rank_r, measurement=obj.measurement,
                      penalty_lambda=penalty)


class TestRgrad:
    def test_zero_at_exact_solution(self):
        # fully observed rank-deficient data: the initial point is optimal
        rng = np.random.default_rng(0)
        x = np.vstack([rng.standard_normal((1, 8)), np.zeros((2, 8))])
        meas = MeasurementSubspace.from_mask(np.ones((3, 8), dtype=bool), x)
        lifting = LiftingSpec.monomial(3, 2)
        rank = int(np.linalg.matrix_rank(lifting.kernel(x)))
        obj = Objective(lifting=lifting, rank_r=rank, measurement=meas)
        z = default_init(obj)
        g = obj.rgrad(z)
        assert obj.cost(z) <= 1e-10 * np.trace(lifting.kernel(x))
        assert product_norm(g) <= 1e-10 * max(1.0, np.trace(lifting.kernel(x)))

    def test_subspace_gradient_vanishes_on_invariant_subspace(self, rng):
        obj, _ = small_masked_objective(seed=4)
        z0 = default_init(obj)
        # U from the exact eigenvectors of K: the subspace component vanishes
        g = obj.rgrad(z0)
        assert np.linalg.norm(g.du) <= 1e-8 * max(1.0, np.trace(obj.lifting.kernel(z0.x)))

    def test_components_are_tangent(self, rng):
        for kind in ("monomial_kernel", "gaussian_kernel", "monomial_features"):
            obj, _ = small_masked_objective(kind=kind, seed=5)
            z = default_init(obj)
            u_rand = GrassmannPoint(random_basis(rng, obj.grassmann_ambient(), obj.rank_r))
            z = ProductPoint(z.x, u_rand)
            g = obj.rgrad(z)
            assert np.linalg.norm(obj.measurement.apply(g.dx)) <= 1e-10 * max(1.0, np.linalg.norm(g.dx))
            assert np.linalg.norm(z.u.basis.T @ g.du) <= 1e-10 * max(1.0, np.linalg.norm(g.du))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("penalty", [None, 2.0])
    def test_x_block_alone(self, kind, penalty, rng):
        # altmin's inner loop and altmin2's X-subproblem read rgrad_x
        base, _ = small_masked_objective(kind=kind, seed=7)
        obj = Objective(lifting=base.lifting, rank_r=base.rank_r,
                        measurement=base.measurement, penalty_lambda=penalty)
        z0 = default_init(obj)
        z = ProductPoint(z0.x + obj.random_tangent(z0, rng).dx, z0.u)
        assert np.array_equal(obj.rgrad_x(z), obj.rgrad(z).dx)

    def test_features_built_once_per_call(self, monkeypatch, rng):
        # rgrad, the Hessian operators and the cost at one z read one Phi(X),
        # the one default_init built to fit the subspace
        calls = []
        build = nlrecover.lifting.monomial_features

        def counted(*args):
            calls.append(1)
            return build(*args)

        monkeypatch.setattr(nlrecover.lifting, "monomial_features", counted)
        obj, _ = small_masked_objective(kind="monomial_features", seed=8)
        z = default_init(obj)
        assert len(calls) == 1
        for method in (obj.rgrad, obj.rhess_operator, obj.cost, obj.rgrad_x,
                       obj.rhess_x_operator, obj.lifted_residual):
            method(z)
            assert len(calls) == 1, method.__name__
        obj.cost(ProductPoint(z.x.copy(), z.u))  # an equal X is another point
        assert len(calls) == 2

    def test_directional_derivative(self, rng):
        obj, _ = small_masked_objective(seed=6)
        z0 = default_init(obj)
        u_rand = GrassmannPoint(random_basis(rng, obj.grassmann_ambient(), obj.rank_r))
        z = ProductPoint(z0.x, u_rand)
        g = obj.rgrad(z)
        for _ in range(10):
            xi = obj.random_tangent(z, rng)
            xi = (1.0 / product_norm(xi)) * xi
            analytic = product_inner(g, xi)
            errs = []
            for h in (1e-4, 1e-5, 1e-6):
                fp = obj.cost(product_retract(z, h * xi))
                fm = obj.cost(product_retract(z, (-h) * xi))
                errs.append(abs((fp - fm) / (2 * h) - analytic))
            assert min(errs) <= 1e-6 * max(1.0, product_norm(g))

    def test_penalized_gradient_includes_misfit_term(self, rng):
        obj, target = small_masked_objective(seed=7)
        pen = Objective(
            lifting=obj.lifting, rank_r=obj.rank_r,
            measurement=obj.measurement, penalty_lambda=3.0,
        )
        z0 = default_init(obj)
        x_off = z0.x + rng.standard_normal(z0.x.shape)  # infeasible on purpose
        z = ProductPoint(x_off, z0.u)
        g = pen.rgrad(z)
        for _ in range(5):
            xi = pen.random_tangent(z, rng)
            xi = (1.0 / product_norm(xi)) * xi
            analytic = product_inner(g, xi)
            errs = []
            for h in (1e-4, 1e-5, 1e-6):
                fp = pen.cost(product_retract(z, h * xi))
                fm = pen.cost(product_retract(z, (-h) * xi))
                errs.append(abs((fp - fm) / (2 * h) - analytic))
            assert min(errs) <= 1e-5 * max(1.0, product_norm(g))


# (kind, degree): the monomial kernel at both degrees with line coefficients
AT_CASES = [("monomial_kernel", 1), ("monomial_kernel", 2), ("gaussian_kernel", 2),
            ("monomial_features", 2)]
AT_IDS = ["monomial_kernel_d1", "monomial_kernel_d2", "gaussian_kernel", "monomial_features"]


def one_lift_grad_x(lifting, x, w):
    """The Euclidean X gradient written out, each from a lift of its own."""
    p_perp = np.eye(w.shape[0]) - w @ w.T
    if lifting.kind == "monomial_kernel":
        d = lifting.degree
        return 2.0 * d * x @ (monomial_kernel(x, x, d - 1, lifting.offset) * p_perp)
    if lifting.kind == "gaussian_kernel":
        return gaussian_grad_x(x, p_perp, lifting.sigma, gaussian_kernel(x, x, lifting.sigma))
    phi = monomial_features(x, lifting.degree)
    return monomial_features_vjp(x, lifting.degree, 2.0 * (phi - w @ (w.T @ phi)), phi)


def riemannian_x_block(obj, gx, x):
    """The X block of the Riemannian gradient written out from its Euclidean
    part gx: plus the penalty term, or projected onto null(A)."""
    if obj.penalty_lambda is not None:
        return gx + 2.0 * obj.penalty_lambda * obj.measurement.adjoint(obj.measurement.residual(x))
    return meas_project(obj.measurement, gx)


class TestFixedSubspace:
    """The objective with the subspace held at u: `x_factor_problem`, the
    line coefficients and the evaluator `Objective.at(u)` keeps, all read
    from one lifted point per X."""

    @staticmethod
    def point(kind, d, penalty, rng):
        base, _ = small_masked_objective(kind=kind, d=d, seed=9)
        obj = Objective(lifting=base.lifting, rank_r=base.rank_r,
                        measurement=base.measurement, penalty_lambda=penalty)
        z0 = default_init(obj)
        u = GrassmannPoint(random_basis(rng, obj.grassmann_ambient(), obj.rank_r))
        return obj, ProductPoint(z0.x + obj.random_tangent(z0, rng).dx, u)

    @pytest.mark.parametrize("kind,d", AT_CASES, ids=AT_IDS)
    @pytest.mark.parametrize("penalty", [None, 2.0])
    def test_bit_identical_to_the_objective(self, kind, d, penalty, rng):
        obj, z = self.point(kind, d, penalty, rng)
        prob = x_factor_problem(obj, z.u)
        assert prob.cost(z.x) == obj.cost(z)
        written_out = obj.lifting.residual(obj.lifting.lift(z.x).lifted, z.u.basis)
        if penalty is not None:
            r = obj.measurement.residual(z.x)
            written_out += penalty * float(r @ r)
        assert obj.cost(z) == written_out
        gx = prob.grad(z.x)
        assert np.array_equal(gx, obj.rgrad_x(z))
        assert np.array_equal(gx, riemannian_x_block(obj, one_lift_grad_x(obj.lifting, z.x,
                                                                           z.u.basis), z.x))
        g = obj.rgrad(z)
        assert np.array_equal(gx, g.dx) and np.array_equal(obj.rgrad_u(z), g.du)

    @pytest.mark.parametrize("kind,d", AT_CASES, ids=AT_IDS)
    def test_line_coefficients_reproduce_the_cost(self, kind, d, rng):
        # only the monomial kernel of degree <= 2 has them, and only under
        # the constraint, which a step in null(A) keeps
        obj, z = self.point(kind, d, None, rng)
        dx = obj.random_tangent(z, rng).dx
        c0 = obj.cost(z)
        coeffs = obj.line_coefficients(z, dx)
        assert (coeffs is None) == (kind != "monomial_kernel")
        penalized = Objective(lifting=obj.lifting, rank_r=obj.rank_r,
                              measurement=obj.measurement, penalty_lambda=1.0)
        assert penalized.line_coefficients(z, dx) is None
        if coeffs is None:
            return
        c1 = float(np.vdot(obj.rgrad_x(z), dx))
        c2, c3, c4 = coeffs
        for a in (1e-3, 0.1, 0.7, 2.0):
            poly = c0 + a * (c1 + a * (c2 + a * (c3 + a * c4)))
            assert poly == pytest.approx(obj.cost(ProductPoint(z.x + a * dx, z.u)), rel=1e-12)

    def test_one_p_perp_per_subspace(self, monkeypatch, rng):
        calls = []
        build = nlrecover.lifting._w_perp

        def counted(*args):
            calls.append(1)
            return build(*args)

        monkeypatch.setattr(nlrecover.lifting, "_w_perp", counted)
        obj, z = self.point("monomial_kernel", 2, None, rng)
        at = obj.at(z.u)
        for _ in range(3):
            obj.rgrad(z)
            obj.rgrad_x(z)
            obj.line_coefficients(z, z.x)
        assert obj.at(z.u) is at and len(calls) == 1
        other = GrassmannPoint(z.u.basis.copy())
        assert obj.at(other) is not at
        obj.rgrad(ProductPoint(z.x, other))
        assert len(calls) == 2
        # the cost reads no evaluator: a trial point builds no P_perp
        obj.cost(ProductPoint(z.x, GrassmannPoint(z.u.basis.copy())))
        assert len(calls) == 2


class TestKeptPoint:
    """`Objective.lift` keeps the lift of the last X, keyed by identity."""

    def test_one_lift_per_array(self, rng):
        obj, _ = small_masked_objective(seed=4)
        x = default_init(obj).x
        point = obj.lift(x)
        assert obj.lift(x) is point
        copy = x.copy()
        assert obj.lift(copy) is not point
        assert all(np.array_equal(a, b) for a, b in zip(obj.lift(copy), point, strict=True))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("penalty", [None, 2.0])
    def test_no_reference_cycle(self, kind, penalty, rng):
        # the kept evaluator and point hold no reference back to the
        # objective: freed on its last reference, with the collector off, an
        # evaluated objective (its measurement and kept lift included) does
        # not outlive its last use, which keeps the peak memory of many solves
        # at one instance's
        base, _ = small_masked_objective(kind=kind, seed=5)
        obj = Objective(lifting=base.lifting, rank_r=base.rank_r,
                        measurement=base.measurement, penalty_lambda=penalty)
        z = default_init(obj)
        xi = obj.random_tangent(z, rng)
        enabled = gc.isenabled()
        gc.disable()
        try:
            obj.cost(z)
            obj.rgrad(z)
            obj.rhess_operator(z)(xi)
            obj.rhess_x_operator(z)(xi.dx)
            obj.line_coefficients(z, xi.dx)
            assert obj._point is not None and obj._at is not None
            ref = weakref.ref(obj)
            del obj
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


class TestQuotientInvariance:
    def test_cost_and_gradient_norm(self, rng):
        obj, _ = small_masked_objective(seed=8)
        z = default_init(obj)
        q, _ = np.linalg.qr(rng.standard_normal((obj.rank_r, obj.rank_r)))
        z_rot = ProductPoint(z.x, GrassmannPoint(z.u.basis @ q))
        assert obj.cost(z_rot) == pytest.approx(obj.cost(z), rel=1e-10)
        g = product_norm(obj.rgrad(z))
        g_rot = product_norm(obj.rgrad(z_rot))
        assert g_rot == pytest.approx(g, rel=1e-10, abs=1e-12)


class TestRhess:
    def _generic_point(self, obj, rng):
        z0 = default_init(obj)
        u = GrassmannPoint(random_basis(rng, obj.grassmann_ambient(), obj.rank_r))
        return ProductPoint(z0.x, u)

    def test_zero_tangent_maps_to_zero(self, rng):
        obj, _ = small_masked_objective(seed=9)
        z = self._generic_point(obj, rng)
        out = obj.rhess_operator(z)(ProductTangent(np.zeros_like(z.x), np.zeros_like(z.u.basis)))
        assert product_norm(out) == 0.0

    def test_symmetry(self, rng):
        obj, _ = small_masked_objective(seed=10)
        z = self._generic_point(obj, rng)
        for _ in range(5):
            xi = obj.random_tangent(z, rng)
            zeta = obj.random_tangent(z, rng)
            a = product_inner(xi, obj.rhess_operator(z)(zeta))
            b = product_inner(zeta, obj.rhess_operator(z)(xi))
            assert abs(a - b) <= 1e-8 * (1 + abs(a) + abs(b))

    @pytest.mark.parametrize("kind", KINDS)
    def test_taylor_order(self, kind, rng):
        # |f(Retr(t xi)) - f - t<g,xi> - t^2/2 <xi,H xi>| = O(t^3)
        obj, _ = small_masked_objective(kind=kind, seed=11)
        z = self._generic_point(obj, rng)
        xi = obj.random_tangent(z, rng)
        xi = (1.0 / product_norm(xi)) * xi
        f0 = obj.cost(z)
        g = obj.rgrad(z)
        h_xi = obj.rhess_operator(z)(xi)
        gxi = product_inner(g, xi)
        xhx = product_inner(xi, h_xi)
        ts = np.logspace(-1, -4, 7)
        res = np.array([
            abs(obj.cost(product_retract(z, t * xi)) - f0 - t * gxi - 0.5 * t * t * xhx)
            for t in ts
        ])
        if np.all(res < 1e-13 * (1 + abs(f0))):
            return  # residual at roundoff: quadratic model is exact
        slope = np.polyfit(np.log(ts), np.log(res + 1e-300), 1)[0]
        assert slope >= 2.7

    def test_penalty_hessian_term(self, rng):
        obj, _ = small_masked_objective(seed=12)
        masked = Objective(
            lifting=obj.lifting, rank_r=obj.rank_r,
            measurement=obj.measurement, penalty_lambda=2.0,
        )
        for pen in (masked, small_dense_objective(seed=12, penalty=2.0)):
            z = self._generic_point(pen, rng)
            xi = pen.random_tangent(z, rng)
            # penalized Hessian = unconstrained lifted Hessian + 2 lambda A^T A
            hx_pen = pen.rhess_operator(z)(xi).dx
            euclid = pen.lifting.at(z.u.basis).hess_operator(z.x, pen.lifting.lift(z.x))
            hx_lift, _ = euclid(xi.dx, xi.du)
            extra = 2.0 * 2.0 * pen.measurement.adjoint(pen.measurement.apply(xi.dx))
            assert np.allclose(hx_pen, hx_lift + extra, atol=1e-9)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("penalty", [None, 2.0])
    def test_x_operator_is_product_x_block(self, kind, penalty, rng):
        # the X-subproblem Hessian of altmin2 equals the product Hessian's X
        # block at du = 0, bit for bit
        base, _ = small_masked_objective(kind=kind, seed=16)
        obj = Objective(lifting=base.lifting, rank_r=base.rank_r,
                        measurement=base.measurement, penalty_lambda=penalty)
        z = self._generic_point(obj, rng)
        x_op = obj.rhess_x_operator(z)
        full = obj.rhess_operator(z)
        for _ in range(3):
            dx = obj.random_tangent(z, rng).dx
            expect = full(ProductTangent(dx, np.zeros_like(z.u.basis))).dx
            assert np.array_equal(x_op(dx), expect)


class TestRhessDense:
    """The Hessian under dense sensing (criterion 7), constrained to null(A)
    and penalized, where the penalty term reads the cached Gram A^T A."""

    @staticmethod
    def point(kind, penalty, seed, rng):
        obj = small_dense_objective(kind=kind, seed=seed, penalty=penalty)
        z0 = default_init(obj)
        dx = obj.random_tangent(z0, rng).dx  # off the affine set when penalized
        u = GrassmannPoint(random_basis(rng, obj.grassmann_ambient(), obj.rank_r))
        return obj, ProductPoint(z0.x + dx, u)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("penalty", [None, 2.0])
    def test_taylor_order(self, kind, penalty, rng):
        obj, z = self.point(kind, penalty, 21, rng)
        xi = obj.random_tangent(z, rng)
        xi = (1.0 / product_norm(xi)) * xi
        f0 = obj.cost(z)
        gxi = product_inner(obj.rgrad(z), xi)
        xhx = product_inner(xi, obj.rhess_operator(z)(xi))
        ts = np.logspace(-1, -4, 7)
        res = np.array([
            abs(obj.cost(product_retract(z, t * xi)) - f0 - t * gxi - 0.5 * t * t * xhx)
            for t in ts
        ])
        assert not np.all(res < 1e-13 * (1 + abs(f0)))  # the model is not exact here
        slope = np.polyfit(np.log(ts), np.log(res + 1e-300), 1)[0]
        assert slope >= 2.7

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("penalty", [None, 2.0])
    def test_symmetry(self, kind, penalty, rng):
        obj, z = self.point(kind, penalty, 22, rng)
        op = obj.rhess_operator(z)
        for _ in range(5):
            xi = obj.random_tangent(z, rng)
            zeta = obj.random_tangent(z, rng)
            a = product_inner(xi, op(zeta))
            b = product_inner(zeta, op(xi))
            assert abs(a - b) <= 1e-8 * (1 + abs(a) + abs(b))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("penalty", [None, 2.0])
    def test_output_is_tangent(self, kind, penalty, rng):
        obj, z = self.point(kind, penalty, 23, rng)
        out = obj.rhess_operator(z)(obj.random_tangent(z, rng))
        if obj.constrained:
            assert np.linalg.norm(obj.measurement.apply(out.dx)) <= 1e-10 * max(1.0, np.linalg.norm(out.dx))
        assert np.linalg.norm(z.u.basis.T @ out.du) <= 1e-10 * max(1.0, np.linalg.norm(out.du))


def composed_rhess_operators(obj, z):
    """`rhess_operator(z)` and `rhess_x_operator(z)` composed as they were
    before the curvature term and the penalty were applied in place: each
    step of a product makes a new array."""
    lifting, point = obj.at(z.u), obj.lift(z.x)
    euclid = lifting.hess_operator(z.x, point)
    u_gu = z.u.basis.T @ lifting.grad_basis(point)

    def hess_x(hx, dx):
        if obj.penalty_lambda is not None:
            return hx + obj.measurement.normal_apply(dx, scale=2.0 * obj.penalty_lambda)
        return meas_project(obj.measurement, hx)

    def apply(xi):
        hx, hu = euclid(xi.dx, xi.du)
        return ProductTangent(hess_x(hx, xi.dx), grass_project(z.u, hu - xi.du @ u_gu))

    return apply, lambda dx: hess_x(euclid(dx), dx)


class TestRhessBitForBit:
    """The Riemannian Hessian products against their composition from new
    arrays, to the bit, for every lifting under an entry mask, under
    constrained dense sensing and under the penalty (masked and dense); no
    product changes its input tangent."""

    LIFTS = {"monomial_d1": ("monomial_kernel", 1), "monomial_d2": ("monomial_kernel", 2),
             "monomial_d3": ("monomial_kernel", 3), "gaussian": ("gaussian_kernel", 2),
             "features": ("monomial_features", 2)}

    @staticmethod
    def point(lift, form, rng):
        kind, d = TestRhessBitForBit.LIFTS[lift]
        penalty = 2.0 if form.endswith("penalty") else None
        if form.startswith("dense"):
            obj = small_dense_objective(kind=kind, d=d, seed=31, penalty=penalty)
        else:
            base, _ = small_masked_objective(kind=kind, d=d, seed=31)
            obj = Objective(lifting=base.lifting, rank_r=base.rank_r,
                            measurement=base.measurement, penalty_lambda=penalty)
        z0 = default_init(obj)
        u = GrassmannPoint(random_basis(rng, obj.grassmann_ambient(), obj.rank_r))
        return obj, ProductPoint(z0.x + obj.random_tangent(z0, rng).dx, u)

    @pytest.mark.parametrize("lift", list(LIFTS))
    @pytest.mark.parametrize("form", ["mask", "dense", "mask_penalty", "dense_penalty"])
    def test_products_match_the_composition(self, lift, form, rng):
        obj, z = self.point(lift, form, rng)
        op, x_op = obj.rhess_operator(z), obj.rhess_x_operator(z)
        expect_op, expect_x_op = composed_rhess_operators(obj, z)
        for _ in range(3):
            xi = obj.random_tangent(z, rng)
            given = (xi.dx.tobytes(), xi.du.tobytes())
            out, expect = op(xi), expect_op(xi)
            assert out.dx.tobytes() == expect.dx.tobytes()
            assert out.du.tobytes() == expect.du.tobytes()
            assert x_op(xi.dx).tobytes() == expect_x_op(xi.dx).tobytes()
            assert (xi.dx.tobytes(), xi.du.tobytes()) == given


class TestRprecon:
    """The trust region's preconditioner is a symmetric positive definite map
    of the tangent space at z into itself, with one scale on the X block and
    the inverse of 2 U^T (-grad_U f / 2) on the subspace block."""

    @staticmethod
    def point(kind, form, rng):
        if form == "mask":
            obj, _ = small_masked_objective(kind=kind, s=9, seed=41)
        else:
            obj = small_dense_objective(kind=kind, seed=42, penalty=2.0 if form == "penalized" else None)
        z0 = default_init(obj)
        x = z0.x + obj.random_tangent(z0, rng).dx
        u = GrassmannPoint(random_basis(rng, obj.grassmann_ambient(), obj.rank_r))
        return obj, ProductPoint(x, u)

    @staticmethod
    def tangent_basis(obj, z, rng):
        """An orthonormal basis of the tangent space at z, as the columns of
        a matrix over the flattened (dx, du)."""
        dim = obj.x_dim() + (obj.grassmann_ambient() - obj.rank_r) * obj.rank_r
        samples = [obj.random_tangent(z, rng) for _ in range(dim + 5)]
        flat = np.stack([np.concatenate([t.dx.ravel(), t.du.ravel()]) for t in samples], axis=1)
        q, sv, _ = np.linalg.svd(flat, full_matrices=False)
        assert sv[dim - 1] > 1e-8 * sv[0] and (dim == len(sv) or sv[dim] < 1e-10 * sv[0])
        return q[:, :dim]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("form", ["mask", "dense", "penalized"])
    def test_symmetric_positive_definite_on_the_tangent_space(self, kind, form, rng):
        obj, z = self.point(kind, form, rng)
        precon = obj.rprecon_operator(z)
        basis = self.tangent_basis(obj, z, rng)
        n_x = z.x.size

        def unflat(v):
            return ProductTangent(v[:n_x].reshape(z.x.shape), v[n_x:].reshape(z.u.basis.shape))

        images = np.stack([np.concatenate([out.dx.ravel(), out.du.ravel()])
                           for out in map(precon, map(unflat, basis.T))], axis=1)
        # the images stay in the tangent space, where the matrix is SPD
        assert np.linalg.norm(images - basis @ (basis.T @ images)) <= 1e-10 * np.linalg.norm(images)
        mat = basis.T @ images
        assert np.linalg.norm(mat - mat.T) <= 1e-12 * np.linalg.norm(mat)
        assert np.linalg.eigvalsh(0.5 * (mat + mat.T))[0] > 0.0

    @pytest.mark.parametrize("kind", KINDS)
    def test_subspace_block_inverts_its_curvature(self, kind, rng):
        # M = sym(-U^T grad_U f): 2 W^T K W for kernels, 2 U^T Phi Phi^T U
        # for the features
        obj, z = self.point(kind, "mask", rng)
        lifted = obj.lifting.lift(z.x).lifted
        gram = lifted if obj.lifting.is_kernel else lifted @ lifted.T
        curvature = 2.0 * z.u.basis.T @ gram @ z.u.basis
        du = obj.random_tangent(z, rng).du
        out = obj.rprecon_operator(z)(ProductTangent(np.zeros_like(z.x), du))
        assert np.allclose(out.du @ curvature, du, rtol=1e-9, atol=1e-9 * np.abs(du).max())
        assert not out.dx.any()

    def test_flat_curvature_is_left_unscaled(self, rng):
        # at X = 0 the kernel (X^T X)^2 and its Hessian vanish, so neither
        # block has a curvature to scale by and the operator is the identity
        obj, _ = small_masked_objective(kind="monomial_kernel", s=9, seed=41)
        obj = Objective(lifting=LiftingSpec.monomial(obj.lifting.n, 2, offset=0.0), rank_r=obj.rank_r,
                        measurement=obj.measurement)
        z = ProductPoint(np.zeros((obj.measurement.n, 9)),
                         GrassmannPoint(random_basis(rng, 9, obj.rank_r)))
        xi = obj.random_tangent(z, rng)
        out = obj.rprecon_operator(z)(xi)
        assert np.array_equal(out.dx, xi.dx) and np.allclose(out.du, xi.du, rtol=0, atol=1e-15)


def _property_point(kind, seed, s):
    """A small completion problem and a generic point on its product manifold."""
    obj, _ = small_masked_objective(kind=kind, s=s, seed=seed)
    rng = np.random.default_rng(seed)
    z0 = default_init(obj)
    x = z0.x + obj.random_tangent(z0, rng).dx
    u = GrassmannPoint(random_basis(rng, obj.grassmann_ambient(), obj.rank_r))
    return obj, ProductPoint(x, u), rng


class TestRhessProperties:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1), s=st.integers(6, 12))
    def test_symmetric(self, kind, seed, s):
        obj, z, rng = _property_point(kind, seed, s)
        op = obj.rhess_operator(z)
        xi = obj.random_tangent(z, rng)
        zeta = obj.random_tangent(z, rng)
        a = product_inner(xi, op(zeta))
        b = product_inner(zeta, op(xi))
        assert abs(a - b) <= 1e-8 * (1 + abs(a) + abs(b))

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1), s=st.integers(6, 12))
    def test_output_is_tangent(self, kind, seed, s):
        obj, z, rng = _property_point(kind, seed, s)
        out = obj.rhess_operator(z)(obj.random_tangent(z, rng))
        assert np.linalg.norm(obj.measurement.apply(out.dx)) <= 1e-10 * max(1.0, np.linalg.norm(out.dx))
        assert np.linalg.norm(z.u.basis.T @ out.du) <= 1e-10 * max(1.0, np.linalg.norm(out.du))


class TestFdCheck:
    def test_monomial_passes(self, rng):
        obj, _ = small_masked_objective(seed=13)
        z0 = default_init(obj)
        z = ProductPoint(z0.x, GrassmannPoint(random_basis(rng, obj.grassmann_ambient(), obj.rank_r)))
        report = fd_check(obj, z, tol=1e-5, rng=rng, n_dirs=5)
        assert report.passed, (report.grad_error, report.hess_error)

    @pytest.mark.parametrize("kind", ["gaussian_kernel", "monomial_features"])
    def test_closed_form_hessians_pass(self, kind, rng):
        obj, _ = small_masked_objective(kind=kind, seed=17)
        z0 = default_init(obj)
        z = ProductPoint(z0.x, GrassmannPoint(random_basis(rng, obj.grassmann_ambient(), obj.rank_r)))
        report = fd_check(obj, z, tol=1e-5, rng=rng, n_dirs=5)
        assert report.passed, (report.grad_error, report.hess_error)
        assert report.hess_error > 0.0  # compared, not skipped

    def test_gaussian_gradient_passes(self, rng):
        obj, _ = small_masked_objective(kind="gaussian_kernel", seed=14)
        z0 = default_init(obj)
        z = ProductPoint(z0.x, GrassmannPoint(random_basis(rng, obj.grassmann_ambient(), obj.rank_r)))
        report = fd_check(obj, z, tol=1e-5, rng=rng, n_dirs=5)
        assert report.grad_error <= 1e-5

    def test_report_fields(self, rng):
        obj, _ = small_masked_objective(seed=15)
        report = fd_check(obj, default_init(obj), tol=1e-5, rng=rng, n_dirs=2)
        assert report.tol == 1e-5
        assert report.grad_error >= 0.0
