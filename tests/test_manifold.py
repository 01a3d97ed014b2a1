import pickle
import warnings

import numpy as np
import pytest
import scipy.linalg

import nlrecover.manifold
from nlrecover.cli import run_lambda_continuation
from nlrecover.lifting import LiftingSpec
from nlrecover.manifold import (
    DegenerateRetractionError,
    DimensionError,
    GrassmannPoint,
    MeasurementSubspace,
    NumericalError,
    ProductPoint,
    ProductTangent,
    RankDeficiencyError,
    grass_distance,
    grass_project,
    grass_retract,
    meas_feasible_point,
    meas_project,
    product_inner,
    product_norm,
    product_retract,
)
from nlrecover.objective import Objective
from nlrecover.solvers import RtrConfig, default_init, rtr_solve


def random_point(rng, p, r):
    q, _ = np.linalg.qr(rng.standard_normal((p, r)))
    return GrassmannPoint(q)


class TestGrassmannPoint:
    def test_validates_orthonormality(self):
        with pytest.raises(ValueError):
            GrassmannPoint(np.ones((4, 2)))

    def test_validates_dimensions(self):
        with pytest.raises(DimensionError):
            GrassmannPoint(np.eye(3))  # r == p not allowed

    def test_accepts_orthonormal_basis(self, rng):
        u = random_point(rng, 6, 2)
        assert u.basis.shape == (6, 2)
        assert np.allclose(u.basis.T @ u.basis, np.eye(2), atol=1e-12)


class TestGrassProject:
    def test_annihilates_span(self, rng):
        u = random_point(rng, 5, 2)
        z = u.basis @ rng.standard_normal((2, 2))
        t = grass_project(u, z)
        assert np.linalg.norm(t) < 1e-12

    def test_fixes_orthogonal_complement(self):
        u = GrassmannPoint(np.array([[1.0], [0.0]]))
        e2 = np.array([[0.0], [1.0]])
        t = grass_project(u, e2)
        assert np.allclose(t, e2)

    def test_idempotent(self, rng):
        u = random_point(rng, 6, 2)
        z = rng.standard_normal((6, 2))
        once = grass_project(u, z)
        twice = grass_project(u, once)
        assert np.linalg.norm(twice - once) <= 1e-12 * max(1.0, np.linalg.norm(once))

    def test_horizontal(self, rng):
        for _ in range(5):
            u = random_point(rng, 7, 3)
            z = rng.standard_normal((7, 3))
            t = grass_project(u, z)
            assert np.linalg.norm(u.basis.T @ t) <= 1e-10 * max(1.0, np.linalg.norm(t))

    def test_self_adjoint(self, rng):
        u = random_point(rng, 6, 2)
        a = rng.standard_normal((6, 2))
        b = rng.standard_normal((6, 2))
        lhs = np.vdot(grass_project(u, a), b)
        rhs = np.vdot(a, grass_project(u, b))
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))

    def test_shape_mismatch(self, rng):
        u = random_point(rng, 5, 2)
        with pytest.raises(DimensionError):
            grass_project(u, np.zeros((5, 3)))


class TestGrassRetract:
    def test_zero_tangent_is_identity(self, rng):
        u = random_point(rng, 6, 2)
        v = grass_retract(u, np.zeros((6, 2)))
        assert grass_distance(u, v) <= 1e-12

    def test_two_dimensional_case(self):
        # span(e1) moved along t*e2 lands on span((1, t))
        u = GrassmannPoint(np.array([[1.0], [0.0]]))
        t = 0.7
        v = grass_retract(u, np.array([[0.0], [t]]))
        expected = np.array([[1.0], [t]]) / np.hypot(1.0, t)
        assert np.allclose(np.abs(v.basis), np.abs(expected), atol=1e-14)

    def test_first_order_agreement(self, rng):
        # d/dt f(Retr(t h)) at 0 equals <projected gradient, h> for a smooth f
        u = random_point(rng, 6, 2)
        a = rng.standard_normal((6, 6))
        a = a + a.T

        def f(point):
            return float(np.trace(point.basis.T @ a @ point.basis))

        h = grass_project(u, rng.standard_normal((6, 2)))
        grad = grass_project(u, 2.0 * a @ u.basis)
        analytic = float(np.vdot(grad, h))
        eps = 1e-5
        fd = (f(grass_retract(u, eps * h)) - f(grass_retract(u, -eps * h))) / (2 * eps)
        assert abs(fd - analytic) <= 1e-6 * max(1.0, abs(analytic))

    def test_rank_deficient_rejected(self):
        u = GrassmannPoint(np.array([[1.0], [0.0]]))
        with pytest.raises(DegenerateRetractionError):
            grass_retract(u, np.array([[-1.0], [0.0]]))

    def test_result_orthonormal(self, rng):
        u = random_point(rng, 8, 3)
        h = grass_project(u, rng.standard_normal((8, 3)))
        v = grass_retract(u, h)
        assert np.allclose(v.basis.T @ v.basis, np.eye(3), atol=1e-12)


class TestGrassDistance:
    def test_same_point_zero(self, rng):
        u = random_point(rng, 5, 2)
        assert grass_distance(u, u) <= 1e-14

    def test_orthogonal_lines(self):
        u1 = GrassmannPoint(np.array([[1.0], [0.0]]))
        u2 = GrassmannPoint(np.array([[0.0], [1.0]]))
        assert abs(grass_distance(u1, u2) - 1.0) <= 1e-14

    def test_frobenius_identity(self, rng):
        # dist^2 = r - ||U1^T U2||_F^2, via an independent SVD evaluation
        u1 = random_point(rng, 8, 3)
        u2 = random_point(rng, 8, 3)
        d = grass_distance(u1, u2)
        identity = np.sqrt(3 - np.linalg.norm(u1.basis.T @ u2.basis) ** 2)
        assert abs(d - identity) <= 1e-10

    def test_metric_properties(self, rng):
        pts = [random_point(rng, 6, 2) for _ in range(3)]
        d01 = grass_distance(pts[0], pts[1])
        d10 = grass_distance(pts[1], pts[0])
        assert d01 == pytest.approx(d10, abs=1e-14)
        d02 = grass_distance(pts[0], pts[2])
        d12 = grass_distance(pts[1], pts[2])
        assert d02 <= d01 + d12 + 1e-12

    def test_rotation_invariance(self, rng):
        u1 = random_point(rng, 7, 3)
        u2 = random_point(rng, 7, 3)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rotated = GrassmannPoint(u1.basis @ q)
        assert grass_distance(rotated, u2) == pytest.approx(grass_distance(u1, u2), abs=1e-12)


class TestEntryMask:
    def test_full_observation_projects_to_zero(self, rng):
        m_mat = rng.standard_normal((4, 5))
        meas = MeasurementSubspace.from_mask(np.ones((4, 5), dtype=bool), m_mat)
        t = meas_project(meas, rng.standard_normal((4, 5)))
        assert np.all(t == 0.0)

    def test_feasible_point_full_observation(self, rng):
        m_mat = rng.standard_normal((4, 5))
        meas = MeasurementSubspace.from_mask(np.ones((4, 5), dtype=bool), m_mat)
        assert np.allclose(meas_feasible_point(meas), m_mat)

    def test_projection_zeroes_observed_entries(self, rng):
        mask = rng.random((5, 6)) < 0.5
        meas = MeasurementSubspace.from_mask(mask, rng.standard_normal((5, 6)))
        delta = rng.standard_normal((5, 6))
        t = meas_project(meas, delta)
        assert np.all(t[mask] == 0.0)
        assert np.allclose(t[~mask], delta[~mask])
        assert np.linalg.norm(meas.apply(t)) == 0.0

    def test_feasibility_with_tangent(self, rng):
        mask = rng.random((5, 6)) < 0.5
        mask[0, 0] = True
        meas = MeasurementSubspace.from_mask(mask, rng.standard_normal((5, 6)))
        x0 = meas_feasible_point(meas)
        t = meas_project(meas, rng.standard_normal((5, 6)))
        res = np.linalg.norm(meas.residual(x0 + t))
        assert res <= 1e-9 * (1 + np.linalg.norm(meas.b) + np.linalg.norm(t))


class TestDenseSensing:
    def make(self, rng, n=4, s=4, m=5):
        a_mat = rng.standard_normal((m, n * s))
        x_true = rng.standard_normal((n, s))
        b = a_mat @ x_true.ravel(order="F")
        return MeasurementSubspace.from_dense(a_mat, b, n, s)

    def test_single_all_ones_measurement(self, rng):
        n, s = 3, 4
        a_mat = np.ones((1, n * s))
        meas = MeasurementSubspace.from_dense(a_mat, np.array([2.0]), n, s)
        delta = rng.standard_normal((n, s))
        t = meas_project(meas, delta)
        expected = delta - delta.sum() / (n * s)
        assert np.allclose(t, expected, atol=1e-12)

    def test_projection_idempotent_and_self_adjoint(self, rng):
        meas = self.make(rng)
        # independent oracle: explicit I - A^T (A A^T)^{-1} A
        a = meas.a_mat
        p_oracle = np.eye(a.shape[1]) - a.T @ np.linalg.solve(a @ a.T, a)
        delta = rng.standard_normal((4, 4))
        ours = meas_project(meas, delta).ravel(order="F")
        oracle = p_oracle @ delta.ravel(order="F")
        assert np.linalg.norm(ours - oracle) <= 1e-12 * max(1.0, np.linalg.norm(oracle))
        again = meas_project(meas, ours.reshape((4, 4), order="F")).ravel(order="F")
        assert np.linalg.norm(again - ours) <= 1e-12 * max(1.0, np.linalg.norm(ours))

    def test_q_basis_spans_row_space(self, rng):
        meas = self.make(rng)
        a_t = meas.a_mat.T
        recon = meas.q_basis @ (meas.q_basis.T @ a_t)
        assert np.linalg.norm(a_t - recon) <= 1e-10 * np.linalg.norm(meas.a_mat)
        assert np.allclose(meas.q_basis.T @ meas.q_basis, np.eye(meas.m), atol=1e-12)

    def test_feasible_point_min_norm(self, rng):
        meas = self.make(rng, m=8)
        x0 = meas_feasible_point(meas)
        assert np.linalg.norm(meas.residual(x0)) <= 1e-10 * max(1.0, np.linalg.norm(meas.b))
        # min-norm solutions live in range(A^T)
        v = x0.ravel(order="F")
        in_range = meas.q_basis @ (meas.q_basis.T @ v)
        assert np.linalg.norm(v - in_range) <= 1e-10 * np.linalg.norm(v)

    def test_zero_measurements_give_zero_point(self, rng):
        a_mat = rng.standard_normal((5, 12))
        meas = MeasurementSubspace.from_dense(a_mat, np.zeros(5), 3, 4)
        assert np.linalg.norm(meas_feasible_point(meas)) <= 1e-12

    def test_rank_deficient_rejected(self, rng):
        a_mat = rng.standard_normal((3, 8))
        a_mat[2] = a_mat[0] + a_mat[1]
        with pytest.raises(RankDeficiencyError):
            MeasurementSubspace.from_dense(a_mat, np.zeros(3), 2, 4)


    # A with singular values geomspace(1, ratio) between random orthonormal
    # bases, so its conditioning is known
    @staticmethod
    def conditioned(rng, m, ns, ratio):
        k = min(m, ns)
        u, _ = np.linalg.qr(rng.standard_normal((m, k)))
        v, _ = np.linalg.qr(rng.standard_normal((ns, k)))
        return (u * np.geomspace(1.0, ratio, k)) @ v.T

    @pytest.mark.parametrize("ratio,accepted", [(1e-14, False), (1e-6, True)])
    def test_rank_test_at_its_boundary(self, ratio, accepted, rng):
        # sigma_min / sigma_max against the 1e-12 condition estimate
        a_mat = self.conditioned(rng, 6, 12, ratio)
        if accepted:
            MeasurementSubspace.from_dense(a_mat, np.zeros(6), 3, 4)
        else:
            with pytest.raises(RankDeficiencyError, match=r"numerically rank deficient "
                                                          r"\(reciprocal condition estimate \S+\)"):
                MeasurementSubspace.from_dense(a_mat, np.zeros(6), 3, 4)

    @pytest.mark.parametrize("m", [12, 1, 20], ids=["m=ns", "m=1", "m>ns"])
    def test_shapes(self, m, rng):
        n, s = 3, 4
        a_mat = self.conditioned(rng, m, n * s, 0.5)
        b = rng.standard_normal(m)
        if m > n * s:
            with pytest.warns(UserWarning, match="overdetermined"):
                meas = MeasurementSubspace.from_dense(a_mat, b, n, s)
            # null(A) = {0} for a full-column-rank A
            p_oracle = np.zeros((n * s, n * s))
        else:
            meas = MeasurementSubspace.from_dense(a_mat, b, n, s)
            p_oracle = np.eye(n * s) - a_mat.T @ np.linalg.solve(a_mat @ a_mat.T, a_mat)
        delta = rng.standard_normal((n, s))
        ours = meas_project(meas, delta).ravel(order="F")
        oracle = p_oracle @ delta.ravel(order="F")
        assert np.linalg.norm(ours - oracle) <= 1e-12 * max(1.0, np.linalg.norm(oracle))
        x = rng.standard_normal((n, s))
        ref = meas.adjoint(meas.apply(x))
        assert np.linalg.norm(meas.normal_apply(x) - ref) <= 1e-12 * np.linalg.norm(ref)
        if m > n * s:
            with pytest.raises(RankDeficiencyError, match="overdetermined"):
                meas_feasible_point(meas)
            return
        v = meas_feasible_point(meas).ravel(order="F")
        assert np.linalg.norm(a_mat @ v - b) <= 1e-12 * np.linalg.norm(b)
        # the min-norm point lies in range(A^T): P_null kills it
        assert np.linalg.norm(p_oracle @ v) <= 1e-12 * np.linalg.norm(v)

    @pytest.mark.parametrize("where,value,pattern", [
        ("A", np.inf, r"the 5 x 16 sensing matrix A has 1 inf and 0 NaN entries"),
        ("A", np.nan, r"the 5 x 16 sensing matrix A has 0 inf and 1 NaN entries"),
        ("b", np.inf, r"the length-5 measurement vector b has 1 inf and 0 NaN entries"),
        ("b", np.nan, r"the length-5 measurement vector b has 0 inf and 1 NaN entries"),
    ])
    def test_non_finite_input_raises_before_lapack(self, where, value, pattern, monkeypatch, rng):
        a_mat = rng.standard_normal((5, 16))
        b = rng.standard_normal(5)
        if where == "A":
            a_mat[1, 2] = value
        else:
            b[1] = value

        def forbidden(*args, **kwargs):
            raise AssertionError("LAPACK saw a non-finite input")

        monkeypatch.setattr(scipy.linalg, "qr", forbidden)
        with pytest.raises(NumericalError, match=pattern):
            MeasurementSubspace.from_dense(a_mat, b, 4, 4)

    def test_q_formed_only_by_a_projection(self, monkeypatch, rng):
        # the penalized form never projects onto null(A), so it never forms
        # Q; the constrained form forms it once, at its first projection
        calls = []
        form = nlrecover.manifold.dorgqr

        def counted(*args, **kwargs):
            calls.append(kwargs.get("lwork"))
            return form(*args, **kwargs)

        monkeypatch.setattr(nlrecover.manifold, "dorgqr", counted)
        n, s = 3, 8
        target = rng.standard_normal((n, s))
        lifting = LiftingSpec.monomial(n, 2)

        def solve(penalty):
            a_mat = rng.standard_normal((14, n * s)) / np.sqrt(14)
            meas = MeasurementSubspace.from_dense(a_mat, a_mat @ target.ravel(order="F"), n, s)
            obj = Objective(lifting=lifting, rank_r=3, measurement=meas, penalty_lambda=penalty)
            _, trace = rtr_solve(obj, default_init(obj), RtrConfig(max_iter=20))
            assert sum(k or 0 for k in trace.column("hess_calls")) > 0
            # a workspace query, then the factorization
            return [lwork for lwork in calls if lwork != -1]

        assert solve(1.0) == []
        assert len(solve(None)) == 1


class TestNormalApply:
    """`normal_apply(X, scale) = scale * A^T(A(X))`, the penalty term of the
    Hessian: the mask itself, or one symmetric GEMV with a cached Gram."""

    @staticmethod
    def dense(rng, m, n=4, s=5, order="C"):
        a_mat = rng.standard_normal((m, n * s)) / np.sqrt(m)
        with warnings.catch_warnings():  # m > ns warns; the operator still applies
            warnings.simplefilter("ignore", UserWarning)
            return MeasurementSubspace.from_dense(np.asarray(a_mat, order=order),
                                                  rng.standard_normal(m), n, s)

    @staticmethod
    def counted_gram(monkeypatch):
        calls = []
        build = nlrecover.manifold.dsyrk

        def counted(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(nlrecover.manifold, "dsyrk", counted)
        return calls

    @pytest.mark.parametrize("scale", [1.0, 0.02])
    def test_mask_is_adjoint_of_apply_bit_for_bit(self, scale, rng):
        mask = rng.random((5, 6)) < 0.5
        meas = MeasurementSubspace.from_mask(mask, rng.standard_normal((5, 6)))
        for x in (rng.standard_normal((5, 6)), np.asfortranarray(rng.standard_normal((5, 6)))):
            assert np.array_equal(meas.normal_apply(x, scale=scale),
                                  scale * meas.adjoint(meas.apply(x)))

    @pytest.mark.parametrize("m", [7, 20, 33], ids=["m<ns", "m=ns", "m>ns"])
    @pytest.mark.parametrize("a_order", ["C", "F"])
    @pytest.mark.parametrize("x_order", ["C", "F"])
    def test_dense_agrees_with_adjoint_of_apply(self, m, a_order, x_order, rng):
        meas = self.dense(rng, m, order=a_order)
        for scale in (1.0, 0.02):
            x = np.asarray(rng.standard_normal((4, 5)), order=x_order)
            ref = scale * meas.adjoint(meas.apply(x))
            out = meas.normal_apply(x, scale=scale)
            assert out.shape == (4, 5)
            assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_dense_shape_checked(self, rng):
        with pytest.raises(DimensionError):
            self.dense(rng, 7).normal_apply(np.zeros((5, 4)))

    def test_gram_built_only_by_a_penalized_hessian_product(self, monkeypatch, rng):
        calls = self.counted_gram(monkeypatch)
        n, s = 3, 8
        target = rng.standard_normal((n, s))
        a_mat = rng.standard_normal((14, n * s)) / np.sqrt(14)
        meas = MeasurementSubspace.from_dense(a_mat, a_mat @ target.ravel(order="F"), n, s)
        lifting = LiftingSpec.monomial(n, 2)
        obj = Objective(lifting=lifting, rank_r=3, measurement=meas)
        _, trace = rtr_solve(obj, default_init(obj), RtrConfig(max_iter=20))
        assert sum(n or 0 for n in trace.column("hess_calls")) > 0
        pen = Objective(lifting=lifting, rank_r=3, measurement=meas, penalty_lambda=1.0)
        z = default_init(pen)
        pen.cost(z), pen.rgrad(z)
        assert calls == [] and meas._gram is None
        op = pen.rhess_operator(z)
        op(pen.random_tangent(z, rng))
        op(pen.random_tangent(z, rng))
        assert len(calls) == 1

    def test_one_gram_for_a_lambda_ladder(self, monkeypatch):
        calls = self.counted_gram(monkeypatch)
        cfg = {
            "data": {"kind": "uos", "n": 4, "k": 2, "dim": 1, "pts_per": 5},
            "sensing": {"kind": "dense", "m": 30, "noise_sigma": 1e-3},
            "lifting": {"kind": "monomial_kernel", "degree": 2, "offset": 1.0},
            "rank": "auto",
            "solver_options": {"eps_g": 1e-6, "max_iter": 40},
        }
        rep = run_lambda_continuation(cfg, seed=0, lam0=1e-3, factor=10.0, steps=3, solver="rtr2")
        assert len(rep["ladder"]) == 3
        assert all(r["hess_calls"] > 0 for r in rep["ladder"])
        assert len(calls) == 1


class TestProductOps:
    def setup_pair(self, rng):
        mask = rng.random((4, 6)) < 0.5
        mask[0, 0] = True
        meas = MeasurementSubspace.from_mask(mask, rng.standard_normal((4, 6)))
        u = random_point(rng, 6, 2)
        z = ProductPoint(meas_feasible_point(meas), u)
        return meas, z

    def test_zero_retraction(self, rng):
        meas, z = self.setup_pair(rng)
        zero = ProductTangent(np.zeros((4, 6)), np.zeros((6, 2)))
        z2 = product_retract(z, zero)
        assert np.allclose(z2.x, z.x)
        assert grass_distance(z2.u, z.u) <= 1e-12

    def test_norm_of_pure_x_tangent(self, rng):
        meas, z = self.setup_pair(rng)
        dx = meas_project(meas, rng.standard_normal((4, 6)))
        xi = ProductTangent(dx, np.zeros((6, 2)))
        assert product_norm(xi) == pytest.approx(np.linalg.norm(dx), abs=1e-14)

    def test_inner_symmetry_and_cauchy_schwarz(self, rng):
        meas, z = self.setup_pair(rng)
        xi, zeta = (
            ProductTangent(meas_project(meas, rng.standard_normal((4, 6))),
                           grass_project(z.u, rng.standard_normal((6, 2))))
            for _ in range(2)
        )
        a = product_inner(xi, zeta)
        b = product_inner(zeta, xi)
        assert a == pytest.approx(b, abs=1e-12 * (1 + abs(a)))
        assert abs(a) <= product_norm(xi) * product_norm(zeta) * (1 + 1e-12)

    def test_anchor_mismatch(self, rng):
        meas, z = self.setup_pair(rng)
        bad = ProductTangent(np.zeros((4, 6)), np.zeros((7, 2)))
        with pytest.raises(DimensionError):
            product_retract(z, bad)

    def test_point_is_an_immutable_record(self, rng):
        meas, z = self.setup_pair(rng)
        assert isinstance(z, ProductPoint)
        with pytest.raises(AttributeError):
            z.x = np.zeros((4, 6))
        with pytest.raises(AttributeError):
            z.u = None
        back = pickle.loads(pickle.dumps(z))
        assert isinstance(back, ProductPoint)
        assert back.x.tobytes() == z.x.tobytes() and back.u.basis.tobytes() == z.u.basis.tobytes()

    def test_tangent_arithmetic(self, rng):
        xi = ProductTangent(np.ones((2, 2)), np.ones((3, 1)))
        two = 2.0 * xi
        assert np.allclose(two.dx, 2.0)
        diff = two - xi
        assert np.allclose(diff.du, 1.0)
        assert np.allclose((-xi).dx, -1.0)


class TestProductTangentContract:
    """Truncated CG's path records hold references to its tangents, and the
    traced benchmark patches the arithmetic methods on the class, so the
    tangent is an immutable value with those four methods."""

    @staticmethod
    def pair(rng):
        return (ProductTangent(rng.standard_normal((3, 5)), rng.standard_normal((5, 2))),
                ProductTangent(rng.standard_normal((3, 5)), rng.standard_normal((5, 2))))

    @pytest.mark.parametrize("op", [
        lambda a, b: a + b, lambda a, b: a - b, lambda a, b: -a,
        lambda a, b: 0.5 * a, lambda a, b: a * 0.5,
    ], ids=["add", "sub", "neg", "rmul", "mul"])
    def test_arithmetic_returns_a_new_tangent(self, op, rng):
        a, b = self.pair(rng)
        before = [v.tobytes() for v in (a.dx, a.du, b.dx, b.du)]
        arrays = [a.dx, a.du, b.dx, b.du]
        out = op(a, b)
        assert type(out) is ProductTangent and out is not a and out is not b
        assert not any(new is old for new in (out.dx, out.du) for old in arrays)
        assert [v.tobytes() for v in (a.dx, a.du, b.dx, b.du)] == before
        assert all(new is old for new, old in zip((a.dx, a.du, b.dx, b.du), arrays))

    def test_numpy_scalars_scale_from_either_side(self, rng):
        a, _ = self.pair(rng)
        scalar = np.float64(-0.3)
        for out in (scalar * a, a * scalar):
            assert type(out) is ProductTangent
            assert out.dx.tobytes() == (-0.3 * a.dx).tobytes()
            assert out.du.tobytes() == (-0.3 * a.du).tobytes()

    def test_rmul_is_mul(self):
        # the traced run patches both names through this alias
        assert ProductTangent.__rmul__ is ProductTangent.__mul__

    def test_slotted_and_picklable(self, rng):
        a, _ = self.pair(rng)
        assert not hasattr(a, "__dict__")
        with pytest.raises(AttributeError):
            a.extra = 1.0
        back = pickle.loads(pickle.dumps(a))
        assert type(back) is ProductTangent
        assert back.dx.tobytes() == a.dx.tobytes() and back.du.tobytes() == a.du.tobytes()
