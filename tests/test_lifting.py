from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlrecover import lifting
from nlrecover.lifting import (
    FeatureSizeError,
    LiftingSpec,
    _features_jvp,
    count_monomials,
    gaussian_grad_x,
    gaussian_hess_diag_x,
    gaussian_hess_operator,
    gaussian_kernel,
    kernel_tail_argmin,
    kernel_tail_cost,
    kernel_trace_cost,
    lift_grad_w,
    monomial_features,
    monomial_features_vjp,
    monomial_grad_x,
    monomial_hess_operator,
    monomial_kernel,
    multi_index_table,
)
from nlrecover.synth import ClusterSpec, UosSpec, gen_clusters, gen_uos, numerical_rank


def random_basis(rng, p, r):
    q, _ = np.linalg.qr(rng.standard_normal((p, r)))
    return q


def perp(w):
    return np.eye(w.shape[0]) - w @ w.T


def monomial_grad(x, w, d, c):
    """monomial_grad_x from a basis W (P = I - W W^T) and the offset c."""
    return monomial_grad_x(x, perp(w), x.T @ x + c, d)


class TestCountMonomials:
    def test_reference_values(self):
        assert count_monomials(15, 2) == 136
        assert count_monomials(20, 5) == 53130

    def test_degree_zero(self):
        assert count_monomials(7, 0) == 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            count_monomials(0, 2)
        with pytest.raises(ValueError):
            count_monomials(3, -1)


class TestMultiIndexTable:
    def test_length_and_uniqueness(self):
        table = multi_index_table(3, 3)
        assert len(table) == count_monomials(3, 3)
        rows = {tuple(r) for r in table}
        assert len(rows) == len(table)

    def test_graded_order(self):
        table = multi_index_table(2, 2)
        degrees = table.sum(axis=1)
        assert list(degrees) == sorted(degrees)
        # within each degree the leading variable comes first
        assert [tuple(r) for r in table] == [
            (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)
        ]


class TestMonomialFeatures:
    def test_univariate_quadratic(self):
        phi = monomial_features(np.array([[2.0]]), 2)
        assert np.allclose(phi.ravel(), [1.0, 2.0, 4.0])

    def test_bivariate_linear(self):
        phi = monomial_features(np.array([[3.0], [5.0]]), 1)
        assert np.allclose(phi.ravel(), [1.0, 3.0, 5.0])

    def test_rank_bound_union_of_subspaces(self):
        # 2 subspaces of dim 2 in R^6: rank bounded by 2 * C(4, 2) = 12
        m_mat, _ = gen_uos(UosSpec(n=6, k=2, dims=(2, 2), pts_per=30), np.random.default_rng(3))
        phi = monomial_features(m_mat, 2)
        assert numerical_rank(phi, 1e-8) <= 12

    def test_size_cap(self):
        with pytest.raises(FeatureSizeError):
            monomial_features(np.zeros((20, 2)), 5)  # N(20,5) = 53130 > cap


class TestMonomialKernel:
    def test_linear_homogeneous_is_gram(self, rng):
        x = rng.standard_normal((3, 5))
        y = rng.standard_normal((3, 4))
        assert np.allclose(monomial_kernel(x, y, 1, 0.0), x.T @ y)

    def test_scalar_example(self):
        k = monomial_kernel(np.array([[2.0]]), np.array([[3.0]]), 2, 1.0)
        assert k.item() == pytest.approx(49.0)

    def test_symmetric_psd(self, rng):
        x = rng.standard_normal((4, 9))
        k = monomial_kernel(x, x, 3, 1.0)
        assert np.allclose(k, k.T)
        vals = np.linalg.eigvalsh(k)
        assert vals.min() >= -1e-10 * np.linalg.norm(k)

    def test_rank_matches_explicit_features(self, rng):
        # K_d(X, X) and Phi_d(X) have the same rank (coefficients differ)
        for n, d, s in ((3, 2, 14), (4, 2, 30)):
            x = rng.standard_normal((n, s))
            k_rank = numerical_rank(monomial_kernel(x, x, d, 1.0), 1e-8)
            phi_rank = numerical_rank(monomial_features(x, d), 1e-8)
            assert k_rank == phi_rank

    def test_degree_zero_is_ones(self, rng):
        x = rng.standard_normal((2, 3))
        assert np.all(monomial_kernel(x, x, 0, 1.0) == 1.0)


class TestGaussianKernel:
    def test_diagonal_is_one(self, rng):
        x = rng.standard_normal((3, 6))
        k = gaussian_kernel(x, x, 1.5)
        assert np.allclose(np.diag(k), 1.0)
        assert np.all(k > 0.0) and np.all(k <= 1.0 + 1e-15)

    def test_characteristic_distance(self):
        sigma = 2.5
        x = np.zeros((3, 1))
        y = np.zeros((3, 1))
        y[0, 0] = sigma * np.sqrt(2.0)
        assert gaussian_kernel(x, y, sigma).item() == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_two_cluster_spectral_gap(self):
        # top-2 singular values dominate: median sigma3/sigma2 < 0.1 over seeds
        ratios = []
        for seed in range(12):
            m_mat, _ = gen_clusters(ClusterSpec(n=2, k=2, pts_per=50), np.random.default_rng(seed))
            sv = np.linalg.svd(gaussian_kernel(m_mat, m_mat, 2.5), compute_uv=False)
            ratios.append(sv[2] / sv[1])
        assert np.median(ratios) < 0.1

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            gaussian_kernel(np.zeros((2, 2)), np.zeros((2, 2)), 0.0)
        with pytest.raises(ValueError):
            gaussian_kernel(np.zeros((2, 2)), np.zeros((2, 2)), float("nan"))
        # sigma^2 overflows (a Python float power would raise OverflowError)
        # or underflows to 0 (the kernel would come out all zero): both are
        # a ValueError in every function that divides by sigma^2
        x, k, p_perp = np.ones((2, 3)), np.ones((3, 3)), np.eye(3)
        w = np.eye(3)[:, :1]
        for sigma in (1e300, 1e-300, -1.0):
            for call in (lambda: gaussian_kernel(x, x, sigma),
                         lambda: gaussian_grad_x(x, p_perp, sigma, k),
                         lambda: gaussian_hess_operator(x, w, sigma, k, p_perp),
                         lambda: gaussian_hess_diag_x(x, p_perp, sigma, k)):
                with pytest.raises(ValueError, match="sigma"):
                    call()


def euclid_fd_gradient(cost, x, h=1e-6):
    g = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        e = np.zeros_like(x)
        e[idx] = h
        g[idx] = (cost(x + e) - cost(x - e)) / (2 * h)
    return g


class TestMonomialGradX:
    def test_full_subspace_gives_zero(self, rng):
        x = rng.standard_normal((3, 5))
        w_full = np.eye(5)  # spans everything: P_perp = 0
        assert np.linalg.norm(monomial_grad(x, w_full, 2, 1.0)) == 0.0

    def test_degree_one_homogeneous(self, rng):
        x = rng.standard_normal((4, 6))
        w = random_basis(rng, 6, 2)
        p_perp = np.eye(6) - w @ w.T
        assert np.allclose(monomial_grad(x, w, 1, 0.0), 2.0 * x @ p_perp, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_finite_differences(self, d, rng):
        n, s, r = 4, 6, 2
        x = rng.standard_normal((n, s))
        w = random_basis(rng, s, r)
        p_perp = np.eye(s) - w @ w.T

        def cost(xm):
            return float(np.trace(p_perp @ monomial_kernel(xm, xm, d, 1.0)))

        analytic = monomial_grad(x, w, d, 1.0)
        fd = euclid_fd_gradient(cost, x)
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic), 1e-12)
        assert rel <= 1e-6

    def test_degree_validation(self, rng):
        with pytest.raises(ValueError):
            monomial_grad(np.zeros((2, 3)), random_basis(rng, 3, 1), 0, 1.0)


class TestMonomialHess:
    def test_degree_one_reduction(self, rng):
        # with d = 1 the (d-1)-weighted term vanishes: XX block is 2 dx (K0 o P)
        x = rng.standard_normal((3, 5))
        w = random_basis(rng, 5, 2)
        dx = rng.standard_normal((3, 5))
        dw = np.zeros((5, 2))
        h_x, _ = monomial_hess_operator(x, w, 1, 1.0)(dx, dw)
        p_perp = np.eye(5) - w @ w.T
        assert np.allclose(h_x, 2.0 * dx @ p_perp, atol=1e-12)

    def test_symmetry(self, rng):
        n, s, r, d = 4, 6, 2, 2
        x = rng.standard_normal((n, s))
        w = random_basis(rng, s, r)
        for _ in range(5):
            dx1, dw1 = rng.standard_normal((n, s)), rng.standard_normal((s, r))
            dx2, dw2 = rng.standard_normal((n, s)), rng.standard_normal((s, r))
            h1 = monomial_hess_operator(x, w, d, 1.0)(dx1, dw1)
            h2 = monomial_hess_operator(x, w, d, 1.0)(dx2, dw2)
            a = np.vdot(dx2, h1[0]) + np.vdot(dw2, h1[1])
            b = np.vdot(dx1, h2[0]) + np.vdot(dw1, h2[1])
            assert abs(a - b) <= 1e-9 * (1 + abs(a) + abs(b))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_fd_of_gradient(self, d, rng):
        n, s, r = 3, 5, 2
        x = rng.standard_normal((n, s))
        w = random_basis(rng, s, r)
        dx = rng.standard_normal((n, s))
        dw = rng.standard_normal((s, r))
        h_x, h_w = monomial_hess_operator(x, w, d, 1.0)(dx, dw)
        h = 1e-6 * (1 + np.linalg.norm(x))

        def grads(xm, wm):
            return monomial_grad(xm, wm, d, 1.0), lift_grad_w(monomial_kernel(xm, xm, d, 1.0), wm)

        gx_p, gw_p = grads(x + h * dx, w + h * dw)
        gx_m, gw_m = grads(x - h * dx, w - h * dw)
        fd_x = (gx_p - gx_m) / (2 * h)
        fd_w = (gw_p - gw_m) / (2 * h)
        num = np.sqrt(np.linalg.norm(h_x - fd_x) ** 2 + np.linalg.norm(h_w - fd_w) ** 2)
        den = max(np.sqrt(np.linalg.norm(h_x) ** 2 + np.linalg.norm(h_w) ** 2), 1e-12)
        assert num / den <= 1e-5

    @staticmethod
    def term_by_term(x, w, d, c, dx, dw=None):
        """The product written out in nine GEMMs: each half of each symmetric
        sum on its own, each kernel power built from its own Gram."""
        p_perp = np.eye(x.shape[1]) - w @ w.T
        k_d = monomial_kernel(x, x, d, c)
        k_1 = monomial_kernel(x, x, d - 1, c)
        sym_x = x.T @ dx + dx.T @ x
        h_x = 2.0 * d * dx @ (k_1 * p_perp)
        if d >= 2:
            h_x = h_x + 2.0 * d * (d - 1) * x @ (monomial_kernel(x, x, d - 2, c) * p_perp * sym_x)
        if dw is None:
            return h_x
        sym_w = w @ dw.T + dw @ w.T
        h_x = h_x - 2.0 * d * x @ (k_1 * sym_w)
        h_w = -2.0 * d * (k_1 * sym_x) @ w - 2.0 * k_d @ dw
        return h_x, h_w

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("with_dw", [True, False])
    def test_matches_term_by_term_formula(self, d, with_dw, rng):
        n, s, r, c = 4, 12, 3, 0.7
        x = rng.standard_normal((n, s)) / np.sqrt(n)
        w = random_basis(rng, s, r)
        op = monomial_hess_operator(x, w, d, c)
        for _ in range(3):
            args = (rng.standard_normal((n, s)), rng.standard_normal((s, r)))[: 1 + with_dw]
            got, expect = op(*args), self.term_by_term(x, w, d, c, *args)
            got, expect = (got, expect) if with_dw else ((got,), (expect,))
            for g, e in zip(got, expect, strict=True):
                assert g.shape == e.shape
                assert np.linalg.norm(g - e) <= 1e-13 * np.linalg.norm(e)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_reuse_leaves_earlier_results_alone(self, d, rng):
        # the operator keeps stacked buffers across products; each product
        # must still equal a fresh operator's, and no result may live in them
        n, s, r = 3, 7, 2
        x = rng.standard_normal((n, s))
        w = random_basis(rng, s, r)
        op = monomial_hess_operator(x, w, d, 1.0)
        buffers = [cell.cell_contents for cell in op.__closure__
                   if isinstance(cell.cell_contents, np.ndarray)]
        calls = [
            (rng.standard_normal((n, s)), rng.standard_normal((s, r))),
            (np.asfortranarray(rng.standard_normal((n, s))), rng.standard_normal((s, r))),
            (rng.standard_normal((n, s)),),
            (rng.standard_normal((n, s)), rng.standard_normal((s, r))),
        ]
        results = [op(*args) for args in calls]
        for args, result in zip(calls, results):
            fresh = monomial_hess_operator(x, w, d, 1.0)(*args)
            pairs = zip(result, fresh) if len(args) == 2 else [(result, fresh)]
            for got, expect in pairs:
                assert np.array_equal(got, expect)
                assert not any(np.shares_memory(got, buf) for buf in buffers)


class TestGaussianGradX:
    def test_full_subspace_gives_zero(self, rng):
        x = rng.standard_normal((3, 4))
        g = gaussian_grad_x(x, perp(np.eye(4)), 1.0, gaussian_kernel(x, x, 1.0))
        assert np.linalg.norm(g) == 0.0

    def test_duplicate_columns_antisymmetric(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 0.5]])
        w = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        g = gaussian_grad_x(x, perp(w), 1.5, gaussian_kernel(x, x, 1.5))
        assert np.all(np.isfinite(g))
        assert np.allclose(g[:, 0], -g[:, 1], atol=1e-12)

    def test_matches_finite_differences(self, rng):
        n, s, r, sigma = 3, 8, 2, 1.7
        x = rng.standard_normal((n, s))
        w = random_basis(rng, s, r)
        p_perp = np.eye(s) - w @ w.T

        def cost(xm):
            return float(np.trace(p_perp @ gaussian_kernel(xm, xm, sigma)))

        analytic = gaussian_grad_x(x, p_perp, sigma, gaussian_kernel(x, x, sigma))
        fd = euclid_fd_gradient(cost, x)
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic), 1e-12)
        assert rel <= 1e-6


class TestLiftGradW:
    def test_identity_kernel(self, rng):
        w = random_basis(rng, 5, 2)
        assert np.allclose(lift_grad_w(np.eye(5), w), -2.0 * w)

    def test_invariant_subspace_is_critical(self, rng):
        a = rng.standard_normal((6, 6))
        k = a @ a.T
        vals, vecs = np.linalg.eigh(k)
        w = vecs[:, -2:]  # leading eigenvectors
        g = lift_grad_w(k, w)
        riem = g - w @ (w.T @ g)
        assert np.linalg.norm(riem) <= 1e-10 * np.linalg.norm(k)

    def test_matches_finite_differences(self, rng):
        s, r = 6, 2
        a = rng.standard_normal((s, s))
        k = a @ a.T
        w = random_basis(rng, s, r)
        dw = rng.standard_normal((s, r))

        def cost(wm):
            return float(np.trace(k) - np.trace(wm.T @ k @ wm))

        h = 1e-7
        fd = (cost(w + h * dw) - cost(w - h * dw)) / (2 * h)
        analytic = np.vdot(lift_grad_w(k, w), dw)
        assert abs(fd - analytic) <= 1e-8 * max(1.0, abs(analytic))


class TestVjp:
    def test_matches_dense_jacobian(self, rng):
        n, s, d = 3, 4, 2
        x = rng.standard_normal((n, s))
        r_mat = rng.standard_normal((count_monomials(n, d), s))

        def cost(xm):
            return float(np.vdot(r_mat, monomial_features(xm, d)))

        fd = euclid_fd_gradient(cost, x)
        assert np.allclose(monomial_features_vjp(x, d, r_mat, monomial_features(x, d)), fd, atol=1e-6)


class TestHessDiagX:
    """`BasisEvaluator.hess_diag_x` is the diagonal of the X block of the
    Euclidean Hessian operator, entry (j, i) its product with E_ji at (j, i)."""

    @staticmethod
    def diagonal_from_products(op, shape):
        out = np.empty(shape)
        for idx in np.ndindex(*shape):
            unit = np.zeros(shape)
            unit[idx] = 1.0
            out[idx] = op(unit)[idx]
        return out

    @pytest.mark.parametrize("spec", [
        LiftingSpec.monomial(3, 1, offset=0.0),
        LiftingSpec.monomial(3, 2),
        LiftingSpec.monomial(3, 3, offset=0.5),
        LiftingSpec.gaussian(3, 1.3),
        LiftingSpec.monomials(3, 2),
        LiftingSpec.monomials(3, 3),
    ], ids=["monomial_kernel_d1", "monomial_kernel_d2", "monomial_kernel_d3", "gaussian_kernel",
            "monomial_features_d2", "monomial_features_d3"])
    def test_matches_unit_vector_products(self, spec, rng):
        x = rng.standard_normal((3, 7))
        basis = random_basis(rng, spec.ambient(7), 2)
        at, point = spec.at(basis), spec.lift(x)
        expected = self.diagonal_from_products(at.hess_operator(x, point), x.shape)
        diag = at.hess_diag_x(x, point)
        assert diag.shape == x.shape
        assert np.allclose(diag, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("d", [2, 3])
    def test_features_second_derivative_term(self, d, rng):
        # away from a solution the features' second derivative weighs in:
        # the Gauss-Newton part 2 ||(I - U U^T) J E_ji||^2 alone is off
        x = rng.standard_normal((3, 7))
        spec = LiftingSpec.monomials(3, d)
        basis = random_basis(rng, spec.ambient(7), 2)
        point = spec.lift(x)
        gauss_newton = np.empty(x.shape)
        for idx in np.ndindex(*x.shape):
            unit = np.zeros(x.shape)
            unit[idx] = 1.0
            psi = _features_jvp(point.lifted, d, unit)
            psi -= basis @ (basis.T @ psi)
            gauss_newton[idx] = 2.0 * np.sum(psi * psi)
        diag = spec.at(basis).hess_diag_x(x, point)
        assert np.abs(diag - gauss_newton).max() > 0.05 * np.abs(diag).max()


class TestLiftingSpec:
    def test_kernel_dispatch(self, rng):
        x = rng.standard_normal((3, 4))
        spec = LiftingSpec.monomial(3, 2, offset=1.0)
        assert np.allclose(spec.kernel(x), monomial_kernel(x, x, 2, 1.0))
        gspec = LiftingSpec.gaussian(3, 2.0)
        assert np.allclose(gspec.kernel(x), gaussian_kernel(x, x, 2.0))
        fspec = LiftingSpec.monomials(3, 2)
        phi = monomial_features(x, 2)
        assert np.allclose(fspec.kernel(x), phi.T @ phi)

    @pytest.mark.parametrize("spec", [LiftingSpec.monomial(3, 3, offset=0.7), LiftingSpec.gaussian(3, 1.5),
                                      LiftingSpec.monomials(3, 2)],
                             ids=["monomial_kernel", "gaussian_kernel", "monomial_features"])
    def test_cross_kernel_is_a_block_of_the_joint_kernel(self, spec, rng):
        # K(X, Y) is the off-diagonal block of the kernel of [X | Y]; the
        # data are positive, which keeps X^T Y + c away from 0, where no
        # relative bound holds
        x, y = rng.uniform(0.0, 1.0, (3, 7)), rng.uniform(0.0, 1.0, (3, 4))
        xy = np.hstack([x, y])
        joint = spec.kernel(xy)
        np.testing.assert_allclose(spec.kernel(x, y), joint[:7, 7:], rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(spec.kernel(y, xy), joint[7:], rtol=1e-13, atol=0.0)
        assert spec.kernel(x, x).tobytes() == spec.kernel(x).tobytes()

    def test_tail_cost_of_a_stack_is_each_kernels(self, rng):
        # one stacked eigvalsh scores kernels as one call per kernel does
        x = rng.standard_normal((5, 3, 12))
        stack = np.stack([LiftingSpec.gaussian(3, 2.0).kernel(xi) for xi in x])
        costs = kernel_tail_cost(stack, 2)
        assert costs.shape == (5,)
        assert costs.tolist() == [kernel_tail_cost(k, 2) for k in stack]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_lift_is_the_kernel_to_the_bit(self, d, rng):
        # the one lift: the monomial kernel's matrix is its Gram's power, the
        # same to the bit as monomial_kernel; the other liftings keep no Gram
        x = rng.standard_normal((3, 8))
        point = LiftingSpec.monomial(3, d, offset=0.7).lift(x)
        assert np.array_equal(point.lifted, monomial_kernel(x, x, d, 0.7))
        assert np.array_equal(point.gram, x.T @ x + 0.7)
        ints = np.arange(24).reshape(3, 8)  # converted to float, as monomial_kernel does
        assert np.array_equal(LiftingSpec.monomial(3, d).lift(ints).lifted,
                              monomial_kernel(ints, ints, d, 1.0))
        gpoint = LiftingSpec.gaussian(3, 2.0).lift(x)
        assert np.array_equal(gpoint.lifted, gaussian_kernel(x, x, 2.0)) and gpoint.gram is None
        fpoint = LiftingSpec.monomials(3, d).lift(x)
        assert np.array_equal(fpoint.lifted, monomial_features(x, d)) and fpoint.gram is None

    @pytest.mark.parametrize("s", [40, 60, 180, 400])
    @pytest.mark.parametrize("spec", [LiftingSpec.monomial(15, 2), LiftingSpec.gaussian(15, 2.5)],
                             ids=["monomial_kernel", "gaussian_kernel"])
    def test_kernel_lift_equals_its_transpose(self, spec, s, rng):
        # to the bit, so the subspace fit and the rank take the symmetric
        # eigensolver instead of the SVD
        lifted = spec.lift(rng.standard_normal((15, s))).lifted
        assert np.array_equal(lifted, lifted.T)

    @pytest.mark.parametrize("spec,ambient", [
        (LiftingSpec.monomial(3, 2), 7),
        (LiftingSpec.gaussian(3, 2.0), 7),
        (LiftingSpec.monomials(3, 2), count_monomials(3, 2)),
    ], ids=["monomial_kernel", "gaussian_kernel", "monomial_features"])
    def test_energy_is_residual_at_zero_subspace(self, spec, ambient, rng):
        # the subspace variable lives in R^ambient: s columns for the
        # kernels, N(n, d) features for the explicit map
        assert spec.ambient(7) == ambient
        lifted = spec.lift(rng.standard_normal((3, 7))).lifted
        assert lifted.shape[0] == ambient
        empty = np.zeros((ambient, 0))
        assert spec.energy(lifted) == pytest.approx(spec.residual(lifted, empty), rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2])
    def test_line_coefficients_reproduce_residual(self, d, rng):
        # residual(X + a D) = f + a <grad_x, D> + c2 a^2 + c3 a^3 + c4 a^4,
        # every term read from the evaluator's one lifted point of X
        spec = LiftingSpec.monomial(3, d, offset=0.7)
        x, dx = rng.standard_normal((3, 9)), rng.standard_normal((3, 9))
        basis = random_basis(rng, 9, 4)
        at = spec.at(basis)
        point = spec.lift(x)
        c0 = spec.residual(point.lifted, basis)
        c1 = float(np.vdot(at.grad_x(x, point), dx))
        c2, c3, c4 = at.line_coefficients(x, point, dx)
        if d == 1:
            assert c3 == c4 == 0.0
        for a in (1e-3, 0.1, 0.7, 2.0):
            f_a = spec.residual(spec.lift(x + a * dx).lifted, basis)
            poly = c0 + a * (c1 + a * (c2 + a * (c3 + a * c4)))
            assert poly == pytest.approx(f_a, rel=1e-12)

    @pytest.mark.parametrize("spec", [
        LiftingSpec.gaussian(3, 2.0), LiftingSpec.monomials(3, 2), LiftingSpec.monomial(3, 3),
    ], ids=["gaussian_kernel", "monomial_features", "monomial_kernel_d3"])
    def test_no_line_coefficients(self, spec, rng):
        x = rng.standard_normal((3, 6))
        at = spec.at(random_basis(rng, spec.ambient(6), 2))
        assert at.line_coefficients(x, spec.lift(x), rng.standard_normal((3, 6))) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            LiftingSpec("unknown", 3)
        with pytest.raises(ValueError):
            LiftingSpec.gaussian(3, -1.0)
        with pytest.raises(ValueError):
            LiftingSpec.gaussian(3, float("nan"))
        with pytest.raises(ValueError):
            LiftingSpec.monomial(3, 0)

    def test_rank_bound_for_sampled_unions(self):
        # rank(Phi_d) <= p * C(r_tilde + d, d) for unions of p subspaces
        rng = np.random.default_rng(11)
        for p, r_tilde, d in ((2, 2, 2), (3, 1, 3), (4, 3, 2), (2, 3, 3)):
            n = max(r_tilde + 2, 5)
            spec = UosSpec(n=n, k=p, dims=(r_tilde,) * p, pts_per=25)
            m_mat, _ = gen_uos(spec, rng)
            try:
                phi = monomial_features(m_mat, d)
            except FeatureSizeError:
                continue
            from math import comb

            assert numerical_rank(phi, 1e-8) <= p * comb(r_tilde + d, d)


def old_monomial_hess_operator(x_mat, w, d, c):
    """The monomial Hessian operator as it was built before its d = 2 weight
    of S_x became P itself: (d - 1) K_{d-2} o P from K_0 = G^(.0) for d = 2."""
    n, s = x_mat.shape
    r = w.shape[1]
    gram = x_mat.T @ x_mat
    gram += c
    k_1 = gram ** (d - 1)
    k_2_perp = gram ** (d - 2) if d >= 2 else None
    k_d = np.multiply(gram, k_1, out=gram)
    p_perp = w @ w.T
    np.negative(p_perp, out=p_perp)
    p_perp.reshape(-1)[:: s + 1] += 1.0
    k_1_perp = k_1 * p_perp
    if k_2_perp is not None:
        k_2_perp *= p_perp
        k_2_perp *= d - 1
    stack_x = np.empty((3 * n, s))
    stack_x[:n] = x_mat
    stack_x[2 * n:] = x_mat
    stack_w = np.empty((s, 3 * r))
    stack_w[:, :r] = w
    stack_w[:, 2 * r:] = w

    def apply(dx, dw=None):
        if dw is None and k_2_perp is None:
            return (2.0 * d) * (dx @ k_1_perp)
        stack_x[n:2 * n] = dx
        sym_x = stack_x[:2 * n].T @ stack_x[n:]
        if dw is None:
            inner = np.multiply(sym_x, k_2_perp, out=sym_x)
        else:
            stack_w[:, r:2 * r] = dw
            h_w = -2.0 * (d * ((k_1 * sym_x) @ w) + k_d @ dw)
            inner = stack_w[:, :2 * r] @ stack_w[:, r:].T
            np.multiply(inner, k_1, out=inner)
            if k_2_perp is None:
                np.negative(inner, out=inner)
            else:
                np.subtract(np.multiply(sym_x, k_2_perp, out=sym_x), inner, out=inner)
        h_x = (2.0 * d) * (dx @ k_1_perp + x_mat @ inner)
        return h_x if dw is None else (h_x, h_w)

    return apply


def old_gaussian_hess_operator(x_mat, w, sigma, k, p_perp):
    """The Gaussian Hessian operator as it was before -K / sigma^2 was built
    once per point."""
    b = k * p_perp
    b_sum = b.sum(axis=0)
    inv_var = 1.0 / sigma**2

    def apply(dx, dw=None):
        c = x_mat.T @ dx
        a = np.diag(c)
        dk = -inv_var * k * (a[:, None] + a[None, :] - c - c.T)
        db = dk * p_perp
        if dw is not None:
            db = db - k * (w @ dw.T + dw @ w.T)
        h_x = -2.0 * inv_var * (dx * b_sum - dx @ b + x_mat * db.sum(axis=0) - x_mat @ db)
        if dw is None:
            return h_x
        return h_x, -2.0 * (dk @ w + k @ dw)

    return apply


class TestKernelsBitForBit:
    """The lifting's hot kernels against the expressions they replaced,
    to the bit, on seeded inputs."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_monomial_grad_x(self, d, rng):
        x = rng.standard_normal((5, 40))
        p_perp = perp(random_basis(rng, 40, 6))
        gram = x.T @ x + 0.7
        k_lower_perp = p_perp if d == 1 else gram ** (d - 1) * p_perp
        old = 2.0 * d * x @ k_lower_perp
        assert monomial_grad_x(x, p_perp, gram, d).tobytes() == old.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_monomial_hess_operator_products(self, d, rng):
        x = rng.standard_normal((5, 40))
        w = random_basis(rng, 40, 6)
        new, old = monomial_hess_operator(x, w, d, 0.7), old_monomial_hess_operator(x, w, d, 0.7)
        for _ in range(3):
            dx, dw = rng.standard_normal((5, 40)), rng.standard_normal((40, 6))
            assert new(dx).tobytes() == old(dx).tobytes()
            (hx, hw), (old_hx, old_hw) = new(dx, dw), old(dx, dw)
            assert hx.tobytes() == old_hx.tobytes() and hw.tobytes() == old_hw.tobytes()

    @pytest.mark.parametrize("sigma", [0.3, 2.5])
    def test_gaussian_hess_operator_products(self, sigma, rng):
        x = rng.standard_normal((5, 40))
        w = random_basis(rng, 40, 6)
        k, p_perp = gaussian_kernel(x, x, sigma), perp(w)
        new = gaussian_hess_operator(x, w, sigma, k, p_perp)
        old = old_gaussian_hess_operator(x, w, sigma, k, p_perp)
        for _ in range(3):
            dx, dw = rng.standard_normal((5, 40)), rng.standard_normal((40, 6))
            assert new(dx).tobytes() == old(dx).tobytes()
            (hx, hw), (old_hx, old_hw) = new(dx, dw), old(dx, dw)
            assert hx.tobytes() == old_hx.tobytes() and hw.tobytes() == old_hw.tobytes()

    def test_kernel_costs(self, rng):
        x = rng.standard_normal((5, 40))
        k = (x.T @ x + 1.0) ** 2
        basis = random_basis(rng, 40, 6)
        old_trace = float(np.trace(k) - np.sum((k @ basis) * basis))
        old_tail = float(np.trace(k) - np.sum(np.linalg.eigvalsh(k)[-6:]))
        assert np.float64(kernel_trace_cost(k, basis)).tobytes() == np.float64(old_trace).tobytes()
        assert np.float64(kernel_tail_cost(k, 6)).tobytes() == np.float64(old_tail).tobytes()

    @pytest.mark.parametrize("y_of", [lambda x, rng: x, lambda x, rng: x.copy(),
                                      lambda x, rng: rng.standard_normal((5, 30))],
                             ids=["y_is_x", "y_equal_copy", "y_other"])
    def test_gaussian_kernel(self, y_of, rng):
        # an equal copy of X takes the general path (its X^T Y is a GEMM,
        # X^T X a symmetric rank-k update, which may round differently)
        x = rng.standard_normal((5, 60))
        x[:, 7] = x[:, 3]  # equal columns, whose distance may round below 0
        y = y_of(x, rng)
        for sigma in (0.3, 2.5):
            sq = (np.sum(x**2, axis=0)[:, None] + np.sum(y**2, axis=0)[None, :]) - 2.0 * (x.T @ y)
            old = np.exp(-np.maximum(sq, 0.0) / (2.0 * sigma**2))
            assert gaussian_kernel(x, y, sigma).tobytes() == old.tobytes()


@st.composite
def kernel_stacks(draw):
    """(stack, r, basis, dup): k <= 4 symmetric s x s kernels, s <= 12, that
    perturb one base kernel whose r leading eigenvalues lie in [1, 10] and
    whose other eigenvalues are `gap` times [0, 1] (PSD stacks, K = F F^T)
    or [-1, 1] (indefinite stacks); the basis is the base's leading
    eigenspace or a random one. dup is None, or the first of two copies of
    the least kernel."""
    s = draw(st.integers(2, 12))
    r, k = draw(st.integers(1, s - 1)), draw(st.integers(1, 4))
    psd = draw(st.booleans())
    gap, eps = draw(st.sampled_from([1e-3, 0.1, 1.0])), draw(st.sampled_from([0.0, 1e-6, 1e-3, 0.1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vecs = np.linalg.qr(rng.standard_normal((s, s)))[0]
    tail = gap * (rng.uniform(0.0, 1.0, s - r) if psd else rng.uniform(-1.0, 1.0, s - r))
    eigs = np.concatenate([tail, rng.uniform(1.0, 10.0, r)])
    if psd:
        factors = vecs * np.sqrt(eigs) + eps * rng.standard_normal((k, s, s))
        stack = factors @ np.swapaxes(factors, 1, 2)
    else:
        noise = eps * rng.standard_normal((k, s, s))
        stack = (vecs * eigs) @ vecs.T + noise + np.swapaxes(noise, 1, 2)
    if draw(st.sampled_from(["ritz", "random"])) == "ritz":
        basis = vecs[:, -r:]
    else:
        basis = np.linalg.qr(rng.standard_normal((s, r)))[0]
    dup = None
    if k > 1 and draw(st.booleans()):
        least = int(np.argmin(kernel_tail_cost(stack, r)))
        other = draw(st.integers(0, k - 2))
        other += other >= least
        stack[other] = stack[least]
        dup = min(least, other)
    return stack, r, basis, dup


class TestKernelTailArgmin:
    def test_picks_the_exact_argmin(self, monkeypatch):
        # the pick is np.argmin of the eigvalsh tails on PSD and indefinite
        # stacks, from the base's eigenspace or a random warm start, and the
        # Ritz interval holds every tail; a repeated least kernel takes the
        # exact path, which picks the first; each of the three paths is seen
        interval, tail_cost = lifting._ritz_tail_interval, lifting.kernel_tail_cost
        calls, paths = Counter(), Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(lifting, "_ritz_tail_interval", counted("interval", interval))
        monkeypatch.setattr(lifting, "kernel_tail_cost", counted("exact", tail_cost))

        @settings(max_examples=400, derandomize=True, deadline=None)
        @given(case=kernel_stacks())
        def check(case):
            stack, r, basis, dup = case
            tails = tail_cost(stack, r)
            _, _, lo, hi = interval(stack, basis, (stack * stack).sum(axis=(1, 2)))
            assert np.all(lo <= tails) and np.all(tails <= hi), (lo, tails, hi)
            calls.clear()
            best, ritz = kernel_tail_argmin(stack, r, basis)
            assert best == np.argmin(tails)
            assert ritz.shape == basis.shape
            np.testing.assert_allclose(ritz.T @ ritz, np.eye(r), atol=1e-12)
            path = "exact" if calls["exact"] else ("warm", "iterated")[calls["interval"] - 1]
            if dup is not None:
                assert path == "exact" and best == dup
            paths[path] += 1

        check()
        assert set(paths) == {"warm", "iterated", "exact"}, paths

    def test_certified_pick_keeps_a_ritz_basis_of_its_kernel(self, rng):
        # the returned basis is a Ritz basis of the picked kernel, the next
        # column's warm start: Y^T K Y is diagonal
        x = rng.standard_normal((3, 30))
        base = LiftingSpec.gaussian(3, 2.0).kernel(x)
        stack = np.stack([base, base.copy(), base.copy()])
        for c, scale in enumerate((0.5, 0.2, 0.9)):
            stack[c, 4, :] = stack[c, :, 4] = scale * base[4]
            stack[c, 4, 4] = 1.0
        basis = np.linalg.eigh(base)[1][:, -3:]
        best, ritz = kernel_tail_argmin(stack, 3, basis)
        assert best == np.argmin(kernel_tail_cost(stack, 3))
        rayleigh = ritz.T @ stack[best] @ ritz
        np.testing.assert_allclose(rayleigh, np.diag(np.diag(rayleigh)), atol=1e-12)

    @pytest.mark.parametrize("bad,counts", [(np.inf, "1 inf and 0 NaN"), (np.nan, "0 inf and 1 NaN")],
                             ids=["inf", "nan"])
    def test_rejects_a_non_finite_stack(self, bad, counts):
        # eigvalsh of diag([inf, 1, 1, 1, 1]) is all NaN, whose argmin would
        # silently be 0
        stack = np.stack([np.eye(5), np.eye(5)])
        stack[1, 0, 0] = bad
        with pytest.raises(np.linalg.LinAlgError, match=f"^the 2 x 5 x 5 kernel stack has {counts} entries$"):
            kernel_tail_argmin(stack, 2, np.eye(5)[:, :2])

    def test_overflowing_norm_takes_the_exact_path(self, monkeypatch):
        # finite entries whose ||K||_F^2 overflows are no error, and certify
        # nothing: the exact tails, 1e199 and 0, decide
        exact = []
        tail_cost = lifting.kernel_tail_cost
        monkeypatch.setattr(lifting, "kernel_tail_cost", lambda *args: exact.append(1) or tail_cost(*args))
        stack = np.stack([np.diag([1e200, 1e199, 0.0]), np.diag([1e200, 0.0, 0.0])])
        with np.errstate(over="ignore", invalid="ignore"):
            best, _ = kernel_tail_argmin(stack, 1, np.eye(3)[:, :1])
        assert (best, exact) == (1, [1])
