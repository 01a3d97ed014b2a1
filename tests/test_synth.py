import numpy as np
import pytest

from nlrecover.lifting import gaussian_kernel, monomial_features
from nlrecover.synth import (
    ClusterSpec,
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


class TestGenUos:
    def test_single_linear_subspace_rank(self, rng):
        m_mat, labels = gen_uos(UosSpec(n=7, k=1, dims=(2,), pts_per=20), rng)
        assert np.linalg.matrix_rank(m_mat) == 2
        assert set(labels) == {0}

    def test_lifted_rank_bound(self):
        m_mat, _ = gen_uos(UosSpec(n=10, k=2, dims=(2, 2), pts_per=20), np.random.default_rng(0))
        phi = monomial_features(m_mat, 2)
        assert numerical_rank(phi, 1e-8) <= 12  # 2 * C(4, 2)

    def test_membership_residual(self, rng):
        spec = UosSpec(n=8, k=3, dims=(2, 2, 2), pts_per=10)
        m_mat, labels = gen_uos(spec, rng)
        for j in range(3):
            block = m_mat[:, labels == j]
            q, _ = np.linalg.qr(block[:, :2])  # basis from the first two samples
            resid = block - q @ (q.T @ block)
            assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(block)

    def test_affine_offset(self, rng):
        spec = UosSpec(n=6, k=1, dims=(2,), pts_per=30, affine=True)
        m_mat, _ = gen_uos(spec, rng)
        # affine plane of dim 2 not through the origin: rank 3, centered rank 2
        assert np.linalg.matrix_rank(m_mat) == 3
        centered = m_mat - m_mat.mean(axis=1, keepdims=True)
        assert numerical_rank(centered, 1e-9) == 2

    def test_reproducible_under_seed(self):
        spec = UosSpec(n=5, k=2, dims=(1, 1), pts_per=4)
        a, _ = gen_uos(spec, np.random.default_rng(7))
        b, _ = gen_uos(spec, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            UosSpec(n=4, k=1, dims=(4,), pts_per=5)

    def test_scalar_dim_broadcasts(self):
        spec = UosSpec(n=6, k=3, dims=(2,), pts_per=4)
        assert spec.dims == (2, 2, 2)


class TestGenClusters:
    def test_tight_clusters_collapse(self):
        spec = ClusterSpec(n=4, k=3, pts_per=10, sigma_c=1e-8)
        m_mat, labels = gen_clusters(spec, np.random.default_rng(0))
        for j in range(3):
            block = m_mat[:, labels == j]
            spread = np.linalg.norm(block - block.mean(axis=1, keepdims=True))
            assert spread <= 1e-6

    def test_labels_shape(self, rng):
        m_mat, labels = gen_clusters(ClusterSpec(n=3, k=4, pts_per=5), rng)
        assert labels.shape == (20,)
        assert set(labels) == {0, 1, 2, 3}
        assert m_mat.shape == (3, 20)

    def test_gaussian_kernel_dominant_pair(self):
        ratios = []
        for seed in range(10):
            m_mat, _ = gen_clusters(ClusterSpec(n=2, k=2, pts_per=50), np.random.default_rng(seed))
            sv = np.linalg.svd(gaussian_kernel(m_mat, m_mat, 2.5), compute_uv=False)
            ratios.append(sv[2] / sv[1])
        assert np.median(ratios) < 0.1

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(n=3, k=2, pts_per=5, sigma_c=0.0)
        with pytest.raises(ValueError):
            ClusterSpec(n=3, k=2, pts_per=5, sigma_c=float("nan"))


class TestEntryMask:
    def test_full_observation(self, rng):
        target = rng.standard_normal((4, 5))
        meas = gen_entry_mask(target, 1.0, rng)
        assert meas.m == 20
        assert np.allclose(meas.values, target)

    def test_measurement_count(self, rng):
        target = rng.standard_normal((10, 10))
        meas = gen_entry_mask(target, 0.5, rng)
        assert meas.m == 50

    def test_no_duplicates_and_exact_count(self, rng):
        target = rng.standard_normal((6, 7))
        meas = gen_entry_mask(target, 0.3, rng)
        assert meas.mask.sum() == meas.m == round(0.3 * 42)

    def test_uniform_inclusion(self):
        # inclusion frequency of each entry stays within 3 sigma of delta
        n, s, delta, draws = 4, 5, 0.4, 2000
        counts = np.zeros((n, s))
        gen = np.random.default_rng(123)
        target = np.zeros((n, s))
        for _ in range(draws):
            counts += gen_entry_mask(target, delta, gen).mask
        freq = counts / draws
        sigma = np.sqrt(delta * (1 - delta) / draws)
        assert np.all(np.abs(freq - delta) <= 3.5 * sigma + 1e-12)

    def test_per_column_mode(self, rng):
        target = rng.standard_normal((5, 12))
        meas = gen_entry_mask(target, 0.6, rng, per_column=True)
        assert np.all(meas.mask.sum(axis=0) == 3)

    def test_delta_validation(self, rng):
        with pytest.raises(ValueError):
            gen_entry_mask(np.zeros((3, 3)), 0.0, rng)


class TestGaussianSensing:
    def test_noiseless_consistency(self, rng):
        target = rng.standard_normal((4, 6))
        meas, b_clean = gen_gaussian_sensing(target, 10, rng)
        assert np.linalg.norm(meas.apply(target) - meas.b) <= 1e-12
        assert np.array_equal(b_clean, meas.b)

    def test_noise_magnitude(self):
        # sigma=1e-2, m=300: ||A(M) - b_noisy|| around 0.2 (within +-50%)
        gen = np.random.default_rng(0)
        target = gen.standard_normal((10, 40))
        meas, b_clean = gen_gaussian_sensing(target, 300, gen, 1e-2)
        mag = np.linalg.norm(meas.apply(target) - meas.b)
        assert 0.1 <= mag <= 0.3

    def test_full_row_rank(self, rng):
        target = rng.standard_normal((4, 5))
        meas, _ = gen_gaussian_sensing(target, 12, rng)
        sv = np.linalg.svd(meas.a_mat, compute_uv=False)
        assert sv[-1] > 1e-10 * sv[0]

    def test_overdetermined_warns_but_builds(self, rng):
        from nlrecover.manifold import RankDeficiencyError, meas_feasible_point

        target = rng.standard_normal((2, 3))
        with pytest.warns(UserWarning):
            meas, _ = gen_gaussian_sensing(target, 10, rng)
        assert meas.m == 10
        with pytest.raises(RankDeficiencyError):
            meas_feasible_point(meas)


class TestMetrics:
    def test_rmse_examples(self, rng):
        m_mat = rng.standard_normal((5, 6))
        assert rmse(m_mat, m_mat) == 0.0
        assert rmse(m_mat + 1.0, m_mat) == pytest.approx(1.0)

    def test_rand_index_examples(self):
        assert rand_index([1, 1, 2, 2], [1, 1, 2, 2]) == 1.0
        assert rand_index([1, 1, 2, 2], [1, 2, 1, 2]) == pytest.approx(1.0 / 3.0)

    def test_rand_index_relabeling_invariance(self, rng):
        a = rng.integers(0, 3, size=30)
        perm = {0: 7, 1: 5, 2: 9}
        b = np.array([perm[v] for v in a])
        assert rand_index(a, b) == 1.0

    def test_rand_index_symmetric(self, rng):
        a = rng.integers(0, 3, size=25)
        b = rng.integers(0, 4, size=25)
        assert rand_index(a, b) == rand_index(b, a)

    def test_numerical_rank_examples(self):
        assert numerical_rank(np.diag([1.0, 1e-12]), 1e-8) == 1
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((9, 3)))
        y = q @ rng.standard_normal((3, 7))
        assert numerical_rank(y, 1e-8) == 3

    def test_gaussian_kernel_numerical_rank_two_clusters(self):
        # tight, well-separated pair of clusters: numerical rank 2 at 1e-4
        m_mat, _ = gen_clusters(ClusterSpec(n=2, k=2, pts_per=40, sigma_c=0.02),
                                np.random.default_rng(5))
        k = gaussian_kernel(m_mat, m_mat, 2.5)
        assert numerical_rank(k, 1e-4) == 2


class TestClusterAssign:
    def test_recovers_tight_clusters(self):
        spec = ClusterSpec(n=4, k=3, pts_per=12, sigma_c=1e-6)
        m_mat, labels = gen_clusters(spec, np.random.default_rng(1))
        pred = cluster_assign(m_mat, 3, np.random.default_rng(2))
        assert rand_index(labels, pred) == 1.0

    def test_single_cluster(self, rng):
        pred = cluster_assign(rng.standard_normal((3, 10)), 1, rng)
        assert len(set(pred)) == 1

    def test_deterministic_under_seed(self, rng):
        m_mat, _ = gen_clusters(ClusterSpec(n=3, k=2, pts_per=10), rng)
        a = cluster_assign(m_mat, 2, np.random.default_rng(9))
        b = cluster_assign(m_mat, 2, np.random.default_rng(9))
        assert np.array_equal(a, b)

