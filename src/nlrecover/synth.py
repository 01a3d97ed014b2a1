"""Synthetic data generation, measurement sampling and evaluation metrics.

Generators: unions of random subspaces (optionally affine) and Gaussian
clusters. Sampling: uniform entry masks and dense Gaussian sensing with
optional additive measurement noise. Metrics: RMSE against the ground truth,
Rand index between clusterings, and numerical rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .manifold import MeasurementSubspace, finite_svd_input, is_symmetric

CLUSTER_CENTER_SCALE = 5.0  # centers ~ N(0, 25 I); keeps clusters separated at sigma_c = 0.5
RECOVERY_RMSE_THRESHOLD = 1e-3
KMEANS_MAX_ITER = 100  # Lloyd iterations per k-means restart


@dataclass(frozen=True)
class UosSpec:
    """Union of k random subspaces of R^n with pts_per points on each."""

    n: int
    k: int
    dims: tuple[int, ...]
    pts_per: int
    affine: bool = False

    def __post_init__(self):
        if self.k < 1 or self.pts_per < 1:
            raise ValueError("need k >= 1 subspaces and pts_per >= 1 points on each")
        dims = tuple(int(d) for d in (self.dims if hasattr(self.dims, "__len__") else [self.dims]))
        object.__setattr__(self, "dims", dims)
        if len(dims) == 1 and self.k > 1:
            object.__setattr__(self, "dims", dims * self.k)
        if len(self.dims) != self.k:
            raise ValueError("need one dimension per subspace")
        if any(d < 1 or d >= self.n for d in self.dims):
            raise ValueError("subspace dimensions must satisfy 1 <= dim < n")


@dataclass(frozen=True)
class ClusterSpec:
    """k Gaussian clusters in R^n with pts_per points each."""

    n: int
    k: int
    pts_per: int
    sigma_c: float = 0.5

    def __post_init__(self):
        if min(self.n, self.k, self.pts_per) < 1:
            raise ValueError("need n, k and pts_per >= 1")
        if not self.sigma_c > 0:
            raise ValueError(f"sigma_c must be positive, got {self.sigma_c!r}")


def gen_uos(spec: UosSpec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample the union of subspaces. Each point is a standard-normal
    combination of an orthonormalized Gaussian basis (plus a random offset in
    the affine case). Returns (matrix n x s, labels)."""
    cols = []
    labels = []
    for idx, dim in enumerate(spec.dims):
        basis, _ = np.linalg.qr(rng.standard_normal((spec.n, dim)))
        offset = rng.standard_normal(spec.n) if spec.affine else np.zeros(spec.n)
        coeffs = rng.standard_normal((dim, spec.pts_per))
        cols.append(basis @ coeffs + offset[:, None])
        labels.extend([idx] * spec.pts_per)
    return np.hstack(cols), np.array(labels, dtype=int)


def gen_clusters(spec: ClusterSpec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample clustered points: random centers, then N(0, sigma_c^2 I) around
    each. Returns (matrix n x s, labels)."""
    cols = []
    labels = []
    for idx in range(spec.k):
        center = CLUSTER_CENTER_SCALE * rng.standard_normal(spec.n)
        pts = center[:, None] + spec.sigma_c * rng.standard_normal((spec.n, spec.pts_per))
        cols.append(pts)
        labels.extend([idx] * spec.pts_per)
    return np.hstack(cols), np.array(labels, dtype=int)


def gen_entry_mask(
    target: np.ndarray,
    delta: float,
    rng: np.random.Generator,
    per_column: bool = False,
) -> MeasurementSubspace:
    """Observe m = round(delta * n * s) entries of the target, sampled
    uniformly without replacement.

    per_column=True draws round(delta * n) entries in every column instead
    (same inclusion probability per entry, but no column is ever left
    unobserved); the clustering experiments use this mode.
    """
    target = np.asarray(target, dtype=float)
    n, s = target.shape
    if not 0 < delta <= 1:
        raise ValueError("undersampling ratio must lie in (0, 1]")
    if per_column:
        per_col = max(1, int(round(delta * n)))
        mask = np.zeros((n, s), dtype=bool)
        for j in range(s):
            mask[rng.choice(n, size=per_col, replace=False), j] = True
        return MeasurementSubspace.from_mask(mask, target)
    m = int(round(delta * n * s))
    chosen = rng.choice(n * s, size=m, replace=False)
    mask = np.zeros(n * s, dtype=bool)
    mask[chosen] = True
    mask = mask.reshape(n, s)
    return MeasurementSubspace.from_mask(mask, target)


def gen_gaussian_sensing(
    target: np.ndarray,
    m: int,
    rng: np.random.Generator,
    noise_sigma: float = 0.0,
) -> tuple[MeasurementSubspace, np.ndarray]:
    """Dense Gaussian sensing: A has i.i.d. N(0, 1/m) entries, b = A vec(M)
    plus i.i.d. Gaussian noise of standard deviation noise_sigma on each
    measurement. Returns (subspace built on the noisy b, clean b)."""
    if not noise_sigma >= 0:
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma!r}")
    target = np.asarray(target, dtype=float)
    n, s = target.shape
    a_mat = rng.standard_normal((m, n * s))
    a_mat /= math.sqrt(m)  # in place: A is the largest array of the run
    b_clean = a_mat @ target.ravel(order="F")
    b = b_clean.copy()
    if noise_sigma > 0:
        b = b + noise_sigma * rng.standard_normal(m)
    return MeasurementSubspace.from_dense(a_mat, b, n, s), b_clean


def rmse(x_mat: np.ndarray, m_mat: np.ndarray) -> float:
    """||X - M||_F / sqrt(n s)."""
    x_mat = np.asarray(x_mat, dtype=float)
    m_mat = np.asarray(m_mat, dtype=float)
    return float(np.linalg.norm(x_mat - m_mat)) / math.sqrt(x_mat.size)


def rand_index(labels_a, labels_b) -> float:
    """Fraction of point pairs on which two clusterings agree (both together
    or both apart)."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("labelings must be 1-d and of equal length")
    n = a.size
    if n < 2:
        return 1.0
    same_a = a[:, None] == a[None, :]
    same_b = b[:, None] == b[None, :]
    agree = same_a == same_b
    iu = np.triu_indices(n, k=1)
    return float(np.mean(agree[iu]))


def numerical_rank(y_mat: np.ndarray, rel_tol: float = 1e-8) -> int:
    """Number of singular values >= rel_tol * sigma_1. A symmetric input (a
    kernel matrix) takes them as |lambda| from `np.linalg.eigvalsh`; a
    non-finite input raises NumericalError, as every SVD does."""
    y_mat = finite_svd_input(y_mat)
    if is_symmetric(y_mat):
        svals = np.abs(np.linalg.eigvalsh(y_mat))
    else:
        svals = np.linalg.svd(y_mat, compute_uv=False)
    sigma_1 = svals.max(initial=0.0)
    if sigma_1 == 0.0:
        return 0
    return int(np.sum(svals >= rel_tol * sigma_1))


def cluster_assign(x_mat: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means on the columns (squared-Euclidean objective), best of 10
    restarts with k-means++ seeding."""
    pts = np.asarray(x_mat, dtype=float).T  # points as rows
    best_labels, best_inertia = None, np.inf
    for _ in range(10):
        labels, inertia = _kmeans_once(pts, k, rng)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels


def _kmeans_once(pts: np.ndarray, k: int, rng: np.random.Generator):
    n_pts = pts.shape[0]
    centers = pts[_kmeanspp_indices(pts, k, rng)].copy()
    labels = np.zeros(n_pts, dtype=int)
    for it in range(KMEANS_MAX_ITER):
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        if it > 0 and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            members = pts[labels == j]
            if members.size:
                centers[j] = members.mean(axis=0)
            else:  # re-seed an empty cluster at the farthest point
                centers[j] = pts[d2.min(axis=1).argmax()]
    inertia = float(((pts - centers[labels]) ** 2).sum())
    return labels, inertia


def _kmeanspp_indices(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n_pts = pts.shape[0]
    idx = [int(rng.integers(n_pts))]
    d2 = ((pts - pts[idx[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx.append(int(rng.integers(n_pts)))
            continue
        probs = d2 / total
        nxt = int(rng.choice(n_pts, p=probs))
        idx.append(nxt)
        d2 = np.minimum(d2, ((pts - pts[nxt]) ** 2).sum(axis=1))
    return np.array(idx, dtype=int)
