"""Geometry of the search space: Grassmann factor, affine measurement factor,
and their product.

A subspace iterate is an orthonormal basis matrix modulo rotation; the affine
factor is the solution set of the linear measurements A(X) = b. Both factors
expose projections onto their tangent spaces and retractions, and the product
combines them componentwise.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dsymv, dsyrk
from scipy.linalg.lapack import dormqr, dorgqr, dtrcon

ORTHO_TOL = 1e-12
# the least reciprocal condition estimate of R for which dense sensing counts
# as full rank
RANK_RCOND = 1e-12


class DimensionError(ValueError):
    """Shapes of operands do not match the geometry."""


class DegenerateRetractionError(RuntimeError):
    """U + H lost rank; the QR retraction is undefined."""


class RankDeficiencyError(ValueError):
    """Sensing matrix does not have full row rank."""


class NumericalError(RuntimeError):
    """Cost, curvature or the input of a decomposition became non-finite."""


def check_finite(values: np.ndarray, what: str) -> np.ndarray:
    """values as a float array, checked finite: a NumericalError naming what
    and counting its inf and NaN entries otherwise."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise NumericalError(f"{what} has {np.isinf(values).sum()} inf and "
                             f"{np.isnan(values).sum()} NaN entries")
    return values


def finite_svd_input(y_mat: np.ndarray) -> np.ndarray:
    """y_mat as a float array, checked finite before LAPACK sees it: an SVD
    may never return on one isolated inf, and one that overflowed everywhere
    gives illegal-value messages on stdout and singular values of 0."""
    return check_finite(y_mat, f"the {' x '.join(map(str, np.shape(y_mat)))} SVD input")


def _with_workspace(routine, *args) -> np.ndarray:
    """The first output of a LAPACK routine with its optimal workspace, taken
    from a workspace query: f2py's default is the minimum, with which the
    blocked routines run their unblocked code."""
    lwork = int(routine(*args, lwork=-1)[-2][0])
    return routine(*args, lwork=lwork)[0]


def is_symmetric(y_mat: np.ndarray) -> bool:
    """Whether y_mat is square and equal to its transpose to the bit, so that
    a symmetric eigensolver may stand in for its SVD: the singular values
    are |lambda|, the singular vectors the eigenvectors."""
    return y_mat.ndim == 2 and y_mat.shape[0] == y_mat.shape[1] and np.array_equal(y_mat, y_mat.T)


@dataclass(frozen=True)
class GrassmannPoint:
    """A point of Grass(p, r): an orthonormal basis of an r-dim subspace of R^p."""

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2:
            raise DimensionError("basis must be a 2-d array")
        p, r = b.shape
        if not (1 <= r < p):
            raise DimensionError(f"need 1 <= r < p, got p={p}, r={r}")
        defect = np.linalg.norm(b.T @ b - np.eye(r))
        if defect > ORTHO_TOL * max(1.0, r):
            raise ValueError(f"basis not orthonormal (defect {defect:.3e})")
        object.__setattr__(self, "basis", b)


def grass_project(u: GrassmannPoint, z: np.ndarray) -> np.ndarray:
    """Project an ambient p x r matrix onto the horizontal space at u, the
    matrices H with U^T H = 0."""
    z = np.asarray(z, dtype=float)
    if z.shape != u.basis.shape:
        raise DimensionError(f"expected shape {u.basis.shape}, got {z.shape}")
    return z - u.basis @ (u.basis.T @ z)


def grass_retract(u: GrassmannPoint, h: np.ndarray) -> GrassmannPoint:
    """QR retraction: the Q factor of U + H with positive diagonal R."""
    hv = np.asarray(h, dtype=float)
    if hv.shape != u.basis.shape:
        raise DimensionError(f"expected shape {u.basis.shape}, got {hv.shape}")
    q, r = np.linalg.qr(u.basis + hv)
    diag = np.diag(r)
    if np.any(np.abs(diag) < 1e-14 * max(1.0, np.abs(diag).max(initial=0.0))):
        raise DegenerateRetractionError("U + H is numerically rank deficient")
    q = q * np.sign(diag)
    return GrassmannPoint(q)


def grass_distance(u1: GrassmannPoint, u2: GrassmannPoint) -> float:
    """sqrt(sum_i sin^2(theta_i)) over the principal angles between u1 and u2.

    Evaluated through the projector residuals ||(I - P1) U2||_F (symmetrized),
    which equals sqrt(r - ||U1^T U2||_F^2) but stays accurate near zero where
    forming the sines from the cosines loses half the working precision.
    """
    if u1.basis.shape != u2.basis.shape:
        raise DimensionError("points live on different Grassmannians")
    r12 = u2.basis - u1.basis @ (u1.basis.T @ u2.basis)
    r21 = u1.basis - u2.basis @ (u2.basis.T @ u1.basis)
    sq = 0.5 * (np.sum(r12 * r12) + np.sum(r21 * r21))
    return float(np.sqrt(max(sq, 0.0)))


class MeasurementSubspace:
    """The affine set {X in R^{n x s} : A(X) = b}.

    Two variants:
      * entry mask: A selects entries on a set Omega (matrix completion),
      * dense sensing: each measurement is a Frobenius inner product with a
        dense matrix; A is stored flat as (m, n*s) acting on vec(X).

    The dense variant factors the tall one of A^T and A (A^T unless m > ns)
    by one blocked Householder QR at construction and keeps it in LAPACK's
    compact form: the reflectors, their scalars and R. It rejects a
    non-finite A or b (NumericalError) and an A whose R has a reciprocal
    condition estimate below RANK_RCOND (RankDeficiencyError). The
    orthonormal basis `q_basis` of range(A^T) is formed from the reflectors
    at its first read, the first `meas_project`, so a penalized run never
    forms it. The dense variant also caches the Gram A^T A for
    `normal_apply`, built at its first call (the first penalized Hessian
    product), not at construction: an (ns)^2 matrix, at most twice the
    memory of A when m >= ns/2, which every objective over this
    measurement shares.
    """

    def __init__(self, n: int, s: int):
        self.n = int(n)
        self.s = int(s)

    # --- constructors -----------------------------------------------------

    @classmethod
    def from_mask(cls, mask: np.ndarray, values: np.ndarray) -> "MeasurementSubspace":
        """Entry-mask variant. `mask` is boolean n x s; `values` holds the
        observed entries (entries outside the mask are ignored)."""
        mask = np.asarray(mask, dtype=bool)
        values = np.asarray(values, dtype=float)
        if mask.shape != values.shape or mask.ndim != 2:
            raise DimensionError("mask and values must share an n x s shape")
        self = cls(*mask.shape)
        self.kind = "entry_mask"
        self.mask = mask
        rows, cols = np.nonzero(mask)
        self.rows, self.cols = rows, cols
        self.m = int(rows.size)
        self.values = np.where(mask, values, 0.0)
        self.b = values[rows, cols].copy()
        return self

    @classmethod
    def from_dense(cls, a_mat: np.ndarray, b: np.ndarray, n: int, s: int) -> "MeasurementSubspace":
        """Dense-sensing variant with flat A of shape (m, n*s), acting on
        column-stacked vec(X)."""
        a_mat = np.asarray(a_mat, dtype=float)
        b = np.asarray(b, dtype=float).ravel()
        if a_mat.ndim != 2 or a_mat.shape[1] != n * s:
            raise DimensionError("A must have shape (m, n*s)")
        if b.size != a_mat.shape[0]:
            raise DimensionError("b length must match the number of rows of A")
        self = cls(n, s)
        self.kind = "dense"
        self.m = a_mat.shape[0]
        self.a_mat = a_mat
        self.b = b
        ns = n * s
        check_finite(a_mat, f"the {self.m} x {ns} sensing matrix A")
        check_finite(b, f"the length-{self.m} measurement vector b")
        if self.m > ns:
            warnings.warn("overdetermined sensing (m > n*s); only the penalized "
                          "formulation applies", stacklevel=2)
        # the rank test needs no pivoting: the condition estimate of R is
        # that of A (to within the norm's factor), and a blocked QR runs at
        # BLAS-3 speed where the pivoted one cannot
        (self._reflectors, self._tau), r = scipy.linalg.qr(
            a_mat.T if self.m <= ns else a_mat, mode="raw", check_finite=False)
        rcond = dtrcon(r, norm="1")[0] if r.size else 0.0
        if not rcond >= RANK_RCOND:
            raise RankDeficiencyError("sensing matrix A is numerically rank deficient "
                                      f"(reciprocal condition estimate {rcond:.1e})")
        self._r_fac = r
        self._gram = None
        self._normal_diag = None
        return self

    @functools.cached_property
    def q_basis(self) -> np.ndarray:
        """Orthonormal basis of range(A^T), ns x min(m, ns), formed from the
        compact QR at the first read: the identity when m > ns, since the
        rank test leaves A full column rank."""
        if self.m > self.n * self.s:
            return np.eye(self.n * self.s)
        return _with_workspace(dorgqr, self._reflectors, self._tau)

    # --- measurement operator --------------------------------------------

    def apply(self, x_mat: np.ndarray) -> np.ndarray:
        """A(X) as a length-m vector."""
        x_mat = self._check_shape(x_mat)
        if self.kind == "entry_mask":
            return x_mat[self.rows, self.cols]
        return self.a_mat @ x_mat.ravel(order="F")

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        """A^T(v) as an n x s matrix."""
        v = np.asarray(v, dtype=float).ravel()
        if v.size != self.m:
            raise DimensionError("adjoint input must have length m")
        if self.kind == "entry_mask":
            out = np.zeros((self.n, self.s))
            out[self.rows, self.cols] = v
            return out
        return (self.a_mat.T @ v).reshape((self.n, self.s), order="F")

    def normal_apply(self, x_mat: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """scale * A^T(A(X)) as an n x s matrix: X zeroed off the mask for an
        entry mask, bit for bit scale * `adjoint(apply(X))`; one symmetric
        GEMV with the cached Gram for dense sensing."""
        x_mat = self._check_shape(x_mat)
        if self.kind == "entry_mask":
            return scale * np.where(self.mask, x_mat, 0.0)
        if self._gram is None:
            # lower triangle of (A^T)(A^T)^T, F-ordered: a C-ordered A is the
            # F-ordered A^T that dsyrk reads, so no copy of A is made
            self._gram = dsyrk(1.0, self.a_mat.T, lower=1)
        y = dsymv(scale, self._gram, x_mat.ravel(order="F"), lower=1)
        return y.reshape((self.n, self.s), order="F")

    def normal_diag(self) -> np.ndarray:
        """The diagonal of A^T A as an n x s matrix: the mask as 0/1 for an
        entry mask; for dense sensing the squared column norms of A, computed
        at the first call and kept."""
        if self.kind == "entry_mask":
            return self.mask.astype(float)
        if self._normal_diag is None:
            sq_norms = np.einsum("ij,ij->j", self.a_mat, self.a_mat)
            self._normal_diag = sq_norms.reshape((self.n, self.s), order="F")
        return self._normal_diag

    def residual(self, x_mat: np.ndarray) -> np.ndarray:
        return self.apply(x_mat) - self.b

    def _check_shape(self, x_mat: np.ndarray) -> np.ndarray:
        x_mat = np.asarray(x_mat, dtype=float)
        if x_mat.shape != (self.n, self.s):
            raise DimensionError(f"expected shape {(self.n, self.s)}, got {x_mat.shape}")
        return x_mat


def meas_project(l: MeasurementSubspace, delta: np.ndarray) -> np.ndarray:
    """Orthogonal projection of an ambient n x s matrix onto null(A)."""
    delta = l._check_shape(delta)
    if l.kind == "entry_mask":
        return np.where(l.mask, 0.0, delta)
    v = delta.ravel(order="F")
    v = v - l.q_basis @ (l.q_basis.T @ v)
    return v.reshape((l.n, l.s), order="F")


def meas_feasible_point(l: MeasurementSubspace) -> np.ndarray:
    """A point of the affine set: observed values on the mask (zero elsewhere),
    or the minimum-norm solution of A vec(X) = b for dense sensing, from the
    compact QR of A^T without forming its Q. Raises RankDeficiencyError for
    dense sensing with m > ns, which has no exact solution in general."""
    if l.kind == "entry_mask":
        return l.values.copy()
    if l.m > l.n * l.s:
        raise RankDeficiencyError("overdetermined system has no exact solution")
    # min-norm solution lives in range(A^T): vec(X) = Q [R^{-T} b; 0], with
    # Q applied from its reflectors
    y = np.zeros((l.n * l.s, 1), order="F")
    y[:l.m, 0] = scipy.linalg.solve_triangular(l._r_fac, l.b, trans="T", check_finite=False)
    x = _with_workspace(dormqr, "L", "N", l._reflectors, l._tau, y)
    return x.reshape((l.n, l.s), order="F")


# --- product manifold ----------------------------------------------------


class ProductPoint(NamedTuple):
    """Iterate z = (X, U) with X feasible and U a subspace."""

    x: np.ndarray
    u: GrassmannPoint


class ProductTangent:
    """Tangent (dx, du) with dx in null(A) and du horizontal at the anchor,
    treated as immutable: truncated CG's path records hold its tangents, so
    each operation returns a new one and leaves its operands as they were."""

    __slots__ = ("dx", "du")

    def __init__(self, dx: np.ndarray, du: np.ndarray):
        self.dx, self.du = dx, du

    def __add__(self, other: "ProductTangent") -> "ProductTangent":
        return ProductTangent(self.dx + other.dx, self.du + other.du)

    def __sub__(self, other: "ProductTangent") -> "ProductTangent":
        return ProductTangent(self.dx - other.dx, self.du - other.du)

    def __neg__(self) -> "ProductTangent":
        return ProductTangent(-self.dx, -self.du)

    def __mul__(self, scalar: float) -> "ProductTangent":
        return ProductTangent(scalar * self.dx, scalar * self.du)

    __rmul__ = __mul__


def product_retract(z: ProductPoint, xi: ProductTangent) -> ProductPoint:
    """X + dx on the flat factor, QR retraction on the Grassmann factor."""
    if xi.dx.shape != z.x.shape or xi.du.shape != z.u.basis.shape:
        raise DimensionError("tangent is not anchored at this point")
    return ProductPoint(z.x + xi.dx, grass_retract(z.u, xi.du))


def product_inner(xi: ProductTangent, zeta: ProductTangent) -> float:
    return float(np.vdot(xi.dx, zeta.dx) + np.vdot(xi.du, zeta.du))


def product_norm(xi: ProductTangent) -> float:
    return float(np.sqrt(product_inner(xi, xi)))
