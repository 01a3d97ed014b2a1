"""Cost functions on the product of the measurement subspace and a Grassmann.

The lifting computes the residual and its Euclidean derivatives: the feature
form ||Phi(X) - P_U Phi(X)||_F^2 with U in Grass(N, r), or the kernel trace
form trace(K(X,X)) - trace(W^T K(X,X) W) with W in Grass(s, r). The objective
composes them with the affine constraint A(X) = b, or with a quadratic
penalty lambda * ||A(X) - b||^2 for noisy measurements, where X ranges over
all of R^{n x s}.

Riemannian gradients project the Euclidean blocks onto the tangent spaces.
One `LiftedPoint` per X serves every evaluation there: `Objective.lift`
keeps the point of the last X it lifted, and `Objective.at(u)` the lifting's
evaluator (`BasisEvaluator`, with its P_{W_perp}) of the last subspace, so a
trial point's cost and, once the step is accepted, its gradient blocks, line
coefficients and Hessian operator read one lift, and all calls at one
subspace share one P_{W_perp}. The cost needs no evaluator, so a trial point
builds no P_{W_perp}; where the line coefficients are known, a line search
reads its trial costs from them and lifts only the point it accepts. The
Hessian operator adds the Grassmann curvature correction
to the closed-form Euclidean Hessian of the lifting, which `fd_check`
compares with finite differences of the gradient for every lifting. The
trust region's preconditioner (`Objective.rprecon_operator`) reads the same
lift: the diagonal of the lifting's Euclidean Hessian in X and the subspace
block's curvature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lifting import BasisEvaluator, LiftedPoint, LiftingSpec
from .manifold import (
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

# the preconditioner's subspace block inverts the curvature sym(-U^T grad_U f)
# with its eigenvalues floored at this fraction of the largest
PRECON_EIG_FLOOR = 1e-6


@dataclass
class Objective:
    """Residual cost of a lifting under measurement constraints.

    The lifting fixes the form: the feature form for the explicit monomial
    features (U in Grass(N, r)), the kernel trace form for kernel liftings
    (W in Grass(s, r)). penalty_lambda switches to the penalized formulation
    for noisy measurements.
    """

    lifting: LiftingSpec
    rank_r: int
    measurement: MeasurementSubspace
    penalty_lambda: float | None = None
    # the lifting's evaluator at the subspace last asked for, as (u, evaluator),
    # and the lifted point of the X last lifted, as (x, point); neither holds
    # a reference back to the objective
    _at: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _point: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.penalty_lambda is not None and not self.penalty_lambda > 0:
            raise ValueError(f"penalty lambda must be positive, got {self.penalty_lambda!r}")
        # a truncated SVD of the ambient x s lifted matrix fits the subspace,
        # so r is below both sizes (for kernel forms they are equal)
        ambient, s = self.grassmann_ambient(), self.measurement.s
        if not (1 <= self.rank_r < min(ambient, s)):
            bound = ("the ambient dimension of the subspace" if ambient <= s else
                     f"the number of columns (the subspace's ambient dimension is {ambient})")
            raise ValueError(f"rank {self.rank_r} must satisfy 1 <= r < {min(ambient, s)}, {bound}")

    # --- geometry ----------------------------------------------------------

    def grassmann_ambient(self) -> int:
        """Ambient dimension of the subspace variable: N(n, d) for the feature
        form, the number of data columns for kernel forms."""
        return self.lifting.ambient(self.measurement.s)

    def x_dim(self) -> int:
        """Dimension of the X factor: null(A), or R^{n x s} under the penalty."""
        meas = self.measurement
        return meas.n * meas.s - (meas.m if self.constrained else 0)

    @property
    def constrained(self) -> bool:
        return self.penalty_lambda is None

    def lift(self, x: np.ndarray) -> LiftedPoint:
        """The lifted point of x. The point lifted last is used again while x
        is the same array (by identity), so the cost, the gradient and the
        Hessian operator at one X read one lift. This relies on the library
        never mutating an X after it is evaluated."""
        if self._point is None or self._point[0] is not x:
            self._point = (x, self.lifting.lift(x))
        return self._point[1]

    def keep_lift(self, x: np.ndarray, point: LiftedPoint) -> None:
        """Make point, the lifted point of x that a caller held, the one
        `lift` keeps again, after a lift of another X took its place: the
        gradient loop of alternating minimization does so after a failed
        line search whose trials it evaluated (where the line
        coefficients are unknown), which lifted them."""
        self._point = (x, point)

    def energy(self, x: np.ndarray) -> float:
        """The scale of the cost at x, which its roundoff follows: the lifted
        energy of x's lift (`LiftingSpec.energy`, trace(K) for a kernel),
        plus lambda ||b||^2, the penalty term at X = 0, under the penalty."""
        val = self.lifting.energy(self.lift(x).lifted)
        if self.penalty_lambda is not None:
            val += self.penalty_lambda * float(self.measurement.b @ self.measurement.b)
        return val

    def lifted_residual(self, z: ProductPoint) -> float:
        """Cost without the penalty term (always >= 0 up to roundoff)."""
        return self.lifting.residual(self.lift(z.x).lifted, z.u.basis)

    # --- cost / gradient / Hessian -----------------------------------------

    def cost(self, z: ProductPoint) -> float:
        """The lifted residual plus the penalty term lambda ||A(x) - b||^2, if
        there is one."""
        val = self.lifted_residual(z)
        if self.penalty_lambda is not None:
            r = self.measurement.residual(z.x)
            val += self.penalty_lambda * float(r @ r)
        return val

    def at(self, u: GrassmannPoint) -> BasisEvaluator:
        """The lifting's evaluator with the subspace held at u. The one built
        last is used again while u is the same point, so calls at one u share
        its P_perp."""
        if self._at is None or self._at[0] is not u:
            self._at = (u, self.lifting.at(u.basis))
        return self._at[1]

    def rgrad(self, z: ProductPoint) -> ProductTangent:
        return ProductTangent(self.rgrad_x(z), self.rgrad_u(z))

    def rgrad_x(self, z: ProductPoint) -> np.ndarray:
        """X block of `rgrad(z)`: the Euclidean block plus the penalty term
        2 lambda A^T (A x - b), or projected onto null(A)."""
        gx = self.at(z.u).grad_x(z.x, self.lift(z.x))
        if self.penalty_lambda is not None:
            return gx + 2.0 * self.penalty_lambda * self.measurement.adjoint(
                self.measurement.residual(z.x)
            )
        return meas_project(self.measurement, gx)

    def rgrad_u(self, z: ProductPoint) -> np.ndarray:
        """Subspace block of `rgrad(z)`."""
        return grass_project(z.u, self.at(z.u).grad_basis(self.lift(z.x)))

    def line_coefficients(self, z: ProductPoint, dx: np.ndarray):
        """(c2, c3, c4) of the cost along (x + a dx, u) for dx in null(A),
        which keeps the constraint; None under the penalty and where the
        lifting has none (see `BasisEvaluator.line_coefficients`). Finite
        coefficients let a line search read its trial costs without
        lifting the trial points."""
        if not self.constrained:
            return None
        return self.at(z.u).line_coefficients(z.x, self.lift(z.x), dx)

    def _hess_x(self, hx: np.ndarray, dx: np.ndarray) -> np.ndarray:
        """X block of a Riemannian Hessian product from its Euclidean part, a
        fresh array hx: plus the penalty term 2 lambda A^T A dx in place, read
        from the measurement's cached Gram (`MeasurementSubspace.normal_apply`),
        or projected onto null(A)."""
        if self.penalty_lambda is not None:
            return np.add(hx, self.measurement.normal_apply(dx, scale=2.0 * self.penalty_lambda), out=hx)
        return meas_project(self.measurement, hx)

    def rhess_operator(self, z: ProductPoint):
        """Riemannian Hessian at z as an operator on tangents; point-dependent
        quantities (kernel matrices, the curvature term) are built once. A
        product adds the curvature and penalty terms in place, so it relies
        on the lifting's operator returning fresh arrays."""
        lifting, point = self.at(z.u), self.lift(z.x)
        euclid = lifting.hess_operator(z.x, point)
        gu = lifting.grad_basis(point)
        u_gu = z.u.basis.T @ gu

        def apply(xi: ProductTangent) -> ProductTangent:
            hx, hu = euclid(xi.dx, xi.du)
            # Grassmann quotient curvature: P_perp(eucl_hess - du (U^T grad_U))
            hu -= xi.du @ u_gu
            return ProductTangent(self._hess_x(hx, xi.dx), grass_project(z.u, hu))

        return apply

    def rprecon_operator(self, z: ProductPoint):
        """A symmetric positive definite approximation of the inverse of
        `rhess_operator(z)` on the tangent space at z, block diagonal:
        (dx, du) -> (dx / c, du M^-1). M = sym(-U^T grad_U f) is the curvature
        of the subspace block (2 W^T K W for kernels, 2 U^T Phi Phi^T U for
        the features), its eigenvalues floored at PRECON_EIG_FLOOR times the
        largest. c, one scale for the whole X block, is the mean absolute
        value of the diagonal of its Euclidean Hessian
        (`BasisEvaluator.hess_diag_x`) plus the penalty's 2 lambda
        diag(A^T A). A block whose curvature is not positive and finite
        (c, or the largest eigenvalue of M) is left unscaled."""
        lifting, point = self.at(z.u), self.lift(z.x)
        diag = lifting.hess_diag_x(z.x, point)
        if self.penalty_lambda is not None:
            diag = diag + 2.0 * self.penalty_lambda * self.measurement.normal_diag()
        c = float(np.mean(np.abs(diag)))
        if not 0.0 < c < math.inf:
            c = 1.0
        curv = -(z.u.basis.T @ lifting.grad_basis(point))
        m_inv = np.eye(self.rank_r)
        if np.isfinite(curv).all():
            lam, vec = np.linalg.eigh(0.5 * (curv + curv.T))
            if 0.0 < lam[-1] < math.inf:
                m_inv = (vec / np.maximum(lam, PRECON_EIG_FLOOR * lam[-1])) @ vec.T

        def apply(xi: ProductTangent) -> ProductTangent:
            return ProductTangent(xi.dx / c, xi.du @ m_inv)

        return apply

    def rhess_x_operator(self, z: ProductPoint):
        """Riemannian Hessian in X alone, with the subspace frozen at z.u: the
        X block of `rhess_operator(z)` applied to (dx, 0), built without the
        subspace gradient and curvature term that block does not use, and
        applied without the subspace block of the Euclidean operator."""
        euclid = self.at(z.u).hess_operator(z.x, self.lift(z.x))
        return lambda dx: self._hess_x(euclid(dx), dx)

    def random_tangent(self, z: ProductPoint, rng: np.random.Generator) -> ProductTangent:
        dx = rng.standard_normal(z.x.shape)
        du = grass_project(z.u, rng.standard_normal(z.u.basis.shape))
        if self.constrained:
            dx = meas_project(self.measurement, dx)
        return ProductTangent(dx, du)


@dataclass
class FdReport:
    """Outcome of the derivative self-check."""

    grad_error: float
    hess_error: float
    tol: float

    @property
    def passed(self) -> bool:
        """Whether both derivatives are within tol."""
        return self.grad_error <= self.tol and self.hess_error <= self.tol


def fd_check(
    obj: Objective,
    z: ProductPoint,
    tol: float = 1e-5,
    rng: np.random.Generator | None = None,
    n_dirs: int = 10,
) -> FdReport:
    """Compare rgrad and the Euclidean Hessian blocks against central finite
    differences of the cost and of the Euclidean gradient. Reports the max
    relative discrepancy of each; passes iff both are <= tol."""
    rng = np.random.default_rng(0) if rng is None else rng
    grad = obj.rgrad(z)
    hess_op = obj.at(z.u).hess_operator(z.x, obj.lift(z.x))
    gnorm = product_norm(grad)
    grad_err = 0.0
    for _ in range(n_dirs):
        xi = obj.random_tangent(z, rng)
        nrm = product_norm(xi)
        if nrm == 0.0:
            continue
        xi = (1.0 / nrm) * xi
        analytic = product_inner(grad, xi)
        errs = []
        for h in (1e-3, 1e-4, 1e-5, 1e-6):
            fp = obj.cost(product_retract(z, h * xi))
            fm = obj.cost(product_retract(z, (-h) * xi))
            errs.append(abs((fp - fm) / (2.0 * h) - analytic))
        grad_err = max(grad_err, min(errs) / max(gnorm, 1e-12))

    hess_err = 0.0
    for _ in range(n_dirs):
        xi = obj.random_tangent(z, rng)
        nrm = product_norm(xi)
        if nrm == 0.0:
            continue
        xi = (1.0 / nrm) * xi
        hx, hu = hess_op(xi.dx, xi.du)
        h = 1e-5 * (1.0 + np.linalg.norm(z.x))
        gx_p, gu_p = obj.lifting.grad(z.x + h * xi.dx, z.u.basis + h * xi.du)
        gx_m, gu_m = obj.lifting.grad(z.x - h * xi.dx, z.u.basis - h * xi.du)
        fd_x = (gx_p - gx_m) / (2.0 * h)
        fd_u = (gu_p - gu_m) / (2.0 * h)
        num = np.sqrt(np.sum((hx - fd_x) ** 2) + np.sum((hu - fd_u) ** 2))
        den = max(np.sqrt(np.sum(hx**2) + np.sum(hu**2)), 1e-12)
        hess_err = max(hess_err, num / den)

    return FdReport(grad_error=grad_err, hess_error=hess_err, tol=tol)
