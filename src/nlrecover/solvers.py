"""Solvers for the lifted recovery problem.

Two families:
  * a Riemannian trust-region method with a preconditioned Steihaug-Toint
    truncated-CG subproblem (first- or second-order model),
  * an alternating minimization scheme: inexact minimization in X alternating
    with a truncated-SVD update of the subspace, with an adaptive
    exact/randomized SVD policy or an exact SVD every round. The X-subproblem
    at the round's subspace (`x_factor_problem`) is solved by projected
    gradient steps with Armijo backtracking, which first tries the exact
    line minimizer where the cost along the line is a polynomial of known
    coefficients (`Objective.line_coefficients`); after an accepted exact
    step the next direction is Polak-Ribiere+ conjugate, and every round
    starts with a steepest-descent step. Or it is solved by an inner trust
    region.

All solvers record a per-iteration trace (the CLI writes it as CSV).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, ClassVar

import numpy as np

from .manifold import (
    GrassmannPoint,
    NumericalError,
    ProductPoint,
    finite_svd_input,
    is_symmetric,
    meas_feasible_point,
    meas_project,
    product_inner,
    product_retract,
)
from .objective import Objective
from .synth import rmse


class LineSearchError(RuntimeError):
    """Armijo backtracking exhausted its budget; gradient or direction is
    unreliable at working precision."""


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

# the trust region stops as stalled once a rejection shrinks the radius below
STALL_RADIUS = 1e-16
RHO_ROUNDOFF = 100.0 * np.finfo(float).eps  # rho's roundoff allowance per unit of energy
LANCZOS_ITERS = 30  # steps of the smallest-eigenvalue estimate behind eps_h
PERTURB_SCALE = 0.3  # size of the null-space perturbation of a trust-region restart
DELTA0 = 1.0  # initial trust-region radius; the radius cap is 2 sqrt(dim)

# truncated CG stops once the residual is at most
# max(||g|| min(kappa, ||g||^theta), kappa eps_g)
TCG_KAPPA = 0.1
TCG_THETA = 1.0

# Armijo backtracking: trial steps alpha0 tau^i, sufficient-decrease factor beta
ARMIJO_ALPHA0 = 2.0
ARMIJO_TAU = 0.5
ARMIJO_BETA = 1e-4
ARMIJO_MAX_BACKTRACKS = 60

# SVD policy: exact above SVD_TAU2 (f over the initial lifted energy),
# randomized with SVD_POWER_Q power passes above SVD_TAU1, plain below
SVD_TAU1 = 1e-3
SVD_TAU2 = 1e-1
SVD_OVERSAMPLE = 10
SVD_POWER_Q = 1

# the adaptive schedule's inner tolerance: max(eps_x, theta ||grad_X||)
ADAPTIVE_THETA = 0.5


def _at_least(config, bound, *names) -> None:
    """A ValueError naming the first of the config's fields (names) that is
    not >= bound, NaN included."""
    for name in names:
        value = getattr(config, name)
        if not value >= bound:
            raise ValueError(f"{name} must be >= {bound}, got {value!r}")


@dataclass
class TcgConfig:
    max_inner: int | None = None  # default: tangent-space dimension

    def __post_init__(self):
        if self.max_inner is not None:
            _at_least(self, 1, "max_inner")


@dataclass
class RtrConfig:
    rho_prime: ClassVar[float] = 0.1  # a step is accepted when rho exceeds this
    eps_g: float = 1e-6
    eps_h: float = math.inf  # inf disables second-order stopping
    max_iter: int = 500
    use_hessian: bool = True  # False: identity model (first-order variant)

    def __post_init__(self):
        _at_least(self, 0, "eps_g", "eps_h", "max_iter")


@dataclass
class AltminConfig:
    eps_x: float = 1e-6
    eps_u: float = 1e-6
    schedule: str = "greedy"  # or "adaptive"
    # True: an exact truncated SVD in every round that updates the subspace;
    # False: routed by the SVD policy
    exact_svd: bool = False
    max_outer: int = 200
    max_inner: int = 200
    inner: str = "gradient"  # or "trust_region"

    def __post_init__(self):
        _at_least(self, 0, "eps_x", "eps_u", "max_outer", "max_inner")
        if self.schedule not in ("greedy", "adaptive"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.inner not in ("gradient", "trust_region"):
            raise ValueError(f"unknown inner solver {self.inner!r}")


# --------------------------------------------------------------------------
# trace
# --------------------------------------------------------------------------

@dataclass
class TraceRecord:
    k: int
    f: float
    gnorm_x: float
    gnorm_u: float
    step: float | None = None
    delta: float | None = None
    rho: float | None = None
    svd_mode: str | None = None
    inner_iters: int | None = None
    rmse: float | None = None
    hess_calls: int | None = None  # Hessian-vector products applied


# the CSV header of a trace, in field order
TRACE_COLUMNS = tuple(f.name for f in fields(TraceRecord))


@dataclass
class SolveTrace:
    records: list[TraceRecord] = field(default_factory=list)
    status: str = "max_iter"  # grad_tol | max_iter | stalled

    def append(self, rec: TraceRecord) -> None:
        self.records.append(rec)

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]

    def column(self, name: str) -> list:
        return [getattr(r, name) for r in self.records]


# --------------------------------------------------------------------------
# SVD machinery
# --------------------------------------------------------------------------


def truncated_svd(y_mat: np.ndarray, r: int) -> GrassmannPoint:
    """Span of the r leading left singular vectors. A symmetric input (a
    kernel matrix) takes them from `np.linalg.eigh`, about half the work of
    the SVD: its singular values are |lambda|, so the span is that of the r
    eigenvectors of largest |lambda|, negative eigenvalues included. Ties at
    sigma_r are broken by the order the decomposition returns (ascending
    lambda for eigh)."""
    y_mat = finite_svd_input(y_mat)
    if not 1 <= r < min(y_mat.shape):
        raise ValueError("need 1 <= r < min(p, s)")
    if is_symmetric(y_mat):
        lam, vecs = np.linalg.eigh(y_mat)
        return GrassmannPoint(vecs[:, np.argsort(-np.abs(lam), kind="stable")[:r]])
    u, _, _ = np.linalg.svd(y_mat, full_matrices=False)
    return GrassmannPoint(u[:, :r])


def randomized_svd(
    y_mat: np.ndarray,
    r: int,
    oversample: int = SVD_OVERSAMPLE,
    power_q: int = SVD_POWER_Q,
    rng: np.random.Generator | None = None,
) -> GrassmannPoint:
    """Gaussian range finder of width r + oversample with power_q passes of
    Y Y^T (re-orthonormalized), then an exact SVD of the sketch."""
    rng = np.random.default_rng(0) if rng is None else rng
    y_mat = finite_svd_input(y_mat)
    p, s = y_mat.shape
    width = min(r + oversample, min(p, s))
    omega = rng.standard_normal((s, width))
    q, _ = np.linalg.qr(y_mat @ omega)
    for _ in range(power_q):
        z, _ = np.linalg.qr(y_mat.T @ q)
        q, _ = np.linalg.qr(y_mat @ z)
    b = q.T @ y_mat
    ub, _, _ = np.linalg.svd(b, full_matrices=False)
    return GrassmannPoint(q @ ub[:, :r])


def svd_policy(f_val: float, tau1: float, tau2: float) -> str:
    """Route the subspace update: exact SVD far from a solution, randomized
    with one power pass in the middle range, plain randomized near it."""
    if f_val > tau2:
        return "exact"
    if f_val > tau1:
        return "rand_power"
    return "rand_plain"


# --------------------------------------------------------------------------
# Armijo backtracking
# --------------------------------------------------------------------------


def armijo(
    f_along: Callable[[float], float],
    f0: float,
    g_dot_d: float,
    first: float | None = None,
) -> tuple[float, float]:
    """(alpha, f(alpha)) for the first step that meets the Armijo condition
    f(alpha) <= f0 + beta alpha <g, d>: the trial step first, when given,
    then the largest alpha in {alpha0 tau^i}. Requires a descent direction.

    A step is tried only while the bound f0 + beta alpha <g, d> stays below
    f0 in floating point; once the demanded decrease rounds away, the search
    raises LineSearchError, so an accepted step always lowers f."""
    if g_dot_d >= 0:
        raise ValueError("not a descent direction")
    if first is not None:
        bound = f0 + ARMIJO_BETA * first * g_dot_d
        if bound < f0:
            f_first = f_along(first)
            if f_first <= bound:
                return first, f_first
    alpha = ARMIJO_ALPHA0
    for _ in range(ARMIJO_MAX_BACKTRACKS + 1):
        bound = f0 + ARMIJO_BETA * alpha * g_dot_d
        if not bound < f0:
            raise LineSearchError(f"the Armijo decrease at alpha={alpha:.3g} rounds away (f0={f0:.6g})")
        f_alpha = f_along(alpha)
        if f_alpha <= bound:
            return alpha, f_alpha
        alpha *= ARMIJO_TAU
    raise LineSearchError(
        f"no Armijo step after {ARMIJO_MAX_BACKTRACKS} backtracks (f0={f0:.6g})"
    )


def quartic_minimizer(c1: float, c2: float, c3: float, c4: float) -> float | None:
    """Global minimizer over alpha > 0 of c1 a + c2 a^2 + c3 a^3 + c4 a^4 for
    c1 < 0, from the closed-form real roots of its derivative. Only a quartic
    (c4 > 0) or a convex quadratic (c4 = c3 = 0 < c2) is solved; None
    otherwise, when no positive finite root comes out, and when the cubic's
    closed form overflows (c4 tiny next to c3 or c2), so that Armijo
    backtracks from alpha0."""
    if c4 > 0:
        try:
            roots = _cubic_roots(3.0 * c3 / (4.0 * c4), c2 / (2.0 * c4), c1 / (4.0 * c4))
        except OverflowError:
            return None
    elif c4 == 0 and c3 == 0 and c2 > 0:
        roots = (-c1 / (2.0 * c2),)
    else:
        return None

    # the root of least value, the first one on a tie
    best, best_value = None, None
    for a in roots:
        if 0 < a < math.inf:
            value = line_quartic(a, c1, c2, c3, c4)
            if best is None or value < best_value:
                best, best_value = a, value
    return best


def line_quartic(a: float, c1: float, c2: float, c3: float, c4: float) -> float:
    """c1 a + c2 a^2 + c3 a^3 + c4 a^4 by Horner's rule: the change of a cost
    along a line whose coefficients are known."""
    return a * (c1 + a * (c2 + a * (c3 + a * c4)))


def _cubic_roots(b: float, c: float, d: float) -> list[float]:
    """Real roots of x^3 + b x^2 + c x + d by the trigonometric or Cardano
    form, each polished by Newton steps while they shrink the residual."""
    q = (b * b - 3.0 * c) / 9.0
    r = (2.0 * b**3 - 9.0 * b * c + 27.0 * d) / 54.0
    if r * r < q**3:  # three real roots
        theta = math.acos(r / math.sqrt(q**3))
        roots = [-2.0 * math.sqrt(q) * math.cos((theta + 2.0 * math.pi * i) / 3.0) - b / 3.0
                 for i in range(3)]
    else:
        big = -math.copysign(math.cbrt(abs(r) + math.sqrt(r * r - q**3)), r)
        roots = [big + (q / big if big != 0.0 else 0.0) - b / 3.0]

    polished = []
    for x in roots:
        res = ((x + b) * x + c) * x + d
        for _ in range(3):
            slope = (3.0 * x + 2.0 * b) * x + c
            if slope == 0.0:
                break
            x_new = x - res / slope
            res_new = ((x_new + b) * x_new + c) * x_new + d
            if not abs(res_new) < abs(res):
                break
            x, res = x_new, res_new
        polished.append(x)
    return polished


# --------------------------------------------------------------------------
# generic Riemannian problem interface + truncated CG
# --------------------------------------------------------------------------


@dataclass
class RiemannianProblem:
    """Minimal interface the trust-region loop needs. Tangent vectors must
    support +, -, unary - and scalar *. hess_at(point) returns the Hessian as
    an operator with point-dependent data precomputed; precon_at(point), when
    given, returns a symmetric positive definite approximation of its inverse
    on the tangent space, which preconditions truncated CG (None: the
    identity). energy(point), when given, is the scale of the cost's
    roundoff at the point, which the trust region's rho allows for (None:
    no allowance)."""

    cost: Callable
    grad: Callable
    hess_at: Callable  # point -> (tangent -> tangent)
    retract: Callable
    inner: Callable  # (tangent, tangent) -> float
    dim: int
    # (point, rng) -> tangent; only the second-order stop (finite eps_h) reads it
    rand_tangent: Callable | None = None
    precon_at: Callable | None = None  # point -> (tangent -> tangent)
    energy: Callable | None = None  # point -> float

    def norm(self, xi) -> float:
        return math.sqrt(max(self.inner(xi, xi), 0.0))


def product_problem(obj: Objective) -> RiemannianProblem:
    dim = obj.x_dim() + (obj.grassmann_ambient() - obj.rank_r) * obj.rank_r
    return RiemannianProblem(
        cost=obj.cost,
        grad=obj.rgrad,
        hess_at=obj.rhess_operator,
        retract=product_retract,
        inner=product_inner,
        rand_tangent=obj.random_tangent,
        precon_at=obj.rprecon_operator,
        energy=lambda z: obj.energy(z.x),
        dim=max(dim, 1),
    )


def x_factor_problem(obj: Objective, u: GrassmannPoint) -> RiemannianProblem:
    """The X-subproblem with the subspace frozen, as a Riemannian problem on
    the affine factor alone (tangent vectors are plain matrices). Both inner
    solvers of alternating minimization read it."""
    return RiemannianProblem(
        cost=lambda x: obj.cost(ProductPoint(x, u)),
        grad=lambda x: obj.rgrad_x(ProductPoint(x, u)),
        hess_at=lambda x: obj.rhess_x_operator(ProductPoint(x, u)),
        retract=lambda x, dx: x + dx,
        inner=lambda a, b: float(np.vdot(a, b)),
        energy=obj.energy,
        dim=max(obj.x_dim(), 1),
    )


def tcg_subproblem(
    grad,
    hess_op: Callable,
    delta: float,
    cfg: TcgConfig,
    inner: Callable,
    dim: int,
    path: dict | None = None,
    eps_g: float = 0.0,
    precon: Callable | None = None,
) -> tuple[object, bool, int]:
    """Preconditioned Steihaug-Toint truncated CG for the trust-region
    subproblem (Absil, Baker & Gallivan 2007).

    Returns (step, hit_boundary, iterations). precon is a symmetric positive
    definite approximation of the inverse Hessian (None: the identity), and
    the trust region ||eta||_M <= delta is measured in the norm of its
    inverse M; <eta, eta>_M, <eta, d>_M and <d, d>_M come from the standard
    recurrences, with no product by M. Starts at zero, so the model decrease
    is at least the Cauchy decrease; exits on the boundary, on negative
    curvature (followed to the boundary), or once the unpreconditioned
    residual is at most max(||g|| min(kappa, ||g||^theta), kappa eps_g).
    eps_g is the outer loop's gradient tolerance: a residual below kappa
    eps_g buys nothing the outer test can see, so the floor binds only once
    ||g||^2 < kappa eps_g (for theta = 1), near the end of a solve; eps_g = 0
    keeps the pure kappa/theta rule.

    The iterates do not depend on the radius, only the exit test does, and a
    smaller radius exits no later. So when path is a dict, it is filled, for
    delta itself and every radius delta/4, delta/16, ... down to STALL_RADIUS
    (the radii a trust region retries with after rejected steps), with the
    record a run with that radius exits at; `tcg_replay(path[radius], radius)`
    then equals this function called with that radius, bit for bit, without
    a Hessian product. delta and every radius that exits inside get the
    resolved record (step, r = g + H step, hit_boundary, iterations), which
    the returned triple reads; a smaller radius that a boundary or
    negative-curvature exit has still to reach keeps the state
    (eta, r, d, H d, <eta, eta>_M, <eta, d>_M, <d, d>_M, iterations) for
    `tcg_replay` to resolve. The records hold the loop's own tangents.
    """
    if delta <= 0:
        raise ValueError("trust radius must be positive")
    path = {} if path is None else path
    pending = []  # smaller radii still to record, largest first
    radius = delta / 4.0
    while radius >= STALL_RADIUS:
        pending.append(radius)
        radius /= 4.0

    def finish(state):
        for radius in pending:
            path[radius] = state
        path[delta] = tcg_replay(state, delta)
        step, _, hit_boundary, iters = path[delta]
        return step, hit_boundary, iters

    eta = 0.0 * grad
    r = grad
    r_sq = inner(r, r)
    g_norm = math.sqrt(r_sq)
    if g_norm == 0.0:
        return finish((eta, r, False, 0))
    tol = max(g_norm * min(TCG_KAPPA, g_norm**TCG_THETA), TCG_KAPPA * eps_g)
    max_inner = cfg.max_inner if cfg.max_inner is not None else dim
    z = r if precon is None else precon(r)
    r_z = r_sq if z is r else inner(r, z)
    d = -z
    # <eta, eta>_M, <eta, d>_M and <d, d>_M
    eta_sq, eta_d, d_sq = 0.0, 0.0, r_z

    for i in range(max_inner):
        hd = hess_op(d)
        dhd = inner(d, hd)
        if not math.isfinite(dhd):
            raise NumericalError("non-finite curvature in the subproblem")
        if dhd <= 0:
            return finish((eta, r, d, hd, eta_sq, eta_d, d_sq, i + 1))
        alpha = r_z / dhd
        eta_sq_next = eta_sq + 2.0 * alpha * eta_d + alpha**2 * d_sq
        # the smallest pending radius is crossed first
        while pending and eta_sq_next >= pending[-1] ** 2:
            path[pending.pop()] = (eta, r, d, hd, eta_sq, eta_d, d_sq, i + 1)
        if eta_sq_next >= delta**2:
            return finish((eta, r, d, hd, eta_sq, eta_d, d_sq, i + 1))
        eta = eta + alpha * d
        eta_sq = eta_sq_next
        r = r + alpha * hd
        r_sq = inner(r, r)
        if math.sqrt(r_sq) <= tol:
            return finish((eta, r, False, i + 1))
        z = r if precon is None else precon(r)
        r_z_next = r_sq if z is r else inner(r, z)
        beta = r_z_next / r_z
        d = beta * d - z
        eta_d = beta * (eta_d + alpha * d_sq)
        d_sq = r_z_next + beta**2 * d_sq
        r_z = r_z_next
    return finish((eta, r, False, max_inner))


def tcg_replay(record: tuple, delta: float) -> tuple[object, object, bool, int]:
    """(step, r, hit_boundary, iterations) of a truncated-CG run with radius
    delta, where r = g + H step is the CG residual at the step, from its
    record: a resolved record is that tuple itself, and a state
    (eta, r, d, H d, <eta, eta>_M, <eta, d>_M, <d, d>_M, iterations) follows
    d to the boundary ||eta + tau d||_M = delta, with the residual
    r + tau H d. The model value of the step is then
    m(step) = <g, step> + 1/2 <step, H step> = 1/2 (<g, step> + <r, step>)."""
    if len(record) == 4:
        return record
    eta, r, d, hd, eta_sq, eta_d, d_sq, iters = record
    # the positive root of the quadratic in tau
    disc = eta_d**2 + d_sq * (delta**2 - eta_sq)
    tau = (-eta_d + math.sqrt(max(disc, 0.0))) / d_sq
    return eta + tau * d, r + tau * hd, True, iters


def _min_eig_estimate(prob: RiemannianProblem, z, rng: np.random.Generator) -> tuple[float, object, int]:
    """Lanczos estimate of the smallest Hessian eigenvalue on the tangent
    space at z, with the corresponding Ritz direction and the number of
    Hessian products it took."""
    v = prob.rand_tangent(z, rng)
    nrm = prob.norm(v)
    if nrm == 0.0:
        return 0.0, v, 0
    v = (1.0 / nrm) * v
    basis = [v]
    alphas, betas = [], []
    v_prev = None
    hop = prob.hess_at(z)
    for _ in range(min(LANCZOS_ITERS, prob.dim)):
        w = hop(basis[-1])
        a = prob.inner(basis[-1], w)
        alphas.append(a)
        w = w - a * basis[-1]
        if v_prev is not None:
            w = w - betas[-1] * v_prev
        # full re-orthogonalization for numerical robustness at small dims
        for u in basis:
            w = w - prob.inner(w, u) * u
        b = prob.norm(w)
        if b < 1e-12:
            break
        betas.append(b)
        v_prev = basis[-1]
        basis.append((1.0 / b) * w)
    t = np.diag(alphas)
    for i, b in enumerate(betas[: len(alphas) - 1]):
        t[i, i + 1] = t[i + 1, i] = b
    evals, evecs = np.linalg.eigh(t)
    lam = float(evals[0])
    coeffs = evecs[:, 0]
    direction = coeffs[0] * basis[0]
    for c, u in zip(coeffs[1:], basis[1 : len(coeffs)]):
        direction = direction + c * u
    return lam, direction, len(alphas)


# --------------------------------------------------------------------------
# Riemannian trust region
# --------------------------------------------------------------------------


def rtr_generic(
    prob: RiemannianProblem,
    z0,
    cfg: RtrConfig,
    rmse_of=None,
    gnorm_parts=None,
    on_iterate=None,
    grad0=None,
) -> tuple[object, SolveTrace]:
    """Trust-region loop on an arbitrary Riemannian problem.

    rmse_of(z) optionally records an error-to-truth column; gnorm_parts(g)
    splits the gradient norm into (x, u) components for the trace; on_iterate
    is called with every iterate (for invariant monitoring); grad0, when
    given, is the gradient at z0, which a caller that computed it hands over
    instead of having it computed again. Each pass of the loop records the
    current point and only then tests the stops (stalled, max_iter, then the
    gradient), so the last record is at the returned point and its k is the
    number of iterations taken.

    A rejected step leaves z unchanged and divides the radius by 4, so the
    gradient, the model operator, the preconditioner and the truncated-CG
    path are kept until a step is accepted. Every step reads (step,
    r = g + H step) from one record through `tcg_replay`: the one tCG solved,
    the path's record of a smaller radius after a rejection (see
    `tcg_subproblem`), or, for the negative-curvature step of the
    second-order stop, one built with one product after its Lanczos
    products. rho reads every model decrease as -1/2 (<g, step> + <r, step>),
    so the trace's hess_calls is one per tCG iteration of a solved step and
    0 for a replayed one. The model operator and, for the second-order model,
    the preconditioner (`prob.precon_at`) are built at the first step from a
    point, so none is built where the solve stops. The radius, DELTA0 and
    the cap 2 sqrt(dim) are measured in the preconditioner's norm; the
    trace's step is the Euclidean norm of the step, and the negative-curvature
    step of the second-order stop is scaled to Euclidean length delta.

    rho = (actual + e) / (model + e), with e = RHO_ROUNDOFF E and E
    `prob.energy` at the current point (e = 0 without it), read again at
    each accepted point: the cost's roundoff scales with E (trace(K) for a
    kernel), not with |f|, so a step whose decreases both sit at roundoff
    reads rho near 1 and is accepted, and one that raises f beyond it is
    rejected. A model decrease at or below -e, which no tCG step gives
    outside roundoff, reads rho = -inf, so rho is never NaN.
    """
    delta_bar = 2.0 * math.sqrt(prob.dim)
    rng = np.random.default_rng(2**32 - 1)
    z = z0
    delta = DELTA0
    trace = SolveTrace()
    f_val = prob.cost(z)
    if not math.isfinite(f_val):
        raise NumericalError("cost is not finite at the initial point")

    new_point = True
    for k in range(cfg.max_iter + 1):
        if on_iterate is not None:
            on_iterate(z)
        if new_point:
            g = prob.grad(z) if k > 0 or grad0 is None else grad0
            gnorm = prob.norm(g)
            if not math.isfinite(gnorm):
                raise NumericalError(f"gradient is not finite at iteration {k} (norm {gnorm})")
            gx, gu = gnorm_parts(g) if gnorm_parts is not None else (gnorm, 0.0)
            err = rmse_of(z) if rmse_of is not None else None
            hop, precon, path = None, None, {}
            allowance = 0.0 if prob.energy is None else RHO_ROUNDOFF * prob.energy(z)
            new_point = False
        rec = TraceRecord(k=k, f=f_val, gnorm_x=gx, gnorm_u=gu, delta=delta, rmse=err)
        trace.append(rec)
        if delta < STALL_RADIUS:
            trace.status = "stalled"
            return z, trace
        if k == cfg.max_iter:
            return z, trace  # status max_iter
        if gnorm <= cfg.eps_g:
            if not math.isfinite(cfg.eps_h):
                trace.status = "grad_tol"
                return z, trace
            lam_min, direction, n_hess = _min_eig_estimate(prob, z, rng)
            if lam_min >= -cfg.eps_h:
                rec.hess_calls = n_hess
                trace.status = "grad_tol"
                return z, trace

        if hop is None:  # the first step from z builds the model operator and its preconditioner
            if cfg.use_hessian:
                hop = prob.hess_at(z)
                precon = prob.precon_at(z) if prob.precon_at is not None else None
            else:
                hop = lambda v: v
        if gnorm <= cfg.eps_g:
            # negative-curvature step to the boundary, oriented downhill; its
            # residual takes the one product of a step tCG did not take
            direction = (delta / prob.norm(direction)) * direction
            if prob.inner(g, direction) > 0:
                direction = -direction
            record = (direction, g + hop(direction), True, 0)
            n_hess += 1
        else:
            n_hess = 0  # a replayed step applies no product
            if delta not in path:
                n_hess = tcg_subproblem(g, hop, delta, TcgConfig(), prob.inner, prob.dim, path=path,
                                        eps_g=cfg.eps_g, precon=precon)[2]
            record = path[delta]
        eta, r, on_boundary, n_inner = tcg_replay(record, delta)
        model_decrease = -0.5 * (prob.inner(g, eta) + prob.inner(r, eta))

        z_plus = prob.retract(z, eta)
        f_plus = prob.cost(z_plus)
        if not math.isfinite(f_plus):
            raise NumericalError("cost became non-finite at a trial point")
        actual = f_val - f_plus
        denom = model_decrease + allowance
        rho = (actual + allowance) / denom if denom > 0.0 else -math.inf

        if rho < 0.25:
            delta = delta / 4.0
        elif rho > 0.75 and on_boundary:
            delta = min(2.0 * delta, delta_bar)
        if rho > cfg.rho_prime:
            z = z_plus
            f_val = f_plus
            new_point = True
        rec.step = prob.norm(eta)
        rec.rho = rho
        rec.inner_iters = n_inner
        rec.hess_calls = n_hess


def rtr_solve(
    obj: Objective,
    z0: ProductPoint,
    cfg: RtrConfig | None = None,
    truth: np.ndarray | None = None,
    on_iterate=None,
) -> tuple[ProductPoint, SolveTrace]:
    """Riemannian trust region on the full product manifold."""
    cfg = cfg or RtrConfig()
    prob = product_problem(obj)
    rmse_of = None if truth is None else (lambda z: rmse(z.x, truth))
    gnorm_parts = lambda g: (float(np.linalg.norm(g.dx)), float(np.linalg.norm(g.du)))
    return rtr_generic(
        prob, z0, cfg, rmse_of=rmse_of, gnorm_parts=gnorm_parts, on_iterate=on_iterate
    )


# --------------------------------------------------------------------------
# alternating minimization
# --------------------------------------------------------------------------


def fit_subspace(obj: Objective, x_mat: np.ndarray) -> ProductPoint:
    """X with the subspace that minimizes the cost for it: the leading-r left
    singular subspace of its lifting. The lift is made through `Objective.lift`,
    so a solve that starts at the returned point reads it again."""
    return ProductPoint(x_mat, truncated_svd(obj.lift(x_mat).lifted, obj.rank_r))


def default_init(obj: Objective) -> ProductPoint:
    """Feasible X0 (observed entries / min-norm solution) plus the leading-r
    subspace of its lifting."""
    return fit_subspace(obj, meas_feasible_point(obj.measurement))


def random_init(obj: Objective, rng: np.random.Generator) -> ProductPoint:
    """Feasible X0 perturbed by a random null-space component of size
    PERTURB_SCALE, with the subspace re-fit by a truncated SVD."""
    x0 = meas_feasible_point(obj.measurement)
    noise = meas_project(obj.measurement, rng.standard_normal(x0.shape))
    return fit_subspace(obj, x0 + PERTURB_SCALE * noise)


def rtr_solve_restarts(
    obj: Objective,
    cfg: RtrConfig | None = None,
    rng: np.random.Generator | None = None,
    n_starts: int = 3,
    truth: np.ndarray | None = None,
) -> tuple[ProductPoint, SolveTrace]:
    """Trust-region solves from the measured init plus perturbed restarts,
    keeping the lowest final cost; stops early once the cost is essentially
    zero against the lifted energy of the measured start. Restarts only help
    against bad basins of the nonconvex landscape."""
    cfg = cfg or RtrConfig()
    rng = np.random.default_rng(0) if rng is None else rng
    best = None
    for i in range(max(n_starts, 1)):
        z0 = default_init(obj) if i == 0 else random_init(obj, rng)
        if i == 0:  # the lift that default_init kept
            scale = max(obj.lifting.energy(obj.lift(z0.x).lifted), 1.0)
        z, trace = rtr_solve(obj, z0, cfg, truth=truth)
        f_val = trace.final.f
        if best is None or f_val < best[0]:
            best = (f_val, z, trace)
        if f_val <= 1e-12 * scale:
            break
    return best[1], best[2]


def _subspace_update(
    obj: Objective,
    lifted: np.ndarray,
    f_val: float,
    f_scale: float,
    exact: bool,
    rng: np.random.Generator,
) -> tuple[GrassmannPoint, str]:
    """The new subspace from the lifted matrix of the current X, and the SVD
    mode that computed it."""
    mode = "exact" if exact else svd_policy(f_val / f_scale, SVD_TAU1, SVD_TAU2)
    if mode == "exact":
        return truncated_svd(lifted, obj.rank_r), mode
    power_q = SVD_POWER_Q if mode == "rand_power" else 0
    u_new = randomized_svd(lifted, obj.rank_r, SVD_OVERSAMPLE, power_q, rng)
    # the exact SVD never increases f; guard the randomized shortcut so the
    # monotonicity of the outer loop is preserved
    if obj.lifting.residual(lifted, u_new.basis) > f_val + 1e-12 * (1.0 + abs(f_val)):
        return truncated_svd(lifted, obj.rank_r), "exact"
    return u_new, mode


def altmin_solve(
    obj: Objective,
    z0: ProductPoint,
    cfg: AltminConfig | None = None,
    rng: np.random.Generator | None = None,
    truth: np.ndarray | None = None,
    on_iterate=None,
) -> tuple[ProductPoint, SolveTrace]:
    """Alternating minimization: inexact X-minimization to a scheduled
    tolerance on the round's `x_factor_problem` (Armijo steps, or a trust
    region when cfg.inner is "trust_region"), then a truncated-SVD subspace
    update, skipped while the subspace gradient passes eps_u and routed by
    the SVD policy (exact in every round when cfg.exact_svd). The Armijo
    steps go along d = -g, except after a step that took the exact line
    minimizer: then d = -g + beta d_prev with the Polak-Ribiere+ beta =
    max(0, <g, g - g_prev> / ||g_prev||^2), kept only while <g, d> < 0. So
    the first step of a round, which the trace's `step` and the descent
    bound read, is a steepest-descent step. Where `Objective.line_coefficients`
    gives finite (c2, c3, c4), the Armijo trials read the cost along the
    line as f + `line_quartic`(alpha, <g, d>, c2, c3, c4) and lift nothing;
    only the accepted point is lifted. Otherwise each trial's cost is
    evaluated, which lifts it. Each record's f is the cost evaluated at its
    point, and the last record of the trace is at the returned point."""
    if not obj.constrained:
        raise ValueError("alternating minimization requires the constrained formulation")
    cfg = cfg or AltminConfig()
    rng = np.random.default_rng(0) if rng is None else rng
    trace = SolveTrace()
    x, u = z0.x, z0.u
    # the SVD-policy thresholds compare f after normalizing by the lifted
    # energy at the initial point
    f_scale = max(obj.lifting.energy(obj.lift(z0.x).lifted), 1e-30)

    f_prev = math.inf
    no_progress = 0
    for k in range(cfg.max_outer + 1):
        z = ProductPoint(x, u)
        if on_iterate is not None:
            on_iterate(z)
        g = obj.rgrad(z)
        f_val = obj.cost(z)
        rec = TraceRecord(k=k, f=f_val, gnorm_x=float(np.linalg.norm(g.dx)),
                          gnorm_u=float(np.linalg.norm(g.du)),
                          rmse=None if truth is None else rmse(x, truth))
        if not all(map(math.isfinite, (f_val, rec.gnorm_x, rec.gnorm_u))):
            raise NumericalError(f"non-finite cost or gradient at round {k}: f={f_val}, "
                                 f"||grad_X||={rec.gnorm_x}, ||grad_U||={rec.gnorm_u}")
        if k == cfg.max_outer:
            trace.append(rec)
            return z, trace  # status max_iter
        if rec.gnorm_x <= cfg.eps_x and rec.gnorm_u <= cfg.eps_u:
            trace.append(rec)
            trace.status = "grad_tol"
            return z, trace
        # descent below working precision over several whole outer rounds:
        # the alternation has stalled numerically (its only stall exit; a
        # failed Armijo search only ends the round's inner loop)
        if f_prev - f_val <= 1e-15 * (1.0 + abs(f_prev)):
            no_progress += 1
            if no_progress >= 3:
                trace.append(rec)
                trace.status = "stalled"
                return z, trace
        else:
            no_progress = 0
        f_prev = f_val

        eps_xk = cfg.eps_x if cfg.schedule == "greedy" else max(cfg.eps_x, ADAPTIVE_THETA * rec.gnorm_x)

        # after the inner solve, f_val holds the cost at the new X with the
        # old basis; both inner solvers read one X-subproblem
        prob = x_factor_problem(obj, u)
        if cfg.inner == "trust_region":
            sub_cfg = RtrConfig(eps_g=eps_xk, max_iter=cfg.max_inner)
            x, sub_trace = rtr_generic(prob, x, sub_cfg, grad0=g.dx)
            n_inner = sub_trace.final.k
            n_hess = sum(n or 0 for n in sub_trace.column("hess_calls"))
            # the norm of the first accepted inner step
            step = next((r.step for r in sub_trace.records
                         if r.rho is not None and r.rho > sub_cfg.rho_prime), None)
            f_val = sub_trace.final.f
        else:
            # each point is lifted once (`Objective.lift`): the point Armijo
            # accepts is the next iterate, and its lifted point gives the
            # gradient there, the next step's line coefficients and the
            # subspace update; P_perp is built once, at u. Where the line
            # coefficients are known, the trials read the cost from them
            # and only the accepted point is lifted
            n_inner = 0
            n_hess = None
            step = None  # first inner step size, the one the descent bound uses
            z_k, gx = z, g.dx  # the accepted point and its X gradient
            point = obj.lift(x)  # and its lifted point, which an evaluated trial displaces
            conj = None  # (d, g, ||g||^2) of the last step, when it was the exact line step
            while n_inner < cfg.max_inner:
                # one inner product gives the stop test ||g|| > eps_xk and
                # the slope <g, d> = -||g||^2 along d = -g
                g_sq = float(np.vdot(gx, gx))
                if not math.sqrt(g_sq) > eps_xk:
                    break
                d = -gx
                g_dot_d = -g_sq
                if conj is not None:
                    # Polak-Ribiere+ after an exact line step: beta <= 0
                    # keeps d = -g; both gradients are projected, so d
                    # stays in null(A)
                    d_prev, g_prev, g_prev_sq = conj
                    beta = (g_sq - float(np.vdot(gx, g_prev))) / g_prev_sq
                    if beta > 0.0:
                        d_pr = d + beta * d_prev
                        slope = float(np.vdot(gx, d_pr))
                        if slope < 0.0:
                            d, g_dot_d = d_pr, slope
                coeffs = obj.line_coefficients(z_k, d)
                trial = []  # the last point an evaluated trial lifted
                if coeffs is not None and all(map(math.isfinite, coeffs)):
                    # the cost along the line is f + <g, d> a + c2 a^2 +
                    # c3 a^3 + c4 a^4: trials read it and lift nothing
                    first = quartic_minimizer(g_dot_d, *coeffs)

                    def f_along(a, f0=f_val, coeffs=coeffs, g_dot_d=g_dot_d):
                        return f0 + line_quartic(a, g_dot_d, *coeffs)
                else:
                    first = None

                    def f_along(a, x=x, d=d):
                        trial[:] = [x + a * d]
                        return prob.cost(trial[0])

                try:
                    alpha, f_val = armijo(f_along, f_val, g_dot_d, first=first)
                except LineSearchError:
                    # no step passes the Armijo test at working precision:
                    # the round goes on to the subspace update, at the X
                    # whose lifted point an evaluated trial may have displaced
                    obj.keep_lift(x, point)
                    break
                if step is None:
                    step = alpha
                # alpha equals the exact step only when Armijo accepted it:
                # a backtracked alpha equal to it fails the same test again
                conj = (d, gx, g_sq) if alpha == first else None
                # an evaluated search accepts the last trial it lifted, which
                # `Objective.lift` keeps; the quartic's accepted point is
                # lifted here, once
                z_k = ProductPoint(trial[0] if trial else x + alpha * d, u)
                x = z_k.x
                point = obj.lift(x)
                n_inner += 1
                if n_inner < cfg.max_inner:  # at the cap nothing reads the gradient
                    gx = obj.rgrad_x(z_k)
        gu = obj.rgrad_u(ProductPoint(x, u)) if x is not z.x else g.du

        rec.step = step
        rec.inner_iters = n_inner
        rec.hess_calls = n_hess
        if float(np.linalg.norm(gu)) <= cfg.eps_u:
            rec.svd_mode = "skip"
        else:
            u, rec.svd_mode = _subspace_update(obj, obj.lift(x).lifted, f_val, f_scale,
                                               cfg.exact_svd, rng)
        trace.append(rec)
