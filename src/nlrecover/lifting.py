"""Feature maps and kernels used to lift structured data to a low-rank space.

Supported liftings: explicit monomial features of degree <= d, the monomial
kernel (X^T Y + c)^(.d), and the Gaussian kernel. Each has an analytic
Euclidean gradient of its residual cost (trace(P_{W_perp} K(X, X)) for the
kernels, ||Phi(X) - U U^T Phi(X)||_F^2 for the features) and a closed-form
Euclidean Hessian operator on (dx, dw), built once per point. Each operator
returns the pair (h_x, h_w), or h_x alone when dw is omitted, which is the X
block at dw = 0 without computing the subspace block.

`LiftingSpec.lift(X)` is the one place a point is lifted: a `LiftedPoint`,
the lifted matrix and, for the monomial kernel, the Gram X^T X + c it is a
power of. `LiftingSpec.residual` reads that point's lifted matrix and a
basis; `LiftingSpec.at(basis)` builds P_{W_perp} once per basis and reads the
point for both gradient blocks, the Hessian operator and the coefficients of
the residual along a line X + alpha D. For the monomial kernel of degree 1
or 2 that residual is a polynomial in alpha whose coefficients come in
closed form from the Gram, X^T D and D^T D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, NamedTuple

import numpy as np

from .manifold import DimensionError

MAX_EXPLICIT_FEATURES = 20000


class FeatureSizeError(ValueError):
    """Explicit feature matrix would exceed the configured size cap."""


def count_monomials(n: int, d: int) -> int:
    """Number of monomials in n variables of total degree <= d: C(n + d, n)."""
    if n < 1 or d < 0:
        raise ValueError(f"need n >= 1 and d >= 0, got n={n}, d={d}")
    return math.comb(n + d, n)


def _exponents_of_degree(n: int, t: int) -> list[tuple[int, ...]]:
    if n == 1:
        return [(t,)]
    out = []
    for first in range(t, -1, -1):
        for rest in _exponents_of_degree(n - 1, t - first):
            out.append((first,) + rest)
    return out


@lru_cache(maxsize=64)
def multi_index_table(n: int, d: int) -> np.ndarray:
    """The (N, n) int array of all exponent vectors alpha with |alpha| <= d,
    in graded lexicographic order (total degree ascending, lexicographically
    descending within a degree, so for n=2, d=2: 1, x1, x2, x1^2, x1*x2, x2^2)."""
    rows: list[tuple[int, ...]] = []
    for t in range(d + 1):
        rows.extend(_exponents_of_degree(n, t))
    exps = np.array(rows, dtype=int)
    assert exps.shape[0] == count_monomials(n, d)
    exps.setflags(write=False)  # shared by every caller through the cache
    return exps


@lru_cache(maxsize=64)
def _derivative_index(n: int, d: int):
    """For each variable j, the triples (row, coeff, lowered row) with
    alpha_j > 0 and lowered = index of alpha - e_j in the same table."""
    table = multi_index_table(n, d)
    lookup = {tuple(row): i for i, row in enumerate(table)}
    per_var = []
    for j in range(n):
        rows, coeffs, lowers = [], [], []
        for a, alpha in enumerate(table):
            if alpha[j] > 0:
                lowered = alpha.copy()
                lowered[j] -= 1
                rows.append(a)
                coeffs.append(alpha[j])
                lowers.append(lookup[tuple(lowered)])
        per_var.append(
            (np.array(rows, dtype=int), np.array(coeffs, dtype=float), np.array(lowers, dtype=int))
        )
    return per_var


def monomial_features(x_mat: np.ndarray, d: int) -> np.ndarray:
    """Explicit monomial feature matrix: column j lists all x_j^alpha with
    |alpha| <= d, coefficient 1, in multi-index table order."""
    x_mat = np.atleast_2d(np.asarray(x_mat, dtype=float))
    if d < 1:
        raise ValueError("degree must be >= 1")
    n, s = x_mat.shape
    n_feat = count_monomials(n, d)
    if n_feat > MAX_EXPLICIT_FEATURES:
        raise FeatureSizeError(f"N(n={n}, d={d}) = {n_feat} exceeds cap {MAX_EXPLICIT_FEATURES}")
    out = np.empty((n_feat, s))
    # powers[j][e] = x_j ** e, computed once per variable
    powers = [np.vander(x_mat[j], N=d + 1, increasing=True).T for j in range(n)]
    for a, alpha in enumerate(multi_index_table(n, d)):
        row = np.ones(s)
        for j in range(n):
            e = alpha[j]
            if e:
                row = row * powers[j][e]
        out[a] = row
    return out


def monomial_features_vjp(x_mat: np.ndarray, d: int, r_mat: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Columnwise vector-Jacobian product of the monomial feature map at X,
    whose features are phi = Phi_d(X):
    out[j, i] = sum_a r_mat[a, i] * d(x_i^alpha_a)/d(x_i)_j."""
    x_mat = np.atleast_2d(np.asarray(x_mat, dtype=float))
    if r_mat.shape != phi.shape:
        raise DimensionError(f"weight matrix must have shape {phi.shape}")
    return _features_contract(x_mat.shape[0], d, r_mat, phi)


def _features_contract(n: int, d: int, r_mat: np.ndarray, lowered: np.ndarray) -> np.ndarray:
    """out[j, i] = sum_a r_mat[a, i] alpha_a[j] lowered[index of alpha_a - e_j, i].
    With lowered = Phi(X) this is the VJP of the feature map; with its JVP in
    place of Phi it is the second-order term of the feature Hessian."""
    out = np.zeros((n, r_mat.shape[1]))
    for j, (rows, coeffs, lowers) in enumerate(_derivative_index(n, d)):
        if rows.size:
            out[j] = np.einsum("a,as,as->s", coeffs, r_mat[rows], lowered[lowers])
    return out


def _features_jvp(phi: np.ndarray, d: int, dx: np.ndarray) -> np.ndarray:
    """Columnwise Jacobian-vector product of the monomial feature map at the
    point whose features are phi: out[a, i] = sum_j alpha_a[j] phi[index of
    alpha_a - e_j, i] dx[j, i]."""
    n = dx.shape[0]
    out = np.zeros_like(phi)
    for j, (rows, coeffs, lowers) in enumerate(_derivative_index(n, d)):
        if rows.size:
            out[rows] += coeffs[:, None] * phi[lowers] * dx[j]
    return out


def monomial_features_hess_operator(x_mat: np.ndarray, u: np.ndarray, d: int, phi: np.ndarray):
    """Euclidean Hessian of ||Phi||_F^2 - ||U^T Phi||_F^2, Phi = Phi_d(X), at
    (X, U) as an operator on (dx, du), from phi = Phi_d(X). With Psi the
    feature JVP along dx and R = 2 (Phi - U U^T Phi):
    h_x = VJP(2 (Psi - U U^T Psi) - 2 (du U^T + U du^T) Phi) + (R contracted
    with Psi in place of Phi), h_u = -2 (Psi Phi^T + Phi Psi^T) U - 2 Phi Phi^T du."""
    n = np.atleast_2d(x_mat).shape[0]
    ut_phi = u.T @ phi
    resid = 2.0 * (phi - u @ ut_phi)

    def apply(dx: np.ndarray, du: np.ndarray | None = None):
        psi = _features_jvp(phi, d, dx)
        d_resid = 2.0 * (psi - u @ (u.T @ psi))
        if du is not None:
            d_resid = d_resid - 2.0 * (du @ ut_phi + u @ (du.T @ phi))
        h_x = _features_contract(n, d, d_resid, phi) + _features_contract(n, d, resid, psi)
        if du is None:
            return h_x
        h_u = -2.0 * (psi @ ut_phi.T + phi @ (psi.T @ u) + phi @ (phi.T @ du))
        return h_x, h_u

    return apply


def monomial_features_hess_diag_x(x_mat: np.ndarray, u: np.ndarray, d: int, phi: np.ndarray) -> np.ndarray:
    """Diagonal of the X block of `monomial_features_hess_operator` from
    phi = Phi_d(X): with J_j the feature JVP along the j-th coordinate of
    every column and R = 2 (Phi - U U^T Phi), entry (j, i) is
    2 ||(I - U U^T) J_j[:, i]||^2 + sum_a R[a, i] alpha_a[j] J_j[index of alpha_a - e_j, i],
    the Gauss-Newton part plus the second derivative of the features."""
    n, s = np.atleast_2d(x_mat).shape
    resid = 2.0 * (phi - u @ (u.T @ phi))
    out = np.empty((n, s))
    for j, (rows, coeffs, lowers) in enumerate(_derivative_index(n, d)):
        jac = np.zeros_like(phi)
        jac[rows] = coeffs[:, None] * phi[lowers]
        proj = jac - u @ (u.T @ jac)
        out[j] = 2.0 * (proj * proj).sum(axis=0) + np.einsum(
            "a,as,as->s", coeffs, resid[rows], jac[lowers])
    return out


def monomial_kernel(x_mat: np.ndarray, y_mat: np.ndarray, d: int, c: float) -> np.ndarray:
    """(X^T Y + c)^(.d) entrywise; degree 0 gives the all-ones matrix."""
    x_mat = np.atleast_2d(np.asarray(x_mat, dtype=float))
    y_mat = np.atleast_2d(np.asarray(y_mat, dtype=float))
    if x_mat.shape[0] != y_mat.shape[0]:
        raise DimensionError("x and y must share the ambient dimension")
    if d < 0:
        raise ValueError("degree must be >= 0")
    if d == 0:
        return np.ones((x_mat.shape[1], y_mat.shape[1]))
    return (x_mat.T @ y_mat + c) ** d


def _check_sigma(sigma: float) -> None:
    """A ValueError unless sigma > 0 with sigma^2 finite and above 0: the
    Gaussian kernel divides by 2 sigma^2, which must neither overflow nor
    underflow to 0."""
    if not (sigma > 0 and 0.0 < float(sigma) * float(sigma) < math.inf):
        raise ValueError(f"sigma must be positive with sigma^2 finite and above 0, got {sigma!r}")


def gaussian_kernel(x_mat: np.ndarray, y_mat: np.ndarray, sigma: float) -> np.ndarray:
    """Entry (i, j) = exp(-||x_i - y_j||^2 / (2 sigma^2)), the squared
    distance formed as (||x_i||^2 + ||y_j||^2) - 2 <x_i, y_j>. With y_mat
    the same array as x_mat, X^T X is a symmetric rank-k update and the sum
    of norms commutes, so K(X, X) equals its transpose to the bit and its
    subspace fit takes the symmetric eigensolver (`truncated_svd`)."""
    _check_sigma(sigma)
    same = y_mat is x_mat
    x_mat = np.atleast_2d(np.asarray(x_mat, dtype=float))
    y_mat = x_mat if same else np.atleast_2d(np.asarray(y_mat, dtype=float))
    if x_mat.shape[0] != y_mat.shape[0]:
        raise DimensionError("x and y must share the ambient dimension")
    x_sq = (x_mat**2).sum(axis=0)
    y_sq = x_sq if same else (y_mat**2).sum(axis=0)
    # (||x_i||^2 + ||y_j||^2) - 2 <x_i, y_j>, clipped at 0, scaled and
    # exponentiated in the array the GEMM returns; dividing by -2 sigma^2
    # rounds as negating and dividing by 2 sigma^2 does
    sq = x_mat.T @ y_mat
    sq *= 2.0
    np.subtract(np.add.outer(x_sq, y_sq), sq, out=sq)
    np.maximum(sq, 0.0, out=sq)
    sq /= -(2.0 * sigma**2)
    return np.exp(sq, out=sq)


def _w_perp(w: np.ndarray, s: int) -> np.ndarray:
    """I - W W^T, built in the one s x s array its GEMM returns."""
    if w.shape[0] != s:
        raise DimensionError("subspace basis does not match the number of columns")
    p_perp = w @ w.T
    np.negative(p_perp, out=p_perp)
    p_perp.reshape(-1)[:: s + 1] += 1.0  # the diagonal, through a view
    return p_perp


def monomial_grad_x(
    x_mat: np.ndarray, p_perp: np.ndarray, gram: np.ndarray, d: int
) -> np.ndarray:
    """Euclidean gradient in X of trace(P K_d(X, X)) from P = I - W W^T and
    the Gram G = X^T X + c, with K_j = G^(.j): 2 d X (K_{d-1} o P)."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    if d == 1:
        k_lower_perp = p_perp
    else:  # K_1 is the Gram itself
        k_lower_perp = (gram if d == 2 else gram ** (d - 1)) * p_perp
    return 2.0 * d * x_mat @ k_lower_perp


def monomial_hess_operator(x_mat: np.ndarray, w: np.ndarray, d: int, c: float):
    """Euclidean Hessian of trace(P_{W_perp} K_d(X, X)) at (X, W) as an
    operator on (dx, dw). With G = X^T X + c, K_j = G^(.j), P = P_{W_perp},
    S_x = X^T dx + dx^T X and S_w = W dw^T + dw W^T:
    h_x = 2d (dx (K_{d-1} o P) + X ((d-1) K_{d-2} o P o S_x - K_{d-1} o S_w)),
    h_w = -2 (d (K_{d-1} o S_x) W + K_d dw).
    The kernel powers come from one Gram, built once so repeated products
    (e.g. inside a CG loop) stay cheap. Each symmetric sum is one GEMM over
    stacked factors, [X^T | dx^T] [dx; X] and [W | dw] [dw^T; W^T], whose
    fixed blocks are filled here; a product writes only dx and dw into them,
    and does six GEMMs, or three when dw is omitted (one for d = 1)."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    x_mat = np.atleast_2d(np.asarray(x_mat, dtype=float))
    n, s = x_mat.shape
    r = w.shape[1]
    # the Gram turns into K_d in place and P is formed after the powers, so
    # the build holds at most five s x s arrays at once. The factors carry
    # the formulas' powers of two, which scale exactly: k_1 = -2 K_{d-1},
    # k_d = -2 K_d, k_1_perp = k_1 o P and k_2_perp = 2 (d-1) K_{d-2} o P
    gram = x_mat.T @ x_mat
    gram += c
    k_1 = gram ** (d - 1)
    k_2_perp = gram ** (d - 2) if d >= 3 else None
    k_1 *= -2.0
    k_d = np.multiply(gram, k_1, out=gram)
    p_perp = _w_perp(w, s)
    k_1_perp = k_1 * p_perp
    # the weight of S_x in h_x: none for d = 1, and P itself (not read
    # again) for d = 2, where K_0 is all ones
    if d >= 2:
        k_2_perp = p_perp if d == 2 else np.multiply(k_2_perp, p_perp, out=k_2_perp)
        k_2_perp *= 2 * (d - 1)
    # [X; dx; X]: rows :2n are [X; dx], the transpose of [X^T | dx^T]; rows n: are [dx; X]
    stack_x = np.empty((3 * n, s))
    stack_x[:n] = x_mat
    stack_x[2 * n:] = x_mat
    # [W | dw | W]: columns :2r are [W | dw]; columns r: are [dw | W], the transpose of [dw^T; W^T]
    stack_w = np.empty((s, 3 * r))
    stack_w[:, :r] = w
    stack_w[:, 2 * r:] = w

    def apply(dx: np.ndarray, dw: np.ndarray | None = None):
        if dw is None and k_2_perp is None:
            return -(dx @ k_1_perp)
        stack_x[n:2 * n] = dx
        sym_x = stack_x[:2 * n].T @ stack_x[n:]
        if dw is None:
            inner = np.multiply(sym_x, k_2_perp, out=sym_x)
        else:
            stack_w[:, r:2 * r] = dw
            h_w = d * ((k_1 * sym_x) @ w) + k_d @ dw
            # 2 ((d-1) K_{d-2} o P o S_x - K_{d-1} o S_w), in place
            inner = stack_w[:, :2 * r] @ stack_w[:, r:].T
            np.multiply(inner, k_1, out=inner)
            if k_2_perp is not None:
                np.add(np.multiply(sym_x, k_2_perp, out=sym_x), inner, out=inner)
        h_x = d * (x_mat @ inner - dx @ k_1_perp)
        return h_x if dw is None else (h_x, h_w)

    return apply


def gaussian_grad_x(
    x_mat: np.ndarray, p_perp: np.ndarray, sigma: float, k: np.ndarray
) -> np.ndarray:
    """Euclidean gradient in X of trace(P K_G(X, X)) for the Gaussian kernel,
    from P = I - W W^T and k = K_G(X, X):
    -(2 / sigma^2) X (diag(colsum(K o P)) - K o P)."""
    _check_sigma(sigma)
    kp = k * p_perp
    return -(2.0 / sigma**2) * x_mat @ (np.diag(kp.sum(axis=0)) - kp)


def gaussian_hess_operator(
    x_mat: np.ndarray, w: np.ndarray, sigma: float, k: np.ndarray, p_perp: np.ndarray
):
    """Euclidean Hessian of trace(P_{W_perp} K_G(X, X)) at (X, W) as an
    operator on (dx, dw), from k = K_G(X, X) and p_perp = P_{W_perp} = I - W W^T.
    With B = K o P_{W_perp}, C = X^T dx, a = diag(C) and S_w = W dw^T + dw W^T:
    dK = -(1 / sigma^2) K o (a 1^T + 1 a^T - C - C^T), dB = dK o P_{W_perp} - K o S_w,
    h_x = -(2 / sigma^2) (dx diag(B 1) - dx B + X diag(dB 1) - X dB),
    h_w = -2 (dK W + K dw)."""
    _check_sigma(sigma)
    x_mat = np.atleast_2d(np.asarray(x_mat, dtype=float))
    b = k * p_perp
    b_sum = b.sum(axis=0)
    inv_var = 1.0 / sigma**2
    neg_k = -inv_var * k  # the first factor of dK, as the formula rounds it

    def apply(dx: np.ndarray, dw: np.ndarray | None = None):
        c = x_mat.T @ dx
        a = np.diag(c)
        dk = neg_k * (a[:, None] + a[None, :] - c - c.T)
        db = dk * p_perp
        if dw is not None:
            db = db - k * (w @ dw.T + dw @ w.T)
        # B and dB are symmetric, so diag(B 1) scales the columns by colsums
        h_x = -2.0 * inv_var * (dx * b_sum - dx @ b + x_mat * db.sum(axis=0) - x_mat @ db)
        if dw is None:
            return h_x
        h_w = -2.0 * (dk @ w + k @ dw)
        return h_x, h_w

    return apply


def monomial_hess_diag_x(x_mat: np.ndarray, p_perp: np.ndarray, gram: np.ndarray, d: int) -> np.ndarray:
    """Diagonal of the X block of `monomial_hess_operator` from P = I - W W^T
    and the Gram G = X^T X + c, with K_j = G^(.j): entry (j, i) is
    2d (K_{d-1} o P)_ii + 2d (d-1) (((X o X) (K_{d-2} o P))_ji + x_ji^2 (K_{d-2} o P)_ii)."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    curv = np.diag(p_perp) * np.diag(gram) ** (d - 1)
    if d == 1:
        return 2.0 * np.broadcast_to(curv, x_mat.shape)
    k_2_perp = p_perp if d == 2 else gram ** (d - 2) * p_perp
    x_sq = x_mat * x_mat
    return (2.0 * d) * (curv + (d - 1) * (x_sq @ k_2_perp + x_sq * np.diag(k_2_perp)))


def gaussian_hess_diag_x(x_mat: np.ndarray, p_perp: np.ndarray, sigma: float, k: np.ndarray) -> np.ndarray:
    """Diagonal of the X block of `gaussian_hess_operator` from P = I - W W^T
    and k = K_G(X, X): with B = K o P and b = colsum(B), entry (j, i) is
    -(2 / sigma^2) (b_i - B_ii - sum_l B_il (x_ji - x_jl)^2 / sigma^2)."""
    _check_sigma(sigma)
    b = k * p_perp
    b_sum = b.sum(axis=0)
    inv_var = 1.0 / sigma**2
    x_sq = x_mat * x_mat
    spread = x_sq * b_sum - 2.0 * x_mat * (x_mat @ b) + x_sq @ b
    return -2.0 * inv_var * ((b_sum - np.diag(b)) - inv_var * spread)


def feature_residual_cost(phi: np.ndarray, basis: np.ndarray) -> float:
    """||Phi - P_U Phi||_F^2 evaluated explicitly."""
    resid = phi - basis @ (basis.T @ phi)
    return float(np.sum(resid * resid))


def kernel_trace_cost(k_mat: np.ndarray, basis: np.ndarray) -> float:
    """trace(K) - trace(W^T K W), the kernel-side value of the same residual."""
    return float(k_mat.trace() - ((k_mat @ basis) * basis).sum())


def kernel_tail_cost(k_mat: np.ndarray, r: int) -> float | np.ndarray:
    """kernel_trace_cost at the best W, the leading r-dimensional eigenspace
    of the symmetric positive semidefinite K: trace(K) minus its r largest
    eigenvalues, without forming W. A stack of kernels (..., s, s) is scored
    by one stacked eigvalsh, into an array of costs; one kernel gives a float.
    This is the exact path of `kernel_tail_argmin`, which picks the least of
    a stack without it where a Rayleigh-Ritz bound decides."""
    tail = np.trace(k_mat, axis1=-2, axis2=-1) - np.linalg.eigvalsh(k_mat)[..., -r:].sum(axis=-1)
    return float(tail) if tail.ndim == 0 else tail


TAIL_MARGIN = 1e-10  # rounding allowance of a Ritz tail interval, relative to sqrt(s) ||K||_F


def _ritz_tail_interval(k_mat: np.ndarray, basis: np.ndarray, fro2: np.ndarray):
    """(Y, K Y, lo, hi) for each symmetric kernel K of a stack (k, s, s),
    whose ||K||_F^2 are fro2, and an orthonormal basis Q (s, r), one for the
    stack or one per kernel: the Ritz basis Y = Q U of
    Q^T K Q = U diag(theta) U^T (theta ascending), and an interval [lo, hi]
    that holds the tail trace(K) - top_r(K), where top_r is the sum of the r
    largest eigenvalues. K need not be PSD.

    With R = K Y - Y diag(theta): top_r(K) >= sum(theta) (Ky Fan's maximum
    principle), and, with rho = sqrt(max(||K||_F^2 - sum(theta^2)
    - 2 ||R||_F^2, 0)) >= ||C||_2 for the compression C of K to range(Y)^perp,
    top_r(K) <= sum(theta) + ||R||_F^2 / (theta_min - rho) when
    theta_min > rho, because K <= blockdiag(diag(theta) + B^T B / g, C + g I)
    with g = theta_min - rho and ||B||_F = ||R||_F; else the upper end is
    inf. rho^2 gets TAIL_MARGIN ||K||_F^2 more, for the cancellation in its
    difference, and each end moves out by TAIL_MARGIN sqrt(s) ||K||_F, which
    is at least TAIL_MARGIN |trace(K)| and TAIL_MARGIN ||K||_2, and 500
    times the first-order rounding bound r s eps ||K||_2 of a sum of r
    eigvalsh eigenvalues at r <= 40 and s <= 400: the tail that eigvalsh
    computes lies inside too."""
    kq = k_mat @ basis
    theta, u = np.linalg.eigh(np.swapaxes(basis, -1, -2) @ kq)
    y, ky = basis @ u, kq @ u
    resid = ky - y * theta[..., None, :]
    res2 = (resid * resid).sum(axis=(-2, -1))
    rho = np.sqrt(np.maximum(fro2 - (theta * theta).sum(axis=-1) - 2.0 * res2, 0.0) + TAIL_MARGIN * fro2)
    gap = theta[..., 0] - rho
    top_lo = theta.sum(axis=-1)
    top_hi = top_lo + np.divide(res2, gap, out=np.full_like(gap, np.inf), where=gap > 0)
    trace = np.trace(k_mat, axis1=-2, axis2=-1)
    margin = TAIL_MARGIN * np.sqrt(k_mat.shape[-1] * fro2)
    return y, ky, trace - top_hi - margin, trace - top_lo + margin


def kernel_tail_argmin(k_mat: np.ndarray, r: int, basis: np.ndarray) -> tuple[int, np.ndarray]:
    """np.argmin(kernel_tail_cost(k_mat, r)) of a stack (k, s, s) of
    symmetric kernels, and a Ritz basis (s, r) of the kernel it picks, from
    an orthonormal warm-start basis (s, r) in O(k s^2 r) work where the
    bounds decide.

    A kernel is picked when the upper end of its Ritz tail interval (see
    `_ritz_tail_interval`: the rounding margin is TAIL_MARGIN sqrt(s)
    ||K||_F on each end) lies below the lower end of every other kernel's,
    so the pick is the exact one. Otherwise one subspace iteration,
    Q <- qr(K Y) per kernel, and the test again; otherwise the exact
    scores, whose first of equal costs wins. The Ritz basis is of the last
    basis tried. A non-finite stack raises np.linalg.LinAlgError."""
    flat = k_mat.reshape(k_mat.shape[0], -1)
    fro2 = np.einsum("ki,ki->k", flat, flat)  # not finite if K is not, or overflows
    if not (np.isfinite(fro2).all() or np.isfinite(k_mat).all()):
        raise np.linalg.LinAlgError(f"the {' x '.join(map(str, k_mat.shape))} kernel stack has "
                                    f"{np.isinf(k_mat).sum()} inf and {np.isnan(k_mat).sum()} NaN entries")
    y, ky, tail_lo, tail_hi = _ritz_tail_interval(k_mat, basis, fro2)
    best = _separated_least(tail_lo, tail_hi)
    if best is None:
        y, ky, tail_lo, tail_hi = _ritz_tail_interval(k_mat, np.linalg.qr(ky)[0], fro2)
        best = _separated_least(tail_lo, tail_hi)
    if best is None:
        best = int(np.argmin(kernel_tail_cost(k_mat, r)))
    return best, y[best]


def _separated_least(lo: np.ndarray, hi: np.ndarray) -> int | None:
    """The index whose interval [lo, hi] lies wholly below every other's,
    or None."""
    best = int(np.argmin(hi))
    below = lo > hi[best]
    below[best] = True
    return best if below.all() else None


def lift_grad_w(k_mat: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Euclidean gradient of the residual cost in the subspace variable:
    -2 K W (valid for any symmetric kernel matrix K)."""
    if k_mat.shape != (w.shape[0], w.shape[0]):
        raise DimensionError("kernel matrix and basis sizes disagree")
    return -2.0 * k_mat @ w


@dataclass(frozen=True)
class LiftingSpec:
    """Choice of lifting and its parameters, and, with its per-basis
    `BasisEvaluator`, the one place that branches on it: the lifted matrix,
    the residual and its derivatives.

    kind is one of the keys of PARAMS, which lists the parameters it reads.
    """

    PARAMS: ClassVar[dict[str, tuple[str, ...]]] = {
        "monomial_features": ("degree",),
        "monomial_kernel": ("degree", "offset"),
        "gaussian_kernel": ("sigma",),
    }

    kind: str
    n: int
    degree: int = 2
    offset: float = 1.0
    sigma: float = 2.5

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in self.PARAMS:
            raise ValueError(f"unknown lifting kind {self.kind!r}")
        if self.kind in ("monomial_features", "monomial_kernel") and self.degree < 1:
            raise ValueError("monomial degree must be >= 1")
        if self.kind == "gaussian_kernel":
            _check_sigma(self.sigma)
        if self.kind == "monomial_features":
            n_feat = count_monomials(self.n, self.degree)  # fail fast on bad (n, d)
            if n_feat > MAX_EXPLICIT_FEATURES:
                raise FeatureSizeError(
                    f"N(n={self.n}, d={self.degree}) = {n_feat} exceeds cap {MAX_EXPLICIT_FEATURES}"
                )

    @classmethod
    def monomials(cls, n: int, degree: int) -> "LiftingSpec":
        return cls("monomial_features", n, degree=degree)

    @classmethod
    def monomial(cls, n: int, degree: int, offset: float = 1.0) -> "LiftingSpec":
        return cls("monomial_kernel", n, degree=degree, offset=offset)

    @classmethod
    def gaussian(cls, n: int, sigma: float) -> "LiftingSpec":
        return cls("gaussian_kernel", n, sigma=sigma)

    @property
    def is_kernel(self) -> bool:
        return self.kind in ("monomial_kernel", "gaussian_kernel")

    def ambient(self, s: int) -> int:
        """Ambient dimension of the subspace variable for s data columns."""
        if not self.is_kernel:
            return count_monomials(self.n, self.degree)
        return s

    def kernel(self, x_mat: np.ndarray, y_mat: np.ndarray | None = None) -> np.ndarray:
        """Kernel matrix K(X, Y) of the lifting (the features' inner products
        Phi(X)^T Phi(Y) for the explicit monomial map); K(X, X) when y_mat is
        omitted."""
        y_mat = x_mat if y_mat is None else y_mat
        if self.kind == "monomial_kernel":
            return monomial_kernel(x_mat, y_mat, self.degree, self.offset)
        if self.kind == "gaussian_kernel":
            return gaussian_kernel(x_mat, y_mat, self.sigma)
        phi = monomial_features(x_mat, self.degree)
        return phi.T @ (phi if y_mat is x_mat else monomial_features(y_mat, self.degree))

    def lift(self, x_mat: np.ndarray) -> "LiftedPoint":
        """The lifted point at X: the matrix whose leading left singular
        subspace solves the subspace subproblem, Phi(X) for the features and
        K(X, X) for kernels. For the monomial kernel that matrix is the
        power of the Gram the point also keeps, built by the operations of
        `monomial_kernel`, so it is the same to the bit."""
        if self.kind == "monomial_kernel":
            x_mat = np.asarray(x_mat, dtype=float)
            gram = x_mat.T @ x_mat
            gram += self.offset
            return LiftedPoint(gram**self.degree, gram)
        if self.kind == "gaussian_kernel":
            return LiftedPoint(gaussian_kernel(x_mat, x_mat, self.sigma))
        return LiftedPoint(monomial_features(x_mat, self.degree))

    def residual(self, lifted: np.ndarray, basis: np.ndarray) -> float:
        """The lifted residual of a lifted matrix (`lift(X).lifted`)."""
        if not self.is_kernel:
            return feature_residual_cost(lifted, basis)
        return kernel_trace_cost(lifted, basis)

    def energy(self, lifted: np.ndarray) -> float:
        """The residual at the zero subspace: ||Phi||_F^2, or trace(K)."""
        if not self.is_kernel:
            return float(np.sum(lifted**2))
        return float(np.trace(lifted))

    def grad(self, x_mat: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Euclidean gradient blocks (X, basis) of the ambient extension of
        the residual (valid for any, not necessarily orthonormal, basis),
        from one lift of X."""
        at = self.at(basis)
        point = self.lift(x_mat)
        return at.grad_x(x_mat, point), at.grad_basis(point)

    def at(self, basis: np.ndarray) -> "BasisEvaluator":
        """The residual and its derivatives with the basis held fixed."""
        return BasisEvaluator(self, basis)


class LiftedPoint(NamedTuple):
    """What a lifting builds at one X, whatever the basis: the lifted matrix
    (see `LiftingSpec.lift`) and, for the monomial kernel, the Gram X^T X + c
    whose d-th entrywise power it is."""

    lifted: np.ndarray
    gram: np.ndarray | None = None


class BasisEvaluator:
    """The Euclidean derivatives of a lifting's residual with the basis
    held fixed, each read from the `LiftedPoint` of X (`LiftingSpec.lift`).
    P_{W_perp} = I - W W^T, which the kernel forms read, is built once here
    (the feature form projects with the basis itself)."""

    def __init__(self, spec: LiftingSpec, basis: np.ndarray):
        self.spec = spec
        self.basis = basis
        self.p_perp = _w_perp(basis, basis.shape[0]) if spec.is_kernel else None

    def grad_x(self, x_mat: np.ndarray, point: LiftedPoint) -> np.ndarray:
        """Euclidean gradient block of X at the lifted point of X."""
        spec = self.spec
        if spec.kind == "monomial_kernel":
            return monomial_grad_x(x_mat, self.p_perp, point.gram, spec.degree)
        if spec.kind == "gaussian_kernel":
            return gaussian_grad_x(x_mat, self.p_perp, spec.sigma, point.lifted)
        phi = point.lifted
        resid = 2.0 * (phi - self.basis @ (self.basis.T @ phi))
        return monomial_features_vjp(x_mat, spec.degree, resid, phi)

    def grad_basis(self, point: LiftedPoint) -> np.ndarray:
        """Euclidean gradient block of the basis at a lifted point."""
        if not self.spec.is_kernel:
            return -2.0 * point.lifted @ (point.lifted.T @ self.basis)
        return lift_grad_w(point.lifted, self.basis)

    def hess_operator(self, x_mat: np.ndarray, point: LiftedPoint):
        """Closed-form Euclidean Hessian operator of the residual at (X, basis)
        from the lifted point of X. The Gaussian kernel's reads this
        evaluator's P_perp; the monomial kernel's builds the kernel powers
        and the P_perp it needs from X and the basis."""
        spec = self.spec
        if spec.kind == "monomial_kernel":
            return monomial_hess_operator(x_mat, self.basis, spec.degree, spec.offset)
        if spec.kind == "gaussian_kernel":
            return gaussian_hess_operator(x_mat, self.basis, spec.sigma, point.lifted, self.p_perp)
        return monomial_features_hess_operator(x_mat, self.basis, spec.degree, point.lifted)

    def hess_diag_x(self, x_mat: np.ndarray, point: LiftedPoint) -> np.ndarray:
        """Diagonal of the X block of `hess_operator(x_mat, point)` in closed
        form: entry (j, i) is the block's product with the unit matrix E_ji,
        read at (j, i)."""
        spec = self.spec
        if spec.kind == "monomial_kernel":
            return monomial_hess_diag_x(x_mat, self.p_perp, point.gram, spec.degree)
        if spec.kind == "gaussian_kernel":
            return gaussian_hess_diag_x(x_mat, self.p_perp, spec.sigma, point.lifted)
        return monomial_features_hess_diag_x(x_mat, self.basis, spec.degree, point.lifted)

    def line_coefficients(self, x_mat: np.ndarray, point: LiftedPoint, dx: np.ndarray):
        """(c2, c3, c4) with residual(X + a D) = f + a <grad_x, D> + c2 a^2
        + c3 a^3 + c4 a^4 (D = dx) for the monomial kernel of degree 1 or 2;
        None for the other liftings and degrees, whose residual along a line
        has no such short closed form. With A = X^T X + c (the point's Gram),
        G1 = X^T D + D^T X, G2 = D^T D and P = P_{W_perp}: d = 1 gives
        c2 = <P, G2>, c3 = c4 = 0; d = 2 gives c2 = <P o G1, G1> + 2 <P o A, G2>,
        c3 = 2 <P o G1, G2>, c4 = <P o G2, G2>. Alternating minimization's
        Armijo trials read their cost from this polynomial and lift no
        trial point: it rounds at about eps sum_k |c_k a^k|, the direct
        residual at eps trace(K), so near a zero residual the polynomial
        is the more accurate value."""
        spec = self.spec
        if spec.kind != "monomial_kernel" or spec.degree > 2:
            return None
        p_perp = self.p_perp
        g2 = dx.T @ dx
        if spec.degree == 1:
            return float(np.vdot(p_perp, g2)), 0.0, 0.0
        xt_d = x_mat.T @ dx
        g1 = xt_d + xt_d.T
        p_g1 = p_perp * g1
        p_g2 = p_perp * g2
        c2 = np.vdot(p_g1, g1) + 2.0 * np.vdot(point.gram, p_g2)
        return float(c2), float(2.0 * np.vdot(p_g1, g2)), float(np.vdot(p_g2, g2))
