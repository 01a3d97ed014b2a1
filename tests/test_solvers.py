import importlib.util
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nlrecover.solvers
from nlrecover.cli import build_solver_configs, solve
from nlrecover.lifting import LiftingSpec
from nlrecover.manifold import (
    GrassmannPoint,
    MeasurementSubspace,
    ProductPoint,
    grass_distance,
)
from nlrecover.objective import Objective
from nlrecover.solvers import (
    ARMIJO_ALPHA0,
    ARMIJO_BETA,
    ARMIJO_MAX_BACKTRACKS,
    ARMIJO_TAU,
    AltminConfig,
    DELTA0,
    LineSearchError,
    NumericalError,
    STALL_RADIUS,
    TCG_KAPPA,
    RiemannianProblem,
    RtrConfig,
    SolveTrace,
    TcgConfig,
    TraceRecord,
    TRACE_COLUMNS,
    altmin_solve,
    armijo,
    default_init,
    line_quartic,
    quartic_minimizer,
    product_problem,
    RHO_ROUNDOFF,
    random_init,
    randomized_svd,
    rtr_generic,
    rtr_solve,
    svd_policy,
    tcg_replay,
    tcg_subproblem,
    truncated_svd,
    x_factor_problem,
)
from nlrecover.synth import (ClusterSpec, UosSpec, gen_clusters, gen_entry_mask, gen_uos,
                             numerical_rank, rmse)

from conftest import small_dense_objective, small_masked_objective, uos_completion_problem


class TestTruncatedSvd:
    def test_diagonal_case(self):
        u = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
        p = u.basis @ u.basis.T
        expected = np.diag([1.0, 1.0, 0.0])
        assert np.allclose(p, expected, atol=1e-12)

    def test_exact_rank_residual(self, rng):
        y = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 12))
        u = truncated_svd(y, 3)
        resid = y - u.basis @ (u.basis.T @ y)
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(y)

    def test_eckart_young(self, rng):
        y = rng.standard_normal((20, 30))
        r = 4
        u = truncated_svd(y, r)
        resid = np.linalg.norm(y - u.basis @ (u.basis.T @ y)) ** 2
        sv = np.linalg.svd(y, compute_uv=False)  # independent full-SVD oracle
        optimal = float(np.sum(sv[r:] ** 2))
        assert abs(resid - optimal) <= 1e-10 * max(1.0, optimal)

    def test_rank_validation(self, rng):
        with pytest.raises(ValueError):
            truncated_svd(rng.standard_normal((4, 6)), 4)


def svd_rank(y_mat, rel_tol=1e-8):
    """numerical_rank's count, from the full SVD's singular values."""
    sv = np.linalg.svd(y_mat, compute_uv=False)
    return int(np.sum(sv >= rel_tol * sv[0])) if sv.size and sv[0] > 0 else 0


def forbid_svd(monkeypatch):
    """Make np.linalg.svd fail the test if it is reached."""
    def unreachable(*args, **kwargs):
        raise AssertionError("a symmetric input reached the SVD")

    monkeypatch.setattr(np.linalg, "svd", unreachable)


def psd_kernels(s):
    """The monomial kernel (d = 2) of a union of planes and the Gaussian
    kernel (sigma = 2.5) of 4 clusters, both with s columns, each with the
    rank r of its leading subspace."""
    obj, target, _ = uos_completion_problem(n=8, pts_per=s // 2, seed=s)
    mono = obj.lifting.lift(target).lifted
    points, _ = gen_clusters(ClusterSpec(n=5, k=4, pts_per=s // 4), np.random.default_rng(s))
    gauss = LiftingSpec.gaussian(5, 2.5).lift(points).lifted
    return [(mono, svd_rank(mono)), (gauss, 4)]


@st.composite
def symmetric_matrices(draw):
    """(Y, r): a symmetric s x s matrix, s <= 12, whose eigenvalues are 0,
    +-1e-12 or of magnitude in [0.1, 10] with either sign, repeated values
    allowed, so that no singular value lies near a rank threshold of 1e-8."""
    s = draw(st.integers(2, 12))
    r = draw(st.integers(1, s - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.concatenate([[0.0, 1e-12, -1e-12], rng.uniform(0.1, 10.0, 3), -rng.uniform(0.1, 10.0, 3)])
    eigs = rng.choice(pool, size=s)
    vecs = np.linalg.qr(rng.standard_normal((s, s)))[0]
    y_mat = (vecs * eigs) @ vecs.T
    return np.triu(y_mat) + np.triu(y_mat, 1).T, r


def eckart_young_gap(y_mat, basis):
    """||Y - U U^T Y||_F^2 minus the SVD optimum, the sum of the squared
    singular values past r."""
    sv = np.linalg.svd(y_mat, compute_uv=False)
    resid = np.linalg.norm(y_mat - basis @ (basis.T @ y_mat)) ** 2
    return resid - float(np.sum(sv[basis.shape[1]:] ** 2))


class TestSymmetricPath:
    # a square input equal to its transpose takes eigh / eigvalsh ordered by
    # |lambda|, every other input the SVD
    @pytest.mark.parametrize("s", [40, 180])
    def test_psd_kernels_match_the_svd_subspace(self, s, monkeypatch):
        cases = psd_kernels(s)
        oracles = [GrassmannPoint(np.linalg.svd(k)[0][:, :r]) for k, r in cases]
        forbid_svd(monkeypatch)
        for (k, r), oracle in zip(cases, oracles):
            assert grass_distance(truncated_svd(k, r), oracle) <= 1e-10

    def test_indefinite_keeps_the_negative_eigenvector(self, rng):
        vecs = np.linalg.qr(rng.standard_normal((8, 8)))[0]
        eigs = np.array([5.0, 3.0, -4.0, 1.0, -0.5, 0.25, 0.0, 2.0])
        y_mat = (vecs * eigs) @ vecs.T
        y_mat = np.triu(y_mat) + np.triu(y_mat, 1).T
        # |lambda| = 5, 4, 3 lead; lambda_3 = 3 is outranked by -4
        basis = truncated_svd(y_mat, 3).basis
        neg = vecs[:, 2]
        assert np.linalg.norm(neg - basis @ (basis.T @ neg)) <= 1e-12
        assert abs(eckart_young_gap(y_mat, basis)) <= 1e-12 * np.sum(eigs**2)

    def test_square_non_symmetric_takes_the_svd_bit_for_bit(self, rng):
        sym = rng.standard_normal((9, 9))
        sym = sym + sym.T
        nudged = sym.copy()
        nudged[0, 1] = np.nextafter(nudged[0, 1], np.inf)  # one ulp from symmetric
        for y_mat in (rng.standard_normal((9, 9)), nudged):
            u = np.linalg.svd(y_mat, full_matrices=False)[0][:, :4]
            assert truncated_svd(y_mat, 4).basis.tobytes() == u.tobytes()

    def test_numerical_rank_matches_the_svd_count(self, monkeypatch):
        mono_obj, target = small_masked_objective("monomial_kernel")
        gauss_obj, _ = small_masked_objective("gaussian_kernel")
        uos_obj, uos_target, _ = uos_completion_problem()
        indefinite = np.diag([3.0, -2.0, 1e-12, 0.0])  # singular values 3, 2, 1e-12, 0
        symmetric = [indefinite, mono_obj.lifting.kernel(target), gauss_obj.lifting.kernel(target),
                     uos_obj.lifting.kernel(uos_target),
                     *(k for s in (40, 180) for k, _ in psd_kernels(s))]
        phi = LiftingSpec.monomials(8, 2).lift(uos_target).lifted
        assert numerical_rank(phi) == svd_rank(phi)
        counts = [svd_rank(k) for k in symmetric]
        assert counts[0] == 2
        forbid_svd(monkeypatch)
        assert [numerical_rank(k) for k in symmetric] == counts

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(symmetric_matrices())
    def test_random_symmetric_matches_the_svd(self, case):
        y_mat, r = case
        basis = truncated_svd(y_mat, r).basis
        scale = max(1.0, float(np.sum(y_mat**2)))
        assert abs(eckart_young_gap(y_mat, basis)) <= 1e-12 * scale
        assert numerical_rank(y_mat) == svd_rank(y_mat)


class TestRandomizedSvd:
    def test_exact_rank_recovers_subspace(self, rng):
        y = rng.standard_normal((15, 3)) @ rng.standard_normal((3, 20))
        exact = truncated_svd(y, 3)
        approx = randomized_svd(y, 3, oversample=5, power_q=0, rng=rng)
        assert grass_distance(exact, approx) <= 1e-8

    def test_power_iteration_helps(self, rng):
        # sigma_{r+1}/sigma_r = 0.5: q=1 residual <= q=0 residual (median, paired)
        r = 3
        diffs = []
        for seed in range(20):
            gen = np.random.default_rng(seed)
            u, _ = np.linalg.qr(gen.standard_normal((30, 30)))
            v, _ = np.linalg.qr(gen.standard_normal((25, 25)))
            sv = np.concatenate([[8.0, 6.0, 4.0, 2.0], 1.4 * 0.7 ** np.arange(21)])
            y = u[:, :25] @ np.diag(sv) @ v.T

            def resid(point):
                return np.linalg.norm(y - point.basis @ (point.basis.T @ y))

            r0 = resid(randomized_svd(y, r, 4, 0, np.random.default_rng(seed + 100)))
            r1 = resid(randomized_svd(y, r, 4, 1, np.random.default_rng(seed + 100)))
            diffs.append(r0 - r1)
        assert np.median(diffs) >= 0.0

    def test_decaying_spectrum_near_optimal(self, rng):
        u, _ = np.linalg.qr(rng.standard_normal((18, 18)))
        v, _ = np.linalg.qr(rng.standard_normal((14, 14)))
        sv = 2.0 ** (-np.arange(1, 15, dtype=float))
        y = u[:, :14] @ np.diag(sv) @ v.T
        point = randomized_svd(y, 3, oversample=10, power_q=1, rng=rng)
        resid = np.linalg.norm(y - point.basis @ (point.basis.T @ y))
        optimal = np.sqrt(np.sum(sv[3:] ** 2))
        assert resid <= 1.1 * optimal


class TestNonFiniteSvdInput:
    @staticmethod
    def isolated_inf_kernel():
        # one column of x at 1e80 e_1: K[0, 0] overflows, every other entry
        # of the monomial kernel stays finite
        x = np.random.default_rng(0).standard_normal((6, 10))
        x[:, 0] = 0.0
        x[0, 0] = 1e80
        with np.errstate(over="ignore"):
            return LiftingSpec.monomial(6, 2).lift(x).lifted

    @pytest.mark.parametrize("svd", ["truncated", "randomized", "rank"])
    def test_raises_before_lapack(self, svd, monkeypatch):
        # an SVD of a matrix with one isolated inf may never return, so the
        # decompositions fail the test if they are reached
        def unreachable(*args, **kwargs):
            raise AssertionError("LAPACK was handed a non-finite matrix")

        for name in ("svd", "qr", "eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, unreachable)
        fn = {"truncated": truncated_svd, "randomized": randomized_svd,
              "rank": lambda y_mat, r: numerical_rank(y_mat)}[svd]
        kern = self.isolated_inf_kernel()
        assert np.isinf(kern[0, 0]) and np.isfinite(kern).sum() == kern.size - 1
        nan_diag = np.diag([1.0, np.nan, 1.0, 1.0, 1.0])
        for y_mat, counts in ((kern, "1 inf and 0 NaN"),
                              (np.diag([np.inf, 1.0, 1.0, 1.0, 1.0]), "1 inf and 0 NaN"),
                              (nan_diag, "0 inf and 1 NaN")):
            shape = " x ".join(map(str, y_mat.shape))
            with pytest.raises(NumericalError, match=f"^the {shape} SVD input has {counts} entries$"):
                fn(y_mat, 2)


class TestSvdPolicy:
    @pytest.mark.parametrize(
        "f_val,expected",
        [
            (0.5, "exact"),
            (5e-2, "rand_power"),
            (1e-4, "rand_plain"),
            (1e-1, "rand_power"),  # boundary: exact only strictly above tau2
            (1e-3, "rand_plain"),  # boundary: power only strictly above tau1
        ],
    )
    def test_routing(self, f_val, expected):
        assert svd_policy(f_val, 1e-3, 1e-1) == expected


class TestArmijo:
    def test_quadratic_example(self):
        # f(x) = x^2/2 at x=1 along d=-1: alpha0=2 overshoots, alpha=1 lands at 0
        f_along = lambda a: 0.5 * (1.0 - a) ** 2
        assert (ARMIJO_ALPHA0, ARMIJO_TAU) == (2.0, 0.5)
        alpha, f_alpha = armijo(f_along, 0.5, -1.0)
        assert alpha == pytest.approx(1.0)
        assert f_alpha == f_along(alpha)

    def test_linear_accepts_initial_step(self):
        f_along = lambda a: 1.0 - a
        alpha, f_alpha = armijo(f_along, 1.0, -1.0)
        assert alpha == pytest.approx(ARMIJO_ALPHA0)
        assert f_alpha == f_along(alpha)

    def test_accepted_step_satisfies_inequality(self, rng):
        for _ in range(10):
            c3, c2 = rng.uniform(0.1, 1.0), rng.uniform(0.5, 2.0)
            f_along = lambda a: c3 * a**3 - c2 * a  # descent at 0 with slope -c2
            alpha, f_alpha = armijo(f_along, 0.0, -c2)
            assert f_alpha == f_along(alpha)
            assert f_alpha <= 0.0 + ARMIJO_BETA * alpha * (-c2) + 1e-15
            if alpha < ARMIJO_ALPHA0:  # previous trial alpha/tau must have failed
                prev = alpha / ARMIJO_TAU
                assert f_along(prev) > ARMIJO_BETA * prev * (-c2)

    def test_requires_descent_direction(self):
        with pytest.raises(ValueError):
            armijo(lambda a: a, 0.0, 1.0)

    def test_failure_after_budget(self):
        # at f0 = 0 the demanded decrease never rounds away; the cap ends it
        tried = []
        with pytest.raises(LineSearchError):
            armijo(lambda a: tried.append(a) or 1.0, 0.0, -1.0)
        assert len(tried) == ARMIJO_MAX_BACKTRACKS + 1

    @pytest.mark.parametrize("first", [None, 0.5])
    def test_decrease_below_roundoff_raises(self, first):
        # f0 + beta alpha <g, d> rounds to f0, so a flat f would pass the
        # test; no step is even evaluated
        tried = []
        with pytest.raises(LineSearchError):
            armijo(lambda a: tried.append(a) or 1.0, 1.0, -1e-30, first=first)
        assert tried == []

    def test_stops_where_the_decrease_rounds_away(self):
        # a flat f: every trial fails until the bound rounds to f0
        g_dot_d = -(2.0**-50) / ARMIJO_BETA
        tried = []
        with pytest.raises(LineSearchError):
            armijo(lambda a: tried.append(a) or 1.0, 1.0, g_dot_d)
        assert tried and tried[0] == ARMIJO_ALPHA0
        assert all(1.0 + ARMIJO_BETA * a * g_dot_d < 1.0 for a in tried)
        assert 1.0 + ARMIJO_BETA * tried[-1] * ARMIJO_TAU * g_dot_d == 1.0

    @settings(max_examples=200, deadline=None)
    @given(f0=st.floats(-1e3, 1e3), log_slope=st.floats(-40.0, 0.0),
           first=st.none() | st.floats(1e-8, 4.0))
    def test_flat_line_is_never_accepted(self, f0, log_slope, first):
        with pytest.raises(LineSearchError):
            armijo(lambda a: f0, f0, -(10.0**log_slope), first=first)

    @staticmethod
    def logged_quadratic(tried):
        def f_along(a):
            tried.append(a)
            return 0.5 * (1.0 - a) ** 2

        return f_along

    def test_first_trial_accepted_when_it_passes(self):
        tried = []
        out = armijo(self.logged_quadratic(tried), 0.5, -1.0, first=0.9)
        assert out == (0.9, 0.5 * (1.0 - 0.9) ** 2)
        assert tried == [0.9]

    @pytest.mark.parametrize("first", [3.0, 2.5, 1.9999])
    def test_rejected_first_trial_runs_the_sequence(self, first):
        # f(first) fails the Armijo test; then come exactly the steps and
        # values of a search without a first trial
        tried, plain = [], []
        out = armijo(self.logged_quadratic(tried), 0.5, -1.0, first=first)
        assert out == armijo(self.logged_quadratic(plain), 0.5, -1.0)
        assert tried == [first] + plain and out == (1.0, 0.0)


def _quartic(c1, c2, c3, c4):
    return lambda a: a * (c1 + a * (c2 + a * (c3 + a * c4)))


class TestQuarticMinimizer:
    @settings(max_examples=300, deadline=None)
    @given(c1=st.floats(-10.0, -1e-3), c2=st.floats(-10.0, 10.0), c3=st.floats(-10.0, 10.0),
           c4=st.floats(1e-3, 10.0), log_scale=st.floats(-8.0, 8.0))
    def test_global_minimizer_of_random_quartics(self, c1, c2, c3, c4, log_scale):
        # rescaling alpha by t = 10^log_scale spreads the coefficients over
        # orders of magnitude, as along a short gradient step
        t = 10.0**log_scale
        c = (c1 * t, c2 * t**2, c3 * t**3, c4 * t**4)
        value = _quartic(*c)
        alpha = quartic_minimizer(*c)
        roots = np.roots([4.0 * c[3], 3.0 * c[2], 2.0 * c[1], c[0]])
        real = [r.real for r in roots if abs(r.imag) <= 1e-6 * abs(r) and r.real > 0]
        best = min(real, key=value)
        assert alpha is not None and alpha > 0
        scale = sum(abs(ck) * best ** (k + 1) for k, ck in enumerate(c))
        assert value(alpha) <= value(best) + 1e-12 * scale

    def test_quadratic(self):
        assert quartic_minimizer(-1.0, 2.0, 0.0, 0.0) == 0.25

    @pytest.mark.parametrize("coeffs", [
        (-1.0, 1.0, 1.0, 0.0),   # cubic: no closed form taken
        (-1.0, 1.0, 0.0, -1.0),  # unbounded below
        (-1.0, 0.0, 0.0, 0.0),   # linear
        (-1.0, -1.0, 0.0, 0.0),  # concave quadratic
    ])
    def test_no_finite_minimizer(self, coeffs):
        assert quartic_minimizer(*coeffs) is None

    @pytest.mark.parametrize("coeffs", [
        (-1.0, 1.0, 1.0, 1e-200),
        (-1.0, 1.0, -1.0, 1e-120),
        (-1e-300, 1.0, 1e-300, 1e-300),
    ])
    def test_overflowing_cubic_gives_none(self, coeffs):
        # c4 tiny next to c3 or c2: b^3 or q^3 of the cubic's closed form
        # overflows; None sends Armijo to backtrack from alpha0
        with pytest.raises(OverflowError):
            nlrecover.solvers._cubic_roots(3.0 * coeffs[2] / (4.0 * coeffs[3]),
                                           coeffs[1] / (2.0 * coeffs[3]),
                                           coeffs[0] / (4.0 * coeffs[3]))
        assert quartic_minimizer(*coeffs) is None


    def test_matches_the_closure_form_bit_for_bit(self):
        # the root choice and the Newton polish against the closure and
        # generator forms they replaced, over a grid that reaches both
        # branches of the cubic and the convex quadratic
        def old_cubic_roots(b, c, d):
            q = (b * b - 3.0 * c) / 9.0
            r = (2.0 * b**3 - 9.0 * b * c + 27.0 * d) / 54.0
            if r * r < q**3:
                theta = math.acos(r / math.sqrt(q**3))
                roots = [-2.0 * math.sqrt(q) * math.cos((theta + 2.0 * math.pi * i) / 3.0) - b / 3.0
                         for i in range(3)]
            else:
                big = -math.copysign(math.cbrt(abs(r) + math.sqrt(r * r - q**3)), r)
                roots = [big + (q / big if big != 0.0 else 0.0) - b / 3.0]

            def residual(x):
                return ((x + b) * x + c) * x + d

            polished = []
            for x in roots:
                for _ in range(3):
                    slope = (3.0 * x + 2.0 * b) * x + c
                    if slope == 0.0:
                        break
                    x_new = x - residual(x) / slope
                    if not abs(residual(x_new)) < abs(residual(x)):
                        break
                    x = x_new
                polished.append(x)
            return polished

        def old_quartic_minimizer(c1, c2, c3, c4):
            if c4 > 0:
                roots = old_cubic_roots(3.0 * c3 / (4.0 * c4), c2 / (2.0 * c4), c1 / (4.0 * c4))
            elif c4 == 0 and c3 == 0 and c2 > 0:
                roots = (-c1 / (2.0 * c2),)
            else:
                return None

            def value(a):
                return a * (c1 + a * (c2 + a * (c3 + a * c4)))

            return min((a for a in roots if 0 < a < math.inf), key=value, default=None)

        def bits(values):
            return None if values is None else np.array(values, dtype=float).tobytes()

        branches = set()
        for c1 in (-3.0, -1.0, -1e-3):
            for c2 in (-5.0, -1.0, 0.0, 0.3, 5.0):
                for c3 in (-4.0, -1.0, 0.0, 1.0, 4.0):
                    for c4 in (0.0, 1e-3, 0.7, 7.0):
                        c = (c1, c2, c3, c4)
                        got, expect = quartic_minimizer(*c), old_quartic_minimizer(*c)
                        assert bits(got) == bits(expect), c
                        if c4 > 0:
                            cubic = (3.0 * c3 / (4.0 * c4), c2 / (2.0 * c4), c1 / (4.0 * c4))
                            roots = nlrecover.solvers._cubic_roots(*cubic)
                            assert bits(roots) == bits(old_cubic_roots(*cubic)), c
                            branches.add(len(roots))
                        elif c3 == 0 and c2 > 0:
                            branches.add("quadratic")
                            assert got == -c1 / (2.0 * c2)
        assert branches == {1, 3, "quadratic"}


def vec_inner(a, b):
    return float(np.vdot(a, b))


class TestTcg:
    def test_identity_hessian_newton_step(self, rng):
        g = rng.standard_normal(5)
        eta, boundary, _ = tcg_subproblem(g, lambda v: v, 100.0, TcgConfig(), vec_inner, 5)
        assert np.allclose(eta, -g, atol=1e-10)
        assert not boundary

    def test_negative_curvature_hits_boundary(self):
        # 2-d model: H = diag(1, -1), gradient mostly along the first axis; the
        # second Krylov direction exposes the negative curvature
        h_mat = np.diag([1.0, -1.0])
        g = np.array([1.0, 0.2])
        delta = 2.0
        eta, boundary, _ = tcg_subproblem(
            g, lambda v: h_mat @ v, delta, TcgConfig(), vec_inner, 2
        )
        assert boundary
        assert np.linalg.norm(eta) == pytest.approx(delta, rel=1e-12)
        model = lambda e: float(g @ e + 0.5 * e @ h_mat @ e)
        assert model(eta) < 0.0
        # brute-force oracle over the disk boundary (the minimizer is on it)
        ths = np.linspace(0, 2 * np.pi, 100001)
        boundary_pts = delta * np.stack([np.cos(ths), np.sin(ths)])
        grid_best = min(model(boundary_pts[:, i]) for i in range(boundary_pts.shape[1]))
        cauchy = model(-delta * g / np.linalg.norm(g))
        assert model(eta) <= max(0.5 * grid_best, cauchy) + 1e-9

    def test_cauchy_decrease_on_spd(self, rng):
        for _ in range(10):
            dim = 6
            a = rng.standard_normal((dim, dim))
            h_mat = a @ a.T + 0.1 * np.eye(dim)
            g = rng.standard_normal(dim)
            delta = rng.uniform(0.1, 3.0)
            eta, _, _ = tcg_subproblem(g, lambda v: h_mat @ v, delta, TcgConfig(), vec_inner, dim)
            decrease = -(g @ eta + 0.5 * eta @ h_mat @ eta)
            gnorm = np.linalg.norm(g)
            hnorm = np.linalg.norm(h_mat, 2)
            assert decrease >= 0.5 * gnorm * min(delta, gnorm / hnorm) - 1e-12

    def test_non_finite_curvature_raises(self):
        g = np.array([1.0, 0.0])
        with pytest.raises(NumericalError):
            tcg_subproblem(g, lambda v: np.full(2, np.nan), 1.0, TcgConfig(), vec_inner, 2)

    def test_residual_floor_stops_at_kappa_eps_g(self):
        # condition number 100 and ||g|| = 1e-5: the kappa/theta target
        # ||g||^2 = 1e-10 lies far below the floor kappa eps_g = 1e-7
        dim, eps_g = 30, 1e-6
        h_diag = np.logspace(0.0, -2.0, dim)
        g = np.full(dim, 1e-5 / math.sqrt(dim))
        hop = lambda v: h_diag * v
        floor_eta, floor_boundary, floor_iters = tcg_subproblem(
            g, hop, 1e8, TcgConfig(), vec_inner, dim, eps_g=eps_g)
        _, _, plain_iters = tcg_subproblem(g, hop, 1e8, TcgConfig(), vec_inner, dim)
        assert not floor_boundary and floor_iters < plain_iters
        # the iterates do not depend on the stop: the i-th is the i-capped run's
        residuals = []
        for cap in range(1, floor_iters + 1):
            eta, _, _ = tcg_subproblem(g, hop, 1e8, TcgConfig(max_inner=cap), vec_inner, dim)
            residuals.append(float(np.linalg.norm(g + h_diag * eta)))
        assert eta.tobytes() == floor_eta.tobytes()
        assert residuals[-1] <= TCG_KAPPA * eps_g < min(residuals[:-1])


def exit_kind(record, cap):
    """How the truncated-CG run behind a record stopped. A resolved record
    on the boundary keeps no direction, so it reads as a boundary exit."""
    if len(record) == 8:
        _, _, d, hd, *_ = record
        return "negative_curvature" if vec_inner(d, hd) <= 0 else "boundary"
    _, _, boundary, iters = record
    return "boundary" if boundary else "cap" if iters == cap else "interior"


def assert_replays_match(h_mat, g, delta, cfg=None, eps_g=0.0, precon=None, kinds=None):
    """Every radius tCG records (delta and delta/4, delta/16, ...) must
    replay to the fresh solve with that radius, bit for bit, and its
    residual must give the model decrease -(<g, eta> + 1/2 <eta, H eta>) of
    its step without a product; returns the full solve and the exits the
    fresh solves with the smaller radii took. kinds, when given, collects
    the `exit_kind`s seen."""
    cfg = cfg or TcgConfig()
    dim = g.size
    hop = lambda v: h_mat @ v
    path = {}
    full = tcg_subproblem(g, hop, delta, cfg, vec_inner, dim, path=path, eps_g=eps_g, precon=precon)
    fresh_full = tcg_subproblem(g, hop, delta, cfg, vec_inner, dim, eps_g=eps_g, precon=precon)
    assert full[0].tobytes() == fresh_full[0].tobytes() and full[1:] == fresh_full[1:]
    radii = [delta]
    radius = delta / 4.0
    while radius >= STALL_RADIUS:
        radii.append(radius)
        radius /= 4.0
    assert sorted(path) == sorted(radii)
    exits = []
    for radius in radii:
        eta, r, boundary, iters = tcg_replay(path[radius], radius)
        f_eta, f_boundary, f_iters = tcg_subproblem(g, hop, radius, cfg, vec_inner, dim, eps_g=eps_g,
                                                    precon=precon)
        assert eta.tobytes() == f_eta.tobytes(), radius
        assert (boundary, iters) == (f_boundary, f_iters), radius
        decrease = -0.5 * (g @ eta + r @ eta)
        explicit = -(g @ eta + 0.5 * eta @ (h_mat @ eta))
        assert math.isclose(decrease, explicit, rel_tol=1e-9), (radius, decrease, explicit)
        if kinds is not None:
            kinds.add(exit_kind(path[radius], cfg.max_inner if cfg.max_inner is not None else dim))
        if radius != delta:
            exits.append((boundary, iters))
    return full, exits


class TestTcgReplay:
    def test_spd_interior(self, rng):
        a = rng.standard_normal((6, 6))
        h_mat = a @ a.T + np.eye(6)
        g = rng.standard_normal(6)
        (_, boundary, _), exits = assert_replays_match(h_mat, g, 1e8)
        # the full radius and the largest recorded ones converge inside
        assert not boundary and not exits[0][0]
        assert exits[-1] == (True, 1)

    def test_spd_boundary(self):
        # the Newton step has norm 1.22 and the first CG iterate 0.70
        h_mat = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        g = np.ones(6)
        (_, boundary, iters), exits = assert_replays_match(h_mat, g, 1.0)
        assert boundary and iters > 1
        assert all(b for b, _ in exits)
        assert exits[0] == (True, 1)

    def test_indefinite_negative_curvature(self):
        # the second Krylov direction meets the negative eigenvalue, inside
        # the full radius: every radius that has not crossed exits there too
        h_mat = np.diag([1.0, -1.0])
        g = np.array([1.0, 0.2])
        (eta, boundary, iters), exits = assert_replays_match(h_mat, g, 50.0)
        assert boundary and iters == 2
        assert np.linalg.norm(eta) == pytest.approx(50.0, rel=1e-12)
        assert exits[0] == (True, 2) and exits[-1] == (True, 1)

    def test_cap_exit_replays(self, rng):
        a = rng.standard_normal((8, 8))
        h_mat = a @ a.T + 0.1 * np.eye(8)
        g = rng.standard_normal(8)
        (_, boundary, iters), exits = assert_replays_match(h_mat, g, 1e6, TcgConfig(max_inner=2))
        assert not boundary and iters == 2

    def test_floor_exit_replays(self):
        # the floor exit is interior at every radius it reaches inside
        h_mat = np.diag(np.logspace(0.0, -2.0, 30))
        g = np.full(30, 1e-5 / math.sqrt(30))
        (_, boundary, iters), exits = assert_replays_match(h_mat, g, 1e8, eps_g=1e-6)
        _, _, plain_iters = tcg_subproblem(g, lambda v: h_mat @ v, 1e8, TcgConfig(), vec_inner, 30)
        assert not boundary and iters < plain_iters
        assert exits[0] == (False, iters) and exits[-1] == (True, 1)

    def test_zero_gradient_records_zero_steps(self):
        path = {}
        tcg_subproblem(np.zeros(3), lambda v: v, 1.0, TcgConfig(), vec_inner, 3, path=path)
        assert path and all(tcg_replay(rec, r)[2:] == (False, 0) for r, rec in path.items())
        for radius, rec in path.items():
            eta, r, _, _ = tcg_replay(rec, radius)
            assert not eta.any() and not r.any()

    @pytest.mark.parametrize("preconditioned", [False, True], ids=["plain", "preconditioned"])
    def test_model_decrease_at_every_exit(self, preconditioned):
        # the model decrease read from the residual the record keeps equals
        # the one from an explicit product, at interior, boundary,
        # negative-curvature and cap exits, for SPD and indefinite H
        gen = np.random.default_rng(11)
        kinds = set()
        for n_neg in (0, 2):
            for _ in range(5):
                dim = 8
                q, _ = np.linalg.qr(gen.standard_normal((dim, dim)))
                evals = gen.uniform(0.01, 10.0, dim)
                evals[:n_neg] *= -1.0
                h_mat = (q * evals) @ q.T
                a = gen.standard_normal((dim, dim))
                p_mat = a @ a.T + 0.1 * np.eye(dim)
                precon = (lambda v, p_mat=p_mat: p_mat @ v) if preconditioned else None
                g = gen.standard_normal(dim)
                for delta, cap in ((1e6, None), (1e6, 3), (1.0, None), (1e-2, 3)):
                    assert_replays_match(h_mat, g, delta, TcgConfig(max_inner=cap), precon=precon,
                                         kinds=kinds)
        assert kinds == {"interior", "boundary", "negative_curvature", "cap"}

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8),
           n_neg=st.integers(0, 3), log_delta=st.floats(-6.0, 3.0),
           cap=st.one_of(st.none(), st.integers(1, 8)),
           eps_g=st.sampled_from([0.0, 1.0, 10.0]))
    def test_random_operators(self, seed, dim, n_neg, log_delta, cap, eps_g):
        gen = np.random.default_rng(seed)
        q, _ = np.linalg.qr(gen.standard_normal((dim, dim)))
        evals = gen.uniform(0.01, 10.0, dim)
        evals[: min(n_neg, dim - 1)] *= -1.0
        h_mat = (q * evals) @ q.T
        g = gen.standard_normal(dim)
        assert_replays_match(h_mat, g, 10.0**log_delta, TcgConfig(max_inner=cap), eps_g=eps_g)


    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8),
           n_neg=st.integers(0, 3), log_delta=st.floats(-6.0, 3.0),
           cap=st.one_of(st.none(), st.integers(1, 8)),
           eps_g=st.sampled_from([0.0, 1.0, 10.0]))
    def test_random_operators_preconditioned(self, seed, dim, n_neg, log_delta, cap, eps_g):
        # the radius is measured in the preconditioner's norm, whose inner
        # products come from recurrences; the replay contract is unchanged
        gen = np.random.default_rng(seed)
        q, _ = np.linalg.qr(gen.standard_normal((dim, dim)))
        evals = gen.uniform(0.01, 10.0, dim)
        evals[: min(n_neg, dim - 1)] *= -1.0
        h_mat = (q * evals) @ q.T
        a = gen.standard_normal((dim, dim))
        p_mat = a @ a.T + 0.1 * np.eye(dim)
        g = gen.standard_normal(dim)
        assert_replays_match(h_mat, g, 10.0**log_delta, TcgConfig(max_inner=cap), eps_g=eps_g,
                             precon=lambda v: p_mat @ v)


class TestPreconditionedTcg:
    def test_inverse_hessian_takes_the_newton_step_in_one_iteration(self, rng):
        a = rng.standard_normal((6, 6))
        h_mat = a @ a.T + np.eye(6)
        h_inv = np.linalg.inv(h_mat)
        g = rng.standard_normal(6)
        eta, boundary, iters = tcg_subproblem(g, lambda v: h_mat @ v, 1e8, TcgConfig(), vec_inner, 6,
                                              precon=lambda v: h_inv @ v)
        assert not boundary and iters == 1
        assert np.allclose(eta, -np.linalg.solve(h_mat, g), rtol=1e-10, atol=1e-12)

    def test_identity_preconditioner_is_none_to_the_bit(self, rng):
        # precon=None runs the same recurrences as an explicit identity
        a = rng.standard_normal((8, 8))
        h_mat = a @ a.T - 2.0 * np.eye(8)  # indefinite
        g = rng.standard_normal(8)
        for delta in (1e-3, 0.5, 1e6):
            plain = tcg_subproblem(g, lambda v: h_mat @ v, delta, TcgConfig(), vec_inner, 8)
            ident = tcg_subproblem(g, lambda v: h_mat @ v, delta, TcgConfig(), vec_inner, 8,
                                   precon=lambda v: v.copy())
            assert plain[0].tobytes() == ident[0].tobytes() and plain[1:] == ident[1:]

    @pytest.mark.parametrize("h_diag", [[1.0, 2.0, 3.0, 40.0], [1.0, -2.0, 3.0, 40.0]],
                             ids=["spd", "indefinite"])
    def test_boundary_is_in_the_preconditioner_norm(self, h_diag):
        # P = diag(p) measures the step in ||eta||_M^2 = sum eta_i^2 / p_i
        h_mat = np.diag(h_diag)
        p_diag = np.array([1.0, 0.5, 0.25, 0.025])
        g = np.ones(4)
        eta, boundary, _ = tcg_subproblem(g, lambda v: h_mat @ v, 0.3, TcgConfig(), vec_inner, 4,
                                          precon=lambda v: p_diag * v)
        assert boundary
        assert math.sqrt(np.sum(eta * eta / p_diag)) == pytest.approx(0.3, rel=1e-12)

    def test_cauchy_decrease_in_the_preconditioner_norm(self, rng):
        # the first iterate is the Cauchy point of the model in the M-norm
        for _ in range(10):
            a = rng.standard_normal((6, 6))
            h_mat = a @ a.T + 0.1 * np.eye(6)
            b = rng.standard_normal((6, 6))
            p_mat = b @ b.T + 0.1 * np.eye(6)
            m_mat = np.linalg.inv(p_mat)
            g = rng.standard_normal(6)
            delta = rng.uniform(0.1, 3.0)
            eta, _, _ = tcg_subproblem(g, lambda v: h_mat @ v, delta, TcgConfig(), vec_inner, 6,
                                       precon=lambda v: p_mat @ v)
            assert eta @ m_mat @ eta <= delta**2 * (1 + 1e-10)
            decrease = -(g @ eta + 0.5 * eta @ h_mat @ eta)
            pg = p_mat @ g
            # the decrease along -P g, the steepest direction of the M-norm
            t_max = delta / math.sqrt(pg @ m_mat @ pg)
            t = min(t_max, (g @ pg) / (pg @ h_mat @ pg))
            cauchy = t * (g @ pg) - 0.5 * t * t * (pg @ h_mat @ pg)
            assert decrease >= cauchy - 1e-12


def reference_rtr(prob, z0, cfg):
    """The trust-region loop that solves tCG again, and rebuilds the gradient,
    the Hessian operator and the preconditioner, after every rejected step;
    rho reads the model decrease from the fresh solve's own record, and its
    roundoff allowance from the energy at the current point. Its last
    record is at the returned point, whatever the status."""
    delta_bar = 2.0 * math.sqrt(prob.dim)
    z, delta, f_val, trace = z0, DELTA0, prob.cost(z0), SolveTrace()
    for k in range(cfg.max_iter):
        g = prob.grad(z)
        gnorm = prob.norm(g)
        gx, gu = float(np.linalg.norm(g.dx)), float(np.linalg.norm(g.du))
        rec = TraceRecord(k=k, f=f_val, gnorm_x=gx, gnorm_u=gu, delta=delta)
        hop, precon = prob.hess_at(z), prob.precon_at(z)
        if gnorm <= cfg.eps_g:
            trace.append(rec)
            trace.status = "grad_tol"
            return z, trace
        path = {}
        tcg_subproblem(g, hop, delta, TcgConfig(), prob.inner, prob.dim, path=path, eps_g=cfg.eps_g,
                       precon=precon)
        eta, r, on_boundary, n_inner = tcg_replay(path[delta], delta)
        model_decrease = -0.5 * (prob.inner(g, eta) + prob.inner(r, eta))
        z_plus = prob.retract(z, eta)
        f_plus = prob.cost(z_plus)
        allowance = RHO_ROUNDOFF * prob.energy(z)
        rho = (f_val - f_plus + allowance) / (model_decrease + allowance)
        if rho < 0.25:
            delta = delta / 4.0
        elif rho > 0.75 and on_boundary:
            delta = min(2.0 * delta, delta_bar)
        if rho > cfg.rho_prime:
            z, f_val = z_plus, f_plus
        rec.step, rec.rho, rec.inner_iters = prob.norm(eta), rho, n_inner
        trace.append(rec)
        if delta < STALL_RADIUS:
            trace.status = "stalled"
            break
    g = prob.grad(z)
    gx, gu = float(np.linalg.norm(g.dx)), float(np.linalg.norm(g.du))
    trace.append(TraceRecord(k=len(trace.records), f=f_val, gnorm_x=gx, gnorm_u=gu, delta=delta))
    return z, trace


def assert_loop_matches_reference(pts_per, seed, eps_g):
    """The trust-region loop against `reference_rtr` on a completion instance
    that rejects a step, with rho compared bit for bit; returns the loop's
    trace."""
    obj, _, _ = uos_completion_problem(n=6, pts_per=pts_per, seed=seed)
    z0 = default_init(obj)
    cfg = RtrConfig(eps_g=eps_g, max_iter=60)
    z_ref, ref = reference_rtr(product_problem(obj), z0, cfg)
    z, trace = rtr_solve(obj, z0, cfg)
    assert trace.status == ref.status
    for c in TRACE_COLUMNS[:-1]:  # all but hess_calls
        assert trace.column(c) == ref.column(c), c
    assert z.x.tobytes() == z_ref.x.tobytes()
    assert z.u.basis.tobytes() == z_ref.u.basis.tobytes()
    # a solved step applies one product per tCG iteration, and rho reads the
    # model decrease from the tCG record; the step replayed after a
    # rejection applies none
    after_rejection = [False] + [r.rho <= cfg.rho_prime for r in trace.records[:-1]]
    assert any(after_rejection), "the instance must reject a step"
    for rec, replayed in zip(trace.records, after_rejection):
        if rec.rho is not None:
            assert rec.hess_calls == (0 if replayed else rec.inner_iters)
    assert trace.final.hess_calls is None
    return trace


def floor_binds(trace, eps_g):
    """Whether the tCG floor kappa eps_g lies above ||g||^2 on a solved step."""
    return any(r.inner_iters and r.gnorm_x**2 + r.gnorm_u**2 < TCG_KAPPA * eps_g
               for r in trace.records)


class TestRtr:
    def test_replay_matches_solving_again(self):
        trace = assert_loop_matches_reference(pts_per=8, seed=8, eps_g=1e-8)
        assert not floor_binds(trace, 1e-8)

    def test_replay_matches_solving_again_at_the_floor(self):
        trace = assert_loop_matches_reference(pts_per=10, seed=3, eps_g=1e-6)
        assert floor_binds(trace, 1e-6)

    def test_replay_matches_solving_again_to_max_iter(self):
        # the last step before max_iter is rejected: both traces end with the
        # record k = max_iter at the unmoved point
        trace = assert_loop_matches_reference(pts_per=8, seed=9, eps_g=1e-8)
        assert trace.status == "max_iter" and trace.final.k == 60
        assert trace.records[-2].rho <= RtrConfig.rho_prime

    def test_immediate_return_at_critical_point(self):
        rng = np.random.default_rng(0)
        x = np.vstack([rng.standard_normal((1, 8)), np.zeros((2, 8))])
        meas = MeasurementSubspace.from_mask(np.ones((3, 8), dtype=bool), x)
        lifting = LiftingSpec.monomial(3, 2)
        rank = int(np.linalg.matrix_rank(lifting.kernel(x)))
        obj = Objective(lifting=lifting, rank_r=rank, measurement=meas)
        z0 = default_init(obj)
        z, trace = rtr_solve(obj, z0, RtrConfig(eps_g=1e-6))
        assert trace.status == "grad_tol"
        assert len(trace.records) == 1
        assert np.allclose(z.x, z0.x)

    def test_first_order_mode_descends(self):
        obj, target, _ = uos_completion_problem(n=6, pts_per=8, seed=2)
        z0 = default_init(obj)
        cfg = RtrConfig(eps_g=1e-4, max_iter=80, use_hessian=False)
        z, trace = rtr_solve(obj, z0, cfg)
        f_vals = [r.f for r in trace.records]
        assert all(f2 <= f1 + 1e-12 * (1 + abs(f1)) for f1, f2 in zip(f_vals, f_vals[1:]))
        assert f_vals[-1] < f_vals[0]

    def test_radius_never_exceeds_cap(self):
        # f = |x - c|^2 with c far away: every step ends on the boundary with
        # rho = 1, so the radius doubles from DELTA0 up to the 2 sqrt(dim) cap
        c = np.array([100.0, 0.0])
        prob = RiemannianProblem(
            cost=lambda x: float((x - c) @ (x - c)),
            grad=lambda x: 2.0 * (x - c),
            hess_at=lambda x: (lambda v: 2.0 * v),
            retract=lambda x, v: x + v,
            inner=vec_inner,
            rand_tangent=lambda x, rng: rng.standard_normal(2),
            dim=2,
        )
        _, trace = rtr_generic(prob, np.zeros(2), RtrConfig(eps_g=1e-8, max_iter=60))
        deltas = [r.delta for r in trace.records]
        assert deltas[0] == DELTA0 and max(deltas) == 2.0 * math.sqrt(2.0)

    def test_rejected_steps_leave_iterate_unchanged(self):
        obj, target, _ = uos_completion_problem(n=6, pts_per=8, seed=4)
        seen = []
        _, trace = rtr_solve(
            obj, default_init(obj), RtrConfig(eps_g=1e-8, max_iter=50),
            on_iterate=lambda z: seen.append(z.x.copy()),
        )
        for k in range(len(trace.records) - 1):
            rec = trace.records[k]
            if rec.rho is not None and rec.rho <= 0.1 and k + 1 < len(seen):
                assert np.array_equal(seen[k + 1], seen[k])

    def test_accepted_steps_decrease_f(self):
        obj, target, _ = uos_completion_problem(n=6, pts_per=8, seed=5)
        _, trace = rtr_solve(obj, default_init(obj), RtrConfig(eps_g=1e-9, max_iter=80))
        f_vals = [r.f for r in trace.records]
        assert all(f2 <= f1 for f1, f2 in zip(f_vals, f_vals[1:]))

    def test_end_to_end_recovery(self):
        obj, target, _ = uos_completion_problem(n=15, k=2, dim=2, pts_per=20, delta=0.6, seed=0)
        z, trace = rtr_solve(obj, default_init(obj), RtrConfig(eps_g=1e-6, max_iter=500), truth=target)
        assert rmse(z.x, target) <= 1e-3
        gnorm = math.hypot(trace.final.gnorm_x, trace.final.gnorm_u)
        assert gnorm <= 1e-6

    def test_non_finite_cost_raises(self):
        prob = RiemannianProblem(
            cost=lambda x: float("nan"),
            grad=lambda x: np.ones(2),
            hess_at=lambda x: (lambda v: v),
            retract=lambda x, v: x + v,
            inner=vec_inner,
            rand_tangent=lambda x, rng: rng.standard_normal(2),
            dim=2,
        )
        with pytest.raises(NumericalError):
            rtr_generic(prob, np.zeros(2), RtrConfig())

    def test_second_order_stopping_on_saddle(self):
        # f(x) = x1^2 - x2^2 on R^2: gradient vanishes at 0 but curvature is
        # negative, so eps_h < inf must push the iterate off the saddle
        h_mat = np.diag([2.0, -2.0])
        prob = RiemannianProblem(
            cost=lambda x: float(x[0] ** 2 - x[1] ** 2),
            grad=lambda x: h_mat @ x,
            hess_at=lambda x: (lambda v: h_mat @ v),
            retract=lambda x, v: x + v,
            inner=vec_inner,
            rand_tangent=lambda x, rng: rng.standard_normal(2),
            dim=2,
        )
        z, trace = rtr_generic(prob, np.zeros(2), RtrConfig(eps_g=1e-8, eps_h=1e-3, max_iter=50))
        assert prob.cost(z) < 0.0

    def test_stalls_when_every_step_raises_the_cost(self):
        # the gradient points away from the minimum at 0, so every model step
        # raises f = |x|^2 and is rejected until the radius drops below the
        # stall radius; the trace ends with the record of the point it
        # returns, z0, at the radius below the stall radius
        prob = RiemannianProblem(
            cost=lambda x: float(x @ x),
            grad=lambda x: np.array([1.0, 0.0]),
            hess_at=lambda x: (lambda v: v),
            retract=lambda x, v: x + v,
            inner=vec_inner,
            rand_tangent=lambda x, rng: rng.standard_normal(2),
            dim=2,
        )
        z0 = np.zeros(2)
        z, trace = rtr_generic(prob, z0, RtrConfig(max_iter=100))
        assert trace.status == "stalled"
        *steps, last = trace.records
        assert all(r.rho < 0.0 for r in steps)
        assert last.rho is None and last.step is None and last.k == len(steps)
        assert (last.f, last.gnorm_x) == (0.0, 1.0)
        assert steps[-1].delta / 4.0 == last.delta < STALL_RADIUS <= steps[-1].delta
        assert z is z0

    def test_non_finite_gradient_raises(self):
        # nan > eps_g is false, so a NaN gradient must not pass the
        # gradient test as grad_tol
        prob = RiemannianProblem(
            cost=lambda x: float(x @ x),
            grad=lambda x: np.full(2, np.nan),
            hess_at=lambda x: (lambda v: v),
            retract=lambda x, v: x + v,
            inner=vec_inner,
            dim=2,
        )
        with pytest.raises(NumericalError, match=r"^gradient is not finite at iteration 0 \(norm nan\)$"):
            rtr_generic(prob, np.zeros(2), RtrConfig())

    @pytest.mark.parametrize("cost,grad,status,n_records", [
        # every step toward the far minimum c = (100, 0) is accepted
        (lambda x: float((x[0] - 100.0) ** 2 + x[1] ** 2),
         lambda x: 2.0 * (x - np.array([100.0, 0.0])), "max_iter", 4),
        # every step raises f = |x|^2 and is rejected
        (lambda x: float(x @ x), lambda x: np.array([1.0, 0.0]), "max_iter", 4),
        # one Newton step reaches the minimum at (0.5, 0), which it stops at
        (lambda x: float(x @ x - x[0]), lambda x: 2.0 * x - np.array([1.0, 0.0]), "grad_tol", 2),
    ], ids=["max_iter_accepted", "max_iter_rejected", "grad_tol"])
    def test_trace_ends_with_the_record_of_the_returned_point(self, cost, grad, status, n_records):
        # one record and one on_iterate call per pass of the loop; the last
        # record has no step, its k is the number of iterations taken, and
        # it holds the cost and gradient of the returned point
        hess_points = []

        def hess_at(x):
            hess_points.append(x.copy())
            return lambda v: 2.0 * v

        prob = RiemannianProblem(
            cost=cost,
            grad=grad,
            hess_at=hess_at,
            retract=lambda x, v: x + v,
            inner=vec_inner,
            dim=2,
        )
        seen = []
        z, trace = rtr_generic(prob, np.array([0.0, 0.5]), RtrConfig(eps_g=1e-8, max_iter=3),
                               on_iterate=seen.append)
        assert trace.status == status
        assert [r.k for r in trace.records] == list(range(n_records))
        assert len(seen) == n_records and seen[-1] is z
        last = trace.final
        assert (last.step, last.rho, last.inner_iters, last.hess_calls) == (None,) * 4
        assert all(r.rho is not None for r in trace.records[:-1])
        assert last.f == prob.cost(z) and last.gnorm_x == prob.norm(grad(z))
        # the model operator is built at a point only to step from it
        stepped_from = {r.k for r in trace.records[:-1]}
        assert len(hess_points) == len({seen[k].tobytes() for k in stepped_from})

    @pytest.mark.parametrize("eps_h", [math.inf, 1e-3])
    def test_hessian_built_only_to_step_or_estimate(self, eps_h, monkeypatch):
        # the model operator is built at the first step from a point, and
        # each Lanczos estimate of the second-order test builds its own, so
        # the point where the solve stops gets no model operator
        counts = {"rhess_operator": 0, "rprecon_operator": 0, "tcg_subproblem": 0,
                  "_min_eig_estimate": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("rhess_operator", "rprecon_operator"):
            monkeypatch.setattr(Objective, name, counted(name, getattr(Objective, name)))
        for name in ("tcg_subproblem", "_min_eig_estimate"):
            monkeypatch.setattr(nlrecover.solvers, name, counted(name, getattr(nlrecover.solvers, name)))
        obj, _, _ = uos_completion_problem(n=6, pts_per=8, seed=3)
        _, trace = rtr_solve(obj, default_init(obj), RtrConfig(eps_g=1e-6, eps_h=eps_h, max_iter=100))
        assert trace.status == "grad_tol"
        assert counts["_min_eig_estimate"] == (0 if eps_h == math.inf else 1)
        # tCG runs once per point stepped from (every point but the last);
        # the steps after a rejection are replayed
        accepted = [r.rho > RtrConfig.rho_prime for r in trace.records[:-1]]
        assert counts["tcg_subproblem"] == sum(accepted) < len(accepted)
        assert counts["rhess_operator"] == counts["tcg_subproblem"] + counts["_min_eig_estimate"]
        # the preconditioner is built next to the model operator
        assert counts["rprecon_operator"] == counts["tcg_subproblem"]

    def test_first_order_model_builds_no_preconditioner(self, monkeypatch):
        # rtr1's model is the identity, and so is its preconditioner
        calls = []
        monkeypatch.setattr(Objective, "rprecon_operator", lambda *args: calls.append(args))
        obj, _, _ = uos_completion_problem(n=6, pts_per=8, seed=3)
        _, trace = rtr_solve(obj, default_init(obj), RtrConfig(max_iter=5, use_hessian=False))
        assert len(trace.records) == 6 and calls == []

    def test_second_order_stop_at_strict_minimum(self):
        # zero gradient and positive curvature: the Lanczos estimate ends the
        # solve on the first record, which counts the products it took
        h_mat = np.diag([1.0, 2.0, 3.0])
        products = []

        def hess_at(x):
            def hop(v):
                products.append(1)
                return h_mat @ v
            return hop

        prob = RiemannianProblem(
            cost=lambda x: float(0.5 * x @ h_mat @ x),
            grad=lambda x: h_mat @ x,
            hess_at=hess_at,
            retract=lambda x, v: x + v,
            inner=vec_inner,
            rand_tangent=lambda x, rng: rng.standard_normal(3),
            dim=3,
        )
        z0 = np.zeros(3)
        z, trace = rtr_generic(prob, z0, RtrConfig(eps_g=1e-8, eps_h=1e-3))
        assert trace.status == "grad_tol"
        assert [r.k for r in trace.records] == [0]
        assert 0 < trace.records[0].hess_calls == len(products) <= prob.dim
        assert z is z0

    @staticmethod
    def count_lanczos(monkeypatch):
        """The product count of every Lanczos estimate, in order."""
        counts = []
        estimate = nlrecover.solvers._min_eig_estimate

        def counted(*args):
            out = estimate(*args)
            counts.append(out[2])
            return out

        monkeypatch.setattr(nlrecover.solvers, "_min_eig_estimate", counted)
        return counts

    @pytest.mark.parametrize("eps_h", [math.inf, 1e-3])
    def test_hessian_products_are_the_tcg_iterations(self, eps_h, monkeypatch):
        # rho reads the model decrease from the tCG record, so the model
        # operators apply one product per tCG iteration of a solved step,
        # and the second-order stop adds its Lanczos products
        products = []
        build = Objective.rhess_operator

        def counted(self, z):
            op = build(self, z)

            def apply(v):
                products.append(1)
                return op(v)

            return apply

        monkeypatch.setattr(Objective, "rhess_operator", counted)
        lanczos = self.count_lanczos(monkeypatch)
        obj, _, _ = uos_completion_problem(n=6, pts_per=8, seed=3)
        _, trace = rtr_solve(obj, default_init(obj), RtrConfig(eps_g=1e-6, eps_h=eps_h, max_iter=100))
        assert trace.status == "grad_tol"
        # a step after a rejection is replayed: its inner_iters is the
        # length of the CG path it was read from, which took no product
        steps = trace.records[:-1]
        solved = [r.inner_iters for r, prev in zip(steps, [None] + steps)
                  if prev is None or prev.rho > RtrConfig.rho_prime]
        assert len(solved) < len(steps)
        assert len(products) == sum(solved) + sum(lanczos) == sum(r.hess_calls or 0 for r in trace.records)
        assert len(lanczos) == (0 if eps_h == math.inf else 1)

    def test_negative_curvature_step_counts_lanczos_and_one_product(self, monkeypatch):
        # next to the saddle of x1^2 - x2^2 the second-order stop steps along
        # the Ritz direction; its residual g + H eta is the one product tCG
        # did not take, and rho reads its model decrease from it as from any
        # tCG record
        h_mat = np.diag([2.0, -2.0])
        products, replayed = [], []

        def hess_at(x):
            def hop(v):
                products.append(1)
                return h_mat @ v
            return hop

        prob = RiemannianProblem(
            cost=lambda x: float(x[0] ** 2 - x[1] ** 2),
            grad=lambda x: h_mat @ x,
            hess_at=hess_at,
            retract=lambda x, v: x + v,
            inner=vec_inner,
            rand_tangent=lambda x, rng: rng.standard_normal(2),
            dim=2,
        )
        lanczos = self.count_lanczos(monkeypatch)
        replay = nlrecover.solvers.tcg_replay
        monkeypatch.setattr(nlrecover.solvers, "tcg_replay",
                            lambda *args: replayed.append(replay(*args)) or replayed[-1])
        x0 = np.array([1e-9, 2e-9])  # ||g|| = 4.5e-9 passes eps_g
        _, trace = rtr_generic(prob, x0, RtrConfig(eps_g=1e-8, eps_h=1e-3, max_iter=10))
        first = trace.records[0]
        assert len(lanczos) == 1 and first.inner_iters == 0
        assert first.hess_calls == lanczos[0] + 1
        assert len(products) == sum(r.hess_calls or 0 for r in trace.records)
        eta, r, boundary, iters = replayed[0]
        g = h_mat @ x0
        assert boundary and iters == 0 and np.linalg.norm(eta) == pytest.approx(first.delta)
        decrease = -0.5 * (g @ eta + r @ eta)
        explicit = -(g @ eta + 0.5 * eta @ (h_mat @ eta))
        assert math.isclose(decrease, explicit, rel_tol=1e-9), (decrease, explicit)
        actual = prob.cost(x0) - prob.cost(x0 + eta)
        assert first.rho == actual / decrease


class TestRho:
    """rho = (actual + e) / (model + e) with e = RHO_ROUNDOFF E, E the
    problem's energy at the current point."""

    @staticmethod
    def first_record(monkeypatch, f_plus, energy):
        # every tCG record replays to the zero step, whose model decrease is
        # 0; the cost is 1.5 at the start and f_plus at the trial point
        monkeypatch.setattr(nlrecover.solvers, "tcg_replay",
                            lambda record, delta: (np.zeros(2), np.ones(2), False, 1))
        costs = iter([1.5, f_plus])
        prob = RiemannianProblem(
            cost=lambda x: next(costs),
            grad=lambda x: np.array([1.0, 0.0]),
            hess_at=lambda x: (lambda v: v),
            retract=lambda x, v: x + v,
            inner=vec_inner,
            dim=2,
            energy=energy,
        )
        _, trace = rtr_generic(prob, np.zeros(2), RtrConfig(max_iter=1))
        return trace.records[0]

    @pytest.mark.parametrize("f_plus", [1.5, math.nextafter(1.5, 0.0), math.nextafter(1.5, 2.0)],
                             ids=["unchanged", "one_ulp_down", "one_ulp_up"])
    def test_zero_model_decrease_reads_rho_near_one(self, f_plus, monkeypatch):
        rec = self.first_record(monkeypatch, f_plus, energy=lambda x: 4.0)
        allowance = RHO_ROUNDOFF * 4.0
        assert rec.rho == ((1.5 - f_plus) + allowance) / allowance
        assert abs(rec.rho - 1.0) <= 0.01 and rec.rho > RtrConfig.rho_prime

    @pytest.mark.parametrize("f_plus", [1.5, math.nextafter(1.5, 0.0), math.nextafter(1.5, 2.0)],
                             ids=["unchanged", "one_ulp_down", "one_ulp_up"])
    def test_zero_model_decrease_without_energy_is_rejected(self, f_plus, monkeypatch):
        # no allowance: 0 / 0 would be NaN, and rho reads -inf instead
        rec = self.first_record(monkeypatch, f_plus, energy=None)
        assert rec.rho == -math.inf

    @pytest.mark.parametrize("penalty", [None, 2.0])
    def test_problems_read_the_lifted_energy(self, penalty):
        # the lifted energy of the kept lift, plus lambda ||b||^2 under the
        # penalty, for the product and the X-factor problem alike
        obj = small_dense_objective(penalty=penalty)
        z = default_init(obj)
        expect = obj.lifting.energy(obj.lifting.lift(z.x).lifted)
        if penalty is not None:
            expect += penalty * float(obj.measurement.b @ obj.measurement.b)
        assert product_problem(obj).energy(z) == expect
        assert x_factor_problem(obj, z.u).energy(z.x) == expect


class TestOneLiftPerPoint:
    """`Objective.lift` keeps the lift of the last X, so a trust region lifts
    each point once, at its cost: the gradient and the Hessian operator at an
    accepted point read the lift its cost made."""

    @staticmethod
    def count(monkeypatch, cls, name, counts):
        fn = getattr(cls, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    @pytest.mark.parametrize("kind", ["monomial_kernel", "gaussian_kernel", "monomial_features"])
    def test_rtr_lifts_once_per_cost(self, kind, monkeypatch):
        # an instance whose solve rejects a step, so the count covers the
        # point kept after a rejection
        seed = {"monomial_kernel": 4}.get(kind, 0)
        obj, _ = small_masked_objective(kind=kind, n=4, s=12, seed=seed)
        z0 = default_init(obj)
        counts = {"lift": 0, "cost": 0, "rgrad": 0, "rhess_operator": 0}
        self.count(monkeypatch, LiftingSpec, "lift", counts)
        for name in ("cost", "rgrad", "rhess_operator"):
            self.count(monkeypatch, Objective, name, counts)
        _, trace = rtr_solve(obj, z0, RtrConfig(eps_g=1e-10, max_iter=60))
        rejected = [r for r in trace.records if r.rho is not None and r.rho <= RtrConfig.rho_prime]
        assert rejected and counts["rgrad"] > 1 and counts["rhess_operator"] > 1
        # the first cost reads the lift that default_init made
        assert counts["lift"] == counts["cost"] - 1

    @pytest.mark.parametrize("kind", ["gaussian_kernel", "monomial_features"])
    def test_altmin2_inner_trust_region_lifts_once_per_trial(self, kind, monkeypatch):
        # each inner trust region starts at the round's X, which the round
        # start lifted; after that it lifts once per trial cost, and its
        # gradients and Hessian operators lift nothing
        obj, _ = small_masked_objective(kind=kind, n=4, s=12, seed=3)
        z0 = default_init(obj)
        counts = {"lift": 0, "cost": 0, "rgrad_x": 0, "rhess_x_operator": 0}
        self.count(monkeypatch, LiftingSpec, "lift", counts)
        for name in ("cost", "rgrad_x", "rhess_x_operator"):
            self.count(monkeypatch, Objective, name, counts)
        inner_counts = []
        rtr_fn = nlrecover.solvers.rtr_generic

        def counted_rtr(*args, **kwargs):
            start = dict(counts)
            out = rtr_fn(*args, **kwargs)
            inner_counts.append({name: counts[name] - start[name] for name in counts})
            return out

        monkeypatch.setattr(nlrecover.solvers, "rtr_generic", counted_rtr)
        cfg = replace(build_solver_configs({}, "altmin2"), max_outer=3)
        altmin_solve(obj, z0, cfg, rng=np.random.default_rng(0))
        assert len(inner_counts) == 3
        assert sum(c["rhess_x_operator"] for c in inner_counts) > 3
        for c in inner_counts:
            assert c["cost"] > 1 and c["rgrad_x"] >= 1
            assert c["lift"] == c["cost"] - 1


class TestConfigRanges:
    @pytest.mark.parametrize("make,message", [
        (lambda: RtrConfig(max_iter=-4), "max_iter must be >= 0, got -4"),
        (lambda: RtrConfig(eps_g=-1e-6), "eps_g must be >= 0, got -1e-06"),
        (lambda: RtrConfig(eps_h=-1.0), "eps_h must be >= 0, got -1.0"),
        (lambda: RtrConfig(eps_g=math.nan), "eps_g must be >= 0, got nan"),
        (lambda: TcgConfig(max_inner=0), "max_inner must be >= 1, got 0"),
        (lambda: AltminConfig(max_outer=-1), "max_outer must be >= 0, got -1"),
        (lambda: AltminConfig(max_inner=-1), "max_inner must be >= 0, got -1"),
        (lambda: AltminConfig(eps_x=-1e-6), "eps_x must be >= 0, got -1e-06"),
        (lambda: AltminConfig(eps_u=-1e-6), "eps_u must be >= 0, got -1e-06"),
    ], ids=["max_iter", "eps_g", "eps_h", "nan_eps_g", "tcg_max_inner", "max_outer",
            "altmin_max_inner", "eps_x", "eps_u"])
    def test_out_of_range_setting_rejected(self, make, message):
        # a negative budget or tolerance would run no iteration (or, for
        # max_outer, return nothing) instead of failing
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()

    def test_edges_accepted(self):
        assert RtrConfig(eps_g=0.0, eps_h=math.inf, max_iter=0).max_iter == 0
        assert TcgConfig(max_inner=None).max_inner is None and TcgConfig(max_inner=1).max_inner == 1
        assert AltminConfig(eps_x=0.0, eps_u=0.0, max_outer=0, max_inner=0).max_outer == 0


class TestAltmin:
    def test_zero_iterations_at_solution(self):
        rng = np.random.default_rng(0)
        x = np.vstack([rng.standard_normal((1, 8)), np.zeros((2, 8))])
        meas = MeasurementSubspace.from_mask(np.ones((3, 8), dtype=bool), x)
        lifting = LiftingSpec.monomial(3, 2)
        rank = int(np.linalg.matrix_rank(lifting.kernel(x)))
        obj = Objective(lifting=lifting, rank_r=rank, measurement=meas)
        z0 = default_init(obj)
        z, trace = altmin_solve(obj, z0, AltminConfig())
        assert trace.status == "grad_tol"
        assert len(trace.records) == 1

    def test_monotone_cost(self):
        obj, target, _ = uos_completion_problem(n=6, pts_per=8, seed=6)
        _, trace = altmin_solve(
            obj, default_init(obj),
            AltminConfig(eps_x=1e-5, eps_u=1e-5, max_outer=40, max_inner=30),
            rng=np.random.default_rng(0),
        )
        f_vals = [r.f for r in trace.records]
        assert all(f2 <= f1 + 1e-12 * (1 + abs(f1)) for f1, f2 in zip(f_vals, f_vals[1:]))

    def test_iterates_stay_feasible(self):
        obj, target, _ = uos_completion_problem(n=6, pts_per=8, seed=7)
        worst = [0.0]

        def check(z):
            worst[0] = max(worst[0], float(np.linalg.norm(obj.measurement.residual(z.x))))

        altmin_solve(
            obj, default_init(obj),
            AltminConfig(eps_x=1e-5, eps_u=1e-5, max_outer=30, max_inner=30),
            rng=np.random.default_rng(0), on_iterate=check,
        )
        assert worst[0] <= 1e-9 * (1 + np.linalg.norm(obj.measurement.b))

    def test_adaptive_schedule_converges(self):
        obj, target, _ = uos_completion_problem(n=6, pts_per=8, seed=8)
        z, trace = altmin_solve(
            obj, default_init(obj),
            AltminConfig(eps_x=1e-4, eps_u=1e-4, schedule="adaptive",
                         max_outer=200, max_inner=100),
            rng=np.random.default_rng(0),
        )
        assert trace.status in ("grad_tol", "stalled", "max_iter")
        assert trace.records[-1].f <= trace.records[0].f

    def test_failed_search_ends_only_the_round(self, monkeypatch):
        # a LineSearchError ends the round's inner loop; the subspace update
        # and the later rounds still run
        real, calls = nlrecover.solvers.armijo, []

        def failing_once(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise LineSearchError("forced")
            return real(*args, **kwargs)

        monkeypatch.setattr(nlrecover.solvers, "armijo", failing_once)
        obj, _, _ = uos_completion_problem(n=6, pts_per=8, seed=6)
        _, trace = altmin_solve(
            obj, default_init(obj),
            AltminConfig(eps_x=1e-5, eps_u=1e-5, max_outer=10, max_inner=30),
            rng=np.random.default_rng(0),
        )
        first = trace.records[0]
        assert (first.inner_iters, first.step) == (0, None) and first.svd_mode is not None
        assert len(calls) > 1 and trace.records[1].inner_iters > 0
        assert trace.records[-1].f < first.f

    def test_halving_tolerance_bounded_cost_growth(self):
        # gradient-step count grows by at most ~4x when eps is halved
        obj, target, _ = uos_completion_problem(n=6, k=2, dim=1, pts_per=8, delta=0.7, seed=9)
        counts = {}
        for eps in (2e-3, 1e-3):
            _, trace = altmin_solve(
                obj, default_init(obj),
                AltminConfig(eps_x=eps, eps_u=eps, max_outer=2000, max_inner=400),
                rng=np.random.default_rng(0),
            )
            counts[eps] = sum(r.inner_iters or 0 for r in trace.records)
        factor = counts[1e-3] / max(counts[2e-3], 1)
        assert 1.0 <= factor <= 16.0

    def test_inner_trust_region_variant(self):
        obj, target, _ = uos_completion_problem(n=6, pts_per=8, seed=10)
        z, trace = altmin_solve(
            obj, default_init(obj),
            AltminConfig(eps_x=1e-5, eps_u=1e-5, inner="trust_region",
                         max_outer=60, max_inner=40),
            rng=np.random.default_rng(0),
        )
        f_vals = [r.f for r in trace.records]
        assert f_vals[-1] <= f_vals[0]
        # a round applies at least one Hessian product per inner iteration
        for rec in trace.records[:-1]:
            assert rec.hess_calls >= rec.inner_iters

    def test_rejects_penalized_objective(self):
        obj, _ = small_masked_objective(seed=16)
        pen = Objective(lifting=obj.lifting, rank_r=obj.rank_r,
                        measurement=obj.measurement, penalty_lambda=1.0)
        with pytest.raises(ValueError):
            altmin_solve(pen, default_init(obj), AltminConfig())

    def test_randomized_subspace_that_raises_f_falls_back_to_exact(self, monkeypatch):
        obj, _ = small_masked_objective(s=10, r=2)
        x_mat = default_init(obj).x
        lifted = obj.lifting.lift(x_mat).lifted
        exact = truncated_svd(lifted, obj.rank_r)
        f_val = obj.lifting.residual(lifted, exact.basis)
        args = (obj, lifted, f_val, 1e6 * (1.0 + f_val), False, np.random.default_rng(0))
        # f far below the policy's thresholds routes to the plain randomized SVD
        assert nlrecover.solvers._subspace_update(*args)[1] == "rand_plain"
        worse = truncated_svd(np.random.default_rng(1).standard_normal(lifted.shape), obj.rank_r)
        monkeypatch.setattr(nlrecover.solvers, "randomized_svd", lambda *a, **k: worse)
        assert obj.lifting.residual(lifted, worse.basis) > f_val
        u_new, mode = nlrecover.solvers._subspace_update(*args)
        assert mode == "exact"
        assert np.array_equal(u_new.basis, exact.basis)

    def test_round_evaluates_each_point_once(self, monkeypatch):
        # an altmin1 round builds P_perp once and lifts each point once: the
        # Armijo trials of the monomial kernel (d = 2) read their cost from
        # the line coefficients and lift nothing, and the lift of each
        # accepted point gives the gradient, the next line coefficients, the
        # subspace update and the next round's recorded cost and gradient.
        # So a round lifts once per accepted step and nowhere else (not at
        # its start, and not after a failed line search), evaluates the cost
        # once (at its start), builds no kernel through monomial_kernel, and
        # computes the X gradient once per accepted step (`Objective.rgrad_x`,
        # through the round's X-subproblem) besides the one in its start's
        # `Objective.rgrad`, except at the last step of a round cut at
        # max_inner, whose gradient nothing reads.
        counts = {"_w_perp": 0, "monomial_kernel": 0, "rgrad": 0, "rgrad_x": 0, "cost": 0,
                  "lift": 0, "trials": 0, "failed": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("_w_perp", "monomial_kernel"):
            monkeypatch.setattr(nlrecover.lifting, name, counted(name, getattr(nlrecover.lifting, name)))
        for name in ("rgrad", "rgrad_x", "cost"):
            monkeypatch.setattr(Objective, name, counted(name, getattr(Objective, name)))
        monkeypatch.setattr(LiftingSpec, "lift", counted("lift", LiftingSpec.lift))
        armijo_fn = nlrecover.solvers.armijo

        def counted_armijo(f_along, *args, **kwargs):
            try:
                return armijo_fn(counted("trials", f_along), *args, **kwargs)
            except LineSearchError:
                counts["failed"] += 1
                raise

        monkeypatch.setattr(nlrecover.solvers, "armijo", counted_armijo)
        obj, _, _ = uos_completion_problem(n=15, k=2, dim=2, pts_per=20, delta=0.6, seed=0)
        failed_rounds = capped_rounds = 0
        for max_inner in (200, 4):
            cfg = replace(build_solver_configs({}, "altmin1"), max_outer=3, max_inner=max_inner)
            at_round_start = []
            _, trace = altmin_solve(obj, default_init(obj), cfg, rng=np.random.default_rng(0),
                                    on_iterate=lambda z: at_round_start.append(dict(counts)))
            for rec, start, end in zip(trace.records, at_round_start, at_round_start[1:]):
                assert rec.inner_iters > 1 and rec.svd_mode != "skip"
                diff = {name: end[name] - start[name] for name in counts}
                assert diff["trials"] >= rec.inner_iters
                assert diff["failed"] <= 1
                capped = rec.inner_iters == max_inner
                assert diff == {"_w_perp": 1, "monomial_kernel": 0, "rgrad": 1,
                                "rgrad_x": rec.inner_iters + (not capped), "cost": 1,
                                "lift": rec.inner_iters, "trials": diff["trials"],
                                "failed": diff["failed"]}
                failed_rounds += diff["failed"]
                capped_rounds += capped
        # both exceptions occur: a failed search (uncapped run) and the cap
        assert failed_rounds >= 1 and capped_rounds >= 1

    def test_altmin2_round_computes_each_x_gradient_once(self, monkeypatch):
        # an altmin2 round computes the X gradient at its start (inside
        # `Objective.rgrad`), which its inner trust region starts from, and at
        # each point that trust region accepts; at the returned X the
        # subspace update reads the U gradient alone
        counts = {"rgrad": 0, "rgrad_x": 0, "rgrad_u": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in counts:
            monkeypatch.setattr(Objective, name, counted(name, getattr(Objective, name)))
        accepted = []  # the steps each inner trust region accepted
        rtr_fn = nlrecover.solvers.rtr_generic

        def counted_rtr(*args, **kwargs):
            x, sub_trace = rtr_fn(*args, **kwargs)
            accepted.append(sum(r.rho is not None and r.rho > RtrConfig.rho_prime
                                for r in sub_trace.records))
            return x, sub_trace

        monkeypatch.setattr(nlrecover.solvers, "rtr_generic", counted_rtr)
        obj, _, _ = uos_completion_problem(n=6, pts_per=8, seed=10)
        at_round_start = []
        _, trace = altmin_solve(obj, default_init(obj),
                                replace(build_solver_configs({}, "altmin2"), max_outer=3),
                                rng=np.random.default_rng(0),
                                on_iterate=lambda z: at_round_start.append(dict(counts)))
        assert len(accepted) == 3 and len(trace.records) == 4
        for n_accepted, start, end in zip(accepted, at_round_start, at_round_start[1:]):
            assert n_accepted >= 1
            assert {name: end[name] - start[name] for name in counts} == \
                {"rgrad": 1, "rgrad_x": 1 + n_accepted, "rgrad_u": 2}

    def test_svd_skip_marked_in_trace(self):
        obj, target, _ = uos_completion_problem(n=6, pts_per=8, seed=11)
        _, trace = altmin_solve(
            obj, default_init(obj),
            AltminConfig(eps_x=1e-6, eps_u=1e3, max_outer=10, max_inner=20),
            rng=np.random.default_rng(0),
        )
        modes = {r.svd_mode for r in trace.records if r.svd_mode}
        assert modes <= {"skip"}


class TestAltminDirections:
    """altmin1's inner steps go along d = -g, except right after a step whose
    Armijo search accepted `quartic_minimizer`'s trial: then along the
    Polak-Ribiere+ direction -g + beta d_prev, beta = max(0, <g, g - g_prev>
    / ||g_prev||^2), while its slope is negative. The slope <g, d> goes to
    both `quartic_minimizer` and `armijo`."""

    @staticmethod
    def steps(monkeypatch, obj, max_outer):
        """The trace and, per round, the steps of its inner loop: the
        gradient (the last `rgrad_x`), the direction and line coefficients
        (`line_coefficients`), and the slope, first trial and accepted alpha
        (`armijo`; alpha None after a failed search)."""
        rounds, grad = [], [None]
        rgrad_x, line_coefficients = Objective.rgrad_x, Objective.line_coefficients
        armijo_fn = nlrecover.solvers.armijo

        def spy_rgrad_x(self, z):
            grad[0] = rgrad_x(self, z)
            return grad[0]

        def spy_line_coefficients(self, z, dx):
            coeffs = line_coefficients(self, z, dx)
            rounds[-1].append({"g": grad[0], "d": dx, "coeffs": coeffs})
            return coeffs

        def spy_armijo(f_along, f0, g_dot_d, first=None):
            step = rounds[-1][-1]
            step.update(slope=g_dot_d, first=first, alpha=None)
            alpha, f_val = armijo_fn(f_along, f0, g_dot_d, first=first)
            step["alpha"] = alpha
            return alpha, f_val

        monkeypatch.setattr(Objective, "rgrad_x", spy_rgrad_x)
        monkeypatch.setattr(Objective, "line_coefficients", spy_line_coefficients)
        monkeypatch.setattr(nlrecover.solvers, "armijo", spy_armijo)
        cfg = replace(build_solver_configs({}, "altmin1"), max_outer=max_outer)
        _, trace = altmin_solve(obj, default_init(obj), cfg, rng=np.random.default_rng(0),
                                on_iterate=lambda z: rounds.append([]))
        return trace, rounds[:-1]  # the last round start is the returned point

    def test_conjugate_only_after_an_accepted_exact_step(self, monkeypatch):
        obj, _, _ = uos_completion_problem(n=15, k=2, dim=2, pts_per=20, delta=0.6, seed=0)
        trace, rounds = self.steps(monkeypatch, obj, max_outer=6)
        n_conjugate = n_exact = 0
        for rec, steps in zip(trace.records, rounds):
            assert len(steps) > 1 and rec.inner_iters == sum(s["alpha"] is not None for s in steps)
            g0 = steps[0]["g"]
            # a round starts with a steepest-descent step, the one `step` records
            assert np.array_equal(steps[0]["d"], -g0)
            assert steps[0]["slope"] == -float(np.vdot(g0, g0))
            assert rec.step == steps[0]["alpha"]
            for prev, step in zip([None] + steps, steps):
                g, d, slope = step["g"], step["d"], step["slope"]
                assert slope < 0 and slope == float(np.vdot(g, d))
                assert step["coeffs"] is not None
                assert step["first"] == quartic_minimizer(slope, *step["coeffs"])
                exact = prev is not None and prev["alpha"] == prev["first"]
                expected = -g
                if exact:
                    beta = max(0.0, (float(np.vdot(g, g)) - float(np.vdot(g, prev["g"])))
                               / float(np.vdot(prev["g"], prev["g"])))
                    if beta > 0.0 and float(np.vdot(g, -g + beta * prev["d"])) < 0.0:
                        expected = -g + beta * prev["d"]
                assert np.array_equal(d, expected)
                n_exact += exact
                n_conjugate += not np.array_equal(d, -g)
        # most steps follow an exact one and go along a conjugate direction
        assert n_conjugate > 0.5 * n_exact > 0

    def test_gaussian_kernel_steps_along_minus_g(self, monkeypatch):
        # no exact line step: every step is steepest descent from alpha0
        obj, _ = small_masked_objective(kind="gaussian_kernel", n=4, s=12, seed=3)
        trace, rounds = self.steps(monkeypatch, obj, max_outer=4)
        assert sum(len(steps) for steps in rounds) > len(rounds)
        for steps in rounds:
            for step in steps:
                assert step["coeffs"] is None and step["first"] is None
                assert np.array_equal(step["d"], -step["g"])
                assert step["slope"] == -float(np.vdot(step["g"], step["g"])) < 0

    def test_inner_steps_on_the_s40_mask_instance(self):
        # the altmin_mask benchmark instance of key (0, 0), built from
        # library calls: 20 rounds of altmin1 took 3,943 steepest-descent
        # steps in all and take 773 with the conjugate directions
        rng = np.random.default_rng(np.random.SeedSequence((0, 0)))
        target, _ = gen_uos(UosSpec(n=15, k=2, dims=(2, 2), pts_per=20), rng)
        meas = gen_entry_mask(target, 0.6, rng)
        lifting = LiftingSpec.monomial(15, 2, 1.0)
        obj = Objective(lifting=lifting, rank_r=numerical_rank(lifting.kernel(target), 1e-8),
                        measurement=meas)
        cfg = replace(build_solver_configs({}, "altmin1"), max_outer=20)
        _, trace = altmin_solve(obj, default_init(obj), cfg, rng=rng, truth=target)
        assert trace.status == "max_iter" and len(trace.records) == 21
        assert sum(r.inner_iters for r in trace.records[:-1]) <= 1500


class TestAltminLineCost:
    """Where `Objective.line_coefficients` gives finite (c2, c3, c4), the
    Armijo trials of altmin1 and `simple` read the cost along X + a D from
    f + `line_quartic`(a, <g, D>, c2, c3, c4) and lift nothing, and only the
    accepted point is lifted. The other liftings, and non-finite
    coefficients, evaluate and lift each trial. The quartic rounds at about
    eps sum_k |c_k a^k| and the direct cost at eps trace(K)."""

    @staticmethod
    def counted_run(monkeypatch, obj, solver="altmin1", max_outer=3):
        """The trace of an altmin run and, per round, the lifts, the cost
        evaluations and the Armijo trials it made, and the X of each lift."""
        counts = {"lift": 0, "cost": 0, "trials": 0}
        lifted = []
        lift, cost, armijo_fn = LiftingSpec.lift, Objective.cost, nlrecover.solvers.armijo

        def spy_lift(self, x):
            counts["lift"] += 1
            lifted.append(x)
            return lift(self, x)

        def spy_cost(self, z):
            counts["cost"] += 1
            return cost(self, z)

        def spy_armijo(f_along, *args, **kwargs):
            def counted(a):
                counts["trials"] += 1
                return f_along(a)
            return armijo_fn(counted, *args, **kwargs)

        monkeypatch.setattr(LiftingSpec, "lift", spy_lift)
        monkeypatch.setattr(Objective, "cost", spy_cost)
        monkeypatch.setattr(nlrecover.solvers, "armijo", spy_armijo)
        starts = []
        cfg = replace(build_solver_configs({}, solver), max_outer=max_outer)
        _, trace = altmin_solve(obj, default_init(obj), cfg, rng=np.random.default_rng(0),
                                on_iterate=lambda z: starts.append((z, dict(counts), len(lifted))))
        rounds = []
        for (z, start, i), (_, end, j) in zip(starts, starts[1:]):
            rounds.append(({name: end[name] - start[name] for name in counts}, z, lifted[i:j]))
        return trace, rounds

    @staticmethod
    def roundoff(obj, *points):
        """eps times the largest trace(K) at the given X."""
        return np.finfo(float).eps * max(obj.lifting.energy(obj.lifting.lift(x).lifted)
                                         for x in points)

    @pytest.mark.parametrize("sensing", ["mask", "dense"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_trial_costs_match_the_cost(self, monkeypatch, sensing, d):
        # the cost each Armijo search reads along its line (x, dx) at the
        # round's subspace u, at the exact step, at alpha0, at backtracked
        # steps and at the step it accepted, against the cost evaluated
        # there after the solve
        if sensing == "mask":
            obj, _ = small_masked_objective(n=4, s=10, r=2 if d == 1 else 4, d=d, seed=1)
        else:
            obj = small_dense_objective(n=3, s=10, m=16, r=2, d=d, seed=1)
        lines, searches = [], []
        line_coefficients, armijo_fn = Objective.line_coefficients, nlrecover.solvers.armijo

        def spy_line_coefficients(self, z, dx):
            lines.append((z.x, dx, z.u))
            return line_coefficients(self, z, dx)

        def spy_armijo(f_along, f0, g_dot_d, first=None):
            searches.append((f_along, first, []))  # the accepted step, none after a failure
            alpha, f_val = armijo_fn(f_along, f0, g_dot_d, first=first)
            searches[-1][2].append(alpha)
            return alpha, f_val

        monkeypatch.setattr(Objective, "line_coefficients", spy_line_coefficients)
        monkeypatch.setattr(nlrecover.solvers, "armijo", spy_armijo)
        cfg = replace(build_solver_configs({}, "altmin1"), max_outer=3)
        altmin_solve(obj, default_init(obj), cfg, rng=np.random.default_rng(0))
        monkeypatch.undo()
        assert len(searches) > 3 and all(first is not None for _, first, _ in searches)
        backtracked = [ARMIJO_ALPHA0 * ARMIJO_TAU**i for i in (1, 4, 12)]
        assert len(lines) == len(searches)
        for (x, dx, u), (f_along, first, accepted) in zip(lines, searches):
            for a in (first, ARMIJO_ALPHA0, *backtracked, *accepted):
                x_a = x + a * dx
                direct = obj.cost(ProductPoint(x_a, u))
                assert abs(f_along(a) - direct) <= 16.0 * self.roundoff(obj, x, x_a)

    @pytest.mark.parametrize("kind,d", [("gaussian_kernel", 2), ("monomial_features", 2),
                                        ("monomial_kernel", 3)],
                             ids=["gaussian", "features", "kernel_d3"])
    def test_liftings_without_coefficients_evaluate_each_trial(self, monkeypatch, kind, d):
        obj, _ = small_masked_objective(kind=kind, n=4, s=12, r=2, d=d, seed=3)
        z = default_init(obj)
        assert obj.line_coefficients(z, z.x) is None
        trace, rounds = self.counted_run(monkeypatch, obj)
        for rec, (diff, _, _) in zip(trace.records, rounds):
            assert rec.inner_iters >= 1
            assert diff == {"lift": diff["trials"], "cost": 1 + diff["trials"],
                            "trials": diff["trials"]}

    @pytest.mark.parametrize("bad", [(math.nan, None, None), (None, math.inf, None),
                                     (None, None, -math.inf)], ids=["nan_c2", "inf_c3", "-inf_c4"])
    def test_non_finite_coefficients_evaluate_each_trial(self, monkeypatch, bad):
        # a non-finite coefficient takes the same path as no coefficients:
        # the trials are evaluated and lifted, and the solve is the one
        # without coefficients, bit for bit
        obj, _, _ = uos_completion_problem(n=8, pts_per=12, seed=5)
        line_coefficients = Objective.line_coefficients
        calls = []

        def spoiled(self, z, dx):
            coeffs = line_coefficients(self, z, dx)
            calls.append(coeffs)
            return tuple(c if b is None else b for c, b in zip(coeffs, bad))

        with monkeypatch.context() as patch:
            patch.setattr(Objective, "line_coefficients", lambda self, z, dx: None)
            plain, _ = self.counted_run(patch, obj)
        monkeypatch.setattr(Objective, "line_coefficients", spoiled)
        trace, rounds = self.counted_run(monkeypatch, obj)
        assert calls and trace.records == plain.records
        for rec, (diff, _, _) in zip(trace.records, rounds):
            assert diff == {"lift": diff["trials"], "cost": 1 + diff["trials"],
                            "trials": diff["trials"]}

    @pytest.mark.parametrize("solver", ["altmin1", "simple"])
    def test_accepted_steps_descend_at_roundoff(self, monkeypatch, solver):
        # the accepted points of each round (its only lifts), in order, lower
        # the directly evaluated cost at the round's subspace, up to the
        # roundoff of the cost's own evaluation
        obj, _, _ = uos_completion_problem(n=15, k=2, dim=2, pts_per=20, delta=0.6, seed=0)
        trace, rounds = self.counted_run(monkeypatch, obj, solver, max_outer=6)
        monkeypatch.undo()
        n_steps = 0
        for rec, (_, z, accepted) in zip(trace.records, rounds):
            assert len(accepted) == rec.inner_iters
            path = [z.x, *accepted]
            costs = [obj.cost(ProductPoint(x, z.u)) for x in path]
            for x, f_prev, f_next in zip(path, costs, costs[1:]):
                assert f_next <= f_prev + 16.0 * self.roundoff(obj, x)
            n_steps += len(accepted)
        assert n_steps >= len(rounds) == 6


class TestAltminRecords:
    @pytest.mark.parametrize("solver", ["altmin1", "simple"])
    def test_recorded_f_is_cost_at_iterate(self, solver):
        # the inner loop takes f from the line quartic or the accepted
        # Armijo trial; every record must still hold the cost at its
        # iterate, bit for bit
        obj, _, _ = uos_completion_problem(n=15, k=2, dim=2, pts_per=20, delta=0.6, seed=0)
        cfg = replace(build_solver_configs({}, solver), max_outer=15)
        points = []
        _, trace = altmin_solve(obj, default_init(obj), cfg, rng=np.random.default_rng(0),
                                on_iterate=points.append)
        assert len(points) == len(trace.records) == 16
        assert [r.f for r in trace.records] == [obj.cost(z) for z in points]


class TestSimpleAltmin:
    """The CLI's `simple` solver: one Armijo gradient step in X per exact SVD."""

    def test_simple_preset_config(self):
        assert build_solver_configs({}, "simple") == AltminConfig(max_inner=1, exact_svd=True)

    def test_monotone_and_finite_path(self):
        obj, target, _ = uos_completion_problem(n=6, pts_per=8, seed=13)
        cfg = replace(build_solver_configs({}, "simple"), eps_x=1e-6, max_outer=400)
        path = []
        z, trace = altmin_solve(obj, default_init(obj), cfg, on_iterate=path.append)
        f_vals = [r.f for r in trace.records]
        assert all(f2 <= f1 + 1e-12 * (1 + abs(f1)) for f1, f2 in zip(f_vals, f_vals[1:]))
        # every round but the last took one step and an exact SVD
        assert all(r.svd_mode == "exact" and r.inner_iters == 1 for r in trace.records[:-1])
        # path-length increments (Kurdyka-Lojasiewicz finite length)
        inc = [
            math.sqrt(float(np.sum((b.x - a.x) ** 2)) + grass_distance(a.u, b.u) ** 2)
            for a, b in zip(path, path[1:])
        ]
        assert np.isfinite(sum(inc))
        # the tail of the path carries a vanishing share of the length
        tail = sum(inc[int(0.8 * len(inc)):])
        assert tail <= 0.5 * sum(inc) + 1e-12


def wedin_gap_check(y1: np.ndarray, y2: np.ndarray, r: int, delta: float) -> bool:
    """Test oracle: dist(U1, U2)^2 <= 2 ||Y1 - Y2||_F^2 / delta^2 whenever both
    spectra have sigma_r - sigma_{r+1} >= delta."""
    u1, s1, _ = np.linalg.svd(np.asarray(y1, dtype=float), full_matrices=False)
    u2, s2, _ = np.linalg.svd(np.asarray(y2, dtype=float), full_matrices=False)
    if s1[r - 1] - s1[r] < delta or s2[r - 1] - s2[r] < delta:
        raise ValueError("spectral gap below delta; the bound does not apply")
    d = grass_distance(GrassmannPoint(u1[:, :r]), GrassmannPoint(u2[:, :r]))
    bound = 2.0 * np.sum((y1 - y2) ** 2) / delta**2
    return d**2 <= bound + 1e-12 * (1.0 + bound)


class TestWedin:
    def test_identical_matrices_pass(self, rng):
        y = rng.standard_normal((8, 6))
        sv = np.linalg.svd(y, compute_uv=False)
        gap = sv[1] - sv[2]
        assert wedin_gap_check(y, y, 2, 0.9 * gap)

    def test_diagonal_perturbation(self):
        y1 = np.diag([2.0, 1.0])
        y2 = np.diag([2.0 + 1e-3, 1.0])
        # same singular subspace: distance 0 <= bound
        assert wedin_gap_check(np.vstack([y1, np.zeros((1, 2))]),
                               np.vstack([y2, np.zeros((1, 2))]), 1, 0.9)

    def test_random_perturbation_pairs(self):
        passed = 0
        for seed in range(200):
            gen = np.random.default_rng(seed)
            u, _ = np.linalg.qr(gen.standard_normal((10, 10)))
            v, _ = np.linalg.qr(gen.standard_normal((8, 8)))
            sv = np.array([5.0, 4.0, 3.0, 1.0, 0.8, 0.6, 0.4, 0.2])
            y1 = u[:, :8] @ np.diag(sv) @ v.T
            y2 = y1 + 0.05 * gen.standard_normal(y1.shape)
            s1 = np.linalg.svd(y1, compute_uv=False)
            s2 = np.linalg.svd(y2, compute_uv=False)
            delta = 0.999 * min(s1[2] - s1[3], s2[2] - s2[3])
            if delta <= 0:
                continue
            passed += wedin_gap_check(y1, y2, 3, delta)
            assert wedin_gap_check(y1, y2, 3, delta)
        assert passed > 150

    def test_gap_violation_rejected(self):
        y = np.diag([2.0, 2.0, 1.0])
        with pytest.raises(ValueError):
            wedin_gap_check(y, y, 1, 0.5)


class TestTrace:
    def test_random_init_feasible(self):
        obj, target, _ = uos_completion_problem(n=6, pts_per=8, seed=15)
        z0 = random_init(obj, np.random.default_rng(3))
        res = np.linalg.norm(obj.measurement.residual(z0.x))
        assert res <= 1e-9 * (1 + np.linalg.norm(obj.measurement.b))

    @pytest.mark.parametrize("solver", ["rtr1", "rtr2", "altmin1", "altmin2", "simple"])
    def test_capped_run_ends_at_returned_point(self, solver):
        # the CLI's trials.csv reads f_final, the gradient norms and iters
        # from the final record
        obj, _, _ = uos_completion_problem(n=15, k=2, dim=2, pts_per=20, delta=0.6, seed=0)
        cfg = build_solver_configs({}, solver)
        cfg = replace(cfg, max_iter=5) if solver.startswith("rtr") else replace(cfg, max_outer=5)
        z, trace = solve(obj, default_init(obj), solver, cfg, np.random.default_rng(0))
        assert trace.status == "max_iter"
        assert trace.final.f == obj.cost(z)
        g = obj.rgrad(z)
        assert (trace.final.gnorm_x, trace.final.gnorm_u) == (np.linalg.norm(g.dx), np.linalg.norm(g.du))


def _solver_traces_tool():
    path = Path(__file__).resolve().parent.parent / "tools" / "solver_traces.py"
    spec = importlib.util.spec_from_file_location("solver_traces", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_solver_trace_compare_flags_one_changed_record(tmp_path, capsys):
    # tools/solver_traces.py --compare: two dumps of the same solver calls
    # are identical, and one trace record changed in the last bit of f, or
    # a call missing, is flagged; after the first difference every field
    # that differs is listed with its count and, for floats, the largest
    # relative difference, and then each dump's totals: records, summed
    # inner_iters and hess_calls, and the status histogram
    tool = _solver_traces_tool()
    obj, _ = small_masked_objective(seed=3)
    z0 = default_init(obj)
    calls = [("rtr_solve", *rtr_solve(obj, z0, RtrConfig(max_iter=4))),
             ("altmin_solve", *altmin_solve(obj, z0, AltminConfig(max_outer=3, max_inner=5),
                                            rng=np.random.default_rng(0)))]
    assert [trace.status for _, _, trace in calls] == ["max_iter", "max_iter"]
    n_records, inner, hess = ([sum(fn(r) or 0 for r in trace.records) for _, _, trace in calls]
                              for fn in (lambda r: 1, lambda r: r.inner_iters,
                                         lambda r: r.hess_calls))
    assert hess[0] > 2 and hess[1] == 0 and inner[1] > len(calls[1][2].records)

    def totals(side, records, inner_iters, hess_calls, statuses):
        return (f"  {side} dump: {records} records, inner_iters {inner_iters}, "
                f"hess_calls {hess_calls}, status {statuses}\n")

    both = totals("first", sum(n_records), sum(inner), sum(hess), "max_iter 2")
    lines = [tool.call_line("w", (0, 0), i, *call) for i, call in enumerate(calls)]
    entry = json.loads(lines[1])
    f = entry["records"][2]["f"]
    f_next = entry["records"][2]["f"] = math.nextafter(f, math.inf)
    rtr_entry = json.loads(lines[0])
    rtr_entry["status"] = "stalled"
    for rec in rtr_entry["records"][:2]:
        rec["hess_calls"] -= 1
    rtr_entry["records"][1]["rho"] = -math.inf
    # an altmin call that took one inner step per round and converged
    fewer = json.loads(lines[1])
    fewer["status"] = "grad_tol"
    for rec in fewer["records"][:-1]:
        rec["inner_iters"] = 1
    dumps = {"a": lines, "same": lines, "changed": [lines[0], json.dumps(entry)],
             "several": [json.dumps(rtr_entry), lines[1]], "missing": lines[:1],
             "fewer": [lines[0], json.dumps(fewer)]}
    for name, text in dumps.items():
        (tmp_path / name).write_text("\n".join(text) + "\n")
    assert tool.compare(tmp_path / "a", tmp_path / "same") == 0
    assert capsys.readouterr().out == "w: 2 calls identical\n"
    assert tool.compare(tmp_path / "a", tmp_path / "changed") == 1
    rel = (f_next - f) / max(abs(f), abs(f_next))
    assert capsys.readouterr().out == (
        "w: 1 of 2 calls differ; first: instance [0, 0] call 1: records[2]\n"
        f"  f: differs in 1 record, largest relative difference {rel:.3g}\n"
        + both + both.replace("first", "second"))
    assert tool.compare(tmp_path / "a", tmp_path / "several") == 1
    assert capsys.readouterr().out == (
        "w: 1 of 2 calls differ; first: instance [0, 0] call 0: records[0]\n"
        "  status: differs in 1 call\n"
        "  hess_calls: differs in 2 records\n"
        "  rho: differs in 1 record, largest relative difference inf\n"
        + both + totals("second", sum(n_records), sum(inner), sum(hess) - 2,
                        "max_iter 1, stalled 1"))
    assert tool.compare(tmp_path / "a", tmp_path / "missing") == 1
    assert capsys.readouterr().out == (
        "w: 1 of 2 calls differ; first: instance [0, 0] call 1: missing\n"
        + both + totals("second", n_records[0], inner[0], hess[0], "max_iter 1"))
    assert tool.compare(tmp_path / "a", tmp_path / "fewer") == 1
    assert capsys.readouterr().out == (
        "w: 1 of 2 calls differ; first: instance [0, 0] call 1: records[0]\n"
        "  status: differs in 1 call\n"
        f"  inner_iters: differs in {n_records[1] - 1} records\n"
        + both + totals("second", sum(n_records), inner[0] + n_records[1] - 1, sum(hess),
                        "grad_tol 1, max_iter 1"))


def test_solver_trace_compare_names_a_snap_difference(tmp_path, capsys):
    # a snap is an entry of its own, with the X and basis hashes and no
    # records, so a snap that moved is named as that entry's x and u, and
    # the totals count the two solves alone
    tool = _solver_traces_tool()
    obj, _ = small_masked_objective(seed=3)
    z0 = default_init(obj)
    z1, trace = rtr_solve(obj, z0, RtrConfig(max_iter=4))
    snap = json.loads(tool.call_line("w", (0, 0), 1, "_snap_columns", z0))
    assert sorted(snap) == ["call", "key", "solver", "u", "workload", "x"]
    lines = [tool.call_line("w", (0, 0), 0, "rtr_solve", z1, trace), json.dumps(snap),
             tool.call_line("w", (0, 0), 2, "rtr_solve", z1, trace)]
    moved = json.loads(tool.call_line("w", (0, 0), 1, "_snap_columns", z1))
    for name, text in {"a": lines, "same": lines, "moved": [lines[0], json.dumps(moved), lines[2]]}.items():
        (tmp_path / name).write_text("\n".join(text) + "\n")
    assert tool.compare(tmp_path / "a", tmp_path / "same") == 0
    assert capsys.readouterr().out == "w: 3 calls identical\n"
    assert tool.compare(tmp_path / "a", tmp_path / "moved") == 1
    assert capsys.readouterr().out == (
        "w: 1 of 3 calls differ; first: instance [0, 0] call 1: u\n"
        "  u: differs in 1 call\n"
        "  x: differs in 1 call\n"
        + "".join(f"  {side} dump: {2 * len(trace.records)} records, "
                  f"inner_iters {2 * sum(r.inner_iters or 0 for r in trace.records)}, "
                  f"hess_calls {2 * sum(r.hess_calls or 0 for r in trace.records)}, "
                  f"status {trace.status} 2\n" for side in ("first", "second")))
