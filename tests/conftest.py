import numpy as np
import pytest

from nlrecover.lifting import LiftingSpec
from nlrecover.manifold import MeasurementSubspace
from nlrecover.objective import Objective
from nlrecover.synth import UosSpec, gen_entry_mask, gen_uos


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def small_masked_objective(kind="monomial_kernel", n=4, s=8, r=2, d=2, seed=0, delta=0.6):
    """A small random completion problem for derivative and solver tests."""
    gen = np.random.default_rng(seed)
    target = gen.standard_normal((n, s))
    mask = gen.random((n, s)) < delta
    mask[0, 0] = True  # never an empty mask
    meas = MeasurementSubspace.from_mask(mask, target)
    if kind == "monomial_kernel":
        lifting = LiftingSpec.monomial(n, d)
    elif kind == "gaussian_kernel":
        lifting = LiftingSpec.gaussian(n, 2.0)
    else:
        lifting = LiftingSpec.monomials(n, d)
    return Objective(lifting=lifting, rank_r=r, measurement=meas), target


def small_dense_objective(kind="monomial_kernel", n=3, s=8, m=14, r=2, d=2, seed=0,
                          penalty=None):
    """A small dense-sensing problem (m < ns Gaussian measurements of a random
    target), constrained or, with a penalty lambda, penalized."""
    gen = np.random.default_rng(seed)
    target = gen.standard_normal((n, s))
    a_mat = gen.standard_normal((m, n * s)) / np.sqrt(m)
    meas = MeasurementSubspace.from_dense(a_mat, a_mat @ target.ravel(order="F"), n, s)
    base, _ = small_masked_objective(kind=kind, n=n, s=s, r=r, d=d, seed=seed)
    return Objective(lifting=base.lifting, rank_r=r, measurement=meas, penalty_lambda=penalty)


def uos_completion_problem(n=8, k=2, dim=2, pts_per=12, delta=0.7, d=2, seed=5):
    """Union-of-subspaces completion instance with the observed lifted rank."""
    from nlrecover.synth import numerical_rank

    gen = np.random.default_rng(seed)
    target, labels = gen_uos(UosSpec(n=n, k=k, dims=(dim,) * k, pts_per=pts_per), gen)
    lifting = LiftingSpec.monomial(n, d)
    rank = numerical_rank(lifting.kernel(target), 1e-8)
    meas = gen_entry_mask(target, delta, gen)
    obj = Objective(lifting=lifting, rank_r=rank, measurement=meas)
    return obj, target, labels
