"""Nonlinear matrix recovery: completing high-rank matrices whose columns
follow a nonlinear structure (unions of subspaces, algebraic varieties,
clusters) by rank minimization of a kernel or feature lifting, solved on the
product of an affine measurement subspace and a Grassmann manifold."""

from .lifting import (
    LiftingSpec,
    count_monomials,
    gaussian_kernel,
    monomial_features,
    monomial_kernel,
)
from .manifold import (
    GrassmannPoint,
    MeasurementSubspace,
    ProductPoint,
    ProductTangent,
    grass_distance,
    grass_project,
    grass_retract,
    meas_feasible_point,
    meas_project,
)
from .objective import Objective, fd_check
from .solvers import (
    AltminConfig,
    RtrConfig,
    altmin_solve,
    default_init,
    randomized_svd,
    rtr_solve,
    truncated_svd,
)
from .synth import (
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

__version__ = "0.1.0"
