"""Numerical verification of disc rigidity, Herglotz atom concentration, and
shift-semigroup factorizations at finite dimension and grid resolution."""

from .disc import (
    DiscGrid,
    DomainError,
    default_grid,
    mobius_phi,
    varphi_t,
    wirtinger_dbar,
)
from .factorization import (
    FactorPair,
    FactorParams,
    build_h,
    master_residuals,
    pair_from_params,
    phi_jt,
    random_params,
    recover_params,
    verify_factorization,
)
from .herglotz import (
    atom_at_angle,
    dirac_concentration_test,
    estimate_moments,
    herglotz_reconstruct,
    sample_boundary,
)
from .operators import (
    SingularityError,
    cayley,
    im_part,
    inverse_cayley,
    is_positive_contraction,
    matrix_exp,
    operator_norm,
    re_part,
)
from .rigidity import (
    CONSTANT_CONFIRMED,
    HYPOTHESIS_VIOLATED,
    INCONCLUSIVE,
    OperatorFunction,
    constant_function,
    g_transform,
    rigidity_verdict,
)
from .shiftsim import (
    conjugation_check,
    laguerre_quadrature,
    shift_matrix_elements,
    taylor_matrix_symbol,
    taylor_varphi_t,
    toeplitz_of,
    truncated_factorization_check,
)

__version__ = "0.1.0"
