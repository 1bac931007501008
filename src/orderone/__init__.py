"""Transformations of order one on Wiener space.

Kernel calculus on a time grid, the induced Hilbert-Schmidt operator algebra
(regularized determinants, inverses, square roots), a reproducible Monte Carlo
engine for Wiener functionals, and scenario runners that verify the
change-of-variables identities against closed-form oracles.
"""

from .errors import (
    ConfigError,
    InvalidArgumentError,
    NotContractiveError,
    PreconditionError,
    SingularOperatorError,
)
from .grid_kernel import (
    KERNEL_GRAMMAR,
    MatrixKernel,
    TimeGrid,
    adjoint_kernel,
    c_kernels,
    compose_kernels,
    eta_of_kappa,
    kappa_from_phi,
    kernel_from_values,
    kernel_l2_norm,
    kernel_zoo,
    make_grid,
    orthonormal_columns,
    remark_pair,
    s_of_kappa,
    scale_kernel,
)
from .operator import (
    Det2,
    SpectralSummary,
    assemble,
    det2,
    inverse_kernel,
    kappa_s,
    kernel_from_matrix,
    lambda_max,
    spectral_summary,
    trace,
)
from .stochastic import (
    PathBatch,
    TestFunctional,
    apply_linear_transformation,
    apply_transformation,
    cameron_martin_drift,
    cm_exponent,
    cm_trace_correction,
    exp_q_moment_guard,
    h_functionals,
    node_value,
    node_weights,
    quadratic_form,
    ramer_exponent,
    sample_paths,
    wiener_integral,
)
from .scenarios import (
    MCEstimate,
    ScenarioReport,
    integrability_bound,
    sweep_laplace,
    verify_cameron_martin,
    verify_finite_dim,
    verify_gencv_example,
    verify_harmonic,
    verify_integrability_bound,
    verify_inverse,
    verify_surjective,
    verify_transf,
)

__version__ = "0.1.0"
