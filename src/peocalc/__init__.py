"""peocalc: pseudo-evolution operator calculus.

Laguerre and Mittag-Leffler pseudo-exponentials, generalized power series
with fractional exponents, umbral evaluation of formal integrals, exact
Weyl-algebra disentanglement, and Volterra-Neumann / Dyson series solvers.
"""

from .errors import (
    ConditioningError,
    ConvergenceError,
    DomainError,
    GammaPoleError,
)
from .gammafn import beta, gamma, log_gamma_real, recip_gamma
from .series import (
    FracSeries,
    laguerre_antiderivative,
    laguerre_derivative,
    laguerre_fractional_derivative,
    rl_derivative,
    rl_integral,
    series_allclose,
    series_eval,
    series_mul,
)
from .special import (
    DEFAULT_CONFIG,
    SeriesEvalConfig,
    hermite3,
    laguerre_cos,
    laguerre_e_nm,
    laguerre_exp,
    laguerre_sin,
    mittag_leffler,
)
from .umbral import (
    UmbralSum,
    UmbralTerm,
    VariableAllocator,
    fio_eval,
    fio_eval_series,
    laguerre_semigroup_check,
    ml_semigroup_discrepancy,
)
from .weyl import (
    GaussianRational,
    GradedOpSeries,
    Polynomial,
    WeylElement,
    apply,
    commutator,
    graded_exp,
    weyl_mul,
    zassenhaus_coeff,
)
from .volterra import (
    MatrixSeries,
    VNState,
    cos_recursion_coeffs,
    cos_recursion_iterate,
    cosine_series,
    dyson_evolution_operator,
    fractional_vn_monomial_closed_form,
    fractional_vn_solve,
    laguerre_vn_solve,
)
from .solvers import (
    BivariateSeries,
    EigenKernel,
    EXP_KERNEL,
    LAGUERRE_KERNEL,
    Matrix2,
    fractional_matrix_evolution,
    fractional_schrodinger,
    matrix_laguerre_exp,
    mittag_leffler_kernel,
    pseudo_rotation,
    solve_laguerre_drift,
    solve_laguerre_schrodinger,
    solve_laguerre_schrodinger_general,
    solve_laguerre_transport,
)
from .verify import CheckResult, run_suite

__version__ = "0.1.0"
