"""peocalc: pseudo-evolution operator calculus.

Laguerre and Mittag-Leffler pseudo-exponentials, generalized power series
with fractional exponents, umbral evaluation of formal integrals, exact
Weyl-algebra disentanglement, and Volterra-Neumann / Dyson series solvers.

Importing the package loads no submodule, and no `importlib`: each public
name below is imported from its module on first access (PEP 562), so a
caller that needs only the scalar functions never loads the operator and
series solvers.
"""

_EXPORTS = {
    "ConditioningError": "errors",
    "ConvergenceError": "errors",
    "DomainError": "errors",
    "GammaPoleError": "errors",
    "beta": "gammafn",
    "gamma": "gammafn",
    "log_gamma_real": "gammafn",
    "recip_gamma": "gammafn",
    "FracSeries": "series",
    "laguerre_antiderivative": "series",
    "laguerre_derivative": "series",
    "laguerre_fractional_derivative": "series",
    "rl_derivative": "series",
    "rl_integral": "series",
    "series_allclose": "series",
    "series_eval": "series",
    "series_mul": "series",
    "DEFAULT_CONFIG": "special",
    "SeriesEvalConfig": "special",
    "hermite3": "special",
    "laguerre_cos": "special",
    "laguerre_e_nm": "special",
    "laguerre_exp": "special",
    "laguerre_sin": "special",
    "mittag_leffler": "special",
    "UmbralSum": "umbral",
    "UmbralTerm": "umbral",
    "VariableAllocator": "umbral",
    "fio_eval": "umbral",
    "fio_eval_series": "umbral",
    "laguerre_semigroup_check": "umbral",
    "ml_semigroup_discrepancy": "umbral",
    "GaussianRational": "weyl",
    "GradedOpSeries": "weyl",
    "Polynomial": "weyl",
    "WeylElement": "weyl",
    "apply": "weyl",
    "commutator": "weyl",
    "graded_exp": "weyl",
    "weyl_mul": "weyl",
    "zassenhaus_coeff": "weyl",
    "MatrixSeries": "volterra",
    "VNState": "volterra",
    "cos_recursion_coeffs": "volterra",
    "cos_recursion_iterate": "volterra",
    "cosine_series": "volterra",
    "dyson_evolution_operator": "volterra",
    "fractional_vn_monomial_closed_form": "volterra",
    "fractional_vn_solve": "volterra",
    "laguerre_vn_solve": "volterra",
    "BivariateSeries": "solvers",
    "EigenKernel": "solvers",
    "EXP_KERNEL": "solvers",
    "LAGUERRE_KERNEL": "solvers",
    "Matrix2": "solvers",
    "fractional_matrix_evolution": "solvers",
    "fractional_schrodinger": "solvers",
    "matrix_laguerre_exp": "solvers",
    "mittag_leffler_kernel": "solvers",
    "pseudo_rotation": "solvers",
    "solve_laguerre_drift": "solvers",
    "solve_laguerre_schrodinger": "solvers",
    "solve_laguerre_schrodinger_general": "solvers",
    "solve_laguerre_transport": "solvers",
    "CheckResult": "verify",
    "run_suite": "verify",
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    globals()[name] = value
    return value
