"""Sparse recovery with the squared-l1 minus eta-squared-l2 penalty.

Library layout: core (primitives, noise, metrics), regfunc (penalty and
objective), prox (squared-l1 proximal operator), operators (forward models),
solvers (proximal gradient and baselines), tuning (parameter-choice rules),
expcli (experiment harness and CLI, the rate study included).
"""

from .core import (DegenerateReferenceError, DegenerateSignalError, NoisyData,
                   NumericalOverflowError, ParameterError, add_noise_db,
                   add_noise_norm, gaussian_instance, relative_error, snr_db)
from .operators import (JacobianCheckReport, Linearization, MatrixOperator,
                        NonlinearOperator, PowerCsOperator,
                        estimate_smooth_lipschitz, fd_jacobian_check)
from .prox import (ProxSolution, lambda_weights, mu_star, mu_star_bisect,
                   prox_sql1, prox_sql1_bisect, psi, soft_threshold)
from .regfunc import RegParams, objective, reg_value, smooth_grad
from .solvers import (IterateTrace, RecoveryResult, SolverConfig, hv_solve,
                      hv_step, ista_solve, stationarity_residual, stl1l2_solve)
from .tuning import (DiscrepancyConfig, DiscrepancyResult, apriori_alpha,
                     discrepancy_search, fit_loglog_slope)

__version__ = "0.1.0"

__all__ = [
    "DegenerateReferenceError", "DegenerateSignalError", "NoisyData",
    "NumericalOverflowError", "ParameterError", "add_noise_db", "add_noise_norm",
    "gaussian_instance", "relative_error", "snr_db",
    "JacobianCheckReport", "Linearization", "MatrixOperator", "NonlinearOperator",
    "PowerCsOperator", "estimate_smooth_lipschitz", "fd_jacobian_check",
    "ProxSolution", "lambda_weights", "mu_star", "mu_star_bisect",
    "prox_sql1", "prox_sql1_bisect", "psi", "soft_threshold",
    "RegParams", "objective", "reg_value", "smooth_grad",
    "IterateTrace", "RecoveryResult", "SolverConfig", "hv_solve", "hv_step",
    "ista_solve", "stationarity_residual", "stl1l2_solve",
    "DiscrepancyConfig", "DiscrepancyResult", "apriori_alpha",
    "discrepancy_search", "fit_loglog_slope",
    "__version__",
]
