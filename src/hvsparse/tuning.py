"""Regularization-parameter selection and the log-log rate fit.

Two rules are provided: a Morozov-style grid search that accepts the first
alpha whose final residual lands in [delta, tau*delta], and closed-form
a-priori rules alpha = kappa*delta^(q-1) (q > 1) or kappa*delta^(1-eps)
(q = 1). The grid search sweeps alpha in ascending order rather than
bisecting because the residual need not be monotone in alpha for nonlinear
forward models; when no grid point lands in the band the search reports
not-found together with the closest candidate. ``hvsparse rate`` fits its
convergence rate with fit_loglog_slope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ParameterError
from .solvers import RecoveryResult, SolverConfig, hv_solve

DEFAULT_ALPHA_GRID = tuple(np.geomspace(1e-8, 1e-1, 40))


@dataclass
class DiscrepancyConfig:
    """Settings for the residual-band grid search.

    tau >= 1 widens the acceptance band [delta, tau*delta]; alpha_grid must
    be strictly increasing and positive. The solver template is reused for
    every grid point.
    """

    solver: SolverConfig
    tau: float = 1.5
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID

    def __post_init__(self):
        if not (self.tau >= 1.0 and np.isfinite(self.tau)):
            raise ParameterError(f"tau must be >= 1, got {self.tau}")
        grid = tuple(float(a) for a in self.alpha_grid)
        if len(grid) == 0:
            raise ParameterError("alpha_grid must be nonempty")
        if grid[0] <= 0 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ParameterError("alpha_grid must be positive and strictly increasing")
        self.alpha_grid = grid


@dataclass(frozen=True)
class DiscrepancyResult:
    """Outcome of discrepancy_search.

    found is True when some grid alpha produced a final residual inside
    [delta, tau*delta]; in that case alpha/result/residual describe the
    first such grid point. Otherwise they describe the candidate whose
    residual came closest to the band (smallest grid index on ties).
    """

    found: bool
    alpha: float
    result: RecoveryResult
    residual: float


def discrepancy_search(op, y_delta, delta_norm: float, eta: float,
                       cfg: DiscrepancyConfig) -> DiscrepancyResult:
    """Sweep alpha ascending; accept the first residual in [delta, tau*delta].

    The residual checked is the solver's final data-fidelity norm
    ||F(x_alpha) - y_delta||. Grid points are independent solves, so the
    sweep could run concurrently; selection is by smallest qualifying grid
    index either way.
    """
    if not (delta_norm > 0 and np.isfinite(delta_norm)):
        raise ParameterError(f"delta_norm must be positive and finite, got {delta_norm}")
    lo, hi = delta_norm, cfg.tau * delta_norm
    best = None
    best_dist = np.inf
    for alpha in cfg.alpha_grid:
        result = hv_solve(op, y_delta, alpha, eta, cfg.solver)
        residual = result.final_residual
        if lo <= residual <= hi:
            return DiscrepancyResult(found=True, alpha=alpha, result=result,
                                     residual=residual)
        dist = max(lo - residual, residual - hi)
        if dist < best_dist:
            best = (alpha, result, residual)
            best_dist = dist
    return DiscrepancyResult(found=False, alpha=best[0], result=best[1],
                             residual=best[2])


def apriori_alpha(delta_norm: float, q: float, kappa: float, eps: float = 0.1) -> float:
    """A-priori rule kappa*delta^(q-1); for q = 1, kappa*delta^(1-eps)."""
    if not (delta_norm > 0 and np.isfinite(delta_norm)):
        raise ParameterError(f"delta_norm must be positive and finite, got {delta_norm}")
    if not (q >= 1 and np.isfinite(q)):
        raise ParameterError(f"q must be >= 1, got {q}")
    if not (kappa > 0 and np.isfinite(kappa)):
        raise ParameterError(f"kappa must be positive, got {kappa}")
    if q == 1.0:
        return kappa * delta_norm ** (1.0 - eps)
    return kappa * delta_norm ** (q - 1.0)


def fit_loglog_slope(deltas, errors) -> tuple[float, bool]:
    """Least-squares slope of log(error) against log(delta).

    Returns (slope, degenerate). A fit over all-equal errors carries no
    rate information and is reported as (0.0, True); zero errors are
    clamped to a tiny positive value before taking logs.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if deltas.size != errors.size or deltas.size < 2:
        raise ParameterError("need equally many deltas and errors, at least 2")
    if np.any(deltas <= 0):
        raise ParameterError("deltas must be positive")
    if np.any(errors < 0):
        raise ParameterError("errors must be nonnegative")
    if np.ptp(errors) == 0.0:
        return 0.0, True
    log_e = np.log(np.maximum(errors, 1e-300))
    slope = float(np.polyfit(np.log(deltas), log_e, 1)[0])
    return slope, False
