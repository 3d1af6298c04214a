"""Parameter-choice rules and the log-log rate fit."""
import numpy as np
import pytest

from hvsparse.core import ParameterError, add_noise_db
from hvsparse.operators import MatrixOperator
from hvsparse.regfunc import RegParams, objective
from hvsparse.solvers import SolverConfig, hv_solve
from hvsparse.tuning import (DEFAULT_ALPHA_GRID, DiscrepancyConfig,
                             DiscrepancyResult, apriori_alpha,
                             discrepancy_search, fit_loglog_slope)


def test_apriori_alpha_values():
    assert apriori_alpha(0.01, 2.0, 1.0) == 0.01
    assert apriori_alpha(0.01, 3.0, 1.0) == pytest.approx(1e-4, rel=1e-12)
    assert apriori_alpha(1.0, 2.0, 3.0) == 3.0
    # q = 1 backs off to the sub-linear exponent 1 - eps
    assert apriori_alpha(0.01, 1.0, 1.0) == pytest.approx(0.01 ** 0.9, rel=1e-12)
    assert apriori_alpha(0.01, 1.0, 1.0, eps=0.5) == pytest.approx(0.1, rel=1e-12)


def test_apriori_alpha_monotone_in_delta():
    deltas = np.geomspace(1e-6, 1e-1, 20)
    vals = [apriori_alpha(float(d), 2.0, 1.0) for d in deltas]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_apriori_alpha_validation():
    for delta in (0.0, -1.0, float("inf")):
        with pytest.raises(ParameterError):
            apriori_alpha(delta, 2.0, 1.0)
    with pytest.raises(ParameterError):
        apriori_alpha(0.01, 0.5, 1.0)
    for kappa in (0.0, -2.0, float("nan")):
        with pytest.raises(ParameterError):
            apriori_alpha(0.01, 2.0, kappa)


def test_discrepancy_config_validation():
    solver = SolverConfig(L=1.0)
    DiscrepancyConfig(solver=solver)
    for tau in (0.5, 0.99, float("inf"), float("nan")):
        with pytest.raises(ParameterError):
            DiscrepancyConfig(solver=solver, tau=tau)
    with pytest.raises(ParameterError):
        DiscrepancyConfig(solver=solver, alpha_grid=())
    with pytest.raises(ParameterError):
        DiscrepancyConfig(solver=solver, alpha_grid=(0.0, 0.1))
    with pytest.raises(ParameterError):
        DiscrepancyConfig(solver=solver, alpha_grid=(0.1, 0.1))
    with pytest.raises(ParameterError):
        DiscrepancyConfig(solver=solver, alpha_grid=(0.2, 0.1))


def _discrepancy_instance():
    op = MatrixOperator(np.eye(2))
    y_clean = np.array([1.0, 0.6])
    data = add_noise_db(y_clean, 30.0, np.random.SeedSequence((3, 1)))
    solver = SolverConfig(L=1.0, max_iters=400, tol=1e-10, x0=np.zeros(2))
    return op, data, solver


def test_discrepancy_search_lands_in_band():
    op, data, solver = _discrepancy_instance()
    cfg = DiscrepancyConfig(solver=solver, tau=1.5)
    res = discrepancy_search(op, data.y_delta, data.noise_norm, 0.0, cfg)
    assert isinstance(res, DiscrepancyResult)
    assert res.found
    assert data.noise_norm <= res.residual <= 1.5 * data.noise_norm
    # reported residual matches an independent re-evaluation at res.alpha
    redo = hv_solve(op, data.y_delta, res.alpha, 0.0, solver)
    assert float(np.linalg.norm(op.apply(redo.x_star) - data.y_delta)) \
        == pytest.approx(res.residual, abs=1e-12)
    # selected alpha is the first qualifying grid point
    for alpha in cfg.alpha_grid:
        if alpha == res.alpha:
            break
        prior = hv_solve(op, data.y_delta, alpha, 0.0, solver).final_residual
        assert not (data.noise_norm <= prior <= 1.5 * data.noise_norm)


def test_discrepancy_search_unreachable_band():
    op, data, solver = _discrepancy_instance()
    cfg = DiscrepancyConfig(solver=solver, tau=1.0)
    res = discrepancy_search(op, data.y_delta, 100.0, 0.0, cfg)
    assert not res.found
    # closest candidate: residual grows with alpha, so the largest grid
    # point minimizes the distance to the unreachable band
    assert res.alpha == cfg.alpha_grid[-1]
    assert res.residual < 100.0


def test_discrepancy_search_tie_prefers_smallest_index():
    # a band so wide every alpha qualifies must return the first grid point
    op, data, solver = _discrepancy_instance()
    cfg = DiscrepancyConfig(solver=solver, tau=1e9)
    res = discrepancy_search(op, data.y_delta, 1e-9, 0.0, cfg)
    assert res.found
    assert res.alpha == DEFAULT_ALPHA_GRID[0]


def test_discrepancy_search_validation():
    op, data, solver = _discrepancy_instance()
    cfg = DiscrepancyConfig(solver=solver)
    for delta in (0.0, -1.0, float("inf")):
        with pytest.raises(ParameterError):
            discrepancy_search(op, data.y_delta, delta, 0.0, cfg)


def test_fit_loglog_slope_exact_powers():
    deltas = np.geomspace(1e-4, 1e-1, 6)
    slope, degenerate = fit_loglog_slope(deltas, deltas)
    assert not degenerate
    assert slope == pytest.approx(1.0, abs=1e-6)
    slope, degenerate = fit_loglog_slope(deltas, np.sqrt(deltas))
    assert not degenerate
    assert slope == pytest.approx(0.5, abs=1e-6)


def test_fit_loglog_slope_degenerate():
    slope, degenerate = fit_loglog_slope([1e-3, 1e-2, 1e-1], [0.5, 0.5, 0.5])
    assert degenerate
    assert slope == 0.0


def test_fit_loglog_slope_validation():
    with pytest.raises(ParameterError):
        fit_loglog_slope([1e-2], [0.1])
    with pytest.raises(ParameterError):
        fit_loglog_slope([1e-2, 1e-1], [0.1])
    with pytest.raises(ParameterError):
        fit_loglog_slope([0.0, 1e-1], [0.1, 0.2])
    with pytest.raises(ParameterError):
        fit_loglog_slope([1e-2, 1e-1], [-0.1, 0.2])
