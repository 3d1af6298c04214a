"""Solvers: step map, descent behavior, step rules, traces, and guards."""
from dataclasses import replace

import numpy as np
import pytest

from hvsparse.core import (DegenerateReferenceError, NumericalOverflowError,
                           ParameterError, add_noise_db, gaussian_instance,
                           relative_error, snr_db)
from hvsparse.operators import (MatrixOperator, PowerCsOperator,
                                estimate_smooth_lipschitz)
from hvsparse.prox import prox_sql1
from hvsparse.regfunc import RegParams, objective
from hvsparse.solvers import (DIVERGENCE_LIMIT, IterateTrace, RecoveryResult,
                              STEP_ACCELERATED, STEP_FIXED, STEP_RULES,
                              SolverConfig,
                              TERMINATION_CONVERGED, TERMINATION_MAX_ITERS,
                              hv_solve, hv_step, ista_solve,
                              stationarity_residual, stl1l2_solve)

from conftest import (BENCH_ALPHA, BENCH_L, BENCH_MAX_ITERS, BENCH_N, BENCH_TOL,
                      bench_instance)


def test_solver_config_validation():
    for L in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ParameterError):
            SolverConfig(L=L)
    with pytest.raises(ParameterError):
        SolverConfig(L=1.0, max_iters=0)
    for tol in (0.0, -1e-5, float("inf")):
        with pytest.raises(ParameterError):
            SolverConfig(L=1.0, tol=tol)


def test_solver_config_rejects_unknown_step():
    assert SolverConfig(L=1.0).step == STEP_FIXED
    with pytest.raises(ParameterError, match="step"):
        SolverConfig(L=1.0, step="backtracking")


def test_hv_step_zero_is_fixed_point():
    op = MatrixOperator(np.eye(3))
    out = hv_step(op, np.zeros(3), np.zeros(3), 0.2, 1.0, 2.0)
    assert np.array_equal(out, np.zeros(3))


def test_hv_step_reduces_to_prox_at_data():
    # x = y_delta and eta = 0 zero the gradient, leaving a pure prox call
    rng = np.random.default_rng(31)
    y = rng.normal(size=4)
    op = MatrixOperator(np.eye(4))
    alpha, L = 0.3, 2.5
    assert np.array_equal(hv_step(op, y, y, alpha, 0.0, L),
                          prox_sql1(y, alpha / L).p)


def test_compat_one_step_solve_is_prox_at_alpha():
    # the same pure prox call, taken by one compat-mode solve: weight alpha
    rng = np.random.default_rng(31)
    y = rng.normal(size=4)
    op = MatrixOperator(np.eye(4))
    alpha, L = 0.3, 2.5
    cfg = SolverConfig(L=L, max_iters=1, x0=y, compat_alpha_mode=True)
    res = hv_solve(op, y, alpha, 0.0, cfg)
    assert res.iterations == 1
    assert np.array_equal(res.x_star, prox_sql1(y, alpha).p)


def test_hv_solve_one_dimensional_eta_one():
    # with eta = 1 the penalty vanishes on 1-sparse vectors, so the datum
    # survives: the map x -> (6x+5)/11 contracts onto 1, and the iteration
    # stalls within an ulp of it
    op = MatrixOperator(np.eye(1))
    cfg = SolverConfig(L=2.0, max_iters=300, tol=1e-300)
    res = hv_solve(op, np.array([1.0]), 0.1, 1.0, cfg)
    assert res.termination == TERMINATION_CONVERGED
    assert abs(res.x_star[0] - 1.0) <= 5e-16


def test_hv_solve_two_dim_eta_zero_minimizer():
    # convex endpoint: minimizer of 0.5*||x-y||^2 + 0.1*||x||_1^2 at y=(1,0)
    # is (5/6, 0)
    op = MatrixOperator(np.eye(2))
    cfg = SolverConfig(L=2.0, max_iters=2000, tol=1e-12)
    res = hv_solve(op, np.array([1.0, 0.0]), 0.1, 0.0, cfg)
    assert res.termination == TERMINATION_CONVERGED
    assert np.abs(res.x_star - np.array([5.0 / 6.0, 0.0])).max() <= 1e-9
    assert res.stationarity <= cfg.L * cfg.tol
    assert res.final_residual == pytest.approx(np.linalg.norm(res.x_star - [1, 0]),
                                               abs=1e-12)


def test_stationarity_residual_values():
    op = MatrixOperator(np.eye(5))
    y = np.array([2.0, -1.3, 0.4, 0.0, 3.1])
    x_star = prox_sql1(y, 0.3).p
    # at the minimizer the gradient mapping vanishes identically
    assert stationarity_residual(op, x_star, y, 0.3, 0.0, 1.0) == 0.0
    assert stationarity_residual(op, 10.0 * y, y, 0.3, 0.0, 1.0) > 1.0


def _descent_instance():
    a, x_true = gaussian_instance(30, 12, 4, 0.05, np.random.SeedSequence((0, 0)))
    op = PowerCsOperator(a, 2, 3)
    y = add_noise_db(op.apply(x_true), 30.0, np.random.SeedSequence((0, 1))).y_delta
    x0 = 0.01 * np.ones(30)
    perturb = np.random.default_rng(30).normal(size=30)
    probes = [x0, x_true, x_true + 0.1 * perturb, 0.5 * x_true]
    lf_hat = estimate_smooth_lipschitz(op, probes, y, 1e-4, 1.0)
    return op, y, x0, lf_hat


def test_hv_solve_descends_at_twice_secant_estimate():
    op, y, x0, lf_hat = _descent_instance()
    cfg = SolverConfig(L=2.0 * lf_hat, max_iters=600, tol=1e-7, x0=x0)
    res = hv_solve(op, y, 1e-4, 1.0, cfg)
    obj = np.asarray(res.trace.objective)
    worst = float(np.max(np.diff(obj)))
    assert worst <= 1e-10 * (1.0 + float(np.abs(obj).max()))


def test_hv_solve_can_climb_at_secant_estimate():
    # the secant lower bound itself is not a safe step constant here
    op, y, x0, lf_hat = _descent_instance()
    cfg = SolverConfig(L=lf_hat, max_iters=200, tol=1e-7, x0=x0)
    res = hv_solve(op, y, 1e-4, 1.0, cfg)
    assert float(np.max(np.diff(res.trace.objective))) > 0.0


def _quadratic_instance():
    rng = np.random.default_rng(99)
    a = rng.normal(size=(12, 8)) * 0.4
    alpha, eta = 1e-3, 1.0
    m = a.T @ a - 2.0 * alpha * eta * np.eye(8)
    eigvals, eigvecs = np.linalg.eigh(m)
    lf = float(np.max(np.abs(eigvals)))
    top = eigvecs[:, int(np.argmax(np.abs(eigvals)))]
    x_true = np.zeros(8)
    x_true[2], x_true[5] = 1.0, -1.0
    y = a @ x_true + 0.01 * rng.normal(size=12)
    probes = [np.zeros(8), top, rng.normal(size=8), rng.normal(size=8)]
    return a, alpha, eta, lf, y, probes


def test_secant_estimate_recovers_quadratic_lipschitz():
    a, alpha, eta, lf, y, probes = _quadratic_instance()
    assert lf == pytest.approx(3.642491294676912, rel=1e-12)
    # the pair (0, top eigenvector) realizes ||M|| exactly
    got = estimate_smooth_lipschitz(MatrixOperator(a), probes, y, alpha, eta)
    assert got == pytest.approx(lf, rel=1e-12)


@pytest.mark.parametrize("lmult", [0.8, 2.0])
def test_hv_step_sufficient_decrease_quadratic(lmult):
    # for quadratic f the majorization is global, so each step obeys
    # J(x+) <= J(x) - (L - Lf/2) * ||x+ - x||^2 whenever L > Lf/2
    a, alpha, eta, lf, y, probes = _quadratic_instance()
    op = MatrixOperator(a)
    L = lmult * lf
    params = RegParams(alpha, eta)
    for x in probes:
        x = x.copy()
        for _ in range(400):
            x_next = hv_step(op, x, y, alpha, eta, L)
            lhs = objective(op, x_next, y, params)
            rhs = objective(op, x, y, params) \
                - (L - 0.5 * lf) * float(np.sum((x_next - x) ** 2))
            assert lhs <= rhs + 1e-8 * (1.0 + abs(rhs))
            if np.array_equal(x_next, x):
                break
            x = x_next


def test_step_norms_vanish_on_convex_problem():
    op = MatrixOperator(np.eye(2))
    cfg = SolverConfig(L=2.0, max_iters=2000, tol=1e-12)
    res = hv_solve(op, np.array([1.0, 0.0]), 0.1, 0.0, cfg)
    steps = np.asarray(res.trace.step_norm[1:])
    assert steps[-1] < cfg.tol
    assert np.all(np.diff(steps) <= 1e-15)


def test_ista_identity_soft_threshold():
    op = MatrixOperator(np.eye(2))
    cfg = SolverConfig(L=1.0, max_iters=50, tol=1e-8)
    res = ista_solve(op, np.array([1.0, 0.0]), 0.3, cfg)
    assert np.array_equal(res.x_star, [0.7, 0.0])
    assert res.iterations == 2
    assert res.termination == TERMINATION_CONVERGED


def test_ista_zero_alpha_descends_residual():
    rng = np.random.default_rng(32)
    a = rng.normal(size=(8, 5))
    op = MatrixOperator(a)
    y = rng.normal(size=8)
    L = 1.1 * float(np.linalg.norm(a, 2)) ** 2
    res = ista_solve(op, y, 0.0, SolverConfig(L=L, max_iters=300, tol=1e-10))
    r = np.asarray(res.trace.residual_norm)
    assert np.all(np.diff(r) <= 1e-12)


def _st_parity_instance():
    a, x_true = gaussian_instance(30, 12, 4, 0.05, np.random.SeedSequence((5, 0)))
    op = PowerCsOperator(a, 2, 3)
    y = add_noise_db(op.apply(x_true), 30.0, np.random.SeedSequence((5, 1))).y_delta
    return op, y


@pytest.mark.parametrize("step", STEP_RULES)
def test_st_with_zero_beta_matches_ista(step):
    op, y = _st_parity_instance()
    cfg = SolverConfig(L=10.0, max_iters=300, tol=1e-8, step=step)
    alpha = 1e-3
    st = stl1l2_solve(op, y, alpha, 0.0, cfg)
    ista = ista_solve(op, y, alpha, cfg)
    assert np.array_equal(st.x_star, ista.x_star)
    assert st.iterations == ista.iterations
    assert st.termination == ista.termination
    assert np.array_equal(np.asarray(st.trace.step_norm),
                          np.asarray(ista.trace.step_norm), equal_nan=True)
    assert st.trace.objective == ista.trace.objective
    assert st.stationarity == ista.stationarity


def test_st_with_positive_beta_differs():
    op, y = _st_parity_instance()
    cfg = SolverConfig(L=10.0, max_iters=300, tol=1e-8)
    st = stl1l2_solve(op, y, 1e-3, 5e-4, cfg)
    ista = ista_solve(op, y, 1e-3, cfg)
    assert not np.array_equal(st.x_star, ista.x_star)
    assert np.all(np.isfinite(st.x_star))


class _CountingOperator(PowerCsOperator):
    """Counts linearizations, the one way a solver may evaluate the model."""

    linearizations = 0

    def linearize(self, x):
        self.linearizations += 1
        return super().linearize(x)


@pytest.mark.parametrize("solve", [
    lambda op, y, cfg: hv_solve(op, y, 1e-3, 1.0, cfg),
    lambda op, y, cfg: ista_solve(op, y, 1e-3, cfg),
    lambda op, y, cfg: stl1l2_solve(op, y, 1e-3, 5e-4, cfg),
], ids=["hv", "ista", "st"])
def test_fixed_rule_linearizes_once_per_iterate(solve):
    op, y = _st_parity_instance()
    # one budget-limited solve with a trace, one converged solve without
    for max_iters, record_trace, ends in ((7, True, TERMINATION_MAX_ITERS),
                                          (1000, False, TERMINATION_CONVERGED)):
        counted = _CountingOperator(op.a, op.c, op.d)
        cfg = SolverConfig(L=10.0, max_iters=max_iters, tol=1e-3, record_trace=record_trace)
        res = solve(counted, y, cfg)
        assert res.termination == ends
        assert counted.linearizations == res.iterations + 1


def test_st_beta_bounds():
    op = MatrixOperator(np.eye(2))
    cfg = SolverConfig(L=1.0)
    for beta in (-0.1, 0.2):
        with pytest.raises(ParameterError):
            stl1l2_solve(op, np.ones(2), 0.1, beta, cfg)


def test_st_runs_from_zero_with_positive_beta():
    # beta-term is undefined at x = 0 and must be skipped there, not crash
    a, _ = gaussian_instance(10, 5, 2, 0.3, np.random.SeedSequence(4))
    op = PowerCsOperator(a, 2, 3)
    cfg = SolverConfig(L=50.0, max_iters=100, tol=1e-10)
    res = stl1l2_solve(op, 0.1 * np.ones(5), 0.05, 0.02, cfg)
    assert np.all(np.isfinite(res.x_star))
    assert res.iterations >= 1


def test_zero_data_zero_start_converges_immediately():
    op = PowerCsOperator(np.random.default_rng(33).normal(size=(4, 6)), 2, 3)
    y = np.zeros(4)
    cfg = SolverConfig(L=5.0, max_iters=50, tol=1e-8)
    for res in (hv_solve(op, y, 0.1, 1.0, cfg),
                ista_solve(op, y, 0.1, cfg),
                stl1l2_solve(op, y, 0.1, 0.05, cfg)):
        assert res.iterations == 1
        assert np.array_equal(res.x_star, np.zeros(6))
        assert res.termination == TERMINATION_CONVERGED


def test_divergent_step_raises_overflow():
    a, x_true = gaussian_instance(40, 16, 4, 0.5, np.random.SeedSequence((7, 0)))
    op = PowerCsOperator(a, 1, 1)
    y = op.apply(x_true)
    # step constant two orders below the linear-case Lipschitz bound
    L = 0.01 * float(np.linalg.norm(4.0 * a, 2)) ** 2
    cfg = SolverConfig(L=L, max_iters=5000, tol=1e-8)
    with pytest.raises(NumericalOverflowError, match="diverged"):
        hv_solve(op, y, 1e-4, 1.0, cfg)
    assert DIVERGENCE_LIMIT == 1e150


def test_hv_solve_parameter_validation():
    op = MatrixOperator(np.eye(2))
    cfg = SolverConfig(L=1.0)
    for alpha in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ParameterError):
            hv_solve(op, np.ones(2), alpha, 1.0, cfg)
    for eta in (-0.1, 1.1):
        with pytest.raises(ParameterError):
            hv_solve(op, np.ones(2), 0.1, eta, cfg)
    with pytest.raises(ParameterError):
        ista_solve(op, np.ones(2), -0.1, cfg)


def test_baselines_reject_infinite_shrink_threshold():
    # alpha and L are each finite, but the shrink threshold alpha/L is not
    op = MatrixOperator(np.eye(3))
    cfg = SolverConfig(L=1e-10)
    with pytest.raises(ParameterError, match="shrink threshold"):
        ista_solve(op, np.ones(3), 1e300, cfg)
    with pytest.raises(ParameterError, match="shrink threshold"):
        stl1l2_solve(op, np.ones(3), 1e300, 0.0, cfg)


def test_x0_and_data_length_checks():
    op = MatrixOperator(np.eye(2))
    with pytest.raises(ParameterError, match="x0 has length"):
        hv_solve(op, np.ones(2), 0.1, 1.0, SolverConfig(L=1.0, x0=np.ones(3)))
    with pytest.raises(ParameterError, match="y_delta has length"):
        hv_solve(op, np.ones(3), 0.1, 1.0, SolverConfig(L=1.0))
    with pytest.raises(ParameterError, match="x_true has length"):
        hv_solve(op, np.ones(2), 0.1, 1.0, SolverConfig(L=1.0), x_true=np.ones(3))


def test_trace_disabled_stays_empty():
    op = MatrixOperator(np.eye(2))
    cfg = SolverConfig(L=1.0, record_trace=False)
    res = ista_solve(op, np.array([1.0, 0.0]), 0.3, cfg)
    assert res.trace.iteration == []
    assert res.trace.objective == []
    assert res.trace.step_norm == []


def test_trace_full_stride_one():
    op = MatrixOperator(np.eye(2))
    cfg = SolverConfig(L=2.0, max_iters=2000, tol=1e-10)
    res = hv_solve(op, np.array([1.0, 0.0]), 0.1, 0.0, cfg)
    assert res.termination == TERMINATION_CONVERGED
    assert len(res.trace.iteration) == res.iterations + 1
    assert res.trace.iteration[0] == 0
    assert res.trace.iteration[-1] == res.iterations
    assert res.trace.step_norm[-1] < cfg.tol


def test_compat_fixed_trace_records_descended_objective():
    # L = 2||A||^2 makes the fixed compat step a descent step on
    # 0.5||Ax-y||^2 + alpha*(L||x||_1^2 - eta||x||^2), so its trace must not rise
    a, x_true = gaussian_instance(20, 10, 3, 0.2, np.random.SeedSequence((3, 0)))
    op = MatrixOperator(a)
    y = add_noise_db(op.apply(x_true), 30.0, np.random.SeedSequence((3, 1))).y_delta
    alpha, eta = 1e-2, 1.0
    L = 2.0 * float(np.linalg.norm(a, 2)) ** 2
    cfg = SolverConfig(L=L, max_iters=5000, tol=1e-10, x0=0.01 * np.ones(20),
                       compat_alpha_mode=True)
    res = hv_solve(op, y, alpha, eta, cfg)
    assert res.termination == TERMINATION_CONVERGED
    obj = np.array(res.trace.objective)
    assert np.max(np.diff(obj)) <= 1e-12 * (1.0 + np.max(np.abs(obj)))
    x = res.x_star
    stated = (0.5 * float(np.sum((a @ x - y) ** 2))
              + alpha * (L * float(np.sum(np.abs(x))) ** 2 - eta * float(x @ x)))
    assert obj[-1] == pytest.approx(stated, rel=1e-12)
    # no reference signal given, so the error channels stay empty
    assert res.trace.snr_db == []
    assert res.trace.rel_error == []


def test_trace_reference_channels():
    op = MatrixOperator(np.eye(2))
    cfg = SolverConfig(L=2.0, max_iters=2000, tol=1e-10)
    truth = np.array([5.0 / 6.0, 0.0])
    res = hv_solve(op, np.array([1.0, 0.0]), 0.1, 0.0, cfg, x_true=truth)
    assert len(res.trace.snr_db) == len(res.trace.iteration)
    assert len(res.trace.rel_error) == len(res.trace.iteration)
    assert res.trace.snr_db[-1] > 100.0
    assert res.trace.rel_error[-1] < 1e-8

    # every iterate's channels equal the public metrics bit for bit; the
    # solve cut at k iterations returns iterate k
    a, x_true = gaussian_instance(30, 12, 4, 0.05, np.random.SeedSequence((0, 0)))
    op = PowerCsOperator(a, 2, 3)
    y = add_noise_db(op.apply(x_true), 30.0, np.random.SeedSequence((0, 1))).y_delta
    for solve, step in ((hv_solve, STEP_FIXED), (hv_solve, STEP_ACCELERATED),
                        (ista_solve, STEP_FIXED), (ista_solve, STEP_ACCELERATED),
                        (stl1l2_solve, STEP_ACCELERATED)):
        cfg = SolverConfig(L=10.0, max_iters=15, tol=1e-12, x0=0.01 * np.ones(30),
                           step=step)
        params = {hv_solve: (1e-4, 1.0), ista_solve: (1e-4,),
                  stl1l2_solve: (1e-4, 5e-5)}[solve]
        trace = solve(op, y, *params, cfg, x_true).trace
        assert len(trace.rel_error) == len(trace.snr_db) == 16
        for k in range(16):
            x_k = solve(op, y, *params, replace(cfg, max_iters=k, record_trace=False)
                        ).x_star if k else cfg.x0
            assert trace.rel_error[k] == relative_error(x_k, x_true)
            assert trace.snr_db[k] == snr_db(x_k, x_true)


def test_zero_reference_fails_only_where_a_trace_needs_it():
    op = MatrixOperator(np.eye(2))
    y, zero = np.array([1.0, 0.0]), np.zeros(2)
    with pytest.raises(DegenerateReferenceError):
        hv_solve(op, y, 0.1, 0.0, SolverConfig(L=2.0), x_true=zero)
    res = hv_solve(op, y, 0.1, 0.0, SolverConfig(L=2.0, record_trace=False), x_true=zero)
    assert res.trace.rel_error == []


def test_max_iters_termination():
    op = MatrixOperator(np.eye(2))
    cfg = SolverConfig(L=2.0, max_iters=3, tol=1e-14)
    res = hv_solve(op, np.array([1.0, 0.0]), 0.1, 0.0, cfg)
    assert res.termination == TERMINATION_MAX_ITERS
    assert res.iterations == 3


def test_iterate_trace_instances_independent():
    t1 = IterateTrace()
    t1.iteration.append(5)
    t2 = IterateTrace()
    assert t2.iteration == []


def test_recovery_result_is_frozen():
    op = MatrixOperator(np.eye(2))
    res = ista_solve(op, np.array([1.0, 0.0]), 0.3, SolverConfig(L=1.0))
    assert isinstance(res, RecoveryResult)
    with pytest.raises(AttributeError):
        res.iterations = 0


def _bench_seed1_config(step):
    return SolverConfig(L=BENCH_L, max_iters=BENCH_MAX_ITERS, tol=BENCH_TOL,
                        x0=0.01 * np.ones(BENCH_N), compat_alpha_mode=True,
                        step=step)


def test_accelerated_rule_converges_where_fixed_step_cycles():
    # benchmark seed 1, compat mode: the fixed step 1/L overshoots the local
    # curvature and ends in a two-cycle; the monotone accelerated rule
    # reaches a stationary point well inside the same budget
    op, x_true, data = bench_instance(1)
    fixed = hv_solve(op, data.y_delta, BENCH_ALPHA, 1.0,
                     _bench_seed1_config(STEP_FIXED))
    assert fixed.termination == TERMINATION_MAX_ITERS
    assert fixed.stationarity > 1.0
    cfg = _bench_seed1_config(STEP_ACCELERATED)
    acc = hv_solve(op, data.y_delta, BENCH_ALPHA, 1.0, cfg)
    assert acc.termination == TERMINATION_CONVERGED
    assert acc.iterations < cfg.max_iters
    assert acc.stationarity <= cfg.tol * cfg.L
    assert np.all(np.diff(acc.trace.objective) <= 0.0)
    assert acc.trace.iteration[-1] == acc.iterations


@pytest.mark.parametrize("step", STEP_RULES)
def test_compat_solve_is_default_solve_at_mapped_parameters(step):
    # compat (alpha, eta) descends the default objective at (alpha*L, eta/L);
    # the two differ only by the rounding of (alpha*L)/L against alpha. The
    # fixed rule follows the same path wherever tried; the accelerated rule's
    # restart and line-search tests compare objectives that differ at that
    # rounding, so on other (alpha, L) of this instance its paths can split
    op, y, x0, _ = _descent_instance()
    alpha, eta, L = 7.4e-4, 1.0, 3.0
    assert (alpha * L) / L != alpha
    common = dict(L=L, max_iters=2000, tol=1e-9, x0=x0, step=step)
    compat = hv_solve(op, y, alpha, eta, SolverConfig(compat_alpha_mode=True, **common))
    mapped = hv_solve(op, y, alpha * L, eta / L, SolverConfig(**common))
    assert compat.termination == mapped.termination == TERMINATION_CONVERGED
    assert compat.iterations == mapped.iterations
    gap = np.linalg.norm(compat.x_star - mapped.x_star)
    assert gap <= 1e-12 * np.linalg.norm(mapped.x_star)


def test_accelerated_rule_identity_returns_prox():
    # convex case of criterion 9: on the identity the minimizer is prox(y)
    y = np.array([2.0, -1.3, 0.4, 0.0, 3.1])
    cfg = SolverConfig(L=1.0, max_iters=200, tol=1e-12, x0=np.zeros(5),
                       step=STEP_ACCELERATED)
    res = hv_solve(MatrixOperator(np.eye(5)), y, 0.3, 0.0, cfg)
    assert res.termination == TERMINATION_CONVERGED
    assert np.array_equal(res.x_star, prox_sql1(y, 0.3).p)
    assert res.stationarity == 0.0


def test_accelerated_rule_backtracks_past_divergent_step_constant():
    # the step constant that makes the fixed rule diverge (see
    # test_divergent_step_raises_overflow) only seeds the line search
    a, x_true = gaussian_instance(40, 16, 4, 0.5, np.random.SeedSequence((7, 0)))
    op = PowerCsOperator(a, 1, 1)
    y = op.apply(x_true)
    L = 0.01 * float(np.linalg.norm(4.0 * a, 2)) ** 2
    with pytest.raises(NumericalOverflowError, match="diverged"):
        hv_solve(op, y, 1e-2, 1.0, SolverConfig(L=L, max_iters=5000, tol=1e-6))
    cfg = SolverConfig(L=L, max_iters=5000, tol=1e-6, step=STEP_ACCELERATED)
    res = hv_solve(op, y, 1e-2, 1.0, cfg)
    assert res.termination == TERMINATION_CONVERGED
    assert np.all(np.diff(res.trace.objective) <= 0.0)


def test_baselines_converge_under_accelerated_rule():
    # compare test5's seed-0 instance, on which both baselines stop at the
    # budget under the fixed step; iteration counts and SNR depend on the
    # BLAS kernel, so only the certificate and the descent are checked
    op, _, data = bench_instance(0)
    cfg = SolverConfig(L=BENCH_L, max_iters=BENCH_MAX_ITERS, tol=BENCH_TOL,
                       x0=0.01 * np.ones(BENCH_N), step=STEP_ACCELERATED)
    for res in (ista_solve(op, data.y_delta, BENCH_ALPHA, cfg),
                stl1l2_solve(op, data.y_delta, BENCH_ALPHA, BENCH_ALPHA, cfg)):
        assert res.termination == TERMINATION_CONVERGED
        assert res.stationarity <= cfg.tol * cfg.L
        assert np.all(np.diff(res.trace.objective) <= 0.0)
