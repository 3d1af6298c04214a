"""Shared fixtures: the expensive 10-seed recovery batteries are computed
once per test run and reused by every check that consumes them.

The compat-mode batteries solve with the monotone accelerated step rule and
assert that every solve converged, so the recovery checks read stationary
points rather than iterates cut off by the budget. The default-mode battery
keeps the fixed step, whose descent criterion 4 checks."""
import time

import numpy as np
import pytest

from hvsparse.core import add_noise_db, gaussian_instance, snr_db
from hvsparse.expcli import TEST3_ALPHA_PER_LEVEL
from hvsparse.operators import PowerCsOperator
from hvsparse.regfunc import RegParams, objective
from hvsparse.solvers import (STEP_ACCELERATED, STEP_FIXED, SolverConfig,
                              TERMINATION_CONVERGED, hv_solve, ista_solve)

BENCH_N = 200
BENCH_M = 80
BENCH_S = 16
BENCH_SCALE = 0.05
BENCH_L = 10.0
BENCH_ALPHA = 5.1e-5
BENCH_TOL = 1e-5
BENCH_MAX_ITERS = 5000
BENCH_SEEDS = tuple(range(10))


def bench_instance(seed, c=2, d=3, level_db=30.0):
    """Benchmark instance: the sensing matrix and signal come from one seed
    stream, the noise from a second, so solvers can share realizations."""
    a, x_true = gaussian_instance(BENCH_N, BENCH_M, BENCH_S, BENCH_SCALE,
                                  np.random.SeedSequence((seed, 0)))
    op = PowerCsOperator(a, c, d)
    data = add_noise_db(op.apply(x_true), level_db, np.random.SeedSequence((seed, 1)))
    return op, x_true, data


def bench_config(compat, record_trace=False):
    """Benchmark settings; compat mode solves with the accelerated rule."""
    return SolverConfig(L=BENCH_L, max_iters=BENCH_MAX_ITERS, tol=BENCH_TOL,
                        x0=0.01 * np.ones(BENCH_N), compat_alpha_mode=compat,
                        record_trace=record_trace,
                        step=STEP_ACCELERATED if compat else STEP_FIXED)


def solve_objective(op, x, y_delta, alpha, eta, compat):
    """The objective a benchmark solve descends; a compat solve at
    (alpha, eta) descends the default one at (alpha*L, eta/L)."""
    params = RegParams(alpha * BENCH_L, eta / BENCH_L) if compat else RegParams(alpha, eta)
    return objective(op, x, y_delta, params)


def run_bench_hv(seed, eta, compat, c=2, d=3, level_db=30.0, alpha=BENCH_ALPHA,
                 record_trace=False):
    op, x_true, data = bench_instance(seed, c=c, d=d, level_db=level_db)
    t0 = time.perf_counter()
    result = hv_solve(op, data.y_delta, alpha, eta,
                      bench_config(compat, record_trace), x_true)
    wall = time.perf_counter() - t0
    return {"seed": seed, "snr": snr_db(result.x_star, x_true),
            "x_star": result.x_star, "iterations": result.iterations,
            "termination": result.termination, "wall": wall,
            "objective": list(result.trace.objective),
            "objective_star": solve_objective(op, result.x_star, data.y_delta,
                                              alpha, eta, compat),
            "objective_true": solve_objective(op, x_true, data.y_delta,
                                              alpha, eta, compat)}


def converged(runs):
    """Return a battery's runs after asserting that every solve converged."""
    stalled = [r["seed"] for r in runs if r["termination"] != TERMINATION_CONVERGED]
    assert not stalled, f"seeds {stalled} stopped at max_iters, not at a stationary point"
    return runs


@pytest.fixture(scope="session")
def bench_eta_battery():
    """hv recoveries on the benchmark, shrink weight alpha, eta in {0, 1}."""
    return {eta: converged([run_bench_hv(seed, eta, compat=True)
                            for seed in BENCH_SEEDS])
            for eta in (0.0, 1.0)}


@pytest.fixture(scope="session")
def bench_default_battery():
    """hv recoveries in the default alpha/L mode, with full objective traces."""
    return [run_bench_hv(seed, 1.0, compat=False, record_trace=True)
            for seed in BENCH_SEEDS]


@pytest.fixture(scope="session")
def bench_parity22_battery():
    """Same benchmark but with an even inner exponent (c=2, d=2)."""
    return converged([run_bench_hv(seed, 1.0, compat=True, d=2)
                      for seed in BENCH_SEEDS])


@pytest.fixture(scope="session")
def bench_level_batteries():
    """Benchmark recoveries at 10/20/50 dB with the per-level alpha table."""
    out = {}
    for level in (10.0, 20.0, 50.0):
        alpha = TEST3_ALPHA_PER_LEVEL[level]
        out[level] = converged([run_bench_hv(seed, 1.0, compat=True,
                                             level_db=level, alpha=alpha)
                                for seed in BENCH_SEEDS])
    return out


@pytest.fixture(scope="session")
def bench_ista_battery():
    """ista on the same realizations and alpha as the hv benchmark."""
    runs = []
    for seed in BENCH_SEEDS:
        op, x_true, data = bench_instance(seed)
        result = ista_solve(op, data.y_delta, BENCH_ALPHA, bench_config(False),
                            x_true)
        runs.append({"seed": seed, "snr": snr_db(result.x_star, x_true),
                     "iterations": result.iterations,
                     "termination": result.termination})
    return runs


@pytest.fixture(scope="session")
def prox_corpus():
    """1000 random (x, alpha_eff) pairs: n <= 10, entries U(-5, 5),
    alpha_eff log-uniform over [1e-4, 10]."""
    rng = np.random.default_rng(20260819)
    corpus = []
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        x = rng.uniform(-5.0, 5.0, n)
        alpha = float(10.0 ** rng.uniform(-4.0, 1.0))
        corpus.append((x, alpha))
    return corpus


def pytest_configure(config):
    config._criterion_lines = {}


@pytest.fixture(scope="session")
def criterion(request):
    """Record one acceptance verdict, print it, and assert it."""
    def record(num, passed, detail):
        request.config._criterion_lines[num] = (passed, detail)
        line = f"CRITERION {num}: {'PASS' if passed else 'FAIL'} - {detail}"
        print(line)
        assert passed, line
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", {})
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(lines):
        passed, detail = lines[num]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"CRITERION {num}: {verdict} - {detail}")
