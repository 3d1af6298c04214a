"""Per-layer microbenchmark at a fixed iterate on the benchmark instance.

The instance is the one every preset draws for seed 0 (n=200, m=80, s=16,
c=2, d=3, 30 dB). The iterate is the compat-mode hv iterate after 100 steps
from the presets' start point, so each kernel sees a realistic in-loop
input. Each figure is the best of ``REPEATS`` timings of ``NUMBER`` calls,
in microseconds per call. A is 80x200 float64 (128 KB), which stays in the
L2 cache, so the figures measure call overhead plus in-cache arithmetic;
no bandwidth figure is derived from them.
"""

from __future__ import annotations

import timeit

import numpy as np

REPEATS = 7
NUMBER = 2000
ALPHA, ETA, STEP_L = 5.1e-5, 1.0, 10.0


def microbench() -> dict[str, float]:
    from hvsparse.core import add_noise_db, gaussian_instance
    from hvsparse.operators import PowerCsOperator
    from hvsparse.prox import prox_sql1, soft_threshold
    from hvsparse.solvers import SolverConfig, hv_solve

    a, x_true = gaussian_instance(200, 80, 16, 0.05, np.random.SeedSequence((0, 0)))
    op = PowerCsOperator(a, 2, 3)
    data = add_noise_db(op.apply(x_true), 30.0, np.random.SeedSequence((0, 1)))
    cfg = SolverConfig(L=STEP_L, max_iters=100, x0=0.01 * np.ones(200),
                       compat_alpha_mode=True, record_trace=False)
    x = hv_solve(op, data.y_delta, ALPHA, ETA, cfg).x_star
    r = op.apply(x) - data.y_delta
    v = x + (2.0 * ALPHA * ETA / STEP_L) * x - op.jacobian_adjoint_apply(x, r) / STEP_L
    theta = prox_sql1(v, ALPHA).threshold
    cases = {
        "micro.operators.apply_us": lambda: op.apply(x),
        "micro.operators.adjoint_us": lambda: op.jacobian_adjoint_apply(x, r),
        "micro.prox.prox_sql1_us": lambda: prox_sql1(v, ALPHA),
        "micro.prox.soft_threshold_us": lambda: soft_threshold(v, theta),
        "micro.matvec_us": lambda: a @ x,
    }
    return {name: min(timeit.repeat(fn, repeat=REPEATS, number=NUMBER)) / NUMBER * 1e6
            for name, fn in cases.items()}
