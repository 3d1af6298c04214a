"""The solver loops' private arithmetic against the public functions.

The loops validate their input once, at entry, and then run private bodies:
``prox._sql1`` and ``prox._shrink`` for the prox and the shrink,
``operators._powers`` for the integer powers, ``solvers._check_finite`` for
the divergence guard. These tests pin each body to the public function, or
to the arithmetic it replaced, bit for bit.
"""
import warnings

import numpy as np
import pytest

from hvsparse import solvers
from hvsparse.core import NumericalOverflowError, add_noise_db, gaussian_instance
from hvsparse.operators import POWER_LIMIT, PowerCsOperator, _powers
from hvsparse.prox import _shrink, _sql1, mu_star, prox_sql1, soft_threshold
from hvsparse.solvers import (STEP_ACCELERATED, SolverConfig, TERMINATION_MAX_ITERS,
                              _check_finite, hv_solve, ista_solve, stl1l2_solve)


def _instance(seed=0, n=30, m=12):
    a, x_true = gaussian_instance(n, m, 4, 0.05, np.random.SeedSequence((seed, 0)))
    op = PowerCsOperator(a, 2, 3)
    y = add_noise_db(op.apply(x_true), 30.0, np.random.SeedSequence((seed, 1))).y_delta
    return op, y, 0.01 * np.ones(n)


def _hand_loop(op, y, x0, k, L, step):
    """k fixed steps from public calls; returns x, step norms, residual norm
    and stationarity, each norm by np.linalg.norm."""
    x, norms = x0, []
    for _ in range(k):
        lin = op.linearize(x)
        x_new = step(x, lin.vjp(lin.value - y))
        norms.append(float(np.linalg.norm(x_new - x)))
        x = x_new
    lin = op.linearize(x)
    residual = lin.value - y
    x_next = step(x, lin.vjp(residual))
    return x, norms, float(np.linalg.norm(residual)), float(L * np.linalg.norm(x - x_next))


def _st_step(alpha, beta, L):
    def step(x, grad):
        norm_x = np.linalg.norm(x)
        if beta != 0.0 and norm_x > 0.0:
            grad = grad - (beta / norm_x) * x
        return soft_threshold(x - grad / L, alpha / L)
    return step


ALPHA, ETA, L = 1e-3, 1.0, 10.0
SOLVES = {
    # name: (library solve, public step of the same iteration)
    "hv-default": (lambda op, y, cfg: hv_solve(op, y, ALPHA, ETA, cfg),
                   lambda x, g: prox_sql1(x + (2.0 * ALPHA * ETA / L) * x - g / L, ALPHA / L).p),
    "hv-compat": (lambda op, y, cfg: hv_solve(op, y, ALPHA, ETA, cfg),
                  lambda x, g: prox_sql1(x + (2.0 * ALPHA * ETA / L) * x - g / L, ALPHA).p),
    "ista": (lambda op, y, cfg: ista_solve(op, y, ALPHA, cfg), _st_step(ALPHA, 0.0, L)),
    "st": (lambda op, y, cfg: stl1l2_solve(op, y, ALPHA, 5e-4, cfg), _st_step(ALPHA, 5e-4, L)),
}


@pytest.mark.parametrize("k", [1, 2, 50])
@pytest.mark.parametrize("name", list(SOLVES))
def test_fixed_loop_is_the_public_hand_loop(name, k):
    op, y, x0 = _instance()
    solve, step = SOLVES[name]
    cfg = SolverConfig(L=L, max_iters=k, tol=1e-300, x0=x0,
                       compat_alpha_mode=name == "hv-compat")
    res = solve(op, y, cfg)
    x, norms, res_norm, stationarity = _hand_loop(op, y, x0, k, L, step)
    assert res.iterations == k and res.termination == TERMINATION_MAX_ITERS
    assert res.x_star.tobytes() == x.tobytes()
    assert res.trace.step_norm[1:] == norms
    assert res.final_residual == res_norm == res.trace.residual_norm[-1]
    assert res.stationarity == stationarity


def _prox_battery_inputs(count=1000, seed=0):
    """The (x, alpha_eff) draws of expcli.prox_battery at its defaults."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 11))
        x = rng.uniform(-5.0, 5.0, n)
        yield x, 10.0 ** rng.uniform(np.log10(1e-4), np.log10(10.0))


def test_private_prox_body_is_the_public_prox():
    for x, alpha in _prox_battery_inputs():
        p, mu, threshold = _sql1(x, float(alpha))
        sol = prox_sql1(x, alpha)
        assert p.tobytes() == sol.p.tobytes()
        assert mu == sol.mu_star == mu_star(x, alpha)
        assert threshold == sol.threshold
        assert _shrink(x, np.abs(x), threshold).tobytes() == soft_threshold(x, threshold).tobytes()
    p, mu, threshold = _sql1(np.zeros(4), 0.5)
    assert np.array_equal(p, prox_sql1(np.zeros(4), 0.5).p) and mu == threshold == 0.0


def test_prox_overflow_raises_without_a_warning():
    x = np.array([1e200, -3.0])
    message = "mu_star overflowed for input of magnitude 1.000e+200"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: _sql1(x, 0.5), lambda: prox_sql1(x, 0.5), lambda: mu_star(x, 0.5)):
            with pytest.raises(NumericalOverflowError) as err:
                call()
            assert str(err.value) == message


@pytest.mark.parametrize("v, message", [
    ([1.0, np.nan], "v became non-finite"),
    ([np.inf, 1.0], "v became non-finite"),
    ([-np.inf, 1.0], "v became non-finite"),
    ([1e151, -2.0], "v reached magnitude 1.000e+151; iteration diverged"),
    ([1.0, -1e151], "v reached magnitude 1.000e+151; iteration diverged"),
])
def test_check_finite_messages(v, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalOverflowError) as err:
            _check_finite(np.array(v), "v")
    assert str(err.value) == message
    ok = np.array([1e150, -1e150, 0.0])
    assert _check_finite(ok, "v") is ok


def _chained_power(v, k):
    """v**k by the left-to-right chain v*v*...*v; k = 0 gives ones."""
    out = np.ones_like(v) if k == 0 else v.copy()
    for _ in range(k - 1):
        out *= v
    return out


def _guard_message(name, v, k):
    """The overflow message the power guard gives for v**k, or None."""
    top = float(np.max(np.abs(v)))
    if k > 1 and top > 1.0 and k * np.log10(top) > np.log10(POWER_LIMIT):
        return f"{name}^{k} exceeds {POWER_LIMIT:.0e} (max base magnitude {top:.3e})"
    return None


def test_powers_are_the_chained_products():
    v = np.random.default_rng(7).uniform(-3.0, 3.0, 50)
    for k in range(1, 10):
        low, high = _powers(v, k, "v")
        assert low.tobytes() == _chained_power(v, k - 1).tobytes()
        assert high.tobytes() == _chained_power(v, k).tobytes()


@pytest.mark.parametrize("scale", [1.0, 1e20, 1e40, 1e80])
def test_power_operator_linearize_and_guards_for_every_exponent(scale):
    a = np.random.default_rng(8).normal(size=(6, 5))
    x = scale * np.random.default_rng(9).uniform(-1.0, 1.0, 5)
    for c in range(1, 10):
        for d in range(1, 10):
            op = PowerCsOperator(a, c, d)
            expected = _guard_message("x", x, d)
            if expected is None:
                z = a @ (x + _chained_power(x, d))
                expected = _guard_message("z", z, c)
            if expected is not None:
                with pytest.raises(NumericalOverflowError) as err:
                    op.linearize(x)
                assert str(err.value) == expected
                continue
            lin = op.linearize(x)
            assert lin.value.tobytes() == (z + _chained_power(z, c)).tobytes()
            assert lin.inner.tobytes() == (1.0 + d * _chained_power(x, d - 1)).tobytes()
            assert lin.outer.tobytes() == (1.0 + c * _chained_power(z, c - 1)).tobytes()


def _reference_accelerated(op, y, alpha, eta, cfg):
    """The accelerated rule as first written, from public calls: every trial
    takes its own prox. Returns x_star, iterations and counts of proxes,
    restarts and plain steps at L_k == L after the first iteration."""
    count = {"prox": 0, "restarts": 0, "plain_at_L": 0}
    L, weight = cfg.L, alpha / cfg.L

    def step(x, g, L_k):
        count["prox"] += 1
        return prox_sql1(x + (2.0 * alpha * eta / L_k) * x - g / L_k, weight * (L / L_k)).p

    def smooth(u, r):
        return 0.5 * float(r @ r) - alpha * eta * float(u @ u)

    def objective(u, r):
        norm1 = float(np.sum(np.abs(u)))
        return (0.5 * float(np.linalg.norm(r)) ** 2 + (weight * L) * norm1 * norm1
                - alpha * eta * float(u @ u))

    def line_search(w, r_w, g_w, L_k):
        f_w, slope = smooth(w, r_w), g_w - (2.0 * alpha * eta) * w
        while True:
            z = step(w, g_w, L_k)
            lin = op.linearize(z)
            r, d = lin.value - y, z - w
            if smooth(z, r) <= f_w + float(slope @ d) + 0.5 * L_k * float(d @ d):
                return z, lin, r, L_k
            L_k *= 2.0

    x = cfg.x0
    lin = op.linearize(x)
    r = lin.value - y
    g, obj = lin.vjp(r), objective(x, r)
    L_k, t, x_prev = L, 1.0, x
    for k in range(1, cfg.max_iters + 1):
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        momentum, t = (t - 1.0) / t_next, t_next
        plain = momentum == 0.0
        if not plain:
            w = x + momentum * (x - x_prev)
            lin_w = op.linearize(w)
            r_w = lin_w.value - y
            z, lin_z, r_z, L_k = line_search(w, r_w, lin_w.vjp(r_w), L_k)
            if objective(z, r_z) > obj:
                plain, t = True, 1.0
                count["restarts"] += 1
        if plain:
            count["plain_at_L"] += k > 1 and L_k == L
            z, lin_z, r_z, L_k = line_search(x, r, g, L_k)
        x_prev, x, r = x, z, r_z
        obj, g = objective(x, r), lin_z.vjp(r)
        if float(np.linalg.norm(x - step(x, g, L))) < cfg.tol:
            return x, k, count
    return x, cfg.max_iters, count


def test_accelerated_restart_reuses_the_stopping_test_prox(monkeypatch):
    # a restart's plain step, and the momentum-free step after it, start at
    # L_k == L from the iterate whose fixed step the stopping test just took
    op, y, x0 = _instance()
    cfg = SolverConfig(L=3.0, max_iters=2000, tol=1e-9, x0=x0, step=STEP_ACCELERATED)
    x_ref, iterations, count = _reference_accelerated(op, y, 7.4e-4, 1.0, cfg)
    assert count["restarts"] >= 1 and count["plain_at_L"] >= 2

    calls = []
    body = solvers._sql1
    monkeypatch.setattr(solvers, "_sql1", lambda v, w: calls.append(w) or body(v, w))
    res = hv_solve(op, y, 7.4e-4, 1.0, cfg)
    assert res.x_star.tobytes() == x_ref.tobytes()
    assert res.iterations == iterations < cfg.max_iters
    assert len(calls) == count["prox"] - count["plain_at_L"]
