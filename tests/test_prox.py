"""Squared-l1 proximal operator: closed form, weights, and oracles."""
import numpy as np
import pytest

from hvsparse.core import NumericalOverflowError, ParameterError
from hvsparse.prox import (ProxSolution, lambda_weights, mu_star,
                           mu_star_bisect, prox_sql1, prox_sql1_bisect, psi,
                           soft_threshold)


def sq_l1_objective(u, x, alpha):
    return 0.5 * float(np.sum((u - x) ** 2)) + alpha * float(np.sum(np.abs(u))) ** 2


def test_lambda_weights_fixed_values():
    assert np.array_equal(lambda_weights(np.array([3.0, 1.0])), [0.75, 0.25])
    assert np.array_equal(lambda_weights(np.zeros(4)), np.full(4, 0.25))
    assert np.array_equal(lambda_weights(np.array([-2.0, 0.0, 2.0])), [0.5, 0.0, 0.5])


def test_lambda_weights_simplex():
    rng = np.random.default_rng(1)
    for _ in range(50):
        lam = lambda_weights(rng.normal(size=int(rng.integers(1, 9))))
        assert np.all(lam >= 0)
        assert float(lam.sum()) == pytest.approx(1.0, abs=1e-12)


def test_psi_fixed_values():
    x = np.array([2.0, -1.0])
    alpha = 0.3
    mu_hi = float(np.max(x * x)) / (4 * alpha)
    assert psi(x, alpha, mu_hi) == pytest.approx(-1.0, abs=1e-12)
    assert psi(x, alpha, 2 * mu_hi) == -1.0
    # 1-d arithmetic: 0.5*1/(1/6) - 0.5 - 1 = 1.5
    assert psi(np.array([1.0]), 0.25, 1.0 / 36.0) == pytest.approx(1.5, abs=1e-12)


def test_psi_nonincreasing_in_mu():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.uniform(-4, 4, int(rng.integers(1, 8)))
        alpha = float(10 ** rng.uniform(-3, 0.5))
        grid = np.geomspace(1e-8, 10.0, 60)
        vals = [psi(x, alpha, float(m)) for m in grid]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_psi_rejects_bad_mu():
    for mu in (0.0, -1.0):
        with pytest.raises(ParameterError):
            psi(np.array([1.0]), 0.5, mu)


def test_mu_star_one_dimensional_closed_form():
    # support {1} forces sqrt(mu) = sqrt(alpha)*t/(1+2*alpha)
    assert mu_star(np.array([3.0]), 0.5) == pytest.approx(1.125, rel=1e-14)


def test_mu_star_frozen_two_dim():
    # x=(3,1), alpha=0.25: threshold boundary sits exactly at the second entry
    assert mu_star(np.array([3.0, 1.0]), 0.25) == 1.0


def test_mu_star_root_property():
    rng = np.random.default_rng(3)
    for _ in range(300):
        x = rng.uniform(-5, 5, int(rng.integers(1, 11)))
        alpha = float(10 ** rng.uniform(-4, 1))
        mu = mu_star(x, alpha)
        assert mu > 0
        assert abs(psi(x, alpha, mu)) <= 1e-12


def test_mu_star_matches_bisection():
    # bisection halts at interval width 1e-14 * mu_hi, so agreement is
    # absolute on that scale, not relative to mu itself
    rng = np.random.default_rng(4)
    for case in range(201):
        if case == 0:
            x, alpha = np.array([4.0, 2.0]), 0.5
        else:
            x = rng.uniform(-5, 5, int(rng.integers(1, 11)))
            alpha = float(10 ** rng.uniform(-4, 1))
        mu_hi = float(np.abs(x).max()) ** 2 / (4.0 * alpha)
        gap = abs(mu_star(x, alpha) - mu_star_bisect(x, alpha))
        assert gap <= 2e-14 * mu_hi


def test_mu_star_quadratic_scaling():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.uniform(-3, 3, 6)
        if not x.any():
            continue
        t = float(10 ** rng.uniform(-2, 2))
        assert mu_star(t * x, 0.7) == pytest.approx(t * t * mu_star(x, 0.7), rel=1e-9)


def test_mu_star_rejects_zero_vector():
    with pytest.raises(ParameterError):
        mu_star(np.zeros(3), 0.5)


def test_mu_star_overflow_guard():
    with pytest.raises(NumericalOverflowError):
        mu_star(np.full(3, 1e200), 1e-4)


def test_prox_zero_input():
    sol = prox_sql1(np.zeros(5), 0.3)
    assert isinstance(sol, ProxSolution)
    assert np.array_equal(sol.p, np.zeros(5))


def test_prox_one_dimensional():
    # minimizer of 0.5*(u-3)^2 + 0.5*u^2
    assert np.array_equal(prox_sql1(np.array([3.0]), 0.5).p, [1.5])


def _weights(x, alpha, mu):
    """The weights lambda_i = max(sqrt(alpha)*|x_i|/sqrt(mu) - 2*alpha, 0) at mu."""
    return np.maximum(np.sqrt(alpha) * np.abs(x) / np.sqrt(mu) - 2.0 * alpha, 0.0)


def test_prox_frozen_example():
    sol = prox_sql1(np.array([3.0, 1.0]), 0.25)
    assert np.array_equal(sol.p, [2.0, 0.0])
    assert sol.mu_star == 1.0
    assert sol.threshold == 1.0
    assert np.array_equal(_weights(np.array([3.0, 1.0]), 0.25, sol.mu_star), [1.0, 0.0])


def test_prox_against_grid_oracle():
    # dense grid argmin of the subproblem lands on the closed-form answer
    x = np.array([4.0, 2.0])
    alpha = 0.5
    sol = prox_sql1(x, alpha)
    grid = np.linspace(-1.0, 5.0, 1201)
    best_val, best_u = np.inf, None
    for u1 in grid:
        vals = 0.5 * ((u1 - x[0]) ** 2 + (grid - x[1]) ** 2) \
            + alpha * (abs(u1) + np.abs(grid)) ** 2
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val, best_u = float(vals[j]), np.array([u1, grid[j]])
    assert np.abs(sol.p - best_u).max() <= 0.005  # grid spacing
    assert sq_l1_objective(sol.p, x, alpha) <= best_val + 1e-12
    assert np.array_equal(sol.p, [2.0, 0.0])


def test_prox_solution_invariants():
    rng = np.random.default_rng(6)
    for _ in range(300):
        x = rng.uniform(-5, 5, int(rng.integers(1, 11)))
        alpha = float(10 ** rng.uniform(-4, 1))
        sol = prox_sql1(x, alpha)
        lam = _weights(x, alpha, sol.mu_star)
        assert float(np.sum(lam)) == pytest.approx(1.0, abs=1e-10)
        assert np.all(lam >= 0)
        rebuilt = lam * x / (lam + 2.0 * alpha)
        assert np.abs(sol.p - rebuilt).max() <= 1e-12 * max(1.0, np.abs(x).max())
        assert np.array_equal(sol.p, soft_threshold(x, sol.threshold))


def test_prox_subgradient_optimality():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        x = rng.uniform(-5, 5, int(rng.integers(1, 11)))
        alpha = float(10 ** rng.uniform(-4, 1))
        p = prox_sql1(x, alpha).p
        p1 = float(np.sum(np.abs(p)))
        nz = p != 0
        if nz.any():
            gap = np.abs(x[nz] - p[nz] - 2 * alpha * p1 * np.sign(p[nz]))
            assert float(gap.max()) <= 1e-8
        if (~nz).any():
            assert float(np.abs(x[~nz]).max()) <= 2 * alpha * p1 + 1e-8


def test_prox_homogeneity_and_symmetry():
    rng = np.random.default_rng(8)
    for _ in range(100):
        x = rng.uniform(-5, 5, 7)
        alpha = float(10 ** rng.uniform(-3, 0.5))
        p = prox_sql1(x, alpha).p
        t = float(10 ** rng.uniform(-2, 2))
        scaled = prox_sql1(t * x, alpha).p
        assert np.abs(scaled - t * p).max() <= 1e-10 * max(1.0, t * np.abs(p).max())
        assert np.array_equal(prox_sql1(-x, alpha).p, -p)


def test_prox_permutation_equivariance():
    rng = np.random.default_rng(9)
    x = rng.uniform(-5, 5, 9)
    perm = rng.permutation(9)
    p = prox_sql1(x, 0.2).p
    assert np.array_equal(prox_sql1(x[perm], 0.2).p, p[perm])


def test_prox_nonexpansive():
    rng = np.random.default_rng(10)
    for _ in range(200):
        x1 = rng.uniform(-5, 5, 6)
        x2 = rng.uniform(-5, 5, 6)
        alpha = float(10 ** rng.uniform(-3, 1))
        d_out = float(np.linalg.norm(prox_sql1(x1, alpha).p - prox_sql1(x2, alpha).p))
        assert d_out <= float(np.linalg.norm(x1 - x2)) + 1e-10


def test_prox_shrinks_componentwise():
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.uniform(-5, 5, 8)
        p = prox_sql1(x, float(10 ** rng.uniform(-3, 1))).p
        assert np.all(np.abs(p) <= np.abs(x) + 1e-15)
        assert np.all((p == 0) | (np.sign(p) == np.sign(x)))


def test_prox_bisect_route_agrees():
    rng = np.random.default_rng(13)
    for _ in range(200):
        x = rng.uniform(-5, 5, int(rng.integers(1, 11)))
        alpha = float(10 ** rng.uniform(-4, 1))
        gap = np.abs(prox_sql1(x, alpha).p - prox_sql1_bisect(x, alpha))
        assert float(gap.max()) <= 1e-9
    assert np.array_equal(prox_sql1_bisect(np.zeros(4), 0.5), np.zeros(4))


def test_prox_rejects_bad_alpha():
    for alpha in (0.0, -0.5, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            prox_sql1(np.ones(3), alpha)


def test_soft_threshold_fixed_values():
    assert np.array_equal(soft_threshold(np.array([3.0, -1.0]), 1.0), [2.0, 0.0])
    x = np.array([0.3, -2.0, 5.0])
    assert np.array_equal(soft_threshold(x, 0.0), x)
    assert np.array_equal(soft_threshold(x, 5.0), np.zeros(3))
    assert np.array_equal(soft_threshold(x, 7.0), np.zeros(3))


def test_soft_threshold_rejects_bad_theta():
    for theta in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ParameterError):
            soft_threshold(np.ones(2), theta)
