"""Forward maps, Jacobian actions, and the finite-difference cross-check."""
import numpy as np
import pytest

from hvsparse.core import (NumericalOverflowError, ParameterError,
                           gaussian_instance, snr_db)
from hvsparse.operators import (Linearization, MatrixOperator, NonlinearOperator,
                                PowerCsOperator, estimate_smooth_lipschitz,
                                fd_jacobian_check, POWER_LIMIT)
from hvsparse.solvers import (STEP_ACCELERATED, STEP_FIXED, SolverConfig,
                              TERMINATION_CONVERGED, hv_solve)


def test_power_operator_scalar_example():
    # A=[1], c=2, d=3, x=2: z = 2+8 = 10, F = 10+100 = 110
    op = PowerCsOperator(np.array([[1.0]]), 2, 3)
    x = np.array([2.0])
    assert np.array_equal(op.apply(x), [110.0])
    # J = (1+2z) * A * (1+3x^2) = 21 * 13
    assert np.array_equal(op.jacobian_apply(x, np.array([1.0])), [273.0])
    assert np.array_equal(op.jacobian_adjoint_apply(x, np.array([1.0])), [273.0])


def test_power_operator_zero_maps_to_zero():
    rng = np.random.default_rng(19)
    for c, d in ((1, 1), (2, 3), (5, 5)):
        op = PowerCsOperator(rng.normal(size=(4, 6)), c, d)
        assert np.array_equal(op.apply(np.zeros(6)), np.zeros(4))


def test_power_operator_linear_case_is_scaled_matrix():
    # c = d = 1 collapses to F(x) = 2*A*(2x) = 4Ax, bit for bit
    rng = np.random.default_rng(20)
    a = rng.normal(size=(5, 8))
    op = PowerCsOperator(a, 1, 1)
    for _ in range(20):
        x = rng.uniform(-3, 3, 8)
        assert np.array_equal(op.apply(x), 4.0 * (a @ x))


def test_power_operator_odd_symmetry():
    # odd c and d make F odd; doubling-free sign flip is exact
    rng = np.random.default_rng(21)
    op = PowerCsOperator(rng.normal(size=(4, 5)), 3, 5)
    for _ in range(20):
        x = rng.uniform(-1, 1, 5)
        assert np.array_equal(op.apply(-x), -op.apply(x))


def test_jacobian_adjoint_identity():
    # <J u, r> == <u, J^T r> across exponents and random triples
    rng = np.random.default_rng(22)
    for c in range(1, 6):
        for d in range(1, 6):
            op = PowerCsOperator(rng.normal(size=(6, 9)) * 0.4, c, d)
            for _ in range(4):
                x = rng.uniform(-1, 1, 9)
                u = rng.normal(size=9)
                r = rng.normal(size=6)
                lhs = float(op.jacobian_apply(x, u) @ r)
                rhs = float(u @ op.jacobian_adjoint_apply(x, r))
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_jacobian_linearity():
    op = PowerCsOperator(np.random.default_rng(23).normal(size=(5, 7)), 2, 3)
    rng = np.random.default_rng(24)
    x = rng.uniform(-1, 1, 7)
    u, v = rng.normal(size=7), rng.normal(size=7)
    combo = op.jacobian_apply(x, 2.0 * u - 3.0 * v)
    parts = 2.0 * op.jacobian_apply(x, u) - 3.0 * op.jacobian_apply(x, v)
    assert np.abs(combo - parts).max() <= 1e-12 * max(1.0, np.abs(parts).max())


def test_fd_check_passes_on_power_operator():
    a, _ = gaussian_instance(20, 8, 3, 0.05, np.random.SeedSequence(25))
    op = PowerCsOperator(a, 2, 3)
    x = np.random.default_rng(26).uniform(-1, 1, 20)
    report = fd_jacobian_check(op, x)
    assert report.passed
    assert report.max_rel_deviation <= 1e-5
    assert report.num_directions == 10


def test_fd_check_linear_operator_tight():
    # truncation error vanishes for linear maps, so a large h avoids the
    # cancellation floor and the deviation drops to rounding level
    op = MatrixOperator(np.random.default_rng(27).normal(size=(6, 10)))
    x = np.random.default_rng(28).normal(size=10)
    report = fd_jacobian_check(op, x, h=1e-3, tol=1e-10)
    assert report.passed
    assert report.max_rel_deviation <= 1e-10


def test_fd_check_flags_corrupted_jacobian():
    class Corrupted(PowerCsOperator):
        def jacobian_apply(self, x, u):
            return 1.05 * super().jacobian_apply(x, u)

    a, _ = gaussian_instance(20, 8, 3, 0.05, np.random.SeedSequence(25))
    op = Corrupted(a, 2, 3)
    x = np.random.default_rng(26).uniform(-1, 1, 20)
    report = fd_jacobian_check(op, x)
    assert not report.passed
    assert report.max_rel_deviation > 1e-2


def test_fd_check_validation():
    op = MatrixOperator(np.eye(2))
    for h in (0.0, -1e-6, float("inf")):
        with pytest.raises(ParameterError):
            fd_jacobian_check(op, np.ones(2), h=h)
    with pytest.raises(ParameterError):
        fd_jacobian_check(op, np.ones(2), num_directions=0)


def test_power_overflow_guards():
    op = PowerCsOperator(np.array([[1.0]]), 2, 3)
    with pytest.raises(NumericalOverflowError, match="x\\^3"):
        op.apply(np.array([1e60]))
    # inner stays finite (x^3 = 1e63), z^c overflows: z ~ 1e78, z^2 ~ 1e156
    op2 = PowerCsOperator(np.array([[1e15]]), 2, 3)
    with pytest.raises(NumericalOverflowError, match="z\\^2"):
        op2.apply(np.array([1e21]))
    assert POWER_LIMIT == 1e150


def test_secant_lipschitz_fixed_value():
    # F(x) = 2x, y = 0, alpha*eta = 0.5: grad f(x) = 4x - x = 3x, so the
    # secant slope between probes 0 and 1 is exactly 3
    a = np.array([[2.0]])
    op = MatrixOperator(a)
    probes = [np.array([0.0]), np.array([1.0])]
    got = estimate_smooth_lipschitz(op, probes, np.zeros(1), 0.5, 1.0)
    assert got == 3.0


def test_secant_lipschitz_validation():
    op = MatrixOperator(np.eye(2))
    with pytest.raises(ParameterError):
        estimate_smooth_lipschitz(op, [np.zeros(2)], np.zeros(2), 0.1, 1.0)
    with pytest.raises(ParameterError):
        estimate_smooth_lipschitz(op, [np.ones(2), np.ones(2)], np.zeros(2),
                                  0.1, 1.0)


def test_matrix_operator_basics():
    a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    op = MatrixOperator(a)
    assert op.input_dim == 2
    assert op.output_dim == 3
    x = np.array([1.0, -1.0])
    assert np.array_equal(op.apply(x), a @ x)
    assert np.array_equal(op.jacobian_apply(x, x), a @ x)
    r = np.array([1.0, 0.0, -2.0])
    assert np.array_equal(op.jacobian_adjoint_apply(x, r), a.T @ r)


def test_operator_dimension_mismatches():
    op = PowerCsOperator(np.ones((3, 4)), 2, 3)
    with pytest.raises(ParameterError):
        op.apply(np.ones(5))
    with pytest.raises(ParameterError):
        op.jacobian_apply(np.ones(4), np.ones(3))
    with pytest.raises(ParameterError):
        op.jacobian_adjoint_apply(np.ones(4), np.ones(4))


def test_power_operator_rejects_bad_exponents():
    for c, d in ((0, 1), (1, 0), (-2, 3), (2.5, 3), (2, 3.0)):
        with pytest.raises(ParameterError):
            PowerCsOperator(np.eye(2), c, d)


def test_jacobian_actions_evaluate_the_model():
    # both Jacobian actions linearize at x, so they raise where F(x) does,
    # also where the diagonals alone (x^2 ~ 1e42, z ~ 1e78) would not
    op = PowerCsOperator(np.array([[1e15]]), 2, 3)
    x = np.array([1e21])
    with pytest.raises(NumericalOverflowError, match="z\\^2"):
        op.jacobian_apply(x, np.ones(1))
    with pytest.raises(NumericalOverflowError, match="z\\^2"):
        op.jacobian_adjoint_apply(x, np.ones(1))


def test_linearization_matches_the_three_views():
    rng = np.random.default_rng(29)
    op = PowerCsOperator(rng.normal(size=(5, 7)), 3, 2)
    x, u, r = rng.uniform(-1, 1, 7), rng.normal(size=7), rng.normal(size=5)
    lin = op.linearize(x)
    assert isinstance(lin, Linearization)
    assert np.array_equal(lin.value, op.apply(x))
    assert np.array_equal(lin.jvp(u), op.jacobian_apply(x, u))
    assert np.array_equal(lin.vjp(r), op.jacobian_adjoint_apply(x, r))


class _TanhOperator(NonlinearOperator):
    """F(x) = A tanh(x), defined by its dimensions and linearize alone."""

    def __init__(self, a):
        self.a = a

    @property
    def input_dim(self) -> int:
        return self.a.shape[1]

    @property
    def output_dim(self) -> int:
        return self.a.shape[0]

    def linearize(self, x):
        t = np.tanh(x)
        return Linearization(self.a @ t, self.a, 1.0 - t * t, 1.0)


def test_model_defined_by_linearize_alone():
    a, x_true = gaussian_instance(30, 15, 3, 0.3, np.random.SeedSequence(40))
    op = _TanhOperator(a)
    rng = np.random.default_rng(41)
    x = rng.uniform(-1, 1, 30)
    assert fd_jacobian_check(op, x).passed
    u, r = rng.normal(size=30), rng.normal(size=15)
    lhs = float(op.jacobian_apply(x, u) @ r)
    assert lhs == pytest.approx(float(u @ op.jacobian_adjoint_apply(x, r)), rel=1e-12)

    y = op.apply(x_true)
    L = float(np.linalg.norm(a, 2)) ** 2
    fixed = hv_solve(op, y, 1e-4, 1.0, SolverConfig(L=L, max_iters=500, step=STEP_FIXED))
    assert np.all(np.diff(fixed.trace.objective) <= 0.0)
    accelerated = hv_solve(op, y, 1e-4, 1.0,
                           SolverConfig(L=L, max_iters=5000, step=STEP_ACCELERATED))
    assert accelerated.termination == TERMINATION_CONVERGED
    assert snr_db(accelerated.x_star, x_true) > 30.0
