"""Forward models: the power-nonlinearity sensing operator and helpers.

The nonlinear model is F(x) = z + z^c componentwise with z = A(x + x^d),
where A is a dense m-by-n matrix and c, d are positive integers. Its
Jacobian factors as (I + diag(c*z^(c-1))) A (I + diag(d*x^(d-1))), and the
adjoint reverses that sandwich. ``linearize(x)`` returns F(x) with these
factors at x, so one evaluation serves F, F' and F'^T at a point. Integer
powers are evaluated by repeated multiplication so signs of negative bases
survive exactly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import MAGNITUDE_LIMIT as POWER_LIMIT
from .core import NumericalOverflowError, ParameterError, as_matrix, as_vector
from .regfunc import smooth_grad


@dataclass(frozen=True)
class Linearization:
    """F(x) and F'(x) = diag(outer) A diag(inner) at one x (diagonals 1.0 if linear)."""

    value: np.ndarray
    a: np.ndarray
    inner: np.ndarray | float
    outer: np.ndarray | float

    def jvp(self, u) -> np.ndarray:
        """F'(x) u."""
        return self.outer * (self.a @ (self.inner * u))

    def vjp(self, r) -> np.ndarray:
        """F'(x)^T r."""
        return self.inner * (self.a.T @ (self.outer * r))


class NonlinearOperator(ABC):
    """Evaluation interface shared by all forward models.

    A model implements ``linearize``; ``apply`` and both Jacobian actions are
    views of it, so each one evaluates F(x). Implementations must be
    deterministic, side-effect free, and satisfy the adjoint identity
    <J(x)u, r> = <u, J(x)^T r>.
    """

    @property
    @abstractmethod
    def input_dim(self) -> int: ...

    @property
    @abstractmethod
    def output_dim(self) -> int: ...

    @abstractmethod
    def linearize(self, x) -> Linearization:
        """Validate x once; return F(x) with its Jacobian at x."""

    def apply(self, x) -> np.ndarray:
        """Evaluate F(x)."""
        return self.linearize(x).value

    def jacobian_apply(self, x, u) -> np.ndarray:
        """Evaluate F'(x) u."""
        return self.linearize(x).jvp(as_vector(u, "u", self.input_dim))

    def jacobian_adjoint_apply(self, x, r) -> np.ndarray:
        """Evaluate F'(x)^T r."""
        return self.linearize(x).vjp(as_vector(r, "r", self.output_dim))


def _powers(v: np.ndarray, k: int, name: str) -> tuple[np.ndarray, np.ndarray]:
    """(v**(k-1), v**k) by repeated multiplication, k >= 1. Guards overflow of v**k."""
    if k > 1:
        top = float(np.max(np.abs(v)))
        # k*log10(top) > 150 means v**k leaves the guarded range
        if top > 1.0 and k * np.log10(top) > np.log10(POWER_LIMIT):
            raise NumericalOverflowError(
                f"{name}^{k} exceeds {POWER_LIMIT:.0e} (max base magnitude {top:.3e})")
    low = v if k > 1 else np.ones_like(v)
    for _ in range(k - 2):
        low = low * v
    return low, low * v


class MatrixOperator(NonlinearOperator):
    """A dense matrix seen through the nonlinear-operator interface."""

    def __init__(self, a):
        self.a = as_matrix(a, "A")

    @property
    def input_dim(self) -> int:
        return self.a.shape[1]

    @property
    def output_dim(self) -> int:
        return self.a.shape[0]

    def linearize(self, x) -> Linearization:
        return Linearization(self.a @ as_vector(x, "x", self.input_dim), self.a, 1.0, 1.0)


class PowerCsOperator(NonlinearOperator):
    """Componentwise-power compressed-sensing model F(x) = z + z^c, z = A(x + x^d).

    Parameters
    ----------
    a : array of shape (m, n)
        Dense sensing matrix.
    c, d : int
        Positive integer exponents of the outer and inner nonlinearities.
    """

    def __init__(self, a, c: int, d: int):
        self.a = as_matrix(a, "A")
        if not (isinstance(c, (int, np.integer)) and c >= 1):
            raise ParameterError(f"c must be a positive integer, got {c!r}")
        if not (isinstance(d, (int, np.integer)) and d >= 1):
            raise ParameterError(f"d must be a positive integer, got {d!r}")
        self.c = int(c)
        self.d = int(d)

    @property
    def input_dim(self) -> int:
        return self.a.shape[1]

    @property
    def output_dim(self) -> int:
        return self.a.shape[0]

    def linearize(self, x) -> Linearization:
        x = as_vector(x, "x", self.input_dim)
        x_low, x_d = _powers(x, self.d, "x")
        z = self.a @ (x + x_d)
        z_low, z_c = _powers(z, self.c, "z")
        return Linearization(z + z_c, self.a, 1.0 + self.d * x_low, 1.0 + self.c * z_low)


@dataclass(frozen=True)
class JacobianCheckReport:
    """Outcome of a finite-difference Jacobian comparison."""

    max_rel_deviation: float
    passed: bool
    h: float
    tol: float
    num_directions: int


def fd_jacobian_check(op: NonlinearOperator, x, h: float = 1e-6, tol: float = 1e-5,
                      num_directions: int = 10, seed=0) -> JacobianCheckReport:
    """Compare jacobian_apply against central differences of apply.

    Draws unit-norm random directions u and measures the relative gap
    between F'(x)u and (F(x+hu) - F(x-hu)) / (2h).
    """
    if not (h > 0 and np.isfinite(h)):
        raise ParameterError(f"h must be positive and finite, got {h}")
    if num_directions < 1:
        raise ParameterError(f"need at least one direction, got {num_directions}")
    x = as_vector(x, "x")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(num_directions):
        u = rng.standard_normal(x.size)
        u /= np.linalg.norm(u)
        analytic = op.jacobian_apply(x, u)
        fd = (op.apply(x + h * u) - op.apply(x - h * u)) / (2.0 * h)
        scale = max(float(np.linalg.norm(analytic)), float(np.linalg.norm(fd)), 1e-30)
        worst = max(worst, float(np.linalg.norm(analytic - fd)) / scale)
    return JacobianCheckReport(max_rel_deviation=worst, passed=worst <= tol,
                               h=h, tol=tol, num_directions=num_directions)


def estimate_smooth_lipschitz(op: NonlinearOperator, probes, y_delta,
                              alpha: float, eta: float) -> float:
    """Largest secant slope of the smooth-part gradient over probe pairs.

    Returns max over pairs of ||grad f(x_i) - grad f(x_j)|| / ||x_i - x_j||,
    a lower bound on the gradient Lipschitz constant of
    f(x) = 0.5*||F(x) - y_delta||^2 - alpha*eta*||x||^2. Coincident probe
    pairs are skipped; if every pair coincides the estimate is undefined.
    """
    probes = [as_vector(p, f"probes[{i}]") for i, p in enumerate(probes)]
    if len(probes) < 2:
        raise ParameterError(f"need at least 2 probe points, got {len(probes)}")
    grads = [smooth_grad(op, p, y_delta, alpha, eta) for p in probes]
    best = -1.0
    for i, j in combinations(range(len(probes)), 2):
        gap = float(np.linalg.norm(probes[i] - probes[j]))
        if gap == 0.0:
            continue
        best = max(best, float(np.linalg.norm(grads[i] - grads[j])) / gap)
    if best < 0.0:
        raise ParameterError("all probe points coincide; secant estimate undefined")
    return best
