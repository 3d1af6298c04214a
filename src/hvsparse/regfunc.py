"""The sparsity penalty, the regularized objective, and its smooth-part gradient.

The objective being minimized is

    J(x) = (1/q) * ||F(x) - y_delta||_2^q + alpha * (||x||_1^2 - eta * ||x||_2^2)

split for the solvers (q = 2 only) into a smooth part
f(x) = 0.5*||F(x) - y_delta||^2 - alpha*eta*||x||_2^2 and a convex part
g(x) = alpha*||x||_1^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ParameterError, as_vector


@dataclass(frozen=True)
class RegParams:
    """Objective parameters (alpha, eta, q).

    ``alpha > 0`` weighs the penalty, ``eta`` in [0, 1] sets the concave
    ratio (the penalty theory covers 0 < eta <= 1; eta = 0 is accepted so
    sweeps can include the plain squared-l1 endpoint), and ``q >= 1`` is the
    data-fidelity exponent. Solvers require q = 2; other q are for
    objective evaluation only.
    """

    alpha: float
    eta: float
    q: float = 2.0

    def __post_init__(self):
        if not (self.alpha > 0 and np.isfinite(self.alpha)):
            raise ParameterError(f"alpha must be positive and finite, got {self.alpha}")
        if not (0.0 <= self.eta <= 1.0):
            raise ParameterError(f"eta must lie in [0, 1], got {self.eta}")
        if not (self.q >= 1.0 and np.isfinite(self.q)):
            raise ParameterError(f"q must be >= 1, got {self.q}")


def reg_value(x, eta: float) -> float:
    """Penalty value ||x||_1^2 - eta*||x||_2^2, nonnegative for eta <= 1."""
    x = as_vector(x, "x")
    if not (0.0 <= eta <= 1.0):
        raise ParameterError(f"eta must lie in [0, 1], got {eta}")
    norm1 = float(np.sum(np.abs(x)))
    return norm1 * norm1 - eta * float(x @ x)


def objective(op, x, y_delta, params: RegParams) -> float:
    """Full objective (1/q)*||F(x) - y_delta||^q + alpha*reg_value(x, eta)."""
    x = as_vector(x, "x")
    y_delta = as_vector(y_delta, "y_delta", op.output_dim)
    residual = op.apply(x) - y_delta
    fidelity = float(np.linalg.norm(residual)) ** params.q / params.q
    return fidelity + params.alpha * reg_value(x, params.eta)


def smooth_grad(op, x, y_delta, alpha: float, eta: float) -> np.ndarray:
    """Gradient of the smooth part, F'(x)^T (F(x) - y_delta) - 2*alpha*eta*x.

    This is the q = 2 fidelity gradient minus the gradient of the concave
    eta-term, which the solvers treat as part of the smooth objective.
    """
    x = as_vector(x, "x")
    y_delta = as_vector(y_delta, "y_delta", op.output_dim)
    lin = op.linearize(x)
    return lin.vjp(lin.value - y_delta) - (2.0 * alpha * eta) * x
