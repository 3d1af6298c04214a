"""Proximal-gradient solvers for the sparse recovery objective.

The main solver treats f(x) = 0.5*||F(x) - y_delta||^2 - alpha*eta*||x||^2
as the smooth part and g(x) = alpha*||x||_1^2 as the convex part, taking

    x_next = prox(x + (2*alpha*eta/L)*x - (1/L)*F'(x)^T (F(x) - y_delta))

with the squared-l1 prox at weight alpha/L, or alpha in compatibility mode
(see SolverConfig); hv_solve picks that weight once and builds its one step
and one objective from it. Two soft-thresholding baselines share the same
loop and one soft-thresholding body: l1-minus-l2 (stl1l2_solve, a
reconstruction of the cited iteration: the beta-term gradient
-beta*x/||x|| is skipped at x = 0) and plain l1 (ista_solve, the same body
at beta = 0). The trace of every loop records the objective its step
descends.

All solvers stop when the l2 distance between adjacent iterates drops below
``tol`` or after ``max_iters`` steps. ``hv_solve`` also offers an opt-in
monotone accelerated rule (``SolverConfig.step = "accelerated"``): FISTA
extrapolation with a backtracking line search and a restart whenever the
extrapolated step would raise the objective (Beck & Teboulle 2009; Li & Lin
2015). It stops once the fixed step from the current iterate is shorter than
``tol``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import MAGNITUDE_LIMIT as DIVERGENCE_LIMIT
from .core import NumericalOverflowError, ParameterError, as_vector, relative_error, snr_db
from .prox import prox_sql1, soft_threshold
from .regfunc import RegParams

TERMINATION_CONVERGED = "converged_by_tol"
TERMINATION_MAX_ITERS = "max_iters_reached"

STEP_FIXED = "fixed"
STEP_ACCELERATED = "accelerated"
STEP_RULES = (STEP_FIXED, STEP_ACCELERATED)

# Line-search doublings of the step constant before a solve is given up.
MAX_BACKTRACKS = 60


@dataclass
class SolverConfig:
    """Solver settings.

    Attributes
    ----------
    L : float
        Step constant; the step size is 1/L. Descent is guaranteed when L
        exceeds half the gradient Lipschitz constant of the smooth part.
        The accelerated rule starts its line search here.
    max_iters : int
        Iteration budget.
    tol : float
        Stop when ||x_next - x|| falls below this. Under the accelerated
        rule, stop when the fixed step at L from the current iterate is
        shorter than this, i.e. when ``RecoveryResult.stationarity`` (the
        gradient mapping at L) is below tol*L.
    x0 : ndarray or None
        Initial iterate; None means the zero vector.
    compat_alpha_mode : bool
        When True the hv prox uses weight alpha instead of alpha/L, a
        literal reading of the shrinkage map: the solve at (alpha, eta) is
        then the default one at (alpha*L, eta/L), up to rounding.
    record_trace : bool
        Keep per-iteration history: the initial iterate and every step.
    step : str
        ``"fixed"`` (default): every iteration takes the step 1/L, the
        paper's iteration. ``"accelerated"``: monotone accelerated proximal
        gradient, accepted by ``hv_solve`` only. Each iteration extrapolates
        FISTA-style and takes a prox-gradient step from the extrapolated
        point with step constant L_k, which starts at L and doubles (never
        shrinks) until the quadratic upper bound on the smooth part
        f = 0.5*||F(x)-y||^2 - alpha*eta*||x||^2 holds. A step that would
        raise the objective is replaced by a plain prox-gradient step from
        the current iterate and momentum restarts; the quadratic bound makes
        that plain step a descent step, so the objective does not increase.
        With prox weight w (alpha/L, or alpha in compat mode) the step at
        L_k takes the prox at w*L/L_k and the objective descended is
        0.5*||F(x)-y||^2 + w*L*||x||_1^2 - alpha*eta*||x||_2^2. Under either
        rule the trace records that objective, the one the fixed step at L
        descends as well.
    """

    L: float
    max_iters: int = 5000
    tol: float = 1e-5
    x0: np.ndarray | None = None
    compat_alpha_mode: bool = False
    record_trace: bool = True
    step: str = STEP_FIXED

    def __post_init__(self):
        if not (self.L > 0 and np.isfinite(self.L)):
            raise ParameterError(f"L must be positive and finite, got {self.L}")
        if self.max_iters < 1:
            raise ParameterError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (self.tol > 0 and np.isfinite(self.tol)):
            raise ParameterError(f"tol must be positive and finite, got {self.tol}")
        if self.step not in STEP_RULES:
            raise ParameterError(f"step must be one of {STEP_RULES}, got {self.step!r}")
        if self.x0 is not None:
            self.x0 = as_vector(self.x0, "x0")


@dataclass
class IterateTrace:
    """Per-iteration history of one solve.

    Entry 0 describes the initial iterate (its step_norm is nan); entry k
    describes the iterate after k steps. snr_db and rel_error stay empty
    when no reference signal was supplied.
    """

    iteration: list[int] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    residual_norm: list[float] = field(default_factory=list)
    step_norm: list[float] = field(default_factory=list)
    snr_db: list[float] = field(default_factory=list)
    rel_error: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of one solver run.

    ``stationarity`` is L*||x_star - step(x_star)||, the norm of the
    gradient-mapping residual at the returned point; small values certify
    approximate stationarity.
    """

    x_star: np.ndarray
    iterations: int
    termination: str
    trace: IterateTrace
    final_residual: float
    stationarity: float


def _check_finite(v: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(v)):
        raise NumericalOverflowError(f"{what} became non-finite")
    top = float(np.abs(v).max()) if v.size else 0.0
    if top > DIVERGENCE_LIMIT:
        raise NumericalOverflowError(
            f"{what} reached magnitude {top:.3e}; iteration diverged")
    return v


def _hv_maps(alpha, eta, L, weight):
    """Return hv_solve's step(x, grad, L_k), a step 1/L_k with the prox at
    weight*(L/L_k), and objective_of(x, res_norm), the objective it descends."""
    def step(x, grad, L_k):
        v = x + (2.0 * alpha * eta / L_k) * x - grad / L_k
        _check_finite(v, "gradient step v")
        return prox_sql1(v, weight * (L / L_k)).p

    def objective_of(x, res_norm):
        norm1 = float(np.sum(np.abs(x)))
        return 0.5 * res_norm ** 2 + (weight * L) * norm1 * norm1 - alpha * eta * float(x @ x)

    return step, objective_of


def hv_step(op, x, y_delta, alpha: float, eta: float, L: float) -> np.ndarray:
    """One proximal-gradient step of the main solver (prox weight alpha/L) from x."""
    x = as_vector(x, "x")
    residual = op.apply(x) - as_vector(y_delta, "y_delta")
    _check_finite(residual, "residual F(x) - y_delta")
    step, _ = _hv_maps(alpha, eta, L, alpha / L)
    return step(x, op.jacobian_adjoint_apply(x, residual), L)


def stationarity_residual(op, x, y_delta, alpha: float, eta: float, L: float) -> float:
    """Gradient-mapping norm L*||x - hv_step(x)||; zero exactly at stationary x."""
    x = as_vector(x, "x")
    return float(L * np.linalg.norm(x - hv_step(op, x, y_delta, alpha, eta, L)))


def _start(op, y_delta, cfg: SolverConfig, x_true):
    """Validate the solve's inputs; return (y_delta, x0, x_true)."""
    y_delta = as_vector(y_delta, "y_delta")
    if y_delta.size != op.output_dim:
        raise ParameterError(
            f"y_delta has length {y_delta.size}, operator expects {op.output_dim}")
    x = np.zeros(op.input_dim) if cfg.x0 is None else cfg.x0
    if x.size != op.input_dim:
        raise ParameterError(f"x0 has length {x.size}, operator expects {op.input_dim}")
    if x_true is not None:
        x_true = as_vector(x_true, "x_true")
    return y_delta, x, x_true


def _recorder(trace: IterateTrace, x_true):
    """Return record(k, x_k, obj, res_norm, step), appending to ``trace``."""
    def record(k, x_k, obj, res_norm, step):
        trace.iteration.append(k)
        if not np.isfinite(obj):
            raise NumericalOverflowError("objective value became non-finite")
        trace.objective.append(obj)
        trace.residual_norm.append(res_norm)
        trace.step_norm.append(step)
        if x_true is not None:
            trace.snr_db.append(snr_db(x_k, x_true))
            trace.rel_error.append(relative_error(x_k, x_true))
    return record


def _run_fixed_step(op, y_delta, cfg: SolverConfig, step, objective_of,
                    x_true) -> RecoveryResult:
    """Shared solver loop: take ``step(x, grad, cfg.L)`` until tol or max_iters."""
    y_delta, x, x_true = _start(op, y_delta, cfg, x_true)
    trace = IterateTrace()
    record = _recorder(trace, x_true)

    residual = _check_finite(op.apply(x) - y_delta, "residual F(x) - y_delta")
    if cfg.record_trace:
        res_norm = float(np.linalg.norm(residual))
        record(0, x, objective_of(x, res_norm), res_norm, float("nan"))

    iterations = 0
    termination = TERMINATION_MAX_ITERS
    for k in range(1, cfg.max_iters + 1):
        x_new = step(x, op.jacobian_adjoint_apply(x, residual), cfg.L)
        step_norm = float(np.linalg.norm(x_new - x))
        x = x_new
        residual = _check_finite(op.apply(x) - y_delta, "residual F(x) - y_delta")
        iterations = k
        converged = step_norm < cfg.tol
        if cfg.record_trace:
            res_norm = float(np.linalg.norm(residual))
            record(k, x, objective_of(x, res_norm), res_norm, step_norm)
        if converged:
            termination = TERMINATION_CONVERGED
            break

    x_next = step(x, op.jacobian_adjoint_apply(x, residual), cfg.L)
    return RecoveryResult(x_star=x, iterations=iterations, termination=termination,
                          trace=trace, final_residual=float(np.linalg.norm(residual)),
                          stationarity=float(cfg.L * np.linalg.norm(x - x_next)))


def _run_accelerated(op, y_delta, alpha, eta, cfg: SolverConfig, step,
                     objective_of, x_true) -> RecoveryResult:
    """Monotone accelerated proximal gradient for hv_solve (see SolverConfig.step)."""
    y_delta, x, x_true = _start(op, y_delta, cfg, x_true)
    trace = IterateTrace()
    record = _recorder(trace, x_true)
    L = cfg.L

    def residual_of(u):
        return _check_finite(op.apply(u) - y_delta, "residual F(x) - y_delta")

    def smooth_of(u, r):
        return 0.5 * float(r @ r) - alpha * eta * float(u @ u)

    def line_search(w, r_w, grad_w, L_k):
        """Prox-gradient step from w; double L_k until f's quadratic bound
        holds. Returns (z, residual, residual norm, objective, L_k) at z."""
        f_w = smooth_of(w, r_w)
        slope = grad_w - (2.0 * alpha * eta) * w
        for _ in range(MAX_BACKTRACKS):
            z = step(w, grad_w, L_k)
            r_z = residual_of(z)
            d = z - w
            if smooth_of(z, r_z) <= f_w + float(slope @ d) + 0.5 * L_k * float(d @ d):
                res_norm_z = float(np.linalg.norm(r_z))
                return z, r_z, res_norm_z, objective_of(z, res_norm_z), L_k
            L_k *= 2.0
        raise NumericalOverflowError(
            f"line search found no step after {MAX_BACKTRACKS} doublings of L")

    residual = residual_of(x)
    grad = op.jacobian_adjoint_apply(x, residual)
    res_norm = float(np.linalg.norm(residual))
    obj = objective_of(x, res_norm)
    if cfg.record_trace:
        record(0, x, obj, res_norm, float("nan"))

    L_k = L
    t = 1.0
    x_prev = x
    iterations = 0
    termination = TERMINATION_MAX_ITERS
    for k in range(1, cfg.max_iters + 1):
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        momentum = (t - 1.0) / t_next
        t = t_next
        plain = momentum == 0.0
        if not plain:
            w = x + momentum * (x - x_prev)
            r_w = residual_of(w)
            z, r_z, res_norm_z, obj_z, L_k = line_search(
                w, r_w, op.jacobian_adjoint_apply(w, r_w), L_k)
            if obj_z > obj:
                plain = True
                t = 1.0
        if plain:
            z, r_z, res_norm_z, obj_z, L_k = line_search(x, residual, grad, L_k)
        step_norm = float(np.linalg.norm(z - x))
        x_prev, x, residual, res_norm, obj = x, z, r_z, res_norm_z, obj_z
        grad = op.jacobian_adjoint_apply(x, residual)
        fixed_step = float(np.linalg.norm(x - step(x, grad, L)))
        iterations = k
        converged = fixed_step < cfg.tol
        if cfg.record_trace:
            record(k, x, obj, res_norm, step_norm)
        if converged:
            termination = TERMINATION_CONVERGED
            break

    return RecoveryResult(x_star=x, iterations=iterations, termination=termination,
                          trace=trace, final_residual=res_norm,
                          stationarity=L * fixed_step)


def _require_fixed_step(cfg: SolverConfig, solver: str) -> None:
    if cfg.step != STEP_FIXED:
        raise ParameterError(
            f"{solver} supports only step={STEP_FIXED!r}, got {cfg.step!r}")


def hv_solve(op, y_delta, alpha: float, eta: float, cfg: SolverConfig,
             x_true=None) -> RecoveryResult:
    """Minimize 0.5*||F(x)-y_delta||^2 + alpha*(||x||_1^2 - eta*||x||_2^2).

    Parameters
    ----------
    op : NonlinearOperator
        Forward model with Jacobian adjoint.
    y_delta : ndarray
        Measured data.
    alpha : float
        Penalty weight, positive.
    eta : float
        Concave ratio in [0, 1]; eta = 0 gives the plain squared-l1 endpoint
        kept for sweep parity.
    cfg : SolverConfig
        Its ``step`` selects the step rule, ``compat_alpha_mode`` the prox weight.
    x_true : ndarray, optional
        Reference signal; when given, the trace carries SNR and relative
        error per iteration.
    """
    RegParams(alpha, eta)  # raises ParameterError for an invalid alpha or eta
    weight = alpha if cfg.compat_alpha_mode else alpha / cfg.L
    step, objective_of = _hv_maps(alpha, eta, cfg.L, weight)
    if cfg.step == STEP_ACCELERATED:
        return _run_accelerated(op, y_delta, alpha, eta, cfg, step, objective_of, x_true)
    return _run_fixed_step(op, y_delta, cfg, step, objective_of, x_true)


def _run_st(op, y_delta, alpha: float, beta: float, cfg: SolverConfig,
            x_true) -> RecoveryResult:
    """Soft-thresholding loop on 0.5*||F(x)-y||^2 + alpha*||x||_1 - beta*||x||_2."""
    def step(x, grad, L):
        if beta != 0.0:
            norm_x = np.linalg.norm(x)
            if norm_x > 0.0:
                grad = grad - (beta / norm_x) * x
        v = x - grad / L
        _check_finite(v, "gradient step v")
        return soft_threshold(v, alpha / L)

    def objective_of(x, res_norm):
        return (0.5 * res_norm ** 2 + alpha * float(np.sum(np.abs(x)))
                - beta * float(np.linalg.norm(x)))

    return _run_fixed_step(op, y_delta, cfg, step, objective_of, x_true)


def stl1l2_solve(op, y_delta, alpha: float, beta: float, cfg: SolverConfig,
                 x_true=None) -> RecoveryResult:
    """Soft-thresholding baseline for the alpha*||x||_1 - beta*||x||_2 penalty.

    Reconstruction of the cited difference-of-norms iteration: a gradient
    step on 0.5*||F(x)-y_delta||^2 - beta*||x||_2 followed by soft
    thresholding at alpha/L. The -beta*x/||x|| term is skipped at x = 0,
    where that gradient is undefined. With beta = 0 the trajectory is
    identical to ista_solve.
    """
    if not (alpha > 0 and np.isfinite(alpha)):
        raise ParameterError(f"alpha must be positive and finite, got {alpha}")
    if not (0.0 <= beta <= alpha):
        raise ParameterError(f"beta must lie in [0, alpha], got beta={beta}, alpha={alpha}")
    _require_fixed_step(cfg, "stl1l2_solve")
    return _run_st(op, y_delta, alpha, beta, cfg, x_true)


def ista_solve(op, y_delta, alpha: float, cfg: SolverConfig, x_true=None) -> RecoveryResult:
    """Iterative soft thresholding: gradient step then shrink at alpha/L.

    alpha = 0 is allowed and degenerates to plain gradient descent on the
    data fidelity.
    """
    if not (alpha >= 0 and np.isfinite(alpha)):
        raise ParameterError(f"alpha must be nonnegative and finite, got {alpha}")
    _require_fixed_step(cfg, "ista_solve")
    return _run_st(op, y_delta, alpha, 0.0, cfg, x_true)
