"""Proximal-gradient solvers for the sparse recovery objective.

The main solver treats f(x) = 0.5*||F(x) - y_delta||^2 - alpha*eta*||x||^2
as the smooth part and g(x) = alpha*||x||_1^2 as the convex part, taking

    x_next = prox(x + (2*alpha*eta/L)*x - (1/L)*F'(x)^T (F(x) - y_delta))

with the squared-l1 prox at weight alpha/L, or alpha in compatibility mode
(see SolverConfig). Two soft-thresholding baselines share one set of maps:
l1-minus-l2 (stl1l2_solve, a reconstruction of the cited iteration: the
beta-term gradient -beta*x/||x|| is skipped at x = 0) and plain l1
(ista_solve, the same maps at beta = 0).

Each solver supplies its maps (a step, the objective it descends, and the
smooth part with its gradient) to the loop that ``SolverConfig.step`` names.
The fixed loop takes the step 1/L until adjacent iterates lie closer than
``tol`` or ``max_iters`` steps are taken. The accelerated loop adds FISTA
extrapolation, a backtracking line search and a restart whenever the
extrapolated step would raise the objective (Beck & Teboulle 2009; Li & Lin
2015); it stops once the fixed step from the current iterate is shorter than
``tol``. The trace of either loop records the objective its step descends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import MAGNITUDE_LIMIT as DIVERGENCE_LIMIT
from .core import (DegenerateReferenceError, NumericalOverflowError, ParameterError,
                   _snr_of, as_vector)
from .prox import _check_alpha, _check_theta, _shrink, _sql1
from .regfunc import RegParams

TERMINATION_CONVERGED = "converged_by_tol"
TERMINATION_MAX_ITERS = "max_iters_reached"

STEP_FIXED = "fixed"
STEP_ACCELERATED = "accelerated"
STEP_RULES = (STEP_FIXED, STEP_ACCELERATED)

# Line-search doublings of the step constant before a solve is given up, and
# the relative rounding its bound test forgives.
MAX_BACKTRACKS = 60
_BOUND_ROUNDING = 4.0 * float(np.finfo(np.float64).eps)


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
        gradient, for every solver. Each iteration extrapolates FISTA-style
        and takes a prox-gradient step from the extrapolated point with
        step constant L_k, which starts at L and doubles (never shrinks)
        until the quadratic upper bound on the solver's smooth part holds up
        to rounding. A step that would raise the objective is replaced by a
        plain prox-gradient step from the current iterate and momentum
        restarts, so the objective does not increase. hv_solve's smooth
        part is 0.5*||F(x)-y||^2 - alpha*eta*||x||^2, and with prox weight
        w (alpha/L, or alpha in compat mode) its step at L_k takes the prox
        at w*L/L_k. The baselines' smooth part is 0.5*||F(x)-y||^2 -
        beta*||x||_2 (beta = 0 for ista_solve), and they shrink at
        alpha/L_k. Both rules descend, and trace, one objective per solver;
        hv_solve's weights ||x||_1^2 by w*L.
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
    top = float(np.abs(v).max())
    if not top <= DIVERGENCE_LIMIT:
        raise NumericalOverflowError(f"{what} reached magnitude {top:.3e}; iteration diverged"
                                     if math.isfinite(top) else f"{what} became non-finite")
    return v


def _norm(v: np.ndarray) -> float:
    """||v||_2 by np.linalg.norm's own 1-d formula, without its dispatch."""
    return math.sqrt(float(v @ v))


def _hv_maps(alpha, eta, L, weight):
    """Return hv_solve's maps: step(x, grad, L_k), a step 1/L_k with the prox at
    weight*(L/L_k); objective_of(x, res_norm), the objective it descends; and
    smooth_of(u, r) with slope_of(u, grad), the smooth part and its gradient
    at u, given r = F(u) - y and grad = F'(u)^T r."""
    def step(x, grad, L_k):
        v = _check_finite(x + (2.0 * alpha * eta / L_k) * x - grad / L_k, "gradient step v")
        return _sql1(v, weight * (L / L_k))[0]

    def objective_of(x, res_norm):
        norm1 = float(np.sum(np.abs(x)))
        return 0.5 * res_norm ** 2 + (weight * L) * norm1 * norm1 - alpha * eta * float(x @ x)

    def smooth_of(u, r):
        return 0.5 * float(r @ r) - alpha * eta * float(u @ u)

    def slope_of(u, grad):
        return grad - (2.0 * alpha * eta) * u

    return step, objective_of, smooth_of, slope_of


def _st_maps(alpha, beta):
    """Return the soft-thresholding maps, as _hv_maps, for the objective
    0.5*||F(x)-y||^2 + alpha*||x||_1 - beta*||x||_2: the step shrinks at
    alpha/L_k, the smooth part is 0.5*||r||^2 - beta*||u||_2, and its
    gradient skips -beta*u/||u|| at u = 0."""
    def slope_of(u, grad):
        if beta != 0.0:
            norm_u = _norm(u)
            if norm_u > 0.0:
                return grad - (beta / norm_u) * u
        return grad

    def step(x, grad, L_k):
        v = _check_finite(x - slope_of(x, grad) / L_k, "gradient step v")
        return _shrink(v, np.abs(v), alpha / L_k)

    def objective_of(x, res_norm):
        return 0.5 * res_norm ** 2 + alpha * float(np.sum(np.abs(x))) - beta * _norm(x)

    def smooth_of(u, r):
        return 0.5 * float(r @ r) - beta * _norm(u)

    return step, objective_of, smooth_of, slope_of


def _evaluate(op, x, y_delta):
    """Linearize op at x; return (linearization, finite residual F(x) - y_delta)."""
    lin = op.linearize(x)
    return lin, _check_finite(lin.value - y_delta, "residual F(x) - y_delta")


def hv_step(op, x, y_delta, alpha: float, eta: float, L: float) -> np.ndarray:
    """One proximal-gradient step of the main solver (prox weight alpha/L) from x."""
    x = as_vector(x, "x")
    lin, residual = _evaluate(op, x, as_vector(y_delta, "y_delta", op.output_dim))
    step = _hv_maps(alpha, eta, L, _check_alpha(alpha / L))[0]
    return step(x, lin.vjp(residual), L)


def stationarity_residual(op, x, y_delta, alpha: float, eta: float, L: float) -> float:
    """Gradient-mapping norm L*||x - hv_step(x)||; zero exactly at stationary x."""
    x = as_vector(x, "x")
    return float(L * _norm(x - hv_step(op, x, y_delta, alpha, eta, L)))


def _start(op, y_delta, cfg: SolverConfig, x_true):
    """Validate the solve's inputs; return (y_delta, x0, x_true)."""
    y_delta = as_vector(y_delta, "y_delta", op.output_dim)
    x = np.zeros(op.input_dim) if cfg.x0 is None else cfg.x0
    if x.size != op.input_dim:
        raise ParameterError(f"x0 has length {x.size}, expected {op.input_dim}")
    if x_true is not None:
        x_true = as_vector(x_true, "x_true", op.input_dim)
    return y_delta, x, x_true


def _recorder(trace: IterateTrace, x_true):
    """Return record(k, x_k, obj, res_norm, step), appending to ``trace``; with a
    reference, one relative error per iterate gives both reference channels."""
    norm_true = None if x_true is None else _norm(x_true)
    def record(k, x_k, obj, res_norm, step):
        trace.iteration.append(k)
        if not np.isfinite(obj):
            raise NumericalOverflowError("objective value became non-finite")
        trace.objective.append(obj)
        trace.residual_norm.append(res_norm)
        trace.step_norm.append(step)
        if x_true is not None:
            if norm_true == 0.0:
                raise DegenerateReferenceError("relative error undefined for x_true = 0")
            err = _norm(x_k - x_true) / norm_true
            trace.snr_db.append(_snr_of(err))
            trace.rel_error.append(err)
    return record


def _run_fixed_step(op, y_delta, cfg: SolverConfig, maps, x_true) -> RecoveryResult:
    """The paper's loop: take the maps' ``step(x, grad, cfg.L)`` until tol or max_iters."""
    step, objective_of = maps[:2]
    y_delta, x, x_true = _start(op, y_delta, cfg, x_true)
    trace = IterateTrace()
    record = _recorder(trace, x_true)

    lin, residual = _evaluate(op, x, y_delta)
    if cfg.record_trace:
        res_norm = _norm(residual)
        record(0, x, objective_of(x, res_norm), res_norm, float("nan"))

    iterations = 0
    termination = TERMINATION_MAX_ITERS
    for k in range(1, cfg.max_iters + 1):
        x_prev, x = x, step(x, lin.vjp(residual), cfg.L)
        step_norm = _norm(x - x_prev)
        lin, residual = _evaluate(op, x, y_delta)
        iterations = k
        if cfg.record_trace:
            res_norm = _norm(residual)
            record(k, x, objective_of(x, res_norm), res_norm, step_norm)
        if step_norm < cfg.tol:
            termination = TERMINATION_CONVERGED
            break

    x_next = step(x, lin.vjp(residual), cfg.L)
    return RecoveryResult(x_star=x, iterations=iterations, termination=termination,
                          trace=trace, final_residual=_norm(residual),
                          stationarity=float(cfg.L * _norm(x - x_next)))


def _run_accelerated(op, y_delta, cfg: SolverConfig, maps, x_true) -> RecoveryResult:
    """Monotone accelerated proximal gradient on the maps (see SolverConfig.step)."""
    step, objective_of, smooth_of, slope_of = maps
    y_delta, x, x_true = _start(op, y_delta, cfg, x_true)
    trace = IterateTrace()
    record = _recorder(trace, x_true)
    L = cfg.L

    def line_search(w, r_w, grad_w, L_k, z=None):
        """Prox-gradient step from w, first trying z if given; double L_k until the
        smooth part's quadratic bound holds. Returns (z, lin, r, ||r||, obj, L_k)."""
        f_w = smooth_of(w, r_w)
        slope = slope_of(w, grad_w)
        for _ in range(MAX_BACKTRACKS):
            if z is None:
                z = step(w, grad_w, L_k)
            lin_z, r_z = _evaluate(op, z, y_delta)
            d = z - w
            linear, quadratic = float(slope @ d), 0.5 * L_k * float(d @ d)
            # on a quadratic of curvature L_k (the identity at L = 1) the bound holds
            # with equality, so a miss within the rounding of its terms is no miss
            slack = _BOUND_ROUNDING * (abs(f_w) + abs(linear) + quadratic)
            if smooth_of(z, r_z) <= f_w + linear + quadratic + slack:
                res_norm_z = _norm(r_z)
                return z, lin_z, r_z, res_norm_z, objective_of(z, res_norm_z), L_k
            L_k *= 2.0
            z = None
        raise NumericalOverflowError(
            f"line search found no step after {MAX_BACKTRACKS} doublings of L")

    lin, residual = _evaluate(op, x, y_delta)
    grad = lin.vjp(residual)
    res_norm = _norm(residual)
    obj = objective_of(x, res_norm)
    if cfg.record_trace:
        record(0, x, obj, res_norm, float("nan"))
    # the stopping test's point; a plain step at L_k == L takes it as its first trial
    x_fixed = step(x, grad, L)

    L_k, t, x_prev = L, 1.0, x
    iterations = 0
    termination = TERMINATION_MAX_ITERS
    for k in range(1, cfg.max_iters + 1):
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        momentum, t = (t - 1.0) / t_next, t_next
        plain = momentum == 0.0
        if not plain:
            w = x + momentum * (x - x_prev)
            lin_w, r_w = _evaluate(op, w, y_delta)
            z, lin_z, r_z, res_norm_z, obj_z, L_k = line_search(w, r_w, lin_w.vjp(r_w), L_k)
            if obj_z > obj:
                plain, t = True, 1.0
        if plain:
            z, lin_z, r_z, res_norm_z, obj_z, L_k = line_search(
                x, residual, grad, L_k, x_fixed if L_k == L else None)
        step_norm = _norm(z - x)
        x_prev, x, residual, res_norm, obj = x, z, r_z, res_norm_z, obj_z
        grad = lin_z.vjp(residual)
        x_fixed = step(x, grad, L)
        fixed_step = _norm(x - x_fixed)
        iterations = k
        if cfg.record_trace:
            record(k, x, obj, res_norm, step_norm)
        if fixed_step < cfg.tol:
            termination = TERMINATION_CONVERGED
            break

    return RecoveryResult(x_star=x, iterations=iterations, termination=termination,
                          trace=trace, final_residual=res_norm,
                          stationarity=L * fixed_step)


_LOOPS = {STEP_FIXED: _run_fixed_step, STEP_ACCELERATED: _run_accelerated}


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
    weight = _check_alpha(alpha if cfg.compat_alpha_mode else alpha / cfg.L)
    return _LOOPS[cfg.step](op, y_delta, cfg, _hv_maps(alpha, eta, cfg.L, weight), x_true)


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
    _check_theta(alpha / cfg.L)
    return _LOOPS[cfg.step](op, y_delta, cfg, _st_maps(alpha, beta), x_true)


def ista_solve(op, y_delta, alpha: float, cfg: SolverConfig, x_true=None) -> RecoveryResult:
    """Iterative soft thresholding: gradient step then shrink at alpha/L.

    alpha = 0 is allowed and degenerates to plain gradient descent on the
    data fidelity.
    """
    if not (alpha >= 0 and np.isfinite(alpha)):
        raise ParameterError(f"alpha must be nonnegative and finite, got {alpha}")
    _check_theta(alpha / cfg.L)
    return _LOOPS[cfg.step](op, y_delta, cfg, _st_maps(alpha, 0.0), x_true)
