"""Proximal operator of the squared l1 norm and related maps.

For alpha_eff > 0 the map

    prox(x) = argmin_u 0.5*||u - x||_2^2 + alpha_eff*||u||_1^2

has the closed form p_i = lambda_i * x_i / (lambda_i + 2*alpha_eff) with
weights lambda_i = max(sqrt(alpha_eff)*|x_i|/sqrt(mu) - 2*alpha_eff, 0) taken
at the unique positive root mu* of the nonincreasing function

    psi(mu) = sum_i max(sqrt(alpha_eff)*|x_i|/sqrt(mu) - 2*alpha_eff, 0) - 1.

Equivalently, prox(x) = soft_threshold(x, theta) with the data-adaptive
threshold theta = 2*sqrt(alpha_eff*mu*). The root is found exactly by a
sort-based support search (no iteration tolerance); a bisection solver is
kept alongside as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NumericalOverflowError, ParameterError, as_vector


@dataclass(frozen=True)
class ProxSolution:
    """Proximal point together with its certificate quantities.

    Attributes
    ----------
    p : ndarray
        The proximal point.
    mu_star : float
        Positive root of psi, or 0.0 by convention when x = 0.
    threshold : float
        The equivalent soft threshold 2*sqrt(alpha_eff*mu_star).
    """

    p: np.ndarray
    mu_star: float
    threshold: float


def _check_alpha(alpha_eff: float) -> float:
    if not (alpha_eff > 0 and np.isfinite(alpha_eff)):
        raise ParameterError(f"alpha_eff must be positive and finite, got {alpha_eff}")
    return float(alpha_eff)


def _check_theta(theta: float) -> None:
    if not (theta >= 0 and np.isfinite(theta)):
        raise ParameterError(f"shrink threshold must be nonnegative and finite, got {theta}")


def _shrink(x: np.ndarray, a: np.ndarray, theta: float) -> np.ndarray:
    """sign(x_i)*max(a_i - theta, 0) for a = |x|; x and theta already validated."""
    return np.sign(x) * np.maximum(a - theta, 0.0)


def soft_threshold(x, theta: float) -> np.ndarray:
    """Componentwise shrink toward zero: sign(x_i)*max(|x_i| - theta, 0)."""
    x = as_vector(x, "x")
    _check_theta(theta)
    return _shrink(x, np.abs(x), theta)


def lambda_weights(x) -> np.ndarray:
    """Optimal weights of the variational form of ||x||_1^2.

    Returns |x_i| / ||x||_1 for x != 0 and the uniform vector 1/n at x = 0.
    """
    x = as_vector(x, "x")
    a = np.abs(x)
    norm1 = a.sum()
    if norm1 == 0.0:
        return np.full(x.size, 1.0 / x.size)
    return a / norm1


def psi(x, alpha_eff: float, mu: float) -> float:
    """The root function whose positive zero determines the prox threshold."""
    x = as_vector(x, "x")
    alpha_eff = _check_alpha(alpha_eff)
    if not (mu > 0 and np.isfinite(mu)):
        raise ParameterError(f"mu must be positive and finite, got {mu}")
    root_a = np.sqrt(alpha_eff)
    terms = np.maximum(root_a * np.abs(x) / np.sqrt(mu) - 2.0 * alpha_eff, 0.0)
    return float(terms.sum()) - 1.0


def _mu(a: np.ndarray, alpha_eff: float) -> float:
    """mu_star for a = |x| != 0 and a validated alpha_eff (a Python float)."""
    s = np.sort(a)[::-1]
    cums = np.cumsum(s)
    k = np.arange(1, s.size + 1)
    theta = 2.0 * alpha_eff * cums / (1.0 + 2.0 * alpha_eff * k)
    k_best = int(np.nonzero(s > theta)[0][-1])
    ratio = float(cums[k_best]) / (1.0 + 2.0 * alpha_eff * (k_best + 1))
    # Python floats: a square past the float64 range gives inf without a warning
    mu = alpha_eff * (ratio * ratio)
    if not mu < math.inf:
        raise NumericalOverflowError(
            f"mu_star overflowed for input of magnitude {float(a.max()):.3e}")
    return mu


def mu_star(x, alpha_eff: float) -> float:
    """Exact positive root of psi via sorted support search.

    Sorting |x| in descending order with partial sums S_k, the stationarity
    condition on a support of size k gives sqrt(mu) = sqrt(alpha)*S_k /
    (1 + 2*alpha*k), with the matching threshold theta_k = 2*alpha*S_k /
    (1 + 2*alpha*k). The valid support size is the largest k whose k-th
    magnitude still exceeds theta_k; k = 1 always qualifies for x != 0, so
    the search cannot come back empty.
    """
    a = np.abs(as_vector(x, "x"))
    alpha_eff = _check_alpha(alpha_eff)
    if not a.any():
        raise ParameterError("mu_star is undefined at x = 0; prox(0) = 0 by convention")
    return _mu(a, alpha_eff)


def mu_star_bisect(x, alpha_eff: float) -> float:
    """Root of psi by plain bisection; independent cross-check for mu_star.

    psi(mu_hi) = -1 at mu_hi = max_i x_i^2 / (4*alpha_eff) and psi grows
    without bound as mu -> 0+, so the root is bracketed in (0, mu_hi];
    bisection stops at interval width 1e-14*mu_hi.
    """
    x = as_vector(x, "x")
    alpha_eff = _check_alpha(alpha_eff)
    a = np.abs(x)
    if not a.any():
        raise ParameterError("mu_star is undefined at x = 0; prox(0) = 0 by convention")
    mu_hi = float(a.max()) ** 2 / (4.0 * alpha_eff)
    lo = 1e-300 * mu_hi
    hi = mu_hi
    width_target = 1e-14 * mu_hi
    while hi - lo > width_target:
        mid = 0.5 * (lo + hi)
        if psi(x, alpha_eff, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _sql1(x: np.ndarray, alpha_eff: float) -> tuple[np.ndarray, float, float]:
    """(p, mu_star, threshold) of prox_sql1 for validated x and alpha_eff."""
    a = np.abs(x)
    if not a.any():
        return np.zeros(x.size), 0.0, 0.0
    mu = _mu(a, alpha_eff)
    threshold = 2.0 * math.sqrt(alpha_eff * mu)
    return _shrink(x, a, threshold), mu, threshold


def prox_sql1(x, alpha_eff: float) -> ProxSolution:
    """Proximal point of alpha_eff*||.||_1^2 with its certificate.

    prox(0) = 0 by convention (mu_star reported as 0.0 there). For x != 0
    the point is computed as soft_threshold(x, 2*sqrt(alpha_eff*mu_star)),
    which coincides with the weight formula lambda_i*x_i/(lambda_i+2a).
    """
    return ProxSolution(*_sql1(as_vector(x, "x"), _check_alpha(alpha_eff)))


def prox_sql1_bisect(x, alpha_eff: float) -> np.ndarray:
    """Reference prox evaluation through the bisection root and the
    lambda-weight formula; arithmetic path is independent of prox_sql1."""
    x = as_vector(x, "x")
    alpha_eff = _check_alpha(alpha_eff)
    if not np.abs(x).any():
        return np.zeros(x.size)
    mu = mu_star_bisect(x, alpha_eff)
    lam = np.maximum(np.sqrt(alpha_eff) * np.abs(x) / np.sqrt(mu) - 2.0 * alpha_eff, 0.0)
    return lam * x / (lam + 2.0 * alpha_eff)
