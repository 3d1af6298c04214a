"""Shared numeric utilities: validation, instances, noise injection, metrics.

All vectors and matrices are float64 numpy arrays. Functions taking a
``seed`` accept anything ``numpy.random.default_rng`` accepts (an int or a
``SeedSequence``); equal seeds give bit-identical draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SNR_CAP_DB = 300.0

# Magnitudes past this count as overflow: squaring them (in a power of the
# forward model, the prox certificate or an iterate's norm) would leave the
# float64 range. Guards raise NumericalOverflowError rather than return inf.
MAGNITUDE_LIMIT = 1e150


class ParameterError(ValueError):
    """An argument is outside its documented domain."""


class DegenerateSignalError(ParameterError):
    """A clean signal required to be nonzero has zero norm."""


class DegenerateReferenceError(ParameterError):
    """A reference signal required to be nonzero has zero norm."""


class NumericalOverflowError(ArithmeticError):
    """A computed quantity left the finite float64 range.

    The message names the offending quantity.
    """


def as_vector(x, name: str = "x", size: int | None = None) -> np.ndarray:
    """Validate and return a finite 1-d float64 array, of length ``size`` if given."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ParameterError(f"{name} must be a nonempty 1-d array, got shape {arr.shape}")
    if size is not None and arr.size != size:
        raise ParameterError(f"{name} has length {arr.size}, expected {size}")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} contains non-finite entries")
    return arr


def as_matrix(a, name: str = "A") -> np.ndarray:
    """Validate and return a finite 2-d float64 array."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ParameterError(f"{name} must be a nonempty 2-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class NoisyData:
    """A perturbed measurement together with the realized noise size.

    Attributes
    ----------
    y_delta : ndarray
        Perturbed measurement vector.
    noise_norm : float
        Euclidean norm of the realized perturbation. This is the value to
        use as the noise level in parameter-choice rules.
    level_db : float
        Requested signal-to-noise ratio in dB, or nan when the data was
        built from an absolute noise norm instead.
    """

    y_delta: np.ndarray
    noise_norm: float
    level_db: float


def gaussian_instance(n: int, m: int, s: int, scale: float, seed,
                      amplitude: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Draw a scaled Gaussian sensing matrix and an s-sparse signal.

    Parameters
    ----------
    n, m : int
        Signal length and measurement count, both at least 1.
    s : int
        Number of nonzero entries, 1 <= s <= n.
    scale : float
        Positive factor applied to the standard normal matrix entries.
    seed : int or numpy.random.SeedSequence
        Source of randomness; equal seeds give bit-identical output.
    amplitude : float
        Magnitude of each nonzero entry; signs are drawn uniformly.

    Returns
    -------
    (A, x_true) : (ndarray of shape (m, n), ndarray of shape (n,))
    """
    if n < 1 or m < 1:
        raise ParameterError(f"dimensions must be positive, got n={n}, m={m}")
    if not 1 <= s <= n:
        raise ParameterError(f"sparsity must satisfy 1 <= s <= n, got s={s}, n={n}")
    if not (scale > 0 and np.isfinite(scale)):
        raise ParameterError(f"scale must be positive and finite, got {scale}")
    rng = np.random.default_rng(seed)
    a = scale * rng.standard_normal((m, n))
    support = rng.choice(n, size=s, replace=False)
    signs = rng.choice(np.array([-1.0, 1.0]), size=s)
    x_true = np.zeros(n)
    x_true[support] = amplitude * signs
    return a, x_true


def add_noise_db(y, level_db: float, seed) -> NoisyData:
    """Add white Gaussian noise at a prescribed SNR level in dB.

    The per-entry variance is ``||y||^2 / (m * 10**(level_db / 10))`` so the
    expected squared noise norm matches the requested level. The realized
    norm of the drawn perturbation is reported in ``noise_norm``.
    """
    y = as_vector(y, "y")
    if not np.isfinite(level_db):
        raise ParameterError(f"level_db must be finite, got {level_db}")
    norm_y = float(np.linalg.norm(y))
    if norm_y == 0.0:
        raise DegenerateSignalError("cannot set a relative noise level on y = 0")
    m = y.size
    sigma = norm_y / np.sqrt(m * 10.0 ** (level_db / 10.0))
    e = sigma * np.random.default_rng(seed).standard_normal(m)
    return NoisyData(y_delta=y + e, noise_norm=float(np.linalg.norm(e)),
                     level_db=float(level_db))


def add_noise_norm(y, delta: float, seed) -> NoisyData:
    """Add a Gaussian-direction perturbation rescaled to exact norm delta."""
    y = as_vector(y, "y")
    if not (delta > 0 and np.isfinite(delta)):
        raise ParameterError(f"delta must be positive and finite, got {delta}")
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(y.size)
    norm_e = np.linalg.norm(e)
    while norm_e == 0.0:  # cannot happen in practice, retry for safety
        e = rng.standard_normal(y.size)
        norm_e = np.linalg.norm(e)
    e *= delta / norm_e
    return NoisyData(y_delta=y + e, noise_norm=float(delta), level_db=float("nan"))


def relative_error(x_star, x_true) -> float:
    """Relative reconstruction error ||x_star - x_true|| / ||x_true||."""
    x_star = as_vector(x_star, "x_star")
    x_true = as_vector(x_true, "x_true")
    if x_star.size != x_true.size:
        raise ParameterError(
            f"length mismatch: x_star has {x_star.size}, x_true has {x_true.size}")
    norm_true = float(np.linalg.norm(x_true))
    if norm_true == 0.0:
        raise DegenerateReferenceError("relative error undefined for x_true = 0")
    return float(np.linalg.norm(x_star - x_true)) / norm_true


def snr_db(x_star, x_true, cap_db: float = SNR_CAP_DB) -> float:
    """Reconstruction SNR, -10 log10(||x_star - x_true||^2 / ||x_true||^2).

    Exact recovery (and any value beyond ``cap_db``) is reported as
    ``cap_db`` so downstream tables stay finite.
    """
    return _snr_of(relative_error(x_star, x_true), cap_db)


def _snr_of(err: float, cap_db: float = SNR_CAP_DB) -> float:
    if err == 0.0:
        return float(cap_db)
    return float(min(-20.0 * np.log10(err), cap_db))
