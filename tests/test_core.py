"""Instance generation, noise injection, and recovery metrics."""
import numpy as np
import pytest

import hvsparse
from hvsparse.core import (DegenerateReferenceError, DegenerateSignalError,
                           NoisyData, ParameterError, SNR_CAP_DB, add_noise_db,
                           add_noise_norm, gaussian_instance, relative_error,
                           snr_db)


def test_gaussian_instance_shapes_and_sparsity():
    a, x_true = gaussian_instance(200, 80, 16, 0.05, seed=7)
    assert a.shape == (80, 200)
    assert x_true.shape == (200,)
    assert int(np.count_nonzero(x_true)) == 16
    assert set(np.unique(x_true[x_true != 0])) <= {-1.0, 1.0}


def test_gaussian_instance_fully_dense_signal():
    _, x_true = gaussian_instance(8, 4, 8, 1.0, seed=1)
    assert int(np.count_nonzero(x_true)) == 8
    assert np.all(np.abs(x_true) == 1.0)


def test_gaussian_instance_amplitude():
    _, x_true = gaussian_instance(30, 10, 5, 0.1, seed=3, amplitude=2.5)
    assert set(np.unique(np.abs(x_true[x_true != 0]))) == {2.5}


def test_gaussian_instance_matrix_scale():
    # entries are scale * N(0,1); the sample std over 16k entries is tight
    a, _ = gaussian_instance(200, 80, 4, 0.05, seed=11)
    assert abs(float(a.std()) - 0.05) < 0.005
    assert abs(float(a.mean())) < 0.005


def test_gaussian_instance_determinism():
    a1, x1 = gaussian_instance(50, 20, 5, 0.1, seed=42)
    a2, x2 = gaussian_instance(50, 20, 5, 0.1, seed=42)
    a3, _ = gaussian_instance(50, 20, 5, 0.1, seed=43)
    assert np.array_equal(a1, a2) and np.array_equal(x1, x2)
    assert not np.array_equal(a1, a3)


@pytest.mark.parametrize("n,m,s", [(4, 2, 0), (4, 2, 5), (4, 0, 2), (0, 2, 1)])
def test_gaussian_instance_rejects_bad_dims(n, m, s):
    with pytest.raises(ParameterError):
        gaussian_instance(n, m, s, 1.0, seed=0)


def test_add_noise_db_power_calibration():
    # sample mean of ||e||^2 * 10^(dB/10) / ||y||^2 over many draws is ~1
    rng = np.random.default_rng(5)
    y = rng.normal(size=80)
    y_pow = float(y @ y)
    total = 0.0
    trials = 10_000
    for t in range(trials):
        data = add_noise_db(y, 30.0, seed=t)
        e = data.y_delta - y
        total += float(e @ e) * 10.0 ** 3 / y_pow
    assert 0.97 <= total / trials <= 1.03


def test_add_noise_db_realized_norm():
    rng = np.random.default_rng(8)
    y = rng.normal(size=40)
    data = add_noise_db(y, 20.0, seed=123)
    assert isinstance(data, NoisyData)
    assert data.level_db == 20.0
    # (y + e) - y loses an ulp, so the recomputed norm is not bitwise equal
    assert data.noise_norm == pytest.approx(
        float(np.linalg.norm(data.y_delta - y)), rel=1e-12)
    assert data.noise_norm > 0


def test_add_noise_db_vanishes_at_300db():
    y = np.ones(10)
    data = add_noise_db(y, 300.0, seed=0)
    assert data.noise_norm < 1e-14 * float(np.linalg.norm(y))


def test_add_noise_db_rejects_zero_signal():
    with pytest.raises(DegenerateSignalError):
        add_noise_db(np.zeros(5), 30.0, seed=0)


def test_add_noise_norm_exact_norm():
    rng = np.random.default_rng(9)
    y = rng.normal(size=25)
    data = add_noise_norm(y, 0.037, seed=4)
    assert data.noise_norm == pytest.approx(0.037, rel=1e-12)
    assert float(np.linalg.norm(data.y_delta - y)) == pytest.approx(0.037, rel=1e-12)
    other = add_noise_norm(y, 0.037, seed=5)
    assert not np.array_equal(data.y_delta, other.y_delta)


def test_add_noise_norm_validation():
    y = np.ones(4)
    for delta in (0.0, -1.0, float("inf")):
        with pytest.raises(ParameterError):
            add_noise_norm(y, delta, seed=0)


def test_snr_db_fixed_values():
    x_true = np.array([1.0, 0.0, 0.0])
    x_star = x_true.copy()
    x_star[1] = 0.1  # error norm^2 / signal norm^2 = 0.01
    assert snr_db(x_star, x_true) == pytest.approx(20.0, abs=1e-9)
    assert snr_db(x_true, x_true) == SNR_CAP_DB == 300.0
    assert snr_db(2.0 * x_true, x_true) == pytest.approx(0.0, abs=1e-12)


def test_snr_db_cap_is_configurable():
    x = np.array([1.0, 2.0])
    assert snr_db(x, x, cap_db=100.0) == 100.0


def test_snr_db_errors():
    with pytest.raises(ParameterError):
        snr_db(np.ones(3), np.ones(4))
    with pytest.raises(DegenerateReferenceError):
        snr_db(np.ones(3), np.zeros(3))


def test_public_names_resolve():
    # a deleted export must not linger in __all__
    missing = [name for name in hvsparse.__all__ if not hasattr(hvsparse, name)]
    assert missing == []


def test_relative_error_fixed_values():
    x_true = np.array([3.0, -4.0])
    assert relative_error(x_true, x_true) == 0.0
    assert relative_error(np.zeros(2), x_true) == pytest.approx(1.0, rel=1e-12)
    assert relative_error(1.1 * x_true, x_true) == pytest.approx(0.1, rel=1e-9)
    with pytest.raises(DegenerateReferenceError):
        relative_error(np.ones(2), np.zeros(2))


def test_snr_matches_relative_error():
    rng = np.random.default_rng(77)
    for _ in range(200):
        x_true = rng.normal(size=12)
        x_star = x_true + rng.normal(size=12) * 10.0 ** rng.uniform(-6, 1)
        snr = snr_db(x_star, x_true)
        rerr = relative_error(x_star, x_true)
        assert snr == pytest.approx(-20.0 * np.log10(rerr), abs=1e-9)
