import math

import numpy as np
import pytest

from solq.bogoliubov import (
    K_MIN,
    dispersion,
    group_velocity,
    mode_amplitudes,
    resonant_wavevector,
)


def test_dispersion_landmarks():
    assert dispersion(0.0) == 0.0
    assert abs(dispersion(1.0) - math.sqrt(3.0)) < 1e-15
    # free-particle limit: eps -> k^2 + 1
    k = 40.0
    assert abs(dispersion(k) - (k * k + 1.0)) < 1e-3


def test_dispersion_phonon_limit():
    k = np.array([1e-6, 1e-5, 1e-4])
    assert np.max(np.abs(dispersion(k) / (math.sqrt(2.0) * k) - 1.0)) < 1e-8


def test_inversion_identity():
    rng = np.random.default_rng(2)
    omega = rng.uniform(1e-4, 50.0, size=200)
    k = resonant_wavevector(omega)
    assert np.max(np.abs(dispersion(k) / omega - 1.0)) < 1e-12
    assert np.max(np.abs(resonant_wavevector(dispersion(k)) / k - 1.0)) < 1e-12


def test_inversion_small_omega_is_stable():
    # the rationalized form keeps full precision where the naive sqrt-sqrt
    # expression cancels catastrophically
    omega = 1e-9
    k = float(resonant_wavevector(omega))
    assert abs(k - omega / math.sqrt(2.0)) < 1e-18


def test_group_velocity_limits():
    assert abs(float(group_velocity(0.0)) - math.sqrt(2.0)) < 1e-15
    assert abs(float(group_velocity(20.0)) / (2.0 * 20.0) - 1.0) < 5e-3
    # finite-difference check at moderate k
    k = 0.7
    h = 1e-6
    fd = (dispersion(k + h) - dispersion(k - h)) / (2.0 * h)
    assert abs(float(group_velocity(k)) - fd) < 1e-8


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        dispersion(-0.5)
    with pytest.raises(ValueError):
        group_velocity(np.array([0.1, -0.1]))
    with pytest.raises(ValueError):
        resonant_wavevector(-1.0)


def test_mode_norm_is_flat_far_from_core():
    # |u|^2 - |v|^2 approaches a constant plateau away from the soliton;
    # the envelope approximation is only trusted there
    x = np.linspace(-30.0, 30.0, 4001)
    for k in (0.113, 0.5, 1.5):
        mode = mode_amplitudes(k, x)
        norm = np.abs(mode.u) ** 2 - np.abs(mode.v) ** 2
        far = norm[np.abs(x) > 10.0]
        assert np.std(far) / np.mean(far) < 1e-6
        # plateau value from the y -> inf limit of the envelopes
        eps = float(dispersion(k))
        plateau = k * k * (k * k + 4.0) / (2.0 * math.pi * eps)
        assert abs(np.mean(far) - plateau) < 1e-6 * plateau


def test_mode_rejects_small_k():
    x = np.linspace(-5.0, 5.0, 64)
    with pytest.raises(ValueError):
        mode_amplitudes(0.0, x)
    with pytest.raises(ValueError):
        mode_amplitudes(0.5 * K_MIN, x)
    with pytest.raises(ValueError):
        mode_amplitudes(-0.2, x)
