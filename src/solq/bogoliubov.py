"""Bogoliubov excitations of the background condensate.

Dispersion and group velocity of the phonon reservoir, plus the local-density
mode functions around a soliton as weights of 1, tanh and sech^2 (plane waves
dressed by soliton envelopes). Wavenumbers are in 1/xi, energies in mu.
"""

import numpy as np


def dispersion(k):
    """eps(k) = sqrt(k^2 (k^2 + 2)): phonon-like at small k, free at large k."""
    k = np.asarray(k, dtype=float)
    if np.any(k < 0.0):
        raise ValueError("dispersion expects k >= 0")
    return np.sqrt(k * k * (k * k + 2.0))


def group_velocity(k):
    """d eps/d k = 2 (k^2 + 1)/sqrt(k^2 + 2); sound speed sqrt(2) at k = 0."""
    k = np.asarray(k, dtype=float)
    if np.any(k < 0.0):
        raise ValueError("group_velocity expects k >= 0")
    return 2.0 * (k * k + 1.0) / np.sqrt(k * k + 2.0)


def resonant_wavevector(omega):
    """Invert the dispersion: the k with eps(k) = omega.

    Written as omega/sqrt(sqrt(1+omega^2)+1) rather than the textbook
    sqrt(sqrt(1+omega^2)-1), which loses all precision for omega << 1.
    """
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0.0):
        raise ValueError("resonant_wavevector expects omega >= 0")
    return omega / np.sqrt(np.sqrt(1.0 + omega * omega) + 1.0)


def mode_coefficients(k):
    """Density mode k around a soliton as weights of 1, tanh(y) and sech^2(y).

    Row 0 holds the envelope bu of e^{iky}, row 1 the envelope bv of e^{-iky}:

    bu = [(k^2 + 2 eps)(k/2 + i tanh) + k sech^2]/eps,
    bv = [(k^2 - 2 eps)(k/2 + i tanh) + k sech^2]/eps,

    so u_k = e^{iky} bu/sqrt(4 pi) and v_k = e^{-iky} bv/sqrt(4 pi). Returns a
    complex array of shape (2, 3) + shape(k).
    """
    eps = dispersion(k)
    a = ((k * k + 2.0 * eps) / eps, (k * k - 2.0 * eps) / eps)
    return np.array([[c * (k / 2.0), 1j * c, k / eps] for c in a], dtype=complex)
