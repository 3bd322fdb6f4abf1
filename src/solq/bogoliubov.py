"""Bogoliubov excitations of the background condensate.

Dispersion and group velocity of the phonon reservoir, plus the envelope
brackets of the local-density mode functions around a soliton (plane waves
dressed by soliton-shaped envelopes). Wavenumbers are in 1/xi, energies in mu.
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


def mode_bracket(k, th, ssq):
    """Envelope brackets (bu, bv) of mode k at a point with tanh th, sech^2 ssq.

    bu = [(k^2 + 2 eps)(k/2 + i th) + k ssq]/eps,
    bv = [(k^2 - 2 eps)(k/2 + i th) + k ssq]/eps,

    so that u_k = e^{iky} bu/sqrt(4 pi) and v_k = e^{-iky} bv/sqrt(4 pi).
    Plain arithmetic: floats give complex scalars and broadcastable arrays
    give complex arrays.
    """
    eps = dispersion(k)
    common = k / 2.0 + 1j * th
    tail = (k / eps) * ssq
    return (
        (k * k + 2.0 * eps) / eps * common + tail,
        (k * k - 2.0 * eps) / eps * common + tail,
    )
