"""Bogoliubov excitations of the background condensate.

Dispersion and group velocity of the phonon reservoir, plus the local-density
mode functions around a soliton: plane waves dressed by soliton-shaped
envelopes. Wavenumbers are in 1/xi, energies in mu.
"""

from dataclasses import dataclass

import numpy as np

K_MIN = 1e-4  # below this the mode functions are numerically singular


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


@dataclass(frozen=True)
class BogoliubovMode:
    """u/v envelope pair of one reservoir mode around a soliton at x = 0."""

    k: float
    u: np.ndarray
    v: np.ndarray


def mode_amplitudes(k: float, x) -> BogoliubovMode:
    """Local-density u_k, v_k profiles on the grid x.

    u_k(x) = e^{ikx} sqrt(1/4pi) (1/eps) [(k^2 + 2 eps)(k/2 + i tanh) + k sech^2],
    v_k(x) = e^{-ikx} sqrt(1/4pi) (1/eps) [(k^2 - 2 eps)(k/2 + i tanh) + k sech^2],

    with tanh/sech taken at x. These are envelope approximations and are
    not normalized: far from the core |u|^2 - |v|^2 tends to
    2k^2(k^2 + 4)/(4 pi eps(k)), not 1 (0.045 at k = 0.1, 3.0 at k = 4).
    Gamma/gamma is a ratio at one k, so the factor cancels there; eta/gamma
    integrates over k, so it does not (ROADMAP item 1).
    """
    k = float(k)
    if k <= 0.0:
        raise ValueError("mode_amplitudes needs k > 0 (k = 0 mode is singular)")
    if k < K_MIN:
        raise ValueError(f"k = {k} below the supported minimum {K_MIN}")
    x = np.asarray(x, dtype=float)
    bu, bv = mode_bracket(k, np.tanh(x), 1.0 / np.cosh(x) ** 2)
    pref = np.sqrt(1.0 / (4.0 * np.pi))
    u = np.exp(1j * k * x) * pref * bu
    v = np.exp(-1j * k * x) * pref * bv
    return BogoliubovMode(k=k, u=u, v=v)
