"""Impurity bound states in the soliton core.

The soliton density dip acts on the impurity as a sech^2 well of the
Poschl-Teller family. The two lowest localized orbitals (the qubit states)
are modeled by the classic variational pair

    phi0(x) = A0 sech^alpha(x),      phi1(x) = A1 tanh(x) phi0(x),

with alpha set by the convention on ModelParams. Energies and the level count
come from the analytic well spectrum; the split-step module cross-checks them
numerically.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, wannier_alpha

_COUNT_EPS = 1e-12  # keeps the exact lower window edge nu = 1/3 inside


@dataclass(frozen=True)
class PtSpectrum:
    """Analytic well spectrum: level energies, count, and qubit window flag."""

    energies: tuple
    count: int
    qubit_window: bool


def level_count(nu: float) -> int:
    """Number of impurity levels the well supports for a given nu."""
    return int(math.floor(nu + 1.0 + math.sqrt(nu * (1.0 + nu)) + _COUNT_EPS))


def pt_spectrum(params: ModelParams) -> PtSpectrum:
    """Bound-level energies -(nu - n)^2 / (2 m_r), n = 0 .. count-1.

    Energies are relative to the well plateau (the continuum edge), in units
    of mu. The qubit window (exactly two levels) is 1/3 <= nu < 4/5,
    equivalent to count == 2.
    """
    nu = params.nu
    count = level_count(nu)
    energies = tuple(
        -((nu - n) ** 2) / (2.0 * params.mass_ratio) for n in range(count)
    )
    return PtSpectrum(energies=energies, count=count, qubit_window=count == 2)


def _sech_norm(alpha: float) -> float:
    """A0: normalization of sech^alpha, via log-gammas for stability."""
    log_s = 0.5 * math.log(math.pi) + math.lgamma(alpha) - math.lgamma(alpha + 0.5)
    return math.exp(-0.5 * log_s)


@dataclass(frozen=True)
class WannierPair:
    """The two localized impurity orbitals at one soliton site."""

    alpha: float
    a0: float
    a1: float

    def phi0(self, x):
        x = np.asarray(x, dtype=float)
        return self.a0 * np.cosh(x) ** (-self.alpha)

    def phi1(self, x):
        x = np.asarray(x, dtype=float)
        return self.a1 * np.tanh(x) * self.phi0(x)


def wannier_pair(params: ModelParams) -> WannierPair:
    """Build the normalized orbital pair for the configured alpha.

    Both are analytic: A1 = 1/sqrt(int A0^2 sech^(2 alpha) tanh^2) =
    sqrt(1 + 2 alpha), because that integral is 1/(1 + 2 alpha).
    Sign convention: phi1 >= 0 for x > 0.
    """
    alpha = wannier_alpha(params)
    if alpha <= 0.0:
        raise ValueError(f"need a positive sech exponent, got alpha = {alpha}")
    return WannierPair(alpha=alpha, a0=_sech_norm(alpha), a1=math.sqrt(1.0 + 2.0 * alpha))

