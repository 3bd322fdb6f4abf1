"""Model parameters and unit conventions.

Everything downstream works in soliton units: hbar = xi = mu = m_psi = 1,
with xi = hbar/sqrt(g n0 m_psi) the healing length and mu = g n0 the chemical
potential of the background condensate. The impurity physics is controlled by
a single dimensionless well parameter nu derived from the impurity-condensate
coupling, and by the impurity/condensate mass ratio. The one laboratory
anchor is figS3's, `scenarios.FIGS3_XI_UM` and `FIGS3_MU_RAD_S`.
"""

import math
from dataclasses import dataclass
from enum import Enum


class ExponentConvention(Enum):
    """Choice of the sech exponent alpha for the localized impurity orbitals.

    DEFAULT    alpha = sqrt(nu (nu + 1)), the tail matched to the full well
               depth; used by all rate calculations.
    EIGENSTATE alpha = nu, which makes the ground orbital the exact bound
               state of the matched sech^2 well.
    """

    DEFAULT = "default"
    EIGENSTATE = "eigenstate"


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless model parameters; every field is a config key."""

    nu: float = 0.75
    mass_ratio: float = 1.56
    n0_xi: float = 50.0
    wannier_convention: ExponentConvention = ExponentConvention.DEFAULT

    def __post_init__(self):
        if not 0.0 <= self.nu < math.inf:
            raise ValueError(f"nu must be finite and nonnegative, got {self.nu}")
        if not 0.0 < self.mass_ratio < math.inf:
            raise ValueError(f"mass_ratio must be finite and positive, got {self.mass_ratio}")
        if not 0.0 < self.n0_xi < math.inf:
            raise ValueError(f"n0_xi must be finite and positive, got {self.n0_xi}")
        if isinstance(self.wannier_convention, str):
            object.__setattr__(
                self, "wannier_convention", ExponentConvention(self.wannier_convention)
            )


def well_depth(params: ModelParams) -> float:
    """Depth nu (nu + 1)/(2 m_r), in mu, of the sech^2 well `gpe.relax_impurity` solves."""
    return params.nu * (params.nu + 1.0) / (2.0 * params.mass_ratio)


def chi_over_g(params: ModelParams) -> float:
    """Coupling chi/g giving params.nu: 2 well_depth; the 2 is ROADMAP item 2's open decision."""
    return 2.0 * well_depth(params)


def qubit_gap(params: ModelParams) -> float:
    """Level splitting omega0 of the two lowest impurity orbitals, in mu/hbar.

    omega0 = (2 nu - 1)/(2 m_r); positive inside the two-state window.
    """
    return (2.0 * params.nu - 1.0) / (2.0 * params.mass_ratio)


def wannier_alpha(params: ModelParams) -> float:
    """The sech exponent alpha for the configured convention."""
    nu = params.nu
    if params.wannier_convention is ExponentConvention.DEFAULT:
        return math.sqrt(nu * (nu + 1.0))
    return nu
