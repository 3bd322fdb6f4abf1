"""Concurrence of the two-qubit state, general and closed-form routes.

The general route is Wootters' spin-flip construction, computed once per
state where `dynamics` validates it (a trajectory's states as one batch): the
singular values s1 >= ... >= s4 of sqrt(rho) (sy ⊗ sy) sqrt(rho)^* are the
square roots of the eigenvalues of rho (sy ⊗ sy) rho* (sy ⊗ sy), and
C = max(0, s1 - s2 - s3 - s4). No square root of eigenvalue noise is taken,
so pure one-excitation states meet their closed form to roundoff. States
whose product-basis matrix is X-shaped (diagonal plus antidiagonal) admit two
closed-form branches, one per antidiagonal pair; the decaying and driven
steady states of this model have their own analytic formulas, kept as
separate functions so the routes can be checked against each other rather
than collapsed.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .couplings import RateSet
from .dynamics import Basis, DensityMatrix4, DriveParams, _as_product_matrix

X_SHAPE_TOL = 1e-10


class ConcurrenceBranch(Enum):
    GENERAL = "general"
    X_OUTER = "x_outer"           # outer antidiagonal |rho_14| dominates
    X_INNER = "x_inner"           # inner antidiagonal |rho_23| dominates


@dataclass(frozen=True)
class ConcurrenceResult:
    value: float
    branch: ConcurrenceBranch


def _coerce(state) -> DensityMatrix4:
    if isinstance(state, DensityMatrix4):
        return state
    return DensityMatrix4(matrix=np.asarray(state, dtype=complex))


def concurrence(state) -> ConcurrenceResult:
    """Spin-flip concurrence of a density matrix (any basis tag).

    Accepts a DensityMatrix4 or a raw 4x4 array (validated, assumed product
    basis). The value is the one computed when the state was validated.
    """
    return ConcurrenceResult(
        value=_coerce(state).concurrence, branch=ConcurrenceBranch.GENERAL
    )


@dataclass(frozen=True)
class ClosedFormConcurrence:
    c_outer: float
    c_inner: float
    value: float
    branch: ConcurrenceBranch


def concurrence_closed_forms(state) -> ClosedFormConcurrence:
    """Both X-state branches: C = max(0, c_outer, c_inner).

    c_outer = 2(|rho_14| - sqrt(rho_22 rho_33)) and
    c_inner = 2(|rho_23| - sqrt(rho_11 rho_44)) in the product basis. A matrix
    with weight outside the X pattern (beyond 1e-10) raises a shape error;
    the driven steady state is an example of such a state.
    """
    dm = _coerce(state)
    rho = _as_product_matrix(dm)
    off = rho.copy()
    for r, c in ((0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2), (2, 1)):
        off[r, c] = 0.0
    worst = np.max(np.abs(off))
    if worst > X_SHAPE_TOL:
        raise ValueError(
            f"matrix is not X-shaped (off-pattern weight {worst:.2e})"
        )
    p = rho.real
    c_outer = 2.0 * (abs(rho[0, 3]) - math.sqrt(max(p[1, 1] * p[2, 2], 0.0)))
    c_inner = 2.0 * (abs(rho[1, 2]) - math.sqrt(max(p[0, 0] * p[3, 3], 0.0)))
    if c_outer >= c_inner:
        branch = ConcurrenceBranch.X_OUTER
    else:
        branch = ConcurrenceBranch.X_INNER
    return ClosedFormConcurrence(
        c_outer=c_outer,
        c_inner=c_inner,
        value=max(0.0, c_outer, c_inner),
        branch=branch,
    )


def undriven_concurrence_formula(rates: RateSet, times) -> np.ndarray:
    """C(t) = e^{-t} sqrt(sinh^2(Gamma t) + sin^2(2 eta t)), t in 1/gamma.

    Closed form for spontaneous decay from (|s> + |a>)/sqrt(2), i.e. one
    excited qubit. Bounded by the Gamma = gamma envelope
    e^{-t} sqrt(sinh^2 t + 1).
    """
    times = np.asarray(times, dtype=float)
    big = rates.Gamma_over_gamma
    eta = rates.eta_over_gamma
    return np.exp(-times) * np.sqrt(
        np.sinh(big * times) ** 2 + np.sin(2.0 * eta * times) ** 2
    )


def steady_concurrence_formula(rates: RateSet, drive: DriveParams) -> float:
    """Stationary concurrence under symmetric resonant pumping.

    C(inf) = 1/2 max{0, Omega^2 (|U| - Omega^2) / (Omega^4 + Omega^2
    + ((1+Gamma)^2 + 4 eta^2)/4)} with U = Gamma + 2 i eta, all in units of
    gamma. Exact for this model (the tests pin it against the Wootters value
    of the null-space steady state).
    """
    if not drive.symmetric or drive.detuning != 0.0:
        raise ValueError("formula requires symmetric resonant pumping")
    big = rates.Gamma_over_gamma
    eta = rates.eta_over_gamma
    om = drive.omega_rabi
    abs_u = math.hypot(big, 2.0 * eta)
    num = om * om * (abs_u - om * om)
    den = om ** 4 + om * om + 0.25 * ((1.0 + big) ** 2 + 4.0 * eta * eta)
    return 0.5 * max(0.0, num / den)
