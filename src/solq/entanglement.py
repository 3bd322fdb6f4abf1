"""Concurrence of the two-qubit state, and this model's closed forms for it.

The general route is Wootters' spin-flip construction, computed once per
state where `dynamics` validates it (a trajectory's states as one batch): the
singular values s1 >= ... >= s4 of sqrt(rho) (sy ⊗ sy) sqrt(rho)^* are the
square roots of the eigenvalues of rho (sy ⊗ sy) rho* (sy ⊗ sy), and
C = max(0, s1 - s2 - s3 - s4). No square root of eigenvalue noise is taken,
so pure one-excitation states meet their closed form to roundoff. The
decaying and driven steady states of this model have their own analytic
formulas, kept as separate functions so the routes can be checked against
each other rather than collapsed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .couplings import RateSet
from .dynamics import DensityMatrix4, DriveParams


@dataclass(frozen=True)
class ConcurrenceResult:
    value: float


def concurrence(state: DensityMatrix4) -> ConcurrenceResult:
    """Spin-flip concurrence of a density matrix, the value computed when the
    state was validated."""
    return ConcurrenceResult(value=state.concurrence)


def undriven_concurrence_formula(rates: RateSet, times) -> np.ndarray:
    """C(t) = e^{-t} sqrt(sinh^2(Gamma t) + sin^2(2 eta t)), t in 1/gamma.

    Closed form for spontaneous decay from (|s> + |a>)/sqrt(2), i.e. one
    excited qubit. Bounded by the Gamma = gamma envelope
    e^{-t} sqrt(sinh^2 t + 1). Evaluated as
    hypot(e^{-t} sinh(Gamma t), e^{-t} sin(2 eta t)) with
    e^{-t} sinh(Gamma t) = (e^{(Gamma - 1) t} - e^{-(Gamma + 1) t})/2, so for
    |Gamma| <= gamma it stays finite at any t (at Gamma = +-gamma it tends to
    1/2, the subradiant population left in |a> or |s>).
    """
    times = np.asarray(times, dtype=float)
    big = rates.Gamma_over_gamma
    eta = rates.eta_over_gamma
    damped_sinh = 0.5 * (np.exp((big - 1.0) * times) - np.exp(-(big + 1.0) * times))
    damped_sin = np.exp(-times) * np.sin(2.0 * eta * times)
    return np.hypot(damped_sinh, damped_sin)


def steady_concurrence_formula(rates: RateSet, drive: DriveParams) -> float:
    """Stationary concurrence under the resonant drive on both qubits.

    C(inf) = 1/2 max{0, Omega^2 (|U| - Omega^2) / (Omega^4 + Omega^2
    + ((1+Gamma)^2 + 4 eta^2)/4)} with U = Gamma + 2 i eta, all in units of
    gamma. Exact for this model (the tests pin it against the Wootters value
    of the null-space steady state).
    """
    big = rates.Gamma_over_gamma
    eta = rates.eta_over_gamma
    om = drive.omega_rabi
    abs_u = math.hypot(big, 2.0 * eta)
    num = om * om * (abs_u - om * om)
    den = om ** 4 + om * om + 0.25 * ((1.0 + big) ** 2 + 4.0 * eta * eta)
    return 0.5 * max(0.0, num / den)
