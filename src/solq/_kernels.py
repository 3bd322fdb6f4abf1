"""Pointwise steps of the split-step field solver.

The phase step (real time) and the decay step (imaginary time) apply the
nonlinear and potential terms of the Gross-Pitaevskii equation between the
kinetic FFT half-steps in `gpe`, which looks them up here at call time.
"""

import numpy as np

# Only perfbench/run.py's environment record reads this; there is no
# compiled path.
HAVE_NUMBA = False


def phase_step(psi, pot, dt):
    """One pointwise nonlinear+potential phase rotation (real time)."""
    return psi * np.exp(-1j * dt * (psi.real ** 2 + psi.imag ** 2 + pot))


def decay_step(psi, pot, dt):
    """One pointwise nonlinear+potential decay factor (imaginary time) of a
    real field."""
    return psi * np.exp(-dt * (psi * psi + pot))
