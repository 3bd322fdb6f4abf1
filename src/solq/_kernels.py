"""Pointwise steps of the split-step field solver.

The phase step (real time) applies the nonlinear and potential terms of the
Gross-Pitaevskii equation between the kinetic FFT half-steps in `gpe`, which
looks it up here at call time. The decay step, its imaginary-time
counterpart, is kept only for the benchmark's call counter.
"""

import numpy as np

# Only perfbench/run.py's environment record reads this; there is no
# compiled path.
HAVE_NUMBA = False


def phase_step(psi, pot, dt):
    """One pointwise nonlinear+potential phase rotation (real time)."""
    return psi * np.exp(-1j * dt * (psi.real ** 2 + psi.imag ** 2 + pot))


# Only perfbench/tracing.py's install reads this, by name, to count its
# calls; no solq code runs it.
def decay_step(psi, pot, dt):
    """One pointwise nonlinear+potential decay factor (imaginary time) of a
    real field."""
    return psi * np.exp(-dt * (psi * psi + pot))
