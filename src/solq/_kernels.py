"""Pointwise steps of the split-step field solver, jitted when numba is available.

The phase step (real time) and the decay step (imaginary time) apply the
nonlinear and potential terms of the Gross-Pitaevskii equation between the
kinetic FFT half-steps in `gpe`. Everything else in the package, the rate
engine included, is plain vectorized numpy.

Set SOLQ_PURE_NUMPY=1 to force the numpy steps even when numba is installed;
benchmarks/bench_kernels.py times the two paths against each other and
checks that they agree.
"""

import os

import numpy as np

PURE_NUMPY = os.environ.get("SOLQ_PURE_NUMPY", "") not in ("", "0")

if PURE_NUMPY:
    HAVE_NUMBA = False
else:
    try:
        from numba import njit

        HAVE_NUMBA = True
    except ImportError:
        HAVE_NUMBA = False

if not HAVE_NUMBA:

    def njit(*args, **kwargs):  # no-op decorator, keeps call sites identical
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


def phase_step_numpy(psi, pot, g, dt):
    """One pointwise nonlinear+potential phase rotation (real time)."""
    return psi * np.exp(-1j * dt * (g * (psi.real ** 2 + psi.imag ** 2) + pot))


@njit(cache=True, nogil=True)
def _phase_step_jit(psi, pot, g, dt):
    out = np.empty_like(psi)
    for i in range(psi.shape[0]):
        ph = -dt * (g * (psi[i].real ** 2 + psi[i].imag ** 2) + pot[i])
        out[i] = psi[i] * complex(np.cos(ph), np.sin(ph))
    return out


def decay_step_numpy(psi, pot, g, dt):
    """One pointwise nonlinear+potential decay factor (imaginary time)."""
    return psi * np.exp(-dt * (g * (psi.real ** 2 + psi.imag ** 2) + pot))


@njit(cache=True, nogil=True)
def _decay_step_jit(psi, pot, g, dt):
    out = np.empty_like(psi)
    for i in range(psi.shape[0]):
        out[i] = psi[i] * np.exp(-dt * (g * (psi[i].real ** 2 + psi[i].imag ** 2) + pot[i]))
    return out


if HAVE_NUMBA:
    phase_step = _phase_step_jit
    decay_step = _decay_step_jit
else:
    phase_step = phase_step_numpy
    decay_step = decay_step_numpy
