"""Fixed reference kernels that measure how fast the host runs right now.

Each kernel does the same kind of work as one workload, with the benchmark's
own code and fixed inputs, so that no change to solq changes its time:

dynamics  an adaptive DOP853 solve of a fixed 16x16 linear system with 151
          snapshots and a 4x4 eigenvalue problem per snapshot (qubit_dynamics)
fft       a split-step loop of FFTs and pointwise phases on 2048 points
          (gpe_solitons)
panel     complex exponentials and a trapezoid over two 64 x 5001 panels, one
          in each of two threads (fewer on fewer cores), as the sweep runs rate_set
          (rate_sweep)
imports   a fresh interpreter that imports numpy, scipy.integrate and
          scipy.special, most of what a set-up probe does (setup_s)

`measure(name, seconds)` returns the mean time of one call. QUIET_S holds each
kernel's time on a quiet host, about the fastest seen on a
2-vCPU Intel Xeon (Sapphire Rapids) VM with numpy 2.4 and scipy 1.17; a
kernel time over its QUIET_S is the host's current slowdown for that kind of
work. The values only set the scale of the scaled timings and must stay fixed
for runs to be comparable.
"""

import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np
from scipy.integrate import solve_ivp

QUIET_S = {"dynamics": 0.020, "fft": 0.026, "panel": 0.033, "imports": 0.50}

_rng = np.random.default_rng(2024)
_M = _rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))
_GENERATOR = 0.15 * (_M - _M.conj().T) - 0.05 * np.eye(16)
_Y0 = np.eye(16, dtype=complex)[0]
_FLIP = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))

_X = np.linspace(-30.0, 30.0, 2048, endpoint=False)
_HALF_KINETIC = np.exp(-0.25j * (2 * np.pi * np.fft.fftfreq(2048, _X[1] - _X[0])) ** 2 * 1e-3)

_Y = np.linspace(-40.0, 40.0, 5001)
_K = np.linspace(0.05, 3.0, 64)[:, None]
_M_SITE = np.exp(-0.5 * _Y * _Y)


def _dynamics():
    sol = solve_ivp(lambda t, y: _GENERATOR @ y, (0.0, 15.0), _Y0,
                    t_eval=np.linspace(0.0, 15.0, 151), method="DOP853",
                    rtol=1e-10, atol=1e-12)
    total = 0.0
    for col in sol.y.T:
        rho = col.reshape(4, 4)
        rho = 0.5 * (rho + rho.conj().T)
        total += np.sqrt(np.abs(np.linalg.eigvals(rho @ _FLIP @ rho.conj() @ _FLIP))).sum()
    return total


def _fft():
    psi = np.tanh(_X) + 0j
    for _ in range(150):
        psi = np.fft.ifft(_HALF_KINETIC * np.fft.fft(psi))
        psi = psi * np.exp(-1e-3j * (psi.real ** 2 + psi.imag ** 2))
        psi = np.fft.ifft(_HALF_KINETIC * np.fft.fft(psi))
    return psi[0]


def _one_panel(shift):
    d1 = _M_SITE * np.exp(1j * _K * _Y)
    d2 = _M_SITE * np.exp(-1j * _K * (_Y - shift))
    return np.trapezoid((d1 * np.conj(d2)).real, dx=_Y[1] - _Y[0], axis=1)


def _panel():
    # two panels in as many threads as cores, up to two, as the sweep runs them
    with ThreadPoolExecutor(max_workers=min(2, os.cpu_count() or 1)) as ex:
        return [f.result() for f in [ex.submit(_one_panel, s) for s in (1.0, 2.0)]]


def run_fresh(cmd, timeout=120.0) -> float:
    """Wall time of a subprocess; raises if it fails or is killed at `timeout`.

    The wait blocks, with a watchdog in place of a wait timeout: waiting with
    a timeout polls every 50 ms, which would round the times up.
    """
    t0 = perf_counter()
    with subprocess.Popen(cmd) as proc:
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            returncode = proc.wait()
            elapsed = perf_counter() - t0
        except BaseException:   # interrupted: stop the child, then leaving the with waits for it
            proc.kill()
            raise
        finally:
            watchdog.cancel()
    if returncode != 0:
        raise subprocess.CalledProcessError(returncode, cmd)
    return elapsed


def _imports():
    run_fresh([sys.executable, "-c", "import numpy, scipy.integrate, scipy.special"])


KERNELS = {"dynamics": _dynamics, "fft": _fft, "panel": _panel, "imports": _imports}


def measure(name: str, seconds: float) -> float:
    """Mean time of one kernel call, over calls repeated for `seconds` (at
    least one call). A mean, not a median: a timed operation pays for the
    host's slow moments too."""
    kernel = KERNELS[name]
    calls = 0
    t0 = perf_counter()
    while True:
        kernel()
        calls += 1
        elapsed = perf_counter() - t0
        if elapsed >= seconds:
            return elapsed / calls
