"""Kernel timings: the GPE field steps and the qubit-dynamics layers.

Run:  python3 benchmarks/bench_kernels.py
The field-step section compares the jitted steps against the numpy ones. The
jitted path needs numba installed (pip install solq[fast]); without it, or
with SOLQ_PURE_NUMPY=1, both columns time the same numpy code. The dynamics
section prints the per-call time of the three layers of a concurrence
trajectory: the Liouvillian build, one 301-point driven `evolve` and one
Wootters `concurrence`.
"""

import time

import numpy as np

from solq import _kernels, dynamics, entanglement
from solq.couplings import rate_set
from solq.model import ModelParams


def _time(fn, *args, repeat=5):
    fn(*args)  # warm-up (jit compilation)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_field_steps():
    n = 4096
    rng = np.random.default_rng(7)
    psi = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(complex)
    pot = np.abs(rng.standard_normal(n))
    for label, np_fn, hot_fn in (
        ("phase_step", _kernels.phase_step_numpy, _kernels.phase_step),
        ("decay_step", _kernels.decay_step_numpy, _kernels.decay_step),
    ):
        args = (psi, pot, 1.0, 5e-4)

        def many(fn, args=args):
            for _ in range(200):
                fn(*args)

        t_np = _time(lambda: many(np_fn))
        t_hot = _time(lambda: many(hot_fn))
        err = float(np.max(np.abs(np_fn(*args) - hot_fn(*args))))
        print(f"{label:18s} numpy {t_np * 1e3:8.1f} ms   active {t_hot * 1e3:8.1f} ms"
              f"   speedup {t_np / t_hot:5.1f}x   max diff {err:.2e}")


def bench_dynamics():
    rates = rate_set(2.5, ModelParams())
    drive = dynamics.DriveParams(omega_rabi=0.35)
    t_grid = np.linspace(0.0, 30.0, 301)
    ground = dynamics.basis_state("gg")
    state = dynamics.evolve(ground, rates, t_grid, drive=drive).states[-1]
    for label, fn, calls in (
        ("build_liouvillian", lambda: dynamics.build_liouvillian(rates, drive), 200),
        ("evolve, 301 points", lambda: dynamics.evolve(ground, rates, t_grid, drive=drive), 20),
        ("concurrence", lambda: entanglement.concurrence(state), 1000),
    ):

        def many(fn=fn, calls=calls):
            for _ in range(calls):
                fn()

        print(f"{label:18s} {_time(many) / calls * 1e3:8.3f} ms per call")


if __name__ == "__main__":
    print(f"numba available: {_kernels.HAVE_NUMBA}, pure-numpy override: {_kernels.PURE_NUMPY}")
    bench_field_steps()
    bench_dynamics()
