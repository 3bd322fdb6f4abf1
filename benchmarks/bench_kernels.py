"""Timing comparison of the jitted field-solver steps against the numpy ones.

Run:  python3 benchmarks/bench_kernels.py
The jitted path needs numba installed (pip install solq[fast]); without it,
or with SOLQ_PURE_NUMPY=1, both columns time the same numpy code.
"""

import time

import numpy as np

from solq import _kernels


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


if __name__ == "__main__":
    print(f"numba available: {_kernels.HAVE_NUMBA}, pure-numpy override: {_kernels.PURE_NUMPY}")
    bench_field_steps()
