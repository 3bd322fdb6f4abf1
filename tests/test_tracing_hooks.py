"""The benchmark's tracing hooks against the library they wrap.

perfbench/tracing.py replaces solq functions by attribute name and reads
their arguments by parameter name, so a rename in solq breaks it silently;
this test runs its install/uninstall and a tiny traced GPE run.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np

from solq import _kernels, gpe
from solq.model import ModelParams

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_wraps_the_gpe_entry_points():
    tracing = _load_tracing()
    originals = (gpe.split_step_evolve, gpe.relax_impurity, _kernels.phase_step)
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        tracer.run = 0
        grid = gpe.Grid1D(points=256, length=30.0, boundary=gpe.Boundary.BOX)
        soliton = gpe.imprint_solitons(grid, [0.0])
        dt = 0.5 * gpe.DT_CAP_FACTOR * grid.spacing ** 2
        gpe.split_step_evolve(soliton, 7 * dt, dt=dt, n_records=2)
        gpe.relax_impurity(soliton, ModelParams(), t_relax=0.05, dt=0.01)
        tracer.run = None
    finally:
        tracing.uninstall(saved)
    assert (gpe.split_step_evolve, gpe.relax_impurity, _kernels.phase_step) == originals

    (op,) = tracing.per_operation(tracer)
    for name in ("gpe.imprint_solitons", "gpe.box_background",
                 "gpe.split_step_evolve", "gpe.relax_impurity"):
        assert op[name + ".calls"] == 1
    assert op["gpe.split_step_evolve.steps"] == 7
    assert op["kernels.phase_step.calls"] == 7
    # the imprint runs no imaginary time
    assert op["kernels.decay_step.calls"] == 0
    assert op["gpe.relax_impurity.steps"] == 10
    assert np.isclose(op["trace.self_sum_s"], op["gpe.imprint_solitons.s"]
                      + op["gpe.split_step_evolve.s"] + op["gpe.relax_impurity.s"])


def test_traced_default_step_count_is_the_kernel_call_count():
    # perfbench derives the step count of a default-step run from
    # DT_CAP_FACTOR; the pointwise kernel runs once per step
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    grid = gpe.Grid1D(points=256, length=30.0)
    field = gpe.LatticeField(grid=grid, psi=np.ones(grid.points, dtype=complex))
    saved = tracing.install(tracer)
    try:
        tracer.run = 0
        gpe.split_step_evolve(field, 0.05, dt=None, n_records=2)
        tracer.run = None
    finally:
        tracing.uninstall(saved)

    (op,) = tracing.per_operation(tracer)
    steps = math.ceil(0.05 / (gpe.DT_CAP_FACTOR * grid.spacing ** 2))
    assert steps > 1
    assert op["gpe.split_step_evolve.steps"] == op["kernels.phase_step.calls"] == steps
