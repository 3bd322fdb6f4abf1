"""One operation of each benchmark workload, run and checked.

perfbench/workloads.py calls solq by module attribute and reads its results
by field name, and its own tests run only rate_sweep; this runs operation 0
of seed 3 of every workload through `prepare`, `run` and `check`, so a
rename or a wrong output fails here first.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def _drive(steps):
    """Run an operation's generator to the end and return its outputs."""
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_first_operation_passes_its_check(workload, tmp_path):
    op = workloads.Operation(workload, tmp_path)
    inp = op.prepare(workloads.make_inputs(workload, 3)[0], 0)
    ok, details = op.check(inp, _drive(op.run(inp)))
    assert ok, details
