"""Tests of the benchmark itself: inputs, output identity, span arithmetic.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import host_speed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    first = json.dumps(workloads.make_inputs(workload, 7))
    assert json.dumps(workloads.make_inputs(workload, 7)) == first
    assert json.dumps(workloads.make_inputs(workload, 8)) != first


def test_rate_inputs_lie_on_the_reference_grid():
    ref = workloads.reference_table()
    for seed in range(20):
        for inp in workloads.make_inputs("rate_sweep", seed):
            assert 0.5 <= inp["d_min"] < inp["d_max"] <= 6.0
            for d in (inp["d_min"], inp["d_max"]):
                assert d in ref["d"]


def test_reference_table_matches_the_rate_pins():
    # the pins of tests/test_couplings.py::test_rate_regression_pins
    pins = {
        0.5: (0.37895206764538797, 1.5386018760582658),
        1.0: (0.17540476097052546, -0.18539819088689244),
        2.5: (-0.3001013852822895, 0.2763492283663404),
        5.0: (0.00976176556884377, 0.02292837189223791),
    }
    ref = workloads.reference_table()
    for d, (big, eta) in pins.items():
        j = ref["d"].index(d)
        assert abs(ref["Gamma_over_gamma"][j] - big) < 1e-6 * max(abs(big), 0.01)
        assert abs(ref["eta_over_gamma"][j] - eta) < 1e-6 * max(abs(eta), 0.01)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.PER_LAYER
    )
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _fig5a(tmp_path, name, tracer=None):
    """One two-point rate_sweep operation; returns its CSV and meta bytes."""
    inp = dict(workloads.make_inputs("rate_sweep", 3)[0], points=2)
    op = workloads.Operation("rate_sweep", tmp_path / name)
    inp = op.prepare(inp, 0)
    saved = tracing.install(tracer) if tracer else []
    try:
        if tracer:
            tracer.run = 0
        result, _ = run.run_operation(op.run(inp), lambda: None)
    finally:
        if tracer:
            tracer.run = None
        tracing.uninstall(saved)
    ok, details = op.check(inp, result)
    assert ok, details
    out = Path(inp["out"])
    return (out / "fig5a.csv").read_bytes(), (out / "fig5a.meta").read_bytes()


def test_outputs_are_byte_identical_across_runs_and_tracing(tmp_path):
    first = _fig5a(tmp_path, "a")
    assert _fig5a(tmp_path, "b") == first
    tracer = tracing.Tracer()
    assert _fig5a(tmp_path, "c", tracer) == first

    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[1], []).append(span)
    (scenario,) = by_name["scenarios.run_scenario"]
    rate_spans = by_name["couplings.rate_set"]
    assert len(rate_spans) == 2
    # spans opened in _sweep's worker threads hang off run_scenario
    assert all(s[4] == scenario[0] for s in rate_spans)
    assert {s[6] for s in rate_spans} != {scenario[6]}


def test_self_times_split_parallel_children_fairly():
    # root R [0, 10]; A [1, 3] on R's thread; B [4, 8] and C [5, 9] on two
    # other threads, both children of R; D [6, 7] a child of B
    spans = [("R", 0.0, 10.0, None), ("A", 1.0, 3.0, "R"), ("B", 4.0, 8.0, "R"),
             ("C", 5.0, 9.0, "R"), ("D", 6.0, 7.0, "B")]
    got = tracing.self_times(spans)
    want = {"R": 3.0, "A": 2.0, "B": 2.0, "C": 2.5, "D": 0.5}
    assert got == pytest.approx(want)
    assert sum(got.values()) == pytest.approx(10.0)


def test_self_time_on_one_thread_is_duration_minus_children():
    # span 4 takes no time and sits on the boundary between its siblings
    got = tracing.self_times([(1, 0.0, 5.0, None), (2, 1.0, 2.0, 1), (3, 2.0, 4.5, 1),
                              (4, 2.0, 2.0, 1)])
    assert got == pytest.approx({1: 1.5, 2: 1.0, 3: 2.5, 4: 0.0})


def test_tracer_accounts_for_worker_threads():
    tracer = tracing.Tracer()
    work = tracer.traced("couplings.rate_set", lambda v: time.sleep(0.02))

    def sweep(fn, values, threads):
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(fn, values))

    swept = tracer.adopting_sweep(sweep)
    root = tracer.traced(tracing.ROOT, lambda: swept(work, range(4), 2))
    tracer.run = 0
    root()
    tracer.run = None

    (op,) = tracing.per_operation(tracer)
    assert op["couplings.rate_set.calls"] == 4
    assert op["trace.self_sum_s"] == pytest.approx(op[tracing.ROOT + ".s"], rel=1e-9)
    assert 0.5 < op["scenarios.sweep.parallel_eff"] <= 1.0
    root_id = next(s[0] for s in tracer.spans if s[1] == tracing.ROOT)
    assert all(s[4] == root_id for s in tracer.spans if s[1] != tracing.ROOT)


def test_scaling_divides_each_time_by_the_slowdown_around_it():
    # slowdowns measured before, between and after two timed samples
    assert run.scaled([2.0, 3.0], [1.0, 3.0, 1.0]) == pytest.approx([1.0, 1.5])


@pytest.mark.parametrize("name", ["dynamics", "fft", "panel"])
def test_host_kernels_repeat_the_same_work(name):
    kernel = host_speed.KERNELS[name]
    first = kernel()
    assert np.array_equal(kernel(), first)
    assert host_speed.measure(name, 0.0) > 0.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rate_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout
