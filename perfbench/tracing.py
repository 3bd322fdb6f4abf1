"""In-memory spans around solq's public functions, and the per-layer metrics.

`install(tracer)` replaces each traced function at the name its callers look
it up by (the module attribute, or the name a module imported) with a wrapper
that records a span: id, name, start, end, parent, run (the benchmark
operation) and thread. Nothing in `src/solq` changes. The two pointwise
split-step kernels are too hot for spans and only count their calls.
Spans opened in `_sweep`'s worker threads take the span that called `_sweep`
(the `run_scenario` span) as their parent.

Self time splits wall-clock time fairly: at each instant it goes in equal
shares to the open spans that have no open child. On one thread this is a
span's duration minus the time its children cover; with children running in
parallel threads, the self times of one operation still add up to its wall
time.
"""

import inspect
import itertools
import math
import os
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = "bench.op"

# (metric, unit, better) as listed under per_layer in BENCHMARK.json.
# "<span>.calls", "<span>.s" (inclusive busy) and "<span>.self_s" come from
# spans; every other name is a counter or a ratio computed per operation.
PER_LAYER = (
    ("scenarios.run_scenario.s", "s", "lower"),
    ("scenarios.write.s", "s", "lower"),
    ("scenarios.write.bytes", "bytes", "lower"),
    ("scenarios.sweep.parallel_eff", "ratio", "higher"),
    ("couplings.rate_set.calls", "count", "lower"),
    ("couplings.rate_set.s", "s", "lower"),
    ("couplings.correlation_panel.calls", "count", "lower"),
    ("couplings.correlation_panel.s", "s", "lower"),
    ("couplings.correlation_panel.evals", "count", "lower"),
    ("couplings.principal_value_integral.s", "s", "lower"),
    ("couplings.coupling_amplitude.calls", "count", "lower"),
    ("couplings.coupling_amplitude.s", "s", "lower"),
    ("couplings.rwa_report.s", "s", "lower"),
    ("boundstates.wannier_pair.calls", "count", "lower"),
    ("boundstates.wannier_pair.s", "s", "lower"),
    ("dynamics.evolve.calls", "count", "lower"),
    ("dynamics.evolve.s", "s", "lower"),
    ("dynamics.evolve.snapshots", "count", "lower"),
    ("dynamics.build_liouvillian.calls", "count", "lower"),
    ("dynamics.build_liouvillian.s", "s", "lower"),
    ("dynamics.steady_state.calls", "count", "lower"),
    ("dynamics.steady_state.s", "s", "lower"),
    ("entanglement.concurrence.calls", "count", "lower"),
    ("entanglement.concurrence.s", "s", "lower"),
    ("entanglement.steady_concurrence_formula.calls", "count", "lower"),
    ("entanglement.steady_concurrence_formula.s", "s", "lower"),
    ("gpe.box_background.s", "s", "lower"),
    ("gpe.imprint_solitons.s", "s", "lower"),
    ("gpe.split_step_evolve.s", "s", "lower"),
    ("gpe.split_step_evolve.steps", "count", "lower"),
    ("gpe.split_step_evolve.ffts", "count", "lower"),
    ("gpe.relax_impurity.s", "s", "lower"),
    ("gpe.relax_impurity.steps", "count", "lower"),
    ("gpe.multi_soliton_experiment.self_s", "s", "lower"),
    ("kernels.decay_step.calls", "count", "lower"),
    ("kernels.phase_step.calls", "count", "lower"),
    ("bench.op.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
)


class Tracer:
    """Spans and counters of one benchmark run, kept in memory.

    Recording is on only while `run` holds an operation index. Appending to a
    list and drawing from `itertools.count` are atomic under the interpreter
    lock; counter updates are read-modify-write and take `_lock`.
    """

    def __init__(self):
        self.spans = []     # (id, name, start, end, parent, run, thread)
        self.counts = defaultdict(float)   # (run, name) -> value
        self.sweeps = []    # (run, start, end, threads)
        self.run = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[(self.run, name)] += value

    def traced(self, name, fn, counter=None):
        """fn wrapped in a span; counter(bound_arguments) -> {name: value}."""
        signature = inspect.signature(fn) if counter else None

        def wrapper(*args, **kwargs):
            if self.run is None:
                return fn(*args, **kwargs)
            stack = self.stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append(
                    (sid, name, start, end, parent, self.run, threading.get_ident())
                )
                if counter:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    for key, value in counter(bound.arguments).items():
                        self.count(key, value)

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.run is not None:
                self.count(name, 1)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def adopting_sweep(self, sweep):
        """`_sweep` whose worker-thread spans take the caller's span as parent."""

        def wrapper(fn, values, threads):
            if self.run is None:
                return sweep(fn, values, threads)
            stack = self.stack()
            parent = stack[-1] if stack else None

            def adopted(value):
                worker = self.stack()
                worker.append(parent)
                try:
                    return fn(value)
                finally:
                    worker.pop()

            start = perf_counter()
            try:
                return sweep(adopted, values, threads)
            finally:
                end = perf_counter()
                # the worker count _sweep uses for these arguments
                n = threads if threads is not None else (os.cpu_count() or 1)
                n = 1 if n <= 1 or len(values) <= 1 else min(n, len(values))
                self.sweeps.append((self.run, start, end, n))

        wrapper.__wrapped__ = sweep
        return wrapper


def _evals(a):
    return {"couplings.correlation_panel.evals": np.size(a["karr"]) * a["n_y"]}


def _snapshots(a):
    return {"dynamics.evolve.snapshots": len(a["t_grid"])}


def _split_steps(a):
    from solq import gpe

    dx = a["field"].grid.spacing
    dt = a["dt"] if a["dt"] is not None else gpe.DT_CAP_FACTOR * dx * dx
    steps = max(1, int(math.ceil(a["t_final"] / dt)))
    # two half-kinetic steps per step, each one forward and one inverse FFT
    return {"gpe.split_step_evolve.steps": steps, "gpe.split_step_evolve.ffts": 4 * steps}


def _relax_steps(a):
    # two orbitals (even and odd parity), each relaxed for t_relax
    return {"gpe.relax_impurity.steps": 2 * int(round(a["t_relax"] / a["dt"]))}


def _written(a):
    return {"scenarios.write.bytes": Path(a["path"]).stat().st_size}


def install(tracer: Tracer):
    """Wrap solq's functions where their callers look them up.

    Returns a list of (module, attribute, original) for `uninstall`.
    """
    from solq import _kernels, cli, couplings, dynamics, entanglement, gpe, scenarios

    spans = (
        (cli, "main", "cli.main", None),
        (cli, "run_scenario", "scenarios.run_scenario", None),
        (scenarios, "validate_report", "scenarios.validate_report", None),
        (scenarios, "write_csv", "scenarios.write", _written),
        (scenarios, "write_meta", "scenarios.write", _written),
        (scenarios, "rate_set", "couplings.rate_set", None),
        (scenarios, "rwa_report", "couplings.rwa_report", None),
        (scenarios, "steady_concurrence_formula",
         "entanglement.steady_concurrence_formula", None),
        (couplings, "rate_set", "couplings.rate_set", None),
        (couplings, "correlation_panel", "couplings.correlation_panel", _evals),
        (couplings, "principal_value_integral", "couplings.principal_value_integral", None),
        (couplings, "coupling_amplitude", "couplings.coupling_amplitude", None),
        (couplings, "wannier_pair", "boundstates.wannier_pair", None),
        (dynamics, "evolve", "dynamics.evolve", _snapshots),
        (dynamics, "build_liouvillian", "dynamics.build_liouvillian", None),
        (dynamics, "steady_state", "dynamics.steady_state", None),
        (entanglement, "concurrence", "entanglement.concurrence", None),
        (gpe, "box_background", "gpe.box_background", None),
        (gpe, "imprint_solitons", "gpe.imprint_solitons", None),
        (gpe, "split_step_evolve", "gpe.split_step_evolve", _split_steps),
        (gpe, "relax_impurity", "gpe.relax_impurity", _relax_steps),
        (gpe, "multi_soliton_experiment", "gpe.multi_soliton_experiment", None),
    )
    saved = []
    for module, attr, name, counter in spans:
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.traced(name, original, counter))
    for attr in ("decay_step", "phase_step"):
        original = getattr(_kernels, attr)
        saved.append((_kernels, attr, original))
        setattr(_kernels, attr, tracer.counted(f"kernels.{attr}.calls", original))
    saved.append((scenarios, "_sweep", scenarios._sweep))
    scenarios._sweep = tracer.adopting_sweep(scenarios._sweep)
    return saved


def uninstall(saved) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


def self_times(spans) -> dict:
    """Fair-share self time of each span: {id: seconds}.

    spans: iterable of (id, start, end, parent). Between consecutive span
    boundaries the elapsed time is split equally among the open spans with no
    open child. A parent id that is not among the spans is ignored.
    """
    parent_of = {}
    events = []
    for sid, start, end, parent in spans:
        parent_of[sid] = parent
        events.append((start, 0, sid))
        events.append((end, 1, sid))
    events.sort()  # at equal times, starts (0) before ends (1)
    open_children = {}
    active = set()
    result = dict.fromkeys(parent_of, 0.0)
    last = None
    for t, kind, sid in events:
        if active:
            share = (t - last) / len(active)
            for a in active:
                result[a] += share
        last = t
        parent = parent_of[sid]
        if kind == 0:
            open_children[sid] = 0
            active.add(sid)
            if parent in open_children:
                open_children[parent] += 1
                active.discard(parent)
        else:
            del open_children[sid]
            active.discard(sid)
            if parent in open_children:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    active.add(parent)
    return result


def per_operation(tracer: Tracer) -> list[dict]:
    """Per-layer values of each traced operation, in operation order."""
    by_run = defaultdict(list)
    for span in tracer.spans:
        by_run[span[5]].append(span)
    ops = []
    for run in sorted(by_run):
        spans = by_run[run]
        selfs = self_times((s[0], s[2], s[3], s[4]) for s in spans)
        values = defaultdict(float)
        for sid, name, start, end, _, _, _ in spans:
            values[name + ".calls"] += 1
            values[name + ".s"] += end - start
            values[name + ".self_s"] += selfs[sid]
        for (r, name), value in tracer.counts.items():
            if r == run:
                values[name] += value
        sweeps = [s for s in tracer.sweeps if s[0] == run]
        if sweeps:
            busy = sum(
                s[3] - s[2] for s in spans if s[1] == "couplings.rate_set"
                and any(w[1] <= s[2] and s[3] <= w[2] for w in sweeps)
            )
            values["scenarios.sweep.parallel_eff"] = busy / sum(
                (w[2] - w[1]) * w[3] for w in sweeps
            )
        values["trace.self_sum_s"] = sum(selfs.values())
        ops.append(values)
    return ops


def write_spans(tracer: Tracer, path: Path) -> None:
    with open(path, "w") as f:
        f.write("id,name,start,end,parent,run,thread\n")
        for sid, name, start, end, parent, run, thread in tracer.spans:
            f.write(f"{sid},{name},{start!r},{end!r},{parent or ''},{run},{thread}\n")
