"""solq benchmark: one workload, timed for a fixed budget, outputs checked.

    python3 perfbench/run.py --workload rate_sweep --seed 1 --seconds 25 --trace 0

Run from the repository root. The workload's operations (see workloads.py)
run one after another in this process, stopping at the operation boundary
nearest to --seconds of timed wall time. Each operation's outputs are checked
after its timed region.

--trace 0 reports the end-to-end metrics; before the timed loop, SETUP_PROBES
fresh interpreters each import solq and generate the inputs, and setup_s is
the median of their wall times. The host this was built on is shared, and its
speed drifts by up to 3x over minutes, so every timing is scaled to a quiet
host: a fixed kernel of the same kind of work (host_speed.py) is timed before
and after each segment of an operation (the workload's kernel; a segment
ends at each yield of workloads.Operation.run) and each
set-up probe (the imports kernel), and the time is divided by the slowdown
around it, the mean of those two kernel times over the kernel's quiet-host
time. The reported
timings are the scaled ones; the unscaled ones and the slowdowns are printed
and stored next to them. --trace 1 wraps solq's public functions in spans
(tracing.py) and reports the per-layer metrics instead.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The lines before it print every metric with its quartiles and sample count,
fail_frac and the environment; the same goes to
.perfbench_out/<workload>-seed<seed>-trace<t>.json (and the spans of a traced
run to ...-spans.csv). The exit code is 1 when an output check failed and 2
when the benchmark cannot run at all.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import host_speed

HERE = Path(__file__).resolve().parent
ROOT_DIR = HERE.parent
SRC = ROOT_DIR / "src"
OUT = ROOT_DIR / ".perfbench_out"
SETUP_PROBES = 3
KERNEL_S = 0.3         # seconds of host_speed kernel calls per slowdown between segments
ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "SOLQ_PURE_NUMPY")

# (metric, unit, better) as listed under end_to_end in BENCHMARK.json.
# work_per_s is rate_rows_per_s on rate_sweep, trajectories_per_s on
# qubit_dynamics and sim_time_per_s on gpe_solitons.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("work_per_s", "1/s", "higher"),
)
# the host_speed kernel that does the same kind of work as each workload
HOST_KERNEL = {"rate_sweep": "panel", "qubit_dynamics": "dynamics",
               "gpe_solitons": "fft"}
WORK_NAMES = {
    "rate_sweep": ("rate_rows_per_s", "rows/s"),
    "qubit_dynamics": ("trajectories_per_s", "1/s"),
    "gpe_solitons": ("sim_time_per_s", "(hbar/mu)/s"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("rate_sweep", "qubit_dynamics", "gpe_solitons"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_solq():
    """Import solq from this checkout's src/, never from an installed copy."""
    if not (SRC / "solq" / "__init__.py").is_file():
        raise RuntimeError(f"no solq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import solq

    if Path(solq.__file__).resolve().parent != (SRC / "solq").resolve():
        raise RuntimeError(f"imported solq from {solq.__file__}, not {SRC}")
    return solq


def quartiles(values) -> dict:
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _git(*args):
    try:
        res = subprocess.run(["git", *args], cwd=ROOT_DIR, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment(solq) -> dict:
    import numpy
    import scipy

    from solq import _kernels

    digest = hashlib.sha256()
    for path in sorted((SRC / "solq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
        "solq": solq.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "have_numba": _kernels.HAVE_NUMBA,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "env_vars": {k: os.environ.get(k) for k in ENV_VARS},
    }


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import solq and make the inputs,
    and the host slowdown for imports before the first and after each of them."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times, slow = [], [slowdown("imports", 0.0)]
    for _ in range(SETUP_PROBES):
        times.append(host_speed.run_fresh(cmd))
        slow.append(slowdown("imports", 0.0))
    return times, slow


def slowdown(kernel: str, seconds: float) -> float:
    """The host's current slowdown for the kernel's kind of work."""
    return host_speed.measure(kernel, seconds) / host_speed.QUIET_S[kernel]


def scaled(times, slow) -> list[float]:
    """times[i] divided by the mean slowdown measured around it."""
    return [t / (0.5 * (a + b)) for t, a, b in zip(times, slow, slow[1:])]


def run_operation(steps, pause) -> tuple:
    """Drive an operation's generator (see workloads.Operation).

    Returns (result, segments): segments holds (seconds, work) for each stretch
    of the operation that ends at a yield, and for the stretch from the last
    yield to the return. `pause` runs at each yield; its time is not counted.
    """
    segments = []
    start = perf_counter()
    while True:
        try:
            work = next(steps)
        except StopIteration as stop:
            segments.append((perf_counter() - start, 0))
            return stop.value, segments
        segments.append((perf_counter() - start, work))
        pause()
        start = perf_counter()


def run(args) -> int:
    if args.setup_probe:
        import_solq()
        import workloads

        workloads.make_inputs(args.workload, args.seed)
        return 0

    solq = import_solq()
    import tracing
    import workloads

    kernel = HOST_KERNEL[args.workload]
    setup, setup_slow = (None, None) if args.trace else measure_setup(args)

    inputs = workloads.make_inputs(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = OUT / f"{tag}-{os.getpid()}"
    op = workloads.Operation(args.workload, scratch)
    tracer = tracing.Tracer() if args.trace else None
    saved = tracing.install(tracer) if tracer else []

    def timed(inp, pause):
        return run_operation(op.run(inp), pause)

    if tracer:
        timed = tracer.traced(tracing.ROOT, timed)

    # host slowdowns, measured before the first segment and after each one
    marks = [] if tracer else [slowdown(kernel, KERNEL_S)]

    def pause():
        if not tracer:
            marks.append(slowdown(kernel, KERNEL_S))

    walls, scaled_walls, rates, scaled_rates, checks, failed = [], [], [], [], [], 0
    try:
        for index, raw in enumerate(inputs):
            # stop at the operation boundary nearest to the budget
            if walls and sum(walls) + walls[-1] / 2 >= args.seconds:
                break
            inp = op.prepare(raw, index)
            if tracer:
                tracer.run = index
            first = len(marks) - 1
            t0 = perf_counter()
            try:
                result, segments = timed(inp, pause)
            except Exception:  # an operation failure is data, not an abort
                # one segment, pauses included, between the operation's ends
                result, segments = None, [(perf_counter() - t0, 0)]
                del marks[first + 1:]
                pause()
                checks.append({"ok": False, "error": traceback.format_exc()})
            finally:
                if tracer:
                    tracer.run = None
            seconds = [t for t, _ in segments]
            walls.append(sum(seconds))
            if not tracer:
                # the stretch after the last yield only returns the result;
                # it takes the slowdown measured at that yield
                seconds_scaled = scaled(seconds, marks[first:] + marks[-1:])
                scaled_walls.append(sum(seconds_scaled))
            if result is None:
                failed += 1
                continue
            work = sum(w for _, w in segments)
            rates.append(work / sum(t for t, w in segments if w))
            if not tracer:
                scaled_rates.append(work / sum(t for t, (_, w) in zip(seconds_scaled, segments) if w))
            ok, details = op.check(inp, result)
            ok = bool(ok)
            failed += not ok
            checks.append(dict(details, ok=ok))
    finally:
        tracing.uninstall(saved)
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = len(walls)
    env = environment(solq)
    if tracer:
        per_op = tracing.per_operation(tracer)
        for values, wall in zip(per_op, walls):
            values["trace.wall_s"] = wall  # the benchmark's timer, not a span
        # an idle layer has no spans and reads 0
        stats = {name: quartiles(values.get(name, 0.0) for values in per_op)
                 for name, _, _ in tracing.PER_LAYER}
        spec = tracing.PER_LAYER
        tracing.write_spans(tracer, OUT / f"{args.workload}-seed{args.seed}-spans.csv")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        stats = {
            "wall_s": quartiles(scaled_walls),
            "setup_s": quartiles(scaled(setup, setup_slow)),
            "peak_rss_mb": quartiles([peak_mb]),
            "work_per_s": quartiles(scaled_rates or [0.0]),
        }
        unscaled = {
            "wall_s": quartiles(walls),
            "setup_s": quartiles(setup),
            "work_per_s": quartiles(rates or [0.0]),
            "host_slowdown": quartiles(marks),
            "setup_slowdown": quartiles(setup_slow),
        }
        spec = END_TO_END
    metrics = {name: {"value": stats[name]["median"], "unit": unit}
               for name, unit, _ in spec}

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "stats": stats,
              "fail_frac": failed / attempted, "walls": walls, "checks": checks,
              "inputs": inputs[:attempted]}
    if not tracer:
        record.update(unscaled=unscaled, host_kernel=kernel, slowdowns=marks,
                      setup_s=setup, setup_slowdowns=setup_slow)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    units = {name: unit for name, unit, _ in spec}
    print(f"# solq benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} operations={attempted}")
    for name, s in stats.items():
        label, unit = name, units[name]
        if name == "work_per_s":
            label, unit = WORK_NAMES[args.workload]
        print(f"{label:48s} median={s['median']:.6g} q1={s['q1']:.6g} "
              f"q3={s['q3']:.6g} n={s['n']} [{unit}]")
    print(f"{'fail_frac':48s} {failed / attempted:.6g} "
          f"({failed}/{attempted}) [1]")
    if not tracer:
        print(f"# timings above are scaled to a quiet host by the {kernel} kernel "
              "(setup_s by the imports kernel); unscaled:")
        for name, s in unscaled.items():
            print(f"#   {name:46s} median={s['median']:.6g} q1={s['q1']:.6g} "
                  f"q3={s['q3']:.6g} n={s['n']}")
    if tracer:
        wall = stats["trace.wall_s"]["median"]
        print(f"# self times per operation sum to {stats['trace.self_sum_s']['median']:.6g} s"
              f" of a traced wall of {wall:.6g} s")
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind so that a running set-up probe is stopped and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return run(args)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
