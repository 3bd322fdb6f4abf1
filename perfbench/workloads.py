"""Workload inputs, timed operations and output checks of the solq benchmark.

Three workloads, each a sequence of operations drawn from the run's seed:

rate_sweep      one `solq steady --scenario fig5a` call per operation, with a
                seeded config (omega, d_min, d_max) and POINTS separations.
                Nearly all of its time is `rate_set` -> `correlation_panel` and
                the PV integral, many separations at one parameter set.
qubit_dynamics  one seeded parameter set (nu, mass_ratio) and separation per
                operation: `validate_report` and SVD steady states, then an
                ensemble of undriven decays and driven build-ups, with the
                Wootters concurrence of every snapshot. Many parameter sets
                with few separations each, the opposite use of the couplings.
gpe_solitons    one seeded soliton chain through `multi_soliton_experiment`
                plus one frozen-soliton impurity solve per operation. Only
                `gpe` and `_kernels` work here.

Work sizes are fixed and the seed only moves parameters the cost depends on
weakly, so runs with different seeds measure nearly the same amount of work.
Every grid is new to the process (the box lengths step by GRID_JITTER per
operation), so `box_background` runs cold in every operation, as it does in
every `solq gpe-*` call.
"""

import contextlib
import functools
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

# Traced calls go through module attributes (cli.main, dynamics.evolve, ...)
# so that the span wrappers installed by tracing.py see them.
from solq import cli, dynamics, entanglement, gpe, scenarios
from solq.bogoliubov import resonant_wavevector
from solq.boundstates import pt_spectrum
from solq.couplings import RateSet
from solq.model import ModelParams, qubit_gap

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "rate_reference.json"

WORKLOADS = ("rate_sweep", "qubit_dynamics", "gpe_solitons")
MAX_OPS = 64           # inputs generated per run; the time budget ends the loop

# rate_sweep: separations lie on the reference grid D_MIN + j * D_STEP
D_MIN = 0.5
D_STEP = 0.05
D_COUNT = 111          # up to d = 6.0
POINTS = 4             # separations per fig5a call
PIN_TOL = 1e-6         # the rate pin tolerance of the test suite

# qubit_dynamics ensemble sizes per operation
N_UNDRIVEN = 64
N_DRIVEN = 64
N_STEADY = 32
SNAPSHOTS = 301
DRIVEN_T_FINAL = 30.0
CONCURRENCE_TOL = 1e-8  # steady formula vs Wootters, as in the acceptance tests
DECAY_TOL = 1e-7       # DOP853 at rtol 1e-10 leaves ~1e-8 by t = 8 when |eta| ~ 2

# gpe_solitons sizes per operation
CHAIN_BOX = 92.0       # fits 24 solitons at spacing 3 xi; 1024 grid points
CHAIN_T_FINAL = 22.5   # the figS3 preset: 100 ms at mu/hbar = 225 rad/s
IMPURITY_BOX = 60.0    # the figS1 preset grid
IMPURITY_POINTS = 2048
GRID_JITTER = 0.01     # box length step between operations (new grid each time)
E0_TOL = 0.01          # impurity ground level vs the analytic ladder


def grid_separation(j: int) -> float:
    return round(D_MIN + j * D_STEP, 10)


def make_inputs(workload: str, seed: int) -> list[dict]:
    """MAX_OPS operation inputs of plain Python numbers; a pure function of the seed."""
    rng = np.random.default_rng(seed)
    make = {"rate_sweep": _rate_input, "qubit_dynamics": _qubit_input,
            "gpe_solitons": _gpe_input}[workload]
    return [make(rng, i) for i in range(MAX_OPS)]


def _rate_input(rng, i):
    stride = int(rng.integers(1, (D_COUNT - 1) // (POINTS - 1) + 1))
    first = int(rng.integers(0, D_COUNT - (POINTS - 1) * stride))
    return {
        "omega": float(rng.uniform(0.1, 1.0)),
        "d_min": grid_separation(first),
        "d_max": grid_separation(first + (POINTS - 1) * stride),
        "points": POINTS,
    }


def _qubit_input(rng, i):
    return {
        "nu": float(rng.uniform(0.55, 0.78)),
        "mass_ratio": float(rng.uniform(1.2, 2.0)),
        "d": float(rng.uniform(2.0, 4.0)),
        # (excited weight p of p|eg><eg| + (1-p)|gg><gg|, final time)
        "undriven": [[float(rng.uniform(0.5, 1.0)), float(rng.uniform(4.0, 8.0))]
                     for _ in range(N_UNDRIVEN)],
        "driven": [float(x) for x in rng.uniform(0.1, 1.0, N_DRIVEN)],
        "steady": [float(x) for x in rng.uniform(0.05, 2.0, N_STEADY)],
    }


def _gpe_input(rng, i):
    return {
        "count": int(rng.integers(16, 25)),
        "spacing": float(rng.uniform(2.3, 3.0)),
        "box_length": CHAIN_BOX + GRID_JITTER * i,
        "t_final": CHAIN_T_FINAL,
        "nu": float(rng.uniform(0.55, 0.78)),
        "mass_ratio": float(rng.uniform(1.2, 2.0)),
        "impurity_box": IMPURITY_BOX + GRID_JITTER * i,
    }


class Operation:
    """One workload operation: `run` is timed, `check` runs after it.

    `run` is a generator. It yields at the end of each segment of the
    operation the work units done in that segment (rows, trajectories or
    simulated time; 0 when the segment is not throughput work), and returns
    the outputs to check right after its last yield. The benchmark pauses at
    each yield to measure the host's speed, so the segments are scaled by the
    speed measured right around them; the pauses are not timed. Segments of
    one to three seconds follow the host's changes of speed best. `check`
    returns (ok, details); details go into the result file.
    """

    def __init__(self, workload: str, out_dir: Path):
        self.workload = workload
        self.out_dir = out_dir
        self.run = getattr(self, "_run_" + workload)
        self.check = getattr(self, "_check_" + workload)

    # rate_sweep ---------------------------------------------------------

    def prepare(self, inp: dict, index: int) -> dict:
        """Untimed per-operation preparation (the config file of rate_sweep)."""
        if self.workload != "rate_sweep":
            return inp
        op_dir = self.out_dir / f"op{index:03d}"
        op_dir.mkdir(parents=True, exist_ok=True)
        config = op_dir / "fig5a.cfg"
        config.write_text(
            "".join(f"{k}={inp[k]!r}\n" for k in ("omega", "d_min", "d_max"))
        )
        return dict(inp, config=str(config), out=str(op_dir))

    def _run_rate_sweep(self, inp):
        argv = ["steady", "--scenario", "fig5a", "--config", inp["config"],
                "--points", str(inp["points"]), "--out", inp["out"]]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        yield inp["points"]
        return {"rc": rc}

    def _check_rate_sweep(self, inp, result):
        if result["rc"] != 0:
            return False, {"rc": result["rc"]}
        csv = (Path(inp["out"]) / "fig5a.csv").read_bytes()
        meta = (Path(inp["out"]) / "fig5a.meta").read_bytes()
        lines = csv.decode().splitlines()
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        ref = reference_table()
        drive = dynamics.DriveParams(omega_rabi=inp["omega"])
        d_expected = np.linspace(inp["d_min"], inp["d_max"], inp["points"])
        worst_pin = worst_conc = 0.0
        rows_ok = len(rows) == inp["points"]
        for (d, big, eta, conc), d_want in zip(rows, d_expected):
            j = int(round((d - D_MIN) / D_STEP))
            on_grid = abs(d - grid_separation(j)) < 1e-9 and abs(d - d_want) < 1e-9
            rows_ok = rows_ok and on_grid and abs(big) <= 1.0
            if not on_grid:
                continue
            for got, want in ((big, ref["Gamma_over_gamma"][j]),
                              (eta, ref["eta_over_gamma"][j])):
                worst_pin = max(worst_pin, abs(got - want) / max(abs(want), 0.01))
            rates = RateSet(gamma=1.0, Gamma_over_gamma=big, eta_over_gamma=eta,
                            d=d, k0=math.nan)
            svd = entanglement.concurrence(dynamics.steady_state(rates, drive).state).value
            worst_conc = max(worst_conc, abs(svd - conc))
        ok = rows_ok and worst_pin < PIN_TOL and worst_conc < CONCURRENCE_TOL
        details = {"csv_sha256": hashlib.sha256(csv).hexdigest(),
                   "meta_sha256": hashlib.sha256(meta).hexdigest(),
                   "rows": len(rows), "rows_bounded_on_grid": rows_ok,
                   "max_pin_dev": worst_pin, "max_svd_vs_formula": worst_conc}
        return ok, details

    # qubit_dynamics -----------------------------------------------------

    def _run_qubit_dynamics(self, inp):
        params = ModelParams(nu=inp["nu"], mass_ratio=inp["mass_ratio"])
        report, valid = scenarios.validate_report(params, d_check=inp["d"])
        rates = RateSet(
            gamma=report["gamma"],
            Gamma_over_gamma=report["Gamma_over_gamma"],
            eta_over_gamma=report["eta_over_gamma"],
            d=inp["d"],
            k0=float(resonant_wavevector(qubit_gap(params))),
        )
        steady = [
            entanglement.concurrence(
                dynamics.steady_state(rates, dynamics.DriveParams(omega_rabi=om)).state
            ).value
            for om in inp["steady"]
        ]
        yield 0
        eg = dynamics.basis_state("eg").matrix
        gg = dynamics.basis_state("gg").matrix
        undriven = []
        for p, t_final in inp["undriven"]:
            rho0 = dynamics.DensityMatrix4(matrix=p * eg + (1.0 - p) * gg)
            traj = dynamics.evolve(rho0, rates, np.linspace(0.0, t_final, SNAPSHOTS))
            undriven.append((traj, [entanglement.concurrence(s).value for s in traj.states]))
        yield len(undriven)
        driven = []
        for omega in inp["driven"]:
            traj = dynamics.evolve(
                dynamics.basis_state("gg"), rates,
                np.linspace(0.0, DRIVEN_T_FINAL, SNAPSHOTS),
                drive=dynamics.DriveParams(omega_rabi=omega),
            )
            driven.append((traj, [entanglement.concurrence(s).value for s in traj.states]))
        yield len(driven)
        return {"valid": valid, "rates": rates, "undriven": undriven,
                "driven": driven, "steady": steady}

    def _check_qubit_dynamics(self, inp, result):
        rates = result["rates"]
        worst_decay = 0.0
        for (p, _), (traj, conc) in zip(inp["undriven"], result["undriven"]):
            formula = p * entanglement.undriven_concurrence_formula(rates, traj.times)
            worst_decay = max(worst_decay, float(np.max(np.abs(np.asarray(conc) - formula))))
        worst_steady = max(
            abs(c - entanglement.steady_concurrence_formula(
                rates, dynamics.DriveParams(omega_rabi=om)))
            for om, c in zip(inp["steady"], result["steady"])
        )
        drift = max(
            abs(np.trace(s.matrix).real - 1.0)
            for traj, _ in result["undriven"] + result["driven"]
            for s in traj.states
        )
        ok = (result["valid"] and abs(rates.Gamma_over_gamma) <= 1.0
              and worst_decay < DECAY_TOL and worst_steady < CONCURRENCE_TOL
              and drift <= dynamics.TRACE_TOL)
        details = {"validate_ok": result["valid"], "max_decay_vs_formula": worst_decay,
                   "max_svd_vs_formula": worst_steady, "max_trace_drift": drift}
        return ok, details

    # gpe_solitons -------------------------------------------------------

    def _run_gpe_solitons(self, inp):
        tracks = gpe.multi_soliton_experiment(
            inp["count"], inp["spacing"], inp["box_length"], inp["t_final"]
        )
        yield inp["t_final"]
        grid = gpe.Grid1D(points=IMPURITY_POINTS, length=inp["impurity_box"],
                          boundary=gpe.Boundary.BOX)
        soliton = gpe.imprint_solitons(grid, [0.0])
        yield 0
        params = ModelParams(nu=inp["nu"], mass_ratio=inp["mass_ratio"])
        states = gpe.relax_impurity(soliton, params)
        yield 0
        return {"tracks": tracks, "states": states, "params": params}

    def _check_gpe_solitons(self, inp, result):
        tracks = result["tracks"]
        pos = tracks.positions
        cores_ok = (tracks.lost_at is None and pos.shape[1] == inp["count"]
                    and bool(np.all(np.diff(pos, axis=1) > 0.0)))
        energies = result["states"].energies
        ladder = pt_spectrum(result["params"]).energies
        e0_dev = abs(energies[0] / ladder[0] - 1.0)
        details = {
            "frames": int(pos.shape[0]),
            "cores_found_and_ordered": cores_ok,
            "max_core_displacement": float(np.max(tracks.displacements)),
            "e0_rel_dev": e0_dev,
            # recorded, not checked: the known first-excited-level deviation
            # (acceptance 7) of the relaxed orbital against the analytic ladder
            "e1_numeric": energies[1],
            "e1_bound": bool(result["states"].bound[1]),
            "e1_analytic": ladder[1] if len(ladder) > 1 else None,
        }
        return cores_ok and e0_dev <= E0_TOL, details


@functools.cache
def reference_table() -> dict:
    return json.loads(REFERENCE_PATH.read_text())
