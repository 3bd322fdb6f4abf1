"""Named scenario presets and deterministic dataset writers.

Each preset regenerates one figure-style dataset as a CSV plus a `.meta`
sidecar (key=value: parameters, column names, tool version; never
timestamps, so reruns are byte-identical). Scenario names follow the figure
layout of the reference experiment set (fig2, fig3a, ... figS3) because
that is how users ask for them. `PRESETS` declares each preset's settings
once; `Scenario` checks a caller's settings against it.
"""

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .boundstates import pt_spectrum
from .couplings import rate_set, rwa_report, RateSet
from .dynamics import GAMMA_RATIO_MAX, DriveParams, basis_state, dicke_transform, evolve
from .entanglement import steady_concurrence_formula, undriven_concurrence_formula
from .gpe import (
    Grid1D, fitted_points, imprint_solitons, multi_soliton_experiment, relax_impurity,
)
from .model import ModelParams, qubit_gap

# Physical anchor for the box experiment write-up: a 1.3 um healing length
# and mu/hbar = 225 rad/s (an erbium-mass atom at this healing length) make
# the 100 um box 76.92 xi and 100 ms -> t = 22.5.
FIGS3_XI_UM = 1.3
FIGS3_MU_RAD_S = 225.0


@dataclass
class Scenario:
    name: str
    params: ModelParams = field(default_factory=ModelParams)
    settings: dict = field(default_factory=dict)
    out_dir: Path = Path(".")
    points: int | None = None

    def __post_init__(self):
        """Fill in the preset's defaults and give every setting its default's type."""
        preset = PRESETS.get(self.name)
        if preset is None:
            raise ValueError(
                f"unknown scenario {self.name!r}; choose from {', '.join(PRESETS)}"
            )
        settings = dict(preset.settings)
        for key, value in self.settings.items():
            if key not in settings:
                raise ValueError(f"config key {key!r} is not used by scenario {self.name}")
            settings[key] = parse_value(key, value, type(settings[key]))
        self.settings = settings
        if self.points is None:
            self.points = preset.points or fitted_points(settings["box_length"])
        elif self.points < 1:
            raise ValueError(f"--points must be at least 1, got {self.points}")
        self.out_dir = Path(self.out_dir)


def parse_value(key: str, value, kind=float):
    """A config value as kind: a str as given, a float or int as a finite number."""
    if kind is str:
        return str(value)
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"config key {key!r} needs a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"config key {key!r} must be finite, got {value!r}")
    if kind is int and not number.is_integer():
        raise ValueError(f"config key {key!r} needs an integer, got {value!r}")
    return kind(number)


def format_value(v) -> str:
    if isinstance(v, float):
        return "%.12g" % v
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_meta(path: Path, entries: dict) -> None:
    lines = [f"{k}={format_value(v)}" for k, v in entries.items()]
    path.write_text("\n".join(lines) + "\n")


def _base_meta(sc: Scenario, columns) -> dict:
    p = sc.params
    return {
        "scenario": sc.name,
        "version": __version__,
        "nu": p.nu,
        "mass_ratio": p.mass_ratio,
        "n0_xi": p.n0_xi,
        "wannier_convention": p.wannier_convention.value,
        "columns": ";".join(columns),
    }


@functools.cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's sweep workers, started at the first parallel sweep."""
    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="solq-sweep")


def _sweep(fn, values, threads):
    """[fn(v) for v in values] on `threads` threads: the values split into
    contiguous chunks, the caller runs the first and the persistent pool of
    threads - 1 workers the rest. The first error in input order is raised,
    and only once every chunk has finished.

    A warm separation costs about 30 us, so the threads do not pay; they stay
    because perfbench asserts that some `rate_set` spans run off the caller's
    thread. ROADMAP item 4 deletes them once the benchmark change (item 3)
    drops that assertion.
    """
    if threads <= 1 or len(values) <= 1:
        return [fn(v) for v in values]
    n = min(threads, len(values))
    cuts = [len(values) * i // n for i in range(n + 1)]
    chunks = [values[a:b] for a, b in zip(cuts, cuts[1:])]

    def run(chunk):
        return [fn(v) for v in chunk]

    pool, futures = _pool(threads - 1), []
    try:
        for chunk in chunks[1:]:
            futures.append(pool.submit(run, chunk))
        out = run(chunks[0])
    finally:
        wait(futures)
    for future in futures:
        out += future.result()
    return out


def _rates_for(sc: Scenario, d_values) -> list[RateSet]:
    return _sweep(lambda d: rate_set(d, sc.params), d_values, os.cpu_count() or 1)


def run_scenario(sc: Scenario) -> list[Path]:
    """Build the dataset for one preset; returns the written file paths."""
    sc.out_dir.mkdir(parents=True, exist_ok=True)
    return PRESETS[sc.name].build(sc)


def _emit(sc: Scenario, header, rows, derived=None) -> list[Path]:
    """Write the CSV and its `.meta`: the model and columns, the points, every
    setting in `PRESETS` order, then the builder's derived keys."""
    csv_path = sc.out_dir / f"{sc.name}.csv"
    meta_path = sc.out_dir / f"{sc.name}.meta"
    write_csv(csv_path, header, rows)
    write_meta(meta_path, {
        **_base_meta(sc, header), "points": sc.points, **sc.settings, **(derived or {}),
    })
    return [csv_path, meta_path]


def _build_fig2(sc: Scenario) -> list[Path]:
    """Collective rates vs separation: d in [0, 10]."""
    d_values = np.linspace(0.0, 10.0, sc.points)
    rates = _rates_for(sc, d_values)
    header = ["d_xi", "gamma", "Gamma_over_gamma", "eta_over_gamma"]
    rows = [
        (r.d, r.gamma, r.Gamma_over_gamma, r.eta_over_gamma) for r in rates
    ]
    return _emit(sc, header, rows, {"d_min": 0.0, "d_max": 10.0})


def _time_series(sc: Scenario, d: float, initial: str, drive=DriveParams()):
    """Rates at d, the trajectory from `initial` at points times evenly spaced
    over [0, t_final] (checked as the user gave them), and its concurrences."""
    t_final = sc.settings["t_final"]
    if sc.points < 2:
        raise ValueError(f"--points must be at least 2 for a time series, got {sc.points}")
    if t_final <= 0.0:
        raise ValueError(f"config key 't_final' must be positive, got {t_final!r}")
    r = rate_set(d, sc.params)
    traj = evolve(basis_state(initial), r, np.linspace(0.0, t_final, sc.points), drive)
    return r, traj, [s.concurrence for s in traj.states]


def _build_fig3a(sc: Scenario) -> list[Path]:
    """Entanglement decay after exciting one qubit, d = 1 and 2.5."""
    (r_1, traj, c_1), (r_2p5, _, c_2p5) = (_time_series(sc, d, "eg") for d in (1.0, 2.5))
    header = [
        "t_gamma",
        "concurrence_d_1xi",
        "concurrence_d_2p5xi",
        "formula_d_1xi",
        "formula_d_2p5xi",
    ]
    t = traj.times
    rows = list(zip(t, c_1, c_2p5, undriven_concurrence_formula(r_1, t),
                    undriven_concurrence_formula(r_2p5, t)))
    return _emit(sc, header, rows, {"initial_state": "eg"})


def _build_fig3b(sc: Scenario) -> list[Path]:
    """Collective-basis populations during the same decay."""
    _, traj, conc = _time_series(sc, sc.settings["d"], "eg")
    header = ["t_gamma", "rho_ee", "rho_ss", "rho_aa", "rho_gg", "concurrence"]
    dicke = dicke_transform(np.array([state.matrix for state in traj.states]))
    pops = np.diagonal(dicke, axis1=1, axis2=2).real
    rows = [(t, *p, c) for t, p, c in zip(traj.times, pops.tolist(), conc)]
    return _emit(sc, header, rows, {"initial_state": "eg"})


def _build_fig4(sc: Scenario) -> list[Path]:
    """Driven build-up of concurrence from the ground state."""
    d, initial = sc.settings["d"], sc.settings["initial_state"]
    omegas = (sc.settings["omega_1"], sc.settings["omega_2"])
    header = ["t_gamma"] + [f"concurrence_omega_{format_value(om)}" for om in omegas]
    if header[1] == header[2]:
        raise ValueError(f"omega_1 and omega_2 give one column name, {header[1]}")
    (_, traj, c_1), (_, _, c_2) = (
        _time_series(sc, d, initial, DriveParams(omega_rabi=om)) for om in omegas
    )
    rows = list(zip(traj.times, c_1, c_2))
    return _emit(sc, header, rows)


def _build_fig5a(sc: Scenario) -> list[Path]:
    """Steady concurrence vs separation at fixed drive."""
    omega, d_min, d_max = (sc.settings[k] for k in ("omega", "d_min", "d_max"))
    d_values = np.linspace(d_min, d_max, sc.points)
    rates = _rates_for(sc, d_values)
    drive = DriveParams(omega_rabi=omega)
    header = ["d_xi", "Gamma_over_gamma", "eta_over_gamma", "concurrence_steady"]
    rows = [
        (r.d, r.Gamma_over_gamma, r.eta_over_gamma, steady_concurrence_formula(r, drive))
        for r in rates
    ]
    return _emit(sc, header, rows)


def _build_fig5b(sc: Scenario) -> list[Path]:
    """Steady concurrence vs drive strength at one separation."""
    d, omega_max = sc.settings["d"], sc.settings["omega_max"]
    omegas = np.linspace(0.0, omega_max, sc.points)
    r = rate_set(d, sc.params)
    header = ["omega_over_gamma", "concurrence_steady"]
    rows = [
        (om, steady_concurrence_formula(r, DriveParams(omega_rabi=om))) for om in omegas
    ]
    return _emit(
        sc, header, rows,
        {"Gamma_over_gamma": r.Gamma_over_gamma, "eta_over_gamma": r.eta_over_gamma},
    )


def _build_figS1(sc: Scenario) -> list[Path]:
    """Impurity orbitals in a single frozen soliton, against the analytic ladder."""
    grid = Grid1D(points=sc.points, length=sc.settings["box_length"])
    sol = imprint_solitons(grid, [0.0])
    states = relax_impurity(sol, sc.params)
    ladder = pt_spectrum(sc.params)
    header = ["x_xi", "soliton_density", "phi0", "phi1"]
    rows = list(zip(grid.x, sol.density(), states.phi0, states.phi1))
    return _emit(sc, header, rows, {
        "energy_0": states.energies[0],
        "energy_1": states.energies[1],
        "bound_0": states.bound[0],
        "bound_1": states.bound[1],
        "analytic_energy_0": ladder.energies[0],
        "analytic_energy_1": ladder.energies[1] if ladder.count > 1 else float("nan"),
        "analytic_count": ladder.count,
    })


def _build_figS3(sc: Scenario) -> list[Path]:
    """Soliton-chain stability run in a box, with the physical mapping used
    to size it recorded alongside."""
    count, spacing, box_length, t_final = (
        sc.settings[k] for k in ("count", "spacing", "box_length", "t_final")
    )
    tracks = multi_soliton_experiment(count, spacing, box_length, t_final, points=sc.points)
    header = ["t_mu"] + [f"x_{j + 1}" for j in range(count)]
    rows = [
        (tracks.times[i], *tracks.positions[i]) for i in range(len(tracks.times))
    ]
    return _emit(sc, header, rows, {
        "xi_um": FIGS3_XI_UM,
        "mu_rad_per_s": FIGS3_MU_RAD_S,
        "box_length_um": box_length * FIGS3_XI_UM,
        "t_final_ms": t_final / FIGS3_MU_RAD_S * 1e3,
        "lost_at": tracks.lost_at if tracks.lost_at is not None else "none",
    })


class Preset(NamedTuple):
    """One dataset: its builder, default --points and settings; each
    setting's default also fixes the type its values are parsed to."""

    build: Callable[[Scenario], list[Path]]
    points: int | None  # None: the GPE grid rule sizes it from box_length
    settings: dict


PRESETS = {
    "fig2": Preset(_build_fig2, 200, {}),
    "fig3a": Preset(_build_fig3a, 301, {"t_final": 6.0}),
    "fig3b": Preset(_build_fig3b, 301, {"t_final": 6.0, "d": 2.5}),
    "fig4": Preset(_build_fig4, 301, {
        "t_final": 30.0, "d": 2.5, "omega_1": 0.25, "omega_2": 0.35, "initial_state": "gg",
    }),
    "fig5a": Preset(_build_fig5a, 120, {"omega": 0.35, "d_min": 0.5, "d_max": 6.0}),
    "fig5b": Preset(_build_fig5b, 201, {"d": 2.5, "omega_max": 2.0}),
    "figS1": Preset(_build_figS1, None, {"box_length": 60.0}),
    "figS3": Preset(_build_figS3, None, {
        "count": 24, "spacing": 2.5,
        "box_length": 100.0 / FIGS3_XI_UM, "t_final": 0.100 * FIGS3_MU_RAD_S,
    }),
}


def validate_report(params: ModelParams, d_check: float = 2.5) -> tuple[dict, bool]:
    """Aggregate parameter checks; returns (report dict, all-pass flag).

    Pass/fail keys: qubit_window (exactly two bound orbitals), rwa_valid
    (a nonzero coupling, a positive gap and gamma/omega0 < 1), rates_bounded
    (|Gamma| <= gamma at the probe separation). The amplitude ratios
    g00_over_g01 and g11_over_g01 are printed but not gated; gating them waits
    for the benchmark's seeded parameter box to meet the hierarchy.
    """
    ladder = pt_spectrum(params)
    report = {
        "nu": params.nu,
        "mass_ratio": params.mass_ratio,
        "level_count": ladder.count,
        "qubit_window": "pass" if ladder.qubit_window else "fail",
        "omega0": qubit_gap(params),
    }
    if report["omega0"] <= 0.0:
        report["rwa_valid"] = "fail"
        return report, False
    rep = rwa_report(params)
    report.update(asdict(rep))
    rwa_valid = rep.gamma_over_omega0 < 1.0
    report["rwa_valid"] = "pass" if rwa_valid else "fail"
    r = rate_set(d_check, params)
    report["d_check"] = d_check
    report["Gamma_over_gamma"] = r.Gamma_over_gamma
    report["eta_over_gamma"] = r.eta_over_gamma
    bounded = abs(r.Gamma_over_gamma) <= GAMMA_RATIO_MAX
    report["rates_bounded"] = "pass" if bounded else "fail"
    return report, ladder.qubit_window and rwa_valid and bounded
