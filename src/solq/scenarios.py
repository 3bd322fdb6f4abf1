"""Named scenario presets and deterministic dataset writers.

Each preset regenerates one figure-style dataset as a CSV plus a `.meta`
sidecar (key=value: parameters, column names, tool version; never
timestamps, so reruns are byte-identical). Scenario names follow the figure
layout of the reference experiment set (fig2, fig3a, ... figS3) because
that is how users ask for them. `PRESETS` declares each preset's settings
once; `Scenario` checks a caller's settings against it.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .boundstates import pt_spectrum
from .couplings import rate_set, rwa_report, RateSet
from .dynamics import DriveParams, basis_state, dicke_transform, evolve
from .entanglement import (
    concurrence,
    steady_concurrence_formula,
    undriven_concurrence_formula,
)
from .gpe import Boundary, Grid1D, imprint_solitons, multi_soliton_experiment, relax_impurity
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
        if self.points is None:
            self.points = preset.points
        elif self.points < 1:
            raise ValueError(f"--points must be at least 1, got {self.points}")
        settings = dict(preset.settings)
        for key, value in self.settings.items():
            if key not in settings:
                raise ValueError(f"config key {key!r} is not used by scenario {self.name}")
            settings[key] = parse_value(key, value, type(settings[key]))
        self.settings = settings
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


def _sweep(fn, values, threads):
    if threads <= 1 or len(values) <= 1:
        return [fn(v) for v in values]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, values))


def _rates_for(sc: Scenario, d_values) -> list[RateSet]:
    return _sweep(lambda d: rate_set(d, sc.params), d_values, os.cpu_count() or 1)


def run_scenario(sc: Scenario) -> list[Path]:
    """Build the dataset for one preset; returns the written file paths."""
    sc.out_dir.mkdir(parents=True, exist_ok=True)
    return PRESETS[sc.name].build(sc)


def _emit(sc: Scenario, header, rows, extra_meta=None) -> list[Path]:
    csv_path = sc.out_dir / f"{sc.name}.csv"
    meta_path = sc.out_dir / f"{sc.name}.meta"
    write_csv(csv_path, header, rows)
    meta = _base_meta(sc, header)
    if extra_meta:
        meta.update(extra_meta)
    write_meta(meta_path, meta)
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


def _time_grid(sc: Scenario) -> np.ndarray:
    """points times evenly spaced over [0, t_final], checked as the user gave them."""
    t_final = sc.settings["t_final"]
    if sc.points < 2:
        raise ValueError(f"--points must be at least 2 for a time series, got {sc.points}")
    if t_final <= 0.0:
        raise ValueError(f"config key 't_final' must be positive, got {t_final!r}")
    return np.linspace(0.0, t_final, sc.points)


def _decay_concurrence(sc, d_list, t_grid):
    """Evolved and closed-form concurrence for the one-excitation start."""
    state0 = basis_state("eg")
    numeric = []
    formula = []
    for d in d_list:
        r = rate_set(d, sc.params)
        traj = evolve(state0, r, t_grid)
        numeric.append([concurrence(s).value for s in traj.states])
        formula.append(undriven_concurrence_formula(r, t_grid))
    return numeric, formula


def _build_fig3a(sc: Scenario) -> list[Path]:
    """Entanglement decay after exciting one qubit, d = 1 and 2.5."""
    t_final = sc.settings["t_final"]
    t_grid = _time_grid(sc)
    d_list = (1.0, 2.5)
    numeric, formula = _decay_concurrence(sc, d_list, t_grid)
    header = [
        "t_gamma",
        "concurrence_d_1xi",
        "concurrence_d_2p5xi",
        "formula_d_1xi",
        "formula_d_2p5xi",
    ]
    rows = list(zip(t_grid, numeric[0], numeric[1], formula[0], formula[1]))
    return _emit(sc, header, rows, {"initial_state": "eg", "t_final": t_final})


def _build_fig3b(sc: Scenario) -> list[Path]:
    """Collective-basis populations during the same decay."""
    t_final, d = sc.settings["t_final"], sc.settings["d"]
    t_grid = _time_grid(sc)
    r = rate_set(d, sc.params)
    traj = evolve(basis_state("eg"), r, t_grid)
    header = ["t_gamma", "rho_ee", "rho_ss", "rho_aa", "rho_gg", "concurrence"]
    dicke = dicke_transform(np.array([state.matrix for state in traj.states]))
    pops = np.diagonal(dicke, axis1=1, axis2=2).real
    conc = [concurrence(state).value for state in traj.states]
    rows = [(t, *p, c) for t, p, c in zip(t_grid, pops.tolist(), conc)]
    return _emit(sc, header, rows, {"initial_state": "eg", "d": d, "t_final": t_final})


def _build_fig4(sc: Scenario) -> list[Path]:
    """Driven build-up of concurrence from the ground state."""
    d, initial = sc.settings["d"], sc.settings["initial_state"]
    omegas = (sc.settings["omega_1"], sc.settings["omega_2"])
    header = ["t_gamma"] + [f"concurrence_omega_{format_value(om)}" for om in omegas]
    if header[1] == header[2]:
        raise ValueError(f"omega_1 and omega_2 give one column name, {header[1]}")
    t_grid = _time_grid(sc)
    r = rate_set(d, sc.params)
    cols = []
    for om in omegas:
        traj = evolve(basis_state(initial), r, t_grid, drive=DriveParams(omega_rabi=om))
        cols.append([concurrence(s).value for s in traj.states])
    rows = list(zip(t_grid, cols[0], cols[1]))
    return _emit(
        sc, header, rows,
        {"initial_state": initial, "d": d, "omega_1": omegas[0], "omega_2": omegas[1]},
    )


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
    return _emit(sc, header, rows, {"omega": omega, "d_min": d_min, "d_max": d_max})


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
        {
            "d": d, "omega_max": omega_max,
            "Gamma_over_gamma": r.Gamma_over_gamma,
            "eta_over_gamma": r.eta_over_gamma,
        },
    )


def _build_figS1(sc: Scenario) -> list[Path]:
    """Impurity orbitals in a single frozen soliton, against the analytic ladder."""
    length = sc.settings["box_length"]
    grid = Grid1D(points=sc.points, length=length, boundary=Boundary.BOX)
    sol = imprint_solitons(grid, [0.0])
    states = relax_impurity(sol, sc.params)
    ladder = pt_spectrum(sc.params)
    header = ["x_xi", "soliton_density", "phi0", "phi1"]
    rows = list(
        zip(grid.x, sol.density(), states.phi0.psi.real, states.phi1.psi.real)
    )
    extra = {
        "box_length": length,
        "grid_points": sc.points,
        "energy_0": states.energies[0],
        "energy_1": states.energies[1],
        "bound_0": states.bound[0],
        "bound_1": states.bound[1],
        "analytic_energy_0": ladder.energies[0] if ladder.count > 0 else float("nan"),
        "analytic_energy_1": ladder.energies[1] if ladder.count > 1 else float("nan"),
        "analytic_count": ladder.count,
    }
    return _emit(sc, header, rows, extra)


def _build_figS3(sc: Scenario) -> list[Path]:
    """Soliton-chain stability run in a box, with the physical mapping used
    to size it recorded alongside."""
    count, spacing, box_length, t_final = (
        sc.settings[k] for k in ("count", "spacing", "box_length", "t_final")
    )
    tracks = multi_soliton_experiment(
        count, spacing, box_length, t_final, points=sc.points
    )
    header = ["t_mu"] + [f"x_{j + 1}" for j in range(count)]
    rows = [
        (tracks.times[i], *tracks.positions[i]) for i in range(len(tracks.times))
    ]
    extra = {
        "count": count,
        "spacing": spacing,
        "box_length": box_length,
        "t_final": t_final,
        "xi_um": FIGS3_XI_UM,
        "mu_rad_per_s": FIGS3_MU_RAD_S,
        "box_length_um": box_length * FIGS3_XI_UM,
        "t_final_ms": t_final / FIGS3_MU_RAD_S * 1e3,
        "lost_at": tracks.lost_at if tracks.lost_at is not None else "none",
    }
    return _emit(sc, header, rows, extra)


class Preset(NamedTuple):
    """One dataset: its builder, default --points and settings; each
    setting's default also fixes the type its values are parsed to."""

    build: Callable[[Scenario], list[Path]]
    points: int | None  # None: the builder sizes its own grid
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
    "figS1": Preset(_build_figS1, 2048, {"box_length": 60.0}),
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
    rep = rwa_report(params)
    report = {
        "nu": params.nu,
        "mass_ratio": params.mass_ratio,
        "level_count": ladder.count,
        "qubit_window": "pass" if ladder.qubit_window else "fail",
        "omega0": qubit_gap(params),
    }
    ok = ladder.qubit_window
    if rep.valid:
        report["gamma"] = rep.gamma
        report["gamma_over_omega0"] = rep.gamma_over_omega0
        report["g01_abs"] = rep.g01_abs
        report["g00_over_g01"] = rep.g00_over_g01
        report["g11_over_g01"] = rep.g11_over_g01
        report["rwa_valid"] = "pass" if rep.gamma_over_omega0 < 1.0 else "fail"
        ok = ok and rep.gamma_over_omega0 < 1.0
        r = rate_set(d_check, params)
        report["d_check"] = d_check
        report["Gamma_over_gamma"] = r.Gamma_over_gamma
        report["eta_over_gamma"] = r.eta_over_gamma
        bounded = abs(r.Gamma_over_gamma) <= 1.0 + 1e-9
        report["rates_bounded"] = "pass" if bounded else "fail"
        ok = ok and bounded
    else:
        report["rwa_valid"] = "fail"
        ok = False
    return report, ok
