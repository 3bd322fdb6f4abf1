"""Command-line entry point: scenario runners and parameter validation.

Usage pattern:

    solq rates --out results/
    solq steady --scenario fig5b --points 401 --out results/
    solq validate --config params.cfg

Config files are flat key=value lines ('#' starts a comment). Model keys
(nu, mass_ratio, n0_xi, wannier_convention) plus the scenario-specific
settings listed in `--help` for each subcommand.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from .model import ModelParams
from .scenarios import (
    PRESETS, Scenario, format_value, parse_value, run_scenario, validate_report,
)

MODEL_KEYS = tuple(f.name for f in dataclasses.fields(ModelParams))

COMMAND_SCENARIOS = {
    "rates": ("fig2",),
    "decay": ("fig3a", "fig3b"),
    "driven": ("fig4",),
    "steady": ("fig5b", "fig5a"),
    "gpe-boundstates": ("figS1",),
    "gpe-multisoliton": ("figS3",),
}


def parse_config(path: str) -> dict:
    """key=value lines; '#' comments; later keys win."""
    out = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _model_value(key: str, value: str):
    """One model key's value: wannier_convention is a name, every other key a number."""
    return parse_value(key, value, str if key == "wannier_convention" else float)


def _split_config(cfg: dict) -> tuple[dict, dict]:
    """Partition config entries into model kwargs and scenario settings."""
    model_kwargs = {k: _model_value(k, v) for k, v in cfg.items() if k in MODEL_KEYS}
    settings = {k: v for k, v in cfg.items() if k not in MODEL_KEYS}
    return model_kwargs, settings


def _add_common(sub: argparse.ArgumentParser, scenarios) -> None:
    sub.add_argument(
        "--scenario", choices=scenarios, default=scenarios[0],
        help=f"preset to run (default {scenarios[0]})",
    )
    sub.add_argument("--config", help="key=value parameter file")
    sub.add_argument("--out", default=".", help="output directory (default .)")
    sub.add_argument("--points", type=int, help="override sweep/grid resolution")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solq",
        description="Soliton-qubit dissipative entanglement datasets",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "rates": "collective emission rates vs qubit separation",
        "decay": "undriven decay of the one-excitation state",
        "driven": "driven time evolution from the ground state",
        "steady": "driven steady-state concurrence sweeps",
        "gpe-boundstates": "impurity orbitals in a frozen soliton",
        "gpe-multisoliton": "soliton-chain stability in a box",
    }
    for command, scenarios in COMMAND_SCENARIOS.items():
        sub = subparsers.add_parser(command, help=descriptions[command])
        _add_common(sub, scenarios)
        settable = sorted({k for s in scenarios for k in PRESETS[s].settings})
        if settable:
            sub.epilog = "config keys: " + ", ".join(MODEL_KEYS + tuple(settable))
    val = subparsers.add_parser("validate", help="parameter regime report")
    val.add_argument("--config", help="key=value parameter file")
    val.add_argument("--d", type=float, default=2.5, help="probe separation")
    return parser


def _run_dataset(args) -> int:
    cfg = parse_config(args.config) if args.config else {}
    model_kwargs, settings = _split_config(cfg)
    params = ModelParams(**model_kwargs)
    scenario = Scenario(
        name=args.scenario,
        params=params,
        settings=settings,
        out_dir=Path(args.out),
        points=args.points,
    )
    paths = run_scenario(scenario)
    print("wrote " + " ".join(str(p) for p in paths))
    return 0


def _run_validate(args) -> int:
    cfg = parse_config(args.config) if args.config else {}
    model_kwargs, others = _split_config(cfg)
    if others:
        raise ValueError(f"config key {next(iter(others))!r} is not a model parameter")
    params = ModelParams(**model_kwargs)
    report, ok = validate_report(params, d_check=args.d)
    for key, value in report.items():
        print(f"{key}={format_value(value)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return _run_validate(args)
        return _run_dataset(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
