import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import solq
from solq import cli, scenarios
from solq.cli import COMMANDS, build_parser, main, parse_config
from solq.couplings import _table, rate_set
from solq.dynamics import DriveParams
from solq.gpe import Grid1D, multi_soliton_experiment
from solq.model import ModelParams
from solq.scenarios import PRESETS, Scenario, format_value, parse_value


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


def read_meta(path):
    out = {}
    for line in path.read_text().splitlines():
        key, value = line.split("=", 1)
        out[key] = value
    return out


def test_parse_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "nu = 0.8   # trailing comment\n"
        "\n"
        "d=2.0\n"
        "d=3.0\n"
    )
    parsed = parse_config(str(cfg))
    assert parsed == {"nu": "0.8", "d": "3.0"}


def test_parse_config_rejects_malformed_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nu=0.8\njust words\n")
    with pytest.raises(ValueError, match="bad.cfg:2: expected key=value"):
        parse_config(str(cfg))


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus=1\n")
    code = main(["rates", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "bogus" in err


@pytest.mark.parametrize(
    ("argv", "text", "needle"),
    [
        (["validate"], "d=2.0\n", "'d' is not a model parameter"),
        (["validate"], "nu=abc\n", "'nu' needs a number"),
        (["rates"], "nu=abc\n", "'nu' needs a number"),
        (["decay"], "t_final=abc\n", "'t_final' needs a number, got 'abc'"),
        (["gpe-multisoliton"], "count=2.5\n", "'count' needs an integer, got '2.5'"),
        # non-finite input stops where it enters, not as a traceback, a
        # failed regime check or a column of zeros
        (["validate"], "n0_xi=inf\n", "'n0_xi' must be finite"),
        (["validate"], "nu=inf\n", "'nu' must be finite"),
        (["validate", "--d", "nan"], "", "d must be finite"),
        (["steady", "--scenario", "fig5b"], "d=nan\n", "'d' must be finite"),
        (["steady", "--scenario", "fig5a"], "omega=nan\n", "'omega' must be finite"),
        (["gpe-boundstates"], "box_length=nan\n", "'box_length' must be finite"),
        (["validate"], "wannier_convention=doubled\n", "'doubled' is not a valid"),
        # two drives that agree to 12 digits would name one column twice
        (["driven"], "omega_1=0.35\nomega_2=0.3500000000001\n",
         "omega_1 and omega_2 give one column name"),
        # a time series names the flag or key it needs, not the t_grid it builds
        (["decay", "--points", "1"], "", "--points must be at least 2"),
        (["driven", "--points", "1"], "", "--points must be at least 2"),
        (["decay"], "t_final=-2\n", "'t_final' must be positive, got -2.0"),
        (["driven"], "t_final=0\n", "'t_final' must be positive, got 0.0"),
        (["rates", "--points", "0"], "", "--points must be at least 1, got 0"),
        (["rates", "--points", "-3"], "", "--points must be at least 1, got -3"),
        # the imprint sorts the cores, so a negative spacing would run the
        # mirrored chain while the .meta keeps the sign; 0 stacks the cores
        (["gpe-multisoliton"], "spacing=-2.5\n", "spacing must be positive, got -2.5"),
        (["gpe-multisoliton"], "spacing=0\n", "spacing must be positive, got 0.0"),
    ],
)
def test_bad_config_value_exits_2(tmp_path, monkeypatch, capsys, argv, text, needle):
    monkeypatch.chdir(tmp_path)  # a dataset command would write here
    (tmp_path / "run.cfg").write_text(text)
    code = main(argv + ["--config", "run.cfg"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1
    assert needle in captured.err
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize(
    "make",
    [
        lambda: ModelParams(nu=float("inf")),
        lambda: ModelParams(mass_ratio=float("nan")),
        lambda: ModelParams(n0_xi=float("inf")),
        lambda: rate_set(float("nan"), ModelParams()),
        lambda: DriveParams(omega_rabi=float("nan")),
        lambda: Grid1D(points=2048, length=float("nan")),
        lambda: Scenario("fig5a", settings={"omega": float("nan")}),
        lambda: multi_soliton_experiment(1, 2.5, float("inf"), 1.0),
    ],
)
def test_library_rejects_nonfinite_input(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def test_scenario_settings_are_checked_and_typed():
    with pytest.raises(ValueError, match="'t_fnal' is not used by scenario fig3a"):
        Scenario("fig3a", settings={"t_fnal": 2.0})
    sc = Scenario("figS3", settings={"count": "3", "spacing": "8"})
    assert sc.settings["count"] == 3 and isinstance(sc.settings["count"], int)
    assert sc.settings["spacing"] == 8.0 and isinstance(sc.settings["spacing"], float)
    # each GPE preset's default grid is the fewest points the grid rule allows
    assert sc.settings["t_final"] == 22.5 and sc.points == 1024
    assert Scenario("figS1").points == 512
    fig4 = Scenario("fig4", settings={"initial_state": "eg"})
    assert fig4.settings["initial_state"] == "eg" and fig4.points == 301


@pytest.mark.parametrize(
    ("command", "keys"),
    [
        ("rates", None),
        ("decay", "d, t_final"),
        ("driven", "d, initial_state, omega_1, omega_2, t_final"),
        ("steady", "d, d_max, d_min, omega, omega_max"),
        ("gpe-boundstates", "box_length"),
        ("gpe-multisoliton", "box_length, count, spacing, t_final"),
    ],
)
def test_help_lists_each_commands_config_keys(monkeypatch, capsys, command, keys):
    monkeypatch.setenv("COLUMNS", "400")  # one epilog line
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("config keys:")]
    if keys is None:
        assert lines == []
    else:
        model = "nu, mass_ratio, n0_xi, wannier_convention"
        assert lines == [f"config keys: {model}, {keys}"]


def test_cli_import_leaves_out_scipy():
    code = "import sys, solq.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(Path(solq.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("command", COMMANDS)
def test_command_table_sets_defaults_and_choices(capsys, command):
    presets = COMMANDS[command][1]
    assert build_parser().parse_args([command]).scenario == presets[0]
    for name in PRESETS:
        if name in presets:
            assert build_parser().parse_args([command, "--scenario", name]).scenario == name
        else:
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--scenario", name])


def test_command_table_pins():
    assert COMMANDS["steady"][1][0] == "fig5b"
    assert COMMANDS["decay"][1][0] == "fig3a"
    # every preset is reachable from exactly one command
    named = [name for _, presets in COMMANDS.values() for name in presets]
    assert sorted(named) == sorted(PRESETS)


def test_config_model_keys_reach_the_dataset(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nu=0.7\nmass_ratio=1.4\nn0_xi=40\nwannier_convention=eigenstate\n")
    code = main(["rates", "--points", "2", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    meta = read_meta(tmp_path / "fig2.meta")
    assert (meta["nu"], meta["mass_ratio"], meta["n0_xi"], meta["wannier_convention"]) == (
        "0.7", "1.4", "40", "eigenstate")
    params = ModelParams(nu=0.7, mass_ratio=1.4, n0_xi=40.0, wannier_convention="eigenstate")
    gamma = (tmp_path / "fig2.csv").read_text().splitlines()[1].split(",")[1]
    assert gamma == format_value(rate_set(0.0, params).gamma)
    assert gamma != format_value(rate_set(0.0, ModelParams()).gamma)


def test_bad_scenario_choice_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["steady", "--scenario", "fig2"])
    assert exc.value.code == 2


def test_validate_defaults_pass(capsys):
    code = main(["validate"])
    out = capsys.readouterr().out
    assert code == 0
    report = dict(line.split("=", 1) for line in out.splitlines())
    assert report["qubit_window"] == "pass"
    assert report["rwa_valid"] == "pass"
    assert report["rates_bounded"] == "pass"
    assert report["level_count"] == "2"
    assert abs(float(report["omega0"]) - 0.16025641025641024) < 1e-12


@pytest.mark.parametrize("nu", ["0.4", "0.5"])
def test_validate_without_a_gap_stops_at_rwa(tmp_path, capsys, nu):
    # omega0 <= 0 (nu <= 1/2): no rates to report, and the gap check fails
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"nu={nu}\n")
    code = main(["validate", "--config", str(cfg)])
    report = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert code == 1
    assert list(report) == ["nu", "mass_ratio", "level_count", "qubit_window", "omega0",
                            "rwa_valid"]
    assert report["nu"] == nu and float(report["omega0"]) <= 0.0
    assert report["rwa_valid"] == "fail"


def test_validate_flags_crowded_window(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nu=0.9\n")
    code = main(["validate", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 1
    assert "qubit_window=fail" in out


# a small run of each preset, with every setting moved off its default
META_RUNS = {
    "fig2": (["--points", "2"], {}),
    "fig3a": (["--points", "3"], {"t_final": "2"}),
    "fig3b": (["--points", "3"], {"t_final": "2", "d": "1.5"}),
    "fig4": (["--points", "3"], {"t_final": "2", "d": "2", "omega_1": "0.3",
                                 "omega_2": "0.4", "initial_state": "eg"}),
    "fig5a": (["--points", "2"], {"omega": "0.3", "d_min": "2", "d_max": "3"}),
    "fig5b": (["--points", "3"], {"d": "2", "omega_max": "1"}),
    "figS1": (["--points", "256"], {"box_length": "30"}),
    "figS3": ([], {"count": "2", "spacing": "10", "box_length": "40", "t_final": "1"}),
}


@pytest.mark.parametrize("name", PRESETS)
def test_meta_records_every_setting(tmp_path, capsys, name):
    flags, settings = META_RUNS[name]
    defaults = PRESETS[name].settings
    assert settings.keys() == defaults.keys()
    (tmp_path / "run.cfg").write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
    command = next(c for c, (_, presets) in COMMANDS.items() if name in presets)
    argv = [command, "--scenario", name, "--config", str(tmp_path / "run.cfg"),
            "--out", str(tmp_path)]
    assert main(argv + flags) == 0
    meta = read_meta(tmp_path / f"{name}.meta")
    # figS3 takes the fewest points the grid rule allows on its 40-xi box
    assert meta["points"] == (flags[1] if flags else "512")
    for key, text in settings.items():
        value = parse_value(key, text, type(defaults[key]))
        assert value != defaults[key]
        assert meta[key] == format_value(value), key


def test_rates_dataset(tmp_path, capsys):
    out_dir = tmp_path / "nested" / "results"
    code = main(["rates", "--points", "3", "--out", str(out_dir)])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    header, rows = read_csv(out_dir / "fig2.csv")
    assert header == ["d_xi", "gamma", "Gamma_over_gamma", "eta_over_gamma"]
    assert rows.shape == (3, 4)
    assert rows[0, 0] == 0.0
    assert rows[0, 2] == 1.0  # contact limit
    assert abs(rows[0, 1] - 4.922723591011477e-05) < 1e-16
    meta = read_meta(out_dir / "fig2.meta")
    assert meta["scenario"] == "fig2"
    assert meta["columns"] == ";".join(header)
    assert meta["nu"] == "0.75"
    assert "version" in meta


def test_reruns_are_byte_identical(tmp_path):
    args = ["steady", "--scenario", "fig5b", "--points", "4",
            "--out", str(tmp_path)]
    assert main(args) == 0
    first = [(tmp_path / n).read_bytes() for n in ("fig5b.csv", "fig5b.meta")]
    assert main(args) == 0
    second = [(tmp_path / n).read_bytes() for n in ("fig5b.csv", "fig5b.meta")]
    assert first == second


def test_cached_parser_serves_every_command(tmp_path, monkeypatch, capsys):
    # main builds its parser once per process; commands run one after another
    # through it write the same bytes as runs that each build a fresh one
    assert build_parser() is build_parser()
    runs = (["steady", "--scenario", "fig5a", "--points", "3"], ["steady"],
            ["rates", "--points", "2"])

    def outputs(out):
        for argv in runs:
            assert main(argv + ["--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    cached = outputs(tmp_path / "cached")
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    fresh = outputs(tmp_path / "fresh")
    assert list(cached) == ["fig2.csv", "fig2.meta", "fig5a.csv", "fig5a.meta",
                            "fig5b.csv", "fig5b.meta"]
    assert cached == fresh


def test_sweep_threads_give_identical_bytes(tmp_path, monkeypatch):
    # each run starts without a cached rate table, so with two threads both
    # sweep workers ask for it at once; it must be built once and the
    # outputs must not depend on the thread count (the sweep sizes its pool
    # from the core count)
    outputs = []
    for threads in (1, 2):
        monkeypatch.setattr(scenarios.os, "cpu_count", lambda: threads)
        _table.cache_clear()
        out = tmp_path / str(threads)
        assert main(["steady", "--scenario", "fig5a", "--points", "6",
                     "--out", str(out)]) == 0
        assert _table.cache_info().misses == 1
        outputs.append([(out / n).read_bytes() for n in ("fig5a.csv", "fig5a.meta")])
    assert outputs[0] == outputs[1]


def test_steady_drive_sweep(tmp_path):
    assert main(["steady", "--points", "5", "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "fig5b.csv")
    assert header == ["omega_over_gamma", "concurrence_steady"]
    assert rows[0, 0] == 0.0
    assert rows[0, 1] == 0.0  # no drive, no entanglement
    assert rows[-1, 0] == 2.0
    assert np.all(rows[:, 1] >= 0.0)


def test_steady_separation_sweep(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d_min=2.0\nd_max=3.0\nomega=0.35\n")
    code = main(["steady", "--scenario", "fig5a", "--points", "2",
                 "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "fig5a.csv")
    assert header == ["d_xi", "Gamma_over_gamma", "eta_over_gamma", "concurrence_steady"]
    assert list(rows[:, 0]) == [2.0, 3.0]
    assert np.all(rows[:, 3] > 0.0)


def test_decay_dataset(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_final=2.0\nd=2.5\n")
    code = main(["decay", "--scenario", "fig3b", "--points", "9",
                 "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "fig3b.csv")
    assert header == ["t_gamma", "rho_ee", "rho_ss", "rho_aa", "rho_gg", "concurrence"]
    # |eg> start: equal symmetric/antisymmetric split, no entanglement yet
    assert abs(rows[0, 2] - 0.5) < 1e-12
    assert abs(rows[0, 3] - 0.5) < 1e-12
    assert rows[0, 5] == 0.0
    assert np.all(rows[1:, 5] > 0.0)  # unequal collective decay entangles
    assert np.max(np.abs(rows[:, 1:5].sum(axis=1) - 1.0)) < 1e-9


def test_long_decay_formula_columns_are_finite(tmp_path):
    # sinh(Gamma t) overflows long before t = 3000; the formula never forms it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_final=3000\n")
    code = main(["decay", "--points", "4", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "fig3a.csv")
    assert header[3:] == ["formula_d_1xi", "formula_d_2p5xi"]
    assert np.all(np.isfinite(rows)) and np.all(rows[:, 3:] <= 1.0)


def test_driven_dataset(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_final=2.0\n")
    code = main(["driven", "--points", "5", "--config", str(cfg),
                 "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "fig4.csv")
    assert header[0] == "t_gamma"
    assert header[1] == "concurrence_omega_0.25"
    assert rows[0, 1] == 0.0 and rows[0, 2] == 0.0  # ground-state start
    meta = read_meta(tmp_path / "fig4.meta")
    assert meta["initial_state"] == "gg"


def test_driven_columns_are_named_like_the_meta(tmp_path):
    # six significant digits named both columns concurrence_omega_0.35
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_final=2.0\nomega_1=0.35\nomega_2=0.35000001\n")
    code = main(["driven", "--points", "3", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    header, _ = read_csv(tmp_path / "fig4.csv")
    meta = read_meta(tmp_path / "fig4.meta")
    assert header[1:] == [f"concurrence_omega_{meta['omega_1']}",
                          f"concurrence_omega_{meta['omega_2']}"]
    assert header[2] == "concurrence_omega_0.35000001"


def test_boundstate_dataset(tmp_path):
    code = main(["gpe-boundstates", "--points", "1024", "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "figS1.csv")
    assert header == ["x_xi", "soliton_density", "phi0", "phi1"]
    assert rows.shape == (1024, 4)
    meta = read_meta(tmp_path / "figS1.meta")
    analytic = float(meta["analytic_energy_0"])
    assert abs(float(meta["energy_0"]) - analytic) < 0.01 * abs(analytic)
    assert meta["bound_0"] == "true"
    assert meta["bound_1"] == "false"
    assert meta["analytic_count"] == "2"


def test_multisoliton_dataset(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("count=2\nspacing=10.0\nbox_length=40.0\nt_final=1.0\n")
    code = main(["gpe-multisoliton", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "figS3.csv")
    assert header == ["t_mu", "x_1", "x_2"]
    assert rows[0, 0] == 0.0
    assert abs(rows[0, 1] + 5.0) < 0.1 and abs(rows[0, 2] - 5.0) < 0.1
    meta = read_meta(tmp_path / "figS3.meta")
    assert meta["lost_at"] == "none"
    assert float(meta["box_length_um"]) == 52.0
    assert abs(float(meta["t_final_ms"]) - 1.0 / 225.0 * 1e3) < 1e-9
