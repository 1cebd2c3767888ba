"""CLI: config handling, outputs, exit codes, reproducibility."""

import json
import math

import numpy as np
import pytest

import frontks.cli
import frontks.experiments
from frontks.cli import (
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_OK,
    STUDIES,
    build_parser,
    main,
    read_config_file,
    resolve_config,
)
from frontks.evolve import Etdrk4, default_dt
from frontks.grid import make_grid

# settings under which every K-S and slow-scale run blows up within a few steps
BLOWUP_ARGS = ["--ell0", "80", "--n-modes", "64", "--t-end", "50", "--dt", "5", "--amplitude", "50"]


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_symbols_csv_zero_mode_row(tmp_path):
    out = tmp_path / "sym"
    rc = main(["symbols", "--ell", "6.2832", "--n-modes", "8", "--alpha", "1.0", "--out", str(out)])
    assert rc == EXIT_OK
    header, rows = _read_csv(out / "symbols.csv")
    assert header == ["k", "lambda", "X", "b", "s", "f", "l", "g"]
    assert len(rows) == 8
    k0 = dict(zip(header, rows[0]))
    assert float(k0["b"]) == 1.0
    assert float(k0["s"]) == 0.0
    assert float(k0["f"]) == -0.5


def test_symbols_rescaled_table(tmp_path):
    out = tmp_path / "sym"
    rc = main(["symbols", "--ell", "31.4", "--n-modes", "6", "--epsilon", "0.1", "--out", str(out)])
    assert rc == EXIT_OK
    header, rows = _read_csv(out / "symbols.csv")
    assert header == ["k", "lambda", "X", "b", "s", "f", "h", "m", "r"]
    assert float(dict(zip(header, rows[0]))["b"]) == 1.0


def test_symbols_needs_exactly_one_parameter(tmp_path, capsys):
    rc = main(["symbols", "--ell", "6.28", "--n-modes", "8", "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    rc = main([
        "symbols", "--ell", "6.28", "--n-modes", "8",
        "--alpha", "1.0", "--epsilon", "0.5", "--out", str(tmp_path),
    ])
    assert rc == EXIT_CONFIG


def test_missing_required_keys_all_reported(tmp_path, capsys):
    rc = main(["stability-scan", "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    text = " ".join(err["violations"])
    for key in ("ell", "n_modes", "alphas", "t_end", "dt"):
        assert key in text


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("ell = 6.28\nn_modes = 8\nalpha = 1.0\nwhatever = 3\n")
    rc = main(["symbols", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert any("whatever" in v for v in err["violations"])


def test_unparseable_flag_is_a_config_error(tmp_path, capsys):
    rc = main(["symbols", "--ell", "6.28", "--n-modes", "abc", "--alpha", "1.0", "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert err["violations"] == ["key 'n_modes': cannot parse 'abc' as int"]


def test_list_flags_accept_semicolons_like_config_files(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("ell = 12.566370614359172\nn_modes = 16\nalphas = 1.8;2.2\nt_end = 1.0\ndt = 0.1\n")
    flags = ["--ell", "12.566370614359172", "--n-modes", "16", "--t-end", "1.0", "--dt", "0.1"]
    out_file, out_flag = tmp_path / "file", tmp_path / "flag"
    assert main(["stability-scan", "--config", str(cfg), "--out", str(out_file)]) == EXIT_OK
    assert main(["stability-scan", *flags, "--alphas", "1.8;2.2", "--out", str(out_flag)]) == EXIT_OK
    report = json.loads((out_flag / "report.json").read_text())
    assert report["alphas"] == [1.8, 2.2]
    assert (out_flag / "scan.csv").read_bytes() == (out_file / "scan.csv").read_bytes()


def test_config_file_parsing_and_flag_override(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(
        "# threshold scan\n"
        "ell = 12.566370614359172\n"
        "n_modes = 16\n"
        "alphas = 1.8, 2.2\n"
        "t_end = 2.0\n"
        "dt = 0.1\n"
        "seed = 3\n"
    )
    raw = read_config_file(str(cfg))
    assert raw["alphas"] == "1.8, 2.2"
    out = tmp_path / "run"
    rc = main(["stability-scan", "--config", str(cfg), "--seed", "9", "--out", str(out)])
    assert rc == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["seed"] == 9  # flag wins over file
    assert report["alpha_c"] == pytest.approx(2.0)


def test_stability_scan_byte_identical_reruns(tmp_path):
    args = [
        "stability-scan", "--ell", "12.566370614359172", "--n-modes", "16",
        "--alphas", "1.8,2.2", "--t-end", "2.0", "--dt", "0.1", "--seed", "5",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert (out1 / "scan.csv").read_bytes() == (out2 / "scan.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_evolve_front_writes_trajectory(tmp_path):
    out = tmp_path / "run"
    rc = main([
        "evolve-front", "--ell", "6.283185307179586", "--n-modes", "16",
        "--alpha", "1.0", "--t-end", "0.2", "--dt", "0.01",
        "--ic", "random", "--amplitude", "1e-3", "--seed", "2", "--out", str(out),
    ])
    assert rc == EXIT_OK
    header, rows = _read_csv(out / "trajectory.csv")
    assert header[0] == "time" and len(header) == 17
    assert len(rows) == 21
    summary = json.loads((out / "summary.json").read_text())
    assert summary["blown_up"] is False
    assert len(summary["l2"]) == 21


def test_evolve_ks_blowup_exit_code(tmp_path):
    rc = main([
        "evolve-ks", "--ell0", "80.0", "--n-modes", "64", "--dt", "5.0",
        "--t-end", "50.0", "--ic", "cosine", "--amplitude", "50.0",
        "--out", str(tmp_path / "blow"),
    ])
    assert rc == EXIT_BLOWUP
    summary = json.loads((tmp_path / "blow" / "summary.json").read_text())
    assert summary["blown_up"] is True


def test_stability_scan_blowup_writes_outputs_then_exit_code(tmp_path):
    out = tmp_path / "scan"
    rc = main([
        "stability-scan", "--ell", "12.566370614359172", "--n-modes", "32",
        "--alphas", "1.8,3", "--amplitude", "50", "--t-end", "5", "--dt", "1", "--out", str(out),
    ])
    assert rc == EXIT_BLOWUP
    assert (out / "scan.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["blowups"] == [1.8, 3.0]


@pytest.mark.filterwarnings("error")
def test_short_scan_writes_nan_rate_instead_of_fitting_one_point(tmp_path):
    out = tmp_path / "scan"
    rc = main([
        "stability-scan", "--ell", "12.566370614359172", "--n-modes", "16",
        "--alphas", "1.8,2.2", "--t-end", "0.2", "--dt", "0.1", "--out", str(out),
    ])
    assert rc == EXIT_OK
    header, rows = _read_csv(out / "scan.csv")
    assert [row[header.index("measured_rate")] for row in rows] == ["nan", "nan"]


def test_profiles_default_time_derivative_closes_jump(tmp_path):
    out = tmp_path / "prof"
    rc = main([
        "profiles", "--ell", "6.283185307179586", "--alpha", "1.0",
        "--k", "1", "--phi", "1.0", "--phiy-sq", "0.3", "--out", str(out),
    ])
    assert rc == EXIT_OK
    res = json.loads((out / "residuals.json").read_text())
    assert res["boundary_residual"] < 1e-9
    assert res["flux_residual"] < 1e-9
    header, rows = _read_csv(out / "profile.csv")
    assert header == ["x", "u", "v"]
    assert len(rows) == 301


def test_convergence_cli_reports_order(tmp_path):
    out = tmp_path / "conv"
    rc = main([
        "convergence", "--ell0", "31.41592653589793", "--n-modes", "48",
        "--t-end", "0.5", "--epsilons", "0.08,0.04", "--dt", "0.002",
        "--amplitude", "0.1", "--out", str(out),
    ])
    assert rc == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert "fitted_order" in report
    assert len(report["sup_errors"]) == 2


def test_energy_cli(tmp_path):
    out = tmp_path / "en"
    rc = main([
        "energy", "--ell0", "31.41592653589793", "--n-modes", "32",
        "--epsilon", "0.05", "--t-end", "0.3", "--dt", "0.002", "--out", str(out),
    ])
    assert rc == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["observed_bound"] >= 0
    header, rows = _read_csv(out / "energy.csv")
    assert float(rows[0][1]) == 0.0  # null remainder at tau = 0


def test_energy_blowup_exit_code(tmp_path):
    out = tmp_path / "en"
    rc = main(["energy", *BLOWUP_ARGS, "--epsilon", "0.1", "--out", str(out)])
    assert rc == EXIT_BLOWUP
    assert (out / "energy.csv").exists()


def test_ks_apriori_blowup_writes_outputs_then_exit_code(tmp_path):
    out = tmp_path / "ap"
    rc = main(["ks-apriori", *BLOWUP_ARGS, "--out", str(out)])
    assert rc == EXIT_BLOWUP
    header, rows = _read_csv(out / "apriori.csv")
    assert header == ["tau", "slope_norm", "slope_bound", "mean_abs", "mean_bound"]
    report = json.loads((out / "report.json").read_text())
    assert len(report["times"]) == len(rows) >= 1
    assert report["config"]["dt"] == 5.0


def test_ks_apriori_cli(tmp_path):
    out = tmp_path / "ap"
    rc = main([
        "ks-apriori", "--ell0", "31.41592653589793", "--n-modes", "32",
        "--t-end", "0.5", "--dt", "0.002", "--amplitude", "0.1", "--out", str(out),
    ])
    assert rc == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["slope_bound_ok"] and report["mean_bound_ok"]


def test_galerkin_cli(tmp_path):
    out = tmp_path / "gal"
    rc = main([
        "galerkin", "--ell", "31.41592653589793", "--n-list", "16,32",
        "--t-end", "0.5", "--dt", "0.002", "--amplitude", "0.1", "--out", str(out),
    ])
    assert rc == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert len(report["final_diffs"]) == 1


def test_galerkin_cli_front_requires_alpha(tmp_path, capsys):
    rc = main([
        "galerkin", "--ell", "12.56", "--n-list", "16,32", "--equation", "front",
        "--t-end", "0.1", "--dt", "0.01", "--out", str(tmp_path),
    ])
    assert rc == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert any("alpha" in v for v in err["violations"])


def test_default_output_dir_uses_env(tmp_path, monkeypatch):
    monkeypatch.setenv("FRONTKS_OUTDIR", str(tmp_path / "base"))
    rc = main(["symbols", "--ell", "6.28", "--n-modes", "4", "--alpha", "1.0"])
    assert rc == EXIT_OK
    runs = list((tmp_path / "base").iterdir())
    assert len(runs) == 1
    assert runs[0].name.startswith("symbols-")
    assert (runs[0] / "symbols.csv").exists()


def test_default_output_dirs_do_not_collide_within_one_second(tmp_path, monkeypatch):
    monkeypatch.setenv("FRONTKS_OUTDIR", str(tmp_path / "base"))
    monkeypatch.setattr("frontks.cli.time.strftime", lambda fmt: "20260101-000000")
    argv = ["symbols", "--ell", "6.28", "--n-modes", "4", "--alpha", "1.0"]
    assert main(argv) == EXIT_OK
    assert main(argv) == EXIT_OK
    runs = sorted((tmp_path / "base").iterdir())
    assert len(runs) == 2
    assert all((run / "symbols.csv").exists() for run in runs)


def test_benchmark_layer_boundaries_are_module_attributes(tmp_path, monkeypatch):
    # the traced benchmark also expects one evolve per scan member, one
    # Etdrk4.step_coeffs per member-step and four Etdrk4.nonlinear per step
    calls = {}

    def count(module, name, key=None):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[key or name] = calls.get(key or name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(frontks.cli, "_cmd_evolve")
    count(frontks.cli, "evolve")
    count(frontks.cli, "write_csv")
    count(frontks.experiments, "run_stability_scan")
    count(frontks.experiments, "evolve", "experiments.evolve")
    count(Etdrk4, "step_coeffs")
    count(Etdrk4, "nonlinear")
    rc = main([
        "evolve-rescaled", "--ell0", "31.41592653589793", "--epsilon", "0.04", "--n-modes", "16",
        "--t-end", "0.01", "--dt", "0.001", "--out", str(tmp_path / "dense"),
    ])
    assert rc == EXIT_OK
    assert calls == {
        "_cmd_evolve": 1, "evolve": 1, "write_csv": 1, "step_coeffs": 10, "nonlinear": 4 * 10,
    }
    rc = main([
        "stability-scan", "--ell", "12.566370614359172", "--n-modes", "16",
        "--alphas", "1.8,2.2", "--t-end", "1.0", "--dt", "0.1", "--out", str(tmp_path / "scan"),
    ])
    assert rc == EXIT_OK
    assert calls == {
        "_cmd_evolve": 1, "evolve": 1, "write_csv": 2, "run_stability_scan": 1,
        "experiments.evolve": 2, "step_coeffs": 10 + 2 * 10, "nonlinear": 4 * (10 + 2 * 10),
    }


def test_t_end_off_the_step_lattice_is_a_config_error(tmp_path, capsys):
    rc = main([
        "evolve-ks", "--ell0", "31.41592653589793", "--n-modes", "16",
        "--t-end", "1", "--dt", "0.3", "--out", str(tmp_path / "ks"),
    ])
    assert rc == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "nearest reachable horizon is 0.9" in err["violations"][0]
    assert not (tmp_path / "ks").exists()  # the run directory made for it is removed


def test_default_dt_reaches_t_end_in_whole_steps(tmp_path):
    # 1e-3 (10/2pi)^2 does not divide t_end = 1, so the default step shortens
    rc = main([
        "evolve-front", "--ell", "10", "--alpha", "1", "--n-modes", "16",
        "--t-end", "1", "--out", str(tmp_path / "front"),
    ])
    assert rc == EXIT_OK
    summary = json.loads((tmp_path / "front" / "summary.json").read_text())
    assert summary["times"][-1] == pytest.approx(1.0, rel=1e-12)
    assert len(summary["times"]) == 1 + math.ceil(1.0 / default_dt(make_grid(10.0, 16)))


_EVOLVE_DEFAULTS = {
    "dt": None, "output_stride": 1, "ic": "random", "amplitude": 0.001,
    "seed": 0, "harmonic": 1, "phase": 0.0,
}

# subcommand -> (required keys in reporting order, defaults of the optional keys)
CONFIG_SURFACE = {
    "symbols": (["ell", "n_modes"], {"alpha": None, "epsilon": None}),
    "evolve-front": (["ell", "alpha", "n_modes", "t_end"], _EVOLVE_DEFAULTS),
    "evolve-ks": (["ell0", "n_modes", "t_end"], _EVOLVE_DEFAULTS),
    "evolve-rescaled": (["ell0", "epsilon", "n_modes", "t_end"], _EVOLVE_DEFAULTS),
    "profiles": (
        ["ell", "alpha", "k", "phi"],
        {"phiy_sq": 0.0, "phi_t": None, "x_min": -10.0, "x_max": 5.0, "x_count": 301},
    ),
    "stability-scan": (
        ["ell", "n_modes", "alphas", "t_end", "dt"],
        {"amplitude": 0.0001, "seed": 0, "output_stride": 1},
    ),
    "convergence": (
        ["ell0", "n_modes", "t_end", "epsilons", "dt"],
        {"amplitude": 0.1, "harmonic": 1, "output_stride": 10},
    ),
    "energy": (
        ["ell0", "n_modes", "epsilon", "t_end", "dt"],
        {"order": 0, "amplitude": 0.1, "harmonic": 1, "output_stride": 10},
    ),
    "ks-apriori": (
        ["ell0", "n_modes", "t_end", "dt"],
        {"ic": "cosine", "amplitude": 0.1, "seed": 0, "harmonic": 1, "phase": 0.0, "output_stride": 10},
    ),
    "galerkin": (
        ["ell", "n_list", "t_end", "dt"],
        {"equation": "ks", "alpha": None, "epsilon": None, "amplitude": 1.0, "harmonic": 1, "output_stride": 10},
    ),
}


@pytest.mark.parametrize("name", list(CONFIG_SURFACE))
def test_config_surface_is_pinned(name, tmp_path, capsys):
    required, defaults = CONFIG_SURFACE[name]
    parser = build_parser()
    sub = parser._subparsers._group_actions[0].choices[name]
    flags = {o for action in sub._actions for o in action.option_strings} - {"-h", "--help"}
    assert flags == {"--config", "--out"} | {"--" + k.replace("_", "-") for k in [*required, *defaults]}

    assert main([name, "--out", str(tmp_path)]) == EXIT_CONFIG
    violations = json.loads(capsys.readouterr().err)["violations"]
    assert violations == [f"missing required key '{k}'" for k in required]

    argv = [name] + [arg for k in required for arg in ("--" + k.replace("_", "-"), "1")]
    cfg = resolve_config(STUDIES[name], parser.parse_args(argv))
    assert sorted(cfg) == sorted([*required, *defaults])
    resolved_defaults = {k: v for k, v in cfg.items() if k not in required}
    # JSON tells 1 from 1.0, as report.json and summary.json do
    assert json.dumps(resolved_defaults, sort_keys=True) == json.dumps(defaults, sort_keys=True)
