"""CLI: config handling, outputs, exit codes, reproducibility."""

import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import frontks.cli
import frontks.experiments
from frontks.cli import (
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    STUDIES,
    main,
    read_config_file,
    read_flags,
    resolve_config,
    write_csv,
)
from frontks.evolve import Etdrk4
from frontks.grid import make_grid

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "configs"

# settings under which every K-S and slow-scale run blows up within a few steps
BLOWUP_ARGS = ["--ell0", "80", "--n-modes", "64", "--t-end", "50", "--dt", "5", "--amplitude", "50"]
# settings under which the K-S run blows up at t=99 and the eps = 1 run stays bounded
KS_ONLY_BLOWUP_ARGS = [
    "--ell0", "80", "--n-modes", "16", "--t-end", "120", "--dt", "3", "--amplitude", "10",
    "--harmonic", "1", "--output-stride", "1",
]


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


@pytest.mark.parametrize("epsilon", ["1", "0.05", "1e-8"])
def test_symbols_epsilon_writes_the_symbol_bounds(epsilon, tmp_path):
    out = tmp_path / "sym"
    rc = main(["symbols", "--ell", "31.41592653589793", "--n-modes", "256", "--epsilon", epsilon,
               "--out", str(out)])
    assert rc == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["bounds.json", "symbols.csv"]
    bounds = json.loads((out / "bounds.json").read_text())
    assert bounds["epsilon"] == float(epsilon)
    flags = {k: v for k, v in bounds.items() if k.endswith("_ok")}
    assert len(flags) == 5 and all(v is True for v in flags.values())


def test_symbols_alpha_writes_only_the_table(tmp_path):
    out = tmp_path / "sym"
    assert main(["symbols", "--ell", "6.2832", "--n-modes", "8", "--alpha", "1.0", "--out", str(out)]) == EXIT_OK
    assert [p.name for p in out.iterdir()] == ["symbols.csv"]


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


@pytest.mark.parametrize("key,argv", [
    ("epsilons", ["convergence", "--ell0", "31.41592653589793", "--n-modes", "16",
                  "--t-end", "0.2", "--dt", "0.01", "--epsilons", ","]),
    ("n_list", ["galerkin", "--ell", "6.28", "--t-end", "0.2", "--dt", "0.01", "--n-list", ";"]),
    ("alphas", ["stability-scan", "--ell", "6.28", "--n-modes", "16", "--t-end", "0.2",
                "--dt", "0.01", "--alphas", ""]),
], ids=["epsilons", "n_list", "alphas"])
def test_empty_list_is_a_config_error(key, argv, tmp_path, capsys):
    rc = main([*argv, "--out", str(tmp_path / "run")])
    assert rc == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["violations"] == [f"key '{key}': empty list"]
    assert not (tmp_path / "run").exists()


PROFILE = ["profiles", "--ell", "6.283185307179586", "--alpha", "1", "--k", "1"]
SYMBOLS = ["symbols", "--n-modes", "8", "--alpha", "1"]


# how the CLI is called, its arguments, then either the config-file lines
# that stand for the arguments after PROFILE (the outputs must match byte
# for byte) or the violations it must be refused with
@pytest.mark.parametrize("how,argv,want", [
    ("main", [*PROFILE, "--phi", "1", "--x-min", "-1e1"], "phi = 1\nx_min = -1e1\n"),
    ("main", [*PROFILE, "--phi", "-1E-3"], "phi = -1E-3\n"),
    ("main", [*PROFILE, "--phi=-1E-3", "--x-min", "-1e1"], "phi = -1E-3\nx_min = -1e1\n"),
    ("main", [*SYMBOLS, "--ell", "-inf"], ["key 'ell': must be finite, got '-inf'"]),
    ("python -m", [*SYMBOLS, "--ell", "-inf"], ["key 'ell': must be finite, got '-inf'"]),
    ("main", [*SYMBOLS, "--ell", "6.28", "--bogus", "1"], ["unknown key 'bogus'"]),
    ("main", [*SYMBOLS, "--ell", "6.28", "--ell", "3"], ["flag '--ell': key 'ell' given twice"]),
    ("main", [*SYMBOLS, "--ell"], ["flag '--ell' has no value"]),
    ("main", ["symbol", "--ell", "6.28"], [f"unknown subcommand 'symbol'; expected one of {', '.join(STUDIES)}"]),
], ids=["x-min-exponent", "phi-exponent", "key=value", "minus-inf", "minus-inf-python-m", "unknown-flag",
        "repeated-flag", "dangling-flag", "unknown-subcommand"])
def test_flags_are_read_as_config_lines(how, argv, want, tmp_path, capsys):
    out = tmp_path / "run"  # given first, so that a dangling flag stays last
    if how == "main":
        rc, err = main([argv[0], "--out", str(out), *argv[1:]]), capsys.readouterr().err
    else:
        src = str(pathlib.Path(frontks.cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "frontks.cli", argv[0], "--out", str(out), *argv[1:]],
                              env=env, capture_output=True, text=True, timeout=120)
        rc, err = proc.returncode, proc.stderr
    if isinstance(want, list):
        assert rc == EXIT_CONFIG
        assert json.loads(err) == {"error": "config", "violations": want}  # one JSON object
        assert not out.exists()
        return
    assert rc == EXIT_OK
    cfg = tmp_path / "keys.cfg"
    cfg.write_text(want)
    assert main([*PROFILE, "--config", str(cfg), "--out", str(tmp_path / "file")]) == EXIT_OK
    for name in ("profile.csv", "residuals.json"):
        assert (out / name).read_bytes() == (tmp_path / "file" / name).read_bytes()


def test_numerical_failure_is_not_a_config_error(tmp_path, monkeypatch):
    # LinAlgError subclasses ValueError; exit 2 stays reserved for bad configs
    def fail(**cfg):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(frontks.experiments, "run_stability_scan", fail)
    with pytest.raises(np.linalg.LinAlgError):
        main([
            "stability-scan", "--ell", "12.566370614359172", "--n-modes", "16",
            "--alphas", "1.8", "--t-end", "1.0", "--dt", "0.1", "--out", str(tmp_path / "scan"),
        ])
    assert not (tmp_path / "scan").exists()  # no run directory is made


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


def test_config_file_key_given_twice_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("ell = 12.566370614359172\nn_modes = 16\nalphas = 1.5\nt_end = 1\ndt = 0.1\nalphas = 3\n")
    out = tmp_path / "scan"
    rc = main(["stability-scan", "--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["violations"] == [f"{cfg}:6: key 'alphas' given twice"]
    assert not out.exists()


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


def test_write_csv_writes_17_significant_digits_byte_for_byte(tmp_path):
    rows = [
        ["stable", 3, 0.1, np.float64(-2.5e-7), float("nan")],
        ["unstable", -12, float("inf"), np.float64(float("-inf")), -0.0],
        ["x", 10**20, 1e-300, np.float64(1 / 3), np.float64(float("nan"))],
    ]
    path = tmp_path / "rows.csv"
    write_csv(str(path), ["a", "b", "c", "d", "e"], iter(rows))  # rows may be one-pass
    want = "a,b,c,d,e\n" + "".join(
        ",".join(v if isinstance(v, str) else format(v, ".17g") for v in row) + "\n"
        for row in rows
    )
    assert path.read_bytes() == want.encode()
    write_csv(str(path), ["a"], iter([]))
    assert path.read_bytes() == b"a\n"


@pytest.mark.parametrize("subcommand,args", [
    ("stability-scan", ["--ell", "12.566370614359172", "--n-modes", "64", "--alphas", "1.8,2.2",
                        "--t-end", "1.0", "--dt", "0.01", "--seed", "5"]),
    ("evolve-rescaled", ["--ell0", "31.41592653589793", "--epsilon", "0.04", "--n-modes", "128",
                         "--t-end", "0.05", "--dt", "0.001"]),
])
def test_csv_bytes_do_not_depend_on_the_blas_thread_count(subcommand, args, tmp_path):
    # the nonlinear term is a BLAS matrix product at these sizes
    src = str(pathlib.Path(frontks.cli.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run(
            [sys.executable, "-m", "frontks.cli", subcommand, *args, "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        outputs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
    assert outputs[0] and outputs[0] == outputs[1]


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


def test_stability_scan_rejects_zero_amplitude_before_evolving(tmp_path, monkeypatch, capsys):
    # the zero field is the null solution itself, so every alpha would read "stable"
    evolved = []
    original = frontks.experiments.evolve

    def counted(config):
        evolved.append(config)
        return original(config)

    monkeypatch.setattr(frontks.experiments, "evolve", counted)
    argv = [
        "stability-scan", "--ell", "12.566370614359172", "--n-modes", "16",
        "--alphas", "1.5,3", "--t-end", "1", "--dt", "0.1",
    ]
    rc = main([*argv, "--amplitude", "0", "--out", str(tmp_path / "zero")])
    assert rc == EXIT_CONFIG
    assert evolved == []
    assert json.loads(capsys.readouterr().err)["violations"] == ["amplitude must be non-zero"]
    assert not (tmp_path / "zero").exists()
    # a negative amplitude is a perturbation like any other
    rc = main([*argv, "--amplitude=-1e-4", "--out", str(tmp_path / "negative")])
    assert rc == EXIT_OK
    assert len(evolved) == 2
    header, rows = _read_csv(tmp_path / "negative" / "scan.csv")
    assert [row[header.index("verdict")] for row in rows] == ["stable", "unstable"]


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


def test_profiles_reads_one_eigenvalue_in_constant_memory(tmp_path):
    # one mode's eigenvalue needs no grid that holds all modes up to it
    argv = ["profiles", "--ell", "6.283185307179586", "--alpha", "1", "--k", "1000000", "--phi", "1"]
    tracemalloc.start()
    try:
        assert main([*argv, "--out", str(tmp_path / "prof")]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert json.loads((tmp_path / "prof" / "residuals.json").read_text())["lambda"] == 2.5e11


def test_profiles_rejects_an_empty_grid_before_writing(tmp_path, capsys):
    out = tmp_path / "prof"
    rc = main([
        "profiles", "--ell", "6.28", "--alpha", "1", "--k", "1", "--phi", "1",
        "--x-count", "0", "--out", str(out),
    ])
    assert rc == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["violations"] == ["key 'x_count': must be positive"]
    assert not out.exists()


@pytest.mark.parametrize("ell", ["0", "-6.28"])
def test_profiles_rejects_a_non_positive_period(ell, tmp_path, capsys):
    out = tmp_path / "prof"
    rc = main(["profiles", "--ell", ell, "--alpha", "1", "--k", "1", "--phi", "1", "--out", str(out)])
    assert rc == EXIT_CONFIG
    violations = json.loads(capsys.readouterr().err)["violations"]
    assert any("period must be positive" in v for v in violations)
    assert not out.exists()


@pytest.mark.parametrize("key,argv", [
    ("ell", ["symbols", "--ell", "inf", "--n-modes", "8", "--alpha", "1"]),
    ("amplitude", ["stability-scan", "--ell", "12.566370614359172", "--n-modes", "16", "--alphas", "1.5,3",
                   "--t-end", "1", "--dt", "0.1", "--amplitude", "nan"]),
    ("alpha", ["evolve-front", "--ell", "12.566370614359172", "--alpha", "inf", "--n-modes", "16",
               "--t-end", "0.1", "--dt", "0.01"]),
    ("phi", ["profiles", "--ell", "6.283185307179586", "--alpha", "1", "--k", "1", "--phi", "inf"]),
    ("alphas", ["stability-scan", "--ell", "12.566370614359172", "--n-modes", "16", "--alphas", "1.5,inf",
                "--t-end", "1", "--dt", "0.1"]),
], ids=["symbols-ell-inf", "scan-amplitude-nan", "front-alpha-inf", "profiles-phi-inf", "scan-alphas-inf"])
def test_non_finite_numbers_are_config_errors_before_any_run(key, argv, tmp_path, monkeypatch, capsys):
    evolved = []
    for module in (frontks.cli, frontks.experiments):
        monkeypatch.setattr(module, "evolve", lambda config: evolved.append(config))
    out = tmp_path / "run"
    rc = main([*argv, "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert evolved == []
    text = argv[argv.index("--" + key) + 1]
    assert json.loads(capsys.readouterr().err)["violations"] == [f"key '{key}': must be finite, got '{text}'"]
    assert not out.exists()


def test_non_finite_numbers_are_reported_with_the_other_violations(tmp_path, capsys):
    rc = main([
        "stability-scan", "--ell=-inf", "--n-modes", "16", "--alphas", "nan,3", "--t-end", "1",
        "--out", str(tmp_path / "scan"),
    ])
    assert rc == EXIT_CONFIG
    assert set(json.loads(capsys.readouterr().err)["violations"]) == {
        "key 'ell': must be finite, got '-inf'",
        "key 'alphas': must be finite, got 'nan,3'",
        "missing required key 'dt'",
    }


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


def test_convergence_blowup_row_is_not_agreement(tmp_path):
    # both runs blow up at t=10: their gap is unknown, not zero
    out = tmp_path / "conv"
    rc = main(["convergence", *BLOWUP_ARGS, "--epsilons", "0.1", "--out", str(out)])
    assert rc == EXIT_BLOWUP
    header, rows = _read_csv(out / "convergence.csv")
    assert header == ["epsilon", "sup_error", "ratio", "zeta_sup_l2"]
    assert len(rows) == 1
    assert all(math.isnan(float(v)) for v in rows[0][1:])


@pytest.mark.parametrize("epsilons", ["0.1,0.05,-0.01", "1.5,0.1"])
def test_convergence_rejects_epsilons_outside_unit_interval_before_evolving(
    epsilons, tmp_path, monkeypatch, capsys
):
    evolved = []
    original = frontks.experiments.evolve

    def counted(config):
        evolved.append(config)
        return original(config)

    monkeypatch.setattr(frontks.experiments, "evolve", counted)
    rc = main([
        "convergence", "--config", str(CONFIGS / "convergence.cfg"),
        "--epsilons", epsilons, "--out", str(tmp_path / "conv"),
    ])
    assert rc == EXIT_CONFIG
    assert evolved == []
    (violation,) = json.loads(capsys.readouterr().err)["violations"]
    assert violation.startswith("epsilons must lie in [0, 1]")


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


@pytest.mark.parametrize("flag,value,key", [
    ("--order", "3", "order"), ("--epsilon", "0", "epsilon"), ("--epsilon", "1.5", "epsilon"),
])
def test_energy_rejects_bad_order_or_epsilon_before_evolving(flag, value, key, tmp_path, monkeypatch, capsys):
    evolved = []
    for module in (frontks.cli, frontks.experiments):
        monkeypatch.setattr(module, "evolve", lambda config: evolved.append(config))
    args = {
        "--ell0": "31.41592653589793", "--n-modes": "32", "--epsilon": "0.05",
        "--t-end": "0.3", "--dt": "0.002", flag: value,
    }
    rc = main(["energy", *[x for kv in args.items() for x in kv], "--out", str(tmp_path / "en")])
    assert rc == EXIT_CONFIG
    assert evolved == []
    (violation,) = json.loads(capsys.readouterr().err)["violations"]
    assert violation.startswith(f"{key} must")
    assert not (tmp_path / "en").exists()


def test_energy_blowup_exit_code(tmp_path):
    out = tmp_path / "en"
    rc = main(["energy", *BLOWUP_ARGS, "--epsilon", "0.1", "--out", str(out)])
    assert rc == EXIT_BLOWUP
    assert (out / "energy.csv").exists()


@pytest.mark.parametrize("subcommand,flag", [("convergence", "--epsilons"), ("energy", "--epsilon")])
def test_ks_run_blowup_alone_is_listed_as_eps_zero(subcommand, flag, tmp_path):
    out = tmp_path / subcommand
    rc = main([subcommand, *KS_ONLY_BLOWUP_ARGS, flag, "1", "--out", str(out)])
    assert rc == EXIT_BLOWUP
    assert json.loads((out / "report.json").read_text())["blowups"] == [0.0]


def test_convergence_zero_epsilon_reuses_the_ks_run(tmp_path, monkeypatch):
    # the eps = 0 row is the K-S equation: one K-S run, listed once when it blows up
    evolved = []
    original = frontks.experiments.evolve

    def counted(config):
        evolved.append(config)
        return original(config)

    monkeypatch.setattr(frontks.experiments, "evolve", counted)
    out = tmp_path / "conv"
    rc = main(["convergence", *KS_ONLY_BLOWUP_ARGS, "--epsilons", "1,0", "--out", str(out)])
    assert rc == EXIT_BLOWUP
    assert len(evolved) == 2
    assert json.loads((out / "report.json").read_text())["blowups"] == [0.0]


# report study -> (arguments of a clean run, arguments of a run that blows up)
REPORT_RUNS = {
    "stability-scan": (
        ["--ell", "12.566370614359172", "--n-modes", "16", "--alphas", "1.8,2.2", "--t-end", "1", "--dt", "0.1"],
        ["--ell", "12.566370614359172", "--n-modes", "32", "--alphas", "1.8,3", "--amplitude", "50",
         "--t-end", "5", "--dt", "1"],
    ),
    "convergence": (
        ["--ell0", "31.41592653589793", "--n-modes", "16", "--t-end", "0.2", "--dt", "0.01", "--epsilons", "0.1"],
        [*BLOWUP_ARGS, "--epsilons", "0.1"],
    ),
    "energy": (
        ["--ell0", "31.41592653589793", "--n-modes", "16", "--t-end", "0.2", "--dt", "0.01", "--epsilon", "0.1"],
        [*BLOWUP_ARGS, "--epsilon", "0.1"],
    ),
    "ks-apriori": (
        ["--ell0", "31.41592653589793", "--n-modes", "16", "--t-end", "0.2", "--dt", "0.01"],
        BLOWUP_ARGS,
    ),
    "galerkin": (
        ["--ell", "31.41592653589793", "--n-list", "16,32", "--t-end", "0.2", "--dt", "0.01", "--amplitude", "0.1"],
        ["--ell", "80", "--n-list", "16,32", "--t-end", "250", "--dt", "5", "--amplitude", "5"],
    ),
}


@pytest.mark.parametrize("blows_up", [False, True], ids=["clean", "blowup"])
@pytest.mark.parametrize("subcommand", list(REPORT_RUNS))
def test_report_exit_code_follows_listed_blowups(subcommand, blows_up, tmp_path):
    out = tmp_path / subcommand
    rc = main([subcommand, *REPORT_RUNS[subcommand][blows_up], "--out", str(out)])
    blowups = json.loads((out / "report.json").read_text())["blowups"]
    assert rc == (EXIT_BLOWUP if blowups else EXIT_OK)
    assert bool(blowups) == blows_up


# report study -> the report dataclass its run returns
REPORT_TYPES = {
    "stability-scan": frontks.experiments.StabilityScanReport,
    "convergence": frontks.experiments.ConvergenceReport,
    "energy": frontks.experiments.EnergyTrace,
    "ks-apriori": frontks.experiments.KsAprioriReport,
    "galerkin": frontks.experiments.GalerkinReport,
}


@pytest.mark.parametrize("subcommand", list(REPORT_RUNS))
def test_report_json_is_every_report_field_and_the_config(subcommand, tmp_path):
    out = tmp_path / subcommand
    assert main([subcommand, *REPORT_RUNS[subcommand][False], "--out", str(out)]) == EXIT_OK
    names = {f.name for f in dataclasses.fields(REPORT_TYPES[subcommand])}
    assert set(json.loads((out / "report.json").read_text())) == names | {"config"}


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
    assert not (tmp_path / "ks").exists()  # no run directory is made


def test_config_error_makes_no_directories(tmp_path, capsys):
    # the run directory is made only once the study has returned, parents included
    out = tmp_path / "nest" / "a" / "b"
    rc = main([
        "evolve-ks", "--ell0", "31.41592653589793", "--n-modes", "16",
        "--t-end", "1", "--dt", "0.3", "--out", str(out),
    ])
    assert rc == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not (tmp_path / "nest").exists()


def test_reused_out_with_files_this_run_would_not_write_is_an_io_error(tmp_path, capsys):
    # the alpha table would land beside the epsilon run's bounds.json
    out = tmp_path / "sym"
    argv = ["symbols", "--ell", "6.283185307179586", "--n-modes", "8", "--out", str(out)]
    assert main([*argv, "--epsilon", "0.1"]) == EXIT_OK
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["bounds.json", "symbols.csv"]
    capsys.readouterr()
    assert main([*argv, "--alpha", "1.0"]) == EXIT_IO
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "io" and "bounds.json" in err["detail"]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # rerunning the same command rewrites the same files
    assert main([*argv, "--epsilon", "0.1"]) == EXIT_OK
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_unwritable_out_is_an_io_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    rc = main(["symbols", "--ell", "6.28", "--n-modes", "4", "--alpha", "1.0", "--out", str(taken)])
    assert rc == EXIT_IO
    assert json.loads(capsys.readouterr().err)["error"] == "io"
    assert taken.read_text() == "not a directory\n"


def test_default_dt_reaches_t_end_in_whole_steps(tmp_path):
    # 1e-3 (10/2pi)^2 does not divide t_end = 1, so the default step shortens
    rc = main([
        "evolve-front", "--ell", "10", "--alpha", "1", "--n-modes", "16",
        "--t-end", "1", "--out", str(tmp_path / "front"),
    ])
    assert rc == EXIT_OK
    summary = json.loads((tmp_path / "front" / "summary.json").read_text())
    assert summary["times"][-1] == pytest.approx(1.0, rel=1e-12)
    assert len(summary["times"]) == 1 + math.ceil(1.0 / (1e-3 * (10.0 / (2 * math.pi)) ** 2))


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
    assert main([name, "--help"]) == EXIT_OK
    usage, _, heading, *keys = capsys.readouterr().out.splitlines()
    assert "[--config FILE] [--out DIR]" in usage
    assert heading == name
    assert [line.split()[0] for line in keys] == ["--" + k.replace("_", "-") for k in [*required, *defaults]]
    assert [line.endswith("(required)") for line in keys] == [k in required for k in [*required, *defaults]]

    assert main([name, "--out", str(tmp_path)]) == EXIT_CONFIG
    violations = json.loads(capsys.readouterr().err)["violations"]
    assert violations == [f"missing required key '{k}'" for k in required]

    argv = [name] + [arg for k in required for arg in ("--" + k.replace("_", "-"), "1")]
    cfg = resolve_config(STUDIES[name], read_flags(argv[1:]))
    assert sorted(cfg) == sorted([*required, *defaults])
    resolved_defaults = {k: v for k, v in cfg.items() if k not in required}
    # JSON tells 1 from 1.0, as report.json and summary.json do
    assert json.dumps(resolved_defaults, sort_keys=True) == json.dumps(defaults, sort_keys=True)
