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
from frontks.evolve import Etdrk4, Trajectory

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


def test_symbols_epsilon_keeps_the_mass_slack_at_a_short_period(tmp_path):
    # 4 eps lam ~ 1.6e41 at ell = 1e-20: b - 1 - 4 eps lam would lose the 1 and report -1
    out = tmp_path / "sym"
    assert main(["symbols", "--ell", "1e-20", "--n-modes", "3", "--epsilon", "1", "--out", str(out)]) == EXIT_OK
    bounds = json.loads((out / "bounds.json").read_text())
    assert bounds["min_mass_slack"] >= 0.0 and bounds["all_ok"] is True


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
    ("main", [*SYMBOLS, "--ell", "6.28", "stray"], ["expected a --key flag, got 'stray'"]),
    ("main", ["symbol", "--ell", "6.28"], [f"unknown subcommand 'symbol'; expected one of {', '.join(STUDIES)}"]),
], ids=["x-min-exponent", "phi-exponent", "key=value", "minus-inf", "minus-inf-python-m", "unknown-flag",
        "repeated-flag", "dangling-flag", "stray-positional", "unknown-subcommand"])
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
    def fail(*args):
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


# what a config file holds, or None for a path that is no file, and the violation it is refused with
@pytest.mark.parametrize("content,violation", [
    (b"ell = 6.28\xff\n", "cannot read config file '{cfg}': 'utf-8' codec can't decode byte 0xff in position 10"),
    (b"ell 6.28\n", "{cfg}:1: expected 'key = value'"),
    (None, "cannot read config file '{cfg}': [Errno 2] No such file or directory"),
    ("dir", "cannot read config file '{cfg}': [Errno 21] Is a directory"),
], ids=["not-utf-8", "no-equals", "missing", "directory"])
def test_a_config_file_that_cannot_be_read_is_a_config_error_naming_it(content, violation, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    if content == "dir":
        cfg.mkdir()
    elif content is not None:
        cfg.write_bytes(content)
    rc = main([*SYMBOLS, "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert rc == EXIT_CONFIG
    (got,) = json.loads(capsys.readouterr().err)["violations"]
    assert got.startswith(violation.format(cfg=cfg))
    assert not (tmp_path / "run").exists()


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


def _g17_reference(rows) -> str:
    return "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in rows)


def _near_ties() -> list[float]:
    """Doubles x with x 10**s at most 3 * 2**-45 from a half-integer, for s = 23, 24.

    10**s is not a double there, so the product that gives the 17 digits is
    inexact and cannot tell such an x from a tie.
    """
    found = []
    for s in (23, 24):
        for k in range(45, 54):
            inverse = pow(5**s, -1, 2**k)
            for off in (-3, -1, 0, 1, 3):  # 0: an exact tie
                # the least 53-bit m with m 5**s = 2**(k - 1) + off modulo 2**k
                m = 2**52 + ((2 ** (k - 1) + off) * inverse - 2**52) % 2**k
                if m < 2**53 and 10**16 * 2**k <= m * 5**s < 10**17 * 2**k:
                    found.append(math.ldexp(m, -k - s))
    return found


def _digit_patterns() -> list[float]:
    """Doubles whose 17 digits (a first digit, then four groups of four) hold runs of zeros.

    Digits with exactly one group 0000, once for each group; trailing zeros from
    inside the first half of the digits on, or from the second half on
    (10**16 + 10**8) or only a last nonzero digit (10**16 + 1), each at many
    exponents; and fixed notation at every point position p from 2 to 17 with
    the nonzero digits after the first only after the point, which, being 10
    or more, the block formatter leaves to "%.17g".
    """
    groups = ["1234", "5678", "9012", "3456"]
    wanted = [int("7" + "".join("0000" if j == k else g for j, g in enumerate(groups))) for k in range(4)]
    wanted += [10**16 + 10**12, 10**16 + 10**8, 10**16 + 10**4, 10**16 + 1]
    patterns = {format(d, "017d") for d in wanted}
    digits = [float(f"{d}e{e}") for d in wanted for e in range(-40, 40)]
    # only the doubles whose own 17 digits are the pattern
    digits = [x for x in digits if format(x, ".16e").replace(".", "")[:17] in patterns]
    assert {format(x, ".16e").replace(".", "")[:17] for x in digits} == patterns
    # 1, p - 1 zeros and the point, then m at digit place; at p = 17 no digit follows the point
    fixed = [10.0 ** (p - 1) + m * 10.0 ** (p - place) for p in range(2, 17) for place in range(p + 1, 18)
             for m in (1, 3)]
    return digits + fixed + [1e16, 1e16 + 2]


def test_block_formatter_matches_format_17g_byte_for_byte():
    rng = np.random.default_rng(17)
    decades = [float(f"1e{k}") for k in range(-320, 309)]
    values = np.concatenate([
        # every bit pattern: subnormals, inf and nan among them
        rng.integers(0, 2**64, 60_000, dtype=np.uint64).view(np.float64),
        decades,
        np.nextafter(decades, np.inf),
        np.nextafter(decades, 0),
        [9.9999999999999995e-05, 0.0, -0.0, 1e16, 1e17, 2.0**53, 2.0**53 + 2],
        # exact ties, which the digits round half to even
        np.arange(26215, 262144, 2) / 2**18,
        [j / 2.0**24 for j in range(3, 16, 2)] + [1 / 2.0**25, 3 / 2.0**25],
        _near_ties(),
        # integer-valued floats up to 1e17, and every fixed and exponent layout of "%.17g"; the
        # block formatter writes those below 10, and the fallback those of 10 or more
        [float(10**k + j) for k in range(18) for j in (-1, 0, 1)],
        _digit_patterns(),
        np.round(rng.uniform(0, 1e17, 5_000) / 10.0 ** rng.integers(0, 17, 5_000)),
        rng.standard_normal(20_000) * 10.0 ** rng.integers(-30, 30, 20_000),
    ])
    assert values.size > 200_000
    line = ",".join(["%.17g"] * 64) + "\n"
    table = np.resize(values, (-(-values.size // 64), 64))
    for start in range(0, len(table), 64):
        rows = list(table[start : start + 64])
        assert frontks.cli._g17_lines(rows, line) == _g17_reference(rows)
    # Python numbers convert to float64 as "%.17g" converts them; 10**20 has no int64, and its
    # block is formatted row by row
    for special in ([2**53 + 1, True, np.float64(1 / 3), -0.0, 0, -7, 123456789012345678, 1.5],
                    [10**20, 2**53 + 1, True, np.float64(1 / 3), -0.0, 0, -7, 0.1]):
        rows = [special] * 64
        assert frontks.cli._g17_lines(rows, ",".join(["%.17g"] * 8) + "\n") == _g17_reference(rows)


def test_the_block_formatter_writes_only_fields_below_10_itself():
    inside = [0.0, 1e-250, 1.0, 9.999999999999998, -9.999999999999998]
    outside = [10.0, -10.0, 10.000000000000002, 99.99999999999999, 1e16, 1e17, 1e250, 1.7976931348623157e308]
    _, _, exact = frontks.cli._decimal17(np.array(inside + outside))
    assert exact.tolist() == [True] * len(inside) + [False] * len(outside)
    # fields at and above 10 go to "%.17g" in the same block as the fields below it
    rows = [inside + outside] * 64
    assert len(rows) * len(rows[0]) >= frontks.cli._MIN_BLOCK_VALUES
    line = ",".join(["%.17g"] * len(rows[0])) + "\n"
    assert frontks.cli._g17_lines(rows, line) == _g17_reference(rows)


@pytest.mark.parametrize("width", [7, 9])
def test_ragged_rows_raise_the_format_error_not_a_config_error(width):
    # a ragged block makes no array; the row that does not fit the line raises as "%" does
    line = ",".join(["%.17g"] * 8) + "\n"
    rows = [[0.5] * 8] * 63 + [[0.5] * width]
    assert len(rows) * 8 >= frontks.cli._MIN_BLOCK_VALUES
    with pytest.raises(TypeError) as want:
        line % tuple(rows[-1])
    with pytest.raises(TypeError) as got:
        frontks.cli._g17_lines(rows, line)
    assert str(got.value) == str(want.value)


def test_write_csv_keeps_a_str_column_str_in_a_block_without_str(tmp_path):
    # the column's type comes from the first row: a later block of floats there prints them with %s
    rows = [["label", 0.1]] + [[0.1, 0.1]] * (2 * frontks.cli._BLOCK_VALUES)
    path = tmp_path / "rows.csv"
    write_csv(str(path), ["a", "b"], iter(rows))
    assert path.read_text().split("\n", 1)[1] == "label,0.10000000000000001\n" + "0.1,0.10000000000000001\n" * (
        len(rows) - 1
    )


_ROWS_PER_BLOCK = frontks.cli._BLOCK_VALUES // 129


@pytest.mark.parametrize("n_rows", [0, _ROWS_PER_BLOCK - 1, _ROWS_PER_BLOCK, _ROWS_PER_BLOCK + 1,
                                    2 * _ROWS_PER_BLOCK + 1])
def test_write_csv_bytes_do_not_depend_on_block_boundaries(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    table = rng.standard_normal((n_rows, 129)) * 10.0 ** rng.integers(-20, 20, (n_rows, 129))
    table[::3, 5] = 0.0
    table[1::5, 7] = np.nan
    table[2::7, 9] = -np.inf
    header = [f"c{k}" for k in range(129)]
    path = tmp_path / "rows.csv"
    write_csv(str(path), header, (row for row in table))  # a one-pass iterator of array rows
    assert path.read_text() == ",".join(header) + "\n" + _g17_reference(table.tolist())


@pytest.mark.parametrize("label", [False, True])
def test_write_csv_mixed_rows_across_a_block_boundary(tmp_path, label):
    mixed = [
        [3, 0.1, np.float64(-2.5e-7), float("nan")],
        [-12, float("inf"), np.float64(float("-inf")), -0.0],
        [10**20, 1e-300, np.float64(1 / 3), np.float64(float("nan"))],
    ]
    fill = [[k, k / 7, -k * 1e-9, 2.0**-k] for k in range(frontks.cli._BLOCK_VALUES // 4 + 5)]
    # the mixed rows are the last of the first block and the first of the second
    rows = fill[: len(fill) - 7] + mixed + fill[-4:]
    if label:  # a str column: written row by row
        rows = [[f"r{i}", *row] for i, row in enumerate(rows)]
    path = tmp_path / "rows.csv"
    write_csv(str(path), ["a", "b", "c", "d", "e"][: len(rows[0])], iter(rows))
    want = "".join(",".join(v if isinstance(v, str) else format(v, ".17g") for v in row) + "\n" for row in rows)
    assert path.read_text().split("\n", 1)[1] == want


def test_write_csv_formats_zeros_inf_and_nan_without_floating_point_warnings(tmp_path):
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    rows = [special] * 64
    path = tmp_path / "rows.csv"
    with np.errstate(all="raise"):
        write_csv(str(path), [f"c{k}" for k in range(8)], rows)
    assert path.read_text().split("\n", 1)[1] == _g17_reference(rows)


def test_csv_writing_peak_depends_on_the_block_not_the_trajectory(tmp_path, monkeypatch):
    # a stand-in trajectory of random coefficients, so only the writing costs time
    peaks = {}
    block = frontks.cli._BLOCK_VALUES

    def fake_evolve(config):
        n = key[0]
        coeffs = np.random.default_rng(n).standard_normal((n, 128)) * 1e-3
        return Trajectory(config.descriptor, np.arange(n) * 1e-3, coeffs, {"l2": [], "zero_mean_l2": []})

    def traced_write_csv(path, header, rows, _write=frontks.cli.write_csv):
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        _write(path, header, rows)
        peaks[key] = tracemalloc.get_traced_memory()[1] - held

    monkeypatch.setattr(frontks.cli, "evolve", fake_evolve)
    monkeypatch.setattr(frontks.cli, "write_csv", traced_write_csv)
    frontks.cli._field_tables()  # built once per process, outside the peaks compared
    argv = ["evolve-rescaled", "--ell0", "31.41592653589793", "--epsilon", "0.04", "--n-modes", "128",
            "--t-end", "0.001", "--dt", "0.001"]
    tracemalloc.start()
    try:
        for key in [(16001, block), (2001, block), (2001, block // 2)]:
            monkeypatch.setattr(frontks.cli, "_BLOCK_VALUES", key[1])
            assert main([*argv, "--out", str(tmp_path / f"{key[0]}-{key[1]}")]) == EXIT_OK
    finally:
        tracemalloc.stop()
    # 8x the snapshots, the same peak; half the block, a smaller one
    assert peaks[(16001, block)] < 1.2 * peaks[(2001, block)]
    assert peaks[(2001, block // 2)] < 0.75 * peaks[(2001, block)]
    assert peaks[(16001, block)] < 16001 * 128 * 8 / 16


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


def test_evolve_writes_its_trajectory_one_row_at_a_time(tmp_path, monkeypatch):
    # 2001 snapshots of 64 modes: handed to the writer as one list of Python floats,
    # they would take about four times the coefficient array on top of it
    argv = ["evolve-rescaled", "--ell0", "31.41592653589793", "--epsilon", "0.04", "--n-modes", "64",
            "--t-end", "2", "--dt", "0.001"]
    ran = {}

    def evolve(config, _evolve=frontks.cli.evolve):
        ran["traj"] = _evolve(config)
        tracemalloc.reset_peak()  # from here on, what is allocated is the writing's
        ran["held"] = tracemalloc.get_traced_memory()[0]
        return ran["traj"]

    monkeypatch.setattr(frontks.cli, "evolve", evolve)
    out = tmp_path / "run"
    tracemalloc.start()
    try:
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1] - ran["held"]
    finally:
        tracemalloc.stop()
    traj = ran["traj"]
    assert traj.coeffs.shape == (2001, 64)
    assert peak < 2 * traj.coeffs.nbytes
    want = tmp_path / "want.csv"
    header = (out / "trajectory.csv").read_text().split("\n", 1)[0].split(",")
    write_csv(str(want), header, np.column_stack([traj.times, traj.coeffs]).tolist())
    assert (out / "trajectory.csv").read_bytes() == want.read_bytes()


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


def test_stability_scan_rejects_an_amplitude_whose_squares_underflow(tmp_path, monkeypatch, capsys):
    # at 1e-300 every squared coefficient is 0, so alpha = 3 > alpha_c = 2 would read "stable" at rate -inf
    evolved = []
    original = frontks.experiments.evolve

    def counted(config):
        evolved.append(config)
        return original(config)

    monkeypatch.setattr(frontks.experiments, "evolve", counted)
    argv = [
        "stability-scan", "--ell", "12.566370614359172", "--n-modes", "16",
        "--alphas", "1.5,3", "--t-end", "1", "--dt", "0.01",
    ]
    rc = main([*argv, "--amplitude", "1e-300", "--out", str(tmp_path / "tiny")])
    assert rc == EXIT_CONFIG
    assert evolved == []
    (violation,) = json.loads(capsys.readouterr().err)["violations"]
    assert violation.startswith("amplitude too small")
    assert not (tmp_path / "tiny").exists()
    # just above the floor the verdicts are right
    rc = main([*argv, "--amplitude", "1e-150", "--out", str(tmp_path / "small")])
    assert rc == EXIT_OK
    header, rows = _read_csv(tmp_path / "small" / "scan.csv")
    assert [row[header.index("verdict")] for row in rows] == ["stable", "unstable"]
    assert all(math.isfinite(float(row[header.index("measured_rate")])) for row in rows)


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


@pytest.mark.parametrize("k,coefficients", [(0, set()), (1, {"c1", "c2", "nu"})])
def test_profiles_reports_the_free_constants_of_the_tails_only(k, coefficients, tmp_path):
    out = tmp_path / "prof"
    argv = ["profiles", "--ell", "6.283185307179586", "--alpha", "1", "--k", str(k), "--phi", "1"]
    assert main([*argv, "--phiy-sq", "0.3", "--out", str(out)]) == EXIT_OK
    res = json.loads((out / "residuals.json").read_text())
    assert res["k"] == k
    assert {"c1", "c2", "nu"} & set(res) == coefficients
    assert res["boundary_residual"] < 1e-15 and res["flux_residual"] < 1e-15


def test_profiles_at_a_long_period_reports_its_residuals(tmp_path):
    # lam ~ 4e-11: nu - 1 must not come from 1 - nu, which keeps 6 digits there
    out = tmp_path / "prof"
    argv = ["profiles", "--ell", "1e6", "--alpha", "1", "--k", "1", "--phi", "1", "--phiy-sq", "0.3"]
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    res = json.loads((out / "residuals.json").read_text())
    residuals = [res[key] for key in ("boundary_residual", "flux_residual", "v_continuity")]
    assert all(math.isfinite(r) for r in residuals)
    # v(0-) and v_x(0-) are sums of O(1/lam) terms, so about 1e-16/lam of them is round-off
    assert max(residuals) < 1e-4
    header, rows = _read_csv(out / "profile.csv")
    assert len(rows) == 301 and all(math.isfinite(float(v)) for row in rows for v in row)


def test_profiles_rejects_a_period_whose_eigenvalue_overflows(tmp_path, capsys):
    out = tmp_path / "prof"
    rc = main(["profiles", "--ell", "1e-300", "--alpha", "1", "--k", "1", "--phi", "1", "--out", str(out)])
    assert rc == EXIT_CONFIG
    [violation] = json.loads(capsys.readouterr().err)["violations"]
    assert "'ell'" in violation and "'k'" in violation
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--ell", "1e-100", "--k", "1"],
    ["--ell", "6.28", "--k", "1" + "0" * 400],
], ids=["short-period", "huge-k"])
def test_profiles_rejects_a_mode_above_the_eigenvalue_bound(argv, tmp_path, capsys):
    # 4 lam^2 past the float range: phi_t from the front law, and so every residual, would not be finite
    out = tmp_path / "prof"
    assert main(["profiles", *argv, "--alpha", "1", "--phi", "1", "--out", str(out)]) == EXIT_CONFIG
    [violation] = json.loads(capsys.readouterr().err)["violations"]
    assert "'ell'" in violation and "'k'" in violation
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["symbols", "--ell", "1e-100", "--n-modes", "3", "--alpha", "1"],
    ["symbols", "--ell", "1e-300", "--n-modes", "3", "--epsilon", "0.5"],
    ["stability-scan", "--ell", "1e-300", "--n-modes", "5", "--alphas", "1", "--t-end", "0.1", "--dt", "0.1"],
    ["stability-scan", "--ell", "1e-100", "--n-modes", "5", "--alphas", "1", "--t-end", "0.1", "--dt", "0.1"],
    ["evolve-ks", "--ell0", "1e-300", "--n-modes", "5", "--t-end", "0.1", "--dt", "0.1"],
    ["galerkin", "--ell", "1e-300", "--n-list", "5,7", "--t-end", "0.1", "--dt", "0.1"],
], ids=["symbols-alpha", "symbols-epsilon", "scan-1e-300", "scan-1e-100", "evolve-ks", "galerkin"])
def test_a_period_too_short_for_floats_is_a_config_error(argv, tmp_path, monkeypatch, capsys):
    # the stiffness is quadratic in lam: past the bound the tables and runs would hold inf and nan
    evolved = []
    for module in (frontks.cli, frontks.experiments):
        monkeypatch.setattr(module, "evolve", lambda config: evolved.append(config))
    assert main([*argv, "--out", str(tmp_path / "run")]) == EXIT_CONFIG
    [violation] = json.loads(capsys.readouterr().err)["violations"]
    assert "has an eigenvalue above" in violation
    assert evolved == []
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv,message", [
    (["profiles", "--ell", "1e200", "--alpha", "1", "--k", "1", "--phi", "1"], "period must be positive"),
    (["stability-scan", "--ell", "1e200", "--n-modes", "5", "--alphas", "1", "--t-end", "0.1", "--dt", "0.1"],
     "period must be positive"),
    (["evolve-ks", "--ell0", "1e200", "--n-modes", "5", "--t-end", "0.1", "--dt", "0.1"], "period must be positive"),
    (["evolve-ks", "--ell0", "1e-60", "--n-modes", "5", "--t-end", "0.1", "--dt", "0.1"], "below 1e100"),
    (["evolve-front", "--ell", "1e-60", "--alpha", "1", "--n-modes", "5", "--t-end", "0.1", "--dt", "0.1"],
     "below 1e100"),
], ids=["profiles-long", "scan-long", "evolve-ks-long", "evolve-ks-stiff", "evolve-front-stiff"])
def test_a_period_whose_numbers_leave_the_floats_is_a_config_error(argv, message, tmp_path, capsys):
    # at 1e200 lam_1 underflows to 0; at 1e-60 the stepper's z**3 of z = dt L overflows
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
    [violation] = json.loads(capsys.readouterr().err)["violations"]
    assert message in violation
    assert not out.exists()


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
    assert violation.startswith("epsilon must lie in (0, 1]")


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
    ("--epsilon", "0", "epsilon"), ("--epsilon", "1.5", "epsilon"),
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


# a short slow-frame run on ell0 = 10 pi
SLOW_RUN = ["--ell0", "31.41592653589793", "--n-modes", "16", "--t-end", "0.1", "--dt", "0.01"]
EPSILON_ZERO = "epsilon must lie in (0, 1], got 0.0"


@pytest.mark.parametrize("argv,violation", [
    (["evolve-rescaled", *SLOW_RUN, "--epsilon", "0"], EPSILON_ZERO),
    (["galerkin", "--ell", "31.41592653589793", "--n-list", "16,32", "--t-end", "0.1", "--dt", "0.01",
      "--equation", "rescaled", "--epsilon", "0"], EPSILON_ZERO),
    (["convergence", *SLOW_RUN, "--epsilons", "0.1,0"], EPSILON_ZERO),
    (["energy", *SLOW_RUN, "--epsilon", "0"], EPSILON_ZERO),
    (["symbols", "--ell", "31.41592653589793", "--n-modes", "16", "--epsilon", "0"], EPSILON_ZERO),
    (["convergence", *SLOW_RUN, "--epsilons", "0.01,0.02"], "epsilons must be strictly decreasing"),
], ids=["evolve-rescaled", "galerkin", "convergence", "energy", "symbols", "convergence-increasing"])
def test_every_epsilon_study_takes_epsilon_in_the_unit_interval_alone(
    argv, violation, tmp_path, monkeypatch, capsys
):
    # eps = 0 is the K-S equation, which evolve-ks and equation = ks run
    evolved = []
    for module in (frontks.cli, frontks.experiments):
        monkeypatch.setattr(module, "evolve", lambda config: evolved.append(config))
    rc = main([*argv, "--out", str(tmp_path / "run")])
    assert rc == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["violations"] == [violation]
    assert evolved == []
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv,violation", [
    (["stability-scan", "--ell", "12.56", "--n-modes", "16", "--alphas", "2", "--t-end", "0.1",
      "--dt", "0.01", "--seed", "-1"], "seed must be non-negative, got -1"),
    (["evolve-ks", *SLOW_RUN, "--seed", "-3"], "seed must be non-negative, got -3"),
    (["galerkin", "--ell", "31.4", "--n-list", "0,16", "--t-end", "0.1", "--dt", "0.01"],
     "n_list truncations must have at least 3 modes, got [0, 16]"),
    (["evolve-ks", *SLOW_RUN, "--ic", "bogus"], "key 'ic': expected 'random' or 'cosine', got 'bogus'"),
    (["evolve-ks", *SLOW_RUN, "--output-stride", "0"], "output_stride must be a positive integer"),
    (["galerkin", "--ell", "31.4", "--n-list", "16,32", "--t-end", "0.1", "--dt", "0.01", "--equation", "bogus"],
     "key 'equation': expected ks|front|rescaled, got 'bogus'"),
    ([*PROFILE[:-1], "-1", "--phi", "1"], "key 'k': must be non-negative"),
], ids=["stability-scan-seed", "evolve-ks-seed", "galerkin-n-list", "evolve-ks-ic", "evolve-ks-output-stride",
        "galerkin-equation", "profiles-k"])
def test_config_errors_name_their_key(argv, violation, tmp_path, monkeypatch, capsys):
    evolved = []
    for module in (frontks.cli, frontks.experiments):
        monkeypatch.setattr(module, "evolve", lambda config: evolved.append(config))
    rc = main([*argv, "--out", str(tmp_path / "run")])
    assert rc == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["violations"] == [violation]
    assert evolved == []
    assert not (tmp_path / "run").exists()


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


def _json_reference(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=lambda o: o.tolist()) + "\n"


# a small run of every subcommand, each writing a JSON file
JSON_RUNS = {
    **{name: runs[0] for name, runs in REPORT_RUNS.items()},
    "symbols": ["--ell", "31.41592653589793", "--n-modes", "8", "--epsilon", "0.1"],
    "evolve-front": ["--ell", "6.283185307179586", "--n-modes", "8", "--alpha", "1.0", "--t-end", "0.1",
                     "--dt", "0.01", "--ic", "random", "--amplitude", "1e-3", "--seed", "2"],
    "evolve-ks": ["--ell0", "31.41592653589793", "--n-modes", "8", "--t-end", "0.1", "--dt", "0.01"],
    "evolve-rescaled": ["--ell0", "31.41592653589793", "--epsilon", "0.04", "--n-modes", "8",
                        "--t-end", "0.1", "--dt", "0.01"],
    "profiles": ["--ell", "6.283185307179586", "--alpha", "1.0", "--k", "1", "--phi", "1.0",
                 "--phiy-sq", "0.3", "--x-count", "5"],
}


@pytest.mark.parametrize("subcommand", sorted(STUDIES))
def test_every_json_output_is_the_text_of_json_dump(subcommand, tmp_path, monkeypatch):
    written = []

    def checked_write_json(path, payload, _write=frontks.cli.write_json):
        _write(path, payload)
        written.append(path)
        assert pathlib.Path(path).read_text() == _json_reference(payload)

    monkeypatch.setattr(frontks.cli, "write_json", checked_write_json)
    assert main([subcommand, *JSON_RUNS[subcommand], "--out", str(tmp_path / "out")]) == EXIT_OK
    assert written


# every subcommand that steps, each run long enough to reach its fits: the scan's
# rate fit needs three snapshots in its window, the convergence order two epsilons
STEPPING_RUNS = {
    **{name: JSON_RUNS[name] for name in STUDIES if name not in ("symbols", "profiles")},
    "convergence": ["--ell0", "31.41592653589793", "--n-modes", "16", "--t-end", "0.2", "--dt", "0.01",
                    "--epsilons", "0.1,0.05"],
}


@pytest.mark.parametrize("subcommand", sorted(STEPPING_RUNS))
def test_no_study_calls_lapack_or_a_sort(subcommand, tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a study called LAPACK or a sort")

    for module, name in ((np, "polyfit"), (np.linalg, "lstsq"), (np.linalg, "svd"), (np, "unique")):
        monkeypatch.setattr(module, name, fail)
    out = tmp_path / "out"
    assert main([subcommand, *STEPPING_RUNS[subcommand], "--out", str(out)]) == EXIT_OK
    fit = {"stability-scan": "measured_rates", "convergence": "fitted_order"}.get(subcommand)
    if fit:
        assert np.all(np.isfinite(json.loads((out / "report.json").read_text())[fit]))


@pytest.mark.parametrize("payload", [
    {},
    [],
    {"empty": [], "nothing": {}, "deeper": [[], {}, [[]], ()]},
    {"nested": {"b": [1, 2.5], "a": {"c": [[1.0, 2.0], [3.0, 4.0]]}}, "grid": np.arange(6.0).reshape(2, 3)},
    {"special": [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e300, 10**30]},
    {"numpy": [np.float64(1 / 3), np.int64(-4), np.bool_(True)], "scalars": (np.float64(0.1), np.bool_(False))},
    {"mixed": [1.5, 2, True, False, None, "x"], "tuple": (1, 2.0), "column": np.zeros((0, 3))},
    {"escapes": ["quote \" backslash \\ tab \t nul \0", "\u00e9\u2603\U0001f600", "line\nbreak"]},
    {3: "int key", 2.5: "float key", True: "bool key"},
    {None: [0.5]},
], ids=lambda payload: "-".join(map(str, payload)) or "empty")
def test_write_json_writes_the_text_of_json_dump(payload, tmp_path):
    path = tmp_path / "out.json"
    frontks.cli.write_json(str(path), payload)
    assert path.read_text() == _json_reference(payload)


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


def test_galerkin_cli_with_one_truncation_is_a_config_error(tmp_path, monkeypatch, capsys):
    # one truncation has no neighbour, so no gap would be measured
    evolved = []
    monkeypatch.setattr(frontks.experiments, "evolve", lambda config: evolved.append(config))
    rc = main([
        "galerkin", "--ell", "80", "--n-list", "32", "--t-end", "0.1", "--dt", "0.01",
        "--out", str(tmp_path / "gal"),
    ])
    assert rc == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["violations"] == [
        "n_list must hold at least two truncations to compare, got [32]"
    ]
    assert evolved == []
    assert not (tmp_path / "gal").exists()


def test_galerkin_cli_front_requires_alpha(tmp_path, capsys):
    rc = main([
        "galerkin", "--ell", "12.56", "--n-list", "16,32", "--equation", "front",
        "--t-end", "0.1", "--dt", "0.01", "--out", str(tmp_path),
    ])
    assert rc == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert any("alpha" in v for v in err["violations"])


@pytest.mark.parametrize("equation,extra,unused", [
    ("ks", ["--alpha", "3"], ["alpha"]),
    ("ks", ["--alpha", "3", "--epsilon", "0.1"], ["alpha", "epsilon"]),
    ("front", ["--alpha", "3", "--epsilon", "0.1"], ["epsilon"]),
    ("rescaled", ["--epsilon", "0.1", "--alpha", "3"], ["alpha"]),
])
def test_galerkin_cli_rejects_a_parameter_its_equation_does_not_take(equation, extra, unused, tmp_path, capsys):
    out = tmp_path / "gal"
    rc = main([
        "galerkin", "--ell", "31.4", "--n-list", "16,32", "--t-end", "0.1", "--dt", "0.01",
        "--equation", equation, *extra, "--out", str(out),
    ])
    assert rc == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["violations"] == [
        f"key '{key}' is not a parameter of equation={equation}" for key in unused
    ]
    assert not out.exists()


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
    # above MATRIX_MAX_MODES every nonlinear call is one irfft and one rfft, looked
    # up on np.fft when it runs, whether the stepper was built before or after
    calls.clear()
    stepper = Etdrk4(frontks.make_ks_equation(frontks.make_grid(80.0, 160)), 0.002)
    count(np.fft, "rfft")
    count(np.fft, "irfft")
    stepper.step_coeffs(np.ones(160))
    assert calls == {"step_coeffs": 1, "nonlinear": 4, "rfft": 4, "irfft": 4}
    calls.clear()
    rc = main([
        "galerkin", "--equation", "ks", "--ell", "80", "--n-list", "130,160", "--amplitude", "12.7",
        "--t-end", "0.01", "--dt", "0.002", "--out", str(tmp_path / "ladder"),
    ])
    assert rc == EXIT_OK
    assert calls == {
        "experiments.evolve": 2, "write_csv": 1, "step_coeffs": 2 * 5, "nonlinear": 4 * 2 * 5,
        "rfft": 4 * 2 * 5, "irfft": 4 * 2 * 5,
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


_EVOLVE_DEFAULTS = {
    "output_stride": 1, "ic": "random", "amplitude": 0.001, "seed": 0, "harmonic": 1,
}

# subcommand -> (required keys in reporting order, defaults of the optional keys)
CONFIG_SURFACE = {
    "symbols": (["ell", "n_modes"], {"alpha": None, "epsilon": None}),
    "evolve-front": (["ell", "alpha", "n_modes", "t_end", "dt"], _EVOLVE_DEFAULTS),
    "evolve-ks": (["ell0", "n_modes", "t_end", "dt"], _EVOLVE_DEFAULTS),
    "evolve-rescaled": (["ell0", "epsilon", "n_modes", "t_end", "dt"], _EVOLVE_DEFAULTS),
    "profiles": (
        ["ell", "alpha", "k", "phi"],
        {"phiy_sq": 0.0, "x_min": -10.0, "x_max": 5.0, "x_count": 301},
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
        {"amplitude": 0.1, "harmonic": 1, "output_stride": 10},
    ),
    "ks-apriori": (
        ["ell0", "n_modes", "t_end", "dt"],
        {"amplitude": 0.1, "harmonic": 1, "output_stride": 10},
    ),
    "galerkin": (
        ["ell", "n_list", "t_end", "dt"],
        {"equation": "ks", "alpha": None, "epsilon": None, "amplitude": 1.0, "harmonic": 1, "output_stride": 10},
    ),
}


# key -> the kind --help prints for it, the name of its parser
KEY_KINDS = {
    "ell": "float", "ell0": "float", "n_modes": "int", "n_list": "ints", "equation": "str",
    "alpha": "float", "alphas": "floats", "epsilon": "float", "epsilons": "floats",
    "t_end": "float", "dt": "float", "output_stride": "int", "ic": "str", "amplitude": "float",
    "seed": "int", "harmonic": "int", "k": "int", "phi": "float", "phiy_sq": "float",
    "x_min": "float", "x_max": "float", "x_count": "int",
}


def test_help_pins_the_kind_of_every_key(capsys):
    assert main(["--help"]) == EXIT_OK
    kinds = {}
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("  --"):
            flag, kind = line.split()[:2]
            kinds.setdefault(flag[2:].replace("-", "_"), set()).add(kind)
    assert kinds == {key: {kind} for key, kind in KEY_KINDS.items()}
    assert main(["stability-scan", "--help"]) == EXIT_OK
    assert "  --alphas        floats  front parameters to scan (required)\n" in capsys.readouterr().out


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
