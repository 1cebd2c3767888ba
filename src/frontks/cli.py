"""Command-line entry point: config handling, seeded runs, CSV/JSON reports.

Configs are flat ``key = value`` text files, each key at most once; the
arguments after the subcommand are such lines too (``--x-min -1e1`` or
``--x-min=-1e1`` is ``x_min = -1e1``), flags override file values, and both
are parsed by one parser, which takes only finite numbers.  ``--help`` lists
the keys.  Errors are a JSON object on stderr: a malformed line or flag
alone, the schema's problems (unknown keys included) at once, a study's own
checks one at a time.  Exit codes: 0 success, 2 config error, 3 numerical
blowup (after the outputs are written), 4 I/O error, such as an ``--out``
holding files the run would not rewrite.  Identical config + seed
reproduces byte-identical CSV output (floats are written with 17
significant digits).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .evolve import (
    SolverConfig,
    evolve,
    make_front_equation,
    make_ks_equation,
    make_rescaled_equation,
)
from .grid import SpectralField, cosine_field, eigenvalue, make_grid, random_zero_mean_field
from .symbols import build_rescaled_symbols, build_symbols, verify_symbol_bounds

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_IO = 4

OUTPUT_DIR_ENV = "FRONTKS_OUTDIR"


# values formatted per block of rows: fewer make the numpy calls' overhead show;
# more make a block's largest arrays (32 bytes a value) pass the 128 KiB above
# which glibc's malloc maps fresh pages, which measured as a higher peak RSS
_BLOCK_VALUES = 3072
# a block of fewer values is written row by row: there the ~110 numpy calls
# of _g17_fields cost more than the per-value formatting they save
_MIN_BLOCK_VALUES = 384


def write_csv(path: str, header: list[str], rows) -> None:
    """Header line, then one line per row: str as is, numbers to 17 significant digits.

    Each column keeps the type of its first row, so one %-format built from
    that row serves every line.  Every table is written a block of rows at a
    time, each block one write.
    """
    rows = iter(rows)
    first = next(rows, None)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        if first is None:
            return
        line = ",".join("%s" if isinstance(v, str) else "%.17g" for v in first) + "\n"
        rows = itertools.chain([first], rows)
        size = max(1, _BLOCK_VALUES // max(1, len(first)))
        while block := list(itertools.islice(rows, size)):
            fh.write(_g17_lines(block, line))


def _g17_lines(rows: list, line: str) -> str:
    """``"".join(line % tuple(row) for row in rows)``.

    With ``line`` all %.17g fields, rows that make a 2-D array of bools, ints
    or floats, at least ``_MIN_BLOCK_VALUES`` of them, are formatted from
    ``_g17_fields``; any others (a %s column, ragged, ``None``, ints past 64
    bits) by ``line`` itself, so they print or raise as they always did.
    """
    n_cols = line.count("%")
    # a %s column stays str(value) in every block, even one that holds no str
    if "%s" not in line and len(rows) * n_cols >= _MIN_BLOCK_VALUES:
        try:
            values = np.array(rows)
        except ValueError:  # ragged rows
            values = None
        if values is not None and values.dtype.kind in "biuf" and values.shape == (len(rows), n_cols):
            text = _g17_fields(values.astype(np.float64, copy=False)).tobytes()
            return text.translate(None, b"\0").decode("ascii")
    return "".join(line % tuple(row) for row in rows)


_SPLIT = 134217729.0  # 2**27 + 1: Dekker's splitter for a 53-bit significand


@functools.cache  # one entry per exponent used, at most -235..267
def _pow10(s: int) -> tuple[float, float, float, float]:
    """10**s as c + rest, each the double nearest to what it stands for, and c's two halves."""
    if s >= 0:
        c = float(10**s)
        rest = float(10**s - int(c))
    else:
        num, den = (1 / 10**-s).as_integer_ratio()
        c = num / den
        rest = (den - num * 10**-s) / (den * 10**-s)
    t = _SPLIT * c
    upper = t - (t - c)
    return c, rest, upper, c - upper


@functools.lru_cache(maxsize=256)  # a trajectory's blocks span a few ranges of exponents
def _pow10_parts(e_max: int, e_min: int) -> np.ndarray:
    """The ``_pow10(16 - e)`` of e = e_max, e_max - 1, ..., e_min as four rows."""
    return np.array([_pow10(16 - e) for e in range(e_max, e_min - 1, -1)]).T


def _decimal17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits of each |x|, D 10**(e - 16) with 1e16 <= D < 1e17.

    Returns D (int64), e, and where D is exact: for every finite x with
    1e-250 <= |x| <= 1e250 but the near-ties.  A zero gives D = 0, e = 0.
    With e a guess of floor(log10|x|), P = |x| 10**(16 - e) is formed as
    p + lo: p and its rounding error from Dekker's exact product of |x| with
    the double nearest 10**(16 - e), plus |x| times the rest of that power.
    p + lo is within P 2**-100 < 1e-13 of P, so its nearest integer is D
    unless P is within 1e-9 of a half-integer: those near-ties are not exact
    here.  A guess one off puts P outside [1e16, 1e17), and P is formed again
    with e corrected; a D that rounds up to 1e17 is 1e16 with e + 1.
    """
    ax = np.abs(x)
    exact = (ax >= 1e-250) & (ax <= 1e250)
    ax[~exact] = 1.0
    exact |= x == 0
    e10 = np.floor(np.log10(ax)).astype(np.int64)
    upper = _SPLIT * ax
    upper -= upper - ax
    lower = ax - upper

    def scaled(e10):
        e_max = int(e10.max())
        parts = _pow10_parts(e_max, int(e10.min()))
        c, c_rest, c_upper, c_lower = np.take(parts, e_max - e10, axis=1)
        p = ax * c
        err = ((upper * c_upper - p) + upper * c_lower + lower * c_upper) + lower * c_lower
        return p, err + ax * c_rest

    p, lo = scaled(e10)
    low = (p - 1e16) + lo < 0
    high = (p - 1e17) + lo >= 0
    if low.any() or high.any():
        e10 += high
        e10 -= low
        p, lo = scaled(e10)
    # p >= 2**53 is an integer, so the rounding happens in lo alone
    nearest = np.rint(lo)
    exact &= np.abs(np.abs(lo - nearest) - 0.5) > 1e-9
    d = p.astype(np.int64) + nearest.astype(np.int64)
    carry = d == 10**17
    d[carry] = 10**16
    e10 += carry
    d[x == 0] = 0
    return d, e10, exact


# A field is four 8-byte words, NUL-padded: sign, "0." and zeros, the first
# digit and the point; digits 2-9; digits 10-17; the exponent and separator.
_EXPONENTS = 256  # e10's last word is row e10 + 256 (-256 <= e10 <= 256); none if -4 <= e10 < 17


@functools.cache
def _field_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The words of a field: first words (uint64), four digits (uint32), last words (uint64).

    First word of sign s, point p, first digit f and c = clip(e10, -5, 0):
    row ((s * 6 - c) * 2 + p) * 10 + f; -4 <= c <= -1 puts "0." and -c - 1
    zeros before f, and no point.  Four digits g: row g with their trailing
    zeros dropped, row g + 10000 with all four.  Last words: see ``_EXPONENTS``.
    """
    # built by assignment alone, so that building them pages in none of numpy's
    # arithmetic loops (each one measured as up to 128 KiB more peak RSS)
    digits = np.frombuffer(b"0123456789", np.uint8)
    first = np.zeros((2, 6, 2, 10, 8), np.uint8)
    first[1, ..., 0] = ord("-")
    heads = np.array([b"", b"0.", b"0.0", b"0.00", b"0.000", b""], "S5").view(np.uint8)
    first[..., 1:6] = heads.reshape(6, 1, 1, 5)
    first[..., 6] = digits
    first[:, ::5, 1, :, 7] = ord(".")
    groups = np.empty((2, 10, 10, 10, 10, 4), np.uint8)
    for place in range(4):
        groups[..., place] = digits.reshape((10,) + (1,) * (3 - place))
    # in groups[0] a digit is dropped if it and every digit after it are 0
    stripped = groups[0]
    stripped[..., 0, 3] = 0
    stripped[..., 0, 0, 2] = 0
    stripped[:, 0, 0, 0, 1] = 0
    stripped[0, 0, 0, 0, 0] = 0
    last = np.zeros((2 * _EXPONENTS + 1, 8), np.uint8)
    last[:, 0] = ord("e")
    last[:_EXPONENTS, 1] = ord("-")
    last[_EXPONENTS:, 1] = ord("+")
    last[:, 2:5] = groups[1].reshape(10000, 4)[np.r_[_EXPONENTS:0:-1, : _EXPONENTS + 1], 1:]
    last[_EXPONENTS - 99 : _EXPONENTS + 100, 2] = 0
    last[_EXPONENTS - 4 : _EXPONENTS + 17, :5] = 0
    last[:, 5] = ord(",")
    return (
        first.view(np.uint64).reshape(-1),
        groups.view(np.uint32).reshape(-1),
        last.view(np.uint64).reshape(-1),
    )


def _g17_fields(values: np.ndarray) -> np.ndarray:
    """The "%.17g" CSV fields of a 2-D float64 array, as 32 NUL-padded bytes each.

    Digits come from ``_decimal17``; where those are not exact (nan, inf,
    nonzero |x| < 1e-250, |x| > 1e250, near-ties) "%.17g" itself writes the
    field.  Dropping the NULs leaves the CSV lines.
    """
    first_words, group_words, last_words = _field_tables()
    n_rows, n_cols = values.shape
    x = values.reshape(-1)
    d, e10, exact = _decimal17(x)
    # D is its first digit and four groups of four, taken from its two halves (int64
    # throughout: int32 loops would page in more of numpy's code)
    high = d // 10**8
    lead = high // 10**8
    groups = []
    for half in (high - lead * 10**8, d - high * 10**8):
        left = half // 10**4
        groups += [left, half - left * 10**4]
    words = np.empty((x.size, 4), np.uint64)
    quads = words.view(np.uint32)
    # a group's trailing zeros are dropped unless a nonzero digit follows it
    follows = np.zeros(x.size, bool)
    for k in (3, 2, 1, 0):
        quads[:, 2 + k] = group_words.take(groups[k] + 10**4 * follows)
        follows |= groups[k] != 0
    # "%g": fixed notation iff -4 <= e10 < 17; then the first digit follows
    # -e10 - 1 zeros after "0." (e10 < 0), or the point follows e10 + 1 digits;
    # the point is written if a nonzero digit follows it
    dot = follows
    if (moved := np.flatnonzero((e10 > 0) & (e10 < 17))).size:
        point = e10[moved] + 1
        dot[moved] = d[moved] % 10 ** (17 - point) != 0
    words[:, 0] = first_words.take(((np.signbit(x) * 6 - np.clip(e10, -5, 0)) * 2 + dot) * 10 + lead)
    words[:, 3] = last_words.take(e10 + _EXPONENTS)

    text = words.view(np.uint8)
    text.reshape(n_rows, n_cols, 32)[:, -1, 29] = ord("\n")
    if moved.size:
        # the point goes after digit point - 1: the digits it passes move one place
        # left, and those of them the digit words dropped as trailing zeros come back
        body = text[moved, 6:24]
        at = point[:, None]
        col = np.arange(18)
        passed = np.roll(body, -1, axis=1)
        passed[passed == 0] = ord("0")
        text[moved, 6:24] = np.where(
            (col >= 1) & (col < at), passed, np.where(col == at, body[:, 1:2], body)
        )
    if (redo := np.flatnonzero(~exact)).size:
        fields = np.array([b"%.17g" % v for v in x[redo].tolist()], dtype="S29")
        text[redo, :29] = fields.view(np.uint8).reshape(-1, 29)
    return text


def write_json(path: str, payload: dict) -> None:
    """The text of ``json.dump(payload, indent=2, sort_keys=True, default=tolist)``, then a newline.

    Each list or dict is one call of json's C encoder, not a Python step per item."""
    with open(path, "w") as fh:
        fh.write(_json_text(payload, "\n") + "\n")


_JSON_SCALARS = {str, int, float, bool, type(None)}


def _json_text(o, newline: str) -> str:
    """The text json's indent encoder writes for o, where newline opens o's own lines."""
    if isinstance(o, (str, int, float)) or o is None:
        return json.dumps(o)
    if not isinstance(o, (list, tuple, dict)):
        return _json_text(o.tolist(), newline)
    if not o:
        return "{}" if isinstance(o, dict) else "[]"
    inner = newline + "  "
    keys, values = zip(*sorted(o.items())) if isinstance(o, dict) else (None, o)
    # keys and scalars in one C-encoder call, each list or dict as null; split at raw newlines
    flat = [v if type(v) in _JSON_SCALARS else None for v in values]
    nested = [i for i, v in enumerate(values) if type(v) not in _JSON_SCALARS]
    text = json.dumps(dict(zip(keys, flat)) if keys else flat, separators=("," + inner, ": "))
    items = text[1:-1].split("," + inner) if nested else [text[1:-1]]
    for i in nested:
        items[i] = items[i][:-4] + _json_text(values[i], inner)
    return text[0] + inner + ("," + inner).join(items) + newline + text[-1]


# ---------------------------------------------------------------------------
# config schema and validation


# the list kinds: items separated by , or ;
def floats(raw: str) -> list[float]:
    return [float(p) for p in raw.replace(";", ",").split(",") if p.strip()]


def ints(raw: str) -> list[int]:
    return [int(p) for p in raw.replace(";", ",").split(",") if p.strip()]


# key -> (parser, help); the parser's name is the key's kind in --help and in parse errors
KEYS: dict[str, tuple[Callable[[str], object], str]] = {
    "ell": (float, "spatial period"),
    "ell0": (float, "spatial period of the slow frame"),
    "n_modes": (int, "basis truncation"),
    "n_list": (ints, "increasing basis truncations"),
    "equation": (str, "ks | front | rescaled"),
    "alpha": (float, "front parameter"),
    "alphas": (floats, "front parameters to scan"),
    "epsilon": (float, "slow-scale parameter"),
    "epsilons": (floats, "decreasing slow-scale parameters"),
    "t_end": (float, "final time"),
    "dt": (float, "time step"),
    "output_stride": (int, "snapshot every this many steps"),
    "ic": (str, "initial condition: random | cosine"),
    "amplitude": (float, "initial amplitude"),
    "seed": (int, "seed for random initial data"),
    "harmonic": (int, "cosine harmonic index"),
    "k": (int, "mode index (0 for the mean mode)"),
    "phi": (float, "front coefficient"),
    "phiy_sq": (float, "squared-slope coefficient"),
    "x_min": (float, "left end of the profile grid"),
    "x_max": (float, "right end of the profile grid"),
    "x_count": (int, "number of profile grid points"),
}


def read_config_file(path: str) -> dict[str, str]:
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key in values:
                raise ValueError(f"{path}:{lineno}: key '{key}' given twice")
            values[key] = raw
    return values


def read_flags(args: list[str]) -> dict[str, str]:
    """Each ``--key value`` or ``--key=value`` as ``key = value``, ``-`` in the key read as ``_``."""
    values, rest = {}, iter(args)
    for arg in rest:
        flag, eq, raw = arg.partition("=")
        if not flag.startswith("--"):
            raise ValueError(f"expected a --key flag, got '{arg}'")
        if not eq and (raw := next(rest, None)) is None:
            raise ValueError(f"flag '{flag}' has no value")
        key = flag[2:].replace("-", "_")
        if key in values:
            raise ValueError(f"flag '{flag}': key '{key}' given twice")
        values[key] = raw
    return values


class ConfigError(Exception):
    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


def resolve_config(study: Study, flags: dict[str, str], config: str | None = None) -> dict:
    """Merge defaults <- config file <- flags, validating everything at once.

    File and flag values are the same raw strings, parsed by one parser.
    """
    merged = dict.fromkeys(study.required) | study.optional
    try:
        from_file = {} if config is None else read_config_file(config)
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError([f"cannot read config file '{config}': {err}"]) from err
    raw = from_file | flags
    violations = [f"unknown key '{key}'" for key in raw if key not in merged]
    raw = {key: text for key, text in raw.items() if key in merged}
    for key, text in raw.items():
        parse = KEYS[key][0]
        try:
            merged[key] = parse(text)
        except ValueError:
            violations.append(f"key '{key}': cannot parse '{text}' as {parse.__name__}")
            continue
        if merged[key] == []:
            violations.append(f"key '{key}': empty list")
        elif parse in (float, floats) and not np.all(np.isfinite(merged[key])):
            violations.append(f"key '{key}': must be finite, got '{text}'")
    violations += [f"missing required key '{k}'" for k in study.required if k not in raw]
    if violations:
        raise ConfigError(violations)
    return merged


def _output_dir(out: str | None, subcommand: str) -> str:
    """The run's output directory, made if it does not exist yet."""
    if out:
        os.makedirs(out, exist_ok=True)
        return out
    base = os.environ.get(OUTPUT_DIR_ENV, "runs")
    os.makedirs(base, exist_ok=True)
    # made exclusively, so two runs stamped in the same second get two directories
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return tempfile.mkdtemp(prefix=f"{subcommand}-{stamp}-", dir=base)


def _initial_field(cfg) -> SpectralField:
    """cfg's initial field on its period and truncation: a cosine unless cfg sets ``ic``."""
    grid = make_grid(cfg["ell"] if "ell" in cfg else cfg["ell0"], cfg["n_modes"])
    ic = cfg.get("ic", "cosine")
    if ic == "cosine":
        return cosine_field(grid, cfg["amplitude"], cfg["harmonic"])
    if ic == "random":
        return random_zero_mean_field(grid, cfg["amplitude"], cfg["seed"])
    raise ConfigError([f"key 'ic': expected 'random' or 'cosine', got '{ic}'"])


# equation name -> (its parameter key, or None, and (parameter, grid) -> descriptor)
_EQUATIONS = {
    "front": ("alpha", make_front_equation),
    "ks": (None, lambda _, grid: make_ks_equation(grid)),
    "rescaled": ("epsilon", make_rescaled_equation),
}


def _equation(name: str, cfg: dict):
    """The grid -> descriptor map of one equation, its parameter taken from cfg."""
    if name not in _EQUATIONS:
        raise ConfigError([f"key 'equation': expected ks|front|rescaled, got '{name}'"])
    key, make = _EQUATIONS[name]
    if key is not None and cfg[key] is None:
        raise ConfigError([f"key '{key}' is required when equation={name}"])
    if unused := [k for k in ("alpha", "epsilon") if k != key and cfg.get(k) is not None]:
        raise ConfigError([f"key '{k}' is not a parameter of equation={name}" for k in unused])
    return lambda grid: make(cfg[key] if key else None, grid)


# ---------------------------------------------------------------------------
# subcommands with their own outputs: run(cfg) -> (exit code, files)


def _cmd_symbols(cfg) -> tuple[int, dict]:
    grid = make_grid(cfg["ell"], cfg["n_modes"])
    if (cfg["alpha"] is None) == (cfg["epsilon"] is None):
        raise ConfigError(["exactly one of 'alpha' and 'epsilon' must be given"])
    bounds = {}
    if cfg["alpha"] is not None:
        table = build_symbols(cfg["alpha"], grid)
        extra = {"l": "growth_rate", "g": "quad_gain"}
    else:
        table = build_rescaled_symbols(cfg["epsilon"], grid)
        extra = {"h": "mass_correction", "m": "quad_correction", "r": "sqrt_shift"}
        # the uniform-in-eps bounds the convergence proof rests on
        report = verify_symbol_bounds(table)
        bounds = {"bounds.json": {**asdict(report), "all_ok": report.all_ok}}
    columns = {"X": "sqrt_factor", "b": "mass", "s": "stiffness", "f": "quad_filter", **extra}
    rows = zip(range(grid.n_modes), grid.eigenvalues, *(getattr(table, f) for f in columns.values()))
    return EXIT_OK, {"symbols.csv": (["k", "lambda", *columns], rows), **bounds}


def _cmd_evolve(equation, cfg) -> tuple[int, dict]:
    phi0 = _initial_field(cfg)
    traj = evolve(
        SolverConfig(
            descriptor=_equation(equation, cfg)(phi0.grid),
            initial_condition=phi0,
            dt=cfg["dt"],
            t_end=cfg["t_end"],
            output_stride=cfg["output_stride"],
        )
    )
    header = ["time"] + [f"a{k}" for k in range(traj.grid.n_modes)]
    # rows as arrays, a writer's block at a time, so the trajectory is never copied whole
    size = max(1, _BLOCK_VALUES // len(header))
    rows = (
        row
        for i in range(0, len(traj.times), size)
        for row in np.column_stack((traj.times[i : i + size], traj.coeffs[i : i + size]))
    )
    return EXIT_BLOWUP if traj.blown_up else EXIT_OK, {
        "trajectory.csv": (header, rows),
        "summary.json": {
            "config": cfg,
            "l2": traj.diagnostics["l2"],
            "zero_mean_l2": traj.diagnostics["zero_mean_l2"],
            "blown_up": traj.blown_up,
            "blowup_time": traj.blowup_time,
        },
    }


def _cmd_profiles(cfg) -> tuple[int, dict]:
    from .profiles import FrontModeData, front_time_derivative, jump_residuals, reconstruct_profile

    k = cfg["k"]
    if k < 0:
        raise ConfigError(["key 'k': must be non-negative"])
    if cfg["x_count"] < 1:
        raise ConfigError(["key 'x_count': must be positive"])
    try:
        lam = eigenvalue(cfg["ell"], k)
    except ValueError as err:
        raise ConfigError([f"keys 'ell' and 'k': {err}"]) from None
    phi_t = front_time_derivative(cfg["alpha"], lam, cfg["phi"], cfg["phiy_sq"])
    data = FrontModeData(
        lambda_k=lam, alpha=cfg["alpha"], phi=cfg["phi"], phi_t=phi_t, phiy_sq=cfg["phiy_sq"]
    )
    x = np.linspace(cfg["x_min"], cfg["x_max"], cfg["x_count"])
    profile = reconstruct_profile(data, x)
    res = jump_residuals(profile, data)
    return EXIT_OK, {
        "profile.csv": (["x", "u", "v"], zip(x, profile.u_values, profile.v_values)),
        "residuals.json": {
            "k": k,
            "lambda": lam,
            "phi_t": phi_t,
            "boundary_residual": res.boundary_residual,
            "flux_residual": res.flux_residual,
            "v_continuity": res.v_continuity,
            "u_x_left": profile.u_x_left,
            "v_left": profile.v_left,
            "v_right": profile.v_right,
            **(asdict(profile.coefficients) if profile.coefficients else {}),
        },
    }


# ---------------------------------------------------------------------------
# the study table


@dataclass(eq=False)
class Study:
    """One subcommand: its config keys and what it runs.

    ``required`` keys must be set; ``optional`` maps the others to their
    defaults.  They are the only keys a config file or flag may set, and
    ``--help`` lists them.  ``run(cfg)`` returns the exit code and the files to write,
    each name mapped to ``(header, rows)`` for a CSV or to a dict for JSON.
    A ``run`` looks up the module attributes it calls at call time, so
    wrappers set on them are seen.  Studies compare by identity: ``optional``
    is a dict, so a generated ``__hash__`` could only raise.
    """

    required: tuple[str, ...]
    optional: dict[str, object]
    run: Callable


def _report_study(required, optional, run: Callable, csv: str, columns: dict) -> Study:
    """A study whose ``run(xp, cfg)`` returns a report that lists its blown-up runs in ``blowups``.

    ``xp`` is the ``frontks.experiments`` module.  Its files: the CSV, ``columns``
    mapping each header to a report field name or a getter, and report.json,
    every report field plus the config.  Exit 3 iff a run blew up.
    """

    def files(cfg) -> tuple[int, dict]:
        # the studies' module loads on first use: an evolve-*, symbols or profiles
        # run never pays for importing it and building its report classes
        from . import experiments

        report = run(experiments, cfg)
        values = [c(report) if callable(c) else getattr(report, c) for c in columns.values()]
        written = {csv: (list(columns), zip(*values)), "report.json": {**vars(report), "config": cfg}}
        return EXIT_BLOWUP if report.blowups else EXIT_OK, written

    return Study(required, optional, files)


def _run_galerkin(xp, cfg):
    return xp.run_galerkin_refinement(
        make_descriptor=_equation(cfg["equation"], cfg),
        initial=lambda g: cosine_field(g, cfg["amplitude"], cfg["harmonic"]),
        period=cfg["ell"],
        n_list=cfg["n_list"],
        t_end=cfg["t_end"],
        dt=cfg["dt"],
        output_stride=cfg["output_stride"],
    )


_EVOLVE_DEFAULTS = {
    "output_stride": 1, "ic": "random", "amplitude": 1e-3, "seed": 0, "harmonic": 1,
}


STUDIES: dict[str, Study] = {
    "symbols": Study(("ell", "n_modes"), {"alpha": None, "epsilon": None}, _cmd_symbols),
    "evolve-front": Study(
        ("ell", "alpha", "n_modes", "t_end", "dt"),
        _EVOLVE_DEFAULTS,
        lambda cfg: _cmd_evolve("front", cfg),
    ),
    "evolve-ks": Study(
        ("ell0", "n_modes", "t_end", "dt"),
        _EVOLVE_DEFAULTS,
        lambda cfg: _cmd_evolve("ks", cfg),
    ),
    "evolve-rescaled": Study(
        ("ell0", "epsilon", "n_modes", "t_end", "dt"),
        _EVOLVE_DEFAULTS,
        lambda cfg: _cmd_evolve("rescaled", cfg),
    ),
    "profiles": Study(
        ("ell", "alpha", "k", "phi"),
        {"phiy_sq": 0.0, "x_min": -10.0, "x_max": 5.0, "x_count": 301},
        _cmd_profiles,
    ),
    "stability-scan": _report_study(
        ("ell", "n_modes", "alphas", "t_end", "dt"),
        {"amplitude": 1e-4, "seed": 0, "output_stride": 1},
        lambda xp, cfg: xp.run_stability_scan(
            random_zero_mean_field(make_grid(cfg["ell"], cfg["n_modes"]), cfg["amplitude"], cfg["seed"]),
            cfg["alphas"], cfg["t_end"], cfg["dt"], cfg["output_stride"],
        ),
        "scan.csv",
        {
            "alpha": "alphas",
            "measured_rate": "measured_rates",
            "predicted_rate": "predicted_rates",
            "verdict": "verdicts",
        },
    ),
    "convergence": _report_study(
        ("ell0", "n_modes", "t_end", "epsilons", "dt"),
        {"amplitude": 0.1, "harmonic": 1, "output_stride": 10},
        lambda xp, cfg: xp.run_convergence_study(
            _initial_field(cfg), cfg["t_end"], cfg["epsilons"], cfg["dt"], cfg["output_stride"]
        ),
        "convergence.csv",
        {"epsilon": "epsilons", "sup_error": "sup_errors", "ratio": "ratios", "zeta_sup_l2": "zeta_sup_l2"},
    ),
    "energy": _report_study(
        ("ell0", "n_modes", "epsilon", "t_end", "dt"),
        {"amplitude": 0.1, "harmonic": 1, "output_stride": 10},
        lambda xp, cfg: xp.run_energy_monitor(
            _initial_field(cfg), cfg["t_end"], cfg["epsilon"], cfg["dt"], cfg["output_stride"]
        ),
        "energy.csv",
        {"tau": "times", "energy": "values"},
    ),
    "ks-apriori": _report_study(
        ("ell0", "n_modes", "t_end", "dt"),
        {"amplitude": 0.1, "harmonic": 1, "output_stride": 10},
        lambda xp, cfg: xp.run_ks_apriori_check(_initial_field(cfg), cfg["t_end"], cfg["dt"], cfg["output_stride"]),
        "apriori.csv",
        {
            "tau": "times",
            "slope_norm": "slope_norms",
            "slope_bound": "slope_bounds",
            "mean_abs": "mean_abs",
            "mean_bound": "mean_bounds",
        },
    ),
    "galerkin": _report_study(
        ("ell", "n_list", "t_end", "dt"),
        {"equation": "ks", "alpha": None, "epsilon": None, "amplitude": 1.0, "harmonic": 1, "output_stride": 10},
        _run_galerkin,
        "galerkin.csv",
        {"n_coarse": lambda r: r.n_list[:-1], "n_fine": lambda r: r.n_list[1:], "final_diff": "final_diffs"},
    ),
}


def _usage(names) -> str:
    """Usage of the named subcommands: each key with its kind, help and default."""
    lines = ["usage: frontks SUBCOMMAND [--config FILE] [--out DIR] [--key value | --key=value ...]",
             f"--out defaults to a new directory under ${OUTPUT_DIR_ENV} or ./runs"]
    for name in names:
        study = STUDIES[name]
        lines.append(name)
        for key in [*study.required, *study.optional]:
            note = "required" if key in study.required else f"default: {study.optional[key]}"
            parse, text = KEYS[key]
            lines.append("  --%-14s%-8s%s (%s)" % (key.replace("_", "-"), parse.__name__, text, note))
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(_usage([name for name in argv[:1] if name in STUDIES] or STUDIES))
        return EXIT_OK
    try:
        if not argv or argv[0] not in STUDIES:
            what = f"unknown subcommand '{argv[0]}'" if argv else "missing subcommand"
            raise ConfigError([f"{what}; expected one of {', '.join(STUDIES)}"])
        study = STUDIES[argv[0]]
        flags = read_flags(argv[1:])
        out = flags.pop("out", None)
        cfg = resolve_config(study, flags, flags.pop("config", None))
        code, files = study.run(cfg)
        # made only now, so a run that fails leaves no directory behind
        outdir = _output_dir(out, argv[0])
        # a reused --out may hold only the files this run rewrites, so two runs never mix
        if stale := sorted(set(os.listdir(outdir)) - set(files)):
            raise FileExistsError(f"{outdir} holds files this run would not write: {', '.join(stale)}")
        for name, content in files.items():
            path = os.path.join(outdir, name)
            if isinstance(content, dict):
                write_json(path, content)
            else:
                write_csv(path, *content)
        print(os.path.join(outdir, next(iter(files))))
        return code
    except np.linalg.LinAlgError:
        raise  # a ValueError, but a numerical failure, not a config one
    except (ConfigError, ValueError) as err:
        # the library validates some keys only once the run starts
        violations = err.violations if isinstance(err, ConfigError) else [str(err)]
        code, failure = EXIT_CONFIG, {"error": "config", "violations": violations}
    except OSError as err:
        code, failure = EXIT_IO, {"error": "io", "detail": str(err)}
    json.dump(failure, sys.stderr)
    sys.stderr.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
