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

import json
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import experiments as xp
from .evolve import (
    SolverConfig,
    default_dt,
    evolve,
    make_front_equation,
    make_ks_equation,
    make_rescaled_equation,
)
from .grid import SpectralField, cosine_field, eigenvalue, make_grid, random_zero_mean_field
from .profiles import (
    FrontModeData,
    front_time_derivative,
    jump_residuals,
    profile_coefficients,
    reconstruct_mode,
    reconstruct_mode0,
)
from .symbols import build_rescaled_symbols, build_symbols, verify_symbol_bounds

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_IO = 4

OUTPUT_DIR_ENV = "FRONTKS_OUTDIR"


def write_csv(path: str, header: list[str], rows) -> None:
    """Header line, then one line per row: str as is, numbers to 17 significant digits.

    Each column keeps the type of its first row, so one %-format built from
    that row serves every line.
    """
    rows = iter(rows)
    first = next(rows, None)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        if first is None:
            return
        line = ",".join("%s" if isinstance(v, str) else "%.17g" for v in first) + "\n"
        fh.write(line % tuple(first))
        fh.writelines(line % tuple(row) for row in rows)


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=lambda o: o.tolist())
        fh.write("\n")


# ---------------------------------------------------------------------------
# config schema and validation


# key -> (kind, help); kind is int | float | str | floats | ints (lists take , or ;)
KEYS: dict[str, tuple[str, str]] = {
    "ell": ("float", "spatial period"),
    "ell0": ("float", "spatial period of the slow frame"),
    "n_modes": ("int", "basis truncation"),
    "n_list": ("ints", "increasing basis truncations"),
    "equation": ("str", "ks | front | rescaled"),
    "alpha": ("float", "front parameter"),
    "alphas": ("floats", "front parameters to scan"),
    "epsilon": ("float", "slow-scale parameter"),
    "epsilons": ("floats", "decreasing slow-scale parameters"),
    "t_end": ("float", "final time"),
    "dt": ("float", "time step; None in evolve-*: scaled with the squared period"),
    "output_stride": ("int", "snapshot every this many steps"),
    "ic": ("str", "initial condition: random | cosine"),
    "amplitude": ("float", "initial amplitude"),
    "seed": ("int", "seed for random initial data"),
    "harmonic": ("int", "cosine harmonic index"),
    "phase": ("float", "cosine phase"),
    "order": ("int", "derivative order of the functional"),
    "k": ("int", "mode index (0 for the mean mode)"),
    "phi": ("float", "front coefficient"),
    "phiy_sq": ("float", "squared-slope coefficient"),
    "phi_t": ("float", "front time derivative; None: from the front law"),
    "x_min": ("float", "left end of the profile grid"),
    "x_max": ("float", "right end of the profile grid"),
    "x_count": ("int", "number of profile grid points"),
}


def _parse_value(kind: str, raw: str):
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    if kind == "str":
        return raw
    parts = [p for p in raw.replace(";", ",").split(",") if p.strip()]
    if kind == "floats":
        return [float(p) for p in parts]
    if kind == "ints":
        return [int(p) for p in parts]
    raise ValueError(f"unknown kind {kind}")


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
    except OSError as err:
        raise ConfigError([f"cannot read config file: {err}"]) from err
    raw = from_file | flags
    violations = [f"unknown key '{key}'" for key in raw if key not in merged]
    raw = {key: text for key, text in raw.items() if key in merged}
    for key, text in raw.items():
        kind = KEYS[key][0]
        try:
            merged[key] = _parse_value(kind, text)
        except ValueError:
            violations.append(f"key '{key}': cannot parse '{text}' as {kind}")
            continue
        if merged[key] == []:
            violations.append(f"key '{key}': empty list")
        elif kind in ("float", "floats") and not np.all(np.isfinite(merged[key])):
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
        return cosine_field(grid, cfg["amplitude"], cfg["harmonic"], cfg.get("phase", 0.0))
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
            dt=cfg["dt"] if cfg["dt"] is not None else default_dt(phi0.grid, cfg["t_end"]),
            t_end=cfg["t_end"],
            output_stride=cfg["output_stride"],
        )
    )
    header = ["time"] + [f"a{k}" for k in range(traj.grid.n_modes)]
    return EXIT_BLOWUP if traj.blown_up else EXIT_OK, {
        "trajectory.csv": (header, np.column_stack([traj.times, traj.coeffs]).tolist()),
        "summary.json": {
            "label": traj.descriptor.label,
            "config": cfg,
            "times": traj.times,
            "l2": traj.diagnostics["l2"],
            "mean": traj.diagnostics["mean"],
            "zero_mean_l2": traj.diagnostics["zero_mean_l2"],
            "blown_up": traj.blown_up,
            "blowup_time": traj.blowup_time,
        },
    }


def _cmd_profiles(cfg) -> tuple[int, dict]:
    k = cfg["k"]
    if k < 0:
        raise ConfigError(["key 'k': must be non-negative"])
    if cfg["x_count"] < 1:
        raise ConfigError(["key 'x_count': must be positive"])
    lam = eigenvalue(cfg["ell"], k)
    phi_t = cfg["phi_t"]
    if phi_t is None:
        phi_t = front_time_derivative(cfg["alpha"], lam, cfg["phi"], cfg["phiy_sq"])
    data = FrontModeData(
        k=k, lambda_k=lam, alpha=cfg["alpha"], phi=cfg["phi"], phi_t=phi_t, phiy_sq=cfg["phiy_sq"]
    )
    x = np.linspace(cfg["x_min"], cfg["x_max"], cfg["x_count"])
    if k == 0:
        profile = reconstruct_mode0(data, x)
        coeff_info = {}
    else:
        coeffs = profile_coefficients(data)
        profile = reconstruct_mode(data, coeffs, x)
        coeff_info = {"c1": coeffs.c1, "c2": coeffs.c2, "nu": coeffs.nu}
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
            **coeff_info,
        },
    }


# ---------------------------------------------------------------------------
# report studies: run(cfg) -> report dataclass, turned into files by _report_files


def _run_galerkin(cfg) -> xp.GalerkinReport:
    return xp.run_galerkin_refinement(
        make_descriptor=_equation(cfg["equation"], cfg),
        initial=lambda g: cosine_field(g, cfg["amplitude"], cfg["harmonic"]),
        period=cfg["ell"],
        n_list=cfg["n_list"],
        t_end=cfg["t_end"],
        dt=cfg["dt"],
        output_stride=cfg["output_stride"],
    )


def _report_files(study: Study, report, cfg: dict) -> tuple[int, dict]:
    """CSV from the study's columns; report.json is every report field plus the config.

    Exit 3 iff the report lists a run that blew up.
    """
    columns = [c(report) if callable(c) else getattr(report, c) for c in study.columns.values()]
    files = {study.csv: (list(study.columns), zip(*columns)), "report.json": {**vars(report), "config": cfg}}
    return EXIT_BLOWUP if report.blowups else EXIT_OK, files


# ---------------------------------------------------------------------------
# the study table


@dataclass(frozen=True)
class Study:
    """One subcommand: its config keys, what it runs and, for report studies, its CSV.

    ``required`` keys must be set; ``optional`` maps the others to their
    defaults.  They are the only keys a config file or flag may set, and
    ``--help`` lists them.  ``run(cfg)`` returns the exit code and the files to write,
    each name mapped to ``(header, rows)`` for a CSV or to a dict for JSON;
    with ``csv`` set it returns a report instead, which lists its blown-up
    runs in ``blowups`` and which ``_report_files`` turns into that pair,
    ``columns`` mapping each CSV header to a report field name or a getter.
    A ``run`` looks up the module attributes it calls at call time, so
    wrappers set on them are seen.
    """

    required: tuple[str, ...]
    optional: dict[str, object]
    run: Callable
    csv: str | None = None
    columns: dict[str, str | Callable] | None = None


_EVOLVE_DEFAULTS = {
    "dt": None, "output_stride": 1, "ic": "random", "amplitude": 1e-3,
    "seed": 0, "harmonic": 1, "phase": 0.0,
}


STUDIES: dict[str, Study] = {
    "symbols": Study(("ell", "n_modes"), {"alpha": None, "epsilon": None}, _cmd_symbols),
    "evolve-front": Study(
        ("ell", "alpha", "n_modes", "t_end"),
        _EVOLVE_DEFAULTS,
        lambda cfg: _cmd_evolve("front", cfg),
    ),
    "evolve-ks": Study(
        ("ell0", "n_modes", "t_end"),
        _EVOLVE_DEFAULTS,
        lambda cfg: _cmd_evolve("ks", cfg),
    ),
    "evolve-rescaled": Study(
        ("ell0", "epsilon", "n_modes", "t_end"),
        _EVOLVE_DEFAULTS,
        lambda cfg: _cmd_evolve("rescaled", cfg),
    ),
    "profiles": Study(
        ("ell", "alpha", "k", "phi"),
        {"phiy_sq": 0.0, "phi_t": None, "x_min": -10.0, "x_max": 5.0, "x_count": 301},
        _cmd_profiles,
    ),
    "stability-scan": Study(
        ("ell", "n_modes", "alphas", "t_end", "dt"),
        {"amplitude": 1e-4, "seed": 0, "output_stride": 1},
        lambda cfg: xp.run_stability_scan(**cfg),  # the keys are its parameters
        "scan.csv",
        {
            "alpha": "alphas",
            "measured_rate": "measured_rates",
            "predicted_rate": "predicted_rates",
            "verdict": "verdicts",
        },
    ),
    "convergence": Study(
        ("ell0", "n_modes", "t_end", "epsilons", "dt"),
        {"amplitude": 0.1, "harmonic": 1, "output_stride": 10},
        lambda cfg: xp.run_convergence_study(
            _initial_field(cfg), cfg["t_end"], sorted(cfg["epsilons"], reverse=True), cfg["dt"], cfg["output_stride"]
        ),
        "convergence.csv",
        {"epsilon": "epsilons", "sup_error": "sup_errors", "ratio": "ratios", "zeta_sup_l2": "zeta_sup_l2"},
    ),
    "energy": Study(
        ("ell0", "n_modes", "epsilon", "t_end", "dt"),
        {"order": 0, "amplitude": 0.1, "harmonic": 1, "output_stride": 10},
        lambda cfg: xp.run_energy_monitor(
            _initial_field(cfg), cfg["t_end"], cfg["epsilon"], cfg["dt"], cfg["output_stride"], cfg["order"]
        ),
        "energy.csv",
        {"tau": "times", "energy": "values"},
    ),
    "ks-apriori": Study(
        ("ell0", "n_modes", "t_end", "dt"),
        {"ic": "cosine", "amplitude": 0.1, "seed": 0, "harmonic": 1, "phase": 0.0, "output_stride": 10},
        lambda cfg: xp.run_ks_apriori_check(_initial_field(cfg), cfg["t_end"], cfg["dt"], cfg["output_stride"]),
        "apriori.csv",
        {
            "tau": "times",
            "slope_norm": "slope_norms",
            "slope_bound": "slope_bounds",
            "mean_abs": "mean_abs",
            "mean_bound": "mean_bounds",
        },
    ),
    "galerkin": Study(
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
            lines.append("  --%-14s%-8s%s (%s)" % (key.replace("_", "-"), *KEYS[key], note))
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
        code, files = _report_files(study, study.run(cfg), cfg) if study.csv else study.run(cfg)
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
