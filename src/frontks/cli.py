"""Command-line entry point: config handling, seeded runs, CSV/JSON reports.

Configs are flat ``key = value`` text files; every key can also be given as
a ``--key`` flag, flags override file values, and both are parsed by one
parser.  Unknown keys are rejected and all validation problems are
reported at once as a JSON error object on stderr.  Exit codes: 0 success,
2 config error, 3 numerical blowup (after the outputs are written), 4 I/O
error.  Identical config + seed reproduces byte-identical
CSV output (floats are written with 17 significant digits).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import experiments as xp
from .evolve import (
    SolverConfig,
    Trajectory,
    default_dt,
    evolve,
    make_front_equation,
    make_ks_equation,
    make_rescaled_equation,
)
from .grid import SpectralField, cosine_field, make_grid, random_zero_mean_field
from .profiles import (
    FrontModeData,
    front_time_derivative,
    jump_residuals,
    profile_coefficients,
    reconstruct_mode,
    reconstruct_mode0,
)
from .symbols import build_rescaled_symbols, build_symbols

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_IO = 4

OUTPUT_DIR_ENV = "FRONTKS_OUTDIR"


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return f"{float(x):.17g}"


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# config schema and validation


@dataclass(frozen=True)
class Key:
    name: str
    kind: str  # "int" | "float" | "str" | "floats" | "ints"
    required: bool = False
    default: object = None
    help: str = ""


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
            key, raw = line.split("=", 1)
            values[key.strip()] = raw.strip()
    return values


class ConfigError(Exception):
    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


def resolve_config(schema: list[Key], args: argparse.Namespace) -> dict:
    """Merge defaults <- config file <- CLI flags, validating everything at once.

    File and flag values are the same raw strings, parsed by one parser.
    """
    by_name = {k.name: k for k in schema}
    violations: list[str] = []
    raw: dict[str, str] = {}

    if getattr(args, "config", None):
        try:
            from_file = read_config_file(args.config)
        except OSError as err:
            raise ConfigError([f"cannot read config file: {err}"]) from err
        except ValueError as err:
            raise ConfigError([str(err)]) from err
        for key, text in from_file.items():
            if key in by_name:
                raw[key] = text
            else:
                violations.append(f"unknown key '{key}'")
    raw.update({k: getattr(args, k) for k in by_name if getattr(args, k, None) is not None})

    merged: dict = {k.name: k.default for k in schema}
    for key, text in raw.items():
        try:
            merged[key] = _parse_value(by_name[key].kind, text)
        except ValueError:
            violations.append(f"key '{key}': cannot parse '{text}' as {by_name[key].kind}")
    for key in schema:
        if key.required and key.name not in raw:
            violations.append(f"missing required key '{key.name}'")
    if violations:
        raise ConfigError(violations)
    return merged


def _add_schema_flags(parser: argparse.ArgumentParser, schema: list[Key]) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--out", help="output directory (default: namespaced under $%s or ./runs)" % OUTPUT_DIR_ENV)
    for key in schema:
        listed = " (comma separated)" if key.kind in ("floats", "ints") else ""
        parser.add_argument("--" + key.name.replace("_", "-"), dest=key.name, help=key.help + listed)


def _output_dir(args: argparse.Namespace, subcommand: str) -> str:
    if getattr(args, "out", None):
        os.makedirs(args.out, exist_ok=True)
        return args.out
    base = os.environ.get(OUTPUT_DIR_ENV, "runs")
    os.makedirs(base, exist_ok=True)
    # created exclusively, so two runs stamped in the same second get two directories
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return tempfile.mkdtemp(prefix=f"{subcommand}-{stamp}-", dir=base)


def _initial_condition(grid, cfg) -> SpectralField:
    if cfg["ic"] == "cosine":
        return cosine_field(grid, cfg["amplitude"], cfg.get("harmonic", 1), cfg.get("phase", 0.0))
    if cfg["ic"] == "random":
        return random_zero_mean_field(grid, cfg["amplitude"], cfg["seed"])
    raise ConfigError([f"key 'ic': expected 'random' or 'cosine', got '{cfg['ic']}'"])


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


def _single_run(equation: str, cfg: dict) -> Trajectory:
    """One evolve call on the period, truncation, initial field and step of cfg."""
    grid = make_grid(cfg["ell"] if "ell" in cfg else cfg["ell0"], cfg["n_modes"])
    return evolve(
        SolverConfig(
            descriptor=_equation(equation, cfg)(grid),
            initial_condition=_initial_condition(grid, cfg),
            dt=cfg["dt"] if cfg["dt"] is not None else default_dt(grid),
            t_end=cfg["t_end"],
            output_stride=cfg["output_stride"],
        )
    )


# ---------------------------------------------------------------------------
# subcommands with their own outputs: run(cfg, outdir) -> exit code


def _cmd_symbols(cfg, outdir) -> int:
    grid = make_grid(cfg["ell"], cfg["n_modes"])
    if (cfg["alpha"] is None) == (cfg["epsilon"] is None):
        raise ConfigError(["exactly one of 'alpha' and 'epsilon' must be given"])
    if cfg["alpha"] is not None:
        table = build_symbols(cfg["alpha"], grid)
        extra = {"l": "growth_rate", "g": "quad_gain"}
    else:
        table = build_rescaled_symbols(cfg["epsilon"], grid)
        extra = {"h": "mass_correction", "m": "quad_correction", "r": "sqrt_shift"}
    columns = {"X": "sqrt_factor", "b": "mass", "s": "stiffness", "f": "quad_filter", **extra}
    path = os.path.join(outdir, "symbols.csv")
    write_csv(
        path,
        ["k", "lambda", *columns],
        zip(range(grid.n_modes), grid.eigenvalues, *(getattr(table, f) for f in columns.values())),
    )
    print(path)
    return EXIT_OK


def _cmd_evolve(equation, cfg, outdir) -> int:
    traj = _single_run(equation, cfg)
    header = ["time"] + [f"a{k}" for k in range(traj.grid.n_modes)]
    csv_path = os.path.join(outdir, "trajectory.csv")
    write_csv(csv_path, header, ([t] + list(row) for t, row in zip(traj.times, traj.coeffs)))
    summary = {
        "label": traj.descriptor.label,
        "config": cfg,
        "times": traj.times,
        "l2": traj.diagnostics["l2"],
        "mean": traj.diagnostics["mean"],
        "zero_mean_l2": traj.diagnostics["zero_mean_l2"],
        "blown_up": traj.blown_up,
        "blowup_time": traj.blowup_time,
    }
    write_json(os.path.join(outdir, "summary.json"), summary)
    print(csv_path)
    return EXIT_BLOWUP if traj.blown_up else EXIT_OK


def _cmd_profiles(cfg, outdir) -> int:
    k = cfg["k"]
    if k < 0:
        raise ConfigError(["key 'k': must be non-negative"])
    j = (k + 1) // 2
    lam = (2.0 * np.pi * j / cfg["ell"]) ** 2 if k >= 1 else 0.0
    phi_t = cfg["phi_t"]
    if phi_t is None:
        phi_t = (
            -0.5 * cfg["phiy_sq"]
            if k == 0
            else front_time_derivative(cfg["alpha"], lam, cfg["phi"], cfg["phiy_sq"])
        )
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
    csv_path = os.path.join(outdir, "profile.csv")
    write_csv(csv_path, ["x", "u", "v"], zip(x, profile.u_values, profile.v_values))
    write_json(
        os.path.join(outdir, "residuals.json"),
        {
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
    )
    print(csv_path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# report studies: run(cfg) -> (report dataclass, blew up), written by _write_report


def _convergence(cfg, epsilons) -> xp.ConvergenceStudy:
    grid = make_grid(cfg["ell0"], cfg["n_modes"])
    return xp.run_convergence_study(
        ell0=cfg["ell0"],
        phi0=cosine_field(grid, cfg["amplitude"], cfg["harmonic"]),
        t_end=cfg["t_end"],
        epsilons=epsilons,
        dt=cfg["dt"],
        output_stride=cfg["output_stride"],
    )


def _run_convergence(cfg):
    report = _convergence(cfg, sorted(cfg["epsilons"], reverse=True)).report
    return report, bool(report.blowups)


def _run_energy(cfg):
    eps = cfg["epsilon"]
    study = _convergence(cfg, [eps])
    trace = xp.run_energy_monitor(
        study.rescaled_trajectories[eps], study.ks_trajectory, eps, cfg["order"]
    )
    return trace, bool(study.report.blowups)


def _run_ks_apriori(cfg):
    traj = _single_run("ks", cfg)
    return xp.run_ks_apriori_check(traj), traj.blown_up


def _run_galerkin(cfg):
    report = xp.run_galerkin_refinement(
        make_descriptor=_equation(cfg["equation"], cfg),
        initial=lambda g: cosine_field(g, cfg["amplitude"], cfg["harmonic"]),
        period=cfg["ell"],
        n_list=cfg["n_list"],
        t_end=cfg["t_end"],
        dt=cfg["dt"],
        output_stride=cfg["output_stride"],
    )
    return report, bool(report.blowups)


def _write_report(study: Study, report, blew_up: bool, cfg: dict, outdir: str) -> int:
    """CSV from the study's columns; report.json is every report field but trajectories."""
    csv_path = os.path.join(outdir, study.csv)
    columns = [c(report) if callable(c) else getattr(report, c) for c in study.columns.values()]
    write_csv(csv_path, list(study.columns), zip(*columns))
    payload = {f.name: getattr(report, f.name) for f in fields(report) if f.name != "trajectories"}
    write_json(os.path.join(outdir, "report.json"), {**payload, "config": cfg})
    print(csv_path)
    return EXIT_BLOWUP if blew_up else EXIT_OK


# ---------------------------------------------------------------------------
# the study table


@dataclass(frozen=True)
class Study:
    """One subcommand: its config keys, what it runs and, for report studies, its CSV.

    With ``csv`` set, ``run(cfg)`` returns ``(report, blew_up)`` and
    ``_write_report`` writes it, ``columns`` mapping each CSV header to a
    report field name or a getter.  Without it, ``run(cfg, outdir)`` writes
    its own outputs and returns the exit code.  A ``run`` looks up the
    module attributes it calls at call time, so wrappers set on them are seen.
    """

    keys: list[Key]
    run: Callable
    csv: str | None = None
    columns: dict[str, str | Callable] | None = None


_EVOLVE_KEYS = [
    Key("n_modes", "int", required=True, help="basis truncation"),
    Key("dt", "float", help="time step (default scales with the period)"),
    Key("t_end", "float", required=True, help="final time"),
    Key("output_stride", "int", default=1, help="snapshot every this many steps"),
    Key("ic", "str", default="random", help="initial condition: random | cosine"),
    Key("amplitude", "float", default=1e-3, help="initial amplitude"),
    Key("seed", "int", default=0, help="seed for random initial data"),
    Key("harmonic", "int", default=1, help="cosine harmonic index"),
    Key("phase", "float", default=0.0, help="cosine phase"),
]

STUDIES: dict[str, Study] = {
    "symbols": Study(
        [
            Key("ell", "float", required=True, help="spatial period"),
            Key("n_modes", "int", required=True),
            Key("alpha", "float", help="front parameter (unrescaled table)"),
            Key("epsilon", "float", help="slow-scale parameter (rescaled table)"),
        ],
        _cmd_symbols,
    ),
    "evolve-front": Study(
        [Key("ell", "float", required=True), Key("alpha", "float", required=True)] + _EVOLVE_KEYS,
        lambda cfg, outdir: _cmd_evolve("front", cfg, outdir),
    ),
    "evolve-ks": Study(
        [Key("ell0", "float", required=True)] + _EVOLVE_KEYS,
        lambda cfg, outdir: _cmd_evolve("ks", cfg, outdir),
    ),
    "evolve-rescaled": Study(
        [Key("ell0", "float", required=True), Key("epsilon", "float", required=True)]
        + _EVOLVE_KEYS,
        lambda cfg, outdir: _cmd_evolve("rescaled", cfg, outdir),
    ),
    "profiles": Study(
        [
            Key("ell", "float", required=True),
            Key("alpha", "float", required=True),
            Key("k", "int", required=True, help="mode index (0 for the mean mode)"),
            Key("phi", "float", required=True, help="front coefficient"),
            Key("phiy_sq", "float", default=0.0, help="squared-slope coefficient"),
            Key("phi_t", "float", help="front time derivative (default: from the front law)"),
            Key("x_min", "float", default=-10.0),
            Key("x_max", "float", default=5.0),
            Key("x_count", "int", default=301),
        ],
        _cmd_profiles,
    ),
    # the keys are run_stability_scan's parameters, looked up when the scan runs
    "stability-scan": Study(
        [
            Key("ell", "float", required=True),
            Key("n_modes", "int", required=True),
            Key("alphas", "floats", required=True),
            Key("amplitude", "float", default=1e-4),
            Key("t_end", "float", required=True),
            Key("dt", "float", required=True),
            Key("seed", "int", default=0),
            Key("output_stride", "int", default=1),
        ],
        lambda cfg: (xp.run_stability_scan(**cfg), False),
        "scan.csv",
        {
            "alpha": "alphas",
            "measured_rate": "measured_rates",
            "predicted_rate": "predicted_rates",
            "verdict": "verdicts",
        },
    ),
    "convergence": Study(
        [
            Key("ell0", "float", required=True),
            Key("n_modes", "int", required=True),
            Key("t_end", "float", required=True),
            Key("epsilons", "floats", required=True),
            Key("dt", "float", required=True),
            Key("amplitude", "float", default=0.1),
            Key("harmonic", "int", default=1),
            Key("output_stride", "int", default=10),
        ],
        _run_convergence,
        "convergence.csv",
        {"epsilon": "epsilons", "sup_error": "sup_errors", "ratio": "ratios", "zeta_sup_l2": "zeta_sup_l2"},
    ),
    "energy": Study(
        [
            Key("ell0", "float", required=True),
            Key("n_modes", "int", required=True),
            Key("epsilon", "float", required=True),
            Key("t_end", "float", required=True),
            Key("dt", "float", required=True),
            Key("order", "int", default=0, help="derivative order of the functional"),
            Key("amplitude", "float", default=0.1),
            Key("harmonic", "int", default=1),
            Key("output_stride", "int", default=10),
        ],
        _run_energy,
        "energy.csv",
        {"tau": "times", "energy": "values"},
    ),
    "ks-apriori": Study(
        [
            Key("ell0", "float", required=True),
            Key("n_modes", "int", required=True),
            Key("t_end", "float", required=True),
            Key("dt", "float", required=True),
            Key("ic", "str", default="cosine"),
            Key("amplitude", "float", default=0.1),
            Key("seed", "int", default=0),
            Key("harmonic", "int", default=1),
            Key("phase", "float", default=0.0),
            Key("output_stride", "int", default=10),
        ],
        _run_ks_apriori,
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
        [
            Key("equation", "str", default="ks", help="ks | front | rescaled"),
            Key("ell", "float", required=True),
            Key("n_list", "ints", required=True),
            Key("t_end", "float", required=True),
            Key("dt", "float", required=True),
            Key("alpha", "float", help="front parameter (equation=front)"),
            Key("epsilon", "float", help="slow-scale parameter (equation=rescaled)"),
            Key("amplitude", "float", default=1.0),
            Key("harmonic", "int", default=1),
            Key("output_stride", "int", default=10),
        ],
        _run_galerkin,
        "galerkin.csv",
        {"n_coarse": lambda r: r.n_list[:-1], "n_fine": lambda r: r.n_list[1:], "final_diff": "final_diffs"},
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frontks",
        description="Pseudospectral front-equation / Kuramoto-Sivashinsky toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, study in STUDIES.items():
        _add_schema_flags(sub.add_parser(name), study.keys)
    return parser


def _error(code: int, **payload) -> int:
    """Report a failure as one JSON object on stderr and return its exit code."""
    json.dump(payload, sys.stderr)
    sys.stderr.write("\n")
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    study = STUDIES[args.subcommand]
    try:
        cfg = resolve_config(study.keys, args)
        outdir = _output_dir(args, args.subcommand)
        if study.csv is None:
            return study.run(cfg, outdir)
        return _write_report(study, *study.run(cfg), cfg, outdir)
    except ConfigError as err:
        return _error(EXIT_CONFIG, error="config", violations=err.violations)
    except ValueError as err:
        return _error(EXIT_CONFIG, error="config", violations=[str(err)])
    except OSError as err:
        return _error(EXIT_IO, error="io", detail=str(err))


if __name__ == "__main__":
    sys.exit(main())
