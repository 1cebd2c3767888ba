"""Command-line entry point: config handling, seeded runs, CSV/JSON reports.

Configs are flat ``key = value`` text files; every key can also be given as
a ``--key`` flag, and flags override file values.  Unknown keys are
rejected and all validation problems are reported at once as a JSON error
object on stderr.  Exit codes: 0 success, 2 config error, 3 numerical
blowup, 4 I/O error.  Identical config + seed reproduces byte-identical
CSV output (floats are written with 17 significant digits).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass

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
    """Merge defaults <- config file <- CLI flags, validating everything at once."""
    by_name = {k.name: k for k in schema}
    violations: list[str] = []
    merged: dict = {k.name: k.default for k in schema}
    provided: set[str] = set()

    if getattr(args, "config", None):
        try:
            raw = read_config_file(args.config)
        except OSError as err:
            raise ConfigError([f"cannot read config file: {err}"]) from err
        except ValueError as err:
            raise ConfigError([str(err)]) from err
        for key, rawval in raw.items():
            if key not in by_name:
                violations.append(f"unknown key '{key}'")
                continue
            try:
                merged[key] = _parse_value(by_name[key].kind, rawval)
                provided.add(key)
            except ValueError:
                violations.append(f"key '{key}': cannot parse '{rawval}' as {by_name[key].kind}")

    for key in by_name:
        flag = key.replace("-", "_")
        val = getattr(args, flag, None)
        if val is not None:
            merged[key] = val
            provided.add(key)

    for key in schema:
        if key.required and key.name not in provided:
            violations.append(f"missing required key '{key.name}'")
    if violations:
        raise ConfigError(violations)
    return merged


def _add_schema_flags(parser: argparse.ArgumentParser, schema: list[Key]) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--out", help="output directory (default: namespaced under $%s or ./runs)" % OUTPUT_DIR_ENV)
    types = {"int": int, "float": float, "str": str}
    for key in schema:
        flag = "--" + key.name.replace("_", "-")
        if key.kind in types:
            parser.add_argument(flag, dest=key.name, type=types[key.kind], help=key.help)
        else:
            elem = float if key.kind == "floats" else int
            parser.add_argument(
                flag,
                dest=key.name,
                type=lambda s, e=elem: [e(p) for p in s.split(",") if p.strip()],
                help=key.help + " (comma separated)",
            )


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


# ---------------------------------------------------------------------------
# subcommands

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

SCHEMAS: dict[str, list[Key]] = {
    "symbols": [
        Key("ell", "float", required=True, help="spatial period"),
        Key("n_modes", "int", required=True),
        Key("alpha", "float", help="front parameter (unrescaled table)"),
        Key("epsilon", "float", help="slow-scale parameter (rescaled table)"),
    ],
    "evolve-front": [Key("ell", "float", required=True), Key("alpha", "float", required=True)]
    + _EVOLVE_KEYS,
    "evolve-ks": [Key("ell0", "float", required=True)] + _EVOLVE_KEYS,
    "evolve-rescaled": [
        Key("ell0", "float", required=True),
        Key("epsilon", "float", required=True),
    ]
    + _EVOLVE_KEYS,
    "profiles": [
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
    "stability-scan": [
        Key("ell", "float", required=True),
        Key("n_modes", "int", required=True),
        Key("alphas", "floats", required=True),
        Key("amplitude", "float", default=1e-4),
        Key("t_end", "float", required=True),
        Key("dt", "float", required=True),
        Key("seed", "int", default=0),
        Key("output_stride", "int", default=1),
    ],
    "convergence": [
        Key("ell0", "float", required=True),
        Key("n_modes", "int", required=True),
        Key("t_end", "float", required=True),
        Key("epsilons", "floats", required=True),
        Key("dt", "float", required=True),
        Key("amplitude", "float", default=0.1),
        Key("harmonic", "int", default=1),
        Key("output_stride", "int", default=10),
    ],
    "energy": [
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
    "ks-apriori": [
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
    "galerkin": [
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
}


def _cmd_symbols(cfg, outdir) -> int:
    grid = make_grid(cfg["ell"], cfg["n_modes"])
    path = os.path.join(outdir, "symbols.csv")
    if (cfg["alpha"] is None) == (cfg["epsilon"] is None):
        raise ConfigError(["exactly one of 'alpha' and 'epsilon' must be given"])
    if cfg["alpha"] is not None:
        t = build_symbols(cfg["alpha"], grid)
        write_csv(
            path,
            ["k", "lambda", "X", "b", "s", "f", "l", "g"],
            zip(
                range(grid.n_modes),
                grid.eigenvalues,
                t.sqrt_factor,
                t.mass,
                t.stiffness,
                t.quad_filter,
                t.growth_rate,
                t.quad_gain,
            ),
        )
    else:
        t = build_rescaled_symbols(cfg["epsilon"], grid)
        write_csv(
            path,
            ["k", "lambda", "X", "b", "s", "f", "h", "m", "r"],
            zip(
                range(grid.n_modes),
                grid.eigenvalues,
                t.sqrt_factor,
                t.mass,
                t.stiffness,
                t.quad_filter,
                t.mass_correction,
                t.quad_correction,
                t.sqrt_shift,
            ),
        )
    print(path)
    return EXIT_OK


def _write_trajectory(outdir, traj, cfg_echo) -> int:
    rows = (
        [t] + list(row)
        for t, row in zip(traj.times, traj.coeffs)
    )
    header = ["time"] + [f"a{k}" for k in range(traj.grid.n_modes)]
    csv_path = os.path.join(outdir, "trajectory.csv")
    write_csv(csv_path, header, rows)
    summary = {
        "label": traj.descriptor.label,
        "config": cfg_echo,
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


def _cmd_evolve(name, cfg, outdir) -> int:
    if name == "evolve-front":
        grid = make_grid(cfg["ell"], cfg["n_modes"])
        descriptor = make_front_equation(cfg["alpha"], grid)
    elif name == "evolve-ks":
        grid = make_grid(cfg["ell0"], cfg["n_modes"])
        descriptor = make_ks_equation(grid)
    else:
        grid = make_grid(cfg["ell0"], cfg["n_modes"])
        descriptor = make_rescaled_equation(cfg["epsilon"], grid)
    dt = cfg["dt"] if cfg["dt"] is not None else default_dt(grid)
    traj = evolve(
        SolverConfig(
            descriptor=descriptor,
            initial_condition=_initial_condition(grid, cfg),
            dt=dt,
            t_end=cfg["t_end"],
            output_stride=cfg["output_stride"],
        )
    )
    return _write_trajectory(outdir, traj, cfg)


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


def _cmd_stability_scan(cfg, outdir) -> int:
    report = xp.run_stability_scan(
        ell=cfg["ell"],
        alphas=cfg["alphas"],
        amplitude=cfg["amplitude"],
        t_end=cfg["t_end"],
        n_modes=cfg["n_modes"],
        dt=cfg["dt"],
        seed=cfg["seed"],
        output_stride=cfg["output_stride"],
    )
    csv_path = os.path.join(outdir, "scan.csv")
    write_csv(
        csv_path,
        ["alpha", "measured_rate", "predicted_rate", "verdict"],
        zip(report.alphas, report.measured_rates, report.predicted_rates, report.verdicts),
    )
    write_json(
        os.path.join(outdir, "report.json"),
        {
            "ell": report.ell,
            "alpha_c": report.alpha_c,
            "alphas": report.alphas,
            "measured_rates": report.measured_rates,
            "predicted_rates": report.predicted_rates,
            "verdicts": report.verdicts,
            "anomalies": report.anomalies,
            "config": cfg,
        },
    )
    print(csv_path)
    return EXIT_OK


def _cmd_convergence(cfg, outdir) -> int:
    grid = make_grid(cfg["ell0"], cfg["n_modes"])
    phi0 = cosine_field(grid, cfg["amplitude"], cfg["harmonic"])
    study = xp.run_convergence_study(
        ell0=cfg["ell0"],
        phi0=phi0,
        t_end=cfg["t_end"],
        epsilons=sorted(cfg["epsilons"], reverse=True),
        dt=cfg["dt"],
        output_stride=cfg["output_stride"],
    )
    rep = study.report
    csv_path = os.path.join(outdir, "convergence.csv")
    write_csv(
        csv_path,
        ["epsilon", "sup_error", "ratio", "zeta_sup_l2"],
        zip(rep.epsilons, rep.sup_errors, rep.ratios, rep.zeta_sup_l2),
    )
    write_json(
        os.path.join(outdir, "report.json"),
        {
            "ell0": rep.ell0,
            "t_end": rep.t_end,
            "epsilons": rep.epsilons,
            "sup_errors": rep.sup_errors,
            "ratios": rep.ratios,
            "fitted_order": rep.fitted_order,
            "zeta_sup_l2": rep.zeta_sup_l2,
            "blowups": rep.blowups,
            "config": cfg,
        },
    )
    print(csv_path)
    return EXIT_BLOWUP if rep.blowups else EXIT_OK


def _cmd_energy(cfg, outdir) -> int:
    grid = make_grid(cfg["ell0"], cfg["n_modes"])
    phi0 = cosine_field(grid, cfg["amplitude"], cfg["harmonic"])
    study = xp.run_convergence_study(
        ell0=cfg["ell0"],
        phi0=phi0,
        t_end=cfg["t_end"],
        epsilons=[cfg["epsilon"]],
        dt=cfg["dt"],
        output_stride=cfg["output_stride"],
    )
    trace = xp.run_energy_monitor(
        study.rescaled_trajectories[cfg["epsilon"]],
        study.ks_trajectory,
        cfg["epsilon"],
        cfg["order"],
    )
    csv_path = os.path.join(outdir, "energy.csv")
    write_csv(csv_path, ["tau", "energy"], zip(trace.times, trace.values))
    write_json(
        os.path.join(outdir, "report.json"),
        {
            "epsilon": trace.epsilon,
            "order": trace.order,
            "observed_bound": trace.observed_bound,
            "config": cfg,
        },
    )
    print(csv_path)
    return EXIT_OK


def _cmd_ks_apriori(cfg, outdir) -> int:
    grid = make_grid(cfg["ell0"], cfg["n_modes"])
    traj = evolve(
        SolverConfig(
            descriptor=make_ks_equation(grid),
            initial_condition=_initial_condition(grid, cfg),
            dt=cfg["dt"],
            t_end=cfg["t_end"],
            output_stride=cfg["output_stride"],
        )
    )
    if traj.blown_up:
        return EXIT_BLOWUP
    report = xp.run_ks_apriori_check(traj)
    csv_path = os.path.join(outdir, "apriori.csv")
    write_csv(
        csv_path,
        ["tau", "slope_norm", "slope_bound", "mean_abs", "mean_bound"],
        zip(report.times, report.slope_norms, report.slope_bounds, report.mean_abs, report.mean_bounds),
    )
    write_json(
        os.path.join(outdir, "report.json"),
        {
            "slope_bound_ok": report.slope_bound_ok,
            "mean_bound_ok": report.mean_bound_ok,
            "min_slope_margin": report.min_slope_margin,
            "min_mean_margin": report.min_mean_margin,
            "config": cfg,
        },
    )
    print(csv_path)
    return EXIT_OK


def _cmd_galerkin(cfg, outdir) -> int:
    eq = cfg["equation"]
    if eq == "ks":
        make_desc = make_ks_equation
    elif eq == "front":
        if cfg["alpha"] is None:
            raise ConfigError(["key 'alpha' is required when equation=front"])
        make_desc = lambda g: make_front_equation(cfg["alpha"], g)
    elif eq == "rescaled":
        if cfg["epsilon"] is None:
            raise ConfigError(["key 'epsilon' is required when equation=rescaled"])
        make_desc = lambda g: make_rescaled_equation(cfg["epsilon"], g)
    else:
        raise ConfigError([f"key 'equation': expected ks|front|rescaled, got '{eq}'"])
    report = xp.run_galerkin_refinement(
        make_descriptor=make_desc,
        initial=lambda g: cosine_field(g, cfg["amplitude"], cfg["harmonic"]),
        period=cfg["ell"],
        n_list=cfg["n_list"],
        t_end=cfg["t_end"],
        dt=cfg["dt"],
        output_stride=cfg["output_stride"],
    )
    csv_path = os.path.join(outdir, "galerkin.csv")
    write_csv(
        csv_path,
        ["n_coarse", "n_fine", "final_diff"],
        zip(report.n_list[:-1], report.n_list[1:], report.final_diffs),
    )
    write_json(
        os.path.join(outdir, "report.json"),
        {
            "n_list": report.n_list,
            "final_diffs": report.final_diffs,
            "max_l2": report.max_l2,
            "blowups": report.blowups,
            "config": cfg,
        },
    )
    print(csv_path)
    return EXIT_BLOWUP if report.blowups else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frontks",
        description="Pseudospectral front-equation / Kuramoto-Sivashinsky toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, schema in SCHEMAS.items():
        p = sub.add_parser(name)
        _add_schema_flags(p, schema)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    name = args.subcommand
    try:
        cfg = resolve_config(SCHEMAS[name], args)
    except ConfigError as err:
        json.dump({"error": "config", "violations": err.violations}, sys.stderr)
        sys.stderr.write("\n")
        return EXIT_CONFIG
    try:
        outdir = _output_dir(args, name)
        if name == "symbols":
            return _cmd_symbols(cfg, outdir)
        if name in ("evolve-front", "evolve-ks", "evolve-rescaled"):
            return _cmd_evolve(name, cfg, outdir)
        if name == "profiles":
            return _cmd_profiles(cfg, outdir)
        if name == "stability-scan":
            return _cmd_stability_scan(cfg, outdir)
        if name == "convergence":
            return _cmd_convergence(cfg, outdir)
        if name == "energy":
            return _cmd_energy(cfg, outdir)
        if name == "ks-apriori":
            return _cmd_ks_apriori(cfg, outdir)
        if name == "galerkin":
            return _cmd_galerkin(cfg, outdir)
        raise AssertionError(name)
    except ConfigError as err:
        json.dump({"error": "config", "violations": err.violations}, sys.stderr)
        sys.stderr.write("\n")
        return EXIT_CONFIG
    except (ValueError,) as err:
        json.dump({"error": "config", "violations": [str(err)]}, sys.stderr)
        sys.stderr.write("\n")
        return EXIT_CONFIG
    except OSError as err:
        json.dump({"error": "io", "detail": str(err)}, sys.stderr)
        sys.stderr.write("\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
