"""Output checks: each reads one study's output directory and lists what is wrong.

An empty list means the outputs are correct.  The checks recompute what
they compare against through frontks' public API, so frontks must be
importable when they run.
"""

from __future__ import annotations

import csv
import json
import math
import os

# gaps between truncations that already resolve the solution are round-off
ROUND_OFF = 1e-12
# tolerance on the mean-mode law that the acceptance tests use
MEAN_MODE_TOL = 1e-6


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_scan(outdir: str, ell: float, alphas) -> list[str]:
    """Verdicts flip exactly at alpha_c; predicted rates are max growth_rate[1:]."""
    from frontks import alpha_critical, build_symbols, make_grid

    problems = []
    report = _read_json(os.path.join(outdir, "report.json"))
    header, rows = _read_csv(os.path.join(outdir, "scan.csv"))
    if header != ["alpha", "measured_rate", "predicted_rate", "verdict"]:
        return [f"scan.csv header {header}"]
    if [float(r[0]) for r in rows] != list(alphas):
        return [f"scan.csv alphas {[r[0] for r in rows]} != {list(alphas)}"]
    if report["verdicts"] != [r[3] for r in rows]:
        problems.append("report.json verdicts differ from scan.csv")
    if report["anomalies"]:
        problems.append(f"anomalies: {report['anomalies']}")
    a_c = alpha_critical(ell)
    grid = make_grid(ell, report["config"]["n_modes"])
    for alpha, row in zip(alphas, rows):
        expected = "stable" if alpha < a_c else "unstable"
        if row[3] != expected:
            problems.append(f"alpha={alpha:g}: verdict {row[3]}, expected {expected}")
        predicted = float(max(build_symbols(alpha, grid).growth_rate[1:]))
        if not math.isclose(float(row[2]), predicted, rel_tol=1e-12, abs_tol=1e-15):
            problems.append(f"alpha={alpha:g}: predicted rate {row[2]} != {predicted!r}")
    return problems


def check_ladder(outdir: str, n_list) -> list[str]:
    """No blowups; every gap between truncations is round-off of the solution norm."""
    problems = []
    report = _read_json(os.path.join(outdir, "report.json"))
    header, rows = _read_csv(os.path.join(outdir, "galerkin.csv"))
    if report["n_list"] != list(n_list):
        return [f"n_list {report['n_list']} != {list(n_list)}"]
    if report["blowups"]:
        problems.append(f"blowups at n={report['blowups']}")
    if header != ["n_coarse", "n_fine", "final_diff"] or len(rows) != len(n_list) - 1:
        return problems + [f"galerkin.csv has header {header} and {len(rows)} rows"]
    norms = report["max_l2"]
    if not all(math.isfinite(v) and v > 0 for v in norms):
        return problems + [f"max_l2 {norms}"]
    scale = max(norms)
    for row in rows:
        gap = float(row[2])
        if not 0 <= gap <= ROUND_OFF * scale:
            problems.append(f"gap {row[0]}->{row[1]} is {gap:g}, above round-off of {scale:g}")
    return problems


def check_dense(outdir: str, ell0: float, n_modes: int, epsilon: float, t_end: float,
                n_steps: int) -> list[str]:
    """Every step is written, the run ends at t_end and the mean-mode law holds."""
    import numpy as np

    from frontks import Trajectory, make_grid, make_rescaled_equation, mean_mode_ode_check
    from frontks.grid import slope_energy_weights

    problems = []
    summary = _read_json(os.path.join(outdir, "summary.json"))
    if summary["blown_up"]:
        problems.append(f"blowup at t={summary['blowup_time']}")
    header, rows = _read_csv(os.path.join(outdir, "trajectory.csv"))
    if header != ["time"] + [f"a{k}" for k in range(n_modes)]:
        return problems + ["trajectory.csv header"]
    if len(rows) != n_steps + 1:
        return problems + [f"trajectory.csv has {len(rows)} rows, expected {n_steps + 1}"]
    table = np.array(rows, dtype=float)
    times, coeffs = table[:, 0], table[:, 1:]
    if not math.isclose(times[-1], t_end, rel_tol=1e-12):
        problems.append(f"last time {times[-1]!r} != t_end {t_end!r}")
    grid = make_grid(ell0, n_modes)
    traj = Trajectory(
        descriptor=make_rescaled_equation(epsilon, grid),
        times=times,
        coeffs=coeffs,
        diagnostics={"mean": coeffs[:, 0], "slope_sq_mean": coeffs**2 @ slope_energy_weights(grid)},
    )
    law = mean_mode_ode_check(traj)
    if not law.max_residual < MEAN_MODE_TOL:
        problems.append(f"mean-mode residual {law.max_residual:g} >= {MEAN_MODE_TOL:g}")
    if not law.mean_nonincreasing:
        problems.append(f"mean increased by {law.max_mean_increase:g}")
    return problems
