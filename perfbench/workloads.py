"""The benchmark's three workloads: CLI arguments, public set-up calls and step counts.

Each workload is a shortened form of a committed study: one call of it
takes a fraction of a second instead of minutes, so that the reference runs
which scale its time sit close to it (see sample.py).  README.md in this
directory records why each one exists and which layer metric it should move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import checks

# stability-scan on the front equation: grid, step and stride-1 snapshots of
# scripts/configs/threshold_scan.cfg with a horizon of 1 instead of 160.  The
# net-growth verdict needs the unstable harmonics to outgrow the decay of
# the rest of a random initial field before t_end, which close above
# alpha_c = 2 takes far longer than that for some seeds (alpha = 2.1,
# t_end = 20 calls seed 29 "stable"); every alpha above the threshold is
# therefore at least 8, where no seed below 100000 fails at t_end = 1.
SCAN_ELL = 4.0 * math.pi
SCAN_N = 64
SCAN_ALPHAS = (1.0, 1.3, 1.6, 1.9, 8.0, 9.0, 10.0, 12.0)
SCAN_DT = 0.01
SCAN_T_END = 1.0
SCAN_AMPLITUDE = 1e-4

# galerkin on K-S with the cascade of scripts/configs/galerkin.cfg (ell = 80,
# amplitude 12.7) on a ladder of large truncations, horizon 0.1 instead of 10.
LADDER_ELL = 80.0
LADDER_NS = (512, 1024, 2048)
LADDER_DT = 0.002
LADDER_T_END = 0.1
LADDER_AMPLITUDE = 12.7
LADDER_STRIDE = 10

# evolve-rescaled at the epsilon, grid and step of scripts/configs/energy.cfg
# with a seeded random initial field, every step snapshotted and written.
DENSE_ELL0 = 10.0 * math.pi
DENSE_N = 128
DENSE_EPSILON = 0.04
DENSE_DT = 0.001
DENSE_T_END = 0.2
DENSE_AMPLITUDE = 0.1


def _steps(t_end: float, dt: float) -> int:
    # the step count evolve takes for a horizon
    return max(1, round(t_end / dt))


@dataclass(frozen=True)
class Workload:
    argv: Callable[[int], list[str]]  # seed -> cli.main argv without --out
    t_end: float
    dt: float
    members: int       # evolve calls per study
    n_modes: int       # truncation the layer microbenchmarks use (the largest)
    period: float
    make_equation: Callable  # (frontks, grid) -> EquationDescriptor
    setup: Callable          # frontks -> None; the public set-up calls of the study
    study: tuple[str, str]   # (module, attribute) of the study-layer callable
    check: Callable          # outdir -> list of problems with the study's outputs

    @property
    def member_steps(self) -> int:
        return self.members * _steps(self.t_end, self.dt)


def _fmt(x: float) -> str:
    return repr(float(x))


def _scan_argv(seed: int) -> list[str]:
    return [
        "stability-scan",
        "--ell", _fmt(SCAN_ELL),
        "--n-modes", str(SCAN_N),
        "--alphas", ",".join(_fmt(a) for a in SCAN_ALPHAS),
        "--amplitude", _fmt(SCAN_AMPLITUDE),
        "--t-end", _fmt(SCAN_T_END),
        "--dt", _fmt(SCAN_DT),
        "--output-stride", "1",
        "--seed", str(seed),
    ]


def _scan_setup(fk) -> None:
    grid = fk.make_grid(SCAN_ELL, SCAN_N)
    for alpha in SCAN_ALPHAS:
        fk.Etdrk4(fk.make_front_equation(alpha, grid), SCAN_DT)


def _ladder_argv(seed: int) -> list[str]:
    # the study's schema has a cosine initial condition only: seed is unused
    return [
        "galerkin",
        "--equation", "ks",
        "--ell", _fmt(LADDER_ELL),
        "--n-list", ",".join(str(n) for n in LADDER_NS),
        "--amplitude", _fmt(LADDER_AMPLITUDE),
        "--harmonic", "1",
        "--t-end", _fmt(LADDER_T_END),
        "--dt", _fmt(LADDER_DT),
        "--output-stride", str(LADDER_STRIDE),
    ]


def _ladder_setup(fk) -> None:
    for n in LADDER_NS:
        fk.Etdrk4(fk.make_ks_equation(fk.make_grid(LADDER_ELL, n)), LADDER_DT)


def _dense_argv(seed: int) -> list[str]:
    return [
        "evolve-rescaled",
        "--ell0", _fmt(DENSE_ELL0),
        "--epsilon", _fmt(DENSE_EPSILON),
        "--n-modes", str(DENSE_N),
        "--ic", "random",
        "--amplitude", _fmt(DENSE_AMPLITUDE),
        "--seed", str(seed),
        "--t-end", _fmt(DENSE_T_END),
        "--dt", _fmt(DENSE_DT),
        "--output-stride", "1",
    ]


def _dense_setup(fk) -> None:
    grid = fk.make_grid(DENSE_ELL0, DENSE_N)
    fk.Etdrk4(fk.make_rescaled_equation(DENSE_EPSILON, grid), DENSE_DT)


WORKLOADS = {
    "scan": Workload(
        argv=_scan_argv,
        t_end=SCAN_T_END,
        dt=SCAN_DT,
        members=len(SCAN_ALPHAS),
        n_modes=SCAN_N,
        period=SCAN_ELL,
        make_equation=lambda fk, grid: fk.make_front_equation(SCAN_ALPHAS[0], grid),
        setup=_scan_setup,
        study=("frontks.experiments", "run_stability_scan"),
        check=lambda outdir: checks.check_scan(outdir, SCAN_ELL, SCAN_ALPHAS),
    ),
    "ladder": Workload(
        argv=_ladder_argv,
        t_end=LADDER_T_END,
        dt=LADDER_DT,
        members=len(LADDER_NS),
        n_modes=max(LADDER_NS),
        period=LADDER_ELL,
        make_equation=lambda fk, grid: fk.make_ks_equation(grid),
        setup=_ladder_setup,
        study=("frontks.experiments", "run_galerkin_refinement"),
        check=lambda outdir: checks.check_ladder(outdir, LADDER_NS),
    ),
    "dense": Workload(
        argv=_dense_argv,
        t_end=DENSE_T_END,
        dt=DENSE_DT,
        members=1,
        n_modes=DENSE_N,
        period=DENSE_ELL0,
        make_equation=lambda fk, grid: fk.make_rescaled_equation(DENSE_EPSILON, grid),
        setup=_dense_setup,
        # dense runs no experiments-module study: the CLI's single-run command
        # (grid, equation, initial field, evolve, writes) is its study layer
        study=("frontks.cli", "_cmd_evolve"),
        check=lambda outdir: checks.check_dense(
            outdir, DENSE_ELL0, DENSE_N, DENSE_EPSILON, DENSE_T_END,
            _steps(DENSE_T_END, DENSE_DT),
        ),
    ),
}
