"""Exponential time stepping for diagonal-linear + filtered-quadratic equations.

Every equation in scope has the per-mode form

    da_k/dt = L_k a_k + G_k * [square of the first derivative]_k,

which covers the front equation (L = growth rate, G = quad gain), the
Kuramoto-Sivashinsky equation (L = lam - 4 lam^2, G = -1/2) and the
slow-scale equation (L = s/b_eps, G = f_eps/b_eps).  The stepper is the
standard ETDRK4 scheme; the phi-function coefficients are averaged over a
16-point contour around each L_k dt, which stays accurate through L_k = 0
(the mean mode is exactly neutral) where the closed-form expressions
cancel catastrophically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import SpectralField, SpectralGrid, _pack, _square_spectrum, slope_energy_weights
from .symbols import build_rescaled_symbols, build_symbols

__all__ = [
    "EquationDescriptor",
    "SolverConfig",
    "Trajectory",
    "NumericalBlowupError",
    "make_front_equation",
    "make_ks_equation",
    "make_rescaled_equation",
    "Etdrk4",
    "step",
    "evolve",
    "default_dt",
    "mean_mode_ode_check",
    "MeanModeCheck",
    "BLOWUP_NORM",
]

BLOWUP_NORM = 1e8


@dataclass(frozen=True)
class EquationDescriptor:
    """Diagonal linear symbol + quadratic-output symbol defining one equation."""

    grid: SpectralGrid
    linear_symbol: np.ndarray
    nonlinear_symbol: np.ndarray
    label: str


def make_front_equation(alpha: float, grid: SpectralGrid) -> EquationDescriptor:
    table = build_symbols(alpha, grid)
    return EquationDescriptor(
        grid, table.growth_rate, table.quad_gain, f"front(alpha={alpha:g})"
    )


def make_ks_equation(grid: SpectralGrid) -> EquationDescriptor:
    lam = grid.eigenvalues
    return EquationDescriptor(grid, lam - 4.0 * lam**2, np.full(grid.n_modes, -0.5), "ks")


def make_rescaled_equation(epsilon: float, grid: SpectralGrid) -> EquationDescriptor:
    """Slow-scale equation on a period-L0 grid; eps = 0 returns the exact limit."""
    if epsilon == 0:
        return replace(make_ks_equation(grid), label="rescaled(eps=0)")
    table = build_rescaled_symbols(epsilon, grid)
    return EquationDescriptor(
        grid,
        table.stiffness / table.mass,
        table.quad_filter / table.mass,
        f"rescaled(eps={epsilon:g})",
    )


class NumericalBlowupError(RuntimeError):
    """State left the finite/bounded regime."""


class Etdrk4:
    """ETDRK4 stepper specialised to one (descriptor, dt) pair."""

    def __init__(self, descriptor: EquationDescriptor, dt: float):
        if not dt > 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.descriptor = descriptor
        self.dt = float(dt)
        z = dt * descriptor.linear_symbol
        self.exp_full = np.exp(z)
        self.exp_half = np.exp(0.5 * z)
        # contour average of the phi functions (circle of radius 1 about each z),
        # 16 points as fixed by Kassam & Trefethen (2005)
        r = np.exp(1j * np.pi * (np.arange(16) + 0.5) / 16)
        zr = z[:, None] + r[None, :]
        ez = np.exp(zr)
        self.coeff_q = dt * ((np.exp(0.5 * zr) - 1.0) / zr).mean(1).real
        self.coeff_f1 = dt * ((-4.0 - zr + ez * (4.0 - 3.0 * zr + zr**2)) / zr**3).mean(1).real
        self.coeff_f2 = dt * ((2.0 + zr + ez * (zr - 2.0)) / zr**3).mean(1).real
        self.coeff_f3 = dt * ((-4.0 - 3.0 * zr - zr**2 + ez * (4.0 - zr)) / zr**3).mean(1).real

    def nonlinear(self, coeffs: np.ndarray) -> np.ndarray:
        # G * dealiased (d/dy)^2, the derivative taken in the packed spectrum
        grid = self.descriptor.grid
        slope_sq = _square_spectrum(grid, _pack(grid, coeffs) * grid._ik)
        return self.descriptor.nonlinear_symbol * slope_sq

    def step_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        n0 = self.nonlinear(coeffs)
        half = self.exp_half * coeffs
        a = half + self.coeff_q * n0
        na = self.nonlinear(a)
        b = half + self.coeff_q * na
        nb = self.nonlinear(b)
        c = self.exp_half * a + self.coeff_q * (2.0 * nb - n0)
        nc = self.nonlinear(c)
        return (
            self.exp_full * coeffs
            + self.coeff_f1 * n0
            + 2.0 * self.coeff_f2 * (na + nb)
            + self.coeff_f3 * nc
        )


def step(state: SpectralField, descriptor: EquationDescriptor, dt: float) -> SpectralField:
    """Advance one ETDRK4 step (one-off; use Etdrk4 directly inside loops)."""
    if not np.all(np.isfinite(state.coeffs)):
        raise NumericalBlowupError("non-finite input state")
    return SpectralField(state.grid, Etdrk4(descriptor, dt).step_coeffs(state.coeffs))


def _whole_steps(t_end: float, dt: float) -> bool:
    """Whether t_end is a whole number of dt steps, up to round-off."""
    steps = t_end / dt
    return abs(steps - round(steps)) <= 1e-9 * steps


def default_dt(grid: SpectralGrid, t_end: float | None = None) -> float:
    """Default step 1e-3 (L/2pi)^2, scaled with the squared period.

    Given a positive finite t_end that it does not divide, the step is
    shortened to t_end / ceil(t_end / step), so that whole steps reach t_end.
    """
    dt = 1e-3 * (grid.period / (2.0 * np.pi)) ** 2
    if t_end is None or not 0 < t_end / dt < np.inf or _whole_steps(t_end, dt):
        return dt
    return t_end / math.ceil(t_end / dt)


@dataclass(frozen=True)
class SolverConfig:
    descriptor: EquationDescriptor
    initial_condition: SpectralField
    dt: float
    t_end: float
    output_stride: int = 1

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not 1 <= self.t_end / self.dt < np.inf:
            raise ValueError(
                f"t_end must be a finite number of steps, at least one, got t_end = {self.t_end:g} "
                f"with dt = {self.dt:g}"
            )
        if not _whole_steps(self.t_end, self.dt):
            raise ValueError(
                f"t_end = {self.t_end:g} is not a whole number of dt = {self.dt:g} steps; "
                f"the nearest reachable horizon is {round(self.t_end / self.dt) * self.dt:.12g}"
            )
        if self.output_stride < 1:
            raise ValueError("output_stride must be a positive integer")
        if self.initial_condition.grid != self.descriptor.grid:
            raise ValueError("initial condition lives on a different grid")


@dataclass
class Trajectory:
    """Snapshots of one run: times, coefficient matrix and per-snapshot scalars."""

    descriptor: EquationDescriptor
    times: np.ndarray
    coeffs: np.ndarray  # shape (n_snapshots, n_modes)
    diagnostics: dict = field(default_factory=dict)
    blown_up: bool = False
    blowup_time: float | None = None

    @property
    def grid(self) -> SpectralGrid:
        return self.descriptor.grid

    def state(self, i: int) -> SpectralField:
        return SpectralField(self.grid, self.coeffs[i])

    def final_state(self) -> SpectralField:
        return self.state(len(self.times) - 1)


def _diagnostics(grid: SpectralGrid, coeffs: np.ndarray) -> dict:
    sq = coeffs**2
    return {
        "l2": np.sqrt(sq.sum(axis=1)),
        "mean": coeffs[:, 0].copy(),
        "zero_mean_l2": np.sqrt(sq[:, 1:].sum(axis=1)),
        # mean of (d/dy state)^2, the quantity driving the mean mode
        "slope_sq_mean": sq @ slope_energy_weights(grid),
    }


def _bounded(coeffs: np.ndarray) -> bool:
    # NaN, inf and overflow all fail this one comparison
    return bool(np.sqrt(coeffs @ coeffs) <= BLOWUP_NORM)


def evolve(config: SolverConfig) -> Trajectory:
    """Run to t_end, keeping every output_stride-th state plus the final one.

    Deterministic for a given config.  On blowup the trajectory collected so
    far is returned with the blown_up flag set instead of raising; a
    non-finite or oversized initial state blows up at time 0.
    """
    n_steps = round(config.t_end / config.dt)
    stepper = Etdrk4(config.descriptor, config.dt)
    coeffs = config.initial_condition.coeffs.astype(float).copy()
    times = [0.0]
    snaps = [coeffs.copy()]
    blowup_time = None if _bounded(coeffs) else 0.0
    for i in range(n_steps if blowup_time is None else 0):
        coeffs = stepper.step_coeffs(coeffs)
        t_next = (i + 1) * config.dt
        if not _bounded(coeffs):
            blowup_time = t_next
            break
        if (i + 1) % config.output_stride == 0 or i + 1 == n_steps:
            times.append(t_next)
            snaps.append(coeffs)  # step_coeffs returns a fresh array
    times_arr = np.asarray(times)
    coeff_mat = np.asarray(snaps)
    return Trajectory(
        descriptor=config.descriptor,
        times=times_arr,
        coeffs=coeff_mat,
        diagnostics=_diagnostics(config.descriptor.grid, coeff_mat),
        blown_up=blowup_time is not None,
        blowup_time=blowup_time,
    )


@dataclass(frozen=True)
class MeanModeCheck:
    """Finite-difference audit of the mean-mode law p' = -1/2 mean((slope)^2)."""

    max_residual: float       # worst |dp/dt + 1/2 mean(slope^2)| per unit time
    max_mean_increase: float  # worst positive jump of the mean between snapshots
    mean_nonincreasing: bool


def mean_mode_ode_check(trajectory: Trajectory) -> MeanModeCheck:
    """Compare the finite-differenced mean against -1/2 mean((state_y)^2).

    Uses the trapezoid pairing of snapshot endpoints, so snapshots must be
    dense (spacing <= 0.01) for the stated tolerances to be meaningful.
    """
    times = trajectory.times
    if len(times) < 2:
        raise ValueError("trajectory has fewer than two snapshots")
    spacing = np.diff(times)
    if np.max(spacing) > 0.01 + 1e-12:
        raise ValueError(
            f"snapshot spacing {np.max(spacing):g} too coarse for finite differencing"
        )
    mean = trajectory.diagnostics["mean"]
    rhs = -0.5 * trajectory.diagnostics["slope_sq_mean"]
    fd = np.diff(mean) / spacing
    residual = np.abs(fd - 0.5 * (rhs[1:] + rhs[:-1]))
    increase = np.diff(mean)
    return MeanModeCheck(
        max_residual=float(np.max(residual)),
        max_mean_increase=float(np.max(increase, initial=0.0)),
        mean_nonincreasing=bool(np.all(increase <= 1e-9)),  # round-off rises allowed
    )
