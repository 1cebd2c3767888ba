"""Exponential time stepping for diagonal-linear + filtered-quadratic equations.

Every equation in scope has the per-mode form

    da_k/dt = L_k a_k + G_k * [square of the first derivative]_k,

which covers the front equation (L = growth rate, G = quad gain), the
Kuramoto-Sivashinsky equation (L = lam - 4 lam^2, G = -1/2) and the
slow-scale equation (L = s/b_eps, G = f_eps/b_eps).  The stepper is the
standard ETDRK4 scheme.  Its phi-function coefficients come from the closed
forms wherever |L_k dt| >= 5, and from their average over a 16-point contour
around L_k dt below that: the closed forms cancel catastrophically as
L_k dt -> 0 (the mean mode is exactly neutral), the contour does not.  The
contour average has an error of its own, up to 6.5e-13 relative near
|L_k dt| = 1, where its circle passes within 0.1 of the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import SpectralField, SpectralGrid, _slope_squarer, slope_energy_weights
from .symbols import build_rescaled_symbols, build_symbols

__all__ = [
    "EquationDescriptor",
    "SolverConfig",
    "Trajectory",
    "make_front_equation",
    "make_ks_equation",
    "make_rescaled_equation",
    "Etdrk4",
    "evolve",
    "mean_mode_ode_check",
    "MeanModeCheck",
    "BLOWUP_NORM",
]

BLOWUP_NORM = 1e8

# Etdrk4 evaluates the nonlinear term by two dense matrix-vector products on the
# collocation points up to this many modes and by an FFT pair above it: for a
# few hundred points a matrix product beats the per-call cost of an FFT.  Time
# per nonlinear call, matrices over FFT, single-threaded BLAS on a 2-core x86
# box: 0.29-0.30 at N=64, 0.39 at 96, 0.52-0.53 at 128, 0.74-0.75 at 160,
# 1.07-1.19 at 192, 1.8-2.3 at 256.  Above 128 the margin shrinks while the
# matrices' memory and build grow as N^2.
MATRIX_MAX_MODES = 128

# The closed forms of the phi functions lose digits to cancellation near z = 0
# (the mean mode sits exactly there), so for |z| below this the stepper
# averages them over the 16-point circle of radius 1 about z (Kassam &
# Trefethen 2005).  From |z| = 5 on the closed forms are accurate to round-off
# (within 4.3e-16 relative of 60-digit values on [-1e7, -5] and [5, 60], where
# the average is within 1.2e-15) and need one evaluation instead of sixteen.
# The average has an error of its own, up to 6.5e-13 relative near |z| = 1,
# where the circle passes within 0.1 of the origin; it is left as it is.
_CONTOUR_BELOW = 5.0
_CONTOUR = np.exp(1j * np.pi * (np.arange(16) + 0.5) / 16)


def _phi(z):
    """(q, f1, f2, f3) / dt of the ETDRK4 step at z = dt L, in closed form."""
    ez = np.exp(z)
    z3 = z**3
    return (
        (np.exp(0.5 * z) - 1.0) / z,
        (-4.0 - z + ez * (4.0 - 3.0 * z + z**2)) / z3,
        (2.0 + z + ez * (z - 2.0)) / z3,
        (-4.0 - 3.0 * z - z**2 + ez * (4.0 - z)) / z3,
    )


@dataclass(frozen=True, eq=False)
class EquationDescriptor:
    """Diagonal linear symbol + quadratic-output symbol defining one equation."""

    grid: SpectralGrid
    linear_symbol: np.ndarray
    nonlinear_symbol: np.ndarray


def make_front_equation(alpha: float, grid: SpectralGrid) -> EquationDescriptor:
    table = build_symbols(alpha, grid)
    return EquationDescriptor(grid, table.growth_rate, table.quad_gain)


def make_ks_equation(grid: SpectralGrid) -> EquationDescriptor:
    lam = grid.eigenvalues
    return EquationDescriptor(grid, lam - 4.0 * lam**2, np.full(grid.n_modes, -0.5))


def make_rescaled_equation(epsilon: float, grid: SpectralGrid) -> EquationDescriptor:
    """Slow-scale equation on a period-L0 grid, eps in (0, 1]; make_ks_equation is its limit."""
    table = build_rescaled_symbols(epsilon, grid)
    return EquationDescriptor(
        grid,
        table.stiffness / table.mass,
        table.quad_filter / table.mass,
    )


class Etdrk4:
    """ETDRK4 stepper specialised to one (descriptor, dt) pair."""

    def __init__(self, descriptor: EquationDescriptor, dt: float):
        if not dt > 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.descriptor = descriptor
        z = dt * descriptor.linear_symbol
        if np.max(np.abs(z)) >= 1e100:  # _phi takes z**3, finite below about 5.6e102
            raise ValueError(f"max |dt * L| is {np.max(np.abs(z)):.3g}, but the stepper needs it below 1e100")
        self.exp_full = np.exp(z)
        self.exp_half = np.exp(0.5 * z)
        # the phi functions once per distinct z (each cos/sin pair shares one),
        # spread back with inv; zu is sorted, so |z| < _CONTOUR_BELOW, where
        # they are contour averages, is the slice lo:hi
        zu, inv = np.unique(z, return_inverse=True)
        lo = zu.searchsorted(-_CONTOUR_BELOW, "right")
        hi = zu.searchsorted(_CONTOUR_BELOW)
        far = np.r_[:lo, hi : zu.size]
        phi = np.empty((4, zu.size))
        phi[:, lo:hi] = np.mean(_phi(zu[lo:hi, None] + _CONTOUR), axis=-1).real
        phi[:, far] = _phi(zu[far])
        self.coeff_q, self.coeff_f1, self.coeff_f2, self.coeff_f3 = dt * phi[:, inv]
        self._two_f2 = 2.0 * self.coeff_f2
        grid = descriptor.grid
        self._slope = None  # the FFT path
        if grid.n_modes <= MATRIX_MAX_MODES:
            self._slope, analysis = grid._collocation_matrices
            self._analysis = descriptor.nonlinear_symbol[:, None] * analysis
        else:
            self._slope_square = _slope_squarer(grid)

    def nonlinear(self, coeffs: np.ndarray) -> np.ndarray:
        """G * dealiased (d/dy coeffs)^2, as a new array; coeffs is only read."""
        if self._slope is not None:
            # squared on the collocation points
            slope = self._slope.dot(coeffs)
            slope *= slope
            return self._analysis.dot(slope)
        slope_sq = self._slope_square(coeffs)
        slope_sq *= self.descriptor.nonlinear_symbol
        return slope_sq

    def step_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """One ETDRK4 step from coeffs, as a new array; coeffs is only read.

        Each stage is the textbook formula, rounded in the same order; the
        in-place updates write only into arrays made during this step.
        """
        q = self.coeff_q
        n0 = self.nonlinear(coeffs)
        half = self.exp_half * coeffs
        a = q * n0
        a += half  # a = half + q n0
        na = self.nonlinear(a)
        b = q * na
        b += half  # b = half + q na
        nb = self.nonlinear(b)
        c = nb * 2.0
        c -= n0
        c *= q
        a *= self.exp_half
        c += a  # c = exp_half a + q (2 nb - n0)
        nc = self.nonlinear(c)
        out = self.exp_full * coeffs
        n0 *= self.coeff_f1
        out += n0
        na += nb
        na *= self._two_f2
        out += na
        nc *= self.coeff_f3
        out += nc  # exp_full coeffs + f1 n0 + 2 f2 (na + nb) + f3 nc
        return out


@dataclass(frozen=True, eq=False)
class SolverConfig:
    """One run: the equation, its initial field, the step and horizon, and the snapshot stride."""

    descriptor: EquationDescriptor
    initial_condition: SpectralField
    dt: float
    t_end: float
    output_stride: int = 1

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        steps = self.t_end / self.dt
        if not 1 <= steps < np.inf:
            raise ValueError(
                f"t_end must be a finite number of steps, at least one, got t_end = {self.t_end:g} "
                f"with dt = {self.dt:g}"
            )
        if abs(steps - round(steps)) > 1e-9 * steps:  # round-off in t_end / dt is no partial step
            raise ValueError(
                f"t_end = {self.t_end:g} is not a whole number of dt = {self.dt:g} steps; "
                f"the nearest reachable horizon is {round(steps) * self.dt:.12g}"
            )
        if self.output_stride < 1:
            raise ValueError("output_stride must be a positive integer")
        if self.initial_condition.grid != self.descriptor.grid:
            raise ValueError("initial condition lives on a different grid")


@dataclass(eq=False)
class Trajectory:
    """Snapshots of one run: times, coefficient matrix and per-snapshot scalars."""

    descriptor: EquationDescriptor
    times: np.ndarray
    coeffs: np.ndarray  # shape (n_snapshots, n_modes)
    diagnostics: dict = field(default_factory=dict)
    blowup_time: float | None = None  # time of the first unbounded state, None if none

    @property
    def grid(self) -> SpectralGrid:
        return self.descriptor.grid

    @property
    def blown_up(self) -> bool:
        return self.blowup_time is not None


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
    return math.sqrt(coeffs @ coeffs) <= BLOWUP_NORM


def evolve(config: SolverConfig) -> Trajectory:
    """Run to t_end, keeping every output_stride-th state plus the final one.

    The one stepping driver.  Deterministic for a given config.  A state is
    blown up once it is non-finite or its coefficient norm exceeds
    BLOWUP_NORM; the run then stops and returns the snapshots kept so far
    with blowup_time set, instead of raising.  A blown-up initial state
    blows up at time 0.
    """
    n_steps = round(config.t_end / config.dt)
    stepper = Etdrk4(config.descriptor, config.dt)
    coeffs = config.initial_condition.coeffs.astype(float)  # a copy
    times = [0.0]
    snaps = [coeffs]  # step_coeffs never writes its input
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
        blowup_time=blowup_time,
    )


@dataclass(eq=False)
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
