"""Desk-scale studies: threshold scan, slow-scale convergence, energy monitoring,
a-priori bound checks and Galerkin refinement.

Each study returns a plain dataclass of arrays/scalars that the CLI
serialises; nothing here touches the filesystem.  Norm convention: all
L2-type quantities are coefficient norms (mean-normalised Parseval).  The
mean-mode growth bound is stated in the literature with the integral L2
norm; the period factors cancel against our normalisation, leaving the
constant 3/26 used in ks_apriori_check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolve import (
    EquationDescriptor,
    SolverConfig,
    Trajectory,
    evolve,
    make_front_equation,
    make_ks_equation,
    make_rescaled_equation,
)
from .grid import SpectralField, _pack, make_grid, random_zero_mean_field, slope_energy_weights
from .symbols import alpha_critical, build_rescaled_symbols

__all__ = [
    "StabilityScanReport",
    "ConvergenceReport",
    "EnergyTrace",
    "KsAprioriReport",
    "GalerkinReport",
    "OrderCheck",
    "fit_log_slope",
    "measured_growth_rate",
    "run_stability_scan",
    "run_convergence_study",
    "run_energy_monitor",
    "run_ks_apriori_check",
    "run_galerkin_refinement",
    "etdrk4_order_check",
]


def _evolve_each(configs, blowups: list):
    """Evolve each (key, SolverConfig) pair in order, yielding (key, trajectory).

    The one run loop of every study: the key of each run that blows up is
    appended to ``blowups``.  Lazy, so a sweep holds one trajectory at a time
    unless its caller keeps them; callers build every config first, so a bad
    member is rejected before the first step.
    """
    for key, config in configs:
        traj = evolve(config)
        if traj.blown_up:
            blowups.append(key)
        yield key, traj


def fit_log_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log(y) against log(x)."""
    return float(np.polyfit(np.log(np.asarray(x)), np.log(np.asarray(y)), 1)[0])


def measured_growth_rate(trajectory: Trajectory) -> float:
    """Exponential rate of the zero-mean L2 norm over the last fifth of the run.

    Fitted on the tail so transients from the non-normal quadratic coupling
    have decayed first; nan when the tail holds fewer than three snapshots.
    """
    times = trajectory.times
    norms = trajectory.diagnostics["zero_mean_l2"]
    sel = times >= times[-1] - 0.2 * (times[-1] - times[0])
    if sel.sum() < 3:
        return np.nan
    if np.any(norms[sel] <= 0):
        return -np.inf
    return float(np.polyfit(times[sel], np.log(norms[sel]), 1)[0])


@dataclass
class StabilityScanReport:
    ell: float
    alpha_c: float
    alphas: np.ndarray
    measured_rates: np.ndarray
    predicted_rates: np.ndarray  # max over k >= 1 of the linear growth rates
    verdicts: list[str]          # "stable" | "unstable"
    anomalies: list[str]
    blowups: list[float]         # the alphas whose run blew up


def run_stability_scan(
    ell: float,
    alphas,
    amplitude: float,
    t_end: float,
    n_modes: int,
    dt: float,
    seed: int = 0,
    output_stride: int = 1,
) -> StabilityScanReport:
    """Evolve the front equation across alphas and classify the null solution.

    The same seeded zero-mean initial field is reused for every alpha so
    verdict flips are attributable to the parameter alone.
    """
    alphas = np.asarray(list(alphas), dtype=float)
    if amplitude == 0:
        # the zero field is the null solution itself: nothing would be perturbed
        raise ValueError("amplitude must be non-zero")
    grid = make_grid(ell, n_modes)
    ic = random_zero_mean_field(grid, amplitude, seed)
    a_c = alpha_critical(ell)
    configs = [
        (float(alpha), SolverConfig(make_front_equation(alpha, grid), ic, dt, t_end, output_stride))
        for alpha in alphas
    ]
    measured, predicted, verdicts, anomalies, blowups = [], [], [], [], []
    for alpha, traj in _evolve_each(configs, blowups):
        if traj.blown_up:
            anomalies.append(
                f"alpha={alpha:g}: blowup at t={traj.blowup_time:g}"
                + (" on a nominally stable parameter" if alpha < a_c else "")
            )
            rate, grew = np.inf, True
        else:
            rate = measured_growth_rate(traj)
            norms = traj.diagnostics["zero_mean_l2"]
            grew = norms[-1] > norms[0]
        measured.append(rate)
        predicted.append(float(np.max(traj.descriptor.linear_symbol[1:])))
        # net growth decides the verdict: far above threshold the instability
        # saturates before t_end and the late-time rate fit goes flat
        verdicts.append("unstable" if grew else "stable")
    return StabilityScanReport(
        ell=float(ell),
        alpha_c=a_c,
        alphas=alphas,
        measured_rates=np.asarray(measured),
        predicted_rates=np.asarray(predicted),
        verdicts=verdicts,
        anomalies=anomalies,
        blowups=blowups,
    )


@dataclass
class ConvergenceReport:
    ell0: float
    t_end: float
    epsilons: np.ndarray
    sup_errors: np.ndarray   # sup over snapshots and collocation points of |psi_eps - Phi|, nan on blowup
    ratios: np.ndarray       # sup_errors / eps
    fitted_order: float      # log-log slope; the first-order claim means >= ~1
    zeta_sup_l2: np.ndarray  # sup over snapshots of |D (psi_eps - Phi)/eps|_2
    blowups: list[float]


def run_convergence_study(
    phi0: SpectralField,
    t_end: float,
    epsilons,
    dt: float,
    output_stride: int = 10,
) -> ConvergenceReport:
    """Integrate the limit equation and the slow-scale equation side by side.

    Both run in the same slow frame (phi0's grid, slow time), from the same
    initial state, with the same stepper and step, so the measured gap is
    the modelling difference and not interpolation or discretisation noise.
    """
    epsilons = np.asarray(list(epsilons), dtype=float)
    if np.any(np.diff(epsilons) >= 0):
        raise ValueError("epsilons must be strictly decreasing")
    # checked before any run; eps = 0 is the exact limit (make_rescaled_equation)
    outside = epsilons[~((epsilons >= 0) & (epsilons <= 1))]
    if outside.size:
        raise ValueError(f"epsilons must lie in [0, 1], got {', '.join(f'{e:g}' for e in outside)}")
    grid = phi0.grid
    # the K-S run first, keyed 0 (the exact limit), then one run per eps > 0
    configs = [(0.0, SolverConfig(make_ks_equation(grid), phi0, dt, t_end, output_stride))]
    configs += [
        (float(eps), SolverConfig(make_rescaled_equation(eps, grid), phi0, dt, t_end, output_stride))
        for eps in epsilons
        if eps > 0
    ]
    slope_w = slope_energy_weights(grid)
    sup_errors, zeta_sups, blowups = [], [], []
    # keyed like blowups, so the eps = 0 row reads the K-S run, runs[0.0]
    runs = dict(_evolve_each(configs, blowups))
    ks_traj = runs[0.0]
    for traj in (runs[float(eps)] for eps in epsilons):
        if traj.blown_up or ks_traj.blown_up:
            # a run cut short has no gap to measure; its snapshots stop early
            sup_errors.append(np.nan)
            zeta_sups.append(np.nan)
            continue
        diff = traj.coeffs - ks_traj.coeffs
        values = np.fft.irfft(_pack(grid, diff), grid.n_points, norm="forward")
        sup_errors.append(float(np.max(np.abs(values))))
        zeta_sups.append(float(np.max(np.sqrt(diff**2 @ slope_w))))
    sup_errors = np.asarray(sup_errors)
    # the log-log fit only makes sense off the exact eps = 0 limit (nan rows fail > 0)
    fittable = (epsilons > 0) & (sup_errors > 0)
    order = fit_log_slope(epsilons[fittable], sup_errors[fittable]) if fittable.sum() >= 2 else np.nan
    # at eps = 0 the rescaled run is the K-S run, so its gap is exactly 0 and stays 0
    per_eps = np.where(epsilons > 0, epsilons, np.inf)
    return ConvergenceReport(
        ell0=grid.period,
        t_end=float(t_end),
        epsilons=epsilons,
        sup_errors=sup_errors,
        ratios=sup_errors / per_eps,
        fitted_order=order,
        zeta_sup_l2=np.asarray(zeta_sups) / per_eps,
        blowups=blowups,
    )


@dataclass
class EnergyTrace:
    times: np.ndarray
    values: np.ndarray  # the weighted remainder energy at each snapshot
    order: int          # derivative order n of the functional
    epsilon: float
    observed_bound: float  # running max, the empirical uniform bound
    blowups: list[float]   # the runs that blew up: epsilon, or 0 for the K-S run


def run_energy_monitor(
    phi0: SpectralField,
    t_end: float,
    epsilon: float,
    dt: float,
    output_stride: int = 10,
    order: int = 0,
) -> EnergyTrace:
    """Weighted energy of the remainder derivative zeta = D(psi - Phi)/eps.

    Runs K-S (keyed 0) and the slow-scale equation at epsilon from phi0, as
    the convergence study does.  In coefficients the three-term functional
    collapses to sum_k lam_k^n (1 + 4 eps lam_k + (1+eps)(x_k - 1)) zeta_k^2.
    The remainder vanishes identically at the start (same initial state), so
    values[0] == 0.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    grid = phi0.grid
    table = build_rescaled_symbols(epsilon, grid)  # rejects eps outside (0, 1] before any step
    lam = grid.eigenvalues
    weight = (
        lam**order
        * (1.0 + 4.0 * epsilon * lam + (1.0 + epsilon) * table.sqrt_shift)
        * slope_energy_weights(grid)  # one derivative factor for zeta itself
    )
    configs = [
        (0.0, SolverConfig(make_ks_equation(grid), phi0, dt, t_end, output_stride)),
        (float(epsilon), SolverConfig(make_rescaled_equation(epsilon, grid), phi0, dt, t_end, output_stride)),
    ]
    blowups = []
    ks_traj, traj = (run for _, run in _evolve_each(configs, blowups))
    # a blown-up run cuts the trace at its last snapshot
    n = min(len(traj.times), len(ks_traj.times))
    diff = (traj.coeffs[:n] - ks_traj.coeffs[:n]) / epsilon
    values = diff**2 @ weight
    if values[0] != 0.0:
        raise ArithmeticError("remainder is not null at the initial time")
    return EnergyTrace(
        times=traj.times[:n].copy(),
        values=values,
        order=order,
        epsilon=float(epsilon),
        observed_bound=float(np.max(values)),
        blowups=blowups,
    )


@dataclass
class KsAprioriReport:
    times: np.ndarray
    slope_norms: np.ndarray    # |Phi_eta(tau)|_2
    slope_bounds: np.ndarray   # e^(13 tau/6) |Phi_eta(0)|_2
    mean_abs: np.ndarray
    mean_bounds: np.ndarray    # |mean(0)| + (3/26) |Phi_eta(0)|_2^2 e^(13 tau/3)
    slope_bound_ok: bool
    mean_bound_ok: bool
    min_slope_margin: float    # min(bound - value), >= 0 when the bound holds
    min_mean_margin: float
    blowups: list[float]       # [0.0] when the K-S run blew up, else empty


def run_ks_apriori_check(
    phi0: SpectralField, t_end: float, dt: float, output_stride: int = 10
) -> KsAprioriReport:
    """Run K-S (keyed 0) from phi0 and verify both growth bounds at every snapshot."""
    blowups = []
    [(_, trajectory)] = _evolve_each(
        [(0.0, SolverConfig(make_ks_equation(phi0.grid), phi0, dt, t_end, output_stride))], blowups
    )
    times = trajectory.times
    slope = np.sqrt(trajectory.diagnostics["slope_sq_mean"])
    slope_bound = np.exp(13.0 * times / 6.0) * slope[0]
    mean_abs = np.abs(trajectory.diagnostics["mean"])
    mean_bound = mean_abs[0] + (3.0 / 26.0) * slope[0] ** 2 * np.exp(13.0 * times / 3.0)
    return KsAprioriReport(
        times=times.copy(),
        slope_norms=slope,
        slope_bounds=slope_bound,
        mean_abs=mean_abs,
        mean_bounds=mean_bound,
        slope_bound_ok=bool(np.all(slope <= slope_bound * (1 + 1e-12))),
        mean_bound_ok=bool(np.all(mean_abs <= mean_bound * (1 + 1e-12))),
        min_slope_margin=float(np.min(slope_bound - slope)),
        min_mean_margin=float(np.min(mean_bound - mean_abs)),
        blowups=blowups,
    )


@dataclass
class GalerkinReport:
    n_list: list[int]
    final_diffs: np.ndarray  # L2 gap between consecutive truncations' t_end states, nan on blowup
    max_l2: np.ndarray       # per-truncation running max of the L2 norm
    blowups: list[int]


def run_galerkin_refinement(
    make_descriptor,
    initial,
    period: float,
    n_list,
    t_end: float,
    dt: float,
    output_stride: int = 10,
) -> GalerkinReport:
    """Re-run one equation at increasing truncation and compare final states.

    ``make_descriptor`` maps a grid to the equation; ``initial`` maps a grid
    to the starting field (so the same function is projected onto each
    truncation, which is exactly the nested-projection construction).
    """
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    configs = []
    for n in n_list:
        grid = make_grid(period, n)
        configs.append((n, SolverConfig(make_descriptor(grid), initial(grid), dt, t_end, output_stride)))
    finals, max_l2, blowups = [], [], []
    for n, traj in _evolve_each(configs, blowups):
        # a blown-up truncation has no t_end state: every gap it enters is nan
        finals.append(np.full(n, np.nan) if traj.blown_up else traj.coeffs[-1])
        max_l2.append(float(np.max(traj.diagnostics["l2"])))
    diffs = []
    for a, b in zip(finals, finals[1:]):
        padded = np.zeros_like(b)
        padded[: len(a)] = a
        diffs.append(float(np.sqrt(np.sum((padded - b) ** 2))))
    return GalerkinReport(
        n_list=n_list,
        final_diffs=np.asarray(diffs),
        max_l2=np.asarray(max_l2),
        blowups=blowups,
    )


@dataclass
class OrderCheck:
    dt: float
    error_coarse: float  # against a dt/8 reference, nan when either run blew up
    error_half: float
    ratio: float         # ~2^4 for a fourth-order scheme
    blowups: list[float]  # the steps whose run blew up


def etdrk4_order_check(
    descriptor: EquationDescriptor, initial: SpectralField, t_end: float, dt: float
) -> OrderCheck:
    """Self-convergence of the stepper under dt halving (reference at dt/8)."""
    configs = [
        (dt / scale, SolverConfig(descriptor, initial, dt / scale, t_end, output_stride=10**9))
        for scale in (1, 2, 8)
    ]
    blowups = []
    # final states only; a blown-up run has none, so every error it enters is nan
    coarse, half, ref = (
        np.full(descriptor.grid.n_modes, np.nan) if traj.blown_up else traj.coeffs[-1]
        for _, traj in _evolve_each(configs, blowups)
    )
    e1 = np.sqrt(np.sum((coarse - ref) ** 2))
    e2 = np.sqrt(np.sum((half - ref) ** 2))
    # a dt/2 run that lands on the reference: 0/0 is nan, a positive error over 0 is inf
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = float(e1 / e2)
    return OrderCheck(dt=dt, error_coarse=float(e1), error_half=float(e2), ratio=ratio, blowups=blowups)
