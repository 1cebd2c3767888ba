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
    SolverConfig,
    Trajectory,
    evolve,
    make_front_equation,
    make_ks_equation,
    make_rescaled_equation,
)
from .grid import SpectralField, _pack, make_grid, slope_energy_weights
from .symbols import alpha_critical, build_rescaled_symbols

__all__ = [
    "StabilityScanReport",
    "ConvergenceReport",
    "EnergyTrace",
    "KsAprioriReport",
    "GalerkinReport",
    "fit_log_slope",
    "measured_growth_rate",
    "run_stability_scan",
    "run_convergence_study",
    "run_energy_monitor",
    "run_ks_apriori_check",
    "run_galerkin_refinement",
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


def _slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y against x, nan when x has no spread: centred, so exact
    to rounding, and closed form, so no LAPACK (np.polyfit pages its SVD in)."""
    if x.min() == x.max():  # the float mean of equal values can miss them by an ulp
        return np.nan
    dx = x - x.mean()
    return float(dx @ (y - y.mean()) / (dx @ dx))


def fit_log_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log(y) against log(x); nan when x has no spread."""
    return _slope(np.log(np.asarray(x)), np.log(np.asarray(y)))


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
    return _slope(times[sel], np.log(norms[sel]))


@dataclass(eq=False)
class StabilityScanReport:
    """alpha_c and, per alpha, the measured and predicted growth rates of the null front and its verdict."""

    alpha_c: float
    alphas: np.ndarray
    measured_rates: np.ndarray
    predicted_rates: np.ndarray  # max over k >= 1 of the linear growth rates
    verdicts: list[str]          # "stable" | "unstable"
    anomalies: list[str]
    blowups: list[float]         # the alphas whose run blew up


def run_stability_scan(
    phi0: SpectralField,
    alphas,
    t_end: float,
    dt: float,
    output_stride: int = 1,
) -> StabilityScanReport:
    """Evolve the front equation from phi0 across alphas and classify the null solution.

    The one initial field of every alpha ties verdict flips to the parameter alone.
    """
    alphas = np.asarray(list(alphas), dtype=float)
    if not np.any(phi0.coeffs):
        # the zero field is the null solution itself: nothing would be perturbed
        raise ValueError("amplitude must be non-zero")
    if np.sum(phi0.coeffs[1:] ** 2) < np.finfo(float).tiny:
        # the squared norms would underflow to 0, every fitted rate to -inf, every verdict to stable
        raise ValueError("amplitude too small: the squares of the initial field's zero-mean part "
                         "underflow (amplitude below about 1.5e-154)")
    a_c = alpha_critical(phi0.grid.period)
    configs = [
        (float(alpha), SolverConfig(make_front_equation(alpha, phi0.grid), phi0, dt, t_end, output_stride))
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
        alpha_c=a_c,
        alphas=alphas,
        measured_rates=np.asarray(measured),
        predicted_rates=np.asarray(predicted),
        verdicts=verdicts,
        anomalies=anomalies,
        blowups=blowups,
    )


@dataclass(eq=False)
class ConvergenceReport:
    """Per-epsilon gap between the slow-scale and the K-S runs, and its fitted order in epsilon."""

    epsilons: np.ndarray
    sup_errors: np.ndarray   # sup over snapshots and collocation points of |psi_eps - Phi|, nan on blowup
    ratios: np.ndarray       # sup_errors / eps
    fitted_order: float      # log-log slope; the first-order claim means >= ~1
    zeta_sup_l2: np.ndarray  # sup over snapshots of |D (psi_eps - Phi)/eps|_2
    # per consecutive pair, sup over snapshots and collocation points of the Richardson
    # difference (eps_i e_{i+1} - eps_{i+1} e_i)/(eps_i - eps_{i+1}) of e = psi_eps - Phi,
    # 2 e(eps/2) - e(eps) for halving eps; nan if either run or the K-S run blew up
    richardson_sup: np.ndarray
    richardson_order: np.ndarray  # local orders of consecutive richardson_sup values, >= ~2 when e = eps Phi_1 + O(eps^2)
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
    grid = phi0.grid
    # the K-S run first, keyed 0 (the limit), then one run per eps, each
    # checked by make_rescaled_equation before any run
    configs = [(0.0, SolverConfig(make_ks_equation(grid), phi0, dt, t_end, output_stride))]
    configs += [
        (float(eps), SolverConfig(make_rescaled_equation(eps, grid), phi0, dt, t_end, output_stride))
        for eps in epsilons
    ]
    slope_w = slope_energy_weights(grid)
    sup_errors, zeta_sups, gaps, blowups = [], [], [], []
    ks_traj, *trajs = (traj for _, traj in _evolve_each(configs, blowups))
    for traj in trajs:
        if traj.blown_up or ks_traj.blown_up:
            # a run cut short has no gap to measure; its snapshots stop early
            sup_errors.append(np.nan)
            zeta_sups.append(np.nan)
            gaps.append(None)
            continue
        diff = traj.coeffs - ks_traj.coeffs
        gaps.append(np.fft.irfft(_pack(grid, diff), grid.n_points, norm="forward"))
        sup_errors.append(float(np.max(np.abs(gaps[-1]))))
        zeta_sups.append(float(np.max(np.sqrt(diff**2 @ slope_w))))
    richardson = np.array([
        np.nan if coarse is None or fine is None else float(np.max(np.abs(a * fine - b * coarse))) / (a - b)
        for a, b, coarse, fine in zip(epsilons, epsilons[1:], gaps, gaps[1:])
    ])
    # richardson[i] = eps_i eps_{i+1} |Phi_2| + ..., the size at the scale sqrt(eps_i eps_{i+1}), so the
    # local order of a consecutive pair is 2 log(R_i/R_{i+1}) / log(eps_i/eps_{i+2}): log2(R_i/R_{i+1})
    # for halving eps.  Logs only of positive finite values, and no division by a zero span, so no warning
    usable = (richardson > 0) & (richardson < np.inf)
    log_r = np.log(richardson, out=np.zeros_like(richardson), where=usable)
    log_eps = np.log(epsilons)
    span = log_eps[:-2] - log_eps[2:]
    richardson_order = np.divide(
        2.0 * (log_r[:-1] - log_r[1:]), span, out=np.full(span.shape, np.nan),
        where=usable[:-1] & usable[1:] & (span > 0),
    )
    sup_errors = np.asarray(sup_errors)
    fittable = sup_errors > 0  # nan rows fail it
    order = fit_log_slope(epsilons[fittable], sup_errors[fittable]) if fittable.sum() >= 2 else np.nan
    return ConvergenceReport(
        epsilons=epsilons,
        sup_errors=sup_errors,
        ratios=sup_errors / epsilons,
        fitted_order=order,
        zeta_sup_l2=np.asarray(zeta_sups) / epsilons,
        richardson_sup=richardson,
        richardson_order=richardson_order,
        blowups=blowups,
    )


@dataclass(eq=False)
class EnergyTrace:
    """The weighted remainder energy at each snapshot and its running maximum."""

    times: np.ndarray
    values: np.ndarray  # the weighted remainder energy at each snapshot
    observed_bound: float  # running max, the empirical uniform bound
    blowups: list[float]   # the runs that blew up: epsilon, or 0 for the K-S run


def run_energy_monitor(
    phi0: SpectralField,
    t_end: float,
    epsilon: float,
    dt: float,
    output_stride: int = 10,
) -> EnergyTrace:
    """Weighted energy of the remainder derivative zeta = D(psi - Phi)/eps.

    Runs K-S (keyed 0) and the slow-scale equation at epsilon from phi0, as
    the convergence study does.  In coefficients the three-term functional
    collapses to sum_k (1 + 4 eps lam_k + (1+eps)(x_k - 1)) zeta_k^2.
    The remainder vanishes identically at the start (same initial state), so
    values[0] == 0.
    """
    grid = phi0.grid
    table = build_rescaled_symbols(epsilon, grid)  # rejects eps outside (0, 1] before any step
    lam = grid.eigenvalues
    weight = (
        (1.0 + 4.0 * epsilon * lam + (1.0 + epsilon) * table.sqrt_shift)
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
        observed_bound=float(np.max(values)),
        blowups=blowups,
    )


@dataclass(eq=False)
class KsAprioriReport:
    """K-S slope norm and mean at each snapshot against their growth bounds."""

    times: np.ndarray
    slope_norms: np.ndarray    # |Phi_eta(tau)|_2
    slope_bounds: np.ndarray   # e^(13 tau/6) |Phi_eta(0)|_2
    mean_abs: np.ndarray
    mean_bounds: np.ndarray    # |mean(0)| + (3/26) |Phi_eta(0)|_2^2 e^(13 tau/3)
    slope_bound_ok: bool
    mean_bound_ok: bool
    min_slope_margin: float    # min over tau > 0 of (bound - value), >= 0 when the bound holds
    min_mean_margin: float     # likewise; both nan when no snapshot past tau = 0 was kept
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
    mean_abs = np.abs(trajectory.diagnostics["mean"])
    # np.exp passes the float range at tau > 163.8 (mean bound) and 327.6 (slope bound);
    # the bound then reads inf, above every finite norm, so no verdict or margin moves
    with np.errstate(over="ignore"):
        slope_growth, mean_growth = np.exp(13.0 * times / 6.0), np.exp(13.0 * times / 3.0)
    # a zero field's bounds do not grow, where 0 * inf would read nan
    zero = np.zeros_like(times)
    slope_bound = slope_growth * slope[0] if slope[0] else zero
    mean_bound = mean_abs[0] + ((3.0 / 26.0) * slope[0] ** 2 * mean_growth if slope[0] else zero)
    # the margins over tau > 0: at tau = 0 the slope bound is the slope norm itself, so a
    # minimum over it would read 0.0; a run that blew up in its first step has no tau > 0
    slope_margin, mean_margin = (
        float(np.min(bound[1:] - value[1:])) if len(times) > 1 else np.nan
        for bound, value in ((slope_bound, slope), (mean_bound, mean_abs))
    )
    return KsAprioriReport(
        times=times.copy(),
        slope_norms=slope,
        slope_bounds=slope_bound,
        mean_abs=mean_abs,
        mean_bounds=mean_bound,
        slope_bound_ok=bool(np.all(slope <= slope_bound * (1 + 1e-12))),
        mean_bound_ok=bool(np.all(mean_abs <= mean_bound * (1 + 1e-12))),
        min_slope_margin=slope_margin,
        min_mean_margin=mean_margin,
        blowups=blowups,
    )


@dataclass(eq=False)
class GalerkinReport:
    """Final-state gaps between consecutive truncations and each truncation's peak L2 norm."""

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
    if len(n_list) < 2:
        raise ValueError(f"n_list must hold at least two truncations to compare, got {n_list}")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    if n_list[0] < 3:
        raise ValueError(f"n_list truncations must have at least 3 modes, got {n_list}")
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
