"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``); the
test name carries the criterion number so ``pytest -v`` gives the same
one-line-per-criterion view.  Heavy runs (the slow-scale sweep and the
threshold scan) are computed once per module and shared.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from frontks import experiments
from frontks.evolve import SolverConfig, evolve, make_front_equation, mean_mode_ode_check
from frontks.experiments import (
    etdrk4_order_check,
    run_convergence_study,
    run_energy_monitor,
    run_galerkin_refinement,
    run_ks_apriori_check,
    run_stability_scan,
)
from frontks.grid import SpectralField, cosine_field, make_grid
from frontks.profiles import (
    FrontModeData,
    front_time_derivative,
    jump_residuals,
    profile_coefficients,
    reconstruct_mode,
)
from frontks.evolve import make_ks_equation
from frontks.symbols import alpha_critical, build_rescaled_symbols, build_symbols


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description} ({time.perf_counter() - start:.2f}s)")


# --- shared heavy runs ------------------------------------------------------

SWEEP_EPSILONS = [0.08, 0.04, 0.02, 0.01]
SWEEP_RUN = {"t_end": 1.0, "dt": 1e-3, "output_stride": 10}


def sweep_field():
    """Criterion-6 initial state: ell0 = 10 pi, N = 128, Phi0 = 0.1 cos(2 pi eta/ell0)."""
    return cosine_field(make_grid(10 * np.pi, 128), 0.1, 1)


@contextmanager
def recorded_runs():
    """The trajectories experiments.evolve returns inside the block, in call order."""
    runs = []

    def recording(config, _evolve=experiments.evolve):
        runs.append(_evolve(config))
        return runs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "evolve", recording)
        yield runs


@pytest.fixture(scope="module")
def sweep():
    """The criterion-6 report, its wall time and its five runs (K-S first), recorded at the evolve seam."""
    with recorded_runs() as runs:
        start = time.perf_counter()
        report = run_convergence_study(sweep_field(), epsilons=SWEEP_EPSILONS, **SWEEP_RUN)
        elapsed = time.perf_counter() - start
    return report, elapsed, runs


@pytest.fixture(scope="module")
def threshold_scan():
    """The scan report, its wall time and its runs, recorded at the evolve seam."""
    with recorded_runs() as runs:
        start = time.perf_counter()
        report = run_stability_scan(
            ell=4 * np.pi,
            alphas=[1.9, 2.1],
            amplitude=1e-4,
            t_end=160.0,
            n_modes=64,
            dt=0.01,
            seed=7,
            output_stride=1,
        )
        elapsed = time.perf_counter() - start
    return report, elapsed, runs


# --- criteria ----------------------------------------------------------------


def test_criterion_01_symbol_identities():
    with criterion(1, "symbol quotient and rescaled recombination identities"):
        start = time.perf_counter()
        for ell in (2 * np.pi, 4 * np.pi, 10 * np.pi):
            grid = make_grid(ell, 256)
            for alpha in (0.5, 1.0, 3.0):
                t = build_symbols(alpha, grid)
                res_l = np.abs(t.growth_rate * t.mass - t.stiffness) / (np.abs(t.stiffness) + 1)
                res_g = np.abs(t.quad_gain * t.mass - t.quad_filter) / (np.abs(t.quad_filter) + 1)
                assert np.max(res_l) < 1e-11
                assert np.max(res_g) < 1e-11
            for eps in (1.0, 0.1, 1e-3, 1e-6):
                rt = build_rescaled_symbols(eps, grid)
                assert np.max(np.abs(rt.mass - eps * rt.mass_correction - 1.0)) <= 1e-12
                assert np.max(np.abs(rt.quad_filter - eps * rt.quad_correction + 0.5)) <= 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_02_zero_mode_exactness():
    with criterion(2, "zero-mode multipliers equal (1, 0, -1/2, 0, -1/2)"):
        for alpha in (0.5, 1.0, 3.0, 4.999):
            t = build_symbols(alpha, make_grid(2 * np.pi, 16))
            for got, want in (
                (t.mass[0], 1.0),
                (t.stiffness[0], 0.0),
                (t.quad_filter[0], -0.5),
                (t.growth_rate[0], 0.0),
                (t.quad_gain[0], -0.5),
            ):
                assert abs(got - want) <= 1e-15


def test_criterion_03_threshold_reproduction(threshold_scan):
    report, elapsed, _ = threshold_scan
    with criterion(3, "alpha_c values and verdict flip between 1.9 and 2.1"):
        assert alpha_critical(4 * np.pi) == 2.0
        assert alpha_critical(2 * np.pi) == 5.0
        assert report.verdicts == ["stable", "unstable"]
        for measured, predicted in zip(report.measured_rates, report.predicted_rates):
            assert abs(measured - predicted) < 0.1 * abs(predicted)
        assert elapsed < 30.0


def test_criterion_04_linear_dispersion():
    with criterion(4, "single-mode runs follow exp(l_k t) over t = 1"):
        start = time.perf_counter()
        grid = make_grid(10 * np.pi, 256)
        desc = make_front_equation(1.0, grid)
        lam = grid.eigenvalues
        modes = [1, 9, 25, 49, 100]
        assert lam[modes[0]] == lam[1] and lam[modes[-1]] == lam[100]
        for k in modes:
            ic = np.zeros(grid.n_modes)
            ic[k] = 1e-8
            traj = evolve(
                SolverConfig(
                    descriptor=desc,
                    initial_condition=SpectralField(grid, ic),
                    dt=1e-3,
                    t_end=1.0,
                    output_stride=10**9,
                )
            )
            ratio = traj.coeffs[-1][k] / 1e-8
            assert abs(ratio / np.exp(desc.linear_symbol[k]) - 1.0) < 1e-6
        assert time.perf_counter() - start < 10.0


def test_criterion_05_derivation_audit():
    with criterion(5, "50 randomized profile reconstructions close both jumps"):
        start = time.perf_counter()
        rng = np.random.default_rng(42)
        grid = make_grid(2 * np.pi, 128)
        x_points = np.linspace(-10, 5, 31)
        for _ in range(50):
            k = int(rng.integers(1, grid.n_modes))
            lam = float(grid.eigenvalues[k])
            alpha = float(rng.uniform(0.3, 3.0))
            phi = float(rng.uniform(-1, 1))
            q = float(rng.uniform(-1, 1))
            data = FrontModeData(
                k=k, lambda_k=lam, alpha=alpha, phi=phi,
                phi_t=front_time_derivative(alpha, lam, phi, q), phiy_sq=q,
            )
            res = jump_residuals(
                reconstruct_mode(data, profile_coefficients(data), x_points), data
            )
            assert res.boundary_residual < 1e-9
            assert res.flux_residual < 1e-9
        assert time.perf_counter() - start < 5.0


def test_criterion_06_convergence_to_limit_equation(sweep):
    rep, elapsed, _ = sweep
    with criterion(6, "sup|psi_eps - Phi|/eps bounded with fitted order >= 0.9"):
        assert rep.blowups == []
        assert np.max(rep.ratios) / np.min(rep.ratios) < 3.0
        assert rep.fitted_order >= 0.9
        assert elapsed < 300.0


def test_criterion_07_remainder_energy():
    with criterion(7, "remainder energy null at start, uniform across the sweep"):
        observed = []
        for eps in SWEEP_EPSILONS:
            trace = run_energy_monitor(sweep_field(), epsilon=eps, order=0, **SWEEP_RUN)
            assert trace.values[0] == 0.0
            assert np.all(np.isfinite(trace.values))
            observed.append(trace.observed_bound)
        assert max(observed) / min(observed) < 2.0


def test_criterion_08_ks_apriori_bounds():
    with criterion(8, "limit-equation slope and mean bounds at every snapshot"):
        report = run_ks_apriori_check(sweep_field(), **SWEEP_RUN)
        assert report.slope_bound_ok
        assert report.mean_bound_ok


def test_criterion_09_galerkin_and_time_order():
    with criterion(9, "spectral self-convergence and fourth-order dt refinement"):
        refine = run_galerkin_refinement(
            make_descriptor=make_ks_equation,
            initial=lambda g: cosine_field(g, 12.7, 1),
            period=80.0,
            n_list=[32, 64, 128, 256],
            t_end=10.0,
            dt=2e-3,
            output_stride=10**9,
        )
        assert refine.blowups == []
        diffs = refine.final_diffs
        for coarse, fine in zip(diffs, diffs[1:]):
            if coarse < 1e-3:
                assert fine <= coarse / 10.0
        assert diffs[-1] < 1e-9
        grid = make_grid(80.0, 64)
        order = etdrk4_order_check(
            make_ks_equation(grid), cosine_field(grid, 12.7, 1), t_end=4.0, dt=0.2
        )
        assert 12.0 <= order.ratio <= 20.0


def test_criterion_10_mean_mode_law(sweep, threshold_scan):
    _, _, sweep_runs = sweep
    _, _, scan_runs = threshold_scan
    with criterion(10, "mean obeys p' = -1/2 mean((slope)^2) and never increases"):
        trajectories = [*scan_runs, *sweep_runs]
        assert len(trajectories) == 7
        for traj in trajectories:
            check = mean_mode_ode_check(traj)
            assert check.max_residual < 1e-6
            assert check.mean_nonincreasing
