"""Experiment harness: scans, convergence, energy, bounds, refinement."""

from dataclasses import replace

import numpy as np
import pytest

import frontks.experiments
from frontks.evolve import EquationDescriptor, Trajectory, make_front_equation, make_ks_equation
from frontks.experiments import (
    fit_log_slope,
    measured_growth_rate,
    run_convergence_study,
    run_energy_monitor,
    run_galerkin_refinement,
    run_ks_apriori_check,
    run_stability_scan,
)
from frontks.grid import (
    SpectralField,
    cosine_field,
    differentiate,
    make_grid,
    random_zero_mean_field,
)
from frontks.symbols import build_rescaled_symbols


def test_fit_log_slope_recovers_power_law():
    x = np.array([1.0, 0.5, 0.25, 0.125])
    assert fit_log_slope(x, 3.0 * x**1.7) == pytest.approx(1.7, rel=1e-12)


def test_threshold_bracketing_scan():
    """0.1-spaced scan across the critical parameter: one verdict flip, in the
    bracketing pair, nowhere else."""
    alphas = np.round(np.arange(1.0, 3.0 + 1e-9, 0.1), 10)
    phi0 = random_zero_mean_field(make_grid(4 * np.pi, 32), 1e-5, 1)
    report = run_stability_scan(phi0, alphas=alphas, t_end=60.0, dt=0.1)
    assert report.alpha_c == pytest.approx(2.0)
    verdicts = report.verdicts
    for a, v in zip(report.alphas, verdicts):
        if a <= 1.9:
            assert v == "stable", a
        if a >= 2.1:
            assert v == "unstable", a
    flips = sum(v1 != v2 for v1, v2 in zip(verdicts, verdicts[1:]))
    assert flips == 1
    # rate agreement where the rate is meaningfully nonzero
    for a, m, p in zip(report.alphas, report.measured_rates, report.predicted_rates):
        if abs(p) > 1e-3:
            assert abs(m - p) < 0.1 * abs(p), a
    assert report.anomalies == []


def test_measured_growth_rate_is_minus_inf_when_a_norm_in_its_window_is_zero():
    times = np.linspace(0.0, 1.0, 11)
    norms = np.exp(-times)
    traj = Trajectory(None, times, np.zeros((11, 3)), {"zero_mean_l2": norms})
    assert measured_growth_rate(traj) == pytest.approx(-1.0, rel=1e-12)
    norms[-2] = 0.0
    assert measured_growth_rate(traj) == -np.inf
    # a zero before the window does not count
    norms[-2], norms[0] = np.exp(-0.9), 0.0
    assert measured_growth_rate(traj) == pytest.approx(-1.0, rel=1e-12)


def test_scan_reports_blowup_as_anomaly_not_crash():
    # grossly oversized step + huge data force the integrator off the rails
    phi0 = random_zero_mean_field(make_grid(4 * np.pi, 32), 1e3, 0)
    report = run_stability_scan(phi0, alphas=[1.5], t_end=50.0, dt=5.0)
    assert len(report.anomalies) == 1
    assert "nominally stable" in report.anomalies[0]


def test_scan_does_not_change_when_its_initial_field_is_shifted_by_half_a_period():
    # f(y - L/2) flips the sign of every odd harmonic; the equation cannot tell the two apart
    field = random_zero_mean_field(make_grid(4 * np.pi, 64), 1e-4, 3)
    shifted = SpectralField(field.grid, field.coeffs * (-1.0) ** ((np.arange(field.grid.n_modes) + 1) // 2))
    scan = dict(alphas=[1.0, 1.3, 1.6, 1.9, 8.0, 9.0, 10.0, 12.0], t_end=1.0, dt=0.01)
    plain = run_stability_scan(field, **scan)
    moved = run_stability_scan(shifted, **scan)
    assert moved.verdicts == plain.verdicts == ["stable"] * 4 + ["unstable"] * 4
    np.testing.assert_allclose(moved.measured_rates, plain.measured_rates, rtol=1e-12, atol=0)
    assert moved.anomalies == plain.anomalies == []


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_scan_rejects_a_bad_alpha_before_evolving(bad, monkeypatch):
    # the configs are all built, and each alpha checked, before the first run
    evolved = []
    monkeypatch.setattr(frontks.experiments, "evolve", evolved.append)
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        run_stability_scan(random_zero_mean_field(make_grid(4 * np.pi, 16), 1e-4, 0), [1.5, bad], 1.0, 0.1)
    assert evolved == []


def test_convergence_study_small():
    ell0 = 10 * np.pi
    grid = make_grid(ell0, 64)
    phi0 = cosine_field(grid, 0.1, 1)
    rep = run_convergence_study(phi0, 0.5, [0.08, 0.04], dt=2e-3, output_stride=5)
    assert rep.blowups == []
    assert np.all(rep.sup_errors > 0)
    assert rep.ratios[0] == pytest.approx(rep.ratios[1], rel=0.2)  # ~linear in eps
    assert np.all(np.isfinite(rep.zeta_sup_l2))


def test_convergence_requires_decreasing_epsilons():
    grid = make_grid(10 * np.pi, 16)
    with pytest.raises(ValueError):
        run_convergence_study(cosine_field(grid, 0.1, 1), 0.1, [0.01, 0.02], dt=1e-2)


def _recorded_runs(monkeypatch, edit=lambda config, traj: traj):
    """The trajectories experiments.evolve returns from now on, each passed through edit."""
    runs = []

    def recording(config, _evolve=frontks.experiments.evolve):
        runs.append(edit(config, _evolve(config)))
        return runs[-1]

    monkeypatch.setattr(frontks.experiments, "evolve", recording)
    return runs


def _energy(eps):
    # a short paired run: K-S and the slow-scale equation from 0.1 cos on ell0 = 10 pi
    phi0 = cosine_field(make_grid(10 * np.pi, 32), 0.1, 1)
    return run_energy_monitor(phi0, 0.3, eps, dt=2e-3, output_stride=5)


def test_energy_identity_against_three_term_definition(monkeypatch):
    eps = 0.05
    runs = _recorded_runs(monkeypatch)
    trace = _energy(eps)
    phi, psi = runs  # the K-S run first, then the slow-scale run
    assert trace.values[0] == 0.0
    table = build_rescaled_symbols(eps, psi.grid)
    i = len(trace.times) - 1
    rho = SpectralField(psi.grid, (psi.coeffs[i] - phi.coeffs[i]) / eps)
    zeta = differentiate(rho)
    three_terms = (
        float(np.sum(zeta.coeffs**2))
        + 4 * eps * float(np.sum(psi.grid.eigenvalues * zeta.coeffs**2))
        + (1 + eps) * float(np.sum(table.sqrt_shift * zeta.coeffs**2))
    )
    assert trace.values[i] == pytest.approx(three_terms, rel=1e-12, abs=1e-300)


def test_energy_monitor_nonzero_initial_remainder_is_an_internal_error(monkeypatch):
    # an invariant of the paired run, not a bad argument: not a ValueError
    shifts = iter([0.0, 1e-3])  # the K-S run first, then the eps run
    _recorded_runs(monkeypatch, lambda config, traj: replace(traj, coeffs=traj.coeffs + next(shifts)))
    with pytest.raises(ArithmeticError):
        _energy(0.05)


def test_ks_apriori_zero_initial_data():
    grid = make_grid(10 * np.pi, 16)
    rep = run_ks_apriori_check(SpectralField(grid, np.zeros(16)), 0.1, 0.01, output_stride=1)
    assert rep.slope_bound_ok and rep.mean_bound_ok
    assert rep.min_slope_margin == 0.0  # equality: both sides vanish
    assert rep.blowups == []


def test_ks_apriori_short_run_has_margin():
    grid = make_grid(10 * np.pi, 64)
    rep = run_ks_apriori_check(cosine_field(grid, 0.1, 1), 2.0, 1e-3, output_stride=100)
    assert rep.slope_bound_ok and rep.mean_bound_ok
    assert rep.min_mean_margin > 0
    # the margins are taken over tau > 0: at tau = 0 the slope bound is the slope norm itself
    slope_margins = rep.slope_bounds - rep.slope_norms
    mean_margins = rep.mean_bounds - rep.mean_abs
    assert slope_margins[0] == 0.0
    assert rep.min_slope_margin == np.min(slope_margins[1:]) > 0.0
    assert rep.min_mean_margin == np.min(mean_margins[1:]) > mean_margins[0]


def test_ks_apriori_first_step_blowup_has_no_margins():
    grid = make_grid(80.0, 64)
    rep = run_ks_apriori_check(cosine_field(grid, 50.0, 1), 50.0, 5.0)
    assert rep.blowups == [0.0] and list(rep.times) == [0.0]
    assert np.isnan(rep.min_slope_margin) and np.isnan(rep.min_mean_margin)


def test_galerkin_linear_problem_identical_beyond_active_band():
    lam_of = lambda g: g.eigenvalues
    make_linear = lambda g: EquationDescriptor(g, lam_of(g) - 4 * lam_of(g) ** 2, np.zeros(g.n_modes))
    rep = run_galerkin_refinement(
        make_descriptor=make_linear,
        initial=lambda g: cosine_field(g, 1.0, 1),
        period=10 * np.pi,
        n_list=[8, 16, 32],
        t_end=1.0,
        dt=0.01,
    )
    assert np.all(rep.final_diffs == 0.0)


def test_galerkin_ks_resolved_small_amplitude():
    # smooth small-amplitude run: already resolved at the coarsest truncation
    rep = run_galerkin_refinement(
        make_descriptor=make_ks_equation,
        initial=lambda g: cosine_field(g, 0.1, 1),
        period=10 * np.pi,
        n_list=[32, 64, 128],
        t_end=1.0,
        dt=2e-3,
    )
    assert np.all(rep.final_diffs < 1e-8)
    assert rep.blowups == []


def test_galerkin_front_above_threshold_bounded():
    rep = run_galerkin_refinement(
        make_descriptor=lambda g: make_front_equation(2.2, g),
        initial=lambda g: cosine_field(g, 1e-4, 1),
        period=4 * np.pi,
        n_list=[16, 32, 64],
        t_end=5.0,
        dt=0.01,
    )
    assert rep.blowups == []
    assert np.all(rep.final_diffs < 1e-8)  # growth identical across truncations
    assert np.max(rep.max_l2) < 1e-2


def test_galerkin_blown_up_truncation_has_no_gap():
    # N=16 blows up at t=150; its last kept snapshot (t=100) is no t_end state
    rep = run_galerkin_refinement(
        make_descriptor=make_ks_equation,
        initial=lambda g: cosine_field(g, 5.0, 1),
        period=80.0,
        n_list=[16, 32],
        t_end=250.0,
        dt=5.0,
        output_stride=10,
    )
    assert rep.blowups == [16]
    assert np.isnan(rep.final_diffs[0])


def test_galerkin_rejects_a_bad_member_before_evolving(monkeypatch):
    evolved = []
    monkeypatch.setattr(frontks.experiments, "evolve", lambda config: evolved.append(config))

    def initial(grid):
        if grid.n_modes == 32:
            raise ValueError("no initial field at n=32")
        return cosine_field(grid, 1.0, 1)

    with pytest.raises(ValueError, match="n=32"):
        run_galerkin_refinement(
            make_descriptor=make_ks_equation, initial=initial, period=10 * np.pi,
            n_list=[16, 32], t_end=0.1, dt=0.01,
        )
    assert evolved == []


def test_galerkin_requires_increasing_truncations():
    with pytest.raises(ValueError):
        run_galerkin_refinement(
            make_descriptor=make_ks_equation,
            initial=lambda g: cosine_field(g, 1.0, 1),
            period=10 * np.pi,
            n_list=[64, 32],
            t_end=0.1,
            dt=0.01,
        )


@pytest.mark.parametrize("n_list", [[32], []])
def test_galerkin_requires_two_truncations_before_evolving(n_list, monkeypatch):
    # one truncation has no neighbour to compare with: no gap would be measured
    evolved = []
    monkeypatch.setattr(frontks.experiments, "evolve", lambda config: evolved.append(config))
    with pytest.raises(ValueError, match="at least two truncations"):
        run_galerkin_refinement(
            make_descriptor=make_ks_equation, initial=lambda g: cosine_field(g, 1.0, 1),
            period=80.0, n_list=n_list, t_end=0.1, dt=0.01,
        )
    assert evolved == []
