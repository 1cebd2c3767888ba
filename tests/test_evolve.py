"""Evolver: descriptors, ETDRK4 stepping, trajectories, mean-mode law."""

import math

import numpy as np
import pytest

from frontks.evolve import (
    Etdrk4,
    EquationDescriptor,
    NumericalBlowupError,
    SolverConfig,
    Trajectory,
    default_dt,
    evolve,
    make_front_equation,
    make_ks_equation,
    make_rescaled_equation,
    mean_mode_ode_check,
    step,
)
from frontks.experiments import fit_log_slope
from frontks.grid import (
    SpectralField,
    cosine_field,
    dealiased_square,
    differentiate,
    make_grid,
    random_zero_mean_field,
)

TWO_PI = 2.0 * np.pi


def test_front_descriptor_matches_symbol_oracle():
    grid = make_grid(TWO_PI, 8)
    desc = make_front_equation(1.0, grid)
    # lam = 1 mode, frozen extended-precision values
    assert desc.linear_symbol[1] == pytest.approx(-0.64142982636371283767, rel=1e-15)
    assert desc.nonlinear_symbol[1] == pytest.approx(-0.35134046221598078532, rel=1e-15)
    assert desc.linear_symbol[0] == 0.0
    assert desc.nonlinear_symbol[0] == -0.5


def test_ks_neutral_mode_at_threshold_period():
    # at period 4 pi the first harmonic has lam = 1/4, exactly neutral
    desc = make_ks_equation(make_grid(4 * np.pi, 8))
    assert desc.linear_symbol[1] == 0.0
    assert np.all(desc.nonlinear_symbol == -0.5)


def test_rescaled_descriptor_limits():
    grid = make_grid(10 * np.pi, 16)
    ks = make_ks_equation(grid)
    zero = make_rescaled_equation(0.0, grid)
    assert np.array_equal(zero.linear_symbol, ks.linear_symbol)
    assert np.array_equal(zero.nonlinear_symbol, ks.nonlinear_symbol)
    gaps = []
    eps_list = [1e-2, 1e-3, 1e-4]
    for eps in eps_list:
        d = make_rescaled_equation(eps, grid)
        gaps.append(
            np.max(np.abs(d.linear_symbol - ks.linear_symbol))
            + np.max(np.abs(d.nonlinear_symbol - ks.nonlinear_symbol))
        )
    assert fit_log_slope(eps_list, gaps) > 0.9  # entrywise gap shrinks linearly


def test_zero_field_is_fixed_point():
    grid = make_grid(TWO_PI, 16)
    z = SpectralField(grid, np.zeros(16))
    out = step(z, make_front_equation(2.0, grid), 0.05)
    assert np.max(np.abs(out.coeffs)) == 0.0


def test_single_mode_linearisation():
    grid = make_grid(TWO_PI, 32)
    desc = make_front_equation(1.5, grid)
    for k in (1, 4, 9):
        ic = np.zeros(32)
        ic[k] = 1e-8
        out = step(SpectralField(grid, ic), desc, 0.02)
        expected = 1e-8 * np.exp(desc.linear_symbol[k] * 0.02)
        assert abs(out.coeffs[k] / expected - 1.0) < 1e-9


def test_linear_exactness_regardless_of_stiffness():
    # zero nonlinear symbol: each mode must follow exp(L t) through t = 1
    grid = make_grid(TWO_PI, 64)
    lam = grid.eigenvalues
    desc = EquationDescriptor(grid, lam - 4 * lam**2, np.zeros(64), "linear-ks")
    ic = np.full(64, 1.0)
    traj = evolve(SolverConfig(descriptor=desc, initial_condition=SpectralField(grid, ic), dt=0.05, t_end=1.0, output_stride=100))
    expected = np.exp(desc.linear_symbol)
    visible = expected > 1e-250
    ratio = traj.coeffs[-1][visible] / expected[visible]
    assert np.max(np.abs(ratio - 1.0)) < 1e-10


def test_stepper_coefficients_at_zero_symbol():
    # contour evaluation must reproduce the analytic z -> 0 limits
    grid = make_grid(TWO_PI, 8)
    desc = EquationDescriptor(grid, np.zeros(8), np.zeros(8), "null")
    h = 0.37
    st = Etdrk4(desc, h)
    assert np.allclose(st.exp_full, 1.0, atol=0)
    assert np.max(np.abs(st.coeff_q - h / 2)) < 1e-13
    for c in (st.coeff_f1, st.coeff_f2, st.coeff_f3):
        assert np.max(np.abs(c - h / 6)) < 1e-13


EQUATIONS = {
    "front": lambda grid: make_front_equation(2.5, grid),
    "ks": make_ks_equation,
    "rescaled": lambda grid: make_rescaled_equation(0.1, grid),
}


@pytest.mark.parametrize("equation", sorted(EQUATIONS))
@pytest.mark.parametrize("n", [3, 4, 19, 64, 65, 66, 2048])  # even n: unpaired top cosine
def test_nonlinear_term_is_symbol_times_dealiased_square_of_slope(n, equation):
    grid = make_grid(TWO_PI, n)
    desc = EQUATIONS[equation](grid)
    coeffs = np.random.default_rng(n).standard_normal(n)
    slope_sq = dealiased_square(differentiate(SpectralField(grid, coeffs))).coeffs
    expected = desc.nonlinear_symbol * slope_sq
    got = Etdrk4(desc, 1e-3).nonlinear(coeffs)
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_step_raises_on_non_finite_state():
    grid = make_grid(TWO_PI, 8)
    desc = make_ks_equation(grid)
    bad = np.zeros(8)
    bad[3] = np.nan
    with pytest.raises(NumericalBlowupError):
        step(SpectralField(grid, bad), desc, 0.01)


def test_evolve_zero_initial_ks_stays_zero():
    grid = make_grid(10 * np.pi, 32)
    traj = evolve(
        SolverConfig(
            descriptor=make_ks_equation(grid),
            initial_condition=SpectralField(grid, np.zeros(32)),
            dt=0.01,
            t_end=0.5,
            output_stride=10,
        )
    )
    assert not traj.blown_up
    assert np.max(np.abs(traj.coeffs)) == 0.0


def test_evolve_snapshot_layout_and_determinism():
    grid = make_grid(10 * np.pi, 32)
    cfg = SolverConfig(
        descriptor=make_ks_equation(grid),
        initial_condition=random_zero_mean_field(grid, 0.1, seed=4),
        dt=0.01,
        t_end=0.25,
        output_stride=7,
    )
    t1, t2 = evolve(cfg), evolve(cfg)
    assert np.array_equal(t1.coeffs, t2.coeffs)  # bitwise reproducible
    assert np.all(np.diff(t1.times) > 0)
    assert t1.times[-1] == pytest.approx(0.25, abs=1e-12)
    assert len(t1.times) == 1 + 25 // 7 + 1  # start, strided, final


def test_evolve_blowup_flagged_not_raised():
    grid = make_grid(TWO_PI, 16)
    runaway = EquationDescriptor(grid, np.full(16, 40.0), np.zeros(16), "runaway")
    traj = evolve(
        SolverConfig(
            descriptor=runaway,
            initial_condition=SpectralField(grid, np.full(16, 1.0)),
            dt=0.1,
            t_end=10.0,
            output_stride=1,
        )
    )
    assert traj.blown_up
    assert traj.blowup_time is not None and traj.blowup_time < 10.0
    assert len(traj.times) < 101


def test_evolve_non_finite_initial_state_blows_up_at_time_zero():
    grid = make_grid(TWO_PI, 8)
    bad = np.zeros(8)
    bad[3] = np.nan
    traj = evolve(
        SolverConfig(make_ks_equation(grid), SpectralField(grid, bad), dt=0.01, t_end=0.1)
    )
    assert len(traj.times) == 1
    assert traj.blown_up
    assert traj.blowup_time == 0.0


def test_solver_config_validation():
    grid = make_grid(TWO_PI, 8)
    other = make_grid(TWO_PI, 12)
    desc = make_ks_equation(grid)
    good = SpectralField(grid, np.zeros(8))
    with pytest.raises(ValueError):
        SolverConfig(descriptor=desc, initial_condition=good, dt=-0.1, t_end=1.0)
    with pytest.raises(ValueError):
        SolverConfig(descriptor=desc, initial_condition=good, dt=0.1, t_end=0.05)
    with pytest.raises(ValueError):
        SolverConfig(descriptor=desc, initial_condition=SpectralField(other, np.zeros(12)), dt=0.1, t_end=1.0)


def test_solver_config_rejects_t_end_off_the_step_lattice():
    grid = make_grid(TWO_PI, 8)
    good = SpectralField(grid, np.zeros(8))
    with pytest.raises(ValueError, match="nearest reachable horizon is 0.9"):
        SolverConfig(make_ks_equation(grid), good, dt=0.3, t_end=1.0)
    with pytest.raises(ValueError, match="nearest reachable horizon is 0.8"):
        SolverConfig(make_ks_equation(grid), good, dt=0.4, t_end=1.0)
    for t_end in (np.inf, np.nan, 1e308):  # 1e308 / 0.1 overflows to inf
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(make_ks_equation(grid), good, dt=0.1, t_end=t_end)
    # round-off in t_end / dt is not a partial step
    assert SolverConfig(make_ks_equation(grid), good, dt=0.1, t_end=0.3).t_end == 0.3


def test_default_dt_scaling():
    assert default_dt(make_grid(TWO_PI, 8)) == pytest.approx(1e-3)
    assert default_dt(make_grid(4 * np.pi, 8)) == pytest.approx(4e-3)


def test_default_dt_given_t_end_divides_it():
    grid = make_grid(10.0, 8)
    base = default_dt(grid)
    dt = default_dt(grid, 1.0)
    assert dt < base and 1.0 / dt == pytest.approx(math.ceil(1.0 / base), rel=1e-12)
    assert SolverConfig(make_ks_equation(grid), SpectralField(grid, np.zeros(8)), dt, 1.0).dt == dt
    # a t_end the default already divides keeps the default bit for bit
    assert default_dt(make_grid(TWO_PI, 8), 1.0) == default_dt(make_grid(TWO_PI, 8))
    assert default_dt(grid, base / 4) == base / 4  # shorter than one default step
    for t_end in (0.0, -1.0, np.inf, np.nan):  # left for SolverConfig to reject
        assert default_dt(grid, t_end) == base


def test_evolve_calls_step_coeffs_once_and_nonlinear_four_times_per_step(monkeypatch):
    # the traced benchmark counts steps and nonlinear evaluations through these
    # class attributes
    calls = {}

    def count(name):
        original = getattr(Etdrk4, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(Etdrk4, name, counted)

    count("step_coeffs")
    count("nonlinear")
    grid = make_grid(12.566370614359172, 16)
    evolve(SolverConfig(make_ks_equation(grid), random_zero_mean_field(grid, 0.1, 0), 0.1, 0.7))
    assert calls == {"step_coeffs": 7, "nonlinear": 28}


def _front_run(alpha, t_end, amplitude=1e-3, stride=1, dt=0.01, n=32, ell=TWO_PI):
    grid = make_grid(ell, n)
    return evolve(
        SolverConfig(
            descriptor=make_front_equation(alpha, grid),
            initial_condition=random_zero_mean_field(grid, amplitude, seed=2),
            dt=dt,
            t_end=t_end,
            output_stride=stride,
        )
    )


def test_mean_mode_check_zero_solution():
    grid = make_grid(TWO_PI, 8)
    traj = evolve(
        SolverConfig(
            descriptor=make_front_equation(1.0, grid),
            initial_condition=SpectralField(grid, np.zeros(8)),
            dt=0.01,
            t_end=0.1,
            output_stride=1,
        )
    )
    chk = mean_mode_ode_check(traj)
    assert chk.max_residual == 0.0
    assert chk.mean_nonincreasing


def test_mean_mode_check_stable_run():
    traj = _front_run(alpha=1.0, t_end=2.0)
    chk = mean_mode_ode_check(traj)
    assert chk.max_residual < 1e-6
    assert chk.mean_nonincreasing


def test_mean_mode_check_rejects_sparse_snapshots():
    traj = _front_run(alpha=1.0, t_end=2.0, stride=5)  # spacing 0.05 > 0.01
    with pytest.raises(ValueError):
        mean_mode_ode_check(traj)


def test_mean_converges_at_late_times():
    # stable parameter: the mean settles to its asymptotic phase
    traj = _front_run(alpha=1.0, t_end=20.0, stride=1)
    times, mean = traj.times, traj.diagnostics["mean"]
    at = lambda t: mean[np.argmin(np.abs(times - t))]
    assert abs(at(20.0) - at(10.0)) < 1e-6


def test_front_stable_vs_unstable_norms():
    # period 4 pi: threshold at alpha = 2
    stable = _front_run(alpha=1.8, t_end=40.0, amplitude=1e-4, dt=0.05, ell=4 * np.pi, stride=10)
    unstable = _front_run(alpha=2.2, t_end=40.0, amplitude=1e-4, dt=0.05, ell=4 * np.pi, stride=10)
    zs = stable.diagnostics["zero_mean_l2"]
    zu = unstable.diagnostics["zero_mean_l2"]
    assert zs[-1] < zs[0]
    assert zu[-1] > zu[0]
    # dominant late-time mode sits at the top linear growth rate on both sides
    for traj in (stable, unstable):
        rates = traj.descriptor.linear_symbol
        k_dom = 1 + np.argmax(np.abs(traj.coeffs[-1][1:]))
        assert rates[k_dom] == np.max(rates[1:])
    assert unstable.descriptor.linear_symbol[
        1 + np.argmax(np.abs(unstable.coeffs[-1][1:]))
    ] > 0


def test_trajectory_state_accessors():
    traj = _front_run(alpha=1.0, t_end=0.1)
    assert isinstance(traj.state(0), SpectralField)
    assert np.array_equal(traj.final_state().coeffs, traj.coeffs[-1])
