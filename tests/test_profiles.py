"""Profile reconstruction: closed forms, ODE residuals, jump conditions."""

import mpmath as mp
import numpy as np
import pytest

from frontks.grid import make_grid
from frontks.profiles import FrontModeData, front_time_derivative, jump_residuals, reconstruct_profile

# frozen from a 50-digit evaluation of the printed coefficient displays at
# lam=1, alpha=1, phi=1, phi_t = phiy_sq = 0
C1_ORACLE = -1.1236067977499789696
C2_ORACLE = -0.12360679774997896964


def _data(lam, alpha, phi, phiy_sq):
    phi_t = front_time_derivative(alpha, lam, phi, phiy_sq)
    return FrontModeData(lambda_k=lam, alpha=alpha, phi=phi, phi_t=phi_t, phiy_sq=phiy_sq)


def _coefficients(data):
    return reconstruct_profile(data, np.array([0.0])).coefficients


def test_mode0_unit_forcing_profile():
    data = FrontModeData(lambda_k=0.0, alpha=1.0, phi=0.0, phi_t=1.0, phiy_sq=0.0)
    x = np.linspace(-8.0, 2.0, 1001)
    slice0 = reconstruct_profile(data, x)
    neg = x < 0
    assert np.allclose(slice0.u_values[neg], -x[neg] * np.exp(x[neg]), atol=1e-14)
    assert np.all(slice0.u_values[~neg] == 0.0)
    assert np.all(slice0.v_values[~neg] == 0.0)
    # maximum e^-1 attained at x = -1
    i_max = np.argmax(slice0.u_values)
    assert x[i_max] == pytest.approx(-1.0, abs=0.02)
    assert slice0.u_values[i_max] == pytest.approx(np.exp(-1.0), rel=1e-3)
    assert slice0.u_x_left == -1.0


def test_mode0_zero_forcing_gives_zero_profiles():
    data = FrontModeData(lambda_k=0.0, alpha=2.0, phi=0.3, phi_t=0.5, phiy_sq=-0.5)
    slice0 = reconstruct_profile(data, np.linspace(-5, 5, 51))
    assert np.max(np.abs(slice0.u_values)) == 0.0
    assert np.max(np.abs(slice0.v_values)) == 0.0


def test_mode0_flux_jump_reproduced():
    data = FrontModeData(lambda_k=0.0, alpha=1.3, phi=0.0, phi_t=0.4, phiy_sq=0.2)
    slice0 = reconstruct_profile(data, np.linspace(-5, 1, 61))
    jump = slice0.v_x_right - slice0.v_x_left
    assert jump == pytest.approx(data.alpha * (data.phi_t + data.phiy_sq), abs=1e-12)


def test_mode0_front_law_equivalence():
    # phi_t = -phiy_sq/2  <=>  v(0) - u_x(0) = phiy_sq/2
    q = 0.7
    consistent = _data(0.0, 1.0, 0.0, q)
    res = jump_residuals(reconstruct_profile(consistent, np.array([-1.0])), consistent)
    assert res.boundary_residual < 1e-15
    violated = FrontModeData(lambda_k=0.0, alpha=1.0, phi=0.0, phi_t=0.1 - 0.5 * q, phiy_sq=q)
    res_bad = jump_residuals(reconstruct_profile(violated, np.array([-1.0])), violated)
    assert res_bad.boundary_residual == pytest.approx(0.1, abs=1e-12)


def test_mode_data_rejects_a_negative_or_non_finite_eigenvalue():
    for lam in (-1e-300, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="lambda_k"):
            FrontModeData(lambda_k=lam, alpha=1.0, phi=1.0, phi_t=0.0, phiy_sq=0.0)


def test_coefficients_frozen_oracle():
    data = FrontModeData(lambda_k=1.0, alpha=1.0, phi=1.0, phi_t=0.0, phiy_sq=0.0)
    pc = _coefficients(data)
    assert pc.c1 == pytest.approx(C1_ORACLE, rel=1e-14)
    assert pc.c2 == pytest.approx(C2_ORACLE, rel=1e-14)
    assert pc.nu == pytest.approx(0.5 * (1 + np.sqrt(5.0)), rel=1e-15)


def test_coefficients_linear_in_data():
    base = FrontModeData(lambda_k=4.0, alpha=1.7, phi=0.4, phi_t=0.2, phiy_sq=-0.1)
    double = FrontModeData(lambda_k=4.0, alpha=1.7, phi=0.8, phi_t=0.4, phiy_sq=-0.2)
    pc1, pc2 = _coefficients(base), _coefficients(double)
    assert pc2.c1 == pytest.approx(2 * pc1.c1, rel=1e-13)
    assert pc2.c2 == pytest.approx(2 * pc1.c2, rel=1e-13)


def test_coefficients_vanish_without_coupling():
    data = FrontModeData(lambda_k=2.0, alpha=0.0, phi=0.9, phi_t=0.3, phiy_sq=0.1)
    pc = _coefficients(data)
    assert pc.c1 == 0.0 and pc.c2 == 0.0


def test_mean_mode_has_no_coefficients():
    # lam = 0 takes the closed form; a positive lam, however small, takes the tails
    assert _coefficients(_data(0.0, 1.0, 0.5, 0.3)) is None
    pc = _coefficients(_data(1e-12, 1.0, 0.5, 0.3))
    assert np.isfinite([pc.c1, pc.c2]).all() and pc.nu == pytest.approx(1.0, abs=1e-11)


def _fd_residual(x, values, rhs, lam):
    """Centered-difference residual of w' - w'' + lam w = rhs on the interior."""
    h = x[1] - x[0]
    wx = (values[2:] - values[:-2]) / (2 * h)
    wxx = (values[2:] - 2 * values[1:-1] + values[:-2]) / h**2
    return np.max(np.abs(wx - wxx + lam * values[1:-1] - rhs[1:-1]))


def test_temperature_profile_satisfies_its_ode():
    data = _data(2.25, 1.4, 0.6, 0.3)
    x = np.linspace(-6.0, -1e-3, 4001)
    sl = reconstruct_profile(data, x)
    rhs = data.driving * np.exp(x)
    assert _fd_residual(x, sl.u_values, rhs, data.lambda_k) < 1e-6


def test_enthalpy_profile_satisfies_its_ode_both_sides():
    data = _data(4.0, 2.2, -0.5, 0.8)
    lam, alpha, nu = data.lambda_k, data.alpha, _coefficients(data).nu
    w, t1 = data.forcing, data.driving
    x = np.linspace(-6.0, -1e-3, 12001)
    sl = reconstruct_profile(data, x)
    rhs = (
        alpha * (x + 2 - 1 / lam) * w * np.exp(x)
        + alpha * lam * (x + 1 - 1 / lam) * data.phi * np.exp(x)
        + (alpha * nu / lam) * t1 * np.exp(nu * x)
    )
    assert _fd_residual(x, sl.v_values, rhs, lam) < 1e-6
    xp = np.linspace(1e-3, 6.0, 12001)
    slp = reconstruct_profile(data, xp)
    assert _fd_residual(xp, slp.v_values, np.zeros_like(xp), lam) < 1e-6


def test_boundary_values_and_continuity():
    data = _data(2.0, 0.9, 0.2, 0.5)
    sl = reconstruct_profile(data, np.array([-1.0, 0.0, 1.0]))
    assert sl.u_values[1] == 0.0  # u(0) = 0 exactly
    res = jump_residuals(sl, data)
    assert res.v_continuity < 1e-10


def test_profiles_decay_into_the_bulk():
    data = _data(1.0, 1.0, 1.0, 0.4)
    x = np.array([-30.0, -25.0, -20.0, -15.0, 10.0, 15.0, 20.0])
    sl = reconstruct_profile(data, x)
    pc = sl.coefficients
    # admissible decay: at least e^(x/2) per 5 units into x < 0 (slack for the
    # polynomial prefactors), and the explicit nu > 1 rate for x > 0
    for deep, shallow in ((0, 1), (1, 2), (2, 3)):
        assert abs(sl.u_values[deep]) <= 1.5 * np.exp(-2.5) * abs(sl.u_values[shallow])
        assert abs(sl.v_values[deep]) <= 1.5 * np.exp(-2.5) * abs(sl.v_values[shallow])
    for left, right in ((4, 5), (5, 6)):
        assert abs(sl.v_values[right]) == pytest.approx(
            np.exp(-(pc.nu - 1.0) * 5.0) * abs(sl.v_values[left]), rel=1e-10
        )


def test_jump_residuals_vanish_on_front_law_data():
    rng = np.random.default_rng(42)
    grid = make_grid(2 * np.pi, 128)
    for _ in range(50):
        lam = float(grid.eigenvalues[rng.integers(1, grid.n_modes)])
        alpha = float(rng.uniform(0.3, 3.0))
        data = _data(lam, alpha, float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        sl = reconstruct_profile(data, np.linspace(-10, 5, 31))
        res = jump_residuals(sl, data)
        assert res.boundary_residual < 1e-9
        assert res.flux_residual < 1e-9
        assert res.v_continuity < 1e-9


def test_boundary_residual_linear_in_front_law_violation():
    lam, alpha = 1.0, 1.0
    phi, q = 0.8, 0.3
    residuals = []
    deltas = [1e-4, 1e-3, 1e-2]
    for delta in deltas:
        phi_t = front_time_derivative(alpha, lam, phi, q) + delta
        data = FrontModeData(lambda_k=lam, alpha=alpha, phi=phi, phi_t=phi_t, phiy_sq=q)
        sl = reconstruct_profile(data, np.array([-1.0]))
        residuals.append(jump_residuals(sl, data).boundary_residual)
    slopes = [r / d for r, d in zip(residuals, deltas)]
    assert max(slopes) / min(slopes) < 1.0 + 1e-6  # exactly linear response


def test_zero_data_gives_zero_residuals():
    data = FrontModeData(lambda_k=1.0, alpha=1.0, phi=0.0, phi_t=0.0, phiy_sq=0.0)
    sl = reconstruct_profile(data, np.array([-2.0, 1.0]))
    res = jump_residuals(sl, data)
    assert res.boundary_residual == 0.0
    assert res.flux_residual == 0.0


def _printed_constants(lam, alpha, phi, w):
    """(c1, c2) of mpf inputs as the derivation prints them: O(1/lam) terms that cancel down to c2 = O(lam)."""
    nu = (1 + mp.sqrt(1 + 4 * lam)) / 2
    om = 1 - 2 * nu
    c1 = (alpha / om) * (1 + nu + nu / om + lam / nu) * phi + (alpha / om) * (
        1 / lam + 2 * nu / lam + 1 / nu + nu / (om * lam)
    ) * w
    c2 = (alpha / om) * (2 + nu / om + lam / nu - nu) * phi - (alpha / om) * (
        2 * nu / lam - 3 / lam - nu / (om * lam) - 1 / nu
    ) * w
    return c1, c2


def test_against_full_extended_precision_pipeline():
    """Re-derive coefficients, limits and residuals at 50 digits and compare."""
    mp.mp.dps = 50
    lam, alpha, phi, q = mp.mpf("2.25"), mp.mpf("1.7"), mp.mpf("0.8"), mp.mpf("0.3")
    x = mp.sqrt(1 + 4 * lam)
    nu = (1 + x) / 2
    b = x**2 + alpha * x - alpha
    s = -4 * lam**2 + (alpha - 1) * lam
    f = (x**3 - 3 * x**2 - 4 * alpha * x + 4 * alpha) / 4
    phi_t = (s / b) * phi + (f / b) * q
    w = phi_t + q
    c1, c2 = _printed_constants(lam, alpha, phi, w)

    data = FrontModeData(
        lambda_k=float(lam), alpha=float(alpha), phi=float(phi), phi_t=float(phi_t), phiy_sq=float(q)
    )
    sl = reconstruct_profile(data, np.array([-0.5]))
    assert sl.coefficients.c1 == pytest.approx(float(c1), rel=1e-13)
    assert sl.coefficients.c2 == pytest.approx(float(c2), rel=1e-13)
    t1 = w + lam * phi
    assert sl.u_x_left == pytest.approx(float(-t1 / nu), rel=1e-13)
    u_ref = (t1 / lam) * (mp.e ** mp.mpf("-0.5") - mp.e ** (nu * mp.mpf("-0.5")))
    assert sl.u_values[0] == pytest.approx(float(u_ref), rel=1e-12)


def test_a_long_period_keeps_the_front_slope_and_the_temperature_digits():
    # lam ~ 4e-11 (mode 1 at period 1e6): nu - 1 ~ lam must not come from 1 - nu
    lam = (2 * np.pi / 1e6) ** 2
    data = _data(lam, 1.0, 1.0, 0.3)
    sl = reconstruct_profile(data, np.array([-0.5]))
    mp.mp.dps = 50
    t1 = mp.mpf(data.phi_t) + mp.mpf(data.phiy_sq) + mp.mpf(lam) * mp.mpf(data.phi)
    nu = (1 + mp.sqrt(1 + 4 * mp.mpf(lam))) / 2
    x = mp.mpf("-0.5")
    assert sl.u_x_left == pytest.approx(float(-t1 / nu), rel=1e-14)
    assert sl.u_values[0] == pytest.approx(float((t1 / lam) * (mp.e**x - mp.e ** (nu * x))), rel=1e-12)
    res = jump_residuals(sl, data)
    # v(0-) and v_x(0-) are sums of O(1/lam) terms: about lam^-1 * 1e-16 is left of them
    assert res.boundary_residual < 1e-4 and res.flux_residual < 1e-4


@pytest.mark.parametrize("ell", [1e3, 1e6, 1e8])
def test_long_period_constants_match_the_printed_forms_to_round_off(ell):
    # at 60 digits the printed forms keep c2 through their cancellation
    lam = (2 * np.pi / ell) ** 2
    data = _data(lam, 1.0, 1.0, 0.3)
    coefficients = _coefficients(data)
    with mp.workdps(60):
        w = mp.mpf(data.phi_t) + mp.mpf(data.phiy_sq)
        c1, c2 = _printed_constants(mp.mpf(lam), mp.mpf(data.alpha), mp.mpf(data.phi), w)
        assert abs(coefficients.c1 / c1 - 1) < 1e-14
        assert abs(coefficients.c2 / c2 - 1) < 1e-14
    # c2 = v(0+) and u_x(0-) carry no O(1/lam) terms, so the front law holds to round-off
    assert jump_residuals(reconstruct_profile(data, np.array([0.0])), data).boundary_residual <= 1e-15
