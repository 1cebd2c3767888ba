"""Symbol engine: closed forms, identities, threshold, rescaled bounds."""

import dataclasses

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontks.grid import MAX_EIGENVALUE, make_grid
from frontks.profiles import front_time_derivative
from frontks.symbols import (
    alpha_critical,
    build_rescaled_symbols,
    build_symbols,
    verify_symbol_bounds,
)

TWO_PI = 2.0 * np.pi

# frozen from a 50-digit mpmath evaluation of the closed forms at alpha=1, lam=1
ORACLE_A1_L1 = {
    "x": 2.2360679774997896964,
    "b": 6.2360679774997896964,
    "s": -4.0,
    "f": -2.1909830056250525759,
    "l": -0.64142982636371283767,
    "g": -0.35134046221598078532,
}


def _mp_unrescaled(alpha, lam):
    alpha, lam = mp.mpf(alpha), mp.mpf(lam)
    x = mp.sqrt(1 + 4 * lam)
    b = x**2 + alpha * x - alpha
    s = -4 * lam**2 + (alpha - 1) * lam
    f = (x**3 - 3 * x**2 - 4 * alpha * x + 4 * alpha) / 4
    return x, b, s, f, s / b, f / b


def _mp_rescaled(eps, lam):
    eps, lam = mp.mpf(eps), mp.mpf(lam)
    x = mp.sqrt(1 + 4 * eps * lam)
    b = x**2 + (1 + eps) * x - 1 - eps
    f = (x**3 - 3 * x**2 - 4 * (1 + eps) * x + 4 + 4 * eps) / 4
    h = (x**2 + (1 + eps) * x - 2 - eps) / eps
    m = (x**3 - 3 * x**2 - 4 * (1 + eps) * x + 6 + 4 * eps) / (4 * eps)
    return x, b, f, h, m


def test_mode_values_against_extended_precision_oracle():
    mp.mp.dps = 50
    # lam_1 = 1 exactly on a 2 pi period
    table = build_symbols(1.0, make_grid(TWO_PI, 3))
    fields = ("sqrt_factor", "mass", "stiffness", "quad_filter", "growth_rate", "quad_gain")
    assert table.grid.eigenvalues[1] == 1.0
    got = [getattr(table, field)[1] for field in fields]
    names = ("x", "b", "s", "f", "l", "g")
    for name, value, reference in zip(names, got, _mp_unrescaled(1, 1), strict=True):
        assert value == pytest.approx(ORACLE_A1_L1[name], rel=1e-15, abs=1e-15)
        assert value == pytest.approx(float(reference), rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0, 4.999])
def test_zero_mode_exact(alpha):
    table = build_symbols(alpha, make_grid(TWO_PI, 8))
    assert abs(table.mass[0] - 1.0) <= 1e-15
    assert abs(table.stiffness[0]) <= 1e-15
    assert abs(table.quad_filter[0] + 0.5) <= 1e-15
    assert abs(table.growth_rate[0]) <= 1e-15
    assert abs(table.quad_gain[0] + 0.5) <= 1e-15


@pytest.mark.parametrize("ell", [TWO_PI, 4 * np.pi, 10 * np.pi])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
def test_quotient_identities(ell, alpha):
    table = build_symbols(alpha, make_grid(ell, 256))
    res_l = np.abs(table.growth_rate * table.mass - table.stiffness)
    res_g = np.abs(table.quad_gain * table.mass - table.quad_filter)
    assert np.max(res_l / (np.abs(table.stiffness) + 1)) < 1e-12
    assert np.max(res_g / (np.abs(table.quad_filter) + 1)) < 1e-12


def test_stiffness_factorisation_identity():
    # s = (1 - x^2)(x^2 - alpha)/4, the numerator of the divided form
    for alpha in (0.5, 1.0, 3.0):
        table = build_symbols(alpha, make_grid(TWO_PI, 128))
        x = table.sqrt_factor
        alt = 0.25 * (1.0 - x**2) * (x**2 - alpha)
        assert np.max(np.abs(alt - table.stiffness) / (np.abs(table.stiffness) + 1)) < 1e-12


def test_alpha_critical_values():
    assert alpha_critical(4 * np.pi) == pytest.approx(2.0, abs=1e-15)
    assert alpha_critical(TWO_PI) == pytest.approx(5.0, abs=1e-15)
    for ell in (0.0, np.inf):
        with pytest.raises(ValueError, match="period must be positive"):
            alpha_critical(ell)


def test_growth_sign_flips_at_threshold():
    grid = make_grid(TWO_PI, 16)
    assert build_symbols(4.999, grid).growth_rate[1] < 0
    assert build_symbols(5.001, grid).growth_rate[1] > 0


@pytest.mark.parametrize("ell", [TWO_PI, 4 * np.pi, 9.0])
def test_threshold_characterisation(ell):
    grid = make_grid(ell, 64)
    a_c = alpha_critical(ell)
    for alpha in (0.3 * a_c, 0.9 * a_c, 1.1 * a_c, 2.0 * a_c):
        top = np.max(build_symbols(alpha, grid).growth_rate[1:])
        assert (top < 0) == (alpha < a_c)


def test_growth_rate_splitting_asymptotics():
    # l = -lam + l1 with l1 ~ (alpha/2) sqrt(lam) at the top retained mode
    for alpha in (0.5, 1.0, 3.0):
        table = build_symbols(alpha, make_grid(TWO_PI, 256))
        lam = table.grid.eigenvalues[-1]
        l1 = table.growth_rate[-1] + lam
        assert 0.9 < l1 / (0.5 * alpha * np.sqrt(lam)) < 1.1
    assert build_symbols(1.0, make_grid(TWO_PI, 256)).growth_rate[-1] < -1e4  # -> -inf


def test_large_mode_asymptotic_bands():
    for alpha in (0.5, 1.0, 3.0):
        table = build_symbols(alpha, make_grid(TWO_PI, 256))
        lam = table.grid.eigenvalues[-1]
        assert 0.9 < table.mass[-1] / (4 * lam) < 1.1
        assert 0.8 < table.quad_filter[-1] / (2 * lam**1.5) < 1.2
        assert 0.8 < table.quad_gain[-1] / (0.5 * np.sqrt(lam)) < 1.2


@pytest.mark.parametrize("alpha", [0.0, -1.0, np.inf, np.nan])
def test_invalid_alpha(alpha):
    with pytest.raises(ValueError):
        build_symbols(alpha, make_grid(TWO_PI, 8))
    with pytest.raises(ValueError):
        front_time_derivative(alpha, 1.0, 1.0, 0.0)


@pytest.mark.parametrize("epsilon", [0.0, -0.5, 1.5])
def test_invalid_epsilon(epsilon):
    with pytest.raises(ValueError):
        build_rescaled_symbols(epsilon, make_grid(10 * np.pi, 8))


def test_rescaled_zero_mode():
    t = build_rescaled_symbols(0.3, make_grid(10 * np.pi, 8))
    assert t.mass_correction[0] == 0.0
    assert t.quad_correction[0] == 0.0
    assert t.mass[0] == 1.0
    assert t.quad_filter[0] == -0.5
    assert t.sqrt_shift[0] == 0.0


def test_rescaled_unit_epsilon_example():
    # eps=1, lam=1: h = 2 + 2 sqrt(5), within the (6 + 2 eps) lam envelope
    t = build_rescaled_symbols(1.0, make_grid(TWO_PI, 8))
    assert t.mass_correction[1] == pytest.approx(2 + 2 * np.sqrt(5.0), rel=1e-14)
    assert abs(t.mass_correction[1]) <= 8.0 * t.grid.eigenvalues[1]


def test_rescaled_exact_recombination():
    for eps in (1.0, 0.1, 1e-3, 1e-6):
        t = build_rescaled_symbols(eps, make_grid(10 * np.pi, 64))
        assert np.max(np.abs(t.mass - eps * t.mass_correction - 1.0)) <= 1e-12
        assert np.max(np.abs(t.quad_filter - eps * t.quad_correction + 0.5)) <= 1e-12
        assert np.min(t.mass - 4 * eps * t.grid.eigenvalues - 1.0) >= -1e-15
        assert np.min(t.sqrt_shift) >= 0.0


def test_rescaled_small_eps_limits_via_richardson():
    """Richardson-extrapolate the printed forms (extended precision) to eps -> 0
    and compare both the limit and the stabilised implementation against them."""
    mp.mp.dps = 60
    grid = make_grid(10 * np.pi, 16)
    for k in (1, 5, 15):
        lam = grid.eigenvalues[k]
        hs, ms = [], []
        for p in (4, 6, 8):
            _, _, _, h, m = _mp_rescaled(mp.mpf(10) ** -p, lam)
            hs.append(h)
            ms.append(m)
        # printed forms are h0 + c1*eps + c2*eps^2 + ...: two Richardson levels
        # (step ratio 100) cancel both correction orders
        def extrapolate(seq):
            first = [(100 * b - a) / 99 for a, b in zip(seq, seq[1:])]
            return float((10000 * first[1] - first[0]) / 9999)

        assert extrapolate(hs) == pytest.approx(6.0 * lam, rel=1e-10)
        assert extrapolate(ms) == pytest.approx(-3.5 * lam, rel=1e-10)
        for p, h_ref, m_ref in zip((4, 6, 8), hs, ms):
            t = build_rescaled_symbols(10.0**-p, grid)
            assert t.mass_correction[k] == pytest.approx(float(h_ref), rel=1e-12)
            assert t.quad_correction[k] == pytest.approx(float(m_ref), rel=1e-12)


def test_bounds_report_unit_epsilon():
    rep = verify_symbol_bounds(build_rescaled_symbols(1.0, make_grid(TWO_PI, 64)))
    assert rep.max_mass_correction_ratio <= 8.0


def test_bounds_report_small_epsilon_sweep():
    rep = verify_symbol_bounds(build_rescaled_symbols(0.01, make_grid(10 * np.pi, 128)))
    assert rep.max_mass_correction_ratio <= 6.02
    assert rep.max_quad_correction_ratio <= 1.0


# relative allowance of the column audit: 24u to first order in u = 2**-53, as counted in
# _columns_hold_their_bounds, taken up to a power of two, which covers the O(u^2) terms
COLUMN_ALLOWANCE = 2.0**-48


def _columns_hold_their_bounds(table) -> bool:
    """|h| <= (6 + 2 eps) lam and |m| <= 2 sqrt(eps) lam^(3/2) + 25 lam, read off the columns.

    A column may pass its bound by COLUMN_ALLOWANCE, relative.  The count of
    roundings (Higham 2002: fl(a op b) = (a op b)(1 + d) with |d| <= u, to
    first order in u; lam**1.5 within one ulp, 2u):
    - x = sqrt(1 + 4 eps lam) is off by 2u, and x + 1 by 3u, as x/(x + 1) <= 1.
    - h = 4 lam + 4 (1 + eps) lam/(x + 1): 6u in the second term, 7u in the sum of
      two positive terms.  The bound (6 + 2 eps) lam takes 2u: |h| may pass it by 9u.
    - m = q lam/(x + 1) with q = r^2 - 7 - 4 eps and r = 4 eps lam/(x + 1): r is off
      by 5u and r^2 by 11u, so the two subtractions leave q within 13u (r^2 + 7 + 4 eps)
      of its value (r^2 underflows at eps = 1e-300, an error below 1e-323).  Then
      lam/(x + 1) adds 5u.  q may cancel, but r^2 <= 4 eps lam = r (x + 1) <= 2 sqrt(eps
      lam)(x + 1) and 7 + 4 eps <= 25 (x + 1), so (r^2 + 7 + 4 eps) lam/(x + 1) is at
      most the envelope E: m is within 18u E of its value.  E itself takes 5u, so |m|
      may pass it by 23u.
    - bound * (1 + COLUMN_ALLOWANCE) takes one more u: 10u for h, 24u for m.
    """
    return all(
        np.all(np.abs(getattr(table, field)) <= bound * (1.0 + COLUMN_ALLOWANCE))
        for field, bound in _column_bounds(table).items()
    )


def _column_bounds(table) -> dict:
    """Each audited column's per-mode bound: (6 + 2 eps) lam for h, 2 sqrt(eps) lam^(3/2) + 25 lam for m."""
    eps, lam = table.epsilon, table.grid.eigenvalues
    return {
        "mass_correction": (6.0 + 2.0 * eps) * lam,
        "quad_correction": 2.0 * np.sqrt(eps) * lam**1.5 + 25.0 * lam,
    }


# |m| tends to its envelope from below as lam grows (eps = 1), and h/lam tends to its bound
# 6 + 2 eps from below as lam shrinks (tiny eps)
BOUND_SWEEPS = [(1.0, 3, np.logspace(-60, 2, 400))]
BOUND_SWEEPS += [(eps, 16, np.logspace(-60, 2, 63)) for eps in (1e-300, 1e-100, 1e-20)]


def test_the_h_and_m_columns_hold_their_bounds_at_every_period_down_to_1e_60():
    failing = [
        (eps, ell)
        for eps, n_modes, periods in BOUND_SWEEPS
        for ell in periods
        if not _columns_hold_their_bounds(build_rescaled_symbols(eps, make_grid(ell, n_modes)))
    ]
    assert failing == []


@pytest.mark.parametrize("field", ["mass_correction", "quad_correction"])
@pytest.mark.parametrize("eps, ell", [(1.0, 1e-30), (1e-20, 1.0), (0.05, 10 * np.pi)])
def test_the_column_audit_rejects_one_mode_past_its_bound(field, eps, ell):
    table = build_rescaled_symbols(eps, make_grid(ell, 16))
    assert _columns_hold_their_bounds(table)
    values = getattr(table, field).copy()
    values[5] = np.copysign(_column_bounds(table)[field][5] * (1.0 + 2.0 * COLUMN_ALLOWANCE), values[5])
    assert not _columns_hold_their_bounds(dataclasses.replace(table, **{field: values}))


@pytest.mark.parametrize("ell, ratio", [(4 * np.pi, 0.5053263217404406), (10 * np.pi, 0.24690969033670998)])
def test_quad_correction_ratio_is_unchanged_at_long_periods(ell, ratio):
    rep = verify_symbol_bounds(build_rescaled_symbols(1.0, make_grid(ell, 64)))
    assert rep.max_quad_correction_ratio == pytest.approx(ratio, rel=1e-15, abs=0)
    # max |h|/lam as read off the h column
    mass_ratio = {4 * np.pi: 7.313708498984761, 10 * np.pi: 7.851648071345039}[ell]
    assert rep.max_mass_correction_ratio == pytest.approx(mass_ratio, rel=1e-15, abs=0)


def test_bounds_report_degenerate_grid():
    rep = verify_symbol_bounds(build_rescaled_symbols(0.5, make_grid(TWO_PI, 3)))
    assert rep.max_mass_correction_ratio <= 7.0
    assert rep.max_quad_correction_ratio <= 1.0


@given(
    alpha=st.floats(0.01, 10.0),
    ell=st.floats(1.0, 50.0),
)
@settings(max_examples=60, deadline=None)
def test_quotient_identities_randomised(alpha, ell):
    table = build_symbols(alpha, make_grid(ell, 32))
    assert np.max(
        np.abs(table.growth_rate * table.mass - table.stiffness)
        / (np.abs(table.stiffness) + 1)
    ) < 1e-12


@given(eps=st.floats(1e-10, 1.0), ell=st.floats(4 * np.pi + 0.1, 100.0))
@settings(max_examples=60, deadline=None)
def test_rescaled_invariants_randomised(eps, ell):
    t = build_rescaled_symbols(eps, make_grid(ell, 24))
    lam = t.grid.eigenvalues
    assert np.max(np.abs(t.mass - eps * t.mass_correction - 1.0)) <= 1e-12
    assert np.max(np.abs(t.quad_filter - eps * t.quad_correction + 0.5)) <= 1e-12
    pos = lam > 0
    assert np.all(np.abs(t.mass_correction[pos]) <= (6 + 2 * eps) * lam[pos] * (1 + 1e-13))
    env = 2 * np.sqrt(eps) * lam[pos] ** 1.5 + 25 * lam[pos]
    assert np.all(np.abs(t.quad_correction[pos]) <= env)
    assert np.all(t.stiffness == -lam * (4 * lam - 1.0))


def test_symbols_stay_finite_up_to_the_eigenvalue_bound():
    # the shortest period a first harmonic allows: 4 lam^2 of the stiffness is then near the float range
    period = TWO_PI / MAX_EIGENVALUE**0.5 * (1 + 1e-15)
    grid = make_grid(period, 3)
    assert grid.eigenvalues[-1] <= MAX_EIGENVALUE
    tables = [build_symbols(alpha, grid) for alpha in (0.01, 1.0, 1e3)]
    tables += [build_rescaled_symbols(eps, grid) for eps in (1e-8, 0.5, 1.0)]
    for table in tables:
        for field in dataclasses.fields(table):
            value = getattr(table, field.name)
            if isinstance(value, np.ndarray):
                assert np.all(np.isfinite(value)), (table, field.name)
    with pytest.raises(ValueError, match="eigenvalue above"):
        make_grid(period * (1 - 1e-14), 3)
