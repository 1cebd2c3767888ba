"""Spectral core: transforms, calculus, products, norms, projections."""

import dataclasses
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontks.grid import (
    MAX_PERIOD,
    SpectralGrid,
    cosine_field,
    dealiased_square,
    differentiate,
    eigenvalue,
    inverse_transform,
    make_grid,
    random_zero_mean_field,
    slope_energy_weights,
    transform,
    SpectralField,
    _pack,
    _unpack,
    _uniforms,
)

TWO_PI = 2.0 * np.pi
PERIODS = (1.0, TWO_PI, 5.5, 10 * np.pi, 80.0)


def collocation_points(grid, n_points=None):
    """The points transform samples: y_i = -L/2 + i L/n, i = 0..n-1, n = grid.n_points by default."""
    n = grid.n_points if n_points is None else n_points
    return -0.5 * grid.period + grid.period * np.arange(n) / n


def test_grid_eigenvalue_examples():
    assert np.allclose(make_grid(TWO_PI, 5).eigenvalues, [0, 1, 1, 4, 4], atol=0)
    assert np.allclose(make_grid(4 * np.pi, 3).eigenvalues, [0, 0.25, 0.25], atol=0)


def test_grid_eigenvalue_pattern_exact():
    for period in PERIODS:
        for n in range(3, 301):
            grid = make_grid(period, n)
            lam = grid.eigenvalues
            expected = [(2.0 * np.pi * ((k + 1) // 2) / period) ** 2 for k in range(n)]
            assert lam.tolist() == expected, (period, n)
            assert lam[0] == 0.0
            assert np.all(np.diff(lam) >= 0)
            # the slope weights follow the Nyquist convention: only an
            # unpaired top cosine loses its eigenvalue
            weights = lam.copy()
            if n % 2 == 0:
                weights[-1] = 0.0
            assert np.array_equal(slope_energy_weights(grid), weights), (period, n)


@pytest.mark.parametrize("k", [0, 1, 2, 7, 64, 1001])
def test_eigenvalue_of_one_mode_is_the_grids_bit_for_bit(k):
    for period in PERIODS:
        for n in (max(k + 1, 3), max(k + 2, 4)):  # one odd and one even truncation
            assert eigenvalue(period, k) == make_grid(period, n).eigenvalues[k], (period, n)


@pytest.mark.parametrize("period,k", [(1e-300, 1), (1e-100, 2), (TWO_PI, 10**400)], ids=["lam-inf", "short", "huge-k"])
def test_eigenvalue_above_the_bound_is_rejected_without_overflow(period, k):
    # 10**400 has no float, and at period 1e-300 lam itself would pass the float range
    with pytest.raises(ValueError, match=f"mode {k} at period {period:g} has an eigenvalue above"):
        eigenvalue(period, k)
    if k < 3:
        with pytest.raises(ValueError, match=f"mode 2 at period {period:g} has an eigenvalue above"):
            make_grid(period, 3)


def test_the_longest_period_keeps_lam_1_a_normal_float():
    # past MAX_PERIOD, lam_1 = (2 pi / L)^2 would lose digits and then underflow to the mean mode's 0
    assert eigenvalue(MAX_PERIOD, 1) == np.finfo(float).tiny
    for period in (np.nextafter(MAX_PERIOD, np.inf), 1e200, np.inf, np.nan):
        with pytest.raises(ValueError, match="period must be positive"):
            eigenvalue(period, 1)


def test_grid_points_even_and_sufficient():
    for n in range(3, 301):
        grid = make_grid(1.0, n)
        assert grid.n_points % 2 == 0
        assert grid.n_points >= int(np.ceil(1.5 * n))
        assert grid.n_points >= 3 * grid.max_harmonic + 1


def _prime_factors_at_most_5(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def test_grid_points_are_the_smallest_fft_friendly_count():
    # pocketfft is slow on counts with a large prime factor (2 * 97 at N = 128)
    for n in range(3, 4097):
        points = make_grid(1.0, n).n_points
        floor = 2 * (3 * n // 4 + 1)
        assert points % 2 == 0 and points >= floor, n
        assert _prime_factors_at_most_5(points), n
        assert not any(_prime_factors_at_most_5(m) for m in range(floor, points, 2)), n
    assert [make_grid(1.0, n).n_points for n in (64, 128, 1024, 2048)] == [100, 200, 1600, 3200]


def test_grid_is_its_period_and_truncation():
    grid = SpectralGrid(5.5, 64)
    assert grid == make_grid(5.5, 64) and hash(grid) == hash(make_grid(5.5, 64))
    assert grid != make_grid(5.6, 64)
    assert grid != make_grid(5.5, 65)


@pytest.mark.parametrize("period,n", [(0.0, 8), (1.0, 2)])
def test_grid_constructor_validates(period, n):
    with pytest.raises(ValueError):
        SpectralGrid(period, n)


def test_replaced_grid_rederives_its_layout():
    moved = dataclasses.replace(make_grid(1.0, 8), period=2.0)
    assert np.array_equal(moved.eigenvalues, make_grid(2.0, 8).eigenvalues)
    assert np.array_equal(moved._ik, make_grid(2.0, 8)._ik)


# an infinite period would put every eigenvalue at 0
@pytest.mark.parametrize(
    "period,n", [(-1.0, 5), (0.0, 5), (TWO_PI, 2), (TWO_PI, 0), (np.inf, 8), (np.nan, 8)]
)
def test_grid_invalid_arguments(period, n):
    with pytest.raises(ValueError):
        make_grid(period, n)


def test_transform_constant():
    grid = make_grid(TWO_PI, 7)
    f = transform(grid, np.ones(grid.n_points))
    assert f.coeffs[0] == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(f.coeffs[1:])) < 1e-14


def test_transform_single_cosine_hits_one_mode():
    grid = make_grid(3.0, 9)
    y = collocation_points(grid)
    f = transform(grid, np.cos(2 * np.pi * y / 3.0))
    big = np.abs(f.coeffs) > 1e-12
    assert np.count_nonzero(big) == 1
    (k,) = np.nonzero(big)[0].reshape(1)
    assert grid.eigenvalues[k] == pytest.approx(4 * np.pi**2 / 9.0)


def test_transform_length_mismatch():
    grid = make_grid(TWO_PI, 8)
    with pytest.raises(ValueError):
        transform(grid, np.zeros(grid.n_points + 1))
    with pytest.raises(ValueError, match=r"shape \(9,\), expected \(8,\)"):
        SpectralField(grid, np.zeros(9))
    with pytest.raises(ValueError, match="cannot carry harmonics up to"):
        inverse_transform(SpectralField(grid, np.zeros(8)), 2 * grid.max_harmonic)


def test_round_trip_on_seeded_random_fields():
    grid = make_grid(7.3, 33)
    for seed in range(100):
        f = random_zero_mean_field(grid, 1.0, seed)
        values = inverse_transform(f)
        back = transform(grid, values)
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12
        again = inverse_transform(back)
        assert np.max(np.abs(again - values)) < 1e-12 * max(1.0, np.max(np.abs(values)))


def test_parseval_against_collocation_quadrature():
    grid = make_grid(4 * np.pi, 40)
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(grid.n_modes)
    f = SpectralField(grid, coeffs)
    # mean of f^2 over uniform points is (1/L) int f^2 exactly for band-limited f
    quad = np.mean(inverse_transform(f, 4 * grid.n_points) ** 2)
    assert quad == pytest.approx(np.sum(coeffs**2), rel=1e-10)


def test_derivative_of_cosine():
    grid = make_grid(TWO_PI, 9)
    y = collocation_points(grid)
    f = transform(grid, np.cos(y))
    d2 = differentiate(differentiate(f))
    assert np.max(np.abs(d2.coeffs + f.coeffs)) < 1e-14  # second derivative = -cos


def test_derivative_of_constant_and_sin():
    grid = make_grid(TWO_PI, 9)
    const = transform(grid, np.full(grid.n_points, 2.5))
    assert np.max(np.abs(differentiate(differentiate(differentiate(const))).coeffs)) < 1e-13
    y = collocation_points(grid)
    d1 = differentiate(transform(grid, np.sin(2 * y)))
    expected = transform(grid, 2.0 * np.cos(2 * y))
    assert np.max(np.abs(d1.coeffs - expected.coeffs)) < 1e-13


def test_derivative_composition_and_zero_mean():
    grid = make_grid(5.0, 22)
    f = random_zero_mean_field(grid, 1.0, 11)
    # d^2/dy^2 is -lam per mode; the even truncation's unpaired top cosine is annihilated
    twice = differentiate(differentiate(f))
    want = -grid.eigenvalues * f.coeffs
    want[-1] = 0.0
    assert np.max(np.abs(twice.coeffs - want)) < 1e-12 * np.max(np.abs(want))
    fifth = f
    for _ in range(5):
        fifth = differentiate(fifth)
    assert fifth.coeffs[0] == 0.0


def test_square_of_single_cosine_double_angle():
    grid = make_grid(TWO_PI, 7)
    y = collocation_points(grid)
    f = transform(grid, np.cos(y))
    sq = dealiased_square(f)
    expected = transform(grid, 0.5 + 0.5 * np.cos(2 * y))
    assert np.max(np.abs(sq.coeffs - expected.coeffs)) < 1e-14


def test_square_of_zero_field():
    grid = make_grid(TWO_PI, 7)
    z = SpectralField(grid, np.zeros(7))
    assert np.max(np.abs(dealiased_square(z).coeffs)) == 0.0


def _quadrature_projection(grid, field):
    """Independent oracle: square pointwise on a 4x finer grid, project by
    direct inner products against the basis functions."""
    n_fine = 4 * grid.n_points
    y = collocation_points(grid, n_fine)
    w = inverse_transform(field, n_fine) ** 2
    coeffs = np.zeros(grid.n_modes)
    coeffs[0] = w.mean()
    for j in range(1, grid.max_harmonic + 1):
        coeffs[2 * j - 1] = (w * np.sqrt(2) * np.cos(2 * np.pi * j * y / grid.period)).mean()
        if 2 * j <= grid.n_modes - 1:
            coeffs[2 * j] = (w * np.sqrt(2) * np.sin(2 * np.pi * j * y / grid.period)).mean()
    return coeffs


def _standard_normal_field(grid, seed):
    """Seeded O(1) coefficients on every mode, so the top harmonics are as
    large as the bottom ones and any aliasing onto them shows."""
    return SpectralField(grid, np.random.default_rng(seed).standard_normal(grid.n_modes))


@pytest.mark.parametrize("n", [3, 4, 64, 129])
def test_batched_pack_and_unpack_equal_row_wise_calls(n):
    grid = make_grid(3.7, n)
    rng = np.random.default_rng(n)
    coeffs = rng.standard_normal((2, 3, n))
    spectra = rng.standard_normal((2, 3, 2 * grid.max_harmonic + 2)).view(complex)
    packed, unpacked = _pack(grid, coeffs), _unpack(grid, spectra)
    assert packed.shape == (2, 3, grid.max_harmonic + 1)
    assert unpacked.shape == (2, 3, n)
    for row in np.ndindex(2, 3):
        assert np.array_equal(packed[row], _pack(grid, coeffs[row]))
        assert np.array_equal(unpacked[row], _unpack(grid, spectra[row]))


@pytest.mark.parametrize("n", [21, 64, 65, 66, 128, 1024])
def test_square_against_fine_grid_quadrature_oracle(n):
    grid = make_grid(3.7, n)
    for seed in (0, 1, 2):
        f = _standard_normal_field(grid, seed)
        got = dealiased_square(f).coeffs
        want = _quadrature_projection(grid, f)
        assert np.max(np.abs(got - want)) < 1e-10


@pytest.mark.parametrize("n", [64, 65, 66, 128, 1024])
def test_square_on_own_collocation_points_is_alias_free(n):
    # n_points alone must satisfy the 3/2 rule (>= 3K + 1 points for top
    # harmonic K); with n_modes = 0 mod 4, 3N/2 points alias onto the top cosine
    grid = make_grid(3.7, n)
    for seed in (0, 1, 2):
        f = _standard_normal_field(grid, seed)
        got = transform(grid, inverse_transform(f) ** 2).coeffs
        want = _quadrature_projection(grid, f)
        assert np.max(np.abs(got - want)) < 1e-10


@pytest.mark.parametrize("n", [3, 4, 19, 64, 65, 128])
def test_collocation_matrices_are_the_transforms_of_the_packed_identity_bit_for_bit(n):
    grid = make_grid(10 * np.pi, n)
    spectra = _pack(grid, np.eye(n))
    values = np.fft.irfft(spectra, grid.n_points, norm="forward")
    slope_t = np.fft.irfft(spectra * grid._ik, grid.n_points, norm="forward")
    slope, analysis = grid._collocation_matrices
    assert slope.flags.c_contiguous and analysis.flags.c_contiguous
    # bits, so that a zero's sign counts too
    assert slope.shape == (grid.n_points, n)
    assert np.array_equal(slope.view(np.uint64), np.ascontiguousarray(slope_t.T).view(np.uint64))
    assert np.array_equal(analysis.view(np.uint64), (values / grid.n_points).view(np.uint64))


def _derivative_oracle(coeffs, period, order):
    """Per-mode derivative: (a_{2j-1}, a_{2j}) -> q_j (a_{2j}, -a_{2j-1}), applied
    order times; the mean and an even truncation's unpaired top cosine go to 0."""
    out = np.zeros_like(coeffs)
    for j in range(1, (len(coeffs) - 1) // 2 + 1):
        q = 2 * np.pi * j / period
        a, b = coeffs[2 * j - 1], coeffs[2 * j]
        for _ in range(order):
            a, b = q * b, -q * a
        out[2 * j - 1], out[2 * j] = a, b
    return out


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n", [19, 64])
@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_derivative_against_per_mode_oracle(n, order, seed):
    grid = make_grid(6.0, n)
    coeffs = np.random.default_rng(seed).standard_normal(n)
    field = SpectralField(grid, coeffs)
    for _ in range(order):
        field = differentiate(field)
    got = field.coeffs
    want = _derivative_oracle(coeffs, grid.period, order)
    if n % 2 == 0:
        assert got[-1] == 0.0
    assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


def test_cosine_field_matches_pointwise():
    grid = make_grid(9.0, 16)
    y = collocation_points(grid)
    f = cosine_field(grid, 0.7, harmonic=3)
    assert np.max(np.abs(inverse_transform(f) - 0.7 * np.cos(2 * np.pi * 3 * y / 9.0))) < 1e-14
    with pytest.raises(ValueError):
        cosine_field(grid, 1.0, harmonic=grid.max_harmonic + 1)


def test_random_field_profile():
    grid = make_grid(TWO_PI, 33)
    f = random_zero_mean_field(grid, 1e-3, seed=5)
    assert f.coeffs[0] == 0.0
    assert np.linalg.norm(f.coeffs) == pytest.approx(1e-3, rel=1e-12)
    # decay: top-mode coefficient suppressed by (lam_1/lam_max)^2
    top = np.max(np.abs(f.coeffs[-2:]))
    assert top < 1e-3 * (grid.eigenvalues[1] / grid.eigenvalues[-1]) ** 2 * 10


# 2**32 - 1 .. 2**64 + 1 take one to three 32-bit words; 2**200 + 3 takes
# seven, so SeedSequence's loop over the words past its pool of four runs
STREAM_SEEDS = [*range(1000), 2**32 - 1, 2**32, 2**64 + 1, 2**200 + 3, True, np.int64(3)]


@pytest.mark.parametrize("n", [3, 8, 64, 129])
def test_the_stream_equals_numpys_generator_bit_for_bit(n):
    for seed in STREAM_SEEDS:
        want = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        got = np.array(_uniforms(operator.index(seed), n))
        assert got.tobytes() == want.tobytes(), seed
        field = random_zero_mean_field(make_grid(TWO_PI, n), 1.0, seed)
        assert field.coeffs.tobytes() == _unit_field(want).tobytes(), seed


def _unit_field(raw):
    """random_zero_mean_field's coefficients at amplitude 1 and period 2 pi from the raw draws raw."""
    lam = make_grid(TWO_PI, raw.size).eigenvalues
    coeffs = np.zeros(raw.size)
    coeffs[1:] = raw[1:] * (lam[1] / lam[1:]) ** 2.0
    coeffs *= 1.0 / np.sqrt(np.sum(coeffs**2))
    return coeffs


@pytest.mark.parametrize("seed", [1.5, 2.0, "3", [3]])
def test_a_seed_that_is_not_an_integer_is_a_type_error(seed):
    with pytest.raises(TypeError):
        random_zero_mean_field(make_grid(TWO_PI, 8), 1.0, seed)


@pytest.mark.parametrize("seed", [-1, np.int64(-3), -(2**70)])
def test_a_negative_seed_is_a_value_error(seed):
    with pytest.raises(ValueError, match=f"^seed must be non-negative, got {seed}$"):
        random_zero_mean_field(make_grid(TWO_PI, 8), 1.0, seed)
