"""Evolver: descriptors, ETDRK4 stepping, trajectories, mean-mode law."""

import dataclasses
import functools

import mpmath as mp
import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from frontks.evolve import (
    Etdrk4,
    EquationDescriptor,
    SolverConfig,
    Trajectory,
    evolve,
    make_front_equation,
    make_ks_equation,
    make_rescaled_equation,
    _phi,
    mean_mode_ode_check,
)
from frontks.experiments import fit_log_slope
from frontks.grid import (
    SpectralField,
    _pack,
    _square_spectrum,
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
    gaps = []
    eps_list = [1e-2, 1e-3, 1e-4]
    for eps in eps_list:
        d = make_rescaled_equation(eps, grid)
        gaps.append(
            np.max(np.abs(d.linear_symbol - ks.linear_symbol))
            + np.max(np.abs(d.nonlinear_symbol - ks.nonlinear_symbol))
        )
    assert fit_log_slope(eps_list, gaps) > 0.9  # entrywise gap shrinks linearly


@pytest.mark.parametrize("eps", [0.5, 0.1, 0.04, 0.01, 0.001])
@pytest.mark.parametrize("harmonic", [1, 5])
def test_front_equation_in_slow_variables_is_the_rescaled_equation(harmonic, eps):
    # phi(y, t) = eps psi(sqrt(eps) y, eps^2 t) on period ell0/sqrt(eps) at alpha = 1 + eps: the
    # two runs take the same steps, so their snapshots agree up to round-off in the symbols.
    # Harmonic 5 (lam = 1) is where eps h, the mass correction, is a sizable part of the mass.
    ell0, dt, t_end, stride = 10 * np.pi, 1e-3, 1.0, 100
    slow_grid, front_grid = make_grid(ell0, 128), make_grid(ell0 / np.sqrt(eps), 128)
    slow = evolve(SolverConfig(
        make_rescaled_equation(eps, slow_grid), cosine_field(slow_grid, 0.1, harmonic), dt, t_end, stride
    ))
    front = evolve(SolverConfig(
        make_front_equation(1 + eps, front_grid), cosine_field(front_grid, 0.1 * eps, harmonic),
        dt / eps**2, t_end / eps**2, stride,
    ))
    assert front.coeffs.shape == slow.coeffs.shape == (11, 128)
    assert np.max(np.abs(front.coeffs / eps - slow.coeffs)) <= 1e-12 * np.max(np.abs(slow.coeffs))


def test_zero_field_is_fixed_point():
    grid = make_grid(TWO_PI, 16)
    out = Etdrk4(make_front_equation(2.0, grid), 0.05).step_coeffs(np.zeros(16))
    assert np.max(np.abs(out)) == 0.0


def test_single_mode_linearisation():
    grid = make_grid(TWO_PI, 32)
    desc = make_front_equation(1.5, grid)
    stepper = Etdrk4(desc, 0.02)
    for k in (1, 4, 9):
        ic = np.zeros(32)
        ic[k] = 1e-8
        out = stepper.step_coeffs(ic)
        expected = 1e-8 * np.exp(desc.linear_symbol[k] * 0.02)
        assert abs(out[k] / expected - 1.0) < 1e-9


def test_linear_exactness_regardless_of_stiffness():
    # zero nonlinear symbol: each mode must follow exp(L t) through t = 1
    grid = make_grid(TWO_PI, 64)
    lam = grid.eigenvalues
    desc = EquationDescriptor(grid, lam - 4 * lam**2, np.zeros(64))
    ic = np.full(64, 1.0)
    traj = evolve(SolverConfig(descriptor=desc, initial_condition=SpectralField(grid, ic), dt=0.05, t_end=1.0, output_stride=100))
    expected = np.exp(desc.linear_symbol)
    visible = expected > 1e-250
    ratio = traj.coeffs[-1][visible] / expected[visible]
    assert np.max(np.abs(ratio - 1.0)) < 1e-10


def test_stepper_coefficients_at_zero_symbol():
    # contour evaluation must reproduce the analytic z -> 0 limits
    grid = make_grid(TWO_PI, 8)
    desc = EquationDescriptor(grid, np.zeros(8), np.zeros(8))
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


def _per_mode_coefficients(z, dt):
    """The contour averages evaluated independently for every mode."""
    r = np.exp(1j * np.pi * (np.arange(16) + 0.5) / 16)
    zr = z[:, None] + r[None, :]
    ez = np.exp(zr)
    return (
        dt * ((np.exp(0.5 * zr) - 1.0) / zr).mean(1).real,
        dt * ((-4.0 - zr + ez * (4.0 - 3.0 * zr + zr**2)) / zr**3).mean(1).real,
        dt * ((2.0 + zr + ez * (zr - 2.0)) / zr**3).mean(1).real,
        dt * ((-4.0 - 3.0 * zr - zr**2 + ez * (4.0 - zr)) / zr**3).mean(1).real,
    )


def _distinct_symbol_equation(grid):
    """Seeded random linear symbol: no two modes share a contour."""
    lin = -np.random.default_rng(grid.n_modes).uniform(0.0, 50.0, grid.n_modes)
    return EquationDescriptor(grid, lin, np.full(grid.n_modes, -0.5))


@pytest.mark.parametrize("equation", [*sorted(EQUATIONS), "distinct"])
@pytest.mark.parametrize("n", [64, 1024, 2048])
def test_stepper_coefficients_built_once_per_distinct_symbol(n, equation):
    grid = make_grid(80.0, n)
    desc = {**EQUATIONS, "distinct": _distinct_symbol_equation}[equation](grid)
    dt = 0.002
    st = Etdrk4(desc, dt)
    got = (st.coeff_q, st.coeff_f1, st.coeff_f2, st.coeff_f3)
    z = dt * desc.linear_symbol
    if equation == "distinct":
        assert len(np.unique(z)) == n
    for value in np.unique(z):
        same = np.flatnonzero(z == value)
        for c in got:
            assert np.all(c[same] == c[same[0]])
    for c, want in zip(got, _per_mode_coefficients(z, dt)):
        assert np.all(want != 0)
        assert np.max(np.abs(c - want) / np.abs(want)) <= 1e-12


# z = dt L of 32 cos/sin pairs whose partners differ: by one ulp, on both sides of the
# contour switch; or on either side of the switch itself
_COS = -np.geomspace(1e-3, 40.0, 32)
_GAP = np.geomspace(1e-9, 1.0, 16)
SPLIT_PAIRS = {
    "ulp": (_COS, np.nextafter(_COS, -np.inf)),
    "switch": (np.r_[-5.0 + _GAP, 5.0 - _GAP], np.r_[-5.0 - _GAP, 5.0 + _GAP]),
}


@pytest.mark.parametrize("pairs", sorted(SPLIT_PAIRS))
def test_stepper_does_not_assume_that_cos_sin_partners_share_a_symbol(pairs):
    cos, sin = SPLIT_PAIRS[pairs]
    z = np.empty(65)
    z[0], z[1::2], z[2::2] = 0.0, cos, sin
    assert np.all(z[1::2] != z[2::2])
    dt = 0.5  # a power of two: z / dt is exact
    st = Etdrk4(EquationDescriptor(make_grid(TWO_PI, z.size), z / dt, np.zeros(z.size)), dt)
    got = np.array([st.coeff_q, st.coeff_f1, st.coeff_f2, st.coeff_f3])
    near = np.abs(z) < 5.0
    want = np.empty_like(got)
    want[:, near] = _per_mode_coefficients(z[near], dt)
    want[:, ~near] = dt * np.array(_phi(z[~near]))
    assert near.any() and not near.all()
    assert np.array_equal(got.view(np.int64), want.view(np.int64))  # bit for bit


def _phi_50_digits(z):
    """(q, f1, f2, f3) / dt at z = dt L: the closed forms in 50-digit arithmetic."""
    with mp.workdps(50):
        z = mp.mpf(z)
        ez = mp.exp(z)
        return [
            float(v)
            for v in (
                (mp.exp(z / 2) - 1) / z,
                (-4 - z + ez * (4 - 3 * z + z**2)) / z**3,
                (2 + z + ez * (z - 2)) / z**3,
                (-4 - 3 * z - z**2 + ez * (4 - z)) / z**3,
            )
        ]


@pytest.mark.parametrize(
    "z,tol",
    [
        # closed forms from |z| = 5 on, including just past the switch
        (
            np.r_[
                -np.geomspace(5 + 1e-6, 1e6, 60), np.linspace(5 + 1e-6, 60, 30), -5 - 1e-9, 5 + 1e-9
            ],
            1e-15,
        ),
        # the contour average inside the disc, including just short of the switch
        (np.r_[np.linspace(-4.95, 4.95, 34), -1e-3, 1e-3, -5 + 1e-9, 5 - 1e-9], 1e-12),
    ],
    ids=["closed-form", "contour"],
)
def test_stepper_coefficients_match_50_digit_phi_functions(z, tol):
    dt = 0.5  # a power of two: z / dt and coefficient / dt are exact
    grid = make_grid(TWO_PI, z.size)
    stepper = Etdrk4(EquationDescriptor(grid, z / dt, np.zeros(z.size)), dt)
    got = np.array([stepper.coeff_q, stepper.coeff_f1, stepper.coeff_f2, stepper.coeff_f3]) / dt
    want = np.array([_phi_50_digits(v) for v in z]).T
    assert np.max(np.abs(got - want) / np.abs(want)) <= tol


def test_stepper_rejects_a_symbol_whose_cube_overflows():
    # _phi divides by z**3 of z = dt L: finite up to |z| ~ 5.6e102, nan coefficients past it
    dt = 0.5
    grid = make_grid(TWO_PI, 3)
    stiff = Etdrk4(EquationDescriptor(grid, np.array([0.0, -1.0, -9.9e99]) / dt, np.zeros(3)), dt)
    assert all(np.all(np.isfinite(c)) for c in (stiff.coeff_q, stiff.coeff_f1, stiff.coeff_f2, stiff.coeff_f3))
    with pytest.raises(ValueError, match="below 1e100"):
        Etdrk4(EquationDescriptor(grid, np.array([0.0, -1.0, -1e100]) / dt, np.zeros(3)), dt)


@pytest.mark.parametrize(
    "desc,dt",
    [
        # the scan and dense grids of the benchmark: every |dt L| < 5
        (make_front_equation(12.0, make_grid(4 * np.pi, 64)), 0.01),
        (make_rescaled_equation(0.04, make_grid(10 * np.pi, 128)), 0.001),
    ],
    ids=["scan", "dense"],
)
def test_stepper_coefficients_inside_the_contour_disc_keep_their_bits(desc, dt):
    st = Etdrk4(desc, dt)
    got = (st.coeff_q, st.coeff_f1, st.coeff_f2, st.coeff_f3)
    for c, want in zip(got, _per_mode_coefficients(dt * desc.linear_symbol, dt)):
        assert np.array_equal(c, want)


@pytest.mark.parametrize("n", [64, 129, 2048])
def test_nonlinear_term_and_grid_operators_only_read_their_input(n):
    grid = make_grid(TWO_PI, n)
    coeffs = np.random.default_rng(n).standard_normal(n)
    before = coeffs.copy()
    stepper = Etdrk4(make_ks_equation(grid), 1e-3)
    field = SpectralField(grid, coeffs)
    for result in (
        stepper.nonlinear(coeffs),
        differentiate(field).coeffs,
        dealiased_square(field).coeffs,
    ):
        assert np.array_equal(coeffs, before)
        assert not np.shares_memory(result, coeffs)


@pytest.mark.parametrize("equation", sorted(EQUATIONS))
# even n: unpaired top cosine; 128 and 129 straddle evolve.MATRIX_MAX_MODES
@pytest.mark.parametrize("n", [3, 4, 19, 64, 65, 66, 128, 129, 2048])
def test_nonlinear_term_is_symbol_times_dealiased_square_of_slope(n, equation):
    grid = make_grid(TWO_PI, n)
    desc = EQUATIONS[equation](grid)
    coeffs = np.random.default_rng(n).standard_normal(n)
    slope_sq = dealiased_square(differentiate(SpectralField(grid, coeffs))).coeffs
    expected = desc.nonlinear_symbol * slope_sq
    got = Etdrk4(desc, 1e-3).nonlinear(coeffs)
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def _textbook_step(stepper, nonlinear, u):
    """Cox & Matthews' ETDRK4 step, written out from the stepper's coefficients."""
    n0 = nonlinear(u)
    a = stepper.exp_half * u + stepper.coeff_q * n0
    na = nonlinear(a)
    b = stepper.exp_half * u + stepper.coeff_q * na
    nb = nonlinear(b)
    c = stepper.exp_half * a + stepper.coeff_q * (2.0 * nb - n0)
    nc = nonlinear(c)
    return (
        stepper.exp_full * u
        + stepper.coeff_f1 * n0
        + 2.0 * stepper.coeff_f2 * (na + nb)
        + stepper.coeff_f3 * nc
    )


@pytest.mark.parametrize("equation", sorted(EQUATIONS))
# 16-128 take the matrix path, 129 and 512 the FFT path
@pytest.mark.parametrize("n", [16, 64, 128, 129, 512])
def test_step_coeffs_is_the_textbook_step_bit_for_bit(n, equation):
    grid = make_grid(10 * np.pi, n)
    stepper = Etdrk4(EQUATIONS[equation](grid), 1e-3)
    if stepper._slope is not None:
        def nonlinear(v):
            return stepper._analysis @ np.square(stepper._slope @ v)
    else:
        nonlinear = stepper.nonlinear
    u = random_zero_mean_field(grid, 1.0, n).coeffs
    for _ in range(3):
        before = u.copy()
        out = stepper.step_coeffs(u)
        assert np.array_equal(out, _textbook_step(stepper, nonlinear, u))
        # the input is only read, and the result is a new array
        assert np.array_equal(u, before)
        assert not np.shares_memory(out, u)
        u = out


def _unbuffered_nonlinear(descriptor):
    """The FFT-path nonlinear term composed of fresh arrays: pack, derivative, square, G."""
    grid = descriptor.grid

    def nonlinear(v):
        return _square_spectrum(grid, _pack(grid, v) * grid._ik) * descriptor.nonlinear_symbol

    return nonlinear


def _arrays(stepper):
    # the arrays the stepper holds, directly or in the cells of a closure
    for value in vars(stepper).values():
        cells = getattr(value, "__closure__", None) or ()
        yield from (a for a in (value, *(c.cell_contents for c in cells)) if isinstance(a, np.ndarray))


# all on the FFT path; 256, 512, 1024 and 2048 leave the top cosine unpaired,
# and 512, 1024 and 2048 take the 800, 1600 and 3200 points of perfbench's ladder
FFT_PATH_MODES = [129, 256, 257, 512, 1024, 2048]


@pytest.mark.parametrize("equation", sorted(EQUATIONS))
@pytest.mark.parametrize("n", FFT_PATH_MODES)
def test_fft_path_nonlinear_is_the_unbuffered_composition_bit_for_bit(n, equation):
    grid = make_grid(10 * np.pi, n)
    descriptor = EQUATIONS[equation](grid)
    stepper = Etdrk4(descriptor, 1e-3)
    assert stepper._slope is None
    nonlinear = _unbuffered_nonlinear(descriptor)
    u = random_zero_mean_field(grid, 1.0, n).coeffs
    for _ in range(3):
        assert np.array_equal(stepper.nonlinear(u), nonlinear(u))
        out = stepper.step_coeffs(u)
        assert np.array_equal(out, _textbook_step(stepper, nonlinear, u))
        u = out


@pytest.mark.parametrize("equation", sorted(EQUATIONS))
@pytest.mark.parametrize("n", FFT_PATH_MODES)
def test_fft_path_nonlinear_carries_no_state_between_calls(n, equation):
    grid = make_grid(10 * np.pi, n)
    stepper = Etdrk4(EQUATIONS[equation](grid), 1e-3)
    assert stepper._slope is None
    u, v = np.random.default_rng(n).standard_normal((2, n))
    first = stepper.nonlinear(u)
    kept = first.copy()
    second = stepper.nonlinear(v)
    for result, arg in ((first, u), (second, v)):
        assert not np.shares_memory(result, arg)
        assert not any(np.shares_memory(result, a) for a in _arrays(stepper))
    # an infinite top coefficient meets a zero derivative multiplier when the
    # top cosine is unpaired: inf * 0 must not outlive its call
    blown = u.copy()
    blown[-1] = np.inf
    with np.errstate(all="ignore"):
        stepper.nonlinear(blown)
    assert np.array_equal(first, kept)
    fresh = Etdrk4(EQUATIONS[equation](grid), 1e-3)
    assert np.array_equal(stepper.nonlinear(v), fresh.nonlinear(v))
    assert np.array_equal(stepper.nonlinear(u), kept)


SYMMETRY_PERIOD = 40.0
SYMMETRY_EQUATIONS = {
    "front": lambda grid: make_front_equation(2.5, grid),
    "ks": make_ks_equation,
    "rescaled": lambda grid: make_rescaled_equation(0.04, grid),
}


@functools.cache
def _symmetry_stepper(equation, n):
    return Etdrk4(SYMMETRY_EQUATIONS[equation](make_grid(SYMMETRY_PERIOD, n)), 0.01)


def _half_period_shift(coeffs):
    # f(y - L/2): harmonic j = (k+1)//2 changes sign with j, exactly on any truncation
    return coeffs * (-1.0) ** ((np.arange(coeffs.size) + 1) // 2)


def _reflect(coeffs):
    # f(-y): the sin coefficients change sign
    out = coeffs.copy()
    out[2::2] *= -1.0
    return out


def _add_to_mean(coeffs):
    out = coeffs.copy()
    out[0] += 3.7
    return out


def _shift(coeffs):
    # f(y - 0.37 L / 7) on an odd truncation: each (cos_j, sin_j) pair turns by q_j times the shift
    angle = 2.0 * np.pi * np.arange(1, coeffs.size // 2 + 1) * 0.37 / 7
    cos, sin = coeffs[1::2], coeffs[2::2]
    out = coeffs.copy()
    out[1::2] = np.cos(angle) * cos - np.sin(angle) * sin
    out[2::2] = np.sin(angle) * cos + np.cos(angle) * sin
    return out


# 16, 17 and 128 take the matrix path, 129, 256 and 257 the FFT path; a general
# shift keeps only odd truncations, where every cosine has its sin partner
@pytest.mark.parametrize("symmetry,n", [
    *((s, n) for s in (_half_period_shift, _reflect, _add_to_mean) for n in (16, 17, 128, 129, 256, 257)),
    *((_shift, n) for n in (17, 129, 257)),
], ids=lambda v: v.__name__.strip("_") if callable(v) else str(v))
@pytest.mark.parametrize("equation", sorted(SYMMETRY_EQUATIONS))
@given(seed=st.integers(0, 2**32 - 1), amplitude=st.floats(1e-3, 10.0), mean=st.floats(-10.0, 10.0))
# no shrinking or explaining: a failing case reports its first example in seconds, not ~40 s
@settings(max_examples=10, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
def test_step_commutes_with_the_symmetries_of_the_equations(equation, symmetry, n, seed, amplitude, mean):
    # each equation is invariant under translation, reflection and adding a constant
    stepper = _symmetry_stepper(equation, n)
    u = random_zero_mean_field(stepper.descriptor.grid, amplitude, seed).coeffs
    u[0] = mean
    stepped = stepper.step_coeffs(u)
    want = symmetry(stepped)
    got = stepper.step_coeffs(symmetry(u))
    assert np.max(np.abs(got - want)) <= 1e-14 * max(np.max(np.abs(stepped)), np.max(np.abs(want)))


def _evolve_from(equation, coeffs):
    grid = make_grid(SYMMETRY_PERIOD, coeffs.size)
    descriptor = SYMMETRY_EQUATIONS[equation](grid)
    traj = evolve(SolverConfig(descriptor, SpectralField(grid, coeffs), dt=0.01, t_end=1.0, output_stride=10))
    assert not traj.blown_up
    return traj.coeffs


@pytest.mark.parametrize("symmetry", [_half_period_shift, _reflect, _add_to_mean], ids=lambda s: s.__name__.strip("_"))
@pytest.mark.parametrize("n", [16, 17, 128, 129, 256, 257])
@pytest.mark.parametrize("equation", sorted(SYMMETRY_EQUATIONS))
def test_evolve_commutes_with_the_symmetries_of_the_equations(equation, n, symmetry):
    # the whole run, snapshot by snapshot: a transformed start gives the transformed trajectory
    u = random_zero_mean_field(make_grid(SYMMETRY_PERIOD, n), 1.0, seed=n).coeffs
    u[0] = -0.4
    plain = _evolve_from(equation, u)
    want = np.array([symmetry(snapshot) for snapshot in plain])
    got = _evolve_from(equation, symmetry(u))
    assert np.max(np.abs(got - want)) <= 1e-14 * max(np.max(np.abs(plain)), np.max(np.abs(got)))


@pytest.mark.parametrize("n,ffts_per_step", [(128, 0), (129, 8)])
def test_evolve_takes_ffts_only_above_the_matrix_size(n, ffts_per_step, monkeypatch):
    # up to MATRIX_MAX_MODES the nonlinear term is two matrix products; above
    # it, one irfft/rfft pair per nonlinear evaluation, four per step
    ffts = []

    def counted(fft):
        def call(*args, **kwargs):
            ffts.append(fft.__name__)
            return fft(*args, **kwargs)

        return call

    monkeypatch.setattr(np.fft, "rfft", counted(np.fft.rfft))
    monkeypatch.setattr(np.fft, "irfft", counted(np.fft.irfft))
    build = Etdrk4.__init__

    def build_then_reset(self, *args):
        build(self, *args)
        ffts.clear()

    grid = make_grid(10 * np.pi, n)
    Etdrk4(make_ks_equation(grid), 1e-3)
    # the matrices are cached on the grid, each built by one batched irfft
    assert len(ffts) == (2 if ffts_per_step == 0 else 0)
    monkeypatch.setattr(Etdrk4, "__init__", build_then_reset)
    evolve(
        SolverConfig(
            descriptor=make_rescaled_equation(0.04, grid),
            initial_condition=cosine_field(grid, 0.1),
            dt=1e-3,
            t_end=5e-3,
        )
    )
    assert len(ffts) == ffts_per_step * 5


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
    runaway = EquationDescriptor(grid, np.full(16, 40.0), np.zeros(16))
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


def test_blowup_time_is_the_one_outcome_record():
    names = [f.name for f in dataclasses.fields(Trajectory)]
    assert names == ["descriptor", "times", "coeffs", "diagnostics", "blowup_time"]
    desc = make_ks_equation(make_grid(TWO_PI, 8))
    assert not Trajectory(desc, np.zeros(1), np.zeros((1, 8))).blown_up
    traj = Trajectory(desc, np.zeros(1), np.zeros((1, 8)), blowup_time=0.5)
    assert traj.blown_up
    with pytest.raises(AttributeError):
        traj.blown_up = False  # derived from blowup_time, never set on its own


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
    with pytest.raises(ValueError, match="output_stride must be a positive integer"):
        SolverConfig(descriptor=desc, initial_condition=good, dt=0.1, t_end=1.0, output_stride=0)
    with pytest.raises(ValueError, match="dt must be positive"):
        Etdrk4(desc, 0.0)


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
    with pytest.raises(ValueError, match="fewer than two snapshots"):
        mean_mode_ode_check(dataclasses.replace(traj, times=traj.times[:1], coeffs=traj.coeffs[:1]))


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
