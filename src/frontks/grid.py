"""Real trigonometric spectral representation on a periodic interval.

Functions are expanded in the eigenbasis of d^2/dy^2 with periodic boundary
conditions on [-L/2, L/2], ordered by eigenvalue with the physical
multiplicity pattern

    w_0 = 1,  w_{2j-1} = sqrt(2) cos(2 pi j y / L),  w_{2j} = sqrt(2) sin(2 pi j y / L),

so mode k carries eigenvalue lam_k with lam_0 = 0 and
lam_{2j-1} = lam_{2j} = (2 pi j / L)^2.  The basis is orthonormal with
respect to the *mean* inner product (1/L) int f g dy, hence
sum_k a_k^2 = (1/L) int f^2 (Parseval) and a_0 is the mean of f.
Quadratic products are evaluated pointwise on the grid's own collocation
points, n_points >= 3K + 1 for top harmonic K (the 3/2 rule), and truncated,
which makes the product alias-free on all retained modes.  n_points is rounded
up to an even count with prime factors <= 5 only: the FFT is several times
slower on counts with a large prime factor (2 * 769 at n_modes = 1024), and
numpy's pocketfft has dedicated passes for the factors 2, 3, 4 and 5 but sends
a factor 7 to its slower generic pass.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralGrid",
    "SpectralField",
    "make_grid",
    "eigenvalue",
    "transform",
    "inverse_transform",
    "differentiate",
    "dealiased_square",
    "slope_energy_weights",
    "random_zero_mean_field",
    "cosine_field",
]

_SQRT2 = np.sqrt(2.0)

# the largest eigenvalue of a mode: every stiffness is quadratic in lam, and 4 lam^2 stays within a quarter of the float range
MAX_EIGENVALUE = float(np.sqrt(np.finfo(float).max)) / 4.0
# the longest period: lam_1 = (2 pi / L)^2 stays a normal float, not 0
MAX_PERIOD = 2.0 * np.pi / float(np.sqrt(np.finfo(float).tiny))


def _fft_friendly(n: int) -> int:
    """Smallest even count >= the even count n whose prime factors are all <= 5.

    5-smooth counts are the ones pocketfft transforms with its dedicated
    radix passes only; a factor 7 would take its generic pass.
    """
    m = n
    while True:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 2


@dataclass(frozen=True)
class SpectralGrid:
    """Periodic interval of length ``period`` truncated to ``n_modes`` basis modes.

    Every other attribute is derived from those two in __post_init__, so a
    grid (including one made by dataclasses.replace) is always consistent.
    """

    period: float
    n_modes: int
    n_points: int = dataclasses.field(init=False)
    eigenvalues: np.ndarray = dataclasses.field(init=False, compare=False, repr=False)
    # spectral layout: see _pack
    _coeff_scale: np.ndarray = dataclasses.field(init=False, compare=False, repr=False)
    _ik: np.ndarray = dataclasses.field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # first, as eigenvalue checks the period
        object.__setattr__(self, "eigenvalues", eigenvalue(self.period, np.arange(self.n_modes)))
        if self.n_modes < 3:
            raise ValueError(f"n_modes must be at least 3, got {self.n_modes}")
        # smallest even count above 3N/2 (>= 3K + 1 for top harmonic K, the 3/2
        # rule that keeps truncated quadratics alias-free), rounded up to the next
        # even count with no prime factor above 5, the sizes pocketfft has
        # dedicated passes for
        object.__setattr__(self, "n_points", _fft_friendly(2 * (3 * self.n_modes // 4 + 1)))
        # wavenumbers q_j = 2 pi j / L of the harmonics j = 0..K
        q = 2.0 * np.pi * np.arange(self.max_harmonic + 1) / self.period
        # coefficient k >= 1 is sqrt(2) (-1)^j times Re z_j (cos, k odd) or
        # -Im z_j (sin, k even): a sign pattern of period 4 in k; the mean is Re z_0
        scale = np.tile([-_SQRT2, _SQRT2, _SQRT2, -_SQRT2], self.n_modes // 4 + 1)
        object.__setattr__(self, "_coeff_scale", np.r_[1.0, scale[: self.n_modes - 1]])
        # derivative multiplier i q_j; an even truncation leaves the top cosine
        # without its sin partner, its derivative leaves the space, so it is
        # annihilated (usual Nyquist convention)
        ik = 1j * q
        if self.n_modes % 2 == 0:
            ik[-1] = 0.0
        object.__setattr__(self, "_ik", ik)

    @property
    def max_harmonic(self) -> int:
        """Largest trigonometric harmonic index represented (j of cos/sin(2 pi j y/L))."""
        return self.n_modes // 2

    @functools.cached_property
    def _collocation_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """(slope, analysis): the two transforms of _square_spectrum as dense matrices.

        slope (n_points x n_modes) maps coefficients to the first derivative at
        the collocation points.  analysis (n_modes x n_points) is values /
        n_points, where values[k, i] is basis function k at point i; by discrete
        orthogonality (n_points > 2K) it maps the values of any product of two
        retained functions back to its coefficients exactly.  Cached, so all
        steppers on one grid share one build: one batched irfft per matrix.
        """
        # _pack of the identity: each basis function's spectrum, without the eye
        spectra = np.zeros((self.n_modes, self.max_harmonic + 1), complex)
        spectra[0, 0] = 1.0
        np.fill_diagonal(spectra.view(float)[1:, 2:], 1 / self._coeff_scale[1:])
        values = np.fft.irfft(spectra, self.n_points, norm="forward")
        values /= self.n_points
        spectra *= self._ik
        slope = np.empty((self.n_points, self.n_modes))  # filled along axis 0, no transposed copy
        return np.fft.irfft(spectra.T, self.n_points, axis=0, norm="forward", out=slope), values


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Coefficient vector of a real periodic function in the grid's eigenbasis."""

    grid: SpectralGrid
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != (self.grid.n_modes,):
            raise ValueError(
                f"coefficient vector has shape {self.coeffs.shape}, "
                f"expected ({self.grid.n_modes},)"
            )


def make_grid(period: float, n_modes: int) -> SpectralGrid:
    """Build a grid; eigenvalues follow the exact multiplicity-2 layout."""
    return SpectralGrid(float(period), int(n_modes))


def eigenvalue(period: float, k):
    """lam_k = (2 pi j / L)^2 of mode k in harmonic j = (k+1)//2; k is an int or an int array."""
    if not 0 < period <= MAX_PERIOD:
        raise ValueError(f"period must be positive and at most {MAX_PERIOD:.3g}, got {period}")
    # the harmonic against the bound's, so nothing overflows even for a huge int k
    if (np.max(k, initial=0) + 1) // 2 > period * MAX_EIGENVALUE**0.5 / (2.0 * np.pi):
        raise ValueError(f"mode {np.max(k)} at period {period:g} has an eigenvalue above {MAX_EIGENVALUE:.3g}")
    q = 2.0 * np.pi * ((k + 1) // 2) / period
    return q * q


def _pack(grid: SpectralGrid, coeffs: np.ndarray) -> np.ndarray:
    """Real-basis coefficients -> half-complex spectrum z_0..z_K (rfft layout).

    Leading axes are batch axes: each row along the last axis is packed alone.

    The values at n collocation points are irfft(z, n, norm="forward").  As a
    float array, z interleaves (Re z_j, Im z_j), which lines up with the
    (cos_j, sin_j) coefficient pairs; grid._coeff_scale carries the sqrt(2), the
    sign of each sin and the phase (-1)^j from points starting at -L/2.  An
    even truncation leaves the top cosine unpaired, so Im z_K stays zero.
    """
    buf = np.zeros((*coeffs.shape[:-1], 2 * grid.max_harmonic + 2))
    buf[..., 0] = coeffs[..., 0]
    np.divide(coeffs[..., 1:], grid._coeff_scale[1:], out=buf[..., 2 : grid.n_modes + 1])
    return buf.view(complex)


def _unpack(grid: SpectralGrid, spectrum: np.ndarray) -> np.ndarray:
    """Inverse of _pack: harmonics above K and the unpaired top sin are dropped."""
    flat = spectrum.view(float)
    # one product lines coefficient k >= 1 up with flat[k + 1]; its first entry
    # (Im z_0) is then overwritten by the mean, Re z_0
    coeffs = flat[..., 1 : grid.n_modes + 1] * grid._coeff_scale
    coeffs[..., 0] = flat[..., 0]
    return coeffs


def transform(grid: SpectralGrid, values: np.ndarray) -> SpectralField:
    """Collocation values at the grid's n_points -> spectral coefficients."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n_points,):
        raise ValueError(
            f"expected {grid.n_points} collocation values, got {values.shape}"
        )
    return SpectralField(grid, _unpack(grid, np.fft.rfft(values, norm="forward")))


def inverse_transform(field: SpectralField, n_points: int | None = None) -> np.ndarray:
    """Spectral coefficients -> values at n_points uniform collocation points."""
    grid = field.grid
    n = grid.n_points if n_points is None else n_points
    if n < 2 * grid.max_harmonic + 1:
        raise ValueError(f"{n} points cannot carry harmonics up to {grid.max_harmonic}")
    return np.fft.irfft(_pack(grid, field.coeffs), n, norm="forward")


def differentiate(field: SpectralField) -> SpectralField:
    """Exact spectral first derivative (mean mode of the result is 0)."""
    grid = field.grid
    return SpectralField(grid, _unpack(grid, _pack(grid, field.coeffs) * grid._ik))


def _square_spectrum(grid: SpectralGrid, spectrum: np.ndarray) -> np.ndarray:
    """Real-basis coefficients of the square of the function with this _pack spectrum.

    One FFT pair: n_points >= 3K + 1 resolves every harmonic of the product
    that could alias onto a retained one; truncating to n_modes drops the rest.
    """
    values = np.fft.irfft(spectrum, grid.n_points, norm="forward")
    values *= values
    return _unpack(grid, np.fft.rfft(values, norm="forward"))


def _slope_squarer(grid: SpectralGrid):
    """coeffs -> _square_spectrum(grid, _pack(grid, coeffs) * grid._ik) as a new array, bit for bit.

    Buffers and views are made once, so a call is only its arithmetic.  The derivative is out of place,
    as inf * 0 would make the packed buffer's permanent zeros NaN.  Only what _unpack reads (Re z_0 and
    n_modes values from Im z_0 on) gets the forward 1/n_points: exact, as norm="forward" is that multiply.
    """
    n_points, n_modes, scale, ik = grid.n_points, grid.n_modes, grid._coeff_scale, grid._ik
    packed, product = np.zeros(2 * grid.max_harmonic + 2), np.empty(n_points // 2 + 1, complex)
    pairs, spectrum, flat = packed[2 : n_modes + 1], packed.view(complex), product.view(float)
    slope, values, inv_n = np.empty_like(spectrum), np.empty(n_points), 1.0 / n_points
    pair_scale, kept, kept_pairs = scale[1:], flat[: n_modes + 1], flat[1 : n_modes + 1]

    def square(coeffs: np.ndarray) -> np.ndarray:
        packed[0] = coeffs[0]
        np.divide(coeffs[1:], pair_scale, out=pairs)
        np.multiply(spectrum, ik, out=slope)
        np.fft.irfft(slope, n_points, norm="forward", out=values)
        np.multiply(values, values, out=values)
        np.fft.rfft(values, out=product)
        np.multiply(kept, inv_n, out=kept)
        out = kept_pairs * scale
        out[0] = flat[0]
        return out

    return square


def dealiased_square(field: SpectralField) -> SpectralField:
    """Spectral coefficients of the pointwise square, exact on all retained modes."""
    grid = field.grid
    return SpectralField(grid, _square_spectrum(grid, _pack(grid, field.coeffs)))


def slope_energy_weights(grid: SpectralGrid) -> np.ndarray:
    """Per-mode weights turning coefficients-squared into mean((f')^2).

    Follows the derivative's Nyquist convention: an unpaired top cosine
    contributes nothing.
    """
    return np.abs(grid._ik[(np.arange(grid.n_modes) + 1) // 2]) ** 2


_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _hasher(const: int, mult: int):
    """SeedSequence's hash of 32-bit words, its constant advancing by ``mult`` per word."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _pcg64_seed(seed: int) -> tuple[int, int]:
    """numpy's SeedSequence(seed).generate_state(4, uint64) as PCG64's (initstate, initseq)."""
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out = _hasher(0x8B51F9DD, 0x58F38DED)
    state = [out(pool[i % 4]) for i in range(8)]
    w = [state[2 * i] | state[2 * i + 1] << 32 for i in range(4)]
    return w[0] << 64 | w[1], w[2] << 64 | w[3]


def _uniforms(seed: int, n: int) -> list[float]:
    """n draws on [-1, 1) of PCG64 (XSL-RR output of a 128-bit LCG, O'Neill 2014) seeded as numpy seeds it."""
    initstate, initseq = _pcg64_seed(seed)
    mult, inc = 0x2360ED051FC65DA44385DF649FCCF645, (initseq << 1 | 1) & _MASK128
    state = ((inc + initstate) * mult + inc) & _MASK128
    out = []
    for _ in range(n):
        state = (state * mult + inc) & _MASK128
        rot, x = state >> 122, (state >> 64 ^ state) & _MASK64
        out.append(-1.0 + 2.0 * ((((x >> rot | x << (64 - rot)) & _MASK64) >> 11) * 2.0**-53))
    return out


def random_zero_mean_field(grid: SpectralGrid, amplitude: float, seed: int) -> SpectralField:
    """Seeded random zero-mean field with coefficients decaying like lam^(-2).

    Rescaled so the L2 (coefficient) norm equals ``|amplitude|``.  The raw
    draws are frontks's own PCG64 stream (_uniforms), which equals numpy
    2.4's ``default_rng(seed).uniform(-1, 1, n_modes)`` bit for bit (a test
    checks it), so a seeded field does not rest on numpy keeping its
    Generator streams stable, which NEP 19 does not promise.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    raw = np.array(_uniforms(operator.index(seed), grid.n_modes))
    coeffs = np.zeros(grid.n_modes)
    lam = grid.eigenvalues
    coeffs[1:] = raw[1:] * (lam[1] / lam[1:]) ** 2.0
    norm = np.sqrt(np.sum(coeffs**2))
    if norm > 0:
        coeffs *= amplitude / norm
    return SpectralField(grid, coeffs)


def cosine_field(grid: SpectralGrid, amplitude: float, harmonic: int = 1) -> SpectralField:
    """amplitude * cos(2 pi j y / L), built directly in coefficients."""
    if not 1 <= harmonic <= grid.max_harmonic:
        raise ValueError(f"harmonic {harmonic} not representable on this grid")
    coeffs = np.zeros(grid.n_modes)
    coeffs[2 * harmonic - 1] = amplitude / _SQRT2
    return SpectralField(grid, coeffs)
