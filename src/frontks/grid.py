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
which makes the product alias-free on all retained modes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralGrid",
    "SpectralField",
    "make_grid",
    "collocation_points",
    "transform",
    "inverse_transform",
    "differentiate",
    "dealiased_square",
    "sobolev_norm",
    "l2_norm",
    "mean_value",
    "mean_projection",
    "antiderivative",
    "slope_energy_weights",
    "random_zero_mean_field",
    "cosine_field",
]

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class SpectralGrid:
    """Periodic interval of length ``period`` truncated to ``n_modes`` basis modes."""

    period: float
    n_modes: int
    n_points: int
    eigenvalues: np.ndarray
    # spectral layout, built once per grid: see _pack
    _coeff_scale: np.ndarray = dataclasses.field(init=False, repr=False)
    _ik: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        # coefficient k >= 1 is sqrt(2) (-1)^j times Re z_j (cos, k odd) or
        # -Im z_j (sin, k even), j = (k+1)//2: a sign pattern of period 4 in k
        scale = np.tile([-_SQRT2, _SQRT2, _SQRT2, -_SQRT2], self.n_modes // 4 + 1)
        object.__setattr__(self, "_coeff_scale", scale[: self.n_modes - 1])
        # derivative multiplier i q_j; an even truncation leaves the top cosine
        # without its sin partner, its derivative leaves the space, so it is
        # annihilated (usual Nyquist convention)
        ik = 1j * (2.0 * np.pi * np.arange(self.max_harmonic + 1) / self.period)
        if self.n_modes % 2 == 0:
            ik[-1] = 0.0
        object.__setattr__(self, "_ik", ik)

    @property
    def max_harmonic(self) -> int:
        """Largest trigonometric harmonic index represented (j of cos/sin(2 pi j y/L))."""
        return self.n_modes // 2

    def __eq__(self, other):
        if not isinstance(other, SpectralGrid):
            return NotImplemented
        return (
            self.period == other.period
            and self.n_modes == other.n_modes
            and self.n_points == other.n_points
        )

    def __hash__(self):
        return hash((self.period, self.n_modes, self.n_points))


@dataclass(frozen=True)
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
    if not period > 0:
        raise ValueError(f"period must be positive, got {period}")
    if n_modes < 3:
        raise ValueError(f"n_modes must be at least 3, got {n_modes}")
    # smallest even count above 3N/2; it is >= 3K + 1 for top harmonic K, the
    # 3/2 rule that keeps truncated quadratics alias-free
    n_points = 2 * (3 * n_modes // 4 + 1)
    k = np.arange(n_modes)
    j = (k + 1) // 2
    lam = (2.0 * np.pi * j / period) ** 2
    lam[0] = 0.0
    return SpectralGrid(float(period), int(n_modes), int(n_points), lam)


def collocation_points(grid: SpectralGrid, n_points: int | None = None) -> np.ndarray:
    """Uniform sample points y_i = -L/2 + i L/n, i = 0..n-1."""
    n = grid.n_points if n_points is None else n_points
    return -0.5 * grid.period + grid.period * np.arange(n) / n


def _pack(grid: SpectralGrid, coeffs: np.ndarray) -> np.ndarray:
    """Real-basis coefficients -> half-complex spectrum z_0..z_K (rfft layout).

    The values at n collocation points are irfft(z, n, norm="forward").  As a
    float array, z interleaves (Re z_j, Im z_j), which lines up with the
    (cos_j, sin_j) coefficient pairs; grid._coeff_scale carries the sqrt(2), the
    sign of each sin and the phase (-1)^j from points starting at -L/2.  An
    even truncation leaves the top cosine unpaired, so Im z_K stays zero.
    """
    buf = np.zeros(2 * grid.max_harmonic + 2)
    buf[0] = coeffs[0]
    buf[2 : grid.n_modes + 1] = coeffs[1:] / grid._coeff_scale
    return buf.view(complex)


def _unpack(grid: SpectralGrid, spectrum: np.ndarray) -> np.ndarray:
    """Inverse of _pack: harmonics above K and the unpaired top sin are dropped."""
    flat = spectrum.view(float)
    coeffs = np.empty(grid.n_modes)
    coeffs[0] = flat[0]
    coeffs[1:] = flat[2 : grid.n_modes + 1] * grid._coeff_scale
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


def differentiate(field: SpectralField, order: int = 1) -> SpectralField:
    """Exact spectral derivative of the given order (mean mode of the result is 0)."""
    if order < 1:
        raise ValueError(f"order must be a positive integer, got {order}")
    grid = field.grid
    return SpectralField(grid, _unpack(grid, _pack(grid, field.coeffs) * grid._ik**order))


def _square_spectrum(grid: SpectralGrid, spectrum: np.ndarray) -> np.ndarray:
    """Real-basis coefficients of the square of the function with this _pack spectrum.

    One FFT pair: n_points >= 3K + 1 resolves every harmonic of the product
    that could alias onto a retained one; truncating back to n_modes drops
    the rest.
    """
    values = np.fft.irfft(spectrum, grid.n_points, norm="forward")
    return _unpack(grid, np.fft.rfft(values * values, norm="forward"))


def dealiased_square(field: SpectralField) -> SpectralField:
    """Spectral coefficients of the pointwise square, exact on all retained modes."""
    grid = field.grid
    return SpectralField(grid, _square_spectrum(grid, _pack(grid, field.coeffs)))


def sobolev_norm(field: SpectralField, s: float) -> float:
    """Coefficient norm (sum_k lam_k^s a_k^2)^(1/2); s = 0 is the L2 norm.

    For s > 0 the mean mode contributes nothing (lam_0 = 0), so this is a
    seminorm; the mean is exposed separately via mean_value.
    """
    if s < 0:
        raise ValueError("negative orders are out of scope")
    if s == 0:
        return float(np.sqrt(np.sum(field.coeffs**2)))
    w = field.grid.eigenvalues**s
    return float(np.sqrt(np.sum(w * field.coeffs**2)))


def l2_norm(field: SpectralField) -> float:
    return sobolev_norm(field, 0.0)


def mean_value(field: SpectralField) -> float:
    """Mean of the represented function over one period."""
    return float(field.coeffs[0])


def mean_projection(field: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Split into (mean part, zero-mean part); the two add back to the field exactly."""
    mean = np.zeros_like(field.coeffs)
    mean[0] = field.coeffs[0]
    fluct = field.coeffs.copy()
    fluct[0] = 0.0
    return SpectralField(field.grid, mean), SpectralField(field.grid, fluct)


def antiderivative(field: SpectralField) -> SpectralField:
    """Zero-mean periodic antiderivative; the input mean is discarded first.

    Differentiating the result recovers the zero-mean part of the input.
    """
    grid = field.grid
    z = _pack(grid, field.coeffs)
    # the mean and an unpaired top cosine have ik = 0: same Nyquist convention
    z = np.divide(z, grid._ik, out=np.zeros_like(z), where=grid._ik != 0)
    return SpectralField(grid, _unpack(grid, z))


def slope_energy_weights(grid: SpectralGrid) -> np.ndarray:
    """Per-mode weights turning coefficients-squared into mean((f')^2).

    Follows the derivative's Nyquist convention: an unpaired top cosine
    contributes nothing.
    """
    lam = grid.eigenvalues.copy()
    if grid.n_modes % 2 == 0:
        lam[-1] = 0.0
    return lam


def random_zero_mean_field(grid: SpectralGrid, amplitude: float, seed: int) -> SpectralField:
    """Seeded random zero-mean field with coefficients decaying like lam^(-2).

    Rescaled so the L2 (coefficient) norm equals ``amplitude``.
    """
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, 1.0, grid.n_modes)
    coeffs = np.zeros(grid.n_modes)
    lam = grid.eigenvalues
    coeffs[1:] = raw[1:] * (lam[1] / lam[1:]) ** 2.0
    norm = np.sqrt(np.sum(coeffs**2))
    if norm > 0:
        coeffs *= amplitude / norm
    return SpectralField(grid, coeffs)


def cosine_field(
    grid: SpectralGrid, amplitude: float, harmonic: int = 1, phase: float = 0.0
) -> SpectralField:
    """amplitude * cos(2 pi j y / L + phase), built directly in coefficients."""
    if not 1 <= harmonic <= grid.max_harmonic:
        raise ValueError(f"harmonic {harmonic} not representable on this grid")
    coeffs = np.zeros(grid.n_modes)
    coeffs[2 * harmonic - 1] = amplitude * np.cos(phase) / _SQRT2
    if 2 * harmonic <= grid.n_modes - 1:
        coeffs[2 * harmonic] = -amplitude * np.sin(phase) / _SQRT2
    elif phase != 0.0:
        raise ValueError("sin partner of the top harmonic is truncated on this grid")
    return SpectralField(grid, coeffs)
