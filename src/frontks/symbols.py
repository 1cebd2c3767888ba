"""Fourier multipliers of the operators in the front evolution equation.

Every operator in play is diagonal in the eigenbasis, so it is fully
described by one real number per mode.  With lam the mode eigenvalue and
x = sqrt(1 + 4 lam) this module evaluates, for the unrescaled equation,

    mass       b = x^2 + a x - a          (multiplies d/dt in the 4th-order form)
    stiffness  s = -4 lam^2 + (a - 1) lam (the linear differential part)
    quad       f = (x^3 - 3 x^2 - 4 a x + 4 a)/4   (filters the squared slope)
    growth     l = s / b,   gain g = f / b          (divided, 2nd-order form)

and, for the slow-scale equation with a = 1 + eps on a period-L0 grid,

    b_eps = eps h_eps + 1,   f_eps = eps m_eps - 1/2,   s = -lam (4 lam - 1),

where h_eps and m_eps stay O(lam) uniformly in eps.  h and m are computed
from factored differences (x - 1 = 4 eps lam / (x + 1)); the raw printed
expressions lose all precision below eps ~ 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import SpectralGrid, eigenvalue

__all__ = [
    "SymbolTable",
    "RescaledSymbolTable",
    "SymbolBoundsReport",
    "build_symbols",
    "build_rescaled_symbols",
    "alpha_critical",
    "verify_symbol_bounds",
]


@dataclass(eq=False)
class SymbolTable:
    """Per-mode multipliers of the unrescaled front equation at parameter alpha."""

    alpha: float
    grid: SpectralGrid
    sqrt_factor: np.ndarray    # x = sqrt(1 + 4 lam)
    mass: np.ndarray           # b
    stiffness: np.ndarray      # s
    quad_filter: np.ndarray    # f
    growth_rate: np.ndarray    # l = s/b
    quad_gain: np.ndarray      # g = f/b


@dataclass(eq=False)
class RescaledSymbolTable:
    """Per-mode multipliers of the slow-scale equation at parameter eps in (0, 1]."""

    epsilon: float
    grid: SpectralGrid
    sqrt_factor: np.ndarray     # x = sqrt(1 + 4 eps lam)
    sqrt_shift: np.ndarray      # r = x - 1 >= 0, weight of the energy functional
    mass: np.ndarray            # b_eps = eps h + 1
    stiffness: np.ndarray       # s = -lam (4 lam - 1)
    quad_filter: np.ndarray     # f_eps = eps m - 1/2
    mass_correction: np.ndarray  # h = (b - 1)/eps, |h| <= (6 + 2 eps) lam
    quad_correction: np.ndarray  # m = (f + 1/2)/eps, |m| <= 2 sqrt(eps) lam^(3/2) + 25 lam


def _unrescaled_arrays(alpha: float, lam):
    """(x, b, s, f, l, g) at eigenvalue lam, a float or an array."""
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    x = np.sqrt(1.0 + 4.0 * lam)
    # b = x^2 + a x - a written so the lam = 0 mode gives exactly 1
    b = x * x + alpha * (x - 1.0)
    s = lam * ((alpha - 1.0) - 4.0 * lam)
    # f = (x^3 - 3x^2 - 4ax + 4a)/4; grouped so x = 1 gives exactly -1/2
    f = 0.25 * (x * x * (x - 3.0) - 4.0 * alpha * (x - 1.0))
    return x, b, s, f, s / b, f / b


def build_symbols(alpha: float, grid: SpectralGrid) -> SymbolTable:
    """Evaluate all unrescaled multipliers on the grid's eigenvalues."""
    x, b, s, f, l, g = _unrescaled_arrays(alpha, grid.eigenvalues)
    return SymbolTable(float(alpha), grid, x, b, s, f, l, g)


def alpha_critical(ell: float) -> float:
    """Instability threshold in alpha for period ell: the stiffness of mode 1 vanishes at 1 + 4 lam_1."""
    return 1.0 + 4.0 * eigenvalue(ell, 1)


def build_rescaled_symbols(epsilon: float, grid: SpectralGrid) -> RescaledSymbolTable:
    """Evaluate the slow-scale multipliers on a period-L0 grid, eps in (0, 1]."""
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    lam = grid.eigenvalues
    x = np.sqrt(1.0 + 4.0 * epsilon * lam)
    delta = 4.0 * epsilon * lam / (x + 1.0)  # = x - 1, exact as eps -> 0
    h = 4.0 * lam + 4.0 * (1.0 + epsilon) * lam / (x + 1.0)
    m = (delta * delta - 7.0 - 4.0 * epsilon) * lam / (x + 1.0)
    b = epsilon * h + 1.0
    f = epsilon * m - 0.5
    s = -lam * (4.0 * lam - 1.0)
    return RescaledSymbolTable(float(epsilon), grid, x, delta, b, s, f, h, m)


@dataclass(eq=False)
class SymbolBoundsReport:
    """Observed constants of the slow-scale multipliers vs their analytic bounds.

    Violations are reported through the ok flags, never raised.
    """

    epsilon: float
    max_mass_correction_ratio: float    # max |h|/lam, bound 6 + 2 eps, from the slack
    max_quad_correction_ratio: float    # max |m|/(2 sqrt(eps) lam^(3/2) + 25 lam), bound 1, from the slack
    min_mass_slack: float               # min over lam > 0 of (b - 1 - 4 eps lam) = (1 + eps) r, bound >= 0
    min_sqrt_shift: float               # min over lam > 0 of r, bound >= 0
    mass_correction_ok: bool
    quad_correction_ok: bool
    mass_slack_ok: bool
    sqrt_shift_ok: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.mass_correction_ok
            and self.quad_correction_ok
            and self.mass_slack_ok
            and self.sqrt_shift_ok
        )


def verify_symbol_bounds(table: RescaledSymbolTable) -> SymbolBoundsReport:
    """Check each uniform-in-eps bound as a per-mode slack >= 0, and derive its constant from it."""
    eps = table.epsilon
    pos = table.grid.eigenvalues > 0
    # every slack is formed from r and x + 1, reduced by x^2 = 1 + 4 eps lam, so none cancels near its bound
    r, xp1 = table.sqrt_shift[pos], table.sqrt_factor[pos] + 1.0
    # h/lam = 4 + 4 (1 + eps)/(x + 1) >= 0, below 6 + 2 eps by 2 (1 + eps) r/(x + 1)
    h_slack = 2.0 * (1.0 + eps) * r / xp1
    # over lam/(x + 1), m is q = r^2 - 7 - 4 eps and its envelope is (x + 1)(ab + 25), with
    # a = sqrt(r), b = sqrt(x + 1), ab = 2 sqrt(eps lam).  For q >= 0 the slack's leading
    # part (x + 1) ab - r^2 = a (b^3 - a^3) is 2a (a^2 + ab + b^2)/(a + b)
    a, b = np.sqrt(r), np.sqrt(xp1)
    q = r * r - 7.0 - 4.0 * eps
    m_slack = np.where(
        q >= 0.0,
        2.0 * a * (r + a * b + xp1) / (a + b) + 25.0 * xp1 + 7.0 + 4.0 * eps,
        xp1 * (a * b + 25.0) + q,
    )
    # over lam > 0: the mean mode's r is 0 in every table, so a minimum over it would read 0.0
    rmin = float(np.min(r))
    mass_slack = (1.0 + eps) * rmin  # = min (1 + eps) r, as rounding is monotone
    return SymbolBoundsReport(
        epsilon=eps,
        max_mass_correction_ratio=6.0 + 2.0 * eps - float(np.min(h_slack)),
        max_quad_correction_ratio=float(np.max(np.abs(q) / (np.abs(q) + m_slack))),
        min_mass_slack=mass_slack,
        min_sqrt_shift=rmin,
        mass_correction_ok=bool(np.all(h_slack >= 0.0)),
        quad_correction_ok=bool(np.all(m_slack >= 0.0)),
        mass_slack_ok=mass_slack >= 0.0,
        sqrt_shift_ok=rmin >= 0.0,
    )
