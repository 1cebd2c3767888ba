"""Closed-form temperature/enthalpy profiles behind one Fourier mode of the front.

Given per-mode front data (value, time derivative and squared-slope
coefficient), the quasi-steady bulk problems reduce to constant-coefficient
ODEs in the depth variable x with exponential right-hand sides; both
profiles are reconstructed exactly, and the free-boundary matching
conditions at x = 0 are then re-evaluated from the reconstruction.  The
first condition, value_jump = half the squared slope, is equivalent to the
front evolution law for that mode, so the residual of this audit measures
how faithfully the whole derivation chain hangs together numerically.

Growth conventions for the decaying tails: with nu = (1 + sqrt(1+4 lam))/2
the admissible homogeneous solutions are exp(nu x) on x < 0 and
exp((1 - nu) x) on x > 0.  The temperature slope at the front is pinned by
the flux-jump condition u_x(0-) = -T1/nu (T1 the driving combination); the
reconstruction recomputes it from the profile and flags any mismatch
rather than silently picking a sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symbols import _unrescaled_arrays

__all__ = [
    "FrontModeData",
    "ProfileCoefficients",
    "ProfileSlice",
    "JumpResiduals",
    "front_time_derivative",
    "reconstruct_mode0",
    "profile_coefficients",
    "reconstruct_mode",
    "jump_residuals",
]


@dataclass(frozen=True)
class FrontModeData:
    """One mode's front state: value phi, derivative phi_t, squared-slope coefficient."""

    k: int
    lambda_k: float
    alpha: float
    phi: float
    phi_t: float
    phiy_sq: float

    def __post_init__(self):
        if self.k == 0 and self.lambda_k != 0.0:
            raise ValueError("mode 0 must carry eigenvalue 0")
        if self.k >= 1 and not self.lambda_k > 0:
            raise ValueError("modes k >= 1 must carry a positive eigenvalue")

    @property
    def forcing(self) -> float:
        """W = phi_t + phiy_sq, the driving term of the mean-free bulk problems."""
        return self.phi_t + self.phiy_sq

    @property
    def driving(self) -> float:
        """T1 = phi_t + phiy_sq + lam phi, the combination forcing both profiles."""
        return self.phi_t + self.phiy_sq + self.lambda_k * self.phi


def front_time_derivative(alpha: float, lam: float, phi: float, phiy_sq: float) -> float:
    """phi_t selected by the front evolution law: growth*phi + gain*phiy_sq."""
    _, _, _, _, growth, gain = _unrescaled_arrays(alpha, float(lam))
    return growth * phi + gain * phiy_sq


@dataclass(frozen=True)
class ProfileCoefficients:
    """Free constants of the enthalpy profile: c1 (x < 0 tail), c2 (x > 0 tail)."""

    c1: float
    c2: float
    nu: float


@dataclass(frozen=True)
class ProfileSlice:
    """Profiles sampled on x_points plus the one-sided limits at the front."""

    x_points: np.ndarray
    u_values: np.ndarray
    v_values: np.ndarray
    u_x_left: float
    v_left: float
    v_right: float
    v_x_left: float
    v_x_right: float


def reconstruct_mode0(data: FrontModeData, x_points: np.ndarray) -> ProfileSlice:
    """Mean-mode profiles: u = -W x e^x and v = -alpha W x(x+1) e^x on x <= 0."""
    if data.k != 0:
        raise ValueError(f"mean-mode reconstruction called with k={data.k}")
    x = np.asarray(x_points, dtype=float)
    w = data.forcing
    neg = x < 0
    ex = np.exp(np.where(neg, x, 0.0))
    u = np.where(neg, -w * x * ex, 0.0)
    v = np.where(neg, -data.alpha * w * x * (x + 1.0) * ex, 0.0)
    return ProfileSlice(
        x_points=x,
        u_values=u,
        v_values=v,
        u_x_left=-w,
        v_left=0.0,
        v_right=0.0,
        v_x_left=-data.alpha * w,
        v_x_right=0.0,
    )


def profile_coefficients(data: FrontModeData) -> ProfileCoefficients:
    """Free constants for k >= 1, linear in the front data (and in alpha)."""
    if data.k == 0:
        raise ValueError("mode 0 has its own closed form; use reconstruct_mode0")
    lam, alpha = data.lambda_k, data.alpha
    nu = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * lam))
    om = 1.0 - 2.0 * nu  # = -sqrt(1 + 4 lam), never zero for k >= 1
    p, w = data.phi, data.forcing
    c1 = (alpha / om) * (1.0 + nu + nu / om + lam / nu) * p + (alpha / om) * (
        1.0 / lam + 2.0 * nu / lam + 1.0 / nu + nu / (om * lam)
    ) * w
    c2 = (alpha / om) * (2.0 + nu / om + lam / nu - nu) * p - (alpha / om) * (
        2.0 * nu / lam - 3.0 / lam - nu / (om * lam) - 1.0 / nu
    ) * w
    return ProfileCoefficients(c1=float(c1), c2=float(c2), nu=float(nu))


def reconstruct_mode(
    data: FrontModeData, coeffs: ProfileCoefficients, x_points: np.ndarray
) -> ProfileSlice:
    """Evaluate the k >= 1 profiles on x_points and extract the front limits.

    x should stay within about [-30, 30]; beyond that the exponentials
    underflow harmlessly to zero.
    """
    if data.k == 0:
        raise ValueError("use reconstruct_mode0 for the mean mode")
    x = np.asarray(x_points, dtype=float)
    lam, alpha = data.lambda_k, data.alpha
    nu, c1, c2 = coeffs.nu, coeffs.c1, coeffs.c2
    p, w, t1 = data.phi, data.forcing, data.driving
    om = 1.0 - 2.0 * nu

    neg = x < 0
    xm = np.where(neg, x, 0.0)
    ex = np.exp(xm)
    enu = np.exp(nu * xm)
    # u = (T1/lam)(e^x - e^(nu x)); difference via expm1 to keep x ~ 0 accurate
    u = np.where(neg, -(t1 / lam) * ex * np.expm1((nu - 1.0) * xm), 0.0)
    v_neg = (
        c1 * enu
        + (alpha / lam) * w * (xm + 2.0) * ex
        + alpha * p * (xm + 1.0) * ex
        + (alpha / lam) * (nu / om) * t1 * xm * enu
    )
    xp = np.where(neg, 0.0, x)
    v_pos = c2 * np.exp((1.0 - nu) * xp)
    v = np.where(neg, v_neg, v_pos)

    u_x_left = (t1 / lam) * (1.0 - nu)
    # the flux jump pins u_x(0-) = -T1/nu; flag disagreement instead of choosing
    pinned = -t1 / nu
    scale = max(1.0, abs(pinned))
    if abs(u_x_left - pinned) > 1e-9 * scale:
        raise ArithmeticError(
            f"front slope from the profile ({u_x_left:.17g}) disagrees with the "
            f"flux-jump value ({pinned:.17g})"
        )
    v_left = c1 + 2.0 * alpha * w / lam + alpha * p
    v_x_left = nu * c1 + 3.0 * alpha * w / lam + 2.0 * alpha * p + (alpha / lam) * (nu / om) * t1
    return ProfileSlice(
        x_points=x,
        u_values=u,
        v_values=v,
        u_x_left=float(u_x_left),
        v_left=float(v_left),
        v_right=float(c2),
        v_x_left=float(v_x_left),
        v_x_right=float((1.0 - nu) * c2),
    )


@dataclass(frozen=True)
class JumpResiduals:
    """How well the reconstructed profiles honour the front conditions at x = 0."""

    boundary_residual: float   # |v(0) - u_x(0-) - phiy_sq/2|; 0 iff the mode obeys the front law
    flux_residual: float       # |[v_x] + alpha u_x(0-)|
    v_continuity: float        # |v(0+) - v(0-)|


def jump_residuals(profile: ProfileSlice, data: FrontModeData) -> JumpResiduals:
    boundary = profile.v_right - profile.u_x_left - 0.5 * data.phiy_sq
    flux = (profile.v_x_right - profile.v_x_left) + data.alpha * profile.u_x_left
    return JumpResiduals(
        boundary_residual=abs(float(boundary)),
        flux_residual=abs(float(flux)),
        v_continuity=abs(float(profile.v_right - profile.v_left)),
    )
