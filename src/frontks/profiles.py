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
the flux-jump condition u_x(0-) = -T1/nu (T1 the driving combination).
nu - 1 is taken as 2 lam/(1 + sqrt(1 + 4 lam)), which keeps its digits at
small lam (a long period).  A mode is named by its eigenvalue alone;
lam = 0 is the mean mode, which has a closed form of its own.
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
    "reconstruct_profile",
    "jump_residuals",
]


@dataclass(frozen=True)
class FrontModeData:
    """One mode's front state: eigenvalue, value phi, derivative phi_t, squared-slope coefficient."""

    lambda_k: float
    alpha: float
    phi: float
    phi_t: float
    phiy_sq: float

    def __post_init__(self):
        if not 0.0 <= self.lambda_k < np.inf:
            raise ValueError(f"lambda_k must be non-negative and finite, got {self.lambda_k}")

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


@dataclass(eq=False)
class ProfileCoefficients:
    """Free constants of the enthalpy profile: c1 (x < 0 tail), c2 (x > 0 tail)."""

    c1: float
    c2: float
    nu: float


@dataclass(eq=False)
class ProfileSlice:
    """Profiles sampled at the caller's x_points, the one-sided limits at the
    front and, for lam > 0, the free constants (None for the mean mode)."""

    u_values: np.ndarray
    v_values: np.ndarray
    u_x_left: float
    v_left: float
    v_right: float
    v_x_left: float
    v_x_right: float
    coefficients: ProfileCoefficients | None


def reconstruct_profile(data: FrontModeData, x_points: np.ndarray) -> ProfileSlice:
    """Evaluate the mode's profiles on x_points and extract the front limits.

    x should stay within about [-30, 30]; beyond that the exponentials
    underflow harmlessly to zero.
    """
    x = np.asarray(x_points, dtype=float)
    lam, alpha = data.lambda_k, data.alpha
    p, w, t1 = data.phi, data.forcing, data.driving
    neg = x < 0
    xm = np.where(neg, x, 0.0)
    ex = np.exp(xm)
    if lam == 0.0:
        # the mean mode: u = -W x e^x and v = -alpha W x(x+1) e^x on x <= 0
        u = np.where(neg, -w * x * ex, 0.0)
        v = np.where(neg, -alpha * w * x * (x + 1.0) * ex, 0.0)
        return ProfileSlice(
            u_values=u,
            v_values=v,
            u_x_left=-w,
            v_left=0.0,
            v_right=0.0,
            v_x_left=-alpha * w,
            v_x_right=0.0,
            coefficients=None,
        )
    root = np.sqrt(1.0 + 4.0 * lam)
    nu = 0.5 * (1.0 + root)
    nu_m1 = 2.0 * lam / (1.0 + root)  # nu - 1, factored so small lam keeps its digits
    om = 1.0 - 2.0 * nu  # = -root, never zero
    # the free constants, linear in the front data, reduced by nu^2 = nu + lam: no O(1/lam) terms cancel
    c1 = float(alpha / root**2 * (nu * (1.0 - 2.0 * root) * p + (1.0 - 3.0 * root) * w / nu_m1))
    c2 = float(alpha * nu_m1 / root**2 * (2.0 * w / nu - p))

    enu = np.exp(nu * xm)
    # u = (T1/lam)(e^x - e^(nu x)); difference via expm1 to keep x ~ 0 accurate
    u = np.where(neg, -(t1 / lam) * ex * np.expm1(nu_m1 * xm), 0.0)
    v_neg = (
        c1 * enu
        + (alpha / lam) * w * (xm + 2.0) * ex
        + alpha * p * (xm + 1.0) * ex
        + (alpha / lam) * (nu / om) * t1 * xm * enu
    )
    xp = np.where(neg, 0.0, x)
    v = np.where(neg, v_neg, c2 * np.exp(-nu_m1 * xp))
    u_x_left = -(t1 / lam) * nu_m1
    v_left = c1 + 2.0 * alpha * w / lam + alpha * p
    v_x_left = nu * c1 + 3.0 * alpha * w / lam + 2.0 * alpha * p + (alpha / lam) * (nu / om) * t1
    return ProfileSlice(
        u_values=u,
        v_values=v,
        u_x_left=float(u_x_left),
        v_left=float(v_left),
        v_right=c2,
        v_x_left=float(v_x_left),
        v_x_right=float(-nu_m1 * c2),
        coefficients=ProfileCoefficients(c1=c1, c2=c2, nu=float(nu)),
    )


@dataclass(eq=False)
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
