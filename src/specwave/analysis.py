"""Rate regression and the explicit weak-error bound."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "RateFit",
    "fit_rate",
    "BoundParams",
    "theoretical_weak_bound",
    "ExponentPair",
    "predicted_exponent",
]


class RateFit(NamedTuple):
    slope: float
    intercept: float
    r_squared: float


def fit_rate(points: Sequence[tuple[float, float]]) -> RateFit:
    """Ordinary least squares of log(error) against log(level).

    The slope is the empirical negative rate.  All points enter the fit;
    there is no outlier rejection.
    """
    if len(points) < 3:
        raise ValueError(f"need at least 3 points, got {len(points)}")
    n = np.asarray([p[0] for p in points], dtype=np.float64)
    e = np.asarray([p[1] for p in points], dtype=np.float64)
    if len(set(n.tolist())) != len(points):
        raise ValueError("levels must be distinct")
    if np.any(e <= 0):
        raise ValueError("errors must be positive to fit a rate")
    x = np.log(n)
    y = np.log(e)
    xm = x - x.mean()
    ym = y - y.mean()
    sxx = float(xm @ xm)
    slope = float(xm @ ym) / sxx
    intercept = float(y.mean() - slope * x.mean())
    ss_res = float(np.sum((y - (intercept + slope * x)) ** 2))
    ss_tot = float(ym @ ym)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(slope, intercept, r_squared)


@dataclass(frozen=True)
class BoundParams:
    """Inputs of the explicit weak-error bound.

    Norm fields are user-declared operator/Lipschitz norms of the drift and
    diffusion on the smoothness scales involved; ``lambda_pow_hs`` is the
    Hilbert-Schmidt norm of the pair-space operator power ``-beta`` and
    ``lambda_cut`` the magnitude of the first eigenvalue left out of the
    Galerkin subspace.
    """

    t_final: float
    phi_c2b: float            # functional norm: value + first + second derivative sups
    xi_l2_rho: float          # initial state, mean-square at smoothness rho
    xi_l1_smooth: float       # initial state, mean at smoothness 2(gamma - beta)
    f_lip_smooth: float       # drift into the 2(gamma - beta) scale
    f_lip_rho: float          # drift within the rho scale
    f_lip0: float             # drift seminorm at smoothness zero
    b_lip_gamma_op: float     # diffusion into the gamma scale, operator norm
    b_lip_rho_hs: float       # diffusion within the rho scale, Hilbert-Schmidt
    b_lip0_hs: float          # diffusion seminorm at smoothness zero, Hilbert-Schmidt
    f_second: float           # uniform second-derivative constant of the drift
    b_second: float           # uniform second-derivative constant of the diffusion
    lambda_pow_hs: float
    lambda_cut: float
    gamma: float
    beta: float


_NORM_FIELDS = (
    "phi_c2b", "xi_l2_rho", "xi_l1_smooth", "f_lip_smooth", "f_lip_rho",
    "f_lip0", "b_lip_gamma_op", "b_lip_rho_hs", "b_lip0_hs", "f_second",
    "b_second", "lambda_pow_hs",
)


def theoretical_weak_bound(params: BoundParams) -> float:
    """Evaluate the explicit weak-error bound as plain arithmetic.

    Product of: the functional norm, 1 v T, 1 v (mean-square of the initial
    state), an additive factor mixing the smooth drift norm and the
    Hilbert-Schmidt-weighted squared diffusion norm, a curvature factor
    1 v sqrt(T (C_F^2 + 2 C_B^2)), two exponential Gronwall factors, and the
    spectral-gap power lambda_cut^(beta - gamma).  Raises ValueError when a
    hypothesis fails or the value is not a finite float.
    """
    p = params
    expo = predicted_exponent(p.gamma, p.beta)
    if not p.lambda_cut > 0:
        raise ValueError(
            f"hypothesis violated: lambda_cut > 0 required, got {p.lambda_cut}"
        )
    if not p.t_final > 0:
        raise ValueError(f"hypothesis violated: t_final > 0 required, got {p.t_final}")
    for name in _NORM_FIELDS:
        if getattr(p, name) < 0:
            raise ValueError(f"hypothesis violated: {name} must be nonnegative")
    t = p.t_final
    # ** and exp raise past float range; a product reaches inf or nan quietly
    try:
        additive = (p.xi_l1_smooth + p.f_lip_smooth
                    + p.lambda_pow_hs**2 * p.b_lip_gamma_op**2)
        curvature = max(1.0, math.sqrt(t * (p.f_second**2 + 2.0 * p.b_second**2)))
        grow0 = math.exp(t * (0.5 + 3.0 * p.f_lip0 + 4.0 * p.b_lip0_hs**2))
        grow_rho = math.exp(t * (2.0 * p.f_lip_rho + p.b_lip_rho_hs**2))
        value = (p.phi_c2b * max(1.0, t) * max(1.0, p.xi_l2_rho**2)
                 * additive * curvature * grow0 * grow_rho
                 * p.lambda_cut ** expo.lambda_exponent)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError("the bound is not a finite float: a Gronwall factor (t_final, "
                         "f_lip0, b_lip0_hs, f_lip_rho, b_lip_rho_hs) or the product "
                         "of all factors overflows")
    return value


class ExponentPair(NamedTuple):
    lambda_exponent: float  # decay power in the spectral cut
    n_exponent: float       # translation to the level count, eigenvalues ~ n^2


def predicted_exponent(gamma: float, beta: float) -> ExponentPair:
    """Decay exponents implied by the rate hypotheses (beta - gamma in the cut)."""
    if not gamma > 0:
        raise ValueError(f"hypothesis violated: gamma > 0 required, got {gamma}")
    if not (gamma / 2 < beta <= gamma):
        raise ValueError(
            f"hypothesis violated: beta must lie in (gamma/2, gamma], got beta={beta}"
        )
    lam = beta - gamma
    return ExponentPair(lam, 2.0 * lam)
