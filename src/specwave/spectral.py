"""Sine eigenbasis on (0,1): coefficient fields, norms, projections, grids.

The linear operator is the Dirichlet Laplacian on the unit interval scaled
by a diffusivity ``theta > 0``.  Its eigenfunctions are

    e_n(x) = sqrt(2) sin(n pi x),      n = 1, 2, ...

with eigenvalues ``-theta pi^2 n^2`` (modes are 1-based throughout).  A
scalar field is stored as the vector of its eigenbasis coefficients
``a_n = <e_n, v>``.  A pair state carries a position and a velocity field;
the velocity is kept as plain L2 coefficients, with the smoothness weights
applied only inside norms, so the wave-group rotation stays unweighted.

Smoothness scales: ``norm_hr(a, r)`` is the graph norm of the r-th power of
the (negated) operator, ``sqrt(sum |lam_n|^(2r) a_n^2)``, and the pair-space
norm at smoothness ``r`` weights position by ``|lam|^r`` and velocity by
``|lam|^(r-1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft

__all__ = [
    "SQRT2",
    "SpectralModel",
    "PairState",
    "GridWorkspace",
    "build_model",
    "eval_field",
    "analyze_field",
    "norm_hr",
    "norm_bold_hr",
    "project",
    "hs_norm_lambda_pow",
]

SQRT2 = math.sqrt(2.0)

# chunk length for long eigenvalue sums; keeps peak memory below ~100 MB
_SUM_CHUNK = 10_000_000
# refuse direct summation beyond this many terms (beta too close to 1/2)
_SUM_LIMIT = 500_000_000


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SpectralModel:
    """Diagonalized operator data: diffusivity, eigenvalues, frequencies."""

    theta: float
    n_modes: int
    lam: np.ndarray  # lam[n-1] = -theta pi^2 n^2, strictly decreasing
    mu: np.ndarray   # mu[n-1] = sqrt(-lam[n-1]), strictly increasing

    def abs_lam(self, n: int | None = None) -> np.ndarray:
        n = self.n_modes if n is None else n
        return -self.lam[:n]


def build_model(theta: float, n_modes: int) -> SpectralModel:
    """Build the diagonal model for ``theta`` times the Dirichlet Laplacian."""
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")
    n_modes = int(n_modes)
    if n_modes < 1:
        raise ValueError(f"n_modes must be at least 1, got {n_modes}")
    n = np.arange(1, n_modes + 1, dtype=np.float64)
    lam = -theta * np.pi**2 * n**2
    return SpectralModel(float(theta), n_modes, _readonly(lam), _readonly(np.sqrt(-lam)))


def _as_coeffs(values, name: str = "coeffs") -> np.ndarray:
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class PairState:
    """Galerkin state (position, velocity), both as eigenbasis coefficients."""

    pos: np.ndarray
    vel: np.ndarray

    def __post_init__(self):
        pos = _as_coeffs(self.pos, "pos")
        vel = _as_coeffs(self.vel, "vel")
        if pos.shape != vel.shape:
            raise ValueError("pos and vel must have equal length")
        object.__setattr__(self, "pos", _readonly(pos))
        object.__setattr__(self, "vel", _readonly(vel))

    @property
    def n_modes(self) -> int:
        return self.pos.shape[0]


def eval_field(coeffs, points) -> np.ndarray:
    """Evaluate sum_n a_n e_n at points of the open interval (0,1)."""
    a = _as_coeffs(coeffs)
    x = np.asarray(points, dtype=np.float64)
    if x.size and (x.min() <= 0.0 or x.max() >= 1.0):
        raise ValueError("points must lie strictly inside (0,1)")
    n = np.arange(1, a.shape[0] + 1, dtype=np.float64)
    return (SQRT2 * np.sin(np.pi * np.outer(x, n))) @ a


def analyze_field(values, n_modes: int, grid: "GridWorkspace") -> np.ndarray:
    """First ``n_modes`` discrete sine coefficients of samples on grid nodes.

    Exact inverse of evaluating a trigonometric polynomial of degree at most
    ``grid.n_points`` on the nodes; a trapezoidal quadrature otherwise.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.shape[-1] != grid.n_points:
        raise ValueError(
            f"values have length {v.shape[-1]}, expected {grid.n_points} grid samples"
        )
    if not 0 <= n_modes <= grid.n_points:
        raise ValueError("n_modes must lie in [0, grid.n_points]")
    return grid.analyze(v, n_modes)


def norm_hr(coeffs, r: float, model: SpectralModel) -> float:
    """Interpolation-space norm sqrt(sum |lam_n|^(2r) a_n^2)."""
    a = _as_coeffs(coeffs)
    w = model.abs_lam(a.shape[0]) ** (2.0 * r)
    with np.errstate(over="ignore"):  # near blow-up the norm is legitimately inf
        return float(np.sqrt(np.sum(w * a * a)))


def norm_bold_hr(state: PairState, r: float, model: SpectralModel) -> float:
    """Pair-space norm: position weighted by |lam|^r, velocity by |lam|^(r-1)."""
    al = model.abs_lam(state.n_modes)
    with np.errstate(over="ignore"):
        return _weighted_norm(state, al**r, al ** (r - 1.0))


def _weighted_norm(state: PairState, w_pos: np.ndarray, w_vel: np.ndarray) -> float:
    """sqrt(sum w_pos pos^2 + sum w_vel vel^2), the pair-space norm for given weights."""
    with np.errstate(over="ignore"):  # near blow-up the norm is legitimately inf
        s = np.sum(w_pos * state.pos**2) + np.sum(w_vel * state.vel**2)
        return float(np.sqrt(s))


def project(state: PairState, n_keep: int) -> PairState:
    """Zero all coefficients with mode index above ``n_keep``."""
    n = state.n_modes
    if not 0 <= n_keep <= n:
        raise ValueError(f"n_keep must lie in [0, {n}], got {n_keep}")
    pos = state.pos.copy()
    vel = state.vel.copy()
    pos[n_keep:] = 0.0
    vel[n_keep:] = 0.0
    return PairState(pos, vel)


def hs_norm_lambda_pow(theta: float, beta: float, tol: float = 1e-8) -> float:
    """Hilbert-Schmidt norm of the pair-space operator power ``-beta``.

    Each eigenvalue magnitude ``theta pi^2 n^2`` appears twice (position and
    velocity component), so the squared norm is ``2 sum_n (theta pi^2 n^2)^-beta``.
    The series is summed until the integral tail bound
    ``2 int_N^inf (theta pi^2 s^2)^-beta ds`` drops below ``tol^2``.
    """
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if beta <= 0.5:
        raise ValueError(
            f"series diverges: beta must exceed 1/2, got {beta}"
        )
    c = (theta * np.pi**2) ** (-beta)
    p = 2.0 * beta - 1.0
    # smallest N with 2 c N^(1-2beta) / (2beta-1) < tol^2, sized in log space
    # because the exponent 1/p blows up as beta approaches 1/2
    log_n_stop = (math.log(2.0 * c) - math.log(p) - 2.0 * math.log(tol)) / p
    if log_n_stop > math.log(_SUM_LIMIT):
        raise ValueError(
            f"tol={tol} needs more than {_SUM_LIMIT} terms at beta={beta}; loosen tol"
        )
    n_stop = max(math.ceil(math.exp(log_n_stop)), 1)
    total = 0.0
    lo = 1
    while lo <= n_stop:
        hi = min(lo + _SUM_CHUNK, n_stop + 1)
        n = np.arange(lo, hi, dtype=np.float64)
        total += float(np.sum(n ** (-2.0 * beta)))
        lo = hi
    return float(np.sqrt(2.0 * c * total))


@lru_cache(maxsize=32)
def _sine_from_cos_matrix(intervals: int, n_max: int) -> np.ndarray:
    """Map DCT-I output on a closed grid to exact sine coefficients.

    Column j (1-based mode) integrates cos(m pi x) against e_j:
    <e_j, cos(m pi .)> = 2 sqrt(2) j / (pi (j^2 - m^2)) when j + m is odd,
    zero otherwise.  The DCT-I normalization (1/P, halved at both ends) is
    folded in, so ``dct1(values) @ matrix`` yields <e_j, u> for any cosine
    polynomial u of degree <= intervals.
    """
    p = intervals
    m = np.arange(p + 1, dtype=np.float64)[:, None]
    j = np.arange(1, n_max + 1, dtype=np.float64)[None, :]
    odd = (m + j) % 2 == 1
    denom = np.where(odd, j * j - m * m, 1.0)
    s = np.where(odd, 2.0 * SQRT2 * j / (np.pi * denom), 0.0)
    w = np.full(p + 1, 1.0 / p)
    w[0] = w[-1] = 0.5 / p
    out = np.asfortranarray(s * w[:, None])
    out.setflags(write=False)
    return out


class GridWorkspace:
    """Uniform interior sine grid with transform plans, read-only after build.

    Nodes are x_q = q/(G+1) for q = 1..G.  ``synthesize``/``analyze`` are the
    mutually inverse discrete sine transforms on these nodes.  The closed grid
    (nodes plus both endpoints, G+1 intervals) backs ``product_to_sine``,
    which projects a pointwise product of two endpoint-vanishing trigonometric
    polynomials onto the sine basis exactly whenever the degrees sum to at
    most G+1.
    """

    def __init__(self, n_points: int):
        n_points = int(n_points)
        if n_points < 1:
            raise ValueError(f"n_points must be at least 1, got {n_points}")
        self.n_points = n_points
        self.nodes = _readonly(np.arange(1, n_points + 1) / (n_points + 1))

    @property
    def intervals(self) -> int:
        return self.n_points + 1

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Values of sum a_n e_n on the interior nodes (batched on last axis)."""
        a = np.asarray(coeffs, dtype=np.float64)
        n = a.shape[-1]
        if n > self.n_points:
            raise ValueError(f"{n} modes exceed grid resolution {self.n_points}")
        if n < self.n_points:
            pad = [(0, 0)] * (a.ndim - 1) + [(0, self.n_points - n)]
            a = np.pad(a, pad)
        return scipy.fft.dst(a, type=1, axis=-1) / SQRT2

    def analyze(self, values: np.ndarray, n_modes: int) -> np.ndarray:
        """Discrete sine coefficients of node samples; inverse of synthesize."""
        v = np.asarray(values, dtype=np.float64)
        out = scipy.fft.dst(v, type=1, axis=-1) / (SQRT2 * self.intervals)
        return out[..., :n_modes]

    def product_to_sine(self, values: np.ndarray, n_modes: int) -> np.ndarray:
        """Exact sine coefficients of an endpoint-vanishing cosine polynomial.

        ``values`` are interior-node samples of u; u is analyzed on the
        closed grid in the cosine basis (exact for degree <= G+1) and mapped
        to <e_j, u> analytically, so no quadrature error enters.
        """
        v = np.asarray(values, dtype=np.float64)
        closed = np.zeros(v.shape[:-1] + (self.intervals + 1,))
        closed[..., 1:-1] = v
        y = scipy.fft.dct(closed, type=1, axis=-1)
        mat = _sine_from_cos_matrix(self.intervals, n_modes)
        return y @ mat
