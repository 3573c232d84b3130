"""Sine eigenbasis on (0,1): coefficient fields, norms, projections, grids.

The linear operator is the Dirichlet Laplacian on the unit interval scaled
by a diffusivity ``theta > 0``.  Its eigenfunctions are

    e_n(x) = sqrt(2) sin(n pi x),      n = 1, 2, ...

with eigenvalues ``-theta pi^2 n^2`` (modes are 1-based throughout).  A
scalar field is stored as the vector of its eigenbasis coefficients
``a_n = <e_n, v>``.  A pair state carries a position and a velocity field;
the velocity is kept as plain L2 coefficients, with the smoothness weights
applied only inside norms, so the wave-group rotation stays unweighted.

Smoothness scales: the pair-space norm at smoothness ``r`` weights the
squared position coefficients by ``|lam|^r`` and the squared velocity
coefficients by ``|lam|^(r-1)``, the graph norms of the powers r/2 and
r/2 - 1/2 of the (negated) operator.  These weights live in one place:
``pair_weights`` forms them and ``pair_norm_sq`` reduces the weighted
squares, and every norm, functional, strong gap and moment of the package
takes its weights from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SQRT2",
    "SpectralModel",
    "PairState",
    "GridWorkspace",
    "build_model",
    "norm_bold_hr",
    "pair_norm_sq",
    "pair_weights",
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
    with np.errstate(over="ignore"):
        lam = -theta * np.pi**2 * n**2
    if not np.isfinite(lam[-1]):  # the largest in magnitude
        raise ValueError(f"theta {theta} overflows the eigenvalue -theta pi^2 n^2 "
                         f"of mode {n_modes}")
    return SpectralModel(float(theta), n_modes, _readonly(lam), _readonly(np.sqrt(-lam)))


def _as_coeffs(values, name: str) -> np.ndarray:
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


def pair_weights(model: SpectralModel, n: int, r: float) -> tuple[np.ndarray, np.ndarray]:
    """(|lam|^r, |lam|^(r-1)) of the first n modes: the pair-space weights at r."""
    al = model.abs_lam(n)
    with np.errstate(over="ignore"):
        return al**r, al ** (r - 1.0)


def pair_norm_sq(pos, vel, w_pos: np.ndarray, w_vel: np.ndarray):
    """sum w_pos pos^2 + sum w_vel vel^2 over the last axis: the squared
    pair-space norm of a state, or of each row of (rows, modes) arrays.

    Each row is one contiguous pairwise sum, so a row's value has the same
    bits whether it is reduced alone or among other rows.
    """
    with np.errstate(over="ignore"):  # near blow-up the norm is legitimately inf
        return np.sum(w_pos * pos**2, axis=-1) + np.sum(w_vel * vel**2, axis=-1)


def norm_bold_hr(state: PairState, r: float, model: SpectralModel) -> float:
    """Pair-space norm: position weighted by |lam|^r, velocity by |lam|^(r-1)."""
    w_pos, w_vel = pair_weights(model, state.n_modes, r)
    return float(np.sqrt(pair_norm_sq(state.pos, state.vel, w_pos, w_vel)))


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


def _cos_sine_inner(m_max: int, n_max: int) -> np.ndarray:
    """<e_j, cos(m pi .)> for m = 0..m_max (rows) and modes j = 1..n_max.

    Closed form: 2 sqrt(2) j / (pi (j^2 - m^2)) when j + m is odd, zero
    otherwise; only that half is evaluated.
    """
    out = np.zeros((m_max + 1, n_max))
    for p in (0, 1):
        # rows m = p, p + 2, ... meet the modes j = p + 1, p + 3, ...
        m = np.arange(p, m_max + 1, 2, dtype=np.float64)[:, None]
        j = np.arange(p + 1, n_max + 1, 2, dtype=np.float64)[None, :]
        out[p::2, p::2] = 2.0 * SQRT2 * j / (np.pi * (j * j - m * m))
    return out


@lru_cache(maxsize=32)
def _sine_from_cos_matrix(intervals: int, n_max: int) -> np.ndarray:
    """Map DCT-I output on a closed grid to exact sine coefficients.

    Column j (1-based mode) integrates cos(m pi x) against e_j
    (``_cos_sine_inner``).  The DCT-I normalization (1/P, halved at both
    ends) is folded in, so ``dct1(values) @ matrix`` yields <e_j, u> for any
    cosine polynomial u of degree <= intervals.
    """
    p = intervals
    s = _cos_sine_inner(p, n_max)
    w = np.full(p + 1, 1.0 / p)
    w[0] = w[-1] = 0.5 / p
    out = np.asfortranarray(s * w[:, None])
    out.setflags(write=False)
    return out


def _dst1(a: np.ndarray, n: int) -> np.ndarray:
    """Unnormalized DST-I of length ``n`` along the last axis, ``a`` zero-padded to n.

    y_k = 2 sum_j a_j sin(pi (j+1)(k+1)/(n+1)) is minus the imaginary part of
    the real FFT of the odd extension [0, a, 0, -a reversed] of length 2(n+1).
    """
    k = a.shape[-1]
    ext = np.zeros(a.shape[:-1] + (2 * n + 2,))
    ext[..., 1:k + 1] = a
    ext[..., 2 * n + 2 - k:] = -a[..., ::-1]
    return -np.fft.rfft(ext)[..., 1:n + 1].imag


def _dct1(inner: np.ndarray, first=0.0) -> np.ndarray:
    """Unnormalized DCT-I of [first, inner, 0] along the last axis.

    With c that sequence and p = len(c) - 1, y_k = c_0
    + 2 sum_{0<j<p} c_j cos(pi j k/p) is the real part of the real FFT of the
    even extension [c_0..c_p, c_{p-1}..c_1] of length 2p.
    """
    p = inner.shape[-1] + 1
    ext = np.empty(inner.shape[:-1] + (2 * p,))
    ext[..., 0] = first
    ext[..., 1:p] = inner
    ext[..., p] = 0.0
    ext[..., p + 1:] = inner[..., ::-1]
    # contiguous: numpy's matmul sums a strided operand outside BLAS, in
    # another order, which would change the bytes of product_to_sine
    return np.ascontiguousarray(np.fft.rfft(ext).real)


class GridWorkspace:
    """Uniform interior sine grid and its transforms, read-only after build.

    Nodes are x_q = q/(G+1) for q = 1..G.  ``synthesize``/``analyze`` are the
    mutually inverse discrete sine transforms on these nodes, a DST-I taken
    as the real FFT of the odd extension of the samples about both
    endpoints.  The closed grid (nodes plus both endpoints, G+1 intervals)
    backs ``product_to_sine``, which projects a pointwise product of two
    endpoint-vanishing trigonometric polynomials onto the sine basis exactly
    whenever the degrees sum to at most G+1; its cosine analysis is a DCT-I,
    the real FFT of the even extension.
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
        return _dst1(a, self.n_points) / SQRT2

    def analyze(self, values: np.ndarray, n_modes: int) -> np.ndarray:
        """Discrete sine coefficients of node samples; inverse of synthesize."""
        v = np.asarray(values, dtype=np.float64)
        if v.shape[-1] != self.n_points:
            raise ValueError(
                f"values have length {v.shape[-1]}, expected {self.n_points} grid samples"
            )
        out = _dst1(v, self.n_points) / (SQRT2 * self.intervals)
        return out[..., :n_modes]

    def product_to_sine(self, values: np.ndarray, n_modes: int) -> np.ndarray:
        """Exact sine coefficients of an endpoint-vanishing cosine polynomial.

        ``values`` are interior-node samples of u; u is analyzed on the
        closed grid in the cosine basis (exact for degree <= G+1) and mapped
        to <e_j, u> analytically, so no quadrature error enters.
        """
        y = _dct1(np.asarray(values, dtype=np.float64))
        mat = _sine_from_cos_matrix(self.intervals, n_modes)
        return y @ mat
