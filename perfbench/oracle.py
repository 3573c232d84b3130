"""Independent per-path stepper used to check specwave's outputs.

It shares no code with specwave: the noise is drawn here from
``SeedSequence(master_seed, spawn_key=(path,))``, the Anderson product
v * dW is formed as a convolution and a correlation of the two sine
coefficient vectors into a cosine series and mapped to sine coefficients
with the analytic integrals, and a pointwise coefficient b(x, v) dW is
evaluated with explicit sine sums on the grid nodes x_q = q / (G + 1).

A step is the exponential-Euler step of the mild form: add the diffusion
(and drift) increment to the velocity, then rotate every mode exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class Model:
    """What the oracle needs to know about one generated config."""

    theta: float
    n_ref: int
    m_noise: int
    n_steps: int
    t_final: float
    init_pos: np.ndarray  # length n_ref
    init_vel: np.ndarray
    kind: str  # "anderson" or "pointwise"
    b: Callable | None = None      # b(x, y) for the pointwise kind
    drift: Callable | None = None  # f(x, y) for the pointwise kind, or None
    grid_points: int = 0           # interior nodes for the pointwise kind

    @property
    def dt(self) -> float:
        return self.t_final / self.n_steps


def noise(master_seed: int, path: int, model: Model) -> np.ndarray:
    """All Normal(0, dt) increments of one path, shape (n_steps, m_noise)."""
    rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(path,)))
    return rng.standard_normal((model.n_steps, model.m_noise)) * np.sqrt(model.dt)


@lru_cache(maxsize=8)
def cos_to_sine(p_max: int, n: int) -> np.ndarray:
    """S[p, j-1] = integral over (0,1) of cos(p pi x) * sqrt(2) sin(j pi x)."""
    p = np.arange(p_max + 1, dtype=np.float64)[:, None]
    j = np.arange(1, n + 1, dtype=np.float64)[None, :]
    odd = (p + j) % 2 == 1
    return np.where(odd, 2.0 * SQRT2 * j / (np.pi * np.where(odd, j * j - p * p, 1.0)),
                    0.0)


def anderson_product(pos: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """Sine coefficients of v * w, v = sum pos_n e_n, w = sum dw_k e_k.

    2 sin(n pi x) sin(k pi x) = cos((n-k) pi x) - cos((n+k) pi x), so the
    cosine coefficient of order p collects pos_n dw_k over |n-k| = p
    (a correlation) minus those over n+k = p (a convolution).
    """
    n, m = pos.shape[0], dw.shape[0]
    c = np.zeros(n + m + 1)
    corr = np.correlate(pos, dw, mode="full")  # index i <-> n - k = i - (m-1)
    lags = np.abs(np.arange(corr.shape[0]) - (m - 1))
    np.add.at(c, lags, corr)
    c[2:] -= np.convolve(pos, dw)              # index i <-> n + k = i + 2
    return c @ cos_to_sine(n + m, n)


@lru_cache(maxsize=8)
def sine_matrix(g: int, n: int) -> np.ndarray:
    """E[q-1, j-1] = e_j(x_q) = sqrt(2) sin(j pi q / (g+1)), explicit sums."""
    q = np.arange(1, g + 1, dtype=np.float64)[:, None]
    j = np.arange(1, n + 1, dtype=np.float64)[None, :]
    return SQRT2 * np.sin(np.pi * q * j / (g + 1))


def _increment(pos: np.ndarray, dw: np.ndarray, model: Model, product) -> np.ndarray:
    n = pos.shape[0]
    if model.kind == "anderson":
        return product(pos, dw)
    g = model.grid_points
    e = sine_matrix(g, max(n, model.m_noise))
    x = np.arange(1, g + 1) / (g + 1)
    v = e[:, :n] @ pos
    w = e[:, :model.m_noise] @ dw
    incr = (model.b(x, v) * w) @ e[:, :n] / (g + 1)
    if model.drift is not None:
        incr = incr + model.dt * (model.drift(x, v) @ e[:, :n] / (g + 1))
    return incr


def terminal_states(model: Model, levels, master_seed: int, path: int,
                    product=anderson_product) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Terminal (pos, vel) of one path at every level, all under one noise path."""
    dws = noise(master_seed, path, model)
    dt = model.dt
    out = {}
    for level in levels:
        mu = np.sqrt(model.theta) * np.pi * np.arange(1, level + 1)
        c, s = np.cos(mu * dt), np.sin(mu * dt)
        pos = model.init_pos[:level].copy()
        vel = model.init_vel[:level].copy()
        for dw in dws:
            vel = vel + _increment(pos, dw, model, product)
            pos, vel = c * pos + (s / mu) * vel, -(mu * s) * pos + c * vel
        out[level] = (pos, vel)
    return out


def h0_sq(pos: np.ndarray, vel: np.ndarray, theta: float) -> float:
    """||x||^2 = sum pos_n^2 + vel_n^2 / (theta pi^2 n^2)."""
    lam = theta * np.pi**2 * np.arange(1, pos.shape[0] + 1) ** 2
    return float(pos @ pos + (vel * vel) @ (1.0 / lam))


def phi_and_strong(model: Model, levels, master_seed: int, path: int,
                   product=anderson_product):
    """exp(-||x||^2) per level (levels[0] first) and squared gaps to levels[0]."""
    states = terminal_states(model, levels, master_seed, path, product)
    ref_pos, ref_vel = states[levels[0]]
    phi = [np.exp(-h0_sq(*states[level], model.theta)) for level in levels]
    gaps = []
    for level in levels[1:]:
        pos, vel = states[level]
        dp = ref_pos.copy()
        dp[:level] -= pos
        dv = ref_vel.copy()
        dv[:level] -= vel
        gaps.append(h0_sq(dp, dv, model.theta))
    return np.array(phi), np.array(gaps)
