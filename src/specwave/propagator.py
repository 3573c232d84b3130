"""Exact application of the wave group, one rotation per mode.

At frequency mu_n the group acts on (position, velocity) coefficients as

    a' =  cos(mu t) a + sin(mu t)/mu c
    c' = -mu sin(mu t) a + cos(mu t) c

which preserves the pair-space norm at smoothness zero for every t.  For
fixed-step integration the (cos, sin) tables are computed once per step size;
results are bitwise identical to per-call evaluation.
"""

from __future__ import annotations

import numpy as np

from .spectral import PairState, SpectralModel

__all__ = ["rotation_tables", "propagate"]


def rotation_tables(model: SpectralModel, t: float, n_modes: int | None = None):
    """(cos(mu t), sin(mu t), mu) vectors for the first ``n_modes`` modes."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    mu = model.mu[: model.n_modes if n_modes is None else n_modes]
    return np.cos(mu * t), np.sin(mu * t), mu


def propagate_arrays(pos, vel, cos_t, sin_t, mu):
    """Apply the rotation to coefficient arrays (modes on the last axis)."""
    new_pos = cos_t * pos + (sin_t / mu) * vel
    new_vel = -(mu * sin_t) * pos + cos_t * vel
    return new_pos, new_vel


def propagate(state: PairState, t: float, model: SpectralModel) -> PairState:
    """Advance a pair state by time ``t >= 0`` under the wave group."""
    n = state.n_modes
    if n > model.n_modes:
        raise ValueError(f"state has {n} modes, model only {model.n_modes}")
    cos_t, sin_t, mu = rotation_tables(model, t, n)
    new_pos, new_vel = propagate_arrays(state.pos, state.vel, cos_t, sin_t, mu)
    return PairState(new_pos, new_vel)
