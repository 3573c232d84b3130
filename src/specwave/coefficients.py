"""Drift and diffusion coefficients and their spectral products.

Both coefficient families act on the velocity component only: the drift maps
a state to (0, f(x, v(x))) and the diffusion maps a noise increment dW to
(0, g(v) dW) where g depends on the kind:

* ``anderson``: g(v) dW = (alpha + beta v) dW, pointwise multiplication.
  v and the truncated increment are trigonometric polynomials, so the
  product is projected onto the sine basis exactly (closed-grid cosine
  analysis, no aliasing) whenever the grid satisfies G >= N + M.
* ``pointwise``: g(v) dW = b(x, v(x)) dW(x), evaluated on the interior grid
  and analyzed back; oversampling controls aliasing for general b.
* ``additive``: fixed column per noise mode, independent of the state.
* ``zero``: no diffusion.

``diffusion_vel`` and ``drift_vel`` evaluate one increment with the grid's
sine transforms; ``integrator.step``, the single-path stepper behind
``specwave simulate``, calls both.  The batched engine of the studies
(``integrator.run_chunk``) evaluates the same Anderson, pointwise and drift
fields through its cached dense synthesis and projection tables instead,
synthesizing each level's position once per step, and calls
``diffusion_vel`` for the additive kind only.  Neither function checks its
output for NaN or infinity: a non-finite field leaves the rotated state
non-finite, which the stepper reports as a blow-up.

The noise increments dW are i.i.d. Normal(0, dt) coefficients of the first M
basis modes of a cylindrical Wiener process (``integrator.noise_block`` draws
them); M is fixed per study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .spectral import GridWorkspace

__all__ = [
    "DIFFUSION_KINDS",
    "PRESETS",
    "CoefficientSpec",
    "preset",
]

DIFFUSION_KINDS = ("anderson", "pointwise", "additive", "zero")
PRESETS = ("anderson", "zero", "additive-heat-kick")


@dataclass(frozen=True)
class CoefficientSpec:
    """Drift function, diffusion kind and parameters, user-declared norms.

    ``declared_norms`` are inputs for bound arithmetic, never estimated or
    certified by the artifact.
    """

    diffusion: str = "anderson"
    drift: Callable | None = None
    alpha: float = 0.0
    beta: float = 1.0
    pointwise_b: Callable | None = None
    columns: np.ndarray | None = None  # (m_noise, n_modes) velocity coefficients
    declared_norms: Mapping[str, float] | None = None

    def __post_init__(self):
        if self.diffusion not in DIFFUSION_KINDS:
            raise ValueError(f"unknown diffusion kind {self.diffusion!r}")
        if self.diffusion == "pointwise" and self.pointwise_b is None:
            raise ValueError("pointwise diffusion needs a b(x, y) callable")
        if self.diffusion == "additive":
            if self.columns is None:
                raise ValueError("additive diffusion needs a columns array")
            cols = np.asarray(self.columns, dtype=np.float64)
            if cols.ndim != 2 or not np.all(np.isfinite(cols)):
                raise ValueError("columns must be a finite (m_noise, n_modes) array")
            object.__setattr__(self, "columns", cols)
        if self.declared_norms is not None:
            bad = [k for k, v in self.declared_norms.items()
                   if isinstance(v, (int, float)) and k not in ("rho", "gamma", "beta") and v < 0]
            if bad:
                raise ValueError(f"declared norms must be nonnegative: {bad}")


def preset(name: str, *, m_noise: int | None = None, n_modes: int | None = None,
           sigma: float = 1.0) -> CoefficientSpec:
    """Named coefficient presets selectable by string key."""
    if name == "anderson":
        return CoefficientSpec(diffusion="anderson", alpha=0.0, beta=1.0)
    if name == "zero":
        return CoefficientSpec(diffusion="zero")
    if name == "additive-heat-kick":
        if m_noise is None or n_modes is None:
            raise ValueError("additive-heat-kick needs m_noise and n_modes")
        cols = np.zeros((m_noise, n_modes))
        k = min(m_noise, n_modes)
        cols[:k, :k] = sigma * np.eye(k)
        return CoefficientSpec(diffusion="additive", columns=cols)
    raise ValueError(f"unknown preset {name!r}; choose from {PRESETS}")


def drift_vel(pos: np.ndarray, spec: CoefficientSpec, grid: GridWorkspace,
              n_out: int) -> np.ndarray | None:
    """Velocity coefficients of the drift, batched on the last axis.

    Returns None when the drift vanishes identically.
    """
    if spec.drift is None:
        return None
    if grid.n_points < n_out:
        raise ValueError("grid too coarse: need n_points >= n_modes")
    v_vals = grid.synthesize(pos)
    f_vals = np.asarray(spec.drift(grid.nodes, v_vals), dtype=np.float64)
    return grid.analyze(np.broadcast_to(f_vals, v_vals.shape), n_out)


def diffusion_vel(pos: np.ndarray, dw: np.ndarray, spec: CoefficientSpec,
                  grid: GridWorkspace, n_out: int) -> np.ndarray:
    """Velocity coefficients of the diffusion increment, batched on last axis."""
    m = dw.shape[-1]
    if spec.diffusion == "zero":
        return np.zeros(pos.shape[:-1] + (n_out,))
    if spec.diffusion == "additive":
        cols = spec.columns
        if cols.shape[0] != m:
            raise ValueError(f"columns expect {cols.shape[0]} noise modes, got {m}")
        out = dw @ cols[:, :n_out]
        if cols.shape[1] < n_out:
            out = np.pad(out, [(0, 0)] * (out.ndim - 1) + [(0, n_out - cols.shape[1])])
        return out
    if spec.diffusion == "anderson":
        if grid.n_points < n_out + m:
            raise ValueError(
                f"grid too coarse for exact dealiasing: need n_points >= {n_out + m}"
            )
        out = np.zeros(np.broadcast_shapes(pos.shape[:-1], dw.shape[:-1]) + (n_out,))
        if spec.alpha != 0.0:
            k = min(n_out, m)
            out[..., :k] += spec.alpha * dw[..., :k]
        if spec.beta != 0.0:
            w_vals = grid.synthesize(dw)
            v_vals = grid.synthesize(pos)
            out += spec.beta * grid.product_to_sine(v_vals * w_vals, n_out)
        return out
    # pointwise b(x, v(x)) dW(x): plain oversampled quadrature
    if grid.n_points < max(n_out, m):
        raise ValueError("grid too coarse: need n_points >= max(n_modes, m_noise)")
    w_vals = grid.synthesize(dw)
    v_vals = grid.synthesize(pos)
    b_vals = np.asarray(spec.pointwise_b(grid.nodes, v_vals), dtype=np.float64)
    return grid.analyze(np.broadcast_to(b_vals, v_vals.shape) * w_vals, n_out)
