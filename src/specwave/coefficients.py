"""Drift and diffusion coefficients and their spectral products.

Both coefficient families act on the velocity component only: the drift maps
a state to (0, f(x, v(x))) and the diffusion maps a noise increment dW to
(0, g(v) dW) where g depends on the kind:

* ``anderson``: g(v) dW = (alpha + beta v) dW, pointwise multiplication.
  Constant (additive) noise is beta = 0 and the deterministic equation is
  alpha = beta = 0.  v and the truncated increment are trigonometric
  polynomials, so the product is projected onto the sine basis exactly
  (closed-grid cosine analysis, no aliasing) whenever the grid satisfies
  G >= N + M; with beta = 0 there is no product and any grid serves.
* ``pointwise``: g(v) dW = b(x, v(x)) dW(x), evaluated on the interior grid
  and analyzed back; oversampling controls aliasing for general b.

``diffusion_vel`` and ``drift_vel`` evaluate one increment with the grid's
sine transforms for ``integrator.step``, the single-path form of a step
that the tests compare the engine against; no command runs them.  The one
stepping engine, ``integrator.run_chunk``, evaluates the same fields through
its cached dense synthesis and projection tables, synthesizing each level's
position once per step.  Neither function checks its output for NaN or
infinity: a non-finite field leaves the rotated state non-finite, which the
stepper reports as a blow-up.

The noise increments dW are i.i.d. Normal(0, dt) coefficients of the first M
basis modes of a cylindrical Wiener process, drawn per path by
``run_chunk``; M is fixed per study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spectral import GridWorkspace

__all__ = [
    "DIFFUSION_KINDS",
    "PRESETS",
    "CoefficientSpec",
    "preset",
]

DIFFUSION_KINDS = ("anderson", "pointwise")
PRESETS = ("anderson", "zero", "additive-heat-kick")


@dataclass(frozen=True)
class CoefficientSpec:
    """Drift function, diffusion kind and its parameters.

    ``alpha`` and ``beta`` are the affine coefficient of the ``anderson``
    kind; ``pointwise_b`` is the multiplier of the ``pointwise`` kind.
    """

    diffusion: str = "anderson"
    drift: Callable | None = None
    alpha: float = 0.0
    beta: float = 1.0
    pointwise_b: Callable | None = None

    def __post_init__(self):
        if self.diffusion not in DIFFUSION_KINDS:
            raise ValueError(f"unknown diffusion kind {self.diffusion!r}")
        if self.diffusion == "pointwise" and self.pointwise_b is None:
            raise ValueError("pointwise diffusion needs a b(x, y) callable")


def preset(name: str, *, sigma: float = 1.0) -> CoefficientSpec:
    """Named settings (alpha, beta) of the affine coefficient (alpha + beta v) dW.

    ``anderson`` is (0, 1), ``zero`` is (0, 0) and ``additive-heat-kick`` is
    (sigma, 0): a kick sigma dW_k on each velocity mode k the noise drives.
    """
    if name == "anderson":
        return CoefficientSpec(alpha=0.0, beta=1.0)
    if name == "zero":
        return CoefficientSpec(alpha=0.0, beta=0.0)
    if name == "additive-heat-kick":
        return CoefficientSpec(alpha=sigma, beta=0.0)
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
    if spec.diffusion == "anderson":
        if spec.beta != 0.0 and grid.n_points < n_out + m:
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
