"""Exponential-Euler time stepping of the Galerkin system in mild form.

One step over dt composes the coefficient increments evaluated at the left
endpoint with the exact wave group:

    x_{k+1} = e^{A dt} ( x_k + dt F(x_k) + B(x_k) dW_k )

The exact group action removes all stiffness from the linear part, so no
CFL-type restriction ties dt to the finest frequency; the leftover temporal
error is meant to stay subdominant to the spatial one (checked by the
time-step robustness diagnostic in the study harness).

Path coupling: every path owns a deterministic noise stream derived from
(master seed, path index); all Galerkin levels of a coupled run consume the
identical increments, so the only varying discretization parameter is the
level.  A coarsening factor re-aggregates the same Brownian path at a larger
step, which isolates the temporal discretization effect when halving the
step count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.fft

from .coefficients import (CoefficientSpec, NoiseIncrement, NonFiniteFieldError,
                           diffusion_vel, drift_vel)
from .propagator import propagate_arrays, rotation_tables
from .spectral import GridWorkspace, PairState, SpectralModel, project

__all__ = [
    "BlowUpError",
    "SimConfig",
    "path_seed",
    "noise_block",
    "step",
    "simulate_path",
    "simulate_coupled",
]


class BlowUpError(RuntimeError):
    """A simulated state left the finite range; carries provenance."""

    def __init__(self, step_index, level=None, path_index=None):
        self.step_index = step_index
        self.level = level
        self.path_index = path_index
        where = f"step {step_index}"
        if level is not None:
            where += f", level {level}"
        if path_index is not None:
            where += f", path {path_index}"
        super().__init__(f"non-finite state at {where}")


@dataclass(frozen=True)
class SimConfig:
    """Immutable description of one simulation study."""

    model: SpectralModel
    levels: tuple[int, ...]
    t_final: float
    n_steps: int
    m_noise: int
    spec: CoefficientSpec
    initial: PairState
    grid_points: int = 0  # 0 selects the default 4 * max(n_ref, m_noise)
    grid: GridWorkspace = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.t_final > 0:
            raise ValueError(f"t_final must be positive, got {self.t_final}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be at least 1, got {self.n_steps}")
        if self.m_noise < 1:
            raise ValueError(f"m_noise must be at least 1, got {self.m_noise}")
        levels = tuple(int(n) for n in self.levels)
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("levels must be strictly ascending")
        if levels and levels[-1] > self.model.n_modes:
            raise ValueError("levels may not exceed the reference resolution")
        object.__setattr__(self, "levels", levels)
        if self.initial.n_modes != self.model.n_modes:
            raise ValueError("initial state must be given at reference resolution")
        g = self.grid_points or 4 * max(self.model.n_modes, self.m_noise)
        need = (self.model.n_modes + self.m_noise
                if self.spec.diffusion == "anderson"
                else max(self.model.n_modes, self.m_noise))
        if g < need:
            raise ValueError(f"grid_points={g} too coarse, need at least {need}")
        object.__setattr__(self, "grid_points", int(g))
        object.__setattr__(self, "grid", GridWorkspace(int(g)))

    @property
    def n_ref(self) -> int:
        return self.model.n_modes

    @property
    def dt(self) -> float:
        return self.t_final / self.n_steps


def path_seed(master_seed: int, path_index: int) -> np.random.SeedSequence:
    """Deterministic per-path seed; streams are never shared between paths."""
    return np.random.SeedSequence(int(master_seed), spawn_key=(int(path_index),))


def noise_block(seed, n_steps: int, m_noise: int, dt: float) -> np.ndarray:
    """All Normal(0, dt) increments of one path, shape (n_steps, m_noise).

    Draw order is step-major, identical to drawing one increment per step
    from the same stream.
    """
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_steps, m_noise)) * np.sqrt(dt)


def step(state: PairState, dt: float, noise: NoiseIncrement, spec: CoefficientSpec,
         grid: GridWorkspace, model: SpectralModel,
         step_index: int | None = None) -> PairState:
    """One exponential-Euler step: add increments, then rotate exactly."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = state.n_modes
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            vel = state.vel + diffusion_vel(state.pos, noise.dw, spec, grid, n)
            dv = drift_vel(state.pos, spec, grid, n)
    except NonFiniteFieldError:
        # overflow of a coefficient evaluation is a blow-up of the path
        raise BlowUpError(step_index) from None
    if dv is not None:
        vel = vel + dt * dv
    cos_t, sin_t, mu = rotation_tables(model, dt, n)
    new_pos, new_vel = propagate_arrays(state.pos, vel, cos_t, sin_t, mu)
    if not (np.all(np.isfinite(new_pos)) and np.all(np.isfinite(new_vel))):
        raise BlowUpError(step_index)
    return PairState(new_pos, new_vel)


def _coarsened(noise: np.ndarray, coarsen: int) -> np.ndarray:
    """Re-aggregate fine increments onto a coarser grid of the same path."""
    if coarsen == 1:
        return noise
    k = noise.shape[-2]
    if k % coarsen:
        raise ValueError(f"coarsen={coarsen} must divide n_steps={k}")
    shape = noise.shape[:-2] + (k // coarsen, coarsen, noise.shape[-1])
    return noise.reshape(shape).sum(axis=-2)


def simulate_path(config: SimConfig, level: int, seed, *, coarsen: int = 1) -> PairState:
    """Terminal state of one path at one Galerkin level.

    ``seed`` is a per-path seed (int or SeedSequence); the result is a pure
    function of (config, level, seed).
    """
    if level != config.n_ref and level not in config.levels:
        raise ValueError(f"level {level} not in configured levels")
    noise = _coarsened(noise_block(seed, config.n_steps, config.m_noise, config.dt),
                       coarsen)
    return _run_one(config, level, noise, seed)


def _run_one(config: SimConfig, level: int, noise: np.ndarray, seed) -> PairState:
    dt = config.t_final / noise.shape[0]
    state = project(config.initial, level)
    state = PairState(state.pos[:level], state.vel[:level])
    for k in range(noise.shape[0]):
        try:
            state = step(state, dt, NoiseIncrement(noise[k], dt), config.spec,
                         config.grid, config.model, step_index=k)
        except BlowUpError:
            raise BlowUpError(k, level=level, path_index=_seed_repr(seed)) from None
    return state


def _seed_repr(seed):
    if isinstance(seed, np.random.SeedSequence):
        return (seed.entropy, seed.spawn_key)
    return seed


def simulate_coupled(config: SimConfig, seed, *, coarsen: int = 1) -> dict[int, PairState]:
    """Terminal states of all levels plus the reference under shared noise.

    Per-level results are bitwise equal to running ``simulate_path`` with the
    same seed, because every level replays the identical increment sequence.
    """
    noise = _coarsened(noise_block(seed, config.n_steps, config.m_noise, config.dt),
                       coarsen)
    out: dict[int, PairState] = {}
    for level in (*config.levels, config.n_ref):
        out[level] = _run_one(config, level, noise, seed)
    return out


# --- batched engine -------------------------------------------------------
#
# The study harness advances whole blocks of paths at once, with the sine
# synthesis and the exact product projection realized as cached dense
# matrices so every step reduces to a few BLAS products.  Each level-step
# synthesizes its position on the grid once; the Anderson product, pointwise
# b(x, v) dW and the drift f(x, v) all read those values, and pointwise and
# drift fields are analyzed with the transposed synthesis table (the
# discrete sine transform restricted to the level's modes).  Semantics are
# those of simulate_coupled path by path; terminal states agree with the
# single-path reference to floating-point reassociation (~1e-15), which the
# test suite pins at 1e-12.

@lru_cache(maxsize=8)
def _engine_tables(n_modes_max: int, g: int):
    """(synthesis, product-projection) matrices for an interior grid of g nodes.

    synth[n-1, q-1] holds e_n at node q.  proj columns map interior samples
    of an endpoint-vanishing cosine polynomial of degree <= g+1 to its exact
    sine coefficients (closed-grid cosine analysis folded with the analytic
    cosine-to-sine map).

    The fold 2 sum_k cos(pi k q / (g+1)) m1[k] is a DCT-I of m1 with both end
    rows doubled, taken with the FFT rather than a BLAS product: BLAS may sum
    a product in an order that depends on its thread count, and the tables
    are built once per process under whatever thread count is then active.
    """
    from .spectral import _sine_from_cos_matrix

    p = g + 1
    q = np.arange(1, p, dtype=np.float64)
    n = np.arange(1, n_modes_max + 1, dtype=np.float64)
    synth = np.sqrt(2.0) * np.sin(np.pi * np.outer(n, q) / p)
    synth.setflags(write=False)
    m1 = np.array(_sine_from_cos_matrix(p, min(n_modes_max, g)))
    m1[0] *= 2.0
    m1[-1] *= 2.0
    proj = np.asfortranarray(scipy.fft.dct(m1, type=1, axis=0)[1:p])
    proj.setflags(write=False)
    return synth, proj


# noise is streamed in bursts of this many fine steps to bound memory;
# values are identical to drawing the whole block at once
_NOISE_BURST = 32


def run_chunk(config: SimConfig, levels: tuple[int, ...], path_indices: range,
              master_seed: int, *, coarsen: int = 1, phi=None,
              strong_vs_first: bool = False, monitor_rho: float | None = None):
    """Advance one block of coupled paths through all requested levels.

    Returns a dict with, per path: functional values per level, squared
    pair-space gaps to the first level, and per-step second-moment sums for
    the monitor.  levels[0] acts as the reference when gaps are requested.
    """
    model, spec, grid = config.model, config.spec, config.grid
    b = len(path_indices)
    m = config.m_noise
    if config.n_steps % coarsen:
        raise ValueError(f"coarsen={coarsen} must divide n_steps={config.n_steps}")
    k_steps = config.n_steps // coarsen
    dt = config.t_final / k_steps
    sqdt_fine = np.sqrt(config.dt)

    anderson = spec.diffusion == "anderson"
    pointwise = spec.diffusion == "pointwise"
    drift = spec.drift
    synth = proj = None
    if anderson or pointwise or drift is not None:
        synth, proj = _engine_tables(max(model.n_modes, config.m_noise),
                                     grid.n_points)

    states = {}
    tables = {}
    scratch = {}
    for level in levels:
        pos0 = np.broadcast_to(config.initial.pos[:level], (b, level)).copy()
        vel0 = np.broadcast_to(config.initial.vel[:level], (b, level)).copy()
        states[level] = (pos0, vel0)
        cos_t, sin_t, mu = rotation_tables(model, dt, level)
        tables[level] = (cos_t, sin_t / mu, -mu * sin_t)
        scratch[level] = (np.empty_like(pos0), np.empty_like(pos0), np.empty_like(pos0))

    moments = None
    if monitor_rho is not None:
        moments = np.zeros((len(levels), k_steps + 1, 2))
        weights = {
            level: (model.abs_lam(level) ** monitor_rho,
                    model.abs_lam(level) ** (monitor_rho - 1.0))
            for level in levels
        }
        for i, level in enumerate(levels):
            _record_moment(moments, i, 0, states[level], weights[level])

    gens = [np.random.default_rng(path_seed(master_seed, idx)) for idx in path_indices]
    needs_wvals = (anderson and spec.beta != 0.0) or pointwise
    # one grid synthesis of the position per level-step serves every field
    synth_pos = needs_wvals or drift is not None
    burst_fine = _NOISE_BURST * coarsen
    alpha, beta = spec.alpha, spec.beta
    v_buf = np.empty((b, grid.n_points)) if synth_pos else None

    k = 0
    fine_done = 0
    while fine_done < config.n_steps:
        span = min(burst_fine, config.n_steps - fine_done)
        block = np.empty((b, span, m))
        for row, gen in enumerate(gens):
            block[row] = gen.standard_normal((span, m))
        block *= sqdt_fine
        if coarsen > 1:
            block = block.reshape(b, span // coarsen, coarsen, m).sum(axis=2)
        fine_done += span

        for j in range(block.shape[1]):
            dwk = block[:, j]
            w_vals = dwk @ synth[:m] if needs_wvals else None
            for i, level in enumerate(levels):
                pos, vel = states[level]
                new_pos, new_vel, tmp = scratch[level]
                with np.errstate(over="ignore", invalid="ignore"):
                    if synth_pos:
                        s_level = synth[:level]
                        v_vals = np.matmul(pos, s_level, out=v_buf)
                    dv = None
                    if drift is not None:
                        # analyzed before the Anderson product reuses v_buf
                        f_vals = _on_grid(drift, grid.nodes, v_vals)
                        _raise_if_nonfinite(k, level, path_indices, f_vals)
                        dv = (f_vals @ s_level.T) / grid.intervals
                    if anderson:
                        if beta != 0.0:
                            u = v_vals
                            u *= w_vals
                            incr = np.matmul(u, proj[:, :level], out=tmp)
                            if beta != 1.0:
                                incr *= beta
                            if alpha != 0.0:
                                kk = min(level, m)
                                incr[:, :kk] += alpha * dwk[:, :kk]
                            np.add(vel, incr, out=vel)
                        elif alpha != 0.0:
                            vel = vel.copy()
                            kk = min(level, m)
                            vel[:, :kk] += alpha * dwk[:, :kk]
                    elif pointwise:
                        u = _on_grid(spec.pointwise_b, grid.nodes, v_vals) * w_vals
                        _raise_if_nonfinite(k, level, path_indices, u)
                        vel = vel + (u @ s_level.T) / grid.intervals
                    elif spec.diffusion != "zero":
                        vel = vel + diffusion_vel(pos, dwk, spec, grid, level)
                if dv is not None:
                    vel = vel + dt * dv
                cos_t, sin_over_mu, neg_mu_sin = tables[level]
                with np.errstate(over="ignore", invalid="ignore"):
                    np.multiply(pos, cos_t, out=new_pos)
                    np.multiply(vel, sin_over_mu, out=tmp)
                    new_pos += tmp
                    np.multiply(pos, neg_mu_sin, out=new_vel)
                    np.multiply(vel, cos_t, out=tmp)
                    new_vel += tmp
                    _raise_if_nonfinite(k, level, path_indices, new_pos, new_vel)
                states[level] = (new_pos, new_vel)
                scratch[level] = (pos, vel, tmp)
                if moments is not None:
                    _record_moment(moments, i, k + 1, states[level], weights[level])
            k += 1

    out = {"moments": moments}
    if phi is not None:
        out["phi"] = np.column_stack(
            [phi.evaluate_batch(*states[level], model) for level in levels])
    if strong_vs_first:
        ref_level = levels[0]
        ref_pos, ref_vel = states[ref_level]
        inv_lam = 1.0 / model.abs_lam(ref_level)
        gaps = np.empty((b, len(levels) - 1))
        for j, level in enumerate(levels[1:]):
            pos, vel = states[level]
            dp = ref_pos.copy()
            dp[:, :level] -= pos
            dv = ref_vel.copy()
            dv[:, :level] -= vel
            gaps[:, j] = (dp * dp).sum(axis=1) + (dv * dv * inv_lam).sum(axis=1)
        out["strong_sq"] = gaps
    return out


def _on_grid(fn, nodes, v_vals):
    """fn(x, v(x)) on every node of every row, as a C-ordered array."""
    vals = np.asarray(fn(nodes, v_vals), dtype=np.float64)
    return np.ascontiguousarray(np.broadcast_to(vals, v_vals.shape))


def _raise_if_nonfinite(step_index, level, path_indices, *fields):
    """Raise BlowUpError naming the first path whose row of a field is not finite."""
    # a NaN or infinity poisons the sums; locate precisely only then
    if np.isfinite(sum(float(f.sum()) for f in fields)):
        return
    finite = np.logical_and.reduce([np.isfinite(f).all(axis=1) for f in fields])
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise BlowUpError(step_index, level=level, path_index=path_indices[bad])


def _record_moment(moments, i, k, state, weights):
    pos, vel = state
    w_pos, w_vel = weights
    sq = (pos * pos) @ w_pos + (vel * vel) @ w_vel
    moments[i, k, 0] = sq.sum()
    moments[i, k, 1] = sq @ sq
