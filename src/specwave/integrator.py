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

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
# numpy 2 imports its random module lazily: load it with the package, not
# inside the first study
import numpy.random  # noqa: F401

from .coefficients import CoefficientSpec, diffusion_vel, drift_vel
from .propagator import propagate_arrays, rotation_tables
from .spectral import (GridWorkspace, PairState, SpectralModel, _cos_sine_inner, _dct1,
                       _sine_from_cos_matrix)

__all__ = [
    "BlowUpError",
    "SimConfig",
    "path_seed",
    "step",
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
    # an Anderson level L with 2L < grid_points runs its product on its own
    # 2L-point grid; grid_points sets the grid of the other Anderson levels
    # (the flagship's reference), of pointwise and drift fields, and of every
    # level when a drift is set.  0 selects the default 4 * max(n_ref, m_noise)
    grid_points: int = 0
    grid: GridWorkspace = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.t_final > 0:
            raise ValueError(f"t_final must be positive, got {self.t_final}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be at least 1, got {self.n_steps}")
        if self.m_noise < 1:
            raise ValueError(f"m_noise must be at least 1, got {self.m_noise}")
        levels = tuple(int(n) for n in self.levels)
        if any(b <= a for a, b in zip((0, *levels), levels)):
            raise ValueError(f"levels must be at least 1 and strictly ascending, got {levels}")
        if levels and levels[-1] > self.model.n_modes:
            raise ValueError("levels may not exceed the reference resolution")
        object.__setattr__(self, "levels", levels)
        if self.initial.n_modes != self.model.n_modes:
            raise ValueError("initial state must be given at reference resolution")
        g = self.grid_points or 4 * max(self.model.n_modes, self.m_noise)
        product = self.spec.diffusion == "anderson" and self.spec.beta != 0.0
        need = (self.model.n_modes + self.m_noise if product
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


def step(state: PairState, dt: float, dw: np.ndarray, spec: CoefficientSpec,
         grid: GridWorkspace, model: SpectralModel,
         step_index: int | None = None) -> PairState:
    """One exponential-Euler step: add increments, then rotate exactly.

    ``dw`` holds the noise increments <e_k, dW> of the step, k = 1..M.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = state.n_modes
    cos_t, sin_t, mu = rotation_tables(model, dt, n)
    # a non-finite coefficient field leaves the rotated state non-finite,
    # so the one probe below reports it as a blow-up of the path
    with np.errstate(over="ignore", invalid="ignore"):
        vel = state.vel + diffusion_vel(state.pos, dw, spec, grid, n)
        dv = drift_vel(state.pos, spec, grid, n)
        if dv is not None:
            vel = vel + dt * dv
        new_pos, new_vel = propagate_arrays(state.pos, vel, cos_t, sin_t, mu)
    if not (np.all(np.isfinite(new_pos)) and np.all(np.isfinite(new_vel))):
        raise BlowUpError(step_index)
    return PairState(new_pos, new_vel)


# --- the stepping engine --------------------------------------------------
#
# Every command (studies, ``specwave simulate`` on a block of one path, and
# ``validate``) advances blocks of paths at once through ``run_chunk``, with
# the sine synthesis and the exact product projection realized as cached
# dense matrices so every step reduces to a few BLAS products.
#
# Every Anderson product (alpha + beta v) dW is formed from the mirror
# symmetry x -> 1 - x of its grid: e_n takes the sign (-1)^(n+1) there, and
# so do the projection's column j and the noise values of mode k.  Split into
# odd modes O (even about x = 1/2) and even modes E (odd about it), the
# product v w = (O_v O_w + E_v E_w) + (O_v E_w + E_v O_w) is an even part A,
# which only the odd modes see, and an odd part B, which only the even modes
# see.  So each level-step synthesizes O_v and E_v on the left half of the
# nodes (the centre node of an odd grid included, where E vanishes) and
# projects 2A onto the odd and 2B onto the even modes: three pairs of
# half-size GEMMs in place of three full ones (the noise pair is shared by
# the levels on one grid).  The tables are strided views of
# ``_engine_tables`` and ``_own_grid_tables``, taken per call.  The node
# weights, 2 for a node and its mirror and 1 for the centre, are folded into
# the noise values.
#
# The noise values do not depend on the state, so one GEMM pair per grid
# forms them for a span of steps of the current burst at once: the span's
# increments, stacked as (span * paths, modes / 2), meet the same map, and
# each level-step reads its step's rows.  The span is sized from the block's
# path count and m_noise alone (``_NOISE_SPAN_BYTES``), never from the levels
# run, so a level run alone sees the GEMM shapes it sees run coupled.  A
# 512-path block with m_noise > 32 keeps one step per span; a single path
# on the flagship takes 128.
#
# An Anderson level L with 2L < grid_points runs its product on its own grid
# of 2L interior nodes (``_own_grid_tables``); ``grid_points`` sets the grid
# of the other Anderson levels (the flagship's reference), of pointwise and
# drift fields, and of every level when a drift is set.  Pointwise b(x, v) dW
# and the drift f(x, v) read the position synthesized on the full config
# grid and are analyzed with the transposed synthesis table (the discrete
# sine transform restricted to the level's modes).  Semantics are those of a
# loop of ``step`` per path and level under the path's increments; terminal
# states agree with that loop to floating-point reassociation (~1e-15), which
# the test suite pins at 1e-12.

def _sine_synthesis(n_modes: int, p: int) -> np.ndarray:
    """e_n at the interior nodes q/p: entry [n-1, q-1] for n <= n_modes, q < p."""
    q = np.arange(1, p, dtype=np.float64)
    n = np.arange(1, n_modes + 1, dtype=np.float64)
    return np.sqrt(2.0) * np.sin(np.pi * np.outer(n, q) / p)


@lru_cache(maxsize=8)
def _engine_tables(n_modes_max: int, g: int):
    """(synthesis, product-projection) matrices for an interior grid of g nodes.

    synth[n-1, q-1] holds e_n at node q.  proj columns map interior samples
    of an endpoint-vanishing cosine polynomial of degree <= g+1 to its exact
    sine coefficients (closed-grid cosine analysis folded with the analytic
    cosine-to-sine map).

    The fold 2 sum_k cos(pi k q / (g+1)) m1[k] is a DCT-I of m1 with both end
    rows doubled, taken as the real FFT of its even extension rather than a
    BLAS product: BLAS may sum a product in an order that depends on its
    thread count, and the tables are built once per process under whatever
    thread count is then active.
    """
    p = g + 1
    synth = _sine_synthesis(n_modes_max, p)
    synth.setflags(write=False)
    m1 = _sine_from_cos_matrix(p, min(n_modes_max, g)).T
    folded = _dct1(m1[:, 1:-1], 2.0 * m1[:, 0], 2.0 * m1[:, -1])
    proj = np.asfortranarray(folded[:, 1:p].T)
    proj.setflags(write=False)
    return synth, proj


@lru_cache(maxsize=32)
def _own_grid_tables(level: int, m_noise: int):
    """(synthesis, noise map, analysis) of level L's Anderson product on 2L nodes.

    <e_j, v w> = <e_j v, w> for j <= L, and e_j v is a cosine polynomial of
    degree <= 2L, so the noise field w may be replaced by its cosine
    projection w~ = sum_{p<=2L} c_p <cos p pi ., w> cos p pi x (c_0 = 1,
    c_p = 2).  v w~ is a sine polynomial of degree <= 3L, and a DST-I on the
    nodes q/(2L+1), q = 1..2L, returns its first L coefficients unaliased.

    synth (L x 2L) holds e_n at the nodes; noise (m_noise x 2L) maps noise
    increments to the values of w~ there: the closed-form <cos p pi ., e_k>
    folded with the cosine synthesis by a DCT-I (an FFT, so the bytes do not
    depend on the BLAS thread count); analysis is synth^T/(2L+1).
    """
    p = 2 * level + 1
    synth = _sine_synthesis(level, p)
    cos_e = _cos_sine_inner(p - 1, m_noise).T
    noise = np.ascontiguousarray(_dct1(cos_e[:, 1:p], cos_e[:, 0], 0.0)[:, 1:p])
    analysis = synth.T / p
    for a in (synth, noise, analysis):
        a.setflags(write=False)
    return synth, noise, analysis


# noise is streamed in bursts of at most this many bytes (and at least one
# step) through one buffer per call; values are identical to drawing the
# whole block at once
_NOISE_BURST_BYTES = 8 << 20
# the weighted noise values are formed for as many steps at once as fit this
# many bytes of increments (and at least one step)
_NOISE_SPAN_BYTES = 256 << 10


def _mirror_halves(synth, analysis, level: int, h: int, b: int):
    """Views and buffers of level's Anderson product split by mirror parity.

    synth holds e_n at a grid's nodes and analysis maps its node values to
    sine coefficients; only their h left-half nodes and the level's odd
    (n = 1, 3, ...) or even modes are taken.  Returns the four table views,
    and buffers for the odd- and even-mode coefficients and for four
    left-half fields.
    """
    n_odd, n_even = (level + 1) // 2, level // 2
    return (synth[0:level:2, :h], synth[1:level:2, :h],
            analysis[:h, 0:level:2], analysis[:h, 1:level:2],
            np.empty((b, n_odd)), np.empty((b, n_even)),
            np.empty((b, h)), np.empty((b, h)), np.empty((b, h)), np.empty((b, h)))


def run_chunk(config: SimConfig, levels: tuple[int, ...], path_indices: range,
              master_seed: int, *, coarsen: int = 1, phi=None,
              strong_vs_first: bool = False, observe=None):
    """Advance one block of coupled paths through all requested levels.

    Returns a dict with, per path: functional values per level under
    ``"phi"`` and squared pair-space gaps to the first level under
    ``"strong_sq"``; levels[0] acts as the reference when gaps are requested.
    ``observe(i, k, pos, vel)``, if given, sees the (paths, modes) state
    arrays of levels[i] at every step k = 0..n_steps/coarsen; they are the
    engine's buffers, valid only during the call.
    """
    model, spec, grid = config.model, config.spec, config.grid
    b = len(path_indices)
    m = config.m_noise
    if config.n_steps % coarsen:
        raise ValueError(f"coarsen={coarsen} must divide n_steps={config.n_steps}")
    k_steps = config.n_steps // coarsen
    dt = config.t_final / k_steps
    sqdt_fine = np.sqrt(config.dt)

    pointwise = spec.diffusion == "pointwise"
    drift = spec.drift
    # the affine coefficient (alpha + beta v) dW of the anderson kind
    alpha, beta = (0.0, 0.0) if pointwise else (spec.alpha, spec.beta)
    g = grid.n_points
    # an Anderson level with 2L < g forms its product on its own 2L-point
    # grid; a drift needs the position on the config grid at every level
    product = beta != 0.0
    own = [level for level in levels if 2 * level < g] if product and drift is None else []
    on_grid = [level for level in levels if level not in own] if product else []
    # pointwise and drift fields read the position on the full config grid
    dense = pointwise or drift is not None
    if dense or on_grid:
        synth, proj = _engine_tables(max(model.n_modes, config.m_noise), g)

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

    if observe is not None:
        for i, level in enumerate(levels):
            observe(i, 0, *states[level])

    if dense:
        u = np.empty((b, g))
        w_vals = np.empty((b, g)) if pointwise else None
        bw = np.empty((b, g)) if pointwise else None
    # per Anderson level: its grid's noise values and its mirror halves
    # (``_mirror_halves``); per grid: the odd- and even-mode noise maps and
    # the weighted noise values (odd/even, step of the span, path, node), one
    # GEMM pair per span for all the grid's levels.  Each own grid keeps its
    # own pair: in one GEMM over all of them, BLAS may sum a level's columns
    # in an order that depends on the other levels
    span = max(1, _NOISE_SPAN_BYTES // (8 * b * m))
    halves = {}
    noise_maps = []
    if on_grid:
        h = (g + 1) // 2
        w_grid = np.empty((2, span, b, h))
        noise_maps.append((synth[0:m:2, :h], synth[1:m:2, :h], w_grid))
        for level in on_grid:
            halves[level] = (w_grid, _mirror_halves(synth, proj, level, h, b))
    for level in own:
        s_own, noise, a_own = _own_grid_tables(level, m)
        w_own = np.empty((2, span, b, level))
        noise_maps.append((noise[0::2, :level], noise[1::2, :level], w_own))
        halves[level] = (w_own, _mirror_halves(s_own, a_own, level, level, b))
    if halves:
        dw_odd, dw_even = np.empty((span, b, (m + 1) // 2)), np.empty((span, b, m // 2))

    gens = [np.random.default_rng(path_seed(master_seed, idx)) for idx in path_indices]
    burst = max(1, _NOISE_BURST_BYTES // (8 * b * m * coarsen))
    burst_fine = min(burst * coarsen, config.n_steps)
    block = np.empty((b, burst_fine, m))
    coarse = np.empty((b, burst_fine // coarsen, m)) if coarsen > 1 else None

    k = 0
    fine_done = 0
    while fine_done < config.n_steps:
        n_fine = min(burst_fine, config.n_steps - fine_done)
        fine = block[:, :n_fine]
        for row, gen in enumerate(gens):
            gen.standard_normal(out=fine[row])
        fine *= sqdt_fine
        if coarsen > 1:
            steps = coarse[:, :n_fine // coarsen]
            np.sum(fine.reshape(b, n_fine // coarsen, coarsen, m), axis=2, out=steps)
        else:
            steps = fine
        fine_done += n_fine

        n_burst = steps.shape[1]
        for j in range(n_burst):
            dwk = steps[:, j]
            if pointwise:
                np.matmul(dwk, synth[:m], out=w_vals)
            s = j % span
            if halves and s == 0:
                n = min(span, n_burst - j)
                rows = steps[:, j:j + n].transpose(1, 0, 2)
                # a left-half node stands for itself and its mirror: weight 2
                np.multiply(rows[:, :, 0::2], 2.0, out=dw_odd[:n])
                np.multiply(rows[:, :, 1::2], 2.0, out=dw_even[:n])
                odd_in = dw_odd[:n].reshape(n * b, -1)
                even_in = dw_even[:n].reshape(n * b, -1)
                for map_odd, map_even, w in noise_maps:
                    np.matmul(odd_in, map_odd, out=w[0, :n].reshape(n * b, -1))
                    np.matmul(even_in, map_even, out=w[1, :n].reshape(n * b, -1))
                if on_grid and g % 2:
                    w_grid[:, :n, :, -1] *= 0.5  # the centre node is its own mirror
            for i, level in enumerate(levels):
                pos, vel = states[level]
                new_pos, new_vel, tmp = scratch[level]
                with np.errstate(over="ignore", invalid="ignore"):
                    if dense:
                        s_level = synth[:level]
                        np.matmul(pos, s_level, out=u)
                    if pointwise:
                        np.multiply(_on_grid(spec.pointwise_b, grid.nodes, u), w_vals, out=bw)
                        np.matmul(bw, s_level.T, out=tmp)
                        tmp /= grid.intervals
                        vel += tmp
                    if level in halves:
                        w, (s_odd, s_even, p_odd, p_even,
                            v_odd, v_even, o_vals, e_vals, x, y) = halves[level]
                        w_odd, w_even = w[0, s], w[1, s]
                        np.copyto(v_odd, pos[:, 0::2])
                        np.copyto(v_even, pos[:, 1::2])
                        np.matmul(v_odd, s_odd, out=o_vals)
                        np.matmul(v_even, s_even, out=e_vals)
                        # B = O_v E_w + E_v O_w, the part odd about x = 1/2
                        np.multiply(o_vals, w_even, out=x)
                        np.multiply(e_vals, w_odd, out=y)
                        x += y
                        # A = O_v O_w + E_v E_w, the even part
                        o_vals *= w_odd
                        e_vals *= w_even
                        o_vals += e_vals
                        np.matmul(o_vals, p_odd, out=v_odd)
                        np.matmul(x, p_even, out=v_even)
                        if beta != 1.0:
                            v_odd *= beta
                            v_even *= beta
                        vel[:, 0::2] += v_odd
                        vel[:, 1::2] += v_even
                    if alpha != 0.0:
                        kk = min(level, m)
                        vel[:, :kk] += alpha * dwk[:, :kk]
                    if drift is not None:
                        np.matmul(_on_grid(drift, grid.nodes, u), s_level.T, out=tmp)
                        tmp /= grid.intervals
                        tmp *= dt
                        vel += tmp
                    # a non-finite field makes the rotated rows non-finite,
                    # so this one probe names the path of every blow-up
                    cos_t, sin_over_mu, neg_mu_sin = tables[level]
                    np.multiply(pos, cos_t, out=new_pos)
                    np.multiply(vel, sin_over_mu, out=tmp)
                    new_pos += tmp
                    np.multiply(pos, neg_mu_sin, out=new_vel)
                    np.multiply(vel, cos_t, out=tmp)
                    new_vel += tmp
                    _raise_if_nonfinite(k, level, path_indices, new_pos, new_vel)
                states[level] = (new_pos, new_vel)
                scratch[level] = (pos, vel, tmp)
                if observe is not None:
                    observe(i, k + 1, new_pos, new_vel)
            k += 1

    out = {}
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


def _raise_if_nonfinite(step_index, level, path_indices, pos, vel):
    """Raise BlowUpError naming the first path whose row of pos or vel is not finite."""
    # a NaN or infinity poisons the sums; locate precisely only then
    if math.isfinite(np.add.reduce(pos, None) + np.add.reduce(vel, None)):
        return
    finite = np.logical_and.reduce([np.isfinite(f).all(axis=1) for f in (pos, vel)])
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise BlowUpError(step_index, level=level, path_index=path_indices[bad])


# mc.run_study's moment monitor calls this here, where perfbench/tracing.py counts it
def _record_moment(out, pos, vel, w_pos, w_vel):
    """out[:] = (sum, sum of squares) over paths of the weighted squared norms."""
    sq = (pos * pos) @ w_pos + (vel * vel) @ w_vel
    out[0] = sq.sum()
    out[1] = sq @ sq
