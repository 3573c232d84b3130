"""Exponential-Euler time stepping of the Galerkin system in mild form.

One step over dt composes the coefficient increments evaluated at the left
endpoint with the exact wave group:

    x_{k+1} = e^{A dt} ( x_k + dt F(x_k) + B(x_k) dW_k )

The exact group action removes all stiffness from the linear part, so no
CFL-type restriction ties dt to the finest frequency; the leftover temporal
error is meant to stay subdominant to the spatial one.  The acceptance tests
check that (criterion 7): the flagship study rerun with the step count halved,
``run_study(coarsen=2)``, moves no level's weak error by a third of itself.

Path coupling: every path owns a deterministic noise stream derived from
(master seed, path index); all Galerkin levels of a coupled run consume the
identical increments, so the only varying discretization parameter is the
level.  A coarsening factor re-aggregates the same Brownian path at a larger
step, which isolates the temporal discretization effect when halving the
step count.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
# numpy 2 imports its random module lazily: load it with the package, not
# inside the first study
import numpy.random  # noqa: F401

from .coefficients import CoefficientSpec, diffusion_vel, drift_vel
from .propagator import propagate_arrays, rotation_tables
from .spectral import (GridWorkspace, PairState, SpectralModel, _cos_sine_inner, _dct1,
                       pair_norm_sq, pair_weights)

__all__ = [
    "BlowUpError",
    "SimConfig",
    "path_seed",
]


class BlowUpError(RuntimeError):
    """A simulated state, or a squared norm of it, left the finite range;
    carries provenance.  step_index is the time-grid index of the first bad
    state, 0 for the initial state; what is not known is left out."""

    def __init__(self, step_index=None, level=None, path_index=None,
                 what="non-finite state"):
        self.step_index = step_index
        self.level = level
        self.path_index = path_index
        where = ", ".join(f"{name} {val}" for name, val in (
            ("step", step_index), ("level", level), ("path", path_index)) if val is not None)
        super().__init__(f"{what} at {where}" if where else what)


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
    # the quadrature grid of pointwise and drift fields; an Anderson product
    # runs on a grid sized by its level and m_noise alone.  0 selects the
    # default 4 * max(n_ref, m_noise)
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
        need = max(self.model.n_modes, self.m_noise)
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
         grid: GridWorkspace, model: SpectralModel) -> PairState:
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
        raise BlowUpError()
    return PairState(new_pos, new_vel)


# --- the stepping engine --------------------------------------------------
#
# Every command (studies, ``specwave simulate`` on a block of one path, and
# ``validate``) advances blocks of paths at once through ``run_chunk``, with
# the sine synthesis and the exact product realized as cached dense matrices
# so every step reduces to a few BLAS products.
#
# Every Anderson product (alpha + beta v) dW of level L follows one rule.
# For j <= L, <e_j, v w> = <e_j v, w> = <v, e_j w>, so the factor with more
# modes (the noise w when L <= m_noise, the position v when L > m_noise) may
# be replaced by its cosine projection of degree <= d = L + min(L, m_noise),
# while the other is sampled as sines; a DST-I on the d interior nodes
# q/(d+1) then returns the first L sine coefficients of the product
# unaliased.  ``_engine_tables(L, d)`` caches the level's map and the
# analysis, ``_noise_map(m_noise, d)`` the noise's, each split as below;
# neither grid_points nor a drift moves the product.
#
# Each product is formed from the mirror symmetry x -> 1 - x of its nodes:
# e_n and its cosine projection take the sign (-1)^(n+1) there, and so do
# the analysis's column n and the noise values of mode n.  Split into odd
# modes O (even about x = 1/2) and even modes E (odd about it), the product
# v w = (O_v O_w + E_v E_w) + (O_v E_w + E_v O_w) is an even part A, which
# only the odd modes see, and an odd part B, which only the even modes see.
# So each level-step forms O_v and E_v on the left half of the nodes (the
# centre node of an odd grid included, where E vanishes) and analyzes 2A
# onto the odd and 2B onto the even modes: three pairs of half-size GEMMs in
# place of three full ones.
#
# Only those halves are cached, each in its own read-only C-ordered buffer,
# so no GEMM reads a strided view and no full table is kept.  The map halves
# are stored as (modes x h) arrays; the analysis halves, (h x modes) GEMM
# operands, as their C-ordered transposes read through ``.T``.  With that
# layout a GEMM gives the bits it gives on the strided column slices of the
# full analysis, at every block size measured (1 to 512 paths); a plain
# C-ordered copy does not, as OpenBLAS then picks other kernels (at a single
# path on every grid measured, at every block size on some).  The node
# weights, 2 for a node and its mirror and 1 for the centre, are folded into
# the noise map halves; they are exact powers of two, so folding them in
# changes no bit of the noise values.
#
# The noise values do not depend on the state, so one GEMM pair per level
# forms them for a span of steps of the current burst at once: the span's
# increments, stacked as (span * paths, modes / 2), meet the same map, and
# each level-step reads its step's rows.  The span is sized from the block's
# path count and m_noise alone (``_NOISE_SPAN_BYTES``), never from the levels
# run, so a level run alone sees the GEMM shapes it sees run coupled.  A
# 512-path block with m_noise > 32 keeps one step per span; a single path
# on the flagship takes 128.
#
# Pointwise b(x, v) dW and the drift f(x, v) read the position synthesized
# on the config grid of grid_points nodes, the only use of that grid, and
# are analyzed with the transposed synthesis table (the discrete
# sine transform restricted to the level's modes).  Semantics are those of a
# loop of ``step`` per path and level under the path's increments; terminal
# states agree with that loop to floating-point reassociation (~1e-15), which
# the test suite pins at 1e-12.
#
# Each level's state is one C-ordered (2, paths, modes) array x, positions
# in x[0] and velocities in x[1], both contiguous views.  The wave group
# rotates x in place: tmp = x[::-1] * (sin/mu, -mu sin), x *= cos, x += tmp,
# element by element the products and sums of ``propagate`` (the velocity's
# two terms added in swapped order, which IEEE addition allows bit for bit).
# One finiteness probe reads all of x, and one error state quiets overflow
# and invalid operations over the whole stepping loop and its observers.
#
# The working set of one call on b paths is, in doubles: the states, 2 b L
# per level L; the noise values, 2 span b h per level, with h = (L +
# min(L, m_noise) + 1) // 2; one noise burst; and one scratch array.  The
# scratch is sized by its two block-wide users: the span's increments split
# by mode parity (span b m_noise, when a product runs), read only by the
# noise GEMMs at the start of a span, and, per level-step, a pointwise or
# drift field or the observer's square (b L for the largest level), lent
# when nothing live is held there; run_study's moment monitor squares pos
# and then vel into it, each meeting its weights in one GEMV over the block.
# Everything else a level-step keeps in the scratch is local to a path's
# row, so the product and the rotation run over tiles of t rows: t is the
# largest multiple of 64 with t max(2 L, L + 2 h) within that size, and a
# remainder of fewer than 64 rows joins the tile before.  A level of which
# fewer than 64 rows fit runs in one tile (so does b < 64, a single path, or
# a run with no product, no dense field and no observer), and the scratch
# grows to hold the largest tile.  Within a tile the scratch holds the
# tile's parity halves of the position (t L together), followed by two
# left-half fields o_vals and e_vals (t h each); once the synthesis has
# read the halves, B's first term O_v E_w takes their place.
# E_v E_w is written over the tile's rows of the step's even noise values
# and E_v O_w over e_vals, and the analysis writes the product's odd- and
# even-mode coefficients over the fronts of those rows (h >= ceil(L / 2)):
# each step's noise values are read by that one level-step alone.  Then
# each rotation tile holds its tmp (2 t L).
#
# A tile must leave every GEMM's bits as the whole block gives them.  In
# numpy's bundled OpenBLAS (the SkylakeX kernels), a row of a GEMM over a
# tile that starts on a 16-row boundary keeps its bits for the flagship's
# tables, but not for every shape: the small-matrix kernels, and the
# kernels for a column count above 192 that is not a multiple of 8, sum a
# row in an order that depends on the row count, and one row goes to GEMV.
# So tiles hold multiples of 64 rows, and ``_tiles_keep_bits`` measures,
# once per shape, that the tiled GEMMs give the whole block's bits; where
# they do not, the level runs in one tile.  The rotation is elementwise.
#
# The burst, the noise values, the generators and the scratch die with
# ``_step_block``'s frame, so after the last step only the states are left:
# the strong gaps difference each level against the reference in two
# b x n_ref arrays of their own, which with the functional's and the gaps'
# temporaries (2 b n_ref) take the freed room.  Each call allocates its own
# scratch, so concurrent blocks share none.  On a flagship block (b = 512)
# the reference runs in four tiles of 128 rows and the levels in one, the
# scratch is 131 072 doubles, the block 11.5 MB, and tracemalloc reads
# 12.1 MB with the moment monitor.

def _sine_synthesis(n_modes: int, p: int) -> np.ndarray:
    """e_n at the interior nodes q/p: entry [n-1, q-1] for n <= n_modes, q < p."""
    q = np.arange(1, p, dtype=np.float64)
    n = np.arange(1, n_modes + 1, dtype=np.float64)
    return np.sqrt(2.0) * np.sin(np.pi * np.outer(n, q) / p)


def _cosine_projection(n_modes: int, nodes: int) -> np.ndarray:
    """sum_{p<=nodes} c_p <cos p pi ., e_n> cos p pi x (c_0 = 1, c_p = 2), the
    cosine projection of e_n, at the nodes q/(nodes+1); row n-1 for mode n.

    The closed-form inner products (``_cos_sine_inner``) are folded with the
    cosine synthesis by a DCT-I, an FFT, so the bytes do not depend on the
    BLAS thread count active at the build.
    """
    p = nodes + 1
    cos_e = _cos_sine_inner(nodes, n_modes).T
    return np.ascontiguousarray(_dct1(cos_e[:, 1:p], cos_e[:, 0])[:, 1:p])


def _parity_rows(table: np.ndarray, h: int, weights=1.0):
    """Read-only C-ordered copies of table's odd-mode (rows 0, 2, ...) and
    even-mode rows on its first h columns, times weights."""
    halves = tuple(table[p::2, :h] * weights for p in (0, 1))
    for a in halves:
        a.setflags(write=False)
    return halves


@lru_cache(maxsize=16)
def _engine_tables(level: int, nodes: int):
    """Level L's Anderson product tables on d = nodes nodes, split by mirror parity.

    Returns (map_odd, map_even, analysis_odd, analysis_even).  The map halves
    are the odd-mode (n = 1, 3, ...) and even-mode rows, on the h = (d+1)//2
    left-half nodes, of the level map: e_n at the nodes, or its cosine
    projection when d < 2L.  The analysis halves are the h left-half rows of
    the DST-I synth^T/(d+1) at the odd and even mode columns, stored as
    C-ordered (modes x h) arrays and returned as their transposes ``.T``,
    the layout that keeps a GEMM's bits at every block size (see the engine
    notes above).  Each is a read-only copy; no full table is kept.
    """
    h = (nodes + 1) // 2
    synth = _sine_synthesis(level, nodes + 1)
    level_map = synth if nodes >= 2 * level else _cosine_projection(level, nodes)
    analysis_t = _parity_rows(synth / (nodes + 1), h)
    return (*_parity_rows(level_map, h), *(a.T for a in analysis_t))


@lru_cache(maxsize=16)
def _noise_map(m_noise: int, nodes: int):
    """(map_odd, map_even): the odd- and even-mode rows, on the h = (d+1)//2
    left-half nodes, of the map of noise increments to values at d = nodes
    nodes (of the noise's cosine projection when d <= 2 m_noise, else of e_k
    itself), C-ordered and read-only, with the node weights folded in: 2 for
    a node standing for itself and its mirror, 1 for an odd grid's centre,
    its own mirror.  Both are exact powers of two, so no bit changes."""
    noise = (_cosine_projection(m_noise, nodes) if nodes <= 2 * m_noise
             else _sine_synthesis(m_noise, nodes + 1))
    h = (nodes + 1) // 2
    weights = np.full(h, 2.0)
    if nodes % 2:
        weights[-1] = 1.0
    return _parity_rows(noise, h, weights)


@lru_cache(maxsize=1)
def _blas_thread_api():
    """(get, set) thread-count functions of numpy's bundled scipy-openblas64.

    None when numpy links some other BLAS; the pin is then a no-op.
    """
    libdir = os.path.dirname(np.__file__) + ".libs"
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas64_*")):
        lib = ctypes.CDLL(path)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


# the BLAS thread count is process-wide: concurrent runs share one pin, and
# the last to finish restores the count found by the first
_blas_lock = threading.Lock()
_blas_holders = 0
_blas_saved = 0


@contextmanager
def _single_blas_thread():
    """Hold numpy's OpenBLAS to one thread; a no-op when it cannot be found."""
    global _blas_holders, _blas_saved
    get, put = _blas_thread_api() or (lambda: 1, lambda n: None)
    with _blas_lock:
        if _blas_holders == 0:
            _blas_saved = get()
            put(1)
        _blas_holders += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_holders -= 1
            if _blas_holders == 0:
                put(_blas_saved)


# noise is streamed in bursts of at most this many bytes (and at least one
# step) through one buffer per call; values are identical to drawing the
# whole block at once.  Each path's standard_normal call releases and retakes
# the GIL, so smaller bursts cost time under worker threads: on a 2 vCPU
# Xeon, three interleaved flagship runs with 1 MiB bursts on two worker
# threads were 6-24% slower than with 4 MiB, while two concurrent one-worker
# processes were not consistently slower (-2% to +7%).  4 MiB, four steps of
# a flagship block, ran as fast as 8 MiB with half the buffer
_NOISE_BURST_BYTES = 4 << 20
# the weighted noise values are formed for as many steps at once as fit this
# many bytes of increments (and at least one step)
_NOISE_SPAN_BYTES = 256 << 10


def _coarse_steps(n_steps: int, coarsen: int) -> int:
    """The step count n_steps / coarsen of a run coarsened by that factor."""
    if coarsen < 1 or n_steps % coarsen:
        raise ValueError(f"coarsen={coarsen} must be a positive divisor of n_steps={n_steps}")
    return n_steps // coarsen


@_single_blas_thread()
def run_chunk(config: SimConfig, levels: tuple[int, ...], path_indices: range,
              master_seed: int, *, coarsen: int = 1, phi=None,
              strong_vs_first: bool = False, observe=None):
    """Advance one block of coupled paths through all requested levels.

    The call runs on one BLAS thread, so no sum's order depends on the
    caller's BLAS thread count, restored on return.

    Returns a dict holding, per level, the terminal (pos, vel) under
    ``"states"``: the views x[0] and x[1] of its (2, paths, modes) state x,
    one row per path, not copies.  ``phi`` adds the functional values per
    path and level under ``"phi"``; ``strong_vs_first`` the squared
    pair-space gaps to levels[0], the reference, under ``"strong_sq"``.
    ``observe(i, k, pos, vel, square)``, if given, sees the views of levels[i]'s
    state at every step k = 0..n_steps/coarsen, inside the engine's error state,
    and ``square``, scratch of their shape that it may overwrite (the moment
    monitor squares into it); all are valid only during the call.
    """
    b = len(path_indices)
    if b < 1:
        raise ValueError(f"path_indices must hold at least one path, got {path_indices}")
    for level in levels:
        if not 1 <= level <= config.n_ref:
            raise ValueError(f"level {level} outside 1..{config.n_ref}")
    # the noise buffers, the generators and the scratch die with
    # _step_block's frame, before the functional and the gaps allocate
    # their temporaries
    states = _step_block(config, levels, path_indices, master_seed, coarsen, observe)
    model = config.model
    out = {"states": states}
    if phi is not None:
        out["phi"] = np.column_stack([phi.evaluate_batch(*st, model) for st in states])
    if strong_vs_first:
        ref_pos, ref_vel = states[0]
        weights = pair_weights(model, levels[0], 0.0)
        gaps = np.empty((b, len(levels) - 1))
        dp, dv = np.empty_like(ref_pos), np.empty_like(ref_vel)
        for j, (level, (pos, vel)) in enumerate(zip(levels[1:], states[1:])):
            np.copyto(dp, ref_pos)
            dp[:, :level] -= pos
            np.copyto(dv, ref_vel)
            dv[:, :level] -= vel
            gaps[:, j] = pair_norm_sq(dp, dv, *weights)
        out["strong_sq"] = gaps
    return out


def _step_block(config, levels, path_indices, master_seed, coarsen, observe):
    """run_chunk's stepping: each level's terminal (pos, vel)."""
    model, spec, grid = config.model, config.spec, config.grid
    b = len(path_indices)
    m = config.m_noise
    k_steps = _coarse_steps(config.n_steps, coarsen)
    dt = config.t_final / k_steps
    sqdt_fine = np.sqrt(config.dt)

    pointwise = spec.diffusion == "pointwise"
    drift = spec.drift
    # the affine coefficient (alpha + beta v) dW of the anderson kind
    alpha, beta = (0.0, 0.0) if pointwise else (spec.alpha, spec.beta)
    g = grid.n_points
    # pointwise and drift fields read the position on the full config grid
    dense = pointwise or drift is not None
    if dense:
        synth = _sine_synthesis(max(model.n_modes, m), g + 1)
        u = np.empty((b, g))
        w_vals = np.empty((b, g)) if pointwise else None
        bw = np.empty((b, g)) if pointwise else None

    # the scratch is sized by its block-wide users, the span's split
    # increments and a dense field or the observer's square; each level's
    # product and rotation then run over as many rows at once as fit (see
    # the engine notes), and only a level of which not one tile fits grows it
    span = max(1, _NOISE_SPAN_BYTES // (8 * b * m))
    size = span * b * m if beta != 0.0 else 0
    if dense or observe is not None:
        size = max(size, b * max(levels, default=0))
    plans = []
    for level in levels:
        nodes = level + min(level, m)
        h = (nodes + 1) // 2
        row = max(2 * level, level + 2 * h) if beta != 0.0 else 2 * level
        bounds = _row_tiles(b, size // row, (level, nodes) if beta != 0.0 else None)
        plans.append((level, nodes, h, bounds))
        size = max(size, row * max(hi - lo for lo, hi in zip(bounds, bounds[1:])))
    scratch = np.empty(size)

    # per level: (level, x, whole, cos_t, sines, tables, products,
    # rotations), all views built here so that the step loop indexes
    # nothing.  whole is a (paths, modes) view of the scratch, a dense
    # field's or the observer's square, and sines = (sin/mu, -mu sin) meets
    # x[::-1].  An Anderson product holds its grid's weighted noise values w
    # (odd/even, step of the span, path, node), formed by one GEMM pair per
    # span (``noise_runs``), and its mirror-half tables; each of its row
    # tiles holds its parity views of pos and vel, its scratch fields, and
    # per step of the span its noise values and the analysis's fronts of
    # them.  Each level keeps its own noise values: in one GEMM over several
    # grids, BLAS may sum a level's columns in an order that depends on the
    # other levels
    runs = []
    noise_runs = []
    for level, nodes, h, bounds in plans:
        x = np.empty((2, b, level))
        x[0] = config.initial.pos[:level]
        x[1] = config.initial.vel[:level]
        pos, vel = x
        cos_t, sin_t, mu = rotation_tables(model, dt, level)
        sines = np.stack([sin_t / mu, -mu * sin_t])[:, None, :]
        whole = _carve(scratch, (b, level))[0] if dense or observe is not None else None
        w, tables, products, rotations = None, None, [], []
        if beta != 0.0:
            w = np.empty((2, span, b, h))
            noise_runs.append((*_noise_map(m, nodes), w.reshape(2, span * b, h)))
            tables = _engine_tables(level, nodes)
        for lo, hi in zip(bounds, bounds[1:]):
            t = hi - lo
            rotations.append((x[:, lo:hi], x[::-1, lo:hi], *_carve(scratch, (2, t, level))))
            if w is None:
                continue
            ko, ke = (level + 1) // 2, level // 2
            slots = [(w[0, s, lo:hi], w[1, s, lo:hi],
                      *_carve(w[0, s, lo:hi].reshape(-1), (t, ko)),
                      *_carve(w[1, s, lo:hi].reshape(-1), (t, ke))) for s in range(span)]
            products.append((pos[lo:hi, 0::2], pos[lo:hi, 1::2],
                             vel[lo:hi, 0::2], vel[lo:hi, 1::2],
                             *_carve(scratch, (t, ko), (t, ke), (t, h), (t, h)),
                             *_carve(scratch, (t, h)), slots))
        runs.append((level, x, whole, cos_t, sines, tables, products, rotations))

    gens = [np.random.default_rng(path_seed(master_seed, idx)) for idx in path_indices]
    burst = max(1, _NOISE_BURST_BYTES // (8 * b * m * coarsen))
    burst_fine = min(burst * coarsen, config.n_steps)
    block = np.empty((b, burst_fine, m))
    coarse = np.empty((b, burst_fine // coarsen, m)) if coarsen > 1 else None
    if noise_runs:
        # the span's increments split by mode parity, read only by the noise GEMMs
        dw_odd, dw_even = _carve(scratch, (span, b, (m + 1) // 2), (span, b, m // 2))

    # a non-finite coefficient field leaves the rotated state non-finite, so
    # the one probe per level-step reports it as a blow-up of its path
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (_, x, whole, *_) in enumerate(runs):
            if observe is not None:
                observe(i, 0, *x, whole)
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
                if noise_runs and s == 0:
                    n = min(span, n_burst - j)
                    rows = steps[:, j:j + n].transpose(1, 0, 2)
                    # no level-step holds the scratch while the span's noise
                    # values are formed
                    np.copyto(dw_odd[:n], rows[:, :, 0::2])
                    np.copyto(dw_even[:n], rows[:, :, 1::2])
                    odd_in = dw_odd[:n].reshape(n * b, -1)
                    even_in = dw_even[:n].reshape(n * b, -1)
                    for map_odd, map_even, w in noise_runs:
                        np.matmul(odd_in, map_odd, out=w[0, :n * b])
                        np.matmul(even_in, map_even, out=w[1, :n * b])
                for i, run in enumerate(runs):
                    level, x, whole, cos_t, sines, tables, products, rotations = run
                    pos, vel = x
                    if dense:
                        s_level = synth[:level]
                        np.matmul(pos, s_level, out=u)
                    if pointwise:
                        np.multiply(_on_grid(spec.pointwise_b, grid.nodes, u), w_vals, out=bw)
                        np.matmul(bw, s_level.T, out=whole)
                        whole /= grid.intervals
                        vel += whole
                    if products:
                        s_odd, s_even, p_odd, p_even = tables
                    for (pos_odd, pos_even, vel_odd, vel_even, v_odd, v_even, o_vals, e_vals,
                         b_part, slots) in products:
                        w_odd, w_even, a_odd, a_even = slots[s]
                        np.copyto(v_odd, pos_odd)
                        np.copyto(v_even, pos_even)
                        np.matmul(v_odd, s_odd, out=o_vals)
                        np.matmul(v_even, s_even, out=e_vals)
                        # B = O_v E_w + E_v O_w, the part odd about x = 1/2,
                        # its first term over the dead parity halves
                        np.multiply(o_vals, w_even, out=b_part)
                        w_even *= e_vals
                        e_vals *= w_odd
                        b_part += e_vals
                        # A = O_v O_w + E_v E_w, the even part
                        o_vals *= w_odd
                        o_vals += w_even
                        # only this level-step reads step s's noise values,
                        # so the analysis writes over them
                        np.matmul(o_vals, p_odd, out=a_odd)
                        np.matmul(b_part, p_even, out=a_even)
                        if beta != 1.0:
                            a_odd *= beta
                            a_even *= beta
                        vel_odd += a_odd
                        vel_even += a_even
                    if alpha != 0.0:
                        kk = min(level, m)
                        vel[:, :kk] += alpha * dwk[:, :kk]
                    if drift is not None:
                        np.matmul(_on_grid(drift, grid.nodes, u), s_level.T, out=whole)
                        whole /= grid.intervals
                        whole *= dt
                        vel += whole
                    # (pos, vel) <- (cos pos + sin/mu vel, cos vel - mu sin pos)
                    for x_rows, swapped, tmp in rotations:
                        np.multiply(swapped, sines, out=tmp)
                        x_rows *= cos_t
                        x_rows += tmp
                    _raise_if_nonfinite(k + 1, level, path_indices, x)
                    if observe is not None:
                        observe(i, k + 1, pos, vel, whole)
                k += 1

    return [(x[0], x[1]) for _, x, *_ in runs]


# a level-step's tiles hold a multiple of this many rows: a whole number of
# every row block of the dgemm kernels in numpy's bundled OpenBLAS, and never
# a single row, which numpy sends to GEMV
_ROW_QUANTUM = 64


def _row_tiles(b, fits, product):
    """Row bounds (0, ..., b) of a level-step's tiles of b paths.

    Each tile holds the largest multiple of _ROW_QUANTUM rows that is at
    most ``fits``, and a remainder below it joins the tile before.  One tile
    holds every row when fewer than _ROW_QUANTUM fit, or when ``product`` =
    (level, nodes) names a product whose GEMMs give some tiled row other bits
    than the whole block (``_tiles_keep_bits``).
    """
    t = fits // _ROW_QUANTUM * _ROW_QUANTUM
    if t < _ROW_QUANTUM or t >= b:
        return (0, b)
    bounds = list(range(0, b, t))
    if b - bounds[-1] < _ROW_QUANTUM:
        bounds.pop()
    bounds = (*bounds, b)
    if product is not None and not _tiles_keep_bits(*product, bounds):
        return (0, b)
    return bounds


@lru_cache(maxsize=16)
def _tiles_keep_bits(level, nodes, bounds):
    """Whether the four GEMMs of level L's product on d = nodes nodes give
    every row the same bits over the row tiles ``bounds`` as over the whole
    block, measured on a probe matrix (see the engine notes): the order of a
    GEMM's sums follows its shape, not its operands' values.
    """
    rng = np.random.default_rng(0)
    for table in _engine_tables(level, nodes):
        a = rng.standard_normal((bounds[-1], table.shape[0]))
        whole = a @ table
        for lo, hi in zip(bounds, bounds[1:]):
            if not np.array_equal(np.ascontiguousarray(a[lo:hi]) @ table, whole[lo:hi]):
                return False
    return True


def _carve(scratch, *shapes):
    """Consecutive C-ordered views of the front of scratch, one per shape."""
    views, at = [], 0
    for shape in shapes:
        n = math.prod(shape)
        views.append(scratch[at:at + n].reshape(shape))
        at += n
    return views


def _on_grid(fn, nodes, v_vals):
    """fn(x, v(x)) on every node of every row, as a C-ordered array."""
    vals = np.asarray(fn(nodes, v_vals), dtype=np.float64)
    return np.ascontiguousarray(np.broadcast_to(vals, v_vals.shape))


def _raise_if_norm_overflow(levels, bad):
    """Raise BlowUpError at the first step k, and there the first level, with
    bad[i, k] set: a squared norm of levels[i]'s finite state at time-grid
    step k, or the square of one, that left the float range."""
    if bad.any():
        k, i = np.argwhere(bad.T)[0]
        raise BlowUpError(int(k), level=levels[i],
                          what="squared norm of a finite state left the float range")


def _raise_if_nonfinite(step_index, level, path_indices, x):
    """Raise BlowUpError naming the first path with a non-finite entry in x[:, path],
    the state at time-grid step step_index."""
    # a NaN or infinity poisons the sum; locate precisely only then
    if not math.isfinite(np.add.reduce(x, None)):
        bad = np.flatnonzero(~np.isfinite(x).all(axis=(0, 2)))
        if bad.size:
            raise BlowUpError(step_index, level=level, path_index=path_indices[bad[0]])


# run_study's observer calls this through the module, where
# perfbench/tracing.py counts it
def _record_moment(out, pos, vel, w_pos, w_vel, square):
    """out[:] = (sum, sum of squares) over paths of the weighted squared
    norms, squaring pos and then vel into ``square``, an array of their shape."""
    sq = np.multiply(pos, pos, out=square) @ w_pos
    sq += np.multiply(vel, vel, out=square) @ w_vel
    out[0] = sq.sum()
    out[1] = sq @ sq
