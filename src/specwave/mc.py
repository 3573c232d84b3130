"""Monte Carlo estimation of weak and strong Galerkin errors.

The study drives every path once through all levels plus the reference under
common random numbers and accumulates, per path,

    D_i = phi(X_T^ref) - phi(X_T^N)          (weak differences)
    S_i = || X_T^ref - X_T^N ||^2            (squared pair-space gaps)

reporting mean(D) with its standard error and sqrt(mean(S)) with a
delta-method standard error.  Coupling leaves the weak estimator unbiased
for the difference of expectations and only shrinks its variance.

The reference level stands in for the untruncated limit, and reports
disclose the substitution.  Its bias is controlled by the noise, not by the
study levels: a reference with n_ref < m_noise drops the noise modes
n_ref+1..m_noise, which the limit keeps, so every level is measured against
the same wrong target and the finest errors shrink too fast.  A reference
that carries every noise mode (n_ref >= m_noise) leaves only the Galerkin
truncation beyond n_ref.

Determinism: paths are processed in fixed-size blocks, per-path results land
in arrays indexed by path, and every reduction runs over those arrays in a
fixed order, so results are bitwise independent of the worker count.

Parallelism: ``workers`` blocks run at once, by default one per usable CPU;
that is the only level of parallelism.  While a study runs, the OpenBLAS that
numpy bundles is held to one thread, so engine and BLAS threads do not compete
for the same cores and no product's summation order depends on the BLAS
thread setting.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import integrator
from .integrator import SimConfig, run_chunk
from .spectral import PairState, SpectralModel

__all__ = [
    "CHUNK_PATHS",
    "TestFunctional",
    "exp_neg_norm",
    "cos_pairing",
    "coordinate",
    "ErrorTable",
    "StudyReport",
    "estimate_functional",
    "run_study",
]

# fixed block size; part of the determinism contract, do not derive from workers
CHUNK_PATHS = 512


def _h0_sq(pos, vel, model: SpectralModel):
    inv_lam = 1.0 / model.abs_lam(pos.shape[-1])
    return (pos * pos).sum(axis=-1) + (vel * vel * inv_lam).sum(axis=-1)


@dataclass(frozen=True)
class TestFunctional:
    """Scalar observable of the terminal state.

    ``bounded`` marks membership in the twice-differentiable bounded class
    required by the weak-rate theory; coordinate functionals are unbounded
    and reports flag them as outside those hypotheses.
    """

    kind: str
    bounded: bool
    evaluate_batch: Callable  # (pos (B,N), vel (B,N), model) -> (B,)


def exp_neg_norm() -> TestFunctional:
    """phi(x) = exp(-||x||^2) at smoothness zero; bounded with two bounded derivatives."""
    def _eval(pos, vel, model):
        return np.exp(-_h0_sq(pos, vel, model))
    return TestFunctional("exp_neg_norm", True, _eval)


def cos_pairing(direction: PairState) -> TestFunctional:
    """phi(x) = cos(<psi, x>) against a fixed pair-space direction psi."""
    def _eval(pos, vel, model, _d=direction):
        n = min(pos.shape[-1], _d.n_modes)
        inv_lam = 1.0 / model.abs_lam(n)
        ip = pos[..., :n] @ _d.pos[:n] + (vel[..., :n] * inv_lam) @ _d.vel[:n]
        return np.cos(ip)
    return TestFunctional("cos_pairing", True, _eval)


def coordinate(mode: int, component: str) -> TestFunctional:
    """Single coefficient readout (1-based mode); unbounded, outside the theory."""
    if component not in ("pos", "vel"):
        raise ValueError("component must be 'pos' or 'vel'")
    if mode < 1:
        raise ValueError("mode index is 1-based")

    def _eval(pos, vel, model, _m=mode - 1, _c=component):
        arr = pos if _c == "pos" else vel
        if _m >= arr.shape[-1]:
            return np.zeros(arr.shape[:-1])
        return arr[..., _m].copy()
    return TestFunctional("coordinate", False, _eval)


@dataclass(frozen=True)
class ErrorTable:
    """Per-level coupled Monte Carlo errors; path count shared by design."""

    levels: tuple[int, ...]
    weak_error: np.ndarray     # signed mean of D_i
    weak_stderr: np.ndarray
    strong_error: np.ndarray   # sqrt(mean S_i)
    strong_stderr: np.ndarray
    n_paths: int


@dataclass(frozen=True)
class StudyReport:
    """Everything a convergence run produces besides rate fits."""

    table: ErrorTable
    reference_level: int
    master_seed: int
    functional_kind: str
    functional_bounded: bool
    monitor_rho: float | None
    # second-moment monitor, levels ordered (reference, *study levels):
    # mean and standard error of ||X_k||^2 at every time-grid point
    moment_mean: np.ndarray | None
    moment_stderr: np.ndarray | None


def _chunks(n_paths: int):
    return [range(lo, min(lo + CHUNK_PATHS, n_paths))
            for lo in range(0, n_paths, CHUNK_PATHS)]


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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


# the BLAS thread count is process-wide: concurrent studies share one pin,
# and the last to finish restores the count found by the first
_blas_lock = threading.Lock()
_blas_holders = 0
_blas_saved = 0


@contextmanager
def _single_blas_thread():
    """Hold numpy's OpenBLAS to one thread; a no-op when it cannot be found."""
    global _blas_holders, _blas_saved
    api = _blas_thread_api()
    if api is None:
        yield
        return
    get, put = api
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


def _map_chunks(fn, chunks, workers: int | None):
    """Results of fn(chunk) in chunk order, ``workers`` at once, on one BLAS thread."""
    if workers is None:
        workers = _usable_cpus()
    elif workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    workers = min(workers, len(chunks))
    with _single_blas_thread():
        if workers == 1:
            return [fn(c) for c in chunks]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, chunks))


def _mean_stderr(values: np.ndarray):
    n = values.shape[0]
    mean = values.sum(axis=0) / n
    var = ((values - mean) ** 2).sum(axis=0) / (n - 1)
    return mean, np.sqrt(var / n)


def estimate_functional(phi: TestFunctional, config: SimConfig, level: int,
                        n_paths: int, master_seed: int, *, workers: int | None = None):
    """Sample mean and standard error of phi at one level, uncoupled."""
    if n_paths < 2:
        raise ValueError(f"n_paths must be at least 2, got {n_paths}")
    if level != config.n_ref and level not in config.levels:
        raise ValueError(f"level {level} not in configured levels")
    values = np.empty(n_paths)

    def work(chunk):
        out = run_chunk(config, (level,), chunk, master_seed, phi=phi)
        values[chunk.start:chunk.stop] = out["phi"][:, 0]

    _map_chunks(work, _chunks(n_paths), workers)
    mean, se = _mean_stderr(values)
    return float(mean), float(se)


def run_study(config: SimConfig, phi: TestFunctional, n_paths: int,
              master_seed: int, *, workers: int | None = None, coarsen: int = 1,
              monitor_rho: float | None = 0.0) -> StudyReport:
    """Coupled weak/strong error study across all configured levels.

    Errors are measured against ``config.n_ref``, which must exceed every
    study level.  The reference is free of the noise-truncation bias only
    when it carries every noise mode, ``config.n_ref >= config.m_noise``;
    a coarser reference is accepted and reports disclose it.

    ``workers`` path blocks run at once (None: one per usable CPU); the
    results do not depend on it.
    """
    if not config.levels:
        raise ValueError("config.levels must be nonempty for a study")
    if config.n_ref <= max(config.levels):
        raise ValueError("reference resolution must exceed every study level")
    if n_paths < 2:
        raise ValueError(f"n_paths must be at least 2, got {n_paths}")
    levels_run = (config.n_ref, *config.levels)
    n_levels = len(config.levels)
    k_steps = config.n_steps // coarsen

    chunks = _chunks(n_paths)
    phi_vals = np.empty((n_paths, n_levels + 1))
    strong_sq = np.empty((n_paths, n_levels))
    moment_sums = weights = None
    if monitor_rho is not None:
        moment_sums = np.zeros((len(chunks), n_levels + 1, k_steps + 1, 2))
        weights = [(config.model.abs_lam(level) ** monitor_rho,
                    config.model.abs_lam(level) ** (monitor_rho - 1.0))
                   for level in levels_run]

    def work(ci_chunk):
        ci, chunk = ci_chunk
        observe = None
        if moment_sums is not None:
            def observe(i, k, pos, vel):
                integrator._record_moment(moment_sums[ci, i, k], pos, vel, *weights[i])
        out = run_chunk(config, levels_run, chunk, master_seed, coarsen=coarsen,
                        phi=phi, strong_vs_first=True, observe=observe)
        phi_vals[chunk.start:chunk.stop] = out["phi"]
        strong_sq[chunk.start:chunk.stop] = out["strong_sq"]

    _map_chunks(work, list(enumerate(chunks)), workers)

    diffs = phi_vals[:, :1] - phi_vals[:, 1:]
    weak, weak_se = _mean_stderr(diffs)
    s_mean, s_se = _mean_stderr(strong_sq)
    strong = np.sqrt(s_mean)
    with np.errstate(divide="ignore", invalid="ignore"):
        strong_se = np.where(s_mean > 0, s_se / (2.0 * np.where(s_mean > 0, strong, 1.0)), 0.0)

    moment_mean = moment_stderr = None
    if moment_sums is not None:
        sums = moment_sums.sum(axis=0)
        moment_mean = sums[..., 0] / n_paths
        var = np.maximum(sums[..., 1] / n_paths - moment_mean**2, 0.0)
        moment_stderr = np.sqrt(var * (n_paths / (n_paths - 1)) / n_paths)

    table = ErrorTable(config.levels, weak, weak_se, strong, strong_se, n_paths)
    return StudyReport(table, config.n_ref, master_seed, phi.kind, phi.bounded,
                       monitor_rho, moment_mean, moment_stderr)

