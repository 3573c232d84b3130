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
that is the only level of parallelism.  Each block runs on one BLAS thread
(``integrator.run_chunk`` holds the pin), so engine and BLAS threads do not
compete for the same cores.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import integrator
from .integrator import SimConfig, run_chunk
from .spectral import PairState, pair_norm_sq, pair_weights

__all__ = [
    "CHUNK_PATHS",
    "TestFunctional",
    "exp_neg_norm",
    "cos_pairing",
    "coordinate",
    "StudyReport",
    "run_study",
]

# fixed block size; part of the determinism contract, do not derive from workers
CHUNK_PATHS = 512


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
        return np.exp(-pair_norm_sq(pos, vel, *pair_weights(model, pos.shape[-1], 0.0)))
    return TestFunctional("exp_neg_norm", True, _eval)


def cos_pairing(direction: PairState) -> TestFunctional:
    """phi(x) = cos(<psi, x>) against a fixed pair-space direction psi."""
    def _eval(pos, vel, model, _d=direction):
        n = min(pos.shape[-1], _d.n_modes)
        _, inv_lam = pair_weights(model, n, 0.0)
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
class StudyReport:
    """One study's results, errors in ``config.levels`` order; inputs stay with the caller."""

    weak_error: np.ndarray     # signed mean of D_i
    weak_stderr: np.ndarray
    strong_error: np.ndarray   # sqrt(mean S_i)
    strong_stderr: np.ndarray
    # second-moment monitor, levels ordered (reference, *study levels):
    # mean and standard error of ||X_k||^2 at every time-grid point
    moment_mean: np.ndarray
    moment_stderr: np.ndarray


def _chunks(n_paths: int):
    return [range(lo, min(lo + CHUNK_PATHS, n_paths))
            for lo in range(0, n_paths, CHUNK_PATHS)]


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_chunks(fn, chunks, workers: int | None):
    """Results of fn(chunk) in chunk order, ``workers`` at once."""
    if workers is None:
        workers = _usable_cpus()
    elif workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    workers = min(workers, len(chunks))
    if workers == 1:
        return [fn(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, chunks))


def _mean_stderr(values: np.ndarray):
    n = values.shape[0]
    mean = values.sum(axis=0) / n
    var = ((values - mean) ** 2).sum(axis=0) / (n - 1)
    return mean, np.sqrt(var / n)


def run_study(config: SimConfig, phi: TestFunctional, n_paths: int,
              master_seed: int, *, workers: int | None = None, coarsen: int = 1,
              monitor_rho: float = 0.0) -> StudyReport:
    """Coupled weak/strong error study across all configured levels.

    Errors are measured against ``config.n_ref``, which must exceed every
    study level.  The reference is free of the noise-truncation bias only
    when it carries every noise mode, ``config.n_ref >= config.m_noise``;
    a coarser reference is accepted and reports disclose it.  The report's
    error arrays hold one entry per ``config.levels`` entry, in that order.

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
    k_steps = integrator._coarse_steps(config.n_steps, coarsen)

    phi_vals = np.empty((n_paths, n_levels + 1))
    strong_sq = np.empty((n_paths, n_levels))
    chunks = _chunks(n_paths)
    moment_sums = np.zeros((len(chunks), n_levels + 1, k_steps + 1, 2))
    weights = [pair_weights(config.model, level, monitor_rho) for level in levels_run]

    def work(ci_chunk):
        ci, chunk = ci_chunk
        out = run_chunk(config, levels_run, chunk, master_seed, coarsen=coarsen,
                        phi=phi, strong_vs_first=True, monitor=(weights, moment_sums[ci]))
        phi_vals[chunk.start:chunk.stop] = out["phi"]
        strong_sq[chunk.start:chunk.stop] = out["strong_sq"]

    _map_chunks(work, list(enumerate(chunks)), workers)

    sums = moment_sums.sum(axis=0)
    # a finite state's squared norm, or its square, may overflow: that is
    # raised, never returned as an infinity or a NaN.  The monitor squares
    # each squared norm, so it overflows before the reductions below
    with np.errstate(over="ignore", invalid="ignore"):
        moment_mean = sums[..., 0] / n_paths
        var = np.maximum(sums[..., 1] / n_paths - moment_mean**2, 0.0)
        moment_stderr = np.sqrt(var * (n_paths / (n_paths - 1)) / n_paths)
    integrator._raise_if_norm_overflow(
        levels_run, ~(np.isfinite(moment_mean) & np.isfinite(moment_stderr)))

    diffs = phi_vals[:, :1] - phi_vals[:, 1:]
    weak, weak_se = _mean_stderr(diffs)
    s_mean, s_se = _mean_stderr(strong_sq)
    strong = np.sqrt(s_mean)
    with np.errstate(divide="ignore", invalid="ignore"):
        strong_se = np.where(s_mean > 0, s_se / (2.0 * np.where(s_mean > 0, strong, 1.0)), 0.0)

    return StudyReport(weak, weak_se, strong, strong_se, moment_mean, moment_stderr)

