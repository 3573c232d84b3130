"""Checks on the outputs of timed runs.  Each returns a list of problems.

Nothing here compares against stored output: the study checks are
properties every correct study has, and the oracle checks recompute paths
with the independent stepper in ``oracle.py``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import oracle

# phi(x) = exp(-||x||^2) is sqrt(2/e)-Lipschitz in ||x||, so for sample means
# |mean(phi_ref - phi_N)| <= sqrt(2/e) mean ||X_ref - X_N|| <= sqrt(2/e) * strong
LIPSCHITZ = math.sqrt(2.0 / math.e)
# oracle against engine: both agree to ~1e-14 relative; a 1e-8 error in the
# product moves phi by ~4e-9
RTOL = 1e-10
ERRORS_HEADER = ["level", "weak_error", "weak_stderr", "strong_error", "strong_stderr",
                 "n_paths"]


def _read_csv(path: Path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _fit(levels, errors):
    """Slope and r^2 of log(error) on log(level) by numpy.polyfit."""
    x, y = np.log(levels), np.log(errors)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (intercept + slope * x)
    return float(slope), float(1.0 - resid @ resid / ((y - y.mean()) @ (y - y.mean())))


def study_outputs(out_dir: Path, levels, n_paths: int) -> tuple[list[str], float | None]:
    """Problems in one convergence run's outputs, and its finest weak stderr."""
    header, rows = _read_csv(out_dir / "errors.csv")
    if header != ERRORS_HEADER:
        return [f"errors.csv header {header}"], None
    table = np.array(rows, dtype=np.float64)
    problems = []
    if table.shape != (len(levels), len(ERRORS_HEADER)):
        return [f"errors.csv has shape {table.shape}"], None
    lv, weak, weak_se, strong, strong_se, paths = table.T
    if list(lv) != list(levels):
        problems.append(f"levels {list(lv)} != {list(levels)}")
    if not np.all(paths == n_paths):
        problems.append(f"n_paths column {paths} != {n_paths}")
    if not np.all(np.isfinite(table)):
        problems.append("errors.csv holds a non-finite value")
    if not np.all(strong > 0) or not np.all(np.diff(strong) < 0):
        problems.append(f"strong errors not positive and strictly decreasing: {strong}")
    if not np.all(np.abs(weak) <= LIPSCHITZ * strong * (1 + 1e-12)):
        problems.append("a weak error exceeds sqrt(2/e) times the strong error")

    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    for name, doc in (("manifest", manifest), ("report", report)):
        if doc["levels"] != list(levels) or doc["n_paths"] != n_paths:
            problems.append(f"{name}.json levels/n_paths {doc['levels']}/{doc['n_paths']}")
    for kind, errors in (("weak", np.abs(weak)), ("strong", strong)):
        fit = report[kind]
        values = [fit["slope"], fit["r_squared"]]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"report.json {kind} fit is not finite")
        elif np.all(errors > 0):
            slope, r2 = _fit(lv, errors)
            if not (_close(slope, fit["slope"]) and _close(r2, fit["r_squared"])):
                problems.append(f"report.json {kind} slope/r2 {values} != polyfit "
                                f"{[slope, r2]}")
    return problems, float(weak_se[-1])


def simulate_outputs(out_dir: Path, n_steps: int, n_ref: int, theta: float) -> list[str]:
    """Problems in one simulate run's outputs."""
    header, rows = _read_csv(out_dir / "norms.csv")
    problems = []
    if header != ["step", "t", "norm_h0", "norm_hrho"]:
        return [f"norms.csv header {header}"]
    norms = np.array(rows, dtype=np.float64)
    if norms.shape != (n_steps + 1, 4) or list(norms[:, 0]) != list(range(n_steps + 1)):
        problems.append(f"norms.csv rows do not run over steps 0..{n_steps}")
    if not np.all(np.isfinite(norms)) or not np.all(norms[:, 2:] > 0):
        problems.append("norms.csv holds a non-finite or non-positive norm")
    state = json.loads((out_dir / "state.json").read_text(encoding="utf-8"))
    pos, vel = np.array(state["pos"]), np.array(state["vel"])
    if state["level"] != n_ref or pos.shape != (n_ref,) or vel.shape != (n_ref,):
        problems.append("state.json is not at the reference level")
        return problems
    if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(vel))):
        problems.append("state.json holds a non-finite value")
    norm = math.sqrt(oracle.h0_sq(pos, vel, theta))
    if not _close(norm, norms[-1, 2], 1e-12):
        problems.append(f"final norm_h0 {norms[-1, 2]} != norm of state.json {norm}")
    return problems


def oracle_vs_engine(config_path: Path, model: oracle.Model, master_seed: int,
                     n_paths: int, product=oracle.anderson_product) -> list[str]:
    """The oracle's per-level phi and gaps against run_chunk on paths 0..n_paths-1."""
    from specwave.config import load_config
    from specwave.integrator import run_chunk

    setup = load_config(str(config_path))
    cfg = setup.config
    levels = (cfg.n_ref, *cfg.levels)
    out = run_chunk(cfg, levels, range(n_paths), master_seed, phi=setup.functional,
                    strong_vs_first=True)
    problems = []
    for path in range(n_paths):
        phi, gaps = oracle.phi_and_strong(model, levels, master_seed, path, product)
        for what, ours, theirs in (("phi", phi, out["phi"][path]),
                                   ("strong gap", gaps, out["strong_sq"][path])):
            rel = np.max(np.abs(ours - theirs) / np.abs(ours))
            if not rel <= RTOL:
                problems.append(f"oracle {what} of path {path} differs by {rel:.2e} relative")
    return problems


def oracle_vs_state(state_path: Path, model: oracle.Model, master_seed: int,
                    product=oracle.anderson_product) -> list[str]:
    """The oracle's terminal reference state against simulate's state.json."""
    state = json.loads(state_path.read_text(encoding="utf-8"))
    pos, vel = oracle.terminal_states(model, (model.n_ref,), master_seed, 0,
                                      product)[model.n_ref]
    problems = []
    for what, ours, theirs in (("pos", pos, state["pos"]), ("vel", vel, state["vel"])):
        rel = np.max(np.abs(ours - np.asarray(theirs))) / np.max(np.abs(ours))
        if not rel <= RTOL:
            problems.append(f"oracle terminal {what} differs by {rel:.2e} relative")
    return problems
