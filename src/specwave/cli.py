"""Command line front end: simulate, convergence, bound, validate.

Exit codes are part of the contract so CI can gate on them:
0 success, 2 config/schema violation (the message names the field),
3 blow-up during simulation, 4 error estimates indistinguishable from zero,
1 failed check in ``validate``.

Every run writes a manifest (config hash, master seed, level list, noise
truncation, grid size, step count, path count) that reproduces its outputs
byte for byte under the same OpenBLAS kernel.  ``SPECWAVE_SEED`` overrides
the built-in default seed; an explicit ``--seed`` wins over both; a negative
seed exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__, mc
from .analysis import fit_rate, predicted_exponent, theoretical_weak_bound
from .config import (ConfigError, RunSetup, _too_large, declared_bounds, load_bound_params,
                     load_config)
from .integrator import BlowUpError, SimConfig, _raise_if_norm_overflow
from .integrator import step  # noqa: F401  perfbench/tracing.py counts specwave.cli.step
from .mc import run_study
from .spectral import norm_bold_hr  # noqa: F401  perfbench/tracing.py counts it here
from .spectral import pair_norm_sq, pair_weights

DEFAULT_SEED = 12345
# simulate reduces its norm rows this many steps at a time
_NORM_ROWS = 64

__all__ = ["main", "entrypoint"]


def _seed(seed) -> int:
    """seed (from --seed), else SPECWAVE_SEED, else DEFAULT_SEED; checked nonnegative."""
    field = "seed"
    if seed is None:
        field, env = "SPECWAVE_SEED", os.environ.get("SPECWAVE_SEED")
        try:
            seed = DEFAULT_SEED if env is None else int(env)
        except ValueError:
            raise ConfigError(field, f"not an integer: {env!r}") from None
    if seed < 0:
        raise ConfigError(field, f"the seed must be nonnegative, got {seed}")
    return seed


def _fmt(x) -> str:
    return repr(float(x))


def _write_json(path: str, obj) -> None:
    # one string in one write: json.dump with an indent writes piece by piece.
    # Formed before the file is opened, so a refused NaN or infinity leaves none
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _out_dir(args, setup: RunSetup) -> str:
    """The output directory, --out else the config's else ".", created."""
    out_dir, field = (args.out, "out") if args.out else (setup.out_dir or ".", "directory")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(field, f"cannot create output directory {out_dir!r}: "
                                 f"{exc.strerror}") from None
    return out_dir


def _write_manifest(out_dir: str, digest: str, seed: int, cfg: SimConfig,
                    n_paths: int) -> None:
    _write_json(os.path.join(out_dir, "manifest.json"), {
        "config_sha256": digest,
        "master_seed": seed,
        "levels": list(cfg.levels),
        "m_noise": cfg.m_noise,
        "grid_points": cfg.grid_points,
        "n_steps": cfg.n_steps,
        "n_paths": n_paths,
    })


def _build_report(setup: RunSetup, report: mc.StudyReport, n_paths: int, seed: int,
                  declared) -> dict | None:
    """report.json's content for one study, or None where it refuses to fit.

    declared is config.declared_bounds(setup): the weak bound at every study
    level, its exponent pair and the moment envelope, or None without declared
    norms.  Reads nothing but its arguments and writes nothing.
    """
    cfg = setup.config
    weak = np.abs(report.weak_error)
    # refuse to fit noise: every error must clear two standard errors
    if not (np.all(weak > 2.0 * report.weak_stderr)
            and np.all(report.strong_error > 2.0 * report.strong_stderr)):
        return None

    # every sentence below is enforced: run_study rejects a reference that does
    # not exceed the study levels, and the noise clause follows the flag
    carries_noise = cfg.n_ref >= cfg.m_noise
    note = ("weak and strong errors are measured against the finest Galerkin level "
            "as a stand-in for the untruncated limit; the reference exceeds every "
            "study level; ")
    if carries_noise:
        note += "the reference carries every noise mode"
    else:
        note += (f"the reference drops noise modes {cfg.n_ref + 1}..{cfg.m_noise}, "
                 "which the untruncated limit keeps")
    phi = setup.functional
    out = {
        "reference_level": cfg.n_ref,
        "reference_carries_noise": carries_noise,
        "reference_note": note,
        "master_seed": seed,
        "n_paths": n_paths,
        "levels": list(cfg.levels),
        "functional": {"kind": phi.kind, "bounded": phi.bounded,
                       "note": (None if phi.bounded else
                                "outside the bounded-smooth hypotheses of the theory")},
    }
    # each error kind: its per-level errors and the OLS fit of their rate
    for kind, errors, stderr, fitted in (
            ("weak", report.weak_error, report.weak_stderr, weak),
            ("strong", report.strong_error, report.strong_stderr, report.strong_error)):
        fit = fit_rate(list(zip(cfg.levels, fitted)))
        out[kind] = {"errors": [float(v) for v in errors], "stderr": [float(v) for v in stderr],
                     "slope": fit.slope, "intercept": fit.intercept, "r_squared": fit.r_squared}

    # each level's sup over the time grid of the mean square, and its stderr
    rows = np.arange(report.moment_mean.shape[0])
    sup_idx = report.moment_mean.argmax(axis=1)
    sup_mean = report.moment_mean[rows, sup_idx]
    sup_se = report.moment_stderr[rows, sup_idx]
    out["moment_monitor"] = {
        "rho": setup.monitor_rho,
        "levels": [cfg.n_ref, *cfg.levels],
        "sup_mean_square": [float(v) for v in sup_mean],
        "sup_stderr": [float(v) for v in sup_se],
    }

    if declared is not None:
        bounds, expo, envelope = declared
        d = setup.declared
        satisfied = bool(np.all(weak - 3.0 * report.weak_stderr <= np.asarray(bounds)))
        out["bound"] = {
            "gamma": d["gamma"],
            "beta": d["beta"],
            "rho": d["rho"],
            "values": [float(b) for b in bounds],
            "lambda_exponent": expo.lambda_exponent,
            "n_exponent": expo.n_exponent,
            "dominates_measured": satisfied,
        }
        if envelope is not None:
            sups = np.sqrt(sup_mean)
            # 3-stderr slack on the mean square, mapped through the square root
            slack = 3.0 * sup_se / (2.0 * np.maximum(sups, 1e-300))
            ok = bool(np.all(np.maximum(1.0, sups - slack) <= envelope))
            out["moment_monitor"]["envelope"] = envelope
            out["moment_monitor"]["below_envelope"] = ok
    return out


def cmd_simulate(args) -> int:
    setup = load_config(args.config)
    cfg = setup.config
    seed = args.seed
    out_dir = _out_dir(args, setup)

    rho = setup.monitor_rho
    # the weights of norm_bold_hr at r = 0 and r = rho, formed once; at rho = 0
    # both norms are the same number
    w_0 = pair_weights(cfg.model, cfg.n_ref, 0.0)
    w_rho = pair_weights(cfg.model, cfg.n_ref, rho)
    # path 0's (pos, vel) rows are kept _NORM_ROWS steps at a time and their
    # norms reduced a block at once
    k_last = cfg.n_steps
    rows = np.empty((2, _NORM_ROWS, cfg.n_ref))
    norms = np.empty((2, k_last + 1))

    def observe(i, k, pos, vel):
        r = k % _NORM_ROWS
        rows[0, r] = pos[0]
        rows[1, r] = vel[0]
        if r == _NORM_ROWS - 1 or k == k_last:
            block = slice(k - r, k + 1)
            done = rows[:, :r + 1]
            norms[0, block] = np.sqrt(pair_norm_sq(*done, *w_0))
            norms[1, block] = (norms[0, block] if rho == 0.0 else
                               np.sqrt(pair_norm_sq(*done, *w_rho)))

    # the one simulated path is path 0 at the reference level; looked up at
    # call time so that a tracer patched onto mc.run_chunk times it
    (pos, vel), = mc.run_chunk(cfg, (cfg.n_ref,), range(1), seed,
                               observe=observe)["states"]
    _raise_if_norm_overflow((cfg.n_ref,), ~np.isfinite(norms).all(axis=0, keepdims=True))
    terminal = {"level": cfg.n_ref, "t_final": cfg.t_final,
                "pos": pos[0].tolist(), "vel": vel[0].tolist()}

    with open(os.path.join(out_dir, "norms.csv"), "w", encoding="utf-8") as fh:
        fh.write("step,t,norm_h0,norm_hrho\n")
        fh.write("".join(f"{k},{k * cfg.dt!r},{n0!r},{nr!r}\n"
                         for k, (n0, nr) in enumerate(norms.T.tolist())))
    _write_json(os.path.join(out_dir, "state.json"), terminal)
    _write_manifest(out_dir, setup.digest, seed, cfg, 1)
    return 0


def cmd_convergence(args) -> int:
    setup = load_config(args.config)
    cfg = setup.config
    if len(cfg.levels) < 3:
        raise ConfigError("levels", "convergence study needs at least 3 levels")
    seed = args.seed
    n_paths = setup.n_paths if args.paths is None else args.paths
    if n_paths < 2:
        raise ConfigError("paths", f"a study needs at least 2 paths, got {n_paths}")
    if args.workers is not None and args.workers < 1:
        raise ConfigError("workers", f"need at least 1 worker, got {args.workers}")
    # the bound at every level and the moment envelope, checked before the first path
    declared = declared_bounds(setup)
    out_dir = _out_dir(args, setup)

    report = run_study(cfg, setup.functional, n_paths, seed,
                       workers=args.workers, monitor_rho=setup.monitor_rho)

    with open(os.path.join(out_dir, "errors.csv"), "w", encoding="utf-8") as fh:
        fh.write("level,weak_error,weak_stderr,strong_error,strong_stderr,n_paths\n")
        for i, level in enumerate(cfg.levels):
            fh.write(f"{level},{_fmt(report.weak_error[i])},{_fmt(report.weak_stderr[i])},"
                     f"{_fmt(report.strong_error[i])},{_fmt(report.strong_stderr[i])},"
                     f"{n_paths}\n")
    _write_manifest(out_dir, setup.digest, seed, cfg, n_paths)

    out = _build_report(setup, report, n_paths, seed, declared)
    if out is None:
        print("convergence: error estimates indistinguishable from zero at 2 stderr; "
              "not fitting rates", file=sys.stderr)
        return 4
    _write_json(os.path.join(out_dir, "report.json"), out)
    print(json.dumps({"weak_slope": out["weak"]["slope"], "strong_slope": out["strong"]["slope"],
                      "weak_r_squared": out["weak"]["r_squared"]}, sort_keys=True))
    return 0


def cmd_bound(args) -> int:
    params = load_bound_params(args.config)
    try:
        value = theoretical_weak_bound(params)
        expo = predicted_exponent(params.gamma, params.beta)
    except ValueError as exc:
        raise ConfigError("params", str(exc)) from None
    print(json.dumps({
        "bound": value,
        "lambda_exponent": expo.lambda_exponent,
        "n_exponent": expo.n_exponent,
    }, sort_keys=True))
    return 0


def cmd_validate(args) -> int:
    from .validate import run_checks
    results = run_checks()
    width = max(len(r.name) for r in results)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        line = f"{mark}  {r.name.ljust(width)}"
        if r.detail:
            line += f"  {r.detail}"
        print(line)
    failing = [r for r in results if not r.passed]
    if failing:
        print(f"first failing invariant: {failing[0].name}", file=sys.stderr)
        return 1
    return 0


# parse_args leaves the parser as it was, so one serves every call
@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specwave",
        description="Spectral Galerkin stochastic wave simulator and convergence harness",
    )
    parser.add_argument("--version", action="version", version=f"specwave {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one reference-level path")
    sim.add_argument("--config", required=True)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", default=None)
    sim.set_defaults(fn=cmd_simulate)

    conv = sub.add_parser("convergence", help="coupled weak/strong rate study")
    conv.add_argument("--config", required=True)
    conv.add_argument("--seed", type=int, default=None)
    conv.add_argument("--paths", type=int, default=None)
    conv.add_argument("--workers", type=int, default=None,
                      help="path blocks run at once (default: one per usable "
                           "CPU); outputs do not depend on it")
    conv.add_argument("--out", default=None)
    conv.set_defaults(fn=cmd_convergence)

    bnd = sub.add_parser("bound", help="evaluate the explicit weak-error bound")
    bnd.add_argument("--config", required=True, help="bound parameter JSON file")
    bnd.set_defaults(fn=cmd_bound)

    val = sub.add_parser("validate", help="check the installed numerics")
    val.set_defaults(fn=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if hasattr(args, "seed"):
            args.seed = _seed(args.seed)
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return 3
    except (MemoryError, ValueError) as exc:
        # a size no check above bounds, such as time.n_steps or --paths
        if not _too_large(exc):
            raise
        print(f"config error: {ConfigError('config', str(exc))}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
