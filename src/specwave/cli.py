"""Command line front end: simulate, convergence, bound, validate.

Exit codes are part of the contract so CI can gate on them:
0 success, 2 config/schema violation (the message names the field),
3 blow-up during simulation, 4 error estimates indistinguishable from zero,
1 failed check in ``validate``.

Every run writes a manifest (config hash, master seed, level list, noise
truncation, grid size, step count, path count) sufficient to reproduce its
outputs byte for byte.  ``SPECWAVE_SEED`` overrides the built-in default
seed; an explicit ``--seed`` wins over both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, mc
from .analysis import fit_rate, predicted_exponent, theoretical_weak_bound
from .config import (ConfigError, bound_params_from_declared, config_digest,
                     load_bound_params, load_config)
from .integrator import BlowUpError, SimConfig
from .integrator import step  # noqa: F401  perfbench/tracing.py counts specwave.cli.step
from .mc import run_study
from .spectral import _weighted_norm, norm_bold_hr

DEFAULT_SEED = 12345
# simulate reduces its norm rows this many steps at a time
_NORM_ROWS = 64

__all__ = ["main", "entrypoint"]


def _default_seed() -> int:
    env = os.environ.get("SPECWAVE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError("SPECWAVE_SEED", f"not an integer: {env!r}") from None
    return DEFAULT_SEED


def _fmt(x) -> str:
    return repr(float(x))


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir: str, config_path: str, seed: int, cfg: SimConfig,
                    n_paths: int) -> None:
    _write_json(os.path.join(out_dir, "manifest.json"), {
        "config_sha256": config_digest(config_path),
        "master_seed": seed,
        "levels": list(cfg.levels),
        "m_noise": cfg.m_noise,
        "grid_points": cfg.grid_points,
        "n_steps": cfg.n_steps,
        "n_paths": n_paths,
    })


def cmd_simulate(args) -> int:
    setup = load_config(args.config)
    cfg = setup.config
    seed = args.seed
    out_dir = args.out or setup.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)

    rho = setup.monitor_rho
    # the weights of norm_bold_hr at r = 0 and r = rho, formed once; at rho = 0
    # both norms are the same number
    al = cfg.model.abs_lam(cfg.n_ref)
    with np.errstate(over="ignore"):
        w_0 = (al**0.0, al**-1.0)
        w_rho = (al**rho, al ** (rho - 1.0))
    # path 0's (pos, vel) rows are kept _NORM_ROWS steps at a time and their
    # norms reduced a block at once; the last row is the terminal state
    k_last = cfg.n_steps
    rows = np.empty((2, _NORM_ROWS, cfg.n_ref))
    norms = np.empty((2, k_last + 1))

    def observe(i, k, pos, vel):
        r = k % _NORM_ROWS
        rows[0, r] = pos[0]
        rows[1, r] = vel[0]
        if r == _NORM_ROWS - 1 or k == k_last:
            block = slice(k - r, k + 1)
            norms[0, block] = _weighted_norm(rows[0, :r + 1], rows[1, :r + 1], *w_0)
            norms[1, block] = (norms[0, block] if rho == 0.0 else
                               _weighted_norm(rows[0, :r + 1], rows[1, :r + 1], *w_rho))

    # the one simulated path is path 0 at the reference level, on one BLAS
    # thread as in studies; looked up at call time so that a tracer patched
    # onto mc.run_chunk times it
    with mc._single_blas_thread():
        mc.run_chunk(cfg, (cfg.n_ref,), range(1), seed, observe=observe)
    r = k_last % _NORM_ROWS
    terminal = {"level": cfg.n_ref, "t_final": cfg.t_final,
                "pos": rows[0, r].tolist(), "vel": rows[1, r].tolist()}

    with open(os.path.join(out_dir, "norms.csv"), "w", encoding="utf-8") as fh:
        fh.write("step,t,norm_h0,norm_hrho\n")
        for k, (n0, nr) in enumerate(norms.T):
            fh.write(f"{k},{_fmt(k * cfg.dt)},{_fmt(n0)},{_fmt(nr)}\n")
    _write_json(os.path.join(out_dir, "state.json"), terminal)
    _write_manifest(out_dir, args.config, seed, cfg, 1)
    return 0


def cmd_convergence(args) -> int:
    setup = load_config(args.config)
    cfg = setup.config
    if len(cfg.levels) < 3:
        raise ConfigError("levels", "convergence study needs at least 3 levels")
    seed = args.seed
    n_paths = setup.n_paths if args.paths is None else args.paths
    if n_paths < 2:
        field = "n_paths" if args.paths is None else "paths"
        raise ConfigError(field, f"a study needs at least 2 paths, got {n_paths}")
    if args.workers is not None and args.workers < 1:
        raise ConfigError("workers", f"need at least 1 worker, got {args.workers}")
    bounds = None
    if setup.declared is not None:
        # every bound input but lambda_cut is checked and formed once, before
        # the first path runs
        params, expo = bound_params_from_declared(setup)
        bounds = [theoretical_weak_bound(params(
            lambda_cut=float(cfg.model.theta * np.pi**2 * (level + 1) ** 2)))
            for level in cfg.levels]
    out_dir = args.out or setup.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)

    report = run_study(cfg, setup.functional, n_paths, seed,
                       workers=args.workers, monitor_rho=setup.monitor_rho)
    table = report.table

    with open(os.path.join(out_dir, "errors.csv"), "w", encoding="utf-8") as fh:
        fh.write("level,weak_error,weak_stderr,strong_error,strong_stderr,n_paths\n")
        for i, level in enumerate(table.levels):
            fh.write(f"{level},{_fmt(table.weak_error[i])},{_fmt(table.weak_stderr[i])},"
                     f"{_fmt(table.strong_error[i])},{_fmt(table.strong_stderr[i])},"
                     f"{table.n_paths}\n")
    _write_manifest(out_dir, args.config, seed, cfg, n_paths)

    # refuse to fit noise: every error must clear two standard errors
    weak_ok = np.abs(table.weak_error) > 2.0 * table.weak_stderr
    strong_ok = table.strong_error > 2.0 * table.strong_stderr
    if not (np.all(weak_ok) and np.all(strong_ok)):
        print("convergence: error estimates indistinguishable from zero at 2 stderr; "
              "not fitting rates", file=sys.stderr)
        return 4

    weak_fit = fit_rate(list(zip(table.levels, np.abs(table.weak_error))))
    strong_fit = fit_rate(list(zip(table.levels, table.strong_error)))

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
    out = {
        "reference_level": report.reference_level,
        "reference_carries_noise": carries_noise,
        "reference_note": note,
        "master_seed": seed,
        "n_paths": table.n_paths,
        "levels": list(table.levels),
        "functional": {"kind": report.functional_kind,
                       "bounded": report.functional_bounded,
                       "note": (None if report.functional_bounded else
                                "outside the bounded-smooth hypotheses of the theory")},
        "weak": {
            "errors": [float(v) for v in table.weak_error],
            "stderr": [float(v) for v in table.weak_stderr],
            "slope": weak_fit.slope,
            "intercept": weak_fit.intercept,
            "r_squared": weak_fit.r_squared,
        },
        "strong": {
            "errors": [float(v) for v in table.strong_error],
            "stderr": [float(v) for v in table.strong_stderr],
            "slope": strong_fit.slope,
            "intercept": strong_fit.intercept,
            "r_squared": strong_fit.r_squared,
        },
    }

    if report.moment_mean is not None:
        sup_idx = report.moment_mean.argmax(axis=1)
        levels_all = [report.reference_level, *table.levels]
        out["moment_monitor"] = {
            "rho": report.monitor_rho,
            "levels": levels_all,
            "sup_mean_square": [float(report.moment_mean[i, k])
                                for i, k in enumerate(sup_idx)],
            "sup_stderr": [float(report.moment_stderr[i, k])
                           for i, k in enumerate(sup_idx)],
        }

    if bounds is not None:
        d = setup.declared
        satisfied = bool(np.all(np.abs(table.weak_error) - 3.0 * table.weak_stderr
                                <= np.asarray(bounds)))
        out["bound"] = {
            "gamma": d["gamma"],
            "beta": d["beta"],
            "rho": d["rho"],
            "values": [float(b) for b in bounds],
            "lambda_exponent": expo.lambda_exponent,
            "n_exponent": expo.n_exponent,
            "dominates_measured": satisfied,
        }
        if "moment_f_lip" in d and report.moment_mean is not None:
            env = max(1.0, norm_bold_hr(cfg.initial, report.monitor_rho, cfg.model)) \
                * float(np.exp(cfg.t_final * (d["moment_f_lip"]
                                              + 0.5 * d["moment_b_hs"] ** 2)))
            sup_idx = report.moment_mean.argmax(axis=1)
            sups = np.sqrt(report.moment_mean[np.arange(len(sup_idx)), sup_idx])
            sup_se = report.moment_stderr[np.arange(len(sup_idx)), sup_idx]
            # 3-stderr slack on the mean square, mapped through the square root
            slack = 3.0 * sup_se / (2.0 * np.maximum(sups, 1e-300))
            ok = bool(np.all(np.maximum(1.0, sups - slack) <= env))
            out["moment_monitor"]["envelope"] = env
            out["moment_monitor"]["below_envelope"] = ok

    _write_json(os.path.join(out_dir, "report.json"), out)
    print(json.dumps({"weak_slope": weak_fit.slope, "strong_slope": strong_fit.slope,
                      "weak_r_squared": weak_fit.r_squared}, sort_keys=True))
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
        if hasattr(args, "seed") and args.seed is None:
            args.seed = _default_seed()
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
