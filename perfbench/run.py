"""Benchmark of specwave's coupled convergence study.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a specwave checkout.  Each operation is a fresh
Python process (``child.py``) that imports the package from ``src/``, sets
up and calls ``specwave.cli.main``; operations run one after another until
S seconds have passed.  Every operation's outputs are checked, and a few
paths are recomputed by the independent oracle.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  A results file with the raw records and the machine,
versions and thread settings goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3       # set-up-only processes per untraced run, besides the operations
ORACLE_PATHS = 2       # leading paths of a run's first study that the oracle re-runs
CHILD_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "paths_per_s": "paths/s", "steps_per_s": "steps/s",
              "time_to_accuracy_s": "s"}
LEVEL_METRICS = ("ref", 4, 8, 16, 32, 64)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Runner:
    """Starts the operations of one run and keeps their records."""

    def __init__(self, workload, seed: int, work: Path, src: Path):
        self.wl = workload
        self.seed = seed
        self.work = work
        self.config = work / "config.json"
        workload.write_config(self.config)
        path = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self.n_children = 0

    def child(self, **spec) -> dict:
        """Run child.py on SPEC; its result with the parent's spawn time added."""
        k = self.n_children
        self.n_children += 1
        spec = {"config": str(self.config), "tables": self.wl.study, "commands": [],
                "setup_only": False, "trace": False, "probe_levels": [],
                "probe_paths": self.wl.paths, "probe_seed": 0,
                "result": str(self.work / f"result{k}.json"), **spec}
        spec_path = self.work / f"spec{k}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        log = self.work / f"log{k}.txt"
        with open(log, "w", encoding="utf-8") as fh:
            spawn = time.perf_counter()
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                  env=self.env, stdout=fh, stderr=subprocess.STDOUT,
                                  timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"child {k} exited {proc.returncode}:\n"
                               + log.read_text(encoding="utf-8")[-3000:])
        result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
        result["spawn"] = spawn
        return result

    def operation(self, index: int, trace: bool) -> dict:
        wl = self.wl
        seed = workloads.derive_seed(self.seed, index)
        out = self.work / f"op{index}-{'traced' if trace else 'plain'}"
        if wl.study:
            extra = ["--workers", str(wl.workers)] if wl.workers else []
            commands = [["convergence", "--config", str(self.config), "--seed", str(seed),
                         "--paths", str(wl.paths), "--out", str(out), *extra]]
            seeds = [seed]
        else:
            seeds = [workloads.derive_seed(self.seed, index, j) for j in range(wl.paths)]
            commands = [["simulate", "--config", str(self.config), "--seed", str(s),
                         "--out", str(out / f"call{j}")] for j, s in enumerate(seeds)]
        probes = [wl.n_ref, *wl.levels] if trace and wl.study else []
        rec = self.child(commands=commands, trace=trace, probe_levels=probes,
                         probe_seed=seed)
        rec.update(index=index, traced=trace, seeds=seeds, out=str(out))
        return rec


def check_operation(runner: Runner, rec: dict) -> tuple[list[str], float | None]:
    """Problems in one operation's outputs, and a study's finest weak stderr."""
    wl = runner.wl
    out = Path(rec["out"])
    problems = []
    if wl.study:
        if rec["codes"] != [0]:
            return [], None
        problems, stderr = checks.study_outputs(out, wl.levels, wl.paths)
        if rec["index"] == 0 and not rec["traced"]:
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            model = wl.oracle_model(manifest["grid_points"])
            problems += checks.oracle_vs_engine(runner.config, model, rec["seeds"][0],
                                                ORACLE_PATHS)
        return problems, stderr
    theta = wl.config["model"]["theta"]
    for j, (code, seed) in enumerate(zip(rec["codes"], rec["seeds"])):
        if code != 0:
            continue
        problems += checks.simulate_outputs(out / f"call{j}", wl.n_steps, wl.n_ref, theta)
        if j == 0:
            problems += checks.oracle_vs_state(out / f"call{j}" / "state.json",
                                               wl.oracle_model(), seed)
    return problems, None


def end_to_end(wl, probes: list[dict], ops: list[dict], stderrs: list[float]) -> dict:
    med = statistics.median
    cmd = [r["done"] - r["ready"] for r in ops]
    per_op = wl.paths  # paths per study, or simulate calls (one path each)
    if wl.study:
        # study seconds x (finest weak stderr / target)^2, stderr pooled over operations
        tta = med(cmd) * statistics.fmean(s * s for s in stderrs) / wl.target**2
    else:
        # a simulate call carries no Monte Carlo error: one call reaches any target
        tta = med(cmd) / per_op
    return {
        "setup_s": med([r["ready"] - r["spawn"] for r in probes + ops]),
        "wall_s": med([r["done"] - r["spawn"] for r in ops]),
        "cpu_s": med([r["cpu_s"] for r in ops]),
        "peak_rss_mb": med([r["peak_rss_mb"] for r in ops]),
        "paths_per_s": med([per_op / c for c in cmd]),
        "steps_per_s": med([per_op * wl.n_steps / c for c in cmd]),
        "time_to_accuracy_s": tta,
    }


def per_layer(wl, ops: list[dict]) -> dict:
    med = statistics.median
    traced = [r for r in ops if r["traced"]]
    plain = [r for r in ops if not r["traced"]]
    layers = [tracing.summarize(r["trace"]) for r in traced]
    out = {k: (statistics.median_low if unit(k) == "count" else med)(
        [layer[k] for layer in layers]) for k in layers[0]}
    for name in LEVEL_METRICS:
        level = wl.n_ref if name == "ref" else name
        times = [r["probes"].get(str(level), 0.0) for r in traced]
        out[f"integrator.level.{name}_s"] = med(times)
    out["trace.overhead_s"] = (med([r["done"] - r["spawn"] for r in traced])
                               - med([r["done"] - r["spawn"] for r in plain]))
    return out


def unit(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    return "count" if metric.endswith("_calls") else "s"


def environment(wl) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "machine": platform.machine(), "cpu": cpu, "platform": platform.platform(),
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workers": wl.workers,
    }


def run(args, root: Path) -> tuple[dict, list[str]]:
    wl = workloads.WORKLOADS[args.workload]
    work = HERE / "work" / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(wl, args.seed, work, root / "src")
        probes = [] if args.trace else [runner.child(setup_only=True)
                                        for _ in range(SETUP_PROBES)]
        ops, problems, stderrs = [], [], []
        start = time.perf_counter()
        while True:
            # traced runs alternate plain and traced operations on the same seed
            index = len(ops) // 2 if args.trace else len(ops)
            rec = runner.operation(index, trace=bool(args.trace and len(ops) % 2))
            found, stderr = check_operation(runner, rec)
            problems += found
            if stderr is not None:
                stderrs.append(stderr)
            ops.append(rec)
            shutil.rmtree(rec["out"], ignore_errors=True)
            if time.perf_counter() - start >= args.seconds and not (args.trace and len(ops) % 2):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    codes = [c for r in ops for c in r["codes"]]
    ok = [r for r in ops if all(c == 0 for c in r["codes"])]
    metrics = per_layer(wl, ok) if args.trace else end_to_end(wl, probes, ok, stderrs)
    summary = {"correct": not problems, "attempted": len(codes),
               "failed": sum(c != 0 for c in codes),
               "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}}
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(wl), "problems": problems,
        "setup_probes": probes, "operations": ops, **summary}, indent=1), encoding="utf-8")
    return summary, problems


def main(argv=None) -> int:
    # a termination request unwinds like an error, so subprocess.run kills and
    # reaps the running operation and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "specwave" / "__init__.py").is_file():
        print("perfbench: src/specwave not found; run from the root of a specwave "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    summary, problems = run(args, root)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(json.dumps(summary))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
