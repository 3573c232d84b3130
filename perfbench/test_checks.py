"""Fast tests of the benchmark's own checks and tracer.

    python3 -m pytest perfbench -q

They show that the checks pass on correct outputs and reject wrong ones: a
product off by 1e-8 fails the oracle comparison, and a doctored errors.csv
fails the property checks.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import specwave.cli  # noqa: E402
import specwave.mc  # noqa: E402

SEED = 2024


def _small(kind: str) -> workloads.Workload:
    """A small relative of a benchmark workload: same kind, few modes and steps."""
    if kind == "anderson":
        cfg = json.loads(json.dumps(workloads.WORKLOADS["flagship"].config))
        cfg["model"].update(n_ref=16, grid_points=32,
                            initial={"pos": {str(n): 0.5 / n for n in range(1, 16)},
                                     "vel": {"2": 0.3}})
        cfg["noise"]["m_noise"] = 16
    else:
        cfg = json.loads(json.dumps(workloads.WORKLOADS["semilinear"].config))
        cfg["model"].update(n_ref=16,
                            initial={"pos": {str(n): 0.5 / n for n in range(1, 16)},
                                     "vel": {}})
        cfg["noise"]["m_noise"] = 16
    cfg["time"]["n_steps"] = 32
    cfg["study"]["levels"] = [2, 4, 8]
    return workloads.Workload(kind, cfg, "convergence", paths=64, workers=1, target=1.0)


def _config(wl, tmp_path) -> Path:
    path = tmp_path / "config.json"
    wl.write_config(path)
    return path


def _perturbed(pos, dw):
    return oracle.anderson_product(pos, dw) * (1.0 + 1e-8)


@pytest.mark.parametrize("kind", ["anderson", "pointwise"])
def test_oracle_agrees_with_engine(kind, tmp_path):
    wl = _small(kind)
    cfg = _config(wl, tmp_path)
    grid = 32 if kind == "anderson" else 4 * 16  # the documented default grid
    assert checks.oracle_vs_engine(cfg, wl.oracle_model(grid), SEED, 2) == []


def test_perturbed_product_fails_oracle_comparison(tmp_path):
    wl = _small("anderson")
    cfg = _config(wl, tmp_path)
    problems = checks.oracle_vs_engine(cfg, wl.oracle_model(), SEED, 2, product=_perturbed)
    assert problems and all("differs" in p for p in problems)


def test_oracle_agrees_with_simulate_state(tmp_path):
    wl = _small("anderson")
    cfg = _config(wl, tmp_path)
    out = tmp_path / "sim"
    assert specwave.cli.main(["simulate", "--config", str(cfg), "--seed", str(SEED),
                              "--out", str(out)]) == 0
    assert checks.simulate_outputs(out, 32, 16, 1.0) == []
    state = out / "state.json"
    assert checks.oracle_vs_state(state, wl.oracle_model(), SEED) == []
    assert checks.oracle_vs_state(state, wl.oracle_model(), SEED, product=_perturbed)


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("study")
    wl = _small("anderson")
    cfg = _config(wl, tmp)
    out = tmp / "out"
    assert specwave.cli.main(["convergence", "--config", str(cfg), "--seed", str(SEED),
                              "--paths", "64", "--workers", "1", "--out", str(out)]) == 0
    return out


def _doctor(src: Path, dst: Path, row: int, col: int, value: float) -> Path:
    dst.mkdir()
    for name in ("manifest.json", "report.json"):
        (dst / name).write_text((src / name).read_text())
    lines = (src / "errors.csv").read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = repr(value)
    lines[row + 1] = ",".join(cells)
    (dst / "errors.csv").write_text("\n".join(lines) + "\n")
    return dst


def _cell(out: Path, row: int, col: int) -> float:
    return float((out / "errors.csv").read_text().splitlines()[row + 1].split(",")[col])


def test_study_outputs_pass(study):
    problems, stderr = checks.study_outputs(study, (2, 4, 8), 64)
    assert problems == [] and stderr > 0


@pytest.mark.parametrize("what, row, col, scale", [
    ("strong errors", 2, 3, 3.0),      # finest strong error above the coarser ones
    ("sqrt(2/e)", 1, 1, 40.0),         # a weak error beyond the Lipschitz bound
    ("polyfit", 0, 1, 1.001),          # weak fit in report.json no longer matches
    ("n_paths column", 1, 5, 2.0),     # a row claims another path count
    ("non-finite", 0, 2, float("nan")),
])
def test_doctored_errors_csv_fails(study, tmp_path, what, row, col, scale):
    doctored = _doctor(study, tmp_path / "doctored", row, col, _cell(study, row, col) * scale)
    problems, _ = checks.study_outputs(doctored, (2, 4, 8), 64)
    assert any(what in p for p in problems), problems


def test_tracer_loses_no_count_on_more_workers_than_cores(tmp_path):
    wl = _small("anderson")
    cfg = _config(wl, tmp_path)
    blocks = 8
    original = specwave.mc.run_chunk
    tracer = tracing.Tracer()
    switch = sys.getswitchinterval()
    tracer.install()
    sys.setswitchinterval(1e-6)
    try:
        code = specwave.cli.main(["convergence", "--config", str(cfg), "--seed", str(SEED),
                                  "--paths", str(blocks * specwave.mc.CHUNK_PATHS),
                                  "--workers", "4", "--out", str(tmp_path / "out")])
    finally:
        sys.setswitchinterval(switch)
        tracer.uninstall()
    assert code == 0 and specwave.mc.run_chunk is original
    records = tracer.records()
    layers = tracing.summarize(records)
    assert records["missing"] == []
    assert layers["integrator.run_chunk_calls"] == blocks
    # every block's span names the map as its cause, whichever pool thread ran it
    spans = [s for s in records["spans"] if s[2] == "integrator.run_chunk"]
    (map_id,) = [s[0] for s in records["spans"] if s[2] == "mc.map"]
    assert {s[1] for s in spans} == {map_id}
    assert layers["mc.map_s"] > 0 and layers["mc.idle_s"] > -1e-3
    assert layers["integrator.block_max_s"] <= layers["integrator.run_chunk_s"]
    assert 0 < layers["cli.self_s"] < layers["mc.map_s"]
    # the monitor records the initial state and every step, per level and block
    assert records["counts"]["integrator.moment"] == (32 + 1) * blocks * (len(wl.levels) + 1)


def test_derived_seeds_are_stable_and_distinct():
    assert workloads.derive_seed(7, 0) == workloads.derive_seed(7, 0)
    seeds = {workloads.derive_seed(s, i) for s in range(5) for i in range(5)}
    assert len(seeds) == 25 and all(0 <= s < 2**32 for s in seeds)


def test_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    empty = {"spans": [], "counts": {}, "seconds": {}, "direct": {}}
    layers = set(tracing.summarize(empty)) | {"trace.overhead_s"} | {
        f"integrator.level.{n}_s" for n in run.LEVEL_METRICS}
    assert {m["name"] for m in spec["per_layer"]} == layers
    assert all(m["unit"] == run.unit(m["name"]) for m in spec["per_layer"])
