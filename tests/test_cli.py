import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import specwave as sw
from specwave import mc
from specwave.cli import _build_report, _write_json, main
from specwave.config import load_config
from specwave.spectral import pair_norm_sq, pair_weights

from conftest import step_loop

ZERO_CONFIG = {
    "model": {"theta": 1.0, "n_ref": 8,
              "initial": {"pos": {"1": 1.0, "3": 0.5}, "vel": {"2": -0.25}}},
    "time": {"t_final": 1.0, "n_steps": 64},
    "noise": {"m_noise": 8},
    "coefficients": {"preset": "zero"},
    "study": {"levels": [2, 4, 6], "n_paths": 64,
              "functional": {"kind": "exp_neg_norm"}},
}

SMALL_ANDERSON = {
    "model": {"theta": 1.0, "n_ref": 16, "grid_points": 48,
              "initial": {"pos": {"1": 1.0}, "vel": {}}},
    "time": {"t_final": 1.0, "n_steps": 32},
    "noise": {"m_noise": 32},
    "coefficients": {"preset": "anderson"},
    "study": {"levels": [2, 4, 8], "n_paths": 400,
              "functional": {"kind": "exp_neg_norm"}},
}


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj, indent=1), encoding="utf-8")
    return str(path)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def run_python(*args):
    """Run a fresh interpreter on the package under test; text output captured."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sw.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def env_without_blas_setting():
    """os.environ without OPENBLAS_NUM_THREADS, the package under test importable."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sw.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class TestSimulate:
    def test_zero_preset_isometry(self, tmp_path):
        cfg = write_config(tmp_path, ZERO_CONFIG)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--seed", "7", "--out", str(out)]) == 0
        lines = (out / "norms.csv").read_text().strip().splitlines()
        assert lines[0] == "step,t,norm_h0,norm_hrho"
        first = float(lines[1].split(",")[2])
        last = float(lines[-1].split(",")[2])
        assert abs(first - last) < 1e-10

    def test_missing_field_names_it(self, tmp_path, capsys):
        broken = json.loads(json.dumps(ZERO_CONFIG))
        del broken["time"]["n_steps"]
        cfg = write_config(tmp_path, broken)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "n_steps" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_ANDERSON)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", "--config", cfg, "--seed", "5",
                         "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("norms.csv", "state.json", "manifest.json"):
            assert read(outs[0] / fname) == read(outs[1] / fname)

    def test_env_seed_default(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, ZERO_CONFIG)
        out = tmp_path / "env"
        monkeypatch.setenv("SPECWAVE_SEED", "9001")
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["master_seed"] == 9001

    @pytest.mark.parametrize("command, seed_arg, env, field", [
        ("simulate", ["--seed=-1"], None, "seed"),
        ("convergence", ["--seed=-1"], None, "seed"),
        ("simulate", [], "-3", "SPECWAVE_SEED"),
        ("convergence", [], "-3", "SPECWAVE_SEED"),
    ], ids=["simulate-flag", "convergence-flag", "simulate-env", "convergence-env"])
    def test_negative_seed_exits_two_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                      command, seed_arg, env, field):
        # numpy's SeedSequence refuses a negative seed with a traceback, after
        # the output directory was made
        cfg = write_config(tmp_path, ZERO_CONFIG)
        if env is not None:
            monkeypatch.setenv("SPECWAVE_SEED", env)
        out = tmp_path / "neg"
        assert main([command, "--config", cfg, *seed_arg, "--out", str(out)]) == 2
        assert f"(field: {field})" in capsys.readouterr().err
        assert not out.exists()

    def test_blow_up_exit_code(self, tmp_path):
        exploding = json.loads(json.dumps(SMALL_ANDERSON))
        exploding["coefficients"]["beta"] = 1e160
        cfg = write_config(tmp_path, exploding)
        assert main(["simulate", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "x")]) == 3

    def test_nonfinite_drift_blows_up_cleanly(self, tmp_path):
        # the drift overflows on the first step; the one state probe reports
        # it, and no floating-point warning reaches the user
        cfg_obj = json.loads(json.dumps(SMALL_ANDERSON))
        cfg_obj["coefficients"]["drift"] = "1e200*1e200*y"
        cfg = write_config(tmp_path, cfg_obj)
        run = run_python("-m", "specwave.cli", "simulate", "--config", cfg, "--seed", "1",
                         "--out", str(tmp_path / "x"))
        assert run.returncode == 3
        assert "step 1, level 16, path 0" in run.stderr
        assert "RuntimeWarning" not in run.stderr

    def test_blow_up_names_level_and_path(self, tmp_path, capsys):
        exploding = json.loads(json.dumps(SMALL_ANDERSON))
        exploding["model"].update({"n_ref": 8, "grid_points": 32})
        exploding["time"]["n_steps"] = 8
        exploding["noise"]["m_noise"] = 8
        exploding["coefficients"] = {"kind": "anderson", "beta": 1e160}
        exploding["study"]["levels"] = [2, 4]
        cfg = write_config(tmp_path, exploding)
        assert main(["simulate", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "x")]) == 3
        assert re.search(r"step \d+, level 8, path 0$", capsys.readouterr().err.strip())


def _with(obj, **sections):
    """A copy of obj with the given sections updated key by key."""
    out = json.loads(json.dumps(obj))
    for name, fields in sections.items():
        out[name].update(fields)
    return out


RICH_INITIAL = {"initial": {"pos": {"1": 1.0, "3": 0.5}, "vel": {"2": -0.25}}}


class TestSimulateMatchesStepLoop:
    """simulate's norms.csv and state.json against a loop of ``step`` on its path."""

    @pytest.mark.parametrize("config", [
        # 2 n_ref = grid_points: the reference forms its product on the config grid
        _with(SMALL_ANDERSON, model={"grid_points": 32, **RICH_INITIAL},
              noise={"m_noise": 16}),
        # 2 n_ref < grid_points: the reference forms it on its own 2 n_ref nodes
        _with(SMALL_ANDERSON, model=RICH_INITIAL),
        _with(SMALL_ANDERSON, model=RICH_INITIAL,
              coefficients={"preset": "additive-heat-kick", "sigma": 0.7}),
        _with(ZERO_CONFIG),
        _with({**SMALL_ANDERSON, "coefficients": {}}, model=RICH_INITIAL,
              coefficients={"kind": "pointwise", "b": "0.5*sin(y)", "drift": "-tanh(y)"}),
        # the two norm columns differ
        _with(SMALL_ANDERSON, model=RICH_INITIAL, study={"rho_monitor": 0.45}),
    ], ids=["anderson-config-grid", "anderson-own-grid", "additive-heat-kick", "zero",
            "pointwise-drift", "rho-monitor"])
    def test_outputs_match(self, tmp_path, config):
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--seed", "8", "--out", str(out)]) == 0
        setup = load_config(path)
        cfg, rho = setup.config, setup.monitor_rho
        rows = []

        def observe(level, k, state):
            if level == cfg.n_ref:
                rows.append((k, k * cfg.dt, sw.norm_bold_hr(state, 0.0, cfg.model),
                             sw.norm_bold_hr(state, rho, cfg.model)))

        final = step_loop(cfg, 8, 0, observe=observe)[cfg.n_ref]
        got, want = np.loadtxt(out / "norms.csv", delimiter=",", skiprows=1), np.array(rows)
        assert np.array_equal(got[:, :2], want[:, :2])
        assert got[:, 2:] == pytest.approx(want[:, 2:], rel=1e-12, abs=0)
        if rho != 0.0:
            assert np.all(got[:, 3] > 1.5 * got[:, 2])
        state = json.loads(read(out / "state.json"))
        for ours, theirs in ((state["pos"], final.pos), (state["vel"], final.vel)):
            assert np.max(np.abs(np.array(ours) - theirs)) <= 1e-12 * np.max(np.abs(theirs))

    def test_runs_without_the_single_path_stepper(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulate stepped through integrator.step")

        monkeypatch.setattr("specwave.cli.step", refuse)
        monkeypatch.setattr("specwave.integrator.step", refuse)
        cfg = write_config(tmp_path, SMALL_ANDERSON)
        assert main(["simulate", "--config", cfg, "--seed", "8",
                     "--out", str(tmp_path / "out")]) == 0


ZERO_SMOKE = os.path.join(os.path.dirname(__file__), "..", "configs", "zero_smoke.json")
FLAGSHIP = os.path.join(os.path.dirname(__file__), "..", "configs",
                        "anderson_acceptance.json")


class TestSimulateNormRows:
    """norms.csv, reduced a block of rows at a time, against each step's state."""

    @pytest.mark.parametrize("config", [
        None,
        # 101 rows: one full block of 64 and a partial one; the columns differ
        _with(SMALL_ANDERSON, model=RICH_INITIAL, time={"n_steps": 100},
              study={"rho_monitor": 0.45}),
    ], ids=["flagship", "rho-monitor"])
    def test_rows_are_weighted_norms_bitwise(self, tmp_path, config):
        path = FLAGSHIP if config is None else write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--seed", "5", "--out", str(out)]) == 0
        setup = load_config(path)
        cfg, rho = setup.config, setup.monitor_rho
        states = []

        def keep(i, k, pos, vel, square):
            states.append((pos[0].copy(), vel[0].copy()))

        mc.run_chunk(cfg, (cfg.n_ref,), range(1), 5, observe=keep)
        w_0 = pair_weights(cfg.model, cfg.n_ref, 0.0)
        w_rho = pair_weights(cfg.model, cfg.n_ref, rho)
        lines = (out / "norms.csv").read_text().splitlines()[1:]
        assert len(lines) == len(states) == cfg.n_steps + 1
        for k, (line, (pos, vel)) in enumerate(zip(lines, states)):
            # one row at a time: a block reduction must not change a row's bits
            n_0 = float(np.sqrt(pair_norm_sq(pos, vel, *w_0)))
            n_rho = float(np.sqrt(pair_norm_sq(pos, vel, *w_rho)))
            assert line == f"{k},{k * cfg.dt!r},{n_0!r},{n_rho!r}"
        state = json.loads(read(out / "state.json"))
        assert state["pos"] == states[-1][0].tolist()
        assert state["vel"] == states[-1][1].tolist()


class TestConvergence:
    @pytest.mark.parametrize("flags, n_paths, field", [
        (["--paths", "0"], 64, "paths"),
        (["--paths", "1"], 64, "paths"),
        (["--paths", "-5"], 64, "paths"),
        (["--workers", "0"], 64, "workers"),
        (["--workers", "-2"], 64, "workers"),
        ([], 1, "n_paths"),
        ([], 0, "n_paths"),
    ], ids=["paths=0", "paths=1", "paths=-5", "workers=0", "workers=-2", "n_paths=1",
            "n_paths=0"])
    def test_bad_counts_rejected(self, tmp_path, capsys, flags, n_paths, field):
        obj = json.loads(json.dumps(ZERO_CONFIG))
        obj["study"]["n_paths"] = n_paths
        cfg = write_config(tmp_path, obj)
        out = tmp_path / "o"
        assert main(["convergence", "--config", cfg, "--out", str(out), *flags]) == 2
        assert f"(field: {field})" in capsys.readouterr().err
        assert not (out / "errors.csv").exists()

    def test_small_anderson_run(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_ANDERSON)
        out = tmp_path / "conv"
        assert main(["convergence", "--config", cfg, "--seed", "3",
                     "--out", str(out)]) == 0
        lines = (out / "errors.csv").read_text().strip().splitlines()
        assert lines[0] == "level,weak_error,weak_stderr,strong_error,strong_stderr,n_paths"
        assert len(lines) == 4
        assert [int(l.split(",")[0]) for l in lines[1:]] == [2, 4, 8]
        report = json.loads(read(out / "report.json"))
        assert report["reference_level"] == 16
        assert "substitution" not in report  # proxy disclosed in prose note
        assert "stand-in" in report["reference_note"]
        assert report["reference_carries_noise"] is False  # n_ref 16 < m_noise 32
        assert "drops noise modes 17..32" in report["reference_note"]
        assert report["strong"]["slope"] < 0
        manifest = json.loads(read(out / "manifest.json"))
        assert set(manifest) == {"config_sha256", "master_seed", "levels", "m_noise",
                                 "grid_points", "n_steps", "n_paths"}
        assert manifest["n_paths"] == 400

    @pytest.mark.parametrize("command", ["simulate", "convergence"])
    def test_manifest_hashes_the_bytes_parsed(self, tmp_path, monkeypatch, command):
        # the config is rewritten while the run steps; the manifest used to
        # hash the file as it was then, not the bytes the run had parsed
        cfg = write_config(tmp_path, SMALL_ANDERSON)
        parsed = read(cfg)
        run_chunk = mc.run_chunk

        def rewrite_then_run(*args, **kwargs):
            with open(cfg, "ab") as fh:
                fh.write(b" ")
            return run_chunk(*args, **kwargs)

        monkeypatch.setattr("specwave.mc.run_chunk", rewrite_then_run)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
        assert read(cfg) != parsed
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["config_sha256"] == hashlib.sha256(parsed).hexdigest()

    def test_paths_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_ANDERSON)
        out = tmp_path / "conv2"
        # few paths may legitimately refuse the fit; the override still lands
        assert main(["convergence", "--config", cfg, "--seed", "3",
                     "--paths", "64", "--out", str(out)]) in (0, 4)
        lines = (out / "errors.csv").read_text().strip().splitlines()
        assert lines[1].endswith(",64")
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["n_paths"] == 64

    def test_zero_spec_refuses_to_fit_noise(self, tmp_path):
        cfg = write_config(tmp_path, ZERO_CONFIG)
        out = tmp_path / "noise"
        assert main(["convergence", "--config", cfg, "--seed", "4",
                     "--out", str(out)]) == 4
        assert (out / "errors.csv").exists()
        assert not (out / "report.json").exists()

    def test_refused_fit_removes_an_earlier_report(self, tmp_path):
        # a refused fit used to leave the earlier run's report.json beside its
        # own errors.csv and manifest
        out = tmp_path / "shared"
        fitting = write_config(tmp_path, SMALL_ANDERSON)
        assert main(["convergence", "--config", fitting, "--seed", "3",
                     "--out", str(out)]) == 0
        assert (out / "report.json").exists()
        assert main(["convergence", "--config", ZERO_SMOKE, "--seed", "2",
                     "--out", str(out)]) == 4
        assert not (out / "report.json").exists()
        manifest = json.loads(read(out / "manifest.json"))
        assert (manifest["master_seed"], manifest["levels"]) == (2, [2, 4, 6])

    def test_needs_three_levels(self, tmp_path, capsys):
        few = json.loads(json.dumps(SMALL_ANDERSON))
        few["study"]["levels"] = [2, 4]
        cfg = write_config(tmp_path, few)
        assert main(["convergence", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "levels" in capsys.readouterr().err

    def test_worker_counts_agree_bytewise(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_ANDERSON)
        outs = []
        for name, workers in (("w1", "1"), ("w3", "3")):
            out = tmp_path / name
            assert main(["convergence", "--config", cfg, "--seed", "6",
                         "--workers", workers, "--out", str(out)]) == 0
            outs.append(out)
        assert read(outs[0] / "errors.csv") == read(outs[1] / "errors.csv")
        assert read(outs[0] / "manifest.json") == read(outs[1] / "manifest.json")

    def test_worker_counts_agree_across_processes(self, tmp_path):
        # separate processes build their own engine tables and start under
        # different OpenBLAS thread settings; on the flagship's grid size the
        # products are large enough for a multithreaded BLAS to split them
        wide = json.loads(json.dumps(SMALL_ANDERSON))
        wide["model"].update({"n_ref": 256, "grid_points": 512})
        wide["noise"]["m_noise"] = 256
        wide["time"]["n_steps"] = 2
        wide["study"].update({"levels": [4, 16, 64], "n_paths": 520})
        cfg = write_config(tmp_path, wide)
        base = env_without_blas_setting()
        outs = []
        for workers, blas_env in (("1", {}), ("2", {"OPENBLAS_NUM_THREADS": "1"})):
            out = tmp_path / f"w{workers}"
            subprocess.run([sys.executable, "-m", "specwave.cli", "convergence",
                            "--config", cfg, "--seed", "6", "--workers", workers,
                            "--out", str(out)], env={**base, **blas_env},
                           check=True, timeout=300)
            outs.append(out)
        assert read(outs[0] / "errors.csv") == read(outs[1] / "errors.csv")


class TestBuildReport:
    """report.json's content from a hand-made StudyReport: no path is stepped."""

    LEVELS = np.array([2.0, 4.0, 8.0])

    @pytest.fixture(autouse=True)
    def no_paths(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("run_chunk called")

        monkeypatch.setattr("specwave.mc.run_chunk", refuse)
        monkeypatch.setattr("specwave.integrator.run_chunk", refuse)

    def setup(self, tmp_path, declared=None, **model):
        obj = json.loads(json.dumps(SMALL_ANDERSON))
        obj["model"].update(model)
        obj["study"]["rho_monitor"] = 0.25
        if declared is not None:
            obj["coefficients"]["declared_norms"] = declared
        return load_config(write_config(tmp_path, obj))

    def study(self, weak_error=None, strong_error=None, moment_mean=None):
        # errors 0.1 L^-1 and 0.2 L^-1/2, each 1e-3 standard errors wide; the
        # moment rows peak at step 2, at the reference first
        moments = np.array([[1.0, 1.5, 2.0, 1.8], [1.0, 1.2, 1.6, 1.4],
                            [1.0, 1.3, 1.7, 1.5], [1.0, 1.4, 1.9, 1.7]])
        return sw.StudyReport(
            weak_error=-0.1 / self.LEVELS if weak_error is None else np.array(weak_error),
            weak_stderr=np.full(3, 1e-3),
            strong_error=(0.2 / np.sqrt(self.LEVELS) if strong_error is None
                          else np.array(strong_error)),
            strong_stderr=np.full(3, 1e-3),
            moment_mean=moments if moment_mean is None else np.array(moment_mean),
            moment_stderr=np.full((4, 4), 0.01))

    @pytest.mark.parametrize("changes", [
        {"weak_error": [-0.05, -0.025, 0.002]},
        {"weak_error": [-0.05, -0.025, -0.0019]},
        {"strong_error": [0.14, 0.1, 0.002]},
        {"strong_error": [0.14, 0.1, -0.07]},
    ], ids=["weak-at-two-stderr", "weak-inside", "strong-at-two-stderr", "strong-negative"])
    def test_refuses_to_fit_noise(self, tmp_path, changes):
        assert _build_report(self.setup(tmp_path), self.study(**changes), 400, 3,
                             None) is None

    def test_rates_functional_and_monitor(self, tmp_path):
        setup = self.setup(tmp_path)
        out = _build_report(setup, self.study(), 400, 3, None)
        assert set(out) == {"reference_level", "reference_carries_noise", "reference_note",
                            "master_seed", "n_paths", "levels", "functional", "weak",
                            "strong", "moment_monitor"}
        assert (out["master_seed"], out["n_paths"], out["levels"]) == (3, 400, [2, 4, 8])
        assert out["functional"] == {"kind": "exp_neg_norm", "bounded": True, "note": None}
        assert out["weak"]["errors"] == (-0.1 / self.LEVELS).tolist()
        assert out["weak"]["stderr"] == [1e-3] * 3
        assert out["weak"]["slope"] == pytest.approx(-1.0, abs=1e-12)
        assert out["weak"]["r_squared"] == pytest.approx(1.0, abs=1e-12)
        assert out["strong"]["slope"] == pytest.approx(-0.5, abs=1e-12)
        assert out["strong"]["intercept"] == pytest.approx(math.log(0.2), abs=1e-12)
        assert out["moment_monitor"] == {"rho": 0.25, "levels": [16, 2, 4, 8],
                                         "sup_mean_square": [2.0, 1.6, 1.7, 1.9],
                                         "sup_stderr": [0.01] * 4}

    @pytest.mark.parametrize("n_ref, carries, clause", [
        (16, False, "the reference drops noise modes 17..32, which the untruncated "
                    "limit keeps"),
        (32, True, "the reference carries every noise mode"),
    ], ids=["drops-noise", "carries-noise"])
    def test_reference_note(self, tmp_path, n_ref, carries, clause):
        setup = self.setup(tmp_path, n_ref=n_ref, grid_points=64)
        out = _build_report(setup, self.study(), 400, 3, None)
        assert out["reference_level"] == n_ref
        assert out["reference_carries_noise"] is carries
        assert out["reference_note"] == (
            "weak and strong errors are measured against the finest Galerkin level as "
            "a stand-in for the untruncated limit; the reference exceeds every study "
            "level; " + clause)

    @pytest.mark.parametrize("bounds, dominates", [
        ([0.1, 0.1, 0.1], True),
        ([0.1, 0.1, 0.0125 - 3e-3], True),
        ([0.1, 0.1, 0.0125 - 3.1e-3], False),
    ], ids=["wide", "at-three-stderr", "below"])
    def test_bound_block(self, tmp_path, bounds, dominates):
        declared = {k: v for k, v in self.declared().items() if not k.startswith("moment")}
        setup = self.setup(tmp_path, declared)
        expo = sw.ExponentPair(0.2, 0.4)
        out = _build_report(setup, self.study(), 400, 3, (bounds, expo, None))
        assert out["bound"] == {"gamma": 0.9, "beta": 0.7, "rho": 0.45, "values": bounds,
                                "lambda_exponent": 0.2, "n_exponent": 0.4,
                                "dominates_measured": dominates}
        assert "envelope" not in out["moment_monitor"]

    @pytest.mark.parametrize("peak, below", [
        (2.0, True),
        (5.0, False),
    ], ids=["below", "above"])
    def test_envelope(self, tmp_path, peak, below):
        # the root of a sup of 2.0 clears 1.5 by more than its slack, that of 5.0
        # is above it
        setup = self.setup(tmp_path, self.declared())
        moments = np.ones((4, 4))
        moments[1, 2] = peak
        out = _build_report(setup, self.study(moment_mean=moments), 400, 3,
                            ([0.1] * 3, sw.ExponentPair(0.2, 0.4), 1.5))
        assert out["moment_monitor"]["envelope"] == 1.5
        assert out["moment_monitor"]["below_envelope"] is below

    @staticmethod
    def declared():
        with open(FLAGSHIP, encoding="utf-8") as fh:
            return json.load(fh)["coefficients"]["declared_norms"]


class TestSimulateAcrossProcesses:
    def test_blas_thread_setting_leaves_bytes(self, tmp_path):
        # the flagship's sizes over a few steps: a single path forms its noise
        # values for many steps in one GEMM, large enough for a multithreaded
        # BLAS to split
        wide = json.loads(json.dumps(SMALL_ANDERSON))
        wide["model"].update({"n_ref": 256, "grid_points": 512})
        wide["noise"]["m_noise"] = 256
        wide["time"]["n_steps"] = 40
        cfg = write_config(tmp_path, wide)
        base = env_without_blas_setting()
        outs = []
        for name, blas_env in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
            out = tmp_path / name
            subprocess.run([sys.executable, "-m", "specwave.cli", "simulate",
                            "--config", cfg, "--seed", "6", "--out", str(out)],
                           env={**base, **blas_env}, check=True, timeout=300)
            outs.append(out)
        assert read(outs[0] / "norms.csv") == read(outs[1] / "norms.csv")
        assert read(outs[0] / "state.json") == read(outs[1] / "state.json")


# a finite state whose squared norm overflows: 1e160 squared is beyond float range
NORM_OVERFLOW = {
    "model": {"theta": 1.0, "n_ref": 8, "initial": {"pos": {"1": 1e160, "5": 1.0}, "vel": {}}},
    "time": {"t_final": 1.0, "n_steps": 8},
    "noise": {"m_noise": 8},
    "coefficients": {"preset": "zero"},
    "study": {"levels": [2, 3, 4], "n_paths": 4,
              "functional": {"kind": "coordinate", "mode": 5, "component": "pos"}},
}


class TestOutputGuards:
    @pytest.mark.parametrize("pos", [{"1": 1e160, "5": 1.0}, {"5": 1e160}],
                             ids=["every-level", "above-the-levels"])
    @pytest.mark.parametrize("command, written", [
        ("convergence", "report.json"), ("simulate", "norms.csv")])
    def test_norm_overflow_exits_three_and_writes_nothing(self, tmp_path, capsys, command,
                                                          written, pos):
        # report.json held Infinity and NaN in its moment monitor, not JSON,
        # and norms.csv held inf rows; a state above the study levels also
        # overflows the strong gaps, which warned before the monitor raised
        obj = json.loads(json.dumps(NORM_OVERFLOW))
        obj["model"]["initial"]["pos"] = pos
        cfg = write_config(tmp_path, obj)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", cfg, "--seed", "1", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "step 0, level 8" in err and "squared norm" in err and "float range" in err
        assert not (out / written).exists()
        assert not out.exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["made", "existing"])
    def test_failed_run_takes_back_only_the_directories_it_made(self, tmp_path, existing):
        # a failed run used to leave behind the empty directories it had made
        cfg = write_config(tmp_path, NORM_OVERFLOW)
        parent = tmp_path / "runs"
        out = parent / "b1"
        if existing:
            out.mkdir(parents=True)
        assert main(["convergence", "--config", cfg, "--seed", "1", "--out", str(out)]) == 3
        assert out.exists() == parent.exists() == existing
        assert not existing or not any(out.iterdir())

    def test_json_refuses_nan_and_writes_no_file(self, tmp_path):
        with pytest.raises(ValueError):
            _write_json(str(tmp_path / "x.json"), {"v": float("nan")})
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("command, flag_out, config_out, field", [
        ("simulate", "file", None, "out"),
        ("convergence", "file", None, "out"),
        ("convergence", None, "file/below", "directory"),
    ], ids=["simulate-out-file", "convergence-out-file", "directory-under-file"])
    def test_bad_output_path_exits_two_before_any_path(self, tmp_path, monkeypatch, capsys,
                                                       command, flag_out, config_out, field):
        (tmp_path / "file").write_text("", encoding="utf-8")
        obj = json.loads(json.dumps(ZERO_CONFIG))
        if config_out is not None:
            obj["output"] = {"directory": str(tmp_path / config_out)}
        cfg = write_config(tmp_path, obj)

        def refuse(*args, **kwargs):
            raise AssertionError("a path ran before the output directory was made")

        monkeypatch.setattr(mc, "run_chunk", refuse)
        flags = [] if flag_out is None else ["--out", str(tmp_path / flag_out)]
        assert main([command, "--config", cfg, "--seed", "1", *flags]) == 2
        assert f"(field: {field})" in capsys.readouterr().err


class TestBound:
    def test_all_ones_worked_example(self, tmp_path, capsys):
        path = os.path.join(os.path.dirname(__file__), "..", "configs",
                            "bound_all_ones.json")
        assert main(["bound", "--config", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["bound"] == pytest.approx(3 * math.sqrt(3) * math.exp(10.5),
                                             rel=1e-12)
        assert out["lambda_exponent"] == pytest.approx(-0.25)
        assert out["n_exponent"] == pytest.approx(-0.5)

    def test_zero_norms(self, tmp_path, capsys):
        params = json.loads(read(os.path.join(os.path.dirname(__file__), "..",
                                              "configs", "bound_all_ones.json")))
        for key in params:
            if key not in ("t_final", "gamma", "beta", "lambda_cut", "phi_c2b"):
                params[key] = 0.0
        cfg = write_config(tmp_path, params, "bound.json")
        assert main(["bound", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["bound"] == 0.0

    def test_hypothesis_violation_exits_two(self, tmp_path, capsys):
        params = json.loads(read(os.path.join(os.path.dirname(__file__), "..",
                                              "configs", "bound_all_ones.json")))
        params["beta"] = 0.4  # outside (gamma/2, gamma]
        cfg = write_config(tmp_path, params, "bound.json")
        assert main(["bound", "--config", cfg]) == 2
        assert "beta" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("phi_c2b", float("nan")), ("lambda_cut", float("inf")), ("gamma", float("nan")),
        ("phi_c2b", 10**400),
    ], ids=["phi_c2b-nan", "lambda_cut-infinity", "gamma-nan", "phi_c2b-huge-integer"])
    def test_non_finite_parameter_exits_two(self, tmp_path, capsys, key, value):
        # json reads NaN and Infinity; a NaN bound used to print as invalid JSON,
        # and an integer beyond float range ended in OverflowError
        params = json.loads(read(os.path.join(os.path.dirname(__file__), "..",
                                              "configs", "bound_all_ones.json")))
        params[key] = value
        cfg = write_config(tmp_path, params, "bound.json")
        assert main(["bound", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert f"(field: {key})" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("overrides", [
        {"b_lip0_hs": 14}, {"phi_c2b": 1e300, "xi_l1_smooth": 1e10},
    ], ids=["b_lip0_hs-exp", "phi_c2b-product"])
    def test_overflowing_bound_exits_two(self, tmp_path, capsys, overrides):
        # b_lip0_hs 14 used to end in math.exp's OverflowError; a product that
        # overflows quietly would print Infinity, which is not JSON
        params = json.loads(read(os.path.join(os.path.dirname(__file__), "..",
                                              "configs", "bound_all_ones.json")))
        params.update(overrides)
        cfg = write_config(tmp_path, params, "bound.json")
        assert main(["bound", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert "b_lip0_hs" in captured.err and "(field: params)" in captured.err
        assert captured.out == ""

    def test_first_missing_field_in_field_order(self, tmp_path):
        # the fields used to be checked in set order, which follows the hash seed
        params = json.loads(read(os.path.join(os.path.dirname(__file__), "..",
                                              "configs", "bound_all_ones.json")))
        for key in ("t_final", "gamma", "phi_c2b"):
            del params[key]
        cfg = write_config(tmp_path, params, "bound.json")
        for seed in ("1", "2"):
            env = {**env_without_blas_setting(), "PYTHONHASHSEED": seed}
            done = subprocess.run([sys.executable, "-m", "specwave.cli", "bound",
                                   "--config", cfg], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert done.returncode == 2
            assert done.stderr.strip().endswith("(field: t_final)"), (seed, done.stderr)

    def test_missing_field_named(self, tmp_path, capsys):
        params = json.loads(read(os.path.join(os.path.dirname(__file__), "..",
                                              "configs", "bound_all_ones.json")))
        del params["lambda_pow_hs"]
        cfg = write_config(tmp_path, params, "bound.json")
        assert main(["bound", "--config", cfg]) == 2
        assert "lambda_pow_hs" in capsys.readouterr().err


class TestValidate:
    def test_quick_suite_passes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_injected_sign_error_fails_isometry(self, monkeypatch, capsys):
        # mutation check: flip the sign of the velocity rotation term
        def broken(state, t, model):
            from specwave.propagator import rotation_tables
            cos_t, sin_t, mu = rotation_tables(model, t, state.n_modes)
            new_pos = cos_t * state.pos + (sin_t / mu) * state.vel
            new_vel = (mu * sin_t) * state.pos + cos_t * state.vel
            return sw.PairState(new_pos, new_vel)

        monkeypatch.setattr("specwave.propagator.propagate", broken)
        assert main(["validate"]) == 1
        fails = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("FAIL")]
        assert any("group isometry" in line for line in fails)

    def test_sign_error_fails_under_optimized_interpreter(self):
        # python -O strips assert statements; the checks must still fail
        script = (
            "import specwave as sw, specwave.propagator as p\n"
            "from specwave.cli import main\n"
            "def broken(st, t, model):\n"
            "    c, s, mu = p.rotation_tables(model, t, st.n_modes)\n"
            "    return sw.PairState(c * st.pos + s / mu * st.vel,\n"
            "                        mu * s * st.pos + c * st.vel)\n"
            "p.propagate = broken\n"
            "raise SystemExit(main(['validate']))\n")
        run = run_python("-O", "-c", script)
        assert run.returncode == 1
        assert "FAIL  group isometry" in run.stdout

    def test_scaled_product_fails_exact_product(self, monkeypatch, capsys):
        # mutation check: an Anderson product's analysis halves off by 1e-6 relative,
        # in one role at a time: the reference 16 projects its position onto
        # cosines (23 nodes < 2 * 16), level 4 the noise (8 nodes = 2 * 4)
        import specwave.integrator as integrator

        tables = integrator._engine_tables
        for level_projected, level in ((True, 16), (False, 4)):

            def scaled(level_, nodes, level_projected=level_projected):
                map_odd, map_even, *analysis = tables(level_, nodes)
                if (nodes < 2 * level_) == level_projected:
                    analysis = [a * (1.0 + 1e-6) for a in analysis]
                return map_odd, map_even, *analysis

            with monkeypatch.context() as patch:
                patch.setattr(integrator, "_engine_tables", scaled)
                assert main(["validate"]) == 1
            fails = [line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("FAIL")]
            assert any(line.startswith("FAIL  exact product") and f"level {level}" in line
                       for line in fails), level

    def test_no_runtime_warning(self):
        run = run_python("-W", "error::RuntimeWarning", "-m", "specwave.cli", "validate")
        assert run.returncode == 0, run.stderr
        assert run.stdout.count("PASS") == 4


class TestExpressionSubset:
    def test_drift_expression_runs(self, tmp_path):
        cfg_obj = json.loads(json.dumps(SMALL_ANDERSON))
        cfg_obj["coefficients"]["drift"] = "sin(x) - 0.5 * tanh(y)"
        cfg = write_config(tmp_path, cfg_obj)
        out = tmp_path / "drifted"
        assert main(["simulate", "--config", cfg, "--seed", "2",
                     "--out", str(out)]) == 0

    def test_forbidden_construct_rejected(self, tmp_path, capsys):
        cfg_obj = json.loads(json.dumps(SMALL_ANDERSON))
        cfg_obj["coefficients"]["drift"] = "__import__('os').system('true')"
        cfg = write_config(tmp_path, cfg_obj)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "drift" in capsys.readouterr().err

    def test_division_rejected(self, tmp_path, capsys):
        cfg_obj = json.loads(json.dumps(SMALL_ANDERSON))
        cfg_obj["coefficients"]["drift"] = "y / 2"
        cfg = write_config(tmp_path, cfg_obj)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "drift" in capsys.readouterr().err
