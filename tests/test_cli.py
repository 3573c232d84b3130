import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import specwave as sw
from specwave import mc
from specwave.cli import main
from specwave.config import load_config
from specwave.spectral import _weighted_norm

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
        assert "step 0, level 16, path 0" in run.stderr
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

        def keep(i, k, pos, vel):
            states.append((pos[0].copy(), vel[0].copy()))

        with mc._single_blas_thread():
            mc.run_chunk(cfg, (cfg.n_ref,), range(1), 5, observe=keep)
        al = cfg.model.abs_lam(cfg.n_ref)
        lines = (out / "norms.csv").read_text().splitlines()[1:]
        assert len(lines) == len(states) == cfg.n_steps + 1
        for k, (line, (pos, vel)) in enumerate(zip(lines, states)):
            n_0 = float(_weighted_norm(pos, vel, al**0.0, al**-1.0))
            n_rho = float(_weighted_norm(pos, vel, al**rho, al ** (rho - 1.0)))
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
        # mutation check: an Anderson product projection off by 1e-6 relative,
        # on the config's grid (reference 16) and on a level's own grid (4)
        import specwave.integrator as integrator

        for name, level in (("_engine_tables", 16), ("_own_grid_tables", 4)):
            tables = getattr(integrator, name)

            def scaled(*args, tables=tables):
                *rest, analysis = tables(*args)
                return (*rest, analysis * (1.0 + 1e-6))

            with monkeypatch.context() as patch:
                patch.setattr(integrator, name, scaled)
                assert main(["validate"]) == 1
            fails = [line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("FAIL")]
            assert any(line.startswith("FAIL  exact product") and f"level {level}" in line
                       for line in fails), name

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
