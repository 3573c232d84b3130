import copy
import json
import math
import os

import numpy as np
import pytest

import specwave as sw
from specwave.cli import main
from specwave.config import ConfigError, declared_bounds, load_bound_params, load_config

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
# configs/ holds run configs and the flat bound-parameter files of `specwave bound`
BOUND_PARAMS = {"bound_all_ones.json"}
SHIPPED = sorted(name for name in os.listdir(CONFIG_DIR) if name.endswith(".json"))

with open(os.path.join(CONFIG_DIR, "zero_smoke.json"), encoding="utf-8") as _fh:
    ZERO_SMOKE = json.load(_fh)
with open(os.path.join(CONFIG_DIR, "anderson_acceptance.json"), encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)["coefficients"]["declared_norms"]


def _write(tmp_path, obj):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _with(**sections):
    """zero_smoke.json with the given sections replaced."""
    obj = copy.deepcopy(ZERO_SMOKE)
    obj.update(sections)
    return obj


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_config_loads(name):
    path = os.path.join(CONFIG_DIR, name)
    if name in BOUND_PARAMS:
        load_bound_params(path)
    else:
        load_config(path)


@pytest.mark.parametrize("coefficients, alpha, beta", [
    ({"preset": "anderson"}, 0.0, 1.0),
    ({"preset": "anderson", "alpha": 0.25, "beta": 2.0}, 0.25, 2.0),
    ({"preset": "zero"}, 0.0, 0.0),
    ({"preset": "additive-heat-kick"}, 1.0, 0.0),
    ({"preset": "additive-heat-kick", "sigma": 0.3}, 0.3, 0.0),
    ({"kind": "anderson", "alpha": 0.2}, 0.2, 1.0),
    ({"kind": "zero", "drift": "-tanh(y)"}, 0.0, 0.0),
], ids=["anderson", "anderson-affine", "zero", "heat-kick", "heat-kick-sigma",
        "kind-anderson", "kind-zero-drift"])
def test_affine_settings_resolve(tmp_path, coefficients, alpha, beta):
    spec = load_config(_write(tmp_path, _with(coefficients=coefficients))).config.spec
    assert (spec.diffusion, spec.alpha, spec.beta) == ("anderson", alpha, beta)


@pytest.mark.parametrize("coefficients, field", [
    ({"preset": "zero", "beta": 1.0}, "beta"),
    ({"kind": "zero", "alpha": 1.0}, "alpha"),
    ({"preset": "additive-heat-kick", "alpha": 0.5}, "alpha"),
    ({"preset": "additive-heat-kick", "beta": 0.5}, "beta"),
    ({"preset": "anderson", "sigma": 2.0}, "sigma"),
    ({"preset": "zero", "sigma": 2.0}, "sigma"),
    ({"kind": "pointwise", "b": "sin(y)", "beta": 1.0}, "beta"),
    ({"kind": "anderson", "b": "sin(y)"}, "b"),
    ({"preset": "zero", "kind": "anderson"}, "kind"),
], ids=["zero-beta", "kind-zero-alpha", "heat-kick-alpha", "heat-kick-beta",
        "anderson-sigma", "zero-sigma", "pointwise-beta", "anderson-b", "preset-and-kind"])
def test_coefficient_key_that_does_not_apply_rejected(tmp_path, coefficients, field):
    with pytest.raises(ConfigError) as err:
        load_config(_write(tmp_path, _with(coefficients=coefficients)))
    assert err.value.field == field


@pytest.mark.parametrize("path", [
    ("studdy",),
    ("model", "grid_point"),
    ("model", "initial", "posx"),
    ("time", "n_step"),
    ("noise", "m"),
    ("coefficients", "presets"),
    ("study", "level"),
    ("study", "functional", "mode"),
    ("output", "dir"),
], ids=".".join)
def test_unknown_key_rejected(tmp_path, path):
    obj = copy.deepcopy(ZERO_SMOKE)
    obj.setdefault("output", {})
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = 1
    with pytest.raises(ConfigError) as err:
        load_config(_write(tmp_path, obj))
    assert err.value.field == path[-1]
    assert ".".join(path) in str(err.value)


@pytest.mark.parametrize("functional, field", [
    ({"kind": "cos_pairing", "direction": {"pos": {"1": 1.0}, "velocity": {}}}, "velocity"),
    ({"kind": "coordinate", "mode": 1, "component": "pos", "direction": {}}, "direction"),
], ids=["cos-pairing-direction", "coordinate"])
def test_unknown_functional_key_rejected(tmp_path, functional, field):
    obj = _with(study={**ZERO_SMOKE["study"], "functional": functional})
    with pytest.raises(ConfigError) as err:
        load_config(_write(tmp_path, obj))
    assert err.value.field == field


@pytest.mark.parametrize("obj, field", [
    (_with(model={**ZERO_SMOKE["model"], "initial": {"pos": [1.0], "vel": {}}}),
     "initial.pos"),
    (_with(study={**ZERO_SMOKE["study"],
                  "functional": {"kind": "cos_pairing", "direction": [1.0]}}), "direction"),
], ids=["initial-pos", "functional-direction"])
def test_mode_map_must_be_an_object(tmp_path, obj, field):
    with pytest.raises(ConfigError) as err:
        load_config(_write(tmp_path, obj))
    assert err.value.field == field


def test_unknown_key_exits_two(tmp_path, capsys):
    cfg = _write(tmp_path, _with(studdy={}))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "studdy" in capsys.readouterr().err


@pytest.mark.parametrize("coefficients", [
    {"preset": "zero"},
    {"kind": "pointwise", "b": "sin(y)"},
], ids=["affine", "pointwise"])
def test_negative_declared_norm_exits_two(tmp_path, capsys, coefficients):
    cfg = _write(tmp_path, _with(coefficients={**coefficients,
                                               "declared_norms": {"f_lip0": -1}}))
    with pytest.raises(ConfigError) as err:
        load_config(cfg)
    assert err.value.field == "declared_norms"
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "f_lip0" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("f_lip0", float("nan")), ("phi_c2b", float("inf")), ("gamma", float("nan")),
    ("hs_tol", float("-inf")), ("phi_c2b", 10**400),
], ids=["f_lip0-nan", "phi_c2b-infinity", "gamma-nan", "hs_tol-minus-infinity",
        "phi_c2b-huge-integer"])
def test_non_finite_declared_norm_exits_two(tmp_path, capsys, key, value):
    # NaN < 0 is false, so only a finiteness check catches these; an integer
    # beyond float range used to raise OverflowError
    cfg = _write(tmp_path, _with(coefficients={"preset": "anderson",
                                               "declared_norms": {key: value}}))
    with pytest.raises(ConfigError) as err:
        load_config(cfg)
    assert err.value.field == "declared_norms"
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("levels", [[0, 2, 4], [-3, 2, 4]], ids=["zero", "negative"])
def test_levels_below_one_exit_two(tmp_path, capsys, levels):
    # level 0 used to give a NaN slope, a negative level a numpy traceback
    cfg = _write(tmp_path, _with(coefficients={"preset": "anderson"},
                                 study={**ZERO_SMOKE["study"], "levels": levels}))
    assert main(["convergence", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "(field: levels)" in capsys.readouterr().err


@pytest.mark.parametrize("levels", [[2, 4, 8], [4, 2, 6]],
                         ids=["reaching-n_ref", "not-ascending"])
def test_levels_out_of_order_or_reaching_reference_exit_two(tmp_path, capsys,
                                                             monkeypatch, levels):
    # the first used to end in run_study's ValueError (exit 1), the second
    # exited 2 tagged (field: model)
    def no_paths(*args, **kwargs):
        raise AssertionError("run_chunk called")

    monkeypatch.setattr("specwave.mc.run_chunk", no_paths)
    cfg = _write(tmp_path, _with(study={**ZERO_SMOKE["study"], "levels": levels}))
    assert main(["convergence", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "(field: levels)" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value, field", [
    ("study", "rho_monitor", float("nan"), "rho_monitor"),
    ("model", "initial", {"pos": {"1": float("nan")}, "vel": {}}, "initial.pos"),
    ("time", "t_final", float("inf"), "t_final"),
    ("coefficients", "beta", float("nan"), "beta"),
    ("time", "t_final", 10**400, "t_final"),
], ids=["rho-monitor-nan", "initial-pos-nan", "t-final-infinity", "beta-nan",
        "t-final-huge-integer"])
def test_non_finite_number_exits_two(tmp_path, capsys, section, key, value, field):
    # json reads the NaN and Infinity literals that json.dumps writes, and
    # integers of any size
    obj = _with(**{section: {**ZERO_SMOKE[section], key: value}})
    if section == "coefficients":
        obj["coefficients"]["preset"] = "anderson"
    cfg = _write(tmp_path, obj)
    assert main(["convergence", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"(field: {field})" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("time", "t_final", 0),
    ("time", "n_steps", 0),
    ("noise", "m_noise", 0),
    ("model", "grid_points", 3),
    ("model", "n_ref", 0),
    ("study", "rho_monitor", 200.0),
    ("study", "rho_monitor", 80.0),
    ("model", "theta", 1e307),
    ("model", "theta", 1e-200),
    ("study", "n_paths", 1),
    ("model", "n_ref", 10**12),
    ("noise", "m_noise", 10**12),
    ("model", "grid_points", 10**12),
    ("model", "n_ref", 10**19),
    ("noise", "m_noise", 10**19),
    ("model", "grid_points", 10**19),
], ids=["t_final-zero", "n_steps-zero", "m_noise-zero", "grid_points-below-n_ref",
        "n_ref-zero", "rho_monitor-overflows-weights", "rho_monitor-overflows-squared-weights",
        "theta-overflows-eigenvalues", "theta-overflows-squared-weights", "n_paths-one",
        "n_ref-unallocatable", "m_noise-unallocatable", "grid_points-unallocatable",
        "n_ref-unindexable", "m_noise-unindexable", "grid_points-unindexable"])
def test_out_of_range_value_names_its_key(tmp_path, capsys, section, key, value):
    # each used to be reported on field model, and n_ref as "n_modes" on
    # theta; a rho_monitor whose weights |lam|^rho overflow used to write
    # nan and inf norm rows with exit 0, and one whose weights are finite
    # (about 1e224 at n_ref 8 and rho 80) but overflow when squared made the
    # moment monitor overflow (NaN stderrs, exit 0, on a 64-mode flagship).
    # A theta of 1e307, whose eigenvalues overflow, used to exit 3 as a
    # blow-up at step 0; one of 1e-200, whose velocity weights 1/|lam| overflow
    # when squared, was blamed on rho_monitor; n_paths 1 let simulate exit 0.
    # A size of 10**12 ended in a numpy _ArrayMemoryError traceback, exit 1;
    # one of 10**19, numpy's ValueError for a shape it cannot index, was
    # blamed on theta (n_ref) or on config (m_noise, grid_points);
    # zero_smoke.json leaves the grid at its default 4 * max(n_ref, m_noise)
    cfg = _write(tmp_path, _with(**{section: {**ZERO_SMOKE[section], key: value}}))
    with pytest.raises(ConfigError) as err:
        load_config(cfg)
    assert err.value.field == key
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"{section}.{key} " in capsys.readouterr().err


@pytest.mark.parametrize("mode", [0, 99], ids=["zero", "above-n_ref"])
def test_coordinate_mode_outside_the_reference_exits_two(tmp_path, capsys, mode):
    # mode 0 used to end in a traceback (exit 1); mode 99 with n_ref 8 ran the
    # study on an identically zero functional
    functional = {"kind": "coordinate", "mode": mode, "component": "pos"}
    cfg = _write(tmp_path, _with(study={**ZERO_SMOKE["study"], "functional": functional}))
    with pytest.raises(ConfigError) as err:
        load_config(cfg)
    assert err.value.field == "mode"
    assert main(["convergence", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "(field: mode)" in capsys.readouterr().err


def _declared(drop=(), **values):
    """The flagship's declared norms without the keys in drop, with values set."""
    out = {k: v for k, v in DECLARED.items() if k not in drop}
    out.update(values)
    return out


@pytest.mark.parametrize("declared, key", [
    (_declared(drop=("phi_c2b",)), "phi_c2b"),
    (_declared(phi_c2b=[1]), "phi_c2b"),
    (_declared(drop=("moment_b_hs",), moment_b_hss=0.5774), "moment_b_hss"),
    (_declared(drop=("moment_b_hs",)), "moment_f_lip"),
    (_declared(beta=0.4), "beta"),
    (_declared(drop=("hs_tol",)), "hs_tol"),
    (_declared(b_lip0_hs=14), "b_lip0_hs"),
    (_declared(moment_f_lip=1000.0), "moment_f_lip"),
], ids=["phi_c2b-missing", "phi_c2b-list", "moment_b_hss", "moment_f_lip-alone",
        "beta-outside-window", "hs_tol-default-at-beta-0.7", "b_lip0_hs-overflow",
        "moment-envelope-overflow"])
def test_declared_norm_fault_exits_before_the_study(tmp_path, capsys, monkeypatch,
                                                    declared, key):
    # each of these used to run the whole study before failing, or to pass
    def no_paths(*args, **kwargs):
        raise AssertionError("run_chunk called")

    monkeypatch.setattr("specwave.mc.run_chunk", no_paths)
    cfg = _write(tmp_path, _with(coefficients={"preset": "anderson",
                                               "declared_norms": declared}))
    out = tmp_path / "o"
    assert main(["convergence", "--config", cfg, "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not (out / "errors.csv").exists()


def _declared_setup(tmp_path, declared, amplitude=1.0):
    """zero_smoke.json as an Anderson study from X_0 = amplitude e_1 with
    rho_monitor 0.25."""
    model = {**ZERO_SMOKE["model"], "initial": {"pos": {"1": amplitude}, "vel": {}}}
    coefficients = {"preset": "anderson"}
    if declared is not None:
        coefficients["declared_norms"] = declared
    return load_config(_write(tmp_path, _with(
        model=model, coefficients=coefficients,
        study={**ZERO_SMOKE["study"], "rho_monitor": 0.25})))


class TestDeclaredBounds:
    def test_flagship_bound_at_every_level(self):
        setup = load_config(os.path.join(CONFIG_DIR, "anderson_acceptance.json"))
        bounds, expo, _ = declared_bounds(setup)
        cfg, d = setup.config, setup.declared
        hs = sw.hs_norm_lambda_pow(cfg.model.theta, d["beta"], d["hs_tol"])
        given = {k: v for k, v in d.items() if k not in ("rho", "hs_tol", "moment_f_lip",
                                                         "moment_b_hs")}
        want = [sw.theoretical_weak_bound(sw.BoundParams(
            t_final=cfg.t_final,
            xi_l2_rho=sw.norm_bold_hr(cfg.initial, d["rho"], cfg.model),
            xi_l1_smooth=sw.norm_bold_hr(cfg.initial, 2.0 * (d["gamma"] - d["beta"]),
                                         cfg.model),
            lambda_pow_hs=float(np.sqrt(hs * hs + d["hs_tol"] ** 2)),
            lambda_cut=-cfg.model.lam[level], **given)) for level in cfg.levels]
        assert bounds == want
        assert expo == sw.predicted_exponent(d["gamma"], d["beta"])

    @pytest.mark.parametrize("amplitude", [1.0, 0.5])
    def test_envelope(self, tmp_path, amplitude):
        _, _, envelope = declared_bounds(_declared_setup(tmp_path, DECLARED, amplitude))
        # max(1, ||X_0|| at rho) exp(T (f_lip + b_hs^2 / 2)); X_0 = a e_1, T = 1,
        # whose norm pi^0.25 a is above 1 at a = 1 and below it at a = 0.5
        want = max(1.0, amplitude * math.pi ** 0.25) * math.exp(0.5 * 0.5774 ** 2)
        assert envelope == pytest.approx(want, rel=1e-14)

    def test_no_envelope_without_the_moment_pair(self, tmp_path):
        setup = _declared_setup(tmp_path, _declared(drop=("moment_f_lip", "moment_b_hs")))
        bounds, _, envelope = declared_bounds(setup)
        assert len(bounds) == 3 and envelope is None

    def test_none_without_declared_norms(self, tmp_path):
        assert declared_bounds(_declared_setup(tmp_path, None)) is None


@pytest.mark.parametrize("text", [
    b'{"model": 1' + b"0" * 5000 + b"}",
    b'{"model": "\xff"}',
    b'{"model": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
], ids=["integer-beyond-string-limit", "not-utf-8", "nested-past-recursion-limit"])
def test_unreadable_json_exits_two(tmp_path, capsys, text):
    # json raises plain ValueErrors for the first two and a RecursionError for
    # the third, which used to end in a traceback
    path = tmp_path / "config.json"
    path.write_bytes(text)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "(field: config)" in capsys.readouterr().err


def _pointwise_b(text):
    """zero_smoke.json with pointwise diffusion b(x, y) = text."""
    return _with(coefficients={"kind": "pointwise", "b": text})


@pytest.mark.parametrize("text", [
    "y**2", "y/2", "exp(y)", "y.real", "__import__('os')", "sin(y, y)", "sin(y=1)",
    "True*y", "[y][0]", "y if y else x", "(lambda: y)()", "1j*y",
    pytest.param("1e400*y", id="float-overflow"),
    pytest.param("1" + "0" * 400 + "*y", id="int-beyond-float"),
])
def test_expression_outside_subset_exits_two(tmp_path, capsys, text):
    # the loader evals the expression, so only {x, y, constants, +, -, *, sin,
    # cos, tanh} may reach eval; a constant must be a finite float
    cfg = _write(tmp_path, _pointwise_b(text))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "(field: b)" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["-0.5*sin(y)+x*cos(x)", "+y", "2"])
def test_expression_inside_subset_loads(tmp_path, text):
    load_config(_write(tmp_path, _pointwise_b(text)))


@pytest.mark.parametrize("field", ["b", "drift"])
@pytest.mark.parametrize("text", ["-" * 2000 + "y", "y" + "*y" * 5000],
                         ids=["unary-chain", "product-chain"])
def test_deeply_nested_expression_exits_two(tmp_path, capsys, field, text):
    # ast.parse and the subset check each recurse once per level of nesting
    coefficients = ({"kind": "pointwise", "b": text} if field == "b" else
                    {"preset": "zero", "drift": text})
    cfg = _write(tmp_path, _with(coefficients=coefficients))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"(field: {field})" in capsys.readouterr().err


def _write_text(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("old, new, key", [
    ('"n_ref": 8', '"n_ref": 8, "n_ref": 16', "n_ref"),
    ('"noise": {"m_noise": 8}', '"noise": {"m_noise": 8}, "noise": {"m_noise": 16}', "noise"),
    ('"3": 0.5}', '"3": 0.5, "1": 5.0}', "1"),
], ids=["model-key", "section", "mode-key"])
def test_duplicate_key_exits_two(tmp_path, capsys, old, new, key):
    # json keeps the last of two equal keys: the first two used to run at 16
    # modes, the third with mode 1 set to 5.0, each with exit 0
    text = json.dumps(ZERO_SMOKE)
    assert text.count(old) == 1
    cfg = _write_text(tmp_path, text.replace(old, new))
    with pytest.raises(ConfigError) as err:
        load_config(cfg)
    assert err.value.field == key
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"duplicate key {key!r} (field: {key})" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["01", " 1", "+1", "1_0", "1 "])
def test_non_canonical_mode_key_exits_two(tmp_path, capsys, key):
    # int() reads each of these: "01" used to set mode 1, "1_0" mode 10
    model = {**ZERO_SMOKE["model"], "initial": {"pos": {"1": 1.0, key: 5.0}, "vel": {}}}
    cfg = _write(tmp_path, _with(model=model))
    with pytest.raises(ConfigError) as err:
        load_config(cfg)
    assert err.value.field == "initial.pos"
    assert repr(key) in str(err.value)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command", ["simulate", "bound"])
def test_unreadable_config_path_exits_two(tmp_path, capsys, command):
    # a directory used to end in an IsADirectoryError traceback with exit 1
    argv = [command, "--config", str(tmp_path)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert "(field: config)" in capsys.readouterr().err


@pytest.mark.parametrize("command, obj, flags, text", [
    ("simulate", _with(time={**ZERO_SMOKE["time"], "n_steps": 10**15}), [],
     "Unable to allocate"),
    ("convergence", ZERO_SMOKE, ["--paths", str(10**10)], "Unable to allocate"),
    ("simulate", _with(time={**ZERO_SMOKE["time"], "n_steps": 2**62}), [], None),
    ("convergence", ZERO_SMOKE, ["--paths", str(10**19)], None),
    ("convergence", _with(study={**ZERO_SMOKE["study"], "n_paths": 10**30}), [], None),
], ids=["n_steps", "paths", "n_steps-unindexable", "paths-unindexable",
        "n_paths-unindexable"])
def test_unallocatable_run_exits_two(tmp_path, capsys, command, obj, flags, text):
    # simulate's norm table and the study's per-path arrays used to end in a
    # numpy _ArrayMemoryError traceback with exit 1, and a shape numpy cannot
    # index in a ValueError traceback with exit 1
    cfg = _write(tmp_path, obj)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), *flags]) == 2
    err = capsys.readouterr().err
    assert "(field: config)" in err
    assert text is None or text in err
