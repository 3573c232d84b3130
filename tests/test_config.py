import copy
import json
import os

import pytest

from specwave.cli import main
from specwave.config import ConfigError, load_bound_params, load_config

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
], ids=["phi_c2b-missing", "phi_c2b-list", "moment_b_hss", "moment_f_lip-alone",
        "beta-outside-window", "hs_tol-default-at-beta-0.7"])
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


@pytest.mark.parametrize("text", [
    b'{"model": 1' + b"0" * 5000 + b"}",
    b'{"model": "\xff"}',
], ids=["integer-beyond-string-limit", "not-utf-8"])
def test_unreadable_json_exits_two(tmp_path, capsys, text):
    # json raises plain ValueErrors for these, which used to end in a traceback
    path = tmp_path / "config.json"
    path.write_bytes(text)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "(field: config)" in capsys.readouterr().err
