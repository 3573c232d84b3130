"""Run configuration: schema-checked JSON with a restricted expression subset.

A config file is a UTF-8 JSON object with flat keys grouped in sections
``model``, ``time``, ``noise``, ``coefficients``, ``study``, ``output``; an
unknown section or key is an error that names it.
Drift and pointwise-diffusion functions are given as expressions over the
closed vocabulary {x, y, numeric constants, +, -, *, sin, cos, tanh}; the
subset is large enough for smooth test nonlinearities and small enough to
validate node by node.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import mc
from .analysis import BoundParams, ExponentPair, predicted_exponent
from .coefficients import PRESETS, CoefficientSpec, preset
from .integrator import SimConfig
from .spectral import PairState, build_model, hs_norm_lambda_pow, norm_bold_hr

__all__ = [
    "ConfigError",
    "RunSetup",
    "compile_expression",
    "load_config",
    "load_bound_params",
    "config_digest",
]


class ConfigError(ValueError):
    """Schema violation; the message names the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{message} (field: {field})")


_ALLOWED_CALLS = ("sin", "cos", "tanh")
_EVAL_NAMES = {"sin": np.sin, "cos": np.cos, "tanh": np.tanh}


def compile_expression(text: str, field: str):
    """Compile an expression over {x, y, constants, +, -, *, sin, cos, tanh}."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(field, f"invalid expression: {exc.msg}") from None

    def check(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub,
                                                                ast.Mult)):
            check(node.left)
            check(node.right)
            return
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            check(node.operand)
            return
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)) \
                and not isinstance(node.value, bool):
            return
        if isinstance(node, ast.Name) and node.id in ("x", "y"):
            return
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _ALLOWED_CALLS and len(node.args) == 1
                and not node.keywords):
            check(node.args[0])
            return
        raise ConfigError(field, f"expression uses a construct outside the subset: "
                                 f"{ast.dump(node)[:60]}")

    check(tree.body)
    code = compile(tree, f"<{field}>", "eval")

    def fn(x, y):
        out = eval(code, {"__builtins__": {}}, {**_EVAL_NAMES, "x": x, "y": y})
        return np.broadcast_to(np.asarray(out, dtype=np.float64), np.broadcast_shapes(
            np.shape(x), np.shape(y)))

    return fn


def _only(obj: dict, where: str, keys) -> None:
    """Reject the first key of obj outside keys, naming it."""
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ConfigError(unknown[0], f"unknown field {where}{unknown[0]}")


def _section(raw: dict, name: str, keys, required: bool = True) -> dict:
    sec = raw.get(name)
    if sec is None:
        if required:
            raise ConfigError(name, "missing required section")
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(name, "section must be an object")
    _only(sec, f"{name}.", keys)
    return sec


def _number(val, field: str, name: str) -> float:
    """val as a finite float, else a ConfigError on field that names name.

    JSON gives ints of any size and the NaN and Infinity literals; all three
    are rejected here, so no later float() or isfinite() can raise.
    """
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ConfigError(field, f"{name} must be a number, got {val!r:.40}")
    try:
        out = float(val)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(field, f"{name} must be finite, got {val!r:.40}")
    return out


def _get(sec: dict, section: str, key: str, kind, required: bool = True, default=None):
    if key not in sec:
        if required:
            raise ConfigError(key, f"missing required field {section}.{key}")
        return default
    val = sec[key]
    if kind is float:
        return _number(val, key, f"{section}.{key}")
    if kind is int and isinstance(val, int) and not isinstance(val, bool):
        return int(val)
    if kind is str and isinstance(val, str):
        return val
    if kind is list and isinstance(val, list):
        return val
    if kind is dict and isinstance(val, dict):
        return val
    raise ConfigError(key, f"{section}.{key} must be of type {kind.__name__}")


def _coeff_vector(mapping: dict, n_modes: int, field: str) -> np.ndarray:
    if not isinstance(mapping, dict):
        raise ConfigError(field, f"{field} must be an object of mode/value pairs")
    out = np.zeros(n_modes)
    for key, val in mapping.items():
        try:
            mode = int(key)
        except ValueError:
            raise ConfigError(field, f"mode keys must be integers, got {key!r}") from None
        if not 1 <= mode <= n_modes:
            raise ConfigError(field, f"mode {mode} outside 1..{n_modes}")
        out[mode - 1] = _number(val, field, f"{field} mode {mode}")
    return out


@dataclass(frozen=True)
class RunSetup:
    """Everything a CLI command needs: simulation config plus reporting knobs."""

    config: SimConfig
    functional: mc.TestFunctional
    n_paths: int
    monitor_rho: float
    declared: dict | None  # checked declared norms, defaults filled in
    out_dir: str | None


def load_config(path: str) -> RunSetup:
    raw = _load_json(path)
    _only(raw, "", ("model", "time", "noise", "coefficients", "study", "output"))

    model_sec = _section(raw, "model", ("theta", "n_ref", "grid_points", "initial"))
    theta = _get(model_sec, "model", "theta", float)
    n_ref = _get(model_sec, "model", "n_ref", int)
    grid_points = _get(model_sec, "model", "grid_points", int, required=False, default=0)
    model = _wrap(lambda: build_model(theta, n_ref), "theta")
    initial_sec = _get(model_sec, "model", "initial", dict, required=False,
                       default={"pos": {}, "vel": {}})
    _only(initial_sec, "model.initial.", ("pos", "vel"))
    pos = _coeff_vector(initial_sec.get("pos", {}), n_ref, "initial.pos")
    vel = _coeff_vector(initial_sec.get("vel", {}), n_ref, "initial.vel")
    initial = PairState(pos, vel)

    time_sec = _section(raw, "time", ("t_final", "n_steps"))
    t_final = _get(time_sec, "time", "t_final", float)
    n_steps = _get(time_sec, "time", "n_steps", int)

    noise_sec = _section(raw, "noise", ("m_noise",))
    m_noise = _get(noise_sec, "noise", "m_noise", int)

    coefficients_sec = _section(raw, "coefficients", _COEFFICIENT_FIELDS)
    spec = _coefficients(coefficients_sec)
    declared = _declared_norms(coefficients_sec)

    study_sec = _section(raw, "study", ("levels", "n_paths", "rho_monitor", "functional"),
                         required=False)
    levels = study_sec.get("levels", [])
    if not isinstance(levels, list) or not all(
            isinstance(n, int) and not isinstance(n, bool) for n in levels):
        raise ConfigError("levels", "study.levels must be a list of integers")
    if any(n < 1 for n in levels):
        raise ConfigError("levels", f"study.levels must be at least 1, got {levels}")
    n_paths = _get(study_sec, "study", "n_paths", int, required=False, default=1000)
    monitor_rho = _get(study_sec, "study", "rho_monitor", float, required=False, default=0.0)
    functional = _functional(study_sec.get("functional", {"kind": "exp_neg_norm"}), n_ref)

    out_sec = _section(raw, "output", ("directory",), required=False)
    out_dir = _get(out_sec, "output", "directory", str, required=False)

    config = _wrap(lambda: SimConfig(model=model, levels=tuple(levels), t_final=t_final,
                                     n_steps=n_steps, m_noise=m_noise, spec=spec,
                                     initial=initial, grid_points=grid_points),
                   "model")
    return RunSetup(config, functional, n_paths, monitor_rho, declared, out_dir)


def _wrap(builder, field):
    try:
        return builder()
    except ValueError as exc:
        raise ConfigError(field, str(exc)) from None


# the parameters each preset or kind name takes
_PARAMETERS = {"anderson": ("alpha", "beta"), "zero": (),
               "additive-heat-kick": ("sigma",), "pointwise": ("b",)}
_KINDS = ("anderson", "pointwise", "zero")
_COEFFICIENT_FIELDS = ("preset", "kind", "drift", "declared_norms", "alpha", "beta",
                       "sigma", "b")


def _coefficients(sec: dict) -> CoefficientSpec:
    drift = None
    if "drift" in sec:
        drift = compile_expression(_get(sec, "coefficients", "drift", str), "drift")

    if "preset" in sec and "kind" in sec:
        raise ConfigError("kind", "give coefficients.preset or coefficients.kind, not both")
    field, names = ("preset", PRESETS) if "preset" in sec else ("kind", _KINDS)
    name = _get(sec, "coefficients", field, str)
    if name not in names:
        raise ConfigError(field, f"unknown {field} {name!r}")
    for key in ("alpha", "beta", "sigma", "b"):
        if key in sec and key not in _PARAMETERS[name]:
            raise ConfigError(key, f"coefficients.{key} does not apply to {field} {name!r}")

    if name == "pointwise":
        b_fn = compile_expression(_get(sec, "coefficients", "b", str), "b")
        return CoefficientSpec(diffusion="pointwise", drift=drift, pointwise_b=b_fn)
    sigma = _get(sec, "coefficients", "sigma", float, required=False, default=1.0)
    base = preset(name, sigma=sigma)
    alpha = _get(sec, "coefficients", "alpha", float, required=False, default=base.alpha)
    beta = _get(sec, "coefficients", "beta", float, required=False, default=base.beta)
    return CoefficientSpec(drift=drift, alpha=alpha, beta=beta)


# the declared norms: the bound needs every BoundParams field in _DECLARED_BOUND;
# rho and hs_tol have defaults, the moment envelope's pair has none and comes
# together or not at all; gamma, beta and rho may be negative
_DECLARED_BOUND = ("gamma", "beta", "phi_c2b", "f_lip_smooth", "f_lip_rho", "f_lip0",
                   "b_lip_gamma_op", "b_lip_rho_hs", "b_lip0_hs", "f_second", "b_second")
_DECLARED_DEFAULTS = {"rho": 0.0, "hs_tol": 1e-6}
_MOMENT_PAIR = ("moment_f_lip", "moment_b_hs")


def _declared_norms(sec: dict) -> dict | None:
    """coefficients.declared_norms as checked floats, or None when absent.

    The values are taken as given, never estimated or certified; errors
    other than an unknown key are on field declared_norms and name the key.
    """
    if "declared_norms" not in sec:
        return None
    raw = _get(sec, "coefficients", "declared_norms", dict)
    where = "coefficients.declared_norms."
    _only(raw, where, (*_DECLARED_BOUND, *_DECLARED_DEFAULTS, *_MOMENT_PAIR))
    declared = dict(_DECLARED_DEFAULTS)
    for key, val in raw.items():
        declared[key] = _number(val, "declared_norms", where + key)
        if declared[key] < 0 and key not in ("gamma", "beta", "rho"):
            raise ConfigError("declared_norms", f"{where}{key} must be nonnegative, "
                                                f"got {val}")
    missing = [key for key in _DECLARED_BOUND if key not in declared]
    if missing:
        raise ConfigError("declared_norms",
                          f"{where}{missing[0]} is required for the bound")
    if (_MOMENT_PAIR[0] in declared) != (_MOMENT_PAIR[1] in declared):
        raise ConfigError("declared_norms", f"give {where}moment_f_lip and moment_b_hs "
                                            "together or not at all")
    return declared


def _functional(sec: dict, n_ref: int) -> mc.TestFunctional:
    if not isinstance(sec, dict):
        raise ConfigError("functional", "study.functional must be an object")
    kind = sec.get("kind", "exp_neg_norm")
    where = "study.functional."
    if kind == "exp_neg_norm":
        _only(sec, where, ("kind",))
        return mc.exp_neg_norm()
    if kind == "cos_pairing":
        _only(sec, where, ("kind", "direction"))
        direction = _get(sec, "study.functional", "direction", dict, required=False,
                         default={})
        _only(direction, where + "direction.", ("pos", "vel"))
        pos = _coeff_vector(direction.get("pos", {}), n_ref, "functional.direction")
        vel = _coeff_vector(direction.get("vel", {}), n_ref, "functional.direction")
        return mc.cos_pairing(PairState(pos, vel))
    if kind == "coordinate":
        _only(sec, where, ("kind", "mode", "component"))
        mode = sec.get("mode")
        component = sec.get("component")
        if not isinstance(mode, int) or isinstance(mode, bool):
            raise ConfigError("mode", "functional.mode must be an integer")
        if component not in ("pos", "vel"):
            raise ConfigError("component", "functional.component must be 'pos' or 'vel'")
        return mc.coordinate(mode, component)
    raise ConfigError("functional", f"unknown functional kind {kind!r}")


_BOUND_FIELDS = {
    "t_final", "phi_c2b", "xi_l2_rho", "xi_l1_smooth", "f_lip_smooth",
    "f_lip_rho", "f_lip0", "b_lip_gamma_op", "b_lip_rho_hs", "b_lip0_hs",
    "f_second", "b_second", "lambda_pow_hs", "lambda_cut", "gamma", "beta",
}


def load_bound_params(path: str) -> BoundParams:
    """Read the explicit-bound inputs from a flat JSON object."""
    raw = _load_json(path)
    unknown = set(raw) - _BOUND_FIELDS
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown bound parameter")
    values = {}
    for name in _BOUND_FIELDS:
        if name not in raw:
            raise ConfigError(name, f"missing required field {name}")
        values[name] = _number(raw[name], name, name)
    return BoundParams(**values)


def bound_params_from_declared(setup: RunSetup) -> tuple[partial, ExponentPair]:
    """The bound's inputs but lambda_cut, from the declared norms, and its exponents.

    Checks the (gamma, beta) window and sums the Hilbert-Schmidt factor, so a
    norm set the bound rejects raises ConfigError before any path runs.  The
    returned partial takes ``lambda_cut`` and gives the BoundParams of one
    level.  Initial-state norms are computed exactly (the initial state is
    deterministic); the Hilbert-Schmidt factor gets a conservative upper
    estimate folding in the summation tolerance.
    """
    d = setup.declared
    gamma, beta, hs_tol = d["gamma"], d["beta"], d["hs_tol"]
    exponents = _wrap(lambda: predicted_exponent(gamma, beta), "declared_norms")
    model = setup.config.model
    initial = setup.config.initial
    try:
        hs = hs_norm_lambda_pow(model.theta, beta, hs_tol)
    except ValueError as exc:
        raise ConfigError("declared_norms",
                          f"declared_norms.beta and hs_tol: {exc}") from None
    params = partial(
        BoundParams,
        t_final=setup.config.t_final,
        xi_l2_rho=norm_bold_hr(initial, d["rho"], model),
        xi_l1_smooth=norm_bold_hr(initial, 2.0 * (gamma - beta), model),
        lambda_pow_hs=float(np.sqrt(hs * hs + hs_tol**2)),
        **{key: d[key] for key in _DECLARED_BOUND},
    )
    return params, exponents


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"config file not found: {path}") from None
    except ValueError as exc:
        # also an integer longer than int's string limit, or bytes not UTF-8
        raise ConfigError("config", f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config", "config root must be an object")
    return raw


def config_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
