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
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from . import mc
from .analysis import BoundParams, ExponentPair, predicted_exponent, theoretical_weak_bound
from .coefficients import PRESETS, CoefficientSpec, preset
from .integrator import SimConfig
from .spectral import PairState, build_model, hs_norm_lambda_pow, norm_bold_hr, pair_weights

__all__ = [
    "ConfigError",
    "RunSetup",
    "compile_expression",
    "load_config",
    "load_bound_params",
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
            _number(node.value, field, "an expression constant")
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

    try:
        tree = ast.parse(text, mode="eval")
        check(tree.body)
        code = compile(tree, f"<{field}>", "eval")
    except SyntaxError as exc:
        raise ConfigError(field, f"invalid expression: {exc.msg}") from None
    except RecursionError:
        # parse, check and compile each recurse once per level of nesting
        raise ConfigError(field, "expression nested too deeply") from None

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
            mode = None
        # int() also reads "01", " 1", "+1" and "1_0"
        if mode is None or str(mode) != key:
            raise ConfigError(field, f"mode keys must be plain integers, got {key!r:.40}")
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
    digest: str  # sha256 of the config file's bytes, the ones parsed


def load_config(path: str) -> RunSetup:
    raw, digest = _load_json(path)
    _only(raw, "", ("model", "time", "noise", "coefficients", "study", "output"))

    model_sec = _section(raw, "model", ("theta", "n_ref", "grid_points", "initial"))
    theta = _get(model_sec, "model", "theta", float)
    n_ref = _get(model_sec, "model", "n_ref", int)
    if n_ref < 1:
        raise ConfigError("n_ref", f"model.n_ref must be at least 1, got {n_ref}")
    grid_points = _get(model_sec, "model", "grid_points", int, required=False, default=0)
    model = _wrap(lambda: build_model(theta, n_ref), "theta", "model.", "model.n_ref")
    initial_sec = _get(model_sec, "model", "initial", dict, required=False,
                       default={"pos": {}, "vel": {}})
    _only(initial_sec, "model.initial.", ("pos", "vel"))
    pos = _coeff_vector(initial_sec.get("pos", {}), n_ref, "initial.pos")
    vel = _coeff_vector(initial_sec.get("vel", {}), n_ref, "initial.vel")
    initial = PairState(pos, vel)

    time_sec = _section(raw, "time", ("t_final", "n_steps"))
    t_final = _get(time_sec, "time", "t_final", float)
    if not t_final > 0:
        raise ConfigError("t_final", f"time.t_final must be positive, got {t_final}")
    n_steps = _get(time_sec, "time", "n_steps", int)
    if n_steps < 1:
        raise ConfigError("n_steps", f"time.n_steps must be at least 1, got {n_steps}")

    noise_sec = _section(raw, "noise", ("m_noise",))
    m_noise = _get(noise_sec, "noise", "m_noise", int)
    if m_noise < 1:
        raise ConfigError("m_noise", f"noise.m_noise must be at least 1, got {m_noise}")
    need = max(n_ref, m_noise)
    if grid_points != 0 and grid_points < need:
        raise ConfigError("grid_points", f"model.grid_points must be 0 (the default) or at "
                                         f"least max(n_ref, m_noise)={need}, got {grid_points}")

    coefficients_sec = _section(raw, "coefficients", _COEFFICIENT_FIELDS)
    spec = _coefficients(coefficients_sec)
    declared = _declared_norms(coefficients_sec)

    study_sec = _section(raw, "study", ("levels", "n_paths", "rho_monitor", "functional"),
                         required=False)
    levels = study_sec.get("levels", [])
    if not isinstance(levels, list) or not all(
            isinstance(n, int) and not isinstance(n, bool) for n in levels):
        raise ConfigError("levels", "study.levels must be a list of integers")
    # 0 < first < ... < last < n_ref, checked here so the message names levels
    if any(b <= a for a, b in zip((0, *levels), (*levels, n_ref))):
        raise ConfigError("levels", f"study.levels must be at least 1, strictly ascending "
                                    f"and below model.n_ref={n_ref}, got {levels}")
    n_paths = _get(study_sec, "study", "n_paths", int, required=False, default=1000)
    if n_paths < 2:
        raise ConfigError("n_paths", f"study.n_paths must be at least 2, got {n_paths}")
    monitor_rho = _get(study_sec, "study", "rho_monitor", float, required=False, default=0.0)
    # the moment monitor squares the weighted norms, so a weight must square
    # within float range; at rho = 0 only the velocity weight 1/|lam| can
    # overflow, and it depends on theta alone
    for key, given, rho in (("theta", f"model.theta {theta}", 0.0),
                            ("rho_monitor", f"study.rho_monitor {monitor_rho}", monitor_rho)):
        with np.errstate(over="ignore"):
            squares = [w * w for w in pair_weights(model, n_ref, rho)]
        if not all(np.isfinite(sq).all() for sq in squares):
            raise ConfigError(key, f"{given} overflows the squared pair-space weights of "
                                   f"model.n_ref={n_ref} modes")
    functional = _functional(study_sec.get("functional", {"kind": "exp_neg_norm"}), n_ref)

    out_sec = _section(raw, "output", ("directory",), required=False)
    out_dir = _get(out_sec, "output", "directory", str, required=False)

    # every input SimConfig checks was checked above, under its own key; its
    # grid has grid_points nodes, or by default 4 * max(n_ref, m_noise)
    sized_by = ("model.grid_points" if grid_points else
                "model.n_ref" if n_ref >= m_noise else "noise.m_noise")
    config = _wrap(lambda: SimConfig(
        model=model, levels=tuple(levels), t_final=t_final, n_steps=n_steps, m_noise=m_noise,
        spec=spec, initial=initial, grid_points=grid_points), "config", "", sized_by)
    return RunSetup(config, functional, n_paths, monitor_rho, declared, out_dir, digest)


# numpy's ValueError texts for a shape it cannot index
_UNINDEXABLE = ("Maximum allowed dimension exceeded", "array is too big",
                "Maximum allowed size exceeded")


def _too_large(exc: Exception) -> bool:
    """Whether exc says an array could not be allocated or indexed."""
    return isinstance(exc, MemoryError) or (
        isinstance(exc, ValueError) and str(exc).startswith(_UNINDEXABLE))


def _wrap(builder, field, prefix="", sized_by=None):
    """builder(); its ValueError a ConfigError on field, but an array too large
    to allocate or index one on the key of sized_by, the section.key of that
    size, or raised as it is without sized_by."""
    try:
        return builder()
    except (ValueError, MemoryError) as exc:
        if not _too_large(exc):
            raise ConfigError(field, f"{prefix}{exc}") from None
        if sized_by is None:
            raise
        raise ConfigError(sized_by.split(".")[1], f"{sized_by} too large: {exc}") from None


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
        if not 1 <= mode <= n_ref:
            raise ConfigError("mode", f"functional.mode {mode} outside 1..n_ref={n_ref}")
        if component not in ("pos", "vel"):
            raise ConfigError("component", "functional.component must be 'pos' or 'vel'")
        return mc.coordinate(mode, component)
    raise ConfigError("functional", f"unknown functional kind {kind!r}")


def load_bound_params(path: str) -> BoundParams:
    """Read every BoundParams field, in field order, from a flat JSON object."""
    raw, _ = _load_json(path)
    names = [f.name for f in dataclasses.fields(BoundParams)]
    _only(raw, "", names)
    values = {}
    for name in names:
        if name not in raw:
            raise ConfigError(name, f"missing required field {name}")
        values[name] = _number(raw[name], name, name)
    return BoundParams(**values)


def declared_bounds(setup: RunSetup) -> tuple[list[float], ExponentPair, float | None] | None:
    """What the declared norms imply: the weak bound at every study level, its
    exponent pair and the moment monitor's envelope; None without declared norms.

    The envelope max(1, |initial| at rho_monitor) exp(t_final (moment_f_lip +
    moment_b_hs^2 / 2)) is None unless that pair is declared.  Checks, in this
    order, the (gamma, beta) window, the Hilbert-Schmidt sum, the pair-space
    weights at rho and 2(gamma - beta), the bound at each level and the
    envelope's float range, each a ConfigError on field declared_norms, so a
    norm set the bound rejects stops a study before its first path.
    Initial-state norms are computed exactly (the initial state is
    deterministic); the Hilbert-Schmidt factor gets a conservative upper
    estimate folding in the summation tolerance.
    """
    d = setup.declared
    if d is None:
        return None
    cfg = setup.config
    model, initial = cfg.model, cfg.initial
    gamma, beta, hs_tol = d["gamma"], d["beta"], d["hs_tol"]
    exponents = _wrap(lambda: predicted_exponent(gamma, beta), "declared_norms")
    try:
        hs = hs_norm_lambda_pow(model.theta, beta, hs_tol)
    except ValueError as exc:
        raise ConfigError("declared_norms",
                          f"declared_norms.beta and hs_tol: {exc}") from None
    # a weight past float range meets a zero mode of the initial state as
    # inf * 0 = nan, which the bound's max(1, .) would drop
    smooth = 2.0 * (gamma - beta)
    for given, r in ((f"rho {d['rho']}", d["rho"]),
                     (f"gamma and beta: 2(gamma - beta) = {smooth}", smooth)):
        if not all(np.isfinite(w).all() for w in pair_weights(model, cfg.n_ref, r)):
            raise ConfigError("declared_norms", f"declared_norms.{given} overflows the "
                                                f"pair-space weights of model.n_ref="
                                                f"{cfg.n_ref} modes")
    inputs = dict(
        t_final=cfg.t_final,
        xi_l2_rho=norm_bold_hr(initial, d["rho"], model),
        xi_l1_smooth=norm_bold_hr(initial, smooth, model),
        lambda_pow_hs=float(np.sqrt(hs * hs + hs_tol**2)),
        **{key: d[key] for key in _DECLARED_BOUND},
    )
    # lambda_cut of level L is |lam| of mode L + 1, lam[L]
    bounds = _wrap(lambda: [
        theoretical_weak_bound(BoundParams(lambda_cut=float(-model.lam[level]), **inputs))
        for level in cfg.levels], "declared_norms")
    if _MOMENT_PAIR[0] not in d:
        return bounds, exponents, None
    with np.errstate(over="ignore"):
        envelope = max(1.0, norm_bold_hr(initial, setup.monitor_rho, model)) \
            * float(np.exp(cfg.t_final * (d["moment_f_lip"] + 0.5 * d["moment_b_hs"] ** 2)))
    if not np.isfinite(envelope):
        raise ConfigError("declared_norms", "the moment envelope max(1, |initial|) * "
                                            "exp(t_final (moment_f_lip + moment_b_hs^2 / 2)) "
                                            "overflows float range")
    return bounds, exponents, envelope


def _load_json(path: str) -> tuple[dict, str]:
    """The JSON object in the file at path, and the sha256 of the bytes read."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc.strerror}") from None
    try:
        raw = json.loads(data.decode("utf-8"), object_pairs_hook=_unique_keys)
    except ConfigError:
        raise
    except ValueError as exc:
        # also an integer longer than int's string limit, or bytes not UTF-8
        raise ConfigError("config", f"config is not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError("config", "config nests too deeply to parse") from None
    if not isinstance(raw, dict):
        raise ConfigError("config", "config root must be an object")
    return raw, hashlib.sha256(data).hexdigest()


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict; json itself keeps the last of equal keys."""
    obj = {}
    for key, val in pairs:
        if key in obj:
            raise ConfigError(key, f"duplicate key {key!r}")
        obj[key] = val
    return obj
