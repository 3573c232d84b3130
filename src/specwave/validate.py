"""Runtime checks behind the ``validate`` CLI command.

Each check exercises numerics that the installed numpy, BLAS or
random number generator can break, and raises AssertionError with a short
reason when it fails; ``_require`` raises it, because ``python -O`` strips
assert statements.  Properties that only the package's own code decides
are left to the test suite.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import coefficients, integrator, mc, propagator, spectral

__all__ = ["CheckResult", "run_checks"]


def _require(ok, reason: str) -> None:
    if not ok:
        raise AssertionError(reason)


def _rng(tag: int) -> np.random.Generator:
    return np.random.default_rng(915 + tag)


def check_transform_roundtrip():
    grid = spectral.GridWorkspace(24)
    a = _rng(1).standard_normal(24)
    back = grid.analyze(grid.synthesize(a), 24)
    _require(np.max(np.abs(back - a)) < 1e-12, "analyze(synthesize) != identity")


def check_dealias_stability():
    rng = _rng(9)
    pos = rng.standard_normal(6)
    dw = rng.standard_normal(8)
    spec = coefficients.CoefficientSpec(diffusion="anderson", alpha=0.4, beta=1.1)
    out = [coefficients.diffusion_vel(pos, dw, spec, spectral.GridWorkspace(g), 6)
           for g in (14, 28)]
    _require(np.max(np.abs(out[0] - out[1])) < 1e-10, "product projection grid-dependent")


def check_isometry():
    model = spectral.build_model(1.0, 16)
    rng = _rng(5)
    for _ in range(200):
        st = spectral.PairState(rng.standard_normal(16), rng.standard_normal(16))
        t = float(rng.uniform(0.0, 10.0))
        before = spectral.norm_bold_hr(st, 0.0, model)
        after = spectral.norm_bold_hr(propagator.propagate(st, t, model), 0.0, model)
        _require(abs(after - before) < 1e-12 * max(1.0, before),
                 "group is not an isometry")


def check_zero_spec_reduces_to_group():
    cfg = _small_config(coefficients.preset("zero"))
    (pos, vel), = _terminal_states(cfg, (cfg.n_ref,), range(1), 7)
    exact = propagator.propagate(cfg.initial, cfg.t_final, cfg.model)
    err = max(np.max(np.abs(pos[0] - exact.pos)), np.max(np.abs(vel[0] - exact.vel)))
    _require(err < 1e-10, "zero-coefficient path deviates from the group")


def check_path_determinism():
    cfg = _small_config(coefficients.preset("anderson"))
    a = _terminal_states(cfg, (cfg.n_ref, 4), range(3), 11)
    b = _terminal_states(cfg, (cfg.n_ref, 4), range(3), 11)
    _require(all(np.array_equal(x, y) for sa, sb in zip(a, b) for x, y in zip(sa, sb)),
             "same seed produced different paths")


def check_batch_matches_stepper():
    cfg = _small_config(coefficients.preset("anderson"))
    levels = (cfg.n_ref, *cfg.levels)
    batched = _terminal_states(cfg, levels, range(3), 17)
    for row in range(3):
        noise = integrator.noise_block(integrator.path_seed(17, row), cfg.n_steps,
                                       cfg.m_noise, cfg.dt)
        for level, (pos, vel) in zip(levels, batched):
            state = spectral.PairState(cfg.initial.pos[:level], cfg.initial.vel[:level])
            for dw in noise:
                state = integrator.step(state, cfg.dt, dw, cfg.spec, cfg.grid, cfg.model)
            err = max(np.max(np.abs(pos[row] - state.pos)),
                      np.max(np.abs(vel[row] - state.vel)))
            _require(err < 1e-12,
                     f"batched engine deviates from the stepper at level {level}")


def _terminal_states(cfg, levels, paths, seed):
    """Terminal (pos, vel) arrays of ``run_chunk``, one pair per level."""
    states = []

    def capture(pos, vel, model):
        states.append((pos.copy(), vel.copy()))
        return np.zeros(pos.shape[0])

    integrator.run_chunk(cfg, levels, paths, seed,
                         phi=mc.TestFunctional("state", False, capture))
    return states


def _small_config(spec) -> integrator.SimConfig:
    model = spectral.build_model(1.0, 8)
    pos = np.zeros(8)
    pos[0] = 1.0
    return integrator.SimConfig(model=model, levels=(2, 4), t_final=1.0, n_steps=32,
                                m_noise=16, spec=spec,
                                initial=spectral.PairState(pos, np.zeros(8)))


_CHECKS = [
    ("transform roundtrip", check_transform_roundtrip),
    ("product dealiasing", check_dealias_stability),
    ("group isometry", check_isometry),
    ("zero coefficients reduce to group", check_zero_spec_reduces_to_group),
    ("path determinism", check_path_determinism),
    ("batched engine equals stepper", check_batch_matches_stepper),
]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def run_checks() -> list[CheckResult]:
    results = []
    for name, fn in _CHECKS:
        try:
            fn()
        except AssertionError as exc:
            results.append(CheckResult(name, False, str(exc)))
        except Exception as exc:  # report, never crash the table
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
        else:
            results.append(CheckResult(name, True))
    return results
