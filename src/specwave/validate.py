"""Runtime checks behind the ``validate`` CLI command.

Four checks exercise numerics that the installed numpy, BLAS or random
number generator can break: the wave group is an isometry, a path with zero
coefficients follows the group, one seed gives one path, and one Anderson
step of the stepping engine (``integrator.run_chunk``, behind every command)
matches the closed-form triple product of the sine basis, with the position
and with the noise projected onto cosines.  Each raises AssertionError with a
short reason when it fails; ``_require`` raises it, because ``python -O``
strips assert statements.  Properties that only the package's own code
decides are left to the test suite.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import coefficients, integrator, propagator, spectral

__all__ = ["CheckResult", "run_checks"]


def _require(ok, reason: str) -> None:
    if not ok:
        raise AssertionError(reason)


def _rng(tag: int) -> np.random.Generator:
    return np.random.default_rng(915 + tag)


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
    (pos, vel), = integrator.run_chunk(cfg, (cfg.n_ref,), range(1), 7)["states"]
    exact = propagator.propagate(cfg.initial, cfg.t_final, cfg.model)
    err = max(np.max(np.abs(pos[0] - exact.pos)), np.max(np.abs(vel[0] - exact.vel)))
    _require(err < 1e-10, "zero-coefficient path deviates from the group")


def check_path_determinism():
    cfg = _small_config(coefficients.preset("anderson"))
    a, b = (integrator.run_chunk(cfg, (cfg.n_ref, 4), range(3), 11)["states"]
            for _ in range(2))
    _require(all(np.array_equal(x, y) for sa, sb in zip(a, b) for x, y in zip(sa, sb)),
             "same seed produced different paths")


def check_exact_product():
    # one step from a random state: the velocity gains the Anderson product
    # v dW projected onto the sine basis, then the state rotates; the
    # reference 16 > m_noise = 7 projects its position onto cosines on 23
    # nodes, a centre node among them, and level 4 the noise on 8
    model = spectral.build_model(1.0, 16)
    rng = _rng(17)
    initial = spectral.PairState(rng.standard_normal(16), rng.standard_normal(16))
    cfg = integrator.SimConfig(model=model, levels=(4,), t_final=0.5, n_steps=1,
                               m_noise=7, spec=coefficients.preset("anderson"),
                               initial=initial)
    levels = (cfg.n_ref, 4)
    batched = integrator.run_chunk(cfg, levels, range(3), 17)["states"]
    triple = _triple_product(cfg.m_noise, cfg.n_ref)
    for row in range(3):
        # run_chunk's draw for one step of the path
        dw = (np.random.default_rng(integrator.path_seed(17, row))
              .standard_normal(cfg.m_noise) * np.sqrt(cfg.dt))
        for level, (pos, vel) in zip(levels, batched):
            p0 = initial.pos[:level]
            v1 = initial.vel[:level] + np.einsum("j,n,jnk->k", dw, p0,
                                                 triple[:, :level, :level])
            want = propagator.propagate(spectral.PairState(p0, v1), cfg.dt, model)
            err = max(np.max(np.abs(pos[row] - want.pos)),
                      np.max(np.abs(vel[row] - want.vel)))
            _require(err < 1e-12, f"Anderson step deviates from the exact product "
                                  f"at level {level}")


def _triple_product(m_noise, n_modes):
    """t[j-1, n-1, k-1] = integral over (0,1) of e_j e_n e_k, in closed form:

    (sqrt2/2) [g(j+n-k) + g(n+k-j) + g(k+j-n) - g(j+n+k)] with g(p) = 2/(p pi)
    for odd p and 0 otherwise.
    """
    j, n, k = np.ix_(np.arange(1, m_noise + 1), np.arange(1, n_modes + 1),
                     np.arange(1, n_modes + 1))

    def g(p):
        odd = p % 2 == 1
        return np.where(odd, 2.0 / (np.pi * np.where(odd, p, 1)), 0.0)

    return np.sqrt(0.5) * (g(j + n - k) + g(n + k - j) + g(k + j - n) - g(j + n + k))


def _small_config(spec) -> integrator.SimConfig:
    model = spectral.build_model(1.0, 8)
    pos = np.zeros(8)
    pos[0] = 1.0
    return integrator.SimConfig(model=model, levels=(2, 4), t_final=1.0, n_steps=32,
                                m_noise=16, spec=spec,
                                initial=spectral.PairState(pos, np.zeros(8)))


_CHECKS = [
    ("group isometry", check_isometry),
    ("zero coefficients reduce to group", check_zero_spec_reduces_to_group),
    ("path determinism", check_path_determinism),
    ("exact product", check_exact_product),
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
