import dataclasses
import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

import specwave as sw
from specwave import integrator
from specwave.coefficients import diffusion_vel, drift_vel
from specwave.config import load_config
from specwave.integrator import run_chunk, step
from specwave.spectral import pair_weights

from conftest import (expected_row, phi_at, small_anderson_config, step_loop, truncated,
                      zero_config)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


class TestStep:
    def test_zero_spec_reduces_to_group(self, model8, grid32):
        rng = np.random.default_rng(0)
        st = sw.PairState(rng.standard_normal(8), rng.standard_normal(8))
        out = step(st, 0.125, rng.standard_normal(8), sw.preset("zero"), grid32, model8)
        want = sw.propagate(st, 0.125, model8)
        assert np.array_equal(out.pos, want.pos)
        assert np.array_equal(out.vel, want.vel)

    def test_constant_drift_composes(self):
        # compose the drift oracle with the group: one step from rest
        model = sw.build_model(1.0, 1)
        grid = sw.GridWorkspace(512)
        spec = sw.CoefficientSpec(beta=0.0, drift=lambda x, y: np.ones_like(y))
        st = sw.PairState([0.0], [0.0])
        dt = 0.1
        out = step(st, dt, np.zeros(1), spec, grid, model)
        drift = drift_vel(st.pos, spec, grid, 1)
        want = sw.propagate(sw.PairState([0.0], dt * drift), dt, model)
        assert np.max(np.abs(out.pos - want.pos)) < 1e-12
        assert np.max(np.abs(out.vel - want.vel)) < 1e-12
        assert drift[0] == pytest.approx(2 * math.sqrt(2) / math.pi, abs=1e-5)

    def test_additive_step_is_propagated_kick(self, model8, grid32):
        # one step from rest: state equals the rotated diffusion increment, and
        # the increment's velocity coefficients have second moment sigma^2 dt
        sigma, dt = 0.7, 0.2
        spec = sw.preset("additive-heat-kick", sigma=sigma)
        st = sw.PairState(np.zeros(8), np.zeros(8))
        rng = np.random.default_rng(1)
        draws = rng.standard_normal((100_000, 8)) * math.sqrt(dt)
        second = np.mean((sigma * draws) ** 2, axis=0)
        assert np.max(np.abs(second - sigma**2 * dt)) < 3e-3  # 100k-draw oracle
        out = step(st, dt, draws[0], spec, grid32, model8)
        kick = diffusion_vel(st.pos, draws[0], spec, grid32, 8)
        want = sw.propagate(sw.PairState(np.zeros(8), kick), dt, model8)
        assert np.array_equal(out.pos, want.pos)
        assert np.array_equal(out.vel, want.vel)

    def test_rotation_overflow_is_a_quiet_blow_up(self, model8, grid32):
        # mu sin(mu dt) times 1e308 overflows in the rotation itself
        st = sw.PairState(np.full(8, 1e308), np.zeros(8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(sw.BlowUpError) as err:
                step(st, 0.1, np.zeros(8), sw.preset("zero"), grid32, model8)
        # a single step knows no time grid, level or path, so names none
        assert str(err.value) == "non-finite state"

    def test_rejects_nonpositive_dt(self, model8, grid32):
        st = sw.PairState(np.zeros(8), np.zeros(8))
        with pytest.raises(ValueError):
            step(st, 0.0, np.zeros(8), sw.preset("zero"), grid32, model8)


class TestSimConfig:
    def test_levels_must_ascend(self, model8):
        with pytest.raises(ValueError, match="ascending"):
            sw.SimConfig(model=model8, levels=(4, 2), t_final=1.0, n_steps=4,
                         m_noise=4, spec=sw.preset("zero"),
                         initial=sw.PairState(np.zeros(8), np.zeros(8)))

    def test_levels_capped_by_reference(self, model8):
        with pytest.raises(ValueError, match="reference"):
            sw.SimConfig(model=model8, levels=(16,), t_final=1.0, n_steps=4,
                         m_noise=4, spec=sw.preset("zero"),
                         initial=sw.PairState(np.zeros(8), np.zeros(8)))

    def test_levels_below_one_rejected(self, model8):
        with pytest.raises(ValueError, match="at least 1"):
            sw.SimConfig(model=model8, levels=(0, 4), t_final=1.0, n_steps=4,
                         m_noise=4, spec=sw.preset("zero"),
                         initial=sw.PairState(np.zeros(8), np.zeros(8)))

    def test_default_grid(self, model8):
        cfg = sw.SimConfig(model=model8, levels=(2,), t_final=1.0, n_steps=4,
                           m_noise=16, spec=sw.preset("anderson"),
                           initial=sw.PairState(np.zeros(8), np.zeros(8)))
        assert cfg.grid_points == 64  # 4 * max(n_ref, m_noise)

    @pytest.mark.parametrize("spec", [
        sw.preset("anderson"),
        sw.CoefficientSpec(alpha=0.5, beta=0.5),
        sw.preset("zero"),
        sw.preset("additive-heat-kick", sigma=0.5),
    ], ids=["anderson", "affine", "zero", "additive-heat-kick"])
    def test_coarse_grid_serves_every_kind(self, model8, spec):
        # one rule for every kind: grid_points >= max(n_ref, m_noise) = 16; a
        # product runs on a grid of its own, so 16 points give the bytes of 64
        def build(grid_points):
            return sw.SimConfig(model=model8, levels=(2,), t_final=1.0, n_steps=4,
                                m_noise=16, spec=spec,
                                initial=sw.PairState(np.ones(8), np.zeros(8)),
                                grid_points=grid_points)

        with pytest.raises(ValueError, match="grid_points"):
            build(15)
        phi = sw.exp_neg_norm()
        coarse, wide = (run_chunk(build(g), (8, 2), range(2), 3, phi=phi,
                                  strong_vs_first=True) for g in (16, 64))
        assert np.array_equal(coarse["phi"], wide["phi"])
        assert np.array_equal(coarse["strong_sq"], wide["strong_sq"])


class TestSimulatePath:
    def test_zero_spec_terminal(self):
        cfg = zero_config(initial_pos=[1, 0, 0.5, 0, 0, 0, 0, -0.25])
        out = step_loop(cfg, 3, 0)
        for level in (2, 4, 6, 8):
            want = sw.propagate(truncated(cfg.initial, level), 1.0, cfg.model)
            assert np.max(np.abs(out[level].pos - want.pos[:level])) < 1e-10
            assert np.max(np.abs(out[level].vel - want.vel[:level])) < 1e-10

    def test_bitwise_determinism(self):
        cfg = small_anderson_config()
        a, b = (run_chunk(cfg, (32, 8), range(5, 6), 7, phi=sw.exp_neg_norm(),
                          strong_vs_first=True) for _ in range(2))
        assert np.array_equal(a["phi"], b["phi"])
        assert np.array_equal(a["strong_sq"], b["strong_sq"])

    @pytest.mark.parametrize("paths", [range(1), range(2, 5)])
    def test_zero_spec_is_the_group_bitwise(self, paths):
        # with no coefficient a step is the rotation alone: every row of every
        # level, reference first, equals 32 applications of propagate, bit for bit
        rng = np.random.default_rng(6)
        cfg = zero_config(initial_pos=rng.standard_normal(8),
                          initial_vel=rng.standard_normal(8))
        levels = (8, 2, 4)
        for level, (pos, vel) in zip(levels, run_chunk(cfg, levels, paths, 3)["states"]):
            want = sw.PairState(cfg.initial.pos[:level], cfg.initial.vel[:level])
            for _ in range(cfg.n_steps):
                want = sw.propagate(want, cfg.dt, cfg.model)
            for row in range(len(paths)):
                assert np.array_equal(pos[row], want.pos), level
                assert np.array_equal(vel[row], want.vel), level

    @pytest.mark.parametrize("level", [0, 9])
    def test_level_outside_reference_rejected(self, level):
        # level 0 ran silently with (b, 0) states; level 9 died in a numpy
        # broadcast that named no level
        cfg = zero_config()
        with pytest.raises(ValueError, match=f"level {level} "):
            run_chunk(cfg, (cfg.n_ref, level), range(2), 1)

    @pytest.mark.parametrize("level", [4, 16])
    def test_additive_chunk_step_is_propagated_kick(self, level):
        # one run_chunk step from rest: the rotated kick sigma dW on the first
        # min(L, m) velocity modes, bit for bit
        n, m, sigma, dt = 16, 8, 0.7, 0.2
        model = sw.build_model(1.0, n)
        cfg = sw.SimConfig(model=model, levels=(level,), t_final=dt, n_steps=1, m_noise=m,
                           spec=sw.preset("additive-heat-kick", sigma=sigma),
                           initial=sw.PairState(np.zeros(n), np.zeros(n)))
        paths = range(3)
        (pos, vel), = run_chunk(cfg, (level,), paths, 41)["states"]
        k = min(level, m)
        for row, idx in enumerate(paths):
            rng = np.random.default_rng(sw.path_seed(41, idx))
            dw = rng.standard_normal(m) * np.sqrt(dt)
            kick = np.zeros(level)
            kick[:k] = sigma * dw[:k]
            want = sw.propagate(sw.PairState(np.zeros(level), kick), dt, model)
            assert np.array_equal(pos[row], want.pos)
            assert np.array_equal(vel[row], want.vel)

    def test_additive_second_moment_closed_form(self):
        # Ito isometry plus the group isometry give the closed form
        # E ||X_T||^2 = ||xi||^2 + T sum_k ||P_N B e_k||^2
        n, m, sigma = 8, 16, 0.5
        model = sw.build_model(1.0, n)
        pos = np.zeros(n)
        pos[0] = 1.0
        cfg = sw.SimConfig(model=model, levels=(4,), t_final=1.0, n_steps=32,
                           m_noise=m,
                           spec=sw.preset("additive-heat-kick", sigma=sigma),
                           initial=sw.PairState(pos, np.zeros(n)))
        closed = 1.0 + sigma**2 * float(np.sum(1.0 / model.abs_lam(n)))
        vals = np.empty(5000)
        for lo in range(0, 5000, 1000):
            out = run_chunk(cfg, (n,), range(lo, lo + 1000), 31415,
                            phi=_h0_sq(), strong_vs_first=False)
            vals[lo:lo + 1000] = out["phi"][:, 0]
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        assert abs(mean - closed) <= 3 * se


class TestSimulateCoupled:
    def test_singleton_reference(self):
        cfg = small_anderson_config()
        phi = sw.exp_neg_norm()
        alone = run_chunk(cfg, (32,), range(2, 4), 9, phi=phi, strong_vs_first=True)
        assert alone["phi"].shape == (2, 1)
        assert alone["strong_sq"].shape == (2, 0)
        want = phi_at(phi, step_loop(cfg, 9, 3)[32], cfg.model)
        assert alone["phi"][1, 0] == pytest.approx(want, rel=1e-12, abs=0)

    def test_matches_single_paths_bitwise(self):
        # coupling replays the increments; it does not touch a level's arithmetic
        cfg = small_anderson_config()
        phi = sw.exp_neg_norm()
        levels = (32, 4, 8, 16)
        coupled = run_chunk(cfg, levels, range(4, 6), 10, phi=phi)
        for j, level in enumerate(levels):
            alone = run_chunk(cfg, (level,), range(4, 6), 10, phi=phi)
            assert np.array_equal(coupled["phi"][:, j], alone["phi"][:, 0])

    def test_zero_spec_levels_differ_by_tail(self):
        init = np.zeros(8)
        init[1], init[6] = 1.0, 2.0
        cfg = zero_config(initial_pos=init)
        out = step_loop(cfg, 11, 0)
        full = sw.propagate(cfg.initial, 1.0, cfg.model)
        for level in (2, 4, 6):
            pad = np.zeros(8)
            pad[:level] = out[level].pos
            tail = full.pos - pad
            assert np.max(np.abs(tail[:level])) < 1e-12
            assert np.allclose(tail[level:], full.pos[level:], atol=1e-12)

    def test_strong_gap_shrinks_with_level(self):
        cfg = small_anderson_config()
        out = run_chunk(cfg, (32, *cfg.levels), range(40), 12, strong_vs_first=True)
        gaps = out["strong_sq"].sum(axis=0)
        assert gaps[0] > gaps[1] > gaps[2]


class TestTerminalStates:
    """run_chunk's "states" are the state an observer sees at the last step."""

    @pytest.mark.parametrize("preset", ["zero", "anderson"])
    @pytest.mark.parametrize("coarsen", [1, 2])
    @pytest.mark.parametrize("paths", [range(1), range(2, 5)], ids=["1-path", "3-paths"])
    def test_states_are_the_observed_last_step(self, preset, coarsen, paths):
        cfg = dataclasses.replace(small_anderson_config(n_ref=16, levels=(4, 8), n_steps=16,
                                                        m_noise=8), spec=sw.preset(preset))
        levels = (cfg.n_ref, *cfg.levels)
        last = {}

        def keep(i, k, pos, vel, square):
            if k == cfg.n_steps // coarsen:
                last[i] = (pos.copy(), vel.copy())

        observed = run_chunk(cfg, levels, paths, 13, coarsen=coarsen, observe=keep)["states"]
        unobserved = run_chunk(cfg, levels, paths, 13, coarsen=coarsen)["states"]
        assert len(observed) == len(unobserved) == len(levels) == len(last)
        for i, level in enumerate(levels):
            for got in (observed[i], unobserved[i]):
                assert all(a.shape == (len(paths), level) for a in got)
                assert np.array_equal(got[0], last[i][0]), level
                assert np.array_equal(got[1], last[i][1]), level


class TestPairNormBits:
    """exp_neg_norm and the strong gaps, bit for bit against the inline r = 0
    form sum pos^2 + sum vel^2 / |lam| of ``_h0_sq`` (step_loop pins them to 1e-12)."""

    def test_functional_and_gaps(self):
        cfg = small_anderson_config(n_steps=16)
        levels = (cfg.n_ref, *cfg.levels)
        out = run_chunk(cfg, levels, range(7), 19, phi=sw.exp_neg_norm(),
                        strong_vs_first=True)
        final = dict(zip(levels, out["states"]))
        h0_sq = _h0_sq().evaluate_batch
        want = [np.exp(-h0_sq(*final[level], cfg.model)) for level in levels]
        assert np.array_equal(out["phi"], np.column_stack(want))
        ref_pos, ref_vel = final[cfg.n_ref]
        for j, level in enumerate(cfg.levels):
            dp, dv = ref_pos.copy(), ref_vel.copy()
            dp[:, :level] -= final[level][0]
            dv[:, :level] -= final[level][1]
            assert np.array_equal(out["strong_sq"][:, j], h0_sq(dp, dv, cfg.model))


def _moment_observer(weights, sums):
    """run_study's moment monitor as an observer: sums[i, k] for levels[i]
    at step k, squared into the scratch the engine lends."""
    def observe(i, k, pos, vel, square):
        integrator._record_moment(sums[i, k], pos, vel, *weights[i], square)
    return observe


def _tanh_drift(x, y):
    return -np.tanh(y)


class TestBatchMatchesSingle:
    """run_chunk's grid fields against the single-path stepper's transforms."""

    @staticmethod
    def _config(spec, grid_points=0, n_ref=16, m_noise=16):
        model = sw.build_model(1.0, n_ref)
        pos = 0.5 / np.arange(1, n_ref + 1)
        return sw.SimConfig(model=model, levels=(4, 8), t_final=1.0, n_steps=16,
                            m_noise=m_noise, spec=spec,
                            initial=sw.PairState(pos, np.zeros(n_ref)),
                            grid_points=grid_points)

    @pytest.mark.parametrize("spec, grid_points", [
        # the semilinear shape on the default grid 4 * max(n_ref, m_noise)
        (sw.CoefficientSpec(diffusion="pointwise", pointwise_b=lambda x, y: 0.5 * np.sin(y),
                            drift=_tanh_drift), 0),
        (sw.CoefficientSpec(diffusion="anderson", alpha=0.3, beta=1.0, drift=_tanh_drift),
         32),
        (sw.CoefficientSpec(alpha=0.5, beta=0.0, drift=_tanh_drift), 0),
    ], ids=["pointwise-drift", "anderson-drift", "additive-drift"])
    def test_matches_step_loop(self, spec, grid_points):
        # the reference is the step loop that coupled single-path runs consist of
        cfg = self._config(spec, grid_points)
        phi = sw.exp_neg_norm()
        paths = range(2, 5)
        out = run_chunk(cfg, (cfg.n_ref, *cfg.levels), paths, 21, phi=phi,
                        strong_vs_first=True)
        for row, idx in enumerate(paths):
            want_phi, want_gaps = expected_row(step_loop(cfg, 21, idx), cfg, phi)
            assert out["phi"][row] == pytest.approx(want_phi, rel=1e-12, abs=0)
            assert out["strong_sq"][row] == pytest.approx(want_gaps, rel=1e-12, abs=0)


class TestOwnGrid:
    """Each Anderson level forms its product on a grid sized by L and m_noise.

    A level L runs on min(2L, L + m_noise) nodes; grid_points plays no part.
    The case ids compare 2L with L + m_noise ("the grid"): below it, and at
    the tie L = m_noise, the noise is projected onto cosines; above it, the
    position is.  Either role forms the product from odd and even modes on
    the left half of the nodes.
    """

    @staticmethod
    def _config(n_ref, m_noise, grid_points, levels, spec=sw.preset("anderson")):
        # every mode carries position and velocity, so an aliased mode L shows
        rng = np.random.default_rng(n_ref + m_noise)
        n = np.arange(1, n_ref + 1)
        initial = sw.PairState(rng.standard_normal(n_ref) / n, rng.standard_normal(n_ref))
        return sw.SimConfig(model=sw.build_model(1.0, n_ref), levels=levels,
                            t_final=0.5, n_steps=4, m_noise=m_noise, spec=spec,
                            initial=initial, grid_points=grid_points)

    @pytest.mark.parametrize("n_ref, m_noise, grid_points, levels, spec", [
        (8, 64, 0, (2,), sw.preset("anderson")),
        # L = m_noise - 1, m_noise and m_noise + 1: the noise projected on 30
        # and 32 nodes, then the position projected on 33, a centre node
        # that is its own mirror among them
        (16, 16, 32, (15,), sw.preset("anderson")),
        (16, 16, 32, (16,), sw.preset("anderson")),
        (17, 16, 33, (17,), sw.preset("anderson")),
        # 7, 8, 9 and 10 projected on 12 to 15 nodes, two of them odd; 2
        # with the noise projected on 4; an odd noise count
        (10, 5, 15, (2, 7, 8, 9, 10), sw.preset("anderson")),
        # 3 on 6 and 8 on 16 with the noise projected, 9 projected on 17; an
        # even noise count
        (9, 8, 18, (3, 8, 9), sw.preset("anderson")),
        (10, 6, 17, (5, 9, 10), sw.CoefficientSpec(alpha=0.3, beta=0.7)),
        # a drift moves no product (1 on 2 and 4 on 8 nodes, 9 on 16) and
        # reads the odd config grid
        (9, 7, 17, (1, 4, 9), sw.CoefficientSpec(alpha=0.2, beta=1.0, drift=_tanh_drift)),
        # no even noise mode, and a level with no even mode
        (3, 1, 5, (1, 3), sw.preset("anderson")),
    ], ids=["noise-modes-far-above-level", "just-inside-2L-below-grid",
            "just-outside-2L-equals-grid", "2L-above-grid", "odd-grid", "even-grid",
            "affine", "anderson-drift", "single-modes"])
    def test_matches_step_loop(self, n_ref, m_noise, grid_points, levels, spec):
        cfg = self._config(n_ref, m_noise, grid_points, levels, spec)
        paths = range(2, 5)
        states = run_chunk(cfg, levels, paths, 23)["states"]
        for row, idx in enumerate(paths):
            want = step_loop(cfg, 23, idx)
            for level, (pos, vel) in zip(levels, states):
                assert np.max(np.abs(pos[row] - want[level].pos)) < 1e-12, level
                assert np.max(np.abs(vel[row] - want[level].vel)) < 1e-12, level

    def test_reference_keeps_its_bytes(self):
        # the flagship's geometry scaled down: n_ref = m_noise, so every
        # level, the reference on 2 n_ref nodes included, projects the noise
        cfg = self._config(16, 16, 32, (2, 4, 8))
        phi = sw.exp_neg_norm()
        alone = run_chunk(cfg, (cfg.n_ref,), range(5), 29, phi=phi)
        coupled = run_chunk(cfg, (cfg.n_ref, *cfg.levels), range(5), 29, phi=phi)
        assert np.array_equal(alone["phi"][:, 0], coupled["phi"][:, 0])

    @pytest.mark.parametrize("n_ref, grid_points", [(256, 512), (512, 768)],
                             ids=["flagship", "fine-reference"])
    def test_benchmark_setup_builds_the_reference_tables(self, tmp_path, n_ref, grid_points):
        # perfbench/child.py builds _engine_tables(max(n_ref, m_noise),
        # grid_points) in its set-up; that must be the cache entry the run's
        # reference level reads, or the build moves from setup_s into wall_s
        with open(os.path.join(CONFIG_DIR, "anderson_acceptance.json"), encoding="utf-8") as fh:
            obj = json.load(fh)
        obj["model"].update(n_ref=n_ref, grid_points=grid_points)
        obj["time"]["n_steps"] = 1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        cfg = load_config(str(path)).config
        tables = integrator._engine_tables
        tables.cache_clear()
        run_chunk(cfg, (cfg.n_ref,), range(1), 3)
        before = tables.cache_info()
        tables(max(cfg.n_ref, cfg.m_noise), cfg.grid_points)
        after = tables.cache_info()
        assert before.currsize == 1
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    @pytest.mark.parametrize("spec", [
        sw.preset("anderson"), sw.CoefficientSpec(alpha=0.3, beta=0.7),
    ], ids=["anderson", "affine"])
    def test_grid_points_leave_the_bytes(self, spec):
        # levels below, at and above m_noise = 12 and the reference on 28
        # nodes; grid_points n_ref + m_noise, an odd value above it, the
        # default 64 and one below n_ref + m_noise
        phi = sw.exp_neg_norm()
        outs = [run_chunk(cfg, (cfg.n_ref, *cfg.levels), range(3), 43, phi=phi,
                          strong_vs_first=True)
                for cfg in (self._config(16, 12, g, (4, 12, 14), spec)
                            for g in (28, 31, 0, 20))]
        for out in outs[1:]:
            assert np.array_equal(out["phi"], outs[0]["phi"])
            assert np.array_equal(out["strong_sq"], outs[0]["strong_sq"])


class TestNoiseSpans:
    """Noise values formed for a span of steps at once, against the step loop.

    The span and burst byte budgets are shrunk so that a few paths see
    spans of several steps that divide neither the burst nor n_steps.
    """

    @staticmethod
    def _shrink(monkeypatch, cfg, b, span, burst, coarsen=1):
        """Spans of ``span`` steps in bursts of ``burst`` steps, for b paths."""
        step_bytes = 8 * b * cfg.m_noise
        monkeypatch.setattr(integrator, "_NOISE_SPAN_BYTES", span * step_bytes)
        monkeypatch.setattr(integrator, "_NOISE_BURST_BYTES", burst * step_bytes * coarsen)

    @staticmethod
    def _final_states(cfg, levels, paths, seed, coarsen=1):
        return dict(zip(levels, run_chunk(cfg, levels, paths, seed,
                                          coarsen=coarsen)["states"]))

    @pytest.mark.parametrize("n_ref, m_noise, grid_points, levels, n_steps, coarsen", [
        # 50 steps in bursts of 11: spans of 4, 4, 3 and, in the last burst, 4, 2
        (16, 16, 32, (2, 4, 8), 50, 1),
        # 25 coarse steps in bursts of 11: spans of 4, 4, 3 and 3
        (16, 16, 32, (2, 4, 8), 50, 2),
        # 8 and 9 on a 15-point grid, whose centre node is its own mirror
        (10, 5, 15, (2, 7, 8, 9), 30, 1),
    ], ids=["uneven-spans", "coarsened", "odd-grid"])
    def test_matches_step_loop(self, monkeypatch, n_ref, m_noise, grid_points, levels,
                               n_steps, coarsen):
        cfg = TestOwnGrid._config(n_ref, m_noise, grid_points, levels)
        cfg = dataclasses.replace(cfg, n_steps=n_steps)
        paths = range(2, 5)
        self._shrink(monkeypatch, cfg, len(paths), span=4, burst=11, coarsen=coarsen)
        levels_run = (cfg.n_ref, *levels)
        states = self._final_states(cfg, levels_run, paths, 31, coarsen)
        for row, idx in enumerate(paths):
            want = step_loop(cfg, 31, idx, coarsen=coarsen)
            for level in levels_run:
                pos, vel = states[level]
                assert np.max(np.abs(pos[row] - want[level].pos)) < 1e-12, level
                assert np.max(np.abs(vel[row] - want[level].vel)) < 1e-12, level

    @pytest.mark.parametrize("n_ref, m_noise, grid_points, levels, spec", [
        (16, 16, 32, (2, 4, 8), sw.preset("anderson")),
        # h < L on 12 to 15 nodes, 13 and 15 with a centre node, odd levels,
        # and beta scaling the analysis where it overwrites the noise values
        (10, 5, 15, (7, 8, 9), sw.CoefficientSpec(alpha=0.3, beta=0.7)),
    ], ids=["even-grid", "odd-grid-affine"])
    def test_coupled_matches_alone_bitwise(self, monkeypatch, n_ref, m_noise, grid_points,
                                           levels, spec):
        # the span follows the block's paths and noise modes, not the levels run
        cfg = TestOwnGrid._config(n_ref, m_noise, grid_points, levels, spec)
        cfg = dataclasses.replace(cfg, n_steps=50)
        paths = range(4)
        self._shrink(monkeypatch, cfg, len(paths), span=3, burst=16)
        levels = (cfg.n_ref, *cfg.levels)
        coupled = self._final_states(cfg, levels, paths, 37)
        for level in levels:
            alone = self._final_states(cfg, (level,), paths, 37)[level]
            assert np.array_equal(coupled[level][0], alone[0]), level
            assert np.array_equal(coupled[level][1], alone[1]), level

    @pytest.mark.parametrize("coarsen", [1, 2])
    def test_burst_size_leaves_the_bits(self, monkeypatch, coarsen):
        # one step per burst against the whole run in one burst, in spans of
        # 3 steps that divide neither 50 nor 25
        cfg = dataclasses.replace(TestOwnGrid._config(16, 16, 32, (2, 4, 8)), n_steps=50)
        paths = range(1, 5)
        levels = (cfg.n_ref, *cfg.levels)
        outs = []
        for burst in (1, cfg.n_steps // coarsen):
            self._shrink(monkeypatch, cfg, len(paths), span=3, burst=burst, coarsen=coarsen)
            outs.append(run_chunk(cfg, levels, paths, 41, coarsen=coarsen,
                                  phi=sw.exp_neg_norm(), strong_vs_first=True))
        one, whole = outs
        for level, got, want in zip(levels, one["states"], whole["states"]):
            assert np.array_equal(got[0], want[0]), level
            assert np.array_equal(got[1], want[1]), level
        assert np.array_equal(one["phi"], whole["phi"])
        assert np.array_equal(one["strong_sq"], whole["strong_sq"])


class TestWorkingSet:
    """run_chunk's peak allocation against the per-block budget of the engine notes."""

    @pytest.mark.parametrize("n_ref, b, monitor", [
        (32, 128, False),
        # the functional's and the gaps' temporaries, 2 b n_ref doubles, fit
        # only once the noise buffers are freed
        (256, 128, False),
        # run_study's moment monitor squares each level's position, then its
        # velocity, into the scratch
        (256, 128, True),
        # the reference's product and rotation run in four 64-row tiles in
        # the room of the monitor's square
        (256, 256, True),
    ], ids=["levels", "reference", "monitor", "tiled"])
    def test_peak_within_budget(self, n_ref, b, monitor):
        # one step of increments fills the span budget, so each span is one step
        m = 256
        cfg = small_anderson_config(n_ref=n_ref, levels=(4, 8, 16), n_steps=4, m_noise=m)
        levels = (cfg.n_ref, *cfg.levels)
        kwargs = {"phi": sw.exp_neg_norm(), "strong_vs_first": True}
        if monitor:
            weights = [pair_weights(cfg.model, level, 0.0) for level in levels]
            kwargs["observe"] = _moment_observer(
                weights, np.zeros((len(levels), cfg.n_steps + 1, 2)))
        run_chunk(cfg, levels, range(b), 5, **kwargs)  # builds the tables
        tracemalloc.start()
        try:
            run_chunk(cfg, levels, range(b), 5, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        hs = [(level + min(level, m) + 1) // 2 for level in levels]
        span = max(1, integrator._NOISE_SPAN_BYTES // (8 * b * m))
        burst = min(max(1, integrator._NOISE_BURST_BYTES // (8 * b * m)), cfg.n_steps)
        # the scratch's block-wide users, then each level's tiles of 64-row
        # multiples, or the whole block where not one fits or tiles would
        # change a GEMM's bits
        scratch = max(span * b * m, monitor * b * cfg.n_ref)
        tiles = []
        for level, h in zip(levels, hs):
            row = max(2 * level, level + 2 * h)
            t = scratch // row // 64 * 64
            if not (64 <= t < b and b % t == 0 and integrator._tiles_keep_bits(
                    level, level + min(level, m), (*range(0, b, t), b))):
                t = b
            tiles.append((t, row))
        scratch = max(scratch, *(t * row for t, row in tiles))
        assert tiles[0][0] == (64 if b == 256 else b)
        budget = 8 * (2 * b * sum(levels)                       # states
                      + 2 * span * b * sum(hs)                  # noise values
                      + burst * b * m                           # one burst
                      + scratch)
        # per-step temporaries: a path's generator and seed take under 1 KiB,
        # and a ufunc buffers at most 3 operands of np.getbufsize() doubles
        slack = 1024 * b + 3 * 8 * np.getbufsize()
        assert peak <= budget + slack, (peak, budget, slack)


class TestRowTiles:
    """A level-step's product and rotation over row tiles keep every bit of
    the whole block's."""

    TILED = (0, 64, 128, 192, 256)

    @staticmethod
    def _config(n_ref, m_noise, levels, spec, n_steps):
        model = sw.build_model(1.0, n_ref)
        pos = 0.5 / np.arange(1, n_ref + 1)
        return sw.SimConfig(model=model, levels=levels, t_final=1.0, n_steps=n_steps,
                            m_noise=m_noise, spec=spec,
                            initial=sw.PairState(pos, np.zeros(n_ref)),
                            grid_points=n_ref + m_noise)

    @staticmethod
    def _run(cfg, b, coarsen):
        levels = (cfg.n_ref, *cfg.levels)
        weights = [pair_weights(cfg.model, level, 0.0) for level in levels]
        sums = np.zeros((len(levels), cfg.n_steps // coarsen + 1, 2))
        out = run_chunk(cfg, levels, range(3, 3 + b), 61, coarsen=coarsen,
                        phi=sw.exp_neg_norm(), strong_vs_first=True,
                        observe=_moment_observer(weights, sums))
        return out, sums

    @pytest.mark.parametrize("n_ref, m_noise, levels, spec, coarsen, ref_bounds", [
        # the flagship's shape: the reference in four 64-row tiles
        (256, 256, (4, 8, 16, 32, 64), sw.preset("anderson"), 1, TILED),
        (256, 256, (4, 8, 16, 32, 64), sw.CoefficientSpec(alpha=0.3, beta=0.7), 1, TILED),
        # odd levels and h < L: 255 modes meet 128 noise modes on 383 nodes
        (255, 128, (5, 9, 17, 33, 65), sw.preset("anderson"), 1, TILED),
        # a drift's field takes the scratch between the product and the rotation
        (256, 256, (4, 8, 16, 32, 64), sw.CoefficientSpec(drift=_tanh_drift), 1, TILED),
        (256, 256, (4, 8, 16, 32, 64), sw.preset("anderson"), 2, TILED),
        # 64-row tiles fit, but a 64-row synthesis of this reference is small
        # enough for OpenBLAS's small-matrix kernels, which sum in another order
        (200, 16, (4, 8, 16), sw.preset("anderson"), 1, (0, 256)),
    ], ids=["anderson", "affine", "odd-levels", "drift", "coarsened", "bits-refuse-tiles"])
    def test_tiles_match_one_tile(self, monkeypatch, n_ref, m_noise, levels, spec, coarsen,
                                  ref_bounds):
        b = 256
        cfg = self._config(n_ref, m_noise, levels, spec, n_steps=2 * coarsen)
        plans = []
        row_tiles = integrator._row_tiles

        def spy(*args):
            plans.append(row_tiles(*args))
            return plans[-1]
        monkeypatch.setattr(integrator, "_row_tiles", spy)
        tiled, tiled_sums = self._run(cfg, b, coarsen)
        assert plans[0] == ref_bounds
        monkeypatch.setattr(integrator, "_ROW_QUANTUM", 2 * b)
        whole, whole_sums = self._run(cfg, b, coarsen)
        assert all(plan == (0, b) for plan in plans[len(levels) + 1:])
        for got, want in zip(tiled["states"], whole["states"]):
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert np.array_equal(tiled["phi"], whole["phi"])
        assert np.array_equal(tiled["strong_sq"], whole["strong_sq"])
        assert np.array_equal(tiled_sums, whole_sums)

    @pytest.mark.parametrize("b, spec, ref_bounds", [
        # one path: a span holds every step, and the square lies over the
        # span's split increments
        (1, sw.preset("anderson"), (0, 1)),
        (256, sw.preset("anderson"), TILED),
        # a drift's field takes the square's room before each rotation
        (256, sw.CoefficientSpec(drift=_tanh_drift), TILED),
    ], ids=["one-path", "tiled", "drift"])
    def test_observer_may_overwrite_its_square(self, monkeypatch, b, spec, ref_bounds):
        cfg = self._config(256, 256, (4, 8, 16, 32, 64), spec, n_steps=4)
        levels = (cfg.n_ref, *cfg.levels)
        assert (integrator._NOISE_SPAN_BYTES // (8 * b * cfg.m_noise) > 1) == (b == 1)
        plans = []
        row_tiles = integrator._row_tiles

        def spy(*args):
            plans.append(row_tiles(*args))
            return plans[-1]
        monkeypatch.setattr(integrator, "_row_tiles", spy)

        def poison(i, k, pos, vel, square):
            square.fill(np.nan)

        kwargs = {"phi": sw.exp_neg_norm(), "strong_vs_first": True}
        poisoned = run_chunk(cfg, levels, range(b), 61, observe=poison, **kwargs)
        assert plans[0] == ref_bounds
        clean = run_chunk(cfg, levels, range(b), 61, **kwargs)
        for got, want in zip(poisoned["states"], clean["states"]):
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert np.array_equal(poisoned["phi"], clean["phi"])
        assert np.array_equal(poisoned["strong_sq"], clean["strong_sq"])

    @pytest.mark.parametrize("b, fits, bounds", [
        (512, 170, (0, 128, 256, 384, 512)),
        (512, 700, (0, 512)),       # every row fits
        (512, 63, (0, 512)),        # fewer than 64 rows fit
        (300, 128, (0, 128, 300)),  # a 44-row remainder joins the tile before
        (100, 64, (0, 100)),
    ])
    def test_tile_rule(self, b, fits, bounds):
        assert integrator._row_tiles(b, fits, None) == bounds


class TestBlowUp:
    @staticmethod
    def _exploding_config():
        # a gigantic multiplicative coefficient overflows within a few steps
        model = sw.build_model(1.0, 8)
        pos = np.zeros(8)
        pos[0] = 1.0
        spec = sw.CoefficientSpec(diffusion="anderson", alpha=0.0, beta=1e160)
        return sw.SimConfig(model=model, levels=(4,), t_final=1.0, n_steps=8,
                            m_noise=8, spec=spec,
                            initial=sw.PairState(pos, np.zeros(8)), grid_points=32)

    def test_chunk_blow_up_names_path(self):
        cfg = self._exploding_config()
        with pytest.raises(sw.BlowUpError) as err:
            run_chunk(cfg, (8, 4), range(3, 7), 14)
        assert err.value.level in (4, 8)
        assert err.value.path_index in range(3, 7)

    @pytest.mark.parametrize("case", ["rotation-overflow", "exploding"])
    def test_chunk_blow_up_is_quiet(self, case):
        # an overflow in the stepping loop warns nothing; the probe names it,
        # at the time-grid index of the first bad state
        if case == "rotation-overflow":
            # mu sin(mu dt) times 1e308 overflows in the rotation itself
            cfg = zero_config(initial_pos=np.full(8, 1e308))
            where = "step 1, level 8, path 3"
        else:
            cfg, where = self._exploding_config(), "step 2, level 8, path 3"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(sw.BlowUpError, match=where):
                run_chunk(cfg, (8, 4), range(3, 7), 14)

    @pytest.mark.parametrize("field", ["pointwise_b", "drift"])
    def test_chunk_nonfinite_field_names_path(self, field):
        # the coefficient overflows on the third row of the block only
        def overflowing(x, y):
            out = np.sin(y)
            out[2] = np.inf
            return out

        fields = {"pointwise_b": lambda x, y: np.sin(y), "drift": None}
        fields[field] = overflowing
        model = sw.build_model(1.0, 8)
        spec = sw.CoefficientSpec(diffusion="pointwise", **fields)
        cfg = sw.SimConfig(model=model, levels=(4,), t_final=1.0, n_steps=8, m_noise=8,
                           spec=spec, initial=sw.PairState(np.ones(8), np.zeros(8)))
        with pytest.raises(sw.BlowUpError) as err:
            run_chunk(cfg, (8, 4), range(3, 7), 14)
        assert (err.value.step_index, err.value.level, err.value.path_index) == (1, 8, 5)
        assert "step 1, level 8, path 5" in str(err.value)


class TestCoarsening:
    def test_noise_reaggregation(self):
        # coarsen=2 drives every level with pairwise sums of the fine increments
        cfg = small_anderson_config(n_steps=16)
        phi = sw.exp_neg_norm()
        paths = range(3, 6)
        out = run_chunk(cfg, (cfg.n_ref, *cfg.levels), paths, 15, coarsen=2, phi=phi,
                        strong_vs_first=True)
        for row, idx in enumerate(paths):
            want_phi, want_gaps = expected_row(step_loop(cfg, 15, idx, coarsen=2), cfg, phi)
            assert out["phi"][row] == pytest.approx(want_phi, rel=1e-12, abs=0)
            assert out["strong_sq"][row] == pytest.approx(want_gaps, rel=1e-12, abs=0)

    def test_indivisible_rejected(self):
        cfg = small_anderson_config(n_steps=6)
        with pytest.raises(ValueError, match="coarsen"):
            run_chunk(cfg, (8,), range(1), 15, coarsen=4)

    @pytest.mark.parametrize("coarsen", [0, -2])
    def test_below_one_rejected(self, coarsen):
        # 0 used to raise ZeroDivisionError, -2 a complaint about a negative t
        cfg = small_anderson_config(n_steps=6)
        with pytest.raises(ValueError, match="coarsen"):
            run_chunk(cfg, (8,), range(1), 15, coarsen=coarsen)
        with pytest.raises(ValueError, match="coarsen"):
            sw.run_study(cfg, sw.exp_neg_norm(), 4, 15, workers=1, coarsen=coarsen)

    def test_empty_path_block_rejected(self):
        # used to raise ZeroDivisionError while sizing the noise span
        cfg = small_anderson_config()
        with pytest.raises(ValueError, match="path_indices"):
            run_chunk(cfg, (cfg.n_ref, 8), range(0), 15)


def _h0_sq():
    import specwave.mc as mc

    def eval_batch(pos, vel, model):
        inv_lam = 1.0 / model.abs_lam(pos.shape[-1])
        return (pos * pos).sum(axis=-1) + (vel * vel * inv_lam).sum(axis=-1)

    return mc.TestFunctional("h0_sq", False, eval_batch)
