import dataclasses
import math
import warnings

import numpy as np
import pytest

import specwave as sw
from specwave import integrator
from specwave.coefficients import diffusion_vel, drift_vel
from specwave.integrator import run_chunk
from specwave.validate import _terminal_states

from conftest import expected_row, phi_at, small_anderson_config, step_loop, zero_config


class TestStep:
    def test_zero_spec_reduces_to_group(self, model8, grid32):
        rng = np.random.default_rng(0)
        st = sw.PairState(rng.standard_normal(8), rng.standard_normal(8))
        out = sw.step(st, 0.125, rng.standard_normal(8), sw.preset("zero"), grid32, model8)
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
        out = sw.step(st, dt, np.zeros(1), spec, grid, model)
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
        out = sw.step(st, dt, draws[0], spec, grid32, model8)
        kick = diffusion_vel(st.pos, draws[0], spec, grid32, 8)
        want = sw.propagate(sw.PairState(np.zeros(8), kick), dt, model8)
        assert np.array_equal(out.pos, want.pos)
        assert np.array_equal(out.vel, want.vel)

    def test_rotation_overflow_is_a_quiet_blow_up(self, model8, grid32):
        # mu sin(mu dt) times 1e308 overflows in the rotation itself
        st = sw.PairState(np.full(8, 1e308), np.zeros(8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(sw.BlowUpError):
                sw.step(st, 0.1, np.zeros(8), sw.preset("zero"), grid32, model8)

    def test_rejects_nonpositive_dt(self, model8, grid32):
        st = sw.PairState(np.zeros(8), np.zeros(8))
        with pytest.raises(ValueError):
            sw.step(st, 0.0, np.zeros(8), sw.preset("zero"), grid32, model8)


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

    @pytest.mark.parametrize("spec, rejected", [
        (sw.preset("anderson"), True),
        (sw.CoefficientSpec(alpha=0.5, beta=0.5), True),
        (sw.preset("zero"), False),
        (sw.preset("additive-heat-kick", sigma=0.5), False),
    ], ids=["anderson", "affine", "zero", "additive-heat-kick"])
    def test_coarse_grid_rejected_for_products(self, model8, spec, rejected):
        # 16 points = max(n_ref, m_noise) serve unless beta != 0 needs n_ref + m_noise
        def build():
            return sw.SimConfig(model=model8, levels=(2,), t_final=1.0, n_steps=4,
                                m_noise=16, spec=spec,
                                initial=sw.PairState(np.ones(8), np.zeros(8)),
                                grid_points=16)

        if rejected:
            with pytest.raises(ValueError, match="grid_points"):
                build()
        else:
            cfg = build()
            assert cfg.grid_points == 16
            run_chunk(cfg, (8, 2), range(2), 3)


class TestSimulatePath:
    def test_zero_spec_terminal(self):
        cfg = zero_config(initial_pos=[1, 0, 0.5, 0, 0, 0, 0, -0.25])
        out = step_loop(cfg, 3, 0)
        for level in (2, 4, 6, 8):
            want = sw.propagate(sw.project(cfg.initial, level), 1.0, cfg.model)
            assert np.max(np.abs(out[level].pos - want.pos[:level])) < 1e-10
            assert np.max(np.abs(out[level].vel - want.vel[:level])) < 1e-10

    def test_bitwise_determinism(self):
        cfg = small_anderson_config()
        a, b = (run_chunk(cfg, (32, 8), range(5, 6), 7, phi=sw.exp_neg_norm(),
                          strong_vs_first=True) for _ in range(2))
        assert np.array_equal(a["phi"], b["phi"])
        assert np.array_equal(a["strong_sq"], b["strong_sq"])

    def test_unknown_level_rejected(self):
        cfg = small_anderson_config()
        with pytest.raises(ValueError, match="level 5"):
            sw.estimate_functional(sw.exp_neg_norm(), cfg, 5, 8, 1)

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
        (pos, vel), = _terminal_states(cfg, (level,), paths, 41)
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
    def test_matches_simulate_coupled(self, spec, grid_points):
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
    """Anderson levels with 2L < grid_points form their product on 2L nodes.

    Every Anderson product, on its own grid or on the config grid, is formed
    from odd and even modes on the left half of the grid's nodes.
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
        (16, 16, 32, (15,), sw.preset("anderson")),
        (16, 16, 32, (16,), sw.preset("anderson")),
        # 8, 9 and 10 on a 15-point grid, whose centre node is its own
        # mirror; 2 and 7 on their own grids; an odd noise count
        (10, 5, 15, (2, 7, 8, 9, 10), sw.preset("anderson")),
        # 9 on an even grid; an even noise count
        (9, 8, 18, (3, 8, 9), sw.preset("anderson")),
        (10, 6, 17, (5, 9, 10), sw.CoefficientSpec(alpha=0.3, beta=0.7)),
        # a drift puts every level on the config grid, here an odd one
        (9, 7, 17, (1, 4, 9), sw.CoefficientSpec(alpha=0.2, beta=1.0, drift=_tanh_drift)),
        # no even noise mode, and a level with no even mode
        (3, 1, 5, (1, 3), sw.preset("anderson")),
    ], ids=["noise-modes-far-above-level", "just-inside-2L-below-grid",
            "just-outside-2L-equals-grid", "odd-grid", "even-grid", "affine",
            "anderson-drift", "single-modes"])
    def test_matches_step_loop(self, n_ref, m_noise, grid_points, levels, spec):
        cfg = self._config(n_ref, m_noise, grid_points, levels, spec)
        paths = range(2, 5)
        states = _terminal_states(cfg, levels, paths, 23)
        for row, idx in enumerate(paths):
            want = step_loop(cfg, 23, idx)
            for level, (pos, vel) in zip(levels, states):
                assert np.max(np.abs(pos[row] - want[level].pos)) < 1e-12, level
                assert np.max(np.abs(vel[row] - want[level].vel)) < 1e-12, level

    def test_reference_keeps_its_bytes(self):
        # the flagship's geometry scaled down: 2 n_ref = grid_points, so the
        # reference stays on the config grid and every study level leaves it
        cfg = self._config(16, 16, 32, (2, 4, 8))
        phi = sw.exp_neg_norm()
        alone = run_chunk(cfg, (cfg.n_ref,), range(5), 29, phi=phi)
        coupled = run_chunk(cfg, (cfg.n_ref, *cfg.levels), range(5), 29, phi=phi)
        assert np.array_equal(alone["phi"][:, 0], coupled["phi"][:, 0])


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
        states = {}

        def keep(i, k, pos, vel):
            states[levels[i]] = (pos.copy(), vel.copy())

        run_chunk(cfg, levels, paths, seed, coarsen=coarsen, observe=keep)
        return states

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

    def test_coupled_matches_alone_bitwise(self, monkeypatch):
        # the span follows the block's paths and noise modes, not the levels run
        cfg = dataclasses.replace(TestOwnGrid._config(16, 16, 32, (2, 4, 8)), n_steps=50)
        paths = range(4)
        self._shrink(monkeypatch, cfg, len(paths), span=3, burst=16)
        levels = (cfg.n_ref, *cfg.levels)
        coupled = self._final_states(cfg, levels, paths, 37)
        for level in levels:
            alone = self._final_states(cfg, (level,), paths, 37)[level]
            assert np.array_equal(coupled[level][0], alone[0]), level
            assert np.array_equal(coupled[level][1], alone[1]), level


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
        assert (err.value.step_index, err.value.level, err.value.path_index) == (0, 8, 5)
        assert "step 0, level 8, path 5" in str(err.value)


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


def _h0_sq():
    import specwave.mc as mc

    def eval_batch(pos, vel, model):
        inv_lam = 1.0 / model.abs_lam(pos.shape[-1])
        return (pos * pos).sum(axis=-1) + (vel * vel * inv_lam).sum(axis=-1)

    return mc.TestFunctional("h0_sq", False, eval_batch)
