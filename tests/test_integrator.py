import math

import numpy as np
import pytest

import specwave as sw
from specwave.integrator import run_chunk

from conftest import small_anderson_config, zero_config


class TestStep:
    def test_zero_spec_reduces_to_group(self, model8, grid32):
        rng = np.random.default_rng(0)
        st = sw.PairState(rng.standard_normal(8), rng.standard_normal(8))
        noise = sw.NoiseIncrement(rng.standard_normal(8), 0.125)
        out = sw.step(st, 0.125, noise, sw.preset("zero"), grid32, model8)
        want = sw.propagate(st, 0.125, model8)
        assert np.array_equal(out.pos, want.pos)
        assert np.array_equal(out.vel, want.vel)

    def test_constant_drift_composes(self):
        # compose the drift oracle with the group: one step from rest
        model = sw.build_model(1.0, 1)
        grid = sw.GridWorkspace(512)
        spec = sw.CoefficientSpec(diffusion="zero", drift=lambda x, y: np.ones_like(y))
        st = sw.PairState([0.0], [0.0])
        dt = 0.1
        out = sw.step(st, dt, sw.NoiseIncrement(np.zeros(1), dt), spec, grid, model)
        drift = sw.apply_drift(st, spec, grid, model)
        want = sw.propagate(sw.PairState([0.0], dt * drift.vel), dt, model)
        assert np.max(np.abs(out.pos - want.pos)) < 1e-12
        assert np.max(np.abs(out.vel - want.vel)) < 1e-12
        assert drift.vel[0] == pytest.approx(2 * math.sqrt(2) / math.pi, abs=1e-5)

    def test_additive_step_is_propagated_kick(self, model8, grid32):
        # one step from rest: state equals the rotated diffusion increment, and
        # the increment's velocity coefficients have second moment sigma^2 dt
        sigma, dt = 0.7, 0.2
        spec = sw.preset("additive-heat-kick", m_noise=8, n_modes=8, sigma=sigma)
        st = sw.PairState(np.zeros(8), np.zeros(8))
        rng = np.random.default_rng(1)
        draws = rng.standard_normal((100_000, 8)) * math.sqrt(dt)
        second = np.mean((sigma * draws) ** 2, axis=0)
        assert np.max(np.abs(second - sigma**2 * dt)) < 3e-3  # 100k-draw oracle
        noise = sw.NoiseIncrement(draws[0], dt)
        out = sw.step(st, dt, noise, spec, grid32, model8)
        kick = sw.apply_diffusion(st, noise, spec, grid32, model8)
        want = sw.propagate(kick, dt, model8)
        assert np.array_equal(out.pos, want.pos)
        assert np.array_equal(out.vel, want.vel)

    def test_rejects_nonpositive_dt(self, model8, grid32):
        st = sw.PairState(np.zeros(8), np.zeros(8))
        with pytest.raises(ValueError):
            sw.step(st, 0.0, sw.NoiseIncrement(np.zeros(8), 1.0), sw.preset("zero"),
                    grid32, model8)


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

    def test_default_grid(self, model8):
        cfg = sw.SimConfig(model=model8, levels=(2,), t_final=1.0, n_steps=4,
                           m_noise=16, spec=sw.preset("anderson"),
                           initial=sw.PairState(np.zeros(8), np.zeros(8)))
        assert cfg.grid_points == 64  # 4 * max(n_ref, m_noise)

    def test_coarse_grid_rejected_for_products(self, model8):
        with pytest.raises(ValueError, match="grid_points"):
            sw.SimConfig(model=model8, levels=(2,), t_final=1.0, n_steps=4,
                         m_noise=16, spec=sw.preset("anderson"),
                         initial=sw.PairState(np.zeros(8), np.zeros(8)),
                         grid_points=16)


class TestSimulatePath:
    def test_zero_spec_terminal(self):
        cfg = zero_config(initial_pos=[1, 0, 0.5, 0, 0, 0, 0, -0.25])
        for level in (2, 4, 6, 8):
            got = sw.simulate_path(cfg, level, sw.path_seed(3, 0))
            want = sw.propagate(sw.project(cfg.initial, level), 1.0, cfg.model)
            assert np.max(np.abs(got.pos - want.pos[:level])) < 1e-10
            assert np.max(np.abs(got.vel - want.vel[:level])) < 1e-10

    def test_bitwise_determinism(self):
        cfg = small_anderson_config()
        a = sw.simulate_path(cfg, 8, sw.path_seed(7, 5))
        b = sw.simulate_path(cfg, 8, sw.path_seed(7, 5))
        assert np.array_equal(a.pos, b.pos) and np.array_equal(a.vel, b.vel)

    def test_unknown_level_rejected(self):
        cfg = small_anderson_config()
        with pytest.raises(ValueError):
            sw.simulate_path(cfg, 5, sw.path_seed(1, 0))

    def test_additive_second_moment_closed_form(self):
        # Ito isometry plus the group isometry give the closed form
        # E ||X_T||^2 = ||xi||^2 + T sum_k ||P_N B e_k||^2
        n, m, sigma = 8, 16, 0.5
        model = sw.build_model(1.0, n)
        pos = np.zeros(n)
        pos[0] = 1.0
        cfg = sw.SimConfig(model=model, levels=(4,), t_final=1.0, n_steps=32,
                           m_noise=m,
                           spec=sw.preset("additive-heat-kick", m_noise=m,
                                          n_modes=n, sigma=sigma),
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
        cfg = small_anderson_config(levels=(32,))
        seed = sw.path_seed(9, 2)
        out = sw.simulate_coupled(cfg, seed)
        assert set(out) == {32}
        single = sw.simulate_path(cfg, 32, seed)
        assert np.array_equal(out[32].pos, single.pos)

    def test_matches_single_paths_bitwise(self):
        cfg = small_anderson_config()
        seed = sw.path_seed(10, 4)
        out = sw.simulate_coupled(cfg, seed)
        for level in (4, 8, 16, 32):
            single = sw.simulate_path(cfg, level, seed)
            assert np.array_equal(out[level].pos, single.pos)
            assert np.array_equal(out[level].vel, single.vel)

    def test_zero_spec_levels_differ_by_tail(self):
        init = np.zeros(8)
        init[1], init[6] = 1.0, 2.0
        cfg = zero_config(initial_pos=init)
        out = sw.simulate_coupled(cfg, sw.path_seed(11, 0))
        full = sw.propagate(cfg.initial, 1.0, cfg.model)
        for level in (2, 4, 6):
            pad = np.zeros(8)
            pad[:level] = out[level].pos
            tail = full.pos - pad
            assert np.max(np.abs(tail[:level])) < 1e-12
            assert np.allclose(tail[level:], full.pos[level:], atol=1e-12)

    def test_strong_gap_shrinks_with_level(self):
        cfg = small_anderson_config()
        gaps = np.zeros(3)
        for idx in range(40):
            out = sw.simulate_coupled(cfg, sw.path_seed(12, idx))
            ref = out[32]
            for j, level in enumerate((4, 8, 16)):
                dp = ref.pos.copy()
                dp[:level] -= out[level].pos
                dv = ref.vel.copy()
                dv[:level] -= out[level].vel
                st = sw.PairState(dp, dv)
                gaps[j] += sw.norm_bold_hr(st, 0.0, cfg.model) ** 2
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
        (sw.CoefficientSpec(diffusion="additive", columns=0.5 * np.eye(16),
                            drift=_tanh_drift), 0),
    ], ids=["pointwise-drift", "anderson-drift", "additive-drift"])
    def test_matches_simulate_coupled(self, spec, grid_points):
        import specwave.mc as mc

        cfg = self._config(spec, grid_points)
        phi = mc.exp_neg_norm()
        levels = (cfg.n_ref, *cfg.levels)
        paths = range(2, 5)
        out = run_chunk(cfg, levels, paths, 21, phi=phi, strong_vs_first=True)
        for row, idx in enumerate(paths):
            coupled = sw.simulate_coupled(cfg, sw.path_seed(21, idx))
            ref = coupled[cfg.n_ref]
            for j, level in enumerate(levels):
                want = phi.evaluate(coupled[level], cfg.model)
                assert out["phi"][row, j] == pytest.approx(want, rel=1e-12, abs=0)
            for j, level in enumerate(cfg.levels):
                dp = ref.pos.copy()
                dp[:level] -= coupled[level].pos
                dv = ref.vel.copy()
                dv[:level] -= coupled[level].vel
                gap = sw.norm_bold_hr(sw.PairState(dp, dv), 0.0, cfg.model) ** 2
                assert out["strong_sq"][row, j] == pytest.approx(gap, rel=1e-12, abs=0)


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

    def test_blow_up_carries_provenance(self):
        cfg = self._exploding_config()
        with pytest.raises(sw.BlowUpError) as err:
            sw.simulate_path(cfg, 8, sw.path_seed(13, 1))
        assert err.value.step_index is not None
        assert err.value.level == 8

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
        cfg = small_anderson_config(n_steps=8)
        fine = sw.noise_block(sw.path_seed(15, 0), 8, cfg.m_noise, cfg.dt)
        from specwave.integrator import _coarsened
        coarse = _coarsened(fine, 2)
        assert coarse.shape == (4, cfg.m_noise)
        assert np.allclose(coarse[0], fine[0] + fine[1], atol=0)

    def test_indivisible_rejected(self):
        cfg = small_anderson_config(n_steps=6)
        with pytest.raises(ValueError, match="coarsen"):
            sw.simulate_path(cfg, 8, sw.path_seed(15, 1), coarsen=4)


def _h0_sq():
    import specwave.mc as mc

    def eval_batch(pos, vel, model):
        inv_lam = 1.0 / model.abs_lam(pos.shape[-1])
        return (pos * pos).sum(axis=-1) + (vel * vel * inv_lam).sum(axis=-1)

    return mc.TestFunctional("h0_sq", False, eval_batch)
