import math

import numpy as np
import pytest

import specwave as sw
from specwave import mc
from specwave.integrator import run_chunk

from conftest import expected_row, phi_at, small_anderson_config, step_loop, zero_config


class TestFunctionals:
    def test_exp_neg_norm_value(self, model8):
        st = sw.PairState([0.6, 0, 0, 0, 0, 0, 0, 0], np.zeros(8))
        phi = sw.exp_neg_norm()
        assert phi_at(phi, st, model8) == pytest.approx(math.exp(-0.36), rel=1e-12)
        assert phi.bounded

    def test_cos_pairing_zero_direction_is_one(self, model8):
        phi = sw.cos_pairing(sw.PairState(np.zeros(8), np.zeros(8)))
        rng = np.random.default_rng(0)
        st = sw.PairState(rng.standard_normal(8), rng.standard_normal(8))
        assert phi_at(phi, st, model8) == 1.0

    def test_coordinate_reads_mode(self, model8):
        st = sw.PairState([1.0, 2.0, 0, 0, 0, 0, 0, 0], [5.0, 6.0, 0, 0, 0, 0, 0, 0])
        assert phi_at(sw.coordinate(2, "pos"), st, model8) == 2.0
        assert phi_at(sw.coordinate(1, "vel"), st, model8) == 5.0
        assert not sw.coordinate(1, "vel").bounded

    def test_second_differences_bounded(self, model8):
        # sanity check of the smooth-bounded flag: centered second differences
        # along unit directions stay below 10
        rng = np.random.default_rng(1)
        d = sw.PairState(rng.standard_normal(8), rng.standard_normal(8))
        scale = sw.norm_bold_hr(d, 0.0, model8)
        d = sw.PairState(d.pos / scale, d.vel / scale)
        for phi in (sw.exp_neg_norm(), sw.cos_pairing(d)):
            for _ in range(40):
                x = sw.PairState(rng.standard_normal(8), rng.standard_normal(8))
                h = sw.PairState(rng.standard_normal(8), rng.standard_normal(8))
                hn = sw.norm_bold_hr(h, 0.0, model8)
                eps = 1e-4
                plus = sw.PairState(x.pos + eps * h.pos / hn, x.vel + eps * h.vel / hn)
                minus = sw.PairState(x.pos - eps * h.pos / hn, x.vel - eps * h.vel / hn)
                second = (phi_at(phi, plus, model8) - 2 * phi_at(phi, x, model8)
                          + phi_at(phi, minus, model8)) / eps**2
                assert abs(second) < 10.0


class TestEstimateFunctional:
    def test_constant_functional(self):
        cfg = small_anderson_config()
        phi = sw.cos_pairing(sw.PairState(np.zeros(32), np.zeros(32)))
        mean, se = sw.estimate_functional(phi, cfg, 8, 50, 2)
        assert mean == 1.0 and se == 0.0

    def test_deterministic_case(self):
        cfg = zero_config(initial_pos=[1, 0, 0, 0.5, 0, 0, 0, 0])
        phi = sw.exp_neg_norm()
        mean, se = sw.estimate_functional(phi, cfg, 4, 64, 3)
        want = phi_at(phi, sw.propagate(sw.project(cfg.initial, 4), 1.0, cfg.model),
                      cfg.model)
        assert mean == pytest.approx(want, rel=1e-12)
        assert se == 0.0

    def test_additive_coordinate_zero_mean(self):
        n, m = 8, 16
        model = sw.build_model(1.0, n)
        cfg = sw.SimConfig(model=model, levels=(4,), t_final=1.0, n_steps=16,
                           m_noise=m,
                           spec=sw.preset("additive-heat-kick", sigma=1.0),
                           initial=sw.PairState(np.zeros(n), np.zeros(n)))
        mean, se = sw.estimate_functional(sw.coordinate(3, "vel"), cfg, n, 10_000, 44)
        assert abs(mean) <= 3 * se

    def test_needs_two_paths(self):
        cfg = small_anderson_config()
        with pytest.raises(ValueError):
            sw.estimate_functional(sw.exp_neg_norm(), cfg, 8, 1, 5)


class TestWeakStrongStudy:
    def test_projection_invisible_when_no_tail(self):
        # initial data supported on the coarsest kept level, zero coefficients:
        # nothing distinguishes the levels
        init = np.zeros(8)
        init[0] = 1.0
        cfg = zero_config(levels=(2, 4, 6), initial_pos=init)
        table = sw.run_study(cfg, sw.exp_neg_norm(), 16, 6, monitor_rho=None).table
        assert np.all(table.weak_error == 0.0)
        assert np.all(table.strong_error == 0.0)
        assert np.all(table.weak_stderr == 0.0)

    def test_deterministic_tail_gives_exact_strong_error(self):
        init = np.zeros(8)
        init[7] = 1.0  # all mass above every kept level
        cfg = zero_config(levels=(2, 4, 6), initial_pos=init)
        table = sw.run_study(cfg, sw.exp_neg_norm(), 16, 7, monitor_rho=None).table
        # the group is an isometry, so the propagated tail keeps unit norm
        assert np.allclose(table.strong_error, 1.0, atol=1e-12)
        assert np.all(table.strong_stderr == 0.0)

    def test_monotone_error_decay(self):
        cfg = small_anderson_config()
        table = sw.run_study(cfg, sw.exp_neg_norm(), 600, 8, monitor_rho=None).table
        assert np.all(np.diff(np.abs(table.weak_error)) < 0)
        assert np.all(np.diff(table.strong_error) < 0)

    def test_coupled_stderr_beats_uncoupled(self):
        cfg = small_anderson_config()
        phi = sw.exp_neg_norm()
        table = sw.run_study(cfg, phi, 1000, 9, monitor_rho=None).table
        _, se_ref = sw.estimate_functional(phi, cfg, 32, 1000, 10)
        _, se_lo = sw.estimate_functional(phi, cfg, 8, 1000, 11)
        uncoupled = math.hypot(se_ref, se_lo)
        i = cfg.levels.index(8)
        assert table.weak_stderr[i] <= uncoupled

    def test_worker_count_invisible(self):
        cfg = small_anderson_config()
        tables = [sw.run_study(cfg, sw.exp_neg_norm(), 700, 12, workers=w,
                               monitor_rho=0.0) for w in (1, 3)]
        assert np.array_equal(tables[0].table.weak_error, tables[1].table.weak_error)
        assert np.array_equal(tables[0].table.weak_stderr, tables[1].table.weak_stderr)
        assert np.array_equal(tables[0].table.strong_error, tables[1].table.strong_error)
        assert np.array_equal(tables[0].moment_mean, tables[1].moment_mean)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_nonpositive_workers_rejected(self, workers):
        cfg = zero_config()
        with pytest.raises(ValueError, match="workers"):
            sw.run_study(cfg, sw.exp_neg_norm(), 8, 1, workers=workers)
        with pytest.raises(ValueError, match="workers"):
            sw.estimate_functional(sw.exp_neg_norm(), cfg, cfg.n_ref, 8, 1,
                                   workers=workers)

    def test_reference_must_exceed_levels(self):
        model = sw.build_model(1.0, 8)
        cfg = sw.SimConfig(model=model, levels=(8,), t_final=1.0, n_steps=8,
                           m_noise=8, spec=sw.preset("zero"),
                           initial=sw.PairState(np.zeros(8), np.zeros(8)))
        with pytest.raises(ValueError):
            sw.run_study(cfg, sw.exp_neg_norm(), 8, 13)


class TestBlasPin:
    def test_one_blas_thread_while_any_study_runs(self):
        api = mc._blas_thread_api()
        if api is None:
            pytest.skip("numpy does not bundle scipy-openblas64")
        get, put = api
        before = get()
        put(2)
        try:
            # overlapping holders, as concurrent studies in one process are
            with mc._single_blas_thread():
                assert get() == 1
                with mc._single_blas_thread():
                    assert get() == 1
                assert get() == 1
            assert get() == 2
        finally:
            put(before)

    def test_engine_runs_on_one_blas_thread(self):
        api = mc._blas_thread_api()
        if api is None:
            pytest.skip("numpy does not bundle scipy-openblas64")
        seen = []
        mc._map_chunks(lambda c: seen.append(api[0]()), mc._chunks(3 * mc.CHUNK_PATHS), 1)
        assert seen == [1, 1, 1]


class TestBatchedEngine:
    def test_matches_single_path_reference(self):
        cfg = small_anderson_config()
        phi = sw.exp_neg_norm()
        out = run_chunk(cfg, (32, *cfg.levels), range(0, 5), 77, phi=phi,
                        strong_vs_first=True)
        for row, idx in enumerate(range(0, 5)):
            want_phi, want_gaps = expected_row(step_loop(cfg, 77, idx), cfg, phi)
            assert out["phi"][row] == pytest.approx(want_phi, abs=1e-12)
            assert out["strong_sq"][row] == pytest.approx(want_gaps, abs=1e-12)

    def test_observer_sees_every_step_of_every_level(self):
        cfg = zero_config(initial_pos=[1, 0, 0, 0, 0, 0, 0, 0])
        seen = []

        def observe(i, k, pos, vel):
            inv_lam = 1.0 / cfg.model.abs_lam(pos.shape[1])
            seen.append((i, k, pos.shape, (pos * pos).sum(axis=1)
                         + (vel * vel * inv_lam).sum(axis=1)))

        run_chunk(cfg, (8, 2), range(0, 4), 5, observe=observe)
        assert sorted((i, k) for i, k, _, _ in seen) == [
            (i, k) for i in range(2) for k in range(cfg.n_steps + 1)]
        assert all(shape == (4, (8, 2)[i]) for i, _, shape, _ in seen)
        # zero coefficients: the group preserves each path's norm at every step
        assert np.allclose([sq for *_, sq in seen], 1.0, atol=1e-10)
