import math

import numpy as np
import pytest

import specwave as sw
from specwave import integrator, mc
from specwave.integrator import run_chunk
from specwave.spectral import pair_weights

from conftest import (estimate_functional, expected_row, phi_at, small_anderson_config,
                      step_loop, truncated, zero_config)


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
        mean, se = estimate_functional(phi, cfg, 8, 50, 2)
        assert mean == 1.0 and se == 0.0

    def test_deterministic_case(self):
        cfg = zero_config(initial_pos=[1, 0, 0, 0.5, 0, 0, 0, 0])
        phi = sw.exp_neg_norm()
        mean, se = estimate_functional(phi, cfg, 4, 64, 3)
        want = phi_at(phi, sw.propagate(truncated(cfg.initial, 4), 1.0, cfg.model),
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
        mean, se = estimate_functional(sw.coordinate(3, "vel"), cfg, n, 10_000, 44)
        assert abs(mean) <= 3 * se


class TestWeakStrongStudy:
    def test_projection_invisible_when_no_tail(self):
        # initial data supported on the coarsest kept level, zero coefficients:
        # nothing distinguishes the levels
        init = np.zeros(8)
        init[0] = 1.0
        cfg = zero_config(levels=(2, 4, 6), initial_pos=init)
        report = sw.run_study(cfg, sw.exp_neg_norm(), 16, 6)
        assert np.all(report.weak_error == 0.0)
        assert np.all(report.strong_error == 0.0)
        assert np.all(report.weak_stderr == 0.0)

    def test_deterministic_tail_gives_exact_strong_error(self):
        init = np.zeros(8)
        init[7] = 1.0  # all mass above every kept level
        cfg = zero_config(levels=(2, 4, 6), initial_pos=init)
        report = sw.run_study(cfg, sw.exp_neg_norm(), 16, 7)
        # the group is an isometry, so the propagated tail keeps unit norm
        assert np.allclose(report.strong_error, 1.0, atol=1e-12)
        assert np.all(report.strong_stderr == 0.0)

    def test_monotone_error_decay(self):
        cfg = small_anderson_config()
        report = sw.run_study(cfg, sw.exp_neg_norm(), 600, 8)
        assert np.all(np.diff(np.abs(report.weak_error)) < 0)
        assert np.all(np.diff(report.strong_error) < 0)

    def test_coupled_stderr_beats_uncoupled(self):
        cfg = small_anderson_config()
        phi = sw.exp_neg_norm()
        report = sw.run_study(cfg, phi, 1000, 9)
        _, se_ref = estimate_functional(phi, cfg, 32, 1000, 10)
        _, se_lo = estimate_functional(phi, cfg, 8, 1000, 11)
        uncoupled = math.hypot(se_ref, se_lo)
        i = cfg.levels.index(8)
        assert report.weak_stderr[i] <= uncoupled

    def test_worker_count_invisible(self):
        cfg = small_anderson_config()
        reports = [sw.run_study(cfg, sw.exp_neg_norm(), 700, 12, workers=w,
                                monitor_rho=0.0) for w in (1, 3)]
        assert np.array_equal(reports[0].weak_error, reports[1].weak_error)
        assert np.array_equal(reports[0].weak_stderr, reports[1].weak_stderr)
        assert np.array_equal(reports[0].strong_error, reports[1].strong_error)
        assert np.array_equal(reports[0].moment_mean, reports[1].moment_mean)

    def test_monitor_matches_fresh_squares(self):
        # the monitor squares into the engine's scratch; an observer squaring
        # into fresh arrays, as run_study's monitor once did, gives its bits
        cfg = small_anderson_config(n_steps=8)
        n_paths, seed = 600, 14
        report = sw.run_study(cfg, sw.exp_neg_norm(), n_paths, seed, workers=1)
        levels = (cfg.n_ref, *cfg.levels)
        weights = [pair_weights(cfg.model, level, 0.0) for level in levels]
        chunks = mc._chunks(n_paths)
        sums = np.zeros((len(chunks), len(levels), cfg.n_steps + 1, 2))
        for ci, chunk in enumerate(chunks):
            def observe(i, k, pos, vel, _out=sums[ci]):
                sq = (pos * pos) @ weights[i][0] + (vel * vel) @ weights[i][1]
                _out[i, k] = sq.sum(), sq @ sq
            run_chunk(cfg, levels, chunk, seed, observe=observe)
        sums = sums.sum(axis=0)
        mean = sums[..., 0] / n_paths
        var = np.maximum(sums[..., 1] / n_paths - mean**2, 0.0)
        stderr = np.sqrt(var * (n_paths / (n_paths - 1)) / n_paths)
        assert np.array_equal(report.moment_mean, mean)
        assert np.array_equal(report.moment_stderr, stderr)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_nonpositive_workers_rejected(self, workers):
        cfg = zero_config()
        with pytest.raises(ValueError, match="workers"):
            sw.run_study(cfg, sw.exp_neg_norm(), 8, 1, workers=workers)

    def test_reference_must_exceed_levels(self):
        model = sw.build_model(1.0, 8)
        cfg = sw.SimConfig(model=model, levels=(8,), t_final=1.0, n_steps=8,
                           m_noise=8, spec=sw.preset("zero"),
                           initial=sw.PairState(np.zeros(8), np.zeros(8)))
        with pytest.raises(ValueError):
            sw.run_study(cfg, sw.exp_neg_norm(), 8, 13)


def _blas_api():
    api = integrator._blas_thread_api()
    if api is None:
        # a numpy that bundles scipy-openblas must be pinned: a renamed library
        # fails here rather than dropping the pin unseen
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        assert blas != "scipy-openblas", "numpy bundles scipy-openblas, but no pin found it"
        pytest.skip(f"numpy links {blas}, not scipy-openblas")
    return api


class TestBlasPin:
    def test_one_blas_thread_while_any_study_runs(self):
        get, put = _blas_api()
        before = get()
        put(2)
        try:
            # overlapping holders, as concurrent studies in one process are
            with integrator._single_blas_thread():
                assert get() == 1
                with integrator._single_blas_thread():
                    assert get() == 1
                assert get() == 1
            assert get() == 2
        finally:
            put(before)

    def test_engine_runs_on_one_blas_thread(self):
        get, _ = _blas_api()
        cfg = zero_config()
        seen = []

        def work(chunk):
            run_chunk(cfg, (cfg.n_ref,), chunk, 3, observe=lambda *_: seen.append(get()))

        mc._map_chunks(work, mc._chunks(3 * mc.CHUNK_PATHS), 2)
        assert len(seen) == 3 * (cfg.n_steps + 1) and set(seen) == {1}

    def test_direct_call_pins_and_restores(self):
        # run_chunk called as validate and library callers call it, outside
        # any study; it used to run on the caller's BLAS thread count
        get, put = _blas_api()
        cfg = small_anderson_config()
        before = get()
        put(2)
        try:
            seen = []
            run_chunk(cfg, (cfg.n_ref, 8), range(3), 7,
                      observe=lambda *_: seen.append(get()))
            assert seen and set(seen) == {1}
            assert get() == 2
        finally:
            put(before)


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
