import math
import warnings

import numpy as np
import pytest
import scipy.fft
from scipy.integrate import quad

import specwave as sw
from specwave.integrator import _cosine_projection, _engine_tables, _noise_map, _sine_synthesis
from specwave.spectral import (_cos_sine_inner, _sine_from_cos_matrix, pair_norm_sq,
                               pair_weights)
from specwave.validate import _triple_product

SQRT2 = math.sqrt(2.0)


class TestBuildModel:
    def test_single_mode(self):
        m = sw.build_model(1.0, 1)
        assert np.allclose(m.lam, [-math.pi**2], rtol=0, atol=1e-14)
        assert np.allclose(m.mu, [math.pi], rtol=0, atol=1e-14)

    def test_third_eigenvalue(self):
        m = sw.build_model(1.0, 3)
        assert m.lam[2] == pytest.approx(-9 * math.pi**2, rel=1e-14)

    def test_theta_scaling(self):
        m = sw.build_model(4.0, 2)
        assert np.allclose(m.mu, [2 * math.pi, 4 * math.pi], rtol=1e-14)

    def test_monotone(self):
        m = sw.build_model(2.5, 20)
        assert np.all(np.diff(m.lam) < 0)
        assert np.all(np.diff(m.mu) > 0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            sw.build_model(0.0, 4)
        with pytest.raises(ValueError):
            sw.build_model(-1.0, 4)
        with pytest.raises(ValueError):
            sw.build_model(1.0, 0)
        # -theta pi^2 n^2 overflows from mode 2 on: rejected without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="theta 1e\\+307 overflows"):
                sw.build_model(1e307, 8)


def _eval_field(coeffs, points):
    """sum_n a_n e_n at the points, summed directly."""
    n = np.arange(1, len(coeffs) + 1)
    return (SQRT2 * np.sin(np.pi * np.outer(points, n))) @ np.asarray(coeffs, float)


def _norm_hr(coeffs, r, model):
    """sqrt(sum |lam_n|^(2r) a_n^2), the graph norm of the r-th operator power."""
    a = np.asarray(coeffs, float)
    return math.sqrt(float(np.sum(model.abs_lam(len(a)) ** (2.0 * r) * a * a)))


class TestEvalField:
    # synthesize evaluates a field on the grid nodes; nodes of GridWorkspace(3)
    # are 1/4, 1/2 and 3/4
    def test_single_mode_midpoint(self):
        assert sw.GridWorkspace(1).synthesize([1.0])[0] == pytest.approx(SQRT2, rel=1e-14)

    def test_second_mode(self):
        got = sw.GridWorkspace(3).synthesize([0.0, 1.0])[0]
        assert got == pytest.approx(SQRT2, rel=1e-14)

    def test_two_modes_against_direct_sum(self):
        # oracle: evaluate the sum of sines directly
        x = 0.5
        want = SQRT2 * (math.sin(math.pi * x) + math.sin(2 * math.pi * x))
        got = sw.GridWorkspace(3).synthesize([1.0, 1.0])[1]
        assert got == pytest.approx(want, abs=1e-14)
        assert want == pytest.approx(SQRT2, abs=1e-12)


class TestAnalyzeField:
    def test_roundtrip(self, grid32):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(3)
        back = grid32.analyze(_eval_field(a, grid32.nodes), 3)
        assert np.max(np.abs(back - a)) < 1e-12

    def test_roundtrip_full_degree(self, grid32):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(32)
        back = grid32.analyze(grid32.synthesize(a), 32)
        assert np.max(np.abs(back - a)) < 1e-12

    def test_zero_samples(self, grid32):
        assert np.all(grid32.analyze(np.zeros(32), 5) == 0.0)

    def test_squared_mode_coefficient(self, grid32):
        # quadrature oracle for the first sine coefficient of e_1^2
        oracle, err = quad(lambda x: (SQRT2 * math.sin(math.pi * x)) ** 3, 0.0, 1.0)
        assert err < 1e-12
        assert oracle == pytest.approx(8 * SQRT2 / (3 * math.pi), abs=1e-12)
        got = grid32.analyze(_eval_field([1.0], grid32.nodes) ** 2, 1)[0]
        # interior-grid quadrature: fourth-order accurate for this integrand
        assert got == pytest.approx(oracle, abs=1e-5)
        grid128 = sw.GridWorkspace(128)
        got_fine = grid128.analyze(_eval_field([1.0], grid128.nodes) ** 2, 1)[0]
        assert abs(got_fine - oracle) < abs(got - oracle)

    def test_length_mismatch(self, grid32):
        # one field's samples, one short of the grid
        with pytest.raises(ValueError):
            grid32.analyze(np.zeros(31), 4)

    def test_grid_analyze_rejects_wrong_length(self, grid32):
        with pytest.raises(ValueError, match="expected 32"):
            grid32.analyze(np.zeros((2, 31)), 4)


class TestNorms:
    # position weight |lam|^r, velocity weight |lam|^(r-1)
    def test_h0(self, model8):
        st = sw.PairState([0.6, 0.8], [0.0, 0.0])
        assert sw.norm_bold_hr(st, 0.0, model8) == pytest.approx(1.0, rel=1e-15)

    def test_half_power(self, model8):
        st = sw.PairState([1.0], [0.0])
        assert sw.norm_bold_hr(st, 1.0, model8) == pytest.approx(math.pi, rel=1e-14)

    def test_negative_power_second_mode(self, model8):
        got = sw.norm_bold_hr(sw.PairState([0.0, 0.0], [0.0, 1.0]), 0.0, model8)
        assert got == pytest.approx(1.0 / (2 * math.pi), rel=1e-14)

    def test_pair_norm_position_only(self, model8):
        st = sw.PairState([1.0], [0.0])
        assert sw.norm_bold_hr(st, 0.0, model8) == 1.0

    def test_pair_norm_velocity_only(self, model8):
        st = sw.PairState([0.0], [1.0])
        assert sw.norm_bold_hr(st, 0.0, model8) == pytest.approx(1 / math.pi, rel=1e-14)

    def test_pair_norm_mixed(self, model8):
        st = sw.PairState([1.0], [math.pi])
        assert sw.norm_bold_hr(st, 0.0, model8) == pytest.approx(SQRT2, rel=1e-14)

    def test_pair_norm_splits(self, model8):
        rng = np.random.default_rng(5)
        st = sw.PairState(rng.standard_normal(8), rng.standard_normal(8))
        for r in (-0.6, 0.0, 0.4, 1.0):
            whole = sw.norm_bold_hr(st, r, model8) ** 2
            parts = (_norm_hr(st.pos, r / 2, model8) ** 2
                     + _norm_hr(st.vel, r / 2 - 0.5, model8) ** 2)
            assert whole == pytest.approx(parts, rel=1e-14)

    def test_rows_at_zero_are_the_inline_form(self):
        # r = 0 is sum pos^2 + sum vel^2 / |lam| bit for bit, on a 512-path
        # block of 256 modes
        model = sw.build_model(1.0, 256)
        pos, vel = np.random.default_rng(7).standard_normal((2, 512, 256))
        inline = (pos * pos).sum(axis=-1) + (vel * vel * (1.0 / -model.lam)).sum(axis=-1)
        assert np.array_equal(pair_norm_sq(pos, vel, *pair_weights(model, 256, 0.0)), inline)

    def test_parseval(self, model8):
        rng = np.random.default_rng(6)
        a = rng.standard_normal(8)
        x, w = np.polynomial.legendre.leggauss(300)
        x = 0.5 * (x + 1.0)
        vals = _eval_field(a, x)
        l2 = math.sqrt(0.5 * float(w @ (vals * vals)))
        st = sw.PairState(a, np.zeros(8))
        assert abs(l2 - sw.norm_bold_hr(st, 0.0, model8)) < 1e-8


class TestHsNorm:
    def test_unit_theta(self):
        # partial-sum oracle with the closed form sum 1/n^2 = pi^2/6
        want = math.sqrt(2.0 / math.pi**2 * (math.pi**2 / 6.0))
        assert want == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-15)
        got = sw.hs_norm_lambda_pow(1.0, 1.0, 1e-3)
        assert got == pytest.approx(want, abs=2e-6)

    def test_divergence(self):
        with pytest.raises(ValueError, match="diverges"):
            sw.hs_norm_lambda_pow(1.0, 0.5, 1e-6)
        with pytest.raises(ValueError, match="diverges"):
            sw.hs_norm_lambda_pow(1.0, 0.3, 1e-6)

    def test_theta_scaling(self):
        a = sw.hs_norm_lambda_pow(1.0, 1.0, 1e-3)
        b = sw.hs_norm_lambda_pow(4.0, 1.0, 1e-3)
        assert b == pytest.approx(math.sqrt(1.0 / 12.0), abs=2e-6)
        assert b == pytest.approx(a / 2.0, abs=2e-6)

    @pytest.mark.parametrize("beta,tol", [(0.6, 0.3), (1.0, 1e-3), (2.0, 1e-9)])
    def test_matches_direct_partial_sum(self, beta, tol):
        n = np.arange(1, 1_000_001, dtype=float)
        oracle = math.sqrt(2.0 * float(np.sum((math.pi**2 * n * n) ** (-beta))))
        assert abs(sw.hs_norm_lambda_pow(1.0, beta, tol) - oracle) < tol

    def test_infeasible_tolerance_rejected(self):
        with pytest.raises(ValueError, match="loosen tol"):
            sw.hs_norm_lambda_pow(1.0, 0.51, 1e-10)


class TestPairState:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            sw.PairState([np.nan], [0.0])
        with pytest.raises(ValueError):
            sw.PairState([0.0], [np.inf])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            sw.PairState([1.0, 2.0], [1.0])


class TestCosSineInner:
    @pytest.mark.parametrize("m_max, n_max", [(768, 512), (512, 256), (769, 300), (8, 4),
                                              (1, 1)])
    def test_half_fill_keeps_the_bits(self, m_max, n_max):
        # the full-table formula that filled the zeros by np.where
        m = np.arange(m_max + 1, dtype=np.float64)[:, None]
        j = np.arange(1, n_max + 1, dtype=np.float64)[None, :]
        odd = (m + j) % 2 == 1
        denom = np.where(odd, j * j - m * m, 1.0)
        want = np.where(odd, 2.0 * SQRT2 * j / (np.pi * denom), 0.0)
        got = _cos_sine_inner(m_max, n_max)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert not np.signbit(got[~odd]).any()


class TestGridWorkspace:
    def test_nodes(self):
        g = sw.GridWorkspace(4)
        assert np.allclose(g.nodes, [0.2, 0.4, 0.6, 0.8], rtol=1e-15)

    def test_product_projection_exact(self):
        # oracle: adaptive quadrature of the product against each basis function
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal(4), rng.standard_normal(6)
        grid = sw.GridWorkspace(12)
        u = grid.synthesize(a) * grid.synthesize(b)
        got = grid.product_to_sine(u, 5)

        def f(x, j):
            va = sum(a[n] * SQRT2 * math.sin((n + 1) * math.pi * x) for n in range(4))
            vb = sum(b[n] * SQRT2 * math.sin((n + 1) * math.pi * x) for n in range(6))
            return va * vb * SQRT2 * math.sin(j * math.pi * x)

        for j in range(1, 6):
            want, err = quad(f, 0.0, 1.0, args=(j,), limit=200)
            assert got[j - 1] == pytest.approx(want, abs=1e-12)


# the type-1 transforms as scipy.fft defines them: an oracle for the real-FFT
# extensions that the package builds on numpy.fft
def _close(got, want):
    scale = np.max(np.abs(want))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * scale


class TestTransformsMatchScipy:
    @pytest.mark.parametrize("g", [24, 32, 256, 512, 768])
    @pytest.mark.parametrize("rows", [(), (512,)])
    def test_synthesize_analyze_product(self, g, rows):
        rng = np.random.default_rng(g)
        grid = sw.GridWorkspace(g)
        n = g // 3
        a = rng.standard_normal(rows + (n,))
        padded = np.zeros(rows + (g,))
        padded[..., :n] = a
        _close(grid.synthesize(a), scipy.fft.dst(padded, type=1) / SQRT2)

        v = rng.standard_normal(rows + (g,))
        _close(grid.analyze(v, n),
               scipy.fft.dst(v, type=1)[..., :n] / (SQRT2 * (g + 1)))

        closed = np.zeros(rows + (g + 2,))
        closed[..., 1:-1] = v
        want = scipy.fft.dct(closed, type=1) @ _sine_from_cos_matrix(g + 1, n)
        _close(grid.product_to_sine(v, n), want)

    # (level, m_noise) on level + min(level, m_noise) nodes; ids name the
    # _engine_tables key (level, nodes)
    @pytest.mark.parametrize("level, m_noise", [(12, 20), (16, 16), (24, 7)],
                             ids=["12-24", "16-32", "24-31"])
    def test_engine_tables(self, level, m_noise):
        # L < m_noise and L = m_noise project the noise onto cosines, L >
        # m_noise the position, here on an odd node count; the product formed
        # from the mirror halves as run_chunk forms it is the closed-form
        # triple product, an oracle that shares no table with the engine
        nodes = level + min(level, m_noise)
        h = (nodes + 1) // 2
        map_odd, map_even, analysis_odd, analysis_even = _engine_tables(level, nodes)
        noise_odd, noise_even = _noise_map(m_noise, nodes)
        assert map_odd.shape == ((level + 1) // 2, h) and analysis_even.shape == (h, level // 2)
        assert noise_odd.shape == ((m_noise + 1) // 2, h) and noise_even.shape == (m_noise // 2, h)
        rng = np.random.default_rng(level * m_noise)
        v = rng.standard_normal((4, level))
        w = rng.standard_normal((4, m_noise))
        o, e = v[:, 0::2] @ map_odd, v[:, 1::2] @ map_even
        wo, we = w[:, 0::2] @ noise_odd, w[:, 1::2] @ noise_even
        got = np.empty((4, level))
        got[:, 0::2] = (o * wo + e * we) @ analysis_odd
        got[:, 1::2] = (o * we + e * wo) @ analysis_even
        triple = _triple_product(m_noise, level)
        _close(got, np.einsum("bj,bn,jnk->bk", w, v, triple))

    # (level or m_noise, nodes): the flagship and fine-reference references,
    # an odd grid, one mode, and a noise sampled as sines
    @pytest.mark.parametrize("modes, nodes", [(256, 512), (512, 768), (24, 31), (1, 2), (7, 31)])
    def test_cached_halves_are_the_full_tables(self, modes, nodes):
        # bit for bit the parity slices of the full-formula tables; the noise
        # halves carry the node weights 2, or 1 at an odd grid's centre
        h = (nodes + 1) // 2
        synth = _sine_synthesis(modes, nodes + 1)
        level_map = synth if nodes >= 2 * modes else _cosine_projection(modes, nodes)
        analysis = synth.T / (nodes + 1)
        noise = _cosine_projection(modes, nodes) if nodes <= 2 * modes else synth
        tables = _engine_tables(modes, nodes)
        want = (level_map[0::2, :h], level_map[1::2, :h], analysis[:h, 0::2], analysis[:h, 1::2])
        for got, full in zip(tables, want):
            assert np.array_equal(got, full)
        noises = _noise_map(modes, nodes)
        for got, full in zip(noises, (noise[0::2, :h], noise[1::2, :h])):
            weighted = 2.0 * full
            if nodes % 2:
                weighted[:, -1] = full[:, -1]
            assert np.array_equal(got, weighted)
        # each is stored C-ordered in its own read-only buffer, no full table
        # behind it; the analysis halves as transposes
        for got, transposed in zip((*tables, *noises), (False, False, True, True, False, False)):
            stored = got.T if transposed else got
            owner = got if got.base is None else got.base
            assert owner.shape == stored.shape and owner.flags.c_contiguous
            assert owner.flags.owndata and not got.flags.writeable
