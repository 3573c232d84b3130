import math

import numpy as np
import pytest
from scipy.integrate import quad

import specwave as sw
from specwave.coefficients import diffusion_vel, drift_vel

SQRT2 = math.sqrt(2.0)


class TestSpecConstruction:
    def test_presets(self):
        # every preset is a setting (alpha, beta) of the affine coefficient
        settings = {name: sw.preset(name, sigma=2.0) for name in sw.coefficients.PRESETS}
        assert {name: (s.diffusion, s.alpha, s.beta) for name, s in settings.items()} == {
            "anderson": ("anderson", 0.0, 1.0),
            "zero": ("anderson", 0.0, 0.0),
            "additive-heat-kick": ("anderson", 2.0, 0.0),
        }

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            sw.preset("nope")

    def test_pointwise_needs_callable(self):
        with pytest.raises(ValueError):
            sw.CoefficientSpec(diffusion="pointwise")


class TestDrift:
    def test_zero_drift(self, grid32):
        st = sw.PairState(np.arange(1.0, 9.0), np.zeros(8))
        assert drift_vel(st.pos, sw.preset("anderson"), grid32, 8) is None

    def test_constant_drift(self):
        # hand oracle: <e_1, 1> = integral of sqrt2 sin(pi x) = 2 sqrt2 / pi
        grid = sw.GridWorkspace(512)
        spec = sw.CoefficientSpec(beta=0.0, drift=lambda x, y: np.ones_like(y))
        st = sw.PairState([0.0], [0.0])
        out = drift_vel(st.pos, spec, grid, 1)
        assert out[0] == pytest.approx(2 * SQRT2 / math.pi, abs=1e-5)

    def test_identity_drift(self, grid32):
        spec = sw.CoefficientSpec(beta=0.0, drift=lambda x, y: y)
        st = sw.PairState([1.0, 2.0, 0, 0, 0, 0, 0, 0], np.zeros(8))
        out = drift_vel(st.pos, spec, grid32, 8)
        assert np.max(np.abs(out - st.pos)) < 1e-12

    def test_non_finite_raises(self, model8, grid32):
        # the field is not probed on its own: the step's one state probe
        # reports the non-finite result as a blow-up of the path
        spec = sw.CoefficientSpec(beta=0.0, drift=lambda x, y: np.full_like(y, np.inf))
        st = sw.PairState(np.ones(8), np.zeros(8))
        with pytest.raises(sw.BlowUpError):
            sw.step(st, 0.1, np.zeros(8), spec, grid32, model8)


class TestDiffusion:
    def test_identity_on_noise_modes(self, grid32):
        # alpha = 1, beta = 0: increment velocity is the projected increment
        spec = sw.CoefficientSpec(diffusion="anderson", alpha=1.0, beta=0.0)
        rng = np.random.default_rng(2)
        dw = rng.standard_normal(16)
        st = sw.PairState(rng.standard_normal(8), np.zeros(8))
        out = diffusion_vel(st.pos, dw, spec, grid32, 8)
        assert np.array_equal(out, dw[:8])

    def test_self_product_coefficient(self, grid32):
        # quadrature oracle for <e_1, e_1^2>
        oracle, err = quad(lambda x: (SQRT2 * math.sin(math.pi * x)) ** 3, 0, 1)
        assert err < 1e-12
        spec = sw.CoefficientSpec(diffusion="anderson", alpha=0.0, beta=1.0)
        st = sw.PairState([1.0] + [0.0] * 7, np.zeros(8))
        dw = np.zeros(16)
        dw[0] = 1.0
        out = diffusion_vel(st.pos, dw, spec, grid32, 8)
        assert out[0] == pytest.approx(oracle, abs=1e-12)

    def test_zero_noise(self, grid32):
        spec = sw.preset("anderson")
        st = sw.PairState(np.ones(8), np.zeros(8))
        out = diffusion_vel(st.pos, np.zeros(16), spec, grid32, 8)
        assert np.all(out == 0.0)

    def test_linearity_in_noise(self, grid32):
        spec = sw.CoefficientSpec(diffusion="anderson", alpha=0.3, beta=1.7)
        rng = np.random.default_rng(3)
        st = sw.PairState(rng.standard_normal(8), rng.standard_normal(8))
        dw = rng.standard_normal(16)
        one = diffusion_vel(st.pos, dw, spec, grid32, 8)
        s = -2.75
        scaled = diffusion_vel(st.pos, s * dw, spec, grid32, 8)
        assert np.max(np.abs(scaled - s * one)) < 1e-12

    def test_grid_refinement_invariance(self):
        # both factors are trigonometric polynomials: projection is exact,
        # so doubling the grid must not move the result
        spec = sw.CoefficientSpec(diffusion="anderson", alpha=0.5, beta=1.0)
        rng = np.random.default_rng(4)
        st = sw.PairState(rng.standard_normal(8), np.zeros(8))
        dw = rng.standard_normal(16)
        out = {g: diffusion_vel(st.pos, dw, spec, sw.GridWorkspace(g), 8)
               for g in (24, 48)}
        assert np.max(np.abs(out[24] - out[48])) < 1e-10

    def test_grid_too_coarse_rejected(self):
        spec = sw.preset("anderson")
        st = sw.PairState(np.ones(8), np.zeros(8))
        with pytest.raises(ValueError, match="dealiasing"):
            diffusion_vel(st.pos, np.ones(16), spec, sw.GridWorkspace(16), 8)

    def test_additive_columns(self, grid32):
        spec = sw.preset("additive-heat-kick", sigma=0.5)
        dw = np.zeros(16)
        dw[2] = 2.0
        st = sw.PairState(np.ones(8), np.ones(8))
        out = diffusion_vel(st.pos, dw, spec, grid32, 8)
        want = np.zeros(8)
        want[2] = 1.0
        assert np.array_equal(out, want)

    def test_pointwise_kind_matches_anderson(self):
        # b(x, y) = 2 + 3 y reproduces the affine multiplicative rule up to
        # quadrature error on an oversampled grid
        grid = sw.GridWorkspace(512)
        rng = np.random.default_rng(5)
        st = sw.PairState(rng.standard_normal(8) / 4, np.zeros(8))
        dw = rng.standard_normal(16)
        exact = diffusion_vel(st.pos, dw,
                              sw.CoefficientSpec(diffusion="anderson", alpha=2.0, beta=3.0),
                              grid, 8)
        approx = diffusion_vel(st.pos, dw,
                               sw.CoefficientSpec(diffusion="pointwise",
                                                  pointwise_b=lambda x, y: 2 + 3 * y),
                               grid, 8)
        assert np.max(np.abs(exact - approx)) < 1e-4


def test_truncation_hs_sum_converges(model8, grid32):
    # Parseval tail: the per-mode noise-injection rate is nondecreasing in the
    # truncation level and the default 2x reference captures >= 99% of 8x
    rng = np.random.default_rng(6)
    pos = rng.standard_normal(8)
    spec = sw.preset("anderson")
    inv_lam = 1.0 / model8.abs_lam()

    def hs_sum(m):
        grid = sw.GridWorkspace(8 + m)
        cols = diffusion_vel(np.broadcast_to(pos, (m, 8)), np.eye(m), spec, grid, 8)
        return float(np.sum(cols**2 * inv_lam))

    values = {m: hs_sum(m) for m in (8, 16, 32, 64, 128)}
    ordered = [values[m] for m in (8, 16, 32, 64, 128)]
    assert all(b >= a - 1e-14 for a, b in zip(ordered, ordered[1:]))
    assert values[16] >= 0.99 * values[64]  # M = 2 N_ref vs M = 8 N_ref at N_ref = 8
