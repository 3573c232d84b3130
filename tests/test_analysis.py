import math

import numpy as np
import pytest

import specwave as sw


class TestFitRate:
    @pytest.mark.parametrize("slope", [-2.0, -1.0, -0.5, -0.25])
    def test_pure_power_law(self, slope):
        pts = [(n, 2.9 * n**slope) for n in (4, 8, 16, 32, 64)]
        fit = sw.fit_rate(pts)
        assert fit.slope == pytest.approx(slope, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(2.9), abs=1e-10)

    def test_perturbed_power_law(self):
        pts = [(n, 1.3 * n**-1.0 * (1 + 0.05 * s))
               for n, s in zip((4, 8, 16, 32), (1, -1, 1, -1))]
        fit = sw.fit_rate(pts)
        assert -1.1 <= fit.slope <= -0.9
        # independent ordinary-least-squares oracle
        coef = np.polyfit(np.log([p[0] for p in pts]), np.log([p[1] for p in pts]), 1)
        assert fit.slope == pytest.approx(coef[0], abs=1e-12)
        assert fit.intercept == pytest.approx(coef[1], abs=1e-12)

    def test_rejections(self):
        with pytest.raises(ValueError):
            sw.fit_rate([(2, 1.0), (4, 0.5)])
        with pytest.raises(ValueError):
            sw.fit_rate([(2, 1.0), (2, 0.5), (8, 0.1)])
        with pytest.raises(ValueError):
            sw.fit_rate([(2, 1.0), (4, 0.0), (8, 0.1)])
        with pytest.raises(ValueError):
            sw.fit_rate([(2, 1.0), (4, -0.5), (8, 0.1)])


def params(**overrides):
    base = dict(t_final=1.0, phi_c2b=1.0, xi_l2_rho=1.0, xi_l1_smooth=1.0,
                f_lip_smooth=1.0, f_lip_rho=1.0, f_lip0=1.0, b_lip_gamma_op=1.0,
                b_lip_rho_hs=1.0, b_lip0_hs=1.0, f_second=1.0, b_second=1.0,
                lambda_pow_hs=1.0, lambda_cut=1.0, gamma=1.0, beta=0.75)
    base.update(overrides)
    return sw.BoundParams(**base)


class TestWeakBound:
    def test_vanishing_norms(self):
        zero = params(xi_l2_rho=0, xi_l1_smooth=0, f_lip_smooth=0, f_lip_rho=0,
                      f_lip0=0, b_lip_gamma_op=0, b_lip_rho_hs=0, b_lip0_hs=0,
                      f_second=0, b_second=0, lambda_pow_hs=0)
        assert sw.theoretical_weak_bound(zero) == 0.0

    def test_all_ones_hand_value(self):
        # hand evaluation of the closed formula, factor by factor:
        #   phi * (1 v T) * (1 v ||xi||^2)          = 1 * 1 * 1
        #   additive middle factor 1 + 1 + 1^2*1^2  = 3
        #   curvature 1 v sqrt(1 * (1 + 2))         = sqrt(3)
        #   exp(1 * (1/2 + 3*1 + 4*1))              = e^7.5
        #   exp(1 * (2*1 + 1))                      = e^3
        #   cut factor 1^(3/4 - 1)                  = 1
        oracle = 1.0 * 1.0 * 1.0 * 3.0 * math.sqrt(3.0) \
            * math.exp(0.5 + 3.0 + 4.0) * math.exp(2.0 + 1.0) * 1.0
        got = sw.theoretical_weak_bound(params())
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(3.0 * math.sqrt(3.0) * math.exp(10.5), rel=1e-12)

    def test_cut_homogeneity(self):
        v1 = sw.theoretical_weak_bound(params(lambda_cut=1.0))
        v2 = sw.theoretical_weak_bound(params(lambda_cut=2.0))
        assert v2 == pytest.approx(v1 * 2.0 ** (0.75 - 1.0), rel=1e-12)

    def test_monotone_in_every_norm(self):
        rng = np.random.default_rng(0)
        names = ["phi_c2b", "xi_l2_rho", "xi_l1_smooth", "f_lip_smooth",
                 "f_lip_rho", "f_lip0", "b_lip_gamma_op", "b_lip_rho_hs",
                 "b_lip0_hs", "f_second", "b_second", "lambda_pow_hs", "t_final"]
        base = params(lambda_cut=3.0)
        v0 = sw.theoretical_weak_bound(base)
        for _ in range(60):
            name = names[int(rng.integers(len(names)))]
            bump = {name: getattr(base, name) + float(rng.uniform(0, 2))}
            assert sw.theoretical_weak_bound(params(lambda_cut=3.0, **bump)) >= v0 - 1e-12

    def test_hypothesis_violations_named(self):
        with pytest.raises(ValueError, match="gamma"):
            sw.theoretical_weak_bound(params(gamma=-1.0))
        with pytest.raises(ValueError, match="beta"):
            sw.theoretical_weak_bound(params(beta=0.4))  # at gamma/2 boundary
        with pytest.raises(ValueError, match="beta"):
            sw.theoretical_weak_bound(params(beta=1.2))
        with pytest.raises(ValueError, match="lambda_cut"):
            sw.theoretical_weak_bound(params(lambda_cut=0.0))
        with pytest.raises(ValueError, match="b_lip0_hs"):
            sw.theoretical_weak_bound(params(b_lip0_hs=-0.1))

    @pytest.mark.parametrize("overrides", [
        {"b_lip0_hs": 14.0},
        {"b_lip_rho_hs": 1e200},
        {"phi_c2b": 1e300, "xi_l1_smooth": 1e10},
        {"phi_c2b": 1e300, "xi_l2_rho": 1e100, "xi_l1_smooth": 0.0, "f_lip_smooth": 0.0,
         "lambda_pow_hs": 0.0},
    ], ids=["exp-overflows", "power-overflows", "product-overflows", "inf-times-zero"])
    def test_non_finite_value_raises(self, overrides):
        # exp and ** raise OverflowError; a product of finite factors reaches
        # inf, or nan, quietly, which report.json would write as Infinity
        with pytest.raises(ValueError, match="not a finite float"):
            sw.theoretical_weak_bound(params(**overrides))

    @pytest.mark.parametrize("name, value", [
        ("xi_l2_rho", math.nan), ("f_lip0", math.nan), ("t_final", math.inf),
        ("lambda_cut", math.inf), ("phi_c2b", "1.0"),
    ])
    def test_non_finite_input_raises(self, name, value):
        # a nan norm passed every check, and max(1, nan) = 1 gave a smaller bound
        with pytest.raises(ValueError, match=f"{name} must be a finite number"):
            sw.theoretical_weak_bound(params(**{name: value}))


class TestPredictedExponent:
    def test_anderson_limit(self):
        # gamma in the upper corner with the smallest feasible beta: the
        # level-count exponent approaches -1
        expo = sw.predicted_exponent(1.0 - 1e-9, 0.5 + 1e-9)
        assert expo.n_exponent == pytest.approx(-1.0, abs=1e-8)

    def test_degenerate_no_decay(self):
        expo = sw.predicted_exponent(0.8, 0.8)
        assert expo.lambda_exponent == 0.0
        assert expo.n_exponent == 0.0

    def test_quarter_gap(self):
        expo = sw.predicted_exponent(1.0, 0.75)
        assert expo.lambda_exponent == pytest.approx(-0.25, abs=1e-15)
        assert expo.n_exponent == pytest.approx(-0.5, abs=1e-15)

    def test_hypothesis_violation_named(self):
        with pytest.raises(ValueError, match="beta"):
            sw.predicted_exponent(1.0, 0.5)
        with pytest.raises(ValueError, match="gamma"):
            sw.predicted_exponent(0.0, 0.1)
