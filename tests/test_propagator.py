import math

import numpy as np
import pytest

import specwave as sw

from conftest import truncated


def random_state(rng, n):
    return sw.PairState(rng.standard_normal(n), rng.standard_normal(n))


def test_quarter_period_rotation(model8):
    # mu_1 = pi, so t = 1/2 rotates (1, 0) to (0, -pi), derived by hand
    st = sw.PairState([1.0], [0.0])
    out = sw.propagate(st, 0.5, model8)
    assert abs(out.pos[0]) < 1e-12
    assert out.vel[0] == pytest.approx(-math.pi, abs=1e-12)


def test_zero_time_is_identity(model8):
    rng = np.random.default_rng(0)
    st = random_state(rng, 8)
    out = sw.propagate(st, 0.0, model8)
    assert np.array_equal(out.pos, st.pos)
    assert np.array_equal(out.vel, st.vel)


def test_full_period(model8):
    st = sw.PairState([0.3], [-1.1])
    out = sw.propagate(st, 2.0, model8)
    assert out.pos[0] == pytest.approx(0.3, abs=1e-12)
    assert out.vel[0] == pytest.approx(-1.1, abs=1e-12)


def test_negative_time_rejected(model8):
    with pytest.raises(ValueError):
        sw.propagate(sw.PairState([1.0], [0.0]), -0.1, model8)


def test_isometry(model8):
    rng = np.random.default_rng(1)
    for _ in range(300):
        st = random_state(rng, 8)
        t = float(rng.uniform(0, 10))
        before = sw.norm_bold_hr(st, 0.0, model8)
        after = sw.norm_bold_hr(sw.propagate(st, t, model8), 0.0, model8)
        assert abs(after - before) <= 1e-12 * max(1.0, before)


def test_group_law(model8):
    rng = np.random.default_rng(2)
    for _ in range(100):
        st = random_state(rng, 8)
        s, t = rng.uniform(0, 10, size=2)
        one = sw.propagate(st, s + t, model8)
        two = sw.propagate(sw.propagate(st, s, model8), t, model8)
        assert np.max(np.abs(one.pos - two.pos)) < 1e-10
        assert np.max(np.abs(one.vel - two.vel)) < 1e-10


def test_projection_commutes_bitwise(model8):
    # per-mode decoupling makes both orders produce identical floats
    rng = np.random.default_rng(3)
    st = random_state(rng, 8)
    for k in (0, 3, 8):
        for t in (0.17, 1.9, 7.3):
            a = sw.propagate(truncated(st, k), t, model8)
            b = truncated(sw.propagate(st, t, model8), k)
            assert np.array_equal(a.pos, b.pos)
            assert np.array_equal(a.vel, b.vel)


def test_generator_consistency(model8):
    rng = np.random.default_rng(4)
    st = random_state(rng, 8)
    errs = []
    for h in (1e-3, 1e-4):
        out = sw.propagate(st, h, model8)
        dpos = (out.pos - st.pos) / h - st.vel
        dvel = (out.vel - st.vel) / h - model8.lam * st.pos
        errs.append(max(np.max(np.abs(dpos)), np.max(np.abs(dvel))))
    order = math.log10(errs[0] / errs[1])
    assert order >= 0.9
