"""Acceptance gate: every numbered criterion prints one PASS/FAIL line.

Criteria 1-3 and 7-9 read the flagship study, which runs the shipped
configuration through the CLI with --workers 1.  Criteria 7 and 8 need two
more flagship studies; they run on a background thread meanwhile, so the
gate keeps both cores busy.  Errors are measured against the finest Galerkin
level standing in for the untruncated limit, as disclosed in report.json;
that reference carries every noise mode (n_ref = m_noise), so it drops none
of the noise the limit keeps.
"""

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import specwave as sw
from specwave.cli import main
from specwave.config import load_config

from conftest import estimate_functional, truncated

SEED = 12345
CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs",
                      "anderson_acceptance.json")

pytestmark = pytest.mark.acceptance

WEAK_SLOPE_WINDOW = (-1.15, -0.75)
STRONG_SLOPE_WINDOW = (-0.65, -0.35)


def criterion(num: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _convergence(out, workers: int):
    """Exit code and errors.csv bytes of the flagship study run by the CLI."""
    code = main(["convergence", "--config", CONFIG, "--seed", str(SEED),
                 "--workers", str(workers), "--out", str(out)])
    if code != 0:
        return code, None
    with open(out / "errors.csv", "rb") as fh:
        return code, fh.read()


def _halved_step_study():
    setup = load_config(CONFIG)
    return sw.run_study(setup.config, setup.functional, setup.n_paths, SEED,
                        workers=1, coarsen=2)


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    # one background thread runs criterion 7's halved-step study on one
    # worker, then criterion 8's --workers 2 rerun, which has both cores to
    # itself once the --workers 1 study below is done
    pool = ThreadPoolExecutor(max_workers=1)
    try:
        halved = pool.submit(_halved_step_study)
        rerun = pool.submit(_convergence, tmp_path_factory.mktemp("acceptance_workers"), 2)
        out = tmp_path_factory.mktemp("acceptance")
        code, errors_csv = _convergence(out, 1)
        assert code == 0, f"acceptance study exited with {code}"
        with open(out / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        yield {"out": out, "report": report, "errors_csv": errors_csv,
               "halved": halved, "rerun": rerun}
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def test_criterion_1_weak_rate(study):
    weak = study["report"]["weak"]
    lo, hi = WEAK_SLOPE_WINDOW
    ok = lo <= weak["slope"] <= hi and weak["r_squared"] >= 0.95
    criterion(1, ok,
              f"weak slope {weak['slope']:.4f} (window [{lo}, {hi}]), "
              f"r^2 {weak['r_squared']:.4f} (>= 0.95); "
              "errors measured against the finest level standing in for the "
              "untruncated limit, which carries every noise mode")


def test_criterion_2_strong_rate(study):
    strong = study["report"]["strong"]
    lo, hi = STRONG_SLOPE_WINDOW
    ok = lo <= strong["slope"] <= hi
    criterion(2, ok, f"strong slope {strong['slope']:.4f} (window [{lo}, {hi}])")


def test_criterion_3_bound_consistency(study):
    report = study["report"]
    weak = np.asarray(report["weak"]["errors"])
    se = np.asarray(report["weak"]["stderr"])
    bounds = np.asarray(report["bound"]["values"])
    margin = np.abs(weak) - 3.0 * se
    ok = bool(np.all(margin <= bounds)) and report["bound"]["dominates_measured"]
    criterion(3, ok,
              f"max measured-to-bound ratio {float(np.max(np.abs(weak) / bounds)):.2e} "
              "(bound may be loose by orders of magnitude but is never violated)")


def test_criterion_4_semigroup_exactness():
    model = sw.build_model(1.0, 24)
    rng = np.random.default_rng(SEED)
    iso_err = group_err = 0.0
    commute_ok = True
    for _ in range(1000):
        st = sw.PairState(rng.standard_normal(24), rng.standard_normal(24))
        t = float(rng.uniform(0.0, 10.0))
        s = float(rng.uniform(0.0, 10.0))
        norm0 = sw.norm_bold_hr(st, 0.0, model)
        moved = sw.propagate(st, t, model)
        iso_err = max(iso_err,
                      abs(sw.norm_bold_hr(moved, 0.0, model) - norm0) / max(1.0, norm0))
        one = sw.propagate(st, s + t, model)
        two = sw.propagate(sw.propagate(st, s, model), t, model)
        group_err = max(group_err, float(np.max(np.abs(one.pos - two.pos))),
                        float(np.max(np.abs(one.vel - two.vel))))
        k = int(rng.integers(0, 25))
        a = sw.propagate(truncated(st, k), t, model)
        b = truncated(sw.propagate(st, t, model), k)
        commute_ok &= (np.array_equal(a.pos, b.pos) and np.array_equal(a.vel, b.vel))
    ok = iso_err <= 1e-12 and group_err <= 1e-10 and commute_ok
    criterion(4, ok,
              f"isometry err {iso_err:.2e} (<= 1e-12), group-law err {group_err:.2e} "
              f"(<= 1e-10), projection commutation bitwise: {commute_ok}")


def test_criterion_5_ito_isometry_additive():
    n, m, sigma, n_paths = 16, 32, 0.5, 20_000
    model = sw.build_model(1.0, n)
    pos = np.zeros(n)
    pos[0] = 1.0
    cfg = sw.SimConfig(model=model, levels=(8,), t_final=1.0, n_steps=64,
                       m_noise=m,
                       spec=sw.preset("additive-heat-kick", sigma=sigma),
                       initial=sw.PairState(pos, np.zeros(n)))
    closed = 1.0 + cfg.t_final * sigma**2 * float(np.sum(1.0 / model.abs_lam(n)))

    def eval_batch(p, v, mdl):
        inv_lam = 1.0 / mdl.abs_lam(p.shape[-1])
        return (p * p).sum(axis=-1) + (v * v * inv_lam).sum(axis=-1)

    h0sq = sw.TestFunctional("h0_sq", False, eval_batch)
    mean, se = estimate_functional(h0sq, cfg, n, n_paths, SEED)
    ok = abs(mean - closed) <= 3.0 * se
    criterion(5, ok,
              f"E||X_T||^2 = {mean:.6f} vs closed form {closed:.6f} "
              f"(|diff| = {abs(mean - closed):.2e} <= 3 se = {3 * se:.2e})")


def test_criterion_6_hilbert_schmidt_norm():
    got = sw.hs_norm_lambda_pow(1.0, 1.0, 1e-4)
    # 1e6-term partial sum with a midpoint integral tail estimate, so the
    # oracle approximates the full series far below the 1e-8 comparison scale
    n = np.arange(1, 1_000_001, dtype=np.float64)
    partial = float(np.sum((np.pi**2 * n * n) ** (-1.0)))
    tail = (np.pi**2) ** (-1.0) / (1_000_000 + 0.5)
    oracle = math.sqrt(2.0 * (partial + tail))
    exact = math.sqrt(1.0 / 3.0)
    ok = abs(got - oracle) <= 1e-8 and abs(got - exact) <= 1e-8
    criterion(6, ok,
              f"hs value {got:.12f}; |vs partial-sum oracle| = {abs(got - oracle):.2e}, "
              f"|vs sqrt(1/3)| = {abs(got - exact):.2e} (<= 1e-8)")


def test_criterion_7_time_step_dominance(study):
    half = study["halved"].result().weak_error
    full = np.asarray(study["report"]["weak"]["errors"])
    rel = np.abs(half - full) / np.abs(full)
    ok = bool(np.all(rel < 1.0 / 3.0))
    criterion(7, ok,
              f"halving the step count changes weak errors by at most "
              f"{float(np.max(rel)):.3f} of their value (< 1/3): spatial error dominates")


def test_criterion_8_worker_determinism(study):
    code, rerun = study["rerun"].result()
    assert code == 0
    ok = rerun == study["errors_csv"]
    criterion(8, ok, "errors.csv byte-identical between --workers 1 and --workers 2")


def test_criterion_9_moment_bound(study):
    mon = study["report"]["moment_monitor"]
    env = mon["envelope"]
    sups = np.sqrt(np.asarray(mon["sup_mean_square"]))
    se = np.asarray(mon["sup_stderr"])
    slack = 3.0 * se / (2.0 * sups)
    ok = bool(np.all(np.maximum(1.0, sups - slack) <= env)) and mon["below_envelope"]
    criterion(9, ok,
              f"sup-in-time L2 norms {np.round(sups, 4).tolist()} stay below the "
              f"a-priori envelope {env:.4f} with 3-stderr slack")


def test_error_columns_decrease_monotonically(study):
    # the study's own trend diagnostic: both error columns shrink with the level
    report = study["report"]
    weak = np.abs(np.asarray(report["weak"]["errors"]))
    strong = np.asarray(report["strong"]["errors"])
    assert np.all(np.diff(weak) < 0)
    assert np.all(np.diff(strong) < 0)
