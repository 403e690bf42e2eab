"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Stochastic tolerances follow the contracts exactly (4 standard errors unless
stated otherwise); independent oracles are coded inline so they cannot share
a path with the library code they check.  Run with ``pytest -v
tests/test_acceptance.py`` (add ``-s`` to see the per-criterion lines live).
"""

import json
import math
import os
import time
from itertools import permutations

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from pgglmc import (
    InitSpec,
    LmcConfig,
    PggSpec,
    SmoothingConfig,
    bounds_table,
    get_potential,
    grad_estimate_from_draws,
    kappa,
    regularize,
    run_chain,
    sample_pgg,
)
from pgglmc.cli import main
from pgglmc.suites import (
    DOMINANCE_CHAINS,
    DOMINANCE_CONFIGS,
    DOMINANCE_ETA,
    DOMINANCE_LAM,
    DOMINANCE_STEPS,
    suite_lemma1,
    suite_lemma2,
    suite_mixing_dominance,
    suite_mixing_variance,
    suite_moments,
    suite_transport,
)


# run_chain results do not depend on the thread count (criterion 9), so the
# mixing fixtures use every core.
THREADS = os.cpu_count() or 1

# criterion 9's 4-group run stays a 4-group run on any host
pytestmark = pytest.mark.usefixtures("eight_cores")


def finish(name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}  ({elapsed:.1f}s, budget {budget}s)  {detail}")
    assert ok, f"{name} failed: {detail}"
    assert elapsed < budget, f"{name} exceeded its runtime budget: {elapsed:.1f}s"


def failed_checks(suite_result):
    return [c.name for c in suite_result.checks if not c.passed]


def test_criterion_1_moment_suite():
    t0 = time.perf_counter()
    res = suite_moments(seed=20_001, draws=1_000_000)
    bad = failed_checks(res)
    finish("criterion 1: moment suite (Gamma-ratio formula, 1e6 draws, 4 SE)",
           not bad, time.perf_counter() - t0, 60, detail=f"failed: {bad}" if bad else "")


def test_criterion_2_normalizer_quadrature():
    t0 = time.perf_counter()
    worst = 0.0
    for p in (1.0, 1.5, 2.0):
        # 1-D: kappa = 2 * integral_0^inf exp(-t^p / p)
        oracle = 2.0 * quad(lambda t: math.exp(-(t**p) / p), 0, 80)[0]
        worst = max(worst, abs(kappa(PggSpec(p, 1)) - oracle) / oracle)
        # 2-D: integrate the joint unnormalized density over one quadrant
        oracle2 = 4.0 * dblquad(
            lambda y, x: math.exp(-((x**p) + (y**p)) / p), 0, 40, 0, 40)[0]
        worst = max(worst, abs(kappa(PggSpec(p, 2)) - oracle2) / oracle2)
    finish("criterion 2: normalizer vs 1-D/2-D quadrature (1e-6 relative)",
           worst <= 1e-6, time.perf_counter() - t0, 60,
           detail=f"worst relative error {worst:.2e}")


def test_criterion_3_lemma1_suite():
    t0 = time.perf_counter()
    res = suite_lemma1(seed=20_003)
    bad = failed_checks(res)
    finish("criterion 3: smoothing gap + smoothed-gradient Lipschitz suite",
           not bad, time.perf_counter() - t0, 120, detail=f"failed: {bad}" if bad else "")


def test_criterion_4_lemma2_suite():
    t0 = time.perf_counter()
    res = suite_lemma2(seed=20_004)
    bad = failed_checks(res)
    finish("criterion 4: estimator bias/variance envelopes (1e4 trials)",
           not bad, time.perf_counter() - t0, 300, detail=f"failed: {bad}" if bad else "")


def classical_gaussian_smoothing_estimate(value_fn, x, mu, draws):
    """Independently coded classical (p = 2) smoothing estimator.

    Plain transliteration of the two-point formula: average of
    [(U(x + mu z) - U(x)) / mu] * z over the given Gaussian draws.  The
    potential is the shared black box and must be queried identically by both
    sides (one stacked evaluation): numpy's vectorized and scalar pow differ
    in the last ulp, which is a property of the oracle, not the estimators.
    """
    factors = (value_fn(x + mu * draws) - value_fn(x)) / mu
    return np.mean(factors[:, None] * draws, axis=0)


def test_criterion_5_estimator_reduction_bitwise():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20_005)
    mismatches = 0
    for case in range(1000):
        d = int(rng.integers(1, 7))
        n = int(rng.integers(1, 9))
        mu = float(rng.uniform(0.05, 0.5))
        kind = case % 3
        if kind == 0:
            pot = regularize(get_potential("quadratic", d), 0.5)
        elif kind == 1:
            pot = regularize(get_potential("power", d, alpha=0.5), 1.0)
        else:
            pot = regularize(get_potential("l1", d), 0.3)
        x = rng.normal(size=d)
        xi = sample_pgg(PggSpec(2.0, d), rng, size=n)
        mine = grad_estimate_from_draws(pot, mu, 2.0, x, xi)
        theirs = classical_gaussian_smoothing_estimate(pot.value, x, mu, xi)
        if not np.array_equal(mine, theirs):
            mismatches += 1
    finish("criterion 5: p = 2 estimator bitwise-equals classical coding (1000 cases)",
           mismatches == 0, time.perf_counter() - t0, 60,
           detail=f"{mismatches} mismatching cases")


@pytest.fixture(scope="module")
def mixing_variance_result():
    t0 = time.perf_counter()
    res = suite_mixing_variance(seed=20_006, threads=THREADS)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def mixing_dominance_result():
    t0 = time.perf_counter()
    res = suite_mixing_dominance(seed=20_007, threads=THREADS)
    return res, time.perf_counter() - t0


def test_criterion_6_mixing_variance_oracle(mixing_variance_result):
    res, elapsed = mixing_variance_result
    bad = failed_checks(res)
    finish("criterion 6: stationary variance vs 1/(lam(1 - eta lam/2)) oracle",
           not bad, elapsed, 300, detail=f"failed: {bad}" if bad else "")


def test_criterion_7_bound_dominance(mixing_dominance_result):
    res, elapsed = mixing_dominance_result
    bad = failed_checks(res)

    # Independent scalar recomputation of every itemized term, pure math only.
    worst_rel = 0.0
    for i, (name, params, d, p, mu, n) in enumerate(DOMINANCE_CONFIGS):
        lam, eta, steps = DOMINANCE_LAM, DOMINANCE_ETA, DOMINANCE_STEPS
        if name == "quadratic":
            L, alpha, curvature = 1.0, 1.0, 1.0
        else:
            L, alpha, curvature = params["L"], params["alpha"], 0.0
        M = L * d ** ((1 - alpha) / p) / (mu ** (1 - alpha) * (1 + alpha) ** (1 - alpha))
        a = (L * mu ** (1 + alpha) * d ** ((1 + alpha) / p) / (1 + alpha)
             + 0.5 * lam * mu**2 * (d + 1) ** (2 / p))
        w2_init = math.sqrt(d / (curvature + lam))
        expected = {
            "geometric": (1 - 0.5 * lam * eta) ** (steps / 2) * w2_init,
            "discretization": 1.9 * (M + lam) / lam * math.sqrt(eta * d),
            "smoothing_bias": 2 * (M + lam) / lam * mu * d ** (1 / p),
            "smoothing_w2": (3 * math.sqrt(d * a / lam) if a <= 0.1 * (1 + 1e-12)
                             else math.sqrt(4 * d / lam * (a + math.exp(a) - 1))),
            "variance_mu": (M + lam) * mu * (d + 3) ** (3 / p)
                           * math.sqrt(eta) / math.sqrt(lam * n),
            "variance_grad": math.sqrt((M + lam) / lam) * math.sqrt(eta) / math.sqrt(n)
                             * math.sqrt(d) * (d + 2) ** (1 / p),
            "regularization_m2": 0.0,
        }
        pot = regularize(get_potential(name, d, **params), lam)
        scfg = SmoothingConfig(mu=mu, n=n, p=p)
        lcfg = LmcConfig(eta=eta, steps=steps, chains=DOMINANCE_CHAINS,
                         init=InitSpec(), seed=0)
        terms = bounds_table(pot, scfg, lcfg)["theorem1"]["terms"]
        for term, val in expected.items():
            denom = max(abs(val), 1e-300)
            worst_rel = max(worst_rel, abs(terms[term] - val) / denom)

    ok = not bad and worst_rel <= 1e-12
    finish("criterion 7: Theorem-1 dominance on 6 configs + independent term check",
           ok, elapsed, 600,
           detail=(f"failed: {bad}; " if bad else "") + f"worst term mismatch {worst_rel:.2e}")


def test_criterion_8_transport_correctness():
    t0 = time.perf_counter()
    res = suite_transport(seed=20_008)
    bad = failed_checks(res)
    finish("criterion 8: assignment solver vs N! brute force, 1-D closed form, axioms",
           not bad, time.perf_counter() - t0, 60, detail=f"failed: {bad}" if bad else "")


def test_criterion_9_pipeline_determinism(tmp_path):
    t0 = time.perf_counter()
    doc = {
        "potential": {"name": "quadratic", "d": 2, "lambda": 0.5},
        "smoothing": {"mu": 0.1, "n": 4, "p": 1.5},
        "lmc": {"eta": 0.05, "steps": 300, "chains": 32,
                "init": {"kind": "gaussian", "mean": 0.0, "scale": 1.0}, "seed": 777},
        "report": {"resamples": 2},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    blobs = []
    for sub, threads in (("r1", "1"), ("r2", "1"), ("r4", "4")):
        code = main(["sample", "--config", str(cfg_path), "--out",
                     str(tmp_path / sub), "--quiet", "--threads", threads])
        assert code == 0
        blobs.append((tmp_path / sub / "samples.csv").read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    finish("criterion 9: config -> CSV byte-identical across runs and thread counts",
           ok, time.perf_counter() - t0, 60)
