import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgglmc import (
    EvaluationError,
    ParameterError,
    PggSpec,
    SmoothingConfig,
    get_potential,
    grad_estimate,
    grad_estimate_from_draws,
    hadamard_weight,
    lemma1_gap_bound,
    lemma1_gap_envelope,
    measure_bias_variance,
    regularize,
    sample_pgg,
    smoothed_gradient_reference,
    smoothed_value_mc,
)
from pgglmc.smoothing import _mc_reference


def quadratic_target(d):
    """Regularized potential whose total is exactly ||x||^2 / 2."""
    return regularize(get_potential("zero", d), 1.0)


class TestHadamardWeight:
    def test_p2_is_identity(self):
        xi = np.random.default_rng(0).normal(size=(5, 3))
        assert hadamard_weight(xi, 2.0) is xi

    def test_p1_is_sign(self):
        xi = np.array([-2.0, 0.0, 3.0])
        assert np.array_equal(hadamard_weight(xi, 1.0), [-1.0, 0.0, 1.0])

    def test_fractional_p(self):
        xi = np.array([-4.0, 0.0, 0.25])
        w = hadamard_weight(xi, 1.5)
        assert w == pytest.approx([-2.0, 0.0, 0.5])

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_finite_at_zero(self, p):
        assert hadamard_weight(np.zeros(3), p) == pytest.approx(np.zeros(3))


class TestSmoothingConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SmoothingConfig(mu=0.0, n=1, pgg=PggSpec(2.0, 1))
        with pytest.raises(ParameterError):
            SmoothingConfig(mu=0.1, n=0, pgg=PggSpec(2.0, 1))


class TestGradEstimate:
    def test_unbiased_on_quadratic(self):
        # E[g(x)] = x for the pure quadratic, any p and mu: the <x, xi> part
        # contributes x_j E|xi_j|^p = x_j and the even part dies by symmetry
        pot = quadratic_target(3)
        x = np.array([1.0, -2.0, 0.5])
        rng = np.random.default_rng(1)
        for p in (1.0, 1.5, 2.0):
            spec = PggSpec(p, 3)
            xi = sample_pgg(spec, rng, size=(150_000, 1))
            g = grad_estimate_from_draws(pot, 0.3, p, x, xi)
            se = g.std(axis=0, ddof=1) / math.sqrt(g.shape[0])
            assert (np.abs(g.mean(axis=0) - x) <= 4 * se).all()

    def test_single_draw_matches_definition_p2(self):
        pot = regularize(get_potential("quadratic", 2), 0.5)
        x = np.array([0.3, -1.1])
        xi = np.array([[0.7, -0.2]])
        mu = 0.25
        manual = (pot.value(x + mu * xi[0]) - pot.value(x)) / mu * xi[0]
        assert np.array_equal(grad_estimate_from_draws(pot, mu, 2.0, x, xi), manual)

    def test_constant_potential_gives_zero(self):
        flat = SimpleNamespace(value=lambda x: np.full(np.shape(x)[:-1], 3.7))
        xi = np.random.default_rng(2).normal(size=(50, 4))
        g = grad_estimate_from_draws(flat, 0.1, 1.5, np.zeros(4), xi)
        assert np.array_equal(g, np.zeros(4))

    def test_rng_plumbing_and_budget(self):
        pot = quadratic_target(2)
        cfg = SmoothingConfig(mu=0.2, n=7, pgg=PggSpec(1.5, 2))
        x = np.array([0.5, 0.5])
        est = grad_estimate(pot, cfg, x, np.random.default_rng(3))
        assert est.draws_used == 7
        assert est.function_evals == 8
        xi = sample_pgg(cfg.pgg, np.random.default_rng(3), size=7)
        assert np.array_equal(est.value, grad_estimate_from_draws(pot, 0.2, 1.5, x, xi))

    def test_nonfinite_evaluation_reported(self):
        bad = SimpleNamespace(value=lambda x: np.where(
            np.sum(np.square(x), axis=-1) > 0.5, np.inf, 0.0))
        cfg = SmoothingConfig(mu=10.0, n=4, pgg=PggSpec(2.0, 2))
        with pytest.raises(EvaluationError) as err:
            grad_estimate(bad, cfg, np.zeros(2), np.random.default_rng(4))
        assert err.value.point is not None

    def test_dimension_mismatch(self):
        pot = quadratic_target(2)
        cfg = SmoothingConfig(mu=0.1, n=1, pgg=PggSpec(2.0, 2))
        with pytest.raises(ParameterError):
            grad_estimate(pot, cfg, np.zeros(3), np.random.default_rng(0))


class TestSmoothedValue:
    def test_quadratic_origin_p2(self):
        # U_bar_mu(0) = mu^2 d / 2 for the unit quadratic at p = 2
        pot = quadratic_target(1)
        cfg = SmoothingConfig(mu=0.5, n=1, pgg=PggSpec(2.0, 1))
        val, se = smoothed_value_mc(pot, cfg, np.zeros(1), 200_000,
                                    np.random.default_rng(5), return_se=True)
        assert abs(val - 0.125) <= 4 * se

    def test_quadratic_origin_p1_d2(self):
        # Laplace coordinate variance 2, so E||xi||^2 = 2d and the value is 2
        pot = quadratic_target(2)
        cfg = SmoothingConfig(mu=1.0, n=1, pgg=PggSpec(1.0, 2))
        val, se = smoothed_value_mc(pot, cfg, np.zeros(2), 200_000,
                                    np.random.default_rng(6), return_se=True)
        assert abs(val - 2.0) <= 4 * se
        assert val == pytest.approx(pot.smoothed_value(np.zeros(2), 1.0, cfg.pgg), abs=4 * se)

    def test_degenerate_radius_recovers_value(self):
        pot = regularize(get_potential("l1", 3), 0.5)
        cfg = SmoothingConfig(mu=1e-12, n=1, pgg=PggSpec(1.5, 3))
        x = np.array([1.0, -2.0, 3.0])
        val = smoothed_value_mc(pot, cfg, x, 2000, np.random.default_rng(7))
        assert val == pytest.approx(float(pot.value(x)), rel=1e-9)

    def test_sample_count_validated(self):
        pot = quadratic_target(1)
        cfg = SmoothingConfig(mu=0.1, n=1, pgg=PggSpec(2.0, 1))
        with pytest.raises(ParameterError):
            smoothed_value_mc(pot, cfg, np.zeros(1), 0, np.random.default_rng(0))


class TestGradientReference:
    def test_closed_form_quadratic(self):
        pot = quadratic_target(3)
        cfg = SmoothingConfig(mu=0.3, n=1, pgg=PggSpec(1.5, 3))
        x = np.array([2.0, -1.0, 0.5])
        ref = smoothed_gradient_reference(pot, cfg, x, 10, np.random.default_rng(8))
        assert np.array_equal(ref, x)

    def test_mc_agrees_with_closed_form(self):
        pot = regularize(get_potential("quadratic", 2), 0.5)
        cfg = SmoothingConfig(mu=0.2, n=1, pgg=PggSpec(1.5, 2))
        x = np.array([1.0, -0.5])
        mc = smoothed_gradient_reference(pot, cfg, x, 400_000, np.random.default_rng(9),
                                         use_closed_form=False)
        assert np.allclose(mc, 1.5 * x, atol=0.02)

    def test_central_difference_oracle(self):
        # non-quadratic potential: the gradient-identity reference must match
        # central differences of the smoothed value on common random draws
        base = get_potential("power", 2, alpha=0.5)
        pot = regularize(base, 0.5)
        mu, p = 0.4, 1.5
        spec = PggSpec(p, 2)
        x = np.array([0.8, -0.6])
        m = 400_000
        xi = sample_pgg(spec, np.random.default_rng(10), size=m)

        h = 1e-4 * (1 + np.linalg.norm(x))
        cd = np.empty(2)
        cd_se = np.empty(2)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            diff = (pot.value(x + e + mu * xi) - pot.value(x - e + mu * xi)) / (2 * h)
            cd[j] = diff.mean()
            cd_se[j] = diff.std(ddof=1) / math.sqrt(m)

        ref_draws = sample_pgg(spec, np.random.default_rng(11), size=m)
        ref = grad_estimate_from_draws(pot, mu, p, x, ref_draws[:, None, :]).mean(axis=0)
        per = ((pot.value(x + mu * ref_draws) - pot.value(x)) / mu)[:, None] \
            * hadamard_weight(ref_draws, p)
        ref_se = per.std(axis=0, ddof=1) / math.sqrt(m)

        assert (np.abs(cd - ref) <= 4 * (cd_se + ref_se) + 1e-6).all()

    def test_sign_convention_positive(self):
        # the plus-sign reading: for the quadratic the reference points along
        # +x, not -x
        pot = quadratic_target(1)
        cfg = SmoothingConfig(mu=0.2, n=1, pgg=PggSpec(1.2, 1))
        ref = smoothed_gradient_reference(pot, cfg, np.array([3.0]), 100_000,
                                          np.random.default_rng(12), use_closed_form=False)
        assert ref[0] > 2.5

    def test_mc_draw_count_validated(self):
        # m = 0 used to average an empty slice and return NaN
        pot = regularize(get_potential("power", 2, alpha=0.5), 0.5)
        cfg = SmoothingConfig(mu=0.2, n=1, pgg=PggSpec(1.5, 2))
        with pytest.raises(ParameterError):
            smoothed_gradient_reference(pot, cfg, np.zeros(2), 0, np.random.default_rng(0))


class TestLemma1Bounds:
    @pytest.mark.parametrize("L,alpha,p,mu,d,expected", [
        (1.0, 1.0, 2.0, 0.5, 4, 0.5),
        (2.0, 0.0, 1.0, 0.3, 5, 3.0),
    ])
    def test_frozen_gap_bounds(self, L, alpha, p, mu, d, expected):
        pot = get_potential("zero", d, L=L, alpha=alpha)
        assert lemma1_gap_bound(pot, mu, p) == pytest.approx(expected, rel=1e-12)

    def test_vanishes_with_mu(self):
        pot = get_potential("power", 3, alpha=0.5)
        assert lemma1_gap_bound(pot, 1e-9, 1.5) < 1e-12

    def test_accepts_regularized(self):
        base = get_potential("quadratic", 2)
        assert lemma1_gap_bound(regularize(base, 1.0), 0.1, 2.0) == \
            lemma1_gap_bound(base, 0.1, 2.0)

    @settings(max_examples=200, deadline=None)
    @given(L=st.floats(0.1, 10), alpha=st.floats(0, 1), p=st.floats(1, 2),
           mu=st.floats(0.01, 2), d=st.integers(1, 100))
    def test_envelope_dominates_simplified(self, L, alpha, p, mu, d):
        # 2d(d+p)/p > d^2 for every d when p <= 2, so the safe envelope is
        # always at least the simplified large-d form
        pot = get_potential("zero", d, L=L, alpha=alpha)
        assert lemma1_gap_envelope(pot, mu, p) >= lemma1_gap_bound(pot, mu, p) * (1 - 1e-12)

    def test_envelope_covers_quadratic_gap_at_small_d(self):
        # p = 1, d = 1 quadratic: the true gap mu^2 * d exceeds the simplified
        # bound mu^2 d^2 / 2; the envelope must still cover it
        pot = get_potential("quadratic", 1)
        mu = 0.5
        true_gap = 0.5 * mu**2 * 2.0  # (1/2) mu^2 E||xi||^2, Laplace variance 2
        assert lemma1_gap_bound(pot, mu, 1.0) < true_gap
        assert lemma1_gap_envelope(pot, mu, 1.0) >= true_gap


class TestBiasVariance:
    def test_quadratic_unbiased_and_bounded(self):
        pot = quadratic_target(4)
        cfg = SmoothingConfig(mu=0.1, n=5, pgg=PggSpec(2.0, 4))
        x = np.array([0.5, -0.3, 0.8, 0.1])
        rep = measure_bias_variance(pot, cfg, x, trials=4000, rng=np.random.default_rng(13))
        assert abs(rep.empirical_bias_norm_sq) <= 4 * rep.bias_se
        assert rep.empirical_bias_norm_sq <= rep.bias_bound + 4 * rep.bias_se
        assert rep.empirical_variance <= rep.variance_bound + 4 * rep.variance_se
        assert np.array_equal(rep.reference_gradient, x)
        assert rep.trials == 4000

    def test_variance_scales_inversely_with_n(self):
        pot = quadratic_target(2)
        x = np.array([1.0, -1.0])
        rng = np.random.default_rng(14)
        reps = {}
        for n in (8, 16):
            cfg = SmoothingConfig(mu=0.1, n=n, pgg=PggSpec(1.5, 2))
            reps[n] = measure_bias_variance(pot, cfg, x, trials=6000, rng=rng)
        ratio = reps[8].empirical_variance / reps[16].empirical_variance
        assert abs(ratio / 2.0 - 1.0) <= 0.2

    def test_consistency_slope_half(self):
        # log-error vs log-n slope ~ -1/2 as n grows with mu fixed
        pot = quadratic_target(3)
        x = np.array([1.0, 0.5, -0.5])
        rng = np.random.default_rng(15)
        spec = PggSpec(1.5, 3)
        ns = [10, 100, 1000, 10_000]
        errs = []
        for n in ns:
            xi = sample_pgg(spec, rng, size=(64, n))
            g = grad_estimate_from_draws(pot, 0.2, 1.5, x, xi)
            errs.append(float(np.mean(np.linalg.norm(g - x, axis=1))))
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)

    def test_nonquadratic_uses_mc_reference(self):
        pot = regularize(get_potential("power", 2, alpha=0.5), 0.5)
        cfg = SmoothingConfig(mu=0.2, n=4, pgg=PggSpec(1.5, 2))
        rep = measure_bias_variance(pot, cfg, np.array([0.7, -0.4]), trials=2000,
                                    rng=np.random.default_rng(16), reference_draws=100_000)
        assert rep.empirical_bias_norm_sq <= rep.bias_bound + 4 * rep.bias_se
        assert rep.empirical_variance <= rep.variance_bound + 4 * rep.variance_se

    def test_trials_validated(self):
        pot = quadratic_target(1)
        cfg = SmoothingConfig(mu=0.1, n=1, pgg=PggSpec(2.0, 1))
        with pytest.raises(ParameterError):
            measure_bias_variance(pot, cfg, np.zeros(1), trials=1,
                                  rng=np.random.default_rng(0))

    @pytest.mark.parametrize("m", [0, 1])
    def test_reference_draws_validated(self, m):
        # m = 1 used to give a NaN bias and SE (ddof=1 on one draw), m = 0 a
        # NaN reference gradient
        pot = regularize(get_potential("power", 2, alpha=0.5), 0.5)
        cfg = SmoothingConfig(mu=0.2, n=4, pgg=PggSpec(1.5, 2))
        with pytest.raises(ParameterError):
            measure_bias_variance(pot, cfg, np.zeros(2), trials=10,
                                  rng=np.random.default_rng(0), reference_draws=m)


class TestSharedReference:
    pot = regularize(get_potential("power", 3, alpha=0.5), 0.5)
    cfg = SmoothingConfig(mu=0.2, n=4, pgg=PggSpec(1.5, 3))
    x = np.array([0.7, -0.4, 0.2])
    trials = 300

    def test_supplied_reference_matches_inline_bitwise(self):
        inline = measure_bias_variance(self.pot, self.cfg, self.x, self.trials,
                                       np.random.default_rng(17))
        # the inline path draws its reference right after the trials block
        rng = np.random.default_rng(17)
        sample_pgg(self.cfg.pgg, rng, size=(self.trials, self.cfg.n))
        reference = _mc_reference(self.pot, self.cfg, self.x, 100 * self.trials, rng)
        shared = measure_bias_variance(self.pot, self.cfg, self.x, self.trials,
                                       np.random.default_rng(17), reference=reference)
        assert shared.reference_gradient is reference[0]
        for field in inline.__dataclass_fields__:
            assert np.array_equal(getattr(shared, field), getattr(inline, field)), field

    def test_supplied_reference_draws_only_the_trials_block(self):
        reference = _mc_reference(self.pot, self.cfg, self.x, 1000, np.random.default_rng(18))
        rng = np.random.default_rng(19)
        measure_bias_variance(self.pot, self.cfg, self.x, self.trials, rng,
                              reference=reference)
        expected = np.random.default_rng(19)
        sample_pgg(self.cfg.pgg, expected, size=(self.trials, self.cfg.n))
        assert rng.random() == expected.random()
