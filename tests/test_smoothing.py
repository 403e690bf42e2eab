import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgglmc import (
    ParameterError,
    PggSpec,
    SmoothingConfig,
    get_potential,
    grad_estimate_from_draws,
    hadamard_weight,
    outside_guard,
    lemma1_gap_bound,
    lemma1_gap_envelope,
    measure_bias_variance,
    regularize,
    sample_pgg,
    smoothed_gradient_reference,
    smoothed_value_mc,
    smoothness_constant_M,
)
from pgglmc import smoothing


def quadratic_target(d):
    """Regularized potential whose total is exactly ||x||^2 / 2."""
    return regularize(get_potential("zero", d), 1.0)


def without_closed_form(pot):
    """The same potential with its closed-form smoothing hidden."""
    return regularize(replace(pot.base, quad_curvature=None), pot.lam)


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

    @pytest.mark.parametrize("p", [1.1, 1.5, 1.9])
    def test_equals_sign_times_power(self, p):
        # copysign(|xi|^(p-1), xi), in place, against the textbook form; zeros
        # of either sign give a zero weight, and NaN stays NaN
        edges = [-4.0, -0.0, 0.0, 0.25, 5e-324, -np.inf, np.inf, np.nan]
        xi = np.concatenate([edges, np.random.default_rng(0).normal(size=64)])
        want = np.sign(xi) * np.abs(xi) ** (p - 1.0)
        assert np.array_equal(hadamard_weight(xi, p), want, equal_nan=True)
        out = np.empty_like(xi)
        assert hadamard_weight(xi, p, out=out) is out
        assert np.array_equal(out, want, equal_nan=True)


class TestSmoothingConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SmoothingConfig(mu=0.0, n=1, p=2.0)
        with pytest.raises(ParameterError):
            SmoothingConfig(mu=0.1, n=0, p=2.0)

    @pytest.mark.parametrize("n", [math.inf, math.nan, 2.5])
    def test_batch_size_must_be_an_integer(self, n):
        # n = inf used to raise OverflowError from int()
        with pytest.raises(ParameterError, match="batch size"):
            SmoothingConfig(mu=0.1, n=n, p=2.0)

    def test_batch_size_past_the_float_range_is_an_integer(self):
        # it used to raise a bare OverflowError from float()
        assert SmoothingConfig(mu=0.1, n=10**400, p=2).n == 10**400

    def test_radius_must_be_finite(self):
        # mu = inf used to be accepted, and run_chain then reported every chain diverged
        with pytest.raises(ParameterError, match="smoothing radius must be finite"):
            SmoothingConfig(mu=math.inf, n=4, p=2)

    @pytest.mark.parametrize("p", [0.5, 2.5, math.nan])
    def test_shape_validated_as_pgg_spec_does(self, p):
        for make in (lambda: SmoothingConfig(mu=0.1, n=1, p=p), lambda: PggSpec(p, 1)):
            with pytest.raises(ParameterError, match=r"p must lie in \[1, 2\]"):
                make()


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

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("layout", ["step_major", "step_major_work", "contiguous",
                                        "one_point", "shared_draws", "chain_innermost"])
    def test_matches_mean_of_summands_bitwise(self, p, layout, d):
        # the in-place kernel against the summand written out and np.mean,
        # on the view run_chain passes (chain axis innermost, with (d, chains)
        # points and a work buffer) and on other layouts and broadcasts
        # (step-major with and without a work buffer among them); at d = 1
        # the draw-axis sum order depends on the memory layout
        pot = regularize(get_potential("l1", d), 0.5)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(6, d))
        xi = sample_pgg(PggSpec(p, d), rng, size=(40, 6)).transpose(1, 0, 2)
        if layout == "contiguous":
            xi = np.ascontiguousarray(xi)
        elif layout == "one_point":
            x = x[0]
        elif layout == "shared_draws":
            xi = xi[0]
        elif layout == "chain_innermost":
            x = np.asfortranarray(x)
            inner = np.empty((40, d, 6)).transpose(2, 0, 1)
            np.copyto(inner, xi)
            xi = inner
        mu = 0.2
        coef = (pot.value(x[..., None, :] + mu * xi) - pot.value(x)[..., None]) / mu
        want = np.mean(coef[..., None] * hadamard_weight(xi, p), axis=-2)
        work = (np.full_like(xi, np.nan) if layout in ("step_major_work", "chain_innermost")
                else None)
        assert np.array_equal(grad_estimate_from_draws(pot, mu, p, x, xi, work=work), want)
        assert work is None or not np.isnan(work).all()

    def test_constant_potential_gives_zero(self):
        flat = SimpleNamespace(value=lambda x: np.full(np.shape(x)[:-1], 3.7))
        xi = np.random.default_rng(2).normal(size=(50, 4))
        g = grad_estimate_from_draws(flat, 0.1, 1.5, np.zeros(4), xi)
        assert np.array_equal(g, np.zeros(4))

    def test_rng_plumbing_and_budget(self):
        # one estimate from n fresh draws costs n + 1 evaluations
        pot = quadratic_target(2)
        cfg = SmoothingConfig(mu=0.2, n=7, p=1.5)
        x = np.array([0.5, 0.5])
        points = []

        def value(y):
            points.append(np.size(y) // 2)
            return pot.value(y)

        counted = SimpleNamespace(value=value)
        xi = sample_pgg(PggSpec(1.5, 2), np.random.default_rng(3), size=cfg.n)
        g = grad_estimate_from_draws(counted, 0.2, 1.5, x, xi)
        assert sum(points) == cfg.n + 1
        again = sample_pgg(PggSpec(1.5, 2), np.random.default_rng(3), size=cfg.n)
        assert np.array_equal(g, grad_estimate_from_draws(pot, 0.2, 1.5, x, again))

    def test_nonfinite_evaluation_reported(self):
        # a non-finite black-box value makes the estimate non-finite, which
        # the step guard reports as a divergence
        bad = SimpleNamespace(value=lambda x: np.where(
            np.sum(np.square(x), axis=-1) > 0.5, np.inf, 0.0))
        cfg = SmoothingConfig(mu=10.0, n=4, p=2.0)
        xi = sample_pgg(PggSpec(2.0, 2), np.random.default_rng(4), size=cfg.n)
        with np.errstate(invalid="ignore"):
            g = grad_estimate_from_draws(bad, cfg.mu, 2.0, np.zeros(2), xi)
        assert not np.isfinite(g).all()
        assert outside_guard(-0.1 * g[None, :]).tolist() == [True]

    def test_dimension_mismatch(self):
        # the estimator checks nothing itself; a point and draws of
        # different dimensions do not broadcast
        pot = quadratic_target(2)
        cfg = SmoothingConfig(mu=0.1, n=1, p=2.0)
        xi = sample_pgg(PggSpec(2.0, 2), np.random.default_rng(0), size=cfg.n)
        with pytest.raises(ValueError):
            grad_estimate_from_draws(pot, cfg.mu, 2.0, np.zeros(3), xi)


class TestSmoothedValue:
    def test_quadratic_origin_p2(self):
        # U_bar_mu(0) = mu^2 d / 2 for the unit quadratic at p = 2
        pot = quadratic_target(1)
        val, se = smoothed_value_mc(pot, 0.5, 2.0, np.zeros(1), 200_000, np.random.default_rng(5))
        assert abs(val - 0.125) <= 4 * se

    def test_quadratic_origin_p1_d2(self):
        # Laplace coordinate variance 2, so E||xi||^2 = 2d and the value is 2
        pot = quadratic_target(2)
        val, se = smoothed_value_mc(pot, 1.0, 1.0, np.zeros(2), 200_000, np.random.default_rng(6))
        assert abs(val - 2.0) <= 4 * se

    def test_degenerate_radius_recovers_value(self):
        pot = regularize(get_potential("l1", 3), 0.5)
        x = np.array([1.0, -2.0, 3.0])
        val, _ = smoothed_value_mc(pot, 1e-12, 1.5, x, 2000, np.random.default_rng(7))
        assert val == pytest.approx(float(pot.value(x)), rel=1e-9)

    def test_sample_count_validated(self):
        # one draw has no standard error
        pot = quadratic_target(1)
        for m in (0, 1):
            with pytest.raises(ParameterError):
                smoothed_value_mc(pot, 0.1, 2.0, np.zeros(1), m, np.random.default_rng(0))

    def test_point_dimension_checked(self):
        pot = quadratic_target(1)
        for x in (np.zeros(3), np.zeros((4, 3)), np.float64(0.0)):
            with pytest.raises(ParameterError):
                smoothed_value_mc(pot, 0.1, 2.0, x, 10, np.random.default_rng(0))

    @pytest.mark.parametrize("name,params", [("quadratic", {}), ("power", {"alpha": 0.5}),
                                             ("l1", {}), ("huber", {"delta": 0.5})])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_batched_points_match_single_calls(self, name, params, p):
        # points sharing one draw block give bitwise each point's own call
        pot = regularize(get_potential(name, 3, **params), 0.5)
        X = np.random.default_rng(30).normal(scale=1.5, size=(5, 3))
        means, ses = smoothed_value_mc(pot, 0.3, p, X, 1000, np.random.default_rng(31))
        assert means.shape == ses.shape == (5,)
        for i, x in enumerate(X):
            mean, se = smoothed_value_mc(pot, 0.3, p, x, 1000, np.random.default_rng(31))
            assert mean == means[i] and se == ses[i]


class TestGradientReference:
    def test_closed_form_quadratic(self):
        pot = quadratic_target(3)
        x = np.array([2.0, -1.0, 0.5])
        rng = np.random.default_rng(8)
        ref, ref_var = smoothed_gradient_reference(pot, 0.3, 1.5, x, 10, rng)
        assert np.array_equal(ref, x)
        assert np.array_equal(ref_var, np.zeros(3))
        assert rng.random() == np.random.default_rng(8).random()  # no draws taken

    def test_mc_agrees_with_closed_form(self):
        pot = without_closed_form(regularize(get_potential("quadratic", 2), 0.5))
        x = np.array([1.0, -0.5])
        mc, mc_var = smoothed_gradient_reference(pot, 0.2, 1.5, x, 400_000,
                                                 np.random.default_rng(9))
        assert np.allclose(mc, 1.5 * x, atol=0.02)
        assert (np.abs(mc - 1.5 * x) <= 4 * np.sqrt(mc_var)).all()

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
        pot = without_closed_form(quadratic_target(1))
        ref, _ = smoothed_gradient_reference(pot, 0.2, 1.2, np.array([3.0]), 100_000,
                                             np.random.default_rng(12))
        assert ref[0] > 2.5

    def test_mc_draw_count_validated(self):
        # m = 0 used to average an empty slice and return NaN; one draw has no
        # variance
        pot = regularize(get_potential("power", 2, alpha=0.5), 0.5)
        for m in (0, 1):
            with pytest.raises(ParameterError):
                smoothed_gradient_reference(pot, 0.2, 1.5, np.zeros(2), m,
                                            np.random.default_rng(0))

    @pytest.mark.parametrize("mu,p", [(0.0, 1.5), (-0.2, 1.5), (0.2, 2.5), (0.2, 0.5)])
    @pytest.mark.parametrize("name", ["quadratic", "power"])
    def test_radius_and_shape_validated(self, name, mu, p):
        # the closed form takes no draws, and still checks (mu, p)
        pot = regularize(get_potential(name, 2), 0.5)
        for reference in (smoothed_value_mc, smoothed_gradient_reference):
            with pytest.raises(ParameterError):
                reference(pot, mu, p, np.zeros(2), 100, np.random.default_rng(0))

    @pytest.mark.parametrize("name", ["quadratic", "power"])
    def test_point_dimension_checked(self, name):
        # a point of the wrong dimension used to broadcast silently
        pot = regularize(get_potential(name, 1), 0.5)
        with pytest.raises(ParameterError):
            smoothed_gradient_reference(pot, 0.2, 1.5, np.zeros(3), 100, np.random.default_rng(0))


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
        cfg = SmoothingConfig(mu=0.1, n=5, p=2.0)
        x = np.array([0.5, -0.3, 0.8, 0.1])
        (rep,) = measure_bias_variance(pot, cfg.mu, cfg.p, x, [cfg.n], trials=4000,
                                       rng=np.random.default_rng(13))
        assert abs(rep.empirical_bias_norm_sq) <= 4 * rep.bias_se
        assert rep.empirical_bias_norm_sq <= rep.bias_bound + 4 * rep.bias_se
        assert rep.empirical_variance <= rep.variance_bound + 4 * rep.variance_se
        assert np.array_equal(rep.reference_gradient, x)
        assert rep.trials == 4000

    def test_bounds_take_the_potential_dimension(self):
        # the law is N_p(0, I_d) at the potential's d = 3: the reference is a
        # 3-vector and the bias bound reads M and d^(2/p) at d = 3 alike
        pot = regularize(get_potential("l1", 3), 0.5)
        cfg = SmoothingConfig(mu=0.2, n=4, p=1.5)
        x = np.array([0.7, -0.4, 0.2])
        (rep,) = measure_bias_variance(pot, cfg.mu, cfg.p, x, [cfg.n], 10,
                                       np.random.default_rng(1))
        assert rep.reference_gradient.shape == (3,)
        M = smoothness_constant_M(pot, cfg.mu, cfg.p)
        assert rep.bias_bound == pytest.approx((M + 0.5) ** 2 * 0.2**2 * 3 ** (2 / 1.5),
                                               rel=1e-12)

    def test_variance_scales_inversely_with_n(self):
        pot = quadratic_target(2)
        x = np.array([1.0, -1.0])
        reps = dict(zip((8, 16), measure_bias_variance(pot, 0.1, 1.5, x, (8, 16), trials=6000,
                                                       rng=np.random.default_rng(14))))
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
        cfg = SmoothingConfig(mu=0.2, n=4, p=1.5)
        x = np.array([0.7, -0.4])
        (rep,) = measure_bias_variance(pot, cfg.mu, cfg.p, x, [cfg.n], trials=2000,
                                       rng=np.random.default_rng(16))
        assert rep.empirical_bias_norm_sq <= rep.bias_bound + 4 * rep.bias_se
        assert rep.empirical_variance <= rep.variance_bound + 4 * rep.variance_se

    def test_trials_validated(self):
        pot = quadratic_target(1)
        with pytest.raises(ParameterError):
            measure_bias_variance(pot, 0.1, 2.0, np.zeros(1), [1], trials=1,
                                  rng=np.random.default_rng(0))

    def test_point_dimension_checked(self):
        pot = quadratic_target(1)
        with pytest.raises(ParameterError):
            measure_bias_variance(pot, 0.1, 2.0, np.zeros(3), [2], trials=10,
                                  rng=np.random.default_rng(0))

    def test_every_batch_size_is_validated_before_any_draw(self):
        pot = regularize(get_potential("power", 2, alpha=0.5), 0.5)
        rng = np.random.default_rng(0)
        with pytest.raises(ParameterError, match="batch size"):
            measure_bias_variance(pot, 0.2, 1.5, np.zeros(2), [4, 0], trials=10, rng=rng)
        assert rng.random() == np.random.default_rng(0).random()


class TestSharedReference:
    pot = regularize(get_potential("power", 3, alpha=0.5), 0.5)
    cfg = SmoothingConfig(mu=0.2, n=4, p=1.5)
    x = np.array([0.7, -0.4, 0.2])
    trials = 300

    def test_reference_variance_enters_the_noise_floor_as_given(self, monkeypatch):
        ref, ref_var = smoothed_gradient_reference(self.pot, self.cfg.mu, self.cfg.p, self.x,
                                                   1000, np.random.default_rng(18))

        def report(variance):
            monkeypatch.setattr(smoothing, "smoothed_gradient_reference",
                                lambda *args: (ref, variance))
            (rep,) = measure_bias_variance(self.pot, self.cfg.mu, self.cfg.p, self.x,
                                           [self.cfg.n], self.trials, np.random.default_rng(17))
            return rep

        shared, wider = report(ref_var), report(ref_var + 0.25)
        assert shared.reference_gradient is ref
        assert wider.empirical_bias_norm_sq == pytest.approx(
            shared.empirical_bias_norm_sq - 0.25 * 3, abs=1e-12)
        assert wider.empirical_variance == shared.empirical_variance

    def test_stream_is_the_reference_then_one_block_per_n(self, monkeypatch):
        real = smoothing.smoothed_gradient_reference
        sizes = []

        def spy(pot, mu, p, x, m, rng):
            sizes.append(m)
            return real(pot, mu, p, x, m, rng)

        monkeypatch.setattr(smoothing, "smoothed_gradient_reference", spy)
        ns = (4, 1, 7)
        rng = np.random.default_rng(19)
        reports = measure_bias_variance(self.pot, self.cfg.mu, self.cfg.p, self.x, ns,
                                        self.trials, rng)
        # one reference, sized from the trials, shared by every n
        assert sizes == [100 * self.trials]
        assert len({id(rep.reference_gradient) for rep in reports}) == 1
        expected = np.random.default_rng(19)
        real(self.pot, self.cfg.mu, self.cfg.p, self.x, 100 * self.trials, expected)
        for n in ns:
            sample_pgg(PggSpec(1.5, 3), expected, size=(self.trials, n))
        assert rng.random() == expected.random()
        # one report per n, in the order of ns: the envelope scales as 1/n
        assert [rep.variance_bound * n for rep, n in zip(reports, ns)] == pytest.approx(
            [reports[0].variance_bound * ns[0]] * len(ns), rel=1e-12)


class TestRowBlocks:
    """Cache-sized row blocks give bitwise the results of one whole-array call."""

    pot = regularize(get_potential("power", 3, alpha=0.5), 0.5)
    cfg = SmoothingConfig(mu=0.2, n=8, p=1.5)
    x = np.array([0.7, -0.4, 0.2])

    @staticmethod
    def rows_per_block(row_bytes):
        return smoothing._BLOCK_BYTES // row_bytes

    def report(self, trials, seed):
        (rep,) = measure_bias_variance(self.pot, self.cfg.mu, self.cfg.p, self.x,
                                       [self.cfg.n], trials, np.random.default_rng(seed))
        return rep

    def reference(self, m, seed):
        return smoothed_gradient_reference(self.pot, self.cfg.mu, self.cfg.p, self.x, m,
                                           np.random.default_rng(seed))

    def test_bias_variance_report_matches_one_call(self, monkeypatch):
        # several full trial blocks and a partial last one, likewise for the
        # 100 * trials reference rows
        trials = 3 * self.rows_per_block(self.cfg.n * 3 * 8) + 101
        assert (100 * trials) % self.rows_per_block(3 * 8) != 0
        blocked = self.report(trials, 21)
        monkeypatch.setattr(smoothing, "_BLOCK_BYTES", 1 << 40)
        whole = self.report(trials, 21)
        for field in whole.__dataclass_fields__:
            assert np.array_equal(getattr(blocked, field), getattr(whole, field)), field

    @pytest.mark.parametrize("d", [1, 3, 16])
    def test_mc_reference_matches_one_call(self, d, monkeypatch):
        pot = regularize(get_potential("power", d, alpha=0.5), 0.5)
        x = np.linspace(-0.8, 0.6, d)
        m = 5 * self.rows_per_block(d * 8) + 13

        def reference():
            return smoothed_gradient_reference(pot, self.cfg.mu, self.cfg.p, x, m,
                                               np.random.default_rng(22))

        blocked = reference()
        monkeypatch.setattr(smoothing, "_BLOCK_BYTES", 1 << 40)
        whole = reference()
        for got, want in zip(blocked, whole):
            assert np.array_equal(got, want)

    def test_one_row_blocks_match_one_call(self, monkeypatch):
        # a block holds at least one row, however small the budget; the
        # reference then carries its sums across every row
        trials = 7
        whole = self.report(trials, 24), self.reference(301, 25)
        monkeypatch.setattr(smoothing, "_BLOCK_BYTES", 1)
        one_row = self.report(trials, 24), self.reference(301, 25)
        for field in whole[0].__dataclass_fields__:
            assert np.array_equal(getattr(one_row[0], field), getattr(whole[0], field)), field
        for got, want in zip(one_row[1], whole[1]):
            assert np.array_equal(got, want)


class TestReferenceReduction:
    """The reference is bitwise numpy's mean and var over its coordinate-major (d, m) summands."""

    mu = 0.3

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("d", [1, 2, 4, 16])
    @pytest.mark.parametrize("blocks", [0.5, 2.3])
    def test_matches_numpy_on_coordinate_major_summands(self, d, p, blocks):
        # m below one block, or two full blocks and a partial last one
        pot = regularize(get_potential("power", d, alpha=0.5), 0.5)
        x = np.linspace(-0.8, 0.6, d)
        m = int(blocks * (smoothing._BLOCK_BYTES // (d * 8)))
        ref, ref_var = smoothed_gradient_reference(pot, self.mu, p, x, m,
                                                   np.random.default_rng(26))
        # the numbers of an (m, d) draw, in the same order, fill a (d, m) block
        xi = sample_pgg(PggSpec(p, d), np.random.default_rng(26), size=m).reshape(d, m)
        summands = ((pot.value(x + self.mu * xi.T) - pot.value(x)) / self.mu) \
            * hadamard_weight(xi, p)
        assert summands.shape == (d, m) and summands.flags.c_contiguous
        assert np.array_equal(ref, summands.mean(axis=1))
        assert np.array_equal(ref_var, summands.var(axis=1, ddof=1) / m)


class TestHarnessMemory:
    """The Lemma-2 harness holds one draw array at a time, and little beside it."""

    pot = regularize(get_potential("power", 4, alpha=0.5), 0.5)
    x = np.array([0.7, -0.4, 0.2, 0.1])

    @staticmethod
    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_reference_peaks_near_its_draws(self):
        m, rng = 200_000, np.random.default_rng(27)
        peak = self.peak(lambda: smoothed_gradient_reference(self.pot, 0.2, 2.0, self.x, m, rng))
        assert peak <= 1.25 * m * 4 * 8

    def test_bias_variance_peaks_near_its_largest_draw_array(self):
        # the reference's 100 * trials draws and the largest n's block are
        # never held together, and every n reuses that block's buffer
        trials, ns, rng = 2_000, (1, 100, 50), np.random.default_rng(28)
        peak = self.peak(lambda: measure_bias_variance(self.pot, 0.2, 2.0, self.x, ns, trials,
                                                       rng))
        assert peak <= 1.25 * max(100 * trials, trials * max(ns)) * 4 * 8


class TestChainInnermostHarness:
    """The harness evaluates its draw blocks trial axis innermost, as run_chain holds its chains."""

    mu = 0.2

    def estimates(self, monkeypatch, pot, p, x, n, trials):
        # measure_bias_variance's (trials, n, d) draw block, caught as it is
        # drawn, and its (trials, d) estimates, caught block by block
        draws, blocks = [], []
        real_draw, real_estimate = smoothing.sample_pgg, smoothing.grad_estimate_from_draws

        def draw(*args, **kwargs):
            out = real_draw(*args, **kwargs)
            draws.append(out.copy())
            return out

        def estimate(*args, **kwargs):
            blocks.append(real_estimate(*args, **kwargs))
            return blocks[-1]

        monkeypatch.setattr(smoothing, "sample_pgg", draw)
        monkeypatch.setattr(smoothing, "grad_estimate_from_draws", estimate)
        measure_bias_variance(pot, self.mu, p, x, [n], trials, np.random.default_rng(23))
        return draws[-1], np.concatenate(blocks)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("name,params", [("power", {"alpha": 0.5}), ("l1", {}),
                                             ("huber", {"delta": 0.5})])
    @pytest.mark.parametrize("d", [1, 2, 3, 16])
    def test_estimates_are_the_estimator_on_the_draw_block(self, d, name, params, p,
                                                           monkeypatch):
        pot = regularize(get_potential(name, d, **params), 0.5)
        x = np.linspace(-0.8, 0.6, d)
        n = 9  # at n >= 8 numpy sums a contiguous draw axis pairwise
        # two full trial blocks and a partial last one
        trials = 2 * (smoothing._BLOCK_BYTES // (n * d * 8)) + 7
        xi, g = self.estimates(monkeypatch, pot, p, x, n, trials)
        assert xi.shape == (trials, n, d) and g.shape == (trials, d)
        # the block's numbers, in the order drawn, fill an (n, d, trials) block
        view = np.moveaxis(xi.reshape(n, d, trials), -1, 0)
        assert np.array_equal(g, grad_estimate_from_draws(pot, self.mu, p, x, view))
        if d >= 2:
            return
        # at d = 1 the draws are added in order, as run_chain adds them
        summands = ((pot.value(x + self.mu * view) - pot.value(x))[..., None] / self.mu
                    * hadamard_weight(view, p))
        in_order = summands[:, 0].copy()
        for j in range(1, n):
            in_order += summands[:, j]
        assert np.array_equal(g, in_order / n)
        # where a C-order copy of the view sums them pairwise
        on_c_block = grad_estimate_from_draws(pot, self.mu, p, x, np.ascontiguousarray(view))
        assert not np.array_equal(g, on_c_block)
        assert np.abs(g - on_c_block).max() <= 2e-15
