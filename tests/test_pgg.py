import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc, gammaln
from scipy.stats import kstest

from pgglmc import (
    PggSpec,
    ParameterError,
    hadamard_weight,
    kappa,
    log_density,
    pgg_norm_moment,
    pgg_sq_norm_moment_bound,
    sample_pgg,
)
from pgglmc import pgg


def coord_abs_moment(p, n):
    """Quadrature oracle for E|x|^n under the 1-D density ~ exp(-|x|^p / p)."""
    num = quad(lambda t: t**n * math.exp(-(t**p) / p), 0, 80)[0]
    den = quad(lambda t: math.exp(-(t**p) / p), 0, 80)[0]
    return num / den


def rejection_reference(p, rng, total, rnd):
    """The documented 1 < p < 2 recipe, written out round by round.

    Proposals E = -log(1 - U1), A = -log(1 - U2); accepted iff A >= t(E),
    t(E) = E^p / p - E + c with c = 1 - 1/p, evaluated as
    E^p (1/p) - E - A <= -c; positive iff A - t(E) >= ln 2.
    """
    c = 1.0 - 1.0 / p
    acc = math.exp(gammaln(1.0 / p) - c * math.log(p) - c)
    draws = []
    while len(draws) < total:
        m = min(rnd, total - len(draws))
        k = int(m / acc + 2.0 * math.sqrt(m)) + 8
        e = -np.log(1.0 - rng.random(k))
        a = -np.log(1.0 - rng.random(k))
        w = e**p * (1.0 / p) - e - a
        x = np.copysign(e, -(c + math.log(2.0)) - w)
        draws.extend(x[w <= -c][:m])
    return np.array(draws)


def kappa_quadrature_1d(p):
    return 2.0 * quad(lambda t: math.exp(-(t**p) / p), 0, 80)[0]


class TestSpecValidation:
    @pytest.mark.parametrize("p", [0.5, 0.99, 2.01, 5.0])
    def test_p_outside_range_rejected(self, p):
        with pytest.raises(ParameterError):
            PggSpec(p=p, d=1)

    @pytest.mark.parametrize("d", [0, -1, 2.5, math.inf, math.nan])
    def test_bad_dimension_rejected(self, d):
        # d = nan used to raise a bare ValueError from int()
        with pytest.raises(ParameterError):
            PggSpec(p=2.0, d=d)


class TestKappa:
    # Frozen values derived from the 1-D quadrature oracle below.
    @pytest.mark.parametrize("p,expected", [
        (2.0, 2.5066282746310002),   # sqrt(2 pi)
        (1.0, 2.0),                  # integral of exp(-|x|)
    ])
    def test_frozen_1d_values(self, p, expected):
        assert kappa(PggSpec(p=p, d=1)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 2.0])
    def test_matches_quadrature_1d(self, p):
        assert kappa(PggSpec(p=p, d=1)) == pytest.approx(kappa_quadrature_1d(p), rel=1e-9)

    def test_gaussian_d4(self):
        assert kappa(PggSpec(p=2.0, d=4)) == pytest.approx((2 * math.pi) ** 2, rel=1e-12)

    def test_product_structure(self):
        # coordinates are independent, so kappa(d) = kappa(1)^d
        for p in (1.0, 1.5, 2.0):
            k1 = kappa(PggSpec(p=p, d=1))
            assert kappa(PggSpec(p=p, d=7)) == pytest.approx(k1**7, rel=1e-10)

    def test_large_dimension_finite(self):
        spec = PggSpec(p=1.5, d=10_000)
        import pgglmc
        assert math.isfinite(pgglmc.log_kappa(spec))


class TestLogDensity:
    def test_gaussian_origin(self):
        assert log_density(PggSpec(2.0, 1), [0.0]) == pytest.approx(
            -0.5 * math.log(2 * math.pi), rel=1e-12)

    def test_laplace_origin(self):
        assert log_density(PggSpec(1.0, 1), [0.0]) == pytest.approx(-math.log(2.0), rel=1e-12)

    def test_trivariate_gaussian(self):
        val = log_density(PggSpec(2.0, 3), [1.0, 1.0, 1.0])
        assert val == pytest.approx(-1.5 - 1.5 * math.log(2 * math.pi), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            log_density(PggSpec(2.0, 3), [0.0, 0.0])

    def test_batched_points(self):
        spec = PggSpec(1.5, 2)
        pts = np.zeros((4, 5, 2))
        out = log_density(spec, pts)
        assert out.shape == (4, 5)
        assert np.allclose(out, log_density(spec, [0.0, 0.0]))

    @pytest.mark.parametrize("p,d", [(1.0, 1), (1.5, 1), (2.0, 1), (1.5, 2)])
    def test_normalization_by_quadrature(self, p, d):
        spec = PggSpec(p, d)
        if d == 1:
            total = quad(lambda t: math.exp(log_density(spec, [t])), -40, 40, limit=200)[0]
        else:
            from scipy.integrate import dblquad
            total = dblquad(lambda y, x: math.exp(log_density(spec, [x, y])),
                            -30, 30, -30, 30)[0]
        assert total == pytest.approx(1.0, abs=1e-6)


class TestSampling:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        spec = PggSpec(1.5, 3)
        assert sample_pgg(spec, rng).shape == (3,)
        assert sample_pgg(spec, rng, size=10).shape == (10, 3)
        assert sample_pgg(spec, rng, size=(4, 5)).shape == (4, 5, 3)

    def test_deterministic_given_seed(self):
        spec = PggSpec(1.2, 2)
        a = sample_pgg(spec, np.random.default_rng(42), size=8)
        b = sample_pgg(spec, np.random.default_rng(42), size=8)
        assert np.array_equal(a, b)

    def test_gamma_transform_structure(self):
        # 1 < p < 2: Laplace-envelope rejection in rounds of at most _ROUND
        # outputs; each round draws a block of k U1 and then a block of k U2,
        # and keeps its first m accepted proposals in order.  A round size of
        # 7 makes the 15 draws below take at least three rounds.
        spec = PggSpec(1.5, 3)
        for rnd in (7, 16_384):
            with patch.object(pgg, "_ROUND", rnd):
                got = sample_pgg(spec, np.random.default_rng(7), size=5)
            want = rejection_reference(1.5, np.random.default_rng(7), 15, rnd)
            assert np.array_equal(got.ravel(), want)

    def test_laplace_recipe_structure(self):
        # p = 1: copysign(-log(1 - |V|), V) with V = 2U - (1 - 2^-53) from one
        # random block, whatever the round size
        rng = np.random.default_rng(7)
        v = 2.0 * rng.random((5, 2)) - (1.0 - 2.0**-53)
        want = np.copysign(-np.log(1.0 - np.abs(v)), v)
        for rnd in (3, 16_384):
            with patch.object(pgg, "_ROUND", rnd):
                got = sample_pgg(PggSpec(1.0, 2), np.random.default_rng(7), size=5)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("p", [1.0, 1.01, 1.5, 1.99])
    def test_edge_uniforms_give_finite_draws(self, p):
        # numpy's uniforms run from 0 to 1 - 2^-53.  The stub's blocks are
        # 1 - 2^-53 but for a 0 in front, except that the U2 block of a
        # rejection round (every second call) is all 1 - 2^-53.
        top = 1.0 - 2.0**-53

        class EdgeUniforms:
            calls = 0

            def random(self, out):
                if self.calls > 50:
                    raise RuntimeError("no round filled the output")
                out[...] = top
                if p == 1.0 or self.calls % 2 == 0:
                    out.reshape(-1)[0] = 0.0
                self.calls += 1
                return out

        rng = EdgeUniforms()
        x = sample_pgg(PggSpec(p, 2), rng, size=3).ravel()
        assert np.isfinite(x).all()
        if p == 1.0:
            # the two edges give draws of opposite sign and magnitude 53 ln 2
            assert x[0] == -x[1] < 0
            assert x[1] == pytest.approx(53 * math.log(2.0), rel=1e-15)
        elif p == 1.01:
            # E = 53 ln 2 is accepted there
            assert x.max() == pytest.approx(53 * math.log(2.0), rel=1e-15)
        else:
            # E = 53 ln 2 is rejected there, so each round keeps one E = 0
            # proposal: six short rounds of two blocks each
            assert rng.calls == 12 and not x.any()

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_scratch_is_bounded(self, p):
        # the draws work in bounded rounds, so filling an 8 MB output takes a
        # fixed amount of scratch, not a full-size temporary
        buf = np.empty((200_000, 5))
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            sample_pgg(PggSpec(p, 5), rng, size=200_000, out=buf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("size", [None, 4, (3, 5)])
    def test_out_is_filled_bitwise(self, p, size):
        spec = PggSpec(p, 3)
        ref_rng = np.random.default_rng(11)
        want = sample_pgg(spec, ref_rng, size=size)
        buf = np.full(want.shape, np.nan)
        rng = np.random.default_rng(11)
        got = sample_pgg(spec, rng, size=size, out=buf)
        assert got is buf and np.array_equal(buf, want)
        # the generator is left where the allocating call leaves it
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("out", [
        np.empty((4, 2)), np.empty((4, 3), dtype=np.float32), np.empty((3, 4)).T,
        np.empty((4, 6))[:, ::2], [[0.0] * 3] * 4,
    ], ids=["shape", "dtype", "fortran", "strided", "list"])
    def test_bad_out_rejected(self, out):
        with pytest.raises(ParameterError, match="out"):
            sample_pgg(PggSpec(1.5, 3), np.random.default_rng(0), size=4, out=out)

    def test_gaussian_recipe_structure(self):
        # p = 2: one standard_normal block
        got = sample_pgg(PggSpec(2.0, 2), np.random.default_rng(7), size=5)
        assert np.array_equal(got, np.random.default_rng(7).standard_normal((5, 2)))

    @pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 1.75, 2.0])
    def test_law_matches_exact_cdf_ks(self, p):
        # exact per-coordinate CDF of the density ~ exp(-|x|^p / p):
        # 1/2 + 1/2 sign(x) P(1/p, |x|^p / p), P the regularized lower gamma
        def cdf(x):
            return 0.5 + 0.5 * np.sign(x) * gammainc(1.0 / p, np.abs(x) ** p / p)

        x = sample_pgg(PggSpec(p, 3), np.random.default_rng(31), size=200_000)
        for j in range(3):
            assert kstest(x[:, j], cdf).pvalue > 1e-3

    def test_gaussian_case_mean_and_variance(self):
        rng = np.random.default_rng(1)
        x = sample_pgg(PggSpec(2.0, 1), rng, size=400_000)[:, 0]
        n = x.size
        assert abs(x.mean()) <= 4 * x.std(ddof=1) / math.sqrt(n)
        var_se = x.var(ddof=1) * math.sqrt(2.0 / (n - 1))
        assert abs(x.var(ddof=1) - 1.0) <= 4 * var_se

    def test_laplace_abs_mean(self):
        # |x| ~ Exponential(1) under the p = 1 density; closed-form mean 1
        rng = np.random.default_rng(2)
        x = np.abs(sample_pgg(PggSpec(1.0, 1), rng, size=1_000_000)[:, 0])
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - 1.0) <= 3 * se

    def test_p15_d4_pnorm_moment(self):
        # E||xi||_p^1.5 = 4 by the Gamma-ratio formula at p = 1.5, d = 4
        spec = PggSpec(1.5, 4)
        assert pgg_norm_moment(spec, 1.5) == pytest.approx(4.0, rel=1e-12)
        rng = np.random.default_rng(3)
        s = np.sum(np.abs(sample_pgg(spec, rng, size=400_000)) ** 1.5, axis=1)
        se = s.std(ddof=1) / math.sqrt(s.size)
        assert abs(s.mean() - 4.0) <= 4 * se

    def test_gaussian_reduction_ks(self):
        # p = 2 sampling path is indistinguishable from a standard Gaussian
        # per coordinate
        rng = np.random.default_rng(4)
        x = sample_pgg(PggSpec(2.0, 2), rng, size=120_000)
        for j in range(2):
            assert kstest(x[:, j], "norm").pvalue > 1e-3

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for p in (1.0, 1.5, 2.0):
            x = sample_pgg(PggSpec(p, 3), rng, size=300_000)
            for arr in (x, hadamard_weight(x, p)):
                means = arr.mean(axis=0)
                ses = arr.std(axis=0, ddof=1) / math.sqrt(arr.shape[0])
                assert (np.abs(means) <= 4 * ses).all()


class TestMoments:
    @pytest.mark.parametrize("p,d,n,expected", [
        (2.0, 2, 2.0, 2.0),     # E||xi||_2^2 = d
        (2.0, 2, 4.0, 8.0),     # chi-squared second moment d(d+2)
        (1.0, 3, 1.0, 3.0),     # sum of 3 Exponential(1) coordinates
    ])
    def test_frozen_values(self, p, d, n, expected):
        assert pgg_norm_moment(PggSpec(p, d), n) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.3, 1.7, 2.0])
    @pytest.mark.parametrize("n", [0.7, 1.0, 2.0, 3.5])
    def test_matches_quadrature_at_d1(self, p, n):
        # at d = 1 the p-norm is |x|, so the coordinate quadrature is an oracle
        assert pgg_norm_moment(PggSpec(p, 1), n) == pytest.approx(
            coord_abs_moment(p, n), rel=1e-8)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("d", [1, 3, 5, 17])
    def test_pth_moment_is_dimension(self, p, d):
        assert pgg_norm_moment(PggSpec(p, d), p) == pytest.approx(float(d), rel=1e-12)

    def test_invalid_order(self):
        with pytest.raises(ParameterError):
            pgg_norm_moment(PggSpec(2.0, 1), 0.0)
        with pytest.raises(ParameterError):
            pgg_norm_moment(PggSpec(2.0, 1), -1.0)

    @settings(max_examples=200, deadline=None)
    @given(p=st.floats(1.0, 2.0), d=st.integers(1, 200), n=st.floats(0.25, 8.0))
    def test_lemma4_sandwich(self, p, d, n):
        m = pgg_norm_moment(PggSpec(p, d), n)
        assert m <= (d + n / 2.0) ** (n / p) * (1 + 1e-12)
        if d >= 2 or n >= p:
            assert m >= d ** math.floor(n / p) * (1 - 1e-12)

    def test_lower_bound_counterexample_at_d1(self):
        # The claimed lower bound d^floor(n/p) fails for n < p at d = 1:
        # E|x| under p = 1.5 is below 1.  Quadrature confirms the formula.
        m = pgg_norm_moment(PggSpec(1.5, 1), 1.0)
        assert m == pytest.approx(coord_abs_moment(1.5, 1.0), rel=1e-9)
        assert m < 1.0


class TestSqNormMoment:
    def test_gaussian_d9(self):
        res = pgg_sq_norm_moment_bound(PggSpec(2.0, 9))
        assert res.bound == pytest.approx(10.0, rel=1e-12)
        assert res.exact == pytest.approx(9.0, rel=1e-12)

    def test_laplace_d4(self):
        res = pgg_sq_norm_moment_bound(PggSpec(1.0, 4))
        assert res.bound == pytest.approx(25.0, rel=1e-12)
        assert res.exact == pytest.approx(8.0, rel=1e-12)  # coordinate variance 2

    def test_p15_d1_quadrature(self):
        res = pgg_sq_norm_moment_bound(PggSpec(1.5, 1))
        assert res.bound == pytest.approx(2.0 ** (4.0 / 3.0), rel=1e-12)
        assert res.exact == pytest.approx(coord_abs_moment(1.5, 2.0), rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(p=st.floats(1.0, 2.0), d=st.integers(1, 500))
    def test_bound_dominates_exact(self, p, d):
        res = pgg_sq_norm_moment_bound(PggSpec(p, d))
        assert res.exact <= res.bound * (1 + 1e-12)
