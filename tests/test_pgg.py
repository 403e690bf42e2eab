import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc, gammaincc
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


def ziggurat_reference(p, rng, total, rnd, held):
    """The documented 1 < p < 2 recipe, written out round by round.

    A round of m outputs reads m 64-bit words; a word's low 8 bits pick the
    layer i and its top 53 bits V = (word >> 11) 2^-52 - (1 - 2^-53); the
    candidate V x_i stands iff |V| < x_{i+1} / x_i.  The rejected positions
    are held until `held` or more are, or the last round is done, and then
    completed: a block of one uniform U each; in layer 0 a tail draw
    x = r - log(1 - U) / r^(p-1), accepted iff -log(1 - U2) >= x^p/p - r^p/p
    - r^(p-1)(x - r) with a block of U2 for the layer-0 positions, then fresh
    U and U2 blocks for those rejected; in layer i >= 1 the candidate stands
    iff f(x_i) + U (f(x_{i+1}) - f(x_i)) < f(|z|), and otherwise a block of
    fresh words gives new candidates, which are tested the same way.
    Returns the draws and the number of tail draws.
    """
    t = pgg._ziggurat(p)
    x = t.edges
    f = np.exp(-x**p / p)
    r, slope = x[1], x[1] ** (p - 1.0)
    out = np.empty(total)

    def candidates(words):
        layer = (words & np.uint64(255)).astype(np.intp)
        v = (words >> np.uint64(11)).astype(float) * 2.0**-52 - (1.0 - 2.0**-53)
        return layer, v * x[layer], np.abs(v) >= x[layer + 1] / x[layer]

    def tail(u):
        draws = np.empty(u.size)
        todo = np.arange(u.size)
        while todo.size:
            prop = r - np.log(1.0 - u) / slope
            a = -np.log(1.0 - rng.random(todo.size))
            ok = a >= (prop**p - r**p) / p - slope * (prop - r)
            draws[todo[ok]] = prop[ok]
            todo = todo[~ok]
            u = rng.random(todo.size)
        return draws

    def complete(pos, layer):
        tails = 0
        while pos.size:
            u = rng.random(pos.size)
            base = layer == 0
            out[pos[base]] = np.copysign(tail(u[base]), out[pos[base]])
            tails += base.sum()
            height = (f[layer + 1] - f[layer]) * u + f[layer]
            redo = pos[~base & ~(height < np.exp(np.abs(out[pos]) ** p * (-1.0 / p)))]
            layer, out[redo], rejected = candidates(rng.bit_generator.random_raw(redo.size))
            pos, layer = redo[rejected], layer[rejected]
        return tails

    pos, layer, tails = [], [], 0
    for start in range(0, total, rnd):
        m = min(rnd, total - start)
        lay, out[start:start + m], rejected = candidates(rng.bit_generator.random_raw(m))
        pos.extend(start + np.flatnonzero(rejected))
        layer.extend(lay[rejected])
        if len(pos) >= held or start + m == total:
            tails += complete(np.array(pos, dtype=np.intp), np.array(layer, dtype=np.intp))
            pos, layer = [], []
    return out, tails


class EdgeWords:
    """A generator stub whose 64-bit words cycle through the given ones.

    It hands them out as raw words and, like numpy's generators, as the
    uniforms (word >> 11) 2^-53.
    """

    def __init__(self, cycle):
        self.cycle = np.array(cycle, dtype=np.uint64)
        self.bit_generator = self
        self.words = 0

    def random_raw(self, size):
        if self.words > 10_000:
            raise RuntimeError("the draws do not finish")
        at = (self.words + np.arange(size)) % self.cycle.size
        self.words += size
        return self.cycle[at]

    def random(self, size):
        return (self.random_raw(size) >> np.uint64(11)) * 2.0**-53


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

    @pytest.mark.parametrize("rnd, held", [(7, 1), (7, 2048), (16_384, 2048)])
    def test_ziggurat_structure(self, rnd, held):
        # 1 < p < 2: ziggurat rounds of at most _ROUND words, the rejected
        # positions held until _HELD or more are, or the output is full.
        # 40,000 draws take a few tail draws and wedge rejections.
        spec = PggSpec(1.5, 4)
        with patch.object(pgg, "_ROUND", rnd), patch.object(pgg, "_HELD", held):
            got = sample_pgg(spec, np.random.default_rng(7), size=10_000)
        want, tails = ziggurat_reference(1.5, np.random.default_rng(7), 40_000, rnd, held)
        assert tails > 0
        assert np.array_equal(got.ravel(), want)

    def test_laplace_recipe_structure(self):
        # p = 1: copysign(-log(1 - |V|), V) with V = 2U - (1 - 2^-53) from one
        # random block, whatever the round size
        rng = np.random.default_rng(7)
        v = 2.0 * rng.random((5, 2)) - (1.0 - 2.0**-53)
        want = np.copysign(-np.log(1.0 - np.abs(v)), v)
        for rnd in (3, 131_072):
            with patch.object(pgg, "_LAPLACE_ROUND", rnd):
                got = sample_pgg(PggSpec(1.0, 2), np.random.default_rng(7), size=5)
            assert np.array_equal(got, want)

    def test_edge_uniforms_give_finite_draws(self):
        # p = 1: numpy's uniforms run from 0 to 1 - 2^-53, and the stub's
        # blocks are 1 - 2^-53 but for a 0 in front
        class EdgeUniforms:
            def random(self, out):
                out[...] = 1.0 - 2.0**-53
                out.reshape(-1)[0] = 0.0
                return out

        x = sample_pgg(PggSpec(1.0, 2), EdgeUniforms(), size=3).ravel()
        # the two edges give draws of opposite sign and magnitude 53 ln 2
        assert x[0] == -x[1] < 0
        assert x[1] == pytest.approx(53 * math.log(2.0), rel=1e-15)
        assert np.isfinite(x).all()

    @pytest.mark.parametrize("p", [1.01, 1.5, 1.99])
    def test_edge_words_give_finite_draws(self, p):
        r = pgg._ziggurat(p).r
        # all-zero words: layer 0 at V = -(1 - 2^-53), so a tail draw at U = 0
        # and U2 = 0, which is exactly -r
        x = sample_pgg(PggSpec(p, 2), EdgeWords([0]), size=3)
        assert (x == -r).all()
        # all-ones words: the top layer at V = 1 - 2^-53, and U = 1 - 2^-53;
        # with zero words between them the draws still finish, and the
        # largest tail draw takes E = 53 ln 2
        rng = EdgeWords([2**64 - 1, 2**64 - 1, 0])
        x = sample_pgg(PggSpec(p, 2), rng, size=3)
        assert np.isfinite(x).all()
        assert np.abs(x).max() <= r + 53 * math.log(2.0) / r ** (p - 1.0)

    @pytest.mark.parametrize("p", [1.01, 1.5, 1.99])
    def test_ziggurat_layers_have_equal_area(self, p):
        t = pgg._ziggurat(p)
        x = t.edges
        f = np.exp(-x**p / p)
        # the top layer closes at f(0) = 1 and every layer's area is v
        assert x[-1] == 0.0 and f[-1] == 1.0
        np.testing.assert_allclose(x[1:-1] * (f[2:] - f[1:-1]), t.v, rtol=1e-12, atol=0)
        assert x[0] * f[1] == pytest.approx(t.v, rel=1e-12)
        # the base layer: r f(r) plus the tail beyond r, by quadrature
        tail = quad(lambda s: math.exp(-(s**p) / p), t.r, np.inf, epsabs=0, epsrel=1e-12)[0]
        assert t.r * f[1] + tail == pytest.approx(t.v, rel=1e-9)

    @pytest.mark.parametrize("p", [1.01, 1.5, 1.99])
    def test_tail_mass(self, p):
        # P(|X| > r) = Q(1/p, r^p / p), the regularized upper gamma
        r = pgg._ziggurat(p).r
        exact = gammaincc(1.0 / p, r**p / p)
        n = 2_000_000
        x = sample_pgg(PggSpec(p, 1), np.random.default_rng(41), size=n)
        frac = np.count_nonzero(np.abs(x) > r) / n
        assert abs(frac - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / n)

    @pytest.mark.parametrize("s", np.linspace(0.5, 1.0, 11))
    def test_upper_incomplete_gamma(self, s):
        # Q(1/p, x) gives the ziggurat's tail mass; x spans the series branch
        # (x < s + 1) and the continued-fraction branch
        x = np.geomspace(1e-3, 200.0, 401)
        assert (x < s + 1.0).any() and (x >= s + 1.0).any()
        q = [pgg._gamma_q(float(s), float(xi)) for xi in x]
        np.testing.assert_allclose(q, gammaincc(s, x), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("p, rows, gens", [
        pytest.param(1.0, 200_000, None, id="1.0-200000"),
        pytest.param(1.5, 200_000, None, id="1.5-200000"),
        pytest.param(1.5, 1_000_000, None, id="1.5-1000000"),
        pytest.param(1.0, 1_000, 200, id="1.0-1000-rows200"),
        pytest.param(1.5, 1_000, 200, id="1.5-1000-rows200"),
        pytest.param(1.0, 1_000, 1_000, id="1.0-1000-rows1000"),
        pytest.param(1.5, 1_000, 1_000, id="1.5-1000-rows1000"),
        pytest.param(1.5, 1, 20_000, id="1.5-1-rows20000"),
        pytest.param(2.0, 1_000, 1_000, id="2.0-1000-rows1000"),
    ])
    def test_scratch_is_bounded(self, p, rows, gens):
        # the draws work in bounded rounds, so filling an 8 MB or a 40 MB
        # output takes a fixed amount of scratch, not a full-size temporary,
        # and one row per generator adds none per row: 200 or 1,000 rows of
        # 5,000 draws, or 20,000 rows of 5 whose held positions span many rows
        rngs = np.random.default_rng(0) if gens is None else [
            np.random.default_rng(i) for i in range(gens)]
        buf = np.empty((rows, 5) if gens is None else (gens, rows, 5))
        tracemalloc.start()
        try:
            sample_pgg(PggSpec(p, 5), rngs, size=rows, out=buf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    @pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 2.0])
    @pytest.mark.parametrize("rnd, held, laplace", [(7, 2, 7), (16_384, 2048, 131_072)])
    def test_each_row_is_its_generators_call(self, p, rnd, held, laplace):
        # one row per generator, bitwise the one-generator call on it, which
        # leaves it in the same state; also into the rows of a row-strided
        # out, as run_chain's last, partial chunk passes xi[:, :m].  Rounds of
        # 7 words and completions from 2 held positions complete rows mid-row
        # and across rows; 6 rows of 12,000 draws take tail draws at 1 < p < 2.
        # At p = 1 the rounds cut rows into pieces of 7, or take all 6 at once
        spec = PggSpec(p, 3)
        with patch.object(pgg, "_ROUND", rnd), patch.object(pgg, "_HELD", held), \
                patch.object(pgg, "_LAPLACE_ROUND", laplace):
            alone = [np.random.default_rng(s) for s in range(6)]
            want = np.stack([sample_pgg(spec, g, size=(1000, 4)) for g in alone])
            rngs = [np.random.default_rng(s) for s in range(6)]
            got = sample_pgg(spec, rngs, size=(1000, 4))
            strided = tuple(np.random.default_rng(s) for s in range(6))
            buf = np.full((6, 1500, 4, 3), np.nan)
            out = sample_pgg(spec, strided, size=(1000, 4), out=buf[:, :1000])
        assert got.shape == (6, 1000, 4, 3) and np.array_equal(got, want)
        assert out.base is buf and np.array_equal(out, want)
        assert np.isnan(buf[:, 1000:]).all()
        for gens in zip(alone, rngs, strided):
            assert len({g.random() for g in gens}) == 1

    def test_generator_rows_shapes(self):
        spec = PggSpec(1.5, 3)
        gens = [np.random.default_rng(i) for i in range(2)]
        assert sample_pgg(spec, gens).shape == (2, 3)
        assert sample_pgg(spec, gens, size=4).shape == (2, 4, 3)
        assert sample_pgg(spec, [], size=4).shape == (0, 4, 3)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_empty_sizes(self, p):
        rng = np.random.default_rng(0)
        assert sample_pgg(PggSpec(p, 3), rng, size=0).shape == (0, 3)
        assert sample_pgg(PggSpec(p, 3), rng, size=(2, 0)).shape == (2, 0, 3)
        # an integral float counts
        assert sample_pgg(PggSpec(p, 3), rng, size=2.0).shape == (2, 3)

    @pytest.mark.parametrize("size", [-1, 2.5, (2, -1), (2, 2.5), math.nan, math.inf, "3", [[2]]])
    def test_bad_size_rejected(self, size):
        # size=2.5 used to draw 2 rows, and size=-1 raised numpy's ValueError
        with pytest.raises(ParameterError, match="size"):
            sample_pgg(PggSpec(1.5, 3), np.random.default_rng(0), size=size)

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

    @pytest.mark.parametrize("out", [
        np.empty((2, 4, 2)), np.empty((3, 4, 3)), np.empty((2, 4, 6))[:, :, ::2],
        np.empty((2, 3, 4)).transpose(0, 2, 1), np.empty((2, 4, 3))[::-1],
        np.empty((2, 4, 3), dtype=np.float32),
    ], ids=["shape", "rows", "strided", "transposed", "reversed", "dtype"])
    def test_bad_row_out_rejected(self, out):
        gens = [np.random.default_rng(i) for i in range(2)]
        with pytest.raises(ParameterError, match="out"):
            sample_pgg(PggSpec(1.5, 3), gens, size=4, out=out)

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

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("d", [1, 3, 5, 16])
    def test_integer_multiples_of_p_within_4_ulps(self, p, d):
        # n = k p telescopes to d (d+p) ... (d+(k-1)p), exact in floats here
        for k in (1, 2, 3):
            exact = math.prod(d + j * p for j in range(k))
            got = pgg_norm_moment(PggSpec(p, d), k * p)
            assert abs(got - exact) <= 4 * math.ulp(exact), (k, got, exact)

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
