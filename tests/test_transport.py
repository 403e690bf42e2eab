import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgglmc import (
    ParameterError,
    SampleSet,
    w2_exact_1d,
    w2_exact_assignment,
    w2_to_gaussian,
)
from pgglmc.transport import ASSIGNMENT_CAP


def brute_force_w2(a, b):
    """N!-enumeration oracle for the optimal assignment distance."""
    pa, pb = np.atleast_2d(a), np.atleast_2d(b)
    n = pa.shape[0]
    cost = np.sum((pa[:, None, :] - pb[None, :, :]) ** 2, axis=-1)
    best = min(cost[np.arange(n), perm].sum() for perm in permutations(range(n)))
    return math.sqrt(best / n)


class TestSampleSet:
    def test_1d_input_promoted(self):
        s = SampleSet(np.array([1.0, 2.0, 3.0]))
        assert s.points.shape == (3, 1)
        assert s.n == 3 and s.d == 1

    def test_nonfinite_rejected(self):
        with pytest.raises(ParameterError):
            SampleSet(np.array([[1.0], [np.nan]]))

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            SampleSet(np.zeros((0, 2)))


class TestExact1d:
    def test_identical_sets(self):
        a = SampleSet(np.array([1.0, -2.0, 0.5]))
        assert w2_exact_1d(a, a) == 0.0

    def test_point_masses(self):
        assert w2_exact_1d(SampleSet([0.0]), SampleSet([3.0])) == pytest.approx(3.0)

    def test_interleaved_pair(self):
        # sorted pairing costs (1+1)/2 = 1; the crossed pairing costs 5
        a, b = SampleSet([0.0, 2.0]), SampleSet([1.0, 3.0])
        assert w2_exact_1d(a, b) == pytest.approx(brute_force_w2([[0.], [2.]], [[1.], [3.]]))
        assert w2_exact_1d(a, b) == pytest.approx(1.0)

    def test_size_mismatch(self):
        with pytest.raises(ParameterError):
            w2_exact_1d(SampleSet([0.0]), SampleSet([0.0, 1.0]))

    def test_dimension_guard(self):
        with pytest.raises(ParameterError):
            w2_exact_1d(SampleSet(np.zeros((3, 2))), SampleSet(np.zeros((3, 2))))


class TestExactAssignment:
    def test_matches_1d_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 200))
            a = SampleSet(rng.normal(size=n))
            b = SampleSet(rng.normal(size=n) + rng.normal())
            v1, v2 = w2_exact_1d(a, b), w2_exact_assignment(a, b)
            assert v2 == pytest.approx(v1, rel=1e-12)

    def test_permutation_gives_zero(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(32, 3))
        shuffled = pts[rng.permutation(32)]
        assert w2_exact_assignment(SampleSet(pts), SampleSet(shuffled)) == 0.0

    def test_two_point_square(self):
        a = SampleSet(np.array([[0.0, 0.0], [1.0, 1.0]]))
        b = SampleSet(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert w2_exact_assignment(a, b) == pytest.approx(1.0)
        assert brute_force_w2(a.points, b.points) == pytest.approx(1.0)

    def test_equals_brute_force_small(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            d = int(rng.integers(1, 4))
            a, b = rng.normal(size=(n, d)), rng.normal(size=(n, d))
            assert w2_exact_assignment(SampleSet(a), SampleSet(b)) == \
                pytest.approx(brute_force_w2(a, b), rel=1e-12)

    def test_size_cap(self):
        big = SampleSet(np.zeros((ASSIGNMENT_CAP + 1, 1)))
        with pytest.raises(ParameterError, match="subsample"):
            w2_exact_assignment(big, big)

    def test_unequal_sizes_rejected(self):
        # callers subsample the larger set themselves, as pgglmc sample does
        a, b = SampleSet(np.zeros((4, 1))), SampleSet(np.zeros((6, 1)))
        with pytest.raises(ParameterError, match="sizes differ"):
            w2_exact_assignment(a, b)

    def test_translated_gaussian_sees_full_shift(self):
        # the same isotropic law shifted by c: W2 is ||c||, which a sliced
        # estimate would shrink to about ||c|| / sqrt(d)
        rng = np.random.default_rng(5)
        d, n, c = 5, 2000, np.array([2.0, 0.0, 0.0, 0.0, 0.0])
        a = rng.normal(size=(n, d))[:512]
        b = (rng.normal(size=(n, d)) + c)[:512]
        assert w2_exact_assignment(SampleSet(a), SampleSet(b)) == pytest.approx(
            np.linalg.norm(c), rel=0.2)

    @settings(max_examples=50, deadline=None)
    @given(c=st.floats(0.1, 10.0), seed=st.integers(0, 2**16))
    def test_scaling(self, c, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(12, 2)), rng.normal(size=(12, 2))
        base = w2_exact_assignment(SampleSet(a), SampleSet(b))
        scaled = w2_exact_assignment(SampleSet(c * a), SampleSet(c * b))
        assert scaled == pytest.approx(c * base, rel=1e-9, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_translation(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(12, 2)), rng.normal(size=(12, 2))
        v = rng.uniform(-10, 10, size=2)
        base = w2_exact_assignment(SampleSet(a), SampleSet(b))
        moved = w2_exact_assignment(SampleSet(a + v), SampleSet(b + v))
        assert moved == pytest.approx(base, rel=1e-6, abs=1e-9)


class TestToGaussian:
    def test_point_mass_root_second_moment(self):
        # W2(delta_0, N(0,1)) = sqrt(E X^2) = 1
        a = SampleSet(np.zeros((2048, 1)))
        res = w2_to_gaussian(a, 1.0, resamples=3, rng=np.random.default_rng(6))
        assert res.mean == pytest.approx(1.0, abs=0.05)
        assert res.values.shape == (3,)
        assert res.std >= 0.0

    def test_self_distance_shrinks_with_n(self):
        rng = np.random.default_rng(7)
        vals = {}
        for n in (64, 1024):
            pts = rng.standard_normal((n, 2))
            vals[n] = w2_to_gaussian(SampleSet(pts), 1.0, resamples=4,
                                     rng=np.random.default_rng(8)).mean
        assert vals[1024] < vals[64]

    def test_subsamples_above_the_cap(self):
        # one point more than the assignment solver takes
        pts = np.random.default_rng(12).standard_normal((ASSIGNMENT_CAP + 1, 2))
        res = w2_to_gaussian(SampleSet(pts), 1.0, resamples=1, rng=np.random.default_rng(13))
        assert res.n == ASSIGNMENT_CAP
        assert np.isfinite(res.mean) and res.values.shape == (1,)

    def test_degenerate_variance(self):
        a = SampleSet(np.zeros((128, 1)))
        res = w2_to_gaussian(a, 1e-12, resamples=2, rng=np.random.default_rng(9))
        assert res.mean <= 1e-5

    def test_parameter_validation(self):
        a = SampleSet(np.zeros((4, 1)))
        with pytest.raises(ParameterError):
            w2_to_gaussian(a, 0.0)
        with pytest.raises(ParameterError):
            w2_to_gaussian(a, 1.0, resamples=0)


class TestMetricAxioms:
    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(4, 64))
            d = int(rng.integers(1, 4))
            s = [SampleSet(rng.normal(size=(n, d))) for _ in range(3)]
            ab = w2_exact_assignment(s[0], s[1])
            ba = w2_exact_assignment(s[1], s[0])
            bc = w2_exact_assignment(s[1], s[2])
            ac = w2_exact_assignment(s[0], s[2])
            assert abs(ab - ba) <= 1e-9
            assert ac <= ab + bc + 1e-9
