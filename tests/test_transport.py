import importlib.machinery
import importlib.util
import math
import sys
import types
import warnings
from itertools import islice, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgglmc import (
    ParameterError,
    w2_exact_assignment,
    w2_to_gaussian,
)
from pgglmc import transport
from pgglmc.transport import ASSIGNMENT_CAP


def brute_force_w2(a, b):
    """N!-enumeration oracle for the optimal assignment distance."""
    pa, pb = np.atleast_2d(a), np.atleast_2d(b)
    n = pa.shape[0]
    cost = np.sum((pa[:, None, :] - pb[None, :, :]) ** 2, axis=-1)
    best = min(cost[np.arange(n), perm].sum() for perm in permutations(range(n)))
    return math.sqrt(best / n)


class TestSampleSet:
    """Sample sets are plain arrays, checked on entry to every W2 function."""

    def test_1d_input_promoted(self):
        # a 1-D array is N points at d = 1
        a, b = np.array([1.0, 2.0, 3.0]), np.array([[2.0], [3.0], [4.0]])
        assert w2_exact_assignment(a, b) == pytest.approx(1.0)
        with pytest.raises(ParameterError, match="dimensions differ"):
            w2_exact_assignment(a, np.zeros((3, 2)))

    @pytest.mark.parametrize("d", [1, 2])
    def test_nonfinite_rejected(self, d):
        bad, good = np.zeros((2, d)), np.zeros((2, d))
        bad[1, 0] = np.nan
        with pytest.raises(ParameterError, match="non-finite"):
            w2_exact_assignment(bad, good)
        with pytest.raises(ParameterError, match="non-finite"):
            w2_exact_assignment(good, bad)

    @pytest.mark.parametrize("d", [1, 2])
    def test_empty_rejected(self, d):
        empty = np.zeros((0, d))
        with pytest.raises(ParameterError, match="non-empty"):
            w2_exact_assignment(empty, empty)


class TestExact1d:
    """At d = 1 the exact distance is the sorted matching, behind the same entry checks."""

    def test_identical_sets(self):
        a = np.array([1.0, -2.0, 0.5])
        assert w2_exact_assignment(a, a) == 0.0

    def test_point_masses(self):
        assert w2_exact_assignment([0.0], [3.0]) == pytest.approx(3.0)

    def test_interleaved_pair(self):
        # sorted pairing costs (1+1)/2 = 1; the crossed pairing costs 5
        a, b = [0.0, 2.0], [1.0, 3.0]
        assert w2_exact_assignment(a, b) == pytest.approx(
            brute_force_w2([[0.], [2.]], [[1.], [3.]]))
        assert w2_exact_assignment(a, b) == pytest.approx(1.0)

    def test_size_mismatch(self):
        with pytest.raises(ParameterError, match="sizes differ"):
            w2_exact_assignment([0.0], [0.0, 1.0])

    def test_takes_the_sorted_matching_at_d1_only(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(64, 1)), rng.normal(size=(64, 1))
        assert w2_exact_assignment(a, b) == transport._sorted_w2(a, b)
        a, b = rng.normal(size=(64, 2)), rng.normal(size=(64, 2))
        assert w2_exact_assignment(a, b) == transport._assignment_w2(a, b)


class TestExactAssignment:
    def test_matches_1d_closed_form(self):
        # the sorted matching is the solver's optimum at d = 1
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 200))
            a = rng.normal(size=(n, 1))
            b = rng.normal(size=(n, 1)) + rng.normal()
            v1, v2 = transport._sorted_w2(a, b), transport._assignment_w2(a, b)
            assert v2 == pytest.approx(v1, rel=1e-12)

    def test_permutation_gives_zero(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(32, 3))
        shuffled = pts[rng.permutation(32)]
        assert w2_exact_assignment(pts, shuffled) == 0.0

    def test_two_point_square(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert w2_exact_assignment(a, b) == pytest.approx(1.0)
        assert brute_force_w2(a, b) == pytest.approx(1.0)

    def test_equals_brute_force_small(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            d = int(rng.integers(1, 4))
            a, b = rng.normal(size=(n, d)), rng.normal(size=(n, d))
            assert w2_exact_assignment(a, b) == pytest.approx(brute_force_w2(a, b), rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2])
    def test_overflowing_costs_rejected_without_a_warning(self, d):
        # the sorted matching (d = 1) and the solver (d = 2) share the rule
        a, b = np.zeros((2, d)), np.zeros((2, d))
        a[0, 0], b[0, 0] = 1e300, -1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="overflow a float"):
                w2_exact_assignment(a, b)
            with pytest.raises(ParameterError, match="overflow a float"):
                w2_to_gaussian(a, 1.0, resamples=1, rng=np.random.default_rng(0))

    def test_size_cap(self):
        big = np.zeros((ASSIGNMENT_CAP + 1, 1))
        with pytest.raises(ParameterError, match="subsample"):
            w2_exact_assignment(big, big)

    def test_unequal_sizes_rejected(self):
        # callers subsample the larger set themselves, as pgglmc sample does
        a, b = np.zeros((4, 1)), np.zeros((6, 1))
        with pytest.raises(ParameterError, match="sizes differ"):
            w2_exact_assignment(a, b)

    def test_translated_gaussian_sees_full_shift(self):
        # the same isotropic law shifted by c: W2 is ||c||, which a sliced
        # estimate would shrink to about ||c|| / sqrt(d)
        rng = np.random.default_rng(5)
        d, n, c = 5, 2000, np.array([2.0, 0.0, 0.0, 0.0, 0.0])
        a = rng.normal(size=(n, d))[:512]
        b = (rng.normal(size=(n, d)) + c)[:512]
        assert w2_exact_assignment(a, b) == pytest.approx(np.linalg.norm(c), rel=0.2)

    @settings(max_examples=50, deadline=None)
    @given(c=st.floats(0.1, 10.0), seed=st.integers(0, 2**16))
    def test_scaling(self, c, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(12, 2)), rng.normal(size=(12, 2))
        base = w2_exact_assignment(a, b)
        scaled = w2_exact_assignment(c * a, c * b)
        assert scaled == pytest.approx(c * base, rel=1e-9, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_translation(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(12, 2)), rng.normal(size=(12, 2))
        v = rng.uniform(-10, 10, size=2)
        base = w2_exact_assignment(a, b)
        moved = w2_exact_assignment(a + v, b + v)
        assert moved == pytest.approx(base, rel=1e-6, abs=1e-9)


class TestToGaussian:
    def test_point_mass_root_second_moment(self):
        # W2(delta_0, N(0,1)) = sqrt(E X^2) = 1
        a = np.zeros((2048, 1))
        res = w2_to_gaussian(a, 1.0, resamples=3, rng=np.random.default_rng(6))
        assert res.mean == pytest.approx(1.0, abs=0.05)
        assert res.values.shape == (3,)
        assert res.std >= 0.0

    def test_self_distance_shrinks_with_n(self):
        rng = np.random.default_rng(7)
        vals = {}
        for n in (64, 1024):
            pts = rng.standard_normal((n, 2))
            vals[n] = w2_to_gaussian(pts, 1.0, resamples=4, rng=np.random.default_rng(8)).mean
        assert vals[1024] < vals[64]

    def test_subsamples_above_the_cap(self):
        # one point more than the assignment solver takes
        pts = np.random.default_rng(12).standard_normal((ASSIGNMENT_CAP + 1, 2))
        res = w2_to_gaussian(pts, 1.0, resamples=1, rng=np.random.default_rng(13))
        assert res.n == ASSIGNMENT_CAP
        assert np.isfinite(res.mean) and res.values.shape == (1,)

    def test_degenerate_variance(self):
        a = np.zeros((128, 1))
        res = w2_to_gaussian(a, 1e-12, resamples=2, rng=np.random.default_rng(9))
        assert res.mean <= 1e-5

    def test_parameter_validation(self):
        a = np.zeros((4, 1))
        with pytest.raises(ParameterError):
            w2_to_gaussian(a, 0.0, rng=np.random.default_rng(0))
        with pytest.raises(ParameterError):
            w2_to_gaussian(a, np.inf, rng=np.random.default_rng(0))
        with pytest.raises(ParameterError):
            w2_to_gaussian(a, 1.0, resamples=0, rng=np.random.default_rng(0))


class TestMetricAxioms:
    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(4, 64))
            d = int(rng.integers(1, 4))
            s = [rng.normal(size=(n, d)) for _ in range(3)]
            ab = w2_exact_assignment(s[0], s[1])
            ba = w2_exact_assignment(s[1], s[0])
            bc = w2_exact_assignment(s[1], s[2])
            ac = w2_exact_assignment(s[0], s[2])
            assert abs(ab - ba) <= 1e-9
            assert ac <= ab + bc + 1e-9


@pytest.mark.parametrize("d", [1, 2, 3, 8, 16, 33])
@pytest.mark.parametrize("n", [5, 256, 1000])
def test_cost_matrix_matches_scipy_bitwise(n, d):
    # the coordinates are summed in scipy's order; np.sum over the last axis
    # rounds differently from d = 8 on
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(100 * n + d)
    a, b = rng.normal(size=(n, d)), 2.0 * rng.normal(size=(n, d)) + 0.3
    assert np.array_equal(transport.cdist(a, b), cdist(a, b, "sqeuclidean"))


def solver_costs():
    """suite_transport's 100 brute-force instances, then random costs at N in {5, 256, 2048}."""
    rng = np.random.default_rng(1005)  # the suite's seed and draw order
    for _ in range(100):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 4))
        a = rng.normal(size=(n, d))
        b = rng.normal(size=(n, d))
        yield transport.cdist(a, b)
    rng = np.random.default_rng(6)
    for n in (5, 256, 2048):
        yield rng.random((n, n))


class TestSolverLoader:
    """The solver is scipy's compiled extension, loaded by path, or else the public import."""

    @pytest.fixture(autouse=True)
    def fresh_solver(self):
        transport._solver.cache_clear()
        yield
        transport._solver.cache_clear()

    @staticmethod
    def assert_same_solutions(solver, costs):
        from scipy.optimize import linear_sum_assignment

        for cost in costs:
            rows, cols = solver(cost)
            ref_rows, ref_cols = linear_sum_assignment(cost)
            assert np.array_equal(rows, ref_rows) and np.array_equal(cols, ref_cols)

    def test_path_loaded_solver_matches_scipy(self, monkeypatch):
        # with the public import blocked, the solver can only come from the path
        with monkeypatch.context() as m:
            m.setitem(sys.modules, "scipy.optimize", None)
            solver = transport._solver()
        self.assert_same_solutions(solver, solver_costs())

    def test_missing_extension_falls_back_to_the_public_import(self, monkeypatch):
        from scipy.optimize import linear_sum_assignment

        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        assert transport._solver() is linear_sum_assignment
        self.assert_same_solutions(transport.linear_sum_assignment,
                                   islice(solver_costs(), 102))

    def test_unloadable_extension_falls_back_to_the_public_import(self, monkeypatch, tmp_path):
        from scipy.optimize import linear_sum_assignment

        # a scipy tree whose extension file is not a shared object
        (tmp_path / "optimize").mkdir()
        bad = tmp_path / "optimize" / ("_lsap" + importlib.machinery.EXTENSION_SUFFIXES[0])
        bad.write_bytes(b"not a shared object")
        fake = types.SimpleNamespace(submodule_search_locations=[str(tmp_path)])
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: fake)
        assert transport._solver() is linear_sum_assignment
        self.assert_same_solutions(transport.linear_sum_assignment,
                                   islice(solver_costs(), 102))
