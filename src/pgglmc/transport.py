"""Empirical 2-Wasserstein distances between equal-weight sample sets.

A sample set is a non-empty, finite (N, d) float array (a 1-D array is N
points at d = 1), checked once on entry.  Both sets of a comparison have the
same size N; a caller with a larger set subsamples it first, and should
report N so finite-sample bias stays interpretable.  Exact W2 solves the optimal
assignment on the squared-Euclidean cost matrix (cubic time, N <= 2048 at
every d), or at d = 1 takes the sorted matching, the same optimum.  The solver
is scipy's compiled one, loaded on first use; the module imports only numpy,
so a run that never solves an assignment never loads scipy.
``w2_to_gaussian`` subsamples larger sets to the cap and reports the size
used, rather than switching to a sliced surrogate: every 1-D projection is
1-Lipschitz, so sliced W2 is at most W2 and cannot certify that a measured
distance lies below a bound.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .pgg import _check_count, _check_positive

__all__ = [
    "w2_exact_assignment",
    "w2_to_gaussian",
    "W2GaussianResult",
    "ASSIGNMENT_CAP",
]

ASSIGNMENT_CAP = 2048


def _points(a) -> np.ndarray:
    """A sample set as a finite, non-empty (N, d) float array."""
    pts = np.asarray(a, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ParameterError(f"points must be a non-empty (N, d) array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ParameterError("sample set contains non-finite entries")
    return pts


def cdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows, summed over coordinates in scipy's order."""
    cost = np.zeros((len(a), len(b)))
    with np.errstate(over="ignore"):  # an overflow is an inf, which the caller rejects
        for k in range(a.shape[1]):
            diff = np.subtract.outer(a[:, k], b[:, k])
            cost += np.square(diff, out=diff)
    return cost


@functools.lru_cache(maxsize=1)
def _solver():
    """scipy's solver from its extension alone (under 1 ms), else ``scipy.optimize`` (0.5 s)."""
    try:
        base = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0],
                            "optimize", "_lsap")
        path = next(base + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES
                    if os.path.exists(base + suffix))
        spec = importlib.util.spec_from_file_location("scipy.optimize._lsap", path)
        ext = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(ext)
        return ext.linear_sum_assignment
    except (AttributeError, ImportError, StopIteration):  # no scipy, no extension, or a bad one
        from scipy.optimize import linear_sum_assignment
        return linear_sum_assignment


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of a minimum-cost assignment; the solver loads on first use."""
    return _solver()(cost)


def _sorted_w2(a: np.ndarray, b: np.ndarray) -> float:
    """W2 by sorted matching, for checked (N, 1) sets of one size."""
    with np.errstate(over="ignore"):  # an overflow is an inf, which is rejected below
        sq = np.square(np.sort(a[:, 0]) - np.sort(b[:, 0]))
    if not np.isfinite(sq).all():
        raise ParameterError("squared distances between the sample sets overflow a float")
    return float(np.sqrt(np.mean(sq)))


def _assignment_w2(a: np.ndarray, b: np.ndarray) -> float:
    """W2 by optimal assignment, for checked (N, d) sets of one shape, N <= the cap."""
    cost = cdist(a, b)
    if not np.isfinite(cost).all():
        raise ParameterError("squared distances between the sample sets overflow a float")
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


def _exact_w2(a: np.ndarray, b: np.ndarray) -> float:
    """Exact W2 for checked sets of one shape: the sorted matching at d = 1, else the solver."""
    return (_sorted_w2 if a.shape[1] == 1 else _assignment_w2)(a, b)


def w2_exact_assignment(a, b) -> float:
    """Exact optimal-assignment W2 between equal-size sample sets, N <= 2048 at every d."""
    a, b = _points(a), _points(b)
    if a.shape[1] != b.shape[1]:
        raise ParameterError(f"dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    if len(a) != len(b):
        raise ParameterError(f"sample sizes differ: {len(a)} vs {len(b)}")
    if len(a) > ASSIGNMENT_CAP:
        raise ParameterError(
            f"N = {len(a)} exceeds the exact-assignment cap {ASSIGNMENT_CAP}; "
            f"subsample the sets to at most {ASSIGNMENT_CAP} points"
        )
    return _exact_w2(a, b)


@dataclass(frozen=True)
class W2GaussianResult:
    """Mean and spread of the exact distance against resampled references."""

    mean: float
    std: float
    values: np.ndarray
    n: int                  # points compared, after subsampling to the cap


def w2_to_gaussian(a, variance: float, resamples: int = 5, *,
                   rng: np.random.Generator) -> W2GaussianResult:
    """Exact W2 between a sample set and N(0, variance * I_d).

    Draws ``resamples`` equal-size reference samples from a dedicated stream
    and reports the mean and spread of the exact distances; the spread tracks
    the finite-sample noise floor of the comparison.  A set of more than
    ``ASSIGNMENT_CAP`` points is first subsampled to the cap, without
    replacement, from ``rng``.  The distances are ``w2_exact_assignment``'s.
    The reference draws are finite by construction and are not re-checked.
    """
    a = _points(a)
    variance = _check_positive(variance, "variance")
    resamples = _check_count(resamples, "resamples")
    if len(a) > ASSIGNMENT_CAP:
        a = a[rng.choice(len(a), ASSIGNMENT_CAP, replace=False)]
    n, d = a.shape
    scale = np.sqrt(variance)
    vals = np.array([_exact_w2(a, scale * rng.standard_normal((n, d))) for _ in range(resamples)])
    return W2GaussianResult(mean=float(vals.mean()), std=float(vals.std(ddof=1)) if resamples > 1 else 0.0,
                            values=vals, n=n)
