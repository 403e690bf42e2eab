"""Empirical 2-Wasserstein distances between equal-weight sample sets.

Both sets of a comparison have the same size N; a caller with a larger set
subsamples it first, and should report N so finite-sample bias stays
interpretable.  Exact mode solves the optimal assignment on the
squared-Euclidean cost matrix (cubic time, capped at N = 2048); at d = 1 the
sorted matching is the same optimum.  ``w2_to_gaussian`` subsamples larger
sets to the cap and reports the size used, rather than switching to a sliced
surrogate: every 1-D projection is 1-Lipschitz, so sliced W2 is at most W2
and cannot certify that a measured distance lies below a bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .errors import ParameterError

__all__ = [
    "SampleSet",
    "w2_exact_1d",
    "w2_exact_assignment",
    "w2_to_gaussian",
    "W2GaussianResult",
    "ASSIGNMENT_CAP",
]

ASSIGNMENT_CAP = 2048


@dataclass(frozen=True)
class SampleSet:
    """Equal-weight empirical measure: finite points, shape (N, d)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ParameterError(f"points must be a non-empty (N, d) array, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ParameterError("sample set contains non-finite entries")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def _as_samples(a) -> SampleSet:
    return a if isinstance(a, SampleSet) else SampleSet(a)


def w2_exact_1d(a, b) -> float:
    """Exact W2 for equal-size 1-D empirical measures: RMS gap of order statistics."""
    a, b = _as_samples(a), _as_samples(b)
    if a.d != 1 or b.d != 1:
        raise ParameterError(f"w2_exact_1d needs d = 1 samples, got d = {a.d} and {b.d}")
    if a.n != b.n:
        raise ParameterError(f"sample sizes differ: {a.n} vs {b.n}")
    diff = np.sort(a.points[:, 0]) - np.sort(b.points[:, 0])
    return float(np.sqrt(np.mean(diff * diff)))


def w2_exact_assignment(a, b) -> float:
    """Exact optimal-assignment W2 between equal-size sample sets, N <= 2048."""
    a, b = _as_samples(a), _as_samples(b)
    if a.d != b.d:
        raise ParameterError(f"dimensions differ: {a.d} vs {b.d}")
    if a.n != b.n:
        raise ParameterError(f"sample sizes differ: {a.n} vs {b.n}")
    if a.n > ASSIGNMENT_CAP:
        raise ParameterError(
            f"N = {a.n} exceeds the exact-assignment cap {ASSIGNMENT_CAP}; "
            f"subsample the sets to at most {ASSIGNMENT_CAP} points"
        )
    cost = cdist(a.points, b.points, metric="sqeuclidean")
    if not np.isfinite(cost).all():
        raise ParameterError("squared distances between the sample sets overflow a float")
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


@dataclass(frozen=True)
class W2GaussianResult:
    """Mean and spread of the exact distance against resampled references."""

    mean: float
    std: float
    values: np.ndarray
    n: int                  # points compared, after subsampling to the cap


def w2_to_gaussian(a, variance: float, resamples: int = 5,
                   rng: np.random.Generator | None = None) -> W2GaussianResult:
    """Exact W2 between a sample set and N(0, variance * I_d).

    Draws ``resamples`` equal-size reference samples from a dedicated stream
    and reports the mean and spread of the exact distances; the spread tracks
    the finite-sample noise floor of the comparison.  A set of more than
    ``ASSIGNMENT_CAP`` points is first subsampled to the cap, without
    replacement, from ``rng``.  At d = 1 the optimum is the sorted matching
    (``w2_exact_1d``), so the assignment solver is used only for d >= 2.
    """
    a = _as_samples(a)
    if not variance > 0:
        raise ParameterError(f"variance must be > 0, got {variance}")
    if resamples < 1:
        raise ParameterError(f"resamples must be >= 1, got {resamples}")
    rng = rng if rng is not None else np.random.default_rng(0)
    if a.n > ASSIGNMENT_CAP:
        a = SampleSet(a.points[rng.choice(a.n, ASSIGNMENT_CAP, replace=False)])
    scale = np.sqrt(variance)
    exact = w2_exact_1d if a.d == 1 else w2_exact_assignment
    vals = np.empty(resamples)
    for r in range(resamples):
        ref = scale * rng.standard_normal((a.n, a.d))
        vals[r] = exact(a, SampleSet(ref))
    return W2GaussianResult(mean=float(vals.mean()), std=float(vals.std(ddof=1)) if resamples > 1 else 0.0,
                            values=vals, n=a.n)
