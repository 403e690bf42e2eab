"""Black-box potentials with declared Hölder regularity, and l2 regularization.

A Potential carries a convex function U, an optional subgradient, and the
declared weak-smoothness certificate (L, alpha):

    ||grad U(x) - grad U(y)||_2 <= L * ||x - y||_2^alpha

The certificate is trusted but spot-checked: ``make_potential`` samples random
pairs and warns (never raises) when the declared constants look violated,
since Hölder constants cannot be verified exhaustively.

Regularization adds (lam/2) ||x||^2, making the potential lam-strongly convex.
The derived constants used by every bound live here too:

    M   = L d^((1-alpha)/p) / (mu^(1-alpha) (1+alpha)^(1-alpha))
    a   = L mu^(1+alpha) d^((1+alpha)/p) / (1+alpha) + (lam/2) mu^2 (d+1)^(2/p)
    cap = 2 / (M + 2 lam)

Callables are vectorized: value maps (..., d) -> (...), subgrad maps
(..., d) -> (..., d).  Potentials are immutable; evaluation is reentrant.
"""

from __future__ import annotations

import inspect
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ParameterError
from .pgg import PggSpec, _check_count, _check_positive, _real, pgg_sq_norm_moment_bound

__all__ = [
    "Potential",
    "RegularizedPotential",
    "make_potential",
    "regularize",
    "smoothness_constant_M",
    "lemma1_gap_bound",
    "lemma1_gap_envelope",
    "perturbation_scale_a",
    "max_step_size",
    "get_potential",
    "POTENTIAL_REGISTRY",
    "certify_holder",
]


def _reduces_in_order(v: np.ndarray) -> bool:
    """Whether numpy's one-call sum over v's last axis adds its coordinates in order."""
    # it does at d <= 2, and where another axis of length > 1 has a smaller nonzero stride
    step = abs(v.strides[-1])
    return v.shape[-1] <= 2 or any(n > 1 and 0 < abs(s) < step for n, s in zip(v.shape, v.strides))


def _coord_sum(v: np.ndarray) -> np.ndarray:
    """v[..., 0] + v[..., 1] + ... added in coordinate order, so alike in every layout."""
    if _reduces_in_order(v):
        return np.add.reduce(v, axis=-1)
    total = v[..., 0] + v[..., 1]
    for j in range(2, v.shape[-1]):
        total += v[..., j]
    return total


def _sq_norm(x: np.ndarray) -> np.ndarray:
    """||x||^2 over the last axis, its squares added in coordinate order."""
    if _reduces_in_order(x):
        return np.einsum("...i,...i->...", x, x)  # skips np.sum's reduction overhead
    with np.errstate(over="ignore"):  # as the einsum, which never warns
        return _coord_sum(x * x)


@dataclass(frozen=True)
class Potential:
    """Convex potential with declared (L, alpha) weak-smoothness certificate.

    ``quad_curvature`` is set only by the registry, for the quadratic family
    U = (c/2)||x||^2 (c = 0 for the flat potential); it unlocks closed-form
    smoothing and a known Gaussian target downstream.
    """

    name: str
    d: int
    L: float
    alpha: float
    value: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    subgrad: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, repr=False)
    quad_curvature: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "d", _check_count(self.d, "d"))
        object.__setattr__(self, "L", _check_positive(self.L, "Hölder constant L"))
        if not (_real(self.alpha) and 0.0 <= self.alpha <= 1.0):
            raise ParameterError(f"Hölder exponent alpha must lie in [0, 1], got {self.alpha!r}")
        object.__setattr__(self, "alpha", float(self.alpha))


@dataclass(frozen=True)
class RegularizedPotential:
    """U_bar(x) = U(x) + (lam/2) ||x||^2, lam > 0; lam-strongly convex."""

    base: Potential
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "lam", _check_positive(self.lam, "regularization weight"))

    @property
    def d(self) -> int:
        return self.base.d

    def value(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.base.value(x) + 0.5 * self.lam * _sq_norm(x)

    # Closed-form smoothing exists exactly for the quadratic family: smoothing
    # a quadratic shifts it by a constant and leaves the gradient untouched.
    @property
    def has_exact_smoothing(self) -> bool:
        return self.base.quad_curvature is not None

    @property
    def total_curvature(self) -> float:
        if self.base.quad_curvature is None:
            raise ParameterError(f"potential {self.base.name!r} is not in the quadratic family")
        return self.base.quad_curvature + self.lam

    @property
    def target_variance(self) -> Optional[float]:
        """v when the target exp(-U_bar) is known to be N(0, v I_d), else None."""
        return None if self.base.quad_curvature is None else 1.0 / self.total_curvature

    def smoothed_grad(self, x) -> np.ndarray:
        """Exact grad U_bar_mu for the quadratic family: (c + lam) x, whatever mu and p."""
        c = self.total_curvature
        return c * np.asarray(x, dtype=float)


def regularize(base: Potential, lam: float) -> RegularizedPotential:
    """Attach the (lam/2)||x||^2 term; lam must be positive."""
    return RegularizedPotential(base=base, lam=lam)


def _check_mu(mu) -> float:
    """mu as a float; ParameterError unless the smoothing radius is finite and > 0."""
    return _check_positive(mu, "smoothing radius")


def smoothness_constant_M(pot: RegularizedPotential, mu: float, p: float) -> float:
    """Smoothness constant of the smoothed base potential.

    M = L d^((1-alpha)/p) / (mu^(1-alpha) (1+alpha)^(1-alpha)); the smoothed
    regularized potential is then (M + lam)-smooth.
    """
    _check_mu(mu)
    L, alpha, d = pot.base.L, pot.base.alpha, pot.base.d
    return L * d ** ((1.0 - alpha) / p) / (mu ** (1.0 - alpha) * (1.0 + alpha) ** (1.0 - alpha))


def _base_constants(pot) -> tuple[float, float, int]:
    base = pot.base if isinstance(pot, RegularizedPotential) else pot
    return base.L, base.alpha, base.d


def lemma1_gap_bound(pot, mu: float, p: float) -> float:
    """Smoothing gap bound L mu^(1+alpha) d^((1+alpha)/p) / (1+alpha).

    This is the simplified large-d form; for small d it can undershoot the
    true gap (see ``lemma1_gap_envelope``).  Accepts a base or regularized
    potential; the regularizer's own gap contribution is not included.
    """
    _check_mu(mu)
    L, alpha, d = _base_constants(pot)
    return L * mu ** (1.0 + alpha) * d ** ((1.0 + alpha) / p) / (1.0 + alpha)


def lemma1_gap_envelope(pot, mu: float, p: float) -> float:
    """Pre-simplification gap envelope, valid at every dimension.

    L mu^(1+alpha) (2 d (d+p) / p)^((1+alpha)/(2p)) / (1+alpha).  The
    simplified d^((1+alpha)/p) form drops a (1 + p/d)-ish factor that only
    vanishes asymptotically, so dominance tests at small d use this form.
    """
    _check_mu(mu)
    L, alpha, d = _base_constants(pot)
    base = 2.0 * d * (d + p) / p
    return L * mu ** (1.0 + alpha) * base ** ((1.0 + alpha) / (2.0 * p)) / (1.0 + alpha)


def perturbation_scale_a(pot: RegularizedPotential, mu: float, p: float) -> float:
    """a = lemma1_gap_bound + (lam/2) mu^2 (d+1)^(2/p).

    (d+1)^(2/p) is ``pgg_sq_norm_moment_bound``'s bound on E||xi||^2.  a
    controls how far the smoothed target exp(-U_bar_mu) drifts from
    exp(-U_bar) in 2-Wasserstein distance.
    """
    try:
        gap = lemma1_gap_bound(pot, mu, p)
    except OverflowError:
        gap = math.inf
    a = gap + 0.5 * pot.lam * mu * mu * pgg_sq_norm_moment_bound(PggSpec(p, pot.d))
    if not math.isfinite(a):
        raise ParameterError(f"perturbation scale a overflows a float at mu = {mu}, "
                             f"lam = {pot.lam}")
    return a


def max_step_size(pot: RegularizedPotential, mu: float, p: float) -> float:
    """Stability cap 2 / (M + 2 lam); chains must use eta strictly below it."""
    return 2.0 / (smoothness_constant_M(pot, mu, p) + 2.0 * pot.lam)


# ---------------------------------------------------------------------------
# Built-in corpus
# ---------------------------------------------------------------------------


def _quadratic(d: int, curvature: float = 1.0) -> Potential:
    c = _check_positive(curvature, "curvature")
    return Potential(
        name="quadratic",
        d=d,
        L=c,
        alpha=1.0,
        value=lambda x: 0.5 * c * _sq_norm(np.asarray(x, dtype=float)),
        subgrad=lambda x: c * np.asarray(x, dtype=float),
        quad_curvature=c,
    )


def _power(d: int, alpha: float = 0.5) -> Potential:
    """U(x) = ||x||^(1+alpha) / (1+alpha); gradient ||x||^(alpha-1) x.

    The gradient map is alpha-Hölder with constant exactly 2^(1-alpha)
    (certified empirically by the spot-check suite; the ratio approaches the
    constant on nearly antipodal pairs).
    """
    if not (_real(alpha) and 0.0 < alpha < 1.0):
        raise ParameterError(f"power potential needs alpha in (0, 1), got {alpha!r}")
    a = float(alpha)

    def value(x):
        x = np.asarray(x, dtype=float)
        s = np.sqrt(_sq_norm(x))
        return s ** (1.0 + a) / (1.0 + a)

    def subgrad(x):
        x = np.asarray(x, dtype=float)
        s = np.sqrt(_sq_norm(x))
        safe = np.where(s > 0, s, 1.0)
        return np.where(s[..., None] > 0, safe[..., None] ** (a - 1.0) * x, 0.0)

    return Potential(name="power", d=d, L=2.0 ** (1.0 - a), alpha=a, value=value, subgrad=subgrad)


def _l1(d: int) -> Potential:
    # grad difference of two sign vectors is at most 2 sqrt(d); 0 is a valid
    # subgradient element at kinks.
    return Potential(
        name="l1",
        d=d,
        L=2.0 * np.sqrt(d),
        alpha=0.0,
        value=lambda x: _coord_sum(np.abs(x)),
        subgrad=lambda x: np.sign(np.asarray(x, dtype=float)),
    )


def _huber(d: int, delta: float = 0.5) -> Potential:
    """Coordinate-wise Huber sum: quadratic within |x| <= delta, linear beyond."""
    dl = _check_positive(delta, "huber delta")
    if 1.0 / dl == math.inf:  # a subnormal delta, whose L = 1/delta overflows
        raise ParameterError(f"huber delta must give a finite L = 1/delta, got {delta!r}")

    def value(x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        per = np.where(ax <= dl, 0.5 * x * x / dl, ax - 0.5 * dl)
        return _coord_sum(per)

    def subgrad(x):
        x = np.asarray(x, dtype=float)
        return np.clip(x / dl, -1.0, 1.0)

    return Potential(name="huber", d=d, L=1.0 / dl, alpha=1.0, value=value, subgrad=subgrad)


def _zero(d: int, L: float = 1.0, alpha: float = 1.0) -> Potential:
    """Identically-zero potential; satisfies any (L, alpha) certificate.

    Useful for targets whose entire curvature comes from the regularizer:
    the regularized target is then N(0, I/lam) exactly, while the declared
    (L, alpha) still drives the theory bounds being exercised.
    """
    return Potential(
        name="zero",
        d=d,
        L=L,
        alpha=alpha,
        value=lambda x: np.zeros(np.shape(x)[:-1]),
        subgrad=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        quad_curvature=0.0,
    )


POTENTIAL_REGISTRY = {
    "quadratic": _quadratic,
    "power": _power,
    "l1": _l1,
    "huber": _huber,
    "zero": _zero,
}


def get_potential(name: str, d: int, **params) -> Potential:
    """Build a registry potential by key; an unknown key or parameter raises ParameterError."""
    try:
        builder = POTENTIAL_REGISTRY[name]
    except KeyError:
        raise ParameterError(
            f"unknown potential {name!r}; available: {sorted(POTENTIAL_REGISTRY)}"
        ) from None
    allowed = sorted(inspect.signature(builder).parameters.keys() - {"d"})
    unknown = sorted(params.keys() - set(allowed))
    if unknown:
        raise ParameterError(f"unknown parameter(s) {unknown} for {name!r}; allowed: {allowed}")
    return builder(_check_count(d, "d"), **params)  # checked before a builder reads it


def certify_holder(pot: Potential, rng: np.random.Generator, pairs: int = 1000,
                   scale: float = 10.0) -> float:
    """Spot-check the declared (L, alpha) on random pairs with ||x - y|| <= scale.

    Returns the worst observed ratio ||grad U(x) - grad U(y)|| / ||x - y||^alpha.
    """
    if pot.subgrad is None:
        raise ParameterError(f"potential {pot.name!r} has no subgradient to certify")
    x = rng.normal(size=(pairs, pot.d)) * (scale / 4.0)
    y = x + rng.normal(size=(pairs, pot.d)) * rng.uniform(1e-4, scale / 4.0, size=(pairs, 1))
    dist = np.linalg.norm(x - y, axis=-1)
    keep = dist > 0
    gap = np.linalg.norm(pot.subgrad(x) - pot.subgrad(y), axis=-1)
    ratio = gap[keep] / dist[keep] ** pot.alpha
    return float(ratio.max(initial=0.0))


def make_potential(name: str, d: int, L: float, alpha: float, value, subgrad=None) -> Potential:
    """Register a user potential (a black box: no known target law); warns on a bad certificate."""
    pot = Potential(name=name, d=d, L=L, alpha=alpha, value=value, subgrad=subgrad)
    if subgrad is not None:
        worst = certify_holder(pot, np.random.default_rng(0), pairs=256)
        if worst > pot.L * (1.0 + 1e-9):
            warnings.warn(
                f"potential {name!r}: observed Hölder ratio {worst:.6g} exceeds "
                f"declared L = {pot.L:.6g}; constants look optimistic",
                stacklevel=2,
            )
    return pot
