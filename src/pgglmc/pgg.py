"""The p-generalized Gaussian law N_p(0, I_d).

Coordinates are i.i.d. with density (1/kappa_1) * exp(-|x|^p / p); the joint
density is proportional to exp(-||x||_p^p / p).  p = 2 is the standard
Gaussian, p = 1 the Laplace law with scale 1.  Only p in [1, 2] is supported:
every downstream bound assumes that range.

All Gamma-function arithmetic goes through log-Gamma so normalizers and
moments stay finite for dimensions up to at least 1e4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln

from .errors import ParameterError

__all__ = [
    "PggSpec",
    "sample_pgg",
    "log_density",
    "kappa",
    "log_kappa",
    "pgg_norm_moment",
    "pgg_sq_norm_moment_bound",
    "SqNormMoment",
]


@dataclass(frozen=True)
class PggSpec:
    """Shape p in [1, 2] and dimension d >= 1 of an N_p(0, I_d) law."""

    p: float
    d: int

    def __post_init__(self):
        if not (1.0 <= self.p <= 2.0):
            raise ParameterError(f"p must lie in [1, 2], got {self.p}")
        if not (self.d >= 1 and float(self.d).is_integer()):
            raise ParameterError(f"d must be a positive integer, got {self.d}")
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "d", int(self.d))


def sample_pgg(spec: PggSpec, rng: np.random.Generator, size=None, *,
               out: np.ndarray | None = None) -> np.ndarray:
    """Draw exact samples from N_p(0, I_d).

    Per coordinate, by p:

    - p = 2: one ``standard_normal`` block; N_2 is N(0, 1).
    - p = 1: X = log((1 - U1) / (1 - U2)) with two ``random`` blocks, U1
      first.  Each 1 - U lies in (0, 1], so X is finite (|X| <= 53 ln 2), and
      each -log(1 - U) is Exponential(1) by the inverse CDF, so X, their
      difference, is Laplace(1).
    - 1 < p < 2: G ~ Gamma(shape=1 + 1/p, scale=p), then V ~ Uniform(-1, 1),
      X = V * G^(1/p).  R = G^(1/p) has density proportional to
      r^p exp(-r^p / p), so X has density proportional to
      integral_{r > |x|} r^(p-1) exp(-r^p / p) dr = exp(-|x|^p / p); the
      uniform also carries the sign.  The shape exceeds 1, so numpy takes its
      fast Marsaglia-Tsang Gamma path; G is drawn as p * standard_gamma,
      bitwise numpy's ``gamma(1 + 1/p, p)``.

    Returns shape ``size + (d,)``; a bare ``(d,)`` vector when size is None.
    With ``out``, a C-contiguous float64 array of exactly that shape, the
    draws are written into it and it is returned; its values equal those of
    the allocating call bitwise.  Each call consumes whole blocks of
    ``size + (d,)`` draws in the order above, so outputs are a deterministic
    function of (generator state, size); splitting one call into several
    interleaves the blocks differently and is NOT stream-equivalent.
    """
    if size is None:
        shape = (spec.d,)
    elif np.isscalar(size):
        shape = (int(size), spec.d)
    else:
        shape = tuple(int(s) for s in size) + (spec.d,)
    if out is None:
        out = np.empty(shape)
    elif not (isinstance(out, np.ndarray) and out.shape == shape
              and out.dtype == np.float64 and out.flags.c_contiguous):
        raise ParameterError(f"out must be a C-contiguous float64 array of shape {shape}")
    p = spec.p
    if p == 2.0:
        return rng.standard_normal(out=out)
    if p == 1.0:
        rng.random(out=out)
        u2 = rng.random(shape)
        np.subtract(1.0, out, out=out)
        out /= np.subtract(1.0, u2, out=u2)
        return np.log(out, out=out)
    rng.standard_gamma(1.0 + 1.0 / p, out=out)
    out *= p
    np.power(out, 1.0 / p, out=out)
    out *= rng.uniform(-1.0, 1.0, size=shape)
    return out


def log_kappa(spec: PggSpec) -> float:
    """log of kappa = integral of exp(-||xi||_p^p / p) = 2^d Gamma(1/p)^d / p^(d - d/p)."""
    p, d = spec.p, spec.d
    return d * math.log(2.0) + d * gammaln(1.0 / p) - (d - d / p) * math.log(p)


def kappa(spec: PggSpec) -> float:
    """Normalizing constant of the unnormalized density exp(-||xi||_p^p / p)."""
    return math.exp(log_kappa(spec))


def log_density(spec: PggSpec, x) -> np.ndarray | float:
    """Exact log density of N_p(0, I_d); accepts points batched as (..., d)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (spec.d,):
        raise ParameterError(
            f"point has trailing dimension {x.shape[-1] if x.ndim else 'scalar'}, expected {spec.d}"
        )
    val = -np.sum(np.abs(x) ** spec.p, axis=-1) / spec.p - log_kappa(spec)
    return float(val) if val.ndim == 0 else val


def pgg_norm_moment(spec: PggSpec, n: float) -> float:
    """E ||xi||_p^n = p^(n/p) * Gamma((d+n)/p) / Gamma(d/p), for any n > 0.

    For n = k*p with integer k this telescopes to
    p^k * (d/p)(d/p + 1)...(d/p + k - 1) = d (d+p) ... (d + (k-1)p).
    """
    if not n > 0:
        raise ParameterError(f"moment order must be positive, got {n}")
    p, d = spec.p, spec.d
    return math.exp((n / p) * math.log(p) + gammaln((d + n) / p) - gammaln(d / p))


class SqNormMoment(NamedTuple):
    bound: float
    exact: float


def pgg_sq_norm_moment_bound(spec: PggSpec) -> SqNormMoment:
    """Upper bound (d+1)^(2/p) on E ||xi||_2^2, together with the exact value.

    The exact second Euclidean moment is d * p^(2/p) * Gamma(3/p) / Gamma(1/p)
    (d independent coordinates, each with E x^2 = p^(2/p) Gamma(3/p)/Gamma(1/p)).
    """
    p, d = spec.p, spec.d
    bound = (d + 1.0) ** (2.0 / p)
    exact = d * math.exp((2.0 / p) * math.log(p) + gammaln(3.0 / p) - gammaln(1.0 / p))
    return SqNormMoment(bound=bound, exact=exact)
