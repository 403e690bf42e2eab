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


# Outputs per round of the p != 2 samplers: the round's uniforms and scratch
# (under 1 MB at 1 < p < 2) stay in a per-core cache, and a call's extra
# memory does not grow with its size.
_ROUND = 16_384
# 1 - 2^-53: 2U - (1 - 2^-53) maps numpy's uniforms k 2^-53, k < 2^53, exactly
# onto the odd multiples of 2^-53 in (-1, 1), a grid symmetric about 0.
_ONE_MINUS_ULP = 1.0 - 2.0**-53


def _proposals(m: int, acc: float) -> int:
    """Proposal pairs drawn for a round of m outputs at acceptance rate acc."""
    return int(m / acc + 2.0 * math.sqrt(m)) + 8


def _fill_laplace(rng: np.random.Generator, flat: np.ndarray) -> None:
    """Laplace(1) draws into the 1-D array flat, one uniform per draw."""
    scratch = np.empty(min(flat.size, _ROUND))
    for start in range(0, flat.size, _ROUND):
        v = flat[start:start + _ROUND]
        s = scratch[:v.size]
        rng.random(out=v)
        v *= 2.0
        v -= _ONE_MINUS_ULP
        np.abs(v, out=s)
        np.subtract(1.0, s, out=s)
        np.log(s, out=s)
        # copysign takes only the magnitude of log(1 - |V|) <= 0
        np.copysign(s, v, out=v)


def _fill_rejection(p: float, rng: np.random.Generator, flat: np.ndarray) -> None:
    """N_p draws at 1 < p < 2 into the 1-D array flat, by Laplace-envelope rejection."""
    c = 1.0 - 1.0 / p
    acc = math.exp(gammaln(1.0 / p) - c * math.log(p) - c)
    sign_cut = -(c + math.log(2.0))
    e, a, w = np.empty((3, _proposals(min(flat.size, _ROUND), acc)))
    pos = 0
    while pos < flat.size:
        m = min(_ROUND, flat.size - pos)
        k = _proposals(m, acc)
        ek, ak, wk = e[:k], a[:k], w[:k]
        rng.random(out=ek)
        rng.random(out=ak)
        np.subtract(1.0, ek, out=ek)
        np.log(ek, out=ek)
        np.negative(ek, out=ek)                # E
        np.subtract(1.0, ak, out=ak)
        np.log(ak, out=ak)                     # -A
        np.power(ek, p, out=wk)
        wk *= 1.0 / p
        wk -= ek
        wk += ak                               # t(E) - A - c
        keep = np.flatnonzero(wk <= -c)[:m]    # A >= t(E)
        np.subtract(sign_cut, wk, out=wk)      # >= 0 iff A - t(E) >= ln 2
        np.copysign(ek, wk, out=ek)
        # "clip" writes straight into out; the default mode buffers it
        np.take(ek, keep, out=flat[pos:pos + keep.size], mode="clip")
        pos += keep.size


def sample_pgg(spec: PggSpec, rng: np.random.Generator, size=None, *,
               out: np.ndarray | None = None) -> np.ndarray:
    """Draw exact samples from N_p(0, I_d).

    Per coordinate, by p:

    - p = 2: one ``standard_normal`` block; N_2 is N(0, 1).
    - p = 1: one ``random`` block U, V = 2U - (1 - 2^-53) (exact, on a grid
      symmetric about 0 inside (-1, 1)), X = copysign(-log(1 - |V|), V).
      -log(1 - |V|) is Exponential(1) by the inverse CDF and V's sign is
      independent of it, so X is Laplace(1); |X| <= 53 ln 2.
    - 1 < p < 2: rejection from the Laplace envelope.  A proposal is a pair
      E = -log(1 - U1), A = -log(1 - U2) of Exponential(1) draws; it is
      accepted iff A >= t(E) = E^p / p - E + (1 - 1/p), which happens with
      probability exp(-t(E)) (t >= 0, with t(1) = 0), so an accepted E has
      density proportional to exp(-E^p / p).  Given acceptance, A - t(E) is
      Exponential(1) and independent of E, so it also gives the sign: X = E
      if A - t(E) >= ln 2, else -E.  The acceptance rate is
      Gamma(1/p) p^(1/p - 1) e^(1/p - 1), 0.848 at p = 1.5 and above 0.76 on
      [1, 2].

    Returns shape ``size + (d,)``; a bare ``(d,)`` vector when size is None.
    With ``out``, a C-contiguous float64 array of exactly that shape, the
    draws are written into it and it is returned; its values equal those of
    the allocating call bitwise.  Draws fill the output in C order.  The
    p != 2 laws work in rounds of at most 16,384 outputs, so the memory a
    call needs beyond its output is bounded: at p = 1 a round reads its
    uniforms in order, so the call consumes one block of ``size + (d,)``
    uniforms; at 1 < p < 2 a round of m outputs draws a block of
    k = floor(m / acc + 2 sqrt(m)) + 8 uniforms U1, then a block of k U2, and
    keeps the first m accepted proposals in order, and rounds repeat until the
    output is full.  There the number of uniforms consumed depends on the
    draws, but it is still a pure function of (generator state, size).
    Splitting one call into several is NOT stream-equivalent in general.
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
        _fill_laplace(rng, out.reshape(-1))
    else:
        _fill_rejection(p, rng, out.reshape(-1))
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
