"""The p-generalized Gaussian law N_p(0, I_d).

Coordinates are i.i.d. with density (1/kappa_1) * exp(-|x|^p / p); the joint
density is proportional to exp(-||x||_p^p / p).  p = 2 is the standard
Gaussian, p = 1 the Laplace law with scale 1.  Only p in [1, 2] is supported:
every downstream bound assumes that range.

Normalizers go through log-Gamma (``math.lgamma``) so they stay finite for
dimensions up to at least 1e4.  The closed-form moments take Gamma ratios
from ``math.gamma`` values, a few ulps closer than an lgamma difference, and
fall back to lgamma where a Gamma value overflows.  The one incomplete Gamma
value, the ziggurat's tail mass, comes from ``_gamma_q``; the module imports
only numpy.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError

__all__ = [
    "PggSpec",
    "sample_pgg",
    "log_density",
    "kappa",
    "log_kappa",
    "pgg_norm_moment",
    "pgg_sq_norm_moment_bound",
]


@dataclass(frozen=True)
class PggSpec:
    """Shape p in [1, 2] and dimension d >= 1 of an N_p(0, I_d) law."""

    p: float
    d: int

    def __post_init__(self):
        object.__setattr__(self, "p", _check_p(self.p))
        object.__setattr__(self, "d", _check_count(self.d, "d"))


def _real(value) -> bool:
    """Whether the checks below take value as a real number; a bool, though an int, is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_p(p) -> float:
    """p as a float; ParameterError unless it lies in [1, 2], the range every bound assumes."""
    if not (_real(p) and 1.0 <= p <= 2.0):
        raise ParameterError(f"p must lie in [1, 2], got {p!r}")
    return float(p)


def _check_count(value, what: str, low: int = 1) -> int:
    """value as an int; ParameterError unless it is an integer >= low (an integral float counts)."""
    # an int past the float range is integral too; float() would overflow on it
    if not (_real(value) and value >= low
            and (isinstance(value, numbers.Integral) or float(value).is_integer())):
        raise ParameterError(f"{what} must be an integer >= {low}, got {value!r}")
    return int(value)


def _check_positive(value, what: str) -> float:
    """value as a float; ParameterError unless it is finite and > 0."""
    if not (_real(value) and 0 < value <= sys.float_info.max):
        raise ParameterError(f"{what} must be finite and > 0, got {value!r}")
    return float(value)


def _as_point(x, d: int, batched: bool = False) -> np.ndarray:
    """x as floats; ParameterError unless its shape is (d,), or (..., d) when batched."""
    x = np.asarray(x, dtype=float)
    if (x.shape[-1:] if batched else x.shape) != (d,):
        raise ParameterError(f"point has shape {x.shape}, expected "
                             f"({'..., ' if batched else ''}{d},)")
    return x


def _empty(shape, what: str) -> np.ndarray:
    """np.empty(shape); MemoryError, not numpy's ValueError, for a size past its largest array."""
    try:
        return np.empty(shape)
    except ValueError as exc:
        raise MemoryError(f"{what} exceed numpy's largest array: {exc}") from None


# Outputs per round of the 1 < p < 2 sampler: the round's words and scratch
# (under 1 MB) stay in a per-core cache, and a call's extra memory does not
# grow with its size.
_ROUND = 16_384
# 1 - 2^-53: 2U - (1 - 2^-53) maps numpy's uniforms k 2^-53, k < 2^53, exactly
# onto the odd multiples of 2^-53 in (-1, 1), a grid symmetric about 0.
_ONE_MINUS_ULP = 1.0 - 2.0**-53
# Outputs per round of the p = 1 sampler.  It works in place, keeping one
# sign byte per output, so its scratch is the size a 16,384-output round of
# floats would take.  The round size does not change the draws.
_LAPLACE_ROUND = 131_072
# The byte of a float64 that holds its sign bit, in this machine's order,
# and that bit within it.
_TOP_BYTE = 7 if sys.byteorder == "little" else 0
_TOP_SIGN = np.uint8(0x80)
# Layers of the 1 < p < 2 ziggurat; a word's low 8 bits pick one.
_LAYERS = 256
# Rejected candidates held before they are completed together: about 2% of
# candidates fail the fast test, so a call of a few rounds completes them all
# at once, and a large call's held positions stay small.
_HELD = 2048


def _fill_laplace(rngs, out: np.ndarray) -> None:
    """Laplace(1) draws into the rows of the 2-D array out, one uniform per draw, in place.

    Row i's uniforms come from rngs[i].  The rounds hold at most
    _LAPLACE_ROUND outputs: whole rows where they fit, else pieces of one.
    """
    rows, cols = out.shape
    height = max(1, _LAPLACE_ROUND // max(cols, 1))
    signs = np.empty(min(out.size, _LAPLACE_ROUND), dtype=np.uint8)
    for r in range(0, rows, height):
        for c in range(0, cols, _LAPLACE_ROUND):
            w = out[r:r + height, c:c + _LAPLACE_ROUND]
            for row, rng in zip(w, rngs[r:r + height]):
                rng.random(out=row)
            sign = signs[:w.size].reshape(w.shape)
            w *= 2.0
            np.subtract(_ONE_MINUS_ULP, w, out=w)      # -V, exactly
            np.less(w, 0.0, out=sign.view(np.bool_))
            np.multiply(sign, _TOP_SIGN, out=sign)     # 0x80 where -V < 0
            np.abs(w, out=w)
            np.subtract(1.0, w, out=w)
            np.log(w, out=w)                           # log(1 - |V|) < 0
            # its sign bit flipped where -V < 0 is copysign(-log(1 - |V|), V);
            # top is the byte of each float that holds its sign bit
            top = w.view(np.uint8)[:, _TOP_BYTE::8]
            np.bitwise_xor(top, sign, out=top)


class _Ziggurat(NamedTuple):
    """The 256 equal-area layers under f(x) = exp(-x^p / p), x >= 0.

    Layer i >= 1 is the rectangle [0, x_i] x [f(x_i), f(x_{i+1})], with edges
    r = x_1 > ... > x_255 > x_256 = 0; layer 0 is [0, r] x [0, f(r)] plus the
    tail beyond r, stretched to the virtual width x_0 = v / f(r).  Every
    layer has the area v.
    """

    p: float
    r: float
    v: float
    edges: np.ndarray   # x_0 .. x_256, so x_i is layer i's width
    inner: np.ndarray   # x_{i+1} / x_i, the fast-accept share of layer i
    f_low: np.ndarray   # f(x_i): the bottom of layer i >= 1
    f_rise: np.ndarray  # f(x_{i+1}) - f(x_i): its height


def _gamma_q(s: float, x: float) -> float:
    """The regularized upper incomplete Q(s, x) = Gamma(s, x) / Gamma(s), s in [1/2, 1], x > 0.

    1 - P by P's series below x = s + 1, where Q > 0.08; above, Q's continued
    fraction by the modified Lentz method.  Both run to double precision.
    """
    front = math.exp(s * math.log(x) - x - math.lgamma(s))  # x^s e^-x / Gamma(s)
    if x < s + 1.0:  # P = front * sum_k x^k / (s (s + 1) ... (s + k))
        term = total = 1.0 / s
        while term > total * 2.0**-53:
            s += 1.0
            term *= x / s
            total += term
        return 1.0 - front * total
    # Q = front / (x + 1 - s - 1 (1 - s) / (x + 3 - s - 2 (2 - s) / (x + 5 - s - ...)))
    b, k, delta = x + 1.0 - s, 0, 0.0
    c, d = math.inf, 1.0 / b
    h = d
    while abs(delta - 1.0) > 2.0**-52:
        k += 1
        a = -k * (k - s)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
    return front * h


def _layer_edges(p: float, r: float) -> tuple[float, list[float] | None, float]:
    """The area v of base edge r, the edges x_0 .. x_255 it gives, and where the top layer ends.

    Each layer stacks on the last: f(x_{i+1}) = f(x_i) + v / x_i.  The edges
    are None when the stack passes f(0) = 1 before the top layer, so r is
    too small; the top layer ends at f(x_255) + v / x_255, which is 1 at
    the right r and below 1 when r is too large.
    """
    f_r = math.exp(-r**p / p)
    # the integral of f beyond r: p^(1/p - 1) Gamma(1/p) Q(1/p, r^p / p)
    tail = math.exp((1.0 / p - 1.0) * math.log(p) + math.lgamma(1.0 / p))
    tail *= _gamma_q(1.0 / p, r**p / p)
    v = r * f_r + tail
    edges, y = [v / f_r, r], f_r
    for _ in range(_LAYERS - 2):
        y += v / edges[-1]
        if y >= 1.0:
            return v, None, y
        edges.append((-p * math.log(y)) ** (1.0 / p))
    return v, edges, y + v / edges[-1]


@functools.lru_cache(maxsize=16)
def _ziggurat(p: float) -> _Ziggurat:
    """The layers for 1 < p < 2: the base edge r, bisected until the top layer closes at f = 1."""
    low, high = 1.0, 16.0
    while True:
        mid = 0.5 * (low + high)
        if mid in (low, high):
            break
        _, edges, top = _layer_edges(p, mid)
        if edges is None or top > 1.0:
            low = mid
        else:
            high = mid
    v, edges, _ = _layer_edges(p, high)
    x = np.array(edges + [0.0])
    f = np.exp(-x**p / p)
    tables = dict(edges=x, inner=x[1:] / x[:-1], f_low=f[:-1], f_rise=f[1:] - f[:-1])
    for table in tables.values():
        table.flags.writeable = False
    return _Ziggurat(p=p, r=high, v=v, **tables)


def _candidates(t: _Ziggurat, words: np.ndarray, z: np.ndarray, layer: np.ndarray,
                scratch: np.ndarray) -> np.ndarray:
    """Write each word's candidate V x_i into z and its layer i into layer.

    Returns the positions that the fast test |V| < x_{i+1} / x_i rejects.
    words is overwritten; z, layer and scratch have its size.
    """
    np.bitwise_and(words.view(np.int64), _LAYERS - 1, out=layer)
    np.right_shift(words, 11, out=words)
    # word >> 11 < 2^53 converts faster from int64, and exactly
    np.multiply(words.view(np.int64), 2.0**-52, out=z)
    z -= _ONE_MINUS_ULP                                # V
    # "clip" writes straight into out; the default mode buffers it
    np.take(t.inner, layer, out=scratch, mode="clip")
    rejected = np.abs(z) >= scratch
    np.take(t.edges, layer, out=scratch, mode="clip")
    z *= scratch
    return np.flatnonzero(rejected)


def _tail(t: _Ziggurat, rng: np.random.Generator, u: np.ndarray) -> np.ndarray:
    """Draws from f beyond r, one for each uniform in u.

    A proposal is x = r + E / r^(p-1), E = -log(1 - U), from the exponential
    envelope tangent to f at r; it is accepted iff a fresh Exponential(1)
    A >= x^p / p - r^p / p - r^(p-1) (x - r), which is >= 0 because x^p is
    convex.  A rejected proposal is redrawn, with a fresh U then a fresh A.
    """
    p, r = t.p, t.r
    slope = r ** (p - 1.0)
    x = np.empty(u.size)
    todo = np.arange(u.size)
    while todo.size:
        prop = r - np.log(1.0 - u) / slope
        a = -np.log(1.0 - rng.random(todo.size))
        ok = a >= (prop**p - r**p) / p - slope * (prop - r)
        x[todo[ok]] = prop[ok]
        todo = todo[~ok]
        u = rng.random(todo.size)
    return x


def _runs(at: np.ndarray, cols: int) -> list[tuple[int, int]]:
    """The rows of the sorted flat positions at, as (row, count) per run, in order.

    Row i's outputs start at flat position i * cols.
    """
    first, last = int(at[0]) // cols, int(at[-1]) // cols
    if first == last:
        return [(first, at.size)]
    row = at // cols
    cuts = (np.flatnonzero(row[1:] != row[:-1]) + 1).tolist()
    return [(int(row[a]), b - a) for a, b in zip([0] + cuts, cuts + [at.size])]


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """The 1-D arrays parts end to end; a lone one as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _finish(t: _Ziggurat, rngs, flat: np.ndarray, cols: int, at: np.ndarray,
            layer: np.ndarray) -> None:
    """Complete the candidates flat[at] of the given layers that the fast test rejected.

    Row i's outputs start at flat[i * cols]; at is sorted, so each row's
    positions come in the order they were drawn.  Each takes one uniform U.
    In layer 0 it starts a tail draw, signed as the candidate.  In layer
    i >= 1 the candidate stands iff f(x_i) + U (f(x_{i+1}) - f(x_i)) < f(|z|);
    otherwise a fresh word makes a new candidate, which passes the fast test
    or comes back here.  Every pass draws from each row's own generator in
    the order a one-row call would: its block of U, its tail draws, then its
    fresh words.
    """
    p = t.p
    while at.size:
        runs = _runs(at, cols)
        cand = flat[at]
        u = _joined([rngs[r].random(k) for r, k in runs])
        base = layer == 0
        if base.any():
            start = 0
            for r, k in runs:
                b = np.flatnonzero(base[start:start + k]) + start
                if b.size:
                    flat[at[b]] = np.copysign(_tail(t, rngs[r], u[b]), cand[b])
                start += k
        height = np.take(t.f_rise, layer, mode="clip")
        height *= u
        height += np.take(t.f_low, layer, mode="clip")
        np.abs(cand, out=cand)
        cand **= p
        cand *= -1.0 / p
        np.exp(cand, out=cand)
        at = at[~(base | (height < cand))]
        k = at.size
        if not k:
            break
        words = _joined([rngs[r].bit_generator.random_raw(m) for r, m in _runs(at, cols)])
        fresh, layer = np.empty(k), np.empty(k, dtype=np.intp)
        again = _candidates(t, words, fresh, layer, np.empty(k))
        flat[at] = fresh
        at, layer = at[again], layer[again]


def _fill_ziggurat(p: float, rngs, out: np.ndarray) -> None:
    """N_p draws at 1 < p < 2 into the rows of the C-contiguous 2-D out, one word per candidate.

    Row i's candidates come from rngs[i], in rounds of at most _ROUND
    words.  The positions that fail the fast test are held and completed
    together.  A row's own held positions wait for its next round only while
    fewer than _HELD are held, as in a one-row call; after its last round
    they wait for later rows until _HELD or more are held in all, and for
    the last row.
    """
    cols = out.shape[1]
    if not out.size:
        return
    t = _ziggurat(p)
    flat = out.reshape(-1)  # row i from flat[i * cols]
    n = min(cols, _ROUND)
    layer, scratch = np.empty(n, dtype=np.intp), np.empty(n)
    held, count = [], 0
    for i, (row, rng) in enumerate(zip(out, rngs)):
        own = 0
        for start in range(0, cols, _ROUND):
            z = row[start:start + _ROUND]
            k = z.size
            pos = _candidates(t, rng.bit_generator.random_raw(k), z, layer[:k], scratch[:k])
            if pos.size:
                held.append((pos + (i * cols + start), layer[pos]))
            own += pos.size
            count += pos.size
            if (count if start + k == cols else own) >= _HELD:
                _finish(t, rngs, flat, cols, *map(_joined, zip(*held)))
                held, count, own = [], 0, 0
    if held:
        _finish(t, rngs, flat, cols, *map(_joined, zip(*held)))


def _size_shape(size) -> tuple[int, ...]:
    """size as a tuple of counts; ParameterError unless each is an integer >= 0."""
    dims = () if size is None else (size,) if np.isscalar(size) else size
    try:
        return tuple(_check_count(s, "size", 0) for s in dims)
    except (TypeError, ParameterError):
        raise ParameterError(f"size must be None, an integer >= 0 or a tuple of them, "
                             f"got {size!r}") from None


def sample_pgg(spec: PggSpec, rng, size=None, *, out: np.ndarray | None = None) -> np.ndarray:
    """Draw exact samples from N_p(0, I_d), from one generator or one row per generator.

    Per coordinate, by p:

    - p = 2: one ``standard_normal`` block; N_2 is N(0, 1).
    - p = 1: one ``random`` block U, V = 2U - (1 - 2^-53) (exact, on a grid
      symmetric about 0 inside (-1, 1)), X = copysign(-log(1 - |V|), V).
      -log(1 - |V|) is Exponential(1) by the inverse CDF and V's sign is
      independent of it, so X is Laplace(1); |X| <= 53 ln 2.
    - 1 < p < 2: a 256-layer ziggurat for f(x) = exp(-x^p / p), x >= 0
      (Marsaglia and Tsang, J. Stat. Softw. 5(8), 2000).  Each candidate
      takes one 64-bit word: its low 8 bits pick the layer i, and its top 53
      bits give V = (word >> 11) 2^-52 - (1 - 2^-53), on the p = 1 grid.  The
      candidate z = V x_i stands at once iff |V| < x_{i+1} / x_i, about 98%
      of the time.  The rest take one more uniform U: in a layer i >= 1, z
      stands iff f(x_i) + U (f(x_{i+1}) - f(x_i)) < f(|z|), and otherwise a
      fresh word makes a new candidate; in the base layer 0, sign(V) times a
      draw from f beyond r = x_1, by rejection from the exponential envelope
      of rate r^(p-1) tangent to f at r (exact: x^p is convex).  All layers
      have the same area, so the draws are exact.  The layers are built once
      per p, by bisection on r.

    ``rng`` is a generator, or a sequence of R generators.  One generator
    gives shape ``size + (d,)``, a bare ``(d,)`` vector when size is None;
    a sequence gives ``(R,) + size + (d,)``: row i is drawn from rng[i]
    alone, bitwise equal to the one-generator call on rng[i], and leaves
    rng[i] in the same state.  size is None, an integer >= 0 or a tuple of
    them, else ``ParameterError``.  With ``out``, a C-contiguous float64
    array of exactly the output shape, for one generator or many, the
    draws are written into it and it is returned; its values equal those
    of the allocating call bitwise.  Each row fills in C order.  The
    p != 2 laws work in bounded rounds, so the
    memory a call needs beyond its output does not grow with size or R.  At
    p = 1 a row reads one uniform per output, in order.  At 1 < p < 2 a
    round of at most 16,384 outputs reads a block of as many words from its
    row's generator; the positions whose candidates fail the fast test are
    held until the row's own reach 2,048 or more, or the row is full, and
    then completed: from the row's generator a block of one U each, the
    tail draws' further uniforms, then a block of fresh words for the
    rejected wedge candidates, again until none is left.  The positions
    held at a row's end are completed together with later rows', once
    2,048 or more are held in all.  The number of words consumed depends
    on the draws, but it is still a pure function of (generator state,
    size).  Splitting one row into several calls is NOT stream-equivalent
    in general.
    """
    many = isinstance(rng, Sequence)
    rngs = list(rng) if many else [rng]
    shape = _size_shape(size) + (spec.d,)
    full = (len(rngs),) + shape if many else shape
    if out is None:
        out = _empty(full, "the draws")
    elif not (isinstance(out, np.ndarray) and out.shape == full and out.dtype == np.float64
              and out.flags.c_contiguous):
        raise ParameterError(f"out must be a C-contiguous float64 array of shape {full}")
    rows = out.reshape(len(rngs), math.prod(shape))
    p = spec.p
    if p == 2.0:
        for row, g in zip(rows, rngs):
            g.standard_normal(out=row)
    elif p == 1.0:
        _fill_laplace(rngs, rows)
    else:
        _fill_ziggurat(p, rngs, rows)
    return out


def log_kappa(spec: PggSpec) -> float:
    """log of kappa = integral of exp(-||xi||_p^p / p) = 2^d Gamma(1/p)^d / p^(d - d/p)."""
    p, d = spec.p, spec.d
    return d * math.log(2.0) + d * math.lgamma(1.0 / p) - (d - d / p) * math.log(p)


def kappa(spec: PggSpec) -> float:
    """Normalizing constant of the unnormalized density exp(-||xi||_p^p / p)."""
    return math.exp(log_kappa(spec))


def log_density(spec: PggSpec, x) -> np.ndarray | float:
    """Exact log density of N_p(0, I_d); accepts points batched as (..., d)."""
    x = _as_point(x, spec.d, batched=True)
    val = -np.sum(np.abs(x) ** spec.p, axis=-1) / spec.p - log_kappa(spec)
    return float(val) if val.ndim == 0 else val


def _gamma_ratio(x: float, y: float) -> float:
    """Gamma(x) / Gamma(y) from math.gamma, or from lgamma where either overflows."""
    try:
        return math.gamma(x) / math.gamma(y)
    except OverflowError:
        return math.exp(math.lgamma(x) - math.lgamma(y))


def pgg_norm_moment(spec: PggSpec, n: float) -> float:
    """E ||xi||_p^n = p^(n/p) * Gamma((d+n)/p) / Gamma(d/p), for any n > 0.

    For n = k*p with integer k this telescopes to
    p^k * (d/p)(d/p + 1)...(d/p + k - 1) = d (d+p) ... (d + (k-1)p).
    """
    n = _check_positive(n, "moment order")
    p, d = spec.p, spec.d
    return p ** (n / p) * _gamma_ratio((d + n) / p, d / p)


def pgg_sq_norm_moment_bound(spec: PggSpec) -> float:
    """Upper bound (d+1)^(2/p) on E ||xi||_2^2.

    The exact value is d * pgg_norm_moment(PggSpec(p, 1), 2): the d coordinates
    are independent, each with E x^2 = p^(2/p) Gamma(3/p) / Gamma(1/p).
    """
    return (spec.d + 1.0) ** (2.0 / spec.p)
