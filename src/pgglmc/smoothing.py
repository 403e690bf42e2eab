"""Smoothing operator, black-box gradient estimator, and their error bounds.

The smoothed potential is U_mu(x) = E_xi[U(x + mu*xi)] with xi ~ N_p(0, I_d)
at the potential's own d.  The single-batch estimate from n fresh draws is

    g(x) = (1/n) sum_i [(U_bar(x + mu*xi_i) - U_bar(x)) / mu] * w(xi_i),
    w(xi) = xi o |xi|^(p-2)  componentwise,

which costs exactly n + 1 potential evaluations.  The Hadamard weight is
computed as copysign(|xi_j|^(p-1), xi_j), the value of sign(xi_j) *
|xi_j|^(p-1): the factored form |xi|^(p-2) diverges at 0 for p < 2 but the
product is continuous (0 for p > 1, sign for p = 1), and we define it as 0
at xi_j = 0, a probability-zero event.  p = 2 and p = 1
short-circuit to xi and sign(xi), which are exact and keep the p = 2 path
bit-identical to a classical Gaussian-smoothing estimator on shared draws.

Differentiating the smoothing convolution gives the identity

    grad U_mu(x) = (1/mu) E[(U(x + mu*xi) - U(x)) * w(xi)],

with a plus sign: the minus sign sometimes quoted for this identity is
inconsistent with finite differences on quadratics, and both a closed-form
and a central-difference oracle confirm the plus sign.  The estimator
evaluates the raw regularized potential (the only black-box-computable
reading), so by the identity it is exactly unbiased for grad U_bar_mu under
mild regularity; the bias bound below is still reported as the theory
envelope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pgg import PggSpec, _as_point, _check_count, _check_p, sample_pgg
from .potentials import RegularizedPotential, _check_mu, smoothness_constant_M

__all__ = [
    "SmoothingConfig",
    "BiasVarianceReport",
    "hadamard_weight",
    "grad_estimate_from_draws",
    "smoothed_value_mc",
    "smoothed_gradient_reference",
    "measure_bias_variance",
]


@dataclass(frozen=True)
class SmoothingConfig:
    """Smoothing radius mu > 0, batch size n >= 1 and shape p in [1, 2]; d is the potential's."""

    mu: float
    n: int
    p: float

    def __post_init__(self):
        _check_mu(self.mu)
        object.__setattr__(self, "n", _check_count(self.n, "batch size"))
        object.__setattr__(self, "p", _check_p(self.p))


@dataclass(frozen=True)
class BiasVarianceReport:
    """Empirical bias/variance of the estimator against the theory envelopes.

    ``empirical_bias_norm_sq`` is the unbiased estimate of ||E g - grad
    U_bar_mu||^2 (the naive squared norm of the empirical bias minus its own
    Monte Carlo noise floor), so it is 0 in expectation for an unbiased
    estimator.  Bounds are evaluated at the same (M, lam, mu, d, p, n):

        bias_bound     = (M + lam)^2 mu^2 d^(2/p)
        variance_bound = (1/n) ((M+lam) mu (d+3)^(3/p) / 2
                                + sqrt(2) (d+2)^(2/p) ||grad U_bar_mu(x)||)^2
    """

    empirical_bias_norm_sq: float
    empirical_variance: float
    bias_bound: float
    variance_bound: float
    reference_gradient: np.ndarray
    bias_se: float
    variance_se: float
    trials: int


def hadamard_weight(xi: np.ndarray, p: float, out: np.ndarray | None = None) -> np.ndarray:
    """Componentwise xi o |xi|^(p-2), computed as copysign(|xi|^(p-1), xi).

    The values equal sign(xi) |xi|^(p-1).  At p = 2 xi itself is returned;
    otherwise the weight is written into ``out`` when given (it may not be xi).
    """
    if p == 2.0:
        return xi
    if p == 1.0:
        return np.sign(xi, out=out)
    w = np.abs(xi, out=out)
    np.power(w, p - 1.0, out=w)
    return np.copysign(w, xi, out=w)


def _rows_innermost(shape: tuple) -> np.ndarray:
    """An empty float array of ``shape`` whose first (row) axis is innermost in memory.

    A (rows, n, d) block is then (n, d, rows) memory, so numpy's inner loops
    run over the rows rather than over the d coordinates, and a reduction
    over the draw axis n adds its draws in order at every d.
    """
    return np.moveaxis(np.empty(tuple(shape[1:]) + tuple(shape[:1])), -1, 0)


# Bytes per block in _by_row_blocks: small enough that a block and its few
# same-sized temporaries stay in a per-core cache.
_BLOCK_BYTES = 1 << 18


def _by_row_blocks(fn, rows: np.ndarray, out: np.ndarray | None = None, *,
                   row_bytes: int | None = None) -> np.ndarray:
    """fn(block, work) on consecutive cache-sized blocks of rows, stacked along axis 0.

    Each block is copied into a reused buffer of ``_rows_innermost`` layout;
    ``work`` is a reused buffer of the block's shape and layout.  fn may
    overwrite both, and must act on each row independently; callers reduce
    over rows themselves.  A block holds ``_BLOCK_BYTES`` at ``row_bytes`` a
    row (a row's own bytes by default).  The result is written into ``out``
    when given, which may be rows itself: a block is read before its result
    is written.
    """
    step = min(len(rows), max(1, _BLOCK_BYTES // (row_bytes or rows[0].nbytes)))
    buf = _rows_innermost((step,) + rows.shape[1:])
    work = np.empty_like(buf)
    for start in range(0, len(rows), step):
        src = rows[start:start + step]
        block = buf[:len(src)]
        np.copyto(block, src)
        res = fn(block, work[:len(src)])
        if out is None:
            out = np.empty((len(rows),) + res.shape[1:], dtype=res.dtype)
        out[start:start + step] = res
    return out


def _law(pot: RegularizedPotential, mu: float, p: float) -> PggSpec:
    """N_p(0, I_d) at the potential's d; ParameterError unless mu > 0 and p lies in [1, 2]."""
    _check_mu(mu)
    return PggSpec(p, pot.d)


def _two_point(pot: RegularizedPotential, mu: float, p: float, x: np.ndarray,
               xi: np.ndarray, work: np.ndarray | None = None,
               ) -> tuple[np.ndarray, np.ndarray]:
    """The summand's factors (U_bar(x + mu*xi) - U_bar(x)) / mu, shape (..., m), and w(xi).

    xi has shape (..., m, d) against x of shape (..., d); callers reduce.
    The points x + mu*xi are built in ``work``, an array of xi's shape (a
    fresh one when None), where x broadcasts into the draws' shape, and at
    p < 2 the weight then overwrites them; the coefficients are built in
    place.  Points that outgrow the draws' shape, many x against shared
    draws, get a fresh array.  The arithmetic is that of
    (U(x + mu*xi) - U(x)) / mu.
    """
    base = pot.value(x)
    y = np.multiply(mu, xi, out=work)
    fits = np.broadcast_shapes(y.shape, x[..., None, :].shape) == y.shape
    y = np.add(y, x[..., None, :], out=y if fits else None)
    coef = pot.value(y)
    coef -= base[..., None]
    coef /= mu
    # once evaluated the points are dead, so at p < 2 their buffer takes w
    return coef, hadamard_weight(xi, p, out=y if fits else None)


def grad_estimate_from_draws(pot: RegularizedPotential, mu: float, p: float,
                             x: np.ndarray, xi: np.ndarray, *,
                             work: np.ndarray | None = None) -> np.ndarray:
    """Estimator applied to given draws; xi has shape (..., n, d), x (..., d).

    Leading axes broadcast, so a (trials, n, d) block of draws against a
    single point yields (trials, d) independent estimates in one call.
    The perturbed points x + mu*xi are built in ``work`` when it is given, a
    float64 array of xi's shape that a caller reuses across calls; its
    contents on return are unspecified.  The summands overwrite the Hadamard
    weight when it is written in the points' buffer (p < 2); the draw-axis
    sum over n is bitwise np.mean.  The black box must not keep the points
    it is passed: their buffer is reused.
    """
    xi = np.asarray(xi, dtype=float)
    coef, w = _two_point(pot, mu, p, np.asarray(x, dtype=float), xi, work)
    if coef.shape != xi.shape[:-1]:
        w = coef[..., None] * w
    elif w is xi:
        # p = 2: the points are dead, so their buffer takes the summands
        w = np.multiply(coef[..., None], xi, out=work)
    else:
        w *= coef[..., None]
    return np.add.reduce(w, axis=-2) / xi.shape[-2]


def smoothed_value_mc(pot: RegularizedPotential, mu: float, p: float, x: np.ndarray,
                      m: int, rng: np.random.Generator):
    """Monte Carlo estimate (1/m) sum U_bar(x + mu*xi_i) of U_bar_mu(x), and its SE.

    x has shape (..., d), and every point shares one block of m >= 2 draws,
    so differences between points carry little Monte Carlo noise.  The mean
    and its standard error both have shape x.shape[:-1].
    """
    m = _check_count(m, "sample count", 2)
    spec = _law(pot, mu, p)
    x = _as_point(x, pot.d, batched=True)
    xi = sample_pgg(spec, rng, size=m)
    vals = pot.value(x[..., None, :] + mu * xi)
    return vals.mean(axis=-1), vals.std(axis=-1, ddof=1) / np.sqrt(m)


def smoothed_gradient_reference(pot: RegularizedPotential, mu: float, p: float,
                                x: np.ndarray, m: int, rng: np.random.Generator,
                                ) -> tuple[np.ndarray, np.ndarray]:
    """Reference for grad U_bar_mu(x), and its per-coordinate variance.

    The quadratic family returns its closed form (c + lam) x with zero
    variance and takes no draws.  Otherwise the reference is the mean of the
    gradient-identity summands over m >= 2 draws, with the variance of that
    mean; it has no batch size.  The summands are evaluated in cache-sized
    row blocks, draw axis innermost, and written back over their draws in C
    order, then reduced over all m at once.
    """
    m = _check_count(m, "reference draw count", 2)
    spec = _law(pot, mu, p)
    x = _as_point(x, pot.d)
    if pot.has_exact_smoothing:
        return pot.smoothed_grad(x), np.zeros(pot.d)
    xi = sample_pgg(spec, rng, size=m)

    def summands_of(block, work):
        coef, w = _two_point(pot, mu, spec.p, x, block, work)
        return np.multiply(coef[:, None], w, out=w)

    summands = _by_row_blocks(summands_of, xi, out=xi)
    return summands.mean(axis=0), summands.var(axis=0, ddof=1) / m


def measure_bias_variance(pot: RegularizedPotential, mu: float, p: float, x: np.ndarray,
                          ns, trials: int, rng: np.random.Generator,
                          ) -> list[BiasVarianceReport]:
    """Empirical bias and variance of the estimator at x, one report per batch size in ns.

    Every n is validated first.  Then ``smoothed_gradient_reference`` draws
    the reference once, from a hundred draws per trial so its error stays
    negligible; it has no batch size, so every n shares it.  Then each n
    draws its ``(trials, n, d)`` block.  Standard errors accompany both
    empirical statistics; stochastic assertions downstream use 4 of them.

    The trials are estimated in cache-sized blocks of rows of the one
    ``(trials, n, d)`` draw block, each held trial axis innermost as
    ``run_chain`` holds its chains, so the draw-axis sum adds the n draws in
    order at every d.  The statistics reduce over all trials at once, so the
    report is bitwise the one that a single whole-block call gives.  Each
    block evaluates U_bar(x) once more.
    """
    trials = _check_count(trials, "trial count", 2)
    cfgs = [SmoothingConfig(mu=mu, n=n, p=p) for n in ns]
    x = _as_point(x, pot.d)
    reference = smoothed_gradient_reference(pot, mu, p, x, 100 * trials, rng)
    return [_bias_variance(pot, cfg, x, trials, rng, reference) for cfg in cfgs]


def _bias_variance(pot, cfg, x, trials, rng, reference) -> BiasVarianceReport:
    """One batch size's report at x, against the shared ``(ref, ref_var)`` pair."""
    d, p = pot.d, cfg.p
    xi = sample_pgg(PggSpec(p, d), rng, size=(trials, cfg.n))
    # (trials, d)
    g = _by_row_blocks(lambda block, work: grad_estimate_from_draws(pot, cfg.mu, p, x, block,
                                                                    work=work), xi)
    gbar = g.mean(axis=0)
    gvar = g.var(axis=0, ddof=1)  # per-coordinate

    ref, ref_var = reference
    bias_vec = gbar - ref
    var_b = gvar / trials + ref_var
    # Unbiased ||bias||^2: subtract the estimator's own noise floor; the SE is
    # the delta-method expansion of the quadratic form.
    bias_sq = float(bias_vec @ bias_vec - var_b.sum())
    bias_se = float(np.sqrt(4.0 * np.sum(bias_vec**2 * var_b) + 2.0 * np.sum(var_b**2)))

    dev_sq = np.sum((g - gbar) ** 2, axis=1)
    emp_var = float(dev_sq.sum() / (trials - 1))
    var_se = float(np.std(dev_sq, ddof=1) / np.sqrt(trials))

    M = smoothness_constant_M(pot, cfg.mu, p)
    lam = pot.lam
    bias_bound = (M + lam) ** 2 * cfg.mu**2 * d ** (2.0 / p)
    ref_norm = float(np.linalg.norm(ref))
    variance_bound = (
        0.5 * (M + lam) * cfg.mu * (d + 3.0) ** (3.0 / p)
        + np.sqrt(2.0) * (d + 2.0) ** (2.0 / p) * ref_norm
    ) ** 2 / cfg.n

    return BiasVarianceReport(
        empirical_bias_norm_sq=bias_sq,
        empirical_variance=emp_var,
        bias_bound=float(bias_bound),
        variance_bound=float(variance_bound),
        reference_gradient=ref,
        bias_se=bias_se,
        variance_se=var_se,
        trials=trials,
    )
