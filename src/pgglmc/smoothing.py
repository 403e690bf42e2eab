"""Smoothing operator, black-box gradient estimator, and their error bounds.

The smoothed potential is U_mu(x) = E_xi[U(x + mu*xi)] with xi ~ N_p(0, I_d).
The single-batch gradient estimate from n fresh draws is

    g(x) = (1/n) sum_i [(U_bar(x + mu*xi_i) - U_bar(x)) / mu] * w(xi_i),
    w(xi) = xi o |xi|^(p-2)  componentwise,

which costs exactly n + 1 potential evaluations.  The Hadamard weight is
computed as sign(xi_j) * |xi_j|^(p-1): the factored form |xi|^(p-2) diverges
at 0 for p < 2 but the product is continuous (0 for p > 1, sign for p = 1),
and we define it as 0 at xi_j = 0, a probability-zero event.  p = 2 and p = 1
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

from .errors import EvaluationError, ParameterError
from .pgg import PggSpec, sample_pgg
from .potentials import RegularizedPotential, smoothness_constant_M

__all__ = [
    "SmoothingConfig",
    "GradientEstimate",
    "BiasVarianceReport",
    "hadamard_weight",
    "grad_estimate_from_draws",
    "grad_estimate",
    "smoothed_value_mc",
    "smoothed_gradient_reference",
    "lemma1_gap_bound",
    "lemma1_gap_envelope",
    "measure_bias_variance",
]


@dataclass(frozen=True)
class SmoothingConfig:
    """Smoothing radius mu > 0, batch size n >= 1, and the driving N_p law."""

    mu: float
    n: int
    pgg: PggSpec

    def __post_init__(self):
        if not self.mu > 0:
            raise ParameterError(f"smoothing radius must be > 0, got {self.mu}")
        if int(self.n) != self.n or self.n < 1:
            raise ParameterError(f"batch size must be a positive integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))


@dataclass(frozen=True)
class GradientEstimate:
    value: np.ndarray
    draws_used: int
    function_evals: int


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


def hadamard_weight(xi: np.ndarray, p: float) -> np.ndarray:
    """Componentwise xi o |xi|^(p-2), computed as sign(xi) |xi|^(p-1)."""
    if p == 2.0:
        return xi
    if p == 1.0:
        return np.sign(xi)
    return np.sign(xi) * np.abs(xi) ** (p - 1.0)


def _two_point(pot: RegularizedPotential, mu: float, p: float, x: np.ndarray,
               xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The summand's factors (U_bar(x + mu*xi) - U_bar(x)) / mu, shape (..., m), and w(xi).

    xi has shape (..., m, d) against x of shape (..., d); callers reduce.
    """
    base = pot.value(x)
    vals = pot.value(x[..., None, :] + mu * xi)
    return (vals - np.expand_dims(base, -1)) / mu, hadamard_weight(xi, p)


def grad_estimate_from_draws(pot: RegularizedPotential, mu: float, p: float,
                             x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Estimator applied to given draws; xi has shape (..., n, d), x (..., d).

    Leading axes broadcast, so a (trials, n, d) block of draws against a
    single point yields (trials, d) independent estimates in one call.
    """
    coef, w = _two_point(pot, mu, p, np.asarray(x, dtype=float), np.asarray(xi, dtype=float))
    return np.mean(coef[..., None] * w, axis=-2)


def grad_estimate(pot: RegularizedPotential, cfg: SmoothingConfig, x: np.ndarray,
                  rng: np.random.Generator) -> GradientEstimate:
    """Black-box gradient estimate from n fresh N_p draws; n + 1 evaluations."""
    x = np.asarray(x, dtype=float)
    if x.shape != (cfg.pgg.d,):
        raise ParameterError(f"point has shape {x.shape}, expected ({cfg.pgg.d},)")
    xi = sample_pgg(cfg.pgg, rng, size=cfg.n)
    coef, w = _two_point(pot, cfg.mu, cfg.pgg.p, x, xi)
    finite = np.isfinite(coef)
    if not finite.all():
        # blame x itself when its own value is the non-finite one
        bad = x if not np.isfinite(pot.value(x)) else x + cfg.mu * xi[int(np.argmin(finite))]
        raise EvaluationError("potential evaluated to a non-finite value", point=bad)
    value = np.mean(coef[:, None] * w, axis=0)
    return GradientEstimate(value=value, draws_used=cfg.n, function_evals=cfg.n + 1)


def smoothed_value_mc(pot: RegularizedPotential, cfg: SmoothingConfig, x: np.ndarray,
                      m: int, rng: np.random.Generator, return_se: bool = False):
    """Monte Carlo estimate (1/m) sum U_bar(x + mu*xi_i) of U_bar_mu(x)."""
    if m < 1:
        raise ParameterError(f"sample count must be >= 1, got {m}")
    x = np.asarray(x, dtype=float)
    xi = sample_pgg(cfg.pgg, rng, size=m)
    vals = pot.value(x + cfg.mu * xi)
    mean = float(np.mean(vals))
    if not return_se:
        return mean
    se = float(np.std(vals, ddof=1) / np.sqrt(m)) if m > 1 else float("inf")
    return mean, se


def smoothed_gradient_reference(pot: RegularizedPotential, cfg: SmoothingConfig,
                                x: np.ndarray, m: int, rng: np.random.Generator,
                                use_closed_form: bool = True) -> np.ndarray:
    """High-accuracy reference for grad U_bar_mu(x).

    Uses the registered closed form when the potential admits one (quadratic
    family: grad U_bar_mu = (c + lam) x); otherwise averages the gradient
    identity over m draws.  m >= 1e3 recommended for Monte Carlo references.
    """
    x = np.asarray(x, dtype=float)
    if use_closed_form and pot.has_exact_smoothing:
        return pot.smoothed_grad(x, cfg.mu, cfg.pgg)
    if m < 1:
        raise ParameterError(f"reference draw count must be >= 1, got {m}")
    xi = sample_pgg(cfg.pgg, rng, size=m)
    return grad_estimate_from_draws(pot, cfg.mu, cfg.pgg.p, x, xi)


def _base_constants(pot) -> tuple[float, float, int]:
    base = pot.base if isinstance(pot, RegularizedPotential) else pot
    return base.L, base.alpha, base.d


def lemma1_gap_bound(pot, mu: float, p: float) -> float:
    """Smoothing gap bound L mu^(1+alpha) d^((1+alpha)/p) / (1+alpha).

    This is the simplified large-d form; for small d it can undershoot the
    true gap (see ``lemma1_gap_envelope``).  Accepts a base or regularized
    potential; the regularizer's own gap contribution is not included.
    """
    if not mu > 0:
        raise ParameterError(f"smoothing radius must be > 0, got {mu}")
    L, alpha, d = _base_constants(pot)
    return L * mu ** (1.0 + alpha) * d ** ((1.0 + alpha) / p) / (1.0 + alpha)


def lemma1_gap_envelope(pot, mu: float, p: float) -> float:
    """Pre-simplification gap envelope, valid at every dimension.

    L mu^(1+alpha) (2 d (d+p) / p)^((1+alpha)/(2p)) / (1+alpha).  The
    simplified d^((1+alpha)/p) form drops a (1 + p/d)-ish factor that only
    vanishes asymptotically, so dominance tests at small d use this form.
    """
    if not mu > 0:
        raise ParameterError(f"smoothing radius must be > 0, got {mu}")
    L, alpha, d = _base_constants(pot)
    base = 2.0 * d * (d + p) / p
    return L * mu ** (1.0 + alpha) * base ** ((1.0 + alpha) / (2.0 * p)) / (1.0 + alpha)


def _mc_reference(pot: RegularizedPotential, cfg: SmoothingConfig, x: np.ndarray, m: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo reference for grad U_bar_mu(x) from m >= 2 draws.

    Returns the mean of the m summands and the per-coordinate variance of
    that mean; neither depends on the batch size cfg.n.
    """
    if m < 2:
        raise ParameterError(f"reference draw count must be >= 2, got {m}")
    xi = sample_pgg(cfg.pgg, rng, size=m)
    coef, w = _two_point(pot, cfg.mu, cfg.pgg.p, np.asarray(x, dtype=float), xi)
    summands = coef[:, None] * w
    return summands.mean(axis=0), summands.var(axis=0, ddof=1) / m


def measure_bias_variance(pot: RegularizedPotential, cfg: SmoothingConfig, x: np.ndarray,
                          trials: int, rng: np.random.Generator,
                          reference_draws: int | None = None,
                          reference: tuple[np.ndarray, np.ndarray] | None = None,
                          ) -> BiasVarianceReport:
    """Empirical bias and variance of the estimator at x over independent trials.

    The reference gradient is ``reference`` when given, a ``(ref, ref_var)``
    pair from ``_mc_reference`` at the same potential, mu, p and x; then no
    reference draws are taken, so a sweep over n at one point computes it
    once.  Otherwise it is the closed form when available, else a Monte Carlo
    average over ``reference_draws`` >= 2 draws taken after the trials
    (default 100 * trials so the reference error is negligible against the
    quantities being certified).  Standard errors accompany both empirical
    statistics; stochastic assertions downstream use 4 standard errors.
    """
    if trials < 2:
        raise ParameterError(f"need at least 2 trials, got {trials}")
    x = np.asarray(x, dtype=float)
    d = cfg.pgg.d
    p = cfg.pgg.p

    xi = sample_pgg(cfg.pgg, rng, size=(trials, cfg.n))
    g = grad_estimate_from_draws(pot, cfg.mu, p, x, xi)  # (trials, d)
    gbar = g.mean(axis=0)
    gvar = g.var(axis=0, ddof=1)  # per-coordinate

    if reference is not None:
        ref, ref_var = reference
    elif pot.has_exact_smoothing:
        ref = pot.smoothed_grad(x, cfg.mu, cfg.pgg)
        ref_var = np.zeros(d)
    else:
        m = int(reference_draws) if reference_draws is not None else 100 * trials
        ref, ref_var = _mc_reference(pot, cfg, x, m, rng)

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
