"""Bound-verification suites shared by the CLI and the acceptance tests.

Each suite exercises one family of closed-form claims at desk scale and
returns a structured pass/fail record per check.  Stochastic assertions use
4 standard errors (per-assertion false-failure rate below 1e-4) unless the
acceptance contract states a different tolerance.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from itertools import permutations

import numpy as np

from .lmc import InitSpec, LmcConfig, bounds_table, run_chain
from .pgg import (PggSpec, _check_count, _empty, pgg_norm_moment, pgg_sq_norm_moment_bound,
                  sample_pgg)
from .potentials import get_potential, lemma1_gap_envelope, regularize, smoothness_constant_M
from .smoothing import (_BLOCK_BYTES, SmoothingConfig, _coefficients, hadamard_weight,
                        measure_bias_variance, smoothed_value_mc)
from .transport import _assignment_w2, _sorted_w2, w2_to_gaussian

__all__ = ["Check", "SuiteResult", "SUITE_NAMES", "run_suites",
           "suite_moments", "suite_lemma1", "suite_lemma2", "suite_mixing",
           "suite_mixing_variance", "suite_mixing_dominance", "suite_transport",
           "DOMINANCE_CONFIGS", "DOMINANCE_LAM", "DOMINANCE_ETA",
           "DOMINANCE_STEPS", "DOMINANCE_CHAINS"]


@dataclass
class Check:
    name: str
    passed: bool
    observed: float
    limit: float | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SuiteResult:
    suite: str
    checks: list[Check] = field(default_factory=list)
    seconds: float = 0.0          # set by run_suites

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"suite": self.suite, "passed": self.passed, "seconds": self.seconds,
                "checks": [c.to_dict() for c in self.checks]}


def _lemma1_corpus(d: int):
    return [
        get_potential("quadratic", d),
        get_potential("power", d, alpha=0.25),
        get_potential("power", d, alpha=0.5),
        get_potential("power", d, alpha=0.75),
        get_potential("l1", d),
        get_potential("huber", d, delta=0.5),
    ]


# ---------------------------------------------------------------------------
# Moments (Lemma 4 formulas)
# ---------------------------------------------------------------------------


def suite_moments(seed: int = 1001, draws: int = 1_000_000) -> SuiteResult:
    """Monte Carlo vs the Gamma-ratio moment formula on the (p, d, n) grid.

    One N_p(0, I_5) draw block per p serves every d: the first d
    coordinates of an N_p(0, I_5) draw are an exact N_p(0, I_d) draw.  It
    is drawn in the layout it is evaluated in: the numbers of a
    ``(draws, 5)`` draw, in the same order, fill a ``(5, draws)`` block
    coordinate-major, row j holding coordinate j of every draw.  Every p
    refills one buffer, which is overwritten in place, row by row, with the
    running sum of |xi_j|^p over j, so row d - 1 holds ||xi||_p^p for that
    d.  Checks in the same p therefore share draws; each still uses all
    ``draws`` draws and a 4-SE test.  Each p has its own child generator of
    ``seed``.  ``draws`` is an integer >= 2, else ``ParameterError``.
    """
    draws = _check_count(draws, "moment draw count", 2)
    result = SuiteResult(suite="moments")
    ps, orders, dims = (1.0, 1.5, 2.0), (1.0, 2.0, 4.0), (1, 3, 5)

    xi = _empty((dims[-1], draws), "the moment draws")
    for p, rng in zip(ps, np.random.default_rng(seed).spawn(len(ps))):
        sample_pgg(PggSpec(p=p, d=dims[-1]), rng, size=draws, out=xi.reshape(draws, dims[-1]))
        np.abs(xi, out=xi)
        xi **= p
        for j in range(1, dims[-1]):
            xi[j] += xi[j - 1]
        for d in dims:
            spec = PggSpec(p=p, d=d)
            norms = xi[d - 1] ** (1.0 / p)
            for order in orders:
                vals = norms**order
                mc = float(vals.mean())
                # einsum's one-thread sum, not BLAS's dot, whose order moves
                # with its thread count
                var = (float(np.einsum("i,i->", vals, vals)) - draws * mc * mc) / (draws - 1)
                se = math.sqrt(var / draws)
                exact = pgg_norm_moment(spec, order)
                result.checks.append(Check(
                    name=f"mc_moment[p={p},d={d},n={order:g}]",
                    passed=abs(mc - exact) <= 4.0 * se,
                    observed=mc, limit=exact,
                    detail=f"|mc - exact| = {abs(mc - exact):.3e}, 4*SE = {4 * se:.3e}",
                ))
                # Sandwich: d^floor(n/p) <= E||xi||_p^n <= (d + n/2)^(n/p).
                # The lower bound's monotonicity argument fails at d = 1 with
                # n < p (Gamma decreases below ~1.46 and E|x|^n can dip under
                # 1 there), so it is asserted only on its valid region.
                lower = d ** math.floor(order / p)
                lower_ok = (exact >= lower * (1 - 1e-12)) or (d == 1 and order < p)
                upper = (d + order / 2.0) ** (order / p)
                result.checks.append(Check(
                    name=f"sandwich[p={p},d={d},n={order:g}]",
                    passed=lower_ok and exact <= upper * (1 + 1e-12),
                    observed=exact, limit=upper,
                    detail=f"lower = {lower:.6g} (asserted only for d >= 2 or n >= p), "
                           f"upper = {upper:.6g}",
                ))

    # Closed-form spot identities, analytic up to floating point.
    for d in (1, 3, 5):
        m2 = pgg_norm_moment(PggSpec(p=2.0, d=d), 2.0)
        result.checks.append(Check(
            name=f"spot_gaussian_sq_norm[d={d}]",
            passed=abs(m2 - d) <= 1e-12 * d, observed=m2, limit=float(d),
        ))
        m1 = pgg_norm_moment(PggSpec(p=1.0, d=d), 1.0)
        result.checks.append(Check(
            name=f"spot_laplace_l1_norm[d={d}]",
            passed=abs(m1 - d) <= 1e-12 * d, observed=m1, limit=float(d),
        ))
    return result


# ---------------------------------------------------------------------------
# Smoothing gap and smoothed-gradient Lipschitz constant (Lemma 1)
# ---------------------------------------------------------------------------


def suite_lemma1(seed: int = 1002) -> SuiteResult:
    points, gap_draws, pairs, lipschitz_draws = 20, 20_000, 1000, 4000
    # one child generator per p serves that p's gap and Lipschitz parts for every base
    rngs = dict(zip((1.0, 2.0), np.random.default_rng(seed).spawn(2)))
    result = SuiteResult(suite="lemma1")
    d, lam = 3, 0.5

    for base in _lemma1_corpus(d):
        pot = regularize(base, lam)
        for p, rng in rngs.items():
            for mu in (0.5, 0.1):
                X = rng.normal(scale=1.5, size=(points, d))
                smoothed, se = smoothed_value_mc(pot, mu, p, X, gap_draws, rng)
                gap = smoothed - pot.value(X)
                # Regularizer contributes exactly (lam/2) mu^2 E||xi||^2,
                # covered by the same (d+1)^(2/p) envelope used inside a.
                bound = (lemma1_gap_envelope(base, mu, p) + 0.5 * lam * mu**2
                         * pgg_sq_norm_moment_bound(PggSpec(p=p, d=d)))
                worst_low = float((gap + 4 * se).min())
                worst_high = float((gap - 4 * se - bound).max())
                result.checks.append(Check(
                    name=f"gap_nonneg[{base.name},p={p},mu={mu}]",
                    passed=worst_low >= 0.0, observed=worst_low, limit=0.0,
                    detail=f"min over {points} points of gap + 4*SE",
                ))
                result.checks.append(Check(
                    name=f"gap_bound[{base.name},p={p},mu={mu}]",
                    passed=worst_high <= 0.0, observed=worst_high, limit=0.0,
                    detail=f"max of gap - 4*SE - bound, bound = {bound:.6g}",
                ))

        # Smoothed-gradient Lipschitz constant M + lam at mu = 0.1.
        mu = 0.1
        for p, rng in rngs.items():
            spec = PggSpec(p=p, d=d)
            M = smoothness_constant_M(pot, mu, p)
            x = rng.normal(scale=2.0, size=(pairs, d))
            y = x + rng.normal(size=(pairs, d)) * rng.uniform(0.01, 3.0, size=(pairs, 1))
            dist = np.linalg.norm(x - y, axis=1)
            if pot.has_exact_smoothing:
                delta = np.linalg.norm(pot.smoothed_grad(x) - pot.smoothed_grad(y), axis=1)
                tol = np.full(pairs, 1e-9)
            else:
                # shared draws make differences of references nearly noise-free;
                # the (pairs, m) coefficients are built a few pairs at a time,
                # whose C-order (pairs, m, d) points fit a cache-sized block
                xi = sample_pgg(spec, rng, size=lipschitz_draws)
                shift = mu * xi
                w = hadamard_weight(xi, p)                      # (m, d)
                step = max(1, _BLOCK_BYTES // xi.nbytes)
                coef_x, coef_y = (np.empty((pairs, lipschitz_draws)) for _ in "xy")
                for ends, coef in ((x, coef_x), (y, coef_y)):
                    for start in range(0, pairs, step):
                        block = ends[start:start + step]
                        coef[start:start + step] = _coefficients(
                            pot, mu, block, np.add(block[:, None, :], shift, order="C"))
                delta = np.linalg.norm(coef_x @ w / lipschitz_draws
                                       - coef_y @ w / lipschitz_draws, axis=1)
                wsq = np.sum(w * w, axis=1)
                second = (coef_x - coef_y) ** 2 @ wsq / lipschitz_draws
                tr_cov = np.maximum(second - delta**2, 0.0)
                tol = 4.0 * np.sqrt(tr_cov / lipschitz_draws)
            slack = delta - (M + lam) * dist - tol
            result.checks.append(Check(
                name=f"lipschitz[{base.name},p={p},mu={mu}]",
                passed=bool((slack <= 0).all()), observed=float(slack.max()), limit=0.0,
                detail=f"M + lam = {M + lam:.6g}, {pairs} pairs, max slack shown",
            ))
    return result


# ---------------------------------------------------------------------------
# Estimator bias / variance (Lemma 2)
# ---------------------------------------------------------------------------


def suite_lemma2(seed: int = 1003) -> SuiteResult:
    rng = np.random.default_rng(seed)
    trials = 10_000
    result = SuiteResult(suite="lemma2")
    d, p, mu, lam = 4, 2.0, 0.1, 0.5
    x = rng.normal(size=d)

    for base_name, base in (("quadratic", get_potential("quadratic", d)),
                            ("power", get_potential("power", d, alpha=0.5))):
        pot = regularize(base, lam)
        ns = (1, 10, 20, 50, 100)
        reports = dict(zip(ns, measure_bias_variance(pot, mu, p, x, ns, trials, rng)))
        for n in (1, 10, 100):
            rep = reports[n]
            result.checks.append(Check(
                name=f"bias_bound[{base_name},n={n}]",
                passed=rep.empirical_bias_norm_sq <= rep.bias_bound + 4 * rep.bias_se,
                observed=rep.empirical_bias_norm_sq,
                limit=rep.bias_bound,
                detail=f"4*SE = {4 * rep.bias_se:.3e}",
            ))
            result.checks.append(Check(
                name=f"variance_bound[{base_name},n={n}]",
                passed=rep.empirical_variance <= rep.variance_bound + 4 * rep.variance_se,
                observed=rep.empirical_variance,
                limit=rep.variance_bound,
                detail=f"4*SE = {4 * rep.variance_se:.3e}",
            ))
        if base_name == "quadratic":
            rep = reports[10]
            result.checks.append(Check(
                name="quadratic_unbiased[n=10]",
                passed=abs(rep.empirical_bias_norm_sq) <= 4 * rep.bias_se,
                observed=rep.empirical_bias_norm_sq, limit=4 * rep.bias_se,
                detail="estimator is exactly unbiased for quadratics",
            ))
        for n_small, n_big in ((10, 20), (50, 100)):
            ratio = reports[n_small].empirical_variance / reports[n_big].empirical_variance
            result.checks.append(Check(
                name=f"variance_halving[{base_name},{n_small}->{n_big}]",
                passed=abs(ratio / 2.0 - 1.0) <= 0.2,
                observed=ratio, limit=2.0,
                detail="doubling n should halve the variance (20% relative)",
            ))
    return result


# ---------------------------------------------------------------------------
# Mixing: stationary-variance oracle and Theorem-1 dominance
# ---------------------------------------------------------------------------


def _stationary_variance_oracle(lam: float, eta: float) -> float:
    # Exact stationary per-coordinate variance of x' = (1 - eta*lam) x +
    # sqrt(2 eta) zeta:  2 eta / (1 - (1 - eta lam)^2) = 1/(lam (1 - eta lam / 2)).
    return 1.0 / (lam * (1.0 - eta * lam / 2.0))


def suite_mixing_variance(seed: int = 1004, threads: int = 1) -> SuiteResult:
    """Stationary variance against the exact discretized-OU oracle.

    Target curvature comes from the regularizer alone (flat base), so the
    chain is exactly x' = (1 - eta lam) x + sqrt(2 eta) zeta in exact mode
    and the estimator runs are unbiased perturbations of it.
    """
    result = SuiteResult(suite="mixing")
    lam, eta, steps, chains = 1.0, 0.01, 10_000, 1000
    pot = regularize(get_potential("zero", 1, L=1.0, alpha=1.0), lam)
    oracle = _stationary_variance_oracle(lam, eta)

    scfg = SmoothingConfig(mu=0.01, n=50, p=2.0)
    lcfg = LmcConfig(eta=eta, steps=steps, chains=chains, init=InitSpec(), seed=seed)
    res = run_chain(pot, scfg, lcfg, exact_gradient=True, threads=threads)
    s2 = float(np.var(res.final_states[:, 0], ddof=1))
    se = s2 * math.sqrt(2.0 / (chains - 1))
    result.checks.append(Check(
        name="stationary_variance_exact_gradient",
        passed=abs(s2 - oracle) <= 4 * se,
        observed=s2, limit=oracle,
        detail=f"final-state variance over {chains} chains, 4*SE = {4 * se:.3e}",
    ))

    for p in (1.0, 2.0):
        scfg_p = SmoothingConfig(mu=0.01, n=50, p=p)
        lcfg_p = LmcConfig(eta=eta, steps=steps, chains=chains, init=InitSpec(),
                           seed=seed + int(10 * p))
        res_p = run_chain(pot, scfg_p, lcfg_p, thin=10, threads=threads)
        traj = res_p.trajectory[:, res_p.trajectory.shape[1] // 5:, 0]
        pooled = float(np.var(traj, ddof=1))
        result.checks.append(Check(
            name=f"stationary_variance_estimator[p={p}]",
            passed=abs(pooled - oracle) / oracle <= 0.05,
            observed=pooled, limit=oracle,
            detail=f"pooled post-burn-in variance, relative error "
                   f"{abs(pooled - oracle) / oracle:.4f} (tolerance 0.05); "
                   f"evals_total = {res_p.evals_total}",
        ))
    return result


# Known-Gaussian-law configurations spanning alpha x p for the Theorem-1
# dominance check.  The alpha < 1 rows use the flat base (a valid certificate
# for any declared constants) so the target stays exactly Gaussian; n sits
# above the contraction premise's batch-size gate in every row.
DOMINANCE_CONFIGS = (
    # potential name, potential params,              d, p,   mu,   n
    ("quadratic", {},                                2, 2.0, 0.05, 16),
    ("quadratic", {},                                2, 1.0, 0.05, 16),
    ("zero",      {"L": 1.0, "alpha": 0.5},          2, 2.0, 0.10, 16),
    ("zero",      {"L": 1.0, "alpha": 0.5},          2, 1.0, 0.10, 16),
    ("zero",      {"L": 1.0, "alpha": 0.0},          2, 2.0, 0.10, 32),
    ("zero",      {"L": 1.0, "alpha": 0.0},          1, 1.0, 0.10, 40),
)
DOMINANCE_LAM = 1.0
DOMINANCE_ETA = 0.01
DOMINANCE_STEPS = 2000
DOMINANCE_CHAINS = 1024


def suite_mixing_dominance(seed: int = 1004, threads: int = 1) -> SuiteResult:
    """Measured W2 to the known Gaussian target never exceeds the Theorem-1 bound."""
    result = SuiteResult(suite="mixing")
    lam, eta, steps, chains = DOMINANCE_LAM, DOMINANCE_ETA, DOMINANCE_STEPS, DOMINANCE_CHAINS
    for i, (name, params, d, p, mu, n) in enumerate(DOMINANCE_CONFIGS):
        base = get_potential(name, d, **params)
        label = f"alpha={params.get('alpha', base.alpha)},p={p:g}"
        pot = regularize(base, lam)
        scfg = SmoothingConfig(mu=mu, n=n, p=p)
        lcfg = LmcConfig(eta=eta, steps=steps, chains=chains, init=InitSpec(),
                         seed=seed + 100 + i)
        bound = bounds_table(pot, scfg, lcfg)["theorem1"]
        res = run_chain(pot, scfg, lcfg, threads=threads)
        measured = w2_to_gaussian(res.final_states, pot.target_variance, resamples=5,
                                  rng=np.random.default_rng(seed + 500 + i))
        result.checks.append(Check(
            name=f"theorem1_dominance[{label}]",
            passed=measured.mean <= bound["w2_mixing"],
            observed=measured.mean, limit=bound["w2_mixing"],
            detail=f"measured W2 {measured.mean:.4f} +- {measured.std:.4f} vs bound "
                   f"{bound['w2_mixing']:.4f}; {bound['notes']['batch_size_gate']}",
        ))
    return result


def suite_mixing(seed: int = 1004, threads: int = 1) -> SuiteResult:
    """Both mixing parts: stationary-variance oracle plus Theorem-1 dominance."""
    part1 = suite_mixing_variance(seed=seed, threads=threads)
    part2 = suite_mixing_dominance(seed=seed, threads=threads)
    return SuiteResult(suite="mixing", checks=part1.checks + part2.checks)


# ---------------------------------------------------------------------------
# Transport solver correctness
# ---------------------------------------------------------------------------


def suite_transport(seed: int = 1005) -> SuiteResult:
    # the solver and the sorted matching themselves, on sets that are finite and (N, d)
    rng = np.random.default_rng(seed)
    result = SuiteResult(suite="transport")

    worst_gap = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 4))
        a = rng.normal(size=(n, d))
        b = rng.normal(size=(n, d))
        cost = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
        brute = min(cost[np.arange(n), perm].sum() for perm in permutations(range(n)))
        solver = _assignment_w2(a, b)
        gap = abs(solver - math.sqrt(brute / n))
        worst_gap = max(worst_gap, gap)
    result.checks.append(Check(
        name="assignment_equals_bruteforce",
        passed=worst_gap == 0.0, observed=worst_gap, limit=0.0,
        detail="100 random instances with N <= 8",
    ))

    worst_rel = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 258))
        a = rng.normal(size=(n, 1))
        b = rng.normal(size=(n, 1)) + rng.normal()
        v1, v2 = _sorted_w2(a, b), _assignment_w2(a, b)
        worst_rel = max(worst_rel, abs(v1 - v2) / max(v1, 1e-300))
    result.checks.append(Check(
        name="sorted_matching_is_1d_optimum",
        passed=worst_rel <= 1e-12, observed=worst_rel, limit=1e-12,
    ))

    worst_sym, worst_tri = 0.0, -math.inf
    for _ in range(25):
        n = int(rng.integers(4, 65))
        d = int(rng.integers(1, 4))
        sets = [rng.normal(size=(n, d)) for _ in range(3)]
        ab = _assignment_w2(sets[0], sets[1])
        ba = _assignment_w2(sets[1], sets[0])
        bc = _assignment_w2(sets[1], sets[2])
        ac = _assignment_w2(sets[0], sets[2])
        worst_sym = max(worst_sym, abs(ab - ba))
        worst_tri = max(worst_tri, ac - (ab + bc))
    result.checks.append(Check(
        name="metric_symmetry", passed=worst_sym <= 1e-9, observed=worst_sym, limit=1e-9,
    ))
    result.checks.append(Check(
        name="metric_triangle_inequality", passed=worst_tri <= 1e-9,
        observed=worst_tri, limit=1e-9,
        detail="max of W2(a,c) - W2(a,b) - W2(b,c) over random triples",
    ))
    return result


SUITE_NAMES = {
    "moments": suite_moments,
    "lemma1": suite_lemma1,
    "lemma2": suite_lemma2,
    "mixing": suite_mixing,
    "transport": suite_transport,
}


def run_suites(name: str, seed: int | None = None, threads: int = 1) -> list[SuiteResult]:
    """Run one named suite, or all of them, timing each; unknown names raise KeyError."""
    names = list(SUITE_NAMES) if name == "all" else [name]
    out = []
    for key in names:
        kwargs = {} if seed is None else {"seed": seed}
        if key == "mixing":  # the one suite that runs chains
            kwargs["threads"] = threads
        t0 = time.perf_counter()
        result = SUITE_NAMES[key](**kwargs)
        result.seconds = time.perf_counter() - t0
        out.append(result)
    return out
