"""Langevin Monte Carlo driver and the mixing-time theory bounds.

One step of the chain is

    x_{k+1} = x_k - eta * g(x_k) + sqrt(2 eta) * zeta_k,

where g is the black-box smoothing estimator (or the registered exact
smoothed gradient in ablation mode) and zeta_k ~ N(0, I_d).  The injected
noise is ALWAYS standard Gaussian: only the gradient-point perturbation uses
the p-generalized law.  Conflating the two is the likeliest implementation
bug, so they are named distinctly throughout (xi = smoothing draws,
zeta/noise = injected diffusion).

Chains are reproducible and scheduling-independent: chain c consumes only the
generator spawned from (master seed, c), in a fixed order (the init draw when
the initial law has a positive scale, then per chunk one smoothing block
followed by one noise block), so the result is identical for any thread
count.  Fresh draws are taken every iteration, never reused across steps.
Each block of chains draws every chain's smoothing block for a chunk in one
``sample_pgg`` call, one row per chain's generator; a row consumes what a
call on that generator alone would, so grouping the calls changes no stream.

The closed-form bounds have one composition, ``bounds_table``: at one config
it returns the Lemma-3 smoothing drift and the seven itemized Theorem-1
terms, with the minimizer x* and the second-moment constant C taken as 0.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ParameterError, StepSizeError
from .potentials import (RegularizedPotential, _sq_norm, lemma1_gap_bound, max_step_size,
                         perturbation_scale_a, smoothness_constant_M)
from .smoothing import SmoothingConfig, _rows_innermost, grad_estimate_from_draws
from .pgg import PggSpec, _check_count, _check_positive, _empty, _real, sample_pgg

__all__ = [
    "InitSpec",
    "LmcConfig",
    "ChainResult",
    "check_step_size",
    "outside_guard",
    "run_chain",
    "initial_w2",
    "bounds_table",
    "geometric_factor",
]

_DIVERGE_NORM = 1e8
# Smoothing draws are pre-generated in chunks of steps; the chunk length is a
# pure function of the config so trajectories do not depend on scheduling.
_CHUNK_ELEMS = 8_000_000
# LmcConfig's counts as (field, what, least value), which the config layer checks too
_COUNTS = (("steps", "step count", 0), ("chains", "chain count", 1), ("seed", "seed", 0))


@dataclass(frozen=True)
class InitSpec:
    """Initial law N(center, scale^2 I_d); the default scale 0 is a point mass, drawing nothing."""

    center: float | list | np.ndarray = 0.0
    scale: float = 0.0

    def __post_init__(self):
        if not (_real(self.scale) and 0 <= self.scale < math.inf):
            raise ParameterError(f"init scale must be finite and >= 0, got {self.scale!r}")


@dataclass(frozen=True)
class LmcConfig:
    """Step size, horizon, chain count, initial law, and the master seed.

    steps = 0 is allowed as a degenerate edge (final states are init draws).
    The step-size cap 2/(M + 2 lam) depends on the potential and smoothing
    parameters, so it is enforced where they meet (run_chain / the harness).
    """

    eta: float
    steps: int
    chains: int
    init: InitSpec = field(default_factory=InitSpec)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "eta", _check_positive(self.eta, "step size"))
        for name, what, low in _COUNTS:
            object.__setattr__(self, name, _check_count(getattr(self, name), what, low))


@dataclass
class ChainResult:
    final_states: np.ndarray            # (chains, d)
    trajectory: Optional[np.ndarray]    # (chains, steps // thin, d), slot k at step thin (k + 1)
    evals_total: int
    divergence_step: np.ndarray         # (chains,) int, -1 where healthy

    @property
    def diverged(self) -> np.ndarray:
        """(chains,) bool: the chains the step guard stopped."""
        return self.divergence_step >= 0


def check_step_size(pot: RegularizedPotential, mu: float, p: float, eta: float) -> float:
    """Validate eta < 2/(M + 2 lam); returns the cap."""
    cap = max_step_size(pot, mu, p)
    if not eta < cap:
        raise StepSizeError(
            f"step size {eta} violates the stability cap 2/(M + 2*lam) = {cap:.6g}"
        )
    return cap


def outside_guard(states: np.ndarray) -> np.ndarray:
    """Rows of a (chains, d) block the step guard rejects: norm above 1e8 or not finite."""
    # a non-finite coordinate makes the squared norm NaN or inf
    return ~(_sq_norm(states) <= _DIVERGE_NORM**2)


def _w2_skip_reason(res: ChainResult) -> Optional[str]:
    """Why a run's final states are no sample to measure W2 on, or None if they are one.

    One point is no sample of a law, a diverged chain's last state says
    nothing about the target, and a state beyond the step guard (only an
    init beyond it, with steps = 0) overflows the transport costs.
    """
    if len(res.final_states) == 1:
        return "a single chain"
    if res.diverged.any():
        return "a chain diverged"
    if outside_guard(res.final_states).any():
        return "a final state lies beyond the step guard"
    return None


def _step(pot: RegularizedPotential, scfg: SmoothingConfig, eta: float, x: np.ndarray,
          xi: Optional[np.ndarray], noise: np.ndarray,
          work: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """One update of a (chains, d) batch; returns the candidates and the guard's flags.

    xi holds the (chains, n, d) smoothing draws, or is None for the exact
    smoothed gradient; noise holds the (chains, d) standard Gaussian draws;
    work, if given, is the estimator's scratch, of xi's shape and layout.  A
    registry potential gives the same bits in any layout of x and xi.
    """
    if xi is None:
        g = pot.smoothed_grad(x)
    else:
        g = grad_estimate_from_draws(pot, scfg.mu, scfg.p, x, xi, work=work)
    # the candidate x - eta g + sqrt(2 eta) noise, built in g's buffer
    g *= eta
    np.subtract(x, g, out=g)
    g += math.sqrt(2.0 * eta) * noise
    return g, outside_guard(g)


def _cores() -> int:
    """CPUs this process may run on: its affinity mask where the OS keeps one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chain_groups(threads: int, chains: int) -> int:
    """How many worker threads run_chain runs ``chains`` chains on at ``threads``.

    A CPU-bound black box gains nothing from more workers than cores, and no
    block of chains holds a single chain unless the run has only one: at
    d = 1 a one-chain block's draw axis is contiguous, so numpy would sum it
    pairwise where a larger block sums it in order, and the worker count
    would change the results.
    """
    return max(1, min(threads, chains // 2, _cores()))


def _init_center(init: InitSpec, d: int) -> np.ndarray:
    """The init center broadcast to (d,); ParameterError unless it is finite and broadcasts."""
    try:
        center = np.asarray(init.center, dtype=float)
        if np.isfinite(center).all():  # checked before it broadcasts: a scalar is one value
            return np.broadcast_to(center, (d,))
    except (TypeError, ValueError):
        pass
    raise ParameterError(f"init center must be a finite number or {d} finite numbers, "
                         f"got {init.center!r}")


def _init_states(init: InitSpec, center: np.ndarray, rngs, indices) -> np.ndarray:
    if not init.scale:
        return np.tile(center, (len(indices), 1))
    return np.stack([center + init.scale * rngs[c].standard_normal(len(center))
                     for c in indices])


def run_chain(pot: RegularizedPotential, scfg: SmoothingConfig, lcfg: LmcConfig, *,
              exact_gradient: bool = False, thin: Optional[int] = None,
              threads: int = 1) -> ChainResult:
    """Run independent chains; deterministic given (seed, chain index).

    Divergence (a non-finite state, a non-finite black-box value included,
    or a norm above 1e8) aborts the offending chain only: its last finite
    state is reported along with the step index.
    ``evals_total`` counts potential evaluations, (n + 1) per live chain per
    step in estimator mode and 0 in exact-gradient ablation mode.
    With ``thin``, an integer >= 1, every ``thin``-th state is kept as the
    trajectory; without it, no trajectory is stored.  The chains run on
    max(1, min(threads, chains // 2, cores)) worker threads, cores being the
    CPUs this process may run on; the cap assumes a CPU-bound black box.
    They are split once into blocks, one per worker unless the workers'
    one-step draws exceed the draw budget together, and then into more
    blocks, whose one-step draws fit it together where two-chain blocks
    allow it.  Every block holds at least two chains unless the run has
    only one, so the results depend on neither ``threads`` nor the budget.
    An interrupt or an exception in one block stops every other block at
    its next chunk.
    """
    d = pot.d
    spec = PggSpec(scfg.p, d)
    check_step_size(pot, scfg.mu, scfg.p, lcfg.eta)
    if exact_gradient and not pot.has_exact_smoothing:
        raise ParameterError(
            f"potential {pot.base.name!r} has no registered exact smoothed gradient")
    steps, chains, n = lcfg.steps, lcfg.chains, scfg.n
    thin = None if thin is None else _check_count(thin, "thinning")
    center = _init_center(lcfg.init, d)

    children = np.random.SeedSequence(lcfg.seed).spawn(chains)
    rngs = [np.random.Generator(np.random.PCG64(s)) for s in children]

    per_chain = d * (1 if exact_gradient else n)
    chunk = max(1, min(steps, _CHUNK_ELEMS // (chains * per_chain))) if steps else 1
    workers = _chain_groups(threads, chains)
    # Blocks of chains, each stepped at once on a worker: one per worker,
    # unless the workers' one-step draws exceed the budget together; then
    # more, smaller blocks, of two chains at the least, as _chain_groups
    # keeps them.  A chain draws the same in any block.
    blocks = np.array_split(np.arange(chains), max(workers, min(
        chains // 2, -(-chains * per_chain * workers // _CHUNK_ELEMS))))
    slots = steps // thin if thin else 0

    final = np.empty((chains, d))
    traj = np.zeros((chains, slots, d)) if slots else None
    div_step = np.full(chains, -1, dtype=np.int64)
    stop = threading.Event()

    def advance(indices: np.ndarray) -> None:
        rows = len(indices)
        x = _init_states(lcfg.init, center, rngs, indices)
        alive = np.ones(rows, dtype=bool)
        # one smoothing block, then one noise block, per chain and chunk,
        # written into buffers that are reused across chunks; one sampler call
        # draws every chain's smoothing block, each from the chain's generator,
        # into the C-contiguous front of one flat buffer
        gens = [rngs[c] for c in indices]
        buf = None if exact_gradient else _empty(rows * chunk * n * d, "one chunk's draws")
        noise = np.empty((rows, chunk, d))
        # Each step's draws are copied into a (chains, n, d) buffer held chain
        # axis innermost: numpy's inner loops then run over the chains, not
        # over d coordinates, and the state is (d, chains) memory to match.
        xi_view = None if buf is None else _rows_innermost((rows, n, d))
        x = np.asfortranarray(x)
        work = None if xi_view is None else np.empty_like(xi_view)  # points, then summands
        k = 0
        while k < steps and not stop.is_set():
            m = min(chunk, steps - k)
            if buf is not None:
                xi = sample_pgg(spec, gens, size=(m, n),
                                out=buf[:rows * m * n * d].reshape(rows, m, n, d))
            for i, rng in enumerate(gens):
                rng.standard_normal(out=noise[i, :m])
            # non-finite intermediates are expected on freshly diverged
            # chains; the step guard handles them
            with np.errstate(over="ignore", invalid="ignore"):
                for j in range(m):
                    if buf is not None:
                        np.copyto(xi_view, xi[:, j])
                    cand, bad = _step(pot, scfg, lcfg.eta, x, xi_view, noise[:, j], work)
                    step_no = k + j + 1
                    if bad.any():
                        newly = alive & bad
                        if newly.any():
                            div_step[indices[newly]] = step_no
                        alive &= ~bad
                    if alive.all():
                        x = cand
                    else:
                        np.copyto(x, cand, where=alive[:, None])
                    if traj is not None and step_no % thin == 0:
                        traj[indices, step_no // thin - 1] = x
            k += m
        final[indices] = x

    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            for done in as_completed([pool.submit(advance, b) for b in blocks]):
                done.result()
        except BaseException:
            # Ctrl-C, or the first block to fail: the others stop at their next chunk
            stop.set()
            raise

    # a chain that diverged at step s was live, and evaluated, on steps 1..s
    live_steps = int(np.where(div_step >= 0, div_step, steps).sum())
    return ChainResult(
        final_states=final,
        trajectory=traj,
        evals_total=0 if exact_gradient else (n + 1) * live_steps,
        divergence_step=div_step,
    )


# ---------------------------------------------------------------------------
# Theory bounds
# ---------------------------------------------------------------------------


def geometric_factor(lam: float, eta: float, steps: int) -> float:
    """(1 - 0.5 lam eta)^(steps/2), clamped at 0 once the base hits 0."""
    base = max(0.0, 1.0 - 0.5 * lam * eta)
    return base ** (steps / 2.0)


def initial_w2(pot: RegularizedPotential, init: InitSpec) -> float:
    """Distance from the initial law to the smoothed regularized target.

    Exact for the quadratic family (the smoothed target is the same Gaussian
    as the unsmoothed one); otherwise an upper bound via the point mass at
    the symmetric minimizer plus the d/lam second-moment envelope.
    """
    d = pot.d
    spread = float(init.scale)
    # hypot of the center's coordinates and the spread term: the root of the
    # sum of squares, without overflowing where the squares would; a scalar
    # center's d equal coordinates enter as their norm, so no d values are built
    center = _init_center(init, d)
    coords = [abs(float(center[0])) * math.sqrt(d)] if center.strides == (0,) else center.tolist()
    variance = pot.target_variance
    if variance is not None:
        return math.hypot(*coords, math.sqrt(d) * (spread - math.sqrt(variance)))
    return math.hypot(*coords, math.sqrt(d) * spread) + math.sqrt(d / pot.lam)


def bounds_table(pot: RegularizedPotential, scfg: SmoothingConfig, lcfg: LmcConfig) -> dict:
    """Every closed-form bound at one config: the one Theorem-1 composition.

    M, a, the step-size cap, the Lemma-1 gap, both Lemma-3 forms and the
    seven itemized terms of the mixing bound on W2(law of x_K, target), with
    ``initial_w2`` as w2_init.  The minimizer x* is taken as 0 (every
    registry potential is symmetric, as ``initial_w2`` assumes), so Lemma 3
    reads W2^2 <= 4 d / lam (a + e^a - 1), or 3 sqrt(d a / lam) when
    a <= 0.1.  The second-moment constant C of the term C lam (d log d)^4
    is unspecified and taken as 0, so the sum bounds the distance to the
    *regularized* target exp(-U_bar) rather than exp(-U); the notes say so.
    """
    mu, p = scfg.mu, scfg.p
    d, lam, n = pot.d, pot.lam, scfg.n
    eta, steps = lcfg.eta, lcfg.steps
    w2_init = initial_w2(pot, lcfg.init)
    if not w2_init < math.inf:  # finite inputs, so only a far init overflows it
        raise ParameterError(f"init center {lcfg.init.center!r} (scale {lcfg.init.scale}) "
                             f"is too far out: the initial W2 distance overflows")
    cap = check_step_size(pot, mu, p, eta)
    M = float(smoothness_constant_M(pot, mu, p))

    a = perturbation_scale_a(pot, mu, p)
    try:
        w2_sq = 4.0 * d / lam * (a + math.expm1(a))
    except OverflowError:
        raise ParameterError(f"the Lemma-3 bound overflows a float: e^a with a = {a:.6g}") from None
    simplified = 3.0 * math.sqrt(d * a / lam)
    # tolerance so a computed to land exactly on the 0.1 boundary still counts
    applicable = a <= 0.1 * (1.0 + 1e-12)

    terms = {
        "geometric": geometric_factor(lam, eta, steps) * w2_init,
        "discretization": 1.9 * (M + lam) / lam * math.sqrt(eta * d),
        "smoothing_bias": 2.0 * (M + lam) / lam * mu * d ** (1.0 / p),
        "smoothing_w2": simplified if applicable else math.sqrt(w2_sq),
        "variance_mu": (M + lam) * mu * (d + 3.0) ** (3.0 / p) * math.sqrt(eta / (lam * n)),
        "variance_grad": (math.sqrt((M + lam) / lam) * math.sqrt(eta * d / n)
                          * (d + 2.0) ** (1.0 / p)),
        "regularization_m2": 0.0,
    }
    # Premise of the geometric contraction: the gradient-noise term must sit
    # below 0.5 lam eta, which caps the admissible batch size from below.
    n_gate = 2.0 * math.sqrt(2.0) * (M + lam) ** 2 * eta * (d + 2.0) ** (2.0 / p) / (
        lam * (1.0 - lam * eta)
    )
    notes = {
        "geometric": f"(1 - 0.5*lam*eta)^(K/2) * w2_init, K = {steps}; the proof "
                     f"carries exponent K (reported as geometric_alt)",
        "discretization": "1.9 (M+lam)/lam sqrt(eta d)",
        "smoothing_bias": "2 (M+lam)/lam mu d^(1/p)",
        "smoothing_w2": ("3 sqrt(d a / lam)" if applicable else "sqrt(4 d/lam (a + e^a - 1)); "
                         "a > 0.1 so the simplified form does not apply"),
        "variance_mu": "(M+lam) mu (d+3)^(3/p) sqrt(eta/(lam n))",
        "variance_grad": "sqrt((M+lam)/lam) sqrt(eta d / n) (d+2)^(1/p)",
        "regularization_m2": "C lam (d log d)^4 with C unspecified and taken as 0: "
                             "bound is to the regularized target",
        "batch_size_gate": f"contraction premise wants n >= {n_gate:.6g}; n = {n} "
                           + ("(satisfied)" if n >= n_gate else "(NOT satisfied)"),
    }
    return {
        "M": M,
        "a": a,
        "max_step_size": cap,
        "lemma1_gap_bound": lemma1_gap_bound(pot.base, mu, p),
        "lemma3": {
            "a": a,
            "w2_sq_general": w2_sq,
            "w2_general": math.sqrt(w2_sq),
            "w2_simplified": simplified,
            "simplified_applicable": applicable,
        },
        "theorem1": {
            "w2_mixing": float(sum(terms.values())),
            "w2_init": w2_init,
            "w2_init_kind": ("exact (Gaussian target)" if pot.target_variance is not None
                             else "upper bound via d/lam second moment"),
            "C": 0.0,
            "terms": terms,
            "notes": notes,
            "geometric_alt_exponent_K": geometric_factor(lam, eta, 2 * steps) * w2_init,
        },
    }
