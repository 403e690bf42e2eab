import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgglmc import (
    InitSpec,
    LmcConfig,
    ParameterError,
    PggSpec,
    Potential,
    SmoothingConfig,
    StepSizeError,
    bounds_table,
    check_step_size,
    geometric_factor,
    get_potential,
    grad_estimate_from_draws,
    initial_w2,
    max_step_size,
    regularize,
    run_chain,
    sample_pgg,
)
from pgglmc import lmc, pgg

HOST_CORES = lmc._cores

pytestmark = pytest.mark.usefixtures("eight_cores")


def quadratic_target(d):
    return regularize(get_potential("zero", d), 1.0)


def one_step(pot, scfg, x, eta, seed=0, exact_gradient=False):
    """One run_chain step of one chain from the point x."""
    lcfg = LmcConfig(eta=eta, steps=1, chains=1, init=InitSpec(center=x), seed=seed)
    return run_chain(pot, scfg, lcfg, exact_gradient=exact_gradient)


def chain_stream(seed):
    """The generator run_chain gives chain 0 of a run with this master seed."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed).spawn(1)[0]))


class TestLmcStep:
    """One chain step is run_chain with a point init, steps=1 and chains=1."""

    def test_pure_diffusion(self):
        # flat total potential: one step is x + sqrt(2 eta) * zeta; replicate
        # the exact draws from the chain's own stream
        base = get_potential("zero", 2)
        pot = regularize(base, 1e-12)
        cfg = SmoothingConfig(mu=0.1, n=3, p=1.5)
        x = np.array([1.0, -1.0])
        out = one_step(pot, cfg, x, 0.5, seed=21).final_states[0]
        rng = chain_stream(21)
        g_draws = sample_pgg(PggSpec(1.5, 2), rng, size=3)
        g = grad_estimate_from_draws(pot, 0.1, 1.5, x, g_draws)
        expected = x - 0.5 * g + math.sqrt(1.0) * rng.standard_normal(2)
        assert np.array_equal(out, expected)

    def test_deterministic_contraction(self):
        # the chain step with the exact gradient and zero injected noise
        pot = quadratic_target(1)
        cfg = SmoothingConfig(mu=0.1, n=1, p=2.0)
        cand, bad = lmc._step(pot, cfg, 0.1, np.array([[1.0]]), None, np.zeros((1, 1)))
        assert cand[0] == pytest.approx([0.9], rel=1e-15)
        assert not bad[0]

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_one_step_moments_from_origin(self, p):
        # E[x_1] = 0 (unbiased estimator at 0 plus centered noise) and
        # Var ~ 2 eta per coordinate; 1e5 single steps via a 1-step chain
        eta, chains = 0.05, 100_000
        pot = quadratic_target(1)
        scfg = SmoothingConfig(mu=0.01, n=2, p=p)
        lcfg = LmcConfig(eta=eta, steps=1, chains=chains, seed=99)
        res = run_chain(pot, scfg, lcfg)
        x1 = res.final_states[:, 0]
        assert abs(x1.mean()) <= 4 * x1.std(ddof=1) / math.sqrt(chains)
        var = x1.var(ddof=1)
        var_se = var * math.sqrt(2.0 / (chains - 1))
        assert abs(var - 2 * eta) <= 4 * var_se + 1e-4

    def test_divergence_is_marked_at_step_one(self):
        # the chain keeps its last finite state, here the init
        pot = quadratic_target(1)
        cfg = SmoothingConfig(mu=0.1, n=1, p=2.0)
        res = one_step(pot, cfg, np.array([1e9]), 0.1, exact_gradient=True)
        assert res.diverged.tolist() == [True]
        assert res.divergence_step.tolist() == [1]
        assert res.final_states.tolist() == [[1e9]]

    def test_eta_validated(self):
        with pytest.raises(ParameterError):
            LmcConfig(eta=0.0, steps=1, chains=1, seed=0)

    def test_exact_mode_needs_closed_form(self):
        pot = regularize(get_potential("l1", 2), 1.0)
        cfg = SmoothingConfig(mu=0.1, n=1, p=2.0)
        with pytest.raises(ParameterError, match="exact smoothed gradient"):
            one_step(pot, cfg, np.zeros(2), 0.01, exact_gradient=True)

    @pytest.mark.parametrize("d", [2, 3, 16])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_is_one_run_chain_step_bitwise(self, d, p):
        # the chain step on a batch of one, fed the chain's own draws in
        # run_chain's order; power rounds differently at one point than
        # inside a batch, so this only holds if run_chain's (n, d, chains)
        # draw buffer hands _step exactly those draws, at every d
        pot = regularize(get_potential("power", d, alpha=0.5), 1.0)
        scfg = SmoothingConfig(mu=0.1, n=4, p=p)
        eta = 0.5 * max_step_size(pot, 0.1, p)
        points = np.random.default_rng(17).normal(scale=2.0, size=(100, d))
        for seed, x in enumerate(points):
            rng = chain_stream(seed)
            xi = sample_pgg(PggSpec(p, d), rng, size=(1, scfg.n))
            cand, _ = lmc._step(pot, scfg, eta, x[None, :], xi, rng.standard_normal((1, d)))
            ref = one_step(pot, scfg, x, eta, seed=seed).final_states[0]
            assert np.array_equal(cand[0], ref), (seed, cand[0] - ref)

    def test_nonfinite_evaluation_is_a_divergence(self):
        # a black box returning NaN marks the chain diverged at step 1
        base = Potential(name="nan", d=2, L=1.0, alpha=1.0,
                         value=lambda x: np.full(np.shape(x)[:-1], np.nan))
        pot = regularize(base, 1.0)
        scfg = SmoothingConfig(mu=0.1, n=3, p=1.5)
        res = run_chain(pot, scfg, LmcConfig(eta=0.05, steps=3, chains=1, seed=0))
        assert res.diverged.tolist() == [True]
        assert res.divergence_step.tolist() == [1]
        assert res.final_states.tolist() == [[0.0, 0.0]]


class TestRunChain:
    def _setup(self, d=2, p=1.5, n=3, chains=6, steps=40, seed=5, eta=0.05):
        pot = quadratic_target(d)
        scfg = SmoothingConfig(mu=0.1, n=n, p=p)
        lcfg = LmcConfig(eta=eta, steps=steps, chains=chains, seed=seed)
        return pot, scfg, lcfg

    def test_bitwise_reproducible(self):
        pot, scfg, lcfg = self._setup()
        a = run_chain(pot, scfg, lcfg)
        b = run_chain(pot, scfg, lcfg)
        assert np.array_equal(a.final_states, b.final_states)

    def test_thread_count_invariance(self):
        pot, scfg, lcfg = self._setup(chains=7)
        serial = run_chain(pot, scfg, lcfg, threads=1)
        threaded = run_chain(pot, scfg, lcfg, threads=4)
        assert np.array_equal(serial.final_states, threaded.final_states)

    def test_seed_changes_output(self):
        pot, scfg, lcfg = self._setup()
        other = LmcConfig(eta=lcfg.eta, steps=lcfg.steps, chains=lcfg.chains, seed=lcfg.seed + 1)
        assert not np.array_equal(run_chain(pot, scfg, lcfg).final_states,
                                  run_chain(pot, scfg, other).final_states)

    def test_zero_steps_returns_init(self):
        pot, scfg, _ = self._setup()
        lcfg = LmcConfig(eta=0.05, steps=0, chains=4,
                         init=InitSpec(center=[1.5, -2.0]), seed=0)
        res = run_chain(pot, scfg, lcfg)
        assert np.array_equal(res.final_states, np.tile([1.5, -2.0], (4, 1)))
        assert res.evals_total == 0

    def test_gaussian_init_uses_chain_streams(self):
        pot, scfg, _ = self._setup()
        lcfg = LmcConfig(eta=0.05, steps=0, chains=3,
                         init=InitSpec(center=1.0, scale=0.5), seed=42)
        res = run_chain(pot, scfg, lcfg)
        children = np.random.SeedSequence(42).spawn(3)
        expected = np.stack([
            1.0 + 0.5 * np.random.Generator(np.random.PCG64(s)).standard_normal(2)
            for s in children])
        assert np.array_equal(res.final_states, expected)

    def test_eval_budget(self):
        pot, scfg, lcfg = self._setup(n=3, chains=6, steps=40)
        res = run_chain(pot, scfg, lcfg)
        assert res.evals_total == 6 * 40 * (3 + 1)
        exact = run_chain(pot, scfg, lcfg, exact_gradient=True)
        assert exact.evals_total == 0

    def test_step_size_gate(self):
        pot, scfg, _ = self._setup()
        cap = 2.0 / (1.0 + 2.0 * pot.lam)  # M = L = 1 at alpha = 1
        bad = LmcConfig(eta=cap, steps=10, chains=2, seed=0)
        with pytest.raises(StepSizeError):
            run_chain(pot, scfg, bad)
        assert check_step_size(pot, scfg.mu, scfg.p, 0.9 * cap) == pytest.approx(cap)

    def test_groups_are_capped_at_cores_and_chains(self, monkeypatch):
        # 64 threads on a 2-core machine ask for 2 workers, not 64, and the
        # final states do not depend on the group count
        monkeypatch.setattr(lmc, "_cores", lambda: 2)
        workers = []

        class Spy(lmc.ThreadPoolExecutor):
            def __init__(self, max_workers):
                workers.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(lmc, "ThreadPoolExecutor", Spy)
        pot, scfg, lcfg = self._setup(chains=64, steps=5)
        many = run_chain(pot, scfg, lcfg, threads=64)
        one = run_chain(pot, scfg, lcfg, threads=1)
        assert workers == [2, 1]
        assert np.array_equal(many.final_states, one.final_states)
        few = LmcConfig(eta=lcfg.eta, steps=lcfg.steps, chains=1, seed=lcfg.seed)
        run_chain(pot, scfg, few, threads=64)
        assert workers[-1] == 1

    @pytest.mark.skipif(not hasattr(lmc.os, "sched_getaffinity"),
                        reason="no affinity mask on this OS")
    def test_cores_follow_the_affinity_mask(self, monkeypatch):
        # a process pinned to one CPU of 64 gets one group
        monkeypatch.setattr(lmc.os, "sched_getaffinity", lambda pid: {3})
        monkeypatch.setattr(lmc.os, "cpu_count", lambda: 64)
        assert HOST_CORES() == 1

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("init", [
        InitSpec(center=[0.0, 0.0, 0.0]),
        InitSpec(center=[[1.0, 2.0]], scale=0.5),
        InitSpec(center="origin"),
    ], ids=["point", "mean", "text"])
    def test_init_shape_validated(self, init, threads):
        # a center that is not a number or d numbers used to raise numpy's
        # broadcast ValueError, on a worker thread when threads > 1
        pot, scfg, _ = self._setup(d=2)
        lcfg = LmcConfig(eta=0.05, steps=2, chains=4, init=init, seed=0)
        with pytest.raises(ParameterError, match="init center"):
            run_chain(pot, scfg, lcfg, threads=threads)

    def test_trajectory_thinning(self):
        pot, scfg, lcfg = self._setup(steps=100, chains=3)
        res = run_chain(pot, scfg, lcfg, thin=10)
        assert res.trajectory.shape == (3, 10, 2)
        # slot k holds the state after step 10 (k + 1)
        every = run_chain(pot, scfg, lcfg, thin=1)
        assert np.array_equal(res.trajectory, every.trajectory[:, 9::10])
        assert np.array_equal(res.trajectory[:, -1], res.final_states)
        # thin alone selects the trajectory
        plain = run_chain(pot, scfg, lcfg)
        assert plain.trajectory is None
        assert np.array_equal(plain.final_states, res.final_states)
        with pytest.raises(ParameterError, match="thinning"):
            run_chain(pot, scfg, lcfg, thin=0)

    def test_failing_group_stops_the_others(self, monkeypatch):
        # chains 0-2 form the first thread group and chains 3-4 the second;
        # the second group's black box fails on its second step, and the first
        # group must stop at its next one-step chunk instead of running on
        monkeypatch.setattr(lmc, "_CHUNK_ELEMS", 1)
        steps = 20_000
        calls = {3: 0, 2: 0}

        def value(x):
            calls[x.shape[0]] += 1
            if x.shape[0] == 2 and calls[2] > 2:
                raise RuntimeError("black box failed")
            return np.zeros(x.shape[:-1])

        pot = regularize(Potential(name="flaky", d=1, L=1.0, alpha=1.0, value=value), 1.0)
        scfg = SmoothingConfig(mu=0.1, n=1, p=2.0)
        lcfg = LmcConfig(eta=0.05, steps=steps, chains=5, seed=0)
        with pytest.raises(RuntimeError, match="black box failed"):
            run_chain(pot, scfg, lcfg, threads=2)
        # two evaluations per step: the base points, then the perturbed points
        assert calls[3] // 2 < steps // 2

    def test_divergence_aborts_only_offending_chain(self):
        # potential blows up outside a small ball; some chains step out and
        # must be frozen at their last finite state with the step recorded
        d = 1
        cliff = Potential(
            name="cliff", d=d, L=1.0, alpha=1.0,
            value=lambda x: np.where(np.sum(np.square(x), axis=-1) < 4.0,
                                     0.5 * np.sum(np.square(x), axis=-1), np.inf),
            subgrad=lambda x: np.asarray(x, dtype=float),
        )
        pot = regularize(cliff, 0.5)
        scfg = SmoothingConfig(mu=0.05, n=2, p=2.0)
        lcfg = LmcConfig(eta=0.25, steps=25, chains=16, seed=3)
        res = run_chain(pot, scfg, lcfg)
        assert res.diverged.any() and not res.diverged.all()
        assert np.isfinite(res.final_states).all()
        assert (res.divergence_step[res.diverged] >= 1).all()
        assert (res.divergence_step[~res.diverged] == -1).all()

    def test_nonfinite_evaluations_mark_only_their_chains(self):
        # A black box that returns NaN at the base point of chains 1 and 4 and
        # +inf at the perturbed points of chain 2, on step 5 only.  Those
        # chains must be marked diverged at step 5 and keep their step-4
        # state; every other chain must match a run on the healthy potential.
        d, n, steps, fault_step = 2, 3, 12, 5
        nan_rows, inf_rows = [1, 4], [2]
        healthy_base = get_potential("quadratic", d)
        calls = [0]

        def faulty_value(x):
            # run_chain evaluates the base points, then the perturbed points,
            # once per step on one thread group
            calls[0] += 1
            out = healthy_base.value(x)
            if (calls[0] + 1) // 2 == fault_step:
                if calls[0] % 2:
                    out[nan_rows] = np.nan
                else:
                    out[inf_rows] = np.inf
            return out

        faulty = Potential(name="faulty", d=d, L=1.0, alpha=1.0, value=faulty_value)
        scfg = SmoothingConfig(mu=0.1, n=n, p=1.5)
        lcfg = LmcConfig(eta=0.05, steps=steps, chains=6, seed=11)
        ref = run_chain(regularize(healthy_base, 1.0), scfg, lcfg, thin=1)
        res = run_chain(regularize(faulty, 1.0), scfg, lcfg)

        bad = np.zeros(6, dtype=bool)
        bad[nan_rows + inf_rows] = True
        assert np.array_equal(res.diverged, bad)
        assert (res.divergence_step[bad] == fault_step).all()
        assert (res.divergence_step[~bad] == -1).all()
        assert np.array_equal(res.final_states[bad], ref.trajectory[bad, fault_step - 2])
        assert np.array_equal(res.final_states[~bad], ref.final_states[~bad])
        assert res.evals_total == (6 * fault_step + 3 * (steps - fault_step)) * (n + 1)

    @staticmethod
    def _one_chain_at_a_time(pot, scfg, lcfg, chunk=None):
        # each chain alone, from its own stream in run_chain's order: the init
        # draw, then per chunk of `chunk` steps (all of them by default) its
        # smoothing block, then its noise block
        d, n, mu, p = pot.d, scfg.n, scfg.mu, scfg.p
        chunk = chunk or lcfg.steps
        root2eta = math.sqrt(2.0 * lcfg.eta)
        finals = []
        for child in np.random.SeedSequence(lcfg.seed).spawn(lcfg.chains):
            rng = np.random.Generator(np.random.PCG64(child))
            x = lcfg.init.center + lcfg.init.scale * rng.standard_normal(d)
            for k in range(0, lcfg.steps, chunk):
                m = min(chunk, lcfg.steps - k)
                xi = sample_pgg(PggSpec(p, d), rng, size=(m, n))
                noise = rng.standard_normal((m, d))
                for j in range(m):
                    g = grad_estimate_from_draws(pot, mu, p, x, xi[j])
                    x = x - lcfg.eta * g + root2eta * noise[j]
            finals.append(x)
        return np.stack(finals)

    def _chain_setup(self, d, p, n):
        # l1 keeps transcendental functions out of the potential: numpy's
        # array and scalar pow may round differently
        pot = regularize(get_potential("l1", d), 0.5)
        scfg = SmoothingConfig(mu=0.1, n=n, p=p)
        lcfg = LmcConfig(eta=0.5 * max_step_size(pot, 0.1, p), steps=6, chains=5,
                         init=InitSpec(center=0.5, scale=2.0), seed=17)
        return pot, scfg, lcfg

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    # at n >= 8 a draw-axis sum taken pairwise, not in order, would show
    @pytest.mark.parametrize("d,n", [(2, 4), (3, 4), (16, 4), (2, 16), (3, 16)],
                             ids=["2", "3", "16", "2-n16", "3-n16"])
    def test_matches_one_chain_at_a_time_bitwise(self, d, n, p, threads):
        pot, scfg, lcfg = self._chain_setup(d, p, n=n)
        res = run_chain(pot, scfg, lcfg, threads=threads)
        assert np.array_equal(res.final_states, self._one_chain_at_a_time(pot, scfg, lcfg))

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_matches_one_chain_at_a_time_across_chunks(self, p, threads, monkeypatch):
        # 11 steps in chunks of 4, 4 and 3; with rounds of 7 draws and
        # completions from 2 held positions, the ziggurat completes rows both
        # mid-row and together with later rows, and each chain's stream
        # must still be its smoothing block, then its noise block, per chunk
        d, n, chains = 3, 16, 5
        monkeypatch.setattr(lmc, "_CHUNK_ELEMS", 4 * chains * n * d + 1)
        monkeypatch.setattr(pgg, "_ROUND", 7)
        monkeypatch.setattr(pgg, "_HELD", 2)
        pot, scfg, lcfg = self._chain_setup(d, p, n=n)
        lcfg = dataclasses.replace(lcfg, steps=11)
        res = run_chain(pot, scfg, lcfg, threads=threads)
        ref = self._one_chain_at_a_time(pot, scfg, lcfg, chunk=4)
        assert np.array_equal(res.final_states, ref)

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_matches_one_chain_at_a_time_d1(self, p, threads):
        # at d = 1 the draw-axis mean may sum in another order (pairwise
        # against sequential), so only rounding may differ
        pot, scfg, lcfg = self._chain_setup(1, p, n=9)
        res = run_chain(pot, scfg, lcfg, threads=threads)
        ref = self._one_chain_at_a_time(pot, scfg, lcfg)
        assert np.abs(res.final_states - ref).max() <= 1e-14

    @pytest.mark.parametrize("threads", [2, 3, 7])
    @pytest.mark.parametrize("chains", [2, 3, 7])
    @pytest.mark.parametrize("d", [1, 2])
    def test_no_group_of_one_chain_changes_results(self, d, chains, threads):
        # a one-chain group has a contiguous draw axis at d = 1, which numpy
        # sums pairwise where larger groups sum in order; at 3 chains and 2
        # threads such a group changed the last bit of chain 2's state
        pot = regularize(get_potential("quadratic", d), 1.0)
        scfg = SmoothingConfig(mu=0.1, n=16, p=2.0)
        lcfg = LmcConfig(eta=0.05, steps=200, chains=chains,
                         init=InitSpec(center=0.0, scale=1.0), seed=5)
        one = run_chain(pot, scfg, lcfg, threads=1)
        many = run_chain(pot, scfg, lcfg, threads=threads)
        assert np.array_equal(many.final_states, one.final_states)

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("d", [1, 2])
    def test_steps_in_batches_when_one_step_exceeds_the_budget(self, d, threads, monkeypatch):
        # a budget of three chains' one-step draws, below the seven chains'
        # step: the chains split into blocks of 3, 2 and 2 chains, more blocks
        # than workers at one thread, which still run on _chain_groups'
        # workers; every chain must still reach the bits of the run
        # whose budget is one step, its divergence step included (both draw
        # in one-step chunks, so each chain's stream is the same)
        def value(x):
            sq = np.sum(np.square(x), axis=-1)
            return np.where(sq < 4.0, 0.5 * sq, np.inf)

        pot = regularize(Potential(name="cliff", d=d, L=1.0, alpha=1.0, value=value), 0.5)
        scfg = SmoothingConfig(mu=0.05, n=9, p=1.5)
        lcfg = LmcConfig(eta=0.25, steps=25, chains=7, init=InitSpec(scale=1.0), seed=3)
        monkeypatch.setattr(lmc, "_CHUNK_ELEMS", lcfg.chains * scfg.n * d)
        whole = run_chain(pot, scfg, lcfg, thin=5, threads=threads)
        budget = 3 * scfg.n * d
        monkeypatch.setattr(lmc, "_CHUNK_ELEMS", budget)
        sizes = []

        def spy(spec, rngs, size, out):
            sizes.append(out.size)
            return sample_pgg(spec, rngs, size=size, out=out)

        workers, pool = [], lmc.ThreadPoolExecutor

        def pool_spy(max_workers):
            workers.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(lmc, "sample_pgg", spy)
        monkeypatch.setattr(lmc, "ThreadPoolExecutor", pool_spy)
        batched = run_chain(pot, scfg, lcfg, thin=5, threads=threads)
        assert len(sizes) == 3 * lcfg.steps and max(sizes) <= budget
        assert workers == [lmc._chain_groups(threads, lcfg.chains)]
        assert whole.diverged.any() and not whole.diverged.all()
        for name in ("final_states", "trajectory", "divergence_step", "evals_total"):
            assert np.array_equal(getattr(batched, name), getattr(whole, name)), name

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            LmcConfig(eta=-0.1, steps=1, chains=1, seed=0)
        with pytest.raises(ParameterError):
            LmcConfig(eta=0.1, steps=-1, chains=1, seed=0)
        with pytest.raises(ParameterError):
            LmcConfig(eta=0.1, steps=1, chains=0, seed=0)
        # numpy used to reject these only inside run_chain, with a ValueError
        # for -1 and a TypeError for 1.5
        for seed in (-1, 1.5, math.nan, math.inf):
            with pytest.raises(ParameterError, match="seed"):
                LmcConfig(eta=0.1, steps=1, chains=1, seed=seed)

    @pytest.mark.parametrize("scale", [-5.0, -math.inf, math.inf, math.nan])
    def test_init_scale_must_be_finite_and_nonnegative(self, scale):
        with pytest.raises(ParameterError, match="init scale"):
            InitSpec(scale=scale)

    @pytest.mark.parametrize("steps,chains", [(math.nan, 1), (2.5, 1), (1, 1.5)])
    def test_counts_must_be_integers(self, steps, chains):
        # steps = nan used to run no step and return the initial states
        with pytest.raises(ParameterError):
            LmcConfig(eta=0.1, steps=steps, chains=chains, seed=0)

    def test_integral_float_counts_become_ints(self):
        lcfg = LmcConfig(eta=0.1, steps=3.0, chains=2.0, seed=4.0)
        assert (lcfg.steps, lcfg.chains, lcfg.seed) == (3, 2, 4)
        assert type(lcfg.steps) is int and type(lcfg.chains) is int and type(lcfg.seed) is int
        # a seed past the float range is still a seed
        assert LmcConfig(eta=0.1, steps=1, chains=1, seed=10 ** 400).seed == 10 ** 400

    @pytest.mark.parametrize("n", [10 ** 400, 2 ** 62])
    def test_draws_past_numpy_largest_array_are_out_of_memory(self, n):
        # these used to raise numpy's bare "ValueError: Maximum allowed
        # dimension exceeded", which the CLI reported as a traceback
        pot, _, lcfg = self._setup(d=2, chains=4, steps=3)
        with pytest.raises(MemoryError, match="largest array"):
            run_chain(pot, SmoothingConfig(mu=0.1, n=n, p=2.0), lcfg)


class TestOuStationarity:
    def test_exact_gradient_matches_discrete_oracle(self):
        lam, eta, steps, chains = 1.0, 0.01, 4000, 3000
        pot = quadratic_target(1)
        scfg = SmoothingConfig(mu=0.01, n=1, p=2.0)
        lcfg = LmcConfig(eta=eta, steps=steps, chains=chains, seed=77)
        res = run_chain(pot, scfg, lcfg, exact_gradient=True)
        oracle = 1.0 / (lam * (1.0 - eta * lam / 2.0))
        s2 = res.final_states[:, 0].var(ddof=1)
        se = s2 * math.sqrt(2.0 / (chains - 1))
        assert abs(s2 - oracle) <= 4 * se


class TestContraction:
    def test_w2_decay_rate_and_monotonicity(self):
        # quadratic target: empirical W2 to the known Gaussian decays at
        # least as fast as the geometric factor of the mixing bound
        lam, eta, chains, steps = 1.0, 0.05, 4000, 100
        pot = quadratic_target(1)
        scfg = SmoothingConfig(mu=0.01, n=1, p=2.0)
        lcfg = LmcConfig(eta=eta, steps=steps, chains=chains, seed=31)
        res = run_chain(pot, scfg, lcfg, exact_gradient=True, thin=1)

        # quantile coupling against the target law N(0, 1/lam)
        from scipy.stats import norm
        grid = norm.ppf((np.arange(chains) + 0.5) / chains) / math.sqrt(lam)

        def w2_to_target(states):
            return math.sqrt(float(np.mean((np.sort(states) - grid) ** 2)))

        dist = np.array([w2_to_target(res.trajectory[:, k, 0])
                         for k in range(steps)])
        ks = np.arange(2, 21)
        slope = np.polyfit(ks, np.log(dist[ks - 1]), 1)[0]
        # decay at least half of the bound's 0.5*lam*eta rate (it is in fact
        # about 2*lam*eta for the OU chain)
        assert -slope >= 0.5 * (0.5 * lam * eta)
        assert dist[60:].max() <= dist[4:10].min()


def _table(pot, mu, p):
    # a step size inside the cap and no steps: the Lemma-3 entries do not
    # depend on either
    lcfg = LmcConfig(eta=0.5 * max_step_size(pot, mu, p), steps=0, chains=1)
    return bounds_table(pot, SmoothingConfig(mu=mu, n=1, p=p), lcfg)


class TestLemma3:
    def _pot_with_a(self, target_a=0.1):
        # zero base, alpha = 1, p = 2, d = 4, mu = 0.1:
        # a = mu^2 (2 L + 2.5); L = 3.75 makes a = 0.1 exactly
        return regularize(get_potential("zero", 4, L=3.75, alpha=1.0), 1.0)

    def test_frozen_example(self):
        bound = _table(self._pot_with_a(), 0.1, 2.0)["lemma3"]
        assert bound["a"] == pytest.approx(0.1, rel=1e-12)
        assert bound["w2_sq_general"] == pytest.approx(16 * (0.1 + math.expm1(0.1)), rel=1e-12)
        assert bound["w2_sq_general"] == pytest.approx(3.2827346892103634, rel=1e-10)
        assert bound["w2_simplified"] == pytest.approx(3 * math.sqrt(0.4), rel=1e-12)
        assert bound["w2_simplified"] == pytest.approx(1.8973665961010275, rel=1e-10)
        assert bound["simplified_applicable"]

    def test_vanishes_with_mu(self):
        pot = regularize(get_potential("power", 3, alpha=0.5), 0.5)
        bound = _table(pot, 1e-9, 1.5)["lemma3"]
        assert bound["w2_sq_general"] < 1e-8
        assert bound["a"] < 1e-9

    @settings(max_examples=100, deadline=None)
    @given(mu1=st.floats(0.01, 1.0), scale=st.floats(1.01, 5.0))
    def test_monotone_in_mu(self, mu1, scale):
        pot = regularize(get_potential("power", 3, alpha=0.5), 0.5)
        b1 = _table(pot, mu1, 1.5)["lemma3"]
        b2 = _table(pot, mu1 * scale, 1.5)["lemma3"]
        assert b2["a"] > b1["a"]
        assert b2["w2_sq_general"] > b1["w2_sq_general"]

    def test_applicability_gate(self):
        pot = regularize(get_potential("quadratic", 2), 1.0)
        table = _table(pot, 1.0, 2.0)  # a >> 0.1
        assert not table["lemma3"]["simplified_applicable"]
        assert table["theorem1"]["terms"]["smoothing_w2"] == table["lemma3"]["w2_general"]


class TestTheorem1:
    def test_concrete_itemized_point(self):
        # L=1, alpha=1, lam=0.1, mu=0.01, p=2, d=4, eta=0.1, n=100, K=500:
        # recompute every term with scalar arithmetic
        pot = regularize(get_potential("zero", 4, L=1.0, alpha=1.0), 0.1)
        scfg = SmoothingConfig(mu=0.01, n=100, p=2.0)
        lcfg = LmcConfig(eta=0.1, steps=500, chains=1, seed=0)
        table = bounds_table(pot, scfg, lcfg)
        tb = table["theorem1"]

        M, lam, mu, d, p, eta, n, K = 1.0, 0.1, 0.01, 4, 2.0, 0.1, 100, 500
        a = 1.0 * mu**2 * d / 2 + 0.5 * lam * mu**2 * (d + 1)
        assert table["M"] == pytest.approx(M, rel=1e-12)
        assert table["lemma3"]["a"] == pytest.approx(a, rel=1e-12)
        expected = {
            "geometric": (1 - 0.5 * lam * eta) ** (K / 2) * tb["w2_init"],
            "discretization": 1.9 * (M + lam) / lam * math.sqrt(eta * d),
            "smoothing_bias": 2 * (M + lam) / lam * mu * d ** (1 / p),
            "smoothing_w2": 3 * math.sqrt(d * a / lam),
            "variance_mu": (1 / math.sqrt(lam)) * (1 / math.sqrt(n)) * math.sqrt(eta)
                           * (M + lam) * mu * (d + 3) ** (3 / p),
            "variance_grad": math.sqrt(M + lam) / math.sqrt(lam) / math.sqrt(n)
                             * math.sqrt(eta) * math.sqrt(d) * (d + 2) ** (1 / p),
            "regularization_m2": 0.0,
        }
        for name, val in expected.items():
            assert tb["terms"][name] == pytest.approx(val, rel=1e-12), name
        assert tb["w2_mixing"] == pytest.approx(sum(expected.values()), rel=1e-12)

    def test_limit_leaves_discretization_term(self):
        # K large, mu small, n large, C = 0: only 1.9 (M+lam)/lam sqrt(eta d)
        pot = regularize(get_potential("zero", 4, L=1.0, alpha=1.0), 0.1)
        scfg = SmoothingConfig(mu=1e-12, n=10**12, p=2.0)
        lcfg = LmcConfig(eta=0.1, steps=10**7, chains=1, seed=0)
        tb = bounds_table(pot, scfg, lcfg)["theorem1"]
        expected = 1.9 * (1.1 / 0.1) * math.sqrt(0.1 * 4)
        assert tb["w2_mixing"] == pytest.approx(expected, rel=1e-6)

    def test_geometric_factor_hits_zero(self):
        assert geometric_factor(2.0, 1.0, 1) == 0.0
        assert geometric_factor(3.0, 1.0, 4) == 0.0  # clamped below zero
        assert geometric_factor(1.0, 0.01, 0) == 1.0

    def test_both_exponent_forms_reported(self):
        pot = regularize(get_potential("zero", 2, L=1.0, alpha=1.0), 0.5)
        scfg = SmoothingConfig(mu=0.01, n=4, p=2.0)
        lcfg = LmcConfig(eta=0.1, steps=100, chains=1, seed=0)
        tb = bounds_table(pot, scfg, lcfg)["theorem1"]
        base = 1 - 0.5 * 0.5 * 0.1
        w2_init = tb["w2_init"]
        assert tb["terms"]["geometric"] == pytest.approx(w2_init * base ** 50, rel=1e-12)
        assert tb["geometric_alt_exponent_K"] == pytest.approx(w2_init * base ** 100, rel=1e-12)
        assert tb["geometric_alt_exponent_K"] <= tb["terms"]["geometric"]

    def test_gate_and_validation(self):
        pot = regularize(get_potential("zero", 2, L=1.0, alpha=1.0), 0.5)
        scfg = SmoothingConfig(mu=0.01, n=4, p=2.0)
        bad = LmcConfig(eta=1.0, steps=10, chains=1, seed=0)  # cap = 2/(1+1) = 1
        with pytest.raises(StepSizeError):
            bounds_table(pot, scfg, bad)
        # a finite center whose distance to the target overflows
        far = LmcConfig(eta=0.5, steps=10, chains=1, seed=0,
                        init=InitSpec(center=[1.7e308, 1.7e308]))
        with pytest.raises(ParameterError, match="w2_init"):
            bounds_table(pot, scfg, far)

    def test_mu_sweep_monotone_a(self):
        pot = regularize(get_potential("power", 3, alpha=0.5), 1.0)
        values = []
        for mu in (0.1, 0.01, 0.001):
            scfg = SmoothingConfig(mu=mu, n=16, p=2.0)
            lcfg = LmcConfig(eta=0.01, steps=10, chains=1, seed=0)
            values.append(bounds_table(pot, scfg, lcfg)["lemma3"]["a"])
        assert values[0] > values[1] > values[2]

    def test_n_sweep_halves_variance_terms(self):
        pot = regularize(get_potential("zero", 3, L=1.0, alpha=1.0), 0.5)
        lcfg = LmcConfig(eta=0.1, steps=10, chains=1, seed=0)
        t1 = bounds_table(pot, SmoothingConfig(mu=0.01, n=16, p=2.0), lcfg)["theorem1"]
        t4 = bounds_table(pot, SmoothingConfig(mu=0.01, n=64, p=2.0), lcfg)["theorem1"]
        for term in ("variance_mu", "variance_grad"):
            assert t4["terms"][term] == pytest.approx(t1["terms"][term] / 2.0, rel=1e-12)


class TestInitialW2:
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_quadratic_point_mass_at_origin(self, d):
        pot = regularize(get_potential("quadratic", d), 0.7)
        expected = math.sqrt(d * pot.target_variance)
        assert abs(initial_w2(pot, InitSpec()) - expected) <= 2 * math.ulp(expected)

    @pytest.mark.parametrize("name", ["quadratic", "l1"])
    def test_scalar_center_builds_no_d_values(self, name):
        # bounds at d = 1e9 used to run out of memory: a d-long list was
        # built only to hand the center's coordinates to hypot
        d, lam = 10**7, 1.0
        pot = regularize(get_potential(name, d), lam)
        tracemalloc.start()
        try:
            w2 = initial_w2(pot, InitSpec(center=0.5, scale=2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        spread = 2.0 - math.sqrt(pot.target_variance) if name == "quadratic" else 2.0
        to_point = math.sqrt(d * (0.25 + spread**2))
        want = to_point if name == "quadratic" else to_point + math.sqrt(d / lam)
        assert w2 == pytest.approx(want, rel=1e-14)

    def test_gaussian_init_equal_to_target_is_zero(self):
        pot = regularize(get_potential("quadratic", 3), 0.7)
        init = InitSpec(scale=math.sqrt(pot.target_variance))
        assert initial_w2(pot, init) == 0.0

    @pytest.mark.parametrize("init", [InitSpec(), InitSpec(center=[3.0, 4.0]),
                                      InitSpec(center=[3.0, 4.0], scale=2.0)])
    def test_non_quadratic_adds_second_moment_envelope(self, init):
        d, lam = 2, 0.5
        pot = regularize(get_potential("l1", d), lam)
        center = np.broadcast_to(init.center, (d,))
        to_point = math.sqrt(float(center @ center) + d * init.scale**2)
        assert initial_w2(pot, init) == pytest.approx(to_point + math.sqrt(d / lam),
                                                      rel=1e-15)
