import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pgglmc import ParameterError, PggSpec, sample_pgg
from pgglmc import suites
from pgglmc.suites import suite_moments, suite_transport


def test_misspelt_suite_keyword_raises():
    # a suite used to swallow unknown keywords and run at its default size
    with pytest.raises(TypeError):
        suite_transport(instancs=1)


class TestMomentSuite:
    @pytest.mark.parametrize("draws", [0, 1])
    def test_too_few_draws_rejected(self, draws):
        # 0 draws gave NaN means, 1 draw a NaN (or zero-division) standard error
        with pytest.raises(ParameterError):
            suite_moments(draws=draws)

    def test_draws_past_numpy_largest_array_are_out_of_memory(self):
        # numpy's bare "ValueError: Maximum allowed dimension exceeded" used
        # to escape the suite, and the sampler's own output, as a traceback
        with pytest.raises(MemoryError, match="moment draws exceed numpy's largest array"):
            suite_moments(draws=10 ** 19)
        with pytest.raises(MemoryError, match="the draws exceed numpy's largest array"):
            sample_pgg(PggSpec(1.5, 2), np.random.default_rng(0), size=10 ** 19)

    def test_observed_moments_read_rows_of_one_block_per_p(self):
        draws = 40_000
        res = suite_moments(seed=1001, draws=draws)
        assert res.passed
        observed = {c.name: c.observed for c in res.checks}
        ps = (1.0, 1.5, 2.0)
        for p, rng in zip(ps, np.random.default_rng(1001).spawn(len(ps))):
            # the numbers of a (draws, 5) draw, in the same order, fill a
            # (5, draws) block: row j holds coordinate j of every draw
            xi = sample_pgg(PggSpec(p, 5), rng, size=draws).reshape(5, draws)
            terms = np.abs(xi) ** p
            partial = np.zeros(draws)
            for d in range(1, 6):
                partial = partial + terms[d - 1]  # ||xi[:d]||_p^p, left to right
                if d not in (1, 3, 5):
                    continue
                norms = partial ** (1.0 / p)
                for order in (1.0, 2.0, 4.0):
                    name = f"mc_moment[p={p},d={d},n={order:g}]"
                    assert observed[name] == float((norms**order).mean()), name

    def test_p2_values_do_not_move_with_the_p_below_2_streams(self, monkeypatch):
        # each p draws from its own generator: a p < 2 stream that consumes
        # one extra block leaves the p = 2 Monte Carlo values bitwise alone
        def p2_values():
            res = suite_moments(draws=1000)
            return {c.name: c.observed for c in res.checks
                    if c.name.startswith("mc_moment[p=2.0,")}

        before = p2_values()

        def greedy(spec, rng, size=None, out=None):
            if spec.p < 2:
                rng.random(spec.d)
            return sample_pgg(spec, rng, size=size, out=out)

        monkeypatch.setattr(suites, "sample_pgg", greedy)
        after = p2_values()
        assert len(before) == 9
        assert after == before

    def test_checks_do_not_move_with_the_blas_thread_count(self):
        # a BLAS dot splits its sum across its threads, so a variance taken
        # with one read differently at 1 and 2 threads
        code = ("import json\nfrom pgglmc.suites import suite_moments\n"
                "print(json.dumps([c.to_dict() for c in suite_moments(draws=200_000).checks]))")

        def checks(threads):
            env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
                       OPENBLAS_NUM_THREADS=str(threads))
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout)

        one = checks(1)
        assert len(one) == 60
        assert checks(2) == one


class TestLemma1Suite:
    def test_lipschitz_coefficients_do_not_depend_on_the_block_size(self, monkeypatch):
        # one cheap base whose references are Monte Carlo, and no gap draws,
        # keep it fast; the endpoint pairs are evaluated a few at a time
        monkeypatch.setattr(suites, "_lemma1_corpus", lambda d: [suites.get_potential("l1", d)])
        monkeypatch.setattr(suites, "smoothed_value_mc",
                            lambda pot, mu, p, x, m, rng: (pot.value(x), np.zeros(len(x))))
        real = suites._coefficients

        def run(block_bytes):
            monkeypatch.setattr(suites, "_BLOCK_BYTES", block_bytes)
            coefs = []
            monkeypatch.setattr(suites, "_coefficients",
                                lambda *args: coefs.append(real(*args)) or coefs[-1])
            checks = [c.to_dict() for c in suites.suite_lemma1().checks]
            return np.concatenate(coefs), checks, [len(c) for c in coefs]

        default = run(suites._BLOCK_BYTES)
        three_pairs = run(3 * 4000 * 3 * 8)
        # two pairs a block by default; each p's two ends end on a one-pair block at three
        assert set(default[2]) == {2} and three_pairs[2].count(1) == 4
        assert set(three_pairs[2]) == {1, 3}
        assert np.array_equal(three_pairs[0], default[0]) and three_pairs[1] == default[1]


class TestDispatch:
    def test_run_suites_passes_seed_to_all_and_threads_to_mixing(self, monkeypatch):
        # mixing is the one suite that runs chains, so it alone takes threads
        calls = []

        def recorder(key):
            def run(**kwargs):
                calls.append((key, kwargs))
                return suites.SuiteResult(suite=key)
            return run

        names = list(suites.SUITE_NAMES)
        for key in names:
            monkeypatch.setitem(suites.SUITE_NAMES, key, recorder(key))
        results = suites.run_suites("all", seed=7, threads=3)
        assert [r.suite for r in results] == names
        assert calls == [(key, {"seed": 7, "threads": 3} if key == "mixing" else {"seed": 7})
                         for key in names]
        assert all(r.seconds >= 0.0 for r in results)

    def test_mixing_is_variance_then_dominance(self, monkeypatch):
        seen = []

        def part(names):
            def run(**kwargs):
                seen.append(kwargs)
                return suites.SuiteResult(suite="mixing", checks=[
                    suites.Check(name=n, passed=True, observed=0.0) for n in names])
            return run

        monkeypatch.setattr(suites, "suite_mixing_variance", part(["v1", "v2"]))
        monkeypatch.setattr(suites, "suite_mixing_dominance", part(["d1", "d2", "d3"]))
        res = suites.suite_mixing(seed=7, threads=3)
        assert res.suite == "mixing"
        assert [c.name for c in res.checks] == ["v1", "v2", "d1", "d2", "d3"]
        assert seen == [{"seed": 7, "threads": 3}] * 2
