import numpy as np
import pytest

from pgglmc import ParameterError, PggSpec, sample_pgg
from pgglmc import suites
from pgglmc.suites import suite_moments


class TestMomentSuite:
    @pytest.mark.parametrize("draws", [0, 1])
    def test_too_few_draws_rejected(self, draws):
        # 0 draws gave NaN means, 1 draw a NaN (or zero-division) standard error
        with pytest.raises(ParameterError):
            suite_moments(draws=draws)

    def test_observed_moments_read_prefixes_of_one_block_per_p(self):
        # a draw count that ends in a partial in-place row block
        draws = 40_000
        assert draws > suites._MOMENT_ROWS and draws % suites._MOMENT_ROWS
        res = suite_moments(seed=1001, draws=draws)
        assert res.passed
        observed = {c.name: c.observed for c in res.checks}
        rng = np.random.default_rng(1001)
        for p in (1.0, 1.5, 2.0):
            terms = np.abs(sample_pgg(PggSpec(p, 5), rng, size=draws)) ** p
            partial = np.zeros(draws)
            for d in range(1, 6):
                partial = partial + terms[:, d - 1]  # ||xi[:, :d]||_p^p, left to right
                if d not in (1, 3, 5):
                    continue
                norms = partial ** (1.0 / p)
                for order in (1.0, 2.0, 4.0):
                    name = f"mc_moment[p={p},d={d},n={order:g}]"
                    assert observed[name] == float((norms**order).mean()), name
