import math
import warnings

import numpy as np
import pytest

from pgglmc import (
    ParameterError,
    certify_holder,
    get_potential,
    lemma1_gap_bound,
    lemma1_gap_envelope,
    make_potential,
    max_step_size,
    perturbation_scale_a,
    regularize,
    smoothness_constant_M,
)
from pgglmc.potentials import POTENTIAL_REGISTRY


def corpus(d=3):
    return [
        get_potential("quadratic", d),
        get_potential("power", d, alpha=0.25),
        get_potential("power", d, alpha=0.5),
        get_potential("power", d, alpha=0.75),
        get_potential("l1", d),
        get_potential("huber", d, delta=0.5),
    ]


class TestRegularize:
    def test_pure_quadratic(self):
        pot = regularize(get_potential("zero", 2), 2.0)
        x = np.array([1.0, 1.0])
        assert pot.value(x) == pytest.approx(2.0, rel=1e-15)

    def test_l1_plus_quadratic(self):
        pot = regularize(get_potential("l1", 1), 1.0)
        assert pot.value(np.array([3.0])) == pytest.approx(7.5, rel=1e-15)

    def test_power_alpha_half(self):
        # U(x) = ||x||^1.5 / 1.5 at x = 4 gives 8/1.5; plus 0.05 * 16 = 0.8
        pot = regularize(get_potential("power", 1, alpha=0.5), 0.1)
        assert pot.value(np.array([4.0])) == pytest.approx(8.0 / 1.5 + 0.8, rel=1e-12)

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_nonpositive_lambda_rejected(self, lam):
        with pytest.raises(ParameterError):
            regularize(get_potential("quadratic", 1), lam)

    def test_batched_evaluation(self):
        pot = regularize(get_potential("quadratic", 2), 0.5)
        x = np.random.default_rng(0).normal(size=(4, 6, 2))
        assert pot.value(x).shape == (4, 6)


class TestDerivedConstants:
    def test_M_smooth_case_is_L(self):
        # alpha = 1 kills every mu and d dependence
        pot = regularize(get_potential("zero", 5, L=3.0, alpha=1.0), 1.0)
        for mu in (0.01, 0.5, 2.0):
            assert smoothness_constant_M(pot, mu, 1.5) == pytest.approx(3.0, rel=1e-15)

    def test_M_nonsmooth_case(self):
        pot = regularize(get_potential("zero", 16, L=1.0, alpha=0.0), 1.0)
        assert smoothness_constant_M(pot, 0.1, 2.0) == pytest.approx(40.0, rel=1e-12)

    def test_M_intermediate_case(self):
        pot = regularize(get_potential("zero", 81, L=2.0, alpha=0.5), 1.0)
        expected = 2.0 * 81 ** (1 / 3) / (0.2**0.5 * 1.5**0.5)
        assert smoothness_constant_M(pot, 0.2, 1.5) == pytest.approx(expected, rel=1e-12)

    def test_M_requires_positive_mu(self):
        pot = regularize(get_potential("quadratic", 2), 1.0)
        with pytest.raises(ParameterError):
            smoothness_constant_M(pot, 0.0, 2.0)

    @pytest.mark.parametrize("fn", [smoothness_constant_M, lemma1_gap_bound,
                                    lemma1_gap_envelope])
    @pytest.mark.parametrize("mu", [0.0, -1.0, math.nan])
    def test_radius_checked(self, fn, mu):
        pot = regularize(get_potential("power", 2, alpha=0.5), 1.0)
        with pytest.raises(ParameterError, match="smoothing radius"):
            fn(pot, mu, 1.5)

    def test_a_smooth_term(self):
        # isolate the L term by subtracting the lam contribution
        pot = regularize(get_potential("zero", 4, L=1.0, alpha=1.0), 1.0)
        a = perturbation_scale_a(pot, 0.1, 2.0)
        lam_term = 0.5 * 1.0 * 0.1**2 * 5.0
        assert a - lam_term == pytest.approx(0.02, rel=1e-12)

    def test_a_regularizer_term(self):
        pot = regularize(get_potential("zero", 3, L=1e-12, alpha=1.0), 1.0)
        assert perturbation_scale_a(pot, 0.2, 2.0) == pytest.approx(0.08, rel=1e-9)

    def test_a_vanishes_with_mu(self):
        pot = regularize(get_potential("power", 3, alpha=0.5), 0.5)
        assert perturbation_scale_a(pot, 1e-9, 1.5) < 1e-8

    def test_cap_direct_formula(self):
        pot = regularize(get_potential("zero", 1, L=8.0, alpha=1.0), 1.0)
        assert max_step_size(pot, 0.1, 2.0) == pytest.approx(0.2, rel=1e-12)

    def test_cap_classic_smooth_limit(self):
        pot = regularize(get_potential("zero", 1, L=1.0, alpha=1.0), 1e-12)
        assert max_step_size(pot, 0.1, 2.0) == pytest.approx(2.0, rel=1e-9)

    def test_cap_weakly_smooth_case(self):
        pot = regularize(get_potential("zero", 4, L=1.0, alpha=0.0), 0.5)
        assert max_step_size(pot, 0.5, 2.0) == pytest.approx(0.4, rel=1e-12)

    def test_cap_monotone_in_L_and_lam(self):
        for L1, L2 in ((0.5, 1.0), (1.0, 3.0)):
            p1 = regularize(get_potential("zero", 3, L=L1, alpha=0.5), 1.0)
            p2 = regularize(get_potential("zero", 3, L=L2, alpha=0.5), 1.0)
            assert max_step_size(p2, 0.1, 1.5) < max_step_size(p1, 0.1, 1.5)
        base = get_potential("zero", 3, L=1.0, alpha=0.5)
        assert max_step_size(regularize(base, 2.0), 0.1, 1.5) < \
            max_step_size(regularize(base, 1.0), 0.1, 1.5)

    def test_cap_increasing_in_mu_when_rough(self):
        pot = regularize(get_potential("zero", 3, L=1.0, alpha=0.25), 1.0)
        caps = [max_step_size(pot, mu, 1.5) for mu in (0.05, 0.1, 0.5, 1.0)]
        assert all(a < b for a, b in zip(caps, caps[1:]))


class TestCertificates:
    @pytest.mark.parametrize("pot", corpus(), ids=lambda pot: f"{pot.name}-a{pot.alpha:g}")
    def test_holder_spot_check(self, pot):
        worst = certify_holder(pot, np.random.default_rng(11), pairs=1000, scale=10.0)
        assert worst <= pot.L * (1 + 1e-9)

    @pytest.mark.parametrize("pot", corpus(), ids=lambda pot: f"{pot.name}-a{pot.alpha:g}")
    def test_convexity_subgradient_inequality(self, pot):
        rng = np.random.default_rng(12)
        x = rng.normal(scale=3.0, size=(500, pot.d))
        y = rng.normal(scale=3.0, size=(500, pot.d))
        lhs = pot.value(y)
        rhs = pot.value(x) + np.einsum("ij,ij->i", pot.subgrad(x), y - x)
        assert (lhs >= rhs - 1e-9).all()

    @pytest.mark.parametrize("pot", corpus(), ids=lambda pot: f"{pot.name}-a{pot.alpha:g}")
    def test_descent_lemma(self, pot):
        rng = np.random.default_rng(13)
        x = rng.normal(scale=3.0, size=(500, pot.d))
        y = x + rng.normal(size=(500, pot.d)) * rng.uniform(0.01, 3.0, size=(500, 1))
        gap = np.linalg.norm(y - x, axis=1)
        lhs = pot.value(y)
        rhs = (pot.value(x) + np.einsum("ij,ij->i", pot.subgrad(x), y - x)
               + pot.L * gap ** (1 + pot.alpha) / (1 + pot.alpha))
        assert (lhs <= rhs + 1e-9).all()

    @pytest.mark.parametrize("lam", [0.3, 1.0])
    def test_strong_convexity_of_regularized(self, lam):
        rng = np.random.default_rng(14)
        for base in corpus():
            pot = regularize(base, lam)
            x = rng.normal(scale=2.0, size=(300, base.d))
            y = rng.normal(scale=2.0, size=(300, base.d))
            lhs = pot.value(y)
            subgrad = base.subgrad(x) + lam * x
            rhs = (pot.value(x) + np.einsum("ij,ij->i", subgrad, y - x)
                   + 0.5 * lam * np.sum((y - x) ** 2, axis=1))
            assert (lhs >= rhs - 1e-9).all()

    def test_power_constant_is_tight(self):
        # antipodal scalar pair drives the ratio to 2^(1-alpha)
        pot = get_potential("power", 1, alpha=0.5)
        x, y = np.array([1.0]), np.array([-1.0])
        ratio = np.linalg.norm(pot.subgrad(x) - pot.subgrad(y)) / np.linalg.norm(x - y) ** 0.5
        assert ratio == pytest.approx(2 ** 0.5, rel=1e-12)

    def test_l1_subgradient_at_kink(self):
        pot = get_potential("l1", 3)
        assert np.array_equal(pot.subgrad(np.zeros(3)), np.zeros(3))


class TestRegistry:
    def test_known_keys(self):
        assert set(POTENTIAL_REGISTRY) == {"quadratic", "power", "l1", "huber", "zero"}

    def test_unknown_key(self):
        with pytest.raises(ParameterError, match="unknown potential"):
            get_potential("cubic", 2)

    def test_bad_params(self):
        with pytest.raises(ParameterError):
            get_potential("power", 2, alpha=1.5)
        with pytest.raises(ParameterError):
            get_potential("huber", 2, delta=0.0)
        # L = 1/delta overflows to inf
        with pytest.raises(ParameterError, match="Hölder constant L must be finite"):
            get_potential("huber", 2, delta=1e-320)

    @pytest.mark.parametrize("name,allowed", [
        ("quadratic", ["curvature"]), ("power", ["alpha"]), ("l1", []),
        ("huber", ["delta"]), ("zero", ["L", "alpha"]),
    ])
    def test_unknown_parameter_names_the_allowed_ones(self, name, allowed):
        # it used to surface as a TypeError that named a private builder
        with pytest.raises(ParameterError) as info:
            get_potential(name, 2, beta=1.0)
        assert str(info.value) == (f"unknown parameter(s) ['beta'] for {name!r}; "
                                   f"allowed: {allowed}")
        assert get_potential(name, 2, **{key: 0.5 for key in allowed}).name == name

    def test_quadratic_family_metadata(self):
        assert get_potential("quadratic", 2, curvature=3.0).quad_curvature == 3.0
        assert get_potential("zero", 2).quad_curvature == 0.0
        assert get_potential("l1", 2).quad_curvature is None

    def test_target_variance(self):
        pot = regularize(get_potential("quadratic", 2, curvature=1.0), 1.0)
        assert pot.target_variance == pytest.approx(0.5)
        for name in ("l1", "huber", "power"):
            assert regularize(get_potential(name, 2), 1.0).target_variance is None, name

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 16])
    @pytest.mark.parametrize("name", sorted(POTENTIAL_REGISTRY))
    def test_value_is_bitwise_alike_in_every_layout(self, name, d):
        # the coordinates are added in order whatever the memory layout:
        # run_chain's chain-innermost draw buffer, a one-chain block, a
        # contiguous batch, an F-order batch and a broadcast point give the
        # same bits, the (lam/2)||x||^2 term included
        pot = regularize(get_potential(name, d), 0.7)
        rng = np.random.default_rng(23)
        chains, n = 64, 16
        points = rng.standard_normal((chains, n, d)) * 10.0 ** rng.integers(-8, 9, (chains, n, d))
        want = pot.value(points)
        chain_inner = np.empty((n, d, chains)).transpose(2, 0, 1)
        np.copyto(chain_inner, points)
        assert np.array_equal(pot.value(chain_inner), want)
        one_chain = np.stack([pot.value(np.ascontiguousarray(points[c:c + 1]))[0]
                              for c in range(chains)])
        assert np.array_equal(one_chain, want)
        rows = np.asfortranarray(points.reshape(-1, d))
        assert np.array_equal(pot.value(rows), want.reshape(-1))
        assert np.array_equal(pot.value(np.broadcast_to(points[0, 0], (chains, d))),
                              np.full(chains, want[0, 0]))
        if name == "l1":
            in_order = []
            for row in points.reshape(-1, d).tolist():
                total = 0.0
                for coordinate in row:
                    total += abs(coordinate)
                in_order.append(total)
            assert np.array_equal(pot.base.value(points).reshape(-1), in_order)


class TestUserPotentials:
    def test_optimistic_constant_warns(self):
        with pytest.warns(UserWarning, match="optimistic"):
            make_potential("steep", 2, L=0.1, alpha=1.0,
                           value=lambda x: np.sum(np.square(x), axis=-1),
                           subgrad=lambda x: 2.0 * np.asarray(x, dtype=float))

    def test_honest_constant_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            make_potential("fine", 2, L=2.0, alpha=1.0,
                           value=lambda x: np.sum(np.square(x), axis=-1),
                           subgrad=lambda x: 2.0 * np.asarray(x, dtype=float))
