"""One rule per kind of input, whichever entry point takes it.

Every count goes through ``pgg._check_count`` and every positive real through
``pgg._check_positive``, so each entry point rejects the same malformed values
with the same ``ParameterError`` wording; the config layer reports that
wording under the key's JSON path.
"""

import math
import re

import numpy as np
import pytest

from pgglmc import (ConfigError, ExperimentConfig, InitSpec, LmcConfig, ParameterError, PggSpec,
                    Potential, SmoothingConfig, get_potential, lemma1_gap_bound,
                    lemma1_gap_envelope, make_potential, measure_bias_variance, pgg_norm_moment,
                    regularize, run_chain, sample_pgg, smoothed_gradient_reference,
                    smoothed_value_mc, smoothness_constant_M, w2_to_gaussian)
from pgglmc.suites import suite_moments


def rng():
    return np.random.default_rng(0)


def quad():
    return regularize(get_potential("quadratic", 2), 1.0)


def power():
    return regularize(get_potential("power", 2, alpha=0.5), 1.0)


def chain(init=InitSpec(), **kwargs):
    return run_chain(quad(), SmoothingConfig(mu=0.1, n=2, p=2.0),
                     LmcConfig(eta=0.01, steps=4, chains=2, init=init), **kwargs)


COUNTS = {
    "PggSpec d": lambda v: PggSpec(p=2.0, d=v),
    "Potential d": lambda v: get_potential("l1", v),
    "SmoothingConfig n": lambda v: SmoothingConfig(mu=0.1, n=v, p=2.0),
    "LmcConfig steps": lambda v: LmcConfig(eta=0.1, steps=v, chains=1),
    "LmcConfig chains": lambda v: LmcConfig(eta=0.1, steps=1, chains=v),
    "LmcConfig seed": lambda v: LmcConfig(eta=0.1, steps=1, chains=1, seed=v),
    "run_chain thin": lambda v: chain(thin=v),
    "smoothed_value_mc m": lambda v: smoothed_value_mc(quad(), 0.1, 2.0, np.zeros(2), v, rng()),
    "smoothed_gradient_reference m": lambda v: smoothed_gradient_reference(
        power(), 0.1, 2.0, np.zeros(2), v, rng()),
    "measure_bias_variance trials": lambda v: measure_bias_variance(
        power(), 0.1, 2.0, np.zeros(2), [2], v, rng()),
    "suite_moments draws": lambda v: suite_moments(draws=v),
    "w2_to_gaussian resamples": lambda v: w2_to_gaussian(np.zeros((4, 1)), 1.0, resamples=v,
                                                         rng=rng()),
    "sample_pgg size": lambda v: sample_pgg(PggSpec(1.5, 2), rng(), size=v),
}

POSITIVE_REALS = {
    "SmoothingConfig mu": lambda v: SmoothingConfig(mu=v, n=2, p=2.0),
    "smoothness_constant_M mu": lambda v: smoothness_constant_M(power(), v, 2.0),
    "lemma1_gap_bound mu": lambda v: lemma1_gap_bound(power(), v, 2.0),
    "lemma1_gap_envelope mu": lambda v: lemma1_gap_envelope(power(), v, 2.0),
    "smoothed_value_mc mu": lambda v: smoothed_value_mc(quad(), v, 2.0, np.zeros(2), 4, rng()),
    "Potential L": lambda v: Potential(name="flat", d=2, L=v, alpha=1.0,
                                       value=lambda x: np.zeros(np.shape(x)[:-1])),
    "zero L": lambda v: get_potential("zero", 2, L=v),
    "regularize lam": lambda v: regularize(get_potential("l1", 2), v),
    "LmcConfig eta": lambda v: LmcConfig(eta=v, steps=1, chains=1),
    "quadratic curvature": lambda v: get_potential("quadratic", 2, curvature=v),
    "huber delta": lambda v: get_potential("huber", 2, delta=v),
    "w2_to_gaussian variance": lambda v: w2_to_gaussian(np.zeros((4, 1)), v, rng=rng()),
    "pgg_norm_moment order": lambda v: pgg_norm_moment(PggSpec(1.5, 2), v),
}


# reals in a closed range, neither counts nor positive reals, each with its own words
RANGED_REALS = {
    "InitSpec scale": lambda v: InitSpec(scale=v),
    "make_potential alpha": lambda v: make_potential("flat", 2, 1.0, v,
                                                     lambda x: np.zeros(np.shape(x)[:-1])),
    "SmoothingConfig p": lambda v: SmoothingConfig(mu=0.1, n=2, p=v),
    "power alpha": lambda v: get_potential("power", 2, alpha=v),
    "zero alpha": lambda v: get_potential("zero", 2, alpha=v),
}


@pytest.mark.parametrize("value", [2.5, -1, math.nan, math.inf, True])
@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_every_count_takes_only_integers(entry, value):
    # thin, resamples and draws used to raise TypeError at 2.5, and a bool
    # counted as the integer 1 everywhere
    with pytest.raises(ParameterError, match="an integer >= "):
        COUNTS[entry](value)


@pytest.mark.parametrize("value", [0, -1, math.nan, math.inf, True])
@pytest.mark.parametrize("entry", sorted(POSITIVE_REALS))
def test_every_positive_real_is_finite_and_positive(entry, value):
    # eta = inf used to be accepted, and delta = inf was reported as a bad L
    with pytest.raises(ParameterError, match="must be finite and > 0"):
        POSITIVE_REALS[entry](value)


@pytest.mark.parametrize("value", [-1, math.nan, math.inf, True, "1", "0.5"])
@pytest.mark.parametrize("entry", sorted(RANGED_REALS))
def test_every_ranged_real_takes_only_reals_in_range(entry, value):
    # a bool used to pass as 1: InitSpec(scale=True) ran with scale 1, and
    # make_potential stored alpha = True as 1.0; the power potential named
    # it 1.0, and the power and zero potentials took alpha = "0.5" as 0.5; the
    # message shows the value as given, so the string "1" does not read as 1
    with pytest.raises(ParameterError, match=f" got {re.escape(repr(value))}$"):
        RANGED_REALS[entry](value)


def test_init_center_must_be_finite():
    # a center at inf used to run, every chain diverging at step 1
    for center in (math.inf, [0.0, math.nan]):
        with pytest.raises(ParameterError, match="init center"):
            chain(init=InitSpec(center=center))


def base_doc():
    return {
        "potential": {"name": "quadratic", "d": 2, "lambda": 0.5, "params": {}},
        "smoothing": {"mu": 0.1, "n": 2, "p": 2.0},
        "lmc": {"eta": 0.05, "steps": 20, "chains": 5,
                "init": {"kind": "gaussian", "mean": 0.0, "scale": 1.0}, "seed": 1234},
        "report": {"thinning": 2, "resamples": 2},
    }


# (JSON path, a value outside its domain, the domain type's own error for it)
CONFIG_NUMBERS = [
    ("potential.d", 0, lambda v: get_potential("quadratic", v)),
    ("potential.lambda", 0, lambda v: regularize(get_potential("quadratic", 2), v)),
    ("smoothing.mu", -0.1, lambda v: SmoothingConfig(mu=v, n=2, p=2.0)),
    ("smoothing.n", 0, lambda v: SmoothingConfig(mu=0.1, n=v, p=2.0)),
    ("smoothing.p", 2.5, lambda v: SmoothingConfig(mu=0.1, n=2, p=v)),
    ("lmc.eta", 0, lambda v: LmcConfig(eta=v, steps=1, chains=1)),
    ("lmc.steps", -1, lambda v: LmcConfig(eta=0.1, steps=v, chains=1)),
    ("lmc.chains", 0, lambda v: LmcConfig(eta=0.1, steps=1, chains=v)),
    ("lmc.seed", 1.5, lambda v: LmcConfig(eta=0.1, steps=1, chains=1, seed=v)),
    ("report.thinning", 0, lambda v: chain(thin=v)),
    ("report.resamples", 0, lambda v: w2_to_gaussian(np.zeros((4, 1)), 1.0, resamples=v,
                                                     rng=rng())),
]


@pytest.mark.parametrize("path, value, domain", CONFIG_NUMBERS,
                         ids=[row[0] for row in CONFIG_NUMBERS])
def test_config_numbers_fail_in_the_domain_words(path, value, domain):
    with pytest.raises(ParameterError) as own:
        domain(value)
    doc = base_doc()
    section, key = path.split(".")
    doc[section][key] = value
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(doc)
    assert str(err.value) == f"{path}: {own.value}"


def test_config_number_wording():
    doc = base_doc()
    doc["smoothing"]["n"] = 0
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(doc)
    assert str(err.value) == "smoothing.n: batch size must be an integer >= 1, got 0"
    doc = base_doc()
    doc["lmc"]["init"]["scale"] = 0
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(doc)
    assert str(err.value) == "lmc.init.scale: init scale must be finite and > 0, got 0"


def test_huber_delta_whose_constant_overflows_is_named():
    # a subnormal delta passed its own check, and L = 1/delta = inf was reported
    # as "Hölder constant L must be finite and > 0, got inf", from a config too
    with pytest.raises(ParameterError) as own:
        get_potential("huber", 2, delta=1e-320)
    assert str(own.value).startswith("huber delta ")
    assert str(own.value).endswith(" got 1e-320")
    doc = base_doc()
    doc["potential"].update(name="huber", params={"delta": 1e-320})
    with pytest.raises(ParameterError) as err:
        ExperimentConfig.from_dict(doc).build_potential()
    assert str(err.value) == str(own.value)
