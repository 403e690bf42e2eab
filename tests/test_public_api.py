"""The set of public names the package exports is pinned: adding or removing one is a
deliberate API change that must update this list."""

import types

import pgglmc

PUBLIC_NAMES = {
    # errors
    "ConfigError", "DivergenceError", "EvaluationError", "ParameterError", "StepSizeError",
    # pgg
    "PggSpec", "kappa", "log_density", "log_kappa", "pgg_norm_moment",
    "pgg_sq_norm_moment_bound", "sample_pgg",
    # potentials
    "Potential", "RegularizedPotential", "certify_holder", "get_potential",
    "lemma1_gap_bound", "lemma1_gap_envelope", "make_potential", "max_step_size",
    "perturbation_scale_a", "regularize", "smoothness_constant_M",
    # smoothing
    "BiasVarianceReport", "GradientEstimate", "SmoothingConfig", "grad_estimate",
    "grad_estimate_from_draws", "hadamard_weight", "measure_bias_variance",
    "smoothed_gradient_reference", "smoothed_value_mc",
    # lmc
    "ChainResult", "InitSpec", "Lemma3Bound", "LmcConfig", "TheoryBound", "bounds_table",
    "check_step_size", "geometric_factor", "initial_w2", "lemma3_w2_bound", "lmc_step",
    "outside_guard", "run_chain", "theorem1_bound",
    # transport
    "SampleSet", "W2GaussianResult", "w2_exact_1d", "w2_exact_assignment", "w2_to_gaussian",
    # config
    "ExperimentConfig", "ReportConfig", "load_config",
}


def test_exported_names_are_pinned():
    # submodules show up as attributes once imported, so they are not counted
    exported = {name for name in dir(pgglmc) if not name.startswith("_")
                and not isinstance(getattr(pgglmc, name), types.ModuleType)}
    assert exported == PUBLIC_NAMES
