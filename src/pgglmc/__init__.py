"""Black-box Langevin Monte Carlo with p-generalized Gaussian smoothing.

Samples from regularized weakly smooth log-concave targets using only
potential evaluations, and ships the diagnostics needed to check every
closed-form error bound the method comes with (smoothing gap, estimator
bias/variance, smoothing drift in W2, and the full mixing bound).
"""

__version__ = "0.1.0"

from .errors import ConfigError, ParameterError, StepSizeError
from .pgg import (
    PggSpec,
    kappa,
    log_density,
    log_kappa,
    pgg_norm_moment,
    pgg_sq_norm_moment_bound,
    sample_pgg,
)
from .potentials import (
    Potential,
    RegularizedPotential,
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
from .smoothing import (
    BiasVarianceReport,
    SmoothingConfig,
    grad_estimate_from_draws,
    hadamard_weight,
    measure_bias_variance,
    smoothed_gradient_reference,
    smoothed_value_mc,
)
from .lmc import (
    ChainResult,
    InitSpec,
    LmcConfig,
    bounds_table,
    check_step_size,
    geometric_factor,
    initial_w2,
    outside_guard,
    run_chain,
)
from .transport import (
    W2GaussianResult,
    w2_exact_assignment,
    w2_to_gaussian,
)
from .config import ExperimentConfig, ReportConfig
