"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DivergenceError -> 3,
StepSizeError -> 4.
"""


class ParameterError(ValueError):
    """An argument is outside the domain an operation supports."""


class ConfigError(ValueError):
    """A config document is malformed: unknown key, missing field, bad type."""


class EvaluationError(RuntimeError):
    """``grad_estimate`` met a non-finite potential value; the chain drivers
    (``lmc_step``, ``run_chain``) treat one as a divergence instead."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class DivergenceError(RuntimeError):
    """A chain left the finite region; carries the step index and state norm."""

    def __init__(self, message, step=None, state_norm=None):
        super().__init__(message)
        self.step = step
        self.state_norm = state_norm


class StepSizeError(ParameterError):
    """Requested step size violates the stability cap 2 / (M + 2*lam)."""
