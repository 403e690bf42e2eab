"""Exception types shared across the package.

Every entry point, the CLI and the experiment scripts alike, maps these onto
exit codes: ConfigError and ParameterError -> 2, StepSizeError -> 4.  A chain
divergence is not an exception: ``run_chain`` marks the chain in its result,
and ``pgglmc sample`` then exits 3.
"""


class ParameterError(ValueError):
    """An argument is outside the domain an operation supports."""


class ConfigError(ValueError):
    """A config document is malformed: unknown key, missing field, bad type."""


class StepSizeError(ParameterError):
    """Requested step size violates the stability cap 2 / (M + 2*lam)."""
