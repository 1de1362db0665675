"""Exception types shared across the package."""


class GtvvError(Exception):
    """Base class for pipeline-specific failures."""


class ConfigError(GtvvError):
    """Invalid experiment configuration (CLI exit code 2)."""


class EstimatorDegenerateError(GtvvError):
    """The least-squares system for a bin is rank deficient (stationary source)."""

    def __init__(self, bin_index):
        self.bin_index = bin_index
        super().__init__(f"degenerate estimator system at bin {bin_index}")


class InconsistentSpectrumError(GtvvError):
    """One-sided spectrum of no real response: complex DC or Nyquist bin."""


class ExpansionInvalidError(GtvvError):
    """Geometric-series expansion requested with some |g*beta| >= 1."""
