"""Exception types shared across the toolkit."""


class ParameterError(ValueError):
    """A supplied parameter violates a documented precondition."""


class UnsupportedConfigurationError(ParameterError):
    """A configuration is syntactically valid but not supported (e.g. blade_count=3)."""


class ShapeError(ValueError):
    """Array dimensions are inconsistent between inputs."""


class SingularityError(ValueError):
    """Evaluation at a geometric singularity (coincident points)."""


class NumericError(RuntimeError):
    """Non-finite values where finite ones are required."""


class RankDeficiencyError(RuntimeError):
    """Truncation includes zero singular values; suggest a smaller sigma_max."""


class UndefinedMetricError(ValueError):
    """A metric is undefined for the given inputs (e.g. empty selection window)."""


class EstimationError(RuntimeError):
    """A statistical estimate cannot be formed from the given data."""


class AlignmentError(RuntimeError):
    """Sequence alignment failed or is infeasible."""


class InterpolationError(RuntimeError):
    """A warp path does not cover the span needed for resampling."""


class FingerprintMismatchError(RuntimeError):
    """Measurements and model were built from different configurations."""


class DataFileError(ValueError):
    """An input data file is missing, unreadable or not in the expected format."""


class ConfigError(ValueError):
    """An experiment config file is malformed or contains unknown keys."""
