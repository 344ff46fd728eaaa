"""Exception types shared across the package, and its one positivity check.

All data-shaped failures derive from ValueError so generic callers can catch
broadly, while the CLI can still map specific classes to exit codes.
"""


class ConfigError(ValueError):
    """A configuration document is malformed or self-inconsistent."""


class OutOfDomainError(ValueError):
    """A point or value lies outside the domain it must belong to."""


class MissingDataError(ValueError):
    """A lookup hit a cell flagged as missing (NaN)."""


class DataInconsistencyError(ValueError):
    """Observed data contradict the model structure.

    Example: an observed point falls in a cell excluded from the
    likelihood integral because it carries zero effort or zero weight.
    """


class GridMismatchError(ValueError):
    """Two rasters or fields do not share the same grid."""


class UndefinedProbabilityError(ValueError):
    """A probability is requested where every component is zero."""


class DegenerateSpecError(RuntimeError):
    """A sampler or procedure cannot make progress under the given spec."""


class NonConcaveFitError(RuntimeError):
    """A fitted quadratic surface has no interior maximum."""


class SingularCovarianceError(RuntimeError):
    """A coefficient covariance is unusable for sampling."""


def check_positive(value: float, what: str, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` unless ``value`` is finite and > 0 (NaN and inf are refused)."""
    if not 0 < value < float("inf"):
        raise error(f"{what} must be finite and positive, got {value}")
