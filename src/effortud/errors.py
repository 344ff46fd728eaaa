"""Exception types shared across the package, and its shared input checks.

All data-shaped failures derive from ValueError so generic callers can catch
broadly, while the CLI can still map specific classes to exit codes.
"""

from typing import Any


class ConfigError(ValueError):
    """A configuration document is malformed or self-inconsistent."""


class OutOfDomainError(ValueError):
    """A point or value lies outside the domain it must belong to."""


class MissingDataError(ValueError):
    """An observed point lies in a cell whose covariates are missing (NaN)."""


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


def is_number(v: Any) -> bool:
    """Whether ``v`` is a JSON number: an int or float, not a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def config_entry(doc: dict, path: str, default: Any, kind: type) -> Any:
    """The entry at ``path`` ("key" or "section.key") of a config document, or ``default``.

    Sections must be objects and the entry of type ``kind``, where a bool is
    no int and float takes any number; anything else raises ConfigError.
    """
    *sections, key = path.split(".")
    for name in sections:
        doc = doc.get(name, {})
        if not isinstance(doc, dict):
            raise ConfigError(f"{name} must be an object, got {doc!r}")
    if key not in doc:
        return default
    value = doc[key]
    if kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{path} is too large for a number") from None
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        raise ConfigError(f"{path} must be of type {kind.__name__}, got {value!r}")
    return value
