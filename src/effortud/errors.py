"""Exception types shared across the package, and its shared input checks.

All data-shaped failures derive from ValueError so generic callers can catch
broadly, while the CLI can still map specific classes to exit codes.
"""

import json
import sys
from pathlib import Path
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
    likelihood integral because it carries zero effort.
    """


class GridMismatchError(ValueError):
    """Two rasters or fields do not share the same grid."""


class DegenerateSpecError(RuntimeError):
    """A sampler or procedure cannot make progress under the given spec."""


class NonConcaveFitError(RuntimeError):
    """A fitted quadratic surface has no interior maximum."""


class SingularCovarianceError(RuntimeError):
    """A coefficient covariance is unusable for sampling."""


class NotConvergedError(RuntimeError):
    """A fit ended before its gradient fell below the tolerance."""


def check_positive(value: float, what: str, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` unless ``value`` is finite and > 0 (NaN and inf are refused)."""
    if not 0 < value < float("inf"):
        raise error(f"{what} must be finite and positive, got {value}")


def is_number(v: Any) -> bool:
    """Whether ``v`` is a JSON number a float holds: a float, or an int (not a bool) in range."""
    return isinstance(v, float) or (type(v) is int and abs(v) <= sys.float_info.max)


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


def unknown_entry(value: Any, schema: Any, where: str = "") -> str | None:
    """The JSON path of the first key in ``value`` that ``schema`` does not hold, or None.

    An object schema maps each key to its value's schema, a list schema checks
    each entry, a pair takes the object or list form, and None marks a leaf.
    Values of another type than their schema's are left to the readers.
    """
    if isinstance(schema, tuple):
        schema = schema[isinstance(value, list)]
    if isinstance(value, dict) and isinstance(schema, dict):
        for key, v in value.items():
            at = f"{where}.{key}" if where else key
            if key not in schema:
                return at
            if (bad := unknown_entry(v, schema[key], at)) is not None:
                return bad
    elif isinstance(value, list) and isinstance(schema, list):
        for i, v in enumerate(value):
            if (bad := unknown_entry(v, schema[0], f"{where}[{i}]")) is not None:
                return bad
    return None


def read_json_object(path: str | Path, what: str, error: type[ValueError] = ConfigError) -> dict:
    """The object in the JSON file at ``path``, which holds a ``what`` ("model spec", say).

    A file that is not UTF-8 JSON or holds no object raises ``error`` naming the file.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
            raise error(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: {what} must be a JSON object")
    return doc
