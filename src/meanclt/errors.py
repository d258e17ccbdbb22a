"""Semantic exception hierarchy shared by all meanclt modules."""

from __future__ import annotations


class MeancltError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(MeancltError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class PreconditionError(MeancltError, ValueError):
    """A documented precondition does not hold (e.g. non-martingale input)."""


class DegenerateVarianceError(MeancltError):
    """The long-run variance is zero or negative; normalized limits are undefined."""


class DivergenceError(MeancltError):
    """A series required by the operation diverges (e.g. rational resonance)."""


class ResourceError(MeancltError):
    """The exact computation would exceed the feasible index/size range."""


class SchemaError(MeancltError, ValueError):
    """Serialized artifacts disagree on schema; lists the offending fields."""


def reject_unknown_keys(d: dict, allowed, field: str) -> None:
    """Raise SchemaError naming the first key of `d` outside `allowed`."""
    for key in d:
        if key not in allowed:
            raise SchemaError(f"unknown key {key!r} (field: {field}); valid: {', '.join(allowed)}")


_JSON_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false",
                    list: "a list", dict: "an object or null"}


def required(d: dict, field: str):
    """The entry of d that the last component of the dotted `field` names, or a
    SchemaError naming `field` where d has none."""
    key = field.rpartition(".")[2]
    if key not in d:
        raise SchemaError(f"missing the required field {key!r} (field: {field})")
    return d[key]


def json_typed(value, kind: type, field: str):
    """value, after checking it has the JSON type `kind`: float stands for any
    number, an object may also be null, and a boolean is no integer or number."""
    kinds = (int, float) if kind is float else kind
    if (kind is dict and value is None) or (
            isinstance(value, kinds) and (kind is bool or not isinstance(value, bool))):
        return value
    raise SchemaError(f"{field} must be {_JSON_TYPE_NAMES[kind]}, got {value!r} (field: {field})")


def json_numbers(value, field: str) -> list:
    """The entries of value, after checking it is a JSON list of numbers; a
    wrong entry is named by its index."""
    return [json_typed(v, float, f"{field}[{i}]")
            for i, v in enumerate(json_typed(value, list, field))]


class AccuracyError(MeancltError):
    """Adaptive quadrature failed to converge within the recursion budget.

    Carries the best available estimate and a bound on its error so callers
    can decide whether the degraded value is still usable.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(f"{message} (best estimate {estimate!r}, error bound {error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound
