"""Exception types shared across the package, and the checks on outside input."""

import json
import numbers
import os
from pathlib import Path


class SagnacsimError(ValueError):
    """Base class for all domain errors raised by this package."""


class InvalidDimensionError(SagnacsimError):
    """Qudit dimension is out of range or unsupported."""


class DimensionMismatchError(SagnacsimError):
    """Operands describe qudits of different dimensions."""


class NormalizationError(SagnacsimError):
    """State amplitudes are not normalized within tolerance."""


class NonDiagonalError(SagnacsimError):
    """Jones matrix is not diagonal up to a global phase."""


class ScheduleError(SagnacsimError):
    """Phase schedule violates an invariant or is evaluated out of range."""


class FitError(SagnacsimError):
    """Fringe data cannot be fitted (too few points, no span, ...)."""


class LowVisibilityError(SagnacsimError):
    """Fringe visibility too low for a meaningful phase extraction."""


class DegenerateLoopError(SagnacsimError):
    """Total phase of a state loop is undefined (orthogonal endpoints)."""


class ConfigError(SagnacsimError):
    """Invalid experiment or campaign configuration."""


# Outside input (JSON files, spec fields) is read and checked here, by one
# loader and one set of value checkers, so every input follows one rule:
# numbers are JSON numbers within float range, never strings or booleans.


def load_json_object(path, what: str, error: type[SagnacsimError] = ConfigError) -> dict:
    """Read a JSON object from ``path``; any failure is an ``error`` naming ``what``."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # bad UTF-8, bad JSON, an overlong integer
        raise error(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise error(f"{what} {path} must be a JSON object")
    return data


def _integral(value, what: str) -> int:
    """``value`` as an int if it is an integer or an integral float; else ConfigError."""
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)) or (
            isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ConfigError(f"{what} must be an integer, got {value!r}")


def _natural(value, what: str) -> int:
    """``value`` as an int if it is a nonnegative integer (not a float); else ConfigError."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 0:
        return int(value)
    raise ConfigError(f"{what} must be a nonnegative integer, got {value!r}")


def _real(value, what: str) -> float:
    """``value`` as a float if it is a real number a float can hold; else ConfigError."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an int beyond the float range, which JSON can give
            pass
    raise ConfigError(f"{what} must be a number, got {value!r}")


def _path(value, what: str) -> str:
    """A path given as a string or a path object, as a string."""
    path = os.fspath(value) if isinstance(value, os.PathLike) else value
    if isinstance(path, str):
        return path
    raise ConfigError(f"{what} must be a path, got {value!r}")


def _optional(check):
    return lambda value, what: None if value is None else check(value, what)


def _items(check, kind: str):
    """Check a list or tuple item by item with ``check``; gives a tuple."""
    def check_items(value, what: str) -> tuple:
        if isinstance(value, (list, tuple)):
            try:
                return tuple(check(item, what) for item in value)
            except ConfigError:
                pass
        raise ConfigError(f"{what} must list {kind}, got {value!r}")
    return check_items
