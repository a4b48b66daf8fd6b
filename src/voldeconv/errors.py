"""Exception types shared across the package, and the checks that raise them."""

import math
import numbers

import numpy as np


class NotFoundError(LookupError):
    """A named resource (e.g. a builtin kernel) does not exist."""


class NumericalFailure(ArithmeticError):
    """A numerical routine could not meet its accuracy contract.

    Carries the offending residual so callers can report it.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class RangeError(ValueError):
    """An argument is outside the representable / supported range."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class ConfigError(ValueError):
    """Inconsistent or invalid configuration."""


class InputError(ValueError):
    """Malformed or insufficient input data."""


def _require_integer(name: str, value, least: int, error: type) -> None:
    """Refuse a value that is not an integer (bools included) or is below least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise error(f"{name} must be at least {least}, got {value}")


def _is_real(value) -> bool:
    """Whether value is a real number a float can hold, bools excluded: an int
    such as 10**400 is not, as float() of it overflows."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _require_finite_positive(name: str, value, error: type) -> None:
    """Refuse a value that is not a finite positive real number (bools included)."""
    if not (_is_real(value) and math.isfinite(value) and value > 0.0):
        raise error(f"{name} must be finite and positive, got {value!r}")


def _require_finite(name: str, values, error: type) -> None:
    """Refuse an array holding a non-finite value, naming how many and where
    the first is: an int index for 1-D input, a tuple for n-D input."""
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        first = int(bad[0, 0]) if bad.shape[1] == 1 else tuple(bad[0].tolist())
        raise error(f"{name} must be finite, got {len(bad)} non-finite, the first at index {first}")


def _require_vector(name: str, values, error: type) -> np.ndarray:
    """values as a float array, refused unless 1-D, non-empty and all finite."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise error(f"{name} must be 1-D, got shape {values.shape}")
    if values.size == 0:
        raise error(f"{name} must be non-empty")
    _require_finite(name, values, error)
    return values
