"""Exception types shared across the package, and the integer-count check."""

from numbers import Integral


class HestonSimError(Exception):
    """Base class for all package errors."""


class ParameterError(HestonSimError, ValueError):
    """A caller-supplied parameter is out of its admissible domain."""


class DomainError(HestonSimError, ValueError):
    """A numerically valid input falls outside the range an algorithm can evaluate."""


class NumericalError(HestonSimError, ArithmeticError):
    """An internal numerical procedure failed to converge or lost consistency."""


class ConfigurationError(HestonSimError, ValueError):
    """Scheme, product, or experiment settings are mutually inconsistent."""


def check_count(error: type[HestonSimError], name: str, value, low: int) -> None:
    """Raise ``error`` unless ``value`` is an integer (numpy integers pass) >= ``low``."""
    if not isinstance(value, Integral):
        raise error(f"{name} must be integral, got {value!r}")
    if value < low:
        raise error(f"{name} must be >= {low}")
