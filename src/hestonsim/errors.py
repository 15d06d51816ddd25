"""Exception types shared across the package, and the count, scalar and array argument checks."""

from numbers import Integral, Real

import numpy as np


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


def check_scalar(error: type[HestonSimError], name: str, x) -> None:
    """Raise ``error`` unless ``x`` is a real scalar: a real number, a numpy
    real scalar or a 0-d real array (a string or a complex number is not)."""
    if np.ndim(x) != 0:
        raise error(f"{name} must be a scalar, got shape {np.shape(x)}")
    if not (isinstance(x, Real) or np.asarray(x).dtype.kind in "biuf"):
        raise error(f"{name} must be a real number, got {x!r}")


def check_array(error: type[HestonSimError], name: str, x, *, positive: bool = False) -> np.ndarray:
    """Return ``x`` as a float array; raise ``error`` unless every element is
    finite and >= 0 (> 0 if ``positive``).

    One min and one max decide it: both propagate NaN, and an empty array passes.
    """
    x = np.asarray(x, dtype=float)
    if x.size:
        lo, hi = x.min(), x.max()
        if not ((lo > 0.0 if positive else lo >= 0.0) and hi < np.inf):
            raise error(f"{name} must be finite and {'positive' if positive else 'nonnegative'}")
    return x
