"""Modified Bessel function of the first kind, I_nu, for nu > -1 and z >= 0.

One power-series pass, summed outward from its largest term so that neither
large orders nor large arguments overflow, serves three callers.  All its
terms are positive, so it carries no cancellation and is accurate to near
machine precision for any admissible order.

* The log value ``ln(exp(-z) I_nu(z))``, which stays representable where
  I_nu itself overflows (z beyond ~709), takes one branch: the pass's sum
  and the log of its peak term (``math.lgamma``).
* The Bessel count's mode mass is the reciprocal of the sum; the count
  sampler takes it from this pass at every argument.
* The ratio ``I_{nu+1}(z) / I_nu(z)`` takes two branches.  Off the Hankel
  region it needs one more accumulator: term k of the I_{nu+1} series is
  term k of the I_nu series times (z/2) / (k + nu + 1).  In the Hankel
  region (z >= 50 and nu^2 <= z) it is the quotient of the two large-argument
  asymptotic sums, which stay fast where the series pass grows long.

Neither the mass nor the ratio needs the peak term, so neither evaluates
log Gamma.  The series pass owns z = 0 too: only its k = 0 term is left, so
the mode is 0 with mass 1 and the ratio is 0.  A pass that would need more
than ``_MAX_TERMS`` terms (z beyond ~6.5e8) raises NumericalError.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, ParameterError, check_array

# Crossover of the ratio to its asymptotic branch.  The scaled asymptotic
# series reaches machine precision before diverging once z is comfortably
# larger than nu^2.
_ASYM_Z_MIN = 50.0
_SERIES_RTOL = 1e-17
_MAX_TERMS = 100_000


def log_gamma(x) -> np.ndarray:
    """``ln Gamma(x)`` elementwise for finite x > 0."""
    x = check_array(ParameterError, "log_gamma argument", x, positive=True)
    return np.vectorize(math.lgamma, otypes=[float])(x)


def _check_args(nu: float, z) -> np.ndarray:
    """Check the order and return the argument as a float array."""
    check_array(ParameterError, "Bessel order nu + 1", nu + 1.0, positive=True)
    return check_array(ParameterError, "Bessel argument", z)


def _hankel_region(nu: float, z: np.ndarray) -> np.ndarray:
    """Where the ratio's Hankel expansion, not the power series, is evaluated."""
    return (z >= _ASYM_Z_MIN) & (nu * nu <= z)


def _peak_sums(nu: float, z: np.ndarray, ratio: bool = False):
    """Power series of I_nu at z >= 0, summed outward from its peak term.

    Returns ``(k*, total, shifted)``: the peak index (the count's mode) as
    floats, the series sum in units of its peak term, and, if ``ratio``, the
    I_{nu+1} series over z/2 in the same units (else None).  So ``1 / total``
    is the Bessel count's mass at its mode and ``(z/2) shifted / total`` is
    ``I_{nu+1} / I_nu``.  At z = 0, h2 = 0 leaves the single term k* = 0:
    total = 1 and shifted = 1 / (nu + 1).  Raises NumericalError past
    ``_MAX_TERMS`` terms.
    """
    kstar = np.maximum(np.floor(0.5 * (np.sqrt(nu * nu + z * z) - nu)), 0.0)
    total = np.ones_like(z)
    with np.errstate(divide="ignore"):  # log(0) = -inf gives h2 = 0 at z = 0
        h2 = np.exp(2.0 * np.log(0.5 * z))
    # shifted sums term_k / (k + nu + 1).  Its term k - 1 is term_k * k / h2;
    # h2 is 0 or underflows only where kstar = 0 and so k = 0.
    shifted = np.zeros_like(z) if ratio else None
    inv_h2 = 1.0 / np.maximum(h2, np.finfo(float).tiny)

    # Upward from the peak.
    term = np.ones_like(z)
    k = kstar.copy()
    for _ in range(_MAX_TERMS):
        d = k + nu + 1.0
        if ratio:
            shifted += term / d
        term = term * h2 / ((k + 1.0) * d)
        total += term
        k += 1.0
        if (term <= _SERIES_RTOL * total).all():
            break
    else:
        raise NumericalError(f"Bessel series did not converge in {_MAX_TERMS} terms")

    # Downward from the peak (skipped for elements already at k = 0).
    term = np.ones_like(z)
    k = kstar.copy()
    active = k > 0
    while active.any():
        tk = term * k
        if ratio:
            shifted += tk * inv_h2
        term = np.divide(tk * (k + nu), h2, out=np.zeros_like(tk), where=active)
        total += term
        k -= 1.0
        active = (k > 0) & (term > _SERIES_RTOL * total)
    return kstar, total, shifted


def _hankel_sum(nu: float, z: np.ndarray) -> np.ndarray:
    """Asymptotic sum S with ``e^-z I_nu(z) ~ S / sqrt(2 pi z)``, cut at its smallest term."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    mu = 4.0 * nu * nu
    total = np.ones_like(z)
    term = np.ones_like(z)
    prev = np.full_like(z, np.inf)
    for k in range(60):
        term = term * -(mu - (2 * k + 1) ** 2) / (8.0 * z * (k + 1))
        mag = np.abs(term)
        # Stop once converged or the divergent tail starts growing.
        grow = mag >= prev
        if ((mag <= _SERIES_RTOL * np.abs(total)) | grow).all():
            total = np.where(grow, total, total + term)
            break
        total += np.where(grow, 0.0, term)
        prev = mag
    return total


def log_bessel_iv_scaled(nu: float, z):
    """Return ``ln(exp(-z) I_nu(z))`` elementwise.

    Parameters
    ----------
    nu : float
        Order, nu > -1.
    z : array_like
        Nonnegative argument(s).
    """
    z_arr = np.atleast_1d(_check_args(nu, z))
    out = np.empty_like(z_arr)
    zero = z_arr == 0.0  # only the k = 0 term (z/2)^nu / Gamma(nu + 1) is left
    out[zero] = 0.0 if nu == 0.0 else (np.inf if nu < 0.0 else -np.inf)
    zp = z_arr[~zero]
    kstar, total, _ = _peak_sums(nu, zp)
    log_peak = ((nu + 2.0 * kstar) * np.log(0.5 * zp)
                - log_gamma(kstar + 1.0) - log_gamma(kstar + nu + 1.0))
    out[~zero] = log_peak + np.log(total) - zp
    return out if np.ndim(z) else float(out[0])


def bessel_ratio(nu: float, z):
    """Return ``I_{nu+1}(z) / I_nu(z)`` elementwise, overflow-free; 0 at z = 0."""
    z_arr = np.atleast_1d(_check_args(nu, z))
    out = np.empty_like(z_arr)
    asym = _hankel_region(nu + 1.0, z_arr)
    if asym.any():
        za = z_arr[asym]
        out[asym] = _hankel_sum(nu + 1.0, za) / _hankel_sum(nu, za)
    if not asym.all():
        zs = z_arr[~asym]
        _, total, shifted = _peak_sums(nu, zs, ratio=True)
        out[~asym] = 0.5 * zs * shifted / total
    return out if np.ndim(z) else float(out[0])
