"""Modified Bessel function of the first kind, I_nu, for nu > -1 and z >= 0.

Two evaluation branches are used:

* an adaptively truncated power series, summed outward from its largest term
  in log space so that neither large orders nor large arguments overflow, and
* the large-argument exponential-scaled (Hankel) asymptotic expansion.

Both branches compute ``ln(exp(-z) I_nu(z))``; the unscaled value is recovered
by exponentiation where representable.  All terms of the power series are
positive, so the series branch carries no cancellation and is accurate to
near machine precision for any admissible order.

The same series pass gives ``I_{nu+1}(z) / I_nu(z)``: term k of the I_{nu+1}
series is term k of the I_nu series times (z/2) / (k + nu + 1), so one more
accumulator suffices.  In the Hankel region the ratio is the quotient of the
two asymptotic sums.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from .errors import ParameterError

# Crossover to the asymptotic branch.  The scaled asymptotic series reaches
# machine precision before diverging once z is comfortably larger than nu^2;
# everywhere else the peak-summed power series is used.
_ASYM_Z_MIN = 50.0
_SERIES_RTOL = 1e-17
_MAX_TERMS = 100_000


def _check_args(nu: float, z: np.ndarray) -> None:
    if not np.isfinite(nu) or nu <= -1.0:
        raise ParameterError(f"Bessel order must satisfy nu > -1, got {nu}")
    # min/max propagate NaN, so NaN fails the test too.
    if z.size and not (z.min() >= 0.0 and z.max() < np.inf):
        raise ParameterError("Bessel argument must be finite and nonnegative")


def _ive_series(nu: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Peak-centered power series: ``(ln(e^-z I_nu), I_{nu+1} / I_nu)``."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.empty_like(z)
    ratio = np.zeros_like(z)

    zero = z == 0.0  # only the k = 0 term (z/2)^nu / Gamma(nu + 1) is left
    out[zero] = 0.0 if nu == 0.0 else (np.inf if nu < 0.0 else -np.inf)
    pos = ~zero
    if not pos.any():
        return out, ratio

    zp = z[pos]
    half = 0.5 * zp
    logh = np.log(half)
    # Index of the largest series term; the terms are unimodal in k.
    kstar = np.floor(0.5 * (np.sqrt(nu * nu + zp * zp) - nu)).astype(np.int64)
    kstar = np.maximum(kstar, 0)
    log_peak = (nu + 2 * kstar) * logh - gammaln(kstar + 1.0) - gammaln(kstar + nu + 1.0)

    total = np.ones_like(zp)
    h2 = np.exp(2.0 * logh)
    # shifted sums term_k / (k + nu + 1), the I_{nu+1} series over z/2.  Its term
    # k - 1 is term_k * k / h2; h2 underflows only where kstar = 0 and so k = 0.
    shifted = np.zeros_like(zp)
    inv_h2 = 1.0 / np.maximum(h2, np.finfo(float).tiny)

    # Upward from the peak.
    term = np.ones_like(zp)
    k = kstar.astype(float)
    for _ in range(_MAX_TERMS):
        d = k + nu + 1.0
        shifted += term / d
        term = term * h2 / ((k + 1.0) * d)
        total += term
        k += 1.0
        if (term <= _SERIES_RTOL * total).all():
            break

    # Downward from the peak (skipped for elements already at k = 0).
    term = np.ones_like(zp)
    k = kstar.astype(float)
    active = k > 0
    while active.any():
        tk = term * k
        shifted += tk * inv_h2
        term = np.divide(tk * (k + nu), h2, out=np.zeros_like(tk), where=active)
        total += term
        k -= 1.0
        active = (k > 0) & (term > _SERIES_RTOL * total)

    out[pos] = log_peak + np.log(total) - zp
    ratio[pos] = half * shifted / total
    return out, ratio


def _log_ive_series(nu: float, z: np.ndarray) -> np.ndarray:
    """``ln(e^-z I_nu)`` from :func:`_ive_series`, discarding the ratio."""
    return _ive_series(nu, z)[0]


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


def _log_ive_asymptotic(nu: float, z: np.ndarray) -> np.ndarray:
    """Exponential-scaled asymptotic expansion of ``ln(e^-z I_nu)``."""
    return -0.5 * np.log(2.0 * np.pi * z) + np.log(_hankel_sum(nu, z))


def log_bessel_iv_scaled(nu: float, z):
    """Return ``ln(exp(-z) I_nu(z))`` elementwise.

    Parameters
    ----------
    nu : float
        Order, nu > -1.
    z : array_like
        Nonnegative argument(s).
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    _check_args(nu, z_arr)
    out = np.empty_like(z_arr)
    asym = (z_arr >= _ASYM_Z_MIN) & (nu * nu <= z_arr)
    if asym.any():
        out[asym] = _log_ive_asymptotic(nu, z_arr[asym])
    if not asym.all():
        out[~asym] = _log_ive_series(nu, z_arr[~asym])
    return out if np.ndim(z) else float(out[0])


def bessel_iv(nu: float, z):
    """Return ``I_nu(z)`` elementwise; overflows to ``inf`` for z beyond ~709.

    Use :func:`log_bessel_iv_scaled` when the unscaled value is not
    representable in double precision.
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    _check_args(nu, z_arr)
    out = np.exp(log_bessel_iv_scaled(nu, z_arr) + z_arr)
    return out if np.ndim(z) else float(out[0])


def bessel_ratio(nu: float, z):
    """Return ``I_{nu+1}(z) / I_nu(z)`` elementwise, overflow-free; 0 at z = 0."""
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    _check_args(nu, z_arr)
    out = np.empty_like(z_arr)
    asym = (z_arr >= _ASYM_Z_MIN) & ((nu + 1.0) ** 2 <= z_arr)
    if asym.any():
        za = z_arr[asym]
        out[asym] = _hankel_sum(nu + 1.0, za) / _hankel_sum(nu, za)
    if not asym.all():
        out[~asym] = _ive_series(nu, z_arr[~asym])[1]
    return out if np.ndim(z) else float(out[0])
