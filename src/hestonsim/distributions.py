"""Random-variate samplers used by the simulation schemes.

Poisson, standard gamma, and inverse Gaussian draws are delegated to the
generator behind :class:`~hestonsim.rng.RngStream` (which provides exact
samplers for all parameter ranges, including gamma shapes below one and
Poisson rates in the millions).  The Bessel count sampler is implemented
here: its probability masses are the normalized power-series coefficients of
I_nu, sampled by an outward search from the distribution mode.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from .bessel import log_bessel_iv_scaled
from .errors import NumericalError, ParameterError
from .model import ModelParams, phi
from .rng import RngStream

# Poisson rates at or beyond 2^63 cannot be returned as integer counts.
_MAX_POISSON_RATE = 2.0**62


def sample_poisson(rate, rng: RngStream, size=None):
    """Draw Poisson counts with the given rate (scalar or array)."""
    rate = np.asarray(rate, dtype=float)
    lo, hi = (rate.min(), rate.max()) if rate.size else (0.0, 0.0)
    if not (lo >= 0.0 and hi < np.inf):
        raise ParameterError("Poisson rate must be finite and nonnegative")
    if hi >= _MAX_POISSON_RATE:
        raise ParameterError(
            "Poisson rate too large to sample as an integer count; "
            "use a larger time step or fewer paths per call"
        )
    return rng.gen.poisson(rate, size=size)


def sample_std_gamma(shape, rng: RngStream, size=None):
    """Draw unit-scale gamma variates; any shape > 0 is admissible.

    Shapes of exactly zero are allowed elementwise in array calls and yield
    zero (the degenerate gamma), which the series samplers rely on.
    """
    shape = np.asarray(shape, dtype=float)
    if shape.size and not (shape.min() >= 0.0 and shape.max() < np.inf):
        raise ParameterError("gamma shape must be finite and nonnegative")
    if shape.ndim == 0 and shape == 0:
        raise ParameterError("gamma shape must be positive")
    return rng.gen.standard_gamma(shape, size=size)


def sample_invgauss(mu, lam, rng: RngStream, size=None):
    """Draw inverse Gaussian variates with mean mu and variance mu^3/lam."""
    mu = np.asarray(mu, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if (mu <= 0).any() or (lam <= 0).any():
        raise ParameterError("inverse Gaussian parameters must be positive")
    return rng.gen.wald(mu, lam, size=size)


def sample_terminal_variance(v0, h: float, model: ModelParams, rng: RngStream):
    """Draw the variance one step ahead through its Poisson-gamma mixture.

    Returns ``(v_next, mu)`` where ``mu`` is the Poisson mixing count that the
    Poisson-conditioned schemes reuse when sampling the integrated variance.
    The marginal law of ``v_next`` is the exact noncentral chi-square
    transition of the variance process.
    """
    v0 = np.asarray(v0, dtype=float)
    # NaN fails the comparison, so it is rejected too.
    if not (h > 0 and (v0.size == 0 or v0.min() >= 0.0)):
        raise ParameterError("h must be positive and v0 nonnegative")
    phi_h = phi(model.kappa, h, model.xi)
    ekh = np.exp(-0.5 * model.kappa * h)
    mu = sample_poisson(0.5 * v0 * phi_h * ekh, rng)
    v_next = (2.0 * ekh / phi_h) * sample_std_gamma(0.5 * model.delta + mu, rng)
    return v_next, mu


def bessel_rv_logpmf(nu: float, z, j):
    """Log probability mass of the Bessel count at integer(s) j."""
    z = np.asarray(z, dtype=float)
    j = np.asarray(j, dtype=float)
    log_norm = log_bessel_iv_scaled(nu, z) + z
    return (
        (2.0 * j + nu) * np.log(0.5 * z)
        - gammaln(j + 1.0)
        - gammaln(j + nu + 1.0)
        - log_norm
    )


def sample_bessel_rv(nu: float, z, rng: RngStream, size=None):
    """Draw Bessel counts BES(nu, z), vectorized over z >= 0.

    The mass at the mode j* ~ (sqrt(nu^2 + z^2) - nu)/2 is evaluated through
    the log-scaled Bessel function, and probability is then accumulated
    outward from the mode by the two-term ratio recursion until the uniform
    draw is covered.  BES(nu, 0) is a point mass at 0.
    """
    if not np.isfinite(nu) or nu <= -1.0:
        raise ParameterError(f"Bessel order must satisfy nu > -1, got {nu}")
    z = np.asarray(z, dtype=float)
    if z.size and not (z.min() >= 0.0 and z.max() < np.inf):
        raise ParameterError("Bessel argument must be finite and positive or zero")
    scalar = z.ndim == 0 and size is None
    if size is not None:
        z = np.broadcast_to(z, (size,) if np.isscalar(size) else size).astype(float)
    z = np.atleast_1d(z)
    zero = z == 0.0
    if zero.any():
        # Search at a placeholder argument; the result is overwritten below.
        z = np.where(zero, 1.0, z)

    u = rng.gen.uniform(size=z.shape)
    jstar = np.maximum(np.floor(0.5 * (np.sqrt(nu * nu + z * z) - nu)), 0.0)
    p_mode = np.exp(bessel_rv_logpmf(nu, z, jstar))
    h2 = 0.25 * z * z

    result = jstar.copy()
    cum = p_mode.copy()
    done = cum >= u
    # Outward search state: next candidate above and below the mode.
    p_up = p_mode.copy()
    j_up = jstar.copy()
    p_dn = p_mode.copy()
    j_dn = jstar.copy()
    for _ in range(100_000):
        if done.all():
            break
        # Candidate above the mode.
        p_up = p_up * h2 / ((j_up + 1.0) * (j_up + nu + 1.0))
        j_up = j_up + 1.0
        take = ~done & (cum + p_up >= u)
        result[take] = j_up[take]
        cum += np.where(done, 0.0, p_up)
        done |= take
        # Candidate below the mode, while any remain.
        below = j_dn > 0.0
        # Masked: h2 underflows to 0 for z below ~1e-154, where j_dn is 0.
        p_dn = np.divide(p_dn * j_dn * (j_dn + nu), h2, out=np.zeros_like(h2), where=below)
        j_dn = np.where(below, j_dn - 1.0, j_dn)
        take = ~done & below & (cum + p_dn >= u)
        result[take] = j_dn[take]
        cum += np.where(done, 0.0, p_dn)
        done |= take
        # The tail mass decays factorially; once it is below rounding noise
        # the remaining uniforms (measure ~1e-16) resolve to the mode.
        if np.max(p_up) + np.max(p_dn) < 1e-18:
            break
    else:
        raise NumericalError("Bessel count sampling failed to cover the uniform draw")
    out = np.where(zero, 0, result).astype(np.int64)
    return int(out[0]) if scalar else out
