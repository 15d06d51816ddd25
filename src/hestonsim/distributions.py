"""Random-variate samplers used by the simulation schemes.

Poisson, standard gamma, and inverse Gaussian draws are delegated to the
generator behind :class:`~hestonsim.rng.RngStream` (which provides exact
samplers for all parameter ranges, including gamma shapes below one and
Poisson rates in the millions).  The Bessel count sampler is implemented
here: its probability masses are the normalized power-series coefficients of
I_nu, sampled by an outward search from the distribution mode.  The mass at
the mode is the reciprocal of the series sum taken relative to its peak term,
which the Bessel layer computes in one pass.
"""

from __future__ import annotations

import numpy as np

from .bessel import _check_args, _peak_sums, log_bessel_iv_scaled, log_gamma
from .errors import NumericalError, ParameterError, check_array
from .model import ModelParams, phi
from .rng import RngStream

# Poisson rates at or beyond 2^63 cannot be returned as integer counts.
_MAX_POISSON_RATE = 2.0**62


def sample_poisson(rate, rng: RngStream):
    """Draw Poisson counts with the given rate (scalar or array)."""
    rate = check_array(ParameterError, "Poisson rate", rate)
    if rate.size and rate.max() >= _MAX_POISSON_RATE:
        raise ParameterError(
            "Poisson rate too large to sample as an integer count; "
            "use a larger time step or fewer paths per call"
        )
    return rng.gen.poisson(rate)


def sample_std_gamma(shape, rng: RngStream):
    """Draw unit-scale gamma variates; any shape > 0 is admissible.

    Shapes of exactly zero are allowed elementwise in array calls and yield
    zero (the degenerate gamma), which the series samplers rely on.
    """
    shape = check_array(ParameterError, "gamma shape", shape)
    if shape.ndim == 0 and shape == 0:
        raise ParameterError("gamma shape must be positive")
    return rng.gen.standard_gamma(shape)


def sample_invgauss(mu, lam, rng: RngStream):
    """Draw inverse Gaussian variates with mean mu and variance mu^3/lam."""
    mu = check_array(ParameterError, "inverse Gaussian mean", mu, positive=True)
    lam = check_array(ParameterError, "inverse Gaussian shape", lam, positive=True)
    return rng.gen.wald(mu, lam)


def sample_terminal_variance(v0, h: float, model: ModelParams, rng: RngStream):
    """Draw the variance one step ahead through its Poisson-gamma mixture.

    Returns ``(v_next, mu)`` where ``mu`` is the Poisson mixing count that the
    Poisson-conditioned schemes reuse when sampling the integrated variance.
    The marginal law of ``v_next`` is the exact noncentral chi-square
    transition of the variance process.
    """
    v0 = check_array(ParameterError, "v0", v0)
    phi_h = phi(model.kappa, h, model.xi)
    ekh = np.exp(-0.5 * model.kappa * h)
    mu = sample_poisson(0.5 * v0 * phi_h * ekh, rng)
    v_next = (2.0 * ekh / phi_h) * sample_std_gamma(0.5 * model.delta + mu, rng)
    return v_next, mu


def bessel_rv_logpmf(nu: float, z, j):
    """Log probability mass of the Bessel count at integer(s) j; -inf for j < 0.

    A reference for tests: :func:`sample_bessel_rv` does not call it.
    """
    z = np.asarray(z, dtype=float)
    j = np.asarray(j, dtype=float)
    # log_gamma takes positive arguments only; the clipped entries are replaced below.
    jc = np.maximum(j, 0.0)
    log_norm = log_bessel_iv_scaled(nu, z) + z
    out = (
        (2.0 * jc + nu) * np.log(0.5 * z)
        - log_gamma(jc + 1.0)
        - log_gamma(jc + nu + 1.0)
        - log_norm
    )
    return np.where(j < 0.0, -np.inf, out)


def sample_bessel_rv(nu: float, z, rng: RngStream):
    """Draw one Bessel count BES(nu, z) per entry of the 1-D array z >= 0, as int64.

    The mode j* ~ (sqrt(nu^2 + z^2) - nu)/2 is the peak index of the I_nu
    power series, so its mass is 1 / (series sum in units of its peak term),
    from one peak-centred pass at every z.  Probability is then accumulated
    outward from the mode by the two-term ratio recursion, over the draws
    whose uniform is not yet covered, until each is.
    The series pass owns z = 0: there the mode is 0 with mass 1, so
    BES(nu, 0) is a point mass at 0.
    """
    z = np.atleast_1d(_check_args(nu, z))
    u = rng.gen.uniform(size=z.size)
    result, total, _ = _peak_sums(nu, z)
    p_mode = 1.0 / total

    # Outward search over the draws not covered at the mode: ``live`` indexes
    # them, and the state arrays hold one entry per live draw.
    live = np.flatnonzero(p_mode < u)
    u, cum, h2 = u[live], p_mode[live], 0.25 * z[live] * z[live]
    p_up, j_up = cum.copy(), result[live]
    p_dn, j_dn = cum.copy(), j_up.copy()
    for _ in range(100_000):
        if not live.size:
            break
        # Candidate above the mode.
        p_up = p_up * h2 / ((j_up + 1.0) * (j_up + nu + 1.0))
        j_up += 1.0
        take_up = cum + p_up >= u
        result[live[take_up]] = j_up[take_up]
        cum += p_up
        # Candidate below the mode, while any remain.
        below = j_dn > 0.0
        # Masked: h2 is 0 at z = 0 and underflows to 0 for z below ~1e-154;
        # there j_dn is 0.
        p_dn = np.divide(p_dn * j_dn * (j_dn + nu), h2, out=np.zeros_like(h2), where=below)
        j_dn -= below
        take_dn = ~take_up & below & (cum + p_dn >= u)
        result[live[take_dn]] = j_dn[take_dn]
        cum += p_dn
        # The tail mass decays factorially; once it is below rounding noise
        # the remaining uniforms (measure ~1e-16) resolve to the mode.
        if np.max(p_up) + np.max(p_dn) < 1e-18:
            break
        keep = ~(take_up | take_dn)
        live, u, cum, h2, p_up, j_up, p_dn, j_dn = (
            a[keep] for a in (live, u, cum, h2, p_up, j_up, p_dn, j_dn))
    else:
        raise NumericalError("Bessel count sampling failed to cover the uniform draw")
    return result.astype(np.int64)
