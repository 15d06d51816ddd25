"""Heston model parameters, closed-form moments, and conditional quantities.

Everything here is deterministic: model constants, the moments of the
terminal and average variance, the gamma-series coefficient bundle, the mean
and variance of the integrated variance conditional on either the variance
endpoints or the Poisson mixing count, and the two conditional Laplace
transforms used as distributional oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .bessel import bessel_ratio, log_bessel_iv_scaled
from .errors import (DomainError, NumericalError, ParameterError, check_array, check_count,
                     check_scalar)

# Hyperbolic overflow bound: sinh/cosh of arguments beyond this are not
# representable in double precision.
_MAX_HYP_ARG = 700.0


@dataclass(frozen=True)
class ModelParams:
    """Heston parameter set.

    Attributes
    ----------
    s0 : float
        Spot price, > 0.
    v0 : float
        Initial instantaneous variance, > 0.
    kappa : float
        Mean-reversion speed of the variance, > 0.
    theta : float
        Long-run variance level, > 0.
    xi : float
        Volatility of variance, > 0.
    rho : float
        Spot/variance correlation, in [-1, 1].
    r, q : float
        Riskless rate and continuous dividend yield (decimals).
    """

    s0: float
    v0: float
    kappa: float
    theta: float
    xi: float
    rho: float
    r: float = 0.0
    q: float = 0.0

    def __post_init__(self):
        for name in ("s0", "v0", "kappa", "theta", "xi", "rho", "r", "q"):
            check_scalar(ParameterError, name, getattr(self, name))
        for name in ("s0", "v0", "kappa", "theta", "xi"):
            check_array(ParameterError, name, getattr(self, name), positive=True)
        if not -1.0 <= self.rho <= 1.0:
            raise ParameterError(f"rho must lie in [-1, 1], got {self.rho}")
        for name in ("r", "q"):
            if not np.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")

    @property
    def delta(self) -> float:
        """Degrees of freedom of the variance transition, 4*kappa*theta/xi^2."""
        return 4.0 * self.kappa * self.theta / (self.xi * self.xi)

    @property
    def nu(self) -> float:
        """Bessel order delta/2 - 1."""
        return 0.5 * self.delta - 1.0


def phi(kappa_arg: float, t: float, xi: float) -> float:
    """Variance-transition scale factor (2*kappa_arg/xi^2) / sinh(kappa_arg*t/2).

    All three arguments are positive scalars.  The Laplace transforms take
    shifted rates through :func:`_log_phi` and :func:`_coth_phi`, which do not
    overflow.
    """
    check_array(ParameterError, "phi's kappa_arg, t and xi", (kappa_arg, t, xi), positive=True)
    x = 0.5 * kappa_arg * t
    if x > _MAX_HYP_ARG:
        raise DomainError(f"kappa*t/2 = {x} overflows sinh")
    return float((2.0 * kappa_arg / (xi * xi)) / np.sinh(x))


def _log_phi(kappa_arg, t: float, xi: float):
    """ln(phi) without evaluating sinh beyond its overflow range."""
    kappa_arg = np.asarray(kappa_arg, dtype=float)
    x = 0.5 * kappa_arg * t
    # ln(sinh x) = x + ln1p(-exp(-2x)) - ln 2, stable for all x > 0
    log_sinh = x + np.log1p(-np.exp(-2.0 * x)) - np.log(2.0)
    return np.log(2.0 * kappa_arg / (xi * xi)) - log_sinh


def _coth_phi(kappa_arg, t: float, xi: float):
    """cosh(kappa*t/2) * phi_t(kappa) = (2*kappa/xi^2) / tanh(kappa*t/2)."""
    kappa_arg = np.asarray(kappa_arg, dtype=float)
    return (2.0 * kappa_arg / (xi * xi)) / np.tanh(0.5 * kappa_arg * t)


def terminal_variance_moments(v0, t, model: ModelParams):
    """Mean and variance of V_t given V_0 = v0 >= 0 for the CIR variance process.

    Vectorized over ``v0`` and ``t``.
    """
    t = check_array(ParameterError, "t", t, positive=True)
    v0 = check_array(ParameterError, "v0", v0)
    e = np.exp(-model.kappa * t)
    mean = model.theta + (v0 - model.theta) * e
    var = (model.xi**2 / model.kappa) * (1.0 - e) * (v0 * e + 0.5 * model.theta * (1.0 - e))
    return mean, var


def grid_variance_means(model: ModelParams, t: float, n: int) -> np.ndarray:
    """CIR means of ``V_{i t/n}`` at a grid's right ends, ``i = 1..n``."""
    return terminal_variance_moments(model.v0, t / n * np.arange(1, n + 1), model)[0]


def grid_variance_mean(model: ModelParams, t: float, n: int) -> float:
    """Mean of ``(1/n) sum_{i=1..n} V_{i t/n}``: the CIR mean averaged over a grid's right ends."""
    return float(np.mean(grid_variance_means(model, t, n)))


def avg_variance_moments(model: ModelParams, t: float):
    """Mean and variance of the time-averaged variance over [0, t].

    The mean is also the fair strike of a continuously monitored variance swap.
    """
    check_array(ParameterError, "t", t, positive=True)
    kappa, theta, v0, xi = model.kappa, model.theta, model.v0, model.xi
    kt = kappa * t
    e = np.exp(-kt)
    g = (1.0 - e) / kt
    mean = theta + (v0 - theta) * (1.0 - e) / kt
    var = (xi**2 / (kappa**2 * t)) * (
        theta - 2.0 * (v0 - theta) * e + (v0 - 2.5 * theta + (v0 - 0.5 * theta) * e) * g
    )
    return mean, var


# Small-a Taylor coefficients of the hyperbolic coefficient bundle; the direct
# formulas cancel catastrophically as a -> 0 (the v_z numerator is O(a^4)
# against O(1) terms).  Series derived symbolically and validated against
# high-precision evaluation; accurate to machine precision for a <= 0.2.
_A_SERIES_MAX = 0.2
_MX_SERIES = (1 / 3, -2 / 45, 2 / 315, -4 / 4725, 2 / 18711, -2764 / 212837625)
_VX_SERIES = (1 / 45, -2 / 315, 2 / 1575, -4 / 18711, 1382 / 42567525, -4 / 868725)
_MZ_SERIES = (1 / 12, -1 / 180, 1 / 1890, -1 / 18900, 1 / 187110, -691 / 1277025750)
_VZ_SERIES = (1 / 360, -1 / 1890, 1 / 12600, -1 / 93555, 691 / 510810300, -1 / 6081075)


def _poly_even(coeffs, a: float) -> float:
    a2 = a * a
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * a2 + c
    return acc


@dataclass(frozen=True)
class SeriesCoeffs:
    """Coefficient bundle of the gamma-series representation over one step.

    ``mean_x``/``var_x`` scale the endpoint-driven component and
    ``mean_z``/``var_z`` the count-driven component of the integrated-variance
    moments, in time units; ``lam(k)`` and ``gam(k)`` generate the per-term
    Poisson rates and gamma scales.
    """

    kappa: float
    xi: float
    h: float
    mean_x: float
    var_x: float
    mean_z: float
    var_z: float

    def lam(self, k):
        """Poisson rate multiplier of series term k (k >= 1)."""
        k = np.asarray(k, dtype=float)
        p2 = 4.0 * k * k * np.pi**2
        return 16.0 * k * k * np.pi**2 / (self.xi**2 * self.h * (self.kappa**2 * self.h**2 + p2))

    def gam(self, k):
        """Inverse scale of series term k (k >= 1)."""
        k = np.asarray(k, dtype=float)
        p2 = 4.0 * k * k * np.pi**2
        return (self.kappa**2 * self.h**2 + p2) / (2.0 * self.xi**2 * self.h**2)

    def tail(self, trunc_k: int) -> SeriesCoeffs:
        """The bundle of the series with terms 1..trunc_k removed.

        Each factor loses its partial sum over the removed terms:
        ``sum lam/gam``, ``sum 2 lam/gam^2``, ``sum 1/gam`` and ``sum 1/gam^2``.
        Rounding can push a mathematically positive remainder slightly
        negative; within 1e-14 of the full factor it is clamped to zero, and
        beyond that it raises :class:`NumericalError`.
        """
        check_count(ParameterError, "trunc_k", trunc_k, 0)
        if trunc_k == 0:
            return self
        k = np.arange(1, trunc_k + 1, dtype=float)
        lam, gam = self.lam(k), self.gam(k)

        def rest(full: float, removed) -> float:
            out = full - float(np.sum(removed))
            if out < -1e-14 * full:
                raise NumericalError(
                    f"truncated moment went negative beyond rounding tolerance at K={trunc_k}"
                )
            return max(out, 0.0)

        return replace(self, mean_x=rest(self.mean_x, lam / gam),
                       var_x=rest(self.var_x, 2.0 * lam / gam**2),
                       mean_z=rest(self.mean_z, 1.0 / gam), var_z=rest(self.var_z, 1.0 / gam**2))


def series_coeffs(model: ModelParams, h: float) -> SeriesCoeffs:
    """Evaluate the coefficient bundle for step size h."""
    check_array(ParameterError, "h", h, positive=True)
    a = 0.5 * model.kappa * h
    if a > _MAX_HYP_ARG:
        raise DomainError(f"kappa*h/2 = {a} overflows the hyperbolic coefficients")
    if a <= _A_SERIES_MAX:
        m_x = _poly_even(_MX_SERIES, a)
        v_x = _poly_even(_VX_SERIES, a)
        m_z = _poly_even(_MZ_SERIES, a)
        v_z = _poly_even(_VZ_SERIES, a)
    else:
        c1 = 1.0 / np.tanh(a)
        c2 = 1.0 / np.sinh(a) ** 2
        m_x = (c1 - a * c2) / (2.0 * a)
        v_x = (c1 + a * c2 - 2.0 * a * a * c1 * c2) / (8.0 * a**3)
        m_z = (a * c1 - 1.0) / (4.0 * a * a)
        v_z = (a * c1 + a * a * c2 - 2.0) / (16.0 * a**4)
    xi = model.xi
    return SeriesCoeffs(model.kappa, xi, h, m_x * h, v_x * xi**2 * h**3,
                        m_z * xi**2 * h**2, v_z * xi**4 * h**4)


def check_factors(models: list[ModelParams]) -> ModelParams:
    """First of the multifactor ``models``, which must be nonempty and share (s0, r, q)."""
    if not models:
        raise ParameterError("at least one factor is required")
    head = models[0]
    for m in models[1:]:
        if (m.s0, m.r, m.q) != (head.s0, head.r, head.q):
            raise ParameterError("factors must share s0, r, and q")
    return head


class IvMoments(NamedTuple):
    """Mean and variance of the conditional integrated variance (array-valued)."""

    mean: np.ndarray
    variance: np.ndarray


def eta_moments(v0, v_t, model: ModelParams, h: float):
    """Mean and variance of the Bessel count given the variance endpoints.

    With r1 = I_{nu+1}(z)/I_nu(z), the recurrence I_{nu+2}/I_nu = 1 - 2(nu+1) r1/z
    gives var = z^2/4 - nu*mean - mean^2 from mean = z r1/2.
    """
    v0 = check_array(ParameterError, "v0", v0)
    v_t = check_array(ParameterError, "v_t", v_t)
    z = np.sqrt(v0 * v_t) * phi(model.kappa, h, model.xi)
    mean = 0.5 * z * bessel_ratio(model.nu, z)
    var = 0.25 * z * z - model.nu * mean - mean * mean
    return mean, var


def iv_moments_bessel(v0, v_t, model: ModelParams, h: float, coeffs: SeriesCoeffs | None = None) -> IvMoments:
    """Moments of the integrated variance conditional on (V_0, V_T) only.

    Requires Bessel-function ratios per evaluation; the Poisson-conditioned
    variant :func:`iv_moments_pois` avoids them.
    """
    c = coeffs if coeffs is not None else series_coeffs(model, h)
    e_eta, var_eta = eta_moments(v0, v_t, model, h)
    # Law of total variance over the count: the count-conditional moments at its
    # mean, plus Var[eta] times the squared sensitivity 2 mean_z.
    m = iv_moments_pois(v0, v_t, e_eta, model, h, c)
    return IvMoments(m.mean, m.variance + var_eta * (2.0 * c.mean_z) ** 2)


def iv_moments_pois(v0, v_t, mu, model: ModelParams, h: float, coeffs: SeriesCoeffs | None = None) -> IvMoments:
    """Moments of the integrated variance conditional on the Poisson count.

    Bessel-free: the count pins the number of unit-shape series components,
    so both moments are elementary in (v0, v_t, mu).
    """
    c = coeffs if coeffs is not None else series_coeffs(model, h)
    v0 = check_array(ParameterError, "v0", v0)
    v_t = check_array(ParameterError, "v_t", v_t)
    mu = check_array(ParameterError, "Poisson count", mu)
    vsum = v0 + v_t
    shape = 0.5 * model.delta + 2.0 * mu
    return IvMoments(vsum * c.mean_x + shape * c.mean_z, vsum * c.var_x + shape * c.var_z)


def iv_moments_truncated(
    trunc_k: int, v0, v_t, mu, model: ModelParams, h: float, coeffs: SeriesCoeffs | None = None
) -> IvMoments:
    """Moments of the series remainder after removing the first trunc_k terms.

    :func:`iv_moments_pois` with the bundle's :meth:`SeriesCoeffs.tail`, so
    ``trunc_k = 0`` reproduces it exactly.
    """
    c = coeffs if coeffs is not None else series_coeffs(model, h)
    return iv_moments_pois(v0, v_t, mu, model, h, c.tail(trunc_k))


def _laplace_terms(u, v0, v_t, model: ModelParams, h: float):
    """Terms both conditional Laplace transforms share.

    Returns ``(log_x, log_phi_u, log_phi_k)``: the log endpoint factor, and
    ln phi at kappa_u = sqrt(kappa^2 + 2 xi^2 u) and at kappa.
    """
    u = check_array(ParameterError, "Laplace argument", u)
    v0 = check_array(ParameterError, "v0", v0)
    v_t = check_array(ParameterError, "v_t", v_t)
    ku = np.sqrt(model.kappa**2 + 2.0 * model.xi**2 * u)
    if (0.5 * ku * h > _MAX_HYP_ARG).any():
        raise DomainError("kappa_u * h/2 overflows the hyperbolic functions")
    log_x = -0.5 * (v0 + v_t) * (
        _coth_phi(ku, h, model.xi) - _coth_phi(model.kappa, h, model.xi)
    )
    return log_x, _log_phi(ku, h, model.xi), _log_phi(model.kappa, h, model.xi)


def cond_laplace_pois(u, v0, v_t, mu, model: ModelParams, h: float):
    """Laplace transform of the integrated variance given (V_0, V_T, count).

    Bessel-free closed form; equals 1 at u = 0 and is used as a test oracle,
    never inverted.
    """
    log_x, log_phi_u, log_phi_k = _laplace_terms(u, v0, v_t, model, h)
    shape = 0.5 * model.delta + 2.0 * check_array(ParameterError, "Poisson count", mu)
    out = np.exp(log_x + shape * (log_phi_u - log_phi_k))
    return out if out.ndim else float(out)


def cond_laplace_bk(u, v0, v_t, model: ModelParams, h: float):
    """Laplace transform of the integrated variance given (V_0, V_T) only.

    The Bessel-ratio form; evaluated through the log-scaled Bessel function
    so that large arguments do not overflow.
    """
    log_x, log_phi_u, log_phi_k = _laplace_terms(u, v0, v_t, model, h)
    sq = np.sqrt(np.asarray(v0, float) * np.asarray(v_t, float))
    z = sq * np.exp(log_phi_k)
    z_u = sq * np.exp(log_phi_u)
    log_bessel = (log_bessel_iv_scaled(model.nu, z_u) + z_u) - (
        log_bessel_iv_scaled(model.nu, z) + z
    )
    out = np.exp(log_x + (log_phi_u - log_phi_k) + log_bessel)
    return out if out.ndim else float(out)
