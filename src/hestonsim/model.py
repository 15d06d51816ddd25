"""Heston model parameters, closed-form moments, and conditional quantities.

Everything here is deterministic: model constants, the moments of the
terminal and average variance, the gamma-series coefficient bundle, the mean
and variance of the integrated variance conditional on either the variance
endpoints or the Poisson mixing count, and the two conditional Laplace
transforms used as distributional oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bessel import bessel_ratio, log_bessel_iv_scaled
from .errors import DomainError, NumericalError, ParameterError

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
        for name in ("s0", "v0", "kappa", "theta", "xi"):
            val = getattr(self, name)
            if not np.isfinite(val) or val <= 0:
                raise ParameterError(f"{name} must be finite and positive, got {val}")
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


def phi(kappa_arg: float, t: float, xi: float):
    """Variance-transition scale factor (2*kappa_arg/xi^2) / sinh(kappa_arg*t/2).

    ``kappa_arg`` may be an array (used with shifted rates in the Laplace
    transforms); ``t`` and ``xi`` are positive scalars.
    """
    kappa_arg = np.asarray(kappa_arg, dtype=float)
    if t <= 0 or xi <= 0 or (kappa_arg <= 0).any():
        raise ParameterError("phi requires positive kappa_arg, t, and xi")
    x = 0.5 * kappa_arg * t
    if (x > _MAX_HYP_ARG).any():
        raise DomainError(f"kappa*t/2 = {np.max(x)} overflows sinh")
    out = (2.0 * kappa_arg / (xi * xi)) / np.sinh(x)
    return out if out.ndim else float(out)


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


def terminal_variance_moments(v0, t: float, model: ModelParams):
    """Mean and variance of V_t given V_0 = v0 >= 0 for the CIR variance process.

    Vectorized over ``v0``.
    """
    v0 = np.asarray(v0, dtype=float)
    if not t > 0:
        raise ParameterError("t must be positive")
    _check_endpoints(v0)
    e = np.exp(-model.kappa * t)
    mean = model.theta + (v0 - model.theta) * e
    var = (model.xi**2 / model.kappa) * (1.0 - e) * (v0 * e + 0.5 * model.theta * (1.0 - e))
    return mean, var


def avg_variance_moments(model: ModelParams, t: float):
    """Mean and variance of the time-averaged variance over [0, t].

    The mean is also the fair strike of a continuously monitored variance swap.
    """
    if t <= 0:
        raise ParameterError("t must be positive")
    kappa, theta, v0, xi = model.kappa, model.theta, model.v0, model.xi
    kt = kappa * t
    e = np.exp(-kt)
    g = (1.0 - e) / kt
    mean = theta + (v0 - theta) * g
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

    ``m_x``/``v_x`` scale the endpoint-driven component and ``m_z``/``v_z``
    the count-driven component of the integrated-variance moments; ``lam(k)``
    and ``gam(k)`` generate the per-term Poisson rates and gamma scales.
    """

    kappa: float
    xi: float
    h: float
    a: float
    c1: float
    c2: float
    m_x: float
    v_x: float
    m_z: float
    v_z: float

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

    def truncation_sums(self, trunc_k: int):
        """Partial sums over k = 1..trunc_k of the four moment contributions.

        Returns ``(sum lam/gam, sum 1/gam, sum 2*lam/gam^2, sum 1/gam^2)``,
        the amounts removed from the full moments by explicit simulation of
        the first ``trunc_k`` series terms.
        """
        if trunc_k < 0:
            raise ParameterError("truncation level must be >= 0")
        if trunc_k == 0:
            return 0.0, 0.0, 0.0, 0.0
        k = np.arange(1, trunc_k + 1, dtype=float)
        lam, gam = self.lam(k), self.gam(k)
        return (
            float(np.sum(lam / gam)),
            float(np.sum(1.0 / gam)),
            float(np.sum(2.0 * lam / gam**2)),
            float(np.sum(1.0 / gam**2)),
        )

    # Full-moment scale factors of the two components, in time units.
    @cached_property
    def mean_x(self) -> float:
        return self.m_x * self.h

    @cached_property
    def var_x(self) -> float:
        return self.v_x * self.xi**2 * self.h**3

    @cached_property
    def mean_z(self) -> float:
        return self.m_z * self.xi**2 * self.h**2

    @cached_property
    def var_z(self) -> float:
        return self.v_z * self.xi**4 * self.h**4


def series_coeffs(model: ModelParams, h: float) -> SeriesCoeffs:
    """Evaluate the coefficient bundle for step size h."""
    if h <= 0:
        raise ParameterError("h must be positive")
    a = 0.5 * model.kappa * h
    if a > _MAX_HYP_ARG:
        raise DomainError(f"kappa*h/2 = {a} overflows the hyperbolic coefficients")
    if a <= _A_SERIES_MAX:
        m_x = _poly_even(_MX_SERIES, a)
        v_x = _poly_even(_VX_SERIES, a)
        m_z = _poly_even(_MZ_SERIES, a)
        v_z = _poly_even(_VZ_SERIES, a)
        c1 = 1.0 / np.tanh(a)
        c2 = 1.0 / np.sinh(a) ** 2
    else:
        c1 = 1.0 / np.tanh(a)
        c2 = 1.0 / np.sinh(a) ** 2
        m_x = (c1 - a * c2) / (2.0 * a)
        v_x = (c1 + a * c2 - 2.0 * a * a * c1 * c2) / (8.0 * a**3)
        m_z = (a * c1 - 1.0) / (4.0 * a * a)
        v_z = (a * c1 + a * a * c2 - 2.0) / (16.0 * a**4)
    return SeriesCoeffs(model.kappa, model.xi, h, a, c1, c2, m_x, v_x, m_z, v_z)


def _check_endpoints(*vs) -> None:
    for v in vs:
        # NaN fails the comparison, so it is rejected too.
        if v.size and not v.min() >= 0.0:
            raise ParameterError("variance endpoints must be nonnegative")


class IvMoments:
    """Mean and variance of the conditional integrated variance (array-valued)."""

    __slots__ = ("mean", "variance")

    def __init__(self, mean, variance):
        self.mean = mean
        self.variance = variance

    def __iter__(self):
        return iter((self.mean, self.variance))


def eta_moments(v0, v_t, model: ModelParams, h: float):
    """Mean and variance of the Bessel count given the variance endpoints.

    With r1 = I_{nu+1}(z)/I_nu(z), the recurrence I_{nu+2}/I_nu = 1 - 2(nu+1) r1/z
    gives var = z^2/4 - nu*mean - mean^2 from mean = z r1/2.
    """
    z = np.sqrt(np.asarray(v0, float) * np.asarray(v_t, float)) * phi(model.kappa, h, model.xi)
    mean = 0.5 * z * bessel_ratio(model.nu, z)
    var = 0.25 * z * z - model.nu * mean - mean * mean
    return mean, var


def iv_moments_bessel(v0, v_t, model: ModelParams, h: float, coeffs: SeriesCoeffs | None = None) -> IvMoments:
    """Moments of the integrated variance conditional on (V_0, V_T) only.

    Requires Bessel-function ratios per evaluation; the Poisson-conditioned
    variant :func:`iv_moments_pois` avoids them.
    """
    c = coeffs if coeffs is not None else series_coeffs(model, h)
    v0 = np.asarray(v0, dtype=float)
    v_t = np.asarray(v_t, dtype=float)
    _check_endpoints(v0, v_t)
    e_eta, var_eta = eta_moments(v0, v_t, model, h)
    vsum = v0 + v_t
    half_delta = 0.5 * model.delta
    mean = vsum * c.mean_x + (half_delta + 2.0 * e_eta) * c.mean_z
    variance = (
        vsum * c.var_x
        + (half_delta + 2.0 * e_eta) * c.var_z
        + var_eta * (2.0 * c.mean_z) ** 2
    )
    return IvMoments(mean, variance)


def iv_moments_pois(v0, v_t, mu, model: ModelParams, h: float, coeffs: SeriesCoeffs | None = None) -> IvMoments:
    """Moments of the integrated variance conditional on the Poisson count.

    Bessel-free: the count pins the number of unit-shape series components,
    so both moments are elementary in (v0, v_t, mu).
    """
    c = coeffs if coeffs is not None else series_coeffs(model, h)
    v0 = np.asarray(v0, dtype=float)
    v_t = np.asarray(v_t, dtype=float)
    mu = np.asarray(mu, dtype=float)
    _check_endpoints(v0, v_t)
    if (mu < 0).any():
        raise ParameterError("Poisson count must be nonnegative")
    vsum = v0 + v_t
    shape = 0.5 * model.delta + 2.0 * mu
    return IvMoments(vsum * c.mean_x + shape * c.mean_z, vsum * c.var_x + shape * c.var_z)


def iv_moments_truncated(
    trunc_k: int, v0, v_t, mu, model: ModelParams, h: float, coeffs: SeriesCoeffs | None = None
) -> IvMoments:
    """Moments of the series remainder after removing the first trunc_k terms.

    ``trunc_k = 0`` reproduces :func:`iv_moments_pois` exactly.  Rounding can
    push a mathematically nonnegative remainder slightly negative; such values
    are clamped to zero, while a negative value beyond rounding magnitude
    raises :class:`NumericalError`.
    """
    c = coeffs if coeffs is not None else series_coeffs(model, h)
    full = iv_moments_pois(v0, v_t, mu, model, h, c)
    if trunc_k == 0:
        return full
    s_lg, s_g, s_lg2, s_g2 = c.truncation_sums(trunc_k)
    vsum = np.asarray(v0, float) + np.asarray(v_t, float)
    shape = 0.5 * model.delta + 2.0 * np.asarray(mu, float)
    mean = full.mean - vsum * s_lg - shape * s_g
    variance = full.variance - vsum * s_lg2 - shape * s_g2
    for trunc, ref in ((mean, full.mean), (variance, full.variance)):
        bad = trunc < -1e-14 * ref
        if bad.any():
            raise NumericalError(
                f"truncated moment went negative beyond rounding tolerance at K={trunc_k}"
            )
    return IvMoments(np.maximum(mean, 0.0), np.maximum(variance, 0.0))


def _kappa_u(u, model: ModelParams):
    return np.sqrt(model.kappa**2 + 2.0 * model.xi**2 * np.asarray(u, dtype=float))


def cond_laplace_pois(u, v0, v_t, mu, model: ModelParams, h: float):
    """Laplace transform of the integrated variance given (V_0, V_T, count).

    Bessel-free closed form; equals 1 at u = 0 and is used as a test oracle,
    never inverted.
    """
    u = np.asarray(u, dtype=float)
    if (u < 0).any():
        raise ParameterError("Laplace argument must be nonnegative")
    ku = _kappa_u(u, model)
    if (0.5 * ku * h > _MAX_HYP_ARG).any():
        raise DomainError("kappa_u * h/2 overflows the hyperbolic functions")
    v0 = np.asarray(v0, float)
    v_t = np.asarray(v_t, float)
    shape = 0.5 * model.delta + 2.0 * np.asarray(mu, float)
    log_x = -0.5 * (v0 + v_t) * (
        _coth_phi(ku, h, model.xi) - _coth_phi(model.kappa, h, model.xi)
    )
    log_ratio = _log_phi(ku, h, model.xi) - _log_phi(model.kappa, h, model.xi)
    out = np.exp(log_x + shape * log_ratio)
    return out if out.ndim else float(out)


def cond_laplace_bk(u, v0, v_t, model: ModelParams, h: float):
    """Laplace transform of the integrated variance given (V_0, V_T) only.

    The Bessel-ratio form; evaluated through the log-scaled Bessel function
    so that large arguments do not overflow.
    """
    u = np.asarray(u, dtype=float)
    if (u < 0).any():
        raise ParameterError("Laplace argument must be nonnegative")
    ku = _kappa_u(u, model)
    if (0.5 * ku * h > _MAX_HYP_ARG).any():
        raise DomainError("kappa_u * h/2 overflows the hyperbolic functions")
    v0 = np.asarray(v0, float)
    v_t = np.asarray(v_t, float)
    sq = np.sqrt(v0 * v_t)
    log_phi_k = _log_phi(model.kappa, h, model.xi)
    log_phi_u = _log_phi(ku, h, model.xi)
    z = sq * np.exp(log_phi_k)
    z_u = sq * np.exp(log_phi_u)
    log_x = -0.5 * (v0 + v_t) * (
        _coth_phi(ku, h, model.xi) - _coth_phi(model.kappa, h, model.xi)
    )
    log_bessel = (log_bessel_iv_scaled(model.nu, z_u) + z_u) - (
        log_bessel_iv_scaled(model.nu, z) + z
    )
    out = np.exp(log_x + (log_phi_u - log_phi_k) + log_bessel)
    return out if out.ndim else float(out)
