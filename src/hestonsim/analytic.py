"""Closed-form benchmarks: Fourier call pricer, Black-Scholes call, and
continuous/discrete variance-swap fair strikes.

The characteristic function uses the rotation-safe branch ("little trap"
formulation) so that long maturities with strong negative correlation do not
cross a branch cut of the complex logarithm.  European calls are priced by
Gil-Pelaez inversion, both in-the-money probabilities in one integral over
(0, inf) taken by the double-exponential rule u = s exp(t - e^-t) for decaying
integrands (Takahasi & Mori 1974): nested trapezoid sums in t, each level
halving the step and evaluating the characteristic function on its new nodes
in one call.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericalError, ParameterError, check_array, check_scalar
from .model import ModelParams, avg_variance_moments, check_factors

# exp() overflows double precision beyond this exponent magnitude.
_MAX_EXP_ARG = 700.0
# t range and first step of the double-exponential rule: u / s runs from 1e-26 to 8e3.
_DE_T_MIN, _DE_T_MAX, _DE_STEP = -4.0, 9.0, 0.5
# Normal CDF (Shepherd & Laframboise 1981, Math. Comp. 36): with y = |x|/sqrt(2)
# and t = (y - K)/(y + K), erfc(y) = exp(-y^2) P(t) / (1 + 2y), where P is the
# degree-24 polynomial below, highest degree first, from mpmath:
# mp.dps = 30; chebyfit(lambda t: (lambda y: (1 + 2*y) * exp(y*y) * erfc(y))(3.75 * (1 + t) / (1 - t)) if t < 1 else 2 / sqrt(pi), [-1, 1], 25)
_NDTR_K = 3.75
_NDTR_P = (
    4.434959070009628e-10, 3.110310719839165e-10, -5.28428697963142e-09,
    -3.743568033634583e-09, 3.8965452548985966e-08, 2.3261913276696566e-08,
    -2.591069687796658e-07, -5.721597255990987e-08, 1.752057970166318e-06,
    -9.735619015182663e-07, -1.1444412439171722e-05, 2.2384240314224437e-05,
    5.1649211390702855e-05, -0.0002901540809795271, 0.0002937136342850081,
    0.0017556258530017257, -0.009746579552504244, 0.028362277418940665,
    -0.058693398590212366, 0.09230432116037876, -0.10880393014171785,
    0.08227673849014516, 0.003585415485463775, -0.14024059858554697,
    1.2375126308378275,
)
# erfc(y) underflows to 0 well before this clamp, which keeps y*y and t finite.
_NDTR_Y_MAX = 40.0
# The Fourier price's one tolerance, on the integral in units of S e^{-qT}, and
# its cap on quadrature nodes, each evaluated at u and u - i.
_FOURIER_TOL = 1e-10
_FOURIER_MAX_NODES = 10_000


def _log_cf_vol_part(u, model: ModelParams, T: float):
    """Variance-factor contribution to ln E[exp(i u ln(S_T/S_0))].

    Valid for complex ``u`` (the shifted argument ``u - i`` appears in the
    delta-probability integral).  Uses the branch of the square root and
    logarithm that stays continuous in ``u``.
    """
    kappa, theta, xi, rho, v0 = model.kappa, model.theta, model.xi, model.rho, model.v0
    beta = kappa - 1j * rho * xi * u
    q = xi * xi * (1j * u + u * u)
    d = np.sqrt(beta * beta + q)
    # beta - d without the cancellation of the subtraction when xi is small.
    bmd = -q / (beta + d)
    g = bmd / (beta + d)
    # The branch keeps Re(d) >= 0, so exp(-dT) underflows harmlessly at
    # large |u| instead of overflowing.
    edt = np.exp(-d * T)
    log_ratio = np.log((1.0 - g * edt) / (1.0 - g))
    return (kappa * theta / xi**2) * (bmd * T - 2.0 * log_ratio) + (
        v0 / xi**2
    ) * bmd * (1.0 - edt) / (1.0 - g * edt)


def heston_charfn(u, model: ModelParams, T: float):
    """Characteristic function of ln(S_T/S_0) under the risk-neutral measure."""
    return heston_charfn_multifactor(u, [model], T)


def heston_charfn_multifactor(u, models: list[ModelParams], T: float):
    """Characteristic function of ln(S_T/S_0) with independent variance factors.

    The factors contribute multiplicatively; all must share (s0, r, q).
    """
    head = check_factors(models)
    check_array(ParameterError, "T", T, positive=True)
    u = np.asarray(u, dtype=complex)
    log_cf = 1j * u * (head.r - head.q) * T
    for m in models:
        log_cf = log_cf + _log_cf_vol_part(u, m, T)
    if (log_cf.real > _MAX_EXP_ARG).any():
        raise DomainError("characteristic-function exponent overflows; reduce |Im u| or T")
    out = np.exp(log_cf)
    return out if out.ndim else complex(out)


def price_european_exact(model: ModelParams, T: float, strike: float) -> float:
    """European call price by Fourier inversion, its integral within ``_FOURIER_TOL``
    (1e-10) in units of S e^{-qT}.  NumericalError where far out of the money the
    rounding exceeds that, or the price leaves the no-arbitrage range by twice it."""
    return price_european_exact_multifactor([model], T, strike)


def price_european_exact_multifactor(models: list[ModelParams], T: float, strike: float) -> float:
    """European call under the multifactor model, via the product characteristic function.

    C / (S e^{-qT}) = (1 - b) / 2 + (1 / pi) int_0^inf Re[e^{-iuk} (phi(u - i) / phi(-i)
    - b phi(u)) / (iu)] du, with k = ln(K/S) and b = K e^{-rT} / (S e^{-qT}).
    """
    check_scalar(ParameterError, "T", T)
    check_scalar(ParameterError, "strike", strike)
    check_array(ParameterError, "T and strike", (T, strike), positive=True)
    # For kappa < rho xi the little-trap g is 0/0 here; the NaN fails the check below.
    with np.errstate(divide="ignore", invalid="ignore"):
        fwd_cf = heston_charfn_multifactor(-1j, models, T)
    # Written so that NaN fails; abs() of a complex NaN can raise OverflowError.
    if not abs(fwd_cf.imag) <= 1e-8 * abs(fwd_cf.real):
        raise NumericalError("characteristic function fails the forward identity")
    head = models[0]
    k = np.log(strike / head.s0)
    spot = head.s0 * np.exp(-head.q * T)
    b = strike * np.exp(-head.r * T) / spot
    # Far out of the money both terms of the price are about b/2, so it carries
    # a rounding error of about b eps spot, which must stay within the tolerance.
    if not b * np.finfo(float).eps <= _FOURIER_TOL:
        raise NumericalError(f"strike {strike} is too far out of the money for Fourier inversion")
    # u in units of 1 / sd(ln S_T), the variance taken as its expected value.
    scale = 1.0 / np.sqrt(T * sum(varswap_strike_continuous(m, T) for m in models))

    def weighted(t):
        # With u = scale * exp(t - e^-t), du/dt = u (1 + e^-t) cancels the
        # 1/(iu), so the removable point u = 0 costs no division.
        em = np.exp(-t)
        u = scale * np.exp(t - em)
        cf = heston_charfn_multifactor(np.concatenate([u - 1j, u]), models, T)
        return (1.0 + em) * np.exp(-1j * u * k) * (cf[:u.size] / fwd_cf.real - b * cf[u.size:])

    t = np.arange(_DE_T_MIN, _DE_T_MAX + 0.5 * _DE_STEP, _DE_STEP)
    g = weighted(t)
    # Keep one node past the last one above tolerance; the tail decays double-exponentially.
    n = int(np.max(np.flatnonzero(np.abs(g) > 1e-2 * _FOURIER_TOL), initial=0)) + 1
    if n >= t.size:
        raise NumericalError("Fourier integrand has not decayed at the end of the node range")
    h, prev, total, nodes = _DE_STEP, np.inf, _DE_STEP * g[:n + 1].imag.sum(), t.size
    # Written so that a NaN sum keeps refining until the node limit.
    while not abs(total - prev) <= _FOURIER_TOL:
        h, n = 0.5 * h, 2 * n
        nodes += n // 2
        if nodes > _FOURIER_MAX_NODES:
            raise NumericalError(f"Fourier quadrature did not converge within {_FOURIER_MAX_NODES} nodes")
        prev, total = total, 0.5 * total + h * weighted(t[0] + h * np.arange(1, n, 2)).imag.sum()
    price = spot * (0.5 * (1.0 - b) + total / np.pi)
    # The no-arbitrage range, widened by the rounding and the quadrature tolerance.
    tol = 2.0 * _FOURIER_TOL * spot
    if not spot * max(1.0 - b, 0.0) - tol <= price <= spot + tol:
        raise NumericalError(f"Fourier price {price} lies outside the no-arbitrage range")
    return price


def bs_call_undiscounted(forward, sigma, T: float, strike):
    """Undiscounted Black call price on the forward; sigma = 0 gives intrinsic value."""
    check_array(ParameterError, "T", T, positive=True)
    forward = check_array(ParameterError, "forward", forward, positive=True)
    sigma = check_array(ParameterError, "sigma", sigma)
    strike = check_array(ParameterError, "strike", strike, positive=True)
    vol = sigma * np.sqrt(T)
    safe = np.where(vol > 0, vol, 1.0)
    d1 = np.log(forward / strike) / safe + 0.5 * safe
    price = np.where(
        vol > 0,
        forward * _ndtr(d1) - strike * _ndtr(d1 - safe),
        np.maximum(forward - strike, 0.0),
    )
    return price if price.ndim else float(price)


def _ndtr(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF, elementwise; relative error below 3e-13 down to 1e-300.

    Works in place on three buffers of x's size.  Call it once per 1-D
    batch: at 10k paths a buffer is 80 KB, under glibc's 128 KB mmap
    threshold, where a stacked 2 x 10k input would map and unmap every buffer.
    """
    shape = np.shape(x)
    x = np.ravel(x)  # a 0-d x would make every buffer a numpy scalar, which out= refuses
    upper = x >= 0
    y = np.abs(x)
    y *= np.sqrt(0.5)
    np.minimum(y, _NDTR_Y_MAX, out=y)
    t = y + _NDTR_K
    p = y - _NDTR_K
    np.divide(p, t, out=t)
    p.fill(_NDTR_P[0])
    for c in _NDTR_P[1:]:
        p *= t
        p += c
    # p becomes half of erfc(|x|/sqrt(2)), the tail mass beyond |x|.
    np.multiply(y, y, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    p *= t
    p *= 0.5
    y *= 2.0
    y += 1.0
    p /= y
    return np.subtract(1.0, p, out=p, where=upper).reshape(shape)


def varswap_strike_continuous(model: ModelParams, T: float) -> float:
    """Fair strike of the continuously monitored variance swap."""
    return avg_variance_moments(model, T)[0]


def varswap_strike_discrete(model: ModelParams, T: float, h: float) -> float:
    """Fair strike of the variance swap monitored every h years over [0, T].

    The continuous strike plus a closed-form adjustment in the monitoring
    step; the adjustment vanishes as h decreases to zero.
    """
    check_scalar(ParameterError, "T", T)
    check_scalar(ParameterError, "h", h)
    check_array(ParameterError, "T and h", (T, h), positive=True)
    n = T / h
    if not 0.5 <= n < np.inf or abs(n - round(n)) > 1e-9 * max(n, 1.0):
        raise ParameterError(f"T/h = {n} must be a positive integer number of periods")
    kappa, theta, xi, rho, v0 = model.kappa, model.theta, model.xi, model.rho, model.v0
    drift = theta + 2.0 * model.q - 2.0 * model.r
    g_t = (1.0 - np.exp(-kappa * T)) / (kappa * T)
    kh = kappa * h

    delta = 0.25 * h * drift * (drift + 2.0 * (v0 - theta) * g_t)
    delta += (theta * xi / kappa) * (xi / (4.0 * kappa) - rho) * (
        1.0 - (1.0 - np.exp(-kh)) / kh
    )
    delta += (
        (v0 - theta)
        * (xi / kappa)
        * (xi / (2.0 * kappa) - rho)
        * g_t
        * (1.0 + kh / (1.0 - np.exp(kh)))
    )
    delta += (
        (xi**2 / kappa**2 * (theta - 2.0 * v0) + 2.0 / kappa * (v0 - theta) ** 2)
        * (1.0 - np.exp(-2.0 * kappa * T))
        / (8.0 * kappa * T)
        * (1.0 - np.exp(-kh))
        / (1.0 + np.exp(-kh))
    )
    return varswap_strike_continuous(model, T) + delta
