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

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import DomainError, NumericalError, ParameterError
from .model import ModelParams

# exp() overflows double precision beyond this exponent magnitude.
_MAX_EXP_ARG = 700.0
# t range and first step of the double-exponential rule: u / s runs from 1e-26 to 8e3.
_DE_T_MIN, _DE_T_MAX, _DE_STEP = -4.0, 9.0, 0.5


@dataclass(frozen=True)
class QuadratureSpec:
    """Fourier inversion controls: two successive levels must agree within
    max(epsabs, epsrel * |integral|), the integral in units of S e^{-qT}; ``limit``
    caps the nodes, each evaluated at u and u - i, before NumericalError."""

    epsabs: float = 1e-10
    epsrel: float = 1e-10
    limit: int = 10_000

    def __post_init__(self):
        if self.epsabs <= 0 or self.epsrel <= 0 or self.limit < 10:
            raise ParameterError("quadrature tolerances must be positive, limit >= 10")


def _log_cf_vol_part(u, model: ModelParams, T: float):
    """Variance-factor contribution to ln E[exp(i u ln(S_T/S_0))].

    Valid for complex ``u`` (the shifted argument ``u - i`` appears in the
    delta-probability integral).  Uses the branch of the square root and
    logarithm that stays continuous in ``u``.
    """
    kappa, theta, xi, rho, v0 = model.kappa, model.theta, model.xi, model.rho, model.v0
    beta = kappa - 1j * rho * xi * u
    d = np.sqrt(beta * beta + xi * xi * (1j * u + u * u))
    g = (beta - d) / (beta + d)
    # The branch keeps Re(d) >= 0, so exp(-dT) underflows harmlessly at
    # large |u| instead of overflowing.
    edt = np.exp(-d * T)
    log_ratio = np.log((1.0 - g * edt) / (1.0 - g))
    return (kappa * theta / xi**2) * ((beta - d) * T - 2.0 * log_ratio) + (
        v0 / xi**2
    ) * (beta - d) * (1.0 - edt) / (1.0 - g * edt)


def heston_charfn(u, model: ModelParams, T: float):
    """Characteristic function of ln(S_T/S_0) under the risk-neutral measure."""
    return heston_charfn_multifactor(u, [model], T)


def heston_charfn_multifactor(u, models: list[ModelParams], T: float):
    """Characteristic function of ln(S_T/S_0) with independent variance factors.

    The factors contribute multiplicatively; all must share (s0, r, q).
    """
    if not models:
        raise ParameterError("at least one factor is required")
    if T <= 0:
        raise ParameterError("T must be positive")
    head = models[0]
    for m in models[1:]:
        if (m.s0, m.r, m.q) != (head.s0, head.r, head.q):
            raise ParameterError("factors must share s0, r, and q")
    u = np.asarray(u, dtype=complex)
    log_cf = 1j * u * (head.r - head.q) * T
    for m in models:
        log_cf = log_cf + _log_cf_vol_part(u, m, T)
    if (log_cf.real > _MAX_EXP_ARG).any():
        raise DomainError("characteristic-function exponent overflows; reduce |Im u| or T")
    out = np.exp(log_cf)
    return out if out.ndim else complex(out)


def price_european_exact(model: ModelParams, T: float, strike: float,
                         quadrature: QuadratureSpec | None = None) -> float:
    """European call price by Fourier inversion, accurate to ~1e-8."""
    return price_european_exact_multifactor([model], T, strike, quadrature)


def price_european_exact_multifactor(models: list[ModelParams], T: float, strike: float,
                                     quadrature: QuadratureSpec | None = None) -> float:
    """European call under the multifactor model, via the product characteristic function.

    C / (S e^{-qT}) = (1 - b) / 2 + (1 / pi) int_0^inf Re[e^{-iuk} (phi(u - i) / phi(-i)
    - b phi(u)) / (iu)] du, with k = ln(K/S) and b = K e^{-rT} / (S e^{-qT}).
    """
    if T <= 0 or strike <= 0:
        raise ParameterError("T and strike must be positive")
    quad = quadrature if quadrature is not None else QuadratureSpec()
    fwd_cf = heston_charfn_multifactor(-1j, models, T)
    # Written so that NaN fails; abs() of a complex NaN can raise OverflowError.
    if not abs(fwd_cf.imag) <= 1e-8 * abs(fwd_cf.real):
        raise NumericalError("characteristic function fails the forward identity")
    head = models[0]
    k = np.log(strike / head.s0)
    spot = head.s0 * np.exp(-head.q * T)
    b = strike * np.exp(-head.r * T) / spot
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
    n = int(np.max(np.flatnonzero(np.abs(g) > 1e-2 * quad.epsabs), initial=0)) + 1
    if n >= t.size:
        raise NumericalError("Fourier integrand has not decayed at the end of the node range")
    h, prev, total, nodes = _DE_STEP, np.inf, _DE_STEP * g[:n + 1].imag.sum(), t.size
    # Written so that a NaN sum keeps refining until the node limit.
    while not abs(total - prev) <= max(quad.epsabs, quad.epsrel * abs(total)):
        h, n = 0.5 * h, 2 * n
        nodes += n // 2
        if nodes > quad.limit:
            raise NumericalError(f"Fourier quadrature did not converge within {quad.limit} nodes")
        prev, total = total, 0.5 * total + h * weighted(t[0] + h * np.arange(1, n, 2)).imag.sum()
    return spot * (0.5 * (1.0 - b) + total / np.pi)


def bs_call_undiscounted(forward, sigma, T: float, strike):
    """Undiscounted Black call price on the forward; sigma = 0 gives intrinsic value."""
    if T <= 0:
        raise ParameterError("T must be positive")
    forward = np.asarray(forward, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    strike = np.asarray(strike, dtype=float)
    if (forward <= 0).any() or (strike <= 0).any() or (sigma < 0).any():
        raise ParameterError("forward and strike must be positive, sigma nonnegative")
    vol = sigma * np.sqrt(T)
    safe = np.where(vol > 0, vol, 1.0)
    d1 = np.log(forward / strike) / safe + 0.5 * safe
    d2 = d1 - safe
    price = np.where(
        vol > 0,
        forward * ndtr(d1) - strike * ndtr(d2),
        np.maximum(forward - strike, 0.0),
    )
    return price if price.ndim else float(price)


def varswap_strike_continuous(model: ModelParams, T: float) -> float:
    """Fair strike of the continuously monitored variance swap."""
    if T <= 0:
        raise ParameterError("T must be positive")
    kt = model.kappa * T
    return model.theta + (model.v0 - model.theta) * (1.0 - np.exp(-kt)) / kt


def varswap_strike_discrete(model: ModelParams, T: float, h: float) -> float:
    """Fair strike of the variance swap monitored every h years over [0, T].

    The continuous strike plus a closed-form adjustment in the monitoring
    step; the adjustment vanishes as h decreases to zero.
    """
    if T <= 0 or h <= 0:
        raise ParameterError("T and h must be positive")
    n = T / h
    if abs(n - round(n)) > 1e-9 * max(n, 1.0):
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
