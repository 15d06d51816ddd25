"""Single-period simulation kernels and Monte Carlo pricing drivers.

Five schemes share one step contract: each consumes the current variance and
produces the next variance, the integrated variance over the step, and any
martingale-correction terms.

* ``ge``       -- gamma-series expansion with a Bessel count and three
                  moment-matched gamma remainders (exact, one step).
* ``pois_ge``  -- Poisson-conditioned gamma series with an inverse Gaussian
                  remainder (exact, one step; ``trunc_k = 0`` is the
                  Poisson-conditioned low-bias special case).
* ``ig``       -- inverse Gaussian approximation of the whole integrated
                  variance, moments via Bessel ratios (low bias, multi-step).
* ``qem``      -- quadratic-exponential variance draw, trapezoidal integrated
                  variance, martingale correction (time discretization).
* ``pois_td``  -- Poisson-conditioned time discretization: exact variance
                  transition with the conditional-mean integrated variance
                  and variance-based corrections.

All kernels are vectorized over paths and are pure functions of their random
stream; pricing drivers batch paths over indexed substreams so results do not
depend on scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analytic import bs_call_undiscounted
from .distributions import (
    sample_bessel_rv,
    sample_invgauss,
    sample_poisson,
    sample_std_gamma,
    sample_terminal_variance,
)
from .errors import ConfigurationError, DomainError, ParameterError
from .model import (
    ModelParams,
    SeriesCoeffs,
    iv_moments_bessel,
    iv_moments_pois,
    iv_moments_truncated,
    phi,
    series_coeffs,
)
from .rng import RngStream

SCHEME_KINDS = ("ge", "pois_ge", "ig", "qem", "pois_td")
TIME_DISCRETIZATION_KINDS = ("qem", "pois_td")
MARTINGALE_MODES = ("none", "price", "return_variance")

#: Paths simulated per random substream; fixed so that estimates are
#: invariant to how batches are distributed over threads.
BATCH_SIZE = 10_000

# Inverse Gaussian shape parameters beyond this describe a distribution
# indistinguishable from its mean in double precision.
_IG_LAMBDA_MAX = 1e300


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme selector with truncation level, step count, and correction mode."""

    kind: str
    trunc_k: int = 0
    n_steps: int = 1
    martingale_mode: str = "none"

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ConfigurationError(f"unknown scheme kind {self.kind!r}")
        if self.trunc_k < 0:
            raise ConfigurationError("trunc_k must be >= 0")
        if self.trunc_k and self.kind not in ("ge", "pois_ge"):
            raise ConfigurationError(f"trunc_k applies only to series schemes, not {self.kind!r}")
        if self.n_steps < 1:
            raise ConfigurationError("n_steps must be >= 1")
        if self.martingale_mode not in MARTINGALE_MODES:
            raise ConfigurationError(f"unknown martingale mode {self.martingale_mode!r}")
        if self.martingale_mode != "none" and self.kind not in TIME_DISCRETIZATION_KINDS:
            raise ConfigurationError(
                "martingale corrections apply only to time-discretization schemes"
            )


@dataclass
class StepResult:
    """Outcome of one simulation step over all paths."""

    v_next: np.ndarray
    iv: np.ndarray
    mu: Optional[np.ndarray] = None
    mart_price: np.ndarray | float = 0.0
    mart_retvar: np.ndarray | float = 0.0


def _invgauss_from_moments(mean, var, rng: RngStream):
    """Inverse Gaussian draw matching (mean, var); degenerate moments return the mean."""
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float)
    with np.errstate(over="ignore"):
        lam = np.where(var > 0, mean**3 / np.where(var > 0, var, 1.0), np.inf)
    ok = (mean > 0) & (var > 0) & (lam < _IG_LAMBDA_MAX)
    out = mean.copy()
    if ok.any():
        out[ok] = sample_invgauss(mean[ok], lam[ok], rng)
    return out


def _gamma_from_moments(mean, var, rng: RngStream):
    """Gamma draw matching (mean, var); degenerate moments return the mean."""
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float)
    ok = (mean > 0) & (var > 0)
    shape = np.where(ok, mean * mean / np.where(ok, var, 1.0), 0.0)
    scale = np.where(ok, var / np.where(ok, mean, 1.0), 0.0)
    out = mean.copy()
    if ok.any():
        out[ok] = scale[ok] * sample_std_gamma(shape[ok], rng)
    return out


def step_pois_ge(v, h: float, trunc_k: int, model: ModelParams, rng: RngStream,
                 coeffs: SeriesCoeffs | None = None) -> StepResult:
    """Poisson-conditioned series step with an inverse Gaussian remainder."""
    c = coeffs if coeffs is not None else series_coeffs(model, h)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    v_next, mu = sample_terminal_variance(v, h, model, rng)

    shape0 = 0.5 * model.delta + 2.0 * mu
    iv = np.zeros_like(v)
    if trunc_k:
        ks = np.arange(1, trunc_k + 1)
        lam_k = c.lam(ks)
        gam_k = c.gam(ks)
        vsum = v + v_next
        for lam, gam in zip(lam_k, gam_k):
            n_k = sample_poisson(vsum * lam, rng)
            iv += sample_std_gamma(n_k + shape0, rng) / gam
    rem = iv_moments_truncated(trunc_k, v, v_next, mu, model, h, c)
    iv += _invgauss_from_moments(rem.mean, rem.variance, rng)
    return StepResult(v_next=v_next, iv=iv, mu=mu)


def step_ge(v, h: float, trunc_k: int, model: ModelParams, rng: RngStream,
            coeffs: SeriesCoeffs | None = None) -> StepResult:
    """Gamma-series step with a Bessel count and gamma-matched remainders."""
    c = coeffs if coeffs is not None else series_coeffs(model, h)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    n = v.shape[0]
    phi_h = phi(model.kappa, h, model.xi)
    ekh = np.exp(-0.5 * model.kappa * h)
    v_next = (ekh / phi_h) * rng.gen.noncentral_chisquare(model.delta, v * phi_h * ekh, size=n)
    z = np.sqrt(v * v_next) * phi_h
    eta = sample_bessel_rv(model.nu, z, rng)

    vsum = v + v_next
    iv = np.zeros_like(v)
    if trunc_k:
        ks = np.arange(1, trunc_k + 1)
        lam_k = c.lam(ks)
        gam_k = c.gam(ks)
        half_delta = 0.5 * model.delta
        for lam, gam in zip(lam_k, gam_k):
            n_k = sample_poisson(vsum * lam, rng)
            term = sample_std_gamma(n_k.astype(float), rng)
            term += sample_std_gamma(half_delta, rng, size=n)
            term += sample_std_gamma(2.0 * eta, rng)
            iv += term / gam

    s_lg, s_g, s_lg2, s_g2 = c.truncation_sums(trunc_k)
    # Remainder moment factors; rounding in the partial sums can leave a
    # vanishing negative residue, which is clamped away.
    rm_x = max(c.mean_x - s_lg, 0.0)
    rv_x = max(c.var_x - s_lg2, 0.0)
    rm_z = max(c.mean_z - s_g, 0.0)
    rv_z = max(c.var_z - s_g2, 0.0)
    # Endpoint-driven remainder.
    iv += _gamma_from_moments(vsum * rm_x, vsum * rv_x, rng)
    # Fixed-shape remainder.
    half_delta = 0.5 * model.delta
    iv += _gamma_from_moments(
        np.full(n, half_delta * rm_z), np.full(n, half_delta * rv_z), rng
    )
    # Count-driven remainder: eta independent copies, each gamma-matched;
    # their sum is a gamma with eta times the per-copy shape.
    m2 = 2.0 * rm_z
    v2 = 2.0 * rv_z
    if v2 > 0:
        iv += (v2 / m2) * sample_std_gamma(eta * (m2 * m2 / v2), rng)
    else:
        iv += eta * m2
    return StepResult(v_next=v_next, iv=iv)


def step_ig(v, h: float, model: ModelParams, rng: RngStream,
            coeffs: SeriesCoeffs | None = None) -> StepResult:
    """Inverse Gaussian approximation with Bessel-ratio moments."""
    c = coeffs if coeffs is not None else series_coeffs(model, h)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    phi_h = phi(model.kappa, h, model.xi)
    ekh = np.exp(-0.5 * model.kappa * h)
    v_next = (ekh / phi_h) * rng.gen.noncentral_chisquare(
        model.delta, v * phi_h * ekh, size=v.shape[0]
    )
    mom = iv_moments_bessel(v, v_next, model, h, c)
    iv = _invgauss_from_moments(mom.mean, mom.variance, rng)
    return StepResult(v_next=v_next, iv=iv)


def _qe_correction(model, h, psi, branch_a, branch_b2, branch_p, branch_beta, quad):
    """Martingale correction for the quadratic-exponential step."""
    rho, xi, kappa, theta = model.rho, model.xi, model.kappa, model.theta
    base = rho * h / 4.0 * (2.0 * kappa / xi - rho)
    a1 = base + rho / xi
    a2 = base - rho / xi
    out = np.empty_like(psi)
    if quad.any():
        arg = 1.0 - 2.0 * a1 * branch_a[quad]
        if (arg <= 0).any():
            raise DomainError("quadratic-exponential correction undefined: 2*A1*a >= 1")
        out[quad] = -a1 * branch_b2[quad] * branch_a[quad] / arg + 0.5 * np.log(arg)
    exp_branch = ~quad
    if exp_branch.any():
        beta = branch_beta[exp_branch]
        if (beta <= a1).any():
            raise DomainError("quadratic-exponential correction undefined: A1 >= beta")
        p = branch_p[exp_branch]
        out[exp_branch] = -np.log(p + beta * (1.0 - p) / (beta - a1))
    return rho * kappa * theta * h / xi + out, a2


def step_qem(v, h: float, model: ModelParams, rng: RngStream,
             martingale_mode: str = "none") -> StepResult:
    """Quadratic-exponential variance draw with the trapezoidal rule."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    n = v.shape[0]
    m, s2 = terminal_variance_moments_vec(v, h, model)
    psi = s2 / (m * m)

    z = rng.gen.standard_normal(n)
    u = rng.gen.uniform(size=n)

    quad = psi <= 1.5
    inv_psi = 2.0 / psi
    b2 = np.where(quad, inv_psi - 1.0 + np.sqrt(inv_psi * np.maximum(inv_psi - 1.0, 0.0)), 0.0)
    a = np.where(quad, m / (1.0 + b2), 0.0)
    p = np.where(quad, 0.0, (psi - 1.0) / (psi + 1.0))
    beta = np.where(quad, np.inf, (1.0 - p) / m)

    v_next = np.where(
        quad,
        a * (np.sqrt(b2) + z) ** 2,
        np.where(u > p, np.log((1.0 - p) / np.maximum(1.0 - u, 1e-300)) / beta, 0.0),
    )
    iv = 0.5 * (v + v_next) * h

    mart = 0.0
    if martingale_mode != "none":
        corr, a2 = _qe_correction(model, h, psi, a, b2, p, beta, quad)
        mart = corr - a2 * v
    return StepResult(v_next=v_next, iv=iv, mart_price=mart)


def terminal_variance_moments_vec(v, h: float, model: ModelParams):
    """Vectorized one-step conditional mean and variance of the CIR transition."""
    v = np.asarray(v, dtype=float)
    e = np.exp(-model.kappa * h)
    mean = model.theta + (v - model.theta) * e
    var = (model.xi**2 / model.kappa) * (1.0 - e) * (v * e + 0.5 * model.theta * (1.0 - e))
    return mean, var


def step_pois_td(v, h: float, model: ModelParams, rng: RngStream,
                 coeffs: SeriesCoeffs | None = None,
                 martingale_mode: str = "none") -> StepResult:
    """Poisson-conditioned time-discretization step.

    The variance transition is exact; the integrated variance is replaced by
    its conditional mean, with the neglected conditional variance feeding the
    martingale corrections.
    """
    c = coeffs if coeffs is not None else series_coeffs(model, h)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    v_next, mu = sample_terminal_variance(v, h, model, rng)
    mom = iv_moments_pois(v, v_next, mu, model, h, c)
    iv = mom.mean

    mart_price = 0.0
    mart_retvar = 0.0
    rho, xi, kappa = model.rho, model.xi, model.kappa
    if martingale_mode == "price":
        mart_price = 0.5 * rho * rho * (kappa / xi - 0.5 * rho) ** 2 * mom.variance
    elif martingale_mode == "return_variance":
        mart_retvar = (rho * kappa / xi - 0.5) ** 2 * mom.variance
    return StepResult(v_next=v_next, iv=iv, mu=mu, mart_price=mart_price, mart_retvar=mart_retvar)


def _step(cfg: SchemeConfig, v, h: float, model: ModelParams, rng: RngStream,
          coeffs: SeriesCoeffs | None) -> StepResult:
    if cfg.kind == "pois_ge":
        return step_pois_ge(v, h, cfg.trunc_k, model, rng, coeffs)
    if cfg.kind == "ge":
        return step_ge(v, h, cfg.trunc_k, model, rng, coeffs)
    if cfg.kind == "ig":
        return step_ig(v, h, model, rng, coeffs)
    if cfg.kind == "qem":
        return step_qem(v, h, model, rng, cfg.martingale_mode)
    if cfg.kind == "pois_td":
        return step_pois_td(v, h, model, rng, coeffs, cfg.martingale_mode)
    raise ConfigurationError(f"unknown scheme kind {cfg.kind!r}")


def sample_log_return(v0, v_next, iv, h: float, model: ModelParams, z,
                      mart_price=0.0):
    """Log return over one interval conditional on (v0, v_next, iv)."""
    iv = np.asarray(iv, dtype=float)
    if (iv < 0).any():
        raise ParameterError("integrated variance must be nonnegative")
    rho, xi, kappa, theta = model.rho, model.xi, model.kappa, model.theta
    drift = (model.r - model.q) * h - 0.5 * iv
    drift += (rho / xi) * (np.asarray(v_next, float) - np.asarray(v0, float) + kappa * (iv - theta * h))
    return drift + mart_price + np.sqrt((1.0 - rho * rho) * iv) * np.asarray(z, float)


def cond_forward(s, v0, v_next, iv, h: float, model: ModelParams, mart_price=0.0):
    """Forward price conditional on the variance endpoints and integrated variance."""
    iv = np.asarray(iv, dtype=float)
    if (iv < 0).any():
        raise ParameterError("integrated variance must be nonnegative")
    rho, xi, kappa, theta = model.rho, model.xi, model.kappa, model.theta
    expo = -0.5 * rho * rho * iv
    expo += (rho / xi) * (np.asarray(v_next, float) - np.asarray(v0, float) + kappa * (iv - theta * h))
    return np.asarray(s, float) * np.exp((model.r - model.q) * h) * np.exp(expo + mart_price)


def simulate_terminal(model: ModelParams, T: float, cfg: SchemeConfig, n_paths: int,
                      rng: RngStream) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate (V_T, total integrated variance, total price correction)."""
    h = T / cfg.n_steps
    coeffs = series_coeffs(model, h) if cfg.kind != "qem" else None
    v = np.full(n_paths, model.v0, dtype=float)
    iv_tot = np.zeros(n_paths)
    mart_tot = np.zeros(n_paths)
    for _ in range(cfg.n_steps):
        res = _step(cfg, v, h, model, rng, coeffs)
        iv_tot += res.iv
        mart_tot += res.mart_price
        v = res.v_next
    return v, iv_tot, mart_tot


def _batches(n_paths: int):
    start = 0
    idx = 0
    while start < n_paths:
        yield idx, min(BATCH_SIZE, n_paths - start)
        start += BATCH_SIZE
        idx += 1


def price_european_cmc(model: ModelParams, T: float, strike: float, cfg: SchemeConfig,
                       n_paths: int, rng: RngStream) -> tuple[float, float]:
    """Conditional Monte Carlo call price: average of closed-form prices.

    Each path contributes the undiscounted Black-Scholes price at its
    conditional forward and residual volatility, which suppresses the
    variance from the terminal asset draw.
    """
    if n_paths < 1:
        raise ParameterError("n_paths must be >= 1")
    acc = _MeanAccumulator()
    for b, nb in _batches(n_paths):
        sub = rng.substream(b)
        v_end, iv, mart = simulate_terminal(model, T, cfg, nb, sub)
        fwd = cond_forward(model.s0, model.v0, v_end, iv, T, model, mart)
        sigma = np.sqrt((1.0 - model.rho**2) * iv / T)
        acc.add(bs_call_undiscounted(fwd, sigma, T, strike))
    disc = np.exp(-model.r * T)
    return disc * acc.mean, disc * acc.std_error


def reconstruct_spot(model: ModelParams, T: float, cfg: SchemeConfig, n_paths: int,
                     rng: RngStream) -> tuple[float, float]:
    """Discounted average of conditional forwards; equals the spot in expectation."""
    if n_paths < 1:
        raise ParameterError("n_paths must be >= 1")
    acc = _MeanAccumulator()
    for b, nb in _batches(n_paths):
        sub = rng.substream(b)
        v_end, iv, mart = simulate_terminal(model, T, cfg, nb, sub)
        acc.add(cond_forward(model.s0, model.v0, v_end, iv, T, model, mart))
    disc = np.exp((model.q - model.r) * T)
    return disc * acc.mean, disc * acc.std_error


def varswap_fair_strike_mc(model: ModelParams, T: float, n_periods: int, cfg: SchemeConfig,
                           n_paths: int, rng: RngStream) -> tuple[float, float]:
    """Annualized realized variance of discretely monitored log returns.

    Monitoring coincides with the simulation grid.  The quadratic-exponential
    scheme applies its price correction inside the log return; the
    Poisson-conditioned scheme adds its return-variance correction to the
    squared return.
    """
    if cfg.kind not in TIME_DISCRETIZATION_KINDS:
        raise ConfigurationError("variance swaps require a time-discretization scheme")
    if cfg.n_steps != n_periods:
        raise ConfigurationError("monitoring periods must match the step count")
    if n_paths < 1:
        raise ParameterError("n_paths must be >= 1")
    h = T / n_periods
    coeffs = series_coeffs(model, h) if cfg.kind != "qem" else None
    acc = _MeanAccumulator()
    for b, nb in _batches(n_paths):
        sub = rng.substream(b)
        v = np.full(nb, model.v0, dtype=float)
        rv = np.zeros(nb)
        for _ in range(n_periods):
            res = _step(cfg, v, h, model, sub, coeffs)
            z = sub.gen.standard_normal(nb)
            lr = sample_log_return(v, res.v_next, res.iv, h, model, z, res.mart_price)
            rv += lr * lr + res.mart_retvar
            v = res.v_next
        acc.add(rv / T)
    return acc.mean, acc.std_error


def simulate_multifactor_terminal(models: list[ModelParams], T: float, trunc_k: int,
                                  n_paths: int, rng: RngStream):
    """Terminal state of the multifactor model with independent variance factors.

    All factors must share (s0, r, q).  Each factor is simulated with the
    Poisson-conditioned series kernel; draws are consumed from ``rng``
    sequentially, factor by factor, so a single factor reproduces the
    single-factor kernel bit for bit.

    Returns ``(log_return, cond_forward, total_sigma)`` arrays.
    """
    if not models:
        raise ParameterError("at least one factor is required")
    head = models[0]
    for m in models[1:]:
        if (m.s0, m.r, m.q) != (head.s0, head.r, head.q):
            raise ConfigurationError("factors must share s0, r, and q")

    if len(models) == 1:
        # Delegate to the scalar pipeline so one factor is bit-identical to it.
        m = head
        res = step_pois_ge(np.full(n_paths, m.v0), T, trunc_k, m, rng)
        fwd = cond_forward(m.s0, m.v0, res.v_next, res.iv, T, m)
        total_sigma = np.sqrt((1.0 - m.rho**2) * res.iv)
        z = rng.gen.standard_normal(n_paths)
        log_return = sample_log_return(m.v0, res.v_next, res.iv, T, m, z)
        return log_return, fwd, total_sigma

    expo = np.zeros(n_paths)
    var_tot = np.zeros(n_paths)
    for m in models:
        res = step_pois_ge(np.full(n_paths, m.v0), T, trunc_k, m, rng)
        expo += (m.rho / m.xi) * (res.v_next - m.v0 + m.kappa * (res.iv - m.theta * T))
        expo -= 0.5 * m.rho**2 * res.iv
        var_tot += (1.0 - m.rho**2) * res.iv
    total_sigma = np.sqrt(var_tot)
    fwd = head.s0 * np.exp((head.r - head.q) * T) * np.exp(expo)
    z = rng.gen.standard_normal(n_paths)
    log_return = np.log(fwd / head.s0) - 0.5 * var_tot + total_sigma * z
    return log_return, fwd, total_sigma


class _MeanAccumulator:
    """Streaming mean and standard error over path batches (fixed merge order)."""

    def __init__(self):
        self.n = 0
        self.total = 0.0
        self.total_sq = 0.0

    def add(self, values: np.ndarray):
        self.n += values.size
        self.total += float(np.sum(values))
        self.total_sq += float(np.sum(values * values))

    @property
    def mean(self) -> float:
        return self.total / self.n

    @property
    def std_error(self) -> float:
        if self.n < 2:
            return 0.0
        var = max(self.total_sq / self.n - self.mean**2, 0.0) * self.n / (self.n - 1)
        return float(np.sqrt(var / self.n))
