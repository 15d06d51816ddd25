"""Single-period simulation kernels and Monte Carlo pricing drivers.

Five schemes share one step contract, ``step_<kind>(v, plan, rng) ->
StepResult``: each consumes the current variance of every path and produces
the next variance, the integrated variance over the step, and any
martingale-correction terms.  ``plan`` is the :class:`StepPlan` of the
(model, step size, config), built once per simulation.

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

All schemes but ``qem`` draw the exact variance transition through the
Poisson-gamma mixture of :func:`sample_terminal_variance`.  All kernels are
vectorized over paths and are pure functions of their random stream; pricing
drivers batch paths over indexed substreams so results do not depend on
scheduling.
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
    terminal_variance_moments,
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


@dataclass(frozen=True)
class StepPlan:
    """Constants of one step of one scheme config, shared by all its steps.

    ``qem`` needs none of the series constants, which overflow for
    kappa*h/2 > 700, so its plan leaves them unset.
    """

    model: ModelParams
    h: float
    cfg: SchemeConfig
    coeffs: Optional[SeriesCoeffs] = None
    phi_h: Optional[float] = None
    #: Poisson rates and gamma scales of the first ``trunc_k`` series terms.
    lam_k: tuple[float, ...] = ()
    gam_k: tuple[float, ...] = ()
    #: ``coeffs.truncation_sums(trunc_k)``.
    sums: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)


def step_plan(model: ModelParams, h: float, cfg: SchemeConfig) -> StepPlan:
    """Build the :class:`StepPlan` of ``cfg`` for steps of size ``h``."""
    if cfg.kind == "qem":
        return StepPlan(model, h, cfg)
    c = series_coeffs(model, h)
    ks = np.arange(1, cfg.trunc_k + 1)
    return StepPlan(model, h, cfg, c, phi(model.kappa, h, model.xi), tuple(c.lam(ks)),
                    tuple(c.gam(ks)), c.truncation_sums(cfg.trunc_k))


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


def step_pois_ge(v, plan: StepPlan, rng: RngStream) -> StepResult:
    """Poisson-conditioned series step with an inverse Gaussian remainder."""
    model, h = plan.model, plan.h
    v_next, mu = sample_terminal_variance(v, h, model, rng)

    shape0 = 0.5 * model.delta + 2.0 * mu
    vsum = v + v_next
    iv = np.zeros_like(v)
    for lam, gam in zip(plan.lam_k, plan.gam_k):
        n_k = sample_poisson(vsum * lam, rng)
        iv += sample_std_gamma(n_k + shape0, rng) / gam
    rem = iv_moments_truncated(plan.cfg.trunc_k, v, v_next, mu, model, h, plan.coeffs)
    iv += _invgauss_from_moments(rem.mean, rem.variance, rng)
    return StepResult(v_next=v_next, iv=iv, mu=mu)


def step_ge(v, plan: StepPlan, rng: RngStream) -> StepResult:
    """Gamma-series step with a Bessel count and gamma-matched remainders."""
    model, c = plan.model, plan.coeffs
    n = v.shape[0]
    v_next, _ = sample_terminal_variance(v, plan.h, model, rng)
    eta = sample_bessel_rv(model.nu, np.sqrt(v * v_next) * plan.phi_h, rng)

    vsum = v + v_next
    half_delta = 0.5 * model.delta
    iv = np.zeros_like(v)
    for lam, gam in zip(plan.lam_k, plan.gam_k):
        n_k = sample_poisson(vsum * lam, rng)
        term = sample_std_gamma(n_k.astype(float), rng)
        term += sample_std_gamma(half_delta, rng, size=n)
        term += sample_std_gamma(2.0 * eta, rng)
        iv += term / gam

    s_lg, s_g, s_lg2, s_g2 = plan.sums
    # Remainder moment factors; rounding in the partial sums can leave a
    # vanishing negative residue, which is clamped away.
    rm_x = max(c.mean_x - s_lg, 0.0)
    rv_x = max(c.var_x - s_lg2, 0.0)
    rm_z = max(c.mean_z - s_g, 0.0)
    rv_z = max(c.var_z - s_g2, 0.0)
    # Endpoint-driven remainder.
    iv += _gamma_from_moments(vsum * rm_x, vsum * rv_x, rng)
    # Fixed-shape remainder.
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


def step_ig(v, plan: StepPlan, rng: RngStream) -> StepResult:
    """Inverse Gaussian approximation with Bessel-ratio moments."""
    v_next, _ = sample_terminal_variance(v, plan.h, plan.model, rng)
    mom = iv_moments_bessel(v, v_next, plan.model, plan.h, plan.coeffs)
    return StepResult(v_next=v_next, iv=_invgauss_from_moments(mom.mean, mom.variance, rng))


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


def step_qem(v, plan: StepPlan, rng: RngStream) -> StepResult:
    """Quadratic-exponential variance draw with the trapezoidal rule."""
    model, h = plan.model, plan.h
    n = v.shape[0]
    m, s2 = terminal_variance_moments(v, h, model)
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
    if plan.cfg.martingale_mode != "none":
        corr, a2 = _qe_correction(model, h, psi, a, b2, p, beta, quad)
        mart = corr - a2 * v
    return StepResult(v_next=v_next, iv=iv, mart_price=mart)


def step_pois_td(v, plan: StepPlan, rng: RngStream) -> StepResult:
    """Poisson-conditioned time-discretization step.

    The variance transition is exact; the integrated variance is replaced by
    its conditional mean, with the neglected conditional variance feeding the
    martingale corrections.
    """
    model, h = plan.model, plan.h
    v_next, mu = sample_terminal_variance(v, h, model, rng)
    mom = iv_moments_pois(v, v_next, mu, model, h, plan.coeffs)

    mart_price = 0.0
    mart_retvar = 0.0
    rho, xi, kappa = model.rho, model.xi, model.kappa
    if plan.cfg.martingale_mode == "price":
        mart_price = 0.5 * rho * rho * (kappa / xi - 0.5 * rho) ** 2 * mom.variance
    elif plan.cfg.martingale_mode == "return_variance":
        mart_retvar = (rho * kappa / xi - 0.5) ** 2 * mom.variance
    return StepResult(v_next=v_next, iv=mom.mean, mu=mu, mart_price=mart_price,
                      mart_retvar=mart_retvar)


def _steps(plan: StepPlan, n_paths: int, rng: RngStream):
    """Yield ``(v, StepResult)`` per step, ``v`` being the variance at the step's start."""
    # Looked up by name on each call, so a replaced module attribute is used.
    step = globals()[f"step_{plan.cfg.kind}"]
    v = np.full(n_paths, plan.model.v0, dtype=float)
    for _ in range(plan.cfg.n_steps):
        res = step(v, plan, rng)
        yield v, res
        v = res.v_next


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
    iv_tot = np.zeros(n_paths)
    mart_tot = np.zeros(n_paths)
    for _, res in _steps(step_plan(model, T / cfg.n_steps, cfg), n_paths, rng):
        iv_tot += res.iv
        mart_tot += res.mart_price
    return res.v_next, iv_tot, mart_tot


def _batch_mean(n_paths: int, rng: RngStream, batch) -> tuple[float, float]:
    """Mean and standard error of ``batch(nb, substream)`` values over all paths.

    Batch ``b`` holds up to ``BATCH_SIZE`` paths and draws from
    ``rng.substream(b)``.  Batches merge in index order: the mean from the
    running total, the squared deviations by the pairwise update of Chan,
    Golub & LeVeque, which does not cancel when the mean dwarfs the spread.
    """
    if n_paths < 1:
        raise ParameterError("n_paths must be >= 1")
    n, total, m2 = 0, 0.0, 0.0
    for b, start in enumerate(range(0, n_paths, BATCH_SIZE)):
        x = batch(min(BATCH_SIZE, n_paths - start), rng.substream(b))
        nb, s = x.size, float(np.sum(x))
        d = s / nb - (total / n if n else 0.0)
        m2 += float(np.sum((x - s / nb) ** 2)) + d * d * n * nb / (n + nb)
        n += nb
        total += s
    se = float(np.sqrt(m2 / (n - 1) / n)) if n > 1 else 0.0
    return total / n, se


def price_european_cmc(model: ModelParams, T: float, strike: float, cfg: SchemeConfig,
                       n_paths: int, rng: RngStream) -> tuple[float, float]:
    """Conditional Monte Carlo call price: average of closed-form prices.

    Each path contributes the undiscounted Black-Scholes price at its
    conditional forward and residual volatility, which suppresses the
    variance from the terminal asset draw.
    """
    def batch(nb, sub):
        v_end, iv, mart = simulate_terminal(model, T, cfg, nb, sub)
        fwd = cond_forward(model.s0, model.v0, v_end, iv, T, model, mart)
        sigma = np.sqrt((1.0 - model.rho**2) * iv / T)
        return bs_call_undiscounted(fwd, sigma, T, strike)

    mean, se = _batch_mean(n_paths, rng, batch)
    disc = np.exp(-model.r * T)
    return disc * mean, disc * se


def reconstruct_spot(model: ModelParams, T: float, cfg: SchemeConfig, n_paths: int,
                     rng: RngStream) -> tuple[float, float]:
    """Discounted average of conditional forwards; equals the spot in expectation."""
    def batch(nb, sub):
        v_end, iv, mart = simulate_terminal(model, T, cfg, nb, sub)
        return cond_forward(model.s0, model.v0, v_end, iv, T, model, mart)

    mean, se = _batch_mean(n_paths, rng, batch)
    disc = np.exp((model.q - model.r) * T)
    return disc * mean, disc * se


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
    plan = step_plan(model, T / n_periods, cfg)

    def batch(nb, sub):
        rv = np.zeros(nb)
        for v, res in _steps(plan, nb, sub):
            z = sub.gen.standard_normal(nb)
            lr = sample_log_return(v, res.v_next, res.iv, plan.h, model, z, res.mart_price)
            rv += lr * lr + res.mart_retvar
        return rv / T

    return _batch_mean(n_paths, rng, batch)


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
    cfg = SchemeConfig("pois_ge", trunc_k=trunc_k)

    if len(models) == 1:
        # Delegate to the scalar pipeline so one factor is bit-identical to it.
        m = head
        res = step_pois_ge(np.full(n_paths, m.v0), step_plan(m, T, cfg), rng)
        fwd = cond_forward(m.s0, m.v0, res.v_next, res.iv, T, m)
        total_sigma = np.sqrt((1.0 - m.rho**2) * res.iv)
        z = rng.gen.standard_normal(n_paths)
        log_return = sample_log_return(m.v0, res.v_next, res.iv, T, m, z)
        return log_return, fwd, total_sigma

    expo = np.zeros(n_paths)
    var_tot = np.zeros(n_paths)
    for m in models:
        res = step_pois_ge(np.full(n_paths, m.v0), step_plan(m, T, cfg), rng)
        expo += (m.rho / m.xi) * (res.v_next - m.v0 + m.kappa * (res.iv - m.theta * T))
        expo -= 0.5 * m.rho**2 * res.iv
        var_tot += (1.0 - m.rho**2) * res.iv
    total_sigma = np.sqrt(var_tot)
    fwd = head.s0 * np.exp((head.r - head.q) * T) * np.exp(expo)
    z = rng.gen.standard_normal(n_paths)
    log_return = np.log(fwd / head.s0) - 0.5 * var_tot + total_sigma * z
    return log_return, fwd, total_sigma
