"""Single-period simulation kernels and Monte Carlo pricing drivers.

Five schemes share one step contract, ``step_<kind>(v, plan, rng) ->
StepResult``: each consumes the current variance of every path and produces
the next variance, the integrated variance over the step, and any
martingale-correction terms.  ``plan`` is the :class:`StepPlan` of the
(model, step size, config), built once per simulation.

* ``ge``       -- gamma-series expansion with a Bessel count and a two-part
                  moment-matched gamma remainder (exact, one step).
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

import math
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
from .errors import (ConfigurationError, DomainError, ParameterError, check_array, check_count,
                     check_scalar)
from .model import (
    ModelParams,
    SeriesCoeffs,
    avg_variance_moments,
    check_factors,
    grid_variance_mean,
    grid_variance_means,
    iv_moments_bessel,
    iv_moments_pois,
    iv_moments_truncated,
    phi,
    series_coeffs,
    terminal_variance_moments,
)
from .rng import RngStream

SCHEME_KINDS = ("ge", "pois_ge", "ig", "qem", "pois_td")
#: Kinds whose truncation level ``trunc_k`` is meaningful.
SERIES_KINDS = ("ge", "pois_ge")
#: Martingale correction of each time-discretization kind, per product: the
#: only ``martingale_mode`` values besides ``"none"`` that a kind accepts.
CORRECTIONS = {"qem": {"call": "price", "varswap": "price"},
               "pois_td": {"call": "price", "varswap": "return_variance"}}
#: Command-line spelling of each kind: ``pois-ge`` selects ``pois_ge``.
SCHEME_FLAGS = {kind.replace("_", "-"): kind for kind in SCHEME_KINDS}

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
        check_count(ConfigurationError, "trunc_k", self.trunc_k, 0)
        if self.trunc_k and self.kind not in SERIES_KINDS:
            raise ConfigurationError(f"trunc_k applies only to series schemes, not {self.kind!r}")
        check_count(ConfigurationError, "n_steps", self.n_steps, 1)
        if self.martingale_mode not in ("none", *CORRECTIONS.get(self.kind, {}).values()):
            raise ConfigurationError(
                f"{self.kind} has no martingale correction {self.martingale_mode!r}")

    @property
    def label(self) -> str:
        """Table and CSV label of the kind: ``pois_ge`` is ``POIS-GE``."""
        return self.kind.upper().replace("_", "-")


def check_call_config(cfg: SchemeConfig) -> None:
    """A call takes only its kind's call correction: it has no squared log return to correct."""
    if cfg.martingale_mode not in ("none", CORRECTIONS.get(cfg.kind, {}).get("call")):
        raise ConfigurationError("the return-variance correction applies only to variance swaps")


def check_varswap_config(cfg: SchemeConfig, n_periods: int) -> None:
    """A variance swap runs on a time-discretization kind's grid, with its own correction or none."""
    check_count(ConfigurationError, "n_periods", n_periods, 1)
    if cfg.kind not in CORRECTIONS:
        raise ConfigurationError(
            f"variance swaps require a time-discretization scheme, got {cfg.kind!r}"
        )
    if cfg.martingale_mode not in ("none", CORRECTIONS[cfg.kind]["varswap"]):
        raise ConfigurationError(
            f"a variance swap under {cfg.kind} takes no correction {cfg.martingale_mode!r}")
    if cfg.n_steps != n_periods:
        raise ConfigurationError("monitoring periods must match the step count")


@dataclass(frozen=True)
class StepPlan:
    """Constants of one step of one scheme config, shared by all its steps.

    ``qem`` needs none of the series constants, which overflow for
    kappa*h/2 > 700, so its plan leaves them unset.
    """

    model: ModelParams
    h: float
    cfg: SchemeConfig
    phi_h: Optional[float] = None
    #: Poisson rates and gamma scales of the first ``trunc_k`` series terms.
    lam_k: tuple[float, ...] = ()
    gam_k: tuple[float, ...] = ()
    #: ``series_coeffs(model, h).tail(trunc_k)``: the moment factors of the
    #: series remainder, the full bundle at ``trunc_k = 0``.
    tail: Optional[SeriesCoeffs] = None


def step_plan(model: ModelParams, h: float, cfg: SchemeConfig) -> StepPlan:
    """Build the :class:`StepPlan` of ``cfg`` for steps of size ``h``."""
    if cfg.kind == "qem":
        return StepPlan(model, h, cfg)
    c = series_coeffs(model, h)
    ks = np.arange(1, cfg.trunc_k + 1)
    return StepPlan(model, h, cfg, phi(model.kappa, h, model.xi), tuple(c.lam(ks)),
                    tuple(c.gam(ks)), c.tail(cfg.trunc_k))


@dataclass
class StepResult:
    """Outcome of one simulation step over all paths."""

    v_next: np.ndarray
    iv: np.ndarray
    mart_price: np.ndarray | float = 0.0
    mart_retvar: np.ndarray | float = 0.0


def _invgauss_from_moments(mean, var, rng: RngStream):
    """Inverse Gaussian draw matching (mean, var); degenerate moments return the mean."""
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float)
    with np.errstate(over="ignore"):
        lam = np.where(var > 0, mean**3 / np.where(var > 0, var, 1.0), np.inf)
    ok = (mean > 0) & (var > 0) & (lam < _IG_LAMBDA_MAX)
    if ok.all():
        return sample_invgauss(mean, lam, rng)
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
    # A zero shape yields 0 and uses no random draw, so the valid paths draw
    # what they would draw alone.
    out = scale * sample_std_gamma(shape, rng)
    np.copyto(out, mean, where=~ok)
    return out


def _series_iv(vsum, shape0, plan: StepPlan, rng: RngStream):
    """Sum of the first ``trunc_k`` series terms, Gamma(Poisson(vsum lam_k) + shape0) / gam_k."""
    iv = np.zeros_like(vsum)
    for lam, gam in zip(plan.lam_k, plan.gam_k):
        n_k = sample_poisson(vsum * lam, rng)
        iv += sample_std_gamma(n_k + shape0, rng) / gam
    return iv


def step_pois_ge(v, plan: StepPlan, rng: RngStream) -> StepResult:
    """Poisson-conditioned series step with an inverse Gaussian remainder."""
    model, h = plan.model, plan.h
    v_next, mu = sample_terminal_variance(v, h, model, rng)
    iv = _series_iv(v + v_next, 0.5 * model.delta + 2.0 * mu, plan, rng)
    rem = iv_moments_truncated(0, v, v_next, mu, model, h, plan.tail)
    iv += _invgauss_from_moments(rem.mean, rem.variance, rng)
    return StepResult(v_next=v_next, iv=iv)


def step_ge(v, plan: StepPlan, rng: RngStream) -> StepResult:
    """Gamma-series step with a Bessel count and a two-part gamma remainder.

    :func:`step_pois_ge`'s series with the Bessel count eta in place of the
    Poisson count (shape delta/2 + 2 eta); the remainder is gamma-matched in
    two parts, one driven by the endpoints and one by that shape.

    At K = 0 the gamma-matched remainders stand in for the whole series, so
    long steps are biased: in acceptance criterion 4's layout (one step to
    maturity, 20 reps x 40k paths) Case I prices +2.47 and Case II -1.95 off
    the Fourier price.  The approximated law is the cause, not a coding
    error: at Case I its Laplace transform exceeds the exact conditional one
    by 1.8-3.9% at K = 0 and by 0.3-0.8% at K = 1.
    """
    model, rest = plan.model, plan.tail
    v_next, _ = sample_terminal_variance(v, plan.h, model, rng)
    eta = sample_bessel_rv(model.nu, np.sqrt(v * v_next) * plan.phi_h, rng)
    vsum = v + v_next
    shape0 = 0.5 * model.delta + 2.0 * eta
    iv = _series_iv(vsum, shape0, plan, rng)
    iv += _gamma_from_moments(vsum * rest.mean_x, vsum * rest.var_x, rng)
    # Every shape unit adds an independent gamma at the common scale var_z / mean_z.
    iv += _gamma_from_moments(shape0 * rest.mean_z, shape0 * rest.var_z, rng)
    return StepResult(v_next=v_next, iv=iv)


def step_ig(v, plan: StepPlan, rng: RngStream) -> StepResult:
    """Inverse Gaussian approximation with Bessel-ratio moments."""
    v_next, _ = sample_terminal_variance(v, plan.h, plan.model, rng)
    mom = iv_moments_bessel(v, v_next, plan.model, plan.h, plan.tail)
    return StepResult(v_next=v_next, iv=_invgauss_from_moments(mom.mean, mom.variance, rng))


def step_qem(v, plan: StepPlan, rng: RngStream) -> StepResult:
    """Quadratic-exponential variance draw with the trapezoidal rule.

    Each branch's quantities are computed on its own paths only.
    """
    model, h = plan.model, plan.h
    n = v.shape[0]
    m, s2 = terminal_variance_moments(v, h, model)
    psi = s2 / (m * m)

    z = rng.gen.standard_normal(n)
    u = rng.gen.uniform(size=n)

    quad = psi <= 1.5
    qi = np.flatnonzero(quad)
    ei = np.flatnonzero(~quad)
    v_next = np.empty(n)

    # psi <= 1.5 makes 2/psi - 1 >= 1/3, so the square root is real.
    inv_psi = 2.0 / psi[qi]
    b2 = inv_psi - 1.0 + np.sqrt(inv_psi * (inv_psi - 1.0))
    a = m[qi] / (1.0 + b2)
    v_next[qi] = a * (np.sqrt(b2) + z[qi]) ** 2

    psi_e, u_e = psi[ei], u[ei]
    p = (psi_e - 1.0) / (psi_e + 1.0)
    beta = (1.0 - p) / m[ei]
    # Uniform draws lie in [0, 1), so 1 - u_e >= 2**-53.
    v_next[ei] = np.where(u_e > p, np.log((1.0 - p) / (1.0 - u_e)) / beta, 0.0)
    iv = 0.5 * (v + v_next) * h

    mart = 0.0
    if plan.cfg.martingale_mode != "none":
        rho, xi, kappa, theta = model.rho, model.xi, model.kappa, model.theta
        base = rho * h / 4.0 * (2.0 * kappa / xi - rho)
        a1 = base + rho / xi
        a2 = base - rho / xi
        arg = 1.0 - 2.0 * a1 * a
        if (arg <= 0).any():
            raise DomainError("quadratic-exponential correction undefined: 2*A1*a >= 1")
        if (beta <= a1).any():
            raise DomainError("quadratic-exponential correction undefined: A1 >= beta")
        corr = np.empty(n)
        corr[qi] = -a1 * b2 * a / arg + 0.5 * np.log(arg)
        corr[ei] = -np.log(p + beta * (1.0 - p) / (beta - a1))
        mart = rho * kappa * theta * h / xi + corr - a2 * v
    return StepResult(v_next=v_next, iv=iv, mart_price=mart)


def step_pois_td(v, plan: StepPlan, rng: RngStream) -> StepResult:
    """Poisson-conditioned time-discretization step.

    The variance transition is exact; the integrated variance is replaced by
    its conditional mean, with the neglected conditional variance feeding the
    martingale corrections.
    """
    model, h = plan.model, plan.h
    v_next, mu = sample_terminal_variance(v, h, model, rng)
    mom = iv_moments_pois(v, v_next, mu, model, h, plan.tail)

    mart_price = 0.0
    mart_retvar = 0.0
    rho, xi, kappa = model.rho, model.xi, model.kappa
    if plan.cfg.martingale_mode == "price":
        mart_price = 0.5 * rho * rho * (kappa / xi - 0.5 * rho) ** 2 * mom.variance
    elif plan.cfg.martingale_mode == "return_variance":
        mart_retvar = (rho * kappa / xi - 0.5) ** 2 * mom.variance
    return StepResult(v_next=v_next, iv=mom.mean, mart_price=mart_price, mart_retvar=mart_retvar)


def _steps(plan: StepPlan, n_paths: int, rng: RngStream):
    """Yield ``(v, StepResult)`` per step, ``v`` being the variance at the step's start."""
    # Looked up by name on each call, so a replaced module attribute is used.
    step = globals()[f"step_{plan.cfg.kind}"]
    v = np.full(n_paths, plan.model.v0, dtype=float)
    for _ in range(plan.cfg.n_steps):
        res = step(v, plan, rng)
        yield v, res
        v = res.v_next


def _variance_drift(v0, v_next, iv: np.ndarray, h: float, model: ModelParams):
    """(rho/xi)(V_h - V_0 + kappa(IV - theta h)): the log-spot move the variance path drives."""
    v0 = check_array(ParameterError, "v0", v0)
    v_next = check_array(ParameterError, "v_next", v_next)
    iv = check_array(ParameterError, "integrated variance", iv)
    return (model.rho / model.xi) * (v_next - v0 + model.kappa * (iv - model.theta * h))


def _log_return_mean(v0, v_next, iv, h: float, model: ModelParams, mart_price=0.0):
    """Mean of the log return over one interval conditional on (v0, v_next, iv)."""
    iv = np.asarray(iv, dtype=float)
    drift = (model.r - model.q) * h - 0.5 * iv
    drift += _variance_drift(v0, v_next, iv, h, model)
    return drift + mart_price


def sample_log_return(v0, v_next, iv, h: float, model: ModelParams, z,
                      mart_price=0.0):
    """Log return over one interval conditional on (v0, v_next, iv)."""
    mean = _log_return_mean(v0, v_next, iv, h, model, mart_price)
    iv = np.asarray(iv, dtype=float)
    return mean + np.sqrt((1.0 - model.rho * model.rho) * iv) * np.asarray(z, float)


def cond_forward(s, v0, v_next, iv, h: float, model: ModelParams, mart_price=0.0):
    """Forward price conditional on the variance endpoints and integrated variance."""
    iv = np.asarray(iv, dtype=float)
    expo = -0.5 * model.rho * model.rho * iv
    expo += _variance_drift(v0, v_next, iv, h, model)
    return np.asarray(s, float) * np.exp((model.r - model.q) * h) * np.exp(expo + mart_price)


def simulate_terminal(model: ModelParams, T: float, cfg: SchemeConfig, n_paths: int,
                      rng: RngStream) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate (V_T, total integrated variance, total price correction)."""
    check_scalar(ParameterError, "T", T)
    check_count(ParameterError, "n_paths", n_paths, 0)
    check_call_config(cfg)
    iv_tot = np.zeros(n_paths)
    mart_tot = np.zeros(n_paths)
    for _, res in _steps(step_plan(model, T / cfg.n_steps, cfg), n_paths, rng):
        iv_tot += res.iv
        mart_tot += res.mart_price
    return res.v_next, iv_tot, mart_tot


def _batch_moments(n_paths: int, rng: RngStream, batch):
    """Path count, row means and co-moment matrix of ``batch(nb, substream)`` over all paths.

    ``batch`` returns a sequence of ``m`` 1-D rows of ``nb`` values each, one
    per estimated quantity.  Batch ``b`` holds up to ``BATCH_SIZE`` paths and
    draws from ``rng.substream(b)``.  Entry (i, j) of the (m, m) matrix sums
    the products of rows i and j's deviations from their means.  Batches
    merge in index order by the pairwise update of Chan, Golub & LeVeque,
    which does not cancel when a mean dwarfs the spread.  Each row is summed
    as a contiguous 1-D array, so a row's mean and squared deviations merge as
    they would alone; each pair of rows takes one dot product of deviations.
    """
    check_count(ParameterError, "n_paths", n_paths, 1)
    n, total, co = 0, 0.0, 0.0
    for b, start in enumerate(range(0, n_paths, BATCH_SIZE)):
        rows = batch(min(BATCH_SIZE, n_paths - start), rng.substream(b))
        nb, s = len(rows[0]), np.array([np.add.reduce(x) for x in rows])
        d = s / nb - (total / n if n else 0.0)
        dev = [x - sx / nb for x, sx in zip(rows, s)]
        c = np.empty((len(dev), len(dev)))
        for i, di in enumerate(dev):
            c[i, i] = np.add.reduce(di ** 2)
            for j in range(i):
                c[i, j] = c[j, i] = np.dot(di, dev[j])
        co = co + (c + d[:, None] * d * n * nb / (n + nb))
        n, total = n + nb, total + s
    return n, total / n, co


#: Below this share of its own co-moment S_jj, a control's residual after the
#: controls already taken is rounding: it is collinear with them, as V_T and
#: the integrated variance are under ``qem`` at one step.
_COLLINEAR = 1e-10


def _controlled_mean(n: int, mean, co, x_mean) -> tuple[float, float]:
    """Mean of row 0 regressed on the rows after it, whose true means are ``x_mean``, and its SE.

    ``(n, mean, co)`` is a :func:`_batch_moments` result with one row per
    entry of ``x_mean`` after row 0.  The estimate is ``mean[0] - beta .
    (mean[P] - x_mean[P])`` with beta = S_PP^-1 S_PY over the controls P
    taken, and its SE that of the regression residual, whose variance
    divides by n - 1 - p for p controls; with none, the plain mean and
    sqrt(S_YY / (n - 1) / n).

    One Gauss-Jordan sweep, in Python floats, takes the controls in order.
    Each control taken is eliminated from row 0, from the rows after it and
    from their mean offsets, which leaves their Schur complements: S_YY
    becomes the residual sum of squares and row 0's offset the estimate.  A
    control whose residual S_jj is at most ``_COLLINEAR`` of its own S_jj is
    skipped, and no control is added once n < p + 3, so a residual always
    has a degree of freedom and an exact fit never reports an SE of 0.
    """
    a, diag = co.tolist(), co.diagonal().tolist()
    off = mean.tolist()
    for j, x_true in enumerate(x_mean, 1):
        off[j] -= x_true
    p = 0
    for k in range(1, len(a)):
        if n < p + 3:
            break
        pivot = a[k][k]
        if not pivot > _COLLINEAR * diag[k]:
            continue
        rest = [0, *range(k + 1, len(a))]
        for i in rest:
            f = a[i][k] / pivot
            for j in rest:
                a[i][j] -= f * a[k][j]
            off[i] -= f * off[k]
        p += 1
    return off[0], (math.sqrt(max(a[0][0], 0.0) / (n - 1 - p) / n) if n > 1 else 0.0)


def _control_means(model: ModelParams, T: float, cfg: SchemeConfig) -> tuple[float, ...]:
    """Means of V_T, the simulated integrated variance I over [0, T], V_T^2, V_T I
    and I^2 under ``cfg``'s own law.

    Every kind reproduces the CIR mean and variance of V at each grid date:
    all but ``qem`` draw the exact transition, and both QE branches match the
    first two conditional moments, which are affine in the start.  So under
    ``qem`` the grid values have the CIR second moments, M_jk = m_j m_k +
    e^(-kappa |t_j - t_k|) Var V_min(j, k), and all three second moments are
    quadratic forms of M in e_N and the trapezoid weights w, summed in O(n)
    time and memory.  ``ge``, ``pois_ge`` and ``ig`` match the conditional
    mean and variance of each step's integrated variance, so theirs are the
    exact process's: T^2 times the average variance's second moment, and
    E V_T E I plus the covariance of V_T with each V_s, e^(-kappa (T - s))
    Var V_s, integrated over [0, T].
    ``pois_td`` takes each step's conditional mean given the Poisson count,
    so its I^2 lacks the expected conditional variance of every step.
    """
    kappa, v0, n = model.kappa, model.v0, cfg.n_steps
    h = T / n
    if cfg.kind == "qem":
        m, var = terminal_variance_moments(v0, h * np.arange(1, n + 1), model)
        m, var = [v0, *m.tolist()], [0.0, *var.tolist()]
        w = [0.5 * h, *[h] * (n - 1), 0.5 * h]
        iv = sum(wj * mj for wj, mj in zip(w, m))
        # One backward pass: lag = e^(-kappa (T - t_j)) and tail = sum over k > j
        # of w_k e^(-kappa (t_k - t_j)), so M is never formed; V_0 = v0 has no
        # variance, so the pass stops at j = 1.
        q, lag, tail, cov_end, cov_iv = math.exp(-kappa * h), 1.0, 0.0, 0.0, 0.0
        for j in range(n, 0, -1):
            cov_end += w[j] * lag * var[j]
            cov_iv += w[j] * var[j] * (w[j] + 2.0 * tail)
            lag, tail = lag * q, q * (w[j] + tail)
        return m[n], iv, m[n] * m[n] + var[n], m[n] * iv + cov_end, iv * iv + cov_iv
    v_t, var_t = terminal_variance_moments(v0, T, model)
    a_mean, a_var = avg_variance_moments(model, T)
    v_t, iv = float(v_t), T * float(a_mean)
    e = math.exp(-kappa * T)
    cross = model.xi ** 2 / kappa * (v0 * e * (T - (1.0 - e) / kappa)
                                      + 0.5 * model.theta * ((1.0 - e * e) / kappa - 2.0 * T * e))
    iv2 = T * T * float(a_var + a_mean * a_mean)
    if cfg.kind == "pois_td":
        # Step k from t_k drops E[Var(I_k | V_k, V_k+1, mu_k)] = (m_k + m_k+1) var_x
        # + (delta/2 + 2 E mu_k) var_z, with E mu_k = phi_h e^(-kappa h/2) m_k / 2;
        # s sums the CIR means m_k over k = 0..n.
        c = series_coeffs(model, h)
        means = grid_variance_means(model, T, n)
        m_n, s = float(means[-1]), v0 + float(means.sum())
        mu_rate = phi(kappa, h, model.xi) * math.exp(-0.5 * kappa * h)
        iv2 -= (c.var_x * (2.0 * s - v0 - m_n)
                + c.var_z * (0.5 * n * model.delta + mu_rate * (s - m_n)))
    return v_t, iv, float(var_t) + v_t * v_t, v_t * iv + cross, iv2


def _forward_and_sigma(model: ModelParams, T: float, cfg: SchemeConfig, nb: int, rng: RngStream):
    """Each path's conditional forward and residual volatility at ``T`` (the call's
    recipe), and the V_T and integrated variance they come from (its controls)."""
    v_end, iv, mart = simulate_terminal(model, T, cfg, nb, rng)
    fwd = cond_forward(model.s0, model.v0, v_end, iv, T, model, mart)
    # In the correction's buffer, dead once the forward is formed, so that a
    # batch takes fewer fresh heap pages.
    sigma = np.multiply(iv, 1.0 - model.rho * model.rho, out=mart)
    sigma /= T
    return fwd, np.sqrt(sigma, out=sigma), v_end, iv


def price_european_cmc(model: ModelParams, T: float, strike: float, cfg: SchemeConfig,
                       n_paths: int, rng: RngStream) -> tuple[float, float]:
    """Conditional Monte Carlo call price with five control variates.

    Each path contributes the undiscounted Black-Scholes price at its
    conditional forward and residual volatility, which suppresses the
    variance from the terminal asset draw.  What remains comes from the
    variance path, and the full quadratic in V_T and the integrated variance
    I explains most of it: the price is regressed on V_T, I, V_T^2, V_T I and
    I^2, whose means under the scheme's own law are closed forms
    (:func:`_control_means`), so the estimate keeps each scheme's expectation
    and bias (Glasserman 2004, *Monte Carlo Methods in Financial
    Engineering*, 4.1).  The coefficients are pooled over all paths from the
    batches' co-moments (:func:`_controlled_mean`).  Estimated from the same
    paths, they add a bias of order 1/n, against an SE of order 1/sqrt(n),
    and the heavier the tails of V, the larger it is.  At Case IV it is small
    (``pois_ge`` K=8, +0.006 at 2k paths, 0.3 of the per-repetition spread),
    but at Case I it reads +0.43 at 500 paths, +0.09 at 2k and +0.03 at 10k
    (0.9, 0.6 and 0.4 of that spread), where the returned SE is 0.46, 0.80
    and 0.92 of the spread.  The returned SE is the regression residual's.
    """
    check_scalar(ParameterError, "T", T)
    check_scalar(ParameterError, "strike", strike)

    def batch(nb, sub):
        fwd, sigma, v_end, iv = _forward_and_sigma(model, T, cfg, nb, sub)
        return (bs_call_undiscounted(fwd, sigma, T, strike), v_end, iv, v_end * v_end,
                v_end * iv, iv * iv)

    est, se = _controlled_mean(*_batch_moments(n_paths, rng, batch), _control_means(model, T, cfg))
    disc = np.exp(-model.r * T)
    return disc * est, disc * se


def reconstruct_spot(model: ModelParams, T: float, cfg: SchemeConfig, n_paths: int,
                     rng: RngStream) -> tuple[float, float]:
    """Discounted average of conditional forwards; equals the spot in expectation."""
    check_scalar(ParameterError, "T", T)
    est, se = _controlled_mean(*_batch_moments(
        n_paths, rng, lambda nb, sub: _forward_and_sigma(model, T, cfg, nb, sub)[:1]), ())
    disc = np.exp((model.q - model.r) * T)
    return disc * est, disc * se


def varswap_fair_strike_mc(model: ModelParams, T: float, n_periods: int, cfg: SchemeConfig,
                           n_paths: int, rng: RngStream) -> tuple[float, float]:
    """Annualized realized variance of discretely monitored log returns.

    Monitoring coincides with the simulation grid.  Each period adds the
    expectation of its squared log return over the return's normal draw,
    which is independent of the variance path (conditional Monte Carlo):
    ``m**2 + (1 - rho**2) * iv + mart_retvar``, where ``m`` is the return's
    conditional mean, ``iv`` the step's integrated variance and
    ``mart_retvar`` the step's return-variance correction.  The
    quadratic-exponential scheme applies its price correction inside ``m``;
    the Poisson-conditioned scheme supplies ``mart_retvar``, the integrated
    variance's conditional variance times the squared slope of ``m`` in it,
    so its period adds exactly E[r**2 | V_t, V_t+h, Poisson count].

    The grid average of the variance, ``X = (1/n) sum_i V_{t_i}`` over the
    monitoring dates ``t_i = i T/n``, is a control variate with coefficient 1:
    each path returns its realized variance minus ``X`` plus
    :func:`grid_variance_mean`.  Both kinds reproduce the CIR mean at every
    grid date (``pois_td`` draws the exact transition, and both QE branches
    match the conditional mean), so the estimate stays unbiased for each
    scheme's own expectation, and the returned standard error is that of the
    controlled values.
    """
    check_scalar(ParameterError, "T", T)
    check_varswap_config(cfg, n_periods)
    plan = step_plan(model, T / n_periods, cfg)
    resid = 1.0 - model.rho * model.rho
    grid_mean = grid_variance_mean(model, T, n_periods)

    def batch(nb, sub):
        rv = np.zeros(nb)
        vsum = np.zeros(nb)
        for v, res in _steps(plan, nb, sub):
            m = _log_return_mean(v, res.v_next, res.iv, plan.h, model, res.mart_price)
            rv += m * m + resid * res.iv + res.mart_retvar
            vsum += res.v_next
        return (rv / T - vsum / n_periods + grid_mean,)

    return _controlled_mean(*_batch_moments(n_paths, rng, batch), ())


def simulate_multifactor_terminal(models: list[ModelParams], T: float, trunc_k: int,
                                  n_paths: int, rng: RngStream):
    """Terminal state of the multifactor model with independent variance factors.

    All factors must share (s0, r, q).  Each factor is simulated with the
    Poisson-conditioned series kernel; draws are consumed from ``rng``
    sequentially, factor by factor.  The log return adds its terms in the
    order :func:`sample_log_return` does, so a single factor reproduces the
    single-factor kernel bit for bit.

    Returns ``(log_return, cond_forward, total_sigma)`` arrays.
    """
    head = check_factors(models)
    check_scalar(ParameterError, "T", T)
    cfg = SchemeConfig("pois_ge", trunc_k=trunc_k)
    # Running sums over the factors: IV, variance drift, residual variance and
    # forward exponent; each starts at 0.0 and becomes an array on the first add.
    iv_tot = drift_tot = var_tot = expo = 0.0
    for m in models:
        v_end, iv, _ = simulate_terminal(m, T, cfg, n_paths, rng)
        drift = _variance_drift(m.v0, v_end, iv, T, m)
        iv_tot += iv
        drift_tot += drift
        var_tot += (1.0 - m.rho * m.rho) * iv
        expo += -0.5 * m.rho * m.rho * iv + drift
    total_sigma = np.sqrt(var_tot)
    fwd = head.s0 * np.exp((head.r - head.q) * T) * np.exp(expo)
    z = rng.gen.standard_normal(n_paths)
    log_return = (head.r - head.q) * T - 0.5 * iv_tot + drift_tot + total_sigma * z
    return log_return, fwd, total_sigma
