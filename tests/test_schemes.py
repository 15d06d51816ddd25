import re
import warnings
import zlib
from dataclasses import replace

import numpy as np
import pytest

from hestonsim.analytic import bs_call_undiscounted
from hestonsim.distributions import (
    sample_invgauss,
    sample_poisson,
    sample_std_gamma,
    sample_terminal_variance,
)
from hestonsim import schemes
from hestonsim.errors import ConfigurationError, DomainError, NumericalError, ParameterError
from hestonsim.model import (
    ModelParams,
    avg_variance_moments,
    cond_laplace_pois,
    grid_variance_mean,
    iv_moments_bessel,
    iv_moments_pois,
    iv_moments_truncated,
    series_coeffs,
    terminal_variance_moments,
)
from hestonsim.presets import CASE_PRESETS
from hestonsim.rng import RngStream
from hestonsim.schemes import (
    SchemeConfig,
    _batch_moments,
    _controlled_mean,
    _gamma_from_moments,
    check_call_config,
    check_varswap_config,
    _invgauss_from_moments,
    cond_forward,
    price_european_cmc,
    reconstruct_spot,
    sample_log_return,
    simulate_multifactor_terminal,
    simulate_terminal,
    step_ge,
    step_ig,
    step_plan,
    step_pois_ge,
    step_pois_td,
    step_qem,
    varswap_fair_strike_mc,
)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="nope"),
        dict(kind="ig", trunc_k=2),
        dict(kind="qem", trunc_k=1),
        dict(kind="pois_td", trunc_k=1),
        dict(kind="ge", n_steps=0),
        dict(kind="ge", trunc_k=-1),
        dict(kind="ge", martingale_mode="price"),
        dict(kind="ig", martingale_mode="return_variance"),
        dict(kind="qem", martingale_mode="bogus"),
        dict(kind="qem", n_steps=2.5, martingale_mode="price"),
        dict(kind="qem", n_steps="2"),
        dict(kind="pois_ge", trunc_k=1.5),
        dict(kind="qem", n_steps=4, martingale_mode="return_variance"),
    ],
)
def test_scheme_config_rejects_invalid(kwargs):
    with pytest.raises(ConfigurationError):
        SchemeConfig(**kwargs)


def test_scheme_config_accepts_valid():
    SchemeConfig("pois_ge", trunc_k=8, n_steps=1)
    SchemeConfig("qem", n_steps=4, martingale_mode="price")
    SchemeConfig("pois_td", n_steps=4, martingale_mode="return_variance")
    SchemeConfig("ge", trunc_k=np.int64(2), n_steps=np.int32(1))


# Which checks accept each (kind, martingale mode): "s" SchemeConfig, then
# "c" check_call_config and "v" check_varswap_config; "" is refused outright.
_MODE_POLICY = {
    "ge": {"none": "sc", "price": "", "return_variance": "", "bogus": ""},
    "pois_ge": {"none": "sc", "price": "", "return_variance": "", "bogus": ""},
    "ig": {"none": "sc", "price": "", "return_variance": "", "bogus": ""},
    "qem": {"none": "scv", "price": "scv", "return_variance": "", "bogus": ""},
    "pois_td": {"none": "scv", "price": "sc", "return_variance": "sv", "bogus": ""},
}


@pytest.mark.parametrize("kind,mode,accepted", [
    (kind, mode, accepted) for kind, row in _MODE_POLICY.items() for mode, accepted in row.items()
])
def test_martingale_mode_policy(kind, mode, accepted):
    if "s" not in accepted:
        with pytest.raises(ConfigurationError):
            SchemeConfig(kind, n_steps=4, martingale_mode=mode)
        return
    cfg = SchemeConfig(kind, n_steps=4, martingale_mode=mode)
    for letter, check in (("c", lambda: check_call_config(cfg)),
                          ("v", lambda: check_varswap_config(cfg, 4))):
        if letter in accepted:
            check()
        else:
            with pytest.raises(ConfigurationError):
                check()


@pytest.mark.parametrize("name", ["I", "III"])
@pytest.mark.parametrize(
    "stepper",
    [
        lambda v, h, m, rng: step_pois_ge(v, step_plan(m, h, SchemeConfig("pois_ge")), rng),
        lambda v, h, m, rng: step_pois_ge(v, step_plan(m, h, SchemeConfig("pois_ge", 4)), rng),
        lambda v, h, m, rng: step_ge(v, step_plan(m, h, SchemeConfig("ge", 4)), rng),
        lambda v, h, m, rng: step_ig(v, step_plan(m, h, SchemeConfig("ig")), rng),
    ],
)
def test_exact_scheme_iv_mean_matches_average_variance(name, stepper, request):
    preset = CASE_PRESETS[name]
    model, T = preset.model, preset.maturity
    n = 200_000
    rng = RngStream(21, (zlib.crc32(request.node.name.encode()) % 10_000,))
    res = stepper(np.full(n, model.v0), T, model, rng)
    mean_r, var_r = avg_variance_moments(model, T)
    target = T * mean_r
    se = res.iv.std() / np.sqrt(n)
    assert abs(res.iv.mean() - target) < 3 * se


@pytest.mark.parametrize("kind", ["qem", "pois_td"])
def test_td_scheme_iv_mean_small_h(kind):
    # Time-discretization integrated variance is biased O(h^2); at h = 1/64 the
    # remaining bias is buried in 3 SE + 1e-4.
    preset = CASE_PRESETS["IV"]
    model, T = preset.model, preset.maturity
    cfg = SchemeConfig(kind, n_steps=64)
    n = 100_000
    _, iv_tot, _ = simulate_terminal(model, T, cfg, n, RngStream(22, (ord(kind[0]),)))
    target = T * avg_variance_moments(model, T)[0]
    se = iv_tot.std() / np.sqrt(n)
    assert abs(iv_tot.mean() - target) < 3 * se + 1e-4


@pytest.mark.parametrize(
    "kind,stepper",
    [
        ("pois_ge", lambda v, h, m, rng: step_pois_ge(v, step_plan(m, h, SchemeConfig("pois_ge", 2)), rng)),
        ("ge", lambda v, h, m, rng: step_ge(v, step_plan(m, h, SchemeConfig("ge", 2)), rng)),
        ("ig", lambda v, h, m, rng: step_ig(v, step_plan(m, h, SchemeConfig("ig")), rng)),
        ("qem", lambda v, h, m, rng: step_qem(v, step_plan(m, h, SchemeConfig("qem")), rng)),
        ("pois_td", lambda v, h, m, rng: step_pois_td(v, step_plan(m, h, SchemeConfig("pois_td")), rng)),
    ],
)
def test_one_step_variance_transition_moments(kind, stepper):
    preset = CASE_PRESETS["III"]
    model = preset.model
    h = 0.5
    n = 300_000
    res = stepper(np.full(n, model.v0), h, model, RngStream(23, (len(kind),)))
    mean, var = terminal_variance_moments(model.v0, h, model)
    se_mean = res.v_next.std() / np.sqrt(n)
    assert abs(res.v_next.mean() - mean) < 3 * se_mean
    se_var = np.std((res.v_next - res.v_next.mean()) ** 2) / np.sqrt(n)
    assert abs(res.v_next.var() - var) < 3 * se_var


@pytest.mark.parametrize(
    "model,v,h",
    [
        # psi <= 1.5: quadratic branch
        (ModelParams(s0=1, v0=0.04, kappa=4, theta=0.04, xi=0.5, rho=-0.5), 0.04, 0.25),
        # psi > 1.5: exponential branch
        (ModelParams(s0=1, v0=1e-4, kappa=1, theta=0.01, xi=1.0, rho=-0.5), 1e-4, 1.0),
    ],
)
def test_qe_branch_moment_matching(model, v, h):
    mean, var = terminal_variance_moments(v, h, model)
    psi = var / mean**2
    n = 1_000_000
    res = step_qem(np.full(n, v), step_plan(model, h, SchemeConfig("qem")),
                   RngStream(24, (int(psi > 1.5),)))
    se_mean = res.v_next.std() / np.sqrt(n)
    assert abs(res.v_next.mean() - mean) < 3 * se_mean
    se_var = np.std((res.v_next - res.v_next.mean()) ** 2) / np.sqrt(n)
    assert abs(res.v_next.var() - var) < 3 * se_var


@pytest.mark.parametrize("kappa,theta,n_steps,reason", [
    (0.5, 0.04, 4, "A1 >= beta"),
    (10.0, 2.0, 1, "2*A1*a >= 1"),
])
def test_qe_correction_refuses_where_undefined(kappa, theta, n_steps, reason):
    # At xi = 4, rho = 0.5 and T = 5 the correction's moment generating
    # function diverges: on the exponential branch at the first model, on
    # the quadratic one at the second.
    model = ModelParams(s0=100, v0=theta, kappa=kappa, theta=theta, xi=4, rho=0.5)
    cfg = SchemeConfig("qem", n_steps=n_steps, martingale_mode="price")
    with pytest.raises(DomainError, match=re.escape(reason)):
        price_european_cmc(model, 5.0, 100.0, cfg, 2000, RngStream(1))


def _qem_where_reference(v, plan, rng):
    """The QE step with every branch quantity evaluated on every path by np.where."""
    model, h = plan.model, plan.h
    m, s2 = terminal_variance_moments(v, h, model)
    psi = s2 / (m * m)
    z = rng.gen.standard_normal(v.size)
    u = rng.gen.uniform(size=v.size)
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
    rho, xi, kappa, theta = model.rho, model.xi, model.kappa, model.theta
    base = rho * h / 4.0 * (2.0 * kappa / xi - rho)
    a1, a2 = base + rho / xi, base - rho / xi
    arg = 1.0 - 2.0 * a1 * a
    with np.errstate(invalid="ignore"):  # beta = inf on the quadratic paths
        corr = np.where(quad, -a1 * b2 * a / arg + 0.5 * np.log(arg),
                        -np.log(p + beta * (1.0 - p) / (beta - a1)))
    mart = rho * kappa * theta * h / xi + corr - a2 * v
    return v_next, 0.5 * (v + v_next) * h, mart


def test_qem_step_matches_where_reference():
    # Case I at N = 80: start variances from 0.005 to 0.3 put psi on both
    # sides of 1.5, so both branches and both corrections are exercised.
    preset = CASE_PRESETS["I"]
    plan = step_plan(preset.model, preset.maturity / 80,
                     SchemeConfig("qem", n_steps=80, martingale_mode="price"))
    v = np.linspace(0.005, 0.3, 5000)
    m, s2 = terminal_variance_moments(v, plan.h, plan.model)
    quad = s2 / (m * m) <= 1.5
    assert 1000 < quad.sum() < 4000
    res = step_qem(v, plan, RngStream(36))
    v_next, iv, mart = _qem_where_reference(v, plan, RngStream(36))
    np.testing.assert_array_equal(res.v_next, v_next)
    np.testing.assert_array_equal(res.iv, iv)
    np.testing.assert_array_equal(res.mart_price, mart)


@pytest.mark.parametrize("kind", ["qem", "pois_td"])
def test_martingale_correction_preserves_forward(kind):
    preset = CASE_PRESETS["IV"]
    model = preset.model
    h = 0.5
    n = 400_000
    v = np.full(n, model.v0)
    rng = RngStream(25, (ord(kind[-1]),))
    plan = step_plan(model, h, SchemeConfig(kind, martingale_mode="price"))
    if kind == "qem":
        res = step_qem(v, plan, rng)
    else:
        res = step_pois_td(v, plan, rng)
    fwd = cond_forward(model.s0, v, res.v_next, res.iv, h, model, res.mart_price)
    est = np.exp((model.q - model.r) * h) * fwd
    se = est.std() / np.sqrt(n)
    assert abs(est.mean() - model.s0) < 3 * se


def test_log_return_degenerate():
    m = ModelParams(s0=100, v0=0.04, kappa=1, theta=0.04, xi=1, rho=0.0, r=0.03, q=0.01)
    lr = sample_log_return(0.04, 0.05, 0.0, 2.0, m, 1.7)
    assert lr == pytest.approx((0.03 - 0.01) * 2.0)


def test_log_return_conditional_variance():
    m = CASE_PRESETS["I"].model
    iv = 0.3
    z = RngStream(26).gen.standard_normal(500_000)
    lr = sample_log_return(0.04, 0.05, iv, 10.0, m, z)
    target = (1.0 - m.rho**2) * iv
    se = np.std((lr - lr.mean()) ** 2) / np.sqrt(z.size)
    assert abs(lr.var() - target) < 3 * se


def test_log_return_rejects_negative_iv():
    m = CASE_PRESETS["I"].model
    with pytest.raises(ParameterError):
        sample_log_return(0.04, 0.05, -0.1, 1.0, m, 0.0)


def test_cond_forward_zero_correlation():
    m = ModelParams(s0=80, v0=0.04, kappa=1, theta=0.04, xi=1, rho=0.0, r=0.02, q=0.01)
    fwd = cond_forward(m.s0, 0.04, 0.09, 0.7, 3.0, m)
    assert fwd == pytest.approx(80 * np.exp((0.02 - 0.01) * 3.0), rel=1e-14)


def test_log_return_consistent_with_cond_forward():
    # exp(E[log return | endpoints]) times the lognormal convexity term equals
    # the conditional forward over the spot.
    m = CASE_PRESETS["II"].model
    v0, v1, iv, h = 0.04, 0.06, 0.5, 15.0
    lr_mean = sample_log_return(v0, v1, iv, h, m, 0.0)
    fwd = cond_forward(m.s0, v0, v1, iv, h, m)
    assert np.exp(lr_mean + 0.5 * (1 - m.rho**2) * iv) == pytest.approx(fwd / m.s0, rel=1e-12)


def test_pois_ge_k0_matches_manual_poisson_ig():
    # trunc_k = 0 is exactly the Poisson-conditioned IG special case.
    model = CASE_PRESETS["I"].model
    n = 1000
    res = step_pois_ge(np.full(n, model.v0), step_plan(model, 10.0, SchemeConfig("pois_ge")),
                       RngStream(27))
    rng = RngStream(27)
    v_next, mu = sample_terminal_variance(np.full(n, model.v0), 10.0, model, rng)
    mom = iv_moments_pois(np.full(n, model.v0), v_next, mu, model, 10.0)
    lam = mom.mean**3 / mom.variance
    iv = sample_invgauss(mom.mean, lam, rng)
    np.testing.assert_array_equal(res.v_next, v_next)
    np.testing.assert_array_equal(res.iv, iv)


def test_pois_ge_truncated_laplace_identity():
    # Conditional on (v0, v_next, mu), the truncated-series draw has the
    # count-conditional Laplace transform (the IG remainder is moment-matched,
    # so the identity is tested at loose MC precision on the exponent scale).
    model = CASE_PRESETS["III"].model
    h, v0 = 1.0, model.v0
    v1, mu = 0.021, 2
    trunc_k = 16
    c = series_coeffs(model, h)
    n = 400_000
    rng = RngStream(28)
    shape0 = 0.5 * model.delta + 2.0 * mu
    iv = np.zeros(n)
    for k in range(1, trunc_k + 1):
        n_k = sample_poisson(np.full(n, (v0 + v1) * c.lam(k)), rng)
        iv += sample_std_gamma(n_k + shape0, rng) / c.gam(k)
    rem = iv_moments_truncated(trunc_k, v0, v1, mu, model, h, c)
    iv += sample_invgauss(
        np.full(n, rem.mean), np.full(n, rem.mean**3 / rem.variance), rng
    )
    u = 1.0
    emp = np.exp(-u * iv)
    ref = cond_laplace_pois(u, v0, v1, mu, model, h)
    se = emp.std() / np.sqrt(n)
    assert abs(emp.mean() - ref) < 3 * se


def _kernel_laplace(kind, u, plan, v0, v1, count):
    """E[exp(-u IV)] of a series kernel's own law given the endpoints and the count."""
    model, rest = plan.model, plan.tail
    vsum = v0 + v1
    shape0 = 0.5 * model.delta + 2.0 * count
    out = 1.0
    for lam, gam in zip(plan.lam_k, plan.gam_k):
        ratio = gam / (gam + u)
        out *= ratio**shape0 * np.exp(vsum * lam * (ratio - 1.0))
    if kind == "ge":
        for mean, var in ((vsum * rest.mean_x, vsum * rest.var_x),
                          (shape0 * rest.mean_z, shape0 * rest.var_z)):
            out *= (1.0 + u * var / mean) ** (-mean * mean / var)
    else:
        # ig: the whole integrated variance; pois_ge: the remainder after K terms.
        rem = (iv_moments_bessel(v0, v1, model, plan.h, rest) if kind == "ig"
               else iv_moments_truncated(0, v0, v1, count, model, plan.h, rest))
        m, lam_ig = rem.mean, rem.mean**3 / rem.variance
        out *= np.exp(lam_ig / m * (1.0 - np.sqrt(1.0 + 2.0 * m * m * u / lam_ig)))
    return out


@pytest.mark.parametrize("kind,trunc_k", [("ge", 0), ("ge", 1), ("ge", 4), ("pois_ge", 0),
                                          ("pois_ge", 4), ("ig", 0)])
def test_series_kernel_conditional_laplace(monkeypatch, kind, trunc_k):
    # With the variance endpoint and the Poisson or Bessel count held fixed,
    # the kernel's integrated variance has the closed-form Laplace transform
    # of its series terms times that of its moment-matched remainder; ig has
    # no terms and matches the whole law given the endpoints alone.
    preset = CASE_PRESETS["I"]
    model, v0, v1, count = preset.model, preset.model.v0, 0.03, 1
    monkeypatch.setattr(schemes, "sample_terminal_variance",
                        lambda v, h, m, rng: (np.full_like(v, v1), np.full(v.shape, count)))
    monkeypatch.setattr(schemes, "sample_bessel_rv", lambda nu, z, rng: np.full(z.shape, count))
    plan = step_plan(model, preset.maturity, SchemeConfig(kind, trunc_k))
    n, u = 200_000, 0.855
    step = {"ge": step_ge, "pois_ge": step_pois_ge, "ig": step_ig}[kind]
    emp = np.exp(-u * step(np.full(n, v0), plan, RngStream(35)).iv)
    ref = _kernel_laplace(kind, u, plan, v0, v1, count)
    assert abs(emp.mean() - ref) < 3 * emp.std() / np.sqrt(n)


def test_ge_rejects_negative_remainder(monkeypatch):
    # With the endpoint mean factor zeroed, the removed terms exceed it by far
    # more than rounding, so the gamma-matched remainder must not be clamped away.
    model = CASE_PRESETS["III"].model
    doctored = replace(series_coeffs(model, 1.0), mean_x=0.0)
    monkeypatch.setattr(schemes, "series_coeffs", lambda m, h: doctored)
    with pytest.raises(NumericalError, match="beyond rounding tolerance at K=4"):
        step_ge(np.full(10, model.v0), step_plan(model, 1.0, SchemeConfig("ge", 4)),
                RngStream(29))


def test_pois_td_small_h_mean():
    # Deterministic integrated variance tends to v*h when the step starts at v.
    model = CASE_PRESETS["III"].model
    v = 0.019
    h = 1e-3
    n = 200_000
    res = step_pois_td(np.full(n, v), step_plan(model, h, SchemeConfig("pois_td")), RngStream(29))
    assert res.iv.mean() / (v * h) == pytest.approx(1.0, abs=0.01)


def test_invgauss_guard_returns_mean_when_degenerate():
    out = _invgauss_from_moments(np.array([0.5, 0.7]), np.array([0.0, 1e-320]),
                                 RngStream(30))
    np.testing.assert_array_equal(out, [0.5, 0.7])


@pytest.mark.parametrize("seed", range(5))
def test_gamma_guard_returns_mean_when_degenerate(seed):
    # Degenerate entries take shape 0, whose gamma is 0 and uses no draw, so
    # the valid entries draw what they would draw alone.
    gen = np.random.default_rng(seed)
    mean = gen.uniform(0.1, 2.0, 40)
    var = gen.uniform(1e-3, 1.0, 40)
    mean[gen.uniform(size=40) < 0.2] = 0.0
    var[gen.uniform(size=40) < 0.2] = 0.0
    ok = (mean > 0) & (var > 0)
    assert ok.any() and not ok.all()
    rng, ref = RngStream(32, (seed,)), RngStream(32, (seed,))
    out = _gamma_from_moments(mean, var, rng)
    np.testing.assert_array_equal(out[~ok], mean[~ok])
    alone = var[ok] / mean[ok] * sample_std_gamma(mean[ok] * mean[ok] / var[ok], ref)
    np.testing.assert_array_equal(out[ok], alone)
    assert rng.gen.uniform() == ref.gen.uniform()


def test_price_european_cmc_deterministic():
    preset = CASE_PRESETS["IV"]
    cfg = SchemeConfig("pois_ge", trunc_k=2, n_steps=1)
    a = price_european_cmc(preset.model, preset.maturity, preset.strike, cfg,
                           25_000, RngStream(31))
    b = price_european_cmc(preset.model, preset.maturity, preset.strike, cfg,
                           25_000, RngStream(31))
    assert a == b


def test_price_european_cmc_multistep_unbiased():
    preset = CASE_PRESETS["IV"]
    cfg = SchemeConfig("pois_ge", trunc_k=0, n_steps=2)
    price, se = price_european_cmc(preset.model, preset.maturity, preset.strike, cfg,
                                   100_000, RngStream(32))
    assert abs(price - preset.reference_price) < 4 * se


def test_price_zero_volatility_degenerate():
    m = ModelParams(s0=100, v0=1e-12, kappa=1, theta=1e-12, xi=1e-6, rho=0.0,
                    r=0.02, q=0.0)
    cfg = SchemeConfig("pois_ge", n_steps=1)
    price, _ = price_european_cmc(m, 1.0, 90.0, cfg, 1000, RngStream(33))
    intrinsic = np.exp(-0.02) * (100 * np.exp(0.02) - 90.0)
    assert price == pytest.approx(intrinsic, abs=1e-6)


def test_price_deterministic_variance_limit():
    # xi -> 0 freezes the variance path; the price collapses to Black-Scholes
    # at the deterministic accumulated variance.
    base = CASE_PRESETS["IV"].model
    m = ModelParams(s0=base.s0, v0=base.v0, kappa=base.kappa, theta=base.theta,
                    xi=1e-4, rho=base.rho, r=base.r, q=base.q)
    T, X = 1.0, 120.0
    cfg = SchemeConfig("pois_ge", n_steps=1)
    price, se = price_european_cmc(m, T, X, cfg, 50_000, RngStream(34))
    total_var = T * avg_variance_moments(m, T)[0]
    ref = np.exp(-m.r * T) * bs_call_undiscounted(
        m.s0 * np.exp((m.r - m.q) * T), np.sqrt(total_var / T), T, X
    )
    assert abs(price - ref) < 3 * se + 1e-6


def test_reconstruct_spot_zero_correlation_exact():
    m = ModelParams(s0=100, v0=0.04, kappa=1, theta=0.04, xi=1, rho=0.0)
    cfg = SchemeConfig("pois_ge", n_steps=1)
    est, se = reconstruct_spot(m, 2.0, cfg, 5000, RngStream(35))
    assert est == pytest.approx(100.0, rel=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "driver, n_paths",
    [
        ("price", 100.5),
        ("price", "100"),
        ("terminal", 100.5),
        ("terminal", -1),
        ("multifactor", 100.5),
        ("multifactor", -1),
    ],
)
def test_drivers_reject_invalid_path_counts(driver, n_paths):
    preset = CASE_PRESETS["III"]
    m, T, cfg = preset.model, preset.maturity, SchemeConfig("pois_ge")
    run = {
        "price": lambda n: price_european_cmc(m, T, preset.strike, cfg, n, RngStream(1)),
        "terminal": lambda n: simulate_terminal(m, T, cfg, n, RngStream(1)),
        "multifactor": lambda n: simulate_multifactor_terminal([m, m], T, 0, n, RngStream(1)),
    }[driver]
    with pytest.raises(ParameterError):
        run(n_paths)
    if driver != "price":
        assert all(a.shape == (0,) for a in run(0))


def test_varswap_requires_td_scheme():
    preset = CASE_PRESETS["III"]
    with pytest.raises(ConfigurationError):
        varswap_fair_strike_mc(preset.model, 1.0, 4,
                               SchemeConfig("pois_ge", n_steps=4), 100, RngStream(1))


def test_varswap_step_count_must_match_periods():
    preset = CASE_PRESETS["III"]
    with pytest.raises(ConfigurationError):
        varswap_fair_strike_mc(preset.model, 1.0, 4,
                               SchemeConfig("qem", n_steps=2), 100, RngStream(1))


@pytest.mark.parametrize("n_periods", [4.0, "4", 0])
def test_varswap_periods_must_be_a_positive_integer(n_periods):
    preset = CASE_PRESETS["III"]
    with pytest.raises(ConfigurationError, match="n_periods"):
        varswap_fair_strike_mc(preset.model, 1.0, n_periods,
                               SchemeConfig("qem", n_steps=4), 100, RngStream(1))


@pytest.mark.parametrize("entry", ["price", "spot", "terminal"])
def test_return_variance_correction_is_varswap_only(entry):
    # Call pricing and spot reconstruction have no squared return to correct.
    preset = CASE_PRESETS["IV"]
    m, T = preset.model, preset.maturity
    cfg = SchemeConfig("pois_td", n_steps=4, martingale_mode="return_variance")
    run = {
        "price": lambda: price_european_cmc(m, T, preset.strike, cfg, 100, RngStream(1)),
        "spot": lambda: reconstruct_spot(m, T, cfg, 100, RngStream(1)),
        "terminal": lambda: simulate_terminal(m, T, cfg, 100, RngStream(1)),
    }[entry]
    with pytest.raises(ConfigurationError, match="variance swaps"):
        run()


def test_price_correction_of_pois_td_is_call_only():
    # pois_td corrects a variance swap's return variance, not its price; with
    # the price correction Case IV at N = 12 and 40k paths read -3.0 SE off the
    # closed form.
    preset = CASE_PRESETS["IV"]
    cfg = SchemeConfig("pois_td", n_steps=4, martingale_mode="price")
    with pytest.raises(ConfigurationError,
                       match="^a variance swap under pois_td takes no correction 'price'$"):
        varswap_fair_strike_mc(preset.model, preset.maturity, 4, cfg, 100, RngStream(1))


def test_varswap_deterministic():
    preset = CASE_PRESETS["IV"]
    cfg = SchemeConfig("pois_td", n_steps=4, martingale_mode="return_variance")
    a = varswap_fair_strike_mc(preset.model, 1.0, 4, cfg, 20_000, RngStream(36))
    b = varswap_fair_strike_mc(preset.model, 1.0, 4, cfg, 20_000, RngStream(36))
    assert a == b


def _varswap_sampled_returns(model, T, n_periods, cfg, n_paths, rng):
    """Variance-swap strike from sampled returns: one normal per period, squared."""
    plan = step_plan(model, T / n_periods, cfg)

    def batch(nb, sub):
        rv = np.zeros(nb)
        for v, res in schemes._steps(plan, nb, sub):
            z = sub.gen.standard_normal(nb)
            lr = sample_log_return(v, res.v_next, res.iv, plan.h, model, z, res.mart_price)
            rv += lr * lr + res.mart_retvar
        return (rv / T,)

    return _controlled_mean(*_batch_moments(n_paths, rng, batch), ())


@pytest.mark.parametrize("cfg", [
    SchemeConfig("pois_td", n_steps=12, martingale_mode="return_variance"),
    SchemeConfig("qem", n_steps=12, martingale_mode="price"),
], ids=lambda c: c.kind)
def test_varswap_takes_squared_return_in_expectation(cfg):
    # The driver adds E[r^2 | variance path] per period: the same mean as
    # squaring a sampled return, with a smaller SE (about 0.7 of it here).
    p = CASE_PRESETS["IV"]
    est, se = varswap_fair_strike_mc(p.model, p.maturity, 12, cfg, 20_000, RngStream(79))
    ref, ref_se = _varswap_sampled_returns(p.model, p.maturity, 12, cfg, 20_000, RngStream(79))
    assert se <= 0.85 * ref_se
    assert abs(est - ref) <= 3.0 * np.hypot(se, ref_se)


@pytest.mark.parametrize("n", [2, 12])
@pytest.mark.parametrize("case", ["III", "IV"])
@pytest.mark.parametrize("kind", sorted(schemes.CORRECTIONS))
def test_grid_variance_average_has_the_closed_form_mean(kind, case, n):
    # The variance-swap control is unbiased because each kind reproduces the
    # CIR mean at every grid date.
    p = CASE_PRESETS[case]
    cfg = SchemeConfig(kind, n_steps=n, martingale_mode=schemes.CORRECTIONS[kind]["varswap"])
    plan = step_plan(p.model, p.maturity / n, cfg)
    x = np.zeros(40_000)
    for _, res in schemes._steps(plan, x.size, RngStream(83, (n,))):
        x += res.v_next
    x /= n
    se = x.std(ddof=1) / np.sqrt(x.size)
    assert abs(x.mean() - grid_variance_mean(p.model, p.maturity, n)) <= 3.0 * se


def _varswap_uncontrolled(model, T, n_periods, cfg, n_paths, rng):
    """The driver's estimate without the grid-variance control."""
    plan = step_plan(model, T / n_periods, cfg)

    def batch(nb, sub):
        rv = np.zeros(nb)
        for v, res in schemes._steps(plan, nb, sub):
            m = schemes._log_return_mean(v, res.v_next, res.iv, plan.h, model, res.mart_price)
            rv += m * m + (1.0 - model.rho**2) * res.iv + res.mart_retvar
        return (rv / T,)

    return _controlled_mean(*_batch_moments(n_paths, rng, batch), ())


@pytest.mark.parametrize("n,ratio", [(12, 0.4), (52, 0.2)])
@pytest.mark.parametrize("kind", sorted(schemes.CORRECTIONS))
def test_varswap_control_shrinks_the_standard_error(kind, n, ratio):
    # On the same draws the control leaves the mean within reach of the plain
    # estimate and cuts the SE to about 0.29 (N = 12) and 0.145 (N = 52) of it.
    p = CASE_PRESETS["IV"]
    cfg = SchemeConfig(kind, n_steps=n, martingale_mode=schemes.CORRECTIONS[kind]["varswap"])
    est, se = varswap_fair_strike_mc(p.model, p.maturity, n, cfg, 20_000, RngStream(84))
    ref, ref_se = _varswap_uncontrolled(p.model, p.maturity, n, cfg, 20_000, RngStream(84))
    assert se <= ratio * ref_se
    assert abs(est - ref) <= 3.0 * ref_se


_CONTROL_CONFIGS = [
    SchemeConfig("pois_ge", trunc_k=1),
    SchemeConfig("ge", trunc_k=1),
    SchemeConfig("ig", n_steps=2),
    SchemeConfig("qem", n_steps=4, martingale_mode="price"),
    SchemeConfig("pois_td", n_steps=4, martingale_mode="price"),
]


@pytest.mark.parametrize("case", ["I", "III"])
@pytest.mark.parametrize("cfg", [
    *_CONTROL_CONFIGS,
    pytest.param(SchemeConfig("qem", n_steps=8, martingale_mode="price"), id="qem-8"),
    pytest.param(SchemeConfig("pois_td", n_steps=8, martingale_mode="price"), id="pois_td-8"),
], ids=lambda c: c.kind)
def test_call_controls_have_the_closed_form_means(cfg, case):
    # The call controls add no bias only if each kind reproduces these means:
    # V_T, the integrated variance and their three products, as the driver's
    # rows hold them.  At eight steps the qem quadratic forms and pois_td's
    # dropped conditional variance run over many steps.
    p = CASE_PRESETS[case]
    v_end, iv, _ = simulate_terminal(p.model, p.maturity, cfg, 100_000, RngStream(85))
    rows = (v_end, iv, v_end * v_end, v_end * iv, iv * iv)
    means = schemes._control_means(p.model, p.maturity, cfg)
    assert len(means) == len(rows)
    for x, mean in zip(rows, means):
        se = x.std(ddof=1) / np.sqrt(x.size)
        assert abs(x.mean() - mean) <= 4.0 * se


def _call_uncontrolled(model, T, strike, cfg, n_paths, rng):
    """The call driver's estimate without its controls."""
    def batch(nb, sub):
        fwd, sigma, _, _ = schemes._forward_and_sigma(model, T, cfg, nb, sub)
        return (bs_call_undiscounted(fwd, sigma, T, strike),)

    mean, se = _controlled_mean(*_batch_moments(n_paths, rng, batch), ())
    disc = np.exp(-model.r * T)
    return disc * mean, disc * se


@pytest.mark.parametrize("case", ["I", "III", "IV"])
@pytest.mark.parametrize("cfg", [*_CONTROL_CONFIGS, SchemeConfig("qem", n_steps=1)],
                         ids=lambda c: f"{c.kind}-{c.n_steps}")
def test_call_control_shrinks_the_standard_error(cfg, case):
    # On the same draws the controlled SE is below the plain one (qem at one
    # step keeps V_T and V_T^2: its integrated variance is affine in V_T).
    p = CASE_PRESETS[case]
    est, se = price_european_cmc(p.model, p.maturity, p.strike, cfg, 12_000, RngStream(86))
    ref, ref_se = _call_uncontrolled(p.model, p.maturity, p.strike, cfg, 12_000, RngStream(86))
    assert se < ref_se
    assert abs(est - ref) <= 3.0 * ref_se


@pytest.mark.parametrize("case", ["I", "II", "III", "IV"])
def test_controlled_call_matches_the_fourier_price(case):
    p = CASE_PRESETS[case]
    cfg = SchemeConfig("pois_ge", trunc_k=8)
    est, se = price_european_cmc(p.model, p.maturity, p.strike, cfg, 40_000, RngStream(87))
    assert abs(est - p.reference_price) <= 3.0 * se


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_controlled_mean_matches_least_squares(seed):
    # On a synthetic regression the sweep's estimate and residual are those
    # of the least-squares fit of y on the centred controls.
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((200, 3)) @ np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.3],
                                                 [0.0, 0.0, 1.0]]) + 2.0
    y = 1.0 + x @ np.array([0.7, -1.2, 0.4]) + 0.3 * gen.standard_normal(200)
    rows = np.vstack([y, x.T])
    dev = rows - rows.mean(axis=1, keepdims=True)
    x_mean = np.array([2.1, 1.9, 2.05])
    beta, (rss,), _, _ = np.linalg.lstsq(dev[1:].T, dev[0], rcond=None)
    est, se = _controlled_mean(200, rows.mean(axis=1), dev @ dev.T, tuple(x_mean))
    assert est == pytest.approx(y.mean() - beta @ (x.mean(axis=0) - x_mean), rel=1e-13)
    assert se == pytest.approx(np.sqrt(rss / (200 - 1 - 3) / 200), rel=1e-10)


def test_qem_at_one_step_keeps_v_t_and_its_square(monkeypatch):
    # One QE step has IV = h (v0 + V_T) / 2, so of the five controls only V_T
    # and V_T^2 are not combinations of those before them.
    seen = []
    real = schemes._controlled_mean

    def spy(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(schemes, "_controlled_mean", spy)
    p = CASE_PRESETS["III"]
    out = price_european_cmc(p.model, p.maturity, p.strike, SchemeConfig("qem"), 12_000,
                             RngStream(86))
    ((n, mean, co, x_mean),) = seen
    keep = [0, 1, 3]
    kept = real(n, mean[keep], co[np.ix_(keep, keep)], (x_mean[0], x_mean[2]))
    assert kept == real(n, mean, co, x_mean)
    assert kept != real(n, mean[:2], co[:2, :2], x_mean[:1])
    disc = np.exp(-p.model.r * p.maturity)
    assert out == (disc * kept[0], disc * kept[1])


_FEW_PATH_DRIVERS = {
    "call": lambda p, cfg, n, rng: price_european_cmc(p.model, p.maturity, p.strike, cfg, n, rng),
    "spot": lambda p, cfg, n, rng: reconstruct_spot(p.model, p.maturity, cfg, n, rng),
    "varswap": lambda p, cfg, n, rng: varswap_fair_strike_mc(p.model, p.maturity, cfg.n_steps,
                                                             cfg, n, rng),
}


@pytest.mark.parametrize("n_paths", [1, 2, 3])
@pytest.mark.parametrize("driver,cfg", [
    pytest.param("call", SchemeConfig("qem", n_steps=1), id="qem"),
    pytest.param("call", SchemeConfig("pois_ge"), id="pois_ge"),
    pytest.param("spot", SchemeConfig("pois_td", n_steps=4, martingale_mode="price"),
                 id="spot-pois_td"),
    pytest.param("varswap", SchemeConfig("pois_td", n_steps=4, martingale_mode="return_variance"),
                 id="varswap-pois_td"),
])
def test_controlled_call_with_few_paths_is_finite(driver, cfg, n_paths):
    # Too few paths for the call controls fall back to fewer (n - 2 at most),
    # never to an exact fit that would report an SE of 0.  The spot and the
    # variance swap take the same finish with no control.
    p = CASE_PRESETS["III"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est, se = _FEW_PATH_DRIVERS[driver](p, cfg, n_paths, RngStream(88))
    assert np.isfinite(est) and np.isfinite(se)
    assert (se > 0) == (n_paths > 1)


# Case I with xi in {1.5, 2, 3} and Case IV with xi = 2, kappa = 0.1: gamma
# draws of tiny shape underflow, so variance endpoints of exactly 0 occur.
_ZERO_VARIANCE_CASES = {
    "I-xi1.5": ("I", dict(xi=1.5)),
    "I-xi2": ("I", dict(xi=2.0)),
    "I-xi3": ("I", dict(xi=3.0)),
    "IV-xi2-kappa0.1": ("IV", dict(xi=2.0, kappa=0.1)),
}


@pytest.mark.parametrize("case", sorted(_ZERO_VARIANCE_CASES))
@pytest.mark.parametrize(
    "cfg",
    [
        SchemeConfig("pois_ge", trunc_k=2, n_steps=4),
        SchemeConfig("ge", trunc_k=1, n_steps=4),
        SchemeConfig("ig", n_steps=4),
        SchemeConfig("qem", n_steps=40, martingale_mode="price"),
        SchemeConfig("pois_td", n_steps=40, martingale_mode="price"),
    ],
    ids=lambda c: c.kind,
)
def test_zero_variance_endpoints(case, cfg):
    name, changes = _ZERO_VARIANCE_CASES[case]
    preset = CASE_PRESETS[name]
    m, T, X = replace(preset.model, **changes), preset.maturity, preset.strike
    price, _ = price_european_cmc(m, T, X, cfg, 40_000, RngStream(505))
    upper = m.s0 * np.exp(-m.q * T)
    lower = max(upper - X * np.exp(-m.r * T), 0.0)
    assert np.isfinite(price) and lower <= price <= upper
    spot, se = reconstruct_spot(m, T, cfg, 40_000, RngStream(506))
    assert np.isfinite(spot)
    # ge carries a known bias in the spot reconstruction.
    if cfg.kind in ("pois_ge", "ig", "pois_td"):
        assert abs(spot - m.s0) < 3 * se


def test_qem_plan_skips_series_constants_at_large_kappa_h():
    # kappa*h/2 = 1000 overflows the series coefficients and phi; qem needs neither.
    m = ModelParams(s0=100, v0=0.04, kappa=2000.0, theta=0.04, xi=1.0, rho=-0.5)
    cfg = SchemeConfig("qem", martingale_mode="price")
    assert step_plan(m, 1.0, cfg).tail is None
    price, se = price_european_cmc(m, 1.0, 100.0, cfg, 1000, RngStream(40))
    assert np.isfinite(price) and np.isfinite(se)


def test_standard_error_does_not_cancel():
    # Four full batches of 1e8 + N(0, 1): a raw sum of squares loses every
    # digit of the spread to cancellation against n * mean^2.
    draws = []

    def batch(nb, sub):
        draws.append(1e8 + sub.gen.standard_normal(nb))
        return draws[-1:]

    mean, se = _controlled_mean(*_batch_moments(40_000, RngStream(41), batch), ())
    x = np.concatenate(draws)
    assert mean == pytest.approx(x.mean(), rel=1e-15)
    assert se == pytest.approx(x.std(ddof=1) / np.sqrt(x.size), rel=1e-6)


@pytest.mark.parametrize("pack", [np.stack, tuple], ids=["array", "tuple"])
@pytest.mark.parametrize("n_paths", [40_000, 12_000])
def test_batch_moments_merges_each_row_of_a_block_alone(n_paths, pack):
    # Row 0 is test_standard_error_does_not_cancel's 1e8 + N(0, 1).
    def block(nb, sub):
        return pack([1e8 + sub.gen.standard_normal(nb), sub.gen.exponential(size=nb)])

    n, means, co = _batch_moments(n_paths, RngStream(41), block)
    for i in range(2):
        alone = _batch_moments(n_paths, RngStream(41), lambda nb, sub: block(nb, sub)[i:i + 1])
        assert (n, means[i], co[i, i]) == (alone[0], alone[1][0], alone[2][0, 0])


# Recorded estimates and SEs; any change to the draw sequence shows here.
@pytest.mark.parametrize(
    "driver,cfg,expected",
    [
        ("call", SchemeConfig("pois_ge", trunc_k=2), (6.802541614497275, 0.007450619637203064)),
        ("call", SchemeConfig("ge", trunc_k=2), (6.8160855662630855, 0.0092099233842348)),
        ("call", SchemeConfig("ig", n_steps=2), (6.801757655302501, 0.007620431591805045)),
        ("call", SchemeConfig("qem", n_steps=4, martingale_mode="price"),
         (6.830121811534441, 0.007580556272861399)),
        ("call", SchemeConfig("pois_td", n_steps=4, martingale_mode="price"),
         (6.644874697455226, 0.006554879619256452)),
        ("varswap", SchemeConfig("qem", n_steps=4, martingale_mode="price"),
         (0.20839581846525201, 0.0005113286858477484)),
        ("varswap", SchemeConfig("pois_td", n_steps=4, martingale_mode="return_variance"),
         (0.21095297004582184, 0.0005232934023043918)),
        ("spot", SchemeConfig("pois_ge", trunc_k=2), (100.03502380559523, 0.08049872301586924)),
        ("spot", SchemeConfig("qem", n_steps=4, martingale_mode="price"),
         (100.01051761580354, 0.07999465152638736)),
    ],
    ids=["call-pois_ge", "call-ge", "call-ig", "call-qem", "call-pois_td",
         "varswap-qem", "varswap-pois_td", "spot-pois_ge", "spot-qem"],
)
def test_draw_sequence_is_pinned(driver, cfg, expected):
    # 12 000 paths cross the batch boundary at BATCH_SIZE = 10 000.
    p = CASE_PRESETS["III"]
    if driver == "call":
        out = price_european_cmc(p.model, p.maturity, p.strike, cfg, 12_000, RngStream(77))
    elif driver == "spot":
        out = reconstruct_spot(p.model, p.maturity, cfg, 12_000, RngStream(77))
    else:
        p = CASE_PRESETS["IV"]
        out = varswap_fair_strike_mc(p.model, p.maturity, 4, cfg, 12_000, RngStream(78))
    assert tuple(map(float, out)) == expected
