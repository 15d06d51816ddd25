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
from hestonsim.errors import ConfigurationError, ParameterError
from hestonsim.model import (
    ModelParams,
    avg_variance_moments,
    cond_laplace_pois,
    iv_moments_pois,
    iv_moments_truncated,
    series_coeffs,
    terminal_variance_moments,
)
from hestonsim.presets import CASE_PRESETS
from hestonsim.rng import RngStream
from hestonsim.schemes import (
    SchemeConfig,
    _batch_mean,
    _invgauss_from_moments,
    cond_forward,
    price_european_cmc,
    reconstruct_spot,
    sample_log_return,
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
    ],
)
def test_scheme_config_rejects_invalid(kwargs):
    with pytest.raises(ConfigurationError):
        SchemeConfig(**kwargs)


def test_scheme_config_accepts_valid():
    SchemeConfig("pois_ge", trunc_k=8, n_steps=1)
    SchemeConfig("qem", n_steps=4, martingale_mode="price")
    SchemeConfig("pois_td", n_steps=4, martingale_mode="return_variance")


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
    np.testing.assert_array_equal(res.mu, mu)
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


def test_varswap_deterministic():
    preset = CASE_PRESETS["IV"]
    cfg = SchemeConfig("pois_td", n_steps=4, martingale_mode="return_variance")
    a = varswap_fair_strike_mc(preset.model, 1.0, 4, cfg, 20_000, RngStream(36))
    b = varswap_fair_strike_mc(preset.model, 1.0, 4, cfg, 20_000, RngStream(36))
    assert a == b


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
    assert step_plan(m, 1.0, cfg).coeffs is None
    price, se = price_european_cmc(m, 1.0, 100.0, cfg, 1000, RngStream(40))
    assert np.isfinite(price) and np.isfinite(se)


def test_standard_error_does_not_cancel():
    # Four full batches of 1e8 + N(0, 1): a raw sum of squares loses every
    # digit of the spread to cancellation against n * mean^2.
    draws = []

    def batch(nb, sub):
        draws.append(1e8 + sub.gen.standard_normal(nb))
        return draws[-1]

    mean, se = _batch_mean(40_000, RngStream(41), batch)
    x = np.concatenate(draws)
    assert mean == pytest.approx(x.mean(), rel=1e-15)
    assert se == pytest.approx(x.std(ddof=1) / np.sqrt(x.size), rel=1e-6)


# Recorded estimates and SEs; any change to the draw sequence shows here.
@pytest.mark.parametrize(
    "driver,cfg,expected",
    [
        ("call", SchemeConfig("pois_ge", trunc_k=2), (6.759773912647261, 0.03618273814659747)),
        ("call", SchemeConfig("ge", trunc_k=2), (6.785236268864784, 0.036071229140363356)),
        ("call", SchemeConfig("ig", n_steps=2), (6.764422502014079, 0.03615946325252426)),
        ("call", SchemeConfig("qem", n_steps=4, martingale_mode="price"),
         (6.800240468912559, 0.03758645367255599)),
        ("call", SchemeConfig("pois_td", n_steps=4, martingale_mode="price"),
         (6.604767353181767, 0.032900731669059234)),
        ("varswap", SchemeConfig("qem", n_steps=4, martingale_mode="price"),
         (0.20771462383992806, 0.002050937651018761)),
        ("varswap", SchemeConfig("pois_td", n_steps=4, martingale_mode="return_variance"),
         (0.21291826732098323, 0.001956537867337996)),
    ],
    ids=["call-pois_ge", "call-ge", "call-ig", "call-qem", "call-pois_td",
         "varswap-qem", "varswap-pois_td"],
)
def test_draw_sequence_is_pinned(driver, cfg, expected):
    # 12 000 paths cross the batch boundary at BATCH_SIZE = 10 000.
    if driver == "call":
        p = CASE_PRESETS["III"]
        out = price_european_cmc(p.model, p.maturity, p.strike, cfg, 12_000, RngStream(77))
    else:
        p = CASE_PRESETS["IV"]
        out = varswap_fair_strike_mc(p.model, p.maturity, 4, cfg, 12_000, RngStream(78))
    assert tuple(map(float, out)) == expected
