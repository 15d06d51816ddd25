from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from hestonsim import analytic
from hestonsim.analytic import (
    _ndtr,
    bs_call_undiscounted,
    heston_charfn,
    heston_charfn_multifactor,
    price_european_exact,
    price_european_exact_multifactor,
    varswap_strike_continuous,
    varswap_strike_discrete,
)
from hestonsim.errors import NumericalError, ParameterError
from hestonsim.model import (
    ModelParams,
    avg_variance_moments,
    cond_laplace_bk,
    cond_laplace_pois,
    iv_moments_pois,
    phi,
    series_coeffs,
    terminal_variance_moments,
)
from hestonsim.presets import CASE_PRESETS
from hestonsim.rng import RngStream
from hestonsim.distributions import sample_terminal_variance
from hestonsim.schemes import (
    SchemeConfig,
    cond_forward,
    price_european_cmc,
    reconstruct_spot,
    sample_log_return,
    varswap_fair_strike_mc,
)


def test_charfn_normalization():
    m = CASE_PRESETS["I"].model
    assert heston_charfn(0.0, m, 10.0) == pytest.approx(1.0)


def test_charfn_forward_identity():
    m = CASE_PRESETS["IV"].model
    val = heston_charfn(-1j, m, 1.0)
    assert val.real == pytest.approx(np.exp((m.r - m.q) * 1.0), rel=1e-12)
    assert abs(val.imag) < 1e-12


def test_charfn_bounded_for_real_u():
    m = CASE_PRESETS["I"].model
    us = np.linspace(0.1, 200.0, 50)
    assert np.all(np.abs(heston_charfn(us, m, 10.0)) <= 1.0 + 1e-12)


def _mp_charfn(u, m, T):
    """Little-trap Heston phi at 40 digits, beta - d formed by subtraction."""
    with mpmath.workdps(40):
        u = mpmath.mpf(u)
        kappa, theta, xi, rho, v0 = map(mpmath.mpf, (m.kappa, m.theta, m.xi, m.rho, m.v0))
        beta = kappa - 1j * rho * xi * u
        d = mpmath.sqrt(beta**2 + xi**2 * (1j * u + u**2))
        g = (beta - d) / (beta + d)
        edt = mpmath.exp(-d * T)
        log_ratio = mpmath.log((1 - g * edt) / (1 - g))
        log_cf = (1j * u * (mpmath.mpf(m.r) - m.q) * T
                  + kappa * theta / xi**2 * ((beta - d) * T - 2 * log_ratio)
                  + v0 / xi**2 * (beta - d) * (1 - edt) / (1 - g * edt))
        return complex(mpmath.exp(log_cf))


def test_charfn_small_xi_matches_mpmath():
    # kappa theta / xi^2 = 517 multiplies beta - d; formed by subtraction, it
    # puts phi 6.7e-12 off here.
    m = ModelParams(s0=100.0, v0=0.3, kappa=6.7, theta=0.4, xi=0.072, rho=-0.5, r=0.02)
    us = np.linspace(0.01, 2.0, 40)
    ref = np.array([_mp_charfn(u, m, 15.0) for u in us])
    assert np.max(np.abs(heston_charfn(us, m, 15.0) / ref - 1.0)) <= 1e-12


@pytest.mark.parametrize("name", sorted(CASE_PRESETS))
def test_exact_prices_reference(name):
    preset = CASE_PRESETS[name]
    price = price_european_exact(preset.model, preset.maturity, preset.strike)
    assert price == pytest.approx(preset.reference_price, abs=1e-6)


def _quad_reference_price(models, T, strike, eps=1e-10):
    """Gil-Pelaez inversion with two scalar adaptive quad integrals."""

    def charfn(u):
        return heston_charfn_multifactor(u, models, T)

    model = models[0]
    k = np.log(strike / model.s0)
    fwd_cf = charfn(-1j)

    def integrand_p1(u):
        val = charfn(u - 1j) / fwd_cf.real
        return (np.exp(-1j * u * k) * val / (1j * u)).real

    def integrand_p2(u):
        return (np.exp(-1j * u * k) * charfn(u) / (1j * u)).real

    kw = dict(epsabs=eps, epsrel=eps, limit=200)
    p1 = 0.5 + quad(integrand_p1, 0.0, np.inf, **kw)[0] / np.pi
    p2 = 0.5 + quad(integrand_p2, 0.0, np.inf, **kw)[0] / np.pi
    return model.s0 * np.exp(-model.q * T) * p1 - strike * np.exp(-model.r * T) * p2


def _random_cases(seed, n, width):
    """n seeded random models, each with a maturity T and a strike whose
    log-moneyness is uniform in +-width sqrt(T)."""
    rs = np.random.default_rng(seed)
    cases = []
    for _ in range(n):
        m = ModelParams(s0=100.0, v0=rs.uniform(0.005, 0.5), kappa=rs.uniform(0.7, 8.0),
                        theta=rs.uniform(0.005, 0.5), xi=rs.uniform(0.05, 2.0),
                        rho=rs.uniform(-0.95, 0.3), r=rs.uniform(-0.01, 0.08),
                        q=rs.uniform(0.0, 0.05))
        T = float(rs.choice([0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 15.0]))
        cases.append(([m], T, 100.0 * np.exp(rs.uniform(-width, width) * np.sqrt(T))))
    return cases


def _oracle_cases(group):
    """(factors, T, strike) triples on which the pricer is checked against quad."""
    if group == "presets":
        return [([p.model], p.maturity, x) for p in CASE_PRESETS.values()
                for x in (50.0, 75.0, 90.0, 100.0, 110.0, 150.0, 200.0)]
    if group == "grid":  # the grid4 sweep's points, with xi = 2 at kappa = 0.1
        base = CASE_PRESETS["IV"]
        return [([replace(base.model, xi=xi, kappa=kappa)], base.maturity, x)
                for xi in (2.0, 1.0, 0.25, 0.1) for kappa in (4.0, 1.0, 0.1)
                for x in (100.0, 110.0, 120.0)]
    if group == "random":
        return _random_cases(2024, 30, 0.5)
    a = CASE_PRESETS["III"].model
    return [([a, replace(a, v0=0.09, kappa=1.5, theta=0.06, xi=0.8, rho=-0.3)], 2.0, 105.0)]


@pytest.mark.parametrize("group", ["presets", "grid", "random", "two_factor"])
def test_price_matches_quad_reference(group):
    errs = [abs(price_european_exact_multifactor(models, T, x)
                - _quad_reference_price(models, T, x))
            for models, T, x in _oracle_cases(group)]
    assert max(errs) < 1e-9


def test_returned_prices_meet_the_tolerance_away_from_the_money():
    # Every price the oracle returns, up to 1.5 sd out of or in the money,
    # agrees with a quad reference run at 1e-13.
    errs = []
    for models, T, x in _random_cases(2025, 40, 1.5):
        try:
            price = price_european_exact_multifactor(models, T, x)
        except NumericalError:
            continue
        errs.append(abs(price - _quad_reference_price(models, T, x, eps=1e-13)))
    assert len(errs) > 30 and max(errs) < 5e-10


def test_quadrature_node_limit_raises(monkeypatch):
    monkeypatch.setattr(analytic, "_FOURIER_MAX_NODES", 10)
    preset = CASE_PRESETS["I"]
    with pytest.raises(NumericalError, match="did not converge within 10 nodes"):
        price_european_exact(preset.model, preset.maturity, preset.strike)


def test_nan_forward_identity_raises():
    # kappa < rho * xi puts 0/0 in the characteristic function at u = -i.
    m = ModelParams(s0=100, v0=0.9, kappa=0.05, theta=0.003, xi=0.6, rho=0.25)
    with pytest.raises(NumericalError, match="forward identity"):
        price_european_exact(m, 0.86, 91.0)


def test_price_monotone_and_convex_in_strike():
    preset = CASE_PRESETS["III"]
    strikes = np.arange(70.0, 131.0, 5.0)
    prices = np.array([
        price_european_exact(preset.model, preset.maturity, x) for x in strikes
    ])
    assert np.all(np.diff(prices) < 0)
    assert np.all(np.diff(prices, 2) > -1e-9)


def test_bs_call_intrinsic():
    assert bs_call_undiscounted(110.0, 0.0, 1.0, 100.0) == pytest.approx(10.0)
    assert bs_call_undiscounted(90.0, 0.0, 1.0, 100.0) == 0.0


def test_bs_call_atm_symmetry():
    f, sigma, t = 100.0, 0.3, 2.0
    from scipy.special import ndtr

    ref = f * (2.0 * ndtr(0.5 * sigma * np.sqrt(t)) - 1.0)
    assert bs_call_undiscounted(f, sigma, t, f) == pytest.approx(ref, rel=1e-12)


def test_bs_call_parity():
    f, x, sigma, t = 95.0, 105.0, 0.25, 1.5
    call = bs_call_undiscounted(f, sigma, t, x)
    put_via_swap = bs_call_undiscounted(x, sigma, t, f)
    assert call - (f - x) == pytest.approx(put_via_swap, rel=1e-12)


def test_bs_call_vectorized():
    out = bs_call_undiscounted(np.array([90.0, 110.0]), np.array([0.2, 0.0]), 1.0, 100.0)
    assert out.shape == (2,)
    assert out[1] == pytest.approx(10.0)


@pytest.mark.parametrize("lo,hi,rtol", [(-37.0, -20.0, 5e-13), (-20.0, -5.0, 1.5e-13),
                                         (-5.0, 0.0, 1e-14), (0.0, 8.5, 1e-15)])
def test_ndtr_against_mpmath(lo, hi, rtol):
    x = np.concatenate([np.linspace(lo, hi, 1001), np.random.default_rng(3).uniform(lo, hi, 2000)])
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.ncdf(mpmath.mpf(v))) for v in x])
    assert np.max(np.abs(_ndtr(x) / ref - 1.0)) <= rtol


def test_ndtr_extremes_are_exact_and_quiet():
    x = np.array([-np.inf, -1e300, -1e155, -60.0, 60.0, 1e155, 1e300, np.inf, np.nan])
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        out = _ndtr(x)
    assert out[:-1].tolist() == [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]
    assert np.isnan(out[-1])


def test_varswap_continuous_reference():
    preset = CASE_PRESETS["III"]
    assert round(varswap_strike_continuous(preset.model, 1.0), 6) == pytest.approx(0.017586)


def test_varswap_continuous_fixed_point():
    m = CASE_PRESETS["I"].model
    assert varswap_strike_continuous(m, 5.0) == pytest.approx(m.theta)


def test_varswap_continuous_small_kappa_limit():
    m = ModelParams(s0=100, v0=0.09, kappa=1e-8, theta=0.04, xi=0.5, rho=-0.5)
    assert varswap_strike_continuous(m, 1.0) == pytest.approx(0.09, rel=1e-6)


@pytest.mark.parametrize(
    "name,refs",
    [("III", {2: 1.870, 4: 1.832, 12: 1.790, 52: 1.767}),
     ("IV", {2: 21.930, 4: 21.132, 12: 20.356, 52: 19.973})],
)
def test_varswap_discrete_reference(name, refs):
    preset = CASE_PRESETS[name]
    for n, ref in refs.items():
        strike = varswap_strike_discrete(preset.model, preset.maturity, preset.maturity / n)
        assert round(100 * strike, 3) == pytest.approx(ref, abs=5.1e-4)


@pytest.mark.parametrize("name", sorted(CASE_PRESETS))
def test_varswap_discrete_decreasing_toward_continuous(name):
    preset = CASE_PRESETS[name]
    T = preset.maturity
    strikes = [varswap_strike_discrete(preset.model, T, T / n) for n in (2, 4, 12, 52)]
    cont = varswap_strike_continuous(preset.model, T)
    assert np.all(np.diff(strikes) < 0)
    assert strikes[-1] > cont


def test_varswap_discrete_converges_to_continuous():
    preset = CASE_PRESETS["IV"]
    disc = varswap_strike_discrete(preset.model, 1.0, 1e-4)
    cont = varswap_strike_continuous(preset.model, 1.0)
    assert abs(disc - cont) / cont < 1e-3


def test_varswap_discrete_requires_integer_periods():
    preset = CASE_PRESETS["III"]
    with pytest.raises(ParameterError):
        varswap_strike_discrete(preset.model, 1.0, 0.3)


def test_multifactor_charfn_single_factor_identity():
    m = CASE_PRESETS["II"].model
    us = np.array([0.5, 1.0, 3.0])
    np.testing.assert_allclose(
        heston_charfn_multifactor(us, [m], 15.0), heston_charfn(us, m, 15.0), rtol=1e-14
    )


def test_multifactor_price_matches_single_factor_split():
    from dataclasses import replace

    preset = CASE_PRESETS["IV"]
    half = replace(preset.model, v0=preset.model.v0 / 2, theta=preset.model.theta / 2)
    two = price_european_exact_multifactor([half, half], preset.maturity, preset.strike)
    assert two == pytest.approx(preset.reference_price, abs=1e-6)


def test_multifactor_charfn_rejects_mismatched_carry():
    from dataclasses import replace

    m = CASE_PRESETS["I"].model
    with pytest.raises(ParameterError):
        heston_charfn_multifactor(1.0, [m, replace(m, r=0.05)], 1.0)


_NAN = float("nan")


@pytest.mark.parametrize(
    "call",
    [
        lambda m: price_european_cmc(m, 1.0, _NAN, SchemeConfig("pois_ge"), 100, RngStream(1)),
        lambda m: bs_call_undiscounted(100.0, _NAN, 1.0, 100.0),
        lambda m: bs_call_undiscounted(_NAN, 0.2, 1.0, 100.0),
        lambda m: bs_call_undiscounted(100.0, 0.2, _NAN, 100.0),
        lambda m: series_coeffs(m, _NAN),
        lambda m: avg_variance_moments(m, _NAN),
        lambda m: phi(_NAN, 1.0, 1.0),
        lambda m: phi(1.0, _NAN, 1.0),
        lambda m: heston_charfn(0.5, m, _NAN),
        lambda m: price_european_exact(m, _NAN, 100.0),
        lambda m: price_european_exact(m, 1.0, _NAN),
        lambda m: varswap_strike_continuous(m, _NAN),
        lambda m: varswap_strike_discrete(m, _NAN, 0.25),
        lambda m: iv_moments_pois(0.02, 0.02, _NAN, m, 1.0),
        lambda m: cond_laplace_pois(_NAN, 0.02, 0.02, 1, m, 1.0),
        lambda m: cond_forward(m.s0, 0.02, 0.02, _NAN, 1.0, m),
        lambda m: sample_log_return(0.02, 0.02, _NAN, 1.0, m, 0.0),
        lambda m: cond_forward(m.s0, 0.02, _NAN, 0.02, 1.0, m),
        lambda m: terminal_variance_moments(np.inf, 1.0, m),
        lambda m: iv_moments_pois(0.02, np.inf, 1, m, 1.0),
        lambda m: cond_laplace_bk(0.5, -1.0, 0.02, m, 1.0),
        lambda m: varswap_strike_discrete(m, 1e300, 1e-300),
        lambda m: varswap_strike_discrete(m, 1e-300, 1e300),
    ],
    ids=["cmc-strike", "bs-sigma", "bs-forward", "bs-T", "series-h", "avg-moments-t",
         "phi-kappa", "phi-t", "charfn-T", "exact-T", "exact-strike", "varswap-cont-T",
         "varswap-disc-T", "pois-moments-mu", "laplace-pois-u",
         "forward-iv", "log-return-iv", "forward-v-next", "terminal-moments-v0-inf",
         "pois-moments-v-t-inf", "laplace-bk-v0-negative", "varswap-disc-periods-overflow",
         "varswap-disc-periods-underflow"],
)
def test_nan_inputs_raise_parameter_error(call):
    with pytest.raises(ParameterError):
        call(CASE_PRESETS["III"].model)


_INF = float("inf")
_QEM = SchemeConfig("qem", n_steps=4)


@pytest.mark.parametrize(
    "call",
    [
        lambda m: bs_call_undiscounted(100.0, 0.2, _INF, 100.0),
        lambda m: heston_charfn(1.0, m, _INF),
        lambda m: price_european_exact(m, _INF, 100.0),
        lambda m: price_european_exact(m, 1.0, _INF),
        lambda m: varswap_strike_discrete(m, _INF, 1.0),
        lambda m: varswap_strike_discrete(m, 1.0, _INF),
        lambda m: terminal_variance_moments(m.v0, _INF, m),
        lambda m: avg_variance_moments(m, _INF),
        lambda m: series_coeffs(m, _INF),
        lambda m: sample_terminal_variance(m.v0, _INF, m, RngStream(1)),
        lambda m: phi(m.kappa, _INF, m.xi),
        lambda m: price_european_cmc(m, _INF, 100.0, _QEM, 100, RngStream(1)),
        lambda m: reconstruct_spot(m, _INF, _QEM, 100, RngStream(1)),
        lambda m: varswap_fair_strike_mc(m, _INF, 4, _QEM, 100, RngStream(1)),
    ],
    ids=["bs-T", "charfn-T", "exact-T", "exact-strike", "varswap-disc-T", "varswap-disc-h",
         "terminal-moments-t", "avg-moments-t", "series-h", "terminal-variance-h", "phi-t",
         "cmc-qem-T", "spot-qem-T", "varswap-mc-qem-T"],
)
def test_infinite_scalar_inputs_raise_parameter_error(call):
    # Each scalar time, step or strike is finite and positive; before one
    # check owned the rule, +inf gave NaN, a raw OverflowError, a DomainError,
    # numpy warnings or a returned value.
    with pytest.raises(ParameterError, match="must be finite and positive"):
        call(CASE_PRESETS["III"].model)


@pytest.mark.parametrize("case,T,strike", [("IV", 1.0, 1e20), ("III", 1.0, 1e308),
                                           ("IV", 30.0, 1e9)])
def test_fourier_price_outside_no_arbitrage_range_raises(case, T, strike):
    # Far out of the money the price is the difference of two terms of about
    # b/2, b = K e^{-rT} / (S e^{-qT}).  At 1e20 and 1e308 their rounding
    # exceeds the spot (the returned prices were 6273.27 and inf); at Case IV,
    # T = 30 and 1e9 the quadrature leaves a price of -7.2e-7, below zero by
    # more than that rounding.
    with pytest.raises(NumericalError):
        price_european_exact(CASE_PRESETS[case].model, T, strike)


@pytest.mark.parametrize("case,T,strike", [("III", 1.0, 1e9),
                                           ("IV", 1.0, 1e16), ("IV", 1.0, 1e17),
                                           ("II", 30.0, 1e16), ("II", 30.0, 1e17),
                                           ("III", 30.0, 1e16), ("III", 30.0, 1e17)])
def test_fourier_rounding_above_tolerance_raises(case, T, strike):
    # The rounding of the two terms of about b/2, b eps S e^{-qT}, exceeds the
    # oracle's tolerance.  The prices were -9.3e-8 (a negative call price), then
    # 1.53, 24.50, 1.56, 18.75, 0.78 and 6.25, all inside the no-arbitrage range
    # although the true prices are near 0.
    with pytest.raises(NumericalError, match="out of the money"):
        price_european_exact(CASE_PRESETS[case].model, T, strike)
