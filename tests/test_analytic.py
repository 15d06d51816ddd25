from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from hestonsim.analytic import (
    QuadratureSpec,
    bs_call_undiscounted,
    heston_charfn,
    heston_charfn_multifactor,
    price_european_exact,
    price_european_exact_multifactor,
    varswap_strike_continuous,
    varswap_strike_discrete,
)
from hestonsim.errors import NumericalError, ParameterError
from hestonsim.model import ModelParams
from hestonsim.presets import CASE_PRESETS


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


@pytest.mark.parametrize("name", sorted(CASE_PRESETS))
def test_exact_prices_reference(name):
    preset = CASE_PRESETS[name]
    price = price_european_exact(preset.model, preset.maturity, preset.strike)
    assert price == pytest.approx(preset.reference_price, abs=1e-6)


def test_price_stable_under_tighter_quadrature():
    preset = CASE_PRESETS["I"]
    a = price_european_exact(preset.model, preset.maturity, preset.strike,
                             QuadratureSpec())
    b = price_european_exact(preset.model, preset.maturity, preset.strike,
                             QuadratureSpec(epsabs=1e-12, epsrel=1e-12, limit=400))
    assert a == pytest.approx(b, abs=1e-8)


def _quad_reference_price(models, T, strike):
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

    kw = dict(epsabs=1e-10, epsrel=1e-10, limit=200)
    p1 = 0.5 + quad(integrand_p1, 0.0, np.inf, **kw)[0] / np.pi
    p2 = 0.5 + quad(integrand_p2, 0.0, np.inf, **kw)[0] / np.pi
    return model.s0 * np.exp(-model.q * T) * p1 - strike * np.exp(-model.r * T) * p2


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
        rs = np.random.default_rng(2024)
        cases = []
        for _ in range(30):
            m = ModelParams(s0=100.0, v0=rs.uniform(0.005, 0.5), kappa=rs.uniform(0.7, 8.0),
                            theta=rs.uniform(0.005, 0.5), xi=rs.uniform(0.05, 2.0),
                            rho=rs.uniform(-0.95, 0.3), r=rs.uniform(-0.01, 0.08),
                            q=rs.uniform(0.0, 0.05))
            T = float(rs.choice([0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 15.0]))
            cases.append(([m], T, 100.0 * np.exp(rs.uniform(-0.5, 0.5) * np.sqrt(T))))
        return cases
    a = CASE_PRESETS["III"].model
    return [([a, replace(a, v0=0.09, kappa=1.5, theta=0.06, xi=0.8, rho=-0.3)], 2.0, 105.0)]


@pytest.mark.parametrize("group", ["presets", "grid", "random", "two_factor"])
def test_price_matches_quad_reference(group):
    errs = [abs(price_european_exact_multifactor(models, T, x)
                - _quad_reference_price(models, T, x))
            for models, T, x in _oracle_cases(group)]
    assert max(errs) < 1e-9


def test_quadrature_node_limit_raises():
    preset = CASE_PRESETS["I"]
    with pytest.raises(NumericalError, match="did not converge within 10 nodes"):
        price_european_exact(preset.model, preset.maturity, preset.strike,
                             QuadratureSpec(limit=10))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
