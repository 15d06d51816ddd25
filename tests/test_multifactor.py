from dataclasses import replace

import numpy as np
import pytest

from hestonsim.analytic import bs_call_undiscounted, price_european_exact_multifactor
from hestonsim.errors import ParameterError
from hestonsim.model import ModelParams
from hestonsim.presets import CASE_PRESETS
from hestonsim.rng import RngStream
from hestonsim.schemes import (
    SchemeConfig,
    cond_forward,
    sample_log_return,
    simulate_multifactor_terminal,
    step_plan,
    step_pois_ge,
)


@pytest.mark.parametrize("trunc_k", [0, 2])
@pytest.mark.parametrize(
    "case,rho",
    [pytest.param(c, None, id=c) for c in sorted(CASE_PRESETS)]
    # 1 - rho**2 and 1 - rho * rho round apart at this rho.
    + [pytest.param("III", -0.840136, id="III-rho-0.840136")],
)
def test_single_factor_matches_scalar_kernel_bitwise(case, rho, trunc_k):
    preset = CASE_PRESETS[case]
    m, T = preset.model, preset.maturity
    if rho is not None:
        m = replace(m, rho=rho)
    n = 5000
    lr, fwd, sigma = simulate_multifactor_terminal([m], T, trunc_k, n, RngStream(50))

    rng = RngStream(50)
    res = step_pois_ge(np.full(n, m.v0), step_plan(m, T, SchemeConfig("pois_ge", trunc_k)), rng)
    z = rng.gen.standard_normal(n)
    lr_ref = sample_log_return(m.v0, res.v_next, res.iv, T, m, z)
    np.testing.assert_array_equal(lr, lr_ref)
    np.testing.assert_array_equal(fwd, cond_forward(m.s0, m.v0, res.v_next, res.iv, T, m))
    np.testing.assert_array_equal(sigma, np.sqrt((1.0 - m.rho * m.rho) * res.iv))


def test_zero_correlation_forward_is_exact():
    m = ModelParams(s0=50, v0=0.04, kappa=2, theta=0.09, xi=0.8, rho=0.0,
                    r=0.03, q=0.01)
    _, fwd, _ = simulate_multifactor_terminal([m], 2.0, 1, 2000, RngStream(51))
    np.testing.assert_allclose(fwd, 50 * np.exp((0.03 - 0.01) * 2.0), rtol=1e-14)


def test_two_factor_split_price_matches_fourier():
    preset = CASE_PRESETS["IV"]
    half = replace(preset.model, v0=preset.model.v0 / 2, theta=preset.model.theta / 2)
    models = [half, half]
    T, X = preset.maturity, preset.strike
    ref = price_european_exact_multifactor(models, T, X)

    n = 40_000
    _, fwd, sigma = simulate_multifactor_terminal(models, T, 1, n, RngStream(52))
    payoffs = np.exp(-half.r * T) * bs_call_undiscounted(fwd, sigma / np.sqrt(T), T, X)
    se = payoffs.std() / np.sqrt(n)
    assert abs(payoffs.mean() - ref) < 3 * se


def test_two_factor_asymmetric_price_matches_fourier():
    base = CASE_PRESETS["III"].model
    a = replace(base, v0=0.008, theta=0.012, rho=-0.7)
    b = replace(base, v0=0.002201, theta=0.007, rho=0.3, xi=0.4, kappa=2.0)
    T, X = 1.0, 100.0
    ref = price_european_exact_multifactor([a, b], T, X)

    n = 40_000
    _, fwd, sigma = simulate_multifactor_terminal([a, b], T, 1, n, RngStream(53))
    payoffs = np.exp(-a.r * T) * bs_call_undiscounted(fwd, sigma / np.sqrt(T), T, X)
    se = payoffs.std() / np.sqrt(n)
    assert abs(payoffs.mean() - ref) < 3 * se


def test_factors_must_share_carry():
    m = CASE_PRESETS["I"].model
    with pytest.raises(ParameterError):
        simulate_multifactor_terminal([m, replace(m, r=0.05)], 1.0, 1, 10, RngStream(1))


def test_requires_at_least_one_factor():
    with pytest.raises(ParameterError):
        simulate_multifactor_terminal([], 1.0, 1, 10, RngStream(1))
