import dataclasses

import mpmath
import numpy as np
import pytest
from scipy.special import polygamma

from hestonsim.errors import DomainError, NumericalError, ParameterError
from hestonsim.model import (
    ModelParams,
    avg_variance_moments,
    cond_laplace_bk,
    cond_laplace_pois,
    eta_moments,
    grid_variance_mean,
    iv_moments_bessel,
    iv_moments_pois,
    iv_moments_truncated,
    phi,
    series_coeffs,
    terminal_variance_moments,
)
from hestonsim.distributions import bessel_rv_logpmf
from hestonsim.presets import CASE_PRESETS


def test_model_params_validation():
    with pytest.raises(ParameterError):
        ModelParams(s0=-1, v0=0.04, kappa=1, theta=0.04, xi=1, rho=0)
    with pytest.raises(ParameterError):
        ModelParams(s0=100, v0=0.04, kappa=1, theta=0.04, xi=1, rho=1.5)
    with pytest.raises(ParameterError):
        ModelParams(s0=100, v0=0.04, kappa=1, theta=0.04, xi=1, rho=0, r=np.nan)


def test_derived_constants():
    m = CASE_PRESETS["IV"].model
    assert m.delta == pytest.approx(4.0 * 4.0 * 0.25 / 1.0)
    assert m.nu == pytest.approx(0.5 * m.delta - 1.0)


def test_phi_small_argument_limit():
    np.testing.assert_allclose(phi(1e-8, 1.0, 1.0), 4.0, rtol=1e-8)


def test_phi_case_one():
    np.testing.assert_allclose(phi(0.5, 10.0, 1.0), 1.0 / np.sinh(2.5), rtol=1e-14)


def test_phi_xi_scaling():
    assert phi(0.7, 2.0, 2.0) == pytest.approx(phi(0.7, 2.0, 1.0) / 4.0, rel=1e-14)


def test_phi_overflow_guard():
    with pytest.raises(DomainError):
        phi(2000.0, 1.0, 1.0)


def test_terminal_variance_moments_fixed_point():
    m = CASE_PRESETS["I"].model
    mean, _ = terminal_variance_moments(m.theta, 7.3, m)
    assert mean == pytest.approx(m.theta)


def test_terminal_variance_moments_long_horizon():
    m = CASE_PRESETS["IV"].model
    mean, var = terminal_variance_moments(m.v0, 1000.0, m)
    assert mean == pytest.approx(0.25, rel=1e-10)
    assert var == pytest.approx(1.0 * 0.25 / 8.0, rel=1e-10)


def test_terminal_variance_moments_short_horizon():
    m = CASE_PRESETS["II"].model
    mean, var = terminal_variance_moments(m.v0, 1e-12, m)
    assert mean == pytest.approx(m.v0, rel=1e-9)
    assert var == pytest.approx(0.0, abs=1e-12)


def test_terminal_variance_moments_takes_an_array_of_times():
    m = CASE_PRESETS["IV"].model
    mean, var = terminal_variance_moments(m.v0, np.array([0.5, 2.0]), m)
    assert mean[1] == terminal_variance_moments(m.v0, 2.0, m)[0]
    assert var[0] == terminal_variance_moments(m.v0, 0.5, m)[1]
    for t in (np.array([0.5, 0.0]), np.array([np.nan, 1.0])):
        with pytest.raises(ParameterError, match="t must be finite and positive"):
            terminal_variance_moments(m.v0, t, m)


@pytest.mark.parametrize("n", [1, 2, 12, 52])
@pytest.mark.parametrize("name", ["I", "II", "III", "IV"])
def test_grid_variance_mean_averages_the_cir_mean(name, n):
    p = CASE_PRESETS[name]
    h = p.maturity / n
    terms = [terminal_variance_moments(p.model.v0, i * h, p.model)[0] for i in range(1, n + 1)]
    assert grid_variance_mean(p.model, p.maturity, n) == pytest.approx(sum(terms) / n, rel=1e-14)


@pytest.mark.parametrize("n", [1, 52])
def test_grid_variance_mean_at_tiny_kappa_h(n):
    # kappa*h = 1e-12: a geometric-sum form would divide 0 by 0 here.
    m = dataclasses.replace(CASE_PRESETS["IV"].model, kappa=1e-12 * n)
    with np.errstate(all="raise"):
        mean = grid_variance_mean(m, 1.0, n)
    assert mean == pytest.approx(m.v0, rel=1e-9)


@pytest.mark.parametrize(
    "name,mean_ref,var_ref",
    [("I", 0.04, 0.011243), ("II", 0.04, 0.016118),
     ("III", 0.017586, 0.000126), ("IV", 0.198462, 0.007109)],
)
def test_avg_variance_moments_reference(name, mean_ref, var_ref):
    preset = CASE_PRESETS[name]
    mean, var = avg_variance_moments(preset.model, preset.maturity)
    assert round(mean, 6) == pytest.approx(mean_ref, abs=5.1e-7)
    assert round(var, 6) == pytest.approx(var_ref, abs=5.1e-7)


def test_avg_variance_fixed_point():
    m = CASE_PRESETS["I"].model
    mean, _ = avg_variance_moments(m, 3.0)
    assert mean == pytest.approx(m.theta)


def _unit_factors(c):
    """The four moment factors of ``c`` with their time and xi scales divided out."""
    xi, h = c.xi, c.h
    return (c.mean_x / h, c.var_x / (xi**2 * h**3), c.mean_z / (xi**2 * h**2),
            c.var_z / (xi**4 * h**4))


def test_series_coeffs_small_a_limits():
    m = CASE_PRESETS["III"].model
    m_x, v_x, m_z, v_z = _unit_factors(series_coeffs(m, 1e-9))
    assert m_x == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert m_z == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert v_x > 0 and v_z > 0


def test_series_coeffs_branch_continuity():
    # Series branch (a <= 0.2) and direct hyperbolic branch agree at the crossover.
    m = CASE_PRESETS["I"].model
    lo = series_coeffs(m, 2 * 0.2 / m.kappa * (1 - 1e-9))
    hi = series_coeffs(m, 2 * 0.2 / m.kappa * (1 + 1e-9))
    np.testing.assert_allclose(_unit_factors(lo), _unit_factors(hi), rtol=1e-8)


def test_series_tail_adds_back_to_full_factors():
    c = series_coeffs(CASE_PRESETS["I"].model, 10.0)
    kk = 8
    rest = c.tail(kk)
    k = np.arange(1, kk + 1, dtype=float)
    lam, gam = c.lam(k), c.gam(k)
    removed = {"mean_x": np.sum(lam / gam), "var_x": np.sum(2.0 * lam / gam**2),
               "mean_z": np.sum(1.0 / gam), "var_z": np.sum(1.0 / gam**2)}
    for name, s in removed.items():
        assert getattr(rest, name) > 0
        np.testing.assert_allclose(getattr(rest, name) + s, getattr(c, name), rtol=1e-12)
    assert (rest.kappa, rest.xi, rest.h) == (c.kappa, c.xi, c.h)


@pytest.mark.parametrize("trunc_k", [1.5, "2", -1])
def test_series_tail_rejects_non_counts(trunc_k):
    m = CASE_PRESETS["III"].model
    with pytest.raises(ParameterError, match="trunc_k"):
        series_coeffs(m, 1.0).tail(trunc_k)
    with pytest.raises(ParameterError, match="trunc_k"):
        iv_moments_truncated(trunc_k, 0.02, 0.02, 1, m, 1.0)


def test_series_partial_sums_converge_to_moment_scales():
    m = CASE_PRESETS["IV"].model
    h = 1.0
    c = series_coeffs(m, h)
    n_terms = 1_000_000
    k = np.arange(1, n_terms + 1, dtype=float)
    lam, gam = c.lam(k), c.gam(k)
    # Both terms decay like 1/k^2; add the leading tail constant times
    # psi'(K+1) = sum_{k>K} 1/k^2, which leaves an O(K^-3) remainder.
    inv_k2_tail = polygamma(1, n_terms + 1)
    mean_x_tail = 2.0 * h / np.pi**2 * inv_k2_tail
    mean_z_tail = m.xi**2 * h**2 / (2.0 * np.pi**2) * inv_k2_tail
    np.testing.assert_allclose(np.sum(lam / gam) + mean_x_tail, c.mean_x, rtol=1e-10)
    np.testing.assert_allclose(np.sum(1.0 / gam) + mean_z_tail, c.mean_z, rtol=1e-10)


def test_lambda_over_gamma_decreasing():
    c = series_coeffs(CASE_PRESETS["II"].model, 15.0)
    k = np.arange(1, 200, dtype=float)
    ratio = c.lam(k) / c.gam(k)
    assert np.all(np.diff(ratio) < 0)
    assert np.all(c.lam(k) > 0) and np.all(c.gam(k) > 0)


def test_iv_moments_pois_substitution():
    m = CASE_PRESETS["I"].model
    h, v = 2.0, 0.05
    c = series_coeffs(m, h)
    mom = iv_moments_pois(v, v, 0, m, h)
    assert mom.mean == pytest.approx(2 * v * c.mean_x + 0.5 * m.delta * c.mean_z)
    assert mom.variance == pytest.approx(2 * v * c.var_x + 0.5 * m.delta * c.var_z)


def test_iv_moments_pois_monotone_in_count():
    m = CASE_PRESETS["III"].model
    mus = np.arange(0, 10)
    mom = iv_moments_pois(0.02, 0.02, mus, m, 1.0)
    assert np.all(np.diff(mom.mean) > 0)
    assert np.all(np.diff(mom.variance) > 0)


def test_iv_moments_truncated_k0_identity():
    m = CASE_PRESETS["II"].model
    c = series_coeffs(m, 3.0)
    assert c.tail(0) is c
    full = iv_moments_pois(0.03, 0.05, 2, m, 3.0)
    trunc = iv_moments_truncated(0, 0.03, 0.05, 2, m, 3.0)
    assert trunc.mean == full.mean and trunc.variance == full.variance


def test_iv_moments_truncated_additivity():
    m = CASE_PRESETS["I"].model
    h, v0, vt, mu, kk = 10.0, 0.04, 0.07, 3, 8
    c = series_coeffs(m, h)
    full = iv_moments_pois(v0, vt, mu, m, h, c)
    trunc = iv_moments_truncated(kk, v0, vt, mu, m, h, c)
    k = np.arange(1, kk + 1, dtype=float)
    removed = np.sum((v0 + vt) * c.lam(k) / c.gam(k) + (0.5 * m.delta + 2 * mu) / c.gam(k))
    np.testing.assert_allclose(trunc.mean + removed, full.mean, rtol=1e-12)


def test_iv_moments_truncated_tail_vanishes():
    m = CASE_PRESETS["III"].model
    full = iv_moments_pois(0.019, 0.019, 1, m, 1.0)
    trunc = iv_moments_truncated(100_000, 0.019, 0.019, 1, m, 1.0)
    assert trunc.mean < 1e-4 * full.mean
    assert trunc.mean >= 0 and trunc.variance >= 0


def test_iv_moments_truncated_rejects_negative_remainder():
    # With the endpoint mean factor zeroed, the four removed terms exceed the
    # full mean by far more than rounding, which must not be clamped away.
    m = CASE_PRESETS["III"].model
    coeffs = dataclasses.replace(series_coeffs(m, 1.0), mean_x=0.0)
    with pytest.raises(NumericalError, match="beyond rounding tolerance"):
        iv_moments_truncated(4, 1.0, 1.0, 0, m, 1.0, coeffs)


def test_bessel_pois_mixture_mean_identity():
    # Averaging the count-conditional mean over the Bessel pmf recovers the
    # endpoint-conditional mean.
    m = CASE_PRESETS["III"].model
    h, v0, vt = 1.0, 0.0102, 0.019
    z = np.sqrt(v0 * vt) * phi(m.kappa, h, m.xi)
    js = np.arange(0, 500)
    pmf = np.exp(bessel_rv_logpmf(m.nu, z, js))
    mixed = np.sum(pmf * iv_moments_pois(v0, vt, js, m, h).mean)
    ref = iv_moments_bessel(v0, vt, m, h).mean
    np.testing.assert_allclose(mixed, ref, rtol=1e-10)


@pytest.mark.parametrize("name", ["I", "III", "IV"])
def test_eta_mean_large_z_asymptote(name):
    # I_{nu+1}(z)/I_nu(z) = 1 - (2 nu + 1)/(2z) + (4 nu^2 - 1)/(8 z^2) + O(z^-3),
    # so delta/2 + 2 E[eta] = z + 1/2 + (4 nu^2 - 1)/(8z) + O(z^-2): the +1/2
    # that gives the small-step bridge term xi^2 h^2 / 24.
    m = CASE_PRESETS[name].model
    h = 1e-4
    z = m.v0 * phi(m.kappa, h, m.xi)
    assert z > 700
    mean, _ = eta_moments(m.v0, m.v0, m, h)
    residual = 0.5 * m.delta + 2.0 * mean - z - 0.5
    assert z * residual == pytest.approx((4.0 * m.nu**2 - 1.0) / 8.0, rel=0.02)


def test_eta_moments_positive():
    m = CASE_PRESETS["I"].model
    mean, var = eta_moments(0.04, 0.04, m, 10.0)
    assert mean > 0 and var > 0


@pytest.mark.parametrize("case", ["I", "IV"])
def test_eta_moments_zero_endpoint(case):
    # BES(nu, 0) is a point mass at 0, also for -1 < nu < 0 where I_nu(0) = inf.
    assert eta_moments(0.0, 0.04, CASE_PRESETS[case].model, 1.0) == (0.0, 0.0)


@pytest.mark.parametrize(
    "m",
    [CASE_PRESETS["I"].model, CASE_PRESETS["III"].model, CASE_PRESETS["IV"].model,
     ModelParams(s0=100, v0=0.25, kappa=4.0, theta=0.25, xi=0.1, rho=-0.5)],
    ids=["I", "III", "IV", "nu199"],
)
def test_eta_moments_against_mpmath(m):
    h = 1.0
    ph = phi(m.kappa, h, m.xi)
    v = np.array([1e-6, 1e-3, 1.0, 20.0, 49.9, 50.0, 120.0, 2e3, 1e5]) / ph
    mean, var = eta_moments(v, v, m, h)
    ref_mean, ref_var = [], []
    with mpmath.workdps(50):
        for z in np.sqrt(v * v) * ph:
            z = mpmath.mpf(float(z))
            i0 = mpmath.besseli(m.nu, z)
            e = 0.5 * z * mpmath.besseli(m.nu + 1, z) / i0
            ref_mean.append(float(e))
            ref_var.append(float(0.25 * z * z * mpmath.besseli(m.nu + 2, z) / i0 + e - e * e))
    np.testing.assert_allclose(mean, ref_mean, rtol=1e-13)
    np.testing.assert_allclose(var, ref_var, rtol=1e-9)


@pytest.mark.parametrize("laplace", [cond_laplace_pois, cond_laplace_bk])
def test_laplace_at_zero(laplace):
    m = CASE_PRESETS["III"].model
    args = (0.019, 0.019, 2, m, 1.0) if laplace is cond_laplace_pois else (0.019, 0.019, m, 1.0)
    assert laplace(0.0, *args) == pytest.approx(1.0, rel=1e-14)


def test_laplace_pois_derivatives_match_moments():
    m = CASE_PRESETS["III"].model
    v0, vt, mu, h = 0.019, 0.025, 3, 1.0
    mom = iv_moments_pois(v0, vt, mu, m, h)
    eps = 1e-6
    f = lambda u: cond_laplace_pois(u, v0, vt, mu, m, h)
    d1 = (f(eps) - f(0.0)) / eps
    np.testing.assert_allclose(-d1, mom.mean, rtol=1e-4)
    # a larger step keeps the second difference clear of rounding noise;
    # the truncation error is O(eps * third moment) and far below tolerance
    eps2 = 1e-3
    d2 = (f(2 * eps2) - 2 * f(eps2) + f(0.0)) / eps2**2
    np.testing.assert_allclose(d2, mom.variance + mom.mean**2, rtol=1e-3)


def test_laplace_bk_derivative_matches_mean():
    m = CASE_PRESETS["III"].model
    v0, vt, h = 0.0102, 0.019, 1.0
    mom = iv_moments_bessel(v0, vt, m, h)
    eps = 1e-6
    d1 = (cond_laplace_bk(eps, v0, vt, m, h) - 1.0) / eps
    np.testing.assert_allclose(-d1, mom.mean, rtol=1e-4)


def test_laplace_decreasing_in_u():
    m = CASE_PRESETS["I"].model
    us = np.array([0.0, 0.5, 1.0, 2.0, 5.0])
    vals = cond_laplace_pois(us, 0.04, 0.04, 1, m, 10.0)
    assert np.all(np.diff(vals) < 0)
    assert np.all(vals > 0) and vals[0] == pytest.approx(1.0)
