import numpy as np
import pytest
import scipy.stats as st

from hestonsim.distributions import (
    bessel_rv_logpmf,
    sample_bessel_rv,
    sample_invgauss,
    sample_poisson,
    sample_std_gamma,
    sample_terminal_variance,
)
from hestonsim.errors import ParameterError
from hestonsim.model import eta_moments, phi, terminal_variance_moments
from hestonsim.presets import CASE_PRESETS
from hestonsim.rng import RngStream

N_BIG = 1_000_000


def test_poisson_zero_rate():
    rng = RngStream(1)
    assert np.all(sample_poisson(np.full(1000, 0.0), rng) == 0)


def test_poisson_moments():
    draws = sample_poisson(np.full(N_BIG, 4.0), RngStream(2))
    assert abs(draws.mean() - 4.0) < 0.01
    assert abs(draws.var() - 4.0) < 0.05


def test_poisson_large_rate():
    draws = sample_poisson(np.full(10_000, 1e6), RngStream(3))
    assert abs(draws.mean() - 1e6) < 500


@pytest.mark.parametrize("rate", [-1.0, np.nan, np.inf, np.array([1.0, np.nan]),
                                  np.array([-np.inf, 1.0]), np.array([2.0**63, np.nan])])
def test_poisson_invalid_rate(rate):
    with pytest.raises(ParameterError, match="finite and nonnegative"):
        sample_poisson(rate, RngStream(1))


def test_poisson_rate_overflow_guard():
    for rate in (2.0**63, np.array([1.0, 2.0**62])):
        with pytest.raises(ParameterError, match="too large"):
            sample_poisson(rate, RngStream(1))


def test_samplers_accept_empty_arrays():
    empty = np.array([])
    assert sample_poisson(empty, RngStream(1)).shape == (0,)
    assert sample_std_gamma(empty, RngStream(1)).shape == (0,)
    assert sample_bessel_rv(0.5, empty, RngStream(1)).shape == (0,)


def test_gamma_small_shape_moments():
    draws = sample_std_gamma(np.full(N_BIG, 0.04), RngStream(4))
    assert abs(draws.mean() - 0.04) < 0.001


def test_gamma_moments():
    draws = sample_std_gamma(np.full(N_BIG, 2.0), RngStream(5))
    assert abs(draws.mean() - 2.0) < 0.01
    assert abs(draws.var() - 2.0) < 0.05


def test_gamma_shape_one_is_exponential():
    draws = sample_std_gamma(np.full(N_BIG, 1.0), RngStream(6))
    assert abs(np.mean(draws > np.log(2.0)) - 0.5) < 0.005


@pytest.mark.parametrize("shape", [-0.5, np.array([1.0, np.nan]), np.array([1.0, np.inf])])
def test_gamma_invalid_shape(shape):
    with pytest.raises(ParameterError, match="finite and nonnegative"):
        sample_std_gamma(shape, RngStream(1))


def test_gamma_scalar_zero_shape_rejected():
    with pytest.raises(ParameterError):
        sample_std_gamma(0.0, RngStream(1))


def test_gamma_elementwise_zero_shape_allowed():
    draws = sample_std_gamma(np.array([0.0, 2.0]), RngStream(1))
    assert draws[0] == 0.0 and draws[1] > 0.0


def test_invgauss_moments():
    draws = sample_invgauss(np.full(N_BIG, 1.0), np.full(N_BIG, 1.0), RngStream(7))
    assert abs(draws.mean() - 1.0) < 0.005
    assert abs(draws.var() - 1.0) < 0.02


def test_invgauss_variance():
    draws = sample_invgauss(np.full(N_BIG, 0.5), np.full(N_BIG, 8.0), RngStream(8))
    ref = 0.5**3 / 8.0
    assert abs(draws.var() - ref) < 0.05 * ref


def test_invgauss_degenerate_limit():
    mu = 0.3
    draws = sample_invgauss(np.full(100_000, mu), np.full(100_000, 1e6 * mu**3), RngStream(9))
    assert draws.std() < mu / 100


def test_invgauss_invalid_params():
    with pytest.raises(ParameterError):
        sample_invgauss(-1.0, 1.0, RngStream(1))
    with pytest.raises(ParameterError):
        sample_invgauss(1.0, 0.0, RngStream(1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_invgauss_rejects_non_finite(bad):
    for mu, lam in (([1.0, bad], [1.0, 1.0]), ([1.0, 1.0], [1.0, bad]), (bad, 1.0)):
        with pytest.raises(ParameterError, match="finite and positive"):
            sample_invgauss(np.array(mu), np.array(lam), RngStream(1))


@pytest.mark.parametrize("name", sorted(CASE_PRESETS))
def test_terminal_variance_matches_transition_moments(name):
    preset = CASE_PRESETS[name]
    model, h = preset.model, preset.maturity
    n = 400_000
    v_next, mu = sample_terminal_variance(np.full(n, model.v0), h, model, RngStream(10, (ord(name[0]),)))
    mean, var = terminal_variance_moments(model.v0, h, model)
    se_mean = v_next.std() / np.sqrt(n)
    assert abs(v_next.mean() - mean) < 3 * se_mean
    se_var = np.std((v_next - v_next.mean()) ** 2) / np.sqrt(n)
    assert abs(v_next.var() - var) < 3 * se_var
    assert mu.min() >= 0


def test_terminal_variance_matches_noncentral_chisq_law():
    # The Poisson-gamma mixture and the scaled noncentral chi-square transition
    # describe the same distribution.
    model = CASE_PRESETS["IV"].model
    h = 1.0
    n = 100_000
    v_mix, _ = sample_terminal_variance(np.full(n, model.v0), h, model, RngStream(11))
    phi_h = phi(model.kappa, h, model.xi)
    ekh = np.exp(-0.5 * model.kappa * h)
    rng = RngStream(12)
    v_ncx = (ekh / phi_h) * rng.gen.noncentral_chisquare(model.delta, model.v0 * phi_h * ekh, size=n)
    assert st.ks_2samp(v_mix, v_ncx).pvalue > 1e-3


def test_bessel_pmf_normalizes():
    for nu, z in [(-0.366, 0.8), (0.634, 5.0), (1.0, 40.0)]:
        js = np.arange(0, 2000)
        total = np.exp(bessel_rv_logpmf(nu, z, js)).sum()
        assert abs(total - 1.0) < 1e-12


def test_bessel_pmf_is_zero_below_the_support():
    out = bessel_rv_logpmf(0.5, 3.0, np.array([-2.0, -1.0, -0.5, 0.0]))
    assert out[:3].tolist() == [-np.inf] * 3 and np.isfinite(out[3])


def test_bessel_rv_moments():
    model = CASE_PRESETS["III"].model
    v = 0.019
    z = v * phi(model.kappa, 1.0, model.xi)
    n = N_BIG
    draws = sample_bessel_rv(model.nu, np.full(n, z), RngStream(13))
    mean, var = eta_moments(v, v, model, 1.0)
    se_mean = draws.std() / np.sqrt(n)
    assert abs(draws.mean() - mean) < 3 * se_mean
    se_var = np.std((draws - draws.mean()) ** 2) / np.sqrt(n)
    assert abs(draws.var() - var) < 3 * se_var


def test_bessel_rv_large_argument():
    # Large z (small h) exercises the asymptotic Bessel branch and wide search.
    from hestonsim.bessel import bessel_ratio

    draws = sample_bessel_rv(0.634, np.full(50_000, 2000.0), RngStream(14))
    mean = 0.5 * 2000.0 * bessel_ratio(0.634, 2000.0)
    assert abs(draws.mean() - mean) < 3 * draws.std() / np.sqrt(draws.size)


def test_bessel_rv_invalid_args():
    with pytest.raises(ParameterError):
        sample_bessel_rv(-1.5, 1.0, RngStream(1))
    for z in (np.array([1.0, np.nan]), np.array([1.0, np.inf])):
        with pytest.raises(ParameterError, match="finite and nonnegative"):
            sample_bessel_rv(0.5, z, RngStream(1))


@pytest.mark.parametrize("nu", [-0.99, -0.5, 0.0, 0.634, 4.0])
def test_bessel_rv_zero_argument(nu):
    # BES(nu, 0) is a point mass at 0; positive arguments beside it are unaffected.
    assert sample_bessel_rv(nu, 0.0, RngStream(1)) == 0
    z = np.array([0.0, 3.0, 0.0, 40.0])
    draws = sample_bessel_rv(nu, z, RngStream(2))
    assert draws[0] == draws[2] == 0
    ref = sample_bessel_rv(nu, np.array([1.0, 3.0, 1.0, 40.0]), RngStream(2))
    np.testing.assert_array_equal(draws[[1, 3]], ref[[1, 3]])


def test_bessel_rv_underflowing_argument():
    # At z ~ 1e-300, z^2/4 underflows to 0; the masked-out downward step must
    # not divide by it, and the other draws stay as they were.
    z = np.array([1e-300] + [5.0] * 99)
    draws = sample_bessel_rv(0.5, z, RngStream(1))
    assert draws[0] == 0
    np.testing.assert_array_equal(draws[1:], sample_bessel_rv(0.5, np.full(100, 5.0), RngStream(1))[1:])


def test_bessel_rv_draws_are_pinned():
    # Twelve draws at z = 3, pinned: a change to the search or its uniforms shows here.
    draws = sample_bessel_rv(0.5, np.full(12, 3.0), RngStream(3))
    assert draws.dtype == np.int64
    np.testing.assert_array_equal(draws, [2, 0, 0, 0, 0, 1, 3, 0, 1, 2, 1, 2])


@pytest.mark.parametrize("nu", [-0.5, 0.634, 49.0])
def test_bessel_rv_is_the_outward_inverse_of_its_uniform(nu):
    # The search visits j*, j* + 1, j* - 1, j* + 2, ... and stops where the
    # running mass first covers the uniform; each draw leaves the search on
    # its own, whatever the other arguments in the call.
    z = np.exp(np.random.default_rng(4).uniform(np.log(1e-3), np.log(200.0), 300))
    draws = sample_bessel_rv(nu, z, RngStream(5))
    u = RngStream(5).gen.uniform(size=z.size)
    for zi, ui, d in zip(z, u, draws):
        jstar = int(max(np.floor(0.5 * (np.sqrt(nu * nu + zi * zi) - nu)), 0.0))
        order = [jstar] + [j for i in range(1, 400) for j in (jstar + i, jstar - i) if j >= 0]
        cum = np.cumsum(np.exp(bessel_rv_logpmf(nu, zi, np.array(order, dtype=float))))
        assert d == order[int(np.argmax(cum >= ui))]


def test_samplers_are_pure_functions_of_stream():
    a = sample_bessel_rv(0.2, np.full(100, 3.0), RngStream(15, (4,)))
    b = sample_bessel_rv(0.2, np.full(100, 3.0), RngStream(15, (4,)))
    np.testing.assert_array_equal(a, b)
    va, ma = sample_terminal_variance(0.04, 1.0, CASE_PRESETS["I"].model, RngStream(16))
    vb, mb = sample_terminal_variance(0.04, 1.0, CASE_PRESETS["I"].model, RngStream(16))
    assert va == vb and ma == mb
