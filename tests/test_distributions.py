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
    assert np.all(sample_poisson(0.0, rng, size=1000) == 0)


def test_poisson_moments():
    draws = sample_poisson(4.0, RngStream(2), size=N_BIG)
    assert abs(draws.mean() - 4.0) < 0.01
    assert abs(draws.var() - 4.0) < 0.05


def test_poisson_large_rate():
    draws = sample_poisson(1e6, RngStream(3), size=10_000)
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
    draws = sample_std_gamma(0.04, RngStream(4), size=N_BIG)
    assert abs(draws.mean() - 0.04) < 0.001


def test_gamma_moments():
    draws = sample_std_gamma(2.0, RngStream(5), size=N_BIG)
    assert abs(draws.mean() - 2.0) < 0.01
    assert abs(draws.var() - 2.0) < 0.05


def test_gamma_shape_one_is_exponential():
    draws = sample_std_gamma(1.0, RngStream(6), size=N_BIG)
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
    draws = sample_invgauss(1.0, 1.0, RngStream(7), size=N_BIG)
    assert abs(draws.mean() - 1.0) < 0.005
    assert abs(draws.var() - 1.0) < 0.02


def test_invgauss_variance():
    draws = sample_invgauss(0.5, 8.0, RngStream(8), size=N_BIG)
    ref = 0.5**3 / 8.0
    assert abs(draws.var() - ref) < 0.05 * ref


def test_invgauss_degenerate_limit():
    mu = 0.3
    draws = sample_invgauss(mu, 1e6 * mu**3, RngStream(9), size=100_000)
    assert draws.std() < mu / 100


def test_invgauss_invalid_params():
    with pytest.raises(ParameterError):
        sample_invgauss(-1.0, 1.0, RngStream(1))
    with pytest.raises(ParameterError):
        sample_invgauss(1.0, 0.0, RngStream(1))


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


def test_bessel_rv_moments():
    model = CASE_PRESETS["III"].model
    v = 0.019
    z = v * phi(model.kappa, 1.0, model.xi)
    n = N_BIG
    draws = sample_bessel_rv(model.nu, z, RngStream(13), size=n)
    mean, var = eta_moments(v, v, model, 1.0)
    se_mean = draws.std() / np.sqrt(n)
    assert abs(draws.mean() - mean) < 3 * se_mean
    se_var = np.std((draws - draws.mean()) ** 2) / np.sqrt(n)
    assert abs(draws.var() - var) < 3 * se_var


def test_bessel_rv_large_argument():
    # Large z (small h) exercises the asymptotic Bessel branch and wide search.
    from hestonsim.bessel import bessel_ratio

    draws = sample_bessel_rv(0.634, 2000.0, RngStream(14), size=50_000)
    mean = 0.5 * 2000.0 * bessel_ratio(0.634, 2000.0)
    assert abs(draws.mean() - mean) < 3 * draws.std() / np.sqrt(draws.size)


def test_bessel_rv_invalid_args():
    with pytest.raises(ParameterError):
        sample_bessel_rv(-1.5, 1.0, RngStream(1))
    for z in (np.array([1.0, np.nan]), np.array([1.0, np.inf])):
        with pytest.raises(ParameterError, match="finite and positive"):
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


def test_samplers_are_pure_functions_of_stream():
    a = sample_bessel_rv(0.2, 3.0, RngStream(15, (4,)), size=100)
    b = sample_bessel_rv(0.2, 3.0, RngStream(15, (4,)), size=100)
    np.testing.assert_array_equal(a, b)
    va, ma = sample_terminal_variance(0.04, 1.0, CASE_PRESETS["I"].model, RngStream(16))
    vb, mb = sample_terminal_variance(0.04, 1.0, CASE_PRESETS["I"].model, RngStream(16))
    assert va == vb and ma == mb
