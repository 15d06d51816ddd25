import mpmath
import numpy as np
import pytest
import scipy.special as sp

from hestonsim import bessel
from hestonsim.bessel import (
    _peak_sums,
    bessel_ratio,
    log_bessel_iv_scaled,
    log_gamma,
)
from hestonsim.distributions import sample_bessel_rv
from hestonsim.errors import NumericalError, ParameterError
from hestonsim.rng import RngStream


def _iv(nu, z):
    """Unscaled I_nu(z), recovered from the log-scaled value."""
    return np.exp(log_bessel_iv_scaled(nu, z) + np.asarray(z, dtype=float))


def test_zero_argument():
    assert _iv(0.0, 0.0) == 1.0
    assert _iv(0.5, 0.0) == 0.0
    assert _iv(3.0, 0.0) == 0.0
    # For -1 < nu < 0 the k = 0 term (z/2)^nu / Gamma(nu + 1) has a pole at 0.
    assert log_bessel_iv_scaled(-0.5, 0.0) == np.inf
    assert _iv(-0.5, 0.0) == np.inf
    for nu in (-0.5, 0.0, 0.5, 3.0):
        assert bessel_ratio(nu, 0.0) == 0.0


@pytest.mark.parametrize("z", [0.1, 1.0, 10.0, 100.0, 600.0])
def test_half_integer_closed_forms(z):
    # I_{-1/2}(z) = sqrt(2/(pi z)) cosh z and I_{1/2}(z) = sqrt(2/(pi z)) sinh z
    pref = np.sqrt(2.0 / (np.pi * z))
    np.testing.assert_allclose(_iv(-0.5, z), pref * np.cosh(z), rtol=1e-10)
    np.testing.assert_allclose(_iv(0.5, z), pref * np.sinh(z), rtol=1e-10)


def test_half_integer_log_scaled_large_z():
    # Beyond exp overflow, compare ln(e^-z I_nu) against the stable closed form.
    z = 5000.0
    ref = -0.5 * np.log(2.0 * np.pi * z) + np.log1p(np.exp(-2.0 * z))
    np.testing.assert_allclose(log_bessel_iv_scaled(-0.5, z), ref, rtol=1e-12)


@pytest.mark.parametrize("nu", [-0.9, -0.366, 0.0, 0.634, 1.0, 2.5, 7.0])
@pytest.mark.parametrize("z", [1e-3, 0.5, 3.0, 20.0, 80.0, 400.0, 700.0])
def test_against_scipy(nu, z):
    ours = log_bessel_iv_scaled(nu, z)
    ref = np.log(sp.ive(nu, z))
    np.testing.assert_allclose(ours, ref, rtol=1e-10, atol=1e-300)


def test_two_term_asymptotic_reference():
    nu, z = 0.5, 500.0
    ref = -0.5 * np.log(2.0 * np.pi * z) + np.log(1.0 - (4.0 * nu**2 - 1.0) / (8.0 * z))
    np.testing.assert_allclose(log_bessel_iv_scaled(nu, z), ref, rtol=1e-4)


def test_large_argument_no_overflow():
    out = log_bessel_iv_scaled(0.634, 1e4)
    assert np.isfinite(out)
    np.testing.assert_allclose(out, np.log(sp.ive(0.634, 1e4)), rtol=1e-10)


def test_ratio_matches_scipy():
    for nu, z in [(0.0, 0.5), (-0.366, 4.0), (1.5, 60.0), (0.634, 2000.0)]:
        ref = sp.ive(nu + 1, z) / sp.ive(nu, z)
        np.testing.assert_allclose(bessel_ratio(nu, z), ref, rtol=1e-9)


@pytest.mark.parametrize("nu", [-0.99, -0.5, 0.0, 0.634, 4.0, 49.0, 199.0, 400.0])
def test_ratio_against_mpmath(nu):
    # The arguments cross the series/Hankel boundary at z = 50; nu = 199 is
    # the largest order of the grid4 sweep (xi = 0.1, kappa = 4, theta = 0.25).
    zs = np.array([1e-6, 1e-3, 1.0, 20.0, 49.9, 50.0, 120.0, 2e3, 1e5])
    with mpmath.workdps(50):
        ref = [float(mpmath.besseli(nu + 1, z) / mpmath.besseli(nu, z)) for z in zs]
    np.testing.assert_allclose(bessel_ratio(nu, zs), ref, rtol=1e-13)


@pytest.mark.parametrize("nu,z", [(0.634, 1e4), (0.634, 1e6)])
def test_mode_mass_against_mpmath(nu, z):
    # The count sampler takes its mode mass 1 / total from the series pass at
    # every argument, far inside the Hankel region too.
    kstar, total, _ = _peak_sums(nu, np.array([z]))
    k = int(kstar[0])
    with mpmath.workdps(40):
        # nu as an mpf: 2k + nu in doubles would be off by 1e-10 at k = 5e5.
        m, h = mpmath.mpf(nu), mpmath.mpf(z) / 2
        ref = float(h ** (2 * k + m) / (mpmath.factorial(k) * mpmath.gamma(k + m + 1)
                                        * mpmath.besseli(m, z)))
    np.testing.assert_allclose(1.0 / total[0], ref, rtol=1e-13)


def test_series_raises_at_its_term_cap(monkeypatch):
    # At nu = 1000, z = 9e5 the upward pass needs 3,845 terms; a cap of 1000
    # must raise rather than return a truncated sum.
    monkeypatch.setattr(bessel, "_MAX_TERMS", 1000)
    nu, z = 1000.0, 9e5
    with pytest.raises(NumericalError, match="did not converge"):
        log_bessel_iv_scaled(nu, z)
    with pytest.raises(NumericalError, match="did not converge"):
        bessel_ratio(nu, z)
    with pytest.raises(NumericalError, match="did not converge"):
        sample_bessel_rv(nu, np.full(10, z), RngStream(1))


def test_vectorized_argument():
    zs = np.array([0.0, 0.3, 5.0, 75.0, 900.0])
    out = log_bessel_iv_scaled(1.2, zs)
    assert out.shape == zs.shape
    np.testing.assert_allclose(out[1:], np.log(sp.ive(1.2, zs[1:])), rtol=1e-10)


@pytest.mark.parametrize("nu,z", [(-1.0, 1.0), (-2.0, 1.0), (np.inf, 1.0)])
def test_invalid_order(nu, z):
    with pytest.raises(ParameterError):
        log_bessel_iv_scaled(nu, z)


def test_negative_argument_rejected():
    with pytest.raises(ParameterError):
        log_bessel_iv_scaled(0.5, -1.0)


@pytest.mark.parametrize("z", [np.array([1.0, -np.inf]), np.array([1.0, np.inf]),
                               np.array([2.0, np.nan])])
def test_nonfinite_argument_rejected(z):
    with pytest.raises(ParameterError, match="finite and nonnegative"):
        log_bessel_iv_scaled(0.5, z)


@pytest.mark.parametrize("nu", [-0.5, 0.0, 2.5])
def test_zero_argument_inside_arrays(nu):
    # The series pass owns z = 0: h2 = 0 leaves only its k = 0 term.
    z = np.array([0.0, 1e-300, 3.0, 60.0, 2e3])
    out = bessel_ratio(nu, z)
    assert out[0] == 0.0
    np.testing.assert_array_equal(out, [bessel_ratio(nu, x) for x in z])
    kstar, total, shifted = _peak_sums(nu, np.zeros(3), ratio=True)
    np.testing.assert_array_equal(kstar, 0.0)
    np.testing.assert_array_equal(total, 1.0)
    np.testing.assert_array_equal(shifted, 1.0 / (nu + 1.0))


def test_empty_argument():
    assert log_bessel_iv_scaled(0.5, np.array([])).shape == (0,)


@pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 3.0])
def test_underflowed_argument_beside_large_one(nu):
    # At z = 1e-300, (z/2)^2 underflows to 0; the downward series loop must
    # not divide by it while z = 5 in the same array still needs that loop.
    z = np.array([1e-300, 5.0])
    with np.errstate(divide="raise", invalid="raise"):
        out = log_bessel_iv_scaled(nu, z)
    assert out[0] == log_bessel_iv_scaled(nu, z[0])
    assert out[1] == log_bessel_iv_scaled(nu, z[1])
    np.testing.assert_allclose(out[1], np.log(sp.ive(nu, 5.0)), rtol=1e-12)


def test_log_gamma_against_mpmath():
    # Absolute error where |ln Gamma| <= 1 (it vanishes at x = 1 and 2),
    # relative beyond: the spacing of doubles near ln Gamma(1e6) = 1.28e7 is 1.9e-9.
    x = np.concatenate([np.geomspace(1e-10, 1e6, 3000), np.linspace(0.5, 20.0, 1000),
                        [1.0, 2.0, 16.0, np.nextafter(16.0, 0.0)]])
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.loggamma(mpmath.mpf(v))) for v in x])
    err = np.abs(log_gamma(x) - ref)
    assert np.all(err <= 1e-14 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("x", [-np.inf, np.nan, 0.0, -0.5, np.inf])
def test_log_gamma_rejects_non_positive_and_non_finite(x):
    with pytest.raises(ParameterError, match="finite and positive"):
        log_gamma(x)
    with pytest.raises(ParameterError, match="finite and positive"):
        log_gamma(np.array([1.0, x, 3.0]))
