import numpy as np
import pytest

from hestonsim.analytic import bs_call_undiscounted, price_european_exact, varswap_strike_discrete
from hestonsim.distributions import sample_terminal_variance
from hestonsim.errors import ConfigurationError, ParameterError, check_array
from hestonsim.harness import ExperimentSpec
from hestonsim.model import (
    ModelParams,
    cond_laplace_bk,
    cond_laplace_pois,
    eta_moments,
    iv_moments_bessel,
    iv_moments_pois,
    terminal_variance_moments,
)
from hestonsim.presets import CASE_PRESETS
from hestonsim.rng import RngStream
from hestonsim.schemes import (
    SchemeConfig,
    cond_forward,
    price_european_cmc,
    reconstruct_spot,
    sample_log_return,
    simulate_multifactor_terminal,
    simulate_terminal,
    varswap_fair_strike_mc,
)


def test_check_array_returns_float_array():
    out = check_array(ParameterError, "x", [0, 1, 2])
    assert out.dtype == float and out.tolist() == [0.0, 1.0, 2.0]
    x = np.array([0.5, 2.0])
    assert check_array(ParameterError, "x", x, positive=True) is x
    assert check_array(ParameterError, "x", np.array([])).shape == (0,)


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf, -1e-300, [1.0, np.nan], [np.inf, 1.0]])
def test_check_array_rejects_nonfinite_and_negative(x):
    with pytest.raises(ConfigurationError, match="^x must be finite and nonnegative$"):
        check_array(ConfigurationError, "x", x)


def test_check_array_positive_rejects_zero():
    assert check_array(ParameterError, "x", 0.0).shape == ()
    with pytest.raises(ParameterError, match="^x must be finite and positive$"):
        check_array(ParameterError, "x", [1.0, 0.0], positive=True)


_M = CASE_PRESETS["III"].model


def _pair(x):
    return np.array([0.02, x])


# Each array argument checked by check_array, with a value below its range.
_SITES = {
    "terminal-variance-v0": (lambda x: sample_terminal_variance(_pair(x), 1.0, _M, RngStream(1)),
                             -1.0),
    "terminal-moments-v0": (lambda x: terminal_variance_moments(_pair(x), 1.0, _M), -1.0),
    "eta-v0": (lambda x: eta_moments(_pair(x), 0.02, _M, 1.0), -1.0),
    "eta-v-t": (lambda x: eta_moments(0.02, _pair(x), _M, 1.0), -1.0),
    "bessel-moments-v0": (lambda x: iv_moments_bessel(_pair(x), 0.02, _M, 1.0), -1.0),
    "bessel-moments-v-t": (lambda x: iv_moments_bessel(0.02, _pair(x), _M, 1.0), -1.0),
    "pois-moments-v0": (lambda x: iv_moments_pois(_pair(x), 0.02, 1, _M, 1.0), -1.0),
    "pois-moments-v-t": (lambda x: iv_moments_pois(0.02, _pair(x), 1, _M, 1.0), -1.0),
    "pois-moments-mu": (lambda x: iv_moments_pois(0.02, 0.02, _pair(x), _M, 1.0), -1.0),
    "laplace-pois-u": (lambda x: cond_laplace_pois(_pair(x), 0.02, 0.02, 1, _M, 1.0), -1.0),
    "laplace-pois-v0": (lambda x: cond_laplace_pois(0.5, _pair(x), 0.02, 1, _M, 1.0), -1.0),
    "laplace-pois-v-t": (lambda x: cond_laplace_pois(0.5, 0.02, _pair(x), 1, _M, 1.0), -1.0),
    "laplace-pois-mu": (lambda x: cond_laplace_pois(0.5, 0.02, 0.02, _pair(x), _M, 1.0), -1.0),
    "laplace-bk-u": (lambda x: cond_laplace_bk(_pair(x), 0.02, 0.02, _M, 1.0), -1.0),
    "laplace-bk-v0": (lambda x: cond_laplace_bk(0.5, _pair(x), 0.02, _M, 1.0), -1.0),
    "laplace-bk-v-t": (lambda x: cond_laplace_bk(0.5, 0.02, _pair(x), _M, 1.0), -1.0),
    "log-return-v0": (lambda x: sample_log_return(_pair(x), 0.02, 0.02, 1.0, _M, 0.0), -1.0),
    "log-return-v-next": (lambda x: sample_log_return(0.02, _pair(x), 0.02, 1.0, _M, 0.0), -1.0),
    "log-return-iv": (lambda x: sample_log_return(0.02, 0.02, _pair(x), 1.0, _M, 0.0), -1.0),
    "forward-v0": (lambda x: cond_forward(_M.s0, _pair(x), 0.02, 0.02, 1.0, _M), -1.0),
    "forward-v-next": (lambda x: cond_forward(_M.s0, 0.02, _pair(x), 0.02, 1.0, _M), -1.0),
    "forward-iv": (lambda x: cond_forward(_M.s0, 0.02, 0.02, _pair(x), 1.0, _M), -1.0),
    "bs-forward": (lambda x: bs_call_undiscounted(_pair(x), 0.2, 1.0, 100.0), 0.0),
    "bs-sigma": (lambda x: bs_call_undiscounted(100.0, _pair(x), 1.0, 100.0), -0.1),
    "bs-strike": (lambda x: bs_call_undiscounted(100.0, 0.2, 1.0, _pair(x)), 0.0),
}


@pytest.mark.parametrize("site", sorted(_SITES))
@pytest.mark.parametrize("bad", ["inf", "out-of-range"])
def test_array_argument_rejects_inf_and_out_of_range(site, bad):
    call, low = _SITES[site]
    with pytest.raises(ParameterError, match="must be finite and"):
        call(np.inf if bad == "inf" else low)


_FIELDS = dict(s0=100.0, v0=0.04, kappa=1.0, theta=0.04, xi=0.5, rho=-0.5, r=0.01, q=0.02)
_SPEC = dict(case_label="III", model=CASE_PRESETS["III"].model, maturity=1.0,
             product="european_call", configs=(SchemeConfig("pois_ge"),), n_paths=100,
             n_reps=1, seed=0, strike=100.0)
_CALL = SchemeConfig("pois_ge")
_SWAP = SchemeConfig("pois_td", n_steps=2, martingale_mode="return_variance")
# Each public driver and oracle argument that takes one scalar T, strike or h,
# with an admissible value.
_DRIVER_SCALARS = {
    "cmc-T": (lambda x: price_european_cmc(_M, x, 100.0, _CALL, 2, RngStream(1)), 1.0),
    "cmc-strike": (lambda x: price_european_cmc(_M, 1.0, x, _CALL, 2, RngStream(1)), 100.0),
    "spot-T": (lambda x: reconstruct_spot(_M, x, _CALL, 2, RngStream(1)), 1.0),
    "terminal-T": (lambda x: simulate_terminal(_M, x, _CALL, 2, RngStream(1)), 1.0),
    "varswap-mc-T": (lambda x: varswap_fair_strike_mc(_M, x, 2, _SWAP, 2, RngStream(1)), 1.0),
    "multifactor-T": (lambda x: simulate_multifactor_terminal([_M], x, 0, 2, RngStream(1)), 1.0),
    "exact-T": (lambda x: price_european_exact(_M, x, 100.0), 1.0),
    "exact-strike": (lambda x: price_european_exact(_M, 1.0, x), 100.0),
    "varswap-discrete-T": (lambda x: varswap_strike_discrete(_M, x, 0.25), 1.0),
    "varswap-discrete-h": (lambda x: varswap_strike_discrete(_M, 1.0, x), 0.25),
}


def _scalar_site(name):
    """The call that takes ``name``'s value alone, and the error type it raises."""
    if name in _FIELDS:
        return (lambda x: ModelParams(**{**_FIELDS, name: x})), ParameterError
    if name in _SPEC:
        return (lambda x: ExperimentSpec(**{**_SPEC, name: x})), ConfigurationError
    return _DRIVER_SCALARS[name][0], ParameterError


@pytest.mark.parametrize("name", [*_FIELDS, "maturity", "strike", *_DRIVER_SCALARS])
def test_array_valued_scalar_raises_typed_error(name):
    # Every element is admissible, so only the shape is at fault; a numpy
    # scalar and a 0-d array pass.
    make, error = _scalar_site(name)
    value = {**_FIELDS, **_SPEC, **{k: v for k, (_, v) in _DRIVER_SCALARS.items()}}[name]
    with pytest.raises(error, match=r"must be a scalar, got shape \(2,\)$"):
        make(value * np.array([1.0, 0.9]))
    make(np.float64(value))
    make(np.array(value))


@pytest.mark.parametrize("name,value", [("s0", "100"), ("rho", "0.5"), ("r", "0.01"),
                                        ("maturity", "1"), ("strike", "100"),
                                        *((k, str(v)) for k, (_, v) in _DRIVER_SCALARS.items())])
def test_non_real_scalar_raises_typed_error(name, value):
    # A string converts to a number for the range check alone, so it must be
    # refused first: s0 = '100' was kept as a string and priced, and so was a
    # call driver's strike.
    make, error = _scalar_site(name)
    with pytest.raises(error, match=f"must be a real number, got '{value}'$"):
        make(value)
    make(float(value))
