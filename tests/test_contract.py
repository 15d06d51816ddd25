"""Property test of the input contract: every admissible model, config,
maturity and strike ends in a finite estimate or a HestonSimError."""

import math

from hypothesis import given, settings, strategies as st

from hestonsim.errors import HestonSimError
from hestonsim.model import ModelParams
from hestonsim.rng import RngStream
from hestonsim.schemes import SchemeConfig, price_european_cmc

# Every kind, the series kinds with and without explicit terms, and the
# time-discretization kinds with and without their call correction.
_CONFIGS = (
    SchemeConfig("pois_ge"), SchemeConfig("pois_ge", trunc_k=2),
    SchemeConfig("ge"), SchemeConfig("ge", trunc_k=2), SchemeConfig("ig"),
    SchemeConfig("qem", n_steps=8), SchemeConfig("qem", n_steps=8, martingale_mode="price"),
    SchemeConfig("pois_td", n_steps=8),
    SchemeConfig("pois_td", n_steps=8, martingale_mode="price"),
)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


_MODELS = st.builds(
    ModelParams, s0=st.just(100.0), v0=_log_uniform(1e-4, 1.0),
    kappa=_log_uniform(0.01, 10.0), theta=_log_uniform(1e-3, 1.0),
    xi=_log_uniform(0.03, 5.0), rho=st.floats(-0.99, 0.99), r=st.just(0.01),
)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(model=_MODELS, cfg=st.sampled_from(_CONFIGS), T=_log_uniform(0.03, 20.0),
       log_moneyness=st.floats(-1.0, 1.0))
def test_call_price_is_finite_or_a_typed_error(model, cfg, T, log_moneyness):
    strike = model.s0 * math.exp(log_moneyness)
    try:
        est, se = price_european_cmc(model, T, strike, cfg, 2000, RngStream(11))
    except HestonSimError:
        return
    assert math.isfinite(est) and math.isfinite(se)
