"""Monte Carlo simulation engine for the Heston stochastic volatility model.

Exact, low-bias, and time-discretization simulation schemes built on Poisson
conditioning of the variance transition, with closed-form benchmarks and a
bias/standard-error/timing harness.
"""

from .analytic import (
    bs_call_undiscounted,
    heston_charfn,
    heston_charfn_multifactor,
    price_european_exact,
    price_european_exact_multifactor,
    varswap_strike_continuous,
    varswap_strike_discrete,
)
from .errors import (
    ConfigurationError,
    DomainError,
    HestonSimError,
    NumericalError,
    ParameterError,
)
from .harness import (
    ExperimentResult,
    ExperimentSpec,
    ResultRow,
    emit_table,
    parse_table_csv,
    run_experiment,
)
from .model import (
    ModelParams,
    SeriesCoeffs,
    avg_variance_moments,
    cond_laplace_bk,
    cond_laplace_pois,
    iv_moments_bessel,
    iv_moments_pois,
    iv_moments_truncated,
    series_coeffs,
    terminal_variance_moments,
)
from .presets import CASE_PRESETS, CasePreset, get_case
from .rng import RngStream
from .schemes import (
    SchemeConfig,
    StepPlan,
    StepResult,
    cond_forward,
    price_european_cmc,
    reconstruct_spot,
    sample_log_return,
    simulate_multifactor_terminal,
    simulate_terminal,
    step_ge,
    step_ig,
    step_plan,
    step_pois_ge,
    step_pois_td,
    step_qem,
    varswap_fair_strike_mc,
)

__version__ = "1.0.0"

__all__ = [
    "bs_call_undiscounted",
    "heston_charfn",
    "heston_charfn_multifactor",
    "price_european_exact",
    "price_european_exact_multifactor",
    "varswap_strike_continuous",
    "varswap_strike_discrete",
    "ConfigurationError",
    "DomainError",
    "HestonSimError",
    "NumericalError",
    "ParameterError",
    "ExperimentResult",
    "ExperimentSpec",
    "ResultRow",
    "emit_table",
    "parse_table_csv",
    "run_experiment",
    "ModelParams",
    "SeriesCoeffs",
    "avg_variance_moments",
    "cond_laplace_bk",
    "cond_laplace_pois",
    "iv_moments_bessel",
    "iv_moments_pois",
    "iv_moments_truncated",
    "series_coeffs",
    "terminal_variance_moments",
    "CASE_PRESETS",
    "CasePreset",
    "get_case",
    "RngStream",
    "SchemeConfig",
    "StepPlan",
    "StepResult",
    "cond_forward",
    "price_european_cmc",
    "reconstruct_spot",
    "sample_log_return",
    "simulate_multifactor_terminal",
    "simulate_terminal",
    "step_ge",
    "step_ig",
    "step_plan",
    "step_pois_ge",
    "step_pois_td",
    "step_qem",
    "varswap_fair_strike_mc",
]
