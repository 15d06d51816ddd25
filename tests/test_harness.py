import numpy as np
import pytest

from hestonsim.errors import ConfigurationError
from hestonsim.harness import (
    CSV_COLUMNS,
    ExperimentSpec,
    compute_benchmark,
    emit_table,
    parse_table_csv,
    run_experiment,
)
from hestonsim.analytic import price_european_exact, varswap_strike_discrete
from hestonsim.presets import CASE_PRESETS
from hestonsim.schemes import SchemeConfig


def _call_spec(**overrides):
    preset = CASE_PRESETS["IV"]
    base = dict(
        case_label="IV",
        model=preset.model,
        maturity=preset.maturity,
        product="european_call",
        configs=(SchemeConfig("pois_ge", trunc_k=1),),
        n_paths=2000,
        n_reps=3,
        seed=7,
        strike=preset.strike,
        benchmark="fourier",
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def _varswap_spec(**overrides):
    preset = CASE_PRESETS["IV"]
    base = dict(
        case_label="IV",
        model=preset.model,
        maturity=preset.maturity,
        product="variance_swap",
        configs=(SchemeConfig("pois_td", n_steps=4, martingale_mode="return_variance"),),
        n_paths=2000,
        n_reps=2,
        seed=7,
        n_periods=4,
        benchmark="varswap_closed_form",
    )
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(product="swaption"),
        dict(benchmark="oracle"),
        dict(n_paths=0),
        dict(n_reps=0),
        dict(maturity=0.0),
        dict(configs=()),
        dict(n_jobs=0),
        dict(strike=None),
        dict(strike=-5.0),
        dict(benchmark="varswap_closed_form"),
    ],
)
def test_spec_validation_calls(overrides):
    with pytest.raises(ConfigurationError):
        _call_spec(**overrides)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(n_periods=None),
        dict(benchmark="fourier"),
        dict(configs=(SchemeConfig("pois_ge", n_steps=4),)),
        dict(configs=(SchemeConfig("qem", n_steps=2),)),
    ],
)
def test_spec_validation_varswaps(overrides):
    with pytest.raises(ConfigurationError):
        _varswap_spec(**overrides)


def test_compute_benchmark_sources():
    call = _call_spec()
    preset = CASE_PRESETS["IV"]
    assert compute_benchmark(call) == pytest.approx(
        price_european_exact(preset.model, preset.maturity, preset.strike)
    )
    swap = _varswap_spec()
    assert compute_benchmark(swap) == pytest.approx(
        varswap_strike_discrete(preset.model, preset.maturity, preset.maturity / 4)
    )
    assert compute_benchmark(_call_spec(benchmark="none")) is None


def test_run_experiment_row_contents():
    res = run_experiment(_call_spec())
    assert len(res.rows) == 1
    row = res.rows[0]
    assert row.scheme == "POIS-GE"
    assert row.trunc_k == 1 and row.n_steps == 1
    assert len(row.rep_estimates) == 3
    assert row.estimate == pytest.approx(np.mean(row.rep_estimates))
    assert row.se == pytest.approx(np.std(row.rep_estimates))
    assert row.bias == pytest.approx(row.estimate - row.benchmark)
    assert row.wall_seconds > 0


def test_single_rep_has_zero_se():
    res = run_experiment(_call_spec(n_reps=1, n_paths=50))
    assert res.rows[0].se == 0.0
    assert res.rows[0].wall_seconds > 0


def test_run_experiment_deterministic_and_jobs_invariant():
    a = run_experiment(_call_spec(n_reps=4))
    b = run_experiment(_call_spec(n_reps=4))
    c = run_experiment(_call_spec(n_reps=4, n_jobs=2))
    assert a.rows[0].rep_estimates == b.rows[0].rep_estimates
    assert a.rows[0].rep_estimates == c.rows[0].rep_estimates


def test_configs_use_distinct_substreams():
    spec = _call_spec(configs=(SchemeConfig("pois_ge", trunc_k=1),
                               SchemeConfig("pois_ge", trunc_k=1)))
    res = run_experiment(spec)
    assert res.rows[0].rep_estimates != res.rows[1].rep_estimates


def test_csv_round_trip_lossless():
    spec = _call_spec(configs=(SchemeConfig("pois_ge", trunc_k=2),
                               SchemeConfig("qem", n_steps=4, martingale_mode="price")))
    res = run_experiment(spec)
    text = emit_table(res, "csv")
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    back = parse_table_csv(text)
    assert len(back) == 2
    for orig, rec in zip(res.rows, back):
        assert rec.case == orig.case and rec.scheme == orig.scheme
        assert rec.estimate == orig.estimate
        assert rec.benchmark == orig.benchmark
        assert rec.bias == orig.bias
        assert rec.se == orig.se
        assert rec.wall_seconds == orig.wall_seconds
    # truncation level is only meaningful for the series schemes
    assert back[0].trunc_k == 2 and back[1].trunc_k is None


def test_markdown_rendering():
    res = run_experiment(_varswap_spec())
    text = emit_table(res, "markdown")
    assert "| Scheme | N | K | Estimate | Bias | SE | Time (sec) |" in text
    assert "POIS-TD" in text
    assert "(x 1e-2)" in text
    ref = 100 * res.rows[0].benchmark
    assert f"benchmark {ref:.3f}" in text


def test_markdown_call_table_not_scaled():
    res = run_experiment(_call_spec(n_paths=200, n_reps=2))
    text = emit_table(res, "md")
    assert "(x 1e-2)" not in text
    assert f"| {res.rows[0].estimate:.3f} " in text


def test_emit_table_rejects_unknown_format():
    res = run_experiment(_call_spec(n_paths=50, n_reps=1))
    with pytest.raises(ConfigurationError):
        emit_table(res, "html")


