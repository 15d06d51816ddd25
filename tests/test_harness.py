from dataclasses import replace

import numpy as np
import pytest

from hestonsim import harness
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
        dict(n_paths=100.5),
        dict(n_reps=2.5),
        dict(n_jobs=1.5),
        dict(strike=float("nan")),
        dict(maturity=float("nan")),
        dict(strike=float("inf")),
        dict(maturity=float("inf")),
        dict(seed=1.7),
        dict(seed="3"),
        dict(seed=-1),
        dict(configs=(SchemeConfig("pois_td", n_steps=4, martingale_mode="return_variance"),)),
        dict(configs=(SchemeConfig("pois_ge"),
                      SchemeConfig("pois_td", n_steps=4, martingale_mode="return_variance"))),
        dict(n_periods=4),
        dict(n_periods=0),
    ],
)
def test_spec_validation_calls(overrides):
    with pytest.raises(ConfigurationError):
        _call_spec(**overrides)


def test_call_spec_rejects_varswap_only_settings_by_name():
    # The spec reports the error that simulate_terminal would raise later.
    cfg = SchemeConfig("pois_td", n_steps=4, martingale_mode="return_variance")
    with pytest.raises(ConfigurationError,
                       match="^the return-variance correction applies only to variance swaps$"):
        _call_spec(configs=(cfg,))
    with pytest.raises(ConfigurationError, match="^n_periods applies only to variance swaps$"):
        _call_spec(n_periods=4)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(n_periods=None),
        dict(benchmark="fourier"),
        dict(configs=(SchemeConfig("pois_ge", n_steps=4),)),
        dict(configs=(SchemeConfig("qem", n_steps=2),)),
        dict(n_periods="4"),
        dict(n_periods=4.0),
        dict(n_periods=0),
        dict(strike=123.0),
        dict(configs=(SchemeConfig("pois_td", n_steps=4, martingale_mode="price"),)),
    ],
)
def test_spec_validation_varswaps(overrides):
    with pytest.raises(ConfigurationError):
        _varswap_spec(**overrides)


# The benchmarks each product accepts; every other pair is refused.
_BENCHMARK_POLICY = {
    "european_call": {"fourier": True, "varswap_closed_form": False, "none": True,
                      "oracle": False},
    "variance_swap": {"fourier": False, "varswap_closed_form": True, "none": True,
                      "oracle": False},
    "swaption": {"fourier": False, "varswap_closed_form": False, "none": False,
                 "oracle": False},
}


@pytest.mark.parametrize("product,source,accepted", [
    (product, source, accepted)
    for product, row in _BENCHMARK_POLICY.items() for source, accepted in row.items()
])
def test_benchmark_policy(product, source, accepted):
    # ``source``, not ``benchmark``: pytest-benchmark owns that fixture name.
    make = _varswap_spec if product == "variance_swap" else _call_spec
    if accepted:
        assert make(product=product, benchmark=source).benchmark == source
    else:
        with pytest.raises(ConfigurationError):
            make(product=product, benchmark=source)


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
    configs = (SchemeConfig("pois_ge", trunc_k=1), SchemeConfig("ig"))
    a = run_experiment(_call_spec(n_reps=4, configs=configs))
    b = run_experiment(_call_spec(n_reps=4, configs=configs))
    c = run_experiment(_call_spec(n_reps=4, configs=configs, n_jobs=2))
    for i in range(2):
        assert a.rows[i].rep_estimates == b.rows[i].rep_estimates
        assert a.rows[i].rep_estimates == c.rows[i].rep_estimates


def test_run_experiment_runs_repetition_major(monkeypatch):
    keys = []
    real = harness.price_european_cmc

    def record(model, T, strike, cfg, n_paths, rng):
        keys.append(rng.key)
        return real(model, T, strike, cfg, n_paths, rng)

    monkeypatch.setattr(harness, "price_european_cmc", record)
    run_experiment(_call_spec(configs=(SchemeConfig("pois_ge"), SchemeConfig("ig")), n_paths=100))
    assert keys == [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]


def test_configs_use_distinct_substreams():
    spec = _call_spec(configs=(SchemeConfig("pois_ge", trunc_k=1),
                               SchemeConfig("pois_ge", trunc_k=1)))
    res = run_experiment(spec)
    assert res.rows[0].rep_estimates != res.rows[1].rep_estimates


def test_csv_round_trip_lossless():
    call = _call_spec(configs=(SchemeConfig("pois_ge", trunc_k=2),
                               SchemeConfig("qem", n_steps=4, martingale_mode="price")))
    results = [run_experiment(call), run_experiment(_varswap_spec(benchmark="none"))]
    text = emit_table(results, "csv")
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    back = parse_table_csv(text)
    orig = [row for res in results for row in res.rows]
    # Every field but the per-repetition estimates, which CSV does not carry.
    assert back == [replace(row, rep_estimates=[]) for row in orig]
    # truncation level is only meaningful for the series schemes
    assert [row.trunc_k for row in back] == [2, None, None]
    assert back[2].benchmark is None and back[2].bias is None


def test_markdown_rendering():
    res = run_experiment(_varswap_spec())
    text = emit_table([res], "markdown")
    assert "| Scheme | N | K | Estimate | Bias | SE | Time (sec) |" in text
    assert "POIS-TD" in text
    assert "(x 1e-2)" in text
    ref = 100 * res.rows[0].benchmark
    assert f"benchmark {ref:.3f}" in text


def test_markdown_call_table_not_scaled():
    res = run_experiment(_call_spec(n_paths=200, n_reps=2))
    text = emit_table([res], "md")
    assert "(x 1e-2)" not in text
    assert f"| {res.rows[0].estimate:.3f} " in text


def test_emit_table_rejects_unknown_format():
    res = run_experiment(_call_spec(n_paths=50, n_reps=1))
    with pytest.raises(ConfigurationError):
        emit_table([res], "html")




def test_emit_table_several_experiments():
    results = [run_experiment(_call_spec(n_paths=50, n_reps=1)),
               run_experiment(_varswap_spec(n_paths=50, n_reps=1))]
    text = emit_table(results, "csv")
    assert text.splitlines().count(",".join(CSV_COLUMNS)) == 1
    assert [r.scheme for r in parse_table_csv(text)] == ["POIS-GE", "POIS-TD"]
    md = emit_table(results, "md")
    assert md.count("| Scheme | N | K |") == 2 and "(x 1e-2)" in md
    with pytest.raises(ConfigurationError):
        emit_table([], "csv")
