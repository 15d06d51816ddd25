"""Tests of the benchmark itself.  Run: python -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads
from hestonsim import harness, schemes
from hestonsim.errors import ParameterError
from hestonsim.harness import ExperimentSpec
from hestonsim.presets import CASE_PRESETS
from hestonsim.schemes import SchemeConfig

ROOT = Path(__file__).resolve().parent.parent


def _tiny_grid(configs):
    base = CASE_PRESETS["IV"]
    return workloads.GridSweep([workloads.GridPoint(base.model, 110.0, "IV[tiny]")],
                               tuple(configs), base.maturity, n_paths=300, n_reps=2)


def test_self_time_subtracts_union_of_child_intervals():
    spans = [
        tracing.Span(1, None, "parent", 0.0, 10.0, 1),
        tracing.Span(2, 1, "a", 1.0, 3.0, 1),
        tracing.Span(3, 1, "b", 2.0, 5.0, 1),   # overlaps a (another thread)
        tracing.Span(4, 1, "c", 7.0, 8.0, 1),
        tracing.Span(5, 1, "d", 9.0, 12.0, 1),  # runs past the parent's end
        tracing.Span(6, 2, "e", 1.5, 2.5, 1),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - (4.0 + 1.0 + 1.0))
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(3.0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    emitted = tracing.layer_metrics([], n_jobs=1, overhead_share=0.0, defect_configs=0)
    assert list(emitted) == [name for name, _, _ in tracing.PER_LAYER]


def test_injected_parameter_error_is_counted_not_fatal(monkeypatch):
    real = schemes.price_european_cmc

    def flaky(model, T, strike, cfg, n_paths, rng):
        if cfg.kind == "ig":
            raise ParameterError("injected")
        return real(model, T, strike, cfg, n_paths, rng)

    monkeypatch.setattr(schemes, "price_european_cmc", flaky)
    wl = workloads.DriverCalls([workloads.Call("III", SchemeConfig("pois_ge"), 500),
                                workloads.Call("III", SchemeConfig("ig"), 500)])
    ops, times, paths = run.run_cycles(wl, seed=3, seconds=0)
    assert [op.raised for op in ops] == [None, "ParameterError"]
    assert [op.failed for op in ops] == [False, True]
    assert paths == [[500], [0]]


def test_grid_failure_is_attributed_to_the_failing_config(monkeypatch):
    real = harness.price_european_cmc

    def flaky(model, T, strike, cfg, n_paths, rng):
        if cfg.kind == "ig":
            raise ParameterError("injected")
        return real(model, T, strike, cfg, n_paths, rng)

    monkeypatch.setattr(harness, "price_european_cmc", flaky)
    grid = _tiny_grid([SchemeConfig("pois_ge"), SchemeConfig("ig"), SchemeConfig("qem", n_steps=2)])
    ops = grid.run_item(0, seed=5, cycle=0)
    assert len(ops) == 6
    assert [op.raised for op in ops if op.failed] == ["ParameterError"] * 2
    assert {op.row for op in ops if op.failed} == {"IV[tiny]/ig K=0 N=1"}
    assert harness.price_european_cmc is flaky


def test_defect_probe_runs_every_config_and_timed_grid_leaves_its_point_out():
    ops = workloads.defect_probe(seed=2)
    assert len(ops) == len(workloads.GRID_CONFIGS) * 2
    assert len({op.row for op in ops}) == len(workloads.GRID_CONFIGS)
    xi, kappa = workloads.DEFECT_XI_KAPPA
    assert all((p.model.xi, p.model.kappa) != (xi, kappa)
               for p in workloads.grid_sweep().items)


def test_row_check_marks_its_ops_failed():
    ops = [workloads.Op("r", 0, "call", 100, est=10.5, se=0.1),
           workloads.Op("r", 1, "call", 100, est=10.4, se=0.1)]
    refs = {"r": workloads.RowRef(oracle=10.0, expected_bias=0.0)}
    (summary,) = workloads.check_rows(refs, ops)
    assert summary["check"] == "FAIL"
    assert all(op.bad == "row check" for op in ops)
    refs = {"r": workloads.RowRef(oracle=10.0, expected_bias=0.45)}
    ops = [workloads.Op("r", 0, "call", 100, est=10.5, se=0.1)]
    assert workloads.check_rows(refs, ops)[0]["check"] == "pass"


def test_call_bounds_check():
    model = CASE_PRESETS["III"].model
    assert workloads.check_call(model, 1.0, 100.0, 6.8, 0.02) is None
    assert workloads.check_call(model, 1.0, 100.0, 1.0, 0.02) == "outside no-arbitrage bounds"
    assert workloads.check_call(model, 1.0, 100.0, float("nan"), 0.02) == "non-finite"
    assert workloads.check_varswap(-0.1, 0.01) == "nonpositive strike"


def test_traced_cycle_counts_draws_exactly_and_keeps_estimates():
    wl = workloads.DriverCalls([workloads.Call("I", SchemeConfig("pois_td", n_steps=2), 300)])
    plain, _, _ = run.run_cycles(wl, seed=7, seconds=0)
    tracer = tracing.Tracer()
    with tracer.active():
        traced, _, _ = run.run_cycles(wl, seed=7, seconds=0)
    assert schemes.step_pois_td.__name__ == "step_pois_td"  # restored
    assert run.digest(traced) == run.digest(plain)
    m = tracing.layer_metrics(tracer.spans, n_jobs=1, overhead_share=0.0, defect_configs=0)
    assert m["distributions.sample_terminal_variance.draws"] == 600
    assert m["distributions.sample_poisson.draws"] == 600
    assert m["bessel.log_bessel_iv_scaled.evals"] == 0
    assert m["schemes.simulate_terminal.calls"] == 1
    assert m["schemes.simulate_terminal.distinct_share"] == 1.0
    names = {s.sid: s.name for s in tracer.spans}
    for s in tracer.spans:
        if s.name == "distributions.sample_poisson":
            assert names[s.parent] == "distributions.sample_terminal_variance"


def test_traced_run_pairs_each_cycle_and_keeps_the_spans_of_cycle_0():
    wl = workloads.DriverCalls([workloads.Call("III", SchemeConfig("pois_ge"), 300)])
    ops, spans, overhead, pairs, agree = run.traced_run(wl, seed=4, seconds=0)
    assert (pairs, agree) == (1, True)
    assert [op.cycle for op in ops] == [0, 0]
    assert {s.name for s in spans} >= {"schemes.price_european_cmc"}
    later, _, _ = run.run_cycles(wl, seed=4, seconds=0, first_cycle=1)
    assert [op.cycle for op in later] == [1]
    assert later[0].est != ops[0].est


def test_worker_thread_spans_nest_under_run_experiment():
    base = CASE_PRESETS["IV"]
    spec = ExperimentSpec(case_label="IV", model=base.model, maturity=base.maturity,
                          product="european_call",
                          configs=(SchemeConfig("pois_ge"), SchemeConfig("qem", n_steps=2)),
                          n_paths=300, n_reps=2, seed=1, strike=110.0, benchmark="fourier",
                          n_jobs=2)
    tracer = tracing.Tracer()
    with tracer.active():
        harness.run_experiment(spec)
    names = {s.sid: s.name for s in tracer.spans}
    ops = [s for s in tracer.spans if s.name == "schemes.price_european_cmc"]
    assert len(ops) == 4
    assert all(names[s.parent] == "harness.run_experiment" for s in ops)
    m = tracing.layer_metrics(tracer.spans, n_jobs=2, overhead_share=0.0, defect_configs=0)
    assert m["harness.run_experiment.calls"] == 1
    assert 0.0 < m["harness.thread_efficiency"] <= 1.0


def test_run_refuses_without_package_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact_one_step",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
