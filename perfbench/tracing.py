"""In-memory span tracer for the benchmark's traced mode.

The tracer wraps the module-level names that hestonsim's modules look up at
call time (for example ``hestonsim.schemes.sample_poisson``), so each call
into a layer becomes a span without any change to the package source.  Spans
stay in memory until the run ends; :func:`layer_metrics` then reduces them to
the per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

SAMPLERS = ("sample_poisson", "sample_std_gamma", "sample_invgauss",
            "sample_terminal_variance", "sample_bessel_rv")
STEP_KERNELS = ("step_pois_ge", "step_ge", "step_ig", "step_qem", "step_pois_td")
IV_MOMENTS = ("iv_moments_pois", "iv_moments_truncated", "iv_moments_bessel")
DRIVERS = ("price_european_cmc", "varswap_fair_strike_mc")

#: Per-layer metrics in ``BENCHMARK.json`` order: (name, unit, better).
PER_LAYER = (
    *[m for s in SAMPLERS for m in ((f"distributions.{s}.draws", "count", "lower"),
                                    (f"distributions.{s}.ns_per_draw", "ns", "lower"))],
    ("bessel.log_bessel_iv_scaled.evals", "count", "lower"),
    ("bessel.log_bessel_iv_scaled.ns_per_eval", "ns", "lower"),
    *[m for k in STEP_KERNELS for m in ((f"schemes.{k}.ns_per_path_step", "ns", "lower"),
                                        (f"schemes.{k}.self_share", "share", "lower"))],
    *[(f"schemes.{d}.paths_per_s", "paths/s", "higher") for d in DRIVERS],
    ("schemes.simulate_terminal.calls", "count", "lower"),
    ("schemes.simulate_terminal.distinct_share", "share", "higher"),
    ("model.series_coeffs.calls", "count", "lower"),
    ("model.series_coeffs.busy_s", "s", "lower"),
    *[(f"model.{m}.ns_per_path", "ns", "lower") for m in IV_MOMENTS],
    ("analytic.price_european_exact.calls", "count", "lower"),
    ("analytic.price_european_exact.busy_s", "s", "lower"),
    ("analytic.bs_call_undiscounted.ns_per_path", "ns", "lower"),
    ("analytic.varswap_strike_discrete.busy_s", "s", "lower"),
    ("rng.RngStream.calls", "count", "lower"),
    ("rng.RngStream.busy_s", "s", "lower"),
    ("harness.run_experiment.calls", "count", "lower"),
    ("harness.run_experiment.elapsed_s", "s", "lower"),
    ("harness.thread_efficiency", "share", "higher"),
    ("trace.overhead_share", "share", "lower"),
    ("harness.defect_probe.failed_configs", "count", "lower"),
)


def _result_size(args, kwargs, result):
    return int(np.size(result))


def _first_size(args, kwargs, result):
    return int(np.size(result[0]))


def _step_paths(args, kwargs, result):
    return int(np.size(result.v_next))


def _moment_paths(args, kwargs, result):
    return int(np.size(result.mean))


def _one(args, kwargs, result):
    return 1


def _n_paths(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs, result: int(sig.bind(*args, **kwargs).arguments["n_paths"])


def _simulation_key(fn):
    """Identity of a ``simulate_terminal`` call: equal keys simulate equal paths."""
    sig = inspect.signature(fn)

    def key(args, kwargs):
        a = sig.bind(*args, **kwargs).arguments
        return (a["model"], a["T"], a["cfg"], a["n_paths"], a["rng"].seed, a["rng"].key)
    return key


def _wraps():
    """(span name, modules whose global is replaced, count, key) for every traced name.

    A module appears in the list when it looks the name up itself, so nested
    calls (``sample_terminal_variance`` -> ``sample_poisson``) are seen too.
    """
    from hestonsim import schemes

    return (
        ("distributions.sample_poisson", ("schemes", "distributions"), _result_size, None),
        ("distributions.sample_std_gamma", ("schemes", "distributions"), _result_size, None),
        ("distributions.sample_invgauss", ("schemes",), _result_size, None),
        ("distributions.sample_terminal_variance", ("schemes",), _first_size, None),
        ("distributions.sample_bessel_rv", ("schemes",), _result_size, None),
        ("bessel.log_bessel_iv_scaled", ("bessel", "distributions", "model"), _result_size, None),
        ("model.series_coeffs", ("schemes",), _one, None),
        ("model.iv_moments_pois", ("schemes", "model"), _moment_paths, None),
        ("model.iv_moments_truncated", ("schemes",), _moment_paths, None),
        ("model.iv_moments_bessel", ("schemes",), _moment_paths, None),
        ("analytic.price_european_exact", ("harness",), _one, None),
        ("analytic.bs_call_undiscounted", ("schemes",), _result_size, None),
        ("analytic.varswap_strike_discrete", ("harness",), _one, None),
        ("rng.RngStream", ("rng", "harness"), _one, None),
        *((f"schemes.{k}", ("schemes",), _step_paths, None) for k in STEP_KERNELS),
        ("schemes.simulate_terminal", ("schemes",), _n_paths(schemes.simulate_terminal),
         _simulation_key(schemes.simulate_terminal)),
        ("schemes.price_european_cmc", ("schemes", "harness"),
         _n_paths(schemes.price_european_cmc), None),
        ("schemes.varswap_fair_strike_mc", ("schemes", "harness"),
         _n_paths(schemes.varswap_fair_strike_mc), None),
        ("harness.run_experiment", ("harness",), _one, None),
    )


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    name: str
    t0: float
    t1: float
    count: int
    key: object = None


class Tracer:
    """Collects spans from wrapped hestonsim names while :meth:`active`.

    Each thread keeps its own stack of open spans.  A worker thread whose
    stack is empty (the harness's thread pool) takes the innermost open span
    of the thread that activated the tracer as its parent, so spans from
    worker threads nest under the ``run_experiment`` call that spawned them.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, count, key=None):
        """Return ``fn`` wrapped so that each call records one span."""
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                root = self._root_stack
                parent = root[-1] if root and root is not stack else None
            sid = next(self._ids)
            span_key = key(args, kwargs) if key else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, parent, name, t0, t1, 0, span_key))
                raise
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, t0, t1, count(args, kwargs, result),
                                   span_key))
            return result
        return traced

    @contextmanager
    def active(self):
        """Replace every traced name with its wrapper; restore them on exit."""
        self._root_stack = self._stack()
        patched = []
        try:
            for name, modules, count, key in _wraps():
                attr = name.split(".")[1]
                for modname in modules:
                    mod = importlib.import_module(f"hestonsim.{modname}")
                    old = getattr(mod, attr)
                    setattr(mod, attr, self.wrap(name, old, count, key))
                    patched.append((mod, attr, old))
            yield self
        finally:
            for mod, attr, old in reversed(patched):
                setattr(mod, attr, old)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover.

    Children from several worker threads may overlap; the covered time is the
    length of the union of their intervals, clipped to the parent's.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered = 0.0
        end = s.t0
        for a, b in sorted(children.get(s.sid, ())):
            lo, hi = max(a, end), min(b, s.t1)
            if hi > lo:
                covered += hi - lo
            end = max(end, hi)
        out[s.sid] = (s.t1 - s.t0) - covered
    return out


def _ratio(num: float, den: float) -> float:
    # A layer that did no work reports 0 rather than an undefined ratio.
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], n_jobs: int, overhead_share: float,
                  defect_configs: int) -> dict[str, float]:
    """Reduce the spans of one traced pass to the ``PER_LAYER`` metrics.

    ``defect_configs`` is the number of grid configs that fail in the run's
    defect probe, which is not traced.
    """
    selfs = self_times(spans)
    names = {s.sid: s.name for s in spans}
    calls = defaultdict(int)
    busy = defaultdict(float)
    own = defaultdict(float)
    count = defaultdict(int)
    for s in spans:
        calls[s.name] += 1
        busy[s.name] += s.t1 - s.t0
        own[s.name] += selfs[s.sid]
        count[s.name] += s.count

    m = {}
    for name in SAMPLERS:
        n = f"distributions.{name}"
        m[f"{n}.draws"] = count[n]
        m[f"{n}.ns_per_draw"] = _ratio(1e9 * busy[n], count[n])
    n = "bessel.log_bessel_iv_scaled"
    m[f"{n}.evals"] = count[n]
    m[f"{n}.ns_per_eval"] = _ratio(1e9 * busy[n], count[n])
    for name in STEP_KERNELS:
        n = f"schemes.{name}"
        m[f"{n}.ns_per_path_step"] = _ratio(1e9 * busy[n], count[n])
        m[f"{n}.self_share"] = _ratio(own[n], busy[n])
    for name in DRIVERS:
        n = f"schemes.{name}"
        m[f"{n}.paths_per_s"] = _ratio(count[n], busy[n])
    n = "schemes.simulate_terminal"
    keys = [s.key for s in spans if s.name == n]
    m[f"{n}.calls"] = calls[n]
    m[f"{n}.distinct_share"] = _ratio(len(set(keys)), len(keys))
    m["model.series_coeffs.calls"] = calls["model.series_coeffs"]
    m["model.series_coeffs.busy_s"] = busy["model.series_coeffs"]
    for name in IV_MOMENTS:
        n = f"model.{name}"
        m[f"{n}.ns_per_path"] = _ratio(1e9 * busy[n], count[n])
    m["analytic.price_european_exact.calls"] = calls["analytic.price_european_exact"]
    m["analytic.price_european_exact.busy_s"] = busy["analytic.price_european_exact"]
    n = "analytic.bs_call_undiscounted"
    m[f"{n}.ns_per_path"] = _ratio(1e9 * busy[n], count[n])
    m["analytic.varswap_strike_discrete.busy_s"] = busy["analytic.varswap_strike_discrete"]
    m["rng.RngStream.calls"] = calls["rng.RngStream"]
    m["rng.RngStream.busy_s"] = busy["rng.RngStream"]
    n = "harness.run_experiment"
    m[f"{n}.calls"] = calls[n]
    m[f"{n}.elapsed_s"] = busy[n]
    # Driver calls made by run_experiment's workers, against the time the
    # experiments took times the workers available to them.
    op_busy = sum(s.t1 - s.t0 for s in spans
                  if s.parent is not None and names.get(s.parent) == n)
    m["harness.thread_efficiency"] = _ratio(op_busy, busy[n] * n_jobs)
    m["trace.overhead_share"] = overhead_share
    m["harness.defect_probe.failed_configs"] = defect_configs
    return m
