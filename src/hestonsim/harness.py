"""Experiment runner: bias, standard error, and wall time per scheme.

The benchmark protocol draws a fixed number of paths per repetition and
repeats the estimator many times; the spread across repetitions gives the
standard error and the mean minus the closed-form benchmark gives the bias.
Results serialize to CSV (lossless round trip) and Markdown (display
precision).
"""

from __future__ import annotations

import csv
import io
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .analytic import price_european_exact, varswap_strike_discrete
from .errors import ConfigurationError, check_array, check_count, check_scalar
from .model import ModelParams
from .rng import RngStream
from .schemes import (
    SERIES_KINDS,
    SchemeConfig,
    check_call_config,
    check_varswap_config,
    price_european_cmc,
    varswap_fair_strike_mc,
)

#: The closed-form benchmark of each product; ``"none"`` runs without one.
BENCHMARK_OF = {"european_call": "fourier", "variance_swap": "varswap_closed_form"}


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a model, a product, and the scheme configs to compare."""

    case_label: str
    model: ModelParams
    maturity: float
    product: str
    configs: tuple[SchemeConfig, ...]
    n_paths: int
    n_reps: int
    seed: int
    strike: Optional[float] = None
    n_periods: Optional[int] = None
    benchmark: str = "none"
    n_jobs: int = 1

    def __post_init__(self):
        if self.product not in BENCHMARK_OF:
            raise ConfigurationError(f"unknown product {self.product!r}")
        if self.benchmark not in ("none", BENCHMARK_OF[self.product]):
            raise ConfigurationError(
                f"benchmark {self.benchmark!r} does not price a {self.product}")
        for count in (self.n_paths, self.n_reps):
            check_count(ConfigurationError, "n_paths and n_reps", count, 1)
        check_scalar(ConfigurationError, "maturity", self.maturity)
        check_array(ConfigurationError, "maturity", self.maturity, positive=True)
        if not self.configs:
            raise ConfigurationError("at least one scheme config is required")
        check_count(ConfigurationError, "n_jobs", self.n_jobs, 1)
        check_count(ConfigurationError, "seed", self.seed, 0)
        if self.product == "european_call":
            # A missing strike, None, converts to NaN and fails too.
            check_scalar(ConfigurationError, "a call's strike", self.strike)
            check_array(ConfigurationError, "a call's strike", self.strike, positive=True)
            if self.n_periods is not None:
                raise ConfigurationError("n_periods applies only to variance swaps")
            for cfg in self.configs:
                check_call_config(cfg)
        elif self.strike is not None:
            raise ConfigurationError("strike applies only to calls")
        else:
            for cfg in self.configs:
                check_varswap_config(cfg, self.n_periods)


@dataclass
class ResultRow:
    """Summary statistics of one scheme config within an experiment."""

    case: str
    scheme: str
    n_steps: int
    trunc_k: Optional[int]
    n_paths: int
    n_reps: int
    estimate: float
    benchmark: Optional[float]
    bias: Optional[float]
    se: float
    wall_seconds: float
    rep_estimates: list[float] = field(default_factory=list, repr=False)


#: The CSV row layout: (header, ``ResultRow`` attribute, cell type), in
#: column order.  Per-repetition estimates are not serialized.
_CSV_LAYOUT = (
    ("case", "case", str), ("scheme", "scheme", str), ("N", "n_steps", int),
    ("K", "trunc_k", int), ("paths", "n_paths", int), ("reps", "n_reps", int),
    ("estimate", "estimate", float), ("benchmark", "benchmark", float),
    ("bias", "bias", float), ("se", "se", float), ("wall_seconds", "wall_seconds", float),
)
CSV_COLUMNS = tuple(header for header, _, _ in _CSV_LAYOUT)
#: Columns whose empty cell stands for ``None``.
_OPTIONAL_COLUMNS = ("K", "benchmark", "bias")


@dataclass
class ExperimentResult:
    """All rows of an experiment, in config order."""

    spec: ExperimentSpec
    rows: list[ResultRow]


def compute_benchmark(spec: ExperimentSpec) -> Optional[float]:
    """Closed-form reference value of the experiment's product, if requested."""
    if spec.benchmark == "none":
        return None
    if spec.benchmark == "fourier":
        return price_european_exact(spec.model, spec.maturity, spec.strike)
    return varswap_strike_discrete(spec.model, spec.maturity, spec.maturity / spec.n_periods)


def _run_one_rep(spec: ExperimentSpec, config_idx: int, rep: int):
    cfg = spec.configs[config_idx]
    rng = RngStream(spec.seed, (config_idx, rep))
    t0 = time.perf_counter()
    if spec.product == "european_call":
        est, _ = price_european_cmc(spec.model, spec.maturity, spec.strike, cfg,
                                    spec.n_paths, rng)
    else:
        est, _ = varswap_fair_strike_mc(spec.model, spec.maturity, spec.n_periods, cfg,
                                        spec.n_paths, rng)
    return est, time.perf_counter() - t0


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run every scheme config over all repetitions and summarize.

    Repetition r of every config runs before repetition r + 1 of any, so
    drift in the host's speed falls on all configs alike (on one thread pool
    if ``n_jobs > 1``).  Each (config, repetition) pair uses the random
    substream indexed by its position, so the estimates are identical for any
    ``n_jobs``.  The reported wall time covers all repetitions after the first
    (warm-up) one; with a single repetition it is that repetition's time.
    """
    benchmark = compute_benchmark(spec)
    n_cfg = len(spec.configs)
    cis, reps = zip(*[(ci, rep) for rep in range(spec.n_reps) for ci in range(n_cfg)])
    run = partial(_run_one_rep, spec)
    if spec.n_jobs > 1:
        with ThreadPoolExecutor(max_workers=spec.n_jobs) as pool:
            outcomes = list(pool.map(run, cis, reps))
    else:
        outcomes = list(map(run, cis, reps))
    rows = []
    for ci, cfg in enumerate(spec.configs):
        estimates, walls = zip(*outcomes[ci::n_cfg])
        wall = sum(walls[1:]) if spec.n_reps > 1 else walls[0]
        mean = float(np.mean(estimates))
        se = float(np.std(estimates))
        rows.append(
            ResultRow(
                case=spec.case_label,
                scheme=cfg.label,
                n_steps=cfg.n_steps,
                trunc_k=cfg.trunc_k if cfg.kind in SERIES_KINDS else None,
                n_paths=spec.n_paths,
                n_reps=spec.n_reps,
                estimate=mean,
                benchmark=benchmark,
                bias=None if benchmark is None else mean - benchmark,
                se=se,
                wall_seconds=wall,
                rep_estimates=[float(e) for e in estimates],
            )
        )
    return ExperimentResult(spec=spec, rows=rows)


def _cell(value, typ) -> str:
    if value is None:
        return ""
    return repr(float(value)) if typ is float else str(value)


def emit_table(results: Sequence[ExperimentResult], format: str = "csv") -> str:
    """Render results as CSV (lossless, one header over all rows) or Markdown (one table each)."""
    if not results or not all(res.rows for res in results):
        raise ConfigurationError("cannot render an empty result")
    if format in ("markdown", "md"):
        return "\n".join(_emit_markdown(res) for res in results)
    if format != "csv":
        raise ConfigurationError(f"unknown table format {format!r}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for res in results:
        for row in res.rows:
            writer.writerow([_cell(getattr(row, attr), typ) for _, attr, typ in _CSV_LAYOUT])
    return buf.getvalue()


def parse_table_csv(text: str) -> list[ResultRow]:
    """Parse :func:`emit_table` CSV output back into result rows.

    Per-repetition estimates are not serialized and come back empty.
    """
    return [
        ResultRow(**{
            attr: None if rec[header] == "" and header in _OPTIONAL_COLUMNS else typ(rec[header])
            for header, attr, typ in _CSV_LAYOUT
        })
        for rec in csv.DictReader(io.StringIO(text))
    ]


def _emit_markdown(result: ExperimentResult) -> str:
    # Variance-swap numbers are quoted in units of 1e-2 at display precision.
    scale = 100.0 if result.spec.product == "variance_swap" else 1.0
    unit = " (x 1e-2)" if scale != 1.0 else ""
    lines = []
    bench = result.rows[0].benchmark
    title = f"Case {result.spec.case_label}, {result.spec.product}"
    if bench is not None:
        title += f", benchmark {bench * scale:.3f}{unit}"
    lines.append(f"## {title}")
    lines.append("")
    lines.append("| Scheme | N | K | Estimate | Bias | SE | Time (sec) |")
    lines.append("|---|---|---|---|---|---|---|")
    for row in result.rows:
        k = "" if row.trunc_k is None else str(row.trunc_k)
        bias = "" if row.bias is None else f"{row.bias * scale:.3f}"
        lines.append(
            f"| {row.scheme} | {row.n_steps} | {k} | {row.estimate * scale:.3f} "
            f"| {bias} | {row.se * scale:.3f} | {row.wall_seconds:.2f} |"
        )
    lines.append("")
    return "\n".join(lines)
