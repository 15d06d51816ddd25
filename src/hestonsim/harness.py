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
from typing import Optional

import numpy as np

from .analytic import price_european_exact, varswap_strike_discrete
from .errors import ConfigurationError
from .model import ModelParams
from .rng import RngStream
from .schemes import (
    TIME_DISCRETIZATION_KINDS,
    SchemeConfig,
    price_european_cmc,
    varswap_fair_strike_mc,
)

PRODUCTS = ("european_call", "variance_swap")
BENCHMARKS = ("fourier", "varswap_closed_form", "none")

#: Display labels of the scheme kinds.
SCHEME_LABELS = {
    "ge": "GE",
    "pois_ge": "POIS-GE",
    "ig": "IG",
    "qem": "QEM",
    "pois_td": "POIS-TD",
}
_LABEL_KINDS = {v: k for k, v in SCHEME_LABELS.items()}

#: Scheme kinds whose truncation level is meaningful (rendered in the K column).
SERIES_KINDS = ("ge", "pois_ge")

CSV_COLUMNS = (
    "case", "scheme", "N", "K", "paths", "reps",
    "estimate", "benchmark", "bias", "se", "wall_seconds",
)


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
        if self.product not in PRODUCTS:
            raise ConfigurationError(f"unknown product {self.product!r}")
        if self.benchmark not in BENCHMARKS:
            raise ConfigurationError(f"unknown benchmark source {self.benchmark!r}")
        if self.n_paths < 1 or self.n_reps < 1:
            raise ConfigurationError("n_paths and n_reps must be >= 1")
        if self.maturity <= 0:
            raise ConfigurationError("maturity must be positive")
        if not self.configs:
            raise ConfigurationError("at least one scheme config is required")
        if self.n_jobs < 1:
            raise ConfigurationError("n_jobs must be >= 1")
        if self.product == "european_call":
            if self.strike is None or self.strike <= 0:
                raise ConfigurationError("european_call requires a positive strike")
            if self.benchmark == "varswap_closed_form":
                raise ConfigurationError("variance-swap benchmark does not price calls")
        else:
            if self.n_periods is None or self.n_periods < 1:
                raise ConfigurationError("variance_swap requires n_periods >= 1")
            if self.benchmark == "fourier":
                raise ConfigurationError("Fourier benchmark does not price variance swaps")
            for cfg in self.configs:
                if cfg.kind not in TIME_DISCRETIZATION_KINDS:
                    raise ConfigurationError(
                        f"variance swaps require a time-discretization scheme, got {cfg.kind!r}"
                    )
                if cfg.n_steps != self.n_periods:
                    raise ConfigurationError("config n_steps must equal n_periods")


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


def _run_one_rep(spec: ExperimentSpec, cfg: SchemeConfig, config_idx: int, rep: int):
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

    Each (config, repetition) pair uses the random substream indexed by its
    position, so the estimates are identical for any ``n_jobs``.  The reported
    wall time covers all repetitions after the first (warm-up) one; with a
    single repetition it is that repetition's time.
    """
    benchmark = compute_benchmark(spec)
    rows = []
    for ci, cfg in enumerate(spec.configs):
        reps = range(spec.n_reps)
        if spec.n_jobs > 1:
            with ThreadPoolExecutor(max_workers=spec.n_jobs) as pool:
                outcomes = list(pool.map(lambda r: _run_one_rep(spec, cfg, ci, r), reps))
        else:
            outcomes = [_run_one_rep(spec, cfg, ci, r) for r in reps]
        estimates = np.array([est for est, _ in outcomes])
        walls = [w for _, w in outcomes]
        wall = sum(walls[1:]) if spec.n_reps > 1 else walls[0]
        mean = float(np.mean(estimates))
        se = float(np.std(estimates))
        rows.append(
            ResultRow(
                case=spec.case_label,
                scheme=SCHEME_LABELS[cfg.kind],
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


def _fmt_full(value) -> str:
    return "" if value is None else repr(float(value))


def emit_table(result: ExperimentResult, format: str = "csv") -> str:
    """Render an experiment result as CSV (lossless) or Markdown (display)."""
    if not result.rows:
        raise ConfigurationError("cannot render an empty result")
    if format == "csv":
        return emit_rows_csv(result.rows)
    if format in ("markdown", "md"):
        return _emit_markdown(result)
    raise ConfigurationError(f"unknown table format {format!r}")


def emit_rows_csv(rows: list[ResultRow]) -> str:
    """Render result rows (possibly from several experiments) as CSV."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([
            row.case,
            row.scheme,
            row.n_steps,
            "" if row.trunc_k is None else row.trunc_k,
            row.n_paths,
            row.n_reps,
            _fmt_full(row.estimate),
            _fmt_full(row.benchmark),
            _fmt_full(row.bias),
            _fmt_full(row.se),
            _fmt_full(row.wall_seconds),
        ])
    return buf.getvalue()


def parse_table_csv(text: str) -> list[ResultRow]:
    """Parse :func:`emit_table` CSV output back into result rows.

    Per-repetition estimates are not serialized and come back empty.
    """
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    for rec in reader:
        rows.append(
            ResultRow(
                case=rec["case"],
                scheme=rec["scheme"],
                n_steps=int(rec["N"]),
                trunc_k=None if rec["K"] == "" else int(rec["K"]),
                n_paths=int(rec["paths"]),
                n_reps=int(rec["reps"]),
                estimate=float(rec["estimate"]),
                benchmark=None if rec["benchmark"] == "" else float(rec["benchmark"]),
                bias=None if rec["bias"] == "" else float(rec["bias"]),
                se=float(rec["se"]),
                wall_seconds=float(rec["wall_seconds"]),
            )
        )
    return rows


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
