"""The benchmark's workloads: their inputs, the driver calls and the output checks.

An *op* is one driver call: one scheme config at one repetition.  An op fails
when it raises, returns a non-finite value, breaks the no-arbitrage bounds of
a call price, or sits in a row whose reference check fails.  Failed ops are
counted, never dropped.  A *row* collects the ops of one config on one input
across repetitions.

Random inputs come from the ``--seed`` argument alone: op ``i`` of cycle
``c`` draws from ``RngStream(seed, (i, c))``, and the grid experiments of
cycle ``c`` use the root seed ``seed * 1000 + c``.  The program calls go
through module attributes (``schemes.price_european_cmc``,
``harness.run_experiment``) so that the traced mode can wrap them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from statistics import fmean
from typing import Optional

from hestonsim import harness, schemes
from hestonsim import rng as rng_mod
from hestonsim.analytic import varswap_strike_discrete
from hestonsim.harness import ExperimentSpec
from hestonsim.model import ModelParams
from hestonsim.presets import CASE_PRESETS
from hestonsim.schemes import SchemeConfig

# Paper biases of the option tables for Cases I and III, as checked by
# criterion 4 of the acceptance suite; keyed by (case, kind, K, N).
PAPER_BIAS = {
    ("I", "pois_ge", 0, 1): 0.153,
    ("I", "pois_ge", 4, 1): 0.023,
    ("I", "pois_ge", 8, 1): 0.002,
    ("I", "ig", 0, 1): 0.159,
    ("I", "qem", 0, 80): -0.015,
    ("I", "pois_td", 0, 80): -0.004,
    ("III", "pois_ge", 0, 1): 0.005,
    ("III", "pois_ge", 4, 1): -0.000,
    ("III", "pois_ge", 8, 1): -0.000,
    ("III", "ig", 0, 1): 0.007,
}


@dataclass
class Op:
    """Outcome of one driver call."""

    row: str
    cycle: int
    product: str
    n_paths: int
    est: float = math.nan
    se: float = math.nan
    elapsed: float = math.nan
    raised: Optional[str] = None
    bad: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.raised is not None or self.bad is not None


@dataclass
class RowRef:
    """Closed-form value of a row and, where the paper gives one, its expected bias."""

    oracle: float
    expected_bias: Optional[float] = None


def cfg_label(cfg: SchemeConfig) -> str:
    return f"{cfg.kind} K={cfg.trunc_k} N={cfg.n_steps}"


def check_call(model: ModelParams, T: float, strike: float, est: float, se: float):
    """Reason an estimated call price is unusable or wrong, or None."""
    if not (math.isfinite(est) and math.isfinite(se)):
        return "non-finite"
    forward_pv = model.s0 * math.exp(-model.q * T)
    lower = max(forward_pv - strike * math.exp(-model.r * T), 0.0)
    if not lower <= est <= forward_pv:
        return "outside no-arbitrage bounds"
    return None


def check_varswap(est: float, se: float):
    """Reason an estimated variance-swap strike is unusable or wrong, or None."""
    if not (math.isfinite(est) and math.isfinite(se)):
        return "non-finite"
    if est <= 0:
        return "nonpositive strike"
    return None


@dataclass(frozen=True)
class Call:
    """One driver call on a preset case: a call price or a variance-swap strike."""

    case: str
    cfg: SchemeConfig
    n_paths: int
    varswap: bool = False

    @property
    def row(self) -> str:
        return f"{self.case}/{'varswap' if self.varswap else 'call'}/{cfg_label(self.cfg)}"


class DriverCalls:
    """A workload whose items are single ``price_european_cmc`` or
    ``varswap_fair_strike_mc`` calls, run one at a time."""

    n_jobs = 1

    def __init__(self, calls: list[Call]):
        self.items = tuple(calls)
        self.refs = {}
        for call in self.items:
            preset = CASE_PRESETS[call.case]
            cfg = call.cfg
            if call.varswap:
                oracle = varswap_strike_discrete(preset.model, preset.maturity,
                                                 preset.maturity / cfg.n_steps)
                # Criterion 5: the Poisson-conditioned strike is unbiased.
                expected = 0.0 if cfg.kind == "pois_td" else None
            else:
                oracle = preset.reference_price
                expected = PAPER_BIAS.get((call.case, cfg.kind, cfg.trunc_k, cfg.n_steps))
            self.refs[call.row] = RowRef(float(oracle), expected)

    def sizes(self) -> dict:
        return {"items": len(self.items), "paths_per_op": sorted({c.n_paths for c in self.items}),
                "n_jobs": self.n_jobs}

    def run_item(self, index: int, seed: int, cycle: int) -> list[Op]:
        call = self.items[index]
        preset = CASE_PRESETS[call.case]
        model, T, cfg = preset.model, preset.maturity, call.cfg
        op = Op(call.row, cycle, "varswap" if call.varswap else "call", call.n_paths)
        stream = rng_mod.RngStream(seed, (index, cycle))
        t0 = time.perf_counter()
        try:
            if call.varswap:
                est, se = schemes.varswap_fair_strike_mc(model, T, cfg.n_steps, cfg,
                                                         call.n_paths, stream)
            else:
                est, se = schemes.price_european_cmc(model, T, preset.strike, cfg,
                                                     call.n_paths, stream)
        except Exception as exc:  # an op that raises is counted, not fatal
            op.elapsed = time.perf_counter() - t0
            op.raised = type(exc).__name__
            return [op]
        op.elapsed = time.perf_counter() - t0
        op.est, op.se = float(est), float(se)
        op.bad = (check_varswap(op.est, op.se) if call.varswap
                  else check_call(model, T, preset.strike, op.est, op.se))
        return [op]


@dataclass(frozen=True)
class GridPoint:
    model: ModelParams
    strike: float
    label: str


class GridSweep:
    """A workload whose items are ``run_experiment`` calls, one per grid point."""

    n_jobs = 1

    def __init__(self, points: list[GridPoint], configs: tuple[SchemeConfig, ...],
                 maturity: float, n_paths: int, n_reps: int):
        self.items = tuple(points)
        self.configs = configs
        self.maturity = maturity
        self.n_paths = n_paths
        self.n_reps = n_reps
        self.refs = {}

    def sizes(self) -> dict:
        return {"items": len(self.items), "configs": len(self.configs),
                "paths_per_op": self.n_paths, "reps": self.n_reps, "n_jobs": self.n_jobs}

    def _run(self, spec: ExperimentSpec):
        """run_experiment, plus the per-op SE and time the driver calls return.

        run_experiment keeps only each repetition's estimate, so the driver
        name it looks up is wrapped for the duration of the call.
        """
        captured = {}
        inner = harness.price_european_cmc

        def capture(model, T, strike, cfg, n_paths, rng):
            t0 = time.perf_counter()
            est, se = inner(model, T, strike, cfg, n_paths, rng)
            captured[rng.key] = (float(se), time.perf_counter() - t0)
            return est, se

        harness.price_european_cmc = capture
        try:
            result = harness.run_experiment(spec)
        finally:
            harness.price_european_cmc = inner
        return [(cfg, row, [(float(row.rep_estimates[r]), *captured[(ci, r)])
                            for r in range(spec.n_reps)], None)
                for ci, (cfg, row) in enumerate(zip(spec.configs, result.rows))]

    def run_item(self, index: int, seed: int, cycle: int) -> list[Op]:
        point = self.items[index]
        spec = ExperimentSpec(
            case_label=point.label, model=point.model, maturity=self.maturity,
            product="european_call", configs=self.configs, n_paths=self.n_paths,
            n_reps=self.n_reps, seed=seed * 1000 + cycle, strike=point.strike,
            benchmark="fourier", n_jobs=self.n_jobs,
        )
        try:
            outcomes = self._run(spec)
        except Exception:
            # run_experiment returns nothing once one config raises.  Rerun
            # config by config so that only the configs that raise count as
            # failed; a config run alone draws from substreams (0, rep).
            outcomes = []
            for cfg in self.configs:
                try:
                    outcomes += self._run(replace(spec, configs=(cfg,)))
                except Exception as exc:  # counted below, not fatal
                    outcomes.append((cfg, None, None, type(exc).__name__))
        ops = []
        for cfg, row, reps, raised in outcomes:
            label = f"{point.label}/{cfg_label(cfg)}"
            if raised is not None:
                ops += [Op(label, cycle, "call", self.n_paths, raised=raised)
                        for _ in range(self.n_reps)]
                continue
            self.refs.setdefault(label, RowRef(float(row.benchmark)))
            for est, se, elapsed in reps:
                ops.append(Op(label, cycle, "call", self.n_paths, est, se, elapsed,
                              bad=check_call(point.model, self.maturity, point.strike, est, se)))
        return ops


def check_rows(refs: dict[str, RowRef], ops: list[Op]) -> list[dict]:
    """Summarize each row and apply its reference check.

    Criterion 4's rule, reused for every row with a paper value: the mean bias
    over the run's repetitions lies within 3 per-repetition SEs of the
    expected bias.  Ops of a row that fails are marked failed.
    """
    by_row: dict[str, list[Op]] = {}
    for op in ops:
        by_row.setdefault(op.row, []).append(op)
    summary = []
    for label, row_ops in by_row.items():
        good = [op for op in row_ops if not op.failed]
        entry = {"row": label, "ops": len(row_ops), "failed": len(row_ops) - len(good)}
        ref = refs.get(label)
        if good and ref is not None:
            est = fmean(op.est for op in good)
            se = fmean(op.se for op in good)
            entry.update(estimate=est, bias=est - ref.oracle, se=se)
            if ref.expected_bias is not None:
                ok = abs(est - ref.oracle - ref.expected_bias) <= 3.0 * se
                entry.update(expected_bias=ref.expected_bias, check="pass" if ok else "FAIL")
                if not ok:
                    for op in good:
                        op.bad = "row check"
        summary.append(entry)
    return summary


def exact_one_step() -> DriverCalls:
    configs = ([SchemeConfig("pois_ge", trunc_k=k) for k in (0, 1, 4, 8)]
               + [SchemeConfig("ge", trunc_k=k) for k in (0, 1, 4, 8)]
               + [SchemeConfig("ig")])
    return DriverCalls([Call(case, cfg, 40_000) for case in ("I", "III") for cfg in configs])


def td_many_steps() -> DriverCalls:
    calls = [Call("I", SchemeConfig(kind, n_steps=80, martingale_mode="price"), 20_000)
             for kind in ("qem", "pois_td")]
    for n in (12, 52):
        calls.append(Call("IV", SchemeConfig("qem", n_steps=n, martingale_mode="price"),
                          20_000, varswap=True))
        calls.append(Call("IV", SchemeConfig("pois_td", n_steps=n,
                                             martingale_mode="return_variance"),
                          20_000, varswap=True))
    return DriverCalls(calls)


#: The CLI's grid4 configs.
GRID_CONFIGS = (
    SchemeConfig("ge", trunc_k=1),
    SchemeConfig("pois_ge", trunc_k=1),
    SchemeConfig("ig", n_steps=2),
    SchemeConfig("pois_ge", n_steps=2),
    SchemeConfig("qem", n_steps=4, martingale_mode="price"),
    SchemeConfig("pois_td", n_steps=4, martingale_mode="price"),
)

#: Case IV at xi = 2, kappa = 0.1 (delta = 0.025), an admissible input.
DEFECT_XI_KAPPA = (2.0, 0.1)


def grid_sweep() -> GridSweep:
    # The CLI's grid4 table plus the admissible xi = 2 axis, but without
    # xi = 2, kappa = 0.1: there most configs raise today (zero-variance
    # endpoints), and which ones depends on the seed.  The timed workload
    # must not fail, so that point is left to defect_probe.
    base = CASE_PRESETS["IV"]
    points = [
        GridPoint(replace(base.model, xi=xi, kappa=kappa), strike,
                  f"IV[xi={xi:g},kappa={kappa:g},X={strike:g}]")
        for xi in (2.0, 1.0, 0.25, 0.1)
        for kappa in (4.0, 1.0, 0.1)
        for strike in (100.0, 110.0, 120.0)
        if (xi, kappa) != DEFECT_XI_KAPPA
    ]
    return GridSweep(points, GRID_CONFIGS, base.maturity, n_paths=2_000, n_reps=4)


def defect_probe(seed: int) -> list[Op]:
    """Ops of the grid configs at DEFECT_XI_KAPPA, strike 100, on a small budget.

    Not part of any timed workload: it keeps the defect in view (the traced
    mode reports how many configs fail here) without failing timed ops.
    """
    base = CASE_PRESETS["IV"]
    xi, kappa = DEFECT_XI_KAPPA
    point = GridPoint(replace(base.model, xi=xi, kappa=kappa), 100.0,
                      f"IV[xi={xi:g},kappa={kappa:g},X=100]")
    probe = GridSweep([point], GRID_CONFIGS, base.maturity, n_paths=2_000, n_reps=2)
    return probe.run_item(0, seed, 0)


WORKLOADS = {
    "exact_one_step": exact_one_step,
    "td_many_steps": td_many_steps,
    "grid_sweep": grid_sweep,
}
