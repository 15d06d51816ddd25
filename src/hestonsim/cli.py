"""Command-line front end.

Subcommands
-----------
exact
    Closed-form call price for a named case or a parameter file.
price
    Monte Carlo call pricing with any scheme, reported as bias/SE against
    the closed-form benchmark.
varswap
    Discretely monitored variance-swap fair strike with a
    time-discretization scheme.
bench
    Full benchmark tables: ``opt1``-``opt4`` (per-case option tables),
    ``var3``/``var4`` (variance-swap tables), and ``grid4`` (the
    vol-of-vol x mean-reversion sweep).

Parameter files are flat ``key = value`` text with ``model.*``,
``product.*``, ``run.*``, and optional ``grid.*`` keys; rates are decimals
(``model.r = 0.0319`` means 3.19%).  Exit status is 0 on success, 1 on
runtime errors, and 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .errors import ConfigurationError, HestonSimError
from .analytic import price_european_exact
from .harness import (
    ExperimentSpec,
    emit_rows_csv,
    emit_table,
    run_experiment,
)
from .model import ModelParams
from .presets import CASE_PRESETS, get_case
from .schemes import SchemeConfig

_SCHEME_FLAGS = {
    "ge": "ge",
    "pois-ge": "pois_ge",
    "ig": "ig",
    "qem": "qem",
    "pois-td": "pois_td",
}

#: Per-case step counts of the time-discretization rows in the option tables.
_TD_STEPS = {"I": (20, 40, 80), "II": (30, 60, 120), "III": (2, 4, 8), "IV": (2, 4, 8)}

_GE_LEVELS = (0, 1, 2, 4, 8)
_IG_STEPS = (1, 2, 4, 8)
_VARSWAP_PERIODS = (2, 4, 12, 52)
_GRID_XI = (1.0, 0.25, 0.1)
_GRID_KAPPA = (4.0, 1.0, 0.1)
_GRID_STRIKES = (100.0, 110.0, 120.0)

_OPT_TABLES = {"opt1": "I", "opt2": "II", "opt3": "III", "opt4": "IV"}
_VAR_TABLES = {"var3": "III", "var4": "IV"}


def _default_jobs() -> int:
    try:
        return max(1, int(os.environ.get("HESTONSIM_JOBS", "1")))
    except ValueError:
        return 1


def parse_config_file(path: str) -> dict[str, str]:
    """Read a flat ``key = value`` config file; '#' starts a comment."""
    values: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    return values


def _convert(path: str, key: str, raw, kind=float):
    """Convert one config value; a malformed one is a ConfigurationError naming file and key."""
    try:
        return kind(raw)
    except ValueError:
        raise ConfigurationError(f"{path}: {key} = {raw!r} is not a valid {kind.__name__}") from None


def model_from_config(values: dict[str, str], path: str) -> ModelParams:
    """Build model parameters from the ``model.*`` keys of config file ``path``."""
    kwargs = {}
    for name in ("s0", "v0", "kappa", "theta", "xi", "rho", "r", "q"):
        key = f"model.{name}"
        if key in values:
            kwargs[name] = _convert(path, key, values[key])
    missing = {"s0", "v0", "kappa", "theta", "xi", "rho"} - kwargs.keys()
    if missing:
        raise ConfigurationError(f"config missing keys: {sorted('model.' + m for m in missing)}")
    return ModelParams(**kwargs)


def _resolve_case(args) -> tuple[str, ModelParams, float, float]:
    """Return (label, model, maturity, strike) from --case or --params."""
    if getattr(args, "params", None):
        values = parse_config_file(args.params)
        model = model_from_config(values, args.params)
        maturity = _convert(args.params, "product.maturity", values.get("product.maturity", 0))
        if maturity <= 0:
            raise ConfigurationError("config must set product.maturity > 0")
        strike = _convert(args.params, "product.strike", values.get("product.strike", model.s0))
        return "custom", model, maturity, strike
    if getattr(args, "case", None):
        preset = get_case(args.case)
        return preset.name, preset.model, preset.maturity, preset.strike
    raise ConfigurationError("one of --case or --params is required")


def _scheme_config(args) -> SchemeConfig:
    kind = _SCHEME_FLAGS[args.scheme]
    mode = "price" if kind in ("qem", "pois_td") else "none"
    return SchemeConfig(kind=kind, trunc_k=args.trunc_k, n_steps=args.steps,
                        martingale_mode=mode)


def _write_output(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    print(text, end="" if text.endswith("\n") else "\n")


def _cmd_exact(args) -> int:
    label, model, maturity, strike = _resolve_case(args)
    if args.strike is not None:
        strike = args.strike
    price = price_european_exact(model, maturity, strike)
    print(f"{price:.8f}")
    return 0


def _grid_values(values: dict[str, str], key: str, default: float, path: str) -> list[float]:
    if key not in values:
        return [default]
    return [_convert(path, key, tok) for tok in values[key].split(",") if tok.strip()]


def specs_from_config(values: dict[str, str], args) -> list[ExperimentSpec]:
    """Build experiment specs from ``run.*``/``grid.*`` config keys.

    ``grid.xi`` and ``grid.kappa`` are comma-separated lists whose cross
    product generates one experiment per parameter combination.
    """
    path = args.params
    base = model_from_config(values, path)
    maturity = _convert(path, "product.maturity", values.get("product.maturity", 0))
    if maturity <= 0:
        raise ConfigurationError("config must set product.maturity > 0")
    strike = _convert(path, "product.strike", values.get("product.strike", base.s0))
    run = {name: _convert(path, f"run.{name}", values.get(f"run.{name}", getattr(args, name)), int)
           for name in ("trunc_k", "steps", "paths", "reps", "seed", "jobs")}
    scheme = values.get("run.scheme", args.scheme)
    if scheme not in _SCHEME_FLAGS:
        raise ConfigurationError(f"unknown run.scheme {scheme!r}")
    kind = _SCHEME_FLAGS[scheme]
    cfg = SchemeConfig(
        kind=kind,
        trunc_k=run["trunc_k"],
        n_steps=run["steps"],
        martingale_mode="price" if kind in ("qem", "pois_td") else "none",
    )
    specs = []
    grid = "grid.xi" in values or "grid.kappa" in values
    for xi in _grid_values(values, "grid.xi", base.xi, path):
        for kappa in _grid_values(values, "grid.kappa", base.kappa, path):
            model = replace(base, xi=xi, kappa=kappa)
            label = f"custom[xi={xi:g},kappa={kappa:g}]" if grid else "custom"
            specs.append(
                ExperimentSpec(
                    case_label=label,
                    model=model,
                    maturity=maturity,
                    product="european_call",
                    configs=(cfg,),
                    n_paths=run["paths"],
                    n_reps=run["reps"],
                    seed=run["seed"],
                    strike=strike,
                    benchmark="fourier",
                    n_jobs=run["jobs"],
                )
            )
    return specs


def _cmd_price(args) -> int:
    if args.params:
        values = parse_config_file(args.params)
        if "run.scheme" in values or "grid.xi" in values or "grid.kappa" in values:
            if args.scheme is None and "run.scheme" not in values:
                raise ConfigurationError("--scheme or run.scheme is required")
            results = [run_experiment(spec) for spec in specs_from_config(values, args)]
            if args.format == "csv":
                text = emit_rows_csv([row for res in results for row in res.rows])
            else:
                text = "\n".join(emit_table(res, args.format) for res in results)
            _write_output(text, args.out)
            return 0
    if args.scheme is None:
        raise ConfigurationError("--scheme is required")
    label, model, maturity, strike = _resolve_case(args)
    if args.strike is not None:
        strike = args.strike
    spec = ExperimentSpec(
        case_label=label,
        model=model,
        maturity=maturity,
        product="european_call",
        configs=(_scheme_config(args),),
        n_paths=args.paths,
        n_reps=args.reps,
        seed=args.seed,
        strike=strike,
        benchmark="fourier",
        n_jobs=args.jobs,
    )
    _write_output(emit_table(run_experiment(spec), args.format), args.out)
    return 0


def _cmd_varswap(args) -> int:
    label, model, maturity, _ = _resolve_case(args)
    kind = _SCHEME_FLAGS[args.scheme]
    if kind not in ("qem", "pois_td"):
        raise ConfigurationError("varswap supports only qem and pois-td")
    mode = "return_variance" if kind == "pois_td" else "price"
    cfg = SchemeConfig(kind=kind, n_steps=args.periods, martingale_mode=mode)
    spec = ExperimentSpec(
        case_label=label,
        model=model,
        maturity=maturity,
        product="variance_swap",
        configs=(cfg,),
        n_paths=args.paths,
        n_reps=args.reps,
        seed=args.seed,
        n_periods=args.periods,
        benchmark="varswap_closed_form",
        n_jobs=args.jobs,
    )
    _write_output(emit_table(run_experiment(spec), args.format), args.out)
    return 0


def _bench_option_table(case_name: str, args) -> list:
    preset = get_case(case_name)
    configs = []
    for k in _GE_LEVELS:
        configs.append(SchemeConfig("ge", trunc_k=k, n_steps=1))
    for k in _GE_LEVELS:
        configs.append(SchemeConfig("pois_ge", trunc_k=k, n_steps=1))
    for n in _IG_STEPS:
        configs.append(SchemeConfig("ig", n_steps=n))
    for n in _IG_STEPS:
        configs.append(SchemeConfig("pois_ge", trunc_k=0, n_steps=n))
    for n in _TD_STEPS[case_name]:
        configs.append(SchemeConfig("qem", n_steps=n, martingale_mode="price"))
    for n in _TD_STEPS[case_name]:
        configs.append(SchemeConfig("pois_td", n_steps=n, martingale_mode="price"))
    spec = ExperimentSpec(
        case_label=preset.name,
        model=preset.model,
        maturity=preset.maturity,
        product="european_call",
        configs=tuple(configs),
        n_paths=args.paths,
        n_reps=args.reps,
        seed=args.seed,
        strike=preset.strike,
        benchmark="fourier",
        n_jobs=args.jobs,
    )
    return [run_experiment(spec)]


def _bench_varswap_table(case_name: str, args) -> list:
    preset = get_case(case_name)
    results = []
    for n in _VARSWAP_PERIODS:
        spec = ExperimentSpec(
            case_label=preset.name,
            model=preset.model,
            maturity=preset.maturity,
            product="variance_swap",
            configs=(
                SchemeConfig("qem", n_steps=n, martingale_mode="price"),
                SchemeConfig("pois_td", n_steps=n, martingale_mode="return_variance"),
            ),
            n_paths=args.paths,
            n_reps=args.reps,
            seed=args.seed,
            n_periods=n,
            benchmark="varswap_closed_form",
            n_jobs=args.jobs,
        )
        results.append(run_experiment(spec))
    return results


def _bench_grid_table(args) -> list:
    base = get_case("IV")
    configs = (
        SchemeConfig("ge", trunc_k=1, n_steps=1),
        SchemeConfig("pois_ge", trunc_k=1, n_steps=1),
        SchemeConfig("ig", n_steps=2),
        SchemeConfig("pois_ge", trunc_k=0, n_steps=2),
        SchemeConfig("qem", n_steps=4, martingale_mode="price"),
        SchemeConfig("pois_td", n_steps=4, martingale_mode="price"),
    )
    results = []
    for xi in _GRID_XI:
        for kappa in _GRID_KAPPA:
            model = replace(base.model, xi=xi, kappa=kappa)
            for strike in _GRID_STRIKES:
                spec = ExperimentSpec(
                    case_label=f"IV[xi={xi:g},kappa={kappa:g},X={strike:g}]",
                    model=model,
                    maturity=base.maturity,
                    product="european_call",
                    configs=configs,
                    n_paths=args.paths,
                    n_reps=args.reps,
                    seed=args.seed,
                    strike=strike,
                    benchmark="fourier",
                    n_jobs=args.jobs,
                )
                results.append(run_experiment(spec))
    return results


def _cmd_bench(args) -> int:
    if args.table in _OPT_TABLES:
        results = _bench_option_table(_OPT_TABLES[args.table], args)
    elif args.table in _VAR_TABLES:
        results = _bench_varswap_table(_VAR_TABLES[args.table], args)
    else:
        results = _bench_grid_table(args)
    if args.format == "csv":
        text = emit_rows_csv([row for res in results for row in res.rows])
    else:
        text = "\n".join(emit_table(res, args.format) for res in results)
    _write_output(text, args.out)
    return 0


def _add_case_args(p: argparse.ArgumentParser):
    p.add_argument("--case", choices=sorted(CASE_PRESETS), help="named parameter preset")
    p.add_argument("--params", help="parameter file (flat key = value)")


def _add_run_args(p: argparse.ArgumentParser):
    p.add_argument("--paths", type=int, default=160_000, help="paths per repetition")
    p.add_argument("--reps", type=int, default=10, help="number of repetitions")
    p.add_argument("--seed", type=int, default=1, help="root random seed")
    p.add_argument("--jobs", type=int, default=_default_jobs(),
                   help="worker threads over repetitions (env HESTONSIM_JOBS)")
    p.add_argument("--out", help="write the table to this file as well as stdout")
    p.add_argument("--format", choices=("csv", "md", "markdown"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hestonsim",
        description="Heston model Monte Carlo simulation and benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="closed-form call price")
    _add_case_args(p)
    p.add_argument("--strike", type=float, help="override the preset strike")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("price", help="Monte Carlo call pricing")
    _add_case_args(p)
    p.add_argument("--scheme", choices=sorted(_SCHEME_FLAGS),
                   help="simulation scheme (or run.scheme in --params)")
    p.add_argument("--K", dest="trunc_k", type=int, default=0,
                   help="series truncation level (ge / pois-ge)")
    p.add_argument("--steps", type=int, default=1, help="time steps N")
    p.add_argument("--strike", type=float, help="override the preset strike")
    _add_run_args(p)
    p.set_defaults(func=_cmd_price)

    p = sub.add_parser("varswap", help="variance-swap fair strike")
    _add_case_args(p)
    p.add_argument("--scheme", choices=("qem", "pois-td"), required=True)
    p.add_argument("--periods", type=int, required=True, help="monitoring periods N")
    _add_run_args(p)
    p.set_defaults(func=_cmd_varswap)

    p = sub.add_parser("bench", help="reproduce a full benchmark table")
    p.add_argument("--table", required=True,
                   choices=(*_OPT_TABLES, *_VAR_TABLES, "grid4"))
    _add_run_args(p)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HestonSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
