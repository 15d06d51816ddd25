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

Parameter files are flat ``key = value`` text with ``model.*``, ``product.*``,
``run.*`` and ``grid.*`` keys; rates are decimals (``model.r = 0.0319`` means
3.19%).  ``_KEYS`` gives each key's value type and the subcommands that take
it: ``price`` takes every key; ``exact`` prices one model, so it takes
no ``grid.*`` key, and ``varswap`` takes neither ``grid.*`` nor the
``run.{scheme,steps,trunc_k}`` that --scheme and --periods set.  An unknown
key, a key the subcommand does not take and a malformed value are errors
naming the file and the line.  Exit status is 0 on success, 1 on runtime
errors, and 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .errors import ConfigurationError, HestonSimError
from .analytic import price_european_exact
from .harness import BENCHMARK_OF, ExperimentSpec, emit_table, run_experiment
from .model import ModelParams
from .presets import CASE_PRESETS, get_case
from .schemes import CORRECTIONS, SCHEME_FLAGS, SchemeConfig

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

_MODEL_KEYS = ("s0", "v0", "kappa", "theta", "xi", "rho", "r", "q")


def _positive(raw: str) -> float:
    value = float(raw)
    # Written so that NaN fails it.
    if not 0 < value < float("inf"):
        raise ValueError(f"{raw!r} is not finite and positive")
    return value


def _floats(raw: str) -> list[float]:
    """A comma-separated list of floats, none of them empty."""
    items = raw.split(",")
    if not all(item.strip() for item in items):
        raise ValueError(f"{raw!r} has an empty item")
    return [float(item) for item in items]


_ANY = frozenset(("exact", "price", "varswap"))
_CALLS = frozenset(("exact", "price"))
#: The parameter file's schema: each key's value type and the subcommands that take it.
_KEYS = {
    **{f"model.{name}": (float, _ANY) for name in _MODEL_KEYS},
    "product.maturity": (_positive, _ANY), "product.strike": (_positive, _ANY),
    "run.scheme": (str, _CALLS), "run.trunc_k": (int, _CALLS), "run.steps": (int, _CALLS),
    **{f"run.{name}": (int, _ANY) for name in ("paths", "reps", "seed", "jobs")},
    "grid.xi": (_floats, {"price"}), "grid.kappa": (_floats, {"price"}),
}


def _call_config(kind: str, trunc_k: int, n_steps: int) -> SchemeConfig:
    """Call-pricing config with the kind's call correction, if it has one."""
    mode = CORRECTIONS.get(kind, {}).get("call", "none")
    return SchemeConfig(kind, trunc_k=trunc_k, n_steps=n_steps, martingale_mode=mode)


def _varswap_config(kind: str, n_periods: int) -> SchemeConfig:
    return SchemeConfig(kind, n_steps=n_periods, martingale_mode=CORRECTIONS[kind]["varswap"])


_GRID_CONFIGS = tuple(_call_config(kind, k, n) for kind, k, n in (
    ("ge", 1, 1), ("pois_ge", 1, 1), ("ig", 0, 2),
    ("pois_ge", 0, 2), ("qem", 0, 4), ("pois_td", 0, 4),
))


def _spec(args, values: dict, label: str, model: ModelParams, maturity: float,
          configs, *, strike: float | None, n_periods: int | None) -> ExperimentSpec:
    """One experiment over ``configs``; paths, reps, seed and jobs come from :func:`_setting`.

    Without a period count it prices a call at ``strike`` against the Fourier
    oracle; with one it prices a variance swap against its closed form.
    """
    product = "european_call" if n_periods is None else "variance_swap"
    return ExperimentSpec(
        case_label=label,
        model=model,
        maturity=maturity,
        product=product,
        configs=tuple(configs),
        n_paths=_setting(args, values, "paths"),
        n_reps=_setting(args, values, "reps"),
        seed=_setting(args, values, "seed"),
        strike=strike,
        n_periods=n_periods,
        benchmark=BENCHMARK_OF[product],
        n_jobs=_setting(args, values, "jobs"),
    )


def parse_config_file(path: str, command: str) -> dict:
    """Read ``command``'s flat ``key = value`` config file; '#' starts a comment.

    Each value is converted to its ``_KEYS`` type at its line.  An unknown key,
    a key ``command`` does not take and a malformed value are refused there.
    """
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                where = f"{path}:{lineno}"
                if "=" not in line:
                    raise ConfigurationError(f"{where}: expected 'key = value'")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in _KEYS:
                    raise ConfigurationError(f"{where}: unknown key {key!r}")
                kind, commands = _KEYS[key]
                if command not in commands:
                    raise ConfigurationError(f"{where}: {command} takes no {key!r}")
                try:
                    values[key] = kind(value)
                except ValueError as exc:
                    raise ConfigurationError(f"{where}: {key}: {exc}") from None
    except (OSError, UnicodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    return values


def model_from_config(values: dict) -> ModelParams:
    """Build model parameters from the ``model.*`` values of :func:`parse_config_file`."""
    kwargs = {name: values[f"model.{name}"] for name in _MODEL_KEYS if f"model.{name}" in values}
    missing = {"s0", "v0", "kappa", "theta", "xi", "rho"} - kwargs.keys()
    if missing:
        raise ConfigurationError(f"config missing keys: {sorted('model.' + m for m in missing)}")
    return ModelParams(**kwargs)


def _params(args) -> dict:
    """The typed values of the --params file, or none without one."""
    return parse_config_file(args.params, args.command) if args.params else {}


def _setting(args, values: dict, name: str):
    """A run setting: the ``run.<name>`` key of the --params file if it has one, else the flag."""
    return values.get(f"run.{name}", getattr(args, name))


def _resolve_case(args, values: dict) -> tuple[str, ModelParams, float, float]:
    """Return (label, model, maturity, strike) from --case or --params ``values``, then --strike."""
    if args.params:
        model = model_from_config(values)
        if "product.maturity" not in values:
            raise ConfigurationError(f"{args.params}: product.maturity is required")
        label, maturity = "custom", values["product.maturity"]
        strike = values.get("product.strike", model.s0)
    elif args.case:
        preset = get_case(args.case)
        label, model, maturity, strike = preset.name, preset.model, preset.maturity, preset.strike
    else:
        raise ConfigurationError("one of --case or --params is required")
    if getattr(args, "strike", None) is not None:
        strike = args.strike
    return label, model, maturity, strike


def _write_results(specs: list[ExperimentSpec], args) -> int:
    """Run ``specs`` in order and write all their results as one table text."""
    text = emit_table([run_experiment(spec) for spec in specs], args.format)
    print(text, end="" if text.endswith("\n") else "\n")
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigurationError(f"cannot write output file {args.out}: {exc}") from exc
    return 0


def _cmd_exact(args) -> int:
    values = _params(args)
    _, model, maturity, strike = _resolve_case(args, values)
    print(f"{price_european_exact(model, maturity, strike):.8f}")
    return 0


def _cmd_price(args) -> int:
    """Price one scheme over the grid.* cross product, or at the case's (xi, kappa) alone."""
    values = _params(args)
    label, base, maturity, strike = _resolve_case(args, values)
    scheme = _setting(args, values, "scheme")
    if scheme is None:
        raise ConfigurationError("--scheme or run.scheme is required")
    if scheme not in SCHEME_FLAGS:
        raise ConfigurationError(f"unknown run.scheme {scheme!r}")
    cfg = _call_config(SCHEME_FLAGS[scheme], _setting(args, values, "trunc_k"),
                       _setting(args, values, "steps"))
    grid = "grid.xi" in values or "grid.kappa" in values
    specs = []
    for xi in values.get("grid.xi", [base.xi]):
        for kappa in values.get("grid.kappa", [base.kappa]):
            name = f"custom[xi={xi:g},kappa={kappa:g}]" if grid else label
            specs.append(_spec(args, values, name, replace(base, xi=xi, kappa=kappa), maturity,
                               (cfg,), strike=strike, n_periods=None))
    return _write_results(specs, args)


def _cmd_varswap(args) -> int:
    values = _params(args)
    label, model, maturity, _ = _resolve_case(args, values)
    cfg = _varswap_config(SCHEME_FLAGS[args.scheme], args.periods)
    return _write_results([_spec(args, values, label, model, maturity, (cfg,),
                                 strike=None, n_periods=args.periods)], args)


def _cmd_bench(args) -> int:
    if args.table in _OPT_TABLES:
        case = get_case(_OPT_TABLES[args.table])
        configs = (
            [_call_config("ge", k, 1) for k in _GE_LEVELS]
            + [_call_config("pois_ge", k, 1) for k in _GE_LEVELS]
            + [_call_config("ig", 0, n) for n in _IG_STEPS]
            + [_call_config("pois_ge", 0, n) for n in _IG_STEPS]
            + [_call_config(kind, 0, n) for kind in CORRECTIONS for n in _TD_STEPS[case.name]]
        )
        specs = [_spec(args, {}, case.name, case.model, case.maturity, configs,
                       strike=case.strike, n_periods=None)]
    elif args.table in _VAR_TABLES:
        case = get_case(_VAR_TABLES[args.table])
        specs = [_spec(args, {}, case.name, case.model, case.maturity,
                       [_varswap_config(kind, n) for kind in CORRECTIONS],
                       strike=None, n_periods=n)
                 for n in _VARSWAP_PERIODS]
    else:
        case = get_case("IV")
        specs = [_spec(args, {}, f"IV[xi={xi:g},kappa={kappa:g},X={strike:g}]",
                       replace(case.model, xi=xi, kappa=kappa), case.maturity, _GRID_CONFIGS,
                       strike=strike, n_periods=None)
                 for xi in _GRID_XI for kappa in _GRID_KAPPA for strike in _GRID_STRIKES]
    return _write_results(specs, args)


def _add_case_args(p: argparse.ArgumentParser):
    case = p.add_mutually_exclusive_group()
    case.add_argument("--case", choices=sorted(CASE_PRESETS), help="named parameter preset")
    case.add_argument("--params", help="parameter file (flat key = value)")


def _add_run_args(p: argparse.ArgumentParser):
    p.add_argument("--paths", type=int, default=160_000, help="paths per repetition")
    p.add_argument("--reps", type=int, default=10, help="number of repetitions")
    p.add_argument("--seed", type=int, default=1, help="root random seed")
    p.add_argument("--jobs", type=int, default=os.environ.get("HESTONSIM_JOBS", "1"),
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
    p.add_argument("--scheme", choices=sorted(SCHEME_FLAGS),
                   help="simulation scheme (or run.scheme in --params)")
    p.add_argument("--K", dest="trunc_k", type=int, default=0,
                   help="series truncation level (ge / pois-ge)")
    p.add_argument("--steps", type=int, default=1, help="time steps N")
    p.add_argument("--strike", type=float, help="override the preset strike")
    _add_run_args(p)
    p.set_defaults(func=_cmd_price)

    p = sub.add_parser("varswap", help="variance-swap fair strike")
    _add_case_args(p)
    p.add_argument("--scheme", required=True,
                   choices=[flag for flag, kind in SCHEME_FLAGS.items() if kind in CORRECTIONS])
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
