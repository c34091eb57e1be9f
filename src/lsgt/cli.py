"""Command-line entry point: fit, benchmark and simulate subcommands.

Each subcommand takes only the flags it reads: ``fit`` and ``benchmark``
share the flags of a run, and ``simulate`` shares ``--model`` and
``--seed`` with them.

Options may come from a config file of ``key = value`` lines (``--config``).
Each line is read as the flag ``--key=value``, so a key is a flag's whole
name (``first_n`` and ``first-n`` both work) and repeated ``param`` lines add
overrides.  The file's flags are parsed before the command line's, so
command-line flags win.  A malformed option, a flag or key the subcommand
does not take, or a missing ``--input`` prints ``error: ...`` and exits
with status 1.  The ``LSGT_LOG`` environment variable sets the log level.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .data import load_collection, serialize_collection
from .errors import LsgtError
from .harness import RunConfig, fit_and_forecast, run_benchmark
from .model import NON_SEASONAL, SEASONAL, PriorConfig
from .rng import RngStream
from .synth import default_params, generate_series

logger = logging.getLogger(__name__)

MODEL_NAMES = {"lgt": NON_SEASONAL, "sgt": SEASONAL}
VARIANCE_NAMES = {"homo": "homoscedastic", "hetero": "heteroscedastic"}


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes flags by their whole names only and raises LsgtError on errors."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise LsgtError(message)


def config_flags(path: str) -> list[str]:
    """The flags a config file stands for: ``key = value`` reads as ``--key=value``.

    '#' starts a comment, and ``_`` in a key is read as ``-``.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise LsgtError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    flags = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise LsgtError(f"config line not of the form key = value: {raw!r}")
        value = value.strip('"').strip("'")
        flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def _quantile_levels(text: str) -> tuple[float, ...]:
    return tuple(float(q) for q in text.split(","))


def _run_config(args: argparse.Namespace) -> RunConfig:
    """RunConfig of the parsed names that are its fields; a setting it refuses raises LsgtError."""
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    try:
        return RunConfig(
            input_path=args.input,
            out_dir=args.out,
            model_kind=MODEL_NAMES[args.model],
            variance_mode=VARIANCE_NAMES[args.variance],
            **{name: value for name, value in vars(args).items() if name in fields},
        )
    except ValueError as exc:
        raise LsgtError(f"invalid option: {exc}") from exc


def cmd_benchmark(args: argparse.Namespace) -> int:
    summary = run_benchmark(_run_config(args))
    ok = summary.n_series - len(summary.errors)
    print(f"evaluated {ok}/{summary.n_series} series -> {args.out}")
    return 0 if ok > 0 else 1


def cmd_fit(args: argparse.Namespace) -> int:
    collection = load_collection(args.input)
    if not collection:
        raise LsgtError(f"no series in {args.input}")
    wanted = collection[0].id if args.series_id is None else args.series_id
    series = next((s for s in collection if s.id == wanted), None)
    if series is None:
        raise LsgtError(f"no series with id {wanted!r} in {args.input}")

    run_cfg = _run_config(args)
    samples, _, forecast = fit_and_forecast(series, run_cfg, run_cfg.seed)

    def summary_of(name):
        arr = samples.parameter_array(name)
        return {
            "mean": float(arr.mean()),
            "median": float(np.median(arr)),
            "q05": float(np.quantile(arr, 0.05)),
            "q95": float(np.quantile(arr, 0.95)),
        }

    payload = {
        "id": series.id,
        "model_kind": samples.prior.model_kind,
        "n_draws": len(samples.draws),
        "parameters": {
            name: summary_of(name)
            for name in ("alpha", "beta", "zeta", "gamma", "rho", "lam", "chi2", "nu", "phi", "tau", "b1")
        },
        "forecast": forecast,
        "diagnostics": [vars(d) for d in samples.diagnostics],
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"fit_{series.id}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    model_kind = MODEL_NAMES[args.model]
    seasonal = model_kind == SEASONAL
    m = (4 if seasonal else 1) if args.m is None else args.m
    if (m < 2) if seasonal else (m != 1):
        raise LsgtError(f"--m {m}: the {args.model} model needs {'m >= 2' if seasonal else 'm = 1'}")
    params = default_params(m=m, model_kind=model_kind, T=args.length)
    for spec in args.param:
        name, _, value = spec.partition("=")
        if not isinstance(getattr(params, name, None), float):
            raise LsgtError(f"--param {spec!r}: {name!r} is not a scalar generator parameter")
        try:
            setattr(params, name, float(value))
        except ValueError:
            raise LsgtError(f"--param {spec!r}: expected {name}=<number>") from None
    try:
        params.validate()
    except ValueError as exc:
        raise LsgtError(f"invalid generator parameter: {exc}") from None
    prior = PriorConfig(model_kind=model_kind)
    collection = []
    for i in range(args.n_series):
        rng = RngStream(args.seed, stream=i).generator()
        collection.append(
            generate_series(rng, params, prior, args.length, series_id=f"S{i + 1}",
                            h=args.horizon, category=args.category)
        )
    serialize_collection(collection, args.out)
    print(f"wrote {args.n_series} series to {args.out}")
    return 0


def build_parser(config: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """The parser of all subcommands; each takes the flags of ``config`` and only those it reads."""
    parser = _Parser(prog="lsgt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    shared = _Parser(add_help=False, parents=[config])
    shared.add_argument("--model", choices=sorted(MODEL_NAMES), default="lgt")
    shared.add_argument("--seed", type=int, default=RunConfig.seed)

    # the flags of a run, which fit and benchmark share; a dest that names a
    # RunConfig field sets that field
    run = _Parser(add_help=False, parents=[shared])
    run.add_argument("--input", required=True, help="collection file (csv or json)")
    run.add_argument("--out", default="out", help="output directory")
    run.add_argument("--variance", choices=sorted(VARIANCE_NAMES), default="hetero")
    run.add_argument("--seasonal-prior", dest="seasonal_prior", default=RunConfig.seasonal_prior,
                     help="horseshoe or cauchy:<scale>")
    run.add_argument("--iters", type=int, dest="iterations", default=RunConfig.iterations)
    run.add_argument("--burnin", type=int, dest="burn_in", default=RunConfig.burn_in)
    run.add_argument("--chains", type=int, default=RunConfig.chains)
    run.add_argument("--quantiles", type=_quantile_levels, dest="quantile_levels",
                     default=RunConfig.quantile_levels,
                     help="comma-separated levels, e.g. 0.05,0.5,0.95")

    p_fit = sub.add_parser("fit", parents=[run], help="fit a single series and forecast")
    p_fit.add_argument("--series-id", dest="series_id")
    p_fit.set_defaults(func=cmd_fit)

    p_bench = sub.add_parser("benchmark", parents=[run], help="fit/forecast/evaluate a collection")
    p_bench.add_argument("--workers", type=int, default=RunConfig.workers)
    p_bench.add_argument("--first-n", type=int, dest="first_n")
    p_bench.set_defaults(func=cmd_benchmark)

    p_sim = sub.add_parser("simulate", parents=[shared], help="generate synthetic collections")
    p_sim.add_argument("--out", default="synthetic.json", help="collection file to write")
    p_sim.add_argument("--n-series", type=int, dest="n_series", default=1)
    p_sim.add_argument("--length", type=int, default=60)
    p_sim.add_argument("--horizon", type=int, default=6)
    p_sim.add_argument("--m", type=int)
    p_sim.add_argument("--category")
    p_sim.add_argument("--param", action="append", default=[],
                       help="override a generator parameter, e.g. --param gamma=2.0")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse a command line; its ``--config`` file's flags go right after the subcommand."""
    config = _Parser(add_help=False)
    config.add_argument("--config", help="key = value config file; flags override it")
    path = config.parse_known_args(argv[1:])[0].config
    if path is not None:
        argv = [*argv[:1], *config_flags(path), *argv[1:]]
    return build_parser(config).parse_args(argv)


def configure_logging() -> None:
    level = os.environ.get("LSGT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    configure_logging()
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        return args.func(args)
    except LsgtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
