"""Command-line entry point: fit, benchmark and simulate subcommands.

Options may come from a config file of ``key = value`` lines (``--config``);
command-line flags win over file values.  The ``LSGT_LOG`` environment
variable sets the log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .data import load_collection, serialize_collection
from .errors import LsgtError
from .harness import RunConfig, fit_and_forecast, run_benchmark
from .model import NON_SEASONAL, SEASONAL, PriorConfig, SeasonalPrior
from .rng import RngStream
from .synth import default_params, generate_series

logger = logging.getLogger(__name__)

MODEL_NAMES = {"lgt": NON_SEASONAL, "sgt": SEASONAL}
VARIANCE_NAMES = {"homo": "homoscedastic", "hetero": "heteroscedastic"}


def parse_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` config file; '#' starts a comment."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise LsgtError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    out: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise LsgtError(f"config line not of the form key = value: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key.replace("-", "_")] = _parse_scalar(value)
    return out


def _parse_scalar(text: str):
    text = text.strip().strip('"').strip("'")
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file; flags override it")
    p.add_argument("--input", help="collection file (csv or json)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--model", choices=sorted(MODEL_NAMES))
    p.add_argument("--variance", choices=sorted(VARIANCE_NAMES))
    p.add_argument("--seasonal-prior", dest="seasonal_prior",
                   help="horseshoe or cauchy:<scale>")
    p.add_argument("--iters", type=int, dest="iters")
    p.add_argument("--burnin", type=int, dest="burnin")
    p.add_argument("--chains", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--first-n", type=int, dest="first_n")
    p.add_argument("--quantiles", help="comma-separated levels, e.g. 0.05,0.5,0.95")


def _int_option(opts: dict, key: str, default: int | None = None) -> int:
    """``opts[key]`` as an int; a boolean or a number that is not whole raises ValueError."""
    value = opts.get(key, default)
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{key} = {value!r} is not a whole number")
    return int(value)


def _merged_options(args: argparse.Namespace) -> dict:
    opts: dict = {}
    if getattr(args, "config", None):
        opts.update(parse_config_file(args.config))
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            opts[key] = value
    return opts


def _run_config(opts: dict) -> RunConfig:
    """Build the run configuration; a malformed option raises LsgtError."""
    try:
        kwargs = dict(
            input_path=opts["input"],
            out_dir=opts.get("out", "out"),
            model_kind=MODEL_NAMES[opts.get("model", "lgt")],
            variance_mode=VARIANCE_NAMES[opts.get("variance", "hetero")],
            seasonal_prior=opts.get("seasonal_prior", "horseshoe"),
            seed=_int_option(opts, "seed", 0),
            workers=_int_option(opts, "workers", 1),
            chains=_int_option(opts, "chains", 2),
        )
        for key, field in (("iters", "iterations"), ("burnin", "burn_in"), ("first_n", "first_n")):
            if key in opts:
                kwargs[field] = _int_option(opts, key)
        if "quantiles" in opts:
            kwargs["quantile_levels"] = tuple(float(q) for q in str(opts["quantiles"]).split(","))
        return RunConfig(**kwargs)
    except (KeyError, ValueError) as exc:
        raise LsgtError(f"invalid option: {exc}") from exc


def cmd_benchmark(args: argparse.Namespace) -> int:
    opts = _merged_options(args)
    if "input" not in opts:
        print("benchmark requires --input", file=sys.stderr)
        return 2
    summary = run_benchmark(_run_config(opts))
    ok = summary.n_series - len(summary.errors)
    print(f"evaluated {ok}/{summary.n_series} series -> {opts.get('out', 'out')}")
    return 0 if ok > 0 else 1


def cmd_fit(args: argparse.Namespace) -> int:
    opts = _merged_options(args)
    if "input" not in opts:
        print("fit requires --input", file=sys.stderr)
        return 2
    collection = load_collection(opts["input"])
    if not collection:
        raise LsgtError(f"no series in {opts['input']}")
    wanted = str(opts.get("series_id", collection[0].id))
    series = next((s for s in collection if s.id == wanted), None)
    if series is None:
        raise LsgtError(f"no series with id {wanted!r} in {opts['input']}")

    run_cfg = _run_config({**opts, "out": opts.get("out", "out")})
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
    out_dir = Path(opts.get("out", "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"fit_{series.id}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    opts = _merged_options(args)
    try:
        model_kind = MODEL_NAMES[opts.get("model", "lgt")]
        m = _int_option(opts, "m", 4 if model_kind == SEASONAL else 1)
        T = _int_option(opts, "length", 60)
        h = _int_option(opts, "horizon", 6)
        n_series = _int_option(opts, "n_series", 1)
        seed = _int_option(opts, "seed", 0)
    except (KeyError, ValueError) as exc:
        raise LsgtError(f"invalid option: {exc}") from exc
    out_path = opts.get("out", "synthetic.json")

    params = default_params(m=m, model_kind=model_kind, T=T)
    specs = opts.get("param") or []
    if not isinstance(specs, list):  # a config file's one `param = name=value` line
        specs = [str(specs)]
    for spec in specs:
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
    prior = PriorConfig(model_kind=model_kind, seasonal_prior=SeasonalPrior())
    collection = []
    for i in range(n_series):
        rng = RngStream(seed, stream=i).generator()
        collection.append(
            generate_series(rng, params, prior, T, series_id=f"S{i + 1}", h=h,
                            category=opts.get("category"))
        )
    serialize_collection(collection, out_path)
    print(f"wrote {n_series} series to {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lsgt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a single series and forecast")
    _add_common_flags(p_fit)
    p_fit.add_argument("--series-id", dest="series_id")
    p_fit.set_defaults(func=cmd_fit)

    p_bench = sub.add_parser("benchmark", help="fit/forecast/evaluate a collection")
    _add_common_flags(p_bench)
    p_bench.set_defaults(func=cmd_benchmark)

    p_sim = sub.add_parser("simulate", help="generate synthetic collections")
    _add_common_flags(p_sim)
    p_sim.add_argument("--n-series", type=int, dest="n_series")
    p_sim.add_argument("--length", type=int)
    p_sim.add_argument("--horizon", type=int)
    p_sim.add_argument("--m", type=int)
    p_sim.add_argument("--category")
    p_sim.add_argument("--param", action="append",
                       help="override a generator parameter, e.g. --param gamma=2.0")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def configure_logging() -> None:
    level = os.environ.get("LSGT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LsgtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
