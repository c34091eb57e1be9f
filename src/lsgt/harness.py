"""Benchmark driver: per-series fit/forecast/evaluate with parallel workers.

Per-series result records are fully deterministic given (seed, config) —
wall-clock runtimes are kept out of them and reported only in the summary —
so two runs with different worker counts emit byte-identical record files.
Work is merged by series index, never by completion order.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import TimeSeries, load_collection, split
from .dists import build_nu_grid
from .errors import LsgtError, MetricError
from .forecast import simulate_paths
from .metrics import EvalRecord, coverage_flags, mase, msis, smape
from .model import PriorConfig, SeasonalPrior
from .rng import RngStream, derive_seed
from .sampler import SamplerConfig, fit

logger = logging.getLogger(__name__)

FORECAST_STREAM = 1_000_000
PATHS_PER_DRAW = 2

# central intervals evaluated by MSIS: nominal -> (alpha, lower q, upper q)
MSIS_INTERVALS = {"90": (0.1, 0.05, 0.95), "98": (0.02, 0.01, 0.99)}


@dataclass(frozen=True)
class RunConfig:
    """Everything one benchmark run needs, file paths included."""

    input_path: str
    out_dir: str
    model_kind: str = "non_seasonal"
    variance_mode: str = "heteroscedastic"
    seasonal_prior: str = "horseshoe"
    iterations: int = 5000
    burn_in: int = 2500
    chains: int = 2
    seed: int = 0
    workers: int = 1
    first_n: int | None = None
    quantile_levels: tuple[float, ...] = (0.01, 0.05, 0.5, 0.95, 0.99)
    nu_grid_size: int = 100

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.first_n is not None and self.first_n < 1:
            raise ValueError("first_n must be None or >= 1")
        levels = tuple(self.quantile_levels)
        if list(levels) != sorted(set(levels)) or any(not 0.0 < q < 1.0 for q in levels):
            raise ValueError("quantile levels must be strictly inside (0,1), sorted, unique")
        SeasonalPrior.parse(self.seasonal_prior)  # fail fast on bad spec strings
        self.sampler_config(0)  # and on sampler settings, before any series runs

    def prior_config(self) -> PriorConfig:
        return PriorConfig(
            model_kind=self.model_kind,
            variance_mode=self.variance_mode,
            seasonal_prior=SeasonalPrior.parse(self.seasonal_prior),
            nu_grid_size=self.nu_grid_size,
        )

    def sampler_config(self, seed: int) -> SamplerConfig:
        return SamplerConfig(
            iterations=self.iterations,
            burn_in=self.burn_in,
            chains=self.chains,
            seed=seed,
        )


@dataclass
class RunSummary:
    """Aggregate view over per-series evaluation records."""

    records: list[EvalRecord]
    category_stats: dict[str, dict]
    overall: dict
    errors: list[dict]
    n_series: int
    config: dict

    def to_dict(self) -> dict:
        return {
            "n_series": self.n_series,
            "overall": self.overall,
            "category_stats": self.category_stats,
            "records": [asdict(r) for r in self.records],
            "errors": self.errors,
            "config": self.config,
        }


def evaluate_forecast(series: TimeSeries, test, result, levels) -> EvalRecord:
    """Metrics for one held-out window; raises MetricError when undefined."""
    train_values = series.values
    actual = np.asarray(test)
    msis_scores: dict[str, float] = {}
    for name, (alpha, lo, hi) in MSIS_INTERVALS.items():
        if lo in result.quantiles and hi in result.quantiles:
            msis_scores[name] = msis(
                actual, result.quantiles[lo], result.quantiles[hi], alpha,
                train_values, s=series.m,
            )
    coverage = {
        str(q): v
        for q, v in coverage_flags(actual, {q: result.quantiles[q] for q in levels}).items()
    }
    return EvalRecord(
        series_id=series.id,
        smape=smape(actual, result.point),
        mase=mase(actual, result.point, train_values, s=series.m),
        msis=msis_scores,
        coverage=coverage,
        runtime_seconds=0.0,
    )


def fit_and_forecast(series: TimeSeries, cfg: RunConfig, seed: int):
    """Fit one series and forecast its horizon; the CLI's fit and the benchmark share this.

    Returns (samples, forecast result, record of the point, mean and
    quantile forecasts).  The forecast draws on its own stream of ``seed``,
    so the forecast does not depend on how many draws the fit consumed.
    """
    samples = fit(series, cfg.prior_config(), cfg.sampler_config(seed))
    result = simulate_paths(
        samples, series, h=series.h, paths_per_draw=PATHS_PER_DRAW,
        rng=RngStream(seed, stream=FORECAST_STREAM).generator(), seed=seed,
        levels=cfg.quantile_levels,
    )
    forecast = {
        "point": result.point.tolist(),
        "mean": result.mean.tolist(),
        "quantiles": {str(q): result.quantiles[q].tolist() for q in cfg.quantile_levels},
    }
    return samples, result, forecast


def process_series(series: TimeSeries, index: int, cfg: RunConfig) -> dict:
    """Fit, forecast and evaluate one series.  Runs inside worker processes."""
    out: dict = {"id": series.id, "index": index, "record": None, "eval": None, "error": None}
    try:
        parts = split(series)
        series_seed = derive_seed(cfg.seed, index)
        t0 = time.perf_counter()
        samples, result, forecast = fit_and_forecast(parts.train, cfg, series_seed)
        runtime = time.perf_counter() - t0

        record = {
            "id": series.id,
            "category": series.category,
            "m": series.m,
            "h": series.h,
            "model_kind": samples.prior.model_kind,
            "n_draws": len(samples.draws),
            "seed": series_seed,
            **forecast,
        }
        ev = evaluate_forecast(parts.train, parts.test, result, cfg.quantile_levels)
        ev.runtime_seconds = runtime
        record["metrics"] = {
            "smape": ev.smape,
            "mase": ev.mase,
            "msis": ev.msis,
            "coverage": ev.coverage,
        }
        out["record"] = record
        out["eval"] = asdict(ev)
    except MetricError as exc:
        out["error"] = f"metrics: {exc}"
    except LsgtError as exc:
        out["error"] = str(exc)
    return out


def _mean(values) -> float:
    return float(np.mean(np.asarray(values, dtype=float)))


def aggregate(outcomes: list[dict], categories: list[str | None], config_echo: dict) -> RunSummary:
    records: list[EvalRecord] = []
    errors: list[dict] = []
    by_category: dict[str, list[EvalRecord]] = {}
    for out, cat in zip(outcomes, categories):
        if out["error"] is not None:
            errors.append({"id": out["id"], "error": out["error"]})
            continue
        rec = EvalRecord(**out["eval"])
        records.append(rec)
        by_category.setdefault(cat or "uncategorized", []).append(rec)

    def stats(recs: list[EvalRecord]) -> dict:
        msis_keys = sorted({k for r in recs for k in r.msis})
        cov_keys = sorted({k for r in recs for k in r.coverage}, key=float)
        return {
            "n": len(recs),
            "smape": _mean([r.smape for r in recs]),
            "mase": _mean([r.mase for r in recs]),
            "msis": {k: _mean([r.msis[k] for r in recs if k in r.msis]) for k in msis_keys},
            "coverage": {k: _mean([r.coverage[k] for r in recs if k in r.coverage]) for k in cov_keys},
            "runtime_seconds": _mean([r.runtime_seconds for r in recs]),
        }

    category_stats = {cat: stats(recs) for cat, recs in sorted(by_category.items())}
    overall = stats(records) if records else {"n": 0}
    return RunSummary(
        records=records,
        category_stats=category_stats,
        overall=overall,
        errors=errors,
        n_series=len(outcomes),
        config=config_echo,
    )


def run_benchmark(cfg: RunConfig) -> RunSummary:
    """Run the whole benchmark and write records plus summary reports.

    Per-series seeds derive from (cfg.seed, series index in the input
    file), so results are independent of worker count and scheduling.
    """
    selected = list(enumerate(load_collection(cfg.input_path)))[: cfg.first_n]
    if not selected:
        raise LsgtError("no series selected")

    # built once here, so that forked workers inherit the cached grid
    prior = cfg.prior_config()
    build_nu_grid(prior.nu_lower, prior.nu_upper, prior.nu_grid_size)

    if cfg.workers == 1:
        outcomes = [process_series(s, i, cfg) for i, s in selected]
    else:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [pool.submit(process_series, s, i, cfg) for i, s in selected]
            outcomes = [f.result() for f in futures]
    outcomes.sort(key=lambda o: o["index"])

    out_dir = Path(cfg.out_dir)
    records_dir = out_dir / "records"
    records_dir.mkdir(parents=True, exist_ok=True)
    for out in outcomes:
        if out["record"] is not None:
            path = records_dir / f"{out['id']}.json"
            path.write_text(json.dumps(out["record"], indent=2, sort_keys=True) + "\n")

    categories = [s.category for _, s in selected]
    config_echo = json.loads(json.dumps(asdict(cfg)))  # JSON-native echo, tuples become lists
    summary = aggregate(outcomes, categories, config_echo=config_echo)
    for fmt in ("json", "csv", "markdown-table"):
        emit_report(summary, fmt, out_dir)
    n_failed = len(summary.errors)
    if n_failed:
        logger.warning("%d of %d series failed", n_failed, summary.n_series)
    return summary


MARKDOWN_COLUMNS = [
    "category", "sMAPE", "MASE", "Avg Runtime (s)",
    "Below 99p", "Below 95p", "Below 5p", "Below 1p",
    "MSIS 90p", "MSIS 98p",
]


def emit_report(summary: RunSummary, format: str, out_dir) -> Path:
    """Write the summary in one format; field ordering is stable."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if format == "json":
        path = out_dir / "summary.json"
        path.write_text(json.dumps(summary.to_dict(), indent=2) + "\n")
        return path
    if format == "csv":
        path = out_dir / "summary.csv"
        cov_keys = sorted({k for r in summary.records for k in r.coverage}, key=float)
        msis_keys = sorted({k for r in summary.records for k in r.msis})
        header = ["id", "smape", "mase"]
        header += [f"msis_{k}" for k in msis_keys]
        header += [f"below_{k}" for k in cov_keys]
        header += ["runtime_seconds"]
        lines = [",".join(header)]
        for r in summary.records:
            row = [r.series_id, repr(r.smape), repr(r.mase)]
            row += [repr(r.msis.get(k, float("nan"))) for k in msis_keys]
            row += [repr(r.coverage.get(k, float("nan"))) for k in cov_keys]
            row += [repr(r.runtime_seconds)]
            lines.append(",".join(row))
        path.write_text("\n".join(lines) + "\n")
        return path
    if format == "markdown-table":
        path = out_dir / "summary.md"
        lines = ["| " + " | ".join(MARKDOWN_COLUMNS) + " |",
                 "|" + "---|" * len(MARKDOWN_COLUMNS)]
        rows = dict(summary.category_stats)
        rows["(all)"] = summary.overall
        for cat, st in rows.items():
            if st.get("n", 0) == 0:
                continue
            cov = st.get("coverage", {})
            ms = st.get("msis", {})
            lines.append(
                "| "
                + " | ".join(
                    [
                        cat,
                        f"{st['smape']:.2f}",
                        f"{st['mase']:.2f}",
                        f"{st['runtime_seconds']:.2f}",
                        *[
                            f"{100.0 * cov[k]:.2f}" if k in cov else "-"
                            for k in ("0.99", "0.95", "0.05", "0.01")
                        ],
                        f"{ms['90']:.2f}" if "90" in ms else "-",
                        f"{ms['98']:.2f}" if "98" in ms else "-",
                    ]
                )
                + " |"
            )
        path.write_text("\n".join(lines) + "\n")
        return path
    raise ValueError(f"unknown report format {format!r}")
