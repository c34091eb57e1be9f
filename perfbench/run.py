"""Benchmark of lsgt on M3-shaped workloads: seconds per series, ESS per second, accuracy.

Usage (from the root of a checkout of the repository):

    python3 perfbench/run.py --workload yearly --seed 1 --seconds 45 --trace 0

The run builds a seeded collection (``perfbench/workloads.py``), sets up lsgt
(import plus the default nu grid) in this fresh process and then in one more,
then repeats whole rounds of ``lsgt.harness.run_benchmark``
over the collection while a round still fits in ``--seconds``.  Seconds are
scaled to the reference machine speed with ``perfbench/yardstick.py``.  Every
round is checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` adds one traced round at 1
worker and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 2          # this process, then a fresh subprocess after it
MAIN_PARAMS = ("alpha", "beta", "gamma", "rho", "nu", "chi2")
SAVED_PARAMS = MAIN_PARAMS + ("lam", "zeta")


def timed_setup() -> tuple[float, float]:
    """(import + default nu grid, nu grid alone) in seconds, in a process that has not imported lsgt."""
    t0 = time.perf_counter()
    from lsgt.dists import build_nu_grid
    from lsgt.model import PriorConfig

    prior = PriorConfig()
    t1 = time.perf_counter()
    build_nu_grid(prior.nu_lower, prior.nu_upper, prior.nu_grid_size)
    t2 = time.perf_counter()
    return t2 - t0, t2 - t1


def setup_seconds(first: float, n: int) -> list[float]:
    """``first`` and the set-up times of ``n`` - 1 fresh interpreters, run one after another."""
    raw = [first]
    for _ in range(n - 1):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
                              stdout=subprocess.PIPE, text=True, timeout=120)
        if proc.returncode:
            raise RuntimeError("a set-up probe failed")
        raw.append(float(json.loads(proc.stdout.splitlines()[-1])[0]))
    return raw


class DrawCapture:
    """Wraps ``lsgt.harness.fit`` to save each series' retained draws as .npz.

    Saving happens in whichever process fits the series, so draws of pool
    workers (forked from this process) land in the same directory.  Each
    fit is preceded by one yardstick slice whose seconds are saved too
    (``yard_s``); they fall inside the series' runtime and the round's wall
    time, and ``run_round`` takes them out again.
    """

    def __init__(self, directory: Path):
        self.directory = directory

    def __enter__(self):
        import numpy as np
        from lsgt import harness

        from perfbench.yardstick import yardstick

        self.harness, self.original = harness, harness.fit
        directory, original = self.directory, self.original
        directory.mkdir(parents=True, exist_ok=True)

        def fit(series, prior, cfg):
            yard_s = yardstick()
            samples = original(series, prior, cfg)
            diags = samples.diagnostics
            np.savez(
                directory / f"{series.id}.npz",
                chains=len(diags),
                seasonal=samples.prior.model_kind == "seasonal",
                seed_sum=np.array([float(np.sum(d.log_s_init)) for d in samples.draws]),
                accept_smoothing=np.array([np.nan if d.accept_rate_smoothing is None
                                           else d.accept_rate_smoothing for d in diags]),
                accept_seasonal=np.array([np.nan if d.accept_rate_seasonal is None
                                          else d.accept_rate_seasonal for d in diags]),
                truncation_clamps=sum(d.truncation_clamps for d in diags),
                yard_s=yard_s,
                **{p: samples.parameter_array(p) for p in SAVED_PARAMS},
            )
            return samples

        harness.fit = fit
        return self

    def __exit__(self, *exc):
        self.harness.fit = self.original

    def load(self, sid: str) -> dict:
        import numpy as np

        with np.load(self.directory / f"{sid}.npz") as f:
            return {k: f[k] for k in f.files}


def run_round(cfg, capture: DrawCapture) -> dict:
    """One run_benchmark call over the whole collection, its yardstick slices taken out.

    ``wall`` and ``runtimes`` are seconds of this machine; ``scale`` turns
    them into seconds of the reference machine.
    """
    from lsgt.harness import run_benchmark
    from perfbench.yardstick import REFERENCE_S

    with capture:
        t0 = time.perf_counter()
        summary = run_benchmark(cfg)
        wall = time.perf_counter() - t0
    yard = {r.series_id: float(capture.load(r.series_id)["yard_s"]) for r in summary.records}
    return {
        "wall": wall - sum(yard.values()) / cfg.workers,
        "runtimes": {r.series_id: r.runtime_seconds - yard[r.series_id] for r in summary.records},
        "scale": REFERENCE_S * len(yard) / sum(yard.values()) if yard else 1.0,
        "failed": len(summary.errors),
        "summary": summary,
        "records": read_records(cfg.out_dir),
    }


def peak_rss_mb(workers: int) -> float:
    """This process's peak RSS, plus workers x the largest pool worker's peak when there is a pool."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers > 1:
        kb += workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def series_diagnostics(workload, collection, capture: DrawCapture, runtimes: dict, problems: list):
    """Per-series ESS, R-hat, acceptance and clamp counts from the captured draws."""
    from perfbench.checks import check_draws
    from perfbench.ess import bulk_ess, split_rhat
    from lsgt.dists import build_nu_grid
    from lsgt.model import PriorConfig

    prior = PriorConfig()
    nu_grid = set(build_nu_grid(prior.nu_lower, prior.nu_upper, prior.nu_grid_size).candidates)
    out = {}
    for s in collection:
        if s.id not in runtimes:
            continue
        d = capture.load(s.id)
        seasonal = bool(d["seasonal"])
        check_draws(s.id, d, nu_grid, seasonal, problems)
        chains, n = int(d["chains"]), d["alpha"].shape[0]
        if n != chains * workload.kept_per_chain:
            continue   # the n_draws check of the record reports it
        params = MAIN_PARAMS + (("zeta",) if seasonal else ("lam",))
        ess = {p: bulk_ess(d[p].reshape(chains, -1)) for p in params}
        rhat = {p: split_rhat(d[p].reshape(chains, -1)) for p in params}
        out[s.id] = {
            "runtime": runtimes[s.id],
            "ess": ess,
            "min_ess": min(ess.values()),
            "rhat_max": max(rhat.values()),
            "accept_smoothing": float(d["accept_smoothing"].mean()),
            "accept_seasonal": float(d["accept_seasonal"].mean()),
            "truncation_clamps": int(d["truncation_clamps"]),
        }
    return out


def layer_metrics(tr, n_series: int, grid_s: float, diag: dict, rounds: list, workers: int,
                  traced_runtime: float, absent: set) -> dict:
    """Per-layer metrics from one traced round plus the untraced rounds.

    A metric whose spans or draws do not occur in this workload reads 0 and
    its name is added to ``absent``.
    """
    from perfbench.trace import SWEEP_KERNELS

    sweeps, sweep_s = tr.sums("sampler.sweep")
    in_sweep = lambda p: p == "sampler.sweep"                     # noqa: E731
    sampler_side = lambda p: p != "forecast.simulate_paths"      # noqa: E731
    m = {}

    def per(total, count, scale):
        return total / count * scale if count else 0.0

    m["sampler.sweep.ms"] = (per(sweep_s, sweeps, 1e3), "ms")
    for k in SWEEP_KERNELS:
        count, total = tr.sums(f"sampler.{k}", in_sweep)
        m[f"sampler.{k}.ms_per_sweep"] = (per(total, sweeps, 1e3), "ms")
        if not count:
            absent.add(f"sampler.{k}.ms_per_sweep")
    series = list(diag.values())
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0   # noqa: E731
    finite = lambda xs: [x for x in xs if math.isfinite(x)]   # noqa: E731
    for kind in ("smoothing", "seasonal"):
        rates = finite([d[f"accept_{kind}"] for d in series])
        m[f"sampler.{kind}_mh.accept_rate"] = (mean(rates), "ratio")
        if not rates:
            absent.add(f"sampler.{kind}_mh.accept_rate")
    m["sampler.truncation_clamps"] = (mean([d["truncation_clamps"] for d in series]), "count")
    for p in SAVED_PARAMS:
        rates = [d["ess"][p] / d["runtime"] for d in series if p in d["ess"]]
        m[f"sampler.ess_per_s.{p}"] = (statistics.median(rates) if rates else 0.0, "1/s")
        if not rates:
            absent.add(f"sampler.ess_per_s.{p}")
    m["sampler.rhat_max"] = (statistics.median([d["rhat_max"] for d in series]), "ratio")

    for name, with_calls in (("model.run_recursion", True), ("model.recompute_yhat", True),
                             ("model.recompute_sigma2", False), ("model.recompute_trend_path", False),
                             ("model.negative_log_likelihood", False),
                             ("gradients.smoothing_gradient", False), ("gradients.seasonal_gradient", False),
                             ("dists.sample_inverse_gamma", True), ("dists.sample_truncated_normal", False)):
        count, total = tr.sums(name, sampler_side)
        m[f"{name}.us_per_call"] = (per(total, count, 1e6), "us")
        if with_calls:
            m[f"{name}.calls_per_sweep"] = (per(count, sweeps, 1.0), "count")
        if not count:
            absent.update(k for k in m if k.startswith(name + "."))
    m["dists.build_nu_grid.s"] = (grid_s, "s")
    m["forecast.simulate_paths.s_per_series"] = (tr.sums("forecast.simulate_paths")[1] / n_series, "s")
    floors = sum(r.floor_events for r in tr.results.get("forecast.simulate_paths", []))
    m["forecast.floor_events"] = (floors / n_series, "count")
    m["harness.evaluate_forecast.ms_per_series"] = (tr.sums("harness.evaluate_forecast")[1] / n_series * 1e3, "ms")
    m["harness.pool_efficiency"] = (statistics.median(
        sum(r["runtimes"].values()) / (r["wall"] * workers) for r in rounds), "ratio")
    m["harness.overhead_s"] = (statistics.median(
        r["wall"] - sum(r["runtimes"].values()) / workers for r in rounds), "s")
    untraced = statistics.median(sum(r["runtimes"].values()) * r["scale"] for r in rounds)
    m["trace.overhead_ratio"] = (traced_runtime / untraced, "ratio")
    return m


def write_collection(collection, category: str, path: Path) -> None:
    path.write_text(json.dumps([
        {"id": s.id, "category": category, "m": s.m, "h": s.h, "values": list(s.values)} for s in collection
    ]))


def read_records(run_dir: str) -> dict[str, bytes]:
    return {p.stem: p.read_bytes() for p in sorted((Path(run_dir) / "records").glob("*.json"))}


def measure(w, seed: int, seconds: float, trace: int, out_dir: Path,
            setup_s: float, grid_s: float, setup_samples: int = SETUP_SAMPLES):
    """One benchmark run of workload ``w``; returns (metrics, attempted, failed, problems, absent)."""
    import numpy as np
    from lsgt.harness import RunConfig, run_benchmark
    from perfbench.checks import check_record
    from perfbench.workloads import CHAINS, make_collection

    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    collection = make_collection(w, seed)
    write_collection(collection, w.name, out_dir / "input.json")
    cfg = RunConfig(
        input_path=str(out_dir / "input.json"), out_dir=str(out_dir / "run"), model_kind=w.model_kind,
        iterations=w.iterations, burn_in=w.burn_in, chains=CHAINS, seed=seed, workers=w.workers,
    )
    capture = DrawCapture(out_dir / "draws")
    problems: list[str] = []

    # set-up samples, then whole untraced rounds while the next one still fits in the run length
    deadline = time.perf_counter() + seconds
    setups = setup_seconds(setup_s, setup_samples) if trace == 0 else []
    rounds, took = [], []
    while True:
        t0 = time.perf_counter()
        rounds.append(run_round(cfg, capture))
        took.append(time.perf_counter() - t0)
        if rounds[-1]["records"] != rounds[0]["records"]:
            problems.append(f"round {len(rounds)}: records differ from round 1 for the same seed")
        if time.perf_counter() + statistics.median(took) > deadline:
            break
    if len(rounds) == 1:
        # same-seed determinism: the first series again must write the same bytes
        rerun = replace(cfg, first_n=1, out_dir=str(out_dir / "rerun"))
        run_benchmark(rerun)
        again = read_records(rerun.out_dir)
        if any(again[sid] != rounds[0]["records"].get(sid) for sid in again):
            problems.append("a same-seed rerun of the first series wrote different records")
    rss_mb = peak_rss_mb(w.workers)
    scales = ", ".join(f"{r['scale']:.3f}" for r in rounds)
    print(f"set-up: {', '.join(f'{t:.2f}' for t in setups)} s; rounds: {', '.join(f'{t:.1f}' for t in took)} s; "
          f"reference seconds per second (yardstick): {scales}", file=sys.stderr)

    # output checks against independent recomputation
    records = rounds[0]["records"]
    scores = {s.id: check_record(s, json.loads(records[s.id]), CHAINS * w.kept_per_chain, problems)
              for s in collection if s.id in records}
    runtimes = {sid: statistics.median(r["runtimes"][sid] * r["scale"] for r in rounds) for sid in scores}
    diag = series_diagnostics(w, collection, capture, runtimes, problems)
    if not scores or len(diag) != len(scores):
        problems.append(f"usable draws captured for {len(diag)} of {len(scores)} forecast series")
    overall = rounds[0]["summary"].overall
    for name in ("smape", "mase"):
        if scores and not math.isclose(overall[name], statistics.fmean(v[name] for v in scores.values()),
                                       rel_tol=1e-9):
            problems.append(f"summary {name} {overall[name]!r} is not the mean of the recomputed values")

    attempted = len(collection) * len(rounds)
    failed = sum(r["failed"] for r in rounds)
    absent: set[str] = set()
    if not diag:
        return {}, attempted, failed, problems, absent
    if trace == 0:
        mean = lambda name: statistics.fmean(v[name] for v in scores.values())   # noqa: E731
        metrics = {
            "s_per_series": (statistics.median(r["wall"] * r["scale"] for r in rounds) / len(collection), "s"),
            "min_ess_per_s": (statistics.median(d["min_ess"] / d["runtime"] for d in diag.values()), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "smape": (mean("smape"), "%"),
            "mase": (mean("mase"), "1"),
            "msis_90": (mean("msis_90"), "1"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        return metrics, attempted, failed, problems, absent

    from perfbench.trace import Tracer

    traced_cfg = replace(cfg, workers=1, out_dir=str(out_dir / "traced"))
    traced_capture = DrawCapture(out_dir / "traced_draws")
    with Tracer() as tr:   # installed first, so the yardstick slices fall outside its spans
        tr.keep("forecast.simulate_paths")
        traced = run_round(traced_cfg, traced_capture)
    tr.write(out_dir / "trace.json")
    if traced["records"] != records:
        problems.append("traced records differ from untraced records")
    for sid in diag:
        a, b = capture.load(sid), traced_capture.load(sid)
        if any(not np.array_equal(a[p], b[p]) for p in SAVED_PARAMS):
            problems.append(f"{sid}: traced draws differ from untraced draws")
    traced_runtime = sum(traced["runtimes"].values()) * traced["scale"]
    metrics = layer_metrics(tr, len(collection), grid_s, diag, rounds, w.workers, traced_runtime, absent)
    absent.update(tr.absent)
    return metrics, attempted, failed, problems, absent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "lsgt" / "__init__.py").is_file():
        print(f"error: no lsgt source under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    sys.path[:0] = [str(SRC), str(ROOT)]

    if args.setup_probe:
        print(json.dumps(timed_setup()))
        return 0
    setup_s, grid_s = timed_setup()          # first thing this fresh process does

    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: --workload must be one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    metrics, attempted, failed, problems, absent = measure(
        w, args.seed, args.seconds, args.trace, OUT / f"{w.name}-{args.seed}", setup_s, grid_s)

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}{'  (absent)' if name in absent else ''}")
    for name in sorted(absent - set(metrics)):
        print(f"absent: {name}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
