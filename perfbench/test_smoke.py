"""Smoke run of the benchmark's own code: every workload shape, a tiny collection, a few sweeps.

Run with ``python3 -m pytest perfbench`` from the root of the repository
(about half a minute, most of it building the nu grid once).
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench.run import measure  # noqa: E402
from perfbench.workloads import WORKLOADS, make_collection  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    return replace(WORKLOADS[name], n_series=3, iterations=8, burn_in=4)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_is_correct_and_reports_every_metric(name, trace, tmp_path):
    metrics, attempted, failed, problems, absent = measure(
        tiny(name), seed=1, seconds=0.0, trace=trace, out_dir=tmp_path,
        setup_s=1.0, grid_s=1.0, setup_samples=1,
    )
    assert problems == []
    assert (attempted, failed) == (3, 0)
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {k: unit for k, (_, unit) in metrics.items()}
    if trace:
        seasonal = WORKLOADS[name].m > 1
        assert ("gradients.seasonal_gradient.us_per_call" in absent) is not seasonal
        assert ("sampler.update_lambda_b1.ms_per_sweep" in absent) is seasonal


def test_collection_depends_only_on_the_seed():
    w = tiny("monthly")
    a, b, c = make_collection(w, 7), make_collection(w, 7), make_collection(w, 8)
    assert a == b
    assert a != c
    for s in a:
        assert len(s.test) == w.h
        assert w.t_min <= len(s.train) <= w.t_max
        assert all(v > 0.0 for v in s.values)
