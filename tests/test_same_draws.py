"""``scripts/same_draws.py`` on synthetic benchmark output directories."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "same_draws.py"


def make_run(root: Path, yard_s: float, records=None, draws=None) -> Path:
    """A directory laid out as ``perfbench/run.py`` leaves one: records and saved draws of two series."""
    records = records or {"s0": b'{"smape": 1.5}', "s1": b'{"smape": 2.5}'}
    draws = draws or {"s0": np.array([0.1, 0.2]), "s1": np.array([0.3, np.nan])}
    (root / "run" / "records").mkdir(parents=True)
    (root / "draws").mkdir()
    for sid, text in records.items():
        (root / "run" / "records" / f"{sid}.json").write_bytes(text)
    for sid, alpha in draws.items():
        np.savez(root / "draws" / f"{sid}.npz", alpha=alpha, chains=2, yard_s=yard_s)
    return root


def same_draws(a: Path, b: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)], capture_output=True, text=True)


def test_runs_that_differ_only_in_timings_are_the_same(tmp_path):
    out = same_draws(make_run(tmp_path / "a", 0.25), make_run(tmp_path / "b", 0.5))
    assert out.returncode == 0, out.stdout
    assert "2 records, 2 draw files" in out.stdout


@pytest.mark.parametrize("change, expected", [
    (dict(records={"s0": b'{"smape": 1.5}', "s1": b'{"smape": 2.6}'}), "s1.json: bytes differ"),
    (dict(records={"s0": b'{"smape": 1.5}'}), "s1.json: only under"),
    (dict(draws={"s0": np.array([0.1, 0.2]), "s1": np.array([0.3, 0.4])}), "s1.npz: array alpha differs"),
    (dict(draws={"s0": np.array([0.1, 0.2]), "s1": np.array([0.3, np.nan], dtype=np.float32)}),
     "s1.npz: array alpha differs"),
    (dict(draws={"s0": np.array([0.1, 0.2])}), "s1.npz: only under"),
], ids=["record_bytes", "record_missing", "draw_value", "draw_dtype", "draw_missing"])
def test_any_other_difference_fails(tmp_path, change, expected):
    out = same_draws(make_run(tmp_path / "a", 0.25), make_run(tmp_path / "b", 0.25, **change))
    assert out.returncode == 1
    assert expected in out.stdout


def test_directories_without_runs_fail(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    out = same_draws(tmp_path / "a", tmp_path / "b")
    assert out.returncode == 1
    assert "no records" in out.stdout and "no draw files" in out.stdout
