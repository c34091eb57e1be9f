import json
from pathlib import Path

import numpy as np
import pytest

from lsgt.cli import main as cli_main
from lsgt.cli import _run_config, config_flags, parse_args
from lsgt.data import TimeSeries, load_collection, serialize_collection
from lsgt.harness import (
    MARKDOWN_COLUMNS,
    RunConfig,
    emit_report,
    fit_and_forecast,
    run_benchmark,
)
from lsgt.metrics import EvalRecord
from lsgt.model import NON_SEASONAL
from lsgt.rng import RngStream
from lsgt.synth import default_params, generate_series

from .helpers import TEST_NU_GRID_SIZE


def write_collection(path, n=3, T=36, h=4, constant_idx=None):
    series = []
    for i in range(n):
        if constant_idx is not None and i == constant_idx:
            series.append(TimeSeries(id=f"S{i + 1}", values=(5.0,) * (T + h), m=1, h=h,
                                     category="synthetic"))
            continue
        params = default_params(T=T + h)
        params.gamma = 0.4
        params.chi2 = 1.0
        from .helpers import make_prior

        s = generate_series(RngStream(40 + i, 0).generator(), params, make_prior(),
                            T=T + h, series_id=f"S{i + 1}", h=h, category="synthetic")
        series.append(s)
    serialize_collection(series, path)
    return series


def quick_config(input_path, out_dir, **overrides):
    base = dict(
        input_path=str(input_path),
        out_dir=str(out_dir),
        iterations=60,
        burn_in=30,
        chains=1,
        seed=3,
        nu_grid_size=TEST_NU_GRID_SIZE,
    )
    base.update(overrides)
    return RunConfig(**base)


def test_benchmark_single_series(tmp_path):
    write_collection(tmp_path / "c.json", n=1)
    summary = run_benchmark(quick_config(tmp_path / "c.json", tmp_path / "out"))
    assert summary.n_series == 1
    assert len(summary.records) == 1
    assert not summary.errors
    assert (tmp_path / "out" / "records" / "S1.json").exists()
    assert (tmp_path / "out" / "summary.json").exists()


def test_benchmark_aggregates_equal_record_means(tmp_path):
    write_collection(tmp_path / "c.json", n=3)
    summary = run_benchmark(quick_config(tmp_path / "c.json", tmp_path / "out"))
    st = summary.category_stats["synthetic"]
    assert st["n"] == 3
    assert st["smape"] == pytest.approx(np.mean([r.smape for r in summary.records]), abs=1e-9)
    assert st["mase"] == pytest.approx(np.mean([r.mase for r in summary.records]), abs=1e-9)
    for k, v in st["msis"].items():
        assert v == pytest.approx(np.mean([r.msis[k] for r in summary.records]), abs=1e-9)
    for k, v in st["coverage"].items():
        assert v == pytest.approx(np.mean([r.coverage[k] for r in summary.records]), abs=1e-9)


def test_benchmark_deterministic_across_worker_counts(tmp_path):
    write_collection(tmp_path / "c.json", n=3)
    run_benchmark(quick_config(tmp_path / "c.json", tmp_path / "out1", workers=1))
    run_benchmark(quick_config(tmp_path / "c.json", tmp_path / "out2", workers=3))
    for i in (1, 2, 3):
        a = (tmp_path / "out1" / "records" / f"S{i}.json").read_bytes()
        b = (tmp_path / "out2" / "records" / f"S{i}.json").read_bytes()
        assert a == b


def test_benchmark_errors_isolated(tmp_path):
    write_collection(tmp_path / "c.json", n=3, constant_idx=1)
    summary = run_benchmark(quick_config(tmp_path / "c.json", tmp_path / "out"))
    assert len(summary.errors) == 1
    assert summary.errors[0]["id"] == "S2"
    assert len(summary.records) == 2


def test_benchmark_first_n_and_ids(tmp_path):
    write_collection(tmp_path / "c.json", n=3)
    summary = run_benchmark(quick_config(tmp_path / "c.json", tmp_path / "o1", first_n=2))
    assert summary.n_series == 2
    assert [r.series_id for r in summary.records] == ["S1", "S2"]


def test_summary_json_round_trip(tmp_path):
    write_collection(tmp_path / "c.json", n=2)
    summary = run_benchmark(quick_config(tmp_path / "c.json", tmp_path / "out"))
    loaded = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert loaded == json.loads(json.dumps(summary.to_dict()))
    assert [EvalRecord(**r) for r in loaded["records"]] == summary.records


def test_csv_row_count(tmp_path):
    write_collection(tmp_path / "c.json", n=3)
    summary = run_benchmark(quick_config(tmp_path / "c.json", tmp_path / "out"))
    lines = (tmp_path / "out" / "summary.csv").read_text().strip().splitlines()
    assert len(lines) == len(summary.records) + 1


def test_markdown_columns_golden(tmp_path):
    write_collection(tmp_path / "c.json", n=2)
    run_benchmark(quick_config(tmp_path / "c.json", tmp_path / "out"))
    md = (tmp_path / "out" / "summary.md").read_text().splitlines()
    assert md[0] == (
        "| category | sMAPE | MASE | Avg Runtime (s) | Below 99p | Below 95p"
        " | Below 5p | Below 1p | MSIS 90p | MSIS 98p |"
    )
    assert MARKDOWN_COLUMNS[0] == "category"


def test_run_config_validation(tmp_path):
    with pytest.raises(ValueError):
        RunConfig(input_path="x", out_dir="y", workers=0)
    with pytest.raises(ValueError):
        RunConfig(input_path="x", out_dir="y", quantile_levels=(0.5, 0.1))
    with pytest.raises(ValueError):
        RunConfig(input_path="x", out_dir="y", seasonal_prior="nonsense")
    with pytest.raises(ValueError, match="first_n"):
        RunConfig(input_path="x", out_dir="y", first_n=-1)
    with pytest.raises(ValueError, match="burn_in"):
        RunConfig(input_path="x", out_dir="y", iterations=20, burn_in=40)


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# benchmark settings\n"
        "iters = 80\n"
        "burnin = 40\n"
        "seed = 11\n"
        "model = lgt\n"
        "quantiles = 0.05,0.5,0.95\n"
    )
    assert config_flags(cfg) == ["--iters=80", "--burnin=40", "--seed=11", "--model=lgt",
                                 "--quantiles=0.05,0.5,0.95"]
    run_cfg = _run_config(parse_args(["benchmark", "--config", str(cfg), "--input", "x"]))
    assert (run_cfg.iterations, run_cfg.burn_in, run_cfg.seed) == (80, 40, 11)
    assert run_cfg.quantile_levels == (0.05, 0.5, 0.95)
    # a single level reads as a one-level tuple
    cfg.write_text("quantiles = 0.5\n")
    run_cfg = _run_config(parse_args(["benchmark", "--config", str(cfg), "--input", "x"]))
    assert run_cfg.quantile_levels == (0.5,)


def test_cli_simulate_and_benchmark(tmp_path, capsys):
    data = tmp_path / "synthetic.json"
    rc = cli_main([
        "simulate", "--out", str(data), "--n-series", "2", "--length", "40",
        "--horizon", "4", "--seed", "5",
    ])
    assert rc == 0
    rc = cli_main([
        "benchmark", "--input", str(data), "--out", str(tmp_path / "out"),
        "--iters", "60", "--burnin", "30", "--chains", "1", "--seed", "1",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "evaluated 2/2 series" in out
    assert (tmp_path / "out" / "summary.md").exists()


def test_cli_fit(tmp_path):
    data = tmp_path / "one.json"
    rc = cli_main(["simulate", "--out", str(data), "--n-series", "1", "--length", "36",
                   "--horizon", "3", "--seed", "2"])
    assert rc == 0
    rc = cli_main(["fit", "--input", str(data), "--out", str(tmp_path / "fitout"),
                   "--iters", "60", "--burnin", "30", "--chains", "1"])
    assert rc == 0
    payload = json.loads((tmp_path / "fitout" / "fit_S1.json").read_text())
    assert payload["id"] == "S1"
    assert "alpha" in payload["parameters"]
    assert len(payload["forecast"]["point"]) == 3
    # the CLI's fit runs the benchmark's fit-and-forecast pipeline
    cfg = RunConfig(input_path=str(data), out_dir=str(tmp_path / "fitout"),
                    iterations=60, burn_in=30, chains=1)
    _, _, forecast = fit_and_forecast(load_collection(data)[0], cfg, cfg.seed)
    assert payload["forecast"] == forecast


def test_cli_fit_unknown_series_id_fails(tmp_path, capsys):
    data = tmp_path / "one.json"
    cli_main(["simulate", "--out", str(data), "--n-series", "2", "--length", "36",
              "--horizon", "3", "--seed", "2"])
    rc = cli_main(["fit", "--input", str(data), "--out", str(tmp_path / "fitout"),
                   "--series-id", "S9", "--iters", "60", "--burnin", "30", "--chains", "1"])
    assert rc == 1
    assert "'S9'" in capsys.readouterr().err
    assert not (tmp_path / "fitout").exists()


def test_cli_simulate_rejects_unknown_or_array_param(tmp_path, capsys):
    for spec in ("gama=2.0", "log_s_init=0.1"):
        rc = cli_main(["simulate", "--out", str(tmp_path / "s.json"), "--param", spec])
        assert rc == 1
        assert spec in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()
    rc = cli_main(["simulate", "--out", str(tmp_path / "s.json"), "--param", "gamma=2.0"])
    assert rc == 0


def test_cli_simulate_param_line_in_config_file_is_one_override(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("param = gamma=2.0\n")
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "file.json")]) == 0
    assert cli_main(["simulate", "--param", "gamma=2.0", "--out", str(tmp_path / "flag.json")]) == 0
    assert cli_main(["simulate", "--out", str(tmp_path / "default.json")]) == 0
    written = (tmp_path / "file.json").read_bytes()
    assert written == (tmp_path / "flag.json").read_bytes()
    assert written != (tmp_path / "default.json").read_bytes()


def test_cli_simulate_param_lines_in_config_file_add_up(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("param = gamma=2.0\nparam = chi2=0.5\n")
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "file.json")]) == 0
    assert cli_main(["simulate", "--param", "gamma=2.0", "--param", "chi2=0.5",
                     "--out", str(tmp_path / "flags.json")]) == 0
    assert cli_main(["simulate", "--param", "chi2=0.5", "--out", str(tmp_path / "last.json")]) == 0
    written = (tmp_path / "file.json").read_bytes()
    assert written == (tmp_path / "flags.json").read_bytes()
    assert written != (tmp_path / "last.json").read_bytes()


def test_cli_fit_series_id_from_config_file_is_text(tmp_path):
    data = tmp_path / "one.json"
    assert cli_main(["simulate", "--out", str(data), "--length", "36", "--horizon", "3"]) == 0
    (series,) = load_collection(data)
    serialize_collection([TimeSeries(id="007", values=series.values, m=series.m, h=series.h,
                                     category=series.category)], data)
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(f"input = {data}\nseries_id = 007\n")
    rc = cli_main(["fit", "--config", str(cfg), "--out", str(tmp_path / "fitout"),
                   "--iters", "60", "--burnin", "30", "--chains", "1"])
    assert rc == 0
    assert json.loads((tmp_path / "fitout" / "fit_007.json").read_text())["id"] == "007"


@pytest.mark.parametrize("command", ["fit", "benchmark"])
def test_cli_missing_input_is_an_error(tmp_path, capsys, command):
    rc = cli_main([command, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o").exists()


# config-file lines that argparse refuses: each integer option must be whole
# and not a boolean, and each key must name a flag by its whole name
CONFIG_FILES = {
    "bad.cfg": "length = abc\n",
    "seed_1.5.cfg": "seed = 1.5\n",
    "chains_true.cfg": "chains = true\n",
    "iters_100.9.cfg": "iters = 100.9\n",
    "workers_true.cfg": "workers = true\n",
    "first_n_1.5.cfg": "first_n = 1.5\n",
    "m_4.5.cfg": "m = 4.5\n",
    "length_36.5.cfg": "length = 36.5\n",
    "horizon_true.cfg": "horizon = true\n",
    "n_series_1.5.cfg": "n_series = 1.5\n",
    "seed_true.cfg": "seed = true\n",
    "bogus.cfg": "bogus = 1\n",
    "len.cfg": "len = 30\n",
    "small_run.cfg": "iters = 60\nburnin = 30\nchains = 1\n",
}
# a run short enough that a wrongly accepted value still ends quickly
SMALL_RUN = ["--iters", "60", "--burnin", "30", "--chains", "1"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--param", "gamma=abc"],
    ["simulate", "--param", "gamma"],
    ["simulate", "--param", "alpha=2"],
    ["simulate", "--param", "phi=3"],
    ["benchmark", "--quantiles", "0.5,abc"],
    ["benchmark", "--seasonal-prior", "foo"],
    ["benchmark", "--workers", "0"],
    ["benchmark", "--iters", "20", "--burnin", "40"],
    ["fit"],
    ["fit", "--input", "{tmp}/nope.json"],
    ["benchmark", "--input", "{tmp}/nope.json"],
    ["benchmark", "--config", "{tmp}/missing.cfg"],
    ["simulate", "--config", "{tmp}/bad.cfg"],
    ["simulate", "--param", "gamma=-50", "--length", "60"],
    ["simulate", "--length", "0"],
    ["simulate", "--length", "-3"],
    ["simulate", "--model", "sgt", "--m", "0"],
    # an m that the model cannot take
    ["simulate", "--m", "4"],
    ["simulate", "--m", "-3"],
    ["simulate", "--model", "sgt", "--m", "1"],
    ["benchmark", "--config", "{tmp}/seed_1.5.cfg", *SMALL_RUN],
    ["benchmark", "--config", "{tmp}/chains_true.cfg", "--iters", "60", "--burnin", "30"],
    ["benchmark", "--config", "{tmp}/iters_100.9.cfg", "--burnin", "30", "--chains", "1"],
    ["benchmark", "--config", "{tmp}/workers_true.cfg", *SMALL_RUN],
    ["benchmark", "--config", "{tmp}/first_n_1.5.cfg", *SMALL_RUN],
    ["fit", "--config", "{tmp}/seed_1.5.cfg", *SMALL_RUN],
    ["simulate", "--model", "sgt", "--config", "{tmp}/m_4.5.cfg"],
    ["simulate", "--config", "{tmp}/length_36.5.cfg"],
    ["simulate", "--config", "{tmp}/horizon_true.cfg"],
    ["simulate", "--config", "{tmp}/n_series_1.5.cfg"],
    ["simulate", "--config", "{tmp}/seed_true.cfg"],
    ["benchmark", "--config", "{tmp}/bogus.cfg", *SMALL_RUN],
    ["benchmark", "--iters", "abc"],
    # a prefix of a flag's name is not the flag
    ["simulate", "--len", "30"],
    ["simulate", "--config", "{tmp}/len.cfg"],
    ["benchmark", "--conf", "{tmp}/small_run.cfg"],
], ids=lambda argv: " ".join(argv))
def test_cli_malformed_input_is_an_error_not_a_traceback(tmp_path, capsys, argv):
    # a valid collection, so that only the option is at fault; `fit` gets an empty one
    data = tmp_path / "d.json"
    if argv == ["fit"]:
        data.write_text("[]")
    else:
        write_collection(data, n=1)
    for name, text in CONFIG_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    if argv[0] in ("fit", "benchmark") and "--input" not in argv:
        argv += ["--input", str(data)]
    rc = cli_main([*argv, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o").exists()


# each subcommand refuses the flags of the others that it does not read
REFUSED_FLAGS = [
    ("fit", "--workers", "2"),
    ("fit", "--first-n", "1"),
    ("simulate", "--input", "{data}"),
    ("simulate", "--variance", "homo"),
    ("simulate", "--seasonal-prior", "horseshoe"),
    ("simulate", "--iters", "60"),
    ("simulate", "--burnin", "30"),
    ("simulate", "--chains", "1"),
    ("simulate", "--workers", "2"),
    ("simulate", "--first-n", "1"),
    ("simulate", "--quantiles", "0.5"),
]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command,flag,value", REFUSED_FLAGS,
                         ids=[f"{command} {flag}" for command, flag, _ in REFUSED_FLAGS])
def test_cli_subcommand_refuses_a_flag_it_does_not_read(tmp_path, capsys, command, flag, value, source):
    data = tmp_path / "d.json"
    write_collection(data, n=1)
    value = value.replace("{data}", str(data))
    argv = [command, "--out", str(tmp_path / "o")]
    if command == "fit":
        argv += ["--input", str(data), *SMALL_RUN]
    if source == "flag":
        argv += [flag, value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag[2:].replace('-', '_')} = {value}\n")
        argv += ["--config", str(cfg)]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    assert not (tmp_path / "o").exists()


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    data = tmp_path / "d.json"
    cli_main(["simulate", "--out", str(data), "--n-series", "1", "--length", "36",
              "--horizon", "3", "--seed", "4"])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"input = {data}\niters = 60\nburnin = 30\nchains = 1\nseed = 9\n")
    rc = cli_main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "o1")])
    assert rc == 0
    # the flag must beat the file value
    rc = cli_main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "o2"),
                   "--seed", "10"])
    assert rc == 0
    s1 = json.loads((tmp_path / "o1" / "summary.json").read_text())
    s2 = json.loads((tmp_path / "o2" / "summary.json").read_text())
    assert s1["config"]["seed"] == 9
    assert s2["config"]["seed"] == 10
