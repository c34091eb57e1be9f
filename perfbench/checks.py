"""Output checks that do not use ``lsgt.metrics``.

The accuracy scores are recomputed from the written records and the
held-out values with the textbook formulas (Makridakis and Hibon 2000 for
sMAPE, Hyndman and Koehler 2006 for MASE, Gneiting and Raftery 2007 for the
interval score), and every forecast and retained draw is checked against
the properties it must have.  Each check appends a message to ``problems``
instead of raising, so one run reports every fault it finds.
"""

from __future__ import annotations

import math

from .workloads import Series

REL_TOL = 1e-9
ZERO_SUM_TOL = 1e-9


def smape(actual, forecast) -> float:
    """Symmetric MAPE on the 0-200 scale."""
    return 200.0 / len(actual) * sum(abs(a - f) / (abs(a) + abs(f)) for a, f in zip(actual, forecast))


def naive_scale(insample, m: int) -> float:
    """In-sample mean absolute error of the seasonal naive forecast."""
    diffs = [abs(insample[t] - insample[t - m]) for t in range(m, len(insample))]
    return sum(diffs) / len(diffs)


def mase(actual, forecast, insample, m: int) -> float:
    return sum(abs(a - f) for a, f in zip(actual, forecast)) / len(actual) / naive_scale(insample, m)


def msis(actual, lower, upper, alpha: float, insample, m: int) -> float:
    """Mean scaled interval score of the central (1 - alpha) interval."""
    total = 0.0
    for a, lo, hi in zip(actual, lower, upper):
        total += hi - lo
        if a < lo:
            total += 2.0 / alpha * (lo - a)
        if a > hi:
            total += 2.0 / alpha * (a - hi)
    return total / len(actual) / naive_scale(insample, m)


def coverage(actual, quantile) -> float:
    """Share of held-out values below a forecast quantile."""
    return sum(a < q for a, q in zip(actual, quantile)) / len(actual)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def check_record(series: Series, record: dict, n_draws: int, problems: list[str]) -> dict:
    """Check one written record; return the recomputed scores."""
    sid, h = series.id, series.h
    actual, insample = series.test, series.train
    levels = sorted(record["quantiles"], key=float)
    paths = {"point": record["point"], "mean": record["mean"]}
    paths.update({f"quantile {q}": record["quantiles"][q] for q in levels})
    for name, path in paths.items():
        if len(path) != h:
            problems.append(f"{sid}: {name} has length {len(path)}, want {h}")
        elif not all(math.isfinite(v) and v > 0.0 for v in path):
            problems.append(f"{sid}: {name} has a value that is not finite and positive")
    for k in range(h):
        column = [record["quantiles"][q][k] for q in levels]
        if any(b < a for a, b in zip(column, column[1:])):
            problems.append(f"{sid}: quantiles decrease with the level at step {k + 1}")
    if record["n_draws"] != n_draws:
        problems.append(f"{sid}: n_draws {record['n_draws']}, want chains x kept sweeps = {n_draws}")

    scores = {
        "smape": smape(actual, record["point"]),
        "mase": mase(actual, record["point"], insample, series.m),
        "msis_90": msis(actual, record["quantiles"]["0.05"], record["quantiles"]["0.95"], 0.1,
                        insample, series.m),
    }
    written = record["metrics"]
    for name, value in (("smape", written["smape"]), ("mase", written["mase"]),
                        ("msis_90", written["msis"]["90"])):
        if not _close(value, scores[name]):
            problems.append(f"{sid}: written {name} {value!r} != recomputed {scores[name]!r}")
    for q in levels:
        want = coverage(actual, record["quantiles"][q])
        if not _close(written["coverage"][q], want):
            problems.append(f"{sid}: written coverage below {q} {written['coverage'][q]!r} != {want!r}")
    return scores


def check_draws(sid: str, draws: dict, nu_grid: set[float], seasonal: bool, problems: list[str]) -> None:
    """Every retained draw lies in the support of its parameter."""
    def inside(name, ok):
        bad = [float(v) for v in draws[name].ravel() if not ok(float(v))]
        if bad:
            problems.append(f"{sid}: {len(bad)} draws of {name} outside the support, e.g. {bad[0]!r}")

    inside("alpha", lambda v: 0.0 < v < 1.0)
    inside("beta", lambda v: 0.0 < v < 1.0)
    if seasonal:
        inside("zeta", lambda v: 0.0 < v < 1.0)
    inside("rho", lambda v: -0.5 <= v <= 1.0)
    inside("nu", lambda v: v in nu_grid)
    inside("chi2", lambda v: math.isfinite(v) and v > 0.0)
    inside("seed_sum", lambda v: abs(v) <= ZERO_SUM_TOL)
