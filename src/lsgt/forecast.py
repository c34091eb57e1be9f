"""Posterior-predictive path simulation and empirical forecast quantiles.

Each path continues the fitted recursion through ``model.simulate``, the
one forward simulator, which ``synth`` also uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import TimeSeries
from .errors import ForecastError
from .model import run_recursion, simulate
from .sampler import PosteriorSamples

DEFAULT_LEVELS = (0.01, 0.05, 0.5, 0.95, 0.99)

SIM_FLOOR = 1e-10
RETRY_CAP = 20


@dataclass
class ForecastResult:
    """Per-horizon point forecasts and empirical predictive quantiles."""

    point: np.ndarray
    mean: np.ndarray
    quantiles: dict[float, np.ndarray]
    n_paths: int
    seed: int
    floor_events: int = 0

    def interval(self, level: float) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) quantile paths of the central ``level`` interval."""
        half = (1.0 - level) / 2.0
        lo, hi = round(half, 10), round(1.0 - half, 10)
        try:
            return self.quantiles[lo], self.quantiles[hi]
        except KeyError as exc:
            raise ForecastError(f"quantile level {exc} not simulated") from exc


def _positive(v):
    return v if v > 0.0 else None


def simulate_paths(samples: PosteriorSamples, series: TimeSeries, h: int,
                   paths_per_draw: int = 2, rng=None, seed: int = 0,
                   levels=DEFAULT_LEVELS) -> ForecastResult:
    """Simulate h-step posterior-predictive paths for every retained draw.

    Each path rolls the state to the end of the observed series, then
    continues it with ``model.simulate``, drawing each next observation
    from its Student-t predictive.  The point forecast is the per-horizon median
    over all draws and paths (the mean is reported alongside); quantiles
    are empirical.
    """
    if not samples.draws:
        raise ForecastError("no posterior draws to simulate from")
    if h < 1:
        raise ForecastError(f"horizon must be >= 1, got {h}")
    if rng is None:
        from .rng import RngStream

        rng = RngStream(seed, stream=0).generator()
    levels = tuple(sorted(levels))
    if any(not 0.0 < q < 1.0 for q in levels):
        raise ForecastError(f"quantile levels must lie in (0,1), got {levels}")

    y = np.asarray(series.values, dtype=float)
    T = len(y)
    cfg = samples.prior
    total = len(samples.draws) * paths_per_draw
    sims = np.empty((total, h))
    floor_events = 0

    def floored(v):
        nonlocal floor_events
        if v > 0.0:
            return v
        floor_events += 1
        return SIM_FLOOR

    row = 0
    for theta in samples.draws:
        paths = run_recursion(y, theta, cfg)
        l0 = float(paths.l[-1])
        b0 = float(paths.b[-1])
        for _ in range(paths_per_draw):
            # non-positive paths are redrawn; the last attempt floors them instead
            for _ in range(RETRY_CAP):
                vals = simulate(rng, theta, cfg, l0, b0, paths.log_s, T, h, _positive)
                if vals is not None:
                    break
            else:
                vals = simulate(rng, theta, cfg, l0, b0, paths.log_s, T, h, floored)
            sims[row] = vals
            row += 1

    quantiles = {float(q): np.quantile(sims, q, axis=0) for q in levels}
    return ForecastResult(
        point=np.median(sims, axis=0),
        mean=sims.mean(axis=0),
        quantiles=quantiles,
        n_paths=total,
        seed=seed,
        floor_events=floor_events,
    )
