"""Posterior-predictive path simulation and empirical forecast quantiles.

Each path continues the fitted recursion through ``model.simulate``, the
one forward simulator, which ``synth`` also uses.  It starts from the end
state that the sampler saved with each kept draw (``model.EndState``), so
no recursion over the observed series is run again here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import TimeSeries
from .errors import ForecastError
from .model import simulate
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

    Each path continues the draw's saved end state with
    ``model.simulate``, drawing each next observation from its Student-t
    predictive; end states that do not belong to a series of this length
    raise ``ForecastError``.  The point forecast is the per-horizon median
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

    T = len(series.values)
    if len(samples.ends) != len(samples.draws) or any(end.T != T for end in samples.ends):
        raise ForecastError(f"the draws' end states do not belong to series {series.id!r} of length {T}")
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
    for theta, end in zip(samples.draws, samples.ends):
        t = end.log_s.shape[0]   # the roll reads the saved factors as steps 0..m-1
        for _ in range(paths_per_draw):
            # non-positive paths are redrawn; the last attempt floors them instead
            for _ in range(RETRY_CAP):
                vals = simulate(rng, theta, cfg, end.l, end.b, end.log_s, t, h, _positive)
                if vals is not None:
                    break
            else:
                vals = simulate(rng, theta, cfg, end.l, end.b, end.log_s, t, h, floored)
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
