"""Posterior-predictive path simulation and empirical forecast quantiles."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import TimeSeries
from .errors import ForecastError
from .model import (
    LEVEL_FLOOR,
    SEASONAL,
    ParameterDraw,
    PriorConfig,
    effective_lam,
    run_recursion,
)
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


def _simulate_path(rng, y, theta: ParameterDraw, cfg: PriorConfig,
                   l0: float, b0: float, log_s: np.ndarray, h: int, floor: bool):
    """Roll the recursions h steps ahead with simulated observations.

    Returns (values, floor count), or None when a non-positive observation
    is drawn and ``floor`` is off; with ``floor`` on, such draws are
    replaced by ``SIM_FLOOR`` and counted.
    """
    seasonal = cfg.model_kind == SEASONAL
    m = theta.m
    T = len(y)
    lam = effective_lam(theta, cfg)
    gamma, rho = theta.gamma, theta.rho
    alpha, beta, zeta = theta.alpha, theta.beta, theta.zeta
    chi2, phi, tau = theta.chi2, theta.phi, theta.tau

    l_cur, b_cur = l0, b0
    logs_ext = list(log_s)
    out = np.empty(h)
    floors = 0
    for k in range(h):
        t = T + k
        a_t = math.exp(logs_ext[t - m]) if seasonal else 1.0
        lp = l_cur if l_cur >= LEVEL_FLOOR else LEVEL_FLOOR
        yh = (l_cur + gamma * lp ** rho + lam * b_cur) * a_t
        s2 = chi2 * (phi ** 2 + (1.0 - phi) ** 2 * lp ** (2.0 * tau))
        y_star = yh + rng.standard_t(theta.nu) * math.sqrt(s2)
        if not (y_star > 0.0):
            if not floor:
                return None
            y_star = SIM_FLOOR
            floors += 1
        l_new = alpha * (y_star / a_t) + (1.0 - alpha) * l_cur
        b_new = beta * (l_new - l_cur) + (1.0 - beta) * b_cur
        if seasonal:
            logs_ext.append(zeta * math.log(y_star / l_new) + (1.0 - zeta) * logs_ext[t - m])
        if not (math.isfinite(l_new) and math.isfinite(b_new) and math.isfinite(y_star)):
            raise ForecastError(f"non-finite simulated state at step {k + 1}")
        out[k] = y_star
        l_cur, b_cur = l_new, b_new
    return out, floors


def simulate_paths(samples: PosteriorSamples, series: TimeSeries, h: int,
                   paths_per_draw: int = 2, rng=None, seed: int = 0,
                   levels=DEFAULT_LEVELS) -> ForecastResult:
    """Simulate h-step posterior-predictive paths for every retained draw.

    Each path rolls the state to the end of the observed series, then
    iterates the recursions forward, drawing each next observation from its
    Student-t predictive.  The point forecast is the per-horizon median
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
    cfg = samples.prior
    total = len(samples.draws) * paths_per_draw
    sims = np.empty((total, h))
    floor_events = 0
    row = 0
    for theta in samples.draws:
        paths = run_recursion(y, theta, cfg)
        l0 = float(paths.l[-1])
        b0 = float(paths.b[-1])
        for _ in range(paths_per_draw):
            # non-positive paths are redrawn; the last attempt floors them instead
            for attempt in range(RETRY_CAP + 1):
                path = _simulate_path(rng, y, theta, cfg, l0, b0, paths.log_s, h,
                                      floor=attempt == RETRY_CAP)
                if path is not None:
                    break
            vals, floors = path
            floor_events += floors
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
