"""Synthetic series generation, parameter-driven or prior-driven.

``generate_series`` rolls the observation model forward from explicit
parameter values; ``draw_generative_params`` samples a complete parameter
set from the fitting priors (with the proper error-variance prior filled
in), which is what simulation-based calibration studies consume.  Series
are rejected and redrawn until strictly positive, a condition on the data
alone, so posterior calibration is unaffected.
"""

from __future__ import annotations

import math

import numpy as np

from .data import TimeSeries
from .model import (
    HETEROSCEDASTIC,
    LEVEL_FLOOR,
    SEASONAL,
    SMOOTHING_PRIOR,
    ParameterDraw,
    PriorConfig,
    effective_lam,
)
from .sampler import Grids, make_grids

Y_CAP = 1e12


def default_params(m: int = 1, model_kind: str = "non_seasonal", T: int = 0) -> ParameterDraw:
    """A well-behaved parameter set for tests and the simulate command."""
    log_s = np.zeros(m)
    if m > 1:
        log_s = np.linspace(-0.2, 0.2, m)
        log_s[-1] = -float(np.sum(log_s[:-1]))
    return ParameterDraw(
        nu=8.0,
        gamma=0.5,
        rho=0.5,
        lam=0.0 if model_kind == SEASONAL else 0.6,
        alpha=0.35,
        beta=0.3,
        zeta=0.4,
        chi2=1.0,
        phi=0.8,
        tau=0.3,
        b1=0.5,
        log_s_init=log_s,
        omega2=np.ones(max(T - 1, 1)),
    )


def _roll_model(rng, theta: ParameterDraw, cfg: PriorConfig, T: int, y1: float) -> np.ndarray | None:
    """One forward simulation; None when a value leaves (0, Y_CAP)."""
    seasonal = cfg.model_kind == SEASONAL
    m = theta.m
    lam = effective_lam(theta, cfg)
    y = np.empty(T)
    y[0] = y1
    log_s = list(theta.log_s_init) if seasonal else [0.0]
    # same level seed rule as the fit: deseasonalised first observation
    l_cur = y1 / math.exp(log_s[0]) if seasonal else y1
    b_cur = theta.b1
    for t in range(1, T):
        idx = t - m if t >= m else t
        a_t = math.exp(log_s[idx]) if seasonal else 1.0
        lp = l_cur if l_cur >= LEVEL_FLOOR else LEVEL_FLOOR
        yh = (l_cur + theta.gamma * lp ** theta.rho + lam * b_cur) * a_t
        s2 = theta.chi2 * (theta.phi ** 2 + (1.0 - theta.phi) ** 2 * lp ** (2.0 * theta.tau))
        y_t = yh + rng.standard_t(theta.nu) * math.sqrt(s2)
        if not (0.0 < y_t < Y_CAP) or not math.isfinite(y_t):
            return None
        y[t] = y_t
        l_new = theta.alpha * (y_t / a_t) + (1.0 - theta.alpha) * l_cur
        b_cur = theta.beta * (l_new - l_cur) + (1.0 - theta.beta) * b_cur
        if seasonal and t >= m:
            log_s.append(theta.zeta * math.log(y_t / l_new) + (1.0 - theta.zeta) * log_s[t - m])
        l_cur = l_new
    return y


def generate_series(rng, theta: ParameterDraw, cfg: PriorConfig, T: int,
                    series_id: str = "synthetic", h: int = 1, y1: float = 10.0,
                    category: str | None = None, max_attempts: int = 200) -> TimeSeries:
    """Simulate a strictly positive series of length T from fixed parameters."""
    m = theta.m if cfg.model_kind == SEASONAL else 1
    for _ in range(max_attempts):
        y = _roll_model(rng, theta, cfg, T, y1)
        if y is not None:
            return TimeSeries(id=series_id, values=tuple(y), m=m, h=h, category=category)
    raise RuntimeError(f"could not simulate a positive series in {max_attempts} attempts")


def draw_generative_params(rng, prior: PriorConfig, grids: Grids, T: int,
                           scales: tuple[float, float, float]) -> ParameterDraw:
    """Sample a full non-seasonal parameter set from the fitting priors.

    Needs a proper error-variance prior (``prior.chi2_prior``); coefficient
    priors are the Cauchy mixtures with the given fixed scales, truncated
    exactly as the sampler truncates them.  The trend power is drawn with
    weights 1/(rho^2+1) over its grid, matching the penalty the grid
    sampler applies, so the generative prior equals the fitted prior.
    """
    if prior.model_kind == SEASONAL:
        raise ValueError("prior-driven generation covers the non-seasonal variant only")
    if prior.chi2_prior is None:
        raise ValueError("prior-driven generation needs a proper chi2_prior")
    s_gamma, s_lambda, s_b1 = scales
    a0, b0 = prior.chi2_prior
    rho_w = 1.0 / (grids.rho ** 2 + 1.0)
    theta = ParameterDraw(
        nu=float(rng.choice(grids.nu)),
        gamma=s_gamma * rng.standard_cauchy(),
        rho=float(rng.choice(grids.rho, p=rho_w / rho_w.sum())),
        lam=_truncated_cauchy(rng, s_lambda, -100.0, 1.0),
        alpha=float(rng.beta(*SMOOTHING_PRIOR)),
        beta=float(rng.beta(*SMOOTHING_PRIOR)),
        zeta=float(rng.beta(*SMOOTHING_PRIOR)),
        chi2=1.0 / rng.gamma(a0, 1.0 / b0),
        phi=float(rng.choice(grids.phi)) if prior.variance_mode == HETEROSCEDASTIC else 1.0,
        tau=float(rng.choice(grids.tau)) if prior.variance_mode == HETEROSCEDASTIC else 0.5,
        b1=_truncated_cauchy(rng, s_b1, -100.0 + 1e-9, 1.0 - 1e-9),
        log_s_init=np.zeros(1),
        omega2=np.ones(T - 1),
    )
    return theta


def _truncated_cauchy(rng, scale: float, lo: float, hi: float) -> float:
    for _ in range(10000):
        x = scale * rng.standard_cauchy()
        if lo < x < hi:
            return float(x)
    raise RuntimeError("truncated cauchy rejection did not terminate")


def prior_predictive_series(rng, prior: PriorConfig, grids: Grids, T: int,
                            scales: tuple[float, float, float], y1: float = 10.0,
                            max_attempts: int = 10000) -> tuple[TimeSeries, ParameterDraw]:
    """Draw (params, series) jointly, rejecting on the series values only."""
    for _ in range(max_attempts):
        theta = draw_generative_params(rng, prior, grids, T, scales)
        y = _roll_model(rng, theta, prior, T, y1)
        if y is not None:
            ts = TimeSeries(id="sbc", values=tuple(y), m=1, h=1)
            return ts, theta
    raise RuntimeError("prior-predictive rejection did not terminate")


# ---------------------------------------------------------------------------
# Simulation-based calibration
# ---------------------------------------------------------------------------

def run_sbc(n_replications: int, T: int, iterations: int, seed: int,
            prior: PriorConfig, thin: int = 10, burn_in: int | None = None,
            step_size_init: float = 0.5,
            params: tuple[str, ...] = ("alpha", "gamma", "chi2")) -> dict[str, np.ndarray]:
    """Rank statistics of true parameters among their posterior draws.

    Each replication draws parameters from the priors, simulates a series,
    refits it, and records the rank of each true value among the thinned
    post-burn-in draws.  When the sampler targets the right posterior the
    ranks are uniform on {0, ..., n_kept}.
    """
    from .rng import RngStream, derive_seed
    from .sampler import SamplerConfig, fit, make_grids

    grids = make_grids(prior)
    scales = (prior.s_gamma, prior.s_lambda, prior.s_b1)
    if any(s is None for s in scales):
        raise ValueError("calibration needs fixed (data-independent) prior scales")
    ranks: dict[str, list[int]] = {p: [] for p in params}
    if burn_in is None:
        burn_in = iterations // 2
    for rep in range(n_replications):
        gen_rng = RngStream(derive_seed(seed, rep), stream=0).generator()
        series, truth = prior_predictive_series(gen_rng, prior, grids, T, scales)
        samples = fit(series, prior, SamplerConfig(
            iterations=iterations, burn_in=burn_in, chains=1,
            step_size_init=step_size_init,
            seed=derive_seed(seed, rep, 1),
        ))
        for p in params:
            kept = samples.parameter_array(p)[::thin]
            ranks[p].append(int(np.sum(kept < getattr(truth, p))))
    return {p: np.asarray(v) for p, v in ranks.items()}


def rank_uniformity_pvalue(ranks: np.ndarray, n_kept: int, n_bins: int) -> float:
    """Chi-square goodness-of-fit p-value of ranks against uniformity.

    Ranks live on the integers 0..n_kept; expected bin counts follow the
    exact number of integers falling in each bin, so any (n_kept, n_bins)
    pairing is tested correctly.  A rank outside 0..n_kept raises
    ``ValueError``: it means ``n_kept`` does not match the fits.
    """
    from scipy.stats import chisquare

    ranks = np.asarray(ranks)
    if ranks.size and (ranks.min() < 0 or ranks.max() > n_kept):
        raise ValueError(f"ranks span {ranks.min()}..{ranks.max()}, outside 0..{n_kept}")
    edges = np.linspace(-0.5, n_kept + 0.5, n_bins + 1)
    counts, _ = np.histogram(ranks, bins=edges)
    support = np.arange(n_kept + 1)
    widths, _ = np.histogram(support, bins=edges)
    expected = widths / widths.sum() * ranks.size
    return float(chisquare(counts, f_exp=expected).pvalue)
