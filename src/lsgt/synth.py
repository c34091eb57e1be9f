"""Synthetic series generation, parameter-driven or prior-driven.

``generate_series`` rolls the observation model forward from explicit
parameter values with ``model.simulate``, the simulator that forecasts
use too, from the fit's level seed (``model.initial_level``);
``draw_generative_params`` samples a complete parameter set from the
fitting priors (with the proper error-variance prior filled in), which is
what simulation-based calibration studies consume.  Series are rejected
and redrawn until every value lies in (0, ``Y_CAP``), a condition on the
data alone, so posterior calibration is unaffected.
"""

from __future__ import annotations

import numpy as np

from .data import TimeSeries
from .errors import ForecastError, SeriesValidationError
from .model import (
    B1_RANGE,
    HETEROSCEDASTIC,
    LAM_RANGE,
    SEASONAL,
    SMOOTHING_PRIOR,
    ParameterDraw,
    PriorConfig,
    initial_level,
    simulate,
)
from .sampler import Grids, make_grids

Y_CAP = 1e12
Y1 = 10.0                    # the first value of every simulated series, unless a caller sets it
SERIES_ATTEMPTS = 200        # simulations of a series from fixed parameters before giving up
PRIOR_PREDICTIVE_ATTEMPTS = 10000  # joint (parameters, series) draws of one calibration replication
SBC_STEP_SIZE_INIT = 0.5     # initial MALA step size of each calibration fit


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


def _below_cap(v):
    return v if 0.0 < v < Y_CAP else None


def generate_series(rng, theta: ParameterDraw, cfg: PriorConfig, T: int,
                    series_id: str = "synthetic", h: int = 1, y1: float = Y1,
                    category: str | None = None) -> TimeSeries:
    """Simulate a series of length T, every value in (0, Y_CAP), from fixed parameters."""
    m = theta.m if cfg.model_kind == SEASONAL else 1
    if T < 2 or m < 1:
        raise SeriesValidationError(f"cannot simulate length {T} with m={m}: need T >= 2, m >= 1",
                                    series_id=series_id)
    l1 = initial_level([y1], cfg.model_kind, theta.log_s_init)
    for _ in range(SERIES_ATTEMPTS):
        y = simulate(rng, theta, cfg, l1, theta.b1, theta.log_s_init, 1, T - 1, _below_cap)
        if y is not None:
            return TimeSeries(id=series_id, values=(y1, *y), m=m, h=h, category=category)
    raise ForecastError(f"could not simulate a series in (0, {Y_CAP:g}) in {SERIES_ATTEMPTS} attempts")


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
        lam=_truncated_cauchy(rng, s_lambda, *LAM_RANGE),
        alpha=float(rng.beta(*SMOOTHING_PRIOR)),
        beta=float(rng.beta(*SMOOTHING_PRIOR)),
        zeta=float(rng.beta(*SMOOTHING_PRIOR)),
        chi2=1.0 / rng.gamma(a0, 1.0 / b0),
        phi=float(rng.choice(grids.phi)) if prior.variance_mode == HETEROSCEDASTIC else 1.0,
        tau=float(rng.choice(grids.tau)) if prior.variance_mode == HETEROSCEDASTIC else 0.5,
        b1=_truncated_cauchy(rng, s_b1, *B1_RANGE),
        log_s_init=np.zeros(1),
        omega2=np.ones(T - 1),
    )
    return theta


def _truncated_cauchy(rng, scale: float, lo: float, hi: float) -> float:
    for _ in range(10000):
        x = scale * rng.standard_cauchy()
        if lo < x < hi:
            return float(x)
    raise ForecastError("truncated cauchy rejection did not terminate")


def prior_predictive_series(rng, prior: PriorConfig, grids: Grids, T: int,
                            scales: tuple[float, float, float]) -> tuple[TimeSeries, ParameterDraw]:
    """Draw (params, series) jointly, rejecting on the series values only."""
    for _ in range(PRIOR_PREDICTIVE_ATTEMPTS):
        theta = draw_generative_params(rng, prior, grids, T, scales)
        l1 = initial_level([Y1], prior.model_kind, theta.log_s_init)
        y = simulate(rng, theta, prior, l1, theta.b1, theta.log_s_init, 1, T - 1, _below_cap)
        if y is not None:
            return TimeSeries(id="sbc", values=(Y1, *y), m=1, h=1), theta
    raise ForecastError("prior-predictive rejection did not terminate")


# ---------------------------------------------------------------------------
# Simulation-based calibration
# ---------------------------------------------------------------------------

def run_sbc(n_replications: int, T: int, iterations: int, seed: int,
            prior: PriorConfig, thin: int = 10, burn_in: int | None = None,
            params: tuple[str, ...] = ("alpha", "gamma", "chi2")) -> dict[str, np.ndarray]:
    """Rank statistics of true parameters among their posterior draws.

    Each replication draws parameters from the priors, simulates a series,
    refits it, and records the rank of each true value among the thinned
    post-burn-in draws (``sbc_rank``, ties broken from a stream of their
    own, so no fit or series moves).  When the sampler targets the right
    posterior the ranks are uniform on {0, ..., n_kept}.
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
        tie_rng = RngStream(derive_seed(seed, rep, 2), stream=0).generator()
        series, truth = prior_predictive_series(gen_rng, prior, grids, T, scales)
        samples = fit(series, prior, SamplerConfig(
            iterations=iterations, burn_in=burn_in, chains=1,
            step_size_init=SBC_STEP_SIZE_INIT,
            seed=derive_seed(seed, rep, 1),
        ))
        for p in params:
            ranks[p].append(sbc_rank(samples.parameter_array(p)[::thin], getattr(truth, p), tie_rng))
    return {p: np.asarray(v) for p, v in ranks.items()}


def sbc_rank(kept: np.ndarray, truth: float, rng) -> int:
    """#(kept < truth) plus a uniform integer in [0, #(kept == truth)]: draws
    of a grid parameter tie with its true value, which would push ranks low."""
    return int(np.sum(kept < truth)) + int(rng.integers(int(np.sum(kept == truth)) + 1))


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
