"""Detailed-balance checks: long MH runs against quadrature posteriors.

These keep every non-MH parameter fixed and compare the empirical marginal
of a long chain of only-MH updates against a direct numerical integration
of likelihood x prior, which exercises the asymmetric proposal-density
terms of the gradient-assisted scheme.
"""

import math

import numpy as np
import pytest
from scipy.integrate import simpson

from lsgt.model import negative_log_likelihood, run_recursion
from lsgt.sampler import StepSizeState, update_seasonals_mh, update_smoothing_mh

from .helpers import random_state


def run_mh_chain(state, rng, update, n_adapt, n_keep, names):
    step = StepSizeState(log_eps=math.log(0.1))
    for _ in range(n_adapt):
        update(state, rng, step, True, 0.55)
    kept = np.empty((n_keep, len(names)))
    for i in range(n_keep):
        update(state, rng, step, False, 0.55)
        kept[i] = [getattr(state.theta, n) if n != "seed0" else state.theta.log_s_init[0]
                   for n in names]
    return kept, step


def test_smoothing_mh_matches_quadrature_posterior(rng):
    # data with a pronounced smoothed trend so both weights are informed
    # and the joint chain mixes quickly
    from lsgt.model import NON_SEASONAL, SMOOTHING_PRIOR, PriorConfig
    from lsgt.synth import default_params, generate_series

    gen = default_params(T=14)
    gen.lam = 0.9
    gen.beta = 0.5
    gen.alpha = 0.5
    gen.gamma = 0.0
    gen.chi2 = 0.05
    cfg_gen = PriorConfig(model_kind=NON_SEASONAL)
    series = generate_series(rng, gen, cfg_gen, T=14, y1=20.0)
    state = random_state(rng, T=14, lam=0.9, gamma=0.0)
    state.y = np.asarray(series.values)
    state.set_paths(run_recursion(state.y, state.theta, state.prior))

    y, prior, theta = state.y, state.prior, state.theta
    a_prior, b_prior = SMOOTHING_PRIOR

    grid = np.linspace(1e-4, 1.0 - 1e-4, 201)
    log_post = np.empty((grid.size, grid.size))
    for i, a in enumerate(grid):
        for j, b in enumerate(grid):
            trial = theta.copy()
            trial.alpha, trial.beta = float(a), float(b)
            nll = negative_log_likelihood(run_recursion(y, trial, prior), theta.nu)
            log_post[i, j] = -nll + (a_prior - 1.0) * math.log(a) + (b_prior - 1.0) * math.log(1.0 - a) \
                + (a_prior - 1.0) * math.log(b) + (b_prior - 1.0) * math.log(1.0 - b)
    post = np.exp(log_post - log_post.max())
    z = simpson(simpson(post, x=grid, axis=1), x=grid)
    mean_alpha = simpson(grid * simpson(post, x=grid, axis=1), x=grid) / z
    mean_beta = simpson(grid * simpson(post, x=grid, axis=0), x=grid) / z

    kept, step = run_mh_chain(state, rng, update_smoothing_mh, 3000, 60_000, ["alpha", "beta"])
    assert 0.2 < (step.accepted / step.proposals) < 0.9
    assert np.mean(kept[:, 0]) == pytest.approx(mean_alpha, abs=0.02)
    assert np.mean(kept[:, 1]) == pytest.approx(mean_beta, abs=0.02)


def test_seasonal_mh_matches_quadrature_posterior(rng):
    state = random_state(rng, T=12, seasonal=True, m=2, hetero=False)
    y, prior, theta = state.y, state.prior, state.theta
    psi2, delta2 = theta.psi2, theta.delta2

    grid = np.linspace(-1.5, 1.5, 801)
    log_post = np.empty(grid.size)
    for i, s0 in enumerate(grid):
        trial = theta.copy()
        trial.log_s_init = np.array([s0, -s0])
        nll = negative_log_likelihood(run_recursion(y, trial, prior), theta.nu)
        lp = -0.5 * (s0 ** 2 / (psi2[0] * delta2) + s0 ** 2 / (psi2[1] * delta2))
        log_post[i] = -nll + lp
    post = np.exp(log_post - log_post.max())
    z = simpson(post, x=grid)
    mean_q = simpson(grid * post, x=grid) / z
    sd_q = math.sqrt(simpson(grid ** 2 * post, x=grid) / z - mean_q ** 2)

    kept, step = run_mh_chain(state, rng, update_seasonals_mh, 3000, 60_000, ["seed0"])
    assert 0.2 < (step.accepted / step.proposals) < 0.95
    assert np.mean(kept[:, 0]) == pytest.approx(mean_q, abs=max(0.02, 0.1 * sd_q))
    # the balancing seed always mirrors the free one
    assert state.theta.log_s_init[1] == -state.theta.log_s_init[0]


def test_mh_adapts_toward_target(rng):
    state = random_state(rng, T=25)
    step = StepSizeState(log_eps=math.log(5.0))  # absurdly large start
    for _ in range(1500):
        update_smoothing_mh(state, rng, step, True, 0.55)
    accepted = 0
    n = 2000
    for _ in range(n):
        accepted += update_smoothing_mh(state, rng, step, False, 0.55)
    assert 0.35 <= accepted / n <= 0.75


def test_mh_rejects_non_finite_proposals(rng):
    state = random_state(rng, T=8)
    step = StepSizeState(log_eps=math.log(80.0))  # proposals fly to the boundary
    before = (state.theta.alpha, state.theta.beta)
    moved = 0
    for _ in range(50):
        moved += update_smoothing_mh(state, rng, step, False, 0.55)
    # extreme proposals saturate the sigmoid and must be auto-rejected
    assert moved <= 5
    state.theta.validate()
