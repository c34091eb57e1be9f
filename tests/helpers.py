"""Shared fixtures for sampler tests: small chain states with known data."""

import numpy as np

from lsgt.model import (
    HETEROSCEDASTIC,
    HOMOSCEDASTIC,
    LEVEL_FLOOR,
    NON_SEASONAL,
    SEASONAL,
    ParameterDraw,
    PriorConfig,
    SeasonalPrior,
    StatePaths,
    effective_lam,
)
from lsgt.sampler import ChainState, PosteriorSamples, make_grids

from .oracles import reference_recursion

TEST_NU_GRID_SIZE = 12


def make_prior(seasonal=False, hetero=True, seasonal_prior="horseshoe", chi2_prior=None):
    return PriorConfig(
        model_kind=SEASONAL if seasonal else NON_SEASONAL,
        variance_mode=HETEROSCEDASTIC if hetero else HOMOSCEDASTIC,
        seasonal_prior=SeasonalPrior.parse(seasonal_prior),
        nu_grid_size=TEST_NU_GRID_SIZE,
        chi2_prior=chi2_prior,
    )


def random_state(rng, T=9, seasonal=False, m=1, hetero=True, prior=None, **theta_overrides):
    """A small, fully randomised but valid ChainState."""
    y = np.abs(rng.normal(25.0, 5.0, size=T)) + 5.0
    if prior is None:
        prior = make_prior(seasonal=seasonal, hetero=hetero)
    seeds = np.zeros(m)
    if seasonal:
        seeds = rng.normal(0.0, 0.2, size=m)
        seeds[-1] = -float(np.sum(seeds[:-1]))
    params = dict(
        nu=6.0,
        gamma=float(rng.normal(0.0, 0.4)),
        rho=0.5,
        lam=0.0 if seasonal else float(rng.uniform(-0.5, 0.9)),
        alpha=float(rng.uniform(0.2, 0.6)),
        beta=float(rng.uniform(0.2, 0.6)),
        zeta=float(rng.uniform(0.2, 0.6)),
        chi2=float(np.exp(rng.normal(0.0, 0.3))),
        phi=float(rng.uniform(0.2, 0.9)) if hetero else 1.0,
        tau=float(rng.uniform(0.1, 0.9)),
        b1=float(rng.normal(0.0, 0.3)),
        log_s_init=seeds,
        omega2=np.exp(rng.normal(0.0, 0.3, size=T - 1)),
        xi_gamma2=float(np.exp(rng.normal(0.0, 0.3))),
        xi_lambda2=float(np.exp(rng.normal(0.0, 0.3))),
        xi_b1_2=float(np.exp(rng.normal(0.0, 0.3))),
        psi2=np.exp(rng.normal(0.0, 0.3, size=m)),
        delta2=float(np.exp(rng.normal(0.0, 0.3))),
        eta_s=np.exp(rng.normal(0.0, 0.3, size=m)),
        eta_delta=float(np.exp(rng.normal(0.0, 0.3))),
    )
    params.update(theta_overrides)
    theta = ParameterDraw(**params)
    scales = prior.resolved_scales(y)
    grids = make_grids(prior)
    return ChainState(y, prior, theta, scales, grids)


def reference_paths(y, theta, prior):
    """``oracles.reference_recursion`` at ``theta`` as ``StatePaths``, or None where it fails.

    It fails where it meets an arithmetic error or leaves any of l, b,
    log_s, yhat or sigma2hat not finite.  The clamp count is the number of
    levels l[:-1] below ``LEVEL_FLOOR``, which the next step floors.
    """
    try:
        l, b, log_s, yhat, sig2, e = reference_recursion(
            y, theta.alpha, theta.beta, theta.zeta, theta.gamma, theta.rho,
            effective_lam(theta, prior), theta.chi2, theta.phi, theta.tau, theta.b1,
            theta.log_s_init, prior.model_kind == SEASONAL)
    except (ArithmeticError, ValueError):
        return None
    paths = StatePaths(l=np.array(l), b=np.array(b), log_s=np.array(log_s), yhat=np.array(yhat),
                       sigma2hat=np.array(sig2), e=np.array(e))
    if not all(np.isfinite(v).all() for v in (paths.l, paths.b, paths.log_s, paths.yhat, paths.sigma2hat)):
        return None
    paths.clamp_events = int((paths.l[:-1] < LEVEL_FLOOR).sum())
    return paths


def posterior_samples(draws, prior, y, m=1):
    """``PosteriorSamples`` of hand-made draws, each with the end state of its recursion over ``y``."""
    ends = [reference_paths(y, theta, prior).end_state(theta.m) for theta in draws]
    return PosteriorSamples(draws=draws, ends=ends, diagnostics=[], prior=prior, m=m)
