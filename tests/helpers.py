"""Shared fixtures for sampler tests: small chain states with known data."""

from dataclasses import dataclass

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
)
from lsgt.sampler import ChainState, PosteriorSamples, make_grids, seasonal_forward, seasonal_gradient

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


def _reference(y, theta, prior):
    seasonal = prior.model_kind == SEASONAL
    return reference_recursion(
        y, theta.alpha, theta.beta, theta.zeta, theta.gamma, theta.rho,
        0.0 if seasonal else theta.lam, theta.chi2, theta.phi, theta.tau, theta.b1,
        theta.log_s_init, seasonal)


@dataclass
class ReferencePaths(StatePaths):
    """``StatePaths`` that also keep the reference's variances sigma2hat = chi2 * g, aligned with y[1:]."""

    sigma2hat: np.ndarray | None = None


def reference_paths(y, theta, prior):
    """``oracles.reference_recursion`` at ``theta`` as ``ReferencePaths``, or None where it fails.

    Like the program's paths, a seasonal fit's have no trend (``b`` is
    None).  It fails where it meets an arithmetic error or leaves any of
    l, log_s, yhat, sigma2hat or a non-seasonal fit's b not finite.  The
    clamp count is the number of levels l[:-1] below ``LEVEL_FLOOR``, which
    the next step floors.
    """
    try:
        l, b, log_s, yhat, g, sig2, e = _reference(y, theta, prior)
    except (ArithmeticError, ValueError):
        return None
    trend = None if prior.model_kind == SEASONAL else np.array(b)
    checked = [l, log_s, yhat, sig2] + ([] if trend is None else [trend])
    if not np.isfinite(np.concatenate(checked)).all():
        return None
    paths = ReferencePaths(l=np.array(l), b=trend, log_s=np.array(log_s), g=np.array(g), e=np.array(e),
                           sigma2hat=np.array(sig2))
    paths.clamp_events = int((paths.l[:-1] < LEVEL_FLOOR).sum())
    return paths


PATH_FIELDS = ("l", "b", "log_s", "g", "e")


def assert_paths_equal(paths, chi2, want, fields=PATH_FIELDS, where=None):
    """Assert that the ``fields`` of ``paths`` equal those of the reference ``want`` bit for bit.

    A trend that the reference does not keep must be missing (None) too.
    With the scale g, the variances chi2 * g that every reader forms must
    equal the reference's sigma2hat.
    """
    for name in fields:
        got, ref = getattr(paths, name), getattr(want, name)
        if ref is None:
            assert got is None, (where, name)
        else:
            assert got.tolist() == ref.tolist(), (where, name)
    if "g" in fields:
        assert (chi2 * paths.g).tolist() == want.sigma2hat.tolist(), (where, "sigma2hat")


def reference_yhat(y, theta, prior):
    """The one-step forecasts of ``oracles.reference_recursion`` at ``theta``, aligned with y[1:]."""
    return np.array(_reference(y, theta, prior)[3])


def reference_trend(y, theta, prior):
    """The trend path of ``oracles.reference_recursion`` at ``theta``, which a seasonal fit does not keep."""
    return np.array(_reference(y, theta, prior)[1])


def forward_gradient(y, theta):
    """dL/d(alpha, zeta, free seeds) of the SGT likelihood: ``seasonal_forward``, then ``seasonal_gradient``."""
    forward = seasonal_forward(np.asarray(y, dtype=float).tolist(), theta)
    return np.array(seasonal_gradient(theta, forward.l, forward.log_s, forward.obs, forward.c_dl,
                                      forward.c_dla))


def posterior_samples(draws, prior, y):
    """``PosteriorSamples`` of hand-made draws, each with the end state of its recursion over ``y``."""
    ends = [reference_paths(y, theta, prior).end_state(theta.m) for theta in draws]
    return PosteriorSamples(draws=draws, ends=ends, diagnostics=[], prior=prior)
