"""Quadrature-oracle checks for every conjugate conditional.

Each test writes the likelihood x prior product directly from the model
equations, integrates it numerically, and compares against the closed-form
conditional the sampler draws from.  Inverse-gamma conditionals with shape
<= 2 are compared through their reciprocal moments (gamma moments), which
always exist.
"""

import math

import numpy as np
import pytest
from scipy.stats import kstest

from lsgt import sampler
from lsgt.model import LEVEL_FLOOR, effective_lam
from lsgt.sampler import (
    ChainState,
    b1_conditional,
    chi2_conditional,
    delta2_conditional,
    eta_delta_conditional,
    eta_s_conditional,
    gamma_conditional,
    lambda_conditional,
    normal_moments,
    omega2_conditional,
    psi2_conditional,
    update_chi2,
    update_lambda_b1,
    update_omega2,
    xi_conditional,
)
from lsgt.dists import sample_inverse_gamma

from .helpers import make_prior, random_state, reference_paths
from .oracles import ig_moments, ig_reciprocal_moments, quad_moments_positive, quad_moments_real

REL = 1e-3


def heteroscedastic_factor(state):
    th = state.theta
    lp = np.maximum(state.paths.l[:-1], LEVEL_FLOOR)
    return th.phi ** 2 + (1.0 - th.phi) ** 2 * lp ** (2.0 * th.tau)


# ---------------------------------------------------------------------------
# error variance
# ---------------------------------------------------------------------------

def test_chi2_conditional_matches_quadrature(rng):
    state = random_state(rng, T=11)
    g = heteroscedastic_factor(state)
    e = state.paths.e
    om = state.theta.omega2
    n = e.shape[0]

    def log_density(x):
        # scale-invariant prior 1/x times the normal likelihood
        return -math.log(x) - 0.5 * n * math.log(x) + float(
            np.sum(-0.5 * np.log(g * om) - e ** 2 / (2.0 * x * g * om))
        )

    shape, scale = chi2_conditional(state)
    mean_q, var_q = quad_moments_positive(log_density)
    mean_a, var_a = ig_moments(shape, scale)
    assert mean_q == pytest.approx(mean_a, rel=REL)
    assert var_q == pytest.approx(var_a, rel=REL)
    rmean_q, rvar_q = quad_moments_positive(log_density, transform=lambda x: 1.0 / x)
    rmean_a, rvar_a = ig_reciprocal_moments(shape, scale)
    assert rmean_q == pytest.approx(rmean_a, rel=REL)
    assert rvar_q == pytest.approx(rvar_a, rel=REL)


def test_chi2_conditional_with_proper_prior(rng):
    state = random_state(rng, T=9, prior=None)
    state.prior = state.prior.__class__(**{**state.prior.__dict__, "chi2_prior": (2.0, 1.5)})
    g = heteroscedastic_factor(state)
    e = state.paths.e
    om = state.theta.omega2
    n = e.shape[0]
    a0, b0 = 2.0, 1.5

    def log_density(x):
        prior = -(a0 + 1.0) * math.log(x) - b0 / x
        return prior - 0.5 * n * math.log(x) + float(np.sum(-e ** 2 / (2.0 * x * g * om)))

    shape, scale = chi2_conditional(state)
    assert shape == 0.5 * n + a0
    mean_q, var_q = quad_moments_positive(log_density)
    mean_a, var_a = ig_moments(shape, scale)
    assert mean_q == pytest.approx(mean_a, rel=REL)
    assert var_q == pytest.approx(var_a, rel=REL)


def test_chi2_degenerate_zero_residuals(rng):
    from lsgt.errors import DegenerateSeriesError

    state = random_state(rng, T=6)
    state.paths.e[:] = 0.0
    with pytest.raises(DegenerateSeriesError):
        chi2_conditional(state)


def test_chi2_scale_homogeneous(rng):
    state = random_state(rng, T=8)
    _, scale1 = chi2_conditional(state)
    state.paths.e *= 3.0
    _, scale2 = chi2_conditional(state)
    assert scale2 == pytest.approx(9.0 * scale1, rel=1e-12)


def test_chi2_shape1_reduction_is_exponential(rng):
    # two residuals of 1, unit mixture variances, homoscedastic: IG(1, 1)
    state = random_state(rng, T=3, hetero=False)
    state.theta.omega2[:] = 1.0
    state.paths.e[:] = 1.0
    shape, scale = chi2_conditional(state)
    assert shape == 1.0 and scale == pytest.approx(1.0)
    draws = np.array([update_chi2(state, rng) for _ in range(30_000)])
    # chi2 updates recompute sigma2hat but e stays fixed, so draws are iid
    p = kstest(1.0 / draws, "expon").pvalue
    assert p > 0.01


# ---------------------------------------------------------------------------
# t-mixture variances
# ---------------------------------------------------------------------------

def test_omega2_conditional_matches_quadrature(rng):
    state = random_state(rng, T=8)
    th = state.theta
    j = 3
    e = float(state.paths.e[j])
    s2 = float(state.paths.sigma2hat[j])
    nu = th.nu

    def log_density(w):
        like = -0.5 * math.log(w) - e ** 2 / (2.0 * s2 * w)
        prior = -(0.5 * nu + 1.0) * math.log(w) - nu / (2.0 * w)
        return like + prior

    shape, scale = omega2_conditional(state)
    mean_q, var_q = quad_moments_positive(log_density)
    mean_a, var_a = ig_moments(shape, float(scale[j]))
    assert mean_q == pytest.approx(mean_a, rel=REL)
    assert var_q == pytest.approx(var_a, rel=REL)


def test_omega2_zero_residual_moment(rng):
    state = random_state(rng, T=40, nu=3.0)
    state.paths.e[:] = 0.0
    shape, scale = omega2_conditional(state)
    assert shape == 2.0
    np.testing.assert_allclose(scale, 1.5)
    draws = np.stack([update_omega2(state, rng) for _ in range(3000)])
    assert np.mean(draws) == pytest.approx(3.0 / (3.0 - 1.0), rel=0.01)


def test_omega2_larger_residual_stochastically_larger(rng):
    state = random_state(rng, T=30)
    e = np.linspace(0.0, 10.0, state.T - 1)
    state.paths.e = e
    state.paths.sigma2hat = np.ones(state.T - 1)
    _, scale = omega2_conditional(state)
    assert np.all(np.diff(scale) > 0)
    draws = np.stack([update_omega2(state, rng) for _ in range(2000)])
    means = draws.mean(axis=0)
    corr = np.corrcoef(e, means)[0, 1]
    assert corr > 0.9


def test_omega2_normal_limit(rng):
    state = random_state(rng, T=12, nu=1e6)
    draws = np.stack([update_omega2(state, rng) for _ in range(200)])
    assert np.max(np.abs(draws - 1.0)) < 1e-2


# ---------------------------------------------------------------------------
# conjugate normal weights
# ---------------------------------------------------------------------------

def test_conjugate_flat_prior_limit():
    # one observation y = 3.7 of w with unit noise, prior variance 1e12
    mu, var = normal_moments(1.0, 3.7, 1e12)
    assert mu == pytest.approx(3.7, abs=1e-6)
    assert var == pytest.approx(1.0, rel=1e-6)


def test_conjugate_unit_example():
    # one observation y = 2 of w with unit noise, unit prior variance
    mu, var = normal_moments(1.0, 2.0, 1.0)
    assert var == pytest.approx(0.5, rel=1e-12)
    assert mu == pytest.approx(1.0, rel=1e-12)


def test_conjugate_matches_quadrature(rng):
    # y_i ~ N((w x_i + c_i) s_i, sigma2_i), w ~ N(0, 1.3)
    n = 6
    y = rng.normal(0, 2, n)
    x = rng.normal(0, 1, n)
    s = np.abs(rng.normal(1, 0.2, n))
    c = rng.normal(0, 1, n)
    sigma2 = np.exp(rng.normal(0, 0.4, n))
    prior_variance = 1.3
    mu, var = normal_moments(float((x ** 2 * s ** 2 / sigma2).sum()),
                             float((x * s * (y - c * s) / sigma2).sum()), prior_variance)

    def log_density(w):
        resid = y - (w * x + c) * s
        return float(np.sum(-resid ** 2 / (2.0 * sigma2))) - w ** 2 / (2.0 * prior_variance)

    mean_q, var_q = quad_moments_real(log_density)
    assert mean_q == pytest.approx(mu, rel=1e-6, abs=1e-9)
    assert var_q == pytest.approx(var, rel=1e-6)


def test_gamma_conditional_matches_quadrature(rng):
    state = random_state(rng, T=10)
    th = state.theta
    lp = np.maximum(state.paths.l[:-1], LEVEL_FLOOR)
    x = lp ** th.rho
    s = state.a_app
    c = state.paths.l[:-1] + effective_lam(th, state.prior) * state.paths.b[:-1]
    sig2 = th.omega2 * state.paths.sigma2hat
    prior_var = th.xi_gamma2 * state.s_gamma ** 2
    yy = state.y[1:]

    def log_density(g):
        resid = yy - (g * x + c) * s
        return float(np.sum(-resid ** 2 / (2.0 * sig2))) - g ** 2 / (2.0 * prior_var)

    mu, var = gamma_conditional(state)
    mean_q, var_q = quad_moments_real(log_density)
    assert mean_q == pytest.approx(mu, rel=REL, abs=1e-9)
    assert var_q == pytest.approx(var, rel=REL)


def trend_state(rng, level):
    """A non-seasonal state; at a given level, y = level * (1 + 1e-3 z) with
    a homoscedastic sd of 1e-3 * level, where the trend sums have most room to cancel."""
    state = random_state(rng, T=10)
    if level is None:
        return state
    y = level * (1.0 + 1e-3 * rng.standard_normal(state.T))
    th = state.theta
    th.phi, th.chi2 = 1.0, (1e-3 * level) ** 2
    prior = make_prior(hetero=False)
    return ChainState(y, prior, th, prior.resolved_scales(y), state.grids)


LEVELS = pytest.mark.parametrize("level", [None, 1e8], ids=["random", "level_1e8"])


@LEVELS
def test_lambda_conditional_matches_quadrature(rng, level):
    state = trend_state(rng, level)
    th = state.theta
    lp = np.maximum(state.paths.l[:-1], LEVEL_FLOOR)
    x = state.paths.b[:-1]
    c = state.paths.l[:-1] + th.gamma * lp ** th.rho
    sig2 = th.omega2 * state.paths.sigma2hat
    prior_var = th.xi_lambda2 * state.s_lambda ** 2
    yy = state.y[1:]

    def log_density(w):
        resid = yy - (w * x + c)
        return float(np.sum(-resid ** 2 / (2.0 * sig2))) - w ** 2 / (2.0 * prior_var)

    mu, var = lambda_conditional(state)
    mean_q, var_q = quad_moments_real(log_density)
    assert mean_q == pytest.approx(mu, rel=REL, abs=1e-9)
    assert var_q == pytest.approx(var, rel=REL)


@LEVELS
def test_b1_conditional_matches_quadrature(rng, level):
    state = trend_state(rng, level)
    th = state.theta
    x = th.lam * np.power(1.0 - th.beta, np.arange(state.T - 1, dtype=float))
    # remainder terms: everything in yhat that does not involve b1
    c = state.paths.yhat - x * th.b1
    sig2 = th.omega2 * state.paths.sigma2hat
    prior_var = th.xi_b1_2 * state.s_b1 ** 2
    yy = state.y[1:]

    def log_density(b):
        resid = yy - (x * b + c)
        return float(np.sum(-resid ** 2 / (2.0 * sig2))) - b ** 2 / (2.0 * prior_var)

    mu, var = b1_conditional(state)
    mean_q, var_q = quad_moments_real(log_density)
    assert mean_q == pytest.approx(mu, rel=REL, abs=1e-9)
    assert var_q == pytest.approx(var, rel=REL)


def fresh_trend_moments(state, draw_b1):
    """(mean, variance) of lam given b1, or of b1 given lam, from explicit
    arrays of a recursion run from scratch at the state's draw."""
    th = state.theta
    paths = reference_paths(state.y, th, state.prior)
    lp = np.maximum(paths.l[:-1], LEVEL_FLOOR)
    r = state.y[1:] - (paths.l[:-1] + th.gamma * lp ** th.rho)
    w = 1.0 / (th.omega2 * paths.sigma2hat)
    b = paths.b[:-1]
    if draw_b1:
        d = np.power(1.0 - th.beta, np.arange(state.T - 1, dtype=float))
        x, resid, prior_var = th.lam * d, r - th.lam * (b - d * th.b1), th.xi_b1_2 * state.s_b1 ** 2
    else:
        x, resid, prior_var = b, r, th.xi_lambda2 * state.s_lambda ** 2
    var = 1.0 / (float((w * x * x).sum()) + 1.0 / prior_var)
    return var * float((w * x * resid).sum()), var


def test_update_lambda_b1_draws_fresh_conditionals_and_leaves_exact_paths(rng, monkeypatch):
    # the kernel forms its sums once per call and refreshes the paths once
    # at the end; every one of its draws must still come from the conditional
    # of a state recomputed from scratch at the current draw
    draw = sampler.sample_truncated_normal
    for T in (6, 17, 40):
        state = random_state(rng, T=T)
        th = state.theta
        seen = []

        def spy(r, mean, var, lo, hi):
            want = fresh_trend_moments(state, draw_b1=len(seen) % 2 == 1)
            np.testing.assert_allclose((mean, var), want, rtol=1e-9)
            seen.append(mean)
            return draw(r, mean, var, lo, hi)

        monkeypatch.setattr(sampler, "sample_truncated_normal", spy)
        lam0, b10 = th.lam, th.b1
        update_lambda_b1(state, rng)
        assert len(seen) == 2 * sampler.TREND_REPEATS
        assert th.lam != lam0 and th.b1 != b10
        full = reference_paths(state.y, th, state.prior)
        for name in ("l", "b", "yhat", "e", "sigma2hat"):
            np.testing.assert_array_equal(getattr(state.paths, name), getattr(full, name))


def test_b1_design_collapses_when_beta_one(rng):
    state = random_state(rng, T=8, beta=1.0 - 1e-12)
    th = state.theta
    x = th.lam * np.power(1.0 - th.beta, np.arange(state.T - 1, dtype=float))
    assert x[0] == pytest.approx(th.lam)
    assert np.all(np.abs(x[1:]) < 1e-11 * abs(th.lam) + 1e-300)


# ---------------------------------------------------------------------------
# Cauchy and horseshoe latents (shape-1 conditionals: reciprocal moments)
# ---------------------------------------------------------------------------

def _check_ig_reciprocal(log_density, shape, scale):
    rmean_q, rvar_q = quad_moments_positive(log_density, transform=lambda v: 1.0 / v)
    rmean_a, rvar_a = ig_reciprocal_moments(shape, scale)
    assert rmean_q == pytest.approx(rmean_a, rel=REL)
    assert rvar_q == pytest.approx(rvar_a, rel=REL)


def test_xi_conditional_matches_quadrature(rng):
    gamma_val, s_gamma = 1.7, 0.9

    def log_density(x):
        like = -0.5 * math.log(x) - gamma_val ** 2 / (2.0 * x * s_gamma ** 2)
        prior = -1.5 * math.log(x) - 0.5 / x
        return like + prior

    shape, scale = xi_conditional(gamma_val, s_gamma)
    assert shape == 1.0
    _check_ig_reciprocal(log_density, shape, scale)


def test_psi2_conditional_matches_quadrature(rng):
    state = random_state(rng, T=10, seasonal=True, m=4)
    th = state.theta
    i = 1
    s_i = float(th.log_s_init[i])
    eta_i = float(th.eta_s[i])
    delta2 = th.delta2

    def log_density(p):
        like = -0.5 * math.log(p) - s_i ** 2 / (2.0 * p * delta2)
        prior = -1.5 * math.log(p) - 1.0 / (eta_i * p)
        return like + prior

    shape, scale = psi2_conditional(th)
    assert shape == 1.0
    _check_ig_reciprocal(log_density, shape, float(scale[i]))


def test_delta2_conditional_matches_quadrature(rng):
    m = 6
    state = random_state(rng, T=16, seasonal=True, m=m)
    th = state.theta
    k = 0.5 * float(np.sum(th.log_s_init ** 2 / th.psi2))
    eta_d = th.eta_delta

    def log_density(d):
        # constrained seed prior: m-1 free dimensions, all m scale terms
        like = -0.5 * (m - 1) * math.log(d) - k / d
        prior = -1.5 * math.log(d) - 1.0 / (eta_d * d)
        return like + prior

    shape, scale = delta2_conditional(th)
    assert shape == 0.5 * m
    mean_q, var_q = quad_moments_positive(log_density)
    mean_a, var_a = ig_moments(shape, scale)
    assert mean_q == pytest.approx(mean_a, rel=REL)
    assert var_q == pytest.approx(var_a, rel=REL)
    _check_ig_reciprocal(log_density, shape, scale)


def test_eta_conditionals_match_quadrature(rng):
    state = random_state(rng, T=10, seasonal=True, m=3)
    th = state.theta
    i = 2
    psi2_i = float(th.psi2[i])

    def log_density_eta(h):
        like = -0.5 * math.log(h) - 1.0 / (h * psi2_i)
        prior = -1.5 * math.log(h) - 1.0 / h
        return like + prior

    shape, scale = eta_s_conditional(th)
    _check_ig_reciprocal(log_density_eta, shape, float(scale[i]))

    delta2 = th.delta2

    def log_density_eta_delta(h):
        like = -0.5 * math.log(h) - 1.0 / (h * delta2)
        prior = -1.5 * math.log(h) - 1.0 / h
        return like + prior

    shape, scale = eta_delta_conditional(th)
    _check_ig_reciprocal(log_density_eta_delta, shape, scale)


def test_horseshoe_zero_seeds_delta_reduction(rng):
    # all seeds zero: delta2 ~ IG(m/2, 1/eta_delta)
    from scipy.stats import invgamma

    m = 4
    state = random_state(rng, T=12, seasonal=True, m=m)
    th = state.theta
    th.log_s_init = np.zeros(m)
    shape, scale = delta2_conditional(th)
    assert shape == 0.5 * m
    assert scale == pytest.approx(1.0 / th.eta_delta, rel=1e-12)
    draws = sample_inverse_gamma(rng, shape, np.full(100_000, scale))
    p = kstest(draws, lambda v: invgamma.cdf(v, a=shape, scale=scale)).pvalue
    assert p > 0.01
