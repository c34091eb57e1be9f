import math

import numpy as np
import pytest

from lsgt.errors import StateRecursionError
from lsgt.model import (
    HETEROSCEDASTIC,
    LEVEL_FLOOR,
    HOMOSCEDASTIC,
    NON_SEASONAL,
    SEASONAL,
    ParameterDraw,
    PriorConfig,
    SeasonalPrior,
    negative_log_likelihood,
    recompute_sigma2,
    recompute_trend_path,
    recompute_yhat,
    run_recursion,
)

from .oracles import reference_nll, reference_recursion, sequential_nll


def make_theta(T, m=1, **overrides):
    base = dict(
        nu=6.0, gamma=0.4, rho=0.5, lam=0.5, alpha=0.35, beta=0.25, zeta=0.4,
        chi2=1.2, phi=0.7, tau=0.4, b1=0.3,
        log_s_init=np.zeros(m), omega2=np.ones(T - 1),
    )
    base.update(overrides)
    return ParameterDraw(**base)


def seasonal_seeds(m, rng):
    logs = rng.normal(0.0, 0.2, size=m)
    logs -= logs.mean()
    logs[-1] = -float(np.sum(logs[:-1]))
    return logs


def test_alpha_one_tracks_data():
    y = np.array([3.0, 5.0, 4.0, 8.0, 6.0])
    theta = make_theta(len(y), alpha=1.0 - 1e-16, gamma=0.0, lam=0.0)
    # alpha exactly 1 is outside (0,1); use the recursion directly with 1.0
    theta.alpha = 1.0
    paths = run_recursion(y, theta, PriorConfig(model_kind=NON_SEASONAL))
    np.testing.assert_array_equal(paths.l, y)


def test_alpha_zero_constant_level():
    y = np.array([3.0, 5.0, 4.0, 8.0, 6.0])
    theta = make_theta(len(y))
    theta.alpha = 0.0
    paths = run_recursion(y, theta, PriorConfig(model_kind=NON_SEASONAL))
    np.testing.assert_array_equal(paths.l, np.full(len(y), y[0]))


def test_pure_level_forecast():
    y = np.array([3.0, 5.0, 4.0, 8.0, 6.0])
    theta = make_theta(len(y), gamma=0.0, lam=0.0)
    paths = run_recursion(y, theta, PriorConfig(model_kind=NON_SEASONAL))
    np.testing.assert_array_equal(paths.yhat, paths.l[:-1])


def test_phi_one_homoscedastic():
    y = np.abs(np.random.default_rng(0).normal(10, 2, size=12)) + 1
    theta = make_theta(len(y), phi=1.0)
    paths = run_recursion(y, theta, PriorConfig(model_kind=NON_SEASONAL))
    np.testing.assert_array_equal(paths.sigma2hat, np.full(len(y) - 1, theta.chi2))


def test_recursion_bit_exact_vs_reference(rng):
    for seasonal in (False, True):
        m = 4 if seasonal else 1
        T = 25
        y = np.abs(rng.normal(50, 10, size=T)) + 5
        seeds = seasonal_seeds(m, rng) if seasonal else np.zeros(1)
        theta = make_theta(T, m=m, log_s_init=seeds, lam=0.0 if seasonal else 0.5)
        cfg = PriorConfig(model_kind=SEASONAL if seasonal else NON_SEASONAL)
        paths = run_recursion(y, theta, cfg)
        l, b, log_s, yhat, sig2, e = reference_recursion(
            y, theta.alpha, theta.beta, theta.zeta, theta.gamma, theta.rho,
            0.0 if seasonal else theta.lam, theta.chi2, theta.phi, theta.tau,
            theta.b1, seeds, seasonal,
        )
        assert paths.l.tolist() == l
        assert paths.b.tolist() == b
        assert paths.log_s.tolist() == log_s
        assert paths.yhat.tolist() == yhat
        assert paths.sigma2hat.tolist() == sig2
        assert paths.e.tolist() == e


def test_incremental_refreshes_match_full_recursion(rng):
    T = 30
    cases = [
        (np.abs(rng.normal(100, 15, size=T)) + 10, 1),
        (np.abs(rng.normal(100, 15, size=T)) + 10, 4),
        # levels below LEVEL_FLOOR: every refresh takes the floor branch
        (1e-12 * (1.0 + np.abs(rng.normal(0, 1, size=T))), 1),
    ]
    for y, m in cases:
        seasonal = m > 1
        theta = make_theta(T, m=m, log_s_init=seasonal_seeds(m, rng) if seasonal else np.zeros(1))
        cfg = PriorConfig(model_kind=SEASONAL if seasonal else NON_SEASONAL)
        paths = run_recursion(y, theta, cfg)

        theta.gamma, theta.rho, theta.lam = -0.2, 0.8, 0.1
        theta.b1 = -0.4
        theta.chi2, theta.phi, theta.tau = 2.0, 0.3, 0.9
        recompute_trend_path(paths, theta)
        recompute_yhat(y, paths, theta, cfg)
        recompute_sigma2(paths, theta)
        full = run_recursion(y, theta, cfg)
        assert paths.b.tolist() == full.b.tolist()
        assert paths.yhat.tolist() == full.yhat.tolist()
        assert paths.sigma2hat.tolist() == full.sigma2hat.tolist()
        assert paths.e.tolist() == full.e.tolist()
        if y.max() < LEVEL_FLOOR:
            assert full.clamp_events == T - 1


def test_seasonal_with_unit_factors_equals_non_seasonal(rng):
    # zero seeds and zeta never engaging (all factors stay 1 for t<m only);
    # with m=2 and zeta=0 the log factors remain zero for all t
    T = 20
    y = np.abs(rng.normal(30, 5, size=T)) + 3
    seeds = np.zeros(2)
    theta_s = make_theta(T, m=2, log_s_init=seeds, zeta=1e-300, lam=0.3)
    paths_s = run_recursion(y, theta_s, PriorConfig(model_kind=SEASONAL))
    theta_n = make_theta(T, lam=0.0)
    theta_n.alpha, theta_n.beta = theta_s.alpha, theta_s.beta
    paths_n = run_recursion(y, theta_n, PriorConfig(model_kind=NON_SEASONAL))
    np.testing.assert_allclose(paths_s.l, paths_n.l, rtol=1e-12)
    np.testing.assert_allclose(paths_s.yhat, paths_n.yhat, rtol=1e-12)


def test_seasonal_sum_constraint_product_one(rng):
    seeds = seasonal_seeds(6, rng)
    assert abs(np.sum(seeds)) < 1e-10
    assert np.prod(np.exp(seeds)) == pytest.approx(1.0, abs=1e-10)


def test_recursion_rejects_short_seasonal():
    y = np.abs(np.random.default_rng(1).normal(10, 1, size=7)) + 1
    theta = make_theta(len(y), m=4, log_s_init=np.zeros(4))
    with pytest.raises(ValueError):
        run_recursion(y, theta, PriorConfig(model_kind=SEASONAL))


def test_recursion_error_carries_step():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    theta = make_theta(len(y), gamma=1e308, rho=1.0, lam=0.0)
    theta.chi2 = 1e308
    theta.tau = 1.0
    theta.phi = 0.0
    # gamma * l blows up to inf at the first forecast
    with pytest.raises(StateRecursionError) as err:
        run_recursion(y * 1e200, theta, PriorConfig(model_kind=NON_SEASONAL))
    assert err.value.t >= 1


def test_nll_zero_residuals():
    T = 6
    theta = make_theta(T)
    y = np.ones(T)
    paths = run_recursion(y, theta, PriorConfig(model_kind=NON_SEASONAL))
    paths.e[:] = 0.0
    nu = 5.0
    got = negative_log_likelihood(paths, nu)
    const = 0.5 * math.log(nu * math.pi) + math.lgamma(nu / 2) - math.lgamma((nu + 1) / 2)
    expected = float(np.sum(0.5 * np.log(paths.sigma2hat))) + (T - 1) * const
    assert got == pytest.approx(expected, rel=1e-12)


def test_nll_single_cauchy_residual():
    # one residual, nu=1, scale 1: the Cauchy negative log density
    theta = make_theta(2, gamma=0.0, lam=0.0, chi2=1.0, phi=1.0)
    y = np.array([1.0, 3.0])
    paths = run_recursion(y, theta, PriorConfig(model_kind=NON_SEASONAL))
    e = paths.e[0]
    got = negative_log_likelihood(paths, 1.0)
    assert got == pytest.approx(math.log(math.pi) + math.log1p(e * e), rel=1e-12)


def test_nll_matches_density_oracle(rng):
    for _ in range(10):
        T = 15
        y = np.abs(rng.normal(20, 4, size=T)) + 2
        theta = make_theta(T, gamma=rng.normal(0, 0.5), lam=rng.uniform(-0.5, 0.9))
        nu = math.exp(rng.uniform(0.5, 4))
        paths = run_recursion(y, theta, PriorConfig(model_kind=NON_SEASONAL))
        assert negative_log_likelihood(paths, nu) == pytest.approx(
            reference_nll(paths.e, paths.sigma2hat, nu), rel=1e-10, abs=1e-10
        )


def test_nll_bit_exact_vs_sequential_sum(rng):
    # the likelihood is a plain left-to-right sum of libm terms; MH
    # acceptance and the recorded draws depend on every bit of it
    for seasonal, scale in ((False, 20.0), (True, 20.0), (False, 1e-12)):
        m = 4 if seasonal else 1
        T = 24
        y = scale * (np.abs(rng.normal(1.0, 0.2, size=T)) + 0.1)
        theta = make_theta(T, m=m, log_s_init=seasonal_seeds(m, rng) if seasonal else np.zeros(1),
                           lam=0.0 if seasonal else 0.5)
        paths = run_recursion(y, theta, PriorConfig(model_kind=SEASONAL if seasonal else NON_SEASONAL))
        for nu in (1.0, 3.7, 250.0):
            assert negative_log_likelihood(paths, nu) == sequential_nll(paths.e, paths.sigma2hat, nu)


def test_nll_non_finite_sentinel():
    theta = make_theta(4)
    y = np.array([1.0, 2.0, 3.0, 4.0])
    paths = run_recursion(y, theta, PriorConfig(model_kind=NON_SEASONAL))
    paths.sigma2hat[0] = 0.0
    assert negative_log_likelihood(paths, 3.0) == math.inf


def test_parameter_draw_validation(rng):
    theta = make_theta(10, m=4, log_s_init=seasonal_seeds(4, rng))
    theta.validate()
    bad = theta.copy()
    bad.rho = 1.5
    with pytest.raises(ValueError):
        bad.validate()
    bad = theta.copy()
    bad.log_s_init = np.array([0.5, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        bad.validate()


def test_prior_config_validation():
    with pytest.raises(ValueError):
        PriorConfig(model_kind="weird")
    with pytest.raises(ValueError):
        PriorConfig(nu_lower=10.0, nu_upper=2.0)
    with pytest.raises(ValueError):
        SeasonalPrior.parse("cauchy:-1")
    assert SeasonalPrior.parse("cauchy:4").scale == 4.0
    assert SeasonalPrior.parse("horseshoe").kind == "horseshoe"


def test_resolved_scales():
    cfg = PriorConfig()
    y = np.array([5.0, 300.0, 40.0])
    s_gamma, s_lambda, s_b1 = cfg.resolved_scales(y)
    assert s_gamma == 3.0 and s_b1 == 3.0 and s_lambda == 1.0
    fixed = PriorConfig(s_gamma=0.5, s_b1=0.25)
    assert fixed.resolved_scales(y)[0] == 0.5
    assert fixed.resolved_scales(y)[2] == 0.25
