import math

import numpy as np
import pytest

from lsgt.errors import NumericalError
from lsgt.forecast import simulate_paths
from lsgt.model import (
    HETEROSCEDASTIC,
    LEVEL_FLOOR,
    HOMOSCEDASTIC,
    NON_SEASONAL,
    SEASONAL,
    ParameterDraw,
    PriorConfig,
    SeasonalPrior,
    recompute_scale,
    recompute_trend_and_residuals,
)
from lsgt.synth import default_params, generate_series

from .helpers import posterior_samples, reference_paths, reference_yhat
from .oracles import negative_log_likelihood, reference_nll, sequential_nll


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
    paths = reference_paths(y, theta, PriorConfig(model_kind=NON_SEASONAL))
    np.testing.assert_array_equal(paths.l, y)


def test_alpha_zero_constant_level():
    y = np.array([3.0, 5.0, 4.0, 8.0, 6.0])
    theta = make_theta(len(y))
    theta.alpha = 0.0
    paths = reference_paths(y, theta, PriorConfig(model_kind=NON_SEASONAL))
    np.testing.assert_array_equal(paths.l, np.full(len(y), y[0]))


def test_pure_level_forecast():
    y = np.array([3.0, 5.0, 4.0, 8.0, 6.0])
    theta = make_theta(len(y), gamma=0.0, lam=0.0)
    paths = reference_paths(y, theta, PriorConfig(model_kind=NON_SEASONAL))
    np.testing.assert_array_equal(paths.e, y[1:] - paths.l[:-1])


def test_phi_one_homoscedastic():
    y = np.abs(np.random.default_rng(0).normal(10, 2, size=12)) + 1
    theta = make_theta(len(y), phi=1.0)
    paths = reference_paths(y, theta, PriorConfig(model_kind=NON_SEASONAL))
    np.testing.assert_array_equal(paths.sigma2hat, np.full(len(y) - 1, theta.chi2))


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
        paths = reference_paths(y, theta, cfg)

        theta.gamma, theta.rho, theta.lam = -0.2, 0.8, 0.1
        theta.b1, theta.beta = -0.4, 0.6
        theta.chi2, theta.phi, theta.tau = 2.0, 0.3, 0.9
        # a seasonal fit keeps no trend, and its residuals come from its forward pass
        if not seasonal:
            recompute_trend_and_residuals(y, paths, theta)
        recompute_scale(paths, theta)   # the new chi2 needs no refresh
        full = reference_paths(y, theta, cfg)
        assert paths.g.tolist() == full.g.tolist()
        assert (theta.chi2 * paths.g).tolist() == full.sigma2hat.tolist()
        if seasonal:
            assert paths.b is None
        else:
            assert paths.b.tolist() == full.b.tolist()
            assert paths.e.tolist() == full.e.tolist()
        if y.max() < LEVEL_FLOOR:
            assert full.clamp_events == T - 1


@pytest.mark.parametrize("gamma", [1e308, -1e308, 1e160])
def test_overflowing_forecast_is_a_numerical_error(gamma):
    # gamma * l^rho overflows to +-inf, and so does the residual, or the
    # residual is finite and its square overflows; the refresh raises instead
    # of handing the next kernel a residual that squares to inf
    y = np.array([25.0, 26.0, 24.0, 27.0, 28.0])
    cfg = PriorConfig(model_kind=NON_SEASONAL)
    theta = make_theta(len(y), rho=1.0)
    paths = reference_paths(y, theta, cfg)
    before = paths.e.tolist()
    theta.gamma = gamma
    with pytest.raises(NumericalError):
        recompute_trend_and_residuals(y, paths, theta)
    assert paths.e.tolist() == before


def test_seasonal_with_unit_factors_equals_non_seasonal(rng):
    # zero seeds and zeta never engaging (all factors stay 1 for t<m only);
    # with m=2 and zeta=0 the log factors remain zero for all t
    T = 20
    y = np.abs(rng.normal(30, 5, size=T)) + 3
    seeds = np.zeros(2)
    theta_s = make_theta(T, m=2, log_s_init=seeds, zeta=1e-300, lam=0.3)
    paths_s = reference_paths(y, theta_s, PriorConfig(model_kind=SEASONAL))
    theta_n = make_theta(T, lam=0.0)
    theta_n.alpha, theta_n.beta = theta_s.alpha, theta_s.beta
    paths_n = reference_paths(y, theta_n, PriorConfig(model_kind=NON_SEASONAL))
    np.testing.assert_allclose(paths_s.l, paths_n.l, rtol=1e-12)
    np.testing.assert_allclose(paths_s.e, paths_n.e, rtol=1e-12)


def test_seasonal_sum_constraint_product_one(rng):
    seeds = seasonal_seeds(6, rng)
    assert abs(np.sum(seeds)) < 1e-10
    assert np.prod(np.exp(seeds)) == pytest.approx(1.0, abs=1e-10)


class FixedShocks:
    """Generator stand-in: ``standard_t`` returns preset shocks in order."""

    def __init__(self, shocks):
        self.shocks = shocks
        self.used = 0

    def standard_t(self, df):
        self.used += 1
        return float(self.shocks[self.used - 1])


@pytest.mark.parametrize("m", [1, 2, 4, 12])
def test_simulators_continue_the_fitted_recursion(m):
    # a synthetic series, and a forecast path appended to it, are
    # yhat + z * sqrt(sigma2hat) of the recursion over the values before them,
    # bit for bit; the shocks are small so that no roll is rejected
    kind = SEASONAL if m > 1 else NON_SEASONAL
    cfg = PriorConfig(model_kind=kind, nu_grid_size=10)
    rng = np.random.default_rng(m)
    for _ in range(10):
        T, h = 2 * m + int(rng.integers(1, 20)), m + 3
        theta = default_params(m=m, model_kind=kind, T=T)
        theta.gamma, theta.rho = float(rng.uniform(-0.2, 0.2)), float(rng.uniform(-0.5, 1.0))
        theta.alpha, theta.beta, theta.zeta = (float(v) for v in rng.uniform(0.05, 0.95, 3))
        theta.chi2, theta.phi, theta.tau = (float(v) for v in rng.uniform(0.01, 0.9, 3))
        theta.b1 = float(rng.normal(0.0, 0.3))
        if kind == NON_SEASONAL:
            theta.lam = float(rng.uniform(-0.5, 0.9))
        z = rng.uniform(-0.5, 0.5, T - 1 + h)

        shocks = FixedShocks(z[:T - 1])
        series = generate_series(shocks, theta, cfg, T, h=h)
        assert shocks.used == T - 1
        y = np.array(series.values)
        paths = reference_paths(y, theta, cfg)
        yhat = reference_yhat(y, theta, cfg)
        assert np.array_equal(y[1:], yhat + z[:T - 1] * np.sqrt(paths.sigma2hat))

        shocks = FixedShocks(z[T - 1:])
        samples = posterior_samples([theta], cfg, y)
        path = simulate_paths(samples, series, h, paths_per_draw=1, rng=shocks).mean  # one path
        assert shocks.used == h
        y_ext = np.concatenate([y, path])
        ext, ext_yhat = reference_paths(y_ext, theta, cfg), reference_yhat(y_ext, theta, cfg)
        assert np.array_equal(path, ext_yhat[T - 1:] + z[T - 1:] * np.sqrt(ext.sigma2hat[T - 1:]))


def test_nll_zero_residuals():
    T = 6
    theta = make_theta(T)
    y = np.ones(T)
    paths = reference_paths(y, theta, PriorConfig(model_kind=NON_SEASONAL))
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
    paths = reference_paths(y, theta, PriorConfig(model_kind=NON_SEASONAL))
    e = paths.e[0]
    got = negative_log_likelihood(paths, 1.0)
    assert got == pytest.approx(math.log(math.pi) + math.log1p(e * e), rel=1e-12)


def test_nll_matches_density_oracle(rng):
    for _ in range(10):
        T = 15
        y = np.abs(rng.normal(20, 4, size=T)) + 2
        theta = make_theta(T, gamma=rng.normal(0, 0.5), lam=rng.uniform(-0.5, 0.9))
        nu = math.exp(rng.uniform(0.5, 4))
        paths = reference_paths(y, theta, PriorConfig(model_kind=NON_SEASONAL))
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
        paths = reference_paths(y, theta, PriorConfig(model_kind=SEASONAL if seasonal else NON_SEASONAL))
        for nu in (1.0, 3.7, 250.0):
            assert negative_log_likelihood(paths, nu) == sequential_nll(paths.e, paths.sigma2hat, nu)


def test_nll_non_finite_sentinel():
    theta = make_theta(4)
    y = np.array([1.0, 2.0, 3.0, 4.0])
    paths = reference_paths(y, theta, PriorConfig(model_kind=NON_SEASONAL))
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
