import numpy as np
import pytest

from lsgt.gradients import seasonal_gradient, smoothing_gradient
from lsgt.model import (
    NON_SEASONAL,
    SEASONAL,
    ParameterDraw,
    PriorConfig,
    negative_log_likelihood,
    run_recursion,
)

from .oracles import fd_gradient


def random_theta(rng, T, m=1, seasonal=False):
    seeds = np.zeros(m)
    if seasonal:
        seeds = rng.normal(0.0, 0.25, size=m)
        seeds[-1] = -float(np.sum(seeds[:-1]))
    return ParameterDraw(
        nu=float(np.exp(rng.uniform(0.6, 4.0))),
        gamma=float(rng.normal(0.0, 0.8)),
        rho=float(rng.uniform(-0.5, 1.0)),
        lam=0.0 if seasonal else float(rng.uniform(-0.8, 0.95)),
        alpha=float(rng.uniform(0.1, 0.9)),
        beta=float(rng.uniform(0.1, 0.9)),
        zeta=float(rng.uniform(0.1, 0.9)),
        chi2=float(np.exp(rng.uniform(-1.0, 1.5))),
        phi=float(rng.uniform(0.05, 0.95)),
        tau=float(rng.uniform(0.0, 1.0)),
        b1=float(rng.normal(0.0, 0.5)),
        log_s_init=seeds,
        omega2=np.ones(T - 1),
    )


def random_series(rng, T, scale=30.0):
    return np.abs(rng.normal(scale, scale / 6.0, size=T)) + scale / 10.0


def nll_of_smoothing(y, theta, cfg):
    def f(x):
        trial = theta.copy()
        trial.alpha, trial.beta = float(x[0]), float(x[1])
        return negative_log_likelihood(run_recursion(y, trial, cfg), theta.nu)

    return f


def test_smoothing_gradient_matches_fd(rng):
    cfg = PriorConfig(model_kind=NON_SEASONAL)
    for _ in range(20):
        T = int(rng.integers(15, 60))
        y = random_series(rng, T)
        theta = random_theta(rng, T)
        paths = run_recursion(y, theta, cfg)
        ga, gb = smoothing_gradient(y, theta, cfg, paths)
        fd = fd_gradient(nll_of_smoothing(y, theta, cfg), [theta.alpha, theta.beta], h=1e-7)
        assert ga == pytest.approx(fd[0], rel=1e-5, abs=1e-7 * max(1.0, abs(fd[0])))
        assert gb == pytest.approx(fd[1], rel=1e-5, abs=1e-7 * max(1.0, abs(fd[1])))


def test_smoothing_gradient_initial_states():
    # the level seed does not depend on the smoothing weights, so the first
    # contribution is driven by data alone: gradient of a 2-point series is 0
    # for beta (lam * db with db_0 = 0) regardless of parameters
    rng = np.random.Generator(np.random.Philox(5))
    cfg = PriorConfig(model_kind=NON_SEASONAL)
    y = np.array([10.0, 12.0])
    theta = random_theta(rng, 2)
    paths = run_recursion(y, theta, cfg)
    _, gb = smoothing_gradient(y, theta, cfg, paths)
    assert gb == 0.0


def test_seasonal_gradient_matches_fd(rng):
    cfg = PriorConfig(model_kind=SEASONAL)
    for _ in range(20):
        m = int(rng.integers(2, 7))
        T = int(rng.integers(2 * m + 4, 60))
        y = random_series(rng, T)
        theta = random_theta(rng, T, m=m, seasonal=True)
        paths = run_recursion(y, theta, cfg)
        grad = seasonal_gradient(y, theta, cfg, paths)

        def f(free):
            trial = theta.copy()
            trial.log_s_init = np.append(free, -float(np.sum(free)))
            return negative_log_likelihood(run_recursion(y, trial, cfg), theta.nu)

        fd = fd_gradient(f, theta.log_s_init[: m - 1], h=1e-6)
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-6 * max(1.0, np.abs(fd).max()))


def test_seasonal_gradient_m2_single_direction(rng):
    cfg = PriorConfig(model_kind=SEASONAL)
    T = 16
    y = random_series(rng, T)
    theta = random_theta(rng, T, m=2, seasonal=True)
    grad = seasonal_gradient(y, theta, cfg, run_recursion(y, theta, cfg))
    assert grad.shape == (1,)
    # constraint: the second seed always mirrors the first
    assert theta.log_s_init[1] == -theta.log_s_init[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_zero_scale_gives_non_finite_gradient_not_an_exception(rng):
    # float64 semantics: a division by a zero scale yields inf/nan, which
    # makes the MH proposal reject; it must not raise ZeroDivisionError
    for seasonal in (False, True):
        m = 4 if seasonal else 1
        T = 12
        y = random_series(rng, T)
        theta = random_theta(rng, T, m=m, seasonal=seasonal)
        cfg = PriorConfig(model_kind=SEASONAL if seasonal else NON_SEASONAL)
        paths = run_recursion(y, theta, cfg)
        paths.sigma2hat[3] = 0.0
        ga, gb = smoothing_gradient(y, theta, cfg, paths)
        assert not np.isfinite(ga)
        if seasonal:
            assert not np.isfinite(seasonal_gradient(y, theta, cfg, paths)).all()
