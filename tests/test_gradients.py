import numpy as np
import pytest

from lsgt.gradients import seasonal_gradient, smoothing_gradient
from lsgt.model import (
    LEVEL_FLOOR,
    NON_SEASONAL,
    SEASONAL,
    ParameterDraw,
    PriorConfig,
    negative_log_likelihood,
    run_recursion,
)

from .oracles import fd_gradient, reference_seasonal_gradient


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


def floored_case(m):
    """A series falling from 30 to 1e-14, so that its last 5 levels are floored.

    A negative trend power and a scale power below 1/2 make the derivative
    of the unfloored level's terms large there, though they are constant.
    """
    T = 25
    y = np.geomspace(30.0, 1e-14, T)
    seeds = np.zeros(m)
    if m > 1:
        y *= np.resize([1.1, 0.9, 1.05, 0.95], T)
        seeds = np.resize([0.1, -0.05, 0.08, -0.13], m)
    theta = ParameterDraw(nu=5.0, gamma=0.5, rho=-0.5, lam=0.0 if m > 1 else 0.4, alpha=0.9,
                          beta=0.3, zeta=0.4, chi2=1.0, phi=0.5, tau=0.2, b1=0.1,
                          log_s_init=seeds, omega2=np.ones(T - 1))
    cfg = PriorConfig(model_kind=SEASONAL if m > 1 else NON_SEASONAL)
    assert int((run_recursion(y, theta, cfg).l[:-1] < LEVEL_FLOOR).sum()) == 5
    return y, theta


def test_smoothing_gradient_matches_fd(rng):
    cfg = PriorConfig(model_kind=NON_SEASONAL)
    cases = []
    for _ in range(20):
        T = int(rng.integers(15, 60))
        cases.append((random_series(rng, T), random_theta(rng, T)))
    cases.append(floored_case(m=1))
    for y, theta in cases:
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
    cases = []
    for _ in range(20):
        m = int(rng.integers(2, 7))
        T = int(rng.integers(2 * m + 4, 60))
        cases.append((random_series(rng, T), random_theta(rng, T, m=m, seasonal=True)))
    for _ in range(3):
        T = int(rng.integers(95, 106))
        cases.append((random_series(rng, T), random_theta(rng, T, m=12, seasonal=True)))
    cases.append(floored_case(m=4))
    for y, theta in cases:
        grad = seasonal_gradient(y, theta, cfg, run_recursion(y, theta, cfg))

        def f(free):
            trial = theta.copy()
            trial.log_s_init = np.append(free, -float(np.sum(free)))
            return negative_log_likelihood(run_recursion(y, trial, cfg), theta.nu)

        fd = fd_gradient(f, theta.log_s_init[: theta.m - 1], h=1e-6)
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-6 * max(1.0, np.abs(fd).max()))


def test_seasonal_gradient_matches_forward_reference(rng):
    cfg = PriorConfig(model_kind=SEASONAL)
    cases = []
    for _ in range(60):
        m = int(rng.choice([2, 3, 4, 6, 12]))
        T = int(rng.integers(2 * m + 1, 131))
        cases.append((random_series(rng, T), random_theta(rng, T, m=m, seasonal=True)))
    cases += [floored_case(m=4), floored_case(m=12)]
    for y, theta in cases:
        grad = seasonal_gradient(y, theta, cfg, run_recursion(y, theta, cfg))
        ref = reference_seasonal_gradient(y, theta.alpha, theta.zeta, theta.gamma, theta.rho,
                                          theta.chi2, theta.phi, theta.tau, theta.nu,
                                          theta.log_s_init)
        assert grad.shape == (theta.m - 1,)
        np.testing.assert_allclose(grad, ref, rtol=1e-10, atol=0.0)


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
    for seasonal, m, T in ((False, 1, 12), (True, 4, 12), (True, 12, 30)):
        y = random_series(rng, T)
        theta = random_theta(rng, T, m=m, seasonal=seasonal)
        cfg = PriorConfig(model_kind=SEASONAL if seasonal else NON_SEASONAL)
        paths = run_recursion(y, theta, cfg)
        paths.sigma2hat[3] = 0.0
        ga, gb = smoothing_gradient(y, theta, cfg, paths)
        assert not np.isfinite(ga)
        if seasonal:
            assert not np.isfinite(seasonal_gradient(y, theta, cfg, paths)).all()
