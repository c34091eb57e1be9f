import numpy as np
import pytest

from lsgt.gradients import seasonal_gradient
from lsgt.model import (
    LEVEL_FLOOR,
    SEASONAL,
    ParameterDraw,
    PriorConfig,
    negative_log_likelihood,
)

from .helpers import reference_paths
from .oracles import fd_gradient, reference_seasonal_gradient


def random_theta(rng, T, m):
    """A random seasonal draw: m seed log factors summing to zero, lam = 0."""
    seeds = rng.normal(0.0, 0.25, size=m)
    seeds[-1] = -float(np.sum(seeds[:-1]))
    return ParameterDraw(
        nu=float(np.exp(rng.uniform(0.6, 4.0))),
        gamma=float(rng.normal(0.0, 0.8)),
        rho=float(rng.uniform(-0.5, 1.0)),
        lam=0.0,
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


def seasonal_coordinates(theta):
    """(alpha, zeta, free seeds): the coordinates of ``seasonal_gradient``."""
    return np.concatenate([[theta.alpha, theta.zeta], theta.log_s_init[: theta.m - 1]])


def nll_of_seasonal(y, theta, cfg):
    def f(x):
        trial = theta.copy()
        trial.alpha, trial.zeta = float(x[0]), float(x[1])
        trial.log_s_init = np.append(x[2:], -float(np.sum(x[2:])))
        return negative_log_likelihood(reference_paths(y, trial, cfg), theta.nu)

    return f


def floored_case(m):
    """A series falling from 30 to 1e-14, so that its last 5 levels are floored.

    A negative trend power and a scale power below 1/2 make the derivative
    of the unfloored level's terms large there, though they are constant.
    """
    T = 25
    y = np.geomspace(30.0, 1e-14, T) * np.resize([1.1, 0.9, 1.05, 0.95], T)
    seeds = np.resize([0.1, -0.05, 0.08, -0.13], m)
    theta = ParameterDraw(nu=5.0, gamma=0.5, rho=-0.5, lam=0.0, alpha=0.9,
                          beta=0.3, zeta=0.4, chi2=1.0, phi=0.5, tau=0.2, b1=0.1,
                          log_s_init=seeds, omega2=np.ones(T - 1))
    cfg = PriorConfig(model_kind=SEASONAL)
    assert int((reference_paths(y, theta, cfg).l[:-1] < LEVEL_FLOOR).sum()) == 5
    return y, theta


def test_seasonal_gradient_matches_fd(rng):
    cfg = PriorConfig(model_kind=SEASONAL)
    cases = []
    for _ in range(20):
        m = int(rng.integers(2, 7))
        T = int(rng.integers(2 * m + 4, 60))
        cases.append((random_series(rng, T), random_theta(rng, T, m=m)))
    for _ in range(3):
        T = int(rng.integers(95, 106))
        cases.append((random_series(rng, T), random_theta(rng, T, m=12)))
    cases.append(floored_case(m=4))
    for y, theta in cases:
        grad = seasonal_gradient(y, theta, cfg, reference_paths(y, theta, cfg))
        fd = fd_gradient(nll_of_seasonal(y, theta, cfg), seasonal_coordinates(theta), h=1e-6)
        assert grad.shape == (theta.m + 1,)
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-6 * max(1.0, np.abs(fd).max()))


def test_seasonal_gradient_matches_forward_reference(rng):
    cfg = PriorConfig(model_kind=SEASONAL)
    cases = []
    for _ in range(60):
        m = int(rng.choice([2, 3, 4, 6, 12]))
        T = int(rng.integers(2 * m + 1, 131))
        cases.append((random_series(rng, T), random_theta(rng, T, m=m)))
    cases += [floored_case(m=4), floored_case(m=12)]
    for y, theta in cases:
        grad = seasonal_gradient(y, theta, cfg, reference_paths(y, theta, cfg))
        ref = reference_seasonal_gradient(y, theta.alpha, theta.zeta, theta.gamma, theta.rho,
                                          theta.chi2, theta.phi, theta.tau, theta.nu,
                                          theta.log_s_init)
        assert grad.shape == (theta.m + 1,)
        np.testing.assert_allclose(grad, ref, rtol=1e-10, atol=0.0)


def test_seasonal_gradient_m2_single_direction(rng):
    cfg = PriorConfig(model_kind=SEASONAL)
    T = 16
    y = random_series(rng, T)
    theta = random_theta(rng, T, m=2)
    grad = seasonal_gradient(y, theta, cfg, reference_paths(y, theta, cfg))
    assert grad.shape == (3,)   # alpha, zeta and the one free seed
    # constraint: the second seed always mirrors the first
    assert theta.log_s_init[1] == -theta.log_s_init[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_zero_scale_gives_non_finite_gradient_not_an_exception(rng):
    # float64 semantics: a division by a zero scale yields inf/nan, which
    # makes the MH proposal reject; it must not raise ZeroDivisionError.
    # The zero sits at the last step, which every direction reaches (zeta
    # acts only from step m on)
    cfg = PriorConfig(model_kind=SEASONAL)
    for m, T in ((4, 12), (12, 30)):
        y = random_series(rng, T)
        theta = random_theta(rng, T, m=m)
        paths = reference_paths(y, theta, cfg)
        paths.sigma2hat[-1] = 0.0
        assert not np.isfinite(seasonal_gradient(y, theta, cfg, paths)).any()
