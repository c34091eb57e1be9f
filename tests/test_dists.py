import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import halfcauchy, kstest, norm, truncnorm
from scipy.stats import t as t_dist

from lsgt import dists
from lsgt.dists import (
    TRUNCATION_TRIES,
    _t_log_density_vec,
    build_nu_grid,
    log_ndtr_diff,
    sample_categorical,
    sample_inverse_gamma,
    sample_normal,
    sample_truncated_normal,
    symmetric_kl_t,
)
from lsgt.errors import GridConstructionError, QuadratureError
from lsgt.rng import RngStream

from .oracles import mc_symmetric_kl_t

N = 1_000_000


def test_rng_streams_reproducible():
    a = RngStream(42, 3).generator().random(8)
    b = RngStream(42, 3).generator().random(8)
    c = RngStream(42, 4).generator().random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_inverse_gamma_shape1_is_reciprocal_exponential(rng):
    beta = 2.5
    x = sample_inverse_gamma(rng, 1.0, beta, size=N)
    # 1/x ~ Exp(rate beta), mean 1/beta
    assert np.mean(1.0 / x) == pytest.approx(1.0 / beta, rel=0.01)


def test_inverse_gamma_moments(rng):
    x = sample_inverse_gamma(rng, 3.0, 2.0, size=N)
    assert np.mean(x) == pytest.approx(2.0 / (3.0 - 1.0), rel=0.01)
    # variance checked at shape 5: the empirical variance of shallower
    # shapes has no finite fourth moment behind it
    x = sample_inverse_gamma(rng, 5.0, 4.0, size=N)
    assert np.var(x) == pytest.approx(16.0 / (16.0 * 3.0), rel=0.01)


def test_inverse_gamma_invalid_args(rng):
    with pytest.raises(ValueError):
        sample_inverse_gamma(rng, 0.0, 1.0)
    with pytest.raises(ValueError):
        sample_inverse_gamma(rng, 1.0, -1.0)


def test_normal_moments(rng):
    x = sample_normal(rng, 0.0, 1.0, size=N)
    assert abs(np.mean(x)) < 3e-3
    assert np.var(x) == pytest.approx(1.0, rel=0.01)


def test_categorical_degenerate(rng):
    assert all(sample_categorical(rng, [1.0, 0.0, 0.0]) == 0 for _ in range(100))


def test_categorical_frequencies(rng):
    draws = np.array([sample_categorical(rng, [1.0, 2.0, 3.0]) for _ in range(300_000)])
    freq = np.bincount(draws, minlength=3) / draws.size
    np.testing.assert_allclose(freq, [1 / 6, 1 / 3, 1 / 2], atol=0.01)


def test_categorical_symmetric(rng):
    draws = np.array([sample_categorical(rng, [1.0, 1.0]) for _ in range(200_000)])
    assert np.mean(draws == 0) == pytest.approx(0.5, abs=0.01)


def test_categorical_invalid(rng):
    with pytest.raises(ValueError):
        sample_categorical(rng, [0.0, 0.0])
    with pytest.raises(ValueError):
        sample_categorical(rng, [1.0, float("nan")])
    with pytest.raises(ValueError):
        sample_categorical(rng, [])


@pytest.mark.parametrize("side", [1.0, -1.0], ids=["upper_tail", "lower_tail"])
def test_truncated_normal_far_tail_matches_truncnorm(side):
    # 8 to 9 sd from the mean: every rejection try misses, and the draw
    # falls back to the inverse CDF instead of sitting on the bound
    rng = RngStream(4004, 0).generator()
    mean, sd = 2.0, 0.5
    a, b = sorted((side * 8.0, side * 9.0))
    draws = [sample_truncated_normal(rng, mean, sd * sd, mean + a * sd, mean + b * sd) for _ in range(2000)]
    x = np.array([d[0] for d in draws])
    assert all(fell_back for _, fell_back in draws)
    assert np.all((x >= mean + a * sd) & (x <= mean + b * sd))
    assert kstest(x, truncnorm(a, b, loc=mean, scale=sd).cdf).pvalue > 0.01


def test_truncated_normal_rejection_draws_unchanged():
    # an interval the rejection loop hits keeps the plain-normal draw and stream
    rng, ref = RngStream(4005, 0).generator(), RngStream(4005, 0).generator()
    for _ in range(200):
        x, fell_back = sample_truncated_normal(rng, 0.3, 4.0, -1.0, 1.0)
        for _ in range(TRUNCATION_TRIES):
            want = ref.normal(0.3, 2.0)
            if -1.0 <= want <= 1.0:
                break
        assert (x, fell_back) == (want, False)


def test_log_ndtr_diff_matches_scipy():
    # scipy's truncated-normal log density is log phi(x) - log(Phi(b) - Phi(a))
    for a, b in ((-1.0, 1.0), (0.5, 3.0), (-3.0, -0.5), (8.0, 9.0), (-40.0, -39.0), (2.0, 2.0 + 1e-9)):
        mid = 0.5 * (a + b)
        want = norm.logpdf(mid) - truncnorm.logpdf(mid, a, b)
        assert log_ndtr_diff(a, b) == pytest.approx(want, rel=1e-9)


# the unit t density is the integrand of symmetric_kl_t and so of the nu grid
def test_t_log_density_matches_scipy(rng):
    for _ in range(50):
        x = rng.normal(0, 5, size=4)
        nu = math.exp(rng.uniform(0.2, 5))
        np.testing.assert_allclose(_t_log_density_vec(x, nu), t_dist.logpdf(x, nu),
                                   rtol=0, atol=1e-10)
    # an array of df broadcasts against the points, as in the grid's gap quadrature
    x = rng.normal(0, 5, size=6)
    nu = np.exp(rng.uniform(0.2, 5, size=(3, 1)))
    np.testing.assert_allclose(_t_log_density_vec(x, nu), t_dist.logpdf(x, nu), rtol=0, atol=1e-10)


def test_t_log_density_normal_limit():
    assert _t_log_density_vec(np.array([0.0]), 1e6)[0] == pytest.approx(norm.logpdf(0.0), abs=1e-3)


def test_t_log_density_cauchy_case():
    # at the origin the unit Cauchy log density is -log(pi)
    assert _t_log_density_vec(np.array([0.0]), 1.0)[0] == pytest.approx(-math.log(math.pi), abs=1e-12)


def test_t_scale_mixture_identity(rng):
    # x | w ~ N(mu, sigma^2 w), w ~ IG(nu/2, nu/2)  marginally t(nu, mu, sigma)
    nu, mu, sigma = 4.0, 1.0, 2.0
    w = sample_inverse_gamma(rng, nu / 2, nu / 2, size=100_000)
    x = rng.normal(mu, sigma * np.sqrt(w))
    p = kstest(x, lambda v: t_dist.cdf(v, nu, loc=mu, scale=sigma)).pvalue
    assert p > 0.01


def test_half_cauchy_nested_ig(rng):
    a = 1.5
    eta = sample_inverse_gamma(rng, 0.5, 1.0 / a ** 2, size=100_000)
    y2 = sample_inverse_gamma(rng, 0.5, 1.0 / eta)
    p = kstest(np.sqrt(y2), lambda v: halfcauchy.cdf(v, scale=a)).pvalue
    assert p > 0.01


def test_symmetric_kl_properties():
    assert symmetric_kl_t(3.0, 3.0) == 0.0
    assert symmetric_kl_t(2.0, 7.0) == symmetric_kl_t(7.0, 2.0)
    assert symmetric_kl_t(2.0, 4.0) > 0.0


def test_symmetric_kl_against_quad():
    def kl_quad(n1, n2):
        f = lambda x: t_dist.pdf(x, n1) * (t_dist.logpdf(x, n1) - t_dist.logpdf(x, n2))
        return quad(f, -np.inf, np.inf, limit=400)[0]

    for pair in ((2.0, 4.0), (1.6, 30.0), (10.0, 1000.0)):
        ref = kl_quad(*pair) + kl_quad(*reversed(pair))
        assert symmetric_kl_t(*pair) == pytest.approx(ref, rel=1e-6)


@pytest.mark.slow
def test_symmetric_kl_against_monte_carlo():
    ref = mc_symmetric_kl_t(2.0, 4.0, n=10_000_000)
    assert symmetric_kl_t(2.0, 4.0) == pytest.approx(ref, rel=0.02)


def test_nu_grid_trivial():
    g = build_nu_grid(1.6, 1000.0, 2)
    assert g.candidates == (1.6, 1000.0)


def test_nu_grid_ascending_and_equal_gaps():
    for q in (3, 20, 100):  # 3 has one interior node; 100 is the default grid size
        arr = np.array(build_nu_grid(1.6, 1000.0, q).candidates)
        assert len(arr) == q
        assert np.all(np.diff(arr) > 0)
        assert arr[0] == 1.6 and arr[-1] == 1000.0
        gaps = np.array([symmetric_kl_t(a, b) for a, b in zip(arr[:-1], arr[1:])])
        assert np.max(np.abs(gaps - gaps.mean())) / gaps.mean() < 1e-5


def test_nu_grid_invalid():
    with pytest.raises(ValueError):
        build_nu_grid(5.0, 2.0, 10)
    with pytest.raises(ValueError):
        build_nu_grid(1.6, 1000.0, 1)


def test_nu_grid_keeps_quadrature_check():
    # the gap next to df 0.5 changes by more than KL_CHECK_TOL at half the nodes
    with pytest.raises(QuadratureError):
        build_nu_grid(0.5, 1e4, 30)


def test_nu_grid_unequal_gaps_raise(monkeypatch):
    # one pass from the log-spaced start cannot equalise the gaps
    monkeypatch.setattr(dists, "GRID_PASSES", 1)
    with pytest.raises(GridConstructionError):
        build_nu_grid.__wrapped__(1.6, 1000.0, 10)
