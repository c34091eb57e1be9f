import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import log_ndtr as scipy_log_ndtr
from scipy.stats import halfcauchy, kstest, norm, truncnorm
from scipy.stats import t as t_dist

from lsgt import dists
from lsgt.dists import (
    KL_NODES,
    NARROW_INTERVAL,
    TRUNCATION_TRIES,
    _checked,
    _gauss_nodes,
    _skl,
    _t_log_density_vec,
    build_nu_grid,
    log_ndtr,
    log_ndtr_diff,
    sample_inverse_gamma,
    sample_normal,
    sample_truncated_normal,
    t_log_normaliser,
)
from lsgt.errors import GridConstructionError, QuadratureError
from lsgt.rng import RngStream
from lsgt.sampler import _categorical_from_nll

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
    x = sample_inverse_gamma(rng, 1.0, np.full(N, beta))
    # 1/x ~ Exp(rate beta), mean 1/beta
    assert np.mean(1.0 / x) == pytest.approx(1.0 / beta, rel=0.01)


def test_inverse_gamma_moments(rng):
    x = sample_inverse_gamma(rng, 3.0, np.full(N, 2.0))
    assert np.mean(x) == pytest.approx(2.0 / (3.0 - 1.0), rel=0.01)
    # variance checked at shape 5: the empirical variance of shallower
    # shapes has no finite fourth moment behind it
    x = sample_inverse_gamma(rng, 5.0, np.full(N, 4.0))
    assert np.var(x) == pytest.approx(16.0 / (16.0 * 3.0), rel=0.01)


def test_inverse_gamma_invalid_args(rng):
    with pytest.raises(ValueError):
        sample_inverse_gamma(rng, 0.0, 1.0)
    with pytest.raises(ValueError):
        sample_inverse_gamma(rng, 1.0, -1.0)
    for bad in (0.0, math.nan, math.inf):
        s = np.full(12, 1.5)
        s[7] = bad
        with pytest.raises(ValueError):
            sample_inverse_gamma(rng, 2.0, s)


@pytest.mark.parametrize("k", [0.5, 1.0, 5.5])
def test_inverse_gamma_batch_is_the_two_parameter_gamma_draw_for_draw(k):
    # a scalar-shape batch goes through standard_gamma; its values and the
    # generator's state after it are those of gamma(k, 1 / scale)
    gen = np.random.default_rng(29)
    cases = [gen.uniform(0.01, 50.0, size=n) for n in (1, 12, 125)] + [np.full(40, 2.5)]
    for i, s in enumerate(cases):
        a, b = np.random.default_rng(i), np.random.default_rng(i)
        got = sample_inverse_gamma(a, k, s)
        want = 1.0 / b.gamma(k, 1.0 / s)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert a.random() == b.random()


def test_normal_moments():
    # a normal draw is numpy's, draw for draw, with the generator left in the same state
    for i, (m, v) in enumerate([(0.0, 1.0), (-3.5, 0.04), (1e6, 2.5e3), (2.0, 1e-12)]):
        a, b = np.random.default_rng(i), np.random.default_rng(i)
        got = sample_normal(a, m, v)
        assert type(got) is float
        assert got == b.normal(m, math.sqrt(v))
        assert a.random() == b.random()


# the sampler's one categorical draw is the grid draw, with weights exp(-nll)

def test_categorical_degenerate(rng):
    nll = np.array([0.0, math.inf, math.inf])
    assert all(_categorical_from_nll(rng, nll) == 0 for _ in range(100))


def test_categorical_frequencies(rng):
    nll = -np.log([1.0, 2.0, 3.0])
    draws = np.array([_categorical_from_nll(rng, nll) for _ in range(300_000)])
    freq = np.bincount(draws, minlength=3) / draws.size
    np.testing.assert_allclose(freq, [1 / 6, 1 / 3, 1 / 2], atol=0.01)


def test_categorical_symmetric(rng):
    draws = np.array([_categorical_from_nll(rng, np.zeros(2)) for _ in range(200_000)])
    assert np.mean(draws == 0) == pytest.approx(0.5, abs=0.01)


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
    for a, b in ((-1.0, 1.0), (0.5, 3.0), (-3.0, -0.5), (8.0, 9.0), (-40.0, -39.0)):
        mid = 0.5 * (a + b)
        want = norm.logpdf(mid) - truncnorm.logpdf(mid, a, b)
        assert log_ndtr_diff(a, b) == pytest.approx(want, rel=1e-9)
    # on a 1e-9-wide interval truncnorm's difference of two log Phi cancels and
    # is 2.1e-9 relative off; the midpoint rule log(b - a) + log phi(mid) is
    # exact there to about 1e-19
    a, b = 2.0, 2.0 + 1e-9
    want = math.log(b - a) + norm.logpdf(0.5 * (a + b))
    assert log_ndtr_diff(a, b) == pytest.approx(want, rel=1e-9)


def test_log_ndtr_matches_scipy():
    # every branch: log1p of the upper tail, log erfc, and the series below -20
    x = np.concatenate((np.linspace(-1e4, 40.0, 200_001), np.linspace(-40.0, 40.0, 80_001)))
    want = scipy_log_ndtr(x)
    got = np.array([log_ndtr(v) for v in x.tolist()])
    np.testing.assert_array_less(np.abs(got - want), 1e-12 * np.abs(want) + 1e-300)


def test_log_ndtr_diff_either_side_of_the_narrow_switch():
    # intervals whose h (|m| + h) sits just below and above NARROW_INTERVAL,
    # where log_ndtr_diff switches between integrating phi and differencing
    # log Phi, against quad of phi scaled by exp(m^2 / 2)
    for m in (-35.0, -6.0, -1.0, 0.0, 0.4, 4.0, 30.0):
        for ratio in (1e-6, 0.999, 1.001, 3.0):
            h = 0.5 * (-abs(m) + math.sqrt(m * m + 4.0 * ratio * NARROW_INTERVAL))
            a, b = m - h, m + h
            mass = quad(lambda x: math.exp(-0.5 * (x - m) * (x + m)), a, b, epsabs=0, epsrel=1e-13)[0]
            want = -0.5 * m * m + math.log(mass) - 0.5 * math.log(2.0 * math.pi)
            assert log_ndtr_diff(a, b) == pytest.approx(want, rel=1e-12, abs=1e-14), (m, ratio)


# the unit t density is the integrand of the symmetric KL and so of the nu grid
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


def test_t_log_normaliser_elementwise():
    nu = np.array([[0.7, 3.0], [41.5, 1000.0]])
    got = t_log_normaliser(nu)
    assert got.shape == nu.shape
    assert got.tolist() == [[t_log_normaliser(v) for v in row] for row in nu.tolist()]
    # minus the unit t log density at 0; at df 1000 the two lgamma, near
    # 2600, cancel to 0.92, which leaves about 12 digits
    np.testing.assert_allclose(got, -t_dist.logpdf(0.0, nu), rtol=1e-11)


def test_gauss_nodes_match_leggauss():
    for n in (2, 3, 40, 600, 1200):
        x, w = _gauss_nodes(n)
        x_ref, w_ref = np.polynomial.legendre.leggauss(n)
        np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-14)
        np.testing.assert_allclose(w, w_ref, rtol=1e-7, atol=0)
        assert w.sum() == pytest.approx(2.0, abs=1e-12)


def test_t_log_density_normal_limit():
    assert _t_log_density_vec(np.array([0.0]), 1e6)[0] == pytest.approx(norm.logpdf(0.0), abs=1e-3)


def test_t_log_density_cauchy_case():
    # at the origin the unit Cauchy log density is -log(pi)
    assert _t_log_density_vec(np.array([0.0]), 1.0)[0] == pytest.approx(-math.log(math.pi), abs=1e-12)


def test_t_scale_mixture_identity(rng):
    # x | w ~ N(mu, sigma^2 w), w ~ IG(nu/2, nu/2)  marginally t(nu, mu, sigma)
    nu, mu, sigma = 4.0, 1.0, 2.0
    w = sample_inverse_gamma(rng, nu / 2, np.full(100_000, nu / 2))
    x = rng.normal(mu, sigma * np.sqrt(w))
    p = kstest(x, lambda v: t_dist.cdf(v, nu, loc=mu, scale=sigma)).pvalue
    assert p > 0.01


def test_half_cauchy_nested_ig(rng):
    a = 1.5
    eta = sample_inverse_gamma(rng, 0.5, np.full(100_000, 1.0 / a ** 2))
    y2 = sample_inverse_gamma(rng, 0.5, 1.0 / eta)
    p = kstest(np.sqrt(y2), lambda v: halfcauchy.cdf(v, scale=a)).pvalue
    assert p > 0.01


def test_symmetric_kl_properties():
    a, b = np.array([3.0, 2.0, 7.0, 2.0]), np.array([3.0, 7.0, 2.0, 4.0])
    same, fwd, back, pos = _checked(a, b, _skl(a, b, KL_NODES))
    assert same == 0.0
    assert fwd == back
    assert pos > 0.0


def test_symmetric_kl_against_quad():
    def kl_quad(n1, n2):
        f = lambda x: t_dist.pdf(x, n1) * (t_dist.logpdf(x, n1) - t_dist.logpdf(x, n2))
        return quad(f, -np.inf, np.inf, limit=400)[0]

    a, b = np.array([2.0, 1.6, 10.0]), np.array([4.0, 30.0, 1000.0])
    got = _checked(a, b, _skl(a, b, KL_NODES))
    for n1, n2, kl in zip(a, b, got):
        ref = kl_quad(n1, n2) + kl_quad(n2, n1)
        assert kl == pytest.approx(ref, rel=1e-6)


@pytest.mark.slow
def test_symmetric_kl_against_monte_carlo():
    ref = mc_symmetric_kl_t(2.0, 4.0, n=10_000_000)
    a, b = np.array([2.0]), np.array([4.0])
    assert _checked(a, b, _skl(a, b, KL_NODES))[0] == pytest.approx(ref, rel=0.02)


def test_nu_grid_trivial():
    g = build_nu_grid(1.6, 1000.0, 2)
    assert g.candidates == (1.6, 1000.0)


def test_nu_grid_ascending_and_equal_gaps():
    for q in (3, 20, 100):  # 3 has one interior node; 100 is the default grid size
        arr = np.array(build_nu_grid(1.6, 1000.0, q).candidates)
        assert len(arr) == q
        assert np.all(np.diff(arr) > 0)
        assert arr[0] == 1.6 and arr[-1] == 1000.0
        gaps = _checked(arr[:-1], arr[1:], _skl(arr[:-1], arr[1:], KL_NODES))
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


def test_nu_grid_default_converges_in_few_passes(monkeypatch):
    # each pass computes the gaps once at KL_NODES, and the final check
    # computes them once more at half the nodes
    nodes = []
    skl = dists._skl

    def counting_skl(a, b, n_nodes):
        nodes.append(n_nodes)
        return skl(a, b, n_nodes)

    monkeypatch.setattr(dists, "_skl", counting_skl)
    grid = build_nu_grid.__wrapped__(1.6, 1000.0, 100)
    assert nodes.count(KL_NODES) <= 15
    assert grid == build_nu_grid(1.6, 1000.0, 100)


def test_importing_lsgt_loads_no_scipy():
    code = "import sys, lsgt, lsgt.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_nu_grid_unequal_gaps_raise(monkeypatch):
    # one pass from the log-spaced start cannot equalise the gaps
    monkeypatch.setattr(dists, "GRID_PASSES", 1)
    with pytest.raises(GridConstructionError):
        build_nu_grid.__wrapped__(1.6, 1000.0, 10)
