import math
import warnings

import numpy as np
import pytest
from scipy import integrate, optimize
from scipy.stats import norm
from scipy.stats import t as t_dist

from lsgt.dists import sample_categorical
from lsgt.errors import DegenerateSeriesError
from lsgt.model import LEVEL_FLOOR
from lsgt.sampler import (
    _categorical_from_nll,
    _gamma_pair,
    _gamma_regression,
    _phi_nll,
    _rho_nll,
    _tau_nll,
    nu_collapsed_nll,
    update_nu_collapsed,
    update_phi_grid,
    update_tau_grid,
)

from .helpers import random_state, reference_paths


def test_grid_sampler_frequencies_match_weights(rng):
    nll = np.array([1.2, 0.4, 2.0, 0.9])
    w = np.exp(-(nll - nll.min()))
    probs = w / w.sum()
    draws = np.array([_categorical_from_nll(rng, nll) for _ in range(100_000)])
    freq = np.bincount(draws, minlength=4) / draws.size
    np.testing.assert_allclose(freq, probs, atol=0.01)


def test_grid_single_candidate(rng):
    assert all(_categorical_from_nll(rng, np.array([3.3])) == 0 for _ in range(50))


def test_grid_all_non_finite_raises(rng):
    with pytest.raises(DegenerateSeriesError):
        _categorical_from_nll(rng, np.array([math.inf, math.nan]))


def test_grid_partial_non_finite_excluded(rng):
    nll = np.array([0.0, math.inf, 0.0])
    draws = {_categorical_from_nll(rng, nll) for _ in range(200)}
    assert draws == {0, 2}


def test_grid_draw_picks_the_index_of_the_checked_weights():
    # from identical generator states, the direct draw from exp(min - nll)
    # picks what sample_categorical picks from the weights exp(-(nll - min)),
    # +inf candidates weighing 0 in both; that path runs without errstate,
    # so it must warn about nothing
    gen = np.random.default_rng(17)
    for i in range(300):
        nll = gen.normal(0.0, 4.0, size=int(gen.integers(1, 120))) + gen.uniform(-1e4, 1e4)
        if i % 2:
            nll[gen.random(nll.size) < 0.4] = math.inf
            nll[int(gen.integers(nll.size))] = gen.normal()
        a, b = np.random.default_rng(i), np.random.default_rng(i)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            idx = _categorical_from_nll(a, nll)
        assert idx == sample_categorical(b, np.exp(-(nll - nll.min())))
        assert a.random() == b.random()
    # a -inf or NaN minimum takes the checked path: the weights of the
    # finite candidates alone, every other candidate weighing 0
    for i in range(300):
        nll = gen.normal(0.0, 4.0, size=int(gen.integers(2, 120)))
        bad = gen.random(nll.size) < 0.3
        nll[bad] = gen.choice([-math.inf, math.nan, math.inf], size=int(bad.sum()))
        nll[int(gen.integers(nll.size))] = (-math.inf, math.nan)[i % 2]
        finite = np.isfinite(nll)
        if not finite.any():
            continue
        w = np.zeros(nll.size)
        w[finite] = np.exp(-(nll[finite] - nll[finite].min()))
        a, b = np.random.default_rng(i), np.random.default_rng(i)
        assert _categorical_from_nll(a, nll) == sample_categorical(b, w)
        assert a.random() == b.random()


def _broadcast_tables(state):
    """The grid nlls and gamma's regression, one broadcast expression each: the in-place tables' reference."""
    th, paths, grids = state.theta, state.paths, state.grids
    lp = np.maximum(paths.l[:-1], LEVEL_FLOOR)
    e2 = paths.e ** 2
    s2 = reference_paths(state.y, th, state.prior).sigma2hat
    nu = grids.nu[:, None]
    if state.seasonal:
        # step t applies the factor of step t - m, or a seed for t < m
        c = paths.l[:-1]
        s = np.exp(np.concatenate([paths.log_s[1:state.m], paths.log_s[:state.T - state.m]]))
    else:
        c = paths.l[:-1] + th.lam * paths.b[:-1]
        s = np.ones(state.T - 1)
    sigma2 = th.omega2 * s2
    resid = (state.y[1:] - c * s) * s / sigma2
    weight = s ** 2 / sigma2
    x = np.power(lp[None, :], grids.rho[:, None])
    # the grid's precisions and scores are matrix-vector products; gamma's
    # draw reads the chosen row's sums in the order of these row sums
    prec_sums = (x ** 2 * weight[None, :]).sum(axis=1)
    score_sums = (x * resid[None, :]).sum(axis=1)
    prec, score = (x * x) @ weight, x @ resid
    prior_var = th.xi_gamma2 * state.s_gamma ** 2
    var_c = 1.0 / (prec + 1.0 / prior_var)
    mu_c = var_c * score

    def variance_nll(sigma2_c):
        return (0.5 * (th.nu + 1.0) * np.log1p(e2[None, :] / (th.nu * sigma2_c)).sum(axis=1)
                + 0.5 * np.log(sigma2_c).sum(axis=1))

    tau, phi = grids.tau[:, None], grids.phi[:, None]
    return {
        "nu": 0.5 * (grids.nu + 1.0) * np.log1p((e2 / s2)[None, :] / nu).sum(axis=1)
        + e2.shape[0] * grids.nu_log_normaliser,
        "prec": prec_sums,
        "score": score_sums,
        "rho": -mu_c ** 2 / (2.0 * var_c) - 0.5 * np.log(var_c) + np.log(grids.rho ** 2 + 1.0),
        "tau": variance_nll(th.chi2 * (th.phi ** 2 + (1.0 - th.phi) ** 2 * np.power(lp[None, :], 2.0 * tau))),
        "phi": variance_nll(th.chi2 * (phi ** 2 + (1.0 - phi) ** 2 * lp[None, :] ** (2.0 * th.tau))),
    }


@pytest.mark.parametrize("seasonal", [False, True], ids=["lgt", "sgt"])
def test_grid_tables_equal_their_broadcast_forms(rng, seasonal):
    for _ in range(10):
        state = random_state(rng, T=int(rng.integers(8, 60)), seasonal=seasonal, m=4 if seasonal else 1)
        grids = state.grids
        want = _broadcast_tables(state)
        x, resid, weight, prior_var = _gamma_regression(state, grids.rho_col)
        prec, score = np.array([_gamma_pair(row, resid, weight) for row in x]).T
        got = {
            "nu": nu_collapsed_nll(state),
            "prec": prec,
            "score": score,
            "rho": _rho_nll(x, resid, weight, prior_var, grids.rho_penalty),
            "tau": _tau_nll(state, grids.tau_power_col),
            "phi": _phi_nll(state, grids.phi_sq_col, grids.phi_keep_sq_col),
        }
        for name in want:
            assert np.array_equal(got[name], want[name]), name


def test_nu_collapsed_nll_is_student_t_density(rng):
    # every df-dependent normalising constant is kept: the value is the full
    # Student-t negative log density of the standardised residuals
    state = random_state(rng, T=15)
    grid = state.grids.nu
    z = state.paths.e / np.sqrt(state.theta.chi2 * state.paths.g)
    got = nu_collapsed_nll(state)
    for j, nu in enumerate(grid):
        expected = -float(np.sum(t_dist.logpdf(z, df=nu)))
        assert got[j] == pytest.approx(expected, rel=1e-10)


def test_nu_concentrates_at_normal_limit(rng):
    # exactly Gaussian-shaped residuals at large T: posterior mass piles at the top
    state = random_state(rng, T=400)
    n = state.T - 1
    state.paths.e = norm.ppf((np.arange(n) + 0.5) / n) * np.sqrt(state.theta.chi2 * state.paths.g)
    nll = nu_collapsed_nll(state)
    assert int(np.argmin(nll)) == len(state.grids.nu) - 1
    draws = [update_nu_collapsed(state, rng) for _ in range(50)]
    assert np.median(draws) == state.grids.nu[-1]


def _log_marginal_over_gamma(state, rho):
    """log of the integral over the trend coefficient of likelihood x prior,
    by quadrature, for the conditionally Gaussian model given the mixture."""
    th = state.theta
    x = np.maximum(state.paths.l[:-1], LEVEL_FLOOR) ** rho
    c = state.paths.l[:-1] + th.lam * state.paths.b[:-1]
    sig2 = th.omega2 * (th.chi2 * state.paths.g)
    prior_var = th.xi_gamma2 * state.s_gamma ** 2
    yy = state.y[1:]

    def log_f(g):
        resid = yy - (g * x + c)
        return float(np.sum(-resid ** 2 / (2.0 * sig2))) - g ** 2 / (2.0 * prior_var)

    mode = optimize.minimize_scalar(lambda g: -log_f(g)).x
    peak = log_f(mode)
    width = 1.0 / math.sqrt(-(log_f(mode + 1e-3) - 2.0 * peak + log_f(mode - 1e-3)) / 1e-6)
    val, _ = integrate.quad(lambda g: math.exp(log_f(g) - peak),
                            mode - 40.0 * width, mode + 40.0 * width,
                            points=[mode], epsabs=0.0, epsrel=1e-12, limit=200)
    return peak + math.log(val)


def test_rho_marginal_nll_matches_quadrature(rng):
    # differences across candidates of the trend-power posterior, with the
    # trend coefficient integrated out, include the log(rho^2+1) penalty
    state = random_state(rng, T=12)
    cand = state.grids.rho[::9]
    got = _rho_nll(*_gamma_regression(state, cand[:, None]), np.log(cand ** 2 + 1.0))
    expected = np.array([-_log_marginal_over_gamma(state, r) + math.log(r ** 2 + 1.0) for r in cand])
    np.testing.assert_allclose(got - got[0], expected - expected[0], rtol=1e-6, atol=1e-6)


def test_rho_penalty_regression_locked(rng):
    # frozen fixture: removing the penalty changes the implied weights
    state = random_state(rng, T=12)
    cand = state.grids.rho
    nll = _rho_nll(*_gamma_regression(state, cand[:, None]), np.log(cand ** 2 + 1.0))
    core = nll - np.log(cand ** 2 + 1.0)
    w_with = np.exp(-(nll - nll.min()))
    w_without = np.exp(-(core - core.min()))
    p_with = w_with / w_with.sum()
    p_without = w_without / w_without.sum()
    assert np.max(np.abs(p_with - p_without)) > 1e-4


def test_variance_grid_nll_matches_direct(rng):
    state = random_state(rng, T=12)
    th = state.theta
    cand = state.grids.tau[:5]
    got = _tau_nll(state, 2.0 * cand[:, None])
    lp = np.maximum(state.paths.l[:-1], 1e-10)
    for j, tau in enumerate(cand):
        s2 = th.chi2 * (th.phi ** 2 + (1.0 - th.phi) ** 2 * lp ** (2.0 * tau))
        expected = float(
            np.sum(0.5 * (th.nu + 1.0) * np.log1p(state.paths.e ** 2 / (th.nu * s2)))
            + np.sum(0.5 * np.log(s2))
        )
        assert got[j] == pytest.approx(expected, rel=1e-12)


def test_phi_one_candidate_gives_homoscedastic(rng):
    state = random_state(rng, T=12)
    col = np.array([[1.0]])
    nll = _phi_nll(state, col ** 2, (1.0 - col) ** 2)
    th = state.theta
    s2 = np.full(state.T - 1, th.chi2)
    expected = float(
        np.sum(0.5 * (th.nu + 1.0) * np.log1p(state.paths.e ** 2 / (th.nu * s2)))
        + np.sum(0.5 * np.log(s2))
    )
    assert nll[0] == pytest.approx(expected, rel=1e-12)


def test_tau_phi_updates_keep_state_consistent(rng):
    state = random_state(rng, T=14)
    update_tau_grid(state, rng)
    update_phi_grid(state, rng)
    full = reference_paths(state.y, state.theta, state.prior)
    assert (state.theta.chi2 * state.paths.g).tolist() == full.sigma2hat.tolist()
