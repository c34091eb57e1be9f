"""Detailed-balance checks: long MH runs against quadrature posteriors.

These keep every non-MH parameter fixed and compare the empirical marginal
of a long chain of only-MH updates against a direct numerical integration
of likelihood x prior, which exercises the asymmetric proposal-density
terms of the gradient-assisted scheme.  The seasonal kernel's remaining
invariants (beta drawn from its prior, paths equal to the recursion, each
proposal's one forward pass equal to the reference functions) are checked
here too.
"""

import math

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.stats import beta as beta_dist
from scipy.stats import kstest

from lsgt.errors import NumericalError
from lsgt.model import SMOOTHING_PRIOR
from lsgt.sampler import (
    StepSizeState,
    _seasonal_log_prior,
    _seasonal_visit,
    seasonal_seeds_move,
    seasonal_weights_move,
    update_smoothing_seasonal,
)

from .helpers import assert_paths_equal, random_state, reference_paths
from .oracles import negative_log_likelihood, seasonal_gradient_from_paths


def only(move):
    """One SGT move as a kernel of its own: (state, rng, step) -> accepted."""
    def update(state, rng, step):
        here = _seasonal_visit(state, state.theta)
        return move(state, rng, step, here) is not here
    return update


def run_mh_chain(state, rng, update, n_adapt, n_keep, names):
    step = StepSizeState(log_eps=math.log(0.1))
    for _ in range(n_adapt):
        update(state, rng, step)
    step.adapting = False
    kept = np.empty((n_keep, len(names)))
    for i in range(n_keep):
        update(state, rng, step)
        kept[i] = [getattr(state.theta, n) if n != "seed0" else state.theta.log_s_init[0]
                   for n in names]
    return kept, step


def test_smoothing_mh_matches_quadrature_posterior(rng):
    # the SGT weights move alone on a short m = 2 series, seeds held fixed;
    # the posterior is integrated on a logit grid, where the Beta(1, 0.5)
    # priors stay smooth
    state = random_state(rng, T=12, seasonal=True, m=2, hetero=False)
    y, prior, theta = state.y, state.prior, state.theta
    a_prior, b_prior = SMOOTHING_PRIOR

    x = np.linspace(-18.0, 18.0, 241)
    weights = 1.0 / (1.0 + np.exp(-x))
    log_post = np.empty((x.size, x.size))
    for i, a in enumerate(weights):
        for j, z in enumerate(weights):
            trial = theta.copy()
            trial.alpha, trial.zeta = float(a), float(z)
            nll = negative_log_likelihood(reference_paths(y, trial, prior), theta.nu)
            # prior times the logit Jacobian w (1 - w)
            log_post[i, j] = -nll + a_prior * math.log(a) + b_prior * math.log1p(-a) \
                + a_prior * math.log(z) + b_prior * math.log1p(-z)
    post = np.exp(log_post - log_post.max())
    z_norm = simpson(simpson(post, x=x, axis=1), x=x)
    mean_alpha = simpson(weights * simpson(post, x=x, axis=1), x=x) / z_norm
    mean_zeta = simpson(weights * simpson(post, x=x, axis=0), x=x) / z_norm

    kept, step = run_mh_chain(state, rng, only(seasonal_weights_move), 3000, 60_000, ["alpha", "zeta"])
    assert 0.2 < (step.accepted / step.proposals) < 0.9
    assert np.mean(kept[:, 0]) == pytest.approx(mean_alpha, abs=0.02)
    assert np.mean(kept[:, 1]) == pytest.approx(mean_zeta, abs=0.02)


def test_seasonal_mh_matches_quadrature_posterior(rng):
    state = random_state(rng, T=12, seasonal=True, m=2, hetero=False)
    y, prior, theta = state.y, state.prior, state.theta
    psi2, delta2 = theta.psi2, theta.delta2

    grid = np.linspace(-1.5, 1.5, 801)
    log_post = np.empty(grid.size)
    for i, s0 in enumerate(grid):
        trial = theta.copy()
        trial.log_s_init = np.array([s0, -s0])
        nll = negative_log_likelihood(reference_paths(y, trial, prior), theta.nu)
        lp = -0.5 * (s0 ** 2 / (psi2[0] * delta2) + s0 ** 2 / (psi2[1] * delta2))
        log_post[i] = -nll + lp
    post = np.exp(log_post - log_post.max())
    z = simpson(post, x=grid)
    mean_q = simpson(grid * post, x=grid) / z
    sd_q = math.sqrt(simpson(grid ** 2 * post, x=grid) / z - mean_q ** 2)

    kept, step = run_mh_chain(state, rng, only(seasonal_seeds_move), 3000, 60_000, ["seed0"])
    assert 0.2 < (step.accepted / step.proposals) < 0.95
    assert np.mean(kept[:, 0]) == pytest.approx(mean_q, abs=max(0.02, 0.1 * sd_q))
    # the balancing seed always mirrors the free one
    assert state.theta.log_s_init[1] == -state.theta.log_s_init[0]


def test_mh_adapts_toward_target(rng):
    state = random_state(rng, T=25, seasonal=True, m=4)
    steps = [StepSizeState(log_eps=math.log(5.0)) for _ in range(2)]  # absurdly large start
    for _ in range(1500):
        update_smoothing_seasonal(state, rng, *steps)
    for step in steps:
        step.adapting = False
    for _ in range(2000):
        update_smoothing_seasonal(state, rng, *steps)
    for step in steps:
        assert 0.35 <= step.rate <= 0.75


def test_mh_rejects_non_finite_proposals(rng):
    state = random_state(rng, T=8, seasonal=True, m=2)
    # proposals fly to the boundary
    steps = [StepSizeState(log_eps=math.log(80.0), adapting=False) for _ in range(2)]
    for _ in range(50):
        update_smoothing_seasonal(state, rng, *steps)
    # extreme proposals saturate the sigmoid or overflow the recursion and
    # must be auto-rejected
    for step in steps:
        assert step.accepted <= 5
    state.theta.validate()


def test_seasonal_kernel_draws_beta_from_its_prior(rng):
    state = random_state(rng, T=12, seasonal=True, m=2)
    steps = [StepSizeState(log_eps=math.log(0.3), adapting=False) for _ in range(2)]
    draws = []
    for _ in range(2000):
        update_smoothing_seasonal(state, rng, *steps)
        draws.append(state.theta.beta)
    assert kstest(draws, beta_dist(*SMOOTHING_PRIOR).cdf).pvalue > 0.01


class FixedBeta:
    """A generator whose Beta draws return one value and whose other draws are real."""

    def __init__(self, rng, value):
        self.rng = rng
        self.value = value

    def beta(self, a, b):
        return self.value

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("value", [1.0, 0.0])
def test_seasonal_kernel_keeps_beta_inside_the_open_interval(rng, value):
    # a Beta(1, 0.5) draw rounds to 1.0 with probability about 1e-8, and to
    # 0.0 when its uniform is exactly 0; draws must stay in (0, 1)
    state = random_state(rng, T=12, seasonal=True, m=2)
    steps = [StepSizeState(log_eps=math.log(0.3), adapting=False) for _ in range(2)]
    update_smoothing_seasonal(state, FixedBeta(rng, value), *steps)
    assert 0.0 < state.theta.beta < 1.0
    state.theta.validate()


def test_seasonal_kernel_leaves_paths_equal_to_the_recursion(rng):
    state = random_state(rng, T=30, seasonal=True, m=4)
    steps = [StepSizeState(log_eps=math.log(eps), adapting=False) for eps in (0.3, 0.03)]
    for _ in range(20):
        update_smoothing_seasonal(state, rng, *steps)
        assert_paths_equal(state.paths, state.theta.chi2, reference_paths(state.y, state.theta, state.prior))
    assert min(steps[0].accepted, steps[1].accepted) > 0


def test_refused_current_seasonal_draw_is_a_numerical_error(rng):
    # the trend-power grid may leave a draw whose forecast overflows; the
    # current draw's forward pass refuses it, and the kernel raises the
    # error that fit records per chain, leaving the paths as they were
    state = random_state(rng, T=12, seasonal=True, m=2)
    before = state.paths.e.tolist()
    state.theta.gamma = 1e308
    steps = [StepSizeState(log_eps=math.log(0.3), adapting=False) for _ in range(2)]
    with pytest.raises(NumericalError):
        update_smoothing_seasonal(state, rng, *steps)
    assert state.paths.e.tolist() == before


def _seasonal_trials(state, rng, n=5):
    """The current draw and ``n`` proposals of new weights and seeds around it."""
    th = state.theta
    trials = [th]
    for _ in range(n):
        trial = th.proposal_clone()
        trial.alpha, trial.zeta = rng.uniform(0.05, 0.95, 2).tolist()
        free = th.log_s_init[:-1] + rng.normal(0.0, 0.1, th.m - 1)
        trial.log_s_init = np.append(free, -float(free.sum()))
        trials.append(trial)
    return trials


def _reference_point(state, trial):
    """The reference recursion's log target, gradient and paths; three Nones where a MALA move refuses the point.

    The log target adds the seasonal prior, and the weights' Beta priors
    with their logit Jacobian, to the log likelihood; the gradient is the
    likelihood's, then the weights' terms: the seasonal prior steers no
    proposal.
    """
    paths = reference_paths(state.y, trial, state.prior)
    if paths is None:
        return None, None, None
    nll = negative_log_likelihood(paths, trial.nu)
    if not math.isfinite(nll):
        return None, None, None
    log_target = _seasonal_log_prior(trial.log_s_init, trial, state.prior) - nll
    grad = -np.asarray(seasonal_gradient_from_paths(state.y, trial, paths))
    a, b = SMOOTHING_PRIOR
    for i, w in enumerate((trial.alpha, trial.zeta)):
        log_target += a * math.log(w) + b * math.log1p(-w)
        grad[i] = float(grad[i]) * w * (1.0 - w) + a - (a + b) * w
    if not (math.isfinite(log_target) and np.all(np.isfinite(grad))):
        return None, None, None
    return log_target, grad, paths


def _floored_seasonal_case(rng):
    # the level decays from 30 to far below LEVEL_FLOOR at these weights; a
    # small seasonal weight keeps the factors from absorbing the decay
    state = random_state(rng, T=24, seasonal=True, m=2, hetero=True, rho=-0.5, tau=0.2,
                         alpha=0.9, zeta=0.01)
    state.y = np.concatenate([[30.0, 28.0, 25.0], np.full(21, 1e-14) * (1.0 + 0.1 * rng.random(21))])
    state.set_paths(reference_paths(state.y, state.theta, state.prior))
    trials = [state.theta]
    for alpha, zeta in [(0.95, 0.02), (0.99, 0.01)]:
        trial = state.theta.proposal_clone()
        trial.alpha, trial.zeta = alpha, zeta
        trials.append(trial)
    return state, trials


def test_seasonal_forward_pass_equals_the_reference(rng):
    cases = []
    for m in (2, 4, 12):
        for hetero in (False, True):
            for _ in range(2):
                T = 2 * m + int(rng.integers(0, 30))
                state = random_state(rng, T=T, seasonal=True, m=m, hetero=hetero)
                cases.append((state, _seasonal_trials(state, rng)))
    cases.append(_floored_seasonal_case(rng))
    clamped = 0
    for state, trials in cases:
        for trial in trials:
            log_target, grad, paths = _reference_point(state, trial)
            assert log_target is not None
            got = _seasonal_visit(state, trial)
            assert got.nll == negative_log_likelihood(paths, trial.nu)
            assert got.log_target == log_target
            got_grad = got.gradient()
            assert np.array_equal(got_grad, grad)
            assert got.gradient() is got_grad
            assert np.array_equal(-got_grad[2:], seasonal_gradient_from_paths(state.y, trial, paths)[2:])
            fused = got.paths()
            assert_paths_equal(fused, trial.chi2, paths)
            assert fused.clamp_events == paths.clamp_events
            clamped += fused.clamp_events
    assert clamped > 0


@pytest.mark.parametrize("values, chi2", [
    ([1e200, 2e200, 1.5e200, 3e200, 2.5e200, 1e200], None),   # the scale's level power overflows
    ([1.2e154, 1.3e154, 1.1e154, 1.4e154, 1.2e154, 1.3e154, 1.1e154, 1.3e154], None),  # it may, by the weights
    ([-1.7e308, 1.7e308, 1.6e308, 1.7e308, 1.5e308], None),   # a factor's log of a negative ratio
    ([25.0, 27.0, 24.0, 26.0, 28.0, 25.0, 27.0], 0.0),        # a zero scale divides a residual
], ids=["scale", "edge", "sign", "zero"])
def test_seasonal_forward_pass_refuses_where_the_reference_does(rng, values, chi2):
    state = random_state(rng, T=len(values), seasonal=True, m=2, hetero=True, tau=1.0, phi=0.5)
    state.y = np.array(values)
    if chi2 is not None:
        state.theta.chi2 = chi2
    refused = 0
    for trial in _seasonal_trials(state, rng, n=20):
        log_target, grad, _ = _reference_point(state, trial)
        got = _seasonal_visit(state, trial)
        assert (got is None) == (log_target is None)
        if log_target is not None:
            assert got.log_target == log_target
            assert np.array_equal(got.gradient(), grad)
        refused += log_target is None
    assert refused
