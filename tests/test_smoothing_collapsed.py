"""The LGT smoothing-weight kernel with (gamma, lam) integrated out.

``smoothing_marginal`` is checked against brute-force integration of the
joint (gamma, lam) density, its gradient against finite differences, its
fused recursion against the reference recursion followed by the same arithmetic,
and ``update_smoothing_collapsed`` alone against the (alpha, beta)
posterior it must leave invariant, with every other parameter held fixed:
the whole kernel, and its independence step without the MALA step.
"""

import math

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.stats import norm

from lsgt.dists import log_ndtr_diff
from lsgt.model import LAM_RANGE, LEVEL_FLOOR, SMOOTHING_PRIOR
from lsgt import sampler
from lsgt.sampler import StepSizeState, smoothing_marginal, update_smoothing_collapsed

from .helpers import random_state, reference_paths


def _logit(p):
    return math.log(p / (1.0 - p))


def _sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def _weights_log_prior(alpha, beta):
    """Beta priors of both weights plus the logit Jacobian."""
    a, b = SMOOTHING_PRIOR
    return a * math.log(alpha) + b * math.log(1.0 - alpha) + a * math.log(beta) + b * math.log(1.0 - beta)


def _regression(state, alpha, beta):
    """(r, x_gamma, x_lam, variance) of y[t] - l[t-1] = gamma x_gamma + lam x_lam + noise."""
    trial = state.theta.copy()
    trial.alpha, trial.beta = alpha, beta
    paths = reference_paths(state.y, trial, state.prior)
    l_prev = paths.l[:-1]
    x_g = np.maximum(l_prev, LEVEL_FLOOR) ** trial.rho
    return state.y[1:] - l_prev, x_g, paths.b[:-1], trial.omega2 * paths.sigma2hat


def _prior_variances(state):
    th = state.theta
    return th.xi_gamma2 * state.s_gamma ** 2, th.xi_lambda2 * state.s_lambda ** 2


def quadrature_log_marginal(state, alpha, beta, n=401, width=14.0):
    """log of the (gamma, lam) integral of likelihood x coefficient priors, on a grid.

    The grid covers +-``width`` posterior sd around the untruncated mode and
    is cut at the bounds of ``LAM_RANGE``; the weights' prior and Jacobian
    are added.  Constants that do not depend on (alpha, beta) are dropped.
    """
    r, x_g, x_l, var = _regression(state, alpha, beta)
    v_g, v_l = _prior_variances(state)
    X = np.column_stack([x_g, x_l])
    P = X.T @ (X / var[:, None]) + np.diag([1.0 / v_g, 1.0 / v_l])
    mode = np.linalg.solve(P, X.T @ (r / var))
    sd = np.sqrt(np.diag(np.linalg.inv(P)))
    g = np.linspace(mode[0] - width * sd[0], mode[0] + width * sd[0], n)
    lo = max(LAM_RANGE[0], mode[1] - width * sd[1])
    hi = min(LAM_RANGE[1], mode[1] + width * sd[1])
    lam = np.linspace(lo, hi, n)
    resid = r[None, None, :] - g[:, None, None] * x_g - lam[None, :, None] * x_l
    log_joint = (-0.5 * (resid ** 2 / var).sum(axis=2) - 0.5 * np.log(var).sum()
                 - 0.5 * g[:, None] ** 2 / v_g - 0.5 * lam[None, :] ** 2 / v_l)
    top = log_joint.max()
    inner = simpson(np.exp(log_joint - top), x=lam, axis=1)
    return top + math.log(simpson(inner, x=g)) + _weights_log_prior(alpha, beta)


def oracle_posterior(state, alpha, beta):
    """(log marginal, mode, covariance) of the same integral through a generic linear solve.

    The mode and covariance are those of the untruncated Gaussian posterior
    of (gamma, lam); the log marginal includes lam's truncation.
    """
    r, x_g, x_l, var = _regression(state, alpha, beta)
    v_g, v_l = _prior_variances(state)
    X = np.column_stack([x_g, x_l])
    P = X.T @ (X / var[:, None]) + np.diag([1.0 / v_g, 1.0 / v_l])
    mode = np.linalg.solve(P, X.T @ (r / var))
    cov = np.linalg.inv(P)
    quad_min = float(((r - X @ mode) ** 2 / var).sum() + mode[0] ** 2 / v_g + mode[1] ** 2 / v_l)
    sd_l = math.sqrt(cov[1, 1])
    mass = norm.cdf(LAM_RANGE[1], mode[1], sd_l) - norm.cdf(LAM_RANGE[0], mode[1], sd_l)
    log_marginal = (-0.5 * float(np.log(var).sum()) - 0.5 * quad_min - 0.5 * np.linalg.slogdet(P)[1]
                    + math.log(mass) + _weights_log_prior(alpha, beta))
    return log_marginal, mode, cov


def marginal_at(state, alpha, beta):
    return smoothing_marginal(state, alpha, beta)


POINTS = [(0.2, 0.3), (0.5, 0.5), (0.8, 0.2), (0.3, 0.8), (0.65, 0.45)]


def reference_marginal(state, alpha, beta):
    """(log target, gradient, paths) of the collapsed target: the reference
    recursion at (alpha, beta), then three passes over its paths in the
    arithmetic of ``smoothing_marginal``; None where the recursion fails."""
    th = state.theta
    trial = th.copy()
    trial.alpha, trial.beta = alpha, beta
    paths = reference_paths(state.y, trial, state.prior)
    if paths is None:
        return None
    d_g = 1.0 / (th.xi_gamma2 * state.s_gamma ** 2)
    d_l = 1.0 / (th.xi_lambda2 * state.s_lambda ** 2)
    y, l, b = state.y[1:].tolist(), paths.l.tolist(), paths.b.tolist()
    s2, omega2 = paths.sigma2hat.tolist(), th.omega2.tolist()
    rho, tau = th.rho, th.tau
    het = 2.0 * tau * th.chi2 * (1.0 - th.phi) ** 2

    xg, w, r = [], [], []
    p11, p12, h1, log_var = d_g, 0.0, 0.0, 0.0
    for yt, lt, bt, s2t, om in zip(y, l, b, s2, omega2):
        lp = lt if lt >= LEVEL_FLOOR else LEVEL_FLOOR
        xt = lp ** rho
        var = om * s2t
        wt = 1.0 / var
        rt = yt - lt
        wx = wt * xt
        p11 += wx * xt
        p12 += wx * bt
        h1 += wx * rt
        log_var += math.log(var)
        xg.append(xt)
        w.append(wt)
        r.append(rt)

    c = p12 / p11
    S = d_l + c * c * d_g
    h2 = 0.0
    u = []
    for xt, bt, wt, rt in zip(xg, b, w, r):
        ut = bt - c * xt
        wu = wt * ut
        S += wu * ut
        h2 += wu * rt
        u.append(ut)
    m2 = h2 / S
    m1 = (h1 - p12 * m2) / p11

    root_s = math.sqrt(S)
    z_lo, z_hi = (LAM_RANGE[0] - m2) * root_s, (LAM_RANGE[1] - m2) * root_s
    log_z = log_ndtr_diff(z_lo, z_hi)
    log_norm = 0.5 * math.log(2.0 * math.pi) + log_z
    haz_lo = math.exp(-0.5 * z_lo * z_lo - log_norm)
    haz_hi = math.exp(-0.5 * z_hi * z_hi - log_norm)
    k1 = -root_s * (haz_hi - haz_lo)
    k2 = (haz_hi * z_hi - haz_lo * z_lo) / (2.0 * S)

    inv_p11, inv_s = 1.0 / p11, 1.0 / S
    k1_s = k1 * inv_s
    k_lam_e, k_lam_u = m2 + k1_s, 2.0 * k2 - inv_s - k1_s * m2
    k_xg_e, k_xg_u = m1 - c * k1_s, c * inv_s - k1_s * m1 - 2.0 * c * k2
    k_w_u = k2 - 0.5 * inv_s
    keep_a, keep_b = 1.0 - alpha, 1.0 - beta
    Q = d_g * m1 * m1 + d_l * m2 * m2
    g_a = g_b = 0.0
    dl = dba = dbb = 0.0
    for xt, bt, wt, rt, ut, lt, s2t in zip(xg, b, w, r, u, l, s2):
        et = rt - xt * m1 - bt * m2
        we = wt * et
        wu = wt * ut
        Q += we * et
        c_lam = we * k_lam_e + wu * k_lam_u
        c_alpha = we - k1_s * wu
        if lt >= LEVEL_FLOOR:
            c_xg = we * k_xg_e + wu * k_xg_u - wt * xt * inv_p11
            c_alpha += c_xg * rho * xt / lt
            if het:
                c_w = 0.5 - 0.5 * we * et - 0.5 * wt * xt * xt * inv_p11 + wu * (ut * k_w_u + k1_s * et)
                c_alpha -= c_w * het * lt ** (2.0 * tau - 1.0) / s2t
        g_a += c_alpha * dl + c_lam * dba
        g_b += c_lam * dbb
        dl_t = rt + keep_a * dl
        dbb = alpha * rt - bt + keep_b * dbb
        dba = beta * (dl_t - dl) + keep_b * dba
        dl = dl_t

    a, b = SMOOTHING_PRIOR
    prior = a * math.log(alpha) + b * math.log1p(-alpha) + a * math.log(beta) + b * math.log1p(-beta)
    value = -0.5 * log_var - 0.5 * Q - 0.5 * math.log(p11) - 0.5 * math.log(S) + log_z + prior
    grad = np.array([g_a * alpha * keep_a + a - (a + b) * alpha, g_b * beta * keep_b + a - (a + b) * beta])
    return value, grad, paths


def _floored_state(rng):
    # the level decays from 30 to far below LEVEL_FLOOR at these weights
    state = random_state(rng, T=24, hetero=True, rho=-0.5, tau=0.2)
    state.y = np.concatenate([[30.0, 28.0, 25.0], np.full(21, 1e-14) * (1.0 + 0.1 * rng.random(21))])
    state.set_paths(reference_paths(state.y, state.theta, state.prior))
    return state


def _fused_cases(rng):
    """Random states, each with its points; the last state floors some levels."""
    cases = [(random_state(rng, T=int(rng.integers(6, 45)), hetero=hetero), POINTS)
             for hetero in (False, True) for _ in range(6)]
    cases.append((_floored_state(rng), [(0.9, 0.3), (0.95, 0.6), (0.2, 0.5)]))
    return cases


def test_fused_pass_equals_recursion_then_passes(rng):
    clamped = 0
    for state, points in _fused_cases(rng):
        for alpha, beta in [(state.theta.alpha, state.theta.beta)] + points:
            got = smoothing_marginal(state, alpha, beta)
            value, grad, paths = reference_marginal(state, alpha, beta)
            assert got.log_target == value
            assert np.array_equal(got.grad, grad)
            fused = got.paths()
            for name in ("l", "b", "g", "log_s"):
                assert np.array_equal(getattr(fused, name), getattr(paths, name)), name
            assert got.clamp_events == paths.clamp_events
            clamped += got.clamp_events
    assert clamped > 0


def test_value_only_pass_then_gradient_equals_fused_pass(rng):
    # the independence step's points are formed without their gradient; the
    # one a MALA step starts from forms it afterwards, and it must be the
    # gradient that the fused pass gives, bit for bit
    for state, points in _fused_cases(rng):
        for alpha, beta in [(state.theta.alpha, state.theta.beta)] + points:
            fused = smoothing_marginal(state, alpha, beta)
            lazy = smoothing_marginal(state, alpha, beta, gradient=False)
            assert lazy.grad is None
            assert lazy.log_target == fused.log_target
            for name in ("gamma_mean", "gamma_prec", "lam_mean", "lam_prec", "slope", "l", "b", "g"):
                assert getattr(lazy, name) == getattr(fused, name), name
            assert np.array_equal(lazy.gradient(), fused.grad)
            assert lazy.gradient() is lazy.grad


@pytest.mark.parametrize("values", [
    [1e200, 2e200, 1.5e200, 3e200, 2.5e200, 1e200],   # the scale's level power overflows
    [-1.7e308, 1.7e308, 1.6e308, 1.7e308, 1.5e308],   # the trend overflows to inf
], ids=["scale", "trend"])
def test_fused_pass_refuses_where_the_recursion_raises(rng, values):
    state = random_state(rng, T=len(values), hetero=True, tau=1.0, phi=0.5)
    state.y = np.array(values)
    refused = [(a, b) for a, b in POINTS if reference_marginal(state, a, b) is None]
    assert refused
    for alpha, beta in refused:
        got = smoothing_marginal(state, alpha, beta)
        assert not math.isfinite(got.log_target)
        assert got.l is None


@pytest.mark.parametrize("seed,hetero", [(0, False), (1, True)], ids=["homoscedastic", "heteroscedastic"])
def test_log_density_matches_quadrature(seed, hetero):
    # these states put lam's posterior near the upper bound at some points,
    # so the truncation term changes across them
    state = random_state(np.random.Generator(np.random.Philox(seed)), T=10, hetero=hetero)
    got = np.array([marginal_at(state, a, b).log_target for a, b in POINTS])
    want = np.array([quadrature_log_marginal(state, a, b) for a, b in POINTS])
    np.testing.assert_allclose(got - got[0], want - want[0], atol=1e-6)


def _fd_check(state, points, h=1e-6, rel=1e-5):
    for alpha, beta in points:
        x = np.array([_logit(alpha), _logit(beta)])
        grad = marginal_at(state, alpha, beta).grad
        assert np.isfinite(grad).all()
        for i in range(2):
            up, down = x.copy(), x.copy()
            up[i] += h
            down[i] -= h
            fd = (marginal_at(state, _sigmoid(up[0]), _sigmoid(up[1])).log_target
                  - marginal_at(state, _sigmoid(down[0]), _sigmoid(down[1])).log_target) / (2.0 * h)
            assert grad[i] == pytest.approx(fd, rel=rel, abs=1e-5)


@pytest.mark.parametrize("hetero", [False, True], ids=["homoscedastic", "heteroscedastic"])
def test_gradient_matches_finite_differences(rng, hetero):
    for _ in range(4):
        state = random_state(rng, T=int(rng.integers(8, 30)), hetero=hetero, rho=0.7)
        _fd_check(state, [(state.theta.alpha, state.theta.beta), (0.85, 0.15), (0.1, 0.7)])


def test_gradient_with_levels_below_floor(rng):
    # the level decays from 30 to far below LEVEL_FLOOR: the clamped steps
    # contribute no level derivative to the trend and scale terms, which a
    # negative trend power and a scale power below 1/2 would blow up
    state = random_state(rng, T=24, hetero=True, rho=-0.5, tau=0.2)
    state.y = np.concatenate([[30.0, 28.0, 25.0], np.full(21, 1e-14) * (1.0 + 0.1 * rng.random(21))])
    state.set_paths(reference_paths(state.y, state.theta, state.prior))
    points = [(0.9, 0.3), (0.95, 0.6)]
    for alpha, beta in points:
        trial = state.theta.copy()
        trial.alpha, trial.beta = alpha, beta
        levels = reference_paths(state.y, trial, state.prior).l[:-1]
        assert (levels < LEVEL_FLOOR).any() and (levels > LEVEL_FLOOR).any()
    _fd_check(state, points)


def test_closed_form_matches_oracle(rng):
    state = random_state(rng, T=16, hetero=True)
    got = [marginal_at(state, a, b) for a, b in POINTS]
    want = [oracle_posterior(state, a, b) for a, b in POINTS]
    np.testing.assert_allclose([g.log_target - got[0].log_target for g in got],
                               [w[0] - want[0][0] for w in want], atol=1e-8)
    for g, (_, mode, cov) in zip(got, want):
        # lam's marginal, then gamma given lam
        assert g.lam_mean == pytest.approx(mode[1], rel=1e-9)
        assert g.lam_prec == pytest.approx(1.0 / cov[1, 1], rel=1e-9)
        assert g.gamma_mean == pytest.approx(mode[0], rel=1e-9)
        assert g.slope == pytest.approx(-cov[0, 1] / cov[1, 1], rel=1e-9)
        assert g.gamma_prec == pytest.approx(1.0 / (cov[0, 0] - cov[0, 1] ** 2 / cov[1, 1]), rel=1e-9)


def test_large_geometric_levels_give_finite_density():
    # levels up to 3e8 with rho = 1: the trend path is nearly proportional
    # to the level, so the normal-equation determinant p11 p22 - p12^2
    # cancels (to exactly 0 at alpha = beta = 0.99); the Schur complement
    # formed from direct residuals does not
    state = random_state(np.random.Generator(np.random.Philox(7)), T=30, hetero=False, rho=1.0)
    state.y = np.geomspace(1.0, 3e8, 30)
    state.set_paths(reference_paths(state.y, state.theta, state.prior))
    for alpha, beta in [(0.3, 0.3), (0.9, 0.9), (0.99, 0.05), (0.99, 0.99)]:
        target = marginal_at(state, alpha, beta)
        assert math.isfinite(target.log_target)
        assert np.isfinite(target.grad).all()
        assert target.lam_prec > 0.0 and target.gamma_prec > 0.0


def _quadrature_case(rng):
    """A short LGT series, a state on it, and the (alpha, beta, gamma, lam)
    posterior means and sds by quadrature, every other parameter held fixed."""
    from lsgt.model import NON_SEASONAL, PriorConfig
    from lsgt.synth import default_params, generate_series

    gen = default_params(T=14)
    gen.lam = 0.9
    gen.beta = 0.5
    gen.alpha = 0.5
    gen.gamma = 0.0
    gen.chi2 = 0.05
    series = generate_series(rng, gen, PriorConfig(model_kind=NON_SEASONAL), T=14, y1=20.0)
    state = random_state(rng, T=14, lam=0.9, gamma=0.0)
    state.y = np.asarray(series.values)
    state.set_paths(reference_paths(state.y, state.theta, state.prior))

    # posterior moments on a logit grid, where the Beta(1, 0.5) priors stay smooth
    x = np.linspace(-30.0, 30.0, 201)
    weights = 1.0 / (1.0 + np.exp(-x))
    log_post = np.empty((x.size, x.size))
    moments = np.empty((x.size, x.size, 5))   # m1, m2, v11, v12, v22
    for i, a in enumerate(weights):
        for j, b in enumerate(weights):
            log_post[i, j], mode, cov = oracle_posterior(state, float(a), float(b))
            moments[i, j] = mode[0], mode[1], cov[0, 0], cov[0, 1], cov[1, 1]
    post = np.exp(log_post - log_post.max())

    def expect(f):
        return simpson(simpson(post * f, x=x, axis=1), x=x) / simpson(simpson(post, x=x, axis=1), x=x)

    m1, m2, v11, v12, v22 = np.moveaxis(moments, 2, 0)
    # lam truncated to LAM_RANGE, then gamma | lam ~ N(m1 + k (lam - m2), v11 - k v12)
    s = np.sqrt(v22)
    lo, hi = (LAM_RANGE[0] - m2) / s, (LAM_RANGE[1] - m2) / s
    mass = norm.cdf(hi) - norm.cdf(lo)
    shift = (norm.pdf(lo) - norm.pdf(hi)) / mass
    e_lam = m2 + s * shift
    var_lam = v22 * (1.0 + (lo * norm.pdf(lo) - hi * norm.pdf(hi)) / mass - shift ** 2)
    k = v12 / v22
    e_gamma = m1 + k * (e_lam - m2)
    e_gamma2 = v11 - k * v12 + e_gamma ** 2 + k * k * var_lam
    a_grid, b_grid = np.meshgrid(weights, weights, indexing="ij")
    want_mean = np.array([expect(a_grid), expect(b_grid), expect(e_gamma), expect(e_lam)])
    want_sd = np.sqrt(np.array([expect(a_grid ** 2), expect(b_grid ** 2), expect(e_gamma2),
                                expect(var_lam + e_lam ** 2)]) - want_mean ** 2)
    return state, want_mean, want_sd


def _check_kernel_draws(state, rng, step, want_mean, want_sd):
    for _ in range(3000):
        update_smoothing_collapsed(state, rng, step, True, 0.55)
    n_keep = 40_000
    kept = np.empty((n_keep, 4))
    th = state.theta
    for i in range(n_keep):
        update_smoothing_collapsed(state, rng, step, False, 0.55)
        kept[i] = th.alpha, th.beta, th.gamma, th.lam
    np.testing.assert_allclose(kept[:, :2].mean(axis=0), want_mean[:2], atol=0.02)
    for got, want, sd in zip(kept[:, 2:].mean(axis=0), want_mean[2:], want_sd[2:]):
        assert got == pytest.approx(want, abs=0.1 * sd)
    # a biased acceptance ratio widens the weights' spread before it moves their means
    np.testing.assert_allclose(kept.std(axis=0), want_sd, rtol=0.03)


def test_kernel_matches_quadrature_posterior(rng):
    # mirrors test_mh.py::test_smoothing_mh_matches_quadrature_posterior,
    # with gamma and lam integrated out of the target and redrawn by the kernel
    state, want_mean, want_sd = _quadrature_case(rng)
    step = StepSizeState(log_eps=math.log(0.1))
    _check_kernel_draws(state, rng, step, want_mean, want_sd)
    assert 0.2 < step.rate < 0.9


def test_independence_step_alone_matches_quadrature_posterior(rng, monkeypatch):
    # with the MALA step made a no-move, the kernel is the independence step
    # from the weights' priors followed by the exact coefficient draws; a
    # step that never moved would fail the weights' spread
    state, want_mean, want_sd = _quadrature_case(rng)
    monkeypatch.setattr(sampler, "_mala_move", lambda rng, step, adapting, target, here, x, visit: here)
    _check_kernel_draws(state, rng, StepSizeState(log_eps=math.log(0.1)), want_mean, want_sd)
