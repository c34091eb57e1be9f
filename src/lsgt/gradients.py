"""Analytic gradients of the negative log likelihood for the MH proposals.

Both routines propagate chain-rule recursions alongside the state paths.
``smoothing_gradient`` differentiates with respect to the level and trend
smoothing weights; it is exact for the non-seasonal model and, for seasonal
fits, holds the seasonal factor path fixed (the feedback of the smoothing
weights through the seasonal recursion is dropped — the proposal stays a
valid MH proposal either way, gradients only steer it).
``seasonal_gradient`` differentiates with respect to the free seed log
seasonal factors, including the constrained m-th seed and the dependence of
the level seed on the seasonal seeds.

Both loop over Python floats under the bit-exactness rules stated in
``lsgt.model``: every MH acceptance ratio reads these gradients.
"""

from __future__ import annotations

import math

import numpy as np

from .model import (
    LEVEL_FLOOR,
    SEASONAL,
    ParameterDraw,
    PriorConfig,
    StatePaths,
    applied_factor_list,
    applied_index,
    effective_lam,
)


def smoothing_gradient(y, theta: ParameterDraw, cfg: PriorConfig, paths: StatePaths):
    """(dL/dalpha, dL/dbeta) for the negative log likelihood L.

    The trend smoothing weight never enters the conditional scale, so its
    gradient flows only through the forecasts; the level weight also moves
    the heteroscedastic scale.
    """
    seasonal = cfg.model_kind == SEASONAL
    a = applied_factor_list(paths.log_s.tolist(), theta.m, seasonal)
    columns = (np.asarray(y, dtype=float), paths.l, paths.b, paths.e, paths.sigma2hat)
    try:
        return _smoothing_pass(theta, cfg, a, *(c.tolist() for c in columns))
    except ArithmeticError:
        # Python floats raise where float64 scalars give inf or nan; the
        # same pass over float64 scalars returns the non-finite gradient
        with np.errstate(all="ignore"):
            return _smoothing_pass(theta, cfg, a, *columns)


def _smoothing_pass(theta: ParameterDraw, cfg: PriorConfig, a, y, l, b, e, s2):
    alpha, beta = theta.alpha, theta.beta
    gamma, rho, tau = theta.gamma, theta.rho, theta.tau
    nu = theta.nu
    lam = effective_lam(theta, cfg)
    het = 2.0 * tau * theta.chi2 * (1.0 - theta.phi) ** 2
    gamma_rho, rho_1, tau_1 = gamma * rho, rho - 1.0, 2.0 * tau - 1.0
    neg_half_nu, half_nu1 = -0.5 * nu, 0.5 * (nu + 1.0)

    dl_prev = 0.0        # dl/dalpha; dl/dbeta is identically zero
    dba_prev = 0.0       # db/dalpha
    dbb_prev = 0.0       # db/dbeta
    g_alpha = 0.0
    g_beta = 0.0

    for t in range(1, len(y)):
        a_t = a[t - 1]
        lp = l[t - 1]
        if lp < LEVEL_FLOOR:
            lp = LEVEL_FLOOR
        dyhat_a = ((1.0 + gamma_rho * lp ** rho_1) * dl_prev + lam * dba_prev) * a_t
        dyhat_b = lam * dbb_prev * a_t
        dsig2_a = het * lp ** tau_1 * dl_prev

        et = e[t - 1]
        s2t = s2[t - 1]
        denom = nu * s2t + et * et
        g_alpha += neg_half_nu * dsig2_a / s2t + half_nu1 * (
            nu * dsig2_a - 2.0 * et * dyhat_a
        ) / denom
        g_beta += half_nu1 * (-2.0 * et * dyhat_b) / denom

        dl_t = y[t] / a_t - l[t - 1] + (1.0 - alpha) * dl_prev
        dba_t = beta * (dl_t - dl_prev) + (1.0 - beta) * dba_prev
        dbb_t = (l[t] - l[t - 1]) - b[t - 1] + (1.0 - beta) * dbb_prev
        dl_prev, dba_prev, dbb_prev = dl_t, dba_t, dbb_t

    return g_alpha, g_beta


def trend_block_gradient(y, theta: ParameterDraw, cfg: PriorConfig, paths: StatePaths):
    """(dL/dalpha, dL/dbeta, dL/dlam, dL/db1) for joint trend-block moves.

    The two coefficients enter the forecasts linearly: the local trend
    multiplies the smoothed trend path, and the initial trend propagates as
    lam * (1-beta)^(t-1).  Neither touches the conditional scale.
    """
    T = len(y)
    seasonal = cfg.model_kind == SEASONAL
    m = theta.m if seasonal else 1
    alpha, beta = theta.alpha, theta.beta
    gamma, rho, tau = theta.gamma, theta.rho, theta.tau
    nu = theta.nu
    lam = effective_lam(theta, cfg)
    het = 2.0 * tau * theta.chi2 * (1.0 - theta.phi) ** 2

    l, b, log_s = paths.l, paths.b, paths.log_s
    e, s2 = paths.e, paths.sigma2hat

    dl_prev = 0.0
    dba_prev = 0.0
    dbb_prev = 0.0
    pw_prev = 1.0  # (1-beta)^(t-1) at the previous state
    g_alpha = g_beta = g_lam = g_b1 = 0.0

    for t in range(1, T):
        a_t = math.exp(log_s[applied_index(t, m)]) if seasonal else 1.0
        lp = l[t - 1]
        if lp < LEVEL_FLOOR:
            lp = LEVEL_FLOOR
        dyhat_a = ((1.0 + gamma * rho * lp ** (rho - 1.0)) * dl_prev + lam * dba_prev) * a_t
        dyhat_b = lam * dbb_prev * a_t
        dyhat_l = b[t - 1] * a_t
        dyhat_1 = lam * pw_prev * a_t
        dsig2_a = het * lp ** (2.0 * tau - 1.0) * dl_prev

        et = e[t - 1]
        s2t = s2[t - 1]
        denom = nu * s2t + et * et
        common = 0.5 * (nu + 1.0) / denom
        g_alpha += -0.5 * nu * dsig2_a / s2t + common * (nu * dsig2_a - 2.0 * et * dyhat_a)
        g_beta += common * (-2.0 * et * dyhat_b)
        g_lam += common * (-2.0 * et * dyhat_l)
        g_b1 += common * (-2.0 * et * dyhat_1)

        dl_t = y[t] / a_t - l[t - 1] + (1.0 - alpha) * dl_prev
        dba_t = beta * (dl_t - dl_prev) + (1.0 - beta) * dba_prev
        dbb_t = (l[t] - l[t - 1]) - b[t - 1] + (1.0 - beta) * dbb_prev
        dl_prev, dba_prev, dbb_prev = dl_t, dba_t, dbb_t
        pw_prev *= 1.0 - beta

    return g_alpha, g_beta, g_lam, g_b1


def seed_gradient_matrix(m: int) -> np.ndarray:
    """d(log seed p) / d(free log seed i) for p = 0..m-1, i = 0..m-2.

    The first m-1 seeds are free; the last balances them so the seed logs
    sum to zero, hence its row is -1.
    """
    d = np.zeros((m, m - 1))
    for i in range(m - 1):
        d[i, i] = 1.0
    d[m - 1, :] = -1.0
    return d


def initial_level_gradient(y, m: int, log_s_init) -> np.ndarray:
    """Gradient of the deseasonalised level seed w.r.t. the free seeds.

    Only the first seed enters l[0] = y[0] / s[0], so the gradient is
    -y[0]/s[0] in the first direction and zero elsewhere.
    """
    g = np.zeros(m - 1)
    g[0] = -y[0] / math.exp(log_s_init[0])
    return g


def seasonal_gradient(y, theta: ParameterDraw, cfg: PriorConfig, paths: StatePaths) -> np.ndarray:
    """dL/d(free log seed), shape (m-1,), for the seasonal model.

    Tracks the full chain: level seed, level and seasonal recursions, the
    applied factor in each forecast, and the heteroscedastic scale.  The
    local trend drops out because the seasonal model runs with lam = 0.
    """
    a = applied_factor_list(paths.log_s.tolist(), theta.m, True)
    columns = (np.asarray(y, dtype=float), paths.l, paths.e, paths.sigma2hat)
    try:
        return np.array(_seasonal_pass(theta, a, *(c.tolist() for c in columns)))
    except ArithmeticError:
        # as in smoothing_gradient: rerun over float64 scalars for inf/nan
        with np.errstate(all="ignore"):
            return np.array(_seasonal_pass(theta, a, *columns))


def _seasonal_pass(theta: ParameterDraw, a, y, l, e, s2) -> list:
    """One forward pass per free seed over coefficients shared by all seeds.

    Each seed direction runs the same scalar recursion, so this equals a
    pass over (m-1)-vectors element by element.
    """
    T = len(y)
    m = theta.m
    alpha, zeta = theta.alpha, theta.zeta
    gamma, rho, tau = theta.gamma, theta.rho, theta.tau
    nu = theta.nu
    het = 2.0 * tau * theta.chi2 * (1.0 - theta.phi) ** 2
    gamma_rho, rho_1, tau_1 = gamma * rho, rho - 1.0, 2.0 * tau - 1.0
    neg_half_nu, half_nu1 = -0.5 * nu, 0.5 * (nu + 1.0)

    # per-step coefficients of dl_prev and of the applied seed derivative
    c_level, c_season, c_scale, c_prec, two_e, denoms, c_obs = [], [], [], [], [], [], []
    for t in range(1, T):
        a_t = a[t - 1]
        lp = l[t - 1]
        if lp < LEVEL_FLOOR:
            lp = LEVEL_FLOOR
        glob = l[t - 1] + gamma * lp ** rho
        c_level.append((1.0 + gamma_rho * lp ** rho_1) * a_t)
        c_season.append(glob * a_t)
        c_scale.append(het * lp ** tau_1)
        et = e[t - 1]
        s2t = s2[t - 1]
        c_prec.append(neg_half_nu / s2t)
        two_e.append(2.0 * et)
        denoms.append(nu * s2t + et * et)
        c_obs.append(-(alpha * y[t] / a_t))
    c_ratio = [-(zeta / l[t]) for t in range(m, T)]
    keep_a, keep_z = 1.0 - alpha, 1.0 - zeta

    dl_seed = initial_level_gradient(y, m, theta.log_s_init).tolist()
    grad = []
    for i, dlogs in enumerate(seed_gradient_matrix(m).T.tolist()):
        # dlogs[p] = d log s[p] / d free seed i; grows by one entry per step t >= m
        dl_prev = dl_seed[i]
        g = 0.0
        for t, cl, cs, csc, cp, te, dn, co in zip(
            range(1, T), c_level, c_season, c_scale, c_prec, two_e, denoms, c_obs
        ):
            dla = dlogs[t - m if t >= m else t]
            dyhat = cl * dl_prev + cs * dla
            dsig2 = csc * dl_prev
            g += cp * dsig2 + half_nu1 * (nu * dsig2 - te * dyhat) / dn
            dl_t = co * dla + keep_a * dl_prev
            if t >= m:
                dlogs.append(c_ratio[t - m] * dl_t + keep_z * dlogs[t - m])
            dl_prev = dl_t
        grad.append(g)
    return grad
