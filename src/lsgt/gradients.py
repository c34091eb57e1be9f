"""Analytic gradients of the negative log likelihood for the MH proposals.

``smoothing_gradient`` differentiates with respect to the level and trend
smoothing weights by propagating chain-rule recursions forward alongside
the state paths; it is exact for the non-seasonal model and, for seasonal
fits, holds the seasonal factor path fixed (the feedback of the smoothing
weights through the seasonal recursion is dropped — the proposal stays a
valid MH proposal either way, gradients only steer it).
``seasonal_gradient`` differentiates with respect to the m-1 free seed log
seasonal factors, including the constrained m-th seed and the dependence of
the level seed on the first seed.  It runs in reverse mode: one adjoint pass
backwards over the steps yields every seed's derivative, so a call costs
O(T) rather than one forward pass per seed, O((m-1) T).

Both loop over Python floats under the bit-exactness rules stated in
``lsgt.model``: every MH acceptance ratio reads these gradients.
"""

from __future__ import annotations

import numpy as np

from .model import (
    LEVEL_FLOOR,
    SEASONAL,
    ParameterDraw,
    PriorConfig,
    StatePaths,
    applied_factor_list,
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
            # a floored level enters the trend and the scale as a constant
            dyhat_a = (dl_prev + lam * dba_prev) * a_t
            dsig2_a = 0.0
        else:
            dyhat_a = ((1.0 + gamma_rho * lp ** rho_1) * dl_prev + lam * dba_prev) * a_t
            dsig2_a = het * lp ** tau_1 * dl_prev
        dyhat_b = lam * dbb_prev * a_t

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
    """Reverse mode: one backward pass over t = T-1..1 yields all m-1 seeds in O(T).

    In tangent form step t adds c_dl * dl[t-1] + c_dla * dla to the gradient
    (dla: derivative of the applied log factor), sets dl[t] = c_obs * dla +
    (1-alpha) dl[t-1] and, for t >= m, dlog_s[t] = -(zeta/l[t]) dl[t] +
    (1-zeta) dlog_s[t-m].  No coefficient depends on the seed, so the
    adjoints of dl and of every log_s[k] are accumulated once, backwards.
    Free seed i moves log_s[i] by +1 and log_s[m-1] by -1; the level seed
    l[0] = y[0] / s[0] moves with the first seed alone.
    """
    T = len(y)
    m = theta.m
    alpha, zeta = theta.alpha, theta.zeta
    gamma, rho, tau = theta.gamma, theta.rho, theta.tau
    nu = theta.nu
    het = 2.0 * tau * theta.chi2 * (1.0 - theta.phi) ** 2
    gamma_rho, rho_1, tau_1 = gamma * rho, rho - 1.0, 2.0 * tau - 1.0
    neg_half_nu, half_nu1 = -0.5 * nu, 0.5 * (nu + 1.0)
    keep_a, keep_z = 1.0 - alpha, 1.0 - zeta

    adj_l = 0.0          # adjoint of dl[t], then of dl[t-1] once step t is undone
    adj_s = [0.0] * T    # adjoint of dlog_s[k]
    for t in range(T - 1, 0, -1):
        if t >= m:
            adj_st = adj_s[t]
            adj_l += -(zeta / l[t]) * adj_st
            adj_s[t - m] += keep_z * adj_st
        a_t = a[t - 1]
        lp = l[t - 1]
        if lp < LEVEL_FLOOR:
            # a floored level enters the trend and the scale as a constant
            c_level = a_t
            c_scale = 0.0
            lp = LEVEL_FLOOR
        else:
            c_level = (1.0 + gamma_rho * lp ** rho_1) * a_t
            c_scale = het * lp ** tau_1
        c_season = (l[t - 1] + gamma * lp ** rho) * a_t
        et = e[t - 1]
        s2t = s2[t - 1]
        k = half_nu1 / (nu * s2t + et * et)
        c_dl = neg_half_nu * c_scale / s2t + k * (nu * c_scale - 2.0 * et * c_level)
        c_dla = -(k * 2.0 * et * c_season)
        c_obs = -(alpha * y[t] / a_t)
        adj_s[t - m if t >= m else t] += c_dla + c_obs * adj_l
        adj_l = c_dl + keep_a * adj_l

    grad = [adj_s[i] - adj_s[m - 1] for i in range(m - 1)]
    grad[0] -= adj_l * l[0]   # dl[0] / dlog_s[0] = -y[0] / s[0] = -l[0]
    return grad
