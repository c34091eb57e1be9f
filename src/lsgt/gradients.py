"""Analytic gradient of the negative log likelihood for the seasonal MH proposals.

``seasonal_gradient`` differentiates with respect to the level and seasonal
smoothing weights and the m-1 free seed log seasonal factors, through the
full chain: the constrained m-th seed, the dependence of the level seed on
the first seed, the feedback of both weights through the seasonal
recursion, the applied factor in each forecast and the heteroscedastic
scale.  It runs in reverse mode: one adjoint pass backwards over the steps
yields alpha, zeta and every seed's derivative, so a call costs O(T) rather
than one forward pass per direction, O((m+1) T).  The backward pass,
``seasonal_adjoint``, reads only per-step coefficients: ``seasonal_gradient``
forms them from a finished recursion and is the reference, while the
sampler's proposals form them inside their one forward pass
(``lsgt.sampler.seasonal_forward``) and so never build the recursion's
arrays.  The non-seasonal kernel differentiates its own collapsed target
(``lsgt.sampler.smoothing_marginal``).

The pass loops over Python floats under the bit-exactness rules stated in
``lsgt.model``: every MH acceptance ratio reads this gradient.
"""

from __future__ import annotations

import numpy as np

from .model import LEVEL_FLOOR, ParameterDraw, PriorConfig, StatePaths, applied_factor_list


def seasonal_gradient(y, theta: ParameterDraw, cfg: PriorConfig, paths: StatePaths) -> np.ndarray:
    """dL/d(alpha, zeta, free log seeds), shape (m+1,), for the seasonal model.

    Tracks the full chain: level seed, level and seasonal recursions, the
    applied factor in each forecast, and the heteroscedastic scale.  The
    local trend drops out because the seasonal model runs with lam = 0.
    """
    log_s = paths.log_s.tolist()
    a = applied_factor_list(log_s, theta.m, True)
    columns = (np.asarray(y, dtype=float), paths.l, paths.e, paths.sigma2hat)
    try:
        return np.array(_seasonal_pass(theta, a, log_s, *(c.tolist() for c in columns)))
    except ArithmeticError:
        # Python floats raise where float64 scalars give inf or nan; the
        # same pass over float64 scalars returns the non-finite gradient
        with np.errstate(all="ignore"):
            return np.array(_seasonal_pass(theta, a, log_s, *columns))


def _seasonal_pass(theta: ParameterDraw, a, log_s, y, l, e, s2) -> list:
    """The per-step coefficients of ``seasonal_adjoint`` from a recursion, then the adjoint pass.

    Step t's contribution to the negative log likelihood depends on l[t-1]
    through the trend and the scale (``c_dl``) and on the applied log factor
    through the forecast (``c_dla``); ``obs`` is y[t] / a_t, the
    deseasonalised observation the level update reads.  A level floored at
    ``LEVEL_FLOOR`` enters the trend and the scale as a constant.
    """
    gamma, rho, tau = theta.gamma, theta.rho, theta.tau
    nu = theta.nu
    het = 2.0 * tau * theta.chi2 * (1.0 - theta.phi) ** 2
    gamma_rho, rho_1, tau_1 = gamma * rho, rho - 1.0, 2.0 * tau - 1.0
    neg_half_nu, half_nu1 = -0.5 * nu, 0.5 * (nu + 1.0)

    obs, c_dl, c_dla = [], [], []
    for yt, a_t, lt, et, s2t in zip(y[1:], a, l, e, s2):
        lp = lt
        if lp < LEVEL_FLOOR:
            c_level = a_t
            c_scale = 0.0
            lp = LEVEL_FLOOR
        else:
            c_level = (1.0 + gamma_rho * lp ** rho_1) * a_t
            c_scale = het * lp ** tau_1
        c_season = (lt + gamma * lp ** rho) * a_t
        k = half_nu1 / (nu * s2t + et * et)
        c_dl.append(neg_half_nu * c_scale / s2t + k * (nu * c_scale - 2.0 * et * c_level))
        c_dla.append(-(k * 2.0 * et * c_season))
        obs.append(yt / a_t)
    return seasonal_adjoint(theta, l, log_s, obs, c_dl, c_dla)


def seasonal_adjoint(theta: ParameterDraw, l, log_s, obs, c_dl, c_dla) -> list:
    """Reverse mode: one backward pass over t = T-1..1 yields alpha, zeta and all m-1 seeds in O(T).

    ``l`` and ``log_s`` are the recursion's levels and log factors (length
    T); ``obs``, ``c_dl`` and ``c_dla`` hold step t's coefficients at index
    t-1.  In tangent form step t adds c_dl * dl[t-1] + c_dla * dla to the
    gradient (dla: derivative of the applied log factor), sets dl[t] =
    -alpha * obs * dla + (1-alpha) dl[t-1] + (obs - l[t-1]) dalpha and, for
    t >= m, dlog_s[t] = -(zeta/l[t]) dl[t] + (1-zeta) dlog_s[t-m] +
    (log_s[t] - log_s[t-m]) / zeta dzeta.  No coefficient depends on the
    direction, so the adjoints of dl and of every log_s[k] are accumulated
    once, backwards, and each weight collects its source term times the
    adjoint it feeds.  Free seed i moves log_s[i] by +1 and log_s[m-1] by
    -1; the level seed l[0] = y[0] / s[0] moves with the first seed alone.
    """
    T = len(l)
    m = theta.m
    alpha, zeta = theta.alpha, theta.zeta
    keep_a, keep_z = 1.0 - alpha, 1.0 - zeta

    adj_l = 0.0          # adjoint of dl[t], then of dl[t-1] once step t is undone
    adj_s = [0.0] * T    # adjoint of dlog_s[k]
    g_alpha = 0.0
    g_zeta = 0.0         # times zeta
    for t in range(T - 1, 0, -1):
        if t >= m:
            adj_st = adj_s[t]
            adj_l += -(zeta / l[t]) * adj_st
            adj_s[t - m] += keep_z * adj_st
            g_zeta += (log_s[t] - log_s[t - m]) * adj_st
        ob = obs[t - 1]
        adj_s[t - m if t >= m else t] += c_dla[t - 1] - alpha * ob * adj_l
        g_alpha += (ob - l[t - 1]) * adj_l
        adj_l = c_dl[t - 1] + keep_a * adj_l

    grad = [g_alpha, g_zeta / zeta] + [adj_s[i] - adj_s[m - 1] for i in range(m - 1)]
    grad[2] -= adj_l * l[0]   # dl[0] / dlog_s[0] = -y[0] / s[0] = -l[0]
    return grad
