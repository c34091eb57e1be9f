"""Independent reference implementations used as test oracles.

Everything here is deliberately written from the model equations and
textbook definitions, without importing the production update code, so the
tests compare two routes to the same quantity.  ``reference_recursion`` is
the one reference for the state recursion: the program runs its recursion
only in the sampler's fused passes (``smoothing_marginal``,
``seasonal_forward``) and in the refreshes and simulator of ``lsgt.model``,
and each is checked against it.
"""

import math

import numpy as np
from scipy import integrate
from scipy.stats import t as t_dist

LEVEL_FLOOR = 1e-10


def reference_recursion(y, alpha, beta, zeta, gamma, rho, lam, chi2, phi, tau,
                        b1, log_s_init, seasonal):
    """Straight-line scalar implementation of the state recursions.

    Returns the lists (l, b, log_s, yhat, sigma2hat, e).  It checks
    nothing: a non-finite value runs on, and an arithmetic error raises.
    ``helpers.reference_paths`` turns the result into ``StatePaths``.
    """
    y = list(map(float, y))
    T = len(y)
    m = len(log_s_init) if seasonal else 1

    log_s = [0.0] * T
    if seasonal:
        for i in range(m):
            log_s[i] = float(log_s_init[i])

    l0 = y[0] / math.exp(log_s_init[0]) if seasonal else y[0]

    l = [0.0] * T
    b = [0.0] * T
    yhat = [0.0] * (T - 1)
    sig2 = [0.0] * (T - 1)
    e = [0.0] * (T - 1)
    l[0] = l0
    b[0] = float(b1)
    for t in range(1, T):
        idx = t - m if t >= m else t
        a_t = math.exp(log_s[idx]) if seasonal else 1.0
        lp = l[t - 1]
        if lp < LEVEL_FLOOR:
            lp = LEVEL_FLOOR
        yhat[t - 1] = (l[t - 1] + gamma * lp ** rho + lam * b[t - 1]) * a_t
        sig2[t - 1] = chi2 * (phi ** 2 + (1.0 - phi) ** 2 * lp ** (2.0 * tau))
        l[t] = alpha * (y[t] / a_t) + (1.0 - alpha) * l[t - 1]
        b[t] = beta * (l[t] - l[t - 1]) + (1.0 - beta) * b[t - 1]
        if seasonal and t >= m:
            log_s[t] = zeta * math.log(y[t] / l[t]) + (1.0 - zeta) * log_s[t - m]
        e[t - 1] = y[t] - yhat[t - 1]
    return l, b, log_s, yhat, sig2, e


def reference_seasonal_gradient(y, alpha, zeta, gamma, rho, chi2, phi, tau, nu, log_s_init):
    """d NLL / d(alpha, zeta, free seed log factor i < m-1) of the seasonal model.

    Forward mode, one tangent pass per direction: alpha, zeta, then seed i,
    which moves log s[i] by +1 and the balancing seed log s[m-1] by -1.
    Each model equation of ``reference_recursion`` (lam = 0) is
    differentiated as written; a level below ``LEVEL_FLOOR`` enters the
    trend and the scale as a constant.
    """
    y = list(map(float, y))
    T = len(y)
    m = len(log_s_init)
    l, _, log_s, _, sig2, e = reference_recursion(
        y, alpha, 0.5, zeta, gamma, rho, 0.0, chi2, phi, tau, 0.0, log_s_init, True)
    directions = [(1.0, 0.0, None), (0.0, 1.0, None)] + [(0.0, 0.0, i) for i in range(m - 1)]
    grad = []
    for d_alpha, d_zeta, seed in directions:
        dlog_s = [0.0] * T
        if seed is not None:
            dlog_s[seed], dlog_s[m - 1] = 1.0, -1.0
        dl = [0.0] * T
        dl[0] = -l[0] * dlog_s[0]            # l[0] = y[0] / s[0]
        g = 0.0
        for t in range(1, T):
            idx = t - m if t >= m else t
            a_t = math.exp(log_s[idx])
            da = a_t * dlog_s[idx]
            lp, dlp = l[t - 1], dl[t - 1]
            if lp < LEVEL_FLOOR:
                lp, dlp = LEVEL_FLOOR, 0.0
            # yhat = (l + gamma lp^rho) a,  sig2 = chi2 (phi^2 + (1-phi)^2 lp^(2 tau))
            dyhat = (dl[t - 1] + gamma * rho * lp ** (rho - 1.0) * dlp) * a_t \
                + (l[t - 1] + gamma * lp ** rho) * da
            dsig2 = chi2 * (1.0 - phi) ** 2 * 2.0 * tau * lp ** (2.0 * tau - 1.0) * dlp
            # NLL term: (nu+1)/2 log(1 + e^2 / (nu sig2)) + log(sig2) / 2, e = y - yhat
            et, s2 = e[t - 1], sig2[t - 1]
            g += 0.5 * (nu + 1.0) * (-2.0 * et * dyhat / (nu * s2) - et * et * dsig2 / (nu * s2 * s2)) \
                / (1.0 + et * et / (nu * s2)) + 0.5 * dsig2 / s2
            # l = alpha y / a + (1 - alpha) l_prev
            dl[t] = (y[t] / a_t - l[t - 1]) * d_alpha - alpha * y[t] / (a_t * a_t) * da \
                + (1.0 - alpha) * dl[t - 1]
            if t >= m:
                # log s = zeta log(y / l) + (1 - zeta) log s[t-m]
                dlog_s[t] = (math.log(y[t] / l[t]) - log_s[t - m]) * d_zeta \
                    - zeta * dl[t] / l[t] + (1.0 - zeta) * dlog_s[t - m]
        grad.append(g)
    return np.array(grad)


def reference_nll(e, sig2, nu):
    """Negative log likelihood as a sum of textbook t log densities."""
    total = 0.0
    for et, s2 in zip(e, sig2):
        total -= t_dist.logpdf(et, df=nu, loc=0.0, scale=math.sqrt(s2))
    return total


def sequential_nll(e, sig2, nu):
    """Student-t negative log likelihood summed term by term in index order.

    Same terms as ``reference_nll`` but written in the log1p form with one
    scalar accumulator, so a production sum with the same order and libm
    calls must match it bit for bit.
    """
    acc = 0.0
    for et, s2 in zip(map(float, e), map(float, sig2)):
        acc += 0.5 * (nu + 1.0) * math.log1p(et * et / (nu * s2)) + 0.5 * math.log(s2)
    const = 0.5 * math.log(nu * math.pi) + math.lgamma(0.5 * nu) - math.lgamma(0.5 * (nu + 1.0))
    return acc + len(e) * const


def quad_moments_positive(log_density, transform=None, u_lo=-60.0, u_hi=60.0):
    """(mean, variance) of ``transform(x)`` under an unnormalised density on
    (0, inf), integrated in log space (x = e^u) for robustness.

    ``transform`` defaults to the identity; pass the reciprocal for
    inverse-gamma conditionals whose direct moments do not exist.
    """
    if transform is None:
        transform = lambda x: x

    us = np.linspace(u_lo, u_hi, 6001)
    logs = np.array([log_density(math.exp(u)) + u for u in us])
    peak = np.max(logs[np.isfinite(logs)])

    def f(u):
        x = math.exp(u)
        return math.exp(log_density(x) + u - peak)

    z, _ = integrate.quad(f, u_lo, u_hi, limit=500)
    m1, _ = integrate.quad(lambda u: transform(math.exp(u)) * f(u), u_lo, u_hi, limit=500)
    m2, _ = integrate.quad(lambda u: transform(math.exp(u)) ** 2 * f(u), u_lo, u_hi, limit=500)
    mean = m1 / z
    return mean, m2 / z - mean ** 2


def quad_moments_real(log_density, lo_hint=-1e6, hi_hint=1e6):
    """(mean, variance) of an unnormalised density on the real line.

    Locates the mode numerically, estimates its curvature, and integrates
    over a generous window around it.
    """
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(lambda x: -log_density(x), bounds=(lo_hint, hi_hint),
                          method="bounded", options={"xatol": 1e-12})
    x0 = float(res.x)
    h = max(1e-7, abs(x0) * 1e-6)
    d2 = (log_density(x0 + h) - 2.0 * log_density(x0) + log_density(x0 - h)) / h ** 2
    sd = 1.0 / math.sqrt(max(-d2, 1e-300))
    lo, hi = x0 - 60.0 * sd, x0 + 60.0 * sd
    peak = log_density(x0)

    def f(x):
        return math.exp(log_density(x) - peak)

    z, _ = integrate.quad(f, lo, hi, limit=500)
    m1, _ = integrate.quad(lambda x: x * f(x), lo, hi, limit=500)
    m2, _ = integrate.quad(lambda x: x * x * f(x), lo, hi, limit=500)
    mean = m1 / z
    return mean, m2 / z - mean ** 2


def ig_moments(shape, scale):
    """(mean, variance) of IG(shape, scale); None where undefined."""
    mean = scale / (shape - 1.0) if shape > 1.0 else None
    var = scale ** 2 / ((shape - 1.0) ** 2 * (shape - 2.0)) if shape > 2.0 else None
    return mean, var


def ig_reciprocal_moments(shape, scale):
    """(mean, variance) of 1/X for X ~ IG(shape, scale): Gamma(shape, rate=scale)."""
    return shape / scale, shape / scale ** 2


def fd_gradient(f, x0, h=1e-6):
    """Central finite differences of scalar f at vector x0."""
    x0 = np.asarray(x0, dtype=float)
    g = np.zeros_like(x0)
    for i in range(x0.size):
        hp = h * max(1.0, abs(x0[i]))
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += hp
        xm[i] -= hp
        g[i] = (f(xp) - f(xm)) / (2.0 * hp)
    return g


def mc_symmetric_kl_t(nu1, nu2, n=10_000_000, seed=7):
    """Monte-Carlo symmetric KL between unit t densities."""
    rng = np.random.Generator(np.random.Philox(seed))
    x1 = rng.standard_t(nu1, size=n)
    x2 = rng.standard_t(nu2, size=n)
    kl12 = np.mean(t_dist.logpdf(x1, nu1) - t_dist.logpdf(x1, nu2))
    kl21 = np.mean(t_dist.logpdf(x2, nu2) - t_dist.logpdf(x2, nu1))
    return float(kl12 + kl21)
