"""Gibbs sampler: conjugate, latent, grid and gradient-assisted MH updates.

One sweep updates, in order: the per-observation t-mixture variances, the
global error variance, the degrees of freedom (grid), the global trend
coefficient and its Cauchy latent, then for non-seasonal fits the local
trend coefficient and initial trend (truncated conjugate normals with their
latents), the smoothing weights (joint gradient-assisted MH in logit
space), then for seasonal fits the seed log seasonal factors (joint
gradient-assisted MH on the m-1 free seeds) and the shrinkage hierarchy,
and finally the trend power plus, for heteroscedastic fits, the variance
power and mixing weight (grid sampling, the power before the weight).

The t-mixture latents enter the conjugate steps and are integrated out of
every MH and grid likelihood.  Refreshing the mixture variances at the top
of the sweep, before anything conditions on them, is what keeps this
partially collapsed cycle exactly stationary: the collapsed moves at the
tail of a sweep leave the latents stale, so no conditional may read them
until they are redrawn.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln

from .data import TimeSeries
from .dists import (
    build_nu_grid,
    sample_categorical,
    sample_inverse_gamma,
    sample_normal,
    sample_truncated_normal,
)
from .errors import DegenerateSeriesError, NumericalError, StateRecursionError
from .gradients import seasonal_gradient, smoothing_gradient
from .model import (
    B1_RANGE,
    HETEROSCEDASTIC,
    LAM_RANGE,
    LEVEL_FLOOR,
    NON_SEASONAL,
    SEASONAL,
    SMOOTHING_PRIOR,
    ParameterDraw,
    PriorConfig,
    StatePaths,
    applied_factors,
    effective_lam,
    negative_log_likelihood,
    recompute_sigma2,
    recompute_trend_path,
    recompute_yhat,
    run_recursion,
)
from .rng import RngStream

logger = logging.getLogger(__name__)

B1_LO = float(np.nextafter(B1_RANGE[0], 0.0))
B1_HI = float(np.nextafter(B1_RANGE[1], 0.0))

TREND_REPEATS = 4             # inner iterations of the local-trend conjugate pair
MH_TARGET_ACCEPTANCE = 0.55   # Robbins-Monro target of both MH step sizes
POWER_GRID_SIZE = 64          # candidates of each of the rho, tau and phi grids


@dataclass(frozen=True)
class SamplerConfig:
    iterations: int = 5000
    burn_in: int = 2500
    chains: int = 2
    step_size_init: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.burn_in < self.iterations):
            raise ValueError("need 0 < burn_in < iterations")
        if self.chains < 1:
            raise ValueError("chains must be >= 1")
        if not self.step_size_init > 0:
            raise ValueError("step_size_init must be positive")


@dataclass
class ChainDiagnostics:
    chain: int
    accept_rate_smoothing: float | None = None
    accept_rate_seasonal: float | None = None
    step_size_smoothing: float | None = None
    step_size_seasonal: float | None = None
    clamp_events: int = 0
    truncation_clamps: int = 0
    error: str | None = None


@dataclass
class PosteriorSamples:
    """Post-burn-in draws from all chains plus diagnostics."""

    draws: list[ParameterDraw]
    diagnostics: list[ChainDiagnostics]
    prior: PriorConfig
    m: int

    def parameter_array(self, name: str) -> np.ndarray:
        return np.array([getattr(d, name) for d in self.draws])


@dataclass(frozen=True)
class Grids:
    nu: np.ndarray
    rho: np.ndarray
    tau: np.ndarray
    phi: np.ndarray


def make_grids(prior: PriorConfig) -> Grids:
    n = POWER_GRID_SIZE
    return Grids(
        nu=np.asarray(build_nu_grid(prior.nu_lower, prior.nu_upper, prior.nu_grid_size).candidates),
        rho=np.linspace(-0.5, 1.0, n),
        tau=np.linspace(0.0, 1.0, n),
        phi=np.linspace(0.0, 1.0, n),
    )


# ---------------------------------------------------------------------------
# Conjugate normal machinery
# ---------------------------------------------------------------------------

@dataclass
class ConjugateNormalSpec:
    """Observations y_i ~ N((w x_i + c_i) s_i, sigma2_i) with w ~ N(0, prior_variance)."""

    y: np.ndarray
    x: np.ndarray
    s: np.ndarray
    c: np.ndarray
    sigma2: np.ndarray
    prior_variance: float


def conjugate_normal_posterior(spec: ConjugateNormalSpec) -> tuple[float, float]:
    """Posterior (mean, variance) of the weight w."""
    if not spec.prior_variance > 0:
        raise NumericalError(f"prior variance {spec.prior_variance} must be positive")
    var = 1.0 / (float((spec.x ** 2 * spec.s ** 2 / spec.sigma2).sum()) + 1.0 / spec.prior_variance)
    if not (var > 0 and math.isfinite(var)):
        raise NumericalError(f"conjugate posterior variance {var} invalid")
    mu = var * float((spec.x * spec.s * (spec.y - spec.c * spec.s) / spec.sigma2).sum())
    if not math.isfinite(mu):
        raise NumericalError(f"conjugate posterior mean {mu} invalid")
    return mu, var


# ---------------------------------------------------------------------------
# Chain state
# ---------------------------------------------------------------------------

class ChainState:
    """Mutable per-chain state: current draw and consistent paths."""

    def __init__(self, y: np.ndarray, prior: PriorConfig, theta: ParameterDraw,
                 scales: tuple[float, float, float], grids: Grids):
        self.y = y
        self.T = y.shape[0]
        self.prior = prior
        self.seasonal = prior.model_kind == SEASONAL
        self.heteroscedastic = prior.variance_mode == HETEROSCEDASTIC
        self.m = theta.m
        self.theta = theta
        self.s_gamma, self.s_lambda, self.s_b1 = scales
        self.grids = grids
        self.clamp_events = 0
        self.trunc_events = 0
        self._a_app: np.ndarray | None = None
        self.set_paths(run_recursion(y, theta, prior))

    def set_paths(self, paths: StatePaths) -> None:
        self.paths = paths
        self.clamp_events += paths.clamp_events
        self._a_app = None

    @property
    def a_app(self) -> np.ndarray:
        if self._a_app is None:
            self._a_app = applied_factors(self.paths.log_s, self.m, self.seasonal)
        return self._a_app


@dataclass
class StepSizeState:
    """Robbins-Monro adaptation of an MH step size on the log scale."""

    log_eps: float
    n_adapt: int = 0
    proposals: int = 0
    accepted: int = 0

    @property
    def eps(self) -> float:
        return math.exp(self.log_eps)

    def adapt(self, accept_prob: float, target: float) -> None:
        self.n_adapt += 1
        self.log_eps += self.n_adapt ** -0.6 * (accept_prob - target)

    def record(self, accepted: bool) -> None:
        self.proposals += 1
        self.accepted += int(accepted)

    @property
    def rate(self) -> float | None:
        return self.accepted / self.proposals if self.proposals else None


# ---------------------------------------------------------------------------
# Conjugate and latent-variable updates
# ---------------------------------------------------------------------------

def chi2_conditional(state: ChainState) -> tuple[float, float]:
    """(shape, scale) of the inverse-gamma conditional of the error variance."""
    th = state.theta
    lp = np.maximum(state.paths.l[:-1], LEVEL_FLOOR)
    g = th.phi ** 2 + (1.0 - th.phi) ** 2 * lp ** (2.0 * th.tau)
    scale = float((state.paths.e ** 2 / (2.0 * th.omega2 * g)).sum())
    shape = 0.5 * (state.T - 1)
    if state.prior.chi2_prior is not None:
        a0, b0 = state.prior.chi2_prior
        shape += a0
        scale += b0
    if not (scale > 0 and math.isfinite(scale)):
        raise DegenerateSeriesError(f"error-variance conditional has scale {scale}")
    return shape, scale


def update_chi2(state: ChainState, rng) -> float:
    """Global error variance from its inverse-gamma conditional."""
    shape, scale = chi2_conditional(state)
    state.theta.chi2 = sample_inverse_gamma(rng, shape, scale)
    recompute_sigma2(state.paths, state.theta)
    return state.theta.chi2


def omega2_conditional(state: ChainState) -> tuple[float, np.ndarray]:
    th = state.theta
    return 0.5 * (th.nu + 1.0), state.paths.e ** 2 / (2.0 * state.paths.sigma2hat) + 0.5 * th.nu


def update_omega2(state: ChainState, rng) -> np.ndarray:
    """Per-observation t-mixture variances."""
    shape, scale = omega2_conditional(state)
    state.theta.omega2 = sample_inverse_gamma(rng, shape, scale)
    return state.theta.omega2


def gamma_conditional(state: ChainState) -> tuple[float, float]:
    """Conjugate normal (mean, variance) of the global trend coefficient."""
    th = state.theta
    paths = state.paths
    lp = np.maximum(paths.l[:-1], LEVEL_FLOOR)
    lam = effective_lam(th, state.prior)
    spec = ConjugateNormalSpec(
        y=state.y[1:],
        x=lp ** th.rho,
        s=state.a_app,
        c=paths.l[:-1] + lam * paths.b[:-1],
        sigma2=th.omega2 * paths.sigma2hat,
        prior_variance=th.xi_gamma2 * state.s_gamma ** 2,
    )
    return conjugate_normal_posterior(spec)


def xi_conditional(value: float, scale: float) -> tuple[float, float]:
    """(shape, scale) of a Cauchy-mixture latent given its coefficient."""
    return 1.0, value ** 2 / (2.0 * scale ** 2) + 0.5


def update_gamma(state: ChainState, rng) -> tuple[float, float]:
    """Global trend coefficient (conjugate normal) and its Cauchy latent."""
    th = state.theta
    mu, var = gamma_conditional(state)
    th.gamma = sample_normal(rng, mu, var)
    th.xi_gamma2 = sample_inverse_gamma(rng, *xi_conditional(th.gamma, state.s_gamma))
    recompute_yhat(state.y, state.paths, th, state.prior)
    return th.gamma, th.xi_gamma2


def lambda_conditional(state: ChainState) -> tuple[float, float]:
    """Conjugate normal (mean, variance) of the local trend coefficient."""
    th = state.theta
    paths = state.paths
    lp = np.maximum(paths.l[:-1], LEVEL_FLOOR)
    spec = ConjugateNormalSpec(
        y=state.y[1:],
        x=paths.b[:-1],
        s=state.a_app,
        c=paths.l[:-1] + th.gamma * lp ** th.rho,
        sigma2=th.omega2 * paths.sigma2hat,
        prior_variance=th.xi_lambda2 * state.s_lambda ** 2,
    )
    return conjugate_normal_posterior(spec)


def b1_conditional(state: ChainState) -> tuple[float, float]:
    """Conjugate normal (mean, variance) of the initial local trend.

    The design x_t = lam * (1-beta)^(t-1) unrolls the trend recursion; the
    mean uses the current residuals, avoiding the explicit remainder term.
    """
    th = state.theta
    paths = state.paths
    sigma2 = th.omega2 * paths.sigma2hat
    x_b1 = th.lam * np.power(1.0 - th.beta, np.arange(state.T - 1, dtype=float))
    prior_var = th.xi_b1_2 * state.s_b1 ** 2
    var_b = 1.0 / (float((x_b1 ** 2 / sigma2).sum()) + 1.0 / prior_var)
    if not (var_b > 0 and math.isfinite(var_b)):
        raise NumericalError(f"initial-trend posterior variance {var_b} invalid")
    mu_b = var_b * float(((x_b1 ** 2 * th.b1 + x_b1 * paths.e) / sigma2).sum())
    return mu_b, var_b


def update_lambda_b1(state: ChainState, rng) -> tuple[float, float, float, float]:
    """Local trend coefficient and initial trend (non-seasonal fits only).

    Both are conjugate normals truncated to their declared ranges
    (resample-until-inside, then clamp).  Only their product is well
    identified when the smoothed trend is nearly constant, so the block is
    iterated ``TREND_REPEATS`` times to equilibrate along that ridge within
    one sweep.
    """
    th = state.theta
    for _ in range(TREND_REPEATS):
        mu, var = lambda_conditional(state)
        th.lam, clamped = sample_truncated_normal(rng, mu, var, *LAM_RANGE)
        state.trunc_events += clamped
        th.xi_lambda2 = sample_inverse_gamma(rng, *xi_conditional(th.lam, state.s_lambda))
        recompute_yhat(state.y, state.paths, th, state.prior)

        mu_b, var_b = b1_conditional(state)
        th.b1, clamped = sample_truncated_normal(rng, mu_b, var_b, B1_LO, B1_HI)
        state.trunc_events += clamped
        th.xi_b1_2 = sample_inverse_gamma(rng, *xi_conditional(th.b1, state.s_b1))
        recompute_trend_path(state.paths, th)
        recompute_yhat(state.y, state.paths, th, state.prior)
    return th.lam, th.xi_lambda2, th.b1, th.xi_b1_2


def psi2_conditional(theta: ParameterDraw) -> tuple[float, np.ndarray]:
    return 1.0, 1.0 / theta.eta_s + theta.log_s_init ** 2 / (2.0 * theta.delta2)


def delta2_conditional(theta: ParameterDraw) -> tuple[float, float]:
    # shape m/2 = 1/2 (prior) + (m-1)/2: the m seeds carry m-1 free
    # dimensions under the zero-sum constraint, while all m enter the scale
    return 0.5 * theta.m, 1.0 / theta.eta_delta + 0.5 * float((theta.log_s_init ** 2 / theta.psi2).sum())


def eta_s_conditional(theta: ParameterDraw) -> tuple[float, np.ndarray]:
    return 1.0, 1.0 + 1.0 / theta.psi2


def eta_delta_conditional(theta: ParameterDraw) -> tuple[float, float]:
    return 1.0, 1.0 + 1.0 / theta.delta2


def update_horseshoe(state: ChainState, rng):
    """Seasonal shrinkage hierarchy: local/global variances, then latents."""
    th = state.theta
    th.psi2 = sample_inverse_gamma(rng, *psi2_conditional(th))
    th.delta2 = sample_inverse_gamma(rng, *delta2_conditional(th))
    th.eta_s = sample_inverse_gamma(rng, *eta_s_conditional(th))
    th.eta_delta = sample_inverse_gamma(rng, *eta_delta_conditional(th))
    return th.psi2, th.delta2, th.eta_s, th.eta_delta


# ---------------------------------------------------------------------------
# Grid updates
# ---------------------------------------------------------------------------

def _categorical_from_nll(rng, nll: np.ndarray) -> int:
    """Draw a grid index with weights exp(-nll), log-sum-exp stabilised."""
    nll = np.asarray(nll, dtype=float)
    finite = np.isfinite(nll)
    if finite.all():
        return sample_categorical(rng, np.exp(-(nll - nll.min())))
    if not finite.any():
        raise DegenerateSeriesError("all grid candidates have non-finite posterior")
    w = np.zeros(nll.shape[0])
    w[finite] = np.exp(-(nll[finite] - nll[finite].min()))
    return sample_categorical(rng, w)


def nu_grid_nll(nu: np.ndarray, omega2: np.ndarray) -> np.ndarray:
    """Negative log conditional of the df over grid candidates."""
    n = omega2.shape[0]
    a = float(np.log(omega2).sum())
    b = float((1.0 / omega2).sum())
    half = 0.5 * nu
    return -n * half * np.log(half) + n * gammaln(half) + 0.5 * (nu + 1.0) * a + half * b


def update_nu_grid(state: ChainState, rng) -> float:
    th = state.theta
    idx = _categorical_from_nll(rng, nu_grid_nll(state.grids.nu, th.omega2))
    th.nu = float(state.grids.nu[idx])
    return th.nu


def nu_collapsed_nll(state: ChainState, candidates: np.ndarray) -> np.ndarray:
    """Negative log posterior of the df with the t-mixture integrated out.

    The mixture variances carry roughly one pseudo-observation of the df
    per time step, so the df conditioned on them barely moves; this
    collapsed draw from the Student-t likelihood breaks that ridge.  The
    df-dependent normalising constants matter here and are included.
    """
    e2 = state.paths.e ** 2
    s2 = state.paths.sigma2hat
    n = e2.shape[0]
    half = 0.5 * candidates
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        core = (0.5 * (candidates[:, None] + 1.0)
                * np.log1p(e2[None, :] / (candidates[:, None] * s2[None, :]))).sum(axis=1)
        const = 0.5 * np.log(candidates * math.pi) + gammaln(half) - gammaln(half + 0.5)
    return core + n * const


def update_nu_collapsed(state: ChainState, rng) -> float:
    idx = _categorical_from_nll(rng, nu_collapsed_nll(state, state.grids.nu))
    state.theta.nu = float(state.grids.nu[idx])
    return state.theta.nu


def rho_grid_nll(state: ChainState, candidates: np.ndarray) -> np.ndarray:
    """Collapsed negative log posterior of the trend power per candidate.

    Includes the log(rho^2 + 1) penalty; the conditional scale does not
    depend on the trend power, so only forecasts are recomputed.
    """
    th = state.theta
    paths = state.paths
    lp = np.maximum(paths.l[:-1], LEVEL_FLOOR)
    lam = effective_lam(th, state.prior)
    base = paths.l[:-1] + lam * paths.b[:-1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        yhat_c = (base[None, :] + th.gamma * np.power(lp[None, :], candidates[:, None])) * state.a_app[None, :]
        e2 = (state.y[1:][None, :] - yhat_c) ** 2
        core = 0.5 * (th.nu + 1.0) * np.log1p(e2 / (th.nu * paths.sigma2hat[None, :])).sum(axis=1)
    return core + np.log(candidates ** 2 + 1.0)


def update_rho_grid(state: ChainState, rng) -> float:
    idx = _categorical_from_nll(rng, rho_grid_nll(state, state.grids.rho))
    state.theta.rho = float(state.grids.rho[idx])
    recompute_yhat(state.y, state.paths, state.theta, state.prior)
    return state.theta.rho


def rho_marginal_nll(state: ChainState, candidates: np.ndarray) -> np.ndarray:
    """Negative log posterior of the trend power with the trend coefficient
    integrated out analytically (conditional on the t-mixture variances).

    The trend power and coefficient sit on a sharp ridge; sampling the pair
    as a group breaks the ridge walk.  Per candidate the coefficient's
    conjugate normal integrates to mu^2/(2 var) + log(var)/2 up to terms
    that do not involve the power.
    """
    th = state.theta
    paths = state.paths
    lp = np.maximum(paths.l[:-1], LEVEL_FLOOR)
    lam = effective_lam(th, state.prior)
    c = paths.l[:-1] + lam * paths.b[:-1]
    s = state.a_app
    sigma2 = th.omega2 * paths.sigma2hat
    prior_var = th.xi_gamma2 * state.s_gamma ** 2
    resid = (state.y[1:] - c * s) * s / sigma2
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = np.power(lp[None, :], candidates[:, None])
        prec = (x ** 2 * (s ** 2 / sigma2)[None, :]).sum(axis=1) + 1.0 / prior_var
        lin = (x * resid[None, :]).sum(axis=1)
        var_c = 1.0 / prec
        mu_c = var_c * lin
        return -mu_c ** 2 / (2.0 * var_c) - 0.5 * np.log(var_c) + np.log(candidates ** 2 + 1.0)


def update_rho_gamma_grouped(state: ChainState, rng) -> tuple[float, float]:
    """Grouped draw of (trend power, trend coefficient)."""
    th = state.theta
    idx = _categorical_from_nll(rng, rho_marginal_nll(state, state.grids.rho))
    th.rho = float(state.grids.rho[idx])
    mu, var = gamma_conditional(state)
    th.gamma = sample_normal(rng, mu, var)
    recompute_yhat(state.y, state.paths, th, state.prior)
    return th.rho, th.gamma


def _variance_grid_nll(state: ChainState, sigma2_c: np.ndarray) -> np.ndarray:
    th = state.theta
    e2 = state.paths.e ** 2
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return (
            0.5 * (th.nu + 1.0) * np.log1p(e2[None, :] / (th.nu * sigma2_c)).sum(axis=1)
            + 0.5 * np.log(sigma2_c).sum(axis=1)
        )


def tau_grid_nll(state: ChainState, candidates: np.ndarray) -> np.ndarray:
    th = state.theta
    lp = np.maximum(state.paths.l[:-1], LEVEL_FLOOR)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sigma2_c = th.chi2 * (
            th.phi ** 2 + (1.0 - th.phi) ** 2 * np.power(lp[None, :], 2.0 * candidates[:, None])
        )
    return _variance_grid_nll(state, sigma2_c)


def phi_grid_nll(state: ChainState, candidates: np.ndarray) -> np.ndarray:
    th = state.theta
    lp = np.maximum(state.paths.l[:-1], LEVEL_FLOOR)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sigma2_c = th.chi2 * (
            candidates[:, None] ** 2 + (1.0 - candidates[:, None]) ** 2 * lp[None, :] ** (2.0 * th.tau)
        )
    return _variance_grid_nll(state, sigma2_c)


def update_tau_grid(state: ChainState, rng) -> float:
    idx = _categorical_from_nll(rng, tau_grid_nll(state, state.grids.tau))
    state.theta.tau = float(state.grids.tau[idx])
    recompute_sigma2(state.paths, state.theta)
    return state.theta.tau


def update_phi_grid(state: ChainState, rng) -> float:
    idx = _categorical_from_nll(rng, phi_grid_nll(state, state.grids.phi))
    state.theta.phi = float(state.grids.phi[idx])
    recompute_sigma2(state.paths, state.theta)
    return state.theta.phi


# ---------------------------------------------------------------------------
# Gradient-assisted Metropolis-Hastings updates
# ---------------------------------------------------------------------------

def _logit(p: np.ndarray) -> np.ndarray:
    return np.log(p / (1.0 - p))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _langevin_logq(dest: np.ndarray, src: np.ndarray, grad_src: np.ndarray, eps: float) -> float:
    """Log density (up to a constant) of dest under the proposal N(src - eps^2/2 grad, eps^2 I)."""
    d = dest - (src - 0.5 * eps * eps * grad_src)
    return -0.5 * float(np.dot(d, d)) / (eps * eps)


def update_smoothing_mh(state: ChainState, rng, step: StepSizeState,
                        adapting: bool, target: float) -> bool:
    """Joint MH update of the smoothing weights in logit space.

    The proposal mean follows the negative log-likelihood gradient (zero
    for the seasonal smoothing weight); the acceptance ratio includes the
    beta priors, the logit Jacobian and the asymmetric proposal densities.
    """
    th = state.theta
    names = ("alpha", "beta", "zeta") if state.seasonal else ("alpha", "beta")
    k = len(names)
    cur = np.array([getattr(th, n) for n in names])
    x = _logit(cur)

    ga, gb = smoothing_gradient(state.y, th, state.prior, state.paths)
    g_x = np.array([ga, gb, 0.0][:k]) * cur * (1.0 - cur)

    eps = step.eps
    z = rng.standard_normal(k)
    x_star = x - 0.5 * eps * eps * g_x + eps * z
    cur_star = _sigmoid(x_star)

    accept_prob = 0.0
    accepted = False
    if (cur_star > 0.0).all() and (cur_star < 1.0).all():
        trial = th.proposal_clone()
        for n, v in zip(names, cur_star):
            setattr(trial, n, float(v))
        try:
            paths_star = run_recursion(state.y, trial, state.prior)
            nll_star = negative_log_likelihood(paths_star, th.nu)
        except StateRecursionError:
            paths_star = None
            nll_star = math.inf
        if math.isfinite(nll_star):
            ga_s, gb_s = smoothing_gradient(state.y, trial, state.prior, paths_star)
            g_x_star = np.array([ga_s, gb_s, 0.0][:k]) * cur_star * (1.0 - cur_star)
            nll_cur = negative_log_likelihood(state.paths, th.nu)
            a, b = SMOOTHING_PRIOR
            # beta prior plus logit jacobian
            lp_cur = float((a * np.log(cur) + b * np.log(1.0 - cur)).sum())
            lp_star = float((a * np.log(cur_star) + b * np.log(1.0 - cur_star)).sum())
            log_r = (
                (-nll_star + lp_star)
                - (-nll_cur + lp_cur)
                + _langevin_logq(x, x_star, g_x_star, eps)
                - _langevin_logq(x_star, x, g_x, eps)
            )
            accept_prob = 1.0 if log_r >= 0 else math.exp(max(log_r, -745.0))
            if math.log(rng.random()) < log_r:
                for n, v in zip(names, cur_star):
                    setattr(th, n, float(v))
                state.set_paths(paths_star)
                accepted = True

    if adapting:
        step.adapt(accept_prob, target)
    else:
        step.record(accepted)
    return accepted


def _seasonal_log_prior(seeds: np.ndarray, theta: ParameterDraw, prior: PriorConfig) -> float:
    """Log prior of all m seed log factors given the shrinkage latents."""
    sp = prior.seasonal_prior
    if sp.kind == "horseshoe":
        return -0.5 * float((seeds ** 2 / (theta.psi2 * theta.delta2)).sum())
    return -float(np.log1p((seeds / sp.scale) ** 2).sum())


def update_seasonals_mh(state: ChainState, rng, step: StepSizeState,
                        adapting: bool, target: float) -> bool:
    """Joint MH update of the m-1 free seed log seasonal factors.

    The balancing m-th seed is recomputed so the seed logs sum to zero
    exactly; the acceptance ratio includes the seasonal prior on all m
    seeds.
    """
    th = state.theta
    m = th.m
    free = th.log_s_init[: m - 1].copy()
    g = seasonal_gradient(state.y, th, state.prior, state.paths)

    eps = step.eps
    z = rng.standard_normal(m - 1)
    free_star = free - 0.5 * eps * eps * g + eps * z
    seeds_star = np.append(free_star, -float(free_star.sum()))

    trial = th.proposal_clone()
    trial.log_s_init = seeds_star
    accept_prob = 0.0
    accepted = False
    try:
        paths_star = run_recursion(state.y, trial, state.prior)
        nll_star = negative_log_likelihood(paths_star, th.nu)
    except StateRecursionError:
        paths_star = None
        nll_star = math.inf
    if math.isfinite(nll_star):
        g_star = seasonal_gradient(state.y, trial, state.prior, paths_star)
        nll_cur = negative_log_likelihood(state.paths, th.nu)
        lp_cur = _seasonal_log_prior(th.log_s_init, th, state.prior)
        lp_star = _seasonal_log_prior(seeds_star, th, state.prior)
        log_r = (
            (-nll_star + lp_star)
            - (-nll_cur + lp_cur)
            + _langevin_logq(free, free_star, g_star, eps)
            - _langevin_logq(free_star, free, g, eps)
        )
        accept_prob = 1.0 if log_r >= 0 else math.exp(max(log_r, -745.0))
        if math.log(rng.random()) < log_r:
            th.log_s_init = seeds_star
            state.set_paths(paths_star)
            accepted = True

    if adapting:
        step.adapt(accept_prob, target)
    else:
        step.record(accepted)
    return accepted


# ---------------------------------------------------------------------------
# Initialisation and the full fit
# ---------------------------------------------------------------------------

def seasonal_seed_decomposition(y: np.ndarray, m: int) -> np.ndarray:
    """Classical multiplicative starting point: period-average ratios,
    logged and balanced to an exact zero sum."""
    k = y.shape[0] // m
    used = y[: k * m].reshape(k, m)
    means = used.mean(axis=0)
    logs = np.log(means / means.mean())
    logs -= logs.mean()
    logs[-1] = -float(np.sum(logs[:-1]))
    return logs


def initial_draw(y: np.ndarray, m: int, prior: PriorConfig, grids: Grids) -> ParameterDraw:
    seasonal = prior.model_kind == SEASONAL
    hetero = prior.variance_mode == HETEROSCEDASTIC
    chi2_0 = float(np.var(np.diff(y)))
    if not (chi2_0 > 0 and math.isfinite(chi2_0)):
        level = float(np.mean(y))
        try:
            chi2_0 = max(1e-8 * level ** 2, 1e-12)
        except OverflowError as exc:
            raise DegenerateSeriesError(
                f"mean level {level} too large for a starting error variance") from exc
    nu0 = float(grids.nu[int(np.argmin(np.abs(grids.nu - 10.0)))])
    return ParameterDraw(
        nu=nu0,
        gamma=0.0,
        rho=0.5,
        lam=0.0,
        alpha=0.3,
        beta=0.3,
        zeta=0.3,
        chi2=chi2_0,
        phi=0.5 if hetero else 1.0,
        tau=0.5,
        b1=0.0,
        log_s_init=seasonal_seed_decomposition(y, m) if seasonal else np.zeros(1),
        omega2=np.ones(y.shape[0] - 1),
    )


def sweep(state: ChainState, rng, smooth_step: StepSizeState, seas_step: StepSizeState,
          adapting: bool) -> None:
    """One full Gibbs sweep over the chain state.

    The t-mixture variances are refreshed before anything conditions on
    them: every later step either reads this fresh draw (error variance,
    df, trend coefficients) or integrates the mixture out entirely (MH and
    grid moves), which is what keeps the partially collapsed cycle exactly
    stationary.
    """
    update_omega2(state, rng)
    update_chi2(state, rng)
    update_nu_grid(state, rng)
    update_gamma(state, rng)
    # extra grouped (power, coefficient) refresh: the pair is strongly
    # ridge-coupled, and grouping is the standard remedy
    update_rho_gamma_grouped(state, rng)
    if not state.seasonal:
        update_lambda_b1(state, rng)
    update_smoothing_mh(state, rng, smooth_step, adapting, MH_TARGET_ACCEPTANCE)
    if state.seasonal:
        update_seasonals_mh(state, rng, seas_step, adapting, MH_TARGET_ACCEPTANCE)
        if state.prior.seasonal_prior.kind == "horseshoe":
            update_horseshoe(state, rng)
    update_rho_grid(state, rng)
    if state.heteroscedastic:
        update_tau_grid(state, rng)
        update_phi_grid(state, rng)
    # collapsed df refresh inside the marginalised block (see nu_collapsed_nll)
    update_nu_collapsed(state, rng)


def _run_chain(y: np.ndarray, m: int, prior: PriorConfig, cfg: SamplerConfig,
               grids: Grids, scales, rng, chain_id: int):
    theta = initial_draw(y, m, prior, grids)
    state = ChainState(y, prior, theta, scales, grids)
    smooth_step = StepSizeState(log_eps=math.log(cfg.step_size_init))
    seas_step = StepSizeState(log_eps=math.log(cfg.step_size_init))

    draws: list[ParameterDraw] = []
    for it in range(cfg.iterations):
        adapting = it < cfg.burn_in
        sweep(state, rng, smooth_step, seas_step, adapting)
        if it >= cfg.burn_in:
            draws.append(state.theta.copy())

    diag = ChainDiagnostics(
        chain=chain_id,
        accept_rate_smoothing=smooth_step.rate,
        accept_rate_seasonal=seas_step.rate if state.seasonal else None,
        step_size_smoothing=smooth_step.eps,
        step_size_seasonal=seas_step.eps if state.seasonal else None,
        clamp_events=state.clamp_events,
        truncation_clamps=state.trunc_events,
    )
    return draws, diag


def effective_prior(series: TimeSeries, prior: PriorConfig) -> tuple[PriorConfig, int]:
    """Resolve the model variant against the series.

    Seasonal fits need m >= 2 and at least two full periods; anything
    shorter falls back to the non-seasonal variant with a logged warning.
    """
    if prior.model_kind == SEASONAL:
        if series.is_seasonal_capable():
            return prior, series.m
        logger.warning(
            "series %s: m=%d, T=%d cannot support a seasonal fit; using the non-seasonal model",
            series.id, series.m, series.length,
        )
        return replace(prior, model_kind=NON_SEASONAL), 1
    return prior, 1


def fit(series: TimeSeries, prior: PriorConfig, cfg: SamplerConfig) -> PosteriorSamples:
    """Run all chains for one series and collect post-burn-in draws.

    Chains are independent; one chain failing on a degenerate conditional
    does not poison the others.  Identical (seed, config) input always
    yields bit-identical output.
    """
    prior_eff, m_eff = effective_prior(series, prior)
    y = np.asarray(series.values, dtype=float)
    scales = prior_eff.resolved_scales(y)
    grids = make_grids(prior_eff)

    draws: list[ParameterDraw] = []
    diagnostics: list[ChainDiagnostics] = []
    for c in range(cfg.chains):
        rng = RngStream(cfg.seed, stream=c).generator()
        try:
            chain_draws, diag = _run_chain(y, m_eff, prior_eff, cfg, grids, scales, rng, c)
        except DegenerateSeriesError as exc:
            logger.warning("series %s chain %d failed: %s", series.id, c, exc)
            diagnostics.append(ChainDiagnostics(chain=c, error=str(exc)))
            continue
        draws.extend(chain_draws)
        diagnostics.append(diag)
    if not draws:
        raise DegenerateSeriesError(f"series {series.id}: all chains failed")
    return PosteriorSamples(draws=draws, diagnostics=diagnostics, prior=prior_eff, m=m_eff)
