"""Gibbs sampler: conjugate, latent, grid and gradient-assisted MH updates.

One sweep (`sweep`) calls these kernels, in order:

1. `update_omega2`: the per-observation t-mixture variances;
2. `update_chi2`: the global error variance (inverse-gamma conditional);
3. `update_smoothing_collapsed`, for non-seasonal fits: the smoothing
   weights by an independence step from their priors and a MALA step in
   logit space, both on their marginal with both trend coefficients
   integrated out (each point visited is one forward pass that runs the
   recursion and gathers the regression's sums, and two passes more; the
   current point and the independence proposal skip the gradient, which
   the point the MALA step starts from forms afterwards), then the local
   coefficient from its truncated marginal and the global one given it;
4. `update_rho_gamma_grouped`: the trend power (grid, global coefficient
   integrated out, every candidate's precision and score a matrix-vector
   product), the global coefficient (conjugate normal, from the chosen
   candidate's row of the grid's table) and its Cauchy latent;
5. for non-seasonal fits `update_lambda_b1`: the local trend coefficient
   and initial trend (truncated conjugate normals with their latents,
   iterated as a pair, each draw reading five sums formed once), then the
   residuals e; for seasonal fits `update_smoothing_seasonal`: the level
   and seasonal smoothing weights, then the m-1 free seed log seasonal
   factors (a MALA move each; every point visited, the current draw
   included, is one forward pass that runs the recursion, sums the
   likelihood and forms the gradient's per-step coefficients, then one
   reverse pass back, and paths are built only for the point a move
   reaches), then the trend weight from its prior, and, under the
   horseshoe prior, `update_horseshoe`: the shrinkage hierarchy;
6. for heteroscedastic fits `update_tau_grid` and `update_phi_grid`: the
   variance power, then the mixing weight (grid, t-mixture integrated
   out);
7. `update_nu_collapsed`: the degrees of freedom (grid, t-mixture
   integrated out).

The paths (`model.StatePaths`) hold only what the kernels read, and each
is refreshed once per sweep, by the kernel whose draw changes it.  The
scale g leaves chi2 out, and every reader multiplies it in, so kernel 2
refreshes nothing; kernel 6 refreshes g once, after both variance grids
(`recompute_scale`).  The residuals e are refreshed just before their
first reader: kernels 3 and 4 change gamma, lam and rho but do not read
e, and leave it stale, so kernel 5 refreshes it: the non-seasonal kernel
at its end, in one loop with the trend b that its draw of b1 moves
(`recompute_trend_and_residuals`), and the seasonal one at its start,
from the forward pass that forms the current draw's point.  A seasonal
fit keeps no trend path: with lam = 0 nothing reads it.  Either refresh
refuses a residual whose square is not finite, so no later kernel squares
one into an overflow.
Every grid draw reads per-candidate constants that `make_grids` forms
once.  Each kept draw is saved with the end state of its recursion
(`model.EndState`), from which the forecast rolls on.

The t-mixture latents enter the conjugate steps and the non-seasonal
smoothing block, and are integrated out of the seasonal MALA moves and
every grid likelihood; the seasonal fit's trend weight, which reaches
neither forecast nor scale once lam = 0, is drawn from its prior, its
exact conditional.  Refreshing the mixture variances at the top of the
sweep, before anything conditions on them, is what keeps this partially
collapsed cycle exactly stationary: the collapsed moves at the tail of a
sweep leave the latents stale, so no conditional may read them until they
are redrawn.
The non-seasonal smoothing block is itself partially collapsed (van Dyk and
Park 2008): its MH step leaves the weights' marginal invariant with the two
trend coefficients integrated out, and the exact draw of the coefficients
given the new weights completes one draw of (alpha, beta, gamma, lam) from
their joint conditional given the fresh mixture variances and error
variance.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .data import TimeSeries
from .dists import (
    build_nu_grid,
    log_ndtr_diff,
    sample_categorical,
    sample_inverse_gamma,
    sample_normal,
    sample_truncated_normal,
    t_log_normaliser,
)
from .errors import DegenerateSeriesError, NumericalError
from .model import (
    B1_RANGE,
    HETEROSCEDASTIC,
    LAM_RANGE,
    LEVEL_FLOOR,
    NON_SEASONAL,
    SEASONAL,
    SMOOTHING_PRIOR,
    EndState,
    ParameterDraw,
    PriorConfig,
    StatePaths,
    applied_factors,
    initial_level,
    recompute_scale,
    recompute_trend_and_residuals,
)
from .rng import RngStream

logger = logging.getLogger(__name__)

B1_LO = float(np.nextafter(B1_RANGE[0], 0.0))
B1_HI = float(np.nextafter(B1_RANGE[1], 0.0))
WEIGHT_LO = float(np.nextafter(0.0, 1.0))   # the open unit interval of a smoothing weight
WEIGHT_HI = float(np.nextafter(1.0, 0.0))

TREND_REPEATS = 4             # inner iterations of the local-trend conjugate pair
MH_TARGET_ACCEPTANCE = 0.55   # Robbins-Monro target of both MALA step sizes
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
    """Per-chain acceptance, step sizes and event counts.

    ``truncation_clamps`` counts truncated-normal draws that exhausted the
    rejection tries and were taken by inverse CDF; such draws are exact.
    """

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
    """Post-burn-in draws from all chains plus diagnostics.

    ``ends[i]`` is the state in which the recursion of ``draws[i]`` over the
    fitted series ends; the forecast rolls on from it.
    """

    draws: list[ParameterDraw]
    ends: list[EndState]
    diagnostics: list[ChainDiagnostics]
    prior: PriorConfig
    m: int

    def parameter_array(self, name: str) -> np.ndarray:
        return np.array([getattr(d, name) for d in self.draws])


@dataclass(frozen=True)
class Grids:
    """The grid candidates, and the per-candidate constants that every grid draw reads.

    Columns have shape (n, 1), to broadcast against a row of time steps.
    """

    nu: np.ndarray
    nu_log_normaliser: np.ndarray  # t_log_normaliser of each df candidate
    rho: np.ndarray
    tau: np.ndarray
    phi: np.ndarray
    nu_col: np.ndarray
    nu_half1: np.ndarray           # (nu + 1) / 2 of each df candidate
    rho_col: np.ndarray
    rho_penalty: np.ndarray        # log(rho^2 + 1), the power's prior term
    tau_power_col: np.ndarray      # 2 tau, the level's exponent in the scale
    phi_sq_col: np.ndarray         # phi^2
    phi_keep_sq_col: np.ndarray    # (1 - phi)^2


def make_grids(prior: PriorConfig) -> Grids:
    n = POWER_GRID_SIZE
    nu = np.asarray(build_nu_grid(prior.nu_lower, prior.nu_upper, prior.nu_grid_size).candidates)
    rho = np.linspace(-0.5, 1.0, n)
    tau = np.linspace(0.0, 1.0, n)
    phi = np.linspace(0.0, 1.0, n)
    return Grids(
        nu=nu,
        nu_log_normaliser=t_log_normaliser(nu),
        rho=rho,
        tau=tau,
        phi=phi,
        nu_col=nu[:, None],
        nu_half1=0.5 * (nu + 1.0),
        rho_col=rho[:, None],
        rho_penalty=np.log(rho ** 2 + 1.0),
        tau_power_col=2.0 * tau[:, None],
        phi_sq_col=phi[:, None] ** 2,
        phi_keep_sq_col=(1.0 - phi[:, None]) ** 2,
    )


# ---------------------------------------------------------------------------
# Conjugate normal machinery
# ---------------------------------------------------------------------------

def normal_moments(precision: float, score: float, prior_variance: float) -> tuple[float, float]:
    """(mean, variance) of w with likelihood exp(score w - precision w^2 / 2), prior N(0, prior_variance)."""
    if not prior_variance > 0:
        raise NumericalError(f"prior variance {prior_variance} must be positive")
    var = 1.0 / (precision + 1.0 / prior_variance)
    if not (var > 0 and math.isfinite(var)):
        raise NumericalError(f"conjugate posterior variance {var} invalid")
    mu = var * score
    if not math.isfinite(mu):
        raise NumericalError(f"conjugate posterior mean {mu} invalid")
    return mu, var


# ---------------------------------------------------------------------------
# Chain state
# ---------------------------------------------------------------------------

class ChainState:
    """Mutable per-chain state: current draw and consistent paths.

    The starting paths come from the fused pass of the variant at
    ``theta``: ``seasonal_forward``, or the collapsed pass
    (``smoothing_marginal``) with the residuals then formed from
    ``theta``'s (gamma, lam).  A start that the pass refuses raises
    ``DegenerateSeriesError``.
    """

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
        if self.seasonal:
            start = seasonal_forward(y.tolist(), theta)
        else:
            start = smoothing_marginal(self, theta.alpha, theta.beta, gradient=False)
        if start is None or start.l is None:
            raise DegenerateSeriesError("the chain's starting draw gives no finite state paths")
        self.set_paths(start.paths())
        if not self.seasonal:
            recompute_trend_and_residuals(y, self.paths, theta)

    def set_paths(self, paths: StatePaths) -> None:
        self.paths = paths
        self.clamp_events += paths.clamp_events


@dataclass
class StepSizeState:
    """Robbins-Monro adaptation of an MH step size on the log scale.

    ``log_eps_avg`` is the weighted average of the log-scale iterates, the
    averaged iterate of dual averaging (Hoffman and Gelman 2014, sec. 3.2).
    """

    log_eps: float
    n_adapt: int = 0
    proposals: int = 0
    accepted: int = 0
    log_eps_avg: float = 0.0

    @property
    def eps(self) -> float:
        return math.exp(self.log_eps)

    def adapt(self, accept_prob: float, target: float) -> None:
        self.n_adapt += 1
        self.log_eps += self.n_adapt ** -0.6 * (accept_prob - target)
        self.log_eps_avg += self.n_adapt ** -0.75 * (self.log_eps - self.log_eps_avg)

    def settle(self) -> None:
        """End adaptation at the averaged iterate instead of the last one.

        The last iterate follows the acceptance of the final few dozen
        burn-in sweeps, so it fits whatever region the chain was in then.
        """
        self.log_eps = self.log_eps_avg

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
    """Global error variance from its inverse-gamma conditional; the paths hold no chi2 to refresh."""
    shape, scale = chi2_conditional(state)
    state.theta.chi2 = sample_inverse_gamma(rng, shape, scale)
    return state.theta.chi2


def omega2_conditional(state: ChainState) -> tuple[float, np.ndarray]:
    th = state.theta
    return 0.5 * (th.nu + 1.0), state.paths.e ** 2 / (2.0 * (th.chi2 * state.paths.g)) + 0.5 * th.nu


def update_omega2(state: ChainState, rng) -> np.ndarray:
    """Per-observation t-mixture variances.

    The sweep's residual refresh keeps every residual's square finite; a
    scale that is still not finite, which the inverse-gamma draw refuses
    with ``ValueError``, raises ``NumericalError``, so ``fit`` records the
    chain as failed.
    """
    shape, scale = omega2_conditional(state)
    try:
        state.theta.omega2 = sample_inverse_gamma(rng, shape, scale)
    except ValueError as exc:
        raise NumericalError("mixture-variance conditional has a scale that is not finite") from exc
    return state.theta.omega2


def xi_conditional(value: float, scale: float) -> tuple[float, float]:
    """(shape, scale) of a Cauchy-mixture latent given its coefficient."""
    return 1.0, value ** 2 / (2.0 * scale ** 2) + 0.5


@dataclass
class TrendBlock:
    """Five sums that the local-trend conditionals share while only lam and b1 move.

    In a non-seasonal fit yhat = l + gamma * lp^rho + lam * b, and the trend
    unrolls as b = f + d * b1, with f the trend at b1 = 0 and
    d[t] = (1-beta)^t = db[t]/db1.  With r = y[1:] - (l + gamma * lp^rho)
    and precisions w = 1 / (omega2 * chi2 * g), each conditional is then a
    product of sums of w times f^2, f d, d^2, f r and d r.
    """

    wff: float
    wfd: float
    wdd: float
    wfr: float
    wdr: float

    @classmethod
    def of(cls, state: ChainState) -> "TrendBlock":
        th = state.theta
        paths = state.paths
        gamma, rho, b1, keep, chi2 = th.gamma, th.rho, th.b1, 1.0 - th.beta, th.chi2
        wff = wfd = wdd = wfr = wdr = 0.0
        d = 1.0
        columns = (state.y[1:], paths.l, paths.b, paths.g, th.omega2)
        try:
            for yt, lt, bt, gt, om in zip(*(c.tolist() for c in columns)):
                lp = lt if lt >= LEVEL_FLOOR else LEVEL_FLOOR
                rt = yt - (lt + gamma * lp ** rho)
                ft = bt - d * b1
                wt = 1.0 / (om * (chi2 * gt))
                wf, wd = wt * ft, wt * d
                wff += wf * ft
                wfd += wf * d
                wdd += wd * d
                wfr += wf * rt
                wdr += wd * rt
                d *= keep
        except ArithmeticError as exc:
            raise NumericalError(f"local-trend sums failed: {exc}") from exc
        return cls(wff, wfd, wdd, wfr, wdr)

    def lambda_moments(self, b1: float, prior_variance: float) -> tuple[float, float]:
        """Conjugate normal (mean, variance) of lam given b1: design f + d * b1."""
        return normal_moments(self.wff + b1 * (2.0 * self.wfd + b1 * self.wdd),
                              self.wfr + b1 * self.wdr, prior_variance)

    def b1_moments(self, lam: float, prior_variance: float) -> tuple[float, float]:
        """Conjugate normal (mean, variance) of b1 given lam: design lam * d, residual r - lam * f."""
        return normal_moments(lam * lam * self.wdd, lam * (self.wdr - lam * self.wfd), prior_variance)


def update_lambda_b1(state: ChainState, rng) -> tuple[float, float, float, float]:
    """Local trend coefficient and initial trend (non-seasonal fits only).

    Both are conjugate normals truncated to their declared ranges
    (``sample_truncated_normal``).  Only their product is well
    identified when the smoothed trend is nearly constant, so the pair is
    drawn ``TREND_REPEATS`` times to equilibrate along that ridge within
    one sweep.  Neither moves the level, the scale or the mixture
    variances, so the five ``TrendBlock`` sums are formed once per call,
    each draw reads only them, and the trend path and residuals are
    refreshed together, in one loop, after the last draw.  That refresh of
    e is the non-seasonal sweep's only one: the smoothing block and the
    trend-power grid before it leave it stale.
    """
    th = state.theta
    block = TrendBlock.of(state)
    for _ in range(TREND_REPEATS):
        mu, var = block.lambda_moments(th.b1, th.xi_lambda2 * state.s_lambda ** 2)
        th.lam, clamped = sample_truncated_normal(rng, mu, var, *LAM_RANGE)
        state.trunc_events += clamped
        th.xi_lambda2 = sample_inverse_gamma(rng, *xi_conditional(th.lam, state.s_lambda))

        mu_b, var_b = block.b1_moments(th.lam, th.xi_b1_2 * state.s_b1 ** 2)
        th.b1, clamped = sample_truncated_normal(rng, mu_b, var_b, B1_LO, B1_HI)
        state.trunc_events += clamped
        th.xi_b1_2 = sample_inverse_gamma(rng, *xi_conditional(th.b1, state.s_b1))
    recompute_trend_and_residuals(state.y, state.paths, th)
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
    """Draw a grid index with weights exp(-nll), log-sum-exp stabilised.

    The usual case, a finite smallest nll, draws from the cumulative weights
    exp(min - nll) directly: they lie in [0, 1] with at least one 1, and +inf
    candidates weigh 0 without a warning, exactly as in the checked path
    below.  Only a non-finite minimum (a NaN, a -inf or no finite candidate)
    could form inf - inf, and it takes the checked path.
    """
    nll = np.asarray(nll, dtype=float)
    low = nll.min()
    if math.isfinite(low):
        cum = np.exp(low - nll).cumsum()
        return int(np.searchsorted(cum, rng.random() * float(cum[-1]), side="right"))
    finite = np.isfinite(nll)
    if not finite.any():
        raise DegenerateSeriesError("all grid candidates have non-finite posterior")
    w = np.zeros(nll.shape[0])
    w[finite] = np.exp(-(nll[finite] - nll[finite].min()))
    return sample_categorical(rng, w)


def nu_collapsed_nll(state: ChainState) -> np.ndarray:
    """Negative log posterior of each df candidate with the t-mixture integrated out.

    The mixture variances carry roughly one pseudo-observation of the df
    per time step, so the df conditioned on them barely moves; this
    collapsed draw from the Student-t likelihood breaks that ridge.  The
    df-dependent normalising constants matter here and are included; they
    are formed once per grid, in ``make_grids``.  The squared standardised
    residuals are formed once, as a row, and the table takes one division
    by the df column and one log1p; (nu + 1) / 2 scales the row sums.
    """
    grids = state.grids
    e2 = state.paths.e ** 2
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        table = np.divide(e2 / (state.theta.chi2 * state.paths.g), grids.nu_col)
        np.log1p(table, out=table)
        core = grids.nu_half1 * table.sum(axis=1)
    return core + e2.shape[0] * grids.nu_log_normaliser


def update_nu_collapsed(state: ChainState, rng) -> float:
    idx = _categorical_from_nll(rng, nu_collapsed_nll(state))
    state.theta.nu = float(state.grids.nu[idx])
    return state.theta.nu


def _gamma_regression(state: ChainState, powers: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The global trend coefficient's regression at each trend-power candidate of the column ``powers``.

    Given everything else, y[t] = (gamma * lp^rho + c[t]) * s[t] + noise
    with c = l + lam * b, so at candidate i gamma's likelihood is
    exp(score_i * gamma - prec_i * gamma^2 / 2), with
    score_i = sum_t x[i, t] * resid[t] and prec_i = sum_t x[i, t]^2 * weight[t].
    Returns the table x = lp^powers, the rows resid and weight, and the
    coefficient's prior variance.  A seasonal fit has lam = 0, so c = l
    there; a non-seasonal fit's factors are all one, and multiplying by
    them is skipped.  A sigma2 that underflowed to 0 gives non-finite
    entries, without a warning; the grid draw reads the non-finite nll
    they lead to.
    """
    th = state.theta
    paths = state.paths
    lp = np.maximum(paths.l[:-1], LEVEL_FLOOR)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sigma2 = th.omega2 * (th.chi2 * paths.g)
        if state.seasonal:
            c = paths.l[:-1]
            s = applied_factors(paths.log_s, state.m)
            resid = (state.y[1:] - c * s) * s / sigma2
            weight = s ** 2 / sigma2
        else:
            resid = (state.y[1:] - (paths.l[:-1] + th.lam * paths.b[:-1])) / sigma2
            weight = 1.0 / sigma2
        x = np.power(lp, powers)
    return x, resid, weight, th.xi_gamma2 * state.s_gamma ** 2


def _gamma_pair(x: np.ndarray, resid: np.ndarray, weight: np.ndarray) -> tuple[float, float]:
    """(precision, score) of gamma at one candidate's row ``x`` as row sums, which gamma's draw reads.

    The grid draws only candidates whose precision and score are finite, so
    these sums do not overflow.
    """
    return float((x * x * weight).sum()), float((x * resid).sum())


def _rho_nll(x: np.ndarray, resid: np.ndarray, weight: np.ndarray, prior_var: float,
             penalty: np.ndarray) -> np.ndarray:
    """The trend-power grid's nll from ``_gamma_regression``'s terms and the power's prior ``penalty``.

    The negative log posterior of the trend power with the trend
    coefficient integrated out analytically, given the t-mixture
    variances: per candidate, the coefficient's conjugate normal integrates
    to a log marginal of mu^2/(2 var) + log(var)/2, up to terms that do not
    involve the power.  Every candidate's precision and score is one
    matrix-vector product; their last bits may differ from
    ``_gamma_pair``'s, which only gamma's draw reads.  A prior variance
    that underflowed to 0 raises ``NumericalError``.
    """
    if not prior_var > 0:
        raise NumericalError(f"trend-coefficient prior variance {prior_var} must be positive")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        score = x @ resid
        prec = (x * x) @ weight
        var_c = 1.0 / (prec + 1.0 / prior_var)
        mu_c = var_c * score
        return -mu_c ** 2 / (2.0 * var_c) - 0.5 * np.log(var_c) + penalty


def update_rho_gamma_grouped(state: ChainState, rng) -> tuple[float, float, float]:
    """Grouped draw of (trend power, trend coefficient), then the coefficient's Cauchy latent.

    The trend power and coefficient sit on a sharp ridge; sampling the pair
    as a group breaks the ridge walk.  The grid's table of the
    coefficient's regressors is formed once: its matrix-vector products
    give the power's marginal (``_rho_nll``), and the chosen candidate's
    row sums give the coefficient's conjugate normal.  e is left stale: no
    kernel reads it before ``update_lambda_b1`` (non-seasonal) or
    ``update_smoothing_seasonal`` refreshes it.
    """
    th = state.theta
    grids = state.grids
    x, resid, weight, prior_var = _gamma_regression(state, grids.rho_col)
    idx = _categorical_from_nll(rng, _rho_nll(x, resid, weight, prior_var, grids.rho_penalty))
    th.rho = float(grids.rho[idx])
    mu, var = normal_moments(*_gamma_pair(x[idx], resid, weight), prior_var)
    th.gamma = sample_normal(rng, mu, var)
    th.xi_gamma2 = sample_inverse_gamma(rng, *xi_conditional(th.gamma, state.s_gamma))
    return th.rho, th.gamma, th.xi_gamma2


def _variance_grid_nll(state: ChainState, table: np.ndarray) -> np.ndarray:
    """Student-t negative log likelihood of each row of scales ``table``, which it overwrites.

    Its callers run it under their ``np.errstate``.
    """
    th = state.theta
    e2 = state.paths.e ** 2
    log_scale = np.log(table).sum(axis=1)
    table *= th.nu
    np.divide(e2, table, out=table)
    np.log1p(table, out=table)
    return 0.5 * (th.nu + 1.0) * table.sum(axis=1) + 0.5 * log_scale


def _tau_nll(state: ChainState, powers: np.ndarray) -> np.ndarray:
    """The variance-power grid's nll at the column ``powers`` of 2 tau candidates."""
    th = state.theta
    lp = np.maximum(state.paths.l[:-1], LEVEL_FLOOR)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        table = np.power(lp, powers)
        table *= (1.0 - th.phi) ** 2
        table += th.phi ** 2
        table *= th.chi2
        return _variance_grid_nll(state, table)


def _phi_nll(state: ChainState, phi_sq: np.ndarray, phi_keep_sq: np.ndarray) -> np.ndarray:
    """The mixing-weight grid's nll at the columns phi^2 and (1 - phi)^2 of its candidates."""
    th = state.theta
    lp = np.maximum(state.paths.l[:-1], LEVEL_FLOOR)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        table = phi_keep_sq * lp ** (2.0 * th.tau)
        table += phi_sq
        table *= th.chi2
        return _variance_grid_nll(state, table)


def update_tau_grid(state: ChainState, rng) -> float:
    """Variance power from its grid; leaves the scale g stale for `update_phi_grid`.

    The sweep always runs `update_phi_grid` next (``test_sampler.py::
    test_sweep_calls_kernels_in_docstring_order`` pins that order), which
    reads only l, e, chi2 and tau and refreshes g itself.
    """
    idx = _categorical_from_nll(rng, _tau_nll(state, state.grids.tau_power_col))
    state.theta.tau = float(state.grids.tau[idx])
    return state.theta.tau


def update_phi_grid(state: ChainState, rng) -> float:
    grids = state.grids
    idx = _categorical_from_nll(rng, _phi_nll(state, grids.phi_sq_col, grids.phi_keep_sq_col))
    state.theta.phi = float(grids.phi[idx])
    recompute_scale(state.paths, state.theta)
    return state.theta.phi


# ---------------------------------------------------------------------------
# Gradient-assisted Metropolis-Hastings updates
# ---------------------------------------------------------------------------

def _logits(p: float, q: float) -> np.ndarray:
    return np.array([math.log(p / (1.0 - p)), math.log(q / (1.0 - q))])


def _sigmoid(x: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:   # exp(-x) is inf in float64
        return 0.0


def _unit_weights(x: np.ndarray) -> tuple[float, float] | None:
    """The two weights with logits ``x``, or None where one rounds to 0 or 1."""
    p, q = map(_sigmoid, x.tolist())
    return (p, q) if 0.0 < p < 1.0 and 0.0 < q < 1.0 else None


def _open_unit(w: float) -> float:
    """A weight drawn on [0, 1] moved into the open unit interval."""
    return min(max(w, WEIGHT_LO), WEIGHT_HI)


def _langevin_logq(dest: np.ndarray, src: np.ndarray, grad_src: np.ndarray, eps: float) -> float:
    """Log density (up to a constant) of dest under the proposal N(src - eps^2/2 grad, eps^2 I)."""
    d = dest - (src - 0.5 * eps * eps * grad_src)
    return -0.5 * float(np.dot(d, d)) / (eps * eps)


@dataclass
class MalaPoint:
    """A draw that a MALA move stands at or proposes.

    ``log_target`` is the log density of the move's coordinates up to a
    constant and ``grad`` the gradient that steers proposals from here; it
    is None at an LGT point formed value-only (``smoothing_marginal``) until
    a MALA step starts from it.
    ``recursion`` is the forward pass the point was formed on: the collapsed
    target (``SmoothingMarginal``) of an LGT point, or the ``SeasonalPass``
    of an SGT point.  Its ``paths()`` are what the state takes when a move
    reaches the point.
    """

    theta: ParameterDraw
    log_target: float
    grad: np.ndarray | None
    recursion: SmoothingMarginal | SeasonalPass


def _finite(point) -> bool:
    return math.isfinite(point.log_target) and all(map(math.isfinite, point.grad.tolist()))


def _mala_move(rng, step: StepSizeState, adapting: bool, target: float,
               here: MalaPoint, x: np.ndarray, visit, coords=slice(None)) -> MalaPoint:
    """One MALA step in the coordinates ``x``; returns the point the chain reaches.

    The proposal is N(x + eps^2/2 g, eps^2 I), with g the coordinates'
    slice ``coords`` of ``here.grad``; ``visit(x_star)`` returns the point
    proposed, or None outside the support.  The acceptance ratio includes
    both proposal densities.  A non-finite target or gradient here means no
    move, at the proposal a rejection; the noise is drawn either way.
    While adapting, the step size moves toward ``target`` acceptance;
    afterwards each outcome is recorded.
    """
    eps = step.eps
    z = rng.standard_normal(x.shape[0])
    accept_prob = 0.0
    reached = here
    if _finite(here):
        g = here.grad[coords]
        x_star = x + 0.5 * eps * eps * g + eps * z
        there = visit(x_star)
        if there is not None and _finite(there):
            # _langevin_logq takes the gradient of the negative log target
            log_r = (there.log_target - here.log_target
                     + _langevin_logq(x, x_star, -there.grad[coords], eps)
                     - _langevin_logq(x_star, x, -g, eps))
            accept_prob = 1.0 if log_r >= 0 else math.exp(max(log_r, -745.0))
            if math.log(rng.random()) < log_r:
                reached = there

    if adapting:
        step.adapt(accept_prob, target)
    else:
        step.record(reached is not here)
    return reached


@dataclass
class SmoothingMarginal:
    """The LGT smoothing-weight target with (gamma, lam) integrated out.

    ``log_target`` and ``grad`` are the log density of (logit alpha, logit
    beta) up to a constant and its gradient; the next five fields describe
    the Gaussian posterior of (gamma, lam) given the weights: lam has
    precision ``lam_prec`` around ``lam_mean`` before truncation, and gamma
    given lam has precision ``gamma_prec`` around
    ``gamma_mean - slope * (lam - lam_mean)``.  ``l``, ``b`` and the
    scale ``g`` are the recursion at the weights, as lists, and
    ``clamp_events`` its count of floored levels; they are None where the
    recursion failed.  A value-only target leaves ``grad`` None and keeps
    in ``pass3`` what ``gradient()`` forms it from.
    """

    log_target: float
    grad: np.ndarray | None
    gamma_mean: float
    gamma_prec: float
    lam_mean: float
    lam_prec: float
    slope: float
    l: list | None = None
    b: list | None = None
    g: list | None = None
    clamp_events: int = 0
    pass3: tuple | None = None

    def gradient(self) -> np.ndarray:
        """``grad``, formed on first call from the lists that the value was formed on.

        It is bit for bit the gradient that the fused pass gives.  That pass
        raises nothing once the value is formed: every division there is by
        a positive number, and no power can overflow.
        """
        if self.grad is None:
            self.grad = _value_and_gradient(*self.pass3)[1]
        return self.grad

    def paths(self) -> StatePaths:
        """The recursion as ``StatePaths``, with e left for ``recompute_trend_and_residuals``.

        The residuals need (gamma, lam), which the target integrates out;
        the sweep fills them in once the draws they depend on are made.
        """
        n = len(self.g)
        return StatePaths(l=np.array(self.l), b=np.array(self.b), log_s=np.zeros(n + 1),
                          g=np.array(self.g), e=np.empty(n), clamp_events=self.clamp_events)


def _refused_marginal() -> SmoothingMarginal:
    nan = math.nan
    return SmoothingMarginal(nan, np.array([nan, nan]), nan, nan, nan, nan, nan)


def smoothing_marginal(state: ChainState, alpha: float, beta: float,
                       gradient: bool = True) -> SmoothingMarginal:
    """Collapsed target of the LGT smoothing weights at (alpha, beta).

    Given the mixture variances, y[t] - l[t-1] = gamma * x_g[t] + lam * b[t-1]
    + e[t] is a two-column Gaussian regression with x_g = max(l, floor)^rho,
    precisions w = 1 / (omega2 * chi2 * g) and priors N(0, xi s^2) on gamma
    and on lam, lam truncated to ``LAM_RANGE``.  Its evidence is
    (1/2) sum log w - Q/2 - (1/2) log det P + log(Phi(z_hi) - Phi(z_lo)),
    with P the posterior precision, Q the minimised quadratic form and z the
    standardised bounds of lam's posterior marginal.

    One forward loop runs the recursion at (alpha, beta), with every other
    parameter at the state's draw, and collects the regression's columns
    and sums as it goes; two more passes form the value and, where
    ``gradient`` asks for it, the gradient (``_value_and_gradient``).
    Without it, the third pass forms Q alone, and ``gradient()`` forms the
    gradient later from the lists the first two passes kept.  This
    loop is the program's LGT recursion, less the forecast, which depends on
    the (gamma, lam) integrated out here; the tests hold its paths equal to
    ``tests/oracles.reference_recursion`` bit for bit.
    The value is formed from direct residuals and the Schur complement
    S = sum w (x_lam - c x_g)^2 + d_lam + c^2 d_g (c = p12 / p11) rather
    than from p11 p22 - p12^2, which cancels to zero or below on levels of
    order 1e8.  The gradient propagates forward sensitivities of l and b
    through the envelope form of each term.  A non-finite level, trend or
    scale, or an arithmetic error anywhere, gives a non-finite value with
    no recursion; overflow in the last passes can also give a non-finite
    value or gradient.  The caller must treat either as a zero density.
    """
    th = state.theta
    try:
        d_g = 1.0 / (th.xi_gamma2 * state.s_gamma ** 2)
        d_l = 1.0 / (th.xi_lambda2 * state.s_lambda ** 2)
        return _marginal_passes(th, alpha, beta, d_g, d_l, state.y.tolist(), th.omega2.tolist(),
                                gradient)
    except (ArithmeticError, ValueError):
        return _refused_marginal()


def _weights_log_prior(alpha: float, beta: float) -> float:
    """Log density of (logit alpha, logit beta) under their Beta priors, up to a constant."""
    a, b = SMOOTHING_PRIOR
    return a * math.log(alpha) + b * math.log1p(-alpha) + a * math.log(beta) + b * math.log1p(-beta)


def _exp_or_inf(x: float) -> float:
    return math.exp(x) if x < 709.0 else math.inf


def _marginal_passes(th: ParameterDraw, alpha, beta, d_g, d_l, y, omega2, gradient) -> SmoothingMarginal:
    rho, chi2 = th.rho, th.chi2
    phi2, q2, p2 = th.phi ** 2, (1.0 - th.phi) ** 2, 2.0 * th.tau
    keep_a, keep_b = 1.0 - alpha, 1.0 - beta

    # pass 1, with the recursion: the regression's columns, p11, p12,
    # x_g'W r and sum log(omega2 chi2 g)
    log, isfinite = math.log, math.isfinite
    l_prev, b_prev = y[0], th.b1
    l, b, g = [l_prev], [b_prev], []
    clamps = 0
    xg, w, r = [], [], []
    p11, p12, h1, log_var = d_g, 0.0, 0.0, 0.0
    for yt, om in zip(y[1:], omega2):
        lp = l_prev
        if lp < LEVEL_FLOOR:
            lp = LEVEL_FLOOR
            clamps += 1
        xt = lp ** rho
        gt = phi2 + q2 * lp ** p2
        s2t = chi2 * gt
        l_t = alpha * yt + keep_a * l_prev
        b_t = beta * (l_t - l_prev) + keep_b * b_prev
        if not (isfinite(s2t) and isfinite(l_t) and isfinite(b_t)):
            return _refused_marginal()
        var = om * s2t
        wt = 1.0 / var
        rt = yt - l_prev
        wx = wt * xt
        p11 += wx * xt
        p12 += wx * b_prev
        h1 += wx * rt
        log_var += log(var)
        xg.append(xt)
        w.append(wt)
        r.append(rt)
        g.append(gt)
        l.append(l_t)
        b.append(b_t)
        l_prev, b_prev = l_t, b_t

    # pass 2: the Schur complement of p11 from direct residuals u = x_lam - c x_g
    c = p12 / p11
    S = d_l + c * c * d_g
    h2 = 0.0
    for xt, bt, wt, rt in zip(xg, b, w, r):
        ut = bt - c * xt
        wu = wt * ut
        S += wu * ut
        h2 += wu * rt
    m2 = h2 / S
    m1 = (h1 - p12 * m2) / p11

    root_s = math.sqrt(S)
    z_lo, z_hi = (LAM_RANGE[0] - m2) * root_s, (LAM_RANGE[1] - m2) * root_s
    log_z = log_ndtr_diff(z_lo, z_hi)

    # pass 3: residuals and Q, with the gradient or without it
    pass3 = (th, alpha, beta, d_g, d_l, c, p11, S, m1, m2, z_lo, z_hi, log_z, xg, b, w, r, l, g)
    if gradient:
        Q, grad = _value_and_gradient(*pass3)
        pass3 = None
    else:
        grad = None
        Q = d_g * m1 * m1 + d_l * m2 * m2
        for xt, bt, wt, rt in zip(xg, b, w, r):
            et = rt - xt * m1 - bt * m2
            Q += wt * et * et
    value = (-0.5 * log_var - 0.5 * Q - 0.5 * math.log(p11) - 0.5 * math.log(S) + log_z
             + _weights_log_prior(alpha, beta))
    return SmoothingMarginal(log_target=value, grad=grad, gamma_mean=m1, gamma_prec=p11,
                             lam_mean=m2, lam_prec=S, slope=c, l=l, b=b, g=g,
                             clamp_events=clamps, pass3=pass3)


def _value_and_gradient(th, alpha, beta, d_g, d_l, c, p11, S, m1, m2, z_lo, z_hi, log_z,
                        xg, b, w, r, l, g) -> tuple[float, np.ndarray]:
    """Pass 3 of ``_marginal_passes`` with the gradient: (Q, gradient in (logit alpha, logit beta)).

    The gradient is a sum over steps of the coefficient of each per-step
    quantity (r, x_g, x_lam, w) times its forward sensitivity; dl, dba, dbb
    are d l[t-1]/d alpha, d b[t-1]/d alpha and d b[t-1]/d beta.  With
    we = w e and wu = w u the coefficients are linear in we and wu, and the
    k_* below collect their constant factors.  Q is formed in the order of
    the value-only pass, and u as in pass 2, bit for bit.
    """
    rho, tau, chi2 = th.rho, th.tau, th.chi2
    het, tau_1 = 2.0 * tau * chi2 * (1.0 - th.phi) ** 2, 2.0 * tau - 1.0
    keep_a, keep_b = 1.0 - alpha, 1.0 - beta
    # d log_z = k1 d m2 + k2 d S, with phi(z) / (Phi(z_hi) - Phi(z_lo)) at each bound
    root_s = math.sqrt(S)
    log_norm = 0.5 * math.log(2.0 * math.pi) + log_z
    haz_lo = _exp_or_inf(-0.5 * z_lo * z_lo - log_norm)
    haz_hi = _exp_or_inf(-0.5 * z_hi * z_hi - log_norm)
    k1 = -root_s * (haz_hi - haz_lo)
    k2 = (haz_hi * z_hi - haz_lo * z_lo) / (2.0 * S)

    inv_p11, inv_s = 1.0 / p11, 1.0 / S
    k1_s = k1 * inv_s
    k_lam_e, k_lam_u = m2 + k1_s, 2.0 * k2 - inv_s - k1_s * m2
    k_xg_e, k_xg_u = m1 - c * k1_s, c * inv_s - k1_s * m1 - 2.0 * c * k2
    k_w_u = k2 - 0.5 * inv_s
    Q = d_g * m1 * m1 + d_l * m2 * m2
    g_a = g_b = 0.0
    dl = dba = dbb = 0.0
    for xt, bt, wt, rt, lt, gt in zip(xg, b, w, r, l, g):
        ut = bt - c * xt
        et = rt - xt * m1 - bt * m2
        we = wt * et
        wu = wt * ut
        Q += we * et
        c_lam = we * k_lam_e + wu * k_lam_u
        c_alpha = we - k1_s * wu                          # minus the coefficient of r
        if lt >= LEVEL_FLOOR:
            c_xg = we * k_xg_e + wu * k_xg_u - wt * xt * inv_p11
            c_alpha += c_xg * rho * xt / lt
            if het:
                # the coefficient of w, times w
                c_w = 0.5 - 0.5 * we * et - 0.5 * wt * xt * xt * inv_p11 + wu * (ut * k_w_u + k1_s * et)
                c_alpha -= c_w * het * lt ** tau_1 / (chi2 * gt)
        g_a += c_alpha * dl + c_lam * dba
        g_b += c_lam * dbb
        dl_t = rt + keep_a * dl
        dbb = alpha * rt - bt + keep_b * dbb
        dba = beta * (dl_t - dl) + keep_b * dba
        dl = dl_t

    pa, pb = SMOOTHING_PRIOR
    return Q, np.array([g_a * alpha * keep_a + pa - (pa + pb) * alpha,
                        g_b * beta * keep_b + pa - (pa + pb) * beta])


def _independence_move(rng, here: MalaPoint, visit_weights) -> MalaPoint:
    """One independence Metropolis step on the LGT weights, proposed from their priors.

    The proposal density is the prior part of the collapsed target, so the
    acceptance ratio is the ratio of the integrated likelihoods (Tierney
    1994), and the step reads no gradient.  ``visit_weights(alpha, beta)``
    returns the point proposed; a non-finite target here means no move,
    there a rejection.
    """
    alpha, beta = rng.beta(*SMOOTHING_PRIOR, size=2).tolist()
    log_u = math.log(rng.random())
    if not math.isfinite(here.log_target):
        return here
    there = visit_weights(_open_unit(alpha), _open_unit(beta))
    if not math.isfinite(there.log_target):
        return here
    log_r = ((there.log_target - _weights_log_prior(there.theta.alpha, there.theta.beta))
             - (here.log_target - _weights_log_prior(here.theta.alpha, here.theta.beta)))
    return there if log_u < log_r else here


def update_smoothing_collapsed(state: ChainState, rng, step: StepSizeState,
                               adapting: bool, target: float) -> bool:
    """LGT smoothing weights with (gamma, lam) integrated out, then (lam, gamma).

    Given (alpha, beta, rho, b1) the one-step forecast is linear in
    (gamma, lam), so with those two held fixed the level weight barely
    moves.  This MALA step in (logit alpha, logit beta) targets
    ``smoothing_marginal``, the weights' conditional with both coefficients
    integrated out; then lam is drawn from its truncated marginal and gamma
    given lam, exactly.  Together that is one draw of the block
    (alpha, beta, gamma, lam) from its conditional given the mixture
    variances and everything else (a partially collapsed Gibbs step, van
    Dyk and Park 2008).  Before the MALA step, an independence Metropolis
    step proposes both weights from their priors, so the chain can jump
    between the distant modes and flat tails that a weakly identified beta
    leaves, where a local step of one size crawls.  A non-finite target at
    the current weights means no move; at a proposal it means rejection.
    Every point, the current one included, is one ``smoothing_marginal``
    pass.  The current point and the independence proposal are formed
    value-only, since that step reads no gradient; the point the MALA step
    starts from then forms its gradient, and each MALA proposal is formed
    with its gradient in one pass.  e is left stale: no kernel reads it
    before ``update_lambda_b1`` refreshes it.
    """
    th = state.theta

    def point(alpha, beta, gradient=False):
        trial = th.proposal_clone()
        trial.alpha, trial.beta = alpha, beta
        marginal = smoothing_marginal(state, alpha, beta, gradient)
        return MalaPoint(trial, marginal.log_target, marginal.grad, marginal)

    def visit(x_star):
        w = _unit_weights(x_star)
        return None if w is None else point(*w, gradient=True)

    start = point(th.alpha, th.beta)
    here = _independence_move(rng, start, point)
    here.grad = here.recursion.gradient()
    x = _logits(here.theta.alpha, here.theta.beta)
    reached = _mala_move(rng, step, adapting, target, here, x, visit)
    marginal = reached.recursion
    if reached is not start:
        th.alpha, th.beta = reached.theta.alpha, reached.theta.beta
        state.set_paths(marginal.paths())

    if math.isfinite(marginal.log_target):
        th.lam, fell_back = sample_truncated_normal(rng, marginal.lam_mean, 1.0 / marginal.lam_prec, *LAM_RANGE)
        state.trunc_events += fell_back
        th.gamma = sample_normal(rng, marginal.gamma_mean - marginal.slope * (th.lam - marginal.lam_mean),
                                 1.0 / marginal.gamma_prec)
    return reached is not start


def _seasonal_log_prior(seeds: np.ndarray, theta: ParameterDraw, prior: PriorConfig) -> float:
    """Log prior of all m seed log factors given the shrinkage latents."""
    sp = prior.seasonal_prior
    if sp.kind == "horseshoe":
        return -0.5 * float((seeds ** 2 / (theta.psi2 * theta.delta2)).sum())
    return -float(np.log1p((seeds / sp.scale) ** 2).sum())


def _seasonal_target(state: ChainState, theta: ParameterDraw, nll: float, grad_nll: list,
                     recursion: SeasonalPass) -> MalaPoint:
    """The SGT point at ``theta``, in (logit alpha, logit zeta, free seeds), from its forward pass.

    ``nll`` and ``grad_nll`` are the negative log likelihood and its
    gradient.  The log target adds the smoothing weights' Beta priors with
    their logit Jacobian and the seasonal prior.  The gradient is that of
    the log target without the seasonal prior, which enters the acceptance
    ratio only: the seed proposals are steered by the likelihood alone.
    """
    grad = -np.asarray(grad_nll)
    log_target = _seasonal_log_prior(theta.log_s_init, theta, state.prior) - nll
    a, b = SMOOTHING_PRIOR
    for i, w in enumerate((theta.alpha, theta.zeta)):
        grad[i] = float(grad[i]) * w * (1.0 - w) + a - (a + b) * w
        log_target += a * math.log(w) + b * math.log1p(-w)
    return MalaPoint(theta, log_target, grad, recursion)


@dataclass
class SeasonalPass:
    """The SGT recursion's paths as lists, with the likelihood and gradient coefficients formed alongside.

    There is no trend path: with lam = 0 nothing reads it.  ``nll`` is the
    Student-t negative log likelihood of the residuals; ``obs``, ``c_dl``
    and ``c_dla`` are the per-step coefficients that ``seasonal_gradient``
    reads.
    """

    l: list
    log_s: list
    g: list
    e: list
    clamp_events: int
    nll: float
    obs: list
    c_dl: list
    c_dla: list

    def paths(self) -> StatePaths:
        return StatePaths(l=np.array(self.l), b=None, log_s=np.array(self.log_s), g=np.array(self.g),
                          e=np.array(self.e), clamp_events=self.clamp_events)


def seasonal_forward(y: list, theta: ParameterDraw) -> SeasonalPass | None:
    """One forward pass of the SGT model at ``theta`` over the observations ``y``.

    This loop is the program's SGT recursion; the tests hold its paths
    equal to ``tests/oracles.reference_recursion`` bit for bit.  It adds
    each step's Student-t term, df-dependent constants included (the df is
    itself sampled), in index order, and stores the per-step coefficients
    of ``seasonal_gradient``: step t's term depends on l[t-1] through the
    trend and the scale (``c_dl``) and on the applied log factor through
    the forecast (``c_dla``); ``obs`` is y[t] / a_t, the deseasonalised
    observation the level update reads.  A level floored at
    ``LEVEL_FLOOR`` enters the trend and the scale as a constant.  The
    tests hold the likelihood and the coefficients bit-equal to references
    formed from the finished recursion (``tests/oracles``).  The one-step
    forecast leaves out the local trend term lam * b, which is 0 in the
    seasonal model, so the pass forms no trend at all.  Returns None, a
    refusal, where a level, forecast, scale or log factor is not finite,
    where the recursion meets
    an arithmetic error, where the likelihood is not finite (so every
    residual's square is finite in a pass it returns) and where a
    coefficient meets an arithmetic error (with a finite likelihood none
    can: each division's denominator is positive there).
    """
    T = len(y)
    m = theta.m
    alpha, zeta = theta.alpha, theta.zeta
    gamma, rho, tau, nu = theta.gamma, theta.rho, theta.tau, theta.nu
    chi2 = theta.chi2
    phi2, q2, p2 = theta.phi ** 2, (1.0 - theta.phi) ** 2, 2.0 * tau
    het = 2.0 * tau * chi2 * (1.0 - theta.phi) ** 2
    gamma_rho, rho_1, tau_1 = gamma * rho, rho - 1.0, 2.0 * tau - 1.0
    neg_half_nu, half_nu1 = -0.5 * nu, 0.5 * (nu + 1.0)
    keep_a, keep_z = 1.0 - alpha, 1.0 - zeta

    # local names: this is the sampler's hottest loop
    exp, log, log1p, isfinite = math.exp, math.log, math.log1p, math.isfinite
    log_s = theta.log_s_init.tolist()
    g, e, obs, c_dl, c_dla = [], [], [], [], []
    clamps = 0
    acc = 0.0
    try:
        l_prev = initial_level(y, SEASONAL, log_s)
        l = [l_prev]
        for t in range(1, T):
            yt = y[t]
            seasonal_step = t >= m
            a_t = exp(log_s[t - m if seasonal_step else t])
            lp = l_prev
            if lp < LEVEL_FLOOR:
                lp = LEVEL_FLOOR
                clamps += 1
                c_level = a_t
                c_scale = 0.0
            else:
                c_level = (1.0 + gamma_rho * lp ** rho_1) * a_t
                c_scale = het * lp ** tau_1
            yh = (l_prev + gamma * lp ** rho) * a_t
            gt = phi2 + q2 * lp ** p2
            s2t = chi2 * gt
            ob = yt / a_t
            l_t = alpha * ob + keep_a * l_prev
            if seasonal_step:
                ls = zeta * log(yt / l_t) + keep_z * log_s[t - m]
                if not isfinite(ls):
                    return None
                log_s.append(ls)
            if not (isfinite(yh) and isfinite(s2t) and isfinite(l_t)):
                return None
            et = yt - yh
            acc += half_nu1 * log1p(et * et / (nu * s2t)) + 0.5 * log(s2t)
            k = half_nu1 / (nu * s2t + et * et)
            c_dl.append(neg_half_nu * c_scale / s2t + k * (nu * c_scale - 2.0 * et * c_level))
            c_dla.append(-(k * 2.0 * et * yh))
            obs.append(ob)
            g.append(gt)
            e.append(et)
            l.append(l_t)
            l_prev = l_t
    except (ArithmeticError, ValueError):
        return None
    nll = acc + (T - 1) * t_log_normaliser(nu)
    if not math.isfinite(nll):
        return None
    return SeasonalPass(l=l, log_s=log_s, g=g, e=e, clamp_events=clamps,
                        nll=nll, obs=obs, c_dl=c_dl, c_dla=c_dla)


def seasonal_gradient(theta: ParameterDraw, l, log_s, obs, c_dl, c_dla) -> list:
    """dL/d(alpha, zeta, free log seeds) of the SGT likelihood L, from ``seasonal_forward``'s coefficients.

    It tracks the full chain: the constrained m-th seed, the dependence of
    the level seed on the first seed, the feedback of both weights through
    the seasonal recursion, the applied factor in each forecast and the
    heteroscedastic scale; the local trend drops out because the seasonal
    model runs with lam = 0.  Reverse mode: one backward pass over
    t = T-1..1 yields alpha, zeta and all m-1 seeds in O(T), where one
    forward pass per direction would cost O((m+1) T).

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


def _seasonal_visit(state: ChainState, trial: ParameterDraw) -> MalaPoint | None:
    """The SGT point at ``trial``: one forward pass, then one reverse pass; None where refused."""
    forward = seasonal_forward(state.y.tolist(), trial)
    if forward is None:
        return None
    grad = seasonal_gradient(trial, forward.l, forward.log_s, forward.obs, forward.c_dl, forward.c_dla)
    return _seasonal_target(state, trial, forward.nll, grad, forward)


def _weights_trial(theta: ParameterDraw, x_star: np.ndarray) -> ParameterDraw | None:
    """``theta`` with (alpha, zeta) at the logits ``x_star``; None where a weight rounds to 0 or 1."""
    w = _unit_weights(x_star)
    if w is None:
        return None
    trial = theta.proposal_clone()
    trial.alpha, trial.zeta = w
    return trial


def _seeds_trial(theta: ParameterDraw, free_star: np.ndarray) -> ParameterDraw:
    """``theta`` with the free seeds ``free_star``; the m-th seed balances them to a zero sum exactly."""
    trial = theta.proposal_clone()
    trial.log_s_init = np.append(free_star, -float(free_star.sum()))
    return trial


@dataclass(frozen=True)
class SeasonalBlock:
    """The coordinates of an SGT point that one MALA move draws.

    ``coords`` is their slice of the point's gradient, ``start(theta)``
    their values at ``theta``, and ``trial(theta, x_star)`` is ``theta``
    with them at ``x_star``, or None outside the support.
    """

    coords: slice
    start: Callable[[ParameterDraw], np.ndarray]
    trial: Callable[[ParameterDraw, np.ndarray], ParameterDraw | None]


SGT_WEIGHTS = SeasonalBlock(slice(0, 2), lambda th: _logits(th.alpha, th.zeta), _weights_trial)
SGT_SEEDS = SeasonalBlock(slice(2, None), lambda th: th.log_s_init[: th.m - 1], _seeds_trial)


def seasonal_move(state: ChainState, rng, step: StepSizeState, adapting: bool, target: float,
                  here: MalaPoint, block: SeasonalBlock) -> MalaPoint:
    """MALA on the coordinates of ``block`` in an SGT point from ``here``, the current draw's point.

    The state takes the draw and the paths of the point reached.
    """
    th = state.theta

    def visit(x_star):
        trial = block.trial(th, x_star)
        return None if trial is None else _seasonal_visit(state, trial)

    reached = _mala_move(rng, step, adapting, target, here, block.start(th), visit, block.coords)
    if reached is not here:
        state.theta = reached.theta
        state.set_paths(reached.recursion.paths())
    return reached


def update_smoothing_seasonal(state: ChainState, rng, smooth_step: StepSizeState,
                              seas_step: StepSizeState, adapting: bool, target: float) -> None:
    """SGT smoothing weights, seed factors and trend weight.

    A MALA move on (logit alpha, logit zeta) from the current draw's point,
    then one on the free seeds from the point it reached, so the likelihood
    and gradient of each draw visited are computed once: every point, the
    current one included, is one ``seasonal_forward`` pass and one
    ``seasonal_gradient`` pass.  SGT fixes lam = 0, so beta reaches neither
    the forecast nor the scale, and the paths hold no trend: its
    conditional is its Beta prior, drawn exactly (in the open unit
    interval), and nothing is refreshed after it.  The current point's
    pass also forms the residuals that ``update_rho_gamma_grouped`` leaves
    stale, and the kernel copies them into the state's paths, whose l,
    log s and g are current; a current draw that the pass refuses raises
    ``NumericalError``.
    """
    here = _seasonal_visit(state, state.theta)
    if here is None:
        raise NumericalError("the current seasonal draw gives no finite likelihood")
    state.paths.e[:] = here.recursion.e
    here = seasonal_move(state, rng, smooth_step, adapting, target, here, SGT_WEIGHTS)
    seasonal_move(state, rng, seas_step, adapting, target, here, SGT_SEEDS)
    state.theta.beta = _open_unit(float(rng.beta(*SMOOTHING_PRIOR)))


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
    with np.errstate(over="ignore", invalid="ignore"):
        chi2_0 = float(np.var(np.diff(y)))   # inf or nan where the steps' squares overflow
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
    """One full Gibbs sweep, in the order of the module docstring.

    The t-mixture variances are refreshed before anything conditions on
    them: every later step either reads this fresh draw (error variance,
    the non-seasonal smoothing block, trend power and coefficients) or
    integrates the mixture out entirely (the seasonal MALA moves, the
    variance grids and the df), which is what keeps the partially collapsed
    cycle exactly stationary.  For non-seasonal fits the smoothing weights
    come right after the error variance, as a Gibbs block on
    (alpha, beta, gamma, lam): MH on the weights with both trend
    coefficients integrated out, then the coefficients exactly.  The df is
    drawn last, collapsed, so the next sweep's mixture refresh conditions
    on it.
    """
    update_omega2(state, rng)
    update_chi2(state, rng)
    if not state.seasonal:
        update_smoothing_collapsed(state, rng, smooth_step, adapting, MH_TARGET_ACCEPTANCE)
    update_rho_gamma_grouped(state, rng)
    if state.seasonal:
        update_smoothing_seasonal(state, rng, smooth_step, seas_step, adapting, MH_TARGET_ACCEPTANCE)
        if state.prior.seasonal_prior.kind == "horseshoe":
            update_horseshoe(state, rng)
    else:
        update_lambda_b1(state, rng)
    if state.heteroscedastic:
        update_tau_grid(state, rng)
        update_phi_grid(state, rng)
    update_nu_collapsed(state, rng)


def _run_chain(y: np.ndarray, m: int, prior: PriorConfig, cfg: SamplerConfig,
               grids: Grids, scales, rng, chain_id: int):
    theta = initial_draw(y, m, prior, grids)
    state = ChainState(y, prior, theta, scales, grids)
    smooth_step = StepSizeState(log_eps=math.log(cfg.step_size_init))
    seas_step = StepSizeState(log_eps=math.log(cfg.step_size_init))

    draws: list[ParameterDraw] = []
    ends: list[EndState] = []
    for it in range(cfg.iterations):
        adapting = it < cfg.burn_in
        if it == cfg.burn_in and not state.seasonal:
            # the collapsed kernel's acceptance varies across its posterior
            # (a weakly identified beta wanders into flat logit tails), so
            # it freezes at the averaged step size; the seasonal moves
            # still freeze at their last iterate
            smooth_step.settle()
        sweep(state, rng, smooth_step, seas_step, adapting)
        if it >= cfg.burn_in:
            draws.append(state.theta.copy())
            # the state's paths are the recursion at the kept draw, bit for bit
            ends.append(state.paths.end_state(state.theta.m))

    diag = ChainDiagnostics(
        chain=chain_id,
        accept_rate_smoothing=smooth_step.rate,
        accept_rate_seasonal=seas_step.rate if state.seasonal else None,
        step_size_smoothing=smooth_step.eps,
        step_size_seasonal=seas_step.eps if state.seasonal else None,
        clamp_events=state.clamp_events,
        truncation_clamps=state.trunc_events,
    )
    return draws, ends, diag


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
    or a numerical error does not poison the others: its error is recorded
    in its ``ChainDiagnostics``.  Identical (seed, config) input always
    yields bit-identical output.
    """
    prior_eff, m_eff = effective_prior(series, prior)
    y = np.asarray(series.values, dtype=float)
    scales = prior_eff.resolved_scales(y)
    grids = make_grids(prior_eff)

    draws: list[ParameterDraw] = []
    ends: list[EndState] = []
    diagnostics: list[ChainDiagnostics] = []
    for c in range(cfg.chains):
        rng = RngStream(cfg.seed, stream=c).generator()
        try:
            chain_draws, chain_ends, diag = _run_chain(y, m_eff, prior_eff, cfg, grids, scales, rng, c)
        except (DegenerateSeriesError, NumericalError) as exc:
            logger.warning("series %s chain %d failed: %s", series.id, c, exc)
            diagnostics.append(ChainDiagnostics(chain=c, error=str(exc)))
            continue
        draws.extend(chain_draws)
        ends.extend(chain_ends)
        diagnostics.append(diag)
    if not draws:
        raise DegenerateSeriesError(f"series {series.id}: all chains failed")
    return PosteriorSamples(draws=draws, ends=ends, diagnostics=diagnostics, prior=prior_eff, m=m_eff)
