"""Model parameters and the deterministic state recursions.

The observation model is a Student-t around a one-step-ahead forecast built
from a smoothed level, a damped local trend and a power-law global trend,
optionally modulated by multiplicative seasonal factors smoothed on the log
scale:

    yhat[t+1]   = (l[t] + gamma * l[t]^rho + lam * b[t]) * s_applied[t+1]
    l[t]        = alpha * (y[t] / s_applied[t]) + (1 - alpha) * l[t-1]
    b[t]        = beta * (l[t] - l[t-1]) + (1 - beta) * b[t-1]
    log s[t]    = zeta * log(y[t] / l[t]) + (1 - zeta) * log s[t-m]
    sigma2[t+1] = chi2 * g[t],  g[t] = phi^2 + (1 - phi)^2 * l[t]^(2*tau)

Seasonal factors are indexed by the step at which they were estimated; the
factor applied at step t is the one estimated a full period earlier (the
seed factors cover the first period).  The m seed factors satisfy
``sum(log s_init) == 0`` so they change no overall scale.  The non-seasonal
variant fixes all factors at one; the seasonal variant fixes ``lam`` at
zero.

The program runs the full recursion, and sums the likelihood, only in the
sampler's fused passes, one per variant: ``sampler.smoothing_marginal``
(non-seasonal) and ``sampler.seasonal_forward`` (seasonal) form each
point's likelihood terms alongside the states, and a chain starts from the
paths of its variant's pass.  The paths hold only what the sweep reads:
the scale g without chi2, which each reader multiplies in, so a draw of
chi2 refreshes nothing; and, in a non-seasonal fit only, the trend b,
which a seasonal fit never reads because lam = 0 there.  Three loops
remain here: two refresh parts of the paths in place, each once, after the
draw that changes it, the scale (``recompute_scale``) and a non-seasonal
fit's trend and residuals together (``recompute_trend_and_residuals``; a
seasonal fit takes its residuals from the forward pass), and ``simulate``
runs the recursion on with drawn observations; forecast paths and
synthetic series both come from ``simulate``, so their values continue
the fitted recursion bit for bit.  Every one of these loops is checked
against one independent reference written from the equations above,
``tests/oracles.reference_recursion``.

The loops run over Python floats (``ndarray.tolist()``) and write each
result array back once; indexing numpy arrays element by element costs
several times more.  They must stay bit-exact, because a refresh must
leave the paths that the fused pass at the new draw would give, and every
MH acceptance reads these values.  So each power, exp, log and log1p goes
through libm (``**`` and ``math``), never through numpy's vectorised
``np.power``/``np.exp``, whose SIMD kernels differ from libm in the last
bit for a few percent of inputs; and sums accumulate one term at a time
in index order (no ``np.sum``, no ``math.fsum``).  A lone elementwise +,
-, * or / is correctly rounded either way and may stay vectorised.
Python floats raise ``ZeroDivisionError``/``OverflowError`` where float64
scalars return inf or nan, so every such site maps the exception to what
the float64 result would have led to.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ForecastError, NumericalError

LEVEL_FLOOR = 1e-10
SEASONAL_SUM_TOL = 1e-12

NON_SEASONAL = "non_seasonal"
SEASONAL = "seasonal"
HOMOSCEDASTIC = "homoscedastic"
HETEROSCEDASTIC = "heteroscedastic"


@dataclass(frozen=True)
class SeasonalPrior:
    """Prior family for the seed log seasonal factors."""

    kind: str = "horseshoe"  # "horseshoe" | "cauchy"
    scale: float | None = None

    def __post_init__(self):
        if self.kind not in ("horseshoe", "cauchy"):
            raise ValueError(f"unknown seasonal prior {self.kind!r}")
        if self.kind == "cauchy" and not (self.scale and self.scale > 0):
            raise ValueError("cauchy seasonal prior needs a positive scale")

    @classmethod
    def parse(cls, text: str) -> "SeasonalPrior":
        """Parse "horseshoe" or "cauchy:<scale>"."""
        if text == "horseshoe":
            return cls("horseshoe")
        if text.startswith("cauchy:"):
            return cls("cauchy", float(text.split(":", 1)[1]))
        raise ValueError(f"cannot parse seasonal prior {text!r}")


@dataclass(frozen=True)
class PriorConfig:
    """Prior scales, grid bounds and model variant switches.

    ``s_gamma``/``s_b1`` default to max(y)/100 at fit time so the trend and
    initial-trend priors adapt to the scale of the series; ``s_lambda``
    defaults to 1.  ``chi2_prior`` optionally replaces the scale-invariant
    improper prior on the error variance with a proper IG(shape, scale) —
    needed when simulating parameters from the prior (calibration studies).
    """

    model_kind: str = NON_SEASONAL
    variance_mode: str = HETEROSCEDASTIC
    seasonal_prior: SeasonalPrior = field(default_factory=SeasonalPrior)
    s_gamma: float | None = None
    s_lambda: float = 1.0
    s_b1: float | None = None
    nu_lower: float = 1.6
    nu_upper: float = 1000.0
    nu_grid_size: int = 100
    chi2_prior: tuple[float, float] | None = None

    def __post_init__(self):
        if self.model_kind not in (NON_SEASONAL, SEASONAL):
            raise ValueError(f"unknown model kind {self.model_kind!r}")
        if self.variance_mode not in (HOMOSCEDASTIC, HETEROSCEDASTIC):
            raise ValueError(f"unknown variance mode {self.variance_mode!r}")
        if not (0 < self.nu_lower < self.nu_upper):
            raise ValueError("need 0 < nu_lower < nu_upper")
        for name in ("s_gamma", "s_lambda", "s_b1"):
            v = getattr(self, name)
            if v is not None and not v > 0:
                raise ValueError(f"{name} must be positive, got {v}")

    def resolved_scales(self, y) -> tuple[float, float, float]:
        """(s_gamma, s_lambda, s_b1) with data-adaptive defaults filled in."""
        auto = float(np.max(y)) / 100.0
        return (
            self.s_gamma if self.s_gamma is not None else auto,
            self.s_lambda,
            self.s_b1 if self.s_b1 is not None else auto,
        )


# Beta(a, b) prior of each smoothing weight (alpha, beta, zeta)
SMOOTHING_PRIOR = (1.0, 0.5)

# bounds from the model definition
RHO_RANGE = (-0.5, 1.0)
LAM_RANGE = (-100.0, 1.0)
B1_RANGE = (-100.0, 1.0)


@dataclass
class ParameterDraw:
    """One complete posterior sample: model parameters plus latent variables.

    ``log_s_init`` holds the m seed log seasonal factors (a single zero for
    non-seasonal fits).  ``omega2`` are the per-observation t-mixture
    variances; the ``xi_*`` latents expand the Cauchy coefficient priors;
    ``psi2``/``delta2``/``eta_s``/``eta_delta`` are the seasonal shrinkage
    latents (``psi2`` and ``eta_s`` carry m entries — the constrained m-th
    factor keeps its own local variance but is never proposed directly).
    """

    nu: float
    gamma: float
    rho: float
    lam: float
    alpha: float
    beta: float
    zeta: float
    chi2: float
    phi: float
    tau: float
    b1: float
    log_s_init: np.ndarray
    omega2: np.ndarray
    xi_gamma2: float = 1.0
    xi_lambda2: float = 1.0
    xi_b1_2: float = 1.0
    psi2: np.ndarray = None
    delta2: float = 1.0
    eta_s: np.ndarray = None
    eta_delta: float = 1.0

    def __post_init__(self):
        self.log_s_init = np.asarray(self.log_s_init, dtype=float)
        self.omega2 = np.asarray(self.omega2, dtype=float)
        m = self.log_s_init.shape[0]
        if self.psi2 is None:
            self.psi2 = np.ones(m)
        if self.eta_s is None:
            self.eta_s = np.ones(m)
        self.psi2 = np.asarray(self.psi2, dtype=float)
        self.eta_s = np.asarray(self.eta_s, dtype=float)

    @property
    def m(self) -> int:
        return self.log_s_init.shape[0]

    def copy(self) -> "ParameterDraw":
        return replace(
            self,
            log_s_init=self.log_s_init.copy(),
            omega2=self.omega2.copy(),
            psi2=self.psi2.copy(),
            eta_s=self.eta_s.copy(),
        )

    def proposal_clone(self) -> "ParameterDraw":
        """Shallow copy for MH trials: scalars are replaced, arrays shared."""
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        return clone

    def validate(self) -> None:
        if abs(float(np.sum(self.log_s_init))) > SEASONAL_SUM_TOL:
            raise ValueError(
                f"seed log seasonal factors sum to {np.sum(self.log_s_init)}, not 0"
            )
        for name in ("nu", "chi2", "xi_gamma2", "xi_lambda2", "xi_b1_2", "delta2"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name}={v} must be positive and finite")
        for name in ("omega2", "psi2", "eta_s"):
            arr = getattr(self, name)
            if not (np.all(arr > 0) and np.all(np.isfinite(arr))):
                raise ValueError(f"{name} must be positive and finite")
        if not self.eta_delta > 0:
            raise ValueError(f"eta_delta={self.eta_delta} must be positive")
        if not RHO_RANGE[0] <= self.rho <= RHO_RANGE[1]:
            raise ValueError(f"rho={self.rho} outside {RHO_RANGE}")
        if not LAM_RANGE[0] <= self.lam <= LAM_RANGE[1]:
            raise ValueError(f"lam={self.lam} outside {LAM_RANGE}")
        if not B1_RANGE[0] < self.b1 < B1_RANGE[1]:
            raise ValueError(f"b1={self.b1} outside open {B1_RANGE}")
        for name in ("alpha", "beta", "zeta"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name}={v} outside (0, 1)")
        for name in ("phi", "tau"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")


@dataclass
class StatePaths:
    """Deterministic per-draw trajectories.

    ``l``/``b``/``log_s`` have length T (``log_s[:m]`` are the seeds); a
    seasonal fit keeps no trend, and ``b`` is None there.  The scale ``g``
    and the residuals ``e`` = y - yhat have length T-1 and align with
    y[1:]; the variance of step t is ``chi2 * g[t-1]``, one correctly
    rounded product, as every reader forms it.
    """

    l: np.ndarray
    b: np.ndarray | None
    log_s: np.ndarray
    g: np.ndarray
    e: np.ndarray
    clamp_events: int = 0

    def end_state(self, m: int) -> "EndState":
        """The state at the last step, which a forecast rolls on from; ``m`` is the draw's period.

        A seasonal fit's trend is 0 there: ``simulate`` multiplies it by lam = 0.
        """
        T = self.l.shape[0]
        b = 0.0 if self.b is None else float(self.b[-1])
        return EndState(T=T, l=float(self.l[-1]), b=b, log_s=self.log_s[T - m:].copy())


@dataclass(frozen=True)
class EndState:
    """Level, trend and last m log seasonal factors at step T-1 of a fitted series of length T.

    ``simulate`` continues the recursion from these alone, reading
    ``log_s`` as the factors of steps 0..m-1 and starting at step m: the
    seasonal recursion reads only the factor one period back, so the
    re-indexed roll draws the same values as one started at step T.  A
    non-seasonal draw keeps one unused zero.
    """

    T: int
    l: float
    b: float
    log_s: np.ndarray


def initial_level(y, model_kind: str, log_s_init) -> float:
    """Level seed: the first observation, deseasonalised by its seed factor."""
    if model_kind != SEASONAL:
        return float(y[0])
    return y[0] / math.exp(log_s_init[0])


def simulate(rng, theta: ParameterDraw, cfg: PriorConfig, l: float, b: float,
             log_s: np.ndarray, t: int, steps: int, keep) -> list | None:
    """Draw observations t..t+steps-1 by running the recursion forward.

    ``l`` and ``b`` are the level and trend at step t-1, ``log_s`` the log
    seasonal factors of steps 0..t-1 (just the m seeds when t <= m).  Each
    step forms yhat and sigma2 as the fitted recursion does and draws
    yhat + z * sqrt(sigma2) with one ``rng.standard_t(nu)``.  ``keep`` is
    the caller's acceptance rule: it maps that draw to the value the roll
    continues with, or to None to abandon the roll, which then returns
    None; otherwise the ``steps`` kept values are returned.  A non-finite
    level, trend or value, or an arithmetic error, raises ``ForecastError``.
    """
    seasonal = cfg.model_kind == SEASONAL
    m = theta.m if seasonal else 1
    alpha, beta, zeta = theta.alpha, theta.beta, theta.zeta
    gamma, rho, nu = theta.gamma, theta.rho, theta.nu
    chi2 = theta.chi2
    phi2, q2, p2 = theta.phi ** 2, (1.0 - theta.phi) ** 2, 2.0 * theta.tau
    lam = 0.0 if seasonal else theta.lam
    log_s = log_s.tolist()
    out = []
    try:
        for k in range(steps):
            u = t + k
            a_u = math.exp(log_s[u - m if u >= m else u]) if seasonal else 1.0
            lp = l
            if lp < LEVEL_FLOOR:
                lp = LEVEL_FLOOR
            yh = (l + gamma * lp ** rho + lam * b) * a_u
            s2 = chi2 * (phi2 + q2 * lp ** p2)
            y_u = keep(yh + rng.standard_t(nu) * math.sqrt(s2))
            if y_u is None:
                return None
            l_u = alpha * (y_u / a_u) + (1.0 - alpha) * l
            b = beta * (l_u - l) + (1.0 - beta) * b
            if seasonal and u >= m:
                log_s.append(zeta * math.log(y_u / l_u) + (1.0 - zeta) * log_s[u - m])
            l = l_u
            if not (math.isfinite(l) and math.isfinite(b) and math.isfinite(y_u)):
                raise ForecastError(f"non-finite simulated state at step {k + 1}")
            out.append(y_u)
    except (ArithmeticError, ValueError) as exc:
        raise ForecastError(f"simulation failed at step {k + 1}: {exc}") from exc
    return out


def applied_factors(log_s: np.ndarray, m: int) -> np.ndarray:
    """Seasonal factors of yhat[1..T-1]: step t applies exp(log_s[t - m]), or exp(log_s[t]) for t < m."""
    idx = np.arange(1, log_s.shape[0])
    idx = np.where(idx >= m, idx - m, idx)
    return np.exp(log_s[idx])


def recompute_trend_and_residuals(y, paths: StatePaths, theta: ParameterDraw) -> None:
    """Refresh b and the residuals e of a non-seasonal fit in place, in one loop.

    They follow a change of b1, beta, gamma, rho or lam; l is unchanged.
    A residual whose square is not finite (a forecast that overflowed, or
    one far enough off) raises ``NumericalError``, and the paths are left
    as they were.
    """
    beta, gamma, rho, lam = theta.beta, theta.gamma, theta.rho, theta.lam
    keep_b = 1.0 - beta
    l = paths.l.tolist()
    b_prev = theta.b1
    b, e = [b_prev], []
    for yt, l_prev, l_t in zip(np.asarray(y, dtype=float)[1:].tolist(), l, l[1:]):
        lp = l_prev
        if lp < LEVEL_FLOOR:
            lp = LEVEL_FLOOR
        e.append(yt - (l_prev + gamma * lp ** rho + lam * b_prev))
        b_prev = beta * (l_t - l_prev) + keep_b * b_prev
        b.append(b_prev)
    if not all(map(math.isfinite, map(operator.mul, e, e))):
        raise NumericalError("the one-step forecast gives a residual whose square is not finite")
    paths.b[:] = b
    paths.e[:] = e


def recompute_scale(paths: StatePaths, theta: ParameterDraw) -> None:
    """Refresh the scale g in place after a change of phi or tau."""
    phi2, q2, p2 = theta.phi ** 2, (1.0 - theta.phi) ** 2, 2.0 * theta.tau
    g = []
    for lp in paths.l[:-1].tolist():
        if lp < LEVEL_FLOOR:
            lp = LEVEL_FLOOR
        try:
            pw = lp ** p2
        except OverflowError:  # a float64 power overflows to inf
            pw = math.inf
        g.append(phi2 + q2 * pw)
    paths.g[:] = g
