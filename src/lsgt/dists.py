"""Random sampling helpers, the symmetric KL between t densities and the df grid.

Everything the sampler draws from lives here: inverse-gamma, normal,
truncated-normal and categorical draws (thin, validating wrappers over
``numpy.random.Generator``), a numerical symmetric KL divergence between
unit Student-t densities, and the construction of a degrees-of-freedom grid
whose consecutive candidates are equidistant in symmetric KL.  The grid is
built by one root-find on the common gap and cached per process.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import GridConstructionError, QuadratureError

__all__ = [
    "sample_inverse_gamma",
    "sample_normal",
    "sample_categorical",
    "sample_truncated_normal",
    "symmetric_kl_t",
    "NuGrid",
    "build_nu_grid",
]


# ---------------------------------------------------------------------------
# Sampling wrappers
# ---------------------------------------------------------------------------

def sample_inverse_gamma(rng, shape, scale, size=None):
    """Draw from IG(shape, scale); the reciprocal is Gamma(shape, rate=scale).

    ``scale`` may be an array for a batch of independent draws.
    """
    if size is None and isinstance(shape, (float, int)) and isinstance(scale, (float, int)):
        if not (shape > 0 and scale > 0 and math.isfinite(shape) and math.isfinite(scale)):
            raise ValueError(f"inverse-gamma requires positive finite shape/scale, got {shape}, {scale}")
        return 1.0 / rng.gamma(shape, 1.0 / scale)
    shape_arr = np.asarray(shape, dtype=float)
    scale_arr = np.asarray(scale, dtype=float)
    if not (_positive_finite(shape_arr) and _positive_finite(scale_arr)):
        raise ValueError(f"inverse-gamma requires positive finite shape/scale, got {shape}, {scale}")
    if size is None and scale_arr.ndim > 0:
        size = scale_arr.shape
    g = rng.gamma(shape_arr, 1.0 / scale_arr, size=size)
    out = 1.0 / g
    if size is None and np.ndim(out) == 0:
        return float(out)
    return out


def _positive_finite(arr: np.ndarray) -> bool:
    # a NaN makes min() NaN, which fails the comparison
    return arr.size == 0 or (arr.min() > 0 and arr.max() < math.inf)


def sample_normal(rng, mean, variance, size=None):
    if not (variance > 0 and math.isfinite(variance) and math.isfinite(mean)):
        raise ValueError(f"normal requires finite mean and positive variance, got {mean}, {variance}")
    out = rng.normal(mean, math.sqrt(variance), size=size)
    return float(out) if size is None else out


def sample_categorical(rng, weights) -> int:
    """Index drawn with probability proportional to ``weights``."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-d sequence")
    if not w.min() >= 0:
        raise ValueError("weights must be finite and non-negative")
    cum = w.cumsum()
    total = cum[-1]
    if not total < math.inf:
        raise ValueError("weights must be finite and non-negative")
    if not total > 0:
        raise ValueError("at least one weight must be positive")
    u = rng.random() * total
    return int(np.searchsorted(cum, u, side="right"))


TRUNCATION_TRIES = 100


def sample_truncated_normal(rng, mean, variance, lo, hi):
    """Normal draw restricted to [lo, hi] by rejection.

    After ``TRUNCATION_TRIES`` rejections the draw is clamped to the nearest
    bound and the second element of the returned tuple is True.
    """
    sd = math.sqrt(variance)
    for _ in range(TRUNCATION_TRIES):
        x = rng.normal(mean, sd)
        if lo <= x <= hi:
            return float(x), False
    return float(min(max(mean, lo), hi)), True


# ---------------------------------------------------------------------------
# Symmetric KL divergence between unit Student-t densities
# ---------------------------------------------------------------------------

KL_NODES = 1200        # Gauss-Legendre nodes of symmetric_kl_t
KL_CHECK_TOL = 2e-5    # largest relative change allowed at half the nodes
_GRID_NODES = 600      # nodes of the per-pair solves inside build_nu_grid


def _t_log_density_vec(x: np.ndarray, nu: float) -> np.ndarray:
    """Log density of the unit, zero-location Student-t, constant included."""
    c = math.lgamma(0.5 * (nu + 1.0)) - math.lgamma(0.5 * nu) - 0.5 * math.log(nu * math.pi)
    return c - 0.5 * (nu + 1.0) * np.log1p(x * x / nu)


@functools.cache
def _gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    # map [-1, 1] -> (-pi/2, pi/2)
    return 0.5 * math.pi * x, 0.5 * math.pi * w


def _kl_t(nu_p: float, nu_q: float, n_nodes: int) -> float:
    """KL(t_nu_p || t_nu_q) for unit-scale, zero-location densities.

    Gauss-Legendre on the tangent-transformed real line; the integrand is
    p(tan u) * (log p - log q)(tan u) * sec^2 u.
    """
    theta, w = _gauss_nodes(n_nodes)
    x = np.tan(theta)
    jac = 1.0 / np.cos(theta) ** 2
    lp = _t_log_density_vec(x, nu_p)
    lq = _t_log_density_vec(x, nu_q)
    return float(np.sum(w * np.exp(lp) * (lp - lq) * jac))


def symmetric_kl_t(nu1: float, nu2: float) -> float:
    """KL(p||q) + KL(q||p) between unit Student-t densities.

    Raises ``QuadratureError`` when halving the node count moves the result
    by more than ``KL_CHECK_TOL`` relative.
    """
    if not (nu1 > 0 and nu2 > 0):
        raise ValueError(f"degrees of freedom must be positive, got {nu1}, {nu2}")
    if nu1 == nu2:
        return 0.0
    val = _kl_t(nu1, nu2, KL_NODES) + _kl_t(nu2, nu1, KL_NODES)
    coarse = _kl_t(nu1, nu2, KL_NODES // 2) + _kl_t(nu2, nu1, KL_NODES // 2)
    denom = max(abs(val), 1e-300)
    if abs(val - coarse) / denom > KL_CHECK_TOL:
        raise QuadratureError(
            f"symmetric KL quadrature unstable for ({nu1}, {nu2}): "
            f"{val} vs {coarse} at half resolution (rel tol {KL_CHECK_TOL})"
        )
    return val


# ---------------------------------------------------------------------------
# Candidate grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NuGrid:
    """Ascending df candidates with equal consecutive symmetric-KL gaps."""

    candidates: tuple[float, ...]


_NU_SEARCH_CAP = 1e9


def _next_candidate(nu: float, gap: float) -> float | None:
    """Solve skl(nu, x) = gap for x > nu; None when no solution below the cap."""

    def f(x):
        return _kl_t(nu, x, _GRID_NODES) + _kl_t(x, nu, _GRID_NODES) - gap

    lo = nu * (1.0 + 1e-12)
    hi = nu * 1.5
    while hi < _NU_SEARCH_CAP:
        if f(hi) >= 0.0:
            return float(brentq(f, lo, hi, xtol=1e-12, rtol=1e-13))
        lo = hi
        hi *= 2.0
    return None


def _chain(nu_l: float, gap: float, steps: int) -> list[float]:
    """``nu_l`` and up to ``steps`` successors, each ``gap`` above the last.

    A chain that escapes the search cap ends at ``_NU_SEARCH_CAP``.
    """
    chain = [float(nu_l)]
    for _ in range(steps):
        nxt = _next_candidate(chain[-1], gap)
        if nxt is None:
            chain.append(_NU_SEARCH_CAP)
            break
        chain.append(nxt)
    return chain


@functools.cache
def build_nu_grid(nu_l: float, nu_u: float, q: int) -> NuGrid:
    """Build ``q`` df candidates on [nu_l, nu_u] with equal symmetric-KL gaps.

    One root-find on the log of the common gap makes the greedy chain of
    per-pair solves land exactly on ``nu_u``; results are cached per
    process, and forked workers inherit the cache.
    """
    if not (0 < nu_l < nu_u):
        raise ValueError(f"require 0 < nu_l < nu_u, got {nu_l}, {nu_u}")
    if q < 2:
        raise ValueError(f"grid size must be >= 2, got {q}")
    if q == 2:
        return NuGrid(candidates=(float(nu_l), float(nu_u)))

    @functools.cache  # brentq re-evaluates both bracket ends
    def overshoot(log_gap):
        return math.log(_chain(nu_l, math.exp(log_gap), q - 1)[-1] / nu_u)

    total = symmetric_kl_t(nu_l, nu_u)
    hi = math.log(total)
    if not overshoot(hi) >= 0:
        raise GridConstructionError(
            f"gap bracketing failed for grid ({nu_l}, {nu_u}, {q}): upper gap undershoots"
        )
    lo = math.log(total / (q - 1) ** 2)
    for _ in range(40):
        if overshoot(lo) < 0:
            break
        lo -= math.log(10.0)
    else:
        raise GridConstructionError(
            f"gap bracketing failed for grid ({nu_l}, {nu_u}, {q}): no lower gap found"
        )
    gap = math.exp(brentq(overshoot, lo, hi))

    candidates = _chain(nu_l, gap, q - 2)
    if candidates[-1] == _NU_SEARCH_CAP:
        raise GridConstructionError(f"grid chain escaped the search cap at gap {gap}")
    candidates.append(float(nu_u))

    # sanity: the closing gap must agree with the common gap
    closing = symmetric_kl_t(candidates[-2], nu_u)
    if abs(closing - gap) / gap > 1e-3:
        raise GridConstructionError(
            f"closing gap {closing} deviates from common gap {gap} by more than 0.1%"
        )
    return NuGrid(candidates=tuple(candidates))
