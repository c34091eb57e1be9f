"""Random sampling helpers, Student-t densities and the df candidate grid.

Everything the sampler draws from lives here: inverse-gamma, normal, beta,
uniform and categorical draws (thin, validating wrappers over
``numpy.random.Generator``), the Student-t log density, a numerical
symmetric KL divergence between t distributions, and the construction of a
degrees-of-freedom grid whose consecutive candidates are equidistant in
symmetric KL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import GridConstructionError, QuadratureError

__all__ = [
    "sample_inverse_gamma",
    "sample_normal",
    "sample_beta",
    "sample_uniform",
    "sample_categorical",
    "sample_truncated_normal",
    "student_t_log_density",
    "symmetric_kl_t",
    "NuGrid",
    "build_nu_grid",
    "uniform_grid",
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


def sample_beta(rng, a, b, size=None):
    if not (a > 0 and b > 0):
        raise ValueError(f"beta requires positive parameters, got {a}, {b}")
    out = rng.beta(a, b, size=size)
    return float(out) if size is None else out


def sample_uniform(rng, lo, hi, size=None):
    if not (hi > lo):
        raise ValueError(f"uniform requires hi > lo, got {lo}, {hi}")
    out = rng.uniform(lo, hi, size=size)
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


def sample_truncated_normal(rng, mean, variance, lo, hi, max_tries: int = 100):
    """Normal draw restricted to [lo, hi] by rejection.

    After ``max_tries`` rejections the draw is clamped to the nearest bound
    and the second element of the returned tuple is True.
    """
    sd = math.sqrt(variance)
    for _ in range(max_tries):
        x = rng.normal(mean, sd)
        if lo <= x <= hi:
            return float(x), False
    return float(min(max(mean, lo), hi)), True


# ---------------------------------------------------------------------------
# Student-t density and symmetric KL divergence
# ---------------------------------------------------------------------------

def student_t_log_density(x, nu, location=0.0, scale=1.0):
    """Exact log density of the Student-t, normalising constant included."""
    if not (nu > 0 and scale > 0):
        raise ValueError(f"require nu > 0 and scale > 0, got {nu}, {scale}")
    z = (x - location) / scale
    return (
        math.lgamma(0.5 * (nu + 1.0))
        - math.lgamma(0.5 * nu)
        - 0.5 * math.log(nu * math.pi)
        - math.log(scale)
        - 0.5 * (nu + 1.0) * math.log1p(z * z / nu)
    )


def _t_log_density_vec(x: np.ndarray, nu: float) -> np.ndarray:
    c = math.lgamma(0.5 * (nu + 1.0)) - math.lgamma(0.5 * nu) - 0.5 * math.log(nu * math.pi)
    return c - 0.5 * (nu + 1.0) * np.log1p(x * x / nu)


_QUAD_NODES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _QUAD_NODES:
        x, w = np.polynomial.legendre.leggauss(n)
        # map [-1, 1] -> (-pi/2, pi/2)
        _QUAD_NODES[n] = (0.5 * math.pi * x, 0.5 * math.pi * w)
    return _QUAD_NODES[n]


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


def symmetric_kl_t(nu1: float, nu2: float, n_nodes: int = 1200, check_tol: float = 2e-5) -> float:
    """KL(p||q) + KL(q||p) between unit Student-t densities.

    Raises ``QuadratureError`` when halving the node count moves the result
    by more than ``check_tol`` relative.
    """
    if not (nu1 > 0 and nu2 > 0):
        raise ValueError(f"degrees of freedom must be positive, got {nu1}, {nu2}")
    if nu1 == nu2:
        return 0.0
    val = _kl_t(nu1, nu2, n_nodes) + _kl_t(nu2, nu1, n_nodes)
    coarse = _kl_t(nu1, nu2, n_nodes // 2) + _kl_t(nu2, nu1, n_nodes // 2)
    denom = max(abs(val), 1e-300)
    if abs(val - coarse) / denom > check_tol:
        raise QuadratureError(
            f"symmetric KL quadrature unstable for ({nu1}, {nu2}): "
            f"{val} vs {coarse} at half resolution (rel tol {check_tol})"
        )
    return val


# ---------------------------------------------------------------------------
# Candidate grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NuGrid:
    """Ascending df candidates with equal consecutive symmetric-KL gaps."""

    candidates: tuple[float, ...]

    @property
    def size(self) -> int:
        return len(self.candidates)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.candidates)

    def nearest(self, value: float) -> float:
        arr = self.as_array()
        return float(arr[int(np.argmin(np.abs(arr - value)))])


_NU_GRID_CACHE: dict[tuple[float, float, int], NuGrid] = {}

_NU_SEARCH_CAP = 1e9


def _next_candidate(nu: float, gap: float, n_nodes: int = 600) -> float | None:
    """Solve skl(nu, x) = gap for x > nu; None when no solution below the cap."""

    def f(x):
        return _kl_t(nu, x, n_nodes) + _kl_t(x, nu, n_nodes) - gap

    lo = nu * (1.0 + 1e-12)
    hi = nu * 1.5
    while hi < _NU_SEARCH_CAP:
        if f(hi) >= 0.0:
            return float(brentq(f, lo, hi, xtol=1e-12, rtol=1e-13))
        lo = hi
        hi *= 2.0
    return None


def _grid_end(nu_l: float, gap: float, steps: int) -> float:
    nu = nu_l
    for _ in range(steps):
        nxt = _next_candidate(nu, gap)
        if nxt is None:
            return math.inf
        nu = nxt
    return nu


def build_nu_grid(nu_l: float, nu_u: float, q: int) -> NuGrid:
    """Build ``q`` df candidates on [nu_l, nu_u] with equal symmetric-KL gaps.

    An outer root-find chooses the common gap so that the greedy chain of
    per-pair solves lands exactly on ``nu_u``; results are cached per
    process.
    """
    if not (0 < nu_l < nu_u):
        raise ValueError(f"require 0 < nu_l < nu_u, got {nu_l}, {nu_u}")
    if q < 2:
        raise ValueError(f"grid size must be >= 2, got {q}")
    key = (float(nu_l), float(nu_u), int(q))
    cached = _NU_GRID_CACHE.get(key)
    if cached is not None:
        return cached
    if q == 2:
        grid = NuGrid(candidates=(float(nu_l), float(nu_u)))
        _NU_GRID_CACHE[key] = grid
        return grid

    total = symmetric_kl_t(nu_l, nu_u)

    def overshoot(log_gap):
        end = _grid_end(nu_l, math.exp(log_gap), q - 1)
        if math.isinf(end):
            return math.inf
        return end - nu_u

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
    # bisection keeps inf-valued overshoots (beyond the search cap) usable
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        if overshoot(mid) < 0:
            lo = mid
        else:
            hi = mid
    gap = math.exp(0.5 * (lo + hi))

    candidates = [float(nu_l)]
    for _ in range(q - 2):
        nxt = _next_candidate(candidates[-1], gap)
        if nxt is None:
            raise GridConstructionError(f"grid chain escaped the search cap at gap {gap}")
        candidates.append(nxt)
    candidates.append(float(nu_u))

    # sanity: the closing gap must agree with the common gap
    closing = symmetric_kl_t(candidates[-2], nu_u)
    if abs(closing - gap) / gap > 1e-3:
        raise GridConstructionError(
            f"closing gap {closing} deviates from common gap {gap} by more than 0.1%"
        )
    grid = NuGrid(candidates=tuple(candidates))
    _NU_GRID_CACHE[key] = grid
    return grid


def seed_nu_grid_cache(nu_l: float, nu_u: float, q: int, candidates) -> None:
    """Install a prebuilt grid (used to hand grids to worker processes)."""
    _NU_GRID_CACHE[(float(nu_l), float(nu_u), int(q))] = NuGrid(tuple(float(c) for c in candidates))


def uniform_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """Evenly spaced candidates over [lo, hi], endpoints included."""
    return np.linspace(lo, hi, n)
