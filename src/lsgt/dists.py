"""Random sampling helpers, the symmetric KL between t densities and the df grid.

Everything the sampler draws from lives here: inverse-gamma, normal,
truncated-normal and categorical draws (thin, validating wrappers over
``numpy.random.Generator``), a numerical symmetric KL divergence between
unit Student-t densities, and the construction of a degrees-of-freedom grid
whose consecutive candidates are equidistant in symmetric KL.  The grid starts
log-spaced; each pass computes every gap in one vectorised quadrature and
shrinks or widens each log-step until the gaps are equal.  It is cached per
process.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, log_ndtr, ndtri_exp

from .errors import GridConstructionError, QuadratureError

__all__ = [
    "sample_inverse_gamma",
    "sample_normal",
    "sample_categorical",
    "sample_truncated_normal",
    "log_ndtr_diff",
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


def log_ndtr_diff(a: float, b: float) -> float:
    """log(Phi(b) - Phi(a)) for a <= b, accurate in either tail.

    An interval above zero is mirrored below it, where ``log_ndtr`` keeps
    full relative precision.
    """
    if a > 0.0:
        a, b = -b, -a
    log_b = float(log_ndtr(b))
    x = float(log_ndtr(a)) - log_b
    if x >= 0.0:  # the interval is narrower than the resolution of Phi
        return -math.inf
    if x > -math.log(2.0):
        return log_b + math.log(-math.expm1(x))
    return log_b + math.log1p(-math.exp(x))


def sample_truncated_normal(rng, mean, variance, lo, hi):
    """Normal draw restricted to [lo, hi]: rejection, then the inverse CDF.

    Up to ``TRUNCATION_TRIES`` plain normal draws are tried first.  When all
    of them miss, the draw is taken by inversion of the truncated CDF in log
    space (the interval mirrored below zero when it lies above the mean),
    which is exact however far into a tail the interval lies.  The second
    element of the returned tuple is True when the inversion was used.
    """
    sd = math.sqrt(variance)
    for _ in range(TRUNCATION_TRIES):
        x = rng.normal(mean, sd)
        if lo <= x <= hi:
            return float(x), False
    a, b = (lo - mean) / sd, (hi - mean) / sd
    sign = 1.0
    if a > 0.0:
        a, b, sign = -b, -a, -1.0
    # log(Phi(a) + u (Phi(b) - Phi(a))) with u uniform on (0, 1]
    log_u = math.log1p(-rng.random())
    z = float(ndtri_exp(np.logaddexp(float(log_ndtr(a)), log_u + log_ndtr_diff(a, b))))
    return float(min(max(mean + sign * sd * z, lo), hi)), True


# ---------------------------------------------------------------------------
# Symmetric KL divergence between unit Student-t densities
# ---------------------------------------------------------------------------

KL_NODES = 1200        # Gauss-Legendre nodes of symmetric_kl_t and the grid gaps
KL_CHECK_TOL = 2e-5    # largest relative change allowed at half the nodes


def _t_log_density_vec(x: np.ndarray, nu: float | np.ndarray) -> np.ndarray:
    """Log density of the unit, zero-location Student-t, constant included.

    ``nu`` may be an array that broadcasts against ``x``.
    """
    nu = np.asarray(nu, dtype=float)
    c = gammaln(0.5 * (nu + 1.0)) - gammaln(0.5 * nu) - 0.5 * np.log(nu * math.pi)
    return c - 0.5 * (nu + 1.0) * np.log1p(x * x / nu)


@functools.cache
def _gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes tan u on (-pi/2, pi/2) and their weights times sec^2 u."""
    u, w = np.polynomial.legendre.leggauss(n)
    u, w = 0.5 * math.pi * u, 0.5 * math.pi * w
    return np.tan(u), w / np.cos(u) ** 2


def _skl(a, b, n_nodes: int) -> np.ndarray:
    """KL(p||q) + KL(q||p) for unit t densities of df ``a`` and ``b`` (arrays, paired).

    Gauss-Legendre on the tangent-mapped line; the integrand
    (p - q)(log p - log q) sec^2 u is exactly symmetric in the pair.
    """
    x, w = _gauss_nodes(n_nodes)
    lp = _t_log_density_vec(x, np.asarray(a, dtype=float)[..., None])
    lq = _t_log_density_vec(x, np.asarray(b, dtype=float)[..., None])
    return np.sum(w * (np.exp(lp) - np.exp(lq)) * (lp - lq), axis=-1)


def _checked_skl(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``_skl`` at ``KL_NODES`` for 1-d df arrays, each pair checked at half the nodes.

    Raises ``QuadratureError`` when halving the node count moves a value by
    more than ``KL_CHECK_TOL`` relative.
    """
    fine = _skl(a, b, KL_NODES)
    coarse = _skl(a, b, KL_NODES // 2)
    bad = np.flatnonzero(np.abs(fine - coarse) > KL_CHECK_TOL * np.maximum(np.abs(fine), 1e-300))
    if bad.size:
        i = bad[0]
        raise QuadratureError(
            f"symmetric KL quadrature unstable for ({a[i]}, {b[i]}): "
            f"{fine[i]} vs {coarse[i]} at half resolution (rel tol {KL_CHECK_TOL})"
        )
    return fine


def symmetric_kl_t(nu1: float, nu2: float) -> float:
    """KL(p||q) + KL(q||p) between unit Student-t densities.

    Raises ``QuadratureError`` when halving the node count moves the result
    by more than ``KL_CHECK_TOL`` relative.
    """
    if not (nu1 > 0 and nu2 > 0):
        raise ValueError(f"degrees of freedom must be positive, got {nu1}, {nu2}")
    return float(_checked_skl(np.array([nu1], dtype=float), np.array([nu2], dtype=float))[0])


# ---------------------------------------------------------------------------
# Candidate grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NuGrid:
    """Ascending df candidates with equal consecutive symmetric-KL gaps."""

    candidates: tuple[float, ...]


GRID_PASSES = 100      # bound on the gap-equalising passes of build_nu_grid
GRID_TOL = 1e-8        # largest spread of the gaps, relative to their mean


@functools.cache
def build_nu_grid(nu_l: float, nu_u: float, q: int) -> NuGrid:
    """Build ``q`` df candidates on [nu_l, nu_u] with equal symmetric-KL gaps.

    The candidates start log-spaced.  Each pass computes every gap at once,
    scales each log-step by gap**-1/4 and rescales the steps to the fixed
    span, so both ends stay put; it stops once the gaps' spread is within
    ``GRID_TOL`` of their mean.  Every final gap must pass the half-resolution
    check of ``symmetric_kl_t`` (else ``QuadratureError``), and gaps that do
    not equalise within ``GRID_PASSES`` passes raise ``GridConstructionError``.
    Results are cached per process, and forked workers inherit the cache.
    """
    if not (0 < nu_l < nu_u):
        raise ValueError(f"require 0 < nu_l < nu_u, got {nu_l}, {nu_u}")
    if q < 2:
        raise ValueError(f"grid size must be >= 2, got {q}")
    span = math.log(nu_u / nu_l)
    steps = np.full(q - 1, span / (q - 1))
    for _ in range(GRID_PASSES):
        nu = np.concatenate(([nu_l], nu_l * np.exp(np.cumsum(steps[:-1])), [nu_u]))
        gaps = _skl(nu[:-1], nu[1:], KL_NODES)
        if np.ptp(gaps) <= GRID_TOL * gaps.mean():
            _checked_skl(nu[:-1], nu[1:])
            return NuGrid(candidates=tuple(nu.tolist()))
        steps *= gaps ** -0.25  # the power -1/2, exact for a constant metric, oscillates
        steps *= span / steps.sum()
    raise GridConstructionError(
        f"symmetric-KL gaps of grid ({nu_l}, {nu_u}, {q}) did not equalise "
        f"within {GRID_PASSES} passes (spread {np.ptp(gaps) / gaps.mean():.2e} of the mean)"
    )
