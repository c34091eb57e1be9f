"""Random sampling helpers, the symmetric KL between t densities and the df grid.

Everything the sampler draws from, but its grid draw, lives here:
inverse-gamma, normal and truncated-normal draws (thin, validating wrappers
over ``numpy.random.Generator``), the Student-t log normaliser, a numerical
symmetric KL divergence between unit Student-t densities, and the
construction of a degrees-of-freedom grid whose consecutive candidates are
equidistant in symmetric KL.  The grid starts log-spaced; each pass computes
every gap in one vectorised quadrature and moves the candidates to equal
increments of cumulative root gap until the gaps are equal.  It is cached per
process.

The module needs only numpy and the standard library's libm functions:
log Phi is built from ``math.erfc`` and an asymptotic series, the
Gauss-Legendre rule from Newton's method on the Legendre recurrence, and the
t normaliser from ``math.lgamma``.  scipy is imported only by the rare
inverse-CDF fallback of the truncated-normal draw.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridConstructionError, QuadratureError

__all__ = [
    "sample_inverse_gamma",
    "sample_normal",
    "sample_truncated_normal",
    "log_ndtr",
    "log_ndtr_diff",
    "t_log_normaliser",
    "NuGrid",
    "build_nu_grid",
]


# ---------------------------------------------------------------------------
# Sampling wrappers
# ---------------------------------------------------------------------------

def sample_inverse_gamma(rng, shape, scale):
    """Draw from IG(shape, scale); the reciprocal is Gamma(shape, rate=scale).

    ``shape`` is a scalar; ``scale`` may be an array for a batch of
    independent draws.  A batch is drawn as
    ``standard_gamma(shape, scale.shape) * (1 / scale)``: numpy's
    ``Generator.gamma(k, theta)`` is ``theta * standard_gamma(k)`` draw for
    draw, so the values and the generator's state after them are those of
    ``gamma(shape, 1 / scale)``, without its two-parameter broadcast.
    """
    if isinstance(shape, (float, int)) and isinstance(scale, (float, int)):
        if not (shape > 0 and scale > 0 and math.isfinite(shape) and math.isfinite(scale)):
            raise ValueError(f"inverse-gamma requires positive finite shape/scale, got {shape}, {scale}")
        return 1.0 / rng.gamma(shape, 1.0 / scale)
    shape = float(shape)
    scale_arr = np.asarray(scale, dtype=float)
    if not (shape > 0 and math.isfinite(shape) and _positive_finite(scale_arr)):
        raise ValueError(f"inverse-gamma requires positive finite shape/scale, got {shape}, {scale}")
    out = 1.0 / (rng.standard_gamma(shape, scale_arr.shape or None) * (1.0 / scale_arr))
    return float(out) if np.ndim(out) == 0 else out


def _positive_finite(arr: np.ndarray) -> bool:
    # a NaN makes min() NaN, which fails the comparison
    return arr.size == 0 or (arr.min() > 0 and arr.max() < math.inf)


def sample_normal(rng, mean: float, variance: float) -> float:
    if not (variance > 0 and math.isfinite(variance) and math.isfinite(mean)):
        raise ValueError(f"normal requires finite mean and positive variance, got {mean}, {variance}")
    return float(rng.normal(mean, math.sqrt(variance)))


TRUNCATION_TRIES = 100


_SQRT_HALF = math.sqrt(0.5)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
MILLS_TERMS = 12       # asymptotic-series terms of log_ndtr below -20; the last is < 2e-17
NARROW_INTERVAL = 0.25  # h (|m| + h) at or below which log_ndtr_diff integrates phi
NARROW_NODES = 8        # Gauss-Legendre nodes of that integral


def log_ndtr(x: float) -> float:
    """log Phi(x) of the standard normal CDF, to full relative precision.

    Above -1 it is log1p of minus the upper tail, 0.5 erfc(x / sqrt 2);
    down to -20 the log of the lower tail 0.5 erfc(-x / sqrt 2); further
    out, where erfc heads for underflow, the asymptotic series of the Mills
    ratio, whose terms at -20 fall below 2e-17 by the twelfth.
    """
    if x > -1.0:
        return math.log1p(-0.5 * math.erfc(x * _SQRT_HALF))
    if x > -20.0:
        return math.log(0.5 * math.erfc(-x * _SQRT_HALF))
    r = 1.0 / (x * x)
    term, series = 1.0, 0.0
    for k in range(1, MILLS_TERMS + 1):
        term *= -(2 * k - 1) * r
        series += term
    return -0.5 * x * x - math.log(-x) - _HALF_LOG_2PI + math.log1p(series)


def log_ndtr_diff(a: float, b: float) -> float:
    """log(Phi(b) - Phi(a)) for a <= b, accurate in either tail.

    An interval above zero is mirrored below it.  With midpoint m and
    half-width h, an interval with h (|m| + h) <= ``NARROW_INTERVAL`` would
    lose its digits to cancellation between the two log Phi, so its normal
    density is integrated instead: Gauss-Legendre on exp(-m h t - h^2 t^2 / 2),
    t in [-1, 1], which varies by less than a factor e^0.5 there.
    """
    if a > 0.0:
        a, b = -b, -a
    h, m = 0.5 * (b - a), 0.5 * (a + b)
    if h <= 0.0:
        return -math.inf
    if h * (abs(m) + h) <= NARROW_INTERVAL:
        t, w = _gauss_nodes(NARROW_NODES)
        integral = float(w @ np.exp(-(m * h) * t - (0.5 * h * h) * (t * t)))
        return -0.5 * m * m + math.log(h * integral) - _HALF_LOG_2PI
    log_b = log_ndtr(b)
    x = log_ndtr(a) - log_b
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
    from scipy.special import ndtri_exp  # here only, so that importing lsgt loads no scipy
    z = float(ndtri_exp(np.logaddexp(log_ndtr(a), log_u + log_ndtr_diff(a, b))))
    return float(min(max(mean + sign * sd * z, lo), hi)), True


# ---------------------------------------------------------------------------
# Symmetric KL divergence between unit Student-t densities
# ---------------------------------------------------------------------------

KL_NODES = 1200        # Gauss-Legendre nodes of the grid gaps
KL_CHECK_TOL = 2e-5    # largest relative change allowed at half the nodes
NEWTON_STEPS = 20      # bound on the Newton steps of _gauss_nodes; 3 to 4 suffice


def t_log_normaliser(nu):
    """0.5 log(nu pi) + lgamma(nu / 2) - lgamma((nu + 1) / 2), elementwise for an array.

    Minus the log density of the unit Student-t at 0: the df-dependent
    constant of every t likelihood in the package, written once.
    """
    if np.ndim(nu):
        return np.array([t_log_normaliser(v) for v in np.ravel(nu).tolist()]).reshape(np.shape(nu))
    return 0.5 * math.log(nu * math.pi) + math.lgamma(0.5 * nu) - math.lgamma(0.5 * (nu + 1.0))


def _t_log_density_vec(x: np.ndarray, nu: float | np.ndarray) -> np.ndarray:
    """Log density of the unit, zero-location Student-t, constant included.

    ``nu`` may be an array that broadcasts against ``x``.
    """
    nu = np.asarray(nu, dtype=float)
    return -t_log_normaliser(nu) - 0.5 * (nu + 1.0) * np.log1p(x * x / nu)


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n(x), P_{n-1}(x)) by the three-term recurrence, for n >= 1."""
    p_prev, p = np.ones_like(x), x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, p_prev


@functools.cache
def _gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [-1, 1], ascending, and their weights.

    Newton's method on the Legendre three-term recurrence (Hale and
    Townsend 2013), in O(n^2) where an eigenproblem takes O(n^3).  The
    positive nodes start from Tricomi's cos-approximation and are mirrored
    for the rest; an odd n adds the node 0.  The weights are
    2 (1 - x)(1 + x) / (n P_{n-1}(x))^2 at the converged nodes.
    """
    k = np.arange(n // 2)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(math.pi * (k + 0.75) / (n + 0.5))
    for _ in range(NEWTON_STEPS):
        p, p_prev = _legendre_pair(n, x)
        dx = p * (1.0 - x) * (1.0 + x) / (n * (p_prev - x * p))  # P_n / P_n'
        x = x - dx
        if np.abs(dx).max(initial=0.0) <= 1e-12:
            break
    else:
        raise QuadratureError(f"Gauss-Legendre nodes of order {n} did not converge")
    x = np.concatenate((-x, [0.0] * (n % 2), x[::-1]))
    _, p_prev = _legendre_pair(n, x)
    return x, 2.0 * (1.0 - x) * (1.0 + x) / (n * p_prev) ** 2


@functools.cache
def _line_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes tan u on (-pi/2, pi/2) and their weights times sec^2 u."""
    u, w = _gauss_nodes(n)
    u, w = 0.5 * math.pi * u, 0.5 * math.pi * w
    return np.tan(u), w / np.cos(u) ** 2


def _skl(a, b, n_nodes: int) -> np.ndarray:
    """KL(p||q) + KL(q||p) for unit t densities of df ``a`` and ``b`` (arrays, paired).

    Gauss-Legendre on the tangent-mapped line; the integrand
    (p - q)(log p - log q) sec^2 u is exactly symmetric in the pair.
    """
    x, w = _line_nodes(n_nodes)
    lp = _t_log_density_vec(x, np.asarray(a, dtype=float)[..., None])
    lq = _t_log_density_vec(x, np.asarray(b, dtype=float)[..., None])
    return np.sum(w * (np.exp(lp) - np.exp(lq)) * (lp - lq), axis=-1)


def _checked(a: np.ndarray, b: np.ndarray, fine: np.ndarray) -> np.ndarray:
    """``fine``, the ``_skl`` of 1-d df arrays at ``KL_NODES``, after a check at half the nodes.

    Raises ``QuadratureError`` when halving the node count moves a value by
    more than ``KL_CHECK_TOL`` relative.
    """
    coarse = _skl(a, b, KL_NODES // 2)
    bad = np.flatnonzero(np.abs(fine - coarse) > KL_CHECK_TOL * np.maximum(np.abs(fine), 1e-300))
    if bad.size:
        i = bad[0]
        raise QuadratureError(
            f"symmetric KL quadrature unstable for ({a[i]}, {b[i]}): "
            f"{fine[i]} vs {coarse[i]} at half resolution (rel tol {KL_CHECK_TOL})"
        )
    return fine


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

    The candidates start log-spaced.  Each pass computes every gap at once
    and, since the root of a small symmetric KL is a length, moves the
    interior candidates to equal increments of cumulative root gap,
    interpolated linearly in log df; both ends stay put.  The gaps are equal
    exactly at the fixed point, and the passes stop once their spread is
    within ``GRID_TOL`` of their mean (11 passes for the default grid).
    Every final gap must pass the half-resolution check of ``_checked``
    (else ``QuadratureError``), and gaps that do not equalise within
    ``GRID_PASSES`` passes raise ``GridConstructionError``.
    Results are cached per process, and forked workers inherit the cache.
    """
    if not (0 < nu_l < nu_u):
        raise ValueError(f"require 0 < nu_l < nu_u, got {nu_l}, {nu_u}")
    if q < 2:
        raise ValueError(f"grid size must be >= 2, got {q}")
    log_nu = np.linspace(math.log(nu_l), math.log(nu_u), q)
    fractions = np.arange(1, q - 1) / (q - 1)
    for _ in range(GRID_PASSES):
        nu = np.concatenate(([nu_l], np.exp(log_nu[1:-1]), [nu_u]))
        gaps = _skl(nu[:-1], nu[1:], KL_NODES)
        if np.ptp(gaps) <= GRID_TOL * gaps.mean():
            _checked(nu[:-1], nu[1:], gaps)
            return NuGrid(candidates=tuple(nu.tolist()))
        length = np.concatenate(([0.0], np.cumsum(np.sqrt(gaps))))
        log_nu[1:-1] = np.interp(fractions * length[-1], length, log_nu)
    raise GridConstructionError(
        f"symmetric-KL gaps of grid ({nu_l}, {nu_u}, {q}) did not equalise "
        f"within {GRID_PASSES} passes (spread {np.ptp(gaps) / gaps.mean():.2e} of the mean)"
    )
