"""Workload definitions and the seeded input generator.

Inputs are made here, from the benchmark's own code, so that a change to the
program cannot change them.  Every series is a forward simulation of the
LGT/SGT observation equations (see the ``lsgt.model`` docstring):

    yhat[t+1]   = (l[t] + gamma * l[t]^rho + lam * b[t]) * s_applied[t+1]
    y[t+1]      = yhat[t+1] + sigma[t+1] * eps,   eps ~ Student-t(nu)
    sigma[t+1]  = cv * l[t]                        (chi2 = cv^2, phi = 0, tau = 1)
    l[t]        = alpha * y[t] / s_applied[t] + (1 - alpha) * l[t-1]
    b[t]        = beta * (l[t] - l[t-1]) + (1 - beta) * b[t-1]
    log s[t]    = zeta * log(y[t] / l[t]) + (1 - zeta) * log s[t-m]

with M3's in-sample lengths and horizons.  The structural draws (length,
level, smoothing weights, trend, noise scale, degrees of freedom) and the
innovations at every step are Latin hypercube stratified across the series
of one collection, so two seeds give collections with the same spread of
shapes and noise and differ in where each series falls within each stratum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import t as student_t


CHAINS = 2   # lsgt's default


@dataclass(frozen=True)
class Workload:
    name: str
    m: int
    h: int
    t_min: int          # in-sample length range, inclusive
    t_max: int
    n_series: int       # series per collection
    model_kind: str     # lsgt fit variant
    workers: int
    iterations: int     # sweeps per chain, burn-in included
    burn_in: int
    cv_range: tuple[float, float] = (0.08, 0.12)
    alpha_range: tuple[float, float] = (0.15, 0.5)
    amplitude_range: tuple[float, float] = (0.0, 0.0)   # seasonal log amplitude

    @property
    def kept_per_chain(self) -> int:
        return self.iterations - self.burn_in


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="yearly",
            m=1, h=6, t_min=14, t_max=41, n_series=40, model_kind="non_seasonal",
            workers=1, iterations=120, burn_in=60,
        ),
        Workload(
            name="monthly",
            m=12, h=18, t_min=48, t_max=126, n_series=14, model_kind="seasonal",
            workers=1, iterations=120, burn_in=60, cv_range=(0.06, 0.1), alpha_range=(0.1, 0.3),
            amplitude_range=(0.05, 0.25),
        ),
        Workload(
            name="quarterly",
            m=4, h=8, t_min=16, t_max=64, n_series=24, model_kind="seasonal",
            workers=2, iterations=120, burn_in=60, cv_range=(0.06, 0.1), alpha_range=(0.1, 0.3),
            amplitude_range=(0.05, 0.25),
        ),
    )
}


@dataclass(frozen=True)
class Series:
    id: str
    values: tuple[float, ...]   # in-sample values followed by the h held-out values
    m: int
    h: int

    @property
    def train(self) -> tuple[float, ...]:
        return self.values[: len(self.values) - self.h]

    @property
    def test(self) -> tuple[float, ...]:
        return self.values[len(self.values) - self.h:]


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """n points in [0, 1), one in each of n equal strata, in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


def _seasonal_seeds(rng: np.random.Generator, m: int, amplitude: float) -> np.ndarray:
    phase = rng.uniform(0.0, 2.0 * math.pi)
    k = np.arange(m)
    logs = amplitude * np.sin(2.0 * math.pi * k / m + phase) + rng.normal(0.0, 0.2 * amplitude, m)
    return logs - logs.mean()


def _roll(eps, n_total, m, level, b0, alpha, beta, zeta, gamma, rho, lam, cv, seeds):
    """Forward simulation driven by the unit innovations ``eps``; None if a value is not positive."""
    log_s = np.zeros(n_total)
    log_s[:m] = seeds
    l_prev, b_prev = level, b0
    y = [level * math.exp(log_s[0])]
    for t in range(1, n_total):
        a_t = math.exp(log_s[t - m if t >= m else t])
        yhat = (l_prev + gamma * l_prev ** rho + lam * b_prev) * a_t
        y_t = yhat + cv * l_prev * a_t * float(eps[t])
        l_t = alpha * y_t / a_t + (1.0 - alpha) * l_prev
        if not (y_t > 0.0 and l_t > 0.0):
            return None
        b_prev = beta * (l_t - l_prev) + (1.0 - beta) * b_prev
        if m > 1 and t >= m:
            log_s[t] = zeta * math.log(y_t / l_t) + (1.0 - zeta) * log_s[t - m]
        y.append(y_t)
        l_prev = l_t
    return y


def make_collection(w: Workload, seed: int) -> list[Series]:
    """The seeded collection of one workload; the same seed gives the same series."""
    n = w.n_series
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, w.m])))
    u = {k: _strata(rng, n) for k in ("t", "level", "alpha", "beta", "zeta", "rho", "growth", "lam", "cv", "nu", "amp")}
    # innovations, aligned on the series ends: at every step, held-out steps
    # included, the n series take one draw from each of n strata
    noise = np.stack([_strata(rng, n) for _ in range(w.t_max + w.h)], axis=1)
    out: list[Series] = []
    for i in range(n):
        t_in = w.t_min + int(u["t"][i] * (w.t_max - w.t_min + 1))
        level = 300.0 * (10000.0 / 300.0) ** u["level"][i]
        alpha = w.alpha_range[0] + (w.alpha_range[1] - w.alpha_range[0]) * u["alpha"][i]
        beta = 0.05 + 0.15 * u["beta"][i]
        zeta = 0.02 + 0.1 * u["zeta"][i]
        rho = 0.3 + 0.4 * u["rho"][i]
        growth = (0.005 + 0.025 * u["growth"][i]) / w.m     # global trend per step, share of level
        gamma = growth * level ** (1.0 - rho)
        lam = 0.0 if w.m > 1 else 0.1 + 0.3 * u["lam"][i]
        b0 = 0.01 * level * u["level"][i] / w.m
        cv = w.cv_range[0] + (w.cv_range[1] - w.cv_range[0]) * u["cv"][i]
        nu = 6.0 + 24.0 * u["nu"][i]
        amp = w.amplitude_range[0] + (w.amplitude_range[1] - w.amplitude_range[0]) * u["amp"][i]
        seeds = _seasonal_seeds(rng, w.m, amp) if w.m > 1 else np.zeros(1)
        eps = student_t.ppf(noise[i, noise.shape[1] - (t_in + w.h):], nu)
        while True:
            y = _roll(eps, t_in + w.h, w.m, level, b0, alpha, beta, zeta, gamma, rho, lam, cv, seeds)
            if y is not None:
                break
            eps = rng.standard_t(nu, size=eps.shape[0])
        out.append(Series(id=f"{w.name[0].upper()}{i:03d}", values=tuple(y), m=w.m, h=w.h))
    return out
