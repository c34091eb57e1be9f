"""Rank-normalised split-R-hat and bulk effective sample size.

Follows Vehtari, Gelman, Simpson, Carpenter and Buerkner (2021),
"Rank-normalization, folding, and localization: an improved R-hat for
assessing convergence of MCMC" (arXiv:1903.08008): chains are split in
half, draws are replaced by the normal scores of their pooled ranks, and the
autocorrelation sum is truncated by Geyer's initial monotone sequence.

``draws`` arguments are arrays of shape (chains, draws per chain).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def split_chains(draws) -> np.ndarray:
    """Each chain cut into its first and second half (the middle draw of an odd chain is dropped)."""
    x = np.atleast_2d(np.asarray(draws, dtype=float))
    half = x.shape[1] // 2
    return np.concatenate([x[:, :half], x[:, x.shape[1] - half:]], axis=0)


def rank_normalise(draws) -> np.ndarray:
    """Normal scores of the pooled fractional ranks, (r - 3/8) / (S + 1/4)."""
    x = np.asarray(draws, dtype=float)
    ranks = rankdata(x, method="average").reshape(x.shape)
    return ndtri((ranks - 0.375) / (x.size + 0.25))


def _autocovariance(chain: np.ndarray) -> np.ndarray:
    """Biased (divide by n) autocovariance at lags 0..n-1."""
    n = chain.shape[0]
    c = chain - chain.mean()
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(c, size)
    return np.fft.irfft(f * np.conj(f), size)[:n] / n


def _rhat(chains: np.ndarray) -> float:
    n = chains.shape[1]
    within = float(np.mean(np.var(chains, axis=1, ddof=1)))
    between = n * float(np.var(chains.mean(axis=1), ddof=1))
    if within == 0.0:
        return math.nan
    var_plus = (n - 1) / n * within + between / n
    return math.sqrt(var_plus / within)


def _ess(chains: np.ndarray) -> float:
    """ESS of (already split) chains with Geyer's initial monotone sequence."""
    n_chains, n = chains.shape
    acov = np.array([_autocovariance(c) for c in chains])
    mean_var = float(acov[:, 0].mean()) * n / (n - 1)
    var_plus = mean_var * (n - 1) / n
    if n_chains > 1:
        var_plus += float(np.var(chains.mean(axis=1), ddof=1))
    if not var_plus > 0.0:
        return math.nan
    mean_acov = acov.mean(axis=0)
    rho = np.zeros(n)
    rho[0] = 1.0
    rho_even, rho_odd = 1.0, 1.0 - (mean_var - mean_acov[1]) / var_plus
    rho[1] = rho_odd
    t = 0
    while t < n - 5 and rho_even + rho_odd > 0.0:
        t += 2
        rho_even = 1.0 - (mean_var - mean_acov[t]) / var_plus
        rho_odd = 1.0 - (mean_var - mean_acov[t + 1]) / var_plus
        if rho_even + rho_odd >= 0.0:
            rho[t] = rho_even
            rho[t + 1] = rho_odd
    max_t = t
    if rho_even > 0.0:
        rho[max_t] = rho_even
    # initial monotone sequence: pair sums may not increase
    t = 0
    while t <= max_t - 4:
        t += 2
        if rho[t] + rho[t + 1] > rho[t - 2] + rho[t - 1]:
            rho[t] = rho[t + 1] = 0.5 * (rho[t - 2] + rho[t - 1])
    total = n_chains * n
    tau = -1.0 + 2.0 * float(np.sum(rho[:max_t])) + rho[max_t]
    tau = max(tau, 1.0 / math.log10(total))
    return total / tau


def bulk_ess(draws) -> float:
    """Rank-normalised split bulk ESS; nan when every draw is the same."""
    return _ess(split_chains(rank_normalise(draws)))


def split_rhat(draws) -> float:
    """Rank-normalised split-R-hat: the larger of the bulk and the folded (tail) value."""
    x = np.asarray(draws, dtype=float)
    bulk = _rhat(split_chains(rank_normalise(x)))
    folded = _rhat(split_chains(rank_normalise(np.abs(x - np.median(x)))))
    if math.isnan(bulk) or math.isnan(folded):
        return math.nan
    return max(bulk, folded)
