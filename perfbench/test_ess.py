"""Known-answer tests of the rank-normalised split-R-hat and bulk ESS.

Run with ``python3 -m pytest perfbench``.
"""

import numpy as np
import pytest

from perfbench.ess import bulk_ess, split_rhat


def ar1_chains(phi: float, chains: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((chains, n))
    x = np.empty((chains, n))
    x[:, 0] = e[:, 0] / np.sqrt(1.0 - phi * phi)
    for t in range(1, n):
        x[:, t] = phi * x[:, t - 1] + e[:, t]
    return x


@pytest.mark.parametrize("phi", [0.5, 0.8])
def test_ar1_ess_matches_closed_form(phi):
    chains, n = 4, 5000
    x = ar1_chains(phi, chains, n, seed=1)
    want = chains * n * (1.0 - phi) / (1.0 + phi)
    assert bulk_ess(x) == pytest.approx(want, rel=0.15)
    assert split_rhat(x) < 1.01


def test_iid_draws_have_ess_near_n():
    x = np.random.default_rng(2).standard_normal((4, 2000))
    assert bulk_ess(x) == pytest.approx(x.size, rel=0.1)
    assert split_rhat(x) < 1.01


def test_ess_is_invariant_to_monotone_transforms():
    x = ar1_chains(0.5, 2, 2000, seed=3)
    assert bulk_ess(np.exp(x)) == pytest.approx(bulk_ess(x), rel=1e-12)


def test_shifted_chains_have_rhat_well_above_one():
    x = np.random.default_rng(4).standard_normal((2, 1000))
    x[1] += 1.0
    assert split_rhat(x) > 1.1
    assert bulk_ess(x) < 0.2 * x.size


def test_trending_chain_is_caught_by_the_split():
    n = 1000
    x = np.random.default_rng(5).standard_normal((2, n)) + np.linspace(0.0, 3.0, n)
    assert split_rhat(x) > 1.1


def test_constant_draws_give_nan():
    x = np.full((2, 100), 0.3)
    assert np.isnan(bulk_ess(x))
    assert np.isnan(split_rhat(x))
