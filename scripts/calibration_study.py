#!/usr/bin/env python3
"""Simulation-based calibration of the sampler at configurable scale.

Usage:
    python scripts/calibration_study.py [n_replications] [iterations] [seed]

Draws parameters from the priors, simulates series, refits them and prints
rank-uniformity p-values for the level smoothing weight, the trend
coefficient and the error variance.
"""

import sys

import numpy as np

from lsgt.model import HOMOSCEDASTIC, NON_SEASONAL, PriorConfig
from lsgt.synth import rank_uniformity_pvalue, run_sbc


def main() -> int:
    n_rep = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    iters = int(sys.argv[2]) if len(sys.argv) > 2 else 500
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 505
    prior = PriorConfig(
        model_kind=NON_SEASONAL,
        variance_mode=HOMOSCEDASTIC,
        s_gamma=0.5,
        s_lambda=1.0,
        s_b1=0.5,
        chi2_prior=(3.0, 2.0),
        nu_grid_size=12,
    )
    thin = max(1, (iters // 2) // 25)
    ranks = run_sbc(n_replications=n_rep, T=40, iterations=iters, seed=seed,
                    prior=prior, thin=thin, burn_in=iters * 3 // 5)
    n_kept = len(range(0, iters - iters * 3 // 5, thin))
    print(f"{n_rep} replications, {iters} iterations, {n_kept} kept draws per fit")
    for name, r in ranks.items():
        p = rank_uniformity_pvalue(r, n_kept, 13)
        hist, _ = np.histogram(r, bins=np.linspace(0, n_kept, 14))
        print(f"{name:>6}: p = {p:.3f}   ranks {hist}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
