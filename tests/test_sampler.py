import logging

import numpy as np
import pytest

from lsgt.data import TimeSeries
from lsgt.errors import DegenerateSeriesError
from lsgt.model import HOMOSCEDASTIC, NON_SEASONAL, SEASONAL, PriorConfig, SeasonalPrior
from lsgt.rng import RngStream
from lsgt.sampler import SamplerConfig, effective_prior, fit
from lsgt.synth import default_params, generate_series, rank_uniformity_pvalue

from .helpers import TEST_NU_GRID_SIZE, make_prior

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def synthetic_series(seed=11, T=40, m=1, seasonal=False, **param_overrides):
    params = default_params(m=m, model_kind=SEASONAL if seasonal else NON_SEASONAL, T=T)
    for k, v in param_overrides.items():
        setattr(params, k, v)
    prior = make_prior(seasonal=seasonal)
    rng = RngStream(seed, 0).generator()
    return generate_series(rng, params, prior, T=T, y1=40.0), params


def draws_equal(a, b):
    scalar_fields = ("nu", "gamma", "rho", "lam", "alpha", "beta", "zeta", "chi2",
                     "phi", "tau", "b1", "xi_gamma2", "xi_lambda2", "xi_b1_2",
                     "delta2", "eta_delta")
    for f in scalar_fields:
        if getattr(a, f) != getattr(b, f):
            return False
    for f in ("log_s_init", "omega2", "psi2", "eta_s"):
        if not np.array_equal(getattr(a, f), getattr(b, f)):
            return False
    return True


def small_cfg(**overrides):
    base = dict(iterations=120, burn_in=60, chains=2, seed=7)
    base.update(overrides)
    return SamplerConfig(**base)


def test_fixed_seed_bit_identical():
    series, _ = synthetic_series()
    prior = make_prior()
    s1 = fit(series, prior, small_cfg())
    s2 = fit(series, prior, small_cfg())
    assert len(s1.draws) == len(s2.draws) == 120
    assert all(draws_equal(a, b) for a, b in zip(s1.draws, s2.draws))


def test_different_seed_differs():
    series, _ = synthetic_series()
    prior = make_prior()
    s1 = fit(series, prior, small_cfg())
    s2 = fit(series, prior, small_cfg(seed=8))
    assert not all(draws_equal(a, b) for a, b in zip(s1.draws, s2.draws))


def test_every_draw_satisfies_invariants():
    series, _ = synthetic_series(seasonal=True, m=4, T=44)
    samples = fit(series, make_prior(seasonal=True), small_cfg())
    for d in samples.draws:
        d.validate()
        assert abs(float(np.sum(d.log_s_init))) <= 1e-12


def test_burn_in_count():
    series, _ = synthetic_series()
    samples = fit(series, make_prior(), small_cfg(iterations=100, burn_in=40, chains=1))
    assert len(samples.draws) == 60


def test_homoscedastic_keeps_phi_one():
    series, _ = synthetic_series()
    samples = fit(series, make_prior(hetero=False), small_cfg(chains=1))
    assert all(d.phi == 1.0 for d in samples.draws)


def test_grid_parameters_stay_on_grid():
    series, _ = synthetic_series()
    prior = make_prior()
    samples = fit(series, prior, small_cfg(chains=1))
    from lsgt.sampler import make_grids

    grids = make_grids(prior)
    for d in samples.draws:
        assert d.nu in grids.nu
        assert d.rho in grids.rho
        assert d.tau in grids.tau
        assert d.phi in grids.phi
        assert -100.0 <= d.lam <= 1.0
        assert -100.0 < d.b1 < 1.0


def test_acceptance_rate_in_band():
    series, _ = synthetic_series(T=50)
    samples = fit(series, make_prior(), SamplerConfig(iterations=1200, burn_in=600, chains=1, seed=5))
    rate = samples.diagnostics[0].accept_rate_smoothing
    assert 0.4 <= rate <= 0.7


def test_gamma_recovery_pure_level():
    # level-only data: the trend coefficient posterior should cover zero
    series, _ = synthetic_series(seed=21, T=60, gamma=0.0, lam=0.0, b1=0.0, chi2=4.0)
    samples = fit(series, make_prior(), SamplerConfig(iterations=600, burn_in=300, chains=1, seed=9))
    g = samples.parameter_array("gamma")
    assert abs(g.mean()) <= 2.0 * g.std()


def test_seasonal_fallback_warns(caplog):
    short = TimeSeries(id="short", values=tuple(float(v + 1) for v in range(7)), m=4, h=2)
    prior_eff, m_eff = None, None
    with caplog.at_level(logging.WARNING):
        prior_eff, m_eff = effective_prior(short, make_prior(seasonal=True))
    assert m_eff == 1
    assert prior_eff.model_kind == NON_SEASONAL
    assert any("non-seasonal" in r.message for r in caplog.records)


def test_constant_series_degenerate():
    const = TimeSeries(id="flat", values=(5.0,) * 12, m=1, h=2)
    with pytest.raises(DegenerateSeriesError) as err:
        fit(const, make_prior(), small_cfg())
    assert "flat" in str(err.value)


def test_seasonal_cauchy_prior_runs():
    series, _ = synthetic_series(seasonal=True, m=4, T=40)
    prior = make_prior(seasonal=True, seasonal_prior="cauchy:1.0")
    samples = fit(series, prior, small_cfg(chains=1))
    # shrinkage hierarchy untouched under the cauchy prior
    assert all(np.all(d.psi2 == 1.0) for d in samples.draws)


@pytest.mark.slow
def test_lambda_b1_recovery_coverage():
    # simulate with known trend parameters and enough level movement that
    # the smoothed trend fluctuates (a constant trend only identifies the
    # product of coefficient and initial value); the 90% credible interval
    # should cover the truth in most replications
    hits_lam = 0
    hits_b1 = 0
    n_rep = 50
    for rep in range(n_rep):
        params = default_params(T=120)
        params.lam = 0.8
        params.b1 = 0.4
        params.gamma = 0.0
        params.beta = 0.5
        params.alpha = 0.95
        params.chi2 = 1.0
        params.nu = 30.0
        params.phi = 1.0
        prior = make_prior()
        series = generate_series(RngStream(2900 + rep, 0).generator(), params, prior, T=120, y1=80.0)
        samples = fit(series, prior, SamplerConfig(iterations=500, burn_in=250, chains=1, seed=rep))
        lam = samples.parameter_array("lam")
        b1 = samples.parameter_array("b1")
        if np.quantile(lam, 0.05) <= 0.8 <= np.quantile(lam, 0.95):
            hits_lam += 1
        if np.quantile(b1, 0.05) <= 0.4 <= np.quantile(b1, 0.95):
            hits_b1 += 1
    assert hits_lam >= 0.8 * n_rep
    assert hits_b1 >= 0.8 * n_rep


def test_rank_uniformity_rejects_ranks_outside_support():
    ranks = np.arange(21)  # 20 kept draws give ranks 0..20
    assert rank_uniformity_pvalue(ranks, 20, 13) > 0.99
    with pytest.raises(ValueError, match="outside 0..19"):
        rank_uniformity_pvalue(ranks, 19, 13)
    with pytest.raises(ValueError, match="outside 0..20"):
        rank_uniformity_pvalue(ranks - 1, 20, 13)
