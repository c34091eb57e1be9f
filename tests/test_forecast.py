from dataclasses import replace

import numpy as np
import pytest

from lsgt.data import TimeSeries
from lsgt.errors import ForecastError
from lsgt.forecast import simulate_paths
from lsgt.model import NON_SEASONAL, SEASONAL, EndState, ParameterDraw, PriorConfig
from lsgt.rng import RngStream
from lsgt.sampler import SamplerConfig, fit
from lsgt.synth import default_params, generate_series

from .helpers import make_prior, posterior_samples, reference_trend


def make_draw(T, m=1, **overrides):
    base = dict(
        nu=8.0, gamma=0.2, rho=0.5, lam=0.4, alpha=0.4, beta=0.3, zeta=0.3,
        chi2=0.5, phi=0.8, tau=0.3, b1=0.2,
        log_s_init=np.zeros(m), omega2=np.ones(T - 1),
    )
    base.update(overrides)
    return ParameterDraw(**base)


def make_samples(draws, series, prior=None, m=1):
    return posterior_samples(draws, prior or make_prior(), series.values, m=m)


@pytest.fixture
def series():
    rng = RngStream(3, 0).generator()
    values = np.cumsum(np.abs(rng.normal(1.0, 0.2, size=30))) + 20.0
    return TimeSeries(id="f", values=tuple(values), m=1, h=6)


def test_deterministic_under_seed(series):
    samples = make_samples([make_draw(series.length) for _ in range(10)], series)
    a = simulate_paths(samples, series, h=6, rng=RngStream(9, 0).generator(), seed=9)
    b = simulate_paths(samples, series, h=6, rng=RngStream(9, 0).generator(), seed=9)
    assert np.array_equal(a.point, b.point)
    for q in a.quantiles:
        assert np.array_equal(a.quantiles[q], b.quantiles[q])
    c = simulate_paths(samples, series, h=6, rng=RngStream(10, 0).generator(), seed=10)
    assert not np.array_equal(a.point, c.point)


def test_quantile_monotonicity_and_interval_nesting(series, rng):
    draws = [make_draw(series.length, gamma=float(rng.normal(0, 0.3)),
                       chi2=float(np.exp(rng.normal(0, 0.5)))) for _ in range(40)]
    samples = make_samples(draws, series)
    res = simulate_paths(samples, series, h=6, rng=RngStream(4, 0).generator(), seed=4)
    levels = sorted(res.quantiles)
    for lo, hi in zip(levels[:-1], levels[1:]):
        assert np.all(res.quantiles[lo] <= res.quantiles[hi])
    assert np.all(res.point >= res.quantiles[0.01]) and np.all(res.point <= res.quantiles[0.99])
    wide = res.quantiles[0.99] - res.quantiles[0.01]
    narrow = res.quantiles[0.95] - res.quantiles[0.05]
    assert np.all(wide >= narrow)
    lo, hi = res.interval(0.9)
    assert np.array_equal(lo, res.quantiles[0.05])
    assert np.array_equal(hi, res.quantiles[0.95])


def test_noiseless_limit_collapses(series):
    draw = make_draw(series.length, chi2=1e-12, gamma=0.0, lam=0.0, phi=1.0)
    samples = make_samples([draw], series)
    res = simulate_paths(samples, series, h=4, paths_per_draw=3,
                         rng=RngStream(5, 0).generator(), seed=5)
    level = series.values[-1] * draw.alpha + 0.0  # not the exact level; just sanity below
    assert np.max(res.quantiles[0.95] - res.quantiles[0.05]) < 1e-3
    assert np.allclose(res.point, res.mean, atol=1e-3)
    # with no trend and no noise every horizon equals the terminal level
    assert np.max(np.abs(res.point - res.point[0])) < 1e-3


def test_seasonal_m1_equals_non_seasonal_pipeline(series):
    # unit seasonal factors, zero-effect smoothing: both pipelines must
    # produce identical paths given identical draws and seeds
    draw_s = make_draw(series.length, m=1, lam=0.0, zeta=1e-300)
    draw_n = make_draw(series.length, m=1, lam=0.0, zeta=1e-300)
    seas = simulate_paths(make_samples([draw_s], series, prior=make_prior(seasonal=True), m=1),
                          series, h=5, rng=RngStream(6, 0).generator(), seed=6)
    nons = simulate_paths(make_samples([draw_n], series, prior=make_prior(seasonal=False), m=1),
                          series, h=5, rng=RngStream(6, 0).generator(), seed=6)
    assert np.array_equal(seas.point, nons.point)
    for q in seas.quantiles:
        assert np.array_equal(seas.quantiles[q], nons.quantiles[q])


def test_floor_policy_counts(series):
    # noise scaled to twice the level at every step keeps each draw a coin
    # flip, so a fully positive 8-step path is rare enough that the retry
    # cap trips and the floor engages
    draw = make_draw(series.length, gamma=-0.99, rho=1.0, lam=0.0,
                     phi=0.0, tau=1.0, chi2=4.0, nu=2.0)
    samples = make_samples([draw], series)
    res = simulate_paths(samples, series, h=8, paths_per_draw=4,
                         rng=RngStream(7, 0).generator(), seed=7)
    assert res.floor_events > 0
    assert res.n_paths == 4
    for q in res.quantiles.values():
        assert np.all(np.isfinite(q))


def test_forecast_errors(series):
    samples = make_samples([], series)
    with pytest.raises(ForecastError):
        simulate_paths(samples, series, h=3)
    samples = make_samples([make_draw(series.length)], series)
    with pytest.raises(ForecastError):
        simulate_paths(samples, series, h=0)
    with pytest.raises(ForecastError):
        simulate_paths(samples, series, h=2, levels=(0.0, 0.5))


@pytest.mark.parametrize("m", [1, 12], ids=["yearly", "monthly"])
def test_forecast_from_end_states_equals_rerunning_the_recursion(m):
    # the fit saves each kept draw's end state; forecasting from it must give
    # the bytes of a forecast whose end states re-run the recursion per draw
    kind = SEASONAL if m > 1 else NON_SEASONAL
    prior = make_prior(seasonal=m > 1)
    T, h = (30, 6) if m == 1 else (60, 18)
    full = generate_series(RngStream(21, 0).generator(), default_params(m=m, model_kind=kind, T=T),
                           prior, T, h=h)
    series = TimeSeries(id="e", values=full.values, m=m, h=h)
    fitted = fit(series, prior, SamplerConfig(iterations=40, burn_in=20, chains=2, seed=3))
    rerun = make_samples(fitted.draws, series, prior=fitted.prior, m=fitted.m)
    a = simulate_paths(fitted, series, h=h, rng=RngStream(5, 0).generator(), seed=5)
    b = simulate_paths(rerun, series, h=h, rng=RngStream(5, 0).generator(), seed=5)
    assert a.point.tobytes() == b.point.tobytes()
    assert a.mean.tobytes() == b.mean.tobytes()
    assert a.quantiles.keys() == b.quantiles.keys()
    for q in a.quantiles:
        assert a.quantiles[q].tobytes() == b.quantiles[q].tobytes()

    if m > 1:
        # a seasonal fit keeps no trend path, and its end states carry a trend
        # of 0; lam = 0 multiplies the trend away, so a forecast rolled on from
        # the reference recursion's trend has the same bytes
        assert all(end.b == 0.0 for end in fitted.ends)
        trended = replace(fitted, ends=[
            EndState(T=end.T, l=end.l, log_s=end.log_s,
                     b=float(reference_trend(series.values, theta, fitted.prior)[-1]))
            for theta, end in zip(fitted.draws, fitted.ends)])
        assert all(end.b != 0.0 for end in trended.ends)
        c = simulate_paths(trended, series, h=h, rng=RngStream(5, 0).generator(), seed=5)
        assert a.point.tobytes() == c.point.tobytes()
        assert a.mean.tobytes() == c.mean.tobytes()
        for q in a.quantiles:
            assert a.quantiles[q].tobytes() == c.quantiles[q].tobytes()

    shorter = TimeSeries(id="e", values=full.values[:-1], m=m, h=h)
    with pytest.raises(ForecastError):
        simulate_paths(fitted, shorter, h=h, rng=RngStream(5, 0).generator())


def test_seasonal_forecast_rolls_factors():
    rng = RngStream(8, 0).generator()
    m = 4
    T = 24
    seeds = np.array([0.3, -0.1, 0.05, 0.0])
    seeds[-1] = -float(np.sum(seeds[:-1]))
    base = np.cumsum(np.abs(rng.normal(0.5, 0.1, size=T))) + 10.0
    values = base * np.exp(np.tile(seeds, T // m))
    series = TimeSeries(id="s", values=tuple(values), m=m, h=8)
    draw = make_draw(T, m=m, log_s_init=seeds, lam=0.0, zeta=0.2, chi2=1e-10, phi=1.0)
    samples = make_samples([draw], series, prior=make_prior(seasonal=True), m=m)
    res = simulate_paths(samples, series, h=8, rng=RngStream(9, 0).generator(), seed=9)
    # horizons a full period apart share the seasonal direction: their ratio
    # pattern repeats approximately
    r1 = res.point[:4] / np.mean(res.point[:4])
    r2 = res.point[4:] / np.mean(res.point[4:])
    assert np.all(np.sign(np.log(r1)) == np.sign(np.log(r2)))


@pytest.mark.slow
def test_interval_coverage_calibration():
    # series simulated from known parameters; after fitting, the 90%
    # interval should cover future points at close to its nominal rate
    from lsgt.sampler import SamplerConfig, fit
    from lsgt.synth import default_params, generate_series

    n_series = 200
    h = 4
    covered = 0
    total = 0
    for rep in range(n_series):
        params = default_params(T=44 + h)
        params.gamma = 0.4
        params.lam = 0.3
        params.chi2 = 1.5
        params.nu = 12.0
        prior = make_prior()
        full = generate_series(RngStream(7000 + rep, 0).generator(), params, prior,
                               T=44 + h, y1=40.0)
        train = TimeSeries(id=full.id, values=full.values[:44], m=1, h=h)
        test = np.asarray(full.values[44:])
        samples = fit(train, prior, SamplerConfig(iterations=400, burn_in=200, chains=1, seed=rep))
        res = simulate_paths(samples, train, h=h, paths_per_draw=2,
                             rng=RngStream(7000 + rep, 1).generator(), seed=rep)
        lo, hi = res.interval(0.9)
        covered += int(np.sum((test >= lo) & (test <= hi)))
        total += h
    rate = covered / total
    assert 0.85 <= rate <= 0.95
