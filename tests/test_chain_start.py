"""A chain's start: the paths of its variant's fused pass at the first draw.

Non-seasonal chains start from the collapsed pass (``smoothing_marginal``)
with the forecast formed from the draw's (gamma, lam); seasonal chains from
``seasonal_forward``.  Both must equal the reference recursion bit for bit.
A start that the pass refuses fails its chain with a typed error, which
``fit`` records per chain and the benchmark records per series.
"""

import numpy as np
import pytest

from lsgt import sampler
from lsgt.data import TimeSeries, serialize_collection
from lsgt.errors import DegenerateSeriesError
from lsgt.harness import RunConfig, run_benchmark
from lsgt.model import ParameterDraw
from lsgt.rng import RngStream
from lsgt.sampler import ChainState, SamplerConfig, fit, make_grids
from lsgt.synth import default_params, generate_series

from .helpers import TEST_NU_GRID_SIZE, make_prior, random_state, reference_paths
from .test_sampler import draws_equal

PATH_FIELDS = ("l", "b", "log_s", "yhat", "sigma2hat", "e")


def assert_start_is_the_reference(state):
    want = reference_paths(state.y, state.theta, state.prior)
    assert want is not None
    for name in PATH_FIELDS:
        assert np.array_equal(getattr(state.paths, name), getattr(want, name)), name
    assert state.paths.clamp_events == state.clamp_events == want.clamp_events
    return want.clamp_events


@pytest.mark.parametrize("hetero", [False, True], ids=["homoscedastic", "heteroscedastic"])
def test_lgt_start_equals_the_reference(rng, hetero):
    for _ in range(6):
        assert_start_is_the_reference(random_state(rng, T=int(rng.integers(4, 45)), hetero=hetero))


def test_lgt_start_with_floored_levels_equals_the_reference(rng):
    # the level decays from 30 to far below LEVEL_FLOOR at these weights
    state = random_state(rng, T=24, hetero=True, rho=-0.5, tau=0.2, alpha=0.9)
    y = np.concatenate([[30.0, 28.0, 25.0], np.full(21, 1e-14) * (1.0 + 0.1 * rng.random(21))])
    floored = ChainState(y, state.prior, state.theta, state.prior.resolved_scales(y), state.grids)
    assert assert_start_is_the_reference(floored) > 0


@pytest.mark.parametrize("m", [2, 4, 12])
def test_sgt_start_equals_the_reference(rng, m):
    for hetero in (False, True):
        for _ in range(3):
            T = 2 * m + int(rng.integers(0, 30))
            assert_start_is_the_reference(random_state(rng, T=T, seasonal=True, m=m, hetero=hetero))


def refused_draw(T, m=1):
    """A draw whose scale overflows on a series of order 1e200, and whose trend would."""
    return ParameterDraw(nu=6.0, gamma=1e308, rho=1.0, lam=0.0, alpha=0.35, beta=0.25, zeta=0.4,
                         chi2=1e308, phi=0.0, tau=1.0, b1=0.3, log_s_init=np.zeros(m),
                         omega2=np.ones(T - 1))


HUGE = np.array([1.0, 2.0, 3.0, 4.0, 2.0, 3.0, 4.0, 1.0]) * 1e200


@pytest.mark.parametrize("m", [1, 2])
def test_refused_start_is_a_degenerate_series(m):
    prior = make_prior(seasonal=m > 1)
    theta = refused_draw(len(HUGE), m)
    assert reference_paths(HUGE, theta, prior) is None
    with pytest.raises(DegenerateSeriesError, match="starting draw gives no finite"):
        ChainState(HUGE, prior, theta, prior.resolved_scales(HUGE), make_grids(prior))


def test_fit_records_a_refused_start_per_chain(monkeypatch, caplog):
    huge = TimeSeries(id="huge", values=tuple(HUGE.tolist()), m=1, h=2)
    monkeypatch.setattr(sampler, "initial_draw", lambda y, m, prior, grids: refused_draw(len(y)))
    cfg = SamplerConfig(iterations=20, burn_in=10, chains=2, seed=7)
    with pytest.raises(DegenerateSeriesError, match="all chains failed"):
        fit(huge, make_prior(), cfg)
    failed = [r.getMessage() for r in caplog.records if "failed" in r.getMessage()]
    assert len(failed) == 2 and all("starting draw gives no finite" in msg for msg in failed)


def test_refused_start_fails_its_chain_only(monkeypatch):
    # on a series of order 40 the scale chi2 * l^2 overflows at the same draw
    params = default_params(T=30)
    series = generate_series(RngStream(11, 0).generator(), params, make_prior(), T=30, y1=40.0)
    cfg = SamplerConfig(iterations=20, burn_in=10, chains=2, seed=7)
    alone = fit(series, make_prior(), SamplerConfig(iterations=20, burn_in=10, chains=1, seed=7))
    first_draw = sampler.initial_draw
    calls = []

    def refused_in_chain_1(y, m, prior, grids):
        calls.append(None)
        return refused_draw(len(y)) if len(calls) == 2 else first_draw(y, m, prior, grids)

    monkeypatch.setattr(sampler, "initial_draw", refused_in_chain_1)
    samples = fit(series, make_prior(), cfg)
    assert samples.diagnostics[0].error is None
    assert "starting draw gives no finite" in samples.diagnostics[1].error
    assert len(samples.draws) == len(alone.draws) == 10
    assert all(draws_equal(a, b) for a, b in zip(samples.draws, alone.draws))


def test_benchmark_records_a_refused_start_as_an_error(tmp_path, monkeypatch):
    params = default_params(T=12)
    good = generate_series(RngStream(40, 0).generator(), params, make_prior(), T=12,
                           series_id="good", h=2, y1=40.0)
    huge = TimeSeries(id="huge", values=tuple(HUGE.tolist()), m=1, h=2)
    serialize_collection([huge, good], tmp_path / "c.json")
    first_draw = sampler.initial_draw

    def refused_on_huge(y, m, prior, grids):
        return refused_draw(len(y)) if y.max() > 1e100 else first_draw(y, m, prior, grids)

    monkeypatch.setattr(sampler, "initial_draw", refused_on_huge)
    summary = run_benchmark(RunConfig(input_path=str(tmp_path / "c.json"), out_dir=str(tmp_path / "out"),
                                      iterations=20, burn_in=10, chains=2, seed=3,
                                      nu_grid_size=TEST_NU_GRID_SIZE))
    assert [e["id"] for e in summary.errors] == ["huge"]
    assert "all chains failed" in summary.errors[0]["error"]
    assert [r.series_id for r in summary.records] == ["good"]
