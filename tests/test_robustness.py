"""Fit then forecast on awkward but valid series: finite forecasts or a typed error.

The recursions, likelihood and gradients run on Python floats, which raise
``ZeroDivisionError``/``OverflowError`` where float64 scalars would give
inf or nan.  These cases reach those error paths; none may escape as
anything but an ``LsgtError``.
"""

import numpy as np
import pytest

from lsgt.data import TimeSeries
from lsgt.errors import LsgtError
from lsgt.forecast import simulate_paths
from lsgt.model import HETEROSCEDASTIC, HOMOSCEDASTIC, NON_SEASONAL, SEASONAL, PriorConfig
from lsgt.rng import RngStream
from lsgt.sampler import SamplerConfig, fit

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

_noise = np.random.default_rng(3).uniform(0.9, 1.1, size=24)

# (id, values, m); m > 1 asks for the seasonal model
ADVERSARIAL = [
    ("T3", (10.0, 12.0, 11.0), 1),
    ("T5", (10.0, 12.0, 11.0, 13.0, 12.0), 1),
    ("flat", (5.0,) * 12, 1),
    ("tiny", tuple(1e-8 * _noise[:15]), 1),
    ("huge", tuple(1e12 * _noise[:15]), 1),
    ("ramp20", tuple(np.geomspace(1e-6, 1e14, 21)), 1),
    ("spikes", tuple(5.0 * _noise[:20] + np.where(np.arange(20) % 7 == 3, 5e6, 0.0)), 1),
    ("drop", (1e6,) * 8 + (1e-6,) * 8, 1),
    ("pattern4", (1.0, 2.0, 3.0, 4.0) * 2, 4),
    ("pattern12", tuple(float(v) for v in range(1, 13)) * 2, 12),
]


def fit_and_forecast(values, m, variance_mode, iterations=60):
    series = TimeSeries(id="adv", values=values, m=m, h=3)
    prior = PriorConfig(
        model_kind=SEASONAL if m > 1 else NON_SEASONAL,
        variance_mode=variance_mode,
        nu_grid_size=10,
    )
    samples = fit(series, prior, SamplerConfig(iterations=iterations, burn_in=iterations // 2, seed=5))
    rng = RngStream(5, stream=1).generator()
    return samples, simulate_paths(samples, series, h=series.h, rng=rng)


def assert_finite_forecast(result):
    assert np.all(np.isfinite(result.point))
    assert np.all(np.isfinite(result.mean))
    for q in result.quantiles.values():
        assert np.all(np.isfinite(q))


@pytest.mark.parametrize("variance_mode", [HETEROSCEDASTIC, HOMOSCEDASTIC])
@pytest.mark.parametrize("name,values,m", ADVERSARIAL, ids=[c[0] for c in ADVERSARIAL])
def test_fit_forecast_finite_or_typed_error(name, values, m, variance_mode):
    try:
        _, result = fit_and_forecast(values, m, variance_mode)
    except LsgtError:
        return
    assert_finite_forecast(result)


@pytest.mark.parametrize("m", [4, 12])
def test_repeating_pattern_two_periods_fits(m):
    # the seed-factor MH proposes seeds whose level seed y[0]/exp(s0)
    # overflows; that proposal must be rejected, not crash the fit
    values = tuple(float(v) for v in range(1, m + 1)) * 2
    samples, result = fit_and_forecast(values, m, HETEROSCEDASTIC, iterations=200)
    assert samples.prior.model_kind == SEASONAL
    assert_finite_forecast(result)
