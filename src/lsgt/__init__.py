"""Bayesian exponential smoothing with local and global trends.

A unified seasonal/non-seasonal multiplicative exponential smoothing model
with a power-law global trend, Student-t errors and a level-dependent error
scale, fitted by a bespoke Gibbs sampler (conjugate scale-mixture updates,
grid sampling for the power and shape parameters, gradient-assisted MH for
the smoothing weights and seasonal seeds) and evaluated with the standard
competition metrics.
"""

from .data import TimeSeries, TrainTestSplit, load_collection, serialize_collection, split
from .forecast import ForecastResult, simulate_paths
from .harness import RunConfig, RunSummary, emit_report, run_benchmark
from .metrics import EvalRecord, coverage_flags, mase, msis, smape
from .model import ParameterDraw, PriorConfig, SeasonalPrior
from .rng import RngStream
from .sampler import PosteriorSamples, SamplerConfig, fit

__all__ = [
    "TimeSeries",
    "TrainTestSplit",
    "load_collection",
    "serialize_collection",
    "split",
    "ForecastResult",
    "simulate_paths",
    "RunConfig",
    "RunSummary",
    "emit_report",
    "run_benchmark",
    "EvalRecord",
    "coverage_flags",
    "mase",
    "msis",
    "smape",
    "ParameterDraw",
    "PriorConfig",
    "SeasonalPrior",
    "RngStream",
    "PosteriorSamples",
    "SamplerConfig",
    "fit",
]

__version__ = "0.1.0"
