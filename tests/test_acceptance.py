"""Acceptance suite: one test per acceptance criterion, stated tolerances.

Each test prints a single PASS line (run with ``pytest -s`` to see them all
even on success).  Criterion 7 needs a local copy of the yearly benchmark
collection and is skipped when the ``LSGT_M3_YEARLY`` environment variable
does not point at one.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import halfcauchy, kstest
from scipy.stats import t as t_dist

from lsgt.data import TimeSeries, load_collection, serialize_collection
from lsgt.dists import build_nu_grid, sample_inverse_gamma
from lsgt.gradients import seasonal_gradient
from lsgt.harness import RunConfig, run_benchmark
from lsgt.model import (
    HOMOSCEDASTIC,
    NON_SEASONAL,
    SEASONAL,
    LEVEL_FLOOR,
    PriorConfig,
    SeasonalPrior,
    effective_lam,
    negative_log_likelihood,
)
from lsgt.metrics import coverage_flags, mase, msis, smape
from lsgt.rng import RngStream
from lsgt.sampler import (
    SamplerConfig,
    b1_conditional,
    chi2_conditional,
    delta2_conditional,
    eta_delta_conditional,
    eta_s_conditional,
    fit,
    gamma_conditional,
    lambda_conditional,
    omega2_conditional,
    psi2_conditional,
)
from lsgt.synth import default_params, generate_series, rank_uniformity_pvalue, run_sbc

from .helpers import make_prior, random_state, reference_paths
from .oracles import (
    fd_gradient,
    ig_moments,
    ig_reciprocal_moments,
    quad_moments_positive,
    quad_moments_real,
)
from .test_gradients import random_series, random_theta


def report(criterion, detail, t0):
    print(f"ACCEPTANCE {criterion}: PASS ({time.time() - t0:.1f}s) {detail}")


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_correctness():
    t0 = time.time()
    rng = np.random.Generator(np.random.Philox(1001))
    rel = 1e-4

    cfg_s = PriorConfig(model_kind=SEASONAL)
    worst_smoothing = 0.0
    for _ in range(20):
        m = int(rng.integers(2, 7))
        T = int(rng.integers(2 * m + 4, 60))
        y = random_series(rng, T)
        theta = random_theta(rng, T, m=m)
        paths = reference_paths(y, theta, cfg_s)
        grad = seasonal_gradient(y, theta, cfg_s, paths)[:2]

        def f(x):
            trial = theta.copy()
            trial.alpha, trial.zeta = float(x[0]), float(x[1])
            return negative_log_likelihood(reference_paths(y, trial, cfg_s), theta.nu)

        fd = fd_gradient(f, [theta.alpha, theta.zeta], h=1e-6)
        err = float(np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-3)))
        worst_smoothing = max(worst_smoothing, err)
        assert err < rel

    worst_seasonal = 0.0
    for _ in range(20):
        m = int(rng.integers(2, 7))
        T = int(rng.integers(2 * m + 4, 60))
        y = random_series(rng, T)
        theta = random_theta(rng, T, m=m)
        paths = reference_paths(y, theta, cfg_s)
        grad = seasonal_gradient(y, theta, cfg_s, paths)[2:]

        def g(free):
            trial = theta.copy()
            trial.log_s_init = np.append(free, -float(np.sum(free)))
            return negative_log_likelihood(reference_paths(y, trial, cfg_s), theta.nu)

        fd = fd_gradient(g, theta.log_s_init[: m - 1], h=1e-6)
        err = float(np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-3)))
        worst_seasonal = max(worst_seasonal, err)
        assert err < rel

    elapsed = time.time() - t0
    assert elapsed < 10.0
    report("1 gradient-correctness",
           f"worst rel err smoothing {worst_smoothing:.2e}, seasonal {worst_seasonal:.2e}", t0)


# ---------------------------------------------------------------------------
# 2. conjugate-update correctness
# ---------------------------------------------------------------------------

def _assert_ig_matches(log_density, shape, scale, rel=1e-3):
    """Quadrature mean/variance against the analytic inverse-gamma conditional.

    Direct moments where they exist (shape > 2), reciprocal moments always.
    """
    mean_a, var_a = ig_moments(shape, scale)
    if var_a is not None:
        mean_q, var_q = quad_moments_positive(log_density)
        assert mean_q == pytest.approx(mean_a, rel=rel)
        assert var_q == pytest.approx(var_a, rel=rel)
    rmean_q, rvar_q = quad_moments_positive(log_density, transform=lambda x: 1.0 / x)
    rmean_a, rvar_a = ig_reciprocal_moments(shape, scale)
    assert rmean_q == pytest.approx(rmean_a, rel=rel)
    assert rvar_q == pytest.approx(rvar_a, rel=rel)


def test_criterion_2_conjugate_correctness():
    t0 = time.time()
    rng = np.random.Generator(np.random.Philox(2002))
    rel = 1e-3

    # error variance (shape (T-1)/2 = 5 at T=11: direct + reciprocal)
    state = random_state(rng, T=11)
    th = state.theta
    lp = np.maximum(state.paths.l[:-1], LEVEL_FLOOR)
    g_t = th.phi ** 2 + (1.0 - th.phi) ** 2 * lp ** (2.0 * th.tau)
    e = state.paths.e
    om = th.omega2
    n = e.shape[0]
    shape, scale = chi2_conditional(state)
    _assert_ig_matches(
        lambda x: -math.log(x) - 0.5 * n * math.log(x)
        + float(np.sum(-e ** 2 / (2.0 * x * g_t * om))),
        shape, scale, rel,
    )

    # t-mixture variance at one step (nu=6: shape 3.5)
    j = 2
    shape, scale_vec = omega2_conditional(state)
    e_j, s2_j, nu = float(e[j]), float(state.paths.sigma2hat[j]), th.nu
    _assert_ig_matches(
        lambda w: -0.5 * math.log(w) - e_j ** 2 / (2.0 * s2_j * w)
        - (0.5 * nu + 1.0) * math.log(w) - nu / (2.0 * w),
        shape, float(scale_vec[j]), rel,
    )

    # trend coefficients: conjugate normals against direct integration
    lam_eff = effective_lam(th, state.prior)
    sig2 = th.omega2 * state.paths.sigma2hat
    yy = state.y[1:]

    x_g = lp ** th.rho
    c_g = state.paths.l[:-1] + lam_eff * state.paths.b[:-1]
    a_app = state.a_app
    pv_g = th.xi_gamma2 * state.s_gamma ** 2
    mu, var = gamma_conditional(state)
    mean_q, var_q = quad_moments_real(
        lambda w: float(np.sum(-(yy - (w * x_g + c_g) * a_app) ** 2 / (2.0 * sig2)))
        - w ** 2 / (2.0 * pv_g)
    )
    assert mean_q == pytest.approx(mu, rel=rel, abs=1e-9)
    assert var_q == pytest.approx(var, rel=rel)

    x_l = state.paths.b[:-1]
    c_l = state.paths.l[:-1] + th.gamma * lp ** th.rho
    pv_l = th.xi_lambda2 * state.s_lambda ** 2
    mu, var = lambda_conditional(state)
    mean_q, var_q = quad_moments_real(
        lambda w: float(np.sum(-(yy - (w * x_l + c_l)) ** 2 / (2.0 * sig2)))
        - w ** 2 / (2.0 * pv_l)
    )
    assert mean_q == pytest.approx(mu, rel=rel, abs=1e-9)
    assert var_q == pytest.approx(var, rel=rel)

    x_b = th.lam * np.power(1.0 - th.beta, np.arange(state.T - 1, dtype=float))
    c_b = state.paths.yhat - x_b * th.b1
    pv_b = th.xi_b1_2 * state.s_b1 ** 2
    mu, var = b1_conditional(state)
    mean_q, var_q = quad_moments_real(
        lambda w: float(np.sum(-(yy - (w * x_b + c_b)) ** 2 / (2.0 * sig2)))
        - w ** 2 / (2.0 * pv_b)
    )
    assert mean_q == pytest.approx(mu, rel=rel, abs=1e-9)
    assert var_q == pytest.approx(var, rel=rel)

    # shrinkage hierarchy on a seasonal state (m=6: delta2 shape 3)
    state_s = random_state(rng, T=16, seasonal=True, m=6)
    ths = state_s.theta
    i = 1
    shape, scale_vec = psi2_conditional(ths)
    s_i, eta_i, d2 = float(ths.log_s_init[i]), float(ths.eta_s[i]), ths.delta2
    _assert_ig_matches(
        lambda p: -0.5 * math.log(p) - s_i ** 2 / (2.0 * p * d2)
        - 1.5 * math.log(p) - 1.0 / (eta_i * p),
        shape, float(scale_vec[i]), rel,
    )

    m = ths.m
    k_sum = 0.5 * float(np.sum(ths.log_s_init ** 2 / ths.psi2))
    eta_d = ths.eta_delta
    shape, scale = delta2_conditional(ths)
    _assert_ig_matches(
        lambda d: -0.5 * (m - 1) * math.log(d) - k_sum / d
        - 1.5 * math.log(d) - 1.0 / (eta_d * d),
        shape, scale, rel,
    )

    psi2_i = float(ths.psi2[i])
    shape, scale_vec = eta_s_conditional(ths)
    _assert_ig_matches(
        lambda h: -0.5 * math.log(h) - 1.0 / (h * psi2_i)
        - 1.5 * math.log(h) - 1.0 / h,
        shape, float(scale_vec[i]), rel,
    )
    d2 = ths.delta2
    shape, scale = eta_delta_conditional(ths)
    _assert_ig_matches(
        lambda h: -0.5 * math.log(h) - 1.0 / (h * d2)
        - 1.5 * math.log(h) - 1.0 / h,
        shape, scale, rel,
    )

    elapsed = time.time() - t0
    assert elapsed < 30.0
    report("2 conjugate-correctness", "all conditionals within 1e-3 of quadrature", t0)


# ---------------------------------------------------------------------------
# 3. scale-mixture identities
# ---------------------------------------------------------------------------

def test_criterion_3_scale_mixtures():
    t0 = time.time()
    n = 100_000
    for i, nu in enumerate((2.0, 5.0, 30.0)):
        rng = RngStream(3003, i).generator()
        w = sample_inverse_gamma(rng, nu / 2.0, nu / 2.0, size=n)
        x = rng.normal(0.0, np.sqrt(w))
        p = kstest(x, lambda v: t_dist.cdf(v, nu)).pvalue
        assert p > 0.01, f"t mixture KS failed for nu={nu}: p={p}"

    rng = RngStream(3003, 99).generator()
    a = 2.5
    eta = sample_inverse_gamma(rng, 0.5, 1.0 / a ** 2, size=n)
    y2 = sample_inverse_gamma(rng, 0.5, 1.0 / eta)
    p = kstest(np.sqrt(y2), lambda v: halfcauchy.cdf(v, scale=a)).pvalue
    assert p > 0.01, f"half-Cauchy nested mixture KS failed: p={p}"

    elapsed = time.time() - t0
    assert elapsed < 60.0
    report("3 scale-mixtures", "KS p > 0.01 for t(2,5,30) and half-Cauchy", t0)


# ---------------------------------------------------------------------------
# 4. df grid equidistance
# ---------------------------------------------------------------------------

def test_criterion_4_nu_grid():
    t0 = time.time()
    grid = build_nu_grid(1.6, 1000.0, 50).candidates
    assert len(grid) == 50
    assert grid[0] == 1.6 and grid[-1] == 1000.0

    def kl_quad(n1, n2):
        f = lambda x: t_dist.pdf(x, n1) * (t_dist.logpdf(x, n1) - t_dist.logpdf(x, n2))
        return quad(f, -np.inf, np.inf, limit=400)[0]

    gaps = np.array([
        kl_quad(a, b) + kl_quad(b, a) for a, b in zip(grid[:-1], grid[1:])
    ])
    dev = float(np.max(np.abs(gaps - gaps.mean())) / gaps.mean())
    assert dev < 0.01
    report("4 nu-grid", f"49 gaps, max relative deviation {dev:.2e}", t0)


# ---------------------------------------------------------------------------
# 5. simulation-based calibration
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_5_calibration():
    t0 = time.time()
    prior = PriorConfig(
        model_kind=NON_SEASONAL,
        variance_mode=HOMOSCEDASTIC,
        s_gamma=0.5,
        s_lambda=1.0,
        s_b1=0.5,
        chi2_prior=(3.0, 2.0),
        nu_grid_size=12,
    )
    ranks = run_sbc(n_replications=200, T=40, iterations=500, seed=505, prior=prior, thin=10)
    n_kept = 25
    pvals = {p: rank_uniformity_pvalue(r, n_kept, 13) for p, r in ranks.items()}
    for p, pv in pvals.items():
        assert pv > 0.01, f"rank statistics for {p} not uniform: p={pv}"
    elapsed = time.time() - t0
    assert elapsed < 900.0
    report("5 calibration", f"p-values {pvals}", t0)


# ---------------------------------------------------------------------------
# 6. horseshoe robustness to spurious seasonality
# ---------------------------------------------------------------------------

def test_criterion_6_horseshoe_robustness():
    t0 = time.time()
    params = default_params(T=48)
    params.gamma = 0.4
    params.lam = 0.3
    params.chi2 = 0.8
    params.nu = 20.0
    gen_prior = make_prior(seasonal=False)
    base = generate_series(RngStream(606, 0).generator(), params, gen_prior, T=48, y1=40.0)
    series = TimeSeries(id=base.id, values=base.values, m=4, h=4)

    cfg = SamplerConfig(iterations=2500, burn_in=1250, chains=1, seed=11)

    def median_max_seed(prior):
        samples = fit(series, prior, cfg)
        stats = [float(np.max(np.abs(d.log_s_init))) for d in samples.draws]
        return float(np.median(stats))

    hs = median_max_seed(make_prior(seasonal=True, seasonal_prior="horseshoe"))
    cauchy = median_max_seed(make_prior(seasonal=True, seasonal_prior="cauchy:4.0"))
    assert hs < 0.05, f"horseshoe did not shrink spurious seasonality: {hs}"
    assert cauchy > hs, f"wide-tailed prior should shrink less: {cauchy} vs {hs}"
    report("6 horseshoe-robustness", f"median max|log seed| horseshoe {hs:.4f} < cauchy {cauchy:.4f}", t0)


# ---------------------------------------------------------------------------
# 7. desk-scale benchmark on the yearly collection (user-supplied data)
# ---------------------------------------------------------------------------

M3_ENV = "LSGT_M3_YEARLY"


def test_criterion_7_yearly_benchmark(tmp_path):
    path = os.environ.get(M3_ENV)
    if not path or not Path(path).exists():
        pytest.skip(
            f"set {M3_ENV} to a yearly collection file (csv or json, see README) "
            "to run the desk-scale benchmark"
        )
    t0 = time.time()
    workers = int(os.environ.get("LSGT_M3_WORKERS", "1"))
    cfg = RunConfig(
        input_path=path,
        out_dir=str(tmp_path / "m3_yearly"),
        model_kind=NON_SEASONAL,
        variance_mode="heteroscedastic",
        iterations=5000,
        burn_in=2500,
        chains=2,
        seed=0,
        workers=workers,
    )
    summary = run_benchmark(cfg)
    overall = summary.overall
    smape_val = overall["smape"]
    mase_val = overall["mase"]
    below95 = 100.0 * overall["coverage"]["0.95"]
    mean_runtime = overall["runtime_seconds"]
    assert 14.0 <= smape_val <= 16.5, f"sMAPE {smape_val}"
    assert 2.3 <= mase_val <= 2.8, f"MASE {mase_val}"
    assert 88.0 <= below95 <= 97.0, f"coverage below-95p {below95}"
    assert mean_runtime * workers <= 60.0, f"mean per-series runtime {mean_runtime}"
    report("7 yearly-benchmark",
           f"sMAPE {smape_val:.2f}, MASE {mase_val:.2f}, below95 {below95:.2f}", t0)


# ---------------------------------------------------------------------------
# 8. determinism across worker counts
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    t0 = time.time()
    series = []
    for i in range(4):
        params = default_params(T=40)
        params.gamma = 0.3
        params.chi2 = 1.0
        series.append(generate_series(RngStream(808 + i, 0).generator(), params,
                                      make_prior(), T=40, series_id=f"D{i + 1}", h=4,
                                      category="synthetic"))
    data = tmp_path / "collection.json"
    serialize_collection(series, data)

    def run(out, workers):
        return run_benchmark(RunConfig(
            input_path=str(data), out_dir=str(out), iterations=200, burn_in=100,
            chains=2, seed=17, workers=workers, nu_grid_size=12,
        ))

    run(tmp_path / "w1", 1)
    run(tmp_path / "w3", 3)
    for i in range(4):
        a = (tmp_path / "w1" / "records" / f"D{i + 1}.json").read_bytes()
        b = (tmp_path / "w3" / "records" / f"D{i + 1}.json").read_bytes()
        assert a == b, f"records differ for series D{i + 1}"
    report("8 determinism", "4 series byte-identical across 1 and 3 workers", t0)


# ---------------------------------------------------------------------------
# 9. metric golden values
# ---------------------------------------------------------------------------

def test_criterion_9_metric_goldens():
    t0 = time.time()
    tol = 1e-9
    assert abs(smape([1.0, 2.0], [1.0, 2.0]) - 0.0) <= tol
    assert abs(smape([100.0], [50.0]) - 200.0 * 50.0 / 150.0) <= tol
    assert abs(smape([50.0], [100.0]) - smape([100.0], [50.0])) <= tol

    insample = [1.0, 2.0, 3.0, 4.0]
    assert abs(mase([5.0, 6.0], [5.0, 6.0], insample, s=1) - 0.0) <= tol
    assert abs(mase([5.0, 6.0], [3.0, 4.0], insample, s=1) - 2.0) <= tol
    from lsgt.errors import MetricError

    with pytest.raises(MetricError):
        mase([1.0], [2.0], [1.0, 2.0, 3.0, 4.0] * 3, s=4)

    assert abs(msis([2.0, 3.0], [1.0, 2.0], [4.0, 6.0], 0.1, insample, s=1) - 3.5) <= tol
    assert abs(msis([12.0], [0.0], [10.0], 0.1, insample, s=1) - 50.0) <= tol
    narrow = msis([2.0], [1.0], [3.0], 0.1, insample, s=1)
    wide = msis([2.0], [0.5], [3.5], 0.1, insample, s=1)
    assert wide > narrow

    got = coverage_flags([4.999, 4.998], {0.99: np.array([10.0, 10.0])})
    assert abs(got[0.99] - 1.0) <= tol
    with pytest.raises(MetricError):
        coverage_flags([1.0], {})
    report("9 metric-goldens", "all exact values within 1e-9", t0)
