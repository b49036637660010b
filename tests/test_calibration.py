"""Calibrator tests: objective assembly, fit metrics, the genetic global stage on
analytic objectives, local refinement, model variants, and a small end-to-end fit."""
import concurrent.futures
import datetime as dt
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from roughvol.calibration import (
    MODEL_VARIANTS,
    CalibrationConfig,
    FrozenPricer,
    ParamBounds,
    _evaluate_all,
    _fd_jacobian,
    _ga_minimize,
    calibrate,
    fit_metrics,
    format_pct,
    local_refine,
)
from roughvol.fbm import (PATH_BLOCK, build_joint_covariance, draw_normal_bundle,
                          transform_normals)
from roughvol.market import OptionQuote, OptionStructure, compute_weights
from roughvol.model import PARAM_NAMES, MarketEnv, ModelParams, volatility_paths
from roughvol.pricing import _pool_estimates, chain_estimates
from roughvol.synth import generate_chain

THETA = ModelParams(sigma0=0.08, rho=-0.3, H=0.2, xi=1.0, alpha=1.0)


def small_structure():
    quotes = [
        OptionQuote(strike=k, maturity=t, bid=c - 0.05, ask=c + 0.05, close=c)
        for k, t, c in [(90.0, 0.25, 11.0), (100.0, 0.25, 3.2), (110.0, 0.25, 0.4),
                        (100.0, 0.5, 4.5), (110.0, 0.5, 1.1)]
    ]
    return OptionStructure(quotes=quotes, env=MarketEnv(spot=100.0, rate=0.0),
                           trade_date=dt.date(2026, 1, 2),
                           weights=compute_weights(quotes))


def fast_config(**kwargs):
    base = dict(path_count=2000, steps_per_year=12, seed=5, ga_population=20,
                ga_generations=2)
    base.update(kwargs)
    return CalibrationConfig(**base)


# ---------------------------------------------------------------------------
# bounds and config


def test_default_bounds_box():
    b = ParamBounds.default()
    assert_allclose(b.lower, [0.01, -1.0, 0.05, 0.01, 0.0])
    assert_allclose(b.upper, [0.20, -0.05, 0.25, 3.00, 1.0])
    assert np.all(b.free)


def test_bounds_fixing_and_clip():
    b = ParamBounds.default().with_fixed(alpha=1.0, H=0.1)
    assert list(b.free) == [True, True, False, True, False]
    clipped = b.clip(np.array([0.5, -2.0, 0.9, 1.0, 0.2]))
    assert_allclose(clipped, [0.20, -1.0, 0.1, 1.0, 1.0])


def test_bounds_validation():
    with pytest.raises(ValueError):
        ParamBounds(lower=np.zeros(4), upper=np.ones(4))
    with pytest.raises(ValueError):
        ParamBounds(lower=np.ones(5), upper=np.zeros(5))
    default = ParamBounds.default()
    for i, value in [(0, np.nan), (3, np.inf), (2, 0.0), (0, -0.1)]:
        lower = default.lower.copy()
        lower[i] = value
        with pytest.raises(ValueError):
            ParamBounds(lower=lower, upper=default.upper)
    for i, value in [(0, np.nan), (3, np.inf), (4, 1.5), (1, np.nan)]:
        upper = default.upper.copy()
        upper[i] = value
        with pytest.raises(ValueError):
            ParamBounds(lower=default.lower, upper=upper)


@pytest.mark.parametrize("kwargs", [
    dict(ga_population=0), dict(ga_generations=-1), dict(obj_tol=0.0),
    dict(path_count=0), dict(model_variant="heston"),
    dict(fd_rel_step=0.0), dict(fd_rel_step=-1e-4), dict(fd_rel_step=float("nan")),
    dict(fd_rel_step=0.6),
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        fast_config(**kwargs)


@pytest.mark.parametrize("variant,index,value", [
    ("RFSV", 4, 0.0), ("rBergomi", 4, 1.0), ("fixed_H", 2, 0.5),
])
def test_variant_bound_collapse(variant, index, value):
    b = fast_config(model_variant=variant).effective_bounds()
    assert b.lower[index] == b.upper[index] == value
    assert fast_config().effective_bounds().free.all()


# ---------------------------------------------------------------------------
# metrics and objective assembly


def test_fit_metrics_arithmetic():
    quotes = [OptionQuote(strike=100.0, maturity=0.5, bid=9.9, ask=10.1, close=10.0),
              OptionQuote(strike=110.0, maturity=0.5, bid=9.9, ask=10.1, close=10.0)]
    s = OptionStructure(quotes=quotes, env=MarketEnv(spot=100.0),
                        trade_date=dt.date(2026, 1, 2), weights=[1.0, 1.0])
    m = fit_metrics(np.array([11.0, 13.0]), s)  # absolute errors 1 and 3
    assert m.aare == pytest.approx(0.2)
    assert m.mare == pytest.approx(0.3)
    assert m.arfv == pytest.approx(0.02)
    assert m.mrfv == pytest.approx(0.03)


def test_fit_metrics_size_mismatch():
    with pytest.raises(ValueError):
        fit_metrics(np.array([1.0]), small_structure())


def test_format_pct():
    assert format_pct(0.0646) == "6.46%"
    assert format_pct(0.2) == "20.00%"
    assert format_pct(0.0) == "0.00%"


def test_frozen_pricer_matches_manual_assembly():
    s = small_structure()
    config = fast_config()
    pricer = FrozenPricer(s, config)
    z, zt = draw_normal_bundle(pricer.grid.n, config.path_count, config.seed)
    cov = build_joint_covariance(pricer.grid, THETA.H)
    bundle = transform_normals(z, zt * np.sqrt(pricer.grid.deltas), cov)
    vols = volatility_paths(bundle, THETA, pricer.grid)
    manual = [e.price for e in chain_estimates(bundle, vols, s.env, s.options)]
    assert_allclose(pricer.prices(THETA), manual, rtol=0.0, atol=0.0)


def test_frozen_pricer_pools_path_blocks():
    # three blocks, the last one short: each PATH_BLOCK row slice of the frozen draws is
    # transformed and priced on its own, and the block estimates are pooled
    s = small_structure()
    config = fast_config(path_count=2 * PATH_BLOCK + 8)
    pricer = FrozenPricer(s, config)
    grid = pricer.grid
    z, zt = draw_normal_bundle(grid.n, config.path_count, config.seed)
    zt = zt * np.sqrt(grid.deltas)
    cov = build_joint_covariance(grid, THETA.H)
    per_block = []
    for lo in range(0, config.path_count, PATH_BLOCK):
        rows = slice(lo, lo + PATH_BLOCK)
        bundle = transform_normals(z[rows], zt[rows], cov)
        vols = volatility_paths(bundle, THETA, grid)
        per_block.append(chain_estimates(bundle, vols, s.env, s.options))
    assert len(per_block) == 3 and per_block[-1][0].path_count == 8
    manual = [_pool_estimates(parts).price for parts in zip(*per_block)]
    prices = pricer.prices(THETA)
    assert list(prices) == manual

    whole = transform_normals(z, zt, cov)
    vols = volatility_paths(whole, THETA, grid)
    reference = [e.price for e in chain_estimates(whole, vols, s.env, s.options)]
    assert_allclose(prices, reference, rtol=1e-13, atol=0.0)


def _cached_prices_peak(path_count: int) -> int:
    pricer = FrozenPricer(small_structure(), fast_config(path_count=path_count,
                                                         steps_per_year=48))
    pricer.prices(THETA)  # builds and caches the paths at THETA.H
    tracemalloc.start()
    try:
        pricer.prices(replace(THETA, sigma0=0.1))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_frozen_pricer_memory_does_not_grow_with_block_count():
    # at a cached H only one block's volatility paths and integrals are alive
    small = _cached_prices_peak(2 * PATH_BLOCK)
    large = _cached_prices_peak(8 * PATH_BLOCK)
    assert large <= 1.25 * small


def _block_pricer(n_blocks: int) -> FrozenPricer:
    return FrozenPricer(small_structure(), fast_config(path_count=n_blocks * PATH_BLOCK,
                                                       steps_per_year=48))


def test_new_hurst_call_holds_one_path_set():
    # a call at a new H replaces the paths block by block, never holding two path sets
    pricer = _block_pricer(8)
    tracemalloc.start()
    try:
        pricer.prices(THETA)
        first = tracemalloc.get_traced_memory()[1]
        pricer.prices(replace(THETA, H=0.12))
        both = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert both <= 1.1 * first


def _generation_peak(threads: int) -> int:
    pricer = _block_pricer(16)
    thetas = [replace(THETA, H=h).as_array() for h in (0.1, 0.15, 0.2, 0.25)]
    tracemalloc.start()
    try:
        _evaluate_all(pricer.objective, thetas, threads)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ga_generation_memory_grows_by_blocks():
    # threads sharing the pricer add one block in flight each, not a path set each:
    # the ratio is 1.1-1.4 over thread schedules, and 1.6-2.2 with a path set per thread
    assert _generation_peak(4) <= 1.5 * _generation_peak(1)


def test_objective_is_weighted_squared_error():
    s = small_structure()
    pricer = FrozenPricer(s, fast_config())
    prices = pricer.prices(THETA)
    expected = float(np.sum(s.weights * (prices - s.closes) ** 2))
    assert pricer.objective(THETA) == pytest.approx(expected, rel=1e-12)


def test_objective_scales_with_weights():
    s = small_structure()
    scaled = OptionStructure(quotes=s.quotes, env=s.env, trade_date=s.trade_date,
                             weights=4.0 * s.weights)
    config = fast_config()
    theta = THETA.as_array()
    assert FrozenPricer(scaled, config).objective(theta) == pytest.approx(
        4.0 * FrozenPricer(s, config).objective(theta), rel=1e-12)


def test_objective_is_frozen_deterministic():
    s = small_structure()
    config = fast_config()
    theta = THETA.as_array()
    assert (FrozenPricer(s, config).objective(theta)
            == FrozenPricer(s, config).objective(theta))


def test_pricer_threads_do_not_change_prices():
    s = small_structure()
    p1 = FrozenPricer(s, fast_config(threads=1)).prices(THETA)
    p4 = FrozenPricer(s, fast_config(threads=4)).prices(THETA)
    assert np.array_equal(p1, p4)


# ---------------------------------------------------------------------------
# global stage on analytic objectives


def quadratic_objective(target):
    width = ParamBounds.default().width

    def fn(theta):
        z = (np.asarray(theta) - target) / width
        return float(z @ z)

    return fn


def test_global_search_finds_quadratic_minimum():
    target = np.array([0.10, -0.50, 0.15, 1.50, 0.50])
    config = fast_config(ga_population=150, ga_generations=5, seed=2)
    best = ModelParams.from_array(_ga_minimize(config, quadratic_objective(target))[0])
    z = np.abs(best.as_array() - target) / ParamBounds.default().width
    assert np.all(z < 0.15)


def test_global_search_deterministic_and_seed_sensitive():
    target = np.array([0.10, -0.50, 0.15, 1.50, 0.50])
    fn = quadratic_objective(target)
    a = ModelParams.from_array(_ga_minimize(fast_config(seed=3), fn)[0])
    b = ModelParams.from_array(_ga_minimize(fast_config(seed=3), fn)[0])
    c = ModelParams.from_array(_ga_minimize(fast_config(seed=4), fn)[0])
    assert a == b
    assert a != c


def test_global_search_tiny_population():
    config = fast_config(ga_population=1, ga_generations=0, seed=0)
    best = ModelParams.from_array(_ga_minimize(config, lambda t: 0.0)[0])
    bounds = ParamBounds.default()
    arr = best.as_array()
    assert np.all(arr >= bounds.lower) and np.all(arr <= bounds.upper)


def test_global_search_respects_variant_collapse():
    config = fast_config(model_variant="rBergomi", ga_population=30,
                         ga_generations=1, seed=1)
    best = ModelParams.from_array(_ga_minimize(config, lambda t: float(np.sum(t**2)))[0])
    assert best.alpha == 1.0


# ---------------------------------------------------------------------------
# local stage


def linear_residuals(target):
    def fn(theta):
        return 10.0 * (np.asarray(theta) - target)

    return fn


def test_local_refine_converges_to_interior_minimum():
    target = np.array([0.10, -0.50, 0.15, 1.50, 0.50])
    start = ModelParams(sigma0=0.05, rho=-0.9, H=0.08, xi=2.5, alpha=0.9)
    result = local_refine(start, linear_residuals(target), fast_config())
    assert_allclose(result.theta.as_array(), target, atol=1e-6)
    assert result.objective < 1e-9
    assert result.metrics is None


def test_local_refine_from_bound_start():
    target = np.array([0.10, -0.50, 0.15, 1.50, 0.50])
    start = ModelParams(sigma0=0.20, rho=-0.05, H=0.25, xi=3.0, alpha=1.0)  # corner
    result = local_refine(start, linear_residuals(target), fast_config())
    assert_allclose(result.theta.as_array(), target, atol=1e-6)


def test_local_refine_minimum_on_bound():
    # unconstrained optimum has alpha = 1.4; the box clips it at 1.0
    target = np.array([0.10, -0.50, 0.15, 1.50, 1.4])
    start = ModelParams(sigma0=0.10, rho=-0.50, H=0.15, xi=1.50, alpha=0.1)
    result = local_refine(start, linear_residuals(target), fast_config())
    assert result.theta.alpha == pytest.approx(1.0, abs=1e-9)


def test_local_refine_never_worsens_objective():
    target = np.array([0.10, -0.50, 0.15, 1.50, 0.50])
    start = ModelParams(sigma0=0.10, rho=-0.50, H=0.15, xi=1.50, alpha=0.50)
    result = local_refine(start, linear_residuals(target), fast_config())
    assert result.objective == pytest.approx(0.0, abs=1e-15)
    assert_allclose(result.theta.as_array(), target, atol=1e-9)


def test_local_refine_keeps_variant_fixed_values():
    target = np.array([0.10, -0.50, 0.15, 1.50, 0.50])
    start = ModelParams(sigma0=0.12, rho=-0.40, H=0.20, xi=1.0, alpha=0.7)
    result = local_refine(start, linear_residuals(target),
                          fast_config(model_variant="RFSV"))
    assert result.theta.alpha == 0.0  # pinned exactly, despite the pull toward 0.5
    assert abs(result.theta.sigma0 - 0.10) < 1e-6


def test_local_refine_all_parameters_fixed():
    bounds = ParamBounds(lower=THETA.as_array(), upper=THETA.as_array())
    result = local_refine(THETA, lambda t: np.array([1.0]), fast_config(bounds=bounds))
    assert result.theta == THETA
    assert result.iterations["local"]["message"] == "all parameters fixed"


def test_local_refine_rejects_non_finite_start():
    with pytest.raises(ValueError, match="not finite"):
        local_refine(THETA, lambda t: np.array([np.nan]), fast_config())


BOX = ParamBounds.default()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(variant=st.sampled_from(MODEL_VARIANTS),
       target=st.tuples(*(st.floats(lo - w, hi + w)
                          for lo, hi, w in zip(BOX.lower, BOX.upper, BOX.width))),
       start=st.tuples(*(st.floats(lo, hi) for lo, hi in zip(BOX.lower, BOX.upper))))
def test_local_refine_stays_in_box_and_descends(variant, target, start):
    config = fast_config(model_variant=variant)
    bounds = config.effective_bounds()
    fn = linear_residuals(np.array(target))
    result = local_refine(ModelParams.from_array(start), fn, config)
    theta = result.theta.as_array()
    assert np.all(bounds.lower <= theta) and np.all(theta <= bounds.upper)
    fixed = ~bounds.free
    assert np.array_equal(theta[fixed], bounds.lower[fixed])
    r0, r = fn(bounds.clip(np.array(start))), fn(theta)
    assert result.objective == float(r @ r) <= float(r0 @ r0)


# ---------------------------------------------------------------------------
# end to end on a synthetic chain


@pytest.fixture(scope="module")
def synth_chain():
    return generate_chain(THETA, MarketEnv(spot=100.0, rate=0.0),
                          strikes=[95.0, 100.0, 105.0], maturity_days=[30, 91],
                          steps_per_year=24, path_count=4000, seed=11,
                          rel_spread=0.02)


def test_calibrate_end_to_end(synth_chain):
    config = fast_config(model_variant="rBergomi", ga_population=16,
                         ga_generations=1, path_count=1500, steps_per_year=12, seed=7)
    result = calibrate(synth_chain, config)
    arr = result.theta.as_array()
    bounds = config.effective_bounds()
    assert np.all(arr >= bounds.lower) and np.all(arr <= bounds.upper)
    assert result.theta.alpha == 1.0
    assert result.metrics is not None
    assert result.metrics.aare >= 0.0
    history = result.iterations["ga_best_per_generation"]
    assert len(history) == config.ga_generations + 1
    assert result.objective <= history[-1] + 1e-12  # local stage only improves
    assert result.iterations["local"]["nfev"] >= 1


def test_calibrate_is_deterministic(synth_chain):
    config = fast_config(ga_population=8, ga_generations=1, path_count=1000,
                         steps_per_year=12, seed=13)
    a = calibrate(synth_chain, config)
    b = calibrate(synth_chain, config)
    assert a.theta == b.theta
    assert a.objective == b.objective


# ---------------------------------------------------------------------------
# exact reuse: cached paths and skipped repeat evaluations change no number


def test_pricer_path_cache_is_exact():
    s = small_structure()
    config = fast_config()
    sequence = [THETA, THETA,
                ModelParams(sigma0=0.08, rho=-0.3, H=0.2, xi=1.4, alpha=1.0),
                ModelParams(sigma0=0.11, rho=-0.3, H=0.2, xi=1.4, alpha=1.0),
                ModelParams(sigma0=0.11, rho=-0.3, H=0.12, xi=1.4, alpha=1.0),
                ModelParams(sigma0=0.11, rho=-0.3, H=0.2, xi=1.4, alpha=1.0)]
    cached = FrozenPricer(s, config)
    for theta in sequence:
        assert np.array_equal(cached.prices(theta), FrozenPricer(s, config).prices(theta))


@pytest.mark.parametrize("path_count", [500, 2 * PATH_BLOCK + 8])
def test_pricer_path_cache_under_thread_contention(path_count):
    s = small_structure()
    config = fast_config(path_count=path_count)
    thetas = [ModelParams(sigma0=0.08, rho=-0.3, H=h, xi=1.0 + 0.1 * (i % 3), alpha=1.0)
              for i, h in enumerate([0.1, 0.2, 0.3] * 8)]
    expected = [FrozenPricer(s, config).prices(t) for t in thetas]
    shared = FrozenPricer(s, config)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(shared.prices, thetas, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(g, e) for g, e in zip(got, expected))


def test_pricer_memo_under_thread_contention():
    s = small_structure()
    config = fast_config()
    # 12 distinct vectors, each twice
    thetas = [np.array([0.08, -0.3, h, 1.0 + 0.1 * (i % 4), 1.0])
              for i, h in enumerate([0.1, 0.2, 0.3] * 8)]
    expected = [FrozenPricer(s, config).residuals(t) for t in thetas]
    shared = FrozenPricer(s, config)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(shared.residuals, thetas, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(g, e) for g, e in zip(got, expected))
    assert len(shared._memo) == len({t.tobytes() for t in thetas})


def analytic_objective(calls):
    """Weighted squared distance to a fixed point, in plain float arithmetic."""
    target = [0.10, -0.50, 0.15, 1.50, 0.50]
    width = list(ParamBounds.default().width)

    def fn(theta):
        calls.append(np.array(theta))
        return sum(((float(t) - c) / w) ** 2 for t, c, w in zip(theta, target, width))

    return fn


@pytest.mark.parametrize("threads", [1, 2])
def test_ga_prices_elites_once(threads):
    calls = []
    config = fast_config(ga_population=12, ga_generations=3, threads=threads)
    best, history = _ga_minimize(config, analytic_objective(calls))
    assert len(calls) == 12 + 3 * (12 - 2)
    # recorded from the GA that re-evaluated its elites every generation
    assert best.tolist() == [0.09017965172564568, -0.48151363274808284,
                             0.14177301197796024, 1.388586179526734, 0.6258785405916318]
    assert history == [0.10071937129240574, 0.03852344927405461,
                       0.03629673112551746, 0.02197607067743578]


def test_local_refine_evaluates_each_point_once(monkeypatch):
    seen = []
    real_prices = FrozenPricer.prices

    def counting(self, theta):
        seen.append(np.array(theta, dtype=float))
        return real_prices(self, theta)

    monkeypatch.setattr(FrozenPricer, "prices", counting)
    start = ModelParams(sigma0=0.05, rho=-0.9, H=0.08, xi=2.5, alpha=0.9)
    pricer = FrozenPricer(small_structure(), fast_config())
    result = local_refine(start, pricer.residuals, fast_config())
    local = result.iterations["local"]
    assert all(not np.array_equal(a, b) for a, b in zip(seen, seen[1:]))
    assert len({t.tobytes() for t in seen}) == len(seen)
    # one call per trust-region trial plus one per Jacobian column, nothing more
    assert len(seen) == local["nfev"] + 5 * local["njev"]


@pytest.mark.parametrize("threads", [1, 2])
def test_calibrate_prices_each_parameter_vector_once(monkeypatch, threads):
    s = small_structure()
    config = fast_config(model_variant="rBergomi", ga_population=6, ga_generations=2,
                         threads=threads)
    seen = []
    real_prices = FrozenPricer.prices

    def counting(self, theta):
        seen.append(np.asarray(theta, dtype=float).tobytes())
        return real_prices(self, theta)

    monkeypatch.setattr(FrozenPricer, "prices", counting)
    result = calibrate(s, config)
    assert len(set(seen)) == len(seen)
    monkeypatch.undo()
    assert result.metrics == fit_metrics(FrozenPricer(s, config).prices(result.theta), s)


def test_fd_jacobian_independent_of_column_order():
    def residual_fn(x):
        return np.array([np.sin(x[0]) * x[2], x[1] ** 3 - x[3], np.exp(x[2] * x[3]),
                         x[0] * x[1] * x[2] * x[3]])

    x = np.array([0.3, -0.4, 0.15, 1.2])
    steps = np.full(4, 1e-4)
    lower, upper = np.zeros(4) - 2.0, np.array([2.0, 2.0, 0.15, 2.0])  # x[2] on its bound
    r0 = residual_fn(x)
    reference = _fd_jacobian(residual_fn, x, r0, steps, lower, upper, range(4))
    for order in ([3, 2, 1, 0], [0, 1, 3, 2], [2, 0, 3, 1]):
        assert np.array_equal(_fd_jacobian(residual_fn, x, r0, steps, lower, upper, order),
                              reference)
