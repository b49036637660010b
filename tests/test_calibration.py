"""Calibrator tests: objective assembly, fit metrics, the genetic global stage on
analytic objectives, local refinement, model variants, and a small end-to-end fit."""
import concurrent.futures
import datetime as dt
import logging
import sys
import tracemalloc
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from roughvol.calibration import (
    MODEL_VARIANTS,
    _FD_REL_STEP,
    _GA_PATH_COUNT,
    _GA_STEPS_PER_YEAR,
    _H,
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
from roughvol.model import PARAM_NAMES, MarketEnv, ModelParams
from roughvol import calibration, pricing
from roughvol.pricing import _pool_estimates, chain_estimates
from roughvol.synth import generate_chain
from test_fbm import block_stream_normals

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
    dict(ga_population=0), dict(ga_generations=-1),
    dict(path_count=0), dict(model_variant="heston"),
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
    # 2000 priced paths are 1000 base draws, each priced with its mirror
    s = small_structure()
    config = fast_config()
    pricer = FrozenPricer(s, config)
    z, w_tilde = draw_normal_bundle(pricer.grid, config.path_count // 2, config.seed)
    cov = build_joint_covariance(pricer.grid, THETA.H)
    bundle = transform_normals(z, w_tilde, cov)
    manual = [e.price for e in chain_estimates(bundle, THETA, s.env, s.options)]
    assert_allclose(pricer.prices(THETA), manual, rtol=0.0, atol=0.0)


def test_frozen_pricer_pools_path_blocks():
    # three blocks of base draws, the last one short: each PATH_BLOCK row slice of the
    # frozen draws is transformed and priced with its mirrors on its own, and the
    # block estimates are pooled
    s = small_structure()
    draws = 2 * PATH_BLOCK + 8
    config = fast_config(path_count=2 * draws)
    pricer = FrozenPricer(s, config)
    grid = pricer.grid
    z, w_tilde = draw_normal_bundle(grid, draws, config.seed)
    cov = build_joint_covariance(grid, THETA.H)
    per_block = []
    for lo in range(0, draws, PATH_BLOCK):
        rows = slice(lo, lo + PATH_BLOCK)
        bundle = transform_normals(z[rows], w_tilde[rows], cov)
        per_block.append(chain_estimates(bundle, THETA, s.env, s.options))
    assert len(per_block) == 3 and per_block[-1][0].path_count == 16
    manual = [_pool_estimates(parts).price for parts in zip(*per_block)]
    prices = pricer.prices(THETA)
    assert list(prices) == manual

    whole = transform_normals(z, w_tilde, cov)
    reference = [e.price for e in chain_estimates(whole, THETA, s.env, s.options)]
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
    """A pricer on ``n_blocks`` blocks of base draws, each priced with its mirrors."""
    config = fast_config(path_count=2 * n_blocks * PATH_BLOCK, steps_per_year=48)
    return FrozenPricer(small_structure(), config)


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


def test_frozen_pricer_increments_are_views_of_the_draws():
    # a cached block at any H holds its fBm paths and views of the frozen draws, whose
    # dW is bit for bit sqrt(deltas) * Z_W from the block's own stream; the orthogonal
    # increments, which the conditional estimator never reads, are not drawn
    config = fast_config(path_count=2 * PATH_BLOCK + 8)
    pricer = FrozenPricer(small_structure(), config)
    n, scale = pricer.grid.n, np.sqrt(pricer.grid.deltas)
    for H in (THETA.H, 0.12):
        pricer.prices(replace(THETA, H=H))
        h, bundles = pricer._paths
        for b, bundle in enumerate(bundles):
            assert h == H
            assert np.shares_memory(bundle.w_increments, pricer._z)
            assert bundle.w_tilde_increments is None
            rows = bundle.fbm_paths.shape[0]
            stream_z, _ = block_stream_normals(config.seed, b, rows, n)
            assert np.array_equal(bundle.w_increments, stream_z[:, :n] * scale)


def test_pricer_calls_add_one_fbm_path_set():
    # after construction, a first call and a call at a new H leave only the fBm paths
    # of the base draws behind: the increments are views of the frozen draws, not
    # copies, and no mirror is stored
    config = fast_config(path_count=3 * PATH_BLOCK + 100, steps_per_year=252)
    pricer = FrozenPricer(small_structure(), config)
    path_set = config.path_count // 2 * pricer.grid.n * 8
    tracemalloc.start()
    try:
        pricer.prices(THETA)
        pricer.prices(replace(THETA, H=0.12))
        added = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert added <= 1.1 * path_set


def test_new_hurst_call_builds_one_covariance_before_any_block(monkeypatch):
    # a call at a new H builds its covariance once, then transforms every block under
    # it before any block is priced; a call that keeps H (sigma0, rho, xi or alpha
    # moved) builds and transforms none
    events = []
    real_cov, real_transform, real_chain = (build_joint_covariance, transform_normals,
                                            chain_estimates)

    def cov_spy(grid, H):
        events.append(("cov", H))
        return real_cov(grid, H)

    def transform_spy(z, w_tilde, cov):
        events.append(("transform", z.shape[0]))
        return real_transform(z, w_tilde, cov)

    def chain_spy(bundle, *args, **kwargs):
        events.append(("price", bundle.fbm_paths.shape[0]))
        return real_chain(bundle, *args, **kwargs)

    monkeypatch.setattr(calibration, "build_joint_covariance", cov_spy)
    monkeypatch.setattr(calibration, "transform_normals", transform_spy)
    monkeypatch.setattr(pricing, "chain_estimates", chain_spy)
    pricer = _block_pricer(3)
    for H in (THETA.H, 0.12):
        pricer.prices(replace(THETA, H=H))
        assert events == ([("cov", H)] + [("transform", PATH_BLOCK)] * 3
                          + [("price", PATH_BLOCK)] * 3)
        events.clear()
    for moved in (dict(sigma0=0.1), dict(rho=-0.5), dict(xi=1.5), dict(alpha=0.5)):
        pricer.prices(replace(THETA, H=0.12, **moved))
        assert events == [("price", PATH_BLOCK)] * 3
        events.clear()


class _StopAfterPricer(Exception):
    pass


@settings(max_examples=20, deadline=None, derandomize=True)
@given(path_count=st.integers(1, 12 * PATH_BLOCK), steps_per_year=st.integers(1, 1008))
def test_genetic_pricer_holds_one_block(path_count, steps_per_year):
    # at any requested scale the genetic stage prices on one block of base paths, so
    # the threads that share its pricer never hold more than one block each
    pricers = []

    def stop(config, objective_fn):
        pricers.append(objective_fn.__self__)
        raise _StopAfterPricer

    config = fast_config(path_count=path_count, steps_per_year=steps_per_year)
    with mock.patch.object(calibration, "_ga_minimize", stop):
        with pytest.raises(_StopAfterPricer):
            calibrate(small_structure(), config)
    (pricer,) = pricers
    pricer.prices(THETA)
    assert len(pricer._paths[1]) == 1


def _ga_pricer() -> FrozenPricer:
    """A pricer at the genetic stage's scale: one block of base draws on the coarse grid."""
    config = fast_config(path_count=_GA_PATH_COUNT, steps_per_year=_GA_STEPS_PER_YEAR)
    return FrozenPricer(small_structure(), config)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _generation_peak(threads: int) -> int:
    pricer = _ga_pricer()
    thetas = [replace(THETA, H=h).as_array() for h in np.arange(0.1, 0.5, 0.05)]
    return _traced_peak(lambda: _evaluate_all(pricer.objective, thetas, threads))


def test_ga_generation_memory_grows_by_one_block_per_thread():
    # every call of a generation is at a new H: an extra thread adds one call's block in
    # flight (its paths, covariance and pricing temporaries), and at most the block it
    # leaves in the pricer's slot. At 4 threads the peak measured 3.5-4.0 x the
    # 1-thread peak, and the bound is about 4.8 x.
    pricer = _ga_pricer()
    block = _traced_peak(lambda: pricer.prices(THETA)) + PATH_BLOCK * pricer.grid.n * 8
    assert _generation_peak(4) <= _generation_peak(1) + 3 * block


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
    # at a warm (H, xi), moves in sigma0 and rho reuse the block's unit sums, and a
    # move in alpha forms new ones; every call equals a cold pricer's
    s = small_structure()
    config = fast_config()
    sequence = [THETA, THETA,
                ModelParams(sigma0=0.08, rho=-0.3, H=0.2, xi=1.4, alpha=1.0),
                ModelParams(sigma0=0.11, rho=-0.3, H=0.2, xi=1.4, alpha=1.0),
                ModelParams(sigma0=0.11, rho=-0.6, H=0.2, xi=1.4, alpha=1.0),
                ModelParams(sigma0=0.05, rho=-0.1, H=0.2, xi=1.4, alpha=1.0),
                ModelParams(sigma0=0.05, rho=-0.1, H=0.2, xi=1.4, alpha=0.4),
                ModelParams(sigma0=0.11, rho=-0.3, H=0.12, xi=1.4, alpha=1.0),
                ModelParams(sigma0=0.11, rho=-0.3, H=0.2, xi=1.4, alpha=1.0)]
    cached = FrozenPricer(s, config)
    for theta in sequence:
        assert np.array_equal(cached.prices(theta), FrozenPricer(s, config).prices(theta))


@pytest.mark.parametrize("path_count", [500, 2 * PATH_BLOCK + 8])
def test_pricer_path_cache_under_thread_contention(path_count):
    # the first 24 vectors differ in (H, xi); the last 24 share each of those (H, xi)
    # and differ in sigma0 and rho, so threads race on the blocks' unit sums too
    s = small_structure()
    config = fast_config(path_count=path_count)
    thetas = [ModelParams(sigma0=0.08, rho=-0.3, H=h, xi=1.0 + 0.1 * (i % 3), alpha=1.0)
              for i, h in enumerate([0.1, 0.2, 0.3] * 8)]
    thetas += [replace(theta, sigma0=0.06 + 0.01 * (i % 4), rho=-0.2 - 0.3 * (i % 2))
               for i, theta in enumerate(thetas)]
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


def test_priced_converts_an_array_and_its_params_to_one_memo_entry(monkeypatch):
    # priced builds the ModelParams once, so an array and the ModelParams of the same
    # vector share a key, and prices only ever receives ModelParams
    calls = []
    real_prices = FrozenPricer.prices

    def counting(self, theta):
        calls.append(theta)
        return real_prices(self, theta)

    monkeypatch.setattr(FrozenPricer, "prices", counting)
    pricer = FrozenPricer(small_structure(), fast_config())
    x = THETA.as_array()
    first = pricer.priced(x)
    assert pricer.priced(ModelParams.from_array(x)) is first
    assert len(calls) == 1 and isinstance(calls[0], ModelParams) and calls[0] == THETA


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
        seen.append(theta.as_array())
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
    made, _ = recorded_pricers(monkeypatch)

    def counting(self, theta):
        # the pricers run one after the other: the constructions so far name this one
        seen.append((len(made), theta.as_array().tobytes()))
        return real_prices(self, theta)

    monkeypatch.setattr(FrozenPricer, "prices", counting)
    result = calibrate(s, config)
    # once per pricer: the genetic best is priced on the coarse and the requested one
    assert len(set(seen)) == len(seen)
    start = ModelParams(**result.iterations["ga_start"]).as_array().tobytes()
    assert (1, start) in seen and (2, start) in seen
    monkeypatch.undo()
    assert result.metrics == fit_metrics(FrozenPricer(s, config).prices(result.theta), s)


# ---------------------------------------------------------------------------
# coarse-to-fine: the genetic stage on a coarse pricer, least squares on the requested


def recorded_pricers(monkeypatch):
    """Patch FrozenPricer.__init__ to record, per construction, the pricer's scale and
    whether each pricer built before it is still alive; returns the record and each
    pricer's frozen draws, which hold no reference to the pricer."""
    made, refs, draws = [], [], []
    real_init = FrozenPricer.__init__

    def recording(self, structure, config):
        made.append((config.path_count, config.steps_per_year,
                     [ref() is not None for ref in refs]))
        real_init(self, structure, config)
        refs.append(weakref.ref(self))
        draws.append(self._z)

    monkeypatch.setattr(FrozenPricer, "__init__", recording)
    return made, draws


def test_calibrate_runs_the_genetic_stage_on_a_coarse_pricer(monkeypatch):
    s = small_structure()
    config = fast_config(model_variant="rBergomi", ga_population=4, ga_generations=1,
                         path_count=16385, steps_per_year=96)
    made, _ = recorded_pricers(monkeypatch)
    result = calibrate(s, config)
    monkeypatch.undo()
    # the GA pricer first, and dead by the time the least-squares pricer is built
    assert made == [(2 * PATH_BLOCK, 48, []), (16385, 96, [False])]
    assert (_GA_PATH_COUNT, _GA_STEPS_PER_YEAR) == (2 * PATH_BLOCK, 48)
    iterations = result.iterations
    assert (iterations["ga_path_count"], iterations["ga_steps_per_year"]) == (8192, 48)
    assert result.objective <= iterations["local"]["start_objective"]
    # the recorded generation bests are coarse objectives, the start is priced anew
    coarse = FrozenPricer(s, replace(config, path_count=8192, steps_per_year=48))
    start = ModelParams(**iterations["ga_start"])
    assert iterations["ga_best_per_generation"][-1] == coarse.objective(start)
    assert iterations["local"]["start_objective"] == FrozenPricer(s, config).objective(start)


@pytest.mark.parametrize("scale", [(2000, 12), (2 * PATH_BLOCK, 48)],
                         ids=["fast", "coarse-scale"])
def test_calibrate_at_or_below_the_coarse_scale_builds_two_pricers_on_one_draw(
        monkeypatch, scale):
    path_count, steps_per_year = scale
    config = fast_config(model_variant="rBergomi", ga_population=4, ga_generations=1,
                         path_count=path_count, steps_per_year=steps_per_year)
    made, draws = recorded_pricers(monkeypatch)
    result = calibrate(small_structure(), config)
    # the same lifecycle as above the coarse scale, on draws that are equal
    assert made == [(path_count, steps_per_year, []),
                    (path_count, steps_per_year, [False])]
    assert np.array_equal(draws[0], draws[1])
    iterations = result.iterations
    assert (iterations["ga_path_count"], iterations["ga_steps_per_year"]) == scale
    # so the least squares starts from the genetic best's objective, bit for bit
    assert iterations["local"]["start_objective"] == iterations["ga_best_per_generation"][-1]


def test_coarse_pricer_draws_are_the_requested_pricers_first_block(monkeypatch):
    _, draws = recorded_pricers(monkeypatch)
    config = fast_config(model_variant="rBergomi", ga_population=4, ga_generations=1,
                         path_count=16385, steps_per_year=48)
    calibrate(small_structure(), config)
    coarse, fine = draws
    assert coarse.shape[0] == PATH_BLOCK and fine.shape[0] == 8193
    assert np.array_equal(coarse, fine[:PATH_BLOCK])


def test_calibrate_logs_progress(caplog):
    config = fast_config(model_variant="rBergomi", ga_population=4, ga_generations=2)
    with caplog.at_level(logging.INFO, logger="roughvol.calibration"):
        result = calibrate(small_structure(), config)
    messages = [r.getMessage() for r in caplog.records
                if r.name == "roughvol.calibration" and r.levelno == logging.INFO]
    history = result.iterations["ga_best_per_generation"]
    assert len(messages) == 4
    for g, (message, best) in enumerate(zip(messages, history)):
        assert message.startswith(f"GA generation {g}/2: best objective {best:.6g}, ")
        assert message.endswith(" s")
    local = result.iterations["local"]
    assert messages[-1] == (f"least squares done: nfev {local['nfev']}, njev "
                            f"{local['njev']}, status {local['status']}, objective "
                            f"{result.objective:.6g}")


def test_fd_jacobian_reuses_the_base_points_unit_sums(monkeypatch):
    # rBergomi at a warm point: the sigma0 and rho columns price from the sums cached
    # at the base point, so only the xi and H columns form sums (one block), and the
    # Jacobian equals one priced by a cold pricer per column bit for bit
    s = small_structure()
    config = fast_config(model_variant="rBergomi")
    bounds = config.effective_bounds()
    free = bounds.free
    lb, ub = bounds.lower[free], bounds.upper[free]
    steps = _FD_REL_STEP * bounds.width[free]
    order = np.argsort(np.flatnonzero(free) == _H, kind="stable")  # as local_refine
    theta = THETA.as_array()

    def on(pricer_of):
        def residuals(x):
            full = theta.copy()
            full[free] = x
            return pricer_of().residuals(full)
        return residuals

    warm = FrozenPricer(s, config)
    r0 = warm.residuals(theta)
    passes = []
    real_sums = pricing._left_point_sums

    def counting(*args, **kwargs):
        passes.append(args[1])
        return real_sums(*args, **kwargs)

    monkeypatch.setattr(pricing, "_left_point_sums", counting)
    jac = _fd_jacobian(on(lambda: warm), theta[free], r0, steps, lb, ub, order)
    assert len(passes) == 2 and all(p.sigma0 == 1.0 for p in passes)
    monkeypatch.undo()
    cold = _fd_jacobian(on(lambda: FrozenPricer(s, config)), theta[free], r0, steps, lb,
                        ub, order)
    assert np.array_equal(jac, cold)


def test_fd_jacobian_is_stable_across_the_control_tail_rule():
    # the controls fade out as 4 xi^2 T^{2H} reaches log(pairs) (`pricing._controlled`).
    # A xi step from just below that edge to just above it is a forward difference
    # across a kink of a continuous price: its column lies between the columns on
    # either side of the edge, where a price that jumped would put it at jump / step
    s = small_structure()
    config = fast_config()  # 2000 priced paths: 1000 pairs, one block
    bounds = config.effective_bounds()
    steps = _FD_REL_STEP * bounds.width
    xi = PARAM_NAMES.index("xi")
    h = steps[xi]
    T, H = max(s.maturities), THETA.H
    edge = np.sqrt(np.log(1000) / (4.0 * T ** (2.0 * H)))
    pricer = FrozenPricer(s, config)

    def column(at):
        theta = replace(THETA, xi=at).as_array()
        jac = _fd_jacobian(pricer.residuals, theta, pricer.residuals(theta), steps,
                           bounds.lower, bounds.upper, [xi])
        return jac[:, xi]

    across = column(edge - 0.3 * h)
    below, above = column(edge - 2.3 * h), column(edge + 1.7 * h)
    assert np.all(np.isfinite(across))
    slack = 1e-2 * np.abs([below, above]).max()
    assert np.all(across >= np.minimum(below, above) - slack)
    assert np.all(across <= np.maximum(below, above) + slack)


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
