"""Pricing tests: Black-Scholes reference values, estimator unbiasedness and variance
reduction, and whole-chain consistency. BS references computed at 30-digit precision."""
import datetime as dt
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import special

from roughvol import calibration, pricing, stats
from roughvol.calibration import CalibrationConfig, FrozenPricer, ParamBounds
from roughvol import fbm
from roughvol.fbm import (PATH_BLOCK, PathBundle, TimeGrid, build_joint_covariance,
                          sample_paths)
from roughvol.market import OptionQuote, OptionStructure, compute_weights
from roughvol.model import MarketEnv, ModelParams, volatility_paths
from roughvol.pricing import (
    ESTIMATORS,
    PriceEstimate,
    black_scholes_call,
    chain_estimates,
    price_chain,
    _pool_estimates,
)
from roughvol.stats import significance_test

# parameters of the reported rough-Bergomi fit, a realistic stress point for the
# estimators (vol-of-vol ~ 1, rough paths)
FIT_PARAMS = ModelParams(sigma0=0.0782, rho=-0.1792, H=0.2324, xi=0.9875, alpha=1.0)


# ---------------------------------------------------------------------------
# Black-Scholes reference


@pytest.mark.parametrize("spot,strike,rate,vol,maturity,expected", [
    (100.0, 100.0, 0.0, 0.2, 1.0, 7.96556745540579629),
    (100.0, 95.0, 0.05, 0.25, 0.5, 11.0775206784954114),
    (100.0, 120.0, 0.0, 0.3, 2.0, 10.1293524709632522),
])
def test_black_scholes_reference(spot, strike, rate, vol, maturity, expected):
    assert black_scholes_call(spot, strike, rate, vol, maturity) == pytest.approx(
        expected, rel=1e-13)


def test_black_scholes_degenerate_cases():
    assert black_scholes_call(100.0, 90.0, 0.0, 0.0, 1.0) == 10.0
    assert black_scholes_call(100.0, 110.0, 0.0, 0.0, 1.0) == 0.0
    assert black_scholes_call(100.0, 100.0, 0.0, 0.2, 0.0) == 0.0
    # strike -> 0 limit: the call is worth the spot
    assert black_scholes_call(100.0, 1e-12, 0.0, 0.2, 1.0) == pytest.approx(100.0)
    # deep out of the money
    assert black_scholes_call(100.0, 300.0, 0.0, 0.1, 0.5) < 1e-12


def test_black_scholes_validation():
    with pytest.raises(ValueError):
        black_scholes_call(0.0, 100.0, 0.0, 0.2, 1.0)
    with pytest.raises(ValueError):
        black_scholes_call(100.0, -5.0, 0.0, 0.2, 1.0)
    with pytest.raises(ValueError):
        black_scholes_call(100.0, 100.0, 0.0, -0.2, 1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("position", range(5),
                         ids=["spot", "strike", "rate", "vol", "maturity"])
def test_black_scholes_refuses_nan_and_inf(position, value):
    # NaN fails every comparison, so a check written as `x <= 0` would let it through
    args = [100.0, 100.0, 0.0, 0.2, 1.0]
    args[position] = value
    with pytest.raises(ValueError, match="finite"):
        black_scholes_call(*args)


# ---------------------------------------------------------------------------
# estimators on (effectively) constant volatility


@pytest.fixture(scope="module")
def flat_setup():
    grid = TimeGrid.regular(1.0, 32)
    cov = build_joint_covariance(grid, 0.3)
    bundle = sample_paths(cov, 40_000, seed=77)
    return grid, bundle


def test_plain_estimator_recovers_black_scholes(flat_setup):
    grid, bundle = flat_setup
    p = ModelParams(sigma0=0.2, rho=-0.5, H=0.3, xi=1e-300, alpha=0.0)
    env = MarketEnv(spot=100.0, rate=0.01)
    est = chain_estimates(bundle, p, env, [(100.0, 1.0)], estimator="plain")[0]
    target = black_scholes_call(100.0, 100.0, 0.01, 0.2, 1.0)
    assert est.std_error > 0.0
    assert abs(est.price - target) < 3.0 * est.std_error


def test_conditional_estimator_is_exact_when_uncorrelated(flat_setup):
    # rho = 0 and flat vol: every path contributes the same Black-Scholes value
    grid, bundle = flat_setup
    p = ModelParams(sigma0=0.2, rho=0.0, H=0.3, xi=1e-300, alpha=0.0)
    env = MarketEnv(spot=100.0, rate=0.01)
    est = chain_estimates(bundle, p, env, [(100.0, 1.0)])[0]
    # identical per-path values collapse to a zero standard error exactly
    assert est.std_error == 0.0
    assert est.price == pytest.approx(
        black_scholes_call(100.0, 100.0, 0.01, 0.2, 1.0), rel=1e-12)


def test_conditional_estimator_unbiased_with_correlation(flat_setup):
    grid, bundle = flat_setup
    p = ModelParams(sigma0=0.2, rho=-0.5, H=0.3, xi=1e-300, alpha=0.0)
    env = MarketEnv(spot=100.0, rate=0.0)
    est = chain_estimates(bundle, p, env, [(100.0, 1.0)])[0]
    target = black_scholes_call(100.0, 100.0, 0.0, 0.2, 1.0)
    assert est.std_error > 0.0
    assert abs(est.price - target) < 3.0 * est.std_error


# ---------------------------------------------------------------------------
# estimators on the rough model


@pytest.fixture(scope="module")
def rough_setup():
    grid = TimeGrid.regular(1.0, 32)
    cov = build_joint_covariance(grid, FIT_PARAMS.H)
    bundle = sample_paths(cov, 60_000, seed=123)
    env = MarketEnv(spot=100.0, rate=0.0)
    return grid, bundle, env


def test_estimators_agree_on_shared_paths(rough_setup):
    grid, bundle, env = rough_setup
    for strike in (90.0, 100.0, 110.0):
        plain = chain_estimates(bundle, FIT_PARAMS, env, [(strike, 1.0)],
                                estimator="plain")[0]
        cond = chain_estimates(bundle, FIT_PARAMS, env, [(strike, 1.0)])[0]
        gap = abs(plain.price - cond.price)
        assert gap < 3.0 * np.hypot(plain.std_error, cond.std_error), strike


@pytest.mark.parametrize("strike", [100.0, 120.0])
def test_conditional_estimator_reduces_variance(rough_setup, strike):
    grid, bundle, env = rough_setup
    plain = chain_estimates(bundle, FIT_PARAMS, env, [(strike, 1.0)],
                            estimator="plain")[0]
    cond = chain_estimates(bundle, FIT_PARAMS, env, [(strike, 1.0)])[0]
    assert cond.std_error < plain.std_error


def test_offgrid_maturity_rejected(rough_setup):
    grid, bundle, env = rough_setup
    with pytest.raises(ValueError, match="not a grid node"):
        chain_estimates(bundle, FIT_PARAMS, env, [(100.0, 0.513)], estimator="plain")[0]
    with pytest.raises(ValueError, match="not a grid node"):
        chain_estimates(bundle, FIT_PARAMS, env, [(100.0, 0.513)])[0]


# ---------------------------------------------------------------------------
# chain pricing


def test_chain_request_validation():
    env = MarketEnv(spot=100.0)
    with pytest.raises(ValueError):
        price_chain((), env, FIT_PARAMS, path_count=100, steps_per_year=12, seed=0)
    with pytest.raises(ValueError):
        price_chain(((0.0, 1.0),), env, FIT_PARAMS, path_count=100, steps_per_year=12,
                    seed=0)
    with pytest.raises(ValueError):
        price_chain(((100.0, -1.0),), env, FIT_PARAMS, path_count=100,
                    steps_per_year=12, seed=0)
    with pytest.raises(ValueError):
        price_chain(((100.0, 1.0),), env, FIT_PARAMS, path_count=100, steps_per_year=12,
                    seed=0, estimator="antithetic")


BAD_CHAIN_INPUTS = [
    (dict(options=((float("nan"), 1.0),)), "strikes must be positive and finite"),
    (dict(options=((float("inf"), 1.0),)), "strikes must be positive and finite"),
    (dict(options=((-5.0, 1.0),)), "strikes must be positive and finite"),
    (dict(options=((100.0, float("nan")),)), "maturities must be positive and finite"),
    (dict(options=((100.0, float("inf")),)), "maturities must be positive and finite"),
    (dict(options=((100.0, 0.0),)), "maturities must be positive and finite"),
    (dict(path_count=0), "path_count must be >= 1"),
    (dict(path_count=-3), "path_count must be >= 1"),
    (dict(estimator="antithetic"), "estimator must be one of"),
]
BAD_CHAIN_IDS = ["nan-strike", "inf-strike", "negative-strike", "nan-maturity",
                 "inf-maturity", "zero-maturity", "zero-paths", "negative-paths",
                 "unknown-estimator"]


@pytest.mark.parametrize("bad,msg", BAD_CHAIN_INPUTS, ids=BAD_CHAIN_IDS)
def test_price_chain_rejects_bad_inputs(bad, msg):
    # a NaN compares false against every bound, so it must fail the check, not pass it
    kwargs = dict(options=((100.0, 0.5),), env=MarketEnv(spot=100.0), params=FIT_PARAMS,
                  path_count=100, steps_per_year=12, seed=0) | bad
    with pytest.raises(ValueError, match=msg):
        price_chain(**kwargs)


# every case but the last, the unknown estimator: significance fixes the estimator
@pytest.mark.parametrize("bad,msg", BAD_CHAIN_INPUTS[:-1], ids=BAD_CHAIN_IDS[:-1])
def test_significance_rejects_bad_inputs(bad, msg, monkeypatch):
    # its options and path count fail price_chain's check, before any covariance build
    builds = []
    monkeypatch.setattr(stats, "build_joint_covariance", lambda *args: builds.append(args))
    kwargs = dict(options=((100.0, 0.5),), path_count=100) | bad
    quotes = [OptionQuote(strike=k, maturity=t, bid=0.9, ask=1.1, close=1.0)
              for k, t in kwargs["options"]]
    structure = OptionStructure(quotes=quotes, env=MarketEnv(spot=100.0),
                                trade_date=dt.date(2026, 1, 2), weights=[1.0])
    with pytest.raises(ValueError, match=msg):
        significance_test(structure, FIT_PARAMS, FIT_PARAMS, repetitions=2,
                          path_count=kwargs["path_count"], steps_per_year=12)
    assert builds == []


def _block_of(bundle: PathBundle, b: int) -> PathBundle:
    """Path block b of a whole draw: a bundle of views of its rows."""
    rows = slice(b * PATH_BLOCK, (b + 1) * PATH_BLOCK)
    w_tilde = bundle.w_tilde_increments
    return PathBundle(bundle.fbm_paths[rows], bundle.w_increments[rows],
                      None if w_tilde is None else w_tilde[rows], bundle.grid)


def test_price_chain_matches_manual_assembly():
    # 16 000 priced paths are 8000 base draws with their mirrors, in two blocks
    env = MarketEnv(spot=100.0, rate=0.0)
    options = ((90.0, 0.5), (100.0, 0.5), (100.0, 1.0), (110.0, 1.0))
    chain = price_chain(options, env, FIT_PARAMS, path_count=16_000, steps_per_year=12,
                        seed=31)

    grid = TimeGrid.with_maturities([0.5, 1.0], 12)
    cov = build_joint_covariance(grid, FIT_PARAMS.H)
    bundle = sample_paths(cov, 8000, seed=31)
    # the reference prices each path block of the whole draw on its own and pools the
    # blocks in order
    per_block = []
    for b in range(2):
        part = _block_of(bundle, b)
        per_block.append([chain_estimates(part, FIT_PARAMS, env, [(k, t)])[0]
                          for k, t in options])
    for est, parts in zip(chain, zip(*per_block)):
        manual = _pool_estimates(parts)
        assert est.price == manual.price
        assert est.std_error == manual.std_error
        assert est.path_count == 16_000
    # and agrees with one whole-bundle assembly up to the rounding of the pooled sums
    for (strike, maturity), est in zip(options, chain):
        whole = chain_estimates(bundle, FIT_PARAMS, env, [(strike, maturity)])[0]
        assert est.price == pytest.approx(whole.price, rel=1e-13)
        assert est.std_error == pytest.approx(whole.std_error, rel=1e-10)


#: a grid of n = 303 steps, whose fresh conditional blocks stream in two row panels of
#: 2048 paths; the last block of 7096 base paths has 3000 rows, so a short last panel
PANEL_GRID_STEPS, PANEL_DRAWS = 300, PATH_BLOCK + 3000


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_price_chain_over_row_panels_prices_the_whole_draw(estimator, threads):
    # a conditional block priced from the unit sums of its row panels, and a plain one
    # from its single panel (dW~ follows all of Z), give the estimates, moments
    # included, of pricing the blocks of the whole sample_paths draw
    env = MarketEnv(spot=100.0, rate=0.01)
    options = ((90.0, 0.25), (100.0, 0.25), (105.0, 0.5), (100.0, 1.0), (90.0, 0.25))
    grid = TimeGrid.with_maturities([0.25, 0.5, 1.0], PANEL_GRID_STEPS)
    assert fbm._panel_rows(grid.n) == 2048 and PANEL_DRAWS % 2048 == 952
    path_count = PANEL_DRAWS * (2 if estimator == "conditional_mixed" else 1)
    chain = price_chain(options, env, FIT_PARAMS, path_count, PANEL_GRID_STEPS, seed=19,
                        estimator=estimator, threads=threads)
    cov = build_joint_covariance(grid, FIT_PARAMS.H)
    bundle = sample_paths(cov, PANEL_DRAWS, seed=19, orthogonal=estimator == "plain")
    per_block = [chain_estimates(_block_of(bundle, b), FIT_PARAMS, env, options,
                                 estimator=estimator) for b in range(2)]
    for est, parts in zip(chain, zip(*per_block)):
        whole = _pool_estimates(parts)
        assert est == whole and est._moments == whole._moments
        assert est.path_count == path_count


def test_a_fresh_block_over_row_panels_holds_one_panel_of_draws():
    # a conditional block at n = 1011 streams four panels of 1024 rows: pricing it
    # allocates one panel of draws (16.6 MB, a quarter of the block's 66 MB), the draw
    # and left-point panel temporaries (2 MB each, at most two at a time) and the sums
    # (I2 and I1 of each path and its mirror at two maturities: 0.26 MB for the block,
    # a quarter of that per panel), under a third of the block's draws in all
    grid = TimeGrid.with_maturities([0.25, 1.0], 1008)
    cov = build_joint_covariance(grid, FIT_PARAMS.H)
    options = ((95.0, 0.25), (100.0, 0.25), (105.0, 1.0))
    n, rows = grid.n, fbm._panel_rows(grid.n)
    assert rows == 1024
    panel, block = rows * 2 * n * 8, PATH_BLOCK * 2 * n * 8
    temporaries = 2 * fbm._CHUNK_ENTRIES * 8
    sums = 2 * 2 * (2 * PATH_BLOCK) * 8
    tracemalloc.start()
    try:
        (est, *_) = pricing._fresh_blocks(cov, FIT_PARAMS, MarketEnv(spot=100.0), options,
                                          2 * PATH_BLOCK, 3, "conditional_mixed", 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.path_count == 2 * PATH_BLOCK
    assert panel < peak <= panel + temporaries + 2 * sums < block / 3


def test_price_chain_plain_estimator():
    env = MarketEnv(spot=100.0, rate=0.0)
    (est,) = price_chain(((100.0, 1.0),), env, FIT_PARAMS, path_count=8000,
                         steps_per_year=12, seed=31, estimator="plain")
    assert est.estimator == "plain"
    assert est.path_count == 8000


def test_chain_prices_decrease_in_strike():
    env = MarketEnv(spot=100.0, rate=0.0)
    strikes = (70.0, 85.0, 100.0, 115.0, 130.0)
    prices = [e.price for e in price_chain([(k, 1.0) for k in strikes], env, FIT_PARAMS,
                                           path_count=4000, steps_per_year=12, seed=8)]
    assert np.all(np.diff(prices) < 0.0)


def test_chain_prices_respect_static_bounds():
    env = MarketEnv(spot=100.0, rate=0.02)
    options = tuple((k, t) for k in (80.0, 100.0, 120.0) for t in (0.25, 1.0))
    for (k, t), est in zip(options, price_chain(options, env, FIT_PARAMS,
                                                path_count=20_000, steps_per_year=24,
                                                seed=4)):
        lower = max(0.0, 100.0 - k * np.exp(-0.02 * t))
        assert lower - 3 * est.std_error <= est.price <= 100.0


def test_price_chain_deterministic_across_threads():
    env = MarketEnv(spot=100.0, rate=0.0)
    kwargs = dict(options=((100.0, 0.5), (110.0, 1.0)), env=env, params=FIT_PARAMS,
                  path_count=6000, steps_per_year=12, seed=99)
    one = price_chain(**kwargs, threads=1)
    four = price_chain(**kwargs, threads=4)
    assert [e.price for e in one] == [e.price for e in four]
    assert [e.std_error for e in one] == [e.std_error for e in four]


def test_chain_estimates_requires_known_estimator(rough_setup):
    grid, bundle, env = rough_setup
    single = chain_estimates(bundle, FIT_PARAMS, env, ((100.0, 1.0),), estimator="plain")
    assert single[0].estimator == "plain"
    with pytest.raises(ValueError, match=re.escape(str(ESTIMATORS))):
        chain_estimates(bundle, FIT_PARAMS, env, ((100.0, 1.0),), estimator="plian")


@pytest.mark.parametrize("entry", ["price_chain", "chain_estimates"])
def test_unknown_estimator_message_names_the_value(entry):
    # one message at every public entry, with the rejected value
    grid = TimeGrid.with_maturities([0.5], 12)
    env, options = MarketEnv(spot=100.0), ((100.0, 0.5),)
    calls = {
        "price_chain": lambda: price_chain(options, env, FIT_PARAMS, path_count=100,
                                           steps_per_year=12, seed=0, estimator="x"),
        "chain_estimates": lambda: chain_estimates(
            sample_paths(build_joint_covariance(grid, FIT_PARAMS.H), 10, seed=0),
            FIT_PARAMS, env, options, estimator="x"),
    }
    expected = f"estimator must be one of {ESTIMATORS}, got 'x'"
    with pytest.raises(ValueError, match=re.escape(expected)):
        calls[entry]()


def test_price_chain_checks_its_options_once(monkeypatch):
    checked, real = [], pricing._checked_options

    def spy(*args):
        checked.append(args)
        return real(*args)

    monkeypatch.setattr(pricing, "_checked_options", spy)
    price_chain(((100.0, 0.5), (90.0, 0.25)), MarketEnv(spot=100.0), FIT_PARAMS,
                path_count=2 * PATH_BLOCK + 10, steps_per_year=12, seed=0)
    assert len(checked) == 1


def test_plain_estimator_needs_the_orthogonal_increments():
    grid = TimeGrid.regular(1.0, 4)
    bundle = sample_paths(build_joint_covariance(grid, FIT_PARAMS.H), 50, seed=2,
                          orthogonal=False)
    env = MarketEnv(spot=100.0)
    with pytest.raises(ValueError, match="orthogonal"):
        chain_estimates(bundle, FIT_PARAMS, env, ((100.0, 1.0),), estimator="plain")
    assert chain_estimates(bundle, FIT_PARAMS, env, ((100.0, 1.0),))[0].price > 0.0


def reference_pairs(params, bundle, env, options, sigma0_inside=False):
    """The conditional estimator written out per option: whole-path volatilities,
    concatenated left-point volatilities, the Wiener increments and one full
    Black-Scholes pass for every quote, on the bundle and on its mirror (-B^H, -dW).
    The sums are taken at sigma0 = 1 and scaled by sigma0 and sigma0^2, as the
    estimator takes them, or with ``sigma0_inside`` from the volatilities at sigma0
    itself. Returns, per option, the pair means of the values and of the controls
    S_eff - S0, I2 - E[I2] (3 x pairs), with E[I2] = sigma0^2 sum exp((2 - alpha) xi^2
    t_{k-1}^{2H}) dt_k."""
    grid = bundle.grid
    rho = params.rho
    scale = 1.0 if sigma0_inside else params.sigma0
    unit = params if sigma0_inside else replace(params, sigma0=1.0)
    left = np.concatenate(([0.0], grid.times[:-1]))
    mean_var = params.sigma0**2 * np.cumsum(
        np.exp((2.0 - params.alpha) * params.xi**2 * left ** (2.0 * params.H))
        * grid.deltas)
    per_path = [[] for _ in options]
    for fbm_paths, dw in ((bundle.fbm_paths, bundle.w_increments),
                          (-bundle.fbm_paths, -bundle.w_increments)):
        sigma = volatility_paths(fbm_paths, unit, grid.times)
        n_paths, n = sigma.shape
        sig_left = np.concatenate([np.full((n_paths, 1), unit.sigma0),
                                   sigma[:, : n - 1]], axis=1)
        cum_var = np.cumsum(sig_left**2 * grid.deltas, axis=1)
        cum_sdw = np.cumsum(sig_left * dw, axis=1)
        for values_of, (strike, t) in zip(per_path, options):
            idx = grid.index_of(t)
            int_sdw, int_var = cum_sdw[:, idx], cum_var[:, idx]
            if not sigma0_inside:
                int_sdw, int_var = scale * int_sdw, scale**2 * int_var
            spot = env.spot * np.exp(rho * int_sdw - 0.5 * rho**2 * int_var)
            totvar = (1.0 - rho**2) * int_var
            disc_k = strike * np.exp(-env.rate * t)
            values = np.maximum(spot - disc_k, 0.0)
            pos = (totvar > 0.0) & (spot > 0.0)
            sq = np.sqrt(totvar[pos])
            s = spot[pos]
            d1 = (np.log(s / strike) + env.rate * t) / sq + 0.5 * sq
            values[pos] = s * special.ndtr(d1) - disc_k * special.ndtr(d1 - sq)
            values_of.append((values, spot, int_var, int_sdw))
    pairs = []
    for (_, t), (base, mirror) in zip(options, per_path):
        y, *controls = (0.5 * (b + m) for b, m in zip(base, mirror))
        controls[0] = controls[0] - env.spot
        controls[1] = controls[1] - mean_var[grid.index_of(t)]
        pairs.append((y, np.array(controls)))
    return pairs


def sample_mean_se(values):
    """numpy's mean and standard error of each row of ``values``, samples along the
    last axis: the oracle of an estimate without controls."""
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    return values.mean(axis=-1), values.std(axis=-1, ddof=1) / math.sqrt(n)


def reference_conditional(params, bundle, env, options, sigma0_inside=False,
                          controlled=True):
    """`reference_pairs` estimated as the estimator does: the regression of the
    values on the controls (`pricing._regression_estimates`), or without
    ``controlled`` the mean and SE of the pair means, the uncontrolled oracle."""
    estimates = []
    for (_, t), (y, controls) in zip(options, reference_pairs(params, bundle, env,
                                                             options, sigma0_inside)):
        if controlled:
            tail = 4.0 * params.xi**2 * t ** (2.0 * params.H)
            (price, se, _), = pricing._regression_estimates(y[None, :], controls, tail)
            estimates.append((price, se))
        else:
            estimates.append(tuple(map(float, sample_mean_se(y))))
    return estimates


def ols(y, controls):
    """Price and SE of y regressed on ``controls`` (rows, exact mean 0) by least
    squares with an intercept: the intercept, and the residuals' SE with
    1 + len(controls) degrees of freedom spent."""
    n = y.size
    design = np.column_stack([np.ones(n), *controls])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return coef[0], math.sqrt(resid @ resid / (n - 1 - len(controls)) / n)


def test_chain_estimates_equal_per_option_reference():
    env = MarketEnv(spot=100.0, rate=0.02)
    options = ((110.0, 1.0), (90.0, 0.25), (100.0, 1.0), (100.0, 0.25), (95.0, 0.5),
               (120.0, 1.0))
    grid = TimeGrid.with_maturities([0.25, 0.5, 1.0], 12)
    bundle = sample_paths(build_joint_covariance(grid, FIT_PARAMS.H), 3000, seed=12)
    estimates = chain_estimates(bundle, FIT_PARAMS, env, options)
    got = [(e.price, e.std_error) for e in estimates]
    assert got == reference_conditional(FIT_PARAMS, bundle, env, options)
    # sigma0 inside the sums gives the same prices and regression moments up to the
    # sums' rounding. The SE is not compared: RSS = syy - |fit|^2 cancels, and the
    # conditioning of the controls' cross products amplifies the moments' rounding
    inside = reference_pairs(FIT_PARAMS, bundle, env, options, sigma0_inside=True)
    for est, (_, t), (y, controls) in zip(estimates, options, inside):
        tail = 4.0 * FIT_PARAMS.xi**2 * t ** (2.0 * FIT_PARAMS.H)
        (price, _, moments), = pricing._regression_estimates(y[None, :], controls, tail)
        assert_allclose(est.price, price, rtol=1e-13, atol=0.0)
        for got_moment, moment in zip(est._moments[1:3], moments[1:3]):
            assert_allclose(got_moment, moment, rtol=1e-13, atol=0.0)


def test_repeated_quotes_are_priced_once(monkeypatch):
    # each distinct strike of a maturity goes through Black-Scholes once, and every
    # copy of a quote gets the estimate of the chain without repeats
    env = MarketEnv(spot=100.0, rate=0.02)
    distinct = ((110.0, 1.0), (90.0, 0.25), (100.0, 1.0), (100.0, 0.25), (95.0, 0.5))
    copies = [1, 0, 3, 3, 1, 4, 0, 2, 1]
    repeated = tuple(distinct[i] for i in copies)
    grid = TimeGrid.with_maturities([0.25, 0.5, 1.0], 12)
    bundle = sample_paths(build_joint_covariance(grid, FIT_PARAMS.H), 1000, seed=12)
    for estimator in ESTIMATORS:
        once = chain_estimates(bundle, FIT_PARAMS, env, distinct, estimator=estimator)
        got = chain_estimates(bundle, FIT_PARAMS, env, repeated, estimator=estimator)
        assert got == [once[i] for i in copies]
    seen = []
    real_bs = pricing._bs_calls

    def recording(spot, totvar, strikes, rate, maturity):
        seen.append((maturity, sorted(strikes)))
        return real_bs(spot, totvar, strikes, rate, maturity)

    monkeypatch.setattr(pricing, "_bs_calls", recording)
    chain_estimates(bundle, FIT_PARAMS, env, repeated)
    assert sorted(seen) == [(0.25, [90.0, 100.0]), (0.5, [95.0]), (1.0, [100.0, 110.0])]


# ---------------------------------------------------------------------------
# streamed block pricing


def _estimate(values, controls=None):
    """A plain estimate of ``values``, the regression on no controls, or with
    ``controls`` (3 x len(values)) the conditional estimator's regression on them."""
    values = np.asarray(values, dtype=float)
    if controls is None:
        (price, se, moments), = pricing._regression_estimates(
            values[None, :], np.empty((0, len(values))), 0.0)
        return PriceEstimate(price, se, "plain", len(values), moments)
    (price, se, moments), = pricing._regression_estimates(values[None, :], controls, 0.0)
    return PriceEstimate(price, se, "conditional_mixed", 2 * len(values), moments)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=st.lists(st.floats(0.0, 1e3), min_size=2, max_size=60),
       cuts=st.sets(st.integers(1, 59), max_size=6), controlled=st.booleans())
@example(values=[5e-324, 5e-324, 0.0], cuts={1}, controlled=False)
def test_pooled_estimate_matches_whole_sample(values, cuts, controlled):
    bounds = [0, *sorted(c for c in cuts if c < len(values)), len(values)]
    controls = None
    if controlled:  # three normal controls, the first correlated with the values
        controls = np.random.default_rng(len(values)).standard_normal((3, len(values)))
        controls[0] += 1e-3 * np.asarray(values)
    parts = [_estimate(values[lo:hi], None if controls is None else controls[:, lo:hi])
             for lo, hi in zip(bounds, bounds[1:])]
    pooled = _pool_estimates(parts)
    whole = _estimate(values, controls)
    # the SE of a near-constant sample is itself rounding noise of size eps * |x|.
    # Below the normal range a part mean rounds to a multiple of the smallest
    # subnormal, and squares of values under ~1e-154 do too, so the means can differ
    # by that step and the SEs by its square root.
    floor = 1e-12 * max(values)
    tiny = math.ulp(0.0)
    assert pooled.price == pytest.approx(whole.price, rel=1e-12, abs=max(floor, tiny))
    assert pooled.std_error == pytest.approx(whole.std_error, rel=1e-12,
                                             abs=max(floor, math.sqrt(tiny)))
    assert pooled.path_count == whole.path_count


def test_pooled_constant_sample_has_zero_se():
    values = [0.1 * 3] * 9  # 0.30000000000000004: n * value / n would round
    pooled = _pool_estimates([_estimate(values[:4]), _estimate(values[4:8]),
                              _estimate(values[8:])])
    assert pooled.price == values[0]
    assert pooled.std_error == 0.0
    assert pooled.path_count == 9


def test_pooled_last_block_of_one_path():
    values = [1.0, 4.0, 2.5, 7.0, 3.25]
    pooled = _pool_estimates([_estimate(values[:4]), _estimate(values[4:])])
    mean, se = sample_mean_se(values)
    assert pooled.price == pytest.approx(mean, rel=1e-14)
    assert pooled.std_error == pytest.approx(se, rel=1e-14)


@pytest.mark.parametrize("params", [
    FIT_PARAMS, ModelParams(sigma0=0.2, rho=0.0, H=0.3, xi=1e-300, alpha=0.0)],
    ids=["rough", "constant-pairs"])
def test_pooled_estimates_carry_the_moments_of_every_block(monkeypatch, params):
    # 20000 paths are 3 conditional blocks (10000 pairs) and 5 plain ones. At xi ~ 0
    # and rho 0 every pair is priced at one Black-Scholes value, so the blocks are
    # constant; their pooled moments must still count every sample of the union
    quotes = [OptionQuote(strike=k, maturity=t, bid=1.0, ask=1.2, close=1.1)
              for k, t in ((95.0, 0.25), (105.0, 0.5), (100.0, 1.0))]
    structure = OptionStructure(quotes=quotes, env=MarketEnv(spot=100.0, rate=0.01),
                                trade_date=dt.date(2026, 1, 2),
                                weights=compute_weights(quotes))
    estimates = [e for estimator in ESTIMATORS
                 for e in price_chain(structure.options, structure.env, params, 20_000,
                                      steps_per_year=12, seed=7, estimator=estimator)]

    def recording(*args, **kwargs):
        out = pricing._block_estimates(*args, **kwargs)
        estimates.extend(out)
        return out

    monkeypatch.setattr(calibration, "_block_estimates", recording)
    config = CalibrationConfig(path_count=20_000, steps_per_year=12, seed=7)
    FrozenPricer(structure, config).priced(params)
    assert len(estimates) == 3 * (len(ESTIMATORS) + 1)
    for e in estimates:
        assert e._moments[0] * pricing._PATHS_PER_SAMPLE[e.estimator] == e.path_count
        assert e.path_count == 20_000


@pytest.mark.parametrize("estimator", ["conditional_mixed", "plain"])
@pytest.mark.parametrize("path_count", [1, PATH_BLOCK, PATH_BLOCK + 1,
                                        2 * PATH_BLOCK + 10, 4 * PATH_BLOCK + 21])
def test_price_chain_matches_single_bundle(estimator, path_count):
    # the block-pooled estimates are those of one chain_estimates over the union of
    # the same draws: paths for the plain estimator, ceil(N / 2) mirrored pairs for
    # the conditional one, which so prices N + 1 paths at an odd N. One sample, a path
    # or a pair, is priced at its value with standard error 0
    env = MarketEnv(spot=100.0, rate=0.01)
    options = ((95.0, 0.25), (105.0, 0.25), (100.0, 1.0))
    per_draw = 1 if estimator == "plain" else 2
    draws = -(-path_count // per_draw)
    grid = TimeGrid.with_maturities([0.25, 1.0], 12)
    bundle = sample_paths(build_joint_covariance(grid, FIT_PARAMS.H), draws, seed=5)
    whole = chain_estimates(bundle, FIT_PARAMS, env, options, estimator=estimator)
    runs = [price_chain(options, env, FIT_PARAMS, path_count, steps_per_year=12, seed=5,
                        estimator=estimator, threads=t) for t in (1, 2, 4)]
    for est, ref in zip(runs[0], whole):
        assert est.price == pytest.approx(ref.price, rel=1e-13)
        assert est.std_error == pytest.approx(ref.std_error, rel=1e-10)
        assert est.path_count == ref.path_count == per_draw * draws
        if draws == 1:
            assert (est.price, est.std_error) == (ref.price, 0.0)
    for other in runs[1:]:
        assert other == runs[0]


@pytest.mark.parametrize("threads", [1, 2])
def test_odd_path_count_rounds_up_to_whole_pairs(threads):
    # ceil(N / 2) pairs: an odd N prices exactly what N + 1 does; plain prices N paths
    env = MarketEnv(spot=100.0, rate=0.01)

    def priced(path_count, estimator="conditional_mixed"):
        return price_chain(((95.0, 0.25), (105.0, 1.0)), env, FIT_PARAMS, path_count,
                           steps_per_year=12, seed=8, estimator=estimator,
                           threads=threads)

    for odd in (1, 2 * PATH_BLOCK + 1):
        rounded = priced(odd)
        assert rounded == priced(odd + 1)
        assert {e.path_count for e in rounded} == {odd + 1}
        assert {e.path_count for e in priced(odd, "plain")} == {odd}


def _traced_peak(path_count: int) -> int:
    tracemalloc.start()
    try:
        price_chain(((95.0, 0.5), (105.0, 1.0)), MarketEnv(spot=100.0), FIT_PARAMS,
                    path_count, steps_per_year=24, seed=3, threads=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_price_chain_memory_does_not_grow_with_path_count():
    # numpy reports its array allocations to tracemalloc
    small = _traced_peak(2 * PATH_BLOCK)
    large = _traced_peak(8 * PATH_BLOCK)
    assert large <= 1.25 * small


@pytest.fixture(scope="module")
def production_block():
    grid = TimeGrid.with_maturities([0.25, 1.0], 1008)
    return sample_paths(build_joint_covariance(grid, FIT_PARAMS.H), PATH_BLOCK, seed=6)


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_chain_estimates_memory_below_one_path_array(production_block, estimator):
    # one path block at 1008 steps/yr: both estimators form the volatilities and sum
    # them in row sub-blocks, so neither holds a (paths x n) array, sigma included
    bundle = production_block
    options = ((95.0, 0.25), (100.0, 0.25), (105.0, 1.0))
    env = MarketEnv(spot=100.0, rate=0.01)
    tracemalloc.start()
    try:
        chain_estimates(bundle, FIT_PARAMS, env, options, estimator=estimator)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bundle.fbm_paths.nbytes


# ---------------------------------------------------------------------------
# no-arbitrage properties on shared paths

PROPERTY_GRID = TimeGrid.with_maturities([0.25, 0.5, 1.0], 12)
PROPERTY_BUNDLE = sample_paths(build_joint_covariance(PROPERTY_GRID, FIT_PARAMS.H), 400,
                               seed=2024)

# vol-of-vol up to 1.2: beyond it, uncorrected (alpha = 0) volatility is so heavy-tailed
# that 400 paths understate the standard error of the plain estimator
rough_params = st.builds(
    ModelParams, sigma0=st.floats(0.05, 0.3), rho=st.floats(-0.95, 0.5),
    H=st.just(FIT_PARAMS.H), xi=st.floats(0.1, 1.2), alpha=st.floats(0.0, 1.0))
property_env = st.builds(MarketEnv, spot=st.just(100.0), rate=st.floats(0.0, 0.05))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(params=rough_params, env=property_env, maturity=st.sampled_from([0.25, 0.5, 1.0]),
       low=st.floats(40.0, 160.0), step=st.floats(0.5, 20.0),
       count=st.integers(3, 7), estimator=st.sampled_from(ESTIMATORS))
def test_chain_prices_monotone_and_convex_in_strike(params, env, maturity, low, step,
                                                    count, estimator):
    options = [(low + i * step, maturity) for i in range(count)]
    prices = np.array([e.price for e in chain_estimates(PROPERTY_BUNDLE, params, env,
                                                        options, estimator)])
    # every path's value is non-increasing and convex in the strike, so the averages
    # over the same paths are too; a stretch where every path ends in the money is
    # linear, and its second difference is rounding noise
    assert np.all(np.diff(prices) <= 0.0)
    assert np.all(np.diff(prices, 2) >= -1e-12 * env.spot)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(params=rough_params, env=property_env,
       strikes=st.lists(st.floats(20.0, 250.0), min_size=1, max_size=6),
       maturity=st.sampled_from([0.25, 0.5, 1.0]), estimator=st.sampled_from(ESTIMATORS))
def test_chain_prices_within_static_bounds(params, env, strikes, maturity, estimator):
    options = [(k, maturity) for k in strikes]
    for (k, t), est in zip(options, chain_estimates(PROPERTY_BUNDLE, params, env, options,
                                                    estimator)):
        lower = max(env.spot - k * np.exp(-env.rate * t), 0.0)
        # deep in the money at rho = 0 every path is worth the intrinsic value, and
        # price and SE are rounding noise around it
        slack = 4.0 * est.std_error + 1e-12 * env.spot
        assert lower - slack <= est.price <= env.spot + slack


#: the calibrator's default parameter box
BOX = ParamBounds.default()
box_params = st.builds(ModelParams, *(st.floats(lo, hi) for lo, hi in zip(BOX.lower,
                                                                          BOX.upper)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(params=box_params)
def test_antithetic_conditional_agrees_with_plain_over_the_default_box(params):
    # on shared draws: the mirrored conditional price is unbiased for the model the
    # plain estimator prices, and both respect the no-arbitrage bounds, each up to
    # 4 (combined) standard errors
    bundle = sample_paths(build_joint_covariance(PROPERTY_GRID, params.H), 2000, seed=99)
    env = MarketEnv(spot=100.0, rate=0.01)
    options = [(k, t) for t in (0.25, 1.0) for k in (80.0, 100.0, 120.0)]
    plain = chain_estimates(bundle, params, env, options, estimator="plain")
    cond = chain_estimates(bundle, params, env, options)
    for (k, t), p, c in zip(options, plain, cond):
        assert c.path_count == 2 * p.path_count
        floor = 1e-12 * env.spot  # a deep in-the-money price is exact up to rounding
        assert abs(p.price - c.price) <= 4.0 * np.hypot(p.std_error, c.std_error) + floor
        lower = max(env.spot - k * np.exp(-env.rate * t), 0.0)
        for est in (p, c):
            slack = 4.0 * est.std_error + floor
            assert lower - slack <= est.price <= env.spot + slack


@settings(max_examples=40, deadline=None, derandomize=True)
@given(params=box_params)
def test_unit_sums_price_as_sigma0_inside_over_the_default_box(params):
    # scaling the sigma0 = 1 sums by sigma0 and sigma0^2 rounds differently from
    # summing at sigma0, and no more than that
    grid = TimeGrid.with_maturities([0.25, 1.0], 12)
    bundle = sample_paths(build_joint_covariance(grid, params.H), 500, seed=31,
                          orthogonal=False)
    env = MarketEnv(spot=100.0, rate=0.01)
    options = [(k, t) for t in (0.25, 1.0) for k in (80.0, 100.0, 120.0)]
    got = [e.price for e in chain_estimates(bundle, params, env, options)]
    inside = reference_conditional(params, bundle, env, options, sigma0_inside=True)
    assert_allclose(got, [price for price, _ in inside], rtol=1e-12, atol=0.0)


PERMUTED_OPTIONS = ((90.0, 0.25), (100.0, 0.25), (100.0, 0.5), (95.0, 1.0),
                    (110.0, 1.0), (100.0, 1.0))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(order=st.permutations(range(len(PERMUTED_OPTIONS))),
       estimator=st.sampled_from(ESTIMATORS))
def test_price_chain_is_invariant_to_quote_order(order, estimator):
    env = MarketEnv(spot=100.0, rate=0.01)

    def priced(options):
        return price_chain(options, env, FIT_PARAMS, path_count=300, steps_per_year=12,
                           seed=17, estimator=estimator)

    base = priced(PERMUTED_OPTIONS)
    permuted = priced(tuple(PERMUTED_OPTIONS[i] for i in order))
    assert permuted == [base[i] for i in order]


# ---------------------------------------------------------------------------
# control variates


CONTROL_GRID = TimeGrid.with_maturities([0.25, 1.0], 12)


def _controlled_setup(params, paths=2000, seed=21):
    bundle = sample_paths(build_joint_covariance(CONTROL_GRID, params.H), paths,
                          seed=seed, orthogonal=False)
    env = MarketEnv(spot=100.0, rate=0.01)
    options = [(k, t) for t in (0.25, 1.0) for k in (80.0, 100.0, 120.0)]
    return bundle, env, options


@pytest.mark.parametrize("rho,dropped", [(0.0, {0}), (-1.0, set())],
                         ids=["rho0-no-spot-control", "rho-1-no-conditional-variance"])
def test_controlled_estimates_equal_least_squares(rho, dropped):
    # at rho = 0 S_eff is S0 on every path, so c1 is 0 and is dropped; at rho = -1
    # the conditional variance is 0 and each value is the intrinsic value of S_eff.
    # The estimate is the intercept of a least-squares fit on the kept controls
    params = replace(FIT_PARAMS, rho=rho)
    bundle, env, options = _controlled_setup(params)
    got = chain_estimates(bundle, params, env, options)
    for est, (y, controls) in zip(got, reference_pairs(params, bundle, env, options)):
        kept = [c for k, c in enumerate(controls) if k not in dropped]
        price, se = ols(y, kept)
        assert est.price == pytest.approx(price, rel=1e-10, abs=1e-12)
        assert est.std_error == pytest.approx(se, rel=1e-8)
        if dropped:
            assert not controls[0].any()


def test_flat_volatility_keeps_only_the_spot_control():
    # gate 03's tilted case: xi below the subnormal floor makes sigma = sigma0 on every
    # path, so I2 - E[I2] is 0 and a pair's I1 terms cancel; only c1 stays
    params = ModelParams(sigma0=0.2, rho=-0.3, H=0.5, xi=1e-300, alpha=0.0)
    grid = TimeGrid.regular(1.0, 16)
    bundle = sample_paths(build_joint_covariance(grid, 0.5), 3000, seed=77)
    env = MarketEnv(spot=100.0, rate=0.0)
    options = [(90.0, 1.0), (100.0, 1.0)]
    (y, controls), _ = reference_pairs(params, bundle, env, options)
    assert not controls[1].any() and not controls[2].any()
    est = chain_estimates(bundle, params, env, options)[0]
    price, se = ols(y, controls[:1])
    assert est.price == pytest.approx(price, rel=1e-12)
    assert est.std_error == pytest.approx(se, rel=1e-8)
    assert abs(est.price - black_scholes_call(100.0, 90.0, 0.0, 0.2, 1.0)) \
        <= 4.0 * est.std_error


def test_collinear_control_is_dropped():
    rng = np.random.default_rng(3)
    controls = rng.integers(-8, 9, size=(3, 500)).astype(float)
    controls[2] = controls[0] - 2.0 * controls[1]  # exactly, in small integers
    y = 1.5 + 0.3 * controls[0] - 0.1 * controls[1] + rng.standard_normal(500)
    (price, se, _), = pricing._regression_estimates(y[None, :], controls, 0.0)
    assert (price, se) == pytest.approx(ols(y, controls[:2]), rel=1e-12)


@pytest.mark.parametrize("fade", [0.0, 0.25, 0.75, 1.0, 1.5])
def test_controls_fade_out_over_the_last_unit_of_tail(fade):
    # the fit's weight w falls from 1 to 0 as tail goes from log(n) - 1 to log(n): the
    # price is mean(y) - w beta . mean(c) and the SE that of the residuals
    # y - w beta . c with 1 + 3 w degrees of freedom spent, from the samples and from
    # the moments alike
    rng = np.random.default_rng(9)
    n = 500
    controls = rng.standard_normal((3, n))
    y = 2.0 + controls.T @ [0.8, -0.4, 0.3] + 0.5 * rng.standard_normal(n)
    tail = math.log(n) - 1.0 + fade
    w = min(1.0, max(0.0, math.log(n) - tail))
    (price, se, moments), = pricing._regression_estimates(y[None, :], controls, tail)
    design = np.column_stack([np.ones(n), *controls])
    beta = np.linalg.lstsq(design, y, rcond=None)[0][1:]
    resid = y - y.mean() - w * beta @ (controls - controls.mean(axis=1, keepdims=True))
    assert price == pytest.approx(y.mean() - w * beta @ controls.mean(axis=1), rel=1e-13)
    assert se == pytest.approx(math.sqrt(resid @ resid / (n - 1 - 3 * w) / n), rel=1e-12)
    assert pricing._controlled(*moments) == pytest.approx((price, se), rel=1e-12)
    if w == 0.0:
        assert price == y.mean()


@pytest.mark.parametrize("threads", [1, 2])
def test_worthless_row_prices_zero_exactly(threads):
    # a strike no path reaches: every value is 0.0, so price and SE are 0 exactly,
    # in each block and pooled over three
    env = MarketEnv(spot=100.0, rate=0.0)
    est, = price_chain(((1e6, 0.25),), env, replace(FIT_PARAMS, xi=0.1),
                       path_count=2 * 2 * PATH_BLOCK + 50, steps_per_year=12, seed=4,
                       threads=threads)
    assert (est.price, est.std_error) == (0.0, 0.0)


def test_heavy_tailed_volatility_uses_no_control():
    # 4 xi^2 T^{2H} above log(pairs): the sample misses the paths that carry the
    # controls' means, and the estimate is the uncontrolled pair mean
    params = ModelParams(sigma0=0.05, rho=-0.22, H=0.05, xi=2.5, alpha=0.01)
    bundle, env, options = _controlled_setup(params, paths=1000)
    got = chain_estimates(bundle, params, env, options)
    oracle = reference_conditional(params, bundle, env, options, controlled=False)
    for est, (price, se) in zip(got, oracle):
        assert est.price == price
        assert est.std_error == pytest.approx(se, rel=1e-13)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(params=box_params)
def test_controls_have_mean_zero_over_the_default_box(params):
    # each control's sample mean is within 4 SE of its exact mean 0, wherever the
    # estimator uses the controls
    bundle, env, options = _controlled_setup(params, seed=8)
    for est in chain_estimates(bundle, params, env, [(100.0, 0.25), (100.0, 1.0)]):
        count, means, cross, tail = est._moments
        if tail >= math.log(count):
            continue
        for k in (1, 2, 3):
            assert abs(means[k]) <= 4.0 * math.sqrt(cross[k][k] / (count - 1) / count)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(params=box_params)
def test_controlled_price_agrees_with_the_uncontrolled_oracle(params):
    bundle, env, options = _controlled_setup(params)
    got = chain_estimates(bundle, params, env, options)
    oracle = reference_conditional(params, bundle, env, options, controlled=False)
    pairs = bundle.fbm_paths.shape[0]
    for est, (price, se) in zip(got, oracle):
        # the residuals' sum of squares is at most Y's; the SE can exceed the oracle's
        # only by the degrees of freedom the controls spend
        assert est.std_error <= se * math.sqrt((pairs - 1) / (pairs - 4)) * (1 + 1e-12)
        floor = 1e-12 * env.spot
        assert abs(est.price - price) <= 4.0 * math.hypot(est.std_error, se) + floor


def test_fitted_beta_bias_is_below_se_resolution():
    # beta fitted on the priced paths adds an O(1/N) bias; over 100 chains of 2000
    # priced paths it stays within 3 standard errors of the mean difference from the
    # uncontrolled oracle on the same draws
    env = MarketEnv(spot=100.0, rate=0.01)
    options = [(90.0, 1.0), (100.0, 1.0), (110.0, 1.0), (100.0, 0.25)]
    cov = build_joint_covariance(CONTROL_GRID, FIT_PARAMS.H)
    gaps = []
    for seed in range(100):
        bundle = sample_paths(cov, 1000, seed=seed, orthogonal=False)
        got = chain_estimates(bundle, FIT_PARAMS, env, options)
        oracle = reference_conditional(FIT_PARAMS, bundle, env, options,
                                       controlled=False)
        gaps.append([e.price - price for e, (price, _) in zip(got, oracle)])
    gaps = np.array(gaps)
    mean, se = sample_mean_se(gaps.T)
    assert np.all(np.abs(mean) <= 3.0 * se)
