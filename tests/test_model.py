"""Volatility-path and log-price-scheme tests, including the exact-martingale check."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from roughvol.fbm import TimeGrid, build_joint_covariance, sample_paths
from roughvol.model import MarketEnv, ModelParams, log_price_paths, volatility_paths


@pytest.fixture(scope="module")
def grid():
    return TimeGrid.regular(1.0, 8)


@pytest.fixture(scope="module")
def bundle(grid):
    cov = build_joint_covariance(grid, 0.3)
    return sample_paths(cov, 50_000, seed=101)


# ---------------------------------------------------------------------------
# parameter containers


def test_params_round_trip():
    p = ModelParams(sigma0=0.0782, rho=-0.1792, H=0.2324, xi=0.9875, alpha=1.0)
    assert ModelParams.from_array(p.as_array()) == p


@pytest.mark.parametrize("kwargs", [
    dict(sigma0=0.0), dict(sigma0=-0.1), dict(rho=-1.5), dict(rho=1.0001),
    dict(H=0.0), dict(H=1.0), dict(xi=0.0), dict(xi=-1.0),
    dict(alpha=-0.1), dict(alpha=1.1),
    *({name: value} for name in ("sigma0", "rho", "H", "xi", "alpha")
      for value in (float("nan"), float("inf"))),
    dict(rho=float("-inf")),
])
def test_params_validation(kwargs):
    base = dict(sigma0=0.1, rho=-0.3, H=0.2, xi=1.0, alpha=0.5)
    base.update(kwargs)
    with pytest.raises(ValueError):
        ModelParams(**base)


def test_market_env_validation():
    assert MarketEnv(spot=100.0).rate == 0.0
    with pytest.raises(ValueError):
        MarketEnv(spot=0.0)
    with pytest.raises(ValueError):
        MarketEnv(spot=100.0, rate=-0.01)
    for spot, rate in [(np.nan, 0.0), (np.inf, 0.0), (100.0, np.nan), (100.0, np.inf)]:
        with pytest.raises(ValueError):
            MarketEnv(spot=spot, rate=rate)


# ---------------------------------------------------------------------------
# volatility paths


def test_vanishing_vol_of_vol_freezes_volatility(grid, bundle):
    # xi so small that exp(xi * B) rounds to 1: sigma is exactly flat at sigma0
    p = ModelParams(sigma0=0.07, rho=-0.5, H=0.3, xi=1e-300, alpha=1.0)
    vols = volatility_paths(bundle, p, grid)
    assert np.all(vols.sigma_paths == 0.07)


def test_uncorrected_variant_matches_direct_formula(grid, bundle):
    p = ModelParams(sigma0=0.1, rho=-0.4, H=0.3, xi=0.8, alpha=0.0)
    vols = volatility_paths(bundle, p, grid)
    assert np.array_equal(vols.sigma_paths, 0.1 * np.exp(0.8 * bundle.fbm_paths))


def test_corrected_variant_matches_direct_formula(grid, bundle):
    p = ModelParams(sigma0=0.1, rho=-0.4, H=0.3, xi=0.8, alpha=1.0)
    vols = volatility_paths(bundle, p, grid)
    expected = 0.1 * np.exp(0.8 * bundle.fbm_paths
                            - 0.5 * 0.8**2 * grid.times**0.6)
    assert np.array_equal(vols.sigma_paths, expected)


def test_volatility_decreases_in_alpha(grid, bundle):
    previous = None
    for alpha in (0.0, 0.3, 0.7, 1.0):
        p = ModelParams(sigma0=0.1, rho=-0.4, H=0.3, xi=0.8, alpha=alpha)
        sigma = volatility_paths(bundle, p, grid).sigma_paths
        if previous is not None:
            assert np.all(sigma < previous)
        previous = sigma


def test_full_correction_normalizes_the_mean(grid, bundle):
    # with alpha = 1, E[sigma_t] = sigma0 at every horizon
    p = ModelParams(sigma0=0.2, rho=-0.4, H=0.3, xi=1.0, alpha=1.0)
    sigma = volatility_paths(bundle, p, grid).sigma_paths
    means = sigma.mean(axis=0)
    se = sigma.std(axis=0, ddof=1) / np.sqrt(sigma.shape[0])
    assert np.all(np.abs(means - 0.2) < 4.0 * se)


def test_grid_mismatch_rejected(grid, bundle):
    other = TimeGrid.regular(1.0, 12)
    p = ModelParams(sigma0=0.1, rho=-0.4, H=0.3, xi=0.8, alpha=0.0)
    with pytest.raises(ValueError, match="different grid"):
        volatility_paths(bundle, p, other)


# ---------------------------------------------------------------------------
# log-price scheme


def test_single_step_closed_form():
    g = TimeGrid(times=np.array([0.25]), steps_per_year=4, horizon=0.25)
    cov = build_joint_covariance(g, 0.2)
    b = sample_paths(cov, 2000, seed=5)
    p = ModelParams(sigma0=0.3, rho=-0.6, H=0.2, xi=1.0, alpha=0.0)
    env = MarketEnv(spot=50.0, rate=0.02)
    vols = volatility_paths(b, p, g)
    x = log_price_paths(b, vols, env, p)
    increment = ((0.02 - 0.5 * 0.3**2) * 0.25
                 + 0.3 * (-0.6 * b.w_increments[:, 0]
                          + np.sqrt(1 - 0.6**2) * b.w_tilde_increments[:, 0]))
    assert np.array_equal(x[:, 0], np.log(50.0) + increment)


def test_scheme_matches_stepwise_recomputation(grid):
    cov = build_joint_covariance(grid, 0.3)
    b = sample_paths(cov, 500, seed=17)
    p = ModelParams(sigma0=0.12, rho=-0.35, H=0.3, xi=0.9, alpha=0.7)
    env = MarketEnv(spot=120.0, rate=0.01)
    vols = volatility_paths(b, p, grid)
    x = log_price_paths(b, vols, env, p)

    # independent per-path loop over steps
    orth = np.sqrt(1.0 - p.rho**2)
    times = np.concatenate([[0.0], grid.times])
    expected = np.full(500, np.log(120.0))
    for k in range(grid.n):
        sig = vols.sigma_paths[:, k - 1] if k > 0 else np.full(500, p.sigma0)
        dt = times[k + 1] - times[k]
        dw = b.w_increments[:, k]
        expected = expected + (env.rate - 0.5 * sig**2) * dt \
            + sig * (p.rho * dw + orth * b.w_tilde_increments[:, k])
        assert_allclose(x[:, k], expected, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("H", [0.1, 0.3, 0.45])
def test_discounted_price_is_martingale(H):
    g = TimeGrid.regular(1.0, 16)
    cov = build_joint_covariance(g, H)
    b = sample_paths(cov, 60_000, seed=23)
    for alpha in (0.0, 1.0):
        for rho in (-0.7, 0.0):
            for rate in (0.0, 0.03):
                p = ModelParams(sigma0=0.15, rho=rho, H=H, xi=1.0, alpha=alpha)
                env = MarketEnv(spot=100.0, rate=rate)
                vols = volatility_paths(b, p, g)
                x = log_price_paths(b, vols, env, p)
                discounted = np.exp(x[:, -1] - rate * g.horizon)
                se = discounted.std(ddof=1) / np.sqrt(discounted.size)
                assert abs(discounted.mean() - 100.0) < 4.0 * se, (H, alpha, rho, rate)


def test_martingale_holds_at_every_node():
    g = TimeGrid.regular(1.0, 16)
    cov = build_joint_covariance(g, 0.25)
    b = sample_paths(cov, 60_000, seed=29)
    p = ModelParams(sigma0=0.2, rho=-0.5, H=0.25, xi=1.2, alpha=1.0)
    env = MarketEnv(spot=100.0, rate=0.02)
    vols = volatility_paths(b, p, g)
    x = log_price_paths(b, vols, env, p)
    discounted = np.exp(x - env.rate * g.times)
    means = discounted.mean(axis=0)
    ses = discounted.std(axis=0, ddof=1) / np.sqrt(discounted.shape[0])
    assert np.all(np.abs(means - 100.0) < 5.0 * ses)
