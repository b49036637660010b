"""Volatility-path and log-price-scheme tests, including the exact-martingale check."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from roughvol import model
from roughvol.fbm import (PathBundle, TimeGrid, build_joint_covariance, draw_normal_bundle,
                          sample_paths, transform_normals)
from roughvol.model import (MarketEnv, ModelParams, _left_point_sums, _log_euler_steps,
                            log_price_paths, volatility_paths)
from roughvol.pricing import _conditional_steps


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
    assert np.all(volatility_paths(bundle.fbm_paths, p, grid.times) == 0.07)


def test_uncorrected_variant_matches_direct_formula(grid, bundle):
    p = ModelParams(sigma0=0.1, rho=-0.4, H=0.3, xi=0.8, alpha=0.0)
    assert np.array_equal(volatility_paths(bundle.fbm_paths, p, grid.times),
                          0.1 * np.exp(0.8 * bundle.fbm_paths))


def test_corrected_variant_matches_direct_formula(grid, bundle):
    p = ModelParams(sigma0=0.1, rho=-0.4, H=0.3, xi=0.8, alpha=1.0)
    expected = 0.1 * np.exp(0.8 * bundle.fbm_paths
                            - 0.5 * 0.8**2 * grid.times**0.6)
    assert np.array_equal(volatility_paths(bundle.fbm_paths, p, grid.times), expected)


def test_volatility_decreases_in_alpha(grid, bundle):
    previous = None
    for alpha in (0.0, 0.3, 0.7, 1.0):
        p = ModelParams(sigma0=0.1, rho=-0.4, H=0.3, xi=0.8, alpha=alpha)
        sigma = volatility_paths(bundle.fbm_paths, p, grid.times)
        if previous is not None:
            assert np.all(sigma < previous)
        previous = sigma


def test_full_correction_normalizes_the_mean(grid, bundle):
    # with alpha = 1, E[sigma_t] = sigma0 at every horizon
    p = ModelParams(sigma0=0.2, rho=-0.4, H=0.3, xi=1.0, alpha=1.0)
    sigma = volatility_paths(bundle.fbm_paths, p, grid.times)
    means = sigma.mean(axis=0)
    se = sigma.std(axis=0, ddof=1) / np.sqrt(sigma.shape[0])
    assert np.all(np.abs(means - 0.2) < 4.0 * se)


# ---------------------------------------------------------------------------
# log-price scheme


def test_single_step_closed_form():
    g = TimeGrid(times=np.array([0.25]))
    cov = build_joint_covariance(g, 0.2)
    b = sample_paths(cov, 2000, seed=5)
    p = ModelParams(sigma0=0.3, rho=-0.6, H=0.2, xi=1.0, alpha=0.0)
    env = MarketEnv(spot=50.0, rate=0.02)
    x = log_price_paths(b, p, env)
    increment = ((0.02 - 0.5 * 0.3**2) * 0.25
                 + 0.3 * (-0.6 * b.w_increments[:, 0]
                          + np.sqrt(1 - 0.6**2) * b.w_tilde_increments[:, 0]))
    assert np.array_equal(x[:, 0], np.log(50.0) + increment)


def test_scheme_matches_stepwise_recomputation(grid):
    cov = build_joint_covariance(grid, 0.3)
    b = sample_paths(cov, 500, seed=17)
    p = ModelParams(sigma0=0.12, rho=-0.35, H=0.3, xi=0.9, alpha=0.7)
    env = MarketEnv(spot=120.0, rate=0.01)
    x = log_price_paths(b, p, env)

    # independent per-path loop over steps
    sigma = volatility_paths(b.fbm_paths, p, grid.times)
    orth = np.sqrt(1.0 - p.rho**2)
    times = np.concatenate([[0.0], grid.times])
    expected = np.full(500, np.log(120.0))
    for k in range(grid.n):
        sig = sigma[:, k - 1] if k > 0 else np.full(500, p.sigma0)
        dt = times[k + 1] - times[k]
        dw = b.w_increments[:, k]
        expected = expected + (env.rate - 0.5 * sig**2) * dt \
            + sig * (p.rho * dw + orth * b.w_tilde_increments[:, k])
        assert_allclose(x[:, k], expected, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("integrand,args", [(_conditional_steps, ()),
                                            (_log_euler_steps, (0.02, -0.6))])
def test_mirror_sums_are_those_of_the_negated_paths(integrand, args):
    # the mirror of a path has fBm -B^H and increments -dW, -dW~: its sums are, bit
    # for bit, those of a bundle holding the negated arrays, and they follow the
    # sampled paths' sums, which the mirror leaves as they are
    g = TimeGrid.with_maturities([0.25, 1.0], 12)
    b = sample_paths(build_joint_covariance(g, 0.15), 5000, seed=3)
    mirror = PathBundle(fbm_paths=-b.fbm_paths, w_increments=-b.w_increments,
                        w_tilde_increments=-b.w_tilde_increments, grid=g)
    p = ModelParams(sigma0=0.12, rho=-0.6, H=0.15, xi=1.4, alpha=0.5)
    nodes = [g.index_of(0.25), g.n - 1]
    pairs = _left_point_sums(b, p, nodes, integrand, *args, mirror=True)
    sampled = _left_point_sums(b, p, nodes, integrand, *args)
    mirrored = _left_point_sums(mirror, p, nodes, integrand, *args)
    for both, base, neg in zip(pairs, sampled, mirrored):
        assert both.shape == (2, 10_000)
        assert np.array_equal(both[:, :5000], base)
        assert np.array_equal(both[:, 5000:], neg)
        assert not np.array_equal(base, neg)


def _cumsum_sums(b, p, nodes, integrand, *args, mirror=False):
    """`_left_point_sums` by whole-path arrays and one cumsum per term, the reference
    for the order of its additions."""
    end = max(nodes) + 1
    times = np.concatenate(([0.0], b.grid.times[: end - 1]))
    dw = np.ascontiguousarray(b.w_increments[:, :end])
    dwt = (None if b.w_tilde_increments is None
           else np.ascontiguousarray(b.w_tilde_increments[:, :end]))
    parts = []
    for sign in (1.0, -1.0) if mirror else (1.0,):
        fbm = np.zeros((dw.shape[0], end))
        fbm[:, 1:] = sign * b.fbm_paths[:, : end - 1]
        sig = sign * volatility_paths(fbm, p, times)
        terms = integrand(sig, dw, dwt, b.grid.deltas[:end], *args)
        parts.append([np.cumsum(term, axis=1)[:, nodes].T for term in terms])
    return [np.concatenate(sums, axis=1) for sums in zip(*parts)]


@pytest.mark.parametrize("frozen", [False, True], ids=["sampled", "frozen-slice"])
@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("integrand,args", [(_conditional_steps, ()),
                                            (_log_euler_steps, (0.02, -0.6))])
def test_left_point_sums_equal_a_cumsum_reference(monkeypatch, integrand, args, mirror,
                                                  frozen):
    # panels of 7 steps over 22 (the last one holds 1), nodes out of order and short of
    # the grid's end: the running sums keep the bits of one cumsum along each path
    g = TimeGrid.with_maturities([0.25, 0.6, 1.0], 36)
    cov = build_joint_covariance(g, 0.15)
    b = sample_paths(cov, 700, seed=5)
    if frozen:  # the frozen pricer's bundles read row slices of the whole draw
        z, w_tilde = draw_normal_bundle(g, 1000, seed=5)
        b = transform_normals(z[300:], w_tilde[300:], cov)
    monkeypatch.setattr(model, "_CHUNK_ENTRIES", 7 * b.fbm_paths.shape[0] + 3)
    p = ModelParams(sigma0=0.12, rho=-0.6, H=0.15, xi=1.4, alpha=0.5)
    nodes = [g.index_of(0.6), 3, g.index_of(0.25)]
    assert max(nodes) + 1 == 22 and g.n > 22
    sums = _left_point_sums(b, p, nodes, integrand, *args, mirror=mirror)
    reference = _cumsum_sums(b, p, nodes, integrand, *args, mirror=mirror)
    assert len(sums) == len(reference)
    for got, want in zip(sums, reference):
        assert np.array_equal(got, want)


def test_asset_scheme_needs_the_orthogonal_increments():
    g = TimeGrid.regular(1.0, 4)
    b = sample_paths(build_joint_covariance(g, 0.3), 50, seed=2, orthogonal=False)
    p = ModelParams(sigma0=0.12, rho=-0.35, H=0.3, xi=0.9, alpha=0.7)
    with pytest.raises(ValueError, match="orthogonal"):
        log_price_paths(b, p, MarketEnv(spot=100.0))


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
                x = log_price_paths(b, p, env)
                discounted = np.exp(x[:, -1] - rate * g.times[-1])
                se = discounted.std(ddof=1) / np.sqrt(discounted.size)
                assert abs(discounted.mean() - 100.0) < 4.0 * se, (H, alpha, rho, rate)


def test_martingale_holds_at_every_node():
    g = TimeGrid.regular(1.0, 16)
    cov = build_joint_covariance(g, 0.25)
    b = sample_paths(cov, 60_000, seed=29)
    p = ModelParams(sigma0=0.2, rho=-0.5, H=0.25, xi=1.2, alpha=1.0)
    env = MarketEnv(spot=100.0, rate=0.02)
    x = log_price_paths(b, p, env)
    discounted = np.exp(x - env.rate * g.times)
    means = discounted.mean(axis=0)
    ses = discounted.std(axis=0, ddof=1) / np.sqrt(discounted.shape[0])
    assert np.all(np.abs(means - 100.0) < 5.0 * ses)
