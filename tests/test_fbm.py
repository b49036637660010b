"""Tests for the joint fBm/Wiener sampling machinery.

Reference values were computed independently at 40-digit precision: the kernel points
by direct quadrature of the defining z-integral, the cross covariances both by the
incomplete-Beta closed form and by stabilized quadrature of the kernel (the two agree
to ~1e-21), and the constants from the Gamma-function definition.
"""
import concurrent.futures
import functools
import logging
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate, special

from roughvol import bootstrap, fbm
from roughvol.fbm import (
    JITTER_LADDER,
    FactorizationError,
    PathBundle,
    TimeGrid,
    _cross_covariance,
    _fbm_autocovariance,
    _kernel_tail,
    _validate_hurst,
    build_joint_covariance,
    derive_seed,
    draw_normal_bundle,
    molchan_constant,
    sample_paths,
    transform_normals,
)

# ---------------------------------------------------------------------------
# scalar oracles: the autocovariance, the kernel, and the cross covariance by
# quadrature of the kernel, which the vectorized closed form is checked against


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def fbm_autocovariance(t: float, s: float, H: float) -> float:
    """Autocovariance r(t,s) = 1/2 (t^{2H} + s^{2H} - |t-s|^{2H}) of fBm.

    Symmetric in (t, s); r(t, t) = t^{2H}. Raises ValueError for negative times
    or H outside (0, 1).
    """
    H = _validate_hurst(H)
    t, s = float(t), float(s)
    if t < 0.0 or s < 0.0:
        raise ValueError(f"times must be nonnegative, got t={t}, s={s}")
    return 0.5 * (t ** (2 * H) + s ** (2 * H) - abs(t - s) ** (2 * H))


def hypergeometric_tail(x, H: float):
    """tail(x) = int_x^1 y^{-2H} (1-y)^{H-1/2} dy through the Gauss hypergeometric
    identity (1-x)^{H+1/2}/(H+1/2) * 2F1(2H, H+1/2; H+3/2; 1-x), valid at every H in
    (0, 1): the oracles' own tail, independent of the incomplete-Beta form that
    `_kernel_tail` takes below H = 1/2."""
    b = H + 0.5
    z = 1.0 - np.asarray(x, dtype=float)
    return z**b / b * special.hyp2f1(2.0 * H, b, b + 1.0, z)


def molchan_golosov_kernel(t: float, s: float, H: float) -> float:
    """Finite-interval fBm kernel K_H(t, s) for 0 < s < t.

    Unbounded as s -> t when H < 1/2 (the (t-s)^{H-1/2} factor) and as s -> 0
    (s^{H-1/2} from the reduced correction term); both singularities are integrable.
    K_H is identically 1 at H = 1/2.
    """
    H = _validate_hurst(H)
    t, s = float(t), float(s)
    if not 0.0 < s <= t:
        raise ValueError(f"kernel requires 0 < s <= t, got t={t}, s={s}")
    c = molchan_constant(H)
    a = H - 0.5
    # the inner z-integral collapses to s^{2H-1} * tail(s/t)
    return c * ((t / s) ** a * (t - s) ** a - a * s**a * float(hypergeometric_tail(s / t, H)))


def fbm_wiener_cross_covariance(t: float, s: float, H: float, tol: float = 1e-10) -> float:
    """E[B^H_t W_s] = int_0^{min(t,s)} K_H(t, u) du by adaptive quadrature.

    The kernel's endpoint singularities are removed by power substitutions before
    integration: near u = 0 the map u = v^p with p = max(1/(H+1/2), 2/(3-2H)), near
    u = t the map u = t - v^{1/(H+1/2)}; in both substituted integrands the singular
    factor is cancelled analytically, so no evaluation ever forms (t-u)^{H-1/2} from
    a catastrophically cancelled difference. The integral is split at min(t,s)/2.

    Raises QuadratureError if the combined achieved error estimate exceeds ``tol``.
    """
    H = _validate_hurst(H)
    t, s = float(t), float(s)
    if t < 0.0 or s < 0.0:
        raise ValueError(f"times must be nonnegative, got t={t}, s={s}")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    w = min(t, s)
    if w == 0.0:
        return 0.0
    if H == 0.5:  # K_H is identically 1
        return w

    c = molchan_constant(H)
    a = H - 0.5
    b = H + 0.5
    q = 1.0 / b
    p = max(q, 2.0 / (3.0 - 2.0 * H))
    a1 = p * (1.5 - H) - 1.0  # exponent left on the first kernel term after u = v^p
    a2 = p * b - 1.0          # exponent left on the tail term after u = v^p

    def lower_piece(v: float) -> float:
        # u = v^p on (0, w/2]; u^{H-1/2} (tail term) and u^{1/2-H} (first term)
        # are absorbed into v^{a2} and v^{a1}, both with nonnegative exponents.
        u = v**p
        term1 = t**a * (t - u) ** a * v**a1
        term2 = a * float(hypergeometric_tail(u / t, H)) * v**a2
        return c * p * (term1 - term2)

    def upper_piece(v: float) -> float:
        # u = t - d with d = v^q on [w/2, w]; d^{H-1/2} * dv-Jacobian == q exactly,
        # and tail(u/t) is rewritten through 2F1 at the small argument d/t.
        d = v**q
        u = t - d
        term1 = q * (t / u) ** a
        hyp = special.hyp2f1(2.0 * H, b, b + 1.0, d / t)
        term2 = a / b * u**a * t ** (-b) * hyp * q * d
        return c * (term1 - term2)

    val1, err1 = integrate.quad(
        lower_piece, 0.0, (w / 2.0) ** (1.0 / p),
        epsabs=tol / 2.0, epsrel=1e-11, limit=200, full_output=1,
    )[:2]
    val2, err2 = integrate.quad(
        upper_piece, (t - w) ** (1.0 / q), (t - w / 2.0) ** (1.0 / q),
        epsabs=tol / 2.0, epsrel=1e-11, limit=200, full_output=1,
    )[:2]
    achieved = err1 + err2
    if achieved > tol:
        raise QuadratureError(
            f"cross-covariance quadrature achieved +/-{achieved:.3e}, requested {tol:.3e}"
        )
    return val1 + val2


# ---------------------------------------------------------------------------
# matrix oracles: the 2n x 2n joint covariance and its W-first factor in Z-space


def cross_covariance_matrix(times: np.ndarray, H: float) -> np.ndarray:
    """Matrix of E[B^H_{t_i} W_{t_j}] over a grid, via the closed incomplete-Beta form.

    Entry (i, j) equals int_0^{min(t_i, t_j)} K_H(t_i, u) du.
    """
    H = _validate_hurst(H)
    tcol = np.asarray(times, dtype=float)[:, None]
    return _cross_covariance(tcol, np.minimum(tcol, tcol.T), H)


def cross_covariance_every_entry(t, w, H: float, threads: int = 1):
    """The closed form with the incomplete Beta and the tail evaluated at every entry's
    own ratio w/t, not once per distinct ratio; ``threads`` is ignored."""
    c = molchan_constant(H)
    a_beta, b = 1.5 - H, H + 0.5
    x = w / t
    binc = special.betainc(a_beta, b, x) * special.beta(a_beta, b)
    return c / b * (t**b * binc - (H - 0.5) * w**b * _kernel_tail(x, H))


def factor_every_entry(grid: TimeGrid, H: float) -> np.ndarray:
    """``build_joint_covariance(grid, H).fbm_factor`` with the cross covariance of
    `cross_covariance_every_entry`: the bit-exact reference of the distinct-ratio
    evaluation."""
    with mock.patch.object(fbm, "_cross_covariance", cross_covariance_every_entry):
        return build_joint_covariance(grid, H).fbm_factor


def sigma_matrix(cov) -> np.ndarray:
    """The exact joint covariance in the fBm-first layout: index i < n is B^H_{t_i},
    index n + j is W_{t_j}; fBm block r(t,s), Wiener block min(t,s)."""
    times = cov.grid.times
    cross = cross_covariance_matrix(times, cov.H)
    return np.block([[_fbm_autocovariance(times, cov.H), cross],
                     [cross.T, np.minimum(times[:, None], times[None, :])]])


def cholesky_factor(cov) -> np.ndarray:
    """L with L L^T = sigma_matrix + jitter on the fBm diagonal; columns follow the
    standard normals Z = (Z_W, Z_B).

    The B^H rows are [K~ sqrt(deltas) | L_S] and the W rows are
    [tril(ones) sqrt(deltas) | 0], so L is lower-triangular once W is ordered first.
    """
    n = cov.grid.n
    scale = np.sqrt(cov.grid.deltas)
    fbm_rows = cov.fbm_factor.copy()
    fbm_rows[:, :n] *= scale
    wiener_rows = np.zeros((n, 2 * n))
    wiener_rows[:, :n] = np.tril(np.ones((n, n))) * scale
    return np.vstack([fbm_rows, wiener_rows])


def block_stream_normals(seed: int, b: int, rows: int, n: int):
    """Path block b's unscaled draws Z (rows x 2n) and Z_tilde (rows x n), read straight
    from the block's RNG stream."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, fbm._STREAM_PATHS, b]))
    return rng.standard_normal((rows, 2 * n)), rng.standard_normal((rows, n))


def sampled_block(cov, path_count: int, seed: int, b: int, orthogonal: bool = True):
    """Path block b as `sample_paths` streams it: the (first row, rows) of each of its
    row panels, and one bundle of copies of the panels' arrays, stacked in order (the
    stream draws every panel into one buffer, so a panel is kept only as a copy).
    Every panel is checked to be time-major: the values of one grid step are
    contiguous."""
    panels = []

    def keep(lo, bundle):
        arrays = (bundle.fbm_paths, bundle.w_increments, bundle.w_tilde_increments)
        assert all(a is None or a.strides[0] == a.itemsize for a in arrays)
        panels.append((lo, [None if a is None else a.copy(order="F") for a in arrays]))

    assert sample_paths(cov, path_count, seed, block=b, orthogonal=orthogonal,
                        each_panel=keep) is None

    def stacked(k):
        parts = [arrays[k] for _, arrays in panels]
        return None if parts[0] is None else np.asfortranarray(np.concatenate(parts))

    spans = [(lo, arrays[0].shape[0]) for lo, arrays in panels]
    return spans, PathBundle(stacked(0), stacked(1), stacked(2), cov.grid)


def sampled(cov, path_count: int, seed: int, block, orthogonal: bool = True):
    """The whole draw's bundle (``block`` None) or path block ``block``'s, stacked from
    its row panels (`sampled_block`)."""
    if block is None:
        return sample_paths(cov, path_count, seed, orthogonal=orthogonal)
    return sampled_block(cov, path_count, seed, block, orthogonal)[1]


# ---------------------------------------------------------------------------
# autocovariance


def test_autocovariance_variance_identity():
    for t in (0.25, 1.0, 2.5):
        for H in (0.1, 0.3, 0.45, 0.7):
            assert fbm_autocovariance(t, t, H) == pytest.approx(t ** (2 * H), rel=1e-14)


def test_autocovariance_symmetry_and_value():
    assert fbm_autocovariance(2.0, 1.0, 0.3) == fbm_autocovariance(1.0, 2.0, 0.3)
    # r(2,1,0.3) = (2^0.6 + 1 - 1)/2 = 2^0.6 / 2
    assert fbm_autocovariance(2.0, 1.0, 0.3) == pytest.approx(0.757858283255199041, rel=1e-15)


def test_autocovariance_reduces_to_brownian_at_half():
    for t, s in [(1.0, 0.4), (0.7, 2.0), (1.5, 1.5)]:
        assert fbm_autocovariance(t, s, 0.5) == pytest.approx(min(t, s), rel=1e-15)


def test_autocovariance_zero_time():
    assert fbm_autocovariance(1.0, 0.0, 0.2) == 0.0


@pytest.mark.parametrize("H", [0.0, 1.0, -0.3, 1.7])
def test_hurst_validation(H):
    with pytest.raises(ValueError):
        fbm_autocovariance(1.0, 1.0, H)


def test_negative_times_rejected():
    with pytest.raises(ValueError):
        fbm_autocovariance(-1.0, 1.0, 0.3)


# ---------------------------------------------------------------------------
# kernel and its normalizing constant


def test_molchan_constant_values():
    assert molchan_constant(0.1) == pytest.approx(0.3576857734223351360495, rel=1e-15)
    assert molchan_constant(0.25) == pytest.approx(0.6459980037407519676125, rel=1e-15)
    assert molchan_constant(0.5) == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("t,s,H,expected", [
    (1.0, 0.5, 0.1, 0.57506223778620585928),
    (1.0, 0.5, 0.3, 0.87301411433866804411),
    (2.0, 0.7, 0.45, 0.93591662763363635874),
    (1.25, 1.0, 0.35, 1.0019510607605004978),
    (1.0, 0.25, 0.75, 1.0982815801571655478),
])
def test_kernel_reference_points(t, s, H, expected):
    assert molchan_golosov_kernel(t, s, H) == pytest.approx(expected, rel=1e-12)


def test_kernel_is_one_at_half():
    for t, s in [(1.0, 0.2), (2.0, 1.999), (0.5, 0.25)]:
        assert molchan_golosov_kernel(t, s, 0.5) == pytest.approx(1.0, rel=1e-12)


def test_kernel_domain_errors():
    with pytest.raises(ValueError):
        molchan_golosov_kernel(1.0, 0.0, 0.3)
    with pytest.raises(ValueError):
        molchan_golosov_kernel(1.0, 1.5, 0.3)


def _production_ratios() -> np.ndarray:
    """The distinct ratios w/t of the README chain's grid at 1008 steps per year."""
    grid = TimeGrid.with_maturities([91 / 365, 182 / 365, 273 / 365, 1.0], 1008)
    rows, cols = np.tril_indices(grid.n)
    return np.unique(grid.times[cols] / grid.times[rows])


def test_kernel_tail_matches_the_hypergeometric_form_on_the_production_grid():
    # below H = 1/2 the tail is an incomplete Beta; it agrees with the hypergeometric
    # form (up to 5.1e-14 relative measured) on all 332,807 ratios, x = 1 included
    x = _production_ratios()
    for H in (0.02, 0.05, 0.2, 0.45, 0.49):
        assert_allclose(_kernel_tail(x, H), hypergeometric_tail(x, H), rtol=1e-13, atol=0)


@pytest.mark.parametrize("H", [0.55, 0.7, 0.95])
def test_kernel_tail_above_half_keeps_the_hypergeometric_bits(H):
    x = _production_ratios()[::97]
    assert np.array_equal(_kernel_tail(x, H), hypergeometric_tail(x, H))


# int_x^1 y^{-2H} (1-y)^{H-1/2} dy at the binary values of the float H and x, by
# mpmath's regularized incomplete Beta at 40 digits (mpmath quadrature agreed to all
# 40); 2F1 in double precision is off by 2.6e-7 at the first point and by 6.7e-12 at
# the sixth, the incomplete Beta by at most 7.8e-16 at any of them
TAIL_NEAR_HALF = [
    (0.5 - 1e-9, 1e-3, 6.9077552329089868177),
    (0.5 - 1e-9, 0.1, 2.302585089234463699),
    (0.5 - 1e-9, 0.5, 0.69314718114218585254),
    (0.5 - 1e-9, 0.9, 0.10536051599194479182),
    (0.5 - 1e-9, 0.999, 0.0010005003414939952076),
    (0.5 - 1e-6, 1e-3, 6.9077092060515189912),
    (0.5 - 1e-6, 0.5, 0.6931477628012785494),
    (0.5 - 1e-6, 0.999, 0.0010005082440758781279),
    (0.49, 1e-3, 6.4681458976032170419),
    (0.49, 0.5, 0.69905114758033650674),
    (0.49, 0.999, 0.0010828707633844977411),
]


@pytest.mark.parametrize("H,x,expected", TAIL_NEAR_HALF)
def test_kernel_tail_near_half_matches_high_precision_values(H, x, expected):
    assert float(_kernel_tail(x, H)) == pytest.approx(expected, rel=4e-15, abs=0)


# ---------------------------------------------------------------------------
# cross covariance: quadrature operation and closed-form matrix

CROSS_CASES = [
    (1.0, 1.0, 0.1, 0.7876875024943019813881),
    (1.0, 1.0, 0.3, 0.9758034468368645299552),
    (2.0, 1.0, 0.1, 0.5581151256016574364018),
    (2.0, 1.0, 0.3, 0.7724925428954197752061),
    (0.5, 0.4, 0.3, 0.4150623588729671644762),
    (1.5, 1.5, 0.45, 1.468066015337108262244),
    (0.25, 0.25, 0.1, 0.3428608994988658862485),
]


@pytest.mark.parametrize("t,s,H,expected", CROSS_CASES)
def test_cross_covariance_quadrature_reference(t, s, H, expected):
    assert fbm_wiener_cross_covariance(t, s, H) == pytest.approx(expected, abs=1e-10)


def test_cross_covariance_zero_time():
    assert fbm_wiener_cross_covariance(1.0, 0.0, 0.2) == 0.0
    assert fbm_wiener_cross_covariance(0.0, 1.0, 0.2) == 0.0


def test_cross_covariance_brownian_case():
    # at H = 1/2 the kernel is 1, so the integral is just min(t, s)
    assert fbm_wiener_cross_covariance(2.0, 0.7, 0.5) == 0.7
    assert fbm_wiener_cross_covariance(0.7, 2.0, 0.5) == 0.7


def test_cross_covariance_future_increments_are_orthogonal():
    # B^H_t is built from W on [0, t], so E[B^H_t W_s] is flat in s beyond t
    at_t = fbm_wiener_cross_covariance(1.0, 1.0, 0.2)
    assert fbm_wiener_cross_covariance(1.0, 5.0, 0.2) == pytest.approx(at_t, abs=1e-10)


def test_cross_covariance_monotone_in_s():
    # the kernel is strictly positive, so s -> E[B^H_t W_s] increases on [0, t]
    for H in (0.1, 0.45, 0.8):
        values = [fbm_wiener_cross_covariance(1.0, s, H) for s in np.linspace(0.1, 1.0, 10)]
        assert np.all(np.diff(values) > 0.0)


def test_cross_covariance_tolerance_failure_reports_estimate():
    with pytest.raises(QuadratureError, match="achieved"):
        fbm_wiener_cross_covariance(1.0, 1.0, 0.1, tol=1e-30)


def test_cross_covariance_invalid_inputs():
    with pytest.raises(ValueError):
        fbm_wiener_cross_covariance(1.0, 1.0, 0.3, tol=0.0)
    with pytest.raises(ValueError):
        fbm_wiener_cross_covariance(-1.0, 1.0, 0.3)


@pytest.mark.parametrize("t,s,H,expected", CROSS_CASES)
def test_matrix_matches_reference(t, s, H, expected):
    times = np.array(sorted({t, s}))
    m = cross_covariance_matrix(times, H)
    i = list(times).index(t)
    j = list(times).index(s)
    assert m[i, j] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("H", [0.1, 0.3, 0.45, 0.65])
def test_matrix_matches_scalar_operation(H):
    times = np.array([0.11, 0.37, 0.5, 0.92, 1.4])
    m = cross_covariance_matrix(times, H)
    for i, t in enumerate(times):
        for j, s in enumerate(times):
            assert m[i, j] == pytest.approx(
                fbm_wiener_cross_covariance(t, s, H, tol=1e-11), abs=1e-9)


def test_cross_covariance_sampled_moment():
    # Monte-Carlo confirmation at the roughest test point: corr(B^H_1, W_1) sampled
    # from the factorized joint law must reproduce the analytic value within noise.
    grid = TimeGrid(times=np.array([1.0]))
    cov = build_joint_covariance(grid, 0.1)
    bundle = sample_paths(cov, 400_000, seed=20240817)
    est = float(np.mean(bundle.fbm_paths[:, 0] * bundle.w_increments[:, 0]))
    se = float(np.std(bundle.fbm_paths[:, 0] * bundle.w_increments[:, 0], ddof=1)) / 632.45
    assert abs(est - 0.7876875024943019813881) < 3.0 * se


# ---------------------------------------------------------------------------
# time grid


def test_regular_grid_excludes_origin_and_hits_horizon():
    g = TimeGrid.regular(1.0, 252)
    assert g.n == 252
    assert g.times[0] == pytest.approx(1.0 / 252.0)
    assert g.times[-1] == 1.0


def test_regular_grid_appends_offgrid_horizon():
    g = TimeGrid.regular(0.3, 252)
    assert g.n == 76  # 75 regular steps + appended horizon
    assert g.times[-1] == 0.3
    assert np.all(np.diff(g.times) > 0.0)


def test_with_maturities_inserts_each_exactly_once():
    g = TimeGrid.with_maturities([0.5, 0.5, 1.0], 12)
    assert g.n == 12  # 0.5 = 6/12 is already a node, no duplicate
    assert g.index_of(0.5) == 5
    assert g.index_of(1.0) == 11

    g2 = TimeGrid.with_maturities([0.21, 1.0], 12)
    assert g2.n == 13
    assert np.all(np.diff(g2.times) > 0.0)
    assert g2.times[g2.index_of(0.21)] == 0.21
    assert g2.times[-1] == 1.0


def test_index_of_missing_maturity_raises():
    g = TimeGrid.regular(1.0, 12)
    with pytest.raises(ValueError, match="not a grid node"):
        g.index_of(0.21)


def test_deltas_prepend_origin():
    g = TimeGrid.with_maturities([0.21, 1.0], 12)
    d = g.deltas
    assert d[0] == g.times[0]
    assert np.sum(d) == pytest.approx(g.times[-1], rel=1e-14)


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(times=np.array([0.0, 0.5]))
    with pytest.raises(ValueError):
        TimeGrid(times=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        TimeGrid.regular(-1.0, 12)
    with pytest.raises(ValueError):
        TimeGrid.regular(1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid.with_maturities([], 12)


# ---------------------------------------------------------------------------
# joint covariance assembly


def test_joint_covariance_blocks():
    grid = TimeGrid.regular(1.0, 8)
    cov = build_joint_covariance(grid, 0.3)
    n = grid.n
    sigma = sigma_matrix(cov)
    assert sigma.shape == (2 * n, 2 * n)
    assert_allclose(sigma, sigma.T, atol=1e-15)
    for i, t in enumerate(grid.times):
        assert sigma[i, i] == pytest.approx(t**0.6, rel=1e-12)
        assert sigma[n + i, n + i] == pytest.approx(t, rel=1e-12)
    assert sigma[n, n + 3] == pytest.approx(min(grid.times[0], grid.times[3]), rel=1e-12)
    assert sigma[0, n + 3] == pytest.approx(
        fbm_wiener_cross_covariance(grid.times[0], grid.times[3], 0.3), abs=1e-9)


def test_factor_reproduces_matrix():
    grid = TimeGrid.regular(1.0, 16)
    cov = build_joint_covariance(grid, 0.2)
    reconstructed = cholesky_factor(cov) @ cholesky_factor(cov).T
    assert_allclose(reconstructed,
                    sigma_matrix(cov) + cov.jitter * np.eye(2 * grid.n), atol=1e-12)


def test_brownian_case_is_exact_without_jitter():
    # at H = 1/2, B^H == W: no Cholesky, no jitter, and the fBm paths are W bit for bit
    grid = TimeGrid.regular(1.0, 64)
    cov = build_joint_covariance(grid, 0.5)
    assert cov.jitter == 0.0
    assert np.array_equal(cov.fbm_factor[:, :grid.n], np.tril(np.ones((grid.n, grid.n))))
    assert np.array_equal(cov.fbm_factor[:, grid.n:], np.zeros((grid.n, grid.n)))
    sampled = sample_paths(cov, fbm.PATH_BLOCK + 10, seed=4)
    assert np.array_equal(sampled.fbm_paths, np.cumsum(sampled.w_increments, axis=1))
    z, w_tilde = draw_normal_bundle(grid, 500, seed=4)
    rebuilt = transform_normals(z, w_tilde, cov)
    assert np.array_equal(rebuilt.fbm_paths, np.cumsum(rebuilt.w_increments, axis=1))


UNION_GRID = TimeGrid.with_maturities([91 / 365, 182 / 365, 273 / 365, 1.0], 252)


@pytest.mark.parametrize("H", [0.05, 0.2, 0.45, 0.7])
def test_step_kernel_is_lower_triangular(H):
    cov = build_joint_covariance(UNION_GRID, H)
    kernel = cov.fbm_factor[:, :UNION_GRID.n]
    assert np.array_equal(np.triu(kernel, 1), np.zeros_like(kernel))


@pytest.mark.parametrize("H", [0.05, 0.2, 0.45, 0.7])
def test_wiener_rows_of_factor_are_exact(H):
    cov = build_joint_covariance(UNION_GRID, H)
    n = UNION_GRID.n
    factor = cholesky_factor(cov)
    assert np.array_equal(factor[n:, :n], np.tril(np.ones((n, n))) * np.sqrt(UNION_GRID.deltas))
    assert np.array_equal(factor[n:, n:], np.zeros((n, n)))


@pytest.mark.parametrize("H", [0.05, 0.2, 0.45, 0.7])
def test_w_first_factor_reproduces_matrix(H):
    cov = build_joint_covariance(UNION_GRID, H)
    factor = cholesky_factor(cov)
    shift = np.zeros(2 * UNION_GRID.n)
    shift[:UNION_GRID.n] = cov.jitter  # jitter goes to the conditional fBm block only
    assert_allclose(factor @ factor.T, sigma_matrix(cov) + np.diag(shift), rtol=0, atol=1e-12)


def test_covariance_stores_one_n_by_2n_factor():
    # the 2n x 2n matrices are built by the test oracles only
    cov = build_joint_covariance(UNION_GRID, 0.2)
    n = UNION_GRID.n
    stored = [v for obj in (cov, cov.grid) for v in vars(obj).values()
              if isinstance(v, np.ndarray)]
    assert sum(a.size for a in stored) <= 2 * n * n + 4 * n
    assert cov.fbm_factor.shape == (n, 2 * n)
    assert sigma_matrix(cov).shape == cholesky_factor(cov).shape == (2 * n, 2 * n)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(H=st.one_of(st.floats(0.02, 0.98), st.floats(0.5 - 1e-6, 0.5 + 1e-6),
                   st.just(0.5)),
       steps_per_year=st.integers(2, 40),
       maturities=st.lists(st.floats(0.01, 1.5), min_size=1, max_size=4))
def test_factor_reproduces_matrix_on_any_grid(H, steps_per_year, maturities):
    # the stored [K~ | L_S], taken back to Z-space, reproduces the exact joint covariance
    # plus the jitter on the conditional fBm block, and the jitter is a ladder value
    grid = TimeGrid.with_maturities(maturities, steps_per_year)
    cov = build_joint_covariance(grid, H)
    assert cov.jitter in (0.0,) + JITTER_LADDER
    shift = np.zeros(2 * grid.n)
    shift[:grid.n] = cov.jitter
    factor = cholesky_factor(cov)
    assert_allclose(factor @ factor.T, sigma_matrix(cov) + np.diag(shift), rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(H=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).filter(lambda h: h != 0.5),
       steps_per_year=st.integers(12, 260),
       maturities=st.lists(st.floats(0.01, 1.5), min_size=1, max_size=4),
       threads=st.integers(1, 4))
def test_distinct_ratio_factor_is_bit_identical_on_any_grid(H, steps_per_year, maturities,
                                                             threads):
    grid = TimeGrid.with_maturities(maturities, steps_per_year)
    cov = build_joint_covariance(grid, H, threads=threads)
    assert np.array_equal(cov.fbm_factor, factor_every_entry(grid, H))


PRODUCTION_GRID = TimeGrid.with_maturities([91 / 365, 182 / 365, 273 / 365, 1.0], 1008)


@pytest.mark.parametrize("H", [0.08, 0.2, 0.45])
def test_distinct_ratio_factor_is_bit_identical_at_1008_steps(H):
    reference = factor_every_entry(PRODUCTION_GRID, H)
    for threads in (1, 2):
        cov = build_joint_covariance(PRODUCTION_GRID, H, threads=threads)
        assert np.array_equal(cov.fbm_factor, reference), threads


@pytest.mark.parametrize("threads", [0, -2])
def test_thread_count_below_one_builds_serially(threads):
    # as parallel_map does: a library caller's count below 1 means one thread
    cov = build_joint_covariance(UNION_GRID, 0.2, threads=threads)
    assert np.array_equal(cov.fbm_factor, build_joint_covariance(UNION_GRID, 0.2).fbm_factor)


def test_distinct_ratio_split_under_thread_contention():
    # eight threads on fewer cores, switching every microsecond, each write their
    # interleaved share of the same two arrays: a lost or misplaced write moves bits
    reference = factor_every_entry(UNION_GRID, 0.2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
            cov = pool.submit(build_joint_covariance, UNION_GRID, 0.2, 8).result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(cov.fbm_factor, reference)


def test_jitter_is_logged_with_h_and_n(monkeypatch, caplog):
    real, attempts = np.linalg.cholesky, []

    def fail_once(a):
        attempts.append(a)
        if len(attempts) == 1:
            raise np.linalg.LinAlgError("forced")
        return real(a)

    grid = TimeGrid.regular(1.0, 4)
    with caplog.at_level(logging.INFO, logger="roughvol.fbm"):
        assert build_joint_covariance(grid, 0.3).jitter == 0.0
        assert caplog.records == []
        monkeypatch.setattr(np.linalg, "cholesky", fail_once)
        cov = build_joint_covariance(grid, 0.3)
    assert cov.jitter == JITTER_LADDER[0]
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
        ("roughvol.fbm", "INFO", "covariance jitter 1e-14 added at H=0.3, n=4")]


def test_factorization_failure_names_conditional_covariance(monkeypatch):
    def always_fail(_):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(np.linalg, "cholesky", always_fail)
    grid = TimeGrid.regular(1.0, 4)
    with pytest.raises(FactorizationError, match="conditional fBm covariance"):
        build_joint_covariance(grid, 0.3)


def test_factorization_failure_reports_smallest_eigenvalue(monkeypatch):
    def always_fail(_):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(np.linalg, "cholesky", always_fail)
    grid = TimeGrid.regular(1.0, 4)
    with pytest.raises(FactorizationError, match="smallest eigenvalue"):
        build_joint_covariance(grid, 0.3)


# ---------------------------------------------------------------------------
# sampling


def test_sample_shapes_and_grid():
    grid = TimeGrid.regular(0.5, 16)
    cov = build_joint_covariance(grid, 0.25)
    bundle = sample_paths(cov, 1000, seed=3)
    assert bundle.fbm_paths.shape == (1000, grid.n)
    assert bundle.w_increments.shape == (1000, grid.n)
    assert bundle.w_tilde_increments.shape == (1000, grid.n)
    assert bundle.grid is grid


def test_sampled_moments_match_covariance():
    grid = TimeGrid.regular(1.0, 8)
    cov = build_joint_covariance(grid, 0.3)
    n = grid.n
    bundle = sample_paths(cov, 200_000, seed=11)
    joint = np.concatenate([bundle.fbm_paths, np.cumsum(bundle.w_increments, axis=1)],
                           axis=1)
    sample_cov = np.cov(joint, rowvar=False)
    # SE of a Gaussian covariance entry ~ sqrt((S_ii S_jj + S_ij^2) / P)
    sigma = sigma_matrix(cov)
    diag = np.diag(sigma)
    se = np.sqrt((np.outer(diag, diag) + sigma**2) / 200_000)
    assert np.all(np.abs(sample_cov - sigma) < 5.0 * se)

    tilde = bundle.w_tilde_increments
    assert_allclose(tilde.var(axis=0, ddof=1), grid.deltas, rtol=0.05)
    assert np.all(np.abs(tilde.mean(axis=0)) < 5.0 * np.sqrt(grid.deltas / 200_000))
    # orthogonal component must be uncorrelated with the joint draw
    corr = (joint.T @ tilde) / 200_000
    bound = 5.0 * np.sqrt(np.outer(diag, grid.deltas) / 200_000)
    assert np.all(np.abs(corr) < bound)


def test_sampling_determinism_and_seed_sensitivity():
    grid = TimeGrid.regular(1.0, 8)
    cov = build_joint_covariance(grid, 0.2)
    a = sample_paths(cov, 5000, seed=42)
    b = sample_paths(cov, 5000, seed=42)
    c = sample_paths(cov, 5000, seed=43)
    assert np.array_equal(a.fbm_paths, b.fbm_paths)
    assert np.array_equal(a.w_tilde_increments, b.w_tilde_increments)
    assert not np.array_equal(a.fbm_paths, c.fbm_paths)


def test_block_boundary_paths_are_stable():
    # growing the path count must not change the paths already drawn (block streams)
    grid = TimeGrid.regular(1.0, 4)
    cov = build_joint_covariance(grid, 0.2)
    small = sample_paths(cov, fbm.PATH_BLOCK + 10, seed=9)
    large = sample_paths(cov, 2 * fbm.PATH_BLOCK, seed=9)
    assert np.array_equal(small.fbm_paths[: fbm.PATH_BLOCK + 10],
                          large.fbm_paths[: fbm.PATH_BLOCK + 10])


def test_single_block_equals_rows_of_full_draw():
    # every array is time-major, and a block's paths equal its rows of the whole draw
    # and the transform of its row slice of the frozen draws (strided views) bit for
    # bit; at n = 300 one product over all rows would round the short block apart, and
    # the transform runs in three panels of steps, the last one short
    for steps_per_year in (6, 300):
        grid = TimeGrid.regular(1.0, steps_per_year)
        if steps_per_year == 300:
            assert 2 * fbm._TRANSFORM_PANEL < grid.n < 3 * fbm._TRANSFORM_PANEL
        cov = build_joint_covariance(grid, 0.15)
        path_count = 2 * fbm.PATH_BLOCK + 10  # the last block is short
        full = sample_paths(cov, path_count, seed=13)
        z, w_tilde = draw_normal_bundle(grid, path_count, seed=13)
        assert full.fbm_paths.flags.f_contiguous and z.flags.f_contiguous
        assert w_tilde.flags.f_contiguous and full.w_tilde_increments.flags.f_contiguous
        for b in range(3):
            spans, part = sampled_block(cov, path_count, 13, b)
            rows = slice(b * fbm.PATH_BLOCK, min((b + 1) * fbm.PATH_BLOCK, path_count))
            frozen = transform_normals(z[rows], w_tilde[rows], cov)
            assert spans == [(0, rows.stop - rows.start)]  # dW~ follows all of Z
            assert part.fbm_paths.shape[0] == rows.stop - rows.start
            assert part.fbm_paths.flags.f_contiguous
            assert frozen.fbm_paths.flags.f_contiguous
            for bundle in (part, frozen):
                assert np.array_equal(bundle.fbm_paths, full.fbm_paths[rows])
                assert np.array_equal(bundle.w_increments, full.w_increments[rows])
                assert np.array_equal(bundle.w_tilde_increments,
                                      full.w_tilde_increments[rows])
        assert part.fbm_paths.shape[0] == 10


@pytest.mark.parametrize("orthogonal", [True, False], ids=["orthogonal", "no-orthogonal"])
@pytest.mark.parametrize("block", [None, 0, 2], ids=["whole", "block-0", "short-block"])
def test_sample_paths_forms_its_paths_in_one_transform_of_its_draw(monkeypatch, block,
                                                                   orthogonal):
    # the whole draw and every block, the short last one too, reach the path kernel
    # through transform_normals alone, with the arrays just drawn passed by position
    # (perfbench's tracer reads them so), and its bundle is the one returned, or for a
    # block the one handed to each_panel (one panel at n = 6)
    grid = TimeGrid.regular(1.0, 6)
    cov = build_joint_covariance(grid, 0.15)
    drawn, transformed, bundles = [], [], []

    def recording(fn, log):
        def spy(*args, **kwargs):
            result = fn(*args, **kwargs)
            log.append((args, result))
            return result
        return spy

    def yielding(fn, log):
        def spy(*args, **kwargs):
            for lo, z, w_tilde in fn(*args, **kwargs):
                log.append((args, (z, w_tilde)))
                yield lo, z, w_tilde
        return spy

    monkeypatch.setattr(fbm, "transform_normals", recording(transform_normals, transformed))
    if block is None:  # the whole draw makes its blocks' draws itself: record it only
        monkeypatch.setattr(fbm, "draw_normal_bundle",
                            recording(fbm.draw_normal_bundle, drawn))
        bundles.append(sample_paths(cov, 2 * fbm.PATH_BLOCK + 10, seed=13,
                                    orthogonal=orthogonal))
    else:
        monkeypatch.setattr(fbm, "_block_panels", yielding(fbm._block_panels, drawn))
        assert sample_paths(cov, 2 * fbm.PATH_BLOCK + 10, seed=13, block=block,
                            orthogonal=orthogonal,
                            each_panel=lambda lo, panel: bundles.append(panel)) is None
    assert len(drawn) == 1 and len(transformed) == 1 and len(bundles) == 1
    (z, w_tilde), ((z_in, w_tilde_in, cov_in), result) = drawn[0][1], transformed[0]
    assert z_in is z and w_tilde_in is w_tilde and cov_in is cov
    assert (w_tilde is None) == (not orthogonal)
    bundle, = bundles
    assert bundle is result
    assert bundle.fbm_paths.shape[0] == (10 if block == 2 else z.shape[0])


def _three_panel_draws(monkeypatch, panel):
    """A covariance whose n = 300 spans at least three transform panels, the last one
    short, and frozen draws of one full and one short path block on it."""
    if panel is not None:
        monkeypatch.setattr(fbm, "_TRANSFORM_PANEL", panel)
    grid = TimeGrid.regular(1.0, 300)
    assert grid.n > 2 * fbm._TRANSFORM_PANEL and grid.n % fbm._TRANSFORM_PANEL
    z, _ = draw_normal_bundle(grid, fbm.PATH_BLOCK + 10, seed=29, orthogonal=False)
    return build_joint_covariance(grid, 0.15), z


@pytest.mark.parametrize("panel", [None, 7], ids=["default-panel", "small-panel"])
def test_panel_transform_matches_the_dense_product(monkeypatch, panel):
    # each entry within 1e-14 of the sum of its terms' magnitudes, the scale of a dot
    # product's rounding error (measured: 3.7e-16)
    cov, z = _three_panel_draws(monkeypatch, panel)
    paths = transform_normals(z, None, cov).fbm_paths
    dense = z @ cov.fbm_factor.T
    magnitude = np.abs(z) @ np.abs(cov.fbm_factor).T
    assert paths.flags.f_contiguous
    assert np.all(np.abs(paths - dense) <= 1e-14 * magnitude)


@pytest.mark.parametrize("panel", [None, 7], ids=["default-panel", "small-panel"])
def test_panel_transform_skips_the_zero_triangles(monkeypatch, panel):
    # NaN in every factor entry above a non-final panel's last step, in both halves,
    # reaches no path: the panels never read them, rather than multiplying zeros
    cov, z = _three_panel_draws(monkeypatch, panel)
    n, width = cov.grid.n, fbm._TRANSFORM_PANEL
    planted = cov.fbm_factor.copy()
    last = (n - 1) // width * width  # the first step of the final panel
    for lo in range(0, last, width):
        planted[lo: lo + width, lo + width: n] = np.nan
        planted[lo: lo + width, n + lo + width:] = np.nan
    assert np.isnan(planted).sum() > n
    poisoned = fbm.JointCovariance(grid=cov.grid, H=cov.H, fbm_factor=planted)
    paths = transform_normals(z, None, poisoned).fbm_paths
    assert np.all(np.isfinite(paths))
    assert np.array_equal(paths, transform_normals(z, None, cov).fbm_paths)


#: block-stream cases: (steps per year, _PANEL_ENTRIES rows, _CHUNK_ENTRIES rows or
#: entries, last block's rows). The default sizes give one panel per block; 997 entries
#: make draw chunks of no whole number of rows; 1024-row panels read with draw chunks of
#: 256 or 300 rows, which do and do not divide them, end the short block in 952 rows
_STREAM_CASES = {"default-chunk": (130, None, None, 1001),
                 "small-chunk": (24, None, ("entries", 997), 1001),
                 "chunk-divides-panel": (24, 1024, ("rows", 256), 3000),
                 "chunk-splits-panel": (24, 1024, ("rows", 300), 3000)}


@pytest.mark.parametrize("orthogonal", [True, False], ids=["orthogonal", "no-orthogonal"])
@pytest.mark.parametrize("case", list(_STREAM_CASES))
def test_block_panels_are_the_rows_of_the_one_shot_stream(monkeypatch, case, orthogonal):
    # the panels read the block stream in order: each (row, column) of a time-major
    # panel holds its row's value in one standard_normal((rows, 2n)) call, dW scaled
    # as drawn, and dW~ that of the following standard_normal((rows, n)); dW~ follows
    # all of Z, so with it a block is one panel, and without it the panels have
    # _panel_rows rows, the last one fewer, on a full block and on a short last one
    steps_per_year, panel, chunk, last_rows = _STREAM_CASES[case]
    grid = TimeGrid.with_maturities([0.21, 0.5, 1.0], steps_per_year)
    n, seed, path_count = grid.n, 17, fbm.PATH_BLOCK + last_rows
    if panel is not None:
        monkeypatch.setattr(fbm, "_PANEL_ENTRIES", panel * 2 * n)
    if chunk is not None:
        unit, size = chunk
        monkeypatch.setattr(fbm, "_CHUNK_ENTRIES", size * (2 * n if unit == "rows" else 1))
    height = panel or fbm.PATH_BLOCK
    assert fbm._panel_rows(n) == height
    scale = np.sqrt(grid.deltas)
    for b, rows in ((0, fbm.PATH_BLOCK), (1, last_rows)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0, b]))
        one_shot = rng.standard_normal((rows, 2 * n))
        one_shot[:, :n] *= scale
        one_shot_tilde = rng.standard_normal((rows, n)) * scale
        spans = []
        for lo, part, part_tilde in fbm._block_panels(seed, b, path_count, grid,
                                                       orthogonal):
            assert part.strides[0] == part.itemsize  # time-major
            assert np.array_equal(part, one_shot[lo: lo + part.shape[0]])
            if orthogonal:
                assert part_tilde.shape == (rows, n) and part_tilde.flags.f_contiguous
                assert np.array_equal(part_tilde, one_shot_tilde)
            else:
                assert part_tilde is None
            spans.append((lo, part.shape[0]))
        if orthogonal:
            assert spans == [(0, rows)]
        else:
            expected = [(lo, min(height, rows - lo)) for lo in range(0, rows, height)]
            assert spans == expected
            assert spans[-1][1] == (min(height, rows) if b == 0 else rows % height)


@pytest.mark.parametrize("orthogonal", [True, False], ids=["orthogonal", "no-orthogonal"])
def test_the_frozen_draw_holds_one_panel_beyond_its_outputs(monkeypatch, orthogonal):
    # a block of 1024-row panels at n = 51 (four, then two of 1024 and 784 rows): the
    # draw copies each panel out of one buffer, which it frees before the next block,
    # so beyond its outputs it holds one panel and one draw chunk of _CHUNK_ENTRIES.
    # With dW~, which follows all of Z, the panel is the whole block and its dW~.
    grid = TimeGrid.regular(1.0, 51)
    n, path_count = grid.n, fbm.PATH_BLOCK + 1808
    monkeypatch.setattr(fbm, "_PANEL_ENTRIES", 1024 * 2 * n)
    assert fbm._panel_rows(n) == 1024
    width = 3 * n if orthogonal else 2 * n
    outputs = path_count * width * 8
    panel = (fbm.PATH_BLOCK if orthogonal else 1024) * width * 8
    tracemalloc.start()
    try:
        z, z_tilde = draw_normal_bundle(grid, path_count, seed=3, orthogonal=orthogonal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert z.shape == (path_count, 2 * n) and (z_tilde is None) == (not orthogonal)
    assert peak <= outputs + panel + fbm._CHUNK_ENTRIES * 8


@pytest.mark.parametrize("panel_rows", [1024, 2048, None], ids=["1024", "2048", "rule"])
@pytest.mark.parametrize("rows", [fbm.PATH_BLOCK, 1808], ids=["full-block", "short-block"])
@pytest.mark.parametrize("steps_per_year, n", [(48, 51), (252, 255), (1008, 1011)],
                         ids=["n51", "n255", "n1011"])
def test_panel_transforms_are_the_rows_of_the_block_transform(monkeypatch, steps_per_year,
                                                              n, rows, panel_rows):
    # each row panel's paths are its rows of the frozen draw's block transform bit for
    # bit.
    # This rests on BLAS: a GEMM over a power-of-two share of the rows rounds each row
    # as the GEMM over the whole block does, and the rule's panel rows are powers of
    # two (1024 at n = 1011, the whole block at n = 51 and 255). It is no law: a
    # 333-row split moved paths by up to 5.3e-15. At 1024-row panels the 1808-row
    # block (the last one of 10k paths) ends in a short panel of 784 rows, a row
    # slice of the panel buffer.
    cov = _readme_covariance(steps_per_year, 0.2)
    assert cov.grid.n == n
    if panel_rows is not None:
        monkeypatch.setattr(fbm, "_panel_rows", lambda steps: panel_rows)
    z, _ = draw_normal_bundle(cov.grid, rows, 5, orthogonal=False)
    whole = transform_normals(z, None, cov).fbm_paths
    spans = []

    def check(lo, bundle):
        height = bundle.fbm_paths.shape[0]
        assert np.array_equal(bundle.fbm_paths, whole[lo: lo + height])
        spans.append((lo, height))

    sample_paths(cov, rows, 5, block=0, orthogonal=False, each_panel=check)
    height = panel_rows or fbm._panel_rows(n)
    assert spans == [(lo, min(height, rows - lo)) for lo in range(0, rows, height)]


def _check_formed(monkeypatch, cov, path_count: int, seed: int, block, check,
                  orthogonal: bool = True) -> int:
    """Call ``check(lo, bundle, z, w_tilde, as_drawn)`` on every bundle that
    `sample_paths` forms: the whole draw's (``block`` None, lo = 0), or each row panel's
    of path block ``block`` while it is live (the stream draws every panel into one
    buffer), lo its first row in the block. z and w_tilde are the draws it was formed
    from, as `draw_normal_bundle` returned or `_block_panels` yielded them, and
    as_drawn a copy of z as drawn: `sample_paths` forms B^H over Z_B. Returns the
    number of bundles."""
    drawn = []

    def record(lo, z, w_tilde):
        drawn.append((lo, z, w_tilde, z.copy(order="F")))
        return z, w_tilde

    if block is None:
        real = fbm.draw_normal_bundle
        monkeypatch.setattr(fbm, "draw_normal_bundle",
                            lambda *args, **kwargs: record(0, *real(*args, **kwargs)))
        bundle = sample_paths(cov, path_count, seed, orthogonal=orthogonal)
        check(0, bundle, *drawn[-1][1:])
        return len(drawn)
    real = fbm._block_panels
    monkeypatch.setattr(fbm, "_block_panels", lambda *args, **kwargs: (
        (lo, *record(lo, z, w_tilde)) for lo, z, w_tilde in real(*args, **kwargs)))

    def each_panel(lo, bundle):
        assert lo == drawn[-1][0]
        check(lo, bundle, *drawn[-1][1:])

    sample_paths(cov, path_count, seed, block=block, orthogonal=orthogonal,
                 each_panel=each_panel)
    return len(drawn)


@pytest.mark.parametrize("block", [None, 0, 1])
def test_increments_are_views_of_the_scaled_draws(monkeypatch, block):
    # the draws are scaled as drawn, so the bundle's dW is a view of them, bit for bit
    # sqrt(deltas) * Z_W from the block's own stream; dW~ is the second draw itself
    grid = TimeGrid.with_maturities([0.21, 0.5], 24)
    cov = build_joint_covariance(grid, 0.15)
    n, path_count, seed = grid.n, fbm.PATH_BLOCK + 10, 21
    scale = np.sqrt(grid.deltas)
    streams = [block_stream_normals(seed, b, min(fbm.PATH_BLOCK,
                                                 path_count - b * fbm.PATH_BLOCK), n)
               for b in range(2)]
    stream_z, stream_zt = (np.concatenate(parts) for parts in zip(*streams))

    def check(lo, bundle, z, w_tilde, as_drawn):
        assert np.shares_memory(bundle.w_increments, z)
        assert bundle.w_tilde_increments is w_tilde
        first = lo + (0 if block is None else block * fbm.PATH_BLOCK)
        rows = slice(first, first + z.shape[0])
        assert np.array_equal(bundle.w_increments, stream_z[rows, :n] * scale)
        assert np.array_equal(as_drawn[:, n:], stream_z[rows, n:])
        assert np.array_equal(bundle.w_tilde_increments, stream_zt[rows] * scale)

    assert _check_formed(monkeypatch, cov, path_count, seed, block, check) == 1


@pytest.mark.parametrize("block", [None, 0, 1])
def test_skipping_the_orthogonal_draw_keeps_the_other_bits(block):
    # Z comes first in each block stream, so leaving out Z_tilde changes nothing else
    grid = TimeGrid.with_maturities([0.21, 0.5], 24)
    cov = build_joint_covariance(grid, 0.15)
    path_count = fbm.PATH_BLOCK + 10
    full = sampled(cov, path_count, 21, block)
    lean = sampled(cov, path_count, 21, block, orthogonal=False)
    assert lean.w_tilde_increments is None
    assert np.array_equal(lean.fbm_paths, full.fbm_paths)
    assert np.array_equal(lean.w_increments, full.w_increments)
    z, w_tilde = draw_normal_bundle(grid, path_count, seed=21, orthogonal=False)
    assert w_tilde is None
    assert np.array_equal(transform_normals(z, None, cov).fbm_paths,
                          sample_paths(cov, path_count, seed=21).fbm_paths)


@pytest.mark.parametrize("block", [-1, 3])
def test_block_out_of_range(block):
    grid = TimeGrid.regular(1.0, 4)
    cov = build_joint_covariance(grid, 0.2)
    with pytest.raises(ValueError, match="block"):
        sample_paths(cov, 2 * fbm.PATH_BLOCK + 10, seed=1, block=block,
                     each_panel=lambda lo, bundle: None)


@pytest.mark.parametrize("block, each_panel", [(0, None), (None, print)],
                         ids=["block-alone", "each-panel-alone"])
def test_a_block_streams_its_panels_to_each_panel_only(block, each_panel):
    # a block has no whole-block bundle to return: its panels go to each_panel, which
    # serves no whole draw
    cov = build_joint_covariance(TimeGrid.regular(1.0, 4), 0.2)
    with pytest.raises(ValueError, match="block and each_panel go together"):
        sample_paths(cov, 100, seed=1, block=block, each_panel=each_panel)


def test_transform_normals_reproduces_sample_paths():
    grid = TimeGrid.regular(1.0, 8)
    cov = build_joint_covariance(grid, 0.22)
    z, w_tilde = draw_normal_bundle(grid, 6000, seed=5)
    direct = sample_paths(cov, 6000, seed=5)
    rebuilt = transform_normals(z, w_tilde, cov)
    assert np.array_equal(direct.fbm_paths, rebuilt.fbm_paths)
    assert np.array_equal(direct.w_increments, rebuilt.w_increments)
    assert np.array_equal(direct.w_tilde_increments, rebuilt.w_tilde_increments)


@pytest.mark.parametrize("z_shape, w_tilde_shape",
                         [((10, 5), (10, 8)), ((10, 16), (1, 8)), ((10, 16), (11, 8))],
                         ids=["z-steps", "w-tilde-one-row", "w-tilde-rows-plus-one"])
def test_transform_normals_shape_mismatch(z_shape, w_tilde_shape):
    # dW~ needs one row per path of z: a single row would broadcast over every path
    grid = TimeGrid.regular(1.0, 8)
    cov = build_joint_covariance(grid, 0.22)
    with pytest.raises(ValueError, match="normal draw shapes do not match"):
        transform_normals(np.zeros(z_shape), np.zeros(w_tilde_shape), cov)


#: the README chain's maturities: n = 51 at 48 steps/yr (one dense product, whose
#: output overlaps its input when formed over the draws), 129 at 126/yr (a full panel
#: and a one-step last one) and 1011 at 1008/yr (seven panels, the last of 115 steps)
_README_MATURITIES = [91 / 365, 182 / 365, 273 / 365, 1.0]


@functools.lru_cache(maxsize=None)
def _readme_covariance(steps_per_year: int, H: float):
    """One covariance per grid and H for the parametrized cases below (0.5 s each at
    n = 1011); no test writes to it."""
    return build_joint_covariance(TimeGrid.with_maturities(_README_MATURITIES,
                                                           steps_per_year), H)


@pytest.mark.parametrize("orthogonal", [True, False], ids=["orthogonal", "no-orthogonal"])
@pytest.mark.parametrize("block", [None, 0, 1], ids=["whole", "block-0", "short-block"])
@pytest.mark.parametrize("H", [0.2, 0.5, 0.7])
@pytest.mark.parametrize("steps_per_year, n", [(48, 51), (126, 129), (1008, 1011)],
                         ids=["n51", "n129", "n1011"])
def test_paths_formed_over_their_draws_keep_the_bits_of_a_separate_transform(
        monkeypatch, steps_per_year, n, H, block, orthogonal):
    # sample_paths writes B^H over the Z_B half of the draws it made; its paths and
    # increments equal, bit for bit, the ones transform_normals forms into a new array
    # from a copy of the same draws: for the whole draw, a full and a short block, and
    # each row panel of a block (four of 1024 rows at n = 1011 without dW~)
    cov = _readme_covariance(steps_per_year, H)
    assert cov.grid.n == n

    def check(lo, bundle, z, w_tilde, as_drawn):
        assert np.shares_memory(bundle.fbm_paths, z)
        assert bundle.w_tilde_increments is w_tilde
        separate = transform_normals(as_drawn, w_tilde, cov)
        assert not np.shares_memory(separate.fbm_paths, as_drawn)
        assert np.array_equal(bundle.fbm_paths, separate.fbm_paths)
        assert np.array_equal(bundle.w_increments, separate.w_increments)

    _check_formed(monkeypatch, cov, fbm.PATH_BLOCK + 10, 31, block, check, orthogonal)


@pytest.mark.parametrize("H", [0.2, 0.5, 0.7])
def test_transform_without_out_leaves_its_draws_unchanged(H):
    cov = _readme_covariance(126, H)
    z, w_tilde = draw_normal_bundle(cov.grid, fbm.PATH_BLOCK + 10, seed=31)
    before = z.copy(order="F")
    transform_normals(z, w_tilde, cov)
    assert np.array_equal(z, before)


@pytest.mark.parametrize("orthogonal", [True, False], ids=["orthogonal", "no-orthogonal"])
def test_a_fresh_block_allocates_its_draws_and_panel_temporaries_only(orthogonal):
    # B^H lands on the block's own Z_B: a block at n = 255 allocates its draws and at
    # most two transform panels (the panel temporary, and numpy's copy of the last
    # panel, whose output overlaps its input), not a second (rows x n) array of paths
    grid = TimeGrid.regular(1.0, 255)
    cov = build_joint_covariance(grid, 0.2)
    rows, n = fbm.PATH_BLOCK, grid.n
    draws = rows * (3 if orthogonal else 2) * n * 8
    panel = fbm._TRANSFORM_PANEL * rows * 8
    shapes = []
    tracemalloc.start()
    try:
        sample_paths(cov, rows, seed=3, block=0, orthogonal=orthogonal,
                     each_panel=lambda lo, bundle: shapes.append(bundle.fbm_paths.shape))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert shapes == [(rows, n)]
    assert peak <= draws + 2 * panel


def test_transform_out_must_fit_the_paths_and_leave_dw_alone():
    grid = TimeGrid.regular(1.0, 8)
    cov = build_joint_covariance(grid, 0.22)
    n = grid.n
    z, _ = draw_normal_bundle(grid, 100, seed=5, orthogonal=False)
    before = z.copy(order="F")
    wrong_shape = (np.empty((100, n + 1), order="F"), np.empty((99, n), order="F"),
                   np.empty((n, 100)))
    over_dw = (z[:, :n], z[:, 1: n + 1], z[:, n - 1: 2 * n - 1])
    for out in wrong_shape + over_dw:
        with pytest.raises(ValueError, match=r"out must have shape \(100, 8\) and not "
                                             "overlap dW"):
            transform_normals(z, None, cov, out=out)
    assert np.array_equal(z, before)


def test_invalid_path_count():
    grid = TimeGrid.regular(1.0, 4)
    cov = build_joint_covariance(grid, 0.2)
    with pytest.raises(ValueError):
        sample_paths(cov, 0, seed=1)
    with pytest.raises(ValueError):
        draw_normal_bundle(grid, 0, seed=1)


def test_derive_seed_is_deterministic_and_distinct():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    seen = {derive_seed(0, i, j) for i in range(10) for j in range(3)}
    assert len(seen) == 30
    assert all(0 <= s < 2**64 for s in seen)


def test_stream_keys_of_one_base_seed_give_distinct_states():
    # path blocks 0-2, the GA, bootstrap samples 0-2 with each tag and significance
    # repetitions 0-2 with each arm, as their consumers build the keys
    s = 812
    keys = [[s, fbm._STREAM_PATHS, b] for b in range(3)] + [[s, fbm._STREAM_GA]]
    keys += [[s, fbm._STREAM_BOOT, j, tag] for j in range(3)
             for tag in (bootstrap._TAG_RESAMPLE, bootstrap._TAG_CALIBRATE,
                         bootstrap._TAG_REPRICE)]
    keys += [[s, fbm._STREAM_SIGNIFICANCE, k, arm] for k in range(3) for arm in (0, 1)]
    states = {tuple(np.random.SeedSequence(key).generate_state(4)) for key in keys}
    assert len(states) == len(keys) == 19
    # trailing zero words are ignored: path block 0 of seed s is default_rng(s)'s stream
    block0 = np.random.SeedSequence([s, fbm._STREAM_PATHS, 0])
    assert np.array_equal(block0.generate_state(4),
                          np.random.SeedSequence(s).generate_state(4))


# ---------------------------------------------------------------------------
# parallel dispatch


def _staggered(fn, items):
    """``fn`` that first sleeps longer for earlier items, so a pool of workers finishes
    them in reverse; returns it and the list of items in the order they finished."""
    finished, lock = [], threading.Lock()

    def run(k):
        time.sleep(0.05 * (len(items) - k))
        try:
            return fn(k)
        finally:
            with lock:
                finished.append(k)

    return run, finished


@pytest.mark.parametrize("threads", [1, 4])
def test_parallel_map_keeps_item_order(threads):
    items = list(range(4))
    run, finished = _staggered(lambda k: k * k, items)
    assert fbm.parallel_map(run, items, threads) == [0, 1, 4, 9]
    assert finished == (items[::-1] if threads > 1 else items)


@pytest.mark.parametrize("threads", [1, 4])
def test_parallel_map_raises_the_first_failing_item(threads):
    # item 3 fails first in time, item 1 first in item order
    def fn(k):
        if k in (1, 3):
            raise ValueError(f"item {k}")
        return k

    items = list(range(4))
    run, finished = _staggered(fn, items)
    with pytest.raises(ValueError, match="item 1"):
        fbm.parallel_map(run, items, threads)
    if threads > 1:
        assert finished[0] == 3


@pytest.mark.parametrize("threads,items", [(0, [1, 2, 3]), (1, [1, 2, 3]), (4, [1])],
                         ids=["zero-threads", "one-thread", "one-item"])
def test_parallel_map_runs_serially_on_the_calling_thread(threads, items):
    caller = threading.get_ident()
    seen = fbm.parallel_map(lambda k: (k, threading.get_ident()), items, threads)
    assert seen == [(k, caller) for k in items]
