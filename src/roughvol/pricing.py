"""Monte-Carlo pricing of European calls, plain and conditional (mixed) estimators.

The plain estimator discounts the sample-mean payoff of simulated terminal prices. The
conditional estimator integrates out the orthogonal Brownian component analytically:
conditional on the volatility-driving path, the terminal price is lognormal, so each
path contributes the Black-Scholes value with effective spot

    S_eff = S0 * exp(rho * int sigma dW - 1/2 rho^2 int sigma^2 dt)

and effective variance (1 - rho^2) * int sigma^2 dt. Both use the same left-endpoint
rectangle quadrature as the path scheme, which makes the conditional estimator exactly
unbiased for the discretized model the plain estimator prices — the two may be compared
on shared samples at standard-error resolution.

A whole option chain is priced on one simulation grid, the union of a regular grid and
every quoted maturity; each option reads the paths truncated to its own maturity node.
Every Monte-Carlo price comes from one block kernel, `_block_estimates`: each
PATH_BLOCK of paths is priced on its own and the per-block estimates are pooled in
block order. Fresh-draw pricing samples each block in the kernel and drops it, so
memory grows with the worker count, not the path count; calibration passes its cached
frozen-noise blocks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .fbm import (JointCovariance, PathBundle, TimeGrid, _block_count,
                  build_joint_covariance, parallel_map, sample_paths)
from .model import MarketEnv, ModelParams, VolPathSet, log_price_paths, volatility_paths

__all__ = [
    "PriceEstimate",
    "ChainPricingRequest",
    "black_scholes_call",
    "price_call_plain",
    "chain_estimates",
    "fresh_estimates",
    "price_chain",
]

#: entries per row sub-block of the left-point integrals (2 MB of float64 per
#: temporary), so the temporaries stay in cache at any grid size.
_CHUNK_ENTRIES = 1 << 18

ESTIMATORS = ("plain", "conditional_mixed")


@dataclass(frozen=True)
class PriceEstimate:
    price: float
    std_error: float
    estimator: str
    path_count: int


def _bs_calls(spot: np.ndarray, totvar: np.ndarray, strikes, rate: float,
              maturity: float) -> list[np.ndarray]:
    """Black-Scholes calls at each strike on per-path (spot, total variance) arrays.

    ``totvar`` is sigma^2 * T; zero total variance degenerates to the discounted
    intrinsic value max(spot - strike * exp(-rT), 0). The positivity mask and
    sqrt(totvar) do not depend on the strike and are computed once for all of them.
    """
    # a spot that underflowed to zero is a worthless call; log() would warn on it
    pos = (totvar > 0.0) & (spot > 0.0)
    sq = np.sqrt(totvar[pos])
    s = spot[pos]
    half_sq = 0.5 * sq
    drift = rate * maturity
    out = []
    for strike in strikes:
        disc_k = strike * np.exp(-rate * maturity)
        values = np.maximum(spot - disc_k, 0.0)
        d1 = (np.log(s / strike) + drift) / sq + half_sq
        values[pos] = s * special.ndtr(d1) - disc_k * special.ndtr(d1 - sq)
        out.append(values)
    return out


def black_scholes_call(spot: float, strike: float, rate: float, vol: float,
                       maturity: float) -> float:
    """Standard Black-Scholes call value.

    vol = 0 or maturity = 0 return the discounted intrinsic value
    max(spot - strike * exp(-r T), 0). Raises on nonpositive spot or strike.
    """
    if spot <= 0.0 or strike <= 0.0:
        raise ValueError(f"spot and strike must be positive, got {spot}, {strike}")
    if vol < 0.0 or maturity < 0.0:
        raise ValueError("vol and maturity must be nonnegative")
    (value,) = _bs_calls(np.array([spot], dtype=float), np.array([vol**2 * maturity]),
                         (strike,), rate, maturity)
    return float(value[0])


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    n = values.size
    if n > 1 and np.ptp(values) == 0.0:
        # a constant sample has mean values[0] and standard error 0 exactly;
        # summation round-off would otherwise report a spurious ~1e-17 SE
        return float(values[0]), 0.0
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return mean, se


def price_call_plain(log_paths: np.ndarray, grid: TimeGrid, strike: float,
                     maturity: float, env: MarketEnv) -> PriceEstimate:
    """Discounted average call payoff over simulated terminal prices.

    The maturity must be an exact grid node (chain grids insert every quoted maturity).
    """
    idx = grid.index_of(maturity)
    payoff = np.maximum(np.exp(log_paths[:, idx]) - strike, 0.0)
    disc = np.exp(-env.rate * maturity)
    mean, se = _mean_se(disc * payoff)
    return PriceEstimate(price=mean, std_error=se, estimator="plain",
                         path_count=log_paths.shape[0])


def _left_vol_integrals(vols: VolPathSet, bundle: PathBundle, nodes):
    """int sigma^2 dt and int sigma dW over [0, t_k] at each node k, left-endpoint rule.

    Returns two (len(nodes) x paths) arrays. The first step uses sigma0 (the t = 0
    value of the volatility), matching the path scheme exactly. The integrands are
    summed along each path with one sequential cumsum per sub-block of rows, so only
    a sub-block of full-length temporaries is ever held.
    """
    sigma, dw = vols.sigma_paths, bundle.w_increments
    n_paths = sigma.shape[0]
    end = max(nodes) + 1
    int_var = np.empty((len(nodes), n_paths))
    int_sdw = np.empty((len(nodes), n_paths))
    dt = vols.grid.deltas[:end]
    chunk = max(1, _CHUNK_ENTRIES // end)
    for lo in range(0, n_paths, chunk):
        hi = min(lo + chunk, n_paths)
        cum_var = np.empty((hi - lo, end))
        cum_sdw = np.empty((hi - lo, end))
        # left-endpoint volatilities per step: [sigma0, sigma_{t_1}, ..., sigma_{t_{end-2}}]
        cum_var[:, 0] = vols.params.sigma0
        cum_var[:, 1:] = sigma[lo:hi, : end - 1]
        np.multiply(dw[lo:hi, :end], cum_var, out=cum_sdw)
        np.square(cum_var, out=cum_var)
        cum_var *= dt
        np.cumsum(cum_var, axis=1, out=cum_var)
        np.cumsum(cum_sdw, axis=1, out=cum_sdw)
        int_var[:, lo:hi] = cum_var[:, nodes].T
        int_sdw[:, lo:hi] = cum_sdw[:, nodes].T
    return int_var, int_sdw


def _conditional_values(int_var, int_sdw, strikes, maturity: float, env: MarketEnv,
                        rho: float) -> list[np.ndarray]:
    """Per-path conditional call values at one maturity node, one array per strike."""
    eff_spot = env.spot * np.exp(rho * int_sdw - 0.5 * rho**2 * int_var)
    eff_totvar = (1.0 - rho**2) * int_var
    return _bs_calls(eff_spot, eff_totvar, strikes, env.rate, maturity)


@dataclass(frozen=True)
class ChainPricingRequest:
    """Everything needed to price a list of (strike, maturity) options in one pass."""

    options: tuple
    env: MarketEnv
    params: ModelParams
    path_count: int
    steps_per_year: int
    seed: int
    estimator: str = "conditional_mixed"

    def __post_init__(self):
        if not self.options:
            raise ValueError("option list is empty")
        object.__setattr__(self, "options",
                           tuple((float(k), float(t)) for k, t in self.options))
        for k, t in self.options:
            if k <= 0.0:
                raise ValueError(f"strikes must be positive, got {k}")
            if t <= 0.0:
                raise ValueError(f"maturities must be positive, got {t}")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"estimator must be one of {ESTIMATORS}")
        if self.path_count < 1:
            raise ValueError("path_count must be >= 1")


def chain_estimates(bundle: PathBundle, vols: VolPathSet, env: MarketEnv,
                    options, estimator: str = "conditional_mixed") -> list[PriceEstimate]:
    """Price every option from one already-simulated path set (truncated per maturity).

    The default conditional (mixed) estimator averages per-path Black-Scholes values
    given the W-path. It is unbiased for the same discretized model as the plain
    estimator and typically far less variable, since only the rho-correlated part of
    the randomness remains.
    """
    if estimator == "plain":
        log_paths = log_price_paths(bundle, vols, env, vols.params)
        return [price_call_plain(log_paths, vols.grid, k, t, env) for k, t in options]
    by_maturity: dict[float, list[int]] = {}
    for i, (_, t) in enumerate(options):
        by_maturity.setdefault(t, []).append(i)
    nodes = [vols.grid.index_of(t) for t in by_maturity]
    int_var, int_sdw = _left_vol_integrals(vols, bundle, nodes)
    out = [None] * len(options)
    for j, (t, members) in enumerate(by_maturity.items()):
        strikes = [options[i][0] for i in members]
        per_strike = _conditional_values(int_var[j], int_sdw[j], strikes, t, env,
                                         vols.params.rho)
        for i, values in zip(members, per_strike):
            mean, se = _mean_se(values)
            out[i] = PriceEstimate(price=mean, std_error=se, estimator="conditional_mixed",
                                   path_count=values.size)
    return out


def _pool_estimates(parts) -> PriceEstimate:
    """One estimate from estimates on disjoint path sets, as if on their union.

    The pooled mean weights each part's mean by its path count. The pooled sample
    variance adds the within-part sums of squares, (n_b - 1) n_b se_b^2, to the
    between-part ones, n_b (mean_b - mean)^2. Both sums are exactly rounded, so the
    result does not depend on the order of the parts. Parts that are all constant at
    one value pool to that value with standard error 0 exactly, as `_mean_se` gives.
    """
    first = parts[0]
    if len(parts) == 1:
        return first
    total = sum(e.path_count for e in parts)
    if all(e.std_error == 0.0 and e.price == first.price for e in parts):
        return replace(first, path_count=total)
    mean = math.fsum(e.path_count * e.price for e in parts) / total
    squares = math.fsum((e.path_count - 1) * e.path_count * e.std_error**2
                        + e.path_count * (e.price - mean) ** 2 for e in parts)
    return replace(first, price=mean, std_error=math.sqrt(squares / (total - 1) / total),
                   path_count=total)


def _block_estimates(bundle_of, n_blocks: int, params: ModelParams, env: MarketEnv,
                     options, estimator: str = "conditional_mixed",
                     threads: int = 1) -> list[PriceEstimate]:
    """Price every option on path blocks 0..n_blocks-1 and pool the estimates.

    ``bundle_of(b)`` returns block b's `PathBundle`. Each block is turned into
    volatility paths and priced by `chain_estimates` on its own, ``threads`` blocks at
    once; the per-block estimates are pooled in block order, so the result does not
    depend on ``threads``.
    """
    def price_block(b: int) -> list[PriceEstimate]:
        bundle = bundle_of(b)
        vols = volatility_paths(bundle, params, bundle.grid)
        return chain_estimates(bundle, vols, env, options, estimator=estimator)

    per_block = parallel_map(price_block, range(n_blocks), threads)
    return [_pool_estimates(parts) for parts in zip(*per_block)]


def fresh_estimates(cov: JointCovariance, params: ModelParams, env: MarketEnv, options,
                    path_count: int, seed: int, estimator: str = "conditional_mixed",
                    threads: int = 1) -> list[PriceEstimate]:
    """Price every option on ``path_count`` fresh paths, one PATH_BLOCK at a time.

    Each block is sampled (`sample_paths` with ``block=b``) in `_block_estimates` and
    dropped once priced, so memory holds one block per worker at any ``path_count``.
    """
    return _block_estimates(lambda b: sample_paths(cov, path_count, seed, block=b),
                            _block_count(path_count), params, env, options, estimator,
                            threads)


def price_chain(request: ChainPricingRequest, threads: int = 1) -> list[PriceEstimate]:
    """Price the request's options on fresh paths over the union grid (regular +
    quoted maturities).

    One covariance is built and factorized; the paths are then streamed block by block
    through `fresh_estimates`, with ``threads`` blocks at once. Estimates are
    byte-identical at any ``threads`` and equal a single-bundle `chain_estimates` of
    the same draw up to the rounding of the pooled sums.
    """
    maturities = [t for _, t in request.options]
    grid = TimeGrid.with_maturities(maturities, request.steps_per_year)
    cov = build_joint_covariance(grid, request.params.H)
    return fresh_estimates(cov, request.params, request.env, request.options,
                           request.path_count, request.seed, request.estimator, threads)
