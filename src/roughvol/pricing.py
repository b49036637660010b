"""Monte-Carlo pricing of European calls, plain and conditional (mixed) estimators.

The plain estimator discounts the sample-mean payoff of simulated terminal prices. The
conditional estimator integrates out the orthogonal Brownian component analytically:
conditional on the volatility-driving path, the terminal price is lognormal, so each
path contributes the Black-Scholes value with effective spot

    S_eff = S0 * exp(rho * int sigma dW - 1/2 rho^2 int sigma^2 dt)

and effective variance (1 - rho^2) * int sigma^2 dt. Both estimators take their sums
from the path scheme's left-point kernel, `model._left_point_sums`, on the same
increments, which makes the conditional estimator exactly unbiased for the discretized
model the plain estimator prices — the two may be compared on shared samples at
standard-error resolution.

A whole option chain is priced on one simulation grid, the union of a regular grid and
every quoted maturity; each option reads the paths truncated to its own maturity node.
Every Monte-Carlo price comes from one block kernel, `_block_estimates`: each
PATH_BLOCK of paths is priced on its own and the per-block estimates are pooled in
block order. The kernel asks a ``bundle_of(b)`` for each block. Fresh-draw pricing
samples the block there and drops it once priced, so memory grows with the worker
count, not the path count; calibration's frozen-noise pricer returns its cached
block, or transforms the block's frozen draws at a new H and caches the result.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .fbm import (JointCovariance, PathBundle, TimeGrid, _block_count,
                  build_joint_covariance, parallel_map, sample_paths)
from .model import MarketEnv, ModelParams, _left_point_sums, _log_euler_steps

__all__ = [
    "PriceEstimate",
    "ChainPricingRequest",
    "black_scholes_call",
    "chain_estimates",
    "fresh_estimates",
    "price_chain",
]

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


def _conditional_steps(sig, dw, dwt, dt):
    """`_left_point_sums` integrand of the conditional estimator: sigma^2 dt, sigma dW."""
    sdw = np.multiply(dw, sig)
    np.square(sig, out=sig)
    sig *= dt
    return sig, sdw


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


def chain_estimates(bundle: PathBundle, params: ModelParams, env: MarketEnv,
                    options, estimator: str = "conditional_mixed") -> list[PriceEstimate]:
    """Price every option from one already-simulated path set (truncated per maturity).

    The left-point sums are formed once, at the maturity nodes only. The plain
    estimator averages discounted payoffs of the Euler-scheme prices; the default
    conditional (mixed) one averages per-path Black-Scholes values given the W-path.
    It is unbiased for the same discretized model and typically far less variable,
    since only the rho-correlated part of the randomness remains.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")
    by_maturity: dict[float, list[int]] = {}
    for i, (_, t) in enumerate(options):
        by_maturity.setdefault(t, []).append(i)
    nodes = [bundle.grid.index_of(t) for t in by_maturity]
    rho = params.rho
    if estimator == "plain":
        (log_sums,) = _left_point_sums(bundle, params, nodes, _log_euler_steps, env.rate,
                                       rho)
    else:
        int_var, int_sdw = _left_point_sums(bundle, params, nodes, _conditional_steps)
    out = [None] * len(options)
    for j, (t, members) in enumerate(by_maturity.items()):
        strikes = [options[i][0] for i in members]
        if estimator == "plain":
            terminal = np.exp(np.log(env.spot) + log_sums[j])
            disc = np.exp(-env.rate * t)
            per_strike = [disc * np.maximum(terminal - k, 0.0) for k in strikes]
        else:
            eff_spot = env.spot * np.exp(rho * int_sdw[j] - 0.5 * rho**2 * int_var[j])
            per_strike = _bs_calls(eff_spot, (1.0 - rho**2) * int_var[j], strikes, env.rate, t)
        for i, values in zip(members, per_strike):
            mean, se = _mean_se(values)
            out[i] = PriceEstimate(price=mean, std_error=se, estimator=estimator,
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

    ``bundle_of(b)`` returns block b's `PathBundle`. Each block is priced by
    `chain_estimates` on its own, ``threads`` blocks at once; the per-block estimates
    are pooled in block order, so the result does not depend on ``threads``.
    """
    def price_block(b: int) -> list[PriceEstimate]:
        return chain_estimates(bundle_of(b), params, env, options, estimator=estimator)

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
