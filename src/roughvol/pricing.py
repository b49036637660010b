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

A whole option chain is served from one simulated path set: the simulation grid is the
union of a regular grid and every quoted maturity, and each option reads the paths
truncated to its own maturity node.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .fbm import PathBundle, TimeGrid, build_joint_covariance, sample_paths
from .model import MarketEnv, ModelParams, VolPathSet, log_price_paths, volatility_paths

__all__ = [
    "PriceEstimate",
    "ChainPricingRequest",
    "black_scholes_call",
    "price_call_plain",
    "price_call_conditional",
    "chain_estimates",
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


def _left_vol_cumulatives(vols: VolPathSet, bundle: PathBundle):
    """Cumulative int sigma^2 dt and int sigma dW along paths, left-endpoint rule.

    Returns (paths x n) arrays whose column k covers [0, t_k]. The first step uses
    sigma0 (the t = 0 value of the volatility), matching the path scheme exactly.
    Both outputs are built in place, without concatenated, differenced or squared
    temporaries.
    """
    sigma, w = vols.sigma_paths, bundle.w_paths
    cum_var = np.empty_like(sigma)
    cum_sdw = np.empty_like(sigma)
    # left-endpoint volatilities per step: [sigma0, sigma_{t_1}, ..., sigma_{t_{n-1}}]
    cum_var[:, 0] = vols.params.sigma0
    cum_var[:, 1:] = sigma[:, :-1]
    # Wiener increments from W_0 = 0
    cum_sdw[:, 0] = w[:, 0]
    np.subtract(w[:, 1:], w[:, :-1], out=cum_sdw[:, 1:])
    cum_sdw *= cum_var
    np.square(cum_var, out=cum_var)
    cum_var *= vols.grid.deltas
    np.cumsum(cum_var, axis=1, out=cum_var)
    np.cumsum(cum_sdw, axis=1, out=cum_sdw)
    return cum_var, cum_sdw


def _conditional_values(cum_var, cum_sdw, idx: int, strikes, maturity: float,
                        env: MarketEnv, rho: float) -> list[np.ndarray]:
    """Per-path conditional call values at one maturity node, one array per strike."""
    int_var = cum_var[:, idx]
    int_sdw = cum_sdw[:, idx]
    eff_spot = env.spot * np.exp(rho * int_sdw - 0.5 * rho**2 * int_var)
    eff_totvar = (1.0 - rho**2) * int_var
    return _bs_calls(eff_spot, eff_totvar, strikes, env.rate, maturity)


def price_call_conditional(vols: VolPathSet, bundle: PathBundle, strike: float,
                           maturity: float, env: MarketEnv) -> PriceEstimate:
    """Conditional (mixed) estimator: per-path Black-Scholes value given the W-path.

    Unbiased for the same discretized model as the plain estimator and typically far
    less variable, since only the rho-correlated part of the randomness remains.
    """
    (estimate,) = chain_estimates(bundle, vols, env, ((strike, maturity),))
    return estimate


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
    """Price every option from one already-simulated path set (truncated per maturity)."""
    if estimator == "plain":
        log_paths = log_price_paths(bundle, vols, env, vols.params)
        return [price_call_plain(log_paths, vols.grid, k, t, env) for k, t in options]
    cum_var, cum_sdw = _left_vol_cumulatives(vols, bundle)
    by_maturity: dict[float, list[int]] = {}
    for i, (_, t) in enumerate(options):
        by_maturity.setdefault(t, []).append(i)
    out = [None] * len(options)
    for t, members in by_maturity.items():
        strikes = [options[i][0] for i in members]
        per_strike = _conditional_values(cum_var, cum_sdw, vols.grid.index_of(t), strikes,
                                         t, env, vols.params.rho)
        for i, values in zip(members, per_strike):
            mean, se = _mean_se(values)
            out[i] = PriceEstimate(price=mean, std_error=se, estimator="conditional_mixed",
                                   path_count=values.size)
    return out


def price_chain(request: ChainPricingRequest, threads: int = 1) -> list[PriceEstimate]:
    """Simulate once on the union grid (regular + quoted maturities), price everything."""
    maturities = [t for _, t in request.options]
    grid = TimeGrid.with_maturities(maturities, request.steps_per_year)
    cov = build_joint_covariance(grid, request.params.H)
    bundle = sample_paths(cov, request.path_count, request.seed, threads=threads)
    vols = volatility_paths(bundle, request.params, grid)
    return chain_estimates(bundle, vols, request.env, request.options,
                           estimator=request.estimator)
