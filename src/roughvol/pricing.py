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

sigma is proportional to sigma0, so the conditional estimator forms its two sums once
at sigma0 = 1, I1 = int sigma^(1) dW and I2 = int (sigma^(1))^2 dt, and prices from
sigma0 * I1 and sigma0^2 * I2; rho enters only after the sums. The unit sums depend on
the paths and on (H, xi, alpha) alone. Each bundle keeps the last ones it was priced
with in a one-slot memo keyed by (H, xi, alpha) and the maturity nodes, so a repricing
of the same paths that moves only sigma0 or rho costs the Black-Scholes step alone.

The conditional estimator also prices every sampled path's antithetic mirror: the
path of the negated draws, whose fBm is -B^H and whose Wiener increments are -dW. It
has the same law, so the estimator stays exactly unbiased, and it costs no second draw
and no second product: the kernel forms its volatilities from -B^H. The two values of
a pair are averaged, and the price and its standard error are the mean and SE of the
pair means, the independent samples. A request for N priced paths draws ceil(N / 2)
base paths, so an odd N prices N + 1. The plain estimator stays i.i.d.: it is the
reference the conditional one is checked against.

A whole option chain is priced on one simulation grid, the union of a regular grid and
every quoted maturity; each option reads the paths truncated to its own maturity node.
Every Monte-Carlo price comes from one block kernel, `_block_estimates`: each
PATH_BLOCK of sampled paths is priced on its own and the per-block estimates are
pooled in block order, weighted by their independent samples. The kernel asks a
``bundle_of(b)`` for each block. Fresh-draw pricing samples the block there and drops
it once priced, so memory grows with the worker count, not the path count;
calibration's frozen-noise pricer returns its cached block, with the block's memo of
unit sums, or transforms the block's frozen draws at a new H and caches the result.
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
    "black_scholes_call",
    "chain_estimates",
    "fresh_estimates",
    "price_chain",
]

#: priced paths per independent sample of each estimator: the plain estimator's paths
#: are i.i.d., the conditional one prices each base draw and its antithetic mirror as
#: one pair.
_PATHS_PER_SAMPLE = {"plain": 1, "conditional_mixed": 2}
ESTIMATORS = tuple(_PATHS_PER_SAMPLE)


@dataclass(frozen=True)
class PriceEstimate:
    """A Monte-Carlo price; ``path_count`` counts priced paths (mirrors included)."""

    price: float
    std_error: float
    estimator: str
    path_count: int


def _bs_calls(spot: np.ndarray, totvar: np.ndarray, strikes, rate: float,
              maturity: float) -> np.ndarray:
    """Black-Scholes calls on per-path (spot, total variance) arrays, one row per strike.

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
    values = np.empty((len(strikes), *spot.shape))
    for row, strike in zip(values, strikes):
        disc_k = strike * np.exp(-rate * maturity)
        np.maximum(spot - disc_k, 0.0, out=row)
        d1 = (np.log(s / strike) + drift) / sq + half_sq
        row[pos] = s * special.ndtr(d1) - disc_k * special.ndtr(d1 - sq)
    return values


def black_scholes_call(spot: float, strike: float, rate: float, vol: float,
                       maturity: float) -> float:
    """Standard Black-Scholes call value.

    vol = 0 or maturity = 0 return the discounted intrinsic value
    max(spot - strike * exp(-r T), 0). Raises ValueError unless spot and strike are
    positive and finite, vol and maturity nonnegative and finite, and the rate finite;
    each check is written so that NaN fails it.
    """
    if not (0.0 < spot < math.inf and 0.0 < strike < math.inf):
        raise ValueError(f"spot and strike must be positive and finite, got {spot}, "
                         f"{strike}")
    if not (0.0 <= vol < math.inf and 0.0 <= maturity < math.inf):
        raise ValueError(f"vol and maturity must be nonnegative and finite, got {vol}, "
                         f"{maturity}")
    if not -math.inf < rate < math.inf:
        raise ValueError(f"rate must be finite, got {rate}")
    values = _bs_calls(np.array([spot], dtype=float), np.array([vol**2 * maturity]),
                       (strike,), rate, maturity)
    return float(values[0, 0])


def _mean_se(values: np.ndarray):
    """Mean and standard error of each row of ``values``, samples along the last axis.

    A constant row has mean values[..., 0] and standard error 0 exactly; summation
    round-off would otherwise report a spurious ~1e-17 SE. A 1-d sample gives scalars.
    """
    n = values.shape[-1]
    constant = np.ptp(values, axis=-1) == 0.0
    mean = np.where(constant, values[..., 0], values.mean(axis=-1))
    se = np.zeros_like(mean) if n == 1 else np.where(
        constant, 0.0, values.std(axis=-1, ddof=1) / np.sqrt(n))
    return mean[()], se[()]


def _conditional_steps(sig, dw, dwt, dt):
    """`_left_point_sums` integrand of the conditional estimator: sigma^2 dt, sigma dW."""
    sdw = np.multiply(dw, sig)
    np.square(sig, out=sig)
    sig *= dt
    return sig, sdw


def _unit_sums(bundle: PathBundle, params: ModelParams, nodes):
    """The conditional estimator's sums at sigma0 = 1 and the ``nodes``, pairs mirrored:
    [I2 = int sigma^2 dt, I1 = int sigma dW], from the bundle's memo when its key,
    (H, xi, alpha, nodes), is this call's, else formed and stored there.

    The memo is read once, and replaced whole: threads pricing one bundle at different
    keys may each form the sums, each pricing from its own. The stored arrays are
    never written to.
    """
    key = (params.H, params.xi, params.alpha, tuple(nodes))
    memo = bundle.unit_sums
    if memo is not None and memo[0] == key:
        return memo[1]
    sums = _left_point_sums(bundle, replace(params, sigma0=1.0), nodes,
                           _conditional_steps, mirror=True)
    bundle.unit_sums = (key, sums)
    return sums


def chain_estimates(bundle: PathBundle, params: ModelParams, env: MarketEnv,
                    options, estimator: str = "conditional_mixed") -> list[PriceEstimate]:
    """Price every option from one already-simulated path set (truncated per maturity).

    The left-point sums are formed once, at the maturity nodes only. The plain
    estimator averages discounted payoffs of the Euler-scheme prices over the i.i.d.
    paths, and needs their orthogonal increments (ValueError without them). The
    default conditional (mixed) one prices per-path Black-Scholes values given the
    W-path, for every path of the bundle and for its antithetic mirror (fBm -B^H,
    increments -dW); it never reads the orthogonal increments. Each pair's two values
    are averaged, and the price and standard error are the mean and SE of the pair
    means, so ``path_count`` is twice the bundle's. The estimator is exactly unbiased
    for the same discretized model and far less variable: only the rho-correlated part
    of the randomness remains, and a pair cancels the part that is odd in the draws.
    Its sums are taken at sigma0 = 1 (`_unit_sums`, memoised on the bundle) and scaled
    by sigma0 and sigma0^2, so a call that moves only sigma0 or rho from the bundle's
    last (H, xi, alpha) forms no sums. Each maturity's distinct strikes are reduced in
    one (strikes x samples) step, and every copy of a repeated quote gets its estimate.
    """
    _check_estimator(estimator)
    by_maturity: dict[float, list[int]] = {}
    for i, (_, t) in enumerate(options):
        by_maturity.setdefault(t, []).append(i)
    nodes = [bundle.grid.index_of(t) for t in by_maturity]
    rho = params.rho
    n_paths = bundle.fbm_paths.shape[0]
    if estimator == "plain":
        (log_sums,) = _left_point_sums(bundle, params, nodes, _log_euler_steps, env.rate,
                                       rho)
    else:
        unit_var, unit_sdw = _unit_sums(bundle, params, nodes)
    out = [None] * len(options)
    for j, (t, members) in enumerate(by_maturity.items()):
        strikes, copy_of = np.unique([options[i][0] for i in members],
                                     return_inverse=True)
        if estimator == "plain":
            terminal = np.exp(np.log(env.spot) + log_sums[j])
            values = np.exp(-env.rate * t) * np.maximum(terminal - strikes[:, None], 0.0)
        else:
            int_sdw = params.sigma0 * unit_sdw[j]
            int_var = params.sigma0**2 * unit_var[j]
            eff_spot = env.spot * np.exp(rho * int_sdw - 0.5 * rho**2 * int_var)
            both = _bs_calls(eff_spot, (1.0 - rho**2) * int_var, strikes, env.rate, t)
            values = np.add(both[:, :n_paths], both[:, n_paths:], out=both[:, :n_paths])
            values *= 0.5  # the pair means
        means, ses = _mean_se(values)
        estimates = [PriceEstimate(price=float(mean), std_error=float(se),
                                   estimator=estimator,
                                   path_count=n_paths * _PATHS_PER_SAMPLE[estimator])
                     for mean, se in zip(means, ses)]
        for i, c in zip(members, copy_of):
            out[i] = estimates[c]
    return out


def _base_draws(path_count: int, estimator: str) -> int:
    """Sampled paths that price ``path_count`` paths: all of them for the plain
    estimator, ceil(path_count / 2) base paths of mirrored pairs for the conditional
    one."""
    return -(-path_count // _PATHS_PER_SAMPLE[estimator])


def _pool_estimates(parts) -> PriceEstimate:
    """One estimate from estimates on disjoint path sets, as if on their union.

    Each part counts its independent samples: paths for the plain estimator, pairs
    (half its priced paths) for the conditional one. The pooled mean weights each
    part's mean by its sample count n_b. The pooled sample variance adds the
    within-part sums of squares, (n_b - 1) n_b se_b^2, to the between-part ones,
    n_b (mean_b - mean)^2. Both sums are exactly rounded, so the result does not
    depend on the order of the parts. Parts that are all constant at one value pool to
    that value with standard error 0 exactly, as `_mean_se` gives.
    """
    first = parts[0]
    if len(parts) == 1:
        return first
    paths = sum(e.path_count for e in parts)
    if all(e.std_error == 0.0 and e.price == first.price for e in parts):
        return replace(first, path_count=paths)
    counts = [e.path_count // _PATHS_PER_SAMPLE[e.estimator] for e in parts]
    total = sum(counts)
    mean = math.fsum(n * e.price for n, e in zip(counts, parts)) / total
    squares = math.fsum((n - 1) * n * e.std_error**2 + n * (e.price - mean) ** 2
                        for n, e in zip(counts, parts))
    return replace(first, price=mean, std_error=math.sqrt(squares / (total - 1) / total),
                   path_count=paths)


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


def _check_estimator(estimator: str) -> None:
    if estimator not in ESTIMATORS:
        raise ValueError(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")


def _checked_options(options, path_count: int, estimator: str) -> tuple:
    """``options`` as a tuple of float (strike, maturity) pairs, once the inputs of a
    fresh-draw price are checked: a nonempty option list, strikes and maturities
    positive and finite (NaN fails every comparison), a known estimator and at least
    one path. Raises ValueError otherwise."""
    options = tuple((float(k), float(t)) for k, t in options)
    if not options:
        raise ValueError("option list is empty")
    for k, t in options:
        if not 0.0 < k < math.inf:
            raise ValueError(f"strikes must be positive and finite, got {k}")
        if not 0.0 < t < math.inf:
            raise ValueError(f"maturities must be positive and finite, got {t}")
    _check_estimator(estimator)
    if path_count < 1:
        raise ValueError("path_count must be >= 1")
    return options


def fresh_estimates(cov: JointCovariance, params: ModelParams, env: MarketEnv, options,
                    path_count: int, seed: int, estimator: str = "conditional_mixed",
                    threads: int = 1) -> list[PriceEstimate]:
    """Price every option on ``path_count`` fresh paths, one PATH_BLOCK of draws at a
    time.

    The inputs are checked as `price_chain` checks them. The plain estimator draws
    ``path_count`` i.i.d. paths. The conditional one draws ceil(path_count / 2) base
    paths and prices each with its mirror, so an odd count prices path_count + 1
    paths; it draws no orthogonal increments. Each block is sampled (`sample_paths`
    with ``block=b``) in `_block_estimates`, ``threads`` blocks at once, and dropped
    once priced, so memory holds one block per worker at any ``path_count``.
    """
    options = _checked_options(options, path_count, estimator)
    return _fresh_blocks(cov, params, env, options, path_count, seed, estimator, threads)


def _fresh_blocks(cov: JointCovariance, params: ModelParams, env: MarketEnv, options,
                  path_count: int, seed: int, estimator: str,
                  threads: int) -> list[PriceEstimate]:
    """`fresh_estimates` on inputs its public callers have already checked."""
    draws = _base_draws(path_count, estimator)

    def bundle_of(b: int) -> PathBundle:
        return sample_paths(cov, draws, seed, block=b, orthogonal=estimator == "plain")

    return _block_estimates(bundle_of, _block_count(draws), params, env, options,
                            estimator, threads)


def price_chain(options, env: MarketEnv, params: ModelParams, path_count: int,
                steps_per_year: int, seed: int, estimator: str = "conditional_mixed",
                threads: int = 1) -> list[PriceEstimate]:
    """Price the (strike, maturity) ``options`` on ``path_count`` fresh paths over the
    union grid (regular at ``steps_per_year`` + quoted maturities), in option order.

    The inputs are checked first, and only here (ValueError on an empty list, a strike
    or maturity that is not positive and finite, an unknown ``estimator`` or
    ``path_count < 1``). One covariance is built and factorized, its special functions
    split over ``threads``; the paths are then streamed block by block as in
    `fresh_estimates`, with ``threads`` blocks at once. Estimates are byte-identical at
    any ``threads`` and equal a single-bundle `chain_estimates` of the same draw up to
    the rounding of the pooled sums.
    """
    options = _checked_options(options, path_count, estimator)
    grid = TimeGrid.with_maturities([t for _, t in options], steps_per_year)
    cov = build_joint_covariance(grid, params.H, threads)
    return _fresh_blocks(cov, params, env, options, path_count, seed, estimator, threads)
