"""Monte-Carlo pricing of European calls, plain and conditional (mixed) estimators.

The plain estimator discounts the sample-mean payoff of simulated terminal prices. The
conditional estimator integrates out the orthogonal Brownian component analytically:
conditional on the volatility-driving path, the terminal price is lognormal, so each
path contributes the Black-Scholes value with effective spot

    S_eff = S0 * exp(rho * int sigma dW - 1/2 rho^2 int sigma^2 dt)

and effective variance (1 - rho^2) * int sigma^2 dt. Both estimators take their sums
from the path scheme's left-point kernel, `model._left_point_sums`, on the same
increments, which makes the conditional estimator's values exactly unbiased for the
discretized model the plain estimator prices — the two may be compared on shared
samples at standard-error resolution.

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
a pair are averaged into Y, the independent samples. A request for N priced paths
draws ceil(N / 2) base paths, so an odd N prices N + 1. The plain estimator stays
i.i.d.: it is the reference the conditional one is checked against.

The pair means Y are regressed on the pair means of three control variates, each with
mean exactly 0 on the discrete scheme (Glasserman 2003, section 4.1): c1 = S_eff - S0,
since S_eff is a discrete martingale; c2 = I2 - E[I2], with E[I2] = sigma0^2 sum
exp((2 - alpha) xi^2 t_{k-1}^{2H}) dt_k since Var B^H_t = t^{2H}; and c3 = I1, since
each sigma_{k-1} is independent of dW_k. The price is mean(Y) - beta . mean(c), beta
fitted by least squares, with the standard error of the residuals (`_controlled`
states which controls are kept). beta fitted on the priced pairs biases the price by
O(1 / pairs), below its standard error. The plain estimator is the same regression on
no controls: the sample mean of the discounted payoffs, with its standard error.

A whole option chain is priced on one simulation grid, the union of a regular grid and
every quoted maturity; each option reads the paths truncated to its own maturity node.
Every Monte-Carlo price comes from one block kernel, `_block_estimates`: each
PATH_BLOCK of sampled paths is priced on its own, and the per-block moments are
pooled in block order with exactly rounded sums; `_controlled` then forms each
estimate once, from the moments of all the samples. The kernel asks a
``bundle_of(b)`` for each block. Fresh-draw pricing samples the block there, one row
panel at a time (`sample_paths`, which forms each panel's paths in
`fbm.transform_normals`, the one path kernel, over the Z_B half of the panel's own
draws, in one buffer per worker). The conditional estimator reads only each path's
unit sums at the maturity nodes, so a block of several panels keeps their sums alone
and is priced from them, as its memo; a block of one panel is priced from its paths.
So memory grows with the worker count, by one panel of draws each, not with the path
count. Calibration's frozen-noise pricer returns a block of its cached path set, with
the block's memo of unit sums; at a new H it passes every block of its frozen draws
through the same `transform_normals` before the kernel runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import mul

import numpy as np
from scipy import special

from .fbm import (PATH_BLOCK, JointCovariance, PathBundle, TimeGrid, _block_count,
                  build_joint_covariance, parallel_map, sample_paths)
from .model import MarketEnv, ModelParams, _left_point_sums, _log_euler_steps

__all__ = [
    "PriceEstimate",
    "black_scholes_call",
    "chain_estimates",
    "price_chain",
]

#: priced paths per independent sample of each estimator: the plain estimator's paths
#: are i.i.d., the conditional one prices each base draw and its antithetic mirror as
#: one pair.
_PATHS_PER_SAMPLE = {"plain": 1, "conditional_mixed": 2}
ESTIMATORS = tuple(_PATHS_PER_SAMPLE)


#: a control is dropped when the part of its variance that the controls kept before it
#: do not explain is at most this fraction of its variance (it is then numerically
#: collinear with them), or when its variance is 0
_COLLINEAR = 1e-10


@dataclass(frozen=True)
class PriceEstimate:
    """A Monte-Carlo price; ``path_count`` counts priced paths (mirrors included).

    An estimate of `chain_estimates` also carries, in ``_moments``, the sufficient
    statistics of its regression on the zero-mean controls: (samples, means, cross,
    tail), where means are those of [Y, c1, ..., cp] over the independent samples, cross
    their centred cross products and tail the log relative second moment of sigma^2 at
    the maturity (`_controlled`). A conditional estimate has the three controls and the
    pairs as samples; a plain one has no control, its paths as samples and tail 0.
    `_pool_estimates` combines them across path blocks. They take no part in
    comparisons.
    """

    price: float
    std_error: float
    estimator: str
    path_count: int
    _moments: tuple | None = field(default=None, compare=False, repr=False)


def _bs_calls(spot: np.ndarray, totvar: np.ndarray, strikes, rate: float,
              maturity: float) -> np.ndarray:
    """Black-Scholes calls on per-path (spot, total variance) arrays, one row per strike.

    ``totvar`` is sigma^2 * T; zero total variance degenerates to the discounted
    intrinsic value max(spot - strike * exp(-rT), 0). The positivity mask and
    sqrt(totvar) do not depend on the strike and are computed once for all of them,
    and each row's positive paths are formed in two reused buffers.
    """
    # a spot that underflowed to zero is a worthless call; log() would warn on it
    pos = (totvar > 0.0) & (spot > 0.0)
    sq = np.sqrt(totvar[pos])
    s = spot[pos]
    half_sq = 0.5 * sq
    drift = rate * maturity
    d1, d2 = np.empty_like(s), np.empty_like(s)
    values = np.empty((len(strikes), *spot.shape))
    for row, strike in zip(values, strikes):
        disc_k = strike * np.exp(-rate * maturity)
        np.maximum(spot - disc_k, 0.0, out=row)
        np.divide(s, strike, out=d1)
        np.log(d1, out=d1)
        d1 += drift
        d1 /= sq
        d1 += half_sq
        np.subtract(d1, sq, out=d2)
        special.ndtr(d2, out=d2)
        d2 *= disc_k
        special.ndtr(d1, out=d1)
        d1 *= s
        d1 -= d2
        row[pos] = d1
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


def _centered(x: np.ndarray):
    """Mean of each row of ``x`` and the deviations from it; a constant row has mean
    x[..., 0] exactly and deviations 0."""
    constant = np.ptp(x, axis=-1) == 0.0
    mean = np.where(constant, x[..., 0], x.mean(axis=-1))
    return mean, x - mean[..., None]


def _dot(a, b) -> float:
    return sum(map(mul, a, b))


def _controlled(count: int, means, cross, tail: float) -> tuple[float, float]:
    """Price and standard error of the regression estimator from one row's moments.

    ``means`` and ``cross`` are the means and centred cross products of
    [Y, c1, ..., cp] over ``count`` independent samples, each control with exact mean
    0; with p = 0 (the plain estimator) they are Y's mean and sum of squares, and the
    estimate is the sample mean with its standard error. The controls are factored by
    Cholesky in that fixed order, and each is kept only if its pivot exceeds
    `_COLLINEAR` times its own variance (so a constant control is dropped) and a
    residual degree of freedom remains. With beta fitted by least squares on the q kept
    ones, the price is mean(Y) - w beta . mean(c) and the standard error
    sqrt(RSS_w / (count - 1 - w q) / count), where RSS_w is the sum of squares of the
    residuals Y - w beta . c and the weight w is 1 away from the tail rule below. A Y
    without spread is its mean with standard error 0.

    The tail rule: w = clip(log(count) - tail, 0, 1) with ``tail`` = 4 xi^2 T^{2H}, so
    no control is used once tail reaches log(count). E[sigma_T^4] / E[sigma_T^2]^2 =
    exp(tail), and a sample of lognormal values with more relative variance than
    samples misses the paths that carry their mean: the controls' sample means and
    variances, and so beta and the standard error, would not be resolved. w falls
    linearly over the last unit of tail, so price and standard error stay continuous in
    the parameters, as the least-squares stage's finite differences need.
    """
    syy = cross[0][0]
    if syy == 0.0:
        return means[0], 0.0
    weight = min(1.0, max(0.0, math.log(count) - tail))
    kept, factor = [], []  # indices of the kept controls, rows of their Cholesky factor
    for k in range(1, len(means)) if weight > 0.0 else ():
        if count - len(kept) <= 2:
            break
        row = []
        for i, lrow in zip(kept, factor):
            row.append((cross[k][i] - _dot(row, lrow)) / lrow[len(row)])
        pivot = cross[k][k] - _dot(row, row)
        if pivot > _COLLINEAR * cross[k][k]:
            kept.append(k)
            factor.append(row + [math.sqrt(pivot)])
    shift, fit = [], []  # the forward solves against the controls' means and Y's
    for i, lrow in zip(kept, factor):
        shift.append((means[i] - _dot(shift, lrow)) / lrow[-1])
        fit.append((cross[0][i] - _dot(fit, lrow)) / lrow[-1])
    rss = max(syy - weight * (2.0 - weight) * _dot(fit, fit), 0.0)
    return (means[0] - weight * _dot(fit, shift),
            math.sqrt(rss / (count - 1 - weight * len(kept)) / count))


def _regression_estimates(values: np.ndarray, controls: np.ndarray,
                          tail: float) -> list[tuple]:
    """(price, standard error, moments) of each row of ``values`` (strikes x samples),
    controlled by the rows of ``controls`` (p x samples), as `_controlled` gives them;
    p = 0 controls give each row's sample mean and its standard error.

    Every cross product is a 1-d dot product, of one row with itself or with one
    control, so a row's moments do not depend on which other rows share the call.
    """
    count = values.shape[-1]
    c_mean, c_dev = _centered(controls)
    y_mean, y_dev = _centered(values)
    scc = [[float(a @ b) for b in c_dev] for a in c_dev]
    c_mean = c_mean.tolist()
    out = []
    for ym, dev in zip(y_mean.tolist(), y_dev):
        syy, syc = float(dev @ dev), [float(c @ dev) for c in c_dev]
        moments = (count, [ym, *c_mean],
                   [[syy, *syc], *([c, *r] for c, r in zip(syc, scc))], tail)
        out.append((*_controlled(*moments), moments))
    return out


def _conditional_steps(sig, dw, dwt, dt):
    """`_left_point_sums` integrand of the conditional estimator: sigma^2 dt, sigma dW."""
    sdw = np.multiply(dw, sig)
    np.square(sig, out=sig)
    sig *= dt
    return sig, sdw


def _unit_key(params: ModelParams, nodes) -> tuple:
    return params.H, params.xi, params.alpha, tuple(nodes)


def _unit_sums(bundle: PathBundle, params: ModelParams, nodes):
    """The conditional estimator's sums at sigma0 = 1 and the ``nodes``, pairs mirrored:
    [I2 = int sigma^2 dt, I1 = int sigma dW, E[I2]], from the bundle's memo when its
    key, (H, xi, alpha, nodes), is this call's, else formed and stored there.

    E[I2] = sum exp((2 - alpha) xi^2 t_{k-1}^{2H}) dt_k is exact on the left-point
    scheme, because Var B^H_t = t^{2H}; one value per node.
    The memo is read once, and replaced whole: threads pricing one bundle at different
    keys may each form the sums, each pricing from its own. The stored arrays are
    never written to.
    """
    key = _unit_key(params, nodes)
    memo = bundle.unit_sums
    if memo is not None and memo[0] == key:
        return memo[1]
    sums = _left_point_sums(bundle, replace(params, sigma0=1.0), nodes,
                            _conditional_steps, mirror=True)
    end = max(nodes) + 1
    left = np.concatenate(([0.0], bundle.grid.times[: end - 1]))
    growth = np.exp((2.0 - params.alpha) * params.xi**2 * left ** (2.0 * params.H))
    sums = (*sums, np.cumsum(growth * bundle.grid.deltas[:end])[nodes])
    bundle.unit_sums = (key, sums)
    return sums


def chain_estimates(bundle: PathBundle, params: ModelParams, env: MarketEnv,
                    options, estimator: str = "conditional_mixed") -> list[PriceEstimate]:
    """Price every option from one already-simulated path set (truncated per maturity).

    The left-point sums are formed once, at the maturity nodes only. The plain estimator
    averages discounted payoffs of the Euler-scheme prices over the i.i.d. paths, a
    regression on no controls, and needs their orthogonal increments (ValueError without
    them). The default conditional (mixed) one prices per-path Black-Scholes values
    given the W-path, for every path of the bundle and for its antithetic mirror
    (fBm -B^H, increments -dW); it never reads the orthogonal increments. Each pair's
    two values are averaged, and the pair means Y, the independent samples, are
    regressed on the pair means of three controls with exact mean 0: c1 = S_eff - S0,
    c2 = I2 - E[I2] and c3 = I1 (`_controlled`, which states the drop rules). The price
    is mean(Y) - beta . mean(c), and its standard error that of the regression
    residuals, so ``path_count`` is twice the bundle's. Every estimate carries its
    regression's moments, which `_pool_estimates` pools over path blocks. The estimator
    is unbiased for the same discretized model up to the O(1 / pairs) bias of fitting
    beta on the priced paths, and far less variable: only the rho-correlated part of the
    randomness remains, a pair cancels the part that is odd in the draws, and the
    controls take out most of the rest. Its sums are taken at sigma0 = 1 (`_unit_sums`,
    memoised on the bundle) and scaled by sigma0 and sigma0^2, so a call that moves only
    sigma0 or rho from the bundle's last (H, xi, alpha) forms no sums. Each maturity's
    distinct strikes are reduced in one (strikes x samples) step, and every copy of a
    repeated quote gets its estimate.
    """
    _check_estimator(estimator)
    by_maturity: dict[float, list[int]] = {}
    for i, (_, t) in enumerate(options):
        by_maturity.setdefault(t, []).append(i)
    nodes = [bundle.grid.index_of(t) for t in by_maturity]
    rho = params.rho
    n_paths = bundle.fbm_paths.shape[0]
    paths = n_paths * _PATHS_PER_SAMPLE[estimator]
    if estimator == "plain":
        (log_sums,) = _left_point_sums(bundle, params, nodes, _log_euler_steps, env.rate,
                                       rho)
        controls, tail = np.empty((0, n_paths)), 0.0
    else:
        unit_var, unit_sdw, unit_mean_var = _unit_sums(bundle, params, nodes)
        controls = np.empty((3, n_paths))
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
            for row, paired in zip(controls, (eff_spot, int_var, int_sdw)):
                np.add(paired[:n_paths], paired[n_paths:], out=row)
                row *= 0.5
            controls[0] -= env.spot
            controls[1] -= params.sigma0**2 * unit_mean_var[j]
            tail = 4.0 * params.xi**2 * t ** (2.0 * params.H)
        estimates = [PriceEstimate(price, se, estimator, paths, moments)
                     for price, se, moments
                     in _regression_estimates(values, controls, tail)]
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

    The parts' regression moments are pooled (`_pool_moments`) and `_controlled`
    prices them once, fitting a conditional estimate's beta on the moments of all the
    pairs, so the estimate, moments included, is that of one `chain_estimates` over
    the union up to the rounding of the sums. Parts that are all constant at one value
    pool to that value with standard error 0 exactly, as `_controlled` gives. Every
    sum is exactly rounded, so the result does not depend on the order of the parts.
    """
    if len(parts) == 1:
        return parts[0]
    moments = _pool_moments([e._moments for e in parts])
    price, se = _controlled(*moments)
    return replace(parts[0], price=price, std_error=se,
                   path_count=sum(e.path_count for e in parts), _moments=moments)


def _pool_moments(parts) -> tuple:
    """The (count, means, cross, tail) moments of the union of disjoint samples of one
    maturity: the means weight each part's by its count n_b, and the centred cross
    products add the within-part ones to the between-part ones,
    n_b (m_b - m)(m_b - m)^T. Every sum is exactly rounded (`math.fsum`), and a mean
    on which every part agrees is kept exactly, so constant parts pool to constant
    moments with zero cross products."""
    total = sum(part[0] for part in parts)
    dim = len(parts[0][1])
    first = parts[0][1]
    means = [first[i] if all(m[i] == first[i] for _, m, _, _ in parts)
             else math.fsum(n * m[i] for n, m, _, _ in parts) / total
             for i in range(dim)]
    cross = [[0.0] * dim for _ in range(dim)]
    for i in range(dim):
        for k in range(i, dim):
            cross[i][k] = cross[k][i] = math.fsum(
                x for n, m, c, _ in parts
                for x in (c[i][k], n * (m[i] - means[i]) * (m[k] - means[k])))
    return total, means, cross, parts[0][3]


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


def _fresh_blocks(cov: JointCovariance, params: ModelParams, env: MarketEnv, options,
                  path_count: int, seed: int, estimator: str,
                  threads: int) -> list[PriceEstimate]:
    """Price every option on ``path_count`` fresh paths, one PATH_BLOCK of draws at a
    time, on inputs its callers have already checked (`_checked_options`).

    The plain estimator draws ``path_count`` i.i.d. paths. The conditional one draws
    ceil(path_count / 2) base paths and prices each with its mirror, so an odd count
    prices path_count + 1 paths; it draws no orthogonal increments. Each block is
    sampled (`sample_paths` with ``block=b``) in `_block_estimates`, ``threads`` blocks
    at once, one row panel at a time. A block of one panel (every plain block, whose
    dW~ follows all of its Z in the stream, and a conditional one at n <= 256) is
    priced from its paths. Otherwise each panel's unit sums (`_unit_sums`, for its
    paths and their mirrors) go into the block's columns of the sums, and the block is
    priced from a bundle of paths without steps whose memo holds them, so
    `chain_estimates` forms no sums. The sums are per path, so the estimates are those
    of the whole block bit for bit, and a worker holds one panel of draws and the
    block's sums at any ``path_count``.
    """
    draws = _base_draws(path_count, estimator)
    # chain_estimates' maturity nodes, in its order, which its memo key reads
    nodes = [cov.grid.index_of(t) for t in dict.fromkeys(t for _, t in options)]

    def bundle_of(b: int) -> PathBundle:
        rows = min(PATH_BLOCK, draws - b * PATH_BLOCK)
        whole, sums = [], []

        def take(lo: int, panel: PathBundle) -> None:
            height = panel.fbm_paths.shape[0]
            if height == rows:
                whole.append(panel)
                return
            var, sdw, mean_var = _unit_sums(panel, params, nodes)
            if not sums:
                sums.extend((np.empty((len(nodes), 2 * rows)),
                             np.empty((len(nodes), 2 * rows)), mean_var))
            for total, part in zip(sums, (var, sdw)):
                total[:, lo: lo + height] = part[:, :height]  # the sampled paths
                total[:, rows + lo: rows + lo + height] = part[:, height:]  # mirrors

        sample_paths(cov, draws, seed, block=b, orthogonal=estimator == "plain",
                     each_panel=take)
        if whole:
            return whole[0]
        stepless = np.empty((rows, 0))
        bundle = PathBundle(stepless, stepless, None, cov.grid)
        bundle.unit_sums = (_unit_key(params, nodes), tuple(sums))
        return bundle

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
    split over ``threads``; the paths are then streamed block by block, each block in
    row panels, as in `_fresh_blocks`, with ``threads`` blocks at once. Estimates are
    byte-identical at any ``threads``, equal those of the blocks of the whole
    `sample_paths` draw bit for bit, and equal a single-bundle `chain_estimates` of that
    draw up to the rounding of the pooled sums.
    """
    options = _checked_options(options, path_count, estimator)
    grid = TimeGrid.with_maturities([t for _, t in options], steps_per_year)
    cov = build_joint_covariance(grid, params.H, threads)
    return _fresh_blocks(cov, params, env, options, path_count, seed, estimator, threads)
