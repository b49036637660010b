"""Rough exponential-volatility model: parameter vector, volatility and log-price paths.

Volatility is an exponential of fBm with a tunable drift correction,

    sigma_t = sigma0 * exp(xi * B^H_t - 1/2 * alpha * xi^2 * t^{2H}),

where alpha interpolates between the purely rough specification (alpha = 0, no
correction) and the martingale-corrected one (alpha = 1, under which E[sigma_t] = sigma0
because Var[B^H_t] = t^{2H}). The asset follows dS_t = r S_t dt + sigma_t S_t dB_t with
the volatility-correlating Brownian motion B = rho * W + sqrt(1 - rho^2) * W_tilde, W
being the fBm driver; in log coordinates the Euler scheme is exact conditional on the
volatility path up to the time discretization of the stochastic integral.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .fbm import _CHUNK_ENTRIES, PathBundle, _cumsum_steps

__all__ = ["PARAM_NAMES", "ModelParams", "MarketEnv", "volatility_paths",
           "log_price_paths"]


@dataclass(frozen=True)
class ModelParams:
    """Model parameter vector Theta; its field order is the parameter order
    (`PARAM_NAMES`) of every array, bound and optimizer."""

    sigma0: float
    rho: float
    H: float
    xi: float
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.sigma0 < np.inf:
            raise ValueError(f"sigma0 must be positive and finite, got {self.sigma0}")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho}")
        if not 0.0 < self.H < 1.0:
            raise ValueError(f"H must lie in (0, 1), got {self.H}")
        if not 0.0 < self.xi < np.inf:
            raise ValueError(f"xi must be positive and finite, got {self.xi}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in PARAM_NAMES])

    @classmethod
    def from_array(cls, values) -> "ModelParams":
        return cls(*(float(v) for v in values))


#: canonical parameter order used by arrays, bounds and optimizers: the field order
#: of `ModelParams`, its one declaration.
PARAM_NAMES = tuple(f.name for f in fields(ModelParams))


def _theta_samples(values) -> np.ndarray:
    """``values`` as a float M x 5 array, one column per parameter in `PARAM_NAMES`
    order; any other shape raises ValueError naming the parameters and the shape."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != len(PARAM_NAMES):
        raise ValueError(f"theta_samples must be an M x {len(PARAM_NAMES)} matrix with "
                         f"columns {', '.join(PARAM_NAMES)}, got shape {values.shape}")
    return values


@dataclass(frozen=True)
class MarketEnv:
    """Spot price and the (annualized, continuously compounded) all-in rate."""

    spot: float
    rate: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.spot < np.inf:
            raise ValueError(f"spot must be positive and finite, got {self.spot}")
        if not 0.0 <= self.rate < np.inf:
            raise ValueError(f"rate must be nonnegative and finite, got {self.rate}")


def volatility_paths(fbm_paths: np.ndarray, params: ModelParams, times,
                     out: np.ndarray | None = None) -> np.ndarray:
    """sigma_t = sigma0 * exp(xi * B^H_t - 1/2 * alpha * xi^2 * t^{2H}), entrywise.

    ``fbm_paths`` holds B^H at ``times`` along its last axis; ``out`` (which may be
    ``fbm_paths`` itself) receives the result. Strictly positive for any finite fBm
    sample, and monotone decreasing in alpha for a fixed sample (the correction term
    only grows).
    """
    correction = 0.5 * params.alpha * params.xi**2 * np.asarray(times) ** (2.0 * params.H)
    sigma = np.multiply(fbm_paths, params.xi, out=out)
    sigma -= correction
    np.exp(sigma, out=sigma)
    if params.sigma0 != 1.0:  # x * 1.0 is x: skip the pass
        sigma *= params.sigma0
    return sigma


def _left_point_sums(bundle: PathBundle, params: ModelParams, nodes, integrand, *args,
                     mirror: bool = False):
    """Left-endpoint sums over [0, t_k] at each grid node k in ``nodes``.

    Each step uses the volatility at its left endpoint: at t = 0 for the first step,
    at the previous node afterwards. The bundle's arrays are time-major (memory order
    only, shapes unchanged: see `PathBundle`), so the steps are walked in panels of
    ``_CHUNK_ENTRIES // paths`` contiguous steps for every path at once. A panel's
    volatilities are formed from B^H = 0 at t = 0 (which gives sigma0 exactly) and the
    fBm at the earlier nodes. ``integrand(sig, dw, dw_tilde, dt, *args)`` maps a panel
    of those volatilities, the matching Wiener and orthogonal increments (None when the
    bundle has none) and the step sizes to a tuple of per-step arrays, and may
    overwrite ``sig``. Each term is summed in place step by step, the running sum of
    the previous panel carried into its first step: the sequential additions of one
    cumsum along each path, so the sums keep its bits. They are recorded at the nodes;
    one (len(nodes) x paths) array per term is returned. Only one panel of temporaries
    is held at a time.

    With ``mirror`` every path is summed a second time as its antithetic mirror, whose
    fBm is -B^H and whose increments are -dW and -dW~. The mirror's volatilities are
    formed from -B^H in the same panel, so no negated copy of the paths is stored;
    its sums follow the sampled paths' along the paths axis (len(nodes) x 2 paths).
    An integrand reads sigma only through sigma^2 and sigma times an increment, so
    the mirror's sigma against -dW is handed over as -sigma against +dW: the same
    terms bit for bit, without a negated copy of the increments.
    """
    fbm, dw_tilde = bundle.fbm_paths, bundle.w_tilde_increments
    n_paths = fbm.shape[0]
    end = max(nodes) + 1
    dt = bundle.grid.deltas[:end]
    times = np.concatenate(([0.0], bundle.grid.times[: end - 1]))
    width = max(1, _CHUNK_ENTRIES // n_paths)
    signs = (1.0, -1.0) if mirror else (1.0,)
    sums = running = None
    for lo in range(0, end, width):
        hi = min(lo + width, end)
        dw = bundle.w_increments[:, lo:hi]
        dwt = None if dw_tilde is None else dw_tilde[:, lo:hi]
        at = [(j, k - lo) for j, k in enumerate(nodes) if lo <= k < hi]
        for m, sign in enumerate(signs):
            sig = np.empty((n_paths, hi - lo), order="F")
            head = 1 if lo == 0 else 0  # the first step's left endpoint: B^H = 0
            sig[:, :head] = 0.0
            np.multiply(fbm[:, lo + head - 1: hi - 1], sign, out=sig[:, head:])  # B^H, -B^H
            volatility_paths(sig, params, times[lo:hi], out=sig)
            if sign < 0.0:
                np.negative(sig, out=sig)  # the mirror: -sigma against +dW, see above
            terms = integrand(sig, dw, dwt, dt[lo:hi], *args)
            if sums is None:
                sums = [np.empty((len(nodes), len(signs) * n_paths)) for _ in terms]
                running = np.empty((len(signs), len(terms), n_paths))
            cols = slice(m * n_paths, (m + 1) * n_paths)
            for total, carried, term in zip(sums, running[m], terms):
                if lo:
                    term[:, 0] += carried  # the sum up to the panel's first step
                _cumsum_steps(term)
                carried[:] = term[:, -1]
                for j, k in at:
                    total[j, cols] = term[:, k]
            # free this panel before the next one is allocated
            del sig, terms, term
    return sums


def _log_euler_steps(sig, dw, dwt, dt, rate: float, rho: float):
    """`_left_point_sums` integrand of the Euler scheme on X = ln S:
    X_{k+1} - X_k = (r - sigma_k^2 / 2) dt + sigma_k (rho dW + sqrt(1-rho^2) dW_tilde).
    Raises ValueError without dW_tilde (paths drawn without orthogonal increments)."""
    if dwt is None:
        raise ValueError("the asset scheme needs the orthogonal increments dW~; "
                         "sample the paths with orthogonal=True")
    return ((rate - 0.5 * sig**2) * dt + sig * (rho * dw + np.sqrt(1.0 - rho**2) * dwt),)


def log_price_paths(bundle: PathBundle, params: ModelParams, env: MarketEnv) -> np.ndarray:
    """Euler scheme on X = ln S over the grid; returns X at every node (paths x n).

    The `_log_euler_steps` increments are summed by `_left_point_sums`, with
    X(0) = ln(spot) handled analytically (the grid excludes t = 0) and the volatility
    taken at the left endpoint of each step. The discounted price process this
    induces is an exact discrete martingale because each Wiener increment is
    independent of the volatility left of it. Raises ValueError on a bundle drawn
    without its orthogonal increments.
    """
    (sums,) = _left_point_sums(bundle, params, range(bundle.grid.n), _log_euler_steps,
                               env.rate, params.rho)
    return np.ascontiguousarray(sums.T) + np.log(env.spot)
