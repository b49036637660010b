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

from dataclasses import dataclass

import numpy as np

from .fbm import PathBundle, TimeGrid

__all__ = ["PARAM_NAMES", "ModelParams", "MarketEnv", "VolPathSet", "volatility_paths",
           "log_price_paths"]

#: canonical parameter order used by arrays, bounds and optimizers.
PARAM_NAMES = ("sigma0", "rho", "H", "xi", "alpha")


@dataclass(frozen=True)
class ModelParams:
    """Model parameter vector Theta = (sigma0, rho, H, xi, alpha)."""

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
        return np.array([self.sigma0, self.rho, self.H, self.xi, self.alpha])

    @classmethod
    def from_array(cls, values) -> "ModelParams":
        return cls(*(float(v) for v in values))


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


@dataclass(eq=False)
class VolPathSet:
    """Volatility paths (paths x grid nodes) together with their generating inputs."""

    sigma_paths: np.ndarray
    params: ModelParams
    grid: TimeGrid


def _check_grid(bundle: PathBundle, grid: TimeGrid) -> None:
    if bundle.grid is not grid and not (
        bundle.grid.n == grid.n and np.array_equal(bundle.grid.times, grid.times)
    ):
        raise ValueError("path bundle was sampled on a different grid")


def volatility_paths(bundle: PathBundle, params: ModelParams, grid: TimeGrid) -> VolPathSet:
    """sigma_t = sigma0 * exp(xi * B^H_t - 1/2 * alpha * xi^2 * t^{2H}), entrywise.

    Strictly positive for any finite fBm sample, and monotone decreasing in alpha for a
    fixed sample (the correction term only grows).
    """
    _check_grid(bundle, grid)
    correction = 0.5 * params.alpha * params.xi**2 * grid.times ** (2.0 * params.H)
    sigma = params.sigma0 * np.exp(params.xi * bundle.fbm_paths - correction)
    return VolPathSet(sigma_paths=sigma, params=params, grid=grid)


#: entries per row sub-block of the left-point sums (2 MB of float64 per temporary),
#: so the temporaries stay in cache at any grid size.
_CHUNK_ENTRIES = 1 << 18


def _left_point_sums(bundle: PathBundle, vols: VolPathSet, nodes, integrand, *args):
    """Left-endpoint sums over [0, t_k] at each grid node k in ``nodes``.

    Each step uses the volatility at its left endpoint: sigma0 itself (the t = 0
    value) for the first step, the path value at the previous node afterwards.
    ``integrand(sig, dw, dw_tilde, dt, *args)`` maps a sub-block of rows of those
    volatilities, the matching Wiener increments and the step sizes to a tuple of
    per-step arrays, and may overwrite ``sig``. Each array is summed along each path
    with one sequential cumsum; one (len(nodes) x paths) array per term is returned.
    Only one sub-block of full-length temporaries is held at a time.
    """
    _check_grid(bundle, vols.grid)
    sigma = vols.sigma_paths
    n_paths = sigma.shape[0]
    end = max(nodes) + 1
    dt = vols.grid.deltas[:end]
    chunk = max(1, _CHUNK_ENTRIES // end)
    sums = None
    for lo in range(0, n_paths, chunk):
        rows = slice(lo, min(lo + chunk, n_paths))
        sig = np.empty((rows.stop - lo, end))
        sig[:, 0] = vols.params.sigma0
        sig[:, 1:] = sigma[rows, : end - 1]
        steps = integrand(sig, bundle.w_increments[rows, :end],
                          bundle.w_tilde_increments[rows, :end], dt, *args)
        if sums is None:
            sums = [np.empty((len(nodes), n_paths)) for _ in steps]
        for total, step in zip(sums, steps):
            np.cumsum(step, axis=1, out=step)
            total[:, rows] = step[:, nodes].T
        # free this sub-block before the next one is allocated
        del sig, steps, step
    return sums


def _log_euler_steps(sig, dw, dwt, dt, rate: float, rho: float):
    """`_left_point_sums` integrand of the Euler scheme on X = ln S:
    X_{k+1} - X_k = (r - sigma_k^2 / 2) dt + sigma_k (rho dW + sqrt(1-rho^2) dW_tilde)."""
    return ((rate - 0.5 * sig**2) * dt + sig * (rho * dw + np.sqrt(1.0 - rho**2) * dwt),)


def log_price_paths(bundle: PathBundle, vols: VolPathSet, env: MarketEnv) -> np.ndarray:
    """Euler scheme on X = ln S over the grid; returns X at every node (paths x n).

    The `_log_euler_steps` increments are summed by `_left_point_sums`, with
    X(0) = ln(spot) handled analytically (the grid excludes t = 0) and the volatility
    taken at the left endpoint of each step. The discounted price process this
    induces is an exact discrete martingale because each Wiener increment is
    independent of the volatility left of it.
    """
    (sums,) = _left_point_sums(bundle, vols, range(vols.grid.n), _log_euler_steps,
                               env.rate, vols.params.rho)
    return np.ascontiguousarray(sums.T) + np.log(env.spot)
