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
        if self.sigma0 <= 0.0:
            raise ValueError(f"sigma0 must be positive, got {self.sigma0}")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho}")
        if not 0.0 < self.H < 1.0:
            raise ValueError(f"H must lie in (0, 1), got {self.H}")
        if self.xi <= 0.0:
            raise ValueError(f"xi must be positive, got {self.xi}")
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
        if self.spot <= 0.0:
            raise ValueError(f"spot must be positive, got {self.spot}")
        if self.rate < 0.0:
            raise ValueError(f"rate must be nonnegative, got {self.rate}")


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


def log_price_paths(bundle: PathBundle, vols: VolPathSet, env: MarketEnv,
                    params: ModelParams) -> np.ndarray:
    """Euler scheme on X = ln S over the grid; returns X at every node (paths x n).

    X_{k+1} = X_k + (r - sigma_k^2 / 2) dt + sigma_k (rho dW + sqrt(1-rho^2) dW_tilde),
    with X(0) = ln(spot) handled analytically (the grid excludes t = 0) and the
    volatility taken at the left endpoint of each step: sigma0 itself for the first
    step, the path value at the previous node afterwards. The discounted price
    process this induces is an exact discrete martingale because each Wiener
    increment is independent of the volatility left of it.
    """
    _check_grid(bundle, vols.grid)
    sigma = vols.sigma_paths
    n_paths, n = sigma.shape
    dt = vols.grid.deltas
    dw = bundle.w_increments
    dwt = bundle.w_tilde_increments
    rho = params.rho
    orth = np.sqrt(1.0 - rho**2)
    # left-endpoint volatilities per step: [sigma0, sigma_{t_1}, ..., sigma_{t_{n-1}}]
    sig_left = np.concatenate(
        [np.full((n_paths, 1), params.sigma0), sigma[:, : n - 1]], axis=1
    )
    increments = (env.rate - 0.5 * sig_left**2) * dt + sig_left * (rho * dw + orth * dwt)
    return np.log(env.spot) + np.cumsum(increments, axis=1)
