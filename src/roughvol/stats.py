"""Two-sample tests and the bootstrap-based model diagnostics built on them.

The sensitivity analysis asks whether a calibrated parameter matters for fit quality:
bootstrap samples are sorted by the parameter, the lowest three octiles are compared
with the highest three (Kolmogorov-Smirnov on the corresponding fit values), and a
small p-value flags a parameter whose level shifts the fit distribution. The
significance test compares two calibrated models directly: both are repriced under
many independent path sets and the per-repetition average relative fit values are fed
to Welch's unequal-variance t-test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .calibration import fit_metrics
from .fbm import (TimeGrid, _STREAM_SIGNIFICANCE, build_joint_covariance, derive_seed,
                  parallel_map)
from .market import OptionStructure
from .model import PARAM_NAMES, ModelParams, _theta_samples
from .pricing import _checked_options, _fresh_blocks

__all__ = [
    "KsResult",
    "TTestResult",
    "OctileGrouping",
    "SensitivityResult",
    "SignificanceResult",
    "ks_two_sample",
    "welch_t_test",
    "octile_grouping",
    "sensitivity_analysis",
    "significance_test",
]


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float
    n1: int
    n2: int


@dataclass(frozen=True)
class TTestResult:
    statistic: float
    dof: float
    p_value: float
    mean_x: float
    mean_y: float


def ks_two_sample(x, y) -> KsResult:
    """Exact two-sample KS statistic with the asymptotic p-value.

    D is the exact supremum of |F1 - F2|, evaluated at every pooled sample point via
    the right-continuous empirical CDFs; the p-value is the survival function of the
    Kolmogorov limit law (`scipy.special.kolmogorov`) at the effective sample size
    n1 n2 / (n1 + n2), which is conservative for the small groups the sensitivity
    analysis produces.
    """
    x = np.sort(np.asarray(x, dtype=float).ravel())
    y = np.sort(np.asarray(y, dtype=float).ravel())
    n1, n2 = x.size, y.size
    if n1 < 1 or n2 < 1:
        raise ValueError("both samples must be non-empty")
    pooled = np.concatenate([x, y])
    cdf1 = np.searchsorted(x, pooled, side="right") / n1
    cdf2 = np.searchsorted(y, pooled, side="right") / n2
    d = float(np.max(np.abs(cdf1 - cdf2)))
    lam = math.sqrt(n1 * n2 / (n1 + n2)) * d
    return KsResult(statistic=d, p_value=float(special.kolmogorov(lam)), n1=n1, n2=n2)


def welch_t_test(x, y) -> TTestResult:
    """Two-sided Welch's t-test (unequal variances, Welch-Satterthwaite dof)."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size < 2 or y.size < 2:
        raise ValueError("welch t-test needs at least 2 observations per sample")
    mx, my = float(x.mean()), float(y.mean())
    a = float(x.var(ddof=1)) / x.size
    b = float(y.var(ddof=1)) / y.size
    se2 = a + b
    if se2 == 0.0:
        raise ValueError("both samples have zero variance; t statistic is undefined")
    t = (mx - my) / math.sqrt(se2)
    dof = se2**2 / (a**2 / (x.size - 1) + b**2 / (y.size - 1))
    # stdtr(dof, -|t|) is the Student-t survival function at |t|
    p = 2.0 * float(special.stdtr(dof, -abs(t)))
    return TTestResult(statistic=t, dof=dof, p_value=min(1.0, p), mean_x=mx, mean_y=my)


@dataclass(frozen=True)
class OctileGrouping:
    """Index arrays (into the original sample) for the low 3/8, middle 2/8, high 3/8."""

    low: np.ndarray
    mid: np.ndarray
    high: np.ndarray


def octile_grouping(values) -> OctileGrouping:
    """Split by sorted rank: low group = floor(3M/8) smallest, high group starts at
    ceil(5M/8). Ties are broken by original position (stable sort), so the split is
    deterministic even for constant input."""
    values = np.asarray(values, dtype=float).ravel()
    m = values.size
    if m < 8:
        raise ValueError("octile grouping needs at least 8 observations")
    order = np.argsort(values, kind="stable")
    b1 = (3 * m) // 8
    b2 = -((-5 * m) // 8)
    return OctileGrouping(low=order[:b1], mid=order[b1:b2], high=order[b2:])


@dataclass(frozen=True)
class SensitivityResult:
    parameter: str
    ks: KsResult
    reject: bool

    def to_dict(self) -> dict:
        return {"parameter": self.parameter, "statistic": self.ks.statistic,
                "p_value": self.ks.p_value, "n_low": self.ks.n1, "n_high": self.ks.n2,
                "reject": self.reject}


def sensitivity_analysis(theta_samples, fit_values,
                         alpha_level: float = 0.05) -> list[SensitivityResult]:
    """Per-parameter KS test: fit values of the low-octile group vs the high-octile one.

    ``theta_samples`` is the M x 5 bootstrap parameter matrix, one column per
    parameter in `PARAM_NAMES` order, and ``fit_values`` the matching per-sample fit
    summary (one scalar per bootcalibration). One result per parameter, named by
    `PARAM_NAMES`; any other width raises ValueError naming the shape. Rejection at
    ``alpha_level`` means the parameter's level is associated with a shifted fit
    distribution — the calibration is sensitive to it.
    """
    theta_samples = _theta_samples(theta_samples)
    fit_values = np.asarray(fit_values, dtype=float).ravel()
    if fit_values.size != len(theta_samples):
        raise ValueError("one fit value per bootstrap sample required")
    if len(theta_samples) < 8:
        raise ValueError("sensitivity analysis needs at least 8 bootstrap samples")
    if not 0.0 < alpha_level < 1.0:
        raise ValueError("alpha_level must lie in (0, 1)")
    results = []
    for name, column in zip(PARAM_NAMES, theta_samples.T):
        groups = octile_grouping(column)
        ks = ks_two_sample(fit_values[groups.low], fit_values[groups.high])
        results.append(SensitivityResult(parameter=name, ks=ks,
                                         reject=ks.p_value < alpha_level))
    return results


@dataclass(eq=False)
class SignificanceResult:
    t_test: TTestResult
    arfv_full: np.ndarray
    arfv_restricted: np.ndarray
    repetitions: int

    def to_dict(self) -> dict:
        return {
            "statistic": self.t_test.statistic,
            "dof": self.t_test.dof,
            "p_value": self.t_test.p_value,
            "mean_arfv_full": self.t_test.mean_x,
            "mean_arfv_restricted": self.t_test.mean_y,
            "arfv_full": self.arfv_full.tolist(),
            "arfv_restricted": self.arfv_restricted.tolist(),
            "repetitions": self.repetitions,
        }


def significance_test(structure: OptionStructure, theta_full: ModelParams,
                      theta_restricted: ModelParams, repetitions: int = 100,
                      path_count: int = 20_000, steps_per_year: int = 252,
                      base_seed: int = 0, threads: int = 1) -> SignificanceResult:
    """Welch's t-test on per-repetition ARFV between two calibrated models.

    Each repetition draws an independent path set (seeds derived from ``base_seed``,
    the repetition index and the model arm), prices the chain under both parameter
    vectors and records the average relative fit value against the market closes
    (`fit_metrics`' ARFV). The (repetition, arm) jobs run in that order, and their flat
    result is read back as a repetitions x 2 table. The options and ``path_count`` are
    checked first (as `price_chain` checks them). The two covariance factorizations
    are then built once, each split over ``threads`` before the repetitions start, and
    shared across repetitions.
    """
    if repetitions < 2:
        raise ValueError("significance test needs at least 2 repetitions per model")
    options = _checked_options(structure.options, path_count, "conditional_mixed")
    grid = TimeGrid.with_maturities(structure.maturities, steps_per_year)
    cov_full = build_joint_covariance(grid, theta_full.H, threads)
    cov_restricted = (cov_full if theta_restricted.H == theta_full.H
                      else build_joint_covariance(grid, theta_restricted.H, threads))
    jobs = [(k, arm) for k in range(repetitions) for arm in (0, 1)]
    arms = ((theta_full, cov_full), (theta_restricted, cov_restricted))

    def run(job):
        k, arm = job
        params, cov = arms[arm]
        seed = derive_seed(base_seed, _STREAM_SIGNIFICANCE, k, arm)
        # blocks run serially: the repetitions are already the parallel level
        estimates = _fresh_blocks(cov, params, structure.env, options, path_count, seed,
                                  "conditional_mixed", 1)
        return fit_metrics([e.price for e in estimates], structure).arfv

    arfv_full, arfv_restricted = np.reshape(parallel_map(run, jobs, threads), (-1, 2)).T
    return SignificanceResult(t_test=welch_t_test(arfv_full, arfv_restricted),
                              arfv_full=arfv_full, arfv_restricted=arfv_restricted,
                              repetitions=repetitions)
