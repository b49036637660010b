"""Rough Volterra stochastic volatility: simulation, pricing, calibration, robustness.

The model drives instantaneous volatility by a fractional Brownian motion with a
variance-correction dial alpha nesting the plain rough-volatility exponential
(alpha = 0) and the rough Bergomi normalization (alpha = 1). Paths are sampled
exactly from the joint Gaussian law of the fBm and its driving Brownian motion;
pricing uses plain Monte Carlo or a conditional variance-reduced estimator;
calibration runs a genetic global stage plus trust-region refinement under common
random numbers; bootstrap resampling quantifies parameter robustness and feeds the
sensitivity and significance tests.
"""
from .fbm import (FactorizationError, JointCovariance, PathBundle, TimeGrid,
                  build_joint_covariance, derive_seed, sample_paths, transform_normals)
from .model import MarketEnv, ModelParams, PARAM_NAMES, log_price_paths, volatility_paths
from .pricing import PriceEstimate, black_scholes_call, chain_estimates, price_chain
from .market import (ChainFormatError, OptionQuote, OptionStructure, compute_weights,
                     load_chain, write_chain)
from .calibration import (CalibrationConfig, CalibrationResult, FitMetrics,
                          FrozenPricer, ParamBounds, calibrate, fit_metrics,
                          format_pct, local_refine)
from .bootstrap import (BootCalibration, BootstrapPlan, BootstrapReport,
                        bootstrap_statistics, bootstrap_structure,
                        export_scatter_matrix, run_bootcalibrations)
from .stats import (KsResult, SensitivityResult, SignificanceResult, TTestResult,
                    ks_two_sample, octile_grouping, sensitivity_analysis,
                    significance_test, welch_t_test)
from .synth import generate_chain

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # fbm
    "TimeGrid", "JointCovariance", "PathBundle", "FactorizationError",
    "build_joint_covariance", "sample_paths", "transform_normals", "derive_seed",
    # model
    "ModelParams", "MarketEnv", "PARAM_NAMES", "volatility_paths", "log_price_paths",
    # pricing
    "PriceEstimate", "black_scholes_call", "chain_estimates", "price_chain",
    # market
    "OptionQuote", "OptionStructure", "ChainFormatError", "load_chain", "write_chain",
    "compute_weights",
    # calibration
    "ParamBounds", "CalibrationConfig", "CalibrationResult", "FitMetrics",
    "FrozenPricer", "calibrate", "local_refine", "fit_metrics", "format_pct",
    # bootstrap
    "BootstrapPlan", "BootCalibration", "BootstrapReport", "bootstrap_structure",
    "run_bootcalibrations", "bootstrap_statistics", "export_scatter_matrix",
    # stats
    "KsResult", "TTestResult", "SensitivityResult", "SignificanceResult",
    "ks_two_sample", "welch_t_test", "octile_grouping", "sensitivity_analysis",
    "significance_test",
    # synth
    "generate_chain",
]
