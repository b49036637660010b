"""Rough Volterra stochastic volatility: simulation, pricing, calibration, robustness.

The model drives instantaneous volatility by a fractional Brownian motion with a
variance-correction dial alpha nesting the plain rough-volatility exponential
(alpha = 0) and the rough Bergomi normalization (alpha = 1). Paths are sampled
exactly from the joint Gaussian law of the fBm and its driving Brownian motion;
pricing uses plain Monte Carlo or a conditional variance-reduced estimator;
calibration runs a genetic global stage plus trust-region refinement under common
random numbers; bootstrap resampling quantifies parameter robustness and feeds the
sensitivity and significance tests.

The package re-exports each library submodule's ``__all__``; the CLI (`roughvol.cli`)
is not re-exported.
"""
from . import fbm, model, pricing, market, calibration, bootstrap, stats, synth
from .fbm import *  # noqa: F403
from .model import *  # noqa: F403
from .pricing import *  # noqa: F403
from .market import *  # noqa: F403
from .calibration import *  # noqa: F403
from .bootstrap import *  # noqa: F403
from .stats import *  # noqa: F403
from .synth import *  # noqa: F403

__version__ = "0.1.0"

_LIBRARY = (fbm, model, pricing, market, calibration, bootstrap, stats, synth)
__all__ = ["__version__", *(name for module in _LIBRARY for name in module.__all__)]
