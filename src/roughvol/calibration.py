"""Weighted least-squares calibration: genetic global stage + trust-region refinement.

The objective G(Theta) = sum_i w_i (C_i^Theta - C_i^mkt)^2 is a Monte-Carlo quantity;
evaluated naively it is noisy and finite-difference Jacobians are meaningless. The
calibrator therefore freezes the standard-normal draws once per pricer (common random
numbers): each new Hurst index gets its joint covariance, its Cholesky factor and the
frozen draws pushed through it, making Theta -> G a deterministic, smooth function of
the parameters. The pricer keeps one path set, that of the last new H: a call at
another H drops it, builds the covariance once and transforms every path block under
it, and evaluations at an unchanged H reuse it. Each block also keeps the conditional
estimator's left-point sums at sigma0 = 1 from its last call, keyed by (H, xi, alpha)
(see `pricing`): the prices scale them by sigma0 and sigma0^2 and take rho after
them, so a call that moves only sigma0 or rho forms no sums, only the Black-Scholes
step. The pricer also remembers the prices of every parameter vector it has priced,
so neither optimizer prices a vector twice on it. Every reuse is exact, so results
are what full re-evaluation would give.

The global stage is a small genetic algorithm over the bounded box (tournament
selection of size 3, per-gene blend crossover, Gaussian mutation with sigma = 5% of the
bound width, elitism of 2). It only has to find the basin, so it runs on a coarse
pricer: one path block of base paths (`_GA_PATH_COUNT` priced paths) at no more than
`_GA_STEPS_PER_YEAR` steps per year, from the same seed, so that at or below that grid
its draws are the requested pricer's first block bit for bit. The local stage is
bound-constrained least squares on the residual vector sqrt(w_i) (C_i^Theta -
C_i^mkt) of the requested pricer, with one-sided finite differences of step 1e-4 x
bound width: the coarse grid is biased, so the fit is made on the requested one. The
coarse pricer is released before the requested one draws, at every requested scale.
Model variants fix parameters by collapsing their bounds (lower = upper,
`_VARIANT_PINS`); collapsed components are removed from the optimizer's vector and
reinstated exactly on output.

Progress goes to the ``roughvol.calibration`` logger at INFO: one line per genetic
generation and one when the least squares ends.
"""
from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .fbm import (PATH_BLOCK, PathBundle, TimeGrid, _STREAM_GA, build_joint_covariance,
                  draw_normal_bundle, parallel_map, transform_normals)
from .market import OptionStructure
from .model import PARAM_NAMES, ModelParams
from .pricing import _base_draws, _block_estimates

__all__ = [
    "ParamBounds",
    "CalibrationConfig",
    "CalibrationResult",
    "FitMetrics",
    "FrozenPricer",
    "format_pct",
    "fit_metrics",
    "local_refine",
    "calibrate",
]

log = logging.getLogger(__name__)

#: the parameters each model variant pins, and their values; the rest are fitted
#: within the bounds. alphaRFSV frees alpha, and fixed_H is the H = 1/2 baseline.
_VARIANT_PINS = {"alphaRFSV": {}, "RFSV": {"alpha": 0.0}, "rBergomi": {"alpha": 1.0},
                 "fixed_H": {"H": 0.5}}
MODEL_VARIANTS = tuple(_VARIANT_PINS)

#: position of the Hurst index in a parameter vector.
_H = PARAM_NAMES.index("H")

#: least-squares stopping rules: relative objective improvement and relative step size.
_OBJ_TOL, _STEP_TOL = 1e-6, 1e-7

#: finite-difference step as a fraction of the bound width; at most 0.5, so a step
#: flipped at the upper bound stays in the box.
_FD_REL_STEP = 1e-4

#: the genetic stage's scale, as caps on the config's path count and steps per year:
#: one PATH_BLOCK of base paths (conditional pairs) on the desk grid. The search only
#: has to find the basin, and almost all of its calls are at a new H.
_GA_PATH_COUNT = 2 * PATH_BLOCK
_GA_STEPS_PER_YEAR = 48


@dataclass(frozen=True)
class ParamBounds:
    """Componentwise box over the parameters in `PARAM_NAMES` order; collapsed bounds
    fix a value."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != (len(PARAM_NAMES),) or upper.shape != (len(PARAM_NAMES),):
            raise ValueError(f"bounds must cover the {len(PARAM_NAMES)} model parameters")
        inverted = [f"{name} [{lo}, {hi}]"
                    for name, lo, hi in zip(PARAM_NAMES, lower, upper) if lo > hi]
        if inverted:
            raise ValueError("lower bounds must not exceed upper bounds: "
                             + ", ".join(inverted))
        # the box is a product of intervals: if both corners are valid, so is every point
        for corner in (lower, upper):
            try:
                ModelParams.from_array(corner)
            except ValueError as exc:
                raise ValueError(f"bounds leave the model's domain: {exc}") from None

    @classmethod
    def default(cls) -> "ParamBounds":
        return cls(lower=np.array([0.01, -1.0, 0.05, 0.01, 0.0]),
                   upper=np.array([0.20, -0.05, 0.25, 3.00, 1.0]))

    def with_fixed(self, **fixed: float) -> "ParamBounds":
        """Collapse named parameters to exact values (lower = upper)."""
        lower, upper = self.lower.copy(), self.upper.copy()
        for name, value in fixed.items():
            i = PARAM_NAMES.index(name)
            lower[i] = upper[i] = float(value)
        return ParamBounds(lower=lower, upper=upper)

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def free(self) -> np.ndarray:
        return self.width > 0.0

    def clip(self, theta: np.ndarray) -> np.ndarray:
        return np.clip(theta, self.lower, self.upper)


@dataclass(frozen=True)
class CalibrationConfig:
    bounds: ParamBounds = field(default_factory=ParamBounds.default)
    ga_population: int = 150
    ga_generations: int = 5
    path_count: int = 20_000
    steps_per_year: int = 1008
    seed: int = 0
    model_variant: str = "alphaRFSV"
    threads: int = 1

    def __post_init__(self):
        if self.ga_population < 1 or self.ga_generations < 0:
            raise ValueError("GA needs population >= 1 and generations >= 0")
        if self.path_count < 1 or self.steps_per_year < 1:
            raise ValueError("path_count and steps_per_year must be positive")
        if self.model_variant not in MODEL_VARIANTS:
            raise ValueError(f"unknown model variant {self.model_variant!r}")

    def effective_bounds(self) -> ParamBounds:
        """The bounds with the variant's pins (`_VARIANT_PINS`) collapsed."""
        return self.bounds.with_fixed(**_VARIANT_PINS[self.model_variant])


@dataclass(frozen=True)
class FitMetrics:
    """Price-error summaries: relative to each market price (AARE/MARE) and to spot
    (ARFV/MRFV)."""

    aare: float
    mare: float
    arfv: float
    mrfv: float


def format_pct(x: float) -> str:
    """Render a fraction the way report tables do: 0.0646 -> '6.46%'."""
    return f"{100.0 * x:.2f}%"


def fit_metrics(model_prices, structure: OptionStructure) -> FitMetrics:
    model_prices = np.asarray(model_prices, dtype=float)
    if model_prices.size == 0 or structure.n == 0:
        raise ValueError("cannot compute metrics on an empty chain")
    if model_prices.size != structure.n:
        raise ValueError("one model price per quote required")
    abs_err = np.abs(model_prices - structure.closes)
    rel = abs_err / structure.closes
    rfv = abs_err / structure.env.spot
    return FitMetrics(aare=float(rel.mean()), mare=float(rel.max()),
                      arfv=float(rfv.mean()), mrfv=float(rfv.max()))


@dataclass(eq=False)
class CalibrationResult:
    theta: ModelParams
    objective: float
    metrics: FitMetrics | None
    iterations: dict
    seed: int


class FrozenPricer:
    """Deterministic Theta -> model-price map over frozen normal draws.

    Construction draws once (per config seed) on the union grid of the chain's
    maturities: [dW | Z_B] for ceil(path_count / 2) base paths, which does not depend
    on H, drawn block by block on the calling thread (``config.threads`` is read by
    the genetic stage only) and copied from the row panels of each block's stream, so
    construction holds one panel beyond the draws (`draw_normal_bundle`). The
    conditional estimator prices each base path with its antithetic mirror and
    integrates out the orthogonal increments, so neither the mirrors nor dW~ are drawn
    or stored. The pricer holds one path set, as one slot (H, one bundle per
    PATH_BLOCK row slice of the draws), whose increments are views of the draws, so
    the slot adds only its fBm paths. A call at a new H drops the
    slot, builds the covariance once, transforms every slice under it and stores the
    new slot; a call at the cached H prices from the slot. Each bundle carries the
    one-slot memo of its unit-sigma0 sums (`PathBundle.unit_sums`, keyed by
    (H, xi, alpha) and the maturity nodes), which goes with the path set when a new H
    replaces it; a call that keeps (H, xi, alpha) and moves only sigma0 or rho prices
    from it. So the pricer holds the draws plus one fBm path set of base paths and
    2 x maturities x 2 x base-paths floats of sums. Threads of a genetic generation
    share the coarse pricer, which holds one block, so each holds at most one block of
    its own in flight. Every call prices only paths of its own H, and the sums are
    scaled by sigma0 after summing on a cold call too, so a cached price equals a
    fresh pricer's exactly. Thread count affects wall time only.

    ``priced`` is the entry: it takes a parameter vector or `ModelParams`, converts it
    once and returns its prices from a memo keyed by the vector's bytes, calling
    ``prices`` on the vector's first use; ``residuals`` and ``objective`` read through
    it, so the optimizers price each vector once. ``prices`` takes `ModelParams` and
    always does the work.
    """

    def __init__(self, structure: OptionStructure, config: CalibrationConfig):
        self.structure = structure
        self.grid = TimeGrid.with_maturities(structure.maturities, config.steps_per_year)
        draws = _base_draws(config.path_count, "conditional_mixed")
        self._z, _ = draw_normal_bundle(self.grid, draws, config.seed, orthogonal=False)
        self._sqrt_w = np.sqrt(structure.weights)
        self._closes = structure.closes
        self._options = structure.options
        # (H, one bundle per PATH_BLOCK row slice of the draws) of the last new-H call
        self._paths: tuple[float, list[PathBundle]] | None = None
        self._memo: dict[bytes, np.ndarray] = {}  # params.as_array().tobytes() -> prices

    def prices(self, theta: ModelParams) -> np.ndarray:
        """The model prices at ``theta``, computed on every call; `priced` is the
        memoised entry that the optimizers use."""
        paths = self._paths  # one read: a concurrent GA call may replace the slot
        if paths is None or paths[0] != theta.H:
            # drop the old path set, and the local reference, before building the new
            self._paths = paths = None
            cov = build_joint_covariance(self.grid, theta.H)
            paths = self._paths = (theta.H, [
                transform_normals(self._z[lo:lo + PATH_BLOCK], None, cov)
                for lo in range(0, len(self._z), PATH_BLOCK)])
        bundles = paths[1]
        estimates = _block_estimates(bundles.__getitem__, len(bundles), theta,
                                     self.structure.env, self._options)
        return np.array([e.price for e in estimates])

    def priced(self, theta) -> np.ndarray:
        """Memoised ``prices`` of a parameter array or `ModelParams`: each parameter
        vector is priced once per pricer, whichever form it comes in."""
        params = theta if isinstance(theta, ModelParams) else ModelParams.from_array(theta)
        key = params.as_array().tobytes()
        # threads racing on one new vector may each price it, to the same bits
        if key not in self._memo:
            self._memo[key] = self.prices(params)
        return self._memo[key]

    def residuals(self, theta) -> np.ndarray:
        """The residual vector sqrt(w_i) (C_i - C_i^mkt) at ``theta``."""
        return self._sqrt_w * (self.priced(theta) - self._closes)

    def objective(self, theta) -> float:
        r = self.residuals(theta)
        return float(r @ r)


def _evaluate_all(objective_fn, thetas, threads: int) -> np.ndarray:
    """Objective values of ``thetas`` in order; called once per GA generation."""
    return np.array(parallel_map(objective_fn, thetas, threads))


def _ga_minimize(config: CalibrationConfig, objective_fn):
    """Genetic minimization core; returns (best theta array, best value per generation)."""
    bounds = config.effective_bounds()
    lower, width = bounds.lower, bounds.width
    rng = np.random.default_rng(np.random.SeedSequence([int(config.seed), _STREAM_GA]))
    pop_size, dim = config.ga_population, len(PARAM_NAMES)
    n_elite = min(2, pop_size)

    started = time.perf_counter()
    pop = lower + rng.uniform(size=(pop_size, dim)) * width
    values = _evaluate_all(objective_fn, list(pop), config.threads)
    best_idx = int(np.argmin(values))
    best_theta, best_value = pop[best_idx].copy(), float(values[best_idx])
    history = [best_value]
    log.info("GA generation 0/%d: best objective %.6g, %.2f s", config.ga_generations,
             best_value, time.perf_counter() - started)

    for generation in range(1, config.ga_generations + 1):
        started = time.perf_counter()
        elite = np.argsort(values, kind="stable")[:n_elite]
        new_pop = [pop[i].copy() for i in elite]
        while len(new_pop) < pop_size:
            # tournament selection, size 3
            parents = []
            for _ in range(2):
                contenders = rng.integers(0, pop_size, size=3)
                parents.append(pop[contenders[np.argmin(values[contenders])]])
            # per-gene blend crossover, then Gaussian mutation at 5% of bound width
            mix = rng.uniform(size=dim)
            child = mix * parents[0] + (1.0 - mix) * parents[1]
            child += rng.standard_normal(dim) * 0.05 * width
            new_pop.append(bounds.clip(child))
        pop = np.array(new_pop)
        # the objective is deterministic: the elites keep their values unrepriced
        values = np.concatenate([values[elite], _evaluate_all(
            objective_fn, list(pop[n_elite:]), config.threads)])
        gen_best = int(np.argmin(values))
        if values[gen_best] < best_value:
            best_theta, best_value = pop[gen_best].copy(), float(values[gen_best])
        history.append(float(values[gen_best]))
        log.info("GA generation %d/%d: best objective %.6g, %.2f s", generation,
                 config.ga_generations, history[-1], time.perf_counter() - started)
    return best_theta, history


def _fd_jacobian(residual_fn, x, r0, steps, lower, upper, order):
    """One-sided finite differences, step flipped at the upper bound.

    ``order`` is the order in which columns are evaluated; each column depends on its
    own step only, so the matrix does not depend on it.
    """
    jac = np.empty((r0.size, x.size))
    for k in order:
        h = steps[k]
        if x[k] + h > upper[k]:
            h = -h
        xk = x.copy()
        xk[k] += h
        jac[:, k] = (residual_fn(xk) - r0) / h
    return jac


def local_refine(start: ModelParams, residual_fn,
                 config: CalibrationConfig) -> CalibrationResult:
    """Bound-constrained least squares on ``residual_fn`` from ``start``.

    ``residual_fn`` maps a full parameter array to its residual vector and is called
    again at points already seen (``FrozenPricer.residuals`` prices each once). Stops
    when the relative objective improvement falls below ``_OBJ_TOL`` (1e-6) or the
    relative step below ``_STEP_TOL`` (1e-7); the final objective never exceeds the
    starting one. Jacobian columns are one-sided differences of ``_FD_REL_STEP``
    (1e-4) x the bound width. Fixed (collapsed) parameters are excluded from the
    optimization vector and reported unchanged. Of ``config`` only the bounds, the
    variant and the seed are read. The result carries no fit metrics.

    `calibrate` starts it from the genetic stage's best, on the requested pricer
    where the genetic stage ran on a coarse one; a bootstrap sample runs it alone,
    from the overall calibration's parameters. Logs nfev, njev and trf's status at
    INFO when the least squares ends.
    """
    # imported here, not with the module: it is most of scipy's import time, and only
    # the least-squares stage needs it
    from scipy.optimize import least_squares

    bounds = config.effective_bounds()
    theta0 = bounds.clip(start.as_array())
    free = bounds.free
    fixed_template = theta0.copy()

    def assemble(x: np.ndarray) -> np.ndarray:
        theta = fixed_template.copy()
        theta[free] = x
        return theta

    def res(x: np.ndarray) -> np.ndarray:
        return residual_fn(assemble(x))

    def result(theta: np.ndarray, objective: float, diagnostics: dict) -> CalibrationResult:
        return CalibrationResult(theta=ModelParams.from_array(theta), objective=objective,
                                 metrics=None, iterations={"local": diagnostics},
                                 seed=config.seed)

    start_res = residual_fn(theta0)
    start_obj = float(start_res @ start_res)
    if not np.isfinite(start_obj):
        raise ValueError(f"objective is not finite at the starting point: {start_obj}")

    if not np.any(free):
        # fully pinned variant: nothing to optimize
        return result(theta0, start_obj,
                      {"nfev": 1, "iterations": 0, "message": "all parameters fixed"})

    lb, ub = bounds.lower[free], bounds.upper[free]
    steps = _FD_REL_STEP * bounds.width[free]
    # trf iterates strictly inside the box; nudge an on-bound start into the interior
    x0 = np.clip(theta0[free], lb + 1e-12 * (ub - lb), ub - 1e-12 * (ub - lb))
    # sigma0 and rho come first and reuse the unit sums cached at the base point; vary
    # H last, so the other columns reuse the paths cached at the base point's H
    order = np.argsort(np.flatnonzero(free) == _H, kind="stable")

    def jac(x: np.ndarray) -> np.ndarray:
        return _fd_jacobian(res, x, res(x), steps, lb, ub, order)

    ls = least_squares(res, x0, jac=jac, bounds=(lb, ub), method="trf",
                       ftol=_OBJ_TOL, xtol=_STEP_TOL, gtol=None)
    theta_arr = assemble(ls.x)
    final_res = residual_fn(theta_arr)
    final_obj = float(final_res @ final_res)
    if final_obj > start_obj:  # keep the descent contract even if trf's last trial lost
        theta_arr, final_obj = theta0, start_obj
    log.info("least squares done: nfev %d, njev %d, status %d, objective %.6g",
             ls.nfev, ls.njev or 0, ls.status, final_obj)
    return result(theta_arr, final_obj,
                  {"nfev": int(ls.nfev), "njev": int(ls.njev or 0),
                   "status": int(ls.status), "message": str(ls.message),
                   "start_objective": start_obj})


def calibrate(structure: OptionStructure, config: CalibrationConfig) -> CalibrationResult:
    """Global genetic search on a coarse pricer, then least squares on the requested one.

    The genetic stage prices on at most `_GA_PATH_COUNT` paths at `_GA_STEPS_PER_YEAR`
    steps per year, with the config's seed; ``iterations`` records that scale as
    ``ga_path_count`` and ``ga_steps_per_year``, and ``ga_best_per_generation`` holds
    objectives at it. The coarse pricer lives only as long as the search, so it is
    freed before the requested one is built and the two never hold memory at once;
    `local_refine` starts from the genetic best priced anew on the requested pricer.
    At or below the coarse scale both pricers draw the same rows, so the start
    objective is the last generation's best, bit for bit. The metrics are those of
    the requested pricer.
    """
    ga_config = replace(config, path_count=min(config.path_count, _GA_PATH_COUNT),
                        steps_per_year=min(config.steps_per_year, _GA_STEPS_PER_YEAR))
    # no name holds the coarse pricer: it is freed when the search returns
    best_theta, history = _ga_minimize(config, FrozenPricer(structure, ga_config).objective)
    pricer = FrozenPricer(structure, config)
    start = ModelParams.from_array(best_theta)
    result = local_refine(start, pricer.residuals, config)
    result.metrics = fit_metrics(pricer.priced(result.theta), structure)
    result.iterations["ga_best_per_generation"] = history
    result.iterations["ga_path_count"] = ga_config.path_count
    result.iterations["ga_steps_per_year"] = ga_config.steps_per_year
    result.iterations["ga_start"] = asdict(start)
    return result
