"""Weighted least-squares calibration: genetic global stage + trust-region refinement.

The objective G(Theta) = sum_i w_i (C_i^Theta - C_i^mkt)^2 is a Monte-Carlo quantity;
evaluated naively it is noisy and finite-difference Jacobians are meaningless. The
calibrator therefore freezes the standard-normal draws once per run (common random
numbers): each new Hurst index gets its joint covariance, its Cholesky factor and the
frozen draws pushed through it, and the resulting paths are kept until the next new H,
making Theta -> G a deterministic, smooth function of the parameters. Evaluations at
an unchanged H reuse those paths, and no parameter vector is priced twice by the
optimizers; every reuse is exact, so results are what full re-evaluation would give.

The global stage is a small genetic algorithm over the bounded box (tournament
selection of size 3, per-gene blend crossover, Gaussian mutation with sigma = 5% of the
bound width, elitism of 2). The local stage is bound-constrained least squares on the
residual vector sqrt(w_i) (C_i^Theta - C_i^mkt) with one-sided finite differences of
step 1e-4 x bound width. Model variants fix parameters by collapsing their bounds
(lower = upper); collapsed components are removed from the optimizer's vector and
reinstated exactly on output.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import least_squares

from .fbm import (PATH_BLOCK, PathBundle, TimeGrid, build_joint_covariance,
                  draw_normal_bundle, parallel_map, transform_normals)
from .market import OptionStructure
from .model import PARAM_NAMES, ModelParams
from .pricing import _block_estimates

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

MODEL_VARIANTS = ("alphaRFSV", "RFSV", "rBergomi", "fixed_H")

#: sub-stream tag for the genetic algorithm's RNG (path blocks use tag 0).
_STREAM_GA = 1

#: position of the Hurst index in a parameter vector.
_H = PARAM_NAMES.index("H")


@dataclass(frozen=True)
class ParamBounds:
    """Componentwise box for (sigma0, rho, H, xi, alpha); collapsed bounds fix a value."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != (5,) or upper.shape != (5,):
            raise ValueError("bounds must cover the 5 model parameters")
        if np.any(lower > upper):
            raise ValueError("lower bounds must not exceed upper bounds")

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
    obj_tol: float = 1e-6
    step_tol: float = 1e-7
    path_count: int = 20_000
    steps_per_year: int = 1008
    seed: int = 0
    weight_rule: str = "inv_spread_sq"
    model_variant: str = "alphaRFSV"
    fd_rel_step: float = 1e-4
    threads: int = 1

    def __post_init__(self):
        if self.ga_population < 1 or self.ga_generations < 0:
            raise ValueError("GA needs population >= 1 and generations >= 0")
        if self.obj_tol <= 0.0 or self.step_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.path_count < 1 or self.steps_per_year < 1:
            raise ValueError("path_count and steps_per_year must be positive")
        if self.model_variant not in MODEL_VARIANTS:
            raise ValueError(f"unknown model variant {self.model_variant!r}")

    def effective_bounds(self) -> ParamBounds:
        """Variant-specific bound collapse: one code path for all four model variants."""
        if self.model_variant == "RFSV":
            return self.bounds.with_fixed(alpha=0.0)
        if self.model_variant == "rBergomi":
            return self.bounds.with_fixed(alpha=1.0)
        if self.model_variant == "fixed_H":
            return self.bounds.with_fixed(H=0.5)
        return self.bounds


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

    def to_dict(self) -> dict:
        out = {
            "theta": {name: getattr(self.theta, name) for name in PARAM_NAMES},
            "objective": self.objective,
            "seed": self.seed,
            "iterations": self.iterations,
        }
        if self.metrics is not None:
            out["metrics"] = {"aare": self.metrics.aare, "mare": self.metrics.mare,
                              "arfv": self.metrics.arfv, "mrfv": self.metrics.mrfv}
        return out


class FrozenPricer:
    """Deterministic Theta -> model-price map over frozen normal draws.

    Construction draws the normals once (per config seed) on the union grid of the
    chain's maturities and scales the orthogonal draws by sqrt(dt) once, since they do
    not depend on H. The paths of the last Hurst index are cached as one bundle per
    PATH_BLOCK row slice: a call at a new H builds its covariance and transforms each
    slice, a call at the same H reuses the bundles. Prices pool the per-block
    estimates of the pricing block kernel, as fresh-draw pricing does, pricing one
    block after another. Thread count affects wall time only.
    """

    def __init__(self, structure: OptionStructure, config: CalibrationConfig):
        self.structure = structure
        self.config = config
        self.grid = TimeGrid.with_maturities(sorted(set(structure.maturities)),
                                             config.steps_per_year)
        self._z, self._w_tilde = draw_normal_bundle(
            self.grid.n, config.path_count, config.seed, threads=config.threads)
        self._w_tilde *= np.sqrt(self.grid.deltas)
        self._sqrt_w = np.sqrt(structure.weights)
        self._closes = structure.closes
        self._options = structure.options
        self._path_cache: tuple[float, list[PathBundle]] | None = None

    def _paths(self, H: float) -> list[PathBundle]:
        cache = self._path_cache  # snapshot: parallel evaluations may swap the cache
        if cache is not None and cache[0] == H:
            return cache[1]
        self._path_cache = None  # release the old paths before building new ones
        cov = build_joint_covariance(self.grid, H)
        bundles = [transform_normals(self._z[lo:lo + PATH_BLOCK],
                                     self._w_tilde[lo:lo + PATH_BLOCK], cov)
                   for lo in range(0, self.config.path_count, PATH_BLOCK)]
        self._path_cache = (H, bundles)
        return bundles

    def prices(self, theta) -> np.ndarray:
        params = theta if isinstance(theta, ModelParams) else ModelParams.from_array(theta)
        bundles = self._paths(params.H)
        estimates = _block_estimates(bundles.__getitem__, len(bundles), params,
                                     self.structure.env, self._options)
        return np.array([e.price for e in estimates])

    def weighted_errors(self, prices: np.ndarray) -> np.ndarray:
        """The residual vector sqrt(w_i) (C_i - C_i^mkt) of given model prices."""
        return self._sqrt_w * (prices - self._closes)

    def residuals(self, theta) -> np.ndarray:
        return self.weighted_errors(self.prices(theta))

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
    pop_size = config.ga_population
    n_elite = min(2, pop_size)

    pop = lower + rng.uniform(size=(pop_size, 5)) * width
    values = _evaluate_all(objective_fn, list(pop), config.threads)
    best_idx = int(np.argmin(values))
    best_theta, best_value = pop[best_idx].copy(), float(values[best_idx])
    history = [best_value]

    for _ in range(config.ga_generations):
        elite = np.argsort(values, kind="stable")[:n_elite]
        new_pop = [pop[i].copy() for i in elite]
        while len(new_pop) < pop_size:
            # tournament selection, size 3
            parents = []
            for _ in range(2):
                contenders = rng.integers(0, pop_size, size=3)
                parents.append(pop[contenders[np.argmin(values[contenders])]])
            # per-gene blend crossover, then Gaussian mutation at 5% of bound width
            mix = rng.uniform(size=5)
            child = mix * parents[0] + (1.0 - mix) * parents[1]
            child += rng.standard_normal(5) * 0.05 * width
            new_pop.append(bounds.clip(child))
        pop = np.array(new_pop)
        # the objective is deterministic: the elites keep their values unrepriced
        values = np.concatenate([values[elite], _evaluate_all(
            objective_fn, list(pop[n_elite:]), config.threads)])
        gen_best = int(np.argmin(values))
        if values[gen_best] < best_value:
            best_theta, best_value = pop[gen_best].copy(), float(values[gen_best])
        history.append(float(values[gen_best]))
    return best_theta, history


def _fd_jacobian(residual_fn, x, r0, steps, lower, upper, order=None):
    """One-sided finite differences, step flipped at the upper bound.

    ``order`` is the order in which columns are evaluated (default: left to right);
    each column depends on its own step only, so the matrix does not depend on it.
    """
    jac = np.empty((r0.size, x.size))
    for k in range(x.size) if order is None else order:
        h = steps[k]
        if x[k] + h > upper[k]:
            h = -h
        xk = x.copy()
        xk[k] += h
        jac[:, k] = (residual_fn(xk) - r0) / h
    return jac


def local_refine(start: ModelParams, structure: OptionStructure | None,
                 config: CalibrationConfig, residual_fn=None,
                 pricer: FrozenPricer | None = None,
                 priced: dict | None = None) -> CalibrationResult:
    """Bound-constrained least squares from ``start`` under frozen noise.

    Stops when the objective improvement falls below obj_tol or the step norm below
    step_tol; the final objective never exceeds the starting one. Fixed (collapsed)
    parameters are excluded from the optimization vector and reported unchanged.
    Each parameter vector is evaluated once: the optimizer's first point, the base
    point of every Jacobian and the final point reuse earlier evaluations, and the
    fit metrics come from the final point's prices. ``priced`` maps
    ``theta.tobytes()`` to prices the pricer has already computed.
    """
    bounds = config.effective_bounds()
    if residual_fn is None and pricer is None:
        pricer = FrozenPricer(structure, config)
    priced = {} if priced is None else priced
    residuals: dict[bytes, np.ndarray] = {}

    def prices_at(theta: np.ndarray) -> np.ndarray:
        key = theta.tobytes()
        if key not in priced:
            priced[key] = pricer.prices(theta)
        return priced[key]

    def evaluate(theta: np.ndarray) -> np.ndarray:
        if residual_fn is None:
            return pricer.weighted_errors(prices_at(theta))
        key = theta.tobytes()
        if key not in residuals:
            residuals[key] = np.asarray(residual_fn(theta), dtype=float)
        return residuals[key]

    theta0 = bounds.clip(start.as_array())
    free = bounds.free
    fixed_template = theta0.copy()

    def assemble(x: np.ndarray) -> np.ndarray:
        theta = fixed_template.copy()
        theta[free] = x
        return theta

    def res(x: np.ndarray) -> np.ndarray:
        return evaluate(assemble(x))

    def result(theta: np.ndarray, objective: float, diagnostics: dict) -> CalibrationResult:
        metrics = fit_metrics(prices_at(theta), structure) if pricer else None
        return CalibrationResult(theta=ModelParams.from_array(theta), objective=objective,
                                 metrics=metrics, iterations={"local": diagnostics},
                                 seed=config.seed)

    start_res = evaluate(theta0)
    start_obj = float(start_res @ start_res)
    if not np.isfinite(start_obj):
        raise ValueError(f"objective is not finite at the starting point: {start_obj}")

    if not np.any(free):
        # fully pinned variant: nothing to optimize
        return result(theta0, start_obj,
                      {"nfev": 1, "iterations": 0, "message": "all parameters fixed"})

    lb, ub = bounds.lower[free], bounds.upper[free]
    steps = config.fd_rel_step * bounds.width[free]
    # trf iterates strictly inside the box; nudge an on-bound start into the interior
    x0 = np.clip(theta0[free], lb + 1e-12 * (ub - lb), ub - 1e-12 * (ub - lb))
    # vary H last, so the other columns reuse the paths cached at the base point's H
    order = np.argsort(np.flatnonzero(free) == _H, kind="stable")

    def jac(x: np.ndarray) -> np.ndarray:
        return _fd_jacobian(res, x, res(x), steps, lb, ub, order)

    ls = least_squares(res, x0, jac=jac, bounds=(lb, ub), method="trf",
                       ftol=config.obj_tol, xtol=config.step_tol, gtol=None)
    theta_arr = assemble(ls.x)
    final_res = evaluate(theta_arr)
    final_obj = float(final_res @ final_res)
    if final_obj > start_obj:  # keep the descent contract even if trf's last trial lost
        theta_arr, final_obj = theta0, start_obj
    return result(theta_arr, final_obj,
                  {"nfev": int(ls.nfev), "njev": int(ls.njev or 0),
                   "status": int(ls.status), "message": str(ls.message),
                   "start_objective": start_obj})


def calibrate(structure: OptionStructure, config: CalibrationConfig) -> CalibrationResult:
    """Global genetic search followed by local refinement, one frozen path bundle."""
    pricer = FrozenPricer(structure, config)
    priced: dict[bytes, np.ndarray] = {}

    def objective(theta: np.ndarray) -> float:
        prices = priced[theta.tobytes()] = pricer.prices(theta)
        r = pricer.weighted_errors(prices)
        return float(r @ r)

    best_theta, history = _ga_minimize(config, objective)
    start = ModelParams.from_array(best_theta)
    result = local_refine(start, structure, config, pricer=pricer, priced=priced)
    result.iterations["ga_best_per_generation"] = history
    result.iterations["ga_start"] = {name: getattr(start, name) for name in PARAM_NAMES}
    return result
