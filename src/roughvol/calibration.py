"""Weighted least-squares calibration: genetic global stage + trust-region refinement.

The objective G(Theta) = sum_i w_i (C_i^Theta - C_i^mkt)^2 is a Monte-Carlo quantity;
evaluated naively it is noisy and finite-difference Jacobians are meaningless. The
calibrator therefore freezes the standard-normal draws once per run (common random
numbers): each new Hurst index gets its joint covariance, its Cholesky factor and the
frozen draws pushed through it, making Theta -> G a deterministic, smooth function of
the parameters. The paths are kept one path block at a time, each until a call at
another H rebuilds that block, and evaluations at an unchanged H reuse them. The
pricer also remembers the prices of every parameter vector it has priced, so no
vector is priced twice by the optimizers. Every reuse is exact, so results are what
full re-evaluation would give.

The global stage is a small genetic algorithm over the bounded box (tournament
selection of size 3, per-gene blend crossover, Gaussian mutation with sigma = 5% of the
bound width, elitism of 2). The local stage is bound-constrained least squares on the
residual vector sqrt(w_i) (C_i^Theta - C_i^mkt) with one-sided finite differences of
step 1e-4 x bound width. Model variants fix parameters by collapsing their bounds
(lower = upper); collapsed components are removed from the optimizer's vector and
reinstated exactly on output.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

from .fbm import (PATH_BLOCK, PathBundle, TimeGrid, _block_count,
                  build_joint_covariance, draw_normal_bundle, parallel_map,
                  transform_normals)
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
        # at most half the bound width, a step flipped at the upper bound stays in the box
        if not 0.0 < self.fd_rel_step <= 0.5:
            raise ValueError("fd_rel_step must lie in (0, 0.5]")

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
    not depend on H. Paths are cached per PATH_BLOCK row slice of the draws, each
    slice as one (H, bundle) entry. A call passes the pricing block kernel a
    ``bundle_of`` that returns block b's cached bundle when its H is the call's; else
    it drops the entry, transforms the slice under the call's covariance (built once,
    on the call's first miss) and stores the new bundle. So a call at a new H holds
    one path set, and calls sharing the pricer across threads hold one block in
    flight each. Every call prices only bundles of its own H, so a cached price equals
    a fresh pricer's exactly. Thread count affects wall time only.

    ``prices`` always does the work. ``priced`` returns the prices of a parameter
    vector from a memo keyed by its bytes, calling ``prices`` on the vector's first
    use; ``residuals`` and ``objective`` read through it, so the optimizers price each
    vector once.
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
        # (H, bundle) of each PATH_BLOCK row slice, as the last call that needed it left it
        self._blocks: list[tuple[float, PathBundle] | None] = [None] * _block_count(
            config.path_count)
        self._memo: dict[bytes, np.ndarray] = {}  # theta.tobytes() -> prices

    def prices(self, theta) -> np.ndarray:
        params = theta if isinstance(theta, ModelParams) else ModelParams.from_array(theta)
        H = params.H
        cov = None

        def bundle_of(b: int) -> PathBundle:
            nonlocal cov
            entry = self._blocks[b]  # one read: other threads may replace the entry
            if entry is not None and entry[0] == H:
                return entry[1]
            # drop the old block, and the local reference, before building its successor
            self._blocks[b] = entry = None
            if cov is None:
                cov = build_joint_covariance(self.grid, H)
            rows = slice(b * PATH_BLOCK, (b + 1) * PATH_BLOCK)
            bundle = transform_normals(self._z[rows], self._w_tilde[rows], cov)
            self._blocks[b] = (H, bundle)
            return bundle

        estimates = _block_estimates(bundle_of, len(self._blocks), params,
                                     self.structure.env, self._options)
        return np.array([e.price for e in estimates])

    def priced(self, theta) -> np.ndarray:
        """Memoised ``prices``: each parameter vector is priced once per pricer."""
        if isinstance(theta, ModelParams):
            theta = theta.as_array()
        key = np.asarray(theta, dtype=float).tobytes()
        # threads racing on one new vector may each price it, to the same bits
        if key not in self._memo:
            self._memo[key] = self.prices(theta)
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
    when the objective improvement falls below obj_tol or the step norm below
    step_tol; the final objective never exceeds the starting one. Fixed (collapsed)
    parameters are excluded from the optimization vector and reported unchanged. The
    result carries no fit metrics.
    """
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
    final_res = residual_fn(theta_arr)
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
    best_theta, history = _ga_minimize(config, pricer.objective)
    start = ModelParams.from_array(best_theta)
    result = local_refine(start, pricer.residuals, config)
    result.metrics = fit_metrics(pricer.priced(result.theta), structure)
    result.iterations["ga_best_per_generation"] = history
    result.iterations["ga_start"] = {name: getattr(start, name) for name in PARAM_NAMES}
    return result
