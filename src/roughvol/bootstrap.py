"""Bootstrap robustness analysis of a calibration.

The option structure is resampled with replacement M times; each resample is
recalibrated (local stage only, started from the overall calibration — the global
stage would dominate the budget and the resamples live in the same basin), and the
resulting parameter vectors are pushed back through the pricer on the ORIGINAL chain.
From the M x N price table the report derives, per option, the bootstrap relative
error BRE_i = |mean_j C~_i^j - C_i^mkt| / C_i^mkt and the sample variance V_i of the
normalized errors |C~_i^j - C_i^mkt| / C_i^mkt, and per parameter the relative
interquartile range IQR / mean — the scale-free dispersion summary reported by the
robustness tables.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, fields, replace as dc_replace

import numpy as np

from .calibration import CalibrationConfig, FrozenPricer, fit_metrics, local_refine
from .fbm import FactorizationError, _STREAM_BOOT, derive_seed, parallel_map
from .market import OptionStructure
from .model import PARAM_NAMES, ModelParams, _theta_samples
from .pricing import price_chain

__all__ = [
    "BootstrapPlan",
    "BootSample",
    "BootCalibration",
    "BootstrapReport",
    "bootstrap_structure",
    "run_bootcalibrations",
    "bootstrap_statistics",
    "export_scatter_matrix",
]

#: sub-stream tags under the plan's base seed: resample indices / calibration noise /
#: repricing noise for each bootcalibration j.
_TAG_RESAMPLE, _TAG_CALIBRATE, _TAG_REPRICE = 0, 1, 2


@dataclass(frozen=True)
class BootstrapPlan:
    config: CalibrationConfig
    sample_count: int = 200
    base_seed: int = 0

    def __post_init__(self):
        if self.sample_count < 2:
            raise ValueError("bootstrap needs at least 2 samples")

    def seeds_for(self, j: int) -> tuple[int, int, int]:
        """(resample, calibration, repricing) seeds for bootcalibration j."""
        return (derive_seed(self.base_seed, _STREAM_BOOT, j, _TAG_RESAMPLE),
                derive_seed(self.base_seed, _STREAM_BOOT, j, _TAG_CALIBRATE),
                derive_seed(self.base_seed, _STREAM_BOOT, j, _TAG_REPRICE))


@dataclass(eq=False)
class BootSample:
    """Indices drawn with replacement and the structure they induce.

    quotes[k] = original[indices[k]]; weights are carried over by index (duplicated
    quotes simply appear as repeated residual terms)."""

    indices: np.ndarray
    structure: OptionStructure


@dataclass(eq=False)
class BootCalibration:
    theta: ModelParams
    prices: np.ndarray        # model prices over the ORIGINAL structure
    indices: np.ndarray
    seed: int


def bootstrap_structure(structure: OptionStructure, seed: int) -> BootSample:
    """Uniform i.i.d. resample (with replacement) of the chain; deterministic per seed."""
    n = structure.n
    if n < 1:
        raise ValueError("cannot resample an empty structure")
    rng = np.random.default_rng(int(seed))
    indices = rng.integers(0, n, size=n)
    resampled = OptionStructure(
        quotes=tuple(structure.quotes[i] for i in indices),
        env=structure.env,
        trade_date=structure.trade_date,
        weights=structure.weights[indices],
    )
    return BootSample(indices=indices, structure=resampled)


def _run_one(structure: OptionStructure, plan: BootstrapPlan,
             overall_theta: ModelParams, j: int) -> BootCalibration:
    resample_seed, calib_seed, reprice_seed = plan.seeds_for(j)
    sample = bootstrap_structure(structure, resample_seed)
    config_j = dc_replace(plan.config, seed=calib_seed)
    result = local_refine(overall_theta,
                          FrozenPricer(sample.structure, config_j).residuals, config_j)
    # one thread for the build and the blocks: the samples are the parallel level
    estimates = price_chain(structure.options, structure.env, result.theta,
                            plan.config.path_count, plan.config.steps_per_year,
                            reprice_seed)
    return BootCalibration(theta=result.theta, prices=np.array([e.price for e in estimates]),
                           indices=sample.indices, seed=calib_seed)


def run_bootcalibrations(structure: OptionStructure, plan: BootstrapPlan,
                         overall_theta: ModelParams):
    """Calibrate each resample and reprice the original chain at its parameters, with
    up to ``plan.config.threads`` samples at once.

    Returns (results, failures); failed samples are recorded as (index, message) and
    skipped. A failure is recorded only when a sample's data can cause it: a
    ValueError (LinAlgError and ChainFormatError included) or a FactorizationError.
    Anything else, such as a MemoryError or a programming error, propagates. Workers
    are self-contained (own seeds, own frozen draws), so the result list is
    deterministic at any thread count.
    """
    def run(j: int):
        try:
            return _run_one(structure, plan, overall_theta, j)
        except (ValueError, FactorizationError) as exc:  # per-sample failures are data
            return (j, f"{type(exc).__name__}: {exc}")

    raw = parallel_map(run, range(plan.sample_count), plan.config.threads)
    results = [r for r in raw if isinstance(r, BootCalibration)]
    failures = [r for r in raw if not isinstance(r, BootCalibration)]
    return results, failures


@dataclass(eq=False)
class BootstrapReport:
    theta_samples: np.ndarray      # M x 5
    theta_hat: np.ndarray          # bootstrap mean parameter vector
    price_hat: np.ndarray          # per-option bootstrap mean price
    bre: np.ndarray                # per-option bootstrap relative error
    v: np.ndarray                  # per-option variance of normalized errors
    rel_iqr: np.ndarray            # per-parameter IQR / mean, negative where the mean is
    rel_iqr_avg: float             # mean and max of |rel_iqr|
    rel_iqr_max: float
    boot_are_range: float          # range / IQR / std of the M per-sample AAREs
    boot_are_iqr: float
    boot_are_std: float
    aare_samples: np.ndarray       # per-bootcalibration AARE on the original chain
    arfv_samples: np.ndarray       # per-bootcalibration ARFV (drives sensitivity)
    failure_count: int = 0

    def to_dict(self) -> dict:
        """The fields as JSON values: arrays become lists, ``theta_hat`` and ``rel_iqr``
        map each name in `PARAM_NAMES` to its value, and the three ``boot_are_*``
        fields nest under ``boot_are`` as ``range``, ``iqr`` and ``std``."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in out.items()}
        for key in ("theta_hat", "rel_iqr"):
            out[key] = dict(zip(PARAM_NAMES, out[key]))
        spread = [key for key in out if key.startswith("boot_are_")]
        out["boot_are"] = {key.removeprefix("boot_are_"): out.pop(key) for key in spread}
        return out


def _iqr(values: np.ndarray) -> float:
    q25, q75 = np.percentile(values, [25.0, 75.0])  # linear interpolation
    return float(q75 - q25)


def bootstrap_statistics(results, structure: OptionStructure,
                         failures=()) -> BootstrapReport:
    """Aggregate M bootcalibrations into the robustness report (M >= 2 required).

    ``failures`` are the (index, message) pairs of the failed samples
    (`run_bootcalibrations`): the report counts them, and the error for too few
    successes names the first.
    """
    if len(results) < 2:
        reason = ""
        if failures:
            j, message = failures[0]
            reason = (f"; {len(failures)} of {len(results) + len(failures)} failed, "
                      f"the first (sample {j}) with {message}")
        raise ValueError("bootstrap statistics need at least 2 successful samples"
                         + reason)
    theta_samples = np.array([r.theta.as_array() for r in results])
    price_table = np.array([r.prices for r in results])     # M x N
    closes = structure.closes

    theta_hat = theta_samples.mean(axis=0)
    price_hat = price_table.mean(axis=0)
    norm_err = np.abs(price_table - closes) / closes        # M x N
    bre = np.abs(price_hat - closes) / closes
    v = norm_err.var(axis=0, ddof=1)

    rel_iqr = np.array([_iqr(column) for column in theta_samples.T])
    with np.errstate(divide="ignore", invalid="ignore"):
        rel_iqr = np.where(rel_iqr == 0.0, 0.0, rel_iqr / theta_hat)

    metrics = [fit_metrics(prices, structure) for prices in price_table]
    aare = np.array([m.aare for m in metrics])
    return BootstrapReport(
        theta_samples=theta_samples,
        theta_hat=theta_hat,
        price_hat=price_hat,
        bre=bre,
        v=v,
        rel_iqr=rel_iqr,
        rel_iqr_avg=float(np.abs(rel_iqr).mean()),
        rel_iqr_max=float(np.abs(rel_iqr).max()),
        boot_are_range=float(aare.max() - aare.min()),
        boot_are_iqr=_iqr(aare),
        boot_are_std=float(aare.std(ddof=1)),
        aare_samples=aare,
        arfv_samples=np.array([m.arfv for m in metrics]),
        failure_count=len(failures),
    )


def _fmt(x: float) -> str:
    return repr(float(x))


def _bins(column: np.ndarray) -> str:
    """Freedman-Diaconis, unless its width (2 IQR M^(-1/3)) would ask for more bins
    than the M samples, as when fits pile up on one value: then Sturges'."""
    width = 2.0 * _iqr(column) * column.size ** (-1.0 / 3.0)
    # numpy makes ceil(range / width) FD bins, or one at zero width; a Python float
    # quotient turns to inf, not a warning, when the width is tiny
    fits = width == 0.0 or float(np.ptp(column)) / width <= column.size
    return "fd" if fits else "sturges"


def export_scatter_matrix(theta_samples: np.ndarray, overall_theta: np.ndarray,
                          path) -> None:
    """Write scatter-matrix data: per-parameter histograms (`_bins`) on the diagonal,
    paired samples off-diagonal, plus bootstrap-mean/overall markers.

    ``theta_samples`` is the M x 5 bootstrap parameter matrix (M >= 2), one column per
    parameter in `PARAM_NAMES` order; any other width raises ValueError naming the
    shape. The bootstrap mean is its column mean, as in `bootstrap_statistics`. Plain
    sectioned text consumable by any plotting tool; byte-stable for fixed input.
    """
    theta_samples = _theta_samples(theta_samples)
    if theta_samples.shape[0] < 2:
        raise ValueError("scatter matrix needs M >= 2 samples")
    theta_hat = theta_samples.mean(axis=0)
    lines = ["# scatter-matrix data v1", f"# parameters: {','.join(PARAM_NAMES)}"]
    for name, column in zip(PARAM_NAMES, theta_samples.T):
        counts, edges = np.histogram(column, bins=_bins(column))
        lines.append(f"[histogram {name}]")
        lines.append("bin_left,bin_right,count")
        for i, c in enumerate(counts):
            lines.append(f"{_fmt(edges[i])},{_fmt(edges[i + 1])},{int(c)}")
    for (a, name_a), (b, name_b) in itertools.combinations(enumerate(PARAM_NAMES), 2):
        lines.append(f"[pairs {name_a}:{name_b}]")
        lines.append(f"{name_a},{name_b}")
        for row in theta_samples:
            lines.append(f"{_fmt(row[a])},{_fmt(row[b])}")
    lines.append("[markers]")
    lines.append("parameter,bootstrap_mean,overall")
    for name, mean, overall in zip(PARAM_NAMES, theta_hat, overall_theta, strict=True):
        lines.append(f"{name},{_fmt(mean)},{_fmt(overall)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
