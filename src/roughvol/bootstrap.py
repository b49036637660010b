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

from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .calibration import CalibrationConfig, FrozenPricer, local_refine
from .fbm import derive_seed, parallel_map
from .market import OptionStructure
from .model import PARAM_NAMES, ModelParams

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
_STREAM_BOOT = 2


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
    config_j = dc_replace(plan.config, seed=calib_seed, threads=1)
    result = local_refine(overall_theta,
                          FrozenPricer(sample.structure, config_j).residuals, config_j)
    reprice_config = dc_replace(plan.config, seed=reprice_seed, threads=1)
    prices = FrozenPricer(structure, reprice_config).prices(result.theta)
    return BootCalibration(theta=result.theta, prices=prices,
                           indices=sample.indices, seed=calib_seed)


def run_bootcalibrations(structure: OptionStructure, plan: BootstrapPlan,
                         overall_theta: ModelParams, threads: int = 1):
    """Calibrate each resample and reprice the original chain at its parameters.

    Returns (results, failures); failed samples are recorded as (index, message) and
    skipped. Running out of memory is not a property of a sample: MemoryError
    propagates. Workers are self-contained (own seeds, own frozen draws), so the
    result list is deterministic at any thread count.
    """
    def run(j: int):
        try:
            return _run_one(structure, plan, overall_theta, j)
        except MemoryError:
            raise
        except Exception as exc:  # noqa: BLE001 - per-sample failures are data
            return (j, f"{type(exc).__name__}: {exc}")

    raw = parallel_map(run, range(plan.sample_count), threads)
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
    rel_iqr: np.ndarray            # per-parameter IQR / mean
    rel_iqr_avg: float
    rel_iqr_max: float
    boot_are_range: float          # range / IQR / std of the M per-sample AAREs
    boot_are_iqr: float
    boot_are_std: float
    aare_samples: np.ndarray       # per-bootcalibration AARE on the original chain
    arfv_samples: np.ndarray       # per-bootcalibration ARFV (drives sensitivity)
    failure_count: int = 0

    def to_dict(self) -> dict:
        return {
            "theta_samples": self.theta_samples.tolist(),
            "theta_hat": {n: v for n, v in zip(PARAM_NAMES, self.theta_hat.tolist())},
            "price_hat": self.price_hat.tolist(),
            "bre": self.bre.tolist(),
            "v": self.v.tolist(),
            "rel_iqr": {n: v for n, v in zip(PARAM_NAMES, self.rel_iqr.tolist())},
            "rel_iqr_avg": self.rel_iqr_avg,
            "rel_iqr_max": self.rel_iqr_max,
            "boot_are": {"range": self.boot_are_range, "iqr": self.boot_are_iqr,
                         "std": self.boot_are_std},
            "aare_samples": self.aare_samples.tolist(),
            "arfv_samples": self.arfv_samples.tolist(),
            "failure_count": self.failure_count,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BootstrapReport":
        return cls(
            theta_samples=np.asarray(d["theta_samples"], dtype=float),
            theta_hat=np.array([d["theta_hat"][n] for n in PARAM_NAMES]),
            price_hat=np.asarray(d["price_hat"], dtype=float),
            bre=np.asarray(d["bre"], dtype=float),
            v=np.asarray(d["v"], dtype=float),
            rel_iqr=np.array([d["rel_iqr"][n] for n in PARAM_NAMES]),
            rel_iqr_avg=float(d["rel_iqr_avg"]),
            rel_iqr_max=float(d["rel_iqr_max"]),
            boot_are_range=float(d["boot_are"]["range"]),
            boot_are_iqr=float(d["boot_are"]["iqr"]),
            boot_are_std=float(d["boot_are"]["std"]),
            aare_samples=np.asarray(d["aare_samples"], dtype=float),
            arfv_samples=np.asarray(d["arfv_samples"], dtype=float),
            failure_count=int(d.get("failure_count", 0)),
        )


def _iqr(values: np.ndarray) -> float:
    q25, q75 = np.percentile(values, [25.0, 75.0])  # linear interpolation
    return float(q75 - q25)


def bootstrap_statistics(results, structure: OptionStructure) -> BootstrapReport:
    """Aggregate M bootcalibrations into the robustness report (M >= 2 required)."""
    if len(results) < 2:
        raise ValueError("bootstrap statistics need at least 2 successful samples")
    theta_samples = np.array([r.theta.as_array() for r in results])
    price_table = np.array([r.prices for r in results])     # M x N
    closes = structure.closes
    spot = structure.env.spot

    theta_hat = theta_samples.mean(axis=0)
    price_hat = price_table.mean(axis=0)
    norm_err = np.abs(price_table - closes) / closes        # M x N
    bre = np.abs(price_hat - closes) / closes
    v = norm_err.var(axis=0, ddof=1)

    means = theta_samples.mean(axis=0)
    rel_iqr = np.array([_iqr(theta_samples[:, k]) for k in range(theta_samples.shape[1])])
    with np.errstate(divide="ignore", invalid="ignore"):
        rel_iqr = np.where(rel_iqr == 0.0, 0.0, rel_iqr / means)

    aare = norm_err.mean(axis=1)                            # per-bootcalibration AARE
    arfv = (np.abs(price_table - closes) / spot).mean(axis=1)
    return BootstrapReport(
        theta_samples=theta_samples,
        theta_hat=theta_hat,
        price_hat=price_hat,
        bre=bre,
        v=v,
        rel_iqr=rel_iqr,
        rel_iqr_avg=float(rel_iqr.mean()),
        rel_iqr_max=float(rel_iqr.max()),
        boot_are_range=float(aare.max() - aare.min()),
        boot_are_iqr=_iqr(aare),
        boot_are_std=float(aare.std(ddof=1)),
        aare_samples=aare,
        arfv_samples=arfv,
    )


def _fmt(x: float) -> str:
    return repr(float(x))


def export_scatter_matrix(theta_samples: np.ndarray, theta_hat: np.ndarray,
                          overall_theta: np.ndarray, path) -> None:
    """Write scatter-matrix data: per-parameter histograms (Freedman-Diaconis bins) on
    the diagonal, paired samples off-diagonal, plus bootstrap-mean/overall markers.

    Plain sectioned text consumable by any plotting tool; byte-stable for fixed input.
    """
    theta_samples = np.asarray(theta_samples, dtype=float)
    if theta_samples.ndim != 2 or theta_samples.shape[0] < 2:
        raise ValueError("scatter matrix needs an M x d sample matrix with M >= 2")
    d = theta_samples.shape[1]
    names = PARAM_NAMES[:d] if d <= len(PARAM_NAMES) else tuple(
        f"p{k}" for k in range(d))
    lines = ["# scatter-matrix data v1", f"# parameters: {','.join(names)}"]
    for k, name in enumerate(names):
        counts, edges = np.histogram(theta_samples[:, k], bins="fd")
        lines.append(f"[histogram {name}]")
        lines.append("bin_left,bin_right,count")
        for i, c in enumerate(counts):
            lines.append(f"{_fmt(edges[i])},{_fmt(edges[i + 1])},{int(c)}")
    for a in range(d):
        for b in range(a + 1, d):
            lines.append(f"[pairs {names[a]}:{names[b]}]")
            lines.append(f"{names[a]},{names[b]}")
            for row in theta_samples:
                lines.append(f"{_fmt(row[a])},{_fmt(row[b])}")
    lines.append("[markers]")
    lines.append("parameter,bootstrap_mean,overall")
    for k, name in enumerate(names):
        lines.append(f"{name},{_fmt(theta_hat[k])},{_fmt(overall_theta[k])}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
