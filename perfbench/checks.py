"""Output checks for each workload; standard library only.

Each check returns a list of problems (empty when the output is right) and a dict of
figures the report shows. A problem fails the operation it belongs to.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

#: roughvol's default calibration box, lower and upper, in (sigma0, rho, H, xi, alpha)
#: order. Every bootstrap estimate must lie inside it.
DEFAULT_BOUNDS = ((0.01, -1.0, 0.05, 0.01, 0.0), (0.20, -0.05, 0.25, 3.00, 1.0))

#: The calibration-recovery tolerances of the repository's acceptance gate 06. Their
#: problems start with RECOVERY: a toy-scale smoke run cannot meet them.
MAX_ARFV, H_TOL, SIGMA0_TOL = 0.005, 0.05, 0.01
RECOVERY = "recovery: "

#: A Monte-Carlo price may cross a no-arbitrage bound by sampling noise alone; a price
#: further than this many of its own standard errors outside the bound is wrong.
BOUND_SE = 4.0


def digest(outdir: Path, artifacts) -> str:
    h = hashlib.sha256()
    for name in artifacts:
        h.update(name.encode() + b"\0" + (outdir / name).read_bytes() + b"\0")
    return h.hexdigest()


def read_prices(outdir: Path) -> list[dict]:
    with (outdir / "prices.csv").open(newline="") as fh:
        return [{k: (v if k == "estimator" else float(v)) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def mean_rel_var(rows, spot: float) -> float:
    """mean_i (SE_i / spot)^2 over the priced quotes."""
    return sum((r["std_error"] / spot) ** 2 for r in rows) / len(rows)


def check_price(outdir: Path, truth: dict) -> tuple[list[str], dict]:
    spot, rate = truth["spot"], truth["rate"]
    rows = read_prices(outdir)
    problems = []
    by_maturity: dict[float, list] = {}
    for r in rows:
        k, t, p, se = r["strike"], r["maturity"], r["price"], r["std_error"]
        lower = max(spot - k * math.exp(-rate * t), 0.0)
        if not (lower - BOUND_SE * se <= p <= spot + BOUND_SE * se):
            problems.append(f"price {p} at K={k}, T={t} outside [{lower}, {spot}]")
        if not se > 0.0:
            problems.append(f"standard error {se} at K={k}, T={t} is not positive")
        by_maturity.setdefault(t, []).append((k, p))
    for t, pairs in by_maturity.items():
        pairs.sort()
        for (k1, p1), (k2, p2) in zip(pairs, pairs[1:]):
            if not p2 < p1:
                problems.append(f"price does not fall from K={k1} to K={k2} at T={t}")
    return problems, {"quotes": len(rows), "mean_rel_var": mean_rel_var(rows, spot)}


def check_calibrate(outdir: Path, truth: dict) -> tuple[list[str], dict]:
    data = json.loads((outdir / "calibration.json").read_text())
    theta, arfv = data["theta"], data["metrics"]["arfv"]
    problems = []
    if not arfv < MAX_ARFV:
        problems.append(f"{RECOVERY}ARFV {arfv} is not below {MAX_ARFV}")
    if not abs(theta["H"] - truth["theta"]["H"]) <= H_TOL:
        problems.append(f"{RECOVERY}H {theta['H']} is not within {H_TOL} of the truth")
    if not abs(theta["sigma0"] - truth["theta"]["sigma0"]) <= SIGMA0_TOL:
        problems.append(f"{RECOVERY}sigma0 {theta['sigma0']} is not within "
                        f"{SIGMA0_TOL} of the truth")
    return problems, {"arfv": arfv, "H": theta["H"]}


def check_bootstrap(outdir: Path, truth: dict) -> tuple[list[str], dict]:
    """Failed samples are separate operations: the caller counts ``sample_failures``."""
    data = json.loads((outdir / "bootstrap.json").read_text())
    problems = []
    lower, upper = DEFAULT_BOUNDS
    for j, theta in enumerate(data["theta_samples"]):
        if not all(lo <= x <= hi for lo, x, hi in zip(lower, theta, upper)):
            problems.append(f"sample {j} estimate {theta} outside the default bounds")
    return problems, {"samples": len(data["theta_samples"]),
                      "sample_failures": len(data["failures"])}
