"""Bootstrap robustness tests. The statistics are checked against a fully hand-computed
M=3 x N=4 table (no numpy aggregation calls on the oracle side), and the scatter-matrix
export against a golden file."""
import datetime as dt
import json
import pathlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from roughvol import bootstrap as boot_mod
from roughvol.bootstrap import (
    BootCalibration,
    BootstrapPlan,
    bootstrap_statistics,
    bootstrap_structure,
    export_scatter_matrix,
    run_bootcalibrations,
)
from roughvol.calibration import CalibrationConfig
from roughvol.fbm import FactorizationError
from roughvol.market import OptionQuote, OptionStructure
from roughvol.model import PARAM_NAMES, MarketEnv, ModelParams
from roughvol.synth import generate_chain

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

THETAS = [
    ModelParams(sigma0=0.08, rho=-0.3, H=0.20, xi=1.0, alpha=1.0),
    ModelParams(sigma0=0.10, rho=-0.4, H=0.15, xi=1.2, alpha=0.8),
    ModelParams(sigma0=0.12, rho=-0.2, H=0.25, xi=0.8, alpha=0.9),
]
PRICE_TABLE = [
    [11.0, 19.0, 5.0, 8.0],
    [10.0, 22.0, 4.0, 9.0],
    [9.0, 19.0, 6.0, 8.5],
]
CLOSES = [10.0, 20.0, 5.0, 8.0]


def four_option_structure():
    quotes = [OptionQuote(strike=90.0 + 10 * i, maturity=0.5, bid=c - 0.1,
                          ask=c + 0.1, close=c) for i, c in enumerate(CLOSES)]
    return OptionStructure(quotes=quotes, env=MarketEnv(spot=100.0),
                           trade_date=dt.date(2026, 1, 2), weights=np.ones(4))


def hand_results():
    return [BootCalibration(theta=t, prices=np.array(p), indices=np.arange(4), seed=j)
            for j, (t, p) in enumerate(zip(THETAS, PRICE_TABLE))]


def quartiles(values):
    """Linear-interpolation quartiles, written out longhand."""
    v = sorted(values)
    out = []
    for q in (0.25, 0.75):
        pos = q * (len(v) - 1)
        lo = int(pos)
        frac = pos - lo
        out.append(v[lo] + frac * (v[min(lo + 1, len(v) - 1)] - v[lo]))
    return out


# ---------------------------------------------------------------------------
# statistics against the hand table


def test_statistics_match_hand_computation():
    report = bootstrap_statistics(hand_results(), four_option_structure())

    assert_allclose(report.theta_hat, [0.10, -0.30, 0.20, 1.00, 0.90], rtol=1e-12)
    assert_allclose(report.price_hat, [10.0, 20.0, 5.0, 8.5], rtol=1e-12)
    assert_allclose(report.bre, [0.0, 0.0, 0.0, 0.5 / 8.0], atol=1e-15)

    # normalized error columns, variance with the (M-1) divisor written out
    norm_err = [[abs(PRICE_TABLE[j][i] - CLOSES[i]) / CLOSES[i] for j in range(3)]
                for i in range(4)]
    v_hand = []
    for col in norm_err:
        m = sum(col) / 3.0
        v_hand.append(sum((x - m) ** 2 for x in col) / 2.0)
    assert_allclose(report.v, v_hand, rtol=1e-12)

    aare = [sum(row) / 4.0 for row in
            ([0.1, 0.05, 0.0, 0.0], [0.0, 0.1, 0.2, 0.125], [0.1, 0.05, 0.2, 0.0625])]
    assert_allclose(report.aare_samples, aare, rtol=1e-12)
    assert report.boot_are_range == pytest.approx(max(aare) - min(aare), rel=1e-12)
    q25, q75 = quartiles(aare)
    assert report.boot_are_iqr == pytest.approx(q75 - q25, rel=1e-12)
    m = sum(aare) / 3.0
    std = (sum((x - m) ** 2 for x in aare) / 2.0) ** 0.5
    assert report.boot_are_std == pytest.approx(std, rel=1e-12)

    arfv = [(1 + 1 + 0 + 0) / 400.0, (0 + 2 + 1 + 1) / 400.0,
            (1 + 1 + 1 + 0.5) / 400.0]
    assert_allclose(report.arfv_samples, arfv, rtol=1e-12)


def test_relative_iqr_matches_hand_computation():
    report = bootstrap_statistics(hand_results(), four_option_structure())
    samples = np.array([t.as_array() for t in THETAS])
    for k in range(5):
        q25, q75 = quartiles(samples[:, k])
        mean = sum(samples[:, k]) / 3.0
        assert report.rel_iqr[k] == pytest.approx((q75 - q25) / mean, rel=1e-12)
    assert report.rel_iqr_avg == pytest.approx(np.abs(report.rel_iqr).mean(), rel=1e-12)
    assert report.rel_iqr_max == pytest.approx(np.abs(report.rel_iqr).max(), rel=1e-12)
    # rho has a negative sample mean, so its relative IQR is negative by convention
    assert report.rel_iqr[1] < 0.0


def test_relative_iqr_is_scale_free():
    results = hand_results()
    scaled = [BootCalibration(theta=ModelParams(t.sigma0, t.rho, t.H, 2.5 * t.xi,
                                                t.alpha),
                              prices=p.copy(), indices=i, seed=s)
              for t, p, i, s in ((r.theta, r.prices, r.indices, r.seed)
                                 for r in results)]
    base = bootstrap_statistics(results, four_option_structure())
    rescaled = bootstrap_statistics(scaled, four_option_structure())
    assert rescaled.rel_iqr[3] == pytest.approx(base.rel_iqr[3], rel=1e-12)


def test_statistics_invariant_under_result_order():
    structure = four_option_structure()
    a = bootstrap_statistics(hand_results(), structure)
    b = bootstrap_statistics(hand_results()[::-1], structure)
    # reversing the rows reorders the sums, so means agree only to rounding
    assert_allclose(a.theta_hat, b.theta_hat, rtol=1e-15)
    assert_allclose(a.bre, b.bre, atol=1e-15)
    assert_allclose(a.v, b.v, rtol=1e-12)
    assert_allclose(a.rel_iqr, b.rel_iqr, rtol=1e-15)
    assert_allclose(np.sort(a.aare_samples), np.sort(b.aare_samples), rtol=0, atol=0)


def test_bre_never_exceeds_mean_normalized_error():
    rng = np.random.default_rng(9)
    prices = 5.0 + rng.uniform(size=(20, 6))
    closes_row = 5.0 + rng.uniform(size=6)
    quotes = [OptionQuote(strike=100.0 + i, maturity=0.5, bid=c - 0.01, ask=c + 0.01,
                          close=float(c)) for i, c in enumerate(closes_row)]
    structure = OptionStructure(quotes=quotes, env=MarketEnv(spot=100.0),
                                trade_date=dt.date(2026, 1, 2), weights=np.ones(6))
    results = [BootCalibration(theta=THETAS[0], prices=prices[j], indices=np.arange(6),
                               seed=j) for j in range(20)]
    report = bootstrap_statistics(results, structure)
    mean_norm = np.abs(prices - closes_row).mean(axis=0) / closes_row
    assert np.all(report.bre <= mean_norm + 1e-15)


def test_report_to_dict_keys_and_values():
    report = bootstrap_statistics(hand_results(), four_option_structure())
    d = report.to_dict()
    assert set(d) == {"theta_samples", "theta_hat", "price_hat", "bre", "v", "rel_iqr",
                      "rel_iqr_avg", "rel_iqr_max", "boot_are", "aare_samples",
                      "arfv_samples", "failure_count"}
    assert d["theta_samples"] == report.theta_samples.tolist()
    assert d["theta_hat"] == dict(zip(PARAM_NAMES, report.theta_hat.tolist()))
    assert d["rel_iqr"] == dict(zip(PARAM_NAMES, report.rel_iqr.tolist()))
    assert d["boot_are"] == {"range": report.boot_are_range,
                             "iqr": report.boot_are_iqr, "std": report.boot_are_std}
    assert d["failure_count"] == 0
    assert json.loads(json.dumps(d)) == d


def test_statistics_require_two_samples():
    with pytest.raises(ValueError, match="at least 2"):
        bootstrap_statistics(hand_results()[:1], four_option_structure())


# ---------------------------------------------------------------------------
# resampling and the run loop


def test_plan_validation_and_seed_streams():
    with pytest.raises(ValueError):
        BootstrapPlan(config=CalibrationConfig(), sample_count=1)
    plan = BootstrapPlan(config=CalibrationConfig(), sample_count=5, base_seed=42)
    seeds = [s for j in range(5) for s in plan.seeds_for(j)]
    assert len(set(seeds)) == len(seeds)  # resample/calibrate/reprice never collide
    assert plan.seeds_for(0) == plan.seeds_for(0)


def test_bootstrap_structure_resamples_with_replacement():
    structure = four_option_structure()
    sample = bootstrap_structure(structure, seed=7)
    assert sample.indices.shape == (4,)
    assert np.all((sample.indices >= 0) & (sample.indices < 4))
    for k, i in enumerate(sample.indices):
        assert sample.structure.quotes[k] == structure.quotes[i]
        assert sample.structure.weights[k] == structure.weights[i]
    again = bootstrap_structure(structure, seed=7)
    assert np.array_equal(sample.indices, again.indices)
    other = bootstrap_structure(structure, seed=8)
    assert not np.array_equal(sample.indices, other.indices)


@pytest.fixture(scope="module")
def tiny_chain():
    truth = ModelParams(sigma0=0.08, rho=-0.3, H=0.2, xi=1.0, alpha=1.0)
    return generate_chain(truth, MarketEnv(spot=100.0), strikes=[95.0, 100.0, 105.0],
                          maturity_days=[91], steps_per_year=12, path_count=3000,
                          seed=5, rel_spread=0.02)


def tiny_plan(sample_count=3, threads=1):
    config = CalibrationConfig(path_count=800, steps_per_year=12, seed=0,
                               model_variant="rBergomi", threads=threads)
    return BootstrapPlan(config=config, sample_count=sample_count, base_seed=1)


def test_run_bootcalibrations_end_to_end(tiny_chain):
    overall = ModelParams(sigma0=0.08, rho=-0.3, H=0.2, xi=1.0, alpha=1.0)
    results, failures = run_bootcalibrations(tiny_chain, tiny_plan(), overall)
    assert failures == []
    assert len(results) == 3
    for r in results:
        assert r.prices.shape == (tiny_chain.n,)
        assert np.all(r.prices > 0.0)
        assert r.theta.alpha == 1.0  # variant pin survives the whole loop
    # distinct resample seeds produce distinct fits
    assert len({r.theta for r in results}) > 1
    report = bootstrap_statistics(results, tiny_chain)
    assert report.rel_iqr_max >= report.rel_iqr_avg


def test_run_bootcalibrations_threads_match_serial(tiny_chain):
    overall = ModelParams(sigma0=0.08, rho=-0.3, H=0.2, xi=1.0, alpha=1.0)
    serial, _ = run_bootcalibrations(tiny_chain, tiny_plan(threads=1), overall)
    pooled, _ = run_bootcalibrations(tiny_chain, tiny_plan(threads=3), overall)
    for a, b in zip(serial, pooled):
        assert a.theta == b.theta
        assert np.array_equal(a.prices, b.prices)


def test_run_bootcalibrations_collects_failures(tiny_chain, monkeypatch):
    overall = ModelParams(sigma0=0.08, rho=-0.3, H=0.2, xi=1.0, alpha=1.0)
    plan = tiny_plan()
    poisoned = plan.seeds_for(1)[0]
    real = bootstrap_structure

    def flaky(structure, seed):
        if seed == poisoned:
            raise ValueError("boom")
        return real(structure, seed)

    monkeypatch.setattr(boot_mod, "bootstrap_structure", flaky)
    results, failures = run_bootcalibrations(tiny_chain, plan, overall)
    assert len(results) == 2
    assert failures == [(1, "ValueError: boom")]


@pytest.mark.parametrize("threads", [1, 2])
def test_run_bootcalibrations_propagates_memory_error(tiny_chain, monkeypatch, threads):
    overall = ModelParams(sigma0=0.08, rho=-0.3, H=0.2, xi=1.0, alpha=1.0)
    plan = tiny_plan(threads=threads)

    def failing(exc):
        def run_one(structure, plan, overall_theta, j):
            if j == 1:
                raise exc
            return BootCalibration(theta=overall_theta, prices=np.zeros(structure.n),
                                   indices=np.arange(structure.n), seed=j)
        return run_one

    monkeypatch.setattr(boot_mod, "_run_one", failing(MemoryError("out of memory")))
    with pytest.raises(MemoryError):
        run_bootcalibrations(tiny_chain, plan, overall)
    monkeypatch.setattr(boot_mod, "_run_one", failing(ValueError("boom")))
    results, failures = run_bootcalibrations(tiny_chain, plan, overall)
    assert [r.seed for r in results] == [0, 2]
    assert failures == [(1, "ValueError: boom")]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("exc", [TypeError("bad call"), KeyError("sigma0")],
                         ids=["TypeError", "KeyError"])
def test_run_bootcalibrations_propagates_programming_errors(tiny_chain, monkeypatch,
                                                            threads, exc):
    # only errors a sample's data can raise are recorded; a bug is not a failed sample
    overall = ModelParams(sigma0=0.08, rho=-0.3, H=0.2, xi=1.0, alpha=1.0)

    def run_one(structure, plan, overall_theta, j):
        if j == 1:
            raise exc
        return BootCalibration(theta=overall_theta, prices=np.zeros(structure.n),
                               indices=np.arange(structure.n), seed=j)

    monkeypatch.setattr(boot_mod, "_run_one", run_one)
    with pytest.raises(type(exc)):
        run_bootcalibrations(tiny_chain, tiny_plan(threads=threads), overall)


@pytest.mark.parametrize("threads", [1, 2])
def test_run_bootcalibrations_records_factorization_errors(tiny_chain, monkeypatch,
                                                           threads):
    overall = ModelParams(sigma0=0.08, rho=-0.3, H=0.2, xi=1.0, alpha=1.0)

    def run_one(structure, plan, overall_theta, j):
        if j == 0:
            raise FactorizationError("singular")
        return BootCalibration(theta=overall_theta, prices=np.zeros(structure.n),
                               indices=np.arange(structure.n), seed=j)

    monkeypatch.setattr(boot_mod, "_run_one", run_one)
    results, failures = run_bootcalibrations(tiny_chain, tiny_plan(threads=threads),
                                             overall)
    assert [r.seed for r in results] == [1, 2]
    assert failures == [(0, "FactorizationError: singular")]


# ---------------------------------------------------------------------------
# scatter-matrix export


SCATTER_SAMPLES = np.array([
    [0.08, -0.30, 0.20, 1.00, 1.00],
    [0.10, -0.40, 0.15, 1.20, 0.80],
    [0.12, -0.20, 0.25, 0.80, 0.90],
    [0.09, -0.35, 0.22, 1.10, 0.85],
])
SCATTER_OVERALL = np.array([0.0782, -0.1792, 0.2324, 0.9875, 1.0])


def test_scatter_matrix_matches_golden(tmp_path):
    out = tmp_path / "scatter.txt"
    export_scatter_matrix(SCATTER_SAMPLES, SCATTER_OVERALL, out)
    golden = (GOLDEN_DIR / "scatter_matrix_small.txt").read_bytes()
    assert out.read_bytes() == golden


def test_scatter_matrix_structure(tmp_path):
    out = tmp_path / "scatter.txt"
    export_scatter_matrix(SCATTER_SAMPLES, SCATTER_OVERALL, out)
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == "# scatter-matrix data v1"
    assert lines[1] == "# parameters: sigma0,rho,H,xi,alpha"
    assert text.count("[histogram ") == 5
    assert text.count("[pairs ") == 10  # 5 choose 2
    assert "[markers]" in text
    # every histogram's counts sum to the sample count
    for name in ("sigma0", "rho", "H", "xi", "alpha"):
        block = text.split(f"[histogram {name}]")[1].split("[")[0]
        counts = [int(row.split(",")[2]) for row in block.strip().splitlines()[1:]]
        assert sum(counts) == 4


def test_scatter_matrix_constant_column(tmp_path):
    samples = SCATTER_SAMPLES.copy()
    samples[:, 4] = 1.0  # pinned alpha: degenerate histogram must still export
    out = tmp_path / "scatter.txt"
    export_scatter_matrix(samples, SCATTER_OVERALL, out)
    block = out.read_text().split("[histogram alpha]")[1].split("[")[0]
    rows = block.strip().splitlines()[1:]
    assert len(rows) >= 1
    assert sum(int(r.split(",")[2]) for r in rows) == 4


def test_scatter_matrix_rejects_single_sample(tmp_path):
    with pytest.raises(ValueError, match="M >= 2"):
        export_scatter_matrix(SCATTER_SAMPLES[:1], SCATTER_OVERALL, tmp_path / "x.txt")


@pytest.mark.parametrize("width", [4, 6])
def test_scatter_matrix_refuses_a_width_other_than_five(tmp_path, width):
    samples = np.random.default_rng(width).normal(size=(8, width))
    out = tmp_path / "scatter.txt"
    shape = rf"M x 5 .*sigma0, rho, H, xi, alpha, got shape \(8, {width}\)"
    with pytest.raises(ValueError, match=shape):
        export_scatter_matrix(samples, SCATTER_OVERALL, out)
    assert not out.exists()


def test_scatter_matrix_piled_up_column_caps_the_bins(tmp_path):
    # seven fits on alpha = 1 to within 2.2e-16 and one outlier: Freedman-Diaconis
    # would ask for about 4e14 bins of width 2.2e-16
    samples = np.tile(SCATTER_SAMPLES[0], (8, 1))
    samples[:, 4] = [1 - 1e-16, 1 - 2.2e-16, 1, 1 - 1e-16, 1, 1 - 2.2e-16, 1, 0.907]
    out = tmp_path / "scatter.txt"
    export_scatter_matrix(samples, SCATTER_OVERALL, out)
    block = out.read_text().split("[histogram alpha]")[1].split("[")[0]
    rows = block.strip().splitlines()[1:]
    assert 1 <= len(rows) <= 8
    assert sum(int(r.split(",")[2]) for r in rows) == 8


@pytest.mark.parametrize("seed", range(4))
def test_scatter_matrix_keeps_fd_bins_when_they_fit(tmp_path, seed):
    samples = np.random.default_rng(seed).normal(size=(50, 5))
    out = tmp_path / "scatter.txt"
    export_scatter_matrix(samples, SCATTER_OVERALL, out)
    text = out.read_text()
    for k, name in enumerate(("sigma0", "rho", "H", "xi", "alpha")):
        counts, edges = np.histogram(samples[:, k], bins="fd")
        block = text.split(f"[histogram {name}]\n")[1].split("[")[0]
        expected = "".join(f"{float(edges[i])!r},{float(edges[i + 1])!r},{c}\n"
                           for i, c in enumerate(counts))
        assert block == "bin_left,bin_right,count\n" + expected
