"""Release acceptance suite: twelve end-to-end gates, one test (and one verdict line
under ``pytest -v``) each.

Covers simulation exactness, sampled-moment fidelity, the Black-Scholes limit, the
martingale property, variance reduction, full calibration recovery on a synthetic
chain, bootstrap statistics, the statistical utilities, and CLI byte-determinism.
Tolerances are the contract values; the Monte-Carlo gates use frozen seeds that were
fixed once, up front.
"""
import json

import numpy as np
import pytest

from roughvol.bootstrap import BootstrapPlan, bootstrap_statistics, run_bootcalibrations
from roughvol.calibration import CalibrationConfig, calibrate
from roughvol.cli import main as cli_main
from roughvol.fbm import TimeGrid, build_joint_covariance, sample_paths
from roughvol.model import MarketEnv, ModelParams, log_price_paths
from roughvol.pricing import chain_estimates
from roughvol.stats import (ks_two_sample, octile_grouping, sensitivity_analysis,
                            significance_test)
from roughvol.synth import generate_chain
from test_fbm import cholesky_factor, sigma_matrix

# reference rBergomi fit used for the pricing and calibration gates
REF_RBERGOMI = ModelParams(sigma0=0.0782, rho=-0.1792, H=0.2324, xi=0.9875, alpha=1.0)


# ---------------------------------------------------------------------------
# 1-2: joint path simulation


def test_01_covariance_matrix_is_exact():
    grid = TimeGrid.regular(1.0, 16)
    assert grid.n == 16
    t = grid.times
    for H in (0.1, 0.3, 0.5):
        cov = build_joint_covariance(grid, H)
        sigma = sigma_matrix(cov)
        fbm_expected = 0.5 * (t[:, None] ** (2 * H) + t[None, :] ** (2 * H)
                              - np.abs(t[:, None] - t[None, :]) ** (2 * H))
        assert np.max(np.abs(sigma[:16, :16] - fbm_expected)) <= 1e-12
        if H == 0.5:
            mins = np.minimum(t[:, None], t[None, :])
            for block in (sigma[:16, :16], sigma[:16, 16:], sigma[16:, 16:]):
                assert np.max(np.abs(block - mins)) <= 1e-12
        L = cholesky_factor(cov)
        resid = np.linalg.norm(L @ L.T - sigma) / np.linalg.norm(sigma)
        assert resid <= 1e-10


def test_02_sampled_paths_reproduce_covariance():
    grid = TimeGrid.regular(1.0, 16)
    cov = build_joint_covariance(grid, 0.3)
    bundle = sample_paths(cov, 200_000, seed=2024)
    X = np.hstack([bundle.fbm_paths, np.cumsum(bundle.w_increments, axis=1)])
    S = X.T @ X / X.shape[0]
    sigma = sigma_matrix(cov)
    diag = np.diag(sigma)
    se = np.sqrt((np.outer(diag, diag) + sigma**2) / X.shape[0])
    flagged = np.abs(S - sigma) > 3.0 * se
    assert flagged.mean() <= 0.01


# ---------------------------------------------------------------------------
# 3-5: pricing estimators


def test_03_constant_volatility_recovers_black_scholes():
    grid = TimeGrid.regular(1.0, 16)
    cov = build_joint_covariance(grid, 0.5)
    bundle = sample_paths(cov, 100_000, seed=77)
    env = MarketEnv(spot=100.0, rate=0.0)
    target = 7.96556745540579629  # closed form at S=K=100, r=0, sigma=0.2, T=1

    # xi below the subnormal floor: exp(xi * B) is exactly 1, volatility is flat
    flat = ModelParams(sigma0=0.2, rho=0.0, H=0.5, xi=1e-300, alpha=0.0)
    cond = chain_estimates(bundle, flat, env, [(100.0, 1.0)])[0]
    assert cond.std_error == 0.0  # every path carries the same conditional value
    assert cond.price == pytest.approx(target, abs=1e-9)
    plain = chain_estimates(bundle, flat, env, [(100.0, 1.0)], estimator="plain")[0]
    assert abs(plain.price - target) <= 3.0 * plain.std_error

    # with correlation both estimators stay unbiased, the conditional one noisily so
    tilted = ModelParams(sigma0=0.2, rho=-0.3, H=0.5, xi=1e-300, alpha=0.0)
    cond = chain_estimates(bundle, tilted, env, [(100.0, 1.0)])[0]
    plain = chain_estimates(bundle, tilted, env, [(100.0, 1.0)], estimator="plain")[0]
    assert abs(cond.price - target) <= 3.0 * cond.std_error
    assert abs(plain.price - target) <= 3.0 * plain.std_error


@pytest.fixture(scope="module")
def ref_paths():
    grid = TimeGrid.regular(1.0, 252)
    cov = build_joint_covariance(grid, REF_RBERGOMI.H)
    bundle = sample_paths(cov, 100_000, seed=41)
    return grid, bundle


def test_04_discounted_price_is_martingale(ref_paths):
    grid, bundle = ref_paths
    env = MarketEnv(spot=100.0, rate=0.03)
    logs = log_price_paths(bundle, REF_RBERGOMI, env)
    for maturity in (0.25, 1.0):
        s_t = np.exp(logs[:, grid.index_of(maturity)])
        disc = np.exp(-env.rate * maturity) * s_t
        mean = float(np.mean(disc))
        se = float(np.std(disc, ddof=1) / np.sqrt(disc.size))
        assert abs(mean - env.spot) <= 3.0 * se, (
            f"T={maturity}: discounted mean {mean:.4f} vs spot, SE {se:.4f}")


def test_05_conditional_estimator_reduces_variance(ref_paths):
    grid, bundle = ref_paths
    env = MarketEnv(spot=100.0, rate=0.0)
    for strike in (100.0, 120.0):  # at the money and 20% out of the money
        plain = chain_estimates(bundle, REF_RBERGOMI, env, [(strike, 1.0)],
                                estimator="plain")[0]
        cond = chain_estimates(bundle, REF_RBERGOMI, env, [(strike, 1.0)])[0]
        ratio = cond.std_error / plain.std_error
        print(f"K={strike:.0f}: SE ratio {ratio:.3f} (informational target <= 0.5)")
        assert ratio < 1.0


# ---------------------------------------------------------------------------
# 6: calibration recovery on a synthetic chain


@pytest.fixture(scope="module")
def synthetic_chain():
    return generate_chain(REF_RBERGOMI, MarketEnv(spot=100.0, rate=0.0),
                          strikes=[92.0, 96.0, 100.0, 104.0, 108.0],
                          maturity_days=[91, 182, 273, 365],
                          steps_per_year=48, path_count=150_000, seed=812,
                          rel_spread=0.01)


@pytest.fixture(scope="module")
def recovery(synthetic_chain):
    config = CalibrationConfig(path_count=20_000, steps_per_year=48, seed=0,
                               ga_population=150, ga_generations=5,
                               model_variant="rBergomi", threads=1)
    return calibrate(synthetic_chain, config)


def test_06_calibration_recovers_generating_parameters(synthetic_chain, recovery):
    assert synthetic_chain.n == 20
    theta = recovery.theta
    print(f"recovered sigma0={theta.sigma0:.5f} H={theta.H:.4f} "
          f"ARFV={recovery.metrics.arfv:.3%}")
    assert recovery.metrics.arfv < 0.005
    assert abs(theta.H - REF_RBERGOMI.H) <= 0.05
    assert abs(theta.sigma0 - REF_RBERGOMI.sigma0) <= 0.01


# ---------------------------------------------------------------------------
# 7-9: statistics oracles


def test_07_bootstrap_statistics_match_brute_force():
    from roughvol.bootstrap import BootCalibration
    import datetime as dt
    from roughvol.market import OptionQuote, OptionStructure

    thetas = [ModelParams(0.08, -0.3, 0.20, 1.0, 1.0),
              ModelParams(0.10, -0.4, 0.15, 1.2, 0.8),
              ModelParams(0.12, -0.2, 0.25, 0.8, 0.9)]
    table = np.array([[11.0, 19.0, 5.0, 8.0],
                      [10.0, 22.0, 4.0, 9.0],
                      [9.0, 19.0, 6.0, 8.5]])
    closes = np.array([10.0, 20.0, 5.0, 8.0])
    quotes = [OptionQuote(strike=90.0 + 10 * i, maturity=0.5, bid=c - 0.1, ask=c + 0.1,
                          close=float(c)) for i, c in enumerate(closes)]
    structure = OptionStructure(quotes=quotes, env=MarketEnv(spot=100.0),
                                trade_date=dt.date(2026, 1, 2), weights=np.ones(4))
    results = [BootCalibration(theta=t, prices=p, indices=np.arange(4), seed=j)
               for j, (t, p) in enumerate(zip(thetas, table))]
    report = bootstrap_statistics(results, structure)

    def interp_quartiles(v):
        v = sorted(v)
        out = []
        for q in (0.25, 0.75):
            pos = q * (len(v) - 1)
            lo = int(pos)
            out.append(v[lo] + (pos - lo) * (v[min(lo + 1, len(v) - 1)] - v[lo]))
        return out

    samples = np.array([t.as_array() for t in thetas])
    for k in range(5):
        expect = sum(samples[:, k]) / 3.0
        assert abs(report.theta_hat[k] - expect) <= 1e-12
        q25, q75 = interp_quartiles(samples[:, k])
        assert abs(report.rel_iqr[k] - (q75 - q25) / expect) <= 1e-12
    for i in range(4):
        mean_price = sum(table[:, i]) / 3.0
        assert abs(report.price_hat[i] - mean_price) <= 1e-12
        assert abs(report.bre[i] - abs(mean_price - closes[i]) / closes[i]) <= 1e-12
        errs = [abs(table[j, i] - closes[i]) / closes[i] for j in range(3)]
        m = sum(errs) / 3.0
        assert abs(report.v[i] - sum((e - m) ** 2 for e in errs) / 2.0) <= 1e-12


def test_08_octile_partition_sizes():
    g = octile_grouping(np.random.default_rng(0).normal(size=200))
    assert (g.low.size, g.mid.size, g.high.size) == (75, 50, 75)
    g = octile_grouping(np.random.default_rng(1).normal(size=8))
    assert (g.low.size, g.mid.size, g.high.size) == (3, 2, 3)


def test_09_ks_statistic_and_null_calibration():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n1, n2 = rng.integers(5, 101, size=2)
        x = rng.integers(0, 15, size=n1).astype(float)  # ties included
        y = rng.integers(0, 15, size=n2).astype(float)
        d = 0.0
        for v in np.concatenate([x, y]):
            d = max(d, abs(np.sum(x <= v) / n1 - np.sum(y <= v) / n2))
        assert ks_two_sample(x, y).statistic == d

    x = rng.normal(size=40)
    assert ks_two_sample(x, x.copy()).p_value == 1.0

    rng = np.random.default_rng(909)
    count = sum(ks_two_sample(rng.normal(size=100), rng.normal(size=100)).p_value < 0.05
                for _ in range(200))
    # binomial 3 sigma around the nominal 5% of 200
    spread = 3.0 * np.sqrt(200 * 0.05 * 0.95)
    assert 10.0 - spread <= count <= 10.0 + spread


# ---------------------------------------------------------------------------
# 10-11: bootstrap-driven diagnostics at desk scale


def test_10_sensitivity_pipeline_and_null_independence(synthetic_chain, recovery):
    config = CalibrationConfig(path_count=20_000, steps_per_year=48, seed=0,
                               model_variant="rBergomi", threads=1)
    plan = BootstrapPlan(config=config, sample_count=20, base_seed=7)
    results, failures = run_bootcalibrations(synthetic_chain, plan, recovery.theta)
    assert failures == []
    report = bootstrap_statistics(results, synthetic_chain)
    sens = sensitivity_analysis(report.theta_samples, report.arfv_samples)
    assert len(sens) == 5  # the full pipeline runs to completion

    # estimates independent of the fit by construction: runs should come back clean
    rng = np.random.default_rng(2)
    clean = 0
    for _ in range(20):
        theta_samples = rng.uniform(size=(20, 5))
        fit = rng.normal(size=20)
        clean += not any(r.reject for r in sensitivity_analysis(theta_samples, fit))
    print(f"clean independence runs: {clean}/20")
    assert clean >= 18


@pytest.fixture(scope="module")
def small_chain():
    truth = ModelParams(sigma0=0.08, rho=-0.3, H=0.2, xi=1.0, alpha=1.0)
    return truth, generate_chain(truth, MarketEnv(spot=100.0),
                                 strikes=[95.0, 100.0, 105.0], maturity_days=[91],
                                 steps_per_year=12, path_count=2500, seed=5,
                                 rel_spread=0.02)


def test_11_significance_null_level_and_power(small_chain):
    truth, chain = small_chain
    rejections = 0
    for k in range(50):
        res = significance_test(chain, truth, truth, repetitions=100,
                                path_count=2000, steps_per_year=12, base_seed=k)
        rejections += res.t_test.p_value < 0.05
    print(f"null rejections: {rejections}/50")
    assert 0 <= rejections <= 7

    bumped = ModelParams(sigma0=0.12, rho=-0.3, H=0.2, xi=1.0, alpha=1.0)
    res = significance_test(chain, truth, bumped, repetitions=100, path_count=2000,
                            steps_per_year=12, base_seed=99)
    assert res.t_test.p_value < 0.001


# ---------------------------------------------------------------------------
# 12: CLI determinism


def test_12_cli_outputs_are_byte_deterministic(tmp_path):
    theta_flags = ["--sigma0", "0.08", "--rho", "-0.3", "--hurst", "0.2",
                   "--xi", "1.0", "--alpha", "1.0"]

    def run_everything(out, threads):
        out.mkdir()
        o = str(out)
        chain = str(out / "chain.csv")
        calib = str(out / "calibration.json")
        steps = [
            ["synth-chain", *theta_flags, "--spot", "100", "--strikes", "95,105",
             "--maturity-days", "30,91", "--path-count", "1200",
             "--steps-per-year", "12", "--seed", "9", "--rel-spread", "0.02",
             "--out", o],
            ["price", "--chain", chain, "--params", str(out / "chain.truth.json"),
             "--path-count", "500", "--steps-per-year", "12", "--seed", "1",
             "--out", o],
            ["calibrate", "--chain", chain, "--variant", "rBergomi",
             "--ga-population", "8", "--ga-generations", "1", "--path-count", "500",
             "--steps-per-year", "12", "--seed", "3", "--out", o],
            ["bootstrap", "--chain", chain, "--calibration", calib, "--samples", "8",
             "--path-count", "400", "--steps-per-year", "12", "--seed", "1",
             "--out", o],
            ["sensitivity", "--bootstrap", str(out / "bootstrap.json"), "--out", o],
            ["significance", "--chain", chain, "--full", calib, "--restricted", calib,
             "--repetitions", "3", "--path-count", "400", "--steps-per-year", "12",
             "--seed", "2", "--out", o],
            ["report", "--bootstrap", str(out / "bootstrap.json"),
             "--calibration", calib, "--sensitivity", str(out / "sensitivity.json"),
             "--significance", str(out / "significance.json"), "--out", o],
        ]
        for argv in steps:
            assert cli_main(argv + ["--threads", threads]) == 0, argv[0]

    run_everything(tmp_path / "a", "1")
    run_everything(tmp_path / "b", "1")
    run_everything(tmp_path / "c", "8")

    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "c").iterdir())
    assert len(names) >= 14  # every subcommand left its artifacts
    for name in names:
        a = (tmp_path / "a" / name).read_bytes()
        assert a == (tmp_path / "b" / name).read_bytes(), f"rerun differs: {name}"
        assert a == (tmp_path / "c" / name).read_bytes(), f"threads differ: {name}"
