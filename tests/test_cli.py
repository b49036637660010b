"""End-to-end CLI tests: the full artifact pipeline on a tiny synthetic chain,
flag/config/environment precedence, error reporting, and byte-stable reruns."""
import argparse
import csv
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from roughvol.cli import _atomic_path, _Settings, main
from roughvol.market import load_chain
from roughvol.model import PARAM_NAMES

TRUTH_FLAGS = ["--sigma0", "0.08", "--rho", "-0.3", "--hurst", "0.2",
               "--xi", "1.0", "--alpha", "1.0"]


def run_cli(argv):
    rc = main(argv)
    assert rc == 0, f"command failed: {argv}"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run synth-chain -> calibrate -> bootstrap -> sensitivity -> significance ->
    report once; the tests pick the artifacts apart."""
    root = tmp_path_factory.mktemp("cli")
    chain_csv = root / "chain.csv"

    run_cli(["synth-chain", *TRUTH_FLAGS, "--spot", "100", "--rate", "0.0",
             "--strikes", "95,100,105", "--maturity-days", "91",
             "--path-count", "2500", "--steps-per-year", "12", "--seed", "5",
             "--rel-spread", "0.02", "--threads", "1", "--out", str(root)])

    run_cli(["calibrate", "--chain", str(chain_csv), "--variant", "rBergomi",
             "--ga-population", "8", "--ga-generations", "1",
             "--path-count", "800", "--steps-per-year", "12", "--seed", "3",
             "--threads", "1", "--out", str(root)])

    run_cli(["bootstrap", "--chain", str(chain_csv),
             "--calibration", str(root / "calibration.json"), "--samples", "3",
             "--path-count", "600", "--steps-per-year", "12", "--seed", "1",
             "--threads", "1", "--out", str(root)])

    # sensitivity needs >= 8 samples; drive it from a hand-written bootstrap payload
    rng = np.random.default_rng(0)
    big = {"theta_samples": rng.uniform(0.1, 1.0, size=(24, 5)).tolist(),
           "arfv_samples": rng.uniform(0.0, 0.1, size=24).tolist()}
    (root / "bootstrap_big.json").write_text(json.dumps(big))
    run_cli(["sensitivity", "--bootstrap", str(root / "bootstrap_big.json"),
             "--out", str(root)])

    full = {"theta": dict(zip(PARAM_NAMES, [0.08, -0.3, 0.2, 1.0, 1.0]))}
    restricted = {"theta": dict(zip(PARAM_NAMES, [0.14, -0.3, 0.2, 1.0, 1.0]))}
    (root / "full.json").write_text(json.dumps(full))
    (root / "restricted.json").write_text(json.dumps(restricted))
    run_cli(["significance", "--chain", str(chain_csv),
             "--full", str(root / "full.json"),
             "--restricted", str(root / "restricted.json"),
             "--repetitions", "3", "--path-count", "500", "--steps-per-year", "12",
             "--seed", "2", "--threads", "1", "--out", str(root)])

    run_cli(["report", "--bootstrap", str(root / "bootstrap.json"),
             "--calibration", str(root / "calibration.json"),
             "--sensitivity", str(root / "sensitivity.json"),
             "--significance", str(root / "significance.json"), "--out", str(root)])
    return root


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# artifacts


def test_synth_chain_artifacts(pipeline):
    structure = load_chain(pipeline / "chain.csv")
    assert structure.n == 3
    assert structure.env.spot == 100.0
    truth = json.loads((pipeline / "chain.truth.json").read_text())
    assert truth["theta"]["H"] == 0.2
    assert truth["quote_count"] == 3
    assert truth["seed"] == 5


def test_price_artifacts(pipeline, tmp_path):
    run_cli(["price", "--chain", str(pipeline / "chain.csv"),
             "--params", str(pipeline / "chain.truth.json"),
             "--path-count", "1000", "--steps-per-year", "12", "--seed", "1",
             "--threads", "1", "--out", str(tmp_path)])
    header, rows = read_csv(tmp_path / "prices.csv")
    assert header == ["strike", "maturity", "price", "std_error", "path_count",
                      "estimator"]
    assert len(rows) == 3
    closes = load_chain(pipeline / "chain.csv").closes
    for row, close in zip(rows, closes):
        assert float(row[2]) > 0.0
        assert float(row[3]) > 0.0
        assert row[4] == "1000"
        assert row[5] == "conditional_mixed"
        # same truth, independent draws: prices land near the synthetic closes
        assert abs(float(row[2]) - close) < 0.6


def test_price_plain_estimator(pipeline, tmp_path):
    run_cli(["price", "--chain", str(pipeline / "chain.csv"),
             "--params", str(pipeline / "chain.truth.json"), "--estimator", "plain",
             "--path-count", "500", "--steps-per-year", "12", "--threads", "1",
             "--out", str(tmp_path)])
    _, rows = read_csv(tmp_path / "prices.csv")
    assert {row[5] for row in rows} == {"plain"}


def test_calibration_artifacts(pipeline):
    calib = json.loads((pipeline / "calibration.json").read_text())
    assert set(calib["theta"]) == set(PARAM_NAMES)
    assert calib["theta"]["alpha"] == 1.0
    assert calib["variant"] == "rBergomi"
    assert calib["trade_date"] == "2026-01-02"
    assert calib["settings"]["ga_population"] == 8
    assert {"aare", "mare", "arfv", "mrfv"} <= set(calib["metrics"])

    header, rows = read_csv(pipeline / "calibration_row.csv")
    assert header == ["day", "sigma0", "rho", "H", "xi", "alpha", "aare", "mare",
                      "wrss", "arfv"]
    (row,) = rows
    assert row[0] == "2026-01-02"
    assert float(row[1]) == calib["theta"]["sigma0"]
    assert row[6].endswith("%") and row[7].endswith("%") and row[9].endswith("%")
    assert float(row[8]) == calib["objective"]


def test_bootstrap_artifacts(pipeline):
    boot = json.loads((pipeline / "bootstrap.json").read_text())
    assert boot["sample_count"] == 3
    assert boot["base_seed"] == 1
    assert boot["failures"] == []
    assert len(boot["theta_samples"]) == 3
    assert set(boot["theta_hat"]) == set(PARAM_NAMES)
    calib = json.loads((pipeline / "calibration.json").read_text())
    assert boot["overall_theta"] == calib["theta"]

    header, rows = read_csv(pipeline / "bootstrap_options.csv")
    assert header == ["strike", "maturity", "bre", "v"]
    assert len(rows) == 3

    header, rows = read_csv(pipeline / "bootstrap_theta.csv")
    assert header == list(PARAM_NAMES)
    assert len(rows) == 3
    assert [float(x) for x in rows[0]] == boot["theta_samples"][0]

    scatter = (pipeline / "scatter_matrix.txt").read_text()
    assert scatter.startswith("# scatter-matrix data v1")


def test_sensitivity_artifacts(pipeline):
    sens = json.loads((pipeline / "sensitivity.json").read_text())
    assert sens["alpha_level"] == 0.05
    assert [r["parameter"] for r in sens["results"]] == list(PARAM_NAMES)
    header, rows = read_csv(pipeline / "sensitivity.csv")
    assert header == ["parameter", "statistic", "p_value", "reject"]
    assert len(rows) == 5


def test_significance_artifacts(pipeline):
    sig = json.loads((pipeline / "significance.json").read_text())
    assert sig["repetitions"] == 3
    assert len(sig["arfv_full"]) == 3
    assert sig["theta_full"]["sigma0"] == 0.08
    assert sig["theta_restricted"]["sigma0"] == 0.14
    assert 0.0 <= sig["p_value"] <= 1.0
    assert sig["mean_arfv_full"] < sig["mean_arfv_restricted"]


def test_report_contents(pipeline):
    text = (pipeline / "report.md").read_text()
    assert text.startswith("# Rough volatility calibration report")
    assert "## Calibration (2026-01-02, variant rBergomi)" in text
    assert "## Bootstrap robustness (3 samples)" in text
    assert "| Range | IQR | Std | Rel IQR Avg | Rel IQR Max |" in text
    assert "## Parameter sensitivity (alpha = 0.05)" in text
    assert "## Model significance" in text
    for name in PARAM_NAMES:
        assert f"| {name} |" in text
    # every percentage cell is rendered, none left as raw floats
    assert text.count("%") >= 10


# ---------------------------------------------------------------------------
# determinism


def test_bootstrap_rerun_is_byte_identical(pipeline, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out, threads in ((a, "1"), (b, "2")):
        run_cli(["bootstrap", "--chain", str(pipeline / "chain.csv"),
                 "--calibration", str(pipeline / "calibration.json"),
                 "--samples", "3", "--path-count", "600", "--steps-per-year", "12",
                 "--seed", "1", "--threads", threads, "--out", str(out)])
    for name in ("bootstrap.json", "bootstrap_options.csv", "bootstrap_theta.csv",
                 "scatter_matrix.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert (a / "bootstrap.json").read_bytes() == (
        pipeline / "bootstrap.json").read_bytes()


def test_calibrate_threads_byte_identical(pipeline, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out, threads in ((a, "1"), (b, "4")):
        run_cli(["calibrate", "--chain", str(pipeline / "chain.csv"),
                 "--variant", "rBergomi", "--ga-population", "8", "--ga-generations", "1",
                 "--path-count", "800", "--steps-per-year", "12", "--seed", "3",
                 "--threads", threads, "--out", str(out)])
    for name in ("calibration.json", "calibration_row.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
        assert (a / name).read_bytes() == (pipeline / name).read_bytes()


def test_artifact_writes_leave_no_tmp_files(pipeline, tmp_path):
    run_cli(["price", "--chain", str(pipeline / "chain.csv"),
             "--params", str(pipeline / "chain.truth.json"),
             "--path-count", "300", "--steps-per-year", "12", "--seed", "1",
             "--threads", "1", "--out", str(tmp_path)])
    # the pipeline directory holds the synth-chain, calibrate and bootstrap artifacts
    for out in (pipeline, tmp_path):
        assert not list(out.glob("*.tmp"))
    assert (pipeline / "scatter_matrix.txt").exists()


def test_atomic_path_deletes_tmp_file_on_failure(tmp_path):
    target = tmp_path / "out.txt"
    with pytest.raises(RuntimeError):
        with _atomic_path(target) as tmp:
            tmp.write_text("partial")
            raise RuntimeError("write failed")
    assert list(tmp_path.iterdir()) == []


def test_synth_chain_threads_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out, threads in ((a, "1"), (b, "4")):
        run_cli(["synth-chain", *TRUTH_FLAGS, "--spot", "100",
                 "--strikes", "95,105", "--maturity-days", "30",
                 "--path-count", "1200", "--steps-per-year", "12", "--seed", "9",
                 "--threads", threads, "--out", str(out)])
    assert (a / "chain.csv").read_bytes() == (b / "chain.csv").read_bytes()
    assert (a / "chain.json").read_bytes() == (b / "chain.json").read_bytes()


# ---------------------------------------------------------------------------
# configuration and failure modes


def test_config_file_supplies_all_inputs(tmp_path):
    config = {
        "theta": dict(zip(PARAM_NAMES, [0.08, -0.3, 0.2, 1.0, 1.0])),
        "spot": 100.0, "strikes": [95.0, 105.0], "maturity_days": [30],
        "path_count": 800, "steps_per_year": 12, "seed": 4, "threads": 1,
        "out": str(tmp_path / "cfg_out"), "name": "mychain",
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    run_cli(["synth-chain", "--config", str(cfg)])
    assert (tmp_path / "cfg_out" / "mychain.csv").exists()
    assert (tmp_path / "cfg_out" / "mychain.truth.json").exists()


def test_flag_beats_config(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"path_count": 999}))
    ns = argparse.Namespace(config=str(cfg), path_count=None, seed=None, threads=None)
    s = _Settings(ns)
    assert s.get("path_count") == 999
    ns.path_count = 500
    assert _Settings(ns).get("path_count") == 500


def test_missing_input_names_the_flag(tmp_path):
    s = _Settings(argparse.Namespace(config=None))
    with pytest.raises(ValueError, match="--maturity-days"):
        s.require("maturity_days")


def test_threads_resolution_order(monkeypatch, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"threads": 7}))
    monkeypatch.delenv("ROUGHVOL_THREADS", raising=False)
    assert _Settings(argparse.Namespace(config=str(cfg), threads=None)).threads == 7
    monkeypatch.setenv("ROUGHVOL_THREADS", "3")
    assert _Settings(argparse.Namespace(config=str(cfg), threads=None)).threads == 3
    assert _Settings(argparse.Namespace(config=str(cfg), threads=2)).threads == 2
    monkeypatch.delenv("ROUGHVOL_THREADS")
    got = _Settings(argparse.Namespace(config=None, threads=None)).threads
    assert got == max(1, os.cpu_count() or 1)


def test_missing_required_input_reports_json(tmp_path, capsys):
    rc = main(["price", "--out", str(tmp_path), "--threads", "1"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "chain" in err["message"]


@pytest.mark.parametrize("flag,value", [("--sigma0", "nan"), ("--xi", "inf")])
def test_non_finite_parameter_reports_json(pipeline, tmp_path, capsys, flag, value):
    argv = list(TRUTH_FLAGS)
    argv[argv.index(flag) + 1] = value
    rc = main(["price", "--chain", str(pipeline / "chain.csv"), *argv,
               "--path-count", "300", "--steps-per-year", "12", "--threads", "1",
               "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert flag.lstrip("-") in err["message"]
    assert not (tmp_path / "prices.csv").exists()


def test_missing_chain_file_reports_json(tmp_path, capsys):
    rc = main(["calibrate", "--chain", str(tmp_path / "nope.csv"),
               "--threads", "1", "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"


def test_small_bootstrap_rejects_sensitivity(pipeline, tmp_path, capsys):
    rc = main(["sensitivity", "--bootstrap", str(pipeline / "bootstrap.json"),
               "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "at least 8" in err["message"]


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "roughvol.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "synth-chain" in proc.stdout


def test_cli_import_leaves_out_scipy_stats_and_integrate():
    # importing them roughly doubles the start-up time of every command
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, roughvol.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.integrate') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
