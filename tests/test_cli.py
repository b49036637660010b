"""End-to-end CLI tests: the full artifact pipeline on a tiny synthetic chain,
flag/config precedence and library defaults, error reporting, and byte-stable reruns."""
import argparse
import csv
import json
import logging
import os
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest

from roughvol import bootstrap as boot_mod
from roughvol import calibration, cli, fbm, pricing, stats, synth
from roughvol.cli import _atomic_path, _Settings, build_parser, main
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


def test_conditional_artifacts_byte_identical_across_threads(pipeline, tmp_path):
    # an odd count of 2 * PATH_BLOCK + 1 pairs: three blocks of base draws, the last
    # one a single pair, so the threads price blocks in different orders
    chain, truth = str(pipeline / "chain.csv"), str(pipeline / "chain.truth.json")
    common = ["--path-count", str(4 * 4096 + 1), "--steps-per-year", "12", "--seed", "4"]
    commands = [
        (["price", "--chain", chain, "--params", truth], ("prices.csv",)),
        (["calibrate", "--chain", chain, "--variant", "rBergomi", "--ga-population", "4",
          "--ga-generations", "1"], ("calibration.json", "calibration_row.csv")),
        (["bootstrap", "--chain", chain, "--calibration", truth, "--variant", "rBergomi",
          "--samples", "2"], ("bootstrap.json", "bootstrap_options.csv",
                              "bootstrap_theta.csv", "scatter_matrix.txt")),
    ]
    runs = {}
    for label, threads in (("a", "1"), ("b", "1"), ("c", "2"), ("d", "4")):
        for argv, names in commands:
            out = tmp_path / label / argv[0]
            run_cli([*argv, *common, "--threads", threads, "--out", str(out)])
            for name in names:
                runs.setdefault(name, []).append((out / name).read_bytes())
    _, rows = read_csv(tmp_path / "a" / "price" / "prices.csv")
    assert {row[4] for row in rows} == {str(4 * 4096 + 2)}
    for name, contents in runs.items():
        assert len(set(contents)) == 1, name


def test_calibrate_artifacts_do_not_depend_on_the_log_level(pipeline, tmp_path, caplog):
    argv = ["calibrate", "--chain", str(pipeline / "chain.csv"), "--variant", "rBergomi",
            "--ga-population", "4", "--ga-generations", "1", "--path-count", "200",
            "--steps-per-year", "12", "--seed", "3", "--threads", "1"]
    run_cli([*argv, "--out", str(tmp_path / "quiet")])
    assert not [r for r in caplog.records if r.name == "roughvol.calibration"]
    with caplog.at_level(logging.INFO, logger="roughvol"):
        run_cli([*argv, "--log-level", "info", "--out", str(tmp_path / "info")])
    progress = [r.getMessage() for r in caplog.records if r.name == "roughvol.calibration"]
    assert [m.split(":")[0] for m in progress] == [
        "GA generation 0/1", "GA generation 1/1", "least squares done"]
    for name in ("calibration.json", "calibration_row.csv"):
        assert (tmp_path / "quiet" / name).read_bytes() == \
            (tmp_path / "info" / name).read_bytes(), name


def test_log_level_holds_when_the_root_logger_has_a_handler(pipeline, tmp_path):
    # a host that set up logging first makes basicConfig a no-op; --log-level still
    # reaches the host's handler, because it sets the level of the "roughvol" logger
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    root, package = logging.getLogger(), logging.getLogger("roughvol")
    level = package.level
    root.addHandler(handler)
    try:
        run_cli(["calibrate", "--chain", str(pipeline / "chain.csv"), "--variant",
                 "rBergomi", "--ga-population", "4", "--ga-generations", "1",
                 "--path-count", "200", "--steps-per-year", "12", "--seed", "3",
                 "--threads", "1", "--log-level", "info", "--out", str(tmp_path)])
    finally:
        root.removeHandler(handler)
        package.setLevel(level)
    progress = [r.getMessage() for r in records if r.name == "roughvol.calibration"]
    assert [m.split(":")[0] for m in progress] == [
        "GA generation 0/1", "GA generation 1/1", "least squares done"]


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
    assert s.get("path_count", 100_000) == 999
    ns.path_count = 500
    assert _Settings(ns).get("path_count", 100_000) == 500


def test_missing_input_names_the_flag(tmp_path):
    s = _Settings(argparse.Namespace(config=None))
    with pytest.raises(ValueError, match="--maturity-days"):
        s.require("maturity_days")


def test_threads_resolution_order(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"threads": 7}))
    assert _Settings(argparse.Namespace(config=str(cfg), threads=None)).threads == 7
    assert _Settings(argparse.Namespace(config=str(cfg), threads=2)).threads == 2
    got = _Settings(argparse.Namespace(config=None, threads=None)).threads
    assert got == len(os.sched_getaffinity(0))


def test_default_threads_count_the_cores_this_process_may_use(monkeypatch):
    # a job pinned to one core of a larger machine runs one thread
    default = argparse.Namespace(config=None, threads=None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _Settings(default).threads == 1
    # where the platform cannot say, every core counts
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _Settings(default).threads == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _Settings(default).threads == 3


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


def test_non_finite_quote_reports_json(tmp_path, capsys):
    chain = tmp_path / "chain.csv"
    chain.write_text("trade_date,expiry_date,strike,bid,ask,close,volume\n"
                     "2026-01-02,2026-04-03,100,nan,5.1,nan,500\n"
                     "2026-01-02,2026-04-03,inf,4.9,5.1,5.0,500\n")
    (tmp_path / "chain.json").write_text(json.dumps({"spot": 100.0, "rate": 0.0}))
    out = tmp_path / "out"
    rc = main(["price", "--chain", str(chain), *TRUTH_FLAGS, "--path-count", "300",
               "--steps-per-year", "12", "--threads", "1", "--out", str(out)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ChainFormatError"
    assert "row 0: bid" in err["message"] and "row 1: strike" in err["message"]
    assert not (out / "prices.csv").exists()


@pytest.mark.parametrize("meta,named", [({"rate": 0.0}, "'spot'"),
                                        ({"spot": 100.0}, "'rate'"),
                                        ({"spot": "abc", "rate": 0.0}, "'spot'"),
                                        ([100.0, 0.0], "JSON object")],
                         ids=["no-spot", "no-rate", "string-spot", "not-an-object"])
def test_malformed_sidecar_reports_json(tmp_path, capsys, meta, named):
    chain = tmp_path / "chain.csv"
    chain.write_text("trade_date,expiry_date,strike,bid,ask,close,volume\n"
                     "2026-01-02,2026-04-03,100,4.9,5.1,5.0,500\n")
    sidecar = tmp_path / "chain.json"
    sidecar.write_text(json.dumps(meta))
    out = tmp_path / "out"
    rc = main(["price", "--chain", str(chain), *TRUTH_FLAGS, "--path-count", "300",
               "--steps-per-year", "12", "--threads", "1", "--out", str(out)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ChainFormatError"
    assert named in err["message"] and str(sidecar) in err["message"]
    assert not (out / "prices.csv").exists()


def test_bootstrap_calibration_without_theta_reports_json(pipeline, tmp_path, capsys):
    calibration = tmp_path / "calibration.json"
    calibration.write_text(json.dumps({"objective": 0.1}))
    rc = main(["bootstrap", "--chain", str(pipeline / "chain.csv"),
               "--calibration", str(calibration), "--samples", "2", "--path-count", "200",
               "--steps-per-year", "12", "--threads", "1", "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "'theta'" in err["message"] and str(calibration) in err["message"]
    assert not (tmp_path / "bootstrap.json").exists()


def test_significance_theta_without_parameter_reports_json(pipeline, tmp_path, capsys):
    restricted = tmp_path / "restricted.json"
    restricted.write_text(json.dumps({"theta": {"sigma0": 0.14, "rho": -0.3, "xi": 1.0,
                                                "alpha": 1.0}}))
    rc = main(["significance", "--chain", str(pipeline / "chain.csv"),
               "--full", str(pipeline / "full.json"), "--restricted", str(restricted),
               "--repetitions", "2", "--path-count", "200", "--steps-per-year", "12",
               "--threads", "1", "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "'H'" in err["message"] and str(restricted) in err["message"]
    assert not (tmp_path / "significance.json").exists()


TRUTH_THETA = dict(zip(PARAM_NAMES, [0.08, -0.3, 0.2, 1.0, 1.0]))


def _run_theta_source(source, block, pipeline, tmp_path):
    """Run the command that reads ``block`` as a theta block from ``source``; return
    (exit code, the file holding the block, the artifact the command would write)."""
    chain, out = str(pipeline / "chain.csv"), tmp_path / "out"
    small = ["--path-count", "200", "--steps-per-year", "12", "--threads", "1",
             "--out", str(out)]
    path = tmp_path / "theta.json"
    path.write_text(json.dumps({"theta": block}))
    if source in ("price --params", "config theta"):
        flag = "--params" if source == "price --params" else "--config"
        argv, artifact = ["price", "--chain", chain, flag, str(path), *small], "prices.csv"
    elif source == "bootstrap --calibration":
        argv = ["bootstrap", "--chain", chain, "--calibration", str(path), "--samples", "2",
                *small]
        artifact = "bootstrap.json"
    else:
        argv = ["report", "--bootstrap", str(pipeline / "bootstrap.json"),
                "--calibration", str(path), "--out", str(out)]
        artifact = "report.md"
    return main(argv), path, out / artifact


THETA_SOURCES = ["price --params", "config theta", "bootstrap --calibration",
                 "report --calibration"]


@pytest.mark.parametrize("source", THETA_SOURCES)
@pytest.mark.parametrize("block,named", [
    ({**TRUTH_THETA, "H": "abc"}, "'H'"),
    ({**TRUTH_THETA, "H": "0.2"}, "'H'"),
    ({**TRUTH_THETA, "H": True}, "'H'"),
    (5, "'theta'"),
    ({n: v for n, v in TRUTH_THETA.items() if n != "H"}, "H"),
    ({**TRUTH_THETA, "hurst": 0.2}, "'hurst'"),
], ids=["string", "numeric-string", "bool", "not-an-object", "missing", "unknown-name"])
def test_bad_theta_block_reports_json(pipeline, tmp_path, capsys, source, block, named):
    rc, path, artifact = _run_theta_source(source, block, pipeline, tmp_path)
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert str(path) in err["message"]
    assert named in err["message"].replace(str(path), "")
    assert not artifact.exists()


@pytest.mark.parametrize("source", THETA_SOURCES)
def test_integer_theta_block_is_accepted(pipeline, tmp_path, source):
    block = {**TRUTH_THETA, "xi": 1, "alpha": 1}
    rc, _, artifact = _run_theta_source(source, block, pipeline, tmp_path)
    assert rc == 0 and artifact.exists()


def test_params_file_takes_a_bare_parameter_object(pipeline, tmp_path):
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(TRUTH_THETA))
    for params, out in ((pipeline / "chain.truth.json", tmp_path / "a"),
                        (bare, tmp_path / "b")):
        run_cli(["price", "--chain", str(pipeline / "chain.csv"), "--params", str(params),
                 "--path-count", "300", "--steps-per-year", "12", "--seed", "1",
                 "--threads", "1", "--out", str(out)])
    assert (tmp_path / "a" / "prices.csv").read_bytes() == (
        tmp_path / "b" / "prices.csv").read_bytes()


@pytest.mark.parametrize("source", ["params-bare", "significance-restricted", "bounds",
                                    "report-theta-hat", "report-rel-iqr"])
def test_unknown_parameter_name_reports_json(pipeline, tmp_path, capsys, source):
    # every parameter-keyed block refuses a name outside PARAM_NAMES, naming its file
    chain, out, path = str(pipeline / "chain.csv"), tmp_path / "out", tmp_path / "in.json"
    small = ["--path-count", "200", "--steps-per-year", "12", "--threads", "1"]
    if source == "params-bare":
        path.write_text(json.dumps({**TRUTH_THETA, "hurst": 0.2}))
        argv, artifact = ["price", "--chain", chain, "--params", str(path)], "prices.csv"
    elif source == "significance-restricted":
        path.write_text(json.dumps({"theta": {**TRUTH_THETA, "hurst": 0.2}}))
        argv = ["significance", "--chain", chain, "--full", str(pipeline / "full.json"),
                "--restricted", str(path), "--repetitions", "2"]
        artifact = "significance.json"
    elif source == "bounds":
        path.write_text(json.dumps({"bounds": {"sigma0": [0.05, 0.1],
                                               "hurst": [0.1, 0.2]}}))
        argv = ["calibrate", "--chain", chain, "--config", str(path),
                "--ga-population", "4", "--ga-generations", "1"]
        artifact = "calibration.json"
    else:
        boot = json.loads((pipeline / "bootstrap.json").read_text())
        boot["theta_hat" if source == "report-theta-hat" else "rel_iqr"]["hurst"] = 0.2
        path.write_text(json.dumps(boot))
        argv, artifact, small = ["report", "--bootstrap", str(path)], "report.md", []
    assert main([*argv, *small, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert str(path) in err["message"]
    assert "unknown parameter 'hurst'" in err["message"].replace(str(path), "")
    assert not (out / artifact).exists()


@pytest.mark.parametrize("command", ["price", "synth-chain"])
def test_theta_flags_set_the_parameters_in_order(command):
    # one flag per parameter, in PARAM_NAMES order; H's flag is spelt --hurst
    sub = build_parser()._subparsers._group_actions[0].choices[command]
    theta = [a for a in sub._actions if a.dest in PARAM_NAMES]
    assert [a.option_strings for a in theta] == [
        ["--sigma0"], ["--rho"], ["--hurst"], ["--xi"], ["--alpha"]]
    assert tuple(a.dest for a in theta) == PARAM_NAMES
    args = build_parser().parse_args([command, "--sigma0", "0.1", "--rho", "-0.2",
                                      "--hurst", "0.3", "--xi", "0.4", "--alpha", "0.5"])
    assert [getattr(args, name) for name in PARAM_NAMES] == [0.1, -0.2, 0.3, 0.4, 0.5]


def test_missing_parameters_name_their_flags(pipeline, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["price", "--chain", str(pipeline / "chain.csv"), "--sigma0", "0.1",
                 "--hurst", "0.2", "--threads", "1", "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message":
                   "model parameters missing: rho, xi, alpha; pass --sigma0/--rho/"
                   "--hurst/--xi/--alpha, a config 'theta' block, or --params "
                   "<file.json>"}
    assert not (out / "prices.csv").exists()


def test_report_calibration_without_theta_reports_json(pipeline, tmp_path, capsys):
    calibration = tmp_path / "calibration.json"
    calibration.write_text(json.dumps({"objective": 0.1}))
    rc = main(["report", "--bootstrap", str(pipeline / "bootstrap.json"),
               "--calibration", str(calibration), "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "'theta'" in err["message"] and str(calibration) in err["message"]
    assert not (tmp_path / "report.md").exists()


@pytest.mark.parametrize("command,artifact", [("sensitivity", "sensitivity.json"),
                                              ("report", "report.md")])
def test_bootstrap_input_of_the_wrong_kind_reports_json(pipeline, tmp_path, capsys,
                                                        command, artifact):
    # each command names the first bootstrap key it reads
    key = "'theta_samples'" if command == "sensitivity" else "'aare_samples'"
    wrong = pipeline / "calibration.json"
    rc = main([command, "--bootstrap", str(wrong), "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert key in err["message"] and str(wrong) in err["message"]
    assert not (tmp_path / artifact).exists()


def _run_small(command, pipeline, out, config=None, flags=None):
    """Run ``command`` at a tiny size on the pipeline's artifacts, with ``config`` (if
    any) as its --config file, whose keys drop the flags of the same name, and ``flags``
    overriding the rest (a None value drops the flag). Returns (exit code, the config
    path, the artifact written)."""
    argv = {"--path-count": "200", "--steps-per-year": "12", "--seed": "1",
            "--threads": "1", "--out": str(out)}
    if command == "synth-chain":
        argv |= dict(zip(TRUTH_FLAGS[::2], TRUTH_FLAGS[1::2]))
        argv |= {"--spot": "100", "--strikes": "95", "--maturity-days": "91"}
    else:
        argv["--chain"] = str(pipeline / "chain.csv")
    if command == "price":
        argv["--params"] = str(pipeline / "chain.truth.json")
    if command == "calibrate":
        argv |= {"--ga-population": "4", "--ga-generations": "1"}
    if command == "bootstrap":
        argv |= {"--calibration": str(pipeline / "calibration.json"), "--samples": "2"}
    path = out.parent / "config.json"
    if config is not None:
        path.write_text(json.dumps(config))
        argv["--config"] = str(path)
        for key in config:
            argv.pop("--" + key.replace("_", "-"), None)
    argv = {flag: value for flag, value in (argv | (flags or {})).items()
            if value is not None}
    artifact = {"synth-chain": "chain.csv", "price": "prices.csv",
                "calibrate": "calibration.json", "bootstrap": "bootstrap.json"}[command]
    return main([command, *(x for pair in argv.items() for x in pair)]), path, out / artifact


@pytest.mark.parametrize("command,config,flags,named", [
    ("calibrate", {"ga_population": 2.9}, None, "'ga_population'"),
    ("price", {"path_count": True}, None, "'path_count'"),
    ("price", {"path_count": "abc"}, None, "'path_count'"),
    ("bootstrap", {"samples": 2.9}, None, "'samples'"),
    ("synth-chain", {"maturity_days": [91.7]}, None, "'maturity_days'"),
    ("synth-chain", {"spot": "100"}, None, "'spot'"),
    ("synth-chain", None, {"--strikes": "96,abc"}, "--strikes"),
    ("price", {"seed": 2.5}, None, "'seed'"),
    ("price", {"threads": "two"}, None, "'threads'"),
], ids=["fractional-ga-population", "bool-path-count", "string-path-count",
        "fractional-samples", "fractional-maturity-day", "string-spot",
        "string-strike-flag", "fractional-seed", "string-threads"])
def test_bad_setting_reports_json(pipeline, tmp_path, capsys, command, config, flags,
                                  named):
    rc, path, artifact = _run_small(command, pipeline, tmp_path / "out", config, flags)
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert named in err["message"]
    if config is not None:
        assert str(path) in err["message"]
    assert not artifact.exists()


@pytest.mark.parametrize("command,config,key", [
    ("calibrate", {"obj_tol": 1e-6}, "obj_tol"),
    ("bootstrap", {"fd_rel_step": 1e-4}, "fd_rel_step"),
    ("bootstrap", {"ga_population": 4}, "ga_population"),
    ("price", {"weight_rule": "inv_spread_sq"}, "weight_rule"),
    ("synth-chain", {"weight_rule": "inv_spread_sq"}, "weight_rule"),
    ("price", {"path_cont": 5}, "path_cont"),
    ("price", {"H": 0.45}, "H"),
    ("synth-chain", {"bounds": {"H": [0.1, 0.2]}}, "bounds"),
    ("calibrate", {"theta": TRUTH_THETA}, "theta"),
], ids=["calibrate-obj-tol", "bootstrap-fd-rel-step", "bootstrap-ga-population",
        "price-weight-rule", "synth-chain-weight-rule", "price-misspelled",
        "price-top-level-parameter", "synth-chain-bounds", "calibrate-theta"])
def test_config_key_the_command_does_not_read_reports_json(pipeline, tmp_path, capsys,
                                                           command, config, key):
    rc, path, artifact = _run_small(command, pipeline, tmp_path / "out", config)
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert err["message"].startswith(f"{path}: keys this command does not read: {key!r} (")
    assert not artifact.parent.exists()


@pytest.mark.parametrize("command", ["synth-chain", "price", "calibrate", "bootstrap",
                                     "sensitivity", "significance", "report"])
def test_config_log_level_is_refused_before_any_work(tmp_path, capsys, command):
    # the config is read before the handler runs, so --log-level is a flag only
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"log_level": "info", "out": str(tmp_path / "out")}))
    assert main([command, "--config", str(cfg)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["message"].startswith(
        f"{cfg}: keys this command does not read: 'log_level' (")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,bootstrap", [("sensitivity", "bootstrap_big.json"),
                                               ("report", "bootstrap.json")])
def test_seed_config_key_is_refused_where_nothing_is_drawn(pipeline, tmp_path, capsys,
                                                           command, bootstrap):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"seed": 1, "bootstrap": str(pipeline / bootstrap),
                               "out": str(tmp_path / "out")}))
    assert main([command, "--config", str(cfg)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["message"].startswith(f"{cfg}: keys this command does not read: 'seed' (")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("width", [3, 7])
def test_sensitivity_on_another_parameter_width_reports_json(tmp_path, capsys, width):
    rng = np.random.default_rng(width)
    boot = tmp_path / "bootstrap.json"
    boot.write_text(json.dumps({"theta_samples": rng.uniform(size=(24, width)).tolist(),
                                "arfv_samples": rng.uniform(size=24).tolist()}))
    out = tmp_path / "out"
    assert main(["sensitivity", "--bootstrap", str(boot), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert err["message"].endswith(
        f"columns sigma0, rho, H, xi, alpha, got shape (24, {width})")
    assert not out.exists()


#: (config, flags, message) for a thread count below 1 from each source
THREADS_BELOW_ONE = pytest.mark.parametrize("config,flags,message", [
    (None, {"--threads": "-4"}, "flag --threads must be at least 1, got -4"),
    ({"threads": 0}, None, "{config}: 'threads' must be at least 1, got 0"),
], ids=["flag", "config-key"])


@THREADS_BELOW_ONE
def test_thread_count_below_one_reports_json(pipeline, tmp_path, capsys, config, flags,
                                             message):
    rc, path, artifact = _run_small("price", pipeline, tmp_path / "out", config, flags)
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": message.format(config=path)}
    assert not artifact.exists()


@pytest.mark.parametrize("command,bootstrap", [("sensitivity", "bootstrap_big.json"),
                                               ("report", "bootstrap.json")])
@THREADS_BELOW_ONE
def test_thread_count_below_one_reports_json_where_nothing_is_drawn(
        pipeline, tmp_path, capsys, command, bootstrap, config, flags, message):
    # sensitivity and report run on the calling thread, but refuse the same counts
    out, cfg = tmp_path / "out", tmp_path / "config.json"
    argv = [command, "--bootstrap", str(pipeline / bootstrap), "--out", str(out)]
    if config is not None:
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    for flag, value in (flags or {}).items():
        argv += [flag, value]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": message.format(config=cfg)}
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth-chain", "price", "calibrate", "bootstrap",
                                     "sensitivity", "significance", "report"])
@pytest.mark.parametrize("source", ["flag", "config-key"])
def test_thread_count_is_checked_before_any_other_input(tmp_path, capsys, command,
                                                        source):
    # no required input is given, so a command that read any before --threads would
    # report that input missing instead
    out, cfg = tmp_path / "out", tmp_path / "config.json"
    argv = [command, "--out", str(out)]
    if source == "flag":
        argv += ["--threads", "0"]
        message = "flag --threads must be at least 1, got 0"
    else:
        cfg.write_text(json.dumps({"threads": 0}))
        argv += ["--config", str(cfg)]
        message = f"{cfg}: 'threads' must be at least 1, got 0"
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError",
                                                   "message": message}
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth-chain", "price", "calibrate", "bootstrap",
                                     "significance"])
@pytest.mark.parametrize("source", ["flag", "config-key"])
def test_negative_seed_is_refused_before_any_other_input(tmp_path, capsys, command,
                                                        source):
    # the five commands that draw take a seed; with no required input given, a command
    # that read any before the seed would report that input missing instead
    out, cfg = tmp_path / "out", tmp_path / "config.json"
    argv = [command, "--out", str(out)]
    if source == "flag":
        argv += ["--seed=-1"]
        message = "flag --seed must be non-negative, got -1"
    else:
        cfg.write_text(json.dumps({"seed": -1}))
        argv += ["--config", str(cfg)]
        message = f"{cfg}: 'seed' must be non-negative, got -1"
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError",
                                                   "message": message}
    assert not out.exists()


def test_covariance_builds_get_threads_only_where_the_caller_is_serial(
        pipeline, tmp_path, monkeypatch):
    # --threads 2 splits the builds of price, synth-chain and significance; a build in
    # a GA generation, the least squares or a bootstrap worker gets 1, so no pool nests
    builds = []  # (threads received, called on the main thread)

    def recorder(grid, H, threads=1):
        builds.append((threads, threading.current_thread() is threading.main_thread()))
        return fbm.build_joint_covariance(grid, H, threads)

    for module in (pricing, stats, calibration):
        monkeypatch.setattr(module, "build_joint_covariance", recorder)

    def run(command):
        builds.clear()
        if command == "significance":
            thetas = []
            for name, H in (("full", 0.2), ("restricted", 0.3)):
                thetas += [f"--{name}", str(tmp_path / f"{name}.json")]
                (tmp_path / f"{name}.json").write_text(json.dumps(
                    {"theta": dict(zip(PARAM_NAMES, [0.08, -0.3, H, 1.0, 1.0]))}))
            assert main([command, "--chain", str(pipeline / "chain.csv"), *thetas,
                         "--repetitions", "2", "--path-count", "200",
                         "--steps-per-year", "12", "--threads", "2",
                         "--out", str(tmp_path / command)]) == 0
        else:
            rc, _, _ = _run_small(command, pipeline, tmp_path / command,
                                  flags={"--threads": "2"})
            assert rc == 0
        return list(builds)

    assert run("price") == [(2, True)]
    assert run("synth-chain") == [(2, True)]
    assert run("significance") == [(2, True), (2, True)]
    calibrate = run("calibrate")
    assert {threads for threads, _ in calibrate} == {1}
    # the GA's builds run in its pool, the least squares' on the main thread
    assert {main_thread for _, main_thread in calibrate} == {False, True}
    bootstrap = run("bootstrap")  # 2 samples, each a refit and a repricing
    assert len(bootstrap) >= 4 and set(bootstrap) == {(1, False)}


def test_sensitivity_reads_its_alpha_from_the_config(pipeline, tmp_path):
    # a top-level 'alpha' is refused where a theta block is read, not here
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"alpha": 0.1,
                               "bootstrap": str(pipeline / "bootstrap_big.json")}))
    run_cli(["sensitivity", "--config", str(cfg), "--out", str(tmp_path)])
    assert json.loads((tmp_path / "sensitivity.json").read_text())["alpha_level"] == 0.1


#: (command, a patch of the library default its omitted flag falls back to, the
#: artifact that records the setting, its key there, the patched value)
LIBRARY_DEFAULTS = [
    ("sensitivity",
     lambda mp: mp.setattr(stats.sensitivity_analysis, "__defaults__", (0.1,)),
     "sensitivity.json", "alpha_level", 0.1),
    ("bootstrap", lambda mp: mp.setattr(boot_mod.BootstrapPlan, "sample_count", 3),
     "bootstrap.json", "sample_count", 3),
    ("synth-chain",
     lambda mp: mp.setattr(synth.generate_chain, "__kwdefaults__",
                           {**synth.generate_chain.__kwdefaults__, "rel_spread": 0.03}),
     "chain.truth.json", "rel_spread", 0.03),
]


@pytest.mark.parametrize("command,patch,artifact,key,value", LIBRARY_DEFAULTS,
                         ids=["sensitivity-alpha", "bootstrap-samples",
                              "synth-chain-rel-spread"])
def test_omitted_flag_takes_the_library_default(pipeline, tmp_path, monkeypatch, command,
                                                patch, artifact, key, value):
    patch(monkeypatch)
    out = tmp_path / "out"
    if command == "sensitivity":
        run_cli(["sensitivity", "--bootstrap", str(pipeline / "bootstrap_big.json"),
                 "--out", str(out)])
    else:
        rc, _, _ = _run_small(command, pipeline, out, flags={"--samples": None})
        assert rc == 0
    assert json.loads((out / artifact).read_text())[key] == value


def test_help_prints_the_library_defaults(monkeypatch, capsys):
    monkeypatch.setattr(boot_mod.BootstrapPlan, "sample_count", 3)
    monkeypatch.setattr(stats.sensitivity_analysis, "__defaults__", (0.1,))
    for command, text in (("bootstrap", "resamples (default: 3)"),
                          ("sensitivity", "level (default: 0.1)")):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert text in capsys.readouterr().out


def test_help_and_omitted_flags_read_the_cli_defaults(tmp_path, monkeypatch, capsys):
    # the seed, output directory and basename defaults are each one constant
    monkeypatch.setattr(cli, "_SEED", 3)
    monkeypatch.setattr(cli, "_OUTDIR", "made")
    monkeypatch.setattr(cli, "_CHAIN_NAME", "mine")
    with pytest.raises(SystemExit):
        main(["synth-chain", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    for text in ("seed (default 3)", "directory (default: made)",
                 "basename (default: mine)"):
        assert text in help_text
    monkeypatch.chdir(tmp_path)
    run_cli(["synth-chain", *TRUTH_FLAGS, "--spot", "100", "--strikes", "95",
             "--maturity-days", "91", "--path-count", "200", "--steps-per-year", "12",
             "--threads", "1"])
    assert json.loads((tmp_path / "made" / "mine.truth.json").read_text())["seed"] == 3


def test_bootstrap_with_too_few_successes_names_the_first_failure(pipeline, tmp_path,
                                                                   capsys, monkeypatch):
    def run_one(structure, plan, overall, j):
        raise ValueError(f"singular refit at sample {j}")

    monkeypatch.setattr(boot_mod, "_run_one", run_one)
    rc, _, artifact = _run_small("bootstrap", pipeline, tmp_path / "out",
                                 flags={"--samples": "3"})
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message":
                   "bootstrap statistics need at least 2 successful samples; 3 of 3 "
                   "failed, the first (sample 0) with ValueError: singular refit at "
                   "sample 0"}
    assert not artifact.exists()


def test_valid_json_kinds_are_accepted(tmp_path):
    # JSON integers where the setting is a float, and an integral 3e2 where it is an
    # integer, read as the values they equal
    theta = json.dumps(TRUTH_THETA)
    texts = ['"spot": 100, "rel_spread": 0, "path_count": 3e2',
             '"spot": 100.0, "rel_spread": 0.0, "path_count": 300']
    outs = []
    for k, text in enumerate(texts):
        cfg = tmp_path / f"config{k}.json"
        cfg.write_text('{"theta": %s, "strikes": [95, 105], "maturity_days": "30", '
                       '"steps_per_year": 12, "threads": 1, %s}' % (theta, text))
        outs.append(tmp_path / f"out{k}")
        with pytest.warns(UserWarning, match="all spreads are zero"):
            run_cli(["synth-chain", "--config", str(cfg), "--out", str(outs[-1])])
    for name in ("chain.csv", "chain.json", "chain.truth.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    truth = json.loads((outs[0] / "chain.truth.json").read_text())
    assert truth["spot"] == 100.0 and truth["rel_spread"] == 0.0


@pytest.mark.parametrize("command,flag", [("synth-chain", "--config"),
                                          ("price", "--params"),
                                          ("bootstrap", "--calibration"),
                                          ("sensitivity", "--bootstrap")])
def test_input_that_is_not_json_reports_json(pipeline, tmp_path, capsys, command, flag):
    argv = [command, flag, os.devnull, "--out", str(tmp_path)]
    if command in ("price", "bootstrap"):
        argv += ["--chain", str(pipeline / "chain.csv"), "--threads", "1"]
    rc = main(argv)
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert err["message"].startswith(f"{os.devnull}: not a JSON file")
    assert list(tmp_path.iterdir()) == []


def test_truncated_sidecar_reports_json(pipeline, tmp_path, capsys):
    chain = tmp_path / "chain.csv"
    chain.write_bytes((pipeline / "chain.csv").read_bytes())
    sidecar = tmp_path / "chain.json"
    sidecar.write_text('{"spot": 100,')
    out = tmp_path / "out"
    rc = main(["price", "--chain", str(chain), *TRUTH_FLAGS, "--path-count", "200",
               "--steps-per-year", "12", "--threads", "1", "--out", str(out)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ChainFormatError"
    assert err["message"].startswith(f"{sidecar}: not a JSON file")
    assert not (out / "prices.csv").exists()


@pytest.mark.parametrize("flag,key", [("--sensitivity", "'alpha_level'"),
                                      ("--significance", "'statistic'"),
                                      ("--calibration", "'mare'")],
                         ids=["sensitivity", "significance", "calibration-metrics"])
def test_report_input_without_a_key_reports_json(pipeline, tmp_path, capsys, flag, key):
    calibration = json.loads((pipeline / "calibration.json").read_text())
    del calibration["metrics"]["mare"]
    wrong = tmp_path / "wrong.json"
    if flag == "--calibration":
        wrong.write_text(json.dumps(calibration))
    else:
        wrong.write_bytes((pipeline / "bootstrap.json").read_bytes())
    out = tmp_path / "out"
    rc = main(["report", "--bootstrap", str(pipeline / "bootstrap.json"), flag, str(wrong),
               "--out", str(out)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert err["message"] == f"{wrong}: no {key} key"
    assert not (out / "report.md").exists()


def _mistyped(pipeline, name, path, value):
    """The pipeline's ``name`` artifact with the value at ``path`` (keys and indices)
    replaced by ``value``."""
    data = json.loads((pipeline / name).read_text())
    *parents, last = path
    inner = data
    for key in parents:
        inner = inner[key]
    inner[last] = value
    return data


@pytest.mark.parametrize("flag,name,path,value,key", [
    ("--sensitivity", "sensitivity.json", ["alpha_level"], "0.05", "'alpha_level'"),
    ("--sensitivity", "sensitivity.json", ["results"], 5, "'results'"),
    ("--significance", "significance.json", ["statistic"], "1.0", "'statistic'"),
    ("--calibration", "calibration.json", ["metrics", "aare"], "0.1", "'aare'"),
    ("--bootstrap", "bootstrap.json", ["bre", 1], "0.01", "'bre'"),
    ("--bootstrap", "bootstrap.json", ["failure_count"], True, "'failure_count'"),
    ("sensitivity", None, None, None, "'theta_samples'"),
], ids=["sensitivity-string-alpha", "sensitivity-number-results",
        "significance-string-statistic", "calibration-string-aare",
        "bootstrap-string-bre", "bootstrap-bool-failure-count",
        "sensitivity-command-string-samples"])
def test_report_input_of_the_wrong_kind_reports_json(pipeline, tmp_path, capsys, flag,
                                                     name, path, value, key):
    wrong, out = tmp_path / "wrong.json", tmp_path / "out"
    if flag == "sensitivity":
        samples = np.full((12, 5), "0.5").tolist()
        wrong.write_text(json.dumps({"theta_samples": samples,
                                     "arfv_samples": [0.01] * 12}))
        argv, artifact = ["sensitivity", "--bootstrap", str(wrong)], "sensitivity.json"
    else:
        wrong.write_text(json.dumps(_mistyped(pipeline, name, path, value)))
        # a second --bootstrap overrides the first
        argv = ["report", "--bootstrap", str(pipeline / "bootstrap.json"), flag, str(wrong)]
        artifact = "report.md"
    rc = main([*argv, "--out", str(out)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert str(wrong) in err["message"]
    assert key in err["message"].replace(str(wrong), "")
    assert not (out / artifact).exists()


@pytest.mark.parametrize("bounds,named", [
    ({"sigma0": [0.05]}, "sigma0"), ({"sigma0": [0.05, 0.1, 7]}, "sigma0"),
    ({"sigma0": 0.05}, "sigma0"), ({"sigma0": [0.05, "0.1"]}, "sigma0"),
    ([[0.05, 0.1]], "sigma0"), ([], "sigma0"), (False, "sigma0"), (0, "sigma0"),
    ({"H": [0.3, 0.2]}, "H [0.3, 0.2]"), ({"H": [0.0, 0.2]}, "H must lie in (0, 1), got 0.0"),
], ids=["one", "three", "scalar", "string", "not-a-map", "empty-list", "false", "zero",
        "inverted", "outside-domain"])
def test_malformed_bounds_config_reports_json(pipeline, tmp_path, capsys, bounds, named):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"bounds": bounds}))
    rc = main(["calibrate", "--chain", str(pipeline / "chain.csv"), "--config", str(cfg),
               "--ga-population", "4", "--ga-generations", "1", "--path-count", "200",
               "--steps-per-year", "12", "--threads", "1", "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert named in err["message"] and "bounds" in err["message"]
    assert f"{cfg}: 'bounds'" in err["message"]  # the file and the key
    assert not (tmp_path / "calibration.json").exists()


def test_null_bounds_config_keeps_the_defaults(pipeline, tmp_path):
    # an absent or null setting means its default, for bounds as for every setting
    outs = []
    for k, config in enumerate(({"bounds": None}, {})):
        cfg = tmp_path / f"config{k}.json"
        cfg.write_text(json.dumps(config))
        outs.append(tmp_path / f"out{k}")
        run_cli(["calibrate", "--chain", str(pipeline / "chain.csv"),
                 "--config", str(cfg), "--ga-population", "4", "--ga-generations", "1",
                 "--path-count", "200", "--steps-per-year", "12", "--threads", "1",
                 "--out", str(outs[-1])])
    assert ((outs[0] / "calibration.json").read_bytes()
            == (outs[1] / "calibration.json").read_bytes())


def test_bounds_config_applies(pipeline, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"bounds": {"sigma0": [0.05, 0.1], "H": [0.1, 0.2]}}))
    run_cli(["calibrate", "--chain", str(pipeline / "chain.csv"), "--config", str(cfg),
             "--ga-population", "4", "--ga-generations", "1", "--path-count", "200",
             "--steps-per-year", "12", "--threads", "1", "--out", str(tmp_path)])
    theta = json.loads((tmp_path / "calibration.json").read_text())["theta"]
    assert 0.05 <= theta["sigma0"] <= 0.1
    assert 0.1 <= theta["H"] <= 0.2


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


@pytest.mark.parametrize("argv", [["significance", "--weight-rule", "inv_spread_abs"],
                                  ["bootstrap", "--ga-population", "4"],
                                  ["bootstrap", "--ga-generations", "1"],
                                  ["sensitivity", "--seed", "1"],
                                  ["report", "--seed", "1"]],
                         ids=["significance-weight-rule", "bootstrap-ga-population",
                              "bootstrap-ga-generations", "sensitivity-seed",
                              "report-seed"])
def test_flags_that_change_no_output_exit_two(argv):
    # weights reach only the calibration objective, bootstrap runs no genetic stage,
    # and sensitivity and report draw nothing
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_bootstrap_without_calibration_reports_json(pipeline, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["bootstrap", "--chain", str(pipeline / "chain.csv"), "--samples", "2",
               "--path-count", "200", "--steps-per-year", "12", "--threads", "1",
               "--out", str(out)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "missing required input 'calibration'" in err["message"]
    assert not out.exists()


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "roughvol.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "synth-chain" in proc.stdout


def test_cli_import_leaves_out_scipy_stats_and_integrate(pipeline, tmp_path):
    # importing them roughly doubles the start-up time of every command; scipy.optimize
    # is imported by the least-squares stage when it runs. scipy.linalg (about 66 ms
    # and 5 MB) stays out of `price` too, whose transform at 1008 steps per year runs
    # in two panels of numpy products
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["price", "--chain", str(pipeline / "chain.csv"),
            "--params", str(pipeline / "chain.truth.json"), "--path-count", "200",
            "--steps-per-year", "1008", "--threads", "1", "--out", str(tmp_path)]
    code = ("import json, sys, roughvol.cli\n"
            "names = ('scipy.stats', 'scipy.integrate', 'scipy.optimize', 'scipy.linalg')\n"
            "loaded = lambda: sorted(m for m in names if m in sys.modules)\n"
            "after_import = loaded()\n"
            f"rc = roughvol.cli.main({argv!r})\n"
            "print(json.dumps([after_import, rc, loaded()]))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    after_import, rc, after_price = json.loads(proc.stdout.strip().splitlines()[-1])
    assert after_import == [] and rc == 0
    assert after_price == []
    assert (tmp_path / "prices.csv").exists()


@pytest.mark.parametrize("flags,msg", [
    (["--strikes", "nan,100"], "strikes must be positive and finite, got nan"),
    (["--strikes", "100", "--rel-spread", "3"], "rel_spread must be non-negative"),
    (["--strikes", "100", "--rel-spread", "nan"], "rel_spread must be non-negative"),
], ids=["nan-strike", "spread-above-2", "nan-spread"])
def test_synth_chain_refuses_a_chain_price_would_refuse(tmp_path, capsys, flags, msg):
    out = tmp_path / "out"
    rc = main(["synth-chain", *TRUTH_FLAGS, "--spot", "100", "--maturity-days", "30",
               *flags, "--path-count", "200", "--steps-per-year", "12", "--threads", "1",
               "--out", str(out)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and msg in err["message"]
    assert not any(out.glob("*"))


def test_zero_path_count_is_one_error_for_price_and_significance(pipeline, tmp_path,
                                                                 capsys):
    chain = str(pipeline / "chain.csv")
    errors = []
    for command in (["price", "--params", str(pipeline / "chain.truth.json")],
                    ["significance", "--full", str(pipeline / "full.json"),
                     "--restricted", str(pipeline / "restricted.json"),
                     "--repetitions", "2"]):
        rc = main([*command, "--chain", chain, "--path-count", "0",
                   "--steps-per-year", "12", "--threads", "1", "--out", str(tmp_path)])
        assert rc == 1
        errors.append(json.loads(capsys.readouterr().err))
    assert errors[0] == errors[1] == {"error": "ValueError",
                                      "message": "path_count must be >= 1"}
    assert list(tmp_path.iterdir()) == []
