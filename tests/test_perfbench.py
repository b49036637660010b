"""The benchmark's per-layer tracer (perfbench/layers.py) wraps roughvol functions by
name. This runs it in a fresh interpreter over tiny CLI calls, so renaming or removing
a traced entry point, or changing the arguments its hooks read, fails here first."""
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

SCRIPT = r"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path("perfbench").resolve()))
from layers import _TARGETS, Tracer
import roughvol.cli as cli

out = Path(sys.argv[1])
tiny = ["--path-count", "300", "--steps-per-year", "12", "--threads", "1"]
assert cli.main(["synth-chain", "--sigma0", "0.08", "--rho", "-0.3", "--hurst", "0.2",
                 "--xi", "1.0", "--alpha", "1.0", "--spot", "100", "--strikes", "96,104",
                 "--maturity-days", "91,182", "--out", str(out), *tiny]) == 0
tracer = Tracer()
tracer.install()
chain, truth = str(out / "chain.csv"), str(out / "chain.truth.json")
assert cli.main(["price", "--chain", chain, "--params", truth, "--out", str(out / "p"),
                 *tiny]) == 0
assert cli.main(["calibrate", "--chain", chain, "--variant", "rBergomi",
                 "--ga-population", "4", "--ga-generations", "1", "--out", str(out / "c"),
                 *tiny]) == 0
assert cli.main(["bootstrap", "--chain", chain, "--calibration", truth, "--variant",
                 "rBergomi", "--samples", "2", "--out", str(out / "b"), *tiny]) == 0
tracer.check_fired({name for name, *_ in _TARGETS})
metrics = tracer.layer_metrics(threads=1)
assert metrics["fbm.transform_gflop"] > 0.0 and metrics["calibration.eval_calls"] > 0
"""


def test_tracer_installs_and_every_span_fires(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_smoke_run_passes():
    # every workload at toy scale, traced and untraced: output checks and metric
    # emission; it writes only under the work directory .perfbench/
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
