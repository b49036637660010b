"""One roughvol CLI call in a fresh process, timed from the inside.

Usage: python3 perfbench/job.py SPEC.json

run.py starts this script once per operation with PYTHONPATH pointing at ``src``.
SPEC.json holds the argv for ``roughvol.cli.main``, the parent's CLOCK_MONOTONIC
reading taken just before the process was started, whether to trace, the spans that
must fire and where to write the result. The parent reads CPU time and peak RSS from
the process's exit status, so this script reports only what it alone can see: set-up
time (process start until ``roughvol.cli`` is imported), the wall time of ``main``
and, when traced, the per-layer metrics.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def _versions() -> dict:
    import numpy
    import scipy

    out = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        out["blas"] = "unknown"
    return out


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    import roughvol.cli

    setup_s = time.monotonic() - spec["spawned_at"]
    result_path = Path(spec["result"])
    tracer = None
    if spec["trace"]:
        from layers import Tracer

        tracer = Tracer()
        try:
            tracer.install()
        except RuntimeError as exc:
            result_path.write_text(json.dumps({"trace_error": str(exc)}))
            return 0

    start = time.perf_counter()
    rc = roughvol.cli.main(spec["argv"])
    wall_s = time.perf_counter() - start

    result = {"rc": rc, "setup_s": setup_s, "wall_s": wall_s, "versions": _versions()}
    if tracer is not None:
        try:
            tracer.check_fired(spec["required_spans"])
            result["layers"] = tracer.layer_metrics(spec["threads"])
        except RuntimeError as exc:
            result["trace_error"] = str(exc)
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
