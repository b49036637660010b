"""Per-layer spans for one roughvol CLI call.

``install()`` wraps a fixed list of the package's functions and methods. A function
that other modules import with ``from .fbm import name`` is bound under that name in
each importing module too, so every module attribute that refers to the original
object is replaced, not only the one in the defining module. A target that no longer
exists raises at install time; ``Tracer.check_fired()`` raises when a span the
workload relies on never ran. Either way a refactor that renames or inlines a traced
function fails the traced run instead of reporting zeros.

Spans are kept in memory and turned into the per-layer metrics by
``Tracer.layer_metrics()`` once the call returns.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import time
import weakref
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def within(self, name: str) -> "Span | None":
        """The nearest enclosing span called ``name``, if any."""
        span = self.parent
        while span is not None and span.name != name:
            span = span.parent
        return span


def _theta_key(theta) -> tuple:
    values = theta.as_array() if hasattr(theta, "as_array") else theta
    return tuple(float(v) for v in values)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Records spans; the parent of a span is the innermost open span on its thread.

    Pool workers start with an empty stack. Their spans take as parent the innermost
    span open on the thread that installed the tracer, which is the thread that
    dispatched the pool in every roughvol entry point (GA generations, bootstrap
    samples, path blocks).
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._seen = weakref.WeakKeyDictionary()  # pricer -> thetas it has priced
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None)
            span = Span(name, time.perf_counter(), parent=parent)
            if before is not None:
                span.info.update(before(self, args, kwargs))
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = time.perf_counter()
                self.spans.append(span)
            if after is not None:
                span.info.update(after(result, args, kwargs))
            return result

        return traced

    # -- hooks that record what a span did -------------------------------------

    def _eval_repeat(self, args, kwargs) -> dict:
        pricer, key = args[0], _theta_key(_arg(args, kwargs, 1, "theta"))
        with self._lock:
            seen = self._seen.setdefault(pricer, set())
            repeat = key in seen
            seen.add(key)
        return {"repeat": repeat}

    # -- install ----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at its definition and at every module that imports it."""
        for name, module_name, attr, before, after in _TARGETS:
            module = importlib.import_module(module_name)
            owner, _, member = attr.rpartition(".")
            holder = getattr(module, owner) if owner else module
            original = getattr(holder, member, None)
            if original is None:
                raise RuntimeError(f"trace target {module_name}.{attr} no longer exists")
            wrapped = self.wrap(name, original, before, after)
            if owner:  # a method: the class object is shared by every importer
                setattr(holder, member, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "roughvol"
                                       or mod_name.startswith("roughvol.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def check_fired(self, required) -> None:
        fired = {s.name for s in self.spans}
        missing = sorted(set(required) - fired)
        if missing:
            raise RuntimeError("trace spans never fired: " + ", ".join(missing))

    # -- metrics ----------------------------------------------------------------

    def layer_metrics(self, threads: int) -> dict[str, float]:
        by_name: dict[str, list[Span]] = {}
        for span in self.spans:
            by_name.setdefault(span.name, []).append(span)

        def spans(name):
            return by_name.get(name, [])

        def busy(name):
            return sum(s.seconds for s in spans(name))

        cov, evals = spans("fbm.cov"), spans("calibration.eval")
        transform_gflop = sum(s.info.get("gflop", 0.0) for s in spans("fbm.transform"))
        ses = [se for s in spans("pricing.chain") for se in s.info.get("std_errors", [])]
        ga_gens = [s for s in spans("calibration.generation")
                   if s.within("calibration.ga")]
        refines = [s for s in spans("calibration.refine") if "nfev" in s.info]  # returned
        extra_calls = 0
        for refine in refines:
            calls = sum(1 for e in evals if e.within("calibration.refine") is refine)
            info = refine.info
            extra_calls += calls - info["nfev"] - info["njev"] * info["free"]
        samples = spans("bootstrap.sample")
        command_s = busy("cli.command")
        return {
            "cli.command_s": command_s,
            "market.load_chain_s": busy("market.load_chain"),
            "fbm.cov_calls": len(cov),
            "fbm.cov_s": busy("fbm.cov"),
            "fbm.cov_max_jitter": max((s.info.get("jitter", 0.0) for s in cov),
                                      default=0.0),
            "fbm.draw_calls": len(spans("fbm.draw")),
            "fbm.draw_s": busy("fbm.draw"),
            "fbm.sample_calls": len(spans("fbm.sample")),
            "fbm.sample_s": busy("fbm.sample"),
            "fbm.transform_calls": len(spans("fbm.transform")),
            "fbm.transform_s": busy("fbm.transform"),
            "fbm.transform_gflop": transform_gflop,
            "fbm.transform_gflop_per_s": (transform_gflop / busy("fbm.transform")
                                          if spans("fbm.transform") else 0.0),
            "model.vol_calls": len(spans("model.vol")),
            "model.vol_s": busy("model.vol"),
            "pricing.chain_calls": len(spans("pricing.chain")),
            "pricing.chain_s": busy("pricing.chain"),
            "pricing.mean_se": statistics.fmean(ses) if ses else 0.0,
            "calibration.pricer_init_s": busy("calibration.pricer_init"),
            "calibration.eval_calls": len(evals),
            "calibration.eval_s": busy("calibration.eval"),
            "calibration.eval_repeat_calls": sum(e.info["repeat"] for e in evals),
            "calibration.cov_builds_per_eval": (
                sum(1 for c in cov if c.within("calibration.eval")) / len(evals)
                if evals else 0.0),
            "calibration.ga_calls": sum(1 for e in evals if e.within("calibration.ga")),
            "calibration.ga_gen_s": (busy("calibration.ga") / len(ga_gens)
                                     if ga_gens else 0.0),
            "calibration.refine_s": busy("calibration.refine"),
            "calibration.ls_nfev": sum(s.info["nfev"] for s in refines),
            "calibration.ls_njev": sum(s.info["njev"] for s in refines),
            "calibration.ls_extra_calls": extra_calls,
            "bootstrap.samples": len(samples),
            "bootstrap.failures": sum(s.info.get("failures", 0)
                                      for s in spans("bootstrap.run")),
            "bootstrap.sample_s": (statistics.fmean(s.seconds for s in samples)
                                   if samples else 0.0),
            "bootstrap.parallel_eff": (sum(s.seconds for s in samples)
                                       / (threads * command_s) if samples else 0.0),
            "trace.spans": len(self.spans),
        }


def _cov_after(result, args, kwargs) -> dict:
    return {"jitter": float(result.jitter)}


def _transform_after(result, args, kwargs) -> dict:
    z, cov = _arg(args, kwargs, 0, "z"), _arg(args, kwargs, 2, "cov")
    return {"gflop": 2.0 * z.shape[0] * (2 * cov.grid.n) ** 2 / 1e9}


def _chain_after(result, args, kwargs) -> dict:
    return {"std_errors": [e.std_error for e in result]}


def _refine_after(result, args, kwargs) -> dict:
    local = result.iterations["local"]
    config = _arg(args, kwargs, 2, "config")
    return {"nfev": local["nfev"], "njev": local.get("njev", 0),
            "free": int(config.effective_bounds().free.sum())}


def _boot_after(result, args, kwargs) -> dict:
    return {"failures": len(result[1])}


#: (span name, defining module, attribute, before hook, after hook). The GA and the
#: bootstrap sample are private functions; they are the only places where one
#: generation and one resample are visible as a call.
_TARGETS = [
    ("cli.command", "roughvol.cli", "cmd_price", None, None),
    ("cli.command", "roughvol.cli", "cmd_calibrate", None, None),
    ("cli.command", "roughvol.cli", "cmd_bootstrap", None, None),
    ("market.load_chain", "roughvol.market", "load_chain", None, None),
    ("fbm.cov", "roughvol.fbm", "build_joint_covariance", None, _cov_after),
    ("fbm.draw", "roughvol.fbm", "draw_normal_bundle", None, None),
    ("fbm.sample", "roughvol.fbm", "sample_paths", None, None),
    ("fbm.transform", "roughvol.fbm", "transform_normals", None, _transform_after),
    ("model.vol", "roughvol.model", "volatility_paths", None, None),
    ("pricing.chain", "roughvol.pricing", "chain_estimates", None, _chain_after),
    ("calibration.pricer_init", "roughvol.calibration", "FrozenPricer.__init__",
     None, None),
    ("calibration.eval", "roughvol.calibration", "FrozenPricer.prices",
     Tracer._eval_repeat, None),
    ("calibration.ga", "roughvol.calibration", "_ga_minimize", None, None),
    ("calibration.generation", "roughvol.calibration", "_evaluate_all", None, None),
    ("calibration.refine", "roughvol.calibration", "local_refine", None, _refine_after),
    ("bootstrap.run", "roughvol.bootstrap", "run_bootcalibrations", None, _boot_after),
    ("bootstrap.sample", "roughvol.bootstrap", "_run_one", None, None),
]
