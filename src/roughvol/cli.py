"""Batch command-line interface wiring the full pipeline.

Subcommands: ``synth-chain``, ``price``, ``calibrate``, ``bootstrap``,
``sensitivity``, ``significance``, ``report``. Every command reads its inputs from
flags and/or a ``--config`` JSON file (flags win; a key the command does not read is
refused), writes its declared artifacts into the ``--out`` directory atomically (temp
file + rename), and emits nothing non-deterministic: no timestamps, no environment
echoes, fixed float formatting. Two runs with the same inputs are byte-identical, at
any ``--threads`` value.

Failures print a machine-readable ``{"error": ..., "message": ...}`` JSON object to
stderr and exit with code 1 (argparse usage errors keep their conventional code 2).
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import datetime as dt
import inspect
import io
import json
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .bootstrap import (BootstrapPlan, bootstrap_statistics, export_scatter_matrix,
                        run_bootcalibrations)
from .calibration import (MODEL_VARIANTS, CalibrationConfig, ParamBounds, calibrate,
                          format_pct)
from .market import json_field, json_kind, load_chain, read_json_object, write_chain
from .model import PARAM_NAMES, MarketEnv, ModelParams
from .pricing import ESTIMATORS, price_chain
from .stats import sensitivity_analysis, significance_test
from .synth import generate_chain

__all__ = ["main", "build_parser"]

log = logging.getLogger("roughvol")

_LOG_LEVELS = ("debug", "info", "warning", "error")


# ---------------------------------------------------------------------------
# plumbing


@contextlib.contextmanager
def _atomic_path(path: Path):
    """Yield a temporary sibling of ``path`` to write; on success rename it over
    ``path``, on failure delete it."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)
    log.info("wrote %s", path)


def _atomic_write(path: Path, text: str) -> None:
    with _atomic_path(path) as tmp:
        tmp.write_text(text)


def _atomic_json(path: Path, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


#: the command-line flag of each parameter: its name, apart from --hurst for H
_THETA_FLAGS = {name: "--" + {"H": "hurst"}.get(name, name) for name in PARAM_NAMES}


def _param_block(block, source, kind: type = float, partial: bool = False) -> dict:
    """The entries of a parameter-keyed JSON block read from ``source``, checked.

    ``block`` must be a JSON object whose keys are parameter names, with a ``kind``
    value (`json_field`) for each parameter it names and, unless ``partial``, for
    every one. A name outside `PARAM_NAMES` raises ValueError naming ``source`` and
    the name. The values come back as written, in `PARAM_NAMES` order, so an integer
    stays one.
    """
    names = ", ".join(PARAM_NAMES)
    block = json_kind(block, dict, f"{source} (an object keyed by {names})")
    unknown = [name for name in block if name not in PARAM_NAMES]
    if unknown:
        raise ValueError(f"{source}: unknown parameter {', '.join(map(repr, unknown))}"
                         f" (the parameters are {names})")
    read = [name for name in PARAM_NAMES if name in block or not partial]
    for name in read:
        json_field(block, name, kind, source)
    return {name: block[name] for name in read}


def _fields(obj: dict, keys, kind: type, source) -> list:
    """The values of ``keys`` in the JSON object ``obj``, each a ``kind`` (`json_field`)."""
    return [json_field(obj, key, kind, source) for key in keys]


def _theta(calib: dict, path) -> ModelParams:
    """The model parameters of the ``theta`` block of ``calib``, read from ``path``."""
    return ModelParams(**_param_block(calib.get("theta"), f"{path}: 'theta' block"))


def _read_theta(path) -> ModelParams:
    """The model parameters of a calibration file's ``theta`` block."""
    return _theta(read_json_object(path), path)


def _default(fn, name: str):
    """The default that ``fn`` declares for its parameter ``name``; `inspect.signature`
    follows ``__wrapped__``, so a `functools.wraps` wrapper reports the original's."""
    return inspect.signature(fn).parameters[name].default


def _number_or_text(text: str):
    """The float that ``text`` spells, else ``text`` itself, which `json_kind` rejects."""
    try:
        return float(text)
    except ValueError:
        return text


#: the CLI defaults that no library signature declares: the base seed of the commands
#: that draw, the output directory and synth-chain's output basename
_SEED, _OUTDIR, _CHAIN_NAME = 0, ".", "chain"

#: namespace entries that no config file sets
_NOT_SETTINGS = frozenset({"config", "log_level", "command", "handler"})


class _Settings:
    """Flag/config merge, and the one place where a setting gets its type.

    A CLI flag that was given beats the config key. The value must have the setting's
    kind (`json_kind`), as a flag does from argparse: the default's type, the ``kind`` of
    a required read, or str (a path, a name, a date) for a read with neither.

    The config keys a command reads are its flag destinations, apart from
    `_NOT_SETTINGS`, plus its ``blocks`` (``theta``, ``bounds``). Where ``theta`` is
    read, the parameters belong in it, so their flag names are no keys. Any other key
    is refused before the command does any work.

    ``threads`` and ``seed`` are resolved and checked on construction (the flag, then
    the config, then the cores this process may run on or `_SEED`; a thread count
    below 1 or a negative seed raises ValueError naming its source), so each command
    refuses them before reading any other input.
    """

    def __init__(self, args: argparse.Namespace, blocks: tuple = ()):
        self.args = args
        self.config: dict = {}
        if getattr(args, "config", None):
            self.config = read_json_object(args.config)
            keys = (set(vars(args)) - _NOT_SETTINGS) | set(blocks)
            if "theta" in blocks:
                keys -= set(PARAM_NAMES)
            unread = sorted(set(self.config) - keys)
            if unread:
                raise ValueError(
                    f"{args.config}: keys this command does not read: "
                    f"{', '.join(map(repr, unread))} (it reads "
                    f"{', '.join(map(repr, sorted(keys)))})")
        value, source = self._lookup("threads")
        if value is None:  # every core this process may run on
            value = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)
        self.threads = json_kind(value, int, source)
        if self.threads < 1:
            raise ValueError(f"{source} must be at least 1, got {self.threads}")
        value, source = self._lookup("seed")
        self.seed = _SEED if value is None else json_kind(value, int, source)
        if self.seed < 0:
            raise ValueError(f"{source} must be non-negative, got {self.seed}")

    def _lookup(self, name: str):
        """(value, source): the flag if given, else the config value (None if absent)."""
        flag = getattr(self.args, name, None)
        if flag is not None:
            return flag, "flag --" + name.replace("_", "-")
        return self.config.get(name), f"{self.args.config}: {name!r}"

    def get(self, name: str, default=None):
        value, source = self._lookup(name)
        if value is None:
            return default
        return json_kind(value, str if default is None else type(default), source)

    def require(self, name: str, kind: type = str):
        value, source = self._lookup(name)
        if value is None:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"missing required input {name!r} (flag {flag} or config key)")
        return json_kind(value, kind, source)

    def numbers(self, name: str, kind: type) -> list:
        """The required comma-list setting ``name``, each entry a ``kind``: a flag or
        config comma string, or a config list."""
        value, source = self._lookup(name)
        if not isinstance(value, list):
            value = [_number_or_text(x) for x in self.require(name).split(",") if x.strip()]
        return [json_kind(x, kind, f"{source} entry") for x in value]

    @property
    def weight_rule(self) -> str:
        return self.get("weight_rule", _default(load_chain, "weight_rule"))

    @property
    def outdir(self) -> Path:
        out = Path(self.get("out", _OUTDIR))
        out.mkdir(parents=True, exist_ok=True)
        return out


def _resolve_theta(settings: _Settings) -> ModelParams:
    """Model parameters from the --params file (its 'theta' block, else the whole
    object), then the config 'theta' block, then the flags, each overriding the last."""
    params_file, config_file = settings.get("params"), settings.args.config
    data = read_json_object(params_file) if params_file else {}
    values: dict = {}
    for block, source in ((data.get("theta", data), params_file),
                          (settings.config.get("theta", {}), config_file)):
        values.update(_param_block(block, f"{source}: 'theta' block", partial=True))
    values.update((name, getattr(settings.args, name)) for name in PARAM_NAMES
                  if getattr(settings.args, name) is not None)
    missing = [n for n in PARAM_NAMES if n not in values]
    if missing:
        read = ", ".join(str(f) for f in (params_file, config_file) if f)
        flags = "/".join(_THETA_FLAGS.values())
        raise ValueError(
            f"model parameters missing: {', '.join(missing)}"
            + (f" (not in {read})" if read else "")
            + f"; pass {flags}, a config 'theta' block, or --params <file.json>")
    return ModelParams(**values)


def _resolve_bounds(settings: _Settings) -> ParamBounds:
    """The default bounds, each parameter named in the config's ``bounds`` object
    replaced by its [lower, upper] entry; an absent or null ``bounds`` keeps them all."""
    bounds = ParamBounds.default()
    overrides = settings.config.get("bounds")
    if overrides is None:
        return bounds
    source = f"{settings.args.config}: 'bounds'"
    lower, upper = bounds.lower.copy(), bounds.upper.copy()
    for name, pair in _param_block(overrides, source, np.ndarray, partial=True).items():
        if np.shape(pair) != (2,):
            raise ValueError(f"{source}: {name!r} must be [lower, upper], got {pair!r}")
        i = PARAM_NAMES.index(name)
        lower[i], upper[i] = pair
    try:
        return ParamBounds(lower=lower, upper=upper)
    except ValueError as exc:  # an inverted pair or one outside the model's domain
        raise ValueError(f"{source}: {exc}") from None


#: the `CalibrationConfig` fields that calibrate and bootstrap read from flags or config,
#: and that calibration.json records under 'settings'
_TUNED = ("ga_population", "ga_generations", "path_count", "steps_per_year")


def _calibration_config(args: argparse.Namespace) -> tuple:
    """The inputs of calibrate and bootstrap: (settings, `CalibrationConfig`, the chain
    loaded under --weight-rule). Each config setting defaults to, and takes the kind
    of, `CalibrationConfig`'s own."""
    settings = _Settings(args, ("bounds",))
    bounds = _resolve_bounds(settings)
    tuned = {name: settings.get(name, getattr(CalibrationConfig, name)) for name in _TUNED}
    variant = settings.get("variant", CalibrationConfig.model_variant)
    config = CalibrationConfig(bounds=bounds, seed=settings.seed, model_variant=variant,
                               threads=settings.threads, **tuned)
    structure = load_chain(settings.require("chain"), weight_rule=settings.weight_rule)
    return settings, config, structure


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth_chain(args: argparse.Namespace) -> int:
    settings = _Settings(args, ("theta",))
    theta = _resolve_theta(settings)
    env = MarketEnv(spot=settings.require("spot", float),
                    rate=settings.get("rate", MarketEnv.rate))
    strikes = settings.numbers("strikes", float)
    days = settings.numbers("maturity_days", int)
    trade_date = settings.get("trade_date")
    trade_date = (dt.date.fromisoformat(trade_date) if trade_date
                  else _default(generate_chain, "trade_date"))
    chain = {name: settings.get(name, _default(generate_chain, name))
             for name in ("rel_spread", "steps_per_year", "path_count")}
    structure = generate_chain(theta, env, strikes, days, **chain, seed=settings.seed,
                               trade_date=trade_date, threads=settings.threads)
    outdir = settings.outdir
    name = settings.get("name", _CHAIN_NAME)
    # the sidecar lands first: `load_chain` cannot read the CSV without it
    with (_atomic_path(outdir / f"{name}.csv") as tmp_csv,
          _atomic_path(outdir / f"{name}.json") as tmp_sidecar):
        write_chain(structure, tmp_csv, sidecar=tmp_sidecar)
    _atomic_json(outdir / f"{name}.truth.json", {
        "theta": asdict(theta), "spot": env.spot, "rate": env.rate,
        "seed": settings.seed, "rel_spread": chain["rel_spread"],
        "quote_count": structure.n,
    })
    return 0


def cmd_price(args: argparse.Namespace) -> int:
    settings = _Settings(args, ("theta",))
    structure = load_chain(settings.require("chain"))
    theta = _resolve_theta(settings)
    estimates = price_chain(
        structure.options, structure.env, theta,
        path_count=settings.get("path_count", 100_000),
        steps_per_year=settings.get("steps_per_year", 252),
        seed=settings.seed,
        estimator=settings.get("estimator", _default(price_chain, "estimator")),
        threads=settings.threads,
    )
    rows = [[repr(k), repr(t), repr(e.price), repr(e.std_error), str(e.path_count),
             e.estimator]
            for (k, t), e in zip(structure.options, estimates)]
    _atomic_write(settings.outdir / "prices.csv", _csv_text(
        ["strike", "maturity", "price", "std_error", "path_count", "estimator"], rows))
    return 0


_ROW_HEADER = ["day", *PARAM_NAMES, "aare", "mare", "wrss", "arfv"]


def cmd_calibrate(args: argparse.Namespace) -> int:
    settings, config, structure = _calibration_config(args)
    result = calibrate(structure, config)
    outdir = settings.outdir

    payload = asdict(result)
    payload["variant"] = config.model_variant
    payload["trade_date"] = structure.trade_date.isoformat()
    payload["settings"] = {name: getattr(config, name) for name in _TUNED}
    payload["settings"].update(weight_rule=settings.weight_rule, seed=config.seed)
    _atomic_json(outdir / "calibration.json", payload)

    m = result.metrics
    row = [structure.trade_date.isoformat()]
    row += [repr(v) for v in asdict(result.theta).values()]
    row += [format_pct(m.aare), format_pct(m.mare), repr(result.objective),
            format_pct(m.arfv)]
    _atomic_write(outdir / "calibration_row.csv", _csv_text(_ROW_HEADER, [row]))
    return 0


def cmd_bootstrap(args: argparse.Namespace) -> int:
    settings, config, structure = _calibration_config(args)
    overall = _read_theta(settings.require("calibration"))
    plan = BootstrapPlan(config=config,
                         sample_count=settings.get("samples", BootstrapPlan.sample_count),
                         base_seed=settings.seed)
    results, failures = run_bootcalibrations(structure, plan, overall)
    report = bootstrap_statistics(results, structure, failures)
    outdir = settings.outdir

    payload = report.to_dict()
    payload["overall_theta"] = asdict(overall)
    payload["sample_count"] = plan.sample_count
    payload["base_seed"] = plan.base_seed
    payload["failures"] = [[j, msg] for j, msg in failures]
    _atomic_json(outdir / "bootstrap.json", payload)

    option_rows = [[repr(q.strike), repr(q.maturity), repr(float(b)), repr(float(v))]
                   for q, b, v in zip(structure.quotes, report.bre, report.v)]
    _atomic_write(outdir / "bootstrap_options.csv",
                  _csv_text(["strike", "maturity", "bre", "v"], option_rows))

    theta_rows = [[repr(float(x)) for x in row] for row in report.theta_samples]
    _atomic_write(outdir / "bootstrap_theta.csv",
                  _csv_text(list(PARAM_NAMES), theta_rows))

    with _atomic_path(outdir / "scatter_matrix.txt") as tmp:
        export_scatter_matrix(report.theta_samples, overall.as_array(), tmp)
    return 0


def cmd_sensitivity(args: argparse.Namespace) -> int:
    settings = _Settings(args)
    bootstrap_file = settings.require("bootstrap")
    data = read_json_object(bootstrap_file)
    alpha = settings.get("alpha", _default(sensitivity_analysis, "alpha_level"))
    theta_samples, arfv_samples = _fields(data, ("theta_samples", "arfv_samples"),
                                          np.ndarray, bootstrap_file)
    results = sensitivity_analysis(theta_samples, arfv_samples, alpha_level=alpha)
    outdir = settings.outdir
    _atomic_json(outdir / "sensitivity.json",
                 {"alpha_level": alpha, "results": [r.to_dict() for r in results]})
    rows = [[r.parameter, repr(r.ks.statistic), repr(r.ks.p_value), str(r.reject)]
            for r in results]
    _atomic_write(outdir / "sensitivity.csv",
                  _csv_text(["parameter", "statistic", "p_value", "reject"], rows))
    return 0


def cmd_significance(args: argparse.Namespace) -> int:
    settings = _Settings(args)
    structure = load_chain(settings.require("chain"))
    theta_full = _read_theta(settings.require("full"))
    theta_restricted = _read_theta(settings.require("restricted"))
    counts = {name: settings.get(name, _default(significance_test, name))
              for name in ("repetitions", "path_count", "steps_per_year")}
    result = significance_test(structure, theta_full, theta_restricted, **counts,
                               base_seed=settings.seed, threads=settings.threads)
    payload = result.to_dict()
    payload["theta_full"] = asdict(theta_full)
    payload["theta_restricted"] = asdict(theta_restricted)
    _atomic_json(settings.outdir / "significance.json", payload)
    return 0


def _md_table(header: list[str], rows: list[list[str]]) -> list[str]:
    out = ["| " + " | ".join(header) + " |",
           "|" + "|".join(" --- " for _ in header) + "|"]
    out += ["| " + " | ".join(row) + " |" for row in rows]
    return out + [""]


def cmd_report(args: argparse.Namespace) -> int:
    settings = _Settings(args)
    bootstrap_file = settings.require("bootstrap")
    boot = read_json_object(bootstrap_file)
    lines = ["# Rough volatility calibration report", ""]

    calibration_file = settings.get("calibration")
    if calibration_file:
        calib = read_json_object(calibration_file)
        theta = _theta(calib, calibration_file)
        trade_date, variant = (json_kind(calib.get(key, "n/a"), str,
                                         f"{calibration_file}: {key!r}")
                               for key in ("trade_date", "variant"))
        lines += [f"## Calibration ({trade_date}, variant {variant})", ""]
        lines += _md_table(["parameter", "value"],
                           [[n, f"{v:.6g}"] for n, v in asdict(theta).items()])
        if calib.get("metrics"):
            m = json_field(calib, "metrics", dict, calibration_file)
            fit = _fields(m, ("aare", "mare", "arfv", "mrfv"), float, calibration_file)
            objective = json_field(calib, "objective", float, calibration_file)
            lines += _md_table(["AARE", "MARE", "ARFV", "MRFV", "WRSS"],
                               [[*map(format_pct, fit), f"{objective:.6g}"]])

    samples = json_field(boot, "aare_samples", np.ndarray, bootstrap_file)
    failures = json_kind(boot.get("failure_count", 0), int,
                         f"{bootstrap_file}: 'failure_count'")
    spread = _fields(json_field(boot, "boot_are", dict, bootstrap_file),
                     ("range", "iqr", "std"), float, bootstrap_file)
    spread += _fields(boot, ("rel_iqr_avg", "rel_iqr_max"), float, bootstrap_file)
    lines += [f"## Bootstrap robustness ({len(samples)} samples"
              + (f", {failures} failed" if failures else "") + ")", ""]
    lines += _md_table(["Range", "IQR", "Std", "Rel IQR Avg", "Rel IQR Max"],
                       [list(map(format_pct, spread))])
    lines.append("Boot-ARE columns summarize the spread of the per-sample average "
                 "relative errors; Rel IQR columns summarize the coefficient "
                 "interquartile ranges normalized by their averages.")
    lines.append("")
    means, rel_iqr = (_param_block(boot.get(key), f"{bootstrap_file}: {key!r}")
                      for key in ("theta_hat", "rel_iqr"))
    lines += _md_table(["parameter", "bootstrap mean", "Rel IQR"],
                       [[n, f"{means[n]:.6g}", format_pct(rel_iqr[n])]
                        for n in PARAM_NAMES])
    bre, v = _fields(boot, ("bre", "v"), np.ndarray, bootstrap_file)
    lines += _md_table(["mean BRE", "max BRE", "mean V", "max V"],
                       [[format_pct(bre.mean()), format_pct(bre.max()),
                         f"{v.mean():.3g}", f"{v.max():.3g}"]])

    sensitivity_file = settings.get("sensitivity")
    if sensitivity_file:
        sens = read_json_object(sensitivity_file)
        alpha = json_field(sens, "alpha_level", float, sensitivity_file)
        rows = []
        for r in json_field(sens, "results", list, sensitivity_file):
            r = json_kind(r, dict, f"{sensitivity_file}: 'results' entry")
            name = json_field(r, "parameter", str, sensitivity_file)
            statistic, p_value = _fields(r, ("statistic", "p_value"), float,
                                         sensitivity_file)
            reject = json_field(r, "reject", bool, sensitivity_file)
            rows.append([name, f"{statistic:.4f}", f"{p_value:.4g}",
                         "yes" if reject else "no"])
        lines += [f"## Parameter sensitivity (alpha = {alpha:g})", ""]
        lines += _md_table(["parameter", "D", "p-value", "reject"], rows)

    significance_file = settings.get("significance")
    if significance_file:
        t, dof, p_value, *arfv = _fields(
            read_json_object(significance_file),
            ("statistic", "dof", "p_value", "mean_arfv_full", "mean_arfv_restricted"),
            float, significance_file)
        lines += ["## Model significance", ""]
        lines += _md_table(
            ["t", "dof", "p-value", "mean ARFV (full)", "mean ARFV (restricted)"],
            [[f"{t:.4f}", f"{dof:.2f}", f"{p_value:.4g}", *map(format_pct, arfv)]])

    _atomic_write(settings.outdir / "report.md", "\n".join(lines).rstrip() + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file supplying defaults for this command")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker pool size (default: the cores this process may use)")
    parser.add_argument("--out", default=None,
                        help=f"output directory (default: {_OUTDIR})")
    parser.add_argument("--log-level", default="warning", choices=_LOG_LEVELS)


def _add_theta_flags(parser: argparse.ArgumentParser) -> None:
    for name, flag in _THETA_FLAGS.items():
        parser.add_argument(flag, type=float, default=None, dest=name)
    parser.add_argument("--params", default=None,
                        help="JSON file with a 'theta' block (e.g. a calibration output)")


def _add_path_flags(parser: argparse.ArgumentParser) -> None:
    """The flags of the five commands that draw paths; `sensitivity` and `report` draw
    nothing, so they take no --seed."""
    parser.add_argument("--seed", type=int, default=None,
                        help=f"base RNG seed (default {_SEED})")
    parser.add_argument("--path-count", type=int, default=None, dest="path_count")
    parser.add_argument("--steps-per-year", type=int, default=None, dest="steps_per_year")


def _add_calibration_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--variant", default=None, choices=list(MODEL_VARIANTS))
    _add_path_flags(parser)
    parser.add_argument("--weight-rule", default=None, dest="weight_rule")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roughvol",
        description="Rough Volterra volatility: simulation, pricing, calibration, "
                    "and robustness analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-chain", help="generate a synthetic option chain")
    _add_common(p)
    _add_theta_flags(p)
    p.add_argument("--spot", type=float, default=None)
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--strikes", default=None, help="comma-separated strikes")
    p.add_argument("--maturity-days", default=None, dest="maturity_days",
                   help="comma-separated integer day offsets")
    p.add_argument("--rel-spread", type=float, default=None, dest="rel_spread")
    _add_path_flags(p)
    p.add_argument("--trade-date", default=None, dest="trade_date")
    p.add_argument("--name", default=None,
                   help=f"output basename (default: {_CHAIN_NAME})")
    p.set_defaults(handler=cmd_synth_chain)

    p = sub.add_parser("price", help="price every quote in a chain at fixed parameters")
    _add_common(p)
    _add_theta_flags(p)
    p.add_argument("--chain", default=None, help="chain CSV (sidecar JSON alongside)")
    p.add_argument("--estimator", default=None, choices=list(ESTIMATORS))
    _add_path_flags(p)
    p.set_defaults(handler=cmd_price)

    p = sub.add_parser("calibrate", help="fit model parameters to a chain")
    _add_common(p)
    _add_calibration_flags(p)
    p.add_argument("--ga-population", type=int, default=None, dest="ga_population")
    p.add_argument("--ga-generations", type=int, default=None, dest="ga_generations")
    p.add_argument("--chain", default=None)
    p.set_defaults(handler=cmd_calibrate)

    p = sub.add_parser("bootstrap", help="bootstrap robustness analysis of a calibration")
    _add_common(p)
    _add_calibration_flags(p)
    p.add_argument("--chain", default=None)
    p.add_argument("--samples", type=int, default=None,
                   help="number of bootstrap resamples "
                        f"(default: {BootstrapPlan.sample_count})")
    p.add_argument("--calibration", default=None,
                   help="calibration.json of the overall fit (required): each resample "
                        "is refit locally from its 'theta' block")
    p.set_defaults(handler=cmd_bootstrap)

    p = sub.add_parser("sensitivity", help="per-parameter fit-sensitivity tests")
    _add_common(p)
    p.add_argument("--bootstrap", default=None, help="bootstrap.json from `bootstrap`")
    p.add_argument("--alpha", type=float, default=None,
                   help="rejection level "
                        f"(default: {_default(sensitivity_analysis, 'alpha_level')})")
    p.set_defaults(handler=cmd_sensitivity)

    p = sub.add_parser("significance", help="Welch test between two calibrated models")
    _add_common(p)
    p.add_argument("--chain", default=None)
    p.add_argument("--full", default=None, help="calibration.json of the full model")
    p.add_argument("--restricted", default=None,
                   help="calibration.json of the restricted model")
    p.add_argument("--repetitions", type=int, default=None)
    _add_path_flags(p)
    p.set_defaults(handler=cmd_significance)

    p = sub.add_parser("report", help="render a Markdown summary of prior artifacts")
    _add_common(p)
    p.add_argument("--bootstrap", default=None, help="bootstrap.json (required)")
    p.add_argument("--calibration", default=None)
    p.add_argument("--sensitivity", default=None)
    p.add_argument("--significance", default=None)
    p.set_defaults(handler=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the level goes on the package's logger, so it holds where the host has set up
    # the root logger before (basicConfig then adds no handler and sets no level)
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(getattr(logging, args.log_level.upper()))
    try:
        return args.handler(args)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not crashes
        log.debug("command failed", exc_info=True)
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)},
                         sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
