"""Option-chain ingestion, validation, and calibration weights.

CSV schema (header required): ``trade_date,expiry_date,strike,bid,ask,close,volume``
with ISO dates, plus a JSON sidecar carrying ``spot``, ``rate`` and ``day_count``.
Expiry dates are converted to ACT/365 year fractions at load time; ``close`` is the
market price the calibration targets. Weights default to the inverse squared bid-ask
spread.
"""
from __future__ import annotations

import csv
import datetime as dt
import json
import reprlib
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import MarketEnv

__all__ = [
    "OptionQuote",
    "OptionStructure",
    "ChainFormatError",
    "load_chain",
    "write_chain",
    "compute_weights",
    "json_kind",
    "json_field",
    "read_json_object",
]

CSV_HEADER = ["trade_date", "expiry_date", "strike", "bid", "ask", "close", "volume"]
DAYS_PER_YEAR = 365.0  # ACT/365

WEIGHT_RULES = {
    "inv_spread_sq": lambda s: 1.0 / s**2,
    "inv_spread_abs": lambda s: 1.0 / s,
    "inv_spread_sqrt": lambda s: 1.0 / np.sqrt(s),
}


class ChainFormatError(ValueError):
    """Malformed chain file; carries (row_index, message) diagnostics per bad row."""

    def __init__(self, message: str, rows: list[tuple[int, str]] | None = None):
        self.rows = rows or []
        detail = "; ".join(f"row {i}: {m}" for i, m in self.rows)
        super().__init__(f"{message}{': ' + detail if detail else ''}")


@dataclass(frozen=True)
class OptionQuote:
    strike: float
    maturity: float          # year fraction, ACT/365
    bid: float
    ask: float
    close: float             # market price the model is fit to
    volume: int | None = None

    def validate(self) -> str | None:
        """Return a violation message, or None when the quote is well formed.

        Every comparison is written so that it fails on NaN, which compares false.
        """
        if not 0.0 < self.strike < np.inf:
            return f"strike must be positive and finite, got {self.strike}"
        if not 0.0 < self.maturity < np.inf:
            return f"maturity must be positive and finite, got {self.maturity}"
        if not 0.0 <= self.bid < np.inf:
            return f"bid must be nonnegative and finite, got {self.bid}"
        if not self.ask < np.inf:
            return f"ask must be finite, got {self.ask}"
        if self.bid > self.ask:
            return f"bid {self.bid} exceeds ask {self.ask}"
        if not 0.0 < self.close < np.inf:
            return f"close must be positive and finite, got {self.close}"
        return None


@dataclass(eq=False)
class OptionStructure:
    """One trading day's quotes, environment, and calibration weights (row order kept)."""

    quotes: tuple
    env: MarketEnv
    trade_date: dt.date
    weights: np.ndarray

    def __post_init__(self):
        self.quotes = tuple(self.quotes)
        self.weights = np.asarray(self.weights, dtype=float)
        if len(self.quotes) != self.weights.size:
            raise ValueError("one weight per quote required")

    @property
    def n(self) -> int:
        return len(self.quotes)

    @property
    def maturities(self) -> np.ndarray:
        return np.array([q.maturity for q in self.quotes])

    @property
    def closes(self) -> np.ndarray:
        return np.array([q.close for q in self.quotes])

    @property
    def options(self) -> tuple:
        return tuple((q.strike, q.maturity) for q in self.quotes)


def compute_weights(quotes, rule: str = "inv_spread_sq") -> np.ndarray:
    """Per-quote calibration weights g(ask - bid) under the chosen rule.

    Zero spreads would produce infinite weights; they are capped at the 99th percentile
    of the finite weights in the chain (warning emitted). If every spread is zero — as
    in noiselessly generated synthetic chains — all weights fall back to 1.0.
    """
    if rule not in WEIGHT_RULES:
        raise ValueError(f"unknown weight rule {rule!r}, expected one of {sorted(WEIGHT_RULES)}")
    spreads = np.array([q.ask - q.bid for q in quotes], dtype=float)
    if np.any(spreads < 0.0):
        raise ValueError("negative spread encountered; validate quotes first")
    with np.errstate(divide="ignore"):
        weights = WEIGHT_RULES[rule](spreads)
    infinite = ~np.isfinite(weights)
    if np.all(infinite):
        warnings.warn("all spreads are zero; falling back to unit weights")
        return np.ones_like(weights)
    if np.any(infinite):
        cap = float(np.percentile(weights[~infinite], 99))
        warnings.warn(
            f"{int(infinite.sum())} zero-spread quote(s); weight capped at {cap:.6g}"
        )
        weights[infinite] = cap
    return weights


def _parse_row(row: dict, line: int) -> tuple[OptionQuote, dt.date] | str:
    # csv.DictReader files the fields beyond the header under the key None, and gives
    # each field that a short row lacks the value None
    extra, missing = row.get(None, ()), list(row.values()).count(None)
    if extra or missing:
        return f"{len(CSV_HEADER) + len(extra) - missing} fields, expected {len(CSV_HEADER)}"
    try:
        trade = dt.date.fromisoformat(row["trade_date"])
        expiry = dt.date.fromisoformat(row["expiry_date"])
        strike = float(row["strike"])
        bid = float(row["bid"])
        ask = float(row["ask"])
        close = float(row["close"])
        vol_raw = (row.get("volume") or "").strip()
        volume = int(vol_raw) if vol_raw else None
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparseable field ({exc})"
    if expiry <= trade:
        return f"expiry {expiry} not after trade date {trade}"
    maturity = (expiry - trade).days / DAYS_PER_YEAR
    quote = OptionQuote(strike=strike, maturity=maturity, bid=bid, ask=ask,
                        close=close, volume=volume)
    problem = quote.validate()
    if problem:
        return problem
    return quote, trade


def _is_json_number(value) -> bool:
    """Whether ``value`` is a JSON number as `json` loads it: an int or a float."""
    # type(), not isinstance: JSON true/false load as bool, a subclass of int
    return type(value) in (int, float)


def read_json_object(path, error: type[ValueError] = ValueError) -> dict:
    """The JSON object in the file ``path``; a file that holds no JSON, or JSON that is
    not an object, raises ``error`` naming the file."""
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise error(f"{path}: not a JSON file ({exc})") from None
    if not isinstance(data, dict):
        raise error(f"{path}: expected a JSON object")
    return data


def json_kind(value, kind: type, source, error: type[ValueError] = ValueError):
    """``value`` as a ``kind`` when it has that JSON kind; otherwise raises ``error``
    naming ``source``.

    The kinds: str (a string), float (a number, returned as a float), int (an integral
    number, ``3e2`` too, returned as an int), bool, dict (an object), list (an array),
    and np.ndarray (an array of numbers, or an array of equally long arrays of
    numbers, returned as a float array). A bool or a numeric string is no number.
    """
    if kind is np.ndarray:
        nested = type(value) is list and all(type(row) is list for row in value)
        rows = value if nested else [value]
        ok = (all(type(row) is list and all(map(_is_json_number, row)) for row in rows)
              and len({len(row) for row in rows}) <= 1)
    elif kind in (int, float):
        ok = _is_json_number(value) and (kind is float or type(value) is int
                                        or value.is_integer())
    else:
        ok = type(value) is kind
    if not ok:
        name = "an array of numbers" if kind is np.ndarray else kind.__name__
        raise error(f"{source} must be {name}, got {reprlib.repr(value)}")
    return np.array(value, dtype=float) if kind is np.ndarray else kind(value)


def json_field(obj: dict, key: str, kind: type, source,
               error: type[ValueError] = ValueError):
    """``obj[key]`` as a ``kind`` (`json_kind`), where ``obj`` is a JSON object read
    from ``source``; a missing key raises ``error`` ``"{source}: no 'key' key"``."""
    if key not in obj:
        raise error(f"{source}: no {key!r} key")
    return json_kind(obj[key], kind, f"{source}: {key!r}", error)


def load_chain(path, weight_rule: str = "inv_spread_sq") -> OptionStructure:
    """Load and validate a chain CSV plus its JSON sidecar (spot, rate, day_count).

    The sidecar is the chain path with a ``.json`` suffix: ``chain.csv`` reads
    ``chain.json``. All offending rows, rows with more or fewer fields than the header
    included, are reported together in one ChainFormatError; row order is preserved
    on success.
    """
    path = Path(path)
    sidecar = path.with_suffix(".json")
    if not path.exists():
        raise FileNotFoundError(path)
    if not sidecar.exists():
        raise FileNotFoundError(sidecar)
    meta = read_json_object(sidecar, error=ChainFormatError)
    day_count = json_kind(meta.get("day_count", "ACT/365"), str,
                          f"{sidecar}: 'day_count'", ChainFormatError).upper()
    if day_count != "ACT/365":
        raise ChainFormatError(f"unsupported day_count {day_count!r} (only ACT/365)")
    env = MarketEnv(spot=json_field(meta, "spot", float, sidecar, ChainFormatError),
                    rate=json_field(meta, "rate", float, sidecar, ChainFormatError))

    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_HEADER:
            raise ChainFormatError(
                f"malformed header {reader.fieldnames}, expected {CSV_HEADER}"
            )
        quotes, bad, trade_date = [], [], None
        for i, row in enumerate(reader):
            parsed = _parse_row(row, i)
            if isinstance(parsed, str):
                bad.append((i, parsed))
                continue
            quote, trade = parsed
            if trade_date is None:
                trade_date = trade
            elif trade != trade_date:
                bad.append((i, f"mixed trade dates {trade} vs {trade_date}"))
                continue
            quotes.append(quote)
    if bad:
        raise ChainFormatError(f"{len(bad)} invalid row(s) in {path}", rows=bad)
    if not quotes:
        raise ChainFormatError(f"no quotes in {path}")
    weights = compute_weights(quotes, rule=weight_rule)
    return OptionStructure(quotes=tuple(quotes), env=env, trade_date=trade_date,
                           weights=weights)


def write_chain(structure: OptionStructure, path, sidecar) -> None:
    """Write a structure back to the CSV schema (full float precision, repr-formatted)
    at ``path`` and its spot, rate and day count to the JSON ``sidecar``.

    Expiry dates are reconstructed from the ACT/365 year fractions, which is exact for
    chains whose maturities are integer day counts over 365. `load_chain` reads the
    sidecar next to the CSV, with its ``.json`` suffix.
    """
    path = Path(path)
    rows = []
    for q in structure.quotes:
        expiry = structure.trade_date + dt.timedelta(days=round(q.maturity * DAYS_PER_YEAR))
        rows.append([
            structure.trade_date.isoformat(), expiry.isoformat(),
            repr(q.strike), repr(q.bid), repr(q.ask), repr(q.close),
            "" if q.volume is None else str(q.volume),
        ])
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
    Path(sidecar).write_text(json.dumps(
        {"spot": structure.env.spot, "rate": structure.env.rate,
         "day_count": "ACT/365"}, indent=2, sort_keys=True) + "\n")
