"""Synthetic option chains from known parameters.

Used to exercise the calibration pipeline end to end with a known ground truth: the
chain's closes are model prices at ``truth`` computed with the variance-reduced
estimator at a high path count, and the bid/ask band is a symmetric relative spread
around the close. Maturities are specified in integer days so the ACT/365 year
fractions written to CSV round-trip exactly.
"""
from __future__ import annotations

import datetime as dt

from .market import DAYS_PER_YEAR, OptionQuote, OptionStructure, compute_weights
from .model import MarketEnv, ModelParams
from .pricing import price_chain

__all__ = ["generate_chain"]

_DEFAULT_TRADE_DATE = dt.date(2026, 1, 2)


def generate_chain(truth: ModelParams, env: MarketEnv, strikes, maturity_days,
                   *, steps_per_year: int = 252, path_count: int = 100_000,
                   seed: int = 0, rel_spread: float = 0.01,
                   trade_date: dt.date = _DEFAULT_TRADE_DATE,
                   threads: int = 1) -> OptionStructure:
    """Price the strike x maturity cross product at ``truth`` and wrap it as a chain.

    ``maturity_days`` are integer calendar-day offsets from the trade date: ``91.0``
    counts as 91, and ``91.7`` raises ValueError. ``rel_spread`` must lie in [0, 2], so
    that bid = close (1 - rel_spread / 2) is nonnegative. Every close must come out
    strictly positive (guaranteed for calls on a positive spot, barring a strike so
    deep out of the money that all sampled paths miss it — widen ``path_count`` or
    move the strike in that case). Every quote must pass `OptionQuote.validate`, the
    rule `load_chain` applies, so a chain that is returned can be written and read
    back; ValueError otherwise. The weights follow `compute_weights`' default rule;
    `write_chain` writes none, and `load_chain` computes them under the reader's.
    """
    strikes = [float(k) for k in strikes]
    days = []
    for d in maturity_days:
        if int(d) != d:
            raise ValueError(f"maturity_days must be whole days, got {d!r}")
        days.append(int(d))
    if not strikes or not days:
        raise ValueError("need at least one strike and one maturity")
    if any(d <= 0 for d in days):
        raise ValueError("maturity_days must be positive integers")
    if not 0.0 <= rel_spread <= 2.0:  # NaN fails too
        raise ValueError(
            f"rel_spread must be non-negative and at most 2, got {rel_spread}")
    if len(set(days)) != len(days):
        raise ValueError("duplicate maturities in maturity_days")

    options = [(k, d / DAYS_PER_YEAR) for d in sorted(days) for k in strikes]
    estimates = price_chain(options, env, truth, path_count, steps_per_year, seed,
                            threads=threads)

    half = 0.5 * rel_spread
    quotes = []
    for (strike, maturity), est in zip(options, estimates):
        close = est.price
        if close <= 0.0:
            raise ValueError(
                f"non-positive synthetic price {close} at strike {strike}, "
                f"maturity {maturity}; increase path_count or adjust strikes")
        quote = OptionQuote(strike=strike, maturity=maturity, bid=close * (1.0 - half),
                            ask=close * (1.0 + half), close=close, volume=None)
        problem = quote.validate()
        if problem:
            raise ValueError(f"synthetic quote at strike {strike}, maturity "
                             f"{maturity}: {problem}")
        quotes.append(quote)
    weights = compute_weights(quotes)
    return OptionStructure(quotes=tuple(quotes), env=env, trade_date=trade_date,
                           weights=weights)
