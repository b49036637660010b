"""Synthetic chain generation."""
import datetime as dt

import numpy as np
import pytest

from roughvol.market import compute_weights
from roughvol.model import MarketEnv, ModelParams
from roughvol import synth
from roughvol.pricing import PriceEstimate, price_chain
from roughvol.synth import generate_chain

TRUTH = ModelParams(sigma0=0.08, rho=-0.3, H=0.2, xi=1.0, alpha=1.0)
ENV = MarketEnv(spot=100.0, rate=0.01)


def make(**kwargs):
    base = dict(strikes=[95.0, 105.0], maturity_days=[91, 30],
                steps_per_year=12, path_count=1500, seed=7, rel_spread=0.02)
    base.update(kwargs)
    return generate_chain(TRUTH, ENV, **base)


def test_cross_product_layout_and_day_count():
    chain = make()
    assert chain.n == 4
    # maturities ascend (days are sorted), strikes keep their given order within each
    assert [q.maturity for q in chain.quotes] == [30 / 365, 30 / 365,
                                                  91 / 365, 91 / 365]
    assert [q.strike for q in chain.quotes] == [95.0, 105.0, 95.0, 105.0]
    assert chain.trade_date == dt.date(2026, 1, 2)
    assert chain.env == ENV


def test_quotes_match_direct_pricing():
    chain = make()
    direct = [e.price for e in price_chain(chain.options, ENV, TRUTH, path_count=1500,
                                           steps_per_year=12, seed=7)]
    assert [q.close for q in chain.quotes] == direct


def test_spread_brackets_close():
    chain = make(rel_spread=0.04)
    for q in chain.quotes:
        assert q.bid == q.close * 0.98
        assert q.ask == q.close * 1.02
        assert q.close > 0.0
    assert np.array_equal(chain.weights, compute_weights(chain.quotes))


def test_deterministic_in_seed():
    a, b, c = make(), make(), make(seed=8)
    assert [q.close for q in a.quotes] == [q.close for q in b.quotes]
    assert [q.close for q in a.quotes] != [q.close for q in c.quotes]


def test_custom_trade_date():
    chain = make(trade_date=dt.date(2025, 6, 30))
    assert chain.trade_date == dt.date(2025, 6, 30)


@pytest.mark.parametrize("kwargs,msg", [
    (dict(strikes=[]), "at least one"),
    (dict(maturity_days=[]), "at least one"),
    (dict(maturity_days=[0, 30]), "positive"),
    (dict(maturity_days=[30, 30]), "duplicate"),
    (dict(rel_spread=-0.01), "non-negative"),
])
def test_input_validation(kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        make(**kwargs)


@pytest.mark.parametrize("kwargs,msg", [
    (dict(strikes=[float("nan"), 100.0]), "strikes must be positive and finite"),
    (dict(strikes=[float("inf")]), "strikes must be positive and finite"),
    (dict(strikes=[0.0, 100.0]), "strikes must be positive and finite"),
    (dict(rel_spread=float("nan")), "rel_spread must be non-negative and at most 2"),
    (dict(rel_spread=float("inf")), "rel_spread must be non-negative and at most 2"),
    (dict(rel_spread=3.0), "rel_spread must be non-negative and at most 2"),
], ids=["nan-strike", "inf-strike", "zero-strike", "nan-spread", "inf-spread",
        "spread-above-2"])
def test_inputs_that_would_write_an_unreadable_chain_raise(kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        make(**kwargs)


def test_widest_spread_gives_a_zero_bid():
    chain = make(rel_spread=2.0)
    assert all(q.bid == 0.0 and q.validate() is None for q in chain.quotes)


def test_quotes_pass_the_load_chain_rule(monkeypatch):
    # a close that is not finite makes a quote that fails OptionQuote.validate, the
    # rule load_chain applies
    def priced(options, *args, **kwargs):
        return [PriceEstimate(price=float("inf"), std_error=0.0,
                              estimator="conditional_mixed", path_count=2)] * len(options)

    monkeypatch.setattr(synth, "price_chain", priced)
    with pytest.raises(ValueError, match="quote at strike 95.0.*finite, got inf"):
        make()


def test_fractional_maturity_day_raises():
    with pytest.raises(ValueError, match="91.7"):
        make(maturity_days=[30, 91.7])


def test_integral_maturity_days_of_any_type_give_one_chain():
    chains = [make(maturity_days=days)
              for days in ([91, 30], [91.0, 30.0], list(np.array([91, 30])))]
    for chain in chains[1:]:
        assert chain.options == chains[0].options
        assert [q.close for q in chain.quotes] == [q.close for q in chains[0].quotes]


def test_hopeless_strike_raises():
    # so far out of the money every path's value underflows to zero
    with pytest.raises(ValueError, match="non-positive synthetic price"):
        make(strikes=[1e6], maturity_days=[30], path_count=64)
