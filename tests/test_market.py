"""Chain ingestion, validation, weight rules, and CSV round-trip tests."""
import datetime as dt
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from roughvol.market import (
    CSV_HEADER,
    ChainFormatError,
    OptionQuote,
    OptionStructure,
    compute_weights,
    json_field,
    json_kind,
    load_chain,
    write_chain,
)
from roughvol.model import MarketEnv

TRADE = dt.date(2026, 1, 2)


def make_quote(**kwargs):
    base = dict(strike=100.0, maturity=30 / 365, bid=4.9, ask=5.1, close=5.0, volume=12)
    base.update(kwargs)
    return OptionQuote(**base)


def make_structure(n=3):
    quotes = [make_quote(strike=90.0 + 10 * i, maturity=(30 + 30 * i) / 365,
                         volume=None if i % 2 else 7)
              for i in range(n)]
    return OptionStructure(quotes=quotes, env=MarketEnv(spot=100.0, rate=0.015),
                           trade_date=TRADE, weights=compute_weights(quotes))


def write_fixture(tmp_path, rows, spot=100.0, rate=0.01, day_count="ACT/365"):
    csv_path = tmp_path / "chain.csv"
    lines = [",".join(CSV_HEADER)] + [",".join(map(str, r)) for r in rows]
    csv_path.write_text("\n".join(lines) + "\n")
    (tmp_path / "chain.json").write_text(
        json.dumps({"spot": spot, "rate": rate, "day_count": day_count}))
    return csv_path


GOOD_ROW = ["2026-01-02", "2026-02-01", "100", "4.9", "5.1", "5.0", "12"]


# ---------------------------------------------------------------------------
# quotes and structures


def test_quote_validate_passes_clean_quote():
    assert make_quote().validate() is None


@pytest.mark.parametrize("kwargs,fragment", [
    (dict(strike=0.0), "strike"),
    (dict(maturity=0.0), "maturity"),
    (dict(bid=-0.5), "bid must be nonnegative"),
    (dict(bid=5.2), "exceeds ask"),
    (dict(close=0.0), "close"),
    *(({name: value}, name) for name in ("strike", "maturity", "bid", "ask", "close")
      for value in (float("nan"), float("inf"))),
])
def test_quote_validate_flags_violations(kwargs, fragment):
    assert fragment in make_quote(**kwargs).validate()


def test_structure_properties():
    s = make_structure()
    assert s.n == 3
    assert_allclose([q.strike for q in s.quotes], [90.0, 100.0, 110.0])
    assert_allclose(s.maturities, [30 / 365, 60 / 365, 90 / 365])
    assert_allclose(s.closes, [5.0, 5.0, 5.0])
    assert s.options == ((90.0, 30 / 365), (100.0, 60 / 365), (110.0, 90 / 365))


def test_structure_requires_matching_weights():
    quotes = [make_quote()]
    with pytest.raises(ValueError, match="one weight per quote"):
        OptionStructure(quotes=quotes, env=MarketEnv(spot=100.0), trade_date=TRADE,
                        weights=np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# weights


def test_weight_rules():
    quotes = [make_quote(bid=5.0 - h, ask=5.0 + h) for h in (0.25, 0.5, 0.125)]
    # spreads: 0.5, 1.0, 0.25
    assert_allclose(compute_weights(quotes, "inv_spread_sq"), [4.0, 1.0, 16.0])
    assert_allclose(compute_weights(quotes, "inv_spread_abs"), [2.0, 1.0, 4.0])
    assert_allclose(compute_weights(quotes, "inv_spread_sqrt"),
                    [2.0**0.5, 1.0, 2.0])


def test_unknown_weight_rule():
    with pytest.raises(ValueError, match="unknown weight rule"):
        compute_weights([make_quote()], "uniform")


def test_all_zero_spreads_fall_back_to_unit_weights():
    quotes = [make_quote(bid=5.0, ask=5.0) for _ in range(3)]
    with pytest.warns(UserWarning, match="unit weights"):
        assert_allclose(compute_weights(quotes), [1.0, 1.0, 1.0])


def test_partial_zero_spreads_are_capped():
    quotes = [make_quote(bid=5.0, ask=5.0)] + \
             [make_quote(bid=5.0 - h, ask=5.0 + h) for h in (0.25, 0.5)]
    with pytest.warns(UserWarning, match="capped"):
        w = compute_weights(quotes)
    # finite weights are 4 and 1; the zero-spread quote is capped at their 99th pct
    assert_allclose(w[1:], [4.0, 1.0])
    assert w[0] == pytest.approx(np.percentile([4.0, 1.0], 99))


def test_negative_spread_rejected():
    with pytest.raises(ValueError, match="negative spread"):
        compute_weights([OptionQuote(strike=1.0, maturity=1.0, bid=5.2, ask=5.0,
                                     close=5.1)])


# ---------------------------------------------------------------------------
# round trip


def test_write_load_round_trip(tmp_path):
    original = make_structure(n=5)
    csv_path = tmp_path / "rt.csv"
    write_chain(original, csv_path, sidecar=tmp_path / "rt.json")
    loaded = load_chain(csv_path)
    assert loaded.trade_date == original.trade_date
    assert loaded.env == original.env
    assert loaded.quotes == original.quotes
    assert_allclose(loaded.weights, original.weights)


def test_round_trip_preserves_full_float_precision(tmp_path):
    q = make_quote(bid=4.9123456789012345, ask=5.0987654321098765,
                   close=5.0055555555555555, volume=None)
    s = OptionStructure(quotes=[q], env=MarketEnv(spot=123.456), trade_date=TRADE,
                        weights=[1.0])
    write_chain(s, tmp_path / "p.csv", sidecar=tmp_path / "p.json")
    loaded = load_chain(tmp_path / "p.csv")
    assert loaded.quotes[0].bid == q.bid
    assert loaded.quotes[0].ask == q.ask
    assert loaded.quotes[0].close == q.close
    assert loaded.quotes[0].volume is None


def test_round_trip_row_order(tmp_path):
    # strikes deliberately unsorted; loading must keep file order
    quotes = [make_quote(strike=k) for k in (110.0, 90.0, 100.0)]
    s = OptionStructure(quotes=quotes, env=MarketEnv(spot=100.0), trade_date=TRADE,
                        weights=compute_weights(quotes))
    write_chain(s, tmp_path / "o.csv", sidecar=tmp_path / "o.json")
    assert_allclose([q.strike for q in load_chain(tmp_path / "o.csv").quotes],
                    [110.0, 90.0, 100.0])


# ---------------------------------------------------------------------------
# loading errors


def test_load_missing_files(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_chain(tmp_path / "nope.csv")
    csv_path = tmp_path / "chain.csv"
    csv_path.write_text(",".join(CSV_HEADER) + "\n")
    with pytest.raises(FileNotFoundError):
        load_chain(csv_path)  # sidecar missing


def test_load_rejects_wrong_header(tmp_path):
    csv_path = write_fixture(tmp_path, [GOOD_ROW])
    csv_path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ChainFormatError, match="header"):
        load_chain(csv_path)


def test_load_rejects_unknown_day_count(tmp_path):
    csv_path = write_fixture(tmp_path, [GOOD_ROW], day_count="ACT/360")
    with pytest.raises(ChainFormatError, match="day_count"):
        load_chain(csv_path)


def test_load_collects_all_bad_rows(tmp_path):
    rows = [
        GOOD_ROW,
        ["2026-01-02", "2026-02-01", "100", "5.2", "5.0", "5.0", ""],   # bid > ask
        ["2026-01-02", "2025-12-01", "100", "4.9", "5.1", "5.0", ""],   # expiry past
        ["2026-01-02", "not-a-date", "100", "4.9", "5.1", "5.0", ""],   # unparseable
        [*GOOD_ROW, "999"],                                             # extra field
        GOOD_ROW[:-1],                                                  # no volume field
    ]
    csv_path = write_fixture(tmp_path, rows)
    with pytest.raises(ChainFormatError) as exc_info:
        load_chain(csv_path)
    err = exc_info.value
    assert [i for i, _ in err.rows] == [1, 2, 3, 4, 5]
    assert "exceeds ask" in str(err)
    assert err.rows[3:] == [(4, "8 fields, expected 7"), (5, "6 fields, expected 7")]


def test_load_names_each_non_finite_row(tmp_path):
    rows = [
        GOOD_ROW,
        ["2026-01-02", "2026-02-01", "inf", "4.9", "5.1", "5.0", ""],
        ["2026-01-02", "2026-02-01", "100", "nan", "5.1", "5.0", ""],
        ["2026-01-02", "2026-02-01", "100", "4.9", "inf", "5.0", ""],
        ["2026-01-02", "2026-02-01", "100", "4.9", "5.1", "nan", ""],
    ]
    csv_path = write_fixture(tmp_path, rows)
    with pytest.raises(ChainFormatError) as exc_info:
        load_chain(csv_path)
    assert [(i, m.split()[0]) for i, m in exc_info.value.rows] == [
        (1, "strike"), (2, "bid"), (3, "ask"), (4, "close")]


def test_load_rejects_mixed_trade_dates(tmp_path):
    rows = [GOOD_ROW, ["2026-01-03", "2026-02-01", "100", "4.9", "5.1", "5.0", ""]]
    csv_path = write_fixture(tmp_path, rows)
    with pytest.raises(ChainFormatError, match="mixed trade dates"):
        load_chain(csv_path)


def test_load_rejects_empty_chain(tmp_path):
    csv_path = write_fixture(tmp_path, [])
    with pytest.raises(ChainFormatError, match="no quotes"):
        load_chain(csv_path)


def test_load_parses_maturity_act365(tmp_path):
    csv_path = write_fixture(tmp_path, [GOOD_ROW])
    s = load_chain(csv_path)
    assert s.quotes[0].maturity == pytest.approx(30 / 365, rel=1e-15)
    assert s.env.spot == 100.0
    assert s.env.rate == 0.01
    assert s.quotes[0].volume == 12


def test_load_applies_requested_weight_rule(tmp_path):
    csv_path = write_fixture(tmp_path, [GOOD_ROW])
    sq = load_chain(csv_path, weight_rule="inv_spread_sq")
    ab = load_chain(csv_path, weight_rule="inv_spread_abs")
    spread = 5.1 - 4.9
    assert sq.weights[0] == pytest.approx(1 / spread**2)
    assert ab.weights[0] == pytest.approx(1 / spread)


@pytest.mark.parametrize("value,kind,expected", [
    ("ACT/365", str, "ACT/365"),
    (100, float, 100.0),
    (0.5, float, 0.5),
    (3e2, int, 300),
    (7, int, 7),
    (False, bool, False),
    ({"a": 1}, dict, {"a": 1}),
    ([1, "x"], list, [1, "x"]),
    ([], np.ndarray, np.empty(0)),
    ([1, 2.5], np.ndarray, np.array([1.0, 2.5])),
    ([[1, 2], [3, 4.5]], np.ndarray, np.array([[1.0, 2.0], [3.0, 4.5]])),
])
def test_json_kind_accepts_its_kind(value, kind, expected):
    got = json_kind(value, kind, "f.json: 'k'")
    assert type(got) is kind
    if kind is np.ndarray:
        assert got.dtype == float and np.array_equal(got, expected)
        assert got.shape == expected.shape
    else:
        assert got == expected


@pytest.mark.parametrize("value,kind", [
    (5, str), ("0.1", float), (True, float), (None, float), (2.9, int), (True, int),
    (1, bool), ([], dict), ({}, list), ("1,2", np.ndarray), ([1, "2"], np.ndarray),
    ([1, True], np.ndarray), ([[1, 2], [3]], np.ndarray), ([1, [2]], np.ndarray),
    ([["0.5"]], np.ndarray),
])
def test_json_kind_rejects_other_kinds_naming_the_source(value, kind):
    with pytest.raises(ValueError, match=r"^f\.json: 'k' must be "):
        json_kind(value, kind, "f.json: 'k'")
    with pytest.raises(ChainFormatError):
        json_kind(value, kind, "f.json: 'k'", ChainFormatError)


def test_json_field_names_the_source_and_the_key():
    assert json_field({"spot": 100}, "spot", float, "s.json") == 100.0
    with pytest.raises(ValueError, match=r"^s\.json: no 'rate' key$"):
        json_field({"spot": 100}, "rate", float, "s.json")
    with pytest.raises(ChainFormatError, match=r"^s\.json: 'spot' must be float"):
        json_field({"spot": "100"}, "spot", float, "s.json", ChainFormatError)
