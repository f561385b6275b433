"""The summary of ``scripts/pairs.py``, on fixed numbers (no benchmark runs)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = [
    {"name": "run_s", "unit": "s", "better": "lower"},
    {"name": "records_per_s", "unit": "records/s", "better": "higher"},
    {"name": "network_bytes", "unit": "B", "better": "lower"},
    {"name": "missing", "unit": "s", "better": "lower"},
]


def _pairs(run_s, rate, net=100):
    return [
        ({"run_s": b, "records_per_s": rb, "network_bytes": net},
         {"run_s": c, "records_per_s": rc, "network_bytes": net})
        for (b, c), (rb, rc) in zip(run_s, rate)
    ]


def test_summary_judges_wins_by_each_metrics_direction():
    rows = pairs.summarize(METRICS, _pairs(
        run_s=[(1.0, 0.9), (2.0, 1.8), (3.0, 3.3), (4.0, 3.6), (5.0, 4.5)],
        rate=[(10, 11), (20, 22), (30, 27), (40, 44), (50, 50)],
    ))
    by_name = {r["name"]: r for r in rows}
    assert list(by_name) == ["run_s", "records_per_s", "network_bytes"]
    run_s = by_name["run_s"]
    assert run_s["base"] == (2.0, 3.0, 4.0)
    assert run_s["change"] == pytest.approx((1.8, 3.3, 3.6))
    assert run_s["relative"] == pytest.approx(0.1)
    assert (run_s["won"], run_s["tied"], run_s["pairs"]) == (4, 0, 5)
    rate = by_name["records_per_s"]
    assert (rate["won"], rate["tied"]) == (3, 1)
    net = by_name["network_bytes"]
    assert (net["won"], net["tied"], net["relative"]) == (0, 5, 0.0)


def test_summary_of_one_pair_uses_its_values_as_quartiles():
    (row,) = pairs.summarize(METRICS[:1], _pairs(run_s=[(2.0, 1.0)], rate=[(1, 1)]))
    assert row["base"] == (2.0, 2.0, 2.0)
    assert row["change"] == (1.0, 1.0, 1.0)
    assert (row["won"], row["relative"]) == (1, -0.5)
    assert "won 1/1, tied 0" in pairs.format_rows([row])[0]


def test_summary_of_no_pairs_is_empty():
    assert pairs.summarize(METRICS, []) == []


BOUNDED = [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "records_per_s", "unit": "records/s", "better": "higher", "bound": 0.25},
]


def _verdicts(run_s, rate):
    rows = pairs.summarize(BOUNDED, _pairs(run_s, rate))
    return {r["name"]: (r["claim"], r["beyond_bound"]) for r in rows}


def _unresolved(run_s, rate):
    rows = pairs.summarize(BOUNDED, _pairs(run_s, rate))
    return {r["name"]: r["unresolved"] for r in rows}


def test_claim_holds_on_nine_wins_and_a_drop_beyond_the_base_iqr():
    # base run_s 1.00..1.09: median 1.045, IQR 0.045; the change is 0.1 s
    # faster in nine pairs and slower in one
    base = [1.0 + i / 100 for i in range(10)]
    change = [b - 0.1 for b in base[:9]] + [base[9] + 0.1]
    rate = [(10, 10)] * 10
    assert _verdicts(list(zip(base, change)), rate) == {
        "run_s": (True, False), "records_per_s": (False, False),
    }
    # eight wins are not enough
    change[8] = base[8] + 0.1
    assert _verdicts(list(zip(base, change)), rate)["run_s"] == (False, False)


def test_claim_fails_when_the_drop_is_within_the_base_iqr():
    # ten wins of 0.01 s each against an IQR of 0.045 s
    base = [1.0 + i / 100 for i in range(10)]
    got = _verdicts([(b, b - 0.01) for b in base], [(10, 10)] * 10)
    assert got["run_s"] == (False, False)


def test_beyond_bound_when_the_median_is_worse_by_more_than_the_bound():
    base = [1.0] * 10
    rate = [(100, 100)] * 10
    # 30 % slower is beyond a 25 % bound, 20 % slower is not
    assert _verdicts([(b, 1.3) for b in base], rate)["run_s"] == (False, True)
    assert _verdicts([(b, 1.2) for b in base], rate)["run_s"] == (False, False)
    # a higher-is-better metric is worse when it falls
    got = _verdicts([(1.0, 1.0)] * 10, [(100, 70)] * 10)
    assert got["records_per_s"] == (False, True)
    got = _verdicts([(1.0, 1.0)] * 10, [(100, 130)] * 10)
    assert got["records_per_s"] == (True, False)


def test_a_metric_without_a_bound_is_never_beyond_it():
    (row,) = pairs.summarize(METRICS[:1], _pairs(run_s=[(1.0, 9.0)], rate=[(1, 1)]))
    assert (row["claim"], row["beyond_bound"]) == (False, False)
    line = pairs.format_rows([row])[0]
    assert "claim holds: no" in line and "beyond bound: no" in line


def test_unresolved_when_the_base_iqr_is_wider_than_the_bound():
    # base run_s 1.0, 1.5, ..., 5.5: median 3.25, IQR 2.25 against a bound
    # of 0.25 * 3.25 = 0.8125; the change is no better and no worse
    base = [1.0 + i / 2 for i in range(10)]
    rate = [(100, 100)] * 10
    assert _unresolved([(b, b) for b in base], rate) == {
        "run_s": True, "records_per_s": False,
    }
    # a tight base (IQR 0.045 against 0.26) resolves the same change
    tight = [1.0 + i / 100 for i in range(10)]
    assert _unresolved([(b, b) for b in tight], rate)["run_s"] is False


def test_spread_base_is_resolved_when_every_change_run_beats_every_base_run():
    base = [1.0 + i / 2 for i in range(10)]
    rate = [(100, 100)] * 10
    # every change run (at most 0.99 s) under the fastest base run (1.0 s)
    assert _unresolved([(b, 0.9 + i / 100) for i, b in enumerate(base)], rate)["run_s"] is False
    # one change run at 1.0 s ties the fastest base run: still unresolved
    got = _unresolved([(b, 1.0 if i == 9 else 0.9) for i, b in enumerate(base)], rate)
    assert got["run_s"] is True
    # higher is better: every change rate above every base rate
    spread = [(50 + 10 * i, 200 + i) for i in range(10)]
    assert _unresolved([(1.0, 1.0)] * 10, spread)["records_per_s"] is False
    assert _unresolved([(1.0, 1.0)] * 10, [(b, b) for b, _ in spread])["records_per_s"] is True


def test_format_prints_the_unresolved_verdict():
    (row,) = pairs.summarize(BOUNDED[:1], _pairs(
        run_s=[(1.0 + i / 2, 1.0 + i / 2) for i in range(10)], rate=[(1, 1)] * 10))
    assert pairs.format_rows([row])[0].endswith("unresolved: yes")
    (row,) = pairs.summarize(METRICS[:1], _pairs(run_s=[(1.0, 9.0)], rate=[(1, 1)]))
    assert row["unresolved"] is False
