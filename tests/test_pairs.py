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
