"""Compare two checkouts on one perfbench workload in alternating pairs.

Run from anywhere, with two trees that each hold ``perfbench/run.py``:

    python3 scripts/pairs.py BASE CHANGE --workload pagerank --pairs 6 --seed 41 --seconds 8

Pair i runs ``python3 perfbench/run.py --workload W --seed S+i --seconds N``
once in each tree, both with the same seed; the tree that goes first
flips every pair, so a drift in host speed falls on both sides alike.
Each run's last line of standard output is its JSON result.  For every
end-to-end metric that ``CHANGE/BENCHMARK.json`` lists, the summary gives
each side's median [q1, q3] over the pairs and how many pairs the change
won (strictly better by that metric's ``better``) or tied, with three
verdicts:

* ``claim holds``: the change won at least 9 in 10 of the pairs, and
  its median is better than the base's by more than the base's
  interquartile range;
* ``beyond bound``: the change's median is worse than the base's by
  more than the metric's ``bound`` (a fraction of the base's median);
* ``unresolved``: the base's interquartile range is wider than the
  metric's ``bound``, so its runs spread too widely to tell a change
  within the bound from none, unless every change run is better than
  every base run.

The exit code is 1 if any run exited non-zero, printed no result or
reported ``correct: false``.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(metrics: list[dict], pairs: list[tuple[dict, dict]]) -> list[dict]:
    """One row per metric that every run reported.

    ``metrics`` are ``BENCHMARK.json`` entries (``name``, ``unit``,
    ``better``, optionally ``bound``); ``pairs`` are ``(base, change)``
    maps of metric name to value, one per pair.  A row holds each side's
    ``(q1, median, q3)``, the change's median relative to the base's,
    the pairs the change won and tied, and the three verdicts (``claim``,
    ``beyond_bound``, ``unresolved``; a metric without a bound is never
    beyond it or unresolved).
    """
    rows = []
    for metric in metrics:
        name = metric["name"]
        if not pairs or any(name not in b or name not in c for b, c in pairs):
            continue
        base = [b[name] for b, _ in pairs]
        change = [c[name] for _, c in pairs]
        sign = -1 if metric["better"] == "lower" else 1
        won = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        tied = sum(c == b for b, c in zip(base, change))
        base_q, change_q = quartiles(base), quartiles(change)
        # how far the change's median is better than the base's
        gain = sign * (change_q[1] - base_q[1])
        bound = metric.get("bound")
        # every change run better than every base run
        apart = max(change) < min(base) if sign < 0 else min(change) > max(base)
        rows.append({
            "name": name,
            "unit": metric["unit"],
            "base": base_q,
            "change": change_q,
            "relative": change_q[1] / base_q[1] - 1 if base_q[1] else 0.0,
            "won": won,
            "tied": tied,
            "pairs": len(pairs),
            "claim": 10 * won >= 9 * len(pairs) and gain > base_q[2] - base_q[0],
            "beyond_bound": bound is not None and -gain > bound * abs(base_q[1]),
            "unresolved": (bound is not None and not apart
                           and base_q[2] - base_q[0] > bound * abs(base_q[1])),
        })
    return rows


def format_rows(rows: list[dict]) -> list[str]:
    """One aligned line per row: name, base -> change, unit, relative,
    wins and the three verdicts."""
    def side(q):
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    def yes(flag):
        return "yes" if flag else "no"

    cells = [
        (r["name"], side(r["base"]), side(r["change"]), r["unit"],
         f"{100 * r['relative']:+.1f} %", f"won {r['won']}/{r['pairs']}, tied {r['tied']};",
         f"claim holds: {yes(r['claim'])};", f"beyond bound: {yes(r['beyond_bound'])};",
         f"unresolved: {yes(r['unresolved'])}")
        for r in rows
    ]
    widths = [max(map(len, column)) for column in zip(*cells)]
    return [
        "  " + " ".join(cell.ljust(w) for cell, w in zip(line[:2], widths))
        + " -> " + " ".join(cell.ljust(w) for cell, w in zip(line[2:], widths[2:])).rstrip()
        for line in cells
    ]


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> tuple[dict | None, str]:
    """One ``perfbench/run.py`` run in ``tree``: its JSON result, or an error."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        return None, f"exit {proc.returncode}, no result"
    if proc.returncode != 0 or not result.get("correct"):
        return None, f"exit {proc.returncode}, correct={result.get('correct')}"
    return {name: m["value"] for name, m in result["metrics"].items()}, ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args(argv)
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]

    pairs = []
    failed = False
    for i in range(args.pairs):
        seed = args.seed + i
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        got = {}
        for side in order:
            got[side], error = run_once(getattr(args, side), args.workload, seed, args.seconds)
            if error:
                print(f"pair {i} seed {seed}: {side} run failed: {error}")
                failed = True
        if got["base"] is not None and got["change"] is not None:
            pairs.append((got["base"], got["change"]))
            print(f"pair {i} seed {seed} ({order[0]} first): run_s "
                  f"{got['base'].get('run_s')} -> {got['change'].get('run_s')}", flush=True)

    print(f"{args.workload}: {len(pairs)} pairs, base {args.base} -> change {args.change}; "
          "median [q1, q3]")
    print("\n".join(format_rows(summarize(metrics, pairs))))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
