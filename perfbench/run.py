"""Benchmark ftmr end to end on one workload.

Run from the repository root:

    python3 perfbench/run.py --workload pagerank --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/workloads.py`` and ``BENCHMARK.json``):
``pagerank``, ``uniform`` and ``pagerank-recover``.  Every sample is one
run in a fresh process (``python3 -m perfbench.sample``); samples repeat
until ``--seconds`` have passed, and every sample's outputs are checked.
Timings are reported as the median over samples, with the maximum and
the sample count beside it in the table.

Every time reported is scaled to a reference host speed: a sample's
times are multiplied by ``REFERENCE_CALIBRATION_S`` over the time a fixed
calibration loop took in that sample's process, just before and after
its run (``perfbench.sample.calibrate``).  On a shared host the same run
takes tens of percent longer or shorter from one minute to the next;
the scaled times cancel that drift, and the table also prints the raw
wall time (``wall_s``) and the calibration time.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced samples and reports the per-layer metrics, with
``trace.overhead_s`` (traced minus untraced median run time).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, holding the metrics
``BENCHMARK.json`` lists for the mode.  The exit code is 1 when any
sample raised or failed a check, and 2 when the tree holds no ftmr
sources to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_SAMPLES = 3
# the calibration loop's time on the host that defines the reference
# speed (a 2-core shared x86-64 cloud VM, Python 3.11); times are
# reported as they would read on that host
REFERENCE_CALIBRATION_S = 0.03
# every invocation ends well within three minutes
DEADLINE_S = 170.0

# reported in the table but not in the JSON: wall_s and calibration_s
# are the unscaled inputs of run_s, which drift with the host; the
# recovery counts read 0 on fault-free workloads, ``failed``/``attempted``
# carry the error rate, and one step's unscaled time (stall_s) spread up
# to 24 % of its median across seeds on a shared 2-core host, too close
# to the 25 % cap on any bound
TABLE_ONLY = [
    ("wall_s", "s"),
    ("calibration_s", "s"),
    ("stall_s", "s"),
    ("resent_bytes", "B"),
    ("repair_bytes", "B"),
    ("records_recomputed", "records"),
    ("error_rate", "share"),
]
# a sample's outputs and counts; every sample of one seed must agree
SIGNATURE = (
    "steps", "records", "network_bytes", "backup_bytes", "resent_bytes",
    "repair_bytes", "records_recomputed", "csv_sha256", "outputs_sha256",
)


def spawn(args: list[str], deadline: float) -> tuple[dict | None, str]:
    """Run ``perfbench.sample`` once; returns its JSON result or an error."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.sample", *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return None, "sample ran past the deadline"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"sample exited {proc.returncode}: {tail[0]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (ValueError, IndexError):
        return None, "sample printed no result"


def collect(workload: str, seed: int, seconds: int, trace: bool, ref: Path | None):
    """Samples until the time is up; traced ones alternate with untraced."""
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    if ref is not None:
        _, error = spawn(base + ["--write-reference", str(ref)], deadline)
        if error:
            return [], [], [f"fault-free reference: {error}"]
        base += ["--reference", str(ref)]
    untraced: list[dict] = []
    traced: list[dict] = []
    errors: list[str] = []
    minimum = 2 * MIN_SAMPLES if trace else MIN_SAMPLES
    stop = time.monotonic() + seconds
    took = 0.0
    n = 0
    while n < minimum or time.monotonic() < stop:
        if time.monotonic() + 1.5 * took > deadline:
            if n < minimum:
                errors.append(f"only {n} samples fit before the deadline")
            break
        tracing = trace and n % 2 == 1
        start = time.monotonic()
        sample, error = spawn(base + (["--trace"] if tracing else []), deadline)
        took = time.monotonic() - start
        n += 1
        if sample is None:
            errors.append(error)
        else:
            (traced if tracing else untraced).append(sample)
    return untraced, traced, errors


def judge(samples: list[dict]) -> list[tuple[int, str]]:
    """(sample index, problem) for every check a sample failed, including
    disagreeing with the first correct sample on outputs or counts."""
    problems = []
    first = None
    for k, sample in enumerate(samples):
        problems += [(k, p) for p in sample["problems"]]
        if sample["problems"]:
            continue
        if first is None:
            first = sample
        differ = [key for key in SIGNATURE if sample[key] != first[key]]
        if differ:
            problems.append((k, f"{', '.join(differ)} differ from sample {samples.index(first)}"))
    return problems


def speed_scale(sample: dict) -> float:
    """What the sample's times are multiplied by to read at reference speed."""
    return REFERENCE_CALIBRATION_S / sample["calibration_s"]


def end_to_end(samples: list[dict]) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for s in samples:
        scale = speed_scale(s)
        row = {
            "run_s": s["run_s"] * scale,
            "records_per_s": s["records"] / (s["run_s"] * scale),
            "setup_s": s["setup_s"] * scale,
            "wall_s": s["run_s"],
            "calibration_s": s["calibration_s"],
            "stall_s": s["stall_s"] * scale,
            "peak_rss_mb": s["peak_rss_mb"],
            "network_bytes": s["network_bytes"],
            "backup_bytes": s["backup_bytes"],
            "backup_overhead": s["backup_bytes"] / s["network_bytes"],
            "resent_bytes": s["resent_bytes"],
            "repair_bytes": s["repair_bytes"],
            "records_recomputed": s["records_recomputed"],
        }
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    return values


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for s in traced:
        scale = speed_scale(s)
        for name, value in s["layers"].items():
            values.setdefault(name, []).append(value * scale if name.endswith("_s") else value)
    values["harness.verify_s"] = [s["verify_s"] * speed_scale(s) for s in untraced + traced]
    traced_run = statistics.median(s["run_s"] * speed_scale(s) for s in traced)
    untraced_run = statistics.median(s["run_s"] * speed_scale(s) for s in untraced)
    values["trace.run_s"] = [traced_run]
    values["trace.overhead_s"] = [traced_run - untraced_run]
    return values


def central(values: list):
    """The median; for counts, which agree across samples, the count itself."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def print_table(title: str, metrics: list[tuple[str, str]], values, share_of: float | None = None) -> None:
    print(title)
    print(f"  {'metric':34} {'median':>14} {'max':>14}  {'n':>3}  unit")
    for name, unit in metrics:
        vals = values.get(name)
        if not vals:
            print(f"  {name:34} {'-':>14}")
            continue
        line = f"  {name:34} {central(vals):14.6g} {max(vals):14.6g}  {len(vals):3d}  {unit}"
        if share_of and unit == "s":
            line += f"  ({100 * statistics.median(vals) / share_of:.1f}% of traced run)"
        print(line)


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "ftmr" / "__init__.py").is_file():
        print(f"no ftmr sources under {SRC}; nothing to benchmark", file=sys.stderr)
        return 2
    # the checkout's own sources, not any installed copy
    sys.path[:0] = [str(ROOT), str(SRC)]
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        faulty = WORKLOADS[args.workload].failures is not None
        ref = Path(tmp) / "reference.pkl" if faulty else None
        untraced, traced, errors = collect(args.workload, args.seed, args.seconds, bool(args.trace), ref)
    problems = judge(untraced + traced)
    bad = {k for k, _ in problems}
    attempted = len(untraced) + len(traced) + len(errors)
    failed = len(bad) + len(errors)
    ok_untraced = [s for k, s in enumerate(untraced) if k not in bad]
    ok_traced = [s for k, s in enumerate(traced, len(untraced)) if k not in bad]

    e2e_defs = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    values = end_to_end(ok_untraced)
    values["error_rate"] = [failed / attempted]
    print(
        f"{args.workload} seed={args.seed}: {attempted} samples attempted "
        f"({len(untraced)} untraced, {len(traced)} traced), {failed} failed"
    )
    print_table("end to end (untraced samples)", e2e_defs + TABLE_ONLY, values)
    chosen = e2e_defs
    if args.trace and ok_traced and ok_untraced:
        values = per_layer(ok_untraced, ok_traced)
        chosen = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        run_s = values["trace.run_s"][0]
        print_table("per layer (traced samples)", chosen, values, share_of=run_s)
    for problem in errors + [f"sample {k}: {p}" for k, p in problems]:
        print(f"CHECK FAILED: {problem}")

    metrics = {}
    if not failed:
        metrics = {
            name: {"value": central(values[name]), "unit": unit}
            for name, unit in chosen
        }
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
