"""One benchmark sample, in a process of its own.

    python3 -m perfbench.sample --workload pagerank --seed 1 [--trace]
    python3 -m perfbench.sample --workload pagerank-recover --seed 1 --reference ref.pkl
    python3 -m perfbench.sample --workload pagerank-recover --seed 1 --write-reference ref.pkl

Runs the workload once, timed, reads the process's peak resident memory,
then checks the outputs untimed and prints one JSON object.  A fixed
calibration loop is timed just before and just after the run; ``run.py``
scales the sample's times by it (see :func:`calibrate`).  A fresh
process per sample keeps set-up cold and makes the memory peak the
run's own.  ``--write-reference`` runs the fault-free reference that the
checks of a faulty workload compare against, and saves it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import struct
import time
from collections import Counter
from pathlib import Path

from perfbench.tracer import Tracer
from perfbench.workloads import (
    WORKLOADS,
    check,
    csv_digest,
    outputs_digest,
    run_once,
    time_setup,
    write_reference,
)

# set-ups per sample: the timed run's own, then set-up-only runs once
# the run's data is gone; their median keeps one-off costs of a fresh
# process out of setup_s
SETUP_REPEATS = 5
# timed repeats of the calibration loop on each side of the run
CALIBRATE_REPEATS = 5
_KEY = struct.Struct("<QQd")
_MASK64 = (1 << 64) - 1


def calibrate() -> float:
    """Seconds one fixed pass of ftmr-like Python work takes right now.

    On a shared host the speed of the same process drifts by tens of
    percent over seconds to minutes.  The loop does the kinds of work
    the engine does (struct packing, an FNV byte hash, Counter and dict
    updates, list sorts) on fixed inputs and shares no code with ftmr,
    so a change to ftmr does not move it; only the host's speed does.
    The collector is off while it runs, so the size of the heap the run
    left behind does not either.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        counts: Counter = Counter()
        buckets: dict[int, list[bytes]] = {}
        x = 0x9E3779B97F4A7C15
        for i in range(6000):
            x = (x * 6364136223846793005 + 1442695040888963407) & _MASK64
            key = _KEY.pack(x >> 52, i, i * 0.25)
            acc = 0xCBF29CE484222325
            for b in key:
                acc = ((acc ^ b) * 0x100000001B3) & _MASK64
            counts[acc & 0xFFFF] += 1
            buckets.setdefault(acc & 15, []).append(key)
        for keys in buckets.values():
            keys.sort()
        return time.perf_counter() - start
    finally:
        gc.enable()


def calibration_s() -> float:
    return statistics.median(calibrate() for _ in range(CALIBRATE_REPEATS))


def take_sample(workload, seed: int, *, trace: bool, reference: Path | None) -> dict:
    tracer = Tracer() if trace else None
    before = calibration_s()
    try:
        if tracer is None:
            timed = run_once(workload, seed)
        else:
            with tracer:
                timed = run_once(workload, seed, wrap_job=tracer.wrap_job)
    except Exception as exc:  # noqa: BLE001 - a failed run is a result
        return {"problems": [f"run raised {exc!r}"]}
    after = calibration_s()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = timed.result
    m = result.metrics
    start = time.perf_counter()
    problems = check(workload, seed, result, reference)
    verify_s = time.perf_counter() - start
    sample = {
        "problems": problems,
        "run_s": timed.run_s,
        "calibration_s": (before + after) / 2,
        "stall_s": max(timed.step_s),
        "peak_rss_mb": peak_rss_mb,
        "verify_s": verify_s,
        "steps": result.steps_run,
        "records": sum(sm.records for sm in m.steps),
        "network_bytes": m.total_network_bytes,
        "backup_bytes": m.total_backup_bytes,
        "resent_bytes": sum(r.bytes_resent for r in m.recoveries),
        "repair_bytes": sum(r.backup_repair_bytes for r in m.recoveries),
        "records_recomputed": sum(r.records_recomputed for r in m.recoveries),
        "csv_sha256": csv_digest(result),
        "outputs_sha256": outputs_digest(result.outputs),
    }
    if tracer is not None:
        sample["layers"] = tracer.layer_metrics(result)
    setups = [timed.setup_s]
    del timed, result, m
    setups += [time_setup(workload, seed) for _ in range(SETUP_REPEATS - 1)]
    sample["setup_s"] = statistics.median(setups)
    return sample


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--reference", type=Path)
    parser.add_argument("--write-reference", type=Path)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.write_reference:
        write_reference(workload, args.seed, args.write_reference)
        sample = {"reference": str(args.write_reference)}
    else:
        sample = take_sample(workload, args.seed, trace=args.trace, reference=args.reference)
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
