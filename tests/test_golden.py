"""Golden digests: a fixed grid of runs must keep giving the same bytes.

Per workload the grid is two cluster shapes (p=4 single PEs, p=8 pairs)
x recovery point interval 1, 3 and ``input-only`` x two backup settings
(split shares with shrinking recovery; one share with a single
recoverer) x five failure plans, 60 runs at seed 5 and desk scale.
Each run contributes its outputs, metrics CSV, step count and sorted
delivery ledger, or its refusal text, to one SHA-256 per workload.  A
refactor that claims identical behaviour must leave every digest as it
is; a change that means to alter behaviour re-pins them and says why.
"""

import hashlib
from collections import Counter

import pytest

from ftmr.config import JobConfig
from ftmr.harness import parse_failure_spec, run_simulation
from ftmr.metrics import DeliveryLedger
from ftmr.recovery import UnrecoverableFailure

SCALES = {
    "wordcount": dict(words_per_pe=200, dict_words=40),
    "rmat": dict(vertices_per_pe=32, avg_degree=4),
    "cc": dict(vertices_per_pe=16),
    "pagerank": dict(vertices_per_pe=16, iterations=4),
    "uniform": dict(total_records=2_000),
}

DIGESTS = {
    "wordcount": "dc11fb135eba400b63b030d50b140e93b6ac15cb5f08cc800fc8e86a09ba38ba",
    "rmat": "38b18c5c52cbffc48c76dafda8f1eea8f4cc68e442a6eda9aa7088b5c8bf7a4b",
    "cc": "bbc72d61ca44f9e4351f8c6216610867247cc9ea7d79ba757e3da4f66b0214b9",
    "pagerank": "0c2e2441a992fcf811da5b00641afb467f94e2d783b84861970d717d8581d4d8",
    "uniform": "84bb71da14b35ee56428e5bee957ea6bbb2bcc59a143a4999a8c2a5cfb790663",
}


def _plans(p, group_size):
    # fault-free, one failure unit at step 1 or 2, and two two-event plans
    units = [
        ",".join(str(pe) for pe in range(u * group_size, (u + 1) * group_size))
        for u in range(p // group_size)
    ]
    return [None, f"1:{units[0]}", f"2:{units[1]}",
            f"1:{units[0]};3:{units[-1]}", f"2:{units[0]};3:{units[1]}"]


def _run_text(config, spec):
    plan = parse_failure_spec(spec) if spec else None
    try:
        result = run_simulation(config, plan, ledger=DeliveryLedger())
    except UnrecoverableFailure as exc:
        return f"REFUSED {type(exc).__name__}: {exc}"
    outputs = repr(sorted(
        (pe, [(rec.key, rec.value) for rec in recs])
        for pe, recs in result.outputs.items()
    ))
    ledger = repr(sorted(
        (key, sorted((rec.key, rec.value, n) for rec, n in Counter(bucket).items()))
        for key, bucket in result.ledger.deliveries.items()
    ))
    return f"{outputs}\n{result.metrics.to_csv()}\n{result.steps_run}\n{ledger}"


@pytest.mark.parametrize("workload", list(SCALES))
def test_golden_digest(workload):
    digest = hashlib.sha256()
    for p, group_size in ((4, 1), (8, 2)):
        for interval in (1, 3, "input-only"):
            for backup, single in (("split", False), ("single", True)):
                config = JobConfig(
                    benchmark=workload, p=p, seed=5, group_size=group_size,
                    recovery_point_interval=interval, backup_mode=backup,
                    single_recoverer=single, **SCALES[workload],
                )
                for spec in _plans(p, group_size):
                    text = _run_text(config, spec)
                    digest.update(
                        f"{workload} p={p} i={interval} {backup} sr={single} "
                        f"{spec}\n{text}\n".encode()
                    )
    assert digest.hexdigest() == DIGESTS[workload]
