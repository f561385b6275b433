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
    "wordcount": "039854a5a2b9e5db87040fc46a59cc8ea75ba29b9aa1481568e73c8d89727794",
    "rmat": "cfac7b51258c47c8fc2d0ca9a9b3c1720cf85f7192bf1ace0277e6eba966e507",
    "cc": "f1df850cf43eb60d04ec67e198bf8d44b4a72ef321bd29b41c078553616d699e",
    "pagerank": "fa9cd9114a3cd4f90098e363e861619958eaaef99be3065acebde8ce403feeba",
    "uniform": "670c7664b3008b5f92e3e63122847f3136a644e109781068ec9dfea680650215",
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
        (key, sorted(
            (rec.key, rec.value, n) for rec, n in result.ledger.bucket(*key).items()
        ))
        for key in result.ledger.deliveries
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
