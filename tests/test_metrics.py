"""Volume accounting and the delivery ledger."""

import pickle
import tracemalloc
from collections import Counter

from ftmr.config import JobConfig
from ftmr.core import Record
from ftmr.harness import parse_failure_spec, run_simulation
from ftmr.metrics import (
    CSV_HEADER,
    ORIGINAL,
    RECOVERY,
    DeliveryLedger,
    Metrics,
    RecoveryRecord,
)
from oracles import ColumnBatch, batch_of, plain


def rec(key, value=b"v"):
    return Record(key, value)


# -- metrics ------------------------------------------------------------


def test_step_metrics_get_or_create():
    m = Metrics()
    sm = m.step_metrics(3)
    sm.network_bytes = 7
    assert m.step_metrics(3) is sm
    assert [s.step for s in m.steps] == [3]


def test_totals_and_overhead():
    m = Metrics()
    m.step_metrics(1).network_bytes = 100
    m.step_metrics(1).self_bytes = 30
    m.step_metrics(1).backup_bytes = 25
    m.step_metrics(2).network_bytes = 100
    assert m.total_network_bytes == 200
    assert m.total_self_bytes == 30
    assert m.total_backup_bytes == 25
    assert m.relative_overhead() == 25 / 200
    assert Metrics().relative_overhead() == 0.0


def test_csv_layout():
    m = Metrics()
    sm = m.step_metrics(1)
    sm.network_bytes, sm.self_bytes, sm.backup_bytes, sm.records = 10, 2, 2, 3
    sm = m.step_metrics(2)
    sm.network_bytes, sm.records = 8, 2
    m.recoveries.append(
        RecoveryRecord(
            step=1,
            failed=(1,),
            recovery_point=1,
            replayed_steps=(),
            bytes_resent=5,
            records_recomputed=4,
            backup_repair_bytes=6,
        )
    )
    assert m.to_csv() == (
        CSV_HEADER + "\n"
        "1,shuffle,10,2,2,3\n"
        "1,recovery,5,0,6,4\n"
        "2,shuffle,8,0,0,2\n"
    )


# -- ledger -------------------------------------------------------------


def test_ledger_counts_and_views():
    led = DeliveryLedger()
    led.note(1, 0, ORIGINAL, batch_of([rec(b"a")]))
    led.note(1, 0, ORIGINAL, batch_of([rec(b"a")]))
    led.note(1, 1, ORIGINAL, batch_of([rec(b"b")]))
    led.note(1, 1, RECOVERY, batch_of([rec(b"c")]))
    led.note(2, 0, ORIGINAL, batch_of([rec(b"d")]))
    assert led.bucket(1, 0, ORIGINAL)[rec(b"a")] == 2
    assert sum(led.step_total(1).values()) == 4
    assert sum(led.step_total(1, RECOVERY).values()) == 1
    assert led.bucket(9, 9, ORIGINAL) == {}


def test_ledger_separates_key_value_boundary():
    # same concatenated bytes, different split -> different ledger entries
    led = DeliveryLedger()
    led.note(1, 0, ORIGINAL, batch_of([rec(b"ab", b"c")]))
    led.note(1, 0, ORIGINAL, batch_of([rec(b"a", b"bc")]))
    led.note(1, 0, ORIGINAL, batch_of([rec(b"ab", b"c")]))
    assert led.bucket(1, 0, ORIGINAL) == {rec(b"ab", b"c"): 2, rec(b"a", b"bc"): 1}


def test_ledger_counts_repeats_within_one_batch():
    led = DeliveryLedger()
    led.note(1, 0, ORIGINAL, batch_of([rec(b"a"), rec(b"b"), rec(b"a")]))
    led.note(1, 0, ORIGINAL, batch_of([rec(b"a")]))
    assert led.bucket(1, 0, ORIGINAL) == {rec(b"a"): 3, rec(b"b"): 1}


# the exactly-once checks count pairs from each batch's columns, so the
# ledgers they compare hold batches that refuse to build records


def _reference_ledger():
    led = DeliveryLedger()
    for step in (1, 2, 3):
        for dst in (0, 1):
            led.note(step, dst, ORIGINAL, batch_of([rec(b"k%d%d" % (step, dst))], ColumnBatch))
    return led


def test_check_against_clean_recovery():
    ref = _reference_ledger()
    run = DeliveryLedger()
    # identical up to the failure at step 2, PE 1 lost
    for step in (1, 2):
        for dst in (0, 1):
            run.note(step, dst, ORIGINAL, batch_of([rec(b"k%d%d" % (step, dst))], ColumnBatch))
    run.note(2, 0, RECOVERY, batch_of([rec(b"k21")], ColumnBatch))  # re-derived on the survivor
    run.note(3, 0, ORIGINAL, batch_of([rec(b"k30")], ColumnBatch))
    run.note(3, 0, ORIGINAL, batch_of([rec(b"k31")], ColumnBatch))  # moved to the survivor
    assert run.check_against(ref, {1}, event_step=2, recovery_point=2) == []


def test_check_against_flags_missing_and_extra():
    ref = _reference_ledger()
    run = DeliveryLedger()
    for step in (1, 2):
        for dst in (0, 1):
            run.note(step, dst, ORIGINAL, batch_of([rec(b"k%d%d" % (step, dst))], ColumnBatch))
    run.note(2, 0, RECOVERY, batch_of([rec(b"k20")], ColumnBatch))  # re-sent a surviving record
    run.note(3, 0, ORIGINAL, batch_of([rec(b"k30")], ColumnBatch))
    problems = run.check_against(ref, {1}, event_step=2, recovery_point=2)
    assert any("recovered stream mismatch" in p for p in problems)
    assert any("1 missing, 1 duplicated" in p for p in problems)
    assert any("step 3: post-failure deliveries diverge" in p for p in problems)


def test_check_against_flags_prefix_divergence():
    ref = _reference_ledger()
    run = DeliveryLedger()
    run.note(1, 0, ORIGINAL, batch_of([rec(b"other")], ColumnBatch))
    problems = run.check_against(ref, {1}, event_step=3, recovery_point=3)
    assert any("step 1 PE 0: original deliveries diverge" in p for p in problems)


def _recovered_through_step_2():
    # the reference's deliveries through a failure of PE 1 at step 2,
    # plus PE 1's step-2 input re-derived on the survivor
    run = DeliveryLedger()
    for step in (1, 2):
        for dst in (0, 1):
            run.note(step, dst, ORIGINAL, batch_of([rec(b"k%d%d" % (step, dst))], ColumnBatch))
    run.note(2, 0, RECOVERY, batch_of([rec(b"k21")], ColumnBatch))
    return run


def test_check_against_flags_a_stray_prefix_delivery():
    # a delivery to a PE the reference never fed diverges as well
    run = _recovered_through_step_2()
    run.note(1, 2, ORIGINAL, batch_of([rec(b"stray")], ColumnBatch))
    run.note(3, 0, ORIGINAL, batch_of([rec(b"k30"), rec(b"k31")], ColumnBatch))
    problems = run.check_against(
        _reference_ledger(), {1}, event_step=2, recovery_point=2
    )
    assert problems == ["step 1 PE 2: original deliveries diverge"]


def test_check_against_flags_a_recovery_delivery_before_the_replay_window():
    # the run equals the reference and recovered PE 1's step-3 input once;
    # a recovery delivery at step 1 lies before the replayed steps
    run = _reference_ledger()
    run.note(3, 0, RECOVERY, batch_of([rec(b"k31")], ColumnBatch))
    assert run.check_against(
        _reference_ledger(), {1}, event_step=3, recovery_point=3
    ) == []
    run.note(1, 0, RECOVERY, batch_of([rec(b"stray")], ColumnBatch))
    problems = run.check_against(
        _reference_ledger(), {1}, event_step=3, recovery_point=3
    )
    assert problems == [
        "step 1 PE 0: 1 recovery deliveries outside the replay window (steps 3..3)"
    ]


def test_ledger_keeps_each_bucket_in_note_order():
    led = DeliveryLedger()
    led.note(1, 0, ORIGINAL, batch_of([rec(b"b"), rec(b"a")]))
    led.note(1, 0, ORIGINAL, batch_of([rec(b"b")]))
    # one batch per note
    assert plain(led.deliveries) == {(1, 0, ORIGINAL): [[rec(b"b"), rec(b"a")], [rec(b"b")]]}
    assert led.bucket(1, 0, ORIGINAL) == Counter({rec(b"b"): 2, rec(b"a"): 1})


def test_ledger_keeps_each_batch_by_reference():
    # noting copies no batch, hashes no record and builds no per-record
    # entry: 100,000 records in 400 batches across 40 buckets grow traced
    # memory by at most 1 B per record (a slot per record was 8 B)
    records = [rec(b"%08d" % i) for i in range(100_000)]
    batches = [batch_of(records[i:i + 250]) for i in range(0, len(records), 250)]
    led = DeliveryLedger()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i, batch in enumerate(batches):
            led.note(1 + i % 40 // 10, i % 10, ORIGINAL, batch)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(led.deliveries) == 40
    kept = [batch for bucket in led.deliveries.values() for batch in bucket]
    assert sorted(map(id, kept)) == sorted(map(id, batches))
    assert grown / len(records) <= 1, grown / len(records)


def test_ledger_pickles_for_a_cross_process_check():
    # the path a reference ledger takes when it is written by one process
    # and checked in another
    config = JobConfig(benchmark="pagerank", p=4, seed=2, vertices_per_pe=8,
                       iterations=7, recovery_point_interval=3)
    reference = run_simulation(config, ledger=DeliveryLedger())
    result = run_simulation(config, parse_failure_spec("6:1"), ledger=DeliveryLedger())
    (recovery,) = result.metrics.recoveries
    assert recovery.recovery_point == 4
    assert any(gen == RECOVERY for _, _, gen in result.ledger.deliveries)
    run = pickle.loads(pickle.dumps(result.ledger))
    ref = pickle.loads(pickle.dumps(reference.ledger))
    assert plain(run.deliveries) == plain(result.ledger.deliveries)
    assert plain(ref.deliveries) == plain(reference.ledger.deliveries)
    for exact_after in (True, False):
        assert run.check_against(
            ref, {1}, event_step=6, recovery_point=recovery.recovery_point,
            exact_after=exact_after,
        ) == []


def test_check_against_count_relaxations():
    ref = _reference_ledger()
    run = _recovered_through_step_2()
    # same post-failure delivery count, different bytes
    run.note(3, 0, ORIGINAL, batch_of([rec(b"k30"), rec(b"k31-prime")], ColumnBatch))
    strict = run.check_against(ref, {1}, event_step=2, recovery_point=2)
    assert strict == ["step 3: post-failure deliveries diverge"]
    relaxed = run.check_against(
        ref, {1}, event_step=2, recovery_point=2, exact_after=False
    )
    assert relaxed == []
    # the relaxed check still catches a lost record
    short = _recovered_through_step_2()
    short.note(3, 0, ORIGINAL, batch_of([rec(b"k30")], ColumnBatch))
    problems = short.check_against(
        ref, {1}, event_step=2, recovery_point=2, exact_after=False
    )
    assert problems == ["step 3: post-failure delivery count diverges"]
