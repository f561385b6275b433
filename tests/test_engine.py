"""Fault-free engine behavior: stepping, shuffling, logs, determinism."""

import dataclasses
import gc
import random
import tracemalloc
import weakref
from collections import Counter, defaultdict
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ftmr.engine
import ftmr.recovery
from ftmr.config import ConfigError, JobConfig
from ftmr.core import Batch, Record
from ftmr.engine import (
    Cluster,
    Job,
    JobError,
    ListDriver,
    RecordSource,
    StepRecord,
    StepSpec,
    _inbox_layout,
    group_entries,
    identity_map,
    recovery_point_schedule,
    run_job,
    shuffle,
)
from ftmr.harness import build_job, parse_failure_spec
from ftmr.metrics import ORIGINAL, DeliveryLedger
from ftmr.partition import BackupMode, backup_targets, hash_key, initial_partition
from ftmr.recovery import UnrecoverableFailure
from oracles import ColumnBatch, batch_of, expand, plain
from test_golden import SCALES


def identity_spec(name="identity", counter=False):
    def map_fn(key, value):
        return (key,), (value,)

    def reduce_fn(key, values):
        return (key,) * len(values), values

    def counter_fn(key, values):
        return 1

    return StepSpec(name, map_fn, reduce_fn, counter_fn if counter else None)


def random_source(seed, per_pe=30):
    def fn(pe):
        rng = random.Random(seed * 1009 + pe)
        return batch_of([(rng.randbytes(6), rng.randbytes(4)) for _ in range(per_pe)])

    return RecordSource(fn)


def identity_job(seed, steps=1, per_pe=30, counter=False):
    return Job(
        random_source(seed, per_pe), ListDriver([identity_spec(counter=counter)] * steps)
    )


# -- routing ------------------------------------------------------------


def test_outputs_partitioned_by_key_hash():
    p = 4
    result = run_job(identity_job(1), p)
    pm = initial_partition(p)
    seen = 0
    for pe, records in result.outputs.items():
        for rec in records:
            assert pm.owner_of(hash_key(rec.key)) == pe
            seen += 1
    assert seen == 4 * 30


def test_output_multiset_preserved_by_identity_step():
    result = run_job(identity_job(2), 4)
    inputs = []
    for pe in range(4):
        inputs.extend(random_source(2).fn(pe))
    got = sorted(
        (r.key, r.value) for recs in result.outputs.values() for r in recs
    )
    assert got == sorted((r.key, r.value) for r in inputs)


def test_single_pe_runs(caplog):
    with caplog.at_level("WARNING", logger="ftmr.engine"):
        result = run_job(identity_job(3), 1)
    assert list(result.outputs) == [0]
    assert len(result.outputs[0]) == 30
    assert result.metrics.total_network_bytes == 0
    assert any("no backup target" in r.message for r in caplog.records)


def test_ledger_counts_every_delivery():
    result = run_job(identity_job(4), 4, ledger=DeliveryLedger())
    sm = result.metrics.steps[0]
    assert sum(result.ledger.step_total(1, ORIGINAL).values()) == sm.records
    assert sm.records == 120


def test_shuffle_notes_nothing():
    # the step loop notes the ledger; the shuffle itself never does
    cluster = Cluster(identity_job(4), 4, ledger=DeliveryLedger())
    cluster.step_history[1] = StepRecord(spec=identity_spec(), owners=cluster.owners)
    # the shuffle routes each PE's input as an identity map leaves it
    shuffle(cluster, 1, True)
    assert sum(len(recs) for pe in cluster.pes for recs in pe.inbox.values()) == 120
    assert cluster.ledger.deliveries == {}


PAGERANK_32 = JobConfig(benchmark="pagerank", p=4, seed=3, vertices_per_pe=8, iterations=3)


def test_shuffle_hashes_each_key_once_per_map(monkeypatch):
    calls = []
    monkeypatch.setattr(
        "ftmr.partition.hash_key", lambda key: calls.append(key) or hash_key(key)
    )
    result = run_job(build_job(PAGERANK_32), 4)
    # every vertex is a key each step (its adjacency and its in-edge
    # scores), and without a failure the map never changes
    keys = {rec.key for recs in result.outputs.values() for rec in recs}
    assert result.steps_run == 3
    assert len(keys) == 32
    assert sorted(calls) == sorted(keys)


@pytest.mark.parametrize("job", [
    identity_job(5),
    build_job(JobConfig(benchmark="uniform", p=4, seed=5, total_records=400)),
], ids=["identity", "uniform"])
def test_owner_memo_dropped_after_distinct_keys(job):
    cluster = Cluster(job, 4)
    assert cluster.step()
    assert cluster.metrics.steps[0].records > 0
    assert len(cluster.owners) == 0
    # no key repeated, so no sender's route is kept either, nor the
    # position table routes share
    assert cluster.routes == {}
    assert cluster.positions == []


def test_routes_rebuilt_under_the_new_memo_after_recovery():
    config = dataclasses.replace(PAGERANK_32, iterations=4)
    cluster = Cluster(build_job(config), 4, failure_plan=parse_failure_spec("3:1"))
    assert cluster.step()
    # step 1 sends in ingest order and step 2 in the reduce's key order
    assert cluster.step()
    routes = dict(cluster.routes)
    assert set(routes) == {0, 1, 2, 3}
    old = cluster.owners
    # recovery from the step-3 failure installs a new memo and drops the
    # routes, and its own cuts: only the step-3 reduce's receiver slots,
    # none laid out yet, survive it; the next shuffle builds the
    # survivors' routes anew
    assert cluster.step()
    assert cluster.owners is not old
    assert cluster.routes == {}
    assert set(cluster.layouts) == cluster.live
    assert {layout for _, layout in cluster.layouts.values()} == {None}
    assert cluster.step()
    assert set(cluster.routes) == cluster.live == {0, 2, 3}
    assert not any(route is before for route in cluster.routes.values()
                   for before in routes.values())


def _oracle_case(name, benchmark, plan=None, *, p=8, general=False, **knobs):
    scale = dict(vertices_per_pe=8, iterations=5) if benchmark == "pagerank" else SCALES[benchmark]
    config = JobConfig(benchmark=benchmark, p=p, seed=6, **{**scale, **knobs})
    return pytest.param(config, plan, general, id=name)


class _GeneralPath:
    """The driver's steps, each ``identity_map`` wrapped so the map calls
    it instead of taking the records as they are."""

    def __init__(self, driver):
        self.driver = driver
        self.wrapped = 0

    def next_step(self, index, prev_aggregate):
        spec = self.driver.next_step(index, prev_aggregate)
        if spec is None or spec.map_fn is not identity_map:
            return spec
        self.wrapped += 1
        return dataclasses.replace(spec, map_fn=lambda key, value: identity_map(key, value))


def _general_cases():
    # identity steps run like a wrapped identity map, fault-free and
    # through a failure at each kind of recovery point (uniform runs one
    # step, so its PE 1 fails at step 1)
    for benchmark, plan in (("rmat", "2:1"), ("uniform", "1:1")):
        for interval in (1, 3, "input-only"):
            for case in (None, plan):
                name = f"{benchmark}-p4-i{interval}-{case or 'fault-free'}-general"
                yield _oracle_case(name, benchmark, case, p=4, general=True,
                                   recovery_point_interval=interval)


@pytest.mark.parametrize("config, plan, general", [
    _oracle_case("pagerank", "pagerank"),
    _oracle_case("pagerank-groups", "pagerank", group_size=2),
    _oracle_case("cc-groups", "cc", group_size=2),
    # each PageRank plan leaves steps after its last event, which some
    # survivors enter with their routes' key lists unchanged
    _oracle_case("pagerank-i1-5:2", "pagerank", "5:2", recovery_point_interval=1,
                 iterations=8),
    _oracle_case("pagerank-groups-i3-3:4,5", "pagerank", "3:4,5", group_size=2,
                 recovery_point_interval=3, iterations=8),
    _oracle_case("pagerank-p4-i3-4:1;8:2", "pagerank", "4:1;8:2", p=4,
                 recovery_point_interval=3, iterations=10),
    _oracle_case("pagerank-input-only-6:1", "pagerank", "6:1",
                 recovery_point_interval="input-only", iterations=8),
    # the self part and the re-logging read one cut for two failed owners
    _oracle_case("pagerank-groups-input-only-4:2,3", "pagerank", "4:2,3", group_size=2,
                 recovery_point_interval="input-only", iterations=6),
    _oracle_case("cc-p4-i3-2:1;5:3", "cc", "2:1;5:3", p=4, recovery_point_interval=3),
    _oracle_case("wordcount-p4-1:2", "wordcount", "1:2", p=4),
    _oracle_case("uniform-p4-1:2", "uniform", "1:2", p=4),
    _oracle_case("rmat-p4-i3-2:1", "rmat", "2:1", p=4, recovery_point_interval=3),
    *_general_cases(),
])
def test_reused_routes_shuffle_like_fresh_ones(monkeypatch, config, plan, general):
    # the drop-everything oracle: a cluster that keeps its derived state
    # runs byte for byte like one that drops it before every step and
    # cuts every recovery batch afresh; given ``general``, that cluster's
    # identity steps also map through a wrapped identity_map, so they do
    # not take the identity path
    def cluster(job):
        return Cluster(
            job, config.p, backup_mode=config.backup_mode,
            recovery_point_interval=config.recovery_point_interval,
            failure_plan=parse_failure_spec(plan) if plan else None,
            group_size=config.group_size, ledger=DeliveryLedger(),
        )

    job = build_job(config)
    driver = _GeneralPath(job.driver) if general else job.driver
    kept, fresh = cluster(build_job(config)), cluster(Job(job.source, driver))
    split = ftmr.recovery._split

    def split_afresh(cluster, *args):
        if cluster is fresh:
            cluster.layouts = {}
        return split(cluster, *args)

    monkeypatch.setattr(ftmr.recovery, "_split", split_afresh)
    reused = 0
    while True:
        before = dict(kept.routes)
        fresh.drop_derived()
        stepped = kept.step()
        assert fresh.step() == stepped
        if not stepped:
            break
        reused += sum(kept.routes.get(src) is route for src, route in before.items())
        assert kept.live == fresh.live
        for a, b in zip(kept.pes, fresh.pes):
            assert plain((a.sent_log, a.backup_store)) == plain((b.sent_log, b.backup_store))
            assert plain(a.current) == plain(b.current)
        step = kept.steps_run
        assert (kept.step_history[step].backup_manifest
                == fresh.step_history[step].backup_manifest)
        assert kept.metrics.steps[-1] == fresh.metrics.steps[-1]
    assert len(kept.metrics.recoveries) == (plan.count(";") + 1 if plan else 0)
    assert kept.result().outputs == fresh.result().outputs
    assert kept.metrics.to_csv() == fresh.metrics.to_csv()
    # the ledger holds every inbox, sender lists in delivery order
    assert plain(kept.ledger.deliveries) == plain(fresh.ledger.deliveries)
    # PageRank senders repeat their keys, and rmat's once its edge lists
    # settle; cc, wordcount and uniform never do
    assert reused > 0 if config.benchmark in ("pagerank", "rmat") else reused == 0
    if general:
        assert driver.wrapped


def test_one_record_destination_over_a_reused_route():
    # itemgetter of one position returns the bare record, not a tuple;
    # a reused route must still hand such a destination a one-record list
    pm = initial_partition(4)
    by_owner = defaultdict(list)
    for key in (b"k%d" % i for i in range(64)):
        by_owner[pm.owner_of(hash_key(key))].append(key)
    # one record to PE 0 (a self-message, so it is also backed up) and
    # one to PE 1; PE 2's key repeats, so the route is kept
    alone = [Record(by_owner[0][0], b"a"), Record(by_owner[1][0], b"b")]
    outbound = alone + [Record(by_owner[2][0], b"c")] * 2

    def shuffled(reuse):
        cluster = Cluster(Job(RecordSource(lambda pe: Batch((), ())), ListDriver([])), 4)
        for step in (1, 2):
            if not reuse:
                cluster.drop_derived()
            before = dict(cluster.routes)
            cluster.step_history[step] = StepRecord(spec=identity_spec(), owners=cluster.owners)
            cluster.pes[0].current = batch_of(outbound)
            for pe in cluster.pes:
                pe.inbox = {}
            shuffle(cluster, step, True)
        return cluster, before

    kept, before = shuffled(True)
    fresh, _ = shuffled(False)
    assert kept.routes[0] is before[0]
    assert plain(kept.pes[0].sent_log[2]) == {0: alone[:1], 1: alone[1:], 2: outbound[2:]}
    assert plain([kept.pes[dst].inbox for dst in (0, 1)]) == [{0: alone[:1]}, {0: alone[1:]}]
    for a, b in zip(kept.pes, fresh.pes):
        assert plain((a.sent_log, a.inbox, a.backup_store)) == plain(
            (b.sent_log, b.inbox, b.backup_store)
        )
    assert kept.metrics.steps == fresh.metrics.steps


@pytest.mark.parametrize("plan, reset_after", [
    (None, None), ("6:1", None), (None, 4),
], ids=["fault-free", "failure", "routes-reset"])
def test_reduce_groups_like_group_entries_over_kept_layouts(monkeypatch, plan, reset_after):
    # each reduce's groups are checked against a fresh grouping of its
    # inbox; per step, which PEs' inboxes were laid out
    group_entries = ftmr.engine.group_entries
    laid_out = []

    def checked(inbox, layout=None):
        got = group_entries(inbox, layout)
        # a laid-out group's values may be a tuple
        assert [(key, list(values)) for key, values in got] == group_entries(inbox)
        laid_out[-1].append(layout is not None)
        return got

    monkeypatch.setattr(ftmr.engine, "group_entries", checked)
    config = dataclasses.replace(PAGERANK_32, iterations=9)
    cluster = Cluster(build_job(config), 4,
                      failure_plan=parse_failure_spec(plan) if plan else None)
    while True:
        if cluster.steps_run == reset_after:
            cluster.drop_derived()
        laid_out.append([])
        if not cluster.step():
            break
        # every receiver keeps a slot; a layout is built in it at the
        # second sight of equal key columns
        assert set(cluster.layouts) == cluster.live
        built = {dst for dst, (_, layout) in cluster.layouts.items() if layout is not None}
        assert built == (cluster.live if all(laid_out[-1]) else set())
    # step 1 sends in ingest order and step 2 in the reduce's key order,
    # and step 3 builds the layouts as it uses them; a failure skips its
    # step, whose inboxes hold injected batches, and the next, whose
    # routes deliver under the new memo, and a reset the next
    skipped = {6, 7} if plan else {5} if reset_after else set()
    assert [step for step, used in enumerate(laid_out[:-1], 1) if all(used)] == [
        step for step in range(3, 10) if step not in skipped
    ]


@pytest.mark.parametrize("config", [
    JobConfig(benchmark=name, p=4, seed=5, **SCALES[name])
    for name in ("cc", "wordcount", "uniform")
], ids=["cc", "wordcount", "uniform"])
def test_no_layout_without_repeated_routes(config):
    cluster = Cluster(build_job(config), 4)
    while cluster.step():
        assert all(layout is None for _, layout in cluster.layouts.values())


def test_layout_kept_when_a_rebuilt_route_delivers_equal_keys():
    config = dataclasses.replace(PAGERANK_32, iterations=6)
    cluster = Cluster(build_job(config), 4)
    for _ in range(4):
        assert cluster.step()
    kept = {dst: layout for dst, (_, layout) in cluster.layouts.items()}
    assert None not in kept.values() and set(kept) == cluster.live
    # PE 0 sends to every PE; its rebuilt route holds new key columns
    # with the same keys, so every receiver keeps its layout
    old = cluster.routes.pop(0)
    assert {dst for dst, *_ in old.payloads} == cluster.live
    assert cluster.step()
    assert cluster.routes[0] is not old
    assert all(cluster.layouts[dst][1] is layout for dst, layout in kept.items())


def test_inbox_layout_built_at_the_second_sight_of_equal_columns():
    cluster = Cluster(Job(RecordSource(lambda pe: Batch((), ())), ListDriver([])), 2)
    inbox = {1: Batch([b"b", b"a"], [b"1", b"2"]), 0: Batch([b"a"], [b"3"])}
    assert _inbox_layout(cluster, 0, inbox) is None
    # equal columns in new objects
    again = {src: Batch(list(batch.keys), batch.values) for src, batch in inbox.items()}
    layout = _inbox_layout(cluster, 0, again)
    assert layout is not None
    assert [(key, list(values)) for key, values in group_entries(again, layout)] == [
        (b"a", [b"3", b"2"]), (b"b", [b"1"])
    ]
    assert _inbox_layout(cluster, 0, inbox) is layout
    # a slot keeps its own columns
    assert _inbox_layout(cluster, "replay", inbox) is None
    # other columns drop the layout, and keep theirs instead
    swapped = {0: inbox[1], 1: inbox[0]}
    assert _inbox_layout(cluster, 0, swapped) is None
    assert cluster.layouts[0] == ([inbox[1].keys, inbox[0].keys], None)
    assert _inbox_layout(cluster, 0, inbox) is None


@pytest.mark.parametrize("interval", [1, 3, "input-only"])
@pytest.mark.parametrize("workload", list(SCALES))
def test_every_record_in_flight_is_a_record(workload, interval, monkeypatch):
    # records travel as batches only: no batch is iterated into records
    # while the cluster ingests and steps, through a failure and with a
    # ledger, and every inbox as each reduce reads it, and every PE's
    # records, sent-log entry and share payload after each step, is a
    # batch; perfbench's tracer reads .size on every record a logged
    # batch yields, so the records iterating a batch builds, the outputs'
    # among them, are Records, never plain tuples
    running = [True]
    iterate = Batch.__iter__

    def guarded(batch):
        assert not running[0], "a batch was iterated as records during a step"
        return iterate(batch)

    monkeypatch.setattr(Batch, "__iter__", guarded)
    seen = Counter()
    reduce_phase = ftmr.engine.reduce_phase

    def checked_reduce(cluster, *args):
        for i in cluster.live:
            inbox = cluster.pes[i].inbox
            assert set(map(type, inbox.values())) <= {Batch}, (cluster.steps_run + 1, i)
            seen["inbox"] += sum(map(len, inbox.values()))
        return reduce_phase(cluster, *args)

    monkeypatch.setattr(ftmr.engine, "reduce_phase", checked_reduce)
    config = JobConfig(benchmark=workload, p=4, seed=5, recovery_point_interval=interval,
                       **SCALES[workload])
    plan = parse_failure_spec("1:1" if workload in ("wordcount", "uniform") else "2:1")
    cluster = Cluster(build_job(config), 4, recovery_point_interval=interval,
                      failure_plan=plan, ledger=DeliveryLedger())
    while cluster.step():
        for i in cluster.live:
            pe = cluster.pes[i]
            held = {
                "current": [pe.current],
                "log": [batch for log in pe.sent_log.values() for batch in log.values()],
                "share": [entry[3] for store in pe.backup_store.values()
                          for share in store.values() for entry in share],
            }
            for kind, batches in held.items():
                assert set(map(type, batches)) <= {Batch}, (kind, cluster.steps_run, i)
                seen[kind] += sum(map(len, batches))
    assert cluster.metrics.recoveries
    assert all(seen[kind] for kind in ("inbox", "log", "current"))
    assert bool(seen["share"]) == (interval != "input-only")
    noted = list(chain.from_iterable(cluster.ledger.deliveries.values()))
    assert noted and set(map(type, noted)) == {Batch}
    running[0] = False
    outputs = cluster.result().outputs
    logged = [batch for i in cluster.live for log in cluster.pes[i].sent_log.values()
              for batch in log.values()]
    for records in (chain.from_iterable(outputs.values()), chain.from_iterable(logged)):
        kinds = Counter(map(type, records))
        assert set(kinds) == {Record}, kinds


def test_a_reused_route_shares_its_key_columns_across_steps():
    # every batch a reused route delivers holds the route's key column,
    # the very object, in the sender's log and in the ledger alike;
    # step 1 sends in the input's key order, so the routes settle at 2
    steps = 6
    config = dataclasses.replace(PAGERANK_32, iterations=steps)
    cluster = Cluster(build_job(config), 4, recovery_point_interval=steps,
                      ledger=DeliveryLedger())
    while cluster.step():
        pass
    noted = {
        key: set(map(id, batches)) for key, batches in cluster.ledger.deliveries.items()
    }
    for src in sorted(cluster.live):
        log = cluster.pes[src].sent_log
        assert sorted(log) == list(range(1, steps + 1))
        for dst, _gather, _key_bytes, column in cluster.routes[src].payloads:
            shared = [step for step in sorted(log) if log[step][dst].keys is column]
            assert shared == list(range(2, steps + 1)), (src, dst)
            for step in shared:
                assert id(log[step][dst]) in noted[(step, dst, ORIGINAL)]


def test_retained_logs_cost_under_two_slots_per_message():
    # with every log retained, the logs hold a value slot per message, a
    # key slot per message of a route that was not reused, and a few
    # objects per batch: at most 16 B per logged message beyond the key
    # and value objects (a Record and a list slot per message were 72 B)
    config = JobConfig(benchmark="pagerank", p=4, seed=5, vertices_per_pe=32,
                       iterations=10, recovery_point_interval="input-only")
    tracemalloc.start()
    try:
        cluster = Cluster(build_job(config), 4, recovery_point_interval="input-only")
        while cluster.step():
            pass
        batches = [
            batch for pe in cluster.pes for log in pe.sent_log.values()
            for batch in log.values()
        ]
        messages = sum(map(len, batches))
        # the key and value objects outlive the logs, so dropping the logs
        # frees only what holds those objects; the kept routes hold their
        # own key columns
        objects = [obj for batch in batches for obj in chain(batch.keys, batch.values)]
        del batches
        before = tracemalloc.get_traced_memory()[0]
        for pe in cluster.pes:
            pe.sent_log = {}
        freed = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(objects) == 2 * messages > 10_000
    assert freed / messages <= 16, freed / messages


@pytest.mark.parametrize("group_size", [1, 2])
@pytest.mark.parametrize("workload, scale", [
    ("pagerank", dict(vertices_per_pe=128, iterations=3)),
    ("cc", dict(vertices_per_pe=1024)),
], ids=["pagerank", "cc"])
def test_retained_shares_cost_under_three_slots_per_message(workload, scale, group_size):
    # a share entry holds one destination's messages as two strided
    # column slices, so a backed-up message costs a key slot and a value
    # slot plus its entry's few objects: at most 24 B beyond the key and
    # value objects (a Record and an entry tuple per message were ~150 B)
    config = JobConfig(benchmark=workload, p=4, seed=5, group_size=group_size, **scale)
    tracemalloc.start()
    try:
        cluster = Cluster(build_job(config), 4, group_size=group_size)
        for _ in range(2):
            assert cluster.step()
        batches = [
            entry[3] for pe in cluster.pes for store in pe.backup_store.values()
            for share in store.values() for entry in share
        ]
        messages = sum(map(len, batches))
        objects = [obj for batch in batches for obj in chain(batch.keys, batch.values)]
        del batches
        before = tracemalloc.get_traced_memory()[0]
        for pe in cluster.pes:
            pe.backup_store = {}
        freed = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(objects) == 2 * messages > 2_000
    assert freed / messages <= 24, freed / messages


def test_owner_memo_kept_when_keys_repeat():
    cluster = Cluster(build_job(PAGERANK_32), 4)
    assert cluster.step()
    assert len(cluster.owners) == 32


def naive_shuffle(pm, group_of, backup_mode, is_rp, outbound):
    """Shuffle's effects, worked out one record at a time."""
    p = len(group_of)
    live = set(range(p))
    want = dict(network=0, self=0, backup=0, received={}, manifest={},
                logs={}, inboxes={i: {} for i in range(p)}, stores={})
    internal = {}
    for src in range(p):
        payloads = {}
        for rec in outbound[src]:
            dst = pm.owner_of(hash_key(rec.key))
            payloads.setdefault(dst, []).append(rec)
            if dst != src:
                want["network"] += rec.size
            if group_of[dst] == group_of[src]:
                want["self"] += rec.size
        # the unit-internal records in send-log order: by destination,
        # then in payload order
        internal[src] = [
            (src, dst, seq, rec)
            for dst in sorted(payloads) if group_of[dst] == group_of[src]
            for seq, rec in enumerate(payloads[dst])
        ]
        if backup_mode is not BackupMode.OFF:
            want["logs"][src] = payloads
        for dst, payload in payloads.items():
            want["inboxes"][dst][src] = payload
    if is_rp and backup_mode is not BackupMode.OFF:
        for src in range(p):
            targets = backup_targets(src, live, backup_mode, group_of)
            if targets:
                want["manifest"][src] = targets
            for k, target in enumerate(targets):
                share = internal[src][k :: len(targets)]
                want["stores"].setdefault(target, {})[(src, k)] = share
                size = sum(entry[3].size for entry in share)
                want["backup"] += size
                want["received"][target] = want["received"].get(target, 0) + size
    return want


@st.composite
def shuffle_setups(draw):
    p = draw(st.integers(2, 8))
    mode = draw(st.sampled_from(list(BackupMode)))
    sizes = [g for g in range(1, p + 1) if p % g == 0]
    if mode is not BackupMode.OFF:
        sizes.remove(p)
    group_size = draw(st.sampled_from(sizes))
    field = st.binary(max_size=3)
    outbound = [
        draw(st.lists(st.builds(Record, field, field), max_size=12))
        for _ in range(p)
    ]
    # the next step's outbound: the same keys (a route hit, with the same
    # or new values), the same records permuted, or new records
    change = draw(st.sampled_from(["same", "revalued", "permuted", "new"]))
    if change == "same":
        again = outbound
    elif change == "revalued":
        again = [[Record(key, draw(field)) for key, _ in recs] for recs in outbound]
    elif change == "permuted":
        again = [draw(st.permutations(recs)) for recs in outbound]
    else:
        again = [
            draw(st.lists(st.builds(Record, field, field), max_size=12))
            for _ in range(p)
        ]
    return p, mode, group_size, draw(st.booleans()), outbound, again


def check_shuffle(cluster, step, mode, is_rp, outbound):
    cluster.step_history[step] = StepRecord(spec=identity_spec(), owners=cluster.owners)
    for pe, records in zip(cluster.pes, outbound):
        pe.current = batch_of(records)
        pe.inbox = {}
    shuffle(cluster, step, is_rp)
    want = naive_shuffle(cluster.owners.pm, cluster.group_of, mode, is_rp, outbound)
    sm = cluster.metrics.step_metrics(step)
    assert sm.records == sum(map(len, outbound))
    assert (sm.network_bytes, sm.self_bytes) == (want["network"], want["self"])
    assert sm.backup_bytes == want["backup"]
    assert sm.backup_received == want["received"]
    assert cluster.step_history[step].backup_manifest == want["manifest"]
    assert plain({
        i: pe.sent_log[step] for i, pe in enumerate(cluster.pes) if step in pe.sent_log
    }) == want["logs"]
    assert plain({i: pe.inbox for i, pe in enumerate(cluster.pes)}) == want["inboxes"]
    manifest = cluster.step_history[step].backup_manifest
    assert {
        i: {slot: expand(share, len(manifest[slot[0]]))
            for slot, share in pe.backup_store[step].items()}
        for i, pe in enumerate(cluster.pes) if step in pe.backup_store
    } == want["stores"]
    assert all(len(pe.current) == 0 for pe in cluster.pes)


@settings(max_examples=200)
@given(shuffle_setups())
def test_shuffle_matches_a_per_record_reference(setup):
    p, mode, group_size, is_rp, outbound, again = setup
    cluster = Cluster(Job(RecordSource(lambda pe: Batch((), ())), ListDriver([])), p,
                      backup_mode=mode, group_size=group_size)
    check_shuffle(cluster, 1, mode, is_rp, outbound)
    # the owner memo keeps its keys only when some key repeated
    keys = [rec.key for records in outbound for rec in records]
    repeated = len(set(keys)) < len(keys)
    assert len(cluster.owners) == (len(set(keys)) if repeated else 0)
    # a second shuffle on the same cluster reuses a kept route when the
    # sender's keys are unchanged and builds a new one otherwise
    routes = dict(cluster.routes)
    check_shuffle(cluster, 2, mode, is_rp, again)
    for src, route in routes.items():
        same_keys = [rec.key for rec in again[src]] == route.keys
        assert (cluster.routes.get(src) is route) == same_keys


# -- grouping -----------------------------------------------------------


@given(st.data())
def test_group_entries_order_invariance(data):
    keys = [b"k1", b"k2", b"k3"]
    senders = data.draw(st.lists(st.integers(0, 7), unique=True, max_size=4))
    inbox = {
        src: batch_of([
            (data.draw(st.sampled_from(keys)), bytes([src, seq]))
            for seq in range(data.draw(st.integers(0, 4)))
        ])
        for src in senders
    }
    shuffled = {src: inbox[src] for src in data.draw(st.permutations(senders))}
    assert group_entries(inbox) == group_entries(shuffled)


def test_group_entries_sorted_keys_and_stable_values():
    inbox = {
        1: batch_of([(b"b", b"1"), (b"b", b"4")]),
        0: batch_of([(b"b", b"3"), (b"a", b"2")]),
    }
    assert group_entries(inbox) == [
        (b"a", [b"2"]),
        (b"b", [b"3", b"1", b"4"]),
    ]


def test_group_entries_reads_batch_columns():
    pairs = {
        2: [(b"b", b"20"), (b"a", b"21"), (b"b", b"22")],
        0: [(b"c", b"00"), (b"b", b"01")],
        5: [(b"a", b"50"), (b"c", b"51"), (b"a", b"52")],
    }
    expected = [
        (b"a", [b"21", b"50", b"52"]),
        (b"b", [b"01", b"20", b"22"]),
        (b"c", [b"00", b"51"]),
    ]
    # list and tuple columns, as recovery and the shuffle's gathers make
    for kind, column in ((Batch, list), (ColumnBatch, list), (ColumnBatch, tuple)):
        inbox = {
            src: kind(column(k for k, _ in recs), column(v for _, v in recs))
            for src, recs in pairs.items()
        }
        assert group_entries(inbox) == expected, (kind, column)


# -- aggregates and drivers ---------------------------------------------


def test_counter_aggregate_reaches_driver():
    seen = []

    class Probe:
        def next_step(self, index, prev_aggregate):
            seen.append(prev_aggregate)
            if index <= 2:
                return identity_spec(counter=True)
            return None

    job = Job(random_source(5), Probe())
    result = run_job(job, 4)
    assert result.steps_run == 2
    distinct = len({r.key for recs in result.outputs.values() for r in recs})
    # counter emits 1 per key group; both steps see the same key set
    assert seen == [None, distinct, distinct]


def test_step_budget_enforced(monkeypatch):
    class Forever:
        def next_step(self, index, prev_aggregate):
            return identity_spec()

    monkeypatch.setattr("ftmr.engine.MAX_STEPS", 5)
    with pytest.raises(JobError, match="step budget"):
        run_job(Job(random_source(6), Forever()), 2)


# -- user errors --------------------------------------------------------


def test_map_errors_carry_context():
    def bad_map(key, value):
        raise KeyError("boom")

    spec = StepSpec("bad", bad_map, lambda k, v: ((), ()))
    with pytest.raises(JobError, match=r"PE \d+, step 1, map of record 0"):
        run_job(Job(random_source(7), ListDriver([spec])), 4)


@pytest.mark.parametrize("k", [5, -1], ids=["middle", "last"])
@pytest.mark.parametrize("lazy", [None, 0, 1], ids=["list", "generator", "value-generator"])
def test_map_error_names_the_failing_record(k, lazy):
    # a map_fn that raises on record k of PE 2 at step 2, either when
    # called or part-way through the generator it returned as its key
    # column (lazy == 0) or its value column (lazy == 1)
    target = []

    def bad_map(key, value):
        if (key, value) in target:
            raise KeyError("boom")
        return (key,), (value,)

    def bad_generator(*rec):
        def column(item):
            yield item
            if rec in target:
                raise KeyError("boom")

        columns = [rec[:1], rec[1:]]
        columns[lazy] = column(rec[lazy])
        return columns

    spec = StepSpec("bad", bad_map if lazy is None else bad_generator, identity_spec().reduce_fn)
    job = Job(random_source(7), ListDriver([identity_spec(), spec]))
    cluster = Cluster(job, 4)
    assert cluster.step()
    records = list(cluster.pes[2].current)
    k %= len(records)
    assert k > 0 and records.count(records[k]) == 1
    target.append(records[k])
    with pytest.raises(JobError, match=rf"^PE 2, step 2, map of record {k}: KeyError") as info:
        cluster.step()
    assert (info.value.pe, info.value.step) == (2, 2)
    assert isinstance(info.value.__cause__, KeyError)


@pytest.mark.parametrize("k", [5, -1], ids=["middle", "last"])
@pytest.mark.parametrize("kind", ["tuple", "generator", "reduce"])
def test_unequal_map_columns_name_the_record(k, kind):
    # record k of PE 2 maps to two keys and one value at step 2, or PE
    # 2's key group k reduces to them; without the check the shuffle
    # would drop a value or fail on a bare index, and the next map would
    # pair a key with another record's value
    target = []

    def uneven_map(key, value):
        keys = (key, key) if (key, value) in target else (key,)
        if kind == "generator":
            return (k for k in keys), (v for v in (value,))
        return keys, (value,)

    def uneven_reduce(key, values):
        return (key,) * (len(values) + (key in target)), values

    if kind == "reduce":
        spec = StepSpec("uneven", identity_map, uneven_reduce)
    else:
        spec = StepSpec("uneven", uneven_map, identity_spec().reduce_fn)
    cluster = Cluster(Job(random_source(7), ListDriver([identity_spec(), spec])), 4)
    assert cluster.step()
    if kind == "reduce":
        # an identity step, so PE 2 reduces the keys it holds again
        held = cluster.pes[2].current.keys
        keys = sorted(set(held))
        key = keys[k % len(keys)]
        n = held.count(key)
        target.append(key)
        with pytest.raises(JobError) as info:
            cluster.step()
        cause = ValueError(f"reduce of key {key!r} returned {n + 1} keys and {n} values")
        assert str(info.value) == f"PE 2, step 2, reduce of key {key!r}: {cause!r}"
        assert (info.value.pe, info.value.step) == (2, 2)
        return
    records = list(cluster.pes[2].current)
    k %= len(records)
    target.append(records[k])
    with pytest.raises(JobError, match=(
        rf"^PE 2, step 2, map of record {k}: "
        rf"ValueError\('map of record {k} returned 2 keys and 1 values'\)$"
    )) as info:
        cluster.step()
    assert (info.value.pe, info.value.step) == (2, 2)


@pytest.mark.parametrize("result", [None, ((b"k",), (b"v",), ())], ids=["none", "triple"])
def test_a_map_result_that_is_no_pair_names_the_record(result):
    spec = StepSpec("bad", lambda key, value: result, identity_spec().reduce_fn)
    with pytest.raises(JobError, match=r"^PE 0, step 1, map of record 0: ") as info:
        run_job(Job(random_source(7), ListDriver([spec])), 4)
    assert isinstance(info.value.__cause__, (TypeError, ValueError))


def test_a_map_value_that_is_not_bytes_names_the_sender():
    spec = StepSpec("str", lambda key, value: ((key,), (value.hex(),)), identity_spec().reduce_fn)
    cluster = Cluster(Job(random_source(7), ListDriver([identity_spec(), spec])), 4)
    assert cluster.step()
    with pytest.raises(JobError, match=r"^PE 0, step 2, shuffle of a map value that is not bytes: "
                       r"TypeError") as info:
        cluster.step()
    assert (info.value.pe, info.value.step) == (0, 2)


@pytest.mark.parametrize("when", ["ingest", "input-replay"])
@pytest.mark.parametrize("wrong", [
    [Record(b"k", b"v")],
    Batch([b"k", b"j"], [b"v"]),
    Batch([b"k"], (b"v", b"w")),
], ids=["records", "more-keys", "more-values"])
def test_a_source_must_return_a_batch_of_equal_columns(wrong, when):
    # PE 1's source returns something else than a batch whose columns
    # have equal length, at ingest or when recovery regenerates its input
    # after it failed at step 1; the refusal names PE 1 at step 0
    calls = Counter()

    def fn(pe):
        calls[pe] += 1
        if pe == 1 and (when == "ingest" or calls[pe] > 1):
            return wrong
        return random_source(3).fn(pe)

    job = Job(RecordSource(fn), ListDriver([identity_spec()] * 2))
    with pytest.raises(JobError, match=r"^PE 1, step 0, source: ValueError") as info:
        run_job(job, 4, recovery_point_interval="input-only",
                failure_plan=parse_failure_spec("1:1"))
    assert (info.value.pe, info.value.step) == (1, 0)
    assert calls[1] == (1 if when == "ingest" else 2)


def test_reduce_errors_carry_context():
    def bad_reduce(key, values):
        raise ValueError("nope")

    spec = StepSpec("bad", identity_map, bad_reduce)
    with pytest.raises(JobError, match=r"step 1, reduce of key"):
        run_job(Job(random_source(8), ListDriver([spec])), 4)


# -- configuration guards -----------------------------------------------


def test_group_size_must_divide_p():
    with pytest.raises(ValueError, match="evenly divide"):
        run_job(identity_job(9), 4, group_size=3)


def test_group_spanning_all_pes_rejected():
    with pytest.raises(ValueError, match="no backup targets"):
        run_job(identity_job(9), 4, group_size=4)


def _uningestible_job():
    def fn(pe):
        raise AssertionError("a bad setting must be refused before ingest")

    return Job(RecordSource(fn), ListDriver([identity_spec()]))


@pytest.mark.parametrize(
    "settings",
    [
        dict(group_size=3),
        dict(group_size=0),
        dict(group_size=4),
        dict(recovery_point_interval=0),
        dict(recovery_point_interval="weekly"),
        dict(backup_mode="raid5"),
    ],
    ids=["group-divides", "group-zero", "group-spans", "interval-0",
         "interval-weekly", "backup-mode"],
)
def test_cluster_refuses_what_validate_refuses(settings):
    with pytest.raises(ConfigError) as want:
        JobConfig(p=4, **settings).validate()
    with pytest.raises(ConfigError) as got:
        Cluster(_uningestible_job(), 4, **settings)
    assert str(got.value) == str(want.value)


def test_cluster_refuses_unknown_pe_events():
    # the CLI prints this text as a configuration error
    with pytest.raises(ConfigError) as got:
        Cluster(_uningestible_job(), 4, failure_plan=parse_failure_spec("9:1;1:4"))
    assert str(got.value) == "failure event names unknown PEs [4]"


def test_recovery_point_schedule():
    every = recovery_point_schedule(1)
    assert all(every(s) for s in range(1, 6))
    third = recovery_point_schedule(3)
    assert [s for s in range(1, 10) if third(s)] == [1, 4, 7]
    never = recovery_point_schedule("input-only")
    assert not any(never(s) for s in range(1, 10))
    with pytest.raises(ValueError):
        recovery_point_schedule(0)
    with pytest.raises(ValueError):
        recovery_point_schedule("sometimes")


# -- backup modes agree fault-free --------------------------------------


def test_all_backup_modes_same_outputs():
    results = {
        mode: run_job(identity_job(10, steps=2), 4, backup_mode=mode)
        for mode in BackupMode
    }
    frozen = {
        mode: sorted(
            (pe, r.key, r.value)
            for pe, recs in res.outputs.items()
            for r in recs
        )
        for mode, res in results.items()
    }
    assert frozen[BackupMode.SPLIT] == frozen[BackupMode.SINGLE] == frozen[BackupMode.OFF]
    assert results[BackupMode.OFF].metrics.total_backup_bytes == 0
    assert results[BackupMode.SPLIT].metrics.total_backup_bytes > 0


# -- determinism --------------------------------------------------------


def test_equal_seeds_are_byte_identical():
    a = run_job(identity_job(11, steps=3), 4, ledger=DeliveryLedger())
    b = run_job(identity_job(11, steps=3), 4, ledger=DeliveryLedger())
    assert a.outputs == b.outputs
    assert a.metrics.to_csv() == b.metrics.to_csv()
    assert plain(a.ledger.deliveries) == plain(b.ledger.deliveries)


# -- log retention ------------------------------------------------------


def test_logs_keep_only_newest_recovery_point():
    cluster = Cluster(identity_job(12, steps=4), 4, recovery_point_interval=1)
    while cluster.step():
        step = cluster.steps_run
        for pe in cluster.pes:
            assert set(pe.sent_log) <= {step}
            assert set(pe.backup_store) <= {step}
        logged = sum(
            rec.size
            for pe in cluster.pes
            for payloads in pe.sent_log.values()
            for payload in payloads.values()
            for rec in payload
        )
        sm = cluster.metrics.step_metrics(step)
        assert logged == sm.network_bytes + sm.self_bytes


def test_logs_accumulate_between_recovery_points():
    cluster = Cluster(identity_job(13, steps=5), 4, recovery_point_interval=3)
    expected = {1: {1}, 2: {1, 2}, 3: {1, 2, 3}, 4: {4}, 5: {4, 5}}
    while cluster.step():
        step = cluster.steps_run
        held = set()
        for pe in cluster.pes:
            held |= set(pe.sent_log)
        assert held == expected[step]
        assert cluster.recovery_point == max(s for s in (1, 4) if s <= step)


def test_backup_shares_only_at_recovery_points():
    cluster = Cluster(identity_job(14, steps=4), 4, recovery_point_interval=3)
    while cluster.step():
        sm = cluster.metrics.step_metrics(cluster.steps_run)
        if cluster.steps_run in (1, 4):
            assert sm.backup_bytes == sm.self_bytes
        else:
            assert sm.backup_bytes == 0


def test_group_backups_leave_the_group():
    cluster = Cluster(identity_job(15), 8, group_size=2)
    cluster.step()
    stored = 0
    for holder in range(8):
        for (origin, _idx) in cluster.pes[holder].backup_store.get(1, {}):
            assert cluster.group_of[origin] != cluster.group_of[holder]
            stored += 1
    assert stored > 0
    # intra-group traffic counts as self traffic, cross-group as network
    sm = cluster.metrics.step_metrics(1)
    assert sm.backup_bytes == sm.self_bytes > 0


@pytest.mark.parametrize("config, plan", [
    (JobConfig(benchmark="pagerank", p=8, seed=6, vertices_per_pe=16, iterations=6), None),
    (JobConfig(benchmark="pagerank", p=8, seed=6, vertices_per_pe=16, iterations=6,
               group_size=2), None),
    (JobConfig(benchmark="pagerank", p=8, seed=6, vertices_per_pe=16, iterations=6,
               backup_mode="single"), None),
    (JobConfig(benchmark="pagerank", p=8, seed=6, vertices_per_pe=16, iterations=9,
               recovery_point_interval=3), "5:2"),
    (JobConfig(benchmark="cc", p=4, seed=6, **SCALES["cc"]), None),
    (JobConfig(benchmark="uniform", p=4, seed=6, **SCALES["uniform"]), None),
], ids=["pagerank", "pagerank-groups", "pagerank-single", "pagerank-interval-3", "cc",
        "uniform"])
def test_protected_recovery_points_back_up_every_self_byte(config, plan):
    # at a recovery point where every sender had a backup target, the
    # shares carry exactly the unit-internal traffic, and each holder is
    # charged the bytes of the shares it stores for that step
    cluster = Cluster(build_job(config), config.p, backup_mode=config.backup_mode,
                      recovery_point_interval=config.recovery_point_interval,
                      group_size=config.group_size,
                      failure_plan=parse_failure_spec(plan) if plan else None)
    checked = []
    while True:
        senders = set(cluster.live)
        if not cluster.step():
            break
        step = cluster.steps_run
        if not cluster.is_rp(step) or set(cluster.step_history[step].backup_manifest) != senders:
            continue
        sm = cluster.metrics.step_metrics(step)
        assert sm.backup_bytes == sm.self_bytes == sum(sm.backup_received.values()) > 0
        for holder in cluster.live:
            shares = cluster.pes[holder].backup_store.get(step, {}).values()
            stored = sum(entry[3].size for share in shares for entry in share)
            assert sm.backup_received.get(holder, 0) == stored
        checked.append(step)
    # every recovery point of these runs is protected
    assert checked == [s for s in range(1, cluster.steps_run + 1) if cluster.is_rp(s)] != []


# -- the cyclic collector pause -----------------------------------------


def test_ingest_and_steps_run_with_the_collector_paused():
    seen = []

    def source(pe):
        seen.append(gc.isenabled())
        return Batch([bytes([pe])], [b"v"])

    def map_fn(key, value):
        seen.append(gc.isenabled())
        return (key,), (value,)

    spec = StepSpec("watch", map_fn, identity_spec().reduce_fn)
    assert gc.isenabled()
    run_job(Job(RecordSource(source), ListDriver([spec] * 2)), 4)
    assert gc.isenabled()
    assert len(seen) == 4 + 2 * 4
    assert not any(seen)


class _SpanDriver:
    """Forwards to a driver; ``in_span`` holds from its first ``next_step``
    call until the call that ends the job."""

    def __init__(self, driver):
        self.driver = driver
        self.in_span = False

    def next_step(self, index, prev_aggregate):
        self.in_span = True
        spec = self.driver.next_step(index, prev_aggregate)
        self.in_span = spec is not None
        return spec


def test_run_job_pauses_the_collector_across_steps():
    config = JobConfig(
        benchmark="pagerank", p=4, vertices_per_pe=16, iterations=8,
        recovery_point_interval=24,
    )
    job = build_job(config)
    driver = _SpanDriver(job.driver)
    collections = []

    def watch(phase, info):
        if phase == "start" and driver.in_span:
            collections.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(watch)
    try:
        result = run_job(Job(job.source, driver), config.p,
                         recovery_point_interval=24)
    finally:
        gc.callbacks.remove(watch)
    assert result.steps_run == 8
    assert collections == []
    assert gc.isenabled()


def _raise_key_error(key, value):
    raise KeyError("boom")


def _watched(job, seen, fail=False):
    """``job`` with a source that notes whether the collector is on, then
    raises ``ValueError`` during ingest when ``fail`` is set."""

    def fn(pe):
        seen.append(gc.isenabled())
        if fail:
            raise ValueError("ingest failed")
        return job.source.fn(pe)

    return Job(RecordSource(fn), job.driver)


@pytest.mark.parametrize("was_enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize(
    "action, raises",
    [
        (lambda seen: run_job(_watched(identity_job(10), seen), 4), None),
        (
            lambda seen: run_job(
                _watched(Job(random_source(7), ListDriver([
                    StepSpec("bad", _raise_key_error, lambda k, v: ((), ()))
                ])), seen),
                4,
            ),
            JobError,
        ),
        (
            lambda seen: run_job(
                _watched(identity_job(11), seen), 4, backup_mode=BackupMode.OFF,
                failure_plan=parse_failure_spec("1:1"),
            ),
            UnrecoverableFailure,
        ),
        (
            lambda seen: run_job(_watched(identity_job(9), seen, fail=True), 4),
            ValueError,
        ),
    ],
    ids=["step", "step-job-error", "step-unrecoverable", "init-value-error"],
)
def test_collector_state_restored_on_every_exit(action, raises, was_enabled):
    # run_job holds the collector off while the job runs (the source sees
    # it off) and leaves it as the caller had it, however the run ends
    before = gc.isenabled()
    (gc.enable if was_enabled else gc.disable)()
    seen = []
    try:
        if raises is None:
            action(seen)
        else:
            with pytest.raises(raises):
                action(seen)
        assert gc.isenabled() is was_enabled
    finally:
        (gc.enable if before else gc.disable)()
    assert seen and not any(seen)


class _SelfRef:
    """Refers to itself, so only the cyclic collector can free it."""

    def __init__(self):
        self.me = self


def _pagerank_making_cycles(refs):
    """A small PageRank job whose map makes one reference cycle per call
    and watches it through a weak reference appended to ``refs``."""
    job = build_job(JobConfig(benchmark="pagerank", p=4, seed=3,
                              vertices_per_pe=8, iterations=3))
    spec = job.driver.steps[0]

    def map_fn(key, value):
        refs.append(weakref.ref(_SelfRef()))
        return spec.map_fn(key, value)

    cycling = StepSpec(spec.name, map_fn, spec.reduce_fn)
    return Job(job.source, ListDriver([cycling] * len(job.driver.steps)))


def test_run_survivors_land_in_the_oldest_generation():
    refs = []
    job = _pagerank_making_cycles(refs)
    gc.collect()  # no young-generation collection is due during the run
    result = run_job(job, 4)
    oldest = {id(obj) for obj in gc.get_objects(generation=2)}
    assert all(id(records) in oldest for records in result.outputs.values())
    # promoted, not frozen: a full collection still frees the map's cycles
    assert gc.get_freeze_count() == 0
    assert refs
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_a_callers_frozen_objects_stay_frozen():
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        run_job(_pagerank_making_cycles([]), 4)
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()
