"""Failure injection and recovery: rebuild, replay, refusal."""

import copy
import random
from collections import Counter
from itertools import chain
from types import SimpleNamespace

import pytest

import ftmr.engine
import ftmr.recovery
from ftmr.config import JobConfig
from ftmr.engine import (
    Cluster,
    Job,
    JobError,
    ListDriver,
    RecordSource,
    StepSpec,
    identity_map,
    run_job,
)
from ftmr.harness import (
    FailurePlan,
    build_job,
    outputs_match,
    parse_failure_spec,
    run_simulation,
    sweep_failures,
    verify,
)
from ftmr.metrics import ORIGINAL, RECOVERY, DeliveryLedger
from ftmr.partition import PartitionMap, hash_key, initial_partition, shrink_partition
from ftmr.recovery import FailureEvent, UnrecoverableFailure
from oracles import (
    batch_of,
    expand,
    inject_reference,
    plain,
    relog_mapped_reference,
    relog_pending_reference,
    unit_entries,
)
from test_golden import SCALES


def cc_config(**kwargs):
    kwargs.setdefault("benchmark", "cc")
    kwargs.setdefault("p", 4)
    kwargs.setdefault("seed", 3)
    kwargs.setdefault("vertices_per_pe", 16)
    return JobConfig(**kwargs)


def run_pair(config, spec, ledger=None):
    reference = run_simulation(config)
    result = run_simulation(config, parse_failure_spec(spec), ledger=ledger)
    return reference, result


def assert_same_outputs(config, spec, ledger=None):
    reference, result = run_pair(config, spec, ledger)
    assert outputs_match(reference.outputs, result.outputs) == []
    assert result.steps_run == reference.steps_run
    return result


# -- single failures ----------------------------------------------------


@pytest.mark.parametrize("options, spec", [
    (dict(p=4, recovery_point_interval=3), "3:2"),
    (dict(p=4, recovery_point_interval="input-only"), "2:1;4:3"),
    (dict(p=8, group_size=2, recovery_point_interval=3), "2:0,1;4:4,5"),
], ids=["rp3", "input-only", "groups"])
def test_recovered_value_order_is_pinned(options, spec):
    # recovery hands a dead PE's score shares to its reduce in another
    # order; PageRank's reduce ignores that order, so the recovered
    # outputs equal the fault-free ones bit for bit
    config = JobConfig(benchmark="pagerank", seed=7, vertices_per_pe=8,
                       avg_degree=4, iterations=4, **options)
    assert_same_outputs(config, spec)


def test_recovery_notes_land_on_new_owners():
    # replayed reduces and injected records are noted per new owner
    config = JobConfig(benchmark="pagerank", p=4, seed=7, vertices_per_pe=8,
                       iterations=4, recovery_point_interval=3)
    led = DeliveryLedger()
    run_simulation(config, parse_failure_spec("3:2"), ledger=led)
    pm_new = shrink_partition(initial_partition(4), {2})
    recovered = {k: b for k, b in led.deliveries.items() if k[2] == RECOVERY}
    assert {step for (step, _dst, _gen) in recovered} == {1, 2, 3}
    for (_step, dst, _gen), batches in recovered.items():
        owners = {pm_new.owner_of(hash_key(rec.key)) for rec in chain.from_iterable(batches)}
        assert owners == {dst}


@pytest.fixture
def hash_log(monkeypatch):
    """Every key hashed (``keys``) and every owner lookup (``lookups``,
    as ``(map, key hash)``) the run makes."""
    log = SimpleNamespace(keys=[], lookups=[])
    owner_of = PartitionMap.owner_of
    monkeypatch.setattr(
        "ftmr.partition.hash_key", lambda key: log.keys.append(key) or hash_key(key)
    )
    monkeypatch.setattr(
        PartitionMap, "owner_of", lambda pm, h: log.lookups.append((pm, h)) or owner_of(pm, h)
    )
    return log


def test_single_failure_hashes_each_key_once_per_map(hash_log):
    config = JobConfig(benchmark="pagerank", p=4, seed=3, vertices_per_pe=8,
                       iterations=6, recovery_point_interval=3)
    run_simulation(config, parse_failure_spec("5:1"))
    assert len(hash_log.keys) == len(hash_log.lookups)
    assert len({pm for pm, _h in hash_log.lookups}) == 2
    assert set(Counter(hash_log.lookups).values()) == {1}


def test_input_only_replay_hashes_once_per_map(hash_log):
    # the second failure replays steps 1-3 under the first map and
    # steps 4-6 under the second, through the memos the steps shuffled
    # with: each of the 3 maps' 32 keys is hashed once per run
    config = JobConfig(benchmark="pagerank", p=4, seed=3, vertices_per_pe=8,
                       iterations=8, recovery_point_interval="input-only")
    run_simulation(config, parse_failure_spec("3:1;6:2"))
    assert len({pm for pm, _h in hash_log.lookups}) == 3
    assert len(hash_log.keys) <= 3 * 32


def test_ledger_sees_what_injection_delivered(monkeypatch):
    # cc's reducers ignore duplicate edges, so only the ledger can tell
    # that injection delivered a recovered record twice
    config = cc_config(seed=5, recovery_point_interval=3)
    plan = parse_failure_spec("2:1")
    reference = run_simulation(config, ledger=DeliveryLedger())
    inject = ftmr.recovery._inject

    def inject_one_twice(cluster, t, held, owners_new):
        sent = inject(cluster, t, held, owners_new)
        holder, rec = next((h, next(iter(batch))) for h, batch in held.items() if batch)
        inbox = cluster.pes[owners_new[rec.key]].inbox
        inbox[holder] = batch_of([*inbox.get(holder, ()), rec])
        return sent

    monkeypatch.setattr(ftmr.recovery, "_inject", inject_one_twice)
    result = run_simulation(config, plan, ledger=DeliveryLedger())
    assert verify(result, reference, plan) == [
        "step 2: recovered stream mismatch (0 missing, 1 duplicated/re-sent)"
    ]


@pytest.mark.parametrize("workload", list(SCALES))
def test_delivered_batches_never_change(monkeypatch, workload):
    # a delivered batch is the sender's log entry, the receiver's inbox
    # entry and the ledger's batch at once, and a reused route's key column
    # is every batch's it delivers, so at the end of a run every batch the
    # ledger was handed still holds the columns it held when noted, with
    # the contents they held; one failure at step 2, and two at steps 1
    # and 3
    noted = []
    note = DeliveryLedger.note

    def keep(ledger, step, dst, generation, batch):
        noted.append((batch, batch.keys, batch.values, tuple(batch.keys), tuple(batch.values)))
        return note(ledger, step, dst, generation, batch)

    monkeypatch.setattr(DeliveryLedger, "note", keep)
    recoveries = 0
    for interval in (1, 3, "input-only"):
        config = JobConfig(benchmark=workload, p=4, seed=5,
                           recovery_point_interval=interval, **SCALES[workload])
        for spec in ("2:1", "1:0;3:3"):
            result = run_simulation(config, parse_failure_spec(spec), ledger=DeliveryLedger())
            recoveries += len(result.metrics.recoveries)
            changed = sum(
                batch.keys is not keys or batch.values is not values
                or tuple(keys) != was_keys or tuple(values) != was_values
                for batch, keys, values, was_keys, was_values in noted
            )
            assert changed == 0, f"interval {interval}, plan {spec}"
            noted.clear()
    assert recoveries


@pytest.mark.parametrize("config, spec", [
    (JobConfig(benchmark="pagerank", p=8, group_size=2, seed=4, vertices_per_pe=8,
               iterations=6, recovery_point_interval=3), "5:2,3"),
    (JobConfig(benchmark="pagerank", p=8, group_size=2, seed=4, vertices_per_pe=8,
               iterations=6), "3:4,5"),
    (cc_config(seed=5, recovery_point_interval="input-only"), "2:1;4:2"),
], ids=["pagerank-groups-replay", "pagerank-groups", "cc-input-only"])
def test_recovery_batches_match_a_per_record_walk(monkeypatch, config, spec):
    # every list recovery touches, as each reduce reads the cluster
    def run(walk):
        seen = []
        calls = Counter()
        reduce_phase = ftmr.engine.reduce_phase

        def snapshot(cluster, reduce_fn, step, counter_fn):
            seen.append((
                {i: copy.deepcopy(cluster.pes[i].inbox) for i in sorted(cluster.live)},
                {i: copy.deepcopy(cluster.pes[i].sent_log) for i in sorted(cluster.live)},
                {s: copy.deepcopy(h.guards) for s, h in cluster.step_history.items()},
            ))
            return reduce_phase(cluster, reduce_fn, step, counter_fn)

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        with monkeypatch.context() as m:
            m.setattr(ftmr.engine, "reduce_phase", snapshot)
            for name, fn in walk.items():
                m.setattr(ftmr.recovery, name, counted(name, fn))
            result = run_simulation(config, parse_failure_spec(spec))
        return seen, calls, result

    names = ("_inject", "_relog_pending", "_relog_mapped")
    batched, calls, got = run({name: getattr(ftmr.recovery, name) for name in names})
    walked, _, want = run({
        "_inject": inject_reference,
        "_relog_pending": relog_pending_reference,
        "_relog_mapped": relog_mapped_reference,
    })
    assert calls["_inject"] == len(spec.split(";"))
    if config.recovery_point_interval == "input-only":
        assert calls["_relog_pending"] and calls["_relog_mapped"]
    assert len(batched) == len(walked) == got.steps_run
    for step, (a, b) in enumerate(zip(batched, walked), 1):
        for name, x, y in zip(("inboxes", "sent logs", "guards"), a, b):
            assert plain(x) == plain(y), f"step {step}: {name} differ"
    assert [(r.bytes_resent, r.backup_repair_bytes) for r in got.metrics.recoveries] == [
        (r.bytes_resent, r.backup_repair_bytes) for r in want.metrics.recoveries
    ]
    assert got.outputs == want.outputs


def test_ledger_holds_what_each_reduce_reads(monkeypatch):
    # the failure falls mid-interval, so recovery replays step 1 as well
    read = {}
    reduce_phase = ftmr.engine.reduce_phase

    def snapshot(cluster, reduce_fn, step, counter_fn):
        for i in cluster.live:
            inbox = cluster.pes[i].inbox
            read[(step, i)] = Counter(rec for recs in inbox.values() for rec in recs)
        return reduce_phase(cluster, reduce_fn, step, counter_fn)

    monkeypatch.setattr(ftmr.engine, "reduce_phase", snapshot)
    config = cc_config(seed=5, recovery_point_interval=3)
    result = run_simulation(config, parse_failure_spec("2:1"), ledger=DeliveryLedger())
    ledger = result.ledger
    assert result.metrics.recoveries[0].replayed_steps == (1,)
    assert {s for s, _ in read} == set(range(1, result.steps_run + 1))
    for (step, i), inbox in read.items():
        # a replayed step's recovery notes are the failed PE's rebuilt
        # inbox, which that PE read before it failed
        injected = ledger.bucket(step, i, RECOVERY) if step == 2 else Counter()
        assert ledger.bucket(step, i, ORIGINAL) + injected == inbox, (step, i)
    assert ledger.step_total(1, RECOVERY) == read[(1, 1)]


def test_single_failure_wordcount():
    config = JobConfig(benchmark="wordcount", p=4, seed=7,
                       words_per_pe=400, dict_words=50)
    result = assert_same_outputs(config, "1:2", ledger=DeliveryLedger())
    assert sorted(result.outputs) == [0, 1, 3]
    (rec,) = result.metrics.recoveries
    assert rec.step == 1
    assert rec.failed == (2,)
    assert rec.recovery_point == 1
    assert rec.replayed_steps == ()
    assert rec.records_recomputed > 0
    assert rec.bytes_resent > 0
    assert sum(result.ledger.step_total(1, RECOVERY).values()) > 0


def test_sweep_cc_every_position():
    assert sweep_failures(cc_config()).ok


def test_sweep_cc_interval_3():
    assert sweep_failures(cc_config(recovery_point_interval=3)).ok


def test_sweep_cc_input_only():
    result = sweep_failures(cc_config(recovery_point_interval="input-only"))
    assert result.ok
    assert result.reference.metrics.total_backup_bytes == 0


def test_sweep_pagerank_exact_scores():
    config = JobConfig(benchmark="pagerank", p=4, seed=5, vertices_per_pe=8,
                       avg_degree=4, iterations=4)
    assert sweep_failures(config).ok


def test_sweep_failure_groups():
    assert sweep_failures(cc_config(p=8, vertices_per_pe=8, group_size=2)).ok


def test_single_pe_of_a_group_recovers_from_shares():
    # PE 5 fails without its group partner PE 4.  PE 5's shares at the
    # recovery point also hold its sends to PE 4, which PE 4 has already
    # received; only the sends to PE 5 itself belong in its rebuilt inbox
    config = cc_config(p=8, seed=4, vertices_per_pe=32, group_size=2,
                       recovery_point_interval=3)
    plan = parse_failure_spec("2:5")
    reference = run_simulation(config, ledger=DeliveryLedger())
    result = run_simulation(config, plan, ledger=DeliveryLedger())
    assert [r.recovery_point for r in result.metrics.recoveries] == [1]
    assert verify(result, reference, plan) == []


@pytest.mark.parametrize("config, spec", [
    (JobConfig(benchmark="pagerank", p=8, seed=4, vertices_per_pe=8, group_size=2,
               iterations=6, recovery_point_interval=3), "2:5"),
    (JobConfig(benchmark="wordcount", p=8, seed=4, words_per_pe=200, dict_words=40,
               group_size=2), "1:2"),
], ids=["pagerank", "wordcount"])
def test_single_pe_of_a_group_rebuilds_only_its_own_sends(config, spec):
    # the failing PE's shares also hold its sends to its live partner;
    # PageRank refuses a group with a second adjacency or none, and word
    # count would count those sends twice
    plan = parse_failure_spec(spec)
    reference = run_simulation(config, ledger=DeliveryLedger())
    result = run_simulation(config, plan, ledger=DeliveryLedger())
    assert [r.recovery_point for r in result.metrics.recoveries] == [1]
    assert verify(result, reference, plan) == []


@pytest.mark.parametrize("config, spec", [
    (cc_config(p=4, seed=5, recovery_point_interval="input-only"), "2:1;4:2"),
    (JobConfig(benchmark="pagerank", p=4, seed=5, vertices_per_pe=8, iterations=5,
               recovery_point_interval="input-only"), "1:0;3:3"),
], ids=["cc", "pagerank"])
def test_recovery_logs_nothing_for_a_pe_already_down(monkeypatch, config, spec):
    # what the survivors logged for a PE that is down is never read
    # again, so a recovery leaves those entries as they were: the input
    # replay re-logs the unit's recomputed sends for live PEs only
    recover = ftmr.recovery.recover
    seen = []

    def logged_for_the_dead(cluster):
        return {
            (src, step, dst): batch
            for src in sorted(cluster.live)
            for step, log in cluster.pes[src].sent_log.items()
            for dst, batch in log.items() if dst not in cluster.live
        }

    def watched(cluster, event):
        survivors = cluster.live - set(event.failed)
        before = {k: b for k, b in logged_for_the_dead(cluster).items() if k[0] in survivors}
        recover(cluster, event)
        after = {k: b for k, b in logged_for_the_dead(cluster).items() if k[2] not in event.failed}
        seen.append(len(before))
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)

    monkeypatch.setattr(ftmr.recovery, "recover", watched)
    reference, result = run_pair(config, spec)
    assert outputs_match(reference.outputs, result.outputs) == []
    # the second recovery found entries for the PE the first took down
    assert seen[0] == 0 < seen[1]


def test_sweep_single_backup_mode():
    assert sweep_failures(cc_config(backup_mode="single")).ok


def test_replay_windows():
    # interval=3 puts recovery points at steps 1 and 4
    config = cc_config(recovery_point_interval=3)
    result = assert_same_outputs(config, "3:1")
    (rec,) = result.metrics.recoveries
    assert (rec.recovery_point, rec.replayed_steps) == (1, (1, 2))
    result = assert_same_outputs(config, "5:1")
    (rec,) = result.metrics.recoveries
    assert (rec.recovery_point, rec.replayed_steps) == (4, (4,))


@pytest.mark.parametrize("config, spec, built", [
    (JobConfig(benchmark="pagerank", p=4, seed=5, vertices_per_pe=8, iterations=8,
               recovery_point_interval=6), "5:1", [None, None, "L", "L"]),
    # cc's key lists change from step to step, so no layout is built
    (cc_config(recovery_point_interval=3), "3:1;6:2", [None] * 4),
], ids=["pagerank", "cc-interval-3"])
def test_replay_groups_like_group_entries_over_a_kept_layout(monkeypatch, config, spec, built):
    # every replayed reduce's groups against a fresh grouping of its
    # rebuilt inbox; per call, the layout it was given ("L" in ``built``)
    group_entries = ftmr.recovery.group_entries
    replay_reduce = ftmr.recovery._replay_reduce
    layouts = []

    def checked(held, layout=None):
        got = group_entries(held, layout)
        assert [(key, list(values)) for key, values in got] == group_entries(held)
        layouts.append(layout)
        return got

    def kept(cluster, *args):
        out = replay_reduce(cluster, *args)
        assert cluster.layouts["replay"][1] is layouts[-1]
        return out

    monkeypatch.setattr(ftmr.recovery, "group_entries", checked)
    monkeypatch.setattr(ftmr.recovery, "_replay_reduce", kept)
    cluster = Cluster(build_job(config), config.p, failure_plan=parse_failure_spec(spec),
                      recovery_point_interval=config.recovery_point_interval)
    while cluster.step():
        # derived state: the recovery's slot goes with it
        assert "replay" not in cluster.layouts
    assert len(layouts) == sum(len(r.replayed_steps) for r in cluster.metrics.recoveries)
    # the recovery point's inbox holds shares and the next one replayed
    # self-sends, each on other holders; from then on PageRank's holders
    # send the same keys, so the third replayed reduce builds the layout
    # that every later one uses
    assert [None if layout is None else "L" for layout in layouts] == built
    assert len({id(layout) for layout in layouts if layout is not None}) <= 1


class _Recorded:
    """A driver that notes every call it answers."""

    def __init__(self, driver):
        self.driver = driver
        self.calls = []

    def next_step(self, index, prev_aggregate):
        self.calls.append((index, prev_aggregate))
        return self.driver.next_step(index, prev_aggregate)


@pytest.mark.parametrize("config, spec", [
    # a failure mid-interval: recovery point 4, steps 4 and 5 replayed
    (JobConfig(benchmark="pagerank", p=4, seed=5, vertices_per_pe=8, iterations=8,
               recovery_point_interval=3), "6:1"),
    (cc_config(recovery_point_interval=3), "3:1;6:2"),
], ids=["pagerank-interval-3", "cc-interval-3"])
def test_replay_runs_on_the_specs_of_a_fresh_job(monkeypatch, config, spec):
    # the StepSpec purity contract: before each recovery, every retained
    # step's spec is swapped for that step's spec from a freshly built
    # job, so the replay shares no state (such as PageRank's map cache)
    # with the run, and the run stays byte for byte the same
    plan = parse_failure_spec(spec)
    reference = run_simulation(config, plan, ledger=DeliveryLedger())
    job = build_job(config)
    driver = _Recorded(job.driver)
    recover = ftmr.recovery.recover
    swapped = []

    def recover_fresh(cluster, event):
        fresh = build_job(config).driver
        specs = {index: fresh.next_step(index, aggregate) for index, aggregate in driver.calls}
        for step, record in cluster.step_history.items():
            assert specs[step] is not record.spec
            record.spec = specs[step]
            swapped.append(step)
        recover(cluster, event)

    monkeypatch.setattr(ftmr.recovery, "recover", recover_fresh)
    result = run_job(Job(job.source, driver), config.p, failure_plan=plan,
                     recovery_point_interval=config.recovery_point_interval,
                     ledger=DeliveryLedger())
    assert len(result.metrics.recoveries) == len(plan.events)
    assert swapped
    assert result.outputs == reference.outputs
    assert result.metrics.to_csv() == reference.metrics.to_csv()
    assert plain(result.ledger.deliveries) == plain(reference.ledger.deliveries)


def test_input_replay_window():
    config = cc_config(recovery_point_interval="input-only")
    result = assert_same_outputs(config, "3:2")
    (rec,) = result.metrics.recoveries
    assert rec.recovery_point == 0
    assert rec.replayed_steps == (1, 2)


def _random_source(pe):
    rng = random.Random(pe)
    return batch_of([(rng.randbytes(6), rng.randbytes(4)) for _ in range(30)])


def _identity_reduce(key, values):
    return (key,) * len(values), values


def test_replay_map_error_names_the_holder():
    # step 2's map raises on the first record it sees twice: the replay
    # of failed PE 1's step-2 map, from recovery point 1, on a survivor
    seen, again = set(), []

    def step2_map(*rec):
        if rec in seen:
            again.append(rec)
            raise KeyError("replay")
        seen.add(rec)
        return rec[:1], rec[1:]

    driver = ListDriver([StepSpec("one", identity_map, _identity_reduce),
                         StepSpec("two", step2_map, _identity_reduce)])
    with pytest.raises(JobError, match=r"^PE \d, step 2, map during replay: KeyError") as info:
        run_job(Job(RecordSource(_random_source), driver), 4, recovery_point_interval=2,
                failure_plan=parse_failure_spec("2:1"))
    ((key, _),) = again
    holder = shrink_partition(initial_partition(4), {1}).owner_of(hash_key(key))
    assert holder != 1
    assert (info.value.pe, info.value.step) == (holder, 2)


@pytest.mark.parametrize("uneven", ["map", "reduce"])
def test_unequal_replay_map_columns_name_the_holder(uneven):
    # step 2's map returns two keys and one value for a record it sees
    # twice: the replay of failed PE 1's step-2 map on a survivor, which
    # maps its records in the order the replayed reduce produced them.
    # Or step 1's reduce does so for one of PE 1's keys when it sees it
    # twice, in the replay of PE 1's step-1 reduce: the key's new owner
    # runs that group and is charged with it, not the owner of the first
    # key replayed
    seen, again, target = set(), [], []

    def step2_map(*rec):
        if rec in seen:
            again.append(rec)
            return (rec[0], rec[0]), rec[1:]
        seen.add(rec)
        return rec[:1], rec[1:]

    def step1_reduce(key, values):
        if key in target and key in seen:
            return (key,) * (len(values) + 1), values
        seen.add(key)
        return _identity_reduce(key, values)

    if uneven == "map":
        steps = [StepSpec("one", identity_map, _identity_reduce),
                 StepSpec("two", step2_map, _identity_reduce)]
    else:
        steps = [StepSpec("one", identity_map, step1_reduce),
                 StepSpec("two", identity_map, _identity_reduce)]
    cluster = Cluster(Job(RecordSource(_random_source), ListDriver(steps)), 4,
                      recovery_point_interval=2, failure_plan=parse_failure_spec("2:1"))
    assert cluster.step()
    pm = shrink_partition(initial_partition(4), {1})
    if uneven == "reduce":
        # PE 1's step-1 reduce kept its inbox's keys, one output a value
        held = cluster.pes[1].current.keys
        keys = sorted(set(held))
        key = next(k for k in keys if pm.owner_of(hash_key(k)) != pm.owner_of(hash_key(keys[0])))
        n = held.count(key)
        target.append(key)
        with pytest.raises(JobError) as info:
            cluster.step()
        cause = ValueError(f"reduce of key {key!r} returned {n + 1} keys and {n} values")
        owner = pm.owner_of(hash_key(key))
        assert str(info.value) == f"PE {owner}, step 1, reduce during replay: {cause!r}"
        assert (info.value.pe, info.value.step) == (owner, 1)
        return
    with pytest.raises(JobError, match=(
        r"^PE \d, step 2, map during replay: "
        r"ValueError\('map of record 0 returned 2 keys and 1 values'\)$"
    )) as info:
        cluster.step()
    holders = {pm.owner_of(hash_key(key)) for key, _ in again}
    assert info.value.pe in holders and 1 not in holders
    assert info.value.step == 2


def test_single_recoverer_transfers_whole_range():
    config = JobConfig(benchmark="wordcount", p=4, seed=7, words_per_pe=400,
                       dict_words=50, single_recoverer=True)
    reference, result = run_pair(config, "1:1")
    def counter(records):
        from collections import Counter
        return Counter((r.key, r.value) for r in records)
    # the heir (lowest survivor) absorbs the failed range wholesale;
    # every other survivor's local output is untouched
    assert counter(result.outputs[0]) == counter(
        reference.outputs[0] + reference.outputs[1]
    )
    for pe in (2, 3):
        assert counter(result.outputs[pe]) == counter(reference.outputs[pe])


def test_single_recoverer_heir_is_the_backup_holder():
    # interval 2 puts recovery points at steps 1 and 3; PE 1 fails at
    # step 4, so its single backup share of step 3 names the heir: PE 2,
    # the next PE, not the lowest survivor
    config = JobConfig(benchmark="pagerank", p=4, seed=7, vertices_per_pe=8,
                       iterations=4, recovery_point_interval=2,
                       backup_mode="single", single_recoverer=True)
    reference, result = run_pair(config, "4:1")
    assert outputs_match(reference.outputs, result.outputs) == []

    def keys(records):
        return {rec.key for rec in records}

    assert keys(result.outputs[2]) == keys(reference.outputs[1] + reference.outputs[2])
    for pe in (0, 3):
        assert keys(result.outputs[pe]) == keys(reference.outputs[pe])
    (rec,) = result.metrics.recoveries
    assert (rec.recovery_point, rec.replayed_steps) == (3, (3,))
    assert rec.bytes_resent == 4604


# -- several failures inside one protection interval --------------------


def test_sequential_failures_every_pair_interval_1():
    # with a recovery point at every step, any two distinct-PE failures
    # at distinct steps must recover exactly
    config = cc_config()
    reference = run_simulation(config)
    tried = 0
    for s1 in range(1, 4):
        for u1 in range(4):
            for s2 in range(s1 + 1, min(s1 + 2, reference.steps_run) + 1):
                for u2 in range(4):
                    if u2 == u1:
                        continue
                    plan = FailurePlan((
                        FailureEvent(s1, frozenset({u1})),
                        FailureEvent(s2, frozenset({u2})),
                    ))
                    result = run_simulation(config, plan)
                    assert outputs_match(
                        reference.outputs, result.outputs
                    ) == [], f"failing {u1}@{s1} then {u2}@{s2}"
                    tried += 1
    assert tried == 72


def test_sequential_failures_triple_interval_1():
    assert_same_outputs(cc_config(p=5), "1:1;2:2;3:3")
    assert_same_outputs(cc_config(p=5), "2:1;3:0;4:3")


def test_sequential_failure_uses_repaired_shares():
    # PE 1 dies at the step-1 recovery point and takes backup shares it
    # held for others with it; PE 3's death one step later can only be
    # recovered if those shares were re-created on live peers
    result = assert_same_outputs(cc_config(recovery_point_interval=2), "1:1;2:3")
    assert [r.recovery_point for r in result.metrics.recoveries] == [1, 1]
    assert result.metrics.recoveries[0].backup_repair_bytes > 0


def test_repaired_manifest_names_live_holders():
    # PE 1 dies at the step-1 recovery point with the shares it held for
    # the others; each lost slot is refilled on a live peer that holds
    # the share under the slot's index
    cluster = Cluster(build_job(cc_config()), 4, recovery_point_interval=2,
                      failure_plan=parse_failure_spec("1:1"))
    assert cluster.step()
    assert cluster.metrics.recoveries[0].backup_repair_bytes > 0
    r = cluster.recovery_point
    manifest = cluster.step_history[r].backup_manifest
    for origin in sorted(cluster.live):
        assert len(manifest[origin]) == 3
        entries = unit_entries(origin, cluster.pes[origin].sent_log[r], cluster.group_of)
        for k, holder in enumerate(manifest[origin]):
            assert holder in cluster.live
            # a repaired share holds the same slice as the one it replaces
            assert expand(cluster.pes[holder].backup_store[r][(origin, k)], 3) == entries[k::3]


def assert_shares_follow_send_logs(cluster) -> set:
    """Check that every share a live PE keeps for a live origin is its
    slice of the origin's send log; return the slots checked."""
    checked = set()
    for holder in sorted(cluster.live):
        for r, store in cluster.pes[holder].backup_store.items():
            manifest = cluster.step_history[r].backup_manifest
            for (origin, k), share in store.items():
                if origin not in cluster.live:
                    continue
                entries = unit_entries(
                    origin, cluster.pes[origin].sent_log[r], cluster.group_of
                )
                n = len(manifest[origin])
                assert manifest[origin][k] == holder
                assert expand(share, n) == entries[k::n]
                checked.add((r, origin, k))
    return checked


@pytest.mark.parametrize("interval, plan", [
    (1, "1:{0};3:{1}"), (1, "2:{1};3:{2}"), (3, "2:{0};4:{1}"), (3, "1:{0};5:{2}"),
])
@pytest.mark.parametrize("backup", ["split", "single"])
@pytest.mark.parametrize("p, group_size", [(4, 1), (8, 2)], ids=["p4-singles", "p8-pairs"])
def test_every_share_is_its_slice_of_the_send_log(
    p, group_size, backup, interval, plan, monkeypatch
):
    # both events kill holders of live origins' shares, so each recovery
    # re-cuts some from the origins' send logs; after every step, every
    # share kept for a live origin, repaired or not, expands to that
    # origin's slice of the per-record reference split (unit_entries)
    units = [
        ",".join(map(str, range(u * group_size, (u + 1) * group_size)))
        for u in range(p // group_size)
    ]
    spec = plan.format(units[0], units[1], units[-1])
    config = JobConfig(
        benchmark="pagerank", p=p, seed=3, vertices_per_pe=8, iterations=6,
        group_size=group_size, recovery_point_interval=interval, backup_mode=backup,
    )
    repaired = []
    repair = ftmr.recovery._repair_shares

    def spy(cluster, r, failed):
        manifest = cluster.step_history[r].backup_manifest
        lost = {
            (r, origin, k) for origin in cluster.live
            for k, holder in enumerate(manifest.get(origin, ())) if holder in failed
        }
        repaired.append(lost)
        shipped = repair(cluster, r, failed)
        # repair is charged the bytes of the shares it re-stored
        stored = sum(
            entry[3].size for _, origin, k in lost
            for entry in cluster.pes[manifest[origin][k]].backup_store[r][(origin, k)]
        )
        assert shipped == stored
        return shipped

    monkeypatch.setattr(ftmr.recovery, "_repair_shares", spy)
    cluster = Cluster(build_job(config), p, backup_mode=backup,
                      recovery_point_interval=interval, group_size=group_size,
                      failure_plan=parse_failure_spec(spec))
    checked = set()
    while cluster.step():
        checked |= assert_shares_follow_send_logs(cluster)
    assert len(repaired) == 2 and all(repaired)
    assert set().union(*repaired) <= checked
    reference = run_simulation(config)
    assert outputs_match(reference.outputs, cluster.result().outputs) == []


def test_sequential_failures_input_only():
    config = cc_config(recovery_point_interval="input-only")
    assert_same_outputs(config, "1:1;3:2")
    assert_same_outputs(config, "2:0;4:3")
    assert_same_outputs(cc_config(p=5, recovery_point_interval="input-only"),
                        "1:1;2:0;3:3")


def test_mid_interval_second_failure_refused():
    # PE 1 dies between recovery points; its step-1 sends were consumed
    # by the replay and cannot be reconstructed, so a second failure in
    # the same interval must refuse instead of silently losing records
    config = cc_config(recovery_point_interval=3)
    with pytest.raises(UnrecoverableFailure, match="lost for good.*mid-interval"):
        run_simulation(config, parse_failure_spec("2:1;3:2"))
    # once the next recovery point retires the damaged interval, later
    # failures recover again
    result = assert_same_outputs(config, "2:1;4:2")
    assert [r.recovery_point for r in result.metrics.recoveries] == [1, 4]


def test_lost_reprotection_holder_refused():
    # the first recovery re-logs rebuilt records on peer PEs; when such a
    # holder later dies, the inboxes it guarded are no longer protected
    # and a failure needing them must refuse
    config = cc_config(p=5, recovery_point_interval="input-only")
    with pytest.raises(UnrecoverableFailure, match="lost its only off-PE copy"):
        run_simulation(config, parse_failure_spec("1:1;3:2;5:0"))


@pytest.mark.parametrize("spec", ["2:1;3:2", "1:1;2:2;3:0"])
def test_refusal_state_retires_at_the_next_recovery_point(spec):
    # Step 3 is a recovery point and starts a new interval, so the last
    # failure must recover from it whatever the interval 1-2 lost.
    # 2:1;3:2: PE 1 dies mid-interval at step 2, so its step-1 sends are
    # gone for good.  1:1;2:2;3:0: PE 2 holds the copy of PE 0's step-1
    # inbox and dies at step 2; the step-1 record is still there at
    # step 3 until that step's log GC retires it.
    assert_same_outputs(cc_config(recovery_point_interval=2), spec)


@pytest.mark.parametrize("config, spec", [
    (cc_config(group_size=2, recovery_point_interval=3), "1:2,3;2:0"),
    (JobConfig(benchmark="pagerank", p=4, group_size=2, recovery_point_interval=2,
               vertices_per_pe=8, iterations=5), "1:2,3;2:1"),
], ids=["cc", "pagerank"])
def test_shares_without_live_holder_refused(config, spec):
    # the first event kills the only group outside {0, 1}, and with it
    # every share of PE 0 and PE 1; no eligible peer is left to re-create
    # them on, so a later failure in {0, 1} must refuse rather than
    # rebuild from whatever shares remain
    with pytest.raises(UnrecoverableFailure,
                       match=r"backup share 0 of PE \d at step 1 was held by "
                             r"PE 2, which has also failed"):
        run_simulation(config, parse_failure_spec(spec))


def test_holder_dying_in_same_event_refused():
    # defense in depth: a unit that both guards an inbox and contains it
    # must not recover that inbox from itself
    # the refusal names the lowest failing holder's earliest inbox
    with pytest.raises(UnrecoverableFailure,
                       match="step-1 inbox of PE 5 was protected only by PE 4, "
                             "which is failing in the same event"):
        _holder_in_the_same_event()


@pytest.mark.parametrize("spec, interval", [("2:1", 1), ("2:1", 3), ("3:1;5:2", 3)])
def test_cluster_state_across_recoveries(spec, interval):
    # the real step loop, inspected between steps: failed PEs leave the
    # live set at their failure step with one recovery each, and log GC
    # keeps exactly the steps since the newest recovery point
    plan = parse_failure_spec(spec)
    cluster = Cluster(build_job(cc_config()), 4,
                      recovery_point_interval=interval, failure_plan=plan)
    events = {event.step: event for event in plan.events}
    live, recoveries = set(range(4)), 0
    while cluster.step():
        step = cluster.steps_run
        event = events.get(step)
        if event is not None:
            live -= event.failed
            recoveries += 1
        assert cluster.live == live
        assert len(cluster.metrics.recoveries) == recoveries
        rp = cluster.recovery_point
        logged = set().union(*(cluster.pes[i].sent_log for i in live))
        shared = set().union(*(cluster.pes[i].backup_store for i in live))
        assert logged == set(range(max(rp, 1), step + 1))
        assert shared == {rp}
    assert cluster.steps_run > max(e.step for e in plan.events)


@pytest.mark.parametrize("interval", [1, 3, "input-only"])
def test_step_records_retire_with_the_logs(interval):
    # recovery reads no step record older than the recovery point, so
    # log GC drops those; an input-only run (recovery point 0) keeps all
    cluster = Cluster(build_job(cc_config()), 4, recovery_point_interval=interval,
                      failure_plan=parse_failure_spec("1:1"))
    while cluster.step():
        want = range(max(1, cluster.recovery_point), cluster.steps_run + 1)
        assert sorted(cluster.step_history) == list(want)
    assert cluster.steps_run > 3


# -- refusal and validation paths ---------------------------------------


def _identity_job(seed, per_pe=20, steps=2, replayable=True):
    import random

    def fn(pe):
        rng = random.Random(seed * 7919 + pe)
        return batch_of([(rng.randbytes(6), rng.randbytes(2)) for _ in range(per_pe)])

    spec = StepSpec("identity", identity_map, lambda k, vs: ((k,) * len(vs), vs))
    return Job(RecordSource(fn, replayable=replayable), ListDriver([spec] * steps))


def _share_missing_on_its_holder():
    # step 1 is the recovery point; PE 1's share 0 vanishes before PE 1 fails
    cluster = Cluster(build_job(cc_config()), 4, recovery_point_interval=3,
                      failure_plan=parse_failure_spec("2:1"))
    cluster.step()
    holder = cluster.step_history[1].backup_manifest[1][0]
    del cluster.pes[holder].backup_store[1][(1, 0)]
    cluster.step()


def _holder_in_the_same_event():
    cluster = Cluster(_identity_job(0), 6, group_size=2)
    cluster.step()
    cluster.step_history[1].guards.update({4: {5}, 5: {4}})
    ftmr.recovery.recover(cluster, FailureEvent(1, frozenset({4, 5})))


def _simulate(config, spec):
    return lambda: run_simulation(config, parse_failure_spec(spec))


def _run(job, p, spec, **options):
    return lambda: run_job(job, p, failure_plan=parse_failure_spec(spec), **options)


# one case per refusal text of recover and _share_entries
REFUSALS = {
    "fault tolerance is off": _simulate(cc_config(backup_mode="off"), "1:1"),
    "every PE failed": _run(_identity_job(1), 2, "1:0,1"),
    "cannot be replayed": _run(_identity_job(4, replayable=False), 4, "2:1",
                               recovery_point_interval="input-only"),
    "spans multiple": _run(_identity_job(2), 4, "1:1,2"),
    "strict subset": _run(_identity_job(3), 8, "1:0,1", group_size=4),
    "lost for good.*mid-interval": _simulate(cc_config(recovery_point_interval=3),
                                             "2:1;3:2"),
    "lost its only off-PE copy": _simulate(
        cc_config(p=5, recovery_point_interval="input-only"), "1:1;3:2;5:0"),
    "was protected only by PE 4": _holder_in_the_same_event,
    "no backup shares were stored for PE 0 at recovery point 2": _simulate(
        cc_config(group_size=2, recovery_point_interval=1), "1:2,3;2:0"),
    "held by PE 2, which has also failed": _simulate(
        cc_config(group_size=2, recovery_point_interval=3), "1:2,3;2:0"),
    r"backup share 0 of PE 1 at step 1 is missing on PE \d": _share_missing_on_its_holder,
}


def _recovery_state(cluster):
    """A deep copy of everything a recovery may change, batches as records."""
    return plain(copy.deepcopy((
        cluster.live,
        [(pe.current, pe.inbox, pe.sent_log, pe.backup_store)
         for pe in cluster.pes],
        cluster.owners.pm,
        dict(cluster.owners),
        cluster.metrics.recoveries,
        {s: (h.backup_manifest, h.lost, h.guards) for s, h in cluster.step_history.items()},
    )))


@pytest.mark.parametrize("text", REFUSALS)
def test_every_refusal_leaves_the_cluster_as_it_was(text, monkeypatch):
    # a refused failure changes nothing, so a caller can keep using the
    # cluster as it stood at the barrier
    states = []
    recover = ftmr.recovery.recover

    def checked(cluster, event):
        before = _recovery_state(cluster)
        try:
            recover(cluster, event)
        except UnrecoverableFailure:
            states.append((before, _recovery_state(cluster)))
            raise

    monkeypatch.setattr(ftmr.recovery, "recover", checked)
    with pytest.raises(UnrecoverableFailure, match=text):
        REFUSALS[text]()
    ((before, after),) = states
    assert after == before


def test_backup_off_makes_failures_fatal():
    config = cc_config(backup_mode="off")
    with pytest.raises(UnrecoverableFailure, match="fault tolerance is off"):
        run_simulation(config, parse_failure_spec("1:1"))


def test_losing_every_pe_is_fatal():
    with pytest.raises(UnrecoverableFailure, match="every PE failed"):
        run_job(_identity_job(1), 2,
                failure_plan=parse_failure_spec("1:0,1"))


def test_simultaneous_failures_must_be_one_unit():
    with pytest.raises(UnrecoverableFailure, match="spans multiple"):
        run_job(_identity_job(2), 4,
                failure_plan=parse_failure_spec("1:1,2"))


def test_partial_group_failure_rejected():
    with pytest.raises(UnrecoverableFailure, match="strict subset"):
        run_job(_identity_job(3), 8, group_size=4,
                failure_plan=parse_failure_spec("1:0,1"))


def test_unreplayable_input_is_fatal_without_recovery_points():
    job = _identity_job(4, replayable=False)
    with pytest.raises(UnrecoverableFailure, match="cannot be replayed"):
        run_job(job, 4, recovery_point_interval="input-only",
                failure_plan=parse_failure_spec("2:1"))
    # replayable sources handle the same plan fine
    run_job(_identity_job(4), 4, recovery_point_interval="input-only",
            failure_plan=parse_failure_spec("2:1"))


def test_event_on_dead_pe_rejected():
    with pytest.raises(ValueError, match="already-dead"):
        run_job(_identity_job(5), 4,
                failure_plan=parse_failure_spec("1:1;2:1"))


def test_event_on_unknown_pe_rejected():
    with pytest.raises(ValueError, match=r"event names unknown PEs \[9\]"):
        run_job(_identity_job(5), 4, failure_plan=parse_failure_spec("1:9"))


def test_unfired_events_warn(caplog):
    # only the event past the job's last step warns; the fired one does not
    with caplog.at_level("WARNING", logger="ftmr.engine"):
        run_job(_identity_job(6, steps=2), 4,
                failure_plan=parse_failure_spec("1:1;9:2"))
    assert [r.message for r in caplog.records if "never fired" in r.message] == [
        "failure event at step 9 never fired (job ran 2 steps)"
    ]
