"""Bulk-synchronous MapReduce engine over simulated PEs.

One MapReduce step is: Map every local record, shuffle the mapped records
to their hash-range owners, then Reduce each key group on its owner.  A
map call returns its record's outputs as a key column and a value
column, and a PE's map results become one outbound
:class:`~ftmr.core.Batch` (:func:`map_batch`), so no ``Record`` exists
between a map call and its shuffle.
:class:`Cluster` is the one step loop: it ingests the input, runs one
step per :meth:`Cluster.step` call (recovering from the step's failure
event, if any, between shuffle and Reduce), and :func:`run_job` steps it
to completion.  The shuffle doubles as the fault-tolerance mechanism:

* every sender keeps an ordered log of the records it sent, per
  destination, until the log is older than the newest recovery point;
  each logged payload is a :class:`~ftmr.core.Batch`, a key column and
  a value column, and the receiver's inbox and the delivery ledger hold
  the same object;
* at recovery-point steps, records that never leave their failure unit
  (self-messages, plus intra-group traffic when failure groups are
  configured) are additionally copied to peer PEs, one share per peer;
  :func:`backup_share` cuts each share from the delivered batches'
  columns as strided slices, one entry per destination, so a backed-up
  message costs a key slot and a value slot.

Together the logs and shares let recovery rebuild any failed PE's inbox
without checkpoints; see :mod:`ftmr.recovery`.

An iterative job sends the same key sequence from a PE step after step,
so the shuffle keeps each sender's :class:`Route`, the layout of its key
list under the current owner memo: one ``operator.itemgetter`` per
destination over the positions of its records, and its key column.
While the memo and the key list are unchanged, each payload is the
route's key column plus the values gathered in one C call, sized as the
route's key bytes plus one join of the values (:func:`~ftmr.core.nbytes`),
and a backup share likewise.  The shuffle builds no record.  The
position ints come from one table on the :class:`Cluster`.

The routes also lay out the receivers.  When every sender that
delivered to a PE reused its route (``Cluster.handed``), that inbox's
key sequence is fixed by those route objects, so the reduce keeps the
inbox's grouping as one ``itemgetter`` per key (:func:`_inbox_layout`),
and later steps hand the reduce each key's values as gathered in C from
the value columns, without a copy or a key column read.  A layout is
built only at a step where every route into the PE was reused, and used
only while the same route objects deliver.  This, and recovery's splits
and replay layout, is derived state: :meth:`Cluster.drop_derived` drops
it after a recovery and when the shuffle empties the owner memo.

Failures are injected at the shuffle barrier: the exchange of the step
completes (real failures are detected at the synchronization point), then
the failed PEs lose all local state.  A run's delivery ledger is noted
by the step loop alone, before each reduce and after a recovery.
"""

from __future__ import annotations

import gc
import logging
from collections import defaultdict
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from operator import is_, itemgetter, length_hint
from typing import Callable, Iterable, NamedTuple, Protocol

from .core import Batch, ConfigError, PeId, Record, StepId, nbytes
from .metrics import ORIGINAL, RECOVERY, DeliveryLedger, Metrics
from .partition import (
    BackupMode,
    Owners,
    backup_targets,
    initial_partition,
    split_self_message,
)

logger = logging.getLogger(__name__)

# a record -> its outputs as a key column and a value column (see StepSpec)
MapFn = Callable[[Record], tuple[Sequence[bytes], Sequence[bytes]]]
ReduceFn = Callable[[bytes, Sequence[bytes]], list[Record]]
CounterFn = Callable[[bytes, Sequence[bytes]], int]

INPUT_ONLY = "input-only"
# a driver that yields more steps than this fails the job
MAX_STEPS = 10_000


class JobError(RuntimeError):
    """A user function failed; carries enough context to find the record."""

    def __init__(self, pe: PeId, step: StepId, where: str, cause: BaseException):
        super().__init__(f"PE {pe}, step {step}, {where}: {cause!r}")
        self.pe = pe
        self.step = step
        self.where = where
        self.__cause__ = cause


@dataclass(frozen=True)
class StepSpec:
    """User functions for one MapReduce step.

    ``map_fn(record)`` returns ``(keys, values)``: two sequences of equal
    length, the record's outputs in order.  It must be a pure function of
    the one record, because recovery replays it on other PEs.  A step
    that passes its records through names :func:`identity_map`; the map
    then hands a PE's records to the shuffle without calling it.
    ``reduce_fn(key, values)`` reads ``values``, a list or a tuple, and
    must not change it.  It must be order-insensitive in the values,
    float rounding included: recovery re-delivers a failed PE's records
    from other senders, so a key's values may arrive in another order,
    and the outputs must still match the fault-free run byte for byte.
    ``counter_fn`` feeds the per-step global aggregate that iterative
    drivers use for termination; it must be order-insensitive too.
    """

    name: str
    map_fn: MapFn
    reduce_fn: ReduceFn
    counter_fn: CounterFn | None = None


class StepDriver(Protocol):
    """Yields step specs; sees the previous step's aggregate."""

    def next_step(self, index: StepId, prev_aggregate: int | None) -> StepSpec | None:
        ...


class ListDriver:
    """Fixed, non-adaptive step sequence."""

    def __init__(self, steps: Iterable[StepSpec]):
        self.steps = list(steps)

    def next_step(self, index: StepId, prev_aggregate: int | None) -> StepSpec | None:
        if index <= len(self.steps):
            return self.steps[index - 1]
        return None


def identity_map(rec: Record) -> tuple[tuple[bytes], tuple[bytes]]:
    """The map of a pass-through step: the record itself.

    :func:`map_batch` recognizes this very function and builds the
    outbound batch from the records' fields without calling it; a
    wrapper around it takes the general path, with the same result.
    """
    return (rec[0],), (rec[1],)


@dataclass
class RecordSource:
    """Per-PE input generator; ``fn(pe)`` must be rerunnable when
    ``replayable`` is set (it is the zero-overhead recovery path)."""

    fn: Callable[[PeId], list[Record]]
    replayable: bool = True


@dataclass
class Job:
    source: RecordSource
    driver: StepDriver


@dataclass
class PeState:
    id: PeId
    current_records: list[Record] = field(default_factory=list)
    # the map's outputs, in order, until the shuffle routes them
    outbound: Batch = field(default_factory=lambda: Batch((), ()))
    # src -> the batch it delivered this step, in emission order; the
    # batch is the one in the sender's sent log (see shuffle)
    inbox: dict[PeId, Batch] = field(default_factory=dict)
    # step -> dst -> the batch sent there that step, in emission order;
    # its key column may be a route's, shared with the sender's other steps
    sent_log: dict[StepId, dict[PeId, Batch]] = field(default_factory=dict)
    # step -> (origin, share index) -> share entries (src, dst, s, batch),
    # one per unit destination (see backup_share)
    backup_store: dict[StepId, dict[tuple[PeId, int], list]] = field(default_factory=dict)

    def scrub(self) -> None:
        """Drop all local state; what a fail-stop crash leaves behind."""
        self.current_records = []
        self.outbound = Batch((), ())
        self.inbox = {}
        self.sent_log = {}
        self.backup_store = {}


@dataclass
class StepRecord:
    """What recovery reads of one step, its refusal state included;
    retired with the step's logs by :func:`gc_logs` and nowhere else."""

    spec: StepSpec
    # the owner memo of the map the step shuffled under
    owners: Owners
    # origin -> share holders: manifest[k] holds share (origin, k)
    backup_manifest: dict[PeId, list[PeId]] = field(default_factory=dict)
    # on a recovery point's record: PEs whose sends of the step died with
    # them mid-interval, so a recovery reaching back to the step refuses
    lost: set[PeId] = field(default_factory=set)
    # holder -> PEs whose inbox of the step it guards with a re-protection
    # log copy; a dead holder's entries are inboxes without an off-PE copy
    guards: dict[PeId, set[PeId]] = field(default_factory=dict)


def recovery_point_schedule(interval) -> Callable[[StepId], bool]:
    """Recovery points every ``interval`` steps starting at step 1.

    ``interval`` may be a positive int or ``"input-only"``, in which case
    no shuffle is a recovery point and recovery replays from the
    regenerable step-0 input.
    """
    if interval == INPUT_ONLY:
        return lambda step: False
    # a bool is an int, and True would read as 1
    if not isinstance(interval, int) or isinstance(interval, bool) or interval < 1:
        raise ConfigError(
            f"recovery_point_interval must be a positive integer or "
            f"{INPUT_ONLY!r}, got {interval!r}"
        )
    return lambda step: (step - 1) % interval == 0


def failure_groups(
    p: int, group_size: int, backup_mode: BackupMode
) -> tuple[int, ...]:
    """Failure group of each of ``p`` PEs: consecutive runs of ``group_size``.

    Backups go to peers outside a PE's group, so with backup on a single
    group spanning more than one PE leaves nowhere to put them.
    """
    if isinstance(group_size, bool) or group_size < 1 or p % group_size != 0:
        raise ConfigError(f"group_size={group_size} must evenly divide p={p}")
    if group_size == p and p > 1 and backup_mode is not BackupMode.OFF:
        raise ConfigError(
            "one failure group spanning every PE leaves no backup targets"
        )
    return tuple(i // group_size for i in range(p))


def ingest(source: RecordSource, p: int) -> list[PeState]:
    """Step 0: each of ``p`` PEs materializes its input partition locally.

    The input is itself the oldest recovery point, because ``source``
    can regenerate any PE's partition on demand.
    """
    pes = [PeState(i) for i in range(p)]
    for pe in pes:
        pe.current_records = list(source.fn(pe.id))
    return pes


def map_batch(map_fn: MapFn, records: list[Record], pe: PeId, step: StepId,
              where: str) -> Batch:
    """The outbound batch of ``map_fn`` over a PE's ``records``, in order.

    One loop calls the map and extends one key column and one value
    column with each call's columns.  A failing call, a result that is
    not a ``(keys, values)`` pair, a column that fails part-way or
    columns of unequal length fail the job with a :class:`JobError` for
    ``pe`` and ``step``; ``where`` is formatted with the record's index.
    """
    if map_fn is identity_map:
        return Batch.of(records)
    keys, values = [], []
    # a failing record is the last one the iterator handed out
    calls = iter(records)
    try:
        for rec in calls:
            k, v = map_fn(rec)
            keys += k
            values += v
    except Exception as exc:  # noqa: BLE001 - rewrap with context
        idx = len(records) - length_hint(calls) - 1
        raise JobError(pe, step, where.format(idx), exc) from exc
    if len(keys) != len(values):
        # the map is pure, so calling it again finds the record
        for idx, (k, v) in enumerate(map(map_fn, records)):
            k, v = list(k), list(v)
            if len(k) != len(v):
                cause = ValueError(f"map of record {idx} returned {len(k)} keys and {len(v)} values")
                raise JobError(pe, step, where.format(idx), cause)
        raise JobError(pe, step, where.format("?"), ValueError(
            "unequal key and value columns that a second call did not repeat"
        ))
    return Batch(keys, values)


def map_phase(cluster: Cluster, map_fn: MapFn, step: StepId) -> None:
    """Apply the map function on every live PE, filling outbound batches."""
    for i in sorted(cluster.live):
        pe = cluster.pes[i]
        pe.outbound = map_batch(map_fn, pe.current_records, i, step, "map of record {}")
        pe.current_records = []


class Route(NamedTuple):
    """The layout of one sender's outbound key list under the owner memo."""

    keys: list[bytes]
    # (dst, gather of its records' positions in the outbound list, their
    # key bytes, their key column), ascending dst
    payloads: list[tuple[PeId, itemgetter, int, Sequence[bytes]]]
    # the key bytes of each backup share of the sender's unit-internal
    # records, filled once (see _share_keys)
    share_keys: list[int]


def _layout(labels: list, positions: list[int]) -> list[tuple[object, itemgetter]]:
    """Group the positions of ``labels`` by label.

    Returns ``(label, gather)`` pairs, ascending label, where ``gather``
    is an ``itemgetter`` over that label's positions in order.  The
    position ints come from ``positions``, the cluster's table
    (``positions[i] == i``), grown here on demand; the gathers hold its
    int objects, so layouts share them instead of each holding its own.
    """
    if len(positions) < len(labels):
        positions.extend(range(len(positions), len(labels)))
    by_label: defaultdict[object, list[int]] = defaultdict(list)
    for pos, label in zip(positions, labels):
        by_label[label].append(pos)
    layout = []
    for label in sorted(by_label):
        at = by_label[label]
        # itemgetter of one position returns the bare item; a one-wide
        # slice gathers it as a one-item list
        layout.append((label, itemgetter(*at) if len(at) > 1
                       else itemgetter(slice(at[0], at[0] + 1))))
    return layout


def _route(owners: Owners, keys: list[bytes], positions: list[int]) -> Route:
    """Lay ``keys`` out by destination under ``owners``."""
    payloads = []
    for dst, gather in _layout(list(map(owners.__getitem__, keys)), positions):
        column = gather(keys)
        payloads.append((dst, gather, nbytes(column), column))
    return Route(keys, payloads, [])


def _share_keys(route: Route, unit: list[tuple], n: int) -> list[int]:
    """The key bytes of each of ``n`` backup shares of a route's
    unit-internal records, measured once per route.

    ``unit`` holds ``(dst, batch)`` for the destinations inside the
    sender's failure unit, ascending, each batch holding the route's key
    column for ``dst``; share k holds the unit's records ``k::n``
    (:func:`backup_share`), so its key bytes are cut the same way.
    ``n`` follows the live set, which only a recovery changes, and a
    recovery drops every route, so a route sees one ``n``.
    """
    if not route.share_keys:
        keys = list(chain.from_iterable(batch.keys for _, batch in unit))
        route.share_keys.extend(nbytes(keys[k::n]) for k in range(n))
    return route.share_keys


def backup_share(src: PeId, unit: list[tuple[PeId, Batch]], k: int, n: int,
                 share_values: list[bytes]) -> list:
    """Share ``k`` of ``n`` of what ``src`` sent inside its failure unit.

    ``unit`` holds ``(dst, batch)`` for the destinations inside the unit,
    ascending.  Listing the unit's records by destination, then as sent,
    the share holds every n-th of them from the k-th on, as one entry
    ``(src, dst, s, Batch(keys[s::n], values[s::n]))`` per destination,
    where ``s = (k - o) % n`` and ``o`` counts the records before
    ``dst``; a destination with no record in the share has no entry.
    The caller cuts the share's values once (``share_values``, the
    unit's values ``k::n``), and each destination takes its contiguous
    run of them, the whole list when it has them all.  The shuffle cuts
    a recovery point's shares this way, and recovery re-cuts a lost one
    from the origin's sent log.  Recovery reads ``dst`` and the batch;
    ``src`` and ``s`` stay for ``perfbench``'s tracer (``entry[3]``).
    """
    share, o, at = [], 0, 0
    for dst, batch in unit:
        s = (k - o) % n
        if s < len(batch):
            count = len(range(s, len(batch), n))
            run = share_values if count == len(share_values) else share_values[at:at + count]
            share.append((src, dst, s, Batch(batch.keys[s::n], run)))
            at += count
        o += len(batch)
    return share


def shuffle(cluster: Cluster, step: StepId, is_recovery_point: bool) -> None:
    """Route outbound records to their hash-range owners.

    Also appends sender-side logs, ships backup shares of failure-unit
    internal traffic when the step is a recovery point, and tallies the
    traffic volumes.  Each destination's inbox holds each sender's
    payload, in emission order, under the sender's id.  A payload is one
    :class:`~ftmr.core.Batch`: the route's key column for the
    destination and the values gathered from the sender's outbound value
    column.  The sender's log, the receiver's inbox and the ledger share
    the batch, and a reused route shares its key column with every batch
    it delivers, so no code changes a batch or a column in place:
    recovery binds a longer batch instead.  At a recovery point, each
    backup share is cut from the sender's unit-internal batches
    (:func:`backup_share`).
    """
    sm = cluster.metrics.step_metrics(step)
    group_of = cluster.group_of
    backup_mode = cluster.backup_mode
    fault_tolerant = backup_mode is not BackupMode.OFF
    ships_shares = is_recovery_point and fault_tolerant
    # the memo outlives the shuffle, so a key is hashed once per map; it
    # is emptied below if no key repeated (see Owners)
    owners = cluster.owners
    known = len(owners)
    manifest = cluster.step_history[step].backup_manifest
    routes, cluster.routes = cluster.routes, {}
    handed = cluster.handed = defaultdict(list)
    records = network_bytes = self_bytes = 0

    for src in sorted(cluster.live):
        pe = cluster.pes[src]
        outbound, pe.outbound = pe.outbound, Batch((), ())
        keys, values = outbound.keys, outbound.values
        records += len(keys)
        src_gid = group_of[src]
        before = len(owners)
        route = routes.get(src)
        reused = route is not None and route.keys == keys
        if not reused:
            route = _route(owners, keys, cluster.positions)
        # kept unless every key was new to the memo (a reused route adds none)
        if len(owners) - before < len(keys):
            cluster.routes[src] = route
        payloads = {}
        # (dst, batch) of the batches sent inside the failure unit
        unit = []
        for dst, gather, key_bytes, column in route.payloads:
            # each value is read once: it sizes the payload and its share
            sent = gather(values)
            batch = payloads[dst] = cluster.pes[dst].inbox[src] = Batch(column, sent)
            try:
                size = key_bytes + nbytes(sent)
            except TypeError as exc:
                raise JobError(src, step, "shuffle of a map value that is not bytes", exc) from exc
            if dst != src:
                network_bytes += size
            if group_of[dst] == src_gid:
                self_bytes += size
                unit.append((dst, batch))
            if reused:
                handed[dst].append(route)
        if fault_tolerant:
            pe.sent_log[step] = payloads
        if not ships_shares:
            continue
        targets = backup_targets(src, cluster.live, backup_mode, group_of)
        if not targets:
            log = logger.debug if src in cluster.warned_unprotected else logger.warning
            cluster.warned_unprotected.add(src)
            log("PE %d has no backup target (first at step %d); its "
                "self-messages are unprotected", src, step)
            continue
        manifest[src] = targets
        n = len(targets)
        share_keys = _share_keys(route, unit, n)
        # share k of n holds the unit's values k::n (see backup_share)
        unit_values = (unit[0][1].values if len(unit) == 1
                       else list(chain.from_iterable(batch.values for _, batch in unit)))
        for k, (target, share_values) in enumerate(split_self_message(unit_values, targets)):
            store = cluster.pes[target].backup_store.setdefault(step, {})
            store[(src, k)] = backup_share(src, unit, k, n, share_values)
            got = share_keys[k] + nbytes(share_values)
            sm.backup_bytes += got
            sm.backup_received[target] = sm.backup_received.get(target, 0) + got
    if records and len(owners) - known == records:
        # no key repeated, so no route was kept either: what was derived
        # from the memo goes with it
        owners.clear()
        cluster.drop_derived()
    sm.records += records
    sm.network_bytes += network_bytes
    sm.self_bytes += self_bytes


def group_entries(
    inbox: dict[PeId, Batch], layout: list | None = None
) -> list[tuple[bytes, Sequence[bytes]]]:
    """Group an inbox's batches by key for reducing.

    Keys are sorted bytewise; within a group, values follow ascending
    sender, then emission order, so grouping does not depend on the order
    in which senders delivered.  Each batch is read from its columns, so
    no record is built.  Given the inbox's ``layout`` (:func:`_layout`
    of its chained keys), no key is read, and each key's values are the
    gather's result as it is, a tuple (a list for one value).
    """
    if layout is not None:
        values = list(chain.from_iterable(inbox[src].values for src in sorted(inbox)))
        return [(key, gather(values)) for key, gather in layout]
    by_key: defaultdict[bytes, list[bytes]] = defaultdict(list)
    for src in sorted(inbox):
        batch = inbox[src]
        for key, value in zip(batch.keys, batch.values):
            by_key[key].append(value)
    return [(key, by_key[key]) for key in sorted(by_key)]


def _inbox_layout(cluster: Cluster, dst: PeId) -> list | None:
    """The layout of ``dst``'s inbox by key; None to group the inbox anew.

    Only an inbox whose every sender reused its route this step has a
    layout: its keys, in ascending sender then emission order, are then
    fixed by those route objects, which hold its key columns.  The layout
    is kept with the routes it was laid out from and used while the same
    objects deliver; any other inbox drops it.
    """
    inbox = cluster.pes[dst].inbox
    kept = cluster.layouts.pop(dst, None)
    routes = cluster.handed.get(dst, ())
    if not inbox or len(routes) < len(inbox):
        return None
    if kept is None or len(kept[0]) != len(routes) or not all(map(is_, kept[0], routes)):
        keys = list(chain.from_iterable(inbox[src].keys for src in sorted(inbox)))
        kept = (routes, _layout(keys, cluster.positions))
    cluster.layouts[dst] = kept
    return kept[1]


def reduce_phase(
    cluster: Cluster,
    reduce_fn: ReduceFn,
    step: StepId,
    counter_fn: CounterFn | None,
) -> int:
    """Reduce every key group on its owner; returns the global aggregate."""
    aggregate = 0
    for i in sorted(cluster.live):
        pe = cluster.pes[i]
        out: list[Record] = []
        for key, values in group_entries(pe.inbox, _inbox_layout(cluster, i)):
            try:
                out.extend(reduce_fn(key, values))
                if counter_fn is not None:
                    aggregate += counter_fn(key, values)
            except Exception as exc:  # noqa: BLE001
                raise JobError(i, step, f"reduce of key {key!r}", exc) from exc
        pe.inbox = {}
        pe.current_records = out
    return aggregate


def gc_logs(cluster: Cluster) -> None:
    """Drop logs, shares and step records (with their refusal state)
    strictly older than the newest recovery point.

    Anything at least as new as the newest recovery point is still
    needed to reconstruct a failure before the next one completes.
    """
    cut = cluster.recovery_point
    by_step = [cluster.step_history]
    for i in cluster.live:
        by_step += (cluster.pes[i].sent_log, cluster.pes[i].backup_store)
    for held in by_step:
        for step in [s for s in held if s < cut]:
            del held[step]


@contextmanager
def _collector_paused():
    """Hold CPython's cyclic collector off for the block, then restore it.

    The retained logs, shares and ledger buckets are what keeps a run
    recoverable, and every full collection would re-walk all of them.
    The engine makes no reference cycles, so refcounting frees its
    garbage; cycles a user function makes wait for the next full
    collection after the block.  A collector the caller already disabled
    stays off.

    Before the collector resumes, the block's survivors (the result and
    the ledger) move straight to the oldest generation: ``gc.freeze()``
    then ``gc.unfreeze()`` promotes every tracked object without a walk,
    so the first allocation afterwards does not scan them all.  A caller
    that froze objects itself keeps them frozen: then nothing is promoted.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        if gc.get_freeze_count() == 0:
            gc.freeze()
            gc.unfreeze()
        gc.enable()


def _note_inboxes(cluster: Cluster, step: StepId, had: dict | None = None) -> None:
    """Note each live inbox in the cluster's ledger.

    Each sender's batch is one ``ORIGINAL`` batch; given the batch
    lengths ``had`` taken before a recovery, what each inbox gained since
    is one ``RECOVERY`` batch instead, cut from the columns.
    """
    for i in sorted(cluster.live):
        inbox = cluster.pes[i].inbox
        if had is None:
            for batch in inbox.values():
                cluster.ledger.note(step, i, ORIGINAL, batch)
            continue
        keys, values = [], []
        for src, batch in inbox.items():
            n = had[i].get(src, 0)
            keys += batch.keys[n:]
            values += batch.values[n:]
        if keys:
            cluster.ledger.note(step, i, RECOVERY, Batch(keys, values))


@dataclass
class JobResult:
    outputs: dict[PeId, list[Record]]
    metrics: Metrics
    # only when run_job was given one; verification is opt-in
    ledger: DeliveryLedger | None
    steps_run: int


class Cluster:
    """A job on ``p`` simulated PEs, advanced one MapReduce step at a time.

    The constructor ingests the input (step 0).  Each :meth:`step` runs
    one step: map, shuffle, the step's failure event and its recovery,
    reduce, log GC.  The cluster is the run's one object: it holds the
    run's settings and, between steps, the whole cluster's state
    (``pes``, ``live``, ``metrics``, ``recovery_point``, ...), so callers
    can inspect logs, shares and inboxes across a recovery.  The
    simulator executes PEs sequentially in PE order, which makes runs
    with equal seeds, plans, and failure plans byte-identical.  Pass a
    :class:`DeliveryLedger` to record every delivery for an exactly-once
    check: :meth:`step` notes what each reduce reads, the shuffle's
    deliveries and then a recovery's.  Without one the run notes nothing.
    Bad settings (backup mode, recovery point interval, failure groups,
    a failure event naming an unknown or already-failed PE) raise
    :class:`ConfigError` before ingest.
    """

    def __init__(
        self,
        job: Job,
        p: int,
        *,
        backup_mode: BackupMode | str = BackupMode.SPLIT,
        recovery_point_interval=1,
        failure_plan=None,
        group_size: int = 1,
        single_recoverer: bool = False,
        ledger: DeliveryLedger | None = None,
    ):
        backup_mode = BackupMode.parse(backup_mode)
        self.is_rp = recovery_point_schedule(recovery_point_interval)
        # PE i is in failure group group_of[i]
        self.group_of = failure_groups(p, group_size, backup_mode)
        events = failure_plan.events if failure_plan is not None else ()
        for event in events:
            bad = [f for f in event.failed if not 0 <= f < p]
            if bad:
                raise ConfigError(f"failure event names unknown PEs {sorted(bad)}")
        dead: set[PeId] = set()
        for event in events:
            if again := sorted(event.failed & dead):
                raise ConfigError(
                    f"failure event at step {event.step} fails already-dead PEs {again}"
                )
            dead |= event.failed
        self.metrics = Metrics()
        self.source = job.source
        self.pes = ingest(job.source, p)
        self.live = set(range(p))
        # owner memo of the current partition map (the map is owners.pm);
        # recovery installs the next map's memo
        self.owners = Owners(initial_partition(p))
        self.drop_derived()
        # newest shuffle that was a recovery point; 0 means the input
        self.recovery_point: StepId = 0
        # step -> its record, from the recovery point on (gc_logs)
        self.step_history: dict[StepId, StepRecord] = {}
        self.warned_unprotected: set[PeId] = set()
        self.driver = job.driver
        self.backup_mode = backup_mode
        # step -> its failure event; step() pops each one as it fires
        self.events = {event.step: event for event in events}
        self.single_recoverer = single_recoverer
        self.ledger = ledger
        self.prev_aggregate: int | None = None
        self.steps_run = 0

    def drop_derived(self) -> None:
        """Forget what the shuffle and recovery derive from the owner memo
        and the key lists; they rebuild it, so no byte of the run changes."""
        # sender -> its route under the current memo (see shuffle)
        self.routes: dict[PeId, Route] = {}
        # receiver -> the route of each sender whose route the last
        # shuffle reused, ascending sender
        self.handed: dict[PeId, list[Route]] = {}
        # receiver -> (the routes its inbox came by, its layout by key)
        self.layouts: dict[PeId, tuple[list[Route], list]] = {}
        # (holder, id of an owner memo, by failure) -> recovery's cut of
        # the holder's records by owner (see recovery._split), and
        # "replay" -> the replayed reduce's keys and layout by key
        self.splits: dict[object, tuple] = {}
        # positions[i] == i, shared by every route's gathers (see _layout)
        self.positions: list[int] = []

    def step(self) -> bool:
        """Run the next MapReduce step; False once the driver is done."""
        index = self.steps_run + 1
        spec = self.driver.next_step(index, self.prev_aggregate)
        if spec is None:
            return False
        if index > MAX_STEPS:
            raise JobError(-1, index, "driver", RuntimeError("step budget exhausted"))
        is_rp = self.is_rp(index)
        if is_rp:
            self.recovery_point = index
        self.step_history[index] = StepRecord(spec=spec, owners=self.owners)
        map_phase(self, spec.map_fn, index)
        shuffle(self, index, is_rp)
        if self.ledger is not None:
            _note_inboxes(self, index)  # before the event scrubs failed inboxes
        event = self.events.pop(index, None)
        if event is not None:
            from .recovery import recover  # deferred: recovery imports this module

            if self.ledger is not None:
                had = {
                    i: {s: len(r) for s, r in self.pes[i].inbox.items()} for i in self.live
                }
            recover(self, event)
            # a new memo, and inboxes no route lays out any more
            self.drop_derived()
            if self.ledger is not None:
                _note_inboxes(self, index, had)
        self.prev_aggregate = reduce_phase(self, spec.reduce_fn, index, spec.counter_fn)
        gc_logs(self)
        self.steps_run = index
        return True

    def result(self) -> JobResult:
        """Warn about plan events that never fired; collect the outputs."""
        for event in self.events.values():
            logger.warning(
                "failure event at step %d never fired (job ran %d steps)",
                event.step, self.steps_run,
            )
        outputs = {i: list(self.pes[i].current_records) for i in sorted(self.live)}
        return JobResult(
            outputs=outputs, metrics=self.metrics, ledger=self.ledger,
            steps_run=self.steps_run,
        )


@_collector_paused()
def run_job(job: Job, p: int, **options) -> JobResult:
    """Run a job to completion; ``options`` are :class:`Cluster`'s keywords.

    One collector pause covers the whole run, from ingest to the
    outputs, so no collection between steps walks the state the run
    keeps; the cluster is freed before the collector resumes.
    """
    cluster = Cluster(job, p, **options)
    while cluster.step():
        pass
    return cluster.result()
