"""Bulk-synchronous MapReduce engine over simulated PEs.

One MapReduce step is: Map every local record, shuffle the mapped records
to their hash-range owners, then Reduce each key group on its owner.
:class:`Cluster` is the one step loop: it ingests the input, runs one
step per :meth:`Cluster.step` call (recovering from the step's failure
event, if any, between shuffle and Reduce), and :func:`run_job` steps it
to completion.  The shuffle doubles as the fault-tolerance mechanism:

* every sender keeps an ordered log of the records it sent, per
  destination, until the log is older than the newest recovery point;
* at recovery-point steps, records that never leave their failure unit
  (self-messages, plus intra-group traffic when failure groups are
  configured) are additionally copied to peer PEs, cut into shares by
  :func:`unit_entries` so no peer carries more than one share.

Together the logs and shares let recovery rebuild any failed PE's inbox
without checkpoints; see :mod:`ftmr.recovery`.

An iterative job sends the same key sequence from a PE step after step,
so the shuffle keeps each sender's :class:`Route`, the layout of its key
list under the current owner memo; while both are unchanged, payloads
and their sizes are gathered in C, with no per-record lookup.

Failures are injected at the shuffle barrier: the exchange of the step
completes (real failures are detected at the synchronization point), then
the failed PEs lose all local state.  A run's delivery ledger is noted
by the step loop alone, before each reduce and after a recovery.
"""

from __future__ import annotations

import gc
import logging
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, count, repeat
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Protocol

from .core import ConfigError, PeId, Record, StepId, records_size
from .metrics import ORIGINAL, RECOVERY, DeliveryLedger, Metrics
from .partition import (
    BackupMode,
    Owners,
    backup_targets,
    initial_partition,
    split_self_message,
)

logger = logging.getLogger(__name__)

MapFn = Callable[[Record], list[Record]]
ReduceFn = Callable[[bytes, list[bytes]], list[Record]]
CounterFn = Callable[[bytes, list[bytes]], int]

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

    ``reduce_fn`` must be order-insensitive in the value list, float
    rounding included: recovery re-delivers a failed PE's records from
    other senders, so a key's values may arrive in another order, and
    the outputs must still match the fault-free run byte for byte.
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
    outbound: list[Record] = field(default_factory=list)
    # src -> the records it delivered this step, in emission order
    inbox: dict[PeId, list[Record]] = field(default_factory=dict)
    # step -> dst -> ordered payload (the records sent there that step)
    sent_log: dict[StepId, dict[PeId, list[Record]]] = field(default_factory=dict)
    # step -> (origin, share index) -> share entries (src, dst, seq, record);
    # recovery reads dst and the record, src and seq stay for the tracer
    backup_store: dict[StepId, dict[tuple[PeId, int], list]] = field(default_factory=dict)

    def scrub(self) -> None:
        """Drop all local state; what a fail-stop crash leaves behind."""
        self.current_records = []
        self.outbound = []
        self.inbox = {}
        self.sent_log = {}
        self.backup_store = {}


@dataclass
class StepRecord:
    """What recovery reads of one step; retired with the step's logs."""

    spec: StepSpec
    # the owner memo of the map the step shuffled under
    owners: Owners
    # origin -> share holders: manifest[k] holds share (origin, k)
    backup_manifest: dict[PeId, list[PeId]] = field(default_factory=dict)


def recovery_point_schedule(interval) -> Callable[[StepId], bool]:
    """Recovery points every ``interval`` steps starting at step 1.

    ``interval`` may be a positive int or ``"input-only"``, in which case
    no shuffle is a recovery point and recovery replays from the
    regenerable step-0 input.
    """
    if interval == INPUT_ONLY:
        return lambda step: False
    if not isinstance(interval, int) or interval < 1:
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
    if group_size < 1 or p % group_size != 0:
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


def map_phase(cluster: Cluster, map_fn: MapFn, step: StepId) -> None:
    """Apply the map function on every live PE, filling outbound buffers."""
    for i in sorted(cluster.live):
        pe = cluster.pes[i]
        out: list[Record] = []
        for idx, rec in enumerate(pe.current_records):
            try:
                produced = map_fn(rec)
            except Exception as exc:  # noqa: BLE001 - rewrap with context
                raise JobError(i, step, f"map of record {idx}", exc) from exc
            out.extend(produced)
        pe.outbound = out
        pe.current_records = []


class Route(NamedTuple):
    """The layout of one sender's outbound key list under one owner memo."""

    owners: Owners
    keys: list[bytes]
    # (dst, positions of its records, their key bytes), ascending dst
    payloads: list[tuple[PeId, array, int]]


def _route(owners: Owners, keys: list[bytes]) -> Route:
    by_dst: defaultdict[PeId, list[int]] = defaultdict(list)
    for pos, dst in enumerate(map(owners.__getitem__, keys)):
        by_dst[dst].append(pos)
    return Route(owners, keys, [
        (dst, array("I", by_dst[dst]), sum(map(len, map(keys.__getitem__, by_dst[dst]))))
        for dst in sorted(by_dst)
    ])


def unit_entries(src: PeId, payloads: dict[PeId, list[Record]], group_of: tuple) -> list:
    """Backup entries ``(src, dst, seq, record)``, one per record ``src``
    sent inside its failure unit, by ascending ``dst``, then as sent.
    Share k of ``n`` is ``entries[k::n]``, cut by the shuffle from the
    payloads it logs and re-cut by recovery from the origin's sent log.
    Recovery reads only ``dst`` and the record; ``src`` and ``seq`` stay
    for ``perfbench``'s tracer, which reads the record as ``entry[3]``.
    """
    gid = group_of[src]
    return list(chain.from_iterable(
        zip(repeat(src), repeat(dst), count(), payloads[dst])
        for dst in sorted(payloads) if group_of[dst] == gid
    ))


def shuffle(cluster: Cluster, step: StepId, is_recovery_point: bool) -> None:
    """Route outbound records to their hash-range owners.

    Also appends sender-side logs, ships backup shares of failure-unit
    internal traffic when the step is a recovery point, and tallies the
    traffic volumes.  Each destination's inbox keeps a copy of each
    sender's payload, in emission order, under the sender's id (a copy,
    because recovery later appends to the logged payload).
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
    records = network_bytes = self_bytes = 0

    for src in sorted(cluster.live):
        pe = cluster.pes[src]
        outbound, pe.outbound = pe.outbound, []
        records += len(outbound)
        src_gid = group_of[src]
        keys = list(map(itemgetter(0), outbound))
        before = len(owners)
        route = routes.get(src)
        if route is None or route.owners is not owners or route.keys != keys:
            route = _route(owners, keys)
        # kept unless every key was new to the memo (a reused route adds none)
        if len(owners) - before < len(keys):
            cluster.routes[src] = route
        payloads = {}
        for dst, positions, key_bytes in route.payloads:
            payload = payloads[dst] = list(map(outbound.__getitem__, positions))
            size = key_bytes + sum(map(len, map(itemgetter(1), payload)))
            if dst != src:
                network_bytes += size
            if group_of[dst] == src_gid:
                self_bytes += size
        if fault_tolerant:
            pe.sent_log[step] = payloads
        for dst, payload in payloads.items():
            cluster.pes[dst].inbox[src] = list(payload)
        if not ships_shares:
            continue
        targets = backup_targets(src, cluster.live, backup_mode, group_of)
        if not targets:
            log = logger.debug if src in cluster.warned_unprotected else logger.warning
            cluster.warned_unprotected.add(src)
            log(
                "PE %d has no backup target (first at step %d); its "
                "self-messages are unprotected", src, step,
            )
            continue
        manifest[src] = targets
        entries = unit_entries(src, payloads, group_of)
        for k, (target, share) in enumerate(split_self_message(entries, targets)):
            store = cluster.pes[target].backup_store.setdefault(step, {})
            store[(src, k)] = share
            got = records_size(map(itemgetter(3), share))
            sm.backup_bytes += got
            sm.backup_received[target] = sm.backup_received.get(target, 0) + got
    if records and len(owners) - known == records:
        owners.clear()
    sm.records += records
    sm.network_bytes += network_bytes
    sm.self_bytes += self_bytes


def group_entries(inbox: dict[PeId, list[Record]]) -> list[tuple[bytes, list[bytes]]]:
    """Group an inbox's records by key for reducing.

    Keys are sorted bytewise; within a group, values follow ascending
    sender, then emission order, so grouping does not depend on the order
    in which senders delivered.
    """
    by_key: defaultdict[bytes, list[bytes]] = defaultdict(list)
    for src in sorted(inbox):
        for key, value in inbox[src]:
            by_key[key].append(value)
    return [(key, by_key[key]) for key in sorted(by_key)]


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
        for key, values in group_entries(pe.inbox):
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
    """Drop logs, shares and step records strictly older than the newest
    recovery point.

    Anything at least as new as the newest recovery point is still
    needed to reconstruct a failure before the next one completes.
    """
    cut = cluster.recovery_point
    for step in [s for s in cluster.step_history if s < cut]:
        del cluster.step_history[step]
    for i in cluster.live:
        pe = cluster.pes[i]
        for step in [s for s in pe.sent_log if s < cut]:
            del pe.sent_log[step]
        for step in [s for s in pe.backup_store if s < cut]:
            del pe.backup_store[step]


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

    Each sender list is one ``ORIGINAL`` batch; given the sender-list
    lengths ``had`` taken before a recovery, what each inbox gained since
    is one ``RECOVERY`` batch instead.
    """
    for i in sorted(cluster.live):
        inbox = cluster.pes[i].inbox
        if had is None:
            for recs in inbox.values():
                cluster.ledger.note(step, i, ORIGINAL, recs)
        elif tails := [r for s, recs in inbox.items() for r in recs[had[i].get(s, 0):]]:
            cluster.ledger.note(step, i, RECOVERY, tails)


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
        # sender -> its route (see shuffle), rebuilt when built under another memo
        self.routes: dict[PeId, Route] = {}
        # newest shuffle that was a recovery point; 0 means the input
        self.recovery_point: StepId = 0
        # step -> its record, from the recovery point on (gc_logs)
        self.step_history: dict[StepId, StepRecord] = {}
        self.warned_unprotected: set[PeId] = set()
        # Refusal state of the current recovery interval; every recovery
        # chain starts at its recovery point, so each one starts empty.
        # (step, pe): pe's sends of that step are gone for good (pe died
        # mid-interval); any recovery chain touching the step must refuse
        self.lost_logs: set[tuple[StepId, PeId]] = set()
        # holder -> {(step, dst)}: re-protection log copies the holder keeps
        # for other PEs' step inboxes (injection and re-log traffic); a
        # dead holder's entries are inboxes that lost their only off-dst copy
        self.reprotect_holdings: dict[PeId, set[tuple[StepId, PeId]]] = {}
        self.driver = job.driver
        self.backup_mode = backup_mode
        # step -> its failure event; step() pops each one as it fires
        self.events = {event.step: event for event in events}
        self.single_recoverer = single_recoverer
        self.ledger = ledger
        self.prev_aggregate: int | None = None
        self.steps_run = 0

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
            self.lost_logs = set()
            self.reprotect_holdings = {}
        self.step_history[index] = StepRecord(spec=spec, owners=self.owners)
        map_phase(self, spec.map_fn, index)
        shuffle(self, index, is_rp)
        if self.ledger is not None:
            _note_inboxes(self, index)  # before the event scrubs failed inboxes
        event = self.events.pop(index, None)
        if event is not None:
            from .recovery import recover  # deferred: recovery imports this module

            if self.ledger is None:
                recover(self, event)
            else:
                had = {
                    i: {s: len(r) for s, r in self.pes[i].inbox.items()} for i in self.live
                }
                recover(self, event)
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
