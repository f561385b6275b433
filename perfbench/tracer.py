"""Per-layer spans, recorded from outside ftmr.

The tracer replaces module-level functions that ``run_job`` reaches with
timing wrappers, and restores them afterwards.  A function imported by
name into several modules (``hash_key``, ``group_entries``,
``split_self_message``) has one binding per module, so every binding of
the original object in every loaded ``ftmr`` module is replaced.  The
job's own ``RecordSource`` function and its ``StepSpec`` user functions
are wrapped through the job itself.

A span's self time is its duration minus its child spans.  One binding
is only counted, not timed: ``hash_key`` as ``ftmr.metrics`` sees it,
which computes the ledger's record fingerprints, so that hashing stays
part of the ledger's cost.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import Counter

import ftmr.engine
import ftmr.metrics
import ftmr.partition
import ftmr.recovery
from ftmr.engine import Job, RecordSource
from ftmr.metrics import DeliveryLedger

# span name -> functions it times, as (module, attribute)
SPANS = {
    "engine.ingest": [(ftmr.engine, "ingest")],
    "engine.map": [(ftmr.engine, "map_phase")],
    "engine.shuffle": [(ftmr.engine, "shuffle")],
    "engine.backup_split": [(ftmr.partition, "split_self_message")],
    "engine.group": [(ftmr.engine, "group_entries")],
    "engine.reduce": [(ftmr.engine, "reduce_phase")],
    "engine.gc": [(ftmr.engine, "gc_logs")],
    "partition.hash": [(ftmr.partition, "hash_key")],
    "recovery.recover": [(ftmr.recovery, "recover")],
    "recovery.rebuild": [(ftmr.recovery, "_logged_to"), (ftmr.recovery, "_share_entries")],
    "recovery.inject": [(ftmr.recovery, "_inject")],
    "recovery.repair": [
        (ftmr.recovery, "_repair_shares"),
        (ftmr.recovery, "_relog_pending"),
        (ftmr.recovery, "_relog_mapped"),
    ],
}
LEDGER_SPAN = "metrics.ledger"


def _ftmr_modules():
    return [
        m for name, m in list(sys.modules.items())
        if name == "ftmr" or name.startswith("ftmr.")
    ]


class Tracer:
    """Accumulates self time, inclusive time and calls per span name."""

    def __init__(self):
        self.self_s: Counter = Counter()
        self.incl_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.backup_records = 0
        self.retained_log_bytes_max = 0
        self.retained_backup_bytes_max = 0
        # child time of each open span, innermost last
        self._open: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        # id(list) -> (list, len, bytes) for log payloads and shares
        self._sizes: dict[int, tuple[list, int, int]] = {}

    # -- spans -----------------------------------------------------------

    def wrap(self, name: str, fn):
        open_spans = self._open
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                self_s[name] += took - open_spans.pop()
                incl_s[name] += took
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += took

        return traced

    def count(self, name: str, fn):
        """Count calls without a span, so their time stays with the caller."""
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing ------------------------------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Tracer":
        """Wrap every binding of every traced function in ftmr."""
        for name, targets in SPANS.items():
            for module, attr in targets:
                original = getattr(module, attr)
                wrapper = self._hooked(name, self.wrap(name, original))
                for m in _ftmr_modules():
                    for key, value in list(vars(m).items()):
                        if value is not original:
                            continue
                        if m is ftmr.metrics:
                            # the ledger's fingerprint hashing is ledger time
                            self._replace(m, key, self.count(name, original))
                        else:
                            self._replace(m, key, wrapper)
        self._replace(DeliveryLedger, "note", self.wrap(LEDGER_SPAN, DeliveryLedger.note))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _hooked(self, name: str, fn):
        """Add the counts a span records besides its time, outside the span."""
        if name == "engine.backup_split":
            def counted(records, *args, **kwargs):
                self.backup_records += len(records)
                return fn(records, *args, **kwargs)
            return counted
        if name == "engine.gc":
            def measured(state, *args, **kwargs):
                done = fn(state, *args, **kwargs)
                self._note_retained(state)
                return done
            return measured
        return fn

    def _note_retained(self, state) -> None:
        """Max bytes of sent logs and backup shares the live PEs hold."""
        fresh: dict[int, tuple[list, int, int]] = {}

        def size(lst, of) -> int:
            hit = self._sizes.get(id(lst))
            if hit is None or hit[0] is not lst or hit[1] != len(lst):
                hit = (lst, len(lst), sum(of(x).size for x in lst))
            fresh[id(lst)] = hit
            return hit[2]

        logs = shares = 0
        for i in state.live:
            pe = state.pes[i]
            for payloads in pe.sent_log.values():
                logs += sum(size(lst, lambda rec: rec) for lst in payloads.values())
            for store in pe.backup_store.values():
                shares += sum(size(lst, lambda entry: entry[3]) for lst in store.values())
        self._sizes = fresh
        self.retained_log_bytes_max = max(self.retained_log_bytes_max, logs)
        self.retained_backup_bytes_max = max(self.retained_backup_bytes_max, shares)

    # -- the job's own functions ------------------------------------------

    def wrap_job(self, job: Job) -> Job:
        source = RecordSource(self.wrap("benchmarks.source", job.source.fn), job.source.replayable)
        return Job(source, _TracedDriver(self, job.driver))

    # -- results ---------------------------------------------------------

    def layer_metrics(self, result) -> dict[str, float]:
        s, incl = self.self_s, self.incl_s
        records = sum(sm.records for sm in result.metrics.steps)
        recoveries = result.metrics.recoveries
        recover = incl["recovery.recover"]
        rebuild = incl["recovery.rebuild"]
        inject = incl["recovery.inject"]
        repair = incl["recovery.repair"]
        return {
            "engine.ingest_s": s["engine.ingest"],
            "engine.map_s": s["engine.map"],
            "engine.shuffle_s": s["engine.shuffle"],
            "engine.backup_split_s": s["engine.backup_split"],
            "engine.backup_records": self.backup_records,
            "engine.group_s": s["engine.group"],
            "engine.reduce_s": s["engine.reduce"],
            "engine.gc_s": s["engine.gc"],
            "engine.retained_log_bytes_max": self.retained_log_bytes_max,
            "engine.retained_backup_bytes_max": self.retained_backup_bytes_max,
            "engine.steps": result.steps_run,
            "partition.hash_s": s["partition.hash"],
            "partition.hash_calls": self.calls["partition.hash"],
            "partition.hash_calls_per_record": self.calls["partition.hash"] / records,
            "metrics.ledger_s": s[LEDGER_SPAN],
            "metrics.ledger_notes": self.calls[LEDGER_SPAN],
            # recovery sub-phases are inclusive and add up to recover_s
            "recovery.recover_s": recover,
            "recovery.rebuild_s": rebuild,
            "recovery.replay_s": recover - rebuild - inject - repair,
            "recovery.inject_s": inject,
            "recovery.repair_s": repair,
            "recovery.replayed_steps": sum(len(r.replayed_steps) for r in recoveries),
            "recovery.bytes_resent": sum(r.bytes_resent for r in recoveries),
            "recovery.repair_bytes": sum(r.backup_repair_bytes for r in recoveries),
            "recovery.records_recomputed": sum(r.records_recomputed for r in recoveries),
            "benchmarks.source_s": s["benchmarks.source"],
            "benchmarks.map_fn_s": s["benchmarks.map_fn"],
            "benchmarks.reduce_fn_s": s["benchmarks.reduce_fn"],
        }


class _TracedDriver:
    """Hands out the job's step specs with their user functions wrapped."""

    def __init__(self, tracer: Tracer, driver):
        self.tracer = tracer
        self.driver = driver
        self._specs: dict[int, tuple[object, object]] = {}

    def next_step(self, index, prev_aggregate):
        spec = self.driver.next_step(index, prev_aggregate)
        if spec is None:
            return None
        hit = self._specs.get(id(spec))
        if hit is None or hit[0] is not spec:
            wrap = self.tracer.wrap
            traced = dataclasses.replace(
                spec,
                map_fn=wrap("benchmarks.map_fn", spec.map_fn),
                reduce_fn=wrap("benchmarks.reduce_fn", spec.reduce_fn),
                counter_fn=(
                    wrap("benchmarks.reduce_fn", spec.counter_fn) if spec.counter_fn else None
                ),
            )
            hit = self._specs[id(spec)] = (spec, traced)
        return hit[1]
