"""Volume accounting and the exactly-once delivery ledger.

Per shuffle step the engine tallies, in payload bytes (key length plus
value length, no framing):

* ``network_bytes``  -- records delivered to a different PE,
* ``self_bytes``     -- records staying inside the sender's failure unit
  (the sender itself, or its failure group when groups are configured),
* ``backup_bytes``   -- backup-share records shipped to peers at recovery
  points (equal to ``self_bytes`` at a recovery point where every sender
  has a backup target; 0 at every other step, and short of
  ``self_bytes`` by the traffic of senders left without one),
* ``records``        -- number of records routed.

Each recovery contributes one :class:`RecoveryRecord` with the bytes
re-sent to survivors and the records recomputed during replay.

The :class:`DeliveryLedger` is an opt-in verification instrument: it
keeps every delivered :class:`~ftmr.core.Batch` per ``(step,
destination, generation)``, in note order.  Each ``note`` call keeps
one delivered batch, such as a sender's whole payload to one
destination, by reference: it copies and hashes nothing.  Deliveries
are counted (a ``(key, value)`` pair is the count key, so equal
contents compare equal across runs and processes) only when a bucket is
read or a run is checked.  The ledger costs one reference per delivered
batch plus the batches it keeps alive, whose columns the sent logs and
inboxes share.  Runs only carry a ledger when
a caller passes it in; the fault-free hot path does no ledger work.
:meth:`ftmr.engine.Cluster.step` notes it before each reduce and after
a recovery; recovery itself notes only the rebuilt inboxes of the steps
it replays.

CSV schema (stable): ``step,phase,network_bytes,self_bytes,backup_bytes,records``
with ``phase=shuffle`` rows per step and one ``phase=recovery`` row per
failure event, where ``network_bytes`` holds the bytes re-sent,
``backup_bytes`` the bytes spent re-creating backup shares the failed
PEs held for survivors, and ``records`` the records recomputed.
"""

from __future__ import annotations

import io
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain

from .core import Batch, PeId, StepId

CSV_HEADER = "step,phase,network_bytes,self_bytes,backup_bytes,records"


@dataclass
class StepMetrics:
    step: StepId
    network_bytes: int = 0
    self_bytes: int = 0
    backup_bytes: int = 0
    records: int = 0
    # bytes of backup shares received, per holding PE (not in the CSV;
    # used by the load-balance checks)
    backup_received: dict[PeId, int] = field(default_factory=dict)


@dataclass
class RecoveryRecord:
    step: StepId
    failed: tuple[PeId, ...]
    recovery_point: StepId
    replayed_steps: tuple[StepId, ...]
    bytes_resent: int = 0
    records_recomputed: int = 0
    # bytes shipped to re-create backup shares the failed PEs held for
    # surviving PEs (lands in the recovery row's backup_bytes column)
    backup_repair_bytes: int = 0


@dataclass
class Metrics:
    """Accumulates per-step volumes and recovery events for one run."""

    steps: list[StepMetrics] = field(default_factory=list)
    recoveries: list[RecoveryRecord] = field(default_factory=list)

    def step_metrics(self, step: StepId) -> StepMetrics:
        for sm in self.steps:
            if sm.step == step:
                return sm
        sm = StepMetrics(step)
        self.steps.append(sm)
        return sm

    # -- totals ----------------------------------------------------------

    @property
    def total_network_bytes(self) -> int:
        return sum(s.network_bytes for s in self.steps)

    @property
    def total_self_bytes(self) -> int:
        return sum(s.self_bytes for s in self.steps)

    @property
    def total_backup_bytes(self) -> int:
        return sum(s.backup_bytes for s in self.steps)

    def relative_overhead(self) -> float:
        """Backup traffic as a fraction of shuffle network traffic."""
        net = self.total_network_bytes
        if net == 0:
            return 0.0
        return self.total_backup_bytes / net

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(CSV_HEADER + "\n")
        rows = [
            (s.step, "shuffle", s.network_bytes, s.self_bytes, s.backup_bytes, s.records)
            for s in self.steps
        ] + [
            (r.step, "recovery", r.bytes_resent, 0, r.backup_repair_bytes,
             r.records_recomputed)
            for r in self.recoveries
        ]
        for row in sorted(rows, key=lambda t: (t[0], t[1] != "shuffle")):
            out.write(",".join(str(c) for c in row) + "\n")
        return out.getvalue()


ORIGINAL = "original"
RECOVERY = "recovery"


class DeliveryLedger:
    """Keeps every logical delivery ``(step, destination, generation)``.

    The ledger is a verification instrument, not part of the protocol:
    a run keeps one only when it is passed in, and the step loop, not the
    shuffle or recovery's injection, notes what each reduce reads.
    Each bucket is a list of the delivered batches in note order; one
    :meth:`note` call keeps one batch, the object it is given, so the
    ledger costs one reference per delivered batch plus the batches it
    keeps alive.  A batch is the very object the run delivered (a
    sender's payload is also its sent-log entry and the receiver's inbox
    entry), so no delivered batch may change after delivery.  Counting
    happens only when checking: :meth:`step_total` and
    :meth:`check_against` count ``(key, value)`` pairs read from the
    batches' columns, and no view flattens a whole ledger.  A pair hashes
    and compares by content, so two deliveries of equal records count as
    one key, and records with the same concatenated bytes but a different
    key/value split stay apart.  :meth:`bucket` counts one bucket's
    records, which hash and compare as their pairs.
    ``generation`` separates
    deliveries of the original execution from records re-delivered (or
    re-derived) while reconstructing a failed PE.  Comparing a faulty
    run's ledger with a fault-free shadow run proves that recovery
    re-delivered every lost record exactly once and never re-sent data
    that had already reached a surviving PE.
    """

    def __init__(self):
        # (step, dst, generation) -> delivered batches, in note order
        self.deliveries: dict[tuple[StepId, PeId, str], list[Batch]] = {}

    def note(self, step: StepId, dst: PeId, generation: str, batch: Batch) -> None:
        """Keep one batch delivered to ``dst``, repeats too: the batch
        itself, not a copy."""
        key = (step, dst, generation)
        batches = self.deliveries.get(key)
        if batches is None:
            self.deliveries[key] = [batch]
        else:
            batches.append(batch)

    # -- views -----------------------------------------------------------

    def bucket(self, step: StepId, dst: PeId, generation: str) -> Counter:
        """One bucket's deliveries, counted by record."""
        return Counter(chain.from_iterable(self.deliveries.get((step, dst, generation), ())))

    def _count(self, step: StepId, dst: PeId, generation: str) -> Counter:
        """One bucket's deliveries, counted by ``(key, value)`` pair."""
        return Counter(_pairs(self.deliveries.get((step, dst, generation), ())))

    def step_total(self, step: StepId, generation: str | None = None) -> Counter:
        """A step's deliveries, counted by ``(key, value)`` pair."""
        total: Counter = Counter()
        for (s, _dst, gen), batches in self.deliveries.items():
            if s == step and (generation is None or gen == generation):
                total.update(_pairs(batches))
        return total

    # -- verification ----------------------------------------------------

    def check_against(
        self,
        reference: "DeliveryLedger",
        failed: set[PeId],
        event_step: StepId,
        recovery_point: StepId,
        exact_after: bool = True,
    ) -> list[str]:
        """Compare a single-failure run against a fault-free shadow run.

        Checks, returning a list of human-readable problems (empty when
        the run was exactly-once):

        * the original-generation deliveries match the reference exactly
          through the failure step, at every destination either ledger
          names (the runs are identical up to there);
        * per replayed step, the recovery-generation deliveries equal the
          reference deliveries into the failed PEs: each lost record was
          re-derived once, nothing already delivered was re-sent;
        * no recovery-generation delivery lies outside the replayed
          steps ``max(recovery_point, 1)`` .. ``event_step``;
        * after the failure step the global per-step delivery multiset
          still matches.

        Every check compares record for record, for every workload (the
        reducers ignore value order, float rounding included).
        ``exact_after=False`` relaxes the post-failure check to a
        delivery count.
        """
        problems = []
        first_replayed = max(recovery_point, 1)
        seen = self.deliveries.keys() | reference.deliveries.keys()
        for step, dst in sorted({(s, d) for (s, d, _) in seen if s <= event_step}):
            if not _same(self._count(step, dst, ORIGINAL), reference._count(step, dst, ORIGINAL)):
                problems.append(f"step {step} PE {dst}: original deliveries diverge")
        stray = sorted(
            (step, dst, count)
            for (step, dst, gen), batches in self.deliveries.items()
            if gen == RECOVERY and not first_replayed <= step <= event_step
            and (count := sum(map(len, batches)))
        )
        for step, dst, count in stray:
            problems.append(
                f"step {step} PE {dst}: {count} recovery deliveries outside "
                f"the replay window (steps {first_replayed}..{event_step})"
            )
        for step in sorted({s for (s, _, _) in seen if s > event_step}):
            got_all = self.step_total(step)
            want_all = reference.step_total(step)
            if exact_after:
                if not _same(got_all, want_all):
                    problems.append(f"step {step}: post-failure deliveries diverge")
            elif sum(got_all.values()) != sum(want_all.values()):
                problems.append(f"step {step}: post-failure delivery count diverges")
        for step in range(first_replayed, event_step + 1):
            want: Counter = Counter()
            for f in failed:
                want.update(reference._count(step, f, ORIGINAL))
            got = self.step_total(step, RECOVERY)
            if not _same(got, want):
                missing = sum((want - got).values())
                extra = sum((got - want).values())
                problems.append(
                    f"step {step}: recovered stream mismatch "
                    f"({missing} missing, {extra} duplicated/re-sent)"
                )
        return problems


def _pairs(batches: Iterable[Batch]) -> Iterable[tuple[bytes, bytes]]:
    """The ``(key, value)`` pairs of ``batches``, read from their columns."""
    return chain.from_iterable(zip(batch.keys, batch.values) for batch in batches)


def _same(a: Counter, b: Counter) -> bool:
    """Whether two counts hold the same multiset.  Counting leaves no
    zero or negative entry, so plain dict equality (in C) says it;
    ``Counter.__eq__`` walks both counts in Python to treat a missing
    key as 0."""
    return dict.__eq__(a, b)
