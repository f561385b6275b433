"""Rebuilding failed PEs from survivor-held message state.

A failure fires at a step's shuffle barrier: the exchange has completed,
then the failed PEs (one PE, or one predefined failure group treated as
a single logical unit) lose everything.  Recovery never restarts them;
instead their hash ranges are split across the survivors and their data
is rebuilt there:

1. Reconstruct the unit's inbox at the newest recovery point ``r``: the
   union of what every survivor logged as sent to the unit at step ``r``
   plus the unit-internal records backed up on peers (or, when no shuffle
   was a recovery point, the unit's regenerated step-0 input).
2. Replay steps ``r+1 .. t`` (the failure step): re-execute the unit's
   Reduce and the following Map over the reconstructed stream, re-feed
   the survivors' logged messages for each replayed step, and keep only
   recomputed records whose hash still falls in the unit's former ranges;
   everything outside was delivered to its surviving owner before the
   failure and must not be sent twice.
3. At step ``t``, route the reconstructed records to their new owners
   under the shrunk partition map and merge them into the pending reduce
   inboxes; normal execution resumes with the step-``t`` Reduce.

A rebuilt inbox has a PE inbox's shape, one :class:`~ftmr.core.Batch`
per survivor holding its records: what it logged as sent to the unit,
then its part of the unit's own sends (shares at ``r``, replayed
self-sends later), joined column by column.  Every refusal fires before
the scrub, so it leaves the cluster as it was.

All re-routed records are appended to survivors' sent logs under their
step ids (a record whose new owner would also be its holder is attributed
to a rotated peer, so an off-owner copy always exists).  That keeps a
later failure before the next recovery point recoverable as well.

Records are split by owner per (holder, destination) batch, not one at
a time: each holder's key column is laid out once by its keys' owners
(:func:`_split`), and each batch is logged, delivered and counted whole.
A replayed step's self part is the parts of that cut whose owner failed,
and its re-logging reads the same cut.
An iterative job's holders send the same keys at every replayed step,
so these cuts are reused while the keys compare equal, and the replayed
reduce groups the rebuilt inbox by a layout kept under the receivers'
rule (:func:`ftmr.engine._inbox_layout`).  Both sit in
``Cluster.layouts`` for one recovery
(:meth:`ftmr.engine.Cluster.drop_derived`).  A recovery batch never
changes once delivered or logged: a longer batch replaces it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import reduce
from operator import add

from .core import Batch, ConfigError, PeId, StepId
from .engine import (
    Cluster, _inbox_layout, _layout, backup_share, chain_calls, group_entries, map_batch,
    share_bytes, source_batch,
)
from .metrics import RECOVERY, RecoveryRecord
from .partition import BackupMode, Owners, backup_targets, shrink_partition

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FailureEvent:
    """Fail-stop of ``failed`` at step ``step``'s shuffle barrier."""

    step: StepId
    failed: frozenset[PeId]

    def __post_init__(self):
        object.__setattr__(self, "failed", frozenset(self.failed))
        if self.step < 1:
            raise ConfigError("failures fire at MapReduce steps (step >= 1)")
        if not self.failed:
            raise ConfigError("a failure event fails at least one PE")


class UnrecoverableFailure(RuntimeError):
    """The surviving state cannot reproduce the lost data; gives the reason."""


# (part of) a rebuilt inbox: holder PE -> the batch of records it holds
_Held = dict[PeId, Batch]


def recover(cluster: Cluster, event: FailureEvent) -> None:
    """Handle one failure event; mutates the cluster in place.

    :func:`_replay_reduce` notes the rebuilt inboxes of replayed steps in
    the cluster's ledger when it has one (:meth:`Cluster.step` notes what
    injection delivers).  Raises :class:`UnrecoverableFailure`, before
    any change to the cluster, when the survivors provably do not hold
    (and cannot regenerate) the lost data.
    """
    failed = set(event.failed)
    if cluster.backup_mode is BackupMode.OFF:
        raise UnrecoverableFailure(
            "fault tolerance is off: no logs or backups exist for "
            f"PEs {sorted(failed)}"
        )
    if not cluster.live - failed:
        raise UnrecoverableFailure("every PE failed; nothing holds any state")

    t = event.step
    r = cluster.recovery_point
    if r == 0:
        if not cluster.source.replayable:
            raise UnrecoverableFailure(
                "no recovery point completed and the input source cannot "
                "be replayed"
            )
    elif len(failed) > 1:
        _require_one_group(cluster, failed)
    # the refusal state is on this interval's step records, max(r, 1) .. t;
    # at r == t the previous interval's stay until this step's gc_logs
    lost = cluster.step_history[r].lost if r else ()
    if lost:
        raise UnrecoverableFailure(
            f"recovering PEs {sorted(failed)} needs the step-{r} sends of "
            f"PE {min(lost)}, which were lost for good when it failed mid-interval"
        )
    # (step, holder, dst): a re-protection copy of the unit's inboxes
    guards = [
        (s, h, d) for s in range(max(r, 1), t + 1)
        for h, ds in cluster.step_history[s].guards.items() for d in ds if d in failed
    ]
    inbox_holes = [(s, d) for s, h, d in guards if h not in cluster.live]
    if inbox_holes:
        s, d = min(inbox_holes)
        raise UnrecoverableFailure(
            f"the step-{s} inbox of PE {d} lost its only off-PE copy when "
            f"an earlier failure took the holder down"
        )

    same_event = [(h, s, d) for s, h, d in guards if h in failed]
    if same_event:
        f, s, d = min(same_event)
        raise UnrecoverableFailure(
            f"the step-{s} inbox of PE {d} was protected only "
            f"by PE {f}, which is failing in the same event"
        )

    # the holders lie outside the unit, so the shares outlive its scrub
    shared = _share_entries(cluster, r, failed) if r else {}

    # Fail-stop: the unit's local state is gone before reconstruction
    # starts, so recovery can only draw on survivor-held data.  Any
    # re-protection copies the unit held for others die with it; their
    # guards stay on the step records, as the inboxes a later failure lost.
    for f in failed:
        cluster.pes[f].scrub()
        cluster.live.discard(f)

    heirs = [_pick_heir(cluster, failed, r)] if cluster.single_recoverer else None
    owners_new = Owners(shrink_partition(cluster.owners.pm, failed, heirs))
    # survivor ranges keep their owners, so only the unit's keys are hashed again
    owners_new.update((key, pe) for key, pe in cluster.owners.items() if pe not in failed)

    records_recomputed = 0
    relog_bytes = 0
    replayed: list[StepId] = []

    # --- phase 1: the unit's stream at the recovery point ---------------
    held = _logged_to(cluster, r, failed, shared) if r else None
    if r == 0:  # no recovery point: replay from the regenerated input
        current: _Held = {}
        for f in sorted(failed):
            for dst, part in _split(cluster, f, source_batch(cluster.source, f), owners_new):
                current[dst] = current[dst] + part if dst in current else part
        records_recomputed += sum(map(len, current.values()))

    # --- phase 2: replay up to the failure step --------------------------
    for step in range(r + 1, t + 1):
        if held is not None:
            # the unit's Reduce of the previous step, over its rebuilt inbox
            prev = step - 1
            current = _replay_reduce(cluster, prev, held, owners_new)
            records_recomputed += sum(map(len, held.values()))
            replayed.append(prev)
        spec = cluster.step_history[step].spec
        owners_then = cluster.step_history[step].owners
        mapped: _Held = {
            holder: map_batch(spec.map_fn, batch, holder, step, "map during replay")
            for holder, batch in current.items()
        }
        # Keep only what the unit would have sent to itself, by ascending
        # owner (a key has one owner, so its values keep their order);
        # the rest already reached surviving owners before the failure.
        self_part: _Held = {}
        for holder, batch in mapped.items():
            parts = [part for dst, part in _split(cluster, holder, batch, owners_then)
                     if dst in failed]
            if parts:
                self_part[holder] = reduce(add, parts)
        if r == 0 and step < t:
            # The unit's own sends of this step died with its logs; with
            # no shuffle recovery point, a later input replay would need
            # them again, so re-log the recomputed copies on survivors.
            relog_bytes += _relog_mapped(cluster, step, mapped, failed, owners_then)
        held = _logged_to(cluster, step, failed, self_part)

    # held is now the unit's reconstructed inbox at step t
    records_recomputed += sum(map(len, held.values()))
    bytes_resent = _inject(cluster, t, held, owners_new)
    repair_bytes = relog_bytes + _repair_shares(cluster, r, failed)
    if r == t or r == 0:
        # The unit's delivered step-t sends still sit in the survivors'
        # pending inboxes; give them live log copies while they exist.
        repair_bytes += _relog_pending(cluster, t, failed)
    else:
        # The unit's step-r sends are gone for good (consumed by the
        # step-r reduces); refuse any later chain through step r.
        cluster.step_history[r].lost.update(failed)
    cluster.metrics.recoveries.append(
        RecoveryRecord(
            step=t,
            failed=tuple(sorted(failed)),
            recovery_point=r,
            replayed_steps=tuple(replayed),
            bytes_resent=bytes_resent,
            records_recomputed=records_recomputed,
            backup_repair_bytes=repair_bytes,
        )
    )
    cluster.owners = owners_new
    logger.info(
        "recovered PEs %s at step %d from recovery point %d "
        "(%d records recomputed, %d bytes re-sent)",
        sorted(failed), t, r, records_recomputed, bytes_resent,
    )


# ----------------------------------------------------------------------


def _require_one_group(cluster: Cluster, failed: set[PeId]) -> None:
    gids = {cluster.group_of[f] for f in failed}
    if len(gids) != 1:
        raise UnrecoverableFailure(
            f"simultaneous failure of PEs {sorted(failed)} spans multiple "
            "failure units; only one PE or one predefined group can fail at once"
        )
    gid = gids.pop()
    members_alive = {j for j in cluster.live if cluster.group_of[j] == gid}
    if failed != members_alive:
        raise UnrecoverableFailure(
            f"simultaneous failure of {sorted(failed)} is a strict subset of "
            f"failure group {gid}; groups fail as a unit"
        )


def _pick_heir(cluster: Cluster, failed: set[PeId], r: StepId) -> PeId:
    if cluster.backup_mode is BackupMode.SINGLE and r >= 1:
        for target in cluster.step_history[r].backup_manifest.get(min(failed), []):
            if target in cluster.live:
                return target
    return min(cluster.live)


def _logged_to(cluster: Cluster, step: StepId, failed: set[PeId], own: _Held) -> _Held:
    """The unit's step-``step`` inbox as the survivors hold it: what each
    logged as sent to the unit, then its part ``own`` of the unit's own
    sends."""
    held: _Held = {}
    for s in sorted(cluster.live):
        log = cluster.pes[s].sent_log.get(step, {})
        parts = [log[f] for f in sorted(failed) if f in log]
        if s in own:
            parts.append(own[s])
        if parts:
            held[s] = reduce(add, parts)
    return held


def _share_entries(cluster: Cluster, r: StepId, failed: set[PeId]) -> _Held:
    """The unit-internal records backed up on peers at recovery point
    ``r``, by share holder: the batches of its shares' entries for the
    unit's destinations, joined.

    Every share listed in the step's backup manifest must still be held
    by a live PE; a missing share means the data is gone for good.
    """
    hist = cluster.step_history[r]
    held: dict[PeId, list[Batch]] = {}
    for origin in sorted(failed):
        manifest = hist.backup_manifest.get(origin)
        if manifest is None:
            raise UnrecoverableFailure(
                f"no backup shares were stored for PE {origin} at "
                f"recovery point {r}"
            )
        for idx, target in enumerate(manifest):
            if target not in cluster.live:
                raise UnrecoverableFailure(
                    f"backup share {idx} of PE {origin} at step {r} was held "
                    f"by PE {target}, which has also failed"
                )
            share = cluster.pes[target].backup_store.get(r, {}).get((origin, idx))
            if share is None:
                raise UnrecoverableFailure(
                    f"backup share {idx} of PE {origin} at step {r} is missing "
                    f"on PE {target}"
                )
            held.setdefault(target, []).extend(
                batch for _, d, _, batch in share if d in failed
            )
    return {target: reduce(add, batches, Batch((), ())) for target, batches in held.items()}


def _holder_for(cluster: Cluster, dst: PeId) -> PeId:
    """A live PE to hold a log copy guarding ``dst``'s inbox.

    The single-mode backup target of ``dst``: the next live PE after it
    outside its failure group (group failures take the whole unit down
    at once).  Falls back to the next live peer in any group, and to
    ``dst`` itself only in a one-PE cluster.
    """
    for groups in (cluster.group_of, range(len(cluster.group_of))):
        targets = backup_targets(dst, cluster.live, BackupMode.SINGLE, groups)
        if targets:
            return targets[0]
    return dst


def _split(
    cluster: Cluster, holder: PeId, batch: Batch, owners: Owners
) -> list[tuple[PeId, Batch]]:
    """``batch`` cut by each key's owner under ``owners``.

    Returns ``(owner, batch)`` pairs, ascending owner, each batch in
    emission order.  The cut (:func:`ftmr.engine._layout`) and each
    owner's key column are kept in ``cluster.layouts`` under the holder
    and memo from first use, since the cut is needed anyway, so a
    replayed step that hands the holder the same keys again, or a
    second caller that cuts the same batch, cuts only its values, in C.
    A cut lasts one recovery, and the memo its id names outlives it.
    """
    keys, values = batch.keys, batch.values
    slot = (holder, id(owners))
    kept = cluster.layouts.get(slot)
    if kept is None or kept[0] != keys:
        owner_of = list(map(owners.__getitem__, keys))
        kept = cluster.layouts[slot] = (keys, [
            (dst, gather, gather(keys)) for dst, gather in _layout(owner_of, cluster.positions)
        ])
    return [(dst, Batch(column, gather(values))) for dst, gather, column in kept[1]]


def _log_copy(
    cluster: Cluster, holder: PeId, step: StepId, dst: PeId, batch: Batch
) -> PeId:
    """Log ``batch`` as step-``step`` sends to ``dst``; return the sender.

    The sender is ``holder`` unless it sits in ``dst``'s failure group;
    then a PE outside that group takes the copy, so the log never dies
    together with the inbox it guards.  The step's record notes the
    sender as guarding ``dst``'s inbox.  The logged batch may be a
    delivered inbox batch too, and its key column a route's, so a longer
    batch replaces it.
    """
    if cluster.group_of[holder] != cluster.group_of[dst]:
        sender = holder
    else:
        sender = _holder_for(cluster, dst)
    if sender != dst:
        cluster.step_history[step].guards.setdefault(sender, set()).add(dst)
    log = cluster.pes[sender].sent_log.setdefault(step, {})
    log[dst] = log[dst] + batch if dst in log else batch
    return sender


def _relog_pending(cluster: Cluster, t: StepId, failed: set[PeId]) -> int:
    """Give the unit's already-delivered step-``t`` sends live log copies.

    The exchange of step ``t`` completed before the unit died, so its
    outgoing records sit in the survivors' pending inboxes -- but the
    authoritative sender-side log is gone.  :func:`_log_copy` copies each
    surviving receiver's slice into a peer's sent log (outside the
    receiver's failure group while one is live), so the copy outlives a
    failure of the receiver itself.  Returns bytes shipped.
    """
    live_sorted = sorted(cluster.live)
    if len(live_sorted) < 2:
        return 0
    shipped = 0
    for owner in live_sorted:
        inbox = cluster.pes[owner].inbox
        for src in sorted(failed):
            batch = inbox.get(src)
            if batch:
                _log_copy(cluster, owner, t, owner, batch)
                shipped += batch.size
    return shipped


def _relog_mapped(
    cluster: Cluster, step: StepId, mapped: _Held, failed: set[PeId], owners_then: Owners
) -> int:
    """Re-log the unit's recomputed cross-PE sends of a replayed step.

    The recomputed copies already live on their recomputing survivors;
    appending them to sent logs costs network traffic only when the log
    copy must move off the original receiver.  Returns bytes shipped.
    """
    shipped = 0
    for holder, recomputed in mapped.items():
        for dst, batch in _split(cluster, holder, recomputed, owners_then):
            if dst in failed or dst not in cluster.live:
                continue
            if _log_copy(cluster, holder, step, dst, batch) != holder:
                shipped += batch.size
    return shipped


def _repair_shares(cluster: Cluster, r: StepId, failed: set[PeId]) -> int:
    """Re-create backup shares the failed PEs were holding for survivors.

    A share's origin keeps the authoritative copy of its unit-internal
    traffic in its own sent log, so a lost share k is re-cut from that
    log's batches exactly as the shuffle cut it
    (:func:`ftmr.engine.backup_share`), and charged as the shuffle
    charged it (:func:`ftmr.engine.share_bytes`).  Re-storing it on a
    live peer keeps the origin recoverable if it fails before the next
    recovery point.  Returns the bytes shipped to the new holders.
    """
    if r == 0:
        return 0
    hist = cluster.step_history[r]
    shipped = 0
    for origin in sorted(cluster.live):
        manifest = hist.backup_manifest.get(origin)
        if not manifest:
            continue
        lost = [k for k, target in enumerate(manifest) if target in failed]
        if not lost:
            continue
        eligible = backup_targets(
            origin, cluster.live, cluster.backup_mode, cluster.group_of
        )
        if not eligible:
            logger.warning(
                "cannot re-create the backup shares PE %s lost for PE %d: "
                "no live peer outside its failure group remains",
                sorted(manifest[k] for k in lost), origin,
            )
            # the manifest still names the dead holders, so a later
            # failure of the origin refuses instead of using partial shares
            continue
        log, gid = cluster.pes[origin].sent_log[r], cluster.group_of[origin]
        unit = [(dst, log[dst]) for dst in sorted(log) if cluster.group_of[dst] == gid]
        values, n = [v for _, batch in unit for v in batch.values], len(manifest)
        # the lost slots are refilled in place, off the surviving holders
        # while any eligible peer holds none
        fresh = [t for t in eligible if t not in manifest] or eligible
        for j, idx in enumerate(lost):
            target = manifest[idx] = fresh[j % len(fresh)]
            share_values = values[idx::n]
            share = backup_share(origin, unit, idx, n, share_values)
            cluster.pes[target].backup_store.setdefault(r, {})[(origin, idx)] = share
            shipped += share_bytes(share, share_values)
    return shipped


def _replay_reduce(
    cluster: Cluster, step: StepId, held: _Held, owners_new: Owners
) -> _Held:
    """Re-execute the unit's Reduce of ``step`` over its rebuilt inbox,
    noted first in the cluster's ledger, if any, one batch per (holder,
    new owner).  Each key group is held by the survivor that owns the
    key under the shrunk map, mirroring where the recomputation runs, so
    each owner's groups run as one :func:`ftmr.engine.chain_calls`
    charged to it.  The inbox takes its layout by key from the
    ``"replay"`` slot (:func:`ftmr.engine._inbox_layout`), so a layout
    is built once two replayed steps bring equal key columns.
    """
    if cluster.ledger is not None:
        for holder, rebuilt in held.items():
            for dst, batch in _split(cluster, holder, rebuilt, owners_new):
                cluster.ledger.note(step, dst, RECOVERY, batch)
    spec = cluster.step_history[step].spec
    by_owner: dict[PeId, list] = {}
    for group in group_entries(held, _inbox_layout(cluster, "replay", held)):
        by_owner.setdefault(owners_new[group[0]], []).append(group)
    return {
        owner: chain_calls(spec.reduce_fn, groups, owner, step, "reduce of key {1!r}",
                           "reduce during replay")
        for owner, groups in by_owner.items()
    }


def _inject(cluster: Cluster, t: StepId, held: _Held, owners_new: Owners) -> int:
    """Deliver the reconstructed step-``t`` inbox to its new owners.

    The inbox is walked by ascending holder, each holder's records in
    order, which fixes where each record lands in its new owner's inbox
    and hence the reduce value order.

    Records are appended to the contributors' sent logs under step ``t``
    so the recovery traffic is itself protected until the next recovery
    point retires it.  A record whose holder sits in its new owner's
    failure group is attributed to a PE outside that group instead, so
    the log copy never dies together with the inbox it guards.  An inbox
    batch is shared with a sent log and the ledger, so a longer batch
    replaces it.  Returns the bytes that crossed the (simulated) network.
    """
    bytes_resent = 0
    for holder, rebuilt in held.items():
        for dst, batch in _split(cluster, holder, rebuilt, owners_new):
            sender = _log_copy(cluster, holder, t, dst, batch)
            inbox = cluster.pes[dst].inbox
            inbox[sender] = inbox[sender] + batch if sender in inbox else batch
            # once off the holder, once more if the log copy moves off it
            hops = (holder != dst) + (sender != holder)
            if hops:
                bytes_resent += hops * batch.size
    return bytes_resent
