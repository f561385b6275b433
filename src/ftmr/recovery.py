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

A rebuilt inbox has a PE inbox's shape, keyed by the survivor holding
each record: what it logged as sent to the unit, then its part of the
unit's own sends (shares at ``r``, replayed self-sends later).  Every
refusal fires before the scrub, so it leaves the cluster as it was.

All re-routed records are appended to survivors' sent logs under their
step ids (a record whose new owner would also be its holder is attributed
to a rotated peer, so an off-owner copy always exists).  That keeps a
later failure before the next recovery point recoverable as well.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from .core import ConfigError, PeId, Record, StepId, records_size
from .engine import Cluster, JobError, group_entries, unit_entries
from .metrics import RECOVERY, DeliveryLedger, RecoveryRecord
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


# (part of) a rebuilt inbox: holder PE -> the records it holds
_Held = dict[PeId, list[Record]]


def recover(cluster: Cluster, event: FailureEvent) -> None:
    """Handle one failure event; mutates the cluster in place.

    The rebuilt inboxes of replayed steps are noted in the cluster's
    ledger when it has one (what injection delivers is noted by
    :meth:`Cluster.step`).  Raises :class:`UnrecoverableFailure`, before
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
    # the refusal state holds only this interval's entries: Cluster.step
    # empties it when a recovery point starts
    if cluster.lost_logs:
        s, pe = min(cluster.lost_logs)
        raise UnrecoverableFailure(
            f"recovering PEs {sorted(failed)} needs the step-{s} sends of "
            f"PE {pe}, which were lost for good when it failed mid-interval"
        )
    holdings = cluster.reprotect_holdings
    inbox_holes = [
        (s, d) for h in holdings if h not in cluster.live
        for (s, d) in holdings[h] if d in failed
    ]
    if inbox_holes:
        s, d = min(inbox_holes)
        raise UnrecoverableFailure(
            f"the step-{s} inbox of PE {d} lost its only off-PE copy when "
            f"an earlier failure took the holder down"
        )

    same_event = [
        (f, s, d) for f in failed for (s, d) in holdings.get(f, ()) if d in failed
    ]
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
    # entries stay in the holdings, as the inboxes a later failure lost.
    for f in failed:
        cluster.pes[f].scrub()
        cluster.live.discard(f)

    heirs = [_pick_heir(cluster, failed, r)] if cluster.single_recoverer else None
    owners_new = Owners(shrink_partition(cluster.owners.pm, failed, heirs))

    records_recomputed = 0
    relog_bytes = 0
    replayed: list[StepId] = []

    # --- phase 1: the unit's stream at the recovery point ---------------
    held = _logged_to(cluster, r, failed, shared) if r else None
    if r == 0:  # no recovery point: replay from the regenerated input
        current: _Held = {}
        for f in sorted(failed):
            for rec in cluster.source.fn(f):
                current.setdefault(owners_new[rec.key], []).append(rec)
        records_recomputed += sum(map(len, current.values()))

    # --- phase 2: replay up to the failure step --------------------------
    for step in range(r + 1, t + 1):
        if held is not None:
            # the unit's Reduce of the previous step, over its rebuilt inbox
            prev = step - 1
            if cluster.ledger is not None:
                _note_rebuilt(cluster.ledger, prev, held, owners_new)
            current = _replay_reduce(cluster, prev, held, owners_new)
            records_recomputed += sum(map(len, held.values()))
            replayed.append(prev)
        spec = cluster.step_history[step].spec
        owners_then = cluster.step_history[step].owners
        mapped: _Held = {}
        for holder, recs in current.items():
            out = mapped[holder] = []
            for rec in recs:
                try:
                    produced = spec.map_fn(rec)
                except Exception as exc:  # noqa: BLE001
                    raise JobError(holder, step, "map during replay", exc) from exc
                out.extend(produced)
        # Keep only what the unit would have sent to itself; the rest
        # already reached surviving owners before the failure.
        self_part = {
            holder: [rec for rec in recs if owners_then[rec.key] in failed]
            for holder, recs in mapped.items()
        }
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
        cluster.lost_logs.update((r, f) for f in failed)
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
        recs = [rec for f in sorted(failed) for rec in log.get(f, ())]
        recs += own.get(s, ())
        if recs:
            held[s] = recs
    return held


def _share_entries(cluster: Cluster, r: StepId, failed: set[PeId]) -> _Held:
    """The unit-internal records backed up on peers at recovery point
    ``r``, by share holder.

    Every share listed in the step's backup manifest must still be held
    by a live PE; a missing share means the data is gone for good.
    """
    hist = cluster.step_history[r]
    held: _Held = {}
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
                rec for _, d, _, rec in share if d in failed
            )
    return held


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


def _log_copy(
    cluster: Cluster, holder: PeId, step: StepId, dst: PeId, rec: Record
) -> PeId:
    """Log ``rec`` as a step-``step`` send to ``dst``; return the sender.

    The sender is ``holder`` unless it sits in ``dst``'s failure group;
    then a PE outside that group takes the copy, so the log never dies
    together with the inbox it guards.  The sender is noted as holding a
    copy of ``dst``'s step inbox.
    """
    if cluster.group_of[holder] != cluster.group_of[dst]:
        sender = holder
    else:
        sender = _holder_for(cluster, dst)
    if sender != dst:
        cluster.reprotect_holdings.setdefault(sender, set()).add((step, dst))
    cluster.pes[sender].sent_log.setdefault(step, {}).setdefault(dst, []).append(rec)
    return sender


def _relog_pending(cluster: Cluster, t: StepId, failed: set[PeId]) -> int:
    """Give the unit's already-delivered step-``t`` sends live log copies.

    The exchange of step ``t`` completed before the unit died, so its
    outgoing records sit in the survivors' pending inboxes -- but the
    authoritative sender-side log is gone.  Each surviving receiver's
    slice is copied into a peer's sent log (off the receiver, so the copy
    outlives a failure of the receiver itself).  Returns bytes shipped.
    """
    live_sorted = sorted(cluster.live)
    if len(live_sorted) < 2:
        return 0
    shipped = 0
    for owner in live_sorted:
        holder = _holder_for(cluster, owner)
        inbox = cluster.pes[owner].inbox
        for src in sorted(failed):
            recs = inbox.get(src, ())
            for rec in recs:
                _log_copy(cluster, holder, t, owner, rec)
            shipped += records_size(recs)
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
    for holder, recs in mapped.items():
        for rec in recs:
            dst = owners_then[rec.key]
            if dst in failed or dst not in cluster.live:
                continue
            if _log_copy(cluster, holder, step, dst, rec) != holder:
                shipped += rec.size
    return shipped


def _repair_shares(cluster: Cluster, r: StepId, failed: set[PeId]) -> int:
    """Re-create backup shares the failed PEs were holding for survivors.

    A share's origin keeps the authoritative copy of its unit-internal
    traffic in its own sent log, so a lost share k is re-cut from that
    log exactly as the shuffle cut it (:func:`unit_entries`).  Re-storing
    it on a live peer keeps the origin recoverable if it fails before
    the next recovery point.  Returns the bytes shipped to the new
    holders.
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
        entries = unit_entries(origin, cluster.pes[origin].sent_log[r], cluster.group_of)
        # the lost slots are refilled in place, off the surviving holders
        # while any eligible peer holds none
        fresh = [t for t in eligible if t not in manifest] or eligible
        for j, idx in enumerate(lost):
            target = manifest[idx] = fresh[j % len(fresh)]
            share = entries[idx :: len(manifest)]
            cluster.pes[target].backup_store.setdefault(r, {})[(origin, idx)] = share
            shipped += records_size(map(itemgetter(3), share))
    return shipped


def _replay_reduce(
    cluster: Cluster, step: StepId, held: _Held, owners_new: Owners
) -> _Held:
    """Re-execute the unit's Reduce of ``step`` over its rebuilt inbox.

    Each key group is held by the survivor that owns the key under the
    shrunk map, mirroring where the recomputation runs.
    """
    spec = cluster.step_history[step].spec
    out: _Held = {}
    for key, values in group_entries(held):
        owner = owners_new[key]
        try:
            produced = spec.reduce_fn(key, values)
        except Exception as exc:  # noqa: BLE001
            raise JobError(owner, step, "reduce during replay", exc) from exc
        out.setdefault(owner, []).extend(produced)
    return out


def _inject(cluster: Cluster, t: StepId, held: _Held, owners_new: Owners) -> int:
    """Deliver the reconstructed step-``t`` inbox to its new owners.

    The inbox is walked by ascending holder, each holder's records in
    order, which fixes where each record lands in its new owner's inbox
    and hence the reduce value order.

    Records are appended to the contributors' sent logs under step ``t``
    so the recovery traffic is itself protected until the next recovery
    point retires it.  A record whose holder sits in its new owner's
    failure group is attributed to a PE outside that group instead, so
    the log copy never dies together with the inbox it guards.  Returns
    the bytes that crossed the (simulated) network.
    """
    bytes_resent = 0
    for holder, recs in held.items():
        for rec in recs:
            dst = owners_new[rec.key]
            sender = _log_copy(cluster, holder, t, dst, rec)
            cluster.pes[dst].inbox.setdefault(sender, []).append(rec)
            if holder != dst:
                bytes_resent += rec.size
            if sender != holder:
                bytes_resent += rec.size
    return bytes_resent


def _note_rebuilt(
    ledger: DeliveryLedger, step: StepId, held: _Held, owners_new: Owners
) -> None:
    """Note a rebuilt step inbox in ``ledger``, one batch per new owner."""
    by_dst: defaultdict[PeId, list[Record]] = defaultdict(list)
    for rec in chain.from_iterable(held.values()):
        by_dst[owners_new[rec.key]].append(rec)
    for dst, recs in by_dst.items():
        ledger.note(step, dst, RECOVERY, recs)
