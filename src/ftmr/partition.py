"""Key hashing, hash-range ownership, and backup-placement policy.

Keys are hashed into the full 64-bit domain ``[0, 2**64)``.  The domain is
split into contiguous ranges, initially one equal range per PE.  When a PE
fails, its ranges are subdivided evenly among the survivors, so surviving
data never moves; only the failed PE's reconstructed records get new
owners.

The hash is fixed forever so that every PE (and every recovery) agrees on
ownership: fold the key bytes with 64-bit FNV-1a (offset basis
14695981039346656037, prime 1099511628211), then scramble the accumulator
with the splitmix64 finalizer (the two xor-shift-multiply rounds plus the
closing xor-shift).
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass

from .core import ConfigError, PeId

MASK64 = (1 << 64) - 1
HASH_SPACE = 1 << 64

FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211


def hash_key(key: bytes) -> int:
    """Map a key to a point in ``[0, 2**64)``.  Deterministic everywhere."""
    acc = FNV_OFFSET
    for b in key:
        acc ^= b
        acc = (acc * FNV_PRIME) & MASK64
    return splitmix_mix(acc)


def splitmix_mix(z: int) -> int:
    """The splitmix64 finalizer; also used to derive per-PE sub-seeds."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def mix_seed(seed: int, *salts: int) -> int:
    """Fold salts (PE id, step, draw index ...) into a 64-bit sub-seed."""
    acc = splitmix_mix(seed & MASK64)
    for salt in salts:
        acc = splitmix_mix((acc ^ (salt & MASK64)) + 0x9E3779B97F4A7C15)
    return acc


@dataclass(frozen=True, slots=True)
class Range:
    """Half-open hash range ``[lo, hi)`` owned by ``pe``."""

    pe: PeId
    lo: int
    hi: int

    def __post_init__(self):
        if not (0 <= self.lo < self.hi <= HASH_SPACE):
            raise ValueError(f"invalid range [{self.lo}, {self.hi})")

    @property
    def width(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True)
class PartitionMap:
    """Immutable total map from hash values to owning PEs.

    ``ranges`` is sorted by ``lo`` and covers ``[0, 2**64)`` without gaps
    or overlaps; a PE may own several ranges after failures.
    """

    ranges: tuple[Range, ...]

    def __post_init__(self):
        if not self.ranges:
            raise ValueError("empty partition map")
        pos = 0
        for r in self.ranges:
            if r.lo != pos:
                raise ValueError(f"gap or overlap at {pos}")
            pos = r.hi
        if pos != HASH_SPACE:
            raise ValueError("ranges do not cover the hash space")
        object.__setattr__(self, "_los", tuple(r.lo for r in self.ranges))

    def owner_of(self, h: int) -> PeId:
        """Owning PE of hash value ``h``."""
        if not (0 <= h < HASH_SPACE):
            raise ValueError(f"hash {h} outside the 64-bit domain")
        return self.ranges[bisect_right(self._los, h) - 1].pe

    def live_pes(self) -> tuple[PeId, ...]:
        return tuple(sorted({r.pe for r in self.ranges}))


class Owners(dict):
    """Owning PE of each key under one partition map, memoized.

    ``owners[key]`` hashes a key the first time it is asked for and looks
    its owner up in ``pm``; later lookups are one dict subscript.  A
    cluster keeps one memo for its current map until a failure replaces
    the map, so a key is hashed at most once per map, not once per
    step.  The new map keeps every survivor's range, so recovery starts
    the new memo with the old one's entries whose owner survived, and a
    failure hashes again only the failed unit's keys.  Each step's
    record holds the memo the step shuffled with, so the memo lives
    until the last step under its map is retired with the logs, and a
    replay of that step reuses it.  The memo is kept only while keys
    repeat: after a shuffle in which every routed record brought a key
    the memo had not seen, the shuffle empties it, so single-pass
    traffic over distinct keys holds no more memory than before the
    shuffle.  The shuffle's per-sender routes (:class:`ftmr.engine.Route`)
    are laid out under the memo and go with it:
    :meth:`ftmr.engine.Cluster.drop_derived` drops them, and the layouts
    and recovery's cuts beside them, whenever the memo is emptied or
    replaced.
    """

    def __init__(self, pm: PartitionMap):
        super().__init__()
        self.pm = pm

    def __missing__(self, key: bytes) -> PeId:
        owner = self[key] = self.pm.owner_of(hash_key(key))
        return owner


def initial_partition(p: int) -> PartitionMap:
    """Equal split of the hash space over PEs ``0 .. p-1``.

    Boundary i sits at ``floor(i * 2**64 / p)``; Python integers make the
    wide intermediate products exact.
    """
    if p < 1:
        raise ValueError("need at least one PE")
    bounds = [(i * HASH_SPACE) // p for i in range(p + 1)]
    return PartitionMap(
        tuple(Range(i, bounds[i], bounds[i + 1]) for i in range(p))
    )


def shrink_partition(pm: PartitionMap, failed: set[PeId], heirs=None) -> PartitionMap:
    """Redistribute every failed PE's range evenly over ``heirs``.

    ``heirs`` defaults to every survivor; one heir absorbs all the failed
    data, as in the single-recoverer mode.  Each failed range is cut into
    ``len(heirs)`` floor-sized pieces assigned in ascending PeId order.
    Survivor ranges are left untouched, so no live data has to move.
    """
    live = set(pm.live_pes())
    if not failed:
        return pm
    if not failed <= live:
        raise ValueError(f"failed PEs {sorted(failed - live)} not in the map")
    survivors = live - failed
    heirs = sorted(survivors if heirs is None else heirs)
    if not heirs:
        raise ValueError("no survivors to inherit the hash space")
    if not set(heirs) <= survivors:
        raise ValueError(f"heirs {sorted(set(heirs) - survivors)} are not survivors")
    s = len(heirs)
    out = []
    for r in pm.ranges:
        if r.pe not in failed:
            out.append(r)
            continue
        bounds = [r.lo + (k * r.width) // s for k in range(s + 1)]
        for k in range(s):
            if bounds[k] < bounds[k + 1]:  # skip zero-width slivers
                out.append(Range(heirs[k], bounds[k], bounds[k + 1]))
    return PartitionMap(tuple(out))


class BackupMode(enum.Enum):
    """Where self-messages get backed up at recovery points."""

    SPLIT = "split"
    SINGLE = "single"
    OFF = "off"

    @classmethod
    def parse(cls, mode: "str | BackupMode") -> "BackupMode":
        """The mode named ``mode``; a mode passes through unchanged."""
        try:
            return cls(mode)
        except ValueError:
            raise ConfigError(
                f"unknown backup mode {mode!r}; "
                f"pick one of {tuple(m.value for m in cls)}"
            ) from None


def backup_targets(
    i: PeId, live: set[PeId], mode: BackupMode, group_of: tuple[int, ...]
) -> list[PeId]:
    """Peers that hold PE ``i``'s self-message backup, in share order.

    split: every other live PE outside ``i``'s failure group, ascending.
    single: the next live PE after ``i`` (mod the id space), skipping dead
    PEs, ``i`` itself, and ``i``'s group.  off: no targets.
    ``group_of[j]`` is PE ``j``'s failure group.
    """
    if i not in live:
        raise ValueError(f"PE {i} is not live")
    if mode is BackupMode.OFF:
        return []
    gid = group_of[i]

    def eligible(j: PeId) -> bool:
        return j in live and group_of[j] != gid

    if mode is BackupMode.SPLIT:
        return [j for j in sorted(live) if eligible(j)]
    # single: scan upward from i+1 with wraparound over the id space
    span = max(live) + 1
    for off in range(1, span + 1):
        j = (i + off) % span
        if eligible(j):
            return [j]
    return []


def split_self_message(
    records: list, targets: list[PeId]
) -> list[tuple[PeId, list]]:
    """Partition a self-message round-robin over the backup targets.

    Entry k of the result pairs ``targets[k]`` with every record whose
    arrival index is congruent to k modulo ``len(targets)``.  Share sizes
    differ by at most one record, and interleaving the shares back in
    target order reproduces the input order.  Every target gets a share,
    possibly empty.
    """
    if not targets:
        raise ValueError("no backup targets to split over")
    n = len(targets)
    return [(t, records[k::n]) for k, t in enumerate(targets)]
