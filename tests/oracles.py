"""Independent reference implementations the engine results are checked
against.

Each oracle recomputes the expected answer from the same seeded inputs
using a different algorithm than the engine path: plain counters for
word count, union-find for components, dense numpy power iteration for
PageRank.  None of them import the engine's map/reduce code.
:func:`pagerank_reduce_reference` is PageRank's reduce one value at a
time, the reference for the reduce that decodes each share once per
step.

The reference generators draw the seeded inputs the plain way, one
``randrange`` or ``getrandbits(64)`` call per number, as the generators
in ``ftmr.benchmarks`` must reproduce them.

The reference recovery walks deliver and re-log a rebuilt unit's records
one at a time, each record's owner looked up on its own; recovery's
per-(holder, destination) batches must leave every inbox, sent log and
re-protection holding exactly as these walks do.  :func:`plain` turns
the batches of logs, inboxes and ledgers into record lists, so they
compare by content, and :func:`batch_of` turns a record list into a
batch.

The reference backup split lists a unit's records one entry each
(:func:`unit_entries`), so share k of n is ``entries[k::n]``;
:func:`expand` turns a share as the engine stores it, one column-slice
entry per destination, back into those entries.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import chain, count, repeat
from math import fsum

import numpy as np

from ftmr.benchmarks import (
    F64,
    PAGERANK_DAMPING,
    U64,
    default_dictionary,
    gen_gnm,
    gen_text,
)
from ftmr.core import Batch, Record
from ftmr.partition import mix_seed
from ftmr.recovery import _holder_for


# -- reference generators ----------------------------------------------


def gen_text_reference(seed: int, n_words: int, dictionary: list[bytes]) -> list[Record]:
    """``gen_text`` with one ``randrange`` per word."""
    rng = random.Random(seed)
    words = [dictionary[rng.randrange(len(dictionary))] for _ in range(n_words)]
    return [Record(b"", b" ".join(words[i : i + 8])) for i in range(0, n_words, 8)]


def gen_gnm_reference(seed: int, n: int, m: int) -> list[tuple[int, int]]:
    """``gen_gnm`` with one ``randrange`` per endpoint."""
    rng = random.Random(seed)
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        edges.append((u, v))
    return edges


def uniform_reference(p: int, seed: int, total_records: int) -> list[list[Record]]:
    """Every PE's ``uniform`` input: one ``getrandbits(64)`` per key and
    one per value, as little-endian bytes."""
    inputs = []
    for pe in range(p):
        rng = random.Random(mix_seed(seed, pe))
        count = total_records // p + (1 if pe < total_records % p else 0)
        inputs.append([
            Record(rng.getrandbits(64).to_bytes(8, "little"),
                   rng.getrandbits(64).to_bytes(8, "little"))
            for _ in range(count)
        ])
    return inputs


def wordcount_expected(p: int, seed: int, words_per_pe: int, dict_words: int) -> Counter:
    """Word frequencies by splitting every generated line sequentially."""
    counts: Counter = Counter()
    dictionary = default_dictionary(dict_words)
    for pe in range(p):
        for rec in gen_text(mix_seed(seed, pe), words_per_pe, dictionary):
            counts.update(rec.value.split())
    return counts


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def cc_edges(p: int, seed: int, n: int, m: int) -> list[tuple[int, int]]:
    """The exact edge multiset the components workload generates."""
    edges = []
    for pe in range(p):
        share = m // p + (1 if pe < m % p else 0)
        edges.extend(gen_gnm(mix_seed(seed, pe), n, share))
    return edges


def cc_expected(p: int, seed: int, n: int, m: int) -> dict[int, int]:
    """vertex -> smallest vertex id in its component, via union-find."""
    uf = UnionFind(n)
    for u, v in cc_edges(p, seed, n, m):
        uf.union(u, v)
    # union-by-min keeps the smallest member as the root
    return {v: uf.find(v) for v in range(n)}


def pagerank_scores(outputs: dict[int, list]) -> dict[int, float]:
    """Decode per-vertex scores from a finished PageRank run."""
    return {
        U64.unpack(rec.key)[0]: F64.unpack_from(rec.value, 1)[0]
        for records in outputs.values()
        for rec in records
    }


def pagerank_expected(
    seed: int, n: int, m: int, iterations: int, damping: float = PAGERANK_DAMPING
) -> np.ndarray:
    """Dense power iteration over the same seeded digraph.

    Matches the engine's semantics: parallel edges carry mass once per
    copy, and a vertex without outgoing edges spreads its mass uniformly
    over all n vertices.
    """
    counts = np.zeros((n, n))
    outdeg = np.zeros(n)
    for u, v in gen_gnm(mix_seed(seed, 0x96A9), n, m):
        counts[v, u] += 1.0
        outdeg[u] += 1.0
    transfer = np.where(outdeg > 0, outdeg, 1.0)
    matrix = counts / transfer
    matrix[:, outdeg == 0] = 1.0 / n
    scores = np.full(n, 1.0 / n)
    for _ in range(iterations):
        scores = (1.0 - damping) / n + damping * (matrix @ scores)
    return scores


def pagerank_reduce_reference(key, values, n, damping=PAGERANK_DAMPING):
    """PageRank's reduce of one vertex, one value at a time: one value
    tagged ``a`` (the adjacency), every other a 9-byte share tagged
    ``s`` or ``d``.  Returns the vertex's output as ``(keys, values)``,
    or raises the error the job's reduce must raise, with the same
    message."""
    shares = []
    adjacency = None
    for val in values:
        tag = val[:1]
        if tag == b"a":
            if adjacency is not None:
                raise ValueError(f"duplicate adjacency for vertex key {key!r}")
            adjacency = val[1:]
        elif len(val) == 9 and tag in (b"s", b"d"):
            shares.append(F64.unpack_from(val, 1)[0])
        else:
            raise ValueError(
                f"malformed share {val!r} for vertex key {key!r}: "
                "a share is 9 bytes tagged b's' or b'd'"
            )
    if adjacency is None:
        raise ValueError(f"no adjacency arrived for vertex key {key!r}")
    score = (1.0 - damping) / n + damping * fsum(shares)
    return (key,), (b"c" + F64.pack(score) + adjacency,)


# -- reference recovery walks, one record at a time ------------------------


def log_copy_reference(cluster, holder, step, dst, rec):
    """Log one record as a step-``step`` send to ``dst``; the sender."""
    if cluster.group_of[holder] != cluster.group_of[dst]:
        sender = holder
    else:
        sender = _holder_for(cluster, dst)
    if sender != dst:
        cluster.step_history[step].guards.setdefault(sender, set()).add(dst)
    # a logged batch may be a delivered inbox batch: rebind, never extend
    log = cluster.pes[sender].sent_log.setdefault(step, {})
    log[dst] = batch_of([*log.get(dst, ()), rec])
    return sender


def inject_reference(cluster, t, held, owners_new):
    """Deliver each held record to its new owner, holders in order."""
    bytes_resent = 0
    for holder, recs in held.items():
        for rec in recs:
            dst = owners_new[rec.key]
            sender = log_copy_reference(cluster, holder, t, dst, rec)
            inbox = cluster.pes[dst].inbox
            inbox[sender] = batch_of([*inbox.get(sender, ()), rec])
            if holder != dst:
                bytes_resent += rec.size
            if sender != holder:
                bytes_resent += rec.size
    return bytes_resent


def relog_pending_reference(cluster, t, failed):
    """Copy each survivor's pending step-``t`` records from the unit
    into a peer's sent log, one record at a time."""
    live_sorted = sorted(cluster.live)
    if len(live_sorted) < 2:
        return 0
    shipped = 0
    for owner in live_sorted:
        holder = _holder_for(cluster, owner)
        inbox = cluster.pes[owner].inbox
        for src in sorted(failed):
            for rec in inbox.get(src, ()):
                log_copy_reference(cluster, holder, t, owner, rec)
                shipped += rec.size
    return shipped


def relog_mapped_reference(cluster, step, mapped, failed, owners_then):
    """Re-log each recomputed record sent to a live PE outside the unit."""
    shipped = 0
    for holder, recs in mapped.items():
        for rec in recs:
            dst = owners_then[rec.key]
            if dst in failed or dst not in cluster.live:
                continue
            if log_copy_reference(cluster, holder, step, dst, rec) != holder:
                shipped += rec.size
    return shipped


# -- reference backup shares, one entry per record ------------------------


def unit_entries(src, payloads, group_of):
    """Entries ``(src, dst, seq, record)``, one per record ``src`` sent
    inside its failure unit, by ascending ``dst``, then as sent (``seq``
    counts within ``dst``'s batch); share k of n is ``entries[k::n]``."""
    gid = group_of[src]
    return list(chain.from_iterable(
        zip(repeat(src), repeat(dst), count(), payloads[dst])
        for dst in sorted(payloads) if group_of[dst] == gid
    ))


def expand(share, n):
    """A stored share of ``n`` as :func:`unit_entries`' entries: entry
    ``(src, dst, s, batch)`` holds ``dst``'s records ``s, s + n, ...``."""
    return [
        (src, dst, s + j * n, rec)
        for src, dst, s, batch in share
        for j, rec in enumerate(batch)
    ]


# -- comparing delivered state ------------------------------------------


def batch_of(records, kind=Batch) -> Batch:
    """The batch of ``records``, ``(key, value)`` pairs, in order, as a
    ``kind``."""
    return kind([key for key, _ in records], [value for _, value in records])


def plain(obj):
    """``obj`` with every batch in its dicts, lists and tuples replaced by
    the list of its records; anything else, records too, stays as is."""
    if isinstance(obj, Batch):
        return list(obj)
    if isinstance(obj, dict):
        return {key: plain(value) for key, value in obj.items()}
    if type(obj) in (list, tuple):
        return type(obj)(map(plain, obj))
    return obj


class ColumnBatch(Batch):
    """A batch that refuses to build its records, for code that must read
    its columns."""

    __slots__ = ()

    def __iter__(self):
        raise AssertionError("batch iterated as records")
