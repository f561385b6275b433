"""Benchmark jobs and seeded input generators.

Four workloads exercise the engine:

* ``wordcount``  -- count words drawn from a seeded dictionary,
* ``rmat``       -- deduplicate an R-MAT edge sample, redrawing a fresh
  edge per duplicate until a round sees none,
* ``cc``         -- connected components by alternating neighborhood
  rewrites until an iteration changes no edge,
* ``pagerank``   -- damped PageRank over a seeded random digraph.

Every generator derives a per-PE sub-seed with :func:`mix_seed`, so any
single PE's input partition can be regenerated on its own; that is what
input-replay recovery leans on.

The generators draw exactly what ``random.Random.randrange`` and
``getrandbits(64)`` would draw, with less Python per draw.  A uniform
index below ``n`` is ``getrandbits(n.bit_length())``, redrawn while it is
``>= n``: that is the rejection loop ``randrange`` runs for an int bound
(``Random._randbelow_with_getrandbits``), inlined.  ``getrandbits(k)``
fills 32-bit words least-significant first, so one draw of ``128 * c``
bits is ``c`` consecutive pairs of ``getrandbits(64)`` draws.

Typed encodings (little-endian) on top of the byte-record model:
vertices are u64, counters u64, scores IEEE f64, edges pairs of u64.
Every source returns a :class:`~ftmr.core.Batch` and every map and
reduce a key column and a value column, so no job builds a ``Record``.
"""

from __future__ import annotations

import random
import struct
from collections.abc import Sequence
from functools import lru_cache
from itertools import chain, starmap
from math import fsum
from operator import itemgetter

from .core import Batch, ConfigError, StepId
from .engine import (
    Columns, Job, JobError, ListDriver, RecordSource, ReduceFn, StepSpec, identity_map,
)
from .partition import hash_key, mix_seed

U64 = struct.Struct("<Q")
F64 = struct.Struct("<d")
PAIR = struct.Struct("<QQ")
# an 8-byte key and an 8-byte value, cut from one packed buffer
_KEY_VALUE = struct.Struct("8s8s")

# Graph500 R-MAT quadrant probabilities (a, b, c, d).
RMAT_GRAPH500 = (0.57, 0.19, 0.19, 0.05)

# Desk-scale default average degree of each graph workload.
DEFAULT_DEGREES = {"rmat": 30.0, "cc": 0.5, "pagerank": 38.0}

PAGERANK_DAMPING = 0.85
# the iterative drivers (rmat dedup, cc) fail a job that runs more rounds
MAX_ROUNDS = 100


# -- input generators --------------------------------------------------


def gen_text(seed: int, n_words: int, dictionary: list[bytes]) -> Batch:
    """``n_words`` uniform draws from the dictionary, packed 8 per line,
    one record per line with an empty key."""
    if not dictionary:
        raise ValueError("empty dictionary")
    getrandbits = random.Random(seed).getrandbits
    size = len(dictionary)
    k = size.bit_length()
    words = []
    append = words.append
    for _ in range(n_words):
        # rng.randrange(size), inlined
        i = getrandbits(k)
        while i >= size:
            i = getrandbits(k)
        append(dictionary[i])
    lines = [b" ".join(words[i : i + 8]) for i in range(0, n_words, 8)]
    return Batch([b""] * len(lines), lines)


def gen_gnm(seed: int, n: int, m: int) -> list[tuple[int, int]]:
    """``m`` uniform ordered pairs over ``n`` vertices, no self-loops,
    drawn with replacement."""
    if n < 2:
        raise ValueError("need at least two vertices")
    getrandbits = random.Random(seed).getrandbits
    nv = n - 1
    ku = n.bit_length()
    kv = nv.bit_length()
    edges = []
    append = edges.append
    for _ in range(m):
        # u = rng.randrange(n) and v = rng.randrange(n - 1), inlined
        u = getrandbits(ku)
        while u >= n:
            u = getrandbits(ku)
        v = getrandbits(kv)
        while v >= nv:
            v = getrandbits(kv)
        if v >= u:
            v += 1
        append((u, v))
    return edges


def rmat_edge(rng: random.Random, scale: int, probs=RMAT_GRAPH500) -> tuple[int, int]:
    """One edge from the recursive quadrant process, most significant bit
    chosen first."""
    a, b, c, _d = probs
    u = v = 0
    for _ in range(scale):
        x = rng.random()
        if x < a:
            bits = (0, 0)
        elif x < a + b:
            bits = (0, 1)
        elif x < a + b + c:
            bits = (1, 0)
        else:
            bits = (1, 1)
        u = (u << 1) | bits[0]
        v = (v << 1) | bits[1]
    return u, v


def rmat_scale(n: int) -> int:
    """``log2 n`` of an R-MAT vertex count ``n``, a power of two >= 2."""
    if n < 2 or n & (n - 1):
        raise ConfigError(
            f"rmat needs a power-of-two vertex count of at least 2; got {n}"
        )
    return n.bit_length() - 1


def gen_rmat(seed: int, n: int, m: int, probs=RMAT_GRAPH500) -> list[tuple[int, int]]:
    """``m`` R-MAT edges over ``n`` vertices (``n`` a power of two)."""
    scale = rmat_scale(n)
    if abs(sum(probs) - 1.0) > 1e-9:
        raise ValueError(f"quadrant probabilities {probs} do not sum to 1")
    rng = random.Random(seed)
    return [rmat_edge(rng, scale, probs) for _ in range(m)]


def _per_pe_count(total: int, p: int, pe: int) -> int:
    return total // p + (1 if pe < total % p else 0)


# -- word count ---------------------------------------------------------


def default_dictionary(n_words: int) -> list[bytes]:
    return [b"w%05d" % i for i in range(n_words)]


def word_count_job(
    p: int, seed: int, *, words_per_pe: int = 10_000, dict_words: int = 1000
) -> Job:
    """One Map/Reduce step: split lines on ASCII whitespace, sum counts."""
    dictionary = default_dictionary(dict_words)

    def source(pe: int) -> Batch:
        return gen_text(mix_seed(seed, pe), words_per_pe, dictionary)

    one = U64.pack(1)

    def map_fn(key: bytes, line: bytes) -> tuple[list[bytes], list[bytes]]:
        words = line.split()
        return words, [one] * len(words)

    def reduce_fn(key: bytes, values: Sequence[bytes]) -> tuple[tuple[bytes], tuple[bytes]]:
        total = sum(U64.unpack(v)[0] for v in values)
        return (key,), (U64.pack(total),)

    driver = ListDriver([StepSpec("wordcount", map_fn, reduce_fn)])
    return Job(RecordSource(source), driver)


# -- R-MAT deduplication ------------------------------------------------


def edge_key(u: int, v: int) -> bytes:
    """Orientation-free grouping key of an undirected edge."""
    return PAIR.pack(min(u, v), max(u, v))


class _RmatDedupDriver:
    """Rerun the dedup step until a round finds zero duplicates."""

    def __init__(self, make_spec):
        self.make_spec = make_spec

    def next_step(self, index, prev_aggregate):
        if index > 1 and prev_aggregate == 0:
            return None
        if index > MAX_ROUNDS:
            raise JobError(-1, index, "driver", RuntimeError(
                f"dedup failed to converge within {MAX_ROUNDS} rounds"
            ))
        return self.make_spec(index)


def rmat_dedup_job(
    p: int,
    seed: int,
    *,
    n_vertices: int,
    avg_degree: float = DEFAULT_DEGREES["rmat"],
    probs=RMAT_GRAPH500,
) -> Job:
    """Group edges by unordered endpoint pair; keep one copy per pair and
    redraw a fresh R-MAT edge for every duplicate, until no duplicates
    remain.  Output: one record per distinct pair, cardinality equal to
    the requested edge count."""
    n = n_vertices
    scale = rmat_scale(n)
    m = round(avg_degree * n / 2)
    distinct_pairs = n * (n + 1) // 2
    if m > distinct_pairs:
        raise ConfigError(
            f"{m} edges cannot be distinct over {distinct_pairs} vertex pairs"
        )

    def source(pe: int) -> Batch:
        edges = gen_rmat(mix_seed(seed, pe), n, _per_pe_count(m, p, pe), probs)
        return Batch(list(starmap(edge_key, edges)), list(starmap(PAIR.pack, edges)))

    def make_spec(step: int) -> StepSpec:
        def reduce_fn(key: bytes, values: Sequence[bytes]) -> tuple[list[bytes], list[bytes]]:
            keys, out = [key], [min(values)]
            for j in range(len(values) - 1):
                rng = random.Random(mix_seed(seed, 0xED6E, step, hash_key(key), j))
                u, v = rmat_edge(rng, scale, probs)
                keys.append(edge_key(u, v))
                out.append(PAIR.pack(u, v))
            return keys, out

        def counter_fn(key: bytes, values: Sequence[bytes]) -> int:
            return len(values) - 1

        return StepSpec(f"dedup-{step}", identity_map, reduce_fn, counter_fn)

    return Job(RecordSource(source), _RmatDedupDriver(make_spec))


# -- connected components ----------------------------------------------

_MARKER = b""


def _neighbors(values: Sequence[bytes]) -> tuple[list[int], bool]:
    """Distinct decoded neighbor ids (sorted) and a had-marker flag."""
    nbrs = set()
    marker = False
    for v in values:
        if v == _MARKER:
            marker = True
        else:
            nbrs.add(U64.unpack(v)[0])
    return sorted(nbrs), marker


def _cc_large_spec() -> StepSpec:
    def map_fn(key: bytes, value: bytes) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
        if value == _MARKER:
            return (key,), (value,)
        return (key, value), (value, key)

    def reduce_fn(key: bytes, values: Sequence[bytes]) -> tuple[list[bytes], list[bytes]]:
        (u,) = U64.unpack(key)
        nbrs, marker = _neighbors(values)
        out = [U64.pack(v) for v in nbrs if v > u]
        keys = [U64.pack(min(nbrs + [u]))] * len(out)
        if marker:
            keys.append(key)
            out.append(_MARKER)
        return keys, out

    def counter_fn(key: bytes, values: Sequence[bytes]) -> int:
        (u,) = U64.unpack(key)
        nbrs, _ = _neighbors(values)
        if not nbrs or min(nbrs + [u]) == u:
            return 0
        return sum(1 for v in nbrs if v > u)

    return StepSpec("cc-large-star", map_fn, reduce_fn, counter_fn)


def _cc_small_spec() -> StepSpec:
    def map_fn(key: bytes, value: bytes) -> tuple[tuple[bytes], tuple[bytes]]:
        if value == _MARKER:
            return (key,), (value,)
        (u,) = U64.unpack(key)
        (v,) = U64.unpack(value)
        hi, lo = (u, v) if u > v else (v, u)
        return (U64.pack(hi),), (U64.pack(lo),)

    def reduce_fn(key: bytes, values: Sequence[bytes]) -> tuple[list[bytes], list[bytes]]:
        (u,) = U64.unpack(key)
        nbrs, marker = _neighbors(values)
        keys, out = [], []
        if nbrs:
            ell = min(nbrs)
            out = [U64.pack(v) for v in sorted(set(nbrs + [u]) - {ell})]
            keys = [U64.pack(ell)] * len(out)
        if marker:
            keys.append(key)
            out.append(_MARKER)
        return keys, out

    def counter_fn(key: bytes, values: Sequence[bytes]) -> int:
        nbrs, _ = _neighbors(values)
        if not nbrs:
            return 0
        return len(set(nbrs) - {min(nbrs)})

    return StepSpec("cc-small-star", map_fn, reduce_fn, counter_fn)


def _cc_extract_spec() -> StepSpec:
    def map_fn(key: bytes, value: bytes) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
        if value == _MARKER:
            return (key,), (key,)
        return (value, key), (key, key)

    def reduce_fn(key: bytes, values: Sequence[bytes]) -> tuple[tuple[bytes], tuple[bytes]]:
        rep = min(U64.unpack(v)[0] for v in values)
        return (key,), (U64.pack(rep),)

    return StepSpec("cc-extract", map_fn, reduce_fn)


class _CcDriver:
    """Alternate large-star and small-star until one full round changes
    nothing, then run one extraction step mapping every vertex to its
    component minimum."""

    def __init__(self):
        self.last: str | None = None
        self.large_changes = 0
        self.rounds = 0

    def next_step(self, index, prev_aggregate):
        if self.last == "extract":
            return None
        if self.last == "large":
            self.large_changes = prev_aggregate
            self.last = "small"
            return _cc_small_spec()
        if self.last == "small" and self.large_changes + prev_aggregate == 0:
            self.last = "extract"
            return _cc_extract_spec()
        self.rounds += 1
        if self.rounds > MAX_ROUNDS:
            raise JobError(-1, index, "driver", RuntimeError(
                f"components failed to converge within {MAX_ROUNDS} rounds"
            ))
        self.last = "large"
        return _cc_large_spec()


def connected_components_job(
    p: int,
    seed: int,
    *,
    n_vertices: int,
    avg_degree: float = DEFAULT_DEGREES["cc"],
) -> Job:
    """Undirected components; output one (vertex, representative) record
    per vertex, the representative being the component's minimum id.
    Isolated vertices ride along as marker records so they still report
    themselves."""
    n = n_vertices
    m = round(avg_degree * n / 2)

    def source(pe: int) -> Batch:
        lo = pe * n // p
        hi = (pe + 1) * n // p
        edges = gen_gnm(mix_seed(seed, pe), n, _per_pe_count(m, p, pe))
        # a marker per vertex of the PE's range, then u's key and v's
        # value per edge (u, v)
        keys = [*map(U64.pack, range(lo, hi)), *map(U64.pack, map(itemgetter(0), edges))]
        values = [_MARKER] * (hi - lo) + list(map(U64.pack, map(itemgetter(1), edges)))
        return Batch(keys, values)

    return Job(RecordSource(source), _CcDriver())


# -- PageRank -----------------------------------------------------------

_TAG_COMBINED = b"c"
_TAG_SCORE = b"s"
_TAG_DANGLING = b"d"
_TAG_ADJ = b"a"
# the tags of a share: a score over out-edges, or a dangling vertex's
_SHARE_TAGS = (_TAG_SCORE, _TAG_DANGLING)


class _PagerankDriver(ListDriver):
    """PageRank's fixed steps, and the live generations of its score
    table: share value -> the score it carries.  A share's sender stores
    its float in the generation that the share's readers read, so a
    reduce finds every share sent to it without decoding it; an entry is
    exact, since ``F64.unpack(F64.pack(x))[0]`` is ``x`` bit for bit.  At
    the start of step ``index``, ``scores[0]``, which the step's reduces
    read, becomes what its senders stored (step 1's map, or the previous
    step's reduces), and ``scores[1]`` a new generation for the step's
    reduces to fill for the next step's.  Only senders write, and only
    into these two, so a replayed step adds no entry and a generation
    holds at most ``n`` entries, one per vertex.  A reduce that misses
    (a replayed one reading logged shares of an older step) decodes its
    group itself and stores nothing.
    """

    def __init__(self, steps: list[StepSpec], scores: list[dict[bytes, float]]):
        super().__init__(steps)
        self.scores = scores
        self.index = 0

    def next_step(self, index: StepId, prev_aggregate: int | None) -> StepSpec | None:
        self.index = index
        self.scores[:] = self.scores[1], {}
        return super().next_step(index, prev_aggregate)


@lru_cache(maxsize=32)
def _pagerank_adjacency(seed: int, n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Out-adjacency of the seeded digraph, parallel edges preserved."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in gen_gnm(mix_seed(seed, 0x96A9), n, m):
        adj[u].append(v)
    return tuple(tuple(sorted(out)) for out in adj)


def _decode_shares(shares: list[bytes]) -> tuple[float, ...]:
    """The scores of a group of shares, unpacked from one joined buffer in
    one C call.  Every value must be 9 bytes tagged ``s`` or ``d``, else
    ``ValueError`` (or ``TypeError`` for a value that is no buffer).  A
    joined length of ``9 * k`` is not enough: an 8-byte and a 10-byte
    value join to two 9-byte slices, so each value must equal its own."""
    joined = b"".join(shares)
    k = len(shares)
    if (len(joined) != 9 * k or struct.unpack("9s" * k, joined) != tuple(shares)
            or joined[::9].translate(None, _TAG_SCORE + _TAG_DANGLING)):
        raise ValueError("not a group of shares")
    return struct.unpack("<" + "xd" * k, joined)


def pagerank_job(
    p: int,
    seed: int,
    *,
    n_vertices: int,
    avg_degree: float = DEFAULT_DEGREES["pagerank"],
    iterations: int = 100,
    damping: float = PAGERANK_DAMPING,
) -> Job:
    """Power iteration with damping 0.85; a dangling vertex fans its mass
    out uniformly so the scores keep summing to one.  Step 1's map sends
    each vertex's messages, and each reduce but the last sends the next
    step's, so steps 2 .. N run :func:`identity_map`."""
    n = n_vertices
    m = round(avg_degree * n / 2)
    # one key object per vertex, shared by every record addressed to it
    vertex_keys = tuple(U64.pack(v) for v in range(n))
    vertex_key = vertex_keys.__getitem__

    def source(pe: int) -> Batch:
        adj = _pagerank_adjacency(seed, n, m)
        lo = pe * n // p
        hi = (pe + 1) * n // p
        head = _TAG_COMBINED + F64.pack(1.0 / n)
        values = [head + b"".join(map(vertex_key, out)) for out in adj[lo:hi]]
        return Batch(vertex_keys[lo:hi], values)

    first = itemgetter(0)
    unpack_score = F64.unpack_from
    # vertex key -> (its adjacency bytes, the adjacency value it sends,
    # its key column: the vertex, then each target, or every vertex if it
    # dangles; its share count d, which divides its score (the
    # out-degree, or n if it dangles), and its share tag): a vertex's
    # adjacency never changes, so every step re-sends one value object
    # (the retained logs keep one copy, not one per step), each adjacency
    # is decoded once per job, and the reduce finds the adjacency among a
    # vertex's values by it
    columns: dict[bytes, tuple[bytes, bytes, tuple[bytes, ...], int, bytes]] = {}
    # the score table's generations (see _PagerankDriver)
    scores: list[dict[bytes, float]] = [{}, {}]

    def entry(key: bytes, adj_bytes: bytes) -> tuple:
        # the vertex's columns entry for this adjacency
        hit = columns.get(key)
        if hit is None or hit[0] != adj_bytes:
            if adj_bytes:
                targets = map(vertex_key, map(first, U64.iter_unpack(adj_bytes)))
                keys, tag = (key, *targets), _TAG_SCORE
            else:
                keys, tag = (key, *vertex_keys), _TAG_DANGLING
            hit = columns[key] = (adj_bytes, _TAG_ADJ + adj_bytes, keys, len(keys) - 1, tag)
        return hit

    def emit(step: StepId, hit: tuple, score: float) -> Columns:
        # step ``step``'s messages of the vertex of columns entry ``hit``:
        # the adjacency to itself, a share to each target, one value
        # object per vertex and step (sent logs keep every share)
        _, adj_value, keys, d, tag = hit
        x = score / d
        share = tag + F64.pack(x)
        # into its readers' generation; a replayed step's readers are done
        generation = step - driver.index
        if 0 <= generation <= 1:
            scores[generation][share] = x
        return keys, (adj_value,) + (share,) * d

    def map_fn(key: bytes, body: bytes) -> Columns:
        # step 1's: the messages of the vertex's input record
        if body[:1] != _TAG_COMBINED:
            raise ValueError("pagerank map expects combined score+adjacency records")
        return emit(1, entry(key, body[9:]), unpack_score(body, 1)[0])

    # fsum rounds the exact sum once, so the score is the same in
    # whatever order the shares arrive (after a failure the heirs send
    # the dead PE's shares); builtin sum depends on the order, also with
    # the compensation it has from Python 3.12 on
    teleport = (1.0 - damping) / n

    def reduce_values(key: bytes, values: Sequence[bytes]) -> tuple[bytes, float]:
        # the vertex's adjacency bytes and score, one value at a time:
        # every refusal is made here
        shares = []
        adj_bytes = None
        for val in values:
            tag = val[:1]
            if tag == _TAG_ADJ:
                if adj_bytes is not None:
                    raise ValueError(f"duplicate adjacency for vertex key {key!r}")
                adj_bytes = val[1:]
            elif len(val) == 9 and tag in _SHARE_TAGS:
                shares.append(unpack_score(val, 1)[0])
            else:
                raise ValueError(
                    f"malformed share {val!r} for vertex key {key!r}: "
                    "a share is 9 bytes tagged b's' or b'd'"
                )
        if adj_bytes is None:
            raise ValueError(f"no adjacency arrived for vertex key {key!r}")
        return adj_bytes, teleport + damping * fsum(shares)

    def reduce_at(step: StepId) -> ReduceFn:
        # step ``step``'s reduce.  The adjacency is the value the vertex
        # sent, so the cache finds it, and every other value is a share
        # whose score the read generation holds or, if it misses, one
        # decode of the group gives; a group of any other shape (no
        # cached vertex, no such adjacency, a value that is not a share)
        # goes to reduce_values, so this returns exactly what it gives
        # and it makes every refusal.  The last step's outputs are the
        # vertex's combined record; every other step sends what the map
        # would of that record, so the steps after the first map nothing
        def reduce_fn(key: bytes, values: Sequence[bytes]) -> Columns:
            try:
                hit = columns[key]
                shares = list(values)
                del shares[values.index(hit[1])]
                try:
                    total = fsum(map(scores[0].__getitem__, shares))
                except KeyError:
                    total = fsum(_decode_shares(shares))
            except (TypeError, ValueError, KeyError):
                adj_bytes, score = reduce_values(key, values)
                hit = None
            else:
                adj_bytes, score = hit[0], teleport + damping * total
            if step == iterations:
                return (key,), (_TAG_COMBINED + F64.pack(score) + adj_bytes,)
            return emit(step + 1, hit or entry(key, adj_bytes), score)

        return reduce_fn

    steps = [
        StepSpec("pagerank", map_fn if s == 1 else identity_map, reduce_at(s))
        for s in range(1, iterations + 1)
    ]
    driver = _PagerankDriver(steps, scores)
    return Job(RecordSource(source), driver)


# -- synthetic uniform workload (overhead measurements) -----------------


def uniform_job(p: int, seed: int, *, total_records: int) -> Job:
    """Single pass-through step over uniformly random 8-byte keys; used to
    measure backup traffic against shuffle traffic."""

    def source(pe: int) -> Batch:
        # one draw per PE: record i's key and value are the i-th pair of
        # getrandbits(64) draws, as little-endian bytes
        count = _per_pe_count(total_records, p, pe)
        bits = random.Random(mix_seed(seed, pe)).getrandbits(128 * count)
        buf = bits.to_bytes(16 * count, "little")
        flat = list(chain.from_iterable(_KEY_VALUE.iter_unpack(buf)))
        return Batch(flat[0::2], flat[1::2])

    def reduce_fn(key: bytes, values: Sequence[bytes]) -> tuple[tuple[bytes, ...], Sequence[bytes]]:
        return (key,) * len(values), values

    return Job(RecordSource(source), ListDriver([StepSpec("uniform", identity_map, reduce_fn)]))

