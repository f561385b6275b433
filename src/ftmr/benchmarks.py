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
"""

from __future__ import annotations

import random
import struct
from collections.abc import Sequence
from functools import lru_cache
from itertools import repeat, starmap
from math import fsum
from operator import itemgetter

from .core import ConfigError, Record, records_from_pairs
from .engine import Job, JobError, ListDriver, RecordSource, StepSpec, identity_map
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


def gen_text(seed: int, n_words: int, dictionary: list[bytes]) -> list[Record]:
    """``n_words`` uniform draws from the dictionary, packed 8 per line."""
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
    return list(records_from_pairs(zip(repeat(b""), lines)))


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

    def source(pe: int) -> list[Record]:
        return gen_text(mix_seed(seed, pe), words_per_pe, dictionary)

    one = U64.pack(1)

    def map_fn(rec: Record) -> tuple[list[bytes], list[bytes]]:
        words = rec.value.split()
        return words, [one] * len(words)

    def reduce_fn(key: bytes, values: Sequence[bytes]) -> list[Record]:
        total = sum(U64.unpack(v)[0] for v in values)
        return [Record(key, U64.pack(total))]

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

    def source(pe: int) -> list[Record]:
        edges = gen_rmat(mix_seed(seed, pe), n, _per_pe_count(m, p, pe), probs)
        return [Record(edge_key(u, v), PAIR.pack(u, v)) for (u, v) in edges]

    def make_spec(step: int) -> StepSpec:
        def reduce_fn(key: bytes, values: Sequence[bytes]) -> list[Record]:
            out = [Record(key, min(values))]
            for j in range(len(values) - 1):
                rng = random.Random(mix_seed(seed, 0xED6E, step, hash_key(key), j))
                u, v = rmat_edge(rng, scale, probs)
                out.append(Record(edge_key(u, v), PAIR.pack(u, v)))
            return out

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
    def map_fn(rec: Record) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
        key, value = rec
        if value == _MARKER:
            return (key,), (value,)
        return (key, value), (value, key)

    def reduce_fn(key: bytes, values: Sequence[bytes]) -> list[Record]:
        (u,) = U64.unpack(key)
        nbrs, marker = _neighbors(values)
        ell = min(nbrs + [u])
        out = [Record(U64.pack(ell), U64.pack(v)) for v in nbrs if v > u]
        if marker:
            out.append(Record(key, _MARKER))
        return out

    def counter_fn(key: bytes, values: Sequence[bytes]) -> int:
        (u,) = U64.unpack(key)
        nbrs, _ = _neighbors(values)
        if not nbrs or min(nbrs + [u]) == u:
            return 0
        return sum(1 for v in nbrs if v > u)

    return StepSpec("cc-large-star", map_fn, reduce_fn, counter_fn)


def _cc_small_spec() -> StepSpec:
    def map_fn(rec: Record) -> tuple[tuple[bytes], tuple[bytes]]:
        key, value = rec
        if value == _MARKER:
            return (key,), (value,)
        (u,) = U64.unpack(key)
        (v,) = U64.unpack(value)
        hi, lo = (u, v) if u > v else (v, u)
        return (U64.pack(hi),), (U64.pack(lo),)

    def reduce_fn(key: bytes, values: Sequence[bytes]) -> list[Record]:
        (u,) = U64.unpack(key)
        nbrs, marker = _neighbors(values)
        out = []
        if nbrs:
            ell = min(nbrs)
            for v in sorted(set(nbrs + [u]) - {ell}):
                out.append(Record(U64.pack(ell), U64.pack(v)))
        if marker:
            out.append(Record(key, _MARKER))
        return out

    def counter_fn(key: bytes, values: Sequence[bytes]) -> int:
        nbrs, _ = _neighbors(values)
        if not nbrs:
            return 0
        return len(set(nbrs) - {min(nbrs)})

    return StepSpec("cc-small-star", map_fn, reduce_fn, counter_fn)


def _cc_extract_spec() -> StepSpec:
    def map_fn(rec: Record) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
        key, value = rec
        if value == _MARKER:
            return (key,), (key,)
        return (value, key), (key, key)

    def reduce_fn(key: bytes, values: Sequence[bytes]) -> list[Record]:
        rep = min(U64.unpack(v)[0] for v in values)
        return [Record(key, U64.pack(rep))]

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

    def source(pe: int) -> list[Record]:
        lo = pe * n // p
        hi = (pe + 1) * n // p
        records = list(records_from_pairs(
            zip(map(U64.pack, range(lo, hi)), repeat(_MARKER))
        ))
        edges = gen_gnm(mix_seed(seed, pe), n, _per_pe_count(m, p, pe))
        # an edge (u, v) packs to u's key and v's value, back to back
        buf = b"".join(starmap(PAIR.pack, edges))
        records += records_from_pairs(_KEY_VALUE.iter_unpack(buf))
        return records

    return Job(RecordSource(source), _CcDriver())


# -- PageRank -----------------------------------------------------------

_TAG_COMBINED = b"c"
_TAG_SCORE = b"s"
_TAG_DANGLING = b"d"
_TAG_ADJ = b"a"


@lru_cache(maxsize=32)
def _pagerank_adjacency(seed: int, n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Out-adjacency of the seeded digraph, parallel edges preserved."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in gen_gnm(mix_seed(seed, 0x96A9), n, m):
        adj[u].append(v)
    return tuple(tuple(sorted(out)) for out in adj)


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
    out uniformly so the scores keep summing to one."""
    n = n_vertices
    m = round(avg_degree * n / 2)
    # one key object per vertex, shared by every record addressed to it
    vertex_keys = tuple(U64.pack(v) for v in range(n))
    vertex_key = vertex_keys.__getitem__

    def source(pe: int) -> list[Record]:
        adj = _pagerank_adjacency(seed, n, m)
        lo = pe * n // p
        hi = (pe + 1) * n // p
        head = _TAG_COMBINED + F64.pack(1.0 / n)
        values = [head + b"".join(map(vertex_key, out)) for out in adj[lo:hi]]
        return list(records_from_pairs(zip(vertex_keys[lo:hi], values)))

    first = itemgetter(0)
    adj_tag = _TAG_ADJ[0]
    unpack_score = F64.unpack_from
    # builds one Record in C (see records_from_pairs)
    new_record = tuple.__new__
    # vertex key -> (its adjacency bytes, the adjacency value it sends,
    # its key column: the vertex, then each target, or every vertex if
    # it dangles): a vertex's adjacency never changes, so every step
    # re-sends one value object (the retained logs keep one copy, not
    # one per step) and the map decodes each adjacency once per job
    columns: dict[bytes, tuple[bytes, bytes, tuple[bytes, ...]]] = {}

    def map_fn(rec: Record) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
        key, body = rec
        if body[:1] != _TAG_COMBINED:
            raise ValueError("pagerank map expects combined score+adjacency records")
        (score,) = unpack_score(body, 1)
        adj_bytes = body[9:]
        hit = columns.get(key)
        if hit is None or hit[0] != adj_bytes:
            targets = map(vertex_key, map(first, U64.iter_unpack(adj_bytes)))
            hit = columns[key] = (
                adj_bytes, _TAG_ADJ + adj_bytes,
                (key, *targets) if adj_bytes else (key, *vertex_keys),
            )
        _, adj_value, keys = hit
        # one value object per vertex and step: sent logs keep every share
        if adj_bytes:
            share = _TAG_SCORE + F64.pack(score / (len(keys) - 1))
        else:
            share = _TAG_DANGLING + F64.pack(score / n)
        return keys, (adj_value, *repeat(share, len(keys) - 1))

    def reduce_fn(key: bytes, values: Sequence[bytes]) -> list[Record]:
        # fsum rounds the exact sum once, so the score is the same in
        # whatever order the shares arrive (after a failure the heirs send
        # the dead PE's shares); builtin sum depends on the order, also
        # with the compensation it has from Python 3.12 on
        shares = []
        adj_bytes = None
        for val in values:
            if val[0] == adj_tag:
                if adj_bytes is not None:
                    raise ValueError(f"duplicate adjacency for vertex key {key!r}")
                adj_bytes = val[1:]
            else:
                shares.append(unpack_score(val, 1)[0])
        if adj_bytes is None:
            raise ValueError(f"no adjacency arrived for vertex key {key!r}")
        score = (1.0 - damping) / n + damping * fsum(shares)
        return [new_record(Record, (key, _TAG_COMBINED + F64.pack(score) + adj_bytes))]

    spec = StepSpec("pagerank", map_fn, reduce_fn)
    driver = ListDriver([spec] * iterations)
    return Job(RecordSource(source), driver)


# -- synthetic uniform workload (overhead measurements) -----------------


def uniform_job(p: int, seed: int, *, total_records: int) -> Job:
    """Single pass-through step over uniformly random 8-byte keys; used to
    measure backup traffic against shuffle traffic."""

    def source(pe: int) -> list[Record]:
        # one draw per PE: record i's key and value are the i-th pair of
        # getrandbits(64) draws, as little-endian bytes
        count = _per_pe_count(total_records, p, pe)
        bits = random.Random(mix_seed(seed, pe)).getrandbits(128 * count)
        buf = bits.to_bytes(16 * count, "little")
        return list(records_from_pairs(_KEY_VALUE.iter_unpack(buf)))

    # the keys are distinct, so a group holds one value, and building
    # its record with one C call is cheaper than setting up
    # records_from_pairs for it
    new_record = tuple.__new__

    def reduce_fn(key: bytes, values: Sequence[bytes]) -> list[Record]:
        return [new_record(Record, (key, v)) for v in values]

    return Job(RecordSource(source), ListDriver([StepSpec("uniform", identity_map, reduce_fn)]))

