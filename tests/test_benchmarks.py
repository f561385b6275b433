"""Benchmark generators and end-to-end results against independent oracles."""

import dataclasses
import random
import re
import sys
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ftmr.recovery
from ftmr.benchmarks import (
    F64,
    PAIR,
    U64,
    _decode_shares,
    connected_components_job,
    default_dictionary,
    edge_key,
    gen_gnm,
    gen_rmat,
    gen_text,
    rmat_dedup_job,
    uniform_job,
    word_count_job,
)
from ftmr.config import ConfigError, JobConfig
from ftmr.core import Record
from ftmr.engine import Job, JobError, RecordSource, run_job
from ftmr.harness import build_job, parse_failure_spec, run_simulation
from oracles import (
    batch_of,
    cc_expected,
    gen_gnm_reference,
    gen_text_reference,
    pagerank_expected,
    pagerank_reduce_reference,
    pagerank_scores,
    plain,
    uniform_reference,
    wordcount_expected,
)

# -- generators ---------------------------------------------------------


def test_gen_text_draws_from_dictionary():
    dictionary = default_dictionary(40)
    records = list(gen_text(5, 100, dictionary))
    words = [w for rec in records for w in rec.value.split()]
    assert len(words) == 100
    assert set(words) <= set(dictionary)
    assert all(len(rec.value.split()) <= 8 for rec in records)
    assert list(gen_text(5, 100, dictionary)) == records  # seeded
    assert list(gen_text(6, 100, dictionary)) != records
    with pytest.raises(ValueError):
        gen_text(5, 10, [])


def test_default_dictionary_shape():
    words = default_dictionary(3)
    assert words == [b"w00000", b"w00001", b"w00002"]


@given(st.integers(0, 2**32), st.integers(2, 200), st.integers(0, 300))
def test_gen_gnm_bounds(seed, n, m):
    edges = gen_gnm(seed, n, m)
    assert len(edges) == m
    for u, v in edges:
        assert 0 <= u < n
        assert 0 <= v < n
        assert u != v


# bounds at, below and above powers of two, and one past 2**32, whose
# draws span two 32-bit words
DRAW_BOUNDS = [2, 3, 255, 256, 257, 512, 1000, 2**32 + 1]


@pytest.mark.parametrize("n", DRAW_BOUNDS)
@pytest.mark.parametrize("m", [0, 1, 500])
def test_gen_gnm_draws_what_randrange_draws(n, m):
    for seed in (0, 1, 7, 2**40 + 3):
        assert gen_gnm(seed, n, m) == gen_gnm_reference(seed, n, m)


@pytest.mark.parametrize("size", [1, *DRAW_BOUNDS[:-1]])
@pytest.mark.parametrize("n_words", [0, 1, 500])
def test_gen_text_draws_what_randrange_draws(size, n_words):
    dictionary = default_dictionary(size)
    for seed in (0, 1, 7, 2**40 + 3):
        assert list(gen_text(seed, n_words, dictionary)) == gen_text_reference(
            seed, n_words, dictionary
        )


@pytest.mark.parametrize("p, total", [(1, 0), (1, 1), (1, 101), (4, 0), (4, 1), (4, 103)])
def test_uniform_draws_what_getrandbits_64_draws(p, total):
    for seed in (0, 1, 7):
        job = uniform_job(p, seed, total_records=total)
        assert [list(job.source.fn(pe)) for pe in range(p)] == uniform_reference(
            p, seed, total
        )


def test_gen_gnm_requires_two_vertices():
    with pytest.raises(ValueError):
        gen_gnm(0, 1, 3)


def test_gen_rmat_bounds_and_determinism():
    edges = gen_rmat(9, 256, 500)
    assert len(edges) == 500
    assert all(0 <= u < 256 and 0 <= v < 256 for u, v in edges)
    assert gen_rmat(9, 256, 500) == edges
    with pytest.raises(ConfigError, match="power-of-two"):
        gen_rmat(9, 100, 10)
    with pytest.raises(ValueError, match="sum to 1"):
        gen_rmat(9, 256, 10, probs=(0.5, 0.4, 0.3, 0.2))


def test_rmat_quadrant_skew():
    # the top quadrant probabilities put the most significant bit at 0
    # with probability a + b = 0.76
    edges = gen_rmat(9, 1 << 16, 100_000)
    msb_zeros = sum(1 for (u, _v) in edges if u >> 15 == 0)
    assert abs(msb_zeros / len(edges) - 0.76) < 0.01


def test_edge_key_orientation_free():
    assert edge_key(3, 9) == edge_key(9, 3) == PAIR.pack(3, 9)


def test_sources_regenerate_per_pe():
    # any single PE's partition must be reproducible in isolation
    for make in (
        lambda: word_count_job(4, 3, words_per_pe=50, dict_words=20),
        lambda: rmat_dedup_job(4, 3, n_vertices=64, avg_degree=4),
        lambda: connected_components_job(4, 3, n_vertices=64),
        lambda: build_job(JobConfig(benchmark="pagerank", p=4, seed=3,
                                    vertices_per_pe=16, iterations=2)),
        lambda: uniform_job(4, 3, total_records=100),
    ):
        a, b = make(), make()
        assert a.source.replayable
        for pe in range(4):
            assert plain(a.source.fn(pe)) == plain(b.source.fn(pe))


def test_build_job_rejects_unknown():
    with pytest.raises(ConfigError, match="unknown benchmark"):
        build_job(JobConfig(benchmark="sorting"))


def test_rmat_job_guards():
    with pytest.raises(ConfigError, match="power-of-two"):
        rmat_dedup_job(4, 0, n_vertices=100)
    with pytest.raises(ValueError, match="cannot be distinct"):
        rmat_dedup_job(4, 0, n_vertices=4, avg_degree=100)


def test_cc_driver_gives_up_with_a_job_error(monkeypatch):
    # a non-converging driver must surface as a named JobError, which the
    # CLI reports as "job error: ..." (exit 1), not a bare RuntimeError
    monkeypatch.setattr("ftmr.benchmarks.MAX_ROUNDS", 0)
    job = connected_components_job(4, 3, n_vertices=64)
    with pytest.raises(JobError, match="failed to converge within 0 rounds") as exc:
        run_job(job, 4)
    assert exc.value.where == "driver"


def test_uniform_job_record_budget():
    result = run_job(uniform_job(4, 1, total_records=103), 4)
    assert sum(len(r) for r in result.outputs.values()) == 103


# -- oracles ------------------------------------------------------------


def test_wordcount_matches_sequential_counter():
    config = JobConfig(benchmark="wordcount", p=4, seed=11,
                       words_per_pe=500, dict_words=100)
    result = run_simulation(config)
    got: Counter = Counter()
    for records in result.outputs.values():
        for rec in records:
            got[rec.key] += U64.unpack(rec.value)[0]
    want = wordcount_expected(4, 11, 500, 100)
    assert got == want
    assert sum(got.values()) == 4 * 500
    assert result.steps_run == 1


def test_cc_matches_union_find():
    config = JobConfig(benchmark="cc", p=4, seed=3, vertices_per_pe=16)
    result = run_simulation(config)
    got = {}
    for records in result.outputs.values():
        for rec in records:
            v = U64.unpack(rec.key)[0]
            assert v not in got, "vertex reported twice"
            got[v] = U64.unpack(rec.value)[0]
    n = 64
    want = cc_expected(4, 3, n, m=round(0.5 * n / 2))
    assert got == want
    # sparse graphs keep some isolated vertices; they self-report
    isolated = [v for v, rep in want.items() if rep == v]
    assert len(isolated) > 10


def test_cc_handles_denser_graphs():
    config = JobConfig(benchmark="cc", p=4, seed=8, vertices_per_pe=16,
                       avg_degree=3.0)
    result = run_simulation(config)
    got = {
        U64.unpack(rec.key)[0]: U64.unpack(rec.value)[0]
        for records in result.outputs.values()
        for rec in records
    }
    n = 64
    assert got == cc_expected(4, 8, n, m=round(3.0 * n / 2))


def test_rmat_dedup_unique_and_complete():
    config = JobConfig(benchmark="rmat", p=4, seed=0, vertices_per_pe=16,
                       avg_degree=4)
    result = run_simulation(config)
    n = 64
    m = round(4 * n / 2)
    keys = []
    for records in result.outputs.values():
        for rec in records:
            u, v = PAIR.unpack(rec.value)
            assert rec.key == edge_key(u, v)
            keys.append(rec.key)
    assert len(keys) == m
    assert len(set(keys)) == m
    assert result.steps_run > 1  # the seed produces duplicates to clear


def test_pagerank_matches_power_iteration():
    # 5 steps fault-free; then 1, 2 and 3 steps (step 1 maps, each reduce
    # but the last sends the next step's messages), fault-free and with a
    # failure at step 1 and at the last step, at recovery interval 1 and
    # input-only
    n = 64
    cases = [(5, 1, None)] + [
        (iterations, interval, failures)
        for iterations in (1, 2, 3)
        for interval in (1, "input-only")
        for failures in (None, "1:1", f"{iterations}:2")
    ]
    for iterations, interval, failures in cases:
        config = JobConfig(benchmark="pagerank", p=4, seed=5, vertices_per_pe=16,
                           iterations=iterations, recovery_point_interval=interval)
        result = run_simulation(config, parse_failure_spec(failures) if failures else None)
        assert len(result.metrics.recoveries) == (failures is not None)
        scores = pagerank_scores(result.outputs)
        want = pagerank_expected(5, n, m=round(38.0 * n / 2), iterations=iterations)
        case = (iterations, interval, failures)
        assert scores.keys() == set(range(n)), case
        assert max(abs(scores[v] - want[v]) for v in range(n)) <= 1e-12, case
        assert abs(sum(scores.values()) - 1.0) <= 1e-9, case


def test_pagerank_two_vertices():
    # smallest possible graph: one seeded edge between two vertices, the
    # other endpoint dangling; exercises the dangling fan-out path
    config = JobConfig(benchmark="pagerank", p=2, seed=1, vertices_per_pe=1,
                       avg_degree=1.0, iterations=50)
    result = run_simulation(config)
    scores = pagerank_scores(result.outputs)
    want = pagerank_expected(1, 2, 1, 50)
    assert abs(scores[0] - want[0]) <= 1e-12
    assert abs(scores[1] - want[1]) <= 1e-12
    assert abs(sum(scores.values()) - 1.0) <= 1e-12


def _pagerank_spec():
    job = build_job(JobConfig(benchmark="pagerank", p=2, seed=1,
                              vertices_per_pe=2, iterations=1))
    return job, job.driver.steps[0]


def test_pagerank_reduce_refusals():
    _job, spec = _pagerank_spec()
    key = U64.pack(0)
    adjacency = b"a" + U64.pack(1)
    score = b"s" + F64.pack(0.25)
    named = f"malformed share .* for vertex key {re.escape(repr(key))}"
    # first with the vertex unknown to the map's cache, then with its
    # adjacency cached, which the reduce finds first; the adjacency is 9
    # bytes, as a share is
    for cached in (False, True):
        if cached:
            spec.map_fn(key, b"c" + F64.pack(0.5) + U64.pack(1))
        assert spec.reduce_fn(key, [score, adjacency, score])  # the valid shape
        with pytest.raises(ValueError, match="duplicate adjacency"):
            spec.reduce_fn(key, [adjacency, score, adjacency])
        with pytest.raises(ValueError, match="no adjacency arrived"):
            spec.reduce_fn(key, [score, score])
        # a share is 9 bytes tagged s or d, and the refusal names the vertex
        for bad in (b"", score[:5], score + b"\x00" * 8, b"x" + F64.pack(0.25)):
            with pytest.raises(ValueError, match=named):
                spec.reduce_fn(key, [adjacency, bad])


def test_pagerank_map_refuses_a_non_combined_record():
    job, spec = _pagerank_spec()
    stray = Record(U64.pack(0), b"s" + F64.pack(0.25))
    with pytest.raises(ValueError, match=r"combined score\+adjacency"):
        spec.map_fn(*stray)
    bad = Job(RecordSource(lambda pe: batch_of([stray])), job.driver)
    with pytest.raises(JobError, match="step 1, map of record") as info:
        run_job(bad, 2)
    assert isinstance(info.value.__cause__, ValueError)


def _decoded_map(rec, n):
    # PageRank's map, decoding the record afresh: its key and value
    # columns, as lists
    key, body = rec
    (score,) = F64.unpack(body[1:9])
    adj = [body[i:i + 8] for i in range(9, len(body), 8)]
    if adj:
        share, targets = b"s" + F64.pack(score / len(adj)), adj
    else:
        share, targets = b"d" + F64.pack(score / n), [U64.pack(v) for v in range(n)]
    return [key, *targets], [b"a" + body[9:]] + [share] * len(targets)


def test_pagerank_map_decodes_each_adjacency_once():
    job, spec = _pagerank_spec()
    n = 4
    dangling = Record(U64.pack(0), b"c" + F64.pack(0.25))
    parallel = Record(U64.pack(1), b"c" + F64.pack(0.5) + U64.pack(2) * 2 + U64.pack(3))
    for rec in [*job.source.fn(0), dangling, parallel]:
        first, second = spec.map_fn(*rec), spec.map_fn(*rec)
        assert _listed(first) == _listed(second) == _decoded_map(rec, n)
        # the adjacency value is re-sent as one object
        assert first[1][0] is second[1][0]
    # a later step's record with the same adjacency and a new score
    moved = Record(U64.pack(1), b"c" + F64.pack(0.125) + parallel.value[9:])
    assert _listed(spec.map_fn(*moved)) == _decoded_map(moved, n)


def _listed(columns):
    keys, values = columns
    return list(keys), list(values)


def _outcome(reduce_fn, key, values):
    # the key and value columns a reduce returns, as lists, or the type
    # and text of its error
    try:
        return list(map(list, reduce_fn(key, values)))
    except Exception as exc:
        return type(exc), str(exc)


def _regrouped(key, values, adjacency, rng):
    # ``values`` (one adjacency and its shares), then mixes around it:
    # each a list of values the reduce must treat as the reference does
    values = rng.sample(values, len(values))
    shares = [v for v in values if v is not adjacency]
    a, b = (shares * 2)[:2] if shares else (b"s" + F64.pack(0.5), b"s" + F64.pack(0.25))
    joined = a + b
    dangling = [b"d" + F64.pack(1 / 3), b"d" + F64.pack(0.0)]
    return [
        values,
        tuple(values),  # a laid-out group's values arrive as a tuple
        [*values, adjacency],  # one adjacency twice
        [*values, bytes(bytearray(adjacency))],  # an equal copy of it
        [bytes(bytearray(adjacency)), *shares],  # only the copy
        shares,  # no adjacency
        rng.sample([*values, *dangling], len(values) + 2),
        [adjacency],
        [adjacency, *dangling],
        # malformed shares whose lengths add up to a multiple of 9
        [adjacency, joined[:5], joined[5:]],
        [*values, joined[:17], joined[17:]],
        [joined, adjacency],
        [adjacency, b"x" + a[1:], *shares],
        [adjacency, a[:1] + b"s" + a[2:], b""],
        [],
    ]


def test_pagerank_reduce_returns_what_the_per_value_reduce_returns():
    # groups of two real steps, their senders' cache primed, and each
    # mixed (see _regrouped); plus a degree-1 vertex, whose adjacency is 9
    # bytes like a share, and a vertex no sender saw.  Step 1's reduce
    # returns exactly the map's messages of the per-value reduce's record,
    # and step 2's (the last) that record, or the same error.  Each group
    # is reduced three times: with the read generation as the step's
    # senders filled it, holding the other step's shares (stale entries)
    # and empty
    config = JobConfig(benchmark="pagerank", p=4, seed=2, vertices_per_pe=8, iterations=2)
    n = 32
    job = build_job(config)
    driver = job.driver
    # another job's map, so that no reference call primes this job's cache
    mapped = build_job(config).driver.steps[0].map_fn
    records = [rec for pe in range(config.p) for rec in job.source.fn(pe)]
    one_edge = Record(U64.pack(n), b"c" + F64.pack(0.5) + U64.pack(0))
    rng = random.Random(7)
    checked = Counter()
    # step 1's messages: the map stores into the generation that the
    # driver hands step 1's reduces
    messages = [driver.steps[0].map_fn(*rec) for rec in [*records, one_edge]]
    for index, spec in enumerate(driver.steps, 1):
        assert driver.next_step(index, None) is spec
        table = driver.scores[0]
        assert {values[1] for keys, values in messages} <= table.keys()
        groups = {}
        adjacency = {}
        for keys, values in messages:
            adjacency[keys[0]] = values[0]
            for key, value in zip(keys, values):
                groups.setdefault(key, []).append(value)
        # the next step's messages, sent as a run sends them
        following = [spec.reduce_fn(key, values) for key, values in groups.items()]
        unseen = U64.pack(n + index)
        groups[unseen] = [b"a" + U64.pack(0), b"s" + F64.pack(0.5)]
        adjacency[unseen] = groups[unseen][0]

        def reference(key, values):
            keys, values = pagerank_reduce_reference(key, values, n)
            return mapped(keys[0], values[0]) if index < config.iterations else (keys, values)

        cases = [
            (key, mixed, _outcome(reference, key, mixed))
            for key, values in groups.items()
            for mixed in _regrouped(key, values, adjacency[key], rng)
        ]
        # the other step's shares: the next step's, then the previous one's
        stale = [values[1] for keys, values in (following if index == 1 else previous)]
        for filled in ("current", "stale", "empty"):
            if filled != "current":
                table.clear()
            if filled == "stale":
                table.update((share, F64.unpack_from(share, 1)[0]) for share in stale)
            for key, mixed, want in cases:
                got = _outcome(spec.reduce_fn, key, mixed)
                assert got == want, (index, filled, key, mixed)
                checked[index, filled, type(got)] += 1
        previous, messages = messages, following
    # both results and refusals were compared, at each step with each table
    assert all(checked[index, filled, kind] for index in (1, 2)
               for filled in ("current", "stale", "empty") for kind in (list, tuple))


def _two_step_job():
    # a 2-step job over n = 4 vertices: step 1's reduce sends, step 2's
    # is the last; and another job's map, which primes no cache of this one
    config = JobConfig(benchmark="pagerank", p=2, seed=1, vertices_per_pe=2, iterations=2)
    return build_job(config).driver, build_job(config).driver.steps[0].map_fn


def _reduced_like_the_reference(driver, mapped, step, key, values):
    # step ``step``'s reduce and the per-value reference give the same
    # columns, or raise the same error; returns the reference's outcome
    n = 4

    def reference(key, values):
        keys, values = pagerank_reduce_reference(key, values, n)
        return mapped(keys[0], values[0]) if step == 1 else (keys, values)

    want = _outcome(reference, key, values)
    assert _outcome(driver.steps[step - 1].reduce_fn, key, values) == want, (step, values)
    return want


_SCORES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.0, -0.0]),
)


@given(
    st.lists(st.tuples(st.sampled_from([b"s", b"d"]), _SCORES, st.booleans()), max_size=12),
    st.integers(0, 12), st.booleans(), st.booleans(), st.sampled_from([1, 2]),
)
def test_pagerank_group_decode_matches_the_per_value_reduce(
    drawn, at, as_tuple, rewired, step
):
    # a vertex's score group: s and d shares of any floats, in any order,
    # maybe none, the adjacency anywhere among them and maybe not the one
    # its cache holds; each share stored in the read generation or not
    # (a miss decodes the group at once).  Both the sending and the last
    # reduce give what the per-value reduce gives, or its error
    driver, mapped = _two_step_job()
    key = U64.pack(0)
    cached = driver.steps[0].map_fn(key, b"c" + F64.pack(0.5) + U64.pack(1))[1][0]
    adjacency = b"a" + U64.pack(2) * 2 if rewired else cached
    shares = [tag + F64.pack(x) for tag, x, _ in drawn]
    driver.scores[0].clear()
    driver.scores[0].update(
        (share, F64.unpack_from(share, 1)[0])
        for share, (*_, stored) in zip(shares, drawn) if stored
    )
    values = shares[:at] + [adjacency] + shares[at:]
    _reduced_like_the_reference(driver, mapped, step, key, tuple(values) if as_tuple else values)


def test_pagerank_group_decode_refuses_what_the_per_value_reduce_refuses():
    # a miss sends the whole group to one decode, which must refuse
    # exactly what the per-value reduce refuses, naming the vertex: the
    # joined length alone would read an 8-byte and a 10-byte value
    # (tagged so that every 9th byte is a share tag) as two shares
    driver, mapped = _two_step_job()
    key = U64.pack(0)
    adjacency = driver.steps[0].map_fn(key, b"c" + F64.pack(0.5) + U64.pack(1))[1][0]
    share = b"s" + F64.pack(0.25)
    named = f"for vertex key {re.escape(repr(key))}"
    refused = {
        "8 + 10 bytes": [b"s" + bytes(7), b"sd" + bytes(8)],
        "tagged a": [b"a" + F64.pack(0.25)],
        "tagged x": [b"x" + F64.pack(0.25)],
        "bytearray tagged x": [bytearray(b"x" + F64.pack(0.25))],
        "not bytes": ["s" + "0" * 8],
    }
    for step in (1, 2):
        for case, bad in refused.items():
            for values in ([share, *bad, adjacency], [adjacency, *bad, share]):
                assert not driver.scores[0]  # the group misses the table
                kind, text = _reduced_like_the_reference(driver, mapped, step, key, values)
                assert kind is ValueError and re.search(named, text), (case, text)
        # the per-value reduce reads a 9-byte bytearray tagged s as a share,
        # and so does the group decode
        accepted = _reduced_like_the_reference(
            driver, mapped, step, key, [share, bytearray(share), adjacency]
        )
        assert isinstance(accepted, list)


class _Generation(dict):
    # a score-table generation that notes each share stored into it, the
    # code that stored it and its size after each store; entries it is
    # built with count as not stored into it
    def __init__(self, entries=()):
        super().__init__(entries)
        self.stored = set()
        self.writers = set()
        self.sizes = []

    def __setitem__(self, share, score):
        super().__setitem__(share, score)
        self.stored.add(share)
        self.writers.add(sys._getframe(1).f_code)
        self.sizes.append(len(self))


def _watched_run(monkeypatch, config, failures=None, reduce_fn=None):
    # PageRank's job run under ``failures`` with its score table watched:
    # at each step start and at the end, every entry of each generation
    # must have been stored into it by a sender (the job's emission
    # helper), hold exactly the score its share carries, and number at
    # most n.  Returns the result and a namespace of: the entries
    # checked; by step and by phase ("replay" inside recovery, "step"
    # elsewhere), the group decodes and the per-value decodes outside the
    # map; the keys reduced in replay; and the map's calls.  Given
    # ``reduce_fn``, every step maps and reduces with it instead
    job = build_job(config)
    driver = job.driver
    n = config.p * config.vertices_per_pe
    map_fn = driver.steps[0].map_fn
    # the code of the emission helper the map sends through
    emit = map_fn.__closure__[map_fn.__code__.co_freevars.index("emit")].cell_contents.__code__
    reduce_code = driver.steps[0].reduce_fn.__code__
    seen = SimpleNamespace(checked=0, group=Counter(), per_value=Counter(),
                           replayed_keys=0, calls=0)
    phase = ["step"]
    recover = ftmr.recovery.recover

    def recovering(cluster, event):
        phase[0] = "replay"
        recover(cluster, event)
        phase[0] = "step"

    monkeypatch.setattr(ftmr.recovery, "recover", recovering)

    def check():
        for table in driver.scores:
            assert table.keys() <= table.stored and table.writers <= {emit}
            assert len(table) <= n and max(table.sizes, default=0) <= n
            for value, score in table.items():
                assert len(value) == 9 and value[:1] in (b"s", b"d"), value
                assert F64.pack(score) == value[1:], value
            seen.checked += len(table)

    def next_step(index, prev_aggregate):
        if index > 1:
            check()
        spec = driver.next_step(index, prev_aggregate)
        # the read generation is the one filled last step; the other is
        # the driver's new one, which must come empty
        if index == 1:
            driver.scores[0] = _Generation(driver.scores[0])
        driver.scores[1] = _Generation(driver.scores[1])
        if spec is None or reduce_fn is None:
            return spec
        return dataclasses.replace(spec, map_fn=map_fn, reduce_fn=reduce_fn)

    def count(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.calls += code is map_fn.__code__
            if code is _decode_shares.__code__:
                seen.group[driver.index, phase[0]] += 1
            elif code is reduce_code and phase[0] == "replay":
                seen.replayed_keys += 1
        elif (event == "c_call" and getattr(arg, "__self__", None) is F64
                and arg.__name__ == "unpack_from" and frame.f_code is not map_fn.__code__):
            seen.per_value[driver.index, phase[0]] += 1

    sys.setprofile(count)
    try:
        result = run_job(
            Job(job.source, SimpleNamespace(next_step=next_step)), config.p,
            recovery_point_interval=config.recovery_point_interval,
            failure_plan=parse_failure_spec(failures) if failures else None,
        )
    finally:
        sys.setprofile(None)
    check()
    return result, seen


def test_score_generations_hold_only_what_senders_stored(monkeypatch):
    # across a failure, a generation holds only what senders stored into
    # it, exactly, at most one entry per vertex: a replayed reduce that
    # reads a logged share no sender stored for it decodes its group and
    # stores nothing, and the driver hands each step an empty generation
    # to fill.  The pagerank-recover workload, and recovery point 9 (of
    # interval 3) with one replayed step
    for config, failures in (
        (JobConfig(benchmark="pagerank", p=4, seed=1, vertices_per_pe=128, iterations=24,
                   recovery_point_interval=24), "20:1"),
        (JobConfig(benchmark="pagerank", p=4, seed=1, vertices_per_pe=16, iterations=12,
                   recovery_point_interval=3), "11:1"),
    ):
        result, seen = _watched_run(monkeypatch, config, failures)
        (recovery,) = result.metrics.recoveries
        assert recovery.replayed_steps and seen.replayed_keys
        assert seen.checked >= config.iterations * config.p * config.vertices_per_pe // 2


def test_pagerank_reduce_decodes_each_share_once_per_step(monkeypatch):
    # a share's sender stores its score in the generation its readers
    # read: a fault-free run decodes no share, and a generation holds at
    # most one step's (n entries).  A failure's replayed reduces read
    # logged shares of older steps, which no sender stored for them: at
    # most one group decode per replayed key, none by the failure step's
    # own reduce, and no per-value decode.  Every entry is exact, and the
    # records are those of a run that maps every step and reduces with
    # the per-value reduce
    n = 64
    base = JobConfig(benchmark="pagerank", p=4, seed=3, vertices_per_pe=16, iterations=6)

    def per_value(key, values):
        return pagerank_reduce_reference(key, values, n)

    result, seen = _watched_run(monkeypatch, base)
    assert seen.checked and not seen.group and not seen.per_value
    assert seen.calls == n
    assert result.outputs == _watched_run(monkeypatch, base, reduce_fn=per_value)[0].outputs
    # recovery point 3 with one replayed step, and an input replay of four
    for interval, failures in ((3, "5:1"), (8, "5:2")):
        config = dataclasses.replace(base, recovery_point_interval=interval)
        result, seen = _watched_run(monkeypatch, config, failures)
        (recovery,) = result.metrics.recoveries
        assert recovery.replayed_steps and seen.checked and not seen.per_value
        assert seen.group.keys() == {(5, "replay")}
        assert 0 < seen.group[5, "replay"] <= seen.replayed_keys
        assert result.outputs == _watched_run(
            monkeypatch, config, failures, reduce_fn=per_value
        )[0].outputs


@pytest.mark.parametrize("config, failures", [
    (JobConfig(benchmark="pagerank", p=8, seed=5, vertices_per_pe=64, iterations=20), None),
    (JobConfig(benchmark="pagerank", p=4, seed=1, vertices_per_pe=128, iterations=24,
               recovery_point_interval=24), "20:1"),
], ids=["pagerank", "pagerank-recover"])
def test_pagerank_benchmarks_map_once_and_decode_only_in_replay(monkeypatch, config, failures):
    # perfbench's two PageRank workloads: the map runs at step 1 only, once
    # per vertex, and only the replay decodes shares, one group per
    # replayed key at most (19 steps of PE 1's keys).  The failure step's
    # reduces decode none, and no share is decoded on its own
    result, seen = _watched_run(monkeypatch, config, failures)
    assert seen.calls == 512
    assert not seen.per_value
    if failures is None:
        assert not seen.group
    else:
        assert seen.group.keys() == {(20, "replay")}
        assert 0 < seen.group[20, "replay"] <= seen.replayed_keys
        assert len(result.metrics.recoveries) == 1


@pytest.mark.parametrize("score, degree", [
    (5e-324, 1), (1 / 3, 1), (1e308, 1), (0.0, 1), (0.1, 0),
], ids=["subnormal", "third", "huge", "zero", "dangling"])
def test_pagerank_seeded_score_has_the_decoded_bits(score, degree):
    # the map stores the float it packs into a share (a dangling
    # vertex's score / n); the table's entry has the bits a decode
    # gives, and a reduce reads the same record either way
    job, spec = _pagerank_spec()
    n = 4
    # step 1's map stores into the generation its reduces read
    assert job.driver.next_step(1, None) is spec
    table = job.driver.scores[0]
    target = Record(U64.pack(0), b"c" + F64.pack(0.5) + U64.pack(1))
    adjacency = spec.map_fn(*target)[1][0]
    share = spec.map_fn(U64.pack(1), b"c" + F64.pack(score) + U64.pack(0) * degree)[1][1]
    group = [share, adjacency]
    want = pagerank_reduce_reference(target.key, group, n)
    assert share in table
    seeded = table[share]
    assert spec.reduce_fn(target.key, group) == want
    table.clear()
    # a miss decodes the group, and stores nothing
    assert spec.reduce_fn(target.key, group) == want
    assert not table
    (decoded,) = _decode_shares([share])
    assert F64.pack(seeded) == F64.pack(decoded) == share[1:]
    assert seeded == (score / n if degree == 0 else score)


# -- the StepSpec contract ----------------------------------------------

ORDER_SCALES = {
    "wordcount": dict(words_per_pe=100, dict_words=20),
    "rmat": dict(vertices_per_pe=16, avg_degree=4),
    "cc": dict(vertices_per_pe=16),
    "pagerank": dict(vertices_per_pe=8, iterations=3),
    "uniform": dict(total_records=400),
}


@pytest.mark.parametrize("workload", list(ORDER_SCALES))
def test_reducers_ignore_value_order(workload):
    # recovery hands a key's values to its reduce in another order, so
    # every reducer and counter must give the same records and aggregate
    # for any order of the same values, float rounding included
    config = JobConfig(benchmark=workload, p=4, seed=3, **ORDER_SCALES[workload])
    job = build_job(config)
    groups = []

    def next_step(index, prev_aggregate):
        spec = job.driver.next_step(index, prev_aggregate)
        if spec is None:
            return None

        def reduce_fn(key, values):
            groups.append((spec, key, list(values)))
            return spec.reduce_fn(key, values)

        return dataclasses.replace(spec, reduce_fn=reduce_fn)

    run_job(Job(job.source, SimpleNamespace(next_step=next_step)), config.p)
    # uniform draws distinct keys, so each of its groups holds one value
    assert groups
    assert workload == "uniform" or any(len(values) > 1 for *_, values in groups)
    rng = random.Random(11)
    for spec, key, values in groups:
        shuffled = rng.sample(values, len(values))
        # a laid-out group's values arrive as a tuple
        for other in (values[::-1], shuffled, tuple(values)):
            assert Counter(zip(*spec.reduce_fn(key, other))) == Counter(
                zip(*spec.reduce_fn(key, values))
            ), (spec.name, key)
            if spec.counter_fn is not None:
                assert spec.counter_fn(key, other) == spec.counter_fn(key, values)
