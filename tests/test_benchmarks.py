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

from ftmr.benchmarks import (
    F64,
    PAIR,
    U64,
    _ShareMemo,
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
    config = JobConfig(benchmark="pagerank", p=4, seed=5, vertices_per_pe=16,
                       iterations=5)
    result = run_simulation(config)
    scores = pagerank_scores(result.outputs)
    n = 64
    want = pagerank_expected(5, n, m=round(38.0 * n / 2), iterations=5)
    assert scores.keys() == set(range(n))
    assert max(abs(scores[v] - want[v]) for v in range(n)) <= 1e-12
    assert abs(sum(scores.values()) - 1.0) <= 1e-9


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
    # groups of two real steps, the map's cache primed, and each mixed
    # (see _regrouped); plus a degree-1 vertex, whose adjacency is 9
    # bytes like a share, and a vertex the map never saw.  Each group is
    # reduced three times: with the score table as the step's map filled
    # it, refilled by another step's map (stale entries) and empty
    config = JobConfig(benchmark="pagerank", p=4, seed=2, vertices_per_pe=8, iterations=2)
    n = 32
    job = build_job(config)
    spec = job.driver.steps[0]
    table = job.driver.scores
    records = [rec for pe in range(config.p) for rec in job.source.fn(pe)]
    one_edge = Record(U64.pack(n), b"c" + F64.pack(0.5) + U64.pack(0))
    rng = random.Random(7)
    checked = Counter()
    for index in range(1, config.iterations + 1):
        assert job.driver.next_step(index, None) is spec and not table
        groups = {}
        adjacency = {}
        for rec in [*records, one_edge]:
            keys, values = spec.map_fn(*rec)
            adjacency[rec[0]] = values[0]
            for key, value in zip(keys, values):
                groups.setdefault(key, []).append(value)
        groups[U64.pack(n + 1)] = [b"a" + U64.pack(0), b"s" + F64.pack(0.5)]
        adjacency[U64.pack(n + 1)] = groups[U64.pack(n + 1)][0]
        cases = [
            (key, mixed, _outcome(lambda k, v: pagerank_reduce_reference(k, v, n), key, mixed))
            for key, values in groups.items()
            for mixed in _regrouped(key, values, adjacency[key], rng)
        ]
        following = [rec for v in range(n)
                     for rec in zip(*pagerank_reduce_reference(U64.pack(v), groups[U64.pack(v)], n))]
        for filled in ("current", "stale", "empty"):
            if filled != "current":
                table.clear()
            if filled == "stale":
                for rec in following:
                    spec.map_fn(*rec)
            for key, mixed, want in cases:
                got = _outcome(spec.reduce_fn, key, mixed)
                assert got == want, (filled, key, mixed)
                checked[filled, type(got)] += 1
        records = following
    # both records and refusals were compared, with each table
    assert all(checked[filled, kind] for filled in ("current", "stale", "empty")
               for kind in (list, tuple))


def _watched_run(monkeypatch, config, failures=None, reduce_fn=None):
    # PageRank's job run under ``failures`` with its score table watched:
    # at each step start, before the driver empties it, every entry must
    # hold exactly the score its share carries.  Returns the result, the
    # entries checked, the shares decoded outside the map (through the
    # table or the per-value reduce) and the table's size after each
    # write; ``reduce_fn`` replaces the job's reduce
    job = build_job(config)
    table = job.driver.scores
    map_code = job.driver.steps[0].map_fn.__code__
    checked = decodes = 0
    sizes = []

    def noted(memo, value, score):
        dict.__setitem__(memo, value, score)
        sizes.append(len(memo))

    monkeypatch.setattr(_ShareMemo, "__setitem__", noted)

    def next_step(index, prev_aggregate):
        nonlocal checked
        for value, score in table.items():
            assert len(value) == 9 and value[:1] in (b"s", b"d"), value
            assert F64.pack(score) == value[1:], value
        checked += len(table)
        spec = job.driver.next_step(index, prev_aggregate)
        if spec is None or reduce_fn is None:
            return spec
        return dataclasses.replace(spec, reduce_fn=reduce_fn)

    def count(frame, event, arg):
        nonlocal decodes
        if (event == "c_call" and getattr(arg, "__self__", None) is F64
                and arg.__name__ == "unpack_from" and frame.f_code is not map_code):
            decodes += 1

    sys.setprofile(count)
    try:
        result = run_job(
            Job(job.source, SimpleNamespace(next_step=next_step)), config.p,
            recovery_point_interval=config.recovery_point_interval,
            failure_plan=parse_failure_spec(failures) if failures else None,
        )
    finally:
        sys.setprofile(None)
    return result, checked, decodes, sizes


def test_pagerank_reduce_decodes_each_share_once_per_step(monkeypatch):
    # the map stores each share's score in the table the reduces read,
    # and the driver empties it at each step start: a fault-free run
    # decodes no share, and the table holds at most one step's (n
    # entries).  A failure's replayed reduces read logged shares of
    # older steps, which no map of the current step sent: at most n
    # decodes per replayed step, plus n for the failure step's own
    # reduce, and the table stays within 2n (80 and 82 entries measured
    # here).  Every entry is exact, and the records are those of a run
    # with the per-value reduce alone
    n = 64
    base = JobConfig(benchmark="pagerank", p=4, seed=3, vertices_per_pe=16, iterations=6)

    def per_value(key, values):
        return pagerank_reduce_reference(key, values, n)

    result, checked, decodes, sizes = _watched_run(monkeypatch, base)
    assert checked and decodes == 0
    assert sizes and max(sizes) <= n
    assert result.outputs == _watched_run(monkeypatch, base, reduce_fn=per_value)[0].outputs
    # recovery point 3 with one replayed step, and an input replay of four
    for interval, failures in ((3, "5:1"), (8, "5:2")):
        config = dataclasses.replace(base, recovery_point_interval=interval)
        result, checked, decodes, sizes = _watched_run(monkeypatch, config, failures)
        (recovery,) = result.metrics.recoveries
        assert recovery.replayed_steps and checked
        assert 0 < decodes <= n * (len(recovery.replayed_steps) + 1)
        assert max(sizes) <= 2 * n
        assert result.outputs == _watched_run(
            monkeypatch, config, failures, reduce_fn=per_value
        )[0].outputs


@pytest.mark.parametrize("score, degree", [
    (5e-324, 1), (1 / 3, 1), (1e308, 1), (0.0, 1), (0.1, 0),
], ids=["subnormal", "third", "huge", "zero", "dangling"])
def test_pagerank_seeded_score_has_the_decoded_bits(score, degree):
    # the map stores the float it packs into a share (a dangling
    # vertex's score / n); the table's entry has the bits a decode
    # gives, and a reduce reads the same record either way
    job, spec = _pagerank_spec()
    n = 4
    table = job.driver.scores
    target = Record(U64.pack(0), b"c" + F64.pack(0.5) + U64.pack(1))
    adjacency = spec.map_fn(*target)[1][0]
    share = spec.map_fn(U64.pack(1), b"c" + F64.pack(score) + U64.pack(0) * degree)[1][1]
    group = [share, adjacency]
    want = pagerank_reduce_reference(target.key, group, n)
    assert share in table
    seeded = table[share]
    assert spec.reduce_fn(target.key, group) == want
    table.clear()
    assert spec.reduce_fn(target.key, group) == want
    assert F64.pack(seeded) == F64.pack(table[share]) == share[1:]
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
