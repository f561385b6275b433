"""Benchmark generators and end-to-end results against independent oracles."""

import dataclasses
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ftmr.benchmarks import (
    F64,
    PAIR,
    U64,
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
from ftmr.harness import build_job, run_simulation
from oracles import (
    cc_expected,
    gen_gnm_reference,
    gen_text_reference,
    pagerank_expected,
    pagerank_scores,
    uniform_reference,
    wordcount_expected,
)

# -- generators ---------------------------------------------------------


def test_gen_text_draws_from_dictionary():
    dictionary = default_dictionary(40)
    records = gen_text(5, 100, dictionary)
    words = [w for rec in records for w in rec.value.split()]
    assert len(words) == 100
    assert set(words) <= set(dictionary)
    assert all(len(rec.value.split()) <= 8 for rec in records)
    assert gen_text(5, 100, dictionary) == records  # seeded
    assert gen_text(6, 100, dictionary) != records
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
        assert gen_text(seed, n_words, dictionary) == gen_text_reference(
            seed, n_words, dictionary
        )


@pytest.mark.parametrize("p, total", [(1, 0), (1, 1), (1, 101), (4, 0), (4, 1), (4, 103)])
def test_uniform_draws_what_getrandbits_64_draws(p, total):
    for seed in (0, 1, 7):
        job = uniform_job(p, seed, total_records=total)
        assert [job.source.fn(pe) for pe in range(p)] == uniform_reference(
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
            assert a.source.fn(pe) == b.source.fn(pe)


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
    assert spec.reduce_fn(key, [score, adjacency, score])  # the valid shape
    with pytest.raises(ValueError, match="duplicate adjacency"):
        spec.reduce_fn(key, [adjacency, score, adjacency])
    with pytest.raises(ValueError, match="no adjacency arrived"):
        spec.reduce_fn(key, [score, score])
    with pytest.raises(IndexError):
        spec.reduce_fn(key, [adjacency, b""])


def test_pagerank_map_refuses_a_non_combined_record():
    job, spec = _pagerank_spec()
    stray = Record(U64.pack(0), b"s" + F64.pack(0.25))
    with pytest.raises(ValueError, match=r"combined score\+adjacency"):
        spec.map_fn(stray)
    bad = Job(RecordSource(lambda pe: [stray]), job.driver)
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
        first, second = spec.map_fn(rec), spec.map_fn(rec)
        assert _listed(first) == _listed(second) == _decoded_map(rec, n)
        # the adjacency value is re-sent as one object
        assert first[1][0] is second[1][0]
    # a later step's record with the same adjacency and a new score
    moved = Record(U64.pack(1), b"c" + F64.pack(0.125) + parallel.value[9:])
    assert _listed(spec.map_fn(moved)) == _decoded_map(moved, n)


def _listed(columns):
    keys, values = columns
    return list(keys), list(values)


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
            assert Counter(spec.reduce_fn(key, other)) == Counter(
                spec.reduce_fn(key, values)
            ), (spec.name, key)
            if spec.counter_fn is not None:
                assert spec.counter_fn(key, other) == spec.counter_fn(key, values)
