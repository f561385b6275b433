"""Acceptance gate: one test per release criterion.

Each test prints a single PASS line once its criterion holds, so a
verbose run reads as a ten-line checklist.  Scales are desk-sized but
the tolerances are the contractual ones; runtime budgets are asserted
where a criterion carries one.
"""

import time
from collections import Counter

import pytest

from ftmr.benchmarks import PAIR, U64, edge_key
from ftmr.config import JobConfig
from ftmr.engine import Cluster
from ftmr.harness import (
    build_job,
    measure_overhead,
    output_counter,
    outputs_match,
    parse_failure_spec,
    run_simulation,
    sweep_failures,
)
from ftmr.cli import main
from ftmr.metrics import DeliveryLedger
from oracles import cc_expected, pagerank_expected, pagerank_scores, wordcount_expected


def _ok(line: str) -> None:
    print(f"PASS: {line}")


# -- 1: backup modes do not change fault-free results -------------------


def test_c01_fault_free_equivalence_across_backup_modes():
    start = time.perf_counter()
    scales = {
        "wordcount": dict(words_per_pe=200, dict_words=50),
        "rmat": dict(vertices_per_pe=64, avg_degree=4),
        "cc": dict(vertices_per_pe=32),
        "pagerank": dict(vertices_per_pe=8, avg_degree=4, iterations=3),
    }
    for benchmark, scale in scales.items():
        for p in (2, 4, 8):
            outputs = {}
            for mode in ("split", "single", "off"):
                config = JobConfig(benchmark=benchmark, p=p, seed=13,
                                   backup_mode=mode, **scale)
                outputs[mode] = output_counter(run_simulation(config).outputs)
            assert outputs["split"] == outputs["single"] == outputs["off"], (
                f"{benchmark} p={p}: backup modes disagree"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _ok(f"backup modes split/single/off byte-agree on 4 benchmarks x "
        f"p in (2,4,8) [{elapsed:.1f}s < 10s]")


# -- 2: exhaustive single-failure recovery ------------------------------


def test_c02_exhaustive_single_failure_sweeps():
    start = time.perf_counter()
    configs = [
        JobConfig(benchmark="wordcount", p=4, seed=0,
                  words_per_pe=1000, dict_words=200),
        JobConfig(benchmark="rmat", p=4, seed=0, vertices_per_pe=64,
                  avg_degree=8),
        JobConfig(benchmark="cc", p=4, seed=0, vertices_per_pe=64),
        JobConfig(benchmark="pagerank", p=4, seed=0, vertices_per_pe=16,
                  iterations=5),
    ]
    total = 0
    for config in configs:
        result = sweep_failures(config)
        assert result.ok, f"{config.benchmark}:\n{result.describe()}"
        total += len(result.cases)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _ok(f"single-failure sweep exact at every (step, PE): {total} runs "
        f"across 4 benchmarks [{elapsed:.1f}s < 60s]")


# -- 3: replay from an older recovery point -----------------------------


def test_c03_replay_between_recovery_points():
    start = time.perf_counter()
    config = JobConfig(benchmark="pagerank", p=4, seed=5, vertices_per_pe=16,
                       iterations=5, recovery_point_interval=3)
    reference = run_simulation(config, ledger=DeliveryLedger())
    assert reference.steps_run == 5  # recovery points at 1 and 4
    expected = {2: (1, (1,)), 3: (1, (1, 2)), 5: (4, (4,))}
    cases = 0
    for step, (rp, replayed) in expected.items():
        for pe in range(4):
            result = run_simulation(config, parse_failure_spec(f"{step}:{pe}"),
                                    ledger=DeliveryLedger())
            assert outputs_match(reference.outputs, result.outputs) == []
            (rec,) = result.metrics.recoveries
            assert (rec.recovery_point, rec.replayed_steps) == (rp, replayed)
            problems = result.ledger.check_against(
                reference.ledger, {pe}, event_step=step, recovery_point=rp,
            )
            assert problems == [], problems
            cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _ok(f"replay 1-2 steps past a recovery point exact + exactly-once "
        f"ledger: {cases} positions [{elapsed:.1f}s < 60s]")


# -- 4: zero-overhead input replay --------------------------------------


def test_c04_input_only_mode_zero_backup():
    for config in (
        JobConfig(benchmark="wordcount", p=4, seed=2, words_per_pe=1000,
                  dict_words=200, recovery_point_interval="input-only"),
        JobConfig(benchmark="pagerank", p=4, seed=5, vertices_per_pe=16,
                  iterations=5, recovery_point_interval="input-only"),
    ):
        result = sweep_failures(config)
        assert result.ok, result.describe()
        assert result.reference.metrics.total_backup_bytes == 0
        last = run_simulation(
            config, parse_failure_spec(f"{result.reference.steps_run}:1")
        )
        (rec,) = last.metrics.recoveries
        assert rec.recovery_point == 0
    _ok("input-only mode ships zero backup bytes and recovers every "
        "position by regenerating the input")


# -- 5: whole-group failures --------------------------------------------


def test_c05_group_failures():
    config = JobConfig(benchmark="pagerank", p=8, seed=5, vertices_per_pe=8,
                       avg_degree=6, iterations=5, group_size=2)
    result = sweep_failures(config)
    assert result.ok, result.describe()
    assert sorted({c.failed for c in result.cases}) == [
        (0, 1), (2, 3), (4, 5), (6, 7),
    ]
    # group-internal traffic must be backed up outside the group only
    cluster = Cluster(
        build_job(JobConfig(benchmark="pagerank", p=8, seed=5,
                            vertices_per_pe=8, avg_degree=6, iterations=1)),
        8, group_size=2,
    )
    cluster.step()
    shares = 0
    for holder in range(8):
        for (origin, _idx) in cluster.pes[holder].backup_store.get(1, {}):
            assert cluster.group_of[origin] != cluster.group_of[holder]
            shares += 1
    assert shares > 0
    for origin, manifest in cluster.step_history[1].backup_manifest.items():
        for target in manifest:
            assert cluster.group_of[target] != cluster.group_of[origin]
    _ok("whole failure groups (p=8, pairs) recover at every step; "
        "group-internal data is backed up outside the group only")


# -- 6 and 7: backup traffic volume and balance -------------------------


@pytest.fixture(scope="module")
def overhead_p16():
    return [measure_overhead(16, seed, total_records=100_000)
            for seed in range(5)]


def test_c06_overhead_ratio_follows_one_over_p_minus_1(overhead_p16):
    expected = 1 / 15
    for result in overhead_p16:
        assert result.ratio == pytest.approx(expected, rel=0.25), (
            f"seed {result.seed}: ratio {result.ratio:.4f}"
        )
    ratios = {p: measure_overhead(p, 0, total_records=100_000).ratio
              for p in (4, 8)}
    ratios[16] = overhead_p16[0].ratio
    assert ratios[4] > ratios[8] > ratios[16]
    _ok(f"backup/network ratio within 25% of 1/(p-1) at p=16 over 5 seeds "
        f"(worst {max(abs(r.ratio - expected) / expected for r in overhead_p16):.1%}) "
        f"and falls monotonically over p in (4,8,16)")


def test_c07_backup_share_balance(overhead_p16):
    worst = max(r.share_balance for r in overhead_p16)
    assert worst <= 2.0
    _ok(f"round-robin backup shares stay balanced: worst per-step "
        f"max/mean = {worst:.2f}x <= 2x at p=16")


# -- 8: log retention ---------------------------------------------------


def test_c08_log_garbage_collection():
    config = JobConfig(benchmark="cc", p=4, seed=3, vertices_per_pe=16)
    cluster = Cluster(build_job(config), 4, recovery_point_interval=1)
    while cluster.step():
        step = cluster.steps_run
        held_logs, held_shares, logged = set(), set(), 0
        for pe in cluster.pes:
            held_logs |= set(pe.sent_log)
            held_shares |= set(pe.backup_store)
            logged += sum(
                rec.size
                for payloads in pe.sent_log.values()
                for payload in payloads.values()
                for rec in payload
            )
        assert held_logs == held_shares == {step}
        sm = cluster.metrics.step_metrics(step)
        assert logged == sm.network_bytes + sm.self_bytes

    cluster = Cluster(build_job(config), 4, recovery_point_interval=3)
    while cluster.step():
        step = cluster.steps_run
        newest_rp = ((step - 1) // 3) * 3 + 1
        held = set()
        for pe in cluster.pes:
            held |= set(pe.sent_log)
        assert held == set(range(newest_rp, step + 1))
    _ok("log GC keeps exactly the steps since the newest recovery point "
        "(interval 1 and 3), with byte totals matching the step volumes")


# -- 9: determinism -----------------------------------------------------


def test_c09_equal_seeds_byte_identical_artifacts(tmp_path):
    argvs = [
        ["run", "--benchmark", "cc", "-p", "4", "--seed", "5",
         "--vertices-per-pe", "32", "--failures", "2:1"],
        ["run", "--benchmark", "pagerank", "-p", "4", "--seed", "5",
         "--vertices-per-pe", "8", "--avg-degree", "4", "--iterations", "3"],
    ]
    for i, argv in enumerate(argvs):
        dumps = []
        for attempt in ("a", "b"):
            outdir = tmp_path / f"{i}{attempt}"
            csv = tmp_path / f"{i}{attempt}.csv"
            code = main(argv + ["--output-dir", str(outdir),
                                "--metrics-csv", str(csv)])
            assert code == 0
            dumps.append(
                (csv.read_bytes(),
                 {f.name: f.read_bytes() for f in sorted(outdir.iterdir())})
            )
        assert dumps[0] == dumps[1]
    _ok("equal seeds give byte-identical metrics CSVs and output dumps, "
        "with and without injected failures")


# -- 10: benchmark oracles ----------------------------------------------


def test_c10_benchmark_oracles():
    # word count against a sequential counter
    result = run_simulation(JobConfig(benchmark="wordcount", p=4, seed=0,
                                      words_per_pe=1000, dict_words=200))
    got: Counter = Counter()
    for records in result.outputs.values():
        for rec in records:
            got[rec.key] += U64.unpack(rec.value)[0]
    assert got == wordcount_expected(4, 0, 1000, 200)

    # connected components against union-find (n = 256)
    result = run_simulation(JobConfig(benchmark="cc", p=4, seed=0,
                                      vertices_per_pe=64))
    labels = {
        U64.unpack(rec.key)[0]: U64.unpack(rec.value)[0]
        for records in result.outputs.values()
        for rec in records
    }
    assert labels == cc_expected(4, 0, 256, m=round(0.5 * 256 / 2))

    # pagerank against dense power iteration (n = 64, 5 rounds)
    result = run_simulation(JobConfig(benchmark="pagerank", p=4, seed=0,
                                      vertices_per_pe=16, iterations=5))
    scores = pagerank_scores(result.outputs)
    want = pagerank_expected(0, 64, m=round(38.0 * 64 / 2), iterations=5)
    assert max(abs(scores[v] - want[v]) for v in range(64)) <= 1e-12

    # rmat dedup: unique pairs at the requested cardinality (n = 256)
    result = run_simulation(JobConfig(benchmark="rmat", p=4, seed=0,
                                      vertices_per_pe=64, avg_degree=8))
    keys = []
    for records in result.outputs.values():
        for rec in records:
            u, v = PAIR.unpack(rec.value)
            assert rec.key == edge_key(u, v)
            keys.append(rec.key)
    m = round(8 * 256 / 2)
    assert len(keys) == m
    assert len(set(keys)) == m
    _ok("benchmark oracles: sequential word counter, union-find, dense "
        "power iteration (<= 1e-12), dedup uniqueness + cardinality")
