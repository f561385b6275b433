"""Failure plans, sweeps, verification, output comparison, overhead measurement."""

import dataclasses

import pytest

from ftmr.config import ConfigError, JobConfig
from ftmr.core import Record
from ftmr.engine import run_job
from ftmr.harness import (
    FailurePlan,
    build_job,
    measure_overhead,
    output_counter,
    outputs_match,
    parse_failure_spec,
    random_failure_plan,
    run_simulation,
    sweep_failures,
    verify,
)
from ftmr.metrics import DeliveryLedger
from ftmr.recovery import FailureEvent

# -- failure plans ------------------------------------------------------


def test_failure_event_validation():
    with pytest.raises(ConfigError, match="step >= 1"):
        FailureEvent(0, frozenset({1}))
    with pytest.raises(ConfigError, match="at least one PE"):
        FailureEvent(2, frozenset())
    event = FailureEvent(2, {3, 1})
    assert event.failed == frozenset({1, 3})


def test_plan_sorts_and_rejects_shared_steps():
    plan = FailurePlan((
        FailureEvent(4, frozenset({0})),
        FailureEvent(2, frozenset({1})),
    ))
    assert [(e.step, e.failed) for e in plan.events] == [
        (2, frozenset({1})), (4, frozenset({0})),
    ]
    with pytest.raises(ConfigError, match="share a step"):
        FailurePlan((
            FailureEvent(2, frozenset({0})),
            FailureEvent(2, frozenset({1})),
        ))


def test_parse_failure_spec():
    plan = parse_failure_spec("2:1;4:0,3")
    assert [(e.step, sorted(e.failed)) for e in plan.events] == [
        (2, [1]),
        (4, [0, 3]),
    ]
    assert parse_failure_spec("2:1;").events == parse_failure_spec("2:1").events
    for bad in ("2", "x:1", "2:x", "2:"):
        with pytest.raises(ConfigError, match="bad failure event"):
            parse_failure_spec(bad)


def test_random_failure_plan_properties():
    plan = random_failure_plan(8, 5, 0.25, window=6)
    assert plan.events == random_failure_plan(8, 5, 0.25, window=6).events
    assert len(plan.events) == 2
    steps = [e.step for e in plan.events]
    assert steps == sorted(steps)
    assert all(1 <= s <= 6 for s in steps)
    units = [e.failed for e in plan.events]
    assert len(set(units)) == len(units)
    assert all(len(u) == 1 for u in units)


def test_random_failure_plan_groups():
    plan = random_failure_plan(8, 5, 0.25, window=6, group_size=2)
    # 0.25 of 4 groups = 1 event, a whole group
    assert len(plan.events) == 1
    (event,) = plan.events
    assert len(event.failed) == 2
    lo = min(event.failed)
    assert event.failed == frozenset({lo, lo + 1})
    assert lo % 2 == 0


def test_random_failure_plan_limits():
    assert random_failure_plan(8, 1, 0.0, window=5).events == ()
    with pytest.raises(ConfigError, match="not in"):
        random_failure_plan(8, 1, 1.5, window=5)
    with pytest.raises(ConfigError, match="no survivors"):
        random_failure_plan(4, 1, 1.0, window=5)
    with pytest.raises(ConfigError, match="do not fit"):
        random_failure_plan(16, 1, 0.5, window=2)


# -- output comparison --------------------------------------------------


def test_output_counter_ignores_placement():
    a = {0: [Record(b"k", b"v")], 1: []}
    b = {0: [], 1: [Record(b"k", b"v")]}
    assert output_counter(a) == output_counter(b)


def test_outputs_match_multisets():
    ref = {0: [Record(b"k", b"1")], 1: [Record(b"j", b"2")]}
    same = {0: [Record(b"j", b"2"), Record(b"k", b"1")], 1: []}
    assert outputs_match(ref, same) == []
    different = {0: [Record(b"k", b"1")], 1: [Record(b"j", b"3")]}
    (problem,) = outputs_match(ref, different)
    assert "1 missing, 1 extra" in problem


def test_outputs_match_pagerank_exact():
    from ftmr.benchmarks import F64, _TAG_COMBINED, U64

    def out(score0):
        return {
            0: [Record(U64.pack(0), _TAG_COMBINED + F64.pack(score0))],
            1: [Record(U64.pack(1), _TAG_COMBINED + F64.pack(0.5))],
        }

    ref = out(0.5)
    assert outputs_match(ref, out(0.5)) == []
    # scores compare bit for bit: no tolerance, and NaN equals nothing
    for shifted in (0.5 + 1e-13, float("nan")):
        (problem,) = outputs_match(ref, out(shifted))
        assert "1 missing, 1 extra" in problem
    missing_vertex = {0: ref[0], 1: []}
    (problem,) = outputs_match(ref, missing_vertex)
    assert "1 missing, 0 extra" in problem


# -- simulation runs ----------------------------------------------------


def test_run_simulation_validates_plan_pes():
    config = JobConfig(benchmark="wordcount", p=4, words_per_pe=10, dict_words=5)
    with pytest.raises(ConfigError, match="unknown PEs"):
        run_simulation(config, parse_failure_spec("1:7"))


def test_run_simulation_reports_timing_and_steps():
    config = JobConfig(benchmark="wordcount", p=4, words_per_pe=10, dict_words=5)
    result = run_simulation(config)
    assert result.steps_run == 1
    assert sum(output_counter(result.outputs).values()) > 0


# the four benchmarks plus uniform, at desk scale, interval 2 so that a
# failure at step 2 replays step 1
OBSERVED = [
    JobConfig(benchmark="wordcount", p=4, seed=5, words_per_pe=200,
              dict_words=40, recovery_point_interval=2),
    JobConfig(benchmark="rmat", p=4, seed=5, vertices_per_pe=32,
              avg_degree=4, recovery_point_interval=2),
    JobConfig(benchmark="cc", p=4, seed=5, vertices_per_pe=16,
              recovery_point_interval=2),
    JobConfig(benchmark="pagerank", p=4, seed=5, vertices_per_pe=16,
              iterations=4, recovery_point_interval=2),
    JobConfig(benchmark="uniform", p=4, seed=5, total_records=2_000,
              recovery_point_interval=2),
]


@pytest.mark.parametrize("config", OBSERVED, ids=lambda c: c.benchmark)
def test_ledger_only_observes(config):
    assert run_job(build_job(config), config.p).ledger is None
    fault_free = run_simulation(config)
    assert fault_free.ledger is None
    last = min(2, fault_free.steps_run)
    for plan in (None, parse_failure_spec(f"{last}:1")):
        # without a ledger, shuffle and recovery note nothing and must not fail
        plain = run_simulation(config, plan)
        ledger = DeliveryLedger()
        noted = run_simulation(config, plan, ledger=ledger)
        assert plain.ledger is None and noted.ledger is ledger
        assert ledger.deliveries
        assert plain.outputs == noted.outputs
        assert plain.metrics.to_csv() == noted.metrics.to_csv()
        assert plain.steps_run == noted.steps_run
    (rec,) = plain.metrics.recoveries
    assert rec.replayed_steps == ((1,) if last == 2 else ())


def test_verify_checks_the_ledger_for_a_single_failure():
    config = OBSERVED[2]
    plan = parse_failure_spec("2:1")
    result = run_simulation(config, plan, ledger=DeliveryLedger())
    reference = run_simulation(config, ledger=DeliveryLedger())
    assert verify(result, reference, plan) == []
    # a reference from another seed diverges in the ledger, too
    other = run_simulation(dataclasses.replace(config, seed=6),
                           ledger=DeliveryLedger())
    problems = verify(result, other, plan)
    assert any("original deliveries diverge" in p for p in problems), problems
    # the exactly-once check cannot run without both ledgers
    with pytest.raises(ValueError, match="ledgers"):
        verify(run_simulation(config, plan), reference, plan)


def test_verify_counts_recoveries_per_plan_event():
    config = OBSERVED[2]
    reference = run_simulation(config)
    late = parse_failure_spec(f"{reference.steps_run + 1}:1")
    problems = verify(run_simulation(config, late), reference, late)
    assert problems == ["0 recoveries recorded, wanted 1"]
    assert verify(run_simulation(config), reference, None) == []


# -- sweeps -------------------------------------------------------------


def test_sweep_reports_all_verified():
    config = JobConfig(benchmark="wordcount", p=4, seed=2,
                       words_per_pe=200, dict_words=40)
    result = sweep_failures(config)
    assert result.ok
    assert len(result.cases) == 4
    assert result.failures() == []
    assert "all verified" in result.describe()


def test_sweep_units_are_groups():
    config = JobConfig(benchmark="wordcount", p=4, seed=2, group_size=2,
                       words_per_pe=200, dict_words=40)
    result = sweep_failures(config)
    assert sorted(c.failed for c in result.cases) == [(0, 1), (2, 3)]


def test_sweep_step_subset():
    # the given steps in their order, each run once
    config = JobConfig(benchmark="cc", p=4, seed=3, vertices_per_pe=16)
    result = sweep_failures(config, steps=[2, 1, 2])
    assert [(c.step, c.failed) for c in result.cases] == [
        (2, (0,)), (2, (1,)), (2, (2,)), (2, (3,)),
        (1, (0,)), (1, (1,)), (1, (2,)), (1, (3,)),
    ]
    assert result.ok


def test_sweep_without_survivors_fails_before_any_run(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("sweep ran a job before checking its settings")

    monkeypatch.setattr("ftmr.harness.run_simulation", no_run)
    config = JobConfig(benchmark="wordcount", p=1, words_per_pe=10)
    with pytest.raises(ConfigError, match="at least one surviving PE"):
        sweep_failures(config)


def test_sweep_rejects_steps_outside_the_job():
    config = JobConfig(benchmark="wordcount", p=4, seed=2, words_per_pe=200)
    with pytest.raises(ConfigError, match=r"steps \[0, 2, 5\] .* 1\.\.1"):
        sweep_failures(config, steps=[1, 5, 0, 2, 2])


# -- overhead -----------------------------------------------------------


def test_overhead_ratio_near_analytic_value():
    result = measure_overhead(4, 1, total_records=20_000)
    assert result.expected == pytest.approx(1 / 3)
    assert result.ratio == pytest.approx(result.expected, rel=0.25)
    assert result.share_balance >= 1.0
    assert "backup/network" in result.describe()
