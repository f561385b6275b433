"""The benchmark's workloads, one timed run, and the correctness checks.

Each workload is a fixed :class:`ftmr.config.JobConfig` plus a failure
plan and a ledger choice; only the seed varies between runs.  A run goes
through the public API (``build_job`` and ``run_job``) and is timed from
the outside: the job's driver is wrapped so that every ``next_step``
call is stamped, which gives the set-up time (start of the run to the
first call) and the barrier-to-barrier step times.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import struct
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from ftmr.benchmarks import PAGERANK_DAMPING
from ftmr.config import JobConfig
from ftmr.core import encode_record
from ftmr.engine import Job, JobResult, run_job
from ftmr.harness import build_job, output_counter, outputs_match, parse_failure_spec
from ftmr.metrics import DeliveryLedger
from ftmr.partition import BackupMode

U64 = struct.Struct("<Q")
F64 = struct.Struct("<d")

# acceptance check c10's tolerance for PageRank scores
PAGERANK_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    config: JobConfig
    # failure plan in ``ftmr run --failures`` syntax, or None
    failures: str | None
    # pass a DeliveryLedger to run_job instead of the library default
    explicit_ledger: bool

    def config_for(self, seed: int) -> JobConfig:
        return dataclasses.replace(self.config, seed=seed)


# why each workload is here: BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pagerank",
            JobConfig(benchmark="pagerank", p=8, vertices_per_pe=64, iterations=20),
            failures=None,
            explicit_ledger=False,
        ),
        Workload(
            "uniform",
            JobConfig(benchmark="uniform", p=16, total_records=200_000),
            failures=None,
            explicit_ledger=False,
        ),
        Workload(
            "pagerank-recover",
            JobConfig(
                benchmark="pagerank",
                p=4,
                vertices_per_pe=128,
                iterations=24,
                recovery_point_interval=24,
            ),
            failures="20:1",
            explicit_ledger=True,
        ),
    )
}


@dataclass
class TimedRun:
    result: JobResult
    run_s: float
    setup_s: float
    step_s: list[float]


class _SetupDone(Exception):
    """Ends a set-up-only run at the driver's first ``next_step`` call."""


class _ClockedDriver:
    """Forwards to the job's driver and stamps every ``next_step`` call."""

    def __init__(self, driver, setup_only: bool):
        self.driver = driver
        self.setup_only = setup_only
        self.stamps: list[float] = []

    def next_step(self, index, prev_aggregate):
        self.stamps.append(time.perf_counter())
        if self.setup_only:
            raise _SetupDone
        return self.driver.next_step(index, prev_aggregate)


def clear_caches() -> None:
    """Empty every ``functools`` cache in ftmr, so set-up is measured cold."""
    for name, module in list(sys.modules.items()):
        if name == "ftmr" or name.startswith("ftmr."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def _run(workload: Workload, seed: int, *, faulty: bool, wrap_job, setup_only: bool):
    config = workload.config_for(seed)
    plan = parse_failure_spec(workload.failures) if faulty and workload.failures else None
    clear_caches()
    start = time.perf_counter()
    job = build_job(config)
    if wrap_job is not None:
        job = wrap_job(job)
    driver = _ClockedDriver(job.driver, setup_only)
    try:
        result = run_job(
            Job(job.source, driver),
            config.p,
            backup_mode=BackupMode.parse(config.backup_mode),
            recovery_point_interval=config.recovery_point_interval,
            failure_plan=plan,
            group_size=config.group_size,
            single_recoverer=config.single_recoverer,
            ledger=DeliveryLedger() if workload.explicit_ledger else None,
        )
    except _SetupDone:
        result = None
    return start, time.perf_counter(), driver.stamps, result


def run_once(workload: Workload, seed: int, *, faulty: bool = True, wrap_job=None) -> TimedRun:
    """One timed run, from job build to outputs.

    ``faulty=False`` drops the failure plan (the fault-free reference);
    ``wrap_job`` lets the tracer wrap the job's user functions.
    """
    start, end, stamps, result = _run(
        workload, seed, faulty=faulty, wrap_job=wrap_job, setup_only=False
    )
    return TimedRun(
        result=result,
        run_s=end - start,
        setup_s=stamps[0] - start,
        step_s=[b - a for a, b in zip(stamps, stamps[1:])],
    )


def time_setup(workload: Workload, seed: int) -> float:
    """The set-up ``run_once`` measures, alone: the run stops at step 1."""
    start, _, stamps, _ = _run(workload, seed, faulty=True, wrap_job=None, setup_only=True)
    return stamps[0] - start


def outputs_digest(outputs) -> str:
    digest = hashlib.sha256()
    for pe in sorted(outputs):
        digest.update(U64.pack(pe))
        for rec in outputs[pe]:
            digest.update(encode_record(rec))
    return digest.hexdigest()


def csv_digest(result: JobResult) -> str:
    return hashlib.sha256(result.metrics.to_csv().encode()).hexdigest()


# -- correctness --------------------------------------------------------


def sequential_pagerank(config: JobConfig) -> dict[int, float]:
    """Plain power iteration over the graph held in the job's input.

    The step-0 records carry each vertex's out-adjacency (parallel edges
    kept); the iteration below shares nothing with the MapReduce job but
    that edge list.
    """
    source = build_job(config).source
    adj: dict[int, list[int]] = {}
    for pe in range(config.p):
        for rec in source.fn(pe):
            body = rec.value[9:]
            adj[U64.unpack(rec.key)[0]] = [
                U64.unpack_from(body, 8 * i)[0] for i in range(len(body) // 8)
            ]
    n = len(adj)
    damping = PAGERANK_DAMPING
    score = {v: 1.0 / n for v in adj}
    for _ in range(config.iterations):
        incoming = dict.fromkeys(adj, 0.0)
        dangling = 0.0
        for u, outs in adj.items():
            if outs:
                share = score[u] / len(outs)
                for v in outs:
                    incoming[v] += share
            else:
                dangling += score[u] / n
        score = {v: (1.0 - damping) / n + damping * (incoming[v] + dangling) for v in adj}
    return score


def check_pagerank(config: JobConfig, result: JobResult) -> list[str]:
    problems = []
    if result.steps_run != config.iterations:
        problems.append(f"ran {result.steps_run} steps, wanted {config.iterations}")
    want = sequential_pagerank(config)
    have = {}
    for records in result.outputs.values():
        for rec in records:
            have[U64.unpack(rec.key)[0]] = F64.unpack(rec.value[1:9])[0]
    if want.keys() != have.keys():
        problems.append(f"{len(have)} vertices scored, wanted {len(want)}")
    else:
        worst = max(abs(want[v] - have[v]) for v in want)
        if worst > PAGERANK_TOL:
            problems.append(
                f"score deviates {worst:.3e} from a sequential power iteration"
            )
    return problems


def check_uniform(config: JobConfig, result: JobResult) -> list[str]:
    source = build_job(config).source
    want = output_counter({pe: source.fn(pe) for pe in range(config.p)})
    got = output_counter(result.outputs)
    if got == want:
        return []
    missing = sum((want - got).values())
    extra = sum((got - want).values())
    return [f"output multiset differs from input ({missing} missing, {extra} extra)"]


@dataclass
class Reference:
    """What a fault-free run leaves for checking a faulty one."""

    outputs: dict
    ledger: DeliveryLedger
    steps_run: int


def write_reference(workload: Workload, seed: int, path: Path) -> None:
    result = run_once(workload, seed, faulty=False).result
    with open(path, "wb") as f:
        pickle.dump(Reference(result.outputs, result.ledger, result.steps_run), f)


def load_reference(path: Path) -> Reference:
    # the file was written by write_reference in this benchmark's run
    with open(path, "rb") as f:
        return pickle.load(f)


def check_recovered(
    workload: Workload, config: JobConfig, result: JobResult, reference: Reference
) -> list[str]:
    """The checks ``sweep_failures`` applies to a PageRank failure run."""
    (event,) = parse_failure_spec(workload.failures).events
    problems = outputs_match(reference.outputs, result.outputs, config.benchmark)
    if result.steps_run != reference.steps_run:
        problems.append(
            f"ran {result.steps_run} steps, reference ran {reference.steps_run}"
        )
    if len(result.metrics.recoveries) != 1:
        problems.append(
            f"{len(result.metrics.recoveries)} recoveries recorded, wanted 1"
        )
    else:
        problems += result.ledger.check_against(
            reference.ledger,
            set(event.failed),
            event_step=event.step,
            recovery_point=result.metrics.recoveries[0].recovery_point,
            exact_after=False,
        )
    return problems


def check(workload: Workload, seed: int, result: JobResult, reference_path: Path | None) -> list[str]:
    """Every problem with one run's outputs; empty when it is correct."""
    config = workload.config_for(seed)
    if config.benchmark == "uniform":
        return check_uniform(config, result)
    problems = check_pagerank(config, result)
    if workload.failures:
        if reference_path is None:
            raise ValueError(f"workload {workload.name} needs a fault-free reference")
        problems += check_recovered(workload, config, result, load_reference(reference_path))
    return problems
