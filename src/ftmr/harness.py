"""Experiment harness: failure plans, sweeps, and overhead measurement.

Everything here drives :func:`ftmr.engine.run_job` from a
:class:`ftmr.config.JobConfig` and checks the results:

* :func:`build_job` -- the job a config names, at its scale;
* :func:`run_simulation` -- one run, optionally with injected failures
  and a delivery ledger;
* :func:`verify` -- the checks of one run against a fault-free
  reference: outputs, step count, recoveries, and for a single failure
  exactly-once re-delivery;
* :func:`sweep_failures` -- a fault-free reference run, then one faulty
  run per (step, failure unit) pair, each passed through :func:`verify`;
* :func:`measure_overhead` -- a uniform random workload that compares
  backup traffic against shuffle traffic; with ``p`` PEs and backup on,
  the expected ratio is ``1/(p-1)``.
"""

from __future__ import annotations

import contextlib
import logging
import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .benchmarks import (
    DEFAULT_DEGREES,
    connected_components_job,
    pagerank_job,
    rmat_dedup_job,
    uniform_job,
    word_count_job,
)
from .config import ConfigError, JobConfig
from .core import PeId, Record, StepId
from .engine import Job, JobResult, run_job
from .metrics import DeliveryLedger
from .partition import mix_seed
from .recovery import FailureEvent


# -- failure plans ------------------------------------------------------


@dataclass(frozen=True)
class FailurePlan:
    """Failure events to inject, at most one per step."""

    events: tuple[FailureEvent, ...] = ()

    def __post_init__(self):
        steps = [e.step for e in self.events]
        if len(set(steps)) != len(steps):
            raise ConfigError(
                f"multiple failure events share a step: {sorted(steps)}"
            )
        object.__setattr__(
            self, "events", tuple(sorted(self.events, key=lambda e: e.step))
        )


def parse_failure_spec(text: str) -> FailurePlan:
    """Parse ``"step:pe,pe;step:pe"`` into a plan.

    Example: ``"2:1;4:0,3"`` fails PE 1 at step 2, then PEs 0 and 3
    together at step 4.
    """
    events = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        step_text, sep, pes_text = part.partition(":")
        if not sep:
            raise ConfigError(f"bad failure event {part!r}; want 'step:pe[,pe...]'")
        try:
            step = int(step_text)
            pes = frozenset(int(x) for x in pes_text.split(","))
        except ValueError:
            raise ConfigError(
                f"bad failure event {part!r}; want 'step:pe[,pe...]'"
            ) from None
        events.append(FailureEvent(step, pes))
    return FailurePlan(tuple(events))


def random_failure_plan(
    p: int,
    seed: int,
    fraction: float,
    *,
    window: int,
    group_size: int = 1,
) -> FailurePlan:
    """Seeded plan failing ``round(fraction * p)`` units at distinct steps.

    Units are whole failure groups (single PEs when ``group_size`` is 1),
    drawn without replacement, so the events stay individually
    recoverable; steps are drawn from ``1 .. window``.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError(f"failure fraction {fraction} not in [0, 1]")
    n_units = p // group_size
    k = round(fraction * n_units)
    if k == 0:
        return FailurePlan()
    if k >= n_units:
        raise ConfigError(
            f"failing {k} of {n_units} units leaves no survivors"
        )
    if k > window:
        raise ConfigError(
            f"{k} failure events do not fit in a {window}-step window"
        )
    rng = random.Random(mix_seed(seed, 0xFA17))
    steps = rng.sample(range(1, window + 1), k)
    units = rng.sample(range(n_units), k)
    events = tuple(
        FailureEvent(
            step,
            frozenset(range(gid * group_size, (gid + 1) * group_size)),
        )
        for step, gid in zip(sorted(steps), units)
    )
    return FailurePlan(events)


# -- single runs --------------------------------------------------------


def build_job(config: JobConfig) -> Job:
    """The job ``config`` names, at its scale; validates ``config`` first."""
    benchmark, p, seed = config.validate().benchmark, config.p, config.seed
    if benchmark == "uniform":
        return uniform_job(p, seed, total_records=config.total_records)
    if benchmark == "wordcount":
        return word_count_job(
            p, seed, words_per_pe=config.words_per_pe, dict_words=config.dict_words
        )
    n = config.vertices_per_pe * p
    degree = config.avg_degree or DEFAULT_DEGREES[benchmark]
    if benchmark == "rmat":
        return rmat_dedup_job(p, seed, n_vertices=n, avg_degree=degree)
    if benchmark == "cc":
        return connected_components_job(p, seed, n_vertices=n, avg_degree=degree)
    return pagerank_job(
        p, seed, n_vertices=n, avg_degree=degree, iterations=config.iterations
    )


def run_simulation(
    config: JobConfig,
    plan: FailurePlan | None = None,
    *,
    ledger: DeliveryLedger | None = None,
) -> JobResult:
    """Run ``config`` once; ``ledger`` is handed to :func:`run_job`."""
    return run_job(
        build_job(config),
        config.p,
        backup_mode=config.backup_mode,
        recovery_point_interval=config.recovery_point_interval,
        failure_plan=plan,
        group_size=config.group_size,
        single_recoverer=config.single_recoverer,
        ledger=ledger,
    )


# -- output comparison --------------------------------------------------


def output_counter(outputs: dict[PeId, list[Record]]) -> Counter:
    """Global output multiset, ignoring which PE holds what."""
    return Counter(chain.from_iterable(outputs.values()))


def outputs_match(
    reference: dict[PeId, list[Record]],
    got: dict[PeId, list[Record]],
    _benchmark: str | None = None,
) -> list[str]:
    """Compare global outputs as exact record multisets; returns
    human-readable problems.

    One comparison serves every workload: PageRank's reduce sums its
    float shares with ``math.fsum``, whose result does not depend on the
    order recovery re-delivers them in.  The third parameter is unread.
    """
    want_counter = output_counter(reference)
    got_counter = output_counter(got)
    if want_counter == got_counter:
        return []
    missing = sum((want_counter - got_counter).values())
    extra = sum((got_counter - want_counter).values())
    return [f"output multiset differs ({missing} missing, {extra} extra records)"]


def needs_ledgers(plan: FailurePlan | None) -> bool:
    """Whether :func:`verify` reads the delivery ledgers of ``plan``'s runs."""
    return plan is not None and len(plan.events) == 1


def verify(
    result: JobResult,
    reference: JobResult,
    plan: FailurePlan | None,
) -> list[str]:
    """Check a run against a fault-free reference; returns the problems.

    The outputs must match as exact record multisets and the step count
    must match, and the run must record one recovery per plan event (an
    event past the job's last step never fires, and that is reported
    too).  When :func:`needs_ledgers` says so, the run's ledger must also
    pass :meth:`DeliveryLedger.check_against` the reference ledger,
    record for record.
    """
    problems = outputs_match(reference.outputs, result.outputs)
    if result.steps_run != reference.steps_run:
        problems.append(
            f"ran {result.steps_run} steps, fault-free reference ran "
            f"{reference.steps_run}"
        )
    events = plan.events if plan is not None else ()
    recoveries = result.metrics.recoveries
    if len(recoveries) != len(events):
        problems.append(
            f"{len(recoveries)} recoveries recorded, wanted {len(events)}"
        )
    elif needs_ledgers(plan):
        if result.ledger is None or reference.ledger is None:
            raise ValueError("a single-failure check needs both runs' ledgers")
        (event,) = events
        problems.extend(
            result.ledger.check_against(
                reference.ledger,
                set(event.failed),
                event_step=event.step,
                recovery_point=recoveries[0].recovery_point,
            )
        )
    return problems


# -- exhaustive single-failure sweep ------------------------------------


@contextlib.contextmanager
def _quiet(log: logging.Logger):
    old = log.level
    log.setLevel(logging.ERROR)
    try:
        yield
    finally:
        log.setLevel(old)


@dataclass
class SweepCase:
    step: StepId
    failed: tuple[PeId, ...]
    problems: list[str]


@dataclass
class SweepResult:
    reference: JobResult
    cases: list[SweepCase]

    @property
    def ok(self) -> bool:
        return all(not c.problems for c in self.cases)

    def failures(self) -> list[SweepCase]:
        return [c for c in self.cases if c.problems]

    def describe(self) -> str:
        lines = [
            f"swept {len(self.cases)} single-failure runs over "
            f"{self.reference.steps_run} steps: "
            + ("all verified" if self.ok else f"{len(self.failures())} FAILED")
        ]
        for case in self.failures():
            for problem in case.problems:
                lines.append(f"  step {case.step}, PEs {list(case.failed)}: {problem}")
        return "\n".join(lines)


def sweep_failures(
    config: JobConfig,
    *,
    steps: list[StepId] | None = None,
) -> SweepResult:
    """Fail every unit at every step (or the given steps, each once), one
    run each.

    Each faulty run must pass :func:`verify` against the reference,
    including the delivery-ledger exactly-once checks.  A given step
    outside the reference run's ``1 .. steps_run`` raises
    :class:`ConfigError`, since its event would never fire.  Engine
    warnings about degraded protection after the injected failure are
    muted; the sweep itself reports anything that went wrong.
    """
    config.validate()
    if config.p - config.group_size < 1:
        raise ConfigError("sweep needs at least one surviving PE per failure")
    reference = run_simulation(config, ledger=DeliveryLedger())
    units = [
        tuple(range(gid * config.group_size, (gid + 1) * config.group_size))
        for gid in range(config.p // config.group_size)
    ]
    step_list = list(dict.fromkeys(steps)) if steps is not None else list(
        range(1, reference.steps_run + 1)
    )
    outside = sorted({s for s in step_list if not 1 <= s <= reference.steps_run})
    if outside:
        raise ConfigError(
            f"steps {outside} lie outside the job's steps 1..{reference.steps_run}"
        )
    cases = []
    engine_log = logging.getLogger("ftmr")
    for step in step_list:
        for unit in units:
            plan = FailurePlan((FailureEvent(step, frozenset(unit)),))
            with _quiet(engine_log):
                result = run_simulation(config, plan, ledger=DeliveryLedger())
            cases.append(SweepCase(step, unit, verify(result, reference, plan)))
    return SweepResult(reference=reference, cases=cases)


# -- communication overhead ---------------------------------------------


@dataclass
class OverheadResult:
    p: int
    seed: int
    total_records: int
    network_bytes: int
    backup_bytes: int
    share_balance: float = 0.0  # worst per-step max/mean of share sizes

    @property
    def ratio(self) -> float:
        return self.backup_bytes / self.network_bytes if self.network_bytes else 0.0

    @property
    def expected(self) -> float:
        return 1.0 / (self.p - 1) if self.p > 1 else 0.0

    def describe(self) -> str:
        return (
            f"p={self.p:3d}  backup/network = {self.ratio:.4f}  "
            f"expected 1/(p-1) = {self.expected:.4f}  "
            f"worst share imbalance = {self.share_balance:.2f}x"
        )


def measure_overhead(
    p: int,
    seed: int,
    *,
    total_records: int = 100_000,
) -> OverheadResult:
    """Run the uniform workload and relate backup bytes to network bytes.

    Self-messages are a ``1/p`` fraction of a uniform shuffle and only
    they are backed up, so the ratio should sit near ``1/(p-1)`` and fall
    as the cluster grows.
    """
    config = JobConfig(
        benchmark="uniform",
        p=p,
        seed=seed,
        total_records=total_records,
    )
    result = run_simulation(config)
    balance = 0.0
    for sm in result.metrics.steps:
        received = list(sm.backup_received.values())
        if received and sum(received) > 0:
            mean = sum(received) / len(received)
            balance = max(balance, max(received) / mean)
    return OverheadResult(
        p=p,
        seed=seed,
        total_records=total_records,
        network_bytes=result.metrics.total_network_bytes,
        backup_bytes=result.metrics.total_backup_bytes,
        share_balance=balance,
    )
