"""Run the engine one step at a time so tests can inspect cluster state.

Mirrors the :func:`ftmr.engine.run_job` loop (step history, map,
shuffle, reduce, log GC) but yields control between steps; used by the
garbage-collection and backup-placement tests that need to look at
sender logs and backup stores while the job is still running.
"""

from __future__ import annotations

from ftmr.engine import (
    ClusterState,
    Job,
    StepRecord,
    gc_logs,
    ingest,
    map_phase,
    recovery_point_schedule,
    reduce_phase,
    shuffle,
)
from ftmr.metrics import DeliveryLedger, Metrics
from ftmr.partition import BackupMode


class Stepper:
    def __init__(
        self,
        job: Job,
        p: int,
        *,
        backup_mode: BackupMode = BackupMode.SPLIT,
        recovery_point_interval=1,
        group_size: int = 1,
    ):
        self.backup_mode = backup_mode
        self.is_rp = recovery_point_schedule(recovery_point_interval)
        self.metrics = Metrics()
        self.ledger = DeliveryLedger()
        self.state: ClusterState = ingest(job.source, p, group_size)
        self.driver = job.driver
        self.prev_aggregate: int | None = None
        self.step = 0

    def run_step(self) -> bool:
        """Execute the next step; False once the driver is done."""
        index = self.step + 1
        spec = self.driver.next_step(index, self.prev_aggregate)
        if spec is None:
            return False
        state = self.state
        state.step_history[index] = StepRecord(
            spec=spec,
            is_recovery_point=self.is_rp(index),
            pm=state.pm,
            live=frozenset(state.live),
        )
        map_phase(state, spec.map_fn, index)
        shuffle(
            state,
            index,
            is_recovery_point=self.is_rp(index),
            backup_mode=self.backup_mode,
            metrics=self.metrics,
            ledger=self.ledger,
        )
        self.prev_aggregate = reduce_phase(
            state, spec.reduce_fn, index, spec.counter_fn
        )
        gc_logs(state, index)
        self.step = index
        return True
