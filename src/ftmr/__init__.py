"""Fault-tolerant MapReduce over simulated processing elements.

The engine runs bulk-synchronous MapReduce steps over p simulated PEs and
keeps enough redundant message state (sender-side shuffle logs plus peer
backups of self-messages) to rebuild any failed PE's data without
checkpointing.  Recovery shrinks the hash-range partition over the
survivors and re-executes the lost Reduce/Map work there.
"""

from .core import Batch, Record, encode_record, decode_record, decode_stream
from .partition import (
    BackupMode,
    PartitionMap,
    backup_targets,
    hash_key,
    initial_partition,
    shrink_partition,
    split_self_message,
)
from .engine import Job, JobError, RecordSource, StepSpec, identity_map, run_job
from .recovery import FailureEvent, UnrecoverableFailure

__version__ = "0.1.0"

__all__ = [
    "BackupMode",
    "Batch",
    "FailureEvent",
    "Job",
    "JobError",
    "PartitionMap",
    "Record",
    "RecordSource",
    "StepSpec",
    "UnrecoverableFailure",
    "backup_targets",
    "decode_record",
    "decode_stream",
    "encode_record",
    "hash_key",
    "identity_map",
    "initial_partition",
    "run_job",
    "shrink_partition",
    "split_self_message",
]
