"""Run configuration shared by the harness and the CLI.

A :class:`JobConfig` captures everything needed to reproduce a run:
workload and its scale, cluster size, seed, and the fault-tolerance
knobs.  Configs round-trip through a plain ``key = value`` text format
(``#`` comments allowed) so runs can be kept alongside their outputs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .benchmarks import rmat_scale
from .core import ConfigError
from .engine import INPUT_ONLY, failure_groups, recovery_point_schedule
from .partition import BackupMode

WORKLOADS = ("wordcount", "rmat", "cc", "pagerank", "uniform")
# the workload-scale fields that count something
SCALE_INTS = ("vertices_per_pe", "words_per_pe", "dict_words", "iterations", "total_records")


@dataclass
class JobConfig:
    """Everything needed to reproduce one run."""

    benchmark: str = "wordcount"
    p: int = 4
    seed: int = 0

    # fault tolerance
    backup_mode: str = "split"
    recovery_point_interval: int | str = 1  # steps, or "input-only"
    group_size: int = 1
    single_recoverer: bool = False

    # workload scale
    vertices_per_pe: int = 1024
    avg_degree: float | None = None  # per-benchmark default when unset
    words_per_pe: int = 10_000
    dict_words: int = 1000
    iterations: int = 100  # pagerank rounds
    total_records: int = 100_000  # uniform workload size

    def validate(self) -> "JobConfig":
        if self.benchmark not in WORKLOADS:
            raise ConfigError(
                f"unknown benchmark {self.benchmark!r}; pick one of {WORKLOADS}"
            )
        # to_text writes a bool as true/false and a float as 8.5, which
        # from_text refuses for an integer field (and a bool is an int)
        for name in ("p", "seed", "group_size", *SCALE_INTS):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} wants an integer, got {value!r}")
        if isinstance(self.avg_degree, bool):
            raise ConfigError(f"avg_degree wants a number, got {self.avg_degree!r}")
        if self.p < 1:
            raise ConfigError(f"p={self.p}: need at least one PE")
        # the engine's rules, from their one home, which Cluster calls too
        mode = BackupMode.parse(self.backup_mode)
        recovery_point_schedule(self.recovery_point_interval)
        failure_groups(self.p, self.group_size, mode)
        for name in SCALE_INTS:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.avg_degree is not None and not 0 < self.avg_degree < float("inf"):
            raise ConfigError("avg_degree must be positive and finite when set")
        if self.benchmark == "rmat":
            rmat_scale(self.vertices_per_pe * self.p)
        return self

    # -- text round-trip -------------------------------------------------

    def to_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None:
                value = "none"
            elif isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "JobConfig":
        fields = {f.name: f for f in dataclasses.fields(cls)}
        values: dict[str, object] = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key = key.strip()
            if key not in fields:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            values[key] = _parse_value(key, value.strip(), lineno)
        return cls(**values).validate()


def _parse_value(key: str, text: str, lineno: int):
    if key == "recovery_point_interval":
        if text == INPUT_ONLY:
            return INPUT_ONLY
        return _parse_int(key, text, lineno)
    if key == "avg_degree":
        if text.lower() == "none":
            return None
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"line {lineno}: {key} wants a number, got {text!r}")
    if key == "single_recoverer":
        low = text.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"line {lineno}: {key} wants true/false, got {text!r}")
    if key in ("benchmark", "backup_mode"):
        return text
    return _parse_int(key, text, lineno)


def _parse_int(key: str, text: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} wants an integer, got {text!r}")
