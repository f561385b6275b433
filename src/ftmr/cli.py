"""Command-line front end.

Subcommands::

    ftmr run       one job, optionally with injected failures
    ftmr sweep     fail every (step, unit) pair once and verify each run
    ftmr overhead  backup-traffic ratio on a uniform workload

Exit codes: 0 success, 1 a job error (a user function or driver
failed), 2 bad configuration, 3 a failure proved unrecoverable, 4 a
verification check failed.

The base RNG seed comes from ``--seed`` or the ``FTMR_SEED`` environment
variable, defaulting to 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
import time
from pathlib import Path

from .config import INPUT_ONLY, ConfigError, JobConfig
from .core import encode_stream
from .engine import JobError
from .harness import (
    FailurePlan,
    measure_overhead,
    needs_ledgers,
    parse_failure_spec,
    random_failure_plan,
    run_simulation,
    sweep_failures,
    verify,
)
from .metrics import DeliveryLedger
from .recovery import UnrecoverableFailure

EXIT_OK = 0
EXIT_JOB = 1
EXIT_CONFIG = 2
EXIT_UNRECOVERABLE = 3
EXIT_VERIFY = 4

SWEEP_MAX_P = 16


def _parse_interval(text: str):
    if text == INPUT_ONLY:
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or {INPUT_ONLY!r}, got {text!r}"
        )


def _number(kind: type, text: str, what: str):
    """``kind(text)``; a text that is no such number names ``what``."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{what} must be {noun}, got {text!r}") from None


def _env_seed() -> int:
    return _number(int, os.environ.get("FTMR_SEED", "0"), "FTMR_SEED")


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=Path, help="key = value config file to start from")
    sub.add_argument("--benchmark", help="wordcount | rmat | cc | pagerank | uniform")
    sub.add_argument("-p", "--pes", type=int, dest="p", help="number of PEs")
    sub.add_argument("--seed", type=int, help="base RNG seed (default: $FTMR_SEED or 0)")
    sub.add_argument("--backup-mode", help="split | single | off")
    sub.add_argument(
        "--interval", type=_parse_interval, dest="recovery_point_interval",
        help=f"steps between recovery points, or {INPUT_ONLY!r}",
    )
    sub.add_argument("--group-size", type=int, help="PEs per failure group")
    sub.add_argument(
        "--single-recoverer", action="store_true", default=None,
        help="one surviving PE absorbs the whole failed range",
    )
    sub.add_argument("--iterations", type=int, help="pagerank iterations")
    sub.add_argument("--vertices-per-pe", type=int, help="graph scale per PE")
    sub.add_argument("--avg-degree", type=float, help="graph average degree")
    sub.add_argument("--words-per-pe", type=int, help="wordcount scale per PE")
    sub.add_argument("--total-records", type=int, help="uniform workload size")


def _resolve_config(args: argparse.Namespace) -> JobConfig:
    if args.config is not None:
        config = JobConfig.from_text(args.config.read_text())
    else:
        config = JobConfig()
    for f in dataclasses.fields(JobConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(config, f.name, value)
    if args.seed is None and args.config is None:
        config.seed = _env_seed()
    return config.validate()


def _resolve_plan(args: argparse.Namespace, config: JobConfig) -> FailurePlan | None:
    if not args.failures:
        return None
    if args.failures.startswith("random:"):
        fraction = _number(float, args.failures[len("random:"):], "the random: fraction")
        return random_failure_plan(
            config.p,
            config.seed,
            fraction,
            window=args.failure_window,
            group_size=config.group_size,
        )
    return parse_failure_spec(args.failures)


def cmd_run(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    plan = _resolve_plan(args, config)
    ledgers = args.verify and needs_ledgers(plan)
    start = time.perf_counter()
    result = run_simulation(config, plan, ledger=DeliveryLedger() if ledgers else None)
    elapsed = time.perf_counter() - start
    m = result.metrics
    n_out = sum(len(r) for r in result.outputs.values())
    print(
        f"{config.benchmark}: p={config.p} seed={config.seed} "
        f"steps={result.steps_run} output_records={n_out} "
        f"elapsed={elapsed:.2f}s"
    )
    print(
        f"traffic: network={m.total_network_bytes}B "
        f"self={m.total_self_bytes}B backup={m.total_backup_bytes}B "
        f"(overhead {m.relative_overhead():.4f})"
    )
    for rec in m.recoveries:
        print(
            f"recovery at step {rec.step}: PEs {list(rec.failed)} rebuilt from "
            f"recovery point {rec.recovery_point}, replayed steps "
            f"{list(rec.replayed_steps)}, {rec.records_recomputed} records "
            f"recomputed, {rec.bytes_resent}B re-sent"
        )
    if args.metrics_csv:
        args.metrics_csv.write_text(m.to_csv())
        print(f"metrics written to {args.metrics_csv}")
    if args.output_dir:
        args.output_dir.mkdir(parents=True, exist_ok=True)
        for pe, records in sorted(result.outputs.items()):
            (args.output_dir / f"pe{pe}.bin").write_bytes(encode_stream(records))
        print(f"outputs written to {args.output_dir}/pe<id>.bin")
    if args.save_config:
        args.save_config.write_text(config.to_text())
    if args.verify:
        reference = run_simulation(config, ledger=DeliveryLedger() if ledgers else None)
        problems = verify(result, reference, plan)
        if problems:
            for problem in problems:
                print(f"VERIFY FAILED: {problem}", file=sys.stderr)
            return EXIT_VERIFY
        print("verified: outputs match a fault-free run")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    if config.p > SWEEP_MAX_P:
        raise ConfigError(
            f"sweep is exhaustive over steps x units; p={config.p} exceeds "
            f"the p<={SWEEP_MAX_P} guard"
        )
    steps = None
    if args.steps:
        steps = [_number(int, s, "a --steps entry") for s in args.steps.split(",")]
    result = sweep_failures(config, steps=steps)
    print(result.describe())
    return EXIT_OK if result.ok else EXIT_VERIFY


def cmd_overhead(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else _env_seed()
    p_list = [_number(int, x, "a --p-list entry") for x in args.p_list.split(",")]
    if any(p < 2 for p in p_list):
        raise ConfigError("overhead needs p >= 2 (a lone PE has no peers)")
    if args.seeds < 1:
        raise ConfigError(f"overhead needs --seeds >= 1, got {args.seeds}")
    rows = [
        measure_overhead(p, seed + s, total_records=args.records)
        for p in p_list for s in range(args.seeds)
    ]
    for row in rows:
        print(row.describe())
    if args.csv:
        lines = [
            "p,seed,total_records,network_bytes,backup_bytes,ratio,expected,"
            "share_balance"
        ]
        for r in rows:
            lines.append(
                f"{r.p},{r.seed},{r.total_records},{r.network_bytes},"
                f"{r.backup_bytes},{r.ratio:.6f},{r.expected:.6f},"
                f"{r.share_balance:.4f}"
            )
        args.csv.write_text("\n".join(lines) + "\n")
        print(f"table written to {args.csv}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftmr",
        description="Fault-tolerant MapReduce engine over simulated PEs",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="-v for progress, -vv for debug",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="run one job")
    _add_config_flags(run)
    run.add_argument(
        "--failures",
        help="failure plan: 'step:pe[,pe...];...' or 'random:<fraction>'",
    )
    run.add_argument(
        "--failure-window", type=int, default=5,
        help="latest step eligible for random failures (default 5)",
    )
    run.add_argument("--metrics-csv", type=Path, help="write per-step volumes here")
    run.add_argument("--output-dir", type=Path, help="write pe<id>.bin record dumps here")
    run.add_argument("--save-config", type=Path, help="write the resolved config here")
    run.add_argument(
        "--verify", action="store_true",
        help="also run fault-free and require matching outputs, steps, "
        "recoveries and (for one failure) exactly-once re-delivery",
    )
    run.set_defaults(func=cmd_run)

    sweep = subs.add_parser("sweep", help="verify recovery for every (step, unit)")
    _add_config_flags(sweep)
    sweep.add_argument("--steps", help="comma-separated steps (default: all)")
    sweep.set_defaults(func=cmd_sweep)

    overhead = subs.add_parser("overhead", help="measure backup/network traffic ratio")
    overhead.add_argument("--p-list", default="4,8,16", help="cluster sizes (default 4,8,16)")
    overhead.add_argument("--seeds", type=int, default=1, help="seeds per size")
    overhead.add_argument("--seed", type=int, help="base seed (default: $FTMR_SEED or 0)")
    overhead.add_argument("--records", type=int, default=100_000, help="records per run")
    overhead.add_argument("--csv", type=Path, help="write the table here")
    overhead.set_defaults(func=cmd_overhead)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = (
        logging.WARNING if args.verbose == 0
        else logging.INFO if args.verbose == 1
        else logging.DEBUG
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnrecoverableFailure as exc:
        print(f"unrecoverable failure: {exc}", file=sys.stderr)
        return EXIT_UNRECOVERABLE
    except JobError as exc:
        print(f"job error: {exc}", file=sys.stderr)
        return EXIT_JOB


if __name__ == "__main__":
    sys.exit(main())
