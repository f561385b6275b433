"""Command-line interface: flags, files, exit codes."""

import re

import pytest

from ftmr.cli import (
    EXIT_CONFIG,
    EXIT_JOB,
    EXIT_OK,
    EXIT_UNRECOVERABLE,
    EXIT_VERIFY,
    main,
)
from ftmr.config import JobConfig
from ftmr.core import decode_stream
from ftmr.metrics import CSV_HEADER

WC = ["--benchmark", "wordcount", "-p", "4", "--seed", "7",
      "--words-per-pe", "200"]


def test_run_prints_summary(capsys):
    assert main(["run", *WC]) == EXIT_OK
    out = capsys.readouterr().out
    assert "wordcount: p=4 seed=7 steps=1" in out
    assert re.search(r"elapsed=\d+\.\d\ds\n", out)
    assert "traffic:" in out


def test_run_with_failure_and_verify(capsys):
    assert main(["run", *WC, "--failures", "1:2", "--verify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "recovery at step 1: PEs [2]" in out
    assert "verified: outputs match a fault-free run" in out


def test_run_random_failure_plan(capsys):
    argv = ["run", "--benchmark", "cc", "-p", "4", "--seed", "3",
            "--vertices-per-pe", "16", "--failures", "random:0.25",
            "--failure-window", "3", "--verify"]
    assert main(argv) == EXIT_OK
    assert "recovery at step" in capsys.readouterr().out


def test_run_writes_artifacts(tmp_path, capsys):
    csv = tmp_path / "metrics.csv"
    outdir = tmp_path / "out"
    saved = tmp_path / "run.cfg"
    argv = ["run", *WC, "--metrics-csv", str(csv),
            "--output-dir", str(outdir), "--save-config", str(saved)]
    assert main(argv) == EXIT_OK
    assert csv.read_text().startswith(CSV_HEADER + "\n")
    dumps = sorted(outdir.glob("pe*.bin"))
    assert [d.name for d in dumps] == ["pe0.bin", "pe1.bin", "pe2.bin", "pe3.bin"]
    records = [r for d in dumps for r in decode_stream(d.read_bytes())]
    assert records
    config = JobConfig.from_text(saved.read_text())
    assert (config.benchmark, config.p, config.seed) == ("wordcount", 4, 7)


def test_run_reads_config_file(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("benchmark = wordcount\np = 2\nseed = 9\n"
                   "words_per_pe = 50\ndict_words = 10\n")
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    assert "wordcount: p=2 seed=9" in capsys.readouterr().out
    # flags override the file
    assert main(["run", "--config", str(cfg), "--seed", "5"]) == EXIT_OK
    assert "seed=5" in capsys.readouterr().out


def test_seed_env_fallback(monkeypatch, capsys):
    monkeypatch.setenv("FTMR_SEED", "123")
    assert main(["run", *WC[:4], "--words-per-pe", "50"]) == EXIT_OK
    assert "seed=123" in capsys.readouterr().out
    # an explicit flag wins over the environment
    assert main(["run", *WC, "--words-per-pe", "50"]) == EXIT_OK
    assert "seed=7" in capsys.readouterr().out


def test_config_errors_exit_2(tmp_path, capsys):
    assert main(["run", "--benchmark", "sorting"]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    bad = tmp_path / "bad.cfg"
    bad.write_text("frobnicate = 1\n")
    assert main(["run", "--config", str(bad)]) == EXIT_CONFIG
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == EXIT_CONFIG
    assert main(["run", *WC, "--failures", "nonsense"]) == EXIT_CONFIG
    assert main(["run", *WC, "--interval", "0"]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "flags, last_line",
    [
        (["-p", "0"], "p=0: need at least one PE"),
        (["--backup-mode", "raid5"],
         "unknown backup mode 'raid5'; pick one of ('split', 'single', 'off')"),
        (["--interval", "0"],
         "recovery_point_interval must be a positive integer or "
         "'input-only', got 0"),
        (["--group-size", "3"], "group_size=3 must evenly divide p=4"),
        (["--group-size", "4"],
         "one failure group spanning every PE leaves no backup targets"),
        (["--failures", "1:9"], "failure event names unknown PEs [9]"),
        (["--failures", "9:9"], "failure event names unknown PEs [9]"),
        (["--benchmark", "rmat", "-p", "4", "--vertices-per-pe", "100"],
         "rmat needs a power-of-two vertex count of at least 2; got 400"),
        (["--benchmark", "rmat", "-p", "1", "--vertices-per-pe", "1"],
         "rmat needs a power-of-two vertex count of at least 2; got 1"),
        (["--benchmark", "cc", "-p", "4", "--vertices-per-pe", "16",
          "--interval", "3", "--failures", "2:1;3:1"],
         "failure event at step 3 fails already-dead PEs [1]"),
        (["--benchmark", "rmat", "-p", "4", "--vertices-per-pe", "2"],
         "120 edges cannot be distinct over 36 vertex pairs"),
        (["--benchmark", "pagerank", "-p", "2", "--vertices-per-pe", "4",
          "--iterations", "1", "--avg-degree", "inf"],
         "avg_degree must be positive and finite when set"),
        (["--benchmark", "pagerank", "-p", "2", "--vertices-per-pe", "4",
          "--iterations", "1", "--avg-degree", "nan"],
         "avg_degree must be positive and finite when set"),
        (["--failures", "nonsense"],
         "bad failure event 'nonsense'; want 'step:pe[,pe...]'"),
        (["--failures", "1:x"], "bad failure event '1:x'; want 'step:pe[,pe...]'"),
        (["--failures", "0:1"], "failures fire at MapReduce steps (step >= 1)"),
        (["--failures", "1:1;1:2"], "multiple failure events share a step: [1, 1]"),
        (["--failures", "random:2"], "failure fraction 2.0 not in [0, 1]"),
        (["--failures", "random:1"], "failing 4 of 4 units leaves no survivors"),
        (["--failures", "random:0.5", "--failure-window", "0"],
         "2 failure events do not fit in a 0-step window"),
    ],
    ids=["p0", "backup-mode", "interval", "group-divides", "group-spans",
         "unknown-pe", "unknown-pe-late", "rmat-vertices", "rmat-one-vertex",
         "dead-pe-again",
         "rmat-edges", "degree-inf", "degree-nan",
         "plan-no-colon", "plan-not-int", "plan-step-0", "plan-shared-step",
         "random-fraction-range", "random-no-survivors", "random-window"],
)
def test_config_error_lines(flags, last_line, capsys):
    argv = ["run", "--benchmark", "wordcount", "--words-per-pe", "50", *flags]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"configuration error: {last_line}"


def test_interval_flag_forms(capsys):
    assert main(["run", *WC, "--interval", "input-only"]) == EXIT_OK
    assert main(["run", *WC, "--interval", "2"]) == EXIT_OK
    with pytest.raises(SystemExit) as exc:
        main(["run", *WC, "--interval", "fortnightly"])
    assert exc.value.code == 2


def test_unrecoverable_exits_3(capsys):
    argv = ["run", *WC, "--backup-mode", "off", "--failures", "1:1"]
    assert main(argv) == EXIT_UNRECOVERABLE
    assert "unrecoverable failure" in capsys.readouterr().err


def test_lost_shares_exit_3(capsys):
    # the shares of PE 0 died with group {2, 3}; rebuilding it from the
    # rest would silently drop records, so the run refuses
    argv = ["run", "--benchmark", "cc", "-p", "4", "--group-size", "2",
            "--interval", "3", "--vertices-per-pe", "16",
            "--failures", "1:2,3;2:0", "--verify"]
    assert main(argv) == EXIT_UNRECOVERABLE
    assert capsys.readouterr().err.splitlines()[-1] == (
        "unrecoverable failure: backup share 0 of PE 0 at step 1 was held "
        "by PE 2, which has also failed"
    )


def test_job_error_exits_1_without_traceback(capsys):
    # 480 edges over 528 vertex pairs: the dedup cannot converge within
    # its 100 rounds, which the driver reports as a job error
    argv = ["run", "--benchmark", "rmat", "-p", "4", "--vertices-per-pe", "8",
            "--seed", "5"]
    assert main(argv) == EXIT_JOB
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "job error: PE -1, step 101, driver: "
        "RuntimeError('dedup failed to converge within 100 rounds')\n"
    )


def test_sweep_ok_and_p_guard(capsys):
    argv = ["sweep", "--benchmark", "wordcount", "-p", "4", "--seed", "2",
            "--words-per-pe", "100"]
    assert main(argv) == EXIT_OK
    assert "all verified" in capsys.readouterr().out
    argv = ["sweep", "--benchmark", "wordcount", "-p", "32",
            "--words-per-pe", "10"]
    assert main(argv) == EXIT_CONFIG
    assert "exceeds" in capsys.readouterr().err


def test_sweep_step_subset(capsys):
    argv = ["sweep", "--benchmark", "cc", "-p", "4", "--seed", "3",
            "--vertices-per-pe", "16", "--steps", "1,2"]
    assert main(argv) == EXIT_OK
    assert "swept 8 single-failure runs" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, env_seed, last_line",
    [
        (["run", *WC[:4]], "abc", "FTMR_SEED must be an integer, got 'abc'"),
        (["overhead", "--p-list", "4"], "abc",
         "FTMR_SEED must be an integer, got 'abc'"),
        (["sweep", *WC[:4], "--steps", "1,abc"], None,
         "a --steps entry must be an integer, got 'abc'"),
        (["run", *WC, "--failures", "random:abc"], None,
         "the random: fraction must be a number, got 'abc'"),
        (["overhead", "--p-list", "4,x"], None,
         "a --p-list entry must be an integer, got 'x'"),
    ],
    ids=["seed-env-run", "seed-env-overhead", "sweep-steps", "random-fraction",
         "p-list"],
)
def test_outside_input_errors_name_the_input(argv, env_seed, last_line,
                                             monkeypatch, capsys):
    if env_seed is None:
        monkeypatch.delenv("FTMR_SEED", raising=False)
    else:
        monkeypatch.setenv("FTMR_SEED", env_seed)
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: {last_line}\n"


def test_sweep_step_past_the_job_is_a_config_error(capsys):
    argv = ["sweep", "--benchmark", "wordcount", "-p", "4", "--seed", "2",
            "--words-per-pe", "200", "--steps", "1,2"]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "configuration error: steps [2] lie outside the job's steps 1..1\n"
    )


def test_overhead_table(tmp_path, capsys):
    csv = tmp_path / "overhead.csv"
    argv = ["overhead", "--p-list", "4", "--records", "5000",
            "--csv", str(csv)]
    assert main(argv) == EXIT_OK
    assert "p=  4" in capsys.readouterr().out
    header, row = csv.read_text().splitlines()
    assert header == (
        "p,seed,total_records,network_bytes,backup_bytes,ratio,expected,share_balance"
    )
    assert row.startswith("4,0,5000,")
    assert main(["overhead", "--p-list", "1"]) == EXIT_CONFIG


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_overhead_refuses_no_seeds(seeds, tmp_path, capsys):
    csv = tmp_path / "overhead.csv"
    argv = ["overhead", "--p-list", "4", "--seeds", seeds, "--csv", str(csv)]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: overhead needs --seeds >= 1, got {seeds}\n"
    assert not csv.exists()


def test_overhead_has_no_interval_flag(capsys):
    # the uniform job is one step, and step 1 is a recovery point at
    # every interval, so the flag could not change the measured row
    with pytest.raises(SystemExit) as exc:
        main(["overhead", "--p-list", "4", "--records", "500", "--interval", "3"])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --interval 3" in capsys.readouterr().err


def test_verify_catches_divergence(monkeypatch, capsys):
    # force the shadow run to disagree by tampering with the comparison
    import ftmr.harness as harness

    monkeypatch.setattr(
        harness, "outputs_match", lambda ref, got: ["forced mismatch"]
    )
    assert main(["run", *WC, "--verify"]) == EXIT_VERIFY
    assert "VERIFY FAILED: forced mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("failures, ledgers", [
    ([], False), (["--failures", "1:2"], True), (["--failures", "1:2;2:3"], False),
], ids=["fault-free", "one-event", "two-events"])
def test_verify_builds_ledgers_only_for_a_checked_plan(monkeypatch, capsys, failures, ledgers):
    # verify reads the ledgers of a one-event plan only; a ledger holds
    # every delivered record, so no other run should build one
    import ftmr.cli as cli

    built = []
    run_simulation = cli.run_simulation

    def recorded(config, plan=None, *, ledger=None):
        built.append(ledger is not None)
        return run_simulation(config, plan, ledger=ledger)

    monkeypatch.setattr(cli, "run_simulation", recorded)
    argv = ["run", "--benchmark", "cc", "-p", "4", "--seed", "3",
            "--vertices-per-pe", "16", "--interval", "3", *failures, "--verify"]
    assert main(argv) == EXIT_OK
    assert "verified: outputs match a fault-free run" in capsys.readouterr().out
    assert built == [ledgers, ledgers]
