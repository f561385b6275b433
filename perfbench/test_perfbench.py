"""Tests of the benchmark itself, on shrunken copies of its workloads.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ftmr.metrics
from ftmr.core import Record
from ftmr.metrics import DeliveryLedger
from perfbench import run
from perfbench.tracer import SPANS, Tracer, _ftmr_modules
from perfbench.workloads import (
    F64,
    WORKLOADS,
    check,
    outputs_digest,
    run_once,
    time_setup,
    write_reference,
)

ROOT = Path(__file__).resolve().parent.parent
SEED = 3


def small(name: str):
    workload = WORKLOADS[name]
    scale = {
        "pagerank": dict(p=4, vertices_per_pe=16, iterations=4),
        "uniform": dict(p=4, total_records=2000),
        "pagerank-recover": dict(vertices_per_pe=16),
    }[name]
    return dataclasses.replace(workload, config=dataclasses.replace(workload.config, **scale))


@pytest.fixture(scope="module")
def reference(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("ref") / "reference.pkl"
    write_reference(small("pagerank-recover"), SEED, path)
    return path


def traced_run(workload):
    with Tracer() as tracer:
        timed = run_once(workload, SEED, wrap_job=tracer.wrap_job)
    return timed, tracer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_is_byte_identical_to_untraced(name):
    workload = small(name)
    plain = run_once(workload, SEED).result
    traced = traced_run(workload)[0].result
    assert outputs_digest(traced.outputs) == outputs_digest(plain.outputs)
    assert traced.metrics.to_csv() == plain.metrics.to_csv()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_recovery_spans_only_on_the_failure_workload(name):
    workload = small(name)
    timed, tracer = traced_run(workload)
    layers = tracer.layer_metrics(timed.result)
    spans = ["recover_s", "rebuild_s", "replay_s", "inject_s", "repair_s"]
    if workload.failures:
        assert all(layers[f"recovery.{s}"] > 0 for s in spans)
        assert layers["recovery.replayed_steps"] == 19
    else:
        assert all(layers[f"recovery.{s}"] == 0 for s in spans)
    assert layers["metrics.ledger_notes"] > 0
    assert layers["engine.steps"] == timed.result.steps_run


def test_setup_only_run_stops_before_the_first_step():
    with Tracer() as tracer:
        assert time_setup(small("pagerank"), SEED) > 0
    assert tracer.calls["engine.ingest"] == 1
    assert tracer.calls["engine.map"] == 0


def test_tracer_wraps_every_binding_and_restores_them():
    def snapshot():
        owners = _ftmr_modules() + [DeliveryLedger]
        return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}

    originals = [getattr(module, attr) for targets in SPANS.values() for module, attr in targets]
    before = snapshot()
    with Tracer():
        during = snapshot()
        assert not [k for k, v in during.items() if any(v is f for f in originals)]
        assert during[(id(ftmr.metrics), "hash_key")] is not before[(id(ftmr.metrics), "hash_key")]
        run_once(small("pagerank-recover"), SEED)
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_accept_the_run_and_catch_a_wrong_output(name, reference):
    workload = small(name)
    ref = reference if workload.failures else None
    result = run_once(workload, SEED).result
    assert check(workload, SEED, result, ref) == []
    records = next(recs for recs in result.outputs.values() if recs)
    rec = records[0]
    if workload.config.benchmark == "uniform":
        records[0] = Record(rec.key, bytes(8))
    else:
        records[0] = Record(rec.key, rec.value[:1] + F64.pack(0.5) + rec.value[9:])
    assert check(workload, SEED, result, ref)


def test_recovered_run_fails_against_another_seeds_reference(tmp_path):
    workload = small("pagerank-recover")
    other = tmp_path / "other.pkl"
    write_reference(workload, SEED + 1, other)
    result = run_once(workload, SEED).result
    assert check(workload, SEED, result, other)


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    for w in spec["workloads"]:
        explicit = WORKLOADS[w["name"]].explicit_ledger
        assert ("explicit ledger" in w["why"]) == explicit
        assert ("default ledger" in w["why"]) != explicit

    timed, tracer = traced_run(small("pagerank"))
    sample = {
        "run_s": 1.0, "calibration_s": 0.03, "verify_s": 0.1,
        "layers": tracer.layer_metrics(timed.result),
    }
    assert {m["name"] for m in spec["per_layer"]} == set(run.per_layer([sample], [sample]))
    e2e = {m["name"] for m in spec["end_to_end"]}
    fake = dict.fromkeys(run.SIGNATURE, 1) | {
        "run_s": 1.0, "calibration_s": 0.03, "setup_s": 0.1, "stall_s": 0.5,
        "peak_rss_mb": 30.0,
    }
    assert e2e <= set(run.end_to_end([fake]))
    assert "setup_s" in e2e


def test_times_are_scaled_to_the_reference_speed():
    at_reference = dict.fromkeys(run.SIGNATURE, 1000) | {
        "run_s": 2.0, "calibration_s": run.REFERENCE_CALIBRATION_S, "setup_s": 0.1,
        "stall_s": 0.5, "peak_rss_mb": 30.0, "verify_s": 0.2,
        "layers": {"engine.map_s": 0.4, "engine.steps": 20},
    }
    # the same run on a host that is momentarily half as fast
    slow = at_reference | {
        "run_s": 4.0, "calibration_s": 2 * run.REFERENCE_CALIBRATION_S, "setup_s": 0.2,
        "stall_s": 1.0, "verify_s": 0.4, "layers": {"engine.map_s": 0.8, "engine.steps": 20},
    }
    for name, (ref, other) in {
        name: (values[0], run.end_to_end([slow])[name][0])
        for name, values in run.end_to_end([at_reference]).items()
    }.items():
        if name in ("wall_s", "calibration_s"):
            assert other == 2 * ref
        else:
            assert other == pytest.approx(ref), name
    assert run.per_layer([slow], [slow]) == pytest.approx(run.per_layer([at_reference], [at_reference]))


def test_judge_flags_failed_and_disagreeing_samples():
    good = dict.fromkeys(run.SIGNATURE, 1) | {"problems": []}
    other = good | {"outputs_sha256": 2}
    bad = good | {"problems": ["wrong"]}
    assert run.judge([good, good]) == []
    assert {k for k, _ in run.judge([good, other, bad])} == {1, 2}


def test_main_exits_nonzero_when_a_sample_is_wrong(monkeypatch, capsys):
    sample = dict.fromkeys(run.SIGNATURE, 1) | {
        "problems": ["score deviates"], "run_s": 1.0, "calibration_s": 0.03, "setup_s": 0.1,
        "stall_s": 0.5, "peak_rss_mb": 30.0, "verify_s": 0.1,
    }
    monkeypatch.setattr(run, "collect", lambda *args: ([sample], [], []))
    code = run.main(["--workload", "pagerank", "--seed", "1", "--seconds", "1"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_refuses_a_tree_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pagerank",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
