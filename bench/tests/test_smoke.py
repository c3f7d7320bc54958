"""Tiny-size smoke test of the benchmark harness, so that it cannot rot.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_program()

import checks  # noqa: E402
import spans  # noqa: E402

TINY = {"cubic": 6, "chain": 4, "fuzz": None, "cli": None}


def declared(kind: str) -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_op_passes_its_checks(name):
    run_ = run.run_ops(run.make_workload(name, 1, TINY[name]), 0.3)
    assert run_.latencies and run_.wrong == 0, run_.errors
    assert len(run_.scaled()) == len(run_.latencies)
    assert run_.failed == 0, run_.errors


def test_fuzz_leaves_the_defect_class_to_the_untimed_probe():
    import workloads

    timed = itertools.islice(workloads.fuzz_stream(1), 500)
    assert not any(workloads.reduced_over_free(doc) for doc, _ in timed)
    probe = itertools.islice(workloads.defect_stream(), 50)
    assert all(workloads.reduced_over_free(doc) for doc, _ in probe)


def test_a_changed_report_fails_the_digest_and_invariants():
    wl = run.make_workload("cubic", 1, TINY["cubic"])
    item = next(wl.inputs)
    outcome = run.analyse(item)
    stored = checks.outcome_digest(outcome, item[1])
    assert checks.check_analysis(outcome, item[1], stored) is None
    report = json.loads(outcome[2])
    report["frakA"] = "-7/13"
    bad = (outcome[0], outcome[1], json.dumps(report))
    assert checks.check_analysis(bad, item[1], stored) is not None
    assert checks.check_analysis(bad, item[1], None) is not None


def test_recorder_counts_calls_and_restores_the_program():
    from pklt_lab import lattice, zariski

    original = zariski.intersect
    recorder = spans.Recorder()
    run_ = run.run_ops(run.make_workload("chain", 1, TINY["chain"]), 0.0,
                       recorder)
    assert zariski.intersect is original and lattice.intersect is original
    totals = recorder.totals()
    assert totals["op"][0] == len(run_.traced) >= 1
    assert totals["lattice.intersect"][0] > 0
    ops_s = sum(run_.traced)
    assert 0 < sum(own for _, own in totals.values()) <= ops_s * 1.01


def test_command_prints_the_declared_end_to_end_metrics():
    done = bench("--workload", "chain", "--size", "4", "--seed", "2",
                 "--seconds", "0.5", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared(
        "end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_command_prints_the_declared_per_layer_metrics():
    done = bench("--workload", "cubic", "--size", "6", "--seed", "2",
                 "--seconds", "0.5", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared("per_layer")
    assert metrics["half.trace.ops"]["value"] >= 1
    assert metrics["lattice.signature.calls"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "fuzz", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert "metrics" not in done.stdout
