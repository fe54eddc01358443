"""Self-test of the benchmark, in smoke mode (2-second runs, one set-up).

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]

from run import END_TO_END_UNITS, LAYER_UNITS, PER_LAYER  # noqa: E402
from workloads import ROWS, WORKLOADS  # noqa: E402

#: not the default seed: answers must hold on any seed
SEED = 7


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_rows_are_table1_rows_with_paper_noise_counts():
    from _common import TABLE1_BY_NAME

    for row, (_, _, noises) in ROWS.items():
        assert TABLE1_BY_NAME[row].num_noises == noises, row


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_emits_every_end_to_end_metric(workload):
    args = ["--workload", workload, "--seed", str(SEED), "--smoke"]
    report, last = result(bench(*args, "--trace", "0"))
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert set(last["metrics"]) == set(END_TO_END_UNITS)
    for name, unit in {**END_TO_END_UNITS, "fail_ratio": "1"}.items():
        assert report["end_to_end"][name]["unit"] == unit
        assert report["end_to_end"][name]["value"] >= 0
    assert report["end_to_end"]["fail_ratio"]["value"] == 0
    for name, metric in last["metrics"].items():
        assert metric["value"] > 0, name
    # a second run of the seed must land each percentile on the same row
    # (the run itself compares against the first and fails otherwise)
    again, _ = result(bench(*args, "--trace", "0"))
    assert again["placement_stable"]
    for name in ("check_s_p50", "check_s_tail"):
        assert again["placement"][name]["row"] == report["placement"][name]["row"]


@pytest.mark.parametrize("workload", ["tdd_alg1", "warm_hits"])
def test_smoke_trace_emits_every_layer_metric(workload):
    report, last = result(bench(
        "--workload", workload, "--seed", str(SEED), "--smoke", "--trace", "1"
    ))
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == set(PER_LAYER)
    for name, unit in LAYER_UNITS.items():
        assert report["layers"][name]["unit"] == unit
    with open(os.path.join(ROOT, report["spans_file"])) as handle:
        spans = json.load(handle)
    assert {"name", "request_id", "id", "parent", "start_ns", "end_ns"} <= set(spans[0])


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench(
        "--workload", "cold_plan", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
        script=str(tmp_path / "perfbench" / "run.py"),
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (name, LAYER_UNITS[name]) for name in PER_LAYER
    ]
