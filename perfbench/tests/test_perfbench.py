"""Self-test of the benchmark at tiny input sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def test_benchmark_json_matches_the_runner():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        run.END_TO_END.items()
    )
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == (
        run.per_layer_spec()
    )
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_listed_metric_is_emitted(workload, trace):
    result, details = run.run(workload, seed=3, seconds=0.2, trace=trace, tiny=True)
    assert result["correct"] and result["failed"] == 0, details["problems"]
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in listed]
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def corrupt(workload, report):
    """Shift one number of a parsed report, as a wrong program would."""
    if "results" in report:
        row = next(r for r in report["results"] if r["degree"]["weights"] is not None)
        row["degree"]["weights"][0] += 0.25
    elif "aggregate" in report:
        report["aggregate"]["total_dev2"] += 1
    else:
        report["eigenfactor"]["weights"][0] += 0.25


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_corrupted_report_fails_the_run(workload):
    result, details = run.run(workload, seed=3, seconds=0.1, trace=0, tiny=True, tamper=corrupt)
    assert not result["correct"]
    assert details["failed_ratio"] > 0


def test_a_directory_without_the_program_fails():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        process = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "classes", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert process.returncode != 0
    assert '"metrics"' not in process.stdout
