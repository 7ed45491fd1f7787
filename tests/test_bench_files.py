"""Every BENCH_*.json at the repository root keeps the layout its readers
rely on: what changed against which parent commit, on what machine, the one
claimed metric of BENCHMARK.json, and alternating parent/change pairs whose
stored medians are the medians of their stored values."""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
END_TO_END = {metric["name"] for metric in BENCHMARK["end_to_end"]}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SERIES = re.compile(r"^(\w+)_seed(\d+)$")


def test_there_are_bench_files():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_layout(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    for key in ("change", "parent_commit", "machine"):
        assert isinstance(data[key], str) and data[key], key
    claim, pairs = data["claim"], data["pairs"]
    assert claim["workload"] in WORKLOADS
    assert claim["metric"] in END_TO_END
    assert isinstance(pairs["command"], str) and pairs["command"]
    for seed in (claim["seed"], claim["held_out_seed"]):
        assert f"{claim['workload']}_seed{seed}" in pairs
    series = {key: value for key, value in pairs.items() if key != "command"}
    assert series
    for key, entry in series.items():
        match = SERIES.match(key)
        assert match and match.group(1) in WORKLOADS, key
        first = entry["first_in_pair"]
        assert first and set(first) <= {"parent", "change"}, key
        assert set(entry["failed_operations"]) == {"parent", "change"}, key
        assert set(entry["metrics"]) <= END_TO_END, key
        for name, metric in entry["metrics"].items():
            for side in ("parent", "change"):
                values = metric[side]["values"]
                assert len(values) == len(first), (key, name, side)
                assert statistics.median(values) == metric[side]["median"], (
                    key,
                    name,
                    side,
                )
