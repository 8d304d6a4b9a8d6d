"""The committed BENCH_*.json files: each holds perfbench/run.py result
lines for a parent and a change, in the shape BENCHMARK.json declares."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_shape(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert {"description", "command", "env", "claim", "runs"} <= bench.keys()
    assert bench["runs"]
    for run in bench["runs"]:
        assert run["workload"] in WORKLOADS
        assert run["side"] in ("parent", "change")
        assert run["result"]["correct"] is True
        assert run["result"]["failed"] == 0
    claim = bench["claim"]
    if claim is not None:
        assert claim["metric"] in END_TO_END
        assert claim["workload"] in WORKLOADS
