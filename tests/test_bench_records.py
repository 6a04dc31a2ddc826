"""Layout of the committed benchmark records, ``BENCH_*.json`` at the repository root.

Each record compares a change with its parent commit on the workloads of
``perfbench``, run in alternating pairs.  Free-form notes may sit beside
the keys checked here.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
TOP_LEVEL = {"change", "parent_commit", "machine", "command", "seconds_per_run", "workloads"}
METRIC = {"unit", "parent_median", "parent_quartiles", "change_median", "change_quartiles",
          "change_over_parent", "change_better_pairs", "parent_runs", "change_runs"}
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_layout(path):
    record = json.loads(path.read_text())
    assert TOP_LEVEL <= set(record)
    assert record["workloads"]
    for name, workload in record["workloads"].items():
        seeds, pairs = workload["seeds"], workload["pairs"]
        assert pairs == len(seeds) > 0, name
        for metric in END_TO_END:
            entry = workload[metric]
            assert METRIC <= set(entry), (name, metric)
            parent, change = entry["parent_runs"], entry["change_runs"]
            assert len(parent) == len(change) == pairs, (name, metric)
            assert entry["parent_median"] == pytest.approx(statistics.median(parent), rel=1e-3), (name, metric)
            assert entry["change_median"] == pytest.approx(statistics.median(change), rel=1e-3), (name, metric)
            assert entry["change_over_parent"] == pytest.approx(
                entry["change_median"] / entry["parent_median"], rel=1e-3), (name, metric)
