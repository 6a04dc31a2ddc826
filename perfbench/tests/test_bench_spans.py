"""Span bookkeeping: self times of nested spans add up to the enclosing span."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

from spans import Tracer, self_times

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_nested_self_times_add_up_to_the_root_span():
    tracer = Tracer(clock=FakeClock())

    leaf = tracer.wrap("m.leaf", lambda: None)
    mid = tracer.wrap("m.mid", lambda: (leaf(), leaf()))
    root = tracer.wrap("m.root", lambda: (mid(), leaf()))
    root()
    durations = [end - start for _, _, start, end in tracer.spans]
    self_s, calls = self_times(tracer.spans)
    assert calls == {"m.root": 1, "m.mid": 1, "m.leaf": 3}
    assert math.isclose(sum(self_s.values()), durations[0])
    assert all(v > 0 for v in self_s.values())


def test_exception_closes_the_span():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap("m.boom", boom)
    try:
        wrapped()
    except ValueError:
        pass
    (span,) = tracer.spans
    assert span[3] > span[2]
    assert tracer.wrap("m.ok", lambda: 1)() == 1
    assert tracer.spans[-1][1] == -1  # the failed span left the stack


def test_traced_worker_accounts_for_the_query_time(tmp_path):
    job = {
        "queries": [["analyze", "--graph", "ring:6", "--detect", "0", "--init", "all",
                     "--format", "json", "--out", str(tmp_path / "a.json")],
                    ["simulate", "--graph", "ring:6", "--detect", "0", "--init", "2", "--tau", "0.7",
                     "--format", "json", "--out", str(tmp_path / "s.json")]],
        "trace": True,
        "result": str(tmp_path / "result.json"),
        "spans": str(tmp_path / "spans.jsonl"),
    }
    (tmp_path / "job.json").write_text(json.dumps(job))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(BENCH / "worker.py"), str(tmp_path / "job.json")],
                   cwd=ROOT, env=env, check=True, timeout=120)
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["codes"] == [0, 0]
    assert result["calls"]["cli.main"] == 2
    assert result["calls"]["spectral.diagonalize"] == 1 + 3
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    roots = [s for s in spans if s[1] == -1]
    assert [s[0] for s in roots] == ["cli.main", "cli.main"]
    root_total = sum(end - start for _, _, start, end in roots)
    assert math.isclose(sum(result["self_s"].values()), root_total, rel_tol=1e-9)
    assert root_total <= sum(result["times"])
    assert result["counts"]["detection.series_steps"] == result["counts"]["detection.amplitude_steps"]
