"""Closed-loop benchmark of the strobewalk CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends one query at a time through ``strobewalk.cli.main(argv)``
in-process and writes each report to a file.  A run repeats whole passes
over the workload's query list, each pass in a fresh interpreter, until
``--seconds`` have passed and at least ``MIN_QUERIES`` queries were timed.
Every report is checked against references computed apart from the program.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics named in ``BENCHMARK.json``: the
end-to-end ones with ``--trace 0``, the per-layer ones with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from checks import check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = Path(BENCH.name) / "out"

#: BLAS threads of every process that runs queries (at most the CPU count).
BLAS_THREADS = 1
MIN_QUERIES = 100
#: Fresh interpreters that import ``strobewalk.cli``: untimed ones first (they
#: write the bytecode cache), then timed ones before every pass.
WARMUP_LAUNCHES = 1
LAUNCHES_PER_PASS = 2
PASS_TIMEOUT_S = 150


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def launch_seconds(env: dict[str, str]) -> float:
    """Wall time of a fresh interpreter that imports ``strobewalk.cli`` and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import strobewalk.cli"], env=env, check=True,
                   timeout=PASS_TIMEOUT_S)
    return time.perf_counter() - start


def run_pass(queries, work: Path, number: int, trace: bool, env: dict[str, str]) -> dict:
    reports = work / "reports"
    shutil.rmtree(reports, ignore_errors=True)
    reports.mkdir(parents=True)
    job = {
        "queries": [q.argv + ["--format", "json", "--out", str(reports / f"{q.qid}.json")] for q in queries],
        "trace": trace,
        "result": str(work / "result.json"),
        "spans": str(work / f"spans-{number}.jsonl"),
    }
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job))
    subprocess.run([sys.executable, str(BENCH / "worker.py"), str(job_path)], env=env, check=True,
                   timeout=PASS_TIMEOUT_S)
    return json.loads(Path(job["result"]).read_text())


def check_pass(queries, result: dict, work: Path, tally: dict) -> None:
    for q, rc in zip(queries, result["codes"]):
        report = None
        if rc == 0:
            report = json.loads((work / "reports" / f"{q.qid}.json").read_text())
        status, answered, reason = check(q, rc, report)
        tally["answered"] += answered
        tally["status"][status] = tally["status"].get(status, 0) + 1
        if status != "ok" and q.qid not in tally["reported"]:
            tally["reported"].add(q.qid)
            print(f"failed: {q.qid} [{status}] {reason}: strobewalk {' '.join(q.argv)}", file=sys.stderr)


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def layer_metrics(names, passes: list[dict]) -> dict[str, float]:
    """Per-layer values of one pass, averaged over the passes of the run."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for res in passes:
        for table, key in ((self_s, "self_s"), (calls, "calls"), (counts, "counts")):
            for name, value in res[key].items():
                table[name] = table.get(name, 0) + value
    out = {}
    for name in names:
        if name.endswith("_calls"):
            value = calls.get(name[: -len("_calls")], 0)
        elif name.endswith("_ms"):
            span = name[: -len("_ms")].removesuffix("_self")
            value = 1000.0 * self_s.get(span, 0.0)
        else:
            value = counts.get(name, 0)
        out[name] = value / len(passes)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not Path("src/strobewalk/cli.py").is_file():
        print("error: run from a strobewalk checkout; src/strobewalk/cli.py is missing", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = declared_metrics(trace)
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    queries = workloads.generate(args.workload, args.seed, work / "inputs")
    env = child_env()

    setup: list[float] = []
    if not trace:
        for _ in range(WARMUP_LAUNCHES):
            launch_seconds(env)
    passes: list[dict] = []
    tally = {"answered": 0, "status": {}, "reported": set()}
    start = time.monotonic()
    while not passes or time.monotonic() - start < args.seconds or len(passes) * len(queries) < MIN_QUERIES:
        if not trace:
            setup.extend(launch_seconds(env) for _ in range(LAUNCHES_PER_PASS))
        result = run_pass(queries, work, len(passes), trace, env)
        if not Path(result["module"]).resolve().is_relative_to(ROOT / "src"):
            print(f"error: imported strobewalk from {result['module']}, not from this checkout",
                  file=sys.stderr)
            return 2
        check_pass(queries, result, work, tally)
        passes.append(result)

    (work / "passes.json").write_text(json.dumps(passes))
    times = [t for res in passes for t in res["times"]]
    total = sum(times)
    per_pass = " ".join(f"{1000.0 * sum(res['times']):.0f}" for res in passes)
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes of {len(queries)} queries, "
          f"query time per pass {per_pass} ms, statuses {tally['status']}", file=sys.stderr)
    if trace:
        values = layer_metrics(names, passes)
    else:
        values = {
            "setup_s": statistics.median(setup),
            "query_p50_ms": 1000.0 * statistics.median(times),
            "query_p90_ms": 1000.0 * statistics.quantiles(times, n=10)[8],
            "pdet_per_s": tally["answered"] / total,
            "peak_rss_mb": max(res["maxrss_kb"] for res in passes) / 1024.0,
        }
    missing = set(names) - set(values)
    if missing:
        print(f"error: BENCHMARK.json names metrics this run does not measure: {sorted(missing)}",
              file=sys.stderr)
        return 2
    attempted = len(times)
    ok = tally["status"].get("ok", 0)
    line = {
        "correct": tally["status"].get("mismatch", 0) == 0,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
