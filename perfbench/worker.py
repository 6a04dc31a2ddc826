"""One pass over a query list, in a fresh interpreter.

Usage: ``python3 perfbench/worker.py JOB.json`` from the checkout root, with
``PYTHONPATH`` pointing at its ``src``.  The job names the queries (argument
lists for ``strobewalk.cli.main``), whether to trace, and where to write the
result: one wall time and exit code per query, the peak resident set of this
process and, when traced, self times, call counts and step counts.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _run(main, argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash in the program counts as a failed query
        traceback.print_exc()
        return -1


def main() -> None:
    job = json.loads(Path(sys.argv[1]).read_text())
    import strobewalk.cli

    tracer = None
    if job["trace"]:
        from spans import Tracer, self_times

        tracer = Tracer()
        tracer.install()

    times, codes = [], []
    for argv in job["queries"]:
        start = time.perf_counter()
        rc = _run(strobewalk.cli.main, argv)
        times.append(time.perf_counter() - start)
        codes.append(rc)

    result = {
        "module": strobewalk.cli.__file__,
        "times": times,
        "codes": codes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.write(Path(job["spans"]))
        result["self_s"], result["calls"] = self_times(tracer.spans)
        result["counts"] = dict(tracer.counts)
    Path(job["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
