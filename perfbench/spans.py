"""Spans around the public functions of each strobewalk layer.

``Tracer.install`` wraps every function a layer exports and rebinds each
name, in every loaded ``strobewalk`` module, that refers to the original;
``cli``, ``quotient`` and ``detection`` import functions by name, so
patching only the defining module would miss their calls.  Spans are kept
in memory as ``[name, parent index, start, end]`` and written out at the
end; a span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

LAYERS = ("graphs", "spectral", "detection", "symmetry", "quotient", "cli")


def _series_steps(counts, args, kwargs, result):
    counts["detection.series_steps"] += result.n_used


def _amplitude_steps(counts, args, kwargs, result):
    counts["detection.amplitude_steps"] += kwargs["n_max"] if "n_max" in kwargs else args[1]


#: Step counters recorded next to the spans.
COUNTERS = {
    "detection.pdet_series": _series_steps,
    "detection.first_detection_amplitudes": _amplitude_steps,
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, self._stack[-1] if self._stack else -1, self.clock(), 0.0])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][3] = self.clock()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "strobewalk" or key.startswith("strobewalk."))]
        for layer in LAYERS:
            mod = sys.modules[f"strobewalk.{layer}"]
            for attr in ("main",) if layer == "cli" else mod.__all__:
                fn = getattr(mod, attr)
                if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapper)

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Self time (seconds) and call count per span name."""
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for k, (name, parent, start, end) in enumerate(spans):
        self_s[name] += (end - start) - child[k]
        calls[name] += 1
    return dict(self_s), dict(calls)
