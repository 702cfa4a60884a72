"""Span tracing of the compile pipeline from outside the program.

``Tracer.installed()`` replaces each public function that ``surfc.harness``
and ``surfc.scheduler`` call, under the name by which that module imported
it, with a recorder; the traced run then calls the unchanged
``harness.run_full``, so the trace cannot drift from the pipeline.  Spans stay
in memory until ``write_jsonl``.  Untraced runs never install the recorders.
"""
from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from surfc import harness, scheduler

ROOT_SPAN = "harness.run_full"

# imported name -> span name, per calling module
TRACED = {
    harness: {
        "parse_qasm": "qasm.parse_qasm",
        "build_dag": "circuits.build_dag",
        "build_comm_graph": "circuits.build_comm_graph",
        "para_finding": "profiler.para_finding",
        "config_dims": "chip.config_dims",
        "derive_layout": "chip.derive_layout",
        "establish_mapping": "placement.establish_mapping",
        "baseline_mapping": "placement.baseline_mapping",
        "adjust_bandwidth": "placement.adjust_bandwidth",
        "repair_mapping": "placement.repair_mapping",
        "init_cut_types": "placement.init_cut_types",
        "schedule_limited": "scheduler.schedule_limited",
        "schedule_sufficient": "scheduler.schedule_sufficient",
        "validate": "scheduler.validate",
    },
    scheduler: {
        "find_path": "router.find_path",
        "route_batch_guaranteed": "router.route_batch_guaranteed",
        "build_dag": "circuits.build_dag",
    },
}

NAME, START, END, PARENT, REQUEST, RETURNED_NONE = range(6)


class Tracer:
    """Records one span per call: name, start, end, parent span, the request
    (compile) it belongs to, and whether the call returned ``None``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = ""
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.request, False]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self._stack.pop()
            span[RETURNED_NONE] = result is None
            return result
        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, names in TRACED.items():
                for attr, name in names.items():
                    fn = getattr(module, attr)
                    saved.append((module, attr, fn))
                    setattr(module, attr, self.wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def run_full(self, config):
        """``harness.run_full`` under a root span, with the recorders installed."""
        with self.installed():
            return self.wrap(ROOT_SPAN, harness.run_full)(config)

    def summary(self) -> dict[str, dict[str, list]]:
        """request -> span name -> [self seconds, calls, calls that returned
        None].  A span's self time is its duration minus the time covered by
        its children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        out: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0.0, 0, 0]))
        for i, s in enumerate(self.spans):
            entry = out[s[REQUEST]][s[NAME]]
            entry[0] += s[END] - s[START] - child[i]
            entry[1] += 1
            entry[2] += s[RETURNED_NONE]
        return out

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "request": s[REQUEST],
                                     "returned_none": s[RETURNED_NONE]}) + "\n")
