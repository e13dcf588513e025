"""Spans around calls into mgv's public functions, recorded from outside.

The tracer swaps module attributes for timing wrappers while it is
installed and puts the originals back afterwards; no file of the program is
touched.  ``from m import f`` binds ``f`` into the importing module, so each
function is wrapped at every module that looks it up, under the name of the
module that defines it.  Per-item helpers (``generate_experience``,
environment methods) stay unwrapped: they run hundreds of thousands of times
and the wrapper would cost more than they do.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from contextlib import contextmanager

# (module where the name is looked up, attribute, defining module)
WRAPPED = [
    ("config", "validate_config", "config"),
    ("runner", "run", "runner"),
    ("runner", "substream", "runner"),
    ("runner", "run_id_for", "runner"),
    ("runner", "_write_trace", "runner"),
    ("recall", "solve_recall_mdp", "recall"),
    ("recall", "recall_transition", "recall"),
    ("recall", "simulate_recall", "recall"),
    ("recall", "stopping_threshold", "recall"),
    ("planning", "run_myopic_planner", "planning"),
    ("planning", "plan_value", "planning"),
    ("planning", "myopic_voc", "planning"),
    ("bandit", "run_bandit_episodes", "bandit"),
    ("bandit", "sample_vocs", "bandit"),
    ("bandit", "posterior_update", "bandit"),
    ("acquisition", "run_acquisition", "acquisition"),
    ("acquisition", "consolidate", "knowledge"),
    ("acquisition", "retrieve_probabilistic", "knowledge"),
    ("flavell", "run_cycle", "flavell"),
    ("flavell", "retrieve_probabilistic", "knowledge"),
    ("flavell", "update_knowledge", "knowledge"),
    ("retrieval", "run_retrieval", "retrieval"),
    ("retrieval", "consolidate", "knowledge"),
    ("retrieval", "retrieve_probabilistic", "knowledge"),
]

LAYERS = sorted({layer for _, _, layer in WRAPPED})


def _count_work(name, args, result, counts):
    """Work counters read off a wrapped call's arguments and result."""
    if name == "knowledge.consolidate":
        counts["knowledge.consolidate.encoded"] += result
    elif name == "runner._write_trace":
        counts["runner.trace_records"] += len(args[3])
        counts["runner.trace_bytes"] += os.path.getsize(args[0])
    elif name == "recall.simulate_recall":
        counts["recall.simulated_episodes"] += args[3]
    elif name == "planning.run_myopic_planner":
        counts["planning.expansions"] += result.num_expansions


_COUNTED = {"knowledge.consolidate", "runner._write_trace",
            "recall.simulate_recall", "planning.run_myopic_planner"}


class Tracer:
    """Records one span per wrapped call and aggregates calls and self time.

    A span is (id, parent id, name, start, end, run index); the parent is the
    innermost wrapped call still open, and the run index is set by the
    caller before each run.  Self time is a span's duration minus the time
    its direct child spans cover.
    """

    def __init__(self, modules: dict, clock=time.perf_counter):
        self.modules = modules
        self.clock = clock
        self.originals: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.run_index = -1
        self._stack: list[list] = []
        self._next_id = 0

    def _wrap(self, fn, name: str, layer: str):
        stack = self._stack
        clock = self.clock
        counted = name in _COUNTED

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]  # id, time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                self.spans.append((span_id, parent, name, start, end, self.run_index))
            if counted:
                _count_work(name, args, result, self.counts)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self.originals:
            raise RuntimeError("tracer already installed")
        for where, attr, layer in WRAPPED:
            module = self.modules[where]
            fn = getattr(module, attr)
            self.originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, f"{layer}.{attr}", layer))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self.originals):
            setattr(module, attr, fn)
        self.originals.clear()

    @contextmanager
    def installed(self):
        """Fresh counters and spans, with the wrappers in place for the block."""
        self.reset()
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write_spans(self, path) -> None:
        """Write the recorded spans as JSON lines, one span per line."""
        keys = ("id", "parent", "name", "start", "end", "run")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span)), separators=(",", ":")))
                fh.write("\n")
