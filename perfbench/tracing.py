"""In-memory spans around the benchmark's calls into the package.

A span records a name of the form ``<module>.<call>``, its start and end on
the ``perf_counter`` clock, the span that was open when it started, and the
instance it belongs to.  Spans stay in memory until ``write`` dumps them as
JSON lines.  A span's self time is its duration minus the durations of its
direct children, which never overlap because the benchmark is sequential.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class NullTracer:
    """Tracer of the untraced runs: every span is a no-op."""

    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null


class Tracer:
    def __init__(self):
        self.spans = []        # [id, parent, instance, name, start, end]
        self._stack = []
        self.instance = None

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), parent, self.instance, name,
                  time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    def self_seconds(self):
        """Total self time per span name, in seconds."""
        child = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, _, _, name, start, end in self.spans:
            out[name] += end - start - child[sid]
        return dict(out)

    def total_seconds(self, name):
        """Summed duration of every span with this name."""
        return sum(end - start for _, _, _, n, start, end in self.spans
                   if n == name)

    def write(self, path):
        keys = ("id", "parent", "instance", "name", "start", "end")
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")
