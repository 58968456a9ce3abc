"""In-memory span tracer for the benchmark's traced run.

Functions are wrapped where their caller looks them up (a module global or
a class attribute), so the program itself is not modified. Each call
records a span ``(id, parent_id, name, start_ns, end_ns)`` and its self
time: its duration minus the time covered by its child spans. Spans are
kept in integer arrays, which the garbage collector does not scan, and are
aggregated only when the run ends, so that the wrapper stays cheap.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import time
from array import array
from collections import defaultdict

import numpy as np

FIELDS = ("id", "parent", "name", "start_ns", "end_ns", "self_ns")


class Tracer:
    """Collects spans and item counts while installed."""

    def __init__(self):
        self.names = []
        self.columns = {f: array("q") for f in FIELDS}
        self.items = defaultdict(int)
        self.keys = defaultdict(set)
        self._stack = []        # [span_id, child_ns] of the open spans
        self._ids = itertools.count()
        self._patched = []      # (owner, attr, original)

    def _wrap(self, name, fn, count):
        if name not in self.names:
            self.names.append(name)
        name_index = self.names.index(name)
        stack, ids, clock = self._stack, self._ids, time.perf_counter_ns
        appends = [self.columns[f].append for f in FIELDS]
        add_id, add_parent, add_name, add_start, add_end, add_self = appends

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(ids), 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                add_id(frame[0])
                add_parent(stack[-1][0] if stack else -1)
                add_name(name_index)
                add_start(start)
                add_end(end)
                add_self(duration - frame[1])
            if count is not None:
                count(self, name, args, kwargs, result)
            return result

        return traced

    def install(self, targets):
        """Wrap each ``(owner, attr)`` of every ``(name, owners, count)``
        target; ``count(tracer, name, args, kwargs, result)`` adds items."""
        for name, owners, count in targets:
            for owner, attr in owners:
                original = getattr(owner, attr)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, count))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def totals(self):
        """{name: (calls, total_ns, self_ns)} over all recorded spans."""
        col = {f: np.frombuffer(self.columns[f], dtype=np.int64)
               if len(self.columns[f]) else np.zeros(0, np.int64)
               for f in FIELDS}
        n = len(self.names)
        calls = np.bincount(col["name"], minlength=n)
        total = np.bincount(col["name"], col["end_ns"] - col["start_ns"],
                            minlength=n)
        own = np.bincount(col["name"], col["self_ns"], minlength=n)
        return {name: (int(calls[i]), float(total[i]), float(own[i]))
                for i, name in enumerate(self.names)}

    def write(self, path):
        """Write the spans as gzipped CSV, one line per span."""
        with gzip.open(path, "wt") as fh:
            fh.write(",".join(FIELDS) + "\n")
            for span_id, parent, name, start, end, own in zip(
                    *(self.columns[f] for f in FIELDS)):
                fh.write(f"{span_id},{parent},{self.names[name]},"
                         f"{start},{end},{own}\n")
