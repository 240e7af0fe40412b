"""In-memory spans for the traced benchmark run.

A span records its name, start, end, parent span and op id. Spans nest in
call order, so a span's self time is its duration minus the durations of
the spans opened inside it. Totals per name cover every span; the span
records themselves are kept only while `keep` is set (the run's first pass,
which bounds memory on the million-op workloads) and are written out by
`dump` when the run ends.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.op = 0  # id of the op the next span belongs to; 0 is set-up
        self.keep = True
        self.records: list[list] = []  # [name, start, end, parent index, op]
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self._stack: list[list] = []  # [record index or -1, name, start, child ns]

    def begin(self, name: str):
        idx = -1
        if self.keep:
            idx = len(self.records)
            parent = self._stack[-1][0] if self._stack else -1
            self.records.append([name, 0, 0, parent, self.op])
        self._stack.append([idx, name, perf_counter_ns(), 0])

    def end(self):
        now = perf_counter_ns()
        idx, name, start, child_ns = self._stack.pop()
        dur = now - start
        self.total_ns[name] += dur
        self.self_ns[name] += dur - child_ns
        if self._stack:
            self._stack[-1][3] += dur
        if idx >= 0:
            rec = self.records[idx]
            rec[1], rec[2] = start, now

    def unwind(self):
        """Close every open span, after a call raised through them."""
        while self._stack:
            self.end()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    def dump(self, path):
        """Write kept spans as tab-separated `op name start end parent` lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tname\tstart_ns\tend_ns\tparent\n")
            for name, start, end, parent, op in self.records:
                fh.write(f"{op}\t{name}\t{start}\t{end}\t{parent}\n")
