"""Host-speed adjustment of measured times.

The benchmark's host is a small virtual machine whose other tenants slow
every process, by up to half and more, from one hundredth of a second to the
next and for minutes at a time; the process's CPU time slows with its wall
time, so no clock leaves that out. A run therefore also times a fixed
pure-Python reference task, which never calls dyncx, every `INTERVAL_S`
seconds between ops (untimed), and multiplies every time it reports by one
factor: `NOMINAL_NS` over the reference's mean time over the run. A time so
adjusted reads what it would on a host where the reference takes
`NOMINAL_NS`; the program's own speed still moves it in full, because the
reference does not depend on the program. One factor per run, rather than
one per op, leaves the spread of op times as measured: the host changes
speed faster than ops can be matched to the nearest sample.

The collector is switched off while the reference runs, so garbage the
program left behind cannot slow the reference and so shrink the program's
times.
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter_ns

NOMINAL_NS = 1_000_000  # about the reference's time on a 2-vCPU VM, Python 3.11
INTERVAL_S = 0.2
REPEATS = 3  # reference runs per measurement; their median is kept

_rng = random.Random(20010336)
_NODES = 300
_EDGES = [tuple(sorted(_rng.sample(range(_NODES), 2))) for _ in range(900)]


class _Node:
    __slots__ = ("key", "weight")

    def __init__(self, key, weight):
        self.key = key
        self.weight = weight


def reference_task() -> int:
    """Dict, set, list, small-object and integer work, like the pipelines'."""
    adj: dict[int, set[int]] = {}
    for u, v in _EDGES:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    seen: set[int] = set()
    components = 0
    for s in range(_NODES):
        if s in seen:
            continue
        components += 1
        stack = [s]
        seen.add(s)
        while stack:
            x = stack.pop()
            for y in adj.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    parent = list(range(_NODES))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in _EDGES:
        a, b = find(u), find(v)
        if a != b:
            parent[a] = b
    nodes = [_Node(u, (u * 7919 + v) % 1009) for u, v in _EDGES]
    nodes.sort(key=lambda n: n.weight)
    return components + sum(n.weight for n in nodes[:50])


class HostSpeed:
    """Reference times sampled through a run, and the factor they give."""

    def __init__(self):
        self.interval_ns = int(INTERVAL_S * 1e9)
        self.reference_ns: list[int] = []  # every measurement of the run
        self.measure()

    def factor(self) -> float:
        """What the run's measured times are multiplied by."""
        return NOMINAL_NS / statistics.fmean(self.reference_ns)

    def measure(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(REPEATS):
                t0 = perf_counter_ns()
                reference_task()
                times.append(perf_counter_ns() - t0)
        finally:
            if enabled:
                gc.enable()
        self.reference_ns.append(statistics.median(times))
        self.due = perf_counter_ns() + self.interval_ns

    def tick(self):
        """Re-measure if the interval has passed; call only between timed regions."""
        if perf_counter_ns() >= self.due:
            self.measure()
