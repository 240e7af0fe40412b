"""Seeded input generators for the benchmark workloads.

Every generator draws only from its own `random.Random(seed)`, where the
seed string names the workload, the run's seed and the pass, and returns
the inputs as text in the repository's file formats (`p dnf`, `p graph`,
DIMACS CNF and update lines), together with the generator's own record of
the start state and of each update, from which the correctness gate works
out the true answers. Nothing here imports dyncx: deletions come from the
generator's own edge set and toggles from its own copy of the assignment,
so a change to which forest or which replacement edge the program keeps
leaves the inputs unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass
class DnfInputs:
    """Positive width-3 DNF plus a toggle stream.

    `clauses` are 0-based variable triples; `assignment` is the initial
    assignment; `updates` are (var, bit) toggles or None for a `q` line.
    """

    text: str
    updates_text: str
    num_vars: int
    clauses: list[tuple[int, ...]]
    assignment: list[int]
    updates: list[tuple[int, int] | None]


@dataclass
class GraphInputs:
    """Initial graph plus an edit stream.

    `updates` are ("+"|"-", u, v) with 0-based nodes and u < v, or None for
    a `q` line.
    """

    text: str
    updates_text: str
    num_nodes: int
    edges: list[tuple[int, int]]
    updates: list[tuple[str, int, int] | None]


@dataclass
class SatInputs:
    """Independent random 3-CNF instances; clauses use signed 1-based literals."""

    texts: list[str]
    num_vars: int
    instances: list[list[tuple[int, ...]]]


def sparse_dnf(seed: str, num_vars: int, num_clauses: int, num_updates: int,
               query_rate: float = 0.1) -> DnfInputs:
    """Sparse ones, so that few clauses hold and the answer keeps changing.

    With ones at density 0.9 * m^(-1/3), about 0.7 clauses hold on average
    and the answer is 1 about half the time. Toggles keep the number of ones
    at its start value: a toggle turns a one off while there are too many
    and a zero on while there are too few, so the density does not drift.
    """
    rng = random.Random(seed)
    n, m = num_vars, num_clauses
    target = max(3, round(0.9 * m ** (-1 / 3) * n))
    ones = rng.sample(range(n), target)
    assignment = [0] * n
    for v in ones:
        assignment[v] = 1
    clauses = [tuple(rng.sample(range(n), 3)) for _ in range(m)]
    start = list(assignment)

    updates: list[tuple[int, int] | None] = []
    for _ in range(num_updates):
        if rng.random() < query_rate:
            updates.append(None)
            continue
        turn_off = len(ones) > target or (len(ones) == target and rng.random() < 0.5)
        if turn_off:
            k = rng.randrange(len(ones))
            var = ones[k]
            last = ones.pop()
            if last != var:
                ones[k] = last
            assignment[var] = 0
        else:
            var = rng.randrange(n)
            while assignment[var]:
                var = rng.randrange(n)
            ones.append(var)
            assignment[var] = 1
        updates.append((var, assignment[var]))

    lines = [f"p dnf {n} {m} 3"]
    lines += [f"{a + 1} {b + 1} {c + 1} 0" for a, b, c in clauses]
    lines.append("a " + " ".join(map(str, start)))
    return DnfInputs(
        text="\n".join(lines) + "\n",
        updates_text=_lines("q" if u is None else f"f {u[0] + 1} {u[1]}" for u in updates),
        num_vars=n,
        clauses=clauses,
        assignment=start,
        updates=updates,
    )


def random_graph(seed: str, num_nodes: int, num_edges: int, num_updates: int,
                 insert_rate: float, query_rate: float) -> GraphInputs:
    """Uniform random simple graph, then edits.

    Each update is an insert of a uniform non-edge with probability
    `insert_rate`, a `q` line with probability `query_rate`, and otherwise
    the deletion of an edge drawn uniformly from the current edge set.
    """
    rng = random.Random(seed)
    n = num_nodes
    edges: list[tuple[int, int]] = []
    where: dict[tuple[int, int], int] = {}

    def add(u, v):
        key = (u, v) if u < v else (v, u)
        where[key] = len(edges)
        edges.append(key)
        return key

    def remove_at(k):
        key = edges[k]
        last = edges.pop()
        if last != key:
            edges[k] = last
            where[last] = k
        del where[key]
        return key

    def non_edge():
        while True:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and ((u, v) if u < v else (v, u)) not in where:
                return u, v

    while len(edges) < num_edges:
        add(*non_edge())
    start = list(edges)

    updates: list[tuple[str, int, int] | None] = []
    for _ in range(num_updates):
        r = rng.random()
        if r < insert_rate:
            updates.append(("+",) + add(*non_edge()))
        elif r < insert_rate + query_rate:
            updates.append(None)
        else:
            updates.append(("-",) + remove_at(rng.randrange(len(edges))))

    return GraphInputs(
        text=_lines([f"p graph {n}"] + [f"e {u + 1} {v + 1}" for u, v in start]),
        updates_text=_lines(
            "q" if u is None else f"e {u[0]} {u[1] + 1} {u[2] + 1}" for u in updates
        ),
        num_nodes=n,
        edges=start,
        updates=updates,
    )


def random_3cnf(seed: str, count: int, num_vars: int, ratio: float = 4.26) -> SatInputs:
    """`count` random 3-CNF instances near the satisfiability threshold."""
    rng = random.Random(seed)
    m = round(ratio * num_vars)
    instances, texts = [], []
    for _ in range(count):
        clauses = [
            tuple(v + 1 if rng.random() < 0.5 else -(v + 1)
                  for v in rng.sample(range(num_vars), 3))
            for _ in range(m)
        ]
        instances.append(clauses)
        texts.append(_lines([f"p cnf {num_vars} {m}"]
                            + [" ".join(map(str, c)) + " 0" for c in clauses]))
    return SatInputs(texts=texts, num_vars=num_vars, instances=instances)


def _lines(rows) -> str:
    return "".join(row + "\n" for row in rows)
