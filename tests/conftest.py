"""Shared random-instance generators. Everything is seeded by the caller."""

import random

import pytest

from dyncx.dnf import Clause, DnfInstance, FirstDnfInstance
from dyncx.equiv import AllWhiteInstance
from dyncx.connectivity import DynamicGraph


def rand_clause(rng: random.Random, n: int, w: int) -> Clause:
    k = rng.randint(1, max(1, min(w, n)))
    vs = rng.sample(range(n), k)
    return Clause(tuple((v, rng.random() < 0.5) for v in vs))


def rand_dnf(rng: random.Random, n_hi=6, m_hi=5, w=3, m_lo=0) -> DnfInstance:
    n = rng.randint(1, n_hi)
    m = rng.randint(m_lo, m_hi)
    w = min(w, n)
    clauses = [rand_clause(rng, n, w) for _ in range(m)]
    assignment = [rng.randint(0, 1) for _ in range(n)]
    return DnfInstance(n, clauses, assignment, w)


def rand_first_dnf(rng: random.Random, n_hi=6, m_hi=6, w=3) -> FirstDnfInstance:
    base = rand_dnf(rng, n_hi, m_hi, w, m_lo=1)
    order = list(range(len(base.clauses)))
    rng.shuffle(order)
    return FirstDnfInstance(base, order)


def rand_flip_stream(rng: random.Random, n: int, steps: int, query_rate=0.0):
    out = []
    for _ in range(steps):
        if query_rate and rng.random() < query_rate:
            out.append(("q",))
        else:
            out.append(("f", rng.randrange(n), rng.randint(0, 1)))
    return out


def rand_aw(rng: random.Random, l_hi=5, r_hi=5, l_lo=0, r_lo=0) -> AllWhiteInstance:
    nl = rng.randint(l_lo, l_hi)
    nr = rng.randint(r_lo, r_hi)
    pairs = [(l, r) for l in range(nl) for r in range(nr)]
    edges = sorted(rng.sample(pairs, rng.randint(0, len(pairs))))
    colors = [rng.random() < 0.5 for _ in range(nl)]
    return AllWhiteInstance(nl, nr, edges, colors)


def rand_color_stream(rng: random.Random, nl: int, steps: int, query_rate=0.1):
    out = []
    for _ in range(steps):
        if nl == 0 or rng.random() < query_rate:
            out.append(("q",))
        else:
            out.append(("c", rng.randrange(nl), rng.choice("WB")))
    return out


def rand_graph(rng: random.Random, n_hi=9, n_lo=2) -> DynamicGraph:
    n = rng.randint(n_lo, n_hi)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = set(rng.sample(pairs, rng.randint(0, len(pairs))))
    return DynamicGraph(n, edges)


def rand_edge_stream(rng: random.Random, graph: DynamicGraph, steps: int,
                     query_rate=0.1, delete_rate=0.5):
    """Edit stream consistent with the evolving edge set; an edit deletes a
    present edge with probability `delete_rate`."""
    n = graph.num_nodes
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    present = set(graph.edges)
    out = []
    for _ in range(steps):
        absent = [e for e in pairs if e not in present]
        if rng.random() < query_rate or (not present and not absent):
            out.append(("q",))
        elif present and (rng.random() < delete_rate or not absent):
            e = rng.choice(sorted(present))
            present.discard(e)
            out.append(("e", "-", e[0], e[1]))
        else:
            e = rng.choice(absent)
            present.add(e)
            out.append(("e", "+", e[0], e[1]))
    return out


@pytest.fixture
def rng():
    return random.Random(0xD15C0)
