"""Dynamic graph connectivity protocols.

Every protocol, oracle and adversary reads its graph through one
`DynamicGraph`, which keeps each edge once, in its two endpoints'
neighbour sets; the (u, v) pairs are built from those sets only when a
reader asks for them (`edges`, `sorted_edges()`).

Three layers:

* `ConnVerifier`: keeps a forest F inside the graph. Insertions self-serve
  (link when acyclic, y=0). Deleting a tree edge cuts it, then asks the
  prover for a replacement edge; a valid one earns y=1, junk earns y=-1,
  the null proof y=0. The answer bit is x=1 iff F spans all N nodes, so a
  dishonest prover can only ever make the verifier LESS convinced.
* `SpanningForestProtocol`: drives a connectivity oracle over the graph
  plus a super node holding one edge per component representative, turning
  yes/no connectivity answers into an explicitly maintained spanning forest.
  Its default oracle, `ForestConnectivityOracle`, keeps its own spanning
  forest as plain adjacency sets; `RebuildConnectivityOracle` is the
  brute-force reference, kept for tests and perfbench's traced factory.
* `KconnVerifier`: one-round protocol for "is edge connectivity < k";
  the proof is a set of at most k-1 edges whose removal disconnects.

Every replacement search reads only the graph edges at the vertices of the
smaller side of the cut, O(vol(smaller side)) per forest-edge deletion.
Both honest provers make one search, `_smallest_replacement`, before the
cut: they find that side as Henzinger and King do, by walking its Euler
tour in the verifier's or protocol's uncut forest; the walks are unmetered
(`DynamicForest`'s tour walks), so prover work never lands on a verifier's
probe count. `ForestConnectivityOracle` has no Euler tour: it explores the
two trees the cut leaves side by side until one runs out, as in Even and
Shiloach's on-line edge deletion.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, insort
from dataclasses import dataclass

from .framework import (
    BOTTOM,
    BudgetExceeded,
    DyncxError,
    OUTPUTS,
    ParseError,
    UndecodableUpdate,
    VerifierOutput,
    decode_edge,
    decode_edge_set,
    encode_edge,
    encode_edge_set,
    env_budget,
    read_lines,
)
from .forest import DynamicForest
from . import oracles


class UnknownEdge(DyncxError):
    pass


class DuplicateEdge(DyncxError):
    pass


class DynamicGraph:
    """Undirected simple graph on a fixed node set.

    The edges are kept once, as neighbour sets: `adj[v]` holds v's
    neighbours, and (u, v) is an edge exactly when v is in `adj[u]` and u
    in `adj[v]`. `edges` and `sorted_edges()` build the (u, v), u < v,
    pairs from them on demand. Equality compares the node count and the
    neighbour sets. Vertices are 0-based, but error messages name them by
    the graph file's 1-based ids.
    """

    __slots__ = ("num_nodes", "adj")
    __hash__ = None

    def __init__(self, num_nodes: int, edges=()):
        self.num_nodes = num_nodes
        self.adj = adj = [set() for _ in range(num_nodes)]
        for u, v in edges:  # a repeated edge is dropped silently
            self._check(u, v)
            adj[u].add(v)
            adj[v].add(u)

    def _check(self, u: int, v: int):
        if u == v:
            raise ParseError("self-loops are not allowed")
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            raise ParseError(f"edge ({u + 1},{v + 1}) out of range")

    @property
    def edges(self) -> set[tuple[int, int]]:
        """The edges as (u, v) pairs with u < v, built on each read."""
        return {(u, v) for u, nbrs in enumerate(self.adj) for v in nbrs if u < v}

    def sorted_edges(self) -> list[tuple[int, int]]:
        """The edges as (u, v) pairs with u < v, in ascending order."""
        return sorted([(u, v) for u, nbrs in enumerate(self.adj) for v in nbrs if u < v])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.num_nodes == other.num_nodes and self.adj == other.adj

    def __repr__(self) -> str:
        return f"DynamicGraph(num_nodes={self.num_nodes!r}, edges={self.edges!r})"

    def has(self, u: int, v: int) -> bool:
        """Is (u, v) an edge? The membership test proof edges are checked
        by: out-of-range ids and loops are never edges."""
        return 0 <= u < self.num_nodes and v in self.adj[u]

    def insert(self, u: int, v: int):
        self._check(u, v)
        nbrs = self.adj[u]
        if v in nbrs:
            raise DuplicateEdge(f"edge ({min(u, v) + 1},{max(u, v) + 1}) already present")
        nbrs.add(v)
        self.adj[v].add(u)

    def delete(self, u: int, v: int):
        self._check(u, v)
        nbrs = self.adj[u]
        if v not in nbrs:
            raise UnknownEdge(f"edge ({min(u, v) + 1},{max(u, v) + 1}) not present")
        nbrs.remove(v)
        self.adj[v].remove(u)

    def copy(self) -> "DynamicGraph":
        dup = object.__new__(DynamicGraph)
        dup.num_nodes = self.num_nodes
        dup.adj = [set(nbrs) for nbrs in self.adj]
        return dup

    def apply(self, token):
        if token[0] == "e":
            _, sign, u, v = token
            if sign == "+":
                self.insert(u, v)
            else:
                self.delete(u, v)
        elif token[0] == "q":
            pass
        else:
            raise UndecodableUpdate(f"graph cannot apply {token!r}")


def _smallest_replacement(graph: DynamicGraph, forest: DynamicForest, u: int, v: int):
    """Smallest graph edge (a, b), a < b, other than (u, v), that mends
    cutting the forest edge (u, v), found before the cut; None if there is
    none.

    Walks the smaller side S the cut would leave and reads only the edges
    at S, in O(vol(S)) plus the walk: an edge mends the cut when it leads
    from S to the rest of u's tree. Tree membership is checked by identity,
    because a forest that is not maximal can have graph edges into a third
    tree.
    """
    side = forest.smaller_side(u, v)
    inside = set(side)
    tree = forest.tree_of(u)
    skip = (u, v) if u < v else (v, u)
    best = None
    for x in side:
        for y in graph.adj[x]:
            if y in inside:
                continue
            key = (x, y) if x < y else (y, x)
            if (best is None or key < best) and key != skip and forest.tree_of(y) is tree:
                best = key
    return best


# ---------------------------------------------------------------------------
# Connectivity verifier
# ---------------------------------------------------------------------------


class ConnVerifier:
    """x=1 iff the maintained forest has N-1 edges (a spanning tree), or the
    graph has no nodes.

    Proofs only matter when a tree edge is deleted: the null proof concedes
    (y=0); an edge e' earns y=1 when e' is a current graph edge that
    `link` accepts, joining two trees, else y=-1. The verifier cuts the
    deleted tree edge itself before reading the proof.
    """

    max_proof_len = 8

    def __init__(self, graph: DynamicGraph, forest_seed: int = 0, op_budget=None):
        self.graph = graph.copy()
        self.forest = DynamicForest(graph.num_nodes, forest_seed, op_budget)
        self.forest.build(self.graph.sorted_edges())

    def _x(self) -> int:
        # a forest has at most n - 1 edges, so `>=` differs from `==` only on
        # a graph with no nodes, which reads connected, as in `oracles`
        return 1 if self.forest.edge_count >= self.graph.num_nodes - 1 else 0

    def initial_output(self) -> VerifierOutput:
        return OUTPUTS[self._x()][0]

    def copy(self) -> "ConnVerifier":
        dup = object.__new__(ConnVerifier)
        dup.graph = self.graph.copy()
        dup.forest = self.forest.copy()
        return dup

    def proof_space(self, token) -> list[bytes]:
        return [BOTTOM] + [encode_edge(u, v) for u, v in self.graph.sorted_edges()]

    def step(self, token, proof: bytes) -> VerifierOutput:
        if token[0] == "q":
            return OUTPUTS[self._x()][0]
        if token[0] != "e":
            raise UndecodableUpdate(f"conn verifier cannot apply {token!r}")
        _, sign, u, v = token
        if sign == "+":
            self.graph.insert(u, v)
            self.forest.link(u, v)
            return OUTPUTS[self._x()][0]
        self.graph.delete(u, v)
        if not self.forest.has_edge(u, v):
            return OUTPUTS[self._x()][0]
        self.forest.cut(u, v)
        if proof == BOTTOM:
            return OUTPUTS[self._x()][0]
        try:
            a, b = decode_edge(proof)
        except ParseError:
            return OUTPUTS[self._x()][-1]
        y = 1 if self.graph.has(a, b) and self.forest.link(a, b) else -1
        return OUTPUTS[self._x()][y]


def honest_conn_prover(verifier: ConnVerifier, token) -> bytes:
    """Offer the smallest replacement edge that mends the pending cut.

    Provers speak before the verifier consumes the update, so the search
    (`_smallest_replacement`) reads the uncut forest, without touching the
    verifier's meter or RNG. That is what the reward maximizer picks: y=1
    beats y=0, and among y=1 candidates the enumeration order is ascending
    edge encoding.
    """
    if token[0] != "e" or token[1] != "-":
        return BOTTOM
    _, _, u, v = token
    forest = verifier.forest
    if not forest.has_edge(u, v):
        return BOTTOM
    edge = _smallest_replacement(verifier.graph, forest, u, v)
    return BOTTOM if edge is None else encode_edge(*edge)


def cycle_making_prover(verifier: ConnVerifier, token) -> bytes:
    """Adversarial: proposes an edge already inside one forest component,
    found by the forest's unmetered `tree_of`."""
    forest = verifier.forest
    for a, b in verifier.graph.sorted_edges():
        if forest.tree_of(a) is forest.tree_of(b):
            return encode_edge(a, b)
    return b"\x00" * 8


def ghost_edge_prover(verifier: ConnVerifier, token) -> bytes:
    """Adversarial: proposes node pairs that are not graph edges."""
    n = verifier.graph.num_nodes
    for a in range(n):
        for b in range(a + 1, n):
            if not verifier.graph.has(a, b):
                return encode_edge(a, b)
    return BOTTOM


# ---------------------------------------------------------------------------
# Spanning forest from a connectivity oracle
# ---------------------------------------------------------------------------


class RebuildConnectivityOracle:
    """Connectivity oracle over a mutable edge set; union-find per query.

    The brute-force reference, kept for tests and perfbench's traced factory.
    """

    def __init__(self, num_nodes: int, edges):
        self.num_nodes = num_nodes
        self.edges = {self._key(u, v) for u, v in edges}
        self.calls = 0

    @staticmethod
    def _key(u, v):
        return (u, v) if u < v else (v, u)

    def insert(self, u, v):
        self.calls += 1
        key = self._key(u, v)
        if key in self.edges:
            raise DuplicateEdge(f"oracle already has {key}")
        self.edges.add(key)

    def delete(self, u, v):
        self.calls += 1
        key = self._key(u, v)
        if key not in self.edges:
            raise UnknownEdge(f"oracle lacks {key}")
        self.edges.remove(key)

    def is_connected(self) -> bool:
        self.calls += 1
        return oracles.is_connected(self.num_nodes, self.edges)


class ForestConnectivityOracle:
    """Exact dynamic connectivity: a maximal spanning forest of the edge set
    and its component count, behind `RebuildConnectivityOracle`'s interface,
    `calls` count and exceptions.

    The forest is kept as tree-adjacency sets (`tree[v]`, v's neighbours in
    its tree) with one tree label per vertex (`label[v]`), so an insert
    inside a tree costs O(1). Deleting a tree edge explores the two trees
    it leaves side by side and searches the smaller one, S, for a graph
    edge to relink, in O(vol(S)): the forest is maximal, so any edge
    leaving S enters the other tree, and finding none proves a real split,
    which gives S a fresh label. An insert joining two trees relabels the
    smaller one, found the same way.
    """

    def __init__(self, num_nodes: int, edges):
        self.graph = DynamicGraph(num_nodes, edges)
        self.tree: list[set[int]] = [set() for _ in range(num_nodes)]
        uf = oracles.UnionFind(num_nodes)
        # any maximal forest is correct; in sorted order it is the greedy one
        # the protocol's `forest.build(graph.sorted_edges())` gives, so over a
        # spanning protocol's graph the oracle's tree edges start as the
        # protocol's and the searches of both fall on the same deletions
        for u, v in self.graph.sorted_edges():
            if uf.union(u, v):
                self.tree[u].add(v)
                self.tree[v].add(u)
        self.label = [uf.find(v) for v in range(num_nodes)]
        self.fresh = num_nodes  # the next unused label
        self.components = sum(1 for v in range(num_nodes) if self.label[v] == v)
        self.calls = 0

    def copy(self) -> "ForestConnectivityOracle":
        dup = object.__new__(ForestConnectivityOracle)
        dup.__dict__.update(self.__dict__, graph=self.graph.copy(), label=self.label.copy(),
                            tree=[set(nbrs) for nbrs in self.tree])
        return dup

    def _smaller_tree(self, a, b) -> set[int]:
        """The vertices of the smaller of a's and b's trees, which must
        differ: both are explored in turn, one tree edge each, until one
        runs out, so this costs O(size of the smaller tree)."""
        seen_a, seen_b = {a}, {b}
        walk_b = _explore(self.tree, b, seen_b)
        for _ in _explore(self.tree, a, seen_a):
            if not next(walk_b, False):
                return seen_b
        return seen_a

    def insert(self, u, v):
        self.calls += 1
        self.graph.insert(u, v)
        label = self.label
        if label[u] != label[v]:
            side = self._smaller_tree(u, v)
            new = label[v] if u in side else label[u]
            for x in side:
                label[x] = new
            self.tree[u].add(v)
            self.tree[v].add(u)
            self.components -= 1

    def delete(self, u, v):
        self.calls += 1
        self.graph.delete(u, v)
        tree = self.tree
        if v not in tree[u]:
            return
        tree[u].remove(v)
        tree[v].remove(u)
        side = self._smaller_tree(u, v)
        adj = self.graph.adj
        for x in side:
            for y in adj[x]:
                if y not in side:
                    tree[x].add(y)
                    tree[y].add(x)
                    return
        label = self.label
        for x in side:
            label[x] = self.fresh
        self.fresh += 1
        self.components += 1

    def is_connected(self) -> bool:
        self.calls += 1
        return self.components <= 1


def _explore(tree, root, seen):
    """Depth-first walk of root's tree, adding its vertices to `seen`;
    yields True once per tree edge it reads."""
    todo = [root]
    while todo:
        for y in tree[todo.pop()]:
            if y not in seen:
                seen.add(y)
                todo.append(y)
            yield True


@dataclass
class SpanningStep:
    step: int
    update: tuple | None
    valid: bool
    component_count: int
    forest_edges: list[tuple[int, int]]


class SpanningForestProtocol:
    """Maintains a spanning forest given only a dynamic connectivity oracle.

    The oracle watches G' = G plus a super node s with one edge to the
    smallest node of each component. A tree-edge deletion stays a single
    oracle connectivity query: still connected means the prover owes a
    replacement; disconnected means a genuine split and a fresh
    representative edge for the side that lost its old one.
    """

    def __init__(self, graph: DynamicGraph, oracle_factory=None, prover=None,
                 forest_seed: int = 0):
        self.graph = graph.copy()
        n = graph.num_nodes
        self.super_node = n  # G' lives on nodes 0..n
        self.forest = DynamicForest(n, forest_seed)
        edges = self.graph.sorted_edges()
        roots = self.forest.build(edges)
        # the forest's edges, kept sorted through every link and cut, and the
        # copy that reports hand out: the reports of steps that leave the
        # forest alone share one copy, and no later step changes it
        self._forest_edges = sorted(self.forest.tree_edges())
        self._reported_edges = None
        self.reps: set[int] = {root.min_vertex for root in roots}
        factory = oracle_factory or ForestConnectivityOracle
        self.oracle = factory(n + 1, edges + [(rep, self.super_node) for rep in self.reps])
        self.prover = prover or honest_replacement_prover
        self.desynced = False
        self.step_no = 0

    def report(self, update=None, valid=True) -> SpanningStep:
        if self._reported_edges is None:
            self._reported_edges = self._forest_edges.copy()
        return SpanningStep(
            self.step_no,
            update,
            valid and not self.desynced,
            len(self.reps),
            self._reported_edges,
        )

    def _link(self, u, v) -> bool:
        """Link (u, v) into the forest and its sorted edge list; False, with
        both left as they were, if u and v are already in one tree."""
        if not self.forest.link(u, v):
            return False
        insort(self._forest_edges, (u, v) if u < v else (v, u))
        self._reported_edges = None
        return True

    def _cut(self, u, v):
        self.forest.cut(u, v)
        del self._forest_edges[bisect_left(self._forest_edges, (u, v) if u < v else (v, u))]
        self._reported_edges = None

    def initial_report(self) -> SpanningStep:
        return self.report()

    def apply(self, token) -> SpanningStep:
        self.step_no += 1
        if token[0] not in ("e", "q"):
            raise UndecodableUpdate(f"spanning protocol cannot apply {token!r}")
        if self.desynced:
            # a broken replacement leaves reps and oracle edges untrusted;
            # freeze rather than corrupt them further
            return self.report(token, valid=False)
        if token[0] == "q":
            return self.report(token)
        _, sign, u, v = token
        if sign == "+":
            return self._insert(token, u, v)
        return self._delete(token, u, v)

    def _insert(self, token, u, v) -> SpanningStep:
        self.graph.insert(u, v)
        self.oracle.insert(u, v)
        if not self.forest.connected(u, v):
            rep_u = self.forest.component_min(u)
            rep_v = self.forest.component_min(v)
            loser = max(rep_u, rep_v)
            self._link(u, v)
            self.reps.discard(loser)
            self.oracle.delete(loser, self.super_node)
        return self.report(token)

    def _delete(self, token, u, v) -> SpanningStep:
        self.graph.delete(u, v)
        self.oracle.delete(u, v)
        if not self.forest.has_edge(u, v):
            return self.report(token)
        if self.oracle.is_connected():
            # a replacement exists somewhere; the prover must name it, and
            # reads the forest before the cut
            proposal = self.prover(self, (u, v))
            self._cut(u, v)
            self.desynced = not self._replacement_ok(proposal)
            return self.report(token)
        self._cut(u, v)
        # true split: the old representative was the tree's minimum, so the
        # smaller of the two sides' minima; the other side needs one
        new_rep = max(self.forest.component_min(u), self.forest.component_min(v))
        self.reps.add(new_rep)
        self.oracle.insert(new_rep, self.super_node)
        return self.report(token)

    def _replacement_ok(self, proposal) -> bool:
        """Link the proposal if it crosses the cut `_delete` just made; did
        it?

        In sync, the forest was a maximal spanning forest of G, so every
        graph edge had both ends in one tree. After the cut, the only graph
        edges with ends in different trees are therefore those that cross
        it; `_delete` has already taken the cut edge out of the graph."""
        return proposal is not None and self.graph.has(*proposal) and self._link(*proposal)


def honest_replacement_prover(protocol: SpanningForestProtocol, cut_edge):
    """The smallest graph edge between the two trees the pending cut of the
    forest edge `cut_edge` will leave, or None: the search
    `honest_conn_prover` makes, on the protocol's uncut forest."""
    return _smallest_replacement(protocol.graph, protocol.forest, *cut_edge)


def stubborn_replacement_prover(protocol: SpanningForestProtocol, cut_edge):
    """Adversarial: always proposes the edge that was just deleted."""
    return cut_edge


# ---------------------------------------------------------------------------
# (<k)-edge-connectivity verifier
# ---------------------------------------------------------------------------


class KconnVerifier:
    """One-round protocol for "is the graph's edge connectivity below k?".

    The proof names at most k-1 edges; the verifier deletes them, asks its
    oracle (whose graph is `self.graph`) once, and re-inserts them: 2|S|+1
    oracle touches, read off the oracle's `calls`, on top of the one that
    routes the step's own update.
    """

    def __init__(self, graph: DynamicGraph, k: int):
        if k < 1:
            raise ParseError("k must be >= 1")
        self.k = k
        self.conn = ForestConnectivityOracle(graph.num_nodes, graph.edges)
        self.graph = self.conn.graph

    @property
    def max_proof_len(self):
        return 8 * (self.k - 1)

    def initial_output(self) -> VerifierOutput:
        # preprocessing answers without a proof: unbounded time, direct check
        value, _ = mincut_bruteforce(self.graph)
        return OUTPUTS[1 if value < self.k else 0][0]

    def copy(self) -> "KconnVerifier":
        dup = object.__new__(KconnVerifier)
        dup.k = self.k
        dup.conn = self.conn.copy()
        dup.graph = dup.conn.graph
        return dup

    def proof_space(self, token) -> list[bytes]:
        """Null proof, then subsets of size < k of the edges after the pending
        update, smaller sets first, lexicographic within a size.

        BudgetExceeded, before anything is built, when the space holds more
        than env_budget() proofs."""
        pending = {tuple(sorted(token[2:]))} if token[0] == "e" else set()
        edges = sorted(self.graph.edges ^ pending)
        sizes = range(1, min(self.k, len(edges) + 1))
        total = 1 + sum(math.comb(len(edges), size) for size in sizes)
        budget = env_budget()
        if total > budget:
            raise BudgetExceeded(f"kconn proof space of {total} exceeds budget {budget}")
        space = [BOTTOM]
        for size in sizes:
            for combo in itertools.combinations(edges, size):
                space.append(encode_edge_set(combo))
        return space

    def step(self, token, proof: bytes) -> VerifierOutput:
        if token[0] == "e":
            _, sign, u, v = token
            (self.conn.insert if sign == "+" else self.conn.delete)(u, v)
        elif token[0] != "q":
            raise UndecodableUpdate(f"kconn verifier cannot apply {token!r}")
        try:
            s_edges = decode_edge_set(proof)
        except ParseError:
            return OUTPUTS[0][-1]
        if len(s_edges) > self.k - 1 or len(set(map(frozenset, s_edges))) != len(s_edges):
            return OUTPUTS[0][-1]
        for u, v in s_edges:
            # junk bytes can decode to arbitrary ids: malformed, not fatal
            if not self.graph.has(u, v):
                return OUTPUTS[0][-1]
        for u, v in s_edges:
            self.conn.delete(u, v)
        disconnected = not self.conn.is_connected()
        for u, v in s_edges:
            self.conn.insert(u, v)
        return OUTPUTS[1][1] if disconnected else OUTPUTS[0][0]


def mincut_bruteforce(graph: DynamicGraph, budget: int | None = None):
    """Global minimum edge cut: unit-capacity max-flow from node 0 to each
    other node. Returns (value, witness edge set); (0, empty) when already
    disconnected, and (inf, empty) below two nodes, where there is no cut.

    Its work, (n - 1) * (n + m) for the n - 1 flows over n nodes and m
    edges, must stay within `budget` (`env_budget()` when not given)."""
    n = graph.num_nodes
    if n < 2:
        return math.inf, set()
    budget = env_budget() if budget is None else budget
    work = (n - 1) * (n + sum(map(len, graph.adj)) // 2)
    if work > budget:
        raise BudgetExceeded(f"mincut work (n-1)(n+m) = {work} exceeds budget {budget}")
    edges = graph.edges
    caps: dict[tuple[int, int], int] = {}
    for u, v in edges:
        caps[(u, v)] = caps[(v, u)] = 1
    best_value, best_side = None, None
    for t in range(1, n):
        value, side = oracles.max_flow(n, caps, 0, t)
        if best_value is None or value < best_value:
            best_value, best_side = value, side
            if best_value == 0:
                break
    witness = {(u, v) for u, v in edges if (u in best_side) != (v in best_side)}
    return best_value, witness


def mincut_oracle_prover(verifier: KconnVerifier, token) -> bytes:
    """Honest prover: a witness cut when connectivity < k, else no proof."""
    graph = verifier.graph.copy()
    graph.apply(token)
    value, witness = mincut_bruteforce(graph)
    if value < verifier.k:
        return encode_edge_set(sorted(witness))
    return BOTTOM


def oversized_proof_prover(verifier: KconnVerifier, token) -> bytes:
    """Adversarial: ships k (or more) edges, which must be rejected."""
    return encode_edge_set(verifier.graph.sorted_edges()[: verifier.k])


# ---------------------------------------------------------------------------
# Graph file format: `p graph <N>`, `e <u> <v>` lines (1-based), optional
# `k <bound>` line for k-connectivity runs.
# ---------------------------------------------------------------------------


def parse_graph(text: str) -> tuple[DynamicGraph, int | None]:
    graph = None
    k = None

    def start(counts):
        nonlocal graph
        graph = DynamicGraph(counts[0])

    def line(parts, _):
        nonlocal k
        if parts[0] == "e":
            # range, self-loop and repeat checks name the line
            graph.insert(int(parts[1]) - 1, int(parts[2]) - 1)
        elif parts[0] == "k":
            k = int(parts[1])
        else:
            raise ParseError("unknown line")

    read_lines(text, line, ("graph", 1), on_header=start)
    return graph, k


def format_graph(graph: DynamicGraph, k: int | None = None) -> str:
    out = [f"p graph {graph.num_nodes}"]
    if k is not None:
        out.append(f"k {k}")
    out += [f"e {u + 1} {v + 1}" for u, v in graph.sorted_edges()]
    return "\n".join(out) + "\n"
