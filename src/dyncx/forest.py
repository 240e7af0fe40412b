"""Fully dynamic forest connectivity via Euler tour trees.

Each tree's Euler tour is kept as a treap over "arcs": one self-arc (v,v)
per vertex and a directed arc pair per tree edge, so a k-vertex tree owns
3k-2 arcs. Link rotates both tours to their endpoints and concatenates;
cut splits the tour around the arc pair. All paths from a public method
touch O(depth) treap nodes; priorities come from a seeded RNG, so probe
counts are reproducible and can be held to a per-operation budget.

Treap subtrees carry the minimum self-arc vertex id, which makes "smallest
node in this component" a root lookup.

`build` lays a whole greedy forest out in one pass (a DFS tour per tree,
treaps by Cartesian-tree construction). `tree_of`, `tree_vertices`,
`smaller_tree` and `smaller_side` are read-only tour walks for provers and
oracles searching a cut: they charge no meter and draw no priorities, so
the forest's own per-operation budgets and seeded shapes are untouched.
"""

from __future__ import annotations

import random

from .framework import DyncxError, ProbeMeter
from .oracles import UnionFind

INF = float("inf")


class WouldCycle(DyncxError):
    """Linking two vertices already in the same tree."""


class NotTreeEdge(DyncxError):
    """Cutting an edge the forest does not contain."""


class _Arc:
    __slots__ = ("u", "v", "prio", "left", "right", "parent", "size", "min_vertex")

    def __init__(self, u: int, v: int, prio: float):
        self.u = u
        self.v = v
        self.prio = prio
        self.left = None
        self.right = None
        self.parent = None
        self.size = 1
        self.min_vertex = u if u == v else INF

    def own_key(self):
        return self.u if self.u == self.v else INF


def _top(x: _Arc) -> _Arc:
    """Treap root above x; unmetered."""
    while x.parent is not None:
        x = x.parent
    return x


def _position(x: _Arc) -> int:
    """In-order position of x within its treap; unmetered."""
    pos = x.left.size if x.left is not None else 0
    while x.parent is not None:
        if x.parent.right is x:
            pos += 1 + (x.parent.left.size if x.parent.left is not None else 0)
        x = x.parent
    return pos


def _vertices(root: _Arc, lo: int, hi: int) -> list[int]:
    """Self-arc vertices at in-order positions lo..hi-1 of root's treap."""
    out = []
    stack = [(root, 0)]
    while stack:
        t, base = stack.pop()
        if t is None or base >= hi or base + t.size <= lo:
            continue
        pos = base + (t.left.size if t.left is not None else 0)
        if lo <= pos < hi and t.u == t.v:
            out.append(t.u)
        stack.append((t.left, base))
        stack.append((t.right, pos + 1))
    return out


def _cartesian(arcs: list[_Arc]) -> _Arc:
    """Treap over arcs in this in-order sequence, min priority on top, O(k)."""
    spine: list[_Arc] = []

    def close(x: _Arc):
        # x's subtrees are final once it leaves the right spine
        size, mn = 1, x.own_key()
        for c in (x.left, x.right):
            if c is not None:
                size += c.size
                if c.min_vertex < mn:
                    mn = c.min_vertex
        x.size = size
        x.min_vertex = mn

    for x in arcs:
        last = None
        while spine and spine[-1].prio > x.prio:
            last = spine.pop()
            close(last)
        x.left = last
        if last is not None:
            last.parent = x
        if spine:
            spine[-1].right = x
            x.parent = spine[-1]
        spine.append(x)
    root = spine[0]
    while spine:
        close(spine.pop())
    return root


class DynamicForest:
    def __init__(self, n: int, seed: int = 0, op_budget: int | None = None):
        if n < 0:
            raise ValueError("n must be nonnegative")
        self.n = n
        self._rng = random.Random(seed)
        self.meter = ProbeMeter(op_budget)
        self._self_arc = [_Arc(v, v, self._rng.random()) for v in range(n)]
        self._edge_arc: dict[tuple[int, int], _Arc] = {}
        self._edges = 0

    # -- treap plumbing ----------------------------------------------------

    def _pull(self, x: _Arc):
        self.meter.charge()
        size = 1
        mn = x.own_key()
        if x.left is not None:
            size += x.left.size
            if x.left.min_vertex < mn:
                mn = x.left.min_vertex
        if x.right is not None:
            size += x.right.size
            if x.right.min_vertex < mn:
                mn = x.right.min_vertex
        x.size = size
        x.min_vertex = mn

    def _root(self, x: _Arc) -> _Arc:
        while x.parent is not None:
            self.meter.charge()
            x = x.parent
        self.meter.charge()
        return x

    def _index(self, x: _Arc) -> int:
        """In-order position of x within its treap."""
        pos = x.left.size if x.left is not None else 0
        while x.parent is not None:
            self.meter.charge()
            if x.parent.right is x:
                pos += 1 + (x.parent.left.size if x.parent.left is not None else 0)
            x = x.parent
        return pos

    def _merge(self, a: _Arc | None, b: _Arc | None) -> _Arc | None:
        if a is None:
            return b
        if b is None:
            return a
        self.meter.charge()
        if a.prio < b.prio:
            right = self._merge(a.right, b)
            a.right = right
            right.parent = a
            self._pull(a)
            a.parent = None
            return a
        left = self._merge(a, b.left)
        b.left = left
        left.parent = b
        self._pull(b)
        b.parent = None
        return b

    def _split(self, t: _Arc | None, k: int):
        """First k arcs into the left result."""
        if t is None:
            return None, None
        self.meter.charge()
        left_size = t.left.size if t.left is not None else 0
        if k <= left_size:
            a, b = self._split(t.left, k)
            t.left = b
            if b is not None:
                b.parent = t
            self._pull(t)
            t.parent = None
            if a is not None:
                a.parent = None
            return a, t
        a, b = self._split(t.right, k - left_size - 1)
        t.right = a
        if a is not None:
            a.parent = t
        self._pull(t)
        t.parent = None
        if b is not None:
            b.parent = None
        return t, b

    def _reroot(self, v: int) -> _Arc:
        """Rotate v's tour to start at its self-arc; returns the treap root."""
        arc = self._self_arc[v]
        pos = self._index(arc)
        root = self._root(arc)
        a, b = self._split(root, pos)
        return self._merge(b, a)

    # -- public interface --------------------------------------------------

    def _check(self, v: int):
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")

    @property
    def edge_count(self) -> int:
        return self._edges

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._edge_arc

    def connected(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        self.meter.start_op()
        same = self._root(self._self_arc[u]) is self._root(self._self_arc[v])
        self.meter.end_op("connected")
        return same

    def link(self, u: int, v: int):
        self._check(u)
        self._check(v)
        if u == v:
            raise WouldCycle("self-loop")
        self.meter.start_op()
        if self._root(self._self_arc[u]) is self._root(self._self_arc[v]):
            self.meter.end_op("link")
            raise WouldCycle(f"{u} and {v} already connected")
        tour_u = self._reroot(u)
        tour_v = self._reroot(v)
        arc_uv = _Arc(u, v, self._rng.random())
        arc_vu = _Arc(v, u, self._rng.random())
        self._edge_arc[(u, v)] = arc_uv
        self._edge_arc[(v, u)] = arc_vu
        self._merge(self._merge(self._merge(tour_u, arc_uv), tour_v), arc_vu)
        self._edges += 1
        self.meter.end_op("link")

    def cut(self, u: int, v: int):
        if (u, v) not in self._edge_arc:
            raise NotTreeEdge(f"({u},{v}) is not a forest edge")
        self.meter.start_op()
        first = self._edge_arc[(u, v)]
        second = self._edge_arc[(v, u)]
        i = self._index(first)
        j = self._index(second)
        if i > j:
            first, second = second, first
            i, j = j, i
        root = self._root(first)
        a, rest = self._split(root, i)
        _, rest = self._split(rest, 1)  # drop the down arc
        mid, tail = self._split(rest, j - i - 1)
        _, c = self._split(tail, 1)  # drop the up arc
        self._merge(a, c)
        # mid stays as its own tour
        del self._edge_arc[(u, v)]
        del self._edge_arc[(v, u)]
        self._edges -= 1
        self.meter.end_op("cut")

    def build(self, edges):
        """Link, in order, each edge whose ends are still in different trees,
        in one O(n + len(edges)) pass; the forest must have no edges yet.

        The edge set, `tree_edges()` order and priority draws are those of
        calling `link` on the same edges in turn; only the order of each
        tour, and so the treap shapes, differ. Unmetered: this is preprocessing.
        """
        if self._edges:
            raise ValueError("build needs a forest without edges")
        uf = UnionFind(self.n)
        adj: list[list] = [[] for _ in range(self.n)]
        rand = self._rng.random
        for u, v in edges:
            self._check(u)
            self._check(v)
            if not uf.union(u, v):
                continue
            arc_uv = _Arc(u, v, rand())
            arc_vu = _Arc(v, u, rand())
            self._edge_arc[(u, v)] = arc_uv
            self._edge_arc[(v, u)] = arc_vu
            adj[u].append((v, arc_uv, arc_vu))
            adj[v].append((u, arc_vu, arc_uv))
            self._edges += 1
        seen = bytearray(self.n)
        for root in range(self.n):
            if seen[root] or not adj[root]:
                continue
            # Euler tour by DFS: down arc, the child's tour, up arc
            seen[root] = 1
            tour = [self._self_arc[root]]
            stack = [(iter(adj[root]), None)]
            while stack:
                children, up = stack[-1]
                for w, down, back in children:
                    if not seen[w]:
                        seen[w] = 1
                        tour.append(down)
                        tour.append(self._self_arc[w])
                        stack.append((iter(adj[w]), back))
                        break
                else:
                    stack.pop()
                    if up is not None:
                        tour.append(up)
            _cartesian(tour)

    def component_min(self, v: int) -> int:
        """Smallest vertex id in v's tree."""
        self._check(v)
        self.meter.start_op()
        mn = self._root(self._self_arc[v]).min_vertex
        self.meter.end_op("component_min")
        return int(mn)

    def component_size(self, v: int) -> int:
        self._check(v)
        self.meter.start_op()
        arcs = self._root(self._self_arc[v]).size
        self.meter.end_op("component_size")
        return (arcs + 2) // 3

    # -- unmetered tour walks -----------------------------------------------

    def tree_of(self, v: int) -> _Arc:
        """Identity of v's tree, to compare with `is`; valid until the next
        link or cut."""
        self._check(v)
        return _top(self._self_arc[v])

    def tree_vertices(self, v: int) -> list[int]:
        """The vertices of v's tree, in no set order."""
        root = self.tree_of(v)
        return _vertices(root, 0, root.size)

    def smaller_tree(self, u: int, v: int) -> list[int]:
        """The vertices of the smaller of u's and v's trees (u's on a tie)."""
        return self.tree_vertices(u if self.tree_of(u).size <= self.tree_of(v).size else v)

    def smaller_side(self, u: int, v: int) -> list[int]:
        """The vertices of the smaller side that `cut(u, v)` would leave,
        without cutting: the arcs strictly between the edge's two arcs form
        one side's tour, the rest of the tour the other's."""
        if (u, v) not in self._edge_arc:
            raise NotTreeEdge(f"({u},{v}) is not a forest edge")
        i = _position(self._edge_arc[(u, v)])
        j = _position(self._edge_arc[(v, u)])
        if i > j:
            i, j = j, i
        root = _top(self._edge_arc[(u, v)])
        inside = j - i - 1
        if inside <= root.size - inside - 2:
            return _vertices(root, i + 1, j)
        return _vertices(root, 0, i) + _vertices(root, j + 1, root.size)

    def tree_edges(self) -> list[tuple[int, int]]:
        return [(u, v) for (u, v) in self._edge_arc if u < v]

    def copy(self) -> "DynamicForest":
        dup = object.__new__(DynamicForest)
        dup.n = self.n
        dup._rng = random.Random()
        dup._rng.setstate(self._rng.getstate())
        dup.meter = ProbeMeter(self.meter.budget)
        dup._edges = self._edges
        mapping: dict[int, _Arc] = {}

        def clone(node: _Arc | None, parent: _Arc | None):
            if node is None:
                return None
            twin = _Arc(node.u, node.v, node.prio)
            twin.size = node.size
            twin.min_vertex = node.min_vertex
            twin.parent = parent
            twin.left = clone(node.left, twin)
            twin.right = clone(node.right, twin)
            mapping[id(node)] = twin
            return twin

        roots = {}
        for arc in self._self_arc:
            node = arc
            while node.parent is not None:
                node = node.parent
            roots[id(node)] = node
        for root in roots.values():
            clone(root, None)
        dup._self_arc = [mapping[id(arc)] for arc in self._self_arc]
        dup._edge_arc = {key: mapping[id(arc)] for key, arc in self._edge_arc.items()}
        return dup
