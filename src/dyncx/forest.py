"""Fully dynamic forest connectivity via Euler tour trees.

Each tree's Euler tour is kept as a treap over "arcs": one self-arc (v,v)
per vertex and a directed arc pair per tree edge, so a k-vertex tree owns
3k-2 arcs. Link rotates both tours to their endpoints and concatenates;
cut splits the tour around the arc pair. All paths from a public method
touch O(depth) treap nodes; priorities come from a seeded RNG, so probe
counts are reproducible and can be held to a per-operation budget.

Treap subtrees carry their size and the minimum self-arc vertex id, which
makes "smallest node in this component" a root lookup. Merge refreshes
both on the way down its path. Every split is made at a known arc, a
self-arc for a link's rotation and each edge arc for a cut, so it is one
walk up from that arc, dealing each ancestor to one side and refreshing
it as it goes; cut's form also drops the arc. Each walk is charged the
nodes the top-down split (and pop) at that arc's position would walk.
Only cut's order test and `smaller_side` compute a position; every other
root lookup climbs for the root and depth alone.

`link` reports whether it joined two trees: it returns False, after the
same two root lookups, when its ends already share one (or are one
vertex), so a caller asks "same tree?" and links in one call.

`build` lays a whole greedy forest out in one pass (a DFS tour per tree,
treaps by Cartesian-tree construction). `tree_of` and `smaller_side` are
read-only tour walks for provers searching a cut: they charge no meter
and draw no priorities, so the forest's own per-operation budgets and
seeded shapes are untouched.
"""

from __future__ import annotations

import itertools
import random
import sys

from .framework import DyncxError, ProbeMeter
from .oracles import UnionFind

INF = sys.maxsize  # the minimum over no self-arc; above every vertex id


class NotTreeEdge(DyncxError):
    """Cutting an edge the forest does not contain."""


class _Arc:
    __slots__ = ("u", "v", "own", "prio", "left", "right", "parent", "size", "min_vertex")

    def __init__(self, u: int, v: int, prio: float):
        self.u = u
        self.v = v
        self.own = u if u == v else INF  # this arc's own part of min_vertex
        self.prio = prio
        self.left = None
        self.right = None
        self.parent = None
        self.size = 1
        self.min_vertex = self.own


def _pull_up(x: _Arc | None, stop: _Arc | None = None):
    """Recompute subtree sizes and minimum self-arc vertex ids from x up the
    parent chain, each node from its children, stopping before `stop`."""
    while x is not stop:
        size = 1
        mn = x.own
        left = x.left
        if left is not None:
            size += left.size
            if left.min_vertex < mn:
                mn = left.min_vertex
        right = x.right
        if right is not None:
            size += right.size
            if right.min_vertex < mn:
                mn = right.min_vertex
        x.size = size
        x.min_vertex = mn
        x = x.parent


def _top(x: _Arc) -> _Arc:
    """Treap root above x; unmetered."""
    while x.parent is not None:
        x = x.parent
    return x


def _root_depth(x: _Arc) -> tuple[_Arc, int]:
    """(treap root, depth) of x, in one upward walk."""
    depth = 0
    up = x.parent
    while up is not None:
        x = up
        up = x.parent
        depth += 1
    return x, depth


def _climb(x: _Arc) -> tuple[_Arc, int, int]:
    """(treap root, depth, in-order position) of x, in one upward walk."""
    pos = x.left.size if x.left is not None else 0
    depth = 0
    up = x.parent
    while up is not None:
        if up.right is x:
            pos += 1 if up.left is None else 1 + up.left.size
        x = up
        up = x.parent
        depth += 1
    return x, depth, pos


def _walk(x: _Arc, end: _Arc) -> list[int]:
    """Self-arc vertices strictly after x and before end in their tour,
    read cyclically: past the last arc the walk goes on from the first. With
    end x itself, that is every vertex but x's own.

    Each step goes to the in-order successor, so the walk costs O(depth)
    plus O(1) per arc passed, amortized."""
    out = []
    while True:
        if x.right is not None:
            x = x.right
            while x.left is not None:
                x = x.left
        else:
            while True:
                up = x.parent
                if up is None:
                    # past the tour's last arc: go on from its first
                    while x.left is not None:
                        x = x.left
                    break
                if up.left is x:
                    x = up
                    break
                x = up
        if x is end:
            return out
        if x.u == x.v:
            out.append(x.u)


def _cartesian(arcs: list[_Arc]) -> _Arc:
    """Treap over arcs in this in-order sequence, min priority on top, O(k)."""
    spine: list[_Arc] = []
    for x in arcs:
        last = None
        while spine and spine[-1].prio > x.prio:
            last = spine.pop()
            # its subtrees are final once it leaves the right spine, so it
            # is refreshed from its two children, as `_pull_up` would
            size = 1
            mn = last.own
            child = last.left
            if child is not None:
                size += child.size
                if child.min_vertex < mn:
                    mn = child.min_vertex
            child = last.right
            if child is not None:
                size += child.size
                if child.min_vertex < mn:
                    mn = child.min_vertex
            last.size = size
            last.min_vertex = mn
        x.left = last
        if last is not None:
            last.parent = x
        if spine:
            spine[-1].right = x
            x.parent = spine[-1]
        spine.append(x)
    _pull_up(spine[-1])
    return spine[0]


def _split_at(x: _Arc, drop: bool = False):
    """(the arcs before x, x and the arcs after it) of x's treap, and the
    number of nodes the top-down split at x's position would walk; with
    drop, x is taken out of the right part, and the count adds the nodes
    popping it off that part's front would walk.

    One walk from x to the root deals each ancestor to the left result if x
    lay in its right subtree, else to the right one, relinked above the
    share dealt so far with its other subtree kept. That is the shape the
    top-down split builds, which a treap's order and priorities fix anyway
    (Seidel and Aragon, 1996). Each ancestor's size and minimum are set as
    it is dealt, from its two final children.

    The top-down split walks x's ancestors, x, and the right spine of
    x.left, down which its last steps go; the pop walks the ancestors dealt
    right, x, and the left spine of x.right, which takes x's place.
    """
    walked = 1
    left = x.left
    if left is None:
        left_size, left_min = 0, INF
    else:
        left_size, left_min = left.size, left.min_vertex
        t = left
        while t is not None:
            walked += 1
            t = t.right
    if drop:
        right = x.right
        walked += 1
        t = right
        while t is not None:
            walked += 1
            t = t.left
        if right is None:
            right_size, right_min = 0, INF
        else:
            right_size, right_min = right.size, right.min_vertex
        right_step = 2  # an ancestor dealt right is walked again by the pop
    else:
        right = x
        x.left = None
        right_size = x.size - left_size
        right_min = x.own
        t = x.right
        if t is not None and t.min_vertex < right_min:
            right_min = t.min_vertex
        x.size = right_size
        x.min_vertex = right_min
        right_step = 1
    child = x
    up = x.parent
    while up is not None:
        above = up.parent
        if up.left is child:
            walked += right_step
            up.left = right
            if right is not None:
                right.parent = up
            right_size += 1
            if up.own < right_min:
                right_min = up.own
            t = up.right
            if t is not None:
                right_size += t.size
                if t.min_vertex < right_min:
                    right_min = t.min_vertex
            up.size = right_size
            up.min_vertex = right_min
            right = up
        else:
            walked += 1
            up.right = left
            if left is not None:
                left.parent = up
            left_size += 1
            if up.own < left_min:
                left_min = up.own
            t = up.left
            if t is not None:
                left_size += t.size
                if t.min_vertex < left_min:
                    left_min = t.min_vertex
            up.size = left_size
            up.min_vertex = left_min
            left = up
        child = up
        up = above
    if left is not None:
        left.parent = None
    if right is not None:
        right.parent = None
    return left, right, walked


def _merge(a: _Arc | None, b: _Arc | None):
    """Treap of a's arcs followed by b's, and the number of nodes on the path
    merge walked down.

    The lower priority of the two current roots goes on the path; a node
    from a keeps its left subtree and merges on to its right, a node from b
    the mirror image. Either way the node gains the other side's untouched
    remainder below it, so its size and minimum are refreshed top-down, as
    it joins the path, with no pass back up. The path alternates between
    runs down a's right spine and b's left spine; nodes within a run are
    already linked, so only a run's first node is relinked.
    """
    if a is None:
        return b, 0
    if b is None:
        return a, 0
    walked = 0
    root = a if a.prio < b.prio else b
    prev = None
    while True:
        if a.prio < b.prio:
            if prev is not None:
                prev.left = a
            a.parent = prev
            size, mn, prio = b.size, b.min_vertex, b.prio
            while True:
                walked += 1
                a.size += size
                if mn < a.min_vertex:
                    a.min_vertex = mn
                below = a.right
                if below is None:
                    a.right = b
                    b.parent = a
                    return root, walked
                if below.prio >= prio:
                    break
                a = below
            prev, a = a, below
        else:
            if prev is not None:
                prev.right = b
            b.parent = prev
            size, mn, prio = a.size, a.min_vertex, a.prio
            while True:
                walked += 1
                b.size += size
                if mn < b.min_vertex:
                    b.min_vertex = mn
                below = b.left
                if below is None:
                    b.left = a
                    a.parent = b
                    return root, walked
                if prio < below.prio:
                    break
                b = below
            prev, b = b, below


def _rotate(x: _Arc):
    """x's tour rotated to start at x, and the number of nodes its split and
    merge walked."""
    a, b, split_nodes = _split_at(x)
    tour, merge_nodes = _merge(b, a)
    return tour, split_nodes + merge_nodes


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

    def __del__(self):
        # arcs point both ways; without the upward links a dropped forest is
        # freed at once rather than left for the cyclic collector
        for arc in getattr(self, "_self_arc", ()):
            arc.parent = None
        for arc in getattr(self, "_edge_arc", {}).values():
            arc.parent = None

    # -- public interface --------------------------------------------------
    #
    # Probe accounting: a root lookup from x costs depth(x) + 1, a position
    # lookup depth(x), and a split or merge 2 per node on its path (the visit
    # and the size/minimum refresh); a split at an arc is charged the path
    # of the top-down split at its position, and an arc drop that of the
    # one-arc split it stands for. Each operation sums its probes and adds
    # them to the meter once, before `end_op` checks the budget.

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
        meter = self.meter
        meter.start_op()
        root_u, depth_u = _root_depth(self._self_arc[u])
        root_v, depth_v = _root_depth(self._self_arc[v])
        meter.count += depth_u + depth_v + 2
        meter.end_op("connected")
        return root_u is root_v

    def link(self, u: int, v: int) -> bool:
        """Join u's tree to v's by the edge (u, v): True if it did, False,
        leaving the forest as it was, if u and v are already in one tree."""
        self._check(u)
        self._check(v)
        if u == v:
            return False
        meter = self.meter
        meter.start_op()
        arc_u = self._self_arc[u]
        arc_v = self._self_arc[v]
        root_u, depth_u = _root_depth(arc_u)
        root_v, depth_v = _root_depth(arc_v)
        probes = depth_u + depth_v + 2
        if root_u is root_v:
            meter.count += probes
            meter.end_op("link")
            return False
        # rotate each tour to start at its endpoint; the trees differ, so
        # rotating u's leaves v's walk valid. Each rotation is charged the
        # position and root lookups it rests on.
        tour_u, nodes_u = _rotate(arc_u)
        tour_v, nodes_v = _rotate(arc_v)
        arc_uv = _Arc(u, v, self._rng.random())
        arc_vu = _Arc(v, u, self._rng.random())
        self._edge_arc[(u, v)] = arc_uv
        self._edge_arc[(v, u)] = arc_vu
        tour, m1 = _merge(tour_u, arc_uv)
        tour, m2 = _merge(tour, tour_v)
        _, m3 = _merge(tour, arc_vu)
        self._edges += 1
        meter.count += (probes + 2 * (depth_u + depth_v + 1)
                        + 2 * (nodes_u + nodes_v + m1 + m2 + m3))
        meter.end_op("link")
        return True

    def cut(self, u: int, v: int):
        if (u, v) not in self._edge_arc:
            raise NotTreeEdge(f"({u},{v}) is not a forest edge")
        meter = self.meter
        meter.start_op()
        down = self._edge_arc[(u, v)]
        up = self._edge_arc[(v, u)]
        _, depth_i, i = _climb(down)
        _, depth_j, j = _climb(up)
        if i > j:
            down, up = up, down
            depth_i, depth_j = depth_j, depth_i
        # two position lookups, then the root lookup from the earlier arc
        probes = depth_i + depth_j + depth_i + 1
        a, _, s1 = _split_at(down, drop=True)
        _, c, s2 = _split_at(up, drop=True)  # the inside stays as its own tour
        _, m = _merge(a, c)
        del self._edge_arc[(u, v)]
        del self._edge_arc[(v, u)]
        self._edges -= 1
        meter.count += probes + 2 * (s1 + s2 + m)
        meter.end_op("cut")

    def build(self, edges) -> list[_Arc]:
        """Link, in order, each edge whose ends are still in different trees,
        in one O(n + len(edges)) pass; the forest must have no edges yet.
        Returns each tree's treap root, a lone vertex's self-arc included,
        in order of the trees' smallest vertices; a root's `min_vertex` is
        its tree's smallest vertex.

        The edge set, `tree_edges()` order and priority draws are those of
        calling `link` on the same edges in turn; only the order of each
        tour, and so the treap shapes, differ. Unmetered: this is preprocessing.
        """
        if self._edges:
            raise ValueError("build needs a forest without edges")
        n = self.n
        union = UnionFind(n).union
        adj: list[list] = [[] for _ in range(n)]
        rand = self._rng.random
        edge_arc = self._edge_arc
        for u, v in edges:
            # `_check`'s range test, inline
            if not 0 <= u < n:
                raise ValueError(f"vertex {u} out of range")
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range")
            if not union(u, v):
                continue
            arc_uv = _Arc(u, v, rand())
            arc_vu = _Arc(v, u, rand())
            edge_arc[(u, v)] = arc_uv
            edge_arc[(v, u)] = arc_vu
            adj[u].append((v, arc_uv, arc_vu))
            adj[v].append((u, arc_vu, arc_uv))
            self._edges += 1
        roots = []
        seen = bytearray(self.n)
        for start in range(self.n):
            if seen[start]:
                continue
            if not adj[start]:
                roots.append(self._self_arc[start])
                continue
            # Euler tour by DFS: down arc, the child's tour, up arc
            seen[start] = 1
            tour = [self._self_arc[start]]
            stack = [(iter(adj[start]), None)]
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
            roots.append(_cartesian(tour))
        return roots

    def component_min(self, v: int) -> int:
        """Smallest vertex id in v's tree."""
        self._check(v)
        meter = self.meter
        meter.start_op()
        root, depth = _root_depth(self._self_arc[v])
        meter.count += depth + 1
        meter.end_op("component_min")
        return root.min_vertex

    def component_size(self, v: int) -> int:
        self._check(v)
        meter = self.meter
        meter.start_op()
        root, depth = _root_depth(self._self_arc[v])
        meter.count += depth + 1
        meter.end_op("component_size")
        return (root.size + 2) // 3

    # -- unmetered tour walks -----------------------------------------------

    def tree_of(self, v: int) -> _Arc:
        """Identity of v's tree, to compare with `is`; valid until the next
        link or cut."""
        self._check(v)
        return _top(self._self_arc[v])

    def smaller_side(self, u: int, v: int) -> list[int]:
        """The vertices of the smaller side that `cut(u, v)` would leave,
        without cutting: the arcs strictly between the edge's two arcs form
        one side's tour, the rest of the tour, read on from the later arc
        round to the earlier one, the other's."""
        if (u, v) not in self._edge_arc:
            raise NotTreeEdge(f"({u},{v}) is not a forest edge")
        down = self._edge_arc[(u, v)]
        up = self._edge_arc[(v, u)]
        root, _, i = _climb(down)
        j = _climb(up)[2]
        if i > j:
            down, up, i, j = up, down, j, i
        inside = j - i - 1
        if inside <= root.size - inside - 2:
            return _walk(down, up)
        return _walk(up, down)

    def tree_edges(self) -> list[tuple[int, int]]:
        return [(u, v) for (u, v) in self._edge_arc if u < v]

    def copy(self) -> "DynamicForest":
        dup = object.__new__(DynamicForest)
        dup.n = self.n
        dup._rng = random.Random()
        dup._rng.setstate(self._rng.getstate())
        dup.meter = ProbeMeter(self.meter.budget)
        dup._edges = self._edges
        # every arc is a self-arc or an edge arc: clone them all, then wire
        # the twins up; no recursion, and nothing left in a reference cycle
        twins = {None: None}
        for arc in itertools.chain(self._self_arc, self._edge_arc.values()):
            twins[arc] = _Arc(arc.u, arc.v, arc.prio)
        for arc, twin in twins.items():
            if twin is not None:
                twin.size = arc.size
                twin.min_vertex = arc.min_vertex
                twin.left = twins[arc.left]
                twin.right = twins[arc.right]
                twin.parent = twins[arc.parent]
        dup._self_arc = [twins[arc] for arc in self._self_arc]
        dup._edge_arc = {key: twins[arc] for key, arc in self._edge_arc.items()}
        return dup
