import gc

import pytest
from hypothesis import given, settings, strategies as st

from dyncx.forest import (INF, DynamicForest, NotTreeEdge, _Arc, _climb, _root_depth,
                          _split_at, _walk)
from dyncx.framework import BudgetExceeded, polylog_budget
from dyncx.oracles import component_count, components


def test_path_link_and_cut():
    f = DynamicForest(4)
    f.link(0, 1)
    f.link(1, 2)
    assert f.connected(0, 2)
    assert not f.connected(0, 3)
    assert f.component_size(0) == 3
    assert f.component_min(2) == 0
    f.cut(0, 1)
    assert not f.connected(0, 2)
    assert f.connected(1, 2)
    assert f.component_min(2) == 1
    assert f.edge_count == 1


def test_cut_works_from_either_endpoint_order():
    f = DynamicForest(3)
    f.link(2, 1)
    f.cut(1, 2)
    assert not f.connected(1, 2)


def test_link_rejects_cycles_and_self_loops():
    f = DynamicForest(3)
    assert f.link(0, 1)
    assert f.link(1, 2)
    # a refused link charges the two root lookups `connected` makes, a
    # self-loop nothing
    probes = f.meter.count
    f.connected(0, 2)
    lookups = f.meter.count - probes
    assert not f.link(0, 2)
    assert f.meter.count == probes + 2 * lookups
    assert not f.link(1, 1)
    assert f.meter.count == probes + 2 * lookups
    # the failed links must not corrupt the tour
    assert f.connected(0, 2) and f.edge_count == 2


def test_cut_rejects_non_tree_edges():
    f = DynamicForest(3)
    f.link(0, 1)
    with pytest.raises(NotTreeEdge):
        f.cut(0, 2)
    with pytest.raises(NotTreeEdge):
        f.cut(2, 2)


def test_vertex_bounds_checked():
    f = DynamicForest(2)
    with pytest.raises(ValueError):
        f.connected(0, 2)
    with pytest.raises(ValueError):
        f.link(-1, 0)


def test_singletons():
    f = DynamicForest(5)
    assert f.component_size(3) == 1
    assert f.component_min(3) == 3
    assert not f.connected(0, 4)
    assert f.tree_edges() == []


def test_shadow_comparison_random_ops(rng):
    n = 30
    f = DynamicForest(n, seed=5)
    edges: set[tuple[int, int]] = set()
    for step in range(400):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        if f.connected(u, v):
            if edges:
                a, b = rng.choice(sorted(edges))
                f.cut(a, b)
                edges.discard((a, b))
        else:
            f.link(u, v)
            edges.add((min(u, v), max(u, v)))
        if step % 20 == 0:
            comp = components(n, edges)
            for _ in range(10):
                a, b = rng.randrange(n), rng.randrange(n)
                assert f.connected(a, b) == (comp[a] == comp[b])
            w = rng.randrange(n)
            mine = [x for x in range(n) if comp[x] == comp[w]]
            assert f.component_min(w) == min(mine)
            assert f.component_size(w) == len(mine)
            assert sorted(f.tree_edges()) == sorted(edges)


def test_copy_is_independent():
    f = DynamicForest(4, seed=1)
    f.link(0, 1)
    f.link(2, 3)
    g = f.copy()
    g.cut(0, 1)
    g.link(1, 2)
    assert f.connected(0, 1) and not f.connected(1, 2)
    assert not g.connected(0, 1) and g.connected(1, 3)
    assert sorted(f.tree_edges()) == [(0, 1), (2, 3)]


def test_same_seed_same_probe_counts():
    def run():
        f = DynamicForest(64, seed=9)
        for i in range(63):
            f.link(i, i + 1)
        for i in range(0, 63, 2):
            f.cut(i, i + 1)
        f.connected(0, 63)
        return f.meter.count

    assert run() == run()


def test_ops_fit_polylog_budget():
    n = 1 << 10
    f = DynamicForest(n, seed=3, op_budget=polylog_budget(n))
    # adversarially long path plus alternating cuts, all within budget
    for i in range(n - 1):
        f.link(i, i + 1)
    for i in range(0, n - 1, 2):
        f.cut(i, i + 1)
    for i in range(0, n, 7):
        f.connected(0, i)
        f.component_min(i)
        f.component_size(i)


def test_tiny_budget_trips():
    f = DynamicForest(256, seed=3, op_budget=2)
    with pytest.raises(BudgetExceeded):
        for i in range(255):
            f.link(i, i + 1)


def test_union_find_oracles_agree():
    edges = [(0, 1), (1, 2), (4, 5)]
    assert component_count(6, edges) == 3
    labels = components(6, edges)
    assert labels[0] == labels[2]
    assert labels[0] != labels[4]


def linked_one_by_one(n, edges, seed):
    """The reference fill: `link` each edge that joins two trees, in order."""
    f = DynamicForest(n, seed=seed)
    for u, v in edges:
        if u != v and not f.connected(u, v):
            f.link(u, v)
    return f


def assert_same_forest(f, g, n, rng):
    for u in range(n):
        assert f.component_min(u) == g.component_min(u)
        assert f.component_size(u) == g.component_size(u)
        v = rng.randrange(n)
        assert f.connected(u, v) == g.connected(u, v)


def test_build_matches_linking_one_by_one(rng):
    for trial in range(40):
        n = rng.randint(1, 24)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = sorted(rng.sample(pairs, rng.randint(0, len(pairs))))
        built = DynamicForest(n, seed=trial)
        built.build(edges)
        ref = linked_one_by_one(n, edges, trial)
        # same edges in the same order, same priority draws
        assert built.tree_edges() == ref.tree_edges()
        assert built.edge_count == ref.edge_count
        assert built._rng.getstate() == ref._rng.getstate()
        assert_same_forest(built, ref, n, rng)
        # both stay in step through cut/link churn
        for _ in range(30):
            tree = built.tree_edges()
            if tree and rng.random() < 0.5:
                u, v = rng.choice(tree)
                built.cut(u, v)
                ref.cut(u, v)
            elif n > 1:
                u, v = rng.sample(range(n), 2)
                if not built.connected(u, v):
                    built.link(u, v)
                    ref.link(u, v)
            assert_same_forest(built, ref, n, rng)
            assert built.tree_edges() == ref.tree_edges()


def test_build_returns_each_tree_root(rng):
    """One treap root per tree, lone vertices' self-arcs included, in order
    of the trees' smallest vertices, each holding that vertex as its
    `min_vertex`; reading them charges nothing."""
    for trial in range(40):
        n = rng.randint(1, 24)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = rng.sample(pairs, rng.randint(0, min(len(pairs), 2 * n)))
        f = DynamicForest(n, seed=trial)
        roots = f.build(edges)
        assert f.meter.count == 0
        tops = [_root_depth(f._self_arc[v])[0] for v in range(n)]
        assert [root.min_vertex for root in roots] == sorted(
            {f.component_min(v) for v in range(n)})
        assert {id(root) for root in roots} == {id(top) for top in tops}
        assert all(root.parent is None for root in roots)


def test_build_skips_edges_inside_a_tree_and_needs_an_edgeless_forest():
    f = DynamicForest(4)
    f.build([(0, 1), (1, 2), (0, 2), (2, 2), (1, 3)])
    assert f.tree_edges() == [(0, 1), (1, 2), (1, 3)]
    with pytest.raises(ValueError):
        f.build([(0, 3)])
    with pytest.raises(ValueError):
        DynamicForest(2).build([(0, 2)])


def test_build_keeps_polylog_budgets():
    n = 1 << 10
    f = DynamicForest(n, seed=3, op_budget=polylog_budget(n))
    f.build([(i, i + 1) for i in range(n - 1)])
    for i in range(0, n - 1, 2):
        f.cut(i, i + 1)
    for i in range(0, n, 7):
        f.connected(0, i)
        f.component_min(i)
        f.component_size(i)


def test_tour_walks_read_without_metering_or_drawing(rng):
    n = 30
    f = DynamicForest(n, seed=4)
    edges: set[tuple[int, int]] = set()
    for _ in range(300):
        u, v = rng.sample(range(n), 2)
        if f.connected(u, v):
            if edges:
                a, b = rng.choice(sorted(edges))
                f.cut(a, b)
                edges.discard((a, b))
            continue
        f.link(u, v)
        edges.add((min(u, v), max(u, v)))
        probes, state = f.meter.count, f._rng.getstate()
        comp = components(n, edges)
        a, b = rng.choice(sorted(edges))
        side = f.smaller_side(a, b)
        rest = components(n, edges - {(a, b)})
        sides = ([x for x in range(n) if rest[x] == rest[a]],
                 [x for x in range(n) if rest[x] == rest[b]])
        assert sorted(side) in sides and len(side) == min(map(len, sides))
        c, d = rng.sample(range(n), 2)
        assert (f.tree_of(c) is f.tree_of(d)) == (comp[c] == comp[d])
        assert (f.meter.count, f._rng.getstate()) == (probes, state)
    with pytest.raises(NotTreeEdge):
        f.smaller_side(0, 0)


def test_dropped_forest_leaves_no_cyclic_garbage(rng):
    # reference counting alone frees a forest and its copy
    gc.collect()
    gc.disable()
    try:
        f = DynamicForest(40, seed=2)
        f.build([(i, i + 1) for i in range(0, 39, 2)])
        for _ in range(60):
            u, v = rng.sample(range(40), 2)
            if not f.connected(u, v):
                f.link(u, v)
            elif f.tree_edges():
                f.cut(*rng.choice(f.tree_edges()))
        g = f.copy()
        del f, g
        assert gc.collect() == 0
    finally:
        gc.enable()


class RecursiveForest(DynamicForest):
    """The recursive treap plumbing the loops replaced, charging the meter
    probe by probe: the reference for shapes, probe counts and RNG draws."""

    def _pull(self, x):
        self.meter.charge()
        size = 1
        mn = x.u if x.u == x.v else INF
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

    def _root(self, x):
        while x.parent is not None:
            self.meter.charge()
            x = x.parent
        self.meter.charge()
        return x

    def _index(self, x):
        pos = x.left.size if x.left is not None else 0
        while x.parent is not None:
            self.meter.charge()
            if x.parent.right is x:
                pos += 1 + (x.parent.left.size if x.parent.left is not None else 0)
            x = x.parent
        return pos

    def _merge(self, a, b):
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

    def _split(self, t, k):
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

    def _reroot(self, v):
        arc = self._self_arc[v]
        pos = self._index(arc)
        root = self._root(arc)
        a, b = self._split(root, pos)
        return self._merge(b, a)

    def connected(self, u, v):
        self._check(u)
        self._check(v)
        self.meter.start_op()
        same = self._root(self._self_arc[u]) is self._root(self._self_arc[v])
        self.meter.end_op("connected")
        return same

    def link(self, u, v):
        self._check(u)
        self._check(v)
        if u == v:
            return False
        self.meter.start_op()
        if self._root(self._self_arc[u]) is self._root(self._self_arc[v]):
            self.meter.end_op("link")
            return False
        tour_u = self._reroot(u)
        tour_v = self._reroot(v)
        arc_uv = _Arc(u, v, self._rng.random())
        arc_vu = _Arc(v, u, self._rng.random())
        self._edge_arc[(u, v)] = arc_uv
        self._edge_arc[(v, u)] = arc_vu
        self._merge(self._merge(self._merge(tour_u, arc_uv), tour_v), arc_vu)
        self._edges += 1
        self.meter.end_op("link")
        return True

    def cut(self, u, v):
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
        _, rest = self._split(rest, 1)
        mid, tail = self._split(rest, j - i - 1)
        _, c = self._split(tail, 1)
        self._merge(a, c)
        del self._edge_arc[(u, v)]
        del self._edge_arc[(v, u)]
        self._edges -= 1
        self.meter.end_op("cut")

    def component_min(self, v):
        self._check(v)
        self.meter.start_op()
        mn = self._root(self._self_arc[v]).min_vertex
        self.meter.end_op("component_min")
        return int(mn)

    def component_size(self, v):
        self._check(v)
        self.meter.start_op()
        arcs = self._root(self._self_arc[v]).size
        self.meter.end_op("component_size")
        return (arcs + 2) // 3


def treap_shape(f):
    """Every arc's key mapped to its fields and its neighbours' keys; an
    arc's key (u, v) is unique within a forest."""

    def key(x):
        return None if x is None else (x.u, x.v)

    arcs = list(f._self_arc) + list(f._edge_arc.values())
    return {key(x): (x.prio, x.size, x.min_vertex, key(x.left), key(x.right), key(x.parent))
            for x in arcs}


def run_op(f, op):
    """(result, exception type) of one op on f."""
    kind, a, b = op
    try:
        if kind == "link":
            return f.link(a, b), None
        if kind == "cut":
            return f.cut(a, b), None
        if kind == "connected":
            return f.connected(a, b), None
        if kind == "min":
            return f.component_min(a), None
        return f.component_size(a), None
    except (NotTreeEdge, BudgetExceeded) as exc:
        return None, type(exc)


def assert_same_treaps(f, ref):
    assert f.meter.count == ref.meter.count
    assert f._rng.getstate() == ref._rng.getstate()
    assert f.edge_count == ref.edge_count
    assert treap_shape(f) == treap_shape(ref)


def drive_pair(n, seed, budget, build_edges, ops):
    """Both forests through the same ops, compared after each; returns the
    index of the first op that ran over the budget, or None."""
    f = DynamicForest(n, seed=seed, op_budget=budget)
    ref = RecursiveForest(n, seed=seed, op_budget=budget)
    f.build(build_edges)
    ref.build(build_edges)
    assert_same_treaps(f, ref)
    first_trip = None
    for t, (kind, a, b) in enumerate(ops):
        a, b = a % n, b % n
        if kind == "cut_tree":
            # a forest edge, either way round, when there is one
            tree = ref.tree_edges()
            kind = "cut"
            if tree:
                x, y = tree[a % len(tree)]
                a, b = (x, y) if b % 2 else (y, x)
        got, want = run_op(f, (kind, a, b)), run_op(ref, (kind, a, b))
        assert got == want, (t, kind, a, b)
        if want[1] is BudgetExceeded and first_trip is None:
            first_trip = t
        assert_same_treaps(f, ref)
    dup = f.copy()
    assert treap_shape(dup) == treap_shape(f)
    assert dup._rng.getstate() == f._rng.getstate() and dup.tree_edges() == f.tree_edges()
    return first_trip


forest_ops = st.lists(
    st.tuples(st.sampled_from(["link", "link", "cut", "cut_tree", "cut_tree",
                               "connected", "min", "size"]),
              st.integers(0, 63), st.integers(0, 63)),
    max_size=60)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 14), st.integers(0, 2**16), st.none() | st.integers(1, 40),
       st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=20),
       forest_ops)
def test_loop_treap_matches_recursive_reference(n, seed, budget, build_edges, ops):
    build_edges = [(u % n, v % n) for u, v in build_edges]
    drive_pair(n, seed, budget, build_edges, ops)


def test_loop_treap_matches_reference_on_deep_treaps(rng):
    n = 120
    ops = []
    for _ in range(600):
        ops.append((rng.choice(["link", "link", "cut_tree", "connected", "min", "size"]),
                    rng.randrange(1 << 12), rng.randrange(1 << 12)))
    assert drive_pair(n, 7, None, [(i, i + 1) for i in range(0, n - 1, 3)], ops) is None


def test_tiny_budget_trips_on_the_same_op_in_both():
    # linking a path: later links walk deeper treaps and trip larger budgets
    ops = [("link", i, i + 1) for i in range(63)]
    trips = [drive_pair(64, 3, budget, [], ops) for budget in (2, 40, 60)]
    assert trips[0] == 0 and 0 < trips[1] < trips[2]


def cut_positions(n, build_edges, ops, u, v):
    """Before cutting (u, v) after `ops`: the in-order positions of the
    edge's earlier and later arcs, and its tree's arc count. Tour order
    comes from links and cuts alone, not from priorities."""
    f = DynamicForest(n)
    f.build(build_edges)
    for op in ops:
        run_op(f, op)
    root, _, i = _climb(f._edge_arc[(u, v)])
    j = _climb(f._edge_arc[(v, u)])[2]
    return min(i, j), max(i, j), root.size


PATH_65 = [(i, i + 1) for i in range(63)]  # node 64 stays alone


@pytest.mark.parametrize("n, build_edges, ops, where", [
    # a tree's tour can start with an edge arc once links have spliced
    # arcs in behind a down arc and a cut has dropped the prefix
    (5, [], [("link", 4, 1), ("link", 3, 2), ("link", 0, 4), ("link", 2, 1),
             ("cut", 4, 1), ("cut", 4, 0)], "down arc first"),
    # a built path's tour ends with the up arc of its first edge
    (3, [(0, 1), (1, 2)], [("cut", 0, 1)], "up arc last"),
    (3, [(0, 1), (1, 2)], [("cut", 2, 1)], "singleton inside"),
    (6, [(i, i + 1) for i in range(5)], [("cut", 1, 0)], "singleton outside"),
    (2, [(0, 1)], [("cut", 1, 0)], "two singletons"),
    (2, [], [("link", 0, 1), ("cut", 0, 1), ("link", 1, 0)], "link two singletons"),
    (65, PATH_65, [("link", 64, 30), ("cut", 30, 64), ("link", 17, 64)],
     "singleton into a deep tree"),
], ids=lambda x: x.replace(" ", "-") if isinstance(x, str) else None)
def test_tour_end_cuts_and_singleton_links_match_the_reference(n, build_edges, ops, where):
    """Cuts split at each edge arc and drop it, and links merge each lone
    fresh arc onto a tour: at the tour's ends, with
    singletons on either side, the shapes, probes and draws are the
    reference's."""
    *before, (kind, u, v) = ops
    if kind == "cut":
        i, j, size = cut_positions(n, build_edges, before, u, v)
        assert {"down arc first": i == 0,
                "up arc last": j == size - 1,
                "singleton inside": j == i + 2,
                "singleton outside": size - (j - i + 1) == 1,
                "two singletons": size == 4}[where]
    for seed in range(8):
        assert drive_pair(n, seed, None, build_edges, ops) is None


def churned_forest(rng, n, seed):
    """A seeded forest on n vertices: a built random forest, then random
    links and cuts, so tours start and end anywhere."""
    f = DynamicForest(n, seed=seed)
    f.build([(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(n + 1))])
    for _ in range(2 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if not f.link(u, v) and f.tree_edges():
            f.cut(*rng.choice(f.tree_edges()))
    return f


def as_reference(f):
    ref = f.copy()
    ref.__class__ = RecursiveForest
    return ref


def arc_of(f, key):
    u, v = key
    return f._self_arc[u] if u == v else f._edge_arc[key]


def test_one_walk_split_matches_the_top_down_split(rng):
    """For every arc x of seeded treaps, splitting at x by one walk up, and
    splitting then popping x, give the reference's top-down shapes and walk
    it as many nodes; the position-free climb reads `_climb`'s root and
    depth."""
    seen = {"first": 0, "last": 0, "singleton": 0}
    for trial in range(40):
        n = rng.randint(1, 64)
        f = churned_forest(rng, n, trial)
        keys = [(x.u, x.v) for x in f._self_arc] + list(f._edge_arc)
        for key in keys:
            x = arc_of(f, key)
            root, depth, pos = _climb(x)
            assert _root_depth(x) == (root, depth)
            seen["first"] += pos == 0
            seen["last"] += pos == root.size - 1
            seen["singleton"] += root.size == 1
            for drop in (False, True):
                got = f.copy()
                ref = as_reference(f)
                left, right, walked = _split_at(arc_of(got, key), drop)
                a, b = ref._split(_climb(arc_of(ref, key))[0], pos)
                if drop:
                    _, b = ref._split(b, 1)
                # each walked node is charged twice: its visit and its refresh
                assert 2 * walked == ref.meter.count  # a copy starts at zero
                assert [(t.u, t.v) if t else None for t in (left, right)] == [
                    (t.u, t.v) if t else None for t in (a, b)]
                shape, ref_shape = treap_shape(got), treap_shape(ref)
                if drop:
                    # the popped arc is left behind; the reference isolates it
                    del shape[key], ref_shape[key]
                assert shape == ref_shape
    assert all(seen.values()), seen


def vertices_by_position(root, lo, hi):
    """Self-arc vertices at in-order positions lo..hi-1, found by tracking
    each node's position from the root down."""
    out = []
    stack = [(root, 0)]
    while stack:
        t, base = stack.pop()
        if t is None or base >= hi or base + t.size <= lo:
            continue
        pos = base + (t.left.size if t.left is not None else 0)
        if lo <= pos < hi and t.u == t.v:
            out.append((pos, t.u))
        stack.append((t.left, base))
        stack.append((t.right, pos + 1))
    return [u for _, u in sorted(out)]


def test_tour_walk_shortcut_keeps_vertices_and_their_order(rng):
    """The successor walk reads the same vertices, in tour order, as a walk
    from the root that tracks positions, wrapping round the tour's end."""
    for trial in range(30):
        n = rng.randint(1, 60)
        f = DynamicForest(n, seed=trial)
        f.build([(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)])
        arcs = list(f._self_arc) + list(f._edge_arc.values())
        for v in rng.sample(range(n), min(n, 5)):
            root = f.tree_of(v)
            tour = vertices_by_position(root, 0, root.size)
            at = tour.index(v)
            arc = f._self_arc[v]
            assert [v] + _walk(arc, arc) == tour[at:] + tour[:at]
        for _ in range(10):
            x, end = rng.choice(arcs), rng.choice(arcs)
            root, _, i = _climb(x)
            other, _, j = _climb(end)
            if other is not root:
                continue
            if i < j:
                want = vertices_by_position(root, i + 1, j)
            else:
                want = (vertices_by_position(root, i + 1, root.size)
                        + vertices_by_position(root, 0, j))
            assert _walk(x, end) == want
