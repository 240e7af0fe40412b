import pytest

from dyncx.forest import DynamicForest, NotTreeEdge, WouldCycle
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
    f.link(0, 1)
    f.link(1, 2)
    with pytest.raises(WouldCycle):
        f.link(0, 2)
    with pytest.raises(WouldCycle):
        f.link(1, 1)
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
        w = rng.randrange(n)
        assert sorted(f.tree_vertices(w)) == [x for x in range(n) if comp[x] == comp[w]]
        a, b = rng.choice(sorted(edges))
        side = f.smaller_side(a, b)
        rest = components(n, edges - {(a, b)})
        sides = ([x for x in range(n) if rest[x] == rest[a]],
                 [x for x in range(n) if rest[x] == rest[b]])
        assert sorted(side) in sides and len(side) == min(map(len, sides))
        c, d = rng.sample(range(n), 2)
        trees = ([x for x in range(n) if comp[x] == comp[c]],
                 [x for x in range(n) if comp[x] == comp[d]])
        smaller = f.smaller_tree(c, d)
        assert sorted(smaller) in trees and len(smaller) == min(map(len, trees))
        assert (f.tree_of(c) is f.tree_of(d)) == (comp[c] == comp[d])
        assert (f.meter.count, f._rng.getstate()) == (probes, state)
    with pytest.raises(NotTreeEdge):
        f.smaller_side(0, 0)
