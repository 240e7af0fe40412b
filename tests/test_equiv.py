import itertools

import pytest

from dyncx.dnf import DnfInstance, clause, eval_bruteforce
from dyncx.equiv import (
    BLACK,
    WHITE,
    AllWhiteCounters,
    AllWhiteInstance,
    HypergraphInstance,
    SparseOvInstance,
    aw_bruteforce,
    aw_to_indep,
    aw_to_ov,
    dnf_to_aw,
    format_aw,
    graph_set_independent,
    hypergraph_lift,
    indep_bruteforce,
    indep_to_dnf,
    lift_query_set,
    ov_bruteforce,
    ov_to_aw,
    parse_aw,
)
from dyncx.framework import BudgetExceeded, ParseError

from conftest import rand_aw, rand_color_stream, rand_dnf, rand_flip_stream


# ---------------------------------------------------------------------------
# baseline semantics
# ---------------------------------------------------------------------------


def test_aw_empty_neighborhood_counts_as_all_white():
    inst = AllWhiteInstance(1, 2, [(0, 0)], [False])
    # r=1 has no neighbors at all: vacuously all-white
    assert aw_bruteforce(inst) == 1


def test_aw_no_scanned_nodes_is_no():
    assert aw_bruteforce(AllWhiteInstance(2, 0, [], [True, False])) == 0


def test_aw_counters_track_bruteforce(rng):
    for _ in range(60):
        inst = rand_aw(rng)
        c = AllWhiteCounters(inst)
        for tok in rand_color_stream(rng, inst.num_l, 40):
            got = c.apply(tok)
            inst.apply(tok)
            assert got == aw_bruteforce(inst)


def edge_masks(inst: AllWhiteInstance) -> list[int]:
    """The neighbor masks in the packed layout: a 1 in field r per edge (l, r)."""
    width, _ = AllWhiteCounters.layout(inst.num_l, inst.num_r)
    masks = [0] * inst.num_l
    for l, r in inst.edges:
        masks[l] |= 1 << (width * r)
    return masks


def test_aw_counters_direct_calls_track_bruteforce_and_charge_every_call(rng):
    # up to 20 L nodes (six-bit fields) and 70 R nodes (wider than a word)
    for _ in range(80):
        inst = rand_aw(rng, l_hi=20, r_hi=70)
        c = AllWhiteCounters(inst)
        # from_masks keeps the colors list it is handed, and the test changes
        # inst.colors itself below, so the twin gets its own copy
        twin = AllWhiteCounters.from_masks(inst.num_r, edge_masks(inst), list(inst.colors))
        calls = 0
        for _ in range(60):
            if inst.num_l and rng.random() < 0.7:
                # colors are drawn at random, so about half of these change nothing
                node, white = rng.randrange(inst.num_l), rng.random() < 0.5
                c.set_color(node, white)
                twin.set_color(node, white)
                inst.colors[node] = white
            else:
                assert c.answer() == twin.answer() == aw_bruteforce(inst)
            calls += 1
            assert c.ops == twin.ops == calls
            assert c.count == twin.count
            assert c.apply(("q",)) == aw_bruteforce(inst)
        assert c.ops == calls  # `apply(("q",))` is not charged


def test_aw_set_colors_matches_the_same_set_color_calls(rng):
    # a batch recolors in order and charges one op per node it is handed, so
    # it must leave what the same one-node calls leave; the lists repeat
    # nodes and hold nodes already of the batch's color (no-ops), and some
    # are empty
    noops = repeats = 0
    for _ in range(80):
        inst = rand_aw(rng, l_hi=20, r_hi=70)
        batched = AllWhiteCounters(inst)
        single = AllWhiteCounters(inst)
        nbrs = inst.r_neighbors()
        for _ in range(30):
            white = rng.random() < 0.5
            nodes = [rng.randrange(inst.num_l) for _ in range(rng.randint(0, 6))
                     if inst.num_l]
            noops += sum(batched.colors[node] == white for node in nodes)
            repeats += len(nodes) - len(set(nodes))
            batched.set_colors(nodes, white)
            for node in nodes:
                single.set_color(node, white)
            assert batched.colors == single.colors
            assert all(batched.colors[node] == white for node in nodes)
            assert batched.count == single.count
            assert packed_fields(batched, inst.num_l, inst.num_r) == [
                sum(not batched.colors[l] for l in nbrs[r]) for r in range(inst.num_r)]
            assert batched.ops == single.ops
            now = AllWhiteInstance(inst.num_l, inst.num_r, inst.edges, list(batched.colors))
            assert batched.answer() == single.answer() == aw_bruteforce(now)
    assert noops and repeats


def test_aw_counters_corner_instances():
    assert AllWhiteCounters(AllWhiteInstance(2, 0, [], [False, True])).answer() == 0
    assert AllWhiteCounters(AllWhiteInstance(0, 0, [], [])).answer() == 0
    # scanned node 1 has no neighbors: all-white whatever the colors
    isolated = AllWhiteInstance(2, 2, [(0, 0), (1, 0)], [False, False])
    assert AllWhiteCounters(isolated).answer() == 1
    assert AllWhiteCounters(AllWhiteInstance(0, 1, [], [])).answer() == 1


def test_aw_counters_clear_when_everything_turns_white(rng):
    for _ in range(40):
        inst = rand_aw(rng, l_hi=20, r_hi=70)
        c = AllWhiteCounters(inst)
        for node in rng.sample(range(inst.num_l), inst.num_l):
            c.set_color(node, True)
        assert c.count == 0
        assert c.answer() == (1 if inst.num_r else 0)


# |L| at the field-width boundaries: w = |L|.bit_length() + 1 steps up at 1,
# 2, 4, 8, 16 and 32
BOUNDARY_L = [0, 1, 3, 4, 7, 8, 15, 16, 31, 32]


def packed_fields(c: AllWhiteCounters, num_l: int, num_r: int) -> list[int]:
    """Every field of `c.count`, guard bit included, read back one by one."""
    width, _ = AllWhiteCounters.layout(num_l, num_r)
    assert c.count >> (width * num_r) == 0  # nothing past the last field
    return [c.count >> (width * r) & ((1 << width) - 1) for r in range(num_r)]


def test_aw_counters_layout_at_field_width_boundaries():
    for num_l in BOUNDARY_L:
        for num_r in (0, 1, 2, 63, 64, 65, 70):
            width, unit = AllWhiteCounters.layout(num_l, num_r)
            assert width == num_l.bit_length() + 1 and num_l < 1 << (width - 1)
            assert unit == sum(1 << (width * r) for r in range(num_r))


def test_aw_counters_fields_hold_the_black_counts_at_width_boundaries(rng):
    for num_l in BOUNDARY_L:
        for num_r in (1, 5, 64, 70):
            edges = [(l, r) for l in range(num_l) for r in range(num_r)
                     if rng.random() < 0.5]
            colors = [rng.random() < 0.5 for _ in range(num_l)]
            inst = AllWhiteInstance(num_l, num_r, edges, colors)
            c = AllWhiteCounters(inst)
            nbrs = inst.r_neighbors()
            for tok in rand_color_stream(rng, num_l, 30):
                got = c.apply(tok)
                inst.apply(tok)
                assert got == aw_bruteforce(inst)
                assert packed_fields(c, num_l, num_r) == [
                    sum(not inst.colors[l] for l in nbrs[r]) for r in range(num_r)]


def test_aw_counters_complete_bipartite_fills_every_field():
    # every count reaches |L|, the largest value its field holds below the guard
    for num_l in BOUNDARY_L[1:]:
        for num_r in (1, 63, 64, 70):
            edges = [(l, r) for l in range(num_l) for r in range(num_r)]
            c = AllWhiteCounters(AllWhiteInstance(num_l, num_r, edges, [BLACK] * num_l))
            assert packed_fields(c, num_l, num_r) == [num_l] * num_r
            assert c.answer() == 0
            for node in range(num_l - 1):
                c.set_color(node, WHITE)
                assert c.answer() == 0
            assert packed_fields(c, num_l, num_r) == [1] * num_r
            c.set_color(num_l - 1, WHITE)
            assert c.count == 0 and c.answer() == 1
            c.set_color(0, BLACK)
            assert packed_fields(c, num_l, num_r) == [1] * num_r and c.answer() == 0


def test_aw_validate_rejects_bad_edges():
    with pytest.raises(ParseError):
        AllWhiteInstance(1, 1, [(1, 0)], [True]).validate()
    with pytest.raises(ParseError):
        AllWhiteInstance(1, 1, [(0, 0), (0, 0)], [True]).validate()
    with pytest.raises(ParseError):
        AllWhiteInstance(1, 1, [(0, 0)], [True], width=0).validate()


# ---------------------------------------------------------------------------
# converters
# ---------------------------------------------------------------------------


def test_dnf_to_aw_worked_example():
    inst = DnfInstance(2, [clause(1, -2)], [1, 0], 2)
    aw, tr = dnf_to_aw(inst)
    assert (aw.num_l, aw.num_r) == (4, 1)
    # l1 white, l2 black, l3 black, l4 white (1-based); r1 sees l1 and l4
    assert aw.colors == [True, False, False, True]
    assert sorted(aw.edges) == [(0, 0), (3, 0)]
    assert aw_bruteforce(aw) == 1
    out = tr(("f", 0, 0))
    assert out == [("c", 0, "B"), ("c", 1, "W")]


def test_dnf_to_aw_empty_formula_always_no(rng):
    inst = DnfInstance(3, [], [1, 0, 1], 2)
    aw, _ = dnf_to_aw(inst)
    assert aw.num_r == 0 and aw_bruteforce(aw) == 0


def test_dnf_to_aw_flip_translates_to_exactly_two_updates(rng):
    inst = rand_dnf(rng, m_lo=1)
    _, tr = dnf_to_aw(inst)
    for tok in rand_flip_stream(rng, inst.num_vars, 30):
        assert len(tr(tok)) == 2


def test_aw_to_indep_examples():
    star = AllWhiteInstance(3, 1, [(0, 0), (1, 0), (2, 0)], [True, True, True])
    hg, _ = aw_to_indep(star)
    assert hg.s == {0, 1, 2}
    assert indep_bruteforce(hg) == 0
    dark = AllWhiteInstance(2, 1, [(0, 0)], [False, False])
    hg, _ = aw_to_indep(dark)
    assert hg.s == set() and indep_bruteforce(hg) == 1


def test_indep_to_dnf_examples():
    hg = HypergraphInstance(2, [(0, 1)], {0, 1})
    inst, _ = indep_to_dnf(hg)
    assert eval_bruteforce(inst) == 1
    hg = HypergraphInstance(2, [(0, 1)], set())
    inst, _ = indep_to_dnf(hg)
    assert eval_bruteforce(inst) == 0


def test_ov_examples():
    ov = SparseOvInstance(2, 2, [[0], [1]], [0, 0])
    assert ov_bruteforce(ov) == 1
    ov = SparseOvInstance(2, 2, [[0], [1]], [1, 1])
    assert ov_bruteforce(ov) == 0


def test_ov_round_trip_is_identity(rng):
    for _ in range(40):
        aw = rand_aw(rng)
        ov, _ = aw_to_ov(aw)
        back, _ = ov_to_aw(ov)
        assert (back.num_l, back.num_r) == (aw.num_l, aw.num_r)
        assert sorted(back.edges) == sorted(aw.edges)
        assert back.colors == aw.colors


def test_four_way_per_step_equivalence(rng):
    for _ in range(150):
        source = rand_dnf(rng, n_hi=5, m_hi=4)
        aw, t_aw = dnf_to_aw(source)
        hg, t_hg = aw_to_indep(aw)
        back, t_back = indep_to_dnf(hg)
        ov, t_ov = aw_to_ov(aw)
        for tok in rand_flip_stream(rng, source.num_vars, 30):
            source.apply(tok)
            for o1 in t_aw(tok):
                aw.apply(o1)
                for o2 in t_hg(o1):
                    hg.apply(o2)
                    for o3 in t_back(o2):
                        back.apply(o3)
                for o4 in t_ov(o1):
                    ov.apply(o4)
            bit = eval_bruteforce(source)
            assert aw_bruteforce(aw) == bit
            assert indep_bruteforce(hg) == 1 - bit
            assert eval_bruteforce(back) == bit
            assert ov_bruteforce(ov) == bit


def test_translation_arity_is_one_outside_dnf(rng):
    aw = rand_aw(rng, l_lo=1, r_lo=1)
    _, t_hg = aw_to_indep(aw)
    _, t_ov = aw_to_ov(aw)
    ov, _ = aw_to_ov(aw)
    _, t_back = ov_to_aw(ov)
    for tok in rand_color_stream(rng, aw.num_l, 40, query_rate=0.0):
        assert len(t_hg(tok)) == 1
        assert len(t_ov(tok)) == 1
    assert len(t_back(("u", 0, 1))) == 1


def test_width_bounds_preserved(rng):
    for _ in range(30):
        source = rand_dnf(rng, m_lo=1)
        aw, _ = dnf_to_aw(source)
        assert aw.width == source.width
        assert max(len(n) for n in aw.r_neighbors()) <= source.width
        hg, _ = aw_to_indep(aw)
        back, _ = indep_to_dnf(hg)
        assert back.width <= source.width


# ---------------------------------------------------------------------------
# hypergraph lift
# ---------------------------------------------------------------------------


def test_lift_worked_example():
    hg = HypergraphInstance(4, [(0, 1)], {0, 1})
    num_nodes, edges, subset_index = hypergraph_lift(hg, 1)
    assert num_nodes == 4 and len(edges) == 1
    qs = lift_query_set(subset_index, hg.s, 1)
    assert not graph_set_independent(edges, qs)


def test_lift_empty_query_set_is_independent():
    hg = HypergraphInstance(4, [(0, 1)], set())
    _, edges, subset_index = hypergraph_lift(hg, 1)
    assert graph_set_independent(edges, lift_query_set(subset_index, set(), 1))


def test_lift_iff_exhaustive_small():
    for n, k in [(4, 1), (5, 2), (6, 2)]:
        nodes = list(range(n))
        hyperedges = [tuple(range(2 * k)), tuple(nodes[-2 * k:])]
        hg = HypergraphInstance(n, hyperedges, set())
        _, edges, subset_index = hypergraph_lift(hg, k)
        for size in range(n + 1):
            for s in itertools.combinations(nodes, size):
                hg.s = set(s)
                want = indep_bruteforce(hg)
                got = graph_set_independent(edges, lift_query_set(subset_index, hg.s, k))
                assert int(got) == want, (n, k, s)


def test_lift_budget_enforced():
    hg = HypergraphInstance(40, [], set())
    with pytest.raises(BudgetExceeded):
        hypergraph_lift(hg, 10, budget=1000)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def test_aw_parse_format_round_trip(rng):
    for _ in range(15):
        inst = rand_aw(rng)
        again = parse_aw(format_aw(inst))
        assert (again.num_l, again.num_r) == (inst.num_l, inst.num_r)
        assert sorted(again.edges) == sorted(inst.edges)
        assert again.colors == inst.colors


@pytest.mark.parametrize(
    "parse, text, lineno",
    [
        (parse_aw, "p aw 1 -2\n", 1),
    ],
    ids=["aw-negative-count"],
)
def test_non_integer_field_is_a_parse_error_naming_the_line(parse, text, lineno):
    with pytest.raises(ParseError, match=f"^line {lineno}:"):
        parse(text)


def test_empty_hyperedge_is_meaningful_in_memory():
    # in memory it must stay legal: an isolated scanned node is vacuously
    # all-white, and its image under aw_to_indep is an empty hyperedge
    aw = AllWhiteInstance(1, 1, [], [True])
    hg, _ = aw_to_indep(aw)
    assert hg.hyperedges == [()]
    assert indep_bruteforce(hg) == 0
    assert aw_bruteforce(aw) == 1
