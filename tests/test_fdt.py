import itertools
import random
from array import array
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass

import pytest
from hypothesis import given, settings, strategies as st

from dyncx.dnf import (
    Clause,
    ClauseCounters,
    DnfInstance,
    clause,
    eval_bruteforce,
    first_satisfied_bruteforce,
    parse_dnf,
)
from dyncx.fdt import (
    DecisionTree,
    EmptyCollection,
    End,
    FdtInstance,
    FdtOracle,
    IndexOutOfRange,
    NotNormalized,
    OracleDesync,
    Read,
    Write,
    compile_dnf_verifier_to_trees,
    completeness_harness,
    execute_tree,
    execution_leaf,
    fdt_answer,
    fdt_to_fdnf,
    fdt_update,
    root_to_leaf_paths,
)
from dyncx.framework import BudgetExceeded, ParseError, ProbeMeter, UndecodableUpdate, UpdateStream


def single_read(index=0):
    return DecisionTree([Read(index, 1, 2), End(0, 0, 0), End(1, 1, 1)])


# ---------------------------------------------------------------------------
# structure checks
# ---------------------------------------------------------------------------


def test_validate_accepts_single_leaf():
    DecisionTree([End(1, 2, 3)]).validate(4)


def test_validate_rejects_shared_child():
    # node 2 referenced twice: a DAG, not a tree
    with pytest.raises(ParseError):
        t = DecisionTree([Read(0, 1, 1), End(0, 0, 0)])
        t.validate(4)


def test_validate_rejects_double_read_on_a_path():
    with pytest.raises(NotNormalized):
        t = DecisionTree([Read(0, 1, 2), End(0, 0, 0), Read(0, 3, 4), End(0, 0, 0), End(1, 1, 1)])
        t.validate(4)


def test_validate_rejects_read_after_write():
    with pytest.raises(NotNormalized):
        t = DecisionTree([Write(0, 1, 1), Read(0, 2, 3), End(0, 0, 0), End(1, 1, 1)])
        t.validate(4)


def test_reads_on_disjoint_branches_are_fine():
    t = DecisionTree(
        [Read(0, 1, 2), Read(1, 3, 4), Read(1, 5, 6),
         End(0, 0, 0), End(1, 1, 1), End(0, 0, 2), End(1, 1, 3)]
    )
    t.validate(4)
    assert t.depth() == 2


def test_write_then_read_other_cell_is_normal():
    t = DecisionTree([Write(0, 1, 1), Read(1, 2, 3), End(0, 0, 0), End(1, 1, 1)])
    t.validate(4)


def test_validate_rejects_out_of_range_memory_index():
    with pytest.raises(IndexOutOfRange):
        single_read(index=5).validate(4)
    with pytest.raises(IndexOutOfRange):
        DecisionTree([Write(7, 0, 1), End(0, 0, 0)]).validate(4)


def test_validate_rejects_bad_bits_and_dangling_children():
    with pytest.raises(ParseError):
        DecisionTree([End(2, 0, 0)]).validate(1)
    with pytest.raises(ParseError):
        DecisionTree([Read(0, 1, 5), End(0, 0, 0)]).validate(1)
    with pytest.raises(ParseError):
        DecisionTree([]).validate(1)


def test_validate_accepts_exactly_the_three_node_kinds():
    # execute_tree dispatches on type(node), so a subclass is no node kind
    @dataclass(frozen=True, slots=True)
    class Leaf(End):
        pass

    @dataclass(frozen=True, slots=True)
    class Probe(Read):
        pass

    for nodes in ([Leaf(1, 1, 1)], [Probe(0, 1, 2), End(0, 0, 0), End(1, 1, 1)]):
        with pytest.raises(ParseError, match="unknown node kind"):
            DecisionTree(nodes)


def test_validate_rejects_a_cycle_off_the_root():
    # every non-root node is referenced once, yet nodes 1-3 hang off a cycle
    with pytest.raises(ParseError):
        t = DecisionTree([End(0, 0, 0), Read(0, 2, 3), Write(1, 1, 1), End(1, 1, 1)])
        t.validate(2)


def test_instance_validate_covers_every_tree():
    with pytest.raises(IndexOutOfRange):
        FdtInstance([0, 1], [single_read(0), single_read(4)])


@pytest.mark.parametrize("nodes, error", [
    ([End(0, 0, 0), Read(0, 2, 3), Write(1, 1, 1), End(1, 1, 1)], ParseError),
    ([Read(0, 1, 1), End(0, 0, 0)], ParseError),
    ([Read(0, 1, 2), End(0, 0, 0), Read(0, 3, 4), End(0, 0, 0), End(1, 1, 1)],
     NotNormalized),
    ([Write(0, 1, 1), Read(0, 2, 3), End(0, 0, 0), End(1, 1, 1)], NotNormalized),
    ([Write(0, 2, 1), End(0, 0, 0)], ParseError),
    ([Read(-1, 1, 2), End(0, 0, 0), End(1, 1, 1)], IndexOutOfRange),
    ([Read(0, 1, 5), End(0, 0, 0)], ParseError),
], ids=["cycle", "shared-child", "read-twice", "read-after-write", "bad-bit",
        "negative-index", "dangling-child"])
def test_a_malformed_tree_cannot_be_built(nodes, error):
    with pytest.raises(error) as caught:
        DecisionTree(nodes)
    assert type(caught.value) is error


def test_a_tree_records_one_past_its_largest_index():
    assert DecisionTree([End(1, 0, 0)]).span == 0
    assert single_read(3).span == 4
    assert DecisionTree([Write(6, 1, 1), Read(2, 2, 3), End(0, 0, 0), End(1, 1, 1)]).span == 7


def test_instance_refuses_a_tree_whose_span_exceeds_its_memory():
    tree = DecisionTree([Write(2, 1, 1), End(0, 0, 0)])
    assert tree.span == 3
    FdtInstance([0, 0, 0], [tree])
    with pytest.raises(IndexOutOfRange):
        FdtInstance([0, 0], [tree])


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def test_execute_tree_follows_bits():
    t = single_read()
    leaf, writes = execute_tree(t, [0])
    assert t.nodes[leaf] == End(0, 0, 0) and writes == []
    leaf, _ = execute_tree(t, [1])
    assert t.nodes[leaf] == End(1, 1, 1)


def test_execute_tree_applies_writes_in_path_order():
    t = DecisionTree([Write(0, 1, 1), Write(0, 0, 2), End(1, 0, 0)])
    t.validate(1)
    mem = [1]
    _, writes = execute_tree(t, mem)
    assert writes == [(0, 1), (0, 0)]
    assert mem == [0]  # later write lands last


def test_answer_runs_on_scratch_copies():
    t = DecisionTree([Write(1, 1, 1), Read(0, 2, 3), End(0, 0, 0), End(1, 1, 1)])
    inst = FdtInstance([0, 0], [t]).validate()
    fdt_answer(inst)
    assert inst.memory == [0, 0]


def test_execute_tree_charges_one_probe_per_node_on_path():
    t = DecisionTree(
        [Read(0, 1, 2), Read(1, 3, 4), End(1, 1, 1),
         End(0, 0, 0), End(0, 0, 0)]
    )
    meter = ProbeMeter(budget=2)
    meter.start_op()
    execute_tree(t, [0, 1], meter)
    assert meter.end_op() == 2


def test_execute_tree_charges_reads_and_writes_on_its_path():
    # Read -> Write -> Read -> End: three charged nodes, writes in order
    t = DecisionTree([Read(0, 1, 2), Write(1, 1, 3), End(0, 0, 0),
                      Read(2, 4, 5), End(0, 0, 1), End(1, 1, 2)])
    meter, mem = ProbeMeter(), [0, 0, 1]
    leaf, writes = execute_tree(t, mem, meter)
    assert (leaf, writes, mem, meter.count) == (5, [(1, 1)], [0, 1, 1], 3)
    # a node past the memory stops the walk; it is charged with the nodes
    # before it, and writes before it have landed
    meter, mem = ProbeMeter(), [0, 0]
    with pytest.raises(IndexOutOfRange):
        execute_tree(t, mem, meter)
    assert (mem, meter.count) == ([0, 1], 3)
    # a write past the memory raises before it lands
    t = DecisionTree([Read(0, 1, 2), Write(5, 1, 3), End(0, 0, 0), End(1, 1, 1)])
    meter, mem = ProbeMeter(), [0, 0]
    with pytest.raises(IndexOutOfRange):
        execute_tree(t, mem, meter)
    assert (mem, meter.count) == ([0, 0], 2)


def test_answer_picks_max_rank_and_first_on_ties():
    def leaf_tree(rank):
        return DecisionTree([End(0, 0, rank)])

    inst = FdtInstance([], [leaf_tree(3), leaf_tree(5), leaf_tree(3)])
    assert fdt_answer(inst) == 1
    inst = FdtInstance([], [leaf_tree(3), leaf_tree(0), leaf_tree(3)])
    assert fdt_answer(inst) == 0


def test_fdt_update_bounds():
    inst = FdtInstance([0, 0], [single_read()])
    fdt_update(inst, 1, 1)
    assert inst.memory == [0, 1]
    with pytest.raises(IndexOutOfRange):
        fdt_update(inst, 2, 1)


def test_empty_forest_rejected():
    with pytest.raises(EmptyCollection):
        fdt_answer(FdtInstance([0], []))


# ---------------------------------------------------------------------------
# clause extraction
# ---------------------------------------------------------------------------


def ordered_clauses(image):
    return [image.fdnf.base.clauses[j] for j in image.fdnf.order]


def test_single_read_extracts_two_clauses():
    inst = FdtInstance([0], [single_read()])
    image = fdt_to_fdnf(inst)
    # bit-1 path has rank 1, so it leads the order; bit-0 path follows
    assert [c.literals for c in ordered_clauses(image)] == [((0, True),), ((0, False),)]


def test_depth_two_complete_tree_extracts_four_width_two_clauses():
    t = DecisionTree(
        [Read(0, 1, 2), Read(1, 3, 4), Read(1, 5, 6),
         End(0, 0, 0), End(1, 1, 1), End(1, 1, 2), End(1, 1, 3)]
    )
    inst = FdtInstance([0, 0], [t])
    image = fdt_to_fdnf(inst)
    assert len(image.fdnf.base.clauses) == 4
    assert all(c.width == 2 for c in image.fdnf.base.clauses)
    ranks = [image.clause_rank[j] for j in image.fdnf.order]
    assert ranks == sorted(ranks, reverse=True)
    # highest rank is the right-right path
    assert ordered_clauses(image)[0].literals == ((0, True), (1, True))


def test_writes_contribute_no_literals():
    t = DecisionTree([Write(1, 1, 1), Read(0, 2, 3), End(0, 0, 0), End(1, 1, 1)])
    inst = FdtInstance([0, 0], [t])
    image = fdt_to_fdnf(inst)
    assert sorted(c.literals for c in image.fdnf.base.clauses) == [
        ((0, False),), ((0, True),)
    ]


def test_extraction_matches_execution_exhaustively(rng):
    # the first satisfied clause under the extracted order names exactly the
    # tree/leaf the answer procedure lands on
    for trial in range(60):
        inst = random_instance(rng)
        image = fdt_to_fdnf(inst)
        for bits in itertools.product((0, 1), repeat=len(inst.memory)):
            inst.memory[:] = bits
            image.fdnf.base.assignment[:] = bits
            pi = fdt_answer(inst)
            leaf, _ = execute_tree(inst.trees[pi], list(inst.memory))
            j = first_satisfied_bruteforce(image.fdnf)
            assert j is not None
            assert (image.clause_tree[j], image.clause_leaf[j]) == (pi, leaf)


def random_instance(rng, width=3, max_trees=3):
    trees = [random_tree(rng, width) for _ in range(rng.randrange(1, max_trees + 1))]
    return FdtInstance([rng.randrange(2) for _ in range(width)], trees).validate()


def random_tree(rng, width, p_stop=0.4):
    nodes = []

    def grow(read_seen, written, depth):
        at = len(nodes)
        roll = rng.random()
        fresh = [i for i in range(width) if i not in read_seen and i not in written]
        if depth > 3 or roll < p_stop or not fresh:
            nodes.append(End(rng.randrange(2), rng.randrange(-2, 3), rng.randrange(6)))
            return at
        if roll < p_stop + 0.2:
            cell = rng.randrange(width)
            nodes.append(None)
            child = grow(read_seen, written | {cell}, depth + 1)
            nodes[at] = Write(cell, rng.randrange(2), child)
            return at
        cell = rng.choice(fresh)
        nodes.append(None)
        left = grow(read_seen | {cell}, written, depth + 1)
        right = grow(read_seen | {cell}, written, depth + 1)
        nodes[at] = Read(cell, left, right)
        return at

    grow(set(), set(), 0)
    return DecisionTree(nodes)


# ---------------------------------------------------------------------------
# compiling clause checkers
# ---------------------------------------------------------------------------


def forest_answer(inst: FdtInstance) -> int:
    pi = fdt_answer(inst)
    return execution_leaf(inst.trees[pi], inst.memory).x


def test_compile_one_clause_two_literals():
    inst = parse_dnf("p dnf 2 1 2\n1 -2 0\na 1 0\n")
    trees = compile_dnf_verifier_to_trees(inst)
    assert len(trees) == 2
    assert trees[0].depth() == 2 and trees[1].depth() == 0
    forest = FdtInstance(list(inst.assignment), trees)
    pi = fdt_answer(forest)
    assert pi == 0
    assert execution_leaf(trees[0], forest.memory) == End(1, 1, 1)


def test_compile_rewards_concession_over_lying():
    inst = parse_dnf("p dnf 1 1 1\n1 0\na 0\n")
    trees = compile_dnf_verifier_to_trees(inst)
    forest = FdtInstance([0], trees)
    pi = fdt_answer(forest)
    # clause unsatisfied: the trailing concession tree (y=0) beats the
    # clause tree's fail leaf (y=-1)
    assert pi == len(trees) - 1
    leaf = execution_leaf(trees[pi], forest.memory)
    assert (leaf.x, leaf.y) == (0, 0)


def test_compiled_forest_tracks_formula(rng):
    for _ in range(40):
        inst = rand_compilable(rng)
        trees = compile_dnf_verifier_to_trees(inst)
        forest = FdtInstance(list(inst.assignment), trees)
        for bits in itertools.product((0, 1), repeat=inst.num_vars):
            forest.memory[:] = bits
            inst.assignment[:] = bits
            assert forest_answer(forest) == eval_bruteforce(inst)


def test_success_leaves_pay_and_fail_leaves_charge(rng):
    for _ in range(30):
        inst = rand_compilable(rng)
        trees = compile_dnf_verifier_to_trees(inst)
        for bits in itertools.product((0, 1), repeat=inst.num_vars):
            for t in trees[:-1]:
                node = execution_leaf(t, list(bits))
                assert (node.x, node.y) in ((1, 1), (0, -1))


def rand_compilable(rng):
    n = rng.randrange(1, 5)
    m = rng.randrange(1, 5)
    cl = []
    for _ in range(m):
        w = rng.randrange(1, min(3, n) + 1)
        vs = rng.sample(range(1, n + 1), w)
        cl.append(clause(*[v if rng.random() < 0.5 else -v for v in vs]))
    assignment = [rng.randrange(2) for _ in range(n)]
    return DnfInstance(n, cl, assignment, max(c.width for c in cl)).validate()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_compiled_trees_pass_the_checked_constructor(data):
    n = data.draw(st.integers(1, 8))
    literal = st.tuples(st.integers(1, n), st.booleans())
    drawn = data.draw(st.lists(st.lists(literal, max_size=4, unique_by=lambda l: l[0]),
                               max_size=8))
    cl = [clause(*[v if positive else -v for v, positive in lits]) for lits in drawn]
    assignment = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    inst = DnfInstance(n, cl, assignment, max((c.width for c in cl), default=0))
    trees = compile_dnf_verifier_to_trees(inst)
    assert len(trees) == len(cl) + 1
    for t in trees:
        checked = DecisionTree(list(t.nodes))
        assert checked.span == t.span <= n
        assert checked == t


def walked_depth(tree):
    """The most Read and Write nodes on one root-to-leaf path, by a walk
    of its own."""
    best = 0
    stack = [(0, 0)]
    while stack:
        at, d = stack.pop()
        node = tree.nodes[at]
        if isinstance(node, End):
            best = max(best, d)
        elif isinstance(node, Read):
            stack += [(node.left, d + 1), (node.right, d + 1)]
        else:
            stack.append((node.child, d + 1))
    return best


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_recorded_depth_matches_a_walk(data):
    """`depth()` returns what `validate` or the compiler recorded, and that
    is the depth a separate walk finds, for drawn and compiled trees."""
    width = data.draw(st.integers(1, 4))
    for _ in range(3):
        tree = drawn_tree(data, width)
        assert tree.depth() == walked_depth(tree)
    n = data.draw(st.integers(1, 6))
    literal = st.tuples(st.integers(1, n), st.booleans())
    drawn = data.draw(st.lists(st.lists(literal, max_size=4, unique_by=lambda l: l[0]),
                               max_size=6))
    cl = [clause(*[v if positive else -v for v, positive in lits]) for lits in drawn]
    inst = DnfInstance(n, cl, [0] * n, max((c.width for c in cl), default=0))
    trees = compile_dnf_verifier_to_trees(inst)
    assert [t.depth() for t in trees] == [c.width for c in cl] + [0]
    for t in trees:
        assert t.depth() == walked_depth(t) == DecisionTree(list(t.nodes)).depth()


def test_parsed_clauses_and_compiled_reads_equal_their_constructed_twins():
    """`parse_dnf` and the compiler build their nodes without the dataclass
    `__init__`; each is still an exact, frozen instance that compares and
    hashes as the constructor's."""
    inst = parse_dnf("p dnf 4 3 3\n1 -2 3 0\n-4 0\n2 4 -1 0\na 0 1 0 1\n")
    twins = [Clause(((0, True), (1, False), (2, True))), Clause(((3, False),)),
             Clause(((1, True), (3, True), (0, False)))]
    reads = [node for tree in compile_dnf_verifier_to_trees(inst)
             for node in tree.nodes if type(node) is Read]
    # a width-w clause's nodes: w reads, the accept leaf, w reject leaves
    read_twins = [Read(0, 4, 1), Read(1, 2, 5), Read(2, 6, 3), Read(3, 1, 2),
                  Read(1, 4, 1), Read(3, 5, 2), Read(0, 3, 6)]
    assert len(reads) == len(read_twins)
    for built, twin in zip(inst.clauses + reads, twins + read_twins):
        assert type(built) is type(twin)
        assert built == twin and hash(built) == hash(twin)
        assert repr(built) == repr(twin)
        field = "literals" if type(built) is Clause else "index"
        with pytest.raises(FrozenInstanceError):
            setattr(built, field, getattr(twin, field))


def test_oracle_streams_its_paths_into_the_counters(monkeypatch):
    """The oracle hands `from_literals` an iterator over its kept paths,
    not a list of them."""
    handed = []
    real = ClauseCounters.from_literals.__func__

    def spy(cls, num_vars, assignment, m, placed):
        handed.append(placed)
        return real(cls, num_vars, assignment, m, placed)

    monkeypatch.setattr(ClauseCounters, "from_literals", classmethod(spy))
    inst = parse_dnf("p dnf 3 2 2\n1 -2 0\n3 0\na 1 0 0\n")
    oracle = FdtOracle(FdtInstance([1, 0, 0], compile_dnf_verifier_to_trees(inst)))
    assert oracle.answer() == 0
    [placed] = handed
    assert not isinstance(placed, (list, tuple))
    assert iter(placed) is placed
    assert next(placed, None) is None  # drained by the build


def test_compile_budget():
    inst = parse_dnf("p dnf 2 2 1\n1 0\n2 0\na 0 0\n")
    with pytest.raises(BudgetExceeded):
        compile_dnf_verifier_to_trees(inst, budget=1)


def drawn_tree(data, width):
    """A normal-form tree with writes and ranks in -2..2 (ties and negatives)."""
    nodes = []

    def grow(read_seen, written, depth):
        at = len(nodes)
        fresh = [i for i in range(width) if i not in read_seen | written]
        kind = data.draw(st.sampled_from(["end", "write", "read"] if depth < 4 else ["end"]))
        if kind == "end" or (kind == "read" and not fresh):
            nodes.append(End(data.draw(st.integers(0, 1)), 0, data.draw(st.integers(-2, 2))))
            return at
        nodes.append(None)
        if kind == "write":
            cell = data.draw(st.integers(0, width - 1))
            child = grow(read_seen, written | {cell}, depth + 1)
            nodes[at] = Write(cell, data.draw(st.integers(0, 1)), child)
            return at
        cell = data.draw(st.sampled_from(fresh))
        left = grow(read_seen | {cell}, written, depth + 1)
        right = grow(read_seen | {cell}, written, depth + 1)
        nodes[at] = Read(cell, left, right)
        return at

    grow(frozenset(), frozenset(), 0)
    return DecisionTree(nodes)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_oracle_answer_equals_rank_argmax_after_every_update(data):
    width = data.draw(st.integers(1, 4))
    trees = [drawn_tree(data, width) for _ in range(data.draw(st.integers(1, 5)))]
    memory = data.draw(st.lists(st.integers(0, 1), min_size=width, max_size=width))
    ref = FdtInstance(list(memory), trees).validate()
    oracle = FdtOracle(FdtInstance(list(memory), trees))
    assert oracle.answer() == fdt_answer(ref)
    updates = st.tuples(st.integers(0, width - 1), st.integers(0, 1))
    drawn = data.draw(st.lists(updates, max_size=15))
    for pos, bit in drawn:
        oracle.update(pos, bit)
        fdt_update(ref, pos, bit)
        assert oracle.memory_view() == ref.memory
        assert oracle.answer() == fdt_answer(ref)


class AllPathsFdtOracle(FdtOracle):
    """Reference construction: every root-to-leaf path of every tree, in
    `fdt_to_fdnf`'s order, with no cut at the first read-free path."""

    def __init__(self, inst: FdtInstance):
        inst.validate()
        per_rank = Counter(
            node.rank for t in inst.trees for node in t.nodes if isinstance(node, End)
        )
        offset, total = {}, 0
        for rank in sorted(per_rank, reverse=True):
            offset[rank] = total
            total += per_rank[rank]
        self.path_tree = array("i", [0]) * total

        def placed():
            for t_idx, _, rank, lits in root_to_leaf_paths(inst.trees):
                pos = offset[rank]
                offset[rank] = pos + 1
                self.path_tree[pos] = t_idx
                yield pos, lits

        self.paths = ClauseCounters.from_literals(
            len(inst.memory), inst.memory, total, placed()
        )


def read_free_tree(data, width):
    """A chain of 0-3 writes from the root down to one end node."""
    chain = data.draw(st.integers(0, 3))
    nodes = [Write(data.draw(st.integers(0, width - 1)), data.draw(st.integers(0, 1)), k + 1)
             for k in range(chain)]
    nodes.append(End(data.draw(st.integers(0, 1)), 0, data.draw(st.integers(-2, 2))))
    return DecisionTree(nodes)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pruned_oracle_matches_the_all_paths_reference(data):
    width = data.draw(st.integers(1, 4))
    trees = [
        read_free_tree(data, width) if data.draw(st.booleans()) else drawn_tree(data, width)
        for _ in range(data.draw(st.integers(1, 5)))
    ]
    memory = data.draw(st.lists(st.integers(0, 1), min_size=width, max_size=width))
    ref = FdtInstance(list(memory), trees).validate()
    oracle = FdtOracle(FdtInstance(list(memory), trees))
    reference = AllPathsFdtOracle(FdtInstance(list(memory), trees))
    # kept positions are a prefix of the reference order
    assert oracle.path_tree == reference.path_tree[: len(oracle.path_tree)]

    def agree():
        assert oracle.answer() == reference.answer() == fdt_answer(ref)
        assert oracle.memory_view() == reference.memory_view() == ref.memory

    agree()
    updates = st.tuples(st.integers(0, width - 1), st.integers(0, 1))
    for pos, bit in data.draw(st.lists(updates, max_size=15)):
        oracle.update(pos, bit)
        reference.update(pos, bit)
        fdt_update(ref, pos, bit)
        agree()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pruned_walk_builds_the_counters_of_the_all_paths_prefix(data):
    """The pruned oracle's counters are the all-paths reference's counters
    cut to the kept prefix: the same occurrence lists, unsatisfied counts
    and satisfied tally, at build time and after every update. The walk
    with a cut is the uncut walk filtered by the cut's rule."""
    width = data.draw(st.integers(1, 4))
    trees = [
        read_free_tree(data, width) if data.draw(st.booleans()) else drawn_tree(data, width)
        for _ in range(data.draw(st.integers(1, 5)))
    ]
    memory = data.draw(st.lists(st.integers(0, 1), min_size=width, max_size=width))
    oracle = FdtOracle(FdtInstance(list(memory), trees))
    reference = AllPathsFdtOracle(FdtInstance(list(memory), trees))
    kept = len(oracle.path_tree)
    floor = data.draw(st.integers(-3, 3))
    last_tied = data.draw(st.integers(-1, len(trees)))
    assert list(root_to_leaf_paths(trees, (floor, last_tied))) == [
        (t_idx, leaf, rank, lits) for t_idx, leaf, rank, lits in root_to_leaf_paths(trees)
        if rank > floor or rank == floor and t_idx <= last_tied]

    def agree():
        paths, ref = oracle.paths, reference.paths
        for sign in (0, 1):
            assert [list(held) for held in paths.holds[sign]] == [
                [j for j in held if j < kept] for held in ref.holds[sign]]
        assert paths.unsat == ref.unsat[:kept]
        assert paths.satisfied == ref.unsat[:kept].count(0)

    agree()
    updates = st.tuples(st.integers(0, width - 1), st.integers(0, 1))
    for pos, bit in data.draw(st.lists(updates, max_size=15)):
        oracle.update(pos, bit)
        reference.update(pos, bit)
        agree()


def test_compile_shares_equal_reads():
    """One Read object per distinct (index, left, right) of a compile, so
    equal tests in different clauses' trees are one node."""
    inst = parse_dnf("p dnf 4 5 3\n1 -2 3 0\n1 -2 4 0\n1 0\n-1 2 0\n2 1 0\na 0 1 0 0\n")
    trees = compile_dnf_verifier_to_trees(inst)
    reads = [node for tree in trees for node in tree.nodes if isinstance(node, Read)]
    assert len(reads) == 11
    by_value = {}
    for node in reads:
        assert by_value.setdefault(node, node) is node
    # clauses 1 and 2 start with the same two tests at the same depths
    assert trees[0].nodes[:2] == trees[1].nodes[:2]
    assert all(a is b for a, b in zip(trees[0].nodes[:2], trees[1].nodes[:2]))
    assert len(by_value) == 9
    # a second compile makes its own nodes
    again = compile_dnf_verifier_to_trees(inst)
    assert again[0].nodes[0] == trees[0].nodes[0]
    assert again[0].nodes[0] is not trees[0].nodes[0]


def test_oracle_cuts_at_the_first_read_free_path():
    lone = DecisionTree([End(0, 0, 0)])
    chain = DecisionTree([Write(0, 1, 1), End(1, 0, 2)])
    ranked = DecisionTree([Read(0, 1, 2), End(0, 0, -1), End(1, 1, 3)])
    cases = [
        ([lone, single_read()], [1, 0]),  # rank-0 lone end ties the bit-0 path
        ([single_read(), lone], [0, 0, 1]),  # tie at rank 0: lower tree first
        ([lone, DecisionTree([End(1, 0, 0)])], [0]),  # tied read-free: the first
        ([lone, chain, lone], [1]),  # a later, higher-ranked one moves the cut
        ([ranked, chain, lone, single_read()], [0, 1]),  # rank 2 chain beats the rest
        ([single_read(), ranked], [1, 0, 0, 1]),  # no read-free tree: every path
    ]
    for trees, path_tree in cases:
        oracle = FdtOracle(FdtInstance([0], trees))
        assert list(oracle.path_tree) == path_tree
        assert oracle.answer() == fdt_answer(FdtInstance([0], trees))


def test_oracle_keeps_one_path_per_clause_of_a_compiled_verifier(rng):
    for _ in range(20):
        inst = rand_compilable(rng)
        trees = compile_dnf_verifier_to_trees(inst)
        oracle = FdtOracle(FdtInstance(list(inst.assignment), trees))
        m = len(inst.clauses)
        assert len(oracle.path_tree) == m + 1
        assert list(oracle.path_tree) == list(range(m + 1))


def test_oracle_refuses_what_the_reference_refuses():
    with pytest.raises(EmptyCollection):
        FdtOracle(FdtInstance([0], [])).answer()
    oracle = FdtOracle(FdtInstance([0, 0], [single_read()]))
    with pytest.raises(IndexOutOfRange):
        oracle.update(2, 1)


def test_memory_errors_name_the_1_based_position():
    # a 2-bit memory's bits are 1..2, as in the harness's and the DNF file's ids
    inst = FdtInstance([0, 0], [single_read()])
    with pytest.raises(IndexOutOfRange, match=r"^position 3 out of range 1\.\.2$"):
        fdt_update(inst, 2, 1)
    with pytest.raises(IndexOutOfRange, match=r"^position 3 out of range 1\.\.2$"):
        FdtOracle(inst).update(2, 1)
    with pytest.raises(IndexOutOfRange, match=r"^update position 3 out of range 1\.\.2$"):
        completeness_harness(inst.trees, inst.memory, [("f", 2, 1)])


# ---------------------------------------------------------------------------
# completeness harness
# ---------------------------------------------------------------------------


def test_harness_on_flip_stream():
    text = "p dnf 4 3 2\n1 -2 0\n3 0\n-1 4 0\na 0 1 0 0\n"
    inst = parse_dnf(text)
    trees = compile_dnf_verifier_to_trees(inst)
    r = random.Random(7)
    stream = [("f", r.randrange(4), r.randrange(2)) for _ in range(50)]
    answers = completeness_harness(trees, list(inst.assignment), stream)
    probe = parse_dnf(text)
    want = [eval_bruteforce(probe)]
    for tok in stream:
        probe.apply(tok)
        want.append(eval_bruteforce(probe))
    assert answers == want


def test_harness_empty_stream(rng):
    inst = rand_compilable(rng)
    trees = compile_dnf_verifier_to_trees(inst)
    answers = completeness_harness(trees, list(inst.assignment), [])
    assert answers == [eval_bruteforce(inst)]


def test_harness_mirrors_at_most_update_plus_depth_bits(rng):
    inst = rand_compilable(rng)
    trees = compile_dnf_verifier_to_trees(inst)
    depth = max(t.depth() for t in trees)
    stream = [("f", i % inst.num_vars, (i // 2) % 2) for i in range(20)] + [("q",)]
    trace = []
    completeness_harness(trees, list(inst.assignment), stream, trace=trace)
    assert all(rec["mirrored_bits"] <= 1 + depth for rec in trace)
    # queries write nothing at all
    assert trace[-1]["mirrored_bits"] <= depth


def test_harness_audit_catches_desync(rng):
    class Skewed(FdtOracle):
        def update(self, position, value):
            pass  # drops every write

    inst = rand_compilable(rng)
    trees = compile_dnf_verifier_to_trees(inst)
    oracle = Skewed(FdtInstance(list(inst.assignment), list(trees)))
    stream = [("f", 0, 1 - inst.assignment[0])]
    with pytest.raises(OracleDesync):
        completeness_harness(trees, list(inst.assignment), stream, oracle=oracle)


def test_harness_trace_records_choice(rng):
    inst = rand_compilable(rng)
    trees = compile_dnf_verifier_to_trees(inst)
    trace = []
    completeness_harness(trees, list(inst.assignment), [("q",)], trace=trace)
    assert len(trace) == 2
    for rec in trace:
        assert set(rec) >= {"update", "proof_tree", "leaf", "mirrored_bits", "y"}
    assert trace[0]["update"] is None


def test_harness_same_with_pruned_and_all_paths_oracle(rng):
    for trial in range(30):
        inst = rand_compilable(rng) if trial % 2 else rand_dnf_verifier_input(rng)
        trees = compile_dnf_verifier_to_trees(inst)
        stream = [("q",) if rng.random() < 0.1
                  else ("f", rng.randrange(inst.num_vars), rng.randrange(2))
                  for _ in range(40)]
        runs = []
        for make in (None, FdtOracle, AllPathsFdtOracle):
            oracle = make and make(FdtInstance(list(inst.assignment), list(trees)))
            trace = []
            answers = completeness_harness(trees, list(inst.assignment), stream,
                                           oracle=oracle, trace=trace)
            runs.append((answers, trace))
        assert runs[0] == runs[1] == runs[2]


def rand_dnf_verifier_input(rng):
    """A larger compilable instance: 6-10 variables, 5-20 clauses of width 1-3."""
    n = rng.randrange(6, 11)
    clauses = [
        clause(*[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), w)])
        for w in (rng.randrange(1, 4) for _ in range(rng.randrange(5, 21)))
    ]
    return DnfInstance(n, clauses, [rng.randrange(2) for _ in range(n)], 3).validate()


def test_harness_rejects_foreign_tokens(rng):
    inst = rand_compilable(rng)
    trees = compile_dnf_verifier_to_trees(inst)
    with pytest.raises(UndecodableUpdate):
        completeness_harness(trees, list(inst.assignment), [("e", "+", 0, 1)])


def test_stream_tokens_reused_from_shared_parser():
    # harness consumes the same token shapes the other dynamic problems use
    stream = UpdateStream.parse("f 1 0\nq\n")
    assert stream.items == [("f", 0, 0), ("q",)]
