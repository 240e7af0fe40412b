"""Shallow decision trees over a shared bit memory.

An instance is a memory array plus a collection of trees whose leaves carry
(x, y, rank) labels; the instance's answer is the tree whose execution leaf
has the highest rank. Trees are in normal form: along any root-to-leaf path
no variable is read twice and no read follows a write of the same bit, so
the conjunction of a path's read outcomes characterizes the path on the
ORIGINAL memory and each tree satisfies exactly one such clause.

That observation is the bridge to first-DNF (`fdt_to_fdnf`), and the other
direction of the machinery compiles a clause-checking verifier into trees
(`compile_dnf_verifier_to_trees`) so a reward-maximizing proof can be read
off an fdt oracle (`completeness_harness`). `fdt_to_fdnf` emits every path;
the oracle (`FdtOracle`) keeps only the paths ranked up to the first
read-free one, since no later path can be the first satisfied. Both take
their paths from one generator over the whole collection,
`root_to_leaf_paths`; the oracle hands it that cut as a (rank, tree) pair,
and the walk tests a leaf against it before building the path's literal
tuple, so a dropped path's literals are never built.

A `DecisionTree` checks its shape when it is built (`DecisionTree.validate`,
one walk) and records its span and depth; an `FdtInstance` checks only
that each span fits its memory, with no walk. Nothing downstream checks or
walks a tree again to learn either.
The compiler's trees are trusted: they come from a checked `DnfInstance`
and are built unchecked, so no compiled tree is ever walked for checking.
Nodes are immutable, so a compile shares them between its trees: one
`Read` per distinct (index, left, right) and one object per `End` label,
and trees with the same largest variable share one span int. A read's
(left, right) follows from its clause's width, its depth and its sign, so
the compile finds a shared `Read` in a table per (width, depth, sign)
keyed by the variable, and builds no key tuple to look it up.
A tree is still a tree by node position; only the node objects repeat.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass, field

from .framework import (
    BudgetExceeded,
    DyncxError,
    OracleDesync,
    ParseError,
    ProbeMeter,
    UndecodableUpdate,
    env_budget,
)
from .dnf import Clause, ClauseCounters, DnfInstance, FirstDnfInstance


class IndexOutOfRange(DyncxError):
    pass


class NotNormalized(DyncxError):
    pass


class EmptyCollection(DyncxError):
    pass


@dataclass(frozen=True, slots=True)
class Read:
    index: int
    left: int
    right: int


_new = object.__new__
_set_index, _set_left, _set_right = Read.index.__set__, Read.left.__set__, Read.right.__set__


def _new_read(index: int, left: int, right: int) -> Read:
    """`Read(index, left, right)` without the frozen dataclass's `__init__`,
    which pays one `object.__setattr__` per field: each field is set through
    its slot descriptor. The result is an ordinary `Read`, equal to, hashing
    as and as frozen as the constructor's."""
    node = _new(Read)
    _set_index(node, index)
    _set_left(node, left)
    _set_right(node, right)
    return node


@dataclass(frozen=True, slots=True)
class Write:
    index: int
    bit: int
    child: int


@dataclass(frozen=True, slots=True)
class End:
    x: int
    y: int
    rank: int


@dataclass(slots=True)
class DecisionTree:
    """Node 0 is the root; children are node-list positions.

    A tree checks its shape when it is built (`validate`) and records its
    `span`, one past the largest memory index any node touches, so that a
    collection can check that it fits its memory without a second walk,
    and its depth, the most Read and Write nodes on one root-to-leaf path.
    """

    nodes: list
    span: int = field(init=False, repr=False, compare=False)
    _depth: int = field(init=False, repr=False, compare=False)

    def validate(self, memory_len: int | None = None) -> "DecisionTree":
        """One walk from the root: every node is reached once and is exactly
        a `Read`, `Write` or `End` (no subclass, so that `execute_tree` can
        dispatch on type), labels and written bits are bits, indices are
        nonnegative, and no path reads an index twice or after writing it.
        Sets `span` and the depth; with memory_len, the span must not
        exceed it."""
        nodes = self.nodes
        size = len(nodes)
        if not size:
            raise ParseError("tree has no nodes")
        reached = bytearray(size)
        reached[0] = 1
        span = depth = 0
        stack = [(0, (), ())]
        while stack:
            at, read_seen, written = stack.pop()
            node = nodes[at]
            kind = type(node)
            if kind is End:
                if node.x not in (0, 1):
                    raise ParseError(f"node {at}: x label must be a bit")
                # one index per Read and per Write on the path to this leaf
                if len(read_seen) + len(written) > depth:
                    depth = len(read_seen) + len(written)
                continue
            if kind is Read:
                index = node.index
                if index in read_seen:
                    raise NotNormalized(f"variable {index} read twice on a path")
                if index in written:
                    raise NotNormalized(f"variable {index} read after a write on a path")
                read_seen += (index,)
                children = (node.left, node.right)
            elif kind is Write:
                if node.bit not in (0, 1):
                    raise ParseError(f"node {at}: write bit must be 0/1")
                index = node.index
                written += (index,)
                children = (node.child,)
            else:
                raise ParseError(f"node {at}: unknown node kind {node!r}")
            if index < 0:
                raise IndexOutOfRange(f"node {at}: index {index}")
            if index >= span:
                span = index + 1
            for c in children:
                if not 0 <= c < size:
                    raise ParseError(f"node {at}: child {c} out of range")
                if reached[c]:
                    raise ParseError(f"node {c} referenced twice or is the root")
                reached[c] = 1
                stack.append((c, read_seen, written))
        if 0 in reached:
            raise ParseError("unreachable nodes present")
        self.span, self._depth = span, depth
        if memory_len is not None and span > memory_len:
            raise IndexOutOfRange(f"index {span - 1} vs memory of {memory_len}")
        return self

    __post_init__ = validate

    @staticmethod
    def _unchecked(nodes: list, span: int, depth: int) -> "DecisionTree":
        """A tree from nodes already known to be in normal form, with their
        span and depth, without a second check."""
        tree = object.__new__(DecisionTree)
        tree.nodes, tree.span, tree._depth = nodes, span, depth
        return tree

    def depth(self) -> int:
        """The most Read and Write nodes on one root-to-leaf path, as
        recorded when the tree was checked or compiled."""
        return self._depth


@dataclass
class FdtInstance:
    memory: list[int]
    trees: list[DecisionTree]

    def validate(self) -> "FdtInstance":
        """Each tree checked its shape when it was built; here its span
        must fit the memory, with no walk."""
        size = len(self.memory)
        for t_idx, t in enumerate(self.trees):
            if t.span > size:
                raise IndexOutOfRange(
                    f"tree {t_idx}: index {t.span - 1} vs memory of {size}")
        return self

    __post_init__ = validate


def execute_tree(tree: DecisionTree, memory: list[int], meter: ProbeMeter | None = None):
    """Run one tree against (and mutating) the given memory.

    Returns (leaf node id, list of (position, bit) writes in order). Nodes
    are dispatched on their exact type, the kinds `DecisionTree.validate`
    accepts. The walk charges its path once: one probe per Read or Write
    node on it, never more than the tree depth, added to `meter` in one
    addition, also when an index past the memory stops it at that node.
    """
    nodes = tree.nodes
    size = len(memory)
    writes: list[tuple[int, int]] = []
    at = steps = 0
    node = nodes[0]
    kind = type(node)
    try:
        while kind is not End:
            steps += 1
            index = node.index
            if not 0 <= index < size:
                raise IndexOutOfRange(f"index {index} vs memory of {size}")
            if kind is Read:
                at = node.right if memory[index] else node.left
            else:
                memory[index] = node.bit
                writes.append((index, node.bit))
                at = node.child
            node = nodes[at]
            kind = type(node)
    finally:
        if meter is not None:
            meter.count += steps
    return at, writes


def execution_leaf(tree: DecisionTree, memory: list[int]) -> End:
    leaf, _ = execute_tree(tree, list(memory))
    return tree.nodes[leaf]


def fdt_answer(inst: FdtInstance) -> int:
    """Index of the tree whose execution leaf has maximal rank.

    Each tree runs on a scratch copy, so answering never moves the memory.
    Ties break toward the smallest tree index.
    """
    if not inst.trees:
        raise EmptyCollection("no trees to choose from")
    best_idx, best_rank = None, None
    for idx, tree in enumerate(inst.trees):
        leaf, _ = execute_tree(tree, list(inst.memory))
        rank = tree.nodes[leaf].rank
        if best_rank is None or rank > best_rank:
            best_idx, best_rank = idx, rank
    return best_idx


def fdt_update(inst: FdtInstance, position: int, value: int) -> FdtInstance:
    if not 0 <= position < len(inst.memory):
        raise IndexOutOfRange(
            f"position {position + 1} out of range 1..{len(inst.memory)}")
    inst.memory[position] = value
    return inst


# ---------------------------------------------------------------------------
# fDT -> first-DNF
# ---------------------------------------------------------------------------


def root_to_leaf_paths(trees, cut=None):
    """Yield (tree index, leaf node id, rank, literals) per root-to-leaf
    path of every tree in turn, each tree's paths left before right.

    Left branches contribute negated literals, right branches positive ones,
    as (index, positive) pairs; write nodes contribute nothing (normal form
    guarantees later reads never see them). Each End node ends one path.
    Nodes are dispatched on their exact type, as in `execute_tree`.

    `cut`, a (rank, tree index) pair, keeps only the paths whose leaf rank
    is above that rank, or equal to it in a tree up to that index; a read
    tests its End children against it before building their literal
    tuples, so a dropped path's tuple is never built. The kept paths come
    in the same order. Without a cut every path is kept.
    """
    floor, last_tied = (-math.inf, -1) if cut is None else cut
    stack: list = []  # the right branches still to walk, empty between trees
    for t_idx, tree in enumerate(trees):
        nodes = tree.nodes
        tied = t_idx <= last_tied
        at, lits = 0, ()
        while True:
            node = nodes[at]
            kind = type(node)
            if kind is Read:
                # go on down the left branch if it is kept, else the right
                index, left, right = node.index, node.left, node.right
                child = nodes[right]
                go_right = (type(child) is not End or child.rank > floor
                            or tied and child.rank == floor)
                child = nodes[left]
                if (type(child) is not End or child.rank > floor
                        or tied and child.rank == floor):
                    if go_right:
                        stack.append((right, lits + ((index, True),)))
                    at, lits = left, lits + ((index, False),)
                    continue
                if go_right:
                    at, lits = right, lits + ((index, True),)
                    continue
            elif kind is Write:
                at = node.child
                continue
            else:
                rank = node.rank
                if rank > floor or tied and rank == floor:
                    yield t_idx, at, rank, lits
            if not stack:
                break
            at, lits = stack.pop()


@dataclass
class FdnfImage:
    """first-DNF picture of a tree collection plus provenance per clause."""

    fdnf: FirstDnfInstance
    clause_tree: list[int]
    clause_leaf: list[int]
    clause_rank: list[int]


def fdt_to_fdnf(inst: FdtInstance) -> FdnfImage:
    """One clause per root-to-leaf path (`root_to_leaf_paths`). Clause order
    is descending leaf rank, ties by (tree index, path discovery order)."""
    clauses: list[Clause] = []
    provenance: list[tuple[int, int, int]] = []  # (tree, leaf, rank)
    for t_idx, leaf, rank, lits in root_to_leaf_paths(inst.trees):
        clauses.append(Clause(lits))
        provenance.append((t_idx, leaf, rank))
    base = DnfInstance(
        num_vars=len(inst.memory),
        clauses=clauses,
        assignment=list(inst.memory),
        width=max((c.width for c in clauses), default=0),
    )
    order = sorted(
        range(len(clauses)),
        key=lambda j: (-provenance[j][2], provenance[j][0], j),
    )
    fdnf = FirstDnfInstance(base, order)
    return FdnfImage(
        fdnf,
        [p[0] for p in provenance],
        [p[1] for p in provenance],
        [p[2] for p in provenance],
    )


# ---------------------------------------------------------------------------
# Clause-verifier compiler and the completeness harness
# ---------------------------------------------------------------------------


def compile_dnf_verifier_to_trees(inst: DnfInstance, budget: int | None = None):
    """One tree per clause index plus a trailing null-proof tree.

    Tree j walks clause j's literals in order; reaching the end means the
    clause is satisfied (leaf x=1, y=1, rank 1), any mismatch bails out
    (x=0, y=-1, rank -1). The final tree is a lone end node (x=0, y=0,
    rank 0): conceding earns more than lying.

    The compiled trees are trusted, not walked: they are in normal form by
    construction, since the instance was checked when it was built (no
    clause repeats a variable, every variable is below num_vars), so each
    is built unchecked with the span its clause gives.

    The trees share their nodes: the accept and reject leaves are one
    object each, and a test is one `Read` per distinct (index, left,
    right), which equal literals at equal depths of equal-width clauses
    give: 2000 random width-3 clauses over 500 variables hold 6000 reads
    but only about 1500 distinct ones. The (left, right) of a literal's
    read is fixed by the width, the depth and the sign, so each of those
    keeps a dict of its reads keyed by the variable, and no lookup builds
    a key tuple that the compile would drop and CPython park on its free
    list. Trees whose largest variable is equal share one span int, where
    `var + 1` would make a new one for each past 255. What the compile
    leaves behind is its trees: about 222 B per clause on that input
    (CPython 3.10-3.13, traced), and nothing parked."""
    budget = env_budget() if budget is None else budget
    if len(inst.clauses) > budget:
        raise BudgetExceeded(f"{len(inst.clauses)} clauses exceeds budget {budget}")
    unchecked = DecisionTree._unchecked
    trees = []
    # nodes are immutable, so every node list holds the same two leaves and
    # one Read per distinct (index, left, right), found by the variable in
    # its (width, depth, sign) table: width -> (negative literals' tables,
    # positive literals' tables), one table per depth
    accept, reject = End(1, 1, 1), End(0, -1, -1)
    tables: dict[int, tuple[list[dict], list[dict]]] = {}
    spans: dict[int, int] = {}  # largest variable -> the one shared span
    for c in inst.clauses:
        literals = c.literals
        width = len(literals)
        by_sign = tables.get(width)
        if by_sign is None:
            by_sign = tables[width] = ([{} for _ in literals], [{} for _ in literals])
        neg_tables, pos_tables = by_sign
        # the reads, then the accept leaf, then one reject leaf per read:
        # one shared fail leaf per mismatch keeps this a tree, not a DAG
        nodes = [reject] * (2 * width + 1)
        nodes[width] = accept
        depth, top = 0, -1
        for var, positive in literals:
            table = pos_tables[depth] if positive else neg_tables[depth]
            node = table.get(var)
            if node is None:
                # the read after the last one is the accept leaf at `width`
                fail = width + 1 + depth
                node = table[var] = (_new_read(var, fail, depth + 1) if positive
                                     else _new_read(var, depth + 1, fail))
            nodes[depth] = node
            depth += 1
            if var > top:
                top = var
        span = spans.get(top)
        if span is None:
            span = spans[top] = top + 1
        trees.append(unchecked(nodes, span, width))
    trees.append(unchecked([End(0, 0, 0)], 0, 0))
    return trees


class FdtOracle:
    """Mirror of the verifier memory that answers the rank argmax by index.

    Root-to-leaf paths are clauses (`root_to_leaf_paths`) held in a
    `ClauseCounters`, at their positions in `fdt_to_fdnf`'s order (-rank,
    tree, discovery). In normal form exactly one path per tree is satisfied
    on the current memory, so the first satisfied position belongs to
    `fdt_answer`'s tree. A read-free path (a chain of writes from the root
    to an end node) has no literals and is always satisfied, so nothing
    ranked after the first one can come first: the oracle keeps only the
    paths up to and including it, and its walk builds the literals of no
    other path. For compiled verifiers that is each clause's accepting
    path and the trailing null-proof tree. An update costs the bit's
    occurrences over the kept paths, an answer O(log paths) amortized.
    The mirrored memory is the counters' assignment.
    Each tree checked itself when it was built, or was compiled from a
    checked instance and is trusted; its `FdtInstance` checked the spans.
    """

    def __init__(self, inst: FdtInstance):
        trees = inst.trees
        # the cut: the top-ranked read-free tree, lowest index on ties,
        # found by following each root's write chain
        cut_rank, cut_tree = -math.inf, len(trees)
        for t_idx, tree in enumerate(trees):
            nodes = tree.nodes
            node = nodes[0]
            while type(node) is Write:
                node = nodes[node.child]
            if type(node) is End and node.rank > cut_rank:
                cut_rank, cut_tree = node.rank, t_idx

        # one path per kept End node: bucket start per rank, highest first;
        # a rank tied with the cut's is kept up to the cut's tree
        per_rank = Counter(
            node.rank
            for t_idx, tree in enumerate(trees)
            for node in tree.nodes
            if type(node) is End
            and (node.rank > cut_rank or node.rank == cut_rank and t_idx <= cut_tree)
        )
        offset, total = {}, 0
        for rank in sorted(per_rank, reverse=True):
            offset[rank] = total
            total += per_rank[rank]
        self.path_tree = path_tree = array("i", [0]) * total

        def placed():
            for t_idx, _, rank, lits in root_to_leaf_paths(trees, (cut_rank, cut_tree)):
                pos = offset[rank]
                offset[rank] = pos + 1
                path_tree[pos] = t_idx
                yield pos, lits

        self.paths = ClauseCounters.from_literals(
            len(inst.memory), inst.memory, total, placed()
        )

    def update(self, position: int, value: int):
        if not 0 <= position < self.paths.num_vars:
            raise IndexOutOfRange(
                f"position {position + 1} out of range 1..{self.paths.num_vars}")
        self.paths.flip(position, value)

    def answer(self) -> int:
        pos = self.paths.first()
        if pos is None:
            raise EmptyCollection("no trees to choose from")
        return self.path_tree[pos]

    def memory_view(self) -> list[int]:
        """The mirrored memory itself, not a copy: read it, never write it."""
        return self.paths.assignment


def completeness_harness(
    trees,
    memory,
    stream,
    oracle: FdtOracle | None = None,
    trace: list | None = None,
):
    """Run a tree-compiled verifier, outsourcing proof choice to an oracle.

    Per step: apply the update to the verifier memory, mirror the changed
    bits into the oracle, take the oracle's argmax tree as the proof,
    execute that tree on the verifier memory, mirror its writes back, check
    that the oracle's memory still equals the verifier's (`OracleDesync`
    otherwise), and emit the leaf's x label. The step-0 entry is the
    preprocessing answer.
    """
    memory = list(memory)
    if oracle is None:
        oracle = FdtOracle(FdtInstance(list(memory), list(trees)))

    answers = []

    def consult(update_writes: list[tuple[int, int]], update_tok):
        mirrored = 0
        for pos, bit in update_writes:
            oracle.update(pos, bit)
            mirrored += 1
        pi = oracle.answer()
        leaf, writes = execute_tree(trees[pi], memory)
        for pos, bit in writes:
            oracle.update(pos, bit)
            mirrored += 1
        if oracle.memory_view() != memory:
            raise OracleDesync("oracle memory diverged from verifier memory")
        if trace is not None:
            trace.append(
                {
                    "update": update_tok,
                    "proof_tree": pi,
                    "leaf": leaf,
                    "mirrored_bits": mirrored,
                    "y": trees[pi].nodes[leaf].y,
                }
            )
        answers.append(trees[pi].nodes[leaf].x)

    consult([], None)
    for tok in stream:
        if tok[0] == "f":
            _, pos, bit = tok
            if not 0 <= pos < len(memory):
                raise IndexOutOfRange(
                    f"update position {pos + 1} out of range 1..{len(memory)}")
            changed = memory[pos] != bit
            memory[pos] = bit
            consult([(pos, bit)] if changed else [], tok)
        elif tok[0] == "q":
            consult([], tok)
        else:
            raise UndecodableUpdate(f"harness cannot decode update {tok!r}")
    return answers
