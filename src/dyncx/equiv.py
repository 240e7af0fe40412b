"""Equivalences between dynamic DNF, all-white, independent-set, and
sparse orthogonal vectors.

Canonical all-white orientation: colors live on the L side, the question
scans R ("is there an r whose neighbors are all white?").

Answer correspondences:
  dnf F(phi)=1            <-> all-white YES          (same bit)
  all-white YES           <-> S independent: NO      (negation)
  S independent: NO       <-> dnf F(phi)=1           (negation again)
  all-white YES           <-> exists j: u.v_j = 0    (same bit)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from .framework import (
    BudgetExceeded,
    ParseError,
    UndecodableUpdate,
    env_budget,
    read_lines,
)
from .dnf import Clause, DnfInstance

WHITE = True
BLACK = False


def check_edge(seen: set, l: int, r: int, num_l: int, num_r: int):
    """The one per-edge rule, for `parse_aw` and `AllWhiteInstance.validate`:
    (l, r) lies in range and is not in `seen`, which it then joins. Ids are
    named 1-based, as the file writes them."""
    if not (0 <= l < num_l and 0 <= r < num_r):
        raise ParseError(f"edge ({l + 1},{r + 1}) out of range")
    if (l, r) in seen:
        raise ParseError(f"duplicate edge ({l + 1},{r + 1})")
    seen.add((l, r))


@dataclass
class AllWhiteInstance:
    num_l: int
    num_r: int
    edges: list[tuple[int, int]]  # (l, r) pairs
    colors: list[bool]  # per L node; True = white
    width: int | None = None  # advisory bound on R-side degree

    def validate(self):
        if len(self.colors) != self.num_l:
            raise ParseError("colors length != |L|")
        seen = set()
        for l, r in self.edges:
            check_edge(seen, l, r, self.num_l, self.num_r)
        if self.width is not None:
            deg = [0] * self.num_r
            for _, r in self.edges:
                deg[r] += 1
                if deg[r] > self.width:
                    raise ParseError(f"R node {r + 1} exceeds declared width")
        return self

    __post_init__ = validate

    @staticmethod
    def _unchecked(num_l, num_r, edges, colors, width=None) -> "AllWhiteInstance":
        """An instance from parts already checked, without a second check."""
        inst = object.__new__(AllWhiteInstance)
        inst.num_l, inst.num_r, inst.width = num_l, num_r, width
        inst.edges, inst.colors = edges, colors
        return inst

    def copy(self) -> "AllWhiteInstance":
        return AllWhiteInstance._unchecked(
            self.num_l, self.num_r, list(self.edges), list(self.colors), self.width)

    def r_neighbors(self) -> list[list[int]]:
        nbrs = [[] for _ in range(self.num_r)]
        for l, r in self.edges:
            nbrs[r].append(l)
        return nbrs

    def apply(self, token):
        if token[0] == "c":
            _, node, color = token
            if not 0 <= node < self.num_l:
                raise ParseError(f"L node {node + 1} out of range")
            self.colors[node] = color == "W"
        elif token[0] == "q":
            pass
        else:
            raise UndecodableUpdate(f"all-white instance cannot apply {token!r}")


def aw_bruteforce(inst: AllWhiteInstance) -> int:
    """Scan every R node; a node with no neighbors counts as all-white."""
    nbrs = inst.r_neighbors()
    for r in range(inst.num_r):
        if all(inst.colors[l] for l in nbrs[r]):
            return 1
    return 0


class AllWhiteCounters:
    """Per-R-node count of black neighbors, packed; answer = some count is zero.

    The counts are packed into one int, `count`: R node r's count is the
    w-bit field at bit w*r, where w = |L|.bit_length() + 1 (see `layout`).
    A count never exceeds |L| < 2^(w-1), so the top bit of every field is
    a guard that no carry reaches. `masks[l]` has a 1 in field r for each
    edge (l, r), so blackening l is `count += masks[l]` and whitening it
    `count -= masks[l]`. Adding 2^(w-1) - 1 to every field sets a field's
    guard bit exactly when its count is nonzero, so the answer is one add,
    one AND and one compare (Lamport, "Multiple byte processing with
    full-word instructions", CACM 1975). Each recolor or answer therefore
    costs O(1) big-int operations on R*w-bit words, and the masks take w
    times the memory of one bit per R node. `ops` counts calls:
    +1 per `answer` and +1 per `set_color`, a call that changes nothing
    included.
    """

    def __init__(self, inst: AllWhiteInstance):
        width, _ = self.layout(inst.num_l, inst.num_r)
        masks = [0] * inst.num_l
        for l, r in inst.edges:
            masks[l] |= 1 << (width * r)
        self._fill(inst.num_r, masks, list(inst.colors))

    @staticmethod
    def layout(num_l: int, num_r: int) -> tuple[int, int]:
        """(w, unit): the field width for counts up to num_l, and the int
        with a 1 in each of num_r fields."""
        width = num_l.bit_length() + 1
        return width, ((1 << (width * num_r)) - 1) // ((1 << width) - 1)

    @classmethod
    def from_masks(cls, num_r: int, masks, colors) -> "AllWhiteCounters":
        """Counters over neighbor masks (one per L node) already in the
        packed layout: bit w*r of masks[l] is set when (l, r) is an edge,
        with w from `layout(len(masks), num_r)`. Both lists are kept as
        they are handed over, not copied: `set_color` writes to `colors`,
        so the caller passes lists it no longer changes. Nothing is
        validated."""
        self = cls.__new__(cls)
        self._fill(num_r, masks, colors)
        return self

    def _fill(self, num_r, masks, colors):
        width, unit = self.layout(len(masks), num_r)
        self.high = unit << (width - 1)  # the guard bit of every field
        self.low = self.high - unit  # 2^(w-1) - 1 in every field
        self.masks, self.colors = masks, colors
        count = 0
        for node, white in enumerate(colors):
            if not white:
                count += masks[node]
        self.count = count
        self.ops = 0

    def _any_zero(self) -> int:
        return 1 if (self.count + self.low) & self.high != self.high else 0

    def answer(self) -> int:
        self.ops += 1
        return self._any_zero()

    def set_color(self, node: int, white: bool):
        self.ops += 1
        if self.colors[node] == white:
            return
        self.colors[node] = white
        if white:
            self.count -= self.masks[node]
        else:
            self.count += self.masks[node]

    def apply(self, token) -> int:
        if token[0] == "c":
            self.set_color(token[1], token[2] == "W")
            return self._any_zero()
        if token[0] == "q":
            return self._any_zero()
        raise UndecodableUpdate(f"all-white counters cannot apply {token!r}")


# ---------------------------------------------------------------------------
# Sparse orthogonal vectors
# ---------------------------------------------------------------------------


@dataclass
class SparseOvInstance:
    """u in {0,1}^n against columns v_1..v_m stored as sorted index lists.

    Question: is there a j with u . v_j = 0?
    """

    n: int
    m: int
    columns: list[list[int]]
    u: list[int]

    def validate(self):
        if len(self.u) != self.n or len(self.columns) != self.m:
            raise ParseError("dimension mismatch")
        for j, col in enumerate(self.columns):
            if col != sorted(set(col)):
                raise ParseError(f"column {j} must be sorted and duplicate-free")
            if col and not (0 <= col[0] and col[-1] < self.n):
                raise ParseError(f"column {j} index out of range")
        return self

    __post_init__ = validate

    def apply(self, token):
        if token[0] == "u":
            _, i, bit = token
            if not 0 <= i < self.n:
                raise ParseError(f"u index {i} out of range")
            self.u[i] = bit
        elif token[0] == "q":
            pass
        else:
            raise UndecodableUpdate(f"ov instance cannot apply {token!r}")


def ov_bruteforce(inst: SparseOvInstance) -> int:
    for col in inst.columns:
        if all(inst.u[i] == 0 for i in col):
            return 1
    return 0


# ---------------------------------------------------------------------------
# Independent set under membership toggles
# ---------------------------------------------------------------------------


@dataclass
class HypergraphInstance:
    """Hypergraph plus a node subset S; question: is S independent?

    S is independent when no hyperedge is fully inside S. An empty hyperedge
    is vacuously inside every S; the file format cannot write one.
    """

    num_nodes: int
    hyperedges: list[tuple[int, ...]]
    s: set[int] = field(default_factory=set)

    def validate(self):
        for k, e in enumerate(self.hyperedges):
            if any(not 0 <= v < self.num_nodes for v in e):
                raise ParseError(f"hyperedge {k} node out of range")
            if len(set(e)) != len(e):
                raise ParseError(f"hyperedge {k} repeats a node")
        if any(not 0 <= v < self.num_nodes for v in self.s):
            raise ParseError("S contains an out-of-range node")
        return self

    __post_init__ = validate

    def apply(self, token):
        if token[0] == "s":
            _, sign, v = token
            if not 0 <= v < self.num_nodes:
                raise ParseError(f"node {v} out of range")
            if sign == "+":
                self.s.add(v)
            elif sign == "-":
                self.s.discard(v)
            else:
                raise UndecodableUpdate(f"bad membership sign {sign!r}")
        elif token[0] == "q":
            pass
        else:
            raise UndecodableUpdate(f"hypergraph instance cannot apply {token!r}")


def indep_bruteforce(inst: HypergraphInstance) -> int:
    """1 when S is independent (no hyperedge fully white-side, so to speak)."""
    for e in inst.hyperedges:
        if all(v in inst.s for v in e):
            return 0
    return 1


# ---------------------------------------------------------------------------
# Converters. Each returns (target instance, translator); a translator maps
# one source token to the list of target tokens (2 for a dnf->aw flip,
# exactly 1 elsewhere).
# ---------------------------------------------------------------------------


def _translator(kind: str, name: str, emit):
    """Translator for a source whose updates are `kind` tokens: a query
    maps to a query, a `kind` token to `emit(*fields)`, anything else is
    an UndecodableUpdate naming the converter."""

    def translate(token):
        if token[0] == "q":
            return [("q",)]
        if token[0] != kind:
            raise UndecodableUpdate(f"{name} cannot translate {token!r}")
        return emit(*token[1:])

    return translate


def dnf_to_aw(inst: DnfInstance):
    """Variables split into positive/negative literal nodes (2i, 2i+1);
    clause j becomes R node j adjacent to the literal nodes it contains.
    phi(x_i)=1 colors node 2i white and 2i+1 black; F(phi)=1 iff some R node
    is all-white."""
    edges = []
    for j, c in enumerate(inst.clauses):
        for var, positive in c.literals:
            node = 2 * var if positive else 2 * var + 1
            edges.append((node, j))
    colors = []
    for var in range(inst.num_vars):
        white = bool(inst.assignment[var])
        colors.extend([white, not white])
    aw = AllWhiteInstance(
        num_l=2 * inst.num_vars,
        num_r=len(inst.clauses),
        edges=edges,
        colors=colors,
        width=inst.width,
    )
    return aw, _translator("f", "dnf->aw", lambda var, bit: [
        ("c", 2 * var, "W" if bit else "B"), ("c", 2 * var + 1, "B" if bit else "W")])


def aw_to_indep(inst: AllWhiteInstance):
    """V = L, one hyperedge per R node's neighborhood, S = white nodes.
    S is independent exactly when no R node is all-white (negation)."""
    hg = HypergraphInstance(
        num_nodes=inst.num_l,
        hyperedges=[tuple(sorted(n)) for n in inst.r_neighbors()],
        s={l for l in range(inst.num_l) if inst.colors[l]},
    )
    return hg, _translator("c", "aw->indep", lambda node, color: [
        ("s", "+" if color == "W" else "-", node)])


def indep_to_dnf(inst: HypergraphInstance):
    """Positive clauses: C_j holds x_i iff node i is in hyperedge j;
    phi(x_i)=1 iff i in S. F(phi)=1 exactly when S is NOT independent."""
    dnf = DnfInstance(
        num_vars=inst.num_nodes,
        clauses=[Clause(tuple((v, True) for v in e)) for e in inst.hyperedges],
        assignment=[1 if v in inst.s else 0 for v in range(inst.num_nodes)],
        width=max((len(e) for e in inst.hyperedges), default=0),
    )
    return dnf, _translator("s", "indep->dnf", lambda sign, v: [
        ("f", v, 1 if sign == "+" else 0)])


def aw_to_ov(inst: AllWhiteInstance):
    """Columns are the R-side neighborhoods; u_i = 1 iff L node i is black.
    Some u.v_j = 0 exactly when some R node is all-white (same bit)."""
    ov = SparseOvInstance(
        n=inst.num_l,
        m=inst.num_r,
        columns=[sorted(n) for n in inst.r_neighbors()],
        u=[0 if inst.colors[l] else 1 for l in range(inst.num_l)],
    )
    return ov, _translator("c", "aw->ov", lambda node, color: [
        ("u", node, 0 if color == "W" else 1)])


def ov_to_aw(inst: SparseOvInstance):
    aw = AllWhiteInstance(
        num_l=inst.n,
        num_r=inst.m,
        edges=sorted((i, j) for j, col in enumerate(inst.columns) for i in col),
        colors=[inst.u[i] == 0 for i in range(inst.n)],
    )
    return aw, _translator("u", "ov->aw", lambda i, bit: [("c", i, "B" if bit else "W")])


# ---------------------------------------------------------------------------
# Hypergraph-to-graph lift
# ---------------------------------------------------------------------------


def hypergraph_lift(inst: HypergraphInstance, k: int, budget: int | None = None):
    """Lift a 2k-uniform hypergraph H to a graph G on the k-subsets of V(H).

    Every hyperedge e contributes one G edge per split of e into two
    k-subsets. The query set for S_H is {v_T : T subset of S_H, |T|=k};
    that set is independent in G iff S_H is independent in H.

    Returns (num_nodes, edges, subset_index) where subset_index maps a
    sorted k-tuple of H nodes to its G node id.
    """
    if k < 1:
        raise ParseError("k must be >= 1")
    for e in inst.hyperedges:
        if len(e) != 2 * k:
            raise ParseError(f"hyperedge {e} is not 2k-uniform for k={k}")
    budget = env_budget() if budget is None else budget
    total = math.comb(inst.num_nodes, k) if k <= inst.num_nodes else 0
    if total > budget:
        raise BudgetExceeded(f"C({inst.num_nodes},{k}) = {total} exceeds {budget}")
    subset_index = {
        sub: idx for idx, sub in enumerate(combinations(range(inst.num_nodes), k))
    }
    edges = set()
    for e in inst.hyperedges:
        nodes = tuple(sorted(e))
        for half in combinations(nodes, k):
            # fix the smallest node into one side to take each split once
            if nodes[0] not in half:
                continue
            other = tuple(v for v in nodes if v not in half)
            a, b = subset_index[half], subset_index[other]
            edges.add((min(a, b), max(a, b)))
    return total, sorted(edges), subset_index


def lift_query_set(subset_index, s_h, k: int) -> set[int]:
    return {subset_index[sub] for sub in combinations(tuple(sorted(s_h)), k)}


def graph_set_independent(edges, node_set) -> bool:
    return not any(a in node_set and b in node_set for a, b in edges)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------
#
#   p aw <|L|> <|R|>         then `e <l> <r>` and `c <l> <W|B>` lines
# All ids 1-based.


def parse_aw(text: str) -> AllWhiteInstance:
    """Each line is checked as it is read, against the header counts, so an
    error names its line: edge lines by `check_edge` (the rule
    `AllWhiteInstance.validate` applies) and color lines for range. With
    every line checked, the instance is built without a second check."""
    edges: list[tuple[int, int]] = []
    seen: set = set()
    colors: list[bool] = []
    num_r = 0

    def start(counts):
        nonlocal num_r
        colors.extend([WHITE] * counts[0])
        num_r = counts[1]

    def line(parts, _):
        if parts[0] == "e":
            l, r = int(parts[1]) - 1, int(parts[2]) - 1
            check_edge(seen, l, r, len(colors), num_r)
            edges.append((l, r))
        elif parts[0] == "c":
            if parts[2] not in ("W", "B"):
                raise ParseError("color must be W or B")
            node = int(parts[1]) - 1
            if not 0 <= node < len(colors):
                raise ParseError(f"color line for out-of-range node {node + 1}")
            colors[node] = parts[2] == "W"
        else:
            raise ParseError("unknown line")

    num_l, num_r = read_lines(text, line, ("aw", 2), on_header=start)
    return AllWhiteInstance._unchecked(num_l, num_r, edges, colors)


def format_aw(inst: AllWhiteInstance) -> str:
    out = [f"p aw {inst.num_l} {inst.num_r}"]
    out += [f"e {l + 1} {r + 1}" for l, r in inst.edges]
    out += [
        f"c {l + 1} {'W' if white else 'B'}" for l, white in enumerate(inst.colors)
    ]
    return "\n".join(out) + "\n"
