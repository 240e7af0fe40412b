"""Reductions from the all-white problem to dynamic graph problems.

Each builder consumes an `AllWhiteInstance` (colors on the L side, scan
over R) and returns a triple (target, translator, decoder):

  * target      mutable target-problem instance with an `apply(token)`
  * translator  maps one source color token to at most one target token
  * decoder     recomputes the source answer bit from the target alone

The constructions place the colored nodes where the targets can toggle a
single edge or node per recoloring, so one color flip is one target
update throughout. Decoders lean on the brute-force solvers in
`oracles`; the targets exist to validate answer correspondence, not to
be fast. The diameter target is the connectivity protocols' own
`DynamicGraph`, which keeps each edge once, in its neighbour sets; its
decoder reads the edge set that `DynamicGraph.edges` builds from them.

The module also carries the satisfiability driver: split the variables
in half, scan all assignments of one half against clause nodes colored
by the other half, and sweep the second half in Gray-code order so each
phase recolors only the clauses whose status changed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .framework import (
    BudgetExceeded,
    ParseError,
    UndecodableUpdate,
    env_budget,
    read_lines,
)
from .connectivity import DynamicGraph
from .equiv import AllWhiteCounters, AllWhiteInstance, aw_bruteforce
from . import oracles


# ---------------------------------------------------------------------------
# Target instance types
# ---------------------------------------------------------------------------


@dataclass
class CapacitatedDigraph:
    num_nodes: int
    capacities: dict[tuple[int, int], int]
    s: int
    t: int

    def validate(self) -> "CapacitatedDigraph":
        if self.s == self.t:
            raise ParseError("source and sink coincide")
        for (u, v), cap in self.capacities.items():
            if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
                raise ParseError(f"arc ({u},{v}) out of range")
            if cap < 1:
                raise ParseError(f"arc ({u},{v}) capacity {cap} below 1")
        return self

    __post_init__ = validate

    def apply(self, token):
        if token[0] == "e" and token[1] == "+":
            _, _, u, v, cap = token
            self.capacities[(u, v)] = cap
        elif token[0] == "e" and token[1] == "-":
            _, _, u, v = token
            del self.capacities[(u, v)]
        else:
            raise UndecodableUpdate(f"capacitated digraph cannot apply {token!r}")

    def flow_value(self) -> int:
        value, _ = oracles.max_flow(self.num_nodes, self.capacities, self.s, self.t)
        return value


@dataclass
class NodeSubgraphInstance:
    """Fixed undirected graph with an on/off bit per node."""

    num_nodes: int
    edges: list[tuple[int, int]]
    on: list[bool]

    def validate(self) -> "NodeSubgraphInstance":
        for u, v in self.edges:
            if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
                raise ParseError(f"edge ({u},{v}) out of range")
        if len(self.on) != self.num_nodes:
            raise ParseError("on/off vector length mismatch")
        return self

    __post_init__ = validate

    def apply(self, token):
        if token[0] in ("on", "off"):
            self.on[token[1]] = token[0] == "on"
        else:
            raise UndecodableUpdate(f"node subgraph cannot apply {token!r}")

    def induced_connected(self) -> bool:
        index = {v: i for i, v in enumerate(v for v in range(self.num_nodes) if self.on[v])}
        induced = [(index[u], index[v]) for u, v in self.edges if u in index and v in index]
        return oracles.is_connected(len(index), induced)


@dataclass
class DigraphInstance:
    num_nodes: int
    arcs: set[tuple[int, int]]

    def apply(self, token):
        if token[0] == "e" and token[1] == "+":
            self.arcs.add((token[2], token[3]))
        elif token[0] == "e" and token[1] == "-":
            self.arcs.discard((token[2], token[3]))
        elif token[0] == "bi" and token[1] == "+":
            # one update toggling an arc pair keeps flip arity at one
            self.arcs.add((token[2], token[3]))
            self.arcs.add((token[3], token[2]))
        elif token[0] == "bi" and token[1] == "-":
            self.arcs.discard((token[2], token[3]))
            self.arcs.discard((token[3], token[2]))
        else:
            raise UndecodableUpdate(f"digraph cannot apply {token!r}")

    def out_degree(self, v: int) -> int:
        return sum(1 for a, _ in self.arcs if a == v)


# ---------------------------------------------------------------------------
# Shared translator plumbing
# ---------------------------------------------------------------------------


class _ColorTranslator:
    """Tracks source colors; emits one target token per actual flip."""

    def __init__(self, colors, on_flip):
        self.colors = list(colors)
        self.on_flip = on_flip

    def __call__(self, token):
        if token[0] == "q":
            return []
        if token[0] != "c":
            raise UndecodableUpdate(f"translator cannot map {token!r}")
        node, white = token[1], token[2] == "W"
        if self.colors[node] == white:
            return []
        self.colors[node] = white
        return [self.on_flip(node, white)]


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------
#
# The colored nodes sit on the updatable side of every construction; the
# scanned nodes are the ones probed for an all-white neighborhood.


def build_maxflow(aw: AllWhiteInstance):
    """Unit-capacity network: s -> scanned -> colored, black colored -> t.

    Flow saturates all |scanned| source arcs exactly when every scanned
    node can push its unit through some black neighbor, so value equals
    |scanned| iff the source answer is NO.
    """
    s, t = 0, 1
    scan0, col0 = 2, 2 + aw.num_r
    big = max(aw.num_r, 1)
    caps: dict[tuple[int, int], int] = {}
    for r in range(aw.num_r):
        caps[(s, scan0 + r)] = 1
    for l, r in aw.edges:
        caps[(scan0 + r, col0 + l)] = 1
    for l, white in enumerate(aw.colors):
        if not white:
            caps[(col0 + l, t)] = big
    target = CapacitatedDigraph(col0 + aw.num_l, caps, s, t)

    def on_flip(node, white):
        if white:
            return ("e", "-", col0 + node, t)
        return ("e", "+", col0 + node, t, big)

    want = aw.num_r

    def decoder(tgt: CapacitatedDigraph) -> int:
        return 0 if tgt.flow_value() == want else 1

    return target, _ColorTranslator(aw.colors, on_flip), decoder


def build_subgraph_connectivity(aw: AllWhiteInstance):
    """Hub s wired to every colored node; on-set = scanned + s + blacks.

    A scanned node with only white (off) neighbors is isolated in the
    induced subgraph; otherwise everything hangs off s through a black.
    """
    scan0 = aw.num_l
    s = aw.num_l + aw.num_r
    edges = [(l, scan0 + r) for l, r in aw.edges]
    edges += [(l, s) for l in range(aw.num_l)]
    on = [not white for white in aw.colors] + [True] * (aw.num_r + 1)
    target = NodeSubgraphInstance(s + 1, edges, on)

    def on_flip(node, white):
        return ("off", node) if white else ("on", node)

    def decoder(tgt: NodeSubgraphInstance) -> int:
        return 0 if tgt.induced_connected() else 1

    return target, _ColorTranslator(aw.colors, on_flip), decoder


def build_diameter(aw: AllWhiteInstance):
    """3-versus-4 diameter gap: s over the scanned side, t over blacks.

    A hub node w adjacent to s and every colored node pins all the
    uninteresting distances at 3 or less, leaving dist(scanned, t) as
    the only pair that can stretch to 4; it does exactly when some
    scanned node sees no black. Disconnection (no blacks at all) reads
    as the >=4 branch. With no scanned node the source answer is always
    NO, so t is tied to w as well, which keeps every distance at 2 or less
    whatever the colors; the decoder reads any diameter up to 3 as NO.
    """
    s, t, w = 0, 1, 2
    scan0, col0 = 3, 3 + aw.num_r
    edges: set[tuple[int, int]] = {(s, w)}
    if not aw.num_r:
        edges.add((t, w))
    for r in range(aw.num_r):
        edges.add((s, scan0 + r))
    for l, r in aw.edges:
        edges.add((min(scan0 + r, col0 + l), max(scan0 + r, col0 + l)))
    for l in range(aw.num_l):
        edges.add((w, col0 + l))
    for l, white in enumerate(aw.colors):
        if not white:
            edges.add((t, col0 + l))
    target = DynamicGraph(col0 + aw.num_l, edges)

    def on_flip(node, white):
        return ("e", "-" if white else "+", t, col0 + node)

    def decoder(tgt: DynamicGraph) -> int:
        return 0 if oracles.diameter(tgt.num_nodes, tgt.edges) <= 3 else 1

    return target, _ColorTranslator(aw.colors, on_flip), decoder


def _reach_digraph(aw: AllWhiteInstance):
    s = 0
    col0, scan0 = 1, 1 + aw.num_l
    arcs = {(col0 + l, scan0 + r) for l, r in aw.edges}
    for l, white in enumerate(aw.colors):
        if not white:
            arcs.add((s, col0 + l))
    return s, col0, scan0, arcs


def build_st_reach(aw: AllWhiteInstance):
    """Arcs colored->scanned plus s->black; T = scanned nodes.

    Every scanned node is reachable from s iff each has a black
    neighbor to hop through.
    """
    s, col0, scan0, arcs = _reach_digraph(aw)
    target = DigraphInstance(scan0 + aw.num_r, arcs)
    terminals = [scan0 + r for r in range(aw.num_r)]

    def on_flip(node, white):
        return ("e", "-" if white else "+", s, col0 + node)

    def decoder(tgt: DigraphInstance) -> int:
        seen = oracles.reachable_from(tgt.num_nodes, tgt.arcs, s)
        return 0 if all(v in seen for v in terminals) else 1

    return target, _ColorTranslator(aw.colors, on_flip), decoder


def build_count_reach(aw: AllWhiteInstance):
    """Same digraph as s-t reach; count nodes reachable from s.

    Excluding s itself, the reach is the blacks plus every scanned node
    with a black neighbor, so the count tops out at |scanned| + #black
    exactly on NO instances. The decoder reads #black back off s's
    out-degree, keeping it a function of the target alone.
    """
    s, _, _, arcs = _reach_digraph(aw)
    target = DigraphInstance(1 + aw.num_l + aw.num_r, arcs)
    num_scanned = aw.num_r

    def on_flip(node, white):
        return ("e", "-" if white else "+", s, 1 + node)

    def decoder(tgt: DigraphInstance) -> int:
        seen = oracles.reachable_from(tgt.num_nodes, tgt.arcs, s) - {s}
        return 0 if len(seen) == num_scanned + tgt.out_degree(s) else 1

    return target, _ColorTranslator(aw.colors, on_flip), decoder


def build_count_scc(aw: AllWhiteInstance):
    """Count strongly connected components of the reach digraph closed
    into cycles: scanned->s arcs plus bidirectional s<->black pairs.

    s, the blacks, and every scanned node with a black neighbor collapse
    into one component; whites are sinksless singletons; a scanned node
    with no black neighbor is a singleton too. Hence #SCC = 1 + #white
    iff the source answer is NO. One flip toggles one s<->node pair via
    a single paired-arc update.
    """
    s = 0
    col0, scan0 = 1, 1 + aw.num_l
    arcs = {(col0 + l, scan0 + r) for l, r in aw.edges}
    for r in range(aw.num_r):
        arcs.add((scan0 + r, s))
    for l, white in enumerate(aw.colors):
        if not white:
            arcs.add((s, col0 + l))
            arcs.add((col0 + l, s))
    target = DigraphInstance(scan0 + aw.num_r, arcs)
    num_colored = aw.num_l

    def on_flip(node, white):
        return ("bi", "-" if white else "+", s, col0 + node)

    def decoder(tgt: DigraphInstance) -> int:
        num_black = sum(1 for a, b in tgt.arcs if a == s and b < scan0)
        num_white = num_colored - num_black
        return 0 if oracles.scc_count(tgt.num_nodes, tgt.arcs) == 1 + num_white else 1

    return target, _ColorTranslator(aw.colors, on_flip), decoder


REDUCTIONS = {
    "maxflow": build_maxflow,
    "subconn": build_subgraph_connectivity,
    "diameter": build_diameter,
    "streach": build_st_reach,
    "countreach": build_count_reach,
    "countscc": build_count_scc,
}


# ---------------------------------------------------------------------------
# Per-step agreement harness
# ---------------------------------------------------------------------------


@dataclass
class ReductionStep:
    step: int
    update: tuple | None
    source_answer: int
    target_answer: int

    @property
    def agree(self) -> bool:
        return self.source_answer == self.target_answer


def check_reduction(build, aw: AllWhiteInstance, stream):
    """Drive source and target in lockstep; record both answers per step.

    Step 0 is the initial state. The source answer comes from the
    all-white brute force, the target answer from the decoder; agreement
    everywhere is the whole point of the catalog.
    """
    aw = aw.copy()
    target, translate, decode = build(aw)
    records = [ReductionStep(0, None, aw_bruteforce(aw), decode(target))]
    for i, token in enumerate(stream, 1):
        aw.apply(token)  # rejects out-of-range nodes before the translator sees them
        for out in translate(token):
            target.apply(out)
        records.append(ReductionStep(i, token, aw_bruteforce(aw), decode(target)))
    return records


# ---------------------------------------------------------------------------
# CNF instances and the satisfiability driver
# ---------------------------------------------------------------------------


@dataclass
class CnfInstance:
    """Clauses are tuples of nonzero 1-based signed literals."""

    num_vars: int
    clauses: list[tuple[int, ...]]

    def validate(self) -> "CnfInstance":
        for i, clause in enumerate(self.clauses):
            if not clause:
                raise ParseError(f"clause {i + 1} is empty")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ParseError(f"clause {i + 1}: literal {lit} out of range")
        return self

    __post_init__ = validate

    @staticmethod
    def _unchecked(num_vars, clauses) -> "CnfInstance":
        """An instance from parts already checked, without a second check."""
        inst = object.__new__(CnfInstance)
        inst.num_vars, inst.clauses = num_vars, clauses
        return inst


# a line whose first field is `%`, as in the trailer SATLIB files end with
_DIMACS_END = re.compile(r"^[^\S\n]*%(?![^\s#])", re.M)


def parse_dimacs(text: str) -> CnfInstance:
    """DIMACS CNF; a line whose first field is `%` ends the clause list.

    Each literal is checked against the header's variable count, and each
    clause for emptiness when its 0 closes it, on the line where that
    happens, so an error names its line. With every clause checked, the
    instance is built without a second check.
    """
    if "%" in text:
        end = _DIMACS_END.search(text)
        if end:
            text = text[: end.start()]  # only the tail goes: line numbers hold
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    num_vars = 0

    def start(counts):
        nonlocal num_vars
        num_vars = counts[0]

    def line(parts, _):
        for tok in parts:
            lit = int(tok)
            if lit == 0:
                if not pending:
                    raise ParseError(f"clause {len(clauses) + 1} is empty")
                clauses.append(tuple(pending))
                pending.clear()
            elif -num_vars <= lit <= num_vars:
                pending.append(lit)
            else:
                raise ParseError(f"clause {len(clauses) + 1}: literal {lit} out of range")

    _, expected = read_lines(text, line, ("cnf", 2), comment="c", on_header=start)
    if pending:
        raise ParseError("unterminated clause")
    if len(clauses) != expected:
        raise ParseError(f"header promised {expected} clauses, found {len(clauses)}")
    return CnfInstance._unchecked(num_vars, clauses)


def format_dimacs(inst: CnfInstance) -> str:
    lines = [f"p cnf {inst.num_vars} {len(inst.clauses)}"]
    for clause in inst.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def _read_literals(clauses, n: int, half: int, width: int, unit: int):
    """One pass over the literals: (fails, (pos, neg), held, colors).

    fails[c] holds the first-half assignments u1 that satisfy no
    first-half literal of clause c, one bit in field u1 of the packed
    layout each. pos[v] and neg[v] list the clauses holding +x and -x for
    the second half's variable v, in clause order and once per occurrence.
    held[c] counts clause c's second-half literals that hold when the
    second half is all zeros, its negative ones, and colors[c] is whether
    any does. Apart from `sat_via_allwhite` so that the per-literal masks
    are freed before the phases run: they are w times the size of a plain
    bit mask. The per-clause lists are allocated at their size, not grown,
    so the phases' peak memory holds no slack past their ends."""
    # table[lit] for a literal of the first half: the u1 that falsify it; for
    # one of the second half: the clauses holding it. A negative literal
    # indexes the table from its end. ones, the u1 whose bit v is 1, fail
    # -x_v. Adding 2^v to u1 flips its bit v+1 exactly when its bit v is 1,
    # so each such mask is the one above XOR that mask shifted down by 2^v
    # fields; `unit` plays the mask above the top one.
    table: list = [None] * (2 * n + 1)
    ones = unit
    for v in reversed(range(half)):
        ones ^= ones >> (width << v)
        table[v + 1], table[-v - 1] = unit ^ ones, ones
    for x in range(half + 1, n + 1):
        table[x], table[-x] = [], []
    m = len(clauses)
    fails, held, colors = [None] * m, [0] * m, [False] * m
    for c, clause in enumerate(clauses):
        mask, negs = unit, 0
        for lit in clause:
            entry = table[lit]
            if -half <= lit <= half:
                # a clause with one first-half literal shares that literal's mask
                mask = entry if mask is unit else mask & entry
            else:
                entry.append(c)
                negs += lit < 0
        fails[c] = mask
        if negs:
            held[c], colors[c] = negs, True
    # four items, not five: a freed 5-tuple stays on CPython's free list,
    # where tracemalloc, and so the benchmark's peak memory, still counts it
    occurrences = table[half + 1:n + 1], table[-half - 1:-n - 1:-1]
    return fails, occurrences, held, colors


def sat_via_allwhite(cnf: CnfInstance, aw_solver=None, budget: int | None = None,
                     stats: dict | None = None) -> int:
    """Decide satisfiability through a dynamic all-white solver.

    Scanned side: all assignments u1 of the first half of the variables,
    one node each, with an edge to every clause that assignment fails to
    satisfy. Colored side: the clauses. A phase fixes an assignment of
    the second half, colors each clause white iff that half already
    satisfies it, and queries; a YES phase exhibits a first-half node
    none of whose still-unsatisfied (black) clauses it misses, i.e. a
    satisfying full assignment. Phases walk the second half in
    reflected Gray-code order so only status-changing clauses get
    recolored; total solver operations stay within 2^(n/2) * (#clauses + 1).

    One pass reads each literal once through a table indexed by the
    signed literal. A first-half literal ANDs its failure mask into its
    clause's, a second-half literal adds its clause to that literal's
    occurrence list, and each negative second-half literal counts toward
    its clause holding at phase 0. The masks are in the packed layout of
    `AllWhiteCounters` (one w-bit field per scanned node, w from
    `AllWhiteCounters.layout`): bit w*u1 is set when u1 fails the clause.
    A first-half variable's mask (the u1 whose bit v is 1) takes one
    shift and one XOR, so the scanned side costs O(n + #literals) big-int
    operations. The default solver keeps these masks as they are
    (`AllWhiteCounters.from_masks`) and no edge list is built. A caller's
    `aw_solver` still gets the paper's `AllWhiteInstance`, its edge list
    read off the masks.

    Phase i flips the second-half variable that the ruler sequence
    0 1 0 2 0 1 0 3 ... names at i (Bitner, Ehrlich and Reingold, CACM
    1976), and each variable keeps the pair (clauses that gain a satisfied
    literal, clauses that lose one) for its next flip, swapped after each
    flip. A phase hands the solver the gaining clauses that turn white in
    one `set_colors(nodes, True)` call, then the losing ones that turn
    black in one `set_colors(nodes, False)`, each skipped when it would be
    empty, and then asks `answer()`. Whites going first keeps a clause
    holding both x and -x of a second-half variable white rather than
    turning it black and white again. A solver, the default one or a
    caller's `aw_solver`, implements just those two methods; the default
    charges `ops` one per recolored node and one per answer, so `ops` and
    `phases` are what one call per recolor would give.
    """
    budget = env_budget() if budget is None else budget
    n = cnf.num_vars + (cnf.num_vars % 2)
    half = n // 2
    if 2 ** half > budget:
        raise BudgetExceeded(f"2^{half} scanned nodes exceeds budget {budget}")
    m = len(cnf.clauses)

    num_r = 2 ** half
    width, unit = AllWhiteCounters.layout(m, num_r)
    # gains[v], losses[v]: the clauses that gain and lose a satisfied literal
    # on second-half variable v's next flip, the first one from 0 to 1.
    # sat2[c]: clause c's satisfied second-half literals, that half being all
    # zeros at phase 0; colors[c]: white, satisfied by that half
    fails, (gains, losses), sat2, colors = _read_literals(
        cnf.clauses, n, half, width, unit)
    if aw_solver is None:
        solver = AllWhiteCounters.from_masks(num_r, fails, colors)
    else:
        edges = [(c, u1) for u1 in range(num_r)
                 for c, mask in enumerate(fails) if mask >> (width * u1) & 1]
        solver = aw_solver(AllWhiteInstance(m, num_r, edges, colors))
    # the ruler sequence: entry j is the lowest set bit of j + 1, the bit in
    # which the reflected Gray code's words j and j + 1 differ
    ruler = b""
    for v in range(n - half):
        ruler = ruler + bytes((v,)) + ruler

    set_colors, answer = solver.set_colors, solver.answer
    phases = 1
    found = answer() == 1
    if not found:
        for phases, v in enumerate(ruler, 2):
            gain, lose = gains[v], losses[v]
            gains[v], losses[v] = lose, gain
            # each direction's recolors go to the solver in one call; a batch
            # is dropped before the next one is made, so that two are never
            # alive at once and the run's peak memory holds one list at most
            batch = []
            for c in gain:
                k = sat2[c]
                sat2[c] = k + 1
                if not k:  # newly satisfied by the half
                    batch.append(c)
            if batch:
                set_colors(batch, True)
            del batch
            batch = []
            for c in lose:
                k = sat2[c] - 1
                sat2[c] = k
                if not k:  # no longer satisfied by the half
                    batch.append(c)
            if batch:
                set_colors(batch, False)
            del batch
            if answer() == 1:
                found = True
                break

    if stats is not None:
        stats.update(
            ops=getattr(solver, "ops", None),
            phases=phases,
            num_scanned=num_r,
            num_clauses=m,
            op_bound=num_r * (m + 1),
        )
    return 1 if found else 0
