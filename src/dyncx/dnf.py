"""Dynamic DNF evaluation.

An instance is a DNF formula F over n boolean variables together with a
current assignment. Updates set one variable; the query is F's value. Two
routes are implemented: a full scan (`eval_bruteforce`) and per-clause
unsatisfied-literal counters (`ClauseCounters`) whose flip cost is the
variable's number of occurrences. The counters also index the satisfied
clauses, so the first satisfied one is at hand after every flip; the
honest DNF prover (`honest_dnf_prover`) reads its proof from there.

The "first satisfied clause" variant keeps a total order on clauses and asks
for the first satisfied one. It reduces to plain dynamic DNF by adding
pairs of search variables and binary-searching on the clause index; one
query costs at most 5*ceil(log2 m) variable flips and leaves the search
variables all-ones.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import repeat

from .framework import (
    BOTTOM,
    OUTPUTS,
    ParseError,
    ProbeMeter,
    UndecodableUpdate,
    VerifierOutput,
    decode_index,
    encode_index,
    read_lines,
)


class MalformedClause(ParseError):
    pass


class VarOutOfRange(ParseError):
    pass


@dataclass(frozen=True, slots=True)
class Clause:
    """Conjunction of literals; (var, True) is positive, (var, False) negated.

    A clause with zero literals evaluates to true.
    """

    literals: tuple[tuple[int, bool], ...]

    @property
    def width(self) -> int:
        return len(self.literals)

    def satisfied_by(self, assignment) -> bool:
        for var, positive in self.literals:
            if bool(assignment[var]) != positive:
                return False
        return True


def clause(*lits: int) -> Clause:
    """Build a clause from nonzero 1-based signed literals (DIMACS style)."""
    return Clause(tuple((abs(l) - 1, l > 0) for l in lits))


def check_clause(literals, num_vars: int, width: int | None):
    """The one per-clause rule, for `parse_dnf` and `DnfInstance.validate`:
    at most `width` literals (when given), over range(num_vars), no
    variable twice."""
    if width is not None and len(literals) > width:
        raise MalformedClause(f"{len(literals)} literals, declared width is {width}")
    seen = set()
    for var, _ in literals:
        if not 0 <= var < num_vars:
            raise VarOutOfRange(f"variable {var + 1} out of range 1..{num_vars}")
        if var in seen:
            raise MalformedClause(f"variable {var + 1} appears twice")
        seen.add(var)


@dataclass
class DnfInstance:
    """A formula and its current assignment, checked when built."""

    num_vars: int
    clauses: list[Clause]
    assignment: list[int]
    width: int | None = None  # advisory bound, not enforced by the ops

    def validate(self):
        if len(self.assignment) != self.num_vars:
            raise ParseError("assignment length != num_vars")
        n, w = self.num_vars, self.width
        for j, c in enumerate(self.clauses):
            try:
                check_clause(c.literals, n, w)
            except ParseError as exc:
                raise type(exc)(f"clause {j}: {exc}") from None
        return self

    __post_init__ = validate

    @staticmethod
    def _unchecked(num_vars, clauses, assignment, width) -> "DnfInstance":
        """An instance from parts already checked, without a second check."""
        inst = object.__new__(DnfInstance)
        inst.num_vars, inst.clauses = num_vars, clauses
        inst.assignment, inst.width = assignment, width
        return inst

    def copy(self) -> "DnfInstance":
        return DnfInstance._unchecked(
            self.num_vars, self.clauses, list(self.assignment), self.width)

    def apply(self, token):
        if token[0] == "f":
            _, var, bit = token
            if not 0 <= var < self.num_vars:
                raise VarOutOfRange(
                    f"variable {var + 1} out of range 1..{self.num_vars}")
            self.assignment[var] = bit
        elif token[0] == "q":
            pass
        else:
            raise UndecodableUpdate(f"dnf instance cannot apply {token!r}")


def eval_bruteforce(inst: DnfInstance) -> int:
    """Full scan; the oracle route. Empty formula (m=0) evaluates to 0."""
    for c in inst.clauses:
        if c.satisfied_by(inst.assignment):
            return 1
    return 0


# ---------------------------------------------------------------------------
# Counter-based dynamic algorithm
# ---------------------------------------------------------------------------

_NO_POSITIONS = array("i")  # copied, never filled


class ClauseCounters:
    """Per-clause count of unsatisfied literals, a satisfied-clause tally and
    an index of the satisfied clause positions.

    Occurrences are kept per variable and sign: `holds[b][var]` lists, in
    placement order, the positions whose literal on var holds when var = b.
    flip(var, bit) touches exactly those two lists of var, the positions
    whose literal turns false and then those whose literal turns true, with
    no per-occurrence sign test; a flip to the current value is a no-op.
    `meter` counts those touches. `first()` names the smallest satisfied
    position: satisfied positions sit in a lazy min-heap, pushed when their
    count reaches zero and popped once they are found unsatisfied at its
    top, so a flip costs its occurrences plus O(log m) per clause it
    satisfies. No clause holds a variable twice, so a position is in at most
    one of a flip's two lists and the order of the two walks changes
    neither the counts nor the heap's pushes.
    """

    def __init__(self, inst: DnfInstance):
        self._fill(inst.num_vars, inst.assignment, len(inst.clauses),
                   enumerate(c.literals for c in inst.clauses))

    @classmethod
    def from_literals(cls, num_vars: int, assignment, m: int, placed) -> "ClauseCounters":
        """Counters without Clause objects; nothing is validated.

        `placed` yields (position, literals) once for each position in
        range(m), in any order; literals are (var, positive) pairs over
        range(num_vars), each variable at most once per clause.
        """
        self = cls.__new__(cls)
        self._fill(num_vars, assignment, m, placed)
        return self

    def _fill(self, num_vars, assignment, m, placed):
        self.num_vars = num_vars
        self.assignment = bits = list(assignment)
        # copying an empty array costs half of building one with array("i")
        negated, positive = self.holds = (
            list(map(array.__copy__, repeat(_NO_POSITIONS, num_vars))),
            list(map(array.__copy__, repeat(_NO_POSITIONS, num_vars))))
        self.unsat = unsat = [0] * m
        self._queued = queued = bytearray(m)  # 1 while a position is in the heap
        self._heap = heap = []
        for j, literals in placed:
            bad = 0
            for var, sign in literals:
                if sign:
                    positive[var].append(j)
                    if not bits[var]:
                        bad += 1
                else:
                    negated[var].append(j)
                    if bits[var]:
                        bad += 1
            if bad:
                unsat[j] = bad
            else:
                heap.append(j)
                queued[j] = 1
        heapify(heap)
        self.satisfied = len(heap)
        self.meter = ProbeMeter()

    def answer(self) -> int:
        return 1 if self.satisfied > 0 else 0

    def first(self) -> int | None:
        """Smallest satisfied clause position, or None."""
        heap, unsat = self._heap, self.unsat
        while heap:
            j = heap[0]
            if unsat[j] == 0:
                return j
            heappop(heap)
            self._queued[j] = 0
        return None

    def flip(self, var: int, bit: int) -> int:
        if not 0 <= var < self.num_vars:
            raise VarOutOfRange(f"variable {var + 1} out of range 1..{self.num_vars}")
        if self.assignment[var] == bit:
            return self.answer()
        self.assignment[var] = bit
        negated, positive = self.holds
        if bit:
            turn_true, turn_false = positive[var], negated[var]
        else:
            turn_true, turn_false = negated[var], positive[var]
        self.meter.count += len(turn_true) + len(turn_false)
        unsat = self.unsat
        satisfied = self.satisfied
        for j in turn_false:
            left = unsat[j]
            if left == 0:
                satisfied -= 1
            unsat[j] = left + 1
        queued = self._queued
        for j in turn_true:
            left = unsat[j] - 1
            unsat[j] = left
            if left == 0:
                satisfied += 1
                if not queued[j]:
                    queued[j] = 1
                    heappush(self._heap, j)
        self.satisfied = satisfied
        return 1 if satisfied > 0 else 0

    def apply(self, token) -> int:
        if token[0] == "f":
            return self.flip(token[1], token[2])
        if token[0] == "q":
            return self.answer()
        raise UndecodableUpdate(f"dnf counters cannot apply {token!r}")


class NaiveAlgorithm:
    """Rescan-everything baseline; exists for benchmarks and cross-checks.

    An answer reads each clause's literals up to and including its first
    false one, until a clause holds, and charges every literal it read to
    `meter` in one addition."""

    def __init__(self, inst: DnfInstance):
        self.inst = inst.copy()
        self.meter = ProbeMeter()

    def answer(self) -> int:
        assignment, read = self.inst.assignment, 0
        try:
            for c in self.inst.clauses:
                for var, positive in c.literals:
                    read += 1
                    if bool(assignment[var]) != positive:
                        break
                else:
                    return 1
            return 0
        finally:
            self.meter.count += read

    def apply(self, token) -> int:
        self.inst.apply(token)
        return self.answer()


# ---------------------------------------------------------------------------
# Verifier
# ---------------------------------------------------------------------------


class DnfVerifier:
    """Proof = a clause index claimed satisfied, or the null proof.

    The step reads only the named clause's literals, up to and including
    its first false one, and charges them to `meter` in one addition (at
    most w probes); x=1 exactly when the offered clause checks out. Outputs
    come from `OUTPUTS`.
    """

    max_proof_len = 4

    def __init__(self, inst: DnfInstance):
        self.clauses = inst.clauses
        self.num_vars = inst.num_vars
        self.assignment = list(inst.assignment)
        self.meter = ProbeMeter()
        self._x0 = eval_bruteforce(inst)

    def initial_output(self) -> VerifierOutput:
        return OUTPUTS[self._x0][0]

    def copy(self) -> "DnfVerifier":
        dup = object.__new__(DnfVerifier)
        dup.clauses = self.clauses
        dup.num_vars = self.num_vars
        dup.assignment = list(self.assignment)
        dup.meter = ProbeMeter()
        dup._x0 = self._x0
        return dup

    def proof_space(self, token) -> list[bytes]:
        return [BOTTOM] + [encode_index(j) for j in range(len(self.clauses))]

    def step(self, token, proof: bytes) -> VerifierOutput:
        if token[0] == "f":
            _, var, bit = token
            if not 0 <= var < self.num_vars:
                raise VarOutOfRange(
                    f"variable {var + 1} out of range 1..{self.num_vars}")
            self.assignment[var] = bit
        elif token[0] != "q":
            raise UndecodableUpdate(f"dnf verifier cannot apply {token!r}")
        if proof == BOTTOM:
            return OUTPUTS[0][0]
        try:
            j = decode_index(proof)
        except ParseError:
            return OUTPUTS[0][-1]
        if not 0 <= j < len(self.clauses):
            return OUTPUTS[0][-1]
        assignment = self.assignment
        read = 0
        for var, positive in self.clauses[j].literals:
            read += 1
            if bool(assignment[var]) != positive:
                self.meter.count += read
                return OUTPUTS[0][-1]
        self.meter.count += read
        return OUTPUTS[1][1]


def honest_dnf_prover():
    """The reward-maximizing proof for `DnfVerifier`, without the search.

    The reward is 1 for a satisfied clause, 0 for BOTTOM and -1 otherwise,
    and the maximizing prover breaks ties toward the earliest candidate, so
    its choice is the first satisfied clause, else BOTTOM. This prover keeps
    that clause at hand in a `ClauseCounters` mirror of the verifier's
    assignment, at O(occurrences + log m) per step. Building the mirror is
    preprocessing: `prover.prepare(verifier)` builds it, and `run_protocol`
    calls that before step 1. A step handed any other verifier, as when a
    wrapper hides `prepare`, builds the mirror there first.
    """
    mirrored = counters = None

    def prepare(verifier):
        nonlocal mirrored, counters
        clauses = verifier.clauses
        mirrored, counters = verifier, ClauseCounters.from_literals(
            verifier.num_vars, verifier.assignment, len(clauses),
            enumerate(c.literals for c in clauses))

    def prover(verifier, token) -> bytes:
        if verifier is not mirrored:
            prepare(verifier)
        counters.apply(token)
        j = counters.first()
        return BOTTOM if j is None else encode_index(j)

    prover.prepare = prepare
    return prover


# ---------------------------------------------------------------------------
# First-satisfied-clause variant
# ---------------------------------------------------------------------------


@dataclass
class FirstDnfInstance:
    """A checked DNF instance plus a total clause order.

    `order` lists clause ids from first to last; order[0] is the most
    preferred clause. Only the order is checked here.
    """

    base: DnfInstance
    order: list[int]

    def validate(self):
        if sorted(self.order) != list(range(len(self.base.clauses))):
            raise ParseError("order must be a permutation of clause ids")
        return self

    __post_init__ = validate


def first_satisfied_bruteforce(finst: FirstDnfInstance) -> int | None:
    """Oracle: first clause id under the order that is currently satisfied."""
    for j in finst.order:
        if finst.base.clauses[j].satisfied_by(finst.base.assignment):
            return j
    return None


@dataclass
class AugmentedFirstDnf:
    """Output of augment_with_search_vars.

    Clauses are relabeled so position == rank under the order; clause at
    rank r carries, for every round i, the positive literal of the search
    variable matching bit i of r (most significant bit first). All search
    variables start at 1, so the augmented formula agrees with the base one
    until a query perturbs them.
    """

    instance: DnfInstance
    base_num_vars: int
    rounds: int
    rank_to_original: list[int]

    def search_var(self, round_i: int, bit: int) -> int:
        # rounds are 1-based like the construction; bit is the expected value
        return self.base_num_vars + 2 * (round_i - 1) + bit


def augment_with_search_vars(finst: FirstDnfInstance) -> AugmentedFirstDnf:
    base = finst.base
    m = len(base.clauses)
    rounds = max(0, math.ceil(math.log2(m))) if m > 1 else 0
    n = base.num_vars
    rank_to_original = list(finst.order)
    new_clauses = []
    for rank, j in enumerate(rank_to_original):
        extra = []
        for i in range(1, rounds + 1):
            bit = (rank >> (rounds - i)) & 1
            extra.append((n + 2 * (i - 1) + bit, True))
        new_clauses.append(Clause(base.clauses[j].literals + tuple(extra)))
    width = None if base.width is None else base.width + rounds
    inst = DnfInstance(
        n + 2 * rounds,
        new_clauses,
        list(base.assignment) + [1] * (2 * rounds),
        width,
    )
    return AugmentedFirstDnf(inst, n, rounds, rank_to_original)


def first_dnf_query(aug: AugmentedFirstDnf, counters: ClauseCounters) -> int | None:
    """Binary-search the first satisfied clause using only variable flips.

    Returns the ORIGINAL clause id (pre-relabeling), or None if nothing is
    satisfied. Requires every search variable to currently be 1; restores
    that state before returning. Flip cost <= 5 * rounds.
    """
    n, rounds = aug.base_num_vars, aug.rounds
    for i in range(1, rounds + 1):
        for b in (0, 1):
            if counters.assignment[aug.search_var(i, b)] != 1:
                raise ParseError("search variables must be all-ones before a query")
    if counters.answer() == 0:
        return None
    rank = 0
    touched: list[int] = []
    for i in range(1, rounds + 1):
        hi = aug.search_var(i, 1)
        lo = aug.search_var(i, 0)
        counters.flip(hi, 0)  # keep only clauses with bit i == 0
        if counters.answer() == 0:
            counters.flip(lo, 0)  # none there; commit to bit 1
            counters.flip(hi, 1)
            touched.append(lo)
            rank = (rank << 1) | 1
        else:
            touched.append(hi)
            rank = rank << 1
    for var in touched:
        counters.flip(var, 1)
    return aug.rank_to_original[rank]


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------
#
# DIMACS-flavored:
#   p dnf <n> <m> <w>
#   one line per clause: signed 1-based literals terminated by 0
#   a <bit> ... <bit>        current assignment (n bits)
#   o <id> ... <id>          optional clause order, 1-based, first = preferred
# `c` lines are comments, as in DIMACS.


class _LiteralPairs(dict):
    """Literal token -> its (var, positive) pair, or None for a 0 token.

    A pair is made once per distinct literal and shared by every clause
    that holds it, also where two tokens spell one literal ("3", "03").
    A token that is not an integer raises int()'s ValueError."""

    def __init__(self):
        super().__init__()
        self._by_value: dict[int, tuple[int, bool]] = {}

    def __missing__(self, token: str):
        lit = int(token)
        pair = self._by_value.get(lit)
        if pair is None and lit:
            pair = self._by_value[lit] = (abs(lit) - 1, lit > 0)
        self[token] = pair
        return pair


def parse_dnf(text: str):
    """Returns DnfInstance, or FirstDnfInstance when an order line is present.

    Each line is checked as it is read, against the header counts, so an
    error names its line: clause lines by `check_clause` (the rule
    `DnfInstance.validate` applies), the assignment's bits and length, and
    the order a permutation. With every line checked, the instance is built
    without a second check. Clauses share one (var, positive) pair per
    distinct literal (`_LiteralPairs`).
    """
    clauses: list[Clause] = []
    assignment = None
    order = None
    n = m = w = 0
    pair_of = _LiteralPairs().__getitem__

    def start(counts):
        nonlocal n, m, w
        n, m, w = counts

    def line(parts, _):
        nonlocal assignment, order
        if parts[0] == "a":
            assignment = [int(tok) for tok in parts[1:]]
            if any(b not in (0, 1) for b in assignment):
                raise ParseError("assignment bits must be 0/1")
            if len(assignment) != n:
                raise ParseError(f"{len(assignment)} assignment bits, header says {n}")
        elif parts[0] == "o":
            order = [int(tok) - 1 for tok in parts[1:]]
            if sorted(order) != list(range(m)):
                raise ParseError("order must be a permutation of clause ids")
        else:
            lits = list(map(pair_of, parts))
            if lits.pop() is not None:
                raise ParseError("clause must end with 0")
            if None in lits:
                raise ParseError("stray 0 inside clause")
            literals = tuple(lits)
            check_clause(literals, n, w)
            clauses.append(Clause(literals))

    read_lines(text, line, ("dnf", 3), comment="c", on_header=start)
    if len(clauses) != m:
        raise ParseError(f"header says {m} clauses, file has {len(clauses)}")
    if assignment is None:
        assignment = [0] * n
    inst = DnfInstance._unchecked(n, clauses, assignment, w)
    return inst if order is None else FirstDnfInstance(inst, order)


def format_dnf(inst) -> str:
    finst = None
    if isinstance(inst, FirstDnfInstance):
        finst, inst = inst, inst.base
    w = inst.width if inst.width is not None else max(
        (c.width for c in inst.clauses), default=0
    )
    out = [f"p dnf {inst.num_vars} {len(inst.clauses)} {w}"]
    for c in inst.clauses:
        lits = [(v + 1) if pos else -(v + 1) for v, pos in c.literals]
        out.append(" ".join(str(l) for l in lits + [0]))
    out.append("a " + " ".join(str(b) for b in inst.assignment))
    if finst is not None:
        out.append("o " + " ".join(str(j + 1) for j in finst.order))
    return "\n".join(out) + "\n"
