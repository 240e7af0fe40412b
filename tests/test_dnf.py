import itertools
import math
import random
from array import array
from heapq import heapify

import pytest
from hypothesis import given, settings, strategies as st

from dyncx import dnf
from dyncx.dnf import (
    AugmentedFirstDnf,
    Clause,
    ClauseCounters,
    DnfInstance,
    DnfVerifier,
    FirstDnfInstance,
    MalformedClause,
    NaiveAlgorithm,
    VarOutOfRange,
    augment_with_search_vars,
    clause,
    eval_bruteforce,
    first_dnf_query,
    first_satisfied_bruteforce,
    format_dnf,
    honest_dnf_prover,
    parse_dnf,
)
from dyncx.framework import (
    BOTTOM,
    Episode,
    ParseError,
    ProbeMeter,
    UndecodableUpdate,
    UpdateStream,
    constant_prover,
    encode_index,
    fuzz_soundness,
    random_prover,
    reward_maximizing_prover,
    run_protocol,
)

from conftest import rand_dnf, rand_first_dnf, rand_flip_stream


# ---------------------------------------------------------------------------
# brute force and counters
# ---------------------------------------------------------------------------


def test_eval_examples():
    inst = DnfInstance(3, [clause(1, -2), clause(3)], [1, 0, 0], 2)
    assert eval_bruteforce(inst) == 1
    assert eval_bruteforce(DnfInstance(2, [], [0, 1], 2)) == 0
    assert eval_bruteforce(DnfInstance(2, [clause(1, 2)], [1, 0], 2)) == 0


def test_clause_rejects_duplicate_variable():
    with pytest.raises(MalformedClause):
        DnfInstance(2, [Clause(((0, True), (0, False)))], [0, 0], 2).validate()


def test_counters_examples():
    c = ClauseCounters(DnfInstance(2, [clause(1, -2)], [1, 0], 2))
    assert c.unsat == [0] and c.satisfied == 1
    c = ClauseCounters(DnfInstance(2, [clause(1, 2)], [0, 0], 2))
    assert c.unsat == [2] and c.satisfied == 0


def test_flip_example_and_idempotence():
    c = ClauseCounters(DnfInstance(2, [clause(1, -2)], [1, 0], 2))
    assert c.flip(1, 1) == 0
    before = (list(c.unsat), c.satisfied, c.meter.count)
    assert c.flip(1, 1) == 0  # same value: no-op
    assert (list(c.unsat), c.satisfied, c.meter.count) == before


def test_flip_out_of_range():
    c = ClauseCounters(DnfInstance(2, [clause(1)], [0, 0], 1))
    with pytest.raises(VarOutOfRange):
        c.flip(2, 1)


def test_flip_touches_exactly_occurrence_list(rng):
    inst = rand_dnf(rng, n_hi=6, m_hi=6)
    c = ClauseCounters(inst)
    for _ in range(200):
        var = rng.randrange(inst.num_vars)
        bit = 1 - c.assignment[var]  # guaranteed real flip
        before = c.meter.count
        c.flip(var, bit)
        assert c.meter.count - before == len(c.holds[0][var]) + len(c.holds[1][var])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_counters_agree_with_bruteforce(data):
    n = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(0, 5))
    clauses = []
    for _ in range(m):
        vs = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(3, n),
                                unique=True))
        pols = data.draw(st.lists(st.booleans(), min_size=len(vs), max_size=len(vs)))
        clauses.append(Clause(tuple(zip(vs, pols))))
    assignment = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    inst = DnfInstance(n, clauses, assignment, 3)
    c = ClauseCounters(inst)
    ref = DnfInstance(n, clauses, list(assignment), 3)
    flips = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 1)),
                               max_size=12))
    for var, bit in flips:
        got = c.flip(var, bit)
        ref.apply(("f", var, bit))
        assert got == eval_bruteforce(ref)
        recount = [sum(1 for v, pos in cl.literals if bool(ref.assignment[v]) != pos)
                   for cl in clauses]
        assert c.unsat == recount
        assert c.satisfied == sum(1 for k in recount if k == 0)


def dnf_instances(data, m_max=6):
    """Instances with m from 0 and clauses of zero to three literals."""
    n = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(0, m_max))
    clauses = []
    for _ in range(m):
        vs = data.draw(st.lists(st.integers(0, n - 1), max_size=min(3, n), unique=True))
        pols = data.draw(st.lists(st.booleans(), min_size=len(vs), max_size=len(vs)))
        clauses.append(Clause(tuple(zip(vs, pols))))
    assignment = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return DnfInstance(n, clauses, assignment, 3)


def dnf_streams(data, n):
    flip = st.tuples(st.just("f"), st.integers(0, n - 1), st.integers(0, 1))
    return data.draw(st.lists(st.one_of(flip, st.just(("q",))), max_size=12))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_first_names_the_smallest_satisfied_clause(data):
    inst = dnf_instances(data)
    c = ClauseCounters(inst)
    ref = inst.copy()
    first = FirstDnfInstance(ref, list(range(len(inst.clauses))))
    assert c.first() == first_satisfied_bruteforce(first)
    for tok in dnf_streams(data, inst.num_vars):
        c.apply(tok)
        ref.apply(tok)
        assert c.first() == first_satisfied_bruteforce(first)
        # the lazy heap holds each position at most once
        assert len(set(c._heap)) == len(c._heap) <= len(inst.clauses)


def test_from_literals_places_clauses_in_any_order():
    lits = [((0, True),), ((1, False), (0, True)), ()]
    c = ClauseCounters.from_literals(2, [1, 1], 3, [(2, lits[2]), (0, lits[0]),
                                                     (1, lits[1])])
    ref = ClauseCounters(DnfInstance(2, [Clause(l) for l in lits], [1, 1]))
    assert (c.unsat, c.satisfied, c.first()) == (ref.unsat, ref.satisfied, 0)
    assert c.holds == ref.holds


def reference_counters(num_vars, assignment, m, placed) -> ClauseCounters:
    """`ClauseCounters` filled literal by literal, `bool()` on each read:
    the reference for `_fill`."""
    c = ClauseCounters.__new__(ClauseCounters)
    c.num_vars, c.assignment = num_vars, list(assignment)
    c.holds = ([array("i") for _ in range(num_vars)], [array("i") for _ in range(num_vars)])
    c.unsat, c._queued, c._heap = [0] * m, bytearray(m), []
    for j, literals in placed:
        for var, positive in literals:
            c.holds[1 if positive else 0][var].append(j)
            if bool(c.assignment[var]) != positive:
                c.unsat[j] += 1
        if c.unsat[j] == 0:
            c._heap.append(j)
            c._queued[j] = 1
    heapify(c._heap)
    c.satisfied = len(c._heap)
    c.meter = ProbeMeter()
    return c


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fill_matches_the_literal_by_literal_reference(data):
    inst = dnf_instances(data)
    n, m = inst.num_vars, len(inst.clauses)
    placed = data.draw(st.permutations(list(enumerate(c.literals for c in inst.clauses))))
    got = ClauseCounters.from_literals(n, inst.assignment, m, placed)
    ref = reference_counters(n, inst.assignment, m, placed)
    # "same" flips a variable to the value it already holds
    moves = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from([0, 1, "same"])),
                               max_size=16))

    def state(c):
        return c.holds, c.unsat, c.satisfied, c.first(), c.meter.count

    assert state(got) == state(ref)
    for var, bit in moves:
        if bit == "same":
            bit = ref.assignment[var]
        assert got.flip(var, bit) == ref.flip(var, bit)
        assert state(got) == state(ref)


def test_naive_and_counters_match_over_streams(rng):
    for _ in range(50):
        inst = rand_dnf(rng)
        a = ClauseCounters(inst)
        b = NaiveAlgorithm(inst)
        for tok in rand_flip_stream(rng, inst.num_vars, 40):
            assert a.apply(tok) == b.apply(tok)


def test_naive_rescan_charges_the_literals_it_reads():
    # width-3 clauses; under all-ones, clause k of the first three fails at
    # literal k + 1, so a rescan that stops at the holding clause j charges
    # 1 + 2 + 3 for the failing ones before it and the w literals of j
    failing = [clause(-1, 2, 3), clause(1, -2, 3), clause(1, 2, -3)]
    holds = clause(1, 2, 3)
    for clauses, answer, charged in [
            (failing, 0, 6), (failing + [holds], 1, 9), ([holds] + failing, 1, 3),
            (failing[1:], 0, 5), ([], 0, 0), ([clause(2)], 1, 1)]:
        algo = NaiveAlgorithm(DnfInstance(3, clauses, [1, 1, 1], 3))
        assert (algo.answer(), algo.meter.count) == (answer, charged), clauses
        assert (algo.apply(("q",)), algo.meter.count) == (answer, 2 * charged)


# ---------------------------------------------------------------------------
# verifier
# ---------------------------------------------------------------------------


def test_verifier_step_outcomes():
    inst = DnfInstance(3, [clause(1, -2), clause(3)], [1, 0, 0], 2)
    v = DnfVerifier(inst)
    assert v.initial_output().x == 1
    out = v.step(("f", 2, 1), encode_index(1))  # clause 1 = (x3), now satisfied
    assert (out.x, out.y) == (1, 1)
    out = v.step(("f", 0, 0), encode_index(0))  # clause 0 now unsatisfied
    assert (out.x, out.y) == (0, -1)
    out = v.step(("q",), BOTTOM)
    assert (out.x, out.y) == (0, 0)
    out = v.step(("q",), encode_index(9))  # out of range: invalid proof
    assert (out.x, out.y) == (0, -1)
    out = v.step(("q",), b"zz")  # undecodable: invalid proof
    assert (out.x, out.y) == (0, -1)


def test_verifier_reads_only_offered_clause():
    wide = DnfInstance(4, [clause(1), clause(2), clause(3), clause(4)], [1, 1, 1, 1], 1)
    v = DnfVerifier(wide)
    before = v.meter.count
    v.step(("q",), encode_index(2))
    assert v.meter.count - before == 1  # one literal in clause 2


def test_verifier_charges_the_literals_it_reads():
    # width-3 clauses; under all-ones, clause k's first false literal is
    # literal k + 1, and clause 3 holds
    clauses = [clause(-1, 2, 3), clause(1, -2, 3), clause(1, 2, -3), clause(1, 2, 3)]
    v = DnfVerifier(DnfInstance(3, clauses, [1, 1, 1], 3))
    cases = [(encode_index(0), (0, -1), 1), (encode_index(1), (0, -1), 2),
             (encode_index(2), (0, -1), 3), (encode_index(3), (1, 1), 3),
             (BOTTOM, (0, 0), 0), (b"zz", (0, -1), 0),
             (encode_index(4), (0, -1), 0)]
    for proof, (x, y), charged in cases:
        before = v.meter.count
        out = v.step(("q",), proof)
        assert (out.x, out.y, v.meter.count - before) == (x, y, charged), proof


def test_verifier_completeness_under_maximizing_prover(rng):
    for _ in range(60):
        inst = rand_dnf(rng)
        stream = UpdateStream(rand_flip_stream(rng, inst.num_vars, 25))
        transcript = run_protocol(DnfVerifier, reward_maximizing_prover(), inst, stream)
        ref = DnfInstance(inst.num_vars, inst.clauses, list(inst.assignment), inst.width)
        truths = [eval_bruteforce(ref)]
        for tok in stream:
            ref.apply(tok)
            truths.append(eval_bruteforce(ref))
        assert transcript.answers() == truths


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_honest_dnf_prover_transcript_equals_maximizing(data):
    inst = dnf_instances(data)
    stream = dnf_streams(data, inst.num_vars)
    want = run_protocol(DnfVerifier, reward_maximizing_prover(), inst, stream).to_json()
    got = run_protocol(DnfVerifier, honest_dnf_prover(), inst, stream).to_json()
    assert got == want


def test_honest_dnf_prover_follows_a_new_verifier(rng):
    prover = honest_dnf_prover()
    for _ in range(20):
        inst = rand_dnf(rng)
        stream = rand_flip_stream(rng, inst.num_vars, 10, query_rate=0.2)
        want = run_protocol(DnfVerifier, reward_maximizing_prover(), inst, stream)
        assert run_protocol(DnfVerifier, prover, inst, stream).to_json() == want.to_json()


def test_honest_dnf_prover_builds_its_mirror_before_step_1(monkeypatch, rng):
    built = []
    from_literals = ClauseCounters.from_literals.__func__
    monkeypatch.setattr(ClauseCounters, "from_literals", classmethod(
        lambda cls, *args: built.append(args) or from_literals(cls, *args)))

    def watched(tokens, seen):
        seen.append(len(built))  # runs at the first pull
        yield from tokens
        seen.append(len(built))

    inst = rand_dnf(rng, m_lo=1)
    honest = honest_dnf_prover()

    def hidden(verifier, token):  # a wrapper without `prepare`
        return honest(verifier, token)

    for tokens in (rand_flip_stream(rng, inst.num_vars, 10, query_rate=0.2), []):
        want = run_protocol(DnfVerifier, reward_maximizing_prover(), inst, tokens).to_json()
        for prover, at_first_pull in ((honest, [1, 1]), (hidden, [0, 1] if tokens else [0, 0])):
            del built[:]
            seen = []
            got = run_protocol(DnfVerifier, prover, inst, watched(tokens, seen))
            assert seen == at_first_pull
            assert len(built) == seen[-1]  # nothing built after the last step
            assert got.to_json() == want


@pytest.mark.parametrize("make", [reward_maximizing_prover, honest_dnf_prover])
@pytest.mark.parametrize("token, error", [
    (("f", 2, 1), VarOutOfRange),
    (("e", "+", 0, 1), UndecodableUpdate),
])
@pytest.mark.parametrize("clauses", [[], [Clause(())], [clause(1, -2)]],
                         ids=["m=0", "empty-clause", "one-clause"])
def test_dnf_provers_refuse_the_same_tokens(make, token, error, clauses):
    inst = DnfInstance(2, clauses, [0, 1])
    with pytest.raises(error):
        run_protocol(DnfVerifier, make(), inst, [("f", 0, 1), ("q",), token])


def test_verifier_soundness_fuzzed(rng):
    def gen(r):
        inst = rand_dnf(r)
        stream = UpdateStream(rand_flip_stream(r, inst.num_vars, 20))
        ref = DnfInstance(inst.num_vars, inst.clauses, list(inst.assignment), inst.width)
        truths = [eval_bruteforce(ref)]
        for tok in stream:
            ref.apply(tok)
            truths.append(eval_bruteforce(ref))
        return Episode(inst, stream, truths)

    provers = [random_prover(1), random_prover(2, junk_rate=1.0), constant_prover(BOTTOM)]
    assert fuzz_soundness(DnfVerifier, gen, provers, trials=150, seed=9) == []


# ---------------------------------------------------------------------------
# first-DNF
# ---------------------------------------------------------------------------


def test_first_satisfied_respects_order():
    base = DnfInstance(2, [clause(1), clause(2)], [1, 1], 1)
    # order says clause 1 comes first
    inst = FirstDnfInstance(base, [1, 0])
    assert first_satisfied_bruteforce(inst) == 1
    none_sat = FirstDnfInstance(DnfInstance(2, [clause(1)], [0, 0], 1), [0])
    assert first_satisfied_bruteforce(none_sat) is None


def test_order_must_be_permutation():
    base = DnfInstance(2, [clause(1), clause(2)], [1, 1], 1)
    with pytest.raises(ParseError):
        FirstDnfInstance(base, [0, 0]).validate()


def test_augment_search_literals_follow_binary_expansion():
    base = DnfInstance(2, [clause(1), clause(1), clause(1), clause(1)], [1, 1], 1)
    aug = augment_with_search_vars(FirstDnfInstance(base, [0, 1, 2, 3]))
    assert aug.rounds == 2
    # clause at rank 2 (binary 10): round 1 bit 1, round 2 bit 0
    lits = dict(aug.instance.clauses[2].literals)
    assert lits[aug.search_var(1, 1)] is True
    assert lits[aug.search_var(2, 0)] is True
    assert all(b == 1 for b in aug.instance.assignment[base.num_vars:])


def test_augment_single_clause_adds_nothing():
    base = DnfInstance(2, [clause(1)], [1, 0], 1)
    aug = augment_with_search_vars(FirstDnfInstance(base, [0]))
    assert aug.rounds == 0
    assert aug.instance.num_vars == 2


def test_augment_empty_formula_unchanged():
    base = DnfInstance(2, [], [1, 0], 1)
    aug = augment_with_search_vars(FirstDnfInstance(base, []))
    assert aug.rounds == 0 and aug.instance.clauses == []


def test_augment_preserves_answer_with_search_vars_high(rng):
    for _ in range(40):
        inst = rand_first_dnf(rng, n_hi=10, m_hi=8)
        aug = augment_with_search_vars(inst)
        n = inst.base.num_vars
        for bits in itertools.product((0, 1), repeat=min(n, 6)):
            phi = list(bits) + [1] * (n - len(bits))
            base = DnfInstance(n, inst.base.clauses, phi, inst.base.width)
            aug_phi = phi + [1] * (2 * aug.rounds)
            aug_inst = DnfInstance(aug.instance.num_vars, aug.instance.clauses,
                                   aug_phi, aug.instance.width)
            assert eval_bruteforce(aug_inst) == eval_bruteforce(base)


class FlipCountingCounters(ClauseCounters):
    def __init__(self, inst):
        super().__init__(inst)
        self.real_flips = 0

    def flip(self, var, bit):
        if self.assignment[var] != bit:
            self.real_flips += 1
        return super().flip(var, bit)


def test_first_dnf_query_matches_oracle_and_flip_budget(rng):
    for _ in range(150):
        inst = rand_first_dnf(rng)
        aug = augment_with_search_vars(inst)
        counters = FlipCountingCounters(aug.instance)
        cap = 5 * aug.rounds
        for _ in range(8):
            var = rng.randrange(inst.base.num_vars)
            bit = rng.randint(0, 1)
            counters.flip(var, bit)
            inst.base.assignment[var] = bit
            counters.real_flips = 0
            base_bits = list(counters.assignment[: inst.base.num_vars])
            got = first_dnf_query(aug, counters)
            assert got == first_satisfied_bruteforce(inst)
            assert counters.real_flips <= cap
            assert counters.assignment[: inst.base.num_vars] == base_bits
            assert all(b == 1 for b in counters.assignment[inst.base.num_vars:])


def test_first_dnf_query_requires_search_vars_high(rng):
    inst = rand_first_dnf(rng, m_hi=4)
    aug = augment_with_search_vars(inst)
    if aug.rounds == 0:
        return
    counters = ClauseCounters(aug.instance)
    counters.flip(aug.search_var(1, 0), 0)
    with pytest.raises(ParseError):
        first_dnf_query(aug, counters)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def test_parse_format_round_trip(rng):
    for _ in range(20):
        inst = rand_dnf(rng)
        again = parse_dnf(format_dnf(inst))
        assert again.clauses == inst.clauses
        assert again.assignment == inst.assignment
    first = rand_first_dnf(rng)
    again = parse_dnf(format_dnf(first))
    assert isinstance(again, FirstDnfInstance)
    assert again.order == first.order


def test_parse_rejects_malformed():
    with pytest.raises(ParseError):
        parse_dnf("p dnf 2 1\n1 0\na 0 0\n")  # missing width
    with pytest.raises(ParseError):
        parse_dnf("p dnf 2 1 2\n1 0\na 0\n")  # assignment too short
    with pytest.raises(ParseError):
        parse_dnf("p dnf 2 1 2\n3 0\na 0 0\n")  # var out of range
    with pytest.raises(ParseError):
        parse_dnf("p dnf 2 2 2\n1 0\na 0 0\n")  # clause count mismatch
    with pytest.raises(ParseError):
        parse_dnf("1 0\na 0\n")  # no header at all


def test_parse_dnf_checks_each_clause_once(monkeypatch):
    checked = []
    check_clause = dnf.check_clause
    monkeypatch.setattr(dnf, "check_clause",
                        lambda *args: checked.append(args) or check_clause(*args))
    text = "p dnf 3 3 2\n1 -2 0\n0\n3 0\na 1 0 1\n"
    for extra, kind in (("", DnfInstance), ("o 3 1 2\n", FirstDnfInstance)):
        del checked[:]
        assert type(parse_dnf(text + extra)) is kind
        assert len(checked) == 3


def test_parse_dnf_shares_one_pair_per_literal():
    """Equal (var, positive) pairs of a parsed instance are one object,
    also where two tokens spell the same literal."""
    inst = parse_dnf("p dnf 3 4 3\n1 -2 0\n-2 3 1 0\n01 +3 0\n-1 0\na 0 1 0\n")
    assert [c.literals for c in inst.clauses] == [
        ((0, True), (1, False)), ((1, False), (2, True), (0, True)),
        ((0, True), (2, True)), ((0, False),)]
    by_value = {}
    for c in inst.clauses:
        for pair in c.literals:
            assert by_value.setdefault(pair, pair) is pair
    assert len(by_value) == 4


@pytest.mark.parametrize("line, message", [
    ("x 0", "invalid literal for int() with base 10: 'x'"),
    ("1 2", "clause must end with 0"),
    ("1 0 2 0", "stray 0 inside clause"),
    ("1 -1 0", "variable 1 appears twice"),
    ("9 0", "variable 9 out of range 1..3"),
    ("1 2 3 0", "3 literals, declared width is 2"),
])
def test_parse_dnf_names_the_bad_clause_line(line, message):
    with pytest.raises(ParseError) as caught:
        parse_dnf(f"p dnf 3 1 2\n{line}\na 0 0 0\n")
    assert str(caught.value) == f"line 2: {line!r}: {message}"


def test_parse_defaults_assignment_to_zeros():
    inst = parse_dnf("p dnf 2 1 2\n1 0\n")
    assert inst.assignment == [0, 0]
