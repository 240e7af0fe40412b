import random

import pytest
from hypothesis import example, given, settings, strategies as st

from dyncx import oracles
from dyncx.equiv import AllWhiteCounters, AllWhiteInstance, aw_bruteforce
from dyncx.framework import BudgetExceeded, ParseError
from dyncx.oracles import sat_bruteforce
from dyncx.reductions import (
    REDUCTIONS,
    CnfInstance,
    build_count_reach,
    build_count_scc,
    build_diameter,
    build_maxflow,
    build_st_reach,
    build_subgraph_connectivity,
    check_reduction,
    format_dimacs,
    parse_dimacs,
    sat_via_allwhite,
)

from conftest import rand_aw, rand_color_stream


def all_black_complete(num_colored=3, num_scanned=2):
    edges = [(l, r) for l in range(num_colored) for r in range(num_scanned)]
    return AllWhiteInstance(num_colored, num_scanned, edges, [False] * num_colored)


def with_isolated_scanned():
    # scanned node 1 has no neighbors at all: vacuously all-white
    return AllWhiteInstance(2, 2, [(0, 0), (1, 0)], [False, False])


# ---------------------------------------------------------------------------
# single-shot decoder checks on the named corner instances
# ---------------------------------------------------------------------------


def test_maxflow_saturates_exactly_on_no_instances():
    target, _, decode = build_maxflow(all_black_complete())
    assert target.flow_value() == 2
    assert decode(target) == 0 == aw_bruteforce(all_black_complete())

    aw = with_isolated_scanned()
    target, _, decode = build_maxflow(aw)
    assert target.flow_value() < 2
    assert decode(target) == 1 == aw_bruteforce(aw)


def test_subgraph_connectivity_branches():
    aw = all_black_complete()
    target, _, decode = build_subgraph_connectivity(aw)
    assert target.induced_connected()
    assert decode(target) == 0

    aw = with_isolated_scanned()
    target, _, decode = build_subgraph_connectivity(aw)
    assert not target.induced_connected()
    assert decode(target) == 1


def test_diameter_three_versus_four():
    target, _, decode = build_diameter(all_black_complete())
    assert oracles.diameter(target.num_nodes, target.edges) == 3
    assert decode(target) == 0

    aw = AllWhiteInstance(2, 2, [(0, 0), (1, 0), (0, 1), (1, 1)], [True, False])
    # scanned node 0 sees a white node only... both scanned see both colored;
    # color 0 white, color 1 black: no all-white neighborhood
    assert aw_bruteforce(aw) == 0
    target, _, decode = build_diameter(aw)
    assert decode(target) == 0

    aw = AllWhiteInstance(2, 1, [(0, 0), (1, 0)], [True, True])
    target, _, decode = build_diameter(aw)
    assert oracles.diameter(target.num_nodes, target.edges) >= 4
    assert decode(target) == 1 == aw_bruteforce(aw)


def test_diameter_degenerate_convention():
    # no scanned nodes and no black nodes: the decoder reports the >=4
    # branch even though the source says NO; documented convention
    aw = AllWhiteInstance(1, 0, [], [True])
    target, _, decode = build_diameter(aw)
    assert decode(target) == 1
    assert aw_bruteforce(aw) == 0
    # with a black node present the degenerate gap closes
    aw = AllWhiteInstance(1, 0, [], [False])
    target, _, decode = build_diameter(aw)
    assert decode(target) == 0 == aw_bruteforce(aw)


def test_reachability_family_branches():
    for build in (build_st_reach, build_count_reach, build_count_scc):
        aw = all_black_complete()
        target, _, decode = build(aw)
        assert decode(target) == 0, build.__name__

        all_white = AllWhiteInstance(2, 2, [(0, 0), (1, 1)], [True, True])
        target, _, decode = build(all_white)
        assert decode(target) == 1 == aw_bruteforce(all_white), build.__name__


# ---------------------------------------------------------------------------
# per-step agreement
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(REDUCTIONS))
def test_per_step_agreement_on_random_streams(name, rng):
    build = REDUCTIONS[name]
    for _ in range(20):
        # the diameter decoder needs a scanned node to avoid its documented
        # degenerate branch; everyone else takes fully empty instances too
        aw = rand_aw(rng, r_lo=1 if name == "diameter" else 0)
        stream = rand_color_stream(rng, aw.num_l, 25)
        records = check_reduction(build, aw, stream)
        assert len(records) == len(stream) + 1
        assert records[0].step == 0 and records[0].update is None
        for rec in records:
            assert rec.agree, (name, rec)


@pytest.mark.parametrize("name", sorted(REDUCTIONS))
def test_check_reduction_does_not_check_a_checked_instance_again(name, monkeypatch, rng):
    aw = rand_aw(rng, l_lo=1, r_lo=1)
    stream = rand_color_stream(rng, aw.num_l, 10)
    colors = list(aw.colors)
    checks = []
    validate = AllWhiteInstance.validate

    def counted(self):
        checks.append(self)
        return validate(self)

    monkeypatch.setattr(AllWhiteInstance, "validate", counted)
    monkeypatch.setattr(AllWhiteInstance, "__post_init__", counted)
    AllWhiteInstance(1, 1, [(0, 0)], [True])
    assert len(checks) == 1  # the counter sees a constructor's check
    del checks[:]
    records = check_reduction(REDUCTIONS[name], aw, stream)
    assert checks == []
    assert all(rec.agree for rec in records)
    assert aw.colors == colors  # the updates went to a copy


def test_translator_arity_one_per_actual_flip(rng):
    for name, build in sorted(REDUCTIONS.items()):
        aw = rand_aw(rng, l_lo=2, r_lo=1)
        _, translate, _ = build(aw)
        colors = list(aw.colors)
        for _ in range(40):
            node = rng.randrange(aw.num_l)
            white = rng.random() < 0.5
            out = translate(("c", node, "W" if white else "B"))
            if colors[node] == white:
                assert out == [], name  # repainting the same color moves nothing
            else:
                assert len(out) == 1, name
                colors[node] = white
        assert translate(("q",)) == []


# ---------------------------------------------------------------------------
# satisfiability driver
# ---------------------------------------------------------------------------


def test_sat_trivial_cases():
    assert sat_via_allwhite(CnfInstance(1, [(1,), (-1,)])) == 0
    assert sat_via_allwhite(CnfInstance(2, [(1, 2)])) == 1
    assert sat_via_allwhite(CnfInstance(2, [])) == 1


def test_sat_odd_variable_count_gets_padded():
    inst = CnfInstance(3, [(1, 2, 3), (-1, -2), (-3,)])
    assert sat_via_allwhite(inst) == int(sat_bruteforce(3, inst.clauses))


def test_sat_matches_bruteforce_on_random_3cnf():
    r = random.Random(0xC0FFEE)
    for _ in range(40):
        n = r.randint(2, 9)
        m = max(1, int(4.26 * n * r.uniform(0.3, 1.1)))
        clauses = []
        for _ in range(m):
            vs = r.sample(range(1, n + 1), min(3, n))
            clauses.append(tuple(v if r.random() < 0.5 else -v for v in vs))
        inst = CnfInstance(n, clauses)
        assert sat_via_allwhite(inst) == int(sat_bruteforce(n, clauses))


def test_sat_operation_count_stays_within_bound():
    r = random.Random(3)
    for _ in range(10):
        n = r.randint(2, 10)
        clauses = [
            tuple(
                v if r.random() < 0.5 else -v
                for v in r.sample(range(1, n + 1), min(3, n))
            )
            for _ in range(3 * n)
        ]
        stats: dict = {}
        sat_via_allwhite(CnfInstance(n, clauses), stats=stats)
        assert stats["ops"] <= stats["op_bound"]
        assert stats["op_bound"] == stats["num_scanned"] * (stats["num_clauses"] + 1)


def test_sat_budget():
    inst = CnfInstance(20, [(1,)])
    with pytest.raises(BudgetExceeded):
        sat_via_allwhite(inst, budget=100)


def test_sat_accepts_substitute_solvers():
    class Rescan:
        """Deliberately naive solver standing in for the counter one."""

        def __init__(self, aw):
            self.aw = aw

        def set_colors(self, nodes, white):
            for node in nodes:
                self.aw.colors[node] = white

        def answer(self):
            return aw_bruteforce(self.aw)

    r = random.Random(5)
    for _ in range(10):
        n = r.randint(2, 6)
        clauses = [
            tuple(
                v if r.random() < 0.5 else -v
                for v in r.sample(range(1, n + 1), min(2, n))
            )
            for _ in range(n + 1)
        ]
        inst = CnfInstance(n, clauses)
        assert sat_via_allwhite(inst, aw_solver=Rescan) == sat_via_allwhite(inst)


@st.composite
def split_cnfs(draw, n_max=16):
    """CNFs whose clauses lie in the driver's first half, its second, or both."""
    n = draw(st.integers(1, n_max))
    half = (n + n % 2) // 2
    sides = [st.integers(1, half), st.integers(1, n)]
    if half < n:
        sides.append(st.integers(half + 1, n))
    clauses = []
    for _ in range(draw(st.integers(0, 4 * n))):
        vs = draw(st.lists(draw(st.sampled_from(sides)), min_size=1, max_size=4))
        clauses.append(tuple(v if draw(st.booleans()) else -v for v in vs))
    return CnfInstance(n, clauses)


@settings(max_examples=150, deadline=None)
@given(split_cnfs())
@example(CnfInstance(1, []))
@example(CnfInstance(16, []))
@example(CnfInstance(15, [(15,), (-15,)]))
@example(CnfInstance(16, [(1, 2, -8), (-1,), (2,), (-2, 8)]))
@example(CnfInstance(16, [(9, -16), (-9,), (16,)]))
def test_sat_driver_masks_and_edge_list_agree_with_bruteforce(cnf):
    truth = int(sat_bruteforce(cnf.num_vars, cnf.clauses))
    masks, edges = {}, {}
    assert sat_via_allwhite(cnf, stats=masks) == truth
    assert sat_via_allwhite(cnf, aw_solver=AllWhiteCounters, stats=edges) == truth
    assert masks == edges


def paper_edge_instance(cnf: CnfInstance) -> AllWhiteInstance:
    """The driver's all-white instance from its definition, pair by pair."""
    half = (cnf.num_vars + cnf.num_vars % 2) // 2

    def fails(clause, u1):  # u1 satisfies none of the clause's first-half literals
        return not any(
            abs(lit) <= half and (u1 >> (abs(lit) - 1) & 1) == (lit > 0)
            for lit in clause
        )

    edges = [
        (c, u1)
        for u1 in range(2 ** half)
        for c, clause in enumerate(cnf.clauses)
        if fails(clause, u1)
    ]
    # phase 0 sets the second half to zeros: a negative literal there holds
    colors = [any(lit < -half for lit in clause) for clause in cnf.clauses]
    return AllWhiteInstance(len(cnf.clauses), 2 ** half, edges, colors)


@settings(max_examples=100, deadline=None)
@given(split_cnfs(n_max=12))
@example(CnfInstance(1, [(1,), (-1,)]))
def test_sat_driver_hands_callers_the_papers_edge_list(cnf):
    seen = []

    def capture(aw):
        edges, colors = list(aw.edges), list(aw.colors)
        seen.append(AllWhiteInstance(aw.num_l, aw.num_r, edges, colors))
        return AllWhiteCounters(aw)

    sat_via_allwhite(cnf, aw_solver=capture)
    assert seen == [paper_edge_instance(cnf)]


def pinned_3cnfs():
    """30 seeded random 3-CNF instances near the threshold, n from 8 to 16."""
    r = random.Random(4260)
    for _ in range(30):
        n = r.randint(8, 16)
        yield CnfInstance(n, [
            tuple(v if r.random() < 0.5 else -v for v in r.sample(range(1, n + 1), 3))
            for _ in range(round(4.26 * n))
        ])


# (verdict, phases, ops) per instance, as the driver gave them when each
# phase still walked its occurrence list in clause order
PINNED_SAT_COUNTS = [
    (1, 5, 26), (1, 1, 1), (1, 6, 44), (1, 35, 219), (0, 256, 2372),
    (1, 11, 102), (0, 256, 1943), (1, 26, 199), (1, 13, 117), (1, 11, 89),
    (1, 1, 1), (1, 5, 24), (0, 128, 786), (1, 5, 41), (1, 32, 274),
    (1, 3, 18), (1, 7, 48), (1, 53, 366), (1, 1, 1), (1, 73, 592),
    (1, 29, 253), (1, 120, 930), (1, 14, 124), (0, 128, 1262), (1, 3, 16),
    (1, 5, 33), (0, 256, 2094), (1, 16, 115), (0, 256, 1645), (1, 23, 169),
]


def test_sat_driver_counts_are_pinned():
    # a phase recolors the clauses that gain a satisfied literal before those
    # that lose one; on clauses without a complementary pair that order
    # changes no recolor, so every count stays as it was
    got = []
    for cnf in pinned_3cnfs():
        stats: dict = {}
        got.append((sat_via_allwhite(cnf, stats=stats), stats["phases"], stats["ops"]))
    assert got == PINNED_SAT_COUNTS


class CallLog:
    """An `aw_solver` that records each call the driver makes: one list of
    (white, nodes) recolor calls per phase, closed by that phase's answer."""

    def __init__(self, aw):
        self.solver = AllWhiteCounters(aw)
        self.phases = [[]]
        self.answers = 0

    def set_colors(self, nodes, white):
        self.phases[-1].append((white, list(nodes)))
        self.solver.set_colors(nodes, white)

    def answer(self):
        self.answers += 1
        self.phases.append([])
        return self.solver.answer()


def check_gray_walk(cnf: CnfInstance):
    logs = []

    def record(aw):
        logs.append(CallLog(aw))
        return logs[-1]

    stats: dict = {}
    sat_via_allwhite(cnf, aw_solver=record, stats=stats)
    (log,) = logs
    # every phase closes with its one answer, and nothing follows the last
    assert log.answers == stats["phases"] == len(log.phases) - 1
    assert log.phases.pop() == []
    half = (cnf.num_vars + cnf.num_vars % 2) // 2
    # the clause's second-half literals as (bit of u2, value that satisfies it)
    second = [[(abs(lit) - half - 1, lit > 0) for lit in clause if abs(lit) > half]
              for clause in cnf.clauses]

    def held(u2):  # the clauses u2 satisfies
        return {c for c, lits in enumerate(second)
                if any((u2 >> bit & 1) == value for bit, value in lits)}

    assert log.phases[0] == []  # phase 0 only queries the instance's colors
    last = 0
    before = held(last)
    for i, recolors in enumerate(log.phases[1:], 1):
        u2 = i ^ i >> 1  # phase i's second half: the reflected Gray code's i-th word
        assert bin(u2 ^ last).count("1") == 1
        now = held(u2)
        whites, blacks = sorted(now - before), sorted(before - now)
        # one call per direction that has clauses, whites first, none empty
        assert recolors == [(True, whites)] * bool(whites) + [(False, blacks)] * bool(blacks)
        last, before = u2, now


def test_sat_driver_walks_the_reflected_gray_code_on_pinned_instances():
    for cnf in pinned_3cnfs():
        check_gray_walk(cnf)


@settings(max_examples=100, deadline=None)
@given(split_cnfs(n_max=12))
@example(CnfInstance(4, [(3, -3), (4, 4), (-4, 1)]))
def test_sat_driver_walks_the_reflected_gray_code(cnf):
    check_gray_walk(cnf)


def test_sat_driver_keeps_a_complementary_clause_white():
    # clause 0 holds x3 and -x3, both in the second half, so some literal of
    # it always holds: no phase recolors it, and each of the 4 phases costs
    # one answer and nothing else
    stats: dict = {}
    assert sat_via_allwhite(CnfInstance(4, [(3, -3), (1,), (-1,)]), stats=stats) == 0
    assert stats["phases"] == stats["ops"] == 4


# ---------------------------------------------------------------------------
# DIMACS
# ---------------------------------------------------------------------------


def test_dimacs_round_trip():
    inst = CnfInstance(4, [(1, -3), (2, 4, -1), (-4,)])
    assert parse_dimacs(format_dimacs(inst)) == inst


def test_dimacs_comments_and_wrapped_clauses():
    text = "c header chatter\np cnf 3 2\n1 -2\n3 0 2 0\n"
    inst = parse_dimacs(text)
    assert inst.clauses == [(1, -2, 3), (2,)]


def test_dimacs_satlib_trailer_ends_the_clause_list():
    # shaped like SATLIB's uf20-91: comment lines, a padded header, clause
    # lines with leading spaces, then `%`, `0` and a blank line
    text = (
        "c This Formular is generated by mcnf\n"
        "c\n"
        "p cnf 4  3 \n"
        " 1 -3 4 0\n"
        "-2 3 -4 0\n"
        " 2 1 -3 0\n"
        "%\n"
        "0\n"
        "\n"
    )
    assert parse_dimacs(text) == CnfInstance(4, [(1, -3, 4), (-2, 3, -4), (2, 1, -3)])
    padded = "c 5% of it\np cnf 1 1\n1 0 # 10%\n  %\n0\n"
    assert parse_dimacs(padded) == CnfInstance(1, [(1,)])
    # only the tail is dropped, so errors before the trailer keep their line
    with pytest.raises(ParseError, match="^line 3: 'x 0'"):
        parse_dimacs("c\np cnf 1 1\nx 0\n%\n0\n")
    with pytest.raises(ParseError, match="'%x'"):
        parse_dimacs("p cnf 1 1\n1 0\n%x\n")


def test_dimacs_rejects_malformed():
    with pytest.raises(ParseError):
        parse_dimacs("1 2 0\n")  # clause before header
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 1\n1 2\n")  # unterminated
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 2\n1 0\n")  # count mismatch
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 1\n3 0\n")  # literal out of range
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 1\n0\n")  # empty clause
    with pytest.raises(ParseError):
        CnfInstance(2, [()]).validate()


def test_dimacs_names_the_line_of_a_bad_literal_or_empty_clause():
    with pytest.raises(ParseError, match="^line 3: '2 -3 0': clause 2: literal -3 out of range"):
        parse_dimacs("p cnf 2 2\n1 0\n2 -3 0\n")
    with pytest.raises(ParseError, match="^line 4: '0': clause 2 is empty"):
        parse_dimacs("c\np cnf 2 2\n1 2 0\n0\n")
    with pytest.raises(ParseError, match="^line 2: '1 0 0': clause 2 is empty"):
        parse_dimacs("p cnf 2 2\n1 0 0\n")


@st.composite
def raw_cnfs(draw):
    """Clause lists that may break `CnfInstance.validate`: literals past
    num_vars, empty clauses."""
    n = draw(st.integers(0, 5))
    literal = st.integers(1, n + 2).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(literal, max_size=3).map(tuple), max_size=5))
    return CnfInstance._unchecked(n, clauses)


@settings(max_examples=300, deadline=None)
@given(raw_cnfs())
@example(CnfInstance._unchecked(0, [()]))
@example(CnfInstance._unchecked(1, [(1,), (2, -1)]))
def test_parse_dimacs_accepts_exactly_what_validate_accepts(raw):
    try:
        CnfInstance(raw.num_vars, raw.clauses)
    except ParseError:
        with pytest.raises(ParseError, match=r"^line \d+: "):
            parse_dimacs(format_dimacs(raw))
    else:
        assert parse_dimacs(format_dimacs(raw)) == raw
