import random

import pytest

from dyncx import oracles
from dyncx.equiv import AllWhiteInstance, aw_bruteforce
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

        def set_color(self, node, white):
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
