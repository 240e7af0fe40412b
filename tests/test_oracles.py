import itertools
import math
import random

from dyncx.oracles import (
    diameter,
    is_connected,
    max_flow,
    reachable_from,
    sat_bruteforce,
    scc_count,
)


def test_diameter_basics():
    assert diameter(1, []) == 0
    assert diameter(2, []) == math.inf
    assert diameter(4, [(0, 1), (1, 2), (2, 3)]) == 3
    assert diameter(4, [(0, 1), (1, 2), (2, 3), (3, 0)]) == 2


def test_is_connected_counts_isolated_vertices():
    assert is_connected(1, [])
    assert not is_connected(3, [(0, 1)])
    assert is_connected(3, [(0, 1), (2, 1)])


def test_reachability_is_directed():
    arcs = [(0, 1), (1, 2)]
    assert reachable_from(3, arcs, 0) == {0, 1, 2}
    assert reachable_from(3, arcs, 2) == {2}


def test_scc_count_examples():
    assert scc_count(3, [(0, 1), (1, 2)]) == 3
    assert scc_count(3, [(0, 1), (1, 2), (2, 0)]) == 1
    assert scc_count(4, [(0, 1), (1, 0), (2, 3)]) == 3


def test_max_flow_value_and_cut_side():
    caps = {(0, 1): 1, (0, 2): 1, (1, 3): 1, (2, 3): 1}
    value, side = max_flow(4, caps, 0, 3)
    assert value == 2
    assert 0 in side and 3 not in side
    # bottleneck in the middle
    caps = {(0, 1): 5, (1, 2): 1, (2, 3): 5}
    value, side = max_flow(4, caps, 0, 3)
    assert value == 1
    assert side == {0, 1}


def test_max_flow_disconnected_is_zero():
    value, side = max_flow(3, {(0, 1): 2}, 0, 2)
    assert value == 0
    assert side == {0, 1}


def test_sat_bruteforce_matches_hand_cases():
    assert sat_bruteforce(1, [(1,), (-1,)]) is False
    assert sat_bruteforce(2, [(1, 2), (-1, 2)]) is True
    assert sat_bruteforce(2, []) is True
    assert sat_bruteforce(3, [(1,), (-1, 2), (-2, 3), (-3, -1)]) is False


def test_sat_bruteforce_matches_enumeration():
    rng = random.Random(3)
    for n in range(1, 9):
        for _ in range(12):
            clauses = [
                tuple(rng.choice((-1, 1)) * v
                      for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n))))
                for _ in range(rng.randint(0, 5 * n))
            ]
            want = any(
                all(any(bits[abs(lit) - 1] == (lit > 0) for lit in cl) for cl in clauses)
                for bits in itertools.product((False, True), repeat=n)
            )
            assert sat_bruteforce(n, clauses) is want
