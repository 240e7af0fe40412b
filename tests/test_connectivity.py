import dataclasses
import hashlib
import itertools
import json
import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from dyncx.connectivity import (
    ConnVerifier,
    DuplicateEdge,
    DynamicGraph,
    ForestConnectivityOracle,
    KconnVerifier,
    RebuildConnectivityOracle,
    SpanningForestProtocol,
    UnknownEdge,
    cycle_making_prover,
    format_graph,
    ghost_edge_prover,
    honest_conn_prover,
    honest_replacement_prover,
    mincut_bruteforce,
    mincut_oracle_prover,
    oversized_proof_prover,
    parse_graph,
    stubborn_replacement_prover,
)
from dyncx.framework import (
    BOTTOM,
    BudgetExceeded,
    Episode,
    ParseError,
    ProofOutOfSpace,
    UndecodableUpdate,
    UpdateStream,
    constant_prover,
    encode_edge,
    fuzz_soundness,
    random_prover,
    reward_maximizing_prover,
    run_protocol,
)
from dyncx.forest import DynamicForest
from dyncx.oracles import component_count, components, is_connected

from conftest import rand_edge_stream, rand_graph


def triangle():
    return DynamicGraph(3, {(0, 1), (0, 2), (1, 2)})


def replay_truths(graph, stream, judge):
    g = graph.copy()
    truths = [judge(g)]
    for tok in stream:
        if tok[0] == "e":
            g.apply(tok)
        truths.append(judge(g))
    return truths


def conn_truth(g):
    return 1 if is_connected(g.num_nodes, g.edges) else 0


# ---------------------------------------------------------------------------
# connectivity verifier
# ---------------------------------------------------------------------------


def test_tree_edge_deletion_outcomes():
    # sorted greedy preprocessing puts (0,1) and (0,2) in the forest
    v = ConnVerifier(triangle())
    assert v.initial_output().x == 1
    assert v.forest.has_edge(0, 1) and not v.forest.has_edge(1, 2)

    # valid replacement: x stays 1, reward 1
    out = v.copy().step(("e", "-", 0, 1), encode_edge(1, 2))
    assert (out.x, out.y) == (1, 1)

    # concession: the verifier reports the split and pays nothing
    out = v.copy().step(("e", "-", 0, 1), BOTTOM)
    assert (out.x, out.y) == (0, 0)

    # lying hurts: a proposal inside one component
    w = v.copy()
    out = w.step(("e", "-", 0, 1), encode_edge(0, 2))
    assert (out.x, out.y) == (0, -1)

    # undecodable bytes hurt too
    out = v.copy().step(("e", "-", 0, 1), b"zz")
    assert (out.x, out.y) == (0, -1)


@pytest.mark.parametrize("proof", [encode_edge(1, 9), encode_edge(1, 1), encode_edge(0, 1)],
                         ids=["out-of-range", "self-loop", "just-deleted"])
def test_a_proof_edge_outside_the_graph_hurts_without_a_probe(proof):
    conceded = ConnVerifier(triangle())
    conceded.step(("e", "-", 0, 1), BOTTOM)
    v = ConnVerifier(triangle())
    out = v.step(("e", "-", 0, 1), proof)
    assert (out.x, out.y) == (0, -1)
    # graph membership alone refuses it: the metered `connected` never runs
    assert v.forest.meter.count == conceded.forest.meter.count


def test_non_tree_deletion_and_insert_ignore_proofs():
    v = ConnVerifier(triangle())
    out = v.step(("e", "-", 1, 2), encode_edge(0, 1))
    assert (out.x, out.y) == (1, 0)
    out = v.step(("e", "+", 1, 2), BOTTOM)
    assert (out.x, out.y) == (1, 0)
    out = v.step(("q",), BOTTOM)
    assert (out.x, out.y) == (1, 0)


def test_ghost_edge_proposal_is_rejected():
    g = DynamicGraph(4, {(0, 1), (1, 2), (2, 3), (0, 3)})
    v = ConnVerifier(g)
    tree_edge = sorted(v.forest.tree_edges())[0]
    proof = ghost_edge_prover(v, ("e", "-", *tree_edge))
    out = v.step(("e", "-", *tree_edge), proof)
    assert out.y == -1


def test_completeness_with_honest_prover(rng):
    for _ in range(25):
        graph = rand_graph(rng)
        stream = UpdateStream(rand_edge_stream(rng, graph, 30))
        transcript = run_protocol(ConnVerifier, honest_conn_prover, graph, stream)
        assert transcript.answers() == replay_truths(graph, stream, conn_truth)


def test_maximizing_prover_reproduces_honest_transcript(rng):
    for _ in range(8):
        graph = rand_graph(rng, n_hi=6)
        stream = UpdateStream(rand_edge_stream(rng, graph, 15))
        honest = run_protocol(ConnVerifier, honest_conn_prover, graph, stream)
        greedy = run_protocol(ConnVerifier, reward_maximizing_prover(), graph, stream)
        assert [r.proof for r in honest.records] == [r.proof for r in greedy.records]
        assert honest.answers() == greedy.answers()


def test_soundness_against_adversaries(rng):
    def gen(r):
        graph = rand_graph(r, n_hi=7)
        stream = UpdateStream(rand_edge_stream(r, graph, 25))
        return Episode(graph, stream, replay_truths(graph, stream, conn_truth))

    attackers = [
        constant_prover(),
        cycle_making_prover,
        ghost_edge_prover,
        random_prover(seed=11),
    ]
    assert fuzz_soundness(ConnVerifier, gen, attackers, trials=60, seed=3) == []


def test_cycle_making_prover_leaves_the_verifier_untouched():
    """The adversary reads the verifier's forest with unmetered tour walks:
    its search adds nothing to the verifier's probe count or RNG draws."""
    graph = DynamicGraph(6, {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)})
    verifier = ConnVerifier(graph, forest_seed=2)
    count = verifier.forest.meter.count
    state = verifier.forest._rng.getstate()
    # the first graph edge in sorted order with both ends in one tree
    assert cycle_making_prover(verifier, ("e", "-", 1, 2)) == encode_edge(0, 1)
    assert verifier.forest.meter.count == count
    assert verifier.forest._rng.getstate() == state


def test_rewards_never_exceed_one_per_step(rng):
    graph = rand_graph(rng)
    stream = UpdateStream(rand_edge_stream(rng, graph, 40))
    transcript = run_protocol(ConnVerifier, honest_conn_prover, graph, stream)
    assert all(r.output.y in (0, 1) for r in transcript.records)


def graph_streams(data, n_max=7):
    """A graph and an edit stream over it: each step queries or toggles a
    drawn node pair."""
    n = data.draw(st.integers(2, n_max))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    present = set(data.draw(st.lists(st.sampled_from(pairs), unique=True)))
    graph = DynamicGraph(n, present)
    stream = []
    for pick in data.draw(st.lists(st.one_of(st.none(), st.sampled_from(pairs)),
                                   max_size=25)):
        if pick is None:
            stream.append(("q",))
            continue
        sign = "-" if pick in present else "+"
        (present.remove if sign == "-" else present.add)(pick)
        stream.append(("e", sign, *pick))
    return graph, stream


def sorted_scan_prover(verifier, token):
    """Reference search: cut a copy, then try every edge in sorted order."""
    if token[0] != "e" or token[1] != "-" or not verifier.forest.has_edge(*token[2:]):
        return BOTTOM
    _, _, u, v = token
    sim = verifier.copy()
    sim.step(token, BOTTOM)
    for a, b in sorted(sim.graph.edges):
        if (sim.forest.connected(a, u) and sim.forest.connected(b, v)) or (
            sim.forest.connected(a, v) and sim.forest.connected(b, u)
        ):
            return encode_edge(a, b)
    return BOTTOM


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_honest_conn_transcript_equals_maximizing(data):
    graph, stream = graph_streams(data)
    honest = run_protocol(ConnVerifier, honest_conn_prover, graph, stream)
    greedy = run_protocol(ConnVerifier, reward_maximizing_prover(), graph, stream)
    assert honest.to_json() == greedy.to_json()


def conceding_on(steps, prover):
    """`prover`, except that the marked steps get the null proof."""
    marks = iter(steps)
    return lambda verifier, token: BOTTOM if next(marks) else prover(verifier, token)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_honest_conn_prover_after_conceded_cuts(data):
    # a conceded tree-edge deletion leaves the forest non-maximal, so graph
    # edges can join two trees that the next cut does not touch
    graph, stream = graph_streams(data)
    concede = data.draw(st.lists(st.booleans(), min_size=len(stream),
                                 max_size=len(stream)))

    def read_only(verifier, token):
        forest = verifier.forest
        before = (forest.meter.count, forest._rng.getstate(), forest.tree_edges())
        proof = honest_conn_prover(verifier, token)
        assert (forest.meter.count, forest._rng.getstate(), forest.tree_edges()) == before
        return proof

    got = run_protocol(ConnVerifier, conceding_on(concede, read_only), graph, stream)
    want = run_protocol(ConnVerifier, conceding_on(concede, sorted_scan_prover),
                        graph, stream)
    assert got.to_json() == want.to_json()


def test_honest_conn_prover_never_offers_an_edge_into_a_third_tree():
    # forest: the star 1-{0, 2, 3}; (0, 3) and (2, 3) are non-tree edges
    graph = DynamicGraph(4, {(0, 1), (1, 2), (1, 3), (2, 3)})
    stream = [("e", "+", 0, 3), ("e", "-", 0, 1), ("e", "-", 1, 3)]
    concede = [False, True, False]
    honest = run_protocol(ConnVerifier, conceding_on(concede, honest_conn_prover),
                          graph, stream)
    greedy = run_protocol(ConnVerifier, conceding_on(concede, reward_maximizing_prover()),
                          graph, stream)
    # the conceded cut left {0} apart from {1, 2, 3} though (0, 3) joins
    # them; cutting (1, 3) leaves the side {3}, whose edge (0, 3) reaches
    # that third tree, and only (2, 3) mends the cut
    assert honest[3].proof == encode_edge(2, 3)
    assert greedy[3].proof == encode_edge(0, 3)


# ---------------------------------------------------------------------------
# spanning forest from an oracle
# ---------------------------------------------------------------------------


def spanning_invariants(protocol, report):
    graph = protocol.graph
    comp = components(graph.num_nodes, graph.edges)
    assert report.valid
    assert report.component_count == len(set(comp))
    assert len(report.forest_edges) == graph.num_nodes - report.component_count
    for u, v in report.forest_edges:
        assert graph.has(u, v)
    forest_comp = components(graph.num_nodes, report.forest_edges)
    assert forest_comp == comp


def test_spanning_protocol_tracks_components(rng):
    for _ in range(20):
        graph = rand_graph(rng)
        protocol = SpanningForestProtocol(graph)
        spanning_invariants(protocol, protocol.initial_report())
        for tok in rand_edge_stream(rng, graph, 40):
            report = protocol.apply(tok)
            spanning_invariants(protocol, report)


def test_spanning_only_queries_oracle_once_per_tree_deletion():
    graph = DynamicGraph(4, {(0, 1), (1, 2), (2, 3), (0, 3)})
    protocol = SpanningForestProtocol(graph)
    base = protocol.oracle.calls
    protocol.apply(("e", "-", 0, 1))
    used = protocol.oracle.calls - base
    # one edge deletion routed in, one connectivity query; the honest prover
    # works off the protocol's own forest, not the oracle
    assert used == 2


def test_stubborn_prover_desyncs_and_stays_invalid():
    graph = DynamicGraph(4, {(0, 1), (1, 2), (2, 3), (0, 3)})
    protocol = SpanningForestProtocol(graph, prover=stubborn_replacement_prover)
    report = protocol.apply(("e", "-", 0, 1))
    assert not report.valid and protocol.desynced
    # once desynced the structure freezes: later reports stay flagged and
    # further edits cannot corrupt the bookkeeping
    report = protocol.apply(("q",))
    assert not report.valid
    report = protocol.apply(("e", "+", 0, 2))
    assert not report.valid


@pytest.mark.parametrize("proposal", [(1, 9), (1, 1), (0, 1), (1, 0)],
                         ids=["out-of-range", "self-loop", "cut-edge", "cut-edge-reversed"])
def test_a_replacement_outside_the_graph_desyncs(proposal):
    graph = DynamicGraph(4, {(0, 1), (1, 2), (2, 3), (0, 3)})
    protocol = SpanningForestProtocol(graph, prover=lambda protocol, cut: proposal)
    assert protocol.forest.has_edge(0, 1)
    report = protocol.apply(("e", "-", 0, 1))
    assert not report.valid and protocol.desynced


@pytest.mark.parametrize("factory", [None, RebuildConnectivityOracle],
                         ids=["forest-oracle", "rebuild-oracle"])
@pytest.mark.parametrize("proposal, valid", [((4, 3), True), ((2, 3), False), ((0, 4), False)],
                         ids=["crossing", "one-side", "one-side-tree-edge"])
def test_a_replacement_must_cross_the_cut(factory, proposal, valid):
    # forest (0,1) (0,4) (1,2) (1,3); cutting (0,1) leaves sides {0, 4} and
    # {1, 2, 3}: (4, 3) crosses, while the graph edges (2, 3) and (0, 4) each
    # stay on one side
    graph = DynamicGraph(5, {(0, 1), (0, 4), (1, 2), (1, 3), (2, 3), (3, 4)})
    protocol = SpanningForestProtocol(graph, oracle_factory=factory,
                                      prover=lambda protocol, cut: proposal)
    assert sorted(protocol.forest.tree_edges()) == [(0, 1), (0, 4), (1, 2), (1, 3)]
    report = protocol.apply(("e", "-", 0, 1))
    assert report.valid is valid and protocol.desynced is not valid


def test_desynced_protocol_still_refuses_foreign_tokens():
    graph = DynamicGraph(4, {(0, 1), (1, 2), (2, 3), (0, 3)})
    protocol = SpanningForestProtocol(graph, prover=stubborn_replacement_prover)
    protocol.apply(("e", "-", 0, 1))
    assert protocol.desynced
    with pytest.raises(UndecodableUpdate):
        protocol.apply(("f", 0, 1))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_forest_oracle_matches_the_rebuild_oracle(data):
    n = data.draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)] or [None]
    edges = set(data.draw(st.lists(st.sampled_from(pairs).filter(bool), unique=True)))
    fast = ForestConnectivityOracle(n, edges)
    ref = RebuildConnectivityOracle(n, edges)
    calls = data.draw(st.lists(st.tuples(st.sampled_from("+-?"), st.sampled_from(pairs)),
                               max_size=40))
    # from this call on, a copy stands in for `fast`; the original stays frozen
    switch = data.draw(st.integers(0, len(calls)))
    original = frozen = None

    def state(oracle):
        return (set(oracle.graph.edges), list(oracle.label), [set(t) for t in oracle.tree],
                oracle.components, oracle.calls)

    for i, (kind, pair) in enumerate(calls):
        if i == switch:
            original, fast = fast, fast.copy()
            frozen = state(original)
            assert state(fast) == frozen
        if kind == "?" or pair is None:
            assert fast.is_connected() == ref.is_connected() == is_connected(n, edges)
        else:
            name = "insert" if kind == "+" else "delete"
            error = (DuplicateEdge if pair in edges else None) if kind == "+" else (
                None if pair in edges else UnknownEdge)
            for oracle in (fast, ref):
                if error is None:
                    getattr(oracle, name)(*pair)
                else:
                    with pytest.raises(error):
                        getattr(oracle, name)(*pair)
            if error is None:
                (edges.add if kind == "+" else edges.remove)(pair)
        assert fast.calls == ref.calls
        assert fast.components == component_count(n, edges)
        assert fast.is_connected() == is_connected(n, edges)
        ref.is_connected()
    if original is not None:
        assert state(original) == frozen


def churn(rng, n, m, steps):
    """A random graph on n >= 2 nodes with m edges, and `steps` edits, 80%
    of them deletions."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    graph = DynamicGraph(n, set(rng.sample(pairs, m)))
    return graph, rand_edge_stream(rng, graph, steps, query_rate=0.0, delete_rate=0.8)


def assert_forest_oracle_state(oracle, n, edges):
    """Its count, its labels and its forest match the edge set's components."""
    assert oracle.components == component_count(n, edges)
    comp = components(n, edges)
    # equal labels exactly within a component: (component, label) is a bijection
    assert len(set(zip(comp, oracle.label))) == len(set(comp)) == len(set(oracle.label))
    forest = {(u, v) for u in range(n) for v in oracle.tree[u] if u < v}
    assert all(v in oracle.tree[u] for u, v in forest)  # both directions kept
    assert forest <= edges
    assert component_count(n, forest) == oracle.components == n - len(forest)


def test_forest_oracle_on_seeded_churn():
    rng = random.Random(40)
    for _ in range(30):
        n = rng.randint(2, 40)
        graph, stream = churn(rng, n, rng.randint(0, min(n * (n - 1) // 2, 3 * n)), 60)
        edges = set(graph.edges)
        oracle = ForestConnectivityOracle(n, edges)
        assert_forest_oracle_state(oracle, n, edges)
        for calls, (_, sign, u, v) in enumerate(stream, 1):
            if sign == "+":
                oracle.insert(u, v)
                edges.add((u, v))
            else:
                oracle.delete(u, v)
                edges.remove((u, v))
            assert oracle.calls == calls
            assert_forest_oracle_state(oracle, n, edges)
        assert oracle.is_connected() == is_connected(n, edges)


def test_forest_oracle_splits_and_rejoins_a_path():
    n = 9
    edges = {(i, i + 1) for i in range(n - 1)}
    oracle = ForestConnectivityOracle(n, edges)
    assert oracle.is_connected()

    def edit(sign, u, v, smaller):
        before = list(oracle.label)
        key = (min(u, v), max(u, v))
        if sign == "+":
            oracle.insert(u, v)
            edges.add(key)
        else:
            oracle.delete(u, v)
            edges.remove(key)
        assert_forest_oracle_state(oracle, n, edges)
        # only the smaller tree's labels change
        assert [x for x in range(n) if oracle.label[x] != before[x]] == smaller

    edit("-", 4, 5, [5, 6, 7, 8])  # the middle: the right half gets a fresh label
    edit("-", 0, 1, [0])  # the ends
    edit("-", 7, 8, [8])
    assert oracle.components == 4 and not oracle.is_connected()
    assert len({oracle.label[x] for x in (0, 4, 5, 8)}) == 4
    edit("+", 4, 5, [5, 6, 7])  # {5, 6, 7} takes the label of {1, .., 4}
    edit("+", 8, 7, [8])
    edit("+", 1, 0, [0])
    assert oracle.components == 1 and oracle.is_connected()
    assert len(set(oracle.label)) == 1


def oracle_forest(oracle) -> set[tuple[int, int]]:
    return {(u, v) for u, nbrs in enumerate(oracle.tree) for v in nbrs if u < v}


def test_spanning_oracle_starts_with_the_protocols_forest():
    """The protocol's oracle starts with exactly its forest's tree edges
    plus one super-node edge per representative."""
    rng = random.Random(31)
    for _ in range(40):
        graph = rand_graph(rng, n_hi=30)
        protocol = SpanningForestProtocol(graph)
        n = graph.num_nodes
        assert oracle_forest(protocol.oracle) == (
            set(protocol.forest.tree_edges()) | {(rep, n) for rep in protocol.reps})


def test_forest_oracle_reads_any_iterable_of_pairs_once():
    """A set, a list with turned-round and repeated pairs, and a one-shot
    iterator give the greedy forest of the sorted edges, and the graph
    lists each vertex's neighbours in the order the pairs were handed."""
    rng = random.Random(32)
    for _ in range(30):
        n = rng.randint(2, 20)
        edges = rand_graph(rng, n_hi=n, n_lo=n).edges
        greedy = DynamicForest(n)
        greedy.build(sorted(edges))
        pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        pairs += rng.sample(pairs, len(pairs) // 3) + [(v, u) for u, v in pairs[:2]]
        rng.shuffle(pairs)
        for handed, order in ((edges, list(edges)), (pairs, pairs), (iter(pairs), pairs)):
            oracle = ForestConnectivityOracle(n, handed)
            assert oracle_forest(oracle) == set(greedy.tree_edges())
            assert oracle.components == component_count(n, edges)
            assert oracle.graph.edges == edges
            assert [list(nbrs) for nbrs in oracle.graph.adj] == [
                list(nbrs) for nbrs in DynamicGraph(n, order).adj]


def test_forest_meter_counts_are_pinned():
    """Exact Euler-tour probe counts of a seeded verifier and a seeded
    spanning protocol over one churn stream: a change to the treap's
    plumbing must charge exactly the same probes."""
    graph, stream = churn(random.Random(13), 40, 100, 120)
    verifier = ConnVerifier(graph, forest_seed=5)
    counts = [verifier.forest.meter.count]
    for token in stream:
        verifier.step(token, honest_conn_prover(verifier, token))
    counts.append(verifier.forest.meter.count)
    protocol = SpanningForestProtocol(graph, forest_seed=5)
    counts.append(protocol.forest.meter.count)
    for token in stream:
        assert protocol.apply(token).valid
    counts.append(protocol.forest.meter.count)
    # a forest-edge deletion climbs for component minima only after the
    # oracle reports a true split (11236 while it climbed before asking);
    # set-up reads each tree's minimum off the root `build` returns and
    # climbs from no vertex (297 and 10758 while it climbed from each one)
    assert counts == [0, 10254, 0, 10461]


def test_forest_meter_counts_are_pinned_at_perfbench_size():
    """The same pin on perfbench's graph-cut scale (n = 300, m = 900, 300
    edits, 80% of them deletions), where treaps run deep enough for every
    split, merge, arc pop and arc append to matter: the probe totals and
    the bytes of the verifier's transcript and the protocol's reports."""
    graph, stream = churn(random.Random(17), 300, 900, 300)
    verifiers = []

    def factory(g):
        verifiers.append(ConnVerifier(g, forest_seed=5))
        return verifiers[0]

    transcript = run_protocol(factory, honest_conn_prover, graph, stream)
    protocol = SpanningForestProtocol(graph, forest_seed=5)
    counts = [verifiers[0].forest.meter.count, protocol.forest.meter.count]
    reports = [protocol.initial_report()] + [protocol.apply(token) for token in stream]
    counts.append(protocol.forest.meter.count)
    # minima are read only after a true split (28940 while read before),
    # and set-up reads them off `build`'s roots (3480 and 27850 while it
    # climbed from every vertex)
    assert counts == [24253, 0, 24370]
    assert all(report.valid for report in reports)
    rows = json.dumps([[record.to_dict() for record in transcript.records],
                       [dataclasses.asdict(report) for report in reports]]).encode()
    assert hashlib.sha256(rows).hexdigest() == (
        "08549d42dc2585598c82446e3acd7d79756d3e83649bc9c0817891e0405f586e")


@pytest.mark.parametrize("prover", [None, stubborn_replacement_prover])
def test_spanning_reports_agree_under_either_oracle(rng, prover):
    for _ in range(15):
        graph = rand_graph(rng)
        stream = rand_edge_stream(rng, graph, 40)
        runs = []
        for factory in (None, RebuildConnectivityOracle):
            protocol = SpanningForestProtocol(graph, oracle_factory=factory, prover=prover)
            reports = [protocol.initial_report()] + [protocol.apply(t) for t in stream]
            runs.append((reports, protocol.oracle.calls))
        assert runs[0] == runs[1]


def test_spanning_reports_share_the_forest_list_until_it_changes():
    graph = DynamicGraph(4, {(0, 1), (1, 2), (2, 3), (0, 3)})
    protocol = SpanningForestProtocol(graph)
    first = protocol.initial_report()
    assert first.forest_edges == [(0, 1), (0, 3), (1, 2)]
    assert protocol.apply(("q",)).forest_edges is first.forest_edges
    assert protocol.apply(("e", "-", 2, 3)).forest_edges is first.forest_edges
    assert protocol.apply(("e", "-", 0, 1)).forest_edges == [(0, 3), (1, 2)]
    assert first.forest_edges == [(0, 1), (0, 3), (1, 2)]


@pytest.mark.parametrize("prover", [honest_replacement_prover, stubborn_replacement_prover],
                         ids=["honest", "adversarial:stubborn"])
def test_spanning_reports_hold_the_sorted_forest_of_their_step(rng, prover):
    desyncs = 0
    for _ in range(25):
        graph = rand_graph(rng)
        protocol = SpanningForestProtocol(graph, prover=prover)
        reports = [protocol.initial_report()]
        held = [list(reports[0].forest_edges)]
        assert held[0] == sorted(protocol.forest.tree_edges())
        for token in rand_edge_stream(rng, graph, 40):
            reports.append(protocol.apply(token))
            held.append(list(reports[-1].forest_edges))
            assert held[-1] == sorted(protocol.forest.tree_edges())
        desyncs += protocol.desynced
        # later links and cuts never reach an earlier report's list
        assert [r.forest_edges for r in reports] == held
    assert desyncs > 0 if prover is stubborn_replacement_prover else desyncs == 0


def test_honest_replacement_prover_names_a_straddling_edge():
    graph = DynamicGraph(4, {(0, 1), (1, 2), (2, 3), (0, 3)})
    protocol = SpanningForestProtocol(graph)
    protocol.graph.delete(0, 1)
    protocol.oracle.delete(0, 1)
    # the protocol asks before it cuts
    proposal = honest_replacement_prover(protocol, (0, 1))
    protocol.forest.cut(0, 1)
    assert proposal is not None
    a, b = proposal
    assert protocol.graph.has(a, b) and not protocol.forest.connected(a, b)


def test_both_honest_provers_name_the_same_replacement():
    """At every forest-edge deletion of a seeded churn, the connectivity
    verifier's prover and the spanning protocol's, each on its own uncut
    forest, name the same edge, or both none; the forests stay equal."""
    graph, stream = churn(random.Random(23), 40, 100, 120)
    verifier = ConnVerifier(graph, forest_seed=5)
    named = []

    def prover(protocol, cut_edge):
        named.append(honest_replacement_prover(protocol, cut_edge))
        return named[-1]

    protocol = SpanningForestProtocol(graph, prover=prover, forest_seed=5)
    outcomes = set()
    for token in stream:
        _, sign, u, v = token
        cutting = sign == "-" and verifier.forest.has_edge(u, v)
        proof = honest_conn_prover(verifier, token)
        named.clear()
        verifier.step(token, proof)
        assert protocol.apply(token).valid
        # a split is no question for the spanning protocol's prover
        assert len(named) <= cutting
        if cutting:
            edge = named[0] if named else None
            assert proof == (BOTTOM if edge is None else encode_edge(*edge))
            outcomes.add(edge is None)
        assert verifier.forest.tree_edges() == protocol.forest.tree_edges()
    assert outcomes == {False, True}


# ---------------------------------------------------------------------------
# k-connectivity verifier
# ---------------------------------------------------------------------------


def test_kconn_step_outcomes():
    path = DynamicGraph(3, {(0, 1), (1, 2)})
    v = KconnVerifier(path, k=2)
    assert v.initial_output().x == 1  # a bridge exists

    out = v.copy().step(("q",), encode_edge(0, 1))
    assert (out.x, out.y) == (1, 1)

    # naming a non-cut edge set that leaves the graph connected
    cyc = KconnVerifier(DynamicGraph(3, {(0, 1), (1, 2), (0, 2)}), k=2)
    out = cyc.copy().step(("q",), encode_edge(0, 1))
    assert (out.x, out.y) == (0, 0)
    out = cyc.copy().step(("q",), BOTTOM)
    assert (out.x, out.y) == (0, 0)

    # ghost edges and oversized or duplicated sets are malformed
    three = KconnVerifier(DynamicGraph(4, {(0, 1), (1, 2), (2, 3)}), k=3)
    reversed_01 = (1).to_bytes(4, "big") + (0).to_bytes(4, "big")
    for verifier, proof in [
        (cyc, encode_edge(1, 9)),  # out of range
        (cyc, encode_edge(1, 1)),  # self-loop
        (cyc, encode_edge(0, 1) * 2),  # oversized for k = 2
        (three, encode_edge(0, 1) * 2),  # duplicated
        (three, encode_edge(0, 1) + reversed_01),  # duplicated, one end swapped
        (three, encode_edge(0, 3)),  # not an edge
    ]:
        trial = verifier.copy()
        out = trial.step(("q",), proof)
        assert (out.x, out.y) == (0, -1)
        # a refused proof leaves the oracle untouched
        assert trial.conn.calls == verifier.conn.calls
        assert trial.graph == verifier.graph


def test_kconn_counts_oracle_touches():
    g = DynamicGraph(4, {(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)})
    v = KconnVerifier(g, k=3)
    v.step(("q",), encode_edge(0, 1) + encode_edge(2, 3))
    assert v.conn.calls == 2 * 2 + 1


def test_kconn_proof_space_orders_by_size_then_payload():
    v = KconnVerifier(DynamicGraph(3, {(0, 1), (1, 2), (0, 2)}), k=3)
    space = v.proof_space(("q",))
    assert space[0] == BOTTOM
    keys = [(len(p), p) for p in space[1:]]
    assert keys == sorted(keys)
    # 3 singletons + 3 pairs
    assert len(space) == 7
    # the sets are drawn from the graph as the pending update leaves it
    assert v.proof_space(("e", "-", 1, 0)) == [
        BOTTOM, encode_edge(0, 2), encode_edge(1, 2), encode_edge(0, 2) + encode_edge(1, 2)]
    lone = KconnVerifier(DynamicGraph(2), k=2)
    assert lone.proof_space(("e", "+", 1, 0)) == [BOTTOM, encode_edge(0, 1)]


def test_kconn_completeness_with_mincut_prover(rng):
    for _ in range(12):
        graph = rand_graph(rng, n_hi=6)
        k = rng.randint(1, 3)
        stream = UpdateStream(rand_edge_stream(rng, graph, 12))

        def judge(g):
            value, _ = mincut_bruteforce(g)
            return 1 if value < k else 0

        transcript = run_protocol(
            lambda g: KconnVerifier(g, k), mincut_oracle_prover, graph, stream
        )
        assert transcript.answers() == replay_truths(graph, stream, judge)


def test_mincut_prover_concedes_below_two_nodes():
    transcript = run_protocol(lambda g: KconnVerifier(g, 2), mincut_oracle_prover,
                              DynamicGraph(1), [("q",)])
    assert transcript.answers() == [0, 0]
    assert transcript[1].proof == BOTTOM


def test_kconn_soundness(rng):
    def gen(r):
        graph = rand_graph(r, n_hi=5)
        stream = UpdateStream(rand_edge_stream(r, graph, 10))

        def judge(g):
            value, _ = mincut_bruteforce(g)
            return 1 if value < 2 else 0

        return Episode(graph, stream, replay_truths(graph, stream, judge))

    attackers = [constant_prover(), random_prover(seed=4)]
    assert (
        fuzz_soundness(lambda g: KconnVerifier(g, 2), gen, attackers, trials=40, seed=9)
        == []
    )


def test_oversized_proof_refused_by_the_protocol():
    g = DynamicGraph(4, {(0, 1), (1, 2), (2, 3), (0, 3)})
    with pytest.raises(ProofOutOfSpace):
        run_protocol(
            lambda gr: KconnVerifier(gr, 2),
            oversized_proof_prover,
            g,
            UpdateStream([("q",)]),
        )


def test_mincut_examples():
    assert mincut_bruteforce(DynamicGraph(3, {(0, 1), (1, 2)}))[0] == 1
    value, witness = mincut_bruteforce(DynamicGraph(4, {(0, 1), (1, 2), (2, 3), (0, 3)}))
    assert value == 2 and len(witness) == 2
    assert mincut_bruteforce(DynamicGraph(2, set())) == (0, set())
    # below two nodes there is no cut
    assert mincut_bruteforce(DynamicGraph(1)) == (math.inf, set())
    with pytest.raises(BudgetExceeded):
        mincut_bruteforce(DynamicGraph(100), budget=64)


# ---------------------------------------------------------------------------
# graph container and file format
# ---------------------------------------------------------------------------


def test_graph_rejects_bad_edits():
    g = triangle()
    with pytest.raises(DuplicateEdge):
        g.insert(1, 0)
    with pytest.raises(UnknownEdge):
        DynamicGraph(3).delete(0, 1)
    with pytest.raises(ParseError):
        g.insert(0, 0)
    with pytest.raises(ParseError):
        g.insert(0, 9)


def model_error(model, n, op, u, v):
    """The (type, message) an edit of an edge-set model must raise, or None."""
    key = (min(u, v), max(u, v))
    if u == v:
        return ParseError, "self-loops are not allowed"
    if not (0 <= u < n and 0 <= v < n):
        return ParseError, f"edge ({u + 1},{v + 1}) out of range"
    if op == "insert" and key in model:
        return DuplicateEdge, f"edge ({key[0] + 1},{key[1] + 1}) already present"
    if op == "delete" and key not in model:
        return UnknownEdge, f"edge ({key[0] + 1},{key[1] + 1}) not present"
    return None


def assert_graph_is_model(graph, n, model):
    assert graph.edges == model
    assert graph.sorted_edges() == sorted(model)
    assert all(u in graph.adj[v] and u != v for u in range(n) for v in graph.adj[u])
    assert graph == DynamicGraph(n, model)
    text = repr(graph)
    assert text.startswith(f"DynamicGraph(num_nodes={n}, edges=")
    assert eval(text, {"DynamicGraph": DynamicGraph}) == graph


@settings(max_examples=300)
@given(st.data())
def test_graph_matches_an_edge_set_model(data):
    n = data.draw(st.integers(0, 9))
    ids = st.integers(-1, n)  # one past each end of the range
    start = data.draw(st.lists(st.tuples(ids, ids).filter(
        lambda e: e[0] != e[1] and 0 <= min(e) and max(e) < n)))
    model = {(min(e), max(e)) for e in start}
    # repeats, in either orientation, are dropped
    graph = DynamicGraph(n, start + [(v, u) for u, v in start])
    assert_graph_is_model(graph, n, model)
    frozen = []  # (graph, model) pairs left behind by `copy`, never edited again
    ops = data.draw(st.lists(st.tuples(
        st.sampled_from(["insert", "delete", "has", "copy"]), ids, ids), max_size=30))
    for op, u, v in ops:
        if op == "has":
            assert graph.has(u, v) == ((min(u, v), max(u, v)) in model)
        elif op == "copy":
            dup = graph.copy()
            assert dup == graph and dup.adj is not graph.adj
            frozen.append((graph, set(model)))
            graph = dup  # later edits go to the copy
        else:
            error = model_error(model, n, op, u, v)
            if error is None:
                getattr(graph, op)(u, v)
                (model.add if op == "insert" else model.remove)((min(u, v), max(u, v)))
            else:
                with pytest.raises(error[0]) as raised:
                    getattr(graph, op)(u, v)
                assert type(raised.value) is error[0] and str(raised.value) == error[1]
        assert_graph_is_model(graph, n, model)
    for old, old_model in frozen:
        assert_graph_is_model(old, n, old_model)
    assert graph != model and graph != DynamicGraph(n + 1, model)
    with pytest.raises(TypeError):
        hash(graph)


def test_graph_keeps_each_edge_once():
    assert DynamicGraph.__slots__ == ("num_nodes", "adj")
    with pytest.raises(AttributeError):
        triangle().edges = set()
    # a neighbour dict lists them as added, 16 before 8 before 1
    graph = DynamicGraph(17, [(0, 16), (0, 8), (0, 1)])
    assert graph.sorted_edges() == [(0, 1), (0, 8), (0, 16)]


def test_graph_file_round_trip():
    g = DynamicGraph(5, {(0, 4), (1, 2)})
    text = format_graph(g, k=3)
    again, k = parse_graph(text)
    assert again.edges == g.edges and again.num_nodes == 5 and k == 3
    again, k = parse_graph(format_graph(g))
    assert k is None


def test_graph_file_rejects_garbage():
    with pytest.raises(ParseError):
        parse_graph("e 1 2\n")
    with pytest.raises(ParseError):
        parse_graph("p graph 3\nz 1\n")


@pytest.mark.parametrize("text, message", [
    ("p graph 2\nk 0\n", "line 2: 'k 0': k must be >= 1"),
    ("p graph 2\nk -1\n", "line 2: 'k -1': k must be >= 1"),
    ("p graph 2\nk 2\ne 1 2\nk 3\n", "line 4: 'k 3': second 'k' line"),
], ids=["zero", "negative", "repeated"])
def test_graph_file_checks_its_k_line_on_that_line(text, message):
    with pytest.raises(ParseError) as raised:
        parse_graph(text)
    assert str(raised.value) == message


def test_graph_adjacency_footprint():
    """Neighbours are dict keys: at the degrees of a 300-node, 900-edge
    graph a compact dict takes under half the bytes of a set's table,
    however the graph was built."""
    n = 300
    edges = random.Random(7).sample(list(itertools.combinations(range(n), 2)), 900)
    text = "".join([f"p graph {n}\n"] + [f"e {u + 1} {v + 1}\n" for u, v in edges])
    built = DynamicGraph(n, edges)
    for graph in (parse_graph(text)[0], built, built.copy()):
        adj = graph.adj
        assert sys.getsizeof(adj) + sum(map(sys.getsizeof, adj)) < 110_000


def test_kconn_maximizing_prover_is_complete():
    graph = DynamicGraph(4, {(0, 1), (1, 2), (2, 3), (0, 3)})
    stream = UpdateStream.parse("e - 1 2\nq\n")
    transcript = run_protocol(lambda g: KconnVerifier(g, 2), reward_maximizing_prover(),
                              graph, stream)
    assert transcript.answers() == [0, 1, 1]
    rng = random.Random(15)
    for _ in range(24):
        n, k = rng.randint(2, 8), rng.randint(1, 3)
        graph = rand_graph(rng, n_hi=n, n_lo=n)
        stream = rand_edge_stream(rng, graph, 10)
        transcript = run_protocol(lambda g: KconnVerifier(g, k), reward_maximizing_prover(),
                                  graph, stream)
        assert transcript.answers() == replay_truths(
            graph, stream, lambda g: int(mincut_bruteforce(g)[0] < k))


def test_kconn_keeps_one_edge_set_and_copies_it():
    v = KconnVerifier(DynamicGraph(4, {(0, 1), (1, 2), (2, 3), (0, 3)}), k=2)
    assert v.graph is v.conn.graph
    sim = v.copy()
    assert sim.graph is sim.conn.graph and sim.conn is not v.conn
    out = sim.step(("e", "-", 1, 2), encode_edge(0, 3))
    # one call routes the update, then 2|S| + 1 for the proof
    assert (out.x, out.y, sim.conn.calls) == (1, 1, 1 + 3)
    assert v.graph.edges == {(0, 1), (1, 2), (2, 3), (0, 3)} and v.conn.calls == 0
    assert sim.graph.edges == {(0, 1), (2, 3), (0, 3)}
