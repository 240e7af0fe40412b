#!/usr/bin/env python3
"""Walk the verifier/prover protocols on one random graph.

Shows, on the same edit stream: the connectivity verifier under an honest
prover, the same verifier under adversarial provers (soundness holds, the
answer just degrades to NO after unrepaired cuts), the spanning-forest
protocol with its oracle call counter, and the below-k connectivity
verifier against a brute-force min cut.
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dyncx.connectivity import (
    ConnVerifier,
    DynamicGraph,
    KconnVerifier,
    SpanningForestProtocol,
    cycle_making_prover,
    ghost_edge_prover,
    honest_conn_prover,
    mincut_bruteforce,
    mincut_oracle_prover,
)
from dyncx.framework import constant_prover, replay, run_protocol
from dyncx.oracles import is_connected


def random_graph(rng, n, density):
    # start connected (random spanning tree) so deletions have teeth
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[rng.randrange(i)], order[i]
        edges.add((min(u, v), max(u, v)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges |= {e for e in pairs if rng.random() < density}
    return DynamicGraph(n, edges)


def edit_stream(rng, graph, steps):
    present = set(graph.edges)
    n = graph.num_nodes
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    out = []
    for _ in range(steps):
        absent = [e for e in pairs if e not in present]
        if present and (rng.random() < 0.6 or not absent):
            e = rng.choice(sorted(present))
            present.discard(e)
            out.append(("e", "-", e[0], e[1]))
        else:
            e = rng.choice(absent)
            present.add(e)
            out.append(("e", "+", e[0], e[1]))
    return out


def show(label, transcript, truths=None):
    bits = "".join(str(x) for x in transcript.answers())
    line = f"  {label:<22} x: {bits}"
    if truths is not None:
        marks = "".join(
            "." if x == t else "!" for x, t in zip(transcript.answers(), truths)
        )
        line += f"   vs truth: {marks}"
    rewarded = sum(1 for y in transcript.rewards() if y == 1)
    penalized = sum(1 for y in transcript.rewards() if y < 0)
    print(f"{line}   (y=+1 x{rewarded}, y<0 x{penalized})")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nodes", type=int, default=10)
    ap.add_argument("--density", type=float, default=0.3)
    ap.add_argument("--steps", type=int, default=30)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    graph = random_graph(rng, args.nodes, args.density)
    stream = edit_stream(rng, graph, args.steps)
    print(f"graph: {graph.num_nodes} nodes, {len(graph.edges)} edges; "
          f"{args.steps} edits")

    truths = replay(graph.copy(), stream,
                    lambda g: 1 if is_connected(g.num_nodes, g.edges) else 0)

    print("\nconnectivity verifier ('.' = agrees with ground truth)")
    show("honest prover", run_protocol(ConnVerifier, honest_conn_prover, graph, stream), truths)
    for label, prover in [
        ("silent prover", constant_prover()),
        ("cycle proposals", cycle_making_prover),
        ("ghost edges", ghost_edge_prover),
    ]:
        # adversaries can only lose completeness; x=1 still implies connected
        tr = run_protocol(ConnVerifier, prover, graph, stream)
        assert all(t == 1 for x, t in zip(tr.answers(), truths) if x == 1)
        show(label, tr, truths)

    print("\nspanning forest from a connectivity oracle")
    protocol = SpanningForestProtocol(graph.copy())
    report = protocol.initial_report()
    for tok in stream:
        report = protocol.apply(tok)
    print(f"  final: {len(report.forest_edges)} forest edges, "
          f"{report.component_count} components, "
          f"{protocol.oracle.calls} oracle calls, valid={report.valid}")

    print(f"\nbelow-{args.k} edge connectivity (x=1 iff some cut < {args.k})")
    ver_answers = run_protocol(
        lambda gr: KconnVerifier(gr, args.k), mincut_oracle_prover, graph, stream
    ).answers()
    cuts = replay(graph.copy(), stream, lambda g: mincut_bruteforce(g)[0])
    marks = "".join(
        "." if x == (1 if c < args.k else 0) else "!"
        for x, c in zip(ver_answers, cuts)
    )
    print(f"  x: {''.join(map(str, ver_answers))}")
    print(f"  min cuts: {' '.join(map(str, cuts))}")
    print(f"  agreement: {marks}")


if __name__ == "__main__":
    main()
