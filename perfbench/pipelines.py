"""The workloads: one pass of generated inputs through the CLI's pipelines.

Each pipeline is reached through the public entry point and defaults that
its `dyncx` subcommand uses:

* `eval`: `ClauseCounters`, whose per-token `apply` the pass calls directly;
* `verify --problem dnf|conn --prover honest`: `run_protocol` with the
  prover `cli._pick_prover` selects for `honest`;
* `verify --problem spanning-forest`: `SpanningForestProtocol` with its
  default oracle factory and the honest replacement prover;
* `complete-demo`: `compile_dnf_verifier_to_trees`, then
  `completeness_harness` with its default oracle;
* `sat`: `sat_via_allwhite` with its default solver.

`run_protocol` and `completeness_harness` loop over their `stream`
themselves, so the pass feeds them an iterator that timestamps each pull:
time from the call to the first pull is set-up, time between two pulls is
the step of the earlier token. An op's time is the sum of its step times
over the workload's pipelines; set-up time is parsing plus every
construction up to each pipeline's step-0 answer.

Ground truth comes from the brute-force routes (`dnf.eval_bruteforce`,
`oracles`) on the generator's own view of the state, and is computed and
compared outside the timed regions. Traced passes additionally open spans
around the calls into each module, through the same hooks the entry points
expose (prover callables, `oracle=`, `oracle_factory=`, `aw_solver=`) or on
the instance the pass itself constructs.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from array import array
from dataclasses import dataclass, replace
from time import perf_counter_ns
from typing import Callable

from dyncx import cli, connectivity, dnf, fdt, oracles, reductions
from dyncx.equiv import AllWhiteCounters
from dyncx.framework import UpdateStream, run_protocol

import workloads

# The CLI's defaults: `--seed 0`, `--prover honest`.
CLI_ARGS = argparse.Namespace(prover="honest", seed=0)

class Pass:
    """Timings, failures and exact counts of one pass over one input."""

    def __init__(self, num_ops: int, tracer=None, host=None):
        self.tracer = tracer
        self.host = host  # a `hostspeed.HostSpeed`, sampled between ops
        self.setup_ns = 0
        self.check_ns = 0
        # an array, so that adding to an op's time allocates no int object
        self.op_ns = array("q", bytes(8 * num_ops))
        self.failed = [False] * num_ops
        self.errors: list[str] = []
        self.counts: dict[str, int] = {}
        self.progress = 0  # index of the op the running pipeline is on
        self.forest_deletions: list[int] = []  # traced: steps cutting a forest edge

    def traced(self, name: str, fn):
        return self.tracer.wrap(name, fn) if self.tracer else fn

    def tick(self):
        if self.host:
            self.host.tick()

    def setup(self, name: str, fn, *args, **kwargs):
        """A set-up call: timed into set-up, traced as `name`."""
        t0 = perf_counter_ns()
        out = self.traced(name, fn)(*args, **kwargs)
        self.setup_ns += perf_counter_ns() - t0
        return out

    def guard(self, name: str, pipeline):
        """Return `pipeline()`, or None if it raised.

        A raise fails the op it hit and every later op.
        """
        self.progress = 0
        if self.tracer:
            self.tracer.op = 0
        try:
            return pipeline()
        except Exception:  # noqa: BLE001 - a failing pipeline is a reported result
            traceback.print_exc(file=sys.stderr)
            if self.tracer:
                self.tracer.unwind()
            self.errors.append(f"{name} raised at op {self.progress + 1}")
            for t in range(self.progress, len(self.failed)):
                self.failed[t] = True
            return None

    def expect(self, ok: bool, what: str):
        if not ok:
            self.errors.append(what)

    def loop(self, tokens, apply, check):
        """Call `apply(token)` per token, timed; `check(t, out)` runs untimed.

        `tokens` may be an iterator; pulling a token is not part of its op.
        """
        clock, times, tr = perf_counter_ns, self.op_ns, self.tracer
        for t, tok in enumerate(tokens):
            if tr:
                tr.op = t + 1
            t0 = clock()
            out = apply(tok)
            times[t] += clock() - t0
            if not check(t, out):
                self.failed[t] = True
            self.progress = t + 1
            self.tick()

    def feed(self, call, tokens, span: str):
        """Return `call(stream)`, timing each pull `call` makes from `stream`."""
        clock, times, tr = perf_counter_ns, self.op_ns, self.tracer

        def stream():
            self.setup_ns += clock() - start
            for t, tok in enumerate(tokens):
                self.progress = t
                if tr:
                    tr.op = t + 1
                    tr.begin(span)
                t0 = clock()
                yield tok
                times[t] += clock() - t0
                if tr:
                    tr.end()
                self.tick()
            self.progress = len(tokens)

        start = clock()
        return call(stream())

    def compare(self, got: list, want: list, what: str):
        """Step 0 is the set-up answer; step t the answer after op t."""
        self.expect(got[:1] == want[:1], f"{what}: wrong step-0 answer")
        for t, truth in enumerate(want[1:]):
            if t + 1 >= len(got) or got[t + 1] != truth:
                self.failed[t] = True


# ---------------------------------------------------------------------------
# DNF pipelines
# ---------------------------------------------------------------------------


def dnf_truths(inputs: workloads.DnfInputs) -> list[int]:
    """Answer before the first update and after each one, by full scans."""
    inst = dnf.DnfInstance(
        inputs.num_vars, [dnf.Clause(tuple((v, True) for v in c)) for c in inputs.clauses],
        list(inputs.assignment), 3)
    truths = [dnf.eval_bruteforce(inst)]
    for update in inputs.updates:
        if update is not None:
            var, bit = update
            inst.assignment[var] = bit
        truths.append(dnf.eval_bruteforce(inst))
    return truths


def parse_dnf_inputs(p: Pass, inputs):
    return p.guard("parse", lambda: (
        p.setup("dnf.parse", dnf.parse_dnf, inputs.text),
        list(p.setup("framework.parse", UpdateStream.parse, inputs.updates_text))))


def eval_pipeline(p: Pass, inst, tokens, truths):
    """`dyncx eval`: the counters' own `apply` per token."""

    def run():
        algo = p.setup("dnf.counters_setup", dnf.ClauseCounters, inst)
        x0 = p.setup("dnf.counters_setup", algo.answer)
        p.expect(x0 == truths[0], "eval: wrong step-0 answer")
        p.loop(tokens, p.traced("dnf.counters", algo.apply),
               lambda t, x: x == truths[t + 1])
        p.counts["dnf.counters_probes"] = algo.meter.count

    p.guard("eval", run)


def verify_dnf_pipeline(p: Pass, inst, tokens, truths):
    """`dyncx verify --problem dnf --prover honest`."""
    made = []

    def factory(i):
        verifier = dnf.DnfVerifier(i)
        made.append(verifier)
        if p.tracer:
            verifier.step = p.tracer.wrap("dnf.verifier", verifier.step)
            verifier.proof_space = counting(p, verifier.proof_space)
        return verifier

    def run():
        prover = p.traced("framework.prover", cli._pick_prover("dnf", CLI_ARGS))
        transcript = p.feed(lambda s: run_protocol(factory, prover, inst, s),
                            tokens, "framework.run_protocol")
        p.compare(transcript.answers(), truths, "verify dnf")
        p.counts["dnf.verifier_probes"] = made[0].meter.count

    p.guard("verify dnf", run)


def counting(p: Pass, proof_space):
    """Counts the candidates a prover draws from the published proof space."""
    p.counts.setdefault("framework.proof_candidates", 0)

    def space(token):
        for candidate in proof_space(token):
            p.counts["framework.proof_candidates"] += 1
            yield candidate

    return space


def harness_pipeline(p: Pass, inst, tokens, truths):
    """`dyncx complete-demo`: compiled trees driven by the argmax oracle."""

    def run():
        trees = p.setup("fdt.compile", fdt.compile_dnf_verifier_to_trees, inst)
        kwargs = {}
        if p.tracer:
            # the harness's default oracle, built here so its calls are traced
            oracle = p.setup(
                "fdt.oracle_init", fdt.FdtOracle,
                fdt.FdtInstance(list(inst.assignment), list(trees)),
            )
            oracle.update = p.tracer.wrap("fdt.oracle_update", oracle.update)
            oracle.answer = p.tracer.wrap("fdt.oracle_answer", oracle.answer)
            kwargs["oracle"] = oracle
        trace: list = []
        answers = p.feed(
            lambda s: fdt.completeness_harness(trees, inst.assignment, s,
                                               trace=trace, **kwargs),
            tokens, "fdt.harness")
        p.compare(answers, truths, "complete-demo")
        p.counts["fdt.mirrored_bits"] = sum(e["mirrored_bits"] for e in trace)

    p.guard("complete-demo", run)


def dnf_proofs_pass(p: Pass, inputs, truths):
    parsed = parse_dnf_inputs(p, inputs)
    if parsed:
        eval_pipeline(p, *parsed, truths)
        verify_dnf_pipeline(p, *parsed, truths)
        harness_pipeline(p, *parsed, truths)


# ---------------------------------------------------------------------------
# Graph pipelines
# ---------------------------------------------------------------------------


def graph_truths(inputs: workloads.GraphInputs) -> list[int]:
    """Component count before the first edit and after each one.

    Inserts union into the running `UnionFind`; a deletion rebuilds it from
    the generator's edge set.
    """
    n = inputs.num_nodes
    edges = set(inputs.edges)

    def rebuild():
        uf = oracles.UnionFind(n)
        return uf, n - sum(1 for u, v in edges if uf.union(u, v))

    uf, count = rebuild()
    counts = [count]
    for update in inputs.updates:
        if update is not None:
            sign, u, v = update
            if sign == "+":
                edges.add((u, v))
                count -= uf.union(u, v)
            else:
                edges.remove((u, v))
                uf, count = rebuild()
        counts.append(count)
    if count != oracles.component_count(n, edges):
        raise RuntimeError("incremental component count disagrees at the end")
    return counts


def parse_graph_inputs(p: Pass, inputs):
    return p.guard("parse", lambda: (
        p.setup("connectivity.setup", connectivity.parse_graph, inputs.text)[0],
        list(p.setup("framework.parse", UpdateStream.parse, inputs.updates_text))))


def verify_conn_pipeline(p: Pass, graph, tokens, counts):
    """`dyncx verify --problem conn --prover honest`."""
    made = []

    def factory(g):
        verifier = p.traced("connectivity.setup", connectivity.ConnVerifier)(
            g, forest_seed=CLI_ARGS.seed)
        made.append((verifier, verifier.forest.meter.count))
        if p.tracer:
            verifier.step = p.tracer.wrap("connectivity.verifier", verifier.step)
        return verifier

    prover = cli._pick_prover("conn", CLI_ARGS)
    if p.tracer:
        prover = mend_counting(p, p.tracer.wrap("connectivity.prover", prover))

    def run():
        transcript = p.feed(lambda s: run_protocol(factory, prover, graph, s),
                            tokens, "framework.run_protocol")
        truths = [1 if c == 1 else 0 for c in counts]
        p.compare(transcript.answers(), truths, "verify conn")
        verifier, base = made[0]
        p.counts["forest.probes"] = (p.counts.get("forest.probes", 0)
                                     + verifier.forest.meter.count - base)
        if p.tracer:
            p.counts["connectivity.forest_deletions"] = len(p.forest_deletions)
            p.counts["connectivity.mended"] = sum(
                1 for t in p.forest_deletions if transcript[t].output.y == 1)

    p.guard("verify conn", run)


def mend_counting(p: Pass, prover):
    """Notes which steps delete an edge of the verifier's forest."""

    def wrapped(verifier, token):
        if token[0] == "e" and token[1] == "-" and verifier.forest.has_edge(*token[2:]):
            p.forest_deletions.append(p.tracer.op)
        return prover(verifier, token)

    return wrapped


def spanning_pipeline(p: Pass, graph, tokens, counts, inputs):
    """`dyncx verify --problem spanning-forest`."""
    n = graph.num_nodes
    kwargs = {}
    prover = connectivity.honest_replacement_prover
    if p.tracer:
        kwargs["oracle_factory"] = traced_oracle_factory(p)
        prover = p.tracer.wrap("connectivity.replacement", prover)
    edges = set(inputs.edges)
    last_ok: list = [None]

    def valid(rec, t) -> bool:
        """A spanning forest of the current graph, reported in sync."""
        t0 = perf_counter_ns()
        forest, want = rec.forest_edges, counts[t]
        ok = (rec.valid and rec.component_count == want
              and len(forest) == n - want
              and all(e in edges for e in forest)
              # n - c(G) edges of G without a cycle span every component
              and (forest == last_ok[0]
                   or oracles.component_count(n, forest) == n - len(forest)))
        if ok:
            last_ok[0] = forest
        p.check_ns += perf_counter_ns() - t0
        return ok

    def check(t, rec) -> bool:
        update = inputs.updates[t]
        if update is not None:
            (edges.add if update[0] == "+" else edges.remove)(update[1:])
        return valid(rec, t + 1)

    def run():
        protocol = p.setup("connectivity.setup", connectivity.SpanningForestProtocol,
                           graph, prover=prover, forest_seed=CLI_ARGS.seed, **kwargs)
        first = p.setup("connectivity.setup", protocol.initial_report)
        p.expect(valid(first, 0), "spanning-forest: invalid step-0 forest")
        probes, calls = protocol.forest.meter.count, protocol.oracle.calls
        p.loop(tokens, p.traced("connectivity.spanning", protocol.apply), check)
        p.expect(not protocol.desynced, "spanning-forest: desynced")
        p.counts["forest.probes"] = (p.counts.get("forest.probes", 0)
                                     + protocol.forest.meter.count - probes)
        p.counts["connectivity.oracle_calls"] = protocol.oracle.calls - calls

    p.guard("spanning-forest", run)


def traced_oracle_factory(p: Pass):
    """The protocol's default oracle, with its public calls traced."""

    def factory(num_nodes, edges):
        oracle = connectivity.RebuildConnectivityOracle(num_nodes, edges)
        for name in ("insert", "delete", "is_connected"):
            setattr(oracle, name, p.tracer.wrap("connectivity.oracle", getattr(oracle, name)))
        return oracle

    return factory


def graph_pass(p: Pass, inputs, counts):
    parsed = parse_graph_inputs(p, inputs)
    if parsed:
        verify_conn_pipeline(p, *parsed, counts)
        spanning_pipeline(p, *parsed, counts, inputs)


# ---------------------------------------------------------------------------
# SAT
# ---------------------------------------------------------------------------


def sat_truths(inputs: workloads.SatInputs) -> list[int]:
    """No step-0 answer: each op decides its own instance."""
    return [None] + [int(oracles.sat_bruteforce(inputs.num_vars, c))
                     for c in inputs.instances]


def sat_pass(p: Pass, inputs, truths):
    """`dyncx sat` per instance; set-up is parsing every instance.

    Each instance is parsed just before it is decided, so that the pass's
    set-up time is summed over the whole pass rather than taken in one
    burst of a few milliseconds, which would see only the host's load of
    that moment.
    """

    def cnfs():
        for text in inputs.texts:
            if p.tracer:
                p.tracer.op = 0
            yield p.setup("reductions.parse", reductions.parse_dimacs, text)

    kwargs = {}
    if p.tracer:
        kwargs["aw_solver"] = traced_aw_solver(p)
    solve = p.traced("reductions.sat", reductions.sat_via_allwhite)
    p.counts["equiv.aw_ops"] = p.counts["reductions.sat_phases"] = 0

    def decide(cnf):
        stats: dict = {}
        bit = solve(cnf, budget=None, stats=stats, **kwargs)
        p.counts["equiv.aw_ops"] += stats["ops"]
        p.counts["reductions.sat_phases"] += stats["phases"]
        return bit

    p.guard("sat", lambda: p.loop(cnfs(), decide, lambda t, x: x == truths[t + 1]))


def traced_aw_solver(p: Pass):
    """The driver's default solver, with construction and calls traced."""

    def factory(aw):
        solver = p.tracer.wrap("equiv.aw", AllWhiteCounters)(aw)
        solver.set_color = p.tracer.wrap("equiv.aw", solver.set_color)
        solver.answer = p.tracer.wrap("equiv.aw", solver.answer)
        return solver

    return factory


# ---------------------------------------------------------------------------
# Workload table
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    generate: Callable  # (seed key, **size) -> inputs
    truths: Callable  # inputs -> truth before op 1, then after each op
    run: Callable  # (Pass, inputs, truths) -> None
    sizes: dict  # scale name -> generator keyword arguments
    # (Pass, inputs, truths) -> None: set-up alone, up to the step-0 answer,
    # repeated after each pass for `setup_s`; None where a run already holds
    # many set-ups (graph-cut) or set-up is spread over the pass (sat)
    setup: Callable | None = None
    # passes first run untimed under `tracemalloc`; `peak_mem_mb` is their mean
    memory_passes: int = 1


def setup_only(run):
    """`run` on the inputs without their updates: set-up and the step-0 answer."""
    return lambda p, inputs, truths: run(
        p, replace(inputs, updates=[], updates_text=""), truths[:1])


def _cut(seed, num_nodes, num_edges, num_updates):
    return workloads.random_graph(seed, num_nodes, num_edges, num_updates,
                                  insert_rate=0.2, query_rate=0.0)


# Sizes per scale. A run's spread across seeds comes partly from how many
# costly ops (forest-edge deletions, UNSAT instances) its passes hold, so
# the graphs are kept small enough (n=300) that a run covers hundreds of
# forest-edge deletions. "tiny" is for the smoke test.
WORKLOADS = {
    "dnf-proofs": Workload(
        workloads.sparse_dnf, dnf_truths, dnf_proofs_pass,
        {"full": dict(num_vars=500, num_clauses=2000, num_updates=200),
         "tiny": dict(num_vars=40, num_clauses=100, num_updates=40)},
        setup_only(dnf_proofs_pass)),
    "graph-cut": Workload(
        _cut, graph_truths, graph_pass,
        {"full": dict(num_nodes=300, num_edges=900, num_updates=300),
         "tiny": dict(num_nodes=30, num_edges=90, num_updates=40)},
        # a graph's peak holds the cyclic garbage not yet collected, which
        # varies from graph to graph
        memory_passes=3),
    "sat": Workload(
        workloads.random_3cnf, sat_truths, sat_pass,
        {"full": dict(count=200, num_vars=14),
         "tiny": dict(count=10, num_vars=8)}),
}
