"""Command-line front end.

Subcommands: eval (dynamic DNF answers), verify (prover/verifier
protocols), reduce (per-step decoder agreement), sat (the all-white SAT
driver), complete-demo (tree-compiled completeness harness), bench
(naive vs counters probe costs). Every command assembles a RunReport
and exits 0 iff all of its pass/fail flags pass.

Reports are byte-deterministic for a fixed --seed: JSON output is
sorted and omits wall-clock time unless --timing is given.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass, field

from . import connectivity, dnf, equiv, fdt, oracles, reductions
from .framework import (
    BOTTOM,
    DyncxError,
    ParseError,
    ProofOutOfSpace,
    UpdateStream,
    constant_prover,
    format_token,
    random_prover,
    replay,
    reward_maximizing_prover,
    run_protocol,
)


@dataclass
class RunReport:
    command: list[str]
    steps: list[dict] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    wall_clock: float = 0.0

    def passed(self) -> bool:
        return all(self.flags.values())

    def to_payload(self, timing: bool = False) -> dict:
        payload = {
            "schema": 1,
            "command": self.command,
            "steps": self.steps,
            "counters": self.counters,
            "flags": self.flags,
        }
        if timing:
            payload["wall_clock_s"] = round(self.wall_clock, 6)
        return payload


def _emit(report: RunReport, args) -> int:
    if args.table:
        print(f"$ {' '.join(report.command)}")
        for key, value in sorted(report.counters.items()):
            print(f"  {key:<26} {value}")
        for key, value in sorted(report.flags.items()):
            print(f"  {key:<26} {'pass' if value else 'FAIL'}")
        if report.steps and "row" in report.steps[0]:
            for rec in report.steps:
                print("  " + rec["row"])
        print(f"  wall clock: {report.wall_clock:.3f}s")
    else:
        print(json.dumps(report.to_payload(args.timing), sort_keys=True))
    return 0 if report.passed() else 1


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _load_stream(path: str | None) -> UpdateStream:
    if path is None:
        return UpdateStream([])
    return UpdateStream.parse(_read(path))


def _applied(stream: UpdateStream, run):
    """run(tokens) over the stream's tokens. A DyncxError raised while token
    t is the last one handed out comes back naming that token's line in the
    updates file and its step: `updates line N (step t): <message>`. An
    error that names step t itself (`ProofOutOfSpace`) gives its message
    without it, so the line names the step once."""
    step = 0

    def tokens():
        nonlocal step
        for step, tok in enumerate(stream, 1):
            yield tok
        step = 0

    try:
        return run(tokens())
    except DyncxError as exc:
        if not step:
            raise
        named = isinstance(exc, ProofOutOfSpace) and exc.step == step
        message = exc.reason if named else exc
        raise DyncxError(
            f"updates line {stream.lines[step - 1]} (step {step}): {message}") from None


def _fmt(tok) -> str | None:
    return None if tok is None else format_token(tok)


def _read_dnf(args) -> dnf.DnfInstance:
    """The --in DNF instance; a clause order, if given, is dropped."""
    inst = dnf.parse_dnf(_read(getattr(args, "in")))
    return inst.base if isinstance(inst, dnf.FirstDnfInstance) else inst


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def cmd_eval(args) -> RunReport:
    inst = _read_dnf(args)
    stream = _load_stream(args.updates)
    factory = dnf.NaiveAlgorithm if args.algo == "naive" else dnf.ClauseCounters
    algo = factory(inst)
    answers = [algo.answer()]
    answers += _applied(stream, lambda tokens: list(map(algo.apply, tokens)))
    report = RunReport(command=args.echo)
    report.steps = [
        {"step": t, "update": _fmt(tok), "answer": x}
        for t, (tok, x) in enumerate(zip([None] + list(stream), answers))
    ]
    report.counters = {
        "algo": args.algo,
        "probes": algo.meter.count,
        "updates": len(stream),
        "flips": sum(1 for tok in stream if tok[0] == "f"),
    }
    if args.check:
        truths = replay(inst.copy(), stream, dnf.eval_bruteforce)
        report.flags["matches_oracle"] = answers == truths
    return report


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


_HONEST = {
    "dnf": dnf.honest_dnf_prover,
    "conn": lambda: connectivity.honest_conn_prover,
    "kconn": lambda: connectivity.mincut_oracle_prover,
    "spanning-forest": lambda: connectivity.honest_replacement_prover,
}

_ADVERSARIES = {
    "dnf": {"bottom": constant_prover(BOTTOM)},
    "conn": {
        "bottom": constant_prover(BOTTOM),
        "cycle": connectivity.cycle_making_prover,
        "ghost": connectivity.ghost_edge_prover,
    },
    "kconn": {
        "bottom": constant_prover(BOTTOM),
        "oversize": connectivity.oversized_proof_prover,
    },
    "spanning-forest": {"stubborn": connectivity.stubborn_replacement_prover},
}


def _pick_prover(problem: str, args):
    """The --prover for a problem; any other name is a DyncxError.

    spanning-forest's provers return a replacement edge, not a proof from a
    published space, so it takes only `honest` and its own adversaries."""
    name = args.prover
    if name == "honest":
        return _HONEST[problem]()
    if name.startswith("adversarial:"):
        table = _ADVERSARIES[problem]
        key = name.split(":", 1)[1]
        if key not in table:
            raise DyncxError(
                f"unknown adversary {key!r} for {problem}; have {sorted(table)}"
            )
        return table[key]
    if problem != "spanning-forest":
        if name == "maximizing":
            return reward_maximizing_prover()
        if name == "random":
            return random_prover(args.seed)
    raise DyncxError(f"unknown prover {name!r} for {problem}")


def cmd_verify(args) -> RunReport:
    problem = args.problem
    stream = _load_stream(args.updates)
    report = RunReport(command=args.echo)

    if problem == "spanning-forest":
        return _verify_spanning(args, stream, report)

    if problem == "dnf":
        inst = _read_dnf(args)
        factory = dnf.DnfVerifier
    else:
        inst, k = connectivity.parse_graph(_read(getattr(args, "in")))
        if problem == "conn":
            factory = lambda g: connectivity.ConnVerifier(g, forest_seed=args.seed)  # noqa: E731
        else:
            k = args.k if args.k is not None else k
            if k is None:
                raise DyncxError("kconn needs --k or a k header in the graph file")
            args.k = k
            factory = lambda g: connectivity.KconnVerifier(g, k)  # noqa: E731

    prover = _pick_prover(problem, args)
    transcript = _applied(
        stream, lambda tokens: run_protocol(factory, prover, inst, tokens))
    report.steps = [r.to_dict() for r in transcript.records]
    report.counters = {
        "problem": problem,
        "prover": args.prover,
        "yes_steps": sum(transcript.answers()),
        "reward_total": sum(transcript.rewards()),
        "updates": len(stream),
    }

    if args.check:
        truths = _ground_truths(problem, args, inst, stream)
        xs = transcript.answers()
        sound = all(not (t == 0 and x == 1) for t, x in zip(truths, xs))
        report.flags["sound"] = sound
        if args.prover in ("honest", "maximizing"):
            report.flags["complete"] = xs == truths
    return report


def _ground_truths(problem, args, inst, stream) -> list[int]:
    if problem == "dnf":
        return replay(inst.copy(), stream, dnf.eval_bruteforce)
    if problem == "conn":
        return replay(inst.copy(), stream,
                      lambda g: int(oracles.is_connected(g.num_nodes, g.edges)))
    return replay(inst.copy(), stream,
                  lambda g: int(connectivity.mincut_bruteforce(g)[0] < args.k))


def _verify_spanning(args, stream, report: RunReport) -> RunReport:
    graph, _ = connectivity.parse_graph(_read(getattr(args, "in")))
    protocol = connectivity.SpanningForestProtocol(
        graph, prover=_pick_prover("spanning-forest", args), forest_seed=args.seed
    )
    records = [protocol.initial_report()]
    records += _applied(stream, lambda tokens: list(map(protocol.apply, tokens)))
    report.steps = [
        {
            "step": r.step,
            "update": _fmt(r.update),
            "valid": r.valid,
            "components": r.component_count,
            "forest_edges": len(r.forest_edges),
        }
        for r in records
    ]
    report.counters = {
        "problem": "spanning-forest",
        "prover": args.prover,
        "oracle_calls": protocol.oracle.calls,
        "updates": len(stream),
    }
    if args.check:
        n = graph.num_nodes
        truths = replay(graph.copy(), stream, lambda g: (
            oracles.component_count(n, g.edges), oracles.components(n, g.edges)))
        report.flags["spanning_forest_valid"] = not protocol.desynced and all(
            r.component_count == count
            and len(r.forest_edges) == n - count
            and oracles.components(n, r.forest_edges) == labels
            for r, (count, labels) in zip(records, truths)
        )
    return report


# ---------------------------------------------------------------------------
# reduce / sat / complete-demo / bench
# ---------------------------------------------------------------------------


def cmd_reduce(args) -> RunReport:
    aw = equiv.parse_aw(_read(getattr(args, "in")))
    stream = _load_stream(args.updates)
    build = reductions.REDUCTIONS[args.target]
    records = _applied(
        stream, lambda tokens: reductions.check_reduction(build, aw, tokens))
    report = RunReport(command=args.echo)
    report.steps = [
        {
            "step": r.step,
            "update": _fmt(r.update),
            "source": r.source_answer,
            "target": r.target_answer,
            "agree": r.agree,
        }
        for r in records
    ]
    agreeing = sum(1 for r in records if r.agree)
    report.counters = {
        "target": args.target,
        "updates": len(stream),
        "agreeing_steps": agreeing,
    }
    report.flags["agree_all"] = agreeing == len(records)
    return report


def cmd_sat(args) -> RunReport:
    cnf = reductions.parse_dimacs(_read(getattr(args, "in")))
    stats: dict = {}
    bit = reductions.sat_via_allwhite(cnf, budget=args.budget, stats=stats)
    report = RunReport(command=args.echo)
    report.steps = [{"step": 0, "update": None, "answer": bit}]
    report.counters = {
        "verdict": "SAT" if bit else "UNSAT",
        "num_vars": cnf.num_vars,
        "num_clauses": stats["num_clauses"],
        "scanned_nodes": stats["num_scanned"],
        "phases": stats["phases"],
        "aw_ops": stats["ops"],
        "op_bound": stats["op_bound"],
    }
    report.flags["ops_within_bound"] = stats["ops"] <= stats["op_bound"]
    return report


def cmd_complete_demo(args) -> RunReport:
    inst = _read_dnf(args)
    stream = _load_stream(args.updates)
    trees = fdt.compile_dnf_verifier_to_trees(inst)
    trace: list = []
    answers = _applied(stream, lambda tokens: fdt.completeness_harness(
        trees, inst.assignment, tokens, trace=trace))
    report = RunReport(command=args.echo)
    report.steps = [
        {
            "step": t,
            "update": _fmt(entry["update"]),
            "answer": x,
            "proof_tree": entry["proof_tree"],
            "y": entry["y"],
            "mirrored_bits": entry["mirrored_bits"],
        }
        for t, (x, entry) in enumerate(zip(answers, trace))
    ]
    report.counters = {
        "trees": len(trees),
        "max_depth": max(t.depth() for t in trees),
        "updates": len(stream),
    }
    truths = replay(inst.copy(), stream, dnf.eval_bruteforce)
    report.flags["matches_oracle"] = answers == truths
    return report


def cmd_bench(args) -> RunReport:
    rng = random.Random(args.seed)
    report = RunReport(command=args.echo)
    rows = []
    report.steps.append({"row": f"{'m':>6} {'n':>6} {'naive/step':>12} {'counters/step':>14}"})
    for m in args.sizes:
        n = max(8, m // 2)
        w = min(3, n)
        assignment = [rng.randint(0, 1) for _ in range(n)]
        # clauses start unsatisfied so the naive rescan pays for every clause
        clauses = []
        for _ in range(m):
            vs = rng.sample(range(n), w)
            clauses.append(dnf.Clause(tuple((v, not assignment[v]) for v in vs)))
        inst = dnf.DnfInstance(n, clauses, assignment, w)
        stream = [("f", rng.randrange(n), rng.randint(0, 1)) for _ in range(args.steps)]
        costs = {}
        for name, factory in (("naive", dnf.NaiveAlgorithm), ("counters", dnf.ClauseCounters)):
            algo = factory(inst)
            algo.answer()
            base = algo.meter.count
            for tok in stream:
                algo.apply(tok)
            costs[name] = (algo.meter.count - base) / max(1, len(stream))
        rows.append((m, n, costs["naive"], costs["counters"]))
        report.steps.append(
            {"row": f"{m:>6} {n:>6} {costs['naive']:>12.1f} {costs['counters']:>14.1f}"}
        )
    report.counters = {
        "sizes": ",".join(str(m) for m in args.sizes),
        "steps_per_size": args.steps,
    }
    report.flags["counters_never_slower_at_largest"] = (
        rows[-1][3] <= rows[-1][2] if rows else True
    )
    return report


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _count(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a nonnegative integer")
    return int(text)


def clause_counts(text: str) -> list[int]:
    counts = [_count(s) for s in text.split(",") if s]
    if not counts:
        raise argparse.ArgumentTypeError("no clause counts given")
    return counts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyncx",
        description="dynamic-problem algorithms, verifier protocols, reductions",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized parts")
    parser.add_argument("--json", action="store_true", help="JSON output (default)")
    parser.add_argument("--table", action="store_true", help="human-readable output")
    parser.add_argument("--timing", action="store_true", help="include wall clock in JSON")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("eval", help="run a dynamic DNF algorithm over a flip stream")
    p.add_argument("--in", required=True, help="DNF instance file")
    p.add_argument("--updates", help="update stream file")
    p.add_argument("--algo", choices=["naive", "counters"], default="counters")
    p.add_argument("--check", action="store_true", help="compare against brute force")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("verify", help="run a prover/verifier protocol")
    p.add_argument("--problem", required=True,
                   choices=["dnf", "conn", "kconn", "spanning-forest"])
    p.add_argument("--in", required=True, help="instance file")
    p.add_argument("--updates", help="update stream file")
    p.add_argument("--prover", default="honest",
                   help="honest | maximizing | random | adversarial:<name>")
    p.add_argument("--k", type=int, help="edge-connectivity bound for kconn")
    p.add_argument("--check", action="store_true",
                   help="soundness/completeness flags against oracles")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("reduce", help="check per-step reduction agreement")
    p.add_argument("--target", required=True, choices=sorted(reductions.REDUCTIONS))
    p.add_argument("--in", required=True, help="all-white instance file")
    p.add_argument("--updates", help="color update stream file")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("sat", help="decide a DIMACS CNF via the all-white driver")
    p.add_argument("--in", required=True, help="DIMACS cnf file")
    p.add_argument("--budget", type=int, help="cap on scanned-side size")
    p.set_defaults(fn=cmd_sat)

    p = sub.add_parser("complete-demo",
                       help="tree-compiled verifier driven by the argmax oracle")
    p.add_argument("--in", required=True, help="DNF instance file")
    p.add_argument("--updates", help="update stream file")
    p.set_defaults(fn=cmd_complete_demo)

    p = sub.add_parser("bench", help="naive vs counters probe costs across m")
    p.add_argument("--sizes", type=clause_counts, default="4,16,64,256",
                   help="comma-separated clause counts")
    p.add_argument("--steps", type=_count, default=200, help="flips per size")
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.echo = ["dyncx"] + argv
    started = time.monotonic()
    try:
        report = args.fn(args)
    except (DyncxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.wall_clock = time.monotonic() - started
    return _emit(report, args)


if __name__ == "__main__":
    sys.exit(main())
