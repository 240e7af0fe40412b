"""The `dyncx` command-line contract, stated once as a table of scenarios.

Each row of `ROWS` runs one `dyncx` argv in a directory that holds every
input below, and names what must come out: the exit code and any of the
golden stdout bytes, the report's flags, a subset of its counters, the
stderr, or the same stdout or `steps` as an earlier row. Every row also
keeps the rules common to all commands: no traceback, an exit-2 run prints
nothing on stdout and starts stderr with `error:` or argparse's `usage:`,
and a run that exits 0 or 1 prints nothing on stderr and a JSON report
that says schema 1.

The table runs two ways. tests/test_cli.py runs each row in-process
through `dyncx.cli.main`. Run as a script, from any directory,

    cd "$(mktemp -d)" && python /path/to/tests/cli_scenarios.py

it writes the inputs to the current directory, runs every row through
the `dyncx` command on PATH, prints each failing row and exits 1 if any
fails. The module uses only the standard library and imports no part of
dyncx, so the script checks whichever `dyncx` is installed.

To add a row, append a `Row` to `ROWS`; an input it needs goes into
`TEXTS`, or into `generated()` when a seeded recipe writes it.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

TEXTS = {
    "inst.dnf": "p dnf 4 3 2\n1 -2 0\n3 0\n-1 4 0\na 0 1 0 0\n",
    "flips.txt": "f 1 1\nf 3 0\nq\nf 2 1\nf 1 0\n",
    "graph.txt": "p graph 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n",
    "edges.txt": "e - 1 2\ne + 1 3\nq\ne - 3 4\n",
    "aw.txt": "p aw 3 2\ne 1 1\ne 2 1\ne 3 2\nc 1 W\nc 2 B\nc 3 B\n",
    "colors.txt": "c 1 B\nq\nc 2 W\nc 3 W\n",
    "sat.cnf": "p cnf 3 2\n1 2 0\n-1 3 0\n",
    "contradiction.cnf": "p cnf 1 2\n1 0\n-1 0\n",
    # one past a variable's id, and each place a stream line can sit
    "flip9.txt": "q\nf 9 1\n",
    "flip9-commented.txt": "# flips\n\nf 9 1\n",
    "flip9-after-comment.txt": "q\n# next\nf 9 1\n",
    "edge-update.txt": "e + 1 2\n",
    "color9.txt": "q\nc 9 W\n",
    "edge9.txt": "q\nq\ne + 1 9\n",
    "add-out-of-range.txt": "q\ne + 1 9\n",
    "add-present.txt": "q\ne + 2 1\n",
    "drop-absent.txt": "q\ne - 1 3\n",
    "desync.txt": "e - 1 2\nf 1 1\n",
    "queries.txt": "q\nq\n",
    "query.txt": "q\n",
    "one.txt": "p graph 1\n",
    "empty.txt": "p graph 0\n",
    "path-k2.txt": "p graph 3\nk 2\ne 1 2\ne 2 3\n",
    "triangle-k3.txt": "p graph 3\nk 3\ne 1 2\ne 2 3\ne 1 3\n",
    "k-zero.txt": "p graph 3\nk 0\ne 1 2\n",
    "k-twice.txt": "p graph 3\nk 2\nk 3\ne 1 2\n",
    "edge-2-9.txt": "p graph 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\ne 2 9\n",
    "edge-4-3.txt": "p graph 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\ne 4 3\n",
    "short-edge.txt": "p graph 3\ne 1\n",
    "negative-nodes.txt": "p graph -1\n",
    "nodes-over-budget.txt": "p graph 100000000\n",
    "header-after-body.txt": "e 1 2\np graph 3\n",
    "var-out-of-range.dnf": "p dnf 2 1 1\n9 0\na 0 0\n",
    "bad-header.dnf": "p dnf x 1 1\n1 0\n",
    "two-a.dnf": "p dnf 2 1 2\n1 2 0\na 0 0\na 1 1\n",
    "two-o.dnf": "p dnf 2 2 1\n1 0\n2 0\no 1 2\no 2 1\n",
    "two-c.txt": "p aw 2 1\ne 1 1\nc 1 B\nc 1 W\n",
    "bad-literal.cnf": "p cnf 2 1\n1 x 0\n",
    "negative-vars.cnf": "p cnf -1 0\n",
    "thirty-vars.cnf": "p cnf 30 1\n1 0\n",
}


def sparse_dnf_text(seed: int, n: int, m: int, flips: int) -> tuple[str, str]:
    """A seeded positive width-3 DNF and a flip stream, in file form.

    About 0.9 * m^(-1/3) of the variables are ones, so under a clause of
    three positive literals less than one clause holds on average and the
    answer keeps changing. Each flip turns a one off while there are too
    many and a zero on while there are too few, so the density holds."""
    rng = random.Random(seed)
    target = max(3, round(0.9 * m ** (-1 / 3) * n))
    ones = rng.sample(range(n), target)
    bits = [0] * n
    for v in ones:
        bits[v] = 1
    lines = [f"p dnf {n} {m} 3"]
    lines += ["{} {} {} 0".format(*(v + 1 for v in rng.sample(range(n), 3)))
              for _ in range(m)]
    lines.append("a " + " ".join(map(str, bits)))
    updates = []
    for _ in range(flips):
        if len(ones) > target or (len(ones) == target and rng.random() < 0.5):
            var = ones.pop(rng.randrange(len(ones)))
        else:
            var = rng.choice([v for v in range(n) if not bits[v]])
            ones.append(var)
        bits[var] ^= 1
        updates.append(f"f {var + 1} {bits[var]}")
    return "\n".join(lines) + "\n", "\n".join(updates) + "\n"


def with_random_signs(text: str, seed: int) -> str:
    """`text` with each clause literal negated on a fair coin of
    `random.Random(seed)`, drawn in file order; the header and assignment
    lines are kept."""
    rng = random.Random(seed)
    out = []
    for line in text.splitlines(keepends=True):
        if line[0] not in "pa":
            lits = line.split()[:-1]
            line = " ".join(l if rng.random() < 0.5 else "-" + l for l in lits) + " 0\n"
        out.append(line)
    return "".join(out)


def churn_graph(seed: int, n: int, m: int, edits: int) -> tuple[str, str]:
    """A seeded graph of `m` random edges on `n` nodes and `edits` edits,
    60% of them deletions, that split and rejoin its components."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = rng.sample(pairs, m)
    graph = f"p graph {n}\n" + "".join(f"e {u} {v}\n" for u, v in edges)
    lines = []
    for _ in range(edits):
        if rng.random() < 0.6:
            u, v = edges.pop(rng.randrange(len(edges)))
            lines.append(f"e - {u} {v}\n")
        else:
            present = set(edges)
            u, v = rng.choice([p for p in pairs if p not in present])
            edges.append((u, v))
            lines.append(f"e + {u} {v}\n")
    return graph, "".join(lines)


def deep_churn_graph(seed: int, n: int, m: int, edits: int) -> tuple[str, str]:
    """A seeded graph of `m` random edges on `n` nodes, written in sorted
    order, and `edits` edits, 80% of them deletions, so the Euler-tour
    treaps run deep."""
    rng = random.Random(seed)
    edges = set()
    while len(edges) < m:
        u, v = sorted(rng.sample(range(1, n + 1), 2))
        edges.add((u, v))
    edges = sorted(edges)
    graph = f"p graph {n}\n" + "".join(f"e {u} {v}\n" for u, v in edges)
    lines = []
    for _ in range(edits):
        if rng.random() < 0.8:
            u, v = edges.pop(rng.randrange(len(edges)))
            lines.append(f"e - {u} {v}\n")
        else:
            while True:
                u, v = sorted(rng.sample(range(1, n + 1), 2))
                if (u, v) not in edges:
                    break
            edges.append((u, v))
            lines.append(f"e + {u} {v}\n")
    return graph, "".join(lines)


def random_3cnf(seed: int, n: int, m: int) -> str:
    """A seeded random 3-CNF: each clause three distinct variables, each
    negated on a fair coin."""
    rng = random.Random(seed)
    lines = [f"p cnf {n} {m}\n"]
    for _ in range(m):
        lits = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)]
        lines.append(" ".join(map(str, lits)) + " 0\n")
    return "".join(lines)


def generated() -> dict[str, str]:
    """The seeded inputs, by file name."""
    big, big_flips = sparse_dnf_text(11, 500, 2000, 200)
    churn, churn_edits = churn_graph(7, 40, 60, 100)
    churn300, churn300_edits = deep_churn_graph(11, 300, 900, 300)
    return {
        # the dnf-proofs benchmark's scale, and the same DNF with most
        # variables occurring both positive and negated
        "big.dnf": big,
        "big-flips.txt": big_flips,
        "big-mixed.dnf": with_random_signs(big, 5),
        # 21 splits and 19 joins: a cut's two sides differ in size
        "churn.txt": churn,
        "churn-edits.txt": churn_edits,
        # the graph-cut benchmark's scale
        "churn300.txt": churn300,
        "churn300-edits.txt": churn300_edits,
        # unsatisfiable, so all 256 phases run, and the 256 scanned nodes'
        # packed counts span many machine words
        "unsat.cnf": random_3cnf(3, 16, 68),
    }


def inputs() -> dict[str, str]:
    return {**TEXTS, **generated()}


@dataclass(frozen=True)
class Row:
    name: str
    argv: list
    exit: int = 0
    stdout: str | None = None  # the exact bytes
    flags: dict | None = None  # the exact flags
    counters: dict | None = None  # a subset of the counters
    stderr: str | None = None  # the one line, or argparse's last after its usage
    same_stdout_as: str | None = None  # an earlier row's name
    same_steps_as: str | None = None  # an earlier row's name


GOLDEN = json.loads((Path(__file__).with_name("golden") / "cli_reports.json").read_text())
SOUND_COMPLETE = {"sound": True, "complete": True}
MATCHES = {"matches_oracle": True}
AGREE = {"agree_all": True}


def row(name, argv, exit=0, **checks) -> Row:
    return Row(name, argv.split(), exit, **checks)


def failed_update(name, argv, step, message, lineno=None) -> Row:
    """A run whose update at `step`, on line `lineno` of its updates file,
    fails with `message`: exit 2 naming both."""
    where = f"updates line {lineno or step} (step {step})"
    return row(name, argv, 2, stderr=f"error: {where}: {message}")


def refused(name, argv, message) -> Row:
    return row(name, argv, 2, stderr=message)


DNF_UPDATES = "--in inst.dnf --updates flip9.txt"
VAR9 = "variable 9 out of range 1..4"
GRAPH = "--in graph.txt --updates edges.txt"
BIG = "--in big.dnf --updates big-flips.txt"
MIXED = "--in big-mixed.dnf --updates big-flips.txt"
CHURN = "--in churn.txt --updates churn-edits.txt"
CHURN300 = "--in churn300.txt --updates churn300-edits.txt"
BENCH_ERROR = "dyncx bench: error: argument"
OVERSIZE_PROOF = b"\0" * 7 + b"\1" + b"\0" * 7 + b"\3"  # edges 1-2 and 1-4, 0-based

ROWS = [
    # the README commands' exact report bytes, probe counts included
    *(Row(name, case["argv"], case["exit"], stdout=case["stdout"])
      for name, case in GOLDEN.items()),

    # eval and complete-demo
    row("eval-plain", "eval --in inst.dnf --updates flips.txt", flags={}),
    row("eval-naive-plain", "eval --algo naive --in inst.dnf --updates flips.txt",
        flags={}, counters={"algo": "naive"}, same_steps_as="eval-plain"),
    row("big-eval", f"eval {BIG} --check", flags=MATCHES),
    row("big-demo", f"complete-demo {BIG}", flags=MATCHES),
    row("mixed-eval", f"eval {MIXED} --check", flags=MATCHES),
    row("mixed-demo", f"complete-demo {MIXED}", flags=MATCHES),
    # each route to an out-of-range flip: the counters, the naive rescan's
    # instance, the verifier's own step (under the maximizing prover, which
    # keeps no counters) and the completeness harness
    failed_update("flip9-eval", f"eval {DNF_UPDATES}", 2, VAR9),
    failed_update("flip9-eval-naive", f"eval --algo naive {DNF_UPDATES}", 2, VAR9),
    failed_update("flip9-verify", f"verify --problem dnf {DNF_UPDATES}", 2, VAR9),
    failed_update("flip9-verify-maximizing",
                  f"verify --problem dnf --prover maximizing {DNF_UPDATES}", 2, VAR9),
    failed_update("flip9-demo", f"complete-demo {DNF_UPDATES}", 2,
                  "update position 9 out of range 1..4"),
    # the line counts every line of the file, the step only tokens
    failed_update("flip9-eval-line", "eval --in inst.dnf --updates flip9-commented.txt",
                  1, VAR9, lineno=3),
    failed_update("flip9-demo-line", "complete-demo --in inst.dnf --updates "
                  "flip9-after-comment.txt", 2, "update position 9 out of range 1..4",
                  lineno=3),
    # an edge update parses, but the harness only applies flips and queries
    failed_update("demo-edge-update", "complete-demo --in inst.dnf --updates "
                  "edge-update.txt", 1, "harness cannot decode update ('e', '+', 0, 1)"),
    refused("eval-missing-file", "eval --in missing.dnf",
            "error: [Errno 2] No such file or directory: 'missing.dnf'"),
    refused("eval-var-out-of-range", "eval --in var-out-of-range.dnf",
            "error: line 2: '9 0': variable 9 out of range 1..2"),
    refused("eval-bad-header", "eval --in bad-header.dnf",
            "error: line 1: 'p dnf x 1 1': count 'x' is not an integer"),
    refused("eval-second-a-line", "eval --in two-a.dnf",
            "error: line 4: 'a 1 1': second 'a' line"),
    refused("eval-second-o-line", "eval --in two-o.dnf",
            "error: line 5: 'o 2 1': second 'o' line"),

    # verify --problem dnf
    row("big-verify", f"verify --problem dnf {BIG} --check", flags=SOUND_COMPLETE),
    row("mixed-verify", f"verify --problem dnf {MIXED} --check", flags=SOUND_COMPLETE),
    # the reward maximizer compares the y of every candidate proof, so its
    # steps equal the honest prover's only if every output is right
    row("big-verify-maximizing", f"verify --problem dnf --prover maximizing {BIG} --check",
        flags=SOUND_COMPLETE, same_steps_as="big-verify"),
    row("mixed-verify-maximizing",
        f"verify --problem dnf --prover maximizing {MIXED} --check",
        flags=SOUND_COMPLETE, same_steps_as="mixed-verify"),

    # verify --problem conn
    row("conn-random", f"--seed 7 verify --problem conn {GRAPH} --prover random --check",
        flags={"sound": True}),
    row("conn-random-again",
        f"--seed 7 verify --problem conn {GRAPH} --prover random --check",
        flags={"sound": True}, same_stdout_as="conn-random"),
    # like `oracles.is_connected`, a graph of at most one node is connected
    row("conn-no-nodes",
        "verify --problem conn --prover honest --in empty.txt --updates query.txt --check",
        flags=SOUND_COMPLETE, counters={"updates": 1, "yes_steps": 2}),
    row("churn-conn", f"verify --problem conn {CHURN} --check", flags=SOUND_COMPLETE),
    # the reward maximizer tries each graph edge as a replacement, so most
    # candidates meet a link that finds their ends already in one tree
    row("churn-conn-maximizing", f"verify --problem conn --prover maximizing {CHURN} --check",
        flags=SOUND_COMPLETE),
    row("churn300-conn", f"verify --problem conn {CHURN300} --check", flags=SOUND_COMPLETE),
    # a prover that proposes edges inside one tree earns y=-1 and never a
    # false yes: sound, exit 0
    row("churn300-conn-cycle",
        f"verify --problem conn --prover adversarial:cycle --check {CHURN300}",
        flags={"sound": True}),
    failed_update("conn-edge9", "verify --problem conn --in graph.txt --updates edge9.txt",
                  3, "edge (1,9) out of range"),
    *(failed_update(f"{problem}-{update}",
                    f"verify --problem {problem} --in graph.txt --updates {update}.txt",
                    2, message)
      for problem in ("conn", "spanning-forest")
      for update, message in [("add-out-of-range", "edge (1,9) out of range"),
                              ("add-present", "edge (1,2) already present"),
                              ("drop-absent", "edge (1,3) not present")]),
    refused("conn-edge-out-of-range", "verify --problem conn --in edge-2-9.txt",
            "error: line 6: 'e 2 9': edge (2,9) out of range"),
    refused("conn-edge-present", "verify --problem conn --in edge-4-3.txt",
            "error: line 6: 'e 4 3': edge (3,4) already present"),
    refused("conn-short-edge", "verify --problem conn --in short-edge.txt",
            "error: line 2: 'e 1': too few fields"),
    refused("conn-negative-nodes", "verify --problem conn --check --in negative-nodes.txt",
            "error: line 1: negative count -1"),
    # past DYNCX_BUDGET: refused before any node is allocated
    refused("conn-nodes-over-budget", "verify --problem conn --in nodes-over-budget.txt",
            "error: line 1: count 100000000 exceeds budget 200000"),
    refused("conn-header-after-body", "verify --problem conn --in header-after-body.txt",
            "error: line 1: want 'p graph <count>' first"),

    # verify --problem kconn
    row("kconn-k2", f"verify --problem kconn {GRAPH} --k 2 --check", flags=SOUND_COMPLETE),
    row("kconn-maximizing", f"verify --problem kconn --k 3 --prover maximizing {GRAPH} --check",
        flags=SOUND_COMPLETE),
    # a path has a bridge
    row("kconn-k-line", "verify --problem kconn --in path-k2.txt --check",
        flags=SOUND_COMPLETE, counters={"updates": 0, "yes_steps": 1}),
    # a triangle's min cut is 2: below its k line's 3, not below --k 2
    row("kconn-k-line-3", "verify --problem kconn --in triangle-k3.txt",
        counters={"yes_steps": 1}),
    row("kconn-k-flag-overrides", "verify --problem kconn --in triangle-k3.txt --k 2",
        counters={"yes_steps": 0}),
    # a one-node graph has no cut, so every answer is 0
    row("kconn-one-node", "verify --problem kconn --k 2 --in one.txt --updates queries.txt",
        flags={}, counters={"updates": 2, "yes_steps": 0}),
    row("kconn-one-node-check",
        "verify --problem kconn --k 2 --in one.txt --updates queries.txt --check",
        flags=SOUND_COMPLETE, counters={"updates": 2, "yes_steps": 0}),
    row("kconn-one-node-maximizing", "verify --problem kconn --k 2 --prover maximizing "
        "--in one.txt --updates queries.txt --check",
        flags=SOUND_COMPLETE, counters={"updates": 2, "yes_steps": 0}),
    refused("kconn-without-k", "verify --problem kconn --in graph.txt",
            "error: kconn needs --k or a k header in the graph file"),
    refused("kconn-k-zero", "verify --problem kconn --in k-zero.txt --k 2",
            "error: line 2: 'k 0': k must be >= 1"),
    refused("kconn-k-twice", "verify --problem kconn --in k-twice.txt --k 2",
            "error: line 3: 'k 3': second 'k' line"),
    # the oversize prover ships k = 2 edges of the 4-cycle at step 1; the
    # protocol's own "step 1: " is not repeated after the CLI's label
    failed_update("kconn-oversize-proof",
                  f"verify --problem kconn --k 2 --prover adversarial:oversize {GRAPH}",
                  1, f"unencodable proof {OVERSIZE_PROOF!r}"),

    # verify --problem spanning-forest
    row("churn-spanning", f"verify --problem spanning-forest {CHURN} --check",
        flags={"spanning_forest_valid": True}),
    row("churn300-spanning", f"verify --problem spanning-forest {CHURN300} --check",
        flags={"spanning_forest_valid": True}),
    # a prover that names the deleted edge again is refused: exit 1
    row("churn300-spanning-stubborn", "verify --problem spanning-forest "
        f"--prover adversarial:stubborn --check {CHURN300}", 1,
        flags={"spanning_forest_valid": False}),
    *(refused(f"spanning-desync{check.replace(' --', '-')}",
              "verify --problem spanning-forest --in graph.txt --updates desync.txt "
              f"--prover adversarial:stubborn{check}",
              "error: updates line 2 (step 2): spanning protocol cannot apply ('f', 0, 1)")
      for check in ("", " --check")),
    refused("spanning-negative-nodes",
            "verify --problem spanning-forest --check --in negative-nodes.txt",
            "error: line 1: negative count -1"),

    # reduce
    *(row(f"reduce-{target}", f"reduce --target {target} --in aw.txt --updates colors.txt",
          flags=AGREE, counters={"updates": 4, "agreeing_steps": 5})
      for target in ("subconn", "diameter", "streach", "countreach", "countscc")),
    failed_update("reduce-color9", "reduce --target maxflow --in aw.txt --updates color9.txt",
                  2, "L node 9 out of range"),
    refused("reduce-second-c-line", "reduce --target maxflow --in two-c.txt",
            "error: line 4: 'c 1 W': second 'c' line for node 1"),

    # sat
    row("sat-contradiction", "sat --in contradiction.cnf",
        flags={"ops_within_bound": True}, counters={"verdict": "UNSAT"}),
    # an unsatisfiable formula walks all 2^8 second-half assignments: 256
    # answers and 2247 recolors, each node handed to a batch charged
    row("sat-unsat16", "sat --in unsat.cnf", flags={"ops_within_bound": True},
        counters={"verdict": "UNSAT", "phases": 256, "aw_ops": 2503}),
    refused("sat-budget", "sat --in thirty-vars.cnf --budget 100",
            "error: 2^15 scanned nodes exceeds budget 100"),
    refused("sat-bad-literal", "sat --in bad-literal.cnf",
            "error: line 2: '1 x 0': invalid literal for int() with base 10: 'x'"),
    refused("sat-negative-vars", "sat --in negative-vars.cnf",
            "error: line 1: negative count -1"),

    # bench
    row("bench-counters-win", "bench --sizes 4,32 --steps 40",
        flags={"counters_never_slower_at_largest": True}),
    row("bench-table", "--table bench --sizes 16,64 --steps 50"),
    # a negative or missing count is a usage error, not an empty run
    refused("bench-negative-size", "bench --sizes=-4,0 --steps 3",
            f"{BENCH_ERROR} --sizes: '-4' is not a nonnegative integer"),
    refused("bench-no-sizes", "--table bench --sizes ,",
            f"{BENCH_ERROR} --sizes: no clause counts given"),
    refused("bench-negative-steps", "--table bench --steps -5",
            f"{BENCH_ERROR} --steps: '-5' is not a nonnegative integer"),
    refused("bench-sizes-word", "bench --sizes abc",
            f"{BENCH_ERROR} --sizes: 'abc' is not a nonnegative integer"),
    refused("bench-sizes-letter", "bench --sizes 4,x",
            f"{BENCH_ERROR} --sizes: 'x' is not a nonnegative integer"),
]
BY_NAME = {r.name: r for r in ROWS}


def faults(row: Row, run, outputs: dict) -> list[str]:
    """What is wrong with `row` run through run(argv) -> (exit, stdout,
    stderr), one line per fault. `outputs` keeps each row's stdout by name,
    so a row compared with another runs that one only if it has not run."""
    rc, out, err = run(row.argv)
    outputs[row.name] = out
    found = []
    if rc != row.exit:
        found.append(f"exit {rc}, want {row.exit}")
    if "Traceback" in err:
        found.append("a traceback on stderr")
    if rc == 2 and (out or not err.startswith(("error:", "usage:"))):
        found.append("exit 2 wants an empty stdout and stderr starting 'error:' or 'usage:'")
    if rc != 2 and err:
        found.append(f"exit {rc} wants an empty stderr: {err[:200]!r}")
    if row.stderr is not None:
        # `main` prints one error line; argparse prints its usage first
        got = err if row.stderr.startswith("error:") else "".join(err.splitlines(True)[-1:])
        if got != row.stderr + "\n":
            found.append(f"stderr {got!r}, want {row.stderr!r} and a newline")
    if row.stdout is not None and out != row.stdout:
        found.append(f"stdout is not the golden report: {out[:200]!r}")
    if rc == 2 or "--table" in row.argv:
        return found
    try:
        report = json.loads(out)
    except ValueError:
        return found + [f"stdout is not JSON: {out[:200]!r}"]
    if report.get("schema") != 1:
        found.append(f"schema {report.get('schema')!r}, want 1")
    if row.flags is not None and report.get("flags") != row.flags:
        found.append(f"flags {report.get('flags')}, want {row.flags}")
    counters = report.get("counters", {})
    got = {key: counters.get(key) for key in row.counters or ()}
    if got != (row.counters or {}):
        found.append(f"counters {got}, want {row.counters}")
    if row.same_stdout_as is not None and out != earlier(row.same_stdout_as, run, outputs):
        found.append(f"stdout differs from row {row.same_stdout_as}'s")
    if row.same_steps_as is not None and report.get("steps") != json.loads(
            earlier(row.same_steps_as, run, outputs) or "{}").get("steps"):
        found.append(f"steps differ from row {row.same_steps_as}'s")
    return found


def earlier(name: str, run, outputs: dict) -> str:
    """The stdout of row `name`, run now unless `outputs` has it."""
    if name not in outputs:
        outputs[name] = run(BY_NAME[name].argv)[1]
    return outputs[name]


def run_installed(argv: list) -> tuple[int, str, str]:
    proc = subprocess.run(["dyncx", *argv], capture_output=True, encoding="utf-8")
    return proc.returncode, proc.stdout, proc.stderr


def main() -> int:
    for name, text in inputs().items():
        Path(name).write_bytes(text.encode())
    outputs: dict = {}
    failed = 0
    for row in ROWS:
        found = faults(row, run_installed, outputs)
        if found:
            failed += 1
            print(f"FAIL {row.name}: dyncx {' '.join(row.argv)}")
            for line in found:
                print(f"    {line}")
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
