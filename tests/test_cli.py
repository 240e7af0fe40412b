import hashlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from dyncx.cli import main

from cli_scenarios import BY_NAME, GOLDEN, ROWS, TEXTS, faults, generated, inputs

DNF_TEXT = TEXTS["inst.dnf"]


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def run_in_process(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exit_:  # argparse's usage errors
            rc = exit_.code
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    """A directory holding every scenario input."""
    path = tmp_path_factory.mktemp("scenarios")
    for name, text in inputs().items():
        (path / name).write_bytes(text.encode())
    return path


@pytest.fixture
def in_inputs(scenario_dir, monkeypatch):
    """Runs the test in `scenario_dir`, so it names each input by file name."""
    monkeypatch.chdir(scenario_dir)


@pytest.fixture(scope="module")
def ran():
    """The stdout and the faults of each row run so far, by name."""
    return {}, {}


@pytest.fixture
def scenario(in_inputs, ran):
    """Asserts that a row of tests/cli_scenarios.py, by name, holds when run
    through `main` in the inputs' directory, so argv echoes are relative.
    A row runs once, however many tests name it."""
    outputs, found = ran

    def check(name):
        if name not in found:
            found[name] = faults(BY_NAME[name], run_in_process, outputs)
        assert found[name] == []
    return check


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_cli_scenario(row, scenario):
    scenario(row.name)


def runs(rows: str | dict):
    """A test of the row named `rows`, or one test id per key of a dict
    `rows` that runs the row named by its value. Each test that ran its own
    copy of a command before the table keeps its id this way."""
    for name in [rows] if isinstance(rows, str) else rows.values():
        BY_NAME[name]  # a row renamed without its old ids fails collection
    if isinstance(rows, str):
        return lambda scenario: scenario(rows)

    @pytest.mark.parametrize("name", list(rows.values()), ids=list(rows))
    def test(name, scenario):
        scenario(name)
    return test


test_eval_reports_answers_and_counters = runs("eval")
test_eval_algorithms_agree = runs("eval-naive-plain")
test_verify_dnf_honest_is_sound_and_complete = runs("verify_dnf")
test_verify_conn_adversary_stays_sound = runs("verify_conn_ghost")
test_verify_conn_random_prover_is_seeded = runs("conn-random-again")
test_verify_kconn_uses_k_flag = runs("kconn-k2")
test_verify_kconn_reads_k_header = runs("kconn-k-line")
test_verify_kconn_on_one_node_reads_no = runs(
    {"plain": "kconn-one-node", "check": "kconn-one-node-check"})
test_verify_conn_on_a_graph_with_no_nodes_reads_connected = runs("conn-no-nodes")
test_verify_kconn_k_flag_overrides_the_k_line = runs("kconn-k-flag-overrides")
test_verify_kconn_bad_k_line_exits_2_naming_it = runs(
    {"zero": "kconn-k-zero", "repeated": "kconn-k-twice"})
test_verify_kconn_without_k_errors = runs("kconn-without-k")
test_verify_spanning_forest_valid = runs("verify_spanning")
test_verify_spanning_forest_flags_stubborn_prover = runs("verify_spanning_stubborn")
test_reduce_agrees_per_step = runs({"maxflow": "reduce_maxflow", **{
    target: f"reduce-{target}"
    for target in ("subconn", "diameter", "streach", "countreach", "countscc")}})
test_sat_command_verdicts = runs("sat-contradiction")
test_sat_budget_exit_code = runs("sat-budget")
test_complete_demo_matches_oracle = runs("complete_demo")
test_bench_counters_win_at_the_largest_size = runs("bench-counters-win")
test_missing_file_is_io_error = runs("eval-missing-file")
test_bench_rejects_sizes_that_are_not_counts = runs(
    {"abc": "bench-sizes-word", "4,x": "bench-sizes-letter"})
test_bench_rejects_negative_or_missing_work = runs(
    {case: f"bench-{case}" for case in ("negative-size", "no-sizes", "negative-steps")})
test_malformed_instance_is_domain_error = runs("eval-var-out-of-range")
test_bad_graph_update_names_the_file_ids = runs({
    f"{case}-{problem}": f"{problem}-{update}" for problem in ("conn", "spanning-forest")
    for case, update in [("out-of-range", "add-out-of-range"), ("duplicate", "add-present"),
                         ("unknown", "drop-absent")]})
test_bad_flip_names_the_file_ids = runs({
    "eval": "flip9-eval", "eval-naive": "flip9-eval-naive", "verify-honest": "flip9-verify",
    "verify-maximizing": "flip9-verify-maximizing", "complete-demo": "flip9-demo"})
test_update_errors_name_their_line_and_step = runs({
    "verify-conn": "conn-edge9", "eval": "flip9-eval-line",
    "complete-demo": "flip9-demo-line"})
test_unencodable_proof_names_its_step_once = runs("kconn-oversize-proof")
test_reduce_names_an_out_of_range_color_by_the_file_id = runs("reduce-color9")
test_complete_demo_refuses_an_update_it_cannot_apply = runs("demo-edge-update")
test_bad_graph_file_line_names_the_file_ids = runs(
    {"out-of-range": "conn-edge-out-of-range", "duplicate": "conn-edge-present"})
test_spanning_forest_refuses_a_non_graph_token_after_a_desync = runs(
    {"plain": "spanning-desync", "check": "spanning-desync-check"})
test_report_matches_golden = runs({name: name for name in GOLDEN})
test_malformed_input_exits_2_without_traceback = runs({
    "dnf-header": "eval-bad-header", "dimacs-literal": "sat-bad-literal",
    "short-edge-line": "conn-short-edge", "recolor-out-of-range": "reduce-color9",
    "negative-nodes-conn": "conn-negative-nodes",
    "negative-nodes-spanning-forest": "spanning-negative-nodes",
    "negative-vars-sat": "sat-negative-vars", "nodes-over-budget": "conn-nodes-over-budget",
    "header-after-body": "conn-header-after-body"})


# the seeded inputs' bytes, for which the rows' pinned counts hold
GENERATED_SHA256 = {
    "big.dnf": "aa0efcd039edf813015ef63e330ed6deec3f15c8b8f9dd445de3bb7b883c6eaa",
    "big-flips.txt": "5a1e870511ea894f359d50e1207bbc4b8a819d436f436d377bbf1c591410ffe8",
    "big-mixed.dnf": "bc8f8534c10fc33aa5cd2f5bad65792f9a1d4e17d9108d3dd7ceb30a626b3e6a",
    "churn.txt": "fcf675559c45c463ba3639ce58a5edb604fb51bd68e493d890ca03b707313e9b",
    "churn-edits.txt": "00d98ccc304e7bfd899de3a1c6cc1b84178526db43197cb3086f627d1bd51c99",
    "churn300.txt": "44b9af6a02c615e70e0b6a013147b0046573fb42e09137e12b33e6bdab3b84eb",
    "churn300-edits.txt": "fb16eb56c3aed6ed56ff3990ae22994d2936554bea23f3d4a7482dca59a3857e",
    "unsat.cnf": "5754099c02cfe746bec93df1200820a0d2e695842a1a7c880eb989be779a5801",
}


def test_generated_inputs_keep_their_bytes():
    digests = {name: hashlib.sha256(text.encode()).hexdigest()
               for name, text in generated().items()}
    assert digests == GENERATED_SHA256


def test_unsat_scenario_formula_is_unsatisfiable():
    """The `sat-unsat16` row pins verdict UNSAT; brute force confirms it."""
    from dyncx.oracles import sat_bruteforce
    from dyncx.reductions import parse_dimacs

    cnf = parse_dimacs(generated()["unsat.cnf"])
    assert not sat_bruteforce(cnf.num_vars, cnf.clauses)


PROBLEM_INPUTS = {
    "dnf": ["--in", "inst.dnf", "--updates", "flips.txt"],
    "conn": ["--in", "graph.txt", "--updates", "edges.txt"],
    "kconn": ["--k", "2", "--in", "graph.txt", "--updates", "edges.txt"],
    "spanning-forest": ["--in", "graph.txt", "--updates", "edges.txt"],
}
PROVER_NAMES = ["honest", "maximizing", "random"] + [
    f"adversarial:{key}" for key in ("bottom", "cycle", "ghost", "oversize", "stubborn")
] + ["nonsense", "adversarial:nonsense"]


@pytest.mark.parametrize("prover", PROVER_NAMES)
@pytest.mark.parametrize("problem", sorted(PROBLEM_INPUTS))
def test_every_prover_name_keeps_the_exit_contract(problem, prover, in_inputs, capsys):
    argv = ["verify", "--problem", problem, "--prover", prover, "--check"]
    rc = main(argv + PROBLEM_INPUTS[problem])
    err = capsys.readouterr().err
    assert rc in (0, 1, 2)
    if rc == 2:
        assert err.startswith("error:")
        assert "Traceback" not in err
    if "nonsense" in prover:
        assert rc == 2
    if problem == "spanning-forest":
        assert (rc == 2) == (prover not in ("honest", "adversarial:stubborn"))


def count_checks(monkeypatch, cls) -> list:
    """Counts runs of `cls.validate`, called by name or on construction."""
    seen = []
    validate = cls.validate

    def counting(inst, *args, **kwargs):
        seen.append(id(inst))
        return validate(inst, *args, **kwargs)

    monkeypatch.setattr(cls, "validate", counting)
    monkeypatch.setattr(cls, "__post_init__", counting, raising=False)
    return seen


def test_complete_demo_validates_each_tree_once(in_inputs, capsys, monkeypatch):
    from dyncx.fdt import DecisionTree

    seen = count_checks(monkeypatch, DecisionTree)
    rc, _ = run_json(capsys, ["complete-demo", "--in", "inst.dnf", "--updates", "flips.txt"])
    assert rc == 0 and seen == []


def test_complete_demo_walks_no_tree_after_compile(in_inputs, capsys, monkeypatch):
    from dyncx import dnf, fdt

    seen = count_checks(monkeypatch, fdt.DecisionTree)
    rc, payload = run_json(
        capsys, ["complete-demo", "--in", "inst.dnf", "--updates", "flips.txt"])
    assert rc == 0 and payload["counters"]["trees"] == 4
    inst = dnf.parse_dnf(DNF_TEXT)
    trees = fdt.compile_dnf_verifier_to_trees(inst)
    fdt.completeness_harness(trees, inst.assignment, [("f", 0, 1), ("q",)])
    assert seen == []


def test_an_instance_is_checked_once_when_it_is_built(in_inputs, capsys, monkeypatch):
    from dyncx import dnf, equiv, fdt
    from dyncx.reductions import CnfInstance

    inst = dnf.parse_dnf(DNF_TEXT)
    seen = count_checks(monkeypatch, dnf.DnfInstance)
    dnf.ClauseCounters(inst)
    dnf.NaiveAlgorithm(inst)
    dnf.DnfVerifier(inst)
    equiv.dnf_to_aw(inst)
    trees = fdt.compile_dnf_verifier_to_trees(inst)
    fdt.completeness_harness(trees, inst.assignment, [("f", 0, 1), ("q",)])
    assert seen == []

    seen = count_checks(monkeypatch, CnfInstance)
    rc, _ = run_json(capsys, ["sat", "--in", "sat.cnf"])
    assert rc == 0 and seen == []

    seen = count_checks(monkeypatch, equiv.AllWhiteInstance)
    rc, _ = run_json(capsys, ["reduce", "--target", "maxflow", "--in", "aw.txt",
                              "--updates", "colors.txt"])
    assert rc == 0 and seen == []


@pytest.mark.parametrize("which", ["--in", "--updates"])
def test_non_utf8_input_exits_2_naming_the_path(which, in_inputs, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"p graph 3\ne 1 2\n\xff\n")
    paths = {"--in": "graph.txt", "--updates": "edges.txt", which: str(bad)}
    rc = main(["verify", "--problem", "conn", "--in", paths["--in"],
               "--updates", paths["--updates"]])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and str(bad) in err and "Traceback" not in err


def test_json_output_is_deterministic(in_inputs, capsys):
    argv = ["verify", "--problem", "conn", "--in", "graph.txt", "--updates", "edges.txt",
            "--check"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    assert "wall_clock" not in first


def test_timing_flag_adds_wall_clock(in_inputs, capsys):
    rc, payload = run_json(capsys, ["--timing", "eval", "--in", "inst.dnf"])
    assert rc == 0
    assert "wall_clock_s" in payload


def test_table_output_renders(capsys):
    rc = main(["--table", "bench", "--sizes", "4,8", "--steps", "10"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "naive/step" in out
    assert "pass" in out


def test_module_entry_point(scenario_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "dyncx", "eval", "--in", str(scenario_dir / "inst.dnf")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema"] == 1


def test_kconn_proof_space_past_the_budget_exits_2_before_building_it(tmp_path, capsys):
    # C(40, 5) = 658008 five-edge proofs for k=6, past the default budget
    edges = [(u, v) for u in range(1, 10) for v in range(u + 1, 11)][:40]
    graph = tmp_path / "graph.txt"
    graph.write_text("p graph 10\n" + "".join(f"e {u} {v}\n" for u, v in edges))
    stream = tmp_path / "edits.txt"
    stream.write_text("q\nq\n")
    rc = main(["verify", "--problem", "kconn", "--k", "6", "--prover", "random",
               "--in", str(graph), "--updates", str(stream)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "budget" in err


def test_kconn_past_64_nodes_runs_honest_with_check(tmp_path, capsys):
    import random

    rng = random.Random(65)
    n = 65
    edges = {(u, u % n + 1) for u in range(1, n + 1)}  # a cycle: connected
    while len(edges) < 200:
        u, v = sorted(rng.sample(range(1, n + 1), 2))
        edges.add((u, v))
    graph = tmp_path / "graph.txt"
    graph.write_text(f"p graph {n}\n" + "".join(f"e {u} {v}\n" for u, v in sorted(edges)))
    present = sorted(edges)
    stream = []
    for step in range(20):
        if step % 4 == 3:
            stream.append("q")
        else:
            u, v = present.pop(rng.randrange(len(present)))
            stream.append(f"e - {u} {v}")
    edits = tmp_path / "edits.txt"
    edits.write_text("\n".join(stream) + "\n")
    rc, payload = run_json(
        capsys, ["verify", "--problem", "kconn", "--k", "2", "--in", str(graph),
                 "--updates", str(edits), "--check"]
    )
    assert rc == 0
    assert payload["flags"] == {"sound": True, "complete": True}


def readme_commands() -> list[str]:
    """Every `dyncx ...` or `python -m dyncx ...` command in README, from
    its fenced code blocks (backslash continuations joined) and its inline
    code spans, where such a span is always a whole command."""
    import re

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S):
        lines += block.replace("\\\n", " ").splitlines()
    lines += re.findall(r"(?<!`)`([^`\n]+)`(?!`)", text)
    commands = []
    for line in lines:
        line = line.strip()
        for prefix in ("python -m dyncx ", "dyncx "):
            if line.startswith(prefix):
                commands.append(line[len(prefix):])
    return commands


def test_readme_commands_parse():
    import shlex

    from dyncx.cli import build_parser

    commands = readme_commands()
    assert any(c.startswith("--table bench") for c in commands)
    for command in commands:
        build_parser().parse_args(shlex.split(command))


def test_dnf_reports_and_meters_are_pinned_at_perfbench_size(tmp_path, capsys):
    """perfbench's dnf-proofs scale (n = 500, m = 2000, width 3) with 200
    flips: the exact report bytes of `eval`, `verify --problem dnf` and
    `complete-demo`, the oracle's kept paths and the probe totals of the
    counters, the oracle and the verifier. Sharing or pruning what set-up
    builds must leave every one of them as it was."""
    from dyncx import dnf, fdt
    from dyncx.framework import UpdateStream, run_protocol

    text, updates = generated()["big.dnf"], generated()["big-flips.txt"]
    (tmp_path / "big.dnf").write_text(text)
    (tmp_path / "big-flips.txt").write_text(updates)
    common = ["--in", str(tmp_path / "big.dnf"), "--updates", str(tmp_path / "big-flips.txt")]
    digests = {}
    for name, argv in [("eval", ["eval", "--check"]),
                       ("verify", ["verify", "--problem", "dnf", "--check"]),
                       ("complete-demo", ["complete-demo"])]:
        rc = main(argv + common)
        out = capsys.readouterr().out
        assert rc == 0
        # the report echoes its argv, whose paths differ from run to run
        out = out.replace(str(tmp_path), "TMP")
        digests[name] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == {
        "eval": "1c9128b692028fc3a75ee63b0ce83a7f85f49c627e6f9a0dc11add1609be6843",
        "verify": "78db57b5d86ffe33c66bfc41d581d5adae0eadd51a2e5393643e82bd131482a0",
        "complete-demo": "5ab6755c3e4877340fe52c6cfbd32cb00a08f4a48f2b8eeed63890de8bc69df6",
    }

    inst = dnf.parse_dnf(text)
    stream = list(UpdateStream.parse(updates))
    counters = dnf.ClauseCounters(inst)
    for token in stream:
        counters.apply(token)
    trees = fdt.compile_dnf_verifier_to_trees(inst)
    oracle = fdt.FdtOracle(fdt.FdtInstance(list(inst.assignment), list(trees)))
    assert list(oracle.path_tree) == list(range(len(inst.clauses) + 1))
    trace = []
    fdt.completeness_harness(trees, inst.assignment, stream, oracle=oracle, trace=trace)
    verifiers = []

    def factory(i):
        verifiers.append(dnf.DnfVerifier(i))
        return verifiers[0]

    run_protocol(factory, dnf.honest_dnf_prover(), inst, stream)
    # the harness updates the oracle once per mirrored bit
    meters = [counters.meter.count, oracle.paths.meter.count,
              sum(entry["mirrored_bits"] for entry in trace), verifiers[0].meter.count]
    assert meters == [2424, 2424, 200, 489]


def test_mixed_sign_dnf_reports_and_meters_are_pinned_at_perfbench_size(tmp_path, capsys):
    """The input of the pin above with random literal signs, so most
    variables occur both positive and negated: the exact report bytes of
    `eval`, `verify --problem dnf` and `complete-demo`, every flag true, and
    the probe totals of the counters, the oracle, the harness and the
    verifier. How the counters lay out their occurrences must leave every
    one of them as it was. The counters' first satisfied clause after each
    flip and their final counts are checked against a rescan."""
    from dyncx import dnf, fdt
    from dyncx.framework import UpdateStream, run_protocol

    text, updates = generated()["big-mixed.dnf"], generated()["big-flips.txt"]
    (tmp_path / "mixed.dnf").write_text(text)
    (tmp_path / "flips.txt").write_text(updates)
    common = ["--in", str(tmp_path / "mixed.dnf"), "--updates", str(tmp_path / "flips.txt")]
    digests = {}
    for name, argv in [("eval", ["eval", "--check"]),
                       ("verify", ["verify", "--problem", "dnf", "--check"]),
                       ("complete-demo", ["complete-demo"])]:
        assert main(argv + common) == 0
        out = capsys.readouterr().out
        assert all(json.loads(out)["flags"].values())
        digests[name] = hashlib.sha256(out.replace(str(tmp_path), "TMP").encode()).hexdigest()
    assert digests == {
        "eval": "69ca1427aaf85a2041c89c8ef3bc1a1294a87a7dadc9e155bb62a9a6b1cf6e46",
        "verify": "b39efa91c6f66d4576c52d5716573c90876e2568ff525195c000ca817a8da907",
        "complete-demo": "aadbfec99ece9cb4230c0ed79e895164c5e1cef319778dcc2da6b0957d9e7c02",
    }

    inst = dnf.parse_dnf(text)
    stream = list(UpdateStream.parse(updates))
    counters = dnf.ClauseCounters(inst)
    state = inst.copy()
    for token in stream:
        counters.apply(token)
        state.apply(token)
        # about 250 clauses hold at every step, so the answer is always 1;
        # the first satisfied clause and the counts show a wrong flip
        assert counters.first() == next(
            j for j, c in enumerate(state.clauses) if c.satisfied_by(state.assignment))
    assert counters.unsat == [
        sum(bool(state.assignment[v]) != positive for v, positive in c.literals)
        for c in state.clauses]
    trees = fdt.compile_dnf_verifier_to_trees(inst)
    oracle = fdt.FdtOracle(fdt.FdtInstance(list(inst.assignment), list(trees)))
    trace = []
    fdt.completeness_harness(trees, inst.assignment, stream, oracle=oracle, trace=trace)
    verifiers = []

    def factory(i):
        verifiers.append(dnf.DnfVerifier(i))
        return verifiers[0]

    run_protocol(factory, dnf.honest_dnf_prover(), inst, stream)
    meters = [counters.meter.count, oracle.paths.meter.count,
              sum(entry["mirrored_bits"] for entry in trace), verifiers[0].meter.count]
    assert meters == [2424, 2424, 200, 600]
