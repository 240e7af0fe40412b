import json
import subprocess
import sys
from pathlib import Path

import pytest

from dyncx.cli import main


DNF_TEXT = "p dnf 4 3 2\n1 -2 0\n3 0\n-1 4 0\na 0 1 0 0\n"
FLIPS = "f 1 1\nf 3 0\nq\nf 2 1\nf 1 0\n"
GRAPH_TEXT = "p graph 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n"
EDGES = "e - 1 2\ne + 1 3\nq\ne - 3 4\n"
AW_TEXT = "p aw 3 2\ne 1 1\ne 2 1\ne 3 2\nc 1 W\nc 2 B\nc 3 B\n"
COLORS = "c 1 B\nq\nc 2 W\nc 3 W\n"
CNF_SAT = "p cnf 3 2\n1 2 0\n-1 3 0\n"
CNF_UNSAT = "p cnf 1 2\n1 0\n-1 0\n"


@pytest.fixture
def files(tmp_path):
    made = {}
    for name, text in [
        ("inst.dnf", DNF_TEXT),
        ("flips.txt", FLIPS),
        ("graph.txt", GRAPH_TEXT),
        ("edges.txt", EDGES),
        ("aw.txt", AW_TEXT),
        ("colors.txt", COLORS),
        ("sat.cnf", CNF_SAT),
        ("unsat.cnf", CNF_UNSAT),
    ]:
        p = tmp_path / name
        p.write_text(text)
        made[name] = str(p)
    return made


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_eval_reports_answers_and_counters(files, capsys):
    rc, payload = run_json(
        capsys, ["eval", "--in", files["inst.dnf"], "--updates", files["flips.txt"],
                 "--check"]
    )
    assert rc == 0
    assert payload["schema"] == 1
    assert payload["flags"] == {"matches_oracle": True}
    assert len(payload["steps"]) == 6  # preprocessing + five updates
    assert payload["steps"][0]["update"] is None
    assert payload["counters"]["algo"] == "counters"
    assert payload["counters"]["flips"] == 4
    assert "wall_clock_s" not in payload


def test_eval_algorithms_agree(files, capsys):
    answers = {}
    for algo in ("naive", "counters"):
        rc, payload = run_json(
            capsys, ["eval", "--in", files["inst.dnf"],
                     "--updates", files["flips.txt"], "--algo", algo]
        )
        assert rc == 0
        answers[algo] = [s["answer"] for s in payload["steps"]]
    assert answers["naive"] == answers["counters"]


def test_verify_dnf_honest_is_sound_and_complete(files, capsys):
    rc, payload = run_json(
        capsys, ["verify", "--problem", "dnf", "--in", files["inst.dnf"],
                 "--updates", files["flips.txt"], "--check"]
    )
    assert rc == 0
    assert payload["flags"] == {"sound": True, "complete": True}
    assert all("proof_hex" in s for s in payload["steps"])


def test_verify_conn_adversary_stays_sound(files, capsys):
    rc, payload = run_json(
        capsys, ["verify", "--problem", "conn", "--in", files["graph.txt"],
                 "--updates", files["edges.txt"], "--prover", "adversarial:ghost",
                 "--check"]
    )
    assert rc == 0
    assert payload["flags"]["sound"] is True
    assert "complete" not in payload["flags"]  # only honest runs claim it


def test_verify_conn_random_prover_is_seeded(files, capsys):
    outs = []
    for _ in range(2):
        rc, payload = run_json(
            capsys, ["--seed", "7", "verify", "--problem", "conn",
                     "--in", files["graph.txt"], "--updates", files["edges.txt"],
                     "--prover", "random", "--check"]
        )
        assert rc == 0
        outs.append(payload)
    assert outs[0] == outs[1]


def test_verify_kconn_uses_k_flag(files, capsys):
    rc, payload = run_json(
        capsys, ["verify", "--problem", "kconn", "--in", files["graph.txt"],
                 "--updates", files["edges.txt"], "--k", "2", "--check"]
    )
    assert rc == 0
    assert payload["flags"] == {"sound": True, "complete": True}


def test_verify_kconn_reads_k_header(tmp_path, capsys):
    path = tmp_path / "kgraph.txt"
    path.write_text("p graph 3\nk 2\ne 1 2\ne 2 3\n")
    rc, payload = run_json(
        capsys, ["verify", "--problem", "kconn", "--in", str(path), "--check"]
    )
    assert rc == 0
    assert payload["steps"][0]["x"] == 1  # a path has a bridge


@pytest.mark.parametrize("check", [[], ["--check"]], ids=["plain", "check"])
def test_verify_kconn_on_one_node_reads_no(tmp_path, capsys, check):
    path = tmp_path / "one.txt"
    path.write_text("p graph 1\n")
    (tmp_path / "q.txt").write_text("q\nq\n")
    rc, payload = run_json(
        capsys, ["verify", "--problem", "kconn", "--k", "2", "--in", str(path),
                 "--updates", str(tmp_path / "q.txt")] + check
    )
    assert rc == 0
    assert [s["x"] for s in payload["steps"]] == [0, 0, 0]
    if check:
        assert payload["flags"] == {"sound": True, "complete": True}


def test_verify_conn_on_a_graph_with_no_nodes_reads_connected(tmp_path, capsys):
    # like `oracles.is_connected`, a graph of at most one node is connected
    path = tmp_path / "empty.txt"
    path.write_text("p graph 0\n")
    (tmp_path / "q.txt").write_text("q\n")
    rc, payload = run_json(
        capsys, ["verify", "--problem", "conn", "--prover", "honest", "--in", str(path),
                 "--updates", str(tmp_path / "q.txt"), "--check"]
    )
    assert rc == 0
    assert [s["x"] for s in payload["steps"]] == [1, 1]
    assert payload["flags"] == {"sound": True, "complete": True}


def test_verify_kconn_without_k_errors(files, capsys):
    rc = main(["verify", "--problem", "kconn", "--in", files["graph.txt"]])
    assert rc == 2


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
def test_every_prover_name_keeps_the_exit_contract(problem, prover, files, capsys):
    argv = ["verify", "--problem", problem, "--prover", prover, "--check"]
    rc = main(argv + [files.get(a, a) for a in PROBLEM_INPUTS[problem]])
    err = capsys.readouterr().err
    assert rc in (0, 1, 2)
    if rc == 2:
        assert err.startswith("error:")
        assert "Traceback" not in err
    if "nonsense" in prover:
        assert rc == 2
    if problem == "spanning-forest":
        assert (rc == 2) == (prover not in ("honest", "adversarial:stubborn"))


def test_verify_spanning_forest_valid(files, capsys):
    rc, payload = run_json(
        capsys, ["verify", "--problem", "spanning-forest", "--in", files["graph.txt"],
                 "--updates", files["edges.txt"], "--check"]
    )
    assert rc == 0
    assert payload["flags"] == {"spanning_forest_valid": True}
    assert payload["counters"]["oracle_calls"] > 0


def test_verify_spanning_forest_flags_stubborn_prover(files, capsys):
    rc, payload = run_json(
        capsys, ["verify", "--problem", "spanning-forest", "--in", files["graph.txt"],
                 "--updates", files["edges.txt"], "--prover", "adversarial:stubborn",
                 "--check"]
    )
    assert rc == 1
    assert payload["flags"] == {"spanning_forest_valid": False}


@pytest.mark.parametrize(
    "target", ["maxflow", "subconn", "diameter", "streach", "countreach", "countscc"]
)
def test_reduce_agrees_per_step(files, capsys, target):
    rc, payload = run_json(
        capsys, ["reduce", "--target", target, "--in", files["aw.txt"],
                 "--updates", files["colors.txt"]]
    )
    assert rc == 0
    assert payload["flags"] == {"agree_all": True}
    assert len(payload["steps"]) == 5
    assert all(s["agree"] for s in payload["steps"])


def test_sat_command_verdicts(files, capsys):
    rc, payload = run_json(capsys, ["sat", "--in", files["sat.cnf"]])
    assert rc == 0
    assert payload["counters"]["verdict"] == "SAT"
    assert payload["flags"] == {"ops_within_bound": True}

    rc, payload = run_json(capsys, ["sat", "--in", files["unsat.cnf"]])
    assert rc == 0
    assert payload["counters"]["verdict"] == "UNSAT"
    assert payload["counters"]["aw_ops"] <= payload["counters"]["op_bound"]


def test_sat_budget_exit_code(files, capsys):
    big = "p cnf 30 1\n1 0\n"
    path = files["sat.cnf"]
    with open(path, "w") as fh:
        fh.write(big)
    rc = main(["sat", "--in", path, "--budget", "100"])
    assert rc == 2


def test_complete_demo_matches_oracle(files, capsys):
    rc, payload = run_json(
        capsys, ["complete-demo", "--in", files["inst.dnf"],
                 "--updates", files["flips.txt"]]
    )
    assert rc == 0
    assert payload["flags"] == {"matches_oracle": True}
    assert payload["counters"]["trees"] == 4  # three clause trees + concession
    assert all("mirrored_bits" in s for s in payload["steps"])


def test_complete_demo_validates_each_tree_once(files, capsys, monkeypatch):
    from dyncx.fdt import DecisionTree

    seen = []
    validate = DecisionTree.validate

    def counting(tree, *args, **kwargs):
        seen.append(id(tree))
        return validate(tree, *args, **kwargs)

    monkeypatch.setattr(DecisionTree, "validate", counting)
    rc, payload = run_json(
        capsys, ["complete-demo", "--in", files["inst.dnf"],
                 "--updates", files["flips.txt"]]
    )
    assert rc == 0
    assert seen == []


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


def test_complete_demo_walks_no_tree_after_compile(files, capsys, monkeypatch):
    from dyncx import dnf, fdt

    seen = count_checks(monkeypatch, fdt.DecisionTree)
    rc, payload = run_json(
        capsys, ["complete-demo", "--in", files["inst.dnf"],
                 "--updates", files["flips.txt"]]
    )
    assert rc == 0 and payload["counters"]["trees"] == 4
    inst = dnf.parse_dnf(DNF_TEXT)
    trees = fdt.compile_dnf_verifier_to_trees(inst)
    fdt.completeness_harness(trees, inst.assignment, [("f", 0, 1), ("q",)])
    assert seen == []


def test_an_instance_is_checked_once_when_it_is_built(files, capsys, monkeypatch):
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
    rc, _ = run_json(capsys, ["sat", "--in", files["sat.cnf"]])
    assert rc == 0 and seen == []

    seen = count_checks(monkeypatch, equiv.AllWhiteInstance)
    rc, _ = run_json(capsys, ["reduce", "--target", "maxflow", "--in", files["aw.txt"],
                              "--updates", files["colors.txt"]])
    assert rc == 0 and seen == []


def test_bench_counters_win_at_the_largest_size(capsys):
    rc, payload = run_json(capsys, ["bench", "--sizes", "4,32", "--steps", "40"])
    assert rc == 0
    assert payload["flags"] == {"counters_never_slower_at_largest": True}


def test_missing_file_is_io_error(capsys):
    rc = main(["eval", "--in", "/nonexistent/inst.dnf"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["--in", "--updates"])
def test_non_utf8_input_exits_2_naming_the_path(which, files, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"p graph 3\ne 1 2\n\xff\n")
    paths = {"--in": files["graph.txt"], "--updates": files["edges.txt"], which: str(bad)}
    rc = main(["verify", "--problem", "conn", "--in", paths["--in"],
               "--updates", paths["--updates"]])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and str(bad) in err and "Traceback" not in err


@pytest.mark.parametrize("sizes", ["abc", "4,x"])
def test_bench_rejects_sizes_that_are_not_counts(sizes, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["bench", "--sizes", sizes])
    err = capsys.readouterr().err
    assert exit_.value.code == 2
    assert "--sizes" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    (["--sizes=-4,0", "--steps", "3"], "--sizes"),
    (["--sizes", ","], "--sizes"),
    (["--steps", "-5"], "--steps"),
], ids=["negative-size", "no-sizes", "negative-steps"])
def test_bench_rejects_negative_or_missing_work(argv, flag, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--table", "bench", *argv])
    err = capsys.readouterr().err
    assert exit_.value.code == 2
    assert flag in err and "Traceback" not in err


def test_malformed_instance_is_domain_error(tmp_path, capsys):
    path = tmp_path / "bad.dnf"
    path.write_text("p dnf 2 1 1\n9 0\na 0 0\n")
    rc = main(["eval", "--in", str(path)])
    assert rc == 2


@pytest.mark.parametrize("problem", ["conn", "spanning-forest"])
@pytest.mark.parametrize("update, message", [
    ("e + 1 9", "edge (1,9) out of range"),
    ("e + 2 1", "edge (1,2) already present"),
    ("e - 1 3", "edge (1,3) not present"),
], ids=["out-of-range", "duplicate", "unknown"])
def test_bad_graph_update_names_the_file_ids(problem, update, message, files, capsys):
    stream = Path(files["edges.txt"]).with_name("bad.txt")
    stream.write_text(f"q\n{update}\n")
    rc = main(["verify", "--problem", problem, "--in", files["graph.txt"],
               "--updates", str(stream)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: updates line 2 (step 2): {message}\n"


# each route to an out-of-range flip: the counters, the naive rescan's
# instance, the verifier's own step (under the maximizing prover, which
# keeps no counters) and the completeness harness
@pytest.mark.parametrize("argv, message", [
    (["eval"], "variable 9 out of range 1..4"),
    (["eval", "--algo", "naive"], "variable 9 out of range 1..4"),
    (["verify", "--problem", "dnf"], "variable 9 out of range 1..4"),
    (["verify", "--problem", "dnf", "--prover", "maximizing"],
     "variable 9 out of range 1..4"),
    (["complete-demo"], "update position 9 out of range 1..4"),
], ids=["eval", "eval-naive", "verify-honest", "verify-maximizing", "complete-demo"])
def test_bad_flip_names_the_file_ids(argv, message, files, capsys):
    stream = Path(files["flips.txt"]).with_name("bad.txt")
    stream.write_text("q\nf 9 1\n")
    rc = main(argv + ["--in", files["inst.dnf"], "--updates", str(stream)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: updates line 2 (step 2): {message}\n"


# the line counts every line of the file, the step only tokens
@pytest.mark.parametrize("command, text, graph, where", [
    (["verify", "--problem", "conn"], "q\nq\ne + 1 9\n", True,
     "updates line 3 (step 3): edge (1,9) out of range"),
    (["eval"], "# flips\n\nf 9 1\n", False,
     "updates line 3 (step 1): variable 9 out of range 1..4"),
    (["complete-demo"], "q\n# next\nf 9 1\n", False,
     "updates line 3 (step 2): update position 9 out of range 1..4"),
], ids=["verify-conn", "eval", "complete-demo"])
def test_update_errors_name_their_line_and_step(command, text, graph, where, files,
                                                capsys):
    stream = Path(files["flips.txt"]).with_name("steps.txt")
    stream.write_text(text)
    rc = main(command + ["--in", files["graph.txt" if graph else "inst.dnf"],
                         "--updates", str(stream)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: {where}\n" and "Traceback" not in err


def test_unencodable_proof_names_its_step_once(files, capsys):
    # the oversize prover ships k = 2 edges of the 4-cycle at step 1; the
    # protocol's own "step 1: " is not repeated after the CLI's label
    rc = main(["verify", "--problem", "kconn", "--k", "2", "--prover", "adversarial:oversize",
               "--in", files["graph.txt"], "--updates", files["edges.txt"]])
    proof = b"\0" * 7 + b"\1" + b"\0" * 7 + b"\3"  # edges 1-2 and 1-4, as 0-based ids
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: updates line 1 (step 1): unencodable proof {proof!r}\n")


def test_reduce_names_an_out_of_range_color_by_the_file_id(tmp_path, capsys):
    inst, stream = tmp_path / "aw.txt", tmp_path / "colors.txt"
    inst.write_text("p aw 2 2\ne 1 1\ne 2 2\n")
    stream.write_text("q\nc 9 W\n")
    rc = main(["reduce", "--target", "maxflow", "--in", str(inst), "--updates", str(stream)])
    assert rc == 2
    assert capsys.readouterr().err == "error: updates line 2 (step 2): L node 9 out of range\n"


def test_complete_demo_refuses_an_update_it_cannot_apply(files, capsys):
    # an edge update parses, but the harness only applies flips and queries
    stream = Path(files["flips.txt"]).with_name("edge.txt")
    stream.write_text("e + 1 2\n")
    rc = main(["complete-demo", "--in", files["inst.dnf"], "--updates", str(stream)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: updates line 1 (step 1): harness cannot decode update")
    assert "Traceback" not in err


@pytest.mark.parametrize("line, message", [
    ("e 2 9", "line 6: 'e 2 9': edge (2,9) out of range"),
    ("e 4 3", "line 6: 'e 4 3': edge (3,4) already present"),
], ids=["out-of-range", "duplicate"])
def test_bad_graph_file_line_names_the_file_ids(line, message, tmp_path, capsys):
    path = tmp_path / "graph.txt"
    path.write_text(GRAPH_TEXT + line + "\n")
    rc = main(["verify", "--problem", "conn", "--in", str(path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_json_output_is_deterministic(files, capsys):
    argv = ["verify", "--problem", "conn", "--in", files["graph.txt"],
            "--updates", files["edges.txt"], "--check"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    assert "wall_clock" not in first


def test_timing_flag_adds_wall_clock(files, capsys):
    rc, payload = run_json(
        capsys, ["--timing", "eval", "--in", files["inst.dnf"]]
    )
    assert rc == 0
    assert "wall_clock_s" in payload


def test_table_output_renders(files, capsys):
    rc = main(["--table", "bench", "--sizes", "4,8", "--steps", "10"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "naive/step" in out
    assert "pass" in out


def test_module_entry_point(files):
    proc = subprocess.run(
        [sys.executable, "-m", "dyncx", "eval", "--in", files["inst.dnf"]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema"] == 1


GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli_reports.json").read_text())


@pytest.mark.parametrize("check", [[], ["--check"]], ids=["plain", "check"])
def test_spanning_forest_refuses_a_non_graph_token_after_a_desync(files, capsys, check):
    stream = Path(files["edges.txt"]).with_name("desync.txt")
    stream.write_text("e - 1 2\nf 1 1\n")
    rc = main(["verify", "--problem", "spanning-forest", "--in", files["graph.txt"],
               "--updates", str(stream), "--prover", "adversarial:stubborn"] + check)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_golden(name, files, tmp_path, monkeypatch, capsys):
    """README commands keep their exact JSON bytes, probe counts included."""
    monkeypatch.chdir(tmp_path)
    case = GOLDEN[name]
    rc = main(case["argv"])
    assert capsys.readouterr().out == case["stdout"]
    assert rc == case["exit"]


@pytest.mark.parametrize(
    "argv, text",
    [
        (["eval"], "p dnf x 1 1\n1 0\n"),
        (["sat"], "p cnf 2 1\n1 x 0\n"),
        (["verify", "--problem", "conn"], "p graph 3\ne 1\n"),
        # node 9 of a 3-node instance
        (["reduce", "--target", "maxflow", "--updates", "colors.txt"], AW_TEXT),
        (["verify", "--problem", "conn", "--check"], "p graph -1\n"),
        (["verify", "--problem", "spanning-forest", "--check"], "p graph -1\n"),
        (["sat"], "p cnf -1 0\n"),
        # past DYNCX_BUDGET: refused before any node is allocated
        (["verify", "--problem", "conn"], "p graph 100000000\n"),
        (["verify", "--problem", "conn"], "e 1 2\np graph 3\n"),
    ],
    ids=["dnf-header", "dimacs-literal", "short-edge-line", "recolor-out-of-range",
         "negative-nodes-conn", "negative-nodes-spanning-forest", "negative-vars-sat",
         "nodes-over-budget", "header-after-body"],
)
def test_malformed_input_exits_2_without_traceback(argv, text, tmp_path, monkeypatch,
                                                   capsys):
    (tmp_path / "input.txt").write_text(text)
    (tmp_path / "colors.txt").write_text("c 9 B\n")
    monkeypatch.chdir(tmp_path)
    rc = main(argv + ["--in", "input.txt"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


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


def sparse_dnf_text(seed: int, n: int, m: int, flips: int) -> tuple[str, str]:
    """A seeded positive width-3 DNF and a flip stream, in file form.

    About 0.9 * m^(-1/3) of the variables are ones, so under a clause of
    three positive literals less than one clause holds on average and the
    answer keeps changing. Each flip turns a one off while there are too
    many and a zero on while there are too few, so the density holds."""
    import random

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


def test_dnf_reports_and_meters_are_pinned_at_perfbench_size(tmp_path, capsys):
    """perfbench's dnf-proofs scale (n = 500, m = 2000, width 3) with 200
    flips: the exact report bytes of `eval`, `verify --problem dnf` and
    `complete-demo`, the oracle's kept paths and the probe totals of the
    counters, the oracle and the verifier. Sharing or pruning what set-up
    builds must leave every one of them as it was."""
    import hashlib

    from dyncx import dnf, fdt
    from dyncx.framework import UpdateStream, run_protocol

    text, updates = sparse_dnf_text(11, 500, 2000, 200)
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


def with_random_signs(text: str, seed: int) -> str:
    """`text` with each clause literal negated on a fair coin of
    `random.Random(seed)`, drawn in file order; the header and assignment
    lines are kept."""
    import random

    rng = random.Random(seed)
    out = []
    for line in text.splitlines(keepends=True):
        if line[0] not in "pa":
            lits = line.split()[:-1]
            line = " ".join(l if rng.random() < 0.5 else "-" + l for l in lits) + " 0\n"
        out.append(line)
    return "".join(out)


def test_mixed_sign_dnf_reports_and_meters_are_pinned_at_perfbench_size(tmp_path, capsys):
    """The input of the pin above with random literal signs, so most
    variables occur both positive and negated: the exact report bytes of
    `eval`, `verify --problem dnf` and `complete-demo`, every flag true, and
    the probe totals of the counters, the oracle, the harness and the
    verifier. How the counters lay out their occurrences must leave every
    one of them as it was. The counters' first satisfied clause after each
    flip and their final counts are checked against a rescan."""
    import hashlib

    from dyncx import dnf, fdt
    from dyncx.framework import UpdateStream, run_protocol

    text, updates = sparse_dnf_text(11, 500, 2000, 200)
    text = with_random_signs(text, 5)
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
