"""Every text format through the one line reader: round trips and fuzzing."""

import pytest
from hypothesis import given, settings, strategies as st

from dyncx.connectivity import DynamicGraph, format_graph, parse_graph
from dyncx.dnf import (
    Clause,
    DnfInstance,
    FirstDnfInstance,
    VarOutOfRange,
    clause,
    format_dnf,
    parse_dnf,
)
from dyncx.equiv import (
    AllWhiteInstance,
    HypergraphInstance,
    SparseOvInstance,
    format_aw,
    parse_aw,
)
from dyncx.fdt import (
    DecisionTree,
    End,
    FdtInstance,
    NotNormalized,
    Read,
)
from dyncx.framework import DyncxError, ParseError, UpdateStream
from dyncx.reductions import (
    CapacitatedDigraph,
    CnfInstance,
    NodeSubgraphInstance,
    format_dimacs,
    parse_dimacs,
)

bits = st.integers(0, 1)


@st.composite
def dnfs(draw):
    n = draw(st.integers(1, 5))
    literal = st.tuples(st.integers(0, n - 1), st.booleans())
    clauses = draw(st.lists(
        st.lists(literal, max_size=3, unique_by=lambda lit: lit[0]).map(
            lambda lits: Clause(tuple(lits))),
        max_size=4,
    ))
    width = max((c.width for c in clauses), default=0) + draw(st.integers(0, 2))
    inst = DnfInstance(n, clauses, draw(st.lists(bits, min_size=n, max_size=n)), width)
    if draw(st.booleans()):
        return FirstDnfInstance(inst, draw(st.permutations(range(len(clauses)))))
    return inst


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return DynamicGraph(n, edges), draw(st.none() | st.integers(1, 4))


@st.composite
def all_whites(draw):
    num_l, num_r = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    pairs = [(l, r) for l in range(num_l) for r in range(num_r)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    colors = draw(st.lists(st.booleans(), min_size=num_l, max_size=num_l))
    return AllWhiteInstance(num_l, num_r, edges, colors)


@st.composite
def cnfs(draw):
    n = draw(st.integers(1, 5))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    return CnfInstance(n, draw(st.lists(st.lists(literal, min_size=1, max_size=3)
                                        .map(tuple), max_size=4)))


tokens = st.one_of(
    st.tuples(st.just("f"), st.integers(0, 9), bits),
    st.tuples(st.just("e"), st.sampled_from("+-"), st.integers(0, 9), st.integers(0, 9)),
    st.tuples(st.just("c"), st.integers(0, 9), st.sampled_from("WB")),
    st.just(("q",)),
)

# name: (instances, format, parse, comment tag)
FORMATS = {
    "updates": (st.lists(tokens).map(UpdateStream), UpdateStream.format,
                UpdateStream.parse, None),
    "dnf": (dnfs(), format_dnf, parse_dnf, "c"),
    "graph": (graphs(), lambda gk: format_graph(*gk), parse_graph, None),
    "aw": (all_whites(), format_aw, parse_aw, None),
    "cnf": (cnfs(), format_dimacs, parse_dimacs, "c"),
}

# no character that str.splitlines() reads as a line break
comment_text = st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp")),
                       max_size=8)


def noise(tag):
    lines = [st.sampled_from(["", "  \t", "#"]), comment_text.map(lambda t: "# " + t)]
    if tag is not None:
        lines.append(comment_text.map(lambda t: f"{tag} {t}"))
    return st.lists(st.one_of(lines), max_size=2)


@pytest.mark.parametrize("name", sorted(FORMATS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_parse_inverts_format_and_ignores_comments_and_blank_lines(name, data):
    instances, fmt, parse, tag = FORMATS[name]
    inst = data.draw(instances)
    text = fmt(inst)
    assert parse(text) == inst
    noisy = []
    for line in text.splitlines():
        noisy += data.draw(noise(tag))
        noisy.append(line + data.draw(st.sampled_from(["", " ", "  # note"])))
    noisy += data.draw(noise(tag))
    assert parse("\n".join(noisy)) == inst


FIELDS = (
    "p graph dnf cnf aw ov hg e k a o c v u s T R W E m f q + - W B # x 0 1 2 3 -1 "
    "1000000000000 0.5"
).split()
soup = st.lists(
    st.lists(st.sampled_from(FIELDS) | st.integers(-2, 6).map(str), max_size=6)
    .map(" ".join),
    max_size=8,
).map("\n".join)
# a header of the right shape first, so the body reaches the line handler
HEADERS = {"dnf": 3, "graph": 1, "aw": 2, "cnf": 2}


def headed(name):
    if name not in HEADERS:
        return soup
    counts = st.lists(st.integers(-1, 4) | st.just(10**12),
                      min_size=HEADERS[name], max_size=HEADERS[name])
    return st.builds(lambda cs, body: " ".join(["p", name, *map(str, cs)]) + "\n" + body,
                     counts, soup)


@pytest.mark.parametrize("name", sorted(FORMATS))
@settings(max_examples=45, deadline=None)
@given(data=st.data())
def test_only_package_errors_escape_a_parser(name, data):
    text = data.draw(st.text(max_size=40) | soup | headed(name))
    try:
        FORMATS[name][2](text)
    except DyncxError:
        pass


@pytest.mark.parametrize("parse, text, lineno", [
    (parse_graph, "p graph 2\ne 1 5\n", 2),
    (parse_graph, "p graph 3\n# a comment\ne 1 2\n\ne 2 1\n", 5),
    (parse_graph, "p graph 3\ne 2 2\n", 2),
    (parse_aw, "p aw 1 1\nc 3 W\n", 2),
    (parse_aw, "p aw 2 1\ne 1 1\nc 0 B\n", 3),
    (parse_aw, "p aw 2 2\ne 1 1\ne 1 5\n", 3),
    (parse_aw, "p aw 2 2\ne 2 1\n# a comment\ne 1 2\n\ne 2 1\n", 6),
    (parse_aw, "p aw 2 1\ne 1 1\nc 1 B\nc 1 W\n", 4),
    (parse_dnf, "p dnf 2 1 2\n3 0\na 0 0\n", 2),
    (parse_dnf, "p dnf 2 2 2\n1 0\n# a comment\n-2 2 0\n", 4),
    (parse_dnf, "p dnf 3 1 2\n1 2 3 0\n", 2),
    (parse_dnf, "p dnf 2 1 2\n1 0\na 0\n", 3),
    (parse_dnf, "p dnf 2 2 1\n1 0\n2 0\no 1 1\n", 4),
    (parse_dnf, "p dnf 2 2 2\n1 0\n1 -2\n", 3),
    (parse_dnf, "p dnf 2 2 2\n1 0\n1 0 2 0\n", 3),
    (parse_dnf, "p dnf 2 1 2\n1 2 0\na 0 0\na 1 1\n", 4),
    (parse_dnf, "p dnf 2 2 1\n1 0\n2 0\no 1 2\no 2 1\n", 5),
], ids=["graph-edge-out-of-range", "graph-repeated-edge", "graph-self-loop",
        "aw-color-out-of-range", "aw-color-node-zero", "aw-edge-out-of-range",
        "aw-repeated-edge", "aw-second-color-line", "dnf-literal-out-of-range",
        "dnf-repeated-variable", "dnf-wider-than-declared", "dnf-short-assignment",
        "dnf-order-not-a-permutation", "dnf-clause-without-final-0", "dnf-stray-0",
        "dnf-second-a-line", "dnf-second-o-line"])
def test_id_checks_name_the_line(parse, text, lineno):
    with pytest.raises(ParseError, match=rf"^line {lineno}: "):
        parse(text)


@pytest.mark.parametrize("parse, raw", [
    (parse_graph, "e 1 2 9"),
    (parse_graph, "k 2 7"),
    (parse_aw, "e 1 1 5"),
    (parse_aw, "c 1 W x"),
    (UpdateStream.parse, "q 1"),
    (UpdateStream.parse, "f 1 1 0"),
    (UpdateStream.parse, "e + 1 2 3"),
    (UpdateStream.parse, "c 1 W B"),
], ids=["graph-edge", "graph-k", "aw-edge", "aw-color", "update-q", "update-f",
        "update-e", "update-c"])
def test_fixed_arity_lines_refuse_extra_fields(parse, raw):
    header = {parse_graph: "p graph 3", parse_aw: "p aw 1 1", UpdateStream.parse: "q"}
    with pytest.raises(ParseError) as raised:
        parse(f"{header[parse]}\n{raw}\n")
    assert str(raised.value) == f"line 2: {raw!r}: too many fields"


@pytest.mark.parametrize("parse, text, message", [
    (parse_dnf, "p dnf x 1 1\n1 0\n", "line 1: 'p dnf x 1 1': count 'x' is not an integer"),
    (parse_dnf, "p dnf 2 1 1.5\n1 0\n", "line 1: 'p dnf 2 1 1.5': count '1.5' is not an integer"),
    (parse_graph, "# nodes\n  p graph n  # comment\n",
     "line 2: 'p graph n  # comment': count 'n' is not an integer"),
    (parse_dimacs, "c a comment\np cnf 3 y\n1 0\n", "line 2: 'p cnf 3 y': count 'y' is not an integer"),
    (parse_aw, "p aw a b\n", "line 1: 'p aw a b': count 'a' is not an integer"),
], ids=["dnf-first", "dnf-last", "graph-comment", "cnf", "aw-two-bad"])
def test_a_non_integer_header_count_is_named_with_its_line(parse, text, message):
    with pytest.raises(ParseError) as raised:
        parse(text)
    assert str(raised.value) == message


@st.composite
def dnf_files(draw):
    """A `p dnf` file that may break any rule `validate` checks, with the
    constructor arguments its lines spell out: the `DnfInstance` ones and
    the order, or None."""
    n, w = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    literal = st.integers(-n - 1, n + 1).filter(bool)
    clauses = draw(st.lists(st.lists(literal, max_size=4), max_size=4))
    assignment = draw(st.none() | st.lists(bits, min_size=max(0, n - 1), max_size=n + 1))
    ids = range(len(clauses))
    order = draw(st.none() | st.permutations(ids)
                 | st.lists(st.integers(0, len(clauses)), max_size=len(clauses) + 1))
    lines = [f"p dnf {n} {len(clauses)} {w}"]
    lines += [" ".join(map(str, c + [0])) for c in clauses]
    if assignment is not None:
        lines.append(" ".join(["a", *map(str, assignment)]))
    if order is not None:
        lines.append(" ".join(["o", *(str(j + 1) for j in order)]))
    args = (n, [clause(*c) for c in clauses],
            [0] * n if assignment is None else assignment, w)
    return "\n".join(lines) + "\n", args, order


@settings(max_examples=300, deadline=None)
@given(dnf_files())
def test_parse_dnf_rejects_exactly_what_validate_rejects(case):
    text, args, order = case
    try:
        inst = DnfInstance(*args)
        if order is not None:
            inst = FirstDnfInstance(inst, order)
    except ParseError:
        with pytest.raises(ParseError, match=r"^line \d+: "):
            parse_dnf(text)
    else:
        assert parse_dnf(text) == inst


@pytest.mark.parametrize("build, error", [
    (lambda: DnfInstance(2, [clause(1, 3)], [0, 0], 2), VarOutOfRange),
    (lambda: FirstDnfInstance(DnfInstance(1, [clause(1)], [0], 1), [1]), ParseError),
    (lambda: AllWhiteInstance(1, 1, [(0, 0), (0, 0)], [True]), ParseError),
    (lambda: SparseOvInstance(2, 1, [[1, 0]], [0, 0]), ParseError),
    (lambda: HypergraphInstance(2, [(0, 2)]), ParseError),
    (lambda: FdtInstance([0], [DecisionTree(
        [Read(0, 1, 2), End(0, 0, 0), Read(0, 3, 4), End(0, 0, 0), End(1, 1, 1)])]),
     NotNormalized),
    (lambda: CnfInstance(2, [(1, -3)]), ParseError),
    (lambda: CapacitatedDigraph(2, {(0, 1): 1}, 1, 1), ParseError),
    (lambda: NodeSubgraphInstance(2, [(0, 1)], [True]), ParseError),
], ids=["dnf", "first-dnf", "aw", "ov", "hypergraph", "fdt", "cnf", "maxflow",
        "subgraph"])
def test_a_malformed_instance_cannot_be_built(build, error):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error
