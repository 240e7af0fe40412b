import copy
import json
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from dyncx.framework import (
    BOTTOM,
    BudgetExceeded,
    Episode,
    EmptyProofSpace,
    OUTPUTS,
    ParseError,
    ProbeMeter,
    ProofOutOfSpace,
    TranscriptRecord,
    UndecodableUpdate,
    UpdateStream,
    VerifierOutput,
    _parse_token,
    constant_prover,
    decode_edge,
    decode_edge_set,
    decode_index,
    encode_edge,
    encode_edge_set,
    encode_index,
    format_token,
    fuzz_soundness,
    polylog_budget,
    random_prover,
    replay,
    reward_maximizing_prover,
    run_protocol,
)


@given(st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_index_round_trip(j):
    assert decode_index(encode_index(j)) == j


@given(st.integers(min_value=0, max_value=0xFFFF), st.integers(min_value=0, max_value=0xFFFF))
def test_edge_round_trip_sorts_endpoints(u, v):
    assert decode_edge(encode_edge(u, v)) == (min(u, v), max(u, v))


def test_index_encoding_order_matches_numeric_order():
    blobs = [encode_index(j) for j in range(300)]
    assert blobs == sorted(blobs)


@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)), max_size=8))
def test_edge_set_round_trip(pairs):
    normalized = [(min(u, v), max(u, v)) for u, v in pairs]
    assert decode_edge_set(encode_edge_set(pairs)) == normalized


def test_stream_parse_format_round_trip():
    text = "f 3 1\ne + 1 4\nc 2 W\nq\ne - 4 1\n"
    stream = UpdateStream.parse(text)
    assert stream.items == [
        ("f", 2, 1),
        ("e", "+", 0, 3),
        ("c", 1, "W"),
        ("q",),
        ("e", "-", 3, 0),
    ]
    assert UpdateStream.parse(stream.format()).items == stream.items


def test_stream_parse_rejects_bad_lines():
    for bad in ["f 0 1", "f 1 2", "e * 1 2", "c 1 X", "z 1", "f one 1"]:
        with pytest.raises(ParseError):
            UpdateStream.parse(bad)


def test_stream_comments_and_blanks_ignored():
    assert UpdateStream.parse("# nothing\n\n  f 1 0  # trailing\n").items == [("f", 0, 0)]


def test_stream_keeps_each_token_line():
    stream = UpdateStream.parse("q\n# note\n\nf 2 1\nq\n")
    assert stream.lines == [1, 4, 5]
    # the lines are provenance: a stream built from tokens equals the parse
    assert stream == UpdateStream([("q",), ("f", 1, 1), ("q",)])


def test_format_token_is_one_based():
    assert format_token(("f", 0, 1)) == "f 1 1"
    assert format_token(("e", "+", 0, 2)) == "e + 1 3"


@given(st.one_of(
    st.tuples(st.just("f"), st.integers(0, 99), st.integers(0, 1)),
    st.tuples(st.just("e"), st.sampled_from("+-"), st.integers(0, 99), st.integers(0, 99)),
    st.tuples(st.just("c"), st.integers(0, 99), st.sampled_from("WB")),
    st.just(("q",)),
))
def test_format_token_round_trips(tok):
    assert _parse_token(format_token(tok).split()) == tok


@pytest.mark.parametrize("tok", [
    ("e", "+", 0, 1, 5),  # a capacitated arc would lose its capacity
    ("f", 0, 2),
    ("c", 0, "X"),
    ("e", "*", 0, 1),
    ("f", -1, 0),
    ("q", 1),
    ("u", 0, 1),
])
def test_format_token_refuses_what_it_cannot_write_back(tok):
    with pytest.raises(UndecodableUpdate):
        format_token(tok)


def test_replay_reads_before_and_after_every_update():
    class Counter:
        value = 0

        def apply(self, tok):
            self.value += tok[1]

    assert replay(Counter(), [("f", 2), ("f", 3)], lambda c: c.value) == [0, 2, 5]


def test_verifier_output_validation():
    VerifierOutput(1, -3)
    with pytest.raises(ValueError):
        VerifierOutput(2, 0)
    with pytest.raises(ValueError):
        VerifierOutput(0, True)


def test_output_table_holds_every_verifier_output():
    for x in (0, 1):
        for y in (0, 1, -1):
            out = OUTPUTS[x][y]
            assert out == VerifierOutput(x, y) and (out.x, out.y) == (x, y)
            assert type(out) is VerifierOutput
            for twin in (pickle.loads(pickle.dumps(out)), copy.copy(out),
                         copy.deepcopy(out)):
                assert twin == out and type(twin) is VerifierOutput
    assert OUTPUTS[0][-1] is OUTPUTS[0][2]  # the reject, by the negative index
    for x, y in ((2, 0), (1, True), (1, 1.0)):
        with pytest.raises(ValueError):
            VerifierOutput(x, y)


def test_records_are_immutable_values():
    out = VerifierOutput(1, -3)
    assert out == VerifierOutput(1, -3) and hash(out) == hash(VerifierOutput(1, -3))
    assert out != VerifierOutput(1, 3)
    assert (out.x, out.y) == (1, -3)
    assert repr(out) == "VerifierOutput(x=1, y=-3)"
    rec = TranscriptRecord(2, ("q",), b"\x01", out)
    assert rec == TranscriptRecord(2, ("q",), b"\x01", VerifierOutput(1, -3))
    assert (rec.step, rec.update, rec.proof, rec.output) == (2, ("q",), b"\x01", out)
    for obj, name in ((out, "x"), (out, "y"), (out, "extra"),
                      (rec, "step"), (rec, "proof"), (rec, "output")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
    assert pickle.loads(pickle.dumps(out)) == out
    for x, y in ((2, 0), (0, True), (-1, 0), (1, 1.0), (0, "1"), (None, 0)):
        with pytest.raises(ValueError):
            VerifierOutput(x, y)


def test_transcript_json_bytes_are_pinned():
    stream = UpdateStream([("q",), ("f", 2, 1), ("e", "-", 0, 3), ("c", 4, "B")])
    transcript = run_protocol(ParityVerifier, random_prover(seed=2, junk_rate=0.5), 0, stream)
    assert transcript.to_json() == (
        '{"schema": 1, "steps": ['
        '{"proof_hex": null, "step": 0, "update": null, "x": 0, "y": 0}, '
        '{"proof_hex": "", "step": 1, "update": "q", "x": 1, "y": 0}, '
        '{"proof_hex": "e3d5", "step": 2, "update": "f 3 1", "x": 0, "y": -1}, '
        '{"proof_hex": "6740", "step": 3, "update": "e - 1 4", "x": 1, "y": -1}, '
        '{"proof_hex": "", "step": 4, "update": "c 5 B", "x": 0, "y": 0}]}'
    )


def test_probe_meter_budget_per_burst():
    meter = ProbeMeter(budget=3)
    meter.start_op()
    meter.charge(3)
    assert meter.end_op() == 3
    meter.start_op()
    meter.charge(4)
    with pytest.raises(BudgetExceeded):
        meter.end_op("too much")


def test_polylog_budget_monotone():
    values = [polylog_budget(1 << k) for k in range(2, 16)]
    assert values == sorted(values)


class ParityVerifier:
    """Toy verifier: x = parity of flips seen; proof must echo the count."""

    max_proof_len = 4

    def __init__(self, start: int):
        self.count = start

    def initial_output(self):
        return VerifierOutput(self.count % 2, 0)

    def copy(self):
        return ParityVerifier(self.count)

    def proof_space(self, token):
        return [BOTTOM, encode_index(self.count + 1)]

    def step(self, token, proof):
        self.count += 1
        if proof == BOTTOM:
            return VerifierOutput(self.count % 2, 0)
        ok = proof == encode_index(self.count)
        return VerifierOutput(self.count % 2, 1 if ok else -1)


def test_run_protocol_orders_prover_before_update():
    stream = UpdateStream([("q",), ("q",), ("q",)])
    transcript = run_protocol(ParityVerifier, reward_maximizing_prover(), 0, stream)
    assert transcript.rewards() == [0, 1, 1, 1]
    assert transcript.answers() == [0, 1, 0, 1]
    assert len(transcript) == len(stream) + 1


def test_run_protocol_rejects_oversized_proof():
    stream = UpdateStream([("q",)])
    with pytest.raises(ProofOutOfSpace):
        run_protocol(ParityVerifier, constant_prover(b"12345"), 0, stream)


def test_reward_maximizing_prover_breaks_ties_toward_first_candidate():
    class TieVerifier(ParityVerifier):
        def proof_space(self, token):
            return [b"\x00", b"\x01"]

        def step(self, token, proof):
            self.count += 1
            return VerifierOutput(0, 7)

    stream = UpdateStream([("q",)])
    transcript = run_protocol(TieVerifier, reward_maximizing_prover(), 0, stream)
    assert transcript.records[1].proof == b"\x00"


def test_reward_maximizing_prover_needs_candidates():
    class MuteVerifier(ParityVerifier):
        def proof_space(self, token):
            return []

    with pytest.raises(EmptyProofSpace):
        run_protocol(MuteVerifier, reward_maximizing_prover(), 0, UpdateStream([("q",)]))


def test_random_prover_respects_proof_length():
    rng = random.Random(3)
    prover = random_prover(seed=5, junk_rate=1.0, junk_len=64)
    v = ParityVerifier(0)
    for _ in range(50):
        assert len(prover(v, ("q",))) <= v.max_proof_len


def test_transcript_json_schema():
    stream = UpdateStream([("q",)])
    transcript = run_protocol(ParityVerifier, constant_prover(), 0, stream)
    payload = json.loads(transcript.to_json())
    assert payload["schema"] == 1
    assert [s["step"] for s in payload["steps"]] == [0, 1]
    assert payload["steps"][1]["proof_hex"] == ""


def test_fuzz_soundness_flags_lying_verifier():
    class Liar(ParityVerifier):
        def step(self, token, proof):
            self.count += 1
            return VerifierOutput(1, 0)

    def gen(rng):
        stream = UpdateStream([("q",)] * 3)
        return Episode(0, stream, [0, 0, 0, 0])

    violations = fuzz_soundness(Liar, gen, [constant_prover()], trials=2, seed=0)
    assert len(violations) == 6
    assert all(v.step >= 1 for v in violations)
