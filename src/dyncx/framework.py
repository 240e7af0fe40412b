"""Core machinery for dynamic problems.

A dynamic problem is driven by a stream of small updates. Two execution
modes live here:

* plain replays (`replay`): a state object applies each update itself and
  a read function answers after every step; the brute-force truths behind
  every --check run this way;
* verifier/prover protocols (`run_protocol`): after each update the prover
  hands the verifier a short proof, the verifier replies with an answer bit
  x and a signed integer reward y. Soundness must hold against every proof
  sequence; completeness only against a reward-maximizing prover.

Proof payloads are plain byte strings. The empty payload is the null proof
(written BOTTOM below).

`read_lines` is the one reader of every line-based text format: update
streams here and each instance format in its own module.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple


class DyncxError(Exception):
    """Base class for package errors."""


class ParseError(DyncxError):
    pass


class UndecodableUpdate(DyncxError):
    """An update token the consumer does not understand."""


class ProofOutOfSpace(DyncxError):
    """The prover emitted something that is not an encodable proof at
    protocol step `step`. The message names the step; `reason` is the
    message without it, for a caller that names the step itself."""

    def __init__(self, step: int, reason: str):
        super().__init__(step, reason)
        self.step, self.reason = step, reason

    def __str__(self):
        return f"step {self.step}: {self.reason}"


class EmptyProofSpace(DyncxError):
    pass


class BudgetExceeded(DyncxError):
    pass


class OracleDesync(DyncxError):
    """Mirror audit found verifier memory and oracle memory disagreeing."""


BOTTOM = b""

# The longest proof the protocol will send; verifiers may declare a smaller
# max_proof_len.
MAX_PROOF_LEN = 0xFFFF


def encode_index(j: int) -> bytes:
    """Fixed-width index encoding; lexicographic order == numeric order."""
    return j.to_bytes(4, "big")


def decode_index(payload: bytes) -> int:
    if len(payload) != 4:
        raise ParseError(f"index payload must be 4 bytes, got {len(payload)}")
    return int.from_bytes(payload, "big")


def encode_edge(u: int, v: int) -> bytes:
    a, b = (u, v) if u <= v else (v, u)
    return a.to_bytes(4, "big") + b.to_bytes(4, "big")


def decode_edge(payload: bytes) -> tuple[int, int]:
    if len(payload) != 8:
        raise ParseError(f"edge payload must be 8 bytes, got {len(payload)}")
    return int.from_bytes(payload[:4], "big"), int.from_bytes(payload[4:], "big")


def encode_edge_set(edges) -> bytes:
    return b"".join(encode_edge(u, v) for u, v in edges)


def decode_edge_set(payload: bytes) -> list[tuple[int, int]]:
    if len(payload) % 8:
        raise ParseError("edge-set payload length must be a multiple of 8")
    return [decode_edge(payload[k : k + 8]) for k in range(0, len(payload), 8)]


# ---------------------------------------------------------------------------
# Line-based text formats
# ---------------------------------------------------------------------------


def read_lines(text: str, handle, header: tuple[str, int] | None = None,
               comment: str | None = None, on_header=None) -> tuple[int, ...]:
    """Call handle(fields, line number) for each body line of `text`; return
    the header counts.

    `#` starts a comment. Blank lines, and lines whose first field is
    `comment`, are skipped. With header=(kind, arity) the first remaining
    line must be `p <kind>` and `arity` integer counts in 0..env_budget(),
    and no other `p` line may follow; a negative count is a ParseError, one
    past the budget a BudgetExceeded. on_header(counts), when given, runs
    once the header is read, so that `handle` can check ids against the
    counts line by line; the line number lets a format that checks a block
    of lines after reading them all name the block's first line. A
    ValueError, IndexError or DyncxError from `handle` comes back as a
    ParseError naming the line.
    """
    counts = None if header else ()
    for lineno, raw in enumerate(text.splitlines(), 1):
        # most lines carry no comment; they are split without a copy
        parts = (raw[: raw.index("#")] if "#" in raw else raw).split()
        if not parts or parts[0] == comment:
            continue
        if counts is None:
            counts = _header_counts(parts, *header, lineno)
            if on_header is not None:
                on_header(counts)
            continue
        try:
            if parts[0] == "p" and header:
                raise ParseError("second 'p' line")
            handle(parts, lineno)
        except (ValueError, IndexError, DyncxError) as exc:
            reason = "too few fields" if isinstance(exc, IndexError) else exc
            raise ParseError(f"line {lineno}: {raw.strip()!r}: {reason}") from exc
    if counts is None:
        raise ParseError(f"missing 'p {header[0]}' header")
    return counts


def _header_counts(parts: list[str], kind: str, arity: int, lineno: int):
    if len(parts) != 2 + arity or parts[0] != "p" or parts[1] != kind:
        want = " ".join(["p", kind] + ["<count>"] * arity)
        raise ParseError(f"line {lineno}: want '{want}' first")
    try:
        counts = tuple(map(int, parts[2:]))
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from exc
    budget = env_budget()
    for c in counts:
        if c < 0:
            raise ParseError(f"line {lineno}: negative count {c}")
        if c > budget:
            raise BudgetExceeded(f"line {lineno}: count {c} exceeds budget {budget}")
    return counts


# ---------------------------------------------------------------------------
# Update streams
# ---------------------------------------------------------------------------
#
# Tokens are plain tuples; node and variable ids are 0-based in memory and
# 1-based in the text format:
#   ("f", var, bit)      set a formula variable
#   ("e", "+"|"-", u, v) insert/delete an undirected edge
#   ("c", node, "W"|"B") recolor a node
#   ("q",)               bare query marker (no mutation)


@dataclass
class UpdateStream:
    """Tokens in stream order; `lines` holds each parsed token's 1-based
    line in its text (empty for a stream built from tokens)."""

    items: list[tuple] = field(default_factory=list)
    lines: list[int] = field(default_factory=list, compare=False, repr=False)

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)

    def __getitem__(self, k):
        return self.items[k]

    @classmethod
    def parse(cls, text: str) -> "UpdateStream":
        items, lines = [], []

        def token(parts, lineno):
            items.append(_parse_token(parts))
            lines.append(lineno)

        read_lines(text, token)
        return cls(items, lines)

    def format(self) -> str:
        return "".join(format_token(tok) + "\n" for tok in self.items)


def _parse_token(parts: list[str]) -> tuple:
    kind = parts[0]
    if kind == "f":
        var, bit = int(parts[1]), int(parts[2])
        if var < 1 or bit not in (0, 1):
            raise ValueError("f token wants 1-based var and bit in {0,1}")
        return ("f", var - 1, bit)
    if kind == "e":
        sign = parts[1]
        if sign not in ("+", "-"):
            raise ValueError("edge sign must be + or -")
        u, v = int(parts[2]), int(parts[3])
        if u < 1 or v < 1:
            raise ValueError("edge endpoints are 1-based")
        return ("e", sign, u - 1, v - 1)
    if kind == "c":
        node, color = int(parts[1]), parts[2]
        if node < 1 or color not in ("W", "B"):
            raise ValueError("c token wants 1-based node and color W|B")
        return ("c", node - 1, color)
    if kind == "q":
        return ("q",)
    raise ValueError(f"unknown token kind {kind!r}")


def format_token(tok: tuple) -> str:
    """Text form of a token; UndecodableUpdate unless it parses back exactly."""
    kind = tok[0] if tok else None
    try:
        if kind == "f":
            text = f"f {tok[1] + 1} {tok[2]}"
        elif kind == "e":
            text = f"e {tok[1]} {tok[2] + 1} {tok[3] + 1}"
        elif kind == "c":
            text = f"c {tok[1] + 1} {tok[2]}"
        else:
            text = "q"
        if _parse_token(text.split()) == tok:
            return text
    except (TypeError, ValueError, IndexError):
        pass
    raise UndecodableUpdate(f"cannot format token {tok!r}")


# ---------------------------------------------------------------------------
# Verifier outputs and transcripts
# ---------------------------------------------------------------------------


class VerifierOutput(tuple):
    """A step's answer bit x and signed integer reward y.

    An immutable (x, y) tuple rather than a frozen dataclass. The constructor
    checks x and y; the verifiers here return only the six outputs of
    `OUTPUTS`, built once, so a protocol step builds none.
    """

    __slots__ = ()

    x = property(itemgetter(0))
    y = property(itemgetter(1))

    def __new__(cls, x: int, y: int):
        if x not in (0, 1):
            raise ValueError(f"x must be a bit, got {x!r}")
        if not isinstance(y, int) or isinstance(y, bool):
            raise ValueError(f"y must be a signed integer, got {y!r}")
        return tuple.__new__(cls, (x, y))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"VerifierOutput(x={self[0]!r}, y={self[1]!r})"


# OUTPUTS[x][y] for x in {0, 1} and y in {0, 1, -1}; OUTPUTS[x][-1], the
# reject output, is read through the negative index
OUTPUTS = tuple(tuple(VerifierOutput(x, y) for y in (0, 1, -1)) for x in (0, 1))


class TranscriptRecord(NamedTuple):
    step: int
    update: tuple | None
    proof: bytes | None
    output: VerifierOutput

    def to_dict(self) -> dict:
        """The report form of one step, shared by transcripts and the CLI."""
        return {
            "step": self.step,
            "update": None if self.update is None else format_token(self.update),
            "proof_hex": None if self.proof is None else self.proof.hex(),
            "x": self.output.x,
            "y": self.output.y,
        }


@dataclass
class ProofTranscript:
    records: list[TranscriptRecord] = field(default_factory=list)

    def append(self, rec: TranscriptRecord):
        self.records.append(rec)

    def __len__(self):
        return len(self.records)

    def __getitem__(self, k):
        return self.records[k]

    def answers(self) -> list[int]:
        return [r.output.x for r in self.records]

    def rewards(self) -> list[int]:
        return [r.output.y for r in self.records]

    def to_json(self) -> str:
        steps = [r.to_dict() for r in self.records]
        return json.dumps({"schema": 1, "steps": steps}, sort_keys=True)


# ---------------------------------------------------------------------------
# Probe accounting
# ---------------------------------------------------------------------------


class ProbeMeter:
    """Counts unit memory probes; optionally enforces a per-burst budget."""

    __slots__ = ("count", "budget", "_mark")

    def __init__(self, budget: int | None = None):
        self.count = 0
        self.budget = budget
        self._mark = 0

    def charge(self, k: int = 1):
        self.count += k

    def start_op(self):
        self._mark = self.count

    def end_op(self, what: str = "op"):
        used = self.count - self._mark
        if self.budget is not None and used > self.budget:
            raise BudgetExceeded(f"{what} used {used} probes, budget {self.budget}")
        return used


def polylog_budget(n: int, factor: int = 96, power: int = 1) -> int:
    """Operation budget of shape factor * (log2 n + 1)^power."""
    bits = max(1, math.ceil(math.log2(max(2, n))))
    return factor * (bits + 1) ** power


def env_budget(default: int = 200_000) -> int:
    raw = os.environ.get("DYNCX_BUDGET")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ParseError(f"DYNCX_BUDGET must be an integer, got {raw!r}") from exc


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def replay(state, stream, read) -> list:
    """read(state) before the first update and after each state.apply(token).

    Mutates `state`; pass a copy when the caller still needs the original.
    """
    out = [read(state)]
    for tok in stream:
        state.apply(tok)
        out.append(read(state))
    return out


def run_protocol(verifier_factory, prover, initial_instance, stream) -> ProofTranscript:
    """Drive a verifier/prover pair over a stream; deterministic throughout.

    The prover is asked for a proof *after* seeing the pending update but
    before the verifier consumes it, matching the proof-after-update timing.
    A prover may carry preprocessing as an optional `prover.prepare(verifier)`;
    it is called once, with the new verifier, before the first token is read.
    """
    verifier = verifier_factory(initial_instance)
    prepare = getattr(prover, "prepare", None)
    if prepare is not None:
        prepare(verifier)
    transcript = ProofTranscript()
    records = transcript.records
    records.append(TranscriptRecord(0, None, None, verifier.initial_output()))
    limit = getattr(verifier, "max_proof_len", MAX_PROOF_LEN)
    for t, tok in enumerate(stream, 1):
        proof = prover(verifier, tok)
        if not isinstance(proof, (bytes, bytearray)) or len(proof) > limit:
            raise ProofOutOfSpace(t, f"unencodable proof {proof!r}")
        proof = bytes(proof)
        records.append(TranscriptRecord(t, tok, proof, verifier.step(tok, proof)))
    return transcript


# ---------------------------------------------------------------------------
# Provers
# ---------------------------------------------------------------------------


def reward_maximizing_prover():
    """Exhaustive one-step-lookahead prover.

    Snapshots the verifier, simulates the pending step once per candidate
    proof, and returns the proof with the largest reward. Ties go to the
    earliest candidate in the space's enumeration order; spaces enumerate in
    ascending payload order, so ties break toward the smallest encoding.
    """

    def prover(verifier, token) -> bytes:
        space = list(verifier.proof_space(token))
        if not space:
            raise EmptyProofSpace("verifier published no candidate proofs")
        best_proof, best_y = None, None
        for candidate in space:
            sim = verifier.copy()
            out = sim.step(token, candidate)
            if best_y is None or out.y > best_y:
                best_proof, best_y = candidate, out.y
        return best_proof

    return prover


def constant_prover(payload: bytes = BOTTOM):
    def prover(verifier, token) -> bytes:
        return payload

    return prover


def random_prover(seed: int = 0, junk_len: int = 8, junk_rate: float = 0.25):
    """Draws a random member of the published space, or random junk bytes.

    Junk stays within the verifier's declared proof length; anything longer
    is outside the proof alphabet and the protocol would refuse to send it.
    """
    rng = random.Random(seed)

    def prover(verifier, token) -> bytes:
        space = list(verifier.proof_space(token))
        if not space or rng.random() < junk_rate:
            cap = min(junk_len, getattr(verifier, "max_proof_len", MAX_PROOF_LEN))
            return rng.randbytes(rng.randrange(cap + 1))
        return rng.choice(space)

    return prover


# ---------------------------------------------------------------------------
# Soundness fuzzing
# ---------------------------------------------------------------------------


@dataclass
class Episode:
    """One fuzz unit: an initial instance, a stream, and ground truth.

    truths[t] is the ground-truth bit after the first t updates, so
    truths[0] labels the initial instance and len(truths) == len(stream)+1.
    """

    instance: object
    stream: UpdateStream
    truths: list[int]


@dataclass(frozen=True)
class SoundnessViolation:
    trial: int
    step: int
    update: tuple | None
    proof: bytes | None


def fuzz_soundness(
    verifier_factory, episode_generator, prover_strategies, trials: int, seed: int = 0
) -> list[SoundnessViolation]:
    """Hunt for steps where ground truth says NO but the verifier said x=1.

    Soundness must hold for EVERY proof sequence, so any strategy mix is a
    legitimate attack. Returns all violations found (empty list = clean run).
    """
    rng = random.Random(seed)
    violations = []
    for trial in range(trials):
        episode = episode_generator(rng)
        prover = prover_strategies[trial % len(prover_strategies)]
        transcript = run_protocol(
            verifier_factory, prover, episode.instance, episode.stream
        )
        if len(episode.truths) != len(transcript):
            raise ValueError("episode truths must cover step 0 and every update")
        for rec, truth in zip(transcript.records, episode.truths):
            if truth == 0 and rec.output.x == 1:
                violations.append(
                    SoundnessViolation(trial, rec.step, rec.update, rec.proof)
                )
    return violations
