"""Deterministic Turing machines on a bounded tape.

The machine description mirrors the reduction's needs: a distinguished
accepting state with no outgoing rules, a blank outside the input alphabet,
state and tape-symbol names that are good automaton names (the reduction
spells them into its letters), and an explicit space bound supplied per
run.  A head that leaves the tape halts the run without accepting, as in
the reduction; ``simulate_dtm`` reports it as the verdict "off-tape".  A
run that comes back to a configuration it has been in never halts;
``simulate_dtm`` stops at the repeat with the verdict "loop".
Configurations are recorded as tuples of (tape symbol, state-or-None)
cells, the marker sitting under the head.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import _check_names, derived, tokenize
from .errors import InputError

MOVES = {"L": -1, "R": 1, "S": 0}  # each move's head offset

Cell = tuple[str, Optional[str]]
Config = tuple[Cell, ...]


@dataclass(frozen=True)
class Dtm:
    states: tuple[str, ...]
    initial: str
    accepting: str
    tape_alphabet: tuple[str, ...]
    input_alphabet: tuple[str, ...]
    blank: str
    rules: tuple[tuple[str, str, str, str, str], ...]  # (q, read, q', write, move)

    def __post_init__(self):
        # tuples first, each rule too, so list arguments compare and hash alike
        states, tape = tuple(self.states), tuple(self.tape_alphabet)
        inputs, rules = tuple(self.input_alphabet), tuple(map(tuple, self.rules))
        if any(len(rule) != 5 for rule in rules):
            raise InputError("rules must be (q, read, q', write, move) 5-tuples")
        if len(set(states)) != len(states):
            raise InputError("duplicate machine states")
        if len(set(tape)) != len(tape):
            raise InputError("duplicate tape symbols")
        _check_names(states, "machine state")
        _check_names(tape, "tape symbol")
        if self.initial not in states or self.accepting not in states:
            raise InputError("initial/accepting must be declared states")
        if self.initial == self.accepting:
            raise InputError("initial and accepting states must differ")
        if not set(inputs) <= set(tape):
            raise InputError("input alphabet must be part of the tape alphabet")
        if self.blank not in tape or self.blank in inputs:
            raise InputError("blank must be a tape symbol outside the input alphabet")
        seen = set()
        for (q, read, q2, write, move) in rules:
            if q not in states or q2 not in states:
                raise InputError(f"rule references unknown state: {q} -> {q2}")
            if read not in tape or write not in tape:
                raise InputError(f"rule references unknown symbol: {read} -> {write}")
            if move not in MOVES:
                raise InputError(f"rule move must be one of {tuple(MOVES)}, got {move!r}")
            if q == self.accepting:
                raise InputError("the accepting state has no outgoing rules")
            if (q, read) in seen:
                raise InputError(f"duplicate rule for ({q}, {read})")
            seen.add((q, read))
        vars(self).update(states=states, tape_alphabet=tape, input_alphabet=inputs,
                          rules=tuple(sorted(rules)))

    @derived
    def delta(self) -> dict[tuple[str, str], tuple[str, str, str]]:
        return {(q, read): (q2, write, move) for (q, read, q2, write, move) in self.rules}


@dataclass(frozen=True)
class RunRecord:
    verdict: str          # "accept" | "reject" | "off-tape" | "loop"
    configs: tuple[Config, ...]


def check_run_args(m: Dtm, x: Sequence[str], pval: int) -> None:
    """The input fits a pval-cell tape (pval >= 1) and uses only input
    symbols of m."""
    if pval < 1:
        raise InputError("space bound must be at least 1")
    if len(x) > pval:
        raise InputError(f"input length {len(x)} exceeds space bound {pval}")
    for sym in x:
        if sym not in m.input_alphabet:
            raise InputError(f"input symbol {sym!r} not in the input alphabet")


def simulate_dtm(m: Dtm, x: Sequence[str], pval: int) -> RunRecord:
    """Deterministic simulation on a pval-cell tape (cells 1..pval).

    Verdicts: "accept" once the accepting state is entered, "reject" when no
    rule applies, "off-tape" when the head leaves the tape (``configs`` ends
    before that move), "loop" when a configuration comes round again
    (``configs`` ends before the repeat).  A pval-cell tape has finitely
    many configurations, so every run ends in one of these.
    """
    check_run_args(m, x, pval)
    tape = list(x) + [m.blank] * (pval - len(x))
    head = 1
    state = m.initial

    def config() -> Config:
        return tuple((sym, state if i + 1 == head else None)
                     for i, sym in enumerate(tape))

    configs = {config(): None}  # insertion-ordered, and a set for the repeat test
    while state != m.accepting:
        rule = m.delta.get((state, tape[head - 1]))
        if rule is None:
            return RunRecord("reject", tuple(configs))
        state, tape[head - 1], move = rule
        head += MOVES[move]
        if not 1 <= head <= pval:
            return RunRecord("off-tape", tuple(configs))
        cfg = config()
        if cfg in configs:
            return RunRecord("loop", tuple(configs))
        configs[cfg] = None
    return RunRecord("accept", tuple(configs))


def parse_dtm(text: str) -> Dtm:
    """Line format: states:/initial:/accepting:/tape:/input:/blank: once each
    and repeated ``delta: q a -> q' b D`` lines with D in {L,R,S}."""
    single: dict[str, list[str]] = {}
    rules: list[tuple[str, str, str, str, str]] = []
    for lineno, _raw, tokens in tokenize(text):
        head, rest = tokens[0], tokens[1:]
        if head == "delta:":
            if len(rest) != 6 or rest[2] != "->":
                raise InputError(f"line {lineno}: delta needs `q a -> q' b D`")
            rules.append((rest[0], rest[1], rest[3], rest[4], rest[5]))
        elif head in ("states:", "initial:", "accepting:", "tape:", "input:", "blank:"):
            key = head[:-1]
            if key in single:
                raise InputError(f"line {lineno}: duplicate directive {key!r}")
            single[key] = rest
        else:
            raise InputError(f"line {lineno}: unknown directive {head!r}")
    for key in ("states", "initial", "accepting", "tape", "blank"):
        if key not in single:
            raise InputError(f"missing directive {key!r}")
    for key in ("initial", "accepting", "blank"):
        if len(single[key]) != 1:
            raise InputError(f"directive {key!r} needs exactly one name")
    return Dtm(states=tuple(single["states"]),
               initial=single["initial"][0],
               accepting=single["accepting"][0],
               tape_alphabet=tuple(single["tape"]),
               input_alphabet=tuple(single.get("input", ())),
               blank=single["blank"][0],
               rules=tuple(rules))
