import functools
import re

import pytest

from poset_automata.classify import is_complete, is_partially_ordered, is_ums
from poset_automata.core import Nfa
from poset_automata.dtm import Dtm
from poset_automata.errors import InputError
from poset_automata.hardness import build_aknn, w_word
from poset_automata.universality import universal_state_mask


def reach_order(a: Nfa) -> list[set[int]]:
    """Reachability oracle: row q is the set of states reachable from q in
    zero or more steps, by a plain graph search over ``transitions``."""
    rows = []
    for q in range(a.n_states):
        seen, todo = {q}, [q]
        while todo:
            p = todo.pop()
            for (s, _x, r) in a.transitions:
                if s == p and r not in seen:
                    seen.add(r)
                    todo.append(r)
        rows.append(seen)
    return rows


def simple_nfa(n, letters, trans, initial, accepting) -> Nfa:
    """n states s0.. over the letters a1..a<letters>."""
    return Nfa(n, tuple(f"a{i + 1}" for i in range(letters)),
               tuple(trans), tuple(initial), tuple(accepting),
               tuple(f"s{i}" for i in range(n)))


def complete_with_fresh_sink(a: Nfa) -> Nfa:
    """Route every undefined (state, letter) to a new non-accepting sink."""
    sink = a.n_states
    trans = list(a.transitions) + [(sink, x, sink) for x in range(a.n_letters)]
    trans += [(q, x, sink) for q in range(a.n_states) for x in range(a.n_letters)
              if (q, x) not in a.succ]
    return Nfa(sink + 1, a.alphabet, tuple(trans), a.initial, a.accepting,
               a.state_names + ("sink",))


def is_ptnfa(a: Nfa) -> tuple[bool, dict]:
    """Complete + partially ordered + UMS; returns failures keyed by flag."""
    verdicts = (("complete", is_complete(a)), ("partially_ordered", is_partially_ordered(a)),
                ("ums", is_ums(a)))
    failures = {name: w for name, (ok, w) in verdicts if not ok}
    return not failures, failures


def reference_universal_state_mask(a: Nfa) -> int:
    """The universal-state fixpoint as one full sweep over the candidates
    after another until a sweep removes nothing, kept verbatim as the
    reference the worklist version is checked against."""
    u = a.accepting_mask
    rows = a.step_rows
    changed = True
    while changed:
        changed = False
        m = u
        while m:
            low = m & -m
            m ^= low
            q = low.bit_length() - 1
            for x in range(a.n_letters):
                if not rows[x][q] & u:
                    u &= ~low
                    changed = True
                    break
    return u


def chain_nfa(n: int, reverse: bool = False, closed: bool = False) -> Nfa:
    """Two letters over n accepting states: ``a`` moves q to q + 1 (to
    q - 1 with ``reverse``), ``b`` is a self-loop everywhere.  The end
    state of the ``a`` chain has no ``a`` arc, so no state is universal,
    unless ``closed`` gives it an ``a`` self-loop and makes them all
    universal.  The fixpoint loses one state per link of the chain."""
    step = -1 if reverse else 1
    links = range(1, n) if reverse else range(n - 1)
    trans = [(q, 0, q + step) for q in links] + [(q, 1, q) for q in range(n)]
    if closed:
        end = 0 if reverse else n - 1
        trans.append((end, 0, end))
    return Nfa(n, ("a", "b"), tuple(trans), (0,), tuple(range(n)),
               tuple(f"s{i}" for i in range(n)))


def accepts_with_cutoff(a: Nfa, word, u_mask: int | None = None) -> bool:
    """accepts() with an early accept once the frontier hits a universal
    state (the remaining suffix cannot be rejected)."""
    if u_mask is None:
        u_mask = universal_state_mask(a)
    mask = a.initial_mask
    for x in word:
        if mask & u_mask:
            return True
        mask = a.step_mask(mask, x)
        if not mask:
            return False
    return bool(mask & a.accepting_mask)


def check_suffix_rejection(k: int, n: int) -> bool:
    """For every suffix a_i w of W_{k,n}: simulating w from {(k+1;i)} must
    end outside the accepting set."""
    a = build_aknn(k, n)
    word = w_word(k, n)
    for t, letter in enumerate(word):
        frontier = 1 << a.state_index[f"({k + 1};{letter + 1})"]
        for x in word[t + 1:]:
            frontier = a.step_mask(frontier, x)
        if frontier & a.accepting_mask:
            return False
    return True


@functools.cache
def w_reference(k: int, n: int) -> tuple[int, ...]:
    """W_{k,n} straight from its recursive definition: W_{k,1} = a1^k,
    W_{1,n} = a1 .. an, W_{k,n} = W_{k,n-1} a_n W_{k-1,n}, empty if kn = 0."""
    if k == 0 or n == 0:
        return ()
    if n == 1:
        return (0,) * k
    if k == 1:
        return tuple(range(n))
    return w_reference(k, n - 1) + (n - 1,) + w_reference(k - 1, n)


def expected_next_reference(m: Dtm, pa, dl: int, dc: int, dr: int):
    """The forced successor of one window (dl, dc, dr), straight from the
    transition rules: the oracle for ``reduction.expected_next``'s rows.
    Returns a Delta id, "vacuous" (window contains $) or "impossible" (the
    machine halts in this window, a head leaving the tape included)."""
    if pa.dollar_id in (dl, dc, dr):
        return "vacuous"
    if dc == pa.hash_id:
        return pa.hash_id
    theta, marker = pa.cells[dc]
    if marker is not None:
        if marker == m.accepting:
            return dc
        rule = m.delta.get((marker, theta))
        if rule is None:
            return "impossible"
        q2, write, move = rule
        if (move, pa.hash_id) in (("L", dl), ("R", dr)):
            return "impossible"  # the head would move onto a #
        return pa.cell_id(write, q2 if move == "S" else None)
    for d, move in ((dl, "R"), (dr, "L")):
        sym, q = pa.cells[d]
        if q not in (None, m.accepting):
            rule = m.delta.get((q, sym))
            if rule is not None and rule[2] == move:
                return pa.cell_id(theta, rule[0])
    return pa.cell_id(theta, None)


def reference_simulate_dtm(m: Dtm, x, pval: int) -> tuple[str, list]:
    """The machine run by the counting bound: at most C(x)+1 steps, where
    C(x) = (|T|(|Q|+1))^p counts the configuration words, and the verdict
    "cap" when they pass without a halt.  A run of more steps than there
    are configurations repeats one and never halts, so "cap" means the run
    loops.  The oracle for ``simulate_dtm``'s repeat test, written apart
    from it: a 0-based head, the rules read from ``m.rules``, and every
    configuration kept in a list.  Returns the verdict and the
    configurations."""
    tape = list(x) + [m.blank] * (pval - len(x))
    pos, q = 0, m.initial
    rules = {(r[0], r[1]): r[2:] for r in m.rules}
    configs = [tuple(zip(tape, [None] * pos + [q] + [None] * (pval - pos - 1)))]
    for _ in range((len(m.tape_alphabet) * (len(m.states) + 1)) ** pval + 1):
        if q == m.accepting:
            break
        if (q, tape[pos]) not in rules:
            return "reject", configs
        q, tape[pos], move = rules[q, tape[pos]]
        pos += {"L": -1, "R": 1, "S": 0}[move]
        if not 0 <= pos < pval:
            return "off-tape", configs
        configs.append(tuple(zip(tape, [None] * pos + [q] + [None] * (pval - pos - 1))))
    return ("accept" if q == m.accepting else "cap"), configs


def accepting_machine() -> Dtm:
    """Enters the accepting state on the first input symbol."""
    return Dtm(states=("q0", "qf"), initial="q0", accepting="qf",
               tape_alphabet=("_", "1"), input_alphabet=("1",), blank="_",
               rules=(("q0", "1", "qf", "1", "S"), ("q0", "_", "q0", "_", "S")))


def rejecting_machine() -> Dtm:
    """Loops in place forever; never accepts."""
    return Dtm(states=("q0", "qf"), initial="q0", accepting="qf",
               tape_alphabet=("_", "1"), input_alphabet=("1",), blank="_",
               rules=(("q0", "1", "q0", "1", "S"), ("q0", "_", "q0", "_", "S")))


def incrementing_machine() -> Dtm:
    """Walks right over 1s and writes a 1 on the first blank."""
    return Dtm(states=("q0", "qf"), initial="q0", accepting="qf",
               tape_alphabet=("_", "1"), input_alphabet=("1",), blank="_",
               rules=(("q0", "1", "q0", "1", "R"), ("q0", "_", "qf", "1", "S")))


def head_moving_machine() -> Dtm:
    """Steps right, then back left into the accepting state."""
    return Dtm(states=("q0", "q1", "qf"), initial="q0", accepting="qf",
               tape_alphabet=("_", "1"), input_alphabet=("1",), blank="_",
               rules=(("q0", "1", "q1", "1", "R"),
                      ("q1", "1", "qf", "1", "L"),
                      ("q1", "_", "qf", "_", "L"),
                      ("q0", "_", "q0", "_", "S")))


@pytest.fixture
def tm_accepting():
    return accepting_machine()


@pytest.fixture
def tm_rejecting():
    return rejecting_machine()


@pytest.fixture
def tm_incrementing():
    return incrementing_machine()


# ---------------------------------------------------------------------------
# reference copies of the line-by-line text parser and the per-item
# constructor checks that the one-pass ingestion replaced


def _strip_comment(tokens: list[str]) -> list[str]:
    for i, tok in enumerate(tokens):
        if tok.startswith("#"):
            return tokens[:i]
    return tokens


def reference_parse_automaton(text: str) -> Nfa:
    """The automaton parser as it was before the one-pass parser, kept
    verbatim as the reference the differential parser test checks against."""
    directives: dict[str, list[str]] = {}
    trans_lines: list[list[str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _strip_comment(raw.split())
        if not tokens:
            continue
        head, rest = tokens[0], tokens[1:]
        if not head.endswith(":"):
            raise InputError(f"line {lineno}: expected a directive, got {head!r}")
        key = head[:-1]
        if key == "trans":
            if len(rest) != 3:
                raise InputError(f"line {lineno}: trans needs <src> <letter> <dst>")
            trans_lines.append(rest)
        elif key in ("alphabet", "states", "initial", "accepting"):
            if key in directives:
                raise InputError(f"line {lineno}: duplicate directive {key!r}")
            directives[key] = rest
        else:
            raise InputError(f"line {lineno}: unknown directive {key!r}")
    for key in ("alphabet", "states", "initial", "accepting"):
        if key not in directives:
            raise InputError(f"missing directive {key!r}")
    alphabet = tuple(directives["alphabet"])
    _reference_check_names(alphabet, "letter")
    names = tuple(directives["states"])
    letter_of = {name: x for x, name in enumerate(alphabet)}
    state_of: dict[str, int] = {}
    for i, name in enumerate(names):
        if name in state_of:
            raise InputError(f"duplicate state name {name!r}")
        state_of[name] = i

    def state(tok: str) -> int:
        if tok not in state_of:
            raise InputError(f"undeclared state {tok!r}")
        return state_of[tok]

    def letter(tok: str) -> int:
        if tok not in letter_of:
            raise InputError(f"undeclared letter {tok!r}")
        return letter_of[tok]

    trans = tuple((state(s), letter(x), state(d)) for (s, x, d) in trans_lines)
    initial = tuple(state(tok) for tok in directives["initial"])
    accepting = tuple(state(tok) for tok in directives["accepting"])
    return Nfa(len(names), alphabet, trans, initial, accepting, names)


_REFERENCE_NAME_RE = re.compile(r"[^\s#][^\s]*")


def _reference_check_names(names, kind):
    seen = set()
    for name in names:
        if not _REFERENCE_NAME_RE.fullmatch(name):
            raise InputError(f"bad {kind} name {name!r}: names are nonempty, "
                             "whitespace-free and must not start with '#'")
        if name in seen:
            raise InputError(f"duplicate {kind} name {name!r}")
        seen.add(name)


def reference_nfa_fields(n_states, alphabet, transitions, initial, accepting,
                         state_names):
    """The range checks and normalisation of ``Nfa.__post_init__``, written
    out apart from it (names by a regex, sorting by ``sorted(set(...))``),
    returning the normalised fields.  It takes integer indices only: the
    constructor's integer test has no counterpart here.  The name pattern is
    matched whole (``fullmatch``), so a name ending in a newline is rejected
    here as well."""
    if n_states <= 0:
        raise InputError("automaton needs at least one state")
    if len(state_names) != n_states:
        raise InputError("state name count does not match state count")
    _reference_check_names(state_names, "state")
    _reference_check_names(alphabet, "letter")
    n, L = n_states, len(alphabet)
    transitions = tuple(sorted(set(map(tuple, transitions))))
    for (q, a, r) in transitions:
        if not (0 <= q < n and 0 <= r < n and 0 <= a < L):
            raise InputError(f"transition {(q, a, r)} out of range")
    initial = tuple(sorted(set(initial)))
    accepting = tuple(sorted(set(accepting)))
    for q in initial + accepting:
        if not 0 <= q < n:
            raise InputError(f"state index {q} out of range")
    return (n_states, tuple(alphabet), transitions, initial, accepting,
            tuple(state_names))
