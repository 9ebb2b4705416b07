"""Representation and basic semantics of NFAs.

Text comes in on one path: ``parse_automaton`` splits each line once (the
shared ``tokenize`` drops comments), resolves names with dict lookups and
hands the columns to the ``Nfa`` constructor, which validates them with a
few whole-column tests and re-sorts transitions only when they do not come
sorted and duplicate-free already.  The slow per-item loops run only to word
an error, so a rejected text gets the same message either way.

Every search and every structural predicate reads the automaton through one
letter-major table, ``Nfa.step_rows[a][q]`` = successor bitmask of q under
a, built whole from ``transitions`` on first use; a state set is an int
bitmask (bit q set for state q).  The antichain decider packs the rows into
one column per state and steps a set under all letters at once; the other
searches step it one letter at a time with ``Nfa.step_mask``.  ``Nfa.succ``
maps (state, letter) to the successor tuple and feeds only ``accepts`` and
the literal-enumeration oracle, so that oracle shares no code with the step
table it checks.

All values are immutable after construction.  Derived tables (``succ``,
``step_rows``, the masks) are cached properties: each is a pure function of
the fields, built complete on first use and never modified afterwards.  Two
threads that race on first use build equal tables, one of which is kept, so
a value can be shared between threads.  Operations are pure functions.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import lt
from typing import Iterator, Optional, Sequence

from .caps import Caps, default_caps
from .errors import InputError, ResourceLimitError

Word = tuple[int, ...]  # letter ids

_NAME_RE = re.compile(r"[^\s#]\S*")


def _check_name(name: str, kind: str) -> None:
    if not _NAME_RE.fullmatch(name):
        raise InputError(f"bad {kind} name {name!r}: names are nonempty, whitespace-free "
                         "and must not start with '#'")


def _check_names(names: Sequence[str], kind: str) -> None:
    """Every name passes ``_check_name`` and no name repeats.  ``str.split``
    and the pattern's ``\\s`` agree on whitespace, so the names are good iff
    joining them with single spaces and splitting gives them back, no name
    starts with '#' and a set keeps them all; the loop runs only to word the
    error about the first bad name."""
    joined = " ".join(names)
    if (len(set(names)) == len(names) and joined.split() == list(names)
            and " #" not in " " + joined):
        return
    seen = set()
    for name in names:
        _check_name(name, kind)
        if name in seen:
            raise InputError(f"duplicate {kind} name {name!r}")
        seen.add(name)


def _sorted_unique(items: Sequence) -> tuple:
    """``items`` as a sorted, duplicate-free tuple; one linear test skips
    the sort when they already are."""
    items = tuple(items)
    if all(map(lt, items, items[1:])):
        return items
    return tuple(sorted(set(items)))


@dataclass(frozen=True)
class Letter:
    """One alphabet symbol: a small index plus its display name."""

    id: int
    name: str


def make_alphabet(names: Sequence[str]) -> tuple[Letter, ...]:
    _check_names(names, "letter")
    return tuple(Letter(i, n) for i, n in enumerate(names))


@dataclass(frozen=True)
class Nfa:
    """A = (Q, Sigma, transitions, I, F) with named states.

    Transitions are stored duplicate-free and sorted by (src, letter, dst).
    The searches and the structural predicates read the automaton through
    ``step_rows``, one tuple of successor bitmasks per letter indexed by
    state, most searches via ``step_mask`` (the image of one state set
    under one letter).  ``succ`` feeds only ``accepts`` and the
    literal-enumeration oracle.

    The constructor checks names, ranges and order over whole columns and
    sorts only input that is not sorted and duplicate-free already, as
    ``print_automaton`` text and ``NfaBuilder.build`` always are.
    """

    n_states: int
    alphabet: tuple[Letter, ...]
    transitions: tuple[tuple[int, int, int], ...]
    initial: tuple[int, ...]
    accepting: tuple[int, ...]
    state_names: tuple[str, ...]

    def __post_init__(self):
        if self.n_states <= 0:
            raise InputError("automaton needs at least one state")
        if len(self.state_names) != self.n_states:
            raise InputError("state name count does not match state count")
        _check_names(self.state_names, "state")
        for i, letter in enumerate(self.alphabet):
            if letter.id != i:
                raise InputError("alphabet letter ids must be 0..len-1 in order")
        n, L = self.n_states, len(self.alphabet)
        trans = _sorted_unique(map(tuple, self.transitions))
        object.__setattr__(self, "transitions", trans)
        if trans:
            if set(map(len, trans)) != {3}:
                raise InputError("transitions must be (src, letter, dst) triples")
            qs, xs, rs = zip(*trans)
            if not (0 <= min(qs) and max(qs) < n and 0 <= min(xs) and max(xs) < L
                    and 0 <= min(rs) and max(rs) < n):
                for (q, a, r) in trans:
                    if not (0 <= q < n and 0 <= r < n and 0 <= a < L):
                        raise InputError(f"transition {(q, a, r)} out of range")
        object.__setattr__(self, "initial", _sorted_unique(self.initial))
        object.__setattr__(self, "accepting", _sorted_unique(self.accepting))
        ends = self.initial + self.accepting
        if ends and not (0 <= min(ends) and max(ends) < n):
            for q in ends:
                if not 0 <= q < n:
                    raise InputError(f"state index {q} out of range")

    # -- derived lookups ------------------------------------------------

    @property
    def n_letters(self) -> int:
        return len(self.alphabet)

    @cached_property
    def succ(self) -> dict[tuple[int, int], tuple[int, ...]]:
        table: dict[tuple[int, int], list[int]] = {}
        for (q, a, r) in self.transitions:
            table.setdefault((q, a), []).append(r)
        return {k: tuple(v) for k, v in table.items()}

    @cached_property
    def initial_set(self) -> frozenset[int]:
        return frozenset(self.initial)

    @cached_property
    def accepting_set(self) -> frozenset[int]:
        return frozenset(self.accepting)

    @cached_property
    def state_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.state_names)}

    # -- bitmask view, used by the search routines ----------------------

    @cached_property
    def initial_mask(self) -> int:
        return sum(1 << q for q in self.initial)

    @cached_property
    def accepting_mask(self) -> int:
        return sum(1 << q for q in self.accepting)

    @cached_property
    def step_rows(self) -> tuple[tuple[int, ...], ...]:
        """Letter-major step table: ``step_rows[a][q]`` is the bitmask of the
        successors of state q under letter a (0 when there are none)."""
        rows = [[0] * self.n_states for _ in self.alphabet]
        for (q, a, r) in self.transitions:
            rows[a][q] |= 1 << r
        return tuple(map(tuple, rows))

    def step_mask(self, mask: int, a: int) -> int:
        """Image of the state set ``mask`` under letter a: the union of the
        step-table rows of its members."""
        row = self.step_rows[a]
        out = 0
        while mask:
            q = mask.bit_length() - 1  # highest first: mask shrinks as it goes
            out |= row[q]
            mask ^= 1 << q
        return out


@dataclass(frozen=True)
class Dfa:
    """Total deterministic automaton: one initial state and exactly one
    successor per (state, letter), ``table[q][a]``.  ``determinize`` builds
    it; ``complement`` flips its accepting set and ``to_nfa`` converts it
    back for the language routines."""

    n_states: int
    alphabet: tuple[Letter, ...]
    table: tuple[tuple[int, ...], ...]
    initial: int
    accepting: tuple[int, ...]
    state_names: tuple[str, ...]

    def __post_init__(self):
        if self.n_states <= 0:
            raise InputError("automaton needs at least one state")
        if len(self.table) != self.n_states:
            raise InputError("transition table must have one row per state")
        for row in self.table:
            if len(row) != len(self.alphabet):
                raise InputError("transition table row width must match alphabet")
            for r in row:
                if not 0 <= r < self.n_states:
                    raise InputError(f"transition target {r} out of range")
        if not 0 <= self.initial < self.n_states:
            raise InputError("initial state out of range")
        object.__setattr__(self, "accepting", tuple(sorted(set(self.accepting))))
        for q in self.accepting:
            if not 0 <= q < self.n_states:
                raise InputError(f"accepting state {q} out of range")

    @property
    def n_letters(self) -> int:
        return len(self.alphabet)

    def to_nfa(self) -> Nfa:
        trans = [(q, a, r) for q, row in enumerate(self.table) for a, r in enumerate(row)]
        return Nfa(self.n_states, self.alphabet, tuple(trans), (self.initial,),
                   self.accepting, self.state_names)


# ---------------------------------------------------------------------------
# basic semantics


def accepts(a: Nfa, word: Sequence[int]) -> bool:
    """Membership by direct simulation over ``succ``; independent of the
    step table that the searches use."""
    for x in word:
        if not 0 <= x < a.n_letters:
            raise InputError(f"letter id {x} not in alphabet of size {a.n_letters}")
    succ = a.succ
    current = set(a.initial)
    for x in word:
        current = {r for q in current for r in succ.get((q, x), ())}
        if not current:
            return False
    return bool(current & a.accepting_set)


def strongly_connected_components(a: Nfa) -> list[tuple[int, ...]]:
    """Tarjan SCCs in deterministic order (iterative)."""
    succ: dict[int, list[int]] = {q: [] for q in range(a.n_states)}
    for (q, _x, r) in a.transitions:
        if r != q:
            succ[q].append(r)
    index = {}
    low = {}
    on_stack = set()
    stack: list[int] = []
    sccs: list[tuple[int, ...]] = []
    counter = 0
    for root in range(a.n_states):
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            for i in range(pi, len(succ[node])):
                nxt = succ[node][i]
                if nxt not in index:
                    work[-1] = (node, i + 1)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(tuple(sorted(comp)))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs


# ---------------------------------------------------------------------------
# determinization and complement


def determinize(a: Nfa, caps: Caps | None = None) -> Dfa:
    """Accessible subset construction; the empty subset is kept as an explicit
    dead state so the result is always total."""
    caps = caps or default_caps()
    start = a.initial_mask
    ids: dict[int, int] = {start: 0}
    order: list[int] = [start]
    rows: list[tuple[int, ...]] = []
    queue = deque([start])
    while queue:
        subset = queue.popleft()
        row = []
        for x in range(a.n_letters):
            img = a.step_mask(subset, x)
            node = ids.get(img)
            if node is None:
                if len(ids) >= caps.det_states:
                    raise ResourceLimitError(
                        f"determinization exceeded det_states cap ({caps.det_states})")
                node = len(ids)
                ids[img] = node
                order.append(img)
                queue.append(img)
            row.append(node)
        rows.append(tuple(row))
    acc = tuple(i for i, subset in enumerate(order) if subset & a.accepting_mask)
    names = tuple("{%s}" % ",".join(a.state_names[q] for q in range(a.n_states)
                                     if subset >> q & 1) for subset in order)
    return Dfa(len(order), a.alphabet, tuple(rows), 0, acc, names)


def complement(d: Dfa) -> Dfa:
    accepting = set(d.accepting)
    acc = tuple(q for q in range(d.n_states) if q not in accepting)
    return Dfa(d.n_states, d.alphabet, d.table, d.initial, acc, d.state_names)


# ---------------------------------------------------------------------------
# bounded-language oracles


def _coaccessible_mask(a: Nfa) -> int:
    pred: dict[int, set[int]] = {}
    for (q, _x, r) in a.transitions:
        pred.setdefault(r, set()).add(q)
    mask = a.accepting_mask
    queue = deque(a.accepting)
    seen = set(a.accepting)
    while queue:
        r = queue.popleft()
        for q in pred.get(r, ()):
            if q not in seen:
                seen.add(q)
                mask |= 1 << q
                queue.append(q)
    return mask


def enumerate_language(a: Nfa, max_len: int, caps: Caps | None = None) -> list[Word]:
    """All accepted words of length <= max_len, in length-then-lexicographic
    order by letter id.  Walks the prefix tree, pruning prefixes whose state
    set cannot reach acceptance."""
    caps = caps or default_caps()
    if max_len < 0:
        raise InputError("max_len must be nonnegative")
    if max_len > caps.enum_len:
        raise ResourceLimitError(f"enumeration length {max_len} exceeds enum_len cap "
                                 f"({caps.enum_len})")
    coacc = _coaccessible_mask(a)
    acc = a.accepting_mask
    out: list[Word] = []
    level: list[tuple[Word, int]] = [((), a.initial_mask & coacc)]
    visited_nodes = 0
    for length in range(max_len + 1):
        nxt: list[tuple[Word, int]] = []
        for word, mask in level:
            visited_nodes += 1
            if visited_nodes > caps.enum_nodes:
                raise ResourceLimitError(f"enumeration exceeded enum_nodes cap "
                                         f"({caps.enum_nodes})")
            if mask & acc:
                out.append(word)
            if length == max_len:
                continue
            for x in range(a.n_letters):
                img = a.step_mask(mask, x) & coacc
                if img:
                    nxt.append((word + (x,), img))
        level = nxt
    return out


def language_equal_bounded(a: Nfa, b: Nfa, max_len: int,
                           caps: Caps | None = None) -> Optional[Word]:
    """First (length-lex) word of length <= max_len on which the two languages
    differ, or None.  Synchronized subset search with dedup."""
    caps = caps or default_caps()
    if a.alphabet != b.alphabet:
        raise InputError("operands must share an identical alphabet")
    if max_len < 0:
        raise InputError("max_len must be nonnegative")
    if max_len > caps.enum_len:
        raise ResourceLimitError(f"bounded comparison length {max_len} exceeds enum_len "
                                 f"cap ({caps.enum_len})")
    start = (a.initial_mask, b.initial_mask)
    seen = {start}
    level = [((), start)]
    nodes = 0
    for length in range(max_len + 1):
        nxt = []
        for word, (ma, mb) in level:
            nodes += 1
            if nodes > caps.enum_nodes:
                raise ResourceLimitError(f"bounded comparison exceeded enum_nodes cap "
                                         f"({caps.enum_nodes})")
            if bool(ma & a.accepting_mask) != bool(mb & b.accepting_mask):
                return word
            if length == max_len:
                continue
            for x in range(a.n_letters):
                pair = (a.step_mask(ma, x), b.step_mask(mb, x))
                if pair not in seen:
                    seen.add(pair)
                    nxt.append((word + (x,), pair))
        level = nxt
    return None


# ---------------------------------------------------------------------------
# text format


_COMMENT_RE = re.compile(r"(?:^|\s)#")  # a token that starts with '#'


def tokenize(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """The line tokenizer of every text format: (line number, raw line,
    tokens) for each line that keeps a token once the first token starting
    with '#' has cut off the rest of its line.  Each line is split once."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            comment = _COMMENT_RE.search(raw)
            tokens = (raw[:comment.start()] if comment else raw).split()
        else:
            tokens = raw.split()
        if tokens:
            yield lineno, raw, tokens


_DIRECTIVES = ("alphabet", "states", "initial", "accepting")


def parse_automaton(text: str) -> Nfa:
    """Parse the line-oriented automaton format (see print_automaton)."""
    directives: dict[str, list[str]] = {}
    trans_lines: list[list[str]] = []
    for lineno, _raw, tokens in tokenize(text):
        head = tokens[0]
        if head == "trans:" and len(tokens) == 4:
            trans_lines.append(tokens)
            continue
        if not head.endswith(":"):
            raise InputError(f"line {lineno}: expected a directive, got {head!r}")
        key = head[:-1]
        if key == "trans":
            raise InputError(f"line {lineno}: trans needs <src> <letter> <dst>")
        if key not in _DIRECTIVES:
            raise InputError(f"line {lineno}: unknown directive {key!r}")
        if key in directives:
            raise InputError(f"line {lineno}: duplicate directive {key!r}")
        directives[key] = tokens[1:]
    for key in _DIRECTIVES:
        if key not in directives:
            raise InputError(f"missing directive {key!r}")
    alphabet = make_alphabet(directives["alphabet"])
    names = tuple(directives["states"])
    letter_of = {l.name: l.id for l in alphabet}
    state_of = {name: i for i, name in enumerate(names)}
    if len(state_of) != len(names):
        _check_names(names, "state")  # words the duplicate before any lookup fails
    try:
        trans = [(state_of[s], letter_of[x], state_of[d]) for (_, s, x, d) in trans_lines]
        initial = [state_of[tok] for tok in directives["initial"]]
        accepting = [state_of[tok] for tok in directives["accepting"]]
    except KeyError:
        _undeclared(trans_lines, directives, state_of, letter_of)
        raise  # not reached: _undeclared finds the name the lookup missed
    return Nfa(len(names), alphabet, trans, initial, accepting, names)


def _undeclared(trans_lines, directives, state_of, letter_of) -> None:
    """Raise about the first undeclared name, in the order the names are
    resolved: each trans line's source, letter and target, then the
    initial and the accepting states."""
    for (_, s, x, d) in trans_lines:
        for tok, table, kind in ((s, state_of, "state"), (x, letter_of, "letter"),
                                 (d, state_of, "state")):
            if tok not in table:
                raise InputError(f"undeclared {kind} {tok!r}")
    for tok in directives["initial"] + directives["accepting"]:
        if tok not in state_of:
            raise InputError(f"undeclared state {tok!r}")


def print_automaton(a: Nfa, header: Sequence[str] = ()) -> str:
    """Canonical serialization: fixed directive order, names in declared
    order, transitions sorted by (src, letter, dst)."""
    lines = [f"# {h}" for h in header]
    lines.append(("alphabet: " + " ".join(l.name for l in a.alphabet)).rstrip())
    lines.append("states: " + " ".join(a.state_names))
    lines.append(("initial: " + " ".join(a.state_names[q] for q in a.initial)).rstrip())
    lines.append(("accepting: " + " ".join(a.state_names[q] for q in a.accepting)).rstrip())
    for (q, x, r) in a.transitions:
        lines.append(f"trans: {a.state_names[q]} {a.alphabet[x].name} {a.state_names[r]}")
    return "\n".join(lines) + "\n"


def format_word(a: Nfa, word: Sequence[int]) -> str:
    return " ".join(a.alphabet[x].name for x in word)
