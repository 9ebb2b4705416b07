"""Representation and basic semantics of NFAs.

An automaton comes in through one of two doors, by who made its indices.
Outside values go through the ``Nfa`` constructor, which checks each item
once: the state count and every index must be integers (``operator.index``),
every name good and unique, every index in range.  The package's own makers
build through ``Nfa._build``, which checks nothing: ``parse_automaton``
resolves every index by a dict lookup after text checks that imply the
constructor's, and the generators (``build_aknn``, ``trim_aknn``,
``dag_gadget``, the reduction, ``sampling``) make their index triples and
names themselves; the reduction's pair letters, which embed the machine's
names, are checked where ``PairAlphabet`` spells them.
``tests/test_constructors.py`` rebuilds each maker's output through the
constructor and compares.

Text is read in bulk: one compiled pattern, ``_COMMENT``, owns the comment
rule and cuts every comment in one pass over the whole text; all lines are
split at once, the directives and ``trans:`` rows checked over whole
columns, names resolved with dict lookups.  Only a text that fails the bulk
check runs the per-line loop (``tokenize``, which cuts by the same
pattern), and only a repeated name runs ``_check_names``, to word the
error; so a rejected text gets the same message either way.

Every search and every structural predicate reads the automaton through one
letter-major table, ``Nfa.step_rows[a][q]`` = successor bitmask of q under
a, built whole from ``transitions`` on first use; a state set is an int
bitmask (bit q set for state q).  The antichain decider packs the rows into
one column per state and ORs a set's columns once, when it keeps the set;
the same columns name the letters that lead into a universal state, and
only the others are stepped.  The other searches step a set one letter at a
time with ``Nfa.step_mask``, and the class tests OR a state's entries over
letters into one successor mask.  ``Nfa.succ`` maps (state, letter) to the
successor tuple and feeds only ``accepts`` and the literal-enumeration
oracle, so that oracle shares no code with the step table it checks.

All values are immutable after construction.  Derived tables (``succ``,
``step_rows``, the masks) are ``derived`` attributes: each is a pure
function of the fields, built complete on first use, without a lock, and
never modified afterwards.  Two threads that race on first use build equal
tables, one of which is kept, so a value can be shared between threads.
Operations are pure functions of their arguments and of the
POSET_AUTOMATA_CAPS environment variable, which sets the resource caps (see
``caps``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import index, lt
from typing import Iterator, Sequence

from .errors import InputError

Word = tuple[int, ...]  # letter ids


def _check_names(names: Sequence[str], kind: str) -> None:
    """Every name is a nonempty, whitespace-free str that does not start
    with '#', and no name repeats.  As ``parse_automaton`` reads names, a
    name is good iff ``str.split`` gives it back and it does not start with
    '#'."""
    seen = set()
    for name in names:
        if not isinstance(name, str) or name.split() != [name] or name[0] == "#":
            raise InputError(f"bad {kind} name {name!r}: names are nonempty, whitespace-free "
                             "and must not start with '#'")
        if name in seen:
            raise InputError(f"duplicate {kind} name {name!r}")
        seen.add(name)


def sorted_unique(items: Sequence) -> tuple:
    """``items`` as a sorted, duplicate-free tuple, sorted at most once.  One
    linear test skips the sort when the items already are; otherwise the
    sort sees them in their given order, so it can use the sorted runs that
    generators emit, and the same test on its result returns it when it is
    strictly ascending.  Only a repeat, left adjacent by the sort, sends the
    items to ``dict.fromkeys``."""
    items = tuple(items)
    if all(map(lt, items, items[1:])):
        return items
    items = sorted(items)
    if all(map(lt, items, items[1:])):
        return tuple(items)
    return tuple(dict.fromkeys(items))


class derived:
    """``functools.cached_property`` without the lock that Python 3.11 takes
    on each first read: the value goes straight into the instance
    ``__dict__``, where later reads find it before this non-data descriptor.
    Threads that race on a first read compute equal values; the last one
    written is kept."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class Nfa:
    """A = (Q, Sigma, transitions, I, F) with named states.

    Transitions are stored duplicate-free and sorted by (src, letter, dst).
    The searches and the structural predicates read the automaton through
    ``step_rows``, one tuple of successor bitmasks per letter indexed by
    state, most searches via ``step_mask`` (the image of one state set
    under one letter).  ``succ`` feeds only ``accepts`` and the
    literal-enumeration oracle.

    Letter x is ``alphabet[x]``, a name.  The constructor is the public
    way to make an Nfa, and checks every item once: the state count and
    each index are taken through ``operator.index`` (a wrong shape or type
    raises ``InputError``), the names through ``_check_names``, and every
    index must lie in range.  ``_build`` is the package's trusted door: it
    normalises the index columns with ``sorted_unique`` and writes the
    fields, without a check, for callers that made every index themselves.
    Either door gives the same value, equality and hash.
    """

    n_states: int
    alphabet: tuple[str, ...]
    transitions: tuple[tuple[int, int, int], ...]
    initial: tuple[int, ...]
    accepting: tuple[int, ...]
    state_names: tuple[str, ...]

    def __post_init__(self):
        try:
            n = index(self.n_states)
        except TypeError:
            raise InputError("state count must be an integer") from None
        if n <= 0:
            raise InputError("automaton needs at least one state")
        names, alphabet = tuple(self.state_names), tuple(self.alphabet)
        if len(names) != n:
            raise InputError("state name count does not match state count")
        _check_names(names, "state")
        _check_names(alphabet, "letter")
        try:  # a wrong length fails the unpacking, a non-integer ``index``
            trans = sorted_unique((index(q), index(x), index(r)) for (q, x, r) in self.transitions)
            initial, accepting = (sorted_unique(map(index, qs))
                                  for qs in (self.initial, self.accepting))
        except (TypeError, ValueError):
            raise InputError("transitions must be (src, letter, dst) triples, and every index "
                             "an integer") from None
        for (q, x, r) in trans:
            if not (0 <= q < n and 0 <= r < n and 0 <= x < len(alphabet)):
                raise InputError(f"transition {(q, x, r)} out of range")
        for q in initial + accepting:
            if not 0 <= q < n:
                raise InputError(f"state index {q} out of range")
        vars(self).update(vars(Nfa._build(n, alphabet, trans, initial, accepting, names)))

    @classmethod
    def _build(cls, n_states, alphabet, transitions, initial, accepting, state_names) -> Nfa:
        """The Nfa with these fields, unchecked: the caller made every index
        and name, and passes ``alphabet`` and ``state_names`` as tuples."""
        a = object.__new__(cls)
        vars(a).update(n_states=n_states, alphabet=alphabet,
                       transitions=sorted_unique(transitions), initial=sorted_unique(initial),
                       accepting=sorted_unique(accepting), state_names=state_names)
        return a

    # -- derived lookups ------------------------------------------------

    @property
    def n_letters(self) -> int:
        return len(self.alphabet)

    @derived
    def succ(self) -> dict[tuple[int, int], tuple[int, ...]]:
        table: dict[tuple[int, int], list[int]] = {}
        for (q, a, r) in self.transitions:
            table.setdefault((q, a), []).append(r)
        return {k: tuple(v) for k, v in table.items()}

    @derived
    def state_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.state_names)}

    # -- bitmask view, used by the search routines ----------------------

    @derived
    def initial_mask(self) -> int:
        return sum(1 << q for q in self.initial)

    @derived
    def accepting_mask(self) -> int:
        return sum(1 << q for q in self.accepting)

    @derived
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


# ---------------------------------------------------------------------------
# basic semantics


def _check_word(a: Nfa, word: Sequence[int]) -> None:
    """Every letter id of ``word`` is an integer by the constructor's rule
    (``operator.index``, so 1.0 and '1' are refused, True is 1) and names a
    letter of ``a``."""
    letters = range(a.n_letters)
    for x in word:
        try:
            ok = index(x) in letters
        except TypeError:
            ok = False
        if not ok:
            raise InputError(f"letter id {x!r} not in alphabet of size {a.n_letters}")


def accepts(a: Nfa, word: Sequence[int]) -> bool:
    """Membership by direct simulation over ``succ``; independent of the
    step table that the searches use."""
    _check_word(a, word)
    succ = a.succ
    current = set(a.initial)
    for x in word:
        current = {r for q in current for r in succ.get((q, x), ())}
        if not current:
            return False
    return not current.isdisjoint(a.accepting)


# ---------------------------------------------------------------------------
# text format


# The one comment rule: a '#' that starts a token opens a comment to the end
# of its line; a '#' inside a token, as in the pair letter ``(a1,#)``, does
# not.  ``\S`` and ``str.split`` agree on whitespace, and the class is the
# set of breaks at which ``str.splitlines`` ends a line.
_COMMENT = re.compile(r"#(?<!\S#)[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*")


def tokenize(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """The line tokenizer of every text format: (line number, raw line,
    tokens) for each line that keeps a token once ``_COMMENT`` has cut its
    comment off.  Each line is cut and split once."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _COMMENT.sub("", raw).split()
        if tokens:
            yield lineno, raw, tokens


_DIRECTIVES = ("alphabet", "states", "initial", "accepting")
_HEADS = {key + ":" for key in _DIRECTIVES}


def parse_automaton(text: str) -> Nfa:
    """Parse the line-oriented automaton format (see print_automaton).

    The text is read in bulk: ``_COMMENT`` cuts every comment in one pass
    over the whole text (when it holds a '#'), all lines are split at once,
    and the structure is checked over whole columns (the four directives,
    each once, and four tokens in every ``trans:`` row).  A text that fails
    this check goes through the ``tokenize`` loop of ``_misformatted``,
    which cuts comments by the same pattern line by line and reports the
    first fault with its line number.

    The text checks imply the ``Nfa`` constructor's, so the automaton is
    made by ``Nfa._build`` and not checked again.  A token from
    ``str.split`` is nonempty and whitespace-free, and none starts with '#'
    once comments are cut, so a repeat, which shows as a shorter dict, is
    the only fault a name can have.  Every triple is built here from dict
    lookups, so its indices are in range, and ``_build`` normalises the
    index columns.  Only the state count is left to check, after the
    lookups as in the constructor."""
    cut = _COMMENT.sub("", text) if "#" in text else text
    rows = list(filter(None, map(str.split, cut.splitlines())))
    trans_lines = [row for row in rows if row[0] == "trans:"]
    heads = {row[0]: row[1:] for row in rows if row[0] != "trans:"}
    if not (len(rows) - len(trans_lines) == len(heads) and heads.keys() == _HEADS
            and set(map(len, trans_lines)) <= {4}):
        _misformatted(text)
        raise AssertionError("the line loop passed a text the bulk check refused")
    alphabet = tuple(heads["alphabet:"])
    letter_of = {name: x for x, name in enumerate(alphabet)}
    if len(letter_of) != len(alphabet):
        _check_names(alphabet, "letter")  # a repeated letter is reported before a bad state
    names = tuple(heads["states:"])
    state_of = {name: i for i, name in enumerate(names)}
    if len(state_of) != len(names):
        _check_names(names, "state")  # words the duplicate before any lookup fails
    try:
        trans = [(state_of[s], letter_of[x], state_of[d]) for (_, s, x, d) in trans_lines]
        initial = [state_of[tok] for tok in heads["initial:"]]
        accepting = [state_of[tok] for tok in heads["accepting:"]]
    except KeyError:
        _undeclared(trans_lines, heads["initial:"] + heads["accepting:"], state_of, letter_of)
        raise  # not reached: _undeclared finds the name the lookup missed
    if not names:
        raise InputError("automaton needs at least one state")
    return Nfa._build(len(names), alphabet, trans, initial, accepting, names)


def _misformatted(text: str) -> None:
    """Raise about the first line that breaks the format, read line by line,
    or else about the first missing directive."""
    seen = set()
    for lineno, _raw, tokens in tokenize(text):
        head = tokens[0]
        if head == "trans:" and len(tokens) == 4:
            continue
        if not head.endswith(":"):
            raise InputError(f"line {lineno}: expected a directive, got {head!r}")
        key = head[:-1]
        if key == "trans":
            raise InputError(f"line {lineno}: trans needs <src> <letter> <dst>")
        if key not in _DIRECTIVES:
            raise InputError(f"line {lineno}: unknown directive {key!r}")
        if key in seen:
            raise InputError(f"line {lineno}: duplicate directive {key!r}")
        seen.add(key)
    for key in _DIRECTIVES:
        if key not in seen:
            raise InputError(f"missing directive {key!r}")


def _undeclared(trans_lines, ends, state_of, letter_of) -> None:
    """Raise about the first undeclared name, in the order the names are
    resolved: each trans line's source, letter and target, then the
    initial and the accepting states (``ends``)."""
    for (_, s, x, d) in trans_lines:
        for tok, table, kind in ((s, state_of, "state"), (x, letter_of, "letter"),
                                 (d, state_of, "state")):
            if tok not in table:
                raise InputError(f"undeclared {kind} {tok!r}")
    for tok in ends:
        if tok not in state_of:
            raise InputError(f"undeclared state {tok!r}")


def print_automaton(a: Nfa, header: Sequence[str] = ()) -> str:
    """Canonical serialization: fixed directive order, names in declared
    order, transitions sorted by (src, letter, dst)."""
    lines = [f"# {h}" for h in header]
    names = (a.alphabet, a.state_names, [a.state_names[q] for q in a.initial],
             [a.state_names[q] for q in a.accepting])
    lines += [" ".join((key + ":", *row)) for key, row in zip(_DIRECTIVES, names)]
    for (q, x, r) in a.transitions:
        lines.append(f"trans: {a.state_names[q]} {a.alphabet[x]} {a.state_names[r]}")
    return "\n".join(lines) + "\n"


def format_word(a: Nfa, word: Sequence[int]) -> str:
    _check_word(a, word)
    return " ".join(a.alphabet[x] for x in word)
