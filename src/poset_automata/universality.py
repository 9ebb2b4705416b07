"""Universality deciders: does the automaton accept every word over its
alphabet?

Class-specialized procedures (constant-time for saturated poNFAs, a pumping
check for unary poNFAs) plus a general antichain search; a plain
subset-construction BFS and literal word enumeration serve as independent
oracles.  All searches are deterministic: BFS with letters in ascending id
order, so reported counterexamples are the length-lexicographically first.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .caps import Caps, default_caps
from .classify import is_partially_ordered, is_saturated
from .core import Nfa, Word, format_word
from .errors import InputError, ResourceLimitError

@dataclass(frozen=True)
class UniversalityResult:
    universal: bool
    counterexample: Optional[Word]
    method: str
    explored: int
    max_frontier: int


def universal_sponfa(a: Nfa) -> UniversalityResult:
    """Saturated poNFAs accept everything iff some initial state is
    accepting (then its all-letter self-loops carry every word)."""
    saturated, _ = is_saturated(a)
    if not saturated:
        raise InputError("spoNFA decider requires a saturated automaton")
    return _sponfa_constant(a)


def _sponfa_constant(a: Nfa) -> UniversalityResult:
    if a.initial_set & a.accepting_set:
        return UniversalityResult(True, None, "spoNFA-constant", 0, 0)
    return UniversalityResult(False, (), "spoNFA-constant", 0, 0)


def universal_unary_po(a: Nfa) -> UniversalityResult:
    """Unary partially ordered NFAs: accepting a^m for all m <= |Q| implies
    universality, because an accepting run of a^|Q| repeats a state, the
    repeat is a self-loop in a partially ordered automaton, and pumping it
    covers every longer length."""
    if a.n_letters != 1:
        raise InputError("unary decider requires a one-letter alphabet")
    po, _ = is_partially_ordered(a)
    if not po:
        raise InputError("unary decider requires a partially ordered automaton")
    return _unary_pumping(a)


def _unary_pumping(a: Nfa) -> UniversalityResult:
    mask = a.initial_mask
    acc = a.accepting_mask
    for m in range(a.n_states + 1):
        if not mask & acc:
            return UniversalityResult(False, (0,) * m, "unary-pumping", m, 1)
        mask = a.step_mask(mask, 0)
    return UniversalityResult(True, None, "unary-pumping", a.n_states + 1, 1)


def _reconstruct(parents: dict[int, tuple[int, int]], mask: int) -> Word:
    word: list[int] = []
    while parents[mask] is not None:
        mask, letter = parents[mask][0], parents[mask][1]
        word.append(letter)
    return tuple(reversed(word))


def universal_state_mask(a: Nfa) -> int:
    """States q with L(q) = Sigma^* for the provable-by-closure reason:
    q is accepting and every letter keeps some such state reachable
    (greatest fixpoint).  A subset containing one accepts every word, so
    searches may discard it; the approximation is sound, not complete."""
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


def universal_antichain(a: Nfa, caps: Caps | None = None) -> UniversalityResult:
    """BFS over subset-construction states that skips every new image
    containing an already kept subset.  Skipping a superset is sound: the
    smaller kept set reaches a rejecting subset whenever the larger one does,
    no later.

    A node's images under all letters come from one OR of packed columns:
    ``col[q]`` holds the successor masks of q under letters 0, 1, ... side
    by side, |Q| bits apart, so letter x's image is one shift and mask.

    Domination is answered by an inverted index.  Kept set i is bit i of
    ``all_kept`` and of ``has[q]`` for each of its members q; ``order``
    lists the support, the states of some kept set.  A kept v lies inside
    the support, so v <= img iff no member of v is a support state outside
    img, and the kept sets with such a member are the OR of ``has[q]`` over
    those states.  So img is dominated iff that OR leaves a bit of
    ``all_kept`` unset.  The test is exact, whatever the order of the
    states: the OR may stop once it covers ``all_kept``, and ``order``
    puts the states of the most kept sets first (re-sorted whenever the
    kept count doubles) so that it stops sooner.
    Kept supersets of a newly kept set are not removed: each still contains
    a kept set, so "some kept v <= img" has the same answer with or without
    them, and the queue, ``parents``, the counts and the counterexample are
    those of a search that keeps only the subset-minimal sets.

    ``col[q]`` is built when q first turns up in a popped set, so a search
    that stops at its first node pays only for the start set's columns.
    ``col`` holds |Sigma|*|Q|^2 bits at most, as many as ``Nfa.step_rows``;
    ``has`` holds |Q| bits per kept set, no more than the kept sets
    themselves take as keys of ``parents`` (see ``caps``)."""
    caps = caps or default_caps()
    acc = a.accepting_mask
    start = a.initial_mask
    parents: dict[int, Optional[tuple[int, int]]] = {start: None}
    if not start & acc:
        return UniversalityResult(False, (), "antichain", 0, 0)
    u_mask = universal_state_mask(a)
    if start & u_mask:
        return UniversalityResult(True, None, "antichain", 0, 0)
    n = a.n_states
    full = (1 << n) - 1
    rows = tuple(zip(range(0, a.n_letters * n, n), a.step_rows))  # (shift, row) per letter
    col = [0] * n
    built = 0  # the states whose column is filled
    has = [0] * n
    order = []  # the support; sorted by kept sets held each time `kept` doubles
    m = start
    while m:
        q = m.bit_length() - 1
        m ^= 1 << q
        has[q] = 1
        order.append(q)
    all_kept = 1
    kept = 1
    resort = 2
    queue = deque([start])
    explored = 0
    max_frontier = 1
    while queue:
        mask = queue.popleft()
        explored += 1
        if explored > caps.antichain_nodes:
            raise ResourceLimitError(
                f"antichain search exceeded antichain_nodes cap ({caps.antichain_nodes})")
        m = mask & ~built
        built |= m
        while m:
            q = m.bit_length() - 1
            m ^= 1 << q
            c = 0
            for shift, row in rows:
                c |= row[q] << shift
            col[q] = c
        packed = 0
        m = mask
        while m:
            q = m.bit_length() - 1
            m ^= 1 << q
            packed |= col[q]
        for x, (shift, _) in enumerate(rows):
            img = packed >> shift & full
            if img in parents:
                continue
            parents[img] = (mask, x)
            if not img & acc:
                word = _reconstruct(parents, img)
                return UniversalityResult(False, word, "antichain", explored, max_frontier)
            if img & u_mask:
                continue  # a universal member: no rejecting subset below it
            hit = 0  # kept sets with a member outside img
            for q in order:
                if not img >> q & 1:
                    hit |= has[q]
                    if hit == all_kept:
                        break
            else:
                continue  # some kept set lies inside img
            bit = 1 << kept
            m = img
            while m:
                q = m.bit_length() - 1
                m ^= 1 << q
                if not has[q]:
                    order.append(q)
                has[q] |= bit
            all_kept |= bit
            kept += 1
            if kept == resort:
                resort *= 2
                order.sort(key=lambda q: has[q].bit_count(), reverse=True)
            queue.append(img)
            max_frontier = max(max_frontier, len(queue))
    return UniversalityResult(True, None, "antichain", explored, max_frontier)


def universal_subset(a: Nfa, caps: Caps | None = None) -> UniversalityResult:
    """Plain subset-construction BFS with exact deduplication; complete
    because the subset space is finite (any rejected word has a rejected
    representative shorter than 2^|Q|).  Used as the oracle the antichain
    decider is validated against."""
    caps = caps or default_caps()
    acc = a.accepting_mask
    start = a.initial_mask
    parents: dict[int, Optional[tuple[int, int]]] = {start: None}
    if not start & acc:
        return UniversalityResult(False, (), "subset", 0, 0)
    queue = deque([start])
    explored = 0
    max_frontier = 1
    while queue:
        mask = queue.popleft()
        explored += 1
        if explored > caps.antichain_nodes:
            raise ResourceLimitError(
                f"subset search exceeded antichain_nodes cap ({caps.antichain_nodes})")
        for x in range(a.n_letters):
            img = a.step_mask(mask, x)
            if img in parents:
                continue
            parents[img] = (mask, x)
            if not img & acc:
                word = _reconstruct(parents, img)
                return UniversalityResult(False, word, "subset", explored, max_frontier)
            queue.append(img)
            max_frontier = max(max_frontier, len(queue))
    return UniversalityResult(True, None, "subset", explored, max_frontier)


def _word_at(index: int, length: int, n_letters: int) -> Word:
    """The word at ``index`` among the words of ``length`` in lex order:
    ``index`` written in base ``n_letters`` with ``length`` digits."""
    word = []
    for _ in range(length):
        index, x = divmod(index, n_letters)
        word.append(x)
    return tuple(reversed(word))


def universal_brute(a: Nfa, max_len: int, caps: Caps | None = None) -> UniversalityResult:
    """Literal enumeration of every word up to max_len in length-lex order.
    A 'universal' verdict only certifies the explored bound; with
    max_len >= 2^|Q| it is exact.

    The words go level by level: ``level`` holds the state sets the words
    of one length reach, in lex order, so the word at index i is i in base
    |Sigma|.  Each word of the next length steps its parent's set once
    through ``Nfa.succ``, never through the step table the searches use, and
    equal images share one frozenset.  ``enum_nodes`` is checked before a
    set joins the level, so the list never holds more sets than the cap."""
    caps = caps or default_caps()
    if max_len < 0:
        raise InputError("max_len must be nonnegative")
    if max_len > caps.enum_len:
        raise ResourceLimitError(f"brute-force length {max_len} exceeds enum_len cap "
                                 f"({caps.enum_len})")
    succ, acc, letters = a.succ, a.accepting_set, range(a.n_letters)
    images: dict[tuple[frozenset[int], int], frozenset[int]] = {}

    def image(states: frozenset[int], x: int) -> frozenset[int]:
        img = images.get((states, x))
        if img is None:
            img = images[states, x] = frozenset(
                r for q in states for r in succ.get((q, x), ()))
        return img

    checked = 0
    level: list[frozenset[int]] = []
    new = iter((a.initial_set,))  # the one word of length 0
    for length in range(max_len + 1):
        for states in new:
            checked += 1
            if checked > caps.enum_nodes:
                raise ResourceLimitError(
                    f"brute-force enumeration exceeded enum_nodes cap ({caps.enum_nodes})")
            if not states & acc:
                word = _word_at(len(level), length, a.n_letters)
                return UniversalityResult(False, word, "brute-force", checked, 1)
            level.append(states)
        parents, level = level, []
        new = (image(states, x) for states in parents for x in letters)
    return UniversalityResult(True, None, "brute-force", checked, 1)


def universal(a: Nfa, caps: Caps | None = None) -> UniversalityResult:
    """Dispatcher: saturated -> constant check, unary partially ordered ->
    pumping check, otherwise antichain.  Each class test runs once: the
    dispatcher calls the deciders' bodies, not their checked entry points."""
    if is_saturated(a)[0]:
        return _sponfa_constant(a)
    if a.n_letters == 1 and is_partially_ordered(a)[0]:
        return _unary_pumping(a)
    return universal_antichain(a, caps)


def format_result(a: Nfa, res: UniversalityResult) -> str:
    lines = [f"universal: {'yes' if res.universal else 'no'}"]
    if not res.universal:
        lines.append("counterexample: " + format_word(a, res.counterexample))
    lines.append(f"method: {res.method}")
    lines.append(f"explored: {res.explored}")
    return "\n".join(lines) + "\n"
