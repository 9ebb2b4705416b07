"""Universality deciders: does the automaton accept every word over its
alphabet?

Class-specialized procedures (constant-time for saturated poNFAs, a pumping
check for unary poNFAs) plus a general antichain search; a plain
subset-construction BFS and literal word enumeration serve as independent
oracles.  All searches are deterministic: BFS with letters in ascending id
order, so reported counterexamples are the length-lexicographically first.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .caps import Caps, default_caps
from .classify import is_partially_ordered, is_saturated
from .core import Nfa, Word, accepts, format_word
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


def universal_antichain(a: Nfa, caps: Caps | None = None) -> UniversalityResult:
    """BFS over subset-construction states that skips every new image
    containing an already kept subset.  Skipping a superset is sound: the
    smaller kept set reaches a rejecting subset whenever the larger one does,
    no later.

    Kept subsets are bucketed by their lowest state.  A kept v with v <= img
    has its lowest state in img, so the domination test reads only the
    buckets of img's states that are some kept set's lowest state.  Kept
    supersets of a newly kept set are not removed: each still contains a
    kept set, so "some kept v <= img" has the same answer with or without
    them, and the queue, ``parents``, the counts and the counterexample are
    those of a search that keeps only the subset-minimal sets.  Every kept
    set is a key of ``parents`` too, so the buckets hold no set that the
    search does not hold anyway."""
    caps = caps or default_caps()
    acc = a.accepting_mask
    start = a.initial_mask
    parents: dict[int, Optional[tuple[int, int]]] = {start: None}
    if not start & acc:
        return UniversalityResult(False, (), "antichain", 0, 0)
    u_mask = universal_state_mask(a)
    if start & u_mask:
        return UniversalityResult(True, None, "antichain", 0, 0)
    step = a.step_mask
    low = start & -start
    buckets: dict[int, list[int]] = {low: [start]}  # lowest bit -> kept sets
    lows = low  # union of the bucket keys
    queue = deque([start])
    explored = 0
    max_frontier = 1
    while queue:
        mask = queue.popleft()
        explored += 1
        if explored > caps.antichain_nodes:
            raise ResourceLimitError(
                f"antichain search exceeded antichain_nodes cap ({caps.antichain_nodes})")
        for x in range(a.n_letters):
            img = step(mask, x)
            if img in parents:
                continue
            parents[img] = (mask, x)
            if not img & acc:
                word = _reconstruct(parents, img)
                return UniversalityResult(False, word, "antichain", explored, max_frontier)
            if img & u_mask:
                continue  # a universal member: no rejecting subset below it
            dominated = False
            rest = img & lows
            while rest:
                low = 1 << (rest.bit_length() - 1)
                rest ^= low
                for v in buckets[low]:
                    if v & img == v:
                        dominated = True
                        break
                if dominated:
                    break
            if dominated:
                continue
            low = img & -img
            buckets.setdefault(low, []).append(img)
            lows |= low
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


def universal_brute(a: Nfa, max_len: int, caps: Caps | None = None) -> UniversalityResult:
    """Literal enumeration of every word up to max_len in length-lex order.
    A 'universal' verdict only certifies the explored bound; with
    max_len >= 2^|Q| it is exact."""
    caps = caps or default_caps()
    if max_len < 0:
        raise InputError("max_len must be nonnegative")
    if max_len > caps.enum_len:
        raise ResourceLimitError(f"brute-force length {max_len} exceeds enum_len cap "
                                 f"({caps.enum_len})")
    checked = 0
    for length in range(max_len + 1):
        for word in itertools.product(range(a.n_letters), repeat=length):
            checked += 1
            if checked > caps.enum_nodes:
                raise ResourceLimitError(
                    f"brute-force enumeration exceeded enum_nodes cap ({caps.enum_nodes})")
            if not accepts(a, word):
                return UniversalityResult(False, word, "brute-force", checked, 1)
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
