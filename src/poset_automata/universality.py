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

from .caps import default_caps
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
    accepting (then its all-letter self-loops carry every word).
    ``universal`` decides saturated input so; this entry point refuses
    any other."""
    if not is_saturated(a)[0]:
        raise InputError("spoNFA decider requires a saturated automaton")
    return universal(a)


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
    """The pumping check on a unary partially ordered automaton: the state
    set of a^m for m = 0..|Q|, each stepped by ORing the members' entries of
    ``step_rows[0]``."""
    row = a.step_rows[0]
    mask = a.initial_mask
    acc = a.accepting_mask
    for m in range(a.n_states + 1):
        if not mask & acc:
            return UniversalityResult(False, (0,) * m, "unary-pumping", m, 1)
        img = 0
        while mask:
            q = mask.bit_length() - 1
            img |= row[q]
            mask ^= 1 << q
        mask = img
    return UniversalityResult(True, None, "unary-pumping", a.n_states + 1, 1)


def _reconstruct(parents: dict[int, Optional[tuple[int, int]]], mask: int) -> Word:
    word: list[int] = []
    while (step := parents[mask]) is not None:
        mask, letter = step
        word.append(letter)
    return tuple(reversed(word))


def universal_state_mask(a: Nfa) -> int:
    """States q with L(q) = Sigma^* for the provable-by-closure reason:
    q is accepting and every letter keeps some such state reachable
    (greatest fixpoint).  A subset containing one accepts every word, so
    searches may discard it; the approximation is sound, not complete.

    A worklist computes it: every accepting state is checked once, and a
    removed state can cost only its predecessors their last successor in
    the mask, so only those are checked again, at most once per removed
    successor.  A cascade down a chain of states thus costs one check per
    link, not one pass over the candidates per link.  ``todo`` is a mask,
    a subset of ``u``; the predecessor masks are built on the first
    removal, so an automaton that loses no state pays for none."""
    u = a.accepting_mask
    rows = a.step_rows
    preds = None
    todo = u
    while todo:
        q = todo.bit_length() - 1
        low = 1 << q
        todo ^= low
        for row in rows:
            if not row[q] & u:
                if preds is None:
                    preds = _predecessors(rows, u)
                u ^= low
                todo |= preds[q] & u
                break
    return u


def _predecessors(rows, within: int) -> list[int]:
    """Per state r of ``within``, the mask of the states of ``within`` with
    an arc into r under some letter of the step-table ``rows``."""
    preds = [0] * len(rows[0])
    m = within
    while m:
        p = m.bit_length() - 1
        low = 1 << p
        m ^= low
        s = 0
        for row in rows:
            s |= row[p]
        s &= within
        while s:
            r = s.bit_length() - 1
            s ^= 1 << r
            preds[r] |= low
    return preds


def universal_antichain(a: Nfa) -> UniversalityResult:
    """BFS over subset-construction states that skips every new image
    containing an already kept subset.  Skipping a superset is sound: the
    smaller kept set reaches a rejecting subset whenever the larger one does,
    no later.

    A node's images under all letters come from one OR of packed columns:
    ``col[q]`` holds the successor masks of q under letters 0, 1, ... side
    by side, |Q| bits apart, so letter x's image is one shift and mask.
    Above them, from bit |Sigma|*|Q| on, ``col[q]`` holds the letters under
    which q steps into ``u_mask``, the universal states.  A set's members
    are walked once, when it is kept (the start set too): the walk enters
    them in the index below, builds ``col[q]`` when q joins the support
    (``has[q]`` is still 0), and ORs their columns.  The queue holds
    (set, OR) pairs, so a popped node walks no members.

    A popped node steps only its live letters, those that its OR does not
    name, lowest bit first, so in ascending order.  Nothing observable
    changes: an image that meets ``u_mask`` meets the accepting states, so
    it is never a counterexample and never queued.  Entered in ``parents``,
    it could only mark a later equal image as a duplicate, and that image
    meets ``u_mask`` too.  So the queue, ``explored``, ``max_frontier`` and
    the counterexample are those of a search that steps every letter.

    Domination is answered by an inverted index.  Kept set i is bit i of
    ``all_kept`` and of ``has[q]`` for each of its members q; ``order``
    lists the support, the states of some kept set.  A kept v lies inside
    the support, so v <= img iff no member of v is a support state outside
    img, and the kept sets with such a member are the OR of ``has[q]`` over
    those states.  So img is dominated iff that OR leaves a bit of
    ``all_kept`` unset.  The test is exact, whatever the order of the
    states: the OR may stop once it covers ``all_kept``, and ``order``
    puts the states of the most kept sets first (re-sorted whenever the
    kept count doubles) so that it stops sooner.  ``order`` holds
    (1 << q, q) pairs, so a state outside img is found with one AND.
    The scan is skipped when img has no more states than ``least``, the
    fewest states of any kept set: a kept set inside img would then have
    as many states as img, so it would equal img.  But every kept set is a
    key of ``parents`` and img is not, so img is kept.
    Kept supersets of a newly kept set are not removed: each still contains
    a kept set, so "some kept v <= img" has the same answer with or without
    them, and the queue, ``parents``, the counts and the counterexample are
    those of a search that keeps only the subset-minimal sets.

    ``col`` holds |Sigma|*|Q|^2 bits at most, as many as ``Nfa.step_rows``,
    plus |Sigma| bits per state for the letters into ``u_mask``; ``has``
    holds |Q| bits per kept set and the queue (|Q|+1)*|Sigma| bits per
    queued set; ``antichain_nodes`` bounds both (see ``caps``)."""
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
    rows = a.step_rows
    all_letters = (1 << a.n_letters) - 1
    top = a.n_letters * n  # col[q] >> top: the letters that take q into u_mask
    col = [0] * n  # built when q joins the support
    has = [0] * n
    order = []  # (1 << q, q) over the support q; sorted by kept sets held each time `kept` doubles
    all_kept = 0
    kept = 0
    resort = 2
    queue = deque()
    explored = 0
    max_frontier = 0
    least = start.bit_count()  # the fewest states of any kept set
    limit = default_caps().antichain_nodes
    live = 0  # the popped node's letters not yet stepped whose image misses u_mask
    img = start
    while True:  # keep img, then step popped nodes until an image is kept
        bit = 1 << kept
        packed = 0
        m = img
        while m:
            q = m.bit_length() - 1
            m ^= 1 << q
            h = has[q]
            if not h:
                c = 0
                for x, row in enumerate(rows):
                    r = row[q]
                    c |= r << x * n
                    if r & u_mask:
                        c |= 1 << top + x
                col[q] = c
                order.append((1 << q, q))
            has[q] = h | bit
            packed |= col[q]
        all_kept |= bit
        kept += 1
        if kept == resort:
            resort *= 2
            order.sort(key=lambda pair: has[pair[1]].bit_count(), reverse=True)
        queue.append((img, packed))
        if len(queue) > max_frontier:
            max_frontier = len(queue)
        while True:
            while not live:
                if not queue:
                    return UniversalityResult(True, None, "antichain", explored, max_frontier)
                mask, node = queue.popleft()
                explored += 1
                if explored > limit:
                    raise ResourceLimitError(
                        f"antichain search exceeded antichain_nodes cap ({limit})")
                live = ~(node >> top) & all_letters
            x = (live & -live).bit_length() - 1
            live ^= 1 << x
            img = node >> x * n & full
            if img in parents:
                continue
            parents[img] = (mask, x)
            if not img & acc:
                word = _reconstruct(parents, img)
                return UniversalityResult(False, word, "antichain", explored, max_frontier)
            size = img.bit_count()
            if size <= least:  # a kept set inside img would equal it, but img is not kept
                least = size
                break
            hit = 0  # kept sets with a member outside img
            for qbit, q in order:
                if not img & qbit:
                    hit |= has[q]
                    if hit == all_kept:
                        break
            else:
                continue  # some kept set lies inside img
            break  # img is not dominated: keep it


def universal_subset(a: Nfa) -> UniversalityResult:
    """Plain subset-construction BFS with exact deduplication; complete
    because the subset space is finite (any rejected word has a rejected
    representative shorter than 2^|Q|).  Used as the oracle the antichain
    decider is validated against."""
    acc = a.accepting_mask
    start = a.initial_mask
    parents: dict[int, Optional[tuple[int, int]]] = {start: None}
    if not start & acc:
        return UniversalityResult(False, (), "subset", 0, 0)
    queue = deque([start])
    explored = 0
    max_frontier = 1
    limit = default_caps().antichain_nodes
    while queue:
        mask = queue.popleft()
        explored += 1
        if explored > limit:
            raise ResourceLimitError(
                f"subset search exceeded antichain_nodes cap ({limit})")
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


def universal_brute(a: Nfa) -> UniversalityResult:
    """Literal enumeration of every word of length at most 2^|Q| in
    length-lex order.  The verdict is exact: a word's state set is one of
    2^|Q| subsets, so the shortest rejected word, if any, is shorter than
    2^|Q|.  With no letters the only word is the empty one, and the
    enumeration stops after it.

    The words go level by level: ``level`` holds the state sets the words
    of one length reach, in lex order, so the word at index i is i in base
    |Sigma|.  Each word of the next length steps its parent's set once
    through ``Nfa.succ``, never through the step table the searches use, and
    equal images share one frozenset.  ``enum_nodes``, the one bound on the
    enumeration, is checked before a set joins the level, so the list never
    holds more sets than the cap."""
    limit = default_caps().enum_nodes
    succ, acc, letters = a.succ, frozenset(a.accepting), range(a.n_letters)
    images: dict[tuple[frozenset[int], int], frozenset[int]] = {}

    def image(states: frozenset[int], x: int) -> frozenset[int]:
        img = images.get((states, x))
        if img is None:
            img = images[states, x] = frozenset(
                r for q in states for r in succ.get((q, x), ()))
        return img

    checked = 0
    level: list[frozenset[int]] = []
    new = iter((frozenset(a.initial),))  # the one word of length 0
    for length in range(2 ** a.n_states + 1 if a.n_letters else 1):
        for states in new:
            checked += 1
            if checked > limit:
                raise ResourceLimitError(
                    f"brute-force enumeration exceeded enum_nodes cap ({limit})")
            if not states & acc:
                word = _word_at(len(level), length, a.n_letters)
                return UniversalityResult(False, word, "brute-force", checked, 1)
            level.append(states)
        parents, level = level, []
        new = (image(states, x) for states in parents for x in letters)
    return UniversalityResult(True, None, "brute-force", checked, 1)


def universal(a: Nfa) -> UniversalityResult:
    """Dispatcher: saturated -> the spoNFA constant check, unary partially
    ordered -> pumping check, otherwise antichain.  Each class test runs
    once: the dispatcher calls ``_unary_pumping``, not its checked entry."""
    if is_saturated(a)[0]:
        ok = bool(a.initial_mask & a.accepting_mask)
        return UniversalityResult(ok, None if ok else (), "spoNFA-constant", 0, 0)
    if a.n_letters == 1 and is_partially_ordered(a)[0]:
        return _unary_pumping(a)
    return universal_antichain(a)


def format_result(a: Nfa, res: UniversalityResult) -> str:
    lines = [f"universal: {'yes' if res.universal else 'no'}"]
    if not res.universal:
        lines.append("counterexample: " + format_word(a, res.counterexample))
    lines.append(f"method: {res.method}")
    lines.append(f"explored: {res.explored}")
    return "\n".join(lines) + "\n"
