"""Structural class detection with violation witnesses.

Predicates: completeness, partial order, self-loop determinism, saturation,
confluence, and the unique-maximal-state (UMS) property.  The ptNFA verdict
is always derived from complete + partially ordered + UMS, never from
confluence, so the equivalence "complete confluent self-loop deterministic
poNFA = ptNFA" stays testable as a theorem.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import and_
from typing import Optional

from .core import Nfa, strongly_connected_components
from .errors import InputError

LABELS = ("NFA", "poNFA", "rpoNFA", "spoNFA", "ptNFA", "DFA", "poDFA", "confluent-poDFA")


@dataclass(frozen=True)
class ClassReport:
    complete: bool
    partially_ordered: bool
    self_loop_deterministic: bool
    saturated: bool
    confluent: bool
    ums: bool
    deterministic: bool
    label: str
    witnesses: dict = field(default_factory=dict)


def _first_zero(columns) -> Optional[tuple[int, int]]:
    """First (state, letter) in (state, letter) order whose entry is 0, where
    ``columns[x][q]`` is the entry of state q under letter x; None if none."""
    first = None
    for x, column in enumerate(columns):
        if 0 in column:
            q = column.index(0)
            if first is None or q < first[0]:
                first = (q, x)
    return first


def _members(mask: int) -> list[int]:
    """The states of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def is_complete(a: Nfa) -> tuple[bool, Optional[tuple[int, int]]]:
    """True iff every (state, letter) has a successor; witness is the first
    failing pair in (state, letter) order."""
    w = _first_zero(a.step_rows)
    return w is None, w


def is_partially_ordered(a: Nfa) -> tuple[bool, Optional[tuple[int, int]]]:
    """True iff the only cycles are self-loops; witness is a mutually
    reachable pair of distinct states."""
    for comp in strongly_connected_components(a):
        if len(comp) > 1:
            return False, (comp[0], comp[1])
    return True, None


def is_self_loop_deterministic(a: Nfa) -> tuple[bool, Optional[tuple[int, int, int, int]]]:
    """No state may combine a self-loop and an exit under one letter;
    witness is (q, letter, q, exit-target) with the first such (q, letter)
    in (state, letter) order and its lowest exit target."""
    bits = [1 << q for q in range(a.n_states)]
    first = None
    for x, row in enumerate(a.step_rows):
        for q, r in enumerate(row):
            if r & bits[q] and r != bits[q]:
                if first is None or q < first[0]:
                    first = (q, x, q, _members(r ^ bits[q])[0])
                break
    return first is None, first


def is_saturated(a: Nfa) -> tuple[bool, Optional[tuple[int, int]]]:
    """Self-loop under every letter in every state; witness is the first
    (state, letter) without one."""
    bits = [1 << q for q in range(a.n_states)]
    w = _first_zero([list(map(and_, row, bits)) for row in a.step_rows])
    return w is None, w


def is_deterministic(a: Nfa) -> bool:
    """One initial state and at most one successor per (state, letter):
    the transitions are duplicate-free, so that holds iff there are as many
    nonzero step-table entries as transitions."""
    if len(a.initial) != 1:
        return False
    used = sum(len(row) - row.count(0) for row in a.step_rows)
    return used == len(a.transitions)


def self_loop_letters(a: Nfa) -> list[set[int]]:
    """Per state, the letters labeling self-loops (the alphabet Sigma(q))."""
    out: list[set[int]] = [set() for _ in range(a.n_states)]
    bits = [1 << q for q in range(a.n_states)]
    for x, row in enumerate(a.step_rows):
        for q, loop in enumerate(map(and_, row, bits)):
            if loop:
                out[q].add(x)
    return out


# ---------------------------------------------------------------------------
# confluence


def _pairs_meet(a: Nfa, s: int, t: int, letters: tuple[int, int],
                memo: dict) -> bool:
    """Does some w over ``letters`` send {s} and {t} to intersecting sets?
    Fixpoint over unordered pairs of state sets; finite, hence terminating.

    ``memo`` maps pairs to their answer and may be shared by every call for
    the same automaton and letters.  A pair it marks as not meeting is not
    expanded: no pair reachable from it meets either.  When a meeting pair
    is found, every pair on its search path is marked as meeting."""
    start = (1 << s, 1 << t) if s <= t else (1 << t, 1 << s)
    known = memo.get(start)
    if known is not None:
        return known
    parent: dict = {start: None}  # search tree: pair -> pair it was reached from
    queue = deque([start])
    alphabet = sorted(set(letters))
    step = a.step_mask
    while queue:
        node = queue.popleft()
        (ms, mt) = node
        if ms & mt:
            return _record_meet(memo, parent, node)
        for x in alphabet:
            ns, nt = step(ms, x), step(mt, x)
            if not ns or not nt:
                continue
            pair = (ns, nt) if ns <= nt else (nt, ns)
            if pair in parent:
                continue
            parent[pair] = node
            known = memo.get(pair)
            if known is None:
                queue.append(pair)
            elif known:
                return _record_meet(memo, parent, pair)
    for pair in parent:
        memo[pair] = False
    return False


def _record_meet(memo: dict, parent: dict, pair) -> bool:
    """Mark ``pair`` and its ancestors in the search tree as meeting: each
    reaches ``pair`` under some word, then the word that makes it meet."""
    while pair is not None:
        memo[pair] = True
        pair = parent[pair]
    return True


def _confluent_raw(a: Nfa) -> tuple[bool, Optional[tuple[int, int, int, int, int]]]:
    rows = a.step_rows
    memos: dict[tuple[int, int], dict] = {}  # one _pairs_meet memo per letter pair
    for q in range(a.n_states):
        succ = [_members(row[q]) for row in rows]  # successors of q per letter
        for ax in range(a.n_letters):
            sa = succ[ax]
            if not sa:
                continue
            for bx in range(ax, a.n_letters):
                sb = succ[bx]
                if not sb:
                    continue
                memo = memos.setdefault((ax, bx), {})
                for s in sa:
                    for t in sb:
                        if s == t:
                            continue  # w = epsilon already meets
                        if not _pairs_meet(a, s, t, (ax, bx), memo):
                            return False, (q, ax, bx, s, t)
    return True, None


def is_confluent(a: Nfa) -> tuple[bool, Optional[tuple[int, int, int, int, int]]]:
    """Confluence for NFAs: for every q and letters a, b (possibly equal),
    successors s of q under a and t under b admit w in {a,b}* with
    sw and tw intersecting.  Requires a partially ordered input."""
    po, _ = is_partially_ordered(a)
    if not po:
        raise InputError("confluence check requires a partially ordered automaton")
    return _confluent_raw(a)


# ---------------------------------------------------------------------------
# UMS property


def _ums_analysis(a: Nfa, gamma: frozenset[int]):
    """Weak components of G(A, gamma) plus each component's maximal states.

    A state is maximal when it has no gamma-transition to a different state
    (then nothing else is reachable from it inside the subgraph)."""
    parent = list(range(a.n_states))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    has_exit = [False] * a.n_states
    for (q, x, r) in a.transitions:
        if x in gamma:
            if q != r:
                has_exit[q] = True
                ra, rb = find(q), find(r)
                if ra != rb:
                    parent[ra] = rb
    members: dict[int, list[int]] = {}
    for q in range(a.n_states):
        members.setdefault(find(q), []).append(q)
    comp_of = {}
    maximal: dict[int, tuple[int, ...]] = {}
    for root, states in members.items():
        for q in states:
            comp_of[q] = root
        maximal[root] = tuple(q for q in states if not has_exit[q])
    return comp_of, members, maximal


def is_ums(a: Nfa) -> tuple[bool, Optional[tuple]]:
    """Unique-maximal-state property: every q is the unique maximal state of
    the weakly connected component of G(A, Sigma(q)) containing q.  Witness:
    (q, component states, maximal states of that component)."""
    loops = self_loop_letters(a)
    cache: dict[frozenset[int], tuple] = {}
    for q in range(a.n_states):
        gamma = frozenset(loops[q])
        if gamma not in cache:
            cache[gamma] = _ums_analysis(a, gamma)
        comp_of, members, maximal = cache[gamma]
        root = comp_of[q]
        if maximal[root] != (q,):
            return False, (q, tuple(members[root]), maximal[root])
    return True, None


def is_ptnfa(a: Nfa) -> tuple[bool, dict]:
    """Complete + partially ordered + UMS; returns failures keyed by flag."""
    failures = {}
    ok, w = is_complete(a)
    if not ok:
        failures["complete"] = w
    ok, w = is_partially_ordered(a)
    if not ok:
        failures["partially_ordered"] = w
    ok, w = is_ums(a)
    if not ok:
        failures["ums"] = w
    return not failures, failures


# ---------------------------------------------------------------------------
# full report


def _label(complete: bool, po: bool, sld: bool, saturated: bool, confluent: bool,
           ums: bool, deterministic: bool) -> str:
    """Most specific class first.  spoNFA and ptNFA outrank the DFA-family
    labels (a deterministic member of those classes still reports the
    class); the DFA family then covers the remaining deterministic cases."""
    if po and saturated:
        return "spoNFA"
    if po and complete and ums:
        return "ptNFA"
    if deterministic:
        if po:
            return "confluent-poDFA" if confluent else "poDFA"
        return "DFA"
    if po:
        return "rpoNFA" if sld else "poNFA"
    return "NFA"


def classify(a: Nfa) -> ClassReport:
    witnesses: dict = {}
    complete, w = is_complete(a)
    if not complete:
        witnesses["complete"] = w
    po, w = is_partially_ordered(a)
    if not po:
        witnesses["partially_ordered"] = w
    sld, w = is_self_loop_deterministic(a)
    if not sld:
        witnesses["self_loop_deterministic"] = w
    saturated, w = is_saturated(a)
    if not saturated:
        witnesses["saturated"] = w
    confluent, w = _confluent_raw(a)
    if not confluent:
        witnesses["confluent"] = w
    ums, w = is_ums(a)
    if not ums:
        witnesses["ums"] = w
    deterministic = is_deterministic(a)
    label = _label(complete, po, sld, saturated, confluent, ums, deterministic)
    return ClassReport(complete, po, sld, saturated, confluent, ums,
                       deterministic, label, witnesses)


def _fmt_witness(a: Nfa, flag: str, w: tuple) -> str:
    s = a.state_names
    x = lambda i: a.alphabet[i].name
    if flag in ("complete", "saturated"):
        return f"{s[w[0]]} {x(w[1])}"
    if flag == "partially_ordered":
        return f"{s[w[0]]} {s[w[1]]}"
    if flag == "self_loop_deterministic":
        return f"{s[w[0]]} {x(w[1])} {s[w[2]]} {s[w[3]]}"
    if flag == "confluent":
        return f"{s[w[0]]} {x(w[1])} {x(w[2])} {s[w[3]]} {s[w[4]]}"
    if flag == "ums":
        q, comp, maxes = w
        return (f"{s[q]} component: {' '.join(s[i] for i in comp)}"
                f" maximal: {' '.join(s[i] for i in maxes)}")
    return " ".join(map(str, w))


def format_report(a: Nfa, report: ClassReport) -> str:
    """Line-oriented serialization with a stable field order."""
    flags = [
        ("complete", report.complete),
        ("partially_ordered", report.partially_ordered),
        ("self_loop_deterministic", report.self_loop_deterministic),
        ("saturated", report.saturated),
        ("confluent", report.confluent),
        ("ums", report.ums),
    ]
    lines = []
    for name, value in flags:
        line = f"{name}: {'true' if value else 'false'}"
        if not value and name in report.witnesses:
            line += f" [witness: {_fmt_witness(a, name, report.witnesses[name])}]"
        lines.append(line)
    lines.append(f"class: {report.label}")
    return "\n".join(lines) + "\n"
