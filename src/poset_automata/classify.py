"""Structural class detection with violation witnesses.

Predicates: completeness, partial order, self-loop determinism, saturation,
confluence, and the unique-maximal-state (UMS) property.  The ptNFA verdict
is always derived from complete + partially ordered + UMS, never from
confluence, so the equivalence "complete confluent self-loop deterministic
poNFA = ptNFA" stays testable as a theorem.

Confluence asks, for pairs of states s, t, whether some w over two letters
sends both to a common state.  That is reachability of the diagonal in the
product of the automaton with itself, so it is searched over pairs of
states, at most |Q|^2/2 per letter pair, not over pairs of state sets;
``_confluent_raw`` gives the argument and the ``confluence_nodes`` cap that
bounds the search.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import and_
from typing import Optional

from .caps import Caps, default_caps
from .core import Nfa, strongly_connected_components
from .errors import InputError, ResourceLimitError

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


def _mark_path(memo: dict, parent: dict, pair: int) -> bool:
    """Mark ``pair`` and its ancestors in the search tree as meeting: each
    reaches ``pair`` under some word, then the word that makes it meet."""
    while pair >= 0:
        memo[pair] = True
        pair = parent[pair]
    return True


def _confluent_raw(a: Nfa, caps: Optional[Caps] = None
                   ) -> tuple[bool, Optional[tuple[int, int, int, int, int]]]:
    """Confluence and its first failing (q, a, b, s, t) in loop order.

    Some w over {a, b} sends s and t to intersecting sets iff the pair graph
    (u, v) -> (u', v'), with u' in u.x and v' in v.x for one letter x in
    {a, b}, has a path from (s, t) to a diagonal pair (r, r): both say that
    one w has a run from s and a run from t that end in the same r.  So each
    question is a search over unordered pairs of distinct states, keyed
    ``u*|Q| + v`` with u < v, that stops at the first pair it finds with a
    one-step meet ``rows[x][u] & rows[x][v]``; the start's is tested before
    any search is set up, and answers most questions.  A letter pair has at
    most |Q|(|Q|-1)/2 such nodes, where sets of states would give
    exponentially many.

    One memo per letter pair maps pairs to their answer, and every answer
    stays exact.  A search that finds no meet has reached every pair
    reachable from its start, except behind pairs already marked as not
    meeting, so it marks all it reached as not meeting, and a pair so
    marked is never expanded again.  A search that finds a meet marks only
    the pairs on its path to it, each of which reaches the meet under some
    word; pairs merely queued beside the path are left unknown.  The memo
    thus answers each question as a search without memo would, and the
    first failing witness is unchanged.

    When a == b the loop skips t <= s: {u, v} meets or not as one unordered
    pair, and with u < v the loop over s, then t, asks (u, v) before (v, u),
    so the first failing witness still has s < t and is unchanged.

    A state's successor lists are built when it is first needed and are
    shared by the outer loop and every search.  ``caps.confluence_nodes``
    bounds the pairs held in all memos plus the search under way."""
    n = a.n_states
    rows = a.step_rows
    succ: list = [None] * n  # per state, its successors per letter

    def lists(q: int) -> list[list[int]]:
        sq = succ[q] = [_members(row[q]) for row in rows]
        return sq

    limit = (caps or default_caps()).confluence_nodes
    held = 0  # pairs in all memos

    def meets(start: int, ax: int, bx: int, memo: dict) -> bool:
        ra, rb = rows[ax], rows[bx]
        letters = (ax,) if ax == bx else (ax, bx)
        room = limit - held
        parent = {start: -1}  # search tree: pair -> pair it was reached from
        queue = deque([start])
        while queue:
            if len(parent) > room:
                raise ResourceLimitError(
                    f"confluence search exceeded confluence_nodes cap ({limit})")
            node = queue.popleft()
            u, v = divmod(node, n)
            su = succ[u] or lists(u)
            sv = succ[v] or lists(v)
            for x in letters:
                for u2 in su[x]:
                    for v2 in sv[x]:  # v2 != u2: the node has no one-step meet
                        pair = u2 * n + v2 if u2 < v2 else v2 * n + u2
                        if pair in parent:
                            continue
                        parent[pair] = node
                        known = memo.get(pair)
                        if known is None:
                            if ra[u2] & ra[v2] or rb[u2] & rb[v2]:
                                return _mark_path(memo, parent, pair)
                            queue.append(pair)
                        elif known:
                            return _mark_path(memo, parent, pair)
        memo.update(dict.fromkeys(parent, False))
        return False

    n_letters = a.n_letters
    memos: dict[tuple[int, int], dict] = {}  # one memo per letter pair
    for q in range(n):
        sq = succ[q] or lists(q)
        for ax in range(n_letters):
            sa = sq[ax]
            if not sa:
                continue
            ra = rows[ax]
            for bx in range(ax, n_letters):
                sb = sq[bx]
                if not sb:
                    continue
                rb = rows[bx]
                same = ax == bx
                memo = memos.setdefault((ax, bx), {})
                for s in sa:
                    for t in sb:
                        if t <= s and (same or t == s):
                            continue  # met under the empty word, or asked as (t, s)
                        if ra[s] & ra[t] or rb[s] & rb[t]:
                            continue  # meets under one letter
                        key = s * n + t if s < t else t * n + s
                        known = memo.get(key)
                        if known is None:
                            size = len(memo)
                            known = meets(key, ax, bx, memo)
                            held += len(memo) - size
                        if not known:
                            return False, (q, ax, bx, s, t)
    return True, None


def is_confluent(a: Nfa, caps: Optional[Caps] = None
                 ) -> tuple[bool, Optional[tuple[int, int, int, int, int]]]:
    """Confluence for NFAs: for every q and letters a, b (possibly equal),
    successors s of q under a and t under b admit w in {a,b}* with
    sw and tw intersecting.  Requires a partially ordered input.

    The search holds at most |Sigma|^2*|Q|^2/4 state pairs in all; the
    ``confluence_nodes`` cap bounds them and raises ResourceLimitError."""
    po, _ = is_partially_ordered(a)
    if not po:
        raise InputError("confluence check requires a partially ordered automaton")
    return _confluent_raw(a, caps)


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


def classify(a: Nfa, caps: Optional[Caps] = None) -> ClassReport:
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
    confluent, w = _confluent_raw(a, caps)
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
