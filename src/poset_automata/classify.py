"""Structural class detection with violation witnesses.

Predicates: completeness, partial order, self-loop determinism, saturation,
confluence, and the unique-maximal-state (UMS) property.  The ptNFA verdict
is derived from complete + partially ordered + UMS.  On a complete,
partially ordered, self-loop deterministic NFA confluence holds exactly
when UMS does (the rpoNFA/ptNFA equivalence), so ``classify`` runs the pair
search ``is_confluent``, which names the witness, only outside that class
or where UMS fails.  ``is_confluent`` itself takes no such shortcut, so the
equivalence stays testable as a theorem.

Every predicate reads ``Nfa.step_rows`` and holds state sets as int
bitmasks.  Partial order is a depth-first search over per-state successor
masks; UMS merges, for each distinct self-loop alphabet Sigma(q), the
successor masks of G(A, Sigma(q)) into its weak components.  The
universality dispatcher runs the saturation and partial-order tests on
every call, so their per-call cost is the entry fee of the easy cases.

Confluence asks, for pairs of states s, t, whether some w over two letters
sends both to a common state.  That is reachability of the diagonal in the
product of the automaton with itself, so it is searched over pairs of
states, at most |Q|^2/2 per letter pair, not over pairs of state sets;
``is_confluent`` gives the argument and the ``confluence_nodes`` cap that
bounds the search.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import and_, or_
from typing import Optional

from .caps import default_caps
from .core import Nfa
from .errors import ResourceLimitError

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


def _out_masks(rows) -> list[int]:
    """Per state, the OR of its entries in the nonempty list of step-table
    ``rows`` (its successors under those letters), its own bit cleared."""
    out = rows[0]
    for row in rows[1:]:
        out = list(map(or_, out, row))
    return [m & ~(1 << q) for q, m in enumerate(out)]


def is_partially_ordered(a: Nfa) -> tuple[bool, Optional[tuple[int, int]]]:
    """True iff the only cycles are self-loops; witness is a mutually
    reachable pair of distinct states.

    A depth-first search over ``_out_masks`` keeps the states on its path in
    the mask ``on`` and the finished ones in ``done``; an arc into ``on``
    closes a cycle.  Only then does ``_first_cycle_pair`` run, to name the
    witness: the two lowest states of the first component of two or more
    states in Tarjan's order."""
    out = _out_masks(a.step_rows or [[0] * a.n_states])
    done = 0
    for root in range(a.n_states):
        if done >> root & 1:
            continue
        path, on = [root], 1 << root
        while path:
            q = path[-1]
            rest = out[q] & ~done
            if rest & on:
                return False, _first_cycle_pair(a)
            if rest:
                low = rest & -rest
                path.append(low.bit_length() - 1)
                on |= low
            else:
                path.pop()
                on ^= 1 << q
                done |= 1 << q
    return True, None


def _first_cycle_pair(a: Nfa) -> tuple[int, int]:
    """The two lowest states of the first strongly connected component of
    two or more states in Tarjan's order (iterative); the search stops
    there.  Each state's successors are read from ``step_rows`` letter by
    letter, ascending within a letter, self-loops left out: the order of
    the sorted transitions."""
    n = a.n_states
    succ: list[list[int]] = [[] for _ in range(n)]
    for row in a.step_rows:
        for q, mask in enumerate(row):
            succ[q] += _members(mask & ~(1 << q))
    index, low, on_stack = {}, [0] * n, [False] * n  # index: state -> visiting order
    stack: list[int] = []
    for root in range(n):
        if root in index:
            continue
        work = [(root, iter(succ[root]))]  # the path: (state, its successors not yet read)
        while work:
            node, rest = work[-1]
            if node not in index:
                index[node] = low[node] = len(index)
                stack.append(node)
                on_stack[node] = True
            for nxt in rest:
                if nxt not in index:
                    work.append((nxt, iter(succ[nxt])))
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if low[node] == index[node]:
                    if stack[-1] != node:  # node's component (stack from node up) has 2+ states
                        return tuple(sorted(stack[stack.index(node):])[:2])
                    stack.pop()
                    on_stack[node] = False
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    raise AssertionError("no cycle of two or more states")


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
    (state, letter) without one.  Scans the pairs in that order and stops
    at the first miss."""
    rows = a.step_rows
    for q in range(a.n_states):
        bit = 1 << q
        for x, row in enumerate(rows):
            if not row[q] & bit:
                return False, (q, x)
    return True, None


def is_deterministic(a: Nfa) -> bool:
    """One initial state and at most one successor per (state, letter):
    the transitions are duplicate-free, so that holds iff there are as many
    nonzero step-table entries as transitions."""
    if len(a.initial) != 1:
        return False
    used = sum(len(row) - row.count(0) for row in a.step_rows)
    return used == len(a.transitions)


# ---------------------------------------------------------------------------
# confluence


def is_confluent(a: Nfa) -> tuple[bool, Optional[tuple[int, int, int, int, int]]]:
    """Confluence for NFAs: for every q and letters a, b (possibly equal),
    successors s of q under a and t under b admit w in {a,b}* with sw and tw
    intersecting.  Witness: the first failing (q, a, b, s, t) in loop order.

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

    Each letter pair keeps the set of pairs known to meet.  A search stops
    at the first pair with a one-step meet or in that set, and adds the
    pairs on its path there, each of which reaches the meet under some
    word; pairs merely queued beside the path stay unknown.  A search that
    finds no meet ends the call with its witness, so it records nothing.
    The set thus answers each question as a search without it would, and
    the first failing witness is unchanged.

    When a == b the loop skips t <= s: {u, v} meets or not as one unordered
    pair, and with u < v the loop over s, then t, asks (u, v) before (v, u),
    so the first failing witness still has s < t and is unchanged.

    Every state's successor lists are built once, up front, and are shared
    by the outer loop and every search.  The argument uses no order on the
    states, so any NFA may be asked.

    The search holds at most |Sigma|^2*|Q|^2/4 state pairs in all; the
    ``confluence_nodes`` cap bounds the pairs held in all those sets plus
    the search under way and raises ResourceLimitError."""
    n = a.n_states
    rows = a.step_rows
    succ = [[_members(row[q]) for row in rows] for q in range(n)]  # per state, per letter

    limit = default_caps().confluence_nodes
    held = 0  # pairs in all sets of known meets

    def meets(start: int, ax: int, bx: int, met: set) -> bool:
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
            su, sv = succ[u], succ[v]
            for x in letters:
                for u2 in su[x]:
                    for v2 in sv[x]:  # v2 != u2: the node has no one-step meet
                        pair = u2 * n + v2 if u2 < v2 else v2 * n + u2
                        if pair in parent:
                            continue
                        parent[pair] = node
                        if pair in met or ra[u2] & ra[v2] or rb[u2] & rb[v2]:
                            while pair >= 0:  # the path: each pair on it reaches the meet
                                met.add(pair)
                                pair = parent[pair]
                            return True
                        queue.append(pair)
        return False

    n_letters = a.n_letters
    known: dict[tuple[int, int], set] = {}  # per letter pair, the pairs known to meet
    for q, sq in enumerate(succ):
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
                met = known.setdefault((ax, bx), set())
                for s in sa:
                    for t in sb:
                        if t <= s and (same or t == s):
                            continue  # met under the empty word, or asked as (t, s)
                        if ra[s] & ra[t] or rb[s] & rb[t]:
                            continue  # meets under one letter
                        key = s * n + t if s < t else t * n + s
                        if key not in met:
                            size = len(met)
                            if not meets(key, ax, bx, met):
                                return False, (q, ax, bx, s, t)
                            held += len(met) - size
    return True, None


# ---------------------------------------------------------------------------
# UMS property


def is_ums(a: Nfa) -> tuple[bool, Optional[tuple]]:
    """Unique-maximal-state property: every q is the unique maximal state of
    the weakly connected component of G(A, Sigma(q)) containing q.  Witness:
    (q, component states, maximal states of that component), ascending.

    Sigma(q) is a letter mask.  For each distinct one, G(A, Sigma(q)) is
    built as successor masks, own bits cleared; a state is maximal when it
    has no such successor (then nothing else is reachable from it inside the
    subgraph).  Each state with successors spans a connected star, and the
    weak components are the unions of overlapping stars: merging them as
    masks yields every component of two or more states."""
    n, rows = a.n_states, a.step_rows
    bits = [1 << q for q in range(n)]
    gammas = [0] * n
    for x, row in enumerate(rows):
        for q, loop in enumerate(map(and_, row, bits)):
            if loop:
                gammas[q] |= 1 << x
    graphs: dict[int, tuple] = {}  # Sigma(q) -> (components, exits)
    for q, gamma in enumerate(gammas):
        if not gamma:
            continue  # no arcs: q alone is its component, and maximal
        graph = graphs.get(gamma)
        if graph is None:
            comps, exits = [], 0
            for m, b in zip(_out_masks([rows[x] for x in _members(gamma)]), bits):
                if m:
                    exits |= b
                    m |= b
                    apart = []
                    for c in comps:
                        if c & m:
                            m |= c
                        else:
                            apart.append(c)
                    apart.append(m)
                    comps = apart
            graph = graphs[gamma] = (comps, exits)
        comps, exits = graph
        comp = next((c for c in comps if c & bits[q]), bits[q])
        if comp & ~exits != bits[q]:
            return False, (q, tuple(_members(comp)), tuple(_members(comp & ~exits)))
    return True, None


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


# The six flags in report order, which is also the field order of
# ``ClassReport`` and ``_label``.  ``classify`` takes confluence from UMS
# inside the class of the rpoNFA/ptNFA equivalence when UMS holds, and from
# the pair search ``is_confluent`` in every other case.
FLAGS = ("complete", "partially_ordered", "self_loop_deterministic", "saturated",
         "confluent", "ums")


def classify(a: Nfa) -> ClassReport:
    """The six ``FLAGS``, the label and a witness for each flag that fails.
    Each predicate runs at most once, the pair search only where UMS cannot
    answer for it (see the module docstring)."""
    complete, po, sld, saturated, ums = (
        is_complete(a), is_partially_ordered(a), is_self_loop_deterministic(a),
        is_saturated(a), is_ums(a))
    confluent = ums if complete[0] and po[0] and sld[0] and ums[0] else is_confluent(a)
    results = (complete, po, sld, saturated, confluent, ums)
    values = [ok for ok, _w in results]
    witnesses = {name: w for name, (ok, w) in zip(FLAGS, results) if not ok}
    deterministic = is_deterministic(a)
    return ClassReport(*values, deterministic, _label(*values, deterministic), witnesses)


def _fmt_witness(a: Nfa, flag: str, w: tuple) -> str:
    s, x = a.state_names, a.alphabet
    if flag in ("complete", "saturated"):
        return f"{s[w[0]]} {x[w[1]]}"
    if flag == "partially_ordered":
        return f"{s[w[0]]} {s[w[1]]}"
    if flag == "self_loop_deterministic":
        return f"{s[w[0]]} {x[w[1]]} {s[w[2]]} {s[w[3]]}"
    if flag == "confluent":
        return f"{s[w[0]]} {x[w[1]]} {x[w[2]]} {s[w[3]]} {s[w[4]]}"
    q, comp, maxes = w  # ums
    return (f"{s[q]} component: {' '.join(s[i] for i in comp)}"
            f" maximal: {' '.join(s[i] for i in maxes)}")


def format_report(a: Nfa, report: ClassReport) -> str:
    """Line-oriented serialization with a stable field order."""
    lines = []
    for name in FLAGS:
        value = getattr(report, name)
        line = f"{name}: {'true' if value else 'false'}"
        if not value and name in report.witnesses:
            line += f" [witness: {_fmt_witness(a, name, report.witnesses[name])}]"
        lines.append(line)
    lines.append(f"class: {report.label}")
    return "\n".join(lines) + "\n"
