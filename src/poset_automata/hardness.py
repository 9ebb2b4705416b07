"""Generators for the explicit hardness constructions.

* ``w_word(k, n)``: the recursively defined word of length C(k+n, n) - 1.
* ``build_aknn(k, n)``: the ptNFA over n letters with n(2k+1)+1 states whose
  unique non-accepted word is W_{k,n}.
* ``trim_aknn``: the incomplete rpoNFA variant accepting the same language,
  obtained by deleting the states (k+1;i)..(2k;i).
* ``dag_gadget``: the unary ptNFA that is universal iff a target node is
  reachable from a source node in a DAG.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import comb
from operator import index

from .caps import default_caps
from .core import Nfa, Word, sorted_unique, tokenize
from .errors import InputError, ResourceLimitError


def sigma_alphabet(n: int) -> tuple[str, ...]:
    """The n-letter alphabet a1..an."""
    return tuple(f"a{i}" for i in range(1, n + 1))


def w_word(k: int, n: int) -> Word:
    """W_{k,1} = a1^k, W_{1,n} = a1 a2 .. an, and
    W_{k,n} = W_{k,n-1} a_n W_{k-1,n}; empty whenever k*n = 0.
    Letter a_i is represented by id i-1.  The ``word_len`` check runs over
    C(max(k,n)+i, i) for i <= min(k,n), which grow with i up to C(k+n, n),
    and stops at the first one past the cap."""
    if k < 0 or n < 0:
        raise InputError("k and n must be nonnegative")
    limit = default_caps().word_len
    for i in range(1, min(k, n) + 1):
        if comb(max(k, n) + i, i) - 1 > limit:
            raise ResourceLimitError(
                f"|W_{{{k},{n}}}| = C({k + n},{n})-1 exceeds word_len cap ({limit})")

    if k == 0 or n == 0:
        return ()
    # Built by levels of the smaller parameter, so each level at least
    # doubles and all levels together copy fewer than 2|W_{k,n}| letters.
    if k <= n:  # level kk is W_{kk,n}; W_{kk,j} is its prefix for j <= n
        level = list(range(n))
        for kk in range(2, k + 1):
            prev, level = level, [0] * kk
            for j in range(1, n):  # W_{kk,j+1} = W_{kk,j} a_{j+1} W_{kk-1,j+1}
                level.append(j)
                level += prev[:comb(kk + j, j + 1) - 1]
    else:  # level m is W_{k,m}; W_{i,m} is its suffix for i <= k
        level = [0] * k
        for m in range(1, n):  # W_{k,m+1} = W_{k,m} a_{m+1} W_{k-1,m} a_{m+1} .. W_{1,m} a_{m+1}
            prev, level = level, []
            for i in range(k, 0, -1):
                level += prev[len(prev) - comb(i + m, m) + 1:]
                level.append(m)
    return tuple(level)


# ---------------------------------------------------------------------------
# the A_{k,n} family


def _st(i: int, m: int) -> str:
    return f"({i};{m})"


def build_aknn(k: int, n: int) -> Nfa:
    """The ptNFA over a1..an that accepts exactly Sigma_n^* minus {W_{k,n}}.

    Level m holds states (0;m)..(2k;m); (0;m) is initial and (i;m) with
    i < k is accepting, plus the accepting sink ``max``.  Level 1 is the
    a1-chain DFA with its k extra states; each later level m adds:
      1. self-loops on (i;m) under every a_j with j < m,
      2. the a_m-chain (i;m) -> (i+1;m) skipping i = k,
      3. (k;m), (2k;m) and max itself to max under a_m,
      4. (i;m) -> (i+1;m') under a_m for i < k and every lower level m',
      5. accepting lower-level states to max under a_m,
      6. non-accepting lower-level states to (k+1;m) under a_m.
    """
    if k < 1 or n < 1:
        raise InputError("A_{k,n} needs k >= 1 and n >= 1")
    # level m adds 2k+2 arcs by items 2-3 and (m-1)(5k+2) by items 1 and 4-6
    arcs = n * (2 * k + 2) + (5 * k + 2) * n * (n - 1) // 2
    limit = default_caps().aknn_arcs
    if arcs > limit:
        raise ResourceLimitError(f"A_{{{k},{n}}} has {arcs} transitions, "
                                 f"over the aknn_arcs cap ({limit})")
    w = 2 * k + 1  # states per level: (i;m) is state (m-1)w + i
    top = n * w  # max
    names = [_st(i, m) for m in range(1, n + 1) for i in range(w)] + ["max"]
    trans = []
    for x in range(n):  # letter a_m, m = x + 1
        lo = x * w  # (0;m)
        trans += [(lo + i, x, lo + i + 1) for i in range(2 * k) if i != k]
        trans += [(lo + k, x, top), (lo + 2 * k, x, top), (top, x, top)]
        trans += [(lo + i, j, lo + i) for j in range(x) for i in range(w)]
        trans += [(lo + i, x, mm * w + i + 1) for i in range(k) for mm in range(x)]
        trans += [(mm * w + i, x, top if i < k else lo + k + 1)
                  for mm in range(x) for i in range(w)]
    accepting = [lo + i for lo in range(0, top, w) for i in range(k)] + [top]
    return Nfa._build(top + 1, sigma_alphabet(n), trans, range(0, top, w), accepting,
                      tuple(names))


def trim_aknn(k: int, n: int) -> Nfa:
    """Corollary-style trimming: build A_{k,n}, then delete states
    (k+1;i)..(2k;i) for every level i with their incident transitions.
    Language-equivalent but no longer complete."""
    a = build_aknn(k, n)
    removed = {a.state_index[_st(i, m)]
               for m in range(1, n + 1) for i in range(k + 1, 2 * k + 1)}
    keep = [q for q in range(a.n_states) if q not in removed]
    remap = {q: j for j, q in enumerate(keep)}
    trans = [(remap[q], x, remap[r]) for (q, x, r) in a.transitions
             if q not in removed and r not in removed]
    return Nfa._build(len(keep), a.alphabet, trans,
                      [remap[q] for q in a.initial if q not in removed],
                      [remap[q] for q in a.accepting if q not in removed],
                      tuple(a.state_names[q] for q in keep))


# ---------------------------------------------------------------------------
# unary DAG-reachability gadget


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph with a source and a target node; its node
    count is checked against the ``dag_nodes`` cap before anything is built."""

    n_nodes: int
    edges: tuple[tuple[int, int], ...]
    source: int
    target: int

    def __post_init__(self):
        try:
            n, source, target = index(self.n_nodes), index(self.source), index(self.target)
        except TypeError:
            raise InputError("n_nodes, source and target must be integers") from None
        limit = default_caps().dag_nodes
        if n > limit:
            raise ResourceLimitError(f"DAG node count {n} exceeds dag_nodes cap ({limit})")
        if n <= 0:
            raise InputError("DAG needs at least one node")
        try:  # a wrong length fails the unpacking, a non-integer ``index``
            edges = sorted_unique((index(u), index(v)) for (u, v) in self.edges)
        except (TypeError, ValueError):
            raise InputError("edges must be (u, v) pairs of node indices") from None
        vars(self).update(n_nodes=n, edges=edges, source=source, target=target)
        for (u, v) in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge {(u, v)} out of range")
        for node in (source, target):
            if not 0 <= node < n:
                raise InputError(f"node {node} out of range")
        # Kahn's algorithm; leftovers mean a cycle
        indeg = [0] * n
        succ: dict[int, list[int]] = {}
        for (u, v) in edges:
            indeg[v] += 1
            succ.setdefault(u, []).append(v)
        queue = deque(q for q in range(n) if indeg[q] == 0)
        seen = 0
        while queue:
            u = queue.popleft()
            seen += 1
            for v in succ.get(u, ()):
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
        if seen != n:
            raise InputError("graph has a cycle; a DAG is required")


def parse_dag(text: str) -> Dag:
    """Line format: ``nodes: n``, ``source: s`` and ``target: t`` once
    each, repeated ``edge: u v``; '#' starts a comment token.  The node
    count's cap is the value's: ``Dag`` checks it before it builds anything."""
    single: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    for lineno, raw, tokens in tokenize(text):
        head, rest = tokens[0], tokens[1:]
        key = head[:-1]
        if key in single:
            raise InputError(f"line {lineno}: duplicate directive {key!r}")
        try:
            if head == "edge:" and len(rest) == 2:
                edges.append((int(rest[0]), int(rest[1])))
                continue
            if head in ("nodes:", "source:", "target:") and len(rest) == 1:
                single[key] = int(rest[0])
                continue
        except ValueError:
            raise InputError(f"line {lineno}: expected integers in {raw!r}") from None
        raise InputError(f"line {lineno}: cannot parse {raw!r}")
    if len(single) < 3:
        raise InputError("DAG file needs nodes:, source: and target: lines")
    return Dag(single["nodes"], tuple(edges), single["source"], single["target"])


def dag_reachable(g: Dag) -> bool:
    """Plain BFS reachability; the independent oracle for the gadget."""
    succ: dict[int, list[int]] = {}
    for (u, v) in g.edges:
        succ.setdefault(u, []).append(v)
    seen = {g.source}
    queue = deque([g.source])
    while queue:
        u = queue.popleft()
        if u == g.target:
            return True
        for v in succ.get(u, ()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return g.target in seen


_UNARY = ("a",)


def dag_gadget(g: Dag) -> Nfa:
    """Unary ptNFA with 2n-1 states: node states (all accepting) carry the
    DAG edges that do not leave the target, a non-accepting chain
    f1..f_{n-1} catches departures, the target keeps the only self-loop, and
    the chain re-enters the target.  Universal iff the target is reachable
    from the source; the edges out of the target are dropped because each
    would close a cycle through the chain, and reaching the target already
    decides the question."""
    n, t = g.n_nodes, g.target
    # node v is state v, f_i is state n + i - 1
    arcs = [(u, 0, v) for (u, v) in g.edges if u != t]
    arcs += [(v, 0, n) for v in range(n) if v != t]
    arcs += [(i, 0, i + 1) for i in range(n, 2 * n - 2)]
    arcs.append((t, 0, t))
    if n > 1:
        arcs.append((2 * n - 2, 0, t))
    names = [f"n{v}" for v in range(n)] + [f"f{i}" for i in range(1, n)]
    return Nfa._build(2 * n - 1, _UNARY, arcs, (g.source,), range(n), tuple(names))
