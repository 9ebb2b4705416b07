"""Reduction from the word problem of space-bounded DTMs to ptNFA
universality.

Given a machine M, an input x and a space bound p, the pipeline builds a
ptNFA over the pair alphabet Pi = Sigma_n x Delta_{#$} that accepts every
word except the ones spelling W_{n,n} in their first components while
encoding an accepting run of M on x in their second components.  Hence the
output is universal iff M does not accept x within space p.

Components:
  (A)  words shorter than the initial configuration, or differing from it
       at some position 0..p+1 (chain automata, one per position);
  (B)  windows of three consecutive symbols whose successor cell, one
       configuration later, is not the one forced by M's transition
       function (a tree over all windows plus a length p-1 delay line);
  (C)  runs that end prematurely (C.1), in a non-accepting state (C.2),
       with more than p trailing $ (C.3), or with $ followed by another
       symbol (C.4).

Parts A-C cannot simply end in a fresh accepting sink (that would break the
unique-maximal-state property), so every leading Pi* is realized by a copy
of the W-rejecting backbone enc(A_{n,n}) and every missing transition is
completed into its states (n+1;i), from which the unread rest of W_{n,n}
is never accepted.  Check entries are attached to every accepting backbone
state through exactly those letters that do not collide with its
self-loops, which keeps the result self-loop deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence

from .builder import NfaBuilder
from .caps import Caps, default_caps
from .core import Letter, Nfa, Word, union_disjoint
from .dtm import Dtm, simulate_dtm
from .errors import InputError, ResourceLimitError
from .hardness import build_aknn, w_word

VACUOUS = "vacuous"        # window contains $: nothing to check
IMPOSSIBLE = "impossible"  # the machine halts here: no successor symbol exists


class PairAlphabet:
    """Ordered tables for Delta_{#$} = T x (Q + epsilon) + {#,$} and
    Pi = Sigma_n x Delta_{#$}; pair id = a_idx * |Delta_{#$}| + d_idx."""

    def __init__(self, m: Dtm, n: int):
        self.machine = m
        self.n_sigma = n
        decode: list[tuple] = []
        names: list[str] = []
        for theta in m.tape_alphabet:
            decode.append(("cell", theta, None))
            names.append(f"<{theta}>")
            for q in m.states:
                decode.append(("cell", theta, q))
                names.append(f"<{theta}.{q}>")
        self.hash_id = len(decode)
        decode.append(("hash",))
        names.append("#")
        self.dollar_id = len(decode)
        decode.append(("dollar",))
        names.append("$")
        self.decode = tuple(decode)
        self.delta_names = tuple(names)
        self.n_delta = len(decode)
        self._cell_index = {}
        for i, entry in enumerate(decode):
            if entry[0] == "cell":
                self._cell_index[(entry[1], entry[2])] = i
        pi_names = []
        for a in range(n):
            for d in range(self.n_delta):
                pi_names.append(f"(a{a + 1},{names[d]})")
        self.alphabet: tuple[Letter, ...] = tuple(
            Letter(i, nm) for i, nm in enumerate(pi_names))

    def cell_id(self, theta: str, marker: Optional[str]) -> int:
        return self._cell_index[(theta, marker)]

    def pi_id(self, a_idx: int, d_idx: int) -> int:
        return a_idx * self.n_delta + d_idx

    def first(self, pi: int) -> int:
        return pi // self.n_delta

    def second(self, pi: int) -> int:
        return pi % self.n_delta

    def marker_ids(self, exclude: str) -> list[int]:
        """Cells carrying a state marker other than ``exclude``."""
        return [i for i, entry in enumerate(self.decode)
                if entry[0] == "cell" and entry[2] is not None and entry[2] != exclude]


def pair_alphabet(m: Dtm, n: int) -> PairAlphabet:
    return PairAlphabet(m, n)


def expected_next(m: Dtm, pa: PairAlphabet, dl: int, dc: int, dr: int):
    """The symbol forced one configuration later for the cell encoded by dc,
    with dl/dr its neighbors.  Returns a Delta id, VACUOUS (window contains
    $, nothing is checked) or IMPOSSIBLE (the machine halts in this window,
    so only $ may follow)."""
    entries = (pa.decode[dl], pa.decode[dc], pa.decode[dr])
    if any(e[0] == "dollar" for e in entries):
        return VACUOUS
    left, here, right = entries
    if here[0] == "hash":
        return pa.hash_id
    _, theta, marker = here
    if marker is not None:
        if marker == m.accepting:
            return dc  # the accepting state behaves as a self-loop
        rule = m.delta.get((marker, theta))
        if rule is None:
            return IMPOSSIBLE
        q2, write, move = rule
        return pa.cell_id(write, q2 if move == "S" else None)
    # unmarked cell: a head may move onto it from either neighbor
    if left[0] == "cell" and left[2] is not None and left[2] != m.accepting:
        rule = m.delta.get((left[2], left[1]))
        if rule is not None and rule[2] == "R":
            return pa.cell_id(theta, rule[0])
    if right[0] == "cell" and right[2] is not None and right[2] != m.accepting:
        rule = m.delta.get((right[2], right[1]))
        if rule is not None and rule[2] == "L":
            return pa.cell_id(theta, rule[0])
    return pa.cell_id(theta, None)


# ---------------------------------------------------------------------------
# run encoding


def initial_config_symbols(m: Dtm, x: Sequence[str], pval: int,
                           pa: PairAlphabet) -> list[int]:
    """Delta ids of the forced first p+2 positions: # <x1.q0> <x2> ... <b> #."""
    syms = [pa.hash_id]
    for i in range(1, pval + 1):
        theta = x[i - 1] if i <= len(x) else m.blank
        syms.append(pa.cell_id(theta, m.initial if i == 1 else None))
    syms.append(pa.hash_id)
    return syms


def config_count(m: Dtm, pval: int) -> int:
    """C(x): number of distinct configuration words on a pval-cell tape."""
    return (len(m.tape_alphabet) * (len(m.states) + 1)) ** pval


def encode_run(m: Dtm, x: Sequence[str], pval: int, n: int,
               caps: Caps | None = None) -> Word:
    """The unique word over Pi spelling W_{n,n} in the first components and
    the padded accepting-run encoding # w_1 # ... # w_k # $^j in the second.
    The accepting configuration is repeated until fewer than p+1 places
    remain, which are then filled with $ (so j <= p)."""
    pa = PairAlphabet(m, n)
    record = simulate_dtm(m, x, pval, step_cap=config_count(m, pval) + 1)
    if record.verdict != "accept":
        raise InputError(f"machine does not accept the input (verdict {record.verdict})")
    word = w_word(n, n, caps)
    total = len(word)
    blocks = (total - 1) // (pval + 1)
    dollars = (total - 1) % (pval + 1)
    if blocks < len(record.configs):
        raise RuntimeError("n-selection invariant violated: run does not fit |W_{n,n}|")
    w2: list[int] = [pa.hash_id]
    last = record.configs[-1]
    for i in range(blocks):
        cfg = record.configs[i] if i < len(record.configs) else last
        w2.extend(pa.cell_id(sym, marker) for (sym, marker) in cfg)
        w2.append(pa.hash_id)
    w2.extend([pa.dollar_id] * dollars)
    assert len(w2) == total
    return tuple(pa.pi_id(a, d) for a, d in zip(word, w2))


# ---------------------------------------------------------------------------
# backbone embedding


@dataclass
class _Backbone:
    prefix: str
    n: int
    hosts: tuple[tuple[str, int], ...]  # (state name, minimal conflict-free a_idx)

    def target(self, a_idx: int) -> str:
        """Completion state (n+1;i) for first component a_i: the rest of
        W_{n,n} is never accepted from it (suffix-rejection corollary)."""
        return f"{self.prefix}({self.n + 1};{a_idx + 1})"

    @property
    def max(self) -> str:
        return f"{self.prefix}max"


def _add_backbone(b: NfaBuilder, pa: PairAlphabet, n: int, prefix: str) -> _Backbone:
    """Embed enc(A_{n,n}): every a_i transition is duplicated over all second
    components.  The copy keeps its initial states, so each part accepts
    Pi^* minus the W_{n,n} encodings on its own."""
    base = build_aknn(n, n)
    for idx, name in enumerate(base.state_names):
        b.state(prefix + name, initial=idx in base.initial_set,
                accepting=idx in base.accepting_set)
    for (q, a_idx, r) in base.transitions:
        src, dst = prefix + base.state_names[q], prefix + base.state_names[r]
        for d in range(pa.n_delta):
            b.arc(src, pa.pi_id(a_idx, d), dst)
    # (i;m) with i < n is accepting and carries self-loops exactly under
    # a_1..a_{m-1}; entries through a_m..a_n cannot create the forbidden
    # self-loop/exit pattern.  max never hosts entries.
    hosts = tuple((f"{prefix}({i};{m})", m - 1)
                  for m in range(1, n + 1) for i in range(n))
    return _Backbone(prefix, n, hosts)


def _host_entries(b: NfaBuilder, pa: PairAlphabet, backbone: _Backbone,
                  entry_of) -> None:
    """Attach a check entry at every host: host --(a,d)--> entry_of(d) for
    every conflict-free first component a."""
    for (host, min_a) in backbone.hosts:
        for a_idx in range(min_a, pa.n_sigma):
            for d in range(pa.n_delta):
                tgt = entry_of(d)
                if tgt is not None:
                    b.arc(host, pa.pi_id(a_idx, d), tgt)


def _all_pairs(pa: PairAlphabet):
    for a_idx in range(pa.n_sigma):
        for d in range(pa.n_delta):
            yield a_idx, d, pa.pi_id(a_idx, d)


# ---------------------------------------------------------------------------
# part (A): wrong or missing initial configuration


def build_part_a(m: Dtm, x: Sequence[str], pval: int, n: int,
                 pa: PairAlphabet | None = None) -> Nfa:
    """Union of a confluent DFA for all words of length <= p+1 and, per
    position j <= p+1, a chain that accepts Pi^j (anything but the forced
    initial-configuration symbol) Pi^*."""
    pa = pa or PairAlphabet(m, n)
    forced = initial_config_symbols(m, x, pval, pa)
    parts = []

    short = NfaBuilder(pa.alphabet)
    for i in range(pval + 2):
        short.state(f"Alen:{i}", initial=(i == 0), accepting=True)
    short.state("Alen:dead")
    for i in range(pval + 2):
        dst = f"Alen:{i + 1}" if i < pval + 1 else "Alen:dead"
        for (_a, _d, pi) in _all_pairs(pa):
            short.arc(f"Alen:{i}", pi, dst)
    for (_a, _d, pi) in _all_pairs(pa):
        short.arc("Alen:dead", pi, "Alen:dead")
    parts.append(short.build())

    for j in range(pval + 2):
        b = NfaBuilder(pa.alphabet)
        bb = _add_backbone(b, pa, n, f"A{j}:")
        for t in range(j + 1):
            b.state(f"A{j}:c{t}", initial=(t == 0))
        for t in range(j):
            for (_a, _d, pi) in _all_pairs(pa):
                b.arc(f"A{j}:c{t}", pi, f"A{j}:c{t + 1}")
        for (a_idx, d, pi) in _all_pairs(pa):
            dst = bb.target(a_idx) if d == forced[j] else bb.max
            b.arc(f"A{j}:c{j}", pi, dst)
        parts.append(b.build())
    return union_disjoint(parts)


# ---------------------------------------------------------------------------
# part (B): a window whose forced successor symbol is violated


def build_part_b(m: Dtm, x: Sequence[str], pval: int, n: int,
                 pa: PairAlphabet | None = None) -> Nfa:
    """Backbone plus the window-check tree: three levels keyed by the second
    components of a window, a delay line of length p-1, then an exit that
    accepts (into max) exactly the symbols differing from the forced
    successor (with $ always permitted)."""
    pa = pa or PairAlphabet(m, n)
    b = NfaBuilder(pa.alphabet)
    bb = _add_backbone(b, pa, n, "B:")
    nd = pa.n_delta

    for dl in range(nd):
        b.state(f"B:w[{dl}]")
    for dl in range(nd):
        for dc in range(nd):
            b.state(f"B:w[{dl},{dc}]")
    exits = {}
    for dl in range(nd):
        for dc in range(nd):
            for dr in range(nd):
                b.state(f"B:w[{dl},{dc},{dr}]")
                last = f"B:w[{dl},{dc},{dr}]"
                for step_i in range(1, pval):
                    b.state(f"B:w[{dl},{dc},{dr}]+{step_i}")
                    last = f"B:w[{dl},{dc},{dr}]+{step_i}"
                exits[(dl, dc, dr)] = last

    _host_entries(b, pa, bb, lambda d: f"B:w[{d}]")
    for dl in range(nd):
        for (_a, dc, pi) in _all_pairs(pa):
            b.arc(f"B:w[{dl}]", pi, f"B:w[{dl},{dc}]")
    for dl in range(nd):
        for dc in range(nd):
            for (_a, dr, pi) in _all_pairs(pa):
                b.arc(f"B:w[{dl},{dc}]", pi, f"B:w[{dl},{dc},{dr}]")
    for dl in range(nd):
        for dc in range(nd):
            for dr in range(nd):
                prev = f"B:w[{dl},{dc},{dr}]"
                for step_i in range(1, pval):
                    nxt = f"B:w[{dl},{dc},{dr}]+{step_i}"
                    for (_a, _d, pi) in _all_pairs(pa):
                        b.arc(prev, pi, nxt)
                    prev = nxt
                verdict = expected_next(m, pa, dl, dc, dr)
                for (a_idx, d, pi) in _all_pairs(pa):
                    if verdict == VACUOUS:
                        dst = bb.target(a_idx)
                    elif verdict == IMPOSSIBLE:
                        dst = bb.target(a_idx) if d == pa.dollar_id else bb.max
                    else:
                        dst = (bb.target(a_idx) if d in (verdict, pa.dollar_id)
                               else bb.max)
                    b.arc(prev, pi, dst)
    return b.build()


# ---------------------------------------------------------------------------
# part (C): wrong run endings


def build_part_c1(m: Dtm, x: Sequence[str], pval: int, n: int,
                  pa: PairAlphabet | None = None) -> Nfa:
    """Run ends in an incomplete configuration: a # followed by 1..p symbols
    starting with a non-$ one, then up to p trailing $.

    The middle part deviates from the plain regular expression by requiring
    a non-$ first symbol: otherwise the check would fire on the valid
    encoding's own '# $^j' padding tail (all-$ middles are covered by the
    trailing-$ and $-before-symbol checks)."""
    pa = pa or PairAlphabet(m, n)
    b = NfaBuilder(pa.alphabet)
    bb = _add_backbone(b, pa, n, "C1:")
    b.state("C1:u0")
    for i in range(1, pval + 1):
        b.state(f"C1:u{i}", accepting=True)
        b.state(f"C1:d{i}", accepting=True)
    _host_entries(b, pa, bb, lambda d: "C1:u0" if d == pa.hash_id else None)
    for (a_idx, d, pi) in _all_pairs(pa):
        b.arc("C1:u0", pi, "C1:u1" if d != pa.dollar_id else bb.target(a_idx))
    for i in range(1, pval + 1):
        for (a_idx, d, pi) in _all_pairs(pa):
            if d == pa.dollar_id:
                b.arc(f"C1:u{i}", pi, "C1:d1")
                if i < pval:
                    b.arc(f"C1:u{i}", pi, f"C1:u{i + 1}")
            elif i < pval:
                b.arc(f"C1:u{i}", pi, f"C1:u{i + 1}")
            else:
                b.arc(f"C1:u{i}", pi, bb.target(a_idx))
    for j in range(1, pval + 1):
        for (a_idx, d, pi) in _all_pairs(pa):
            if d == pa.dollar_id and j < pval:
                b.arc(f"C1:d{j}", pi, f"C1:d{j + 1}")
            else:
                b.arc(f"C1:d{j}", pi, bb.target(a_idx))
    return b.build()


def build_part_c2(m: Dtm, x: Sequence[str], pval: int, n: int,
                  pa: PairAlphabet | None = None) -> Nfa:
    """Run ends in a configuration whose state marker is not the accepting
    one: a non-accepting marker, at most p-1 filler symbols, the closing #,
    then up to p trailing $."""
    pa = pa or PairAlphabet(m, n)
    b = NfaBuilder(pa.alphabet)
    bb = _add_backbone(b, pa, n, "C2:")
    bad_markers = set(pa.marker_ids(exclude=m.accepting))
    for i in range(pval):
        b.state(f"C2:e{i}")
    b.state("C2:h", accepting=True)
    for j in range(1, pval + 1):
        b.state(f"C2:g{j}", accepting=True)
    _host_entries(b, pa, bb, lambda d: "C2:e0" if d in bad_markers else None)
    for i in range(pval):
        for (a_idx, d, pi) in _all_pairs(pa):
            if d == pa.hash_id:
                b.arc(f"C2:e{i}", pi, "C2:h")
                if i < pval - 1:
                    b.arc(f"C2:e{i}", pi, f"C2:e{i + 1}")
            elif i < pval - 1:
                b.arc(f"C2:e{i}", pi, f"C2:e{i + 1}")
            else:
                b.arc(f"C2:e{i}", pi, bb.target(a_idx))
    for (a_idx, d, pi) in _all_pairs(pa):
        b.arc("C2:h", pi, "C2:g1" if d == pa.dollar_id else bb.target(a_idx))
    for j in range(1, pval + 1):
        for (a_idx, d, pi) in _all_pairs(pa):
            if d == pa.dollar_id and j < pval:
                b.arc(f"C2:g{j}", pi, f"C2:g{j + 1}")
            else:
                b.arc(f"C2:g{j}", pi, bb.target(a_idx))
    return b.build()


def build_part_c3(m: Dtm, x: Sequence[str], pval: int, n: int,
                  pa: PairAlphabet | None = None) -> Nfa:
    """More than p trailing $: a chain of p+1 $-transitions whose end state
    is accepting."""
    pa = pa or PairAlphabet(m, n)
    b = NfaBuilder(pa.alphabet)
    bb = _add_backbone(b, pa, n, "C3:")
    for j in range(1, pval + 2):
        b.state(f"C3:s{j}", accepting=(j == pval + 1))
    _host_entries(b, pa, bb, lambda d: "C3:s1" if d == pa.dollar_id else None)
    for j in range(1, pval + 2):
        for (a_idx, d, pi) in _all_pairs(pa):
            if d == pa.dollar_id and j <= pval:
                b.arc(f"C3:s{j}", pi, f"C3:s{j + 1}")
            else:
                b.arc(f"C3:s{j}", pi, bb.target(a_idx))
    return b.build()


def build_part_c4(m: Dtm, x: Sequence[str], pval: int, n: int,
                  pa: PairAlphabet | None = None) -> Nfa:
    """$ followed by a different symbol: a three-state partially ordered,
    confluent DFA."""
    pa = pa or PairAlphabet(m, n)
    b = NfaBuilder(pa.alphabet)
    b.state("C4:scan", initial=True)
    b.state("C4:dollar")
    b.state("C4:hit", accepting=True)
    for (_a, d, pi) in _all_pairs(pa):
        b.arc("C4:scan", pi, "C4:dollar" if d == pa.dollar_id else "C4:scan")
        b.arc("C4:dollar", pi, "C4:dollar" if d == pa.dollar_id else "C4:hit")
        b.arc("C4:hit", pi, "C4:hit")
    return b.build()


def build_part_c(m: Dtm, x: Sequence[str], pval: int, n: int,
                 pa: PairAlphabet | None = None) -> Nfa:
    pa = pa or PairAlphabet(m, n)
    return union_disjoint([build_part_c1(m, x, pval, n, pa),
                           build_part_c2(m, x, pval, n, pa),
                           build_part_c3(m, x, pval, n, pa),
                           build_part_c4(m, x, pval, n, pa)])


# ---------------------------------------------------------------------------
# the full pipeline


@dataclass(frozen=True)
class ReductionArtifact:
    automaton: Nfa
    n: int
    pval: int
    pair_alphabet: PairAlphabet
    components: tuple[tuple[str, int, int], ...]  # (name, state offset, state count)
    attachment_states: tuple[str, ...]

    def project1(self, word: Sequence[int]) -> Word:
        return tuple(self.pair_alphabet.first(pi) for pi in word)


def choose_n(m: Dtm, x: Sequence[str], pval: int) -> int:
    """Least n with |W_{n,n}| = C(2n,n)-1 >= 1 + C(x)(p+1)."""
    need = 1 + config_count(m, pval) * (pval + 1)
    n = 1
    while comb(2 * n, n) - 1 < need:
        n += 1
    return n


def reduce(m: Dtm, x: Sequence[str], pval: int,
           caps: Caps | None = None) -> ReductionArtifact:
    """Build the full ptNFA; universal iff M does not accept x in space p."""
    caps = caps or default_caps()
    if pval < 1:
        raise InputError("space bound must be at least 1")
    if len(x) > pval:
        raise InputError(f"input length {len(x)} exceeds space bound {pval}")
    for sym in x:
        if sym not in m.input_alphabet:
            raise InputError(f"input symbol {sym!r} not in the input alphabet")
    n = choose_n(m, x, pval)
    if n > caps.reduce_n:
        raise ResourceLimitError(f"reduction needs n={n}, above the reduce_n cap "
                                 f"({caps.reduce_n})")
    pa = PairAlphabet(m, n)
    named_parts = [
        ("part-a", build_part_a(m, x, pval, n, pa)),
        ("part-b", build_part_b(m, x, pval, n, pa)),
        ("part-c1", build_part_c1(m, x, pval, n, pa)),
        ("part-c2", build_part_c2(m, x, pval, n, pa)),
        ("part-c3", build_part_c3(m, x, pval, n, pa)),
        ("part-c4", build_part_c4(m, x, pval, n, pa)),
    ]
    components = []
    offset = 0
    for name, part in named_parts:
        components.append((name, offset, part.n_states))
        if name == "part-b":
            # the backbone copy is laid down first inside part B
            components.append(("enc-backbone", offset, n * (2 * n + 1) + 1))
        offset += part.n_states
    automaton = union_disjoint([part for _, part in named_parts])
    hosts = tuple(f"B:({i};{mlev})" for mlev in range(1, n + 1) for i in range(n))
    return ReductionArtifact(automaton, n, pval, pa, tuple(components), hosts)
