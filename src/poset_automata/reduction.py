"""Reduction from the word problem of space-bounded DTMs to ptNFA
universality.

Given a machine M, an input x and a space bound p, the pipeline builds a
ptNFA over the pair alphabet Pi = Sigma_n x Delta_{#$} that accepts every
word except the ones spelling W_{k,n} in their first components while
encoding an accepting run of M on x in their second components.  Hence the
output is universal iff M does not accept x within space p.  ``choose_kn``
picks, among the A_{k,n} whose |W_{k,n}| holds the run, the one with the
least estimated work S*(4*n*|Delta_{#$}| + |W_{k,n}|), S = n(2k+1)+1 its
states: the printed table, n*|Delta_{#$}| letters per emitted state, plus
the search, about |W_{k,n}| subsets of about S states each.  Any factor
from 1.5 to 12 in place of 4 picks the same backbones for the micro
machines at p = 1..6.

Components, in the output's state order:
  enc-backbone  enc(A_{k,n}): A_{k,n} with every a_i transition duplicated
       over all second components; it accepts every word whose first
       projection is not W_{k,n}.
  (A)  words differing from the initial configuration at some position
       0..p+1 (one chain c_0..c_{p+1});
  (B)  windows of three consecutive symbols whose successor cell, one
       configuration later, is not the one forced by M's transition
       function (a tree over the window's first two symbols, then one delay
       line of p states per verdict of ``expected_next``).  Where M halts,
       leaving the tape included, the verdict is IMPOSSIBLE: only $ may
       follow, and C.2 then rejects the run's non-accepting end;
  (C)  runs that end prematurely (C.1), in a non-accepting state (C.2),
       with more than p trailing $ (C.3), or with $ followed by another
       symbol (C.4).

A check cannot simply end in a fresh accepting sink (that would break the
unique-maximal-state property), so every leading Pi* is read by the
backbone and every missing transition is completed into a state (k+1;i),
from which the unread rest of W_{k,n} is never accepted.  Checks start at
the hosts (i;m), i < k: accepting backbone states whose self-loops are
exactly the letters with first component a_1..a_{m-1}, so entries through
a_m..a_n keep the result self-loop deterministic.  So k sets the length of
each level's chain, the k*n hosts and the completion targets' level k+1,
and n sets the letters: n first components, |Pi| = n*|Delta_{#$}|.

Deviation from the paper.  The paper gives every check its own copy of the
backbone and takes the disjoint union of the parts (p+6 copies here).  This
module builds one copy and attaches every check to it, merges check states
with equal futures, folds part A's p+2 position chains into one, and drops
part A's automaton for words shorter than the initial configuration.  The
language stays the same:

(1) One backbone accepts the union of the parts.  Let U hold the states
    (i;m) with i > k, and max.  Every arc of A_{k,n} from U stays in U
    (``build_aknn``: rule 1 is a self-loop, rule 2 leads from (i;m) to
    (i+1;m), rules 3 and 6 lead to max and (k+1;m), rules 4 and 5 leave
    only states with i < k), and no check is entered from U, so no host
    and no check state is reachable from U.  The arcs of a check P lead to
    P's own states, to the completion targets (k+1;i) and to max, all but
    the first in U.  So an accepting run starts in the backbone or in a
    check, enters at most one check P, and from then on stays in P and U:
    every arc it takes belongs to "backbone + P" on its own.  Conversely
    each part's runs are runs of the whole.  The language is therefore the
    union of the parts' languages, as in the paper.
(2) Non-initial states with equal arcs and equal acceptance have equal
    futures.  ``_Backbone.shared`` keeps one state per (acceptance, arc
    row), as in acyclic-automaton minimisation (Revuz 1992; Daciuk et al.
    2000), and registers only states whose arcs are final when made, so a
    part handed an earlier part's state accepts what it would alone.  A
    state is made by hand only when it needs a self-loop or two arcs under
    one letter.  This rule makes every merge.  The paper's state for the
    window (dl, dc, dr) reads p-1 arbitrary letters, then exits under
    (a_i, d) to (k+1;i) when the window's verdict v from ``expected_next``
    permits d, and to max otherwise; so all windows with one verdict v
    share a delay line, and part B's w[dl,dc] and w[dl] with equal
    successor rows are one state.  The $-runs of C.1 (d_1..d_p), C.2 (h,
    then g_1..g_p) and C.3 (s_1..s_{p+1}) read $ into the next state and
    exit on anything else, so C.2's g_j is C.1's d_j, C.3's last state is
    d_p, and C.2's h is C.1's last chain state u_p.  C.4 exits into max.
(3) One chain does the work of part A.  c_t reads any letter into c_{t+1}
    (t <= p) and exits under (a_i, d) to (k+1;i) when d is the forced
    symbol of position t and to max otherwise.  No c_t is accepting, so an
    accepting run leaves the chain at some c_t, and from there on it is a
    run of the paper's chain for position t.  Words of length <= p+1 need
    no automaton of their own: ``choose_kn`` makes |W_{k,n}| >= 1 +
    C(x)(p+1) > p+1, so the backbone accepts them.
(4) W_{k,n} need only hold runs that visit no configuration twice, so C(x)
    counts configurations, not configuration words.  A deterministic run
    that comes back to a configuration never halts (``simulate_dtm``'s
    "loop"), so an accepting run visits each of its configurations once:
    at most (|Q|-1)*p*|T|^p with a non-accepting state, then the accepting
    one, where the run ends.  The count reads only M's signature and p,
    never the run, so choosing (k, n) decides nothing.

The ptNFA property carries over from the parts: arcs lead from the backbone
into the checks and from the checks into U, never back, and from a shared
state only to older states, so the order stays partial; a host's entries,
from every part alike, avoid its self-loop letters, and no shared state has
a self-loop, so self-loop determinism holds; and every state keeps all the
arcs it has in its own part, so the result is complete.  The tests check
completeness, partial order and UMS on the outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap
from math import comb
from typing import Optional, Sequence

from .caps import default_caps
from .core import Nfa, Word, _check_names
from .dtm import Dtm, check_run_args, simulate_dtm
from .errors import InputError, ResourceLimitError
from .hardness import _st, build_aknn, sigma_alphabet, w_word

VACUOUS = "vacuous"        # window contains $: nothing to check
IMPOSSIBLE = "impossible"  # the machine halts or leaves the tape: no successor symbol


class PairAlphabet:
    """Ordered tables for Delta_{#$} = T x (Q + epsilon) + {#,$} and
    Pi = Sigma_n x Delta_{#$}; pair id = a_idx * |Delta_{#$}| + d_idx.

    ``cells`` gives each Delta id its (symbol, state marker or None): the
    tape cells, then # and $ as ``hash_id`` and ``dollar_id``, unmarked.

    A pair letter embeds the machine's names, and two cells can spell one
    letter (tape symbol x.y unmarked, and x under state y), so the letters
    are checked as they are spelled; every later use trusts them."""

    def __init__(self, m: Dtm, n: int):
        self.n_sigma = n
        cells = [(theta, q) for theta in m.tape_alphabet for q in (None, *m.states)]
        self._cell_index = {cell: i for i, cell in enumerate(cells)}
        names = [f"<{t}>" if q is None else f"<{t}.{q}>" for t, q in cells] + ["#", "$"]
        self.hash_id, self.dollar_id = len(cells), len(cells) + 1
        self.cells = (*cells, ("#", None), ("$", None))
        self.n_delta = len(self.cells)
        self.alphabet = tuple(f"({a},{name})" for a in sigma_alphabet(n) for name in names)
        _check_names(self.alphabet, "letter")

    def cell_id(self, theta: str, marker: Optional[str]) -> int:
        return self._cell_index[(theta, marker)]

    def pi_id(self, a_idx: int, d_idx: int) -> int:
        return a_idx * self.n_delta + d_idx


def expected_next(m: Dtm, pa: PairAlphabet) -> dict[tuple[int, int], tuple]:
    """For the window (dl, dc, dr), ``expected_next(m, pa)[dl, dc][dr]`` is
    the symbol forced one configuration later for the cell encoded by dc: a
    Delta id, VACUOUS (window contains $, nothing is checked) or IMPOSSIBLE
    (the machine halts here, so only $ may follow).  Leaving the tape halts
    the run too: a head in dc that moves onto dl = # or onto dr = #.  One
    row over dr per (dl, dc), in (dl, dc) order, the order in which part B
    makes its delay lines; equal rows are one tuple."""
    nd, hash_id, dollar = pa.n_delta, pa.hash_id, pa.dollar_id
    # each cell's head rule (q', write, move); IMPOSSIBLE for a live head
    # with no rule, None for no head or the accepting head
    rule = [None if q in (None, m.accepting) else m.delta.get((q, theta), IMPOSSIBLE)
            for theta, q in pa.cells]
    # the state that each cell's head brings to its right or left neighbor
    from_left = [r[0] if r not in (None, IMPOSSIBLE) and r[2] == "R" else None for r in rule]
    from_right = [r[0] if r not in (None, IMPOSSIBLE) and r[2] == "L" else None for r in rule]
    rows, distinct = {}, {}
    for dl in range(nd):
        for dc, (theta, marker) in enumerate(pa.cells):
            r = rule[dc]
            if dollar in (dl, dc):
                row = [VACUOUS] * nd
            elif r == IMPOSSIBLE or (r is not None and r[2] == "L" and dl == hash_id):
                row = [IMPOSSIBLE] * nd
            elif r is not None:
                q2, write, move = r
                row = [pa.cell_id(write, q2 if move == "S" else None)] * nd
                if move == "R":
                    row[hash_id] = IMPOSSIBLE
            elif marker is not None or dc == hash_id:
                row = [dc] * nd  # # stays, and the accepting state loops
            elif from_left[dl] is not None:  # a head moves onto dc from dl...
                row = [pa.cell_id(theta, from_left[dl])] * nd
            else:  # ...or from dr
                row = [dc if q is None else pa.cell_id(theta, q) for q in from_right]
            row[dollar] = VACUOUS
            rows[dl, dc] = distinct.setdefault(row := tuple(row), row)
    return rows


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
    """C(x) = (|Q|-1)*p*|T|^p + 1: the most configurations an accepting run
    on a pval-cell tape can visit.  A configuration is a state, a head cell
    in 1..p and a tape in T^p; the run visits none twice (a repeat loops),
    and only its last has the accepting state, which has no rules."""
    return (len(m.states) - 1) * pval * len(m.tape_alphabet) ** pval + 1


def encode_run(m: Dtm, x: Sequence[str], pval: int, k: int, n: int) -> Word:
    """The unique word over Pi spelling W_{k,n} in the first components and
    the padded accepting-run encoding # w_1 # ... # w_r # $^j in the second.
    The accepting configuration is repeated until fewer than p+1 places
    remain, which are then filled with $ (so j <= p).  A run that does not
    accept (``simulate_dtm``'s "reject", "off-tape" or "loop") has no
    encoding and is refused with its verdict, and so is a (k, n) whose
    |W_{k,n}| cannot hold the run; ``choose_kn``'s always can."""
    pa = PairAlphabet(m, n)
    record = simulate_dtm(m, x, pval)
    if record.verdict != "accept":
        raise InputError(f"machine does not accept the input (verdict {record.verdict})")
    word = w_word(k, n)
    total = len(word)
    blocks = (total - 1) // (pval + 1)
    dollars = (total - 1) % (pval + 1)
    if blocks < len(record.configs):
        raise InputError(f"|W_{{{k},{n}}}| = {total} is too short for the run")
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
# the shared backbone


class _Backbone:
    """The automaton under construction: enc(A_{k,n}) under A_{k,n}'s own
    state names, then the checks attached to it.  States are indices; n is
    ``pa.n_sigma``.

    Every a_i transition of A_{k,n} is duplicated over all second
    components and the initial states are kept, so the backbone accepts
    Pi^* minus the W_{k,n} encodings on its own."""

    def __init__(self, pa: PairAlphabet, k: int):
        self.pa = pa
        n, nd = pa.n_sigma, pa.n_delta
        base = build_aknn(k, n)
        self.names = list(base.state_names)
        self.initial = list(base.initial)
        self.accepting = list(base.accepting)
        self.arcs = [(q, a_idx * nd + d, r) for (q, a_idx, r) in base.transitions
                     for d in range(nd)]
        index = base.state_index
        self.max = index["max"]  # the accepting sink
        # completion state (k+1;i) for first component a_i: the rest of
        # W_{k,n} is never accepted from it (suffix-rejection corollary)
        self.target = tuple(index[_st(k + 1, a_idx + 1)] for a_idx in range(n))
        # (host, minimal conflict-free a_idx): (i;m) with i < k is accepting
        # and carries self-loops exactly under a_1..a_{m-1}; entries through
        # a_m..a_n cannot create the forbidden self-loop/exit pattern.  max
        # never hosts entries.
        self.hosts = tuple((index[_st(i, m)], m - 1)
                           for m in range(1, n + 1) for i in range(k))
        self.register: dict[tuple[bool, tuple[int, ...]], int] = {}
        # (a_idx, d) of every pair letter, by pair id: the arguments of dst_of
        self.pairs = tuple(divmod(x, nd) for x in range(len(pa.alphabet)))

    def state(self, name: str, *, initial: bool = False, accepting: bool = False) -> int:
        q = len(self.names)
        self.names.append(name)
        if initial:
            self.initial.append(q)
        if accepting:
            self.accepting.append(q)
        return q

    def fan(self, src: int, dst_of) -> None:
        """Arcs src --(a_i, d)--> dst_of(i, d) over every pair letter; a None
        destination adds no arc."""
        self.arcs += [(src, x, dst) for x, dst in enumerate(starmap(dst_of, self.pairs))
                      if dst is not None]

    def host_entries(self, entry_of) -> None:
        """Attach a check entry at every host: host --(a,d)--> entry_of(d) for
        every conflict-free first component a."""
        n, nd = self.pa.n_sigma, self.pa.n_delta
        entries = [(d, dst) for d in range(nd) if (dst := entry_of(d)) is not None]
        for (host, min_a) in self.hosts:
            self.arcs += [(host, a_idx * nd + d, dst)
                          for a_idx in range(min_a, n) for (d, dst) in entries]

    def shared(self, name: str, dst_of, accepting: bool = False) -> int:
        """The one state with arcs exactly (a_i, d) --> dst_of(i, d) and
        acceptance ``accepting``, made under ``name`` on the first call with
        this pair.  Its arcs are final: no ``fan`` or ``host_entries`` may
        extend it."""
        row = tuple(starmap(dst_of, self.pairs))
        q = self.register.get((accepting, row))
        if q is None:
            q = self.register[accepting, row] = self.state(name, accepting=accepting)
            self.arcs += [(q, x, dst) for x, dst in enumerate(row)]
        return q

    def dollar_run(self, states: Sequence[tuple[str, bool]]) -> int:
        """Shared states from (name, accepting) pairs: each reads $ into the
        next one; every other letter, and $ at the last state, exits to the
        completion target.  Built from the last state; returns the first."""
        dollar, q = self.pa.dollar_id, None
        for name, accepting in reversed(states):
            q = self.shared(name, lambda a_idx, d: (q if d == dollar and q is not None
                                                    else self.target[a_idx]), accepting)
        return q

    def chain(self, names: Sequence[str], symbol: int, tail: int,
              accepting: bool = False) -> int:
        """States under ``names``: each reads any letter into the next one
        and ``symbol`` into ``tail``; the last, shared, exits to the
        completion target on every other symbol.  Built from the last state;
        returns the first.  The others are new: ``symbol`` has two arcs."""
        q = self.shared(names[-1], lambda a_idx, d: tail if d == symbol
                        else self.target[a_idx], accepting)
        for name in reversed(names[:-1]):
            nxt, q = q, self.state(name, accepting=accepting)
            self.fan(q, lambda a_idx, d: nxt)
            self.fan(q, lambda a_idx, d: tail if d == symbol else None)
        return q

    def build(self) -> Nfa:
        """The automaton, built trusted: ``PairAlphabet`` checked the
        letters."""
        return Nfa._build(len(self.names), self.pa.alphabet, self.arcs, self.initial,
                          self.accepting, tuple(self.names))


# ---------------------------------------------------------------------------
# part (A): a wrong initial configuration


def build_part_a(bb: _Backbone, m: Dtm, x: Sequence[str], pval: int) -> None:
    """The chain c_0..c_{p+1}: c_t reads any letter into c_{t+1} and exits
    into max on anything but the forced initial-configuration symbol of
    position t.  Shorter words than the initial configuration are accepted
    by the backbone."""
    forced = initial_config_symbols(m, x, pval, bb.pa)
    chain = [bb.state(f"A:c{t}", initial=(t == 0)) for t in range(pval + 2)]
    for t, q in enumerate(chain):
        bb.fan(q, lambda a_idx, d: chain[t + 1] if t <= pval else None)
        bb.fan(q, lambda a_idx, d: bb.target[a_idx] if d == forced[t] else bb.max)


# ---------------------------------------------------------------------------
# part (B): a window whose forced successor symbol is violated


def build_part_b(bb: _Backbone, m: Dtm, x: Sequence[str], pval: int) -> None:
    """The window-check tree: w[dl] and w[dl,dc] read a window's first two
    symbols; the third leads to the delay line of the window's verdict, p
    states whose last one accepts (into max) exactly the symbols differing
    from the forced successor, with $ always permitted.  All of it is built
    from its ends through the register."""
    pa, nd = bb.pa, bb.pa.n_delta
    verdict = expected_next(m, pa)
    head = {}
    for v in dict.fromkeys(v for row in dict.fromkeys(verdict.values()) for v in row):
        dst_of = lambda a_idx, d: (bb.target[a_idx] if v == VACUOUS or d in (v, pa.dollar_id)
                                   else bb.max)
        for i in reversed(range(pval)):
            head[v] = bb.shared(f"B:next[{v}]" + (f"+{i}" if i else ""), dst_of)
            dst_of = lambda a_idx, d, q=head[v]: q
    w2, made = {}, {}  # one state per distinct verdict row, named after its first window
    for (dl, dc), row in verdict.items():
        if (q := made.get(row)) is None:
            q = made[row] = bb.shared(f"B:w[{dl},{dc}]", lambda a_idx, dr: head[row[dr]])
        w2[dl, dc] = q
    w1 = [bb.shared(f"B:w[{dl}]", lambda a_idx, dc: w2[dl, dc]) for dl in range(nd)]
    bb.host_entries(lambda d: w1[d])


# ---------------------------------------------------------------------------
# part (C): wrong run endings


def build_part_c1(bb: _Backbone, m: Dtm, x: Sequence[str], pval: int) -> None:
    """Run ends in an incomplete configuration: a # followed by 1..p symbols
    starting with a non-$ one, then up to p trailing $.

    The middle part deviates from the plain regular expression by requiring
    a non-$ first symbol: otherwise the check would fire on the valid
    encoding's own '# $^j' padding tail (all-$ middles are covered by the
    trailing-$ and $-before-symbol checks)."""
    dollar = bb.pa.dollar_id
    d1 = bb.dollar_run([(f"C1:d{i}", True) for i in range(1, pval + 1)])
    u1 = bb.chain([f"C1:u{i}" for i in range(1, pval + 1)], dollar, d1, accepting=True)
    u0 = bb.shared("C1:u0", lambda a_idx, d: bb.target[a_idx] if d == dollar else u1)
    bb.host_entries(lambda d: u0 if d == bb.pa.hash_id else None)


def build_part_c2(bb: _Backbone, m: Dtm, x: Sequence[str], pval: int) -> None:
    """Run ends in a configuration whose state marker is not the accepting
    one: a non-accepting marker, at most p-1 filler symbols, the closing #,
    then up to p trailing $."""
    pa = bb.pa
    bad_markers = {i for i, (_theta, q) in enumerate(pa.cells) if q not in (None, m.accepting)}
    h = bb.dollar_run([("C2:h", True)] + [(f"C2:g{j}", True) for j in range(1, pval + 1)])
    e0 = bb.chain([f"C2:e{i}" for i in range(pval)], pa.hash_id, h)
    bb.host_entries(lambda d: e0 if d in bad_markers else None)


def build_part_c3(bb: _Backbone, m: Dtm, x: Sequence[str], pval: int) -> None:
    """More than p trailing $: a chain of p+1 $-transitions whose end state
    is accepting."""
    s1 = bb.dollar_run([(f"C3:s{j}", j == pval + 1) for j in range(1, pval + 2)])
    bb.host_entries(lambda d: s1 if d == bb.pa.dollar_id else None)


def build_part_c4(bb: _Backbone, m: Dtm, x: Sequence[str], pval: int) -> None:
    """$ followed by a different symbol: C4:scan reads up to a $ into
    C4:dollar, which reads $ and exits into max on anything else."""
    dollar = bb.pa.dollar_id
    scan = bb.state("C4:scan", initial=True)
    seen = bb.state("C4:dollar")
    bb.fan(scan, lambda a_idx, d: seen if d == dollar else scan)
    bb.fan(seen, lambda a_idx, d: seen if d == dollar else bb.max)


# ---------------------------------------------------------------------------
# the full pipeline


@dataclass(frozen=True)
class ReductionArtifact:
    automaton: Nfa
    k: int
    n: int
    pval: int
    components: tuple[tuple[str, int, int], ...]  # (name, state offset, state count)
    attachment_states: tuple[str, ...]


def choose_kn(m: Dtm, x: Sequence[str], pval: int) -> tuple[int, int]:
    """The (k, n) with |W_{k,n}| = C(k+n,n)-1 >= 1 + C(x)(p+1) and the
    least estimated work S*(4*n*|Delta_{#$}| + |W_{k,n}|), S = n(2k+1)+1
    the states of A_{k,n}; on a tie the smaller n (fewer letters); k and n
    are at most the ``reduce_n`` cap.  The first term is the printed table:
    each of the n first components adds |Delta_{#$}| letters to every
    emitted state's row, which the reduction, printing, parsing and the
    step table all pay for.  The second is the search: it steps about |W|
    subsets, each costing about S.  Every factor from 1.5 to 12 in place of
    4 picks the same (k, n) for the micro machines at p = 1..6.  The cost
    grows with k, so for each n the least fitting k is the best, and the
    search makes at most reduce_n^2 ``comb`` calls.

    A p of 2L or more, L = reduce_n, is refused before C(x) is computed, as
    a guard on the cost of the output, which grows with p whatever (k, n)
    is.  Where the tape has two symbols or more the refusal is also forced:
    C(x) >= p*2^p + 1 then, so 1 + C(x)(p+1) > 2^p >= 4^L > C(2L,L) >
    |W_{L,L}|, the longest word under the cap.  A one-symbol tape (no input
    symbols) makes C(x) polynomial in p, and there the guard refuses bounds
    that some A(k,n) under the cap holds."""
    limit = default_caps().reduce_n
    if pval >= 2 * limit:
        raise ResourceLimitError(f"space bound {pval} is at least twice the reduce_n cap "
                                 f"({limit})")
    need = 1 + config_count(m, pval) * (pval + 1)
    n_delta = len(m.tape_alphabet) * (len(m.states) + 1) + 2
    fits = []  # (cost, n, k)
    for n in range(1, limit + 1):
        k = next((k for k in range(1, limit + 1) if comb(k + n, n) - 1 >= need), None)
        if k is not None:
            states = n * (2 * k + 1) + 1
            fits.append((states * (4 * n * n_delta + comb(k + n, n) - 1), n, k))
    if not fits:
        raise ResourceLimitError(f"reduction needs k or n above the reduce_n cap ({limit})")
    _cost, n, k = min(fits)
    return k, n


def reduce(m: Dtm, x: Sequence[str], pval: int) -> ReductionArtifact:
    """Build the full ptNFA; universal iff M does not accept x in space p."""
    check_run_args(m, x, pval)
    k, n = choose_kn(m, x, pval)
    bb = _Backbone(PairAlphabet(m, n), k)
    components = [("enc-backbone", 0, len(bb.names))]
    for name, build_part in (("part-a", build_part_a), ("part-b", build_part_b),
                             ("part-c1", build_part_c1), ("part-c2", build_part_c2),
                             ("part-c3", build_part_c3), ("part-c4", build_part_c4)):
        offset = len(bb.names)
        build_part(bb, m, x, pval)
        components.append((name, offset, len(bb.names) - offset))
    hosts = tuple(bb.names[host] for host, _min_a in bb.hosts)
    return ReductionArtifact(bb.build(), k, n, pval, tuple(components), hosts)
