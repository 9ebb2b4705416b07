import itertools
import random
import re
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poset_automata.classify import classify
from poset_automata.core import Nfa, accepts, print_automaton
from poset_automata.errors import InputError, ResourceLimitError
from poset_automata.hardness import (Dag, build_aknn, dag_gadget, dag_reachable,
                                     parse_dag, trim_aknn, w_word)
from poset_automata.sampling import random_dag

from conftest import w_reference
from poset_automata.selftest import rejects_exactly
from poset_automata.universality import universal, universal_subset

from conftest import check_suffix_rejection, reference_parse_dag


def words_up_to(n_letters, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(range(n_letters), repeat=length)


# ---------------------------------------------------------------------------
# W_{k,n}


def test_w_word_base_cases():
    assert w_word(1, 3) == (0, 1, 2)
    assert w_word(0, 5) == ()
    assert w_word(5, 0) == ()
    assert w_word(3, 1) == (0, 0, 0)


def test_w_word_recursion_at_22():
    assert w_word(2, 2) == w_word(2, 1) + (1,) + w_word(1, 2) == (0, 0, 1, 0, 1)
    assert len(w_word(2, 2)) == comb(4, 2) - 1


def test_w_word_length_and_last_letter_count():
    for k in range(9):
        for n in range(1, 9):
            w = w_word(k, n)
            assert w == w_reference(k, n), (k, n)
            if k:
                assert len(w) == comb(k + n, n) - 1
                assert w.count(n - 1) == k
            else:
                assert w == ()


@pytest.mark.parametrize("k, n", [(2, 1500), (1500, 2)])
def test_w_word_deep_levels_need_no_recursion(k, n):
    assert len(w_word(k, n)) == comb(1502, 2) - 1


def test_w_word_caps(monkeypatch):
    monkeypatch.setenv("POSET_AUTOMATA_CAPS", "word_len=1000000")
    with pytest.raises(ResourceLimitError):
        w_word(30, 30)
    with pytest.raises(InputError):
        w_word(-1, 2)


def test_w_word_cap_holds_at_its_bound(monkeypatch):
    monkeypatch.setenv("POSET_AUTOMATA_CAPS", "word_len=251")
    assert len(w_word(5, 5)) == 251  # C(10,5) - 1
    for k, n in ((5, 6), (6, 5)):  # C(11,5) - 1 = 461
        with pytest.raises(ResourceLimitError):
            w_word(k, n)


# ---------------------------------------------------------------------------
# A_{k,n}


def test_aknn_arc_cap_is_exact_and_checked_first(monkeypatch):
    """The cap counts A_{k,n}'s transitions exactly, and it is checked
    before anything is built, so a huge k and n fail at once."""
    arcs = len(build_aknn(3, 4).transitions)
    monkeypatch.setenv("POSET_AUTOMATA_CAPS", f"aknn_arcs={arcs}")
    assert build_aknn(3, 4).transitions
    monkeypatch.setenv("POSET_AUTOMATA_CAPS", f"aknn_arcs={arcs - 1}")
    with pytest.raises(ResourceLimitError, match="aknn_arcs cap"):
        build_aknn(3, 4)
    monkeypatch.setenv("POSET_AUTOMATA_CAPS", "aknn_arcs=1000000")
    with pytest.raises(ResourceLimitError, match="aknn_arcs cap"):
        build_aknn(10**9, 10**9)


def test_aknn_11_shape_and_rejected_set():
    a = build_aknn(1, 1)
    assert a.n_states == 4
    rejected = [w for w in words_up_to(1, 3) if not accepts(a, w)]
    assert rejected == [(0,)]


def test_aknn_23_state_count():
    assert build_aknn(2, 3).n_states == 3 * 5 + 1 == 16


def test_aknn_state_count_formula():
    for k in range(1, 5):
        for n in range(1, 5):
            assert build_aknn(k, n).n_states == n * (2 * k + 1) + 1


def test_aknn_state_roles():
    """(0;m) initial, (i;m) accepting iff i < k, max the accepting sink."""
    for k, n in ((2, 3), (3, 2)):
        a = build_aknn(k, n)
        assert set(a.initial) == {a.state_index[f"(0;{m})"] for m in range(1, n + 1)}
        expected_acc = {a.state_index[f"({i};{m})"]
                        for m in range(1, n + 1) for i in range(k)}
        expected_acc.add(a.state_index["max"])
        assert set(a.accepting) == expected_acc
        mx = a.state_index["max"]
        for x in range(a.n_letters):
            assert a.succ[(mx, x)] == (mx,)


def test_aknn_classifies_as_ptnfa():
    assert classify(build_aknn(2, 2)).label == "ptNFA"


def test_aknn_requires_positive_parameters():
    with pytest.raises(InputError):
        build_aknn(0, 1)


@pytest.mark.parametrize("k,n", [(1, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 3),
                                 (1, 4), (4, 1)])
def test_exact_language_law(k, n):
    """A_{k,n} rejects W_{k,n} and no other word."""
    assert rejects_exactly(build_aknn(k, n), w_word(k, n))


def test_rejects_exactly_wrong_words():
    a = build_aknn(2, 2)
    for word in ((0, 0, 1, 0, 0), (), (0, 0, 1, 0, 1, 0), (1, 0, 1, 0, 0)):
        assert not rejects_exactly(a, word)
    assert not rejects_exactly(build_aknn(2, 3), w_word(2, 2))


def _mutants(a):
    """Each single-arc deletion and each single flip of an accepting state."""
    for t in a.transitions:
        yield "arc", Nfa(a.n_states, a.alphabet, tuple(u for u in a.transitions if u != t),
                         a.initial, a.accepting, a.state_names)
    for q in range(a.n_states):
        yield "flip", Nfa(a.n_states, a.alphabet, a.transitions, a.initial,
                          tuple(set(a.accepting) ^ {q}), a.state_names)


@pytest.mark.parametrize("build", [build_aknn, trim_aknn])
def test_rejects_exactly_on_mutants(build):
    """On every mutant of A_{2,2} (and of its trimmed variant), the exact
    law agrees with literal membership of every word up to length |W|+2;
    both mutant kinds include some that change the language, and the law
    fails on each of those."""
    word = w_word(2, 2)
    changed = set()
    for kind, m in _mutants(build(2, 2)):
        bounded = [w for w in words_up_to(2, len(word) + 2) if not accepts(m, w)] == [word]
        assert rejects_exactly(m, word) == bounded, (kind, m)
        if not bounded:
            changed.add(kind)
    assert changed == {"arc", "flip"}


# ---------------------------------------------------------------------------
# trimming


def test_trim_11_state_count():
    t = trim_aknn(1, 1)
    assert t.n_states == 3
    assert rejects_exactly(t, w_word(1, 1))


def test_trim_classifies_rponfa_incomplete():
    t = trim_aknn(2, 2)
    rep = classify(t)
    assert rep.label == "rpoNFA"
    assert not rep.complete


@pytest.mark.parametrize("k,n", [(k, n) for k in (1, 2, 3) for n in (1, 2, 3)])
def test_trim_language_equivalent(k, n):
    """Trimming keeps the language: every word except W_{k,n}."""
    assert rejects_exactly(trim_aknn(k, n), w_word(k, n))


# ---------------------------------------------------------------------------
# suffix rejection (every suffix a_i w of W: w rejected from (k+1;i))


@pytest.mark.parametrize("k,n", [(1, 2), (2, 2), (3, 3)])
def test_suffix_rejection(k, n):
    assert check_suffix_rejection(k, n)


def test_suffix_rejection_covers_every_position():
    # 19 suffix positions at (3,3): one per letter of W_{3,3}
    assert len(w_word(3, 3)) == 19


# ---------------------------------------------------------------------------
# DAG gadget


def test_dag_requires_acyclic():
    with pytest.raises(InputError):
        Dag(2, ((0, 1), (1, 0)), 0, 1)


@pytest.mark.parametrize("edges", [((0, 1, 2),), ((0, "1"),), ((0, 1), (0, "1")), ((0,),),
                                   ((0, 1.0),)])
def test_dag_refuses_malformed_edges(edges):
    with pytest.raises(InputError, match=r"^edges must be \(u, v\) pairs of node indices$"):
        Dag(3, edges, 0, 2)


@pytest.mark.parametrize("n_nodes,source,target", [(3, "0", 2), ("3", 0, 2), (3, 0.5, 2),
                                                   (3, 0, None), (3.0, 0, 2)])
def test_dag_refuses_non_integer_nodes(n_nodes, source, target):
    with pytest.raises(InputError, match=r"^n_nodes, source and target must be integers$"):
        Dag(n_nodes, (), source, target)


def test_dag_refuses_more_nodes_than_the_cap(monkeypatch):
    monkeypatch.setenv("POSET_AUTOMATA_CAPS", "dag_nodes=10")
    with pytest.raises(ResourceLimitError) as err:
        Dag(11, (), 0, 1)
    assert str(err.value) == "DAG node count 11 exceeds dag_nodes cap (10)"
    assert Dag(10, (), 0, 1).n_nodes == 10


def test_dag_gadget_two_nodes_reachable():
    gadget = dag_gadget(Dag(2, ((0, 1),), 0, 1))
    # brute force to length 2*2: every word accepted
    assert all(accepts(gadget, w) for w in words_up_to(1, 4))
    assert universal(gadget).universal


def test_dag_gadget_isolated_target():
    g = Dag(3, ((0, 1),), 0, 2)
    gadget = dag_gadget(g)
    res = universal(gadget)
    assert not res.universal
    assert res.counterexample == (0, 0)  # a^{n-1} for n = 3


def test_dag_gadget_is_ptnfa():
    rep = classify(dag_gadget(Dag(4, ((0, 1), (1, 3)), 0, 3)))
    assert rep.label == "ptNFA"
    # an edge out of the target would close a cycle through the f chain
    assert classify(dag_gadget(Dag(3, ((2, 0),), 0, 2))).label == "ptNFA"


def test_dag_gadget_state_count():
    for n in (1, 2, 5):
        g = Dag(n, (), 0, n - 1)
        assert dag_gadget(g).n_states == 2 * n - 1


def test_dag_gadget_text_is_pinned():
    """The gadget's bytes for the 3-node DAG of the CI smoke step (its one
    edge leaves the target and is dropped) and for a 1-node DAG."""
    g = parse_dag("nodes: 3\nedge: 2 0\nsource: 0\ntarget: 2\n")
    assert print_automaton(dag_gadget(g)) == (
        "alphabet: a\nstates: n0 n1 n2 f1 f2\ninitial: n0\naccepting: n0 n1 n2\n"
        "trans: n0 a f1\ntrans: n1 a f1\ntrans: n2 a n2\n"
        "trans: f1 a f2\ntrans: f2 a n2\n")
    assert print_automaton(dag_gadget(Dag(1, (), 0, 0))) == (
        "alphabet: a\nstates: n0\ninitial: n0\naccepting: n0\ntrans: n0 a n0\n")


def test_dag_gadget_battery_against_bfs():
    rng = random.Random(42)
    for _ in range(100):
        g = random_dag(rng)
        gadget = dag_gadget(g)
        assert classify(gadget).label == "ptNFA"
        res = universal(gadget)
        assert res.universal == dag_reachable(g)
        if not res.universal:
            assert not accepts(gadget, (0,) * (g.n_nodes - 1))
            oracle = universal_subset(gadget)
            assert len(res.counterexample) == len(oracle.counterexample)


def test_parse_dag():
    g = parse_dag("# comment\nnodes: 3\nedge: 0 1\nedge: 1 2\nsource: 0\ntarget: 2\n")
    assert g == Dag(3, ((0, 1), (1, 2)), 0, 2)
    for edges in ([[0, 1], [1, 2]], [[1, 2], [0, 1]]):  # lists, sorted or not
        listed = Dag(3, edges, 0, 2)
        assert listed == g and hash(listed) == hash(g)
    with pytest.raises(InputError):
        parse_dag("nodes: 2\nsource: 0\n")
    with pytest.raises(InputError):
        parse_dag("nodes: two\nsource: 0\ntarget: 1\n")


def test_parse_dag_comments():
    g = parse_dag("nodes: 3  # three\nedge: 0 1 # first\nedge: 1 2\n"
                  "source: 0\ntarget: 2 #\n")
    assert g == Dag(3, ((0, 1), (1, 2)), 0, 2)
    # '#' inside a token does not start a comment
    with pytest.raises(InputError, match="line 2: expected integers"):
        parse_dag("nodes: 3\nedge: 0 1#2\nsource: 0\ntarget: 2\n")


def test_parse_dag_error_wording():
    """A line of no known shape cannot be parsed; a known one with a
    non-integer says so."""
    with pytest.raises(InputError, match="^line 1: cannot parse 'bogus: 1'$"):
        parse_dag("bogus: 1\n")
    with pytest.raises(InputError, match="^line 2: cannot parse 'edge: 1'$"):
        parse_dag("nodes: 2\nedge: 1\n")
    with pytest.raises(InputError, match="^line 1: expected integers in 'nodes: x'$"):
        parse_dag("nodes: x\n")


def test_parse_dag_rejects_duplicate_directives():
    body = "nodes: 3\nedge: 0 1\nsource: 0\ntarget: 2\n"
    with pytest.raises(InputError, match="^line 2: duplicate directive 'nodes'$"):
        parse_dag("nodes: 3\nnodes: 2\nsource: 0\ntarget: 1\n")
    with pytest.raises(InputError, match="^line 5: duplicate directive 'source'$"):
        parse_dag(body + "source: 1\n")
    with pytest.raises(InputError, match="^line 6: duplicate directive 'target'$"):
        parse_dag(body + "# comment\ntarget: 2\n")


# ---------------------------------------------------------------------------
# the one-pass DAG reader, the forward-edge cycle test and the gadget's arc
# order, each against a reference


def _dag_outcome(f, text):
    """The ``Dag`` that ``f`` reads, or the type and message of its error."""
    try:
        return f(text)
    except (InputError, ResourceLimitError) as exc:
        return (type(exc).__name__, str(exc))


_DAG_CORPUS = [
    "# a DAG\nnodes: 3 # three\nedge: 0 1\nedge: 1 2 #\n#edge: 2 0\nsource: 0\ntarget: 2\n",
    "nodes: 3\nedge: 0 1#2\nsource: 0\ntarget: 2\n",
    "nodes: 3\nedge: 0 1 #2\nsource: 0\ntarget: 2\n",
    "\n\nnodes: 3\r\n\r\nedge:\t0\t2\r\nsource: 0\x85target: 2\u2028edge: 1 2",
    "\tnodes:  3 \n  source:\t0\n\ttarget: 1 \n\n",
    "nodes: +8\nedge: 007 ٣\nsource: 0\ntarget: 2\n",
    "nodes: 4\nedge: +0 ٣\nedge: 0 3\nedge: 0 3\nsource: 000\ntarget: 3\n",
    "nodes: 3\nnodes: 3\nsource: 0\ntarget: 1\n",
    "nodes: 3\nsource: 0\ntarget: 1\nsource: 1\n",
    "nodes: 3\nbogus: 1\nsource: 0\ntarget: 1\n",
    "nodes: 3\nnodes 3\nsource: 0\ntarget: 1\n",
    "nodes: 3\nnodes? 1\nsource: 0\ntarget: 1\n",
    "nodes: 3\nsource: 0\n",
    "edge: 0 1\n",
    "",
    "# only a comment\n",
    "nodes: 3\nedge: 1\nsource: 0\ntarget: 2\n",
    "nodes: 3\nedge: 0 1 2\nsource: 0\ntarget: 2\n",
    "nodes: 3\nsource: 0 1\ntarget: 2\n",
    "nodes: 3\nnodes: 3\nedge: 0 x\nsource: 0\ntarget: 2\n",
    "nodes: 3\nedge: 0 x\nnodes: 3\nsource: 0\ntarget: 2\n",
    "nodes: 3\nsource: 0\nsource: x\ntarget: 2\n",
    "nodes: x\nedge: 1\n",
    "nodes: 3\nedge: 0 1.0\nsource: 0\ntarget: 2\n",
    "nodes: 3\nedge: 0 5\nsource: 0\ntarget: 9\n",
    "nodes: 3\nedge: -1 2\nsource: 0\ntarget: 2\n",
    "nodes: 3\nedge: 1 3\nsource: 0\ntarget: 2\n",
    "nodes: 3\nedge: 2 1\nedge: 1 2\nsource: 0\ntarget: 7\n",
    "nodes: 3\nedge: 2 1\nedge: 1 2\nsource: 0\ntarget: 2\n",
    "nodes: 3\nedge: 1 1\nsource: 0\ntarget: 2\n",
    "nodes: 3\nedge: 2 0\nedge: 1 0\nsource: 2\ntarget: 0\n",
    "nodes: 0\nsource: 0\ntarget: 0\n",
    "nodes: 10000000\nsource: 0\ntarget: 0\n",
]

_DAG_SEPARATORS = st.sampled_from([" ", "  ", "\t", "\xa0", "\u3000"])
_DAG_BREAKS = st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0b", "\x85", "\u2028"])


def _spellings(i):
    """Ways to write the integer i that ``int`` reads: plain, with a sign,
    with leading zeros, and in Arabic-Indic digits."""
    return [str(i), f"+{i}", f"00{i}", chr(0x660 + i)]


_DAG_BAD_INTS = st.sampled_from(["0", "1", "2", "3", "+3", "007", "٣", "-1", "x", "1#2",
                                 "1.0", "#"])


@st.composite
def dag_texts(draw):
    """DAG texts, valid and not: each directive once, twice or missing, edges
    of two and four tokens beside the usual three, integers written with a
    sign, leading zeros or other digits, or not integers at all, unknown
    directives, comments at line start and mid-line next to ``1#2`` tokens,
    blank lines, tabs and other whitespace, and several line breaks.  About
    half the texts are drawn clean (each directive once, nodes in range,
    three tokens to an edge, no junk lines), so that many of them parse or
    fail only on a cycle."""
    clean = draw(st.booleans())
    n = draw(st.integers(1, 5))
    ints = (st.integers(0, n - 1).map(_spellings).flatmap(st.sampled_from) if clean
            else _DAG_BAD_INTS)
    lines = [["nodes:", draw(st.sampled_from(_spellings(n)))]] if clean else []
    for key in ("source:", "target:") if clean else ("nodes:", "source:", "target:"):
        for _ in range(1 if clean else draw(st.sampled_from([1, 1, 1, 0, 2]))):
            lines.append([key, draw(ints)])
    for _ in range(draw(st.integers(0, 6))):
        size = 2 if clean else draw(st.sampled_from([1, 2, 2, 2, 3]))
        lines.append(["edge:", *draw(st.lists(ints, min_size=size, max_size=size))])
    junk = ["", "# note"] + ([] if clean else ["bogus: 1", "edge", "nodes: 1 2"])
    for _ in range(draw(st.integers(0, 2))):
        lines.append(draw(st.sampled_from(junk)).split())
    lines = draw(st.permutations(lines))
    out = []
    for tokens in lines:
        if draw(st.integers(0, 5)) == 0:
            at = len(tokens) if clean else draw(st.integers(0, len(tokens)))
            tokens = tokens[:at] + [draw(st.sampled_from(["#", "#c", "# c"]))] + tokens[at:]
        out.append(draw(st.sampled_from(["", "", "\t"])) + draw(_DAG_SEPARATORS).join(tokens))
    return "".join(line + draw(_DAG_BREAKS) for line in out)


@pytest.mark.parametrize("text", _DAG_CORPUS)
def test_dag_reader_matches_reference_on_corpus(text):
    assert _dag_outcome(parse_dag, text) == _dag_outcome(reference_parse_dag, text)


def test_dag_reader_corpus_reaches_every_outcome():
    """The corpus parses some texts and words every fault the reader knows."""
    outcomes = [_dag_outcome(parse_dag, text) for text in _DAG_CORPUS]
    faults = {re.sub(r"^line \d+: (\w+) .*", r"\1", out[1])
              for out in outcomes if isinstance(out, tuple)}
    assert sum(isinstance(out, Dag) for out in outcomes) == 7
    assert faults == {"duplicate", "cannot", "expected", "graph has a cycle; a DAG is required",
                      "DAG file needs nodes:, source: and target: lines",
                      "edge (0, 5) out of range", "edge (-1, 2) out of range",
                      "edge (1, 3) out of range",
                      "node 7 out of range", "DAG needs at least one node",
                      "DAG node count 10000000 exceeds dag_nodes cap (1000000)"}
    # a bad integer after a duplicate directive: the duplicate's line comes first
    body = "edge: 0 x\nsource: 0\ntarget: 2\n"
    assert _dag_outcome(parse_dag, "nodes: 3\nnodes: 3\n" + body) == (
        "InputError", "line 2: duplicate directive 'nodes'")
    assert _dag_outcome(parse_dag, "nodes: 3\n" + body + "nodes: 3\n") == (
        "InputError", "line 2: expected integers in 'edge: 0 x'")


@given(dag_texts())
@example("nodes: 2\nedge: 0 1\nsource: 0\ntarget: 1")
@settings(max_examples=400, deadline=None)
def test_dag_reader_matches_reference(text):
    assert _dag_outcome(parse_dag, text) == _dag_outcome(reference_parse_dag, text)


def _acyclic(n, edges):
    """Three-colour depth-first search: no edge reaches a node on the path."""
    succ = [[] for _ in range(n)]
    for (u, v) in edges:
        succ[u].append(v)
    colour = [0] * n  # 0 unseen, 1 on the path, 2 done
    for root in range(n):
        if colour[root]:
            continue
        colour[root] = 1
        stack = [(root, iter(succ[root]))]
        while stack:
            node, rest = stack[-1]
            for v in rest:
                if colour[v] == 1:
                    return False
                if colour[v] == 0:
                    colour[v] = 1
                    stack.append((v, iter(succ[v])))
                    break
            else:
                colour[node] = 2
                stack.pop()
    return True


def _reference_gadget_arcs(g):
    """The gadget's arcs as three comprehensions and two appends, then sorted."""
    n, t = g.n_nodes, g.target
    arcs = [(u, 0, v) for (u, v) in g.edges if u != t]
    arcs += [(v, 0, n) for v in range(n) if v != t]
    arcs += [(i, 0, i + 1) for i in range(n, 2 * n - 2)]
    arcs.append((t, 0, t))
    if n > 1:
        arcs.append((2 * n - 2, 0, t))
    return tuple(sorted(arcs))


def test_cycle_test_and_gadget_order_on_permuted_dags(monkeypatch):
    """2,000 seeded DAGs with their nodes relabelled, so edges run both ways,
    each also with a planted self-loop, a 2-cycle, and a back edge from the
    last node to the first of the original numbering, which closes a cycle
    iff the first reaches the last.  ``Dag`` accepts exactly the acyclic
    graphs; each gadget's arcs reach ``Nfa._build`` already in order, equal
    to the sorted reference arcs, and the gadget is universal iff the
    target is reachable."""
    passed = []  # the arcs that ``dag_gadget`` hands to ``Nfa._build``
    build = Nfa._build.__func__

    def recording_build(cls, n, alphabet, arcs, *rest):
        passed.append(list(arcs))
        return build(cls, n, alphabet, arcs, *rest)

    monkeypatch.setattr(Nfa, "_build", classmethod(recording_build))
    rng = random.Random(33)
    sides = {"upward": 0, "kahn": 0, "cycle": 0}
    for _ in range(2000):
        g = random_dag(rng)
        n = g.n_nodes
        label = rng.sample(range(n), n)
        edges = [(label[u], label[v]) for (u, v) in g.edges]
        u, v = rng.choice(g.edges) if g.edges else (0, 1)
        for extra in ((), ((1, 1),), ((label[u], label[v]), (label[v], label[u])),
                      ((label[n - 1], label[0]),)):
            graph = edges + list(extra)
            if not _acyclic(n, graph):
                sides["cycle"] += 1
                with pytest.raises(InputError, match="^graph has a cycle; a DAG is required$"):
                    Dag(n, graph, label[g.source], label[g.target])
                continue
            h = Dag(n, graph, label[g.source], label[g.target])
            sides["upward" if all(a < b for (a, b) in h.edges) else "kahn"] += 1
            del passed[:]
            gadget = dag_gadget(h)
            assert passed == [list(gadget.transitions)]
            assert gadget.transitions == _reference_gadget_arcs(h)
            assert universal(gadget).universal == dag_reachable(h)
    assert min(sides.values()) >= 500, sides
