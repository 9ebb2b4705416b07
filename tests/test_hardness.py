import itertools
import random
from math import comb

import pytest

from poset_automata.classify import classify
from poset_automata.core import Nfa, accepts, print_automaton
from poset_automata.errors import InputError, ResourceLimitError
from poset_automata.hardness import (Dag, build_aknn, dag_gadget, dag_reachable,
                                     parse_dag, trim_aknn, w_word)
from poset_automata.sampling import random_dag

from conftest import w_reference
from poset_automata.selftest import rejects_exactly
from poset_automata.universality import universal, universal_subset

from conftest import check_suffix_rejection


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
