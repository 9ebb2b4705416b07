import os
import random
from collections import deque
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (accepting_machine, chain_nfa, reference_universal_state_mask,
                      rejecting_machine, simple_nfa)
from poset_automata.core import Nfa, accepts
from poset_automata.errors import InputError, ResourceLimitError
from poset_automata.hardness import Dag, build_aknn, dag_gadget, trim_aknn, w_word
from poset_automata.reduction import reduce
from poset_automata.sampling import (random_nfa, random_saturated,
                                     random_unary_po)
from poset_automata.universality import (UniversalityResult, format_result,
                                         universal, universal_antichain,
                                         universal_brute, universal_sponfa,
                                         universal_state_mask, universal_subset,
                                         universal_unary_po)


def saturated_chain(n, accept_initial):
    trans = [(q, 0, q) for q in range(n)] + [(q, 0, q + 1) for q in range(n - 1)]
    accepting = list(range(1, n)) + ([0] if accept_initial else [])
    return simple_nfa(n, 1, trans, [0], accepting)


# ---------------------------------------------------------------------------
# spoNFA constant check


def test_sponfa_universal_when_initial_accepting():
    res = universal_sponfa(saturated_chain(3, accept_initial=True))
    assert res.universal and res.method == "spoNFA-constant"


def test_sponfa_no_accepting_states():
    a = simple_nfa(1, 1, [(0, 0, 0)], [0], [])
    res = universal_sponfa(a)
    assert not res.universal and res.counterexample == ()


def test_sponfa_chain_agrees_with_oracle():
    a = saturated_chain(3, accept_initial=False)
    res = universal_sponfa(a)
    oracle = universal_subset(a)
    assert res.universal == oracle.universal is False
    assert res.counterexample == ()


def test_sponfa_requires_saturation():
    with pytest.raises(InputError):
        universal_sponfa(build_aknn(1, 1))


# ---------------------------------------------------------------------------
# unary pumping check


def test_unary_gadget_with_path_is_universal():
    res = universal_unary_po(dag_gadget(Dag(3, ((0, 1), (1, 2)), 0, 2)))
    assert res.universal


def test_unary_gadget_without_path_counterexample():
    g = Dag(3, ((0, 1),), 0, 2)
    res = universal_unary_po(dag_gadget(g))
    assert not res.universal
    assert res.counterexample == (0,) * (g.n_nodes - 1)


def test_unary_all_accepting_complete():
    a = simple_nfa(2, 1, [(0, 0, 1), (1, 0, 1)], [0], [0, 1])
    assert universal_unary_po(a).universal


def test_unary_preconditions():
    with pytest.raises(InputError):
        universal_unary_po(build_aknn(1, 2))  # two letters
    cyclic = simple_nfa(2, 1, [(0, 0, 1), (1, 0, 0)], [0], [0, 1])
    with pytest.raises(InputError):
        universal_unary_po(cyclic)


# ---------------------------------------------------------------------------
# antichain and the subset oracle


def test_antichain_on_a22():
    res = universal_antichain(build_aknn(2, 2))
    assert not res.universal
    assert res.counterexample == w_word(2, 2) == (0, 0, 1, 0, 1)
    assert res.explored > 0


def test_antichain_all_accepting_dfa():
    a = simple_nfa(2, 2, [(0, 0, 1), (0, 1, 0), (1, 0, 1), (1, 1, 1)], [0], [0, 1])
    assert universal_antichain(a).universal


def test_antichain_empty_initial_rejects_epsilon():
    a = simple_nfa(1, 1, [(0, 0, 0)], [], [0])
    res = universal_antichain(a)
    assert not res.universal and res.counterexample == ()


def test_antichain_node_cap(monkeypatch):
    a = build_aknn(3, 3)
    monkeypatch.setenv("POSET_AUTOMATA_CAPS", "antichain_nodes=3")
    with pytest.raises(ResourceLimitError):
        universal_antichain(a)


@pytest.mark.parametrize("k,n", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3),
                                 (3, 1), (2, 3), (3, 2), (3, 3), (1, 4), (4, 1)])
def test_antichain_counterexample_is_wkn(k, n):
    res = universal_antichain(build_aknn(k, n))
    assert not res.universal
    assert res.counterexample == w_word(k, n)


@pytest.mark.slow
@pytest.mark.parametrize("k,n", [(2, 4), (4, 2), (3, 4), (4, 3), (4, 4)])
def test_antichain_counterexample_is_wkn_slow(k, n):
    res = universal_antichain(build_aknn(k, n))
    assert res.counterexample == w_word(k, n)


def test_brute_force_bounded():
    res = universal_brute(build_aknn(1, 1))
    assert not res.universal and res.counterexample == (0,)


def test_brute_node_cap_counts_every_word(monkeypatch):
    """enum_nodes is checked before a word's set joins the level list: a
    universal one-state two-letter automaton checks 1 + 2 + 4 words up to
    length 2^1, so a cap of 7 suffices and a cap of 6 fires."""
    a = simple_nfa(1, 2, [(0, 0, 0), (0, 1, 0)], [0], [0])
    monkeypatch.setenv("POSET_AUTOMATA_CAPS", "enum_nodes=7")
    res = universal_brute(a)
    assert res.universal and res.explored == 7
    monkeypatch.setenv("POSET_AUTOMATA_CAPS", "enum_nodes=6")
    with pytest.raises(ResourceLimitError, match="enum_nodes cap"):
        universal_brute(a)


def test_brute_counterexample_and_count_in_length_lex_order():
    """The first rejected word in length-lex order is a2 a1, the sixth word
    checked after e, a1, a2, a1 a1 and a1 a2."""
    trans = [(0, 0, 0), (0, 1, 1), (1, 0, 2), (1, 1, 0), (2, 0, 0), (2, 1, 0)]
    a = simple_nfa(3, 2, trans, [0], [0, 1])
    assert universal_brute(a) == UniversalityResult(False, (1, 0), "brute-force", 6, 1)


# ---------------------------------------------------------------------------
# dispatcher


def test_dispatcher_picks_sponfa():
    res = universal(saturated_chain(2, accept_initial=True))
    assert res.method == "spoNFA-constant"


def test_dispatcher_picks_unary():
    res = universal(build_aknn(2, 1))
    assert res.method == "unary-pumping"
    assert not res.universal and res.counterexample == w_word(2, 1)


def test_dispatcher_picks_antichain():
    res = universal(build_aknn(3, 3))
    assert res.method == "antichain"
    assert not res.universal


def test_result_serialization():
    a = build_aknn(2, 2)
    text = format_result(a, universal(a))
    assert text == ("universal: no\n"
                    "counterexample: a1 a1 a2 a1 a2\n"
                    "method: antichain\n"
                    "explored: 5\n")


# ---------------------------------------------------------------------------
# oracle agreement properties (acceptance runs the full-size batteries)


@given(st.integers(0, 10**9))
@settings(max_examples=200, deadline=None)
def test_antichain_agrees_with_subset_oracle(seed):
    rng = random.Random(seed)
    a = random_nfa(rng)
    fast = universal_antichain(a)
    oracle = universal_subset(a)
    assert fast.universal == oracle.universal
    if not fast.universal:
        assert len(fast.counterexample) == len(oracle.counterexample)
        assert not accepts(a, fast.counterexample)


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_subset_oracle_agrees_with_literal_enumeration(seed):
    rng = random.Random(seed)
    a = random_nfa(rng, max_states=4, max_letters=2)
    oracle = universal_subset(a)
    with mock.patch.dict(os.environ, {"POSET_AUTOMATA_CAPS": "enum_nodes=1000000"}):
        brute = universal_brute(a)
    assert oracle.universal == brute.universal
    if not oracle.universal:
        assert oracle.counterexample == brute.counterexample  # both length-lex first


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_universal_state_mask_is_sound(seed):
    rng = random.Random(seed)
    a = random_nfa(rng, max_states=5, max_letters=2)
    mask = universal_state_mask(a)
    for q in range(a.n_states):
        if mask >> q & 1:
            solo = Nfa(a.n_states, a.alphabet, a.transitions, (q,),
                       a.accepting, a.state_names)
            assert universal_subset(solo).universal


@given(st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_unary_pumping_agrees_with_literal_brute(seed):
    rng = random.Random(seed)
    a = random_unary_po(rng, max_states=6)
    res = universal_unary_po(a)
    with mock.patch.dict(os.environ, {"POSET_AUTOMATA_CAPS": "enum_nodes=1000000"}):
        brute = universal_brute(a)
    assert res.universal == brute.universal
    if not res.universal:
        assert len(res.counterexample) == len(brute.counterexample)


@given(st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_sponfa_agrees_with_oracle(seed):
    rng = random.Random(seed)
    a = random_saturated(rng, max_states=6)
    assert universal_sponfa(a).universal == universal_subset(a).universal


# ---------------------------------------------------------------------------
# the packed-column, inverted-index antichain against the first antichain
# search, a linear scan of the subset-minimal kept sets


def _linear_scan_antichain(a):
    """Reference copy of the antichain search with one list of
    subset-minimal kept sets, scanned whole for each new image and rebuilt
    without the image's supersets.  It steps every letter and drops an
    image that meets the universal states only after entering it in
    ``parents``."""
    acc = a.accepting_mask
    start = a.initial_mask
    parents = {start: None}
    if not start & acc:
        return UniversalityResult(False, (), "antichain", 0, 0)
    u_mask = reference_universal_state_mask(a)
    if start & u_mask:
        return UniversalityResult(True, None, "antichain", 0, 0)
    minimal = [start]
    queue = deque([start])
    explored = 0
    max_frontier = 1
    while queue:
        mask = queue.popleft()
        explored += 1
        for x in range(a.n_letters):
            img = a.step_mask(mask, x)
            if img in parents:
                continue
            parents[img] = (mask, x)
            if not img & acc:
                word = []
                node = img
                while parents[node] is not None:
                    node, letter = parents[node]
                    word.append(letter)
                return UniversalityResult(False, tuple(reversed(word)), "antichain",
                                          explored, max_frontier)
            if img & u_mask:
                continue
            dominated = False
            keep = []
            for v in minimal:
                if v & img == v:
                    dominated = True
                    break
                if img & v == img:
                    continue
                keep.append(v)
            if dominated:
                continue
            keep.append(img)
            minimal = keep
            queue.append(img)
            max_frontier = max(max_frontier, len(queue))
    return UniversalityResult(True, None, "antichain", explored, max_frontier)


@given(st.integers(0, 10**9))
@settings(max_examples=300, deadline=None)
def test_antichain_matches_linear_scan_reference(seed):
    """Verdict, counterexample, explored and max_frontier all equal."""
    rng = random.Random(seed)
    a = random_nfa(rng, max_states=8, max_letters=3)
    assert universal_antichain(a) == _linear_scan_antichain(a)


@pytest.mark.parametrize("generator", [random_saturated, random_unary_po])
def test_antichain_matches_linear_scan_reference_on_other_classes(generator):
    """Saturated and unary partially ordered instances, which the
    dispatcher never sends to the antichain search."""
    rng = random.Random(6)
    for _ in range(400):
        a = generator(rng, max_states=8)
        assert universal_antichain(a) == _linear_scan_antichain(a)


@pytest.mark.parametrize("k,n", [(k, n) for k in range(1, 6) for n in range(1, 6)]
                         + [(7, 4), (4, 7), (6, 5), (5, 6)])
def test_antichain_matches_linear_scan_reference_on_aknn(k, n):
    """Every k, n <= 5 and the other shapes the A(k,n) benchmark decides;
    a thin search keeps one image per node."""
    a = build_aknn(k, n)
    assert universal_antichain(a) == _linear_scan_antichain(a)
    t = trim_aknn(k, n)
    assert universal_antichain(t) == _linear_scan_antichain(t)


@pytest.mark.parametrize("machine,pval",
                         [(m, p) for m in (accepting_machine, rejecting_machine) for p in (1, 2)]
                         + [(accepting_machine, 3)])
def test_antichain_matches_linear_scan_reference_on_reductions(machine, pval):
    """Here a popped node keeps several images, so the remaining letters of
    a node are stepped after other sets were kept."""
    a = reduce(machine(), "1", pval).automaton
    res = universal_antichain(a)
    assert res == _linear_scan_antichain(a)
    assert res.universal == (machine is rejecting_machine)


# ---------------------------------------------------------------------------
# the letter skip: wide alphabets with planted universal states


def _wide_nfa_with_universal_states(rng):
    """8-24 letters over a few ordinary states plus one to three planted
    universal states: accepting, and every letter moves each of them to
    another one.  Each ordinary state has a successor under every letter,
    so no image is empty, and only a few of its arcs lead into the planted
    states, so a popped set steps into them under some letters but not
    all.  The start set holds state 0, which accepts, and no planted
    state; the last ordinary state never accepts, so that the ordinary
    states are not all universal."""
    n_plain = rng.randint(3, 8)
    n_univ = rng.randint(1, 3)
    n = n_plain + n_univ
    L = rng.randint(8, 24)
    univ = range(n_plain, n)
    trans = [(q, x, rng.choice(univ)) for q in univ for x in range(L)]
    into_univ = rng.choice([0.1, 0.25, 0.4])
    for q in range(n_plain):
        for x in range(L):
            trans += [(q, x, r) for r in rng.sample(range(n_plain), rng.randint(1, 2))]
            if rng.random() < into_univ:
                trans.append((q, x, rng.choice(univ)))
    initial = (0,) + tuple(q for q in range(1, n_plain) if rng.random() < 0.3)
    acc_p = rng.choice([0.6, 0.75, 0.9])
    accepting = (0,) + tuple(q for q in range(1, n_plain - 1) if rng.random() < acc_p) + tuple(univ)
    return simple_nfa(n, L, trans, initial, accepting), sum(1 << q for q in univ)


@pytest.mark.parametrize("seed", range(6))
def test_antichain_letter_skip_matches_references_on_wide_alphabets(seed):
    """(universal, counterexample, explored, max_frontier) equal the linear
    scan's, which steps every letter; the verdict and the counterexample
    length equal the plain subset search's."""
    rng = random.Random(1300 + seed)
    for _ in range(60):
        a, planted = _wide_nfa_with_universal_states(rng)
        assert universal_state_mask(a) & planted == planted
        res = universal_antichain(a)
        assert res == _linear_scan_antichain(a)
        oracle = universal_subset(a)
        assert res.universal == oracle.universal
        if not res.universal:
            assert len(res.counterexample) == len(oracle.counterexample)
            assert not accepts(a, res.counterexample)


def test_wide_alphabet_family_exercises_the_skip():
    """The family is not vacuous: in most cases the search pops the start
    set, and its image under some letter, but not every letter, meets the
    universal states."""
    rng = random.Random(1300)
    partial = 0
    for _ in range(60):
        a, _ = _wide_nfa_with_universal_states(rng)
        u = universal_state_mask(a)
        meets = [a.step_mask(a.initial_mask, x) & u != 0 for x in range(a.n_letters)]
        if universal_antichain(a).explored and any(meets) and not all(meets):
            partial += 1
    assert partial >= 30


# ---------------------------------------------------------------------------
# the universal-state worklist against the full-sweep reference


@given(st.integers(0, 10**9))
@settings(max_examples=300, deadline=None)
def test_universal_state_mask_matches_sweep_reference(seed):
    rng = random.Random(seed)
    a = random_nfa(rng, max_states=10, max_letters=3)
    assert universal_state_mask(a) == reference_universal_state_mask(a)


def test_universal_state_mask_matches_sweep_reference_on_wide_alphabets():
    rng = random.Random(13)
    for _ in range(200):
        a, _ = _wide_nfa_with_universal_states(rng)
        assert universal_state_mask(a) == reference_universal_state_mask(a)


def test_universal_state_mask_matches_sweep_reference_on_aknn():
    for k in range(1, 6):
        for n in range(1, 6):
            for a in (build_aknn(k, n), trim_aknn(k, n)):
                assert universal_state_mask(a) == reference_universal_state_mask(a)


@pytest.mark.parametrize("pval", [1, 2])
@pytest.mark.parametrize("machine", [accepting_machine, rejecting_machine])
def test_universal_state_mask_matches_sweep_reference_on_reductions(machine, pval):
    a = reduce(machine(), "1", pval).automaton
    assert universal_state_mask(a) == reference_universal_state_mask(a)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("closed", [False, True])
def test_universal_state_mask_on_chains(reverse, closed):
    """A cascade as long as the chain: the sweep needs one pass per state
    in the forward direction.  At 4,000 states the expected mask is known
    (none or all of the states); at 300 it is the reference's."""
    expected = (1 << 4000) - 1 if closed else 0
    assert universal_state_mask(chain_nfa(4000, reverse, closed)) == expected
    small = chain_nfa(300, reverse, closed)
    assert universal_state_mask(small) == reference_universal_state_mask(small)
