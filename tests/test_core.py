import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poset_automata.caps import Caps
from poset_automata.classify import is_ptnfa
from poset_automata.core import (Nfa, accepts, complement, complete_nfa,
                                 determinize, enumerate_language, format_word,
                                 language_equal_bounded, make_alphabet,
                                 parse_automaton, parse_word, print_automaton,
                                 product, reach_order, step, union_disjoint)
from poset_automata.errors import InputError, ResourceLimitError
from poset_automata.hardness import build_aknn
from poset_automata.sampling import random_nfa


def simple_nfa(n, letters, trans, initial, accepting):
    return Nfa(n, make_alphabet([f"a{i + 1}" for i in range(letters)]),
               tuple(trans), tuple(initial), tuple(accepting),
               tuple(f"s{i}" for i in range(n)))


def words_up_to(n_letters, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(range(n_letters), repeat=length)


def brute_language(a, max_len):
    """Independent oracle: literal membership test of every word."""
    return [w for w in words_up_to(a.n_letters, max_len) if accepts(a, w)]


@st.composite
def small_nfas(draw, max_states=6, max_letters=3):
    n = draw(st.integers(1, max_states))
    L = draw(st.integers(1, max_letters))
    trans = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, L - 1), st.integers(0, n - 1)),
        max_size=n * L * 3))
    initial = draw(st.lists(st.integers(0, n - 1), max_size=n))
    accepting = draw(st.lists(st.integers(0, n - 1), max_size=n))
    return simple_nfa(n, L, trans, initial, accepting)


# ---------------------------------------------------------------------------
# step / accepts


def _mask(states):
    return sum(1 << q for q in set(states))


def _image(a, states, x):
    """One-letter image straight from the transition list."""
    return frozenset(r for (q, y, r) in a.transitions if y == x and q in states)


@given(small_nfas(), st.data())
@settings(max_examples=200, deadline=None)
def test_step_table_matches_transition_images(a, data):
    top = a.n_states - 1
    everything = frozenset(range(a.n_states))
    for x in range(a.n_letters):
        assert a.step_mask(0, x) == 0
        for q in range(a.n_states):
            assert a.succ_mask(q, x) == _mask(_image(a, {q}, x))
        subset = data.draw(st.frozensets(st.integers(0, top)))
        for states in (subset, subset | {top}, everything):
            assert a.step_mask(_mask(states), x) == _mask(_image(a, states, x))


def test_step_table_letter_without_arcs_and_top_state():
    # letter a2 has no arcs; the highest state is both a source and a target,
    # and 70 states make the masks wider than a machine word
    a = simple_nfa(70, 2, [(0, 0, 69), (69, 0, 0), (69, 0, 69), (5, 0, 6)], [0], [])
    assert a.step_rows[1] == (0,) * 70
    assert a.step_mask((1 << 70) - 1, 1) == 0
    assert a.succ_mask(69, 0) == 1 | 1 << 69
    assert a.step_mask(1 << 69, 0) == 1 | 1 << 69
    assert a.step_mask(1 | 1 << 5 | 1 << 69, 0) == 1 | 1 << 6 | 1 << 69
    assert a.step_mask(0, 0) == 0


def test_step_empty_set_is_empty():
    a = build_aknn(1, 1)
    assert step(a, [], 0) == ()


def test_step_on_aknn_base_case():
    a = build_aknn(1, 1)
    got = step(a, [a.state_index["(0;1)"]], 0)
    assert [a.state_names[q] for q in got] == ["(1;1)"]


def test_step_complete_automaton_nonempty():
    a = build_aknn(2, 2)
    all_states = range(a.n_states)
    for x in range(a.n_letters):
        assert step(a, all_states, x)


def test_step_rejects_foreign_letter():
    a = build_aknn(1, 1)
    with pytest.raises(InputError):
        step(a, [0], 5)


def test_accepts_epsilon_iff_initial_accepting():
    a = simple_nfa(2, 1, [(0, 0, 1)], [0], [0])
    assert accepts(a, ())
    b = simple_nfa(2, 1, [(0, 0, 1)], [0], [1])
    assert not accepts(b, ())


def test_accepts_on_a22():
    a = build_aknn(2, 2)
    assert not accepts(a, (0, 0, 1, 0, 1))  # the unique rejected word
    assert accepts(a, (0, 1))


def test_accepts_rejects_foreign_letter():
    a = build_aknn(1, 1)
    with pytest.raises(InputError):
        accepts(a, (0, 3))


@given(small_nfas(), st.data())
@settings(max_examples=60, deadline=None)
def test_step_distributes_over_union(a, data):
    s1 = data.draw(st.lists(st.integers(0, a.n_states - 1), max_size=a.n_states))
    s2 = data.draw(st.lists(st.integers(0, a.n_states - 1), max_size=a.n_states))
    x = data.draw(st.integers(0, a.n_letters - 1))
    joint = set(step(a, set(s1) | set(s2), x))
    assert joint == set(step(a, s1, x)) | set(step(a, s2, x))


# ---------------------------------------------------------------------------
# reach_order


def test_reach_order_single_state():
    a = simple_nfa(1, 1, [], [0], [0])
    assert reach_order(a).is_partial_order


def test_reach_order_two_cycle():
    a = simple_nfa(2, 1, [(0, 0, 1), (1, 0, 0)], [0], [0])
    ro = reach_order(a)
    assert not ro.is_partial_order
    assert ro.reaches(0, 1) and ro.reaches(1, 0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_reach_order_aknn_level3(k):
    assert reach_order(build_aknn(k, 3)).is_partial_order


@given(small_nfas())
@settings(max_examples=60, deadline=None)
def test_reach_order_is_transitively_closed(a):
    ro = reach_order(a)
    n = a.n_states
    for p in range(n):
        for q in range(n):
            if ro.reaches(p, q):
                for r in range(n):
                    if ro.reaches(q, r):
                        assert ro.reaches(p, r)


# ---------------------------------------------------------------------------
# determinize / complement / product


def test_determinize_fixpoint_on_total_dfa():
    a = simple_nfa(3, 2, [(0, 0, 1), (0, 1, 0), (1, 0, 2), (1, 1, 1),
                          (2, 0, 2), (2, 1, 2)], [0], [2])
    d = determinize(a)
    assert d.n_states == 3
    assert language_equal_bounded(a, d.to_nfa(), 8) is None


def test_determinize_complement_of_a12_is_exactly_w12():
    a = build_aknn(1, 2)
    comp = complement(determinize(a)).to_nfa()
    expected = [w for w in words_up_to(2, 4) if not accepts(a, w)]
    assert expected == [(0, 1)]  # independent oracle: only a1 a2 is rejected
    assert brute_language(comp, 4) == expected
    assert enumerate_language(comp, 4) == expected


def test_determinize_no_accepting_states():
    a = simple_nfa(2, 1, [(0, 0, 1), (1, 0, 0)], [0], [])
    d = determinize(a)
    assert enumerate_language(d.to_nfa(), 4) == []


def test_determinize_cap():
    with pytest.raises(ResourceLimitError):
        determinize(build_aknn(3, 3), Caps(det_states=4))


@given(small_nfas())
@settings(max_examples=60, deadline=None)
def test_determinize_preserves_bounded_language(a):
    d = determinize(a)
    assert enumerate_language(a, 6) == enumerate_language(d.to_nfa(), 6)


def test_complement_requires_total():
    from poset_automata.core import Dfa
    d = Dfa(1, make_alphabet(["a1"]), ((None,),), 0, (0,), ("s0",), partial=True)
    with pytest.raises(InputError):
        complement(d)


def test_complement_is_involution():
    a = build_aknn(2, 2)
    d = determinize(a)
    cc = complement(complement(d))
    assert language_equal_bounded(a, cc.to_nfa(), 7) is None


def test_intersect_with_complement_is_empty():
    a = build_aknn(1, 2)
    comp = complement(determinize(a)).to_nfa()
    inter = product(a, comp, "intersect")
    assert enumerate_language(inter, 6) == []


def test_product_requires_same_alphabet():
    with pytest.raises(InputError):
        product(build_aknn(1, 1), build_aknn(1, 2), "intersect")


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_product_soundness(seed):
    rng = random.Random(seed)
    a = random_nfa(rng, max_states=4, max_letters=2)
    b = random_nfa(rng, max_states=4, max_letters=2)
    if a.n_letters != b.n_letters:
        b = simple_nfa(b.n_states, a.n_letters,
                       [t for t in b.transitions if t[1] < a.n_letters],
                       b.initial, b.accepting)
    la, lb = set(brute_language(a, 4)), set(brute_language(b, 4))
    inter = set(brute_language(product(a, b, "intersect"), 4))
    union = set(brute_language(product(a, b, "union"), 4))
    assert inter == la & lb
    assert union == la | lb


def test_union_disjoint_preserves_ptnfa():
    u = union_disjoint([build_aknn(1, 2), build_aknn(2, 2)])
    ok, failures = is_ptnfa(u)
    assert ok, failures


def test_union_disjoint_rejects_empty_and_mismatched():
    with pytest.raises(InputError):
        union_disjoint([])
    with pytest.raises(InputError):
        union_disjoint([build_aknn(1, 1), build_aknn(1, 2)])


def test_complete_nfa_adds_sink():
    a = simple_nfa(2, 2, [(0, 0, 1)], [0], [1])
    c = complete_nfa(a)
    assert c.n_states == 3
    assert is_ptnfa(c)[1].get("complete") is None
    assert language_equal_bounded(a, c, 5) is None
    assert complete_nfa(c) is c  # already complete


# ---------------------------------------------------------------------------
# enumerate_language


def test_enumerate_empty_language():
    a = simple_nfa(1, 2, [], [0], [])
    assert enumerate_language(a, 3) == []


def test_enumerate_aknn11_up_to_two():
    a = build_aknn(1, 1)
    got = enumerate_language(a, 2)
    assert got == [w for w in words_up_to(1, 2) if w != (0,)]


def test_enumerate_saturated_with_accepting_initial():
    a = simple_nfa(1, 2, [(0, 0, 0), (0, 1, 0)], [0], [0])
    assert enumerate_language(a, 1) == [(), (0,), (1,)]


def test_enumerate_orders_length_then_lex():
    a = complete_nfa(simple_nfa(1, 2, [(0, 0, 0), (0, 1, 0)], [0], [0]))
    got = enumerate_language(a, 3)
    assert got == sorted(got, key=lambda w: (len(w), w))


def test_enumerate_length_cap():
    a = build_aknn(1, 1)
    with pytest.raises(ResourceLimitError):
        enumerate_language(a, 5, Caps(enum_len=4))
    with pytest.raises(InputError):
        enumerate_language(a, -1)


@given(small_nfas())
@settings(max_examples=40, deadline=None)
def test_enumerate_matches_literal_membership(a):
    assert enumerate_language(a, 4) == brute_language(a, 4)


# ---------------------------------------------------------------------------
# text format


GOLDEN = """alphabet: a1 a2
states: s0 s1
initial: s0
accepting: s1
trans: s0 a1 s1
trans: s0 a2 s0
trans: s1 a1 s1
"""


def test_print_golden():
    a = simple_nfa(2, 2, [(0, 0, 1), (1, 0, 1), (0, 1, 0)], [0], [1])
    assert print_automaton(a) == GOLDEN


def test_parse_print_roundtrip_golden():
    a = parse_automaton(GOLDEN)
    assert print_automaton(a) == GOLDEN
    assert parse_automaton(print_automaton(a)) == a


def test_parse_accepts_comments_and_blank_lines():
    text = "# heading\n\nalphabet: a1\nstates: s0   # inline\ninitial: s0\naccepting:\n"
    a = parse_automaton(text)
    assert a.n_states == 1 and a.accepting == ()


def test_parse_errors():
    with pytest.raises(InputError):
        parse_automaton("alphabet: a\nstates: q\ninitial: q\n")  # missing accepting
    with pytest.raises(InputError):
        parse_automaton(GOLDEN + "trans: s0 a9 s1\n")  # unknown letter
    with pytest.raises(InputError):
        parse_automaton(GOLDEN + "bogus: x\n")
    with pytest.raises(InputError):
        parse_automaton("alphabet: a1\nstates: #bad\ninitial: #bad\naccepting:\n")


def test_parse_word_and_format_word():
    a = parse_automaton(GOLDEN)
    assert parse_word(a, ["a1", "a2"]) == (0, 1)
    assert format_word(a, (0, 1)) == "a1 a2"
    with pytest.raises(InputError):
        parse_word(a, ["zz"])


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_roundtrip_on_random_automata(seed):
    a = random_nfa(random.Random(seed))
    text = print_automaton(a)
    assert parse_automaton(text) == a
    assert print_automaton(parse_automaton(text)) == text
