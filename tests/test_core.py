import dataclasses
import functools
import random
import re
import sys
from itertools import filterfalse

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poset_automata import cli
from poset_automata.classify import is_partially_ordered
from poset_automata.core import (_COMMENT, Nfa, _check_word, accepts, format_word,
                                 parse_automaton, print_automaton)
from poset_automata.errors import InputError
from poset_automata.hardness import build_aknn
from poset_automata.sampling import random_nfa

from conftest import (accepting_machine, incrementing_machine, reach_order,
                      reference_check_word, reference_nfa_fields, reference_parse_automaton,
                      rejecting_machine, simple_nfa)


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
# step_mask / accepts


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
            assert a.step_rows[x][q] == _mask(_image(a, {q}, x))
        subset = data.draw(st.frozensets(st.integers(0, top)))
        for states in (subset, subset | {top}, everything):
            assert a.step_mask(_mask(states), x) == _mask(_image(a, states, x))


def test_step_table_letter_without_arcs_and_top_state():
    # letter a2 has no arcs; the highest state is both a source and a target,
    # and 70 states make the masks wider than a machine word
    a = simple_nfa(70, 2, [(0, 0, 69), (69, 0, 0), (69, 0, 69), (5, 0, 6)], [0], [])
    assert a.step_rows[1] == (0,) * 70
    assert a.step_mask((1 << 70) - 1, 1) == 0
    assert a.step_rows[0][69] == 1 | 1 << 69
    assert a.step_mask(1 << 69, 0) == 1 | 1 << 69
    assert a.step_mask(1 | 1 << 5 | 1 << 69, 0) == 1 | 1 << 6 | 1 << 69
    assert a.step_mask(0, 0) == 0


def test_step_empty_set_is_empty():
    a = build_aknn(1, 1)
    assert a.step_mask(0, 0) == 0


def test_step_on_aknn_base_case():
    a = build_aknn(1, 1)
    got = a.step_mask(1 << a.state_index["(0;1)"], 0)
    assert got == 1 << a.state_index["(1;1)"]


def test_step_complete_automaton_nonempty():
    a = build_aknn(2, 2)
    all_states = (1 << a.n_states) - 1
    for x in range(a.n_letters):
        assert a.step_mask(all_states, x)


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
    s1 = _mask(data.draw(st.frozensets(st.integers(0, a.n_states - 1))))
    s2 = _mask(data.draw(st.frozensets(st.integers(0, a.n_states - 1))))
    x = data.draw(st.integers(0, a.n_letters - 1))
    assert a.step_mask(s1 | s2, x) == a.step_mask(s1, x) | a.step_mask(s2, x)


# ---------------------------------------------------------------------------
# reach_order: the reachability oracle of conftest, and the partial-order
# check it backs


def test_reach_order_single_state():
    a = simple_nfa(1, 1, [], [0], [0])
    assert reach_order(a) == [{0}]
    assert is_partially_ordered(a)[0]


def test_reach_order_two_cycle():
    a = simple_nfa(2, 1, [(0, 0, 1), (1, 0, 0)], [0], [0])
    rows = reach_order(a)
    assert rows == [{0, 1}, {0, 1}]
    assert is_partially_ordered(a) == (False, (0, 1))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_reach_order_aknn_level3(k):
    a = build_aknn(k, 3)
    rows = reach_order(a)
    assert all(p not in rows[q] for p in range(a.n_states) for q in rows[p] - {p})
    assert is_partially_ordered(a)[0]


@given(small_nfas())
@settings(max_examples=60, deadline=None)
def test_reach_order_is_transitively_closed(a):
    rows = reach_order(a)
    for p in range(a.n_states):
        assert p in rows[p]
        for q in rows[p]:
            assert rows[q] <= rows[p]


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
    with pytest.raises(InputError, match="^missing directive 'accepting'$"):
        parse_automaton("alphabet: a\nstates: q\ninitial: q\n")
    with pytest.raises(InputError, match="^undeclared letter 'a9'$"):
        parse_automaton(GOLDEN + "trans: s0 a9 s1\n")
    with pytest.raises(InputError, match="^line 8: unknown directive 'bogus'$"):
        parse_automaton(GOLDEN + "bogus: x\n")
    with pytest.raises(InputError, match="^automaton needs at least one state$"):
        parse_automaton("alphabet: a1\nstates: #bad\ninitial: #bad\naccepting:\n")
    with pytest.raises(InputError, match="^duplicate letter name 'a'$"):
        parse_automaton("alphabet: a a\nstates:\ninitial: q\naccepting:\n")
    with pytest.raises(InputError, match="^duplicate state name 's'$"):
        parse_automaton("alphabet: a\nstates: s t s\ninitial: q\naccepting:\n")
    with pytest.raises(InputError, match="^undeclared state 'q'$"):
        parse_automaton("alphabet: a\nstates:\ninitial: q\naccepting:\n")


def test_format_word():
    a = parse_automaton(GOLDEN)
    assert format_word(a, (0, 1)) == "a1 a2"
    assert format_word(a, ()) == ""
    # bools are ints to ``operator.index``, as in the constructor
    assert format_word(a, (False, True)) == "a1 a2"
    assert accepts(a, (False, True)) == accepts(a, (0, 1))


class _Letter(int):
    """An int subclass: ``operator.index`` takes it, the plain-int path does not."""


def _check_word_corpus(n_letters):
    long = tuple(i % n_letters for i in range(10_000))
    return [
        (), (0,), (n_letters - 1, 0), (n_letters,), (-1,), (0, -1), (2**100,),
        (False,), (True,), (0, True), (1.0,), (1.5,), ("1",), (None,), (_Letter(0),),
        long, long + (n_letters,), (-1,) + long, long[:-1] + (1.0,),
        [0, 1], [0, n_letters], [False, 1], [], range(n_letters), "0",
    ]


def _outcome(check, word):
    try:
        check(word)
    except InputError as e:
        return str(e)
    return None


@pytest.mark.parametrize("n_letters", [1, 2, 3])
def test_check_word_matches_reference_loop(n_letters):
    """The plain-int fast path of ``_check_word`` accepts and refuses what
    the reference loop does, with the same message; an iterator keeps the
    loop's behaviour and is consumed up to its first bad letter."""
    a = simple_nfa(1, n_letters, [], [0], [0])
    ours = functools.partial(_check_word, a)
    ref = functools.partial(reference_check_word, n_letters)
    accepted = set()
    for word in _check_word_corpus(n_letters):
        got = _outcome(ours, word)
        assert got == _outcome(ref, word), word
        accepted.add(got is None)
    assert accepted == {True, False}
    for word in [(0, 0), (0, n_letters, 0, 0), (True, 1.0, 0), ()]:
        it_ours, it_ref = iter(word), iter(word)
        assert _outcome(ours, it_ours) == _outcome(ref, it_ref)
        assert list(it_ours) == list(it_ref)


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_roundtrip_on_random_automata(seed):
    a = random_nfa(random.Random(seed))
    text = print_automaton(a)
    assert parse_automaton(text) == a
    assert print_automaton(parse_automaton(text)) == text


def test_names_ending_in_newline_are_rejected():
    with pytest.raises(InputError, match="bad letter name"):
        Nfa(1, ("x\n",), (), (0,), (0,), ("s",))
    with pytest.raises(InputError, match="bad state name"):
        Nfa(1, ("x",), ((0, 0, 0),), (0,), (0,), ("s\n",))
    with pytest.raises(InputError, match="bad state name"):
        Nfa(2, ("x",), (), (0,), (0,), ("s", "t\n"))


@pytest.mark.parametrize("letters, message", [
    (("a", "#b"), "bad letter name '#b'"),
    (("a", "b c"), "bad letter name 'b c'"),
    (("a", ""), "bad letter name ''"),
    (("a", "b", "a"), "duplicate letter name 'a'"),
    (("a", "b\u3000c"), "bad letter name 'b\\u3000c'"),
    (("a", "\xa0"), "bad letter name '\\xa0'"),
])
def test_constructor_rejects_bad_and_duplicate_letter_names(letters, message):
    with pytest.raises(InputError) as err:
        Nfa(1, letters, (), (0,), (0,), ("s",))
    assert str(err.value).startswith(message)
    # the constructor checks the state names before the letter names
    with pytest.raises(InputError, match="duplicate state name"):
        Nfa(2, letters, (), (0,), (0,), ("s", "s"))


# ---------------------------------------------------------------------------
# differential checks of the one-pass ingestion against the reference copies


def _outcome(f, *args):
    """The value ``f`` returns, or the message of the ``InputError`` it raises."""
    try:
        return f(*args)
    except InputError as exc:
        return ("InputError", str(exc))


# str.split splits at \x1f, \xa0 and \u3000, but str.splitlines does not end a line there
_SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t ", "\x1f", "\xa0", "\u3000"])
# every line break that str.splitlines knows, besides \n and \r\n
_LINE_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
_COMMENTS = ["", "   ", "\t", "# only a comment", "#trans: s0 a s0"]
_JUNK = _COMMENTS + ["bogus: x", "noColon x", "trans:", "trans: s0 a", "trans: s0 a s0 s1",
                     "states", "initial: s0 # s1", "alphabet:"]


@st.composite
def automaton_texts(draw):
    """Automaton texts, valid and not: declared and undeclared names,
    duplicate and missing directives, wrong token counts, comments at line
    start and mid-line next to ``b#k`` and ``(a1,#)`` tokens that are
    names, tabs and other whitespace, every line break of
    ``str.splitlines`` (drawn line by line, so breaks mix), blank lines,
    and unsorted or duplicated ``trans:`` lines.  About half the texts are
    drawn clean (each directive once, no junk lines), and undeclared names
    go into at most the trans lines or the initial and accepting lists, so
    that many texts parse.  Now and then a clean text's ``states:`` line is
    emptied by a comment, and no other line names a state, so that its only
    fault is the empty state list."""
    clean = draw(st.booleans())
    hollow = clean and draw(st.integers(0, 7)) == 0
    spoiled = draw(st.sampled_from([(), (), ("trans",), ("initial",), ("accepting",),
                                    ("initial", "accepting")]))  # may hold undeclared names
    size = 1 if clean else 0
    states = draw(st.lists(st.sampled_from(["s0", "s1", "s2", "b#k", "(a1,#)"]),
                           min_size=size, max_size=4, unique=clean))
    letters = draw(st.lists(st.sampled_from(["a", "b", "b#k", "(a1,#)"]), min_size=size,
                            max_size=3, unique=clean))

    def names(pool, max_size, role="trans"):
        if hollow:
            return []
        if role in spoiled:
            pool = pool + ["q", "zz", "ww"]
        return draw(st.lists(st.sampled_from(pool or ["q"]), max_size=max_size))

    lines = []
    for key, tokens in (("alphabet", letters),
                        ("states", ["#" + states[0], *states[1:]] if hollow else states),
                        ("initial", names(states, 2, "initial")),
                        ("accepting", names(states, 3, "accepting"))):
        for _ in range(1 if clean else draw(st.sampled_from([1, 1, 1, 0, 2]))):
            lines.append([key + ":"] + tokens)
    trans = [["trans:", s, x, d] for s, x, d in zip(names(states, 8), names(letters, 8),
                                                     names(states, 8))]
    trans += draw(st.lists(st.sampled_from(trans), max_size=3)) if trans else []
    if draw(st.booleans()):
        rank = {name: i for i, name in enumerate(states + letters)}
        trans.sort(key=lambda t: [rank.get(tok, 99) for tok in t[1:]])
    else:
        trans = draw(st.permutations(trans))
    lines += trans
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(_COMMENTS if clean else _JUNK)).split())
    if draw(st.booleans()):
        lines = draw(st.permutations(lines))
    out = []
    for tokens in lines:
        tokens = list(tokens)
        if tokens and draw(st.integers(0, 5)) == 0:
            at = len(tokens) if clean else draw(st.integers(0, len(tokens)))
            tokens.insert(at, draw(st.sampled_from(["#c", "# note", "#", "##x"])))
        lead = draw(st.sampled_from(["", "", " ", "\t"]))
        out.append(lead + draw(_SEPARATORS).join(tokens) + draw(st.sampled_from(["", "", " "])))
    eol = st.sampled_from(["\n", "\n", "\r\n", *_LINE_BREAKS])
    ends = [draw(eol) for _ in out]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    return "".join(map(str.__add__, out, ends)) + draw(st.sampled_from(["", "", "\n"]))


@given(automaton_texts())
@example("alphabet: a\nstates: s\ninitial: x\naccepting: y\n")
@example("alphabet: a\nstates: s\ninitial: s\naccepting: y\ntrans: s b q\n")
@example("alphabet: a\nstates: s s\ninitial: s\naccepting:\ntrans: s a q\n")
@example("alphabet: a a\nstates: s s\ninitial: s\naccepting:\n")
@example("alphabet: a\nstates: #bad\ninitial: #bad\naccepting:\n")
@example("alphabet: a\nstates:\ninitial:\naccepting:\ntrans: s a s\n")
@example("alphabet: a b a\nstates: s\ninitial: q\naccepting:\n")
@example("alphabet: a\nstates: s t s\ninitial: s\naccepting: t\n")
@example("alphabet: a b#k\r\nstates: s\t#c\ninitial: s\naccepting: s\ntrans: s b#k s #x\n")
@example("alphabet: (a1,#)\u2028states: s\xa0#c\x85initial: s\x0baccepting:\x1fs\x0c"
         "trans:\u3000s (a1,#) s #x\x1c")
@settings(max_examples=400, deadline=None)
def test_parser_matches_reference_parser(text):
    assert _outcome(parse_automaton, text) == _outcome(reference_parse_automaton, text)


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_parser_matches_reference_on_printed_automata(seed):
    a = random_nfa(random.Random(seed))
    text = print_automaton(a, header=["printed # header"])
    parsed = parse_automaton(text)
    assert parsed == reference_parse_automaton(text) == a
    # the parser skips the constructor's checks; what it makes is the same value
    checked = Nfa(*(getattr(parsed, f.name) for f in dataclasses.fields(Nfa)))
    assert parsed == checked and hash(parsed) == hash(checked)
    with pytest.raises(dataclasses.FrozenInstanceError):
        parsed.initial = ()
    assert parsed.step_rows == checked.step_rows
    assert parsed.initial_mask == checked.initial_mask
    assert parsed.accepting_mask == checked.accepting_mask


def _dtm_text(m) -> str:
    rules = [f"delta: {q} {a} -> {r} {b} {d}" for (q, a, r, b, d) in m.rules]
    return "\n".join([f"states: {' '.join(m.states)}", f"initial: {m.initial}",
                      f"accepting: {m.accepting}", f"tape: {' '.join(m.tape_alphabet)}",
                      f"input: {' '.join(m.input_alphabet)}", f"blank: {m.blank}",
                      *rules, ""])


@pytest.mark.parametrize("pval", [1, 2])
@pytest.mark.parametrize("machine", [accepting_machine, rejecting_machine,
                                     incrementing_machine])  # the last runs off the tape at p = 1
def test_parser_matches_reference_on_reductions(machine, pval, tmp_path, capsys):
    """The ``reduce`` command's own output: header comments, and ``#`` inside
    the pair letters ``(a1,#)`` .. ``(an,#)``, n read from the header (one
    first component at p = 1, two at p = 2)."""
    path = tmp_path / "m.tm"
    path.write_text(_dtm_text(machine()))
    assert cli.main(["reduce", "--tm", str(path), "--input", "1", "--space", str(pval)]) == 0
    text = capsys.readouterr().out
    n = int(re.match(r"# reduction: k=\d+ n=(\d+) ", text).group(1))
    assert n == pval
    assert all(f"(a{i},#)" in text for i in range(1, n + 1))
    parsed = parse_automaton(text)
    assert parsed == reference_parse_automaton(text)
    assert print_automaton(parsed) == "".join(line for line in text.splitlines(True)
                                              if not line.startswith("#"))


def test_comment_pattern_agrees_with_split_and_splitlines():
    """Over every code point c: a '#' after c opens a comment iff ``str.split``
    splits at c (iff ``c.isspace()``), and a comment ends at c iff
    ``str.splitlines`` breaks there.  One string of all code points, checked
    by whole-string and set comparisons."""
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    space = set(filter(str.isspace, chars))
    assert "".join(chars.split()) == "".join(filterfalse(str.isspace, chars))
    breaks = {line[-1] for line in chars.splitlines(True)[:-1]}
    assert len(breaks) == len(chars.splitlines()) - 1 and breaks <= space
    # c, then '#', then a break that ends the comment before the next c
    text = "#\n".join(chars)
    assert {text[m.start() - 1] for m in _COMMENT.finditer(text)} == space
    assert _COMMENT.sub("", "x## y##") == "x## y##" and _COMMENT.sub("", "#x\n #y") == "\n "
    # one comment runs on until a break, which survives, and the next " #" opens one again
    text = " #" + " #".join(chars)
    assert set(_COMMENT.sub("", text)) == breaks | {" "}


_BAD_NAMES = st.sampled_from(["", "#x", "a b", "t\n", "\tu", "s0"])


@st.composite
def nfa_fields(draw):
    """Raw constructor arguments: good names with now and then one bad,
    repeated or missing name, and columns that now and then leave their
    range, sorted or not."""
    n = draw(st.sampled_from([0, 1, 1, 2, 2, 3, 3, 4]))
    names = [f"s{i}" for i in range(n)]
    flaw = draw(st.sampled_from(["", "", "", "bad", "count"]))
    if flaw == "bad" and names:
        names[draw(st.integers(0, n - 1))] = draw(_BAD_NAMES)
    elif flaw == "count":
        names = names[1:] if draw(st.booleans()) else names + ["extra"]
    L = draw(st.integers(0, 2))
    alphabet = ("a", "b")[:L]
    wide = draw(st.sampled_from(["", "", "q", "x", "r", "i", "qr"]))  # may leave range

    def column(key, size):
        inside = st.integers(0, max(size - 1, 0))
        return st.one_of(st.sampled_from([-1, size]), inside) if key in wide else inside

    trans = draw(st.lists(st.tuples(column("q", n), column("x", L), column("r", n)),
                          max_size=8))
    if draw(st.booleans()):
        trans = sorted(set(trans))
    initial = draw(st.lists(column("i", n), max_size=3))
    accepting = draw(st.lists(column("i", n), max_size=3))
    return n, alphabet, tuple(trans), tuple(initial), tuple(accepting), tuple(names)


@given(nfa_fields())
@settings(max_examples=400, deadline=None)
def test_constructor_matches_reference_checks(fields):
    def build(*args):
        a = Nfa(*args)
        return (a.n_states, a.alphabet, a.transitions, a.initial, a.accepting,
                a.state_names)
    assert _outcome(build, *fields) == _outcome(reference_nfa_fields, *fields)


def test_constructor_keeps_sorted_transitions_and_sorts_the_rest():
    alphabet = ("a",)
    names = ("p", "q")
    ordered = Nfa(2, alphabet, ((0, 0, 1), (1, 0, 0)), (0,), (1,), names)
    shuffled = Nfa(2, alphabet, [[1, 0, 0], (0, 0, 1), (1, 0, 0)], [0, 0], {1}, names)
    assert shuffled == ordered
    assert shuffled.transitions == ((0, 0, 1), (1, 0, 0))
    assert shuffled.initial == (0,) and shuffled.accepting == (1,)
    listed = Nfa(2, list(alphabet), [(0, 0, 1), (1, 0, 0)], [0], [1], list(names))
    assert listed == ordered and hash(listed) == hash(ordered)
    assert listed.alphabet == alphabet and listed.state_names == names
    assert parse_automaton(print_automaton(listed)) == listed
    repeated = ((0, 0, 1), (0, 0, 1), (1, 0, 0))  # sorted, with an adjacent repeat
    for built in (Nfa(2, alphabet, repeated, (0, 0), (1,), names),
                  Nfa._build(2, alphabet, repeated, (0, 0), (1,), names)):
        assert built == ordered and built.transitions == ((0, 0, 1), (1, 0, 0))
        assert built.initial == (0,)
    for bad in (((0, 0, 1), (0, 0, 1, 0)), ((0, 0),)):
        with pytest.raises(InputError, match="triples"):
            Nfa(2, alphabet, bad, (0,), (1,), names)
