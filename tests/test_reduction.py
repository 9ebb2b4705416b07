import itertools
import random
import re
from math import comb

import pytest

from poset_automata import reduction
from poset_automata.caps import default_caps
from poset_automata.classify import classify
from poset_automata.core import accepts
from poset_automata.dtm import Dtm, parse_dtm, simulate_dtm
from poset_automata.errors import InputError, ResourceLimitError
from poset_automata.hardness import build_aknn, w_word
from poset_automata.reduction import (PairAlphabet, _Backbone,
                                      build_part_a, build_part_b,
                                      build_part_c1, build_part_c2,
                                      build_part_c3, build_part_c4, choose_kn,
                                      config_count, encode_run, expected_next,
                                      initial_config_symbols, reduce)
from poset_automata.selftest import random_dtm, rejects_exactly
from poset_automata.universality import (universal, universal_antichain,
                                         universal_state_mask, universal_subset)

from conftest import (accepting_machine, accepts_with_cutoff, expected_next_reference,
                      head_moving_machine, incrementing_machine, is_ptnfa,
                      reference_simulate_dtm, rejecting_machine, w_reference)


# ---------------------------------------------------------------------------
# machine parsing and simulation


TM_TEXT = """# walks right, writes a 1 on the first blank
states: q0 qf
initial: q0
accepting: qf
tape: _ 1
input: 1
blank: _
delta: q0 1 -> q0 1 R
delta: q0 _ -> qf 1 S
"""


def test_parse_dtm_roundtrip_semantics():
    m = parse_dtm(TM_TEXT)
    assert m == incrementing_machine()


def test_parse_dtm_comments():
    text = TM_TEXT.replace("delta: q0 1 -> q0 1 R", "delta: q0 1 -> q0 1 R  # walk on")
    assert parse_dtm(text) == incrementing_machine()
    # '#' inside a token does not start a comment
    m = parse_dtm(TM_TEXT.replace("_", "b#k"))
    assert m.blank == "b#k" and m.tape_alphabet == ("b#k", "1")


def test_parse_dtm_errors():
    with pytest.raises(InputError):
        parse_dtm("states: q0 qf\ninitial: q0\naccepting: qf\ntape: _\nblank: _\n"
                  "delta: qf _ -> q0 _ S\n")  # rule out of the accepting state
    with pytest.raises(InputError):
        parse_dtm("states: q0\ninitial: q0\naccepting: q0\ntape: _\nblank: _\n")
    with pytest.raises(InputError, match=r"^duplicate rule for \(q0, 1\)$"):
        parse_dtm(TM_TEXT + "delta: q0 1 -> qf 1 S\n")
    for rule in ("q1 1 -> qf 1", "q1 1 => qf 1 S"):  # five tokens; no arrow
        with pytest.raises(InputError, match=r"^line 10: delta needs `q a -> q' b D`$"):
            parse_dtm(TM_TEXT + f"delta: {rule}\n")


def test_dtm_validation():
    with pytest.raises(InputError):
        Dtm(("q0", "qf"), "q0", "qf", ("_", "1"), ("1", "_"), "_", ())  # blank in input
    rule = ("q0", "1", "qf", "1", "S")
    listed = Dtm(["q0", "qf"], "q0", "qf", ["_", "1"], ["1"], "_", [list(rule)])
    built = Dtm(("q0", "qf"), "q0", "qf", ("_", "1"), ("1",), "_", (rule,))
    assert listed == built and hash(listed) == hash(built)
    assert listed.rules == (rule,)
    with pytest.raises(InputError, match=r"^rules must be \(q, read, q', write, move\) 5-tuples$"):
        Dtm(("q0", "qf"), "q0", "qf", ("_", "1"), ("1",), "_", (("q0", "1", "qf"),))


def test_simulate_immediate_accept(tm_accepting):
    rec = simulate_dtm(tm_accepting, "1", 1)
    assert rec.verdict == "accept"
    assert rec.configs == ((("1", "q0"),), (("1", "qf"),))


def test_simulate_loop_stops_at_the_repeat(tm_rejecting):
    """The looping machine's first step gives back its first
    configuration: the run ends there, at any tape length, and the repeat
    is not kept."""
    rec = simulate_dtm(tm_rejecting, "1", 1)
    assert (rec.verdict, rec.configs) == ("loop", ((("1", "q0"),),))
    rec = simulate_dtm(tm_rejecting, "1", 12)
    assert (rec.verdict, rec.configs) == ("loop", ((("1", "q0"),) + (("_", None),) * 11,))
    with pytest.raises(InputError, match="verdict loop"):
        encode_run(tm_rejecting, "1", 12, 9, 9)


def test_simulate_incrementing_hand_trace(tm_incrementing):
    rec = simulate_dtm(tm_incrementing, "1", 2)
    assert rec.verdict == "accept"
    assert rec.configs == (
        (("1", "q0"), ("_", None)),
        (("1", None), ("_", "q0")),
        (("1", None), ("1", "qf")),
    )


def test_simulate_rejects_on_missing_rule():
    m = Dtm(("q0", "q1", "qf"), "q0", "qf", ("_", "1"), ("1",), "_",
            (("q0", "1", "q1", "1", "S"),))
    rec = simulate_dtm(m, "1", 1)
    assert rec.verdict == "reject"


def test_simulate_out_of_bounds():
    """A head that leaves the tape halts the run without accepting; the
    run ends with the configuration before the move that left."""
    m = Dtm(("q0", "qf"), "q0", "qf", ("_", "1"), ("1",), "_",
            (("q0", "1", "q0", "1", "L"), ("q0", "_", "q0", "_", "L")))
    rec = simulate_dtm(m, "1", 2)
    assert rec.verdict == "off-tape"
    assert rec.configs == ((("1", "q0"), ("_", None)),)
    assert simulate_dtm(incrementing_machine(), "1", 1).verdict == "off-tape"
    rec = simulate_dtm(incrementing_machine(), "11", 2)
    assert (rec.verdict, len(rec.configs)) == ("off-tape", 2)


def test_simulate_input_checks(tm_accepting):
    with pytest.raises(InputError):
        simulate_dtm(tm_accepting, "11", 1)  # longer than the tape
    with pytest.raises(InputError):
        simulate_dtm(tm_accepting, "x", 2)


def test_simulate_matches_the_counting_bound_on_random_machines():
    """3,000 seeded random machines at p = 1..4 against a run of C(x)+1
    steps: the verdicts agree, with "loop" exactly where the bounded run
    ends in "cap", and so do the configurations, except that a loop ends
    before the repeat: its configurations are the bounded run's prefix up
    to the first configuration seen twice."""
    rng = random.Random(29)
    seen = dict.fromkeys(("accept", "reject", "off-tape", "loop"), 0)
    for i in range(3000):
        m, pval = random_dtm(rng, rng.randint(2, 4)), 1 + i % 4
        x = "".join(rng.choice("01") for _ in range(rng.randint(0, pval)))
        verdict, configs = reference_simulate_dtm(m, x, pval)
        rec = simulate_dtm(m, x, pval)
        seen[rec.verdict] += 1
        if verdict == "cap":
            assert rec.verdict == "loop", (m, x, pval)
            assert rec.configs == tuple(configs[:len(rec.configs)]), (m, x, pval)
            assert configs[len(rec.configs)] in rec.configs, (m, x, pval)
        else:
            assert (rec.verdict, rec.configs) == (verdict, tuple(configs)), (m, x, pval)
    assert min(seen.values()) >= 50, seen


# ---------------------------------------------------------------------------
# encoding


def test_choose_n_is_minimal(tm_accepting, monkeypatch):
    """Brute force over every (k, n) up to the ``reduce_n`` cap, for every
    run length bound 1 + 2C(x) with C(x) < 2000: the pick fits the run and
    has the least estimated work S*(4*n*|Delta_{#$}| + |W_{k,n}|), S =
    n(2k+1)+1 the states of A_{k,n}, on a tie the smaller n."""
    assert [choose_kn(tm_accepting, "1", p) for p in range(1, 7)] == [
        (7, 1), (7, 2), (13, 2), (7, 4), (10, 4), (8, 6)]
    limit = default_caps().reduce_n
    n_delta = PairAlphabet(tm_accepting, 1).n_delta
    for count in range(1, 2000):
        monkeypatch.setattr(reduction, "config_count", lambda m, pval: count)
        need = 1 + count * 2
        fitting = [((n * (2 * k + 1) + 1) * (4 * n * n_delta + comb(k + n, n) - 1), n, k)
                   for k in range(1, limit + 1) for n in range(1, limit + 1)
                   if comb(k + n, n) - 1 >= need]
        _cost, n, k = min(fitting)
        assert choose_kn(tm_accepting, "1", 1) == (k, n), count


@pytest.mark.parametrize("limit", [1, 2, 3, 4, 5])
def test_choose_refuses_exactly_when_the_square_is_too_short(tm_accepting, monkeypatch,
                                                             limit):
    """|W_{k,n}| is largest at k = n = reduce_n, so the (k, n) choice
    refuses exactly the space bounds that the square A_{n,n} did."""
    monkeypatch.setenv("POSET_AUTOMATA_CAPS", f"reduce_n={limit}")
    for pval in range(1, 2 * limit + 2):
        need = 1 + config_count(tm_accepting, pval) * (pval + 1)
        if comb(2 * limit, limit) - 1 >= need:
            k, n = choose_kn(tm_accepting, "1", pval)
            assert max(k, n) <= limit
        else:
            with pytest.raises(ResourceLimitError, match="reduce_n cap"):
                choose_kn(tm_accepting, "1", pval)


def test_encode_run_shape(tm_accepting):
    k, n = 4, 2
    pa = PairAlphabet(tm_accepting, n)
    word = encode_run(tm_accepting, "1", 1, k, n)
    assert len(word) == len(w_word(k, n))
    assert tuple(pi // pa.n_delta for pi in word) == w_word(k, n) == w_reference(k, n)
    w2 = [pi % pa.n_delta for pi in word]
    # begins with the separator-wrapped initial configuration
    assert w2[:3] == [pa.hash_id, pa.cell_id("1", "q0"), pa.hash_id]
    assert w2.count(pa.dollar_id) <= 1  # trailing $ count <= pval
    trailing = 0
    for d in reversed(w2):
        if d != pa.dollar_id:
            break
        trailing += 1
    assert trailing <= 1


def test_encode_run_requires_acceptance(tm_rejecting):
    with pytest.raises(InputError):
        encode_run(tm_rejecting, "1", 1, 4, 2)


def test_initial_config_symbols_empty_input(tm_accepting):
    pa = PairAlphabet(tm_accepting, 2)
    syms = initial_config_symbols(tm_accepting, "", 2, pa)
    assert syms == [pa.hash_id, pa.cell_id("_", "q0"), pa.cell_id("_", None),
                    pa.hash_id]


def test_expected_next_rules(tm_incrementing):
    m = tm_incrementing
    pa = PairAlphabet(m, 2)
    h, d = pa.hash_id, pa.dollar_id
    c = pa.cell_id
    nxt = expected_next(m, pa)
    # separators propagate
    assert nxt[c("1", None), h][c("1", "q0")] == h
    # marked cell under an R-move loses the marker
    assert nxt[h, c("1", "q0")][c("_", None)] == c("1", None)
    # right neighbor of an R-move gains the marker
    assert nxt[c("1", "q0"), c("_", None)][h] == c("_", "q0")
    # accepting state acts as a self-loop
    assert nxt[h, c("1", "qf")][h] == c("1", "qf")
    # windows containing $ are never flagged
    assert nxt[d, c("1", None)][h] == "vacuous"
    assert nxt[h, c("1", None)][d] == "vacuous"


def test_expected_next_impossible_on_halt():
    m = Dtm(("q0", "q1", "qf"), "q0", "qf", ("_", "1"), ("1",), "_",
            (("q0", "1", "q1", "1", "S"),))
    pa = PairAlphabet(m, 2)
    assert expected_next(m, pa)[pa.hash_id, pa.cell_id("1", "q1")][pa.hash_id] == "impossible"


def test_expected_next_rows_match_the_window_reference():
    """Every window of the fixture machines and of 200 random machines with
    L, R and S moves and missing rules: the rows agree with the one-window
    reference, and list the windows in (dl, dc) order."""
    rng = random.Random(11)
    machines = [accepting_machine(), rejecting_machine(), incrementing_machine(),
                head_moving_machine()] + [random_dtm(rng) for _ in range(200)]
    for m in machines:
        pa = PairAlphabet(m, 1)
        nd = pa.n_delta
        rows = expected_next(m, pa)
        assert list(rows) == [(dl, dc) for dl in range(nd) for dc in range(nd)]
        for (dl, dc), row in rows.items():
            assert row == tuple(expected_next_reference(m, pa, dl, dc, dr)
                                for dr in range(nd)), (m, dl, dc)


# ---------------------------------------------------------------------------
# the parts, each on its own


def parts_alone(m, x, pval, k, n, *builders):
    """The given parts on a fresh backbone A_{k,n}."""
    bb = _Backbone(PairAlphabet(m, n), k)
    for build_part in builders:
        build_part(bb, m, x, pval)
    return bb.build()


@pytest.fixture(scope="module")
def setup_p1():
    m = accepting_machine()
    k, n = choose_kn(m, "1", 1)
    pa = PairAlphabet(m, n)
    word = encode_run(m, "1", 1, k, n)
    return m, k, n, pa, word


def test_part_a_behaviour(setup_p1):
    m, k, n, pa, word = setup_p1
    part = parts_alone(m, "1", 1, k, n, build_part_a)
    ok, failures = is_ptnfa(part)
    assert ok, failures
    assert not accepts(part, word)
    # wrong letter at position 0 (not #) -> accepted
    bad0 = (pa.pi_id(word[0] // pa.n_delta, pa.dollar_id),) + word[1:]
    assert accepts(part, bad0)
    # any word of length <= pval+1 accepted
    assert accepts(part, ())
    assert accepts(part, word[:2])


def test_part_b_behaviour(setup_p1):
    m, k, n, pa, word = setup_p1
    part = parts_alone(m, "1", 1, k, n, build_part_b)
    ok, failures = is_ptnfa(part)
    assert ok, failures
    assert not accepts(part, word)
    # violate the transition relation at the run's last marker cell: flip
    # it to an unmarked one, contradicting the forced successor
    accepting_cell = pa.cell_id("1", "qf")
    pos = max(i for i, pi in enumerate(word) if pi % pa.n_delta == accepting_cell)
    assert pos > 2
    corrupted = word[:pos] + (pa.pi_id(word[pos] // pa.n_delta, pa.cell_id("1", None)),) + word[pos + 1:]
    assert accepts(part, corrupted)
    # first projection off the W-track (a proper prefix of W_{k,n}, which
    # n = 1 leaves as the only way off) -> accepted by the backbone
    assert accepts(part, word[:-1])


def test_each_c_part_is_ptnfa(setup_p1):
    m, k, n, pa, _word = setup_p1
    for builder in (build_part_c1, build_part_c2, build_part_c3, build_part_c4):
        ok, failures = is_ptnfa(parts_alone(m, "1", 1, k, n, builder))
        assert ok, (builder.__name__, failures)


def test_part_c_behaviour(setup_p1):
    m, k, n, pa, word = setup_p1
    part = parts_alone(m, "1", 1, k, n, build_part_c1, build_part_c2,
                       build_part_c3, build_part_c4)
    ok, failures = is_ptnfa(part)
    assert ok, failures
    assert not accepts(part, word)
    # final configuration not in the accepting state -> accepted via C.2
    c2 = parts_alone(m, "1", 1, k, n, build_part_c2)
    pos = max(i for i, pi in enumerate(word)  # the last cell
              if pi % pa.n_delta not in (pa.hash_id, pa.dollar_id))
    assert word[pos] % pa.n_delta == pa.cell_id("1", "qf")
    ending_bad = word[:pos] + (pa.pi_id(word[pos] // pa.n_delta, pa.cell_id("1", "q0")),) + word[pos + 1:]
    assert accepts(c2, ending_bad)
    assert accepts(part, ending_bad)
    # $ followed by a different symbol -> accepted via C.4
    c4 = parts_alone(m, "1", 1, k, n, build_part_c4)
    mid = len(word) // 2
    dollar_mid = word[:mid] + (pa.pi_id(word[mid] // pa.n_delta, pa.dollar_id),) + word[mid + 1:]
    assert accepts(c4, dollar_mid)
    assert accepts(part, dollar_mid)


# ---------------------------------------------------------------------------
# end-to-end pipeline


def test_reduce_validates_input(tm_accepting, monkeypatch):
    with pytest.raises(InputError):
        reduce(tm_accepting, "11", 1)
    with pytest.raises(InputError):
        reduce(tm_accepting, "z", 2)
    monkeypatch.setenv("POSET_AUTOMATA_CAPS", "reduce_n=3")
    with pytest.raises(ResourceLimitError):
        reduce(tm_accepting, "1", 2)


def test_reduce_backbone_obeys_the_aknn_arcs_cap(tm_accepting, monkeypatch):
    """The backbone A(k,n) is built under the same caps as the rest of the
    reduction: at p = 1, (k, n) = (7, 1) and A(7,1) has 16 arcs."""
    monkeypatch.setenv("POSET_AUTOMATA_CAPS", "aknn_arcs=15")
    with pytest.raises(ResourceLimitError, match=r"A_\{7,1\} has 16 transitions"):
        reduce(tm_accepting, "1", 1)
    monkeypatch.setenv("POSET_AUTOMATA_CAPS", "aknn_arcs=16")
    art = reduce(tm_accepting, "1", 1)
    assert (art.k, art.n) == (7, 1)


def test_reduce_artifact_inventory(tm_accepting):
    art = reduce(tm_accepting, "1", 1)
    assert (art.k, art.n, art.pval) == (7, 1, 1)
    names = [name for (name, _o, _c) in art.components]
    assert names == ["enc-backbone", "part-a", "part-b", "part-c1", "part-c2",
                     "part-c3", "part-c4"]
    inventory = {name: (o, c) for (name, o, c) in art.components}
    offsets = [o for (_n, o, _c) in art.components]
    assert offsets == sorted(offsets) and offsets[0] == 0
    for (_n, o, c), (_n2, o2, _c2) in zip(art.components, art.components[1:]):
        assert o + c == o2
    total = offsets[-1] + art.components[-1][2]
    assert total == art.automaton.n_states
    # the one backbone comes first and spells A_{k,n}'s state names
    bb_off, bb_count = inventory["enc-backbone"]
    assert bb_off == 0
    assert bb_count == art.n * (2 * art.k + 1) + 1
    base = build_aknn(art.k, art.n)
    assert art.automaton.state_names[:bb_count] == base.state_names
    assert len(art.attachment_states) == art.k * art.n
    for name in art.attachment_states:
        assert name in art.automaton.state_index
    # pair alphabet size: n * (|T|(|Q|+1) + 2)
    m = tm_accepting
    pa = PairAlphabet(m, art.n)
    assert pa.n_delta == len(m.tape_alphabet) * (len(m.states) + 1) + 2
    assert len(pa.alphabet) == art.n * pa.n_delta
    assert len(art.automaton.alphabet) == len(pa.alphabet)


def test_reduce_is_ptnfa(tm_accepting, tm_rejecting):
    for m in (tm_accepting, tm_rejecting):
        art = reduce(m, "1", 1)
        ok, failures = is_ptnfa(art.automaton)
        assert ok, failures


def test_reduce_accepting_machine_witness(tm_accepting):
    for pval in (1, 2, 3):
        art = reduce(tm_accepting, "1", pval)
        word = encode_run(tm_accepting, "1", pval, art.k, art.n)
        n_delta = PairAlphabet(tm_accepting, art.n).n_delta
        assert tuple(pi // n_delta for pi in word) == w_word(art.k, art.n)
        assert not accepts(art.automaton, word)
        res = universal_antichain(art.automaton)
        assert not res.universal
        assert res.counterexample == word


def test_reduce_rejecting_machine_universal(tm_rejecting):
    art = reduce(tm_rejecting, "1", 1)
    assert universal_antichain(art.automaton).universal


def test_reduce_rejecting_machine_sampling(tm_rejecting):
    """Sampling proxy: random words over Pi up to |W| are all accepted."""
    art = reduce(tm_rejecting, "1", 1)
    u = universal_state_mask(art.automaton)
    total = len(w_word(art.k, art.n))
    rng = random.Random(3)
    n_letters = len(art.automaton.alphabet)
    for _ in range(10**4):
        word = [rng.randrange(n_letters) for _ in range(rng.randint(0, total))]
        assert accepts_with_cutoff(art.automaton, word, u)


def test_reduce_corruption_sample(tm_accepting):
    """Every single-symbol change of the run encoding's second component
    must be accepted (the full battery runs in the acceptance suite)."""
    art = reduce(tm_accepting, "1", 1)
    pa = PairAlphabet(tm_accepting, art.n)
    word = encode_run(tm_accepting, "1", 1, art.k, art.n)
    u = universal_state_mask(art.automaton)
    last_cell = max(i for i, pi in enumerate(word)
                    if pi % pa.n_delta not in (pa.hash_id, pa.dollar_id))
    for pos in sorted({0, 1, 2, last_cell, len(word) - 2, len(word) - 1}):
        a_idx, d_orig = divmod(word[pos], pa.n_delta)
        for d in range(pa.n_delta):
            if d != d_orig:
                corrupted = word[:pos] + (pa.pi_id(a_idx, d),) + word[pos + 1:]
                assert accepts_with_cutoff(art.automaton, corrupted, u), (pos, d)


def test_backbone_law_first_projection_perturbations(tm_accepting):
    """Any word whose first projection differs from W_{k,n} is accepted.
    At p = 2 the backbone has two first components (p = 1 has one)."""
    art = reduce(tm_accepting, "1", 2)
    assert art.n == 2
    pa = PairAlphabet(tm_accepting, art.n)
    word = encode_run(tm_accepting, "1", 2, art.k, art.n)
    u = universal_state_mask(art.automaton)
    rng = random.Random(5)
    for _ in range(60):
        pos = rng.randrange(len(word))
        a_idx, d = divmod(word[pos], pa.n_delta)
        other = rng.choice([a for a in range(art.n) if a != a_idx])
        perturbed = word[:pos] + (pa.pi_id(other, d),) + word[pos + 1:]
        assert accepts_with_cutoff(art.automaton, perturbed, u)


def test_reduce_machine_with_head_movement():
    """The window checks must track markers across R and L moves, which the
    stay-put fixtures never exercise."""
    lr = head_moving_machine()
    art = reduce(lr, "11", 2)
    ok, failures = is_ptnfa(art.automaton)
    assert ok, failures
    word = encode_run(lr, "11", 2, art.k, art.n)
    u = universal_state_mask(art.automaton)
    assert not accepts_with_cutoff(art.automaton, word, u)
    pa = PairAlphabet(lr, art.n)
    rng = random.Random(17)
    for pos in rng.sample(range(len(word)), 30):
        a_idx, d_orig = divmod(word[pos], pa.n_delta)
        for d in range(pa.n_delta):
            if d != d_orig:
                corrupted = word[:pos] + (pa.pi_id(a_idx, d),) + word[pos + 1:]
                assert accepts_with_cutoff(art.automaton, corrupted, u), (pos, d)
    res = universal_antichain(art.automaton)
    assert not res.universal and res.counterexample == word


def test_reduce_machine_rejecting_by_halt():
    """No rule for (q1, 1): the run halts non-accepting, and after the halt
    configuration every non-$ continuation is a violation."""
    halt = Dtm(states=("q0", "q1", "qf"), initial="q0", accepting="qf",
               tape_alphabet=("_", "1"), input_alphabet=("1",), blank="_",
               rules=(("q0", "1", "q1", "1", "S"), ("q0", "_", "q0", "_", "S"),
                      ("q1", "_", "q1", "_", "S")))
    assert simulate_dtm(halt, "1", 1).verdict == "reject"
    art = reduce(halt, "1", 1)
    assert is_ptnfa(art.automaton)[0]
    assert universal_antichain(art.automaton).universal


def test_reduce_three_state_machine():
    acc3 = Dtm(states=("q0", "q1", "qf"), initial="q0", accepting="qf",
               tape_alphabet=("_", "1"), input_alphabet=("1",), blank="_",
               rules=(("q0", "1", "q1", "1", "S"), ("q1", "1", "qf", "1", "S"),
                      ("q0", "_", "q0", "_", "S"), ("q1", "_", "q1", "_", "S")))
    art = reduce(acc3, "1", 1)
    assert is_ptnfa(art.automaton)[0]
    word = encode_run(acc3, "1", 1, art.k, art.n)
    u = universal_state_mask(art.automaton)
    assert not accepts_with_cutoff(art.automaton, word, u)
    pa = PairAlphabet(acc3, art.n)
    for pos in range(len(word)):
        a_idx, d_orig = divmod(word[pos], pa.n_delta)
        for d in range(pa.n_delta):
            if d != d_orig:
                corrupted = word[:pos] + (pa.pi_id(a_idx, d),) + word[pos + 1:]
                assert accepts_with_cutoff(art.automaton, corrupted, u), (pos, d)
    res = universal_antichain(art.automaton)
    assert not res.universal and res.counterexample == word


def test_reduce_out_of_bounds_run_is_reported():
    """A run that leaves the tape does not accept, so it has no encoding:
    ``encode_run`` refuses it rather than encode a wrong word."""
    inc = incrementing_machine()
    with pytest.raises(InputError, match="verdict off-tape"):
        encode_run(inc, "1", 1, 4, 2)  # walks right off a 1-cell tape


def test_reduce_agrees_with_simulation_on_random_machines():
    """200 seeded random machines over {_, 0, 1} with L, R and S moves and
    missing rules, at p = 1 and 2: the output is a ptNFA, and it is
    universal iff the run does not accept within the bound.  A run that
    leaves the tape does not accept; about half of these machines leave
    it.  On acceptance the counterexample is ``encode_run``'s word."""
    rng = random.Random(21)
    left = 0
    for i in range(200):
        m, pval = random_dtm(rng, rng.randint(2, 4)), 1 + i % 2
        x = "".join(rng.choice("01") for _ in range(rng.randint(0, pval)))
        verdict = simulate_dtm(m, x, pval).verdict
        accepted, left = verdict == "accept", left + (verdict == "off-tape")
        art = reduce(m, x, pval)
        res = universal(art.automaton)
        assert res.universal == (not accepted), (m, x, pval)
        assert classify(art.automaton).label == "ptNFA", (m, x, pval)
        if accepted:
            assert res.counterexample == encode_run(m, x, pval, art.k, art.n)
    assert left > 50


def fewest_states_kn(m, x, pval):
    """The reference backbone rule that ``choose_kn`` replaced: the fitting
    (k, n) with the fewest states n(2k+1)+1, on a tie the smaller n."""
    limit = default_caps().reduce_n
    need = 1 + config_count(m, pval) * (pval + 1)
    _states, n, k = min((n * (2 * k + 1) + 1, n, k) for k in range(1, limit + 1)
                        for n in range(1, limit + 1) if comb(k + n, n) - 1 >= need)
    return k, n


def test_backbone_choice_changes_the_cost_only(monkeypatch):
    """The micro machines at p = 1..4 and 40 seeded random machines at
    p = 1, each reduced under ``choose_kn`` and under the fewest-states
    rule: both outputs are universal iff the run does not accept, and an
    accepting run's counterexample is ``encode_run``'s word for the
    output's own (k, n).  The two rules pick different backbones for the
    micro machines at p = 1..3 (the same A(7,4) at p = 4) and for 30 of
    the 40 random machines."""
    rng = random.Random(32)
    cases = [(m, "1", pval) for pval in range(1, 5)
             for m in (accepting_machine(), rejecting_machine())]
    cases += [(random_dtm(rng, rng.randint(2, 4)), rng.choice(("", "0", "1")), 1)
              for _ in range(40)]
    picks = {}
    for rule in (choose_kn, fewest_states_kn):
        monkeypatch.setattr(reduction, "choose_kn", rule)
        for i, (m, x, pval) in enumerate(cases):
            accepted = simulate_dtm(m, x, pval).verdict == "accept"
            art = reduce(m, x, pval)
            res = universal(art.automaton)
            assert res.universal == (not accepted), (m, x, pval, rule)
            if accepted:
                assert res.counterexample == encode_run(m, x, pval, art.k, art.n)
            picks.setdefault(i, []).append((art.k, art.n))
    moved = [i for i, (new, old) in picks.items() if new != old]
    assert moved[:6] == list(range(6)) and len(moved) == 6 + 30, picks


def all_rules(states):
    """Every rule a machine with working states ``states`` over tape {_, 1}
    can have for one (state, read) pair: a next state (working or qf), a
    written symbol and a move."""
    return [(q, w, move) for q in states + ("qf",) for w in ("_", "1") for move in "LRS"]


def micro_machine(states, rules) -> Dtm:
    return Dtm(states + ("qf",), "q0", "qf", ("_", "1"), ("1",), "_", rules)


@pytest.mark.parametrize("pval", [1, 2, 3])
def test_reduce_agrees_with_simulation_on_every_one_state_machine(pval):
    """All 169 machines with the one working state q0 over tape {_, 1} (each
    of the two rules absent or one of 12) on the inputs empty, 1 and 1^p:
    ``reduce | universal`` says "not universal" exactly when the run
    accepts, and then its counterexample is ``encode_run``'s word.  The
    longest accepting run reaches the configuration count at p = 1, where
    one working state has 2 configurations and the accepting one a third."""
    options = [None] + all_rules(("q0",))
    longest = 0
    for blank_rule, one_rule in itertools.product(options, repeat=2):
        rules = [("q0", read) + rule for read, rule in (("_", blank_rule), ("1", one_rule))
                 if rule is not None]
        m = micro_machine(("q0",), rules)
        for x in dict.fromkeys(("", "1", "1" * pval)):
            record = simulate_dtm(m, x, pval)
            art = reduce(m, x, pval)
            res = universal(art.automaton)
            accepted = record.verdict == "accept"
            assert res.universal == (not accepted), (rules, x)
            if accepted:
                assert res.counterexample == encode_run(m, x, pval, art.k, art.n), (rules, x)
                longest = max(longest, len(record.configs))
    assert longest <= config_count(m, pval)
    assert pval > 1 or longest == config_count(m, pval) == 3


def machine_runs(states, x, pval):
    """The run on x of every machine with working states ``states`` over
    tape {_, 1}, one per class of machines that share it.  A rule is fixed
    only when a run first reads its (state, symbol) pair, so a class is the
    machines that agree on the pairs its run reads, and the classes
    partition the machines.  Yields (record, fixed): the run and the number
    of pairs whose rule, or its absence, the run reads."""
    options = all_rules(states)
    todo = [()]
    while todo:
        rules = todo.pop()
        record = simulate_dtm(micro_machine(states, rules), x, pval)
        if record.verdict != "reject":
            yield record, len(rules)
            continue
        yield record, len(rules) + 1  # the rule it reads is absent
        (read, q), = (cell for cell in record.configs[-1] if cell[1] is not None)
        todo += [rules + ((q, read) + rule,) for rule in options]


@pytest.mark.parametrize("pval", [1, 2, 3, 4])
def test_every_two_state_accepting_run_fits_the_chosen_word(pval):
    """Every machine with working states q0, q1 over tape {_, 1}, 19^4 rule
    sets, on the inputs empty, 1 and 1^p: an accepting run visits at most
    C(x) configurations, and the W_{k,n} that ``choose_kn`` picks holds its
    encoding, one block of p + 1 letters per configuration after the
    leading #.  The run classes of ``machine_runs`` cover the rule sets
    exactly once.  At p = 1 the longest accepting run meets C(x) = 5."""
    states = ("q0", "q1")
    m = micro_machine(states, ())
    k, n = choose_kn(m, "", pval)
    blocks = (len(w_word(k, n)) - 1) // (pval + 1)
    options, pairs = len(all_rules(states)) + 1, 2 * len(states)
    longest = 0
    for x in dict.fromkeys(("", "1", "1" * pval)):
        covered = 0
        for record, fixed in machine_runs(states, x, pval):
            covered += options ** (pairs - fixed)
            if record.verdict == "accept":
                longest = max(longest, len(record.configs))
        assert covered == options ** pairs == 19 ** 4, x
    assert longest <= config_count(m, pval) <= blocks
    assert pval > 1 or longest == config_count(m, pval) == 5


# ---------------------------------------------------------------------------
# the shared backbone: the premise of the module docstring's proof


STRUCTURE_MACHINES = [accepting_machine, rejecting_machine, head_moving_machine]


@pytest.mark.parametrize("pval", [1, 2])
@pytest.mark.parametrize("machine", STRUCTURE_MACHINES)
def test_completion_targets_reach_no_host(machine, pval):
    """BFS over the emitted transitions from every (k+1;i) and from max
    stays among (k+1..2k;i) and max: no attachment state, no check state."""
    art = reduce(machine(), "1", pval)
    a, k, n = art.automaton, art.k, art.n
    succ: dict[int, set[int]] = {}
    for (q, _x, r) in a.transitions:
        succ.setdefault(q, set()).add(r)
    start = {a.state_index[f"({k + 1};{i})"] for i in range(1, n + 1)}
    start.add(a.state_index["max"])
    seen, stack = set(start), list(start)
    while stack:
        for r in succ.get(stack.pop(), ()):
            if r not in seen:
                seen.add(r)
                stack.append(r)
    reached = {a.state_names[q] for q in seen}
    assert not reached & set(art.attachment_states)
    completion = {f"({i};{m})" for i in range(k + 1, 2 * k + 1) for m in range(1, n + 1)}
    assert reached <= completion | {"max"}


@pytest.mark.parametrize("pval", [1, 2])
@pytest.mark.parametrize("machine", STRUCTURE_MACHINES)
def test_one_backbone_and_verdict_delay_lines(machine, pval):
    m = machine()
    art = reduce(m, "1", pval)
    a, k, n, pa = art.automaton, art.k, art.n, PairAlphabet(m, art.n)
    backbone_names = set(build_aknn(k, n).state_names)
    assert sum(name in backbone_names for name in a.state_names) == n * (2 * k + 1) + 1
    nd = pa.n_delta
    verdict = {(dl, dc, dr): expected_next_reference(m, pa, dl, dc, dr)
               for dl in range(nd) for dc in range(nd) for dr in range(nd)}
    delay = [name for name in a.state_names if name.startswith("B:next[")]
    assert len(delay) == len(set(verdict.values())) * pval
    # one w[dl,dc] per distinct row dr -> verdict, one w[dl] per distinct
    # row dc -> w[dl,dc]
    pair_rows = {(dl, dc): tuple(verdict[dl, dc, dr] for dr in range(nd))
                 for dl in range(nd) for dc in range(nd)}
    first_rows = {tuple(pair_rows[dl, dc] for dc in range(nd)) for dl in range(nd)}
    part_b = {name: count for (name, _o, count) in art.components}["part-b"]
    assert part_b == len(set(pair_rows.values())) + len(first_rows) + len(delay)
    assert is_ptnfa(a)[0]


@pytest.mark.parametrize("pval", [1, 2])
@pytest.mark.parametrize("machine", STRUCTURE_MACHINES)
def test_part_b_asks_the_register_once_per_state(machine, pval, monkeypatch):
    """Part B calls ``_Backbone.shared`` once per delay state, once per
    distinct verdict row and once per w[dl], not once per window; and
    ``expected_next`` keeps equal rows as one tuple."""
    m = machine()
    k, n = choose_kn(m, "1", pval)
    pa = PairAlphabet(m, n)
    rows = list(expected_next(m, pa).values())
    distinct = set(rows)
    assert len(set(map(id, rows))) == len(distinct) < len(rows)
    calls = []
    shared = _Backbone.shared
    monkeypatch.setattr(_Backbone, "shared",
                        lambda bb, *args, **kwargs: calls.append(1) or shared(bb, *args, **kwargs))
    build_part_b(_Backbone(pa, k), m, "1", pval)
    delay_states = len({v for row in distinct for v in row}) * pval
    assert len(calls) == delay_states + len(distinct) + pa.n_delta


@pytest.mark.parametrize("pval", [1, 2])
@pytest.mark.parametrize("machine", STRUCTURE_MACHINES)
def test_shared_states_have_distinct_rows(machine, pval):
    """No two part-B or $-run states agree in acceptance and arc set,
    C.2's g run and C.3's last state are C.1's d states, and C.2's h is
    C.1's last u state."""
    art = reduce(machine(), "1", pval)
    a = art.automaton
    offset, count = {name: (o, c) for (name, o, c) in art.components}["part-b"]
    states = [q for q, name in enumerate(a.state_names)
              if offset <= q < offset + count or re.match(rf"C1:d|C1:u{pval}$|C3:s", name)]
    arcs = {q: set() for q in states}
    for (q, x, r) in a.transitions:
        if q in arcs:
            arcs[q].add((x, r))
    rows = {(q in a.accepting, frozenset(arcs[q])) for q in states}
    assert len(rows) == len(states)
    assert not any(re.match(r"C2:[gh]", name) for name in a.state_names)
    assert f"C3:s{pval + 1}" not in a.state_index and f"C3:s{pval}" in a.state_index


def forward_bisimulation_classes(a):
    """The classes of forward bisimulation by partition refinement over
    ``succ``: start from acceptance, then split by the set of (letter,
    successor block) pairs until no block splits.  Shares no code with the
    reduction's register."""
    block = [q in a.accepting for q in range(a.n_states)]
    count = len(set(block))
    while True:
        signature = [(block[q], frozenset((x, block[r]) for x in range(a.n_letters)
                                          for r in a.succ.get((q, x), ())))
                     for q in range(a.n_states)]
        ids = {sig: i for i, sig in enumerate(dict.fromkeys(signature))}
        block = [ids[sig] for sig in signature]
        if len(ids) == count:
            break
        count = len(ids)
    classes: dict[int, list[str]] = {}
    for q, b in enumerate(block):
        classes.setdefault(b, []).append(a.state_names[q])
    return [names for names in classes.values() if len(names) > 1]


@pytest.mark.parametrize("machine, pval", [
    (accepting_machine, 1), (accepting_machine, 2), (accepting_machine, 3),
    (rejecting_machine, 1), (rejecting_machine, 2), (rejecting_machine, 3),
    (incrementing_machine, 1), (incrementing_machine, 2),
    (head_moving_machine, 1), (head_moving_machine, 2)])
def test_reduction_builds_no_state_twice(machine, pval):
    """Forward-bisimilar states of the ``reduce`` output are only the n
    backbone pairs (k;m), (2k;m) that A_{k,n} brings itself: neither has a
    check arc, both go to max under a_m and to (k+1;m') above it.  Every
    state the checks add has a future of its own."""
    art = reduce(machine(), "1", pval)
    k, n = art.k, art.n
    twins = {frozenset({f"({k};{m})", f"({2 * k};{m})"}) for m in range(1, n + 1)}
    assert set(map(frozenset, forward_bisimulation_classes(art.automaton))) == twins


def test_reduce_language_is_exact_at_p1():
    """At space bound 1 the subset BFS decides the emitted language exactly:
    the accepting machine's automaton rejects encode_run's word and nothing
    else, and the looping machine's automaton is universal."""
    m = accepting_machine()
    art = reduce(m, "1", 1)
    assert rejects_exactly(art.automaton, encode_run(m, "1", 1, art.k, art.n))
    assert universal_subset(reduce(rejecting_machine(), "1", 1).automaton).universal


def test_reduce_trailing_dollar_checks_at_p2():
    """At space bound 2 the accepting micro machine's encoding fills W(7,2)
    with eleven blocks and ends in one $, so this reaches the trailing-$
    checks (C.1 to C.3): the word is rejected, and each of its one-edit
    neighbours within the last p + 1 letters is accepted ($ appended, a
    letter deleted, or a letter replaced)."""
    m, pval = accepting_machine(), 2
    art = reduce(m, "1", pval)
    a, pa = art.automaton, PairAlphabet(m, art.n)
    word = encode_run(m, "1", pval, art.k, art.n)
    assert (art.k, art.n, len(word)) == (7, 2, 35)
    assert word[-1] % pa.n_delta == pa.dollar_id != word[-2] % pa.n_delta
    assert not accepts(a, word)
    edits = [word + (pa.pi_id(word[-1] // pa.n_delta, pa.dollar_id),)]
    for i in range(len(word) - pval - 1, len(word)):
        edits.append(word[:i] + word[i + 1:])
        edits += [word[:i] + (x,) + word[i + 1:] for x in range(a.n_letters) if x != word[i]]
    assert len(edits) == 1 + (pval + 1) * a.n_letters == 49
    assert all(accepts(a, edit) for edit in edits)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_prefix_attachability(n):
    """For every proper prefix of W_{k,n}, some reached state of A_{k,n}
    has no self-loop under the next letter (so a check can start there),
    for every k <= 5."""
    for k in range(1, 6):
        a = build_aknn(k, n)
        word = w_word(k, n)
        frontier = set(a.initial)
        for pos, letter in enumerate(word):
            assert any(q not in a.succ.get((q, letter), ()) for q in frontier), (k, pos)
            frontier = {r for q in frontier for r in a.succ.get((q, letter), ())}
