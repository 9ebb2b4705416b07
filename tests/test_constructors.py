"""The two ways into ``Nfa``: the checked constructor for outside values and
the trusted ``Nfa._build`` for the package's own makers.

The makers skip the constructor's checks, so their outputs are rebuilt here
through it and compared.  The probe calls public constructors and entry
points with wrong-typed and out-of-range arguments: each call must either
refuse at once or return a value that the deciders, ``classify`` and the
printer accept."""

import dataclasses
import random

import pytest

from poset_automata.classify import classify
from poset_automata.core import (Nfa, accepts, format_word, parse_automaton,
                                 print_automaton)
from poset_automata.dtm import Dtm
from poset_automata.errors import InputError
from poset_automata.hardness import Dag, build_aknn, dag_gadget, trim_aknn
from poset_automata.reduction import PairAlphabet, encode_run, reduce
from poset_automata.sampling import (random_complete_po_sld, random_dag, random_nfa,
                                     random_saturated, random_unary_po)
from poset_automata.selftest import random_dtm
from poset_automata.universality import universal

from conftest import (accepting_machine, head_moving_machine, incrementing_machine,
                      rejecting_machine)


def _assert_checked_rebuild(a: Nfa) -> None:
    """``a``, rebuilt through the checked constructor from its own fields,
    and read back from its text, is the same value with the same hash."""
    checked = Nfa(*(getattr(a, f.name) for f in dataclasses.fields(Nfa)))
    assert checked == a and hash(checked) == hash(a)
    parsed = parse_automaton(print_automaton(a))
    assert parsed == a and hash(parsed) == hash(a)


@pytest.mark.parametrize("k", range(1, 5))
@pytest.mark.parametrize("n", range(1, 5))
def test_aknn_makers_match_the_checked_constructor(k, n):
    _assert_checked_rebuild(build_aknn(k, n))
    _assert_checked_rebuild(trim_aknn(k, n))


def test_dag_gadget_matches_the_checked_constructor():
    rng = random.Random(26)
    for _ in range(100):
        _assert_checked_rebuild(dag_gadget(random_dag(rng)))
    _assert_checked_rebuild(dag_gadget(Dag(1, (), 0, 0)))


def test_reduction_matches_the_checked_constructor():
    rng = random.Random(26)
    machines = [accepting_machine(), rejecting_machine(), incrementing_machine(),
                head_moving_machine()] + [random_dtm(rng, rng.randint(2, 4)) for _ in range(20)]
    for m in machines:
        for pval in (1, 2):
            _assert_checked_rebuild(reduce(m, "1", pval).automaton)


@pytest.mark.parametrize("sample", [random_nfa, random_saturated, random_unary_po,
                                    random_complete_po_sld])
def test_samplers_match_the_checked_constructor(sample):
    rng = random.Random(26)
    for _ in range(200):
        _assert_checked_rebuild(sample(rng))


def _clash() -> Dtm:
    """Tape symbol 'x.y' unmarked and tape symbol 'x' under state 'y' spell
    one pair letter."""
    return Dtm(("q0", "y", "qf"), "q0", "qf", ("x", "x.y", "_"), ("x",), "_",
               (("q0", "x", "qf", "x", "S"), ("q0", "_", "q0", "_", "S")))


_CLASH = r"^duplicate letter name '\(a1,<x\.y>\)'$"


def test_reduction_checks_the_machine_names_in_its_letters():
    """Two cells that spell one pair letter are refused; a machine name
    that would spell a bad letter is refused by ``Dtm`` itself."""
    with pytest.raises(InputError, match=_CLASH):
        reduce(_clash(), "x", 1)
    with pytest.raises(InputError, match=r"^bad machine state name 'q 0'"):
        Dtm(("q 0", "qf"), "q 0", "qf", ("_", "1"), ("1",), "_",
            (("q 0", "1", "qf", "1", "S"),))
    with pytest.raises(InputError, match=r"^bad tape symbol name '#'"):
        Dtm(("q0", "qf"), "q0", "qf", ("_", "#"), ("#",), "_", (("q0", "#", "qf", "#", "S"),))


def test_pair_alphabet_checks_the_letters_it_spells():
    """``PairAlphabet`` owns the letter check, so every door into the pair
    letters refuses the clash: the alphabet itself and ``encode_run``."""
    with pytest.raises(InputError, match=_CLASH):
        PairAlphabet(_clash(), 1)
    with pytest.raises(InputError, match=_CLASH):
        encode_run(_clash(), "x", 1, 4, 2)


def _nfa(n=2, trans=((0, 0, 1),), initial=(0,), accepting=(1,), names=("p", "q")):
    return Nfa(n, ("a",), trans, initial, accepting, names)


_A22 = build_aknn(2, 2)
_TYPES = r"^transitions must be \(src, letter, dst\) triples, and every index an integer$"

# name: (call, a pattern for the message of the InputError it must raise,
# or None if it must return a value that works)
PROBES = {
    "float src": (lambda: _nfa(trans=((0.5, 0, 1),)), _TYPES),
    "float letter": (lambda: _nfa(trans=((0, 0.0, 1),)), _TYPES),
    "str dst": (lambda: _nfa(trans=((0, 0, "1"),)), _TYPES),
    "None src": (lambda: _nfa(trans=((None, 0, 1),)), _TYPES),
    "short triple": (lambda: _nfa(trans=((0, 0),)), _TYPES),
    "float initial": (lambda: _nfa(initial=(0.0,)), _TYPES),
    "str accepting": (lambda: _nfa(accepting=("1",)), _TYPES),
    "None initial": (lambda: _nfa(initial=(None,)), _TYPES),
    "negative dst": (lambda: _nfa(trans=((0, 0, -1),)), r"^transition \(0, 0, -1\) out of range"),
    "letter past the alphabet": (lambda: _nfa(trans=((0, 1, 1),)),
                                 r"^transition \(0, 1, 1\) out of range"),
    "initial past the states": (lambda: _nfa(initial=(2,)), "^state index 2 out of range"),
    "float state count": (lambda: _nfa(n=2.0), "^state count must be an integer"),
    "str state count": (lambda: _nfa(n="2"), "^state count must be an integer"),
    "None state count": (lambda: _nfa(n=None), "^state count must be an integer"),
    "None state name": (lambda: _nfa(names=("p", None)), "^bad state name None"),
    "bool indices": (lambda: _nfa(trans=((False, False, True),), initial=(False,)), None),
    "list fields": (lambda: Nfa(2, ["a"], [[0, 0, 1]], [0], [1], ["p", "q"]), None),
    "float DAG source": (lambda: dag_gadget(Dag(3, ((0, 1),), 0.5, 2)),
                         "^n_nodes, source and target must be integers"),
    "str DAG edge": (lambda: dag_gadget(Dag(3, ((0, "1"),), 0, 2)), "^edges must be"),
    "format_word -1": (lambda: format_word(_A22, (-1,)),
                       "^letter id -1 not in alphabet of size 2$"),
    "format_word 99": (lambda: format_word(_A22, (99,)),
                       "^letter id 99 not in alphabet of size 2$"),
    "format_word 1.5": (lambda: format_word(_A22, (1.5,)), "^letter id 1.5 not in"),
    "format_word 1.0": (lambda: format_word(_A22, (1.0,)),
                        "^letter id 1.0 not in alphabet of size 2$"),
    "accepts 99": (lambda: accepts(_A22, (99,)), "^letter id 99 not in"),
    "accepts 1.0": (lambda: accepts(_A22, (1.0,)), "^letter id 1.0 not in alphabet of size 2$"),
    "encode_run too small": (lambda: encode_run(accepting_machine(), "1", 1, 1, 1),
                             r"^\|W_\{1,1\}\| = 1 is too short for the run$"),
    "encode_run one block short": (lambda: encode_run(accepting_machine(), "1", 1, 1, 3),
                                   r"^\|W_\{1,3\}\| = 3 is too short for the run$"),
}


@pytest.mark.parametrize("name", PROBES)
def test_a_probe_is_refused_at_the_call_or_builds_a_value_that_works(name):
    call, message = PROBES[name]
    if message is not None:
        with pytest.raises(InputError, match=message):
            call()
        return
    value = call()
    universal(value)
    classify(value)
    assert parse_automaton(print_automaton(value)) == value
