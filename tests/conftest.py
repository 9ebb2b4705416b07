import pytest

from poset_automata.core import Nfa
from poset_automata.dtm import Dtm


def reach_order(a: Nfa) -> list[set[int]]:
    """Reachability oracle: row q is the set of states reachable from q in
    zero or more steps, by a plain graph search over ``transitions``."""
    rows = []
    for q in range(a.n_states):
        seen, todo = {q}, [q]
        while todo:
            p = todo.pop()
            for (s, _x, r) in a.transitions:
                if s == p and r not in seen:
                    seen.add(r)
                    todo.append(r)
        rows.append(seen)
    return rows


def complete_with_fresh_sink(a: Nfa) -> Nfa:
    """Route every undefined (state, letter) to a new non-accepting sink."""
    sink = a.n_states
    trans = list(a.transitions) + [(sink, x, sink) for x in range(a.n_letters)]
    trans += [(q, x, sink) for q in range(a.n_states) for x in range(a.n_letters)
              if (q, x) not in a.succ]
    return Nfa(sink + 1, a.alphabet, tuple(trans), a.initial, a.accepting,
               a.state_names + ("sink",))


def accepting_machine() -> Dtm:
    """Enters the accepting state on the first input symbol."""
    return Dtm(states=("q0", "qf"), initial="q0", accepting="qf",
               tape_alphabet=("_", "1"), input_alphabet=("1",), blank="_",
               rules=(("q0", "1", "qf", "1", "S"), ("q0", "_", "q0", "_", "S")))


def rejecting_machine() -> Dtm:
    """Loops in place forever; never accepts."""
    return Dtm(states=("q0", "qf"), initial="q0", accepting="qf",
               tape_alphabet=("_", "1"), input_alphabet=("1",), blank="_",
               rules=(("q0", "1", "q0", "1", "S"), ("q0", "_", "q0", "_", "S")))


def incrementing_machine() -> Dtm:
    """Walks right over 1s and writes a 1 on the first blank."""
    return Dtm(states=("q0", "qf"), initial="q0", accepting="qf",
               tape_alphabet=("_", "1"), input_alphabet=("1",), blank="_",
               rules=(("q0", "1", "q0", "1", "R"), ("q0", "_", "qf", "1", "S")))


def head_moving_machine() -> Dtm:
    """Steps right, then back left into the accepting state."""
    return Dtm(states=("q0", "q1", "qf"), initial="q0", accepting="qf",
               tape_alphabet=("_", "1"), input_alphabet=("1",), blank="_",
               rules=(("q0", "1", "q1", "1", "R"),
                      ("q1", "1", "qf", "1", "L"),
                      ("q1", "_", "qf", "_", "L"),
                      ("q0", "_", "q0", "_", "S")))


@pytest.fixture
def tm_accepting():
    return accepting_machine()


@pytest.fixture
def tm_rejecting():
    return rejecting_machine()


@pytest.fixture
def tm_incrementing():
    return incrementing_machine()
