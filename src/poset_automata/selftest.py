"""Cross-module oracle battery behind the CLI selftest subcommand."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .classify import classify, is_complete, is_confluent, is_ums
from .core import Nfa, Word, accepts
from .dtm import Dtm, simulate_dtm
from .errors import InputError, SimulationError
from .hardness import build_aknn, dag_gadget, dag_reachable, trim_aknn, w_word
from .reduction import config_count, encode_run, reduce
from .sampling import random_complete_po_sld, random_dag
from .universality import universal, universal_subset


@dataclass
class SuiteResult:
    name: str
    passed: int
    total: int
    failures: list

    @property
    def ok(self) -> bool:
        return self.passed == self.total


def rejects_exactly(a: Nfa, word: Word) -> bool:
    """L(a) is every word except ``word``: ``a`` rejects ``word``, and adding
    a chain of |word|+1 fresh states that accepts only ``word`` makes ``a``
    universal, which the subset BFS decides exactly.  The fresh names are
    longer than every name of ``a``, so none clashes."""
    if accepts(a, word):
        return False
    n, m = a.n_states, len(word)
    tag = "~" * (1 + max(map(len, a.state_names)))
    chain = tuple((n + i, x, n + i + 1) for i, x in enumerate(word))
    union = Nfa(n + m + 1, a.alphabet, a.transitions + chain, a.initial + (n,),
                a.accepting + (n + m,),
                a.state_names + tuple(f"{tag}{i}" for i in range(m + 1)))
    return universal_subset(union).universal


def random_dtm(rng: random.Random, n_states: int = 4) -> Dtm:
    """A machine over the tape {_, 0, 1} and input {0, 1} with states q0..
    and qf, each (state, symbol) pair of a non-accepting state holding a
    random rule (L, R or S move) with probability 0.7."""
    states = tuple(f"q{i}" for i in range(n_states - 1)) + ("qf",)
    tape = ("_", "0", "1")
    rules = tuple((q, t, rng.choice(states), rng.choice(tape), rng.choice("LRS"))
                  for q in states[:-1] for t in tape if rng.random() < 0.7)
    return Dtm(states, "q0", "qf", tape, ("0", "1"), "_", rules)


def _suite_lemma2(seed: int, samples: int) -> SuiteResult:
    """Confluence and UMS must agree on complete partially ordered
    self-loop deterministic automata (both directions of the rpoNFA/ptNFA
    equivalence).  ``classify`` reads confluence off UMS in this class, so
    the pair search ``is_confluent`` is asked directly, and ``classify``
    must give its answer."""
    rng = random.Random(seed)
    failures = []
    for i in range(samples):
        a = random_complete_po_sld(rng)
        rep = classify(a)
        assert rep.complete and rep.partially_ordered and rep.self_loop_deterministic
        confluent, ums = is_confluent(a)[0], is_ums(a)[0]
        if confluent != ums or rep.confluent != confluent:
            failures.append((i, confluent, ums, rep.confluent))
    return SuiteResult("lemma2-equivalence", samples - len(failures), samples, failures)


def _suite_aknn(seed: int, samples: int) -> SuiteResult:
    """Exact-language law for the W-rejecting family at k,n <= 3: A_{k,n}
    and its trimmed variant both reject exactly W_{k,n}, and A_{k,n} has
    n(2k+1)+1 states."""
    failures = []
    cases = [(k, n) for k in (1, 2, 3) for n in (1, 2, 3)]
    for (k, n) in cases:
        a = build_aknn(k, n)
        word = w_word(k, n)
        ok = a.n_states == n * (2 * k + 1) + 1
        ok = ok and rejects_exactly(a, word)
        ok = ok and classify(a).label == "ptNFA"
        trimmed = trim_aknn(k, n)
        if n >= 2:  # at n = 1 no group-6 transitions exist, so nothing is lost
            ok = ok and not is_complete(trimmed)[0]
            ok = ok and classify(trimmed).label == "rpoNFA"
        ok = ok and rejects_exactly(trimmed, word)
        if not ok:
            failures.append((k, n))
    return SuiteResult("aknn-exact-language", len(cases) - len(failures), len(cases),
                       failures)


def _suite_dag(seed: int, samples: int) -> SuiteResult:
    """Gadget universality must equal plain BFS reachability; non-universal
    gadgets must reject a^{n-1}."""
    rng = random.Random(seed + 1)
    failures = []
    total = min(samples, 200)
    for i in range(total):
        g = random_dag(rng)
        gadget = dag_gadget(g)
        res = universal(gadget)
        ok = res.universal == dag_reachable(g)
        if not res.universal:
            ok = ok and not accepts(gadget, (0,) * (g.n_nodes - 1))
            ok = ok and not accepts(gadget, res.counterexample)
        if not ok:
            failures.append(i)
    return SuiteResult("dag-gadget", total - len(failures), total, failures)


def _suite_reduction(seed: int, samples: int) -> SuiteResult:
    """The reduction against simulation on up to 50 random machines at
    space bound 1: the output is a ptNFA, universal iff the run does not
    accept (a run that leaves the tape does not), and on acceptance its
    counterexample is ``encode_run``'s word."""
    rng = random.Random(seed + 2)
    failures = []
    total = min(samples, 50)
    for i in range(total):
        m = random_dtm(rng, rng.randint(2, 4))
        x = rng.choice(("", "0", "1"))
        try:
            accepted = simulate_dtm(m, x, 1, config_count(m, 1) + 1).verdict == "accept"
        except SimulationError:
            accepted = False
        art = reduce(m, x, 1)
        res = universal(art.automaton)
        ok = res.universal != accepted and classify(art.automaton).label == "ptNFA"
        if accepted:
            ok = ok and res.counterexample == encode_run(m, x, 1, art.k, art.n)
        if not ok:
            failures.append(i)
    return SuiteResult("reduction", total - len(failures), total, failures)


SUITES: tuple[tuple[str, Callable[[int, int], SuiteResult]], ...] = (
    ("lemma2-equivalence", _suite_lemma2),
    ("aknn-exact-language", _suite_aknn),
    ("dag-gadget", _suite_dag),
    ("reduction", _suite_reduction),
)


def run_selftest(seed: int = 0, samples: int = 1000) -> bool:
    if samples < 0:
        raise InputError("the sample count must be nonnegative")
    results = [fn(seed, samples) for _name, fn in SUITES]
    for r in results:
        print(f"suite {r.name}: {r.passed}/{r.total} pass")
    ok = all(r.ok for r in results)
    print(f"selftest: {'PASS' if ok else 'FAIL'} ({len(results)} suites)")
    return ok
