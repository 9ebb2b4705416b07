"""Seeded random instance generators for the oracle batteries."""

from __future__ import annotations

import random

from .core import Nfa
from .hardness import Dag, sigma_alphabet


def _names(n: int) -> tuple[str, ...]:
    return tuple(f"s{i}" for i in range(n))


def random_nfa(rng: random.Random, max_states: int = 6, max_letters: int = 3) -> Nfa:
    """Unrestricted NFAs with mixed densities so that universal and
    non-universal instances both occur often."""
    n = rng.randint(1, max_states)
    L = rng.randint(1, max_letters)
    density = rng.choice([0.2, 0.4, 0.7])
    trans = []
    for q in range(n):
        for x in range(L):
            for r in range(n):
                if rng.random() < density:
                    trans.append((q, x, r))
    initial = tuple(q for q in range(n) if rng.random() < 0.5)
    if not initial and rng.random() < 0.9:
        initial = (rng.randrange(n),)
    acc_p = rng.choice([0.3, 0.7, 0.95])
    accepting = tuple(q for q in range(n) if rng.random() < acc_p)
    return Nfa._build(n, sigma_alphabet(L), trans, initial, accepting, _names(n))


def random_complete_po_sld(rng: random.Random, max_states: int = 8,
                           max_letters: int = 3) -> Nfa:
    """Complete, partially ordered, self-loop deterministic NFAs: each
    (state, letter) either keeps exactly its self-loop or moves to a
    nonempty set of strictly higher states (state order = index order)."""
    n = rng.randint(1, max_states)
    L = rng.randint(1, max_letters)
    trans = []
    for q in range(n):
        for x in range(L):
            if q == n - 1 or rng.random() < 0.4:
                trans.append((q, x, q))
            else:
                above = range(q + 1, n)
                size = 1 + min(rng.randrange(3), len(above) - 1)
                for r in rng.sample(above, size):
                    trans.append((q, x, r))
    initial = tuple(q for q in range(n) if rng.random() < 0.4) or (0,)
    accepting = tuple(q for q in range(n) if rng.random() < 0.5)
    return Nfa._build(n, sigma_alphabet(L), trans, initial, accepting, _names(n))


def random_saturated(rng: random.Random, max_states: int = 8,
                     max_letters: int = 3) -> Nfa:
    """Saturated poNFAs: a self-loop everywhere plus random forward edges."""
    n = rng.randint(1, max_states)
    L = rng.randint(1, max_letters)
    trans = [(q, x, q) for q in range(n) for x in range(L)]
    for q in range(n):
        for x in range(L):
            for r in range(q + 1, n):
                if rng.random() < 0.3:
                    trans.append((q, x, r))
    initial = tuple(q for q in range(n) if rng.random() < 0.4) or (rng.randrange(n),)
    accepting = tuple(q for q in range(n) if rng.random() < 0.4)
    return Nfa._build(n, sigma_alphabet(L), trans, initial, accepting, _names(n))


def random_unary_po(rng: random.Random, max_states: int = 8) -> Nfa:
    """Unary poNFAs, not necessarily complete or self-loop deterministic."""
    n = rng.randint(1, max_states)
    trans = []
    for q in range(n):
        for r in range(q, n):
            if rng.random() < 0.4:
                trans.append((q, 0, r))
    initial = tuple(q for q in range(n) if rng.random() < 0.4)
    if not initial and rng.random() < 0.95:
        initial = (rng.randrange(n),)
    accepting = tuple(q for q in range(n) if rng.random() < 0.5)
    return Nfa._build(n, sigma_alphabet(1), trans, initial, accepting, _names(n))


def random_dag(rng: random.Random, max_nodes: int = 12) -> Dag:
    n = rng.randint(2, max_nodes)
    density = rng.choice([0.1, 0.25, 0.5])
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n)
                  if rng.random() < density)
    return Dag(n, edges, rng.randrange(n), rng.randrange(n))
