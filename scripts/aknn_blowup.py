#!/usr/bin/env python3
"""Show the W-rejecting family at small sizes: linear automata whose unique
rejected word (and hence the subset search that finds it) grows binomially.

Usage: python scripts/aknn_blowup.py
"""

import time
from math import comb

from poset_automata.classify import classify
from poset_automata.hardness import build_aknn, w_word
from poset_automata.universality import universal_antichain, universal_subset


def main():
    print(f"{'k,n':>5} {'states':>7} {'|W|':>6} {'subset BFS':>11} "
          f"{'ce len':>7} {'label':>8} {'time':>8}")
    for k in range(1, 5):
        for n in range(1, 5):
            t0 = time.time()
            a = build_aknn(k, n)
            explored = universal_subset(a).explored
            res = universal_antichain(a)
            label = classify(a).label
            elapsed = time.time() - t0
            assert res.counterexample == w_word(k, n)
            assert len(res.counterexample) == comb(k + n, n) - 1
            print(f"{k},{n:>3} {a.n_states:>7} {comb(k + n, n) - 1:>6} "
                  f"{explored:>11} {len(res.counterexample):>7} "
                  f"{label:>8} {elapsed:>7.2f}s")


if __name__ == "__main__":
    main()
