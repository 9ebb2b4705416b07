#!/usr/bin/env python3
"""Walk through the DTM-to-ptNFA universality reduction on two micro
machines (one accepting, one looping) at space bound 1.

Usage: python scripts/reduce_demo.py [pval]
"""

import sys
import time

from poset_automata.classify import classify
from poset_automata.core import accepts
from poset_automata.dtm import Dtm
from poset_automata.reduction import encode_run, reduce
from poset_automata.universality import universal_antichain


def machines():
    base = dict(states=("q0", "qf"), initial="q0", accepting="qf",
                tape_alphabet=("_", "1"), input_alphabet=("1",), blank="_")
    accept = Dtm(rules=(("q0", "1", "qf", "1", "S"), ("q0", "_", "q0", "_", "S")),
                 **base)
    loop = Dtm(rules=(("q0", "1", "q0", "1", "S"), ("q0", "_", "q0", "_", "S")),
               **base)
    return (("accepting", accept), ("looping", loop))


def main():
    pval = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    for label, machine in machines():
        print(f"== {label} machine, input '1', space bound {pval} ==")
        t0 = time.time()
        art = reduce(machine, "1", pval)
        print(f"built in {time.time() - t0:.2f}s: backbone A({art.k},{art.n}), "
              f"{art.automaton.n_states} states, "
              f"{len(art.automaton.alphabet)} pair letters")
        for name, offset, count in art.components:
            print(f"  {name:<12} offset={offset:<6} states={count}")
        print(f"class: {classify(art.automaton).label}")
        if label == "accepting":
            word = encode_run(machine, "1", pval, art.k, art.n)
            print(f"run encoding: {len(word)} letters, "
                  f"rejected={not accepts(art.automaton, word)}")
        t0 = time.time()
        res = universal_antichain(art.automaton)
        print(f"universal: {res.universal} (expected {label != 'accepting'}), "
              f"{res.explored} nodes in {time.time() - t0:.2f}s")
        print()


if __name__ == "__main__":
    main()
