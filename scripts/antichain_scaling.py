#!/usr/bin/env python3
"""Time ``reduce | universal_antichain`` on the two micro machines (one
accepting, one looping) on input ``1`` at space bounds 1..pmax.

Each reduction goes through the printed text and back, as in the shell
pipeline ``reduce | universal``; only the antichain search is timed.  Prints
one row per machine and bound: states, explored nodes, counterexample length
(``-`` for a universal automaton) and seconds.

Usage: python scripts/antichain_scaling.py [pmax]   (default 3)
"""

import sys
import time

from reduce_demo import machines

from poset_automata.core import parse_automaton, print_automaton
from poset_automata.reduction import reduce
from poset_automata.universality import universal_antichain


def main():
    pmax = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    print(f"{'machine':>9} {'p':>2} {'states':>6} {'explored':>8} {'ce len':>6} {'seconds':>8}")
    for pval in range(1, pmax + 1):
        for label, machine in machines():
            a = parse_automaton(print_automaton(reduce(machine, "1", pval).automaton))
            t0 = time.perf_counter()
            res = universal_antichain(a)
            elapsed = time.perf_counter() - t0
            assert res.universal == (label != "accepting")
            ce = "-" if res.universal else len(res.counterexample)
            print(f"{label:>9} {pval:>2} {a.n_states:>6} {res.explored:>8} {ce:>6} "
                  f"{elapsed:>8.2f}", flush=True)


if __name__ == "__main__":
    main()
