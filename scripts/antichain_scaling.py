#!/usr/bin/env python3
"""Time ``reduce | universal_antichain``, ``classify`` and ``is_confluent``
on the two micro machines (one accepting, one looping) on input ``1`` at
space bounds 1..pmax.

Each reduction goes through the printed text and back, as in the shell
pipeline ``reduce | universal``; the parse of that text, the antichain
search and, on the same parsed automaton, ``classify`` and the confluence
pair search are timed.  ``classify`` reads confluence off UMS on these
complete, self-loop deterministic poNFAs, so it runs no pair search; the
label must be ptNFA at p <= 3 and the pair search must find the automaton
confluent.  The accepting machine's counterexample must be ``encode_run``'s
word.  Prints one row per machine and bound: the backbone's (k, n), states,
size of the printed text in KB, parse seconds, explored nodes, peak queue
length (``max_frontier``), counterexample length (``-`` for a universal
automaton), antichain seconds, classify seconds and confluence seconds.

Each time is the best of 5 runs at p <= 3, and one run above that.  Each
antichain, classify and confluence run gets an automaton parsed afresh, as
each stage of a shell pipeline parses its own, so the step table that the
first use builds is rebuilt every run.

Usage: python scripts/antichain_scaling.py [pmax]   (default 3)
"""

import math
import sys
import time
from functools import partial

from reduce_demo import machines

from poset_automata.classify import classify, is_confluent
from poset_automata.core import parse_automaton, print_automaton
from poset_automata.reduction import encode_run, reduce
from poset_automata.universality import universal_antichain


def best(repeats, fn, arg):
    """The fastest of ``repeats`` timed calls ``fn(arg())`` and the last
    result; ``arg`` runs outside the timing."""
    seconds = math.inf
    for _ in range(repeats):
        x = arg()
        t0 = time.perf_counter()
        result = fn(x)
        seconds = min(seconds, time.perf_counter() - t0)
    return seconds, result


def main():
    pmax = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    print(f"{'machine':>9} {'p':>2} {'(k, n)':>8} {'states':>6} {'text KB':>7} {'parse s':>7} {'explored':>8} "
          f"{'frontier':>8} {'ce len':>6} {'seconds':>8} {'classify s':>10} {'confluence s':>12}")
    for pval in range(1, pmax + 1):
        for label, machine in machines():
            repeats = 5 if pval <= 3 else 1
            art = reduce(machine, "1", pval)
            text = print_automaton(art.automaton)
            parse_s, a = best(repeats, parse_automaton, lambda: text)
            fresh = partial(parse_automaton, text)
            elapsed, res = best(repeats, universal_antichain, fresh)
            assert res.universal == (label != "accepting")
            assert res.universal or res.counterexample == encode_run(machine, "1", pval,
                                                                     art.k, art.n)
            classify_s, report = best(repeats, classify, fresh)
            assert pval > 3 or report.label == "ptNFA"
            confluence_s, (confluent, _) = best(repeats, is_confluent, fresh)
            assert confluent
            ce = "-" if res.universal else len(res.counterexample)
            print(f"{label:>9} {pval:>2} {f'({art.k}, {art.n})':>8} {a.n_states:>6} {len(text.encode()) / 1000:>7.1f} "
                  f"{parse_s:>7.4f} {res.explored:>8} "
                  f"{res.max_frontier:>8} {ce:>6} "
                  f"{elapsed:>8.4f} {classify_s:>10.4f} {confluence_s:>12.4f}", flush=True)


if __name__ == "__main__":
    main()
