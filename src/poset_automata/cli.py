"""Command-line front end.

Exit codes: 0 success, 1 meaningful negative (non-universal, class mismatch
against --expect, failed selftest), 2 input error, 3 resource-cap error or
an exhausted interpreter resource (MemoryError, RecursionError).
``-`` names stdin for any file argument.  Resource caps come from the
POSET_AUTOMATA_CAPS environment variable (comma-separated key=value pairs).
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .caps import default_caps
from .classify import LABELS, classify, format_report
from .core import parse_automaton, print_automaton
from .errors import InputError, ResourceLimitError
from .hardness import build_aknn, dag_gadget, parse_dag, trim_aknn, w_word
from .universality import (format_result, universal, universal_antichain,
                           universal_brute, universal_sponfa, universal_subset,
                           universal_unary_po)


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


@cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first call and reused.  Each subcommand's ``run`` default
    is its ``_cmd_`` function; ``_cmd_universal`` finds ``universal`` at call
    time, and ``_cmd_reduce`` and ``_cmd_selftest`` import their modules when
    they run, so the other commands never load them."""
    parser = argparse.ArgumentParser(
        prog="poset-automata",
        description="Partially ordered NFA toolkit: classify, decide "
                    "universality, generate hardness constructions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="structural class report for an automaton")
    p.set_defaults(run=_cmd_classify)
    p.add_argument("file")
    p.add_argument("--expect", choices=LABELS,
                   help="exit 1 unless the derived class matches")

    p = sub.add_parser("universal", help="decide whether L(A) is all words")
    p.set_defaults(run=_cmd_universal)
    p.add_argument("file")
    p.add_argument("--method", default="auto",
                   choices=("auto", "sponfa", "unary", "antichain", "subset", "brute"))
    p.add_argument("--max-len", type=int, default=None,
                   help="word-length bound for --method brute")

    p = sub.add_parser("gen-word", help="print the word W_{k,n}")
    p.set_defaults(run=_cmd_gen_word)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("gen-aknn", help="generate the ptNFA A_{k,n}")
    p.set_defaults(run=_cmd_gen_aknn)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trim", action="store_true",
                   help="emit the trimmed rpoNFA variant instead")

    p = sub.add_parser("gen-dag", help="unary reachability gadget for a DAG file")
    p.set_defaults(run=_cmd_gen_dag)
    p.add_argument("file")

    p = sub.add_parser("reduce", help="space-bounded DTM word problem -> ptNFA universality")
    p.set_defaults(run=_cmd_reduce)
    p.add_argument("--tm", required=True, help="machine description file")
    p.add_argument("--input", required=True,
                   help="input word: symbols separated by spaces or commas; '' for empty")
    p.add_argument("--space", type=int, required=True, help="space bound p(|x|)")

    p = sub.add_parser("selftest", help="run the cross-module oracle suites")
    p.set_defaults(run=_cmd_selftest)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1000)
    return parser


def _cmd_classify(args) -> int:
    a = parse_automaton(_read(args.file))
    report = classify(a)
    sys.stdout.write(format_report(a, report))
    if args.expect and report.label != args.expect:
        return 1
    return 0


def _cmd_universal(args) -> int:
    a = parse_automaton(_read(args.file))
    max_len = args.max_len
    if max_len is None:
        max_len = min(2 ** a.n_states, default_caps().enum_len)
    decide = {"auto": lambda: universal(a),
              "sponfa": lambda: universal_sponfa(a),
              "unary": lambda: universal_unary_po(a),
              "antichain": lambda: universal_antichain(a),
              "subset": lambda: universal_subset(a),
              "brute": lambda: universal_brute(a, max_len)}
    res = decide[args.method]()
    sys.stdout.write(format_result(a, res))
    return 0 if res.universal else 1


def _cmd_gen_word(args) -> int:
    word = w_word(args.k, args.n)
    print(" ".join(f"a{x + 1}" for x in word))
    return 0


def _cmd_gen_aknn(args) -> int:
    a = trim_aknn(args.k, args.n) if args.trim else build_aknn(args.k, args.n)
    sys.stdout.write(print_automaton(a))
    return 0


def _cmd_gen_dag(args) -> int:
    gadget = dag_gadget(parse_dag(_read(args.file)))
    sys.stdout.write(print_automaton(gadget))
    return 0


def _cmd_reduce(args) -> int:
    from .dtm import parse_dtm
    from .reduction import reduce
    machine = parse_dtm(_read(args.tm))
    word = [tok for tok in args.input.replace(",", " ").split() if tok]
    artifact = reduce(machine, word, args.space)
    header = [
        f"reduction: k={artifact.k} n={artifact.n} space={artifact.pval} "
        f"pi-letters={len(artifact.automaton.alphabet)}",
    ]
    header.extend(f"component {name}: offset={off} states={count}"
                  for (name, off, count) in artifact.components)
    header.append("attachment states: " + " ".join(artifact.attachment_states))
    sys.stdout.write(print_automaton(artifact.automaton, header=header))
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest
    return 0 if run_selftest(args.seed, args.samples) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        default_caps()  # up front: a malformed value exits 2 even where no cap is reached
        return args.run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"resource limit: {args.command} ran out of memory", file=sys.stderr)
        return 3
    except RecursionError:
        print(f"resource limit: {args.command} exceeded the recursion limit",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
