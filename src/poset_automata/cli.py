"""Command-line front end.

Exit codes: 0 success, 1 meaningful negative (non-universal, class mismatch
against --expect, failed selftest), 2 input error (usage errors included),
3 resource-cap error, an exhausted interpreter resource (MemoryError,
RecursionError) or a standard output closed before all of it was written.
Every failure prints one line on stderr; ``-h`` prints its usage text and
exits 0.
``-`` names stdin for any file argument.  Resource caps come from the
POSET_AUTOMATA_CAPS environment variable (comma-separated key=value pairs).
"""

from __future__ import annotations

import argparse
import os
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


class _Parser(argparse.ArgumentParser):
    """A usage error raises ``InputError`` with argparse's message, so that
    ``main`` prints it as one line and returns 2; subparsers are made of
    the same class."""

    def error(self, message):
        raise InputError(message)


def _write(text: str) -> None:
    """Write ``text`` to stdout, its last character apart.  One write larger
    than the stream's buffer goes straight to the file, and into a pipe
    whose reader has gone it can come back short without an error; the last
    character then waits in the buffer, and ``main``'s flush shows the
    closed pipe."""
    sys.stdout.write(text[:-1])
    sys.stdout.write(text[-1:])


@cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first call and reused.  Each subcommand's ``run`` default
    is its ``_cmd_`` function; ``_cmd_universal`` finds ``universal`` at call
    time, and ``_cmd_reduce`` and ``_cmd_selftest`` import their modules when
    they run, so the other commands never load them."""
    parser = _Parser(
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
    _write(format_report(a, report))
    if args.expect and report.label != args.expect:
        return 1
    return 0


def _cmd_universal(args) -> int:
    a = parse_automaton(_read(args.file))
    res = {"auto": universal, "sponfa": universal_sponfa, "unary": universal_unary_po,
           "antichain": universal_antichain, "subset": universal_subset,
           "brute": universal_brute}[args.method](a)
    _write(format_result(a, res))
    return 0 if res.universal else 1


def _cmd_gen_word(args) -> int:
    word = w_word(args.k, args.n)
    _write(" ".join(f"a{x + 1}" for x in word) + "\n")
    return 0


def _cmd_gen_aknn(args) -> int:
    a = trim_aknn(args.k, args.n) if args.trim else build_aknn(args.k, args.n)
    _write(print_automaton(a))
    return 0


def _cmd_gen_dag(args) -> int:
    gadget = dag_gadget(parse_dag(_read(args.file)))
    _write(print_automaton(gadget))
    return 0


def _cmd_reduce(args) -> int:
    from .dtm import parse_dtm
    from .reduction import reduce
    machine = parse_dtm(_read(args.tm))
    word = args.input.replace(",", " ").split()
    artifact = reduce(machine, word, args.space)
    header = [
        f"reduction: k={artifact.k} n={artifact.n} space={artifact.pval} "
        f"pi-letters={len(artifact.automaton.alphabet)}",
    ]
    header.extend(f"component {name}: offset={off} states={count}"
                  for (name, off, count) in artifact.components)
    header.append("attachment states: " + " ".join(artifact.attachment_states))
    _write(print_automaton(artifact.automaton, header=header))
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest
    return 0 if run_selftest(args.seed, args.samples) else 1


def main(argv=None) -> int:
    command = "poset-automata"  # until the arguments name one
    try:
        args = _build_parser().parse_args(argv)
        command = args.command
        default_caps()  # up front: a malformed value exits 2 even where no cap is reached
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"resource limit: {command} ran out of memory", file=sys.stderr)
        return 3
    except RecursionError:
        print(f"resource limit: {command} exceeded the recursion limit", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # what is left in the buffer goes to devnull, so the flush at exit
        # cannot fail again (the note on SIGPIPE in the ``signal`` docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"output closed: {command} could not write all of its output", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
