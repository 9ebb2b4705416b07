"""The benchmark's workloads: seeded inputs, the timed pipelines and the
oracle checks for each instance.

An instance's ``run`` is the timed part: input text in, verdict or report
text out, through the same calls a user makes (``cli.main`` for the shell
pipelines, the library for the battery of small instances).  ``check`` runs
afterwards, outside the timed region, and uses only ``oracle``.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

import oracle

# Two micro machines of the test suite, as machine description files.
_MACHINE = """states: q0 qf
initial: q0
accepting: qf
tape: _ 1
input: 1
blank: _
delta: q0 1 -> {one}
delta: q0 _ -> {blank}
"""
MACHINES = {
    "accepting": _MACHINE.format(one="qf 1 S", blank="q0 _ S"),
    "rejecting": _MACHINE.format(one="q0 1 S", blank="q0 _ S"),
}
# Whether each machine accepts the input word 1 within the space bound.
MACHINE_ACCEPTS = {"accepting": True, "rejecting": False}

# |W(k,n)| = C(k+n,n) - 1 is 251, 329 and 461: long enough for the
# quadratic domination scan to dominate the search, short enough that each
# stage takes tens of milliseconds, so a run repeats each one many times and
# its fastest repeat falls in a quiet moment of the machine.
AKNN_PARAMS = ((5, 5), (7, 4), (4, 7), (6, 5), (5, 6))
AKNN_TRIMMED = (6, 5)
BATTERY_UNIVERSAL = 2000
BATTERY_CLASSIFY = 500

PTNFA_REPORT = {"complete": "true", "partially_ordered": "true",
                "self_loop_deterministic": "true", "confluent": "true",
                "ums": "true", "class": "ptNFA"}


class InstanceFailed(Exception):
    """A CLI subcommand ended with exit code 2 (input) or 3 (resource cap)."""


class Session:
    """The toolkit modules plus the tracer for one benchmark run.

    ``decided`` receives every result of the universality dispatcher called
    by the CLI, so that counts the report text omits (the frontier peak)
    stay available with tracing off.  ``laps`` receives the wall time of
    each CLI call, so that the stages of a pipeline are timed one by one.
    """

    def __init__(self, toolkit, tracer):
        self.tk = toolkit
        self.tracer = tracer
        self.decided: list = []
        self.laps: list = []

        def universal(*args, **kwargs):
            res = toolkit.universality.universal(*args, **kwargs)
            self.decided.append(res)
            return res

        toolkit.cli.universal = universal

    def cli(self, *argv: str, stdin: str = "") -> str:
        """``poset-automata <argv>`` with ``stdin``; returns stdout."""
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    self.tracer.span("cli." + argv[0]):
                rc = self.tk.cli.main(list(argv))
        finally:
            self.laps.append(time.perf_counter() - t0)
            sys.stdin = saved
        if rc not in (0, 1):
            raise InstanceFailed(f"{argv[0]} exit {rc}: {err.getvalue().strip()}")
        return out.getvalue()

    def last_decision(self) -> tuple:
        res = self.decided.pop()
        self.decided.clear()
        return decision_counts(res)


def decision_counts(res) -> tuple:
    cex = -1 if res.counterexample is None else len(res.counterexample)
    return (res.method, res.explored, res.max_frontier, cex)


@dataclass
class Instance:
    """One input of a workload.

    ``run(session)`` returns a tuple whose first items are the output texts
    and whose last item is the decider's (method, explored, max_frontier,
    counterexample length), or None when nothing was decided.
    ``classified(outputs)`` names the automaton text that was classified, so
    the traced run can time each predicate on it as a separate call.
    """

    id: str
    run: Callable[[Session], tuple]
    check: Callable[[tuple], list]
    sizes: Callable[[tuple], dict] = lambda outputs: {}
    classified: Callable[[tuple], Optional[str]] = lambda outputs: None


@dataclass
class Workload:
    name: str
    why: str
    make: Callable[[int], list]
    warmup: Callable[[], list]


# ---------------------------------------------------------------------------
# shared pieces


def _reduction_sizes(text: str) -> dict:
    a = oracle.parse_text_nfa(text)
    head = dict(tok.split("=") for tok in a.header[0].split()[1:])
    return {"reduction.n": int(head["n"]), "reduction.states": len(a.states),
            "reduction.arcs": a.n_arcs, "reduction.pi_letters": len(a.letters)}


def reduce_decide_instance(machine: str, space: int) -> Instance:
    """``reduce --space p | universal``: universal iff the machine does not
    accept within the bound."""
    expect_universal = not MACHINE_ACCEPTS[machine]

    def run(s: Session):
        reduced = s.cli("reduce", "--tm", "-", "--input", "1", "--space", str(space),
                        stdin=MACHINES[machine])
        verdict = s.cli("universal", "-", stdin=reduced)
        return reduced, verdict, s.last_decision()

    def check(out):
        return oracle.check_universal(oracle.parse_text_nfa(out[0]), out[1],
                                      expect_universal)

    return Instance(f"{machine}-p{space}", run, check,
                    sizes=lambda out: _reduction_sizes(out[0]))


def aknn_instance(k: int, n: int, trim: bool = False,
                  expect_universal: bool = False) -> Instance:
    """``gen-aknn | universal`` (and ``| classify`` untrimmed): the only
    rejected word is W(k,n), so it must come back as the counterexample.
    ``expect_universal=True`` plants a wrong verdict for the gate's test."""
    gen = ("gen-aknn", "--k", str(k), "--n", str(n)) + (("--trim",) if trim else ())

    def run(s: Session):
        text = s.cli(*gen)
        verdict = s.cli("universal", "-", stdin=text)
        decided = s.last_decision()
        report = None if trim else s.cli("classify", "-", stdin=text)
        return text, verdict, report, decided

    def check(out):
        a = oracle.parse_text_nfa(out[0])
        problems = oracle.check_universal(a, out[1], expect_universal,
                                          expect_counterexample=oracle.w_word(k, n))
        if out[2] is not None:
            problems += oracle.check_class(out[2], PTNFA_REPORT)
        return problems

    return Instance(f"A({k},{n}){'-trim' if trim else ''}", run, check,
                    sizes=lambda out: {} if trim else
                    {"hardness.aknn.states": len(oracle.parse_text_nfa(out[0]).states)},
                    classified=lambda out: None if trim else out[0])


# ---------------------------------------------------------------------------
# the random battery


def _battery_universal(tag: str, text: str) -> Instance:
    def run(s: Session):
        core, uni = s.tk.core, s.tk.universality
        a = core.parse_automaton(text)
        res = uni.universal(a)
        return uni.format_result(a, res), decision_counts(res)

    def check(out):
        return oracle.check_universal(oracle.parse_text_nfa(text), out[0])

    return Instance(tag, run, check)


def _battery_dag(tag: str, g) -> Instance:
    """``gen-dag | universal`` through the library: universal iff the target
    is reachable, by the oracle's own BFS."""
    dag_text = "".join([f"nodes: {g.n_nodes}\n", *(f"edge: {u} {v}\n" for u, v in g.edges),
                        f"source: {g.source}\n", f"target: {g.target}\n"])
    expect = oracle.dag_reachable(g.edges, g.source, g.target)

    def run(s: Session):
        core, hardness, uni = s.tk.core, s.tk.hardness, s.tk.universality
        text = core.print_automaton(hardness.dag_gadget(hardness.parse_dag(dag_text)))
        a = core.parse_automaton(text)
        res = uni.universal(a)
        return text, uni.format_result(a, res), decision_counts(res)

    def check(out):
        return oracle.check_universal(oracle.parse_text_nfa(out[0]), out[1], expect)

    return Instance(tag, run, check)


def _battery_classify(tag: str, text: str) -> Instance:
    def run(s: Session):
        core, cls = s.tk.core, s.tk.classify
        a = core.parse_automaton(text)
        return cls.format_report(a, cls.classify(a)), None

    return Instance(tag, run, lambda out: oracle.check_lemma2(out[0]),
                    classified=lambda out: text)


def battery(tk, seed: int, n_universal: int, n_classify: int) -> list:
    """Seeded small instances: random NFAs, saturated poNFAs, unary poNFAs
    and DAG files for ``universal``; complete self-loop deterministic poNFAs
    for ``classify``.  Input texts are printed here, in set-up."""
    rng = random.Random(seed)
    sampling, core = tk.sampling, tk.core
    makers = (sampling.random_nfa, sampling.random_saturated, sampling.random_unary_po)
    out = []
    for i in range(n_universal):
        if i % 4 == 3:
            out.append(_battery_dag(f"u{i}", sampling.random_dag(rng)))
        else:
            a = makers[i % 4](rng)
            out.append(_battery_universal(f"u{i}", core.print_automaton(a)))
    for i in range(n_classify):
        a = sampling.random_complete_po_sld(rng)
        out.append(_battery_classify(f"c{i}", core.print_automaton(a)))
    return out


NAMES = ("reduce-decide-p1", "aknn-decide", "random-battery")


def workloads(tk) -> dict:
    """Name -> Workload.  Only random-battery draws from the seed."""
    items = [
        Workload(
            "reduce-decide-p1",
            "The paper's pipeline reduce --space 1 | universal on the accepting and "
            "rejecting micro machines: the reduction, its 0.7 MB of text and a "
            "wide-subset antichain search.",
            lambda seed: [reduce_decide_instance(m, 1) for m in MACHINES],
            lambda: [aknn_instance(2, 2)]),
        Workload(
            "aknn-decide",
            "gen-aknn | universal and | classify for A(5,5), A(7,4), A(4,7), A(6,5), A(5,6) "
            "and trimmed A(6,5): a long thin search whose domination scan is quadratic in |W| while "
            "step work is light.",
            lambda seed: [aknn_instance(k, n) for k, n in AKNN_PARAMS]
            + [aknn_instance(*AKNN_TRIMMED, trim=True)],
            lambda: [aknn_instance(3, 3)]),
        Workload(
            "random-battery",
            "Thousands of small seeded instances through parse, universal (auto) or "
            "classify: fixed per-call costs dominate, so eager tables or pre-passes "
            "that help the big workloads show here as a loss.",
            lambda seed: battery(tk, seed, BATTERY_UNIVERSAL, BATTERY_CLASSIFY),
            lambda: battery(tk, 0, 40, 10)),
    ]
    assert tuple(w.name for w in items) == NAMES
    return {w.name: w for w in items}
