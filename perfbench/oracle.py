"""Correctness oracles for the benchmark, independent of the toolkit.

Nothing here imports ``poset_automata``.  Automata are read back from the
text the toolkit printed, by a parser of this file's own, and every check is
a frozenset simulation or a breadth-first search over that parsed transition
list.  Each ``check_*`` function returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class TextNfa:
    """An automaton as printed: names only, transitions as a dict of sets."""

    letters: tuple[str, ...]
    states: tuple[str, ...]
    initial: frozenset[str]
    accepting: frozenset[str]
    delta: dict[tuple[str, str], frozenset[str]]
    n_arcs: int
    header: tuple[str, ...]


def parse_text_nfa(text: str) -> TextNfa:
    fields: dict[str, list[str]] = {}
    header: list[str] = []
    delta: dict[tuple[str, str], set[str]] = {}
    n_arcs = 0
    for line in text.splitlines():
        if line.startswith("#"):
            header.append(line[1:].strip())
            continue
        head, _, rest = line.partition(":")
        tokens = rest.split()
        if head == "trans":
            src, letter, dst = tokens
            targets = delta.setdefault((src, letter), set())
            if dst not in targets:
                targets.add(dst)
                n_arcs += 1
        elif head:
            fields[head] = tokens
    return TextNfa(tuple(fields["alphabet"]), tuple(fields["states"]),
                   frozenset(fields["initial"]), frozenset(fields["accepting"]),
                   {k: frozenset(v) for k, v in delta.items()}, n_arcs,
                   tuple(header))


def run_word(a: TextNfa, word) -> frozenset[str]:
    current = a.initial
    for letter in word:
        current = frozenset(r for q in current for r in a.delta.get((q, letter), ()))
    return current


def accepted(a: TextNfa, word) -> bool:
    return bool(run_word(a, word) & a.accepting)


def shortest_rejected_len(a: TextNfa, max_subsets: int = 1 << 16):
    """Length of a shortest rejected word, or None when every word is
    accepted: a plain subset-construction BFS with exact deduplication."""
    start = a.initial
    depth = {start: 0}
    queue = deque([start])
    while queue:
        subset = queue.popleft()
        if not subset & a.accepting:
            return depth[subset]
        for letter in a.letters:
            img = frozenset(r for q in subset for r in a.delta.get((q, letter), ()))
            if img not in depth:
                if len(depth) >= max_subsets:
                    raise RuntimeError("oracle subset BFS exceeded its bound")
                depth[img] = depth[subset] + 1
                queue.append(img)
    return None


def w_word(k: int, n: int) -> tuple[str, ...]:
    """W(k,1) = a1^k, W(1,n) = a1..an, W(k,n) = W(k,n-1) a_n W(k-1,n)."""
    if k == 0 or n == 0:
        return ()
    if n == 1:
        return ("a1",) * k
    if k == 1:
        return tuple(f"a{i}" for i in range(1, n + 1))
    return w_word(k, n - 1) + (f"a{n}",) + w_word(k - 1, n)


def dag_reachable(edges, source: int, target: int) -> bool:
    succ: dict[int, list[int]] = {}
    for u, v in edges:
        succ.setdefault(u, []).append(v)
    seen = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in succ.get(u, ()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return target in seen


# ---------------------------------------------------------------------------
# reading the toolkit's reports back


def parse_universal_report(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return {"universal": out.get("universal") == "yes",
            "counterexample": tuple(out["counterexample"].split())
            if "counterexample" in out else None}


def parse_class_report(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        out[key] = value.split(" ", 1)[0] if key != "class" else value
    return out


# ---------------------------------------------------------------------------
# checks


def check_universal(a: TextNfa, report: str, expect_universal=None,
                    expect_counterexample=None) -> list[str]:
    """Verdict against ``expect_universal`` when given, else against the
    subset BFS; a counterexample must be rejected and, when the BFS ran, as
    short as the shortest rejected word."""
    r = parse_universal_report(report)
    problems = []
    shortest = None
    if expect_universal is None:
        shortest = shortest_rejected_len(a)
        expect_universal = shortest is None
    if r["universal"] != expect_universal:
        problems.append(f"verdict universal={r['universal']}, expected {expect_universal}")
    elif not r["universal"]:
        cex = r["counterexample"]
        if cex is None or accepted(a, cex):
            problems.append(f"counterexample {cex} is accepted")
        elif shortest is not None and len(cex) != shortest:
            problems.append(f"counterexample length {len(cex)}, shortest is {shortest}")
        elif expect_counterexample is not None and cex != tuple(expect_counterexample):
            problems.append("counterexample differs from the expected word")
    return problems


def check_class(report: str, expect: dict) -> list[str]:
    """Each expected ``flag: value`` (and ``class: label``) must appear."""
    got = parse_class_report(report)
    return [f"{key}: got {got.get(key)!r}, expected {value!r}"
            for key, value in expect.items() if got.get(key) != value]


def check_lemma2(report: str) -> list[str]:
    """Complete, partially ordered, self-loop deterministic input: confluent
    must equal ums."""
    got = parse_class_report(report)
    problems = check_class(report, {"complete": "true", "partially_ordered": "true",
                                    "self_loop_deterministic": "true"})
    if got.get("confluent") != got.get("ums"):
        problems.append(f"confluent={got.get('confluent')} but ums={got.get('ums')}")
    return problems
