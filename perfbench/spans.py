"""Spans recorded from outside the toolkit, around calls into its modules.

``Tracer.install`` replaces public functions with timing wrappers wherever a
toolkit module binds them (``cli`` imports ``reduce`` as ``tm_reduce``, for
example), so calls between modules are caught as well as the benchmark's own.
Each span is ``[name, start, end, parent, instance, size]``, kept in memory
and written out by ``dump``; ``size`` is the text length for
``core.parse_automaton`` and 0 elsewhere.

``Nfa.step_mask`` runs millions of times in the confluence check, so it is
not a span: its calls, time and input popcount are added to the innermost
open span.  ``succ_mask`` is not wrapped at all.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext

# (module, attribute, span name); the attribute is wrapped in every toolkit
# module that binds the same function object.
TARGETS = [
    ("dtm", "parse_dtm", "dtm.parse_dtm"),
    ("reduction", "reduce", "reduction.reduce"),
    *[("reduction", f"build_part_{p}", f"reduction.build_part_{p}")
      for p in ("a", "b", "c1", "c2", "c3", "c4")],
    ("hardness", "build_aknn", "hardness.build_aknn"),
    ("hardness", "trim_aknn", "hardness.trim_aknn"),
    ("hardness", "dag_gadget", "hardness.dag_gadget"),
    ("core", "parse_automaton", "core.parse_automaton"),  # records len(text)
    ("core", "print_automaton", "core.print_automaton"),
    ("classify", "classify", "classify.classify"),
    *[("universality", f, f"universality.{f}")
      for f in ("universal", "universal_antichain", "universal_state_mask",
                "universal_sponfa", "universal_unary_po")],
]

NO_SPAN = nullcontext()


class NullTracer:
    """Tracing off: every span is one shared no-op context."""

    instance = None

    def span(self, name):
        return NO_SPAN


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.idx = self.tracer._open(self.name)

    def __exit__(self, *exc):
        self.tracer._close(self.idx, time.perf_counter())


class Tracer:
    """Spans and ``step_mask`` aggregates of one traced phase."""

    def __init__(self):
        self.spans: list[list] = []
        self.leaf: dict[int, list] = {}  # span index -> [calls, seconds, popcount]
        self.instance = None
        self._stack = [-1]
        self._patches: list[tuple] = []
        self.originals: dict = {}  # span name -> unwrapped function

    def span(self, name):
        return _Span(self, name)

    def _open(self, name) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1], self.instance, 0])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx, end) -> None:
        self._stack.pop()
        self.spans[idx][2] = end

    def _wrap(self, fn, name):
        open_, close, clock = self._open, self._close, time.perf_counter

        spans, sized = self.spans, name == "core.parse_automaton"

        def traced(*args, **kwargs):
            idx = open_(name)
            if sized:
                spans[idx][5] = len(args[0])
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx, clock())

        return traced

    def _wrap_leaf(self, fn):
        leaf, stack, clock = self.leaf, self._stack, time.perf_counter

        def step_mask(nfa, mask, a):
            t0 = clock()
            out = fn(nfa, mask, a)
            dt = clock() - t0
            acc = leaf.get(stack[-1])
            if acc is None:
                acc = leaf[stack[-1]] = [0, 0.0, 0]
            acc[0] += 1
            acc[1] += dt
            acc[2] += mask.bit_count()
            return out

        return step_mask

    def install(self, package: str = "poset_automata") -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key.startswith(package + ".") and m is not None]
        for mod_name, attr, span_name in TARGETS:
            orig = getattr(sys.modules[f"{package}.{mod_name}"], attr)
            self.originals[span_name] = orig
            wrapper = self._wrap(orig, span_name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        nfa = sys.modules[f"{package}.core"].Nfa
        self._patches.append((nfa, "step_mask", nfa.step_mask))
        nfa.step_mask = self._wrap_leaf(nfa.step_mask)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- analysis -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus its child spans and step_mask time."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        for idx, (_, seconds, _) in self.leaf.items():
            if idx >= 0:
                own[idx] -= seconds
        return own

    def inside(self, root_name: str) -> list[bool]:
        """Per span: whether it is, or lies under, a span named root_name."""
        flags = []
        for name, _, _, parent, _, _ in self.spans:
            flags.append(name == root_name or (parent >= 0 and flags[parent]))
        return flags

    def dump(self, path) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, inst, size) in enumerate(self.spans):
                calls, seconds, _ = self.leaf.get(idx, (0, 0.0, 0))
                fh.write(json.dumps({"id": idx, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "instance": inst, "size": size,
                                     "self_s": own[idx],
                                     "step_mask_calls": calls,
                                     "step_mask_s": seconds}) + "\n")
