"""Benchmark of the poset-automata decision pipelines.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process, single-threaded, on inputs made from the
seed, for about S seconds of timed rounds, then checks every output against
the oracles in ``oracle.py``.  Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The traced run spends half its time
untraced, half traced, and writes its spans to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 11
REF_REPEATS = 3        # reference loops after each timed round
# The reference loop's fastest run on the machine the bounds were set on
# (Python 3.11.7, 2 vCPUs); timings are reported at that machine speed.
REF_SECONDS = 0.004
MAX_TRACED_ROUNDS = 5
PREDICATES = ("is_complete", "is_partially_ordered", "is_self_loop_deterministic",
              "is_saturated", "is_confluent", "is_ums")
METHODS = ("antichain", "spoNFA-constant", "unary-pumping")
SPAN_METRICS = ("cli.reduce", "cli.universal", "cli.classify", "cli.gen-aknn",
                *(name for _, _, name in spans.TARGETS))
SIZE_COUNTS = ("reduction.n", "reduction.states", "reduction.arcs",
               "reduction.pi_letters", "hardness.aknn.states")


def import_toolkit() -> SimpleNamespace:
    """A fresh import of the toolkit from this checkout's ``src``, never from
    elsewhere; modules imported earlier are dropped so it can be timed again."""
    for key in [k for k in sys.modules if k.split(".")[0] == "poset_automata"]:
        del sys.modules[key]
    src = ROOT / "src"
    if not (src / "poset_automata" / "__init__.py").is_file():
        raise SystemExit(f"error: no toolkit sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("poset_automata")
    if Path(package.__file__).resolve().parent != src / "poset_automata":
        raise SystemExit(f"error: poset_automata imported from {package.__file__}")
    # by module path: the package re-exports a function named ``classify``
    return SimpleNamespace(**{
        name: importlib.import_module(f"poset_automata.{name}")
        for name in ("caps", "classify", "cli", "core", "hardness", "sampling",
                     "universality")})


@dataclass
class Phase:
    """Timed rounds over one instance list."""

    times: list            # per instance: laps (seconds per stage) of each successful run
    first: list            # per instance: outputs of its first successful run
    walls: list = field(default_factory=list)  # per round: seconds
    attempted: int = 0
    rss_mb: float = 0.0    # resident high-water mark after the first round
    ref: list = field(default_factory=list)  # seconds of each reference loop
    failures: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)


def measure(instances, session, budget: float, max_rounds=None, first=None,
            between_rounds=None) -> Phase:
    """Run rounds over all instances, at least one, while another round of
    median length still fits in ``budget`` seconds.  Outputs must repeat
    exactly, counts included, against ``first``.  After each round, outside
    its time, the reference loop runs ``REF_REPEATS`` times and then
    ``between_rounds(elapsed)``."""
    clock = time.perf_counter
    phase = Phase([[] for _ in instances], first or [None] * len(instances))
    start = clock()
    while True:
        outs = []
        round_start = clock()
        for i, inst in enumerate(instances):
            session.tracer.instance = inst.id
            session.laps.clear()
            t0 = clock()
            try:
                out = inst.run(session)
            except Exception as exc:  # counted as failed; the run goes on
                where = traceback.extract_tb(exc.__traceback__)[-1]
                phase.failures.append(f"{inst.id}: {type(exc).__name__}: {exc} "
                                      f"(at {where.filename}:{where.lineno})")
                out = None
            else:
                whole = clock() - t0
                phase.times[i].append(tuple(session.laps) or (whole,))
            outs.append(out)
        phase.walls.append(clock() - round_start)
        phase.attempted += len(instances)
        for i, out in enumerate(outs):
            if out is None:
                continue
            if phase.first[i] is None:
                phase.first[i] = out
            elif out != phase.first[i]:
                phase.mismatches.append(f"{instances[i].id}: output or counts changed "
                                        "between rounds")
        if len(phase.walls) == 1:
            phase.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        phase.ref.extend(reference_loop() for _ in range(REF_REPEATS))
        if between_rounds is not None:
            between_rounds(clock() - start)
        if len(phase.walls) == max_rounds or \
                clock() - start + statistics.median(phase.walls) > budget:
            return phase


def check(instances, phases) -> list:
    """Oracle problems, one entry per wrong instance, plus every output that
    did not repeat."""
    wrong = []
    for inst, out in zip(instances, phases[-1].first):
        if out is None:
            continue
        try:
            problems = inst.check(out)
        except Exception as exc:  # an output the oracle cannot read is wrong
            problems = [f"oracle raised {type(exc).__name__}: {exc}"]
        if problems:
            wrong.append(f"{inst.id}: " + "; ".join(problems))
    return wrong + [m for p in phases for m in p.mismatches]


def counts(instances, phase: Phase, caps) -> dict:
    """Count metrics of one round: sizes as the largest instance, work as
    the round total, peaks as the maximum."""
    out = dict.fromkeys(SIZE_COUNTS, 0)
    out.update({"universality.explored": 0, "universality.max_frontier": 0,
                "universality.counterexample_len": 0})
    out.update({f"universality.method.{m}": 0 for m in METHODS})
    antichain_max = 0
    for inst, outputs in zip(instances, phase.first):
        if outputs is None:
            continue
        for key, value in inst.sizes(outputs).items():
            out[key] = max(out[key], value)
        if outputs[-1] is None:
            continue
        method, explored, frontier, cex = outputs[-1]
        out["universality.explored"] += explored
        out["universality.max_frontier"] = max(out["universality.max_frontier"], frontier)
        out["universality.counterexample_len"] = max(
            out["universality.counterexample_len"], cex)
        out[f"universality.method.{method}"] += 1
        if method == "antichain":
            antichain_max = max(antichain_max, explored)
    out["universality.antichain_nodes_headroom"] = 1 - antichain_max / caps.antichain_nodes
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop doing what the toolkit's hot
    paths do: bit operations on wide ints, dict and list traffic, and
    formatting and splitting text.  It does not use the toolkit."""
    t0 = time.perf_counter()
    seen, keep, words = {}, [], []
    x = 0x5DEECE66D
    for i in range(4000):
        x = (x * 0x5DEECE66D + 11) & ((1 << 90) - 1)
        if x in seen:
            continue
        seen[x] = i
        if x & 0xFF00 == 0xFF00:
            keep.append(x)
        for v in keep[-8:]:
            if v & x == v:
                break
        words.append(f"q{x & 0xFFF} a{i & 7}")
    " ".join(words).split()
    return time.perf_counter() - t0


def speed_scale(phase: Phase) -> float:
    """Factor that brings the phase's times to the speed at which the
    reference loop takes ``REF_SECONDS``.  The machine's speed drifts over
    minutes; the fastest reference loop of a run drifts with it."""
    return REF_SECONDS / min(phase.ref)


def best_times(phase: Phase) -> list:
    """Each instance's time with every stage at its fastest repeat.  Repeats
    of one stage differ only by interference from the rest of the machine,
    which only slows a run; a short stage is likelier than a whole pipeline
    to fall in a quiet moment."""
    return [sum(map(min, zip(*t))) for t in phase.times if t]


def end_to_end(setup_s: float, phase: Phase) -> dict:
    scale = speed_scale(phase)
    best = [t * scale for t in best_times(phase)]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(best), "s"),
        "instances_per_s": (len(best) / sum(best), "1/s"),
        "instance_p50_ms": (1e3 * statistics.median(best), "ms"),
        "instance_p99_ms": (1e3 * percentile(best, 0.99), "ms"),
        "peak_rss_mb": (phase.rss_mb, "MB"),
    }


def time_predicates(tk, tracer, instances, first) -> None:
    """Each classification predicate as a separate call, once per classified
    automaton, under one ``classify.predicates`` span."""
    parse = tracer.originals["core.parse_automaton"]
    with tracer.span("classify.predicates"):
        for inst, out in zip(instances, first):
            text = None if out is None else inst.classified(out)
            if text is None:
                continue
            tracer.instance = inst.id
            a = parse(text)
            for name in PREDICATES:
                with tracer.span(f"classify.{name}"):
                    getattr(tk.classify, name)(a)


def per_layer(tracer, rounds: int, antichain_explored: int) -> dict:
    """Span totals per round, the step_mask aggregates and their ratios."""
    own = tracer.self_times()
    extra = tracer.inside("classify.predicates")
    total = {name: 0.0 for name in SPAN_METRICS}
    total.update({f"classify.{p}": 0.0 for p in PREDICATES})
    parsed_chars = search_self = 0.0
    for idx, (name, start, end, _, _, size) in enumerate(tracer.spans):
        if name not in total or (extra[idx] and not name.startswith("classify.is_")):
            continue
        total[name] += end - start
        parsed_chars += size
        if name == "universality.universal_antichain":
            search_self += own[idx]
    calls = step_s = popcount = antichain_step_s = 0
    for idx, (c, s, pop) in tracer.leaf.items():
        if idx >= 0 and extra[idx]:
            continue
        calls, step_s, popcount = calls + c, step_s + s, popcount + pop
        if idx >= 0 and tracer.spans[idx][0] == "universality.universal_antichain":
            antichain_step_s += s
    m = {f"{name}.s": (t / rounds, "s") for name, t in total.items()
         if not name.startswith("classify.is_")}
    m.update({f"classify.{p}.s": (total[f"classify.{p}"], "s") for p in PREDICATES})
    predicate_s = sum(total[f"classify.{p}"] for p in PREDICATES)
    antichain_s = total["universality.universal_antichain"]
    parse_s = total["core.parse_automaton"]
    m.update({
        "classify.is_confluent.share": (
            total["classify.is_confluent"] / predicate_s if predicate_s else 0.0, "ratio"),
        "core.parse_automaton.MB_per_s": (
            parsed_chars / 1e6 / parse_s if parse_s else 0.0, "MB/s"),
        "core.step_mask.calls": (calls / rounds, "count"),
        "core.step_mask.s": (step_s / rounds, "s"),
        "core.step_mask.mean_popcount": (popcount / calls if calls else 0.0, "states"),
        "universality.search_self_s": (search_self / rounds, "s"),
        "universality.antichain_step_share": (
            antichain_step_s / antichain_s if antichain_s else 0.0, "ratio"),
        "universality.nodes_per_s": (
            antichain_explored * rounds / antichain_s if antichain_s else 0.0,
            "1/s"),
    })
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.environ.pop("POSET_AUTOMATA_CAPS", None)
    if args.workload not in workloads.NAMES:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.NAMES)}")

    def set_up():
        """Import, make the inputs, warm up."""
        t0 = time.perf_counter()
        tk = import_toolkit()
        session = workloads.Session(tk, spans.NullTracer())
        wl = workloads.workloads(tk)[args.workload]
        instances = wl.make(args.seed)
        measure(wl.warmup(), session, 0.0, max_rounds=1)
        return time.perf_counter() - t0, tk, session, wl, instances

    def timed_set_up():
        """A set-up, its time scaled to reference speed by the median of
        reference loops run just before and just after it."""
        refs = [reference_loop() for _ in range(REF_REPEATS)]
        seconds, *products = set_up()
        refs += [reference_loop() for _ in range(REF_REPEATS)]
        return seconds * REF_SECONDS / statistics.median(refs), *products

    def set_up_again(elapsed=math.inf):
        """A timed repeat of the set-up whose products are thrown away.  The
        machine's speed drifts over tens of seconds, so repeats are spread
        across the timed rounds."""
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * budget / SETUP_REPEATS:
            toolkit = {k: m for k, m in sys.modules.items()
                       if k.split(".")[0] == "poset_automata"}
            setups.append(timed_set_up()[0])
            sys.modules.update(toolkit)
            gc.collect()  # the discarded modules form reference cycles

    first_setup, tk, session, wl, instances = timed_set_up()
    setups = [first_setup]
    caps = tk.caps.default_caps()
    budget = args.seconds / 2 if args.trace else args.seconds
    phase = measure(instances, session, budget,
                    between_rounds=None if args.trace else set_up_again)
    while not args.trace and len(setups) < SETUP_REPEATS:
        set_up_again()
    phases = [phase]
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        session.tracer = tracer
        try:
            phases.append(measure(instances, session, budget, MAX_TRACED_ROUNDS,
                                  first=list(phase.first)))
            time_predicates(tk, tracer, instances, phases[-1].first)
        finally:
            tracer.uninstall()

    if not any(phase.times):
        raise SystemExit("error: no instance completed: " + "; ".join(phase.failures[:3]))
    wrong = check(instances, phases)
    n = counts(instances, phases[-1], caps)
    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]

    print(f"workload: {wl.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"why: {wl.why}")
    print(f"python: {platform.python_version()} nproc: {os.cpu_count()}")
    print("caps: " + " ".join(f"{k}={v}" for k, v in vars(caps).items()))
    for inst, times, out in zip(instances[:8], phase.times, phase.first):
        took = (f"stage bests {' + '.join(f'{1e3 * min(t):.3f}' for t in zip(*times))} ms, "
                f"median {1e3 * statistics.median(map(sum, times)):.3f} ms"
                if times else "failed")
        decided = "" if out is None or out[-1] is None else f" decided={out[-1]}"
        print(f"instance {inst.id}: {took} over {len(times)} runs{decided}")
    if len(instances) > 8:
        print(f"... {len(instances) - 8} more instances")
    print("counts: " + json.dumps(n))
    for p in phases:
        print("round walls s: " + " ".join(f"{w:.3f}" for w in p.walls))
        print(f"reference loop: fastest {1e3 * min(p.ref):.3f} ms, median "
              f"{1e3 * statistics.median(p.ref):.3f} ms over {len(p.ref)} runs; "
              f"speed scale {speed_scale(p):.4f}")
    print(f"rounds: {[len(p.walls) for p in phases]} attempted: {attempted} "
          f"failed: {len(failures)} wrong_verdicts: {len(wrong)}")
    for line in (failures + wrong)[:10]:
        print(f"problem: {line}")

    if args.trace:
        antichain_explored = sum(
            out[-1][1] for out in phases[-1].first
            if out is not None and out[-1] is not None and out[-1][0] == "antichain")
        metrics = per_layer(tracer, len(phases[1].walls), antichain_explored)
        metrics.update({k: (v, "ratio" if k.endswith("headroom") else "count")
                        for k, v in n.items()})
        untraced, traced = (sum(best_times(p)) for p in phases)
        metrics.update({
            "trace.untraced_wall_s": (untraced, "s"),
            "trace.wall_s": (traced, "s"),
            "trace.overhead_s": (traced - untraced, "s"),
            "wrong_verdicts": (len(wrong), "count"),
            "failed_frac": (len(failures) / attempted, "ratio"),
        })
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end(statistics.median(setups), phase)
        print("setups s: " + " ".join(f"{t:.3f}" for t in setups))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
