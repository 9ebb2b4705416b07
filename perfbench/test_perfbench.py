"""Tests of the benchmark itself: the correctness gate must fire.

Run from the root of the repository with ``python3 -m pytest perfbench -q``.
"""

from math import comb

import pytest

import oracle
import run
import spans
import workloads

TK = run.import_toolkit()


def _one_round(instances):
    session = workloads.Session(TK, spans.NullTracer())
    phase = run.measure(instances, session, 0.0, max_rounds=1)
    return phase, run.check(instances, [phase])


def test_planted_wrong_verdict_is_counted():
    # A(2,2) rejects W(2,2), so expecting "universal" is wrong on purpose.
    _, wrong = _one_round([workloads.aknn_instance(2, 2, expect_universal=True),
                           workloads.aknn_instance(2, 3)])
    assert len(wrong) == 1
    assert wrong[0].startswith("A(2,2):")


def test_true_verdicts_pass():
    _, wrong = _one_round([workloads.aknn_instance(2, 2),
                           workloads.aknn_instance(2, 2, trim=True),
                           workloads.reduce_decide_instance("accepting", 1),
                           workloads.reduce_decide_instance("rejecting", 1)]
                          + workloads.battery(TK, 3, 40, 10))
    assert wrong == []


def test_raising_instance_is_counted_as_failed():
    phase, wrong = _one_round([workloads.aknn_instance(0, 1),
                               workloads.aknn_instance(2, 2)])
    assert len(phase.failures) == 1 and "exit 2" in phase.failures[0]
    assert phase.attempted == 2 and sum(map(len, phase.times)) == 1
    assert wrong == []


def test_counts_repeat_between_runs():
    counts = []
    for _ in range(2):
        tk = run.import_toolkit()
        instances = [workloads.aknn_instance(3, 3),
                     workloads.reduce_decide_instance("accepting", 1)]
        phase = run.measure(instances, workloads.Session(tk, spans.NullTracer()),
                            0.0, max_rounds=1)
        counts.append(run.counts(instances, phase, tk.caps.default_caps()))
    assert counts[0] == counts[1]
    assert counts[0]["universality.explored"] > 0 and counts[0]["reduction.states"] > 0


def test_tracer_records_nested_spans_and_restores_functions():
    tk = run.import_toolkit()
    universal = tk.universality.universal
    tracer = spans.Tracer()
    tracer.install()
    try:
        session = workloads.Session(tk, tracer)
        run.measure([workloads.aknn_instance(2, 2)], session, 0.0, max_rounds=1)
    finally:
        tracer.uninstall()
    assert tk.universality.universal is universal
    names = [s[0] for s in tracer.spans]
    assert "cli.universal" in names and "universality.universal_antichain" in names
    own = tracer.self_times()
    assert all(t >= -1e-6 for t in own)
    assert sum(c for c, _, _ in tracer.leaf.values()) > 0


def test_w_word_oracle():
    assert " ".join(oracle.w_word(2, 2)) == "a1 a1 a2 a1 a2"
    for k, n in ((1, 4), (3, 3), (4, 2)):
        assert len(oracle.w_word(k, n)) == comb(k + n, n) - 1


def test_stages_at_their_fastest_and_scaled_to_reference_speed():
    phase = run.Phase([[(0.3, 0.2), (0.1, 0.4)], [(0.5,)]], [None, None])
    assert run.best_times(phase) == pytest.approx([0.3, 0.5])
    phase.ref = [2 * run.REF_SECONDS, 4 * run.REF_SECONDS]
    assert run.speed_scale(phase) == 0.5
    assert run.end_to_end(1.0, phase)["wall_s"][0] == pytest.approx(0.4)
