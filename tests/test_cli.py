import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poset_automata.cli import main
from poset_automata.core import parse_automaton, print_automaton
from poset_automata.hardness import build_aknn, trim_aknn, w_word
from poset_automata.sampling import (random_complete_po_sld, random_nfa,
                                     random_saturated, random_unary_po)

from conftest import w_reference

TM_TEXT = """states: q0 qf
initial: q0
accepting: qf
tape: _ 1
input: 1
blank: _
delta: q0 1 -> qf 1 S
delta: q0 _ -> q0 _ S
"""

DAG_TEXT = "nodes: 3\nedge: 0 1\nsource: 0\ntarget: 2\n"


def run_main(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", __import__("io").StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_aknn_pipe_classify(capsys, monkeypatch, tmp_path):
    code, out, _ = run_main(capsys, ["gen-aknn", "--k", "2", "--n", "2"])
    assert code == 0
    code, out2, _ = run_main(capsys, ["classify", "-"], stdin=out,
                             monkeypatch=monkeypatch)
    assert code == 0
    assert "class: ptNFA" in out2


def test_gen_aknn_pipe_universal_exit_one(capsys, monkeypatch):
    _, out, _ = run_main(capsys, ["gen-aknn", "--k", "2", "--n", "2"])
    code, out2, _ = run_main(capsys, ["universal", "-"], stdin=out,
                             monkeypatch=monkeypatch)
    assert code == 1
    assert "universal: no" in out2
    assert "counterexample: a1 a1 a2 a1 a2" in out2


def test_universal_wrong_method_precondition_exit_two(capsys, monkeypatch, tmp_path):
    path = tmp_path / "a.aut"
    path.write_text(print_automaton(build_aknn(1, 2)))
    code, _, err = run_main(capsys, ["universal", "--method", "sponfa", str(path)])
    assert code == 2
    assert "error:" in err


def test_universal_methods_and_max_len(capsys, tmp_path):
    path = tmp_path / "a.aut"
    path.write_text(print_automaton(build_aknn(1, 1)))
    for method in ("auto", "antichain", "subset", "brute"):
        code, out, _ = run_main(capsys, ["universal", "--method", method, str(path)])
        assert code == 1
        assert "universal: no" in out
    code, out, _ = run_main(capsys, ["universal", "--method", "brute",
                                     "--max-len", "0", str(path)])
    assert code == 0  # epsilon is accepted; bounded verdict


def test_universal_brute_negative_max_len_exit_two(capsys, tmp_path):
    path = tmp_path / "a.aut"
    path.write_text(print_automaton(build_aknn(2, 2)))
    code, out, err = run_main(capsys, ["universal", "--method", "brute",
                                       "--max-len", "-1", str(path)])
    assert code == 2 and out == ""
    assert "max_len must be nonnegative" in err


def test_classify_expect_mismatch(capsys, tmp_path):
    path = tmp_path / "a.aut"
    path.write_text(print_automaton(build_aknn(2, 2)))
    code, _, _ = run_main(capsys, ["classify", "--expect", "ptNFA", str(path)])
    assert code == 0
    code, _, _ = run_main(capsys, ["classify", "--expect", "poNFA", str(path)])
    assert code == 1


def test_gen_word(capsys):
    code, out, _ = run_main(capsys, ["gen-word", "--k", "2", "--n", "2"])
    assert code == 0
    assert out.strip() == "a1 a1 a2 a1 a2"


def test_gen_word_bytes_follow_the_recursive_definition(capsys):
    for k in range(9):
        for n in range(9):
            code, out, _ = run_main(capsys, ["gen-word", "--k", str(k), "--n", str(n)])
            assert (code, out) == (0, " ".join(f"a{x + 1}" for x in w_reference(k, n)) + "\n")


def test_gen_trim_alias_matches_flag(capsys):
    # the trimmed variant is spelled only as the flag
    code, out_flag, _ = run_main(capsys, ["gen-aknn", "--k", "2", "--n", "2", "--trim"])
    assert code == 0
    assert parse_automaton(out_flag) == trim_aknn(2, 2)
    with pytest.raises(SystemExit) as exc:
        main(["gen-trim", "--k", "2", "--n", "2"])
    assert exc.value.code == 2


def test_gen_dag(capsys, tmp_path):
    path = tmp_path / "g.dag"
    path.write_text(DAG_TEXT)
    code, out, _ = run_main(capsys, ["gen-dag", str(path)])
    assert code == 0
    gadget = parse_automaton(out)
    assert gadget.n_states == 5


def test_generators_roundtrip_losslessly(capsys):
    for argv in (["gen-aknn", "--k", "1", "--n", "3"],
                 ["gen-aknn", "--k", "3", "--n", "1", "--trim"]):
        _, out, _ = run_main(capsys, argv)
        assert print_automaton(parse_automaton(out)) == out


def test_reduce_cli(capsys, monkeypatch, tmp_path):
    path = tmp_path / "m.tm"
    path.write_text(TM_TEXT)
    code, out, _ = run_main(capsys, ["reduce", "--tm", str(path),
                                     "--input", "1", "--space", "1"])
    assert code == 0
    assert out.startswith("# reduction: k=4 n=2 space=1 pi-letters=16\n")
    components = [line.split(":")[0].removeprefix("# component ")
                  for line in out.splitlines() if line.startswith("# component ")]
    assert components == ["enc-backbone", "part-a", "part-b", "part-c1",
                          "part-c2", "part-c3", "part-c4"]
    assert "# component enc-backbone: offset=0 states=19\n" in out
    automaton = parse_automaton(out)
    code, out2, _ = run_main(capsys, ["universal", "-"], stdin=out,
                             monkeypatch=monkeypatch)
    assert code == 1  # the machine accepts, so the output is not universal
    word = out2.splitlines()[1].removeprefix("counterexample: ").split()
    assert len(word) == len(w_word(4, 2))


# SHA-256 of the generators' output bytes: state order, names and arcs
_PINNED_OUTPUTS = [
    (["gen-aknn", "--k", "3", "--n", "3"],
     "e490ececefea7e9485e8da75b94c00bee7d59df877d8c63c02819ca05ec75577"),
    (["gen-aknn", "--k", "3", "--n", "3", "--trim"],
     "1178af9e3935946facc5b4d6c553a87c6114b438c463bb6ac3f0044328a9bdf0"),
    (["reduce", "--tm", "TM", "--input", "1", "--space", "1"],
     "d096326f352f313eb02b0209acfdba81a78718dcc1e34e33ae76c1d1fadc6670"),
    (["reduce", "--tm", "TM", "--input", "1", "--space", "2"],
     "0f4000a810530e4bbfb459ab833138e39aff828cab12e9a3b3674ac28b904460"),
    (["reduce", "--tm", "TM", "--input", "1", "--space", "3"],
     "6b854584c1740aba454a1bb7ee61ab3f2b8c5f13a0db5726b19ff7dc56702981"),
]


@pytest.mark.parametrize("argv, digest", _PINNED_OUTPUTS,
                         ids=["aknn-3-3", "aknn-3-3-trim", "reduce-p1", "reduce-p2",
                              "reduce-p3"])
def test_generator_output_bytes_are_pinned(capsys, tmp_path, argv, digest):
    path = tmp_path / "m.tm"
    path.write_text(TM_TEXT)
    code, out, _ = run_main(capsys, [str(path) if tok == "TM" else tok for tok in argv])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_reduce_refuses_what_no_backbone_under_the_cap_holds(capsys, monkeypatch, tmp_path):
    """At p = 2 the run needs |W| >= 109, and the longest word under
    reduce_n = 3, W(3,3), has 19 letters: exit 3 with one line.  (A huge
    --space is refused in ``test_huge_size_arguments_are_refused_at_once``.)"""
    path = tmp_path / "m.tm"
    path.write_text(TM_TEXT)
    monkeypatch.setenv("POSET_AUTOMATA_CAPS", "reduce_n=3")
    code, out, err = run_main(capsys, ["reduce", "--tm", str(path), "--input", "1",
                                       "--space", "2"])
    assert (code, out) == (3, "")
    assert err == "resource limit: reduction needs k or n above the reduce_n cap (3)\n"


def test_classify_and_universal_report_bytes_are_pinned(capsys, monkeypatch):
    """SHA-256 over the exit code and stdout of ``classify -`` and then
    ``universal -`` on each automaton of a seeded corpus from all four
    samplers: witnesses, labels, counterexamples and explored counts."""
    rng = random.Random(0)
    digest = hashlib.sha256()
    for sample, count in ((random_nfa, 200), (random_saturated, 50),
                          (random_unary_po, 50), (random_complete_po_sld, 50)):
        for _ in range(count):
            text = print_automaton(sample(rng))
            for command in ("classify", "universal"):
                code, out, _ = run_main(capsys, [command, "-"], stdin=text,
                                        monkeypatch=monkeypatch)
                digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == (
        "c3ec6be41126c8bdbe8bae21a857fbef3491429477bfe5f3e44d3812137ee271")


def test_reduce_rejects_clashing_pair_letter_names(capsys, tmp_path):
    """Tape symbol 'x.q' unmarked and tape symbol 'x' marked with state 'q'
    both spell the pair letter '(a1,<x.q>)': reduce must refuse, not print
    text that no command can read back."""
    path = tmp_path / "m.tm"
    path.write_text("states: q0 q qf\ninitial: q0\naccepting: qf\ntape: x x.q _\n"
                    "input: x\nblank: _\ndelta: q0 x -> qf x S\ndelta: q0 _ -> q0 _ S\n")
    result = run_main(capsys, ["reduce", "--tm", str(path), "--input", "x", "--space", "1"])
    assert result == (2, "", "error: duplicate letter name '(a1,<x.q>)'\n")


def test_input_error_exit_two(capsys, monkeypatch):
    code, _, err = run_main(capsys, ["classify", "-"], stdin="garbage: x\n",
                            monkeypatch=monkeypatch)
    assert code == 2
    assert "error:" in err


def test_missing_file_exit_two(capsys):
    code, _, err = run_main(capsys, ["classify", "/nonexistent/file.aut"])
    assert code == 2


@pytest.mark.parametrize("argv", [["universal", "F"], ["classify", "F"], ["gen-dag", "F"],
                                  ["reduce", "--tm", "F", "--input", "1", "--space", "1"]],
                         ids=["universal", "classify", "gen-dag", "reduce"])
def test_non_utf8_input_exit_two(capsys, monkeypatch, tmp_path, argv):
    """Bytes that are not UTF-8, from a file or from strictly decoded stdin,
    end in one 'error: cannot read' line and exit 2, not a traceback."""
    path = tmp_path / "bad"
    path.write_bytes(b"\xff\xfe")
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8")
    for name in (str(path), "-"):
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run_main(capsys, [name if tok == "F" else tok for tok in argv])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {name}: ") and err.count("\n") == 1


def test_caps_env_resource_exit_three(capsys, monkeypatch, tmp_path):
    path = tmp_path / "a.aut"
    path.write_text(print_automaton(build_aknn(2, 2)))
    monkeypatch.setenv("POSET_AUTOMATA_CAPS", "antichain_nodes=1")
    code, _, err = run_main(capsys, ["universal", str(path)])
    assert code == 3
    assert "resource limit:" in err


@pytest.mark.parametrize("argv, cap", [
    (["reduce", "--tm", "TM", "--input", "1", "--space", "1000000000"], "reduce_n"),
    (["gen-word", "--k", "1000000000", "--n", "1000000000"], "word_len"),
], ids=["reduce", "gen-word"])
def test_huge_size_arguments_are_refused_at_once(capsys, tmp_path, argv, cap):
    """The cap is checked before any number of the requested size is built."""
    path = tmp_path / "m.tm"
    path.write_text(TM_TEXT)
    start = time.perf_counter()
    code, out, err = run_main(capsys, [str(path) if tok == "TM" else tok for tok in argv])
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith("resource limit:") and cap in err


@pytest.mark.parametrize("exc", [MemoryError, RecursionError])
def test_interpreter_exhaustion_exit_three(capsys, monkeypatch, tmp_path, exc):
    path = tmp_path / "g.dag"
    path.write_text(DAG_TEXT)

    def exhausted(dag):
        raise exc()

    monkeypatch.setattr("poset_automata.cli.dag_gadget", exhausted)
    code, out, err = run_main(capsys, ["gen-dag", str(path)])
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit: gen-dag ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_caps_env_bad_key_exit_two(capsys, monkeypatch, tmp_path):
    path = tmp_path / "a.aut"
    path.write_text(print_automaton(build_aknn(1, 1)))
    monkeypatch.setenv("POSET_AUTOMATA_CAPS", "bogus=1")
    code, _, err = run_main(capsys, ["universal", str(path)])
    assert code == 2


_REDUCE = ["reduce", "--tm", "F", "--input", "1", "--space", "1"]
_AKNN_2_2 = print_automaton(build_aknn(2, 2))

# (argv with the input file as F, the file's text, POSET_AUTOMATA_CAPS,
# exit code, the one line on stderr)
_INPUT_CHECKS = {
    "dtm-duplicate-states": (_REDUCE, {"states: q0 qf": "states: q0 qf q0"}, "", 2,
                             "error: duplicate machine states"),
    "dtm-duplicate-tape-symbols": (_REDUCE, {"tape: _ 1": "tape: _ 1 1"}, "", 2,
                                   "error: duplicate tape symbols"),
    "dtm-input-outside-tape": (_REDUCE, {"input: 1": "input: 1 2"}, "", 2,
                               "error: input alphabet must be part of the tape alphabet"),
    "dtm-rule-unknown-state": (_REDUCE, {"delta: q0 1 -> qf 1 S": "delta: q0 1 -> q9 1 S"},
                               "", 2, "error: rule references unknown state: q0 -> q9"),
    "dtm-rule-unknown-symbol": (_REDUCE, {"delta: q0 1 -> qf 1 S": "delta: q0 1 -> qf 7 S"},
                                "", 2, "error: rule references unknown symbol: 1 -> 7"),
    "dtm-rule-bad-move": (_REDUCE, {"delta: q0 1 -> qf 1 S": "delta: q0 1 -> qf 1 X"}, "", 2,
                          "error: rule move must be one of ('L', 'R', 'S'), got 'X'"),
    "dtm-duplicate-rule": (_REDUCE, {"delta: q0 1 -> qf 1 S": "delta: q0 1 -> qf 1 S\n"
                                     "delta: q0 1 -> q0 1 R"}, "", 2,
                           "error: duplicate rule for (q0, 1)"),
    "dtm-two-initial-states": (_REDUCE, {"initial: q0": "initial: q0 q1"}, "", 2,
                               "error: directive 'initial' needs exactly one name"),
    "dag-no-nodes": (["gen-dag", "F"], {"nodes: 3": "nodes: 0"}, "", 2,
                     "error: DAG needs at least one node"),
    "dag-edge-out-of-range": (["gen-dag", "F"], {"edge: 0 1": "edge: 0 3"}, "", 2,
                              "error: edge (0, 3) out of range"),
    "dag-source-out-of-range": (["gen-dag", "F"], {"source: 0": "source: -1"}, "", 2,
                                "error: node -1 out of range"),
    "dag-target-out-of-range": (["gen-dag", "F"], {"target: 2": "target: 3"}, "", 2,
                                "error: node 3 out of range"),
    "caps-empty-items-skipped": (["universal", "F"], _AKNN_2_2, ", ,antichain_nodes=1,", 3,
                                 "resource limit: antichain search exceeded antichain_nodes "
                                 "cap (1)"),
    "caps-non-integer": (["universal", "F"], _AKNN_2_2, "antichain_nodes=many", 2,
                         "error: cap antichain_nodes needs an integer value, got 'many'"),
    "subset-node-cap": (["universal", "F", "--method", "subset"], _AKNN_2_2,
                        "antichain_nodes=1", 3,
                        "resource limit: subset search exceeded antichain_nodes cap (1)"),
}


@pytest.mark.parametrize("case", sorted(_INPUT_CHECKS))
def test_input_checks_end_in_one_line(capsys, monkeypatch, tmp_path, case):
    """Each input check of the machine, DAG and cap readers, and the subset
    search's node cap, driven through ``main``: the exit code, nothing on
    stdout and one line on stderr.  A dict of line edits applies to the
    valid TM_TEXT or DAG_TEXT of the subcommand."""
    argv, text, caps, code, message = _INPUT_CHECKS[case]
    if isinstance(text, dict):
        lines = (DAG_TEXT if argv[0] == "gen-dag" else TM_TEXT).splitlines()
        text = "".join(text.get(line, line) + "\n" for line in lines)
    path = tmp_path / "input"
    path.write_text(text)
    monkeypatch.setenv("POSET_AUTOMATA_CAPS", caps)
    assert run_main(capsys, [str(path) if tok == "F" else tok for tok in argv]) == (
        code, "", message + "\n")


_VALID_RUNS = {
    "classify": ["classify", "AUT"],
    "universal": ["universal", "AUT"],
    "gen-word": ["gen-word", "--k", "1", "--n", "1"],
    "gen-aknn": ["gen-aknn", "--k", "1", "--n", "1"],
    "gen-dag": ["gen-dag", "DAG"],
    "reduce": ["reduce", "--tm", "TM", "--input", "1", "--space", "1"],
    "selftest": ["selftest", "--samples", "0"],
}


@pytest.mark.parametrize("command", sorted(_VALID_RUNS))
def test_malformed_caps_exit_two_on_every_subcommand(capsys, monkeypatch, tmp_path, command):
    """The caps are read before any subcommand runs, so a malformed value is
    reported also where no cap is reached (a one-state automaton is decided
    without a search, gen-word --k 1 needs no check)."""
    files = {"AUT": ("a.aut", "alphabet: a\nstates: p\ninitial: p\naccepting: p\n"
                     "trans: p a p\n"),
             "DAG": ("g.dag", DAG_TEXT), "TM": ("m.tm", TM_TEXT)}
    for name, text in files.values():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / files[tok][0]) if tok in files else tok
            for tok in _VALID_RUNS[command]]
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setenv("POSET_AUTOMATA_CAPS", "bogus=1")
    assert run_main(capsys, argv) == (
        2, "", "error: unknown resource cap 'bogus' in POSET_AUTOMATA_CAPS\n")


def test_selftest_cli(capsys):
    code, out, _ = run_main(capsys, ["selftest", "--samples", "60", "--seed", "1"])
    assert code == 0
    assert "suite lemma2-equivalence: 60/60 pass" in out
    assert "suite reduction: 50/50 pass" in out
    assert "selftest: PASS (4 suites)" in out


def test_selftest_zero_samples_runs_no_samples(capsys):
    code, out, _ = run_main(capsys, ["selftest", "--samples", "0"])
    assert code == 0
    assert "suite lemma2-equivalence: 0/0 pass" in out
    assert "suite dag-gadget: 0/0 pass" in out
    assert "suite reduction: 0/0 pass" in out


def test_selftest_negative_samples_exit_two(capsys):
    assert run_main(capsys, ["selftest", "--samples", "-5"]) == (
        2, "", "error: the sample count must be nonnegative\n")


def test_universal_command_looks_up_the_decider_at_call_time(capsys, monkeypatch, tmp_path):
    """The parser is built once per process; replacing ``cli.universal``
    (as the benchmark does to record results) still takes effect."""
    from poset_automata import cli, universality
    path = tmp_path / "a.aut"
    path.write_text(print_automaton(build_aknn(1, 2)))
    run_main(capsys, ["universal", str(path)])
    seen = []

    def recording(*args, **kwargs):
        seen.append(universality.universal(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cli, "universal", recording)
    for _ in range(2):
        code, out, _ = run_main(capsys, ["universal", str(path)])
        assert code == 1 and out.startswith("universal: no")
    assert len(seen) == 2 and cli._build_parser() is cli._build_parser()


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-word", "--k", "1", "--n", "1", "--bogus"])
    assert exc.value.code == 2


def test_subprocess_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "poset_automata", "gen-word", "--k", "1", "--n", "3"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.strip() == "a1 a2 a3"


def test_gen_dag_node_cap_exit_three(capsys, monkeypatch):
    """The node count is checked before anything of that size is built, so
    a three-hundred-million-node file fails at once and in little memory."""
    monkeypatch.setenv("POSET_AUTOMATA_CAPS", "dag_nodes=1000")
    code, out, err = run_main(capsys, ["gen-dag", "-"],
                              stdin="nodes: 300000000\nsource: 0\ntarget: 1\n",
                              monkeypatch=monkeypatch)
    assert code == 3 and out == ""
    assert err == ("resource limit: DAG node count 300000000 exceeds dag_nodes cap "
                   "(1000)\n")


def test_gen_aknn_arc_cap_exit_three(capsys, monkeypatch):
    """A huge A_{k,n} is refused before it is built: exit 3, one line."""
    monkeypatch.setenv("POSET_AUTOMATA_CAPS", "aknn_arcs=1000")
    code, out, err = run_main(capsys, ["gen-aknn", "--k", "100000", "--n", "100000"])
    assert code == 3 and out == ""
    assert err == ("resource limit: A_{100000,100000} has 2500005000100000 transitions, "
                   "over the aknn_arcs cap (1000)\n")


def test_classify_confluence_cap_exit_three(capsys, monkeypatch):
    """The confluence search stops at its pair cap: exit 3, one line.  The
    trimmed A(3,3) is incomplete, so ``classify`` runs the pair search;
    A(3,3) itself is answered from UMS and passes under the same cap."""
    monkeypatch.setenv("POSET_AUTOMATA_CAPS", "confluence_nodes=5")
    code, out, err = run_main(capsys, ["classify", "-"],
                              stdin=print_automaton(trim_aknn(3, 3)),
                              monkeypatch=monkeypatch)
    assert code == 3 and out == ""
    assert err == "resource limit: confluence search exceeded confluence_nodes cap (5)\n"
    code, out, err = run_main(capsys, ["classify", "--expect", "ptNFA", "-"],
                              stdin=print_automaton(build_aknn(3, 3)),
                              monkeypatch=monkeypatch)
    assert code == 0 and out.endswith("class: ptNFA\n") and err == ""


# ---------------------------------------------------------------------------
# main() on hostile input: an exit code in {0, 1, 2, 3} and at most a one-line
# message, never a traceback


_AUTOMATON_TEXT = print_automaton(build_aknn(1, 2))
_VOCABULARY = ["alphabet:", "states:", "initial:", "accepting:", "trans:", "nodes:",
               "edge:", "source:", "target:", "delta:", "tape:", "input:", "blank:",
               "->", "L", "R", "S", "q0", "qf", "s0", "s1", "a1", "a2", "_", "1", "0",
               "2", "-1", "7", "300000000", "99999999999999999999999", "#", "b#k",
               "x\u00a0y", "\u2028", "\x00", "é"]
_COMMANDS = ((["universal", "-"], _AUTOMATON_TEXT), (["classify", "-"], _AUTOMATON_TEXT),
             (["gen-dag", "-"], DAG_TEXT),
             (["reduce", "--tm", "-", "--input", "1", "--space", "1"], TM_TEXT))


@st.composite
def hostile_runs(draw):
    """A command and its stdin: raw text, token soup, or the command's own
    input format with lines dropped, repeated or inserted and tokens
    swapped."""
    argv, valid = draw(st.sampled_from(_COMMANDS))
    kind = draw(st.sampled_from(["raw", "soup", "mutant", "mutant", "mutant"]))
    if kind == "raw":
        return argv, draw(st.text(max_size=120))
    token = st.sampled_from(_VOCABULARY)
    if kind == "soup":
        lines = draw(st.lists(st.lists(token, max_size=6), max_size=8))
        return argv, "\n".join(" ".join(line) for line in lines)
    lines = [line.split() for line in valid.splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "repeat", "swap", "swap", "insert"]))
        if edit == "drop" and len(lines) > 1:
            del lines[at]
        elif edit == "repeat":
            lines.insert(at, list(lines[at]))
        elif edit == "swap" and lines[at]:
            lines[at][draw(st.integers(0, len(lines[at]) - 1))] = draw(token)
        elif edit == "insert":
            lines.insert(at, draw(st.lists(token, max_size=5)))
    return argv, "\n".join(" ".join(line) for line in lines) + "\n"


@given(hostile_runs())
@settings(max_examples=300, deadline=None)
def test_main_on_hostile_stdin_never_raises(run):
    argv, text = run
    out, err = io.StringIO(), io.StringIO()
    caps = {"POSET_AUTOMATA_CAPS": "dag_nodes=64,antichain_nodes=20000"}
    with mock.patch.dict(os.environ, caps), mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    message = err.getvalue()
    if code in (2, 3):
        assert message.startswith(("error: ", "resource limit: "))
        assert message.count("\n") == 1
    else:
        assert message == ""


# ---------------------------------------------------------------------------
# main() on edge and huge numeric arguments, with low caps: an exit code in
# {0, 1, 2, 3}, a one-line message on 2 and 3, and no wait


_NUMBERS = st.sampled_from([-10**30, -1, 0, 1, 2, 3, 10**9, 10**30]).map(str)
_LOW_CAPS = ("antichain_nodes=2000,enum_len=12,enum_nodes=5000,word_len=1000,"
             "reduce_n=3,dag_nodes=64,aknn_arcs=500,confluence_nodes=5000")


@st.composite
def numeric_runs(draw):
    """A command with drawn numbers and its stdin.  ``--samples`` takes only
    small values: selftest is linear in it and has no cap."""
    kind = draw(st.sampled_from(["reduce", "gen-word", "gen-aknn", "brute", "selftest"]))
    if kind == "reduce":
        return ["reduce", "--tm", "-", "--input", "1", "--space", draw(_NUMBERS)], TM_TEXT
    if kind in ("gen-word", "gen-aknn"):
        argv = [kind, "--k", draw(_NUMBERS), "--n", draw(_NUMBERS)]
        if kind == "gen-aknn" and draw(st.booleans()):
            argv.append("--trim")
        return argv, ""
    if kind == "brute":
        return (["universal", "--method", "brute", "--max-len", draw(_NUMBERS), "-"],
                _AUTOMATON_TEXT)
    samples = draw(st.sampled_from(["-1", "0", "1", "2"]))
    return ["selftest", "--samples", samples, "--seed", draw(_NUMBERS)], ""


@given(numeric_runs())
@settings(max_examples=150, deadline=None)
def test_main_on_numeric_edge_arguments_ends_at_once(run):
    argv, text = run
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with mock.patch.dict(os.environ, {"POSET_AUTOMATA_CAPS": _LOW_CAPS}), \
            mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 2
    assert code in (0, 1, 2, 3)
    message = err.getvalue()
    if code in (2, 3):
        assert out.getvalue() == ""
        assert message.startswith(("error: ", "resource limit: "))
        assert message.count("\n") == 1
    else:
        assert message == ""
