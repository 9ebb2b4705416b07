import subprocess
import sys

import pytest

from poset_automata.cli import main
from poset_automata.core import parse_automaton, print_automaton
from poset_automata.hardness import build_aknn, trim_aknn, w_word

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


def test_gen_trim_alias_matches_flag(capsys):
    # the trimmed variant is spelled only as the flag
    code, out_flag, _ = run_main(capsys, ["gen-aknn", "--k", "2", "--n", "2", "--trim"])
    assert code == 0
    assert parse_automaton(out_flag) == trim_aknn(build_aknn(2, 2), 2, 2)
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
    assert out.startswith("# reduction: n=3")
    components = [line.split(":")[0].removeprefix("# component ")
                  for line in out.splitlines() if line.startswith("# component ")]
    assert components == ["enc-backbone", "part-a", "part-b", "part-c1",
                          "part-c2", "part-c3", "part-c4"]
    assert "# component enc-backbone: offset=0 states=22\n" in out
    automaton = parse_automaton(out)
    code, out2, _ = run_main(capsys, ["universal", "-"], stdin=out,
                             monkeypatch=monkeypatch)
    assert code == 1  # the machine accepts, so the output is not universal
    word = out2.splitlines()[1].removeprefix("counterexample: ").split()
    assert len(word) == len(w_word(3, 3))


def test_input_error_exit_two(capsys, monkeypatch):
    code, _, err = run_main(capsys, ["classify", "-"], stdin="garbage: x\n",
                            monkeypatch=monkeypatch)
    assert code == 2
    assert "error:" in err


def test_missing_file_exit_two(capsys):
    code, _, err = run_main(capsys, ["classify", "/nonexistent/file.aut"])
    assert code == 2


def test_caps_env_resource_exit_three(capsys, monkeypatch, tmp_path):
    path = tmp_path / "a.aut"
    path.write_text(print_automaton(build_aknn(2, 2)))
    monkeypatch.setenv("POSET_AUTOMATA_CAPS", "antichain_nodes=1")
    code, _, err = run_main(capsys, ["universal", str(path)])
    assert code == 3
    assert "resource limit:" in err


@pytest.mark.parametrize("exc", [MemoryError, RecursionError])
def test_interpreter_exhaustion_exit_three(capsys, monkeypatch, tmp_path, exc):
    path = tmp_path / "g.dag"
    path.write_text(DAG_TEXT)

    def exhausted(args):
        raise exc()

    monkeypatch.setattr("poset_automata.cli._cmd_gen_dag", exhausted)
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


def test_selftest_cli(capsys):
    code, out, _ = run_main(capsys, ["selftest", "--samples", "60", "--seed", "1"])
    assert code == 0
    assert "suite lemma2-equivalence: 60/60 pass" in out
    assert "selftest: PASS" in out


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
