"""What a process loads: the deciders and generators run without the DTM,
reduction and selftest code, and the package exports the same objects
whether or not the command line was imported first.  Each check runs in a
fresh interpreter, since this test session has long loaded everything."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import poset_automata
from poset_automata import reduction

from test_cli import DAG_TEXT, TM_TEXT

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "poset_automata"
DEFERRED = ("dtm", "reduction", "selftest", "sampling")

# Runs commands through cli.main, each ``-`` reading the last gen-aknn
# output, and prints after each the deferred modules that have run (an
# unexecuted lazy module is not a ModuleType).
_COMMANDS = r"""
import contextlib, io, json, sys, types
from poset_automata import cli

def executed():
    return [name for name in DEFERRED
            if type(sys.modules.get("poset_automata." + name)) is types.ModuleType]

stdin = ""
for argv in COMMANDS:
    sys.stdin = io.StringIO(stdin)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    if argv[0] == "gen-aknn":
        stdin = out.getvalue()
    print(json.dumps([argv[0], code, executed()]))
"""

# Imports each name from the package after importing FIRST and prints
# whether it is the object its home module defines.
_EXPORTS = r"""
import importlib, json
importlib.import_module(FIRST)
got = {}
for name, home in HOMES.items():
    exec(f"from poset_automata import {name} as value")
    got[name] = value is getattr(importlib.import_module("poset_automata." + home), name)
print(json.dumps(got))
"""


def _fresh(script: str, **names) -> list:
    """Run ``script`` in a new interpreter with ``src`` on the path and the
    given names bound; returns its stdout lines parsed as JSON."""
    prelude = "".join(f"{key} = {value!r}\n" for key, value in names.items())
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", prelude + script], env=env,
                          capture_output=True, text=True, check=True)
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_decide_and_generate_commands_leave_the_dtm_reduction_and_selftest_code_unrun(tmp_path):
    dag, tm = tmp_path / "g.dag", tmp_path / "m.tm"
    dag.write_text(DAG_TEXT)
    tm.write_text(TM_TEXT)
    commands = [["gen-aknn", "--k", "3", "--n", "3"], ["universal", "-"],
                ["classify", "-"], ["gen-word", "--k", "2", "--n", "2"],
                ["gen-dag", str(dag)],
                ["reduce", "--tm", str(tm), "--input", "1", "--space", "1"],
                ["selftest", "--samples", "5"]]
    rows = _fresh(_COMMANDS, COMMANDS=commands, DEFERRED=DEFERRED)
    assert rows == [["gen-aknn", 0, []], ["universal", 1, []], ["classify", 0, []],
                    ["gen-word", 0, []], ["gen-dag", 0, []],
                    ["reduce", 0, ["dtm", "reduction"]],
                    ["selftest", 0, list(DEFERRED)]]


def _readme_exports() -> list:
    """The backquoted names of README's "The package exports" list, each
    bullet up to its first full stop."""
    text = (ROOT / "README.md").read_text()
    section = text.split("The package exports:\n\n", 1)[1].split("\n\n", 1)[0]
    return [name for bullet in section.split("\n* ")
            for name in re.findall(r"`(\w+)`", bullet.split(".")[0])]


def _home(name: str) -> str:
    """The one module of the package whose source defines ``name`` at top
    level."""
    pattern = re.compile(rf"^(?:(?:def|class) {name}\b|{name} = )", re.M)
    homes = [path.stem for path in sorted(PACKAGE.glob("*.py"))
             if pattern.search(path.read_text())]
    assert len(homes) == 1, (name, homes)
    return homes[0]


@pytest.mark.parametrize("first", ["poset_automata", "poset_automata.cli"])
def test_every_documented_export_is_its_home_modules_object(first):
    """Importing the command line first binds each submodule it imports to
    the package; an export named like its submodule (``classify``) must
    still be the function."""
    names = _readme_exports()
    assert len(names) == len(set(names)) == 44
    assert {"classify", "reduce", "parse_dtm", "Word", "SimulationError"} <= set(names)
    homes = {name: _home(name) for name in names}
    assert _fresh(_EXPORTS, FIRST=first, HOMES=homes) == [dict.fromkeys(names, True)]


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        poset_automata.no_such_name
    assert poset_automata.reduce is reduction.reduce
    assert vars(poset_automata)["reduce"] is reduction.reduce
