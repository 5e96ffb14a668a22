"""The scripts under scripts/ run from a plain checkout."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_synthetic_corpus_script_runs_without_pythonpath(tmp_path):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    out = tmp_path / "corpus"
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "make_synthetic_corpus.py"), "--out", str(out), "--size", "5"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("wrote 5 sentence pairs")
    names = ["orig.txt", "cor.txt", "orig.conllu", "cor.conllu", "untyped.m2", "wordlist.txt"]
    assert sorted(path.name for path in out.iterdir()) == sorted(names)
    assert len((out / "orig.txt").read_text(encoding="utf-8").splitlines()) == 5
    assert (out / "untyped.m2").read_text(encoding="utf-8").count("\nS ") == 4


_SAMPLE = '''"""A module docstring."""

import os  # a comment
# a comment line


def f(x):
    """A docstring
    over two lines."""
    y = """a string
    that is code"""
    return (x +
            y)
'''


def test_code_line_counter_skips_docstrings_comments_and_blank_lines(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(_SAMPLE, encoding="utf-8")
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n", encoding="utf-8")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "count_code_lines.py"), str(tmp_path / "pkg")],
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    rows = [line.split(maxsplit=1) for line in result.stdout.splitlines()]
    assert rows == [
        ["6", str(tmp_path / "pkg" / "a.py")],
        ["1", str(tmp_path / "pkg" / "b.py")],
        ["7", "total"],
    ]


def _mutate_rules():
    spec = importlib.util.spec_from_file_location("mutate_rules", SCRIPTS / "mutate_rules.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_RULES = '''from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import os


class C:
    def rule(self, a, b):
        if a == 1 and (b
                       is not None):
            return a in b
        if a == 1 and b is not None:
            return 0 < a >= b
        return ("→", a < b)
'''


def test_mutant_generator_names_and_applies_each_change():
    mutate_rules = _mutate_rules()
    got = list(mutate_rules.mutants(_RULES, "rules.py"))
    condition = "a == 1 and b is not None"
    assert [m.key for m in got] == [
        f"rules.py C.rule: force True: {condition}",
        f"rules.py C.rule: force False: {condition}",
        f"rules.py C.rule: and -> or: {condition}",
        "rules.py C.rule: == -> !=: a == 1",
        "rules.py C.rule: is not -> is: b is not None",
        "rules.py C.rule: in -> not in: a in b",
        f"rules.py C.rule: force True: {condition} (occurrence 2)",
        f"rules.py C.rule: force False: {condition} (occurrence 2)",
        f"rules.py C.rule: and -> or: {condition} (occurrence 2)",
        "rules.py C.rule: == -> !=: a == 1 (occurrence 2)",
        "rules.py C.rule: is not -> is: b is not None (occurrence 2)",
        "rules.py C.rule: < -> <=: 0 < a >= b",
        "rules.py C.rule: >= -> >: 0 < a >= b",
        "rules.py C.rule: < -> <=: a < b",
    ]
    lines = _RULES.splitlines()
    for mutant in got:
        # one expression changes, in parentheses; every line keeps its number
        changed = [i for i, line in enumerate(mutant.source.splitlines()) if line != lines[i]]
        assert len(mutant.source.splitlines()) == len(lines)
        assert changed and all(8 <= i <= 13 for i in changed), mutant.key
    assert got[1].source.splitlines()[8:10] == ["        if (False", "):"]
    assert got[2].source.splitlines()[8] == "        if (a == 1 or b is not None"
    assert got[-2].source.splitlines()[12] == "            return (0 < a > b)"
    # ast counts columns in UTF-8 bytes: the change lands after the arrow
    assert got[-1].source.splitlines()[13] == '        return ("→", (a <= b))'


_TABLE = '''ROWS = (
    ("a", lambda s, t: s == t, "x"),
    ("b", None, "y"),
)


def pick(key):
    rows = [row for row in ROWS if row[0] == key]
    return rows
'''


def test_mutant_generator_forces_each_lambda_of_a_table():
    mutate_rules = _mutate_rules()
    got = list(mutate_rules.mutants(_TABLE, "table.py"))
    # a row that always matches carries None, and gives no mutant
    assert [m.key for m in got] == [
        "table.py ROWS: force True: s == t",
        "table.py ROWS: force False: s == t",
        "table.py ROWS: == -> !=: s == t",
        "table.py pick: == -> !=: row[0] == key",
    ]
    assert got[0].source.splitlines()[1] == '    ("a", lambda s, t: (True), "x"),'
    assert got[1].source.splitlines()[1] == '    ("a", lambda s, t: (False), "x"),'


def test_every_listed_survivor_is_a_mutant_of_the_rule_modules_with_a_reason():
    mutate_rules = _mutate_rules()
    listed = mutate_rules.listed_survivors(mutate_rules.SURVIVORS.read_text(encoding="utf-8"))
    keys = {mutant.key for mutant in mutate_rules.rule_mutants()}
    assert listed and not listed.keys() - keys
    assert all(reason for reason in listed.values())
