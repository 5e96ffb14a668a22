"""The scripts under scripts/ run from a plain checkout."""

from __future__ import annotations

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
