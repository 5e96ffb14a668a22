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
