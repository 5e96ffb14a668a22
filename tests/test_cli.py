"""Command-line entry points and exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import serrant

from conftest import GOLDEN_FLAGSHIP, golden_wordlist_words, write_golden_corpus
from serrant.cli import main
from serrant.m2 import parse_m2


@pytest.fixture
def golden(tmp_path):
    paths = write_golden_corpus(tmp_path, GOLDEN_FLAGSHIP)
    wordlist = tmp_path / "wordlist.txt"
    wordlist.write_text("\n".join(sorted(golden_wordlist_words())) + "\n", encoding="utf-8")
    paths["wordlist"] = str(wordlist)
    return paths


def classify_args(golden, tmp_path, *extra):
    return [
        "classify",
        "--orig",
        golden["orig"],
        "--cor",
        golden["cor"],
        "--conllu-orig",
        golden["conllu_orig"],
        "--conllu-cor",
        golden["conllu_cor"],
        "--wordlist",
        golden["wordlist"],
        "--out",
        str(tmp_path / "out.m2"),
        *extra,
    ]


def test_classify_writes_m2(golden, tmp_path):
    assert main(classify_args(golden, tmp_path)) == 0
    records = parse_m2((tmp_path / "out.m2").read_text(encoding="utf-8"))
    labels = [e.type_label for r in records for e in r.edits]
    assert labels == ["R:Spell", "R:Noun->Propn", "R:Orth", "R:Noun->Verb", "R:Verb:WC", "U:Det", "R:Modal"]


def test_classify_writes_report(golden, tmp_path):
    report = tmp_path / "report.json"
    args = classify_args(golden, tmp_path, "--report", str(report), "--report-format", "json")
    assert main(args) == 0
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["total"] == 7
    assert payload["counts"]["R:Spell"] == 1


def test_classify_stdout_default(golden, tmp_path, capsys):
    args = classify_args(golden, tmp_path)
    out_index = args.index("--out")
    del args[out_index : out_index + 2]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "A 1 2|||R:Spell|||work|||REQUIRED|||-NONE-|||0" in out


def test_classify_unicode_arrow(golden, tmp_path):
    assert main(classify_args(golden, tmp_path, "--arrow", "unicode")) == 0
    text = (tmp_path / "out.m2").read_text(encoding="utf-8")
    assert "R:Noun→Propn" in text
    assert "R:Noun->Propn" not in text


def test_classify_parallel_jobs_match(golden, tmp_path):
    assert main(classify_args(golden, tmp_path)) == 0
    serial = (tmp_path / "out.m2").read_text(encoding="utf-8")
    assert main(classify_args(golden, tmp_path, "--jobs", "2")) == 0
    assert (tmp_path / "out.m2").read_text(encoding="utf-8") == serial


def test_classify_missing_file_is_exit_1(golden, tmp_path, capsys):
    args = classify_args(golden, tmp_path)
    args[args.index(golden["orig"])] = str(tmp_path / "does-not-exist.txt")
    assert main(args) == 1
    assert "serrant:" in capsys.readouterr().err


def test_classify_bad_jobs_is_exit_2(golden, tmp_path, capsys):
    assert main(classify_args(golden, tmp_path, "--jobs", "0")) == 2
    assert "worker count" in capsys.readouterr().err


def test_classify_mismatched_lengths_is_exit_1(golden, tmp_path, capsys):
    short = tmp_path / "short.txt"
    short.write_text("only one line\n", encoding="utf-8")
    args = classify_args(golden, tmp_path)
    args[args.index(golden["cor"])] = str(short)
    assert main(args) == 1
    assert "serrant:" in capsys.readouterr().err


def test_wordlist_env_fallback(golden, tmp_path, monkeypatch):
    monkeypatch.setenv("SERRANT_WORDLIST", golden["wordlist"])
    args = classify_args(golden, tmp_path)
    wl_index = args.index("--wordlist")
    del args[wl_index : wl_index + 2]
    assert main(args) == 0
    records = parse_m2((tmp_path / "out.m2").read_text(encoding="utf-8"))
    assert records[0].edits[0].type_label == "R:Spell"


def test_without_wordlist_spelling_is_not_detected(golden, tmp_path, monkeypatch):
    monkeypatch.delenv("SERRANT_WORDLIST", raising=False)
    args = classify_args(golden, tmp_path)
    wl_index = args.index("--wordlist")
    del args[wl_index : wl_index + 2]
    assert main(args) == 0
    records = parse_m2((tmp_path / "out.m2").read_text(encoding="utf-8"))
    assert records[0].edits[0].type_label != "R:Spell"


def test_retype_command(golden, tmp_path):
    assert main(classify_args(golden, tmp_path)) == 0
    classified = (tmp_path / "out.m2").read_text(encoding="utf-8")
    blanked = tmp_path / "blanked.m2"
    blanked.write_text(classified.replace("R:", "X:").replace("U:", "Y:"), encoding="utf-8")
    out = tmp_path / "retyped.m2"
    args = [
        "retype",
        "--m2",
        str(blanked),
        "--conllu-orig",
        golden["conllu_orig"],
        "--conllu-cor",
        golden["conllu_cor"],
        "--wordlist",
        golden["wordlist"],
        "--out",
        str(out),
    ]
    assert main(args) == 0
    assert out.read_text(encoding="utf-8") == classified


def test_stats_command(golden, tmp_path, capsys):
    assert main(classify_args(golden, tmp_path)) == 0
    assert main(["stats", "--m2", str(tmp_path / "out.m2")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("type\tcount\tfraction\n")
    assert "R:Spell\t1\t" in out


def test_stats_annotator_filter(golden, tmp_path, capsys):
    assert main(classify_args(golden, tmp_path)) == 0
    assert main(["stats", "--m2", str(tmp_path / "out.m2"), "--annotator", "5"]) == 0
    assert capsys.readouterr().out == "type\tcount\tfraction\n"


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_malformed_m2_is_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.m2"
    bad.write_text("A 0 1|||X|||y|||REQUIRED|||-NONE-|||0\n", encoding="utf-8")
    assert main(["stats", "--m2", str(bad)]) == 1
    assert "serrant:" in capsys.readouterr().err


def run_module(*args):
    """Run ``python -m serrant`` in a fresh interpreter; returns the finished process."""
    env = dict(os.environ)
    src = str(Path(serrant.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "serrant", *args], capture_output=True, text=True, env=env
    )


def test_python_dash_m_help():
    done = run_module("--help")
    assert done.returncode == 0
    assert done.stdout.startswith("usage: serrant")


@pytest.mark.parametrize(
    "m2",
    [
        "S The cat sat\nA 1 1|||X||||||REQUIRED|||-NONE-|||0\n",
        "S a b c d\nA 0 2|||X|||x|||REQUIRED|||-NONE-|||0\nA 1 3|||X|||y|||REQUIRED|||-NONE-|||0\n",
    ],
    ids=["empty-edit", "overlapping-spans"],
)
def test_retype_rejects_unappliable_edits(tmp_path, m2):
    path = tmp_path / "in.m2"
    path.write_text(m2, encoding="utf-8")
    done = run_module("retype", "--m2", str(path))
    assert done.returncode == 1
    assert done.stderr.startswith("serrant: record 0: ")
    assert "Traceback" not in done.stderr
