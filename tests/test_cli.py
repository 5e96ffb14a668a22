"""Command-line entry points and exit codes."""

from __future__ import annotations

import concurrent.futures
import gc
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import serrant
from serrant import cli, pipeline, ud

from conftest import (
    GOLDEN_ALL,
    GOLDEN_FLAGSHIP,
    SMALL_SHARD_CHARS,
    golden_wordlist_words,
    record_pools,
    write_golden_corpus,
)
from serrant.base import load_wordlist
from serrant.cli import main, read_input
from serrant.errors import ConfigurationError, SerrantError
from serrant.m2 import emit_m2, parse_m2
from serrant.pipeline import PipelineConfig, PipelineInputs, run
from serrant.report import emit_report, type_distribution
from synthgen import SyntheticCorpus


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


def test_classify_parallel_jobs_match(golden, tmp_path, small_shards):
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


def test_a_missing_file_is_reported_before_a_bad_setting(golden, tmp_path, capsys):
    # every input file is read before the settings are checked
    missing = str(tmp_path / "does-not-exist.txt")
    args = classify_args(golden, tmp_path, "--jobs", "0")
    args[args.index(golden["wordlist"])] = missing
    assert main(args) == 1
    assert capsys.readouterr().err == f"serrant: [Errno 2] No such file or directory: {missing!r}\n"


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


def test_stats_rejects_a_negative_annotator_as_classify_does(golden, tmp_path, capsys):
    assert main(classify_args(golden, tmp_path)) == 0
    message = "serrant: annotator id must be >= 0, got -1\n"
    assert main(classify_args(golden, tmp_path, "--annotator", "-1")) == 2
    assert capsys.readouterr().err == message
    assert main(["stats", "--m2", str(tmp_path / "out.m2"), "--annotator", "-1"]) == 2
    assert capsys.readouterr() == ("", message)


def test_stats_reports_a_missing_file_before_a_negative_annotator(tmp_path, capsys):
    missing = str(tmp_path / "does-not-exist.m2")
    assert main(["stats", "--m2", missing, "--annotator", "-1"]) == 1
    assert capsys.readouterr().err == f"serrant: [Errno 2] No such file or directory: {missing!r}\n"


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_malformed_m2_is_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.m2"
    bad.write_text("A 0 1|||X|||y|||REQUIRED|||-NONE-|||0\n", encoding="utf-8")
    assert main(["stats", "--m2", str(bad)]) == 1
    assert "serrant:" in capsys.readouterr().err


def _module_env(**extra: str) -> dict[str, str]:
    """This environment with ``serrant`` importable, plus ``extra``."""
    env = dict(os.environ, **extra)
    src = str(Path(serrant.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_module(*args):
    """Run ``python -m serrant`` in a fresh interpreter; returns the finished process."""
    return subprocess.run(
        [sys.executable, "-m", "serrant", *args], capture_output=True, text=True, env=_module_env()
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


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_classify_rejects_a_correction_that_would_not_read_back(
    tmp_path, capsys, small_shards, jobs
):
    # 16 pairs in small shards, so that --jobs 2 reaches the pool; a trailing "|" would
    # join the next M2 field
    orig, cor = tmp_path / "orig.txt", tmp_path / "cor.txt"
    orig.write_text("the cat\n" + "a dog runs\n" * 15, encoding="utf-8")
    cor.write_text("the x|\n" + "a dog ran\n" * 15, encoding="utf-8")
    assert main(["classify", "--orig", str(orig), "--cor", str(cor), "--jobs", jobs]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "serrant: record 0: invalid correction token 'x|'\n")


def test_classify_rejects_a_label_that_would_not_read_back(tmp_path, capsys):
    # at upos-feats a FEATS value reaches the label, and M2 allows no NBSP
    texts = {
        "orig.txt": "good\n",
        "cor.txt": "well\n",
        "orig.conllu": "1\tgood\tgood\tADJ\t_\tFoo=a\u00a0b\t0\troot\t_\t_\n\n",
        "cor.conllu": "1\twell\tgood\tADV\t_\tFoo=c\t0\troot\t_\t_\n\n",
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    out = tmp_path / "out.m2"
    argv = ["classify", "--orig", str(tmp_path / "orig.txt"), "--cor", str(tmp_path / "cor.txt")]
    argv += ["--conllu-orig", str(tmp_path / "orig.conllu")]
    argv += ["--conllu-cor", str(tmp_path / "cor.conllu")]
    argv += ["--granularity", "upos-feats", "--out", str(out)]
    assert main(argv) == 1
    label = "R:Adj:a\u00a0b->Adv:c"
    assert capsys.readouterr().err == f"serrant: record 0: invalid type label {label!r}\n"
    assert not out.exists()


def test_a_serial_run_does_not_import_multiprocessing(golden, tmp_path):
    code = (
        "import sys\n"
        "from serrant.cli import main\n"
        f"assert main({classify_args(golden, tmp_path)!r}) == 0\n"
        "print('multiprocessing' in sys.modules, 'concurrent.futures' in sys.modules,"
        " 'dataclasses' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_module_env()
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False False False\n", "")
    assert (tmp_path / "out.m2").read_text(encoding="utf-8")


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_standard_output_is_the_utf8_of_the_output_files(tmp_path, encoding):
    orig, cor = tmp_path / "orig.txt", tmp_path / "cor.txt"
    orig.write_text("we met çelik today .\n", encoding="utf-8")
    cor.write_text("we met Çelik today .\n", encoding="utf-8")
    m2, report = tmp_path / "out.m2", tmp_path / "report.tsv"
    classify = ["classify", "--orig", str(orig), "--cor", str(cor), "--arrow", "unicode"]
    assert run_module(*classify, "--out", str(m2), "--report", str(report)).returncode == 0
    assert "R:Noun→Propn|||Çelik" in m2.read_text(encoding="utf-8")
    expected = {
        "classify": m2.read_bytes(),
        "retype": m2.read_bytes(),
        "stats": report.read_bytes(),
    }
    argvs = {
        "classify": classify,
        "retype": ["retype", "--m2", str(m2), "--arrow", "unicode"],
        "stats": ["stats", "--m2", str(m2)],
    }
    for command, argv in argvs.items():
        done = subprocess.run(
            [sys.executable, "-m", "serrant", *argv],
            capture_output=True,
            env=_module_env(PYTHONIOENCODING=encoding),
        )
        assert (command, done.returncode, done.stderr) == (command, 0, b"")
        assert done.stdout == expected[command]


# --- the same result for any --jobs ------------------------------------------

SHARDED_PAIRS = 64  # in shards of about one pair, with small_shards


def _blocks(conllu: str) -> list[str]:
    return conllu.rstrip("\n").split("\n\n")


def _join(blocks: list[str]) -> str:
    return "\n\n".join(blocks) + "\n"


def _first_row_line(blocks: list[str], index: int) -> int:
    """The file line number of the first row of block ``index``."""
    return sum(block.count("\n") + 2 for block in blocks[:index]) + 1


def _set_column(blocks: list[str], index: int, column: int, value: str) -> None:
    rows = blocks[index].split("\n")
    cols = rows[0].split("\t")
    cols[column] = value
    rows[0] = "\t".join(cols)
    blocks[index] = "\n".join(rows)


@pytest.fixture
def sharded(tmp_path, small_shards, monkeypatch):
    """A corpus cut into small shards, on two usable cores whatever the machine has."""
    monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    corpus = SyntheticCorpus(SHARDED_PAIRS, seed=23)
    texts = {
        "orig": corpus.orig_text,
        "cor": corpus.cor_text,
        "conllu_orig": corpus.conllu_orig,
        "conllu_cor": corpus.conllu_cor,
    }
    return tmp_path, texts


def _run_jobs(tmp_path, texts, jobs, capfd):
    """Run classify on ``texts``.

    A ``None`` text is a missing file, ``bytes`` are written as they are,
    and a ``wordlist`` text, when present, is passed as ``--wordlist``.
    """
    for name, text in texts.items():
        path = tmp_path / f"{name}.in"
        path.unlink(missing_ok=True)
        if isinstance(text, bytes):
            path.write_bytes(text)
        elif text is not None:
            path.write_text(text, encoding="utf-8")
    wordlist = ("--wordlist", str(tmp_path / "wordlist.in")) if "wordlist" in texts else ()
    capfd.readouterr()
    code = main(
        [
            "classify",
            *("--orig", str(tmp_path / "orig.in"), "--cor", str(tmp_path / "cor.in")),
            *("--conllu-orig", str(tmp_path / "conllu_orig.in")),
            *("--conllu-cor", str(tmp_path / "conllu_cor.in")),
            *wordlist,
            *("--jobs", str(jobs)),
        ]
    )
    out, err = capfd.readouterr()
    return code, out, err


def _same_for_any_jobs(tmp_path, texts, capfd, pool=True):
    """Run ``--jobs 1`` and ``--jobs 2``, check that they agree, and return the first's result.

    The second must start one pool of two workers, or, when ``pool`` is
    false (the inputs fail before any shard is typed), none.
    """
    serial = _run_jobs(tmp_path, texts, 1, capfd)
    with pytest.MonkeyPatch.context() as patch:
        pools = record_pools(patch)
        sharded = _run_jobs(tmp_path, texts, 2, capfd)
    assert sharded == serial
    assert "Traceback" not in serial[2]
    assert pools == ([2] if pool else [])
    return serial


def test_jobs_agree_on_a_clean_corpus(sharded, capfd):
    code, out, err = _same_for_any_jobs(*sharded, capfd)
    assert (code, err) == (0, "")
    assert out.count("\nS ") == SHARDED_PAIRS - 1


def test_jobs_agree_on_a_bad_row_in_the_last_shard(sharded, capfd):
    tmp_path, texts = sharded
    blocks = _blocks(texts["conllu_cor"])
    _set_column(blocks, 62, 3, "BLORP")
    texts["conllu_cor"] = _join(blocks)
    line = _first_row_line(blocks, 62)
    assert line > texts["conllu_cor"].count("\n") * 7 // 8
    code, _, err = _same_for_any_jobs(tmp_path, texts, capfd)
    assert (code, err) == (1, f"serrant: line {line}: unknown UPOS tag 'BLORP'\n")


def test_jobs_agree_on_an_arrow_in_a_feature_value(sharded, capfd):
    tmp_path, texts = sharded
    blocks = _blocks(texts["conllu_cor"])
    _set_column(blocks, 30, 5, "Foo=a->b")
    texts["conllu_cor"] = _join(blocks)
    line = _first_row_line(blocks, 30)
    code, _, err = _same_for_any_jobs(tmp_path, texts, capfd)
    assert (code, err) == (1, f"serrant: line {line}: arrow in feature value 'a->b'\n")


def test_jobs_agree_on_an_extra_block(sharded, capfd):
    tmp_path, texts = sharded
    blocks = _blocks(texts["conllu_orig"])
    texts["conllu_orig"] = _join(blocks + blocks[:1])
    code, _, err = _same_for_any_jobs(tmp_path, texts, capfd, pool=False)
    assert (code, err) == (
        1,
        f"serrant: original annotations: {SHARDED_PAIRS + 1} sentences"
        f" for {SHARDED_PAIRS} inputs\n",
    )


def test_jobs_agree_on_a_form_mismatch_in_a_middle_sentence(sharded, capfd):
    tmp_path, texts = sharded
    blocks = _blocks(texts["conllu_cor"])
    _set_column(blocks, 37, 1, "zzz")
    texts["conllu_cor"] = _join(blocks)
    code, _, err = _same_for_any_jobs(tmp_path, texts, capfd)
    assert code == 1
    assert err.startswith("serrant: corrected sentence 37: annotation form 'zzz' != surface token ")


def test_jobs_agree_that_the_original_side_fails_first(sharded, capfd):
    tmp_path, texts = sharded
    orig_blocks = _blocks(texts["conllu_orig"])
    _set_column(orig_blocks, 60, 3, "BLORP")
    texts["conllu_orig"] = _join(orig_blocks)
    cor_blocks = _blocks(texts["conllu_cor"])
    _set_column(cor_blocks, 2, 1, "zzz")
    texts["conllu_cor"] = _join(cor_blocks)
    code, _, err = _same_for_any_jobs(tmp_path, texts, capfd)
    line = _first_row_line(orig_blocks, 60)
    assert (code, err) == (1, f"serrant: line {line}: unknown UPOS tag 'BLORP'\n")


def test_jobs_agree_that_a_missing_corrected_file_beats_a_bad_original(
    sharded, capfd, monkeypatch
):
    # every input file is read before any text is parsed
    tmp_path, texts = sharded
    blocks = _blocks(texts["conllu_orig"])
    _set_column(blocks, 60, 3, "BLORP")
    texts["conllu_orig"] = _join(blocks)
    texts["conllu_cor"] = None
    parsed = []
    parse_conllu = pipeline.parse_conllu
    monkeypatch.setattr(
        pipeline, "parse_conllu", lambda text: parsed.append(text) or parse_conllu(text)
    )
    code, _, err = _same_for_any_jobs(tmp_path, texts, capfd, pool=False)
    missing = str(tmp_path / "conllu_cor.in")
    assert (code, err) == (1, f"serrant: [Errno 2] No such file or directory: {missing!r}\n")
    assert parsed == []


_TYPE_SHARD = pipeline._type_shard


def _die_in_a_worker(shard, marker, **kwargs):
    """Stand in for ``pipeline._type_shard``: a pool worker leaves ``marker`` and kills itself."""
    if multiprocessing.parent_process() is None:
        return _TYPE_SHARD(shard, **kwargs)
    Path(marker).touch()
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("bad_row", [False, True])
def test_a_killed_worker_gives_the_serial_result(sharded, capfd, monkeypatch, bad_row):
    tmp_path, texts = sharded
    if bad_row:
        blocks = _blocks(texts["conllu_cor"])
        _set_column(blocks, 62, 3, "BLORP")
        texts["conllu_cor"] = _join(blocks)
    serial = _run_jobs(tmp_path, texts, 1, capfd)
    marker = tmp_path / "killed"
    monkeypatch.setattr(pipeline, "_type_shard", partial(_die_in_a_worker, marker=str(marker)))
    # fork, so that the workers run the patched function
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", partial(ProcessPoolExecutor, mp_context=fork)
    )
    assert _run_jobs(tmp_path, texts, 2, capfd) == serial
    assert serial[0] == (1 if bad_row else 0)
    assert "Traceback" not in serial[2]
    assert marker.exists()


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_jobs_agree_under_any_start_method(sharded, capfd, method):
    tmp_path, texts = sharded
    code, out, _ = _run_jobs(tmp_path, texts, 1, capfd)
    assert code == 0
    argv = [
        "classify",
        *("--orig", str(tmp_path / "orig.in"), "--cor", str(tmp_path / "cor.in")),
        *("--conllu-orig", str(tmp_path / "conllu_orig.in")),
        *("--conllu-cor", str(tmp_path / "conllu_cor.in")),
        *("--jobs", "2"),
    ]
    program = (
        "import multiprocessing, sys\n"
        "from serrant import pipeline\n"
        "from serrant.cli import main\n"
        "multiprocessing.set_start_method(sys.argv[1])\n"
        f"pipeline._SHARD_CHARS = {SMALL_SHARD_CHARS}\n"
        "pipeline.os.sched_getaffinity = lambda pid: {0, 1}  # a pool on any machine\n"
        "sys.exit(main(sys.argv[2:]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", program, method, *argv], capture_output=True, env=_module_env()
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == out.encode("utf-8")


def test_crlf_inputs_classify_like_lf(sharded, capfd):
    tmp_path, texts = sharded
    lf = _run_jobs(tmp_path, texts, 1, capfd)
    crlf = {name: text.replace("\n", "\r\n") for name, text in texts.items()}
    assert _same_for_any_jobs(tmp_path, crlf, capfd) == lf
    assert lf[0] == 0


# --- shards are finished where they are typed: the same bytes as the library ----


@pytest.fixture(params=["golden", "synthetic"])
def corpus_files(request, tmp_path):
    """The paths of the golden corpus with its wordlist, or of a 48-pair synthetic corpus."""
    if request.param == "golden":
        paths = write_golden_corpus(tmp_path, GOLDEN_ALL)
        wordlist = tmp_path / "wordlist.txt"
        wordlist.write_text("\n".join(sorted(golden_wordlist_words())) + "\n", encoding="utf-8")
        return {**paths, "wordlist": str(wordlist)}
    corpus = SyntheticCorpus(48, seed=41)
    texts = {
        "orig": corpus.orig_text,
        "cor": corpus.cor_text,
        "conllu_orig": corpus.conllu_orig,
        "conllu_cor": corpus.conllu_cor,
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return {name: str(tmp_path / name) for name in texts}


def _library_outputs(config, inputs, worker_count=1):
    """``emit_m2(run(...))`` and its TSV and JSON reports."""
    records = run(config, inputs, worker_count)
    distribution = type_distribution(records)
    return emit_m2(records), {fmt: emit_report(distribution, fmt) for fmt in ("tsv", "json")}


def _cli_outputs(tmp_path, capfd, argv):
    """The M2 and reports ``main`` writes for ``argv``, through ``--out`` and through stdout."""
    out, report = tmp_path / "cli.m2", tmp_path / "cli.report"
    assert main([*argv, "--out", str(out), "--report", str(report)]) == 0
    m2, tsv = out.read_text(encoding="utf-8"), report.read_text(encoding="utf-8")
    capfd.readouterr()
    assert main([*argv, "--report", str(report), "--report-format", "json"]) == 0
    stdout, stderr = capfd.readouterr()
    assert (stdout, stderr) == (m2, "")
    return m2, {"tsv": tsv, "json": report.read_text(encoding="utf-8")}


def test_cli_writes_the_library_output_from_small_shards(
    tmp_path, capfd, monkeypatch, corpus_files
):
    paths = corpus_files
    texts = {name: read_input(path) for name, path in paths.items()}
    wordlist = load_wordlist(texts["wordlist"]) if "wordlist" in texts else None
    config = PipelineConfig(wordlist=wordlist)
    inputs = PipelineInputs(
        original=texts["orig"],
        corrected=texts["cor"],
        conllu_orig=texts["conllu_orig"],
        conllu_cor=texts["conllu_cor"],
    )
    expected = _library_outputs(config, inputs)  # one shard: each corpus is small
    assert expected[1]["tsv"].count("\n") > 5
    (tmp_path / "typed.m2").write_text(expected[0], encoding="utf-8")
    retype_inputs = PipelineInputs(m2=expected[0], conllu_orig=texts["conllu_orig"])
    expected_retype = _library_outputs(config, retype_inputs)

    monkeypatch.setattr(pipeline, "_SHARD_CHARS", SMALL_SHARD_CHARS)
    flags = ["--conllu-orig", paths["conllu_orig"]]
    flags += ["--wordlist", paths["wordlist"]] if "wordlist" in paths else []
    classify = ["classify", "--orig", paths["orig"], "--cor", paths["cor"], *flags]
    classify += ["--conllu-cor", paths["conllu_cor"]]
    for jobs in ("1", "2", "4"):
        assert _cli_outputs(tmp_path, capfd, [*classify, "--jobs", jobs]) == expected
    retype = ["retype", "--m2", str(tmp_path / "typed.m2"), *flags]
    assert _cli_outputs(tmp_path, capfd, retype) == expected_retype
    for worker_count in (1, 2, 4):
        assert _library_outputs(config, retype_inputs, worker_count) == expected_retype


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_label_rejected_in_a_late_shard_names_its_record(tmp_path, capfd, small_shards, jobs):
    # the pair of test_classify_rejects_a_label_that_would_not_read_back, as record 36 of 41
    corpus = SyntheticCorpus(40, seed=42)
    texts = {
        "orig": corpus.orig_text,
        "cor": corpus.cor_text,
        "conllu_orig": corpus.conllu_orig,
        "conllu_cor": corpus.conllu_cor,
    }
    inserted = {
        "orig": "good",
        "cor": "well",
        "conllu_orig": "1\tgood\tgood\tADJ\t_\tFoo=a\u00a0b\t0\troot\t_\t_",
        "conllu_cor": "1\twell\tgood\tADV\t_\tFoo=c\t0\troot\t_\t_",
    }
    argv = ["classify", "--granularity", "upos-feats", "--jobs", jobs]
    for name, text in texts.items():
        separator = "\n" if name in ("orig", "cor") else "\n\n"
        items = text.rstrip("\n").split(separator)
        items.insert(36, inserted[name])
        path = tmp_path / name
        path.write_text(separator.join(items) + separator, encoding="utf-8")
        argv += [f"--{name.replace('_', '-')}", str(path)]
    label = "R:Adj:a\u00a0b->Adv:c"
    error = f"serrant: record 36: invalid type label {label!r}\n"
    out = tmp_path / "out.m2"
    capfd.readouterr()
    assert main([*argv, "--out", str(out), "--report", str(tmp_path / "report.tsv")]) == 1
    assert capfd.readouterr() == ("", error)
    assert not out.exists()
    assert not (tmp_path / "report.tsv").exists()
    assert main(argv) == 1
    assert capfd.readouterr() == ("", error)


def _traced_peak(tmp_path, size: int) -> tuple[int, int]:
    """The traced peak of a serial ``classify`` run on ``size`` synthetic pairs, and the
    characters of its input and output texts."""
    corpus = SyntheticCorpus(size, seed=7)
    texts = {
        "orig": corpus.orig_text,
        "cor": corpus.cor_text,
        "conllu-orig": corpus.conllu_orig,
        "conllu-cor": corpus.conllu_cor,
    }
    argv = ["classify", "--out", str(tmp_path / "out.m2"), "--report", str(tmp_path / "r.tsv")]
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
        argv += [f"--{name}", str(tmp_path / name)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = (tmp_path / "out.m2").read_text(encoding="utf-8")
    return peak, sum(map(len, texts.values())) + len(output)


def test_serial_classify_memory_grows_with_the_texts_not_with_the_parsed_corpus(
    tmp_path, monkeypatch
):
    # Shards of about 4,000 characters, some 8 pairs.  The run holds its
    # input texts and the shards' M2 texts, and the sentences and records of
    # one shard at a time: measured, the traced peak grew by 1.25 times the
    # characters (4.04 times while a run held those of the whole corpus).
    monkeypatch.setattr(pipeline, "_SHARD_CHARS", 4_000)
    _traced_peak(tmp_path, 50)  # fills what a first run caches
    small_peak, small_chars = _traced_peak(tmp_path, 200)
    large_peak, large_chars = _traced_peak(tmp_path, 800)
    assert large_peak - small_peak < 2.5 * (large_chars - small_chars)


# --- the command line parses a file's bytes as the library parses its text ----


def _cli_result(tmp_path, capfd, command: str, texts: dict[str, str]) -> tuple[int, str, str]:
    """Run ``command`` with each text written byte for byte to the file of its flag."""
    argv = [command]
    for name, text in texts.items():
        path = tmp_path / f"{name}.in"
        path.write_bytes(text.encode("utf-8"))
        argv += [f"--{name.replace('_', '-')}", str(path)]
    capfd.readouterr()
    code = main(argv)
    return (code, *capfd.readouterr())


def _library_result(command: str, texts: dict[str, str]) -> tuple[int, str, str]:
    """What the library makes of the same texts given as strings, as exit code, output, error."""
    try:
        if command == "stats":
            return 0, emit_report(type_distribution(parse_m2(texts["m2"])), "tsv"), ""
        wordlist = load_wordlist(texts["wordlist"]) if "wordlist" in texts else None
        retype = command == "retype"
        annotations = {name: texts.get(name) for name in ("conllu_orig", "conllu_cor")}
        if retype:
            inputs = PipelineInputs(m2=texts["m2"], **annotations)
        else:
            inputs = PipelineInputs(original=texts["orig"], corrected=texts["cor"], **annotations)
        records = pipeline._type_shard(
            inputs, retype=retype, config=PipelineConfig(wordlist=wordlist)
        )
        return 0, emit_m2(records), ""
    except ConfigurationError as exc:
        return 2, "", f"serrant: {exc}\n"
    except SerrantError as exc:
        return 1, "", f"serrant: {exc}\n"


def _misc_holds_a_carriage_return(conllu: str) -> str:
    """``conllu`` with a lone ``\\r`` inside the MISC column of its first row."""
    blocks = _blocks(conllu)
    _set_column(blocks, 0, 9, "Space\rAfter=No")
    return _join(blocks)


def _line_ending_cases() -> list:
    """Each command on inputs with ``\\r\\n`` line ends or other whitespace, and its error."""
    corpus = SyntheticCorpus(12, seed=29)
    words = "".join(f"{word}\n" for word in sorted(set(corpus.orig_text.split())))
    m2 = corpus.untyped_m2()
    classify = {
        "orig": corpus.orig_text,
        "cor": corpus.cor_text,
        "conllu_orig": corpus.conllu_orig,
        "conllu_cor": corpus.conllu_cor,
        "wordlist": words,
    }
    retype = {"m2": m2, "conllu_orig": corpus.conllu_orig, "wordlist": words}
    crlf = {name: text.replace("\n", "\r\n") for name, text in classify.items()}
    retype_crlf = {name: text.replace("\n", "\r\n") for name, text in retype.items()}
    misc = {
        name: _misc_holds_a_carriage_return(classify[name])
        for name in ("conllu_orig", "conllu_cor")
    }
    # a source token holding a lone "\r" on the first sentence line
    token = m2.replace(" ", " do\rg ", 1)
    cases = [
        ("classify", "crlf", crlf, ""),
        ("retype", "crlf", retype_crlf, ""),
        ("stats", "crlf", {"m2": retype_crlf["m2"]}, ""),
        ("classify", "misc-cr", {**classify, **misc}, ""),
        ("retype", "misc-cr", {**retype, "conllu_orig": misc["conllu_orig"]}, ""),
        ("classify", "wordlist-cr", {**classify, "wordlist": words.replace("\n", "\r", 3)}, ""),
    ]
    # M2 whitespace other than the space and the line end fails at parse, on its line
    cases += [
        (command, "token-cr", {"m2": token}, _whitespace_error(1, "\r"))
        for command in ("retype", "stats")
    ]
    # a tab, an NBSP or a second "\r" at the end of the first sentence line,
    # in the first correction token or in the first type label
    spots = {
        "token": ("\n", "{}\n", 1),
        "correction": ("|||a|||", "|||a{}|||", 2),
        "label": ("|||UNK|||", "|||UNK{}|||", 2),
    }
    spliced = {"tab": "\t", "nbsp": "\xa0", "crcr": "\r\r"}
    cases += [
        (
            command,
            f"{spot}-{name}",
            {"m2": m2.replace(old, new.format(char), 1)},
            _whitespace_error(line, char),
        )
        for spot, (old, new, line) in spots.items()
        for name, char in spliced.items()
        for command in ("retype", "stats")
    ]
    return [
        pytest.param(command, texts, error, id=f"{command}-{case}")
        for command, case, texts, error in cases
    ]


def _whitespace_error(line: int, char: str) -> str:
    return f"serrant: line {line}: unsupported whitespace character U+{ord(char[0]):04X}\n"


@pytest.mark.parametrize("command, texts, error", _line_ending_cases())
def test_the_command_line_reads_files_as_the_library_reads_texts(
    tmp_path, capfd, command, texts, error
):
    result = _cli_result(tmp_path, capfd, command, texts)
    assert result == _library_result(command, texts)
    assert (result[0], result[2]) == (1 if error else 0, error)


def test_a_lone_carriage_return_in_the_text_is_rejected(sharded, capfd):
    tmp_path, texts = sharded
    lines = texts["orig"].split("\n")
    lines[4] = lines[4].replace(" ", "\r", 1)
    texts["orig"] = "\n".join(lines)
    code, _, err = _same_for_any_jobs(tmp_path, texts, capfd)
    assert (code, err) == (
        1,
        "serrant: original text line 5: unsupported whitespace character U+000D\n",
    )


def _not_utf8(text: str, line: int) -> bytes:
    """``text`` encoded, with a 0xff byte at the start of 1-based ``line``."""
    lines = text.encode("utf-8").split(b"\n")
    lines[line - 1] = b"\xff" + lines[line - 1]
    return b"\n".join(lines)


@pytest.mark.parametrize("name", ["orig", "cor", "conllu_orig", "conllu_cor", "wordlist"])
def test_jobs_agree_on_input_that_is_not_utf8(sharded, capfd, name):
    tmp_path, texts = sharded
    texts["wordlist"] = "cat\ndog\nhouse\n"
    texts[name] = _not_utf8(texts[name], 3)
    code, _, err = _same_for_any_jobs(tmp_path, texts, capfd, pool=False)
    message = f"serrant: {tmp_path / name}.in: not valid UTF-8: byte 0xff on line 3\n"
    assert (code, err) == (1, message)


BOM = b"\xef\xbb\xbf"


def _with_bom(path: str) -> str:
    """A copy of the file at ``path`` with a byte-order mark in front."""
    copy = Path(path).with_name("bom-" + Path(path).name)
    copy.write_bytes(BOM + Path(path).read_bytes())
    return str(copy)


@pytest.mark.parametrize("flag", ["--orig", "--cor", "--conllu-orig", "--conllu-cor", "--wordlist"])
def test_a_byte_order_mark_leaves_a_classify_input_as_it_was(golden, tmp_path, flag):
    # "work" first, so that the spelling edit werk -> work needs the first word
    words = sorted(golden_wordlist_words() - {"work"})
    Path(golden["wordlist"]).write_text("\n".join(["work", *words]) + "\n", encoding="utf-8")
    args = classify_args(golden, tmp_path, "--report", str(tmp_path / "report.tsv"))
    assert main(args) == 0
    plain = [(tmp_path / name).read_bytes() for name in ("out.m2", "report.tsv")]
    assert b"A 1 2|||R:Spell|||work|||" in plain[0]
    args[args.index(flag) + 1] = _with_bom(args[args.index(flag) + 1])
    assert main(args) == 0
    assert [(tmp_path / name).read_bytes() for name in ("out.m2", "report.tsv")] == plain


@pytest.mark.parametrize("command", ["retype", "stats"])
def test_a_byte_order_mark_leaves_an_m2_input_as_it_was(golden, tmp_path, capfd, command):
    assert main(classify_args(golden, tmp_path)) == 0
    m2 = tmp_path / "out.m2"
    capfd.readouterr()
    assert main([command, "--m2", str(m2)]) == 0
    plain = capfd.readouterr()
    assert main([command, "--m2", _with_bom(str(m2))]) == 0
    assert capfd.readouterr() == plain
    # the mark moves no byte or line of the UTF-8 error message
    m2.write_bytes(BOM + _not_utf8(m2.read_text(encoding="utf-8"), 2))
    assert main([command, "--m2", str(m2)]) == 1
    assert capfd.readouterr().err == f"serrant: {m2}: not valid UTF-8: byte 0xff on line 2\n"


@pytest.mark.parametrize("command", ["retype", "stats"])
def test_m2_that_is_not_utf8_is_exit_1(tmp_path, capfd, command):
    path = tmp_path / "in.m2"
    path.write_bytes(_not_utf8(SyntheticCorpus(4, seed=3).untyped_m2(), 2))
    assert main([command, "--m2", str(path)]) == 1
    assert capfd.readouterr().err == f"serrant: {path}: not valid UTF-8: byte 0xff on line 2\n"


@pytest.mark.parametrize("command", ["retype", "stats"])
def test_an_empty_type_label_is_exit_1_in_the_library_and_on_the_command_line(
    tmp_path, capfd, command
):
    texts = {"m2": "S a b\nA 0 1||||||c|||REQUIRED|||-NONE-|||0\n"}
    expected = (1, "", "serrant: line 2: empty type label\n")
    assert _cli_result(tmp_path, capfd, command, texts) == expected
    assert _library_result(command, texts) == expected


_FIELD_VALUES = ["", "_", "0", "1", "99", "-1", "x y", "BLORP", "NOUN", "a=b", "a", "1-2", "1.1", "#"]
_SPLICES = ["", "\n", "\n\n", "\t", " ", "\r", "\r\n", "\xa0", "\u2028", "\x85", "#", "x"]


@st.composite
def fuzzed_corpora(draw):
    """A small synthetic corpus with up to three corrupted spots."""
    corpus = SyntheticCorpus(draw(st.integers(0, 6)), seed=draw(st.integers(0, 10**6)))
    texts = {
        "orig": corpus.orig_text,
        "cor": corpus.cor_text,
        "conllu_orig": corpus.conllu_orig,
        "conllu_cor": corpus.conllu_cor,
    }
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        name = draw(st.sampled_from(sorted(texts)))
        lines = texts[name].split("\n")
        row = draw(st.integers(0, len(lines) - 1))
        if name.startswith("conllu") and draw(st.booleans()):
            cols = lines[row].split("\t")
            cols[draw(st.integers(0, len(cols) - 1))] = draw(st.sampled_from(_FIELD_VALUES))
            lines[row] = "\t".join(cols)
        else:
            at = draw(st.integers(0, len(lines[row])))
            cut = draw(st.integers(0, 2))
            lines[row] = lines[row][:at] + draw(st.sampled_from(_SPLICES)) + lines[row][at + cut :]
        texts[name] = "\n".join(lines)
    return texts


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(texts=fuzzed_corpora())
def test_fuzzed_inputs_fail_cleanly_and_alike_for_any_jobs(
    tmp_path, capfd, small_shards, monkeypatch, texts
):
    # two usable cores, so that --jobs 2 starts a pool of two whenever the shard plan holds
    monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    inputs = PipelineInputs(
        original=texts["orig"],
        corrected=texts["cor"],
        conllu_orig=texts["conllu_orig"],
        conllu_cor=texts["conllu_cor"],
    )
    try:
        plan_holds = pipeline._cut(inputs)[0] >= 2
    except SerrantError:
        plan_holds = False
    code, _, err = _same_for_any_jobs(tmp_path, texts, capfd, pool=plan_holds)
    assert code in (0, 1, 2)
    assert (code == 0) == (err == "")
    assert err == "" or err.startswith("serrant: ")


# --- M2 bytes through retype and stats ----------------------------------------

_M2_FIELD_VALUES = [
    "", "0", "1", "-1", "0 0", "1 1", "2 1", "-1 -1", "99 99", "x", "a  b", "-NONE-", "noop", "|",
]
_M2_SPLICES = [
    "", "\n", "\n\n", "\r", "\r\n", " ", "  ", "\t", "\xa0", "\u2028", "\x85", "\u3000", "|||", "S ", "A ",
]
_NOT_UTF8 = [b"\xff", b"\xc3", b"\xe2\x80", b"\xed\xa0\x80"]


@st.composite
def fuzzed_m2(draw):
    """A small untyped M2 file with up to three corrupted spots, as bytes."""
    m2 = SyntheticCorpus(draw(st.integers(0, 5)), seed=draw(st.integers(0, 10**6))).untyped_m2()
    lines = m2.split("\n")
    for _ in range(draw(st.sampled_from([0, 1, 1, 2, 3]))):
        row = draw(st.integers(0, len(lines) - 1))
        if lines[row].startswith("A ") and draw(st.booleans()):
            fields = lines[row][2:].split("|||")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(_M2_FIELD_VALUES))
            lines[row] = "A " + "|||".join(fields)
        else:
            at = draw(st.integers(0, len(lines[row])))
            cut = draw(st.integers(0, 2))
            splice = draw(st.sampled_from(_M2_SPLICES))
            lines[row] = lines[row][:at] + splice + lines[row][at + cut :]
    data = "\n".join(lines).encode("utf-8")
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(_NOT_UTF8)) + data[at:]
    return data


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=fuzzed_m2(), granularity=st.sampled_from(["upos", "upos-feats"]))
def test_fuzzed_m2_fails_cleanly_in_retype_and_stats(tmp_path, capfd, data, granularity):
    path = tmp_path / "in.m2"
    path.write_bytes(data)
    results = {}
    for command, extra in (("retype", ["--granularity", granularity]), ("stats", [])):
        capfd.readouterr()
        code = main([command, "--m2", str(path), *extra])
        _, err = capfd.readouterr()
        assert code in (0, 1, 2)
        assert (code == 0) == (err == "")
        assert err == "" or err.startswith("serrant: ")
        assert "Traceback" not in err
        results[command] = code, err
    if results["stats"][0] != 0:  # stats fails only when the file does not read or parse
        assert results["retype"] == results["stats"]
    else:  # every M2 file stats reads is one that can be written back
        emit_m2(parse_m2(data.decode("utf-8")))


# --- shared feats are read-only -------------------------------------------------


def _golden_outputs(golden, tmp_path) -> list[str]:
    """M2 from classify and from retype, with and without CoNLL-U, at both granularities."""
    outputs = []
    for granularity in ("upos", "upos-feats"):
        flags = ["--granularity", granularity]
        assert main(classify_args(golden, tmp_path, *flags)) == 0
        classified = (tmp_path / "out.m2").read_text(encoding="utf-8")
        outputs.append(classified)
        conllu = ["--conllu-orig", golden["conllu_orig"], "--conllu-cor", golden["conllu_cor"]]
        for annotations in (conllu, []):
            out = tmp_path / "retyped.m2"
            args = ["retype", "--m2", str(tmp_path / "out.m2"), *annotations, *flags]
            assert main([*args, "--wordlist", golden["wordlist"], "--out", str(out)]) == 0
            outputs.append(out.read_text(encoding="utf-8"))
    return outputs


@pytest.fixture
def fresh_fallback_memo():
    """An empty fallback memo before and after a test that rebinds ``ud.DEFAULT_LEXICON``."""
    ud._analyse.cache_clear()
    yield
    ud._analyse.cache_clear()


def test_classifiers_never_write_to_shared_feats(
    golden, tmp_path, monkeypatch, fresh_fallback_memo
):
    expected = _golden_outputs(golden, tmp_path)
    parse_feats = ud.parse_feats
    monkeypatch.setattr(ud, "parse_feats", lambda value: MappingProxyType(parse_feats(value)))
    lexicon = {
        form: (lemma, upos, MappingProxyType(feats))
        for form, (lemma, upos, feats) in ud.DEFAULT_LEXICON.items()
    }
    monkeypatch.setattr(ud, "DEFAULT_LEXICON", lexicon)
    for name in ("_GERUND", "_PAST", "_PLURAL", "_SINGULAR", "_NO_FEATS"):  # the suffix rules'
        monkeypatch.setattr(ud, name, MappingProxyType(getattr(ud, name)))
    assert _golden_outputs(golden, tmp_path) == expected
    sentence = ud.parse_conllu(Path(golden["conllu_orig"]).read_text(encoding="utf-8"))[0]
    assert isinstance(sentence.tokens[1].feats, MappingProxyType)
    feats = [token.feats for token in ud.fallback_annotate(["these", "cats", "Rome"]).tokens]
    assert all(isinstance(value, MappingProxyType) for value in feats)


# --- the cyclic garbage collector ---------------------------------------------------


@pytest.mark.parametrize("collecting", [True, False])
def test_main_restores_the_collector_on_every_exit(
    golden, tmp_path, capsys, monkeypatch, collecting
):
    bad = tmp_path / "bad.m2"
    bad.write_text("A 0 1|||X|||y|||REQUIRED|||-NONE-|||0\n", encoding="utf-8")
    during = []
    write_outputs = cli._write_outputs
    monkeypatch.setattr(
        cli, "_write_outputs", lambda *args: (during.append(gc.isenabled()), write_outputs(*args))
    )
    exits = [
        (classify_args(golden, tmp_path), 0),
        (["stats", "--m2", str(bad)], 1),
        (classify_args(golden, tmp_path, "--jobs", "0"), 2),
        (["frobnicate"], "usage"),
    ]
    was = gc.isenabled()
    try:
        for argv, expected in exits:
            (gc.enable if collecting else gc.disable)()
            if expected == "usage":
                with pytest.raises(SystemExit):
                    main(argv)
            else:
                assert main(argv) == expected
            assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False]


def _garbage_left_by(argv: list[str]) -> tuple[int, int]:
    """Run ``main`` with the collector off; its exit code and the unreachable objects it left."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        return main(argv), gc.collect()
    finally:
        if was:
            gc.enable()


@pytest.mark.parametrize("run", ["classify", "classify-jobs", "fallback", "retype", "error"])
def test_a_run_leaves_no_garbage_that_grows_with_the_corpus(tmp_path, capfd, small_shards, run):
    left = []
    for size in (40, 40, 400):  # the first run also leaves what a first run caches
        corpus = SyntheticCorpus(size, seed=5)
        files = {
            "orig": corpus.orig_text,
            "cor": corpus.cor_text,
            "conllu_orig": corpus.conllu_orig,
            "conllu_cor": corpus.conllu_cor,
            # the last record's added edit is empty on both sides
            "m2": corpus.untyped_m2() + "A 0 0|||UNK||||||REQUIRED|||-NONE-|||0\n"
            if run == "error"
            else corpus.untyped_m2(),
        }
        paths = {name: tmp_path / f"{size}.{name}" for name in files}
        for name, text in files.items():
            paths[name].write_text(text, encoding="utf-8")
        out = ["--out", str(tmp_path / "out.m2"), "--report", str(tmp_path / "report.tsv")]
        conllu_orig = ["--conllu-orig", str(paths["conllu_orig"])]
        if run in ("retype", "error"):
            argv = ["retype", "--m2", str(paths["m2"]), *conllu_orig, *out]
        else:
            argv = ["classify", "--orig", str(paths["orig"]), "--cor", str(paths["cor"]), *out]
            if run != "fallback":
                argv += [*conllu_orig, "--conllu-cor", str(paths["conllu_cor"])]
            argv += ["--jobs", "2"] if run == "classify-jobs" else []
        left.append(_garbage_left_by(argv))
    code = 1 if run == "error" else 0
    assert left[1:] == [(code, left[1][1])] * 2
    assert "Traceback" not in capfd.readouterr().err
