"""Command-line entry points and exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import serrant
from serrant import ud

from conftest import GOLDEN_FLAGSHIP, golden_wordlist_words, write_golden_corpus
from serrant.cli import main
from serrant.m2 import parse_m2
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


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_classify_rejects_a_correction_that_would_not_read_back(tmp_path, capsys, jobs):
    # 16 pairs, so that --jobs 2 cuts shards; a trailing "|" would join the next M2 field
    orig, cor = tmp_path / "orig.txt", tmp_path / "cor.txt"
    orig.write_text("the cat\n" + "a dog runs\n" * 15, encoding="utf-8")
    cor.write_text("the x|\n" + "a dog ran\n" * 15, encoding="utf-8")
    assert main(["classify", "--orig", str(orig), "--cor", str(cor), "--jobs", jobs]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "serrant: record 0: invalid correction token 'x|'\n")


# --- the same result for any --jobs ------------------------------------------

SHARDED_PAIRS = 64  # --jobs 2 cuts 8 shards of 8 pairs


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
def sharded(tmp_path):
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


def _same_for_any_jobs(tmp_path, texts, capfd):
    serial = _run_jobs(tmp_path, texts, 1, capfd)
    sharded = _run_jobs(tmp_path, texts, 2, capfd)
    assert sharded == serial
    assert "Traceback" not in serial[2]
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


def test_jobs_agree_on_an_extra_block(sharded, capfd):
    tmp_path, texts = sharded
    blocks = _blocks(texts["conllu_orig"])
    texts["conllu_orig"] = _join(blocks + blocks[:1])
    code, _, err = _same_for_any_jobs(tmp_path, texts, capfd)
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


def test_jobs_agree_that_a_bad_original_beats_a_missing_corrected_file(sharded, capfd):
    tmp_path, texts = sharded
    blocks = _blocks(texts["conllu_orig"])
    _set_column(blocks, 60, 3, "BLORP")
    texts["conllu_orig"] = _join(blocks)
    texts["conllu_cor"] = None
    code, _, err = _same_for_any_jobs(tmp_path, texts, capfd)
    line = _first_row_line(blocks, 60)
    assert (code, err) == (1, f"serrant: line {line}: unknown UPOS tag 'BLORP'\n")


def test_crlf_inputs_classify_like_lf(sharded, capfd):
    tmp_path, texts = sharded
    lf = _run_jobs(tmp_path, texts, 1, capfd)
    crlf = {name: text.replace("\n", "\r\n") for name, text in texts.items()}
    assert _same_for_any_jobs(tmp_path, crlf, capfd) == lf
    assert lf[0] == 0


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
    code, _, err = _same_for_any_jobs(tmp_path, texts, capfd)
    message = f"serrant: {tmp_path / name}.in: not valid UTF-8: byte 0xff on line 3\n"
    assert (code, err) == (1, message)


@pytest.mark.parametrize("command", ["retype", "stats"])
def test_m2_that_is_not_utf8_is_exit_1(tmp_path, capfd, command):
    path = tmp_path / "in.m2"
    path.write_bytes(_not_utf8(SyntheticCorpus(4, seed=3).untyped_m2(), 2))
    assert main([command, "--m2", str(path)]) == 1
    assert capfd.readouterr().err == f"serrant: {path}: not valid UTF-8: byte 0xff on line 2\n"


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
def test_fuzzed_inputs_fail_cleanly_and_alike_for_any_jobs(tmp_path, capfd, texts):
    code, _, err = _same_for_any_jobs(tmp_path, texts, capfd)
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


def test_classifiers_never_write_to_shared_feats(golden, tmp_path, monkeypatch):
    expected = _golden_outputs(golden, tmp_path)
    parse_feats = ud.parse_feats
    monkeypatch.setattr(ud, "parse_feats", lambda value: MappingProxyType(parse_feats(value)))
    lexicon = {
        form: (lemma, upos, MappingProxyType(feats))
        for form, (lemma, upos, feats) in ud.DEFAULT_LEXICON.items()
    }
    monkeypatch.setattr(ud, "DEFAULT_LEXICON", lexicon)
    assert _golden_outputs(golden, tmp_path) == expected
    sentence = ud.parse_conllu(Path(golden["conllu_orig"]).read_text(encoding="utf-8"))[0]
    assert isinstance(sentence.tokens[1].feats, MappingProxyType)
    assert isinstance(ud.fallback_annotate(["these", "cats"]).tokens[0].feats, MappingProxyType)
