"""End-to-end classify and retype runs."""

from __future__ import annotations

import pytest

from conftest import GOLDEN_FLAGSHIP, write_golden_corpus
from serrant import pipeline
from serrant.errors import (
    AttachmentError,
    ConfigurationError,
    IngestionError,
    M2ValidationError,
)
from serrant.m2 import M2Edit, NOOP_TYPE, emit_m2, parse_m2
from serrant.pipeline import (
    PipelineConfig,
    PipelineInputs,
    classify_corpus_parallel,
    run,
)
from serrant.sercl import ARROW_UNICODE
from synthgen import SyntheticCorpus


def golden_config(paths, wordlist, **kwargs):
    return PipelineConfig(
        wordlist_path=wordlist,
        conllu_orig_path=paths["conllu_orig"],
        conllu_cor_path=paths["conllu_cor"],
        **kwargs,
    )


def golden_inputs(paths):
    from pathlib import Path

    return PipelineInputs(
        original=Path(paths["orig"]).read_text(encoding="utf-8"),
        corrected=Path(paths["cor"]).read_text(encoding="utf-8"),
    )


def test_classify_flagship_pairs(tmp_path, golden_wordlist):
    paths = write_golden_corpus(tmp_path, GOLDEN_FLAGSHIP)
    records = run(golden_config(paths, golden_wordlist), golden_inputs(paths))
    assert len(records) == len(GOLDEN_FLAGSHIP)
    for record, pair in zip(records, GOLDEN_FLAGSHIP):
        got = [(e.span.start, e.span.end, e.type_label) for e in record.edits]
        assert got == pair.expected


def test_classify_identical_pair_yields_no_edits():
    records = run(
        PipelineConfig(),
        PipelineInputs(original="the cat sat .\n", corrected="the cat sat .\n"),
    )
    assert len(records) == 1
    assert records[0].edits == ()
    assert records[0].source_tokens == ("the", "cat", "sat", ".")


def test_classify_with_fallback_annotations(tmp_path):
    wordlist = tmp_path / "words.txt"
    wordlist.write_text("work\npen\n", encoding="utf-8")
    records = run(
        PipelineConfig(wordlist_path=str(wordlist)),
        PipelineInputs(original="I werk for pen\n", corrected="I work for Pen\n"),
    )
    labels = [e.type_label for e in records[0].edits]
    assert labels == ["R:Spell", "R:Noun->Propn"]


def test_classify_respects_annotator_id_and_arrow(tmp_path, golden_wordlist):
    paths = write_golden_corpus(tmp_path, GOLDEN_FLAGSHIP[:1])
    config = golden_config(paths, golden_wordlist, annotator_id=2, arrow=ARROW_UNICODE)
    records = run(config, golden_inputs(paths))
    edits = records[0].edits
    assert all(e.annotator_id == 2 for e in edits)
    assert [e.type_label for e in edits] == ["R:Spell", "R:Noun→Propn"]


def test_classify_conllu_count_mismatch(tmp_path, golden_wordlist):
    paths = write_golden_corpus(tmp_path, GOLDEN_FLAGSHIP)
    inputs = PipelineInputs(original="one line\n", corrected="one line\n")
    with pytest.raises(IngestionError) as info:
        run(golden_config(paths, golden_wordlist), inputs)
    assert "1" in str(info.value)


def test_classify_attach_mismatch_names_sentence(tmp_path, golden_wordlist):
    paths = write_golden_corpus(tmp_path, GOLDEN_FLAGSHIP[:1])
    inputs = PipelineInputs(
        original="I werk for pencil\n", corrected="I work for Pen\n"
    )
    with pytest.raises(AttachmentError) as info:
        run(golden_config(paths, golden_wordlist), inputs)
    assert "original sentence 0" in str(info.value)


def test_retype_recovers_classified_labels(tmp_path, golden_wordlist):
    paths = write_golden_corpus(tmp_path, GOLDEN_FLAGSHIP)
    config = golden_config(paths, golden_wordlist)
    classified = run(config, golden_inputs(paths))

    blanked = [
        record.__class__(
            record.source_tokens,
            tuple(M2Edit(e.span, "UNK", e.annotator_id) for e in record.edits),
        )
        for record in classified
    ]
    retyped = run(
        golden_config(paths, golden_wordlist),
        PipelineInputs(m2=emit_m2(blanked)),
    )
    assert retyped == classified


def test_retype_preserves_spans_order_and_annotators():
    m2 = (
        "S we eat now\n"
        "A 1 2|||UNK|||ate|||REQUIRED|||-NONE-|||0\n"
        "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||3\n"
        "A 1 2|||UNK||||||REQUIRED|||-NONE-|||1\n"
    )
    records = run(PipelineConfig(), PipelineInputs(m2=m2))
    edits = records[0].edits
    assert [(e.span.start, e.span.end) for e in edits] == [(1, 2), (-1, -1), (1, 2)]
    assert [e.annotator_id for e in edits] == [0, 3, 1]
    assert edits[0].span.correction == ("ate",)
    assert edits[0].type_label == "R:Noun:WC"
    assert edits[1].type_label == NOOP_TYPE
    assert edits[2].type_label == "U:Noun"


def test_retype_noop_only_record_is_unchanged():
    m2 = "S all good here\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n"
    records = run(PipelineConfig(), PipelineInputs(m2=m2))
    assert emit_m2(records) == m2


def test_retype_rejects_multiple_annotators_with_corrected_conllu(tmp_path, golden_wordlist):
    paths = write_golden_corpus(tmp_path, GOLDEN_FLAGSHIP[:1])
    m2 = (
        "S I werk for pen\n"
        "A 1 2|||UNK|||work|||REQUIRED|||-NONE-|||0\n"
        "A 3 4|||UNK|||Pen|||REQUIRED|||-NONE-|||1\n"
    )
    with pytest.raises(ConfigurationError) as info:
        run(golden_config(paths, golden_wordlist), PipelineInputs(m2=m2))
    assert "annotator" in str(info.value)


def test_retype_conllu_count_mismatch(tmp_path, golden_wordlist):
    paths = write_golden_corpus(tmp_path, GOLDEN_FLAGSHIP)
    m2 = "S I werk for pen\nA 1 2|||UNK|||work|||REQUIRED|||-NONE-|||0\n"
    with pytest.raises(IngestionError):
        run(golden_config(paths, golden_wordlist), PipelineInputs(m2=m2))


def test_retype_corrected_conllu_count_mismatch(tmp_path):
    paths = write_golden_corpus(tmp_path, GOLDEN_FLAGSHIP[:2])
    m2 = "S I werk for pen\nA 1 2|||UNK|||work|||REQUIRED|||-NONE-|||0\n"
    with pytest.raises(IngestionError) as info:
        run(PipelineConfig(conllu_cor_path=paths["conllu_cor"]), PipelineInputs(m2=m2))
    assert str(info.value) == "corrected annotations: 2 sentences for 1 inputs"


def test_retype_corrected_attach_mismatch_names_record(tmp_path, golden_wordlist):
    paths = write_golden_corpus(tmp_path, GOLDEN_FLAGSHIP[:1])
    # the corrected CoNLL-U reads "Pen", but these edits leave "pen"
    m2 = "S I werk for pen\nA 1 2|||UNK|||work|||REQUIRED|||-NONE-|||0\n"
    with pytest.raises(AttachmentError) as info:
        run(golden_config(paths, golden_wordlist), PipelineInputs(m2=m2))
    assert str(info.value).startswith("corrected sentence 0: annotation form")
    assert info.value.index == 3


def test_m2_input_is_retyped_whatever_the_worker_count():
    m2 = "S we eat now\nA 1 2|||UNK|||ate|||REQUIRED|||-NONE-|||0\n"
    inputs = PipelineInputs(m2=m2)
    assert classify_corpus_parallel(PipelineConfig(), inputs, 4) == run(PipelineConfig(), inputs)


def test_pool_starts_at_most_one_worker_per_usable_core(monkeypatch, in_process_pool):
    monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    corpus = SyntheticCorpus(100, seed=6)
    config = PipelineConfig()
    inputs = PipelineInputs(original=corpus.orig_text, corrected=corpus.cor_text)
    serial = run(config, inputs)
    for jobs in (2, 64, 5000):
        assert classify_corpus_parallel(config, inputs, jobs) == serial
    # 2 jobs cut 9 shards of up to 12 pairs; 64 and 5000 jobs cut 100 one-pair shards
    assert in_process_pool.workers == [2, 3, 3]
    assert in_process_pool.shards == [9, 100, 100]


def _retype_corpus(tmp_path):
    """120 untyped synthetic records and the paths of both CoNLL-U files."""
    corpus = SyntheticCorpus(120, seed=8)
    orig, cor = tmp_path / "orig.conllu", tmp_path / "cor.conllu"
    orig.write_text(corpus.conllu_orig, encoding="utf-8")
    cor.write_text(corpus.conllu_cor, encoding="utf-8")
    return corpus.untyped_m2(), str(orig), str(cor)


def test_retype_runs_on_shards(tmp_path, in_process_pool):
    m2, orig, _ = _retype_corpus(tmp_path)
    config = PipelineConfig(conllu_orig_path=orig)
    inputs = PipelineInputs(m2=m2)
    serial = run(config, inputs)
    assert "UNK" not in emit_m2(serial)
    assert run(config, inputs, 4) == serial
    assert in_process_pool.shards == [18]  # 120 records in shards of 7


@pytest.mark.parametrize(
    "edit_lines, both_conllu, error",
    [
        (
            ["A 0 2|||UNK|||x|||REQUIRED|||-NONE-|||0", "A 1 3|||UNK|||y|||REQUIRED|||-NONE-|||0"],
            False,
            M2ValidationError,
        ),
        (
            ["A 0 1|||UNK|||x|||REQUIRED|||-NONE-|||0", "A 1 2|||UNK|||y|||REQUIRED|||-NONE-|||1"],
            True,
            ConfigurationError,
        ),
    ],
    ids=["overlapping-spans", "two-annotators-with-corrected-conllu"],
)
def test_retype_shard_errors_are_the_serial_errors(
    tmp_path, in_process_pool, edit_lines, both_conllu, error
):
    m2, orig, cor = _retype_corpus(tmp_path)
    blocks = m2.rstrip("\n").split("\n\n")
    late = max(i for i, block in enumerate(blocks) if len(block.split("\n")[0].split()) >= 4)
    assert late >= 100  # in the last shards of 7 records
    blocks[late] = "\n".join([blocks[late].split("\n")[0], *edit_lines])
    config = PipelineConfig(conllu_orig_path=orig, conllu_cor_path=cor if both_conllu else None)
    inputs = PipelineInputs(m2="\n\n".join(blocks) + "\n")
    with pytest.raises(error) as serial:
        run(config, inputs)
    with pytest.raises(error) as sharded:
        run(config, inputs, 4)
    assert in_process_pool.shards == [18]
    assert type(sharded.value) is type(serial.value)
    assert str(sharded.value) == str(serial.value)
    assert str(serial.value).startswith(f"record {late}: ")


def test_parallel_run_matches_serial_run():
    corpus = SyntheticCorpus(40, seed=3)
    config = PipelineConfig()
    inputs = PipelineInputs(original=corpus.orig_text, corrected=corpus.cor_text)
    serial = run(config, inputs)
    parallel = classify_corpus_parallel(config, inputs, worker_count=3)
    assert serial == parallel
    assert emit_m2(serial) == emit_m2(parallel)


def test_parallel_single_worker_equals_run():
    corpus = SyntheticCorpus(5, seed=4)
    config = PipelineConfig()
    inputs = PipelineInputs(original=corpus.orig_text, corrected=corpus.cor_text)
    assert classify_corpus_parallel(config, inputs, worker_count=1) == run(config, inputs)


def test_parallel_rejects_bad_worker_count():
    with pytest.raises(ConfigurationError):
        classify_corpus_parallel(PipelineConfig(), PipelineInputs(original="", corrected=""), 0)


@pytest.mark.parametrize(
    "config",
    [
        PipelineConfig(arrow="=>"),
        PipelineConfig(granularity="chars"),
        PipelineConfig(annotator_id=-1),
    ],
)
def test_bad_configs_are_rejected(config):
    with pytest.raises(ConfigurationError):
        run(config, PipelineInputs(original="a\n", corrected="a\n"))


def test_classify_requires_both_texts():
    with pytest.raises(ConfigurationError):
        run(PipelineConfig(), PipelineInputs(original="a\n"))


def test_retype_requires_m2():
    with pytest.raises(ConfigurationError):
        run(PipelineConfig(), PipelineInputs())


@pytest.mark.parametrize(
    "inputs",
    [
        PipelineInputs(corrected="a\n"),
        PipelineInputs(original="a\n", corrected="a\n", m2="S a\n"),
        PipelineInputs(original="a\n", m2="S a\n"),
    ],
)
def test_inputs_must_be_both_texts_or_m2_alone(inputs):
    message = "give the original and the corrected text, or an M2 text alone"
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        run(PipelineConfig(), inputs)
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        classify_corpus_parallel(PipelineConfig(), inputs, 2)


def test_synthetic_corpus_round_trips_through_retype():
    corpus = SyntheticCorpus(30, seed=9)
    config = PipelineConfig()
    inputs = PipelineInputs(original=corpus.orig_text, corrected=corpus.cor_text)
    classified = run(config, inputs)

    blanked = [
        record.__class__(
            record.source_tokens,
            tuple(M2Edit(e.span, "UNK", e.annotator_id) for e in record.edits),
        )
        for record in classified
    ]
    retyped = run(PipelineConfig(), PipelineInputs(m2=emit_m2(blanked)))
    assert retyped == classified
