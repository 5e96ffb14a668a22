"""End-to-end classify and retype runs."""

from __future__ import annotations

import concurrent.futures
import gc
import pickle
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import GOLDEN_ALL, GOLDEN_FLAGSHIP, golden_config, golden_inputs
from serrant import pipeline
from serrant.base import load_wordlist
from serrant.errors import (
    AttachmentError,
    ConfigurationError,
    IngestionError,
    M2ParseError,
    M2ValidationError,
    SerrantError,
)
from serrant.m2 import M2Edit, NOOP_TYPE, emit_m2, parse_m2
from serrant.pipeline import (
    PipelineConfig,
    PipelineInputs,
    run,
)
from oracles import reference_run
from serrant.sercl import ARROW_UNICODE, GRANULARITIES, GRANULARITY_UPOS, GRANULARITY_UPOS_FEATS
from synthgen import SyntheticCorpus


def test_classify_flagship_pairs():
    records = run(golden_config(), golden_inputs(GOLDEN_FLAGSHIP))
    assert len(records) == len(GOLDEN_FLAGSHIP)
    for record, pair in zip(records, GOLDEN_FLAGSHIP):
        got = [(e.span.start, e.span.end, e.type_label) for e in record.edits]
        assert got == pair.expected


# the golden labels that upos+feats changes, by pair index
GOLDEN_FEATS_CHANGES = {6: [(1, 2, "R:Verb:present->Verb:past")]}


def test_one_process_types_the_golden_corpus_under_each_setting_in_turn():
    # the shared types and the kept label texts carry nothing from one setting to the next
    upos = [pair.expected for pair in GOLDEN_ALL]
    feats = [GOLDEN_FEATS_CHANGES.get(i, edits) for i, edits in enumerate(upos)]
    unicode = [[(s, e, label.replace("->", "→")) for s, e, label in edits] for edits in upos]
    assert feats != upos and unicode != upos
    for settings, want in [
        ({}, upos),
        ({"granularity": GRANULARITY_UPOS_FEATS}, feats),
        ({"arrow": ARROW_UNICODE}, unicode),
        ({}, upos),
    ]:
        records = run(golden_config(**settings), golden_inputs(GOLDEN_ALL))
        got = [[(e.span.start, e.span.end, e.type_label) for e in r.edits] for r in records]
        assert got == want


def test_classify_identical_pair_yields_no_edits():
    records = run(
        PipelineConfig(),
        PipelineInputs(original="the cat sat .\n", corrected="the cat sat .\n"),
    )
    assert len(records) == 1
    assert records[0].edits == ()
    assert records[0].source_tokens == ("the", "cat", "sat", ".")


def test_classify_with_fallback_annotations():
    records = run(
        PipelineConfig(wordlist=load_wordlist("work\npen\n")),
        PipelineInputs(original="I werk for pen\n", corrected="I work for Pen\n"),
    )
    labels = [e.type_label for e in records[0].edits]
    assert labels == ["R:Spell", "R:Noun->Propn"]


def test_classify_respects_annotator_id_and_arrow():
    config = golden_config(annotator_id=2, arrow=ARROW_UNICODE)
    records = run(config, golden_inputs(GOLDEN_FLAGSHIP[:1]))
    edits = records[0].edits
    assert all(e.annotator_id == 2 for e in edits)
    assert [e.type_label for e in edits] == ["R:Spell", "R:Noun→Propn"]


def test_classify_conllu_count_mismatch():
    inputs = golden_inputs(GOLDEN_FLAGSHIP)._replace(original="one line\n", corrected="one line\n")
    with pytest.raises(IngestionError) as info:
        run(golden_config(), inputs)
    assert "1" in str(info.value)


def test_classify_attach_mismatch_names_sentence():
    inputs = golden_inputs(GOLDEN_FLAGSHIP[:1])._replace(
        original="I werk for pencil\n", corrected="I work for Pen\n"
    )
    with pytest.raises(AttachmentError) as info:
        run(golden_config(), inputs)
    assert "original sentence 0" in str(info.value)


def test_retype_recovers_classified_labels():
    config = golden_config()
    classified = run(config, golden_inputs(GOLDEN_FLAGSHIP))

    blanked = [
        record.__class__(
            record.source_tokens,
            tuple(M2Edit(e.span, "UNK", e.annotator_id) for e in record.edits),
        )
        for record in classified
    ]
    retyped = run(config, golden_inputs(GOLDEN_FLAGSHIP, m2=emit_m2(blanked)))
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


def test_retype_rejects_multiple_annotators_with_corrected_conllu():
    m2 = (
        "S I werk for pen\n"
        "A 1 2|||UNK|||work|||REQUIRED|||-NONE-|||0\n"
        "A 3 4|||UNK|||Pen|||REQUIRED|||-NONE-|||1\n"
    )
    with pytest.raises(ConfigurationError) as info:
        run(golden_config(), golden_inputs(GOLDEN_FLAGSHIP[:1], m2=m2))
    assert "annotator" in str(info.value)


def test_retype_conllu_count_mismatch():
    m2 = "S I werk for pen\nA 1 2|||UNK|||work|||REQUIRED|||-NONE-|||0\n"
    with pytest.raises(IngestionError):
        run(golden_config(), golden_inputs(GOLDEN_FLAGSHIP, m2=m2))


def test_retype_corrected_conllu_count_mismatch():
    m2 = "S I werk for pen\nA 1 2|||UNK|||work|||REQUIRED|||-NONE-|||0\n"
    inputs = golden_inputs(GOLDEN_FLAGSHIP[:2], m2=m2)._replace(conllu_orig=None)
    with pytest.raises(IngestionError) as info:
        run(PipelineConfig(), inputs)
    assert str(info.value) == "corrected annotations: 2 sentences for 1 inputs"


def test_retype_corrected_attach_mismatch_names_record():
    # the corrected CoNLL-U reads "Pen", but these edits leave "pen"
    m2 = "S I werk for pen\nA 1 2|||UNK|||work|||REQUIRED|||-NONE-|||0\n"
    with pytest.raises(AttachmentError) as info:
        run(golden_config(), golden_inputs(GOLDEN_FLAGSHIP[:1], m2=m2))
    assert str(info.value).startswith("corrected sentence 0: annotation form")
    assert info.value.index == 3


def test_m2_input_is_retyped_whatever_the_worker_count():
    m2 = "S we eat now\nA 1 2|||UNK|||ate|||REQUIRED|||-NONE-|||0\n"
    inputs = PipelineInputs(m2=m2)
    assert run(PipelineConfig(), inputs, 4) == run(PipelineConfig(), inputs)


def test_pool_starts_at_most_one_worker_per_usable_core(monkeypatch, in_process_pool):
    monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    corpus = SyntheticCorpus(100, seed=6)
    config = PipelineConfig()
    inputs = PipelineInputs(original=corpus.orig_text, corrected=corpus.cor_text)
    serial = run(config, inputs)
    for jobs in (2, 64, 5000):
        assert run(config, inputs, jobs) == serial
    # the texts' 5,197 characters make 11 shards of about 500 for any worker count
    assert in_process_pool.workers == [2, 3, 3]
    assert in_process_pool.shards == [11, 11, 11]
    assert in_process_pool.collecting == [False] * 3  # each pool's workers skip the collector
    assert gc.isenabled()  # and this process collects again
    # one usable core starts no pool: a pool of one worker would type nothing in parallel
    monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert run(config, inputs, 4) == serial
    assert in_process_pool.workers == [2, 3, 3]


def test_each_shard_carries_its_texts_and_not_the_wordlist(in_process_pool):
    words = load_wordlist("".join(f"word{i}\n" for i in range(50_000)))
    corpus = SyntheticCorpus(40, seed=3)
    config = PipelineConfig(wordlist=words)
    inputs = PipelineInputs(original=corpus.orig_text, corrected=corpus.cor_text)
    assert run(config, inputs, 2) == run(config, inputs)
    (mapped,) = in_process_pool.mapped  # pickled with every shard by a process pool
    assert len(pickle.dumps(mapped)) < 1000


def _retype_corpus():
    """120 untyped synthetic records and both CoNLL-U texts."""
    corpus = SyntheticCorpus(120, seed=8)
    return corpus.untyped_m2(), corpus.conllu_orig, corpus.conllu_cor


def test_retype_runs_on_shards(in_process_pool):
    m2, orig, _ = _retype_corpus()
    config = PipelineConfig()
    inputs = PipelineInputs(m2=m2, conllu_orig=orig)
    serial = run(config, inputs)
    assert "UNK" not in emit_m2(serial)
    assert run(config, inputs, 4) == serial
    assert in_process_pool.shards == [77]  # 39,113 characters in shards of about 500


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
        (["A 2 2|||UNK||||||REQUIRED|||-NONE-|||0"], False, M2ValidationError),
    ],
    ids=["overlapping-spans", "two-annotators-with-corrected-conllu", "empty-edit"],
)
def test_retype_shard_errors_are_the_serial_errors(
    in_process_pool, edit_lines, both_conllu, error
):
    m2, orig, cor = _retype_corpus()
    blocks = m2.rstrip("\n").split("\n\n")
    late = max(i for i, block in enumerate(blocks) if len(block.split("\n")[0].split()) >= 4)
    assert late >= 100  # in one of the last shards
    blocks[late] = "\n".join([blocks[late].split("\n")[0], *edit_lines])
    config = PipelineConfig()
    m2 = "\n\n".join(blocks) + "\n"
    inputs = PipelineInputs(m2=m2, conllu_orig=orig, conllu_cor=cor if both_conllu else None)
    with pytest.raises(error) as serial:
        run(config, inputs)
    with pytest.raises(error) as sharded:
        run(config, inputs, 4)
    assert in_process_pool.shards == [104 if both_conllu else 77]
    assert type(sharded.value) is type(serial.value)
    assert str(sharded.value) == str(serial.value)
    assert str(serial.value).startswith(f"record {late}: ")


def test_parallel_run_matches_serial_run():
    corpus = SyntheticCorpus(40, seed=3)
    config = PipelineConfig()
    inputs = PipelineInputs(original=corpus.orig_text, corrected=corpus.cor_text)
    serial = run(config, inputs)
    parallel = run(config, inputs, worker_count=3)
    assert serial == parallel
    assert emit_m2(serial) == emit_m2(parallel)


@pytest.mark.parametrize(
    "error",
    [OSError(11, "Resource temporarily unavailable"), BrokenProcessPool("a worker died")],
    ids=["os-error", "broken-pool"],
)
def test_a_failing_pool_gives_the_serial_records(in_process_pool, error):
    corpus = SyntheticCorpus(40, seed=3)
    config = PipelineConfig()
    inputs = PipelineInputs(original=corpus.orig_text, corrected=corpus.cor_text)
    serial = run(config, inputs)
    in_process_pool.error = error
    assert run(config, inputs, 2) == serial
    # the first shard's failure is read once it and four more are queued (two
    # per worker); the pool then drops the queued shards, and no more are sliced
    assert in_process_pool.shards == [5]
    assert in_process_pool.cancelled == [True]


def test_a_pool_that_cannot_start_gives_the_serial_records(monkeypatch, small_shards):
    corpus = SyntheticCorpus(40, seed=3)
    config = PipelineConfig()
    inputs = PipelineInputs(original=corpus.orig_text, corrected=corpus.cor_text)
    serial = run(config, inputs)
    # two usable cores, so that a pool is tried on a machine with one as well
    monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for error in (
        OSError(11, "Resource temporarily unavailable"),
        # what ProcessPoolExecutor raises on a platform without named semaphores
        NotImplementedError("This Python build lacks multiprocessing.synchronize"),
    ):

        def cannot_start(*args, **kwargs):
            raise error

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", cannot_start)
        assert run(config, inputs, 2) == serial


def test_a_pool_that_cannot_start_leaves_the_parent_typing_shard_by_shard(
    monkeypatch, small_shards
):
    corpus = SyntheticCorpus(40, seed=3)
    config = PipelineConfig()
    inputs = PipelineInputs(original=corpus.orig_text, corrected=corpus.cor_text)
    serial = run(config, inputs)
    monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def cannot_start(*args, **kwargs):
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", cannot_start)
    typed = []
    type_shard = pipeline._type_shard

    def recording(shard, **kwargs):
        typed.append(shard)
        return type_shard(shard, **kwargs)

    monkeypatch.setattr(pipeline, "_type_shard", recording)
    assert run(config, inputs, worker_count=2) == serial
    # each shard once, in order, and never the whole corpus as one shard
    count, shards = pipeline._cut(inputs)
    assert count > 1
    assert typed == list(shards)
    assert inputs not in typed


def _reference_cases(corpus: str, granularity: str):
    """(name, config, inputs) of both commands on ``corpus``, with and without CoNLL-U."""
    if corpus == "golden":
        config = golden_config(granularity=granularity)
        texts = golden_inputs(GOLDEN_ALL)
    else:
        synthetic = SyntheticCorpus(200, seed=12)
        config = PipelineConfig(granularity, frozenset(synthetic.cor_text.lower().split()))
        texts = PipelineInputs(
            original=synthetic.orig_text,
            corrected=synthetic.cor_text,
            conllu_orig=synthetic.conllu_orig,
            conllu_cor=synthetic.conllu_cor,
        )
    m2 = emit_m2(reference_run(config, texts))
    return [
        ("classify", config, texts),
        ("classify-original-conllu", config, texts._replace(conllu_cor=None)),
        ("classify-fallback", config, texts._replace(conllu_orig=None, conllu_cor=None)),
        ("retype", config, PipelineInputs(m2=m2, conllu_orig=texts.conllu_orig)),
        ("retype-fallback", config, PipelineInputs(m2=m2)),
    ]


@pytest.mark.parametrize("granularity", [GRANULARITY_UPOS, GRANULARITY_UPOS_FEATS])
@pytest.mark.parametrize("corpus", ["golden", "synthetic"])
def test_run_gives_the_records_of_the_reference_pipeline(in_process_pool, corpus, granularity):
    # shards of about 500 characters, typed in this process by worker_count 1
    for name, config, inputs in _reference_cases(corpus, granularity):
        expected = reference_run(config, inputs)
        assert sum(len(record.edits) for record in expected) > 10, name
        for worker_count in (1, 2):
            assert (name, run(config, inputs, worker_count)) == (name, expected)
    # worker_count 2 starts a pool for every case but the golden M2 alone, one shard
    assert len(in_process_pool.workers) == (4 if corpus == "golden" else 5)


# the CoNLL-U texts each case gives: classify with both, one or neither, retype
# with the original's or none
_SYNTHETIC_CASES = {
    "classify": ("conllu_orig", "conllu_cor"),
    "classify-original-conllu": ("conllu_orig",),
    "classify-corrected-conllu": ("conllu_cor",),
    "classify-fallback": (),
    "retype": ("conllu_orig",),
    "retype-fallback": (),
}


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    size=st.integers(1, 40),
    seed=st.integers(0, 1000),
    case=st.sampled_from(sorted(_SYNTHETIC_CASES)),
    granularity=st.sampled_from(GRANULARITIES),
    shard_chars=st.integers(50, 5000),
    worker_count=st.sampled_from([1, 2, 4]),
)
def test_run_gives_the_reference_records_for_any_shard_budget(
    in_process_pool, monkeypatch, size, seed, case, granularity, shard_chars, worker_count
):
    monkeypatch.setattr(pipeline, "_SHARD_CHARS", shard_chars)
    corpus = SyntheticCorpus(size, seed)
    config = PipelineConfig(granularity, frozenset(corpus.cor_text.lower().split()))
    if case.startswith("retype"):
        inputs = PipelineInputs(m2=corpus.untyped_m2())
    else:
        inputs = PipelineInputs(original=corpus.orig_text, corrected=corpus.cor_text)
    inputs = inputs._replace(**{name: getattr(corpus, name) for name in _SYNTHETIC_CASES[case]})
    assert run(config, inputs, worker_count) == reference_run(config, inputs)


def test_parallel_rejects_bad_worker_count():
    with pytest.raises(ConfigurationError):
        run(PipelineConfig(), PipelineInputs(original="", corrected=""), 0)


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
        run(PipelineConfig(), inputs, 2)


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


# --- the cut: shards are slices of the texts, parsed in the workers -----------


def _cut_texts() -> dict[str, str]:
    """Every input text of 40 synthetic items."""
    corpus = SyntheticCorpus(40, seed=31)
    return {
        "orig": corpus.orig_text,
        "cor": corpus.cor_text,
        "conllu_orig": corpus.conllu_orig,
        "conllu_cor": corpus.conllu_cor,
        "m2": corpus.untyped_m2(),
    }


def _cut_run(texts, command, conllu):
    """The config and inputs of ``command``, with the CoNLL-U texts named in ``conllu``."""
    annotations = {name: texts[name] for name in conllu}
    if command == "retype":
        return PipelineConfig(), PipelineInputs(m2=texts["m2"], **annotations)
    inputs = PipelineInputs(original=texts["orig"], corrected=texts["cor"], **annotations)
    return PipelineConfig(), inputs


def _records_or_error(config, inputs, worker_count):
    try:
        return run(config, inputs, worker_count)
    except SerrantError as exc:
        return f"{type(exc).__name__}: {exc}"


def _set_block(texts, name, index, block, insert=False):
    blocks = texts[name].rstrip("\n").split("\n\n")
    blocks[index : index if insert else index + 1] = [block]
    texts[name] = "\n\n".join(blocks) + "\n"


def _comment_block_added(texts):
    _set_block(texts, "conllu_orig", 20, "# sent_id = none", insert=True)


def _comment_block_for_a_sentence(texts):
    _set_block(texts, "conllu_orig", 20, "# sent_id = none")


def _blank_lines_around(texts):
    for name in ("conllu_orig", "conllu_cor", "m2"):
        texts[name] = "\n \n" + texts[name] + "\n\n \n"


def _m2_records_not_separated(texts):
    blocks = texts["m2"].rstrip("\n").split("\n\n")
    texts["m2"] = "".join(block + ("\n" if i % 3 else "\n\n") for i, block in enumerate(blocks))


def _extra_original_line(texts):
    texts["orig"] += "one more line\n"


@pytest.mark.parametrize(
    "command, conllu, change, shards, error",
    [
        ("classify", ("conllu_orig", "conllu_cor"), _comment_block_added, [], None),
        (
            "classify",
            ("conllu_orig", "conllu_cor"),
            _comment_block_for_a_sentence,
            [19],
            "IngestionError: original annotations: 39 sentences for 40 inputs",
        ),
        ("classify", ("conllu_orig", "conllu_cor"), _blank_lines_around, [], None),
        ("retype", ("conllu_orig",), _blank_lines_around, [25], None),
        ("retype", (), _blank_lines_around, [8], None),
        ("retype", (), _m2_records_not_separated, [8], None),
        ("retype", ("conllu_orig",), _m2_records_not_separated, [], None),
        (
            "classify",
            (),
            _extra_original_line,
            [],
            "IngestionError: parallel texts differ in length:"
            " 41 original lines vs 40 corrected lines",
        ),
    ],
    ids=[
        "comment-only-block",
        "comment-only-block-for-a-sentence",
        "blank-lines-around-classify",
        "blank-lines-around-retype",
        "blank-lines-around-m2-alone",
        "m2-records-not-separated",
        "m2-records-not-separated-with-conllu",
        "different-line-counts",
    ],
)
def test_a_cut_that_does_not_hold_gives_the_serial_result(
    in_process_pool, command, conllu, change, shards, error
):
    texts = _cut_texts()
    change(texts)
    config, inputs = _cut_run(texts, command, conllu)
    serial = _records_or_error(config, inputs, 1)
    assert _records_or_error(config, inputs, 2) == serial
    # [] when the cut fails and no pool starts; a leading blank run is an item of no record;
    # a shard that fails is read, and the run stops, once four more are queued
    assert in_process_pool.shards == shards
    if error is None:
        assert len(serial) == 40
    else:
        assert serial == error


@pytest.mark.parametrize(
    "command, conllu", [("classify", ("conllu_orig", "conllu_cor")), ("retype", ("conllu_orig",))]
)
def test_well_formed_inputs_are_typed_on_their_shards_alone(
    in_process_pool, monkeypatch, command, conllu
):
    config, inputs = _cut_run(_cut_texts(), command, conllu)
    serial = run(config, inputs)
    typed = []

    def type_shard(shard, **kwargs):
        typed.append(shard)
        return type_whole(shard, **kwargs)

    type_whole = pipeline._type_shard
    monkeypatch.setattr(pipeline, "_type_shard", type_shard)
    assert run(config, inputs, 2) == serial
    # each shard is typed once, and the whole corpus never
    assert in_process_pool.shards == [33 if command == "classify" else 25]
    assert len(typed) == in_process_pool.shards[0]
    assert inputs not in typed


def test_an_empty_type_label_fails_on_its_line_for_any_worker_count(monkeypatch, in_process_pool):
    m2 = "S a b\n\nS we eat now\nA 1 2||||||ate|||REQUIRED|||-NONE-|||0\n"
    monkeypatch.setattr(pipeline, "_SHARD_CHARS", 5)  # a shard for each record
    for worker_count in (1, 2):
        with pytest.raises(M2ParseError) as info:
            run(PipelineConfig(), PipelineInputs(m2=m2), worker_count)
        assert str(info.value) == "line 4: empty type label"
    assert in_process_pool.shards == [2]
