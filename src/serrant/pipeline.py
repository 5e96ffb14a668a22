"""End-to-end runs: classify parallel text, or retype an existing M2 file.

``classify`` extracts edits from a parallel original/corrected corpus and
types each one.  ``retype`` keeps the edits of an M2 file untouched (spans,
corrections, annotator ids, and any noop sentinels) and only recomputes the
type labels.

Annotations come from CoNLL-U files when paths are configured (paired with
sentences by position, and checked token-by-token against the surface), and
from the built-in fallback annotator otherwise.  In retype mode the
corrected sentence is synthesised by applying each annotator's edits before
annotations are looked up.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .alignment import Edit, align, merge
from .base import classify_base, load_wordlist
from .combine import SerrantType, build_context, combine
from .errors import AttachmentError, ConfigurationError, IngestionError, M2ValidationError
from .m2 import M2Edit, M2Record, apply_edits, parse_m2, read_parallel
from .sercl import ARROW_ASCII, GRANULARITIES, GRANULARITY_UPOS, classify_sercl
from .ud import AnnotatedSentence, attach, fallback_annotate, parse_conllu

MODE_CLASSIFY = "classify"
MODE_RETYPE = "retype"


@dataclass(frozen=True)
class PipelineConfig:
    mode: str = MODE_CLASSIFY
    granularity: str = GRANULARITY_UPOS
    wordlist_path: str | None = None
    conllu_orig_path: str | None = None
    conllu_cor_path: str | None = None
    annotator_id: int = 0
    arrow: str = ARROW_ASCII


@dataclass(frozen=True)
class PipelineInputs:
    """Raw input texts; which ones are required depends on the mode."""

    original: str | None = None
    corrected: str | None = None
    m2: str | None = None


def classify_edit(
    edit: Edit,
    src_sentence: AnnotatedSentence | None,
    trg_sentence: AnnotatedSentence | None,
    wordlist: frozenset[str] | None,
    granularity: str = GRANULARITY_UPOS,
) -> SerrantType:
    """Type a single edit: base category, SErCl pair, then combination."""
    ctx = build_context(edit, src_sentence, trg_sentence)
    return combine(classify_base(ctx, wordlist), classify_sercl(ctx, granularity), ctx)


def run(config: PipelineConfig, inputs: PipelineInputs) -> list[M2Record]:
    """Run one full pass and return the resulting records."""
    _check_config(config)
    wordlist = _load_wordlist(config)
    if config.mode == MODE_CLASSIFY:
        items = _prepare_classify(config, inputs)
        return [_classify_item(item, wordlist, config) for item in items]
    return _retype(config, inputs, wordlist)


def classify_corpus_parallel(
    config: PipelineConfig, inputs: PipelineInputs, worker_count: int
) -> list[M2Record]:
    """Like :func:`run`, splitting sentence work across processes.

    Output is identical to ``run(config, inputs)`` for any worker count;
    sentences are independent and order is preserved.
    """
    if worker_count < 1:
        raise ConfigurationError(f"worker count must be >= 1, got {worker_count}")
    if worker_count == 1 or config.mode != MODE_CLASSIFY:
        return run(config, inputs)
    _check_config(config)
    wordlist = _load_wordlist(config)
    items = _prepare_classify(config, inputs)
    chunk_size = max(1, len(items) // (worker_count * 4) or 1)
    chunks = [
        (items[i : i + chunk_size], wordlist, config) for i in range(0, len(items), chunk_size)
    ]
    records: list[M2Record] = []
    with ProcessPoolExecutor(max_workers=worker_count) as executor:
        for part in executor.map(_classify_chunk, chunks):
            records.extend(part)
    return records


# --- shared helpers -------------------------------------------------------

_ClassifyItem = tuple[tuple[str, ...], tuple[str, ...], AnnotatedSentence, AnnotatedSentence]


def _check_config(config: PipelineConfig) -> None:
    if config.mode not in (MODE_CLASSIFY, MODE_RETYPE):
        raise ConfigurationError(f"unknown mode {config.mode!r}")
    if config.granularity not in GRANULARITIES:
        raise ConfigurationError(f"unknown granularity {config.granularity!r}")
    if config.annotator_id < 0:
        raise ConfigurationError(f"annotator id must be >= 0, got {config.annotator_id}")


def _load_wordlist(config: PipelineConfig) -> frozenset[str] | None:
    if config.wordlist_path is None:
        return None
    return load_wordlist(Path(config.wordlist_path).read_text(encoding="utf-8"))


def _annotations(
    path: str | None, token_lists: list[tuple[str, ...]], which: str
) -> list[AnnotatedSentence]:
    if path is None:
        return [fallback_annotate(tokens) for tokens in token_lists]
    sentences = parse_conllu(Path(path).read_text(encoding="utf-8"))
    if len(sentences) != len(token_lists):
        raise IngestionError(
            f"{which} annotations: {len(sentences)} sentences for {len(token_lists)} inputs"
        )
    out = []
    for i, (sentence, tokens) in enumerate(zip(sentences, token_lists)):
        try:
            out.append(attach(sentence, tokens))
        except AttachmentError as exc:
            raise AttachmentError(exc.index, f"{which} sentence {i}: {exc}") from None
    return out


def _prepare_classify(config: PipelineConfig, inputs: PipelineInputs) -> list[_ClassifyItem]:
    if inputs.original is None or inputs.corrected is None:
        raise ConfigurationError("classify mode needs both the original and the corrected text")
    pairs = read_parallel(inputs.original, inputs.corrected)
    src_sentences = _annotations(config.conllu_orig_path, [src for src, _ in pairs], "original")
    trg_sentences = _annotations(config.conllu_cor_path, [trg for _, trg in pairs], "corrected")
    return [
        (src, trg, src_ann, trg_ann)
        for (src, trg), src_ann, trg_ann in zip(pairs, src_sentences, trg_sentences)
    ]


def _classify_item(
    item: _ClassifyItem, wordlist: frozenset[str] | None, config: PipelineConfig
) -> M2Record:
    src, trg, src_ann, trg_ann = item
    ops = align(
        src,
        trg,
        src_lemmas=[t.lemma for t in src_ann.tokens],
        trg_lemmas=[t.lemma for t in trg_ann.tokens],
    )
    edits = merge(ops, src, trg)
    m2_edits = []
    for edit in edits:
        typed = classify_edit(edit, src_ann, trg_ann, wordlist, config.granularity)
        m2_edits.append(M2Edit(edit.span, typed.render(config.arrow), config.annotator_id))
    return M2Record(tuple(src), tuple(m2_edits))


def _classify_chunk(
    chunk: tuple[list[_ClassifyItem], frozenset[str] | None, PipelineConfig]
) -> list[M2Record]:
    items, wordlist, config = chunk
    return [_classify_item(item, wordlist, config) for item in items]


# --- retype ---------------------------------------------------------------


def _retype(
    config: PipelineConfig, inputs: PipelineInputs, wordlist: frozenset[str] | None
) -> list[M2Record]:
    if inputs.m2 is None:
        raise ConfigurationError("retype mode needs an M2 input")
    records = parse_m2(inputs.m2)
    src_sentences = _annotations(
        config.conllu_orig_path, [r.source_tokens for r in records], "original"
    )
    cor_sentences = (
        parse_conllu(Path(config.conllu_cor_path).read_text(encoding="utf-8"))
        if config.conllu_cor_path is not None
        else None
    )
    if cor_sentences is not None and len(cor_sentences) != len(records):
        raise IngestionError(
            f"corrected annotations: {len(cor_sentences)} sentences for {len(records)} records"
        )

    out = []
    for index, record in enumerate(records):
        out.append(
            _retype_record(
                record,
                src_sentences[index],
                cor_sentences[index] if cor_sentences is not None else None,
                wordlist,
                config,
                index,
            )
        )
    return out


def _retype_record(
    record: M2Record,
    src_sentence: AnnotatedSentence,
    cor_sentence: AnnotatedSentence | None,
    wordlist: frozenset[str] | None,
    config: PipelineConfig,
    record_index: int,
) -> M2Record:
    real_positions = [i for i, e in enumerate(record.edits) if not e.span.is_noop]
    by_annotator: dict[int, list[int]] = {}
    for position in real_positions:
        span = record.edits[position].span
        if span.start == span.end and not span.correction:
            raise M2ValidationError(
                record_index, f"edit {span.start} {span.end} is empty on both sides"
            )
        by_annotator.setdefault(record.edits[position].annotator_id, []).append(position)

    if cor_sentence is not None and len(by_annotator) > 1:
        raise ConfigurationError(
            f"record {record_index}: corrected annotations cannot be paired with"
            f" {len(by_annotator)} annotators; drop the corrected CoNLL-U input"
        )

    new_edits = list(record.edits)
    for positions in by_annotator.values():
        spans = [record.edits[p].span for p in positions]
        try:
            cor_tokens, cor_starts = apply_edits(record.source_tokens, spans)
        except ValueError as exc:
            raise M2ValidationError(record_index, str(exc)) from None
        if cor_sentence is not None:
            try:
                trg_sentence = attach(cor_sentence, cor_tokens)
            except AttachmentError as exc:
                raise AttachmentError(
                    exc.index, f"corrected sentence {record_index}: {exc}"
                ) from None
        else:
            trg_sentence = fallback_annotate(cor_tokens)
        for position, span, cor_start in zip(positions, spans, cor_starts):
            edit = Edit(span, record.source_tokens[span.start : span.end], cor_start)
            typed = classify_edit(edit, src_sentence, trg_sentence, wordlist, config.granularity)
            old = record.edits[position]
            new_edits[position] = M2Edit(old.span, typed.render(config.arrow), old.annotator_id)
    return M2Record(record.source_tokens, tuple(new_edits))
