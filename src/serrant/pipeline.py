"""End-to-end runs: classify parallel text, or retype an existing M2 file.

The inputs given choose the command.  With both texts, ``classify``
extracts edits from the parallel original/corrected corpus and types each
one.  With an M2 text alone, ``retype`` keeps the edits of the M2 file
untouched (spans, corrections, annotator ids, and any noop sentinels) and
only recomputes the type labels.

Both commands annotate each side the same way: from CoNLL-U files when
paths are configured (paired with sentences by position, and checked
token-by-token against the surface), and with the built-in fallback
annotator otherwise.  ``retype`` synthesises each annotator's corrected
sentence by applying their edits before it is annotated.

Both commands work on shards: contiguous runs of items (sentence pairs,
or M2 records) with the CoNLL-U lines that annotate them.
``run(config, inputs, worker_count=1)`` types the whole corpus as one
shard, or with ``worker_count`` above 1 hands smaller shards to worker
processes; :data:`classify_corpus_parallel` is another name for it.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .alignment import Edit, align, merge
from .base import classify_base, load_wordlist
from .combine import SerrantType, build_context, combine
from .errors import (
    AttachmentError,
    ConfigurationError,
    IngestionError,
    M2ValidationError,
    SerrantError,
)
from .m2 import M2Edit, M2Record, apply_edits, parse_m2, read_parallel
from .sercl import ARROW_ASCII, ARROW_UNICODE, GRANULARITIES, GRANULARITY_UPOS, classify_sercl
from .ud import (
    AnnotatedSentence,
    attach,
    conllu_sentence_starts,
    fallback_annotate,
    parse_conllu,
)

@dataclass(frozen=True)
class PipelineConfig:
    granularity: str = GRANULARITY_UPOS
    wordlist_path: str | None = None
    conllu_orig_path: str | None = None
    conllu_cor_path: str | None = None
    annotator_id: int = 0
    arrow: str = ARROW_ASCII


@dataclass(frozen=True)
class PipelineInputs:
    """Raw input texts; the ones given choose the command.

    Both ``original`` and ``corrected`` classify them; ``m2`` alone
    retypes it.
    """

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


def run(
    config: PipelineConfig, inputs: PipelineInputs, worker_count: int = 1
) -> list[M2Record]:
    """Run one full pass and return the resulting records.

    With ``worker_count`` above 1 the items are cut into shards typed by
    worker processes: the parent cuts the CoNLL-U texts at sentence
    boundaries without parsing them, and each worker parses, attaches and
    types its own shard.  The items are cut by ``worker_count``, but the
    pool starts at most one worker per usable core.  Output is identical
    for any worker count, and so is the error raised on bad input: when
    the CoNLL-U sentence counts disagree with the item count, or a shard
    fails, the parent types the whole corpus as one shard itself and
    raises what that raises.
    """
    if worker_count < 1:
        raise ConfigurationError(f"worker count must be >= 1, got {worker_count}")
    _check_config(config)
    retype = _is_retype(inputs)
    task = partial(_type_shard, retype=retype, wordlist=_load_wordlist(config), config=config)
    items = parse_m2(inputs.m2) if retype else read_parallel(inputs.original, inputs.corrected)
    shards = _cut(config, items, worker_count) if worker_count > 1 else []
    if len(shards) > 1:
        try:
            # The platform's default start method: "spawn" would re-run the
            # caller's main module in every worker, which breaks scripts
            # that call this without an ``if __name__ == "__main__"`` guard.
            with ProcessPoolExecutor(min(worker_count, len(shards), _usable_cores())) as executor:
                return [record for part in executor.map(task, shards) for record in part]
        except SerrantError:
            pass  # typing the corpus as one shard below raises the error in serial order
    # each CoNLL-U file is read when its side is parsed, so one text is held at a time
    whole = _Shard(
        items,
        partial(_read_conllu, config.conllu_orig_path),
        partial(_read_conllu, config.conllu_cor_path),
    )
    return task(whole)


classify_corpus_parallel = run


# --- shared helpers -------------------------------------------------------


def _check_config(config: PipelineConfig) -> None:
    if config.granularity not in GRANULARITIES:
        raise ConfigurationError(f"unknown granularity {config.granularity!r}")
    if config.annotator_id < 0:
        raise ConfigurationError(f"annotator id must be >= 0, got {config.annotator_id}")
    if config.arrow not in (ARROW_ASCII, ARROW_UNICODE):
        raise ConfigurationError(f"unknown arrow {config.arrow!r}")


def _is_retype(inputs: PipelineInputs) -> bool:
    """True for an M2 text alone, false for both texts; any other mix is an error."""
    texts = (inputs.original, inputs.corrected)
    if inputs.m2 is None and None not in texts:
        return False
    if inputs.m2 is not None and texts == (None, None):
        return True
    raise ConfigurationError("give the original and the corrected text, or an M2 text alone")


def _usable_cores() -> int:
    """The cores this process may run on; all of them where the platform cannot tell."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def read_input(path: str, newline: str | None = None) -> str:
    """Read a UTF-8 input file; ``newline`` is passed to :func:`open`.

    Raises:
        IngestionError: naming the path, the first byte that is not UTF-8
            and its 1-based line, when the file does not decode.
    """
    with open(path, encoding="utf-8", newline=newline) as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            line = exc.object.count(b"\n", 0, exc.start) + 1
            raise IngestionError(
                f"{path}: not valid UTF-8: byte 0x{exc.object[exc.start]:02x} on line {line}"
            ) from None


def _load_wordlist(config: PipelineConfig) -> frozenset[str] | None:
    if config.wordlist_path is None:
        return None
    return load_wordlist(read_input(config.wordlist_path))


def _read_conllu(path: str | None) -> str | None:
    return None if path is None else read_input(path)


def _sentences(
    conllu: str | None, count: int, which: str
) -> list[AnnotatedSentence] | list[None]:
    """Parse ``count`` sentences from CoNLL-U text; ``None`` for each input when there is none."""
    if conllu is None:
        return [None] * count
    sentences = parse_conllu(conllu)
    if len(sentences) != count:
        raise IngestionError(f"{which} annotations: {len(sentences)} sentences for {count} inputs")
    return sentences


def _annotate(
    sentence: AnnotatedSentence | None, tokens: tuple[str, ...], which: str, index: int
) -> AnnotatedSentence:
    """Attach ``sentence`` to ``tokens``, or annotate them with the fallback annotator."""
    if sentence is None:
        return fallback_annotate(tokens)
    try:
        return attach(sentence, tokens)
    except AttachmentError as exc:
        raise AttachmentError(exc.index, f"{which} sentence {index}: {exc}") from None


# --- shards ---------------------------------------------------------------

_Pair = tuple[tuple[str, ...], tuple[str, ...]]


class _Shard(NamedTuple):
    """Contiguous items and loaders of the CoNLL-U text that annotates them.

    The items are sentence pairs or M2 records.  Each loader takes no
    arguments and gives that side's text, or ``None`` when the side uses
    the fallback annotator.
    """

    items: list[_Pair] | list[M2Record]
    orig: Callable[[], str | None]
    cor: Callable[[], str | None]


def _cut(
    config: PipelineConfig, items: list[_Pair] | list[M2Record], worker_count: int
) -> list[_Shard]:
    """Cut the corpus into about four shards per worker.

    Returns no shards when a CoNLL-U file cannot be read or is not UTF-8,
    or does not hold one sentence per item, so that typing the whole
    corpus reports the error in serial order.
    """
    size = max(1, len(items) // (worker_count * 4))
    firsts = range(0, len(items), size)
    try:
        orig = _pieces(config.conllu_orig_path, firsts, len(items))
        cor = _pieces(config.conllu_cor_path, firsts, len(items))
    except (OSError, IngestionError):
        return []
    if orig is None or cor is None:
        return []
    return [
        _Shard(items[first : first + size], partial(_given, orig_text), partial(_given, cor_text))
        for first, orig_text, cor_text in zip(firsts, orig, cor)
    ]


def _given(text: str | None) -> str | None:
    """Return ``text``; bound to a piece, it is a picklable shard loader."""
    return text


def _pieces(path: str | None, firsts: range, count: int) -> list[str | None] | None:
    """Cut a CoNLL-U file before each sentence index in ``firsts``.

    The first piece starts at the top of the text and the last runs to its
    end, so every line is parsed by exactly one piece.  ``None`` when the
    text does not hold ``count`` sentences.
    """
    conllu = _read_conllu(path)
    if conllu is None:
        return [None] * len(firsts)
    starts = conllu_sentence_starts(conllu)
    if len(starts) != count:
        return None
    cuts = [0] + [starts[first] for first in firsts[1:]]
    return [conllu[cut:end] for cut, end in zip(cuts, cuts[1:] + [len(conllu)])]


def _type_shard(
    shard: _Shard, retype: bool, wordlist: frozenset[str] | None, config: PipelineConfig
) -> list[M2Record]:
    """Type a shard's items in order with :func:`_retype_record` or :func:`_classify_pair`.

    Every original sentence is annotated, and then the corrected CoNLL-U
    is parsed, before any item is typed; each item attaches its own
    corrected sentence.
    """
    if retype:
        type_item, sources = _retype_record, [record.source_tokens for record in shard.items]
    else:
        type_item, sources = _classify_pair, [src for src, _ in shard.items]
    src_sentences = [
        _annotate(sentence, tokens, "original", index)
        for index, (sentence, tokens) in enumerate(
            zip(_sentences(shard.orig(), len(sources), "original"), sources)
        )
    ]
    cor_sentences = _sentences(shard.cor(), len(sources), "corrected")
    return [
        type_item(item, src_sentence, cor_sentence, wordlist, config, index)
        for index, (item, src_sentence, cor_sentence) in enumerate(
            zip(shard.items, src_sentences, cor_sentences)
        )
    ]


# --- typing one item ------------------------------------------------------


def _classify_pair(
    pair: _Pair,
    src_sentence: AnnotatedSentence,
    cor_sentence: AnnotatedSentence | None,
    wordlist: frozenset[str] | None,
    config: PipelineConfig,
    index: int,
) -> M2Record:
    """Align one pair and type its edits.

    ``cor_sentence`` is the unattached corrected CoNLL-U sentence.
    """
    src, trg = pair
    trg_sentence = _annotate(cor_sentence, trg, "corrected", index)
    ops = align(
        src,
        trg,
        src_lemmas=[t.lemma for t in src_sentence.tokens],
        trg_lemmas=[t.lemma for t in trg_sentence.tokens],
    )
    m2_edits = []
    for edit in merge(ops, src, trg):
        typed = classify_edit(edit, src_sentence, trg_sentence, wordlist, config.granularity)
        m2_edits.append(M2Edit(edit.span, typed.render(config.arrow), config.annotator_id))
    return M2Record(src, tuple(m2_edits))


def _retype_record(
    record: M2Record,
    src_sentence: AnnotatedSentence,
    cor_sentence: AnnotatedSentence | None,
    wordlist: frozenset[str] | None,
    config: PipelineConfig,
    record_index: int,
) -> M2Record:
    """Retype one record; ``cor_sentence`` is the unattached corrected CoNLL-U sentence."""
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
        trg_sentence = _annotate(cor_sentence, cor_tokens, "corrected", record_index)
        for position, span, cor_start in zip(positions, spans, cor_starts):
            edit = Edit(span, record.source_tokens[span.start : span.end], cor_start)
            typed = classify_edit(edit, src_sentence, trg_sentence, wordlist, config.granularity)
            old = record.edits[position]
            new_edits[position] = M2Edit(old.span, typed.render(config.arrow), old.annotator_id)
    return M2Record(record.source_tokens, tuple(new_edits))
