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

``classify`` works on shards: contiguous runs of sentence pairs with the
CoNLL-U lines that annotate them.  A serial run types the whole corpus as
one shard; :func:`classify_corpus_parallel` hands smaller shards to worker
processes.  ``retype`` always runs in one process.
"""

from __future__ import annotations

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
from .sercl import ARROW_ASCII, GRANULARITIES, GRANULARITY_UPOS, classify_sercl
from .ud import (
    AnnotatedSentence,
    attach,
    conllu_sentence_starts,
    fallback_annotate,
    parse_conllu,
)

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
        return _classify_corpus(_read_pairs(inputs), wordlist, config)
    return _retype(config, inputs, wordlist)


def classify_corpus_parallel(
    config: PipelineConfig, inputs: PipelineInputs, worker_count: int
) -> list[M2Record]:
    """Like :func:`run`, splitting the corpus into shards typed by worker processes.

    The parent cuts the CoNLL-U texts at sentence boundaries without
    parsing them; each worker parses, attaches and types its own shard.
    Output is identical to ``run(config, inputs)`` for any worker count,
    and so is the error raised on bad input: when the CoNLL-U sentence
    counts disagree with the pair count, or a shard fails, the parent
    types the corpus as one shard itself and raises what that raises.
    """
    if worker_count < 1:
        raise ConfigurationError(f"worker count must be >= 1, got {worker_count}")
    if worker_count == 1 or config.mode != MODE_CLASSIFY:
        return run(config, inputs)
    _check_config(config)
    wordlist = _load_wordlist(config)
    pairs = _read_pairs(inputs)
    shards = _cut(config, pairs, worker_count)
    if len(shards) > 1:
        task = partial(_classify_shard, wordlist=wordlist, config=config)
        try:
            # The platform's default start method: "spawn" would re-run the
            # caller's main module in every worker, which breaks scripts
            # that call this without an ``if __name__ == "__main__"`` guard.
            with ProcessPoolExecutor(min(worker_count, len(shards))) as executor:
                return [record for part in executor.map(task, shards) for record in part]
        except SerrantError:
            pass  # typing the corpus as one shard below raises the error in serial order
    return _classify_corpus(pairs, wordlist, config)


# --- shared helpers -------------------------------------------------------


def _check_config(config: PipelineConfig) -> None:
    if config.mode not in (MODE_CLASSIFY, MODE_RETYPE):
        raise ConfigurationError(f"unknown mode {config.mode!r}")
    if config.granularity not in GRANULARITIES:
        raise ConfigurationError(f"unknown granularity {config.granularity!r}")
    if config.annotator_id < 0:
        raise ConfigurationError(f"annotator id must be >= 0, got {config.annotator_id}")


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


def _annotations(
    path: str | None, token_lists: list[tuple[str, ...]], which: str
) -> list[AnnotatedSentence]:
    """Annotate ``token_lists`` from the CoNLL-U file at ``path``, or with the fallback annotator."""
    conllu = None if path is None else read_input(path)
    return _annotations_text(conllu, token_lists, which)


def _annotations_text(
    conllu: str | None, token_lists: list[tuple[str, ...]], which: str
) -> list[AnnotatedSentence]:
    """Annotate ``token_lists`` from CoNLL-U text, or with the fallback annotator."""
    if conllu is None:
        return [fallback_annotate(tokens) for tokens in token_lists]
    sentences = parse_conllu(conllu)
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


# --- classify -------------------------------------------------------------

_Pair = tuple[tuple[str, ...], tuple[str, ...]]


class _Shard(NamedTuple):
    """Contiguous sentence pairs and the CoNLL-U text that annotates them.

    ``orig`` and ``cor`` are ``None`` when that side uses the fallback
    annotator.
    """

    pairs: list[_Pair]
    orig: str | None
    cor: str | None


def _read_pairs(inputs: PipelineInputs) -> list[_Pair]:
    if inputs.original is None or inputs.corrected is None:
        raise ConfigurationError("classify mode needs both the original and the corrected text")
    return read_parallel(inputs.original, inputs.corrected)


def _cut(config: PipelineConfig, pairs: list[_Pair], worker_count: int) -> list[_Shard]:
    """Cut the corpus into about four shards per worker.

    Returns no shards when a CoNLL-U file cannot be read or is not UTF-8,
    or does not hold one sentence per pair, so that typing the whole
    corpus reports the error in serial order.
    """
    size = max(1, len(pairs) // (worker_count * 4))
    firsts = range(0, len(pairs), size)
    try:
        orig = _pieces(config.conllu_orig_path, firsts, len(pairs))
        cor = _pieces(config.conllu_cor_path, firsts, len(pairs))
    except (OSError, IngestionError):
        return []
    if orig is None or cor is None:
        return []
    return [
        _Shard(pairs[first : first + size], orig_text, cor_text)
        for first, orig_text, cor_text in zip(firsts, orig, cor)
    ]


def _pieces(path: str | None, firsts: range, count: int) -> list[str | None] | None:
    """Cut a CoNLL-U file before each sentence index in ``firsts``.

    The first piece starts at the top of the text and the last runs to its
    end, so every line is parsed by exactly one piece.  ``None`` when the
    text does not hold ``count`` sentences.
    """
    if path is None:
        return [None] * len(firsts)
    conllu = read_input(path)
    starts = conllu_sentence_starts(conllu)
    if len(starts) != count:
        return None
    cuts = [0] + [starts[first] for first in firsts[1:]]
    return [conllu[cut:end] for cut, end in zip(cuts, cuts[1:] + [len(conllu)])]


def _classify_corpus(
    pairs: list[_Pair], wordlist: frozenset[str] | None, config: PipelineConfig
) -> list[M2Record]:
    """Type the whole corpus as one shard in this process.

    Each CoNLL-U file is read as it is parsed, so that only one file's text
    is held at a time.
    """
    sources = [src for src, _ in pairs]
    targets = [trg for _, trg in pairs]
    return _classify_pairs(
        pairs,
        _annotations(config.conllu_orig_path, sources, "original"),
        _annotations(config.conllu_cor_path, targets, "corrected"),
        wordlist,
        config,
    )


def _classify_shard(
    shard: _Shard, wordlist: frozenset[str] | None, config: PipelineConfig
) -> list[M2Record]:
    sources = [src for src, _ in shard.pairs]
    targets = [trg for _, trg in shard.pairs]
    return _classify_pairs(
        shard.pairs,
        _annotations_text(shard.orig, sources, "original"),
        _annotations_text(shard.cor, targets, "corrected"),
        wordlist,
        config,
    )


def _classify_pairs(
    pairs: list[_Pair],
    src_sentences: list[AnnotatedSentence],
    trg_sentences: list[AnnotatedSentence],
    wordlist: frozenset[str] | None,
    config: PipelineConfig,
) -> list[M2Record]:
    return [
        _classify_pair(src, trg, src_ann, trg_ann, wordlist, config)
        for (src, trg), src_ann, trg_ann in zip(pairs, src_sentences, trg_sentences)
    ]


def _classify_pair(
    src: tuple[str, ...],
    trg: tuple[str, ...],
    src_ann: AnnotatedSentence,
    trg_ann: AnnotatedSentence,
    wordlist: frozenset[str] | None,
    config: PipelineConfig,
) -> M2Record:
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
        parse_conllu(read_input(config.conllu_cor_path))
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
