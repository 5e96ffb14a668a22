"""End-to-end runs: classify parallel text, or retype an existing M2 file.

The inputs given choose the command.  With both texts, ``classify``
extracts edits from the parallel original/corrected corpus and types each
one.  With an M2 text alone, ``retype`` keeps the edits of the M2 file
untouched (spans, corrections, annotator ids, and any noop sentinels) and
only recomputes the type labels.

Both commands annotate each side the same way: from the CoNLL-U text of
that side when it is given (paired with sentences by position, and
checked token-by-token against the surface), and with the built-in
fallback annotator otherwise.  ``retype`` synthesises each annotator's
corrected sentence by applying their edits before it is annotated.  Both
commands then type their edits in one place, :func:`_type_edits`, the only
caller of :func:`classify_edit`: it renders each label and builds the
:class:`~serrant.m2.M2Edit`.

The library reads no file: every input is a text, and the wordlist is the
loaded set.  Both commands work on shards: a shard is a
:class:`PipelineInputs` of slices of the input texts that hold a
contiguous run of items (sentence pairs, or M2 records), with the CoNLL-U
lines that annotate them.  ``run(config, inputs, worker_count=1)`` cuts
every text at the same items, at each line of parallel text, each M2
sentence line and each CoNLL-U block that holds a sentence, into shards
of about :data:`_SHARD_CHARS` characters, and types them one at a time
in this process, or on worker processes when ``worker_count``, the
number of shards and the number of usable cores are all above 1.  Only
:func:`_type_shard` parses items, in a worker or in the parent.  A
``finish`` step given to ``run`` turns each shard's records into what the
caller keeps (the command line keeps M2 text and label counts) where the
shard was typed, so no run need hold the records of the whole corpus.

Each shard knows where it starts: the number of the first line of each
of its texts.  So every error names an input by its :class:`PipelineInputs`
field and a line of the whole text: the parsers name the line at fault,
and :func:`_type_shard` names the first line of an item that fails as a
whole, on the error path only.  Every input is typed once.  The
error a run raises is the first fault of the first shard that holds one,
in input order; within a shard, the first in :func:`_type_shard`'s stage
order.  When the texts hold different numbers of items, an input is at
fault, and the whole corpus is one shard.  When the pool cannot start
(on a platform without named semaphores too) or breaks (a worker dies),
the parent cuts the inputs again and types those shards one at a time
itself, so it still holds one shard's sentences and records at a time.
"""

from __future__ import annotations

import gc
import os
import re
from bisect import bisect_left
from collections import deque
from collections.abc import Callable, Iterator
from functools import partial
from typing import NamedTuple

from .alignment import Edit, align, merge
from .base import classify_base
from .combine import SerrantType, build_context, combine
from .errors import AttachmentError, ConfigurationError, IngestionError
from .errors import M2ValidationError, SerrantError
from .m2 import M2Edit, M2Record, apply_edits, parse_m2, read_parallel
from .sercl import ARROW_ASCII, ARROW_UNICODE, GRANULARITIES, GRANULARITY_UPOS, classify_sercl
from .ud import AnnotatedSentence, attach, fallback_annotate, parse_conllu


class PipelineConfig(NamedTuple):
    """The settings of a run; ``wordlist`` is a loaded one (:func:`~serrant.base.load_wordlist`)."""

    granularity: str = GRANULARITY_UPOS
    wordlist: frozenset[str] | None = None
    annotator_id: int = 0
    arrow: str = ARROW_ASCII


class PipelineInputs(NamedTuple):
    """Raw input texts; ``original``, ``corrected`` and ``m2`` given choose the command.

    Both ``original`` and ``corrected`` classify them; ``m2`` alone
    retypes it.  ``conllu_orig`` and ``conllu_cor`` annotate the original
    and the corrected side; a side without one uses the fallback annotator.
    """

    original: str | None = None
    corrected: str | None = None
    m2: str | None = None
    conllu_orig: str | None = None
    conllu_cor: str | None = None


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
    config: PipelineConfig,
    inputs: PipelineInputs,
    worker_count: int = 1,
    finish: Callable[[list[M2Record]], object] | None = None,
) -> list:
    """Run one full pass and return the resulting records, or what ``finish`` made of them.

    The inputs are typed shard by shard, in one pass over the shard plan:
    the parent cuts every text at the same items, without parsing any,
    into shards of about :data:`_SHARD_CHARS` characters (see :func:`_cut`),
    and slices each shard's texts only when that shard is typed.  With
    ``finish``, each shard's records go to ``finish(records)`` in the
    process that typed them, and
    ``run`` returns what it gave for each shard, in order, instead of the
    records; the records and the sentences of a shard are then dropped once
    it is finished.

    With ``worker_count`` above 1, two shards or more and two usable cores
    or more, the shards are typed by worker processes, at most one per
    usable core, each with the cyclic garbage collector off; otherwise they
    are typed in this process, one at a time, from a fresh cut when the
    pool cannot start (on a platform without named semaphores too) or a
    worker dies.  Output is identical for any worker count and any shard
    plan.  On bad input, the error raised is that of the first shard, in
    input order, that fails, and each shard names the lines of the whole
    input, so the error is the same for any worker count;
    shards after it are not typed, or their results are dropped.
    """
    if worker_count < 1:
        raise ConfigurationError(f"worker count must be >= 1, got {worker_count}")
    _check_config(config)
    task = partial(_type_shard, retype=_is_retype(inputs), config=config, finish=finish)
    count, shards = _cut(inputs)
    workers = min(worker_count, count, _usable_cores())
    parts = _type_on_pool(task, shards, workers) if workers > 1 else None
    if parts is None:
        if workers > 1:  # the pool could not start or broke, and took part of the plan
            _, shards = _cut(inputs)
        parts = [task(shard) for shard in shards]
    return parts if finish is not None else [record for records in parts for record in records]


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


def _sentences(shard: _Shard, field: str, items: str, count: int) -> list:
    """The sentences of the shard's CoNLL-U text ``field``, one for each of ``count`` items.

    Gives ``None`` for each item when there is no text.  When the counts
    differ, the error names the text with more, ``field`` or the items'
    text ``items``, at its first item the other lacks.
    """
    text = getattr(shard.texts, field)
    if text is None:
        return [None] * count
    sentences = parse_conllu(text, getattr(shard.lines, field), field)
    if len(sentences) != count:
        side = "original" if field == "conllu_orig" else "corrected"
        longer = field if len(sentences) > count else items
        error = IngestionError(f"{side} annotations: {len(sentences)} sentences for {count} inputs")
        raise _located(error, shard, longer, min(len(sentences), count))
    return sentences


def _annotate(sentence: AnnotatedSentence | None, tokens: tuple[str, ...]) -> AnnotatedSentence:
    """Attach ``sentence`` to ``tokens``, or annotate them with the fallback annotator."""
    return fallback_annotate(tokens) if sentence is None else attach(sentence, tokens)


# --- shards ---------------------------------------------------------------

_Pair = tuple[tuple[str, ...], tuple[str, ...]]


class _Shard(NamedTuple):
    """A contiguous run of items: the slices of the texts that hold them, and where they start.

    ``lines`` holds the number of the first line of each slice in its text
    (1 where there is no text).
    """

    texts: PipelineInputs
    lines: PipelineInputs


# what a run does with each shard: type it, and finish its records
_Task = Callable[[_Shard], object]


def _type_on_pool(task: _Task, shards: Iterator[_Shard], workers: int) -> list | None:
    """Apply ``task`` to each shard on ``workers`` processes; raise what a shard raises.

    Returns None when the pool cannot start or breaks.  Only a few shards
    more than there are workers are sliced and queued at a time, and on a
    failure the queued ones are dropped, not typed.
    """
    # imported here, so that a serial run does not load multiprocessing
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    # The platform's default start method: "spawn" would re-run the caller's
    # main module in every worker, which breaks scripts that call this
    # without an ``if __name__ == "__main__"`` guard.  The task, the config's
    # wordlist included, goes to each worker once; each shard sends only its texts.
    try:
        executor = ProcessPoolExecutor(workers, initializer=_start_worker, initargs=(task,))
        try:
            queued = deque()
            parts = []
            for shard in shards:
                queued.append(executor.submit(_run_in_worker, shard))
                if len(queued) > 2 * workers:
                    parts.append(queued.popleft().result())
            parts.extend(future.result() for future in queued)
            return parts
        finally:
            executor.shutdown(cancel_futures=True)
    except (OSError, NotImplementedError, BrokenExecutor):  # the pool's own failures
        return None


# the task a worker process runs on each of its shards, set by _start_worker
_worker_task: _Task | None = None


def _start_worker(task: _Task) -> None:
    """Set up a worker process: keep ``task`` for its shards and switch the collector off.

    A shard builds no reference cycles, so workers skip the collector.
    """
    global _worker_task
    gc.disable()  # kept: CHANGES.md verdict row `gc.disable()`
    _worker_task = task


def _run_in_worker(shard: _Shard) -> object:
    """Type ``shard`` with the task :func:`_start_worker` kept in this worker."""
    return _worker_task(shard)


# The most input characters a shard holds, about.  A run holds the sentences
# and records of one shard at a time, so this bounds the memory they take.
# It is also the size below which a corpus is one shard, typed in the parent
# whatever the worker count: a pool costs more than it saves there.
_SHARD_CHARS = 500_000

# Where the items of each text start, by its field: where the cut may fall, and
# the first line an error names for an item at fault.  Items start at each
# line of parallel text, at the sentence line of each M2 record, and at each
# CoNLL-U block whose first word, past comments, ranges and empty nodes, has id
# 1.  Each is three patterns: the blank lines before the first item that hold
# none, what comes before each later item, and the start of an item.  In a text
# its parser accepts, they find exactly the items it parses.
_TEXT_ITEM = ("", r"\n", r"[\s\S]")
_M2_ITEM = ("", r"\n", r"S(?: |\r?(?m:$))")
_CONLLU_ITEM = (r"(?:[^\S\n]*\n)*", r"\n(?:[^\S\n]*\n)+", r"(?:#.*\n|[0-9]+[-.][0-9]+\t.*\n)*0*1\t")
_ITEMS = PipelineInputs(_TEXT_ITEM, _TEXT_ITEM, _M2_ITEM, _CONLLU_ITEM, _CONLLU_ITEM)


def _cut(inputs: PipelineInputs) -> tuple[int, Iterator[_Shard]]:
    """Cut every text at the same items into shards of about :data:`_SHARD_CHARS` characters.

    Returns the number of shards, and an iterator that slices each shard's
    texts when it is reached and gives it its origin: the number of the
    first line of each slice, counted from the slices before it.  The
    characters of all texts count, and each shard starts at the first item
    whose texts start at or past its share of them.  Nothing is parsed:
    each text is cut at the first line of an item (:data:`_ITEMS`), which
    its parser counts as one item wherever the text is well formed.  So
    when the texts hold the same number of items, each shard's slices hold
    the same items; when they do not, an input is at fault, and the plan
    is one shard, the whole corpus, which then fails as a single pass does.
    """
    texts = list(inputs)
    starts = [None if text is None else _starts(text, item) for text, item in zip(texts, _ITEMS)]
    given = [text_starts for text_starts in starts if text_starts is not None]
    counts = {len(text_starts) for text_starts in given}
    if len(counts) != 1:  # an input is at fault: one shard, the whole corpus
        return 1, iter([_Shard(inputs, PipelineInputs(1, 1, 1, 1, 1))])
    count = counts.pop()
    total = sum(len(text) for text in texts if text is not None)
    shares = -(-total // _SHARD_CHARS)

    def chars_before(item: int) -> int:
        return sum(text_starts[item] for text_starts in given)

    firsts = {
        bisect_left(range(count), total * share // shares, key=chars_before)
        for share in range(shares)
    }
    # a share past the last item's start starts no shard; a text of no item is one shard
    firsts = sorted(firsts - {count}) or [0]
    cuts = [
        None if text is None else [0, *(text_starts[first] for first in firsts[1:]), len(text)]
        for text, text_starts in zip(texts, starts)
    ]
    return len(firsts), _slices(texts, cuts, len(firsts))


def _starts(text: str, item: tuple[str, str, str]) -> list[int]:
    """Where the items of ``text`` start, found with ``item``'s patterns (see :data:`_ITEMS`)."""
    top, before, first = item
    lead = re.match(top, text).end()
    starts = [match.end() for match in re.compile(rf"{before}(?={first})").finditer(text, lead)]
    return [lead, *starts] if re.compile(first).match(text, lead) else starts


def _slices(
    texts: list[str | None], cuts: list[list[int] | None], count: int
) -> Iterator[_Shard]:
    """Yield ``count`` shards, each text cut at its offsets in ``cuts``.

    A text's offsets are where its shards start, then its end: the first
    shard starts at the top of the text and the last runs to its end, so
    every line is parsed by exactly one shard.  Each slice's first line is
    the line after those of the slices before it.
    """
    lines = [1] * len(texts)
    for shard in range(count):
        pieces = [text and text[cut[shard] : cut[shard + 1]] for text, cut in zip(texts, cuts)]
        yield _Shard(PipelineInputs._make(pieces), PipelineInputs._make(lines))
        lines = [line + (piece or "").count("\n") for line, piece in zip(lines, pieces)]


def _type_shard(
    shard: _Shard,
    retype: bool,
    config: PipelineConfig,
    finish: Callable[[list[M2Record]], object] | None = None,
) -> object:
    """Parse a shard's items and type them in order, each with :func:`_retype_record`
    or :func:`_classify_pair`; return the records, or what ``finish`` makes of them.

    This is the only place that parses items, in a worker or in the
    parent, and it numbers lines from the shard's origin.  Its stages run
    in this order, and the first fault raises: the items are parsed, the
    original CoNLL-U is parsed and every original sentence annotated, the
    corrected CoNLL-U is parsed, each item is typed in turn (attaching its
    own corrected sentence), and ``finish`` runs.

    The parsers name the line at fault.  A fault of a whole item names the
    first line of the item: an attachment, that of its CoNLL-U block; any
    other (edits that do not apply, a record of several annotators with
    corrected CoNLL-U, a record ``finish`` rejects), that of its line of
    original text or its M2 sentence line.
    """
    texts, lines = shard
    if retype:
        items, type_item, fields = parse_m2(texts.m2, lines.m2), _retype_record, ("m2", "m2")
    else:
        items = read_parallel(texts.original, texts.corrected, lines.original)
        type_item, fields = _classify_pair, ("original", "corrected")
    sources = [item[0] for item in items]  # the source tokens of a record and of a pair
    orig_sentences = _sentences(shard, "conllu_orig", fields[0], len(sources))
    src_sentences = []
    try:
        for sentence, tokens in zip(orig_sentences, sources):
            src_sentences.append(_annotate(sentence, tokens))
    except AttachmentError as exc:
        raise _located(exc, shard, "conllu_orig", len(src_sentences)) from None
    cor_sentences = _sentences(shard, "conllu_cor", fields[1], len(sources))
    records = []
    try:
        for item, src_sentence, cor_sentence in zip(items, src_sentences, cor_sentences):
            records.append(type_item(item, src_sentence, cor_sentence, config))
    except SerrantError as exc:
        field = "conllu_cor" if isinstance(exc, AttachmentError) else fields[0]
        raise _located(exc, shard, field, len(records)) from None
    if finish is None:
        return records
    try:
        return finish(records)
    except SerrantError as exc:
        # the record at fault is the first that fails alone
        for index, record in enumerate(records):
            try:
                finish([record])
            except SerrantError:
                raise _located(exc, shard, fields[0], index) from None
        raise


def _located(error: SerrantError, shard: _Shard, field: str, item: int) -> SerrantError:
    """``error`` again, naming input ``field`` at the first line of the shard's ``item``-th item.

    The line is found from the item starts of the cut (:data:`_ITEMS`), on
    the error path only.
    """
    text = getattr(shard.texts, field)
    start = _starts(text, getattr(_ITEMS, field))[item]
    line = getattr(shard.lines, field) + text.count("\n", 0, start)
    return type(error)(error.message, field, line)


# --- typing one item ------------------------------------------------------


def _classify_pair(
    pair: _Pair,
    src_sentence: AnnotatedSentence,
    cor_sentence: AnnotatedSentence | None,
    config: PipelineConfig,
) -> M2Record:
    """Align one pair and type its edits.

    ``cor_sentence`` is the unattached corrected CoNLL-U sentence.
    """
    src, trg = pair
    trg_sentence = _annotate(cor_sentence, trg)
    ops = align(src, trg, src_lemmas=src_sentence.lemmas, trg_lemmas=trg_sentence.lemmas)
    edits = merge(ops, src, trg)
    typed = _type_edits(edits, src_sentence, trg_sentence, config, config.annotator_id)
    return M2Record(src, typed)


def _retype_record(
    record: M2Record,
    src_sentence: AnnotatedSentence,
    cor_sentence: AnnotatedSentence | None,
    config: PipelineConfig,
) -> M2Record:
    """Retype one record; ``cor_sentence`` is the unattached corrected CoNLL-U sentence."""
    source_tokens, edits = record
    by_annotator: dict[int, list[int]] = {}
    for position, (span, _, annotator_id) in enumerate(edits):
        if not span.is_noop:
            by_annotator.setdefault(annotator_id, []).append(position)

    if cor_sentence is not None and len(by_annotator) > 1:
        raise ConfigurationError(
            f"corrected annotations cannot be paired with {len(by_annotator)} annotators;"
            " drop the corrected CoNLL-U input"
        )

    new_edits = list(edits)
    for annotator_id, positions in by_annotator.items():
        spans = [edits[p].span for p in positions]
        try:
            cor_tokens, cor_starts = apply_edits(source_tokens, spans)
        except ValueError as exc:
            raise M2ValidationError(str(exc)) from None
        trg_sentence = _annotate(cor_sentence, cor_tokens)
        annotator_edits = [
            Edit(span, source_tokens[span.start : span.end], cor_start)
            for span, cor_start in zip(spans, cor_starts)
        ]
        typed = _type_edits(annotator_edits, src_sentence, trg_sentence, config, annotator_id)
        for position, m2_edit in zip(positions, typed):
            new_edits[position] = m2_edit
    return M2Record(source_tokens, tuple(new_edits))


def _type_edits(
    edits: list[Edit],
    src_sentence: AnnotatedSentence,
    trg_sentence: AnnotatedSentence,
    config: PipelineConfig,
    annotator_id: int,
) -> tuple[M2Edit, ...]:
    """Type each edit and render its label: the one place both commands type edits."""
    m2_edits = []
    for edit in edits:
        typed = classify_edit(edit, src_sentence, trg_sentence, config.wordlist, config.granularity)
        m2_edits.append(M2Edit(edit.span, typed.render(config.arrow), annotator_id))
    return tuple(m2_edits)
