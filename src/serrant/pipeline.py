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
every text at the same items, after line ends of parallel text and after
blank lines of M2 and CoNLL-U, into shards of about :data:`_SHARD_CHARS`
characters, and types them one at a time in this process, or on worker
processes when ``worker_count``, the number of shards and the number of
usable cores are all above 1.  Only :func:`_type_shard` parses items, in
a worker or in the parent.  A ``finish`` step given to ``run`` turns each
shard's records into what the caller keeps (the command line keeps M2
text and label counts) where the shard was typed, so no run need hold the
records of the whole corpus.

A shard plan has two fail-overs.  When the pool cannot start (on a
platform without named semaphores too) or breaks (a worker dies), the
parent cuts the inputs again and types those shards one at a time itself,
so it still holds one shard's sentences and records at a time.  When the
cut fails (the texts hold different numbers of items) or a shard raises
an error, ``run`` types the whole corpus as one shard and returns or
raises what that gives, the serial result or error.
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
from .errors import (
    AttachmentError,
    ConfigurationError,
    IngestionError,
    M2ValidationError,
    SerrantError,
)
from .m2 import M2Edit, M2Record, apply_edits, parse_m2, read_parallel
from .sercl import ARROW_ASCII, ARROW_UNICODE, GRANULARITIES, GRANULARITY_UPOS, classify_sercl
from .ud import BLANK_LINES, AnnotatedSentence, attach, fallback_annotate, parse_conllu


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

    The inputs are typed shard by shard: the parent cuts every text at the
    same items, without parsing any, into shards of about
    :data:`_SHARD_CHARS` characters, and slices each shard's texts only
    when that shard is typed.  With ``finish``, each shard's records go to
    ``finish`` in the process that typed them, and ``run`` returns what it
    gave for each shard, in order, instead of the records; the records and
    the sentences of a shard are then dropped once it is finished.

    With ``worker_count`` above 1, two shards or more and two usable cores
    or more, the shards are typed by worker processes, at most one per
    usable core, each with the cyclic garbage collector off; otherwise they
    are typed in this process, as they are when the pool cannot start (on
    a platform without named semaphores too) or a worker dies.  Output is
    identical for any worker count and any shard plan, and so is the error
    raised on bad input: when the texts hold different numbers of items or
    a shard raises an error, this function catches it, types and finishes
    the whole corpus as one shard itself, and returns or raises what that
    does.
    """
    if worker_count < 1:
        raise ConfigurationError(f"worker count must be >= 1, got {worker_count}")
    _check_config(config)
    task = partial(_type_shard, retype=_is_retype(inputs), config=config, finish=finish)
    try:
        parts = _type_shards(task, inputs, worker_count)
    except SerrantError:
        # The whole corpus is typed once this handler has ended and freed the
        # failed plan's shards (see _type_shards).
        parts = None
    if parts is None:
        parts = [task(inputs)]
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

# what a run does with each shard: type it, and finish its records
_Task = Callable[[PipelineInputs], object]


def _type_shards(task: _Task, inputs: PipelineInputs, worker_count: int) -> list:
    """Cut the inputs into shards and return what ``task`` gives for each, in order.

    The shards go to ``min(worker_count, shards, usable cores)`` worker
    processes when that is above 1; otherwise, or when the pool cannot
    start or breaks, this process types them one at a time, from a fresh
    cut.  Raises what the cut or a shard raises.
    """
    # A function of its own: its frame holds the shard being typed, and is
    # freed with the exception once the handler in run ends.
    count, shards = _cut(inputs)
    workers = min(worker_count, count, _usable_cores())
    if workers > 1:
        parts = _type_on_pool(task, shards, workers)
        if parts is not None:
            return parts
        _, shards = _cut(inputs)
    return [task(shard) for shard in shards]


def _type_on_pool(task: _Task, shards: Iterator[PipelineInputs], workers: int) -> list | None:
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
    gc.disable()
    _worker_task = task


def _run_in_worker(shard: PipelineInputs) -> object:
    """Type ``shard`` with the task :func:`_start_worker` kept in this worker."""
    return _worker_task(shard)


# The most input characters a shard holds, about.  A run holds the sentences
# and records of one shard at a time, so this bounds the memory they take.
# It is also the size below which a corpus is one shard, typed in the parent
# whatever the worker count: a pool costs more than it saves there.
_SHARD_CHARS = 500_000

# where the next item starts: after a line end of parallel text, and after
# blank lines in M2 and CoNLL-U
_LINE_END = re.compile("\n")


def _cut(inputs: PipelineInputs) -> tuple[int, Iterator[PipelineInputs]]:
    """Cut every text at the same items into shards of about :data:`_SHARD_CHARS` characters.

    Returns the number of shards, and an iterator that slices each shard's
    texts when it is reached.  The characters of all texts count, and each
    shard starts at the first item whose texts start at or past its share
    of them.  Nothing is parsed: an item is a line of parallel text, or a
    block of M2 or CoNLL-U text.  A block that is not one item (a CoNLL-U
    block that holds no word, M2 records not separated by blank lines)
    makes the counts of two texts disagree, and then the cut, or the count
    check of the shard that holds it, fails.

    Raises:
        IngestionError: when the texts hold different numbers of items.
    """
    texts = list(inputs)
    item_ends = (_LINE_END, _LINE_END, BLANK_LINES, BLANK_LINES, BLANK_LINES)
    starts = [None if text is None else _starts(text, end) for text, end in zip(texts, item_ends)]
    given = [text_starts for text_starts in starts if text_starts is not None]
    counts = {len(text_starts) for text_starts in given}
    if len(counts) != 1:
        raise IngestionError(f"the inputs hold different numbers of items: {sorted(counts)}")
    count = counts.pop()
    total = sum(len(text) for text in texts if text is not None)
    shares = -(-total // _SHARD_CHARS)

    def chars_before(item: int) -> int:
        return sum(text_starts[item] for text_starts in given)

    firsts = {
        bisect_left(range(count), total * share // shares, key=chars_before)
        for share in range(shares)
    }
    firsts = sorted(firsts - {count})  # a share past the last item's start starts no shard
    cuts = [
        None if text is None else [0, *(text_starts[first] for first in firsts[1:]), len(text)]
        for text, text_starts in zip(texts, starts)
    ]
    return len(firsts), _slices(texts, cuts, len(firsts))


def _starts(text: str, item_end: re.Pattern[str]) -> list[int]:
    """Where the items of ``text`` start: at 0, and after each ``item_end`` that text follows."""
    starts = [0, *(match.end() for match in item_end.finditer(text))]
    if starts[-1] == len(text):
        starts.pop()
    return starts


def _slices(
    texts: list[str | None], cuts: list[list[int] | None], count: int
) -> Iterator[PipelineInputs]:
    """Yield ``count`` shards one at a time, each text cut at its offsets in ``cuts``.

    A text's offsets are where its shards start, then its end: the first
    shard starts at the top of the text and the last runs to its end, so
    every line is parsed by exactly one shard.
    """
    for shard in range(count):
        yield PipelineInputs._make(
            None if text is None else text[text_cuts[shard] : text_cuts[shard + 1]]
            for text, text_cuts in zip(texts, cuts)
        )


def _type_shard(
    shard: PipelineInputs,
    retype: bool,
    config: PipelineConfig,
    finish: Callable[[list[M2Record]], object] | None = None,
) -> object:
    """Parse a shard's items and type them in order, each with :func:`_retype_record`
    or :func:`_classify_pair`; return the records, or what ``finish`` makes of them.

    This is the only place that parses items, in a worker or in the
    parent.  Every original sentence is annotated, and then the corrected
    CoNLL-U is parsed, before any item is typed; each item attaches its own
    corrected sentence.
    """
    if retype:
        items = parse_m2(shard.m2)
        type_item, sources = _retype_record, [record.source_tokens for record in items]
    else:
        items = read_parallel(shard.original, shard.corrected)
        type_item, sources = _classify_pair, [src for src, _ in items]
    src_sentences = [
        _annotate(sentence, tokens, "original", index)
        for index, (sentence, tokens) in enumerate(
            zip(_sentences(shard.conllu_orig, len(sources), "original"), sources)
        )
    ]
    cor_sentences = _sentences(shard.conllu_cor, len(sources), "corrected")
    records = [
        type_item(item, src_sentence, cor_sentence, config, index)
        for index, (item, src_sentence, cor_sentence) in enumerate(
            zip(items, src_sentences, cor_sentences)
        )
    ]
    return records if finish is None else finish(records)


# --- typing one item ------------------------------------------------------


def _classify_pair(
    pair: _Pair,
    src_sentence: AnnotatedSentence,
    cor_sentence: AnnotatedSentence | None,
    config: PipelineConfig,
    index: int,
) -> M2Record:
    """Align one pair and type its edits.

    ``cor_sentence`` is the unattached corrected CoNLL-U sentence.
    """
    src, trg = pair
    trg_sentence = _annotate(cor_sentence, trg, "corrected", index)
    ops = align(src, trg, src_lemmas=src_sentence.lemmas, trg_lemmas=trg_sentence.lemmas)
    edits = merge(ops, src, trg)
    typed = _type_edits(edits, src_sentence, trg_sentence, config, config.annotator_id)
    return M2Record(src, typed)


def _retype_record(
    record: M2Record,
    src_sentence: AnnotatedSentence,
    cor_sentence: AnnotatedSentence | None,
    config: PipelineConfig,
    record_index: int,
) -> M2Record:
    """Retype one record; ``cor_sentence`` is the unattached corrected CoNLL-U sentence."""
    source_tokens, edits = record
    by_annotator: dict[int, list[int]] = {}
    for position, (span, _, annotator_id) in enumerate(edits):
        if not span.is_noop:
            by_annotator.setdefault(annotator_id, []).append(position)

    if cor_sentence is not None and len(by_annotator) > 1:
        raise ConfigurationError(
            f"record {record_index}: corrected annotations cannot be paired with"
            f" {len(by_annotator)} annotators; drop the corrected CoNLL-U input"
        )

    new_edits = list(edits)
    for annotator_id, positions in by_annotator.items():
        spans = [edits[p].span for p in positions]
        try:
            cor_tokens, cor_starts = apply_edits(source_tokens, spans)
        except ValueError as exc:
            raise M2ValidationError(record_index, str(exc)) from None
        trg_sentence = _annotate(cor_sentence, cor_tokens, "corrected", record_index)
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
