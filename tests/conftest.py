"""Shared fixtures: hand-annotated sentence pairs with pinned expected types.

Every golden pair carries its own CoNLL-U rows so expected labels never
depend on an external tagger.  Rows are (form, lemma, upos, feats, head,
deprel) with 1-based heads and 0 for the root, exactly as CoNLL-U writes
them.
"""

from __future__ import annotations

import concurrent.futures
import gc
from pathlib import Path
from types import SimpleNamespace

import pytest

from serrant import pipeline
from serrant.pipeline import PipelineConfig, PipelineInputs


Row = tuple[str, str, str, str, int, str]


def conllu_block(rows: list[Row]) -> str:
    lines = []
    for i, (form, lemma, upos, feats, head, deprel) in enumerate(rows, start=1):
        lines.append(
            "\t".join([str(i), form, lemma, upos, "_", feats or "_", str(head), deprel, "_", "_"])
        )
    return "\n".join(lines)


def conllu_file(blocks: list[list[Row]]) -> str:
    return "\n\n".join(conllu_block(rows) for rows in blocks) + "\n"


class GoldenPair:
    def __init__(
        self,
        orig_rows: list[Row],
        cor_rows: list[Row],
        expected: list[tuple[int, int, str]],
    ) -> None:
        self.orig_rows = orig_rows
        self.cor_rows = cor_rows
        self.expected = expected

    @property
    def orig_tokens(self) -> list[str]:
        return [row[0] for row in self.orig_rows]

    @property
    def cor_tokens(self) -> list[str]:
        return [row[0] for row in self.cor_rows]


# the flagship walk-through: spelling, proper noun, casing, derivation,
# word choice, deletion, modal
GOLDEN_FLAGSHIP = [
    GoldenPair(
        orig_rows=[
            ("I", "i", "PRON", "", 2, "nsubj"),
            ("werk", "werk", "NOUN", "Number=Sing", 0, "root"),
            ("for", "for", "ADP", "", 4, "case"),
            ("pen", "pen", "NOUN", "Number=Sing", 2, "obl"),
        ],
        cor_rows=[
            ("I", "i", "PRON", "", 2, "nsubj"),
            ("work", "work", "VERB", "Tense=Pres", 0, "root"),
            ("for", "for", "ADP", "", 4, "case"),
            ("Pen", "pen", "PROPN", "Number=Sing", 2, "obl"),
        ],
        expected=[(1, 2, "R:Spell"), (3, 4, "R:Noun->Propn")],
    ),
    GoldenPair(
        orig_rows=[
            ("gilly", "gilly", "NOUN", "Number=Sing", 3, "nsubj"),
            ("is", "be", "AUX", "Number=Sing|Person=3|Tense=Pres", 3, "cop"),
            ("imagination", "imagination", "NOUN", "Number=Sing", 0, "root"),
        ],
        cor_rows=[
            ("Gilly", "gilly", "PROPN", "Number=Sing", 3, "nsubj"),
            ("is", "be", "AUX", "Number=Sing|Person=3|Tense=Pres", 3, "aux"),
            ("imagining", "imagine", "VERB", "VerbForm=Ger", 0, "root"),
        ],
        expected=[(0, 1, "R:Orth"), (2, 3, "R:Noun->Verb")],
    ),
    GoldenPair(
        orig_rows=[
            ("I", "i", "PRON", "", 2, "nsubj"),
            ("drive", "drive", "VERB", "Tense=Pres", 0, "root"),
            ("a", "a", "DET", "", 4, "det"),
            ("bicycle", "bicycle", "NOUN", "Number=Sing", 2, "obj"),
            (".", ".", "PUNCT", "", 2, "punct"),
        ],
        cor_rows=[
            ("I", "i", "PRON", "", 2, "nsubj"),
            ("ride", "ride", "VERB", "Tense=Pres", 0, "root"),
            ("a", "a", "DET", "", 4, "det"),
            ("bicycle", "bicycle", "NOUN", "Number=Sing", 2, "obj"),
            (".", ".", "PUNCT", "", 2, "punct"),
        ],
        expected=[(1, 2, "R:Verb:WC")],
    ),
    GoldenPair(
        orig_rows=[
            ("I", "i", "PRON", "", 2, "nsubj"),
            ("ride", "ride", "VERB", "Tense=Pres", 0, "root"),
            ("the", "the", "DET", "", 5, "det"),
            ("my", "my", "PRON", "Poss=Yes", 5, "nmod"),
            ("bicycle", "bicycle", "NOUN", "Number=Sing", 2, "obj"),
            (".", ".", "PUNCT", "", 2, "punct"),
        ],
        cor_rows=[
            ("I", "i", "PRON", "", 2, "nsubj"),
            ("ride", "ride", "VERB", "Tense=Pres", 0, "root"),
            ("my", "my", "PRON", "Poss=Yes", 4, "nmod"),
            ("bicycle", "bicycle", "NOUN", "Number=Sing", 2, "obj"),
            (".", ".", "PUNCT", "", 2, "punct"),
        ],
        expected=[(2, 3, "U:Det")],
    ),
    GoldenPair(
        orig_rows=[
            ("I", "i", "PRON", "", 3, "nsubj"),
            ("should", "should", "AUX", "", 3, "aux"),
            ("do", "do", "VERB", "VerbForm=Inf", 0, "root"),
            ("as", "as", "ADV", "", 3, "advmod"),
            ("as", "as", "SCONJ", "", 7, "mark"),
            ("I", "i", "PRON", "", 7, "nsubj"),
            ("must", "must", "AUX", "", 3, "advcl"),
            (".", ".", "PUNCT", "", 3, "punct"),
        ],
        cor_rows=[
            ("I", "i", "PRON", "", 3, "nsubj"),
            ("shall", "shall", "AUX", "", 3, "aux"),
            ("do", "do", "VERB", "VerbForm=Inf", 0, "root"),
            ("as", "as", "ADV", "", 3, "advmod"),
            ("as", "as", "SCONJ", "", 7, "mark"),
            ("I", "i", "PRON", "", 7, "nsubj"),
            ("must", "must", "AUX", "", 3, "advcl"),
            (".", ".", "PUNCT", "", 3, "punct"),
        ],
        expected=[(1, 2, "R:Modal")],
    ),
]

# one pair per combination rule corner
GOLDEN_RULES = [
    GoldenPair(  # word choice: same tag, different lemma
        orig_rows=[
            ("they", "they", "PRON", "", 2, "nsubj"),
            ("consume", "consume", "VERB", "Tense=Pres", 0, "root"),
            ("food", "food", "NOUN", "Number=Sing", 2, "obj"),
        ],
        cor_rows=[
            ("they", "they", "PRON", "", 2, "nsubj"),
            ("eat", "eat", "VERB", "Tense=Pres", 0, "root"),
            ("food", "food", "NOUN", "Number=Sing", 2, "obj"),
        ],
        expected=[(1, 2, "R:Verb:WC")],
    ),
    GoldenPair(  # inflection of one lemma: no word-choice suffix
        orig_rows=[
            ("I", "i", "PRON", "", 2, "nsubj"),
            ("eat", "eat", "VERB", "Tense=Pres", 0, "root"),
            ("it", "it", "PRON", "", 2, "obj"),
        ],
        cor_rows=[
            ("I", "i", "PRON", "", 2, "nsubj"),
            ("ate", "eat", "VERB", "Tense=Past", 0, "root"),
            ("it", "it", "PRON", "", 2, "obj"),
        ],
        expected=[(1, 2, "R:Verb")],
    ),
    GoldenPair(  # same lemma crossing from noun to verb
        orig_rows=[
            ("they", "they", "PRON", "", 2, "nsubj"),
            ("trap", "trap", "NOUN", "Number=Sing", 0, "root"),
            ("mice", "mouse", "NOUN", "Number=Plur", 2, "obj"),
        ],
        cor_rows=[
            ("they", "they", "PRON", "", 2, "nsubj"),
            ("trapped", "trap", "VERB", "Tense=Past", 0, "root"),
            ("mice", "mouse", "NOUN", "Number=Plur", 2, "obj"),
        ],
        expected=[(1, 2, "R:Noun->Verb")],
    ),
    GoldenPair(  # pronoun/determiner cross
        orig_rows=[
            ("these", "this", "PRON", "Number=Plur", 2, "det"),
            ("books", "book", "NOUN", "Number=Plur", 4, "nsubj"),
            ("are", "be", "AUX", "Tense=Pres", 4, "cop"),
            ("here", "here", "ADV", "", 0, "root"),
        ],
        cor_rows=[
            ("their", "they", "DET", "Poss=Yes", 2, "det"),
            ("books", "book", "NOUN", "Number=Plur", 4, "nsubj"),
            ("are", "be", "AUX", "Tense=Pres", 4, "cop"),
            ("here", "here", "ADV", "", 0, "root"),
        ],
        expected=[(0, 1, "R:Pron->Det")],
    ),
    GoldenPair(  # recapitalisation into a proper noun, mid-sentence
        orig_rows=[
            ("He", "he", "PRON", "", 2, "nsubj"),
            ("founded", "found", "VERB", "Tense=Past", 0, "root"),
            ("apple", "apple", "NOUN", "Number=Sing", 2, "obj"),
            (".", ".", "PUNCT", "", 2, "punct"),
        ],
        cor_rows=[
            ("He", "he", "PRON", "", 2, "nsubj"),
            ("founded", "found", "VERB", "Tense=Past", 0, "root"),
            ("Apple", "apple", "PROPN", "Number=Sing", 2, "obj"),
            (".", ".", "PUNCT", "", 2, "punct"),
        ],
        expected=[(2, 3, "R:Noun->Propn")],
    ),
    GoldenPair(  # deleted verb keeps only the surviving tag
        orig_rows=[
            ("we", "we", "PRON", "", 2, "nsubj"),
            ("eat", "eat", "VERB", "Tense=Pres", 0, "root"),
            ("now", "now", "ADV", "", 2, "advmod"),
        ],
        cor_rows=[
            ("we", "we", "PRON", "", 2, "nsubj"),
            ("now", "now", "ADV", "", 0, "root"),
        ],
        expected=[(1, 2, "U:Verb")],
    ),
]

GOLDEN_ALL = GOLDEN_FLAGSHIP + GOLDEN_RULES


def golden_wordlist_words() -> set[str]:
    words = set()
    for pair in GOLDEN_ALL:
        for row in pair.orig_rows + pair.cor_rows:
            if row[2] != "PUNCT" and row[0] != "werk":
                words.add(row[0].lower())
    return words


def golden_config(**settings) -> PipelineConfig:
    """A config with the golden wordlist and ``settings``."""
    return PipelineConfig(wordlist=frozenset(golden_wordlist_words()), **settings)


def golden_inputs(pairs: list[GoldenPair], m2: str | None = None) -> PipelineInputs:
    """Both CoNLL-U texts of ``pairs``, with their parallel texts, or with ``m2`` when given."""
    conllu = {
        "conllu_orig": conllu_file([p.orig_rows for p in pairs]),
        "conllu_cor": conllu_file([p.cor_rows for p in pairs]),
    }
    if m2 is not None:
        return PipelineInputs(m2=m2, **conllu)
    return PipelineInputs(
        original="\n".join(" ".join(p.orig_tokens) for p in pairs) + "\n",
        corrected="\n".join(" ".join(p.cor_tokens) for p in pairs) + "\n",
        **conllu,
    )


# the file each text of golden_inputs is written to, by its key in write_golden_corpus
_GOLDEN_FILES = {
    "orig": ("orig.txt", "original"),
    "cor": ("cor.txt", "corrected"),
    "conllu_orig": ("orig.conllu", "conllu_orig"),
    "conllu_cor": ("cor.conllu", "conllu_cor"),
}


def write_golden_corpus(tmp_path: Path, pairs: list[GoldenPair]) -> dict[str, str]:
    """Write parallel text and both CoNLL-U files; return their paths."""
    inputs = golden_inputs(pairs)
    paths = {}
    for key, (name, field) in _GOLDEN_FILES.items():
        (tmp_path / name).write_text(getattr(inputs, field), encoding="utf-8")
        paths[key] = str(tmp_path / name)
    return paths


# A shard budget small enough that test corpora of a few dozen items make
# many shards: under the real budget, a corpus that small is one shard,
# typed in the parent whatever the worker count.
SMALL_SHARD_CHARS = 500


@pytest.fixture
def small_shards(monkeypatch):
    """Cut shards of about :data:`SMALL_SHARD_CHARS` characters (the parent cuts; workers type)."""
    monkeypatch.setattr(pipeline, "_SHARD_CHARS", SMALL_SHARD_CHARS)


def record_pools(monkeypatch) -> list[int]:
    """Wrap ``pipeline._type_on_pool``; the list returned gets each started pool's worker count."""
    pools = []
    type_on_pool = pipeline._type_on_pool

    def recording(task, shards, workers):
        pools.append(workers)
        return type_on_pool(task, shards, workers)

    monkeypatch.setattr(pipeline, "_type_on_pool", recording)
    return pools


@pytest.fixture
def in_process_pool(monkeypatch, small_shards):
    """Stand in for concurrent.futures.ProcessPoolExecutor, typing each shard in this process.

    Shards are cut small (:func:`small_shards`), so that small corpora
    reach the pool, and the process may use four cores, whatever the
    machine has; a test that needs another count patches
    ``os.sched_getaffinity`` again.  Each pool runs its initializer with
    its ``initargs`` here, as a worker process would, types each shard when
    it is submitted, and restores the test process's collector state when
    it shuts down.
    Returns an object whose ``workers`` lists the worker count of each pool
    started, ``collecting`` whether the collector was on while each one
    typed its first shard, ``mapped`` the callable each one was handed for
    its shards, ``shards`` the number of shards submitted to each one, and
    ``cancelled`` whether each one was shut down with its queued shards
    cancelled.  Setting its ``error`` makes every shard fail with that
    exception, as a failing pool would.
    """
    started = SimpleNamespace(
        workers=[], collecting=[], mapped=[], shards=[], cancelled=[], error=None
    )

    class InProcessPool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            started.workers.append(max_workers)
            started.shards.append(0)
            self.was_collecting = gc.isenabled()
            if initializer is not None:
                initializer(*initargs)

        def submit(self, fn, *args):
            if not started.shards[-1]:
                started.collecting.append(gc.isenabled())
                started.mapped.append(fn)
            started.shards[-1] += 1
            future = concurrent.futures.Future()
            try:
                if started.error is not None:
                    raise started.error
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            started.cancelled.append(cancel_futures)
            (gc.enable if self.was_collecting else gc.disable)()

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    # the slot a pool's initializer fills, here in the test process: emptied after the test
    monkeypatch.setattr(pipeline, "_worker_task", None)
    return started
