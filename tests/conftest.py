"""Shared fixtures: hand-annotated sentence pairs with pinned expected types.

Every golden pair carries its own CoNLL-U rows so expected labels never
depend on an external tagger.  Rows are (form, lemma, upos, feats, head,
deprel) with 1-based heads and 0 for the root, exactly as CoNLL-U writes
them.
"""

from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

import pytest

from serrant import pipeline

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


@pytest.fixture
def golden_wordlist(tmp_path: Path) -> str:
    path = tmp_path / "wordlist.txt"
    path.write_text("\n".join(sorted(golden_wordlist_words())) + "\n", encoding="utf-8")
    return str(path)


def write_golden_corpus(tmp_path: Path, pairs: list[GoldenPair]) -> dict[str, str]:
    """Write parallel text and both CoNLL-U files; return their paths."""
    paths = {
        "orig": tmp_path / "orig.txt",
        "cor": tmp_path / "cor.txt",
        "conllu_orig": tmp_path / "orig.conllu",
        "conllu_cor": tmp_path / "cor.conllu",
    }
    paths["orig"].write_text(
        "\n".join(" ".join(p.orig_tokens) for p in pairs) + "\n", encoding="utf-8"
    )
    paths["cor"].write_text(
        "\n".join(" ".join(p.cor_tokens) for p in pairs) + "\n", encoding="utf-8"
    )
    paths["conllu_orig"].write_text(conllu_file([p.orig_rows for p in pairs]), encoding="utf-8")
    paths["conllu_cor"].write_text(conllu_file([p.cor_rows for p in pairs]), encoding="utf-8")
    return {key: str(path) for key, path in paths.items()}


@pytest.fixture
def in_process_pool(monkeypatch):
    """Stand in for the pipeline's ProcessPoolExecutor, mapping in this process.

    Returns an object whose ``workers`` lists the worker count of each pool
    started and whose ``shards`` lists the number of shards each one typed.
    """
    started = SimpleNamespace(workers=[], shards=[])

    class InProcessPool:
        def __init__(self, max_workers):
            started.workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items):
            items = list(items)
            started.shards.append(len(items))
            return map(fn, items)

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", InProcessPool)
    return started
