"""Deterministic synthetic corpora for stress and throughput tests.

A small closed vocabulary covers every part of speech the classifier
branches on, including pairs sharing a lemma, case variants, modals,
and punctuation.  Sentences get flat annotation (everything hangs off
one verb-ish root) so pre-annotated inputs are cheap to fabricate at
scale while still exercising head selection and feature comparison.
"""

from __future__ import annotations

import random

from serrant.alignment import Edit, align, merge
from serrant.m2 import M2Edit, M2Record, emit_m2
from serrant.ud import ROOT, AnnotatedSentence

Entry = tuple[str, str, str, str]

# (form, lemma, upos, feats)
VOCAB: list[Entry] = [
    ("the", "the", "DET", ""),
    ("a", "a", "DET", ""),
    ("my", "my", "PRON", "Poss=Yes"),
    ("their", "they", "DET", "Poss=Yes"),
    ("these", "this", "PRON", "Number=Plur"),
    ("I", "i", "PRON", "Number=Sing|Person=1"),
    ("we", "we", "PRON", "Number=Plur|Person=1"),
    ("he", "he", "PRON", "Number=Sing|Person=3"),
    ("it", "it", "PRON", "Number=Sing|Person=3"),
    ("cat", "cat", "NOUN", "Number=Sing"),
    ("cats", "cat", "NOUN", "Number=Plur"),
    ("dog", "dog", "NOUN", "Number=Sing"),
    ("house", "house", "NOUN", "Number=Sing"),
    ("trap", "trap", "NOUN", "Number=Sing"),
    ("Paris", "paris", "PROPN", "Number=Sing"),
    ("London", "london", "PROPN", "Number=Sing"),
    ("eat", "eat", "VERB", "Tense=Pres|VerbForm=Fin"),
    ("eats", "eat", "VERB", "Number=Sing|Person=3|Tense=Pres|VerbForm=Fin"),
    ("ate", "eat", "VERB", "Tense=Past|VerbForm=Fin"),
    ("eating", "eat", "VERB", "VerbForm=Ger"),
    ("run", "run", "VERB", "Tense=Pres|VerbForm=Fin"),
    ("ran", "run", "VERB", "Tense=Past|VerbForm=Fin"),
    ("trapped", "trap", "VERB", "Tense=Past|VerbForm=Fin"),
    ("is", "be", "AUX", "Number=Sing|Person=3|Tense=Pres"),
    ("was", "be", "AUX", "Number=Sing|Person=3|Tense=Past"),
    ("has", "have", "AUX", "Number=Sing|Person=3|Tense=Pres"),
    ("will", "will", "AUX", ""),
    ("can", "can", "AUX", ""),
    ("must", "must", "AUX", ""),
    ("should", "should", "AUX", ""),
    ("big", "big", "ADJ", "Degree=Pos"),
    ("bigger", "big", "ADJ", "Degree=Cmp"),
    ("small", "small", "ADJ", "Degree=Pos"),
    ("quickly", "quickly", "ADV", ""),
    ("now", "now", "ADV", ""),
    ("in", "in", "ADP", ""),
    ("on", "on", "ADP", ""),
    ("and", "and", "CCONJ", ""),
    ("because", "because", "SCONJ", ""),
    ("two", "two", "NUM", "NumType=Card"),
    ("oh", "oh", "INTJ", ""),
    ("%", "%", "SYM", ""),
    (",", ",", "PUNCT", ""),
    (".", ".", "PUNCT", ""),
]

_BY_FORM = {entry[0]: entry for entry in VOCAB}


def entry_for(form: str) -> Entry:
    return _BY_FORM[form]


def parse_feats_text(feats: str) -> dict[str, str]:
    if not feats:
        return {}
    return dict(item.split("=", 1) for item in feats.split("|"))


def annotate_entries(entries: list[Entry]) -> AnnotatedSentence:
    """Flat tree: the last non-punctuation token is the root."""
    root_index = len(entries) - 1
    for i in range(len(entries) - 1, -1, -1):
        if entries[i][2] != "PUNCT":
            root_index = i
            break
    heads = [root_index] * len(entries)
    deprels = ["punct" if entry[2] == "PUNCT" else "dep" for entry in entries]
    if entries:
        heads[root_index], deprels[root_index] = ROOT, "root"
    return AnnotatedSentence(
        forms=tuple(entry[0] for entry in entries),
        lemmas=tuple(entry[1] for entry in entries),
        upos=tuple(entry[2] for entry in entries),
        feats=tuple(parse_feats_text(entry[3]) for entry in entries),
        heads=tuple(heads),
        deprels=tuple(deprels),
    )


def entries_to_conllu(entries: list[Entry]) -> str:
    sentence = annotate_entries(entries)
    lines = []
    for token in sentence.tokens:
        feats = "|".join(f"{k}={v}" for k, v in sorted(token.feats.items())) or "_"
        head = 0 if token.head == ROOT else token.head + 1
        lines.append(
            "\t".join(
                [
                    str(token.index + 1),
                    token.form,
                    token.lemma,
                    token.upos,
                    "_",
                    feats,
                    str(head),
                    token.deprel,
                    "_",
                    "_",
                ]
            )
        )
    return "\n".join(lines)


def random_sentence(rng: random.Random, min_len: int = 3, max_len: int = 9) -> list[Entry]:
    length = rng.randint(min_len, max_len)
    return [VOCAB[rng.randrange(len(VOCAB))] for _ in range(length)]


def mutate(rng: random.Random, entries: list[Entry], operations: int) -> list[Entry]:
    out = list(entries)
    for _ in range(operations):
        choice = rng.random()
        if choice < 0.5 and out:
            out[rng.randrange(len(out))] = VOCAB[rng.randrange(len(VOCAB))]
        elif choice < 0.75 and len(out) > 1:
            del out[rng.randrange(len(out))]
        else:
            out.insert(rng.randint(0, len(out)), VOCAB[rng.randrange(len(VOCAB))])
    return out


def random_pair(rng: random.Random) -> tuple[list[Entry], list[Entry]]:
    orig = random_sentence(rng)
    cor = mutate(rng, orig, rng.randint(0, 3))
    if not cor:
        cor = [VOCAB[rng.randrange(len(VOCAB))]]
    return orig, cor


class SyntheticCorpus:
    def __init__(self, size: int, seed: int) -> None:
        rng = random.Random(seed)
        self.pairs = [random_pair(rng) for _ in range(size)]

    @property
    def orig_text(self) -> str:
        return "\n".join(" ".join(e[0] for e in orig) for orig, _ in self.pairs) + "\n"

    @property
    def cor_text(self) -> str:
        return "\n".join(" ".join(e[0] for e in cor) for _, cor in self.pairs) + "\n"

    @property
    def conllu_orig(self) -> str:
        return "\n\n".join(entries_to_conllu(orig) for orig, _ in self.pairs) + "\n"

    @property
    def conllu_cor(self) -> str:
        return "\n\n".join(entries_to_conllu(cor) for _, cor in self.pairs) + "\n"

    def untyped_m2(self) -> str:
        """The same edits the classifier would find, labelled UNK."""
        records = []
        for orig, cor in self.pairs:
            src = [e[0] for e in orig]
            trg = [e[0] for e in cor]
            ops = align(src, trg, [e[1] for e in orig], [e[1] for e in cor])
            edits = [
                M2Edit(span=edit.span, type_label="UNK", annotator_id=0)
                for edit in merge(ops, src, trg)
            ]
            records.append(M2Record(source_tokens=tuple(src), edits=tuple(edits)))
        return emit_m2(records)


def edit_between(src: list[str], trg: list[str]) -> list[Edit]:
    return merge(align(src, trg), src, trg)
