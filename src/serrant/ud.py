"""Universal Dependencies annotations: CoNLL-U parsing and span heads.

Only these columns are modelled: form, lemma, UPOS tag, morphological
features and the dependency head, which the classifiers read, and the
dependency relation (DEPREL), which is parsed and kept for callers but read
by no classifier.  Heads are stored 0-based; the root points at the
:data:`ROOT` sentinel.  Lemmas are lowercased on the way in because every
lemma comparison in the classifiers is case-insensitive, and a ``_`` LEMMA
becomes the lowercased FORM.

An :class:`AnnotatedSentence` is a named tuple of one tuple per column:
``forms``, ``lemmas``, ``upos``, ``feats``, ``heads`` and ``deprels``,
where position ``i`` of each describes word ``i``; iterating it yields the
columns, and ``len()`` gives the number of words.  Each distinct UPOS tag
and DEPREL value is held as one shared string, and each distinct FEATS
value as one shared dict that is read-only by contract:
:func:`parse_conllu` parses each distinct FEATS column once per text and
hands the same dict to every word that carries it, and the fallback
annotator shares its lexicon's and its suffix rules' dicts in the same
way.  A :class:`Token` is the named-tuple view of one word, built on
demand: the classifiers build them only for the words of edited spans, and
:func:`span_head` builds one for the head it finds.

:func:`parse_conllu` reads a text in one pass, checking each row as it
builds the columns of its sentence and each sentence's tree when its block
ends, so the error it raises is the first in the text.  Comment lines go
before a block's rows: one after any row of its block is an error.  It
splits the text into lines in chunks of several hundred rows, each cut
after blank lines (:data:`BLANK_LINES`), to keep the memory the line
strings take small.  A text cut after any run of blank lines parses,
piece by piece, into the sentences of the whole, and a piece fails when
the whole does; ``pipeline`` cuts the shards of ``--jobs`` there too.

A small rule-plus-lexicon annotator (:func:`fallback_annotate`) provides
annotations for tests and demos when no parser output is available.  It is
deliberately crude and not meant for accuracy-bearing use.  It reads one
lexicon, :data:`DEFAULT_LEXICON`, and memoises the analysis of each form, at
the start of a sentence or after it, for at most :data:`_MEMO_SIZE` entries
(about 2 MB).
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from functools import lru_cache
from itertools import chain, repeat
from typing import NamedTuple

from .errors import AttachmentError, ConlluParseError
from .sercl import ARROW_ASCII, ARROW_UNICODE

ROOT = -1

UPOS_TAGS = frozenset(
    {
        "ADJ", "ADP", "ADV", "AUX", "CCONJ", "DET", "INTJ", "NOUN", "NUM",
        "PART", "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X",
    }
)
_SHARED_UPOS = {tag: tag for tag in UPOS_TAGS}


class Token(NamedTuple):
    """One annotated word.

    ``feats`` is read-only by contract: tokens parsed from equal FEATS
    columns, tokens of the same fallback-lexicon entry, and tokens built
    without features (the default) share one dict, so writing to it would
    change every token that holds it.
    """

    index: int
    form: str
    lemma: str
    upos: str
    feats: dict[str, str] = {}
    head: int = ROOT
    deprel: str = "dep"


class _Columns(NamedTuple):
    forms: tuple[str, ...]
    lemmas: tuple[str, ...]
    upos: tuple[str, ...]
    feats: tuple[dict[str, str], ...]
    heads: tuple[int, ...]
    deprels: tuple[str, ...]


class AnnotatedSentence(_Columns):
    """One sentence's annotation, one tuple per column, all of equal length.

    A named tuple of the six columns: iterating it yields the columns, but
    ``len()`` gives its number of words.  :func:`parse_conllu` and
    :func:`fallback_annotate` build them; :meth:`token` and :attr:`tokens`
    give the :class:`Token` view.
    """

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.forms)

    # through the constructor, as the named tuple's own _make counts the
    # fields with len(), the word count here; _replace builds through it
    _make = classmethod(lambda cls, fields: cls(*fields))

    def token(self, index: int) -> Token:
        """Word ``index`` as a :class:`Token`."""
        # tuple.__new__ skips the named tuple's Python-level __new__, which
        # costs more than the rest of this call
        return tuple.__new__(
            Token,
            (
                index,
                self.forms[index],
                self.lemmas[index],
                self.upos[index],
                self.feats[index],
                self.heads[index],
                self.deprels[index],
            ),
        )

    @property
    def tokens(self) -> tuple[Token, ...]:
        """Every word as a :class:`Token`."""
        return tuple(map(self.token, range(len(self))))


def parse_feats(value: str) -> dict[str, str]:
    """Parse a ``Name=Value|Name=Value`` feature column; ``_`` is empty.

    Feature names must be unique within the column.  No value may hold an
    arrow (``->`` or ``→``): a SErCl label shows feature values on both
    sides of one, and could not be split back into its sides.
    """
    if value in ("_", ""):
        return {}
    feats = {}
    for pair in value.split("|"):
        name, sep, val = pair.partition("=")
        if not sep or not name or not val:
            raise ValueError(f"malformed feature pair {pair!r}")
        if name in feats:
            raise ValueError(f"repeated feature name {name!r}")
        if ARROW_ASCII in val or ARROW_UNICODE in val:
            raise ValueError(f"arrow in feature value {val!r}")
        feats[name] = val
    return feats


# Characters per chunk before the cut at the next blank lines: several
# hundred rows, so that a chunk's line strings stay a small part of the
# memory its sentences take.
_CHUNK_CHARS = 1 << 15
# a run of lines that ``str.isspace`` calls blank, with the line break before
# it: blocks of CoNLL-U and M2 end at one
BLANK_LINES = re.compile(r"\n(?:[^\S\n]*\n)+")
# a multiword-range id ``N-M`` or an empty-node id ``N.M``: ASCII digits, the
# only integers CoNLL-U ids and heads take, around one separator
_RANGE_OR_EMPTY_NODE = re.compile("[0-9]+[-.][0-9]+")


def parse_conllu(text: str) -> list[AnnotatedSentence]:
    """Parse CoNLL-U text into sentences.

    Lines split on ``\\n`` only, and whitespace-only lines are blank.
    Comment lines before a block's first row are skipped, and a comment
    line after any row of its block is an error.  Multiword-range rows (ids
    like ``1-2``) and empty-node rows (ids like ``1.1``) are skipped; an id
    holding ``-`` or ``.`` that is not two integers around one of them is an
    error.  Every
    kept row must have 10 tab-separated columns, a contiguous id, a known
    UPOS tag, FEATS pairs with unique names and no arrow in a value, and an
    in-range head; ids and heads are ASCII digits.  Each sentence must form
    a tree with exactly one root.  Each distinct FEATS column is parsed
    once, and the words that carry it share the resulting dict.

    One pass checks each row, in that order, as it reads it, and each
    sentence's tree when its block ends, so the error raised is the first
    in the text.  The text is split into lines one chunk at a time, so its
    line strings stay a small part of the memory the sentences take.

    Raises:
        ConlluParseError: carrying the offending 1-based line number.
    """
    sentences: list[AnnotatedSentence] = []
    feats_by_value: dict[str, dict[str, str]] = {}
    deprel_by_value: dict[str, str] = {}
    rows: list[tuple] = []  # the open sentence's words, and the line of each
    node_rows = False  # whether the open block holds a multiword-range or empty-node row
    for first_line, lines in _chunks(text):
        # the added blank line ends the text's last block; a chunk's own end in it
        for lineno, line in enumerate(chain(lines, [""]), first_line):
            if not line or line.isspace():  # blank, "\r" included
                if rows:
                    forms, lemmas, upos, feats, heads, deprels, linenos = zip(*rows)
                    _check_tree(heads, linenos)
                    sentences.append(AnnotatedSentence(forms, lemmas, upos, feats, heads, deprels))
                rows, node_rows = [], False
                continue
            if line[0] == "#":
                if rows or node_rows:
                    raise ConlluParseError(lineno, "comment line inside a sentence")
                continue
            try:
                token_id, form, lemma, tag, _, feats_column, head, deprel, _, _ = line.split("\t")
            except ValueError:
                columns = line.count("\t") + 1
                raise ConlluParseError(lineno, f"expected 10 columns, got {columns}") from None
            if not (token_id.isascii() and token_id.isdigit()):
                if "-" not in token_id and "." not in token_id:
                    raise ConlluParseError(lineno, f"non-integer token id {token_id!r}")
                if not _RANGE_OR_EMPTY_NODE.fullmatch(token_id):
                    raise ConlluParseError(
                        lineno, f"malformed multiword range or empty node id {token_id!r}"
                    )
                node_rows = True
                continue  # multiword ranges and empty nodes carry no tree structure
            if int(token_id) != len(rows) + 1:
                raise ConlluParseError(lineno, f"token id {int(token_id)} not contiguous")
            shared_tag = _SHARED_UPOS.get(tag)
            if shared_tag is None:
                raise ConlluParseError(lineno, f"unknown UPOS tag {tag!r}")
            word_feats = feats_by_value.get(feats_column)
            if word_feats is None:
                try:
                    word_feats = feats_by_value[feats_column] = parse_feats(feats_column)
                except ValueError as exc:
                    raise ConlluParseError(lineno, str(exc)) from None
            if not (head.isascii() and head.isdigit()):
                raise ConlluParseError(lineno, f"non-integer head {head!r}")
            rows.append(
                (
                    form,
                    (form if lemma == "_" else lemma).lower(),
                    shared_tag,
                    word_feats,
                    int(head) - 1,  # 0 becomes ROOT
                    deprel_by_value.setdefault(deprel, deprel),
                    lineno,
                )
            )
    return sentences


def _chunks(text: str) -> Iterator[tuple[int, list[str]]]:
    """Cut ``text`` after the first blank lines past every ``_CHUNK_CHARS`` characters.

    Yields the 1-based number of each piece's first line, and its lines.
    No block of non-blank lines spans two pieces.
    """
    start, first_line = 0, 1
    while True:
        blank = BLANK_LINES.search(text, start + _CHUNK_CHARS)
        end = len(text) if blank is None else blank.end() - 1
        lines = text[start:end].split("\n")
        yield first_line, lines
        if blank is None:
            return
        start, first_line = end + 1, first_line + len(lines)


def _check_tree(heads: tuple[int, ...], linenos: tuple[int, ...]) -> None:
    """Check that one sentence's 0-based heads form a tree, reporting the row's line."""
    n = len(heads)
    for position, head in enumerate(heads):
        if not ROOT <= head < n:
            raise ConlluParseError(
                linenos[position], f"head {head + 1} out of range for {n} tokens"
            )
        if head == position:
            raise ConlluParseError(linenos[position], f"token {position + 1} heads itself")
    first_line = linenos[0]
    root_count = heads.count(ROOT)
    if root_count != 1:
        raise ConlluParseError(first_line, f"sentence has {root_count} roots, expected 1")
    # Walk up from each token in order until a token known to reach the
    # root, marking the tokens passed with the walk's start, then walk again
    # to mark them as reaching it.  Each token is walked past at most twice,
    # so the check is linear, and the first token met twice on a walk is the
    # one that a walk from every token to the root would report.
    # mark[t]: -1 before any walk, the start of the walk on t, or n once t
    # is known to reach the root; the root itself is the last item, ROOT.
    mark = [-1] * n + [n]
    for start in range(n):
        current = start
        while mark[current] < 0:
            mark[current] = start
            current = heads[current]
        if mark[current] == start:
            raise ConlluParseError(first_line, f"dependency cycle through token {current + 1}")
        current = start
        while mark[current] == start:
            mark[current] = n
            current = heads[current]


def attach(annotated: AnnotatedSentence, surface_tokens: tuple[str, ...] | list[str]) -> AnnotatedSentence:
    """Check that an annotation covers exactly the given surface tokens.

    Raises:
        AttachmentError: naming the first divergent token index, on a
            length mismatch or any form mismatch.
    """
    forms = annotated.forms
    if forms == tuple(surface_tokens):
        return annotated
    for i, (have, want) in enumerate(zip(forms, surface_tokens)):
        if have != want:
            raise AttachmentError(i, f"annotation form {have!r} != surface token {want!r} at index {i}")
    index = min(len(forms), len(surface_tokens))
    raise AttachmentError(
        index, f"annotation has {len(forms)} tokens, surface has {len(surface_tokens)}"
    )


def span_head(sentence: AnnotatedSentence, start: int, end: int) -> Token:
    """Return the head token of the span ``[start, end)``.

    The head is the leftmost token whose dependency head lies outside the
    span (the root qualifies).
    """
    if not 0 <= start < end <= len(sentence):
        raise ValueError(f"invalid span [{start}, {end}) for {len(sentence)} tokens")
    if end - start == 1:  # most spans: the one token is the head
        return sentence.token(start)
    heads = sentence.heads
    for index in range(start, end):
        head = heads[index]
        if head == ROOT or not start <= head < end:
            return sentence.token(index)
    return sentence.token(start)  # unreachable for acyclic trees


# --- fallback annotation -------------------------------------------------

LexiconEntry = tuple[str, str, dict[str, str]]  # (lemma, upos, feats)

_DEFAULT_ENTRIES: list[tuple[str, str, str, str]] = [
    ("the", "the", "DET", "_"),
    ("a", "a", "DET", "_"),
    ("an", "a", "DET", "_"),
    ("this", "this", "DET", "Number=Sing"),
    ("that", "that", "DET", "Number=Sing"),
    ("these", "this", "DET", "Number=Plur"),
    ("those", "that", "DET", "Number=Plur"),
    ("no", "no", "DET", "_"),
    ("i", "i", "PRON", "_"),
    ("I", "i", "PRON", "_"),
    ("you", "you", "PRON", "_"),
    ("he", "he", "PRON", "_"),
    ("she", "she", "PRON", "_"),
    ("it", "it", "PRON", "_"),
    ("we", "we", "PRON", "_"),
    ("they", "they", "PRON", "_"),
    ("me", "i", "PRON", "_"),
    ("him", "he", "PRON", "_"),
    ("her", "she", "PRON", "_"),
    ("us", "we", "PRON", "_"),
    ("them", "they", "PRON", "_"),
    ("my", "my", "PRON", "Poss=Yes"),
    ("your", "your", "PRON", "Poss=Yes"),
    ("his", "his", "PRON", "Poss=Yes"),
    ("its", "its", "PRON", "Poss=Yes"),
    ("our", "our", "PRON", "Poss=Yes"),
    ("their", "their", "PRON", "Poss=Yes"),
    ("am", "be", "AUX", "Number=Sing|Person=1|Tense=Pres"),
    ("is", "be", "AUX", "Number=Sing|Person=3|Tense=Pres"),
    ("are", "be", "AUX", "Tense=Pres"),
    ("was", "be", "AUX", "Number=Sing|Tense=Past"),
    ("were", "be", "AUX", "Tense=Past"),
    ("be", "be", "AUX", "VerbForm=Inf"),
    ("been", "be", "AUX", "VerbForm=Part"),
    ("being", "be", "AUX", "VerbForm=Ger"),
    ("have", "have", "AUX", "Tense=Pres"),
    ("has", "have", "AUX", "Number=Sing|Person=3|Tense=Pres"),
    ("had", "have", "AUX", "Tense=Past"),
    ("do", "do", "AUX", "Tense=Pres"),
    ("does", "do", "AUX", "Number=Sing|Person=3|Tense=Pres"),
    ("did", "do", "AUX", "Tense=Past"),
    ("will", "will", "AUX", "_"),
    ("would", "would", "AUX", "_"),
    ("can", "can", "AUX", "_"),
    ("could", "could", "AUX", "_"),
    ("may", "may", "AUX", "_"),
    ("might", "might", "AUX", "_"),
    ("shall", "shall", "AUX", "_"),
    ("should", "should", "AUX", "_"),
    ("must", "must", "AUX", "_"),
    ("and", "and", "CCONJ", "_"),
    ("or", "or", "CCONJ", "_"),
    ("but", "but", "CCONJ", "_"),
    ("because", "because", "SCONJ", "_"),
    ("if", "if", "SCONJ", "_"),
    ("of", "of", "ADP", "_"),
    ("in", "in", "ADP", "_"),
    ("on", "on", "ADP", "_"),
    ("at", "at", "ADP", "_"),
    ("to", "to", "ADP", "_"),
    ("for", "for", "ADP", "_"),
    ("with", "with", "ADP", "_"),
    ("from", "from", "ADP", "_"),
    ("by", "by", "ADP", "_"),
    ("not", "not", "PART", "_"),
    ("very", "very", "ADV", "_"),
    ("here", "here", "ADV", "_"),
    ("there", "there", "ADV", "_"),
    ("now", "now", "ADV", "_"),
    (".", ".", "PUNCT", "_"),
    (",", ",", "PUNCT", "_"),
    ("!", "!", "PUNCT", "_"),
    ("?", "?", "PUNCT", "_"),
    (";", ";", "PUNCT", "_"),
    (":", ":", "PUNCT", "_"),
]

DEFAULT_LEXICON: dict[str, LexiconEntry] = {
    form: (lemma, upos, parse_feats(feats)) for form, lemma, upos, feats in _DEFAULT_ENTRIES
}


# feature dicts of the suffix rules, shared like the lexicon's
_GERUND = {"VerbForm": "Ger"}
_PAST = {"Tense": "Past"}
_PLURAL = {"Number": "Plur"}
_SINGULAR = {"Number": "Sing"}
_NO_FEATS: dict[str, str] = {}

# The most forms whose analysis the memo holds; the least recently used one
# goes first.
_MEMO_SIZE = 1 << 13


def fallback_annotate(tokens: tuple[str, ...] | list[str]) -> AnnotatedSentence:
    """Annotate tokens with :data:`DEFAULT_LEXICON` plus crude suffix heuristics.

    A lexicon hit (exact form, then lowercased form) wins.  Otherwise the
    first matching heuristic applies, in order: ``-ing`` verb, ``-ed`` past
    verb, ``-ly`` adverb, ``-s`` plural noun, capitalised mid-sentence
    proper noun, singular noun.  The tree is flat: every token attaches to
    the last non-punctuation token, which becomes the root.  The columns are
    filled directly; no :class:`Token` is built.

    The analysis of each form, at the start of the sentence or after it, is
    memoised in a bounded least-recently-used cache.  Words of the same
    analysis share its feature dict, which is read-only by contract.
    """
    if not tokens:
        return AnnotatedSentence((), (), (), (), (), ())
    lemmas, upos, feats = zip(*map(_analyse, tokens, chain((True,), repeat(False))))
    root = len(upos) - 1
    while root > 0 and upos[root] == "PUNCT":
        root -= 1
    heads = [root] * len(upos)
    heads[root] = ROOT
    deprels = ["punct" if tag == "PUNCT" else "dep" for tag in upos]
    deprels[root] = "root"
    return AnnotatedSentence(tuple(tokens), lemmas, upos, feats, tuple(heads), tuple(deprels))


@lru_cache(maxsize=_MEMO_SIZE)
def _analyse(form: str, initial: bool) -> LexiconEntry:
    """The analysis of ``form``, where ``initial`` says it starts the sentence.

    A capitalised word that no lexicon entry or suffix rule covers is a
    proper noun unless it starts the sentence.  The memo does not notice a
    rebound ``DEFAULT_LEXICON``; whoever rebinds it calls
    ``_analyse.cache_clear()``.
    """
    entry = DEFAULT_LEXICON.get(form) or DEFAULT_LEXICON.get(form.lower())
    if entry is not None:
        return entry
    if form.endswith("ing") and len(form) > 4:
        return (form[:-3].lower(), "VERB", _GERUND)
    if form.endswith("ed") and len(form) > 3:
        return (form[:-2].lower(), "VERB", _PAST)
    if form.endswith("ly") and len(form) > 3:
        return (form[:-2].lower(), "ADV", _NO_FEATS)
    if form.endswith("s") and len(form) > 2:
        return (form[:-1].lower(), "NOUN", _PLURAL)
    if not initial and form[:1].isupper():
        return (form.lower(), "PROPN", _NO_FEATS)
    return (form.lower(), "NOUN", _SINGULAR)
