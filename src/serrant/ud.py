"""Universal Dependencies annotations: CoNLL-U parsing and span heads.

Only the columns this package consumes are modelled: form, lemma, UPOS tag,
morphological features, and the dependency head.  Heads are stored 0-based;
the root points at the :data:`ROOT` sentinel.  Lemmas are lowercased on the
way in because every lemma comparison in the classifiers is
case-insensitive.

A :class:`Token` is a named tuple, and its ``feats`` dict is read-only by
contract: :func:`parse_conllu` parses each distinct FEATS column once and
hands the same dict to every token that carries it, and the fallback
annotator shares its lexicon's dicts in the same way.

A small rule-plus-lexicon annotator (:func:`fallback_annotate`) provides
annotations for tests and demos when no parser output is available.  It is
deliberately crude and not meant for accuracy-bearing use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import AttachmentError, ConfigurationError, ConlluParseError

ROOT = -1

UPOS_TAGS = frozenset(
    {
        "ADJ", "ADP", "ADV", "AUX", "CCONJ", "DET", "INTJ", "NOUN", "NUM",
        "PART", "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X",
    }
)


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


@dataclass(frozen=True, slots=True)
class AnnotatedSentence:
    tokens: tuple[Token, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def forms(self) -> tuple[str, ...]:
        return tuple(t.form for t in self.tokens)


def parse_feats(value: str) -> dict[str, str]:
    """Parse a ``Name=Value|Name=Value`` feature column; ``_`` is empty."""
    if value in ("_", ""):
        return {}
    feats = {}
    for pair in value.split("|"):
        name, sep, val = pair.partition("=")
        if not sep or not name or not val:
            raise ValueError(f"malformed feature pair {pair!r}")
        feats[name] = val
    return feats


def parse_conllu(text: str) -> list[AnnotatedSentence]:
    """Parse CoNLL-U text into sentences.

    Comment lines are skipped, as are multiword-range rows (ids like
    ``1-2``) and empty-node rows (ids like ``1.1``).  Every kept row must
    have 10 tab-separated columns, a contiguous integer id, a known UPOS
    tag, and an in-range head; each sentence must form a tree with exactly
    one root.  Each distinct FEATS column is parsed once, and the tokens
    that carry it share the resulting dict.

    Raises:
        ConlluParseError: carrying the offending 1-based line number.
    """
    sentences: list[AnnotatedSentence] = []
    # the current sentence's tokens, heads not yet checked, and their lines
    tokens: list[Token] = []
    linenos: list[int] = []
    feats_by_column: dict[str, dict[str, str]] = {}

    for lineno, raw in enumerate(text.split("\n"), start=1):
        if not raw or raw.isspace():  # blank, "\r" included
            if tokens:
                sentences.append(_build_sentence(tokens, linenos))
                tokens, linenos = [], []
            continue
        if raw.startswith("#"):
            continue
        cols = raw.rstrip("\r").split("\t")
        if len(cols) != 10:
            raise ConlluParseError(lineno, f"expected 10 columns, got {len(cols)}")
        if "-" in cols[0] or "." in cols[0]:
            continue  # multiword ranges and empty nodes carry no tree structure
        try:
            token_id = int(cols[0])
        except ValueError:
            raise ConlluParseError(lineno, f"non-integer token id {cols[0]!r}") from None
        if token_id != len(tokens) + 1:
            raise ConlluParseError(lineno, f"token id {token_id} not contiguous")
        form = cols[1]
        lemma = (cols[2] if cols[2] != "_" else form).lower()
        upos = cols[3]
        if upos not in UPOS_TAGS:
            raise ConlluParseError(lineno, f"unknown UPOS tag {upos!r}")
        feats = feats_by_column.get(cols[5])
        if feats is None:
            try:
                feats = feats_by_column[cols[5]] = parse_feats(cols[5])
            except ValueError as exc:
                raise ConlluParseError(lineno, str(exc)) from None
        try:
            head = int(cols[6])
        except ValueError:
            raise ConlluParseError(lineno, f"non-integer head {cols[6]!r}") from None
        # the 1-based head less one is the 0-based head, and 0 becomes ROOT
        tokens.append(Token(token_id - 1, form, lemma, upos, feats, head - 1, cols[7]))
        linenos.append(lineno)
    if tokens:
        sentences.append(_build_sentence(tokens, linenos))
    return sentences


def conllu_sentence_starts(text: str) -> list[int]:
    """Find where each sentence of :func:`parse_conllu` begins, without parsing it.

    Returns one character offset per sentence that ``parse_conllu`` would
    return: the start of the first line of the sentence's block (its
    comments included).  Every offset follows a blank line, so parsing the
    pieces of ``text`` cut at any of them gives the sentences of parsing
    the whole, and a piece fails when the whole does.

    The rules are those of ``parse_conllu``: lines split on ``\\n`` only,
    whitespace-only lines are blank, ``#`` lines are comments, and a block
    yields a sentence when it holds a row that is not a multiword range or
    an empty node.  A malformed row counts as a word, and is left for
    ``parse_conllu`` to reject.
    """
    starts: list[int] = []
    block: int | None = None  # offset of the current block's first line
    counted = False
    offset = 0
    for raw in text.split("\n"):
        if not raw or raw.isspace():
            block = None
        else:
            if block is None:
                block, counted = offset, False
            if not counted and not raw.startswith("#"):
                cols = raw.rstrip("\r").split("\t")
                if len(cols) != 10 or not ("-" in cols[0] or "." in cols[0]):
                    starts.append(block)
                    counted = True
        offset += len(raw) + 1
    return starts


def _build_sentence(tokens: list[Token], linenos: list[int]) -> AnnotatedSentence:
    """Check that the tokens of one sentence form a tree, reporting the row's line."""
    n = len(tokens)
    heads = [token.head for token in tokens]
    root_count = 0
    for position, head in enumerate(heads):
        if not ROOT <= head < n:
            raise ConlluParseError(
                linenos[position], f"head {head + 1} out of range for {n} tokens"
            )
        if head == position:
            raise ConlluParseError(linenos[position], f"token {position + 1} heads itself")
        if head == ROOT:
            root_count += 1
    first_line = linenos[0]
    if root_count != 1:
        raise ConlluParseError(first_line, f"sentence has {root_count} roots, expected 1")
    # Walk up from each token in order until the root or a token already
    # known to reach it.  Each token is walked past once, so the check is
    # linear, and the first token met twice on a walk is the one that a
    # walk from every token to the root would report.
    visited_by = [-1] * n  # the walk that last passed each token
    reaches_root = [False] * n
    for start in range(n):
        current = start
        while current != ROOT and not reaches_root[current]:
            if visited_by[current] == start:
                raise ConlluParseError(first_line, f"dependency cycle through token {current + 1}")
            visited_by[current] = start
            current = heads[current]
        current = start
        while current != ROOT and not reaches_root[current]:
            reaches_root[current] = True
            current = heads[current]
    return AnnotatedSentence(tuple(tokens))


def attach(annotated: AnnotatedSentence, surface_tokens: tuple[str, ...] | list[str]) -> AnnotatedSentence:
    """Check that an annotation covers exactly the given surface tokens.

    Raises:
        AttachmentError: naming the first divergent token index, on a
            length mismatch or any form mismatch.
    """
    forms = annotated.forms
    for i, (have, want) in enumerate(zip(forms, surface_tokens)):
        if have != want:
            raise AttachmentError(i, f"annotation form {have!r} != surface token {want!r} at index {i}")
    if len(forms) != len(surface_tokens):
        index = min(len(forms), len(surface_tokens))
        raise AttachmentError(
            index, f"annotation has {len(forms)} tokens, surface has {len(surface_tokens)}"
        )
    return annotated


def span_head(sentence: AnnotatedSentence, start: int, end: int) -> Token:
    """Return the head token of the span ``[start, end)``.

    The head is the leftmost token whose dependency head lies outside the
    span (the root qualifies).
    """
    if not 0 <= start < end <= len(sentence.tokens):
        raise ValueError(f"invalid span [{start}, {end}) for {len(sentence.tokens)} tokens")
    for token in sentence.tokens[start:end]:
        if token.head == ROOT or not start <= token.head < end:
            return token
    return sentence.tokens[start]  # unreachable for acyclic trees


# --- fallback annotation -------------------------------------------------

LexiconEntry = tuple[str, str, dict[str, str]]  # (lemma, upos, feats)
Lexicon = dict[str, LexiconEntry]


def load_lexicon(text: str) -> Lexicon:
    """Load a lexicon from tab-separated ``form lemma upos feats`` lines.

    Blank lines and ``#`` comments are skipped; feats uses the CoNLL-U
    ``Name=Value|...`` syntax with ``_`` for none.
    """
    lexicon: Lexicon = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 4:
            raise ConfigurationError(f"lexicon line {lineno}: expected 4 columns, got {len(cols)}")
        if cols[2] not in UPOS_TAGS:
            raise ConfigurationError(f"lexicon line {lineno}: unknown UPOS tag {cols[2]!r}")
        try:
            feats = parse_feats(cols[3])
        except ValueError as exc:
            raise ConfigurationError(f"lexicon line {lineno}: {exc}") from None
        lexicon[cols[0]] = (cols[1].lower(), cols[2], feats)
    return lexicon


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

DEFAULT_LEXICON: Lexicon = {
    form: (lemma, upos, parse_feats(feats)) for form, lemma, upos, feats in _DEFAULT_ENTRIES
}


def fallback_annotate(tokens: tuple[str, ...] | list[str], lexicon: Lexicon | None = None) -> AnnotatedSentence:
    """Annotate tokens with the lexicon plus crude suffix heuristics.

    A lexicon hit (exact form, then lowercased form) wins.  Otherwise the
    first matching heuristic applies, in order: ``-ing`` verb, ``-ed`` past
    verb, ``-ly`` adverb, ``-s`` plural noun, capitalised mid-sentence
    proper noun, singular noun.  The tree is flat: every token attaches to
    the last non-punctuation token, which becomes the root.
    """
    lexicon = DEFAULT_LEXICON if lexicon is None else lexicon
    analysed: list[tuple[str, str, dict[str, str]]] = []
    for i, form in enumerate(tokens):
        entry = lexicon.get(form) or lexicon.get(form.lower())
        if entry is not None:
            analysed.append(entry)
        elif form.endswith("ing") and len(form) > 4:
            analysed.append((form[:-3].lower(), "VERB", {"VerbForm": "Ger"}))
        elif form.endswith("ed") and len(form) > 3:
            analysed.append((form[:-2].lower(), "VERB", {"Tense": "Past"}))
        elif form.endswith("ly") and len(form) > 3:
            analysed.append((form[:-2].lower(), "ADV", {}))
        elif form.endswith("s") and len(form) > 2:
            analysed.append((form[:-1].lower(), "NOUN", {"Number": "Plur"}))
        elif i > 0 and form[:1].isupper():
            analysed.append((form.lower(), "PROPN", {}))
        else:
            analysed.append((form.lower(), "NOUN", {"Number": "Sing"}))

    root = len(analysed) - 1
    while root > 0 and analysed[root][1] == "PUNCT":
        root -= 1
    out = []
    for i, (form, (lemma, upos, feats)) in enumerate(zip(tokens, analysed)):
        head = ROOT if i == root else root
        deprel = "root" if i == root else ("punct" if upos == "PUNCT" else "dep")
        out.append(Token(i, form, lemma, upos, feats, head, deprel))
    return AnnotatedSentence(tuple(out))
