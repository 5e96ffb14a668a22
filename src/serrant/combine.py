"""Final edit typing: merge the base category with the SErCl tag pair.

The result is an operation prefix (``M`` missing, ``U`` unnecessary, ``R``
replacement), a body, and optional suffixes, rendered as
``<OP>:<Body>[:<Suffix>...]``.

This module also owns the per-edit facts.  :func:`build_context` builds the
tokens of each side's span once (the only tokens built from a sentence's
columns besides the span heads), finds each non-empty side's span head
once, and rejects edits that are empty or lack an annotation; the base
cascade, the SErCl classifier and :func:`combine` all read that one
:class:`EditContext`.  :class:`EditContext` and :class:`SerrantType` are
named tuples, and every tag or tag-pair body is a shared
:class:`~serrant.sercl.SerclType` rendered through the bounded caches of
:mod:`serrant.sercl`.

Bodies come from :data:`_RULES`, the combination rules as one ordered
table: the first row that matches an edit's base and head tags picks the
body, and the comment on each row says what it decides.  A part-of-speech
base that no row matches keeps its collapsed tag.

One-sided edits drop the absent side from a SErCl body: the prefix already
encodes the direction, so a deleted verb is ``U:Verb``, not ``U:Verb->None``.

Suffixes, in order: ``WC`` on replacements whose body is a single collapsed
tag but whose head lemmas differ (a word-choice change), then ``MW`` on
multi-token edits whose body is an unqualified tag or tag pair.
"""

from __future__ import annotations

from typing import NamedTuple

from . import base as base_types
from .alignment import Edit
from .base import BaseType
from .errors import AnnotationMissingError
from .sercl import ARROW_ASCII, SerclType, render, shared_type
from .ud import AnnotatedSentence, Token, span_head

MODAL_FORMS = frozenset({"can", "could", "may", "might", "shall", "should", "will", "would", "must"})
UNRELIABLE_TAGS = frozenset({"INTJ", "NUM", "SYM", "X", "PUNCT"})
TENSE_LEMMAS = frozenset({"be", "have"})

MISSING = "M"
UNNECESSARY = "U"
REPLACEMENT = "R"

WORD_CHOICE = "WC"
MULTI_WORD = "MW"


class EditContext(NamedTuple):
    """The one per-edit view every classifier reads: the edit, the annotated
    tokens on each side, and each side's span head (None for an absent side)."""

    edit: Edit
    src_tokens: tuple[Token, ...]
    trg_tokens: tuple[Token, ...]
    src_head: Token | None
    trg_head: Token | None

    @property
    def sentence_initial(self) -> bool:
        return self.edit.span.start == 0


class SerrantType(NamedTuple):
    op: str
    body: str
    suffixes: tuple[str, ...] = ()

    def render(self, arrow: str = ARROW_ASCII) -> str:
        body = self.body if arrow == ARROW_ASCII else self.body.replace(ARROW_ASCII, arrow)
        return ":".join((self.op, body) + self.suffixes)


def build_context(
    edit: Edit,
    src_sentence: AnnotatedSentence | None,
    trg_sentence: AnnotatedSentence | None,
) -> EditContext:
    """Slice both sides of the edit and find each non-empty side's head.

    Raises:
        ValueError: for an edit empty on both sides.
        AnnotationMissingError: when the sentence carrying a non-empty side
            was not supplied.
    """
    (src_start, src_end, correction), _, trg_start = edit
    trg_end = trg_start + len(correction)
    if src_start == src_end and trg_start == trg_end:
        raise ValueError("edit is empty on both sides")
    src_tokens, src_head = _side(src_sentence, src_start, src_end, "source")
    trg_tokens, trg_head = _side(trg_sentence, trg_start, trg_end, "corrected")
    return EditContext(edit, src_tokens, trg_tokens, src_head, trg_head)


def _side(
    sentence: AnnotatedSentence | None, start: int, end: int, which: str
) -> tuple[tuple[Token, ...], Token | None]:
    if start == end:
        return (), None
    if sentence is None:
        raise AnnotationMissingError(f"no annotation for the {which} sentence")
    head = span_head(sentence, start, end)  # rejects a span outside the sentence
    if end - start == 1:  # most spans: the head is the span's one token
        return (head,), head
    return tuple(map(sentence.token, range(start, end))), head


def combine(base: BaseType, sercl: SerclType, ctx: EditContext) -> SerrantType:
    """Produce the final type from both classifications and the edit context."""
    _, src_tokens, trg_tokens, src_head, trg_head = ctx
    if not src_tokens:
        op = MISSING
    elif not trg_tokens:
        op = UNNECESSARY
    else:
        op = REPLACEMENT

    body = _pick_body(base, sercl, ctx)
    if isinstance(body, str):
        return SerrantType(op, body)

    suffixes: list[str] = []
    if op == REPLACEMENT and body.collapsed and src_head.lemma != trg_head.lemma:
        suffixes.append(WORD_CHOICE)
    multi_word = len(src_tokens) > 1 or len(trg_tokens) > 1
    # a body qualifies both its sides or neither
    if multi_word and not body.left.qualifiers:
        suffixes.append(MULTI_WORD)
    return SerrantType(op, render(body), tuple(suffixes))


def _screened(s: str | None, t: str | None) -> bool:
    """The OTHER and MORPH screen: an unreliable tag, or a proper noun on one side only."""
    return s in UNRELIABLE_TAGS or t in UNRELIABLE_TAGS or (s == "PROPN") != (t == "PROPN")


def _anchored(tokens: tuple[Token, ...]) -> bool:
    """A be or have lemma, or the wordform "will", among ``tokens``."""
    return any(t.lemma in TENSE_LEMMAS or t.form.lower() == "will" for t in tokens)


def _modal(tokens: tuple[Token, ...]) -> bool:
    """One token, a modal verb."""
    return len(tokens) == 1 and tokens[0].form.lower() in MODAL_FORMS


def _tag_body(tag: str) -> SerclType:
    """The collapsed, unqualified type of ``tag``."""
    return shared_type((tag, ()), (tag, ()))


def _sercl_body(sercl: SerclType) -> SerclType:
    # the M/U prefix already records an absent side; keep only the real tag
    if sercl.left.tag is None:
        side = sercl.right
    elif sercl.right.tag is None:
        side = sercl.left
    else:
        return sercl
    return shared_type(side, side)


# the body of a row that takes the SErCl pair
_PAIR = None

# The combination rules: (base, test, body) rows, in order.  A row's base is
# a base category, or the surface tag of a POS base; its test takes the head
# tags s and t (None for an absent side) and the EditContext, and None
# always passes; its body is a named body, a collapsed tag or _PAIR.
_RULES = (
    # unreliable heads, and a proper noun on one side only, stay Other
    (base_types.OTHER, lambda s, t, ctx: _screened(s, t), "Other"),
    # two proper nouns, whatever their features, collapse to Propn
    (base_types.OTHER, lambda s, t, ctx: s == "PROPN", _tag_body("PROPN")),
    (base_types.OTHER, None, _PAIR),
    # adjective/proper-noun alternations keep the pair past the screen
    (base_types.MORPH, lambda s, t, ctx: {s, t} == {"ADJ", "PROPN"}, _PAIR),
    (base_types.MORPH, lambda s, t, ctx: _screened(s, t), "Other"),
    (base_types.MORPH, None, _PAIR),
    # a word recapitalised into a proper noun is a retag, but not at the start
    (
        base_types.ORTH,
        lambda s, t, ctx: t == "PROPN" and s != "PROPN" and not ctx.sentence_initial,
        _PAIR,
    ),
    (base_types.ORTH, None, "Orth"),
    # VERB bases separate auxiliaries back out: two auxiliary heads are Aux,
    # one is the pair (Aux->Verb, or Aux on a one-sided edit)
    ("VERB", lambda s, t, ctx: s == "AUX" and t == "AUX", _tag_body("AUX")),
    ("VERB", lambda s, t, ctx: s == "AUX" or t == "AUX", _PAIR),
    # noun-to-verb heads keep the pair; classify_base cannot reach this row,
    # as it gives VERB:FORM only to one-to-one edits of VERB or AUX tokens
    (base_types.VERB_FORM, lambda s, t, ctx: s == "NOUN" and t == "VERB", _PAIR),
    (base_types.VERB_FORM, None, "Verb:Form"),
    # heads that cross between pronoun and determiner keep the pair;
    # classify_base cannot reach these rows, as it gives a PRON or DET base
    # only when every token on both sides carries that one tag
    ("PRON", lambda s, t, ctx: {s, t} == {"PRON", "DET"}, _PAIR),
    ("DET", lambda s, t, ctx: {s, t} == {"PRON", "DET"}, _PAIR),
    # tense changes anchored on both sides stay Verb:Tense, a modal for a
    # modal is Modal, and any other tense change is the pair
    (
        base_types.VERB_TENSE,
        lambda s, t, ctx: _anchored(ctx.src_tokens) and _anchored(ctx.trg_tokens),
        "Verb:Tense",
    ),
    (
        base_types.VERB_TENSE,
        lambda s, t, ctx: _modal(ctx.src_tokens) and _modal(ctx.trg_tokens),
        "Modal",
    ),
    (base_types.VERB_TENSE, None, _PAIR),
    # the categories no rule changes keep their named bodies
    (base_types.SPELL, None, "Spell"),
    (base_types.VERB_INFL, None, "Verb:Infl"),
    (base_types.VERB_SVA, None, "Verb:SVA"),
    (base_types.NOUN_NUM, None, "Noun:Num"),
    (base_types.ADJ_FORM, None, "Adj:Form"),
)


def _pick_body(base: BaseType, sercl: SerclType, ctx: EditContext) -> str | SerclType:
    """The body of the first row of :data:`_RULES` that matches, or a POS base's tag."""
    key = base.pos_payload or base.category
    s = ctx.src_head.upos if ctx.src_head is not None else None
    t = ctx.trg_head.upos if ctx.trg_head is not None else None
    for row_base, test, body in _RULES:
        if row_base == key and (test is None or test(s, t, ctx)):
            return _sercl_body(sercl) if body is _PAIR else body
    return _tag_body(key)
