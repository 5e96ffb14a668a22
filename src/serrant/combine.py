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

Bodies come from the base category unless one of the combination rules
swaps in the SErCl pair:

* an OTHER base becomes the SErCl pair, except that edits touching the
  unreliable tags (interjections, numerals, symbols, X, punctuation) or
  turning a proper noun into something else stay OTHER, while a pair of
  proper nouns collapses to ``Propn``;
* a MORPH base becomes the SErCl pair under the same screen, except that
  adjective/proper-noun alternations always keep the pair;
* an ORTH base whose correction head is a proper noun (and whose source
  head is not) becomes the pair, unless the edit starts the sentence;
* a VERB base re-separates auxiliaries: two auxiliary heads give ``Aux``,
  and one auxiliary head gives the SErCl pair, which is ``Aux->Verb`` for a
  mixed replacement and ``Aux`` for a lone auxiliary on a one-sided edit
  (a one-sided body keeps only the present side, below);
* a VERB:FORM base whose heads go noun to verb becomes the pair;
* PRON and DET bases whose heads cross between pronoun and determiner
  become the pair;
* a VERB:TENSE base is kept when both sides are anchored by be/have lemmas
  or the wordform "will"; a pair of modal verbs becomes ``Modal``; anything
  else becomes the SErCl pair.

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

_NAMED_BODIES = {
    base_types.SPELL: "Spell",
    base_types.ORTH: "Orth",
    base_types.MORPH: "Morph",
    base_types.OTHER: "Other",
    base_types.VERB_TENSE: "Verb:Tense",
    base_types.VERB_FORM: "Verb:Form",
    base_types.VERB_INFL: "Verb:Infl",
    base_types.VERB_SVA: "Verb:SVA",
    base_types.NOUN_NUM: "Noun:Num",
    base_types.ADJ_FORM: "Adj:Form",
}


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
    """Produce the final type from both classifications and the edit context.

    Two combination rules cannot fire on the base types that
    :func:`~serrant.base.classify_base` gives, so they change no label of
    ``classify_edit`` and act only when ``combine`` is called directly:

    * the VERB:FORM noun-to-verb rule, since VERB:FORM is given only to
      one-to-one edits whose tokens are both VERB or AUX;
    * the PRON/DET crossing rule, since a PRON or DET base is given only
      when every token on both sides carries that one tag.

    Both are SERRANT's rules and are kept.
    """
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
    if multi_word and not (body.left.qualifiers or body.right.qualifiers):
        suffixes.append(MULTI_WORD)
    return SerrantType(op, render(body), tuple(suffixes))


def _pick_body(base: BaseType, sercl: SerclType, ctx: EditContext) -> str | SerclType:
    """The body a rule picks: a named body, or the tag or tag pair the label shows."""
    category = base.category
    _, src_tokens, trg_tokens, src_head, trg_head = ctx
    s = src_head.upos if src_head is not None else None
    t = trg_head.upos if trg_head is not None else None

    if category == base_types.OTHER:
        if _screened(s, t):
            return _NAMED_BODIES[base_types.OTHER]
        if s == "PROPN" and t == "PROPN":
            return _tag_body("PROPN")
        return _sercl_body(sercl)

    if category == base_types.MORPH:
        if {s, t} == {"ADJ", "PROPN"}:
            return _sercl_body(sercl)
        if _screened(s, t):
            return _NAMED_BODIES[base_types.OTHER]
        return _sercl_body(sercl)

    if category == base_types.ORTH:
        if not ctx.sentence_initial and t == "PROPN" and s != "PROPN":
            return _sercl_body(sercl)
        return _NAMED_BODIES[base_types.ORTH]

    # only a POS base carries a payload (BaseType)
    if base.pos_payload == "VERB":
        if s == "AUX" and t == "AUX":
            return _tag_body("AUX")
        if s == "AUX" or t == "AUX":
            return _sercl_body(sercl)
        return _tag_body("VERB")

    if category == base_types.VERB_FORM:
        if s == "NOUN" and t == "VERB":
            return _sercl_body(sercl)
        return _NAMED_BODIES[base_types.VERB_FORM]

    if base.pos_payload in ("PRON", "DET"):
        if {s, t} == {"PRON", "DET"}:
            return _sercl_body(sercl)
        return _tag_body(base.pos_payload)

    if category == base_types.VERB_TENSE:
        if _tense_anchored(src_tokens) and _tense_anchored(trg_tokens):
            return _NAMED_BODIES[base_types.VERB_TENSE]
        if (
            len(src_tokens) == 1
            and len(trg_tokens) == 1
            and src_tokens[0].form.lower() in MODAL_FORMS
            and trg_tokens[0].form.lower() in MODAL_FORMS
        ):
            return "Modal"
        return _sercl_body(sercl)

    if category == base_types.POS:
        return _tag_body(base.pos_payload)
    return _NAMED_BODIES[category]


def _screened(s: str | None, t: str | None) -> bool:
    """The OTHER and MORPH screen: an unreliable tag, or a proper noun on one side only."""
    return s in UNRELIABLE_TAGS or t in UNRELIABLE_TAGS or (s == "PROPN") != (t == "PROPN")


def _tense_anchored(tokens: tuple[Token, ...]) -> bool:
    return any(t.lemma in TENSE_LEMMAS or t.form.lower() == "will" for t in tokens)


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
