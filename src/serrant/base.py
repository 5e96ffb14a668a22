"""First-stage edit typing: a rule cascade in the style of ERRANT.

Each edit receives a :class:`BaseType`: either a named category (spelling,
orthography, morphology, the verb and noun inflection categories) or a
part-of-speech category carrying a surface tag.  The cascade is ordered;
the first matching rule wins.

At this stage AUX is folded into VERB (the combiner separates them again
from the head tags), ADP surfaces as PREP, and CCONJ/SCONJ surface as CONJ.

:class:`BaseType` is a named tuple whose constructor checks the values
callers build; ``_make``, ``_replace`` and unpickling go through it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .alignment import Edit
from .errors import ConfigurationError
from .ud import Token

if TYPE_CHECKING:
    from .combine import EditContext

SPELL = "SPELL"
ORTH = "ORTH"
MORPH = "MORPH"
VERB_TENSE = "VERB_TENSE"
VERB_FORM = "VERB_FORM"
VERB_INFL = "VERB_INFL"
VERB_SVA = "VERB_SVA"
NOUN_NUM = "NOUN_NUM"
ADJ_FORM = "ADJ_FORM"
POS = "POS"
OTHER = "OTHER"

_POS_CATEGORIES = frozenset(
    {SPELL, ORTH, MORPH, VERB_TENSE, VERB_FORM, VERB_INFL, VERB_SVA, NOUN_NUM, ADJ_FORM, POS, OTHER}
)

# UPOS tags renamed on the surface of part-of-speech categories
_SURFACE_TAG = {"ADP": "PREP", "CCONJ": "CONJ", "SCONJ": "CONJ", "AUX": "VERB"}


class _BaseFields(NamedTuple):
    category: str
    pos_payload: str | None = None


class BaseType(_BaseFields):
    """A first-stage category, and the surface tag of a part-of-speech category."""

    __slots__ = ()

    def __new__(cls, category: str, pos_payload: str | None = None) -> BaseType:
        if category not in _POS_CATEGORIES:
            raise ValueError(f"unknown base category {category!r}")
        if (category == POS) != (pos_payload is not None):
            raise ValueError("pos_payload must be present exactly for POS categories")
        return super().__new__(cls, category, pos_payload)

    # _make, and _replace through it, build with __new__ and so check the fields
    _make = classmethod(lambda cls, fields: cls(*fields))


def surface_tag(upos: str) -> str:
    """Map a UPOS tag to its surface name at the base stage."""
    return _SURFACE_TAG.get(upos, upos)


def load_wordlist(text: str) -> frozenset[str]:
    """Load a one-word-per-line wordlist, lowercasing each entry."""
    return frozenset(word.strip().lower() for word in text.split("\n") if word.strip())


def edit_distance(a: str, b: str) -> int:
    """Plain character-level Levenshtein distance."""
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


def detect_orthography(edit: Edit) -> bool:
    """True when both sides spell the same letters, ignoring case and spacing."""
    if not edit.src_tokens or not edit.span.correction:
        return False
    return "".join(edit.src_tokens).lower() == "".join(edit.span.correction).lower()


def detect_spelling(edit: Edit, wordlist: frozenset[str]) -> bool:
    """True for single-token replacements that look like spelling fixes.

    The source must be out of the wordlist, the correction in it, and the
    character distance within ``max(1, ceil(len(correction) / 4))``.  The
    distance is computed only when the lengths differ by no more than that,
    so its cost is bounded by the length of a wordlist word, whatever the
    length of the source.

    Raises:
        ConfigurationError: when no wordlist is supplied.
    """
    if wordlist is None:
        raise ConfigurationError("spelling detection requires a wordlist")
    if len(edit.src_tokens) != 1 or len(edit.span.correction) != 1:
        return False
    source = edit.src_tokens[0].lower()
    correction = edit.span.correction[0].lower()
    if source in wordlist or correction not in wordlist:
        return False
    limit = max(1, -(-len(correction) // 4))
    # the length gap is a lower bound of the distance
    if abs(len(source) - len(correction)) > limit:
        return False
    return edit_distance(source, correction) <= limit


def classify_base(ctx: EditContext, wordlist: frozenset[str] | None = None) -> BaseType:
    """Assign the first-stage category of an edit.

    When ``wordlist`` is None the spelling rule is skipped.
    """
    src_tokens, trg_tokens = ctx.src_tokens, ctx.trg_tokens

    # insertions and deletions type by the surviving side alone
    if not src_tokens or not trg_tokens:
        tags = {surface_tag(t.upos) for t in trg_tokens or src_tokens}
        if len(tags) == 1:
            return BaseType(POS, tags.pop())
        return BaseType(OTHER)

    if detect_orthography(ctx.edit):
        return BaseType(ORTH)

    if wordlist is not None and detect_spelling(ctx.edit, wordlist):
        return BaseType(SPELL)

    if len(src_tokens) == 1 and len(trg_tokens) == 1:
        return _one_to_one(src_tokens[0], trg_tokens[0])

    # multi-token replacement with one shared tag across both sides
    tags = {surface_tag(t.upos) for t in src_tokens} | {surface_tag(t.upos) for t in trg_tokens}
    if len(tags) == 1:
        src_head, trg_head = ctx.src_head, ctx.trg_head
        if _verbal(src_head) and _differ(src_head, trg_head, "Tense"):
            return BaseType(VERB_TENSE)
        return BaseType(POS, tags.pop())

    return BaseType(OTHER)


def _one_to_one(src: Token, trg: Token) -> BaseType:
    same_tag = surface_tag(src.upos) == surface_tag(trg.upos)
    if src.lemma == trg.lemma and same_tag:
        if src.upos == "NOUN" and trg.upos == "NOUN" and _differ(src, trg, "Number"):
            return BaseType(NOUN_NUM)
        if _verbal(src) and _differ(src, trg, "Tense"):
            return BaseType(VERB_TENSE)
        if _verbal(src) and _differ(src, trg, "VerbForm"):
            return BaseType(VERB_FORM)
        if _verbal(src) and (_differ(src, trg, "Person") or _differ(src, trg, "Number")):
            return BaseType(VERB_SVA)
        if src.upos == "ADJ" and trg.upos == "ADJ" and _differ(src, trg, "Degree"):
            return BaseType(ADJ_FORM)
        if src.upos == "VERB" and trg.upos == "VERB" and src.feats == trg.feats:
            return BaseType(VERB_INFL)
        return BaseType(POS, surface_tag(src.upos))
    if src.lemma == trg.lemma:
        return BaseType(MORPH)
    # different lemmas: auxiliary pairs behave like tense alternations
    if src.upos == "AUX" and trg.upos == "AUX":
        return BaseType(VERB_TENSE)
    if same_tag:
        return BaseType(POS, surface_tag(src.upos))
    return BaseType(OTHER)


def _verbal(token: Token) -> bool:
    """VERB or AUX, the two tags whose surface tag is VERB.

    Every caller has made both sides share one surface tag, so one token
    is verbal exactly when the other is.
    """
    return token.upos in ("VERB", "AUX")


def _differ(src: Token, trg: Token, feature: str) -> bool:
    return src.feats.get(feature) != trg.feats.get(feature)
