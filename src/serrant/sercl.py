"""Second-stage edit typing: SErCl tag pairs.

An edit's SErCl type pairs the annotation of the source span's head with
the annotation of the correction span's head, written source -> correction.
A side missing entirely (insertion or deletion) is None.  When both sides
carry the same annotation the pair collapses to a single tag.  :func:`render`
always writes the ASCII arrow ``->``; ``--arrow unicode`` is applied in one
place, when ``combine.SerrantType.render`` writes the final label.

At the ``upos+feats`` granularity each side is qualified with the values of
the morphological features that are present on both heads but disagree,
ordered by feature name.  Values are written out long and lowercased
(``Number=Sing`` becomes ``singular``); an unlisted value falls back to its
lowercased spelling.  One-sided types never carry qualifiers, since there
is no second head to disagree with.

Types are shared values: :func:`classify_sercl` and :func:`shared_type`
hand out one :class:`SerclType` per tag and qualifier strings, and
:func:`render` keeps the text of the types it rendered, each from a cache
of at most :data:`_SHARED_SIZE` entries.  Both are named tuples, and a
:class:`SerclSide` hashes and compares as its ``(tag, qualifiers)`` pair,
so the caches key on the sides themselves.  The side's constructor checks
the values callers build; ``_make``, ``_replace`` and unpickling go
through it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .combine import EditContext

GRANULARITY_UPOS = "upos"
GRANULARITY_UPOS_FEATS = "upos+feats"
GRANULARITIES = (GRANULARITY_UPOS, GRANULARITY_UPOS_FEATS)

ARROW_ASCII = "->"
ARROW_UNICODE = "→"

FEATURE_VALUE_NAMES = {
    "Sing": "singular",
    "Plur": "plural",
    "Dual": "dual",
    "Pres": "present",
    "Past": "past",
    "Fut": "future",
    "Fin": "finite",
    "Inf": "infinitive",
    "Ger": "gerund",
    "Part": "participle",
    "Imp": "imperative",
    "Ind": "indicative",
    "Sub": "subjunctive",
    "Pos": "positive",
    "Cmp": "comparative",
    "Sup": "superlative",
    "Masc": "masculine",
    "Fem": "feminine",
    "Neut": "neuter",
    "Nom": "nominative",
    "Acc": "accusative",
    "Dat": "dative",
    "Gen": "genitive",
    "1": "first",
    "2": "second",
    "3": "third",
}


class _SideFields(NamedTuple):
    tag: str | None
    qualifiers: tuple[str, ...] = ()


class SerclSide(_SideFields):
    """One side of a type: a UPOS tag (None for an absent side) plus qualifiers."""

    __slots__ = ()

    def __new__(cls, tag: str | None, qualifiers: tuple[str, ...] = ()) -> SerclSide:
        if tag is None and qualifiers:
            raise ValueError("an absent side cannot carry qualifiers")
        return super().__new__(cls, tag, qualifiers)

    # _make, and _replace through it, build with __new__ and so check the fields
    _make = classmethod(lambda cls, fields: cls(*fields))


class SerclType(NamedTuple):
    left: SerclSide
    right: SerclSide

    @property
    def collapsed(self) -> bool:
        return self.left == self.right


def display_tag(upos: str) -> str:
    """Canonical capitalisation of a tag: NOUN -> Noun, PROPN -> Propn."""
    return upos.capitalize()


def qualifier_value(value: str) -> str:
    return FEATURE_VALUE_NAMES.get(value, value.lower())


def render_side(side: SerclSide) -> str:
    if side.tag is None:
        return "None"
    text = display_tag(side.tag)
    if side.qualifiers:
        text += ":" + ":".join(side.qualifiers)
    return text


def render(sercl: SerclType) -> str:
    """Render a type: a single tag when collapsed, else ``left->right``.

    ``SerrantType.render`` swaps in the unicode arrow where a run asks for it.
    """
    return _rendered(sercl.left, sercl.right)


# The most types shared_type and render each hold, least recently used
# first out (about 1.2 MB for both when full, with one qualifier a side):
# at ``upos`` the 17 tags and the absent side make 324 pairs, and at
# ``upos+feats`` each qualifier is an input FEATS value.
_SHARED_SIZE = 1 << 10

# one side of a type as the caches key it: a SerclSide, or its tag and
# qualifiers as a plain pair, which hashes and compares equal to it
_Side = tuple[str | None, tuple[str, ...]]


@lru_cache(maxsize=_SHARED_SIZE)
def _rendered(left: SerclSide, right: SerclSide) -> str:
    """The text of a type, kept for the last :data:`_SHARED_SIZE` types rendered."""
    text = render_side(left)
    return text if left == right else f"{text}{ARROW_ASCII}{render_side(right)}"


@lru_cache(maxsize=_SHARED_SIZE)
def shared_type(left: _Side, right: _Side) -> SerclType:
    """The one :class:`SerclType` of two sides, kept for the last :data:`_SHARED_SIZE` asked."""
    return SerclType(SerclSide(*left), SerclSide(*right))


def classify_sercl(ctx: EditContext, granularity: str = GRANULARITY_UPOS) -> SerclType:
    """Type an edit by its span heads.

    Raises:
        ValueError: for an unknown granularity.
    """
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity {granularity!r}")
    src_head, trg_head = ctx.src_head, ctx.trg_head

    left_quals: tuple[str, ...] = ()
    right_quals: tuple[str, ...] = ()
    if granularity == GRANULARITY_UPOS_FEATS and src_head is not None and trg_head is not None:
        shared = sorted(set(src_head.feats) & set(trg_head.feats))
        differing = [name for name in shared if src_head.feats[name] != trg_head.feats[name]]
        left_quals = tuple(qualifier_value(src_head.feats[name]) for name in differing)
        right_quals = tuple(qualifier_value(trg_head.feats[name]) for name in differing)

    left = (src_head.upos, left_quals) if src_head is not None else (None, ())
    right = (trg_head.upos, right_quals) if trg_head is not None else (None, ())
    return shared_type(left, right)
