"""Second-stage tag pairs: head selection, collapsing, qualifiers, rendering."""

from __future__ import annotations

import pytest

from serrant.combine import build_context
from serrant.errors import AnnotationMissingError
from serrant.sercl import (
    GRANULARITY_UPOS,
    GRANULARITY_UPOS_FEATS,
    SerclSide,
    SerclType,
    classify_sercl,
    display_tag,
    qualifier_value,
    render,
    render_side,
)
from test_base import BUILDS, make_edit


def test_display_tag_capitalisation():
    assert display_tag("NOUN") == "Noun"
    assert display_tag("PROPN") == "Propn"
    assert display_tag("ADJ") == "Adj"


def test_qualifier_value_expansion():
    assert qualifier_value("Sing") == "singular"
    assert qualifier_value("Plur") == "plural"
    assert qualifier_value("3") == "third"
    assert qualifier_value("Cmp") == "comparative"
    assert qualifier_value("Yes") == "yes"  # unlisted values lowercase


def test_render_side_and_pair():
    left = SerclSide("NOUN", ("singular",))
    right = SerclSide("NOUN", ("plural",))
    assert render_side(left) == "Noun:singular"
    assert render(SerclType(left, right)) == "Noun:singular->Noun:plural"


def test_render_collapsed_pair():
    side = SerclSide("VERB")
    assert render(SerclType(side, side)) == "Verb"


def test_render_one_sided_pair():
    assert render(SerclType(SerclSide("VERB"), SerclSide(None))) == "Verb->None"
    assert render(SerclType(SerclSide(None), SerclSide("DET"))) == "None->Det"


def test_absent_side_rejects_qualifiers():
    for build in BUILDS.values():
        for qualifiers in [("singular",), ("x",)]:
            with pytest.raises(ValueError, match="^an absent side cannot carry qualifiers$"):
                build(SerclSide("NOUN"), (None, qualifiers))
        assert build(SerclSide("NOUN"), (None, ())) == SerclSide(None)


def test_replacement_pairs_the_two_heads():
    edit, src, trg = make_edit(
        [("pen", "pen", "NOUN", "Number=Sing")],
        [("Pen", "pen", "PROPN", "Number=Sing")],
        0,
        1,
        0,
        1,
    )
    got = classify_sercl(build_context(edit, src, trg))
    assert got == SerclType(SerclSide("NOUN"), SerclSide("PROPN"))
    assert not got.collapsed
    assert render(got) == "Noun->Propn"


def test_same_tags_collapse():
    edit, src, trg = make_edit(
        [("drive", "drive", "VERB", "Tense=Pres")],
        [("ride", "ride", "VERB", "Tense=Pres")],
        0,
        1,
        0,
        1,
    )
    got = classify_sercl(build_context(edit, src, trg))
    assert got.collapsed
    assert render(got) == "Verb"


def test_deletion_keeps_only_the_source_side():
    edit, src, trg = make_edit(
        [("we", "we", "PRON", ""), ("eat", "eat", "VERB", "Tense=Pres"), ("now", "now", "ADV", "")],
        [("we", "we", "PRON", ""), ("now", "now", "ADV", "")],
        1,
        2,
        1,
        1,
    )
    got = classify_sercl(build_context(edit, src, trg))
    assert got == SerclType(SerclSide("VERB"), SerclSide(None))


def test_insertion_keeps_only_the_correction_side():
    edit, src, trg = make_edit(
        [("we", "we", "PRON", ""), ("now", "now", "ADV", "")],
        [("we", "we", "PRON", ""), ("eat", "eat", "VERB", "Tense=Pres"), ("now", "now", "ADV", "")],
        1,
        1,
        1,
        2,
    )
    got = classify_sercl(build_context(edit, src, trg))
    assert got == SerclType(SerclSide(None), SerclSide("VERB"))


def test_multi_token_side_uses_span_head():
    # heads: "will" attaches to "go", "go" is the root, so "go" represents the span
    edit, src, trg = make_edit(
        [("will", "will", "AUX", ""), ("go", "go", "VERB", "VerbForm=Inf")],
        [("went", "go", "VERB", "Tense=Past")],
        0,
        2,
        0,
        1,
    )
    got = classify_sercl(build_context(edit, src, trg))
    assert got == SerclType(SerclSide("VERB"), SerclSide("VERB"))
    assert got.collapsed


def test_feats_granularity_qualifies_with_differing_shared_features():
    edit, src, trg = make_edit(
        [("cat", "cat", "NOUN", "Number=Sing")],
        [("cats", "cat", "NOUN", "Number=Plur")],
        0,
        1,
        0,
        1,
    )
    got = classify_sercl(build_context(edit, src, trg), GRANULARITY_UPOS_FEATS)
    assert got == SerclType(SerclSide("NOUN", ("singular",)), SerclSide("NOUN", ("plural",)))
    assert not got.collapsed
    assert render(got) == "Noun:singular->Noun:plural"


def test_feats_granularity_ignores_one_sided_features():
    # Person and Number exist only on the correction head, so they cannot qualify
    edit, src, trg = make_edit(
        [("eat", "eat", "VERB", "Tense=Pres")],
        [("eats", "eat", "VERB", "Number=Sing|Person=3|Tense=Pres")],
        0,
        1,
        0,
        1,
    )
    got = classify_sercl(build_context(edit, src, trg), GRANULARITY_UPOS_FEATS)
    assert got.collapsed
    assert render(got) == "Verb"


def test_feats_granularity_orders_qualifiers_by_feature_name():
    edit, src, trg = make_edit(
        [("was", "be", "AUX", "Number=Sing|Tense=Past")],
        [("are", "be", "AUX", "Number=Plur|Tense=Pres")],
        0,
        1,
        0,
        1,
    )
    got = classify_sercl(build_context(edit, src, trg), GRANULARITY_UPOS_FEATS)
    # Number sorts before Tense
    assert got.left.qualifiers == ("singular", "past")
    assert got.right.qualifiers == ("plural", "present")


def test_feats_granularity_never_qualifies_one_sided_edits():
    edit, src, trg = make_edit(
        [("we", "we", "PRON", ""), ("eat", "eat", "VERB", "Tense=Pres"), ("now", "now", "ADV", "")],
        [("we", "we", "PRON", ""), ("now", "now", "ADV", "")],
        1,
        2,
        1,
        1,
    )
    got = classify_sercl(build_context(edit, src, trg), GRANULARITY_UPOS_FEATS)
    assert got == SerclType(SerclSide("VERB"), SerclSide(None))


def test_upos_granularity_drops_qualifiers():
    edit, src, trg = make_edit(
        [("cat", "cat", "NOUN", "Number=Sing")],
        [("cats", "cat", "NOUN", "Number=Plur")],
        0,
        1,
        0,
        1,
    )
    got = classify_sercl(build_context(edit, src, trg), GRANULARITY_UPOS)
    assert got.collapsed
    assert render(got) == "Noun"


def test_source_side_is_independent_of_the_correction():
    variants = [
        [("ride", "ride", "VERB", "Tense=Pres")],
        [("rode", "ride", "VERB", "Tense=Past")],
        [("bicycle", "bicycle", "NOUN", "Number=Sing")],
    ]
    lefts = set()
    for trg_entries in variants:
        edit, src, trg = make_edit(
            [("drive", "drive", "VERB", "")], trg_entries, 0, 1, 0, 1
        )
        lefts.add(classify_sercl(build_context(edit, src, trg)).left)
    assert lefts == {SerclSide("VERB")}


def test_empty_edit_is_rejected():
    edit, src, trg = make_edit([("a", "a", "DET", "")], [("a", "a", "DET", "")], 0, 0, 0, 0)
    with pytest.raises(ValueError):
        classify_sercl(build_context(edit, src, trg))


def test_unknown_granularity_is_rejected():
    edit, src, trg = make_edit([("a", "a", "DET", "")], [("an", "a", "DET", "")], 0, 1, 0, 1)
    with pytest.raises(ValueError):
        classify_sercl(build_context(edit, src, trg), "chars")


def test_missing_annotation_is_an_error():
    edit, src, trg = make_edit([("a", "a", "DET", "")], [("an", "a", "DET", "")], 0, 1, 0, 1)
    with pytest.raises(AnnotationMissingError):
        classify_sercl(build_context(edit, None, trg))
    with pytest.raises(AnnotationMissingError):
        classify_sercl(build_context(edit, src, None))
