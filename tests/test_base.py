"""First-stage categories: orthography, spelling, and the rule cascade."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from serrant import base
from serrant.alignment import Edit
from serrant.base import (
    ADJ_FORM,
    MORPH,
    NOUN_NUM,
    ORTH,
    OTHER,
    POS,
    SPELL,
    VERB_FORM,
    VERB_INFL,
    VERB_SVA,
    VERB_TENSE,
    BaseType,
    classify_base,
    detect_orthography,
    detect_spelling,
    edit_distance,
    load_wordlist,
    surface_tag,
)
from serrant.combine import build_context
from serrant.errors import AnnotationMissingError, ConfigurationError
from serrant.m2 import EditSpan
from synthgen import Entry, annotate_entries


def make_edit(
    src_entries: list[Entry],
    trg_entries: list[Entry],
    start: int,
    end: int,
    cor_start: int,
    cor_end: int,
):
    src_sentence = annotate_entries(src_entries)
    trg_sentence = annotate_entries(trg_entries)
    src_forms = [e[0] for e in src_entries]
    trg_forms = [e[0] for e in trg_entries]
    edit = Edit(
        span=EditSpan(start, end, tuple(trg_forms[cor_start:cor_end])),
        src_tokens=tuple(src_forms[start:end]),
        cor_start=cor_start,
    )
    return edit, src_sentence, trg_sentence


def one_to_one(src_entry: Entry, trg_entry: Entry, wordlist=None) -> BaseType:
    context_src = [("we", "we", "PRON", ""), src_entry, ("now", "now", "ADV", "")]
    context_trg = [("we", "we", "PRON", ""), trg_entry, ("now", "now", "ADV", "")]
    edit, src, trg = make_edit(context_src, context_trg, 1, 2, 1, 2)
    return classify_base(build_context(edit, src, trg), wordlist)


def test_surface_tag_folding():
    assert surface_tag("ADP") == "PREP"
    assert surface_tag("CCONJ") == "CONJ"
    assert surface_tag("SCONJ") == "CONJ"
    assert surface_tag("AUX") == "VERB"
    assert surface_tag("NOUN") == "NOUN"


def test_edit_distance():
    assert edit_distance("", "") == 0
    assert edit_distance("abc", "abc") == 0
    assert edit_distance("werk", "work") == 1
    assert edit_distance("ab", "ba") == 2
    assert edit_distance("kitten", "sitting") == 3


def test_load_wordlist_normalises():
    assert load_wordlist("Work\n\n  pen \n") == frozenset({"work", "pen"})


def _bare_edit(src_tokens, correction):
    return Edit(
        span=EditSpan(0, len(src_tokens), tuple(correction)),
        src_tokens=tuple(src_tokens),
        cor_start=0,
    )


def test_detect_orthography_case_change():
    assert detect_orthography(_bare_edit(["Cat"], ["cat"]))


def test_detect_orthography_respacing():
    assert detect_orthography(_bare_edit(["air", "port"], ["airport"]))
    assert detect_orthography(_bare_edit(["airport"], ["air", "port"]))


def test_detect_orthography_rejects_true_rewrites():
    assert not detect_orthography(_bare_edit(["dog"], ["cat"]))
    assert not detect_orthography(_bare_edit(["a"], []))
    assert not detect_orthography(_bare_edit([], ["a"]))
    assert not detect_orthography(_bare_edit([], []))  # no letters on either side


WORDLIST = load_wordlist("work\npen\nnecessary\ntrap\neat")


def test_detect_spelling_accepts_close_oov_source():
    assert detect_spelling(_bare_edit(["werk"], ["work"]), WORDLIST)
    assert detect_spelling(_bare_edit(["necessry"], ["necessary"]), WORDLIST)
    # "within max(1, ceil(len(correction) / 4))" (docstring) includes the
    # limit: a length gap of 1 against the limit of 1 of a four-letter word
    assert detect_spelling(_bare_edit(["wrk"], ["work"]), WORDLIST)


def test_detect_spelling_rejects_known_source():
    assert not detect_spelling(_bare_edit(["work"], ["pen"]), WORDLIST)


def test_detect_spelling_rejects_oov_correction():
    assert not detect_spelling(_bare_edit(["werk"], ["werks"]), WORDLIST)


def test_detect_spelling_rejects_distant_forms():
    # the limit for a four letter correction is 1
    assert not detect_spelling(_bare_edit(["xyz"], ["work"]), WORDLIST)


def test_detect_spelling_rejects_multi_token_edits():
    assert not detect_spelling(_bare_edit(["we", "rk"], ["work"]), WORDLIST)
    # "single-token replacements" (docstring): one token on each side, so a
    # close source with a correction of two tokens is no spelling fix either
    assert not detect_spelling(_bare_edit(["wrk"], ["work", "hard"]), WORDLIST)


def _old_detect_spelling(source: str, correction: str, wordlist: frozenset[str]) -> bool:
    """The spelling rule as it was before it stopped at the length gap."""
    source, correction = source.lower(), correction.lower()
    if source in wordlist or correction not in wordlist:
        return False
    return edit_distance(source, correction) <= max(1, -(-len(correction) // 4))


@given(
    data=st.data(),
    longest=st.sampled_from([12, 40]),
    in_wordlist=st.sets(st.sampled_from(["source", "correction"])),
)
def test_detect_spelling_agrees_with_the_distance_it_skips(data, longest, in_wordlist):
    token = st.text(alphabet="abA", min_size=1, max_size=longest)
    source, correction = data.draw(token), data.draw(token)
    tokens = {"source": source, "correction": correction}
    wordlist = load_wordlist("\n".join(tokens[name] for name in in_wordlist))
    assert detect_spelling(_bare_edit([source], [correction]), wordlist) == (
        _old_detect_spelling(source, correction, wordlist)
    )


def test_detect_spelling_skips_the_distance_of_a_long_source(monkeypatch):
    sources = []
    distance = base.edit_distance
    monkeypatch.setattr(base, "edit_distance", lambda a, b: sources.append(a) or distance(a, b))
    assert not detect_spelling(_bare_edit(["w" * 200_000], ["work"]), WORDLIST)
    assert detect_spelling(_bare_edit(["werk"], ["work"]), WORDLIST)
    assert sources == ["werk"]


def test_detect_spelling_requires_wordlist():
    with pytest.raises(ConfigurationError):
        detect_spelling(_bare_edit(["werk"], ["work"]), None)


def test_one_sided_edit_types_by_surviving_tag():
    edit, src, trg = make_edit(
        [("we", "we", "PRON", ""), ("the", "the", "DET", ""), ("cat", "cat", "NOUN", "")],
        [("we", "we", "PRON", ""), ("cat", "cat", "NOUN", "")],
        1,
        2,
        1,
        1,
    )
    assert classify_base(build_context(edit, src, trg)) == BaseType(POS, "DET")


def test_one_sided_edit_folds_surface_tags():
    edit, src, trg = make_edit(
        [("we", "we", "PRON", ""), ("go", "go", "VERB", "")],
        [("we", "we", "PRON", ""), ("in", "in", "ADP", ""), ("go", "go", "VERB", "")],
        1,
        1,
        1,
        2,
    )
    assert classify_base(build_context(edit, src, trg)) == BaseType(POS, "PREP")


def test_one_sided_mixed_tags_fall_back_to_other():
    edit, src, trg = make_edit(
        [("we", "we", "PRON", ""), ("the", "the", "DET", ""), ("cat", "cat", "NOUN", ""), ("go", "go", "VERB", "")],
        [("we", "we", "PRON", ""), ("go", "go", "VERB", "")],
        1,
        3,
        1,
        1,
    )
    assert classify_base(build_context(edit, src, trg)) == BaseType(OTHER)


def test_one_sided_conjunction_fold():
    edit, src, trg = make_edit(
        [("go", "go", "VERB", ""), ("and", "and", "CCONJ", "")],
        [("go", "go", "VERB", "")],
        1,
        2,
        1,
        1,
    )
    assert classify_base(build_context(edit, src, trg)) == BaseType(POS, "CONJ")


def test_orthography_beats_everything_downstream():
    got = one_to_one(("pen", "pen", "NOUN", "Number=Sing"), ("Pen", "pen", "PROPN", "Number=Sing"))
    assert got == BaseType(ORTH)


def test_spelling_fires_after_orthography():
    got = one_to_one(("werk", "werk", "NOUN", ""), ("work", "work", "VERB", ""), WORDLIST)
    assert got == BaseType(SPELL)


def test_spelling_skipped_without_wordlist():
    got = one_to_one(("werk", "werk", "NOUN", ""), ("work", "work", "VERB", ""))
    assert got == BaseType(OTHER)


def test_noun_number():
    got = one_to_one(("cat", "cat", "NOUN", "Number=Sing"), ("cats", "cat", "NOUN", "Number=Plur"))
    assert got == BaseType(NOUN_NUM)


def test_verb_tense():
    got = one_to_one(
        ("eat", "eat", "VERB", "Tense=Pres|VerbForm=Fin"),
        ("ate", "eat", "VERB", "Tense=Past|VerbForm=Fin"),
    )
    assert got == BaseType(VERB_TENSE)


def test_verb_form():
    got = one_to_one(("eat", "eat", "VERB", "VerbForm=Inf"), ("eating", "eat", "VERB", "VerbForm=Ger"))
    assert got == BaseType(VERB_FORM)


def test_verb_agreement():
    got = one_to_one(
        ("eat", "eat", "VERB", "Tense=Pres|VerbForm=Fin"),
        ("eats", "eat", "VERB", "Number=Sing|Person=3|Tense=Pres|VerbForm=Fin"),
    )
    assert got == BaseType(VERB_SVA)
    # a Person or a Number change is agreement: either one alone is enough
    got = one_to_one(
        ("is", "be", "AUX", "Mood=Ind|Number=Sing|Person=3|Tense=Pres"),
        ("are", "be", "AUX", "Mood=Ind|Number=Plur|Person=3|Tense=Pres"),
    )
    assert got == BaseType(VERB_SVA)
    got = one_to_one(
        ("am", "be", "AUX", "Mood=Ind|Number=Sing|Person=1|Tense=Pres"),
        ("is", "be", "AUX", "Mood=Ind|Number=Sing|Person=3|Tense=Pres"),
    )
    assert got == BaseType(VERB_SVA)


def test_adjective_degree():
    got = one_to_one(("big", "big", "ADJ", "Degree=Pos"), ("bigger", "big", "ADJ", "Degree=Cmp"))
    assert got == BaseType(ADJ_FORM)
    # a Degree change between two adjectives only: an adverb keeps its tag
    got = one_to_one(("fast", "fast", "ADV", "Degree=Pos"), ("faster", "fast", "ADV", "Degree=Cmp"))
    assert got == BaseType(POS, "ADV")


def test_verb_inflection_identical_features():
    got = one_to_one(
        ("writed", "write", "VERB", "Tense=Past"),
        ("wrote", "write", "VERB", "Tense=Past"),
    )
    assert got == BaseType(VERB_INFL)


def test_same_lemma_same_tag_without_feature_signal():
    got = one_to_one(("he", "he", "PRON", "Case=Nom"), ("him", "he", "PRON", "Case=Acc"))
    assert got == BaseType(POS, "PRON")


def test_same_lemma_tag_cross_is_morphology():
    got = one_to_one(("trap", "trap", "NOUN", "Number=Sing"), ("trapped", "trap", "VERB", "Tense=Past"))
    assert got == BaseType(MORPH)


def test_auxiliary_pair_reads_as_tense():
    got = one_to_one(("should", "should", "AUX", ""), ("shall", "shall", "AUX", ""))
    assert got == BaseType(VERB_TENSE)
    got = one_to_one(
        ("is", "be", "AUX", "Number=Sing|Person=3|Tense=Pres"),
        ("has", "have", "AUX", "Number=Sing|Person=3|Tense=Pres"),
    )
    assert got == BaseType(VERB_TENSE)


def test_lemma_change_same_tag_is_pos():
    got = one_to_one(("drive", "drive", "VERB", "Tense=Pres"), ("ride", "ride", "VERB", "Tense=Pres"))
    assert got == BaseType(POS, "VERB")
    got = one_to_one(("of", "of", "ADP", ""), ("in", "in", "ADP", ""))
    assert got == BaseType(POS, "PREP")


def test_auxiliary_to_verb_folds_to_pos():
    got = one_to_one(("is", "be", "AUX", "Tense=Pres"), ("runs", "run", "VERB", "Tense=Pres"))
    assert got == BaseType(POS, "VERB")


def test_lemma_and_tag_change_is_other():
    got = one_to_one(("these", "this", "PRON", "Number=Plur"), ("their", "they", "DET", "Poss=Yes"))
    assert got == BaseType(OTHER)


def test_multi_token_verbal_tense_change():
    edit, src, trg = make_edit(
        [("will", "will", "AUX", ""), ("go", "go", "VERB", "VerbForm=Inf")],
        [("went", "go", "VERB", "Tense=Past")],
        0,
        2,
        0,
        1,
    )
    assert classify_base(build_context(edit, src, trg)) == BaseType(VERB_TENSE)


def test_multi_token_shared_tag_without_tense_change():
    edit, src, trg = make_edit(
        [("cat", "cat", "NOUN", "Number=Sing"), ("dog", "dog", "NOUN", "Number=Sing")],
        [("dogs", "dog", "NOUN", "Number=Plur")],
        0,
        2,
        0,
        1,
    )
    assert classify_base(build_context(edit, src, trg)) == BaseType(POS, "NOUN")
    # VERB_TENSE needs verbal heads that differ in Tense; both heads here are "going"
    edit, src, trg = make_edit(
        [("it", "it", "PRON", ""), ("is", "be", "AUX", "Tense=Pres"), ("going", "go", "VERB", "VerbForm=Ger")],
        [("it", "it", "PRON", ""), ("was", "be", "AUX", "Tense=Past"), ("going", "go", "VERB", "VerbForm=Ger")],
        1,
        3,
        1,
        3,
    )
    assert classify_base(build_context(edit, src, trg)) == BaseType(POS, "VERB")


def test_multi_token_mixed_tags_are_other():
    edit, src, trg = make_edit(
        [("in", "in", "ADP", ""), ("house", "house", "NOUN", "Number=Sing")],
        [("at", "at", "ADP", ""), ("home", "home", "NOUN", "Number=Sing")],
        0,
        2,
        0,
        2,
    )
    assert classify_base(build_context(edit, src, trg)) == BaseType(OTHER)


def test_missing_annotation_is_an_error():
    edit = _bare_edit(["a"], ["b"])
    with pytest.raises(AnnotationMissingError):
        classify_base(build_context(edit, None, annotate_entries([("b", "b", "NOUN", "")])))


def test_empty_edit_is_rejected():
    edit = Edit(span=EditSpan(0, 0, ()), src_tokens=(), cor_start=0)
    with pytest.raises(ValueError):
        classify_base(build_context(edit, None, None))


# Every way to build a value with the fields of a valid one of its type
# replaced: the constructor, _make, _replace, and unpickling (as a --jobs
# worker does with what the parent sends it).
BUILDS = {
    "constructor": lambda valid, fields: type(valid)(*fields),
    "_make": lambda valid, fields: type(valid)._make(fields),
    "_replace": lambda valid, fields: valid._replace(**dict(zip(valid._fields, fields))),
    "pickle": lambda valid, fields: pickle.loads(pickle.dumps(tuple.__new__(type(valid), fields))),
}


@pytest.mark.parametrize("build", list(BUILDS))
@pytest.mark.parametrize(
    "category, payload, message",
    [
        ("NOPE", None, "unknown base category 'NOPE'"),
        (POS, None, "pos_payload must be present exactly for POS categories"),
        (OTHER, "DET", "pos_payload must be present exactly for POS categories"),
    ],
)
def test_base_type_checks_its_category_and_payload(category, payload, message, build):
    with pytest.raises(ValueError) as info:
        BUILDS[build](BaseType(OTHER), (category, payload))
    assert str(info.value) == message
