"""Combination rules, operation prefixes, and type suffixes."""

from __future__ import annotations

import importlib
import pickle

import pytest

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
)
from serrant.combine import (
    _RULES,
    MODAL_FORMS,
    EditContext,
    SerrantType,
    build_context,
    combine,
)
from serrant.m2 import EditSpan
from serrant.pipeline import PipelineConfig, PipelineInputs, classify_edit
from serrant.sercl import (
    ARROW_UNICODE,
    GRANULARITY_UPOS_FEATS,
    SerclSide,
    SerclType,
    classify_sercl,
)
from serrant.ud import Token, fallback_annotate
from test_base import WORDLIST, make_edit


def typed(src_entries, trg_entries, start, end, cor_start, cor_end, **kwargs):
    edit, src, trg = make_edit(src_entries, trg_entries, start, end, cor_start, cor_end)
    wordlist = kwargs.get("wordlist", WORDLIST)
    granularity = kwargs.get("granularity", "upos")
    return classify_edit(edit, src, trg, wordlist, granularity).render(
        kwargs.get("arrow", "->")
    )


def context(
    *,
    sentence_initial=False,
    src_forms=("x",),
    trg_forms=("y",),
    src_lemmas=None,
    trg_lemmas=None,
    src_head_upos="NOUN",
    trg_head_upos="NOUN",
    src_head_lemma="x",
    trg_head_lemma="y",
):
    def side(forms, lemmas, head_upos, head_lemma):
        lemmas = lemmas if lemmas is not None else forms
        tokens = tuple(
            Token(i, form, lemma, head_upos) for i, (form, lemma) in enumerate(zip(forms, lemmas))
        )
        head = Token(0, forms[0], head_lemma, head_upos) if head_upos is not None else None
        return tokens, head

    start = 0 if sentence_initial else 1
    edit = Edit(EditSpan(start, start + len(src_forms), tuple(trg_forms)), tuple(src_forms), start)
    src_tokens, src_head = side(src_forms, src_lemmas, src_head_upos, src_head_lemma)
    trg_tokens, trg_head = side(trg_forms, trg_lemmas, trg_head_upos, trg_head_lemma)
    return EditContext(edit, src_tokens, trg_tokens, src_head, trg_head)


def pair(left, right):
    return SerclType(SerclSide(left), SerclSide(right))


def test_render_with_suffixes_and_arrows():
    t = SerrantType("R", "Noun->Propn", ("MW",))
    assert t.render() == "R:Noun->Propn:MW"
    assert t.render(ARROW_UNICODE) == "R:Noun→Propn:MW"
    assert SerrantType("R", "Verb:Tense").render(ARROW_UNICODE) == "R:Verb:Tense"
    assert t == ("R", "Noun->Propn", ("MW",))
    assert pickle.loads(pickle.dumps(t)) == t
    assert t._replace(suffixes=()).render() == "R:Noun->Propn"


def test_operation_prefix_follows_edit_shape():
    # replacement, deletion, insertion of a determiner
    we = ("we", "we", "PRON", "")
    eat = ("eat", "eat", "VERB", "Tense=Pres")
    the = ("the", "the", "DET", "")
    a = ("a", "a", "DET", "")
    an = ("an", "a", "DET", "")
    assert typed([we, eat, a], [we, eat, an], 2, 3, 2, 3) == "R:Det"
    assert typed([we, eat, the], [we, eat], 2, 3, 2, 2) == "U:Det"
    assert typed([we, eat], [we, eat, the], 2, 2, 2, 3) == "M:Det"


# --- rule 1: OTHER bases adopt the tag pair, with screens -----------------


def test_other_base_becomes_tag_pair():
    got = typed(
        [("these", "this", "PRON", "Number=Plur"), ("go", "go", "VERB", "")],
        [("their", "they", "DET", "Poss=Yes"), ("go", "go", "VERB", "")],
        0,
        1,
        0,
        1,
    )
    assert got == "R:Pron->Det"


def test_other_base_with_unreliable_head_stays_other():
    got = typed(
        [("we", "we", "PRON", ""), ("two", "two", "NUM", "NumType=Card")],
        [("we", "we", "PRON", ""), ("oh", "oh", "INTJ", "")],
        1,
        2,
        1,
        2,
    )
    assert got == "R:Other"


def test_other_base_propn_mismatch_stays_other():
    got = typed(
        [("see", "see", "VERB", ""), ("Paris", "paris", "PROPN", "")],
        [("see", "see", "VERB", ""), ("cities", "city", "NOUN", "Number=Plur")],
        1,
        2,
        1,
        2,
    )
    assert got == "R:Other"


def test_other_base_double_propn_collapses():
    base = BaseType(OTHER)
    sercl = pair("PROPN", "PROPN")
    ctx = context(
        src_forms=("New", "York"),
        trg_forms=("Boston",),
        src_head_upos="PROPN",
        trg_head_upos="PROPN",
        src_head_lemma="york",
        trg_head_lemma="boston",
    )
    got = combine(base, sercl, ctx)
    assert got == SerrantType("R", "Propn", ("WC", "MW"))


def test_other_base_double_propn_collapses_over_differing_features():
    # the PROPN pair rule, not the SErCl pair, which would show the Number values
    got = typed(
        [
            ("see", "see", "VERB", ""),
            ("the", "the", "DET", ""),
            ("Paris", "paris", "PROPN", "Number=Sing"),
        ],
        [("see", "see", "VERB", ""), ("Londons", "london", "PROPN", "Number=Plur")],
        1,
        3,
        1,
        2,
        granularity=GRANULARITY_UPOS_FEATS,
    )
    assert got == "R:Propn:WC:MW"


# --- rule 2: MORPH bases adopt the tag pair, with screens ------------------


def test_morph_base_becomes_tag_pair():
    got = typed(
        [("they", "they", "PRON", ""), ("trap", "trap", "NOUN", "Number=Sing")],
        [("they", "they", "PRON", ""), ("trapped", "trap", "VERB", "Tense=Past")],
        1,
        2,
        1,
        2,
    )
    assert got == "R:Noun->Verb"


def test_morph_adjective_propn_cross_keeps_pair():
    got = typed(
        [("the", "the", "DET", ""), ("english", "england", "ADJ", "")],
        [("the", "the", "DET", ""), ("England", "england", "PROPN", "")],
        1,
        2,
        1,
        2,
    )
    assert got == "R:Adj->Propn"


def test_morph_propn_mismatch_stays_other():
    got = typed(
        [("see", "see", "VERB", ""), ("Paris", "paris", "PROPN", "")],
        [("see", "see", "VERB", ""), ("parisian", "paris", "NOUN", "Number=Sing")],
        1,
        2,
        1,
        2,
    )
    assert got == "R:Other"


def test_morph_unreliable_head_stays_other():
    got = typed(
        [("go", "go", "VERB", ""), ("two", "two", "NUM", "NumType=Card")],
        [("go", "go", "VERB", ""), ("twice", "two", "ADV", "")],
        1,
        2,
        1,
        2,
    )
    assert got == "R:Other"


# --- rule 3: ORTH bases and proper noun recapitalisation -------------------


def test_orth_plain_case_change():
    got = typed(
        [("we", "we", "PRON", ""), ("See", "see", "VERB", "")],
        [("we", "we", "PRON", ""), ("see", "see", "VERB", "")],
        1,
        2,
        1,
        2,
    )
    assert got == "R:Orth"


def test_orth_to_propn_mid_sentence_becomes_pair():
    got = typed(
        [("for", "for", "ADP", ""), ("pen", "pen", "NOUN", "Number=Sing")],
        [("for", "for", "ADP", ""), ("Pen", "pen", "PROPN", "Number=Sing")],
        1,
        2,
        1,
        2,
    )
    assert got == "R:Noun->Propn"


def test_orth_to_propn_sentence_initially_stays_orth():
    got = typed(
        [("gilly", "gilly", "NOUN", "Number=Sing"), ("ran", "run", "VERB", "")],
        [("Gilly", "gilly", "PROPN", "Number=Sing"), ("ran", "run", "VERB", "")],
        0,
        1,
        0,
        1,
    )
    assert got == "R:Orth"


def test_orth_propn_case_fix_stays_orth():
    got = typed(
        [("in", "in", "ADP", ""), ("PARIS", "paris", "PROPN", "")],
        [("in", "in", "ADP", ""), ("Paris", "paris", "PROPN", "")],
        1,
        2,
        1,
        2,
    )
    assert got == "R:Orth"


def test_orth_respacing_takes_no_multi_word_suffix():
    got = typed(
        [("an", "a", "DET", ""), ("air", "air", "NOUN", ""), ("port", "port", "NOUN", "")],
        [("an", "a", "DET", ""), ("airport", "airport", "NOUN", "")],
        1,
        3,
        1,
        2,
    )
    assert got == "R:Orth"


# --- rule 4: auxiliaries split back out of VERB bases -----------------------


def test_verb_base_with_auxiliary_heads_is_aux():
    base = BaseType(POS, "VERB")
    sercl = pair("AUX", "AUX")
    ctx = context(
        src_forms=("is",),
        trg_forms=("was",),
        src_head_upos="AUX",
        trg_head_upos="AUX",
        src_head_lemma="be",
        trg_head_lemma="be",
    )
    assert combine(base, sercl, ctx) == SerrantType("R", "Aux")


def test_auxiliary_heads_are_aux_over_differing_features():
    # "two auxiliary heads are Aux" (the rule table), not the qualified pair
    # that the mixed-replacement row would give at upos+feats
    got = typed(
        [("if", "if", "SCONJ", ""), ("I", "i", "PRON", ""), ("was", "be", "AUX", "Mood=Ind|Tense=Past")],
        [("if", "if", "SCONJ", ""), ("I", "i", "PRON", ""), ("were", "be", "AUX", "Mood=Sub|Tense=Past")],
        2,
        3,
        2,
        3,
        granularity=GRANULARITY_UPOS_FEATS,
    )
    assert got == "R:Aux"


def test_one_sided_auxiliary_is_aux():
    got = typed(
        [("we", "we", "PRON", ""), ("can", "can", "AUX", ""), ("go", "go", "VERB", "")],
        [("we", "we", "PRON", ""), ("go", "go", "VERB", "")],
        1,
        2,
        1,
        1,
    )
    assert got == "U:Aux"


def test_mixed_auxiliary_replacement_keeps_pair():
    got = typed(
        [("it", "it", "PRON", ""), ("is", "be", "AUX", "Tense=Pres")],
        [("it", "it", "PRON", ""), ("runs", "run", "VERB", "Tense=Pres")],
        1,
        2,
        1,
        2,
    )
    assert got == "R:Aux->Verb"


def test_plain_verb_replacement_with_word_choice():
    got = typed(
        [("I", "i", "PRON", ""), ("drive", "drive", "VERB", "Tense=Pres")],
        [("I", "i", "PRON", ""), ("ride", "ride", "VERB", "Tense=Pres")],
        1,
        2,
        1,
        2,
    )
    assert got == "R:Verb:WC"
    # "one [auxiliary head] is the pair" (the rule table): only a mixed
    # replacement, so two verbs keep Verb at upos+feats, whatever features differ
    got = typed(
        [("I", "i", "PRON", ""), ("drove", "drive", "VERB", "Tense=Past")],
        [("I", "i", "PRON", ""), ("ride", "ride", "VERB", "Tense=Pres")],
        1,
        2,
        1,
        2,
        granularity=GRANULARITY_UPOS_FEATS,
    )
    assert got == "R:Verb:WC"


def test_deleted_verb_keeps_single_tag():
    got = typed(
        [("we", "we", "PRON", ""), ("eat", "eat", "VERB", "Tense=Pres"), ("now", "now", "ADV", "")],
        [("we", "we", "PRON", ""), ("now", "now", "ADV", "")],
        1,
        2,
        1,
        1,
    )
    assert got == "U:Verb"


# --- rule 5: derivational VERB:FORM cases keep the pair ---------------------


def test_verb_form_noun_to_verb_heads_keep_pair():
    base = BaseType(VERB_FORM)
    sercl = pair("NOUN", "VERB")
    ctx = context(src_head_upos="NOUN", trg_head_upos="VERB", src_head_lemma="trap", trg_head_lemma="trap")
    assert combine(base, sercl, ctx) == SerrantType("R", "Noun->Verb")


def test_verb_form_otherwise_named():
    base = BaseType(VERB_FORM)
    sercl = pair("VERB", "VERB")
    ctx = context(src_head_upos="VERB", trg_head_upos="VERB", src_head_lemma="eat", trg_head_lemma="eat")
    assert combine(base, sercl, ctx) == SerrantType("R", "Verb:Form")


def test_verb_form_via_classifier():
    got = typed(
        [("to", "to", "ADP", ""), ("eat", "eat", "VERB", "VerbForm=Inf")],
        [("to", "to", "ADP", ""), ("eating", "eat", "VERB", "VerbForm=Ger")],
        1,
        2,
        1,
        2,
    )
    assert got == "R:Verb:Form"


# --- rule 6: pronoun/determiner crosses keep the pair -----------------------


def test_pronoun_determiner_cross_keeps_pair():
    base = BaseType(POS, "PRON")
    sercl = pair("PRON", "DET")
    ctx = context(src_head_upos="PRON", trg_head_upos="DET", src_head_lemma="this", trg_head_lemma="the")
    # pair bodies are exempt from the word choice suffix
    assert combine(base, sercl, ctx) == SerrantType("R", "Pron->Det")


def test_determiner_base_without_cross_keeps_tag():
    base = BaseType(POS, "DET")
    sercl = pair("DET", "DET")
    ctx = context(src_head_upos="DET", trg_head_upos="DET", src_head_lemma="a", trg_head_lemma="the")
    assert combine(base, sercl, ctx) == SerrantType("R", "Det", ("WC",))
    # at upos+feats too, where the pair would show the Definite values
    got = typed(
        [("see", "see", "VERB", ""), ("a", "a", "DET", "Definite=Ind")],
        [("see", "see", "VERB", ""), ("the", "the", "DET", "Definite=Def")],
        1,
        2,
        1,
        2,
        granularity=GRANULARITY_UPOS_FEATS,
    )
    assert got == "R:Det:WC"


def test_pronoun_replacement_same_lemma_has_no_word_choice():
    # "heads that cross between pronoun and determiner keep the pair" (the
    # rule table): two pronouns keep Pron at upos+feats too, where the pair
    # would show the Case values
    for granularity in ("upos", GRANULARITY_UPOS_FEATS):
        got = typed(
            [("see", "see", "VERB", ""), ("he", "he", "PRON", "Case=Nom")],
            [("see", "see", "VERB", ""), ("him", "he", "PRON", "Case=Acc")],
            1,
            2,
            1,
            2,
            granularity=granularity,
        )
        assert got == "R:Pron"


# --- rule 7: tense bases split into Verb:Tense, Modal, and the pair ---------


def test_tense_anchored_by_be_and_have():
    got = typed(
        [("it", "it", "PRON", ""), ("is", "be", "AUX", "Tense=Pres")],
        [("it", "it", "PRON", ""), ("has", "have", "AUX", "Tense=Pres")],
        1,
        2,
        1,
        2,
    )
    assert got == "R:Verb:Tense"


def test_tense_anchored_by_will_form():
    got = typed(
        [("it", "it", "PRON", ""), ("will", "will", "AUX", "")],
        [("it", "it", "PRON", ""), ("was", "be", "AUX", "Tense=Past")],
        1,
        2,
        1,
        2,
    )
    assert got == "R:Verb:Tense"


def test_modal_pair():
    got = typed(
        [("I", "i", "PRON", ""), ("should", "should", "AUX", ""), ("go", "go", "VERB", "")],
        [("I", "i", "PRON", ""), ("shall", "shall", "AUX", ""), ("go", "go", "VERB", "")],
        1,
        2,
        1,
        2,
    )
    assert got == "R:Modal"


def test_modal_beats_half_anchored_will():
    got = typed(
        [("I", "i", "PRON", ""), ("will", "will", "AUX", ""), ("go", "go", "VERB", "")],
        [("I", "i", "PRON", ""), ("would", "would", "AUX", ""), ("go", "go", "VERB", "")],
        1,
        2,
        1,
        2,
    )
    assert got == "R:Modal"


def test_plain_tense_change_collapses_to_verb():
    got = typed(
        [("I", "i", "PRON", ""), ("eat", "eat", "VERB", "Tense=Pres|VerbForm=Fin")],
        [("I", "i", "PRON", ""), ("ate", "eat", "VERB", "Tense=Past|VerbForm=Fin")],
        1,
        2,
        1,
        2,
    )
    assert got == "R:Verb"


def test_multi_token_tense_change_takes_multi_word_suffix():
    got = typed(
        [("will", "will", "AUX", ""), ("go", "go", "VERB", "VerbForm=Inf")],
        [("went", "go", "VERB", "Tense=Past")],
        0,
        2,
        0,
        1,
    )
    assert got == "R:Verb:MW"


def test_modal_forms_cover_the_nine_modals():
    assert MODAL_FORMS == {
        "can",
        "could",
        "may",
        "might",
        "shall",
        "should",
        "will",
        "would",
        "must",
    }


# --- the rule table: one example per row -----------------------------------


def _classified(src_entries, trg_entries, start, end, cor_start, cor_end, granularity="upos"):
    """(base, SErCl type, context) of an edit, as classify_edit computes them."""
    edit, src, trg = make_edit(src_entries, trg_entries, start, end, cor_start, cor_end)
    ctx = build_context(edit, src, trg)
    return classify_base(ctx, WORDLIST), classify_sercl(ctx, granularity), ctx


def _one(src_entry, trg_entry):
    """(base, SErCl type, context) of a one-token replacement at the start of a sentence."""
    return _classified([src_entry], [trg_entry], 0, 1, 0, 1)


# row of the rule table -> (base, SErCl type, context) of an edit that the
# row decides, and its label; the rows that classify_base cannot reach take
# hand-built bases and contexts
_ROW_EXAMPLES = {
    0: (_one(("two", "two", "NUM", ""), ("oh", "oh", "INTJ", "")), "R:Other"),
    1: (
        _classified(
            [("the", "the", "DET", ""), ("Paris", "paris", "PROPN", "Number=Sing")],
            [("Londons", "london", "PROPN", "Number=Plur")],
            0,
            2,
            0,
            1,
            GRANULARITY_UPOS_FEATS,
        ),
        "R:Propn:WC:MW",
    ),
    2: (_one(("these", "this", "PRON", ""), ("their", "they", "DET", "")), "R:Pron->Det"),
    3: (_one(("english", "england", "ADJ", ""), ("England", "england", "PROPN", "")), "R:Adj->Propn"),
    4: (_one(("Paris", "paris", "PROPN", ""), ("parisian", "paris", "NOUN", "")), "R:Other"),
    5: (_one(("trap", "trap", "NOUN", ""), ("trapped", "trap", "VERB", "")), "R:Noun->Verb"),
    6: (
        _classified(
            [("for", "for", "ADP", ""), ("pen", "pen", "NOUN", "")],
            [("for", "for", "ADP", ""), ("Pen", "pen", "PROPN", "")],
            1,
            2,
            1,
            2,
        ),
        "R:Noun->Propn",
    ),
    7: (_one(("pen", "pen", "NOUN", ""), ("Pen", "pen", "PROPN", "")), "R:Orth"),
    8: (_one(("was", "be", "AUX", "Mood=Ind"), ("were", "be", "AUX", "Mood=Sub")), "R:Aux"),
    9: (_one(("is", "be", "AUX", ""), ("runs", "run", "VERB", "")), "R:Aux->Verb"),
    10: (
        (BaseType(VERB_FORM), pair("NOUN", "VERB"), context(src_head_upos="NOUN", trg_head_upos="VERB")),
        "R:Noun->Verb",
    ),
    11: (
        _one(("eat", "eat", "VERB", "VerbForm=Inf"), ("eating", "eat", "VERB", "VerbForm=Ger")),
        "R:Verb:Form",
    ),
    12: (
        (BaseType(POS, "PRON"), pair("PRON", "DET"), context(src_head_upos="PRON", trg_head_upos="DET")),
        "R:Pron->Det",
    ),
    13: (
        (BaseType(POS, "DET"), pair("DET", "PRON"), context(src_head_upos="DET", trg_head_upos="PRON")),
        "R:Det->Pron",
    ),
    14: (_one(("is", "be", "AUX", ""), ("has", "have", "AUX", "")), "R:Verb:Tense"),
    15: (_one(("can", "can", "AUX", ""), ("could", "could", "AUX", "")), "R:Modal"),
    16: (_one(("eat", "eat", "VERB", "Tense=Pres"), ("ate", "eat", "VERB", "Tense=Past")), "R:Verb"),
    17: (_one(("werk", "werk", "NOUN", ""), ("work", "work", "NOUN", "")), "R:Spell"),
    18: (
        _one(("eated", "eat", "VERB", "Tense=Past"), ("ate", "eat", "VERB", "Tense=Past")),
        "R:Verb:Infl",
    ),
    19: (
        _one(("go", "go", "VERB", "Number=Plur"), ("goes", "go", "VERB", "Number=Sing")),
        "R:Verb:SVA",
    ),
    20: (
        _one(("cat", "cat", "NOUN", "Number=Sing"), ("cats", "cat", "NOUN", "Number=Plur")),
        "R:Noun:Num",
    ),
    21: (
        _one(("big", "big", "ADJ", "Degree=Pos"), ("bigger", "big", "ADJ", "Degree=Cmp")),
        "R:Adj:Form",
    ),
}


def _deciding_row(base, ctx):
    """The index of the first row of the rule table that matches, or None."""
    key = base.pos_payload or base.category
    s = ctx.src_head.upos if ctx.src_head is not None else None
    t = ctx.trg_head.upos if ctx.trg_head is not None else None
    for index, (row_base, test, _) in enumerate(_RULES):
        if row_base == key and (test is None or test(s, t, ctx)):
            return index
    return None


@pytest.mark.parametrize("row", range(len(_RULES)))
def test_each_rule_row_decides_its_example(row):
    assert row in _ROW_EXAMPLES, f"row {row} of the rule table has no example"
    (base, sercl, ctx), label = _ROW_EXAMPLES[row]
    assert _deciding_row(base, ctx) == row
    assert combine(base, sercl, ctx).render() == label


def test_a_pos_base_no_row_matches_keeps_its_collapsed_tag():
    base, sercl, ctx = _one(("cat", "cat", "NOUN", ""), ("dog", "dog", "NOUN", ""))
    assert _deciding_row(base, ctx) is None
    assert combine(base, sercl, ctx).render() == "R:Noun:WC"


# --- suffixes ---------------------------------------------------------------


def test_word_choice_requires_tag_body():
    # pair bodies never take WC even with differing lemmas
    base = BaseType(OTHER)
    sercl = pair("NOUN", "VERB")
    ctx = context(src_head_upos="NOUN", trg_head_upos="VERB")
    assert combine(base, sercl, ctx) == SerrantType("R", "Noun->Verb")


def test_word_choice_requires_replacement():
    base = BaseType(POS, "NOUN")
    sercl = SerclType(SerclSide("NOUN"), SerclSide(None))
    ctx = context(
        trg_forms=(),
        trg_head_upos=None,
        trg_head_lemma=None,
    )
    assert combine(base, sercl, ctx) == SerrantType("U", "Noun")


def test_named_bodies_never_take_word_choice():
    base = BaseType(VERB_TENSE)
    sercl = pair("AUX", "AUX")
    ctx = context(
        src_forms=("is",),
        trg_forms=("has",),
        src_lemmas=("be",),
        trg_lemmas=("have",),
        src_head_upos="AUX",
        trg_head_upos="AUX",
        src_head_lemma="be",
        trg_head_lemma="have",
    )
    assert combine(base, sercl, ctx) == SerrantType("R", "Verb:Tense")


@pytest.mark.parametrize(
    "category, body",
    [
        (SPELL, "Spell"),
        (VERB_INFL, "Verb:Infl"),
        (VERB_SVA, "Verb:SVA"),
        (NOUN_NUM, "Noun:Num"),
        (ADJ_FORM, "Adj:Form"),
    ],
)
def test_bases_without_a_rule_keep_their_named_body(category, body):
    # no suffix either, on a multi-word replacement whose head lemmas differ
    ctx = context(src_forms=("x", "z"), src_head_lemma="x", trg_head_lemma="y")
    assert combine(BaseType(category), pair("NOUN", "NOUN"), ctx) == SerrantType("R", body)


def test_multi_word_applies_to_unqualified_pair_bodies():
    got = typed(
        [("trap", "trap", "NOUN", "Number=Sing"), ("door", "door", "NOUN", "Number=Sing")],
        [("trapped", "trap", "VERB", "Tense=Past")],
        0,
        2,
        0,
        1,
    )
    assert got == "R:Noun->Verb:MW"


def test_multi_word_blocked_by_qualifiers():
    got = typed(
        [("big", "big", "ADJ", "Degree=Pos"), ("cats", "cat", "NOUN", "Number=Plur")],
        [("cat", "cat", "NOUN", "Number=Sing")],
        0,
        2,
        0,
        1,
        granularity=GRANULARITY_UPOS_FEATS,
    )
    assert got == "R:Noun:plural->Noun:singular"


def test_multi_word_on_unqualified_pair_at_feats_granularity():
    got = typed(
        [("trap", "trap", "NOUN", "Number=Sing"), ("door", "door", "NOUN", "Number=Sing")],
        [("trapped", "trap", "VERB", "Tense=Past")],
        0,
        2,
        0,
        1,
        granularity=GRANULARITY_UPOS_FEATS,
    )
    # the heads share no feature names, so the pair stays unqualified
    assert got == "R:Noun->Verb:MW"


def test_word_choice_orders_before_multi_word():
    base = BaseType(POS, "NOUN")
    sercl = pair("NOUN", "NOUN")
    ctx = context(
        src_forms=("trap", "door"),
        trg_forms=("hatch",),
        src_head_upos="NOUN",
        trg_head_upos="NOUN",
        src_head_lemma="door",
        trg_head_lemma="hatch",
    )
    assert combine(base, sercl, ctx) == SerrantType("R", "Noun", ("WC", "MW"))


def test_unicode_arrow_rendering_end_to_end():
    got = typed(
        [("for", "for", "ADP", ""), ("pen", "pen", "NOUN", "Number=Sing")],
        [("for", "for", "ADP", ""), ("Pen", "pen", "PROPN", "Number=Sing")],
        1,
        2,
        1,
        2,
        arrow=ARROW_UNICODE,
    )
    assert got == "R:Noun→Propn"


def test_build_context_shapes():
    edit, src, trg = make_edit(
        [("we", "we", "PRON", ""), ("eat", "eat", "VERB", "Tense=Pres")],
        [("we", "we", "PRON", ""), ("ate", "eat", "VERB", "Tense=Past")],
        1,
        2,
        1,
        2,
    )
    ctx = build_context(edit, src, trg)
    assert not ctx.sentence_initial
    assert tuple(t.form for t in ctx.src_tokens) == ("eat",)
    assert tuple(t.form for t in ctx.trg_tokens) == ("ate",)
    assert tuple(t.lemma for t in ctx.src_tokens) == ("eat",)
    assert ctx.src_head.upos == "VERB"
    assert ctx.trg_head.lemma == "eat"
    assert not (len(ctx.src_tokens) > 1 or len(ctx.trg_tokens) > 1)
    # named tuples: they pickle, compare as plain tuples, and change with _replace
    assert ctx == (edit, ctx.src_tokens, ctx.trg_tokens, ctx.src_head, ctx.trg_head)
    assert edit == ((1, 2, ("ate",)), ("eat",), 1)
    assert pickle.loads(pickle.dumps(ctx)) == ctx
    assert edit._replace(cor_start=3).cor_end == 4
    assert ctx._replace(edit=edit._replace(span=edit.span._replace(start=0))).sentence_initial


@pytest.mark.parametrize(
    "value, fields, defaults",
    [
        (BaseType(POS, "NOUN"), ("category", "pos_payload"), {"pos_payload": None}),
        (SerclSide("NOUN", ("plural",)), ("tag", "qualifiers"), {"qualifiers": ()}),
        (SerclType(SerclSide("NOUN"), SerclSide(None)), ("left", "right"), {}),
        (
            # two words: len() is not the six fields, so _replace must not count with it
            fallback_annotate(["we", "ate"]),
            ("forms", "lemmas", "upos", "feats", "heads", "deprels"),
            {},
        ),
        (
            PipelineConfig(wordlist=frozenset({"word"})),
            ("granularity", "wordlist", "annotator_id", "arrow"),
            {"granularity": "upos", "wordlist": None, "annotator_id": 0, "arrow": "->"},
        ),
        (
            PipelineInputs(m2="S a\n", conllu_cor="# one sentence\n"),
            ("original", "corrected", "m2", "conllu_orig", "conllu_cor"),
            dict.fromkeys(("original", "corrected", "m2", "conllu_orig", "conllu_cor")),
        ),
    ],
    ids=[
        "BaseType", "SerclSide", "SerclType", "AnnotatedSentence", "PipelineConfig", "PipelineInputs"
    ],
)
def test_value_types_are_named_tuples(value, fields, defaults):
    # the same fields and defaults as the frozen dataclasses they replace
    assert (type(value)._fields, type(value)._field_defaults) == (fields, defaults)
    assert tuple(value) == tuple(getattr(value, name) for name in fields)
    assert not hasattr(value, "__dict__")
    assert pickle.loads(pickle.dumps(value)) == value
    assert type(value._replace()) is type(value) and value._replace() == value
    with pytest.raises(AttributeError):
        setattr(value, fields[0], None)


def test_sentence_initial_flag():
    edit, src, trg = make_edit(
        [("gilly", "gilly", "NOUN", ""), ("ran", "run", "VERB", "")],
        [("Gilly", "gilly", "PROPN", ""), ("ran", "run", "VERB", "")],
        0,
        1,
        0,
        1,
    )
    assert build_context(edit, src, trg).sentence_initial


def test_classify_edit_finds_each_head_once(monkeypatch):
    real = importlib.import_module("serrant.ud").span_head
    calls = []

    def counting(sentence, start, end):
        calls.append((sentence, start, end))
        return real(sentence, start, end)

    # every module that imported the function, not only combine, so that a
    # second lookup anywhere on the classify path is counted too
    for name in ("serrant.ud", "serrant.base", "serrant.sercl", "serrant.combine"):
        module = importlib.import_module(name)
        if getattr(module, "span_head", None) is real:
            monkeypatch.setattr(module, "span_head", counting)
    assert importlib.import_module("serrant.combine").span_head is counting
    we = ("we", "we", "PRON", "")
    eat = ("eat", "eat", "VERB", "Tense=Pres")
    ate = ("ate", "eat", "VERB", "Tense=Past")
    the = ("the", "the", "DET", "")
    cases = [
        ([we, eat], [we, ate], (1, 2, 1, 2), [("src", 1, 2), ("trg", 1, 2)]),
        ([we, eat, the], [we, eat], (2, 3, 2, 2), [("src", 2, 3)]),
        ([we, eat], [we, eat, the], (2, 2, 2, 3), [("trg", 2, 3)]),
    ]
    for src_entries, trg_entries, span, want in cases:
        edit, src, trg = make_edit(src_entries, trg_entries, *span)
        calls.clear()
        classify_edit(edit, src, trg, WORDLIST, GRANULARITY_UPOS_FEATS)
        sides = {id(src): "src", id(trg): "trg"}
        assert [(sides[id(sentence)], start, end) for sentence, start, end in calls] == want


def test_every_typing_cache_stays_within_its_bound():
    # more distinct qualifier values than any cache holds, on MORPH edits at upos+feats
    caches = {
        id(value): value
        for name in ("serrant.base", "serrant.sercl", "serrant.combine")
        for value in vars(importlib.import_module(name)).values()
        if hasattr(value, "cache_info")
    }.values()
    assert len(caches) == 3
    for i in range(max(cache.cache_info().maxsize for cache in caches) + 50):
        src = [("good", "good", "ADJ", f"Foo=A{i}")]
        trg = [("well", "good", "ADV", f"Foo=B{i}")]
        assert typed(src, trg, 0, 1, 0, 1, granularity=GRANULARITY_UPOS_FEATS) == (
            f"R:Adj:a{i}->Adv:b{i}"
        )
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
    src, trg = [("good", "good", "ADJ", "")], [("well", "good", "ADV", "")]
    assert typed(src, trg, 0, 1, 0, 1) == "R:Adj->Adv"


def test_unknown_base_category_is_impossible():
    with pytest.raises(ValueError):
        BaseType("NONSENSE")
