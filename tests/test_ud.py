"""CoNLL-U parsing, annotation attachment, span heads, and the fallback tagger."""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_parse_conllu
from serrant import pipeline, ud
from serrant.errors import AttachmentError, ConlluParseError
from serrant.ud import (
    DEFAULT_LEXICON,
    ROOT,
    AnnotatedSentence,
    Token,
    attach,
    fallback_annotate,
    parse_conllu,
    parse_feats,
    span_head,
)
from synthgen import annotate_entries, entries_to_conllu, random_sentence

BASIC = (
    "# sent_id = 1\n"
    "1\tThe\tthe\tDET\t_\t_\t2\tdet\t_\t_\n"
    "2\tcats\tcat\tNOUN\t_\tNumber=Plur\t3\tnsubj\t_\t_\n"
    "3\tsleep\tsleep\tVERB\t_\tTense=Pres|VerbForm=Fin\t0\troot\t_\t_\n"
)


def test_parse_basic_sentence():
    sentences = parse_conllu(BASIC)
    assert len(sentences) == 1
    tokens = sentences[0].tokens
    assert [t.form for t in tokens] == ["The", "cats", "sleep"]
    assert tokens[0].lemma == "the"
    assert tokens[0].head == 1
    assert tokens[1].feats == {"Number": "Plur"}
    assert tokens[2].head == ROOT
    assert tokens[2].feats == {"Tense": "Pres", "VerbForm": "Fin"}
    assert tokens[2].deprel == "root"


def test_parse_lowercases_lemma_and_defaults_to_form():
    text = "1\tParis\t_\tPROPN\t_\t_\t0\troot\t_\t_\n"
    token = parse_conllu(text)[0].tokens[0]
    assert token.lemma == "paris"


def test_parse_multiple_sentences():
    text = BASIC + "\n" + "1\tGo\tgo\tVERB\t_\t_\t0\troot\t_\t_\n"
    sentences = parse_conllu(text)
    assert len(sentences) == 2
    assert sentences[1].forms == ("Go",)


def test_parse_skips_ranges_and_empty_nodes():
    text = (
        "1-2\tcannot\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tcan\tcan\tAUX\t_\t_\t2\taux\t_\t_\n"
        "1.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "2\tgo\tgo\tVERB\t_\t_\t0\troot\t_\t_\n"
    )
    sentence = parse_conllu(text)[0]
    assert sentence.forms == ("can", "go")


def _row(token_id: str, head: str) -> str:
    return f"{token_id}\tx\tx\tNOUN\t_\t_\t{head}\tdep\t_\t_\n"


@pytest.mark.parametrize(
    "line, expected_lineno",
    [
        ("1\tx\tx\tNOUN\t_\t_\t0\n", 1),
        ("one\tx\tx\tNOUN\t_\t_\t0\troot\t_\t_\n", 1),
        ("2\tx\tx\tNOUN\t_\t_\t0\troot\t_\t_\n", 1),
        ("1\tx\tx\tBLORP\t_\t_\t0\troot\t_\t_\n", 1),
        ("1\tx\tx\tNOUN\t_\tNumber\t0\troot\t_\t_\n", 1),
        ("# c\n1\tx\tx\tNOUN\t_\tNumber=Sing|Number=Plur\t0\troot\t_\t_\n", 2),
        ("1\tx\tx\tNOUN\t_\t_\tzero\troot\t_\t_\n", 1),
        ("1\tx\tx\tNOUN\t_\t_\t4\tdep\t_\t_\n", 1),
        ("1\tx\tx\tNOUN\t_\t_\t1\tdep\t_\t_\n", 1),
        ("1.x\tx\t_\t_\t_\t_\t_\t_\t_\t_\n", 1),
        ("2-\tx\t_\t_\t_\t_\t_\t_\t_\t_\n", 1),
        ("-\tx\t_\t_\t_\t_\t_\t_\t_\t_\n", 1),
        ("1-2-3\tx\t_\t_\t_\t_\t_\t_\t_\t_\n", 1),
        ("1\tx\tx\tNOUN\t_\t_\t0\troot\t_\t_\n.1\tx\t_\t_\t_\t_\t_\t_\t_\t_\n", 2),
        # ids and heads are ASCII digits: int() would take each of these
        *((f"# c\n{_row(token_id, '0')}", 2) for token_id in ("+1", " 1", "１")),
        ("".join(_row(str(i), "0" if i == 1 else "1") for i in range(1, 10)) + _row("1_0", "1"), 10),
        *(
            (f"# c\n{_row('1', '0')}{_row('2', head)}", 3)
            for head in ("+1", " 1", "-0", "１")
        ),
        ("".join(_row(str(i), "0" if i == 1 else "1") for i in range(1, 11)) + _row("11", "1_0"), 11),
        # a comment line after any row of its sentence: a word, a range or an empty node
        (f"{_row('1', '0')}# c\n{_row('2', '1')}", 2),
        (f"1-2\tx\t_\t_\t_\t_\t_\t_\t_\t_\n# c\n{_row('1', '0')}", 2),
        (f"1.1\tx\t_\t_\t_\t_\t_\t_\t_\t_\n#\n{_row('1', '0')}", 2),
        (f"{_row('1', '0')}\n# c\n{_row('1', '0')}#\n", 5),
    ],
)
def test_parse_errors_carry_line_numbers(line, expected_lineno):
    with pytest.raises(ConlluParseError) as info:
        parse_conllu(line)
    assert (info.value.source, info.value.line) == ("conllu", expected_lineno)
    assert str(info.value) == f"conllu:{expected_lineno}: {info.value.message}"
    with pytest.raises(ConlluParseError) as named:
        parse_conllu(line, 41, "conllu_cor")
    assert str(named.value) == f"conllu_cor:{expected_lineno + 40}: {info.value.message}"


@pytest.mark.parametrize("token_id", ["x-1", "1-2.1"])
def test_parse_names_a_malformed_range_or_empty_node_id(token_id):
    with pytest.raises(ConlluParseError) as info:
        parse_conllu(f"{token_id}\tx\t_\t_\t_\t_\t_\t_\t_\t_\n")
    assert str(info.value) == f"conllu:1: malformed multiword range or empty node id {token_id!r}"


def test_parse_error_line_number_skips_earlier_sentences():
    text = BASIC + "\n" + "1\tx\tx\tNOPE\t_\t_\t0\troot\t_\t_\n"
    with pytest.raises(ConlluParseError) as info:
        parse_conllu(text)
    assert info.value.line == 6


def test_parse_rejects_rootless_sentence():
    text = "1\ta\ta\tDET\t_\t_\t2\tdet\t_\t_\n2\tb\tb\tNOUN\t_\t_\t1\tdep\t_\t_\n"
    with pytest.raises(ConlluParseError) as info:
        parse_conllu(text)
    assert "root" in str(info.value)


def test_parse_rejects_double_root():
    text = "1\ta\ta\tNOUN\t_\t_\t0\troot\t_\t_\n2\tb\tb\tNOUN\t_\t_\t0\troot\t_\t_\n"
    with pytest.raises(ConlluParseError):
        parse_conllu(text)


def test_parse_rejects_cycle():
    text = (
        "1\ta\ta\tNOUN\t_\t_\t2\tdep\t_\t_\n"
        "2\tb\tb\tNOUN\t_\t_\t1\tdep\t_\t_\n"
        "3\tc\tc\tVERB\t_\t_\t0\troot\t_\t_\n"
    )
    with pytest.raises(ConlluParseError) as info:
        parse_conllu(text)
    assert "cycle" in str(info.value)


def _cycle_by_walking_from_every_token(heads: list[int]) -> int | None:
    """The quadratic reference: walk to the root from each token in order."""
    for token in range(len(heads)):
        seen = set()
        current = token
        while current != ROOT:
            if current in seen:
                return current
            seen.add(current)
            current = heads[current]
    return None


def test_cycle_check_names_the_token_the_full_walk_names():
    rng = random.Random(5)
    cycles = 0
    for _ in range(3000):
        n = rng.randint(2, 12)
        order = rng.sample(range(n), n)  # order[0] is the root
        heads = [ROOT] * n
        for rank, token in enumerate(order[1:], start=1):
            heads[token] = order[rng.randrange(rank)]
        for _ in range(rng.randint(0, 3)):  # rewire a few heads; cycles may form
            token = rng.choice(order[1:])
            heads[token] = rng.choice([other for other in range(n) if other != token])
        text = "".join(
            f"{i + 1}\tw\tw\tNOUN\t_\t_\t{0 if head == ROOT else head + 1}\tdep\t_\t_\n"
            for i, head in enumerate(heads)
        )
        expected = _cycle_by_walking_from_every_token(heads)
        if expected is None:
            assert len(parse_conllu(text)) == 1
        else:
            cycles += 1
            with pytest.raises(ConlluParseError) as info:
                parse_conllu(text)
            assert str(info.value) == f"conllu:1: dependency cycle through token {expected + 1}"
    assert 300 < cycles < 2700


def _chain_rows(heads: list[int]) -> list[str]:
    """CoNLL-U rows of one sentence with the given 1-based heads (0 for the root)."""
    return [
        f"{i + 1}\tw\tw\tNOUN\t_\t_\t{head}\t{'root' if head == 0 else 'dep'}\t_\t_"
        for i, head in enumerate(heads)
    ]


@pytest.mark.parametrize(
    "heads, cycled, token",
    [
        # the right-branching chain of the long benchmark inputs: the first
        # word is the root, and every other word hangs off its left neighbour
        (list(range(1000)), (998, 1000), 999),
        # left-branching: the walk up from the first word passes all others
        ([*range(2, 1001), 0], (998, 998), 998),
    ],
    ids=["right-branching", "left-branching"],
)
def test_a_deep_chain_parses_and_a_cycle_at_its_end_fails_as_the_reference_does(
    heads, cycled, token
):
    (sentence,) = parse_conllu("\n".join(_chain_rows(heads)) + "\n")
    assert sentence.heads == tuple(head - 1 for head in heads)
    position, head = cycled
    heads = heads.copy()
    heads[position] = head  # two words at the end of the chain head each other
    text = "\n".join(_chain_rows(heads)) + "\n"
    with pytest.raises(ConlluParseError) as info:
        parse_conllu(text)
    with pytest.raises(ConlluParseError) as expected:
        reference_parse_conllu(text)
    got = (info.value.line, str(info.value))
    assert got == (expected.value.line, str(expected.value))
    assert got == (1, f"conllu:1: dependency cycle through token {token}")


_SCAN_LINES = [
    "",
    " ",
    "\t",
    "\r",
    " \r",
    "\x0c",
    "# sent_id = 1",
    "#",
    "1\ta\ta\tNOUN\t_\t_\t0\troot\t_\t_",
    "1\ta\ta\tNOUN\t_\t_\t0\troot\t_\t_\r",
    "01\ta\ta\tNOUN\t_\t_\t0\troot\t_\t_",
    "2\tb\tb\tNOUN\t_\t_\t1\tdep\t_\t_",
    "1-2\tab\t_\t_\t_\t_\t_\t_\t_\t_",
    "1.1\tx\t_\t_\t_\t_\t_\t_\t_\t_",
    "1-2\tab",
    "1\ta\ta\tBLORP\t_\t_\t0\troot\t_\t_",
    "1.x\tx\t_\t_\t_\t_\t_\t_\t_\t_",
]


def _parse_or_error(text: str):
    try:
        return parse_conllu(text), None
    except ConlluParseError as exc:
        return None, exc


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_SCAN_LINES), max_size=24), st.data())
def test_sentence_starts_cut_like_parse(lines, data):
    # the cut of --jobs: at each block that holds a sentence, one item each
    text = "\n".join(lines)
    starts = pipeline._starts(text, pipeline._CONLLU_ITEM)
    whole, error = _parse_or_error(text)
    if error is None:
        assert len(starts) == len(whole)
    for offset in starts:
        assert offset == 0 or text[offset - 1] == "\n"
    cuts = sorted(data.draw(st.sets(st.sampled_from(starts)))) if starts else []
    firsts = [0] + [cut for cut in cuts if cut > 0]
    ends = firsts[1:] + [len(text)]
    pieces, piece_error = [], None
    for offset, end in zip(firsts, ends):
        sentences, piece_error = _parse_or_error(text[offset:end])
        if piece_error is not None:
            break
        pieces.extend(sentences)
    # a piece fails exactly when the whole fails, on the same line of the text
    assert (piece_error is None) == (error is None)
    if error is None:
        assert pieces == whole
    else:
        line_shift = text.count("\n", 0, offset)
        assert piece_error.line + line_shift == error.line
        assert str(piece_error).split(": ", 1)[1] == str(error).split(": ", 1)[1]


# --- the parser against the row-by-row reference ------------------------------

_BAD_INTEGERS = ("", "x", "+1", " 1", "1_0", "-0", "１", "٣", "-1", "1.5")


@st.composite
def _conllu_texts(draw) -> str:
    """Valid sentences, some rows corrupted, with comments, ranges and empty nodes.

    Each sentence is a random tree, its comment lines before its rows.  In
    about half of the texts, some sentences then get one row broken in one
    way (columns, id, UPOS, FEATS, head, a malformed range or empty node),
    one head rewired, which may leave a self-head, no root, two roots or a
    cycle, or a comment line after one of their rows.
    """
    faulty = draw(st.booleans())
    lines: list[str] = []
    for _ in range(draw(st.integers(0, 6))):
        n = draw(st.integers(1, 7))
        order = draw(st.permutations(range(n)))  # order[0] is the root
        heads = [0] * n  # 1-based, 0 for the root
        for rank, token in enumerate(order[1:], start=1):
            heads[token] = order[draw(st.integers(0, rank - 1))] + 1
        rows = [
            [
                str(i + 1),
                draw(st.sampled_from(["a", "B", "_", "cat", "Cats"])),
                draw(st.sampled_from(["a", "_", "Cat"])),
                draw(st.sampled_from(["NOUN", "VERB", "PUNCT"])),
                "_",
                draw(st.sampled_from(["_", "Number=Sing", "Number=Plur|Person=3"])),
                str(head),
                draw(st.sampled_from(["dep", "root", "obl:tmod"])),
                "_",
                "_",
            ]
            for i, head in enumerate(heads)
        ]
        row = rows[draw(st.integers(0, n - 1))]
        fault = "none"
        if faulty:
            fault = draw(
                st.sampled_from(
                    [
                        "none", "columns", "id", "upos", "feats", "head", "rewire", "roots",
                        "cycle", "range", "comment",
                    ]
                )
            )
        if fault == "columns":
            row[:] = row[: draw(st.integers(1, 9))] if draw(st.booleans()) else row + ["_"]
        elif fault == "id":
            row[0] = draw(st.sampled_from([*_BAD_INTEGERS, "0", str(n + 1), "0" + row[0]]))
        elif fault == "upos":
            row[3] = draw(st.sampled_from(["BLORP", "noun", ""]))
        elif fault == "feats":
            row[5] = draw(st.sampled_from(["Number", "=Sing", "Number=", "a=b|", "a=b||c=d"]))
        elif fault == "head":
            row[6] = draw(st.sampled_from([*_BAD_INTEGERS, str(n + 1), "00", "0" + row[6]]))
        elif fault == "rewire":
            row[6] = str(draw(st.integers(0, n)))
        elif fault == "roots" and n > 1:  # a second root, or none
            if draw(st.booleans()):
                rows[order[1]][6] = "0"
            else:
                rows[order[0]][6] = str(order[1] + 1)
        elif fault == "cycle" and n > 2:  # two words other than the root head each other
            first, second = draw(st.permutations(order[1:]))[:2]
            rows[first][6], rows[second][6] = str(second + 1), str(first + 1)
        block = ["\t".join(cols) for cols in rows]
        for _ in range(draw(st.integers(0, 2))):  # ranges and empty nodes
            token_id = draw(st.sampled_from(["1-2", "2-3", "1.1", "3.1"]))
            block.insert(draw(st.integers(0, len(block))), "\t".join([token_id] + ["_"] * 9))
        if fault == "range":
            token_id = draw(st.sampled_from(["1-x", "-", "1-2-3", "１-2", "1.", "2-3"]))
            columns = draw(st.sampled_from([9, 10]))
            block.insert(draw(st.integers(0, len(block))), "\t".join([token_id] + ["_"] * (columns - 1)))
        comments = draw(st.lists(st.sampled_from(["# sent_id = 1", "#"]), max_size=2))
        if fault == "comment":
            block.insert(draw(st.integers(1, len(block))), draw(st.sampled_from(["# c", "#"])))
        block[:0] = comments
        if draw(st.booleans()):
            block = [line + "\r" for line in block]
        lines += block
        lines += draw(st.lists(st.sampled_from(["", " ", "\r", "\t\r", "\x0c"]), min_size=1, max_size=2))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _tokens_or_error(parse, text: str):
    try:
        return [tuple(sentence) for sentence in parse(text)], None
    except ConlluParseError as exc:
        return None, (exc.line, str(exc))


@settings(max_examples=400, deadline=None)
@given(_conllu_texts(), st.integers(1, 400))
def test_column_parse_matches_the_row_by_row_reference(text, chunk_chars):
    # small chunks put the chunk cuts among the sentences of these short texts
    with mock.patch.object(ud, "_CHUNK_CHARS", chunk_chars):
        got = _tokens_or_error(lambda t: [s.tokens for s in parse_conllu(t)], text)
    expected = _tokens_or_error(reference_parse_conllu, text)
    assert got == expected


def test_parse_feats_column():
    assert parse_feats("_") == {}
    assert parse_feats("Number=Sing|Person=3") == {"Number": "Sing", "Person": "3"}
    with pytest.raises(ValueError):
        parse_feats("Number")
    with pytest.raises(ValueError):
        parse_feats("=Sing")
    with pytest.raises(ValueError, match="repeated feature name 'Number'"):
        parse_feats("Number=Sing|Number=Plur")
    # a label shows values on both sides of an arrow, so none may hold one
    for value, held in [("Foo=a->b", "a->b"), ("Foo=a→b", "a→b")]:
        with pytest.raises(ValueError, match=f"^arrow in feature value '{held}'$"):
            parse_feats(value)


def test_token_is_a_named_tuple_without_a_dict():
    token = Token(index=2, form="cats", lemma="cat", upos="NOUN")
    assert Token._fields == ("index", "form", "lemma", "upos", "feats", "head", "deprel")
    assert (token.feats, token.head, token.deprel) == ({}, ROOT, "dep")
    assert token == Token(2, "cats", "cat", "NOUN", {}, ROOT, "dep")
    assert not hasattr(token, "__dict__")


def test_equal_feats_columns_share_one_dict():
    first, second = parse_conllu(BASIC + "\n" + BASIC)
    for a, b in zip(first.tokens, second.tokens):
        assert a.feats is b.feats
    assert first.tokens[1].feats == {"Number": "Plur"}
    assert first.tokens[1].feats is not first.tokens[2].feats


def test_malformed_feats_fail_on_their_own_line_after_a_cached_value():
    bad = BASIC.replace("Tense=Pres|VerbForm=Fin", "Tense=Pres|VerbForm")
    with pytest.raises(ConlluParseError) as info:
        parse_conllu(BASIC + "\n" + bad + "\n" + bad)
    assert info.value.line == 9
    assert str(info.value) == "conllu:9: malformed feature pair 'VerbForm'"


def test_synthetic_conllu_round_trips():
    rng = random.Random(11)
    for _ in range(50):
        entries = random_sentence(rng)
        expected = annotate_entries(entries)
        parsed = parse_conllu(entries_to_conllu(entries) + "\n")
        assert len(parsed) == 1
        assert parsed[0] == expected


def test_attach_accepts_matching_tokens():
    sentence = parse_conllu(BASIC)[0]
    assert attach(sentence, ("The", "cats", "sleep")) is sentence


def test_attach_reports_first_divergence():
    sentence = parse_conllu(BASIC)[0]
    with pytest.raises(AttachmentError) as info:
        attach(sentence, ("The", "cat", "sleep"))
    assert str(info.value) == "annotation form 'cats' != surface token 'cat' at index 1"
    assert (info.value.source, info.value.line) == (None, None)  # the caller locates it


def test_attach_reports_length_mismatch():
    sentence = parse_conllu(BASIC)[0]
    with pytest.raises(AttachmentError) as info:
        attach(sentence, ("The", "cats"))
    assert str(info.value) == "annotation has 3 tokens, surface has 2"


TREE = AnnotatedSentence(
    forms=("the", "big", "cat", "sat"),
    lemmas=("the", "big", "cat", "sit"),
    upos=("DET", "ADJ", "NOUN", "VERB"),
    feats=({}, {}, {}, {}),
    heads=(2, 2, 3, ROOT),
    deprels=("det", "amod", "nsubj", "root"),
)


def test_span_head_prefers_external_attachment():
    assert span_head(TREE, 0, 3).form == "cat"
    assert span_head(TREE, 0, 4).form == "sat"
    assert span_head(TREE, 2, 4).form == "sat"


def test_span_head_single_token():
    assert span_head(TREE, 1, 2).form == "big"


def test_span_head_leftmost_tie():
    # both tokens point outside the span; the leftmost one wins
    assert span_head(TREE, 0, 2).form == "the"


@pytest.mark.parametrize("start, end", [(2, 2), (-1, 1), (0, 9), (3, 1)])
def test_span_head_rejects_bad_spans(start, end):
    with pytest.raises(ValueError):
        span_head(TREE, start, end)


def test_fallback_lexicon_hits():
    sentence = fallback_annotate(["I", "was", "there", "."])
    assert [t.upos for t in sentence.tokens] == ["PRON", "AUX", "ADV", "PUNCT"]
    assert sentence.tokens[1].lemma == "be"
    assert sentence.tokens[1].feats == {"Number": "Sing", "Tense": "Past"}


def test_fallback_suffix_heuristics():
    sentence = fallback_annotate(["walking", "walked", "quickly", "dogs"])
    tokens = sentence.tokens
    assert (tokens[0].upos, tokens[0].lemma, tokens[0].feats) == ("VERB", "walk", {"VerbForm": "Ger"})
    assert (tokens[1].upos, tokens[1].lemma) == ("VERB", "walk")
    assert (tokens[2].upos, tokens[2].lemma) == ("ADV", "quick")
    assert (tokens[3].upos, tokens[3].feats) == ("NOUN", {"Number": "Plur"})


def test_fallback_capitalised_forms():
    sentence = fallback_annotate(["Visit", "Rome"])
    assert sentence.tokens[0].upos != "PROPN"  # sentence-initial capital is not evidence
    assert sentence.tokens[1].upos == "PROPN"
    assert sentence.tokens[1].lemma == "rome"


def test_fallback_default_is_singular_noun():
    token = fallback_annotate(["blorp"]).tokens[0]
    assert token.upos == "NOUN"
    assert token.feats == {"Number": "Sing"}


def test_fallback_flat_tree_roots_last_content_token():
    sentence = fallback_annotate(["the", "cat", "sat", "."])
    heads = [t.head for t in sentence.tokens]
    assert heads == [2, 2, ROOT, 2]
    assert sentence.tokens[3].deprel == "punct"


def test_fallback_handles_empty_input():
    assert len(fallback_annotate([])) == 0


def test_fallback_all_punctuation():
    sentence = fallback_annotate([".", "!"])
    assert sentence.tokens[0].head == ROOT


_FALLBACK_FORMS = st.sampled_from(
    ["Rome", "Blorp", "blorp", "I", "The", "the", "Walking", "walked", "Dogs", "ran", "Ed"]
    + [".", "!"]
)


def _unmemoised_fallback(tokens):
    """:func:`fallback_annotate` analysing every form afresh, past the memo."""
    with mock.patch.object(ud, "_analyse", ud._analyse.__wrapped__):
        return fallback_annotate(tokens)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_FALLBACK_FORMS, max_size=6), max_size=4))
def test_memoised_fallback_matches_the_unmemoised_path(sentences):
    for tokens in sentences:
        for _ in range(2):  # the second pass reads the memo
            assert fallback_annotate(tokens) == _unmemoised_fallback(tokens)


def test_memo_leaves_the_capitalised_word_rule_to_the_position():
    sentence = fallback_annotate(["Rome", "Rome", "Rome"])
    assert sentence.upos == ("NOUN", "PROPN", "PROPN")
    assert sentence.lemmas == ("rome",) * 3
    assert fallback_annotate(["Rome"]).upos == ("NOUN",)


def test_fallback_memo_stays_within_its_size():
    forms = [f"w{i}" for i in range(ud._MEMO_SIZE + 100)]
    assert fallback_annotate(forms) == _unmemoised_fallback(forms)
    info = ud._analyse.cache_info()
    assert (info.currsize, info.maxsize) == (ud._MEMO_SIZE, ud._MEMO_SIZE)


def test_default_lexicon_covers_function_words():
    assert DEFAULT_LEXICON["the"][1] == "DET"
    assert DEFAULT_LEXICON["should"][1] == "AUX"
    assert DEFAULT_LEXICON["."][1] == "PUNCT"
