"""Parsing, emission, and application of M2 edit files."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serrant.errors import IngestionError, M2ParseError, M2ValidationError
from serrant.m2 import (
    NOOP_TYPE,
    EditSpan,
    M2Edit,
    M2Record,
    apply_edits,
    emit_m2,
    join_m2,
    parse_m2,
    read_parallel,
)

SAMPLE = (
    "S I werk for pen\n"
    "A 1 2|||R:SPELL|||work|||REQUIRED|||-NONE-|||0\n"
    "A 3 4|||R:NOUN->PROPN|||Pen|||REQUIRED|||-NONE-|||0\n"
)


def test_parse_single_record():
    records = parse_m2(SAMPLE)
    assert len(records) == 1
    record = records[0]
    assert record.source_tokens == ("I", "werk", "for", "pen")
    assert len(record.edits) == 2
    first = record.edits[0]
    assert first.span == EditSpan(start=1, end=2, correction=("work",))
    assert first.type_label == "R:SPELL"
    assert first.annotator_id == 0
    second = record.edits[1]
    assert second.span.correction == ("Pen",)
    assert second.span.start == 3
    # named tuples: equal to plain tuples of their fields, and changed with _replace
    assert first == ((1, 2, ("work",)), "R:SPELL", 0)
    assert record == (("I", "werk", "for", "pen"), (first, second))
    assert first._replace(type_label="R:Spell") == M2Edit(first.span, "R:Spell", 0)
    assert first.span._replace(end=3) == EditSpan(1, 3, ("work",))
    assert record._replace(edits=()) == M2Record(record.source_tokens)


def test_parse_shares_equal_labels_and_corrections():
    block = "S a b\nA 0 1|||R:X|||c d|||REQUIRED|||-NONE-|||0\n"
    first, second = (record.edits[0] for record in parse_m2(block + "\n" + block))
    assert first.type_label is second.type_label
    assert first.span.correction is second.span.correction


def test_parse_multiple_records_blank_line_separated():
    text = SAMPLE + "\n" + "S ok\n"
    records = parse_m2(text)
    assert len(records) == 2
    assert records[1].source_tokens == ("ok",)
    assert records[1].edits == ()


def test_parse_noop_record():
    text = "S this is fine\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n"
    records = parse_m2(text)
    edit = records[0].edits[0]
    assert edit.span.is_noop
    assert edit.type_label == NOOP_TYPE
    assert edit.span.correction == ()


def test_parse_deletion_correction_spellings():
    for field in ("", "-NONE-"):
        text = f"S a b c\nA 1 2|||U:DET|||{field}|||REQUIRED|||-NONE-|||0\n"
        edit = parse_m2(text)[0].edits[0]
        assert edit.span.correction == ()
        assert edit.span.is_deletion


def test_parse_multi_token_correction():
    text = "S a b\nA 1 1|||M:OTHER|||x y z|||REQUIRED|||-NONE-|||1\n"
    edit = parse_m2(text)[0].edits[0]
    assert edit.span.correction == ("x", "y", "z")
    assert edit.span.is_insertion
    assert edit.annotator_id == 1


def test_parse_tolerates_extra_blank_lines():
    text = "\n\nS a\n\n\nS b\n\n"
    records = parse_m2(text)
    assert [r.source_tokens for r in records] == [("a",), ("b",)]


@pytest.mark.parametrize(
    "text",
    [
        "A 0 1|||X|||y|||REQUIRED|||-NONE-|||0\n",
        "S a\nA 0 1|||X|||y|||REQUIRED\n",
        "S a\nA zero 1|||X|||y|||REQUIRED|||-NONE-|||0\n",
        "S a\nA 0 5|||X|||y|||REQUIRED|||-NONE-|||0\n",
        "S a\nA 1 0|||X|||y|||REQUIRED|||-NONE-|||0\n",
        "S a\nA -1 0|||X|||y|||REQUIRED|||-NONE-|||0\n",
        "S a\nA 0 1|||X|||y|||REQUIRED|||-NONE-|||nope\n",
        "S a\nA 0 1|||X|||y|||REQUIRED|||-NONE-|||-2\n",
        "S a\nQ what\n",
        "S a\nA 0|||X|||y|||REQUIRED|||-NONE-|||0\n",
        "S a\nA 0 1|||X|||y  z|||REQUIRED|||-NONE-|||0\n",
    ],
)
def test_parse_errors_carry_line_numbers(text):
    with pytest.raises(M2ParseError) as info:
        parse_m2(text)
    assert info.value.line_number >= 1
    assert str(info.value.line_number) in str(info.value)


def test_parse_rejects_an_empty_type_label_on_its_line():
    text = "S a b\nA 0 1|||X|||y|||REQUIRED|||-NONE-|||0\nA 1 2||||||c|||REQUIRED|||-NONE-|||0\n"
    with pytest.raises(M2ParseError) as info:
        parse_m2(text)
    assert str(info.value) == "line 3: empty type label"


def test_parse_error_line_number_points_at_offender():
    text = "S a b\nA 0 1|||X|||y|||REQUIRED|||-NONE-|||0\nA bad\n"
    with pytest.raises(M2ParseError) as info:
        parse_m2(text)
    assert info.value.line_number == 3


def test_emit_canonical_output():
    record = M2Record(
        source_tokens=("I", "werk", "for", "pen"),
        edits=(
            M2Edit(span=EditSpan(1, 2, ("work",)), type_label="R:SPELL", annotator_id=0),
            M2Edit(span=EditSpan(3, 4, ("Pen",)), type_label="R:NOUN->PROPN", annotator_id=0),
        ),
    )
    assert emit_m2([record]) == SAMPLE


def test_emit_deletion_uses_empty_field():
    record = M2Record(
        source_tokens=("a", "b"),
        edits=(M2Edit(span=EditSpan(0, 1, ()), type_label="U:DET", annotator_id=0),),
    )
    assert "|||U:DET||||||" in emit_m2([record])


def test_emit_noop_uses_none_sentinel():
    record = M2Record(
        source_tokens=("a",),
        edits=(M2Edit(span=EditSpan(-1, -1, ()), type_label=NOOP_TYPE, annotator_id=0),),
    )
    assert "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n" in emit_m2([record])


def test_emit_blocks_joined_by_single_blank_line():
    records = [
        M2Record(source_tokens=("a",), edits=()),
        M2Record(source_tokens=("b",), edits=()),
    ]
    assert emit_m2(records) == "S a\n\nS b\n"


@pytest.mark.parametrize(
    "record",
    [
        M2Record(source_tokens=("a b",), edits=()),
        M2Record(source_tokens=("",), edits=()),
        M2Record(
            source_tokens=("a",),
            edits=(M2Edit(span=EditSpan(0, 1, ("x|||y",)), type_label="T", annotator_id=0),),
        ),
        M2Record(
            source_tokens=("a",),
            edits=(M2Edit(span=EditSpan(0, 2, ()), type_label="T", annotator_id=0),),
        ),
        M2Record(
            source_tokens=("a",),
            edits=(M2Edit(span=EditSpan(0, 1, ("x|",)), type_label="T", annotator_id=0),),
        ),
        M2Record(
            source_tokens=("a",),
            edits=(M2Edit(span=EditSpan(0, 1, ("|",)), type_label="T", annotator_id=0),),
        ),
        M2Record(
            source_tokens=("a",),
            edits=(M2Edit(span=EditSpan(0, 1, ("x",)), type_label="T|", annotator_id=0),),
        ),
        M2Record(
            source_tokens=("a",),
            edits=(M2Edit(span=EditSpan(0, 1, ("-NONE-",)), type_label="T", annotator_id=0),),
        ),
        M2Record(
            source_tokens=("a",),
            edits=(M2Edit(span=EditSpan(0, 1, ("x",)), type_label="T", annotator_id=-1),),
        ),
        # whitespace that the line rule rejects: the label would not read back
        *(
            M2Record(("a",), (M2Edit(EditSpan(0, 1, ("x",)), f"R:A{char}B", 0),))
            for char in ("\t", "\r", "\u00a0")
        ),
    ],
)
def test_emit_rejects_malformed_records(record):
    with pytest.raises(M2ValidationError) as info:
        emit_m2([record])
    assert info.value.record_index == 0


# trailing "|" in correction tokens is covered by the per-character rule below
@pytest.mark.parametrize(
    "correction, label, message",
    [
        (("x",), "T|", "invalid type label 'T|'"),
        (("-NONE-",), "T", "invalid correction token '-NONE-'"),
        (("x",), "", "invalid type label ''"),
    ],
)
def test_emit_names_a_label_or_correction_that_would_read_back_differently(
    correction, label, message
):
    record = M2Record(("a",), (M2Edit(EditSpan(0, 1, correction), label, 0),))
    with pytest.raises(M2ValidationError) as info:
        emit_m2([record])
    assert str(info.value) == f"record 0: {message}"


def _edit(start, end, correction=("x",), label="T", annotator_id=0):
    return M2Edit(EditSpan(start, end, correction), label, annotator_id)


# Each case holds two faults; the first named in emit_m2's order is reported:
# source tokens, then for each edit in turn its span, correction, label and
# annotator id, one record after another.
@pytest.mark.parametrize(
    "records, message",
    [
        (
            [M2Record(("a b",), (_edit(0, 2),))],
            "record 0: invalid source token 'a b'",
        ),
        (
            [M2Record(("a",), (_edit(0, 2, ("x|||y",)),))],
            "record 0: span 0 2 out of range",
        ),
        (
            [M2Record(("a",), (_edit(0, 1, ("x|||y",), label="T|"),))],
            "record 0: invalid correction token 'x|||y'",
        ),
        (
            [M2Record(("a",), (_edit(0, 1, label="T\t", annotator_id=-1),))],
            "record 0: invalid type label 'T\\t'",
        ),
        (
            [M2Record(("a",), (_edit(0, 1, label="T|"), _edit(0, 2)))],
            "record 0: invalid type label 'T|'",
        ),
        (
            [
                M2Record(("a",), (_edit(0, 1, annotator_id=-1),)),
                M2Record(("a b",), (_edit(0, 2),)),
            ],
            "record 0: negative annotator id -1",
        ),
    ],
)
def test_emit_reports_the_first_fault_in_check_order(records, message):
    with pytest.raises(M2ValidationError) as info:
        emit_m2(records)
    assert str(info.value) == message


def test_leading_and_inner_bars_round_trip():
    records = [
        M2Record(("a", "b"), (M2Edit(EditSpan(0, 1, ("|x", "a|", "y")), "|T", 0),)),
        M2Record(("a",), (M2Edit(EditSpan(0, 1, ("||x", "-NONE-")), "||T", 1),)),
    ]
    assert parse_m2(emit_m2(records)) == records


def _first_invalid_token(tokens, correction: bool):
    """The per-character token rule of emit_m2, kept as the reference.

    The last correction token must not end with ``|``, which would join
    the field separator after it.
    """
    for i, tok in enumerate(tokens):
        if not tok or any(c.isspace() for c in tok) or (correction and "|||" in tok):
            return tok
        if correction and i == len(tokens) - 1 and tok.endswith("|"):
            return tok
    return None


def test_emit_token_checks_match_the_per_character_rule():
    rng = random.Random(5)
    pieces = ["a", "b", "|", "\xa0", "\u2028", "\x85", "\t", " "]

    def tokens():
        return tuple(
            "".join(rng.choice(pieces) for _ in range(rng.randint(0, 3)))
            for _ in range(rng.randint(0, 3))
        )

    for _ in range(20_000):
        source, correction = tokens(), tokens()
        record = M2Record(source, (M2Edit(EditSpan(0, 0, correction), "T", 0),))
        bad_source = _first_invalid_token(source, correction=False)
        bad_correction = _first_invalid_token(correction, correction=True)
        if bad_source is None and bad_correction is None:
            emit_m2([record])
            continue
        with pytest.raises(M2ValidationError) as info:
            emit_m2([record])
        if bad_source is not None:
            assert str(info.value) == f"record 0: invalid source token {bad_source!r}"
        else:
            assert str(info.value) == f"record 0: invalid correction token {bad_correction!r}"


_token = st.text(
    alphabet="abcdefgXYZ'.,-",
    min_size=1,
    max_size=6,
)
_label = st.sampled_from(["R:SPELL", "U:DET", "M:OTHER", "R:NOUN->PROPN", "UNK"])


@st.composite
def _records(draw):
    tokens = tuple(draw(st.lists(_token, min_size=0, max_size=8)))
    n = len(tokens)
    edits = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if draw(st.booleans()) or n == 0:
            start = draw(st.integers(min_value=0, max_value=n))
            end = draw(st.integers(min_value=start, max_value=n))
            correction = tuple(draw(st.lists(_token, min_size=0, max_size=3)))
            edits.append(
                M2Edit(
                    span=EditSpan(start, end, correction),
                    type_label=draw(_label),
                    annotator_id=draw(st.integers(min_value=0, max_value=3)),
                )
            )
        else:
            edits.append(
                M2Edit(
                    span=EditSpan(-1, -1, ()),
                    type_label=NOOP_TYPE,
                    annotator_id=draw(st.integers(min_value=0, max_value=3)),
                )
            )
    return M2Record(source_tokens=tokens, edits=tuple(edits))


@settings(max_examples=200)
@given(st.lists(_records(), min_size=0, max_size=5))
def test_round_trip_preserves_records(records):
    assert parse_m2(emit_m2(records)) == records


@settings(max_examples=200)
@given(st.lists(_records(), min_size=0, max_size=5))
def test_emission_is_a_fixed_point(records):
    text = emit_m2(records)
    assert emit_m2(parse_m2(text)) == text


@settings(max_examples=200)
@given(st.lists(_records(), min_size=0, max_size=6), st.lists(st.integers(0, 6), max_size=4))
def test_joined_texts_of_parts_are_the_text_of_the_whole(records, cuts):
    # parts may be empty, as the shard of a leading run of blank lines is
    bounds = [0, *sorted(min(cut, len(records)) for cut in cuts), len(records)]
    parts = [emit_m2(records[start:end]) for start, end in zip(bounds, bounds[1:])]
    assert "".join(join_m2(parts)) == emit_m2(records)


def test_read_parallel_pairs_lines():
    pairs = read_parallel("a b\nc\n", "a\nc d\n")
    assert pairs == [(("a", "b"), ("a",)), (("c",), ("c", "d"))]


def test_read_parallel_counts_mismatch():
    with pytest.raises(IngestionError) as info:
        read_parallel("a\nb\n", "a\n")
    message = str(info.value)
    assert "2" in message and "1" in message


def test_read_parallel_crlf_matches_lf():
    lf = read_parallel("a  b\nc\n\n", "a\nc d\n\n")
    assert read_parallel("a  b\r\nc\r\n\r\n", "a\r\nc d\r\n\r") == lf
    assert lf == [(("a", "b"), ("a",)), (("c",), ("c", "d")), ((), ())]


@pytest.mark.parametrize("char", ["\u2028", "\x85", "\xa0", "\t", "\r"])
@pytest.mark.parametrize("side", ["original", "corrected"])
def test_read_parallel_rejects_other_whitespace(char, side):
    texts = {"original": "a b\nc d\ne\n", "corrected": "a b\nc d\ne\n"}
    texts[side] = f"a b\nc{char}d\ne\n"
    with pytest.raises(IngestionError) as info:
        read_parallel(texts["original"], texts["corrected"])
    assert str(info.value) == (
        f"{side} text line 2: unsupported whitespace character U+{ord(char):04X}"
    )


# "\r\r" before a line end leaves one lone "\r"
@pytest.mark.parametrize("char", ["\u2028", "\x85", "\xa0", "\t", "\r\r"])
@pytest.mark.parametrize(
    "template, line",
    [
        ("S a{}\nA 0 1|||X|||y|||REQUIRED|||-NONE-|||0\n", 1),
        ("S a{}b\n", 1),
        ("S a\nA 0 1|||X|||y{}|||REQUIRED|||-NONE-|||0\n", 2),
        ("S a\nA 0 1|||X{}|||y|||REQUIRED|||-NONE-|||0\n", 2),
        ("S a\n{}\nS b\n", 2),
    ],
    ids=["source-line-end", "source", "correction", "label", "separator"],
)
def test_parse_m2_rejects_other_whitespace_on_its_line(template, line, char):
    with pytest.raises(M2ParseError) as info:
        parse_m2(template.format(char))
    assert str(info.value) == f"line {line}: unsupported whitespace character U+{ord(char[0]):04X}"


def test_apply_edits_replacement():
    tokens, starts = apply_edits(["I", "werk", "for", "pen"], [EditSpan(1, 2, ("work",))])
    assert tokens == ("I", "work", "for", "pen")
    assert starts == (1,)


def test_apply_edits_mixed_operations():
    spans = [EditSpan(0, 1, ()), EditSpan(2, 2, ("x", "y")), EditSpan(3, 4, ("Z",))]
    tokens, starts = apply_edits(["a", "b", "c", "d"], spans)
    assert tokens == ("b", "x", "y", "c", "Z")
    assert starts == (0, 1, 4)


def test_apply_edits_accepts_unsorted_input():
    spans = [EditSpan(3, 4, ("Z",)), EditSpan(0, 1, ())]
    tokens, starts = apply_edits(["a", "b", "c", "d"], spans)
    assert tokens == ("b", "c", "Z")
    assert starts == (2, 0)


def test_apply_edits_rejects_overlap():
    with pytest.raises(ValueError):
        apply_edits(["a", "b"], [EditSpan(0, 2, ("x",)), EditSpan(1, 2, ("y",))])


def test_apply_edits_rejects_noop():
    with pytest.raises(ValueError):
        apply_edits(["a"], [EditSpan(-1, -1, ())])


@pytest.mark.parametrize(
    "spans, message",
    [
        ([EditSpan(1, 1, ())], "edit 1 1 is empty on both sides"),
        ([EditSpan(0, 0, ())], "edit 0 0 is empty on both sides"),
        ([EditSpan(2, 2, ())], "edit 2 2 is empty on both sides"),
        ([EditSpan(1, 2, ("x",)), EditSpan(0, 0, ())], "edit 0 0 is empty on both sides"),
        ([EditSpan(0, 1, ()), EditSpan(1, 1, ())], "edit 1 1 is empty on both sides"),
    ],
)
def test_apply_edits_rejects_an_edit_empty_on_both_sides(spans, message):
    with pytest.raises(ValueError) as info:
        apply_edits(["a", "b"], spans)
    assert str(info.value) == message


def test_apply_edits_random_consistency():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(0, 8)
        tokens = [f"t{i}" for i in range(n)]
        spans = []
        cursor = 0
        while cursor < n and rng.random() < 0.7:
            start = rng.randint(cursor, n)
            if start >= n:
                break
            end = rng.randint(start, min(n, start + 2))
            correction = tuple(f"c{j}" for j in range(rng.randint(0, 2)))
            if start == end and not correction:
                cursor = start + 1
                continue
            spans.append(EditSpan(start, end, correction))
            cursor = end + 1
        result, starts = apply_edits(tokens, spans)
        rebuilt = []
        consumed = 0
        for span in sorted(spans, key=lambda s: (s.start, s.end)):
            rebuilt.extend(tokens[consumed : span.start])
            rebuilt.extend(span.correction)
            consumed = span.end
        rebuilt.extend(tokens[consumed:])
        assert list(result) == rebuilt
        for span, start in zip(spans, starts):
            assert list(result[start : start + len(span.correction)]) == list(span.correction)
