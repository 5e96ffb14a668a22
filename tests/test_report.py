"""Type distribution counting and report rendering."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from serrant.m2 import EditSpan, M2Edit, M2Record
from serrant.report import FORMAT_JSON, emit_report, type_distribution


def record(*edits: tuple[str, int]) -> M2Record:
    return M2Record(
        source_tokens=("a", "b"),
        edits=tuple(
            M2Edit(span=EditSpan(0, 1, ("x",)), type_label=label, annotator_id=annotator)
            for label, annotator in edits
        ),
    )


NOOP_RECORD = M2Record(
    source_tokens=("a",),
    edits=(M2Edit(span=EditSpan(-1, -1, ()), type_label="noop", annotator_id=0),),
)


def test_counts_across_records():
    records = [record(("R:Spell", 0), ("U:Det", 0)), record(("R:Spell", 0))]
    distribution = type_distribution(records)
    assert isinstance(distribution, Counter)
    assert distribution.total() == 3
    assert distribution == {"R:Spell": 2, "U:Det": 1}


def test_noop_edits_are_not_counted():
    distribution = type_distribution([NOOP_RECORD, record(("R:Spell", 0))])
    assert distribution.total() == 1
    assert distribution == {"R:Spell": 1}


def test_annotator_filter():
    records = [record(("R:Spell", 0), ("U:Det", 1))]
    distribution = type_distribution(records, annotator_filter=1)
    assert distribution == {"U:Det": 1}
    assert distribution.total() == 1


def test_tsv_report_sorts_by_count_then_label():
    distribution = Counter({"U:Det": 2, "R:Spell": 2, "R:Orth": 1})
    text = emit_report(distribution)
    assert text == (
        "type\tcount\tfraction\n"
        "R:Spell\t2\t0.4000\n"
        "U:Det\t2\t0.4000\n"
        "R:Orth\t1\t0.2000\n"
    )


def test_tsv_report_empty_distribution():
    assert emit_report(Counter()) == "type\tcount\tfraction\n"


def test_json_report_round_trips():
    distribution = Counter({"R:Spell": 2, "U:Det": 1})
    payload = json.loads(emit_report(distribution, FORMAT_JSON))
    assert payload == {"total": 3, "counts": {"R:Spell": 2, "U:Det": 1}}


def test_json_report_is_stable():
    distribution = Counter({"B": 1, "A": 1})
    assert emit_report(distribution, FORMAT_JSON) == emit_report(distribution, FORMAT_JSON)
    assert emit_report(distribution, FORMAT_JSON).endswith("\n")


def test_unknown_format_is_rejected():
    with pytest.raises(ValueError):
        emit_report(Counter(), "xml")
