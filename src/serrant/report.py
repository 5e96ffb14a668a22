"""Type distributions over M2 records: a ``Counter`` of edit labels, and its report.

:func:`type_distribution` counts the labels of the non-noop edits;
counters of several corpus pieces add up with ``+``.
:func:`emit_report` renders a counter as TSV or JSON, with the total and
each label's fraction of it computed from the counts.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Sequence

from .m2 import M2Record, NOOP_TYPE

FORMAT_TSV = "tsv"
FORMAT_JSON = "json"
REPORT_FORMATS = (FORMAT_TSV, FORMAT_JSON)

_TSV_HEADER = "type\tcount\tfraction"


def type_distribution(
    records: Sequence[M2Record], annotator_filter: int | None = None
) -> Counter[str]:
    """Count type labels over all non-noop edits, optionally per annotator."""
    return Counter(
        edit.type_label
        for record in records
        for edit in record.edits
        if not (edit.span.is_noop or edit.type_label == NOOP_TYPE)
        and (annotator_filter is None or edit.annotator_id == annotator_filter)
    )


def emit_report(counts: Counter[str], format: str = FORMAT_TSV) -> str:
    """Render label counts: TSV rows sort by count descending, then label; JSON keys by label."""
    if format not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {format!r}")
    total = counts.total()
    if format == FORMAT_JSON:
        return json.dumps({"total": total, "counts": counts}, indent=2, sort_keys=True) + "\n"
    lines = [_TSV_HEADER]
    for label, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        lines.append(f"{label}\t{count}\t{count / total:.4f}")
    return "\n".join(lines) + "\n"
