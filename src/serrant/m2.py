"""Reading and writing the M2 annotation format and parallel text files.

An M2 file stores one block per sentence: an ``S`` line holding the
whitespace-tokenised original sentence followed by one ``A`` line per edit::

    S I werk
    A 1 2|||R:Spell|||work|||REQUIRED|||-NONE-|||0

``A`` line fields are separated by ``|||``: token span, type label,
correction, two fixed flag fields, annotator id.  Blocks are separated by a
blank line.  Files are UTF-8 with LF line endings.

Canonical emission rules, chosen to match the most common usage of the
format: deletions carry an empty correction field, the no-edit sentinel
(span ``-1 -1``, type ``noop``) carries ``-NONE-``, the two flag fields are
the literals ``REQUIRED`` and ``-NONE-``, and records are separated by
exactly one blank line.  ``parse_m2`` additionally accepts ``-NONE-`` for
ordinary deletions and repeated blank lines between blocks, so
``emit_m2(parse_m2(text))`` is byte-identical only for canonically formatted
input, while ``parse_m2(emit_m2(records))`` always returns equal records.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import IngestionError, M2ParseError, M2ValidationError

NOOP_TYPE = "noop"

_FLAG_REQUIRED = "REQUIRED"
_FLAG_NONE = "-NONE-"


@dataclass(frozen=True)
class EditSpan:
    """A half-open token span ``[start, end)`` plus its replacement tokens.

    ``start == end`` is an insertion point, an empty ``correction`` is a
    deletion, and ``start == end == -1`` marks the noop sentinel.
    """

    start: int
    end: int
    correction: tuple[str, ...] = ()

    @property
    def is_insertion(self) -> bool:
        return self.start == self.end and self.start >= 0

    @property
    def is_deletion(self) -> bool:
        return self.start >= 0 and self.end > self.start and not self.correction

    @property
    def is_noop(self) -> bool:
        return self.start == -1 and self.end == -1


@dataclass(frozen=True)
class M2Edit:
    span: EditSpan
    type_label: str
    annotator_id: int


@dataclass(frozen=True)
class M2Record:
    """One sentence block: source tokens plus the edits annotated on them."""

    source_tokens: tuple[str, ...]
    edits: tuple[M2Edit, ...] = ()


def parse_m2(text: str) -> list[M2Record]:
    """Parse M2 text into records.

    Raises:
        M2ParseError: on malformed lines, annotations appearing before any
            sentence line, non-integer or out-of-range offsets, or a
            negative annotator id.  The error carries the 1-based line
            number.
    """
    records: list[M2Record] = []
    tokens: tuple[str, ...] | None = None
    edits: list[M2Edit] = []

    def close() -> None:
        nonlocal tokens, edits
        if tokens is not None:
            records.append(M2Record(tokens, tuple(edits)))
        tokens = None
        edits = []

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            close()
            continue
        if line == "S" or line.startswith("S "):
            close()
            tokens = _parse_sentence_line(line, lineno)
        elif line.startswith("A "):
            if tokens is None:
                raise M2ParseError(lineno, "annotation line before any sentence line")
            edits.append(_parse_annotation_line(line, lineno, len(tokens)))
        else:
            raise M2ParseError(lineno, f"unrecognised line {line!r}")
    close()
    return records


def _parse_sentence_line(line: str, lineno: int) -> tuple[str, ...]:
    if line == "S":
        return ()
    toks = tuple(line[2:].split(" "))
    if any(not t for t in toks):
        raise M2ParseError(lineno, "empty token on sentence line")
    return toks


def _parse_annotation_line(line: str, lineno: int, n_tokens: int) -> M2Edit:
    fields = line[2:].split("|||")
    if len(fields) != 6:
        raise M2ParseError(lineno, f"expected 6 |||-separated fields, got {len(fields)}")
    offsets = fields[0].split(" ")
    if len(offsets) != 2:
        raise M2ParseError(lineno, f"expected two span offsets, got {fields[0]!r}")
    try:
        start, end = int(offsets[0]), int(offsets[1])
    except ValueError:
        raise M2ParseError(lineno, f"non-integer span offsets {fields[0]!r}") from None
    if not ((start, end) == (-1, -1) or 0 <= start <= end <= n_tokens):
        raise M2ParseError(lineno, f"span {start} {end} out of range for {n_tokens} tokens")
    correction: tuple[str, ...]
    if fields[2] in ("", _FLAG_NONE):
        correction = ()
    else:
        correction = tuple(fields[2].split(" "))
        if any(not t for t in correction):
            raise M2ParseError(lineno, "empty token in correction field")
    try:
        annotator = int(fields[5])
    except ValueError:
        raise M2ParseError(lineno, f"non-integer annotator id {fields[5]!r}") from None
    if annotator < 0:
        raise M2ParseError(lineno, f"negative annotator id {annotator}")
    return M2Edit(EditSpan(start, end, correction), fields[1], annotator)


def emit_m2(records: Sequence[M2Record]) -> str:
    """Render records canonically.  Empty input renders as an empty string.

    Raises:
        M2ValidationError: naming the 0-based record index, when a record
            violates the format invariants (tokens containing whitespace,
            correction tokens containing the field separator, a correction
            or type label ending in ``|``, a correction that is just
            ``-NONE-``, spans out of range, negative annotator ids).
    """
    blocks = []
    for index, record in enumerate(records):
        _validate_record(record, index)
        lines = ["S " + " ".join(record.source_tokens) if record.source_tokens else "S"]
        for edit in record.edits:
            span = edit.span
            if span.correction:
                correction = " ".join(span.correction)
            else:
                correction = _FLAG_NONE if edit.type_label == NOOP_TYPE else ""
            lines.append(
                f"A {span.start} {span.end}|||{edit.type_label}|||{correction}"
                f"|||{_FLAG_REQUIRED}|||{_FLAG_NONE}|||{edit.annotator_id}"
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""


def _validate_record(record: M2Record, index: int) -> None:
    if not _plain_tokens(record.source_tokens):
        bad = next(tok for tok in record.source_tokens if not _plain_token(tok))
        raise M2ValidationError(index, f"invalid source token {bad!r}")
    for edit in record.edits:
        span = edit.span
        if not ((span.start, span.end) == (-1, -1) or 0 <= span.start <= span.end <= len(record.source_tokens)):
            raise M2ValidationError(index, f"span {span.start} {span.end} out of range")
        correction = " ".join(span.correction)
        # A field ends at the first "|||", so a trailing "|" would move into the next
        # field, and parse_m2 reads a lone -NONE- as a deletion.
        if (
            not _plain_tokens(span.correction)
            or "|||" in correction
            or correction.endswith("|")
            or correction == _FLAG_NONE
        ):
            bad = next(
                (tok for tok in span.correction if not _plain_token(tok) or "|||" in tok),
                span.correction[-1],
            )
            raise M2ValidationError(index, f"invalid correction token {bad!r}")
        label = edit.type_label
        if "|||" in label or "\n" in label or label.endswith("|"):
            raise M2ValidationError(index, f"invalid type label {label!r}")
        if edit.annotator_id < 0:
            raise M2ValidationError(index, f"negative annotator id {edit.annotator_id}")


def _plain_token(token: str) -> bool:
    """A token is plain when it is not empty and holds no whitespace."""
    return bool(token) and not any(c.isspace() for c in token)


def _plain_tokens(tokens: Sequence[str]) -> bool:
    """Whether every token is plain, checked in one step.

    Joined with spaces and split on whitespace, the tokens come back
    unchanged exactly when none is empty and none holds whitespace
    (``str.split`` and ``str.isspace`` share one definition of whitespace).
    """
    return " ".join(tokens).split() == list(tokens)


def read_parallel(original: str, corrected: str) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Pair up two one-sentence-per-line texts, tokenised on spaces.

    Lines split on ``\\n`` only, each losing one trailing ``\\r``, and
    tokens on runs of the space character, as in M2 and CoNLL-U.

    Raises:
        IngestionError: when a line holds any other whitespace or line
            break character (the message names the side, the 1-based line
            and the character), or when the two texts have different line
            counts (the message reports both counts).
    """
    orig_lines = _text_lines(original, "original")
    cor_lines = _text_lines(corrected, "corrected")
    if len(orig_lines) != len(cor_lines):
        raise IngestionError(
            f"parallel texts differ in length: {len(orig_lines)} original lines"
            f" vs {len(cor_lines)} corrected lines"
        )
    # with no other whitespace left, str.split() splits on runs of spaces
    return [(tuple(o.split()), tuple(c.split())) for o, c in zip(orig_lines, cor_lines)]


# whitespace other than the space and the line break
_OTHER_SPACE = re.compile(r"[^\S \n]")


def _text_lines(text: str, side: str) -> list[str]:
    if "\r" in text:  # drop one "\r" before each line end, the end of the text included
        text = text.replace("\r\n", "\n")
        if text.endswith("\r"):
            text = text[:-1] + "\n"
    bad = _OTHER_SPACE.search(text)
    if bad is not None:
        line = text.count("\n", 0, bad.start()) + 1
        raise IngestionError(
            f"{side} text line {line}: unsupported whitespace character U+{ord(bad.group()):04X}"
        )
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def apply_edits(
    source_tokens: Sequence[str], spans: Iterable[EditSpan]
) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Apply non-noop edit spans to ``source_tokens``.

    Returns the corrected token sequence together with, for each span in the
    given order, the position its correction starts at in the corrected
    sequence.  Spans must be sortable into a non-overlapping order.
    """
    ordered = sorted(enumerate(spans), key=lambda item: (item[1].start, item[1].end))
    out = list(source_tokens)
    starts = [0] * len(ordered)
    offset = 0
    previous_end = 0
    for original_index, span in ordered:
        if span.is_noop:
            raise ValueError("noop spans cannot be applied")
        if span.start < previous_end:
            raise ValueError(f"overlapping edit spans at {span.start}")
        previous_end = max(previous_end, span.end)
        start = span.start + offset
        out[start : span.end + offset] = list(span.correction)
        starts[original_index] = start
        offset += len(span.correction) - (span.end - span.start)
    return tuple(out), tuple(starts)
