"""Reading and writing the M2 annotation format and parallel text files.

An M2 file stores one block per sentence: an ``S`` line holding the
space-tokenised original sentence followed by one ``A`` line per edit::

    S I werk
    A 1 2|||R:Spell|||work|||REQUIRED|||-NONE-|||0

``A`` line fields are separated by ``|||``: token span, type label,
correction, two fixed flag fields, annotator id.  Blocks are separated by a
blank line.  Files are UTF-8 with LF line endings.

M2 and parallel text share one line rule (:func:`_lines`): lines end at
``\\n``, one ``\\r`` before a line end is dropped, so CRLF files read like
LF files, and any other whitespace or line-break character (a lone
``\\r``, a tab, NBSP, U+2028, ...) anywhere in the text is an error naming
its line, such as ``m2:3: unsupported whitespace character U+0009``.
Every error :func:`parse_m2` raises names the input ``m2`` and a line,
and every one :func:`read_parallel` raises ``original`` or ``corrected``
(see :mod:`serrant.errors`).  Tokens on ``S`` lines and in correction
fields are separated by single spaces.  So every record :func:`parse_m2`
returns is one :func:`emit_m2` writes back.

Canonical emission rules, chosen to match the most common usage of the
format: deletions carry an empty correction field, the no-edit sentinel
(span ``-1 -1``, type ``noop``) carries ``-NONE-``, the two flag fields are
the literals ``REQUIRED`` and ``-NONE-``, and records are separated by
exactly one blank line.  ``parse_m2`` additionally accepts ``-NONE-`` for
ordinary deletions and repeated blank lines between blocks, so
``emit_m2(parse_m2(text))`` is byte-identical only for canonically formatted
input, while ``parse_m2(emit_m2(records))`` always returns equal records:
``emit_m2`` rejects a type label holding whitespace other than the space,
as the line rule would.  It checks each record as it writes its lines, so
every token string it writes is joined once, checked and written.

:class:`EditSpan`, :class:`M2Edit` and :class:`M2Record` are named tuples:
they compare equal to plain tuples of their fields, and ``_replace`` gives
a changed copy.  Within one :func:`parse_m2` call, edits with equal type
labels share one label string, and edits with equal correction fields one
correction tuple.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import IngestionError, M2ParseError, M2ValidationError, SerrantError

NOOP_TYPE = "noop"

_FLAG_REQUIRED = "REQUIRED"
_FLAG_NONE = "-NONE-"


class EditSpan(NamedTuple):
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


class M2Edit(NamedTuple):
    span: EditSpan
    type_label: str
    annotator_id: int


class M2Record(NamedTuple):
    """One sentence block: source tokens plus the edits annotated on them."""

    source_tokens: tuple[str, ...]
    edits: tuple[M2Edit, ...] = ()


def parse_m2(text: str, first_line: int = 1) -> list[M2Record]:
    """Parse M2 text into records; ``first_line`` is the number of its first line.

    Span offsets and annotator ids are ASCII digits with an optional
    leading ``-``, the integers of CoNLL-U ids and heads plus the sign of
    the noop's ``-1 -1``.

    Raises:
        M2ParseError: on whitespace other than the space and the line end,
            malformed lines, annotations appearing before any sentence
            line, empty tokens (two spaces in a row), non-integer or
            out-of-range offsets, an empty type label, or a negative
            annotator id.  The error names the input ``m2`` and the
            line's number, counted from ``first_line``.
    """
    records: list[M2Record] = []
    tokens: tuple[str, ...] | None = None
    edits: list[M2Edit] = []
    # an M2 file holds few distinct labels and corrections: one object each
    labels: dict[str, str] = {}
    corrections: dict[str, tuple[str, ...]] = {}

    def close() -> None:
        nonlocal tokens, edits
        if tokens is not None:
            records.append(M2Record(tokens, tuple(edits)))
        tokens = None
        edits = []

    for lineno, line in enumerate(_lines(text, M2ParseError, "m2", first_line), first_line):
        if not line.strip():
            close()
            continue
        if line == "S" or line.startswith("S "):
            close()
            tokens = _parse_sentence_line(line, lineno)
        elif line.startswith("A "):
            if tokens is None:
                raise M2ParseError("annotation line before any sentence line", "m2", lineno)
            edits.append(_parse_annotation_line(line, lineno, len(tokens), labels, corrections))
        else:
            raise M2ParseError(f"unrecognised line {line!r}", "m2", lineno)
    close()
    return records


def _parse_sentence_line(line: str, lineno: int) -> tuple[str, ...]:
    if line == "S":
        return ()
    toks = tuple(line[2:].split(" "))
    if any(not t for t in toks):
        raise M2ParseError("empty token on sentence line", "m2", lineno)
    return toks


def _parse_annotation_line(
    line: str,
    lineno: int,
    n_tokens: int,
    labels: dict[str, str],
    corrections: dict[str, tuple[str, ...]],
) -> M2Edit:
    """Parse one ``A`` line, sharing its label and correction through the two dicts."""
    fields = line[2:].split("|||")
    if len(fields) != 6:
        raise M2ParseError(f"expected 6 |||-separated fields, got {len(fields)}", "m2", lineno)
    offsets = fields[0].split(" ")
    if len(offsets) != 2:
        raise M2ParseError(f"expected two span offsets, got {fields[0]!r}", "m2", lineno)
    try:
        start, end = _integer(offsets[0]), _integer(offsets[1])
    except ValueError:
        raise M2ParseError(f"non-integer span offsets {fields[0]!r}", "m2", lineno) from None
    if not ((start, end) == (-1, -1) or 0 <= start <= end <= n_tokens):
        raise M2ParseError(f"span {start} {end} out of range for {n_tokens} tokens", "m2", lineno)
    if not fields[1]:
        raise M2ParseError("empty type label", "m2", lineno)
    correction = corrections.get(fields[2])
    if correction is None:
        if fields[2] in ("", _FLAG_NONE):
            correction = ()
        else:
            correction = tuple(fields[2].split(" "))
            if any(not t for t in correction):
                raise M2ParseError("empty token in correction field", "m2", lineno)
        corrections[fields[2]] = correction
    try:
        annotator = _integer(fields[5])
    except ValueError:
        raise M2ParseError(f"non-integer annotator id {fields[5]!r}", "m2", lineno) from None
    if annotator < 0:
        raise M2ParseError(f"negative annotator id {annotator}", "m2", lineno)
    label = labels.setdefault(fields[1], fields[1])
    return M2Edit(EditSpan(start, end, correction), label, annotator)


def _integer(text: str) -> int:
    """``text`` as an M2 integer: ASCII digits, as in CoNLL-U, with an optional leading ``-``.

    Raises ValueError for any other form ``int`` takes (``+1``, ``1_0``,
    `` 1``, ``１``, ...).
    """
    if text.isascii() and text.removeprefix("-").isdigit():
        return int(text)
    raise ValueError(text)


def emit_m2(records: Sequence[M2Record]) -> str:
    """Render records canonically.  Empty input renders as an empty string.

    Each record is checked as its lines are written, in one pass: its
    source tokens, then for each edit in turn its span, correction, type
    label (each distinct label once per call) and annotator id.  The first
    fault found is the one raised.

    Raises:
        M2ValidationError: when a record violates the format invariants
            (tokens containing whitespace, correction tokens containing
            the field separator, a correction or type label ending in
            ``|``, an empty type label or one holding the field separator,
            a line break or other whitespace than the space, a correction
            that is just ``-NONE-``, spans out of range, negative
            annotator ids).  Records from
            :func:`parse_m2` always pass, so the checks guard records that
            callers build by hand and labels that carry input FEATS values.
            The error names no input or line: a caller that knows where
            the records came from names them, as ``pipeline`` does.
    """
    lines: list[str] = []
    labels: set[str] = set()  # the labels checked so far, each checked once
    flags = f"|||{_FLAG_REQUIRED}|||{_FLAG_NONE}|||"  # the two fixed fields of an A line
    for source_tokens, edits in records:
        # Joined with spaces and split on whitespace, tokens come back unchanged
        # exactly when none is empty and none holds whitespace (str.split and
        # str.isspace share one definition of whitespace).
        source = " ".join(source_tokens)
        if source.split() != list(source_tokens):
            bad = next(tok for tok in source_tokens if tok.split() != [tok])
            raise M2ValidationError(f"invalid source token {bad!r}")
        lines.append(f"S {source}" if source else "S")
        for (start, end, tokens), label, annotator_id in edits:
            if not ((start, end) == (-1, -1) or 0 <= start <= end <= len(source_tokens)):
                raise M2ValidationError(f"span {start} {end} out of range")
            correction = " ".join(tokens)
            # A field ends at the first "|||", so a trailing "|" would move into the
            # next field, and parse_m2 reads a lone -NONE- as a deletion.
            if (
                correction.split() != list(tokens)
                or "|||" in correction
                or correction.endswith("|")
                or correction == _FLAG_NONE
            ):
                bad = next((t for t in tokens if t.split() != [t] or "|||" in t), tokens[-1])
                raise M2ValidationError(f"invalid correction token {bad!r}")
            if label not in labels:
                # the line rule of parse_m2 would reject any whitespace but the space
                if (
                    not label
                    or "|||" in label
                    or label.endswith("|")
                    or "\n" in label
                    or _OTHER_SPACE.search(label)
                ):
                    raise M2ValidationError(f"invalid type label {label!r}")
                labels.add(label)
            if annotator_id < 0:
                raise M2ValidationError(f"negative annotator id {annotator_id}")
            if not correction and label == NOOP_TYPE:
                correction = _FLAG_NONE
            lines.append(f"A {start} {end}|||{label}|||{correction}{flags}{annotator_id}")
        # "\n".join turns this into the line end of the record's last line, and
        # before the next record into the blank line that parts them
        lines.append("")
    return "\n".join(lines)


def join_m2(texts: Iterable[str]) -> Iterator[str]:
    """Pieces that, written in turn, make one M2 text of the records of ``texts``, in order.

    Each text is what :func:`emit_m2` gives for some records, so the pieces
    make what it gives for all of them at once: the texts that hold records,
    with a blank line between each two.
    """
    separator = ""
    for text in texts:
        if text:
            yield separator
            yield text
            separator = "\n"


def read_parallel(
    original: str, corrected: str, first_line: int = 1
) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Pair up two one-sentence-per-line texts, tokenised on spaces.

    ``first_line`` is the number of the first line of both texts.

    Lines follow the line rule of M2 (:func:`_lines`): they split on
    ``\\n`` only, each losing one trailing ``\\r``.  Tokens split on runs of
    the space character, where an M2 line needs single spaces.

    Raises:
        IngestionError: when a line holds any other whitespace or line
            break character (naming its text, ``original`` or
            ``corrected``, its line, counted from ``first_line``, and the
            character), or when the two texts have different line counts
            (naming the longer text at its first line the other lacks, and
            both counts).
    """
    orig_lines = _lines(original, IngestionError, "original", first_line)
    cor_lines = _lines(corrected, IngestionError, "corrected", first_line)
    if len(orig_lines) != len(cor_lines):
        counts = f"{len(orig_lines)} original lines vs {len(cor_lines)} corrected lines"
        longer = "original" if len(orig_lines) > len(cor_lines) else "corrected"
        line = first_line + min(len(orig_lines), len(cor_lines))
        raise IngestionError(f"parallel texts differ in length: {counts}", longer, line)
    # with no other whitespace left, str.split() splits on runs of spaces
    return [(tuple(o.split()), tuple(c.split())) for o, c in zip(orig_lines, cor_lines)]


# whitespace other than the space and the line break
_OTHER_SPACE = re.compile(r"[^\S \n]")


def _lines(text: str, error: type[SerrantError], source: str, first_line: int) -> list[str]:
    """Split the text of input ``source``, whose first line is ``first_line``, into lines.

    This is the one line rule of text and M2 input.

    Lines end at ``\\n``, and one ``\\r`` before each line end, the end of
    the text included, is dropped.  A final line end adds no empty line.

    Raises:
        SerrantError: an ``error`` naming ``source`` and the line of the
            first whitespace or line-break character other than the space
            and the line end.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if text.endswith("\r"):
            text = text[:-1] + "\n"
    bad = _OTHER_SPACE.search(text)
    if bad is not None:
        line = text.count("\n", 0, bad.start()) + first_line
        raise error(f"unsupported whitespace character U+{ord(bad.group()):04X}", source, line)
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
    sequence.

    Raises:
        ValueError: for a noop span, a span empty on both sides (the message
            names its offsets), or spans that cannot be sorted into a
            non-overlapping order.
    """
    # by offsets, and in the given order among equal offsets
    ordered = sorted(
        (start, end, index, correction) for index, (start, end, correction) in enumerate(spans)
    )
    out = list(source_tokens)
    starts = [0] * len(ordered)
    offset = 0
    previous_end = 0
    for start, end, index, correction in ordered:
        if start == end == -1:
            raise ValueError("noop spans cannot be applied")
        if start == end and not correction:
            raise ValueError(f"edit {start} {end} is empty on both sides")
        if start < previous_end:
            raise ValueError(f"overlapping edit spans at {start}")
        previous_end = max(previous_end, end)
        out[start + offset : end + offset] = correction
        starts[index] = start + offset
        offset += len(correction) - (end - start)
    return tuple(out), tuple(starts)
