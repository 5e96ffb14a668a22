"""Output checks behind ``fail_rate``.

The checks trust nothing the program computes: the M2 reader and the edit
applier here are written independently of ``serrant.m2``.  A pair fails
when its output record breaks any rule below; a run whose labels differ
from the reference captured at the seed commit, or whose ``--report`` does
not count the labels of its own M2 output, fails every pair.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

LABEL = re.compile(r"^(R|M|U):\S+$")
NOOP = "noop"

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Edit:
    start: int
    end: int
    label: str
    correction: tuple[str, ...]
    annotator: int

    @property
    def is_noop(self) -> bool:
        return self.start == self.end == -1


@dataclass(frozen=True)
class Record:
    tokens: tuple[str, ...]
    edits: tuple[Edit, ...]


def read_m2(text: str) -> list[Record]:
    """Parse M2 blocks; raises ValueError on any line that is not S, A or blank."""
    records: list[Record] = []
    tokens: tuple[str, ...] | None = None
    edits: list[Edit] = []
    for line in text.split("\n") + [""]:
        if not line:
            if tokens is not None:
                records.append(Record(tokens, tuple(edits)))
            tokens, edits = None, []
        elif line.startswith("S"):
            tokens = tuple(line[2:].split(" ")) if len(line) > 1 else ()
        elif line.startswith("A ") and tokens is not None:
            span, label, correction, _, _, annotator = line[2:].split("|||")
            start, end = (int(x) for x in span.split(" "))
            words = () if correction in ("", "-NONE-") else tuple(correction.split(" "))
            edits.append(Edit(start, end, label, words, int(annotator)))
        else:
            raise ValueError(f"unexpected M2 line {line!r}")
    return records


def apply(tokens: tuple[str, ...], edits: list[Edit]) -> tuple[str, ...] | None:
    """Apply one annotator's edits; None when they overlap or leave the sentence."""
    out: list[str] = []
    position = 0
    for edit in sorted(edits, key=lambda e: (e.start, e.end)):
        if edit.start < position or edit.end > len(tokens):
            return None
        out.extend(tokens[position : edit.start])
        out.extend(edit.correction)
        position = edit.end
    out.extend(tokens[position:])
    return tuple(out)


def _label_ok(edit: Edit) -> bool:
    if edit.is_noop:
        return edit.label == NOOP
    return LABEL.match(edit.label) is not None and "UNK" not in edit.label


def _classify_ok(record: Record, orig: tuple[str, ...], cor: tuple[str, ...]) -> bool:
    if record.tokens != orig:
        return False
    by_annotator: dict[int, list[Edit]] = {}
    for edit in record.edits:
        if not edit.is_noop:
            by_annotator.setdefault(edit.annotator, []).append(edit)
    return all(apply(orig, edits) == cor for edits in by_annotator.values()) and (
        bool(by_annotator) or orig == cor
    )


def _retype_ok(record: Record, given: Record) -> bool:
    if record.tokens != given.tokens or len(record.edits) != len(given.edits):
        return False
    for new, old in zip(record.edits, given.edits):
        if (new.start, new.end, new.correction, new.annotator) != (
            old.start,
            old.end,
            old.correction,
            old.annotator,
        ):
            return False
        if old.is_noop and new.label != old.label:
            return False
    return True


def label_digest(records: list[Record]) -> str:
    labels = "\n".join(edit.label for record in records for edit in record.edits)
    return hashlib.sha256(labels.encode("utf-8")).hexdigest()[:16]


def _report_ok(report_text: str, records: list[Record]) -> bool:
    labels = Counter(e.label for r in records for e in r.edits if not e.is_noop)
    lines = report_text.rstrip("\n").split("\n")
    counted = Counter()
    for line in lines[1:]:
        label, count, _ = line.split("\t")
        counted[label] = int(count)
    return counted == labels


class Expectation:
    """What a workload's output must look like, read from its input files."""

    def __init__(self, mode: str, inputs: Path, reference: str | None) -> None:
        self.mode = mode
        self.reference = reference
        if mode == "retype":
            self.given = read_m2((inputs / "input.m2").read_text(encoding="utf-8"))
            self.pairs = len(self.given)
        else:
            self.orig = _lines(inputs / "orig.txt")
            self.cor = _lines(inputs / "cor.txt")
            self.pairs = len(self.orig)

    def failures(self, m2_text: str, report_text: str) -> tuple[int, list[str]]:
        """Return the number of failed pairs and a few messages describing them."""
        try:
            records = read_m2(m2_text)
        except ValueError as exc:
            return self.pairs, [f"unreadable M2 output: {exc}"]
        notes: list[str] = []
        if len(records) != self.pairs:
            notes.append(f"{len(records)} output records for {self.pairs} pairs")
        failed = max(0, self.pairs - len(records))
        for i, record in enumerate(records[: self.pairs]):
            if self.mode == "retype":
                ok = _retype_ok(record, self.given[i])
            else:
                ok = _classify_ok(record, self.orig[i], self.cor[i])
            ok = ok and all(_label_ok(e) for e in record.edits)
            if not ok:
                failed += 1
                if len(notes) < 3:
                    notes.append(f"pair {i}: {record}")
        if not _report_ok(report_text, records):
            return self.pairs, notes + ["--report does not count the M2 labels"]
        if self.reference is not None and label_digest(records) != self.reference:
            return self.pairs, notes + ["labels differ from the seed-commit reference"]
        return failed, notes


def _lines(path: Path) -> list[tuple[str, ...]]:
    text = path.read_text(encoding="utf-8")
    return [tuple(line.split(" ")) if line else () for line in text.rstrip("\n").split("\n")]


def load_reference(corpus: str, seed: int) -> str | None:
    """The label digest captured at the seed commit, or None for an uncaptured seed."""
    table = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return table["digests"].get(corpus, {}).get(str(seed))
