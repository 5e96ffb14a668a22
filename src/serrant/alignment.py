"""Token alignment between an original and a corrected sentence.

``align`` runs a Damerau-Levenshtein style dynamic programme over tokens.
Costs: match 0; insertion and deletion 1; substitution 1 when the two
tokens are equal lowercased or share a lemma, else 2; transposition of an
adjacent pair 1.  Ties are resolved with a fixed preference order
(match, substitution, transposition, deletion, insertion), which together
with the left-to-right sweep makes the output deterministic.

``merge`` collapses every maximal run of non-match operations into a single
:class:`Edit`, so edits are never adjacent and applying them left to right
reproduces the corrected sentence exactly.

:class:`AlignmentOp` and :class:`Edit` are named tuples, built once per
operation and once per edit: they compare equal to plain tuples of their
fields, and ``_replace`` gives a changed copy.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .m2 import EditSpan

MATCH = "match"
SUBSTITUTE = "substitute"
INSERT = "insert"
DELETE = "delete"
TRANSPOSE = "transpose"


class AlignmentOp(NamedTuple):
    """One alignment operation; a named tuple because align() builds many."""

    kind: str
    src_start: int
    src_end: int
    trg_start: int
    trg_end: int


class Edit(NamedTuple):
    """A contiguous rewrite of the source, with its landing site in the target."""

    span: EditSpan
    src_tokens: tuple[str, ...]
    cor_start: int

    @property
    def cor_end(self) -> int:
        return self.cor_start + len(self.span.correction)


def align(
    src: Sequence[str],
    trg: Sequence[str],
    src_lemmas: Sequence[str] | None = None,
    trg_lemmas: Sequence[str] | None = None,
) -> list[AlignmentOp]:
    """Align two token sequences, returning operations in source order.

    The concatenated source ranges of the result cover the source exactly
    and in order, and likewise for the target ranges.  Lemma sequences,
    when given, must parallel the token sequences; they lower the
    substitution cost for same-lemma pairs.
    """
    n, m = len(src), len(trg)
    if src_lemmas is not None and len(src_lemmas) != n:
        raise ValueError("src_lemmas does not parallel src")
    if trg_lemmas is not None and len(trg_lemmas) != m:
        raise ValueError("trg_lemmas does not parallel trg")

    # The table's backtrace always takes a shared suffix as matches: a free
    # match costs no more than deleting, inserting or transposing into it.
    # So the suffix skips the table and leads the reversed operation list.
    # Operations here, and edits in merge, are built with tuple.__new__,
    # which skips the named tuples' Python-level constructors.
    new, Op = tuple.__new__, AlignmentOp
    ops: list[AlignmentOp] = []
    while n and m and src[n - 1] == trg[m - 1]:
        ops.append(new(Op, (MATCH, n - 1, n, m - 1, m)))
        n, m = n - 1, m - 1

    src_lower = [t.lower() for t in src[:n]]
    trg_lower = [t.lower() for t in trg[:m]]
    trg_cells = list(zip(range(1, m + 1), trg, trg_lower))
    lemma_ties = src_lemmas is not None and trg_lemmas is not None

    # choice[i][j] records the op of the best alignment of src[:i] with trg[:j].
    # A transposition can never tie a match or substitution and win, because
    # both come first in the preference order, so only a strictly lower cost
    # replaces them; deletion and insertion likewise only win when cheaper.
    # A match is never beaten: neighbouring cells differ by at most 1, and a
    # transposition next to a match costs no less than the match's diagonal.
    # The sweep carries the left, diagonal and above-left cells in locals, and
    # keeps only the two cost rows above the current one: the backtrace reads
    # only choice.
    above = list(range(m + 1))
    choice = [[MATCH] + [INSERT] * m]
    above2: list[int] = []
    s_prev_lower = None
    for i in range(1, n + 1):
        s, s_lower = src[i - 1], src_lower[i - 1]
        s_lemma = src_lemmas[i - 1] if lemma_ties else None
        row, row_choice = [i], [DELETE]
        left, diagonal = i, i - 1
        t_prev_lower = None
        for j, t, t_lower in trg_cells:
            up = above[j]
            if s == t:
                best, op = diagonal, MATCH
            else:
                if s_lower == t_lower or (lemma_ties and s_lemma == trg_lemmas[j - 1]):
                    best, op = diagonal + 1, SUBSTITUTE
                else:
                    best, op = diagonal + 2, SUBSTITUTE
                if (
                    s_prev_lower == t_lower
                    and s_lower == t_prev_lower
                    and above2[j - 2] + 1 < best
                ):
                    best, op = above2[j - 2] + 1, TRANSPOSE
                if up + 1 < best:
                    best, op = up + 1, DELETE
                if left + 1 < best:
                    best, op = left + 1, INSERT
            row.append(best)
            row_choice.append(op)
            left, diagonal, t_prev_lower = best, up, t_lower
        choice.append(row_choice)
        above2, above, s_prev_lower = above, row, s_lower

    i, j = n, m
    while i > 0 or j > 0:
        op = choice[i][j]
        if op is MATCH or op is SUBSTITUTE:
            ops.append(new(Op, (op, i - 1, i, j - 1, j)))
            i, j = i - 1, j - 1
        elif op is TRANSPOSE:
            ops.append(new(Op, (op, i - 2, i, j - 2, j)))
            i, j = i - 2, j - 2
        elif op is DELETE:
            ops.append(new(Op, (op, i - 1, i, j, j)))
            i -= 1
        else:
            ops.append(new(Op, (op, i, i, j - 1, j)))
            j -= 1
    ops.reverse()
    return ops


def merge(ops: Sequence[AlignmentOp], src: Sequence[str], trg: Sequence[str]) -> list[Edit]:
    """Collapse maximal non-match runs into edits.

    Returned edits are ordered, non-overlapping, never adjacent (a match
    always separates two edits), and never empty on both sides.
    """
    new = tuple.__new__
    edits: list[Edit] = []
    first = last = None
    # a trailing None closes the final run like a match would
    for op in (*ops, None):
        if op is not None and op.kind != MATCH:
            if first is None:
                first = op
            last = op
        elif first is not None:
            src_start, src_end, cor_start = first.src_start, last.src_end, first.trg_start
            span = new(EditSpan, (src_start, src_end, tuple(trg[cor_start : last.trg_end])))
            edits.append(new(Edit, (span, tuple(src[src_start:src_end]), cor_start)))
            first = None
    return edits
