"""Reference implementations the production aligner is checked against.

Three independent oracles compute the minimum alignment cost:

* ``enumerated_min_cost`` walks every operation sequence recursively.
  It shares no code with the dynamic programme and serves as ground
  truth on small inputs.
* ``recursive_min_cost`` memoises over (i, j) suffix states.  It scales
  to the fuzzing sizes while staying structurally different from the
  table-filling aligner.
* ``dp_min_cost`` fills the prefix-cost table row by row.  It is the
  cheapest of the three and carries the bulk of the exhaustive sweeps;
  the other two keep it honest on the smaller tiers.

All accept the same lemma arguments as ``serrant.alignment.align``.
``ops_cost`` prices an operation sequence under the shared cost model,
and ``rgs_strings`` enumerates equality patterns for sweeps that are
exhaustive up to token renaming.

``reference_parse_conllu`` is the CoNLL-U parser that
``serrant.ud.parse_conllu`` is checked against.  Both make one pass over
the rows and check each sentence's tree when the sentence ends; the
reference builds every token as it reads its row, where the production
parser builds each sentence's columns and reads its text in chunks.

``reference_run`` is the pipeline that ``serrant.pipeline.run`` is
checked against on well-formed inputs: the README's contract in one pass
over whole texts, with no shards, no worker processes and no fail-over.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import lru_cache

from serrant.alignment import Edit, align, merge
from serrant.errors import ConfigurationError, ConlluParseError, IngestionError
from serrant.m2 import M2Edit, M2Record, apply_edits, parse_m2, read_parallel
from serrant.pipeline import PipelineConfig, PipelineInputs, classify_edit
from serrant.ud import (
    ROOT,
    UPOS_TAGS,
    AnnotatedSentence,
    Token,
    attach,
    fallback_annotate,
    parse_feats,
)


def _sub_cost(
    src: str,
    trg: str,
    src_lemma: str | None,
    trg_lemma: str | None,
) -> int:
    if src.lower() == trg.lower():
        return 1
    if src_lemma is not None and trg_lemma is not None and src_lemma == trg_lemma:
        return 1
    return 2


def enumerated_min_cost(
    src: list[str],
    trg: list[str],
    src_lemmas: list[str] | None = None,
    trg_lemmas: list[str] | None = None,
) -> int:
    n, m = len(src), len(trg)
    best = [n + m + 1]

    def walk(i: int, j: int, cost: int) -> None:
        if cost >= best[0]:
            return
        if i == n and j == m:
            best[0] = cost
            return
        if i < n and j < m:
            if src[i] == trg[j]:
                walk(i + 1, j + 1, cost)
            else:
                s_lem = src_lemmas[i] if src_lemmas else None
                t_lem = trg_lemmas[j] if trg_lemmas else None
                walk(i + 1, j + 1, cost + _sub_cost(src[i], trg[j], s_lem, t_lem))
        if (
            i + 1 < n
            and j + 1 < m
            and src[i].lower() == trg[j + 1].lower()
            and src[i + 1].lower() == trg[j].lower()
        ):
            walk(i + 2, j + 2, cost + 1)
        if i < n:
            walk(i + 1, j, cost + 1)
        if j < m:
            walk(i, j + 1, cost + 1)

    walk(0, 0, 0)
    return best[0]


def recursive_min_cost(
    src: list[str],
    trg: list[str],
    src_lemmas: list[str] | None = None,
    trg_lemmas: list[str] | None = None,
) -> int:
    n, m = len(src), len(trg)
    src_t = tuple(src)
    trg_t = tuple(trg)

    @lru_cache(maxsize=None)
    def solve(i: int, j: int) -> int:
        if i == n:
            return m - j
        if j == m:
            return n - i
        if src_t[i] == trg_t[j]:
            candidate = solve(i + 1, j + 1)
        else:
            s_lem = src_lemmas[i] if src_lemmas else None
            t_lem = trg_lemmas[j] if trg_lemmas else None
            candidate = solve(i + 1, j + 1) + _sub_cost(src_t[i], trg_t[j], s_lem, t_lem)
        if (
            i + 1 < n
            and j + 1 < m
            and src_t[i].lower() == trg_t[j + 1].lower()
            and src_t[i + 1].lower() == trg_t[j].lower()
        ):
            candidate = min(candidate, solve(i + 2, j + 2) + 1)
        candidate = min(candidate, solve(i + 1, j) + 1)
        candidate = min(candidate, solve(i, j + 1) + 1)
        return candidate

    result = solve(0, 0)
    solve.cache_clear()
    return result


def dp_min_cost(
    src: Sequence[str],
    trg: Sequence[str],
    src_lemmas: Sequence[str] | None = None,
    trg_lemmas: Sequence[str] | None = None,
) -> int:
    lowered_src = [token.lower() for token in src]
    lowered_trg = [token.lower() for token in trg]
    lemmas = src_lemmas is not None and trg_lemmas is not None
    # rows of prefix costs: before covers src[:i-1], above src[:i], row src[:i+1]
    before, above = None, list(range(len(trg) + 1))
    for i, token in enumerate(src):
        lowered = lowered_src[i]
        lowered_before = lowered_src[i - 1] if i else None
        lemma = src_lemmas[i] if lemmas else None
        row = [i + 1]
        for j, other in enumerate(trg):
            if token == other:
                best = above[j]
            elif lowered == lowered_trg[j] or (lemmas and lemma == trg_lemmas[j]):
                best = above[j] + 1
            else:
                best = above[j] + 2
            candidate = above[j + 1] + 1
            if candidate < best:
                best = candidate
            candidate = row[j] + 1
            if candidate < best:
                best = candidate
            if j and lowered == lowered_trg[j - 1] and lowered_before == lowered_trg[j]:
                candidate = before[j - 1] + 1
                if candidate < best:
                    best = candidate
            row.append(best)
        before, above = above, row
    return above[-1]


def ops_cost(
    ops: Sequence,
    src: Sequence[str],
    trg: Sequence[str],
    src_lemmas: Sequence[str] | None = None,
    trg_lemmas: Sequence[str] | None = None,
) -> int:
    """Price an aligner's output under the cost model, checking coverage.

    The operations must tile both sequences contiguously and in order;
    a gap, overlap, or an op shape foreign to the model raises
    ``ValueError`` so a structurally broken alignment can never pass a
    cost comparison by accident.
    """
    cursor_src = cursor_trg = 0
    total = 0
    for op in ops:
        if op.src_start != cursor_src or op.trg_start != cursor_trg:
            raise ValueError(f"operation starts at ({op.src_start}, {op.trg_start}), "
                             f"expected ({cursor_src}, {cursor_trg})")
        took_src = op.src_end - op.src_start
        took_trg = op.trg_end - op.trg_start
        if op.kind == "match":
            if took_src != 1 or took_trg != 1 or src[op.src_start] != trg[op.trg_start]:
                raise ValueError("malformed match")
        elif op.kind == "substitute":
            if took_src != 1 or took_trg != 1:
                raise ValueError("malformed substitution")
            s_lem = src_lemmas[op.src_start] if src_lemmas is not None else None
            t_lem = trg_lemmas[op.trg_start] if trg_lemmas is not None else None
            total += _sub_cost(src[op.src_start], trg[op.trg_start], s_lem, t_lem)
        elif op.kind == "delete":
            if took_src != 1 or took_trg != 0:
                raise ValueError("malformed deletion")
            total += 1
        elif op.kind == "insert":
            if took_src != 0 or took_trg != 1:
                raise ValueError("malformed insertion")
            total += 1
        elif op.kind == "transpose":
            if took_src != 2 or took_trg != 2:
                raise ValueError("malformed transposition")
            a, b = src[op.src_start : op.src_end]
            c, d = trg[op.trg_start : op.trg_end]
            if a.lower() != d.lower() or b.lower() != c.lower():
                raise ValueError("transposition over non-swapped tokens")
            total += 1
        else:
            raise ValueError(f"unknown operation kind {op.kind!r}")
        cursor_src += took_src
        cursor_trg += took_trg
    if cursor_src != len(src) or cursor_trg != len(trg):
        raise ValueError("operations do not cover both sequences")
    return total


def rgs_strings(length: int, max_blocks: int) -> Iterator[tuple[int, ...]]:
    """Yield every restricted growth string of the given length.

    A restricted growth string numbers positions by first appearance
    (0, then 1, ...), never exceeding ``max_blocks`` distinct values.
    Mapping the numbers to distinct single-case tokens enumerates one
    representative per equality pattern: every token-sequence pair over
    an alphabet of ``max_blocks`` such tokens is a renaming of exactly
    one representative, and renamings are invisible to an aligner that
    only ever compares tokens.
    """
    if length == 0:
        yield ()
        return
    prefix = [0] * length

    def extend(position: int, used: int) -> Iterator[tuple[int, ...]]:
        if position == length:
            yield tuple(prefix)
            return
        limit = min(used + 1, max_blocks)
        for block in range(limit):
            prefix[position] = block
            yield from extend(position + 1, max(used, block + 1))

    yield from extend(1, 1)


def canonical_pattern(src: list[str], trg: list[str]) -> tuple[tuple[int, int], ...]:
    """Equality fingerprint of a token pair, up to renaming.

    Two pairs with the same fingerprint present identical equality and
    casefold-equality structure to the aligner, so they share one
    alignment cost.  Tokens are numbered by first appearance; casing is
    encoded by numbering lowercase variants separately and pairing each
    token with its casefolded class.
    """
    ids: dict[str, int] = {}
    fold_ids: dict[str, int] = {}
    out = []
    for token in src + trg:
        exact = ids.setdefault(token, len(ids))
        folded = fold_ids.setdefault(token.lower(), len(fold_ids))
        out.append((exact, folded))
    out.append((-1, len(src)))
    return tuple(out)


# --- CoNLL-U -----------------------------------------------------------------


def reference_parse_conllu(text: str) -> list[tuple[Token, ...]]:
    """Parse CoNLL-U text row by row into each sentence's tokens.

    The rules and messages are those of ``serrant.ud.parse_conllu``: lines
    split on ``\\n``, whitespace-only lines end a sentence, ``#`` lines are
    comments and may only precede a sentence's rows, multiword ranges and
    empty nodes are skipped, and ids and heads are ASCII digits.
    """
    sentences: list[tuple[Token, ...]] = []
    tokens: list[Token] = []  # the current sentence's, heads not yet checked
    linenos: list[int] = []
    in_block = False  # whether a row of the current sentence has been read
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if not raw or raw.isspace():  # blank, "\r" included
            if tokens:
                sentences.append(_checked_tree(tokens, linenos))
                tokens, linenos = [], []
            in_block = False
            continue
        if raw.startswith("#"):
            if in_block:
                raise ConlluParseError(lineno, "comment line inside a sentence")
            continue
        in_block = True
        cols = raw.rstrip("\r").split("\t")
        if len(cols) != 10:
            raise ConlluParseError(lineno, f"expected 10 columns, got {len(cols)}")
        if "-" in cols[0] or "." in cols[0]:
            if not _range_or_empty_node_id(cols[0]):
                raise ConlluParseError(
                    lineno, f"malformed multiword range or empty node id {cols[0]!r}"
                )
            continue
        if not _ascii_integer(cols[0]):
            raise ConlluParseError(lineno, f"non-integer token id {cols[0]!r}")
        token_id = int(cols[0])
        if token_id != len(tokens) + 1:
            raise ConlluParseError(lineno, f"token id {token_id} not contiguous")
        form = cols[1]
        lemma = (cols[2] if cols[2] != "_" else form).lower()
        if cols[3] not in UPOS_TAGS:
            raise ConlluParseError(lineno, f"unknown UPOS tag {cols[3]!r}")
        try:
            feats = parse_feats(cols[5])
        except ValueError as exc:
            raise ConlluParseError(lineno, str(exc)) from None
        if not _ascii_integer(cols[6]):
            raise ConlluParseError(lineno, f"non-integer head {cols[6]!r}")
        head = int(cols[6]) - 1  # 0 becomes ROOT
        tokens.append(Token(token_id - 1, form, lemma, cols[3], feats, head, cols[7]))
        linenos.append(lineno)
    if tokens:
        sentences.append(_checked_tree(tokens, linenos))
    return sentences


def _ascii_integer(value: str) -> bool:
    return value != "" and all(c in "0123456789" for c in value)


def _range_or_empty_node_id(token_id: str) -> bool:
    for separator in "-.":
        first, found, second = token_id.partition(separator)
        if found:
            return _ascii_integer(first) and _ascii_integer(second)
    return False


def _checked_tree(tokens: list[Token], linenos: list[int]) -> tuple[Token, ...]:
    n = len(tokens)
    heads = [token.head for token in tokens]
    root_count = 0
    for position, head in enumerate(heads):
        if not ROOT <= head < n:
            raise ConlluParseError(
                linenos[position], f"head {head + 1} out of range for {n} tokens"
            )
        if head == position:
            raise ConlluParseError(linenos[position], f"token {position + 1} heads itself")
        if head == ROOT:
            root_count += 1
    if root_count != 1:
        raise ConlluParseError(linenos[0], f"sentence has {root_count} roots, expected 1")
    # the first token met twice when walking to the root from each token in order
    for start in range(n):
        seen = set()
        current = start
        while current != ROOT:
            if current in seen:
                raise ConlluParseError(linenos[0], f"dependency cycle through token {current + 1}")
            seen.add(current)
            current = heads[current]
    return tuple(tokens)


# --- the whole pipeline -------------------------------------------------------


def reference_run(config: PipelineConfig, inputs: PipelineInputs) -> list[M2Record]:
    """Classify both texts, or retype an M2 text alone, as the README says ``run`` does."""
    retype = inputs.m2 is not None
    items = parse_m2(inputs.m2) if retype else read_parallel(inputs.original, inputs.corrected)
    origs = _reference_sentences(inputs.conllu_orig, len(items))
    cors = _reference_sentences(inputs.conllu_cor, len(items))
    records = []
    for item, orig, cor in zip(items, origs, cors):
        source = item[0]  # the source tokens of a record and of a pair
        src = _reference_annotate(orig, source)
        if retype:
            records.append(_reference_retype(config, item, src, cor))
            continue
        target = item[1]
        trg = _reference_annotate(cor, target)
        edits = merge(align(source, target, src.lemmas, trg.lemmas), source, target)
        typed = [_reference_typed(config, edit, src, trg, config.annotator_id) for edit in edits]
        records.append(M2Record(source, tuple(typed)))
    return records


def _reference_retype(
    config: PipelineConfig,
    record: M2Record,
    src: AnnotatedSentence,
    cor: AnnotatedSentence | None,
) -> M2Record:
    """Type each annotator's edits against the sentence they correct to; noop edits stay."""
    source, edits = record
    annotators = {edit.annotator_id for edit in edits if not edit.span.is_noop}
    if cor is not None and len(annotators) > 1:
        raise ConfigurationError("one corrected sentence for several annotators")
    typed = list(edits)
    for annotator in annotators:
        positions = [
            position
            for position, edit in enumerate(edits)
            if edit.annotator_id == annotator and not edit.span.is_noop
        ]
        spans = [edits[position].span for position in positions]
        target, starts = apply_edits(source, spans)
        trg = _reference_annotate(cor, target)
        for position, span, start in zip(positions, spans, starts):
            edit = Edit(span, source[span.start : span.end], start)
            typed[position] = _reference_typed(config, edit, src, trg, annotator)
    return M2Record(source, tuple(typed))


def _reference_typed(
    config: PipelineConfig,
    edit: Edit,
    src: AnnotatedSentence,
    trg: AnnotatedSentence,
    annotator: int,
) -> M2Edit:
    label = classify_edit(edit, src, trg, config.wordlist, config.granularity)
    return M2Edit(edit.span, label.render(config.arrow), annotator)


def _reference_annotate(
    sentence: AnnotatedSentence | None, tokens: tuple[str, ...]
) -> AnnotatedSentence:
    return fallback_annotate(tokens) if sentence is None else attach(sentence, tokens)


def _reference_sentences(conllu: str | None, count: int) -> list:
    """Each sentence of ``conllu`` in columns, or ``None`` for each of ``count`` items."""
    if conllu is None:
        return [None] * count
    sentences = [
        AnnotatedSentence(*list(zip(*tokens))[1:]) for tokens in reference_parse_conllu(conllu)
    ]
    if len(sentences) != count:
        raise IngestionError(f"{len(sentences)} sentences for {count} items")
    return sentences
