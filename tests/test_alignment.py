"""Token alignment: costs, tie-breaking, merging, and oracle agreement."""

from __future__ import annotations

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import canonical_pattern, enumerated_min_cost, ops_cost, recursive_min_cost
from serrant.alignment import (
    DELETE,
    INSERT,
    MATCH,
    SUBSTITUTE,
    TRANSPOSE,
    align,
    merge,
)
from serrant.m2 import apply_edits


def kinds(ops):
    return [op.kind for op in ops]


def total_cost(ops, src, trg, src_lemmas=None, trg_lemmas=None):
    return ops_cost(ops, src, trg, src_lemmas, trg_lemmas)


def test_identical_sequences_match_throughout():
    ops = align(["a", "b"], ["a", "b"])
    assert kinds(ops) == [MATCH, MATCH]
    assert total_cost(ops, ["a", "b"], ["a", "b"]) == 0


def test_single_deletion():
    ops = align(["a", "b", "c"], ["a", "c"])
    assert kinds(ops) == [MATCH, DELETE, MATCH]


def test_single_insertion():
    ops = align(["a", "c"], ["a", "b", "c"])
    assert kinds(ops) == [MATCH, INSERT, MATCH]


def test_adjacent_swap_becomes_transpose():
    ops = align(["a", "b"], ["b", "a"])
    assert kinds(ops) == [TRANSPOSE]
    assert ops[0].src_end - ops[0].src_start == 2


def test_transpose_is_case_insensitive():
    ops = align(["A", "b"], ["B", "a"])
    assert kinds(ops) == [TRANSPOSE]


def test_no_transpose_when_tokens_match_in_place():
    ops = align(["x", "x"], ["x", "x"])
    assert kinds(ops) == [MATCH, MATCH]


def test_substitution_preferred_on_cost_tie():
    # a full substitution costs 2, the same as delete plus insert
    ops = align(["werk"], ["work"])
    assert kinds(ops) == [SUBSTITUTE]


def test_case_change_is_a_cheap_substitution():
    ops = align(["Cat"], ["cat"])
    assert kinds(ops) == [SUBSTITUTE]
    assert total_cost(ops, ["Cat"], ["cat"]) == 1


def test_lemma_match_lowers_substitution_cost():
    src, trg = ["goed"], ["went"]
    with_lemmas = align(src, trg, ["go"], ["go"])
    assert kinds(with_lemmas) == [SUBSTITUTE]
    assert total_cost(with_lemmas, src, trg, ["go"], ["go"]) == 1
    assert total_cost(align(src, trg), src, trg) == 2


@pytest.mark.parametrize(
    "lemmas, message",
    [
        ({"src_lemmas": ["a"]}, "src_lemmas does not parallel src"),
        ({"trg_lemmas": ["a", "b", "c"]}, "trg_lemmas does not parallel trg"),
    ],
)
def test_lemmas_must_parallel_their_tokens(lemmas, message):
    with pytest.raises(ValueError) as info:
        align(["a", "b"], ["a", "c"], **lemmas)
    assert str(info.value) == message


def test_alignment_is_deterministic():
    src = ["a", "b", "a", "b"]
    trg = ["b", "a", "b", "a"]
    first = align(src, trg)
    for _ in range(5):
        assert align(src, trg) == first


def test_a_long_pair_keeps_one_choice_table_and_two_cost_rows():
    # Substitutions at the first, middle and last token, so neither trim
    # helps.  Measured, the traced peak was 9.8 bytes per table cell (the
    # choice table); 29.4 while align also kept a full cost table.
    n = 600
    src = [f"w{k}" for k in range(n)]
    trg = [f"x{k}" if k in (0, n // 2, n - 1) else token for k, token in enumerate(src)]
    align(src[:5], trg[:5])  # fills what a first call caches
    tracemalloc.start()
    try:
        ops = align(src, trg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kinds(ops).count(SUBSTITUTE) == 3
    assert peak / (n + 1) ** 2 < 16


def _coverage_ok(ops, n, m):
    src_cursor = 0
    trg_cursor = 0
    for op in ops:
        if op.src_start != src_cursor or op.trg_start != trg_cursor:
            return False
        if op.src_end < op.src_start or op.trg_end < op.trg_start:
            return False
        src_cursor = op.src_end
        trg_cursor = op.trg_end
    return src_cursor == n and trg_cursor == m


_token = st.sampled_from(["a", "b", "c", "A", "B", "ab", "Ab"])
_tokens = st.lists(_token, min_size=0, max_size=7)


@settings(max_examples=300)
@given(_tokens, _tokens)
def test_ops_tile_both_sequences(src, trg):
    assert _coverage_ok(align(src, trg), len(src), len(trg))


@settings(max_examples=300)
@given(_tokens, _tokens)
def test_cost_matches_enumeration_oracle(src, trg):
    ops = align(src, trg)
    assert total_cost(ops, src, trg) == recursive_min_cost(src, trg)


@settings(max_examples=200)
@given(_tokens, _tokens)
def test_op_spans_have_legal_shapes(src, trg):
    for op in align(src, trg):
        src_len = op.src_end - op.src_start
        trg_len = op.trg_end - op.trg_start
        if op.kind == MATCH or op.kind == SUBSTITUTE:
            assert (src_len, trg_len) == (1, 1)
        elif op.kind == DELETE:
            assert (src_len, trg_len) == (1, 0)
        elif op.kind == INSERT:
            assert (src_len, trg_len) == (0, 1)
        else:
            assert op.kind == TRANSPOSE
            assert (src_len, trg_len) == (2, 2)
            assert [t.lower() for t in src[op.src_start : op.src_end]] == [
                t.lower() for t in reversed(trg[op.trg_start : op.trg_end])
            ]


def test_exhaustive_small_alphabet_agrees_with_full_enumeration():
    alphabet = ["a", "b"]
    for n, m in itertools.product(range(4), repeat=2):
        for src in itertools.product(alphabet, repeat=n):
            for trg in itertools.product(alphabet, repeat=m):
                got = total_cost(align(list(src), list(trg)), list(src), list(trg))
                assert got == enumerated_min_cost(list(src), list(trg))


def test_lemma_aware_costs_agree_with_oracles():
    rng = random.Random(5)
    forms = ["eat", "ate", "Eat", "ran", "run", "go", "goes"]
    lemma_of = {"eat": "eat", "ate": "eat", "Eat": "eat", "ran": "run", "run": "run", "go": "go", "goes": "go"}
    for _ in range(300):
        src = [forms[rng.randrange(len(forms))] for _ in range(rng.randint(0, 5))]
        trg = [forms[rng.randrange(len(forms))] for _ in range(rng.randint(0, 5))]
        src_lemmas = [lemma_of[f] for f in src]
        trg_lemmas = [lemma_of[f] for f in trg]
        got = total_cost(align(src, trg, src_lemmas, trg_lemmas), src, trg, src_lemmas, trg_lemmas)
        assert got == enumerated_min_cost(src, trg, src_lemmas, trg_lemmas)
        assert got == recursive_min_cost(src, trg, src_lemmas, trg_lemmas)


def test_canonical_pattern_groups_equal_cost_pairs():
    pairs = [
        (["x", "y"], ["y", "x"]),
        (["q", "r"], ["r", "q"]),
        (["x", "y"], ["x", "y"]),
    ]
    patterns = [canonical_pattern(src, trg) for src, trg in pairs]
    assert patterns[0] == patterns[1]
    assert patterns[0] != patterns[2]


def test_merge_collapses_adjacent_non_matches():
    src = ["I", "werk", "on", "pen"]
    trg = ["I", "work", "at", "Pen"]
    edits = merge(align(src, trg), src, trg)
    assert len(edits) == 1
    assert edits[0].span.start == 1
    assert edits[0].span.end == 4
    assert edits[0].span.correction == ("work", "at", "Pen")


def test_merge_keeps_separated_edits_apart():
    src = ["I", "werk", "for", "pen"]
    trg = ["I", "work", "for", "Pen"]
    edits = merge(align(src, trg), src, trg)
    assert [(e.span.start, e.span.end) for e in edits] == [(1, 2), (3, 4)]
    assert edits[0].span.correction == ("work",)
    assert edits[1].cor_start == 3


def test_merge_transpose_becomes_one_edit():
    src = ["it", "is", "good", "very"]
    trg = ["it", "is", "very", "good"]
    edits = merge(align(src, trg), src, trg)
    assert len(edits) == 1
    assert edits[0].span.correction == ("very", "good")


@settings(max_examples=300)
@given(_tokens, _tokens)
def test_merged_edits_rebuild_the_target(src, trg):
    edits = merge(align(src, trg), src, trg)
    rebuilt, starts = apply_edits(src, [e.span for e in edits])
    assert list(rebuilt) == trg
    for edit, start in zip(edits, starts):
        assert start == edit.cor_start
        assert edit.src_tokens == tuple(src[edit.span.start : edit.span.end])


@settings(max_examples=300)
@given(_tokens, _tokens)
def test_merged_edits_never_touch(src, trg):
    edits = merge(align(src, trg), src, trg)
    for left, right in zip(edits, edits[1:]):
        assert right.span.start > left.span.end
    for edit in edits:
        assert edit.span.correction != tuple(edit.src_tokens)
