"""Release acceptance gate.

Each test here checks one acceptance criterion end to end and prints a
single verdict line (run ``pytest -s tests/test_acceptance.py`` to see
the lines on success; pytest's own PASSED/FAILED column carries the
same per-criterion information either way).

The criteria, in order:

1. the golden corpus classifies to its stipulated types exactly;
2. the rule-example corpus classifies to its stipulated types exactly;
3. alignment cost equals the brute-force minimum and merged edits
   rebuild the target, swept exhaustively where feasible (see
   ``test_criterion_3_alignment_oracle_equivalence``) in under 60 s;
4. M2 parse and emit are mutually inverse over 1,000 random record
   sets;
5. six classifier laws hold over at least 1,000 generated cases each;
6. parallel classification is byte-identical to serial classification
   on a 1,000-pair corpus, for both M2 and report output;
7. retyping 10,000 pre-annotated sentence pairs takes under 30 s on a
   single thread.
"""

from __future__ import annotations

import itertools
import random
import time
from pathlib import Path
from types import SimpleNamespace

from conftest import GOLDEN_FLAGSHIP, GOLDEN_RULES, write_golden_corpus
from oracles import (
    dp_min_cost,
    enumerated_min_cost,
    ops_cost,
    recursive_min_cost,
    rgs_strings,
)
from serrant.alignment import Edit, align, merge
from serrant.base import BaseType, classify_base
from serrant.combine import EditContext, build_context, combine
from serrant.m2 import EditSpan, M2Edit, M2Record, emit_m2, parse_m2
from serrant.pipeline import (
    PipelineConfig,
    PipelineInputs,
    classify_corpus_parallel,
    classify_edit,
    run,
)
from serrant.report import FORMAT_JSON, FORMAT_TSV, emit_report, type_distribution
from serrant.sercl import GRANULARITIES, SerclSide, SerclType, classify_sercl
from serrant.ud import Token
from synthgen import (
    VOCAB,
    SyntheticCorpus,
    annotate_entries,
    entry_for,
    random_pair,
    random_sentence,
)

# independent restatements of the classifier's fixed word sets
MODAL_FORMS = frozenset(
    {"can", "could", "may", "might", "shall", "should", "will", "would", "must"}
)
UNRELIABLE_TAGS = frozenset({"INTJ", "NUM", "SYM", "X", "PUNCT"})
NAMED_BODIES = frozenset(
    {
        "Spell",
        "Orth",
        "Other",
        "Morph",
        "Modal",
        "Verb:Tense",
        "Verb:Form",
        "Verb:Infl",
        "Verb:SVA",
        "Noun:Num",
        "Adj:Form",
    }
)


def _verdict(number: int, description: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number} [{status}] {description} ({detail})"
    print(line, flush=True)
    assert ok, line


def _golden_run(tmp_path: Path, wordlist: str, pairs) -> list[tuple[int, int, int, str]]:
    paths = write_golden_corpus(tmp_path, pairs)
    config = PipelineConfig(
        wordlist_path=wordlist,
        conllu_orig_path=paths["conllu_orig"],
        conllu_cor_path=paths["conllu_cor"],
    )
    inputs = PipelineInputs(
        original=Path(paths["orig"]).read_text(encoding="utf-8"),
        corrected=Path(paths["cor"]).read_text(encoding="utf-8"),
    )
    records = run(config, inputs)
    return [
        (index, edit.span.start, edit.span.end, edit.type_label)
        for index, record in enumerate(records)
        for edit in record.edits
    ]


def _golden_expected(pairs) -> list[tuple[int, int, int, str]]:
    return [
        (index, start, end, label)
        for index, pair in enumerate(pairs)
        for start, end, label in pair.expected
    ]


def test_criterion_1_golden_corpus_types(tmp_path, golden_wordlist):
    got = _golden_run(tmp_path, golden_wordlist, GOLDEN_FLAGSHIP)
    want = _golden_expected(GOLDEN_FLAGSHIP)
    diff = [f"{g} != {w}" for g, w in zip(got, want) if g != w]
    ok = got == want
    detail = f"{len(want)} edits across {len(GOLDEN_FLAGSHIP)} pairs"
    if not ok:
        detail += f"; got {got}"
        detail += f"; diff {diff[:3]}"
    _verdict(1, "golden corpus classifies to its stipulated types", ok, detail)


def test_criterion_2_rule_example_types(tmp_path, golden_wordlist):
    got = _golden_run(tmp_path, golden_wordlist, GOLDEN_RULES)
    want = _golden_expected(GOLDEN_RULES)
    labels = [label for _, _, _, label in want]
    # the fixture must exercise both sides of the word-choice contrast
    assert "R:Verb:WC" in labels and "R:Verb" in labels
    ok = got == want
    detail = f"{len(want)} edits across {len(GOLDEN_RULES)} pairs"
    if not ok:
        detail += f"; got {got}"
    _verdict(2, "rule examples classify to their stipulated types", ok, detail)


# --- criterion 3: alignment against brute force ---------------------------

SYMBOLS = ("a", "b", "c", "d")


def _check_alignment(src, trg, src_lemmas=None, trg_lemmas=None, oracle=dp_min_cost):
    """One full equivalence check; returns an error message or None."""
    ops = align(src, trg, src_lemmas, trg_lemmas)
    cost = ops_cost(ops, src, trg, src_lemmas, trg_lemmas)
    want = oracle(src, trg, src_lemmas, trg_lemmas)
    if cost != want:
        return f"cost {cost} != minimum {want} for {src!r} -> {trg!r}"
    rebuilt: list[str] = []
    cursor = 0
    previous_end = None
    for edit in merge(ops, src, trg):
        span = edit.span
        if previous_end is not None and span.start <= previous_end:
            return f"adjacent or overlapping edits for {src!r} -> {trg!r}"
        if span.start < 0 or span.end < span.start or span.end > len(src):
            return f"edit span out of range for {src!r} -> {trg!r}"
        if edit.src_tokens != tuple(src[span.start : span.end]):
            return f"src_tokens mismatch for {src!r} -> {trg!r}"
        if span.correction != tuple(trg[edit.cor_start : edit.cor_end]):
            return f"correction landing site mismatch for {src!r} -> {trg!r}"
        if span.correction == edit.src_tokens:
            return f"self-edit for {src!r} -> {trg!r}"
        rebuilt.extend(src[cursor : span.start])
        rebuilt.extend(span.correction)
        cursor = span.end
        previous_end = span.end
    rebuilt.extend(src[cursor:])
    if rebuilt != list(trg):
        return f"merge does not rebuild {trg!r} from {src!r}"
    return None


def test_criterion_3_alignment_oracle_equivalence():
    """Alignment equivalence, swept as widely as one minute allows.

    Tiers, all with a fixed four-token alphabet unless noted:

    * every literal pair with both sides at most 4 tokens;
    * every equality pattern with both sides at most 6 tokens and at
      most 11 tokens overall -- exhaustive up to token renaming, which
      the aligner cannot observe (tier five spot-checks that claim);
    * every sixth equality pattern at the 6+6 corner;
    * 10,000 fuzz pairs over a mixed-case alphabet with random lemma
      ties, against the memoised oracle;
    * 1,500 small pairs against the exponential enumeration oracle,
      which also cross-checks the other two oracles;
    * 2,000 random pairs re-aligned under a symbol renaming, which must
      leave the operation sequence untouched.

    A literal sweep of all pairs with sides up to 6 tokens would visit
    29,822,521 pairs; the pattern tiers cover the same space in about
    1.2 million representatives.
    """
    started = time.perf_counter()
    failures: list[str] = []
    checked = 0

    def check(src, trg, src_lemmas=None, trg_lemmas=None, oracle=dp_min_cost):
        nonlocal checked
        checked += 1
        try:
            message = _check_alignment(src, trg, src_lemmas, trg_lemmas, oracle)
        except ValueError as error:
            message = f"{error} for {src!r} -> {trg!r}"
        if message is not None and len(failures) < 5:
            failures.append(message)

    sequences = [list(p) for k in range(5) for p in itertools.product(SYMBOLS, repeat=k)]
    for src in sequences:
        for trg in sequences:
            check(src, trg)

    for total in range(12):
        for pattern in rgs_strings(total, len(SYMBOLS)):
            tokens = [SYMBOLS[block] for block in pattern]
            for m in range(max(0, total - 6), min(6, total) + 1):
                check(tokens[:m], tokens[m:])

    for index, pattern in enumerate(rgs_strings(12, len(SYMBOLS))):
        if index % 6:
            continue
        tokens = [SYMBOLS[block] for block in pattern]
        check(tokens[:6], tokens[6:])

    rng = random.Random(30603)
    mixed = ("a", "A", "b", "B", "c", "C", "d")
    lemma_pool = ("x", "y", "z")
    for _ in range(10000):
        src = [rng.choice(mixed) for _ in range(rng.randint(0, 6))]
        trg = [rng.choice(mixed) for _ in range(rng.randint(0, 6))]
        if rng.random() < 0.5:
            check(
                src,
                trg,
                [rng.choice(lemma_pool) for _ in src],
                [rng.choice(lemma_pool) for _ in trg],
                oracle=recursive_min_cost,
            )
        else:
            check(src, trg, oracle=recursive_min_cost)

    for _ in range(1500):
        src = [rng.choice(mixed) for _ in range(rng.randint(0, 4))]
        trg = [rng.choice(mixed) for _ in range(rng.randint(0, 4))]
        want = enumerated_min_cost(src, trg)
        if dp_min_cost(src, trg) != want or recursive_min_cost(src, trg) != want:
            failures.append(f"oracles disagree on {src!r} -> {trg!r}")
        check(src, trg, oracle=enumerated_min_cost)

    renamed_alphabet = ("w", "x", "y", "z")
    for _ in range(2000):
        src = [rng.choice(SYMBOLS) for _ in range(rng.randint(0, 6))]
        trg = [rng.choice(SYMBOLS) for _ in range(rng.randint(0, 6))]
        renaming = dict(zip(SYMBOLS, rng.sample(renamed_alphabet, len(SYMBOLS))))
        ops = align(src, trg)
        renamed_ops = align([renaming[t] for t in src], [renaming[t] for t in trg])
        if ops != renamed_ops:
            failures.append(f"renaming changed the alignment of {src!r} -> {trg!r}")

    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60.0
    detail = f"{checked} pairs in {elapsed:.1f}s"
    if failures:
        detail += f"; first failures: {failures[:3]}"
    _verdict(3, "alignment matches brute force and merge rebuilds the target", ok, detail)


# --- criterion 4: M2 round-trip --------------------------------------------

_TOKEN_CHARS = "abcdefgXYZ'.,-"
_LABEL_POOL = (
    "R:Spell",
    "R:Orth",
    "R:Noun->Propn",
    "R:Verb:Tense",
    "U:Det",
    "M:Verb",
    "UNK",
    "R:Other",
)


def _random_token(rng: random.Random) -> str:
    return "".join(rng.choice(_TOKEN_CHARS) for _ in range(rng.randint(1, 8)))


def _random_record(rng: random.Random) -> M2Record:
    tokens = tuple(_random_token(rng) for _ in range(rng.randint(1, 9)))
    edits = []
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.1:
            edits.append(
                M2Edit(span=EditSpan(-1, -1, ()), type_label="noop", annotator_id=rng.randint(0, 3))
            )
            continue
        start = rng.randint(0, len(tokens))
        end = rng.randint(start, len(tokens))
        correction = tuple(_random_token(rng) for _ in range(rng.randint(0, 3)))
        edits.append(
            M2Edit(
                span=EditSpan(start, end, correction),
                type_label=rng.choice(_LABEL_POOL),
                annotator_id=rng.randint(0, 3),
            )
        )
    return M2Record(source_tokens=tokens, edits=tuple(edits))


def test_criterion_4_m2_round_trip():
    rng = random.Random(30604)
    failures = 0
    for _ in range(1000):
        records = [_random_record(rng) for _ in range(rng.randint(1, 4))]
        text = emit_m2(records)
        reparsed = parse_m2(text)
        if reparsed != records or emit_m2(reparsed) != text:
            failures += 1
    _verdict(
        4,
        "M2 parse and emit are mutually inverse",
        failures == 0,
        f"1000 record sets, {failures} failures",
    )


# --- criterion 5: classifier laws -------------------------------------------

_MODAL_ENTRIES = ("will", "can", "must", "should")
_ODD_ENTRIES = ("two", "oh", "%")
_PLAIN_ENTRIES = ("cat", "dog", "eat", "big", "now")
_PROPER_ENTRIES = ("Paris", "London")


def _classified(orig_entries, cor_entries, granularity):
    """Classify every edit between two entry lists, keeping its context."""
    src_sentence = annotate_entries(orig_entries)
    trg_sentence = annotate_entries(cor_entries)
    src_forms = [token.form for token in src_sentence.tokens]
    trg_forms = [token.form for token in trg_sentence.tokens]
    ops = align(
        src_forms,
        trg_forms,
        [token.lemma for token in src_sentence.tokens],
        [token.lemma for token in trg_sentence.tokens],
    )
    cases = []
    for edit in merge(ops, src_forms, trg_forms):
        final = classify_edit(edit, src_sentence, trg_sentence, None, granularity)
        ctx = build_context(edit, src_sentence, trg_sentence)
        base = classify_base(ctx, None)
        cases.append((edit, final, base, _facts(ctx)))
    return cases


def _facts(ctx):
    """The per-edit facts the laws below read, flattened from a context."""
    return SimpleNamespace(
        sentence_initial=ctx.sentence_initial,
        src_forms=tuple(token.form for token in ctx.src_tokens),
        trg_forms=tuple(token.form for token in ctx.trg_tokens),
        src_head_upos=ctx.src_head.upos if ctx.src_head is not None else None,
        trg_head_upos=ctx.trg_head.upos if ctx.trg_head is not None else None,
        src_head_lemma=ctx.src_head.lemma if ctx.src_head is not None else None,
        trg_head_lemma=ctx.trg_head.lemma if ctx.trg_head is not None else None,
    )


def _built_context(sentence_initial, src_tokens, trg_tokens):
    """A hand-built context whose heads are the first token of each side."""
    start = 0 if sentence_initial else 1
    span = EditSpan(start, start + len(src_tokens), tuple(t.form for t in trg_tokens))
    edit = Edit(span, tuple(t.form for t in src_tokens), start)
    return EditContext(edit, src_tokens, trg_tokens, src_tokens[0], trg_tokens[0])


def _case_flip_pair(rng):
    """A pair differing only in the casing of one alphabetic token."""
    entries = random_sentence(rng)
    slots = [i for i, entry in enumerate(entries) if entry[0].isalpha()]
    if not slots:
        return entries, entries
    i = rng.choice(slots)
    form, lemma, upos, feats = entries[i]
    flipped = form.lower() if form[0].isupper() else form.capitalize()
    # sometimes recast the corrected token as a proper noun instead
    if flipped[0].isupper() and rng.random() < 0.5:
        upos, feats = "PROPN", ""
    corrected = list(entries)
    corrected[i] = (flipped, lemma, upos, feats)
    return entries, corrected


def _modal_swap_pair(rng):
    entries = random_sentence(rng)
    first, second = rng.sample(_MODAL_ENTRIES, 2)
    i = rng.randrange(len(entries))
    orig = list(entries)
    orig[i] = entry_for(first)
    corrected = list(entries)
    corrected[i] = entry_for(second)
    return orig, corrected


# same-tag, different-lemma form pairs whose entries carry equal features
_TWIN_FORMS = (
    ("cat", "dog"),
    ("dog", "house"),
    ("eat", "run"),
    ("ate", "ran"),
    ("big", "small"),
    ("quickly", "now"),
    ("in", "on"),
    ("the", "a"),
    ("Paris", "London"),
    ("he", "it"),
)


def _twin_swap_pair(rng):
    first, second = (entry_for(form) for form in rng.choice(_TWIN_FORMS))
    entries = random_sentence(rng)
    i = rng.randrange(len(entries))
    orig = list(entries)
    orig[i] = first
    corrected = list(entries)
    corrected[i] = second
    return orig, corrected


def _screen_pair(rng):
    """A substitution whose heads land in the catch-all base category."""
    entries = random_sentence(rng)
    if rng.random() < 0.5:
        odd, plain = entry_for(rng.choice(_ODD_ENTRIES)), entry_for(rng.choice(_PLAIN_ENTRIES))
    else:
        odd, plain = entry_for(rng.choice(_PROPER_ENTRIES)), entry_for(rng.choice(_PLAIN_ENTRIES))
    if rng.random() < 0.5:
        odd, plain = plain, odd
    i = rng.randrange(len(entries))
    orig = list(entries)
    orig[i] = odd
    corrected = list(entries)
    corrected[i] = plain
    return orig, corrected


def _body_is_single_tag(body: str) -> bool:
    return "->" not in body and body not in NAMED_BODIES


def test_criterion_5_classifier_laws():
    rng = random.Random(30605)
    pool = []
    generators = (
        [random_pair] * 3000
        + [_case_flip_pair] * 450
        + [_modal_swap_pair] * 450
        + [_screen_pair] * 900
        + [_twin_swap_pair] * 300
    )
    rng.shuffle(generators)
    for generate in generators:
        orig, corrected = generate(rng)
        granularity = rng.choice(GRANULARITIES)
        pool.extend(_classified(orig, corrected, granularity))

    violations: list[str] = []

    def violation(message: str) -> None:
        if len(violations) < 5:
            violations.append(message)

    # law 1: the operation prefix mirrors the edit shape
    prefix_checked = 0
    # law 2: WC exactly on single-tag replacements with differing head lemmas
    wc_checked = wc_positive = 0
    # law 3: Modal only ever covers one modal form on each side
    modal_checked = modal_positive = 0
    # law 4: the catch-all screens by head reliability and proper nouns
    screen_checked = screen_unreliable = screen_cross = 0
    # law 5: Orth only on case or spacing rewrites
    orth_checked = orth_positive = orth_recast = orth_initial = 0
    for edit, final, base, ctx in pool:
        prefix_checked += 1
        source_width = edit.span.end - edit.span.start
        target_width = len(edit.span.correction)
        expected_op = "R" if source_width and target_width else ("M" if not source_width else "U")
        if final.op != expected_op:
            violation(f"op {final.op} on a {source_width}:{target_width} edit")

        wc_checked += 1
        expect_wc = (
            _body_is_single_tag(final.body)
            and final.op == "R"
            and ctx.src_head_lemma is not None
            and ctx.trg_head_lemma is not None
            and ctx.src_head_lemma != ctx.trg_head_lemma
        )
        if ("WC" in final.suffixes) != expect_wc:
            violation(f"WC law broken on {final} for {ctx.src_forms} -> {ctx.trg_forms}")
        wc_positive += expect_wc

        modal_checked += 1
        if final.body == "Modal":
            modal_positive += 1
            if not (
                len(ctx.src_forms) == 1
                and len(ctx.trg_forms) == 1
                and ctx.src_forms[0].lower() in MODAL_FORMS
                and ctx.trg_forms[0].lower() in MODAL_FORMS
            ):
                violation(f"Modal on {ctx.src_forms} -> {ctx.trg_forms}")

        if base.category == "OTHER":
            screen_checked += 1
            s, t = ctx.src_head_upos, ctx.trg_head_upos
            if s in UNRELIABLE_TAGS or t in UNRELIABLE_TAGS:
                screen_unreliable += 1
                if final.body != "Other":
                    violation(f"unreliable heads {s}/{t} kept body {final.body}")
            elif (s == "PROPN") != (t == "PROPN"):
                screen_cross += 1
                if final.body != "Other":
                    violation(f"proper-noun cross {s}/{t} kept body {final.body}")
            elif s == "PROPN" and t == "PROPN":
                if final.body != "Propn":
                    violation(f"double proper noun typed {final.body}")
            elif final.body in ("Other", "Propn"):
                violation(f"screen fired for plain heads {s}/{t}: {final.body}")

        orth_checked += 1
        if final.body == "Orth":
            orth_positive += 1
            joined_src = "".join(ctx.src_forms).lower()
            joined_trg = "".join(ctx.trg_forms).lower()
            if not joined_src or joined_src != joined_trg:
                violation(f"Orth on {ctx.src_forms} -> {ctx.trg_forms}")
        if (
            base.category == "ORTH"
            and ctx.trg_head_upos == "PROPN"
            and ctx.src_head_upos != "PROPN"
        ):
            if ctx.sentence_initial:
                orth_initial += 1
                if "Propn" in final.body:
                    violation(f"sentence-initial recase typed {final.body}")
            else:
                orth_recast += 1
                if final.body == "Orth":
                    violation(f"recased proper noun kept Orth: {ctx.trg_forms}")

    # the double-proper-noun screen cannot be reached through this
    # vocabulary, so drive the combination step over built contexts
    for _ in range(1000):
        screen_checked += 1
        src_form = rng.choice(_PROPER_ENTRIES)
        trg_form = rng.choice(_PROPER_ENTRIES)
        multi = rng.random() < 0.3
        trg_tokens = (Token(0, trg_form, trg_form.lower(), "PROPN"),)
        ctx = _built_context(
            rng.random() < 0.5,
            (Token(0, src_form, src_form.lower(), "PROPN"),),
            trg_tokens + (Token(1, "cat", "cat", "NOUN"),) if multi else trg_tokens,
        )
        final = combine(
            BaseType("OTHER"),
            SerclType(SerclSide("PROPN"), SerclSide("PROPN")),
            ctx,
        )
        if final.body != "Propn":
            violation(f"double proper noun typed {final.body}")

    # the screen also covers same-lemma retag edits, and the vocabulary
    # never pairs an unreliable head with one of those, so drive the
    # combination step directly for that base category too
    morph_tags = (
        "NOUN", "VERB", "ADJ", "ADV", "PROPN",
        "NUM", "INTJ", "SYM", "PUNCT", "X", "PART",
    )
    screen_morph = morph_exception = 0
    for index in range(500):
        screen_morph += 1
        if index % 5 == 0:
            s, t = rng.sample(("ADJ", "PROPN"), 2)
        else:
            s, t = rng.sample(morph_tags, 2)
        form = rng.choice(_PLAIN_ENTRIES)
        ctx = _built_context(
            rng.random() < 0.5, (Token(0, form, form, s),), (Token(0, form, form, t),)
        )
        final = combine(
            BaseType("MORPH"),
            SerclType(SerclSide(s), SerclSide(t)),
            ctx,
        )
        if {s, t} == {"ADJ", "PROPN"}:
            morph_exception += 1
            expected = f"{s.capitalize()}->{t.capitalize()}"
        elif (
            s in UNRELIABLE_TAGS
            or t in UNRELIABLE_TAGS
            or (s == "PROPN") != (t == "PROPN")
        ):
            expected = "Other"
        else:
            expected = f"{s.capitalize()}->{t.capitalize()}"
        if final.body != expected:
            violation(f"retag of {s}/{t} typed {final.body}, wanted {expected}")

    # law 6: the source tag never depends on the correction; the full
    # source side is correction-independent at the coarse granularity,
    # and at the fine granularity qualifiers are relational, so the side
    # may only move when the two corrections carry different features
    side_checked = 0
    for _ in range(1000):
        entries = random_sentence(rng, min_len=4, max_len=8)
        width = rng.randint(1, 2)
        i = rng.randrange(len(entries) - width)
        twins = rng.random() < 0.5
        if twins:
            first, second = (entry_for(form) for form in rng.choice(_TWIN_FORMS))
        else:
            first, second = rng.sample(VOCAB, 2)
        variants = []
        for replacement in (first, second):
            corrected = entries[:i] + [replacement] + entries[i + width :]
            edit = Edit(
                span=EditSpan(i, i + width, (replacement[0],)),
                src_tokens=tuple(entry[0] for entry in entries[i : i + width]),
                cor_start=i,
            )
            variants.append((edit, annotate_entries(corrected)))
        source_sentence = annotate_entries(entries)
        for granularity in GRANULARITIES:
            side_checked += 1
            left_sides = [
                classify_sercl(build_context(edit, source_sentence, corrected), granularity).left
                for edit, corrected in variants
            ]
            if left_sides[0].tag != left_sides[1].tag:
                violation(f"source tag changed with the correction: {left_sides}")
            if granularity == "upos" or twins:
                if left_sides[0] != left_sides[1]:
                    violation(f"source side changed with the correction: {left_sides}")

    floors = (
        prefix_checked >= 1000
        and wc_checked >= 1000
        and wc_positive >= 100
        and modal_checked >= 1000
        and modal_positive >= 50
        and screen_checked >= 1000
        and screen_unreliable >= 100
        and screen_cross >= 50
        and screen_morph >= 500
        and morph_exception >= 50
        and orth_checked >= 1000
        and orth_positive >= 100
        and orth_recast >= 25
        and orth_initial >= 10
        and side_checked >= 1000
    )
    ok = not violations and floors
    detail = (
        f"prefix {prefix_checked}, word-choice {wc_checked} ({wc_positive} positive), "
        f"modal {modal_checked} ({modal_positive} positive), "
        f"screen {screen_checked} ({screen_unreliable} unreliable, {screen_cross} cross, "
        f"{screen_morph} retag), "
        f"orthography {orth_checked} ({orth_positive} positive, {orth_recast} recast, "
        f"{orth_initial} initial), "
        f"side-independence {side_checked}"
    )
    if violations:
        detail += f"; first violations: {violations[:3]}"
    _verdict(5, "classifier laws hold over generated cases", ok, detail)


# --- criteria 6 and 7: determinism and throughput ---------------------------


def _corpus_files(tmp_path: Path, corpus: SyntheticCorpus) -> PipelineConfig:
    conllu_orig = tmp_path / "orig.conllu"
    conllu_cor = tmp_path / "cor.conllu"
    wordlist = tmp_path / "words.txt"
    conllu_orig.write_text(corpus.conllu_orig, encoding="utf-8")
    conllu_cor.write_text(corpus.conllu_cor, encoding="utf-8")
    forms = sorted({entry[0].lower() for entry in VOCAB if entry[0].isalpha()})
    wordlist.write_text("\n".join(forms) + "\n", encoding="utf-8")
    return PipelineConfig(
        wordlist_path=str(wordlist),
        conllu_orig_path=str(conllu_orig),
        conllu_cor_path=str(conllu_cor),
    )


def test_criterion_6_parallel_determinism(tmp_path):
    corpus = SyntheticCorpus(1000, seed=30606)
    config = _corpus_files(tmp_path, corpus)
    inputs = PipelineInputs(original=corpus.orig_text, corrected=corpus.cor_text)
    serial = classify_corpus_parallel(config, inputs, 1)
    parallel = classify_corpus_parallel(config, inputs, 8)
    m2_equal = emit_m2(serial) == emit_m2(parallel)
    reports_equal = all(
        emit_report(type_distribution(serial), format)
        == emit_report(type_distribution(parallel), format)
        for format in (FORMAT_TSV, FORMAT_JSON)
    )
    edits = sum(len(record.edits) for record in serial)
    ok = m2_equal and reports_equal and len(serial) == 1000
    _verdict(
        6,
        "1 and 8 workers produce byte-identical M2 and reports",
        ok,
        f"1000 pairs, {edits} edits; m2 equal: {m2_equal}, reports equal: {reports_equal}",
    )


def test_criterion_7_retype_throughput(tmp_path):
    corpus = SyntheticCorpus(10000, seed=30607)
    config = _corpus_files(tmp_path, corpus)
    config = PipelineConfig(
        wordlist_path=config.wordlist_path,
        conllu_orig_path=config.conllu_orig_path,
        conllu_cor_path=config.conllu_cor_path,
    )
    inputs = PipelineInputs(m2=corpus.untyped_m2())
    started = time.perf_counter()
    records = run(config, inputs)
    elapsed = time.perf_counter() - started
    labels = [
        edit.type_label
        for record in records
        for edit in record.edits
        if not edit.span.is_noop
    ]
    ok = elapsed < 30.0 and len(records) == 10000 and "UNK" not in labels
    _verdict(
        7,
        "retype covers 10,000 pre-annotated pairs in under 30 s",
        ok,
        f"{len(records)} pairs, {len(labels)} edits retyped in {elapsed:.1f}s",
    )
