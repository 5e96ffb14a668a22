"""Seeded input generators for the benchmark workloads.

Every workload is built from ``tests/synthgen.py`` (imported, never
modified) plus the two shapes that corpus does not have: long sentences
with deep right-branching dependency trees, and untyped M2 files with two
annotators per sentence.  The same seed always gives the same files, and
the program under test sees only those files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from synthgen import VOCAB, SyntheticCorpus, entries_to_conllu, mutate, random_sentence
from serrant.alignment import align, merge
from serrant.m2 import NOOP_TYPE, EditSpan, M2Edit, M2Record, emit_m2

Entry = tuple[str, str, str, str]

SHORT_SIZE = 10_000
LONG_SIZE = 120
LONG_MIN_TOKENS = 40
LONG_MAX_TOKENS = 250
JOBS = 2


@dataclass(frozen=True)
class Workload:
    """A named set of inputs; BENCHMARK.json and README.md say why each exists."""

    name: str
    mode: str  # "classify" or "retype"
    corpus: str  # workloads naming the same corpus get equal inputs and must give equal M2
    size: int
    flags: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("short-classify", "classify", "short", SHORT_SIZE, ("--granularity", "upos")),
        Workload("retype-2ann", "retype", "retype-2ann", SHORT_SIZE, ("--granularity", "upos-feats")),
        Workload("long-classify", "classify", "long", LONG_SIZE, ("--granularity", "upos")),
        Workload(
            "short-classify-jobs2",
            "classify",
            "short",
            SHORT_SIZE,
            ("--granularity", "upos", "--jobs", str(JOBS)),
        ),
    )
}


def wordlist_text() -> str:
    return "\n".join(sorted({e[0].lower() for e in VOCAB if e[0].isalpha()})) + "\n"


def _text(sentences: list[list[Entry]]) -> str:
    return "\n".join(" ".join(e[0] for e in s) for s in sentences) + "\n"


def _conllu(sentences: list[list[Entry]], to_conllu) -> str:
    return "\n\n".join(to_conllu(s) for s in sentences) + "\n"


def _deep_conllu(entries: list[Entry]) -> str:
    """One CoNLL-U block whose tree is a right-branching chain.

    The first token is the root and every other token hangs off its left
    neighbour, so a sentence of n tokens has depth n.
    """
    rows = []
    for i, (form, lemma, upos, feats) in enumerate(entries):
        deprel = "root" if i == 0 else ("punct" if upos == "PUNCT" else "dep")
        rows.append(f"{i + 1}\t{form}\t{lemma}\t{upos}\t_\t{feats or '_'}\t{i}\t{deprel}\t_\t_")
    return "\n".join(rows)


def _long_pairs(size: int, seed: int) -> list[tuple[list[Entry], list[Entry]]]:
    """Pairs whose lengths spread evenly over the range, in seeded order.

    Drawing each length at random would let the quadratic aligner's total
    work differ by several percent from seed to seed; a fixed set of
    lengths keeps that out of the run-to-run spread.
    """
    rng = random.Random(f"long-classify:{seed}")
    span = LONG_MAX_TOKENS - LONG_MIN_TOKENS
    lengths = [LONG_MIN_TOKENS + span * i // max(1, size - 1) for i in range(size)]
    rng.shuffle(lengths)
    pairs = []
    for length in lengths:
        orig = random_sentence(rng, length, length)
        pairs.append((orig, mutate(rng, orig, rng.randint(1, 3))))
    return pairs


def _edits(orig: list[Entry], cor: list[Entry], annotator: int) -> list[M2Edit]:
    src = [e[0] for e in orig]
    trg = [e[0] for e in cor]
    ops = align(src, trg, [e[1] for e in orig], [e[1] for e in cor])
    edits = [M2Edit(edit.span, "UNK", annotator) for edit in merge(ops, src, trg)]
    return edits or [M2Edit(EditSpan(-1, -1), NOOP_TYPE, annotator)]


def _two_annotator_m2(pairs: list[tuple[list[Entry], list[Entry]]], seed: int) -> str:
    """Annotator 0 has the corpus edits; annotator 1 an independent mutation.

    An annotator without edits gets the noop line, as ERRANT writes it.
    """
    rng = random.Random(f"retype-2ann:{seed}")
    records = []
    for orig, cor in pairs:
        second = mutate(rng, orig, rng.randint(0, 3)) or [VOCAB[rng.randrange(len(VOCAB))]]
        edits = _edits(orig, cor, 0) + _edits(orig, second, 1)
        records.append(M2Record(tuple(e[0] for e in orig), tuple(edits)))
    return emit_m2(records)


def generate(workload: Workload, seed: int, out: Path, size: int | None = None) -> list[str]:
    """Write the inputs for ``workload`` into ``out`` and return the CLI argv.

    ``size`` overrides the workload's pair count (the smoke mode uses it).
    The argv names files inside ``out`` and omits ``--out``/``--report``,
    which the caller appends per repetition.
    """
    size = workload.size if size is None else size
    out.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {"wordlist.txt": wordlist_text()}
    if workload.corpus == "long":
        pairs, to_conllu = _long_pairs(size, seed), _deep_conllu
    else:
        pairs, to_conllu = SyntheticCorpus(size, seed).pairs, entries_to_conllu
    origs = [orig for orig, _ in pairs]
    files["orig.conllu"] = _conllu(origs, to_conllu)
    if workload.mode == "retype":
        files["input.m2"] = _two_annotator_m2(pairs, seed)
        argv = ["retype", "--m2", str(out / "input.m2")]
    else:
        cors = [cor for _, cor in pairs]
        files["orig.txt"] = _text(origs)
        files["cor.txt"] = _text(cors)
        files["cor.conllu"] = _conllu(cors, to_conllu)
        argv = ["classify", "--orig", str(out / "orig.txt"), "--cor", str(out / "cor.txt")]
        argv += ["--conllu-cor", str(out / "cor.conllu")]
    argv += ["--conllu-orig", str(out / "orig.conllu"), "--wordlist", str(out / "wordlist.txt")]
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    return argv + list(workload.flags)
