"""Command-line interface.

Three subcommands: ``classify`` extracts and types edits from a parallel
corpus, ``retype`` recomputes the type labels of an existing M2 file, and
``stats`` prints a type distribution for an M2 file.

Exit codes: 0 on success, 1 on input or processing errors, 2 on
configuration errors (argparse reports usage errors with 2 as well).  The
``SERRANT_WORDLIST`` environment variable supplies a wordlist path when
``--wordlist`` is not given.

This is the one module that reads input files; the library takes their
texts.  A command reads every input file it is given, in flag order,
before it checks a setting or parses a text, so a missing, unreadable or
non-UTF-8 file is the first error reported.  It is also the one module
that knows the files' paths: an input error is written as
``serrant: PATH:LINE: message``, with the path given for the input the
library names by its role (see :mod:`serrant.errors`).

Output is UTF-8 whatever the locale: standard output gets the same bytes
as ``--out``.  ``classify`` and ``retype`` type their input shard by shard
(see :mod:`serrant.pipeline`), and each shard is rendered to M2 text and
counted where it was typed, so a run holds the input texts and the M2
text, but the sentences and records of one shard at a time.  The shard
texts are written in order once every shard is done, so a run that
fails while reading or typing writes nothing; the ``--report`` file is
written after the M2.

The cyclic garbage collector is off while a command runs, and
:func:`main` returns with it as the caller had it.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections import Counter
from collections.abc import Callable, Iterable
from pathlib import Path

from .base import load_wordlist
from .errors import ConfigurationError, IngestionError, SerrantError
from .m2 import M2Record, emit_m2, join_m2, parse_m2
from .pipeline import PipelineConfig, PipelineInputs, run
from .report import REPORT_FORMATS, emit_report, type_distribution
from .sercl import ARROW_ASCII, ARROW_UNICODE, GRANULARITY_UPOS, GRANULARITY_UPOS_FEATS

_GRANULARITY_FLAGS = {"upos": GRANULARITY_UPOS, "upos-feats": GRANULARITY_UPOS_FEATS}
_ARROW_FLAGS = {"ascii": ARROW_ASCII, "unicode": ARROW_UNICODE}

WORDLIST_ENV = "SERRANT_WORDLIST"

# the flags whose name is not that of the input they give (a PipelineInputs field)
_FLAGS = {"original": "orig", "corrected": "cor"}


def main(argv: list[str] | None = None) -> int:
    # A run builds no reference cycles, so the collector would only walk the
    # growing heap again and again (CHANGES.md verdict row `gc.disable()`).
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if collecting:
            gc.enable()


def _main(argv: list[str] | None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigurationError as exc:
        print(f"serrant: {exc}", file=sys.stderr)
        return 2
    except (SerrantError, OSError) as exc:
        print(f"serrant: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="serrant", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(required=True, metavar="command")

    classify = sub.add_parser("classify", help="extract and type edits from parallel text")
    classify.add_argument("--orig", required=True, help="original text, one sentence per line")
    classify.add_argument("--cor", required=True, help="corrected text, one sentence per line")
    _add_annotation_flags(classify)
    _add_output_flags(classify)
    classify.add_argument("--annotator", type=int, default=0, help="annotator id for emitted edits")
    classify.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="up to N worker processes, at most one per usable core: the corpus is cut"
        " into shards of a fixed number of characters, and each worker parses, types"
        " and renders its own; a corpus of one shard runs in one process (output is"
        " identical for any count)",
    )
    classify.set_defaults(handler=_run_classify)

    retype = sub.add_parser("retype", help="recompute the type labels of an M2 file")
    retype.add_argument("--m2", required=True, help="M2 file to retype")
    _add_annotation_flags(retype)
    _add_output_flags(retype)
    retype.set_defaults(handler=_run_retype)

    stats = sub.add_parser("stats", help="print a type distribution for an M2 file")
    stats.add_argument("--m2", required=True, help="M2 file to summarise")
    stats.add_argument("--annotator", type=int, default=None, help="only count this annotator")
    stats.add_argument("--report-format", choices=REPORT_FORMATS, default="tsv")
    stats.set_defaults(handler=_run_stats)
    return parser


def _add_annotation_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--conllu-orig", help="CoNLL-U annotations for the original text")
    sub.add_argument("--conllu-cor", help="CoNLL-U annotations for the corrected text")
    sub.add_argument("--wordlist", help=f"wordlist path (default: ${WORDLIST_ENV})")
    sub.add_argument("--granularity", choices=sorted(_GRANULARITY_FLAGS), default="upos")
    sub.add_argument("--arrow", choices=sorted(_ARROW_FLAGS), default="ascii")


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", help="write the M2 output here (default: stdout)")
    sub.add_argument("--report", help="also write a type distribution here")
    sub.add_argument("--report-format", choices=REPORT_FORMATS, default="tsv")


def read_input(path: str | None) -> str | None:
    """Read a UTF-8 input file as it is, without newline translation; ``None`` for no path.

    Each parser then applies its own line rule, so a file read here parses
    as its text does when passed to the parser directly.  A byte-order mark
    at the start of the file is dropped, and only there: a file saved with
    one reads as its copy without it.

    Raises:
        OSError: when the file cannot be read.
        IngestionError: naming the path, the 1-based line of the first
            byte that is not UTF-8, and the byte, when the file does not
            decode.
    """
    if path is None:
        return None
    with open(path, encoding="utf-8-sig", newline="") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            line = exc.object.count(b"\n", 0, exc.start) + 1
            byte = exc.object[exc.start]
            raise IngestionError(f"not valid UTF-8: byte 0x{byte:02x}", path, line) from None


def _annotations(args: argparse.Namespace) -> dict[str, str | None]:
    """The CoNLL-U texts of ``--conllu-orig`` and ``--conllu-cor``, in that order."""
    return {"conllu_orig": read_input(args.conllu_orig), "conllu_cor": read_input(args.conllu_cor)}


def _config(args: argparse.Namespace) -> PipelineConfig:
    """The settings of ``args``, with the wordlist file read and loaded."""
    wordlist = read_input(args.wordlist or os.environ.get(WORDLIST_ENV) or None)
    return PipelineConfig(
        granularity=_GRANULARITY_FLAGS[args.granularity],
        wordlist=None if wordlist is None else load_wordlist(wordlist),
        annotator_id=getattr(args, "annotator", 0) or 0,
        arrow=_ARROW_FLAGS[args.arrow],
    )


def _run_classify(args: argparse.Namespace) -> int:
    original, corrected = read_input(args.orig), read_input(args.cor)
    inputs = PipelineInputs(original=original, corrected=corrected, **_annotations(args))
    return _type_and_write(args, inputs, args.jobs)


def _run_retype(args: argparse.Namespace) -> int:
    return _type_and_write(args, PipelineInputs(m2=read_input(args.m2), **_annotations(args)))


def _type_and_write(args: argparse.Namespace, inputs: PipelineInputs, jobs: int = 1) -> int:
    """Type ``inputs`` on up to ``jobs`` processes, with the settings of ``args``, and write."""
    _write_outputs(_named_by_path(args, run, _config(args), inputs, jobs, finish=_finish), args)
    return 0


def _run_stats(args: argparse.Namespace) -> int:
    text = read_input(args.m2)
    if args.annotator is not None and args.annotator < 0:
        raise ConfigurationError(f"annotator id must be >= 0, got {args.annotator}")
    records = _named_by_path(args, parse_m2, text)
    distribution = type_distribution(records, annotator_filter=args.annotator)
    _write_stdout([emit_report(distribution, args.report_format)])
    return 0


def _named_by_path(args: argparse.Namespace, call: Callable, *arguments, **options):
    """``call(*arguments, **options)``, whose errors name the file given for the input they name.

    The library names an input by its :class:`PipelineInputs` field; the
    file is the one given with the flag of that name, ``--orig`` for
    ``original`` and ``--cor`` for ``corrected``.
    """
    try:
        return call(*arguments, **options)
    except SerrantError as exc:
        if exc.source in PipelineInputs._fields:
            exc.source = getattr(args, _FLAGS.get(exc.source, exc.source), None) or exc.source
        raise


def _finish(records: list[M2Record]) -> tuple[str, Counter[str]]:
    """The M2 text and label counts of a shard, made where it was typed."""
    return emit_m2(records), type_distribution(records)


def _write_outputs(parts: list[tuple[str, Counter[str]]], args: argparse.Namespace) -> None:
    """Write the shards' M2 texts in order, and the report of their added-up counts."""
    pieces = join_m2(text for text, _ in parts)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
    else:
        _write_stdout(pieces)
    if args.report:
        counts = sum((shard_counts for _, shard_counts in parts), Counter())
        Path(args.report).write_text(emit_report(counts, args.report_format), encoding="utf-8")


def _write_stdout(texts: Iterable[str]) -> None:
    """Write ``texts`` to standard output as UTF-8, whatever the locale's encoding."""
    sys.stdout.flush()
    for text in texts:
        sys.stdout.buffer.write(text.encode("utf-8"))
    sys.stdout.buffer.flush()
