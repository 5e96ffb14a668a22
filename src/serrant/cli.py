"""Command-line interface.

Three subcommands: ``classify`` extracts and types edits from a parallel
corpus, ``retype`` recomputes the type labels of an existing M2 file, and
``stats`` prints a type distribution for an M2 file.

Exit codes: 0 on success, 1 on input or processing errors, 2 on
configuration errors (argparse reports usage errors with 2 as well).  The
``SERRANT_WORDLIST`` environment variable supplies a wordlist path when
``--wordlist`` is not given.

Output is UTF-8 whatever the locale: standard output gets the same bytes
as ``--out``.

The cyclic garbage collector is off while a command runs, and
:func:`main` returns with it as the caller had it.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from .errors import ConfigurationError, SerrantError
from .m2 import emit_m2, parse_m2
from .pipeline import PipelineConfig, PipelineInputs, read_input, run
from .report import REPORT_FORMATS, emit_report, type_distribution
from .sercl import ARROW_ASCII, ARROW_UNICODE, GRANULARITY_UPOS, GRANULARITY_UPOS_FEATS

_GRANULARITY_FLAGS = {"upos": GRANULARITY_UPOS, "upos-feats": GRANULARITY_UPOS_FEATS}
_ARROW_FLAGS = {"ascii": ARROW_ASCII, "unicode": ARROW_UNICODE}

WORDLIST_ENV = "SERRANT_WORDLIST"


def main(argv: list[str] | None = None) -> int:
    # A run builds no reference cycles, so the collector would only walk the
    # growing heap again and again.
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
        " into about four shards per N, and each worker parses, attaches and types"
        " its own (output is identical for any count)",
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


def _config(args: argparse.Namespace) -> PipelineConfig:
    wordlist = args.wordlist or os.environ.get(WORDLIST_ENV) or None
    return PipelineConfig(
        granularity=_GRANULARITY_FLAGS[args.granularity],
        wordlist_path=wordlist,
        conllu_orig_path=args.conllu_orig,
        conllu_cor_path=args.conllu_cor,
        annotator_id=getattr(args, "annotator", 0) or 0,
        arrow=_ARROW_FLAGS[args.arrow],
    )


def _run_classify(args: argparse.Namespace) -> int:
    inputs = PipelineInputs(original=read_input(args.orig), corrected=read_input(args.cor))
    _write_outputs(run(_config(args), inputs, args.jobs), args)
    return 0


def _run_retype(args: argparse.Namespace) -> int:
    records = run(_config(args), PipelineInputs(m2=read_input(args.m2)))
    _write_outputs(records, args)
    return 0


def _run_stats(args: argparse.Namespace) -> int:
    records = parse_m2(read_input(args.m2))
    distribution = type_distribution(records, annotator_filter=args.annotator)
    _write_stdout(emit_report(distribution, args.report_format))
    return 0


def _write_outputs(records, args: argparse.Namespace) -> None:
    text = emit_m2(records)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        _write_stdout(text)
    if args.report:
        distribution = type_distribution(records)
        Path(args.report).write_text(
            emit_report(distribution, args.report_format), encoding="utf-8"
        )


def _write_stdout(text: str) -> None:
    """Write ``text`` to standard output as UTF-8, whatever the locale's encoding."""
    sys.stdout.flush()
    sys.stdout.buffer.write(text.encode("utf-8"))
    sys.stdout.buffer.flush()
