"""Grammatical-error edit classification.

The package extracts edits from parallel original/corrected sentences and
types each edit twice: with an ERRANT-style rule cascade and with a SErCl
tag pair built from the dependency heads of the edited spans.  A small set
of combination rules merges the two into the final label.
"""

from .alignment import AlignmentOp, Edit, align, merge
from .base import BaseType, classify_base, detect_orthography, detect_spelling, load_wordlist
from .combine import EditContext, SerrantType, build_context, combine
from .errors import (
    AnnotationMissingError,
    AttachmentError,
    ConfigurationError,
    ConlluParseError,
    IngestionError,
    M2ParseError,
    M2ValidationError,
    SerrantError,
)
from .m2 import EditSpan, M2Edit, M2Record, apply_edits, emit_m2, parse_m2, read_parallel
from .pipeline import PipelineConfig, PipelineInputs, classify_edit, run
from .report import emit_report, type_distribution
from .sercl import SerclSide, SerclType, classify_sercl, render
from .ud import (
    AnnotatedSentence,
    Token,
    attach,
    fallback_annotate,
    parse_conllu,
    span_head,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentOp",
    "AnnotatedSentence",
    "AnnotationMissingError",
    "AttachmentError",
    "BaseType",
    "ConfigurationError",
    "ConlluParseError",
    "Edit",
    "EditContext",
    "EditSpan",
    "IngestionError",
    "M2Edit",
    "M2ParseError",
    "M2Record",
    "M2ValidationError",
    "PipelineConfig",
    "PipelineInputs",
    "SerclSide",
    "SerclType",
    "SerrantError",
    "SerrantType",
    "Token",
    "align",
    "apply_edits",
    "attach",
    "build_context",
    "classify_base",
    "classify_edit",
    "classify_sercl",
    "combine",
    "detect_orthography",
    "detect_spelling",
    "emit_m2",
    "emit_report",
    "fallback_annotate",
    "load_wordlist",
    "merge",
    "parse_conllu",
    "parse_m2",
    "read_parallel",
    "render",
    "run",
    "span_head",
    "type_distribution",
]
