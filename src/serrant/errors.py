"""Exception types shared across the package.

All errors raised on bad input derive from :class:`SerrantError` so callers
can catch one type at the boundary.  :class:`ConfigurationError` is kept
separate in spirit: it signals a bad run configuration (missing resource,
invalid option combination) rather than bad data.

Every class takes the one constructor of :class:`SerrantError`: a message,
and where the fault is, the input it is in and the 1-based number of its
line.  The library names an input by its :class:`~serrant.pipeline.PipelineInputs`
field (``original``, ``corrected``, ``m2``, ``conllu_orig``, ``conllu_cor``);
the command line names it by its path.
"""

from __future__ import annotations


class SerrantError(Exception):
    """Base class for all input and processing errors.

    ``str()`` gives ``SOURCE:LINE: message``, the form of the GNU Coding
    Standards' error messages, with the parts that are ``None`` left out,
    and the message alone when both are.  Every subclass takes this
    constructor, so each pickles as it is, also across ``--jobs`` workers.
    """

    def __init__(self, message: str, source: str | None = None, line: int | None = None) -> None:
        super().__init__(message, source, line)
        self.message, self.source, self.line = message, source, line

    def __str__(self) -> str:
        where = "".join(f"{part}:" for part in (self.source, self.line) if part is not None)
        return f"{where} {self.message}" if where else self.message


class M2ParseError(SerrantError):
    """Malformed M2 text."""


class M2ValidationError(SerrantError):
    """A record violates the M2 invariants."""


class ConlluParseError(SerrantError):
    """Malformed CoNLL-U text."""


class AttachmentError(SerrantError):
    """Annotation forms do not match the surface tokens."""


class IngestionError(SerrantError):
    """Parallel inputs disagree in shape (e.g. differing line counts)."""


class AnnotationMissingError(SerrantError):
    """An operation needed an annotated sentence that was not supplied."""


class ConfigurationError(SerrantError):
    """The run configuration is invalid or incomplete."""
