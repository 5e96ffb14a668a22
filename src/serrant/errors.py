"""Exception types shared across the package.

All errors raised on bad input derive from :class:`SerrantError` so callers
can catch one type at the boundary.  :class:`ConfigurationError` is kept
separate in spirit: it signals a bad run configuration (missing resource,
invalid option combination) rather than bad data.
"""

from __future__ import annotations


class SerrantError(Exception):
    """Base class for all input and processing errors.

    Errors cross process boundaries (``--jobs`` workers), so every subclass
    pickles as its class, its message and its attributes, whatever its
    constructor takes.
    """

    def __reduce__(self):
        return _restore, (type(self), self.args, self.__dict__)


class _LineError(SerrantError):
    """An error on one line of an input text.  ``line_number`` is 1-based."""

    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class M2ParseError(_LineError):
    """Malformed M2 text.  ``line_number`` is 1-based."""


class M2ValidationError(SerrantError):
    """A record violates the M2 invariants.  ``record_index`` is 0-based."""

    def __init__(self, record_index: int, message: str) -> None:
        super().__init__(f"record {record_index}: {message}")
        self.record_index = record_index


class ConlluParseError(_LineError):
    """Malformed CoNLL-U text.  ``line_number`` is 1-based."""


class AttachmentError(SerrantError):
    """Annotation forms do not match the surface tokens.

    ``index`` is the first divergent token position (0-based).
    """

    def __init__(self, index: int, message: str) -> None:
        super().__init__(message)
        self.index = index


class IngestionError(SerrantError):
    """Parallel inputs disagree in shape (e.g. differing line counts)."""


class AnnotationMissingError(SerrantError):
    """An operation needed an annotated sentence that was not supplied."""


class ConfigurationError(SerrantError):
    """The run configuration is invalid or incomplete."""


def _restore(cls: type[SerrantError], args: tuple, state: dict) -> SerrantError:
    error = cls.__new__(cls)
    error.args = args
    error.__dict__.update(state)
    return error
