"""Error types: every ``SerrantError`` survives a pickle round trip.

``--jobs`` workers hand their errors to the parent through pickle, so an
error that cannot be rebuilt would surface as a broken process pool.
"""

from __future__ import annotations

import pickle

import pytest

from serrant.errors import (
    AnnotationMissingError,
    AttachmentError,
    ConfigurationError,
    ConlluParseError,
    IngestionError,
    M2ParseError,
    M2ValidationError,
    SerrantError,
)

CASES = [
    (SerrantError("plain"), "plain", {}),
    (M2ParseError(7, "unrecognised line"), "line 7: unrecognised line", {"line_number": 7}),
    (M2ValidationError(3, "bad span"), "record 3: bad span", {"record_index": 3}),
    (ConlluParseError(2733, "unknown UPOS 'X'"), "line 2733: unknown UPOS 'X'", {"line_number": 2733}),
    (AttachmentError(4, "form 'a' != 'b'"), "form 'a' != 'b'", {"index": 4}),
    (IngestionError("2 lines vs 1"), "2 lines vs 1", {}),
    (AnnotationMissingError("no sentence"), "no sentence", {}),
    (ConfigurationError("bad option"), "bad option", {}),
]


@pytest.mark.parametrize(
    "error, message, fields", CASES, ids=[type(error).__name__ for error, _, _ in CASES]
)
def test_error_survives_pickle(error, message, fields):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == message == str(error)
    assert copy.args == error.args
    for name, value in fields.items():
        assert getattr(copy, name) == value
