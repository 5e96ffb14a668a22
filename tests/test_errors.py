"""Error types: one constructor, one format, and every ``SerrantError`` survives pickle.

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

CLASSES = [
    SerrantError,
    M2ParseError,
    M2ValidationError,
    ConlluParseError,
    AttachmentError,
    IngestionError,
    AnnotationMissingError,
    ConfigurationError,
]

# the constructor's arguments, and what str() gives: SOURCE:LINE: message
WHERE = [
    (("unknown UPOS tag 'X'", "conllu_cor", 2733), "conllu_cor:2733: unknown UPOS tag 'X'"),
    (("not valid UTF-8", "data/cor.txt"), "data/cor.txt: not valid UTF-8"),
    (("bad option",), "bad option"),
]


@pytest.mark.parametrize("arguments, message", WHERE, ids=["source-and-line", "source", "neither"])
@pytest.mark.parametrize("cls", CLASSES, ids=[cls.__name__ for cls in CLASSES])
def test_error_survives_pickle(cls, arguments, message):
    error = cls(*arguments)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == message == str(error)
    assert copy.args == error.args
    source, line = (*arguments[1:], None, None)[:2]
    assert (copy.message, copy.source, copy.line) == (arguments[0], source, line)


def test_a_source_set_after_construction_is_written_and_pickled():
    # the command line names the file of an input the library names by its role
    error = AttachmentError("annotation form 'zzz' != surface token 'a' at index 0", "conllu_cor", 9)
    error.source = "cor.conllu"
    copy = pickle.loads(pickle.dumps(error))
    assert str(copy) == str(error) == "cor.conllu:9: annotation form 'zzz' != surface token 'a' at index 0"
