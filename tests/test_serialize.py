"""The report emitter, ``serialize.dumps``, against the stdlib encoder.

``dumps`` must write exactly the bytes of ``json.dumps(obj,
sort_keys=True, indent=2) + "\\n"`` for every value a document can hold,
and refuse the rest with TypeError.  Examples are derandomized and no
example database is kept, so every run checks the same inputs.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoindex import serialize

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150)

# keys and strings with non-ASCII text, quotes, backslashes and control
# characters, which the encoder escapes
TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\\n\t\x00\x1f')),
               max_size=8)
SCALARS = st.one_of(st.none(), st.booleans(), TEXT,
                    st.integers(-10 ** 6, 10 ** 6),
                    st.integers(-10 ** 400, 10 ** 400))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=20)


@SETTINGS
@given(st.one_of(st.dictionaries(TEXT, VALUES, max_size=4), VALUES))
def test_dumps_writes_the_stdlib_bytes(value):
    assert serialize.dumps(value) == (
        json.dumps(value, sort_keys=True, indent=2) + "\n")


@pytest.mark.parametrize("bad", [1.5, float("nan"), Fraction(1, 2),
                                 {1, 2}, b"x", object()])
def test_dumps_refuses_what_no_document_holds(bad):
    for doc in (bad, {"a": [bad]}, [{"b": bad}]):
        with pytest.raises(TypeError):
            serialize.dumps(doc)
    with pytest.raises(TypeError):
        serialize.dumps({1: "int key"})
