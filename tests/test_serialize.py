"""The report emitter, ``serialize.dumps``, against the stdlib encoder,
and ``number_to_str`` against the widening loop it replaced.

``dumps`` must write exactly the bytes of ``json.dumps(obj,
sort_keys=True, indent=2) + "\\n"`` for every value a document can hold,
and refuse the rest with TypeError.  Examples are derandomized and no
example database is kept, so every run checks the same inputs.
``number_to_str`` must write the bytes ``tests/oracle.py`` writes.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoindex import samples, serialize
from geoindex.exact import CertifiedReal
from geoindex.iteration import mean_index
from geoindex.normal_forms import D

from .oracle import number_to_str_oracle

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


def _sample_numbers():
    """Every block value and mean index of the sample systems, as built
    and as read back from their documents."""
    systems = [samples.mod4_system(20, 33), samples.mod4_system(16, 29),
               samples.gamma_window_system(), samples.forced_top_system(),
               samples.mismatch_system(), samples.two_odd_one_even_system(),
               samples.all_odd_system()]
    germs = [g for s in systems for g in s.germs]
    germs += [samples.worked_example_A(), samples.worked_example_B()]
    # read back, the decimal values carry their literals
    germs += [g for s in systems for g in serialize.system_from_dict(
        serialize.system_to_dict(s.germs))]
    for g in germs:
        yield mean_index(g)
        for b in g.blocks:
            yield b.lam if isinstance(b, D) else getattr(b, "t", None)


def _widths():
    """Widths one unit either side of 10**-j, and past the k = 390 cap."""
    for j in list(range(1, 60)) + [120, 250, 388, 389, 390, 391, 392, 400]:
        p = 10 ** j
        yield from (Fraction(1, p), Fraction(1, p - 1), Fraction(1, p + 1),
                    Fraction(p - 1, p * p), Fraction(p + 1, p * p))


def test_number_to_str_matches_the_widening_loop():
    numbers = [x for x in _sample_numbers() if x is not None]
    assert sum(not x.exact for x in numbers) >= 10
    for k, w in enumerate(_widths()):
        lo = Fraction(k + 1, 7) - w / 3
        numbers.append(CertifiedReal.interval(lo, lo + w, k % 2 == 0))
    numbers.append(CertifiedReal.parse("0.0005~4", irrational=True))
    for x in numbers:
        assert serialize.number_to_str(x) == number_to_str_oracle(x), x
    capped = CertifiedReal.interval(Fraction(1, 3), Fraction(1, 3)
                                    + Fraction(1, 10 ** 400), True)
    assert serialize.number_to_str(capped).endswith("~390")
