"""The report emitter, ``serialize.dumps``, against the stdlib encoder,
and ``number_to_str`` against the widening loop it replaced.

``dumps`` must write exactly the bytes of ``json.dumps(obj,
sort_keys=True, indent=2) + "\\n"`` for every value a document can hold,
and refuse the rest with TypeError.  Examples are derandomized and no
example database is kept, so every run checks the same inputs.
``number_to_str`` must write the bytes ``tests/oracle.py`` writes.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoindex import samples, serialize
from geoindex.exact import CertifiedReal, PrecisionBudget
from geoindex.iteration import IndexGerm, mean_index
from geoindex.normal_forms import D, R

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
    # read back, the decimal values are their literals
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


def test_an_echo_is_written_from_the_ends_alone():
    # a decimal at radius 10**-k is written as itself, however it was
    # built, its centre at the fewest digits that write it and at least k
    x = CertifiedReal.decimal("0.4285", Fraction(1, 10 ** 6))
    assert serialize.number_to_str(x) == number_to_str_oracle(x) \
        == "0.428500~6"
    germ = IndexGerm("r", 1, (R(x), D(CertifiedReal.rational(2))))
    assert serialize._echoes_exactly([germ])
    for text, echo in (("5~1", "5.0~1"), ("0.42857100~6", "0.428571~6"),
                       ("0.4285714~3", "0.4285714~3"), ("-0.05~1", "-0.05~1")):
        y = CertifiedReal.parse(text)
        assert serialize.number_to_str(y) == number_to_str_oracle(y) == echo
        assert CertifiedReal.parse(echo) == y


def test_an_echo_contains_its_value_or_raises():
    # widths from 10**-400 to 0.99, centres decimal or not: the echo
    # parses back to an interval around the value, and a value that no
    # literal at radius 1/10 contains is refused, by name
    with pytest.raises(ValueError, match=r"^no literal at radius 1/10 "
                       r"contains \[0\.1, 0\.7\]~irr$"):
        serialize.number_to_str(CertifiedReal.interval(
            Fraction(1, 10), Fraction(7, 10), irrational=True))
    rng = random.Random(0)
    budget = PrecisionBudget(max_digits=1000)
    raised = 0
    for _ in range(300):
        # a width 2*10**-j, a radius the literal can be, or one in
        # [10**-j, 0.99 * 10**(1 - j)], j = 1 half the time
        j = rng.choice((1, rng.randint(1, 400)))
        m = rng.choice((2 * 10 ** 6, rng.randint(10 ** 6, 99 * 10 ** 5)))
        w = Fraction(m, 10 ** (6 + j))
        c = Fraction(rng.randint(-10 ** 8, 10 ** 8),
                     rng.choice((10 ** rng.randint(0, 420), 7, 2 ** 30)))
        x = CertifiedReal.interval(c - w / 2, c + w / 2, rng.random() < 0.5)
        try:
            text = serialize.number_to_str(x)
        except ValueError:
            raised += 1
            with pytest.raises(ValueError):
                number_to_str_oracle(x)
            continue
        assert text == number_to_str_oracle(x), x
        back = CertifiedReal.parse(text, budget=budget)
        assert back.lo <= x.lo and x.hi <= back.hi, (x, text)
    assert 0 < raised < 100


def test_a_literal_that_is_no_decimal_is_widened():
    # CertifiedReal.decimal takes any Fraction literal, but only a decimal
    # one parses back with its "~k"; "1/3~3" would not
    x = CertifiedReal.decimal("1/3", Fraction(1, 1000), irrational=True)
    text = serialize.number_to_str(x)
    assert text == number_to_str_oracle(x) == "0.33~2"
    back = CertifiedReal.parse(text, irrational=True)
    assert back.lo <= x.lo and x.hi <= back.hi
