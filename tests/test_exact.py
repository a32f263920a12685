"""Certified rounding queries: examples, boundary cases, algebra."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoindex import replay, run_pipeline, samples
from geoindex.exact import (CertifiedReal, PrecisionBudget,
                            PrecisionInsufficient, ceil_int, default_budget,
                            floor_int, frac_part, near_vertex, phi,
                            sqrt_interval)

from .oracle import parse_oracle

CR = CertifiedReal


def test_ceiling_examples():
    assert ceil_int(CR.rational(2)) == 2
    assert ceil_int(CR.rational(5, 4)) == 2
    x = CR.decimal("0.4142135", Fraction(1, 10 ** 7), irrational=True)
    assert ceil_int(x) == 1


def test_floor_examples():
    assert floor_int(CR.rational(2)) == 2
    assert floor_int(CR.rational(5, 4)) == 1
    assert floor_int(CR.rational(-1, 4)) == -1


def test_phi_examples():
    assert phi(CR.rational(3)) == 0
    assert phi(CR.rational(1, 2)) == 1
    assert phi(CR.rational(-7, 3)) == 1


def test_frac_examples():
    assert frac_part(CR.rational(9, 4)).lo == Fraction(1, 4)
    assert frac_part(CR.rational(-1, 4)).lo == Fraction(3, 4)
    assert frac_part(CR.rational(3)).lo == 0


def test_near_vertex_examples():
    assert near_vertex(CR.rational(1, 5), Fraction(1, 4)) == 0
    assert near_vertex(CR.rational(99, 100), Fraction(1, 10)) == 1
    assert near_vertex(CR.rational(1, 2), Fraction(1, 10)) is None


def test_irrational_boundary_is_excluded():
    # interval ending exactly on an integer, value declared irrational
    x = CR.interval(Fraction(29, 10), Fraction(3), irrational=True)
    assert floor_int(x) == 2
    assert ceil_int(x) == 3
    y = CR.interval(Fraction(3), Fraction(31, 10), irrational=True)
    assert floor_int(y) == 3


def test_comparisons_exclude_irrational_endpoints():
    x = CR.interval(Fraction(1, 3), Fraction(1, 2), irrational=True)
    assert x.lt(Fraction(1, 2)) and x.gt(Fraction(1, 3))
    assert near_vertex(x, Fraction(1, 2)) == 0
    with pytest.raises(PrecisionInsufficient):
        x.sign_vs(Fraction(2, 5))
    y = CR.interval(Fraction(1, 3), Fraction(1, 2))
    with pytest.raises(PrecisionInsufficient):
        y.lt(Fraction(1, 2))
    with pytest.raises(PrecisionInsufficient):
        near_vertex(y, Fraction(1, 2))
    # a zero-width value built from its ends is its one point
    p = CR(Fraction(3), Fraction(3))
    assert (p.sign_vs(3), floor_int(p), ceil_int(p), phi(p)) == (0, 3, 3, 0)
    assert near_vertex(p, Fraction(1, 64)) == 0


def test_straddle_raises():
    x = CR.interval(Fraction(29, 10), Fraction(31, 10))
    with pytest.raises(PrecisionInsufficient):
        floor_int(x)
    z = CR.interval(Fraction(29, 10), Fraction(31, 10), irrational=True)
    with pytest.raises(PrecisionInsufficient):
        floor_int(z)  # interior integer: side unknown even for irrationals


def test_ceiling_superadditivity_defect():
    rng = random.Random(7)
    for _ in range(500):
        x = Fraction(rng.randint(-400, 400), rng.randint(1, 40))
        y = Fraction(rng.randint(-400, 400), rng.randint(1, 40))
        d = (ceil_int(CR.rational(x)) + ceil_int(CR.rational(y))
             - ceil_int(CR.rational(x + y)))
        assert d in (0, 1)


def test_floor_plus_frac_reconstructs():
    rng = random.Random(8)
    for _ in range(300):
        x = Fraction(rng.randint(-500, 500), rng.randint(1, 60))
        v = CR.rational(x)
        assert floor_int(v) + frac_part(v).lo == x
        f = frac_part(v)
        assert frac_part(f).lo == f.lo  # idempotent
        assert 0 <= f.lo < 1


def test_phi_is_integer_indicator():
    for k in range(-5, 6):
        assert phi(CR.rational(k)) == 0
    for num, den in ((1, 2), (-7, 3), (22, 7)):
        assert phi(CR.rational(num, den)) == 1


@st.composite
def _small_values(draw):
    """Valid values with ends p/q, q small: points and intervals on,
    around and between integers, declared irrational or not."""
    q, q2 = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    lo = Fraction(draw(st.integers(-4 * q, 4 * q)), q)
    hi = lo + Fraction(draw(st.integers(0, q2 - 1)), q2)  # width below 1
    return CR(lo, hi, irrational=lo != hi and draw(st.booleans()))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_small_values())
def test_phi_is_ceil_minus_floor(x):
    if x.irrational:
        assert phi(x) == 1
    try:
        fl, cl = floor_int(x), ceil_int(x)
    except PrecisionInsufficient:
        return
    assert phi(x) == cl - fl, x


def test_refining_digits_never_flips_answers():
    # same underlying constant at increasing precision
    digits = "0.73205080756887729352"
    for k in range(3, 20):
        x = CR.decimal(digits[:k + 2], Fraction(1, 10 ** k),
                       irrational=True)
        assert floor_int(x) == 0
        assert ceil_int(x) == 1
        assert phi(x) == 1


def test_parse_forms():
    assert CR.parse("3/4").lo == Fraction(3, 4)
    assert CR.parse("-2").lo == -2
    assert CR.parse("0.125").lo == Fraction(1, 8)
    x = CR.parse("0.5857864376~10", irrational=True)
    assert not x.exact and x.irrational
    assert x.hi - x.lo == Fraction(2, 10 ** 10)
    with pytest.raises(ValueError):
        CR.parse("0.5", irrational=True)  # no precision suffix
    with pytest.raises(ValueError):
        CR.parse("π")


def test_budget_ignores_the_environment(monkeypatch):
    # an echo names no budget for a literal within the built-in one, so a
    # budget read from the environment would refuse the report's own echo
    monkeypatch.setenv("GEOINDEX_PRECISION", "50")
    assert default_budget() == PrecisionBudget()
    report = run_pipeline(samples.forced_top_system())
    assert report.final == "CONTRADICTION(forced-top)" and replay(report)


def test_parse_respects_budget():
    with pytest.raises(ValueError):
        CR.parse("0.5857864376~10", irrational=True,
                 budget=PrecisionBudget(max_digits=8))


DIGITS = st.text("0123456789\u0663", max_size=25)  # \u0663 is a digit too


@st.composite
def _literal(draw):
    """Decimals with or without "~k", ratios, and near misses of both."""
    sign = draw(st.sampled_from(["", "-", "+", "--"]))
    kind = draw(st.sampled_from(["decimal", "ratio", "other"]))
    if kind == "other":
        return draw(st.text(max_size=8))
    if kind == "ratio":
        text = f"{sign}{draw(DIGITS)}/{draw(DIGITS)}"
    else:
        text = sign + draw(DIGITS)
        if draw(st.booleans()):
            text += "." + draw(DIGITS)
        if draw(st.booleans()):
            text += "~" + draw(st.text("0123456789", max_size=3))
    return draw(st.sampled_from(["", " "])) + text + draw(
        st.sampled_from(["", "\n"]))


def _parsed(parse, text, irrational, budget):
    try:
        x = parse(text, irrational=irrational, budget=budget)
    except ValueError as exc:
        return type(exc), str(exc)
    return x, x.exact, x.irrational


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_literal(), st.booleans(), st.integers(1, 30))
def test_parse_matches_the_fraction_oracle(text, irrational, digits):
    budget = PrecisionBudget(max_digits=digits)
    assert (_parsed(CR.parse, text, irrational, budget)
            == _parsed(parse_oracle, text, irrational, budget))


def test_zero_denominator_is_a_value_error():
    for parse in (CR.parse, parse_oracle):
        for text in ("1/0", "-3/00"):
            with pytest.raises(ValueError, match=f"^zero denominator in "
                               f"number literal: '{text}'$"):
                parse(text)


def test_digits_of_other_scripts_are_unparseable():
    # int() and Fraction read any script's decimal digits: "٣/7"
    # and fullwidth "３/7" were 3/7, "٠.٥~٢" 0.5~2
    for text, irrational in (("٣/7", False), ("３/7", False),
                             ("3/٧", False), ("٠.٥", False),
                             ("٠.٥~٢", True),
                             ("0.5~٢", True)):
        for parse in (CR.parse, parse_oracle):
            with pytest.raises(ValueError, match="unparseable|irrational"):
                parse(text, irrational=irrational)


def test_interval_arithmetic_soundness():
    rng = random.Random(11)
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        w = Fraction(1, rng.randint(10 ** 3, 10 ** 6))
        x = CR.interval(a - w, a + w, irrational=True)
        y = CR.rational(Fraction(rng.randint(-50, 50), rng.randint(1, 20)))
        s = x + y
        assert s.lo <= a + y.lo <= s.hi
        p = x * y
        assert p.lo <= a * y.lo <= p.hi
        d = x - y
        assert d.lo <= a - y.lo <= d.hi


def test_sqrt_interval():
    v = sqrt_interval(2, 40)
    assert v.irrational and v.hi - v.lo == Fraction(1, 10 ** 40)
    assert (v * v).lo < 2 < (v * v).hi
    assert sqrt_interval(49).exact and sqrt_interval(49).lo == 7


def test_declared_equality_semantics():
    a = CR.parse("0.5857864376~10", irrational=True)
    b = CR.parse("0.5857864376~10", irrational=True)
    c = CR.parse("0.5857864377~10", irrational=True)
    assert a.eq_certified(b) is True          # same declared constant
    assert a.eq_certified(c) is None          # overlapping, distinct
    assert a.eq_certified(CR.rational(1, 2)) is False
    r = CR.rational(Fraction(5857864376, 10 ** 10))
    assert a.eq_certified(r) is False         # rational vs irrational


def test_equal_rationals_share_one_value():
    assert CR.rational(2) is CR.rational(2)
    assert CR.rational(1, 3) is CR.parse("2/6") is CR.rational(Fraction(3, 9))
    assert CR.rational(2) + 1 is CR.rational(3)
