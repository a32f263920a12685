"""Block table: splitting numbers, nullities, heights, 2x2 classification."""

import random
from fractions import Fraction

import pytest

from geoindex.exact import CertifiedReal
from geoindex.normal_forms import (B_NEGATIVE, B_POSITIVE, B_ZERO, D, N1, N2,
                                   R, SplittingPair, UnresolvedSpectrum,
                                   big_C, classify_2x2, elliptic_height,
                                   nullity_contribution, splitting_at,
                                   splitting_sum)

from .oracle import spectrum_rows

CR = CertifiedReal


def _r(t):
    return R(CR.rational(Fraction(t)))


def _d(x):
    return D(CR.rational(Fraction(x)))


ONE = CR.rational(0)      # omega = 1 is the angle t = 0
MINUS_ONE = CR.rational(1)


def test_off_spectrum_is_zero():
    assert splitting_at(_d(2), ONE) == SplittingPair(0, 0)
    assert splitting_at(_r(Fraction(1, 3)), ONE) == SplittingPair(0, 0)
    assert splitting_at(_d(2), MINUS_ONE) == SplittingPair(0, 0)


def test_shear_rule_at_one():
    assert splitting_at(N1(1, B_POSITIVE), ONE).s_plus == 1
    assert splitting_at(N1(1, B_ZERO), ONE).s_plus == 1
    assert splitting_at(N1(1, B_NEGATIVE), ONE).s_plus == 0
    assert splitting_at(N1(-1, B_NEGATIVE), MINUS_ONE) == SplittingPair(1, 1)
    assert splitting_at(N1(-1, B_POSITIVE), MINUS_ONE) == SplittingPair(0, 0)


def test_rotation_rows():
    t = Fraction(1, 3)
    blk = _r(t)
    assert splitting_at(blk, CR.rational(t)) == SplittingPair(0, 1)
    assert splitting_at(blk, CR.rational(2 - t)) == SplittingPair(1, 0)


def test_double_block_rows():
    t = CR.rational(Fraction(2, 5))
    assert splitting_at(N2(t, True), t) == SplittingPair(1, 1)
    assert splitting_at(N2(t, False), t) == SplittingPair(0, 0)


def test_additivity_over_partitions():
    rng = random.Random(3)
    blocks = [_r(Fraction(1, 3)), _d(2), N1(1, B_POSITIVE),
              _r(Fraction(1, 3)), N2(CR.rational(Fraction(5, 4)), True)]
    points = [ONE, MINUS_ONE, CR.rational(Fraction(1, 3)),
              CR.rational(Fraction(5, 4))]
    for omega in points:
        total = splitting_sum(blocks, omega)
        for _ in range(5):
            cut = rng.randint(0, len(blocks))
            left = splitting_sum(blocks[:cut], omega)
            right = splitting_sum(blocks[cut:], omega)
            assert left + right == total


def test_big_C_examples():
    assert big_C([_d(2), _d(3)]) == 0
    assert big_C([_r(Fraction(1, 2)), _d(2)]) == 1
    assert big_C([_r(Fraction(1, 3)), _r(Fraction(1, 2))]) == 2
    assert big_C([N2(CR.rational(Fraction(1, 3)), True)]) == 2
    assert big_C([N1(-1, B_NEGATIVE)]) == 1  # -1 lies on the circle


def test_splitting_bounded_by_kernel_dim():
    blocks = [_r(Fraction(1, 3)), _d(2), N1(1, B_POSITIVE), N1(-1, B_ZERO),
              N2(CR.rational(Fraction(2, 7)), True),
              N2(CR.rational(Fraction(2, 7)), False)]
    for b in blocks:
        for row in spectrum_rows([b]):
            assert 0 <= row.s_plus <= row.nu
            assert 0 <= row.s_minus <= row.nu


def test_real_points_are_symmetric():
    # at omega = +-1 both splitting numbers agree, per block
    for b in (N1(1, B_POSITIVE), N1(1, B_NEGATIVE), N1(-1, B_ZERO), _d(2)):
        for omega in (ONE, MINUS_ONE):
            pair = splitting_at(b, omega)
            assert pair.s_plus == pair.s_minus


def test_nullity_contributions():
    assert nullity_contribution(_r(Fraction(1, 2)), 4) == 2
    assert nullity_contribution(_r(Fraction(1, 2)), 5) == 0
    assert nullity_contribution(_d(2), 17) == 0
    assert nullity_contribution(N1(1, B_ZERO), 3) == 1
    assert nullity_contribution(N1(-1, B_ZERO), 3) == 0
    assert nullity_contribution(N1(-1, B_ZERO), 4) == 1
    assert nullity_contribution(N2(CR.rational(Fraction(2, 3)), True), 3) == 2


def test_nullity_periodicity_for_rational_angles():
    t = Fraction(3, 7)
    blk = _r(t)
    period = (t / 2).denominator
    for m in range(1, 40):
        assert (nullity_contribution(blk, m)
                == nullity_contribution(blk, m + period))


def test_elliptic_height():
    assert elliptic_height([_r(Fraction(1, 3)), _r(Fraction(1, 2))]) == 4
    assert elliptic_height([_r(Fraction(1, 3)), _d(2)]) == 2
    assert elliptic_height([_d(2), _d(3)]) == 0
    assert elliptic_height([N2(CR.rational(Fraction(1, 3)), False)]) == 4
    # even, and bounded by the total dimension
    from geoindex.normal_forms import total_dim
    import itertools
    pool = [_r(Fraction(1, 3)), _d(2), N1(1, B_ZERO),
            N2(CR.rational(Fraction(2, 5)), True)]
    for blocks in itertools.combinations_with_replacement(pool, 2):
        e = elliptic_height(list(blocks))
        assert e % 2 == 0 and 0 <= e <= total_dim(list(blocks))


def test_mean_shift_pairs_cancel_exactly():
    from geoindex.iteration import IndexGerm, mean_index
    t = CR.parse("0.4142135623~10", irrational=True)
    # i1 + S+ - C + t + (2 - t): 1 + 0 - 2 + 2
    v = mean_index(IndexGerm("n2", 1, (N2(t, True),)))
    assert v.exact and v.lo == 1
    assert mean_index(IndexGerm("n2t", 1, (N2(t, False),))) == CR.rational(1)
    assert mean_index(IndexGerm("r", 2, (R(t), _d(2)))) == t + 1


def test_angle_range_validation():
    with pytest.raises(ValueError):
        R(CR.rational(1))
    with pytest.raises(ValueError):
        R(CR.rational(0))
    with pytest.raises(ValueError):
        R(CR.rational(Fraction(9, 4)))
    with pytest.raises(ValueError):
        D(CR.rational(1))


def test_classify_hyperbolic():
    m = ((CR.rational(2), CR.rational(0)),
         (CR.rational(0), CR.rational(Fraction(1, 2))))
    blk = classify_2x2(m)
    assert isinstance(blk, D) and blk.lam.lo == 2


def test_classify_quarter_rotation():
    m = ((CR.rational(0), CR.rational(-1)),
         (CR.rational(1), CR.rational(0)))
    blk = classify_2x2(m)
    assert isinstance(blk, R)
    assert blk.t.exact and blk.t.lo == Fraction(1, 2)


def test_classify_reverse_rotation():
    m = ((CR.rational(0), CR.rational(1)),
         (CR.rational(-1), CR.rational(0)))
    blk = classify_2x2(m)
    assert isinstance(blk, R) and blk.t.lo == Fraction(3, 2)


def test_classify_shear():
    m = ((CR.rational(1), CR.rational(1)),
         (CR.rational(0), CR.rational(1)))
    blk = classify_2x2(m)
    assert blk == N1(1, B_POSITIVE)
    m2 = ((CR.rational(-1), CR.rational(-2)),
          (CR.rational(0), CR.rational(-1)))
    assert classify_2x2(m2) == N1(-1, B_NEGATIVE)


def test_classify_irrational_angle_by_niven():
    # trace 1/2: cos(pi t) = 1/4 is rational but not 0 or +-1/2,
    # so t is irrational
    m = ((CR.rational(Fraction(1, 2)), CR.rational(-1)),
         (CR.rational(1), CR.rational(0)))
    blk = classify_2x2(m)
    assert isinstance(blk, R) and blk.t.irrational
    assert blk.t.gt(Fraction(2, 5)) and blk.t.lt(Fraction(1, 2))


def test_classify_niven_rational_angles():
    # traces 0, 1, -1 give the three rational angles
    cases = {Fraction(0): Fraction(1, 2), Fraction(1): Fraction(1, 3),
             Fraction(-1): Fraction(2, 3)}
    for tr, expect in cases.items():
        m = ((CR.rational(tr), CR.rational(-1)),
             (CR.rational(1), CR.rational(0)))
        blk = classify_2x2(m)
        assert isinstance(blk, R) and blk.t.lo == expect


def test_classify_rejects_bad_determinant():
    m = ((CR.rational(2), CR.rational(0)),
         (CR.rational(0), CR.rational(1)))
    with pytest.raises(ValueError):
        classify_2x2(m)


def test_unresolved_cross_spectrum():
    a = CR.parse("0.7071067811~10", irrational=True)
    b = CR.parse("0.7071067812~10", irrational=True)
    with pytest.raises(UnresolvedSpectrum):
        splitting_at(R(a), b)  # overlapping distinct literals
