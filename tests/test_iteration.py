"""Iteration formulas: worked germs, parity, sandwich, horizons."""

import random
from fractions import Fraction

import pytest

from geoindex.exact import CertifiedReal
from geoindex.iteration import (IndexGerm, IndexProfile, Unbounded,
                                bott_positive, deviation_bounds,
                                gamma_invariant, germ_mbar, index_at,
                                is_bumpy, mbar, mean_index, nullity_at)
from geoindex.normal_forms import D, N1, R
from geoindex.samples import (perturbed, worked_example_A, worked_example_B)

from .corpus import iteration_corpus, random_germ
from .oracle import germ_mbar_oracle, index_oracle, nullity_oracle

CR = CertifiedReal

A = worked_example_A()
B = worked_example_B()
H = IndexGerm("H", 1, (D(CR.rational(2)), D(CR.rational(3))))


def test_worked_indices():
    assert index_at(A, 1) == 1
    assert index_at(A, 5) == 3
    assert index_at(B, 1) == 2
    assert index_at(B, 12) == 8
    assert index_at(H, 7) == 7


def test_worked_nullities():
    assert nullity_at(B, 6) == 2
    assert nullity_at(B, 5) == 0
    assert nullity_at(B, 12) == 4
    assert all(nullity_at(H, m) == 0 for m in range(1, 20))


def test_worked_mean_indices():
    assert mean_index(A).lo == Fraction(1, 2)
    assert mean_index(B).lo == Fraction(5, 6)
    hn = IndexGerm("Hn", -1, (D(CR.rational(2)), D(CR.rational(3))))
    assert mean_index(hn).lo == -1


def test_deviation_bounds():
    assert deviation_bounds(A) == (1, 1)
    assert deviation_bounds(B) == (2, 2)
    assert deviation_bounds(H) == (0, 0)


def test_gamma_invariant_cases():
    assert gamma_invariant(1, 1) == -1
    assert gamma_invariant(2, 2) == 1
    assert gamma_invariant(1, 2) == Fraction(-1, 2)
    assert gamma_invariant(2, 5) == Fraction(1, 2)


def test_bumpiness():
    assert not is_bumpy(B)  # rational angles close up
    assert is_bumpy(IndexGerm("i", 1, (R(perturbed(Fraction(3, 7))),
                                       D(CR.rational(2)))))
    assert not is_bumpy(IndexGerm("s", 1, (N1(1, "positive"),
                                           D(CR.rational(2)))))
    assert is_bumpy(H)


def test_mbar_worked_values():
    assert germ_mbar(H) == 4
    assert germ_mbar(A) == 8
    assert germ_mbar(B) == 6
    assert mbar([H, A, B]) == 8


def test_mbar_definition_holds():
    for germ, m0 in ((H, 4), (A, 8), (B, 6)):
        target = germ.i1 + 4
        assert all(index_at(germ, m + m0) >= target for m in range(1, 60))
        bad = m0 - 1
        assert any(index_at(germ, m + bad) < target for m in range(1, 60))


def test_mbar_requires_growth():
    hn = IndexGerm("Hn", -1, (D(CR.rational(2)), D(CR.rational(3))))
    with pytest.raises(Unbounded):
        germ_mbar(hn)


def test_mbar_walk_matches_the_m0_loop():
    values = []
    for germ in iteration_corpus(200):
        try:
            want = germ_mbar_oracle(germ)
        except Unbounded:
            with pytest.raises(Unbounded):
                germ_mbar(germ)
            continue
        assert germ_mbar(germ) == want, germ
        values.append(want)
    assert len(values) > 100 and len(set(values)) > 3


def test_initial_index_reproduced_everywhere():
    for germ in iteration_corpus(60, seed=41):
        assert index_at(germ, 1) == germ.i1


def test_parity_of_two_step_differences():
    for germ in iteration_corpus(25, seed=42):
        profile = IndexProfile(germ, 120)
        vals = [profile.index(m) for m in range(1, 121)]
        assert all((vals[m + 1] - vals[m - 1]) % 2 == 0
                   for m in range(1, 119))


def test_mean_index_sandwich():
    for germ in iteration_corpus(25, seed=43):
        s_plus_c, c_minus_s = deviation_bounds(germ)
        mean = mean_index(germ)
        profile = IndexProfile(germ, 400)
        for m in range(1, 401):
            i_m = profile.index(m)
            low = (mean * m) - s_plus_c
            high = (mean * m) + c_minus_s
            assert low.lo <= i_m <= high.hi


def test_deviation_is_attained_when_hyperbolic():
    for germ in (H, IndexGerm("h2", 3, (D(CR.rational(2)),
                                        D(CR.rational(5))))):
        mean = mean_index(germ).lo
        for m in range(1, 50):
            assert index_at(germ, m) == m * mean


def test_bott_positive_examples():
    assert bott_positive(H)
    assert bott_positive(A)
    assert bott_positive(B)
    dropper = IndexGerm("d", 1, (R(CR.rational(Fraction(1, 5))),
                                 R(CR.rational(Fraction(1, 7)))))
    # index slope is negative here, so positivity must fail
    assert mean_index(dropper).lt(0)
    assert not bott_positive(dropper)


def test_profile_matches_pointwise_evaluation():
    rng = random.Random(99)
    for _ in range(12):
        germ = random_germ(rng, "x")
        profile = IndexProfile(germ, 60)
        for m in range(1, 61):
            assert (profile.index(m) == index_at(germ, m)
                    == index_oracle(germ, m))
            assert (profile.nullity(m) == nullity_at(germ, m)
                    == nullity_oracle(germ, m))


def test_bumpy_means_no_degenerate_iterates():
    for germ in iteration_corpus(40, seed=44):
        if is_bumpy(germ):
            assert all(nullity_at(germ, m) == 0 for m in range(1, 80))


def test_germ_dimension_validation():
    with pytest.raises(ValueError):
        IndexGerm("bad", 1, (D(CR.rational(2)),))
