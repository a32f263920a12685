"""Betti table, local-homology counts, alternating sums, parity counts."""

from fractions import Fraction

import pytest

from geoindex.exact import CertifiedReal
from geoindex.iteration import IndexGerm, gamma_invariant, germ_mbar, index_at
from geoindex.jump import build_problem, search
from geoindex.morse import (DegenerateIterate, TruncationUnsound,
                            alternating_sums, betti, betti_alternating,
                            critical_dim, euler_block_identity,
                            morse_inequality_verdicts, morse_numbers_up_to,
                            parity_counts)
from geoindex.normal_forms import D, R
from geoindex.samples import worked_example_A, worked_example_B

CR = CertifiedReal
DELTA = Fraction(1, 100)

A = worked_example_A()
B = worked_example_B()
H = IndexGerm("H", 1, (D(CR.rational(2)), D(CR.rational(3))))


def test_betti_values():
    assert betti(2) == 1
    assert betti(6) == 2
    assert betti(5) == 0
    assert betti(0) == 0
    assert all(betti(q) == 2 for q in range(4, 40, 2))
    assert all(betti(q) == 0 for q in range(1, 40, 2))


def test_betti_closed_form_large_range():
    for q in range(0, 10_001):
        expected = 1 if q == 2 else (2 if q >= 4 and q % 2 == 0 else 0)
        assert betti(q) == expected


def test_betti_alternating_closed_forms():
    for n in range(2, 200):
        assert betti_alternating(2 * n) == 2 * n - 1
        assert betti_alternating(2 * n - 1) == 2 * n - 3
    # brute force against the table
    for top in range(1, 60):
        brute = sum((-1) ** i * betti(i) for i in range(1, top + 1))
        assert betti_alternating(top) == brute


def test_critical_dim_examples():
    assert index_at(B, 2) == 2
    with pytest.warns(UserWarning, match="not bumpy"):
        assert critical_dim(B, 2, 2) == 1
        assert critical_dim(B, 2, 3) == 0
    assert index_at(A, 2) == 1
    with pytest.warns(UserWarning, match="not bumpy"):
        assert critical_dim(A, 2, 1) == 1


def test_critical_dim_rejects_degenerate():
    with pytest.warns(UserWarning, match="not bumpy"):
        with pytest.raises(DegenerateIterate):
            critical_dim(B, 6, index_at(B, 6))


def _hyperbolic_cert(n_min=3, n_max=40):
    prob = build_problem([H], DELTA, DELTA, 1)
    cert = search(prob, n_min, n_max, m_bar=germ_mbar(H))
    return prob, cert


def test_hyperbolic_morse_numbers():
    prob, cert = _hyperbolic_cert()
    n = cert.N
    counts = morse_numbers_up_to([H], prob, cert, 2 * n, germ_mbar(H))
    for q in range(0, 2 * n):
        expected = 1 if (q % 2 == 1 and q <= 2 * n - 1) else 0
        assert counts.counts.get(q, 0) == expected


def test_truncation_is_guarded():
    prob, cert = _hyperbolic_cert()
    bad = cert.__class__(N=cert.N, m=(cert.m[0] + 1,), chi=cert.chi,
                         Delta=cert.Delta, rho=cert.rho, delta=cert.delta,
                         epsilon=cert.epsilon, M=cert.M, M0=cert.M0,
                         names=cert.names)
    with pytest.raises(TruncationUnsound):
        morse_numbers_up_to([H], prob, bad, 2 * cert.N, germ_mbar(H))


def test_alternating_sums_and_inequalities():
    prob, cert = _hyperbolic_cert()
    n = cert.N
    counts = morse_numbers_up_to([H], prob, cert, 2 * n, germ_mbar(H))
    # single hyperbolic curve cannot dominate the Betti table, and the
    # degree-2 inequality must already fail
    verdicts = morse_inequality_verdicts(counts, 2 * n)
    assert not verdicts["pointwise"]
    total = alternating_sums(counts, 2 * n)
    assert total == sum((-1) ** q * counts.counts.get(q, 0)
                        for q in range(1, 2 * n + 1))


def test_euler_block_identity_examples():
    from geoindex.samples import perturbed
    lhs, rhs = euler_block_identity(H, 7)
    assert rhs == 2 * 7 * gamma_invariant(1, 2)
    assert lhs == rhs == -7
    # bumpy analogue of the rotation + hyperbolic worked germ
    a_bumpy = IndexGerm("A'", 1, (R(perturbed(Fraction(1, 2), k=25)),
                                  D(CR.rational(2))))
    lhs, rhs = euler_block_identity(a_bumpy, 5)
    assert lhs == rhs == -10
    # the rational worked germ degenerates at iterate 4, but the
    # identity is block-2-periodic, so the shortest horizon checks out
    with pytest.warns(UserWarning, match="not bumpy"):
        lhs, rhs = euler_block_identity(B, 1)
    assert lhs == rhs == 2


def test_parity_counts():
    systems = [H, IndexGerm("E2", 2, (D(CR.rational(2)),
                                      D(CR.rational(5)))),
               IndexGerm("E4", 2, (D(CR.rational(3)),
                                   D(CR.rational(7))))]
    prob = build_problem(systems, DELTA, DELTA, 1)
    cert = search(prob, 4, 200, m_bar=8)
    n2 = 2 * cert.N
    tops = [index_at(g, 2 * cert.m[k]) for k, g in enumerate(systems)]
    e_hi, o_hi = parity_counts(systems, cert, n2)
    e_lo, o_lo = parity_counts(systems, cert, n2 - 1)
    evens = [t for g, t in zip(systems, tops) if g.i1 % 2 == 0]
    assert e_hi == sum(1 for t in evens if t > n2)
    assert e_lo == sum(1 for t in evens if t > n2 - 1)
    assert (o_hi, o_lo) == (0, 0)  # hyperbolic odd top lands on 2N exactly
