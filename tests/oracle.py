"""Slow, obviously correct library computations, kept as test oracles.

The library evaluates every index and nullity on a compiled integer
kernel.  This module evaluates the same formula the slow, obviously
correct way: one ``CertifiedReal`` per angle and iterate, rounded by
``exact.ceil_int``, and the nullity block by block through
``normal_forms.nullity_contribution``.

The jump search places each coordinate of N*v with integer testers;
``candidate_oracle`` places them with ``exact.near_vertex`` instead.
"""

from fractions import Fraction

from geoindex.exact import PrecisionInsufficient, ceil_int, near_vertex
from geoindex.jump import _assemble
from geoindex.normal_forms import (big_C, nullity_contribution,
                                   s_plus_at_one, weighted_angles)


def index_oracle(germ, m: int) -> int:
    """i(m) by certified ceilings; PrecisionInsufficient where undecided."""
    if m < 1:
        raise ValueError("iterate must be positive")
    s_plus, c = s_plus_at_one(germ.blocks), big_C(germ.blocks)
    total = m * (germ.i1 + s_plus - c) - (s_plus + c)
    for t, weight in weighted_angles(germ.blocks):
        total += 2 * weight * half_ceiling(t, m)
    return total


def half_ceiling(t, m: int) -> int:
    """Certified ceil(m*t/2).

    Once m*width(t)/2 reaches 1 the product is no ``CertifiedReal`` (its
    width must stay below 1) and ``ceil_int`` cannot be asked.  Such an
    interval [L, H] holds an integer strictly inside unless H = L + 1
    with L an integer, and only a value declared irrational then avoids
    both endpoints: its ceiling is H.  Everything else is undecided.
    """
    half = Fraction(m, 2)
    if (t.hi - t.lo) * half < 1:
        return ceil_int(t * half)
    low, high = t.lo * half, t.hi * half
    if t.irrational and low.denominator == 1 and high == low + 1:
        return int(high)
    raise PrecisionInsufficient(f"ceiling of {t.describe()} * {half} "
                                f"undecided")


def nullity_oracle(germ, m: int) -> int:
    return sum(nullity_contribution(b, m) for b in germ.blocks)


def candidate_oracle(problem, N: int, m_bar: int):
    """The fully verified certificate at N by certified vertex sides, or
    None where a side is far or undecided."""
    chi = []
    for vj in problem.v:
        try:
            side = near_vertex(vj * N, problem.epsilon)
        except PrecisionInsufficient:
            return None
        if side is None:
            return None
        chi.append(side)
    return _assemble(problem, N, chi, m_bar)
