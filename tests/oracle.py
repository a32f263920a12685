"""Slow, obviously correct library computations, kept as test oracles.

The library evaluates every index and nullity on a compiled integer
kernel.  This module evaluates the same formula the slow, obviously
correct way: one ``CertifiedReal`` per angle and iterate, rounded by
``exact.ceil_int``, and the nullity block by block through
``normal_forms.nullity_contribution``.

The jump search places each coordinate of N*v with integer testers;
``candidate_oracle`` places them with ``exact.near_vertex`` instead.

``exact.near_vertex`` decides from the endpoints of x; ``near_vertex_oracle``
builds the fractional part and its complement as ``CertifiedReal`` values
and compares those.  The jump rounding clauses place m_i*alpha and N*v on
integer rows compiled once per problem; ``delta_count_oracle`` and
``verify_rounding_oracle`` form every such product as a ``CertifiedReal``
and round it with ``exact.ceil_int`` and ``near_vertex_oracle``.
"""

from fractions import Fraction

from geoindex.exact import (CertifiedReal, PrecisionInsufficient, ceil_int,
                            frac_part, near_vertex)
from geoindex.jump import ClauseReport, VerificationReport, _assemble
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


def near_vertex_oracle(x, eps):
    """0 if {x} < eps, 1 if 1 - {x} < eps, None if certified far from
    both; PrecisionInsufficient where a comparison is unresolved."""
    eps = Fraction(eps)
    if not 0 < eps <= Fraction(1, 2):
        raise ValueError("eps must lie in (0, 1/2]")
    f = frac_part(x)
    if f.lt(eps):
        return 0
    if (CertifiedReal.rational(1) - f).lt(eps):
        return 1
    return None


def side_oracle(alpha, m: int, eps):
    """Vertex side of m*alpha, None where far or undecided."""
    x = alpha * m
    try:
        return near_vertex_oracle(x, eps)
    except PrecisionInsufficient:
        return None


def delta_count_oracle(curve, m_i: int, delta):
    """Weighted count of angles with {m_i * alpha} in (0, delta); None
    when some angle cannot be placed on a side."""
    count = 0
    for a in curve.alphas:
        if a.exact:
            if (a.lo * m_i).denominator != 1:
                return None
            continue
        side = side_oracle(a, m_i, delta)
        if side is None:
            return None
        count += side == 0
    return count


def verify_rounding_oracle(problem, cert):
    """The rounding clauses (R1)-(R3), the Delta recount and vertex
    closeness, every product formed as a CertifiedReal."""
    clauses = []
    for i, curve in enumerate(problem.curves):
        m_i = cert.m[i]
        name = curve.germ.name
        lhs = m_i * curve.beta
        for a in curve.alphas:
            lhs += ceil_int(a * m_i)
        rhs = curve.rho * cert.N + cert.Delta[i]
        clauses.append(ClauseReport(
            "rounding-sum", lhs == rhs,
            {"curve": name, "lhs": lhs, "rhs": rhs}))
        for j, a in enumerate(curve.alphas):
            if a.exact:
                clauses.append(ClauseReport(
                    "rational-integrality", (a.lo * m_i).denominator == 1,
                    {"curve": name, "alpha": str(a.lo), "m": m_i}))
                continue
            clauses.append(ClauseReport(
                "angle-closeness",
                side_oracle(a, m_i, problem.delta) is not None,
                {"curve": name, "alpha_index": j}))
        recount = delta_count_oracle(curve, m_i, problem.delta)
        clauses.append(ClauseReport(
            "delta-count", recount == cert.Delta[i],
            {"curve": name, "recount": recount, "Delta": cert.Delta[i]}))
    for j, vj in enumerate(problem.v):
        try:
            side = near_vertex_oracle(vj * cert.N, problem.epsilon)
        except PrecisionInsufficient:
            side = None
        clauses.append(ClauseReport(
            "vertex-closeness", side == cert.chi[j], {"coordinate": j}))
    return VerificationReport(clauses)
