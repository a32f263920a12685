"""Slow, obviously correct library computations, kept as test oracles.

The library evaluates every index and nullity on a compiled integer
kernel.  This module evaluates the same formula the slow, obviously
correct way: one ``CertifiedReal`` per angle and iterate, rounded by
``ceil_oracle``, and the nullity block by block through
``normal_forms.nullity_contribution``.

Every floor, ceiling and vertex side in the library, ``exact.floor_int``,
``ceil_int`` and ``near_vertex`` and the jump search and rounding clauses
alike, comes from integer rows: ``exact._floor``, ``_ceil`` and the one
placement rule ``exact._placement``.  None of that code runs here.
``floor_oracle`` rounds a ``CertifiedReal`` from its ends case by case,
and ``ceil_oracle`` is it on -x.  ``near_vertex_oracle`` builds the
fractional part x - floor_oracle(x) and its complement as
``CertifiedReal`` values and compares those with ``lt``;
``candidate_oracle`` places each coordinate of N*v with it, and
``search_oracle``, the every-N scan that the search's stepped stream of
candidates must reproduce, does so at every N; ``delta_count_oracle``
and ``verify_rounding_oracle`` form every product
m_i*alpha and N*v as a ``CertifiedReal`` and round it with
``ceil_oracle`` and ``near_vertex_oracle``.  They take each curve's
angles and slope i1 + S+ - C from the block walkers below
(``angle_list``, ``slope_oracle``), not from the jump problem, which
holds them only as the germ's compiled kernel.

``parse_oracle`` reads a number literal the way the library did before
it built decimal ends from integers: through ``Fraction`` string parsing
and ``CertifiedReal.decimal``.  ``number_to_str_oracle`` writes one by
``Fraction`` arithmetic on the ends, where the library counts digits on
an integer row: it tries each power-of-ten radius and each number of
centre digits in turn, and widens any other interval one power of ten
at a time.

The library compiles each germ once, in one pass over its blocks'
splitting table, into integers, and builds the jump problem on them.
The walkers below read the table as ``CertifiedReal`` spectrum points
block by block, and ``mean_oracle``, ``horizon_oracle`` and
``problem_oracle`` do the germ's mean, growth horizon and the jump
problem's signs, tolerance and vertex coordinates in ``CertifiedReal``
arithmetic, rounded by ``ceil_oracle``: the constructions the library
used before it built them on integers.

``verify_jump_oracle`` re-checks the jump identities (J0), (J+), (J-)
and (J=) with ``index_oracle`` and ``nullity_oracle``; none of the
kernel code (``_kernel``, ``_index``, ``_nullity``) or the clause
generator of ``jump`` runs in it.

``germ_mbar`` walks down once from the growth horizon.
``germ_mbar_oracle`` takes that horizon from ``horizon_oracle`` and
tries every candidate m0 in turn against every iterate up to it, by
``index_oracle``.

``candidate_oracle`` and ``search_oracle`` accept a candidate through
``accept_oracle``: m_i from ``floor_oracle``, Delta from
``delta_count_oracle``, and the clauses of ``verify_rounding_oracle``
and ``verify_jump_oracle``.  ``tests/test_surface.py`` pins which
library code this module may import; none of it is search code.
"""

import re
from fractions import Fraction
from math import ceil, floor, lcm
from typing import NamedTuple

from geoindex.exact import CertifiedReal, PrecisionInsufficient, default_budget
from geoindex.iteration import Unbounded
from geoindex.jump import JumpCertificate, NotFound, ZeroMeanIndex
from geoindex.normal_forms import (N1, N2, R, _table, big_C,
                                   nullity_contribution)


# -- rounding --------------------------------------------------------------

def floor_oracle(x) -> int:
    """Certified floor of a CertifiedReal, decided from its two ends.

    A point, exact or not, is its value.  An interval inside one integer
    cell below a non-integer upper end has that cell's floor.  A
    declared-irrational value equals neither end, so an integer at an
    end decides, and only an integer strictly inside leaves the floor
    open.  Anything else is PrecisionInsufficient.
    """
    fl = floor(x.lo)
    if x.lo == x.hi:
        return fl
    if fl == floor(x.hi) and x.hi.denominator > 1:
        return fl
    if x.irrational:
        if fl + 1 <= ceil(x.hi) - 1:
            raise PrecisionInsufficient(f"floor of {x.describe()} straddles "
                                        f"{fl + 1}")
        # the only integer touching [lo, hi] is an end, which x is not
        if x.hi.denominator == 1:
            return int(x.hi) - 1
        return fl
    raise PrecisionInsufficient(f"floor of {x.describe()} undecided")


def ceil_oracle(x) -> int:
    """Certified ceiling: -floor_oracle(-x)."""
    return -floor_oracle(-x)


# -- literals ---------------------------------------------------------------

def parse_oracle(text: str, irrational: bool = False, budget=None):
    """``CertifiedReal.parse`` through ``Fraction`` string parsing and the
    ``decimal`` constructor: the same value, flags, literal and errors."""
    budget = budget or default_budget()
    text = text.strip()
    m = re.fullmatch(r"(-?\d+(?:\.\d+)?)~(\d+)", text, re.ASCII)
    if m:
        digits, k = m.group(1), int(m.group(2))
        frac_digits = len(digits.split(".")[1]) if "." in digits else 0
        if max(frac_digits, k) > budget.max_digits:
            raise ValueError(
                f"literal carries more digits than the budget "
                f"({budget.max_digits}) allows: {text!r}")
        return CertifiedReal.decimal(digits, Fraction(1, 10 ** k),
                                     irrational=irrational)
    if irrational:
        raise ValueError(
            f"irrational values need an explicit precision, e.g. "
            f"'0.4142~4': got {text!r}")
    if re.fullmatch(r"-?\d+/\d+", text, re.ASCII):
        p, q = text.split("/")
        if int(q) == 0:
            raise ValueError(f"zero denominator in number literal: "
                             f"{text!r}")
        return CertifiedReal.rational(int(p), int(q))
    if re.fullmatch(r"-?\d+(\.\d+)?", text, re.ASCII):
        return CertifiedReal.rational(Fraction(text))
    raise ValueError(f"unparseable number literal: {text!r}")


def number_to_str_oracle(x) -> str:
    """``serialize.number_to_str`` read from the ends alone, ``Fraction``
    against ``Fraction``: the value itself where its radius is a power of
    ten and its centre a decimal, else widened one digit at a time."""
    if x.exact:
        return str(x.lo)
    radius, centre = (x.hi - x.lo) / 2, (x.lo + x.hi) / 2
    k = 1
    while Fraction(1, 10 ** k) > radius:
        k += 1
    den = centre.denominator
    for p in (2, 5):
        while den % p == 0:
            den //= p
    if radius == Fraction(1, 10 ** k) and den == 1:
        digits = k
        while (centre * 10 ** digits).denominator != 1:
            digits += 1
        return f"{_decimal_oracle(int(centre * 10 ** digits), digits)}~{k}"
    k = 1
    while Fraction(1, 10 ** (k + 1)) >= 2 * radius and k < 390:
        k += 1
    scaled = round(centre * 10 ** k)
    if not (Fraction(scaled - 1, 10 ** k) <= x.lo
            and x.hi <= Fraction(scaled + 1, 10 ** k)):
        raise ValueError(f"no literal at radius 1/10 contains "
                         f"{x.describe()}")
    return f"{_decimal_oracle(scaled, k)}~{k}"


def _decimal_oracle(scaled: int, k: int) -> str:
    """scaled / 10**k with k fractional digits."""
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(k + 1, "0")
    return f"{sign}{digits[:-k]}.{digits[-k:]}"


# -- block walkers ---------------------------------------------------------

class SpectrumPoint(NamedTuple):
    """One unit-circle eigenvalue exp(i*pi*t) of a block, t in [0, 2),
    with its splitting numbers and complex kernel dimension nu."""
    t: CertifiedReal
    s_plus: int
    s_minus: int
    nu: int


def _point(block, a: int, b: int):
    """The table's point a + b*t: a, the block's angle t as given, or
    a - t in CertifiedReal arithmetic."""
    if b == 0:
        return CertifiedReal.rational(a)
    return block.t if b > 0 else CertifiedReal.rational(a) - block.t


def spectrum_rows(blocks):
    """All unit-circle spectrum rows of a diamond sum, duplicates kept."""
    return [SpectrumPoint(_point(blk, a, b), s_plus, s_minus, 1)
            for blk in blocks for a, b, s_plus, s_minus in _table(blk)]


def s_plus_at_one(blocks) -> int:
    """S+ of the diamond sum at the eigenvalue 1."""
    return sum(row.s_plus for row in spectrum_rows(blocks)
               if row.t.exact and row.t.lo == 0)


def weighted_angles(blocks):
    """The angles t in (0,2) carrying S- > 0, with their weights."""
    return [(row.t, row.s_minus) for row in spectrum_rows(blocks)
            if row.s_minus > 0 and not (row.t.exact and row.t.lo == 0)]


def angle_list(blocks):
    """The weighted angles, each repeated by its weight, in block order."""
    return [t for t, w in weighted_angles(blocks) for _ in range(w)]


def slope_oracle(germ) -> int:
    """beta = i1 + S+ - C, the growth of i(m) without the angle terms."""
    return germ.i1 + s_plus_at_one(germ.blocks) - big_C(germ.blocks)


def bumpy_oracle(germ) -> bool:
    """No shear block, and every rotation angle declared irrational."""
    return not any(isinstance(b, N1) or (isinstance(b, (R, N2))
                                         and not b.t.irrational)
                   for b in germ.blocks)


def mean_shift(block):
    """The block's S- weighted angle total sum_t t * S-(t), t in (0, 2),
    with an N2 pair cancelling to 2 whatever the angle."""
    if isinstance(block, N2):
        return CertifiedReal.rational(2 if block.nontrivial else 0)
    total = CertifiedReal.rational(0)
    for row in spectrum_rows([block]):
        if row.s_minus and not (row.t.exact and row.t.lo == 0):
            total = total + row.t * row.s_minus
    return total


def mean_oracle(germ):
    """i1 + S+ - C plus every block's mean shift, summed as CertifiedReal."""
    total = CertifiedReal.rational(slope_oracle(germ))
    for b in germ.blocks:
        total = total + mean_shift(b)
    return total


def spectrum_lcm(blocks) -> int:
    """Least M making every rational spectrum angle integral."""
    M = 1
    for row in spectrum_rows(blocks):
        if row.t.exact and row.t.lo != 0:
            M = lcm(M, row.t.lo.denominator)
    return M


def horizon_oracle(germ, target: int) -> int:
    """ceil((target + S+ + C) / mean), at least 1, by CertifiedReal
    division; Unbounded unless the mean is certified positive,
    PrecisionInsufficient where it has an end at 0 (1/mean unbounded),
    and ValueError where (target + S+ + C)/mean is too wide to be a
    value, each with the growth horizon's message."""
    mean = mean_oracle(germ)
    if not mean.gt(0):
        raise Unbounded(f"germ {germ.name!r} has nonpositive mean index")
    if mean.lo == 0:
        raise PrecisionInsufficient(f"mean index of {germ.name!r} has an end "
                                    f"at 0: 1/mean is unbounded")
    shift = s_plus_at_one(germ.blocks) + big_C(germ.blocks)
    try:
        ratio = CertifiedReal.rational(target + shift) / mean
    except ValueError:  # the only failure left: the quotient is too wide
        raise ValueError(f"1/mean of {germ.name!r} is "
                         f"[{float(1 / mean.hi)!r}, {float(1 / mean.lo)!r}], "
                         f"too wide for a growth horizon") from None
    return max(1, ceil_oracle(ratio))


def vertex_oracle(sizes, alphas, M: int, names):
    """v = (1/(M*|D_i|) ..., alpha_ij/|D_i| ...) by CertifiedReal division,
    sizes the |D_i| of the curves names; a ValueError that names the
    curve where 1/(M*|D_i|) or 1/|D_i| is too wide to be a value."""
    def inverse(x, size, name):
        try:
            return CertifiedReal.rational(1) / x
        except ValueError:  # 1/x is formed first, then multiplied by 1
            raise ValueError(
                f"1/|mean| of {name!r} is [{float(1 / size.hi)!r}, "
                f"{float(1 / size.lo)!r}], too wide for vertex coordinates"
            ) from None

    v = [inverse(M * m, m, name) for m, name in zip(sizes, names)]
    for m, curve_alphas, name in zip(sizes, alphas, names):
        for a in curve_alphas:
            if a.eq_certified(m) is True:
                v.append(CertifiedReal.rational(1))
            else:
                v.append(a * inverse(m, m, name))  # a/m as division forms it
    return v


def problem_oracle(germs, delta, eps=None):
    """``build_problem`` in CertifiedReal arithmetic: (rho, M, epsilon, v)
    with rho the signs of the means, raising the exceptions
    ``build_problem`` raises, with its messages, in its order."""
    delta = Fraction(delta)
    if not 0 < delta < Fraction(1, 2):
        raise ValueError("delta must lie in (0, 1/2)")
    rho, sizes = [], []
    for germ in germs:
        mean = mean_oracle(germ)
        try:
            sign = mean.sign_vs(0)
        except PrecisionInsufficient as exc:
            raise ZeroMeanIndex(
                f"mean index of {germ.name!r} straddles 0: {exc}") from None
        if sign == 0:
            raise ZeroMeanIndex(f"germ {germ.name!r} has mean index 0")
        if 0 in (mean.lo, mean.hi):
            raise ZeroMeanIndex(f"mean index of {germ.name!r} has an end at "
                                f"0: 1/mean is unbounded")
        rho.append(sign)
        sizes.append(mean if sign > 0 else -mean)
    M = lcm(*(spectrum_lcm(g.blocks) for g in germs))
    alphas = [angle_list(g.blocks) for g in germs]
    mu_max = max(map(len, alphas))
    if delta * mu_max >= Fraction(1, 2):
        raise ValueError(
            f"delta too large: delta*max(mu) = {delta * mu_max} >= 1/2")
    if eps is None:
        scale = Fraction(1)
        for size in sizes:
            cand = M * size
            if cand.gt(scale):
                scale = Fraction(ceil_oracle(cand))
        eps = delta / (2 * scale)
    eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 2):
        raise ValueError("epsilon must lie in (0, 1/2)")
    return (tuple(rho), M, eps,
            vertex_oracle(sizes, alphas, M, [g.name for g in germs]))


# -- iterated index --------------------------------------------------------


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
    width must stay below 1) and ``ceil_oracle`` cannot be asked.  Such an
    interval [L, H] holds an integer strictly inside unless H = L + 1
    with L an integer, and only a value declared irrational then avoids
    both endpoints: its ceiling is H.  Everything else is undecided.
    """
    half = Fraction(m, 2)
    if (t.hi - t.lo) * half < 1:
        return ceil_oracle(t * half)
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
            side = near_vertex_oracle(vj * N, problem.epsilon)
        except (PrecisionInsufficient, ValueError):
            return None
        if side is None:
            return None
        chi.append(side)
    return accept_oracle(problem, N, chi, m_bar)


def accept_oracle(problem, N: int, chi, m_bar: int):
    """The certificate at N with vertex sides chi, or None, by oracle
    code alone: m_i = (floor_oracle(N*v_i) + chi_i)*M, each Delta_i by
    ``delta_count_oracle`` (None rejects at once), accepted where every
    m_i >= 1, 2m_i > m_bar and every clause of ``verify_rounding_oracle``
    and then of ``verify_jump_oracle`` passes, read up to the first that
    fails."""
    m = [(floor_oracle(vj * N) + side) * problem.M
         for vj, side in zip(problem.v, chi[:len(problem.curves)])]
    if any(m_i < 1 or 2 * m_i <= m_bar for m_i in m):
        return None
    Delta = []
    for curve, m_i in zip(problem.curves, m):
        count = delta_count_oracle(curve, m_i, problem.delta)
        if count is None:
            return None
        Delta.append(count)
    cert = JumpCertificate(
        N=N, m=tuple(m), chi=tuple(chi), Delta=tuple(Delta),
        rho=tuple(c.rho for c in problem.curves), delta=problem.delta,
        epsilon=problem.epsilon, M=problem.M, M0=problem.M0,
        names=tuple(c.germ.name for c in problem.curves))
    if (all(ok for _, ok, _ in verify_rounding_oracle(problem, cert))
            and all(ok for _, ok, _ in verify_jump_oracle(problem, cert,
                                                          m_bar))):
        return cert
    return None


def search_oracle(problem, n_min: int, n_max: int, m_bar: int):
    """The every-N scan: each multiple of M0 in [n_min, n_max] in
    increasing order, the coordinates of N*v placed in index order by
    ``near_vertex_oracle``.  An N is passed over at its first far or
    undecided side; NotFound is raised at the first N*v_j too wide to be
    a value, with that N as its ``at``; the first candidate
    ``accept_oracle`` accepts is returned."""
    if n_min > n_max:
        raise ValueError("empty search range")
    v, M0 = problem.v, problem.M0
    for N in range(-(-max(n_min, 1) // M0) * M0, n_max + 1, M0):
        chi = []
        for vj in v:
            try:
                side = near_vertex_oracle(vj * N, problem.epsilon)
            except PrecisionInsufficient:
                break
            except ValueError:  # N*v_j is too wide
                stop = NotFound(n_max)
                stop.at = N
                raise stop from None
            if side is None:
                break
            chi.append(side)
        else:
            cert = accept_oracle(problem, N, chi, m_bar)
            if cert is not None:
                return cert
    raise NotFound(n_max)


def near_vertex_oracle(x, eps):
    """0 if {x} < eps, 1 if 1 - {x} < eps, None if certified far from
    both; PrecisionInsufficient where a comparison is unresolved."""
    eps = Fraction(eps)
    if not 0 < eps <= Fraction(1, 2):
        raise ValueError("eps must lie in (0, 1/2]")
    f = x - floor_oracle(x)
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
    for a in angle_list(curve.germ.blocks):
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
    """The clauses of ``verify_rounding`` as (name, ok, witness), in its
    order: (R1)-(R3), the Delta recount and vertex closeness, every
    product formed as a CertifiedReal."""
    clauses = []
    for i, curve in enumerate(problem.curves):
        m_i, germ = cert.m[i], curve.germ
        name, alphas = germ.name, angle_list(germ.blocks)
        lhs = m_i * slope_oracle(germ)
        for a in alphas:
            lhs += ceil_oracle(a * m_i)
        rhs = curve.rho * cert.N + cert.Delta[i]
        clauses.append(("rounding-sum", lhs == rhs,
                        {"curve": name, "lhs": lhs, "rhs": rhs}))
        for j, a in enumerate(alphas):
            if a.exact:
                clauses.append((
                    "rational-integrality", (a.lo * m_i).denominator == 1,
                    {"curve": name, "alpha": str(a.lo), "m": m_i}))
                continue
            clauses.append((
                "angle-closeness",
                side_oracle(a, m_i, problem.delta) is not None,
                {"curve": name, "alpha_index": j}))
        recount = delta_count_oracle(curve, m_i, problem.delta)
        clauses.append((
            "delta-count", recount == cert.Delta[i],
            {"curve": name, "recount": recount, "Delta": cert.Delta[i]}))
    for j, vj in enumerate(problem.v):
        try:
            side = near_vertex_oracle(vj * cert.N, problem.epsilon)
        except PrecisionInsufficient:
            side = None
        clauses.append(("vertex-closeness", side == cert.chi[j],
                        {"coordinate": j}))
    return clauses


# -- jump identities -------------------------------------------------------

def _closes(t, k: int) -> bool:
    """Whether the k-th iterate closes up the spectrum point
    exp(i*pi*t) of an exact angle: k*t/2 is an integer."""
    return (Fraction(k, 2) * t.lo).denominator == 1


def verify_jump_oracle(problem, cert, m_bar: int):
    """The clauses of ``verify_jump`` as (name, ok, witness), in its
    order and one at a time, from the identities of the ``jump``
    docstring: (J=) at the top iterate 2m_i, then (J+), (J-) and (J0)
    for each 1 <= m <= m_bar, every index by ``index_oracle`` and every
    nullity by ``nullity_oracle``.  Q_i(m) weighs the exact angles whose
    spectrum point both 2m_i and m close up.  A curve with 2m_i <= m_bar
    leaves no room below the top iterate and yields only a failing
    "horizon-room" clause."""
    for i, curve in enumerate(problem.curves):
        germ, m_i = curve.germ, cert.m[i]
        name = germ.name
        if 2 * m_i <= m_bar:
            yield "horizon-room", False, {"curve": name, "m": m_bar,
                                          "m_i": m_i}
            continue
        s_plus, c = s_plus_at_one(germ.blocks), big_C(germ.blocks)
        two_n = 2 * (1 if mean_oracle(germ).gt(0) else -1) * cert.N
        top = index_oracle(germ, 2 * m_i)
        want = two_n - (s_plus + c - 2 * cert.Delta[i])
        yield "jump-top", top == want, {"curve": name, "m": 0, "got": top,
                                        "want": want}
        for m in range(1, m_bar + 1):
            base = index_oracle(germ, m)
            up, want = index_oracle(germ, 2 * m_i + m), two_n + base
            yield "jump-up", up == want, {"curve": name, "m": m, "got": up,
                                          "want": want}
            q = sum(w for t, w in weighted_angles(germ.blocks)
                    if t.exact and _closes(t, 2 * m_i) and _closes(t, m))
            down = index_oracle(germ, 2 * m_i - m)
            want = two_n - base - 2 * (s_plus + q)
            yield "jump-down", down == want, {"curve": name, "m": m,
                                              "got": down, "want": want}
            nu = nullity_oracle(germ, m)
            same = (nullity_oracle(germ, 2 * m_i + m) == nu
                    and nullity_oracle(germ, 2 * m_i - m) == nu)
            yield "jump-nullity", same, {"curve": name, "m": m, "nu": nu}


# -- iteration horizon -----------------------------------------------------

def germ_mbar_oracle(germ) -> int:
    """Least m0 with i(m + m0) >= i(1) + 4 for every m >= 1, trying each
    m0 in turn against every iterate up to the growth horizon."""
    target = germ.i1 + 4
    horizon = horizon_oracle(germ, target)
    for m0 in range(1, horizon + 1):
        if all(index_oracle(germ, m + m0) >= target
               for m in range(1, max(1, horizon - m0) + 1)):
            return m0
    return horizon + 1
