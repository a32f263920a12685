"""Index iteration for symplectic path germs.

A germ is the data an index computation actually consumes: the initial
index i(1) of the path plus the block decomposition of its end matrix.
With S+ the splitting number at 1, C the sum of S- over the punctured
circle, and the sum running over the S- weighted angles t = theta/pi,
the m-th iterate index and the mean index are

    i(m)  = m*(i1 + S+ - C) + 2 * sum_t ceil(m*t/2) * S-(t) - (S+ + C)
    mean  = i1 + S+ - C + sum_t t * S-(t)

Every ceiling is certified, so i(m) is an exact integer even when the
angles are irrational.  The deviation of i(m) from m*mean is trapped in
[-(S+ + C), C - S+], attained at the left end and strict on the right
whenever C > 0; that bound is what turns the "for all m" conditions
below into finite checks.

Every per-germ number comes from one compile, a single pass over the
splitting table of the germ's blocks, into plain integers: the slope
i1 + S+ - C, the shift S+ + C, S+ and C; per weighted angle (2w, p, 2q)
for an exact angle p/q, or (2w, lo*d, hi*d, 2d, irrational) for an
interval angle [lo, hi] over a common denominator d; the nullity as
(period, weight) pairs, one per shear block or closing rational angle,
plus a flag for an undeclared decimal angle, whose nullity is never
certified; and M, the lcm of the denominators of the rational spectrum
points, S- = 0 points included.  It also keeps each weighted angle as its
integer row, once per unit of weight, which the jump problem reads as it
is (the exact rows are also the rational points the Q count of the jump
identities weighs), and the mean as a row, its ends summed over one
denominator (an N2 pair adds t + (2 - t) = 2); the conjugate 2 - t of an
angle row (L, H, d) is (2d - H, 2d - L, d).  ``mean_index`` turns the
mean row into a value; everything else reads the row.  A germ is bumpy
when it has no nullity period and no undeclared angle.

An exact ceiling is one integer division.  For an interval angle, with
L = m*lo/2 and H = m*hi/2, the only possible certified ceiling is
k = floor(L) + 1, the least integer above L.  It is certified when
H <= k and the value cannot be L itself.  A value declared irrational is
never an endpoint (the endpoint exclusion of ``exact.floor_int``); any
other value rules out L only when L is no integer, i.e. when
m*lo*d mod 2d != 0.  Everything else raises ``PrecisionInsufficient``,
exactly where the certified ceiling of ``exact`` is undecided.

``_index`` and ``_nullity`` are the point queries.  The jump identities
read runs of iterates, a ``range`` ascending or descending, through
their range form, ``_index_range`` and ``_nullity_range``: one term at
a time across the whole run (m*slope - shift, one pass per exact angle,
one per interval angle with its certification test; the nullity steps
each closing period).  Where the point query would raise, the entry is
None, and the caller that reaches it asks the point query, which raises
its own error; so verdicts and raises come in the order of a
point-by-point walk.  Every other walk (the horizon walks of
``germ_mbar`` and ``bott_positive``, the index window, the Morse
counts and ``IndexProfile.rows``) asks the point queries iterate by
iterate, which raise in point order and hold no run in memory; on the
horizon walks and the window a range pass costs more than it saves.

The compiled kernels and the results of ``mean_index`` and
``germ_mbar`` live in LRU caches of fixed size keyed by the germ, so a
long-lived process holds a bounded number of them; ``bott_positive``
keeps no cache, since a pipeline run asks it once per germ.  A germ
hashes its fields once, at construction: hashing every Fraction of every
block on each lookup would cost more than the evaluation itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .exact import (CertifiedReal, PrecisionInsufficient, _ceil, _lowest,
                    _Row, _row, _sign, _times)
from .normal_forms import BasicBlock, N1, N2, R, _table, total_dim

# Germs per cache: enough for every germ of a system under evaluation.
CACHE_SIZE = 128

# The farthest growth horizon walked (see _growth_horizon).
_HORIZON_MAX = 10 ** 6


class Unbounded(ValueError):
    """A horizon query was made for a germ whose index does not grow, or
    grows too slowly for a walk to reach its horizon."""


@dataclass(frozen=True, slots=True)
class IndexGerm:
    """Initial index plus end-matrix block decomposition of a path."""

    name: str
    i1: int
    blocks: Tuple[BasicBlock, ...]
    n: int = 3
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if total_dim(self.blocks) != 2 * self.n - 2:
            raise ValueError(
                f"germ {self.name!r}: blocks span dimension "
                f"{total_dim(self.blocks)}, expected {2 * self.n - 2}")
        object.__setattr__(self, "_hash", hash(
            (self.name, self.i1, self.blocks, self.n)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes: rebuild, never copy it
        return IndexGerm, (self.name, self.i1, self.blocks, self.n)


class _Kernel(NamedTuple):
    """A germ compiled to integers; the module docstring has the layout."""

    slope: int
    shift: int
    s_plus: int
    c: int
    exact: Tuple[Tuple[int, int, int], ...]
    interval: Tuple[Tuple[int, int, int, int, bool], ...]
    closing: Tuple[Tuple[int, int], ...]
    undeclared: bool
    rows: Tuple[_Row, ...]
    M: int
    mean: _Row


@lru_cache(maxsize=CACHE_SIZE)
def _kernel(germ: IndexGerm) -> _Kernel:
    s_plus = c = 0
    M = 1
    exact, interval, rows, closing = [], [], [], []
    undeclared = False
    lo, hi, den = 0, 0, 1  # the angle part of the mean, [lo/den, hi/den]
    wide = []              # irrational flags of the angles that widen it
    for b in germ.blocks:
        if isinstance(b, N1):
            closing.append((1 if b.eigenvalue == 1 else 2, 1))
        elif isinstance(b, (R, N2)):
            tl, th, td, t_exact, t_irrational = angle = _row(b.t)
            if t_exact:  # t = tl/td in lowest terms
                closing.append((2 * td // gcd(tl, 2 * td), 2))
            undeclared = undeclared or not (t_exact or t_irrational)
        for a, sign, sp, w in _table(b):  # the point a + sign*t
            if not (a or sign):  # the eigenvalue 1
                s_plus += sp
                continue
            row = ((a, a, 1, True, False) if not sign else angle if sign > 0
                   else (a * td - th, a * td - tl, td, t_exact or tl == th,
                         t_irrational))
            L, H, d, point, irrational = row
            c += w
            if point:
                M = lcm(M, d)
            if not w:
                continue
            rows += [row] * w
            if L == H:  # exact, or a zero-width interval: m*t/2 is exact
                exact.append((2 * w, L, 2 * d))
            else:
                interval.append((2 * w, L, H, 2 * d, irrational))
            if isinstance(b, N2):  # w*t + w*(2 - t) = 2w per pair
                lo, hi = lo + w * den, hi + w * den
            else:
                common = lcm(den, d)
                up, at = common // den, w * (common // d)
                lo, hi, den = lo * up + L * at, hi * up + H * at, common
                if L != H:
                    wide.append(irrational)
    slope = germ.i1 + s_plus - c
    mean = _lowest(slope * den + lo, slope * den + hi, den, not wide,
                   wide == [True])
    return _Kernel(slope, s_plus + c, s_plus, c, tuple(exact),
                   tuple(interval), tuple(closing), undeclared,
                   tuple(rows), M, mean)


def _index(k: _Kernel, m: int) -> int:
    if m < 1:
        raise ValueError("iterate must be positive")
    total = m * k.slope - k.shift
    for w2, p, q2 in k.exact:
        total -= w2 * (-m * p // q2)
    for w2, lo, hi, d2, irrational in k.interval:
        # exact._ceil((m*lo, m*hi, d2, irrational)) decides the same values
        # and raises, but the tuple and call cost the iterate benchmark
        # about 15% of its ops/s and 35% on its p90 (2-core x86 VM)
        low = m * lo
        ceil = low // d2 + 1
        if m * hi > ceil * d2 or not (irrational or low % d2):
            raise PrecisionInsufficient(
                f"ceiling of an interval angle undecided at iterate {m}")
        total += w2 * ceil
    return total


def _nullity(k: _Kernel, m: int) -> int:
    if m < 1:
        raise ValueError("iterate must be positive")
    if k.undeclared:
        raise PrecisionInsufficient("nullity of an undeclared decimal angle")
    return sum(w for period, w in k.closing if m % period == 0)


def _index_range(k: _Kernel, ms: range) -> List[Optional[int]]:
    """[i(m) for m in ms] over a run ms = range(a, b, +-1), None exactly
    where ``_index(k, m)`` raises.  One term at a time across the run:
    the slope, then one pass per exact angle, then one per interval
    angle with the certification test of ``_index``."""
    if not ms:
        return []
    slope, shift = k.slope, k.shift
    out = [m * slope - shift for m in ms]
    for w2, p, q2 in k.exact:
        out = [t - w2 * (-m * p // q2) for t, m in zip(out, ms)]
    for w2, lo, hi, d2, irrational in k.interval:
        for j, m in enumerate(ms):
            low = m * lo
            ceil = low // d2 + 1
            if m * hi > ceil * d2 or not (irrational or low % d2):
                out[j] = None
            elif out[j] is not None:
                out[j] += w2 * ceil
    if ms[0] < 1 or ms[-1] < 1:  # the point query rejects these
        return [None if m < 1 else t for t, m in zip(out, ms)]
    return out


def _nullity_range(k: _Kernel, ms: range) -> List[Optional[int]]:
    """[nu(m) for m in ms] over a run ms = range(a, b, +-1), None exactly
    where ``_nullity(k, m)`` raises: everywhere for an undeclared angle."""
    if k.undeclared:
        return [None] * len(ms)
    out = _period_sums(k.closing, ms)
    if ms and (ms[0] < 1 or ms[-1] < 1):
        return [None if m < 1 else t for t, m in zip(out, ms)]
    return out


def _period_sums(pairs: Sequence[Tuple[int, int]],
                 ms: range) -> List[int]:
    """[sum(w for period, w in pairs if m % period == 0) for m in ms]
    over a run ms = range(a, b, +-1), stepping each period."""
    out = [0] * len(ms)
    if out:
        # out[j] is for m = ms[0] + step*j: period | m iff period | j - m0
        m0 = ms[0] if ms.step < 0 else -ms[0]
        for period, w in pairs:
            for j in range(m0 % period, len(out), period):
                out[j] += w
    return out


def index_at(germ: IndexGerm, m: int) -> int:
    """Certified index of the m-th iterate."""
    return _index(_kernel(germ), m)


def nullity_at(germ: IndexGerm, m: int) -> int:
    """Certified nullity of the m-th iterate (spectral count)."""
    return _nullity(_kernel(germ), m)


@lru_cache(maxsize=CACHE_SIZE)
def mean_index(germ: IndexGerm) -> CertifiedReal:
    """Average index growth per iterate.

    Exact whenever it mathematically is: block-internal conjugate angle
    pairs cancel before any interval arithmetic happens.
    """
    L, H, d, exact, irrational = _kernel(germ).mean
    return CertifiedReal(Fraction(L, d), Fraction(H, d), exact, irrational)


def deviation_bounds(germ: IndexGerm) -> Tuple[int, int]:
    """(lower, upper) slack of i(m) around m*mean.

    i(m) - m*mean lies in [-lower, upper]; the upper end is strict
    whenever C > 0 and is attained exactly when C = 0.
    """
    k = _kernel(germ)
    return k.shift, k.c - k.s_plus


def gamma_invariant(i1: int, i2: int) -> Fraction:
    """Parity invariant in {+-1/2, +-1} from the first two indices.

    Positive iff i1 is even; magnitude 1 iff i2 - i1 is even.
    """
    mag = Fraction(1) if (i2 - i1) % 2 == 0 else Fraction(1, 2)
    return mag if i1 % 2 == 0 else -mag


def is_bumpy(germ: IndexGerm) -> bool:
    """No iterate is degenerate: no shear block, all angles irrational."""
    k = _kernel(germ)
    return not (k.closing or k.undeclared)


def _growth_horizon(germ: IndexGerm, target: int) -> int:
    """Smallest certified H with i(m) >= target for every m >= H.

    Unbounded where H exceeds _HORIZON_MAX, before any walk: walking to
    10**6 takes about a second of point queries, and a jump check at
    m_bar = H holds about 7*H run entries per curve, hundreds of
    megabytes.  Corpus, sample and benchmark germs stay within 10**4.
    """
    k = _kernel(germ)
    if _sign(_times(k.mean, 1), 0) <= 0:  # raising as mean_index(germ).gt(0)
        raise Unbounded(f"germ {germ.name!r} has nonpositive mean index")
    L, H, d, exact, irrational = k.mean
    if L == 0:  # declared irrational, so positive, but not bounded away
        raise PrecisionInsufficient(f"mean index of {germ.name!r} has an end "
                                    f"at 0: 1/mean is unbounded")
    # m >= n/mean suffices, n = target + S+ + C >= mean > 0 as target >= i1
    n = target + k.shift
    if n * d * (H - L) >= L * H:  # n/mean = [n*d/H, n*d/L]
        raise ValueError(f"1/mean of {germ.name!r} is [{d / H!r}, {d / L!r}]"
                         f", too wide for a growth horizon")
    horizon = max(1, _ceil(_times((d * L, d * H, L * H, exact, irrational),
                                  n)))
    if horizon > _HORIZON_MAX:
        raise Unbounded(f"growth horizon of {germ.name!r} is {horizon} "
                        f"iterates, beyond the {_HORIZON_MAX} a walk may take")
    return horizon


@lru_cache(maxsize=CACHE_SIZE)
def germ_mbar(germ: IndexGerm) -> int:
    """Least m0 with i(m + m0) >= i(1) + 4 for every m >= 1.

    That is the last j >= 2 with i(j) < i(1) + 4, or 1 if there is none.
    Every j at or beyond the certified growth horizon clears the target,
    so one walk down from the horizon finds it.
    """
    target = germ.i1 + 4
    horizon = _growth_horizon(germ, target)
    k = _kernel(germ)
    return next((j for j in range(horizon, 1, -1) if _index(k, j) < target),
                1)


def mbar(germs: Sequence[IndexGerm]) -> int:
    """System-wide iteration horizon: the max of the per-germ values."""
    if not germs:
        raise ValueError("empty system")
    return max(germ_mbar(g) for g in germs)


def bott_positive(germ: IndexGerm) -> bool:
    """Certified i(m) >= i(1) for all m >= 1 (finite check + growth bound).

    Requires certified positive mean growth; a germ whose index drifts
    down, or whose drift cannot be sign-certified, is reported False.
    A growth horizon too far to walk raises Unbounded.
    """
    k = _kernel(germ)
    try:
        if _sign(_times(k.mean, 1), 0) <= 0:
            return False
    except PrecisionInsufficient:
        return False
    horizon = _growth_horizon(germ, germ.i1)
    return all(_index(k, m) >= germ.i1 for m in range(1, horizon + 1))


class IndexProfile:
    """(index, nullity) table over a range of iterates.

    The profile holds its germ's compiled kernel for its own lifetime,
    so a table of any length costs one cache lookup; no entry is stored.
    """

    def __init__(self, germ: IndexGerm, m_max: int):
        if m_max < 1:
            raise ValueError("m_max must be positive")
        self.germ = germ
        self.m_max = m_max
        self._kernel = _kernel(germ)

    def entry(self, m: int) -> Tuple[int, int]:
        if not 1 <= m <= self.m_max:
            raise ValueError(f"iterate {m} outside profile range")
        return _index(self._kernel, m), _nullity(self._kernel, m)

    def index(self, m: int) -> int:
        return self.entry(m)[0]

    def nullity(self, m: int) -> int:
        return self.entry(m)[1]

    def rows(self) -> List[Tuple[int, int, int]]:
        k = self._kernel
        return [(m, _index(k, m), _nullity(k, m))
                for m in range(1, self.m_max + 1)]
