"""Certified real arithmetic for integer-valued rounding queries.

Everything downstream (iteration formulas, jump searches, Morse counts)
bottoms out in four queries on a real number ``a``:

    floor_int(a)   largest integer <= a
    ceil_int(a)    smallest integer >= a
    phi(a)         ceil - floor, i.e. 0 iff a is an integer, else 1
    frac_part(a)   a - floor(a), in [0, 1)

None of these may ever be answered from unverified floating point: a
wrong floor silently corrupts an index value and everything built on it.
A ``CertifiedReal`` is an interval ``[lo, hi]`` of ``Fraction`` ends
with an ``irrational`` flag, and nothing else: it is exact exactly when
it is a point, ``lo == hi``, so a zero-width value is the rational it
names, however it was built, and a declared-irrational value has width.

Rationality is declared by construction, never inferred numerically: a
value parsed from "p/q" is rational, a value parsed from "0.414213~6" is
an interval, and only an explicit flag marks it irrational.  The flag is
what makes boundary cases decidable: if an interval's endpoint is the
integer 3 but the enclosed value is declared irrational, the value is
certainly not 3 and the floor is still determined.

Two declared-irrational values with the same ends denote the *same*
unknown real; distinct overlapping values can never be certified equal.

The type is frozen, so ``CertifiedReal.rational`` returns one shared
instance per value, from a bounded cache: every ``D(2)`` block holds it.

When an interval genuinely straddles an integer and the flag does not
resolve it, the queries raise ``PrecisionInsufficient``.  There is no
hidden refinement: inputs carry a fixed number of correct digits, and
callers that own a finer source re-supply the value with more digits,
up to the active ``PrecisionBudget``.

The queries are answered on integer rows (lo, hi, d, irrational), a
point iff lo == hi: ``_row`` writes a value over one common denominator,
``_times`` multiplies a row by an integer, and ``_floor`` and ``_ceil``
round a row; ``floor_int`` and ``ceil_int`` round the value's own row,
and ``is_integer``, so ``phi``, asks whether the two agree.
``_placement`` compiles once per row and tolerance where m*x sits
against the integers and eps, for every multiplier m; ``near_vertex`` is
it at m = 1.  One rule holds throughout: a declared-irrational value
equals neither end of its interval, so an end on an integer, on eps or
on any rational it is compared with is excluded.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import Callable, Optional, Tuple, Union


class PrecisionInsufficient(ArithmeticError):
    """An integer-valued query could not be certified at the current width."""


@dataclass(frozen=True)
class PrecisionBudget:
    """Digit budget for parsing and derived constants (square roots etc.)."""

    max_digits: int = 200

    def __post_init__(self):
        if self.max_digits < 1:
            raise ValueError("precision budget must be positive")


def default_budget() -> PrecisionBudget:
    """The built-in budget."""
    return PrecisionBudget()


Rationalish = Union[int, Fraction]

# sign, whole digits, fractional digits, and k of "-12.345~k"; ASCII
# digits only, as int() would also read any other script's digits
_DECIMAL = re.compile(r"(-?)(\d+)(?:\.(\d+))?(?:~(\d+))?", re.ASCII)
_RATIO = re.compile(r"(-?\d+)/(\d+)", re.ASCII)


def _digits(m: re.Match) -> int:
    """The digits a "digits~k" literal m of _DECIMAL is read at: the
    most of k and its fractional digits."""
    return max(len(m[3] or ""), int(m[4]))


def _scaled(m: re.Match, K: int) -> int:
    """The decimal m of _DECIMAL times 10**K, for K >= its fractional
    digits."""
    frac = m[3] or ""
    c = (int(m[2]) * 10 ** len(frac) + int(frac or 0)) * 10 ** (K - len(frac))
    return -c if m[1] else c


@dataclass(frozen=True, slots=True)
class CertifiedReal:
    """An exact rational or a decimal interval with declared (ir)rationality.

    A value is its ends and its flag.  Invariants: lo <= hi; interval
    width stays below 1 so integer straddles are detectable; irrational
    values have positive width.  ``exact`` is worked out from the ends,
    lo == hi, and stored once, as the queries read it on every call.
    """

    lo: Fraction
    hi: Fraction
    irrational: bool = field(default=False, kw_only=True)
    exact: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        # hi - lo = width / (lo.denominator * hi.denominator)
        width = hi.numerator * lo.denominator - lo.numerator * hi.denominator
        if width < 0:
            raise ValueError("empty interval")
        if width >= lo.denominator * hi.denominator:
            raise ValueError("interval radius must stay below 1/2")
        if not width and self.irrational:
            raise ValueError("an irrational value cannot be a point")
        object.__setattr__(self, "exact", not width)

    def __hash__(self) -> int:
        # equal ends have equal lowest terms; hashing those skips the
        # modular inverse of Fraction.__hash__
        lo, hi = self.lo, self.hi
        return hash((lo.numerator, lo.denominator, hi.numerator,
                     hi.denominator, self.irrational))

    # -- constructors -------------------------------------------------

    @staticmethod
    def rational(p: Rationalish, q: int = 1) -> "CertifiedReal":
        f = Fraction(p, q) if q != 1 else Fraction(p)
        return _exact(f.numerator, f.denominator)

    @staticmethod
    def decimal(digits: str, radius: Rationalish,
                irrational: bool = False) -> "CertifiedReal":
        # the constructor refuses a negative radius (an empty interval)
        # and a zero one if irrational (an irrational point)
        center = Fraction(digits)
        rad = Fraction(radius)
        return CertifiedReal(center - rad, center + rad,
                             irrational=irrational)

    @staticmethod
    def interval(lo: Fraction, hi: Fraction,
                 irrational: bool = False) -> "CertifiedReal":
        return CertifiedReal(lo, hi, irrational=irrational)

    @staticmethod
    def parse(text: str, irrational: bool = False,
              budget: Optional[PrecisionBudget] = None) -> "CertifiedReal":
        """Parse "p/q", "-3", "0.125", or "0.5857864376~10".

        A "~k" suffix says the first k fractional digits are correct,
        i.e. radius 10**-k.  Without it the literal is exact (and must
        not be flagged irrational).
        """
        budget = budget or default_budget()
        text = text.strip()
        m = _DECIMAL.fullmatch(text)
        if m and m[4] is not None:
            K = _digits(m)
            if K > budget.max_digits:
                raise ValueError(
                    f"literal carries more digits than the budget "
                    f"({budget.max_digits}) allows: {text!r}")
            # center c/10**K, radius r/10**K
            c, r = _scaled(m, K), 10 ** (K - int(m[4]))
            return CertifiedReal(Fraction(c - r, 10 ** K),
                                 Fraction(c + r, 10 ** K),
                                 irrational=irrational)
        if irrational:
            raise ValueError(
                f"irrational values need an explicit precision, e.g. "
                f"'0.4142~4': got {text!r}")
        if m:
            K = len(m[3] or "")
            return CertifiedReal.rational(_scaled(m, K), 10 ** K)
        m = _RATIO.fullmatch(text)
        if m:
            if int(m[2]) == 0:
                raise ValueError(f"zero denominator in number literal: "
                                 f"{text!r}")
            return CertifiedReal.rational(int(m[1]), int(m[2]))
        raise ValueError(f"unparseable number literal: {text!r}")

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "CertifiedReal":
        if isinstance(other, CertifiedReal):
            return other
        if isinstance(other, (int, Fraction)):
            return CertifiedReal.rational(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        exact = self.exact and o.exact
        irr = (self.irrational and o.exact) or (o.irrational and self.exact)
        return CertifiedReal.interval(self.lo + o.lo, self.hi + o.hi, irr) \
            if not exact else CertifiedReal.rational(self.lo + o.lo)

    __radd__ = __add__

    def __neg__(self):
        if self.exact:
            return CertifiedReal.rational(-self.lo)
        return CertifiedReal.interval(-self.hi, -self.lo, self.irrational)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.exact and o.exact:
            return CertifiedReal.rational(self.lo * o.lo)
        if self.exact or o.exact:
            scalar, iv = (self.lo, o) if self.exact else (o.lo, self)
            if scalar == 0:
                return CertifiedReal.rational(0)
            a, b = scalar * iv.lo, scalar * iv.hi
            if scalar < 0:
                a, b = b, a
            return CertifiedReal.interval(a, b, iv.irrational)
        products = [self.lo * o.lo, self.lo * o.hi,
                    self.hi * o.lo, self.hi * o.hi]
        # irrational * irrational can be rational; no flag survives
        return CertifiedReal.interval(min(products), max(products), False)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.lo <= 0 <= o.hi:
            if o.irrational and 0 in (o.lo, o.hi):  # nonzero, 1/o unbounded
                raise ValueError(f"reciprocal of {o.describe()} is unbounded")
            raise ZeroDivisionError("divisor interval touches zero")
        return self * CertifiedReal(1 / o.hi, 1 / o.lo,
                                    irrational=o.irrational)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    # -- certified queries ---------------------------------------------

    def is_integer(self) -> bool:
        """Certified integrality: floor == ceil, with both certified.
        A declared-irrational value is never an integer."""
        if self.irrational:
            return False
        x = _row(self)
        return _floor(x) == _ceil(x)

    def sign_vs(self, r: Rationalish) -> int:
        """Certified comparison against a rational: -1, 0, or +1.

        A declared-irrational value is never r, so an end at r decides.
        """
        if not isinstance(r, (int, Fraction)):
            r = Fraction(r)
        return _sign((self.lo, self.hi, 1, self.irrational), r)

    def lt(self, r: Rationalish) -> bool:
        return self.sign_vs(r) < 0

    def gt(self, r: Rationalish) -> bool:
        return self.sign_vs(r) > 0

    def eq_certified(self, other: "CertifiedReal") -> Optional[bool]:
        """True/False when equality is certified, None when unresolved."""
        if self.exact and other.exact:
            return self.lo == other.lo
        if self.hi < other.lo or other.hi < self.lo:
            return False
        if self.irrational != other.irrational and (self.exact or other.exact):
            return False  # exact rational vs declared-irrational
        if self.irrational and other.irrational and self == other:
            return True  # same ends and flag: the same declared real
        return None

    def describe(self) -> str:
        if self.exact:
            return str(self.lo)
        tag = "~irr" if self.irrational else "~"
        return f"[{float(self.lo)!r}, {float(self.hi)!r}]{tag}"


@lru_cache(maxsize=4096)
def _exact(n: int, d: int) -> CertifiedReal:
    """The exact n/d, n/d in lowest terms, shared by every caller."""
    f = Fraction(n, d)
    return CertifiedReal(f, f)


def floor_int(x: CertifiedReal) -> int:
    """Certified floor: the largest integer <= x."""
    return _floor(_row(x))


def ceil_int(x: CertifiedReal) -> int:
    """Certified ceiling: the smallest integer >= x."""
    return _ceil(_row(x))


def phi(x: CertifiedReal) -> int:
    """ceil(x) - floor(x): 0 exactly for certified integers, else 1."""
    return 0 if x.is_integer() else 1


def frac_part(x: CertifiedReal) -> CertifiedReal:
    """x - floor(x), exact for rationals, an interval otherwise."""
    f = floor_int(x)
    return x - f


def near_vertex(x: CertifiedReal, eps: Rationalish) -> Optional[int]:
    """Which end of [0, 1) the fractional part of x is near.

    Returns 0 if {x} < eps is certified, 1 if 1 - {x} < eps, and None
    if the fractional part is certified to sit away from both ends.
    Raises PrecisionInsufficient when the comparison cannot be settled.
    """
    return _placement(_row(x), Fraction(eps))(1)


def sqrt_interval(n: int, digits: int = 80) -> CertifiedReal:
    """Certified square root of a non-negative integer.

    Perfect squares come back exact; anything else is a decimal interval
    flagged irrational (integer square roots are rational only for
    perfect squares).
    """
    if n < 0:
        raise ValueError("negative radicand")
    r = isqrt(n)
    if r * r == n:
        return CertifiedReal.rational(r)
    scale = 10 ** digits
    s = isqrt(n * scale * scale)
    return CertifiedReal.interval(Fraction(s, scale), Fraction(s + 1, scale),
                                  irrational=True)


def sqrt_of_fraction(f: Fraction, digits: int = 80) -> CertifiedReal:
    """Certified square root of a non-negative rational."""
    if f < 0:
        raise ValueError("negative radicand")
    if f == 0:
        return CertifiedReal.rational(0)
    num = sqrt_interval(f.numerator * f.denominator, digits)
    return num * Fraction(1, f.denominator)


# -- integer rows ---------------------------------------------------------

# [lo, hi] as (lo*d, hi*d, d, irrational), a point iff lo == hi, as a
# CertifiedReal is exact iff its ends agree; ``_row`` takes for d the
# least common denominator of the ends
_Row = Tuple[int, int, int, bool]


def _row(x: CertifiedReal) -> _Row:
    lo, hi = x.lo, x.hi
    d = lcm(lo.denominator, hi.denominator)
    return (lo.numerator * (d // lo.denominator),
            hi.numerator * (d // hi.denominator), d, x.irrational)


def _times(row: _Row, m: int) -> _Row:
    """m*x as the row [lo/d, hi/d] of the CertifiedReal product, and a
    ValueError where that one raises it.  An irrational value is no
    endpoint."""
    lo, hi, d, irrational = row
    lo, hi = (m * lo, m * hi) if m >= 0 else (m * hi, m * lo)
    if hi - lo >= d:
        raise ValueError("interval radius must stay below 1/2")
    return lo, hi, d, irrational and lo != hi


def _lowest(lo: int, hi: int, d: int, irrational: bool) -> _Row:
    """[lo/d, hi/d] over its least common denominator."""
    g = gcd(lo, hi, d)
    return lo // g, hi // g, d // g, irrational


def _sign(x: _Row, r: Rationalish) -> int:
    """Certified sign of [lo/d, hi/d] - r, x = (lo, hi, d, irrational)."""
    lo, hi, d, irrational = x
    rd = r * d
    if hi < rd or (irrational and hi == rd):
        return -1
    if lo > rd or (irrational and lo == rd):
        return 1
    if lo == hi:
        return 0
    raise PrecisionInsufficient(
        f"cannot compare [{float(lo / d)!r}, {float(hi / d)!r}]"
        f"{'~irr' if irrational else '~'} with {r}")


def _floor(x: _Row) -> int:
    lo, hi, d, irrational = x
    fl = lo // d
    if (hi - irrational) // d != fl:
        raise PrecisionInsufficient(f"floor of [{lo}/{d}, {hi}/{d}] "
                                    f"undecided")
    return fl


def _ceil(x: _Row) -> int:
    lo, hi, d, irrational = x
    c = -(-hi // d)
    if -(-(lo + irrational) // d) != c:
        raise PrecisionInsufficient(f"ceiling of [{lo}/{d}, {hi}/{d}] "
                                    f"undecided")
    return c


def _placement(row: _Row, eps: Fraction) -> Callable[[int], Optional[int]]:
    """Compile where m*x sits against the integers and eps, x = row.

    The returned place(m) is ``near_vertex(m*x, eps)``: 0 if
    {m*x} < eps, 1 if 1 - {m*x} < eps, None if {m*x} is certified away
    from both ends, PrecisionInsufficient where the floor (as ``_floor``
    decides it) or a comparison is undecided, and ValueError where
    ``_times`` raises it.  The jump search calls it for every N, so the
    product is formed here and not through ``_times``, and the common
    answer, far from both ends, is tested first.  A point row, L == H,
    is placed by one remainder, {m*x} = f/d: its floor is decided and
    its width 0, so it never raises.
    """
    L, H, d, irrational = row
    a, b = eps.numerator, eps.denominator
    if not 0 < 2 * a <= b:
        raise ValueError("eps must lie in (0, 1/2]")
    a *= d  # an end e/d of {m*x} is below eps iff e*b < a
    if L == H:
        def place(m: int) -> Optional[int]:
            f = m * L % d
            return 0 if f * b < a else 1 if (d - f) * b < a else None

        return place
    # A declared-irrational m*x is none of its ends, so an end at eps or
    # at an integer decides (at m = 0 the product is exact 0, and this
    # still gives its side 0).
    near, top, far = a + irrational, d + irrational, a - irrational

    def place(m: int) -> Optional[int]:
        if m >= 0:
            lo, hi = m * L, m * H
        else:
            lo, hi = m * H, m * L
        f = lo % d
        hi += f - lo  # {m*x} in [f/d, hi/d] if the floor is decided
        if f * b > far and (d - hi) * b > far:
            return None
        if hi < top:  # the floor is decided
            if hi * b < near:
                return 0
            if (d - f) * b < near:
                return 1
        if hi - f >= d:
            raise ValueError("interval radius must stay below 1/2")
        raise PrecisionInsufficient(f"fractional part of {m}*x in "
                                    f"[{f}/{d}, {hi}/{d}] undecided against "
                                    f"{eps}")

    return place
