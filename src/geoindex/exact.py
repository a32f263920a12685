"""Certified real arithmetic for integer-valued rounding queries.

Everything downstream (iteration formulas, jump searches, Morse counts)
bottoms out in four queries on a real number ``a``:

    floor_int(a)   largest integer <= a
    ceil_int(a)    smallest integer >= a
    phi(a)         ceil - floor, i.e. 0 iff a is an integer, else 1
    frac_part(a)   a - floor(a), in [0, 1)

None of these may ever be answered from unverified floating point: a
wrong floor silently corrupts an index value and everything built on it.
A ``CertifiedReal`` is therefore either

  * an exact rational (a ``Fraction``), or
  * a decimal interval ``[lo, hi]`` enclosing an unknown real, together
    with a ``declared_irrational`` flag.

Rationality is declared by construction, never inferred numerically: a
value parsed from "p/q" is rational, a value parsed from "0.414213~6" is
an interval, and only an explicit flag marks it irrational.  The flag is
what makes boundary cases decidable: if an interval's endpoint is the
integer 3 but the enclosed value is declared irrational, the value is
certainly not 3 and the floor is still determined.

Two identical decimal literals (same digits, same radius, same flag)
denote the *same* unknown real; distinct overlapping literals can never
be certified equal.

When an interval genuinely straddles an integer and the flag does not
resolve it, the queries raise ``PrecisionInsufficient``.  There is no
hidden refinement: inputs carry a fixed number of correct digits, and
callers that own a finer source re-supply the value with more digits,
up to the active ``PrecisionBudget``.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Optional, Union


class PrecisionInsufficient(ArithmeticError):
    """An integer-valued query could not be certified at the current width."""


@dataclass(frozen=True)
class PrecisionBudget:
    """Digit budget for parsing and derived constants (square roots etc.)."""

    max_digits: int = 200
    refine_step: int = 50

    def __post_init__(self):
        if self.max_digits < 1 or self.refine_step < 1:
            raise ValueError("precision budget must be positive")


_ENV_VAR = "GEOINDEX_PRECISION"


def default_budget() -> PrecisionBudget:
    """Default budget; GEOINDEX_PRECISION overrides the digit count."""
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return PrecisionBudget()
    try:
        digits = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_ENV_VAR} must be an integer, got {raw!r}") from exc
    return PrecisionBudget(max_digits=digits)


Rationalish = Union[int, Fraction]


@dataclass(frozen=True)
class CertifiedReal:
    """An exact rational or a decimal interval with declared (ir)rationality.

    Invariants: lo <= hi; exact values have lo == hi and are never flagged
    irrational; interval width stays below 1 so integer straddles are
    detectable; irrational values have positive width.
    """

    lo: Fraction
    hi: Fraction
    exact: bool
    irrational: bool = False
    literal: Optional[str] = field(default=None, compare=False)

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty interval")
        if self.exact:
            if self.lo != self.hi:
                raise ValueError("exact value with nonzero width")
            if self.irrational:
                raise ValueError("an exact rational cannot be irrational")
        else:
            if self.hi - self.lo >= 1:
                raise ValueError("interval radius must stay below 1/2")
            if self.irrational and self.lo == self.hi:
                raise ValueError("an irrational value cannot be a point")

    # -- constructors -------------------------------------------------

    @staticmethod
    def rational(p: Rationalish, q: int = 1) -> "CertifiedReal":
        f = Fraction(p, q) if q != 1 else Fraction(p)
        return CertifiedReal(f, f, exact=True)

    @staticmethod
    def decimal(digits: str, radius: Rationalish,
                irrational: bool = False) -> "CertifiedReal":
        center = Fraction(digits)
        rad = Fraction(radius)
        if rad < 0:
            raise ValueError("radius must be >= 0")
        if rad == 0:
            if irrational:
                raise ValueError("a zero-radius decimal is a rational point")
            return CertifiedReal(center, center, exact=True, literal=digits)
        return CertifiedReal(center - rad, center + rad, exact=False,
                             irrational=irrational, literal=digits)

    @staticmethod
    def interval(lo: Fraction, hi: Fraction,
                 irrational: bool = False) -> "CertifiedReal":
        if lo == hi and not irrational:
            return CertifiedReal(lo, hi, exact=True)
        return CertifiedReal(lo, hi, exact=False, irrational=irrational)

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
        m = re.fullmatch(r"(-?\d+(?:\.\d+)?)~(\d+)", text)
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
        if re.fullmatch(r"-?\d+/\d+", text):
            p, q = text.split("/")
            return CertifiedReal.rational(int(p), int(q))
        if re.fullmatch(r"-?\d+(\.\d+)?", text):
            return CertifiedReal.rational(Fraction(text))
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
            raise ZeroDivisionError("divisor interval touches zero")
        if o.exact:
            return self * CertifiedReal.rational(Fraction(1, 1) / o.lo)
        inv = CertifiedReal.interval(Fraction(1, 1) / o.hi,
                                     Fraction(1, 1) / o.lo, o.irrational)
        return self * inv if not self.exact else inv * self

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    # -- certified queries ---------------------------------------------

    def is_integer(self) -> bool:
        """Certified integrality; irrational values are never integers."""
        if self.exact:
            return self.lo.denominator == 1
        if self.irrational:
            return False
        lo_f, hi_f = _floor_fraction(self.lo), _floor_fraction(self.hi)
        if lo_f == hi_f and self.lo.denominator > 1 and self.hi.denominator > 1:
            return False
        raise PrecisionInsufficient(
            f"cannot decide integrality of {self.describe()}")

    def sign_vs(self, r: Rationalish) -> int:
        """Certified comparison against a rational: -1, 0, or +1."""
        r = Fraction(r)
        if self.exact:
            return (self.lo > r) - (self.lo < r)
        if self.hi < r:
            return -1
        if self.lo > r:
            return 1
        if self.irrational and self.lo <= r <= self.hi:
            # not equal, but the side is unresolved
            raise PrecisionInsufficient(
                f"sign of {self.describe()} - {r} unresolved")
        raise PrecisionInsufficient(
            f"cannot compare {self.describe()} with {r}")

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
            return True  # identical literal: the same declared real
        return None

    def describe(self) -> str:
        if self.exact:
            return str(self.lo)
        tag = "~irr" if self.irrational else "~"
        return f"[{float(self.lo)!r}, {float(self.hi)!r}]{tag}"


def _floor_fraction(x: Fraction) -> int:
    return x.numerator // x.denominator


def _ceil_fraction(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def floor_int(x: CertifiedReal) -> int:
    """Certified floor: the largest integer <= x."""
    if x.exact:
        return _floor_fraction(x.lo)
    fl, fh = _floor_fraction(x.lo), _floor_fraction(x.hi)
    if fl == fh and x.hi.denominator > 1:
        return fl
    if x.irrational:
        # integers strictly inside (lo, hi) leave the floor ambiguous
        inner_lo = _floor_fraction(x.lo) + 1
        inner_hi = _ceil_fraction(x.hi) - 1
        if inner_lo <= inner_hi:
            raise PrecisionInsufficient(f"floor of {x.describe()} straddles "
                                        f"{inner_lo}")
        # the only integer touching [lo, hi] is an endpoint, excluded
        if x.hi.denominator == 1:
            return int(x.hi) - 1
        if x.lo.denominator == 1:
            return int(x.lo)
        return fl
    raise PrecisionInsufficient(f"floor of {x.describe()} undecided")


def ceil_int(x: CertifiedReal) -> int:
    """Certified ceiling: the smallest integer >= x."""
    return -floor_int(-x)


def phi(x: CertifiedReal) -> int:
    """ceil(x) - floor(x): 0 exactly for certified integers, else 1."""
    if x.exact:
        return 0 if x.lo.denominator == 1 else 1
    if x.irrational:
        return 1
    x.is_integer()  # raises unless non-integrality is certified
    return 1


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
    eps = Fraction(eps)
    if not 0 < eps <= Fraction(1, 2):
        raise ValueError("eps must lie in (0, 1/2]")
    fl = floor_int(x)
    lo, hi = x.lo - fl, x.hi - fl  # the ends of {x}; a point is exact
    if hi < eps:
        return 0
    if 1 - lo < eps:  # then lo > eps too, as eps <= 1/2
        return 1
    if lo == hi or (lo > eps and 1 - hi > eps):
        return None
    raise PrecisionInsufficient(f"fractional part of {x.describe()} "
                                f"unresolved against {eps}")


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
