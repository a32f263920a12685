"""Basic symplectic normal-form blocks and their splitting numbers.

A linearized return map in Sp(4) is modelled, up to homotopy within its
spectral class, as a diamond-sum of 2x2 and 4x4 blocks:

    N1(l, b) = [[l, b], [0, l]]          l = +-1, shear class of b
    D(l)     = [[l, 0], [0, 1/l]]        l real, not 0 or +-1
    R(t*pi)  = rotation by t*pi          t in (0,1) u (1,2)
    N2(t*pi) = [[R, B], [0, R]]          4x4, classified trivial/nontrivial

Angles are stored as t = theta/pi.  Each block contributes a fixed pair
of splitting numbers (S+, S-) at each of its unit-circle eigenvalues,
additive under the diamond sum.  The full table lives in one place
(``_table``) so a convention flip is a one-line change; only the zero
off-spectrum rule, the N1(1, b) rule at omega = 1, and additivity are
pinned by the classical splitting-number axioms, and the remaining rows
are regression-tested through mean-index consistency.

Only the block data ever enters the index formulas, so a 4x4 matrix is
never decomposed here; callers supply block decompositions directly.
The one numeric classifier, for 2x2 symplectic matrices, needs trace
dichotomy, Niven's theorem (cos is rational at a rational multiple of
pi only for 0, +-1/2, +-1) and an integer enclosure of the other angles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional, Sequence, Tuple, Union

from .exact import (CertifiedReal, PrecisionBudget, PrecisionInsufficient,
                    default_budget, sqrt_of_fraction)


class UnresolvedSpectrum(ArithmeticError):
    """Membership of a point in a block's spectrum could not be certified."""


B_POSITIVE = "positive"
B_ZERO = "zero"
B_NEGATIVE = "negative"
_B_CLASSES = (B_POSITIVE, B_ZERO, B_NEGATIVE)

KIND_TRIVIAL = "trivial"
KIND_NONTRIVIAL = "nontrivial"


def validate_angle(t: CertifiedReal) -> CertifiedReal:
    """An angle parameter t = theta/pi must sit in (0,1) u (1,2)."""
    if not (t.gt(0) and t.lt(2)):
        raise ValueError(f"theta/pi out of range (0,2): {t.describe()}")
    if t.exact and t.lo == 1:
        raise ValueError("theta = pi is excluded for rotation-type blocks")
    if not t.exact and t.lo <= 1 <= t.hi and not t.irrational:
        raise ValueError("cannot certify theta != pi for this interval")
    return t


@dataclass(frozen=True, slots=True)
class N1:
    """2x2 shear block at eigenvalue +1 or -1; only the sign class of b."""
    eigenvalue: int
    b_class: str

    def __post_init__(self):
        if self.eigenvalue not in (1, -1):
            raise ValueError("N1 eigenvalue must be +1 or -1")
        if self.b_class not in _B_CLASSES:
            raise ValueError(f"b_class must be one of {_B_CLASSES}")


@dataclass(frozen=True, slots=True)
class D:
    """2x2 hyperbolic block with real eigenvalues lam, 1/lam."""
    lam: CertifiedReal

    def __post_init__(self):
        for excluded in _D_EXCLUDED:
            if self.lam.eq_certified(excluded) is not False:
                raise ValueError(f"D eigenvalue must certify != "
                                 f"{excluded.lo}")


@dataclass(frozen=True, slots=True)
class R:
    """2x2 rotation block by theta = t*pi."""
    t: CertifiedReal

    def __post_init__(self):
        validate_angle(self.t)


@dataclass(frozen=True, slots=True)
class N2:
    """4x4 block with double eigenvalue pair on the circle."""
    t: CertifiedReal
    nontrivial: bool

    def __post_init__(self):
        validate_angle(self.t)


BasicBlock = Union[N1, D, R, N2]
BlockList = Tuple[BasicBlock, ...]


@dataclass(frozen=True)
class SplittingPair:
    s_plus: int
    s_minus: int

    def __add__(self, other: "SplittingPair") -> "SplittingPair":
        return SplittingPair(self.s_plus + other.s_plus,
                             self.s_minus + other.s_minus)


_ZERO = CertifiedReal.rational(0)
_ONE = CertifiedReal.rational(1)
_D_EXCLUDED = (_ZERO, _ONE, CertifiedReal.rational(-1))  # no D eigenvalue


def _table(block: BasicBlock) -> Tuple[Tuple[int, int, int, int], ...]:
    """The splitting-number table: a row (a, b, S+, S-) per unit-circle
    eigenvalue exp(i*pi*(a + b*t)), t the angle of an R or N2 block; the
    complex kernel dimension is 1 at each."""
    if isinstance(block, N1):
        if block.eigenvalue == 1:
            s = 1 if block.b_class in (B_POSITIVE, B_ZERO) else 0
            return ((0, 0, s, s),)
        s = 1 if block.b_class in (B_NEGATIVE, B_ZERO) else 0
        return ((1, 0, s, s),)
    if isinstance(block, D):
        return ()
    if isinstance(block, R):
        return ((0, 1, 0, 1), (2, -1, 1, 0))
    if isinstance(block, N2):
        s = 1 if block.nontrivial else 0
        return ((0, 1, s, s), (2, -1, s, s))
    raise TypeError(f"not a basic block: {block!r}")


def _conjugate(t: CertifiedReal) -> CertifiedReal:
    """2 - t as one value; a zero-width interval comes out exact, as
    from CertifiedReal arithmetic."""
    lo, hi = 2 - t.hi, 2 - t.lo
    return CertifiedReal(lo, hi, t.exact or lo == hi, t.irrational)


def block_dim(block: BasicBlock) -> int:
    return 4 if isinstance(block, N2) else 2


def total_dim(blocks: Sequence[BasicBlock]) -> int:
    return sum(block_dim(b) for b in blocks)


def splitting_at(block: BasicBlock, omega_t: CertifiedReal) -> SplittingPair:
    """Splitting numbers of one block at the point exp(i*pi*omega_t).

    Zero off the spectrum; otherwise read from the table.  Raises
    UnresolvedSpectrum when membership cannot be certified (two distinct
    overlapping irrational literals, for instance).
    """
    unresolved = False
    for a, b, s_plus, s_minus in _table(block):
        # the point a + b*t: a itself, t, or its conjugate 2 - t
        t = ((_ONE if a else _ZERO) if b == 0
             else block.t if b > 0 else _conjugate(block.t))
        eq = omega_t.eq_certified(t)
        if eq is True:
            return SplittingPair(s_plus, s_minus)
        if eq is None:
            unresolved = True
    if unresolved:
        raise UnresolvedSpectrum(
            f"membership of {omega_t.describe()} in the spectrum of "
            f"{block!r} is not certified")
    return SplittingPair(0, 0)


def splitting_sum(blocks: Sequence[BasicBlock],
                  omega_t: CertifiedReal) -> SplittingPair:
    """Splitting numbers of the diamond sum: componentwise addition."""
    total = SplittingPair(0, 0)
    for b in blocks:
        total = total + splitting_at(b, omega_t)
    return total


def big_C(blocks: Sequence[BasicBlock]) -> int:
    """Sum of S- over the whole punctured circle (theta in (0, 2*pi))."""
    return sum(s_minus for block in blocks
               for a, b, _, s_minus in _table(block) if a or b)


def nullity_contribution(block: BasicBlock, m: int) -> int:
    """Kernel dimension the block adds at the m-th iterate.

    Computed spectrally: a circle eigenvalue pair exp(+-i*pi*t)
    contributes when m*t/2 is an integer; the real eigenvalues +-1
    contribute every (even) iterate.
    """
    if m < 1:
        raise ValueError("iterate must be positive")
    if isinstance(block, N1):
        return 1 if (block.eigenvalue == 1 or m % 2 == 0) else 0
    if isinstance(block, D):
        return 0
    t = block.t
    if t.exact:
        closes = (Fraction(m, 2) * t.lo).denominator == 1
    else:
        closes = False if t.irrational else None
        if closes is None:
            raise PrecisionInsufficient(
                "nullity of an undeclared decimal angle")
    return 2 if closes else 0


def elliptic_height(blocks: Sequence[BasicBlock]) -> int:
    """Total algebraic multiplicity of unit-circle eigenvalues."""
    per = {N1: 2, D: 0, R: 2, N2: 4}
    return sum(per[type(b)] for b in blocks)


# -- 2x2 classification ------------------------------------------------

Matrix2 = Tuple[Tuple[CertifiedReal, CertifiedReal],
                Tuple[CertifiedReal, CertifiedReal]]

_NIVEN_ANGLES = {Fraction(0): Fraction(1, 2),
                 Fraction(1, 2): Fraction(1, 3),
                 Fraction(-1, 2): Fraction(2, 3)}


def classify_2x2(matrix: Matrix2,
                 budget: Optional[PrecisionBudget] = None) -> BasicBlock:
    """Classify a 2x2 determinant-one matrix into its basic block.

    |tr| > 2 gives D, |tr| < 2 gives R with the rotation direction read
    off the lower-left entry, tr = +-2 gives N1 with the shear class
    read off the off-diagonal structure.  A rational cosine h = tr/2 off
    Niven's set gives an irrational t = acos(h)/pi = j*atan(x)/pi, with
    j = 2 and x = sqrt((1-h)/(1+h)) at first.  Proof of its enclosure: at
    S = 10**(max_digits + 10), isqrt puts S*x in [lo, hi = lo + 1]; each
    halving x -> x/(1 + sqrt(1 + x*x)), increasing in x, doubles j and
    keeps S*x in [lo, hi] rounded outward, till x <= 1/5.  ``_atan`` and
    Machin's pi = 16*atan(1/5) - 4*atan(1/239) bound atan(x) > 0 and pi;
    t's ends round outward to the grid 1/G, G = 4*10**max_digits: width
    1/G or 2/G, echoed at radius 10**-max_digits, within the budget.
    """
    budget = budget or default_budget()
    (a, b), (c, d) = matrix
    det = a * d - b * c
    if det.eq_certified(CertifiedReal.rational(1)) is not True:
        raise ValueError("determinant does not certify to 1")
    tr = a + d
    try:
        two_cmp = (tr * tr).sign_vs(4)
    except PrecisionInsufficient as exc:
        raise UnresolvedSpectrum(f"|trace| - 2 not sign-certified: {exc}")

    if two_cmp > 0:
        # real hyperbolic pair lam, 1/lam with lam = (tr + sqrt(tr^2-4))/2
        if not tr.exact:
            raise UnresolvedSpectrum(
                "hyperbolic eigenvalue needs an exact trace")
        disc = tr.lo * tr.lo - 4
        root = sqrt_of_fraction(disc, budget.max_digits)
        if tr.lo > 0:
            lam = (tr + root) * Fraction(1, 2)
        else:
            lam = (tr - root) * Fraction(1, 2)
        return D(lam)
    if two_cmp == 0:
        sign = 1 if tr.gt(0) else -1
        try:
            c_sign = c.sign_vs(0)
        except PrecisionInsufficient as exc:
            raise UnresolvedSpectrum(f"shear class unresolved: {exc}")
        if c_sign != 0:
            b_class = B_NEGATIVE if c_sign > 0 else B_POSITIVE
        else:
            b_sign = b.sign_vs(0)
            b_class = {1: B_POSITIVE, 0: B_ZERO, -1: B_NEGATIVE}[b_sign]
        return N1(sign, b_class)

    # elliptic: eigenvalues exp(+-i*pi*t) with cos(pi*t) = tr/2
    if not tr.exact:
        raise UnresolvedSpectrum("elliptic angle needs an exact trace")
    half = tr.lo / 2
    c_sign = c.sign_vs(0)
    if c_sign == 0:
        raise UnresolvedSpectrum("elliptic block has nonzero corner entries")
    if half in _NIVEN_ANGLES:
        t: CertifiedReal = CertifiedReal.rational(_NIVEN_ANGLES[half])
    else:
        # Niven: any other rational cosine forces theta/pi irrational
        S = 10 ** (budget.max_digits + 10)
        lo = isqrt(int((1 - half) / (1 + half) * S * S))
        hi, j = lo + 1, 2
        while 5 * hi > S:
            lo = lo * S // (S + isqrt(S * S + lo * lo) + 1)
            hi = -(-hi * S // (S + isqrt(S * S + hi * hi)))
            j *= 2
        (x_lo, _), (_, x_hi) = _atan(lo, S, S), _atan(hi, S, S)
        (a5_lo, a5_hi), (a239_lo, a239_hi) = _atan(1, 5, S), _atan(1, 239, S)
        pi_lo, pi_hi = 16 * a5_lo - 4 * a239_hi, 16 * a5_hi - 4 * a239_lo
        G = 4 * 10 ** budget.max_digits
        t = CertifiedReal.interval(Fraction(j * max(x_lo, 0) * G // pi_hi, G),
                                   Fraction(-(-j * x_hi * G // pi_lo), G),
                                   irrational=True)
    if c_sign < 0:
        t = _conjugate(t)
    return R(t)


def _atan(a: int, b: int, S: int) -> Tuple[int, int]:
    """Integers below and above S*atan(u), u = a/b in [0, 1/5]: P_0 =
    floor(S*u) and P_k = floor(P_{k-1}*u*u) are below S*u**(2k+1) by under
    1/(1 - 1/25) = 25/24, so n terms err by under 3n and the tail by 2."""
    P, A, k = a * S // b, 0, 0
    while P:
        A += (-1) ** k * (P // (2 * k + 1))
        P, k = P * a * a // (b * b), k + 1
    return A - 3 * k - 2, A + 3 * k + 2
