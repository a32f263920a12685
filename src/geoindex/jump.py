"""Common index jump: problem construction, search, verification, scaling.

For a system of germs with nonzero mean indices, the goal is a tuple
(N, m_1, ..., m_q) such that every iterated index jumps coherently past
the window around 2*rho_i*N.  Writing beta_i = i1 + S+ - C, alpha_{i,j}
for the S- weighted angles theta/pi, and D_i for the mean index, the
witnessed identities are

    (R1)  m_i*beta_i + sum_j ceil(m_i*alpha_{i,j}) = rho_i*N + Delta_i
    (R2)  dist(m_i*alpha_{i,j}, Z) < delta  for every j
    (R3)  m_i*alpha_{i,j} is an integer whenever alpha_{i,j} is rational
    (J0)  nu(2m_i - m) = nu(2m_i + m) = nu(m)
    (J+)  i(2m_i + m) = 2*rho_i*N + i(m)
    (J-)  i(2m_i - m) = 2*rho_i*N - i(m) - 2*(S+ + Q_i(m))
    (J=)  i(2m_i)     = 2*rho_i*N - (S+ + C - 2*Delta_i)

for 1 <= m <= the requested horizon, where Delta_i counts the weighted
angles with fractional part of m_i*alpha in (0, delta) and Q_i(m) the
rational spectrum points closed up by both m_i and m.

The search works on the vertex picture: with M the least common
multiplier making every rational angle integral, and

    v = (1/(M*|D_1|), ..., 1/(M*|D_q|),
         alpha_{1,1}/|D_1|, ..., alpha_{q,mu_q}/|D_q|),

a candidate N qualifies when {N*v} sits within eps of a cube vertex
chi in {0,1}^l; then m_i = (floor(N*v_i) + chi_i)*M.  Vertex closeness
alone does not encode the ceiling case analysis, so a candidate is
accepted only after all identities above verify by direct recomputation.
The scan over multiples of M0 is deterministic: smallest qualifying N
wins, and enlarging the range never changes the result.

The coordinates are placed by one walk, a level per coordinate: level
k places its coordinate at each N that level k-1 keeps, level 0 at
every N.  An exact coordinate, L/d, places N by N*L mod d alone, so its
sides repeat with period lcm(d, M0).  A level whose coordinates, its
own and those below, are all exact records the hits of its first
period and replays them after it, so once that period is over an N the
level rejects costs nothing.  The walk's head is every exact coordinate
when the first one is exact, else the first alone; the others follow
in index order.  The outcome is the every-N scan's: the candidates
(every coordinate near, none undecided) do not depend on the order the
coordinates are asked in, an exact one never raises, and one too wide
at N is too wide at every larger N, so every candidate below that N is
still visited first, in increasing order.  Heading the walk with the
exact coordinates behind an interval first one too (ROADMAP item 3)
waits on item 2: the benchmark keeps every input it runs and could not
hold the extra operations within its memory bound.

A curve keeps only its germ, rho_i and the germ's compiled kernel
(``iteration._kernel``): beta_i is its slope, the alpha_{i,j} are its
integer rows.  The vertex coordinates are built on integers from those
rows and the kernel's mean row, as CertifiedReal division forms them
(a 1/|mean| too wide to divide by names its curve); they are kept as
rows, and ``v`` reads them back as values.

A check decides on whole runs and forms its clauses (name, ok, witness
items) only when they are read.  A curve's jump identities compare its
index and nullity runs around 2m_i with its runs on 1..m_bar as lists;
the rounding identities, the recount and vertex closeness are decided
on integers.  A clause walk runs only for ``clauses``, ``first_failure``
and ``_verdicts``, for ``strict`` to name the failing triple, and for a
run holding a marked iterate: that curve is walked in point order, so
its point query raises where a point-by-point walk raises.  Placements
are compiled once per problem and tolerance, the runs on 1..m_bar once
per curve and horizon.

Scaling: a certificate produced at tolerances (delta/p, eps/p) survives
multiplication of N by p with chi unchanged, m_i multiplied by p, and
Delta_i unchanged (the Delta recount for the scaled iterates uses the
undivided delta).  All three relations are checked, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import gcd, lcm
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from .exact import (CertifiedReal, PrecisionInsufficient, _ceil, _floor,
                    _lowest, _placement, _Row, _sign, _times)
from .iteration import (IndexGerm, _index, _index_range, _Kernel, _kernel,
                        _nullity, _nullity_range, _period_sums)


class ZeroMeanIndex(ValueError):
    """A germ with mean index zero entered a jump problem."""


class NotFound(RuntimeError):
    """No qualifying N in the scanned range; enlarge and retry."""

    def __init__(self, n_max: int):
        super().__init__(f"no verified certificate with N <= {n_max}")
        self.n_max = n_max


class IdentityViolation(AssertionError):
    """A jump identity failed; carries the first failing triple."""

    def __init__(self, curve: str, m: int, equation: str, detail: str = ""):
        super().__init__(f"{equation} fails for curve {curve!r} at m={m}"
                         + (f": {detail}" if detail else ""))
        self.triple = (curve, m, equation)


class ScaleMismatch(AssertionError):
    """A scaling relation failed; tolerance preconditions were violated."""


class CertificateMismatch(ValueError):
    """A certificate does not fit the system it is checked against."""


@dataclass(frozen=True)
class CurveProblem:
    germ: IndexGerm
    rho: int
    kernel: _Kernel                       # beta_i = slope, alpha_{i,j} = rows
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)    # compiled rows, runs on 1..m_bar


@dataclass(frozen=True)
class JumpProblem:
    curves: Tuple[CurveProblem, ...]
    M: int
    M0: int
    delta: Fraction
    epsilon: Fraction
    v_rows: Tuple[_Row, ...]              # v on integers (_row)
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)    # compiled v_rows

    @property
    def germs(self) -> Tuple[IndexGerm, ...]:
        return tuple(c.germ for c in self.curves)

    @property
    def v(self) -> Tuple[CertifiedReal, ...]:
        """The vertex coordinates as values, read off their rows."""
        return tuple(CertifiedReal.interval(Fraction(L, d), Fraction(H, d),
                                            irrational)
                     for L, H, d, irrational in self.v_rows)


@dataclass(frozen=True)
class JumpCertificate:
    N: int
    m: Tuple[int, ...]
    chi: Tuple[int, ...]
    Delta: Tuple[int, ...]
    rho: Tuple[int, ...]
    delta: Fraction
    epsilon: Fraction
    M: int
    M0: int
    names: Tuple[str, ...]


@dataclass(frozen=True)
class ScaledCertificate:
    base: JumpCertificate
    p_hat: int
    N_hat: int
    m_hat: Tuple[int, ...]
    chi_hat: Tuple[int, ...]
    Delta_hat: Tuple[int, ...]
    checks: Tuple[Tuple[str, bool], ...]

    @property
    def certificate(self) -> JumpCertificate:
        """The scaled tuple as a certificate at the scaled tolerances."""
        return self._at(*_scaled_tolerances(self.base, self.p_hat))

    def _at(self, delta_hat: Fraction, eps_hat: Fraction) -> JumpCertificate:
        base = self.base
        return JumpCertificate(
            N=self.N_hat, m=self.m_hat, chi=self.chi_hat,
            Delta=self.Delta_hat, rho=base.rho, delta=delta_hat,
            epsilon=eps_hat, M=base.M, M0=base.M0, names=base.names)


def _scaled_tolerances(cert: JumpCertificate,
                       p_hat: int) -> Tuple[Fraction, Fraction]:
    """(delta, epsilon) scaled by p_hat, epsilon capped at 1/2."""
    return p_hat * cert.delta, min(Fraction(1, 2), p_hat * cert.epsilon)


def check_certificate(problem: JumpProblem, cert: JumpCertificate) -> None:
    """Reject a certificate that does not fit the problem: its curve
    names, rho and M must be the problem's, with one m and one Delta
    entry per curve and one chi entry per vertex coordinate."""
    q = len(problem.curves)
    want = (tuple(c.germ.name for c in problem.curves),
            tuple(c.rho for c in problem.curves), problem.M, q, q,
            len(problem.v_rows))
    got = (cert.names, cert.rho, cert.M, len(cert.m), len(cert.Delta),
           len(cert.chi))
    for field, g, w in zip(("curve names", "rho", "M", "m length",
                            "Delta length", "chi length"), got, want):
        if g != w:
            raise CertificateMismatch(f"certificate does not fit the "
                                      f"system: {field} {g}, want {w}")


def build_problem(germs: Sequence[IndexGerm], delta: Fraction,
                  eps: Optional[Fraction] = None,
                  M0: int = 1) -> JumpProblem:
    """Assemble the vertex-search data for a germ system.

    M is the least positive integer making every rational spectrum angle
    integral.  When eps is omitted it is tied to delta so that vertex
    closeness is strong enough for the angle-closeness clause:
    eps = delta / (2 * max(M*|mean|, 1)).
    """
    delta = Fraction(delta)
    if not 0 < 2 * delta.numerator < delta.denominator:
        raise ValueError("delta must lie in (0, 1/2)")
    if M0 < 1:
        raise ValueError("M0 must be positive")
    if not germs:
        raise ValueError("empty system")

    curves: List[CurveProblem] = []
    sizes: List[_Row] = []                # |D_i|, kept only while building
    M = 1
    for germ in germs:
        k = _kernel(germ)
        try:
            rho = _sign(_times(k.mean, 1), 0)
        except PrecisionInsufficient as exc:
            raise ZeroMeanIndex(
                f"mean index of {germ.name!r} straddles 0: {exc}")
        if rho == 0:
            raise ZeroMeanIndex(f"germ {germ.name!r} has mean index 0")
        L, H, d, irrational = k.mean
        if 0 in (L, H):  # declared irrational, so not 0 itself
            raise ZeroMeanIndex(f"mean index of {germ.name!r} has an end at "
                                f"0: 1/mean is unbounded")
        M = lcm(M, k.M)
        curves.append(CurveProblem(germ, rho, k))
        sizes.append(k.mean if rho > 0 else (-H, -L, d, irrational))

    mu_max = max(len(c.kernel.rows) for c in curves)
    if 2 * mu_max * delta.numerator >= delta.denominator:
        raise ValueError(
            f"delta too large: delta*max(mu) = {delta * mu_max} >= 1/2")

    if eps is None:
        scale = 1
        for size in sizes:  # cand = M*|mean|
            cand = _times(size, M)
            if _sign(cand, scale) > 0:
                scale = _ceil(cand)
        eps = delta / (2 * scale)
    eps = Fraction(eps)
    if not 0 < 2 * eps.numerator < eps.denominator:
        raise ValueError("epsilon must lie in (0, 1/2)")

    one = (1, 1, 1, False)                # the row of the exact 1
    v = [_quotient(one, size, c.germ.name, M)
         for c, size in zip(curves, sizes)]
    for c, size in zip(curves, sizes):
        for row in c.kernel.rows:
            if row == size and (row[0] == row[1] or row[3]):
                v.append(one)  # same declared real above and below the bar
            else:
                v.append(_quotient(row, size, c.germ.name))
    return JumpProblem(tuple(curves), M, M0, delta, eps, tuple(v))


def _quotient(x: _Row, y: _Row, name: str, m: int = 1) -> _Row:
    """x/(m*y) for x > 0 and y = |mean| of curve name, m >= 1, as
    CertifiedReal division forms it, its flag and ValueErrors included
    (one from 1/(m*y) names the curve): [x.lo/(m*y.hi), x.hi/(m*y.lo)]."""
    p, r, q, irrational = x
    A, B, d, y_irrational = _times(y, m)
    if d * (B - A) >= A * B:  # 1/(m*y) = [d/B, d/A]
        raise ValueError(f"1/|mean| of {name!r} is [{m * d / B!r}, "
                         f"{m * d / A!r}], too wide for vertex coordinates")
    lo, hi, den = p * d * A, r * d * B, q * A * B
    if hi - lo >= den:
        raise ValueError("interval radius must stay below 1/2")
    irrational = (irrational and A == B) or (y_irrational and p == r)
    return _lowest(lo, hi, den, irrational)


def _compiled(owner, rows: Sequence[_Row], eps: Fraction) -> tuple:
    """The rows' placements at eps, compiled once per owner and eps (a
    Fraction hashes slowly, so eps is keyed by its two integers)."""
    key = eps.numerator, eps.denominator
    if key not in owner._memo:
        owner._memo[key] = tuple(_placement(row, eps) for row in rows)
    return owner._memo[key]


def _near(place: Callable[[int], Optional[int]], m: int) -> Optional[int]:
    """The vertex side of m*x by x's compiled placement, None where m*x
    is far from the integers or its side is undecided."""
    try:
        return place(m)
    except PrecisionInsufficient:
        return None


def _delta_count(curve: CurveProblem, m_i: int, delta: Fraction) -> Optional[int]:
    """Weighted count of angles with {m_i * alpha} in (0, delta).

    Returns None when some angle cannot be placed on a side (closeness
    clause violated or undecidable).
    """
    count = 0
    for j, row in enumerate(curve.kernel.rows):
        if row[0] == row[1]:  # a point
            if m_i * row[0] % row[2]:
                return None  # rational angle must close up exactly
            continue
        side = _near(_compiled(curve, curve.kernel.rows, delta)[j], m_i)
        if side is None:
            return None
        if side == 0:
            count += 1
    return count


@dataclass
class ClauseReport:
    name: str
    ok: bool
    witness: Dict[str, object] = field(default_factory=dict)


class VerificationReport:
    """A check's verdict; its clauses (name, ok, witness items) are
    walked only when read."""

    def __init__(self, ok: bool, walk: Callable[[], Iterable[tuple]]):
        self.ok, self._walk = ok, walk

    @cached_property
    def _verdicts(self) -> List[tuple]:
        return list(self._walk())

    @property
    def clauses(self) -> List[ClauseReport]:
        return [ClauseReport(n, ok, dict(w)) for n, ok, w in self._verdicts]

    def first_failure(self) -> Optional[ClauseReport]:
        return None if self.ok else next(
            (c for c in self.clauses if not c.ok), None)


def verify_rounding(problem: JumpProblem, cert: JumpCertificate) -> VerificationReport:
    """Re-check the rounding identities (R1)-(R3) and the Delta recount;
    CertificateMismatch where the certificate does not fit the problem."""
    check_certificate(problem, cert)
    return VerificationReport(*_rounding_clauses(problem, cert))


def _rounding_clauses(problem: JumpProblem, cert: JumpCertificate
                      ) -> Tuple[bool, Callable[[], Iterator[tuple]]]:
    """The verdict, on integers, and the walk that forms the clauses.  A
    curve passes on its rounding sum and its recount: a recount equal
    to Delta_i has placed every angle and found every rational closed."""
    ok, sums = True, []
    for curve, m_i, delta_i in zip(problem.curves, cert.m, cert.Delta):
        k = curve.kernel
        lhs = m_i * k.slope + sum(_ceil(_times(row, m_i)) for row in k.rows)
        rhs = curve.rho * cert.N + delta_i
        recount = _delta_count(curve, m_i, problem.delta)
        ok = ok and lhs == rhs and recount == delta_i
        sums.append((curve, m_i, lhs, rhs, recount, delta_i))
    places = _compiled(problem, problem.v_rows, problem.epsilon)
    sides = [_near(place, cert.N) == cert.chi[j]
             for j, place in enumerate(places)]

    def walk() -> Iterator[tuple]:
        for curve, m_i, lhs, rhs, recount, delta_i in sums:
            who, rows = ("curve", curve.germ.name), curve.kernel.rows
            yield "rounding-sum", lhs == rhs, (who, ("lhs", lhs), ("rhs", rhs))
            places = _compiled(curve, rows, problem.delta)
            for j, (row, place) in enumerate(zip(rows, places)):
                L, H, d, _ = row
                if L == H:
                    yield ("rational-integrality", m_i * L % d == 0,
                           (who, ("alpha", str(Fraction(L, d))), ("m", m_i)))
                else:
                    yield ("angle-closeness", _near(place, m_i) is not None,
                           (who, ("alpha_index", j)))
            yield ("delta-count", recount == delta_i,
                   (who, ("recount", recount), ("Delta", delta_i)))
        for j, side in enumerate(sides):
            yield "vertex-closeness", side, (("coordinate", j),)

    return ok and all(sides), walk


def verify_jump(problem: JumpProblem, cert: JumpCertificate, m_bar: int,
                strict: bool = False) -> VerificationReport:
    """Re-check (J0), (J+), (J-), (J=) for 1 <= m <= m_bar.

    With strict=True the first failure raises IdentityViolation, and
    CertificateMismatch is raised where the certificate does not fit.
    """
    if m_bar < 0:
        raise ValueError(f"m_bar must be nonnegative, got {m_bar}")
    check_certificate(problem, cert)
    oks = []
    for ok, clauses in _jump_clauses(problem, cert, m_bar):
        if ok is None or strict and not ok:  # the clauses decide
            ok = True
            for name, clause_ok, items in clauses:
                if strict and not clause_ok:
                    w = dict(items)
                    raise IdentityViolation(w.pop("curve"), w.pop("m"),
                                            name, str(w))
                ok = ok and clause_ok
        oks.append(ok)
    return VerificationReport(all(oks), lambda: (
        c for _, clauses in _jump_clauses(problem, cert, m_bar)
        for c in clauses))


def _jump_clauses(problem: JumpProblem, cert: JumpCertificate,
                  m_bar: int) -> Iterator[Tuple[Optional[bool], Iterator]]:
    """Per curve, in order: its verdict, by comparing runs of iterates,
    and its clauses, walked only if read.  The runs are evaluated on the
    germ's compiled kernel: 2m_i - m_bar .. 2m_i + m_bar, and 1 .. m_bar,
    the same for every certificate.  A run entry whose point query
    raises is marked (None); the verdict is then None, and only the
    clauses decide."""
    for i, curve in enumerate(problem.curves):
        m_i, k = cert.m[i], curve.kernel
        who = ("curve", curve.germ.name)
        if 2 * m_i <= m_bar:
            yield False, iter((("horizon-room", False,
                                (who, ("m", m_bar), ("m_i", m_i))),))
            continue
        two_n = 2 * curve.rho * cert.N
        # i(2m_i + d) for |d| <= m_bar is around[m_bar + d], and so is nu
        window = range(2 * m_i - m_bar, 2 * m_i + m_bar + 1)
        ms = range(1, m_bar + 1)
        around, nu_around = _index_range(k, window), _nullity_range(k, window)
        if m_bar not in curve._memo:
            curve._memo[m_bar] = _index_range(k, ms), _nullity_range(k, ms)
        base, nus = curve._memo[m_bar]
        # Q_i(m) weighs the rational points p/q that 2m_i closes up
        # (m_i*p/q integral) and m closes up too (m*p/(2q) integral)
        qs = _period_sums([(2 * q // gcd(p, 2 * q), 1)
                           for p, h, q, _ in k.rows
                           if p == h and m_i * p % q == 0], ms)
        top = two_n - (k.s_plus + k.c - 2 * cert.Delta[i])
        reflected = two_n - 2 * k.s_plus  # (J-) less i(m) and 2Q_i(m)
        clauses = _jump_walk(k, who, m_i, two_n, top, reflected, around,
                             nu_around, base, nus, qs)
        if None in around or None in base or None in nus:
            yield None, clauses
            continue
        yield (around[m_bar] == top
               and around[m_bar + 1:] == [two_n + b for b in base]
               and around[:m_bar][::-1] == [reflected - b - 2 * q
                                            for b, q in zip(base, qs)]
               and nu_around[m_bar + 1:] == nus == nu_around[:m_bar][::-1]
               ), clauses


def _jump_walk(k: _Kernel, who: tuple, m_i: int, two_n: int, top: int,
               reflected: int, around: list, nu_around: list, base: list,
               nus: list, qs: list) -> Iterator[tuple]:
    """A curve's clauses, read off its runs in point order."""
    m_bar = len(base)

    def at(run, j, m, query=_index):  # a marked entry: the query raises
        return query(k, m) if run[j] is None else run[j]

    got = at(around, m_bar, 2 * m_i)
    yield "jump-top", got == top, (who, ("m", 0), ("got", got), ("want", top))
    for j, m in enumerate(range(1, m_bar + 1)):
        b = at(base, j, m)
        up, want = at(around, m_bar + m, 2 * m_i + m), two_n + b
        yield ("jump-up", up == want,
               (who, ("m", m), ("got", up), ("want", want)))
        down = at(around, m_bar - m, 2 * m_i - m)
        want = reflected - b - 2 * qs[j]
        yield ("jump-down", down == want,
               (who, ("m", m), ("got", down), ("want", want)))
        nu = at(nus, j, m, _nullity)  # only an undeclared angle marks
        same = nu_around[m_bar + m] == nu == nu_around[m_bar - m]
        yield "jump-nullity", same, (who, ("m", m), ("nu", nu))


def _iterates(problem: JumpProblem, N: int, chi: Sequence[int]) -> List[int]:
    """m_i = (floor(N*v_i) + chi_i)*M per curve; the vertex side chi_i
    found for N*v_i has certified the floor."""
    return [(_floor(_times(row, N)) + side) * problem.M
            for row, side in zip(problem.v_rows[:len(problem.curves)], chi)]


def _assemble(problem: JumpProblem, N: int, chi: List[int],
              m_bar: int) -> Optional[JumpCertificate]:
    m_vec = _iterates(problem, N, chi)
    if any(m_i < 1 or 2 * m_i <= m_bar for m_i in m_vec):
        return None

    deltas: List[int] = []
    for i, curve in enumerate(problem.curves):
        d = _delta_count(curve, m_vec[i], problem.delta)
        if d is None:
            return None
        deltas.append(d)

    cert = JumpCertificate(
        N=N, m=tuple(m_vec), chi=tuple(chi), Delta=tuple(deltas),
        rho=tuple(c.rho for c in problem.curves),
        delta=problem.delta, epsilon=problem.epsilon,
        M=problem.M, M0=problem.M0,
        names=tuple(c.germ.name for c in problem.curves))
    if not verify_rounding(problem, cert).ok:
        return None
    for ok, clauses in _jump_clauses(problem, cert, m_bar):
        if not (ok or ok is None and all(c[1] for c in clauses)):
            return None
    return cert


def search(problem: JumpProblem, n_min: int, n_max: int, *,
           m_bar: int = 1) -> JumpCertificate:
    """Smallest N in [n_min, n_max] whose certificate fully verifies.

    Deterministic: the scan runs over multiples of M0 in increasing
    order, and a candidate is only returned once every rounding and jump
    clause has been recomputed and passed.  The coordinates are walked
    (``_walk``) head first: every exact one when the first is exact,
    else the first alone, then the others in index order; chi is read
    back in index order.  Once some N*v_j is too wide to place, so is
    every larger N, and NotFound is raised at once.
    """
    if n_min > n_max:
        raise ValueError("empty search range")
    if m_bar < 0:
        raise ValueError(f"m_bar must be nonnegative, got {m_bar}")
    rows = problem.v_rows
    places = _compiled(problem, rows, problem.epsilon)
    M0 = problem.M0
    first = ((max(n_min, 1) + M0 - 1) // M0) * M0
    exact = [j for j, (L, H, _, _) in enumerate(rows) if L == H]
    head = exact if exact[:1] == [0] else [0]
    order = head + [j for j in range(len(rows)) if j not in head]
    at = sorted(range(len(order)), key=order.__getitem__)  # chi's order
    for N, sides in _walk([rows[j] for j in order],
                          [places[j] for j in order], first, n_max, M0):
        cert = _assemble(problem, N, [sides[k] for k in at], m_bar)
        if cert is not None:
            return cert
    raise NotFound(n_max)


def _walk(rows: Sequence[_Row], places: Sequence[Callable], first: int,
          n_max: int, M0: int) -> Iterator[Tuple[int, tuple]]:
    """(N, sides) for each N = first, first + M0, ... <= n_max at which
    every row, compiled as places, sets N*row near a vertex, in order,
    with the sides in row order.  Level k places row k at the N that
    level k-1 keeps (level 0 at every N): an undecided side passes the
    N over, and NotFound(n_max) is raised where N*row is too wide.
    Exact rows' sides repeat with period lcm(M0, their d), so a level
    whose rows, its own and those below, are all exact records the hits
    of its first period and replays them after it; a level with an
    interval row never repeats, and its one period spans the range."""
    *below, row = rows
    P = max(n_max, 0) + 1
    if all(L == H for L, H, _, _ in rows):
        P = lcm(M0, *(d for _, _, d, _ in rows))
    end, place, hits = min(first + P, n_max + 1), places[-1], []
    replay = end <= n_max
    kept = (_walk(below, places[:-1], first, end - 1, M0) if below
            else zip(range(first, end, M0), repeat(())))
    for N, sides in kept:
        try:
            side = place(N)
        except PrecisionInsufficient:
            continue
        except ValueError:  # N*row is too wide
            raise NotFound(n_max) from None
        if side is not None:
            sides += (side,)
            if replay:
                hits.append((N - first, sides))
            yield N, sides
    for start in range(end, n_max + 1, P):
        for offset, sides in hits:
            if start + offset > n_max:
                return
            yield start + offset, sides


def scale(problem: JumpProblem, cert: JumpCertificate,
          p_hat: int, m_bar: int = 1) -> ScaledCertificate:
    """Scale a certificate by p_hat and verify every scaling relation.

    The certificate must have been produced at tolerances delta/p_hat
    and eps/p_hat relative to the intended ones; the scaled quantities
    are recomputed at p_hat times the certificate's own tolerances and
    must reproduce chi, p_hat*m, and Delta exactly (ScaleMismatch
    otherwise), after which the shifted index identities are re-checked
    at the scaled N.  A certificate that does not fit the problem raises
    CertificateMismatch first.
    """
    check_certificate(problem, cert)
    if p_hat < 1:
        raise ValueError("p_hat must be positive")
    if m_bar < 0:
        raise ValueError(f"m_bar must be nonnegative, got {m_bar}")
    mu_max = max(len(c.kernel.rows) for c in problem.curves)
    if 2 * p_hat * mu_max * cert.delta.numerator >= cert.delta.denominator:
        raise ValueError("scaled delta violates the smallness hypothesis")
    N_hat = p_hat * cert.N
    delta_hat, eps_hat = _scaled_tolerances(cert, p_hat)

    checks: List[Tuple[str, bool]] = []
    chi_hat: List[int] = []
    for j, place in enumerate(_compiled(problem, problem.v_rows, eps_hat)):
        side = _near(place, N_hat)
        if side is None:
            raise ScaleMismatch(f"scaled vertex closeness fails at "
                                f"coordinate {j}")
        chi_hat.append(side)
    checks.append(("chi-invariance", tuple(chi_hat) == cert.chi))

    m_hat = _iterates(problem, N_hat, chi_hat)
    checks.append(("m-scaling",
                   tuple(m_hat) == tuple(p_hat * mi for mi in cert.m)))

    delta_hat_counts: List[int] = []
    for i, curve in enumerate(problem.curves):
        d = _delta_count(curve, m_hat[i], delta_hat)
        if d is None:
            raise ScaleMismatch(f"scaled Delta recount undecidable for "
                                f"curve {curve.germ.name!r}")
        delta_hat_counts.append(d)
    checks.append(("Delta-invariance",
                   tuple(delta_hat_counts) == cert.Delta))

    for name, ok in checks:
        if not ok:
            raise ScaleMismatch(f"scaling relation {name} fails "
                                f"(p_hat={p_hat}, N={cert.N})")

    scaled = ScaledCertificate(
        base=cert, p_hat=p_hat, N_hat=N_hat, m_hat=tuple(m_hat),
        chi_hat=tuple(chi_hat), Delta_hat=tuple(delta_hat_counts),
        # recorded as passed: a failure raises below
        checks=tuple(checks) + (("scaled-identities", True),))
    fail = verify_jump(problem, scaled._at(delta_hat, eps_hat),
                       m_bar).first_failure()
    if fail is not None:
        raise ScaleMismatch(f"scaled identity fails: {fail.name} "
                            f"{fail.witness}")
    return scaled


def delta_invariance(problem: JumpProblem, cert: JumpCertificate,
                     delta1: Fraction, delta2: Fraction) -> bool:
    """Whether the Delta recount agrees under two admissible deltas."""
    mu_max = max(len(c.kernel.rows) for c in problem.curves)
    for d in (Fraction(delta1), Fraction(delta2)):
        if not 0 < d < Fraction(1, 2) or d * mu_max >= Fraction(1, 2):
            raise ValueError(f"delta {d} violates the smallness hypothesis")
    for i, curve in enumerate(problem.curves):
        c1 = _delta_count(curve, cert.m[i], Fraction(delta1))
        c2 = _delta_count(curve, cert.m[i], Fraction(delta2))
        if c1 is None or c2 is None or c1 != c2:
            return False
    return True
