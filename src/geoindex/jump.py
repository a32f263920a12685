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

Scaling: a certificate produced at tolerances (delta/p, eps/p) survives
multiplication of N by p with chi unchanged, m_i multiplied by p, and
Delta_i unchanged (the Delta recount for the scaled iterates uses the
undivided delta).  All three relations are checked, never assumed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .exact import CertifiedReal, PrecisionInsufficient, ceil_int, floor_int
from .iteration import IndexGerm, _kernel, index_at, mean_index, nullity_at
from .normal_forms import spectrum_rows, weighted_angles

log = logging.getLogger("geoindex.jump")

# [lo, hi] as (lo*d, hi*d, d, exact, irrational), d the least common
# denominator of its ends; _row builds one per angle and coordinate.
_Row = Tuple[int, int, int, bool, bool]


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
    beta: int
    alphas: Tuple[CertifiedReal, ...]     # S- weighted angles, multiplicity kept
    mean: CertifiedReal
    rho: int
    abs_mean: CertifiedReal
    rows: Tuple[_Row, ...]                # alphas on integers (_row)


@dataclass(frozen=True)
class JumpProblem:
    curves: Tuple[CurveProblem, ...]
    M: int
    M0: int
    delta: Fraction
    epsilon: Fraction
    v: Tuple[CertifiedReal, ...]
    v_rows: Tuple[_Row, ...]              # v on integers (_row)

    @property
    def germs(self) -> Tuple[IndexGerm, ...]:
        return tuple(c.germ for c in self.curves)


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
        base = self.base
        delta_hat, eps_hat = _scaled_tolerances(base, self.p_hat)
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
    names, rho and M must be the problem's, with one chi entry per
    vertex coordinate."""
    want = (tuple(c.germ.name for c in problem.curves),
            tuple(c.rho for c in problem.curves), problem.M, len(problem.v))
    got = (cert.names, cert.rho, cert.M, len(cert.chi))
    for field, g, w in zip(("curve names", "rho", "M", "chi length"),
                           got, want):
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
    if not 0 < delta < Fraction(1, 2):
        raise ValueError("delta must lie in (0, 1/2)")
    if M0 < 1:
        raise ValueError("M0 must be positive")
    if not germs:
        raise ValueError("empty system")

    curves: List[CurveProblem] = []
    M = 1
    for germ in germs:
        mean = mean_index(germ)
        try:
            sign = mean.sign_vs(0)
        except PrecisionInsufficient as exc:
            raise ZeroMeanIndex(
                f"mean index of {germ.name!r} straddles 0: {exc}")
        if sign == 0:
            raise ZeroMeanIndex(f"germ {germ.name!r} has mean index 0")
        rho = 1 if sign > 0 else -1
        beta = _kernel(germ).slope
        alphas = []
        for t, w in weighted_angles(germ.blocks):
            alphas.extend([t] * w)
        for row in spectrum_rows(germ.blocks):
            if row.t.exact and row.t.lo != 0:
                M = lcm(M, row.t.lo.denominator)
        curves.append(CurveProblem(germ, beta, tuple(alphas), mean, rho,
                                   mean if rho > 0 else -mean,
                                   tuple(map(_row, alphas))))

    mu_max = max(len(c.alphas) for c in curves)
    if delta * mu_max >= Fraction(1, 2):
        raise ValueError(
            f"delta too large: delta*max(mu) = {delta * mu_max} >= 1/2")

    if eps is None:
        scale = Fraction(1)
        for c in curves:
            cand = M * c.abs_mean
            if cand.gt(scale):
                scale = Fraction(ceil_int(cand))
        eps = delta / (2 * scale)
    eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 2):
        raise ValueError("epsilon must lie in (0, 1/2)")

    v: List[CertifiedReal] = []
    for c in curves:
        v.append(CertifiedReal.rational(1) / (M * c.abs_mean))
    for c in curves:
        for a in c.alphas:
            if a.eq_certified(c.abs_mean) is True:
                # same declared real above and below the bar
                v.append(CertifiedReal.rational(1))
            else:
                v.append(a / c.abs_mean)
    return JumpProblem(tuple(curves), M, M0, delta, eps, tuple(v),
                       tuple(map(_row, v)))


def _row(x: CertifiedReal) -> _Row:
    lo, hi = x.lo, x.hi
    d = lcm(lo.denominator, hi.denominator)
    return (lo.numerator * (d // lo.denominator),
            hi.numerator * (d // hi.denominator), d, x.exact, x.irrational)


def _times(row: _Row, m: int) -> Tuple[int, int, int, bool]:
    """m*x as (lo, hi, d, irrational), the product [lo/d, hi/d]: a point
    iff the CertifiedReal product is exact, and a ValueError where that
    one raises it.  ``_ceil`` and ``_side`` answer ``exact.ceil_int`` and
    ``exact.near_vertex`` on it: an irrational value is no endpoint."""
    lo, hi, d, _, irrational = row
    lo, hi = (m * lo, m * hi) if m >= 0 else (m * hi, m * lo)
    if hi - lo >= d:
        raise ValueError("interval radius must stay below 1/2")
    return lo, hi, d, irrational and lo != hi


def _ceil(x: Tuple[int, int, int, bool]) -> int:
    lo, hi, d, irrational = x
    c = -(-hi // d)
    if -(-(lo + irrational) // d) != c:
        raise PrecisionInsufficient(f"ceiling of [{lo}/{d}, {hi}/{d}] "
                                    f"undecided")
    return c


def _side(x: Tuple[int, int, int, bool], eps: Fraction) -> Optional[int]:
    """near_vertex's answer, None also where it raises
    PrecisionInsufficient."""
    lo, hi, d, irrational = x
    a, b = eps.numerator, eps.denominator
    if not 0 < 2 * a <= b:
        raise ValueError("eps must lie in (0, 1/2]")
    fl = lo // d
    if (hi - irrational) // d != fl:
        return None  # the certified floor is undecided
    if (hi - fl * d) * b < a * d:
        return 0
    if (d - lo + fl * d) * b < a * d:  # then {x} > eps too: eps <= 1/2
        return 1
    return None


def _delta_count(curve: CurveProblem, m_i: int, delta: Fraction) -> Optional[int]:
    """Weighted count of angles with {m_i * alpha} in (0, delta).

    Returns None when some angle cannot be placed on a side (closeness
    clause violated or undecidable).
    """
    count = 0
    for row in curve.rows:
        x = _times(row, m_i)
        if row[3]:  # exact
            if x[0] % x[2]:
                return None  # rational angle must close up exactly
            continue
        side = _side(x, delta)
        if side is None:
            return None
        if side == 0:
            count += 1
    return count


def _q_value(q_rows: Tuple[Tuple[int, int, int], ...], m_i: int,
             m: int) -> int:
    """Weighted count of rational spectrum points p/q closed by m_i and m.

    The rows (S-, p, q) come from the germ's compiled kernel.
    """
    return sum(w for w, p, q in q_rows
               if m_i * p % q == 0 and m * p % (2 * q) == 0)


@dataclass
class ClauseReport:
    name: str
    ok: bool
    witness: Dict[str, object] = field(default_factory=dict)


@dataclass
class VerificationReport:
    clauses: List[ClauseReport]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.clauses)

    def first_failure(self) -> Optional[ClauseReport]:
        for c in self.clauses:
            if not c.ok:
                return c
        return None


def verify_rounding(problem: JumpProblem, cert: JumpCertificate) -> VerificationReport:
    """Re-check the rounding identities (R1)-(R3) and the Delta recount."""
    clauses: List[ClauseReport] = []
    for i, curve in enumerate(problem.curves):
        m_i = cert.m[i]
        name = curve.germ.name
        lhs = m_i * curve.beta
        for row in curve.rows:
            lhs += _ceil(_times(row, m_i))
        rhs = curve.rho * cert.N + cert.Delta[i]
        clauses.append(ClauseReport(
            "rounding-sum", lhs == rhs,
            {"curve": name, "lhs": lhs, "rhs": rhs}))
        for j, (a, row) in enumerate(zip(curve.alphas, curve.rows)):
            x = _times(row, m_i)
            if a.exact:
                clauses.append(ClauseReport(
                    "rational-integrality", x[0] % x[2] == 0,
                    {"curve": name, "alpha": str(a.lo), "m": m_i}))
                continue
            clauses.append(ClauseReport(
                "angle-closeness", _side(x, problem.delta) is not None,
                {"curve": name, "alpha_index": j}))
        recount = _delta_count(curve, m_i, problem.delta)
        clauses.append(ClauseReport(
            "delta-count", recount == cert.Delta[i],
            {"curve": name, "recount": recount, "Delta": cert.Delta[i]}))
    for j, row in enumerate(problem.v_rows):
        side = _side(_times(row, cert.N), problem.epsilon)
        clauses.append(ClauseReport(
            "vertex-closeness", side == cert.chi[j], {"coordinate": j}))
    return VerificationReport(clauses)


def verify_jump(problem: JumpProblem, cert: JumpCertificate, m_bar: int,
                strict: bool = False) -> VerificationReport:
    """Re-check (J0), (J+), (J-), (J=) for 1 <= m <= m_bar.

    With strict=True the first failure raises IdentityViolation.
    """
    clauses: List[ClauseReport] = []

    def record(name: str, ok: bool, curve: str, m: int, **extra):
        w = {"curve": curve, "m": m, **extra}
        clauses.append(ClauseReport(name, ok, w))
        if strict and not ok:
            raise IdentityViolation(curve, m, name, str(extra))

    for i, curve in enumerate(problem.curves):
        germ = curve.germ
        m_i, rho = cert.m[i], curve.rho
        kernel = _kernel(germ)
        s_plus, c_val = kernel.s_plus, kernel.c
        if 2 * m_i <= m_bar:
            record("horizon-room", False, germ.name, m_bar, m_i=m_i)
            continue
        top = index_at(germ, 2 * m_i)
        want_top = 2 * rho * cert.N - (s_plus + c_val - 2 * cert.Delta[i])
        record("jump-top", top == want_top, germ.name, 0,
               got=top, want=want_top)
        for m in range(1, m_bar + 1):
            base = index_at(germ, m)
            nu = nullity_at(germ, m)
            up = index_at(germ, 2 * m_i + m)
            down = index_at(germ, 2 * m_i - m)
            record("jump-up", up == 2 * rho * cert.N + base, germ.name, m,
                   got=up, want=2 * rho * cert.N + base)
            q = _q_value(kernel.q_rows, m_i, m)
            want_down = 2 * rho * cert.N - base - 2 * (s_plus + q)
            record("jump-down", down == want_down, germ.name, m,
                   got=down, want=want_down)
            record("jump-nullity",
                   nullity_at(germ, 2 * m_i + m) == nu
                   and nullity_at(germ, 2 * m_i - m) == nu,
                   germ.name, m, nu=nu)
    return VerificationReport(clauses)


def _coord_tester(row: _Row, eps: Fraction):
    """Integer-only vertex test for one coordinate of N*v.

    The scan is the hot loop of the search; fractional-part placement
    against eps reduces to integer modular arithmetic, exactly.  The
    returned callable gives 0/1 for a certified vertex side, None for
    certified-far, and the string "skip" when an interval coordinate
    straddles an integer (undecidable at this width).
    """
    a, b = eps.numerator, eps.denominator
    L, H, scale, exact, _ = row
    if exact:
        p, q = L, scale

        def side_exact(N: int) -> object:
            r = (N * p) % q
            if r * b < a * q:
                return 0
            if r and (q - r) * b < a * q:
                return 1
            return None

        return side_exact

    a_scale = a * scale

    def side_interval(N: int) -> object:
        base = (N * L) // scale
        f_lo = N * L - base * scale
        f_hi = N * H - base * scale
        if f_hi >= scale:
            return "skip"
        if f_hi * b < a_scale:
            return 0
        if (scale - f_lo) * b < a_scale:
            return 1
        return None

    return side_interval


def _assemble(problem: JumpProblem, N: int, chi: List[int],
              m_bar: int) -> Optional[JumpCertificate]:
    m_vec: List[int] = []
    for i, curve in enumerate(problem.curves):
        try:
            base = floor_int(problem.v[i] * N)
        except PrecisionInsufficient as exc:
            log.info("skipping N=%d: %s", N, exc)
            return None
        m_i = (base + chi[i]) * problem.M
        if m_i < 1 or 2 * m_i <= m_bar:
            return None
        m_vec.append(m_i)

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
    if not verify_jump(problem, cert, m_bar).ok:
        return None
    return cert


def search(problem: JumpProblem, n_min: int, n_max: int, *,
           m_bar: int = 1) -> JumpCertificate:
    """Smallest N in [n_min, n_max] whose certificate fully verifies.

    Deterministic: the scan runs over multiples of M0 in increasing
    order, and a candidate is only returned once every rounding and jump
    clause has been recomputed and passed.
    """
    if n_min > n_max:
        raise ValueError("empty search range")
    testers = [_coord_tester(row, problem.epsilon) for row in problem.v_rows]
    M0 = problem.M0
    first = ((max(n_min, 1) + M0 - 1) // M0) * M0
    for N in range(first, n_max + 1, M0):
        chi: List[int] = []
        for tester in testers:
            side = tester(N)
            if side is None:
                break
            if side == "skip":
                log.info("skipping N=%d: coordinate width straddles "
                         "an integer", N)
                break
            chi.append(side)
        else:
            cert = _assemble(problem, N, chi, m_bar)
            if cert is not None:
                return cert
    raise NotFound(n_max)


def scale(problem: JumpProblem, cert: JumpCertificate,
          p_hat: int, m_bar: int = 1) -> ScaledCertificate:
    """Scale a certificate by p_hat and verify every scaling relation.

    The certificate must have been produced at tolerances delta/p_hat
    and eps/p_hat relative to the intended ones; the scaled quantities
    are recomputed at p_hat times the certificate's own tolerances and
    must reproduce chi, p_hat*m, and Delta exactly (ScaleMismatch
    otherwise), after which the shifted index identities are re-checked
    at the scaled N.
    """
    if p_hat < 1:
        raise ValueError("p_hat must be positive")
    mu_max = max(len(c.alphas) for c in problem.curves)
    if p_hat * cert.delta * mu_max >= Fraction(1, 2):
        raise ValueError("scaled delta violates the smallness hypothesis")
    N_hat = p_hat * cert.N
    delta_hat, eps_hat = _scaled_tolerances(cert, p_hat)

    checks: List[Tuple[str, bool]] = []
    chi_hat: List[int] = []
    for j, row in enumerate(problem.v_rows):
        side = _side(_times(row, N_hat), eps_hat)
        if side is None:
            raise ScaleMismatch(f"scaled vertex closeness fails at "
                                f"coordinate {j}")
        chi_hat.append(side)
    checks.append(("chi-invariance", tuple(chi_hat) == cert.chi))

    m_hat: List[int] = []
    for i, curve in enumerate(problem.curves):
        base = floor_int(problem.v[i] * N_hat)
        m_hat.append((base + chi_hat[i]) * problem.M)
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
    ident = verify_jump(problem, scaled.certificate, m_bar)
    if not ident.ok:
        fail = ident.first_failure()
        raise ScaleMismatch(f"scaled identity fails: {fail.name} "
                            f"{fail.witness}")
    return scaled


def delta_invariance(problem: JumpProblem, cert: JumpCertificate,
                     delta1: Fraction, delta2: Fraction) -> bool:
    """Whether the Delta recount agrees under two admissible deltas."""
    mu_max = max(len(c.alphas) for c in problem.curves)
    for d in (Fraction(delta1), Fraction(delta2)):
        if not 0 < d < Fraction(1, 2) or d * mu_max >= Fraction(1, 2):
            raise ValueError(f"delta {d} violates the smallness hypothesis")
    for i, curve in enumerate(problem.curves):
        c1 = _delta_count(curve, cert.m[i], Fraction(delta1))
        c2 = _delta_count(curve, cert.m[i], Fraction(delta2))
        if c1 is None or c2 is None or c1 != c2:
            return False
    return True
