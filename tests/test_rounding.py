"""The rounding path against its CertifiedReal oracles.

``exact.near_vertex``, the jump search and the jump rounding clauses
place x, m_i*alpha and N*v on integer rows compiled once per germ and
per problem (``exact._row``, ``_times``, ``_floor``, ``_ceil``,
``_placement``).  They must return what the oracles return, or raise
the same exception type, on every input, the boundaries above all:
integer endpoints of declared-irrational values, zero-width values
built from their ends, and eps exactly at {x} or at 1 - {x}.
"""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import floor

from geoindex import exact, jump
from geoindex.exact import CertifiedReal, PrecisionInsufficient, near_vertex
from geoindex.iteration import IndexGerm
from geoindex.jump import (JumpCertificate, build_problem, search,
                           verify_rounding)
from geoindex.normal_forms import B_ZERO, D, N1, R

from .corpus import jump_corpus
from .oracle import (ceil_oracle, delta_count_oracle, floor_oracle,
                     near_vertex_oracle, side_oracle, verify_rounding_oracle)

CR = CertifiedReal
GRIDS = (2, 3, 4, 6, 12, 60, 97, 10 ** 4, 10 ** 7)


def _exact(rng):
    q = rng.choice(GRIDS[:7])
    return CR.rational(Fraction(rng.randint(-3 * q, 3 * q), q))


def _decimal(rng):
    k = rng.randint(1, 8)
    digits = f"{rng.randint(-30, 30)}.{rng.randrange(10 ** k):0{k}d}"
    return CR.decimal(digits, Fraction(1, 10 ** rng.randint(1, k)))


def _grid(rng, irrational):
    g = rng.choice(GRIDS)
    width = rng.randint(1, max(1, min(3, g - 1)))
    a = rng.randint(-3 * g, 3 * g)
    return CR.interval(Fraction(a, g), Fraction(a + width, g), irrational)


def _integer_end(rng):
    """Declared irrational, with an integer lower or upper endpoint."""
    n, w = Fraction(rng.randint(-3, 3)), Fraction(1, rng.choice(GRIDS[1:]))
    if rng.random() < 0.5:
        return CR.interval(n, n + w, irrational=True)
    return CR.interval(n - w, n, irrational=True)


def _point(rng):
    """A zero-width value built from its ends."""
    f = Fraction(rng.randint(-40, 40), rng.choice(GRIDS[:6]))
    return CR(f, f)


KINDS = {
    "exact": _exact,
    "decimal": _decimal,
    "interval": lambda rng: _grid(rng, False),
    "irrational": lambda rng: _grid(rng, True),
    "integer-end": _integer_end,
    "point": _point,
}


def _tolerances(rng, lo, hi):
    """A few tolerances, plus each one exactly at {lo}, {hi}, 1 - {lo}
    and 1 - {hi} that lies in (0, 1/2], and now and then an invalid one."""
    out = [Fraction(rng.randint(1, 50), 100),
           Fraction(1, rng.choice((3, 7, 64, 1000)))]
    for end in (lo, hi):
        f = end - floor(end)
        out += [e for e in (f, 1 - f) if 0 < e <= Fraction(1, 2)]
    if rng.random() < 0.1:
        out.append(rng.choice((Fraction(0), Fraction(3, 5), Fraction(-1, 4))))
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (PrecisionInsufficient, ValueError) as exc:
        return type(exc).__name__


def test_near_vertex_matches_oracle():
    rng = random.Random(7)
    seen = Counter()
    for _ in range(3000):
        kind = rng.choice(sorted(KINDS))
        x = KINDS[kind](rng)
        for eps in _tolerances(rng, x.lo, x.hi):
            want = _outcome(near_vertex_oracle, x, eps)
            assert _outcome(near_vertex, x, eps) == want, (x, eps)
            seen[want] += 1
            seen[kind] += 1
    assert min(seen.values()) >= 50, seen


def _floor(alpha, m):
    return exact._floor(exact._times(exact._row(alpha), m))


def _ceil(alpha, m):
    return exact._ceil(exact._times(exact._row(alpha), m))


def _side(alpha, m, eps):
    try:
        return exact._placement(exact._row(alpha), eps)(m)
    except PrecisionInsufficient:
        return None


def _iterates(rng, alpha):
    """0, negatives, small iterates, multiples of the denominators (they
    put endpoints on integers) and iterates too large for the width."""
    d = exact._row(alpha)[2]
    return [0, rng.randint(-20, -1), rng.randint(1, 12),
            d * rng.randint(1, 3), d * rng.randint(1, 3) + rng.choice((-1, 1)),
            rng.randint(10 ** 5, 10 ** 8)]


def test_integer_placement_matches_oracle():
    rng = random.Random(11)
    seen = Counter()
    for _ in range(1500):
        kind = rng.choice(sorted(KINDS))
        alpha = KINDS[kind](rng)
        for m in _iterates(rng, alpha):
            want = _outcome(lambda: ceil_oracle(alpha * m))
            assert _outcome(_ceil, alpha, m) == want, (alpha, m)
            seen["ceil", want if isinstance(want, str) else "value"] += 1
            want = _outcome(lambda: floor_oracle(alpha * m))
            assert _outcome(_floor, alpha, m) == want, (alpha, m)
            seen["floor", want if isinstance(want, str) else "value"] += 1
            if alpha.exact:
                p, _, q, _ = exact._row(alpha)
                assert (m * p % q == 0) == ((alpha.lo * m).denominator == 1)
            lo, hi = sorted((alpha.lo * m, alpha.hi * m))
            for eps in _tolerances(rng, lo, hi):
                want = _outcome(side_oracle, alpha, m, eps)
                assert _outcome(_side, alpha, m, eps) == want, (alpha, m, eps)
                seen["side", want] += 1
    assert min(seen.values()) >= 50, seen


# -- whole clause lists ----------------------------------------------------

def _block(rng):
    """A 2x2 block whose angle, if any, is a valid rotation angle of one
    of the kinds above."""
    if rng.random() < 0.2:
        return rng.choice((D(CR.rational(2)), N1(-1, B_ZERO)))
    while True:
        kind = rng.choice(("exact", "interval", "irrational", "integer-end",
                           "point"))
        t = KINDS[kind](rng)
        k = floor(t.lo) - rng.randint(0, 1)  # shift into [0, 2), flags kept
        try:
            return R(CR(t.lo - k, t.hi - k, irrational=t.irrational))
        except (ValueError, PrecisionInsufficient):
            continue  # not certified inside (0, 1) or (1, 2)


def _problems(rng, count):
    """Jump problems on random germs, delta up to 1/9 (four angles)."""
    out = []
    while len(out) < count:
        germs = tuple(IndexGerm(f"g{len(out)}.{i}", rng.randint(-4, 6),
                                (_block(rng), _block(rng)))
                      for i in range(rng.randint(1, 3)))
        delta = rng.choice((Fraction(1, 9), Fraction(1, 16), Fraction(1, 68)))
        try:
            out.append(build_problem(germs, delta, delta))
        except (ValueError, PrecisionInsufficient):
            continue  # zero mean index, or delta too large for the system
    return out


def _certificate(problem, rng, m):
    return JumpCertificate(
        N=rng.randint(1, 10 ** 4), m=tuple(m),
        chi=tuple(rng.randint(0, 1) for _ in problem.v),
        Delta=tuple(rng.randint(0, 2) for _ in m),
        rho=tuple(c.rho for c in problem.curves), delta=problem.delta,
        epsilon=problem.epsilon, M=problem.M, M0=problem.M0,
        names=tuple(c.germ.name for c in problem.curves))


def _clauses(problem, cert):
    return [(c.name, c.ok, c.witness)
            for c in verify_rounding(problem, cert).clauses]


def _on_grid(rng, curve):
    """An iterate that puts m*alpha on or near an integer for some angle."""
    if not curve.kernel.rows:
        return rng.randint(1, 30)
    _, _, d, _ = rng.choice(curve.kernel.rows)
    return d * rng.randint(1, 4) + rng.choice((-1, 0, 0, 1))


def _summed(case):
    """The certificate with N and Delta moved so that every rounding sum
    holds (None where a sum is undecided), so that the Delta recount or
    vertex closeness decides alone."""
    problem, cert = case
    try:
        lhs = [w["lhs"] for name, _, w in verify_rounding_oracle(problem, cert)
               if name == "rounding-sum"]
    except (PrecisionInsufficient, ValueError):
        return None
    N = problem.curves[0].rho * (lhs[0] - cert.Delta[0])
    return problem, replace(cert, N=N, Delta=tuple(
        s - c.rho * N for s, c in zip(lhs, problem.curves)))


def test_rounding_clauses_match_oracle():
    rng = random.Random(13)
    seen, alone = Counter(), Counter()
    cases = []
    for problem in _problems(rng, 120):
        for _ in range(6):
            m = [rng.choice((rng.randint(-3, 30),
                             problem.M * rng.randint(1, 40),
                             _on_grid(rng, curve)))
                 for curve in problem.curves]
            cases.append((problem, _certificate(problem, rng, m)))
    # searched certificates, scaled and shifted
    for germs in jump_corpus(6, seed=21):
        problem = build_problem(germs, Fraction(1, 64), Fraction(1, 64))
        cert = search(problem, 1, 10 ** 6)
        for m in (cert.m, [2 * x for x in cert.m], [x + 1 for x in cert.m]):
            cases.append((problem, replace(cert, m=tuple(m))))
    cases += [case for case in map(_summed, cases) if case is not None]
    for problem, cert in cases:
        want = _outcome(verify_rounding_oracle, problem, cert)
        assert _outcome(_clauses, problem, cert) == want, cert
        verdict = _outcome(lambda p, c: verify_rounding(p, c).ok,
                           problem, cert)
        assert verdict == (want if isinstance(want, str)
                           else all(ok for _, ok, _ in want)), cert
        for curve, m_i in zip(problem.curves, cert.m):
            count = _outcome(delta_count_oracle, curve, m_i, problem.delta)
            assert _outcome(jump._delta_count, curve, m_i,
                            problem.delta) == count
            seen["count", count if count is None or isinstance(count, str)
                 else "value"] += 1
        if isinstance(want, str):
            seen["raised", want] += 1
        else:
            failed = {name for name, ok, _ in want if not ok}
            if len(failed) == 1:
                alone.update(failed)
            seen["angle-closeness", any(
                name == "angle-closeness" and ok for name, ok, _ in want)] += 1
            seen["delta-count", any(
                name == "delta-count" and ok for name, ok, _ in want)] += 1
    assert min(seen.values()) >= 10, seen
    # each part of the verdict is the only one to fail somewhere
    assert min(alone[name] for name in ("rounding-sum", "delta-count",
                                        "vertex-closeness")) >= 2, alone
