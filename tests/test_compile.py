"""The per-germ compile and the jump problem's set-up against the
block-walking oracles.

``iteration._kernel`` reads each block's splitting table once and derives
S+, C, the weighted angles, the spectrum denominators and the mean index
as integer rows from that one pass; ``build_problem``, ``is_bumpy`` and
the growth horizons read it, on integers.
Each number must equal, as the same integer tuple, what the walkers and
reference builders of ``tests/oracle.py`` compute in ``CertifiedReal``
arithmetic, or fail with the same exception and message, on every block
kind: N1 at +1 and -1, D, trivial and nontrivial N2, and R with an
exact, a decimal-interval and a declared-irrational angle.  A zero-width
interval built not exact comes out exact, and counts as an exact angle.
"""

import random
from collections import Counter
from fractions import Fraction

from geoindex.exact import CertifiedReal, PrecisionInsufficient, _row
from geoindex.iteration import (IndexGerm, _growth_horizon, _kernel,
                                index_at, is_bumpy, mean_index)
from geoindex.jump import build_problem
from geoindex.normal_forms import (B_NEGATIVE, B_POSITIVE, B_ZERO, D, N1, N2,
                                   R, _conjugate, big_C)

from .oracle import (angle_list, bumpy_oracle, horizon_oracle, index_oracle,
                     mean_oracle, problem_oracle, s_plus_at_one, spectrum_lcm,
                     weighted_angles)

CR = CertifiedReal
GRIDS = (3, 4, 6, 10, 12, 60, 10 ** 4)
ANGLES = ("exact", "decimal", "irrational", "point")


def _angle(rng, kind):
    """A valid rotation angle t in (0,1) u (1,2) of the given kind."""
    while True:
        if kind == "exact":
            q = rng.choice((2, 3, 4, 5, 6, 12, 97))
            t = CR.rational(Fraction(rng.randint(1, 2 * q - 1), q))
        elif kind == "decimal":
            k = rng.randint(1, 5)
            digits = f"{rng.randint(0, 1)}.{rng.randrange(10 ** k):0{k}d}"
            t = CR.decimal(digits, Fraction(1, 10 ** rng.randint(1, k)))
        elif kind == "irrational":
            g = rng.choice(GRIDS)
            a = rng.randint(0, 2 * g - 1)
            t = CR.interval(Fraction(a, g), Fraction(a + 1, g), True)
        else:
            g = rng.choice(GRIDS)
            f = Fraction(rng.randint(1, 2 * g - 1), g)
            t = CR(f, f)
            assert t.exact and t == CR.rational(f), t
        try:
            return R(t).t
        except (ValueError, PrecisionInsufficient):
            continue  # not certified inside (0, 1) or (1, 2)


def _block(rng, room):
    kind = rng.choice(("N1", "D", "R", "R", "N2") if room >= 4
                      else ("N1", "D", "R", "R"))
    if kind == "N1":
        return N1(rng.choice((1, -1)),
                  rng.choice((B_POSITIVE, B_ZERO, B_NEGATIVE)))
    if kind == "D":
        return D(CR.rational(rng.choice((2, 3, -2))))
    t = _angle(rng, rng.choice(ANGLES))
    return R(t) if kind == "R" else N2(t, nontrivial=rng.random() < 0.5)


def _germ(rng, name):
    n = rng.choice((2, 3, 4))
    blocks, room = [], 2 * n - 2
    while room:
        b = _block(rng, room)
        blocks.append(b)
        room -= 4 if isinstance(b, N2) else 2
    return IndexGerm(name, rng.randint(-4, 6), tuple(blocks), n=n)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (PrecisionInsufficient, ValueError) as exc:
        return type(exc).__name__


def _kind(t):
    return "exact" if t.exact else "irrational" if t.irrational else "decimal"


def _failure(fn, *args):
    """The value, or "type: message" of the exception raised."""
    try:
        return fn(*args)
    except (PrecisionInsufficient, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _same(a, b):
    """Equal CertifiedReals, flags included, or the same failure."""
    if isinstance(a, CR) and isinstance(b, CR):
        return a == b and (a.exact, a.irrational) == (b.exact, b.irrational)
    return a == b


# hand-made germs for the boundaries of the horizon ceiling, of the mean
# and of M
_EDGES = {g.name: g for g in (
    # mean = t = [31/50, 2/3] declared irrational: (i1 + 4 + C)/mean lies
    # in [9, 9.68], 9 excluded; without the flag the ceiling is undecided
    IndexGerm("edge.irr", 1, (R(CR.interval(Fraction(31, 50), Fraction(2, 3),
                                            True)), D(CR.rational(2)))),
    IndexGerm("edge.dec", 1, (R(CR.interval(Fraction(31, 50),
                                            Fraction(2, 3))),
                              D(CR.rational(2)))),
    # 1/mean is wider than 1: no CertifiedReal
    IndexGerm("edge.wide", 1, (R(CR.interval(Fraction(1, 10), Fraction(1, 5),
                                             True)), D(CR.rational(2)))),
    # widths 0.6 + 0.6: the mean is no CertifiedReal, the index still is
    IndexGerm("edge.widemean", 3, (
        R(CR.interval(Fraction(1, 10), Fraction(7, 10), True)),
        R(CR.interval(Fraction(11, 10), Fraction(17, 10), True))), n=3),
    # trivial N2 pairs: S- = 0, yet their exact angles enter M
    IndexGerm("edge.n2", 2, (N2(CR.rational(Fraction(2, 7)), False),)),
    IndexGerm("edge.n2pt", 2, (N2(CR(Fraction(3, 5), Fraction(3, 5)),
                                  False),)),
    IndexGerm("edge.rpt", 2, (R(CR(Fraction(4, 9), Fraction(4, 9))),
                              N1(-1, B_ZERO))),
)}


def _germs(count):
    rng = random.Random(6)
    return list(_EDGES.values()) + [_germ(rng, f"c{k}")
                                    for k in range(count)]


def test_conjugate_is_two_minus_t():
    rng = random.Random(4)
    for _ in range(400):
        t = _angle(rng, rng.choice(ANGLES))
        assert _same(_conjugate(t), CR.rational(2) - t), t


def test_compile_matches_block_walkers():
    seen = Counter()
    for germ in _germs(1500):
        k = _kernel(germ)
        blocks = germ.blocks
        assert k.s_plus == s_plus_at_one(blocks), germ
        assert k.c == big_C(blocks), germ
        assert k.slope == germ.i1 + k.s_plus - k.c
        assert k.rows == tuple(map(_row, angle_list(blocks))), germ
        assert (k.exact, k.interval) == _angle_terms(blocks), germ
        assert is_bumpy(germ) == bumpy_oracle(germ), germ
        assert k.M == spectrum_lcm(blocks), germ
        mean = _outcome(mean_oracle, germ)
        assert _same(_outcome(mean_index, germ), mean), germ
        if isinstance(mean, CR):
            assert k.mean == _row(mean), germ
        seen["mean", mean.exact if isinstance(mean, CR) else mean] += 1
        for b in blocks:
            if isinstance(b, N1):
                seen["N1", b.eigenvalue] += 1
            elif isinstance(b, N2):
                seen["N2", b.nontrivial, _kind(b.t)] += 1
            elif isinstance(b, R):
                seen["R", _kind(b.t)] += 1
            else:
                seen["D"] += 1
    # every block kind and angle kind; exact, interval and too wide means
    assert len(seen) == 3 + 2 + 1 + 3 + 2 * 3 and min(seen.values()) >= 1, seen
    wide = _EDGES["edge.widemean"]
    assert _kernel(wide).mean == (11, 17, 5, False)  # [2.2, 3.4]
    assert [index_at(wide, m) for m in (1, 2)] == [3, 6]
    assert index_oracle(wide, 2) == 6


def _angle_terms(blocks):
    """The kernel's exact and interval terms from the walkers: (2w, p, 2q)
    per weighted point angle, (2w, lo, hi, 2d, irrational) per other."""
    exact, interval = [], []
    for t, w in weighted_angles(blocks):
        L, H, d, irrational = _row(t)
        if L == H:
            exact.append((2 * w, L, 2 * d))
        else:
            interval.append((2 * w, L, H, 2 * d, irrational))
    return tuple(exact), tuple(interval)


def test_growth_horizons_match_certified_division():
    seen = Counter()
    for germ in _germs(1500):
        for target in (germ.i1, germ.i1 + 4):
            want = _outcome(horizon_oracle, germ, target)
            got = _outcome(_growth_horizon, germ, target)
            assert got == want, (germ, target)
            seen[want if isinstance(want, str) else "value"] += 1
    edges = {name: _outcome(_growth_horizon, g, g.i1 + 4)
             for name, g in _EDGES.items()}
    assert edges["edge.irr"] == 10 and edges["edge.wide"] == "ValueError"
    assert edges["edge.dec"] == "PrecisionInsufficient"
    assert min(seen.values()) >= 20, seen


def _vertex_oracle(germs):
    """v by CertifiedReal division, failing where build_problem does."""
    return tuple(problem_oracle(germs, Fraction(1, 1000),
                                Fraction(1, 1000))[3])


# mean = t = [1/50, 21/1000]: 1/mean is wider than 1, so t/mean, about
# [0.95, 1.05], is no CertifiedReal division; M = 3 keeps 1/(M*mean)
# narrow enough
_NARROW_QUOTIENT = (
    IndexGerm("q.small", 1, (R(CR.interval(Fraction(1, 50),
                                           Fraction(21, 1000))),
                             D(CR.rational(2)))),
    IndexGerm("q.third", 2, (R(CR.rational(Fraction(1, 3))),
                             D(CR.rational(2)))),
)


def test_vertex_coordinates_match_certified_division():
    rng = random.Random(8)
    germs = _germs(1200)
    seen = Counter()
    systems = [_NARROW_QUOTIENT] + [rng.sample(germs, rng.randint(1, 3))
                                    for _ in range(600)]
    for system in systems:
        try:
            if any(m.sign_vs(0) == 0 or 0 in (m.lo, m.hi)
                   for m in map(mean_index, system)):
                continue  # a mean at 0, or with an end there: no 1/mean
        except (PrecisionInsufficient, ValueError):
            continue  # build_problem refuses the system before any v
        want = _outcome(_vertex_oracle, system)
        got = _outcome(build_problem, system, Fraction(1, 1000),
                       Fraction(1, 1000))
        if isinstance(got, str) or isinstance(want, str):
            assert got == want, system
            seen[got] += 1
            continue
        assert len(got.v) == len(want) and all(map(_same, got.v, want))
        assert got.v_rows == tuple(map(_row, want))
        seen["value"] += 1
        seen["irrational"] += any(x.irrational for x in want)
    assert _outcome(_vertex_oracle, _NARROW_QUOTIENT) == "ValueError"
    assert min(seen.values()) >= 20, seen


# germs on which the set-up fails, one way each, and their neighbours
_LAM = D(CR.rational(2))
_HOSTILE = tuple(
    [IndexGerm(f"h.n1.{b}.{i1}", i1, (N1(-1, b), _LAM))
     for b in (B_POSITIVE, B_ZERO, B_NEGATIVE) for i1 in (-1, 0, 1)] + [
        # zero-width values built from their ends
        IndexGerm("h.point", 1, (R(CR(Fraction(1, 3), Fraction(1, 3))),
                                 _LAM)),
        IndexGerm("h.point.n2", 1, (N2(CR(Fraction(5, 4), Fraction(5, 4)),
                                       True),)),
        # undeclared decimal angles: the mean [-1/5, 1/5] straddles 0
        IndexGerm("h.undeclared", 1, (R(CR.parse("0.5~1")),
                                      R(CR.parse("0.5~1")))),
        # declared-irrational means [0, 1/5] and [-1/5, 0]
        IndexGerm("h.end.lo", 1, (R(CR.interval(Fraction(0), Fraction(1, 5),
                                                True)), _LAM)),
        IndexGerm("h.end.hi", 0, (R(CR.interval(Fraction(4, 5), Fraction(1),
                                                True)), _LAM)),
        # 1/mean is about [1666.7, 2500]; [1, 2] and 2/mean = [2, 3] are
        # exactly 1 wide
        IndexGerm("h.wide", 1, (R(CR.parse("0.0005~4", irrational=True)),
                                _LAM)),
        IndexGerm("h.wide.1", 1, (R(CR.interval(Fraction(1, 2), Fraction(1),
                                                True)), _LAM)),
        IndexGerm("h.wide.2", 1, (R(CR.interval(Fraction(2, 3), Fraction(1),
                                                True)), _LAM)),
        # M*|mean| = [9/10, 11/10] against 1, [29/10, 31/10] to round up
        IndexGerm("h.eps", 1, (R(CR.interval(Fraction(9, 10),
                                             Fraction(11, 10), True)), _LAM)),
        IndexGerm("h.ceil", 3, (R(CR.interval(Fraction(9, 10),
                                              Fraction(11, 10), True)),
                                _LAM)),
        # two weighted angles: delta = 1/4 puts delta*max(mu) at 1/2
        IndexGerm("h.two", 4, (R(CR.rational(Fraction(1, 3))),
                               R(CR.rational(Fraction(2, 5))))),
    ])


def _problem(germs, delta, eps):
    p = build_problem(germs, delta, eps)
    return tuple(c.rho for c in p.curves), p.M, p.epsilon, p.v_rows


def _problem_oracle(germs, delta, eps):
    rho, M, eps, v = problem_oracle(germs, delta, eps)
    return rho, M, eps, tuple(map(_row, v))


def _agree(got, want):
    """The same value, or the same exception with the same message; an
    undecided ceiling is worded by each side's own rounding."""
    undecided = "PrecisionInsufficient: ceiling of"
    if isinstance(got, str) and got.startswith(undecided):
        return isinstance(want, str) and want.startswith(
            "PrecisionInsufficient:")
    return got == want


def test_setup_raises_like_the_reference_builders():
    rng = random.Random(9)
    pool = list(_HOSTILE) + _germs(150)
    outcomes = []
    for germ in pool:
        assert _failure(mean_index, germ) == _failure(mean_oracle, germ)
        for target in (germ.i1, germ.i1 + 4):
            got = _failure(_growth_horizon, germ, target)
            assert _agree(got, _failure(horizon_oracle, germ, target)), germ
            outcomes.append(got)
    systems = [[g] for g in _HOSTILE] + [[g, _EDGES["edge.n2"]]
                                         for g in _HOSTILE]
    systems += [rng.sample(pool, rng.randint(1, 3)) for _ in range(300)]
    for system in systems:
        for delta, eps in ((Fraction(1, 1000), Fraction(1, 1000)),
                           (Fraction(1, 64), None),
                           (Fraction(1, 4), Fraction(1, 7))):
            got = _failure(_problem, system, delta, eps)
            want = _failure(_problem_oracle, system, delta, eps)
            assert _agree(got, want), (system, delta, eps)
            outcomes.append(got)
    raised = [x for x in outcomes if isinstance(x, str)]
    for phrase in ("nonpositive mean index", "has mean index 0",
                   "straddles 0", "has an end at 0", "cannot compare",
                   "ceiling of", "1/mean of", "1/|mean| of",
                   "delta too large: delta*max(mu) = 1/2",
                   "interval radius must stay below 1/2"):
        assert any(phrase in x for x in raised), phrase
    assert len(outcomes) - len(raised) >= 500
