"""Properties of the one placement rule, ``exact._placement``.

The rule answers where m*x sits against the integers and eps for the
jump search, the rounding clauses, ``scale`` and ``near_vertex``.  It,
``floor_int`` and ``ceil_int`` must agree with the ``CertifiedReal``
oracles where the boundary cases live (declared-irrational values with
an end on an integer, zero-width points), a narrower enclosure of the same declared-irrational value
must never flip a decided answer, and the search must return the
smallest N that the oracle accepts.  Examples are derandomized and no
example database is kept, so every run checks the same inputs.
"""

from fractions import Fraction
from math import floor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoindex import jump
from geoindex.exact import (CertifiedReal, PrecisionInsufficient, _placement,
                            _row, ceil_int, floor_int, near_vertex)
from geoindex.iteration import IndexGerm
from geoindex.jump import JumpProblem, NotFound, build_problem, search
from geoindex.normal_forms import D, R
from geoindex.samples import hyperbolic_germ

from .oracle import (candidate_oracle, ceil_oracle, floor_oracle,
                     near_vertex_oracle, side_oracle)

CR = CertifiedReal
SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=300)
EPSILONS = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 64))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (PrecisionInsufficient, ValueError) as exc:
        return type(exc).__name__


def _place(x, m, eps):
    return _placement(_row(x), eps)(m)


def _frac(q):
    return q - floor(q)


@st.composite
def _integer_end(draw):
    """Declared irrational (or not), with an end at p/q: some multiples
    put that end on an integer."""
    q = draw(st.integers(1, 7))
    c = Fraction(draw(st.integers(-3 * q, 3 * q)), q)
    w = Fraction(draw(st.integers(1, 11)), draw(st.integers(12, 60)))
    irrational = draw(st.booleans())
    if draw(st.booleans()):
        return CR.interval(c, c + w, irrational), q
    return CR.interval(c - w, c, irrational), q


@st.composite
def _point(draw):
    """A zero-width value built from its ends."""
    q = draw(st.integers(1, 12))
    f = Fraction(draw(st.integers(-5 * q, 5 * q)), q)
    return CR(f, f), q


@st.composite
def _placements(draw):
    """(x, m, eps) with m*x on or next to an integer, and eps among a
    few fixed values and those at the ends of {m*x} and 1 - {m*x}."""
    x, q = draw(st.one_of(_integer_end(), _point()))
    m = q * draw(st.integers(-6, 6)) + draw(st.sampled_from((0, 0, 1, -1)))
    at_ends = [e for end in (m * x.lo, m * x.hi)
               for e in (_frac(end), 1 - _frac(end))
               if 0 < e <= Fraction(1, 2)]
    eps = draw(st.sampled_from(EPSILONS + tuple(at_ends)))
    return x, m, eps


@SETTINGS
@given(_placements())
def test_placement_matches_oracles(case):
    x, m, eps = case
    got = _outcome(_place, x, m, eps)
    assert got == _outcome(lambda: near_vertex_oracle(x * m, eps))
    assert got == _outcome(lambda: near_vertex(x * m, eps))
    side = None if got == "PrecisionInsufficient" else got
    assert side == _outcome(side_oracle, x, m, eps)
    for lib, oracle in ((floor_int, floor_oracle), (ceil_int, ceil_oracle)):
        assert _outcome(lambda: lib(x * m)) == _outcome(lambda: oracle(x * m))


@st.composite
def _narrowings(draw):
    """A declared-irrational x around an integer or a point of a small
    grid, and a narrower enclosure of it whose ends may sit on that
    integer or point."""
    q = draw(st.integers(1, 6))
    c = Fraction(draw(st.integers(-3 * q, 3 * q)), q)
    grid = draw(st.integers(2, 40))
    below = Fraction(draw(st.integers(0, grid - 1)), 2 * grid)
    above = Fraction(draw(st.integers(0, grid - 1)), 2 * grid)
    if below == above == 0:
        above = Fraction(1, 2 * grid)
    lo, hi = c - below, c + above
    ends = sorted({lo, hi, c, lo + (hi - lo) / 3, hi - (hi - lo) / 4})
    i = draw(st.integers(0, len(ends) - 2))
    j = draw(st.integers(i + 1, len(ends) - 1))
    return (CR.interval(lo, hi, True), CR.interval(ends[i], ends[j], True),
            ends)


def _queries(x, ends, m, eps):
    out = [_outcome(floor_int, x), _outcome(ceil_int, x),
           _outcome(near_vertex, x, eps), _outcome(_place, x, m, eps)]
    return out + [_outcome(x.sign_vs, r) for r in ends]


@SETTINGS
@given(_narrowings(), st.integers(-12, 12), st.sampled_from(EPSILONS))
def test_narrowing_never_flips_a_decision(case, m, eps):
    wide, narrow, ends = case
    for w, n in zip(_queries(wide, ends, m, eps),
                    _queries(narrow, ends, m, eps)):
        if not isinstance(w, str):
            assert n == w, (wide, narrow, m, eps)


# -- the search against the oracle ----------------------------------------

_BASE = build_problem([hyperbolic_germ("H", 1)], Fraction(1, 64))


def _problem(extras, eps, before):
    """The hyperbolic germ's problem, on which every N certifies, with
    vertex coordinates added before or after its own: only their sides
    decide N.  Placed before, the first extra coordinate is the head of
    the scan and also sets the iterate."""
    extras = tuple(map(_row, extras))
    rows = extras + _BASE.v_rows if before else _BASE.v_rows + extras
    return JumpProblem(_BASE.curves, _BASE.M, 1, _BASE.delta, eps, rows)


@st.composite
def _coordinate(draw):
    """An exact p/q, q up to 60, so that it rejects most N; or declared
    irrational with an end at p/q, q small: N*end is an integer for
    every multiple N of q."""
    if draw(st.booleans()):
        q = draw(st.integers(1, 60))
        return CR.rational(draw(st.integers(0, 2 * q)), q)
    q = draw(st.integers(1, 6))
    c = Fraction(draw(st.integers(0, 2 * q)), q)
    w = Fraction(1, draw(st.integers(2, 400)))
    return CR.interval(c, c + w, True) if draw(st.booleans()) \
        else CR.interval(c - w, c, True)


N_MAX = 60


@SETTINGS
@given(st.lists(_coordinate(), min_size=1, max_size=2),
       st.sampled_from(EPSILONS), st.booleans())
@example([CR.interval(Fraction(1, 3), Fraction(1, 2), True)], Fraction(1, 2),
         False)
@example([CR.interval(Fraction(33, 100), Fraction(1, 3), True)],
         Fraction(1, 64), False)
@example([CR.rational(1), CR.rational(7, 12)], Fraction(1, 64), True)
@example([CR.rational(5, 47)], Fraction(1, 64), True)
def test_search_finds_the_first_oracle_certificate(extras, eps, before):
    problem = _problem(extras, eps, before)
    want = next((cert for n in range(1, N_MAX + 1)
                 if (cert := candidate_oracle(problem, n, 1)) is not None),
                None)
    if want is None:
        with pytest.raises(NotFound):
            search(problem, 1, N_MAX)
    else:
        assert search(problem, 1, N_MAX) == want, (extras, eps)


def test_found_inputs_place_like_near_vertex():
    for v, eps, n in ((CR.interval(Fraction(1, 3), Fraction(1, 2), True),
                       Fraction(1, 2), 2),
                      (CR.interval(Fraction(33, 100), Fraction(1, 3), True),
                       Fraction(1, 64), 3)):
        assert _place(v, n, eps) == near_vertex(v * n, eps) == 1


def test_search_stops_once_a_coordinate_is_too_wide(monkeypatch):
    germ = IndexGerm("w", 2, (R(CR.parse("0.4142~2", irrational=True)),
                              D(CR.rational(2))))
    problem = build_problem([germ], Fraction(1, 256), Fraction(1, 256))
    calls = []

    def counted(row, eps):
        place = _placement(row, eps)
        return lambda m: calls.append(m) or place(m)

    monkeypatch.setattr(jump, "_placement", counted)
    with pytest.raises(NotFound, match="N <= 1000000$"):
        search(problem, 1, 10 ** 6)
    # coordinate 1 is too wide from N = 55 on, coordinate 0 from N = 100
    assert 55 <= max(calls) <= 100
