"""The integer iteration kernel against the certified-ceiling oracle."""

import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoindex import iteration
from geoindex.exact import CertifiedReal, PrecisionInsufficient
from geoindex.iteration import (IndexGerm, IndexProfile, _index,
                                _index_range, _kernel, _nullity,
                                _nullity_range, bott_positive, germ_mbar,
                                index_at, nullity_at)
from geoindex.jump import build_problem
from geoindex.normal_forms import (B_NEGATIVE, B_POSITIVE, B_ZERO, D, N1, N2,
                                   R, nullity_contribution)
from geoindex.serialize import number_to_str

from .corpus import random_germ
from .oracle import index_oracle, nullity_oracle, weighted_angles

CR = CertifiedReal

# denominators of the interval endpoints: coarse grids put iterates on
# the endpoints often, fine ones keep large iterates decidable
GRIDS = (4, 6, 12, 60, 10 ** 4, 10 ** 6, 10 ** 7)


def _exact_angle(rng):
    while True:
        q = rng.choice((2, 3, 4, 5, 6, 7, 8, 12, 97, 1000))
        t = Fraction(rng.randint(1, 2 * q - 1), q)
        if t != 1:
            return CR.rational(t)


def _interval_angle(rng, irrational):
    g = rng.choice(GRIDS)
    while True:
        width = rng.randint(1, 3 if g > 100 else g // 3)
        a = rng.randint(1, 2 * g - 1 - width)
        lo, hi = Fraction(a, g), Fraction(a + width, g)
        if irrational or not lo <= 1 <= hi:
            return CR.interval(lo, hi, irrational)


def _angle(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return _exact_angle(rng)
    return _interval_angle(rng, irrational=kind == 1)


def _block(rng, room):
    kind = rng.randrange(5 if room >= 4 else 4)
    if kind == 0:
        return R(_angle(rng))
    if kind == 1:
        return N1(rng.choice((1, -1)),
                  rng.choice((B_POSITIVE, B_ZERO, B_NEGATIVE)))
    if kind == 2:
        return D(CR.rational(rng.choice((2, 3, -2))))
    if kind == 3:
        return R(_angle(rng))
    return N2(_angle(rng), nontrivial=rng.random() < 0.5)


def _germ(rng, k):
    n = rng.choice((2, 3, 4))
    blocks, room = [], 2 * n - 2
    while room:
        b = _block(rng, room)
        blocks.append(b)
        room -= 4 if isinstance(b, N2) else 2
    return IndexGerm(f"k{k}", rng.randint(-5, 8), tuple(blocks), n=n)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PrecisionInsufficient:
        return "undecided"


def _wide(germ, m):
    """Some interval angle is too wide at m for a CertifiedReal product."""
    return any((t.hi - t.lo) * m >= 2 for t, _ in weighted_angles(germ.blocks))


def test_kernel_matches_certified_oracle():
    rng = random.Random(2024)
    seen = {"value": 0, "undecided": 0, "wide": 0, "wide-certified": 0}
    for k in range(100):
        germ = _germ(rng, k)
        profile = IndexProfile(germ, 60)
        iterates = list(range(1, 61)) + [rng.randint(61, 10 ** 7)
                                         for _ in range(20)]
        for m in iterates:
            want = _outcome(index_oracle, germ, m)
            assert _outcome(index_at, germ, m) == want, (germ, m)
            want_nu = _outcome(nullity_oracle, germ, m)
            assert _outcome(nullity_at, germ, m) == want_nu, (germ, m)
            if m <= 60:
                pair = (want, want_nu)
                assert _outcome(profile.entry, m) == (
                    "undecided" if "undecided" in pair else pair)
            seen["undecided" if want == "undecided" else "value"] += 1
            if _wide(germ, m):
                seen["wide"] += 1
                seen["wide-certified"] += want != "undecided"
    # every branch of the comparison was exercised
    assert min(seen.values()) >= 10, seen


def test_profile_rows_match_entries():
    # rows() and entry() are separate loops over the kernel: the table
    # is the entries in order, or the first entry's raise
    rng = random.Random(2024)
    seen = {"table": 0, "raise": 0}
    for k in range(100):
        profile = IndexProfile(_germ(rng, k), 60)
        want = []
        try:
            for m in range(1, 61):
                want.append((m, *profile.entry(m)))
        except PrecisionInsufficient as exc:
            with pytest.raises(PrecisionInsufficient) as got:
                profile.rows()
            assert str(got.value) == str(exc)
            seen["raise"] += 1
        else:
            assert profile.rows() == want
            seen["table"] += 1
    assert min(seen.values()) >= 10, seen


def _points(query, k, ms):
    """The point query over a run, None wherever it raises."""
    out = []
    for m in ms:
        try:
            out.append(query(k, m))
        except (PrecisionInsufficient, ValueError):
            out.append(None)
    return out


def _runs(rng):
    """Ascending and descending runs: from 1, across 0, at large
    iterates, and a long one."""
    far = rng.randint(10 ** 6, 10 ** 7)
    long = 197
    return (range(1, 61), range(60, 0, -1), range(-3, 9), range(4, -4, -1),
            range(far, far + 40), range(far, far - 40, -1), range(7, 7),
            range(1, long + 1), range(long, 0, -1))


def _check_ranges(germ, rng, seen):
    k = _kernel(germ)
    for ms in _runs(rng):
        index = _points(_index, k, ms)
        assert _index_range(k, ms) == index, (germ, ms)
        assert _nullity_range(k, ms) == _points(_nullity, k, ms), (germ, ms)
        seen["marked" if None in index else "unmarked"] += 1


def test_range_kernel_matches_point_queries():
    rng = random.Random(2024)
    seen = {"marked": 0, "unmarked": 0}
    for k in range(100):
        _check_ranges(_germ(rng, k), rng, seen)
    assert min(seen.values()) >= 10, seen


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.integers(0, 2 ** 32))
def test_range_kernel_matches_point_queries_on_random_germs(seed):
    rng = random.Random(seed)
    _check_ranges(random_germ(rng, "h"), rng, {"marked": 0, "unmarked": 0})


def _result(fn, germ):
    try:
        return fn(germ)
    except (PrecisionInsufficient, ValueError) as exc:  # Unbounded too
        return type(exc).__name__, str(exc)


def _point_germ_mbar(germ):
    """The horizon walk down, one ``index_at`` per iterate."""
    target = germ.i1 + 4
    horizon = iteration._growth_horizon(germ, target)
    return next((j for j in range(horizon, 1, -1)
                 if index_at(germ, j) < target), 1)


def _point_bott_positive(germ):
    """The horizon walk up, one ``index_at`` per iterate."""
    mean = iteration.mean_index(germ)
    try:
        if not mean.gt(0):
            return False
    except PrecisionInsufficient:
        return False
    horizon = iteration._growth_horizon(germ, germ.i1)
    return all(index_at(germ, m) >= germ.i1 for m in range(1, horizon + 1))


# horizons of 200 and 600 iterates
SLOW = (IndexGerm("slow", 1, (R(CR.rational(Fraction(1, 100))),), n=2),
        IndexGerm("slow-irrational", 1, (R(CR.interval(
            Fraction(999_999, 10 ** 8), Fraction(1_000_001, 10 ** 8),
            irrational=True)),), n=2))


def test_horizon_walks_match_point_walks():
    rng = random.Random(2024)
    germs = [_germ(rng, k) for k in range(100)] + list(SLOW)
    for germ in germs:
        assert (_result(germ_mbar.__wrapped__, germ)
                == _result(_point_germ_mbar, germ)), germ
        assert _result(bott_positive, germ) == _result(
            _point_bott_positive, germ), germ


def test_wide_interval_with_certified_ceiling():
    # m*width/2 reaches 1 at m = 10, but [2, 3] has no integer strictly
    # inside and the value is irrational: ceil = 3
    g = IndexGerm("g", -1, (R(CR.interval(Fraction(2, 5), Fraction(3, 5),
                                          irrational=True)),
                            R(CR.rational(Fraction(3, 2)))))
    assert index_at(g, 10) == -10
    assert IndexProfile(g, 60).entry(10) == (-10, 0)


def test_wide_interval_is_undecided():
    h = IndexGerm("h", -2, (R(CR.interval(Fraction("0.874999"),
                                          Fraction("0.875001"),
                                          irrational=True)),
                            N1(1, B_ZERO)))
    m = 2_746_402
    with pytest.raises(PrecisionInsufficient):
        index_at(h, m)
    with pytest.raises(PrecisionInsufficient):
        IndexProfile(h, m).entry(m)


def test_a_zero_width_angle_is_its_exact_twin():
    point = CR(Fraction(1, 3), Fraction(1, 3))
    twin = CR.rational(Fraction(1, 3))
    assert point == twin and hash(point) == hash(twin) and point.exact
    assert point.eq_certified(twin) is True
    assert point.eq_certified(point) is True
    assert number_to_str(point) == "1/3"
    nu = [0, 0, 0, 0, 0, 2]
    for block in (R, lambda t: N2(t, True)):
        assert [nullity_contribution(block(point), m)
                for m in range(1, 7)] == nu
    # differently named germs, so each kernel is compiled on its own
    germs = [IndexGerm(name, 1, (R(t), D(CR.rational(2))))
             for name, t in (("point", point), ("twin", twin))]
    for g in germs:
        assert [nullity_at(g, m) for m in range(1, 7)] == nu, g.name
    assert _kernel(germs[0]) == _kernel(germs[1])
    rows = [build_problem([g], Fraction(1, 64)).v_rows for g in germs]
    assert rows[0] == rows[1]


def test_germ_caches_are_bounded():
    for k in range(1000):
        germ = IndexGerm(f"mem{k}", 1 + k % 5, (D(CR.rational(2)),
                                                D(CR.rational(3))))
        index_at(germ, 7)
        germ_mbar(germ)
        bott_positive(germ)
    caches = [obj for obj in vars(iteration).values()
              if hasattr(obj, "cache_info")]
    assert {c.__name__ for c in caches} == {"_kernel", "mean_index",
                                            "germ_mbar"}
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
        assert callable(cache.cache_clear)


def test_unpickled_germ_hashes_again():
    # str hashes are salted per process, so a stored hash must not travel
    germ = _germ(random.Random(5), 0)
    code = ("import pickle, sys\n"
            "g = pickle.loads(sys.stdin.buffer.read())\n"
            "assert hash(g) == hash((g.name, g.i1, g.blocks, g.n))\n")
    env = {**os.environ, "PYTHONHASHSEED": "1",
           "PYTHONPATH": str(Path(iteration.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], input=pickle.dumps(germ),
                   env=env, check=True, timeout=60)
    assert "_hash" not in repr(germ)
