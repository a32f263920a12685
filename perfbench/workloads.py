"""Seeded inputs, operations and correctness checks of the three workloads.

Each workload draws its inputs from ``random.Random`` streams built only
from the public ``geoindex`` and ``geoindex.samples`` API.  Every input
carries curve names unique to its stream position, so the per-germ
caches inside ``geoindex.iteration`` never see a germ twice within a
pass, as in a one-shot CLI call.

Inputs are dealt in blocks that hold each kind of input in fixed
shares, the shares a plain random draw has (``_deal``), so that every
run gets the same mix and the seed changes only the inputs themselves.

An operation is the timed unit; its check runs afterwards, untimed, and
raises ``CheckFailed`` when the output is wrong, and otherwise returns
the output's ``key``, which a traced run of the same input must
reproduce.  Operations look up library functions through their modules at
call time (``jump.search``, not a bound name), so an installed tracer
sees every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Iterator, List, Sequence, Tuple

from geoindex import anosov, cli, iteration, jump, samples, serialize
from geoindex.exact import CertifiedReal, PrecisionInsufficient
from geoindex.iteration import IndexGerm
from geoindex.normal_forms import (B_NEGATIVE, B_POSITIVE, B_ZERO, D, N1,
                                   N2, R)


class CheckFailed(AssertionError):
    """An operation's output failed its correctness check."""


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _renamed(germs: Sequence[IndexGerm], tag: str) -> Tuple[IndexGerm, ...]:
    return tuple(dataclasses.replace(g, name=f"{g.name}.{tag}")
                 for g in germs)


def _deal(rng: random.Random, deck: Sequence) -> Iterator:
    """Endless draws; each block of len(deck) draws is the deck in a
    random order."""
    while True:
        yield from rng.sample(deck, len(deck))


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


# -- random angles and blocks ----------------------------------------------

def _rational_angle(rng: random.Random) -> CertifiedReal:
    while True:
        q = rng.randint(2, 12)
        t = Fraction(rng.randint(1, 2 * q - 1), q)
        if t != 1:
            return CertifiedReal.rational(t)


def _irrational_angle(rng: random.Random) -> CertifiedReal:
    """A rational base plus a tiny surd offset, closing far outside any
    verification horizon (see ``samples.closing_iterate``)."""
    while True:
        q = rng.choice((7, 9, 11, 13))
        base = Fraction(rng.choice(range(1, q, 2)), q)
        if rng.random() < 0.3:
            base += 1
        if samples.closing_iterate(base) > 12:
            break
    return samples.perturbed(base, k=rng.randint(18, 24),
                             surd=rng.choice((2, 3, 5, 7, 11, 13)))


def _lam(rng: random.Random) -> CertifiedReal:
    return CertifiedReal.rational(rng.choice(
        (Fraction(2), Fraction(3), Fraction(5, 2), Fraction(-2),
         Fraction(1, 3), Fraction(-1, 2))))


def _block(rng: random.Random, kind: str):
    if kind == "R-rational":
        return R(_rational_angle(rng))
    if kind == "R-irrational":
        return R(_irrational_angle(rng))
    if kind == "D":
        return D(_lam(rng))
    return N1(rng.choice((1, -1)),
              rng.choice((B_POSITIVE, B_ZERO, B_NEGATIVE)))


# -- pipeline: `geoindex anosov` on the five sample families ----------------

# Parameter ranges on which each family reaches the verdict it is built
# for; the check re-confirms it on every system, through the CLI's JSON
# round trip, at --n-max 500000.
PIPELINE_VERDICTS = {
    "mod4": "CONTRADICTION(mod4-clash)",
    "gamma-window": "CONTRADICTION(gamma-window)",
    "forced-top": "CONTRADICTION(forced-top)",
    "mismatch": "CONTRADICTION(gamma-window)",
    "two-odd-one-even": "CONTRADICTION(parity-screen)",
}


def _family_system(rng: random.Random, family: str):
    seed = rng.randrange(10)
    if family == "mod4":
        P = 2 * rng.randint(8, 32)
        return samples.mod4_system(P, 3 * P // 2 + rng.randrange(40),
                                   seed=seed)
    if family == "gamma-window":
        b = rng.randint(5, 19)
        return samples.gamma_window_system(rng.randint(3, 13),
                                           (rng.randint(1, b - 1), b),
                                           seed=seed)
    if family == "forced-top":
        q = rng.randint(3, 24)
        return samples.forced_top_system(
            Fraction(rng.randint(1, 2 * q - 1), q), seed=seed)
    if family == "mismatch":
        return samples.mismatch_system(2 * rng.randint(1, 5),
                                       2 * rng.randint(1, 6), seed=seed)
    return samples.two_odd_one_even_system(2 * rng.randint(0, 9) + 1,
                                           seed=seed)


def _pipeline_system(rng: random.Random, family: str):
    """Draws until the builder accepts the parameters (it refuses, for
    instance, angles that close up inside the iteration horizon)."""
    while True:
        try:
            return _family_system(rng, family)
        except ValueError:
            continue


class Pipeline:
    """`geoindex anosov --format json` in-process, one system per call;
    each block of five holds one system of every family."""

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def inputs(self, rng: random.Random, tag: str) -> Iterator[dict]:
        families = _deal(rng, sorted(PIPELINE_VERDICTS))
        for k, family in enumerate(families):
            system = _pipeline_system(rng, family)
            germs = _renamed(system.germs, f"{tag}{k}")
            path = self.workdir / f"{tag}{k}.system.json"
            path.write_text(serialize.dumps(serialize.system_to_dict(germs)),
                            encoding="utf-8")
            yield {"family": family, "system": str(path),
                   "output": str(self.workdir / f"{tag}{k}.out.json")}

    def run(self, inp: dict) -> int:
        return cli.main(["anosov", "--system", inp["system"],
                         "--n-max", "500000", "--format", "json",
                         "--output", inp["output"]])

    def key(self, inp: dict, code: int) -> Tuple[int, str]:
        return code, _digest(Path(inp["output"]).read_bytes())

    def check(self, inp: dict, code: int) -> Tuple[int, str]:
        _check(code == 2, f"exit code {code}, want 2")
        doc = json.loads(Path(inp["output"]).read_bytes())
        want = PIPELINE_VERDICTS[inp["family"]]
        _check(doc["final"] == want, f"verdict {doc['final']}, want {want}")
        report = anosov.ImpossibilityReport(
            doc["system"],
            [anosov.StageRecord(s["name"], s["verdict"], s["witness"])
             for s in doc["stages"]],
            doc["final"])
        _check(anosov.replay(report) is True, "replay did not reproduce")
        return self.key(inp, code)


# -- jump-scan: build_problem, search over [1, 10^7], scale ------------------

DELTA = Fraction(1, 64)
SEARCH_MAX = 10_000_000
GRID_MAX = 500_000


def _positive_jump_germ(rng: random.Random, name: str) -> IndexGerm:
    kind = rng.randrange(4)
    if kind == 0:
        return IndexGerm(name, rng.randint(1, 4),
                         (D(CertifiedReal.rational(2)),
                          D(CertifiedReal.rational(rng.choice((3, 5))))))
    if kind == 1:
        return IndexGerm(name, rng.randint(1, 4),
                         (N2(_irrational_angle(rng), nontrivial=False),))
    if kind == 2:
        return IndexGerm(name, rng.randint(3, 6),
                         (R(_rational_angle(rng)), R(_rational_angle(rng))))
    return IndexGerm(name, rng.randint(2, 5),
                     (R(_irrational_angle(rng)),
                      D(CertifiedReal.rational(2))))


def _negative_jump_germ(rng: random.Random, name: str) -> IndexGerm:
    kind = rng.randrange(3)
    if kind == 0:
        return IndexGerm(name, rng.randint(-3, -1),
                         (D(CertifiedReal.rational(2)),
                          D(CertifiedReal.rational(3))))
    if kind == 1:
        return IndexGerm(name, rng.randint(-4, -2),
                         (N2(_irrational_angle(rng), nontrivial=False),))
    return IndexGerm(name, rng.randint(-8, -6),
                     (R(_rational_angle(rng)), R(_rational_angle(rng))))


def _vertex_grid(germs: Sequence[IndexGerm]) -> int:
    """lcm of the N-grids on which the vertex coordinates can hit; it
    bounds the smallest certificate N, so keeping it small keeps the
    search inside [1, 10^7]."""
    problem = jump.build_problem(germs, DELTA, DELTA, 1)
    grid = 1
    for v in problem.v:
        if v.exact:
            q = v.lo.denominator
        else:
            q = ((v.lo + v.hi) / 2).limit_denominator(10_000).denominator
        grid = grid * q // gcd(grid, q)
    return grid


def _mixed_sign_system(rng: random.Random) -> Tuple[Tuple[IndexGerm, ...], int]:
    """A system of the test corpus's shape, with its vertex grid."""
    while True:
        q = rng.randint(2, 4)
        n_neg = rng.randint(1, q - 1)
        germs = ([_positive_jump_germ(rng, f"p{j}")
                  for j in range(q - n_neg)]
                 + [_negative_jump_germ(rng, f"n{j}")
                    for j in range(n_neg)])
        try:
            if any(iteration.mean_index(g).sign_vs(0) == 0 for g in germs):
                continue
        except PrecisionInsufficient:
            continue
        grid = _vertex_grid(germs)
        if grid <= GRID_MAX:
            return tuple(germs), grid


# Systems per block of 99, by quarter-decade of the vertex grid (bins 0
# and 1 merged).  The shares are those of _mixed_sign_system itself,
# measured on 20000 draws; fixing them per block keeps the count of long
# searches, which dominate the time, the same in every run.
GRID_QUOTA = (9, 6, 6, 7, 3, 4, 5, 4, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 4, 4,
              3, 2)


def _grid_bin(grid: int) -> int:
    return max(0, int(4 * math.log10(grid)) - 1)


class JumpScan:
    """Smallest-N certificate search and scaling on mixed-sign systems."""

    def inputs(self, rng: random.Random, tag: str) -> Iterator[dict]:
        """Systems are drawn as they come and dealt by grid bin; a few
        spare systems per bin wait for later blocks."""
        spare: List[List[Tuple[IndexGerm, ...]]] = [[] for _ in GRID_QUOTA]
        deck = [b for b, n in enumerate(GRID_QUOTA) for _ in range(n)]
        for k, b in enumerate(_deal(rng, deck)):
            while not spare[b]:
                germs, grid = _mixed_sign_system(rng)
                if len(spare[_grid_bin(grid)]) < 8:
                    spare[_grid_bin(grid)].append(germs)
            # fresh names: generating filled the caches for the drafts
            yield {"germs": _renamed(spare[b].pop(0), f"{tag}{k}"),
                   "p": rng.randint(2, 5)}

    def run(self, inp: dict):
        germs, p = inp["germs"], inp["p"]
        m_bar = max([8] + [iteration.germ_mbar(g) for g in germs
                           if iteration.mean_index(g).gt(0)])
        problem = jump.build_problem(germs, DELTA / p, DELTA / p, 1)
        cert = jump.search(problem, 1, SEARCH_MAX, m_bar=m_bar)
        scaled = jump.scale(problem, cert, p, m_bar=m_bar)
        return problem, cert, scaled, m_bar

    def key(self, inp: dict, out) -> Tuple:
        """(N, m, chi, Delta) of the certificate."""
        cert = out[1]
        return (cert.N, tuple(cert.m), tuple(cert.chi), tuple(cert.Delta))

    def check(self, inp: dict, out) -> Tuple:
        problem, cert, scaled, m_bar = out
        rounding = jump.verify_rounding(problem, cert)
        _check(rounding.ok, f"rounding fails: {rounding.first_failure()}")
        identities = jump.verify_jump(problem, cert, m_bar)
        _check(identities.ok, f"jump fails: {identities.first_failure()}")
        _check(all(ok for _, ok in scaled.checks),
               f"scale checks fail: {scaled.checks}")
        p = inp["p"]
        _check(scaled.m_hat == tuple(p * m for m in cert.m)
               and scaled.chi_hat == cert.chi
               and scaled.Delta_hat == cert.Delta,
               "scaled certificate does not scale the base one")
        return self.key(inp, out)


def certificates_digest(keys: Sequence[Tuple]) -> str:
    return _digest(list(keys))


# -- iterate: index tables and invariants of single germs --------------------

PROFILE_LEN = 4000
SCATTERED = 24
# germ_mbar checks every iterate up to the growth horizon
# (i1 + 4 + S+ + C) / mean, so a mean that is positive only by an
# irrational offset of 1e-19 keeps it busy for ~1e19 iterates: a library
# defect.  Such germs are counted and their germ_mbar call is left out.
MBAR_HORIZON_MAX = 10_000


# Germ shapes of one block of 144 inputs, in the shares a plain random
# draw has: a quarter are one N2 block with a rational or an irrational
# angle, the rest two 2x2 blocks, each R with a rational angle, R with an
# irrational one, D or N1 at odds 1:1:2:2.  Shapes differ in cost by up
# to 4x, so fixing their shares steadies the latency percentiles.
_ODDS = {"R-rational": 1, "R-irrational": 1, "D": 2, "N1": 2}
SHAPES = ([("N2-rational",)] * 18 + [("N2-irrational",)] * 18
          + [(a, b) for a in _ODDS for b in _ODDS
             for _ in range(3 * _ODDS[a] * _ODDS[b])])


def _iterate_germ(rng: random.Random, name: str,
                  shape: Tuple[str, ...]) -> IndexGerm:
    """i1 in [-5, 10]; shear and rational-angle germs are degenerate."""
    i1 = rng.randint(-5, 10)
    if shape == ("N2-rational",):
        return IndexGerm(name, i1, (N2(_rational_angle(rng),
                                       nontrivial=rng.random() < 0.5),))
    if shape == ("N2-irrational",):
        return IndexGerm(name, i1, (N2(_irrational_angle(rng),
                                       nontrivial=rng.random() < 0.5),))
    return IndexGerm(name, i1, tuple(_block(rng, kind) for kind in shape))


class Iterate:
    """Iterated-index tables and per-germ invariants."""

    def __init__(self):
        self.mbar_skipped = 0

    def notes(self) -> List[str]:
        return [f"germ_mbar left out on {self.mbar_skipped} germs (warm-up "
                f"included) whose growth horizon exceeds "
                f"{MBAR_HORIZON_MAX} iterates"]

    def inputs(self, rng: random.Random, tag: str) -> Iterator[dict]:
        for k, shape in enumerate(_deal(rng, SHAPES)):
            yield {"germ": _iterate_germ(rng, f"g.{tag}{k}", shape),
                   "iterates": sorted(rng.sample(range(1, 4 * PROFILE_LEN),
                                                 SCATTERED))}

    def run(self, inp: dict):
        germ = inp["germ"]
        rows = iteration.IndexProfile(germ, PROFILE_LEN).rows()
        scattered = [(m, iteration.index_at(germ, m),
                      iteration.nullity_at(germ, m))
                     for m in inp["iterates"]]
        mean = iteration.mean_index(germ)
        bounds = iteration.deviation_bounds(germ)
        gamma = iteration.gamma_invariant(germ.i1,
                                          iteration.index_at(germ, 2))
        try:
            positive = mean.gt(0)
            bounded = mean.gt(Fraction(germ.i1 + 4 + bounds[0],
                                       MBAR_HORIZON_MAX))
        except PrecisionInsufficient:
            positive = bounded = False
        m_bar = None
        if positive and bounded:
            m_bar = iteration.germ_mbar(germ)
        elif positive:
            self.mbar_skipped += 1
        return rows, scattered, mean, bounds, gamma, m_bar

    def key(self, inp: dict, out) -> str:
        return _digest(out)

    def check(self, inp: dict, out) -> str:
        rows, scattered, mean, (lower, upper), gamma, m_bar = out
        germ = inp["germ"]
        _check([r[0] for r in rows] == list(range(1, PROFILE_LEN + 1)),
               "profile rows out of order")
        vals = [r[1] for r in rows]
        _check(vals[0] == germ.i1, "i(1) differs from the initial index")
        for m in range(1, PROFILE_LEN + 1, 97):
            _check(rows[m - 1][1:] == (iteration.index_at(germ, m),
                                       iteration.nullity_at(germ, m)),
                   f"profile differs from index_at at m={m}")
        profile = iteration.IndexProfile(germ, 4 * PROFILE_LEN)
        for m, idx, nu in scattered:
            _check(profile.entry(m) == (idx, nu),
                   f"profile differs from index_at at m={m}")
        _check(all((vals[m + 2] - vals[m]) % 2 == 0 for m in range(998)),
               "two-step parity fails below m = 1000")
        lo_n, lo_d = mean.lo.numerator, mean.lo.denominator
        hi_n, hi_d = mean.hi.numerator, mean.hi.denominator
        _check(all((i_m + lower) * lo_d >= m * lo_n
                   and (i_m - upper) * hi_d <= m * hi_n
                   for m, i_m in enumerate(vals, start=1)),
               "mean-index sandwich fails")
        _check(abs(gamma) in (Fraction(1), Fraction(1, 2)),
               f"gamma {gamma} outside {{+-1/2, +-1}}")
        if m_bar is not None:
            target = germ.i1 + 4
            _check(all(iteration.index_at(germ, m + m_bar) >= target
                       for m in range(1, 50)),
                   "index falls below i(1) + 4 beyond m_bar")
        return self.key(inp, out)


def make(name: str, workdir: Path):
    if name == "pipeline":
        return Pipeline(workdir)
    if name == "jump-scan":
        return JumpScan()
    if name == "iterate":
        return Iterate()
    raise ValueError(f"unknown workload {name!r}")
