"""Jump problems: construction, search, verification, scaling."""

import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import gcd, lcm

import pytest

from geoindex import jump
from geoindex.exact import CertifiedReal, PrecisionInsufficient
from geoindex.iteration import (IndexGerm, _index, _nullity, germ_mbar,
                                index_at, mean_index)
from geoindex.jump import (CertificateMismatch, IdentityViolation,
                           JumpCertificate, NotFound, ScaleMismatch,
                           ZeroMeanIndex, build_problem, delta_invariance,
                           scale, search, verify_jump, verify_rounding)
from geoindex.morse import morse_numbers_up_to
from geoindex.normal_forms import D, N1, N2, R
from geoindex.samples import forced_top_system, worked_example_B

from .corpus import jump_corpus
from .oracle import candidate_oracle, search_oracle, verify_jump_oracle

CR = CertifiedReal
DELTA = Fraction(1, 100)

B = worked_example_B()
H = IndexGerm("H", 1, (D(CR.rational(2)), D(CR.rational(3))))
HN = IndexGerm("Hn", -1, (D(CR.rational(2)), D(CR.rational(3))))


def test_build_problem_hyperbolic():
    prob = build_problem([H], DELTA, DELTA, 1)
    assert prob.M == 1
    assert prob.curves[0].kernel.slope == 1
    assert prob.curves[0].kernel.rows == ()
    assert [v.lo for v in prob.v] == [1]


def test_build_problem_worked_example():
    prob = build_problem([B], DELTA, DELTA, 1)
    c = prob.curves[0]
    assert c.kernel.slope == 0
    assert sorted(Fraction(L, d) for L, _, d, _ in c.kernel.rows) == [
        Fraction(1, 3), Fraction(1, 2)]
    assert mean_index(c.germ).lo == Fraction(5, 6)
    assert prob.M == 6
    assert [v.lo for v in prob.v] == [Fraction(1, 5), Fraction(2, 5),
                                      Fraction(3, 5)]


def test_build_problem_negative_mean():
    prob = build_problem([HN], DELTA, DELTA, 1)
    assert prob.curves[0].rho == -1
    assert mean_index(prob.curves[0].germ).lo == -1


def test_build_problem_rejects_zero_mean():
    z = IndexGerm("z", 1, (R(CR.rational(Fraction(1, 2))),
                           R(CR.rational(Fraction(1, 2)))))
    assert mean_index(z).lo == 0
    with pytest.raises(ZeroMeanIndex):
        build_problem([z], DELTA, DELTA, 1)


def test_smallness_hypothesis_enforced():
    with pytest.raises(ValueError):
        build_problem([B], Fraction(1, 3), Fraction(1, 100), 1)


def test_default_epsilon_tie():
    # eps defaults to delta / (2 * max(M|mean|, 1)): strong enough that
    # vertex closeness carries the angle-closeness clause
    prob = build_problem([B], DELTA, None, 1)
    assert prob.epsilon == DELTA / (2 * 5)  # M|mean| = 6 * 5/6 = 5
    cert = search(prob, 1, 100, m_bar=6)
    assert cert.N == 5 and verify_rounding(prob, cert).ok


def test_search_worked_example():
    prob = build_problem([B], DELTA, DELTA, 1)
    cert = search(prob, 1, 100, m_bar=germ_mbar(B))
    assert (cert.N, cert.m, cert.Delta, cert.chi) == (5, (6,), (0,),
                                                      (0, 0, 0))
    assert verify_rounding(prob, cert).ok
    assert verify_jump(prob, cert, 6).ok


def test_hyperbolic_certificates_everywhere():
    prob = build_problem([H], DELTA, DELTA, 1)
    m_bar = germ_mbar(H)
    for n in range(3, 40):
        cert = candidate_oracle(prob, n, m_bar)
        assert cert is not None and cert.m == (n,) and cert.Delta == (0,)


def test_negative_mean_identities():
    prob = build_problem([HN], DELTA, DELTA, 1)
    cert = search(prob, 5, 50, m_bar=6)
    assert cert.m == (cert.N,)
    assert verify_jump(prob, cert, 6).ok
    assert index_at(HN, 2 * cert.N + 3) == -2 * cert.N + index_at(HN, 3)


def test_search_respects_m0():
    prob = build_problem([H], DELTA, DELTA, 7)
    cert = search(prob, 2, 100, m_bar=4)
    assert cert.N % 7 == 0


def test_search_not_found():
    prob = build_problem([B], DELTA, DELTA, 1)
    with pytest.raises(NotFound):
        search(prob, 1, 4, m_bar=6)


def test_search_determinism_and_monotonicity():
    prob = build_problem([B], DELTA, DELTA, 1)
    small = search(prob, 1, 30, m_bar=6)
    large = search(prob, 1, 3000, m_bar=6)
    assert small.N == large.N == 5


def test_worked_example_identity_values():
    prob = build_problem([B], DELTA, DELTA, 1)
    cert = search(prob, 1, 100, m_bar=6)
    n, m1 = cert.N, cert.m[0]
    # rounding identity: 6*0 + ceil(2) + ceil(3) = 5
    assert m1 * 0 + 2 + 3 == n
    # shifted and reflected identities at m = 1
    assert index_at(B, 2 * m1 + 1) == 2 * n + index_at(B, 1) == 12
    assert index_at(B, 2 * m1 - 1) == 2 * n - index_at(B, 1) == 8
    assert index_at(B, 2 * m1) == 2 * n - (0 + 2 - 2 * cert.Delta[0]) == 8


def test_reflected_identity_uses_closed_iterates():
    # at m = 6 the first angle closes up: the reflected identity gains
    # a correction of one from the closed rational spectrum point
    prob = build_problem([B], DELTA, DELTA, 1)
    cert = search(prob, 1, 100, m_bar=6)
    n, m1 = cert.N, cert.m[0]
    assert index_at(B, 2 * m1 - 6) == 2 * n - index_at(B, 6) - 2


def test_scale_worked_example():
    prob = build_problem([B], DELTA, DELTA, 1)
    cert = search(prob, 1, 100, m_bar=6)
    sc = scale(prob, cert, 2, m_bar=6)
    assert sc.N_hat == 10 and sc.m_hat == (12,)
    assert sc.chi_hat == cert.chi and sc.Delta_hat == cert.Delta
    assert index_at(B, 24) == 2 * 2 * cert.N - (0 + 2 - 2 * sc.Delta_hat[0])
    assert all(ok for _, ok in sc.checks)


def test_scale_identity_trivial_at_one():
    prob = build_problem([B], DELTA, DELTA, 1)
    cert = search(prob, 1, 100, m_bar=6)
    sc = scale(prob, cert, 1, m_bar=6)
    assert sc.N_hat == cert.N and sc.m_hat == cert.m
    assert sc.chi_hat == cert.chi and sc.Delta_hat == cert.Delta


def test_scale_rejects_oversized_tolerance():
    prob = build_problem([B], Fraction(1, 5), Fraction(1, 100), 1)
    cert = search(prob, 1, 100, m_bar=6)
    with pytest.raises(ValueError):
        scale(prob, cert, 2, m_bar=6)


def test_delta_invariance():
    prob = build_problem([B], DELTA, DELTA, 1)
    cert = search(prob, 1, 100, m_bar=6)
    assert delta_invariance(prob, cert, Fraction(1, 100), Fraction(1, 1000))
    hp = build_problem([H], DELTA, DELTA, 1)
    hc = search(hp, 3, 50, m_bar=4)
    assert delta_invariance(hp, hc, Fraction(1, 10), Fraction(1, 64))
    with pytest.raises(ValueError):
        delta_invariance(prob, cert, Fraction(2, 5), Fraction(1, 64))


def test_vertex_closeness_of_certificates():
    from geoindex.exact import frac_part
    for germs in jump_corpus(10, seed=15):
        prob = build_problem(germs, Fraction(1, 64), Fraction(1, 64), 1)
        cert = search(prob, 1, 10_000_000, m_bar=6)
        for j, vj in enumerate(prob.v):
            f = frac_part(vj * cert.N)
            if cert.chi[j] == 0:
                assert f.lt(Fraction(1, 64))
            else:
                assert (CR.rational(1) - f).lt(Fraction(1, 64))


def test_certificate_soundness_on_corpus():
    for germs in jump_corpus(15, seed=16):
        prob = build_problem(germs, Fraction(1, 64), Fraction(1, 64), 1)
        cert = search(prob, 1, 10_000_000, m_bar=8)
        assert verify_rounding(prob, cert).ok
        assert verify_jump(prob, cert, 8).ok


def _brute_force_first_n(germs, delta, eps, n_max, m_bar):
    """Independent reimplementation of the scan for rational systems.

    Plain Fractions only: fractional parts, vertex sides, floors, the
    rounding identity, and the shifted identities via index_at.  Used to
    cross-check the production scanner on exact inputs.
    """
    from geoindex.normal_forms import big_C
    from .oracle import s_plus_at_one, spectrum_rows
    data = []
    big_m = 1
    for g in germs:
        mean = mean_index(g).lo
        beta = g.i1 + s_plus_at_one(g.blocks) - big_C(g.blocks)
        alphas = []
        for row in spectrum_rows(g.blocks):
            if row.s_minus and row.t.lo != 0:
                alphas.extend([row.t.lo] * row.s_minus)
                big_m = big_m * row.t.lo.denominator // __import__(
                    "math").gcd(big_m, row.t.lo.denominator)
        data.append((g, mean, beta, alphas))
    for n in range(1, n_max + 1):
        ok = True
        ms, deltas = [], []
        for g, mean, beta, alphas in data:
            v = Fraction(1) / (big_m * abs(mean))
            f = (n * v) % 1
            if f < eps:
                chi = 0
            elif 1 - f < eps:
                chi = 1
            else:
                ok = False
                break
            m_i = ((n * v).__floor__() + chi) * big_m
            if m_i < 1 or 2 * m_i <= m_bar:
                ok = False
                break
            d_i = 0
            for a in alphas:
                w = (m_i * a) % 1
                av = (n * a / abs(mean)) % 1
                if not (av < eps or 1 - av < eps):
                    ok = False
                if w == 0:
                    continue
                if w < delta:
                    d_i += 1
                elif not (1 - w < delta):
                    ok = False
            if not ok:
                break
            rho = 1 if mean > 0 else -1
            lhs = m_i * beta + sum(-((-m_i * a.numerator)
                                     // a.denominator) for a in alphas)
            if lhs != rho * n + d_i:
                ok = False
                break
            ms.append(m_i)
            deltas.append(d_i)
        if not ok:
            continue
        good = True
        for (g, mean, beta, alphas), m_i in zip(data, ms):
            rho = 1 if mean > 0 else -1
            for m in range(1, m_bar + 1):
                if index_at(g, 2 * m_i + m) != 2 * rho * n + index_at(g, m):
                    good = False
        if good:
            return n, tuple(ms), tuple(deltas)
    return None


def test_search_agrees_with_brute_force_oracle():
    h2 = IndexGerm("h2", 3, (D(CR.rational(2)), D(CR.rational(5))))
    pair = IndexGerm("pair", 4, (R(CR.rational(Fraction(2, 3))),
                                 R(CR.rational(Fraction(3, 4)))))
    neg = IndexGerm("neg", -2, (D(CR.rational(3)), D(CR.rational(7))))
    for germs in ([B], [H], [h2, pair], [pair, neg], [B, h2, neg]):
        prob = build_problem(germs, Fraction(1, 64), Fraction(1, 64), 1)
        cert = search(prob, 1, 50_000, m_bar=6)
        brute = _brute_force_first_n(germs, Fraction(1, 64),
                                     Fraction(1, 64), 50_000, 6)
        assert brute is not None
        assert (cert.N, cert.m, cert.Delta) == brute


def test_jump_system_with_shear_block():
    shear = IndexGerm("s", 2, (N1(-1, "zero"), D(CR.rational(2))))
    assert mean_index(shear).lo == 2  # 2 + 0 - 1 + 1
    prob = build_problem([shear], Fraction(1, 64), Fraction(1, 64), 1)
    assert prob.M == 1  # the angle 1 is already integral
    cert = search(prob, 4, 200, m_bar=6)
    assert verify_rounding(prob, cert).ok
    assert verify_jump(prob, cert, 6).ok
    # the half-turn eigenvalue contributes ceil(m/2) to every iterate
    m1 = cert.m[0]
    assert index_at(shear, 2 * m1) == 2 * cert.N - (0 + 1 - 2 * cert.Delta[0])


def test_strict_verification_raises_with_triple():
    from geoindex.jump import IdentityViolation
    prob = build_problem([B], DELTA, DELTA, 1)
    cert = search(prob, 1, 100, m_bar=6)
    tampered = cert.__class__(
        N=cert.N, m=(cert.m[0] + 1,), chi=cert.chi, Delta=cert.Delta,
        rho=cert.rho, delta=cert.delta, epsilon=cert.epsilon, M=cert.M,
        M0=cert.M0, names=cert.names)
    with pytest.raises(IdentityViolation) as err:
        verify_jump(prob, tampered, 6, strict=True)
    assert err.value.triple[0] == "B"


def test_scale_mismatch_on_tampered_certificate():
    from geoindex.jump import ScaleMismatch
    prob = build_problem([B], DELTA, DELTA, 1)
    cert = search(prob, 1, 100, m_bar=6)
    tampered = cert.__class__(
        N=cert.N, m=(cert.m[0] + cert.M,), chi=cert.chi, Delta=cert.Delta,
        rho=cert.rho, delta=cert.delta, epsilon=cert.epsilon, M=cert.M,
        M0=cert.M0, names=cert.names)
    with pytest.raises(ScaleMismatch):
        scale(prob, tampered, 2, m_bar=6)


def test_scaled_fractional_parts_identity():
    # {p*N*v} = {p*{N*v}} on certificate data
    from geoindex.exact import frac_part
    prob = build_problem([B], DELTA, DELTA, 1)
    cert = search(prob, 1, 100, m_bar=6)
    for p in (2, 3, 4, 5):
        for vj in prob.v:
            lhs = frac_part(vj * (p * cert.N))
            rhs = frac_part(frac_part(vj * cert.N) * p)
            assert lhs.lo == rhs.lo


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PrecisionInsufficient as exc:
        return type(exc).__name__


def _report_clauses(problem, cert, m_bar):
    return [(c.name, c.ok, c.witness)
            for c in verify_jump(problem, cert, m_bar).clauses]


def _oracle_clauses(problem, cert, m_bar):
    return list(verify_jump_oracle(problem, cert, m_bar))


def _strict(problem, cert, m_bar):
    """The triple and message verify_jump(strict=True) raises, or None."""
    try:
        verify_jump(problem, cert, m_bar, strict=True)
    except IdentityViolation as err:
        return err.triple, str(err)
    return None


def _oracle_strict(problem, cert, m_bar):
    """The same from the oracle's first failing clause, reached lazily."""
    for name, ok, witness in verify_jump_oracle(problem, cert, m_bar):
        if not ok:
            rest = dict(witness)
            curve, m = rest.pop("curve"), rest.pop("m")
            return ((curve, m, name),
                    f"{name} fails for curve {curve!r} at m={m}: {rest}")
    return None


def _bump(values, k, d):
    return values[:k] + (values[k] + d,) + values[k + 1:]


def _variants(cert, m_bar):
    """A searched certificate, then tampered copies: each m_i, each
    Delta_i and N moved by one, and the horizon at and just below
    2*min(m_i), where the horizon room runs out; last, every m_i moved
    far enough that the ceilings of interval angles are undecided."""
    yield cert, m_bar
    for k in range(len(cert.m)):
        for d in (-1, 1):
            yield replace(cert, m=_bump(cert.m, k, d)), m_bar
            yield replace(cert, Delta=_bump(cert.Delta, k, d)), m_bar
    yield replace(cert, N=cert.N - 1), m_bar
    yield replace(cert, N=cert.N + 1), m_bar
    room = 2 * min(cert.m)
    if room <= 64:
        yield cert, room - 1
        yield cert, room
    yield replace(cert, m=tuple(m_i + 10 ** 120 for m_i in cert.m)), m_bar


def test_jump_clauses_match_oracle():
    m_bar = 8
    seen = Counter()
    for germs in jump_corpus(16):
        problem = build_problem(germs, Fraction(1, 64), Fraction(1, 64))
        cert = search(problem, 1, 10 ** 7, m_bar=m_bar)
        for tampered, horizon in _variants(cert, m_bar):
            args = problem, tampered, horizon
            want = _outcome(_oracle_clauses, *args)
            assert _outcome(_report_clauses, *args) == want, args[1:]
            strict = _outcome(_oracle_strict, *args)
            assert _outcome(_strict, *args) == strict, args[1:]
            if isinstance(want, str):
                seen[want] += 1
                continue
            failed = {name for name, ok, _ in want if not ok}
            seen.update(failed or {"ok"})
    assert min(seen[k] for k in ("ok", "horizon-room", "jump-top", "jump-up",
                                 "jump-down", "jump-nullity",
                                 "PrecisionInsufficient")) >= 3, seen


def _point_curves(problem, cert, m_bar):
    """The reference for ``jump._jump_clauses``: no curve is decided by
    comparing runs, so every consumer reads the clauses of each curve
    from ``_point_clauses``."""
    for i, curve in enumerate(problem.curves):
        yield None, _point_clauses(curve, cert.m[i], cert.N, cert.Delta[i],
                                   m_bar)


def _point_clauses(curve, m_i, N, delta_i, m_bar):
    """The clause loop of one curve as it was, one point query per
    iterate: the reference for the order of verdicts and raises."""
    k = curve.kernel
    who = ("curve", curve.germ.name)
    if 2 * m_i <= m_bar:
        yield "horizon-room", False, (who, ("m", m_bar), ("m_i", m_i))
        return
    closed = [(p, 2 * q) for p, h, q, _ in k.rows
              if p == h and m_i * p % q == 0]
    two_n = 2 * curve.rho * N
    top = _index(k, 2 * m_i)
    want = two_n - (k.s_plus + k.c - 2 * delta_i)
    yield ("jump-top", top == want,
           (who, ("m", 0), ("got", top), ("want", want)))
    for m in range(1, m_bar + 1):
        at = ("m", m)
        base = _index(k, m)
        up, want = _index(k, 2 * m_i + m), two_n + base
        yield "jump-up", up == want, (who, at, ("got", up), ("want", want))
        down = _index(k, 2 * m_i - m)
        q_m = sum(m * p % q2 == 0 for p, q2 in closed)
        want = two_n - base - 2 * (k.s_plus + q_m)
        yield ("jump-down", down == want,
               (who, at, ("got", down), ("want", want)))
        nu = _nullity(k, m)
        yield ("jump-nullity", _nullity(k, 2 * m_i + m) == nu
               and _nullity(k, 2 * m_i - m) == nu, (who, at, ("nu", nu)))


def _clauses(problem, cert, m_bar):
    """Every clause of ``verify_jump`` in order, read through the engine
    that ``jump`` holds."""
    for _, clauses in jump._jump_clauses(problem, cert, m_bar):
        yield from clauses


def _prefix(clauses, *args):
    """The verdicts up to the first raise, and the raise."""
    got = []
    try:
        for verdict in clauses(*args):
            got.append(verdict)
    except PrecisionInsufficient as exc:
        return got, str(exc)
    return got, None


def _result(fn, *args, **kwargs):
    try:
        report = fn(*args, **kwargs)
    except (PrecisionInsufficient, IdentityViolation, NotFound,
            ScaleMismatch, ValueError) as exc:
        return type(exc).__name__, str(exc)
    if hasattr(report, "_verdicts"):
        return report.ok, report.first_failure(), report._verdicts
    return report


# an interval angle strictly around 2/5: the ceiling of m*t/2 is
# undecided at every multiple of 5, so inside the runs for most m_i
W = IndexGerm("w", 2, (R(CR.interval(Fraction(2, 5) - Fraction(1, 10 ** 9),
                                     Fraction(2, 5) + Fraction(1, 10 ** 9),
                                     irrational=True)),
                       D(CR.rational(2))))
# an undeclared decimal angle: every nullity raises, and its declared twin
U = IndexGerm("u", 2, (R(CR.interval(Fraction("0.4142"), Fraction("0.4143"))),
                       D(CR.rational(2))))
UD = IndexGerm("u", 2, (R(CR.interval(Fraction("0.4142"), Fraction("0.4143"),
                                      irrational=True)),
                        D(CR.rational(2))))


def _constructed(problem):
    """Certificates around the undecided iterates of W: every m_i
    residue mod 5, N set from the last curve's top iterate, so that its
    jump-top clause passes where that iterate is decided and the parity
    allows, and a strict run reaches the raise."""
    for m_i in range(100, 110):
        k = problem.curves[-1].kernel
        try:
            two_n = _index(k, 2 * m_i) + k.s_plus + k.c
        except PrecisionInsufficient:
            two_n = 0
        yield JumpCertificate(
            N=two_n // 2, m=(m_i,) * len(problem.curves),
            chi=(0,) * len(problem.v_rows), Delta=(0,) * len(problem.curves),
            rho=tuple(c.rho for c in problem.curves), delta=problem.delta,
            epsilon=problem.epsilon, M=problem.M, M0=problem.M0,
            names=tuple(c.germ.name for c in problem.curves))


# Certificates (germ, N, m_1, horizon) on which one kind of jump clause
# fails alone, Delta = 0: jump-up and jump-down on V; jump-nullity on
# Z, an N2 at a rational angle with S- = 0, whose index is 2m and whose
# nullity closes up at every 6th iterate only.
V = IndexGerm("v", 1, (R(CR.parse("0.41421356237~9", irrational=True)),
                       N1(-1, "positive")))
Z = IndexGerm("z", 2, (N2(CR.rational(Fraction(1, 3)), nontrivial=False),))
LONE_FAILURES = ((V, 3, 7, 8), (V, 6, 14, 4), (Z, 10, 5, 8))


def test_clause_raises_come_in_point_order(monkeypatch):
    """Every consumer of the jump engine (the clauses, verify_jump's
    verdicts, strict raises and failures, search and scale) gives what
    it gives when each curve is walked point by point instead of being
    decided by comparing runs."""
    delta = Fraction(1, 64)
    cases, searches = [], []
    for germs in ((W,), (W, HN), (H, W), (U,), (HN, U)):
        problem = build_problem(germs, delta, delta)
        for m_bar in (4, 8):
            cases += [(problem, c, m_bar) for c in _constructed(problem)]
            searches.append((problem, 1, 20000, m_bar))
    twin = build_problem([UD], delta, delta)
    cert = search(twin, 1, 20000, m_bar=8)
    cases.append((build_problem([U], delta, delta), cert, 8))
    for germ, N, m_1, m_bar in LONE_FAILURES:
        problem = build_problem([germ], delta, delta)
        cases.append((problem, JumpCertificate(
            N=N, m=(m_1,), chi=(0,) * len(problem.v_rows), Delta=(0,),
            rho=(1,), delta=delta, epsilon=delta, M=problem.M, M0=1,
            names=(germ.name,)), m_bar))
    for germs in jump_corpus(4):
        problem = build_problem(germs, delta, delta)
        searches.append((problem, 1, 10 ** 7, 8))
        half = build_problem(germs, delta / 2, delta / 2)  # scales by 2
        cert = search(half, 1, 10 ** 7, m_bar=8)
        cases += [(half, c, h) for c, h in _variants(cert, 8)]

    def outcomes():
        return ([_prefix(_clauses, *args) for args in cases],
                [_result(verify_jump, *args, strict=strict)
                 for args in cases for strict in (False, True)],
                [_result(search, *args[:3], m_bar=args[3])
                 for args in searches],
                [_result(scale, problem, c, p_hat, m_bar)
                 for problem, c, m_bar in cases for p_hat in (1, 2)])

    got = outcomes()
    monkeypatch.setattr(jump, "_jump_clauses", _point_curves)
    want = outcomes()
    assert got == want
    prefixes, verdicts, found, scaled = want
    seen = Counter()
    for (_, raised), (_, cert, _) in zip(prefixes, cases):
        if raised and not raised.endswith(f"iterate {2 * cert.m[0]}"):
            seen["raise in a run"] += 1
    for v in verdicts:
        seen[v[0] if isinstance(v[0], str) else ("ok", v[0])] += 1
    seen.update(f[0] for f in found if isinstance(f, tuple))
    seen["certificate"] = sum(isinstance(f, JumpCertificate) for f in found)
    seen.update(type(s).__name__ if not isinstance(s, tuple) else s[0]
                for s in scaled)
    assert min(seen[k] for k in (
        "raise in a run", "PrecisionInsufficient", "IdentityViolation",
        "NotFound", "certificate", ("ok", True), ("ok", False),
        "ScaledCertificate", "ScaleMismatch")) >= 2, seen


def test_negative_horizon_is_a_value_error():
    germs = forced_top_system().germs
    problem = build_problem(germs, Fraction(1, 64))
    cert = search(problem, 1, 10 ** 6)
    for call in (lambda: verify_jump(problem, cert, -1),
                 lambda: scale(problem, cert, 2, -1),
                 lambda: search(problem, 1, 10 ** 6, m_bar=-1),
                 lambda: morse_numbers_up_to(germs, problem, cert, 2, -1)):
        with pytest.raises(ValueError, match="m_bar"):
            call()
    # m_bar = 0 checks the top iterate alone
    assert [c.name for c in verify_jump(problem, cert, 0).clauses] == [
        "jump-top"] * len(germs)


def _stream(places, first, n_max, M0):
    """The rows' sides N by N, as the every-N scan sees them: each N's
    rows placed in order up to the first far or undecided one, and the
    search's NotFound where N*row is too wide."""
    out = []
    for N in range(first, n_max + 1, M0):
        sides = []
        try:
            for place in places:
                side = place(N)
                if side is None:
                    break
                sides.append(side)
            else:
                out.append((N, tuple(sides)))
        except PrecisionInsufficient:
            continue
        except ValueError:
            out.append("NotFound")
            break
    return out


def _walked(rows, places, first, n_max, M0):
    out = []
    try:
        out.extend(jump._walk(rows, places, first, n_max, M0))
    except NotFound:
        out.append("NotFound")
    return out


def test_walk_steps_exact_coordinates_over_their_periods():
    # 1 to 4 rows, each exact or an interval, at any level: a level whose
    # rows, its own and those below, are all exact replays its first
    # period's hits, lcm(M0, the d of those rows); a level with an
    # interval row places it N by N, passes over an N where its side is
    # undecided and ends the walk where N*row is too wide.  First, 1/5
    # under the undeclared [0.4142, 0.4143], undecided at N = 70
    cases = [([(1, 1, 5, False), (4142, 4143, 10000, False)],
              Fraction(1, 3), 1, 5, 300)]
    rng = random.Random(22)
    for _ in range(600):
        rows = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.25:  # an interval row is placed N by N
                L = rng.randint(-80, 80)
                d = rng.choice((100, 1000)) * rng.randint(1, 40)
                rows.append((L, L + rng.randint(1, 3), d, rng.random() < 0.5))
            else:
                d = rng.randint(1, 40)
                L = rng.randint(-2 * d, 2 * d)
                rows.append((L // gcd(L, d), L // gcd(L, d), d // gcd(L, d),
                             False))
        M0 = rng.randint(1, 4)
        first = M0 * rng.randint(1, 50)
        P = lcm(M0, *(row[2] for row in rows))
        cases.append((rows, Fraction(1, rng.choice((3, 5, 7))), M0, first,
                      first + rng.randint(-first - 2, min(3 * P, 2000))))
    past_first = past_deeper = 0
    seen = Counter()
    for rows, eps, M0, first, n_max in cases:
        places = [jump._placement(row, eps) for row in rows]
        want = _stream(places, first, n_max, M0)
        for k, place in enumerate(places):
            kinds = set()
            for N in range(first, n_max + 1, M0):
                try:
                    place(N)
                except (PrecisionInsufficient, ValueError) as exc:
                    kinds.add((type(exc).__name__, k > 0))
                    if isinstance(exc, ValueError):
                        break
            seen.update(kinds)
        assert _walked(rows, places, first, n_max, M0) == want, (rows, eps,
                                                                 M0)
        exact = [L == H for L, H, _, _ in rows]
        seen["interval row above another"] += not all(exact[1:])
        seen["several interval rows"] += exact.count(False) > 1
        seen["NotFound"] += want[-1:] == ["NotFound"]
        periods = [lcm(M0, *(row[2] for row in rows[:k]))
                   for k in range(1, len(rows) + 1)]
        if exact[0]:
            past_first += n_max >= first + periods[0]
            past_deeper += any(P > periods[0] and n_max >= first + P
                               and all(exact[:k + 2])
                               for k, P in enumerate(periods[1:]))
    assert past_first >= 200 and past_deeper >= 100, (past_first, past_deeper)
    assert min(seen.values()) >= 20 and len(seen) == 7, seen


def _search_outcome(search_fn, problem, n_min, n_max):
    try:
        return repr(search_fn(problem, n_min, n_max))
    except (NotFound, PrecisionInsufficient, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_search_matches_the_every_n_scan():
    # the systems of jump_corpus(100) whose first vertex coordinate is
    # exact with a period of at most 300, and those whose first one is
    # an interval and a later one exact; n_min = 5 and 7 sit off a
    # period's start, and n_max inside one.  Most exact-first ones have
    # further exact coordinates: a certificate past the combined period
    # of them all (deeper) comes from a replay of the deepest level
    corpus = jump_corpus(100)
    later = deeper = interval_first = 0
    for k, germs in enumerate(corpus):
        rows = build_problem(germs, Fraction(1, 64)).v_rows
        L, H, d, _ = rows[0]
        if not (L == H and d <= 300
                or L != H and any(r[0] == r[1] for r in rows[1:])):
            continue
        for p, M0, n_min, n_max in ((1, 1, 5, 997), (3, 2, 7, 600),
                                    (1, 3, 5, 997), (1, 2, -3, 0),
                                    (4, 3, 1, 1500)):
            problem = build_problem(germs, Fraction(1, 64 * p),
                                    Fraction(1, 64 * p), M0)
            got = _search_outcome(
                lambda *a: search(*a, m_bar=8), problem, n_min, n_max)
            want = _search_outcome(
                lambda *a: search_oracle(*a, 8), problem, n_min, n_max)
            assert got == want, (k, p, M0)
            ds = [d for L, H, d, _ in problem.v_rows if L == H]
            v0 = problem.v_rows[0]
            interval_first += v0[0] != v0[1] and got.startswith("JumpCert")
            if v0[0] == v0[1] and got.startswith("JumpCertificate"):
                first = -(-n_min // M0) * M0
                N = search(problem, n_min, n_max, m_bar=8).N
                later += N >= first + lcm(M0, ds[0])
                deeper += (N >= first + lcm(M0, *ds) > first + lcm(M0, ds[0]))
    assert later >= 10 and deeper >= 50 and interval_first >= 50


def test_not_found_comes_where_a_later_coordinate_goes_too_wide(
        monkeypatch):
    # v_0 = 1/5 is exact; w's mean, known to 3 digits, makes N*v_1 too
    # wide to place from N = 547 on, long after the first period
    w = IndexGerm("w", 2, (R(CR.parse("0.4142135~3", irrational=True)),
                           D(CR.rational(2))))
    problem = build_problem([B, w], Fraction(1, 16), Fraction(1, 16), 1)
    assert problem.v[0] == CR.rational(Fraction(1, 5))
    placed = []
    compiled = jump._compiled

    def recording(owner, rows, eps):
        places = compiled(owner, rows, eps)
        if owner is not problem:
            return places
        return tuple((lambda N, place=place: placed.append(N) or place(N))
                     for place in places)

    monkeypatch.setattr(jump, "_compiled", recording)
    with pytest.raises(NotFound) as stepped:
        search(problem, 1, 10 ** 7, m_bar=8)
    with pytest.raises(NotFound) as scanned:
        search_oracle(problem, 1, 10 ** 7, 8)
    assert str(stepped.value) == str(scanned.value)
    assert max(placed) == scanned.value.at > 5

    # two exact coordinates, v_0 = 1/5 and v_2 = 1/7 (combined period 35),
    # around w's v_1, too wide from N = 1000 on: the oracle meets it
    # there, the walk at the first N >= 1000 where v_0 and v_2 are near
    h5 = IndexGerm("h5", 5, (D(CR.rational(2)), D(CR.rational(3))))
    h7 = IndexGerm("h7", 7, (D(CR.rational(2)), D(CR.rational(-2))))
    problem = build_problem([h5, w, h7], Fraction(1, 16), Fraction(1, 16), 1)
    rows = problem.v_rows
    exact = [j for j, (L, H, _, _) in enumerate(rows) if L == H]
    assert exact == [0, 2] and [rows[j][2] for j in exact] == [5, 7]
    placed.clear()
    with pytest.raises(NotFound) as stepped:
        search(problem, 1, 10 ** 7, m_bar=8)
    with pytest.raises(NotFound) as scanned:
        search_oracle(problem, 1, 10 ** 7, 8)
    assert str(stepped.value) == str(scanned.value)
    places = compiled(problem, rows, problem.epsilon)
    N = scanned.value.at
    while any(places[j](N) is None for j in exact):
        N += 1
    assert max(placed) == N > scanned.value.at == 1000


def test_search_holds_little_memory():
    # an interval first coordinate scanned N by N to a NotFound, and an
    # exact-first problem certified past its second level's period: a
    # level keeps at most its first period's hits
    corpus = jump_corpus(100)
    for k, n_max, want in ((18, 10 ** 5, None), (41, 10 ** 6, 397980)):
        problem = build_problem(corpus[k], Fraction(1, 64), Fraction(1, 64))
        ds = [d for L, H, d, _ in problem.v_rows if L == H]
        L, H, _, _ = problem.v_rows[0]
        if want is None:
            assert L != H
        else:
            assert want > lcm(*ds[:2]) > ds[0] and L == H
        tracemalloc.start()
        try:
            N = search(problem, 1, n_max, m_bar=8).N
        except NotFound:
            N = None
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert N == want and peak < 64 * 1024, (k, N, peak)


def test_verifiers_reject_a_certificate_missing_a_curve():
    problem = build_problem(forced_top_system().germs, Fraction(1, 256),
                            Fraction(1, 256))
    cert = search(problem, 1, 1000, m_bar=8)
    assert (cert.N, cert.m) == (10, (10, 5, 7))
    short = replace(cert, m=cert.m[:-1], Delta=cert.Delta[:-1],
                    rho=cert.rho[:-1], names=cert.names[:-1])
    for call in (lambda: verify_rounding(problem, short),
                 lambda: verify_jump(problem, short, 8),
                 lambda: scale(problem, short, 1, 8)):
        with pytest.raises(CertificateMismatch, match="curve names"):
            call()
    for field in ("m", "Delta"):
        with pytest.raises(CertificateMismatch, match=f"{field} length"):
            verify_rounding(problem, replace(
                cert, **{field: getattr(cert, field)[:-1]}))
