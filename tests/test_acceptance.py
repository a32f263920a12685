"""Acceptance suite: one test per exit criterion, exact tolerances.

Every criterion prints a single PASS line; run with `pytest -s
tests/test_acceptance.py` or directly as a script.  All equalities are
exact integer/rational arithmetic; interval comparisons are certified,
never approximate.
"""

from __future__ import annotations

import time
from fractions import Fraction

from geoindex.anosov import (GeodesicSystem, PipelineConfig,
                             mod4_window_certificate, replay, run_pipeline)
from geoindex.exact import CertifiedReal
from geoindex.iteration import (IndexProfile, deviation_bounds, germ_mbar,
                                index_at, mean_index)
from geoindex.jump import (build_problem, scale, search, verify_jump,
                           verify_rounding)
from geoindex.morse import (alternating_sums, betti_alternating,
                            euler_block_identity, morse_numbers_up_to,
                            parity_counts)
from geoindex.samples import hyperbolic_germ

from .corpus import (anosov_corpus, iteration_corpus, jump_corpus,
                     screen_corpus)
from .oracle import candidate_oracle

CR = CertifiedReal
DELTA64 = Fraction(1, 64)


def _report(criterion: str, detail: str, t0: float) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail}, {time.time() - t0:.1f}s)")


def _system_horizon(germs) -> int:
    horizon = 8
    for g in germs:
        if mean_index(g).gt(0):
            horizon = max(horizon, germ_mbar(g))
    return horizon


def test_criterion_1_iteration_suite():
    t0 = time.time()
    germs = iteration_corpus(200)
    assert len(germs) >= 200
    for germ in germs:
        assert index_at(germ, 1) == germ.i1  # exact reproduction
        profile = IndexProfile(germ, 10_000)
        vals = [profile.index(m) for m in range(1, 10_001)]
        # two-step parity up to 1000
        for m in range(0, 999):
            assert (vals[m + 2] - vals[m]) % 2 == 0
        # mean-index sandwich up to 10000, certified against the
        # (possibly interval) mean: den*i(m) - m*num within slack*den
        lower, upper = deviation_bounds(germ)
        mean = mean_index(germ)
        lo_n, lo_d = mean.lo.numerator, mean.lo.denominator
        hi_n, hi_d = mean.hi.numerator, mean.hi.denominator
        for m in range(1, 10_001):
            i_m = vals[m - 1]
            assert (i_m + lower) * lo_d >= m * lo_n
            assert (i_m - upper) * hi_d <= m * hi_n
    _report("1 iteration-formula suite",
            f"{len(germs)} germs, parity<=1000, sandwich<=10000", t0)


def test_criterion_2_worked_example_regression():
    t0 = time.time()
    from geoindex.samples import worked_example_B
    b = worked_example_B()
    assert index_at(b, 12) == 8
    assert mean_index(b).lo == Fraction(5, 6)
    prob = build_problem([b], Fraction(1, 100), Fraction(1, 100), 1)
    cert = search(prob, 1, 100, m_bar=6)
    assert (cert.N, cert.m[0], cert.Delta[0]) == (5, 6, 0)
    # rounding identity and the three jump identities, exactly
    assert 6 * 0 + 2 + 3 == 1 * cert.N + cert.Delta[0]
    assert index_at(b, 13) == 2 * cert.N + index_at(b, 1) == 12
    assert index_at(b, 11) == 2 * cert.N - index_at(b, 1) - 2 * (0 + 0) == 8
    assert index_at(b, 12) == 2 * cert.N - (0 + 2 - 2 * cert.Delta[0]) == 8
    assert verify_rounding(prob, cert).ok
    assert verify_jump(prob, cert, 6).ok
    _report("2 worked-example regression",
            f"N={cert.N}, m={cert.m[0]}, Delta={cert.Delta[0]}", t0)


def test_criterion_3_jump_soundness():
    t0 = time.time()
    systems = jump_corpus(100)
    assert len(systems) >= 100
    signs = set()
    for germs in systems:
        signs.update(1 if mean_index(g).gt(0) else -1 for g in germs)
        assert len(germs) <= 4
        prob = build_problem(germs, DELTA64, DELTA64, 1)
        horizon = _system_horizon(germs)
        cert = search(prob, 1, 10_000_000, m_bar=horizon)
        assert cert.N <= 10_000_000
        rounding = verify_rounding(prob, cert)
        identities = verify_jump(prob, cert, horizon)
        assert rounding.ok, rounding.first_failure()
        assert identities.ok, identities.first_failure()
    assert signs == {1, -1}
    _report("3 common-index-jump soundness",
            f"{len(systems)} systems, both signs, m<=horizon exact", t0)


def test_criterion_4_scaling():
    t0 = time.time()
    systems = jump_corpus(100)
    checked = 0
    for germs in systems:
        horizon = _system_horizon(germs)
        for p_hat in (2, 3, 4, 5):
            prob = build_problem(germs, DELTA64 / p_hat, DELTA64 / p_hat, 1)
            cert = search(prob, 1, 10_000_000, m_bar=horizon)
            scaled = scale(prob, cert, p_hat, m_bar=horizon)
            assert scaled.m_hat == tuple(p_hat * m for m in cert.m)
            assert scaled.chi_hat == cert.chi
            assert scaled.Delta_hat == cert.Delta
            assert all(ok for _, ok in scaled.checks)
            checked += 1
    _report("4 certificate scaling",
            f"{checked} scalings across p in 2..5, zero tolerance", t0)


def test_criterion_5_morse_betti_identities():
    t0 = time.time()
    # closed-form alternating Betti sums; the odd-truncated identity
    # needs N >= 2 (at N = 1 the degree-2 class is cut off and the sum
    # is 0), matching the window sizes the pipeline ever uses
    assert betti_alternating(2) == 1
    for n in range(2, 1001):
        assert betti_alternating(2 * n) == 2 * n - 1
        assert betti_alternating(2 * n - 1) == 2 * n - 3
    # signed local-homology sums against the parity invariant, and the
    # truncated alternating equalities, on verified configurations
    configs = 0
    for system in anosov_corpus(12):
        germs = list(system.germs)
        horizon = _system_horizon(germs)
        prob = build_problem(germs, DELTA64 / 4, DELTA64 / 4, 1)
        cert = search(prob, 2, 500_000, m_bar=horizon)
        assert verify_jump(prob, cert, horizon).ok
        lhs_total = 0
        for k, germ in enumerate(germs):
            lhs, rhs = euler_block_identity(germ, cert.m[k])
            assert lhs == rhs
            lhs_total += lhs
        n2 = 2 * cert.N
        counts = morse_numbers_up_to(germs, prob, cert, n2, horizon)
        e_hi, o_hi = parity_counts(germs, cert, n2)
        e_lo, o_lo = parity_counts(germs, cert, n2 - 1)
        assert lhs_total == alternating_sums(counts, n2) + e_hi - o_hi
        assert lhs_total == alternating_sums(counts, n2 - 1) + e_lo - o_lo
        configs += 1
    _report("5 Morse/Betti identities",
            f"Betti sums N<=1000, {configs} verified configurations", t0)


def test_criterion_6_pipeline_totality():
    t0 = time.time()
    config = PipelineConfig(n_max=500_000)
    systems = anosov_corpus(50)
    assert len(systems) >= 50
    stages = {}
    for system in systems:
        report = run_pipeline(system, config)
        assert report.final.startswith("CONTRADICTION"), report.final
        assert replay(report)
        stages[report.final] = stages.get(report.final, 0) + 1
    for system in screen_corpus(8):
        report = run_pipeline(system, config)
        assert report.final == "CONTRADICTION(parity-screen)"
        record = next(s for s in report.stages if s.name == "parity-screen")
        assert record.witness["M_2N_bound"] <= 1 < record.witness["betti_2N"]
        assert replay(report)
    _report("6 pipeline totality",
            f"50 admissible systems -> {stages}; 8 parity screens", t0)


def test_criterion_7_mod4_stage():
    t0 = time.time()
    # dense integer sweep of the arithmetic fact
    for n in range(1, 1_000_001):
        lo, hi = 8 * n - 2, 8 * n - 1
        # integer S in the base window [2N-2, 2N-1]
        assert not (lo <= 4 * (2 * n - 2) <= hi)
        assert not (lo <= 4 * (2 * n - 1) <= hi)
        # no multiple of 4 inside the scaled window at all
        assert lo % 4 == 2 and hi % 4 == 3
    # the full certificate object on a coarser grid, all gamma vectors
    gammas = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)]
    vectors = [(a, b, c) for a in gammas for b in gammas for c in gammas]
    for n in range(1, 1_000_001, 997):
        for vec in vectors:
            assert mod4_window_certificate(n, vec)["excluded"]
    _report("7 mod-4 arithmetic stage",
            "N<=10^6 dense + certificates on all 64 gamma vectors", t0)


def test_criterion_8_negative_controls():
    t0 = time.time()
    h = hyperbolic_germ("H", 1)
    prob = build_problem([h], DELTA64, DELTA64, 1)
    m_bar = germ_mbar(h)
    for n in range(3, 120):
        cert = candidate_oracle(prob, n, m_bar)
        assert cert is not None and cert.m == (n,)
    four = GeodesicSystem.of(
        hyperbolic_germ("a", 1), hyperbolic_germ("b", 2, (2, 5)),
        hyperbolic_germ("c", 2, (3, 7)), hyperbolic_germ("d", 4, (2, 7)))
    report = run_pipeline(four, PipelineConfig(n_max=10_000))
    assert report.final == "INCONCLUSIVE(outside-assumption)"
    _report("8 negative controls",
            "hyperbolic certificates at every N; 4-curve inconclusive", t0)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            fn()
