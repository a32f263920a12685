"""Impossibility pipeline: stages, witnesses, replay, controls."""

import copy
import json
from dataclasses import replace
from fractions import Fraction

import pytest

from geoindex import anosov, serialize
from geoindex.anosov import (AdmissibilityError, GeodesicSystem,
                             ImpossibilityReport, PipelineConfig, StageRecord,
                             mod4_window_certificate, replay, run_pipeline,
                             screen_parities, verify_index_window)
from geoindex.cli import main
from geoindex.exact import CertifiedReal
from geoindex.iteration import IndexGerm, germ_mbar, index_at
from geoindex.jump import (CertificateMismatch, JumpCertificate, NotFound,
                           VerificationReport, build_problem, search)
from geoindex.morse import morse_numbers_up_to
from geoindex.normal_forms import D, N1, R, classify_2x2
from geoindex.samples import (all_odd_system, forced_top_system,
                              gamma_window_system, hyperbolic_germ,
                              mismatch_system, mod4_system, perturbed,
                              two_odd_one_even_system)

from .corpus import anosov_corpus, jump_corpus, screen_corpus
from .test_byte_stability import ANOSOV, _json_digest

CR = CertifiedReal
CONFIG = PipelineConfig(n_max=300_000)


def _stage(report, name):
    return next(s for s in report.stages if s.name == name)


def test_mod4_system_reaches_final_stage():
    report = run_pipeline(mod4_system(20, 33), CONFIG)
    assert report.final == "CONTRADICTION(mod4-clash)"
    names = [s.name for s in report.stages]
    assert names.index("gamma-window") < names.index("scaling")
    squeeze = _stage(report, "gamma-window").witness
    n = int(_stage(report, "jump-search").witness["N"])
    assert n == 20
    assert Fraction(squeeze["S"]) == 2 * n - 2
    assert _stage(report, "scaled-window").verdict == "pass"
    assert replay(report)


def test_gamma_window_contradiction():
    report = run_pipeline(gamma_window_system(), CONFIG)
    assert report.final == "CONTRADICTION(gamma-window)"
    w = _stage(report, "gamma-window").witness
    n = int(_stage(report, "jump-search").witness["N"])
    assert Fraction(w["S"]) == 2 * n
    assert w["even_squeeze_ok"] and not w["odd_squeeze_ok"]
    assert replay(report)


def test_forced_top_contradiction():
    report = run_pipeline(forced_top_system(), CONFIG)
    assert report.final == "CONTRADICTION(forced-top)"
    w = _stage(report, "forced-top").witness
    n2 = int(w["two_N"])
    tops = {k: int(v) for k, v in w["tops"].items()}
    assert tops["c3"] != n2 and tops["c3"] % 2 == 1
    assert w["M_2N_bound"] < 2
    assert replay(report)


def test_a_box_angle_is_decided_at_the_width_its_echo_names():
    # c3's angle as a box of radius 1e-7 around 3/7 + 1e-5 has no decimal
    # literal, so its echo widens it to radius 1e-6; the report must be
    # about the system its echo names, and replay
    c, r = Fraction(3, 7) + Fraction(1, 10 ** 5), Fraction(1, 10 ** 7)
    box = R(CR.interval(c - r, c + r, irrational=True))
    c1, c2, c3 = forced_top_system().germs
    c3 = replace(c3, blocks=tuple(box if isinstance(b, R) else b
                                  for b in c3.blocks))
    report = run_pipeline(GeodesicSystem.of(c1, c2, c3), CONFIG)
    assert report.final == "CONTRADICTION(forced-top)"
    assert (report.system["curves"][2]["blocks"][0]["theta_over_pi"]
            == "0.428581~6")
    echoed = GeodesicSystem(serialize.system_from_dict(report.system))
    assert run_pipeline(echoed, CONFIG).to_dict() == report.to_dict()
    assert replay(report)


def test_a_classified_angle_is_echoed_within_the_default_budget():
    # classify_2x2 encloses acos(h)/pi for h = 89/400, near 3/7, on the
    # grid 1/(4*10**200); its echo must read back at the default budget
    h = Fraction(89, 400)
    block = classify_2x2(((CR.rational(2 * h), CR.rational(-1)),
                          (CR.rational(1), CR.rational(0))))
    c1, c2, c3 = forced_top_system().germs
    c3 = replace(c3, blocks=tuple(block if isinstance(b, R) else b
                                  for b in c3.blocks))
    report = run_pipeline(GeodesicSystem.of(c1, c2, c3), CONFIG)
    assert report.final == "CONTRADICTION(forced-top)"
    echo = report.system["curves"][2]["blocks"][0]["theta_over_pi"]
    assert echo.endswith("~200")
    assert replay(report)


def test_an_echo_names_the_budget_its_literals_need():
    # c3's angle as a 250-digit literal, read at a 300-digit budget, and
    # as a box whose widened echo needs 230 digits: each echo must name
    # the budget it is read at, or replay reads it at the default 200
    doc = serialize.system_to_dict(forced_top_system().germs)
    doc["precision"] = {"max_digits": 300}
    doc["curves"][2]["blocks"][0]["theta_over_pi"] = (
        "0.42858" + "1" * 245 + "~250")
    c, r = Fraction(3, 7) + Fraction(1, 10 ** 5), Fraction(1, 10 ** 231)
    box = R(CR.interval(c - r, c + r, irrational=True))
    c1, c2, c3 = forced_top_system().germs
    c3 = replace(c3, blocks=tuple(box if isinstance(b, R) else b
                                  for b in c3.blocks))
    for system, digits in (
            (GeodesicSystem(serialize.system_from_dict(doc)), 250),
            (GeodesicSystem.of(c1, c2, c3), 230)):
        report = run_pipeline(system, CONFIG)
        assert report.final == "CONTRADICTION(forced-top)"
        assert report.system["precision"] == {"max_digits": digits}
        assert replay(report)
    # within the built-in budget the document keeps its bytes
    assert "precision" not in serialize.system_to_dict(
        forced_top_system().germs)


def _decided(monkeypatch):
    """The germs each run_pipeline call decides on, as its admissibility
    stage reads them."""
    decided = []
    admissibility = anosov.admissibility

    def spy(system):
        decided.append(system.germs)
        return admissibility(system)

    monkeypatch.setattr(anosov, "admissibility", spy)
    return decided


def _read_back():
    return serialize.system_from_dict(
        serialize.system_to_dict(forced_top_system().germs))


def test_an_echo_writes_a_literal_only_for_its_value(monkeypatch):
    # c3's parsed angle moved by 10**-4 is a decimal at the same radius:
    # the echo writes the moved value, and the run decides on it
    c1, c2, c3 = _read_back()
    t = c3.blocks[0].t
    step = Fraction(1, 10 ** 4)
    moved = replace(t, lo=t.lo + step, hi=t.hi + step)
    assert serialize.number_to_str(moved) != serialize.number_to_str(t)
    germs = (c1, c2, replace(c3, blocks=(R(moved),) + c3.blocks[1:]))
    decided = _decided(monkeypatch)
    report = run_pipeline(GeodesicSystem(germs), CONFIG)
    assert report.final == "CONTRADICTION(forced-top)" and replay(report)
    assert decided[0] == germs == serialize.system_from_dict(report.system)


def test_a_declared_irrational_eigenvalue_is_decided_as_echoed(monkeypatch):
    # the D schema writes no flag, so the echo of a declared-irrational
    # eigenvalue reads back rational, and the run decides on that reading
    c1, c2, c3 = _read_back()

    def system(lam):
        return GeodesicSystem((replace(c1, blocks=(D(lam),) + c1.blocks[1:]),
                               c2, c3))

    decided = _decided(monkeypatch)
    two = system(CR.parse("2.0~1", irrational=True))
    assert not serialize._echoes_exactly(two.germs)
    report = run_pipeline(two, CONFIG)
    assert report.final == "CONTRADICTION(forced-top)" and replay(report)
    assert decided[0] == serialize.system_from_dict(report.system)
    # read rational, [0.9, 1.1] is no D eigenvalue: no report names it
    with pytest.raises(ValueError, match="D eigenvalue must certify != 1"):
        run_pipeline(system(CR.parse("1.0~1", irrational=True)), CONFIG)
    # no literal at radius 1/10 contains [2.06, 2.21]: none is written
    wide = CR.interval(Fraction(206, 100), Fraction(221, 100),
                       irrational=True)
    with pytest.raises(ValueError, match="no literal at radius 1/10"):
        run_pipeline(system(wide), CONFIG)


def test_an_echo_that_reads_back_as_no_germ_names_its_curve():
    # [0.9, 1.1] declared irrational is a D eigenvalue, but its echo
    # "1.0~1" reads back rational and straddles 1: the run refuses the
    # system with an AdmissibilityError that names the curve
    c1, c2, c3 = _read_back()
    lam = CR.parse("1.0~1", irrational=True)
    system = GeodesicSystem((c1, c2, replace(c3, blocks=(D(lam),)
                                             + c3.blocks[1:])))
    with pytest.raises(AdmissibilityError) as err:
        run_pipeline(system, CONFIG)
    assert str(err.value) == (
        "curve 'c3' reads back from its echo as no germ (the D schema "
        "writes no irrational flag): D eigenvalue must certify != 1")


def test_a_spelling_of_the_same_value_gives_the_same_report(tmp_path):
    # c3's angle with a trailing zero is the same value: the report is
    # byte for byte the pinned one
    doc = serialize.system_to_dict(forced_top_system().germs)
    block = doc["curves"][2]["blocks"][0]
    digits, k = block["theta_over_pi"].split("~")
    block["theta_over_pi"] = f"{digits}0~{k}"
    assert serialize.system_from_dict(doc) == _read_back()
    path = tmp_path / "zero.json"
    path.write_text(serialize.dumps(doc), encoding="utf-8")
    assert _json_digest(tmp_path, ["anosov", "--system", str(path),
                                   "--n-max", "100000"], 2) \
        == ANOSOV["forced-top"][1]


def test_mismatch_dies_in_gamma_window():
    report = run_pipeline(mismatch_system(), CONFIG)
    assert report.final == "CONTRADICTION(gamma-window)"
    assert replay(report)


def test_two_odd_one_even_screen():
    report = run_pipeline(two_odd_one_even_system(), CONFIG)
    assert report.final == "CONTRADICTION(parity-screen)"
    w = _stage(report, "parity-screen").witness
    assert w["argument"] == "two-odd-one-even"
    assert w["M_2N_bound"] <= 1 < w["betti_2N"]
    assert w["window_ok"]
    assert replay(report)


def test_forged_window_ok_does_not_replay():
    report = run_pipeline(two_odd_one_even_system(), CONFIG)
    _stage(report, "parity-screen").witness["window_ok"] = False
    assert not replay(report)


def test_report_missing_its_stages_does_not_replay():
    report = run_pipeline(gamma_window_system(5, (2, 7), seed=0), CONFIG)
    assert report.final == "CONTRADICTION(gamma-window)" and replay(report)
    without = [replace(report, stages=[s for s in report.stages
                                       if s.name != name])
               for name in ("gamma-window", "jump-search")]
    bogus = replace(report, final="CONTRADICTION(bogus)")
    for forged in without + [bogus]:
        assert replay(forged) is False


@pytest.fixture(scope="module")
def contradictions():
    """Every contradiction of the corpora, each report built once."""
    config = PipelineConfig(n_max=500_000)
    reports = [run_pipeline(system, config) for system in
               anosov_corpus(50) + screen_corpus(8) + [all_odd_system()]]
    assert len(reports) == 59
    return reports


def _with_final(report, witness):
    final = report.stages[-1]
    return replace(report, stages=report.stages[:-1] + [
        replace(final, witness=witness)])


def test_replay_never_raises_on_a_malformed_witness(contradictions):
    kinds = set()
    for report in contradictions:
        final = report.stages[-1]
        assert report.final == f"CONTRADICTION({final.name})"
        kinds.add(final.witness.get("argument", final.name))
        assert replay(report) is True
        for key in final.witness:
            deleted = {k: v for k, v in final.witness.items() if k != key}
            for witness in (deleted, {**final.witness, key: None}):
                assert replay(_with_final(report, witness)) is False, \
                    (report.final, key)
    assert kinds == {"all-odd", "two-odd-one-even", "forced-top",
                     "gamma-window", "mod4-clash"}


def _leaves(value, path=()):
    """(path, leaf) for every leaf of a JSON-like value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, path + (key,))
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from _leaves(item, path + (k,))
    else:
        yield path, value


def _perturbed(leaf):
    """The numeric leaf moved by one, or None if it is no number."""
    if isinstance(leaf, bool):
        return None
    if isinstance(leaf, int):
        return leaf + 1
    try:
        return str(Fraction(leaf) + 1)
    except (TypeError, ValueError):
        return None


def _tampered(report, index, path, leaf):
    """The report with one leaf of stage `index`'s witness replaced."""
    witness = copy.deepcopy(report.stages[index].witness)
    parent = witness
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = leaf
    stages = list(report.stages)
    stages[index] = replace(stages[index], witness=witness)
    return replace(report, stages=stages)


# the certificate fields a forger might move; M0 is left out, because a
# certificate with M0 = 2 and an even N is the genuine one of an M0 = 2 run
CERTIFICATE_FIELDS = {"N", "m", "chi", "Delta", "rho", "delta", "epsilon",
                      "M"}


def test_tampered_reports_do_not_replay(contradictions):
    tampered = 0
    for report in contradictions:
        last = len(report.stages) - 1
        targets = [(last, path, leaf)
                   for path, leaf in _leaves(report.stages[last].witness)]
        for index, stage in enumerate(report.stages):
            if stage.name == "jump-search":
                targets += [(index, path, leaf)
                            for path, leaf in _leaves(stage.witness)
                            if {path[0], path[-1]} & CERTIFICATE_FIELDS]
        for index, path, leaf in targets:
            forged = _perturbed(leaf)
            if forged is not None:
                assert replay(_tampered(report, index, path, forged)) \
                    is False, (report.final, path, leaf)
                tampered += 1
    assert tampered > 1500


def test_forgeries_found_by_hand_do_not_replay():
    window = run_pipeline(gamma_window_system(), CONFIG)
    clash = run_pipeline(mod4_system(20, 33), CONFIG)
    assert replay(window) and replay(clash)
    forged_window = _tampered(window, -1, ("window",),
                              ["-1000000", "-999999"])
    forged_clash = copy.deepcopy(clash)
    forged_clash.stages[-1].witness.update(S_hat="1", S="1/4")
    reindexed = copy.deepcopy(window)
    c1 = reindexed.system["curves"][0]
    assert (c1["name"], c1["initial_index"]) == ("c1", 1)
    c1["initial_index"] = 3
    unechoed = replace(window, system={})
    for forged in (forged_window, forged_clash, reindexed, unechoed):
        assert replay(forged) is False


NON_DEFAULT = (
    PipelineConfig(delta=Fraction(1, 32), epsilon=Fraction(1, 48),
                   n_max=300),
    PipelineConfig(p_hat=3, n_max=300),
    PipelineConfig(M0=2, n_max=300),
    PipelineConfig(mbar_override=40, n_max=300),
)


def test_reports_at_non_default_settings_replay():
    systems = anosov_corpus(50)[:20]
    replayed = 0
    for config in NON_DEFAULT:
        for system in systems:
            try:
                report = run_pipeline(system, config)
            except NotFound:
                continue
            assert report.final.startswith("CONTRADICTION")
            assert replay(report), (config, report.final)
            replayed += 1
    assert replayed >= 65
    # a parity screen records no tolerances: it replays at the defaults
    for k in range(3, 9):
        tolerance = Fraction(1, 2 ** k)
        report = run_pipeline(two_odd_one_even_system(), PipelineConfig(
            delta=tolerance, epsilon=tolerance, n_max=300_000))
        assert report.final == "CONTRADICTION(parity-screen)"
        assert replay(report), tolerance


def test_screen_report_whose_n_fails_at_the_defaults_does_not_replay():
    # a genuine report at delta = eps = 1/4 whose N = 4 has no certificate
    # at the defaults; the screen's witness records no tolerances, so its
    # replay is False until it does
    c3 = IndexGerm("c3", 2, (R(perturbed(Fraction(2, 7), k=3)),
                             D(CR.rational(2))))
    system = GeodesicSystem.of(hyperbolic_germ("c1", 1),
                               hyperbolic_germ("c2", 3, (2, 5)), c3)
    wide = Fraction(1, 4)
    report = run_pipeline(system, PipelineConfig(delta=wide, epsilon=wide))
    witness = report.stages[-1].witness
    assert report.final == "CONTRADICTION(parity-screen)"
    assert witness["argument"] == "two-odd-one-even" and witness["window_ok"]
    assert witness["N"] == 4
    with pytest.raises(NotFound):
        run_pipeline(system, PipelineConfig(n_min=4, n_max=4))
    assert replay(report) is False
    # the same system at the defaults certifies at another N and replays
    assert replay(run_pipeline(system, PipelineConfig())) is True


@pytest.mark.parametrize("family", sorted(ANOSOV))
def test_pinned_cli_reports_replay(tmp_path, family):
    path, out = tmp_path / "system.json", tmp_path / "report.json"
    path.write_text(serialize.dumps(serialize.system_to_dict(
        ANOSOV[family][0].germs)), encoding="utf-8")
    assert main(["anosov", "--system", str(path), "--n-max", "100000",
                 "--format", "json", "--output", str(out)]) == 2
    doc = json.loads(out.read_text(encoding="utf-8"))
    report = ImpossibilityReport(
        doc["system"], [StageRecord(**s) for s in doc["stages"]],
        doc["final"])
    assert replay(report) is True


def _failing_window(monkeypatch, fail_from_call):
    """Make the index-window check fail from its fail_from_call-th call
    on, keeping every other number."""
    calls = []

    def window(germs, cert, m_bar):
        calls.append(cert)
        report = verify_index_window(germs, cert, m_bar)
        report.ok = report.ok and len(calls) < fail_from_call
        return report

    monkeypatch.setattr(anosov, "verify_index_window", window)
    return calls


def test_failing_window_yields_no_parity_contradiction(monkeypatch):
    _failing_window(monkeypatch, 1)
    report = run_pipeline(two_odd_one_even_system(), CONFIG)
    screen = _stage(report, "parity-screen")
    assert screen.verdict == "error" and not screen.witness["window_ok"]
    assert report.final == "INCONCLUSIVE(verification-error)"
    assert not replay(report)


def test_failing_scaled_window_yields_no_contradiction(monkeypatch):
    calls = _failing_window(monkeypatch, 2)  # the base window passes
    report = run_pipeline(mod4_system(20, 33), CONFIG)
    assert len(calls) == 2
    stage = _stage(report, "scaled-window")
    assert stage.verdict == "error" and not stage.witness["window_ok"]
    assert report.stages[-1] is stage
    assert report.final == "INCONCLUSIVE(verification-error)"


def test_a_run_ends_at_its_first_stage_that_does_not_pass(monkeypatch):
    # one run per verdict: every stage before the last passes, and the
    # last stage's verdict names the final
    def ends(system, verdict, final):
        report = run_pipeline(system, CONFIG)
        *passed, last = report.stages
        assert all(s.verdict == "pass" for s in passed)
        assert (last.verdict, report.final) == (verdict, final)
        return last.name

    assert ends(forced_top_system(), "contradiction",
                "CONTRADICTION(forced-top)") == "forced-top"
    all_even = GeodesicSystem.of(
        hyperbolic_germ("a", 2), hyperbolic_germ("b", 2, (2, 5)),
        hyperbolic_germ("c", 4, (3, 7)))
    assert ends(all_even, "inconclusive",
                "INCONCLUSIVE(outside-assumption)") == "parity-screen"
    clash = anosov.mod4_contradiction
    monkeypatch.setattr(anosov, "mod4_contradiction",
                        lambda *a: replace(clash(*a), verdict="pass"))
    assert ends(mod4_system(20, 33), "pass",
                "INCONCLUSIVE(no-stage-failed)") == "mod4-clash"
    # a failing rounding check ends the run before the jump identities
    monkeypatch.setattr(anosov, "verify_rounding",
                        lambda problem, cert: VerificationReport(
                            False, lambda: iter(())))
    assert ends(mod4_system(20, 33), "error",
                "INCONCLUSIVE(verification-error)") == "rounding-check"


def test_all_odd_screen():
    report = run_pipeline(all_odd_system(), CONFIG)
    assert report.final == "CONTRADICTION(parity-screen)"
    w = _stage(report, "parity-screen").witness
    assert w["argument"] == "all-odd" and w["M"] == 0 < w["betti"]
    assert replay(report)


def test_four_curves_is_outside_scope():
    four = GeodesicSystem.of(
        hyperbolic_germ("a", 1), hyperbolic_germ("b", 2, (2, 5)),
        hyperbolic_germ("c", 2, (3, 7)), hyperbolic_germ("d", 4, (2, 7)))
    report = run_pipeline(four, CONFIG)
    assert report.final == "INCONCLUSIVE(outside-assumption)"
    # one record shape for this verdict: the parity screen's own
    assert report.stages == [screen_parities(four, CONFIG)]


def test_all_even_is_outside_scope():
    sys3 = GeodesicSystem.of(
        hyperbolic_germ("a", 2), hyperbolic_germ("b", 2, (2, 5)),
        hyperbolic_germ("c", 4, (3, 7)))
    report = run_pipeline(sys3, CONFIG)
    assert report.final == "INCONCLUSIVE(outside-assumption)"


def test_odd_index_above_one_is_outside_scope():
    sys3 = GeodesicSystem.of(
        hyperbolic_germ("a", 3), hyperbolic_germ("b", 2, (2, 5)),
        hyperbolic_germ("c", 4, (3, 7)))
    report = run_pipeline(sys3, CONFIG)
    assert report.final == "INCONCLUSIVE(outside-assumption)"


def test_admissibility_rejects_shear_blocks():
    degenerate = GeodesicSystem.of(
        IndexGerm("a", 1, (N1(1, "positive"), D(CR.rational(2)))),
        hyperbolic_germ("b", 2, (2, 5)),
        hyperbolic_germ("c", 2, (3, 7)))
    with pytest.raises(AdmissibilityError):
        run_pipeline(degenerate, CONFIG)


def test_admissibility_rejects_rational_angles():
    degenerate = GeodesicSystem.of(
        IndexGerm("a", 1, (R(CR.rational(Fraction(1, 2))),
                           D(CR.rational(2)))),
        hyperbolic_germ("b", 2, (2, 5)),
        hyperbolic_germ("c", 2, (3, 7)))
    with pytest.raises(AdmissibilityError):
        run_pipeline(degenerate, CONFIG)


def test_admissibility_refuses_other_manifolds(tmp_path, capsys):
    # one more D(5) per germ puts each on a 4-manifold, where the Betti
    # numbers the stages cite, those of S^3's loop space, do not hold
    line = ("germ 'c1' is on a manifold of dimension 4; the pipeline holds "
            "for S^3 only")
    for system in (forced_top_system(), mismatch_system()):
        germs = tuple(IndexGerm(g.name, g.i1, g.blocks + (D(CR.rational(5)),),
                                n=4) for g in system.germs)
        with pytest.raises(AdmissibilityError) as refused:
            run_pipeline(GeodesicSystem(germs), CONFIG)
        assert str(refused.value) == line
        path = tmp_path / "dim4.json"
        path.write_text(serialize.dumps(serialize.system_to_dict(germs)),
                        encoding="utf-8")
        assert main(["anosov", "--system", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {line}\n"


def test_admissibility_rejects_zero_index():
    bad = GeodesicSystem.of(
        hyperbolic_germ("a", 0), hyperbolic_germ("b", 2, (2, 5)),
        hyperbolic_germ("c", 2, (3, 7)))
    with pytest.raises(AdmissibilityError):
        run_pipeline(bad, CONFIG)


def test_index_window_holds_on_verified_certificates():
    germs = (hyperbolic_germ("a", 1).blocks and
             [hyperbolic_germ("a", 1),
              IndexGerm("b", 2, (R(perturbed(Fraction(3, 7))),
                                 D(CR.rational(3))))])
    prob = build_problem(germs, Fraction(1, 64), Fraction(1, 64), 1)
    m_bar = max(germ_mbar(g) for g in germs)
    cert = search(prob, 2, 100_000, m_bar=m_bar)
    window = verify_index_window(germs, cert, m_bar)
    assert window.ok
    for k, germ in enumerate(germs):
        n2 = 2 * cert.N
        for j in range(1, 2 * cert.m[k]):
            assert index_at(germ, j) <= n2 - germ.i1


def test_mod4_window_certificate_arithmetic():
    for n in (2, 3, 50, 12345):
        for gam in ((Fraction(1), Fraction(1), Fraction(-1)),
                    (Fraction(1, 2), Fraction(1), Fraction(1)),
                    (Fraction(-1, 2), Fraction(1, 2), Fraction(1))):
            cert = mod4_window_certificate(n, gam)
            assert cert["excluded"]
            assert cert["multiples_of_4_in_scaled_window"] == []
            for p in (1, 2, 3, 5):
                cert = mod4_window_certificate(n, gam, p)
                assert cert["scaled_window"] == [2 * p * n - 2, 2 * p * n - 1]
                assert cert["excluded"] == (p >= 3)


def test_mod4_clash_reads_the_scaling_factor():
    # the lattice argument excludes the scaled window [2pN-2, 2pN-1] only
    # for p >= 3: at p = 1 or 2 a multiple of p lies inside it
    for p in (1, 2):
        report = run_pipeline(mod4_system(20, 33), replace(CONFIG, p_hat=p))
        assert report.final == "INCONCLUSIVE(no-stage-failed)", p
        assert not replay(report)
    report = run_pipeline(mod4_system(20, 33), replace(CONFIG, p_hat=3))
    assert report.final == "CONTRADICTION(mod4-clash)"
    w = _stage(report, "mod4-clash").witness
    n = _stage(report, "jump-search").witness["N"]
    assert w["scaled_window"] == [6 * n - 2, 6 * n - 1] == (
        w["window_certificate"]["scaled_window"])
    assert replay(report)


def test_pipeline_is_deterministic():
    from geoindex import serialize
    a = run_pipeline(mod4_system(16, 29), CONFIG)
    b = run_pipeline(mod4_system(16, 29), CONFIG)
    assert serialize.dumps(a.to_dict()) == serialize.dumps(b.to_dict())


def test_serialized_report_roundtrip():
    import json
    from geoindex import serialize
    report = run_pipeline(mod4_system(16, 29), CONFIG)
    blob = serialize.dumps(report.to_dict())
    parsed = json.loads(blob)
    assert parsed["final"] == report.final
    assert serialize.dumps(parsed) == blob
    germs = serialize.system_from_dict(parsed["system"])
    assert [g.name for g in germs] == ["c1", "c2", "c3"]


def test_window_reports_every_failing_iterate_below():
    # the deviation bound skips iterates; arbitrary (N, m) put failures
    # right at the edge of the skipped range
    germs = (mod4_system(16, 29).germs + forced_top_system().germs
             + gamma_window_system().germs)
    for germ in germs:
        for n in (3, 7, 20, 41):
            for m_k in (2, 5, 17, 40):
                cert = JumpCertificate(n, (m_k,), (), (0,), (1,),
                                       Fraction(1, 64), Fraction(1, 64),
                                       1, 1, (germ.name,))
                report = verify_index_window([germ], cert, 1)
                got = [f["iterate"] for f in report.failures
                       if f["side"] == "below"]
                want = [j for j in range(1, 2 * m_k)
                        if index_at(germ, j) > 2 * n - germ.i1]
                assert got == want, (germ.name, n, m_k)


def test_window_rejects_a_negative_curve_before_any_iterate(monkeypatch):
    # a rho = -1 curve settles no iterate and fails nearly every one
    # below 2m_k: the check must refuse it, not walk and list them
    germs = jump_corpus(1)[0]
    cert = search(build_problem(germs, Fraction(1, 64), Fraction(1, 64), 1),
                  1, 10_000_000, m_bar=8)
    negative = [g.name for g, r in zip(germs, cert.rho) if r == -1]
    assert negative and cert.rho[0] == 1

    def no_iterate(kernel, m):
        raise AssertionError(f"iterate {m} evaluated")

    monkeypatch.setattr(anosov, "_index", no_iterate)
    with pytest.raises(ValueError, match=repr(negative[0])):
        verify_index_window(germs, cert, 8)


def test_window_and_morse_counts_take_the_certificates_curves(monkeypatch):
    # the forced-top certificate read with two of its three germs, or
    # with all three reversed: a mismatch, found before any iterate
    germs = forced_top_system().germs
    problem = build_problem(germs, Fraction(1, 256), Fraction(1, 256))
    cert = search(problem, 1, 1000, m_bar=8)
    assert cert.names == tuple(g.name for g in germs)
    assert verify_index_window(germs, cert, 8).ok
    morse_numbers_up_to(germs, problem, cert, 2 * cert.N, 8)

    def no_iterate(kernel, m):
        raise AssertionError(f"iterate {m} evaluated")

    for other in (germs[:2], germs[::-1]):
        with pytest.raises(CertificateMismatch, match="curve names"):
            morse_numbers_up_to(other, problem, cert, 2 * cert.N, 8)
        with monkeypatch.context() as patch:
            patch.setattr(anosov, "_index", no_iterate)
            with pytest.raises(CertificateMismatch, match="curve names"):
                verify_index_window(other, cert, 8)
