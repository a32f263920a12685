"""Command-line surface: parsing, subcommands, round trips, exit codes."""

import json
import random
from fractions import Fraction
from math import isqrt

import pytest

from geoindex import cli, serialize
from geoindex.cli import main, parse_system
from geoindex.exact import CertifiedReal
from geoindex.iteration import IndexGerm
from geoindex.normal_forms import D, N1, R
from geoindex.samples import (forced_top_system, mod4_system,
                              worked_example_B)


@pytest.fixture(autouse=True)
def stdlib_bytes(monkeypatch):
    """Every payload written here, by the CLI or a fixture, must be the
    stdlib encoder's bytes."""
    dumps = serialize.dumps

    def checked(obj):
        text = dumps(obj)
        assert text == json.dumps(obj, sort_keys=True, indent=2) + "\n"
        return text

    monkeypatch.setattr(serialize, "dumps", checked)


@pytest.fixture()
def system_b(tmp_path):
    doc = serialize.system_to_dict([worked_example_B()])
    path = tmp_path / "b.json"
    path.write_text(serialize.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture()
def assumption_system(tmp_path):
    doc = serialize.system_to_dict(mod4_system(16, 29).germs)
    path = tmp_path / "assumption.json"
    path.write_text(serialize.dumps(doc), encoding="utf-8")
    return str(path)


def test_parse_system_roundtrip(system_b):
    germs = parse_system(system_b)
    assert len(germs) == 1 and germs[0].name == "B"
    again = serialize.system_from_dict(
        json.loads(serialize.dumps(serialize.system_to_dict(germs))))
    assert again == germs


def test_parse_rejects_bad_angle(tmp_path):
    doc = {"manifold": {"dim": 3},
           "curves": [{"name": "x", "initial_index": 1,
                       "blocks": [{"type": "R", "theta_over_pi": "1"},
                                  {"type": "D", "lambda": "2"}]}]}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["index", "--system", str(p)]) == 1


def test_parse_rejects_duplicates_and_unknown_fields(tmp_path):
    base = {"manifold": {"dim": 3},
            "curves": [{"name": "x", "initial_index": 1,
                        "blocks": [{"type": "D", "lambda": "2"},
                                   {"type": "D", "lambda": "3"}]},
                       {"name": "x", "initial_index": 2,
                        "blocks": [{"type": "D", "lambda": "2"},
                                   {"type": "D", "lambda": "3"}]}]}
    p = tmp_path / "dup.json"
    p.write_text(json.dumps(base), encoding="utf-8")
    assert main(["mean-index", "--system", str(p)]) == 1
    weird = {"manifold": {"dim": 3}, "surprise": 1, "curves": []}
    p2 = tmp_path / "weird.json"
    p2.write_text(json.dumps(weird), encoding="utf-8")
    assert main(["mean-index", "--system", str(p2)]) == 1


def test_index_table(system_b, capsys):
    assert main(["index", "--system", system_b, "--curve", "B",
                 "--m-max", "12"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1].split() == ["12", "8", "4"]


def test_mean_index_json(system_b, capsys):
    assert main(["mean-index", "--system", system_b,
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["curves"][0]["mean_index"] == "5/6"


def test_gamma_and_mbar(system_b, capsys):
    assert main(["gamma", "--system", system_b]) == 0
    assert "B: 1" in capsys.readouterr().out
    assert main(["mbar", "--system", system_b]) == 0
    assert "system: 6" in capsys.readouterr().out


def test_jump_search_and_verify_roundtrip(system_b, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code = main(["jump-search", "--system", system_b,
                 "--delta", "1/100", "--epsilon", "1/100",
                 "--n-max", "100", "--format", "json",
                 "--output", str(cert_path)])
    assert code == 0
    doc = json.loads(cert_path.read_text(encoding="utf-8"))
    assert doc["N"] == 5 and doc["curves"][0]["m"] == 6
    # byte-identical re-emission
    again = serialize.dumps(serialize.certificate_to_dict(
        serialize.certificate_from_dict(doc)))
    assert again == cert_path.read_text(encoding="utf-8")
    assert main(["verify-jump", "--system", system_b,
                 "--certificate", str(cert_path)]) == 0
    out = capsys.readouterr().out
    assert "rounding: ok" in out


def test_scale_jump(system_b, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    main(["jump-search", "--system", system_b, "--delta", "1/100",
          "--epsilon", "1/100", "--n-max", "100", "--format", "json",
          "--output", str(cert_path)])
    assert main(["scale-jump", "--system", system_b,
                 "--certificate", str(cert_path), "--p-hat", "2"]) == 0
    out = capsys.readouterr().out
    assert "N_hat = 10" in out and "m_hat = [12]" in out


def test_morse_table(tmp_path, capsys):
    doc = {"manifold": {"dim": 3},
           "curves": [{"name": "H", "initial_index": 1,
                       "blocks": [{"type": "D", "lambda": "2"},
                                  {"type": "D", "lambda": "3"}]}]}
    sys_path = tmp_path / "h.json"
    sys_path.write_text(json.dumps(doc), encoding="utf-8")
    cert_path = tmp_path / "cert.json"
    main(["jump-search", "--system", str(sys_path), "--delta", "1/100",
          "--n-min", "5", "--n-max", "20", "--format", "json",
          "--output", str(cert_path)])
    assert main(["morse", "--system", str(sys_path),
                 "--certificate", str(cert_path)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0].split() == ["q", "M_q", "b_q"]


def test_anosov_exit_code_and_report(assumption_system, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["anosov", "--system", assumption_system,
                 "--n-max", "100000", "--format", "json",
                 "--output", str(out_path)])
    assert code == 2
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["final"] == "CONTRADICTION(mod4-clash)"
    assert doc["system"]["curves"][0]["name"] == "c1"


def test_missing_file_is_an_error():
    assert main(["index", "--system", "/nonexistent.json"]) == 1


def test_a_directory_path_is_one_error_line(system_b, tmp_path, capsys):
    # a directory read as a system or certificate, or written as output
    for argv in (["mbar", "--system", str(tmp_path)],
                 ["mbar", "--system", system_b, "--output", str(tmp_path)],
                 ["verify-jump", "--system", system_b,
                  "--certificate", str(tmp_path)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert f"'{tmp_path}'" in err, argv


def test_an_unreadable_certificate_names_its_file(system_b, tmp_path,
                                                  capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("", encoding="utf-8")
    line = (f"error: {empty}: invalid JSON: Expecting value: line 1 "
            f"column 1 (char 0)\n")
    assert main(["mbar", "--system", str(empty)]) == 1
    assert capsys.readouterr().err == line
    for argv in (["verify-jump"], ["scale-jump", "--p-hat", "2"], ["morse"]):
        assert main(argv + ["--system", system_b,
                            "--certificate", str(empty)]) == 1
        assert capsys.readouterr().err == line, argv


def test_tolerance_validation(system_b, capsys):
    with pytest.raises(SystemExit):
        main(["jump-search", "--system", system_b, "--delta", "3/4"])


def test_unknown_flag_exits_1(system_b, capsys):
    # exit 2 would read as a certified contradiction
    with pytest.raises(SystemExit) as stop:
        main(["anosov", "--system", system_b, "--workers", "2"])
    assert stop.value.code == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "geoindex: error: unrecognized arguments: --workers 2"
    assert sum("error:" in line for line in err) == 1
    with pytest.raises(SystemExit) as stop:
        main(["anosov", "--help"])
    assert stop.value.code == 0


HN = IndexGerm("HN", -1, (D(CertifiedReal.rational(2)),
                          D(CertifiedReal.rational(3))))

# case: (system, subcommand, change made to the searched certificate)
BAD_CERTIFICATES = {
    "curves-missing": ([worked_example_B()], "verify-jump",
                       lambda c: c.pop("curves")),
    "m-missing": ([worked_example_B()], "verify-jump",
                  lambda c: c["curves"][0].pop("m")),
    "chi-cut": ([worked_example_B()], "verify-jump",
                lambda c: c.update(chi=c["chi"][:1])),
    "curve-renamed": ([worked_example_B()], "verify-jump",
                      lambda c: c["curves"][0].update(name="Z")),
    "curves-doubled": ([worked_example_B()], "verify-jump",
                       lambda c: c.update(curves=c["curves"] * 2)),
    "rho-flipped": ([worked_example_B()], "verify-jump",
                    lambda c: c["curves"][0].update(rho=-1)),
    "M-changed": ([worked_example_B()], "scale-jump",
                  lambda c: c.update(M=7)),
    "N-not-integer": ([worked_example_B()], "scale-jump",
                      lambda c: c.update(N="5")),
    "delta-not-rational": ([worked_example_B()], "scale-jump",
                           lambda c: c.update(delta=0.01)),
    "name-not-string": ([worked_example_B()], "verify-jump",
                        lambda c: c["curves"][0].update(name=5)),
    # digits of other scripts, which Fraction and int() would read
    "delta-arabic-indic-digits": ([worked_example_B()], "verify-jump",
                                  lambda c: c.update(delta="\u0661/100")),
    "epsilon-fullwidth-digits": ([worked_example_B()], "scale-jump",
                                 lambda c: c.update(
                                     epsilon="1/\uff11\uff10\uff10")),
    "morse-negative-index": ([HN], "morse", lambda c: None),
}


@pytest.mark.parametrize("case", sorted(BAD_CERTIFICATES))
def test_bad_certificate_is_one_error_line(case, tmp_path, capsys):
    germs, command, tamper = BAD_CERTIFICATES[case]
    system = tmp_path / "system.json"
    system.write_text(serialize.dumps(serialize.system_to_dict(germs)),
                      encoding="utf-8")
    cert = tmp_path / "cert.json"
    assert main(["jump-search", "--system", str(system), "--delta", "1/100",
                 "--epsilon", "1/100", "--n-max", "100", "--mbar", "6",
                 "--format", "json", "--output", str(cert)]) == 0
    doc = json.loads(cert.read_text(encoding="utf-8"))
    tamper(doc)
    cert.write_text(json.dumps(doc), encoding="utf-8")
    extra = ["--p-hat", "2"] if command == "scale-jump" else []
    capsys.readouterr()
    assert main([command, "--system", str(system), "--certificate",
                 str(cert), "--mbar", "6"] + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    if case == "chi-cut":
        assert err == ("error: certificate does not fit the system: "
                       "chi length 1, want 3\n")
    if case == "name-not-string":  # read as is, never as the name "5"
        assert err == "error: 'name' must be a string, got 5\n"
    if case == "delta-arabic-indic-digits":  # never read as 1/100
        assert err == ("error: certificate 'delta' must be a rational "
                       "string \"p/q\", got '\u0661/100'\n")


def test_a_certificate_off_its_grid_is_one_error_line(tmp_path, capsys):
    # the forced-top certificate, N = 10 at M0 = 1, rewritten to M0 = 7
    # or to N = 0 or -10: verify-jump builds the problem from the
    # certificate's M0 and tolerances, and refuses its N
    system = tmp_path / "system.json"
    system.write_text(serialize.dumps(serialize.system_to_dict(
        forced_top_system().germs)), encoding="utf-8")
    cert = tmp_path / "cert.json"
    assert main(["jump-search", "--system", str(system), "--delta", "1/256",
                 "--epsilon", "1/256", "--n-max", "1000", "--mbar", "8",
                 "--format", "json", "--output", str(cert)]) == 0
    searched = json.loads(cert.read_text(encoding="utf-8"))
    assert (searched["N"], searched["M0"]) == (10, 1)
    for field, value, want in (("M0", 7, "N 10, want a positive multiple "
                                         "of 7"),
                               ("N", 0, "N 0, want a positive multiple of 1"),
                               ("N", -10, "N -10, want a positive multiple "
                                          "of 1")):
        cert.write_text(json.dumps({**searched, field: value}),
                        encoding="utf-8")
        capsys.readouterr()
        assert main(["verify-jump", "--system", str(system), "--certificate",
                     str(cert), "--mbar", "8"]) == 1
        assert capsys.readouterr().err == (
            f"error: certificate does not fit the system: {want}\n")


def _curve(doc):
    return doc["curves"][0]


# case: change made to the system document of worked_example_B
BAD_SYSTEMS = {
    "top-level-list": lambda d: [d],
    "manifold-not-object": lambda d: {**d, "manifold": 5},
    "dim-not-integer": lambda d: {**d, "manifold": {"dim": "3"}},
    "precision-not-object": lambda d: {**d, "precision": 5},
    "curve-not-object": lambda d: {**d, "curves": ["B"]},
    "name-not-string": lambda d: _curve(d).update(name=5),
    "index-null": lambda d: _curve(d).update(initial_index=None),
    "index-float": lambda d: _curve(d).update(initial_index=2.5),
    "index-string": lambda d: _curve(d).update(initial_index="2"),
    "index-bool": lambda d: _curve(d).update(initial_index=True),
    "blocks-not-list": lambda d: _curve(d).update(blocks=5),
    "block-string": lambda d: _curve(d).update(blocks=["R"]),
    "block-unhashable-type": lambda d: _curve(d)["blocks"][0].update(
        type=["R"]),
    "block-key-missing": lambda d: _curve(d).update(
        blocks=[{"type": "N1", "eigenvalue": 1}, {"type": "D",
                                                  "lambda": "2"}]),
    "eigenvalue-string": lambda d: _curve(d).update(
        blocks=[{"type": "N1", "eigenvalue": "1", "b": "zero"},
                {"type": "D", "lambda": "2"}]),
    "irrational-string": lambda d: _curve(d)["blocks"][0].update(
        theta_over_pi="0.3333~4", irrational="false"),
    # a JSON number is a double: the document must spell the value
    "theta-number": lambda d: _curve(d)["blocks"][0].update(
        theta_over_pi=0.10000000000000000001),
    "lambda-number": lambda d: _curve(d)["blocks"].__setitem__(
        1, {"type": "D", "lambda": 2}),
    "b-not-string": lambda d: _curve(d).update(
        blocks=[{"type": "N1", "eigenvalue": 1, "b": 0},
                {"type": "D", "lambda": "2"}]),
    # digits of other scripts, which int() would read as 3/7 and 0.5~2
    "theta-arabic-indic-digits": lambda d: _curve(d)["blocks"][0].update(
        theta_over_pi="\u0663/7"),
    "theta-fullwidth-digits": lambda d: _curve(d)["blocks"][0].update(
        theta_over_pi="\uff13/7"),
    "irrational-arabic-indic-digits": lambda d: _curve(d)["blocks"][0].update(
        theta_over_pi="\u0660.\u0665~\u0662", irrational=True),
}


@pytest.mark.parametrize("case", sorted(BAD_SYSTEMS))
def test_bad_system_is_one_error_line(case, tmp_path, capsys):
    doc = serialize.system_to_dict([worked_example_B()])
    doc = BAD_SYSTEMS[case](doc) or doc
    system = tmp_path / "system.json"
    system.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["mean-index", "--system", str(system)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_parser_reuse_leaks_no_state(system_b, monkeypatch, capsys):
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "jump-search",
                        lambda args: seen.append(args) or 0)
    assert main(["jump-search", "--system", system_b,
                 "--epsilon", "1/100", "--n-max", "50"]) == 0
    assert main(["jump-search", "--system", system_b]) == 0
    assert (seen[0].epsilon, seen[0].n_max) == (Fraction(1, 100), 50)
    assert (seen[1].epsilon, seen[1].n_max) == (None, 10_000_000)
    with pytest.raises(SystemExit) as stop:
        main(["jump-search", "--system", system_b, "--n-max", "many"])
    assert stop.value.code == 1
    assert main(["jump-search", "--system", system_b]) == 0
    assert (seen[2].epsilon, seen[2].n_max) == (None, 10_000_000)
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    assert main(["mean-index", "--system", system_b]) == 0
    assert "B: 5/6" in capsys.readouterr().out
    assert cli._build_parser() is cli._build_parser()


def test_precision_settings_influence_parsing(tmp_path):
    doc = {"manifold": {"dim": 3},
           "precision": {"max_digits": 6},
           "curves": [{"name": "x", "initial_index": 1,
                       "blocks": [{"type": "R",
                                   "theta_over_pi": "0.5857864376~10",
                                   "irrational": True},
                                  {"type": "D", "lambda": "2"}]}]}
    p = tmp_path / "tight.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["index", "--system", str(p)]) == 1  # literal over budget
    doc["precision"] = {"max_digits": 40}
    p.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["index", "--system", str(p)]) == 0
    doc["precision"] = {"digits": 40}
    p.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["index", "--system", str(p)]) == 1  # unknown setting
    # refine_step is read by nothing: accepted and ignored, but typed
    doc["precision"] = {"max_digits": 40, "refine_step": 0}
    p.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["index", "--system", str(p)]) == 0
    doc["precision"] = {"max_digits": 40, "refine_step": "50"}
    p.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["index", "--system", str(p)]) == 1


def test_synthesized_irrational_roundtrip_preserves_decisions():
    # programmatic germs carry surd-built intervals; emission widens to
    # a power-of-ten radius, but every downstream decision must agree
    import json
    from geoindex.iteration import index_at, mean_index
    system = mod4_system(16, 29)
    doc = json.loads(serialize.dumps(serialize.system_to_dict(system.germs)))
    back = serialize.system_from_dict(doc)
    for orig, parsed in zip(system.germs, back):
        assert orig.name == parsed.name and orig.i1 == parsed.i1
        assert mean_index(orig).sign_vs(0) == mean_index(parsed).sign_vs(0)
        for m in range(1, 40):
            assert index_at(orig, m) == index_at(parsed, m)


def test_mean_with_an_end_at_zero_is_one_error_line(tmp_path, capsys):
    # mean index [0, 1/5], declared irrational: positive, but 1/mean is
    # unbounded, so neither a vertex nor a growth horizon exists
    doc = {"manifold": {"dim": 3},
           "curves": [{"name": "z", "initial_index": 0,
                       "blocks": [{"type": "R", "theta_over_pi": "1.1~1",
                                   "irrational": True},
                                  {"type": "D", "lambda": "2"}]}]}
    p = tmp_path / "z.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    for argv, kind in ((["jump-search", "--mbar", "1"], ""),
                       (["mbar"], "PrecisionInsufficient: ")):
        assert main(argv[:1] + ["--system", str(p)] + argv[1:]) == 1
        assert capsys.readouterr().err == (
            f"error: {kind}mean index of 'z' has an end at 0: 1/mean is "
            f"unbounded\n")


def test_mean_whose_inverse_is_too_wide_is_named(tmp_path, capsys):
    # mean index [0.0004, 0.0006], declared irrational: positive and away
    # from 0, but 1/mean, [1666.7, 2500], is too wide for a growth
    # horizon or a vertex coordinate; the error names the curve
    hyperbolic = [{"type": "D", "lambda": "2"}, {"type": "D", "lambda": "3"}]
    doc = {"manifold": {"dim": 3},
           "curves": [{"name": "a", "initial_index": 1,
                       "blocks": [{"type": "R",
                                   "theta_over_pi": "0.0005~4",
                                   "irrational": True},
                                  {"type": "D", "lambda": "2"}]},
                      {"name": "b", "initial_index": 2,
                       "blocks": hyperbolic},
                      {"name": "c", "initial_index": 3,
                       "blocks": hyperbolic}]}
    p = tmp_path / "wide.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    inverse = "[1666.6666666666667, 2500.0]"
    for argv, line in (
            (["mbar"], f"1/mean of 'a' is {inverse}, too wide for a growth "
                       f"horizon"),
            (["anosov"], f"1/mean of 'a' is {inverse}, too wide for a growth "
                         f"horizon"),
            (["jump-search", "--n-max", "1000"],
             f"1/|mean| of 'a' is {inverse}, too wide for vertex "
             f"coordinates")):
        assert main(argv[:1] + ["--system", str(p)] + argv[1:]) == 1
        assert capsys.readouterr().err == f"error: {line}\n"


def test_value_errors_print_their_message_alone(tmp_path, capsys):
    # AdmissibilityError and Unbounded are ValueErrors: "error: <message>"
    lam = D(CertifiedReal.rational(2))
    shear = IndexGerm("a", 1, (N1(1, "zero"), lam))
    falling = IndexGerm("n", -1, (lam, D(CertifiedReal.rational(3))))
    for command, germs, line in (
            ("anosov", [shear, HN, falling], "germ 'a' is not bumpy"),
            ("mbar", [falling], "germ 'n' has nonpositive mean index")):
        path = tmp_path / f"{command}.json"
        path.write_text(serialize.dumps(serialize.system_to_dict(germs)),
                        encoding="utf-8")
        assert main([command, "--system", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {line}\n"


def test_horizon_beyond_any_walk_is_one_error_line(tmp_path, capsys):
    # mean 1.41...e-19: mbar would walk down from 4.2e19 iterates and
    # anosov's admissibility up to 1.4e19; both stop before the walk
    sqrt2 = str(isqrt(2 * 10 ** 154))
    angle = CertifiedReal.parse("0." + "0" * 18 + sqrt2 + "~96",
                                irrational=True)
    lam = D(CertifiedReal.rational(2))
    slow = IndexGerm("slow", 1, (lam, R(angle)))
    hyperbolic = [IndexGerm(name, i1, (lam, D(CertifiedReal.rational(3))))
                  for name, i1 in (("h2", 2), ("h4", 4))]
    for command, germs, horizon in (
            ("mbar", [slow], 42426406871192851465),
            ("anosov", [slow] + hyperbolic, 14142135623730950489)):
        path = tmp_path / f"{command}.json"
        path.write_text(serialize.dumps(serialize.system_to_dict(germs)),
                        encoding="utf-8")
        assert main([command, "--system", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: growth horizon of 'slow' is {horizon} iterates, "
            f"beyond the 1000000 a walk may take\n")


def test_zero_denominator_is_one_error_line(tmp_path, capsys):
    doc = serialize.system_to_dict([worked_example_B()])
    _curve(doc)["blocks"] = [{"type": "D", "lambda": "1/0"},
                             {"type": "D", "lambda": "2"}]
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["mean-index", "--system", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: zero denominator in number literal: '1/0'\n")


@pytest.mark.parametrize("flags, line", [
    (["--p-hat", "0"], "p_hat must be positive"),
    (["--p-hat", "-2"], "p_hat must be positive"),
    (["--mbar", "0"], "--mbar must be positive"),
    (["--mbar", "-3"], "--mbar must be positive")])
def test_anosov_settings_below_one_are_one_error_line(
        assumption_system, capsys, flags, line):
    assert main(["anosov", "--system", assumption_system] + flags) == 1
    assert capsys.readouterr().err == f"error: {line}\n"


# what a mutation writes: wrong types, ends of ranges, and values of the
# right type that break a rule or change the data
_JUNK = (None, True, 0, 1, -1, 2.5, 10 ** 30, "", "x", "1/0", "-3/7", "1/2",
         "2", "0.5~3", "1e400", [], {}, ["R"], {"type": "R"},
         {"type": "N1", "eigenvalue": 1, "b": "zero"})
_WORDS = ("R", "D", "N1", "N2", "trivial", "nontrivial", "zero", "positive",
          "negative", "c1", "c2", "B", "1/3", "2/5", "3", "-2", "1/7",
          "0.3~1", "0.41421356~8", "0.9999~3", "1.5", "1/64", "1/1000")


def _variant(value, rng):
    """A value of value's own type, near it or from a short list."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return rng.choice((value - 1, value + 1, -value, 0, 2 * value))
    if isinstance(value, str) and value and rng.random() < 0.5:
        i = rng.randrange(len(value))
        return value[:i] + rng.choice("0123456789~/.-") + value[i + 1:]
    return rng.choice(_WORDS)


def _mutated(doc, rng):
    """doc after one or two random edits: a value changed within its type,
    a key dropped, renamed or given junk, a list item dropped or doubled,
    or the whole document replaced."""
    doc = json.loads(json.dumps(doc))
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.02:
            return rng.choice(_JUNK)
        nodes, stack = [], [doc]
        while stack:
            node = stack.pop()
            if isinstance(node, (dict, list)) and node:
                nodes.append(node)
                stack.extend(node.values() if isinstance(node, dict)
                             else node)
        if not nodes:
            return doc
        node, op = rng.choice(nodes), rng.randrange(6)
        key = (rng.choice(sorted(node)) if isinstance(node, dict)
               else rng.randrange(len(node)))
        if op < 3:
            if not isinstance(node[key], (dict, list)):
                node[key] = _variant(node[key], rng)
        elif op == 3:
            del node[key]
        elif op == 4:
            node[key] = rng.choice(_JUNK)
        elif isinstance(node, dict):
            node[key + "_"] = node.pop(key)
        else:
            node.insert(key, json.loads(json.dumps(node[key])))
    return doc


_SUBCOMMANDS = (["index", "--m-max", "8"], ["mean-index"], ["gamma"],
                ["mbar"], ["jump-search", "--n-max", "2000"],
                ["anosov", "--n-max", "2000"], ["verify-jump"],
                ["scale-jump", "--p-hat", "2"], ["morse"])


def test_mutated_documents_exit_cleanly(tmp_path, capsys):
    # 300 seeded mutations of system and certificate documents through
    # every subcommand: no traceback, an exit code in {0, 1, 2}, and an
    # exit 1 prints one error: line or a failing verification report
    rng = random.Random(2026)
    bases = []
    for k, germs in enumerate(([worked_example_B()],
                               forced_top_system().germs,
                               mod4_system(16, 29).germs)):
        system = serialize.system_to_dict(germs)
        path = tmp_path / f"cert{k}.json"
        (tmp_path / "s.json").write_text(json.dumps(system), encoding="utf-8")
        assert main(["jump-search", "--system", str(tmp_path / "s.json"),
                     "--n-max", "2000", "--format", "json",
                     "--output", str(path)]) == 0
        bases.append((system, json.loads(path.read_text(encoding="utf-8"))))
    codes = set()
    for trial in range(300):
        system, cert = rng.choice(bases)
        argv = rng.choice(_SUBCOMMANDS)
        with_cert = argv[0] in ("verify-jump", "scale-jump", "morse")
        if with_cert and rng.random() < 0.5:
            cert = _mutated(cert, rng)
        else:
            system = _mutated(system, rng)
        (tmp_path / "s.json").write_text(json.dumps(system), encoding="utf-8")
        (tmp_path / "c.json").write_text(json.dumps(cert), encoding="utf-8")
        extra = (["--certificate", str(tmp_path / "c.json")] if with_cert
                 else [])
        code = main(argv[:1] + ["--system", str(tmp_path / "s.json")]
                    + argv[1:] + extra)
        out, err = capsys.readouterr()
        codes.add(code)
        assert code in (0, 1, 2), (trial, argv, system, cert)
        if code == 1 and not (argv[0] == "verify-jump" and "FAIL" in out):
            assert err.startswith("error:") and err.count("\n") == 1, (
                trial, argv, err)
    assert codes == {0, 1, 2}
