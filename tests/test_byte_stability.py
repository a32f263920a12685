"""CLI JSON output pinned byte for byte.

The digests were taken from the implementation that evaluated every
ceiling through ``CertifiedReal``; any change of the evaluation path
must reproduce them exactly.
"""

import hashlib
import json

import pytest

from geoindex import samples, serialize
from geoindex.cli import main
from geoindex.exact import CertifiedReal
from geoindex.iteration import IndexGerm
from geoindex.normal_forms import D

ANOSOV = {
    "mod4": (samples.mod4_system(16, 29),
             "6d83776a11d52ba85d4935010fc742ed65511cf4efe07ccf8910134173431f42"),
    "gamma-window": (samples.gamma_window_system(),
                     "cdf0a8665027f190b2ce8e127d0ef66a81a4d8bb96c026c02dc728e9bd89160e"),
    "forced-top": (samples.forced_top_system(),
                   "6f22e5d4821445b528331ef6a44d57ea35e27b2e8453088926df0e5ee6baf6d5"),
    "mismatch": (samples.mismatch_system(),
                 "793cdc3661e3bbdaf858578e75628431415198017c69d7155c752e4478bf469f"),
    "two-odd-one-even": (samples.two_odd_one_even_system(),
                         "2dd9e096c905d7d10871e51588e86f273903401354c57e66c23e24cdb3aa65c2"),
    "all-odd": (samples.all_odd_system(),
                "3a0aaa8f48a7f35314a9398e0dd0a1293f95f85732ee258dafaa47fd88b9ec89"),
}

SYSTEM_B = {
    "index": "153eeff0dfd90c20d43169e9564f1cf388ffff32b684cf0ea132e04e1c91d029",
    "jump-search": "899016f050a630ebb40e231d9e439d7331cc3e6a38d63a8c23acf9794c563243",
    "verify-jump": "b7f2a69d0f645bb6a58b6e63fc9899eaa2ccbc20745c6b3c338d2873117d1eec",
    "scale-jump": "fcc6de2b9810fc05b8a3c700e249f86fd688ee4838b8cd8e0337d17bb6524fe9",
    "mean-index": "d8412e97f333599fa7868dc9141dbf41cd4b0e2efa25de493ce86bf4322a2648",
    "gamma": "c560f2aa268885372eea0280d1f19db5a010a5827bf92c248b5eebe1fffc22eb",
    "mbar": "b252b469a038020c514ee78e8f770b6ed494566f37ea3292b3a5a0e634d8e75b",
}

# verify-jump on B's certificate with Delta raised to 1: exit code 1
VERIFY_JUMP_FAILING = "fdb51ab10b87c1e24035954801eaaef24d7ca26fb62c3f595a96ba8c023c0ff4"

MORSE_H = "712e5c2cf46f253eb0499dede91f44a6dfa30f19a264a236de2eec6552d4c2b1"


def _write(tmp_path, name, germs):
    path = tmp_path / f"{name}.json"
    path.write_text(serialize.dumps(serialize.system_to_dict(germs)),
                    encoding="utf-8")
    return str(path)


def _json_digest(tmp_path, argv, want_code):
    out = tmp_path / "out.json"
    assert main(argv + ["--format", "json", "--output", str(out)]) \
        == want_code
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("family", sorted(ANOSOV))
def test_anosov_json_is_pinned(tmp_path, family):
    system, digest = ANOSOV[family]
    path = _write(tmp_path, family, system.germs)
    assert _json_digest(tmp_path, ["anosov", "--system", path,
                                   "--n-max", "100000"], 2) == digest


def test_system_b_subcommands_are_pinned(tmp_path, capsys):
    b = _write(tmp_path, "b", [samples.worked_example_B()])
    cert = str(tmp_path / "cert.json")
    assert main(["jump-search", "--system", b, "--delta", "1/100",
                 "--epsilon", "1/100", "--n-max", "100", "--format", "json",
                 "--output", cert]) == 0
    with open(cert, "rb") as fh:
        got = {"jump-search": hashlib.sha256(fh.read()).hexdigest()}
    got["index"] = _json_digest(tmp_path, ["index", "--system", b,
                                           "--m-max", "60"], 0)
    for command in ("verify-jump", "scale-jump"):
        extra = ["--p-hat", "2"] if command == "scale-jump" else []
        got[command] = _json_digest(
            tmp_path, [command, "--system", b, "--certificate", cert] + extra,
            0)
    for command in ("mean-index", "gamma", "mbar"):
        got[command] = _json_digest(tmp_path, [command, "--system", b], 0)
    assert got == SYSTEM_B
    # B is degenerate at iterate 4, so its Morse counts are refused
    capsys.readouterr()
    assert main(["morse", "--system", b, "--certificate", cert]) == 1
    assert capsys.readouterr().err == "error: iterate 4 of 'B' is degenerate\n"


def test_failing_verify_jump_is_pinned(tmp_path):
    b = _write(tmp_path, "b", [samples.worked_example_B()])
    cert = tmp_path / "cert.json"
    assert main(["jump-search", "--system", b, "--delta", "1/100",
                 "--epsilon", "1/100", "--n-max", "100", "--format", "json",
                 "--output", str(cert)]) == 0
    doc = json.loads(cert.read_text(encoding="utf-8"))
    doc["curves"][0]["Delta"] += 1
    cert.write_text(serialize.dumps(doc), encoding="utf-8")
    assert _json_digest(tmp_path, ["verify-jump", "--system", b,
                                   "--certificate", str(cert)], 1) \
        == VERIFY_JUMP_FAILING


def test_morse_json_is_pinned(tmp_path):
    germ = IndexGerm("H", 1, (D(CertifiedReal.rational(2)),
                              D(CertifiedReal.rational(3))))
    h = _write(tmp_path, "h", [germ])
    cert = str(tmp_path / "cert.json")
    assert main(["jump-search", "--system", h, "--delta", "1/100",
                 "--n-min", "5", "--n-max", "20", "--format", "json",
                 "--output", cert]) == 0
    assert _json_digest(tmp_path, ["morse", "--system", h,
                                   "--certificate", cert], 0) == MORSE_H
